//! Nested loops join.
//!
//! Used by the optimizer as a (rarely winning) physical alternative and by
//! the property-test suite as the join merge and hash joins are checked
//! against.

use super::JoinKind;
use crate::op::{rows_batch, Batch, BoxOp, Latch, Operator, Stash, DEFAULT_BATCH_SIZE};
use pyro_common::{KeySpec, Result, Schema, Tuple};

/// Materializing nested-loops join (inner side buffered).
pub struct NestedLoopsJoin {
    left: BoxOp,
    left_key: KeySpec,
    right_key: KeySpec,
    kind: JoinKind,
    schema: Schema,
    right_schema_len: usize,
    right_rows: Option<Vec<(Tuple, std::cell::Cell<bool>)>>,
    right_source: Option<BoxOp>,
    pending: std::vec::IntoIter<Tuple>,
    drained_right: bool,
    left_stash: Stash,
    failed: Latch,
    /// Set by a `Limit` above: one productive left row per pull.
    demand_driven: bool,
    batch: usize,
}

impl NestedLoopsJoin {
    /// Builds an NL join on positional equality keys.
    pub fn new(
        left: BoxOp,
        right: BoxOp,
        left_key: KeySpec,
        right_key: KeySpec,
        kind: JoinKind,
    ) -> Self {
        assert_eq!(left_key.len(), right_key.len());
        let schema = left.schema().join(right.schema());
        NestedLoopsJoin {
            left,
            left_key,
            right_key,
            kind,
            schema,
            right_schema_len: right.schema().len(),
            right_rows: None,
            right_source: Some(right),
            pending: Vec::new().into_iter(),
            drained_right: false,
            left_stash: Stash::new(),
            failed: Latch::default(),
            demand_driven: false,
            batch: DEFAULT_BATCH_SIZE,
        }
    }

    fn keys_match(&self, l: &Tuple, r: &Tuple) -> bool {
        self.left_key
            .cols()
            .iter()
            .zip(self.right_key.cols())
            .all(|(&lc, &rc)| {
                let (lv, rv) = (l.get(lc), r.get(rc));
                !lv.is_null() && lv == rv
            })
    }

    /// Buffers the inner side.
    fn materialize_right(&mut self) -> Result<()> {
        if self.right_rows.is_none() {
            let mut src = self.right_source.take().expect("materialize once");
            let mut stash = Stash::new();
            let mut rows = Vec::new();
            while let Some(t) = stash.next_row(&mut src)? {
                rows.push((t, std::cell::Cell::new(false)));
            }
            self.right_rows = Some(rows);
        }
        Ok(())
    }

    /// Joins one left row against the buffered inner side, appending all
    /// produced rows (matches, or the outer pad) to `out`.
    fn join_left_row(&self, l: &Tuple, out: &mut Vec<Tuple>) {
        let rows = self.right_rows.as_ref().expect("materialized");
        let before = out.len();
        for (r, seen) in rows {
            if self.keys_match(l, r) {
                seen.set(true);
                out.push(l.concat(r));
            }
        }
        if out.len() == before && matches!(self.kind, JoinKind::LeftOuter | JoinKind::FullOuter) {
            out.push(l.concat(&Tuple::nulls(self.right_schema_len)));
        }
    }

    /// At the end of the left input: stages the inner rows no left row
    /// matched (full outer joins) in `self.pending`.
    fn drain_unmatched(&mut self) {
        self.drained_right = true;
        if matches!(self.kind, JoinKind::FullOuter) {
            let rows = self.right_rows.as_ref().expect("materialized");
            let pad = Tuple::nulls(self.schema.len() - self.right_schema_len);
            let unmatched = rows.iter().filter(|(_, seen)| !seen.get());
            let out: Vec<Tuple> = unmatched.map(|(r, _)| pad.concat(r)).collect();
            self.pending = out.into_iter();
        }
    }

    fn join_batch(&mut self) -> Result<Option<Batch>> {
        // Leftovers from the full-outer drain.
        let mut out: Vec<Tuple> = self.pending.by_ref().take(self.batch).collect();
        if out.len() >= self.batch {
            return Ok(Some(Batch::Rows(out)));
        }
        self.materialize_right()?;
        // Join loop: matched rows go straight into the output batch.
        let want = if self.demand_driven { 1 } else { self.batch };
        while !self.drained_right && out.len() < want {
            match self.left_stash.next_row(&mut self.left)? {
                Some(l) => self.join_left_row(&l, &mut out),
                None => {
                    self.drain_unmatched();
                    let room = self.batch - out.len();
                    out.extend(self.pending.by_ref().take(room));
                    break;
                }
            }
        }
        Ok(rows_batch(out))
    }
}

impl Operator for NestedLoopsJoin {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn next_batch(&mut self) -> Result<Option<Batch>> {
        self.failed.check()?;
        let pulled = self.join_batch();
        self.failed.record(pulled)
    }

    fn batch_size(&self) -> usize {
        self.batch
    }

    fn set_batch_size(&mut self, rows: usize) {
        self.batch = rows.max(1);
    }

    /// The outer (left) side streams; the inner side is buffered whole.
    fn set_demand_driven(&mut self) {
        self.demand_driven = true;
        self.left.set_demand_driven();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::{collect, exact, ValuesOp};
    use pyro_common::Value;

    fn rows(vals: &[(i64, i64)]) -> Vec<Tuple> {
        vals.iter()
            .map(|&(a, b)| Tuple::new(vec![Value::Int(a), Value::Int(b)]))
            .collect()
    }

    fn join(l: &[(i64, i64)], r: &[(i64, i64)], kind: JoinKind) -> Vec<Tuple> {
        let left = ValuesOp::new(Schema::ints(&["a", "b"]), rows(l));
        let right = ValuesOp::new(Schema::ints(&["c", "d"]), rows(r));
        let op = NestedLoopsJoin::new(
            Box::new(left),
            Box::new(right),
            KeySpec::new(vec![0]),
            KeySpec::new(vec![0]),
            kind,
        );
        collect(Box::new(op)).unwrap()
    }

    #[test]
    fn inner() {
        assert_eq!(
            join(&[(1, 1), (2, 2)], &[(2, 9), (3, 9)], JoinKind::Inner).len(),
            1
        );
    }

    #[test]
    fn left_outer() {
        assert_eq!(
            join(&[(1, 1), (2, 2)], &[(2, 9)], JoinKind::LeftOuter).len(),
            2
        );
    }

    #[test]
    fn full_outer() {
        assert_eq!(join(&[(1, 1)], &[(2, 9)], JoinKind::FullOuter).len(), 2);
    }

    /// An INT key equals the DOUBLE holding the same integer (`2 = 2.0`),
    /// as under a merge join; not a fraction, −0.0 or NULL.
    #[test]
    fn int_equals_integral_double() {
        let right: Vec<Tuple> = [2.0, 2.5, -0.0, 0.0]
            .into_iter()
            .map(|d| Tuple::new(vec![Value::Double(d), Value::Int(9)]))
            .chain([Tuple::new(vec![Value::Null, Value::Int(9)])])
            .collect();
        let op = NestedLoopsJoin::new(
            Box::new(ValuesOp::new(
                Schema::ints(&["a", "b"]),
                rows(&[(2, 1), (0, 2)]),
            )),
            Box::new(ValuesOp::new(Schema::ints(&["c", "d"]), right)),
            KeySpec::new(vec![0]),
            KeySpec::new(vec![0]),
            JoinKind::Inner,
        );
        let out = collect(Box::new(op)).unwrap();
        let keys: Vec<_> = out.iter().map(|t| (t.get(0), t.get(2))).collect();
        assert_eq!(
            exact(&keys),
            exact(&[
                (&Value::Int(2), &Value::Double(2.0)),
                (&Value::Int(0), &Value::Double(0.0))
            ])
        );
    }

    #[test]
    fn unordered_inputs_fine() {
        // NL join does not require sorted inputs.
        assert_eq!(
            join(&[(2, 2), (1, 1)], &[(3, 9), (2, 9)], JoinKind::Inner).len(),
            1
        );
    }
}
