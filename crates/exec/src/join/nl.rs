//! Nested loops join — the semantic reference implementation.
//!
//! Used by the optimizer as a (rarely winning) physical alternative and by
//! the property-test suite as the oracle merge/hash joins are checked
//! against.

use super::JoinKind;
use crate::op::{pull_row, rows_batch, Batch, BoxOp, Operator, Stash, DEFAULT_BATCH_SIZE};
use pyro_common::{KeySpec, Result, Schema, Tuple, Value};

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
                !lv.is_null() && !rv.is_null() && lv == rv
            })
    }
}

impl NestedLoopsJoin {
    /// Buffers the inner side, pulling in the given granularity.
    fn materialize_right(&mut self, batched: bool) -> Result<()> {
        if self.right_rows.is_none() {
            let mut src = self.right_source.take().expect("materialize once");
            let mut stash = Stash::new();
            let mut rows = Vec::new();
            while let Some(t) = pull_row(&mut src, &mut stash, batched)? {
                rows.push((t, std::cell::Cell::new(false)));
            }
            self.right_rows = Some(rows);
        }
        Ok(())
    }

    /// Joins one left row against the buffered inner side, appending all
    /// produced rows (matches, or the outer pad) to `out`. Shared by both
    /// pull paths so match semantics can never diverge.
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

    /// Processes one left row (or the full-outer drain), leaving produced
    /// rows in `self.pending`. `Ok(false)` means the stream is complete.
    fn step(&mut self, batched: bool) -> Result<bool> {
        self.materialize_right(batched)?;
        match pull_row(&mut self.left, &mut self.left_stash, batched)? {
            Some(l) => {
                let mut out = Vec::new();
                self.join_left_row(&l, &mut out);
                if !out.is_empty() {
                    self.pending = out.into_iter();
                }
                Ok(true)
            }
            None => {
                if self.drained_right {
                    return Ok(false);
                }
                self.drained_right = true;
                if matches!(self.kind, JoinKind::FullOuter) {
                    let rows = self.right_rows.as_ref().expect("materialized");
                    let pad_len = self.schema.len() - self.right_schema_len;
                    let pad = Tuple::nulls(pad_len);
                    let out: Vec<Tuple> = rows
                        .iter()
                        .filter(|(_, seen)| !seen.get())
                        .map(|(r, _)| pad.concat(r))
                        .collect();
                    if out.is_empty() {
                        return Ok(false);
                    }
                    self.pending = out.into_iter();
                    Ok(true)
                } else {
                    Ok(false)
                }
            }
        }
    }
}

impl Operator for NestedLoopsJoin {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn next(&mut self) -> Result<Option<Tuple>> {
        loop {
            if let Some(t) = self.pending.next() {
                return Ok(Some(t));
            }
            if !self.step(false)? {
                return Ok(None);
            }
        }
    }

    fn next_batch(&mut self) -> Result<Option<Batch>> {
        // Leftovers from the row path or the full-outer drain.
        let mut out: Vec<Tuple> = Vec::new();
        while out.len() < self.batch {
            match self.pending.next() {
                Some(t) => out.push(t),
                None => break,
            }
        }
        if out.len() >= self.batch {
            return Ok(Some(Batch::Rows(out)));
        }
        self.materialize_right(true)?;
        // Join loop: matched rows go straight into the output batch.
        while !self.drained_right && out.len() < self.batch {
            match pull_row(&mut self.left, &mut self.left_stash, true)? {
                Some(l) => {
                    self.join_left_row(&l, &mut out);
                }
                None => {
                    // Stage the full-outer drain through the shared path.
                    if !self.step(true)? && self.pending.len() == 0 {
                        break;
                    }
                    while out.len() < self.batch {
                        match self.pending.next() {
                            Some(t) => out.push(t),
                            None => break,
                        }
                    }
                    break;
                }
            }
        }
        Ok(rows_batch(out))
    }

    fn batch_size(&self) -> usize {
        self.batch
    }

    fn set_batch_size(&mut self, rows: usize) {
        self.batch = rows.max(1);
    }

    /// The outer (left) side streams; the inner side is buffered whole.
    fn set_demand_driven(&mut self) {
        self.left.set_demand_driven();
    }
}

// Silence unused import warning for Value (used in keys_match via is_null).
#[allow(unused)]
fn _type_check(v: &Value) -> bool {
    v.is_null()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::{collect, ValuesOp};

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

    #[test]
    fn unordered_inputs_fine() {
        // NL join does not require sorted inputs.
        assert_eq!(
            join(&[(2, 2), (1, 1)], &[(3, 9), (2, 9)], JoinKind::Inner).len(),
            1
        );
    }
}
