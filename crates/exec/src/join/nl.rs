//! Nested loops join.
//!
//! Used by the optimizer as a (rarely winning) physical alternative and by
//! the property-test suite as the join merge and hash joins are checked
//! against.
//!
//! The inner (right) side is buffered as one column batch. Each outer row
//! is paired with every inner row whose key equals its own (`Value`'s
//! equality; a NULL key matches nothing), in inner arrival order, and an
//! output batch is gathered from both sides by those row index pairs —
//! columns `left ++ right`, [`NULL_ROW`] for the padding of a LEFT or FULL
//! OUTER join, as the merge join emits. A FULL OUTER join emits the inner
//! rows nothing matched once the outer stream is done.

use super::{side_by_side, JoinKind};
use crate::op::{drain_columns, BoxOp, Latch, Operator, DEFAULT_BATCH_SIZE};
use pyro_common::{ColumnBuilder, ColumnarBatch, KeySpec, Result, Schema, NULL_ROW};
use std::cmp::Ordering;

/// Materializing nested-loops join (inner side buffered).
pub struct NestedLoopsJoin {
    left: BoxOp,
    /// The inner side until it is buffered into `inner`.
    right: Option<BoxOp>,
    left_key: KeySpec,
    right_key: KeySpec,
    kind: JoinKind,
    schema: Schema,
    /// The buffered inner side, and which of its rows an outer row matched.
    inner: ColumnarBatch,
    matched: Vec<bool>,
    /// The current outer batch's selected rows, the batch, and the next
    /// of those rows to join.
    outer: Option<(Vec<u32>, ColumnarBatch, usize)>,
    /// Once the outer side is done: the inner rows still to emit padded
    /// (a FULL OUTER join's unmatched rows; none otherwise).
    tail: Option<std::vec::IntoIter<u32>>,
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
            right: Some(right),
            left_key,
            right_key,
            kind,
            schema,
            inner: ColumnarBatch::from_columns(Vec::new(), 0),
            matched: Vec::new(),
            outer: None,
            tail: None,
            failed: Latch::default(),
            demand_driven: false,
            batch: DEFAULT_BATCH_SIZE,
        }
    }

    fn join_batch(&mut self) -> Result<Option<ColumnarBatch>> {
        if let Some(mut right) = self.right.take() {
            self.inner = drain_columns(&mut right)?;
            self.matched = vec![false; self.inner.num_rows()];
        }
        let want = if self.demand_driven { 1 } else { self.batch };
        let (inner, keys) = (
            &self.inner,
            self.left_key.cols().iter().zip(self.right_key.cols()),
        );
        while self.tail.is_none() {
            let Some((rows, outer, pos)) = self.outer.as_mut() else {
                match self.left.next_batch()? {
                    Some(b) => self.outer = Some((b.sel_vec(), b, 0)),
                    None => {
                        let full = self.kind == JoinKind::FullOuter;
                        let unmatched = (0..inner.num_rows() as u32)
                            .filter(|&j| full && !self.matched[j as usize]);
                        self.tail = Some(unmatched.collect::<Vec<_>>().into_iter());
                    }
                }
                continue;
            };
            // Pairs of (outer, inner) row indexes, NULL_ROW for a pad.
            let (mut li, mut ri) = (Vec::new(), Vec::new());
            while *pos < rows.len() && li.len() < want {
                let i = rows[*pos];
                *pos += 1;
                let before = li.len();
                for j in 0..inner.num_rows() {
                    let matches = keys.clone().all(|(&lc, &rc)| {
                        let l = outer.column(lc);
                        !l.is_null(i as usize)
                            && l.compare(i as usize, inner.column(rc), j) == Ordering::Equal
                    });
                    if matches {
                        self.matched[j] = true;
                        li.push(i);
                        ri.push(j as u32);
                    }
                }
                if li.len() == before && self.kind != JoinKind::Inner {
                    li.push(i);
                    ri.push(NULL_ROW);
                }
            }
            let out = (!li.is_empty()).then(|| side_by_side(outer, &li, inner, &ri));
            if *pos == rows.len() {
                self.outer = None;
            }
            if out.is_some() {
                return Ok(out);
            }
        }
        let ri: Vec<u32> = self
            .tail
            .as_mut()
            .expect("outer side done")
            .take(self.batch)
            .collect();
        let no_left = (0..self.left.schema().len()).map(|_| ColumnBuilder::new());
        let no_left = ColumnarBatch::from_builders(no_left.collect());
        let li = vec![NULL_ROW; ri.len()];
        Ok((!ri.is_empty()).then(|| side_by_side(&no_left, &li, inner, &ri)))
    }
}

impl Operator for NestedLoopsJoin {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn next_batch(&mut self) -> Result<Option<ColumnarBatch>> {
        self.failed.check()?;
        let pulled = self.join_batch();
        self.failed.record(pulled)
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
    use crate::limit::Limit;
    use crate::op::{collect, exact, in_every_layout, ValuesOp};
    use pyro_common::{Tuple, Value};

    fn rows(vals: &[(i64, i64)]) -> Vec<Tuple> {
        vals.iter()
            .map(|&(a, b)| Tuple::new(vec![Value::Int(a), Value::Int(b)]))
            .collect()
    }

    fn nl(left: BoxOp, right: BoxOp, kind: JoinKind) -> NestedLoopsJoin {
        let key = || KeySpec::new(vec![0]);
        NestedLoopsJoin::new(left, right, key(), key(), kind)
    }

    fn join(l: &[(i64, i64)], r: &[(i64, i64)], kind: JoinKind) -> Vec<Tuple> {
        let left = ValuesOp::new(Schema::ints(&["a", "b"]), rows(l));
        let right = ValuesOp::new(Schema::ints(&["c", "d"]), rows(r));
        collect(Box::new(nl(Box::new(left), Box::new(right), kind))).unwrap()
    }

    /// Rows of four cells, `None` for NULL.
    fn expect(vals: &[[Option<i64>; 4]]) -> Vec<Tuple> {
        let cell = |c: Option<i64>| c.map_or(Value::Null, Value::Int);
        vals.iter()
            .map(|r| Tuple::new(r.iter().map(|&c| cell(c)).collect()))
            .collect()
    }

    #[test]
    fn inner() {
        let out = join(
            &[(1, 1), (2, 2), (2, 3)],
            &[(2, 9), (3, 9), (2, 8)],
            JoinKind::Inner,
        );
        let s = Some;
        assert_eq!(
            exact(&out),
            exact(&expect(&[
                [s(2), s(2), s(2), s(9)],
                [s(2), s(2), s(2), s(8)],
                [s(2), s(3), s(2), s(9)],
                [s(2), s(3), s(2), s(8)],
            ]))
        );
    }

    /// An unmatched left row comes out in stream order with NULLs on the
    /// right, columns `left ++ right`.
    #[test]
    fn left_outer() {
        let out = join(
            &[(1, 1), (2, 2), (3, 3)],
            &[(2, 9), (4, 7)],
            JoinKind::LeftOuter,
        );
        let s = Some;
        assert_eq!(
            exact(&out),
            exact(&expect(&[
                [s(1), s(1), None, None],
                [s(2), s(2), s(2), s(9)],
                [s(3), s(3), None, None],
            ]))
        );
    }

    /// The inner rows no left row matched follow the outer stream, in
    /// arrival order, with NULLs on the left.
    #[test]
    fn full_outer() {
        let out = join(
            &[(1, 1), (2, 2)],
            &[(5, 9), (2, 8), (0, 7)],
            JoinKind::FullOuter,
        );
        let s = Some;
        assert_eq!(
            exact(&out),
            exact(&expect(&[
                [s(1), s(1), None, None],
                [s(2), s(2), s(2), s(8)],
                [None, None, s(5), s(9)],
                [None, None, s(0), s(7)],
            ]))
        );
        // An empty side: every row of the other one, padded.
        let out = join(&[], &[(5, 9)], JoinKind::FullOuter);
        assert_eq!(exact(&out), exact(&expect(&[[None, None, s(5), s(9)]])));
        let out = join(&[(1, 1)], &[], JoinKind::FullOuter);
        assert_eq!(exact(&out), exact(&expect(&[[s(1), s(1), None, None]])));
    }

    /// Every input layout — dense batches, rows behind a selection vector
    /// between decoys, and the two alternating — at batch sizes 1 and
    /// 1024, and under a `Limit` (one productive outer row per pull), gives
    /// the rows of a plain run, or their first `k`.
    #[test]
    fn outer_joins_agree_over_every_layout_and_under_a_limit() {
        let (left, right): (Vec<Tuple>, Vec<Tuple>) = (
            (0..40)
                .map(|i| Tuple::new(vec![Value::Int(i % 15), Value::Int(i)]))
                .collect(),
            (0..30)
                .map(|i| Tuple::new(vec![Value::Int(i % 13 + 3), Value::Int(-i)]))
                .collect(),
        );
        let (ls, rs) = (Schema::ints(&["a", "b"]), Schema::ints(&["c", "d"]));
        let values = |schema: &Schema, rows: &[Tuple]| -> BoxOp {
            Box::new(ValuesOp::new(schema.clone(), rows.to_vec()))
        };
        for kind in [JoinKind::LeftOuter, JoinKind::FullOuter] {
            let reference =
                collect(Box::new(nl(values(&ls, &left), values(&rs, &right), kind))).unwrap();
            let pads = |c: usize| reference.iter().filter(|t| t.get(c).is_null()).count();
            let full = kind == JoinKind::FullOuter;
            assert!(
                pads(2) > 0 && (pads(0) > 0) == full,
                "test premise: padded rows"
            );
            for batch in [1, 1024] {
                let layouts = in_every_layout(&ls, &left)
                    .into_iter()
                    .zip(in_every_layout(&rs, &right));
                for (i, (l, r)) in layouts.enumerate() {
                    let mut op = nl(l, r, kind);
                    op.set_batch_size(batch);
                    let out = collect(Box::new(op)).unwrap();
                    assert_eq!(exact(&out), exact(&reference), "{kind:?} layout {i}");
                }
            }
            for k in [1, 5, 38, reference.len() as u64 - 1, 1000] {
                let op = nl(values(&ls, &left), values(&rs, &right), kind);
                let out = collect(Box::new(Limit::new(Box::new(op), k))).unwrap();
                let n = reference.len().min(k as usize);
                assert_eq!(exact(&out), exact(&reference[..n]), "{kind:?} limit {k}");
            }
        }
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
        let op = nl(
            Box::new(ValuesOp::new(
                Schema::ints(&["a", "b"]),
                rows(&[(2, 1), (0, 2)]),
            )),
            Box::new(ValuesOp::new(Schema::ints(&["c", "d"]), right)),
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
        let out = join(&[(2, 2), (1, 1)], &[(3, 9), (2, 9)], JoinKind::Inner);
        let s = Some;
        assert_eq!(exact(&out), exact(&expect(&[[s(2), s(2), s(2), s(9)]])));
    }
}
