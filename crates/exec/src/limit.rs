//! LIMIT / Top-K.
//!
//! Over an order-producing child this is Top-K; the paper's §3.1 notes MRS's
//! early output has "immense benefits for Top-K queries" because the
//! pipeline stops after the first segments instead of sorting everything —
//! the `fig08` bench demonstrates exactly that.
//!
//! It trims an over-long batch by cutting its selection vector.

use crate::op::{BoxOp, Operator, DEFAULT_BATCH_SIZE};
use pyro_common::{ColumnarBatch, Result, Schema};

/// Emits at most `k` child tuples, then stops pulling.
pub struct Limit {
    child: BoxOp,
    remaining: u64,
    batch: usize,
}

impl Limit {
    /// Wraps `child`, keeping the first `k` rows.
    pub fn new(mut child: BoxOp, k: u64) -> Self {
        // This operator is why a stream may be cut short: from here down,
        // operators do only the work their next output row needs.
        child.set_demand_driven();
        Limit {
            child,
            remaining: k,
            batch: DEFAULT_BATCH_SIZE,
        }
    }
}

impl Operator for Limit {
    fn schema(&self) -> &Schema {
        self.child.schema()
    }

    fn next_batch(&mut self) -> Result<Option<ColumnarBatch>> {
        if self.remaining == 0 {
            return Ok(None);
        }
        // Narrow the child's batch to the rows still wanted, so Top-K over
        // a demand-driven producer (the partial sort) closes exactly the
        // segments — and charges exactly the same ExecMetrics — that
        // `remaining` one-row pulls would. (Base-table scans below
        // may still read ahead by up to one batch; see the op.rs contract.)
        let want = (self.batch as u64).min(self.remaining) as usize;
        self.child.set_batch_size(want);
        match self.child.next_batch()? {
            Some(mut batch) => {
                if batch.len() as u64 > self.remaining {
                    let mut sel = batch.sel_vec();
                    sel.truncate(self.remaining as usize);
                    batch.set_sel(sel);
                }
                self.remaining -= batch.len() as u64;
                Ok(Some(batch))
            }
            None => {
                self.remaining = 0;
                Ok(None)
            }
        }
    }

    fn set_demand_driven(&mut self) {
        self.child.set_demand_driven();
    }

    fn set_batch_size(&mut self, rows: usize) {
        self.batch = rows.max(1);
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        // `remaining` caps both bounds, making Limit-topped plans
        // exact-cardinality whenever the child's lower bound reaches k.
        let k = self.remaining as usize;
        let (lower, upper) = self.child.size_hint();
        (lower.min(k), Some(upper.unwrap_or(k).min(k)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::{collect, exact, in_every_layout, ValuesOp};
    use pyro_common::{Tuple, Value};

    #[test]
    fn truncates() {
        let rows: Vec<Tuple> = (0..10).map(|i| Tuple::new(vec![Value::Int(i)])).collect();
        let src = ValuesOp::new(Schema::ints(&["a"]), rows);
        let op = Limit::new(Box::new(src), 3);
        assert_eq!(collect(Box::new(op)).unwrap().len(), 3);
    }

    /// Over dense, selected and alternating input, `Limit` emits the first
    /// `k` rows, a batch cut short through its selection vector.
    #[test]
    fn emits_the_first_rows_as_columns_in_every_layout() {
        let rows: Vec<Tuple> = (0..40)
            .map(|i| Tuple::new(vec![Value::Int(i), Value::Int(i % 7)]))
            .collect();
        let schema = Schema::ints(&["a", "b"]);
        for k in [0, 1, 5, 17, 40, 100] {
            for (i, input) in in_every_layout(&schema, &rows).into_iter().enumerate() {
                let mut op = Limit::new(input, k);
                op.set_batch_size(3);
                let want = &rows[..rows.len().min(k as usize)];
                assert_eq!(
                    exact(&collect(Box::new(op)).unwrap()),
                    exact(want),
                    "k={k}, layout {i}"
                );
            }
        }
    }

    #[test]
    fn zero_limit() {
        let src = ValuesOp::new(Schema::ints(&["a"]), vec![Tuple::new(vec![Value::Int(1)])]);
        let op = Limit::new(Box::new(src), 0);
        assert!(collect(Box::new(op)).unwrap().is_empty());
    }

    #[test]
    fn limit_larger_than_input() {
        let src = ValuesOp::new(Schema::ints(&["a"]), vec![Tuple::new(vec![Value::Int(1)])]);
        let op = Limit::new(Box::new(src), 100);
        assert_eq!(collect(Box::new(op)).unwrap().len(), 1);
    }

    #[test]
    fn size_hint_is_exact_over_known_child() {
        let rows: Vec<Tuple> = (0..10).map(|i| Tuple::new(vec![Value::Int(i)])).collect();
        let src = ValuesOp::new(Schema::ints(&["a"]), rows);
        let mut op = Limit::new(Box::new(src), 3);
        assert_eq!(op.size_hint(), (3, Some(3)), "k caps a 10-row child");
        op.set_batch_size(1);
        op.next_batch().unwrap();
        assert_eq!(op.size_hint(), (2, Some(2)));
        // k beyond the child: the child's exact count wins.
        let src = ValuesOp::new(Schema::ints(&["a"]), vec![Tuple::new(vec![Value::Int(1)])]);
        let op = Limit::new(Box::new(src), 100);
        assert_eq!(op.size_hint(), (1, Some(1)));
    }
}
