//! Selection.

use crate::expr::Expr;
use crate::op::{Batch, BoxOp, Operator};
use crate::vector::VecPredicate;
use pyro_common::{Result, Schema};

/// Emits child tuples satisfying a predicate. Order-preserving.
pub struct Filter {
    child: BoxOp,
    predicate: Expr,
    /// Vectorized form of the predicate; `None` for shapes only the row
    /// interpreter handles.
    vec_pred: Option<VecPredicate>,
}

impl Filter {
    /// Wraps `child` with `predicate`.
    pub fn new(child: BoxOp, predicate: Expr) -> Self {
        let vec_pred = VecPredicate::compile(&predicate);
        Filter {
            child,
            predicate,
            vec_pred,
        }
    }
}

impl Operator for Filter {
    fn schema(&self) -> &Schema {
        self.child.schema()
    }

    /// A `Cols` batch under a vectorizable predicate has its selection
    /// vector refined with per-column loops and stays `Cols` — no row is
    /// materialized. Anything else — a `Rows` batch, or a predicate shape
    /// the kernel does not cover — is filtered by the row interpreter
    /// (compiled to a closure once per batch) and handed on as `Rows`.
    fn next_batch(&mut self) -> Result<Option<Batch>> {
        while let Some(batch) = self.child.next_batch()? {
            let mut rows = match (batch, &self.vec_pred) {
                (Batch::Cols(mut cols), Some(pred)) => {
                    let sel = pred.refine(&cols);
                    if sel.is_empty() {
                        continue;
                    }
                    cols.set_sel(sel);
                    return Ok(Some(Batch::Cols(cols)));
                }
                (batch, _) => batch.into_rows(),
            };
            self.predicate.retain_passing(&mut rows)?;
            if !rows.is_empty() {
                return Ok(Some(Batch::Rows(rows)));
            }
        }
        Ok(None)
    }

    fn set_demand_driven(&mut self) {
        self.child.set_demand_driven();
    }

    fn batch_size(&self) -> usize {
        self.child.batch_size()
    }

    fn set_batch_size(&mut self, rows: usize) {
        self.child.set_batch_size(rows);
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        // A filter can drop everything but never adds rows.
        (0, self.child.size_hint().1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::CmpOp;
    use crate::op::{collect, in_every_layout, ValuesOp};
    use pyro_common::{Tuple, Value};

    #[test]
    fn filters_rows() {
        let rows: Vec<Tuple> = (0..10).map(|i| Tuple::new(vec![Value::Int(i)])).collect();
        let src = ValuesOp::new(Schema::ints(&["a"]), rows);
        let f = Filter::new(
            Box::new(src),
            Expr::cmp(CmpOp::Ge, Expr::col(0), Expr::lit(7i64)),
        );
        let out = collect(Box::new(f)).unwrap();
        assert_eq!(out.len(), 3);
        assert_eq!(out[0].get(0), &Value::Int(7));
    }

    #[test]
    fn null_predicate_rows_dropped() {
        let rows = vec![
            Tuple::new(vec![Value::Null]),
            Tuple::new(vec![Value::Int(1)]),
        ];
        let src = ValuesOp::new(Schema::ints(&["a"]), rows);
        let f = Filter::new(
            Box::new(src),
            Expr::cmp(CmpOp::Eq, Expr::col(0), Expr::lit(1i64)),
        );
        assert_eq!(collect(Box::new(f)).unwrap().len(), 1);
    }

    /// The batch pull must emit exactly what one-row pulls over row input
    /// emit — whichever layout each input batch arrives in, for both
    /// vectorizable and fallback predicate shapes.
    #[test]
    fn columnar_pull_matches_row_pull() {
        let rows: Vec<Tuple> = (0..100)
            .map(|i| {
                Tuple::new(vec![
                    if i % 9 == 0 {
                        Value::Null
                    } else {
                        Value::Int(i)
                    },
                    Value::Int(i % 13),
                ])
            })
            .collect();
        let preds = [
            Expr::cmp(CmpOp::Ge, Expr::col(0), Expr::lit(30i64)),
            // Arithmetic inside the comparison: not vectorizable, so `Cols`
            // batches too go through the row interpreter.
            Expr::cmp(
                CmpOp::Lt,
                Expr::Add(Box::new(Expr::col(0)), Box::new(Expr::col(1))),
                Expr::lit(50i64),
            ),
        ];
        for pred in preds {
            let mut reference = Filter::new(
                Box::new(ValuesOp::new(Schema::ints(&["a", "b"]), rows.clone())),
                pred.clone(),
            );
            reference.set_batch_size(1);
            let reference = collect(Box::new(reference)).unwrap();
            assert!(!reference.is_empty());
            for input in in_every_layout(&Schema::ints(&["a", "b"]), &rows) {
                let out = collect(Box::new(Filter::new(input, pred.clone()))).unwrap();
                assert_eq!(reference, out, "predicate {pred:?}");
            }
        }
    }
}
