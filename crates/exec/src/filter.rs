//! Selection.

use crate::expr::Expr;
use crate::op::{BoxOp, Operator};
use crate::vector::VecPredicate;
use pyro_common::{ColumnarBatch, Result, Schema, Tuple};

/// Emits child tuples satisfying a predicate. Order-preserving.
pub struct Filter {
    child: BoxOp,
    predicate: Expr,
    /// Vectorized form of the predicate (`None` for shapes only the row
    /// interpreter handles — those fall back per batch on the columnar
    /// path).
    vec_pred: Option<VecPredicate>,
    /// When set (by the plan compiler, for fully columnar subtrees) the
    /// batch pull runs the columnar kernel and materializes rows at this
    /// seam; the row pull (`next`) is unaffected.
    columnar: bool,
}

impl Filter {
    /// Wraps `child` with `predicate`.
    pub fn new(child: BoxOp, predicate: Expr) -> Self {
        let vec_pred = VecPredicate::compile(&predicate);
        Filter {
            child,
            predicate,
            vec_pred,
            columnar: false,
        }
    }

    /// Routes this operator's batch pull through the columnar kernel. Set
    /// only when the whole subtree below supports native columnar pulls.
    pub fn set_columnar(&mut self, on: bool) {
        self.columnar = on;
    }
}

impl Operator for Filter {
    fn schema(&self) -> &Schema {
        self.child.schema()
    }

    fn next(&mut self) -> Result<Option<Tuple>> {
        while let Some(t) = self.child.next()? {
            if self.predicate.eval_bool(&t)? {
                return Ok(Some(t));
            }
        }
        Ok(None)
    }

    fn next_batch(&mut self) -> Result<Option<Vec<Tuple>>> {
        if self.columnar {
            return Ok(self.next_columnar()?.map(|b| b.to_rows()));
        }
        loop {
            let Some(mut batch) = self.child.next_batch()? else {
                return Ok(None);
            };
            // Compiles the predicate to a closure once per *batch* (cheap
            // relative to the ~1k rows it then filters without a tree walk).
            self.predicate.retain_passing(&mut batch)?;
            if !batch.is_empty() {
                return Ok(Some(batch));
            }
        }
    }

    /// Native columnar filter: refines the batch's selection vector with
    /// per-column loops; no row is materialized. Predicates outside the
    /// vectorizable shape run the row interpreter on a materialized copy of
    /// the batch (correct, just not vectorized).
    fn next_columnar(&mut self) -> Result<Option<ColumnarBatch>> {
        loop {
            let Some(mut batch) = self.child.next_columnar()? else {
                return Ok(None);
            };
            match &self.vec_pred {
                Some(pred) => {
                    let mut sel = batch.sel_vec();
                    pred.refine(&batch, &mut sel);
                    if !sel.is_empty() {
                        batch.set_sel(sel);
                        return Ok(Some(batch));
                    }
                }
                None => {
                    let mut rows = batch.to_rows();
                    self.predicate.retain_passing(&mut rows)?;
                    if !rows.is_empty() {
                        return Ok(Some(ColumnarBatch::from_rows(&rows)));
                    }
                }
            }
        }
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
    use crate::op::{collect, collect_batched, ValuesOp};
    use pyro_common::Value;

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

    /// The columnar batch pull must emit exactly what the row batch pull
    /// emits, for both vectorizable and fallback predicate shapes.
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
            // Arithmetic inside the comparison: not vectorizable, takes the
            // row fallback inside the columnar path.
            Expr::cmp(
                CmpOp::Lt,
                Expr::Add(Box::new(Expr::col(0)), Box::new(Expr::col(1))),
                Expr::lit(50i64),
            ),
        ];
        for pred in preds {
            let reference = collect_batched(Box::new(Filter::new(
                Box::new(ValuesOp::new(Schema::ints(&["a", "b"]), rows.clone())),
                pred.clone(),
            )))
            .unwrap();
            let mut columnar = Filter::new(
                Box::new(ValuesOp::new(Schema::ints(&["a", "b"]), rows.clone())),
                pred.clone(),
            );
            columnar.set_columnar(true);
            let out = collect_batched(Box::new(columnar)).unwrap();
            assert_eq!(reference, out, "predicate {pred:?}");
        }
    }
}
