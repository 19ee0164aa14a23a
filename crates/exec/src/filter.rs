//! Selection.

use crate::expr::Expr;
use crate::op::{BoxOp, Operator};
use crate::vector::VecPredicate;
use pyro_common::{ColumnarBatch, Result, Schema};

/// Emits child tuples satisfying a predicate. Order-preserving.
pub struct Filter {
    child: BoxOp,
    predicate: VecPredicate,
}

impl Filter {
    /// Wraps `child` with `predicate`.
    pub fn new(child: BoxOp, predicate: Expr) -> Self {
        Filter {
            child,
            predicate: VecPredicate::compile(&predicate),
        }
    }
}

impl Operator for Filter {
    fn schema(&self) -> &Schema {
        self.child.schema()
    }

    /// Refines each batch's selection vector with the predicate's
    /// per-column loops; no row is materialized, and batches nothing
    /// passes in are skipped.
    fn next_batch(&mut self) -> Result<Option<ColumnarBatch>> {
        while let Some(mut batch) = self.child.next_batch()? {
            let sel = self.predicate.refine(&batch);
            if !sel.is_empty() {
                batch.set_sel(sel);
                return Ok(Some(batch));
            }
        }
        Ok(None)
    }

    fn set_demand_driven(&mut self) {
        self.child.set_demand_driven();
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

    /// The batch pull must keep exactly the rows the row interpreter
    /// (`Expr::eval_bool`) accepts — over dense, selected and alternating
    /// input batches, for comparisons over columns and literals and for a
    /// conjunct evaluated whole.
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
            // Arithmetic inside the comparison: evaluated by `eval_column`.
            Expr::cmp(
                CmpOp::Lt,
                Expr::Add(Box::new(Expr::col(0)), Box::new(Expr::col(1))),
                Expr::lit(50i64),
            ),
        ];
        for pred in preds {
            let reference: Vec<Tuple> = rows
                .iter()
                .filter(|t| pred.eval_bool(t).unwrap())
                .cloned()
                .collect();
            assert!(!reference.is_empty());
            for input in in_every_layout(&Schema::ints(&["a", "b"]), &rows) {
                let out = collect(Box::new(Filter::new(input, pred.clone()))).unwrap();
                assert_eq!(reference, out, "predicate {pred:?}");
            }
        }
    }
}
