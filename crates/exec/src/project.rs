//! Projection (with computed columns).

use crate::expr::Expr;
use crate::op::{BoxOp, Operator};
use crate::vector::eval_column;
use pyro_common::{ColumnarBatch, Result, Schema};

/// Evaluates one expression per output column.
pub struct Project {
    child: BoxOp,
    exprs: Vec<Expr>,
    schema: Schema,
}

impl Project {
    /// Builds a projection with explicit output schema (names/types of the
    /// computed columns).
    pub fn new(child: BoxOp, exprs: Vec<Expr>, schema: Schema) -> Self {
        debug_assert_eq!(exprs.len(), schema.len());
        Project {
            child,
            exprs,
            schema,
        }
    }

    /// Convenience: keep the columns at `indices`, preserving names.
    pub fn keep(child: BoxOp, indices: &[usize]) -> Self {
        let schema = child.schema().project(indices);
        let exprs = indices.iter().map(|&i| Expr::Col(i)).collect();
        Project::new(child, exprs, schema)
    }
}

impl Operator for Project {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Plain column references are a refcount bump (column shuffling),
    /// anything else is computed column-at-a-time, and the selection vector
    /// passes through untouched.
    fn next_batch(&mut self) -> Result<Option<ColumnarBatch>> {
        let Some(batch) = self.child.next_batch()? else {
            return Ok(None);
        };
        let columns = self.exprs.iter().map(|e| eval_column(e, &batch));
        Ok(Some(batch.with_columns(columns.collect())))
    }

    fn set_demand_driven(&mut self) {
        self.child.set_demand_driven();
    }

    fn set_batch_size(&mut self, rows: usize) {
        self.child.set_batch_size(rows);
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        // Row-for-row: the child's cardinality is ours.
        self.child.size_hint()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::CmpOp;
    use crate::op::{collect, exact, in_every_layout, ValuesOp};
    use pyro_common::{Column, DataType, Tuple, Value};

    #[test]
    fn keep_projects_columns() {
        let rows = vec![Tuple::new(vec![
            Value::Int(1),
            Value::Int(2),
            Value::Int(3),
        ])];
        let src = ValuesOp::new(Schema::ints(&["a", "b", "c"]), rows);
        let p = Project::keep(Box::new(src), &[2, 0]);
        assert_eq!(p.schema().names(), vec!["c", "a"]);
        let out = collect(Box::new(p)).unwrap();
        assert_eq!(out[0], Tuple::new(vec![Value::Int(3), Value::Int(1)]));
    }

    #[test]
    fn computed_columns() {
        let rows = vec![Tuple::new(vec![Value::Int(3), Value::Int(4)])];
        let src = ValuesOp::new(Schema::ints(&["q", "p"]), rows);
        let p = Project::new(
            Box::new(src),
            vec![Expr::mul(Expr::col(0), Expr::col(1))],
            Schema::new(vec![Column::new("value", DataType::Int)]),
        );
        let out = collect(Box::new(p)).unwrap();
        assert_eq!(out[0], Tuple::new(vec![Value::Int(12)]));
    }

    /// The batch pull must emit exactly what the row interpreter
    /// (`Expr::eval`) makes of each row — over dense, selected and
    /// alternating input batches — for column keeps, arithmetic, literal
    /// columns, comparisons and conjunctions.
    #[test]
    fn columnar_pull_matches_row_pull() {
        let rows: Vec<Tuple> = (0..50)
            .map(|i| {
                Tuple::new(vec![
                    Value::Int(i),
                    if i % 4 == 0 {
                        Value::Null
                    } else {
                        Value::Double(i as f64 / 4.0)
                    },
                ])
            })
            .collect();
        use pyro_common::{Column, DataType};
        let typed = |cols: &[(&str, DataType)]| {
            Schema::new(cols.iter().map(|&(n, ty)| Column::new(n, ty)).collect())
        };
        let (int, double) = (DataType::Int, DataType::Double);
        let input = typed(&[("a", int), ("b", double)]);
        let cases: Vec<(Vec<Expr>, Schema)> = vec![
            (
                vec![Expr::col(1), Expr::col(0)],
                typed(&[("b", double), ("a", int)]),
            ),
            (
                vec![Expr::mul(Expr::col(0), Expr::col(1)), Expr::lit(7i64)],
                typed(&[("m", double), ("k", int)]),
            ),
            (
                vec![
                    Expr::cmp(CmpOp::Lt, Expr::col(1), Expr::lit(5i64)),
                    Expr::And(
                        Box::new(Expr::cmp(CmpOp::Ge, Expr::col(0), Expr::col(1))),
                        Box::new(Expr::col(1)),
                    ),
                ],
                Schema::ints(&["lt", "and"]),
            ),
        ];
        for (exprs, schema) in cases {
            let reference: Vec<Tuple> = rows
                .iter()
                .map(|t| Tuple::new(exprs.iter().map(|e| e.eval(t).unwrap()).collect()))
                .collect();
            for input in in_every_layout(&input, &rows) {
                let project = Project::new(input, exprs.clone(), schema.clone());
                let out = collect(Box::new(project)).unwrap();
                assert_eq!(exact(&reference), exact(&out), "exprs {exprs:?}");
            }
        }
    }
}
