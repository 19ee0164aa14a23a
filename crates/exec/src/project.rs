//! Projection (with computed columns).

use crate::expr::Expr;
use crate::op::{Batch, BoxOp, Operator};
use crate::vector::eval_column;
use pyro_common::{ColumnarBatch, Result, Schema, Tuple, Value};

/// Evaluates one expression per output column.
pub struct Project {
    child: BoxOp,
    exprs: Vec<Expr>,
    schema: Schema,
    /// Set when every expression is a plain column reference (the
    /// `Project::keep` shape): row batches then project through one reused
    /// scratch buffer instead of interpreting expressions.
    cols: Option<Vec<usize>>,
    scratch: Vec<Value>,
}

impl Project {
    /// Builds a projection with explicit output schema (names/types of the
    /// computed columns).
    pub fn new(child: BoxOp, exprs: Vec<Expr>, schema: Schema) -> Self {
        debug_assert_eq!(exprs.len(), schema.len());
        let cols = exprs
            .iter()
            .map(|e| match e {
                Expr::Col(i) => Some(*i),
                _ => None,
            })
            .collect::<Option<Vec<usize>>>();
        Project {
            child,
            exprs,
            schema,
            cols,
            scratch: Vec::new(),
        }
    }

    /// Convenience: keep the columns at `indices`, preserving names.
    pub fn keep(child: BoxOp, indices: &[usize]) -> Self {
        let schema = child.schema().project(indices);
        let exprs = indices.iter().map(|&i| Expr::Col(i)).collect();
        Project::new(child, exprs, schema)
    }

    fn project_row(&self, t: &Tuple) -> Result<Tuple> {
        let mut values = Vec::with_capacity(self.exprs.len());
        for e in &self.exprs {
            values.push(e.eval(t)?);
        }
        Ok(Tuple::new(values))
    }

    /// Column kernel: plain column references are a refcount bump (column
    /// shuffling), arithmetic runs column-at-a-time, and the selection
    /// vector passes through untouched. `None` when some expression is a
    /// shape the kernel does not vectorize.
    fn project_cols(&self, batch: &ColumnarBatch) -> Option<ColumnarBatch> {
        let columns = self.exprs.iter().map(|e| eval_column(e, batch));
        Some(batch.with_columns(columns.collect::<Option<Vec<_>>>()?))
    }
}

impl Operator for Project {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    /// A `Cols` batch goes through the column kernel and stays `Cols`; a
    /// `Rows` batch — or a `Cols` one the kernel cannot vectorize — is
    /// projected row by row and handed on as `Rows`.
    fn next_batch(&mut self) -> Result<Option<Batch>> {
        let Some(batch) = self.child.next_batch()? else {
            return Ok(None);
        };
        let mut rows = match batch {
            Batch::Cols(cols) => match self.project_cols(&cols) {
                Some(out) => return Ok(Some(Batch::Cols(out))),
                None => cols.to_rows(),
            },
            Batch::Rows(rows) => rows,
        };
        for t in rows.iter_mut() {
            *t = match &self.cols {
                Some(cols) => t.project_into(cols, &mut self.scratch),
                None => self.project_row(t)?,
            };
        }
        Ok(Some(Batch::Rows(rows)))
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
        // Row-for-row: the child's cardinality is ours.
        self.child.size_hint()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::{collect, exact, in_every_layout, ValuesOp};
    use pyro_common::{Column, DataType, Value};

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

    /// The batch pull must emit exactly what one-row pulls over row input
    /// emit — whichever layout each input batch arrives in — for column
    /// keeps, arithmetic, and literal columns.
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
        let cases: Vec<(Vec<Expr>, Schema)> = vec![
            (vec![Expr::col(1), Expr::col(0)], Schema::ints(&["b", "a"])),
            (
                vec![Expr::mul(Expr::col(0), Expr::col(1)), Expr::lit(7i64)],
                Schema::ints(&["m", "k"]),
            ),
        ];
        for (exprs, schema) in cases {
            let mut reference = Project::new(
                Box::new(ValuesOp::new(Schema::ints(&["a", "b"]), rows.clone())),
                exprs.clone(),
                schema.clone(),
            );
            reference.set_batch_size(1);
            let reference = collect(Box::new(reference)).unwrap();
            for input in in_every_layout(&Schema::ints(&["a", "b"]), &rows) {
                let project = Project::new(input, exprs.clone(), schema.clone());
                let out = collect(Box::new(project)).unwrap();
                assert_eq!(exact(&reference), exact(&out), "exprs {exprs:?}");
            }
        }
    }
}
