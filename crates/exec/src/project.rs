//! Projection (with computed columns).

use crate::expr::Expr;
use crate::op::{BoxOp, Operator};
use crate::vector::eval_column;
use pyro_common::{ColumnarBatch, Result, Schema, Tuple, Value};

/// Evaluates one expression per output column.
pub struct Project {
    child: BoxOp,
    exprs: Vec<Expr>,
    schema: Schema,
    /// Set when every expression is a plain column reference (the
    /// `Project::keep` shape): the batch path then projects through one
    /// reused scratch buffer instead of interpreting expressions.
    cols: Option<Vec<usize>>,
    scratch: Vec<Value>,
    /// When set (by the plan compiler, for fully columnar subtrees) the
    /// batch pull runs the columnar kernel and materializes rows at this
    /// seam; the row pull (`next`) is unaffected.
    columnar: bool,
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
            columnar: false,
        }
    }

    /// Convenience: keep the columns at `indices`, preserving names.
    pub fn keep(child: BoxOp, indices: &[usize]) -> Self {
        let schema = child.schema().project(indices);
        let exprs = indices.iter().map(|&i| Expr::Col(i)).collect();
        Project::new(child, exprs, schema)
    }

    /// Routes this operator's batch pull through the columnar kernel. Set
    /// only when the whole subtree below supports native columnar pulls.
    pub fn set_columnar(&mut self, on: bool) {
        self.columnar = on;
    }

    fn project_row(&self, t: &Tuple) -> Result<Tuple> {
        let mut values = Vec::with_capacity(self.exprs.len());
        for e in &self.exprs {
            values.push(e.eval(t)?);
        }
        Ok(Tuple::new(values))
    }
}

impl Operator for Project {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn next(&mut self) -> Result<Option<Tuple>> {
        match self.child.next()? {
            None => Ok(None),
            Some(t) => Ok(Some(self.project_row(&t)?)),
        }
    }

    fn next_batch(&mut self) -> Result<Option<Vec<Tuple>>> {
        if self.columnar {
            return Ok(self.next_columnar()?.map(|b| b.to_rows()));
        }
        let Some(mut batch) = self.child.next_batch()? else {
            return Ok(None);
        };
        if let Some(cols) = &self.cols {
            for t in batch.iter_mut() {
                *t = t.project_into(cols, &mut self.scratch);
            }
        } else {
            for t in batch.iter_mut() {
                let mut values = Vec::with_capacity(self.exprs.len());
                for e in &self.exprs {
                    values.push(e.eval(t)?);
                }
                *t = Tuple::new(values);
            }
        }
        Ok(Some(batch))
    }

    /// Native columnar projection: plain column references are a refcount
    /// bump (column shuffling), arithmetic runs column-at-a-time, and the
    /// child's selection vector passes through untouched. Expressions the
    /// kernel can't vectorize project a materialized copy of the batch.
    fn next_columnar(&mut self) -> Result<Option<ColumnarBatch>> {
        let Some(batch) = self.child.next_columnar()? else {
            return Ok(None);
        };
        let mut columns = Vec::with_capacity(self.exprs.len());
        for e in &self.exprs {
            match eval_column(e, &batch) {
                Some(c) => columns.push(c),
                None => {
                    // Row fallback for this batch: evaluate with the
                    // interpreter, then convert back.
                    let rows = batch.to_rows();
                    let mut out = Vec::with_capacity(rows.len());
                    for t in &rows {
                        out.push(self.project_row(t)?);
                    }
                    return Ok(Some(ColumnarBatch::from_rows(&out)));
                }
            }
        }
        Ok(Some(batch.with_columns(columns)))
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
    use crate::op::{collect, collect_batched, ValuesOp};
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

    /// The columnar batch pull must emit exactly what the row batch pull
    /// emits for column keeps, arithmetic, and literal columns.
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
            let reference = collect_batched(Box::new(Project::new(
                Box::new(ValuesOp::new(Schema::ints(&["a", "b"]), rows.clone())),
                exprs.clone(),
                schema.clone(),
            )))
            .unwrap();
            let mut columnar = Project::new(
                Box::new(ValuesOp::new(Schema::ints(&["a", "b"]), rows.clone())),
                exprs.clone(),
                schema,
            );
            columnar.set_columnar(true);
            let out = collect_batched(Box::new(columnar)).unwrap();
            assert_eq!(reference, out, "exprs {exprs:?}");
        }
    }
}
