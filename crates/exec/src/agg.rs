//! Grouping: sort-based (streaming groups) and hash-based.
//!
//! The sort-based [`GroupAggregate`] requires its input ordered on (a
//! permutation of) the grouping columns — which is exactly why grouping
//! participates in the paper's interesting-order machinery. The
//! [`HashAggregate`] needs no order but materializes its table, the
//! trade-off the optimizer prices (Postgres's hash-aggregate pick for
//! Query 3 is the paper's example of getting this wrong).
//!
//! Both read their input as columns, evaluate each aggregate's argument
//! column at a time ([`eval_column`]) and fold cells; neither boxes a row.
//!
//! Duplicate elimination is grouping too: `SELECT DISTINCT` groups on every
//! output column with no aggregates, and both operators emit each group's
//! key as its first row holds it.
//!
//! **Counting rule.** Grouping charges no comparisons. Finding where a group
//! ends compares rows in place, but the paper's counters measure order
//! enforcement (sorts and merges), and the cost model prices sorted
//! grouping at `tuple_io` per input row with no comparison term.

use crate::expr::Expr;
use crate::op::{BoxOp, Latch, Operator, DEFAULT_BATCH_SIZE};
use crate::vector::eval_column;
use pyro_common::{
    CellRef, ColumnBuilder, ColumnData, ColumnVec, ColumnarBatch, KeySpec, Result, Schema, Value,
};
use std::cmp::Ordering;
use std::collections::HashMap;
use std::sync::Arc;

/// Aggregate functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFunc {
    /// COUNT(expr): non-null count.
    Count,
    /// SUM(expr).
    Sum,
    /// MIN(expr).
    Min,
    /// MAX(expr).
    Max,
    /// AVG(expr).
    Avg,
}

/// One aggregate output: a function over an argument expression.
#[derive(Debug, Clone)]
pub struct AggExpr {
    /// The function.
    pub func: AggFunc,
    /// Argument evaluated per input row.
    pub arg: Expr,
    /// Output column name.
    pub name: String,
}

impl AggExpr {
    /// Convenience constructor.
    pub fn new(func: AggFunc, arg: Expr, name: impl Into<String>) -> Self {
        AggExpr {
            func,
            arg,
            name: name.into(),
        }
    }
}

/// Running accumulator for one (group, aggregate) pair.
#[derive(Debug, Clone)]
enum AccState {
    Count(i64),
    Sum(Value),
    Min(Option<Value>),
    Max(Option<Value>),
    Avg { sum: f64, n: i64, any: bool },
}

impl AccState {
    fn new(func: AggFunc) -> AccState {
        match func {
            AggFunc::Count => AccState::Count(0),
            AggFunc::Sum => AccState::Sum(Value::Null),
            AggFunc::Min => AccState::Min(None),
            AggFunc::Max => AccState::Max(None),
            AggFunc::Avg => AccState::Avg {
                sum: 0.0,
                n: 0,
                any: false,
            },
        }
    }

    /// Folds one cell in; a value is boxed only when the state keeps it.
    fn update_cell(&mut self, c: CellRef<'_>) {
        if c.is_null() {
            return; // SQL aggregates ignore NULLs
        }
        let before = |c: CellRef<'_>, cur: &Value| c.order(CellRef::from_value(cur));
        match self {
            AccState::Count(n) => *n += 1,
            AccState::Sum(acc) => {
                *acc = if acc.is_null() {
                    c.to_value()
                } else {
                    acc.add(&c.to_value())
                };
            }
            AccState::Min(m) => {
                if m.as_ref()
                    .is_none_or(|cur| before(c, cur) == Ordering::Less)
                {
                    *m = Some(c.to_value());
                }
            }
            AccState::Max(m) => {
                if m.as_ref()
                    .is_none_or(|cur| before(c, cur) == Ordering::Greater)
                {
                    *m = Some(c.to_value());
                }
            }
            AccState::Avg { sum, n, any } => {
                let x = match c {
                    CellRef::Int(i) => i as f64,
                    CellRef::Double(d) => d,
                    _ => return,
                };
                *sum += x;
                *n += 1;
                *any = true;
            }
        }
    }

    /// Folds cells `rows` of `col` in, in row order. COUNT and integer SUM
    /// over a column without NULLs take one typed pass (wrapping addition
    /// is associative, so the total is the cell-by-cell one).
    fn update_range(&mut self, col: &ColumnVec, rows: std::ops::Range<usize>) {
        match (&mut *self, col.data()) {
            (AccState::Count(n), _) if !col.nulls().any() => *n += rows.len() as i64,
            (AccState::Sum(acc), ColumnData::Int(v))
                if !col.nulls().any() && matches!(acc, Value::Null | Value::Int(_)) =>
            {
                if let Some((&head, tail)) = v[rows].split_first() {
                    let start = acc.as_int().map_or(head, |a| a.wrapping_add(head));
                    *acc = Value::Int(tail.iter().fold(start, |a, &x| a.wrapping_add(x)));
                }
            }
            _ => {
                for i in rows {
                    self.update_cell(col.cell(i));
                }
            }
        }
    }

    fn finish(self) -> Value {
        match self {
            AccState::Count(c) => Value::Int(c),
            AccState::Sum(v) => v,
            AccState::Min(m) => m.unwrap_or(Value::Null),
            AccState::Max(m) => m.unwrap_or(Value::Null),
            AccState::Avg { sum, n, any } => {
                if any {
                    Value::Double(sum / n as f64)
                } else {
                    Value::Null
                }
            }
        }
    }
}

/// Streaming aggregate over an input sorted by the grouping columns.
///
/// Takes its input as columns, evaluates each aggregate's argument column
/// at a time, finds group boundaries by comparing rows in place and folds
/// cells — no row is boxed. The boundary comparisons are not charged to any
/// counter (the module's counting rule).
pub struct GroupAggregate {
    child: BoxOp,
    group_key: KeySpec,
    aggs: Vec<AggExpr>,
    schema: Schema,
    columnar: ColumnarGroups,
    done: bool,
    failed: Latch,
    /// Set by a `Limit` above: one group per pull.
    demand_driven: bool,
    batch: usize,
}

/// The input-side state of [`GroupAggregate`].
#[derive(Default)]
struct ColumnarGroups {
    /// The current input batch (dense), each aggregate's argument evaluated
    /// over it, and the next row to fold.
    input: Option<(ColumnarBatch, Vec<Arc<ColumnVec>>)>,
    pos: usize,
    /// The open group, if any.
    open: Option<OpenGroup>,
    /// Finished groups not yet emitted, one builder per output column.
    out: Vec<ColumnBuilder>,
    out_rows: usize,
}

/// The group being folded. Every later row is compared against its first
/// row.
struct OpenGroup {
    /// The batch the first row arrived in, once input has moved past it;
    /// `None` while that is still the current batch.
    kept: Option<ColumnarBatch>,
    /// The first row's position in that batch.
    row: usize,
    states: Vec<AccState>,
}

impl GroupAggregate {
    /// Builds a sort-based aggregate; `group_cols` are positions in the
    /// child's schema, and the child **must** be sorted on them (any
    /// permutation works — only group adjacency matters). `schema` is the
    /// output schema the plan derived: the grouping columns, then one
    /// column per aggregate, of its result's type (COUNT INT, AVG DOUBLE,
    /// SUM, MIN and MAX their argument's).
    pub fn new(child: BoxOp, group_cols: Vec<usize>, aggs: Vec<AggExpr>, schema: Schema) -> Self {
        debug_assert_eq!(schema.len(), group_cols.len() + aggs.len());
        GroupAggregate {
            child,
            group_key: KeySpec::new(group_cols),
            aggs,
            schema,
            columnar: ColumnarGroups::default(),
            done: false,
            failed: Latch::default(),
            demand_driven: false,
            batch: DEFAULT_BATCH_SIZE,
        }
    }

    fn fresh_states(&self) -> Vec<AccState> {
        self.aggs.iter().map(|a| AccState::new(a.func)).collect()
    }

    /// Pulls the next input batch and evaluates the
    /// aggregate arguments over it. `false` at end of input.
    fn load_batch(&mut self) -> Result<bool> {
        let Some(batch) = self.child.next_batch()? else {
            return Ok(false);
        };
        let batch = batch.into_dense();
        // The open group's first row stays reachable past its batch.
        if let (Some(open), Some((old, _))) = (&mut self.columnar.open, &self.columnar.input) {
            open.kept.get_or_insert_with(|| old.clone());
        }
        let args = self
            .aggs
            .iter()
            .map(|a| eval_column(&a.arg, &batch))
            .collect();
        self.columnar.input = Some((batch, args));
        self.columnar.pos = 0;
        Ok(true)
    }

    /// Moves the open group (if any) to the output
    /// builders; `current` is the current input batch.
    fn close_group(&mut self, current: &ColumnarBatch) -> Result<()> {
        let st = &mut self.columnar;
        let Some(group) = st.open.take() else {
            return Ok(());
        };
        if st.out.is_empty() {
            st.out = ColumnBuilder::for_schema(&self.schema);
        }
        let rep = group.kept.as_ref().unwrap_or(current);
        let (keys, results) = st.out.split_at_mut(self.group_key.len());
        for (b, &c) in keys.iter_mut().zip(self.group_key.cols()) {
            b.push_from(rep.column(c), group.row);
        }
        for (b, state) in results.iter_mut().zip(group.states) {
            b.push_value(&state.finish())?;
        }
        st.out_rows += 1;
        Ok(())
    }

    /// Folds rows of the current batch, a group's range at a
    /// time, until `want` groups are finished or the batch ends.
    fn fold_rows(
        &mut self,
        batch: &ColumnarBatch,
        args: &[Arc<ColumnVec>],
        want: usize,
    ) -> Result<()> {
        let rows = batch.num_rows();
        while self.columnar.pos < rows && self.columnar.out_rows < want {
            let from = self.columnar.pos;
            // Where the open group ends in this batch. A group opened in an
            // earlier batch is continued row by row against its first row
            // there; one opened here is a run of this batch's rows.
            let key = &self.group_key;
            let end = match &self.columnar.open {
                Some(OpenGroup {
                    kept: Some(rep),
                    row,
                    ..
                }) => (from..rows)
                    .find(|&i| key.compare_columnar(rep, *row, batch, i).0 != Ordering::Equal)
                    .unwrap_or(rows),
                Some(open) => key.group_end(batch, open.row, from, rows).0,
                None => from,
            };
            if end == from {
                // Row `from` opens a new group.
                self.close_group(batch)?;
                self.columnar.open = Some(OpenGroup {
                    kept: None,
                    row: from,
                    states: self.fresh_states(),
                });
            }
            let end = end.max(from + 1);
            let open = self.columnar.open.as_mut().expect("a group is open");
            for (state, arg) in open.states.iter_mut().zip(args) {
                state.update_range(arg, from..end);
            }
            self.columnar.pos = end;
        }
        Ok(())
    }

    fn pull_columnar(&mut self) -> Result<Option<ColumnarBatch>> {
        let want = if self.demand_driven { 1 } else { self.batch };
        while !self.done && self.columnar.out_rows < want {
            let exhausted = self
                .columnar
                .input
                .as_ref()
                .is_none_or(|(b, _)| self.columnar.pos == b.num_rows());
            if exhausted && !self.load_batch()? {
                self.done = true;
                // Without grouping columns there is one group, even of no
                // rows: COUNT is 0 and the other aggregates NULL.
                if self.group_key.is_empty() && self.columnar.open.is_none() {
                    self.columnar.open = Some(OpenGroup {
                        kept: None,
                        row: 0,
                        states: self.fresh_states(),
                    });
                }
                // A group can only be open if there was a batch to open it,
                // or if it has no key to read from one.
                let last = self.columnar.input.take().map(|(b, _)| b);
                self.close_group(
                    &last.unwrap_or_else(|| ColumnarBatch::from_columns(Vec::new(), 0)),
                )?;
                break;
            }
            let (batch, args) = self.columnar.input.take().expect("a batch was loaded");
            let folded = self.fold_rows(&batch, &args, want);
            self.columnar.input = Some((batch, args));
            folded?;
        }
        let st = &mut self.columnar;
        if st.out_rows == 0 {
            return Ok(None);
        }
        st.out_rows = 0;
        Ok(Some(ColumnarBatch::from_builders(std::mem::take(
            &mut st.out,
        ))))
    }
}

impl Operator for GroupAggregate {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Emits up to a batch of finished groups per call; under a `Limit`,
    /// one group per call, so the input is read exactly as far as one-row
    /// pulls would read it.
    fn next_batch(&mut self) -> Result<Option<ColumnarBatch>> {
        self.failed.check()?;
        let pulled = self.pull_columnar();
        self.failed.record(pulled)
    }

    fn set_demand_driven(&mut self) {
        self.demand_driven = true;
        self.child.set_demand_driven();
    }

    fn set_batch_size(&mut self, rows: usize) {
        self.batch = rows.max(1);
    }
}

/// Hash aggregate: no input-order requirement. Its table is keyed on the
/// grouping cells' `Value`s, so `Int(2)` and `Double(2.0)` are one group
/// whichever column layout each arrives in, and a group keeps the key cells
/// of its first row. Once the input is drained it emits the groups sorted
/// by key — an arbitrary but deterministic order.
pub struct HashAggregate {
    child: BoxOp,
    group_cols: Vec<usize>,
    aggs: Vec<AggExpr>,
    schema: Schema,
    /// The sorted groups, and how many of them are emitted.
    output: Option<(ColumnarBatch, usize)>,
    failed: Latch,
    batch: usize,
}

impl HashAggregate {
    /// Builds a hash aggregate over `group_cols`, with output `schema` as
    /// for [`GroupAggregate::new`].
    pub fn new(child: BoxOp, group_cols: Vec<usize>, aggs: Vec<AggExpr>, schema: Schema) -> Self {
        debug_assert_eq!(schema.len(), group_cols.len() + aggs.len());
        HashAggregate {
            child,
            group_cols,
            aggs,
            schema,
            output: None,
            failed: Latch::default(),
            batch: DEFAULT_BATCH_SIZE,
        }
    }

    /// Drains the input into the table and returns the groups, sorted by
    /// key, as one batch.
    fn build(&mut self) -> Result<ColumnarBatch> {
        let fresh = || self.aggs.iter().map(|a| AccState::new(a.func)).collect();
        let mut table: HashMap<Vec<Value>, Vec<AccState>> = HashMap::new();
        let mut key = Vec::new();
        while let Some(batch) = self.child.next_batch()? {
            let args: Vec<_> = self
                .aggs
                .iter()
                .map(|a| eval_column(&a.arg, &batch))
                .collect();
            for i in batch.sel_vec() {
                let i = i as usize;
                key.clear();
                key.extend(self.group_cols.iter().map(|&c| batch.column(c).value_at(i)));
                if !table.contains_key(key.as_slice()) {
                    table.insert(key.clone(), fresh());
                }
                let states = table.get_mut(key.as_slice()).expect("inserted");
                for (state, arg) in states.iter_mut().zip(&args) {
                    state.update_cell(arg.cell(i));
                }
            }
        }
        // Without grouping columns there is one group, even of no rows.
        if self.group_cols.is_empty() && table.is_empty() {
            table.insert(Vec::new(), fresh());
        }
        let mut groups: Vec<_> = table.into_iter().collect();
        groups.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        let mut out = ColumnBuilder::for_schema(&self.schema);
        for (key, states) in groups {
            let cells = key
                .into_iter()
                .chain(states.into_iter().map(AccState::finish));
            for (builder, v) in out.iter_mut().zip(cells) {
                builder.push_value(&v)?;
            }
        }
        Ok(ColumnarBatch::from_builders(out))
    }
}

impl Operator for HashAggregate {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn next_batch(&mut self) -> Result<Option<ColumnarBatch>> {
        self.failed.check()?;
        if self.output.is_none() {
            let built = self.build();
            self.output = Some((self.failed.record(built)?, 0));
        }
        let (groups, emitted) = self.output.as_mut().expect("built");
        let end = (*emitted + self.batch).min(groups.num_rows());
        let idx: Vec<u32> = (*emitted as u32..end as u32).collect();
        *emitted = end;
        Ok((!idx.is_empty()).then(|| groups.gather(&idx)))
    }

    fn set_batch_size(&mut self, rows: usize) {
        self.batch = rows.max(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::{collect, exact, in_every_layout, Parts, ValuesOp};
    use pyro_common::{Column, DataType, Tuple};

    fn rows(vals: &[(i64, i64)]) -> Vec<Tuple> {
        vals.iter()
            .map(|&(g, v)| Tuple::new(vec![Value::Int(g), Value::Int(v)]))
            .collect()
    }

    fn sorted_input() -> Vec<Tuple> {
        rows(&[(1, 10), (1, 20), (2, 5), (3, 1), (3, 2), (3, 3)])
    }

    fn aggs() -> Vec<AggExpr> {
        vec![
            AggExpr::new(AggFunc::Count, Expr::col(1), "cnt"),
            AggExpr::new(AggFunc::Sum, Expr::col(1), "total"),
            AggExpr::new(AggFunc::Min, Expr::col(1), "lo"),
            AggExpr::new(AggFunc::Max, Expr::col(1), "hi"),
            AggExpr::new(AggFunc::Avg, Expr::col(1), "mean"),
        ]
    }

    /// The output of [`aggs`] grouped on column 0 of an input whose column
    /// 1 is INT: the plan's types, AVG's DOUBLE and the rest INT.
    fn out(key: DataType) -> Schema {
        let int = |name: &str| Column::new(name, DataType::Int);
        Schema::new(vec![
            Column::new("g", key),
            int("cnt"),
            int("total"),
            int("lo"),
            int("hi"),
            Column::new("mean", DataType::Double),
        ])
    }

    #[test]
    fn group_aggregate_streams_groups() {
        let src = ValuesOp::new(Schema::ints(&["g", "v"]), sorted_input());
        let op = GroupAggregate::new(Box::new(src), vec![0], aggs(), out(DataType::Int));
        let out = collect(Box::new(op)).unwrap();
        assert_eq!(out.len(), 3);
        // group 3: count 3, sum 6, min 1, max 3, avg 2.0
        assert_eq!(
            exact(&out[2]),
            exact(&Tuple::new(vec![
                Value::Int(3),
                Value::Int(3),
                Value::Int(6),
                Value::Int(1),
                Value::Int(3),
                Value::Double(2.0)
            ]))
        );
    }

    #[test]
    fn hash_aggregate_matches_group_aggregate() {
        let mut shuffled = sorted_input();
        shuffled.reverse();
        let src = ValuesOp::new(Schema::ints(&["g", "v"]), shuffled);
        let op = HashAggregate::new(Box::new(src), vec![0], aggs(), out(DataType::Int));
        let hash_out = collect(Box::new(op)).unwrap();

        let src = ValuesOp::new(Schema::ints(&["g", "v"]), sorted_input());
        let op = GroupAggregate::new(Box::new(src), vec![0], aggs(), out(DataType::Int));
        let sort_out = collect(Box::new(op)).unwrap();
        assert_eq!(exact(&hash_out), exact(&sort_out));
    }

    #[test]
    fn nulls_ignored_by_aggregates() {
        let data = vec![
            Tuple::new(vec![Value::Int(1), Value::Null]),
            Tuple::new(vec![Value::Int(1), Value::Int(5)]),
        ];
        let src = ValuesOp::new(Schema::ints(&["g", "v"]), data);
        let op = GroupAggregate::new(Box::new(src), vec![0], aggs(), out(DataType::Int));
        let out = collect(Box::new(op)).unwrap();
        assert_eq!(out[0].get(1), &Value::Int(1), "count skips null");
        assert_eq!(out[0].get(2), &Value::Int(5));
    }

    #[test]
    fn empty_input_no_groups() {
        let src = ValuesOp::new(Schema::ints(&["g", "v"]), vec![]);
        let op = GroupAggregate::new(Box::new(src), vec![0], aggs(), out(DataType::Int));
        assert!(collect(Box::new(op)).unwrap().is_empty());
        let src = ValuesOp::new(Schema::ints(&["g", "v"]), vec![]);
        let op = HashAggregate::new(Box::new(src), vec![0], aggs(), out(DataType::Int));
        assert!(collect(Box::new(op)).unwrap().is_empty());
    }

    #[test]
    fn no_group_columns_single_group() {
        let src = ValuesOp::new(Schema::ints(&["g", "v"]), sorted_input());
        let op = GroupAggregate::new(
            Box::new(src),
            vec![],
            vec![AggExpr::new(AggFunc::Sum, Expr::col(1), "s")],
            Schema::ints(&["s"]),
        );
        let out = collect(Box::new(op)).unwrap();
        assert_eq!(out, vec![Tuple::new(vec![Value::Int(41)])]);
    }

    /// The grouping operators with no aggregates: a DISTINCT over `cols`.
    fn distinct(sorted: bool, rows: Vec<Tuple>, cols: Vec<usize>) -> Vec<Tuple> {
        let schema = Schema::ints(&["a", "b"]);
        let out = Schema::new(cols.iter().map(|&c| schema.column(c).clone()).collect());
        let src = Box::new(ValuesOp::new(schema, rows));
        match sorted {
            true => collect(Box::new(GroupAggregate::new(src, cols, vec![], out))).unwrap(),
            false => collect(Box::new(HashAggregate::new(src, cols, vec![], out))).unwrap(),
        }
    }

    #[test]
    fn no_aggregates_dedups_sorted_input() {
        let data = rows(&[(1, 1), (1, 1), (1, 2), (2, 1), (2, 1), (2, 1)]);
        let out = distinct(true, data, vec![0, 1]);
        assert_eq!(exact(&out), exact(&rows(&[(1, 1), (1, 2), (2, 1)])));
    }

    #[test]
    fn no_aggregates_over_input_sorted_on_a_column_permutation() {
        // Sorted by (b, a): still adjacent groups for a grouping on {a, b},
        // emitted in arrival order with the columns in grouping order.
        let data = rows(&[(2, 1), (2, 1), (1, 2), (3, 2)]);
        let out = distinct(true, data, vec![0, 1]);
        assert_eq!(exact(&out), exact(&rows(&[(2, 1), (1, 2), (3, 2)])));
    }

    #[test]
    fn no_aggregates_hash_agrees_with_sort() {
        let mut data = rows(&[(3, 1), (1, 1), (3, 1), (2, 2), (1, 1)]);
        let hash_out = distinct(false, data.clone(), vec![0, 1]);
        data.sort();
        let sort_out = distinct(true, data, vec![0, 1]);
        // The hash table emits its groups sorted by key.
        assert_eq!(exact(&hash_out), exact(&sort_out));
    }

    #[test]
    fn no_aggregates_empty_input() {
        for sorted in [true, false] {
            assert!(distinct(sorted, vec![], vec![0, 1]).is_empty());
        }
    }

    /// A DOUBLE key column whose first batch is all NULL, split over
    /// batches of different sizes: each `Value` is one group holding its
    /// first row's cell, exactly as a sort-based aggregate over the input
    /// stably sorted by key has it, and the key stays DOUBLE storage.
    #[test]
    fn hash_aggregate_groups_values_across_batch_layouts() {
        let (d, null) = (Value::Double, Value::Null);
        let batches = vec![
            vec![null.clone(), null.clone()],
            vec![d(2.0), d(1.0), d(3.0), d(2.0)],
            vec![d(2.0), null.clone(), d(0.0), d(1.0), null.clone()],
            vec![d(3.5), d(2.0), d(-0.0)],
        ];
        let schema = Schema::new(vec![
            Column::new("g", DataType::Double),
            Column::new("v", DataType::Int),
        ]);
        let (mut all, mut parts) = (Vec::new(), Vec::<BoxOp>::new());
        for keys in batches {
            let first = all.len() as i64;
            let rows: Vec<Tuple> = (first..)
                .zip(keys)
                .map(|(n, k)| Tuple::new(vec![k, Value::Int(n)]))
                .collect();
            all.extend(rows.iter().cloned());
            parts.push(Box::new(ValuesOp::new(schema.clone(), rows)));
        }
        let out = out(DataType::Double);
        let mut hash = HashAggregate::new(Box::new(Parts(parts)), vec![0], aggs(), out.clone());
        let batch = hash.next_batch().unwrap().unwrap();
        assert!(matches!(batch.column(0).data(), ColumnData::Double(_)));
        let hash = batch.to_rows();
        all.sort_by(|a, b| a.get(0).cmp(b.get(0)));
        let src = Box::new(ValuesOp::new(schema.clone(), all.clone()));
        let sort = GroupAggregate::new(src, vec![0], aggs(), out.clone());
        assert_eq!(exact(&hash), exact(&collect(Box::new(sort)).unwrap()));
        let keys: Vec<&Value> = hash.iter().map(|t| t.get(0)).collect();
        assert_eq!(
            exact(&keys),
            exact(&[&d(-0.0), &d(0.0), &d(1.0), &d(2.0), &d(3.0), &d(3.5), &null]),
            "one group per value"
        );
        // And over dense, selected and alternating input, in arrival order.
        all.sort_by_key(|t| t.get(1).as_int());
        for input in in_every_layout(&schema, &all) {
            let op = HashAggregate::new(input, vec![0], aggs(), out.clone());
            assert_eq!(exact(&collect(Box::new(op)).unwrap()), exact(&hash));
        }
    }

    /// Both aggregates emit the schema they are given, and columns of its
    /// types in every batch: a group whose AVG is NULL (its argument is
    /// all NULL) still makes a DOUBLE column, a MAX over a VARCHAR column
    /// a VARCHAR one.
    #[test]
    fn output_schema_names() {
        let input = Schema::new(vec![
            Column::new("g", DataType::Int),
            Column::new("v", DataType::Int),
            Column::new("s", DataType::Str),
        ]);
        let rows = vec![Tuple::new(vec![Value::Int(1), Value::Null, Value::Null])];
        let out = Schema::new(vec![
            Column::new("g", DataType::Int),
            Column::new("mean", DataType::Double),
            Column::new("top", DataType::Str),
        ]);
        let aggs = || {
            vec![
                AggExpr::new(AggFunc::Avg, Expr::col(1), "mean"),
                AggExpr::new(AggFunc::Max, Expr::col(2), "top"),
            ]
        };
        let src = || Box::new(ValuesOp::new(input.clone(), rows.clone()));
        let ops: [BoxOp; 2] = [
            Box::new(GroupAggregate::new(src(), vec![0], aggs(), out.clone())),
            Box::new(HashAggregate::new(src(), vec![0], aggs(), out.clone())),
        ];
        for mut op in ops {
            assert_eq!(op.schema().names(), vec!["g", "mean", "top"]);
            let batch = op.next_batch().unwrap().unwrap();
            let types: Vec<DataType> = batch.columns().iter().map(|c| c.data_type()).collect();
            assert_eq!(types, [DataType::Int, DataType::Double, DataType::Str]);
            assert!(batch.column(1).is_null(0) && batch.column(2).is_null(0));
        }
    }
}
