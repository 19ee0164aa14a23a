//! Physical plan → executable operator pipeline, through the one entry
//! point [`compile`].
//!
//! Column names become positions, sort orders become [`KeySpec`]s, the
//! enforcers become the SRS / MRS operators of `pyro-exec`, and scans bind
//! to the catalog's heap and index files. The whole pipeline shares one
//! [`ExecMetrics`] so experiments can report comparisons and run I/O.
//!
//! With [`CompileOptions::workers`] above 1 the compiler additionally
//! performs pipeline-breaker detection: maximal subtrees of parallel-safe
//! operators are instantiated as worker fragments behind an exchange (see
//! `crate::parallel`), while breakers — sorts, merge joins, aggregates,
//! anything whose counters or output depend on the exact input sequence —
//! stay serial. Every exchange releases the serial row sequence, so a
//! breaker's counters and rows do not depend on the worker count.
//!
//! The compiler decides nothing about batch layouts: every operator reads
//! and emits [`pyro_common::ColumnarBatch`]es, and rows are boxed only
//! where a drain to rows hands them out ([`pyro_exec::collect`]).

use crate::logical::{AggSpec, JoinPair, NExpr};
use crate::plan::{PhysNode, PhysOp};
use pyro_catalog::Catalog;
use pyro_common::{KeySpec, PyroError, Result, Schema, Value};
use pyro_exec::agg::{AggExpr, GroupAggregate, HashAggregate};
use pyro_exec::filter::Filter;
use pyro_exec::join::{HashJoin, MergeJoin, NestedLoopsJoin};
use pyro_exec::limit::Limit;
use pyro_exec::project::Project;
use pyro_exec::scan::FileScan;
use pyro_exec::sort::{PartialSort, SortBudget, StandardReplacementSort};
use pyro_exec::{BoxOp, CmpOp, ExecMetrics, Expr, MetricsRef, Pipeline, DEFAULT_BATCH_SIZE};
use pyro_ordering::SortOrder;
use pyro_storage::TupleFile;
use std::sync::Arc;

/// How a plan is instantiated — everything [`compile`] needs besides the
/// plan and the catalog. `Default` is what a bare `compile` always meant:
/// 1024-row batches, one worker, no bound parameters.
///
/// The three fields are the session's execution knobs (`Session` derives
/// its options from its `SessionConfig` plus the statement's bindings);
/// none of them changes a row or a counter, only how the work is carried
/// out. They are also, in this order, the first positional arguments of
/// [`crate::OptimizedPlan::compile_bound_columnar`] — the one other
/// `compile*` name left, a one-line adapter onto [`compile`] that survives
/// only because the frozen `benchmark/` package calls it.
#[derive(Debug, Clone, Copy)]
pub struct CompileOptions<'a> {
    /// Rows each operator exchanges per `next_batch` call (floor 1).
    pub batch_size: usize,
    /// Execution threads (floor 1). `1` takes exactly the serial path —
    /// same operators, same behaviour; with more, parallel-safe subtrees
    /// become morsel-driven worker fragments behind exchange operators
    /// while pipeline breakers stay serial. Rows come in the same sequence,
    /// and counters are bit-identical, at every worker count.
    pub workers: usize,
    /// Prepared-statement bindings: every `NExpr::Param(i)` in the plan is
    /// substituted with `params[i]` as the expressions compile, so the
    /// executed operators are exactly what the same query with inline
    /// literals would have produced. A placeholder without a binding is a
    /// typed error, never a silent NULL.
    pub params: &'a [Value],
}

impl Default for CompileOptions<'_> {
    fn default() -> Self {
        CompileOptions {
            batch_size: DEFAULT_BATCH_SIZE,
            workers: 1,
            params: &[],
        }
    }
}

/// Compiles a physical plan into a runnable [`Pipeline`] (operator tree +
/// shared metrics block). Its rows come out in the same sequence at every
/// worker count.
pub fn compile(
    root: &Arc<PhysNode>,
    catalog: &Catalog,
    options: &CompileOptions,
) -> Result<Pipeline> {
    let metrics = ExecMetrics::new();
    let ctx = CompileCtx {
        catalog,
        metrics: metrics.clone(),
        batch: options.batch_size.max(1),
        workers: options.workers.max(1),
        params: options.params,
    };
    let op = compile_sub(root, &ctx)?;
    // The pipeline charges the catalog store's buffer-pool counter delta
    // (cache hits/misses) to its metrics when it is drained.
    Ok(Pipeline::new(op, metrics).with_store(catalog.store().clone()))
}

/// Everything a (possibly parallel) plan instantiation threads downward.
pub(crate) struct CompileCtx<'a> {
    pub(crate) catalog: &'a Catalog,
    pub(crate) metrics: MetricsRef,
    pub(crate) batch: usize,
    pub(crate) workers: usize,
    pub(crate) params: &'a [Value],
}

/// Compiles a subtree: as a parallel fragment behind a gather where
/// `crate::parallel` can make one, else serially over subtrees compiled
/// the same way.
pub(crate) fn compile_sub(node: &Arc<PhysNode>, ctx: &CompileCtx) -> Result<BoxOp> {
    if ctx.workers > 1 {
        if let Some(op) = crate::parallel::try_parallel(node, ctx)? {
            return Ok(op);
        }
    }
    compile_serial(node, ctx)
}

/// Resolves the file a scan leaf reads.
pub(crate) fn scan_file(node: &PhysNode, catalog: &Catalog) -> Result<TupleFile> {
    match &node.op {
        PhysOp::TableScan { table, .. } | PhysOp::ClusteredIndexScan { table, .. } => {
            Ok(catalog.table(table)?.heap.clone())
        }
        PhysOp::CoveringIndexScan { table, index, .. } => catalog
            .table(table)?
            .index_files
            .get(index)
            .cloned()
            .ok_or_else(|| PyroError::Plan(format!("index {index} of {table} has no entry file"))),
        other => Err(PyroError::Plan(format!(
            "not a scan leaf: {}",
            other.name()
        ))),
    }
}

fn budget(catalog: &Catalog) -> SortBudget {
    SortBudget::new(catalog.sort_memory_blocks(), catalog.device().block_size())
}

fn key_spec(schema: &Schema, order: &SortOrder) -> Result<KeySpec> {
    Ok(KeySpec::new(
        order
            .attrs()
            .iter()
            .map(|a| schema.index_of(a))
            .collect::<Result<Vec<_>>>()?,
    ))
}

/// Resolves equi-join pairs to the key column positions of each side.
pub(crate) fn pair_cols(
    pairs: &[JoinPair],
    left: &Schema,
    right: &Schema,
) -> Result<(Vec<usize>, Vec<usize>)> {
    let l_cols = pairs
        .iter()
        .map(|p| left.index_of(&p.left))
        .collect::<Result<_>>()?;
    let r_cols = pairs
        .iter()
        .map(|p| right.index_of(&p.right))
        .collect::<Result<_>>()?;
    Ok((l_cols, r_cols))
}

/// Compiles a named expression against a schema. Parameter placeholders
/// are rejected here — use [`compile_expr_bound`] with the bound values.
pub fn compile_expr(e: &NExpr, schema: &Schema) -> Result<Expr> {
    compile_expr_bound(e, schema, &[])
}

/// Compiles a named expression against a schema, substituting each
/// `NExpr::Param(i)` with `params[i]`. An index past the end of `params`
/// (including any placeholder at all when `params` is empty) is a typed
/// [`PyroError::ParamBinding`] error.
pub fn compile_expr_bound(e: &NExpr, schema: &Schema, params: &[Value]) -> Result<Expr> {
    Ok(match e {
        NExpr::Col(c) => Expr::Col(schema.index_of(c)?),
        NExpr::Lit(v) => Expr::Lit(v.clone()),
        NExpr::Param(i) => Expr::Lit(params.get(*i).cloned().ok_or_else(|| {
            PyroError::ParamBinding(format!(
                "placeholder ?{} is unbound ({} value(s) provided)",
                i + 1,
                params.len()
            ))
        })?),
        NExpr::Cmp(op, a, b) => Expr::Cmp(
            *op,
            Box::new(compile_expr_bound(a, schema, params)?),
            Box::new(compile_expr_bound(b, schema, params)?),
        ),
        NExpr::And(terms) => Expr::and_all(
            terms
                .iter()
                .map(|t| compile_expr_bound(t, schema, params))
                .collect::<Result<Vec<_>>>()?,
        ),
        NExpr::Mul(a, b) => Expr::Mul(
            Box::new(compile_expr_bound(a, schema, params)?),
            Box::new(compile_expr_bound(b, schema, params)?),
        ),
        NExpr::Add(a, b) => Expr::Add(
            Box::new(compile_expr_bound(a, schema, params)?),
            Box::new(compile_expr_bound(b, schema, params)?),
        ),
        NExpr::Sub(a, b) => Expr::Sub(
            Box::new(compile_expr_bound(a, schema, params)?),
            Box::new(compile_expr_bound(b, schema, params)?),
        ),
    })
}

fn compile_aggs(aggs: &[AggSpec], schema: &Schema, params: &[Value]) -> Result<Vec<AggExpr>> {
    aggs.iter()
        .map(|a| {
            Ok(AggExpr::new(
                a.func,
                compile_expr_bound(&a.arg, schema, params)?,
                a.name.clone(),
            ))
        })
        .collect()
}

/// An index *seek*: the sorted file to search, the columns (positions in
/// the scan's schema) a predicate pins by equality, and their values.
struct Seek {
    file: TupleFile,
    cols: Vec<usize>,
    key: Vec<Value>,
}

/// The seek a filter over `child` can make: `child` must be a scan of a
/// sorted file and the bound predicate must pin an equality prefix of that
/// order.
fn seek_key(child: &PhysNode, predicate: &NExpr, ctx: &CompileCtx) -> Result<Option<Seek>> {
    let (file, order) = match &child.op {
        PhysOp::ClusteredIndexScan { table, alias } => {
            let handle = ctx.catalog.table(table)?;
            (
                handle.heap.clone(),
                handle.meta.clustering.rename(|a| format!("{alias}.{a}")),
            )
        }
        PhysOp::CoveringIndexScan {
            table,
            alias,
            index,
        } => {
            let handle = ctx.catalog.table(table)?;
            let meta = handle.meta.indexes.iter().find(|i| i.name == *index);
            match (handle.index_files.get(index), meta) {
                (Some(file), Some(meta)) => {
                    (file.clone(), meta.key.rename(|a| format!("{alias}.{a}")))
                }
                _ => return Ok(None),
            }
        }
        _ => return Ok(None),
    };
    let key = crate::seek::eq_prefix_values(predicate, &order, ctx.params);
    if key.is_empty() {
        return Ok(None);
    }
    let cols = order.attrs()[..key.len()]
        .iter()
        .map(|a| child.schema.index_of(a))
        .collect::<Result<Vec<_>>>()?;
    Ok(Some(Seek { file, cols, key }))
}

/// True iff `node` is a filter that compiles to a seek (see
/// [`compile_filter_child`]). Such a filter reads the few pages that can
/// hold its key; dealing the whole file out to workers instead would read
/// all of it.
pub(crate) fn seeks(node: &PhysNode, ctx: &CompileCtx) -> Result<bool> {
    match &node.op {
        PhysOp::Filter { predicate } => Ok(seek_key(&node.children[0], predicate, ctx)?.is_some()),
        _ => Ok(false),
    }
}

/// Compiles the child of a filter. When the filter can seek, the scan
/// compiles over the binary-searched page range that can hold matching
/// tuples instead of the whole file. The caller's residual filter keeps the
/// semantics exact: the restriction only skips pages that cannot match, and
/// the probe reads are charged to the device like any other I/O.
fn compile_filter_child(
    child: &Arc<PhysNode>,
    predicate: &NExpr,
    ctx: &CompileCtx,
) -> Result<BoxOp> {
    if let Some(Seek { file, cols, key }) = seek_key(child, predicate, ctx)? {
        let (start, end) = pyro_exec::scan::eq_key_page_range(&file, &cols, &key)?;
        let scan = FileScan::over_pages(child.schema.clone(), &file, start, end);
        let mut op: BoxOp = Box::new(scan);
        op.set_batch_size(ctx.batch);
        return Ok(op);
    }
    compile_sub(child, ctx)
}

fn compile_serial(node: &Arc<PhysNode>, ctx: &CompileCtx) -> Result<BoxOp> {
    let mut op: BoxOp = match &node.op {
        PhysOp::TableScan { .. }
        | PhysOp::ClusteredIndexScan { .. }
        | PhysOp::CoveringIndexScan { .. } => {
            let file = scan_file(node, ctx.catalog)?;
            Box::new(FileScan::new(node.schema.clone(), &file))
        }
        PhysOp::Filter { predicate } => {
            let child = compile_filter_child(&node.children[0], predicate, ctx)?;
            let pred = compile_expr_bound(predicate, child.schema(), ctx.params)?;
            Box::new(Filter::new(child, pred))
        }
        PhysOp::Project { items } => {
            let child = compile_sub(&node.children[0], ctx)?;
            let exprs = items
                .iter()
                .map(|it| compile_expr_bound(&it.expr, child.schema(), ctx.params))
                .collect::<Result<Vec<_>>>()?;
            Box::new(Project::new(child, exprs, node.schema.clone()))
        }
        PhysOp::Sort { target } => {
            let child = compile_sub(&node.children[0], ctx)?;
            let key = key_spec(child.schema(), target)?;
            Box::new(StandardReplacementSort::new(
                child,
                key,
                ctx.catalog.store().clone(),
                budget(ctx.catalog),
                ctx.metrics.clone(),
            ))
        }
        PhysOp::PartialSort { prefix_len, target } => {
            let child = compile_sub(&node.children[0], ctx)?;
            let key = key_spec(child.schema(), target)?;
            Box::new(PartialSort::new(
                child,
                key,
                *prefix_len,
                ctx.catalog.store().clone(),
                budget(ctx.catalog),
                ctx.metrics.clone(),
            ))
        }
        PhysOp::MergeJoin { kind, pairs, order } => {
            let left = compile_sub(&node.children[0], ctx)?;
            let right = compile_sub(&node.children[1], ctx)?;
            // The chosen order's attributes are left-side pair columns; the
            // matching right-side columns come from the pairs (the last
            // pair naming a left column, as the optimizer sorted the right
            // input for).
            let mut l_cols = Vec::with_capacity(order.len());
            let mut r_cols = Vec::with_capacity(order.len());
            let mut keyed = Vec::with_capacity(order.len());
            for a in order.attrs() {
                let pair = pairs.iter().rev().find(|p| &p.left == a).ok_or_else(|| {
                    PyroError::Plan(format!("merge-join order attr {a} not in join pairs"))
                })?;
                l_cols.push(left.schema().index_of(&pair.left)?);
                r_cols.push(right.schema().index_of(&pair.right)?);
                keyed.push(pair);
            }
            // A pair the order leaves out (its left column is already keyed,
            // against another right column) is checked on the joined rows.
            let arity = left.schema().len();
            let mut rest = Vec::new();
            for p in pairs.iter().filter(|p| !keyed.contains(p)) {
                let (l, r) = (
                    left.schema().index_of(&p.left)?,
                    right.schema().index_of(&p.right)?,
                );
                rest.push(Expr::cmp(CmpOp::Eq, Expr::col(l), Expr::col(arity + r)));
            }
            let join: BoxOp = Box::new(MergeJoin::new(
                left,
                right,
                KeySpec::new(l_cols),
                KeySpec::new(r_cols),
                *kind,
                ctx.metrics.clone(),
            ));
            match rest.is_empty() {
                true => join,
                false => Box::new(Filter::new(join, Expr::and_all(rest))),
            }
        }
        PhysOp::HashJoin { pairs, build } => {
            let left = compile_sub(&node.children[0], ctx)?;
            let right = compile_sub(&node.children[1], ctx)?;
            let (l_cols, r_cols) = pair_cols(pairs, left.schema(), right.schema())?;
            Box::new(HashJoin::new(
                left,
                right,
                KeySpec::new(l_cols),
                KeySpec::new(r_cols),
                *build,
            ))
        }
        PhysOp::NestedLoopsJoin { kind, pairs } => {
            let left = compile_sub(&node.children[0], ctx)?;
            let right = compile_sub(&node.children[1], ctx)?;
            let (l_cols, r_cols) = pair_cols(pairs, left.schema(), right.schema())?;
            Box::new(NestedLoopsJoin::new(
                left,
                right,
                KeySpec::new(l_cols),
                KeySpec::new(r_cols),
                *kind,
            ))
        }
        PhysOp::SortAggregate { group_by, aggs } => {
            let child = compile_sub(&node.children[0], ctx)?;
            let group_cols = group_by
                .iter()
                .map(|g| child.schema().index_of(g))
                .collect::<Result<Vec<_>>>()?;
            let aggs = compile_aggs(aggs, child.schema(), ctx.params)?;
            Box::new(GroupAggregate::new(child, group_cols, aggs))
        }
        PhysOp::HashAggregate { group_by, aggs } => {
            let child = compile_sub(&node.children[0], ctx)?;
            let group_cols = group_by
                .iter()
                .map(|g| child.schema().index_of(g))
                .collect::<Result<Vec<_>>>()?;
            let aggs = compile_aggs(aggs, child.schema(), ctx.params)?;
            Box::new(HashAggregate::new(child, group_cols, aggs))
        }
        PhysOp::Limit { k } => {
            let child = compile_sub(&node.children[0], ctx)?;
            Box::new(Limit::new(child, *k))
        }
    };
    op.set_batch_size(ctx.batch);
    Ok(op)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::logical::{JoinPair, LogicalPlan, ProjItem};
    use crate::optimizer::Optimizer;
    use pyro_common::{Tuple, Value};

    fn catalog() -> Catalog {
        let mut cat = Catalog::new();
        let rows: Vec<Tuple> = (0..100)
            .map(|i| Tuple::new(vec![Value::Int(i), Value::Int(i % 10)]))
            .collect();
        cat.register_table("t", Schema::ints(&["k", "g"]), SortOrder::new(["k"]), &rows)
            .unwrap();
        cat
    }

    #[test]
    fn compiled_plan_runs_and_orders() {
        let cat = catalog();
        let mut p = LogicalPlan::new();
        let s = p.scan_as("t", "t");
        p.order_by(s, SortOrder::new(["t.g", "t.k"]));
        let plan = Optimizer::new(&cat).optimize(&p).unwrap();
        let pyro_exec::Rows { rows, metrics } = plan.execute(&cat).unwrap();
        assert_eq!(rows.len(), 100);
        // output sorted by (g, k)
        let keys: Vec<(i64, i64)> = rows
            .iter()
            .map(|t| (t.get(1).as_int().unwrap(), t.get(0).as_int().unwrap()))
            .collect();
        let mut expect = keys.clone();
        expect.sort_unstable();
        assert_eq!(keys, expect);
        assert!(metrics.comparisons() > 0);
    }

    #[test]
    fn compiled_join_produces_expected_rows() {
        let cat = catalog();
        let mut p = LogicalPlan::new();
        let a = p.scan_as("t", "a");
        let b = p.scan_as("t", "b");
        p.join(a, b, vec![JoinPair::new("a.k", "b.k")]);
        let plan = Optimizer::new(&cat).optimize(&p).unwrap();
        let rows = plan.execute(&cat).unwrap().rows;
        assert_eq!(rows.len(), 100, "self-join on unique key");
        assert_eq!(rows[0].arity(), 4);
    }

    /// The tables of the paper's six statements (`benchmark`'s
    /// `paper_order`), a few hundred rows each, clustered the way the
    /// evaluation clusters them.
    fn paper_catalog() -> Catalog {
        let mut cat = Catalog::new();
        let mut add = |name: &str, cols: &[&str], clustering: &[&str], rows: i64| {
            let width = cols.len() as i64;
            let sorted_on: Vec<usize> = clustering
                .iter()
                .map(|c| cols.iter().position(|x| x == c).unwrap())
                .collect();
            let mut data: Vec<Tuple> = (0..rows)
                .map(|i| {
                    Tuple::new(
                        (0..width)
                            .map(|c| Value::Int((i * (c + 3) + c) % (5 + 2 * c)))
                            .collect(),
                    )
                })
                .collect();
            data.sort_by(|a, b| KeySpec::new(sorted_on.clone()).compare(a, b));
            cat.register_table(
                name,
                Schema::ints(cols),
                SortOrder::new(clustering.iter().copied()),
                &data,
            )
            .unwrap();
        };
        let ps = ["ps_partkey", "ps_suppkey", "ps_availqty"];
        add("partsupp", &ps, &["ps_suppkey"], 120);
        let li = ["l_partkey", "l_suppkey", "l_quantity", "l_linestatus"];
        add("lineitem", &li, &["l_suppkey"], 600);
        for r in ["r1", "r2", "r3"] {
            add(r, &["c1", "c2", "c3", "c4", "c5"], &[], 150);
        }
        let tran = [
            "userid",
            "basketid",
            "parentorderid",
            "waveid",
            "childorderid",
            "trantype",
            "quantity",
            "price",
        ];
        add("tran", &tran, &["userid", "basketid"], 300);
        let basket = ["prodtype", "symbol", "exchange", "qty"];
        add("basket", &basket, &["prodtype", "symbol"], 200);
        add("analytics", &basket, &["prodtype"], 200);
        let c1 = ["make", "year", "city", "color", "sellreason"];
        add("catalog1", &c1, &["year"], 200);
        let c2 = ["make", "year", "city", "color", "breakdowns"];
        add("catalog2", &c2, &["make"], 200);
        add("rating", &["make", "year", "rating"], &["make"], 20);
        cat
    }

    fn pairs(left: &str, right: &str, cols: &[(&str, &str)]) -> Vec<JoinPair> {
        cols.iter()
            .map(|(l, r)| JoinPair::new(format!("{left}.{l}"), format!("{right}.{r}")))
            .collect()
    }

    /// Query 2-6 and Example 1 as logical plans.
    fn paper_statements() -> Vec<(&'static str, LogicalPlan)> {
        use crate::logical::AggSpec;
        use pyro_exec::agg::AggFunc;
        use pyro_exec::join::JoinKind;
        use pyro_exec::CmpOp;
        let agg = |func, arg: NExpr, name: &str| AggSpec {
            func,
            arg,
            name: name.into(),
        };
        let supp_part = [("ps_suppkey", "l_suppkey"), ("ps_partkey", "l_partkey")];
        let group = [
            "partsupp.ps_suppkey",
            "partsupp.ps_partkey",
            "partsupp.ps_availqty",
        ];

        let mut q2 = LogicalPlan::new();
        let (ps, li) = (q2.scan("partsupp"), q2.scan("lineitem"));
        let j = q2.join(ps, li, pairs("partsupp", "lineitem", &supp_part));
        let count = agg(AggFunc::Count, NExpr::col("lineitem.l_partkey"), "n");
        let g = q2.aggregate(j, group.to_vec(), vec![count]);
        q2.order_by(g, SortOrder::new(group[..2].iter().copied()));

        let mut q3 = LogicalPlan::new();
        let (ps, li) = (q3.scan("partsupp"), q3.scan("lineitem"));
        let open = q3.filter(li, NExpr::col_eq_lit("lineitem.l_linestatus", 1i64));
        let j = q3.join(ps, open, pairs("partsupp", "lineitem", &supp_part));
        let sum = agg(AggFunc::Sum, NExpr::col("lineitem.l_quantity"), "total");
        let g = q3.aggregate(j, vec![group[2], group[1], group[0]], vec![sum]);
        let having = NExpr::Cmp(
            CmpOp::Gt,
            Box::new(NExpr::col("total")),
            Box::new(NExpr::col("partsupp.ps_availqty")),
        );
        let h = q3.filter(g, having);
        q3.order_by(h, SortOrder::new(["partsupp.ps_partkey"]));

        let mut q4 = LogicalPlan::new();
        let (r1, r2, r3) = (q4.scan("r1"), q4.scan("r2"), q4.scan("r3"));
        let on = [("c5", "c5"), ("c4", "c4"), ("c3", "c3")];
        let j = q4.join_kind(r1, r2, JoinKind::FullOuter, pairs("r1", "r2", &on));
        let on = [("c1", "c1"), ("c4", "c4"), ("c5", "c5")];
        q4.join_kind(j, r3, JoinKind::FullOuter, pairs("r1", "r3", &on));

        let mut q5 = LogicalPlan::new();
        let (t1, t2) = (q5.scan_as("tran", "t1"), q5.scan_as("tran", "t2"));
        let new = q5.filter(t1, NExpr::col_eq_lit("t1.trantype", 0i64));
        let executed = q5.filter(t2, NExpr::col_eq_lit("t2.trantype", 1i64));
        let order_cols = [
            "userid",
            "parentorderid",
            "basketid",
            "waveid",
            "childorderid",
        ];
        let on: Vec<(&str, &str)> = order_cols.iter().map(|c| (*c, *c)).collect();
        let j = q5.join(new, executed, pairs("t1", "t2", &on));
        let value = |t: &str| {
            NExpr::Mul(
                Box::new(NExpr::col(format!("{t}.quantity"))),
                Box::new(NExpr::col(format!("{t}.price"))),
            )
        };
        q5.aggregate(
            j,
            order_cols.iter().map(|c| format!("t1.{c}")).collect(),
            vec![
                agg(AggFunc::Min, value("t1"), "ordervalue"),
                agg(AggFunc::Sum, value("t2"), "executedvalue"),
            ],
        );

        let mut q6 = LogicalPlan::new();
        let (b, a) = (q6.scan_as("basket", "b"), q6.scan_as("analytics", "a"));
        let on = [
            ("prodtype", "prodtype"),
            ("symbol", "symbol"),
            ("exchange", "exchange"),
        ];
        q6.join(b, a, pairs("b", "a", &on));

        let mut ex1 = LogicalPlan::new();
        let c1 = ex1.scan_as("catalog1", "c1");
        let c2 = ex1.scan_as("catalog2", "c2");
        let r = ex1.scan_as("rating", "r");
        let on = [
            ("city", "city"),
            ("make", "make"),
            ("year", "year"),
            ("color", "color"),
        ];
        let j = ex1.join(c1, c2, pairs("c1", "c2", &on));
        let j = ex1.join(
            j,
            r,
            pairs("c1", "r", &[("make", "make"), ("year", "year")]),
        );
        let out = [
            "c1.make",
            "c1.year",
            "c1.color",
            "c1.city",
            "c1.sellreason",
            "c2.breakdowns",
            "r.rating",
        ];
        let p = ex1.project(j, out.iter().map(|c| ProjItem::col(*c)).collect());
        ex1.order_by(p, SortOrder::new(out));

        vec![
            ("q2", q2),
            ("q3", q3),
            ("q4", q4),
            ("q5", q5),
            ("q6", q6),
            ("ex1", ex1),
        ]
    }

    /// A plan of the paper's statements pulled batch by batch from its
    /// root gives the rows and counters of a run one row per pull.
    #[test]
    fn paper_statement_plans_convert_to_rows_only_at_the_root() {
        use pyro_exec::join::JoinKind;
        let cat = paper_catalog();
        let mut seen = [0usize; 5];
        for (label, logical) in paper_statements() {
            let plan = Optimizer::new(&cat)
                .with_hash(false)
                .optimize(&logical)
                .unwrap();
            let kinds: [&dyn Fn(&PhysNode) -> bool; 5] = [
                &|n| matches!(n.op, PhysOp::Sort { .. }),
                &|n| matches!(n.op, PhysOp::PartialSort { .. }),
                &|n| matches!(n.op, PhysOp::MergeJoin { kind, .. } if kind == JoinKind::Inner),
                &|n| matches!(n.op, PhysOp::MergeJoin { kind, .. } if kind == JoinKind::FullOuter),
                &|n| matches!(n.op, PhysOp::SortAggregate { .. }),
            ];
            for (count, kind) in seen.iter_mut().zip(kinds) {
                *count += plan.root.count_nodes(&kind);
            }
            let options = CompileOptions {
                batch_size: 64,
                ..CompileOptions::default()
            };
            let (mut root, metrics) = plan.compile(&cat, &options).unwrap().into_parts();
            let mut by_batch = Vec::new();
            while let Some(batch) = root.next_batch().unwrap() {
                batch.append_rows(&mut by_batch);
            }
            // And the plan runs one row per pull to the same rows and
            // counters.
            let one_row = CompileOptions {
                batch_size: 1,
                ..CompileOptions::default()
            };
            let by_row = plan.compile(&cat, &one_row).unwrap().run().unwrap();
            assert_eq!(by_row.rows, by_batch, "{label}");
            assert_eq!(
                by_row.metrics.comparisons(),
                metrics.comparisons(),
                "{label}"
            );
        }
        assert!(
            seen.iter().all(|&n| n > 0),
            "test premise: sorts, partial sorts, inner and full outer merge joins and \
             sort aggregates all occur (saw {seen:?})"
        );
    }

    #[test]
    fn compile_expr_resolves_names() {
        let schema = Schema::ints(&["t.a", "t.b"]);
        let e = compile_expr(&NExpr::col_eq_lit("t.b", 5i64), &schema).unwrap();
        let rows = [5, 6].map(|b| Tuple::new(vec![Value::Int(0), Value::Int(b)]));
        let batch = pyro_common::ColumnarBatch::from_rows(&rows);
        assert_eq!(pyro_exec::VecPredicate::compile(&e).refine(&batch), [0]);
    }
}
