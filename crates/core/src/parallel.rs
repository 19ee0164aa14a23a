//! Parallel plan instantiation: turns maximal parallel-safe subtrees of a
//! physical plan into morsel-driven worker fragments behind a
//! [`Gather`] exchange.
//!
//! **What parallelizes.** Scans (heap, clustered, covering index), filters,
//! projections, and hash joins — operators that charge no
//! `ExecMetrics` counters, so distributing their rows over workers cannot
//! change the four paper counters. Everything else (sorts, merge joins,
//! grouping — DISTINCT included —, limits, nested loops) is a pipeline
//! breaker: it runs serially, over inputs that may run in parallel.
//!
//! **How a subtree runs.** Its *driving leaf* — the scan reached by
//! following filter/project inputs and hash-join probe sides — is dealt out
//! to the workers one morsel at a time, and each worker runs the subtree's
//! operator chain over the morsels it claims — the same operators the
//! serial compiler would build. A hash join's build side — whichever child the
//! plan's `build` names — is not part of the chain: it is compiled on its
//! own (recursively parallel, behind its own exchange, when it is big
//! enough), drained once into a table every worker shares, and probed by
//! each worker's morsel stream. A star join whose joins each build on
//! their dimension is thus one gather over the fact table's morsels, its
//! fragment probing one shared table per dimension in a row.
//!
//! **In what order.** Every gather releases its morsels in file order,
//! and each morsel's output leaves its worker in scan order. A shared
//! build side compiles like any other subtree, so its table is filled in
//! the serial row order, and a probe row's matches come out in that order.
//! So a parallel subtree's output is the serial row sequence at every
//! worker count, and the consumer above it — a sort, a merge join, a
//! limit, an `ORDER BY` the plan already satisfies — charges the same
//! counters and emits the same rows as at one worker.
//!
//! **When it stays serial.** When the driving file is a single morsel
//! (nothing to split: threads would be pure overhead), or when a filter
//! directly over the driving scan pins an equality prefix of the file's
//! order (it compiles to a seek over the few pages that can hold its key;
//! dealing the whole file out would read all of it), the subtree root
//! compiles serially and its inputs get the same chance.

use crate::compile::{compile_expr_bound, compile_sub, pair_cols, scan_file, seeks, CompileCtx};
use crate::plan::{PhysNode, PhysOp};
use pyro_common::{KeySpec, PyroError, Result};
use pyro_exec::filter::Filter;
use pyro_exec::join::{HashJoin, SharedBuild, Side};
use pyro_exec::project::Project;
use pyro_exec::{BoxOp, FragmentFn, Gather, MorselSource, Operator, MORSEL_PAGES};
use std::sync::Arc;

/// Attempts to instantiate `node` as a parallel subtree; `Ok(None)` means
/// "not eligible here — compile serially".
pub(crate) fn try_parallel(node: &Arc<PhysNode>, ctx: &CompileCtx) -> Result<Option<BoxOp>> {
    if !parallel_safe(node) || seeks(filter_over(driving_leaf(node), node), ctx)? {
        return Ok(None);
    }
    let leaf = driving_leaf(node);
    let file = scan_file(leaf, ctx.catalog)?;
    if file.block_count() as usize <= MORSEL_PAGES {
        return Ok(None);
    }
    // The window bounds how far ahead of the oldest unfinished morsel the
    // workers may run.
    let source = MorselSource::new(&file, 2 * ctx.workers);
    let mut builds = Vec::new();
    let chain = fragment(node, ctx, &mut builds)?;
    let mut gather = Gather::new(
        node.schema.clone(),
        source,
        leaf.schema.clone(),
        chain,
        builds,
        ctx.workers,
    );
    gather.set_batch_size(ctx.batch);
    Ok(Some(Box::new(gather)))
}

fn is_scan(op: &PhysOp) -> bool {
    matches!(
        op,
        PhysOp::TableScan { .. }
            | PhysOp::ClusteredIndexScan { .. }
            | PhysOp::CoveringIndexScan { .. }
    )
}

/// True iff the whole subtree consists of counter-free, partitionable
/// operators.
fn parallel_safe(node: &PhysNode) -> bool {
    match &node.op {
        PhysOp::Filter { .. } | PhysOp::Project { .. } => parallel_safe(&node.children[0]),
        PhysOp::HashJoin { .. } => {
            parallel_safe(&node.children[0]) && parallel_safe(&node.children[1])
        }
        op => is_scan(op),
    }
}

/// The child a parallel-safe operator streams: a filter's or projection's
/// input, a hash join's probe side. `None` at a scan.
fn streamed_child(node: &PhysNode) -> Option<&Arc<PhysNode>> {
    match &node.op {
        PhysOp::Filter { .. } | PhysOp::Project { .. } => Some(&node.children[0]),
        PhysOp::HashJoin { build, .. } => Some(node.build_probe(*build).1),
        _ => None,
    }
}

/// The scan whose morsels drive a parallel-safe subtree's workers.
fn driving_leaf(node: &Arc<PhysNode>) -> &Arc<PhysNode> {
    streamed_child(node).map_or(node, driving_leaf)
}

/// The operator directly above `leaf` on the way down from `node` (the
/// only place a seekable filter can sit), or `node` itself when it is the
/// leaf.
fn filter_over<'a>(leaf: &Arc<PhysNode>, node: &'a Arc<PhysNode>) -> &'a Arc<PhysNode> {
    let Some(below) = streamed_child(node) else {
        return node;
    };
    if Arc::ptr_eq(below, leaf) {
        node
    } else {
        filter_over(leaf, below)
    }
}

/// Builds the recipe a worker applies to each morsel scan of the driving
/// leaf: the subtree's operators above that leaf, over the scan in the
/// layout the options call for. Expressions compile once, here; the
/// recipe only clones them. The build side of every hash join in the chain
/// is appended to `builds`, for the exchange to build before its workers
/// start probing.
fn fragment(
    node: &Arc<PhysNode>,
    ctx: &CompileCtx,
    builds: &mut Vec<Arc<SharedBuild>>,
) -> Result<FragmentFn> {
    Ok(match &node.op {
        PhysOp::Filter { predicate } => {
            let child = &node.children[0];
            let pred = compile_expr_bound(predicate, &child.schema, ctx.params)?;
            let below = fragment(child, ctx, builds)?;
            Arc::new(move |leaf| Box::new(Filter::new(below(leaf), pred.clone())))
        }
        PhysOp::Project { items } => {
            let child = &node.children[0];
            let exprs = items
                .iter()
                .map(|it| compile_expr_bound(&it.expr, &child.schema, ctx.params))
                .collect::<Result<Vec<_>>>()?;
            let below = fragment(child, ctx, builds)?;
            let schema = node.schema.clone();
            Arc::new(move |leaf| Box::new(Project::new(below(leaf), exprs.clone(), schema.clone())))
        }
        PhysOp::HashJoin { pairs, build, .. } => {
            let (left, right) = (&node.children[0], &node.children[1]);
            let (l_cols, r_cols) = pair_cols(pairs, &left.schema, &right.schema)?;
            let side = *build;
            let (build, probe) = node.build_probe(side);
            let (build_cols, probe_cols) = match side {
                Side::Left => (l_cols, r_cols),
                Side::Right => (r_cols, l_cols),
            };
            // The build side is drained once, in serial order (behind its
            // own gather if it is big enough), so each probe row's matches
            // come out as they would serially.
            let shared = SharedBuild::new(compile_sub(build, ctx)?, KeySpec::new(build_cols));
            builds.push(shared.clone());
            let below = fragment(probe, ctx, builds)?;
            let (probe_key, batch) = (KeySpec::new(probe_cols), ctx.batch);
            Arc::new(move |leaf| {
                let probe = below(leaf);
                let mut j =
                    HashJoin::with_shared_build(shared.clone(), probe, probe_key.clone(), side);
                j.set_batch_size(batch);
                Box::new(j)
            })
        }
        op if is_scan(op) => Arc::new(|leaf| Box::new(leaf)),
        other => {
            return Err(PyroError::Plan(format!(
                "fragment() on non-parallel-safe operator {}",
                other.name()
            )))
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::CompileOptions;
    use crate::logical::{JoinPair, LogicalPlan, NExpr};
    use crate::optimizer::{OptimizedPlan, Optimizer};
    use pyro_catalog::Catalog;
    use pyro_common::{Schema, Tuple, Value};
    use pyro_exec::join::JoinKind;
    use pyro_ordering::SortOrder;

    /// `t(k, g)`: 40k rows clustered on `k`, ~200 pages — six morsels, so
    /// every worker count below really splits it. `heap` is the same rows
    /// shuffled, registered without any sort order.
    fn catalog() -> Catalog {
        let mut cat = Catalog::new();
        let rows: Vec<Tuple> = (0..40_000i64)
            .map(|i| Tuple::new(vec![Value::Int(i), Value::Int(i % 10)]))
            .collect();
        cat.register_table("t", Schema::ints(&["k", "g"]), SortOrder::new(["k"]), &rows)
            .unwrap();
        let shuffled: Vec<Tuple> = (0..40_000i64)
            .map(|i| rows[(i * 7919 % 40_000) as usize].clone())
            .collect();
        cat.register_table(
            "heap",
            Schema::ints(&["k", "g"]),
            SortOrder::empty(),
            &shuffled,
        )
        .unwrap();
        for table in ["t", "heap"] {
            let pages = cat.table(table).unwrap().heap.block_count() as usize;
            assert!(
                pages > 4 * MORSEL_PAGES,
                "test premise: {table} spans morsels"
            );
        }
        cat
    }

    /// Runs `plan` serially, then at every worker count, and holds each
    /// run to the serial rows, as a sequence, and counters.
    fn for_every_mode(plan: &OptimizedPlan, cat: &Catalog) {
        let serial = plan.execute(cat).unwrap();
        for workers in [1, 2, 4] {
            let options = CompileOptions {
                batch_size: 256,
                workers,
                ..CompileOptions::default()
            };
            let out = plan.compile(cat, &options).unwrap().run().unwrap();
            let mode = format!("workers={workers}");
            assert_eq!(
                serial.metrics.comparisons(),
                out.metrics.comparisons(),
                "{mode}"
            );
            assert_eq!(serial.metrics.run_io(), out.metrics.run_io(), "{mode}");
            assert_eq!(
                serial.metrics.runs_created(),
                out.metrics.runs_created(),
                "{mode}"
            );
            assert!(serial.rows == out.rows, "row sequence diverged: {mode}");
        }
    }

    #[test]
    fn parallel_scan_matches_serial_rows_and_counters() {
        let cat = catalog();
        let mut p = LogicalPlan::new();
        let s = p.scan_as("t", "t");
        p.filter(s, NExpr::col_eq_lit("t.g", 3i64));
        let plan = Optimizer::new(&cat).optimize(&p).unwrap();
        for_every_mode(&plan, &cat);
    }

    #[test]
    fn parallel_ordered_scan_is_sequence_exact() {
        let cat = catalog();
        let mut p = LogicalPlan::new();
        let s = p.scan_as("t", "t");
        // ORDER BY (g, k): a sort (breaker) over the clustered scan — the
        // scan below it must arrive in exact serial sequence, or the sort's
        // comparison count moves.
        p.order_by(s, SortOrder::new(["t.g", "t.k"]));
        let plan = Optimizer::new(&cat).optimize(&p).unwrap();
        assert!(plan.execute(&cat).unwrap().metrics.comparisons() > 0);
        for_every_mode(&plan, &cat);
    }

    #[test]
    fn parallel_hash_join_matches_serial() {
        let cat = catalog();
        let mut p = LogicalPlan::new();
        let a = p.scan_as("heap", "a");
        let b = p.scan_as("heap", "b");
        let j = p.join(a, b, vec![JoinPair::new("a.k", "b.k")]);
        p.filter(j, NExpr::col_eq_lit("b.g", 3i64));
        let plan = Optimizer::new(&cat).optimize(&p).unwrap();
        assert!(
            plan.root
                .count_nodes(&|n| matches!(n.op, PhysOp::HashJoin { .. }))
                > 0,
            "test premise: plan uses a hash join\n{}",
            plan.explain()
        );
        for_every_mode(&plan, &cat);
        // Whichever side the optimizer built on, the other orientation must
        // run the same: the written one probes `b`'s morsels past a table
        // built behind its own exchange, the flipped one the reverse.
        let flipped = OptimizedPlan {
            root: flip_build_sides(&plan.root),
            ..plan.clone()
        };
        for_every_mode(&flipped, &cat);
        let rows = |p: &OptimizedPlan| {
            let mut rows = p.execute(&cat).unwrap().rows;
            rows.sort();
            rows
        };
        assert!(rows(&plan) == rows(&flipped));
    }

    /// `node` with every inner hash join building on its other input. The
    /// flipped joins claim no order: whatever the optimizer derived was for
    /// the side it chose.
    fn flip_build_sides(node: &Arc<PhysNode>) -> Arc<PhysNode> {
        let mut flipped = PhysNode {
            children: node.children.iter().map(flip_build_sides).collect(),
            ..(**node).clone()
        };
        if let PhysOp::HashJoin { build, .. } = &mut flipped.op {
            *build = match *build {
                Side::Left => Side::Right,
                Side::Right => Side::Left,
            };
            flipped.out_order = SortOrder::empty();
        }
        Arc::new(flipped)
    }

    fn two_workers(catalog: &Catalog) -> CompileCtx<'_> {
        CompileCtx {
            catalog,
            metrics: pyro_exec::ExecMetrics::new(),
            batch: 256,
            workers: 2,
            params: &[],
        }
    }

    /// A star join at two workers is one exchange: the fact table's morsels
    /// stream through a chain of four joins, each probing a table the
    /// gather built — serially, a dimension being less than a morsel —
    /// before its workers started.
    #[test]
    fn star_join_is_one_gather_over_four_shared_builds() {
        let mut cat = catalog();
        for d in 0..4i64 {
            let rows: Vec<Tuple> = (0..10i64)
                .map(|g| Tuple::new(vec![Value::Int(g), Value::Int(g * 10 + d)]))
                .collect();
            let cols = [format!("k{d}"), format!("a{d}")];
            let cols: Vec<&str> = cols.iter().map(String::as_str).collect();
            cat.register_table(
                &format!("d{d}"),
                Schema::ints(&cols),
                SortOrder::empty(),
                &rows,
            )
            .unwrap();
        }
        let mut p = LogicalPlan::new();
        let mut j = p.scan_as("t", "t");
        for d in 0..4 {
            let dim = p.scan_as(&format!("d{d}"), &format!("d{d}"));
            j = p.join(j, dim, vec![JoinPair::new("t.g", format!("d{d}.k{d}"))]);
        }
        let plan = Optimizer::new(&cat).optimize(&p).unwrap();
        let root = &plan.root;
        assert_eq!(
            root.count_nodes(&|n| matches!(
                n.op,
                PhysOp::HashJoin {
                    build: Side::Right,
                    ..
                }
            )),
            4,
            "test premise: four joins building on the dimensions\n{}",
            plan.explain()
        );
        let ctx = two_workers(&cat);
        assert!(parallel_safe(root));
        assert!(matches!(
            &driving_leaf(root).op,
            PhysOp::ClusteredIndexScan { table, .. } if table == "t"
        ));
        let mut builds = Vec::new();
        fragment(root, &ctx, &mut builds).unwrap();
        assert_eq!(builds.len(), 4, "one shared table per dimension");
        assert!(
            try_parallel(root, &ctx).unwrap().is_some(),
            "the whole plan is one exchange"
        );
        for join in [root, &root.children[0]] {
            let dim = &join.children[1];
            assert!(
                try_parallel(dim, &ctx).unwrap().is_none(),
                "a dimension is built serially"
            );
        }
        for_every_mode(&plan, &cat);
    }

    /// An ORDER BY the join's probe order satisfies leaves no enforcer in
    /// the plan, so the join is the root — and, being parallel-safe, one
    /// fragment: the gather releases the probe side's morsels in file order,
    /// each probing a table built in serial order, which is the serial row
    /// sequence.
    #[test]
    fn hash_join_under_an_order_by_probes_an_ordered_gather() {
        let mut cat = catalog();
        let dim: Vec<Tuple> = (0..10i64)
            .map(|g| Tuple::new(vec![Value::Int(g), Value::Int(-g)]))
            .collect();
        cat.register_table("d", Schema::ints(&["dk", "dv"]), SortOrder::empty(), &dim)
            .unwrap();
        let mut p = LogicalPlan::new();
        let (t, d) = (p.scan_as("t", "t"), p.scan_as("d", "d"));
        let j = p.join(t, d, vec![JoinPair::new("t.g", "d.dk")]);
        p.order_by(j, SortOrder::new(["t.k"]));
        let plan = Optimizer::new(&cat).optimize(&p).unwrap();
        let root = &plan.root;
        assert!(
            matches!(
                root.op,
                PhysOp::HashJoin {
                    build: Side::Right,
                    ..
                }
            ),
            "test premise: the join is the root, no enforcer above it\n{}",
            plan.explain()
        );
        let ctx = two_workers(&cat);
        assert!(try_parallel(root, &ctx).unwrap().is_some());
        for_every_mode(&plan, &cat);
    }

    /// A LEFT OUTER join is merged or nested, never hashed: it stays
    /// serial over inputs that may run in parallel.
    #[test]
    fn left_outer_join_stays_serial_over_parallel_inputs() {
        // Twelve keys against `g = 0..10`: ten keys with 4,000 partners
        // each, two padded rows.
        let mut cat = catalog();
        let keys: Vec<Tuple> = (0..12i64)
            .map(|i| Tuple::new(vec![Value::Int(i)]))
            .collect();
        cat.register_table("keys", Schema::ints(&["kg"]), SortOrder::empty(), &keys)
            .unwrap();
        let mut p = LogicalPlan::new();
        let k = p.scan_as("keys", "keys");
        let h = p.scan_as("heap", "h");
        let pairs = vec![JoinPair::new("keys.kg", "h.g")];
        p.join_kind(k, h, JoinKind::LeftOuter, pairs);
        let plan = Optimizer::new(&cat).optimize(&p).unwrap();
        let outer = |n: &PhysNode| {
            matches!(
                n.op,
                PhysOp::MergeJoin {
                    kind: JoinKind::LeftOuter,
                    ..
                } | PhysOp::NestedLoopsJoin {
                    kind: JoinKind::LeftOuter,
                    ..
                }
            )
        };
        assert!(
            plan.root.count_nodes(&outer) == 1
                && plan
                    .root
                    .count_nodes(&|n| matches!(n.op, PhysOp::HashJoin { .. }))
                    == 0,
            "test premise: a merged or nested LEFT OUTER join\n{}",
            plan.explain()
        );
        assert_eq!(plan.execute(&cat).unwrap().rows.len(), 40_002);
        for_every_mode(&plan, &cat);
    }

    #[test]
    fn order_by_satisfied_by_clustering_stays_sorted() {
        // The paper's hallmark free-order case: ORDER BY on the clustering
        // key compiles to a bare scan with NO sort enforcer, so the
        // order rests on the gather alone, which releases morsels in file
        // order.
        let cat = catalog();
        let mut p = LogicalPlan::new();
        let s = p.scan_as("t", "t");
        p.order_by(s, SortOrder::new(["t.k"]));
        let plan = Optimizer::new(&cat).optimize(&p).unwrap();
        assert_eq!(
            plan.root
                .count_nodes(&|n| matches!(n.op, PhysOp::Sort { .. } | PhysOp::PartialSort { .. })),
            0,
            "test premise: clustering satisfies the ORDER BY, no enforcer\n{}",
            plan.explain()
        );
        for_every_mode(&plan, &cat);
    }

    #[test]
    fn limit_over_an_unordered_heap_keeps_the_serial_prefix() {
        // No declared order anywhere, so nothing names a key the output
        // could be merged on — yet a LIMIT picks a prefix of the serial
        // sequence, and file order alone reproduces it. The filter also
        // empties stretches of the file, so the prefix spans morsels.
        let cat = catalog();
        let mut p = LogicalPlan::new();
        let s = p.scan_as("heap", "h");
        let f = p.filter(s, NExpr::col_eq_lit("h.g", 3i64));
        p.limit(f, 1_500);
        let plan = Optimizer::new(&cat).optimize(&p).unwrap();
        assert!(plan.root.out_order.is_empty(), "{}", plan.explain());
        assert_eq!(plan.execute(&cat).unwrap().rows.len(), 1_500);
        for_every_mode(&plan, &cat);
    }
}
