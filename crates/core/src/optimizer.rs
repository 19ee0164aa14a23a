//! The Volcano-style search (§3.2 + §5.2.1).
//!
//! An optimization goal is a pair `(logical node, required output order)`.
//! For each goal the optimizer enumerates the physical alternatives, adds a
//! (partial) sort enforcer wherever an alternative's guaranteed order does
//! not subsume the requirement, and memoizes the cheapest result. The
//! interesting orders tried at merge joins and sort aggregates come from the
//! configured [`Strategy`]. `best_plan`'s on-demand recursion is the only
//! enumerator: a goal's answer is a pure function of the goal, and the memo
//! (keyed by node and rep-normalized order) makes each one solved once.

use crate::compile::CompileOptions;
use crate::cost::{CostParams, SearchStats};
use crate::equiv::EquivMap;
use crate::favorable::{by_alias, compute_afm, lcp_with_set_equiv};
use crate::joingraph::{collect_equivs, reorder_joins, EnumStrategy, DEFAULT_JOIN_ENUM_THRESHOLD};
use crate::logical::{JoinPair, LogicalOp, LogicalPlan, NExpr, NodeId, ProjItem};
use crate::plan::{PhysNode, PhysOp};
use crate::stats::{derive_stats, NodeStats};
use crate::strategy::Strategy;
use pyro_catalog::Catalog;
use pyro_common::{PyroError, Result, Schema};
use pyro_exec::join::{JoinKind, Side};
use pyro_ordering::{AttrSet, SortOrder};
use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The optimizer facade.
pub struct Optimizer<'a> {
    catalog: &'a Catalog,
    strategy: Strategy,
    params: CostParams,
    enable_hash: bool,
    enum_strategy: EnumStrategy,
    join_enum_threshold: usize,
}

impl<'a> Optimizer<'a> {
    /// Creates an optimizer with the paper's full machinery (`PYRO-O`).
    /// The sort-memory budget `M` is taken from the catalog.
    pub fn new(catalog: &'a Catalog) -> Self {
        let params = CostParams {
            block_size: catalog.device().block_size(),
            sort_mem_blocks: catalog.sort_memory_blocks() as f64,
            // 0 (= charge everything cold) when the catalog's store
            // bypasses the pool.
            buffer_pool_pages: catalog.store().pool_pages().unwrap_or(0) as f64,
            ..CostParams::default()
        };
        Optimizer {
            catalog,
            strategy: Strategy::pyro_o(),
            params,
            enable_hash: true,
            enum_strategy: EnumStrategy::default(),
            join_enum_threshold: DEFAULT_JOIN_ENUM_THRESHOLD,
        }
    }

    /// Selects a different interesting-order strategy.
    pub fn with_strategy(mut self, strategy: Strategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Overrides cost-model constants.
    pub fn with_params(mut self, params: CostParams) -> Self {
        self.params = params;
        self
    }

    /// Enables or disables hash join / hash aggregate alternatives.
    ///
    /// The paper's PYRO prototype explores sort-based plans (its Experiment
    /// B3 gaps presume no hash fallback); benches reproducing Fig. 15 turn
    /// hashing off, while the default keeps the modern full plan space.
    pub fn with_hash(mut self, enable: bool) -> Self {
        self.enable_hash = enable;
        self
    }

    /// Selects when joins are re-shaped before the search (default:
    /// [`EnumStrategy::Memo`]: only above the threshold). Orthogonal to
    /// [`Optimizer::with_strategy`]: the search itself is the same.
    pub fn with_enum_strategy(mut self, enum_strategy: EnumStrategy) -> Self {
        self.enum_strategy = enum_strategy;
        self
    }

    /// Inner-join region size (in leaf inputs) above which the region is
    /// re-shaped with the cardinality-free heuristic instead of planned in
    /// the given shape (default: [`DEFAULT_JOIN_ENUM_THRESHOLD`];
    /// `usize::MAX` never re-shapes). [`EnumStrategy::Heuristic`] overrides
    /// it with 2.
    pub fn with_join_enum_threshold(mut self, threshold: usize) -> Self {
        self.join_enum_threshold = threshold;
        self
    }

    /// Optimizes a logical plan into a physical plan.
    pub fn optimize(&self, plan: &LogicalPlan) -> Result<OptimizedPlan> {
        let start = Instant::now();
        if plan.is_empty() {
            return Err(PyroError::Plan("empty logical plan".into()));
        }
        // `reorder_joins` returns None when nothing qualifies, keeping the
        // original plan — and its exact plans, costs and counters.
        let threshold = match self.enum_strategy {
            EnumStrategy::Heuristic => 2,
            EnumStrategy::Memo => self.join_enum_threshold,
        };
        let reordered = reorder_joins(plan, self.catalog, threshold)?;
        let (plan, reordered_joins) = match &reordered {
            Some((p, n)) => (p, *n),
            None => (plan, 0),
        };
        let (mut best, ctx) = self.search(plan, HashMap::new())?;
        if self.strategy.refine {
            if let Some(forced) = crate::refine::reworked_orders(&ctx, &best) {
                // The re-search runs in a context of its own, so the
                // accounting reported below is the first search's alone.
                let (refined, _) = self.search(plan, forced)?;
                if refined.cost < best.cost {
                    best = refined;
                }
            }
        }
        let search = ctx.search.into_inner();
        Ok(OptimizedPlan {
            root: best,
            strategy: self.strategy,
            ordered_output: output_is_ordered(plan),
            planning: PlanningInfo {
                enumerator: self.enum_strategy,
                groups: search.groups,
                candidates: search.candidates,
                reordered_joins,
                elapsed: start.elapsed(),
            },
        })
    }

    /// One goal-directed search of `plan` from `(root, ε)`, with the
    /// merge-join orders in `forced` pinned (phase 2 applies its reworked
    /// orders this way). Returns the context too: refinement reads its
    /// favorable orders, the caller its accounting.
    fn search<'p>(
        &'p self,
        plan: &'p LogicalPlan,
        forced: HashMap<NodeId, SortOrder>,
    ) -> Result<(Arc<PhysNode>, Ctx<'p>)> {
        let ctx = Ctx::build(
            plan,
            self.catalog,
            self.strategy,
            self.params,
            self.enable_hash,
            forced,
        )?;
        let best = best_plan(&ctx, plan.root(), &SortOrder::empty())?;
        Ok((best, ctx))
    }
}

/// True iff the query demands ordered output: lowering places the ORDER BY
/// `Sort` at the logical root, optionally under a `Limit`. This is the
/// *requirement*; a physical plan may additionally *guarantee* an order the
/// query never asked for (a clustered scan), which costs nothing to ignore.
fn output_is_ordered(plan: &LogicalPlan) -> bool {
    let mut id = plan.root();
    loop {
        match plan.node(id) {
            LogicalOp::Limit { input, .. } => id = *input,
            LogicalOp::Sort { .. } => return true,
            _ => return false,
        }
    }
}

/// How one plan was found: the join re-shape policy it was planned under,
/// the search's enumeration accounting, and the planning wall-clock. Rides
/// on every [`OptimizedPlan`]; a plan served from the plan cache carries
/// the info of the run that originally produced it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlanningInfo {
    /// The join re-shape policy the query was planned under.
    pub enumerator: EnumStrategy,
    /// Memo groups solved (see [`SearchStats::groups`]).
    pub groups: u64,
    /// Physical candidates enumerated (see [`SearchStats::candidates`]).
    pub candidates: u64,
    /// Join nodes rebuilt by the cardinality-free re-shape (0 when the
    /// plan kept its given shape).
    pub reordered_joins: u64,
    /// Planning wall-clock, including refinement. Excluded from rendered
    /// explain text so equal plans explain identically.
    pub elapsed: Duration,
}

/// Result of optimization.
#[derive(Debug, Clone)]
pub struct OptimizedPlan {
    /// The chosen physical plan.
    pub root: Arc<PhysNode>,
    /// Strategy that produced it.
    pub strategy: Strategy,
    /// Whether the query demands ordered output (it had an ORDER BY). The
    /// parallel compiler preserves the root sequence exactly when this is
    /// set, and is free to gather in arrival order when it is not — even if
    /// the chosen plan incidentally guarantees an order.
    pub ordered_output: bool,
    /// How the plan was found: re-shape policy, search accounting,
    /// planning time.
    pub planning: PlanningInfo,
}

impl OptimizedPlan {
    /// Total estimated cost in I/O units.
    pub fn cost(&self) -> f64 {
        self.root.cost
    }

    /// Pretty-printed plan tree.
    pub fn explain(&self) -> String {
        self.root.explain()
    }

    /// Compiles to a runnable operator [`pyro_exec::Pipeline`] as `options`
    /// say (see [`CompileOptions`]; `&CompileOptions::default()` is the
    /// serial, columnar, 1024-row-batch instantiation), honouring the
    /// query's own output-order demand.
    pub fn compile(
        &self,
        catalog: &Catalog,
        options: &CompileOptions,
    ) -> Result<pyro_exec::Pipeline> {
        crate::compile::compile(&self.root, catalog, self.ordered_output, options)
    }

    /// [`Self::compile`] with the options spelled out positionally. Kept
    /// only because the frozen `benchmark/` package calls it by this name
    /// and signature; new code builds a [`CompileOptions`].
    pub fn compile_bound_columnar(
        &self,
        catalog: &Catalog,
        batch_size: usize,
        workers: usize,
        params: &[pyro_common::Value],
        columnar: bool,
    ) -> Result<pyro_exec::Pipeline> {
        let options = CompileOptions {
            batch_size,
            workers,
            params,
            columnar,
        };
        self.compile(catalog, &options)
    }

    /// Compiles with the default options and drains the pipeline; the
    /// returned [`pyro_exec::Rows`] carries the rows and the metrics that
    /// produced them.
    pub fn execute(&self, catalog: &Catalog) -> Result<pyro_exec::Rows> {
        self.compile(catalog, &CompileOptions::default())?.run()
    }
}

/// Everything a single optimization run needs.
pub(crate) struct Ctx<'a> {
    pub plan: &'a LogicalPlan,
    pub catalog: &'a Catalog,
    pub stats: Vec<NodeStats>,
    pub schemas: Vec<Schema>,
    pub afm: Vec<Vec<SortOrder>>,
    pub equiv: EquivMap,
    pub params: CostParams,
    pub strategy: Strategy,
    pub forced: HashMap<NodeId, SortOrder>,
    pub enable_hash: bool,
    /// Bare column names the query needs from each scan alias — what an
    /// index must hold to cover the query there.
    pub referenced: HashMap<String, AttrSet>,
    /// Enumeration accounting for this run.
    pub search: RefCell<SearchStats>,
    memo: RefCell<Memo>,
}

/// Memo table: goal (node id, rep-normalized required order) → best plan.
type Memo = HashMap<(NodeId, Vec<String>), Arc<PhysNode>>;

impl<'a> Ctx<'a> {
    pub(crate) fn build(
        plan: &'a LogicalPlan,
        catalog: &'a Catalog,
        strategy: Strategy,
        params: CostParams,
        enable_hash: bool,
        forced: HashMap<NodeId, SortOrder>,
    ) -> Result<Ctx<'a>> {
        // Equivalences from join pairs and col=col equality filters.
        let equiv = collect_equivs(plan);
        let stats = derive_stats(plan, catalog)?;
        let resolver = |table: &str, alias: &str| -> Result<Schema> {
            Ok(catalog.table(table)?.meta.schema.qualify(alias))
        };
        let schemas: Vec<Schema> = (0..plan.len())
            .map(|id| plan.schema(id, &resolver))
            .collect::<Result<_>>()?;
        // Columns needed per alias (covering-index checks): every column an
        // expression names, plus every column the query returns — `SELECT *`
        // lowers to no projection, so its output is named nowhere else.
        let referenced = by_alias(
            plan.referenced_columns()
                .into_iter()
                .chain(schemas[plan.root()].names()),
        );
        let afm = compute_afm(plan, catalog, &equiv, &referenced)?;
        Ok(Ctx {
            plan,
            catalog,
            stats,
            schemas,
            afm,
            equiv,
            params,
            strategy,
            forced,
            enable_hash,
            referenced,
            search: RefCell::new(SearchStats::default()),
            memo: RefCell::new(HashMap::new()),
        })
    }

    /// True iff `have` guarantees `need` (prefix under equivalence).
    pub(crate) fn satisfies(&self, have: &SortOrder, need: &SortOrder) -> bool {
        need.len() <= have.len()
            && need
                .attrs()
                .iter()
                .zip(have.attrs())
                .all(|(n, h)| self.equiv.same(n, h))
    }

    fn memo_key(&self, id: NodeId, required: &SortOrder) -> (NodeId, Vec<String>) {
        (
            id,
            required
                .attrs()
                .iter()
                .map(|a| self.equiv.rep(a).to_string())
                .collect(),
        )
    }
}

/// Maps an order into the name space of `names` (longest prefix whose
/// attributes are equivalent to members of `names`, emitted as those
/// members).
fn project_order_to_names(order: &SortOrder, names: &AttrSet, equiv: &EquivMap) -> SortOrder {
    let rep_to_name: HashMap<&str, &str> = names.iter().map(|n| (equiv.rep(n), n)).collect();
    let mut out: Vec<String> = Vec::new();
    for a in order.attrs() {
        match rep_to_name.get(equiv.rep(a)) {
            Some(&n) if !out.iter().any(|o| o == n) => out.push(n.to_string()),
            _ => break,
        }
    }
    SortOrder::new(out)
}

/// The memoized goal solver: cheapest plan for `(id, required)`.
fn best_plan(ctx: &Ctx, id: NodeId, required: &SortOrder) -> Result<Arc<PhysNode>> {
    let key = ctx.memo_key(id, required);
    if let Some(hit) = ctx.memo.borrow().get(&key) {
        return Ok(hit.clone());
    }
    let candidates = gen_candidates(ctx, id, required)?;
    {
        let mut search = ctx.search.borrow_mut();
        search.groups += 1;
        search.candidates += candidates.len() as u64;
    }
    let mut best: Option<Arc<PhysNode>> = None;
    for cand in candidates {
        let finished = enforce(ctx, id, cand, required);
        if best.as_ref().is_none_or(|b| finished.cost < b.cost) {
            best = Some(finished);
        }
    }
    let best = best.ok_or_else(|| {
        PyroError::Plan(format!(
            "no physical plan for node {id} with order {required}"
        ))
    })?;
    ctx.memo.borrow_mut().insert(key, best.clone());
    Ok(best)
}

/// Adds a (partial) sort enforcer if the candidate does not already satisfy
/// the requirement (§3.2).
fn enforce(ctx: &Ctx, id: NodeId, cand: Arc<PhysNode>, required: &SortOrder) -> Arc<PhysNode> {
    if required.is_empty() || ctx.satisfies(&cand.out_order, required) {
        return cand;
    }
    let stats = &ctx.stats[id];
    let have = if ctx.strategy.partial_enforcers {
        cand.out_order.clone()
    } else {
        // Exact-match-only optimizers re-sort from scratch.
        SortOrder::empty()
    };
    let (coe, k) = ctx
        .params
        .coe_order(stats, &have, required, |a, b| ctx.equiv.same(a, b));
    let op = if k > 0 {
        PhysOp::PartialSort {
            prefix_len: k,
            target: required.clone(),
        }
    } else {
        PhysOp::Sort {
            target: required.clone(),
        }
    };
    Arc::new(PhysNode {
        op,
        schema: cand.schema.clone(),
        out_order: required.clone(),
        cost: cand.cost + coe,
        rows: cand.rows,
        logical: id,
        children: vec![cand],
    })
}

/// Enumerates the physical alternatives for one logical node.
fn gen_candidates(ctx: &Ctx, id: NodeId, required: &SortOrder) -> Result<Vec<Arc<PhysNode>>> {
    let stats = &ctx.stats[id];
    let mut out: Vec<Arc<PhysNode>> = Vec::new();
    match ctx.plan.node(id) {
        LogicalOp::Scan { table, alias } => {
            let handle = ctx.catalog.table(table)?;
            let schema = handle.meta.schema.qualify(alias);
            let heap_blocks = handle.heap.block_count().max(1) as f64;
            if handle.meta.clustering.is_empty() {
                out.push(Arc::new(PhysNode {
                    op: PhysOp::TableScan {
                        table: table.clone(),
                        alias: alias.clone(),
                    },
                    children: vec![],
                    schema: schema.clone(),
                    out_order: SortOrder::empty(),
                    cost: heap_blocks,
                    rows: stats.rows,
                    logical: id,
                }));
            } else {
                out.push(Arc::new(PhysNode {
                    op: PhysOp::ClusteredIndexScan {
                        table: table.clone(),
                        alias: alias.clone(),
                    },
                    children: vec![],
                    schema: schema.clone(),
                    out_order: handle.meta.clustering.rename(|a| format!("{alias}.{a}")),
                    cost: heap_blocks,
                    rows: stats.rows,
                    logical: id,
                }));
            }
            // The same covering test that admitted an index's order to afm.
            let needed = ctx.referenced.get(alias);
            for idx in &handle.meta.indexes {
                let Some(file) = handle.index_files.get(&idx.name) else {
                    continue;
                };
                if needed.is_some_and(|cols| !idx.covers(cols)) {
                    continue;
                }
                let entry_schema = Schema::new(
                    idx.entry_columns()
                        .iter()
                        .map(|c| {
                            let i = handle.meta.schema.index_of(c)?;
                            Ok(pyro_common::Column::new(
                                format!("{alias}.{c}"),
                                handle.meta.schema.column(i).ty,
                            ))
                        })
                        .collect::<Result<Vec<_>>>()?,
                );
                out.push(Arc::new(PhysNode {
                    op: PhysOp::CoveringIndexScan {
                        table: table.clone(),
                        alias: alias.clone(),
                        index: idx.name.clone(),
                    },
                    children: vec![],
                    schema: entry_schema,
                    out_order: idx.key.rename(|a| format!("{alias}.{a}")),
                    cost: file.block_count().max(1) as f64,
                    rows: stats.rows,
                    logical: id,
                }));
            }
        }
        LogicalOp::Filter { input, predicate } => {
            for goal in child_goals(ctx, *input, required) {
                let child = best_plan(ctx, *input, &goal)?;
                out.push(Arc::new(PhysNode {
                    op: PhysOp::Filter {
                        predicate: predicate.clone(),
                    },
                    schema: child.schema.clone(),
                    out_order: child.out_order.clone(),
                    cost: child.cost + ctx.params.tuple_io * ctx.stats[*input].rows,
                    rows: stats.rows,
                    logical: id,
                    children: vec![child],
                }));
            }
            // A filter directly over a sorted-file scan compiles to a
            // binary-searched page range when the predicate pins an
            // equality prefix of the scan's order (the filter stays as the
            // residual — see `compile::compile_filter_child`). Offer each
            // access path again with the seek discount, so a selective
            // point predicate can pick the path it seeks on even when that
            // path loses on a full scan — typically the covering index
            // beating the clustered heap.
            if matches!(ctx.plan.node(*input), LogicalOp::Scan { .. }) {
                let in_stats = &ctx.stats[*input];
                for scan in gen_candidates(ctx, *input, &SortOrder::empty())? {
                    let k = crate::seek::eq_prefix_len(predicate, &scan.out_order);
                    if k == 0 {
                        continue;
                    }
                    let sel = (1.0
                        / in_stats
                            .distinct_of(scan.out_order.attrs()[..k].iter().map(String::as_str)))
                    .min(1.0);
                    // O(log P) opening-tuple probes, then the surviving pages.
                    let probes = scan.cost.max(2.0).log2().ceil();
                    let seek_cost = (scan.cost * sel + probes).max(1.0);
                    if seek_cost >= scan.cost {
                        continue; // the discount doesn't pay for the probes
                    }
                    let rows_in = (in_stats.rows * sel).max(1.0);
                    let bounded = Arc::new(PhysNode {
                        op: scan.op.clone(),
                        children: vec![],
                        schema: scan.schema.clone(),
                        out_order: scan.out_order.clone(),
                        cost: seek_cost,
                        rows: rows_in,
                        logical: *input,
                    });
                    out.push(Arc::new(PhysNode {
                        op: PhysOp::Filter {
                            predicate: predicate.clone(),
                        },
                        schema: bounded.schema.clone(),
                        out_order: bounded.out_order.clone(),
                        cost: seek_cost + ctx.params.tuple_io * rows_in,
                        rows: stats.rows,
                        logical: id,
                        children: vec![bounded],
                    }));
                }
            }
        }
        LogicalOp::Project { input, items } => {
            // Pass-through column names survive the projection; an order is
            // preserved up to its first dropped column.
            let kept = project_kept(items);
            for goal in child_goals(ctx, *input, &required.lcp_with_set(&kept)) {
                let child = best_plan(ctx, *input, &goal)?;
                let schema = Schema::new(
                    items
                        .iter()
                        .map(|it| {
                            pyro_common::Column::new(
                                it.name.clone(),
                                it.expr.data_type(&child.schema),
                            )
                        })
                        .collect(),
                );
                out.push(Arc::new(PhysNode {
                    op: PhysOp::Project {
                        items: items.clone(),
                    },
                    schema,
                    out_order: child.out_order.lcp_with_set(&kept),
                    cost: child.cost + ctx.params.tuple_io * ctx.stats[*input].rows,
                    rows: stats.rows,
                    logical: id,
                    children: vec![child],
                }));
            }
        }
        LogicalOp::Join {
            left,
            right,
            kind,
            pairs,
        } => {
            for (l_goal, r_goal) in join_merge_goals(ctx, id, *left, *right, pairs, required) {
                let lchild = best_plan(ctx, *left, &l_goal)?;
                let rchild = best_plan(ctx, *right, &r_goal)?;
                let cost = lchild.cost
                    + rchild.cost
                    + ctx.params.tuple_io * (ctx.stats[*left].rows + ctx.stats[*right].rows);
                out.push(Arc::new(PhysNode {
                    op: PhysOp::MergeJoin {
                        kind: *kind,
                        pairs: pairs.clone(),
                        order: l_goal.clone(),
                    },
                    schema: lchild.schema.join(&rchild.schema),
                    out_order: l_goal,
                    cost,
                    rows: stats.rows,
                    logical: id,
                    children: vec![lchild, rchild],
                }));
            }
            // Full outer joins are merge-only: none of the systems the
            // paper measured implemented hash (or nested-loops) full outer
            // joins — SYS2 had to rewrite FO joins as a union of two left
            // outer joins — and the coordinated-order findings of
            // Experiment B2 rest on that reality.
            if !ctx.forced.contains_key(&id)
                && ctx.enable_hash
                && !matches!(kind, JoinKind::FullOuter)
            {
                let lchild = best_plan(ctx, *left, &SortOrder::empty())?;
                let rchild = best_plan(ctx, *right, &SortOrder::empty())?;
                let (bl, br) = (
                    ctx.stats[*left].blocks(ctx.params.block_size),
                    ctx.stats[*right].blocks(ctx.params.block_size),
                );
                let schema = lchild.schema.join(&rchild.schema);
                let inputs = lchild.cost + rchild.cost;
                let hash_cost =
                    inputs + ctx.params.hash_io * (ctx.stats[*left].rows + ctx.stats[*right].rows);
                // Hash join, one candidate per build side. `best_plan`
                // keeps the first of equally cheap candidates, so the side
                // offered first is the tie-break: the smaller input, else
                // the written (left) one. The outer variants build on the
                // side they preserve.
                let sides: &[Side] = match kind {
                    JoinKind::Inner if br < bl => &[Side::Right, Side::Left],
                    JoinKind::Inner => &[Side::Left, Side::Right],
                    _ => &[Side::Left],
                };
                for &build in sides {
                    let (build_blocks, probe) = match build {
                        Side::Left => (bl, &rchild),
                        Side::Right => (br, &lchild),
                    };
                    // Against an in-memory table the probe child streams
                    // through, each row followed by its matches: an inner
                    // join hands the probe order on, like nested loops.
                    // A table over the budget is grace partitioned — a
                    // round trip of both inputs, which scatters the probe
                    // order — and an outer join ends on its unmatched
                    // build rows.
                    let in_memory = build_blocks <= ctx.params.sort_mem_blocks;
                    let (cost, out_order) = match (in_memory, kind) {
                        (true, JoinKind::Inner) => (hash_cost, probe.out_order.clone()),
                        (true, _) => (hash_cost, SortOrder::empty()),
                        (false, _) => (hash_cost + 2.0 * (bl + br), SortOrder::empty()),
                    };
                    out.push(Arc::new(PhysNode {
                        op: PhysOp::HashJoin {
                            kind: *kind,
                            pairs: pairs.clone(),
                            build,
                        },
                        schema: schema.clone(),
                        out_order,
                        cost,
                        rows: stats.rows,
                        logical: id,
                        children: vec![lchild.clone(), rchild.clone()],
                    }));
                }
                // Nested loops: propagates the outer (left) order — the
                // property afm rule 4 relies on.
                let nl_cost =
                    inputs + ctx.params.cmp_io * ctx.stats[*left].rows * ctx.stats[*right].rows;
                out.push(Arc::new(PhysNode {
                    op: PhysOp::NestedLoopsJoin {
                        kind: *kind,
                        pairs: pairs.clone(),
                    },
                    schema,
                    out_order: lchild.out_order.clone(),
                    cost: nl_cost,
                    rows: stats.rows,
                    logical: id,
                    children: vec![lchild, rchild],
                }));
            }
        }
        LogicalOp::Aggregate {
            input,
            group_by,
            aggs,
        } => {
            let l: AttrSet = group_by.iter().cloned().collect();
            for q in grouping_goal_orders(ctx, *input, &l, required) {
                let child = best_plan(ctx, *input, &q)?;
                out.push(Arc::new(PhysNode {
                    op: PhysOp::SortAggregate {
                        group_by: group_by.clone(),
                        aggs: aggs.clone(),
                    },
                    schema: ctx.schemas[id].clone(),
                    out_order: q,
                    cost: child.cost + ctx.params.tuple_io * ctx.stats[*input].rows,
                    rows: stats.rows,
                    logical: id,
                    children: vec![child],
                }));
            }
            if ctx.enable_hash {
                let child = best_plan(ctx, *input, &SortOrder::empty())?;
                let b_in = ctx.stats[*input].blocks(ctx.params.block_size);
                let mut cost = child.cost + ctx.params.hash_io * ctx.stats[*input].rows;
                if b_in > ctx.params.sort_mem_blocks {
                    cost += 2.0 * b_in;
                }
                out.push(Arc::new(PhysNode {
                    op: PhysOp::HashAggregate {
                        group_by: group_by.clone(),
                        aggs: aggs.clone(),
                    },
                    schema: ctx.schemas[id].clone(),
                    out_order: SortOrder::empty(),
                    cost,
                    rows: stats.rows,
                    logical: id,
                    children: vec![child],
                }));
            }
        }
        LogicalOp::Sort { input, order } => {
            // The ORDER BY is itself a goal: delegate to the child with the
            // target order; enforcement happens inside `best_plan`.
            out.push(best_plan(ctx, *input, order)?);
        }
        LogicalOp::Distinct { input } => {
            // DISTINCT over all columns: any permutation of the output
            // columns works for the streaming implementation — the same
            // factorial space as merge joins (paper §1).
            let l: AttrSet = ctx.schemas[id].names().into_iter().collect();
            for q in grouping_goal_orders(ctx, *input, &l, required) {
                let child = best_plan(ctx, *input, &q)?;
                out.push(Arc::new(PhysNode {
                    op: PhysOp::SortDistinct { order: q.clone() },
                    schema: ctx.schemas[id].clone(),
                    out_order: q,
                    cost: child.cost + ctx.params.tuple_io * ctx.stats[*input].rows,
                    rows: stats.rows,
                    logical: id,
                    children: vec![child],
                }));
            }
            if ctx.enable_hash {
                let child = best_plan(ctx, *input, &SortOrder::empty())?;
                let b_in = ctx.stats[*input].blocks(ctx.params.block_size);
                let mut cost = child.cost + ctx.params.hash_io * ctx.stats[*input].rows;
                if b_in > ctx.params.sort_mem_blocks {
                    cost += 2.0 * b_in;
                }
                out.push(Arc::new(PhysNode {
                    op: PhysOp::HashDistinct,
                    schema: ctx.schemas[id].clone(),
                    out_order: SortOrder::empty(),
                    cost,
                    rows: stats.rows,
                    logical: id,
                    children: vec![child],
                }));
            }
        }
        LogicalOp::Limit { input, k } => {
            // Order-preserving; the requirement flows through. A fully
            // pipelined child would let LIMIT terminate early, but costing
            // partial evaluation is out of scope — we keep the child's cost.
            for goal in child_goals(ctx, *input, required) {
                let child = best_plan(ctx, *input, &goal)?;
                out.push(Arc::new(PhysNode {
                    op: PhysOp::Limit { k: *k },
                    schema: child.schema.clone(),
                    out_order: child.out_order.clone(),
                    cost: child.cost,
                    rows: stats.rows,
                    logical: id,
                    children: vec![child],
                }));
            }
        }
    }
    Ok(out)
}

/// Goals worth trying for an order-preserving unary operator's child: the
/// requirement itself, nothing, and each favorable order of the child
/// (whose prefix a partial-sort enforcer above can exploit).
fn child_goals(ctx: &Ctx, child: NodeId, required: &SortOrder) -> Vec<SortOrder> {
    let mut goals = vec![SortOrder::empty()];
    if !required.is_empty() {
        goals.push(required.clone());
    }
    for o in &ctx.afm[child] {
        goals.push(o.clone());
    }
    // Dedup under rep-normalization.
    let mut seen = std::collections::HashSet::new();
    goals.retain(|g| seen.insert(ctx.memo_key(child, g)));
    goals
}

/// Column names a projection passes through unchanged; an order survives
/// the projection up to its first dropped column.
pub(crate) fn project_kept(items: &[ProjItem]) -> AttrSet {
    items
        .iter()
        .filter(|it| matches!(&it.expr, NExpr::Col(c) if c == &it.name))
        .map(|it| it.name.clone())
        .collect()
}

/// The merge-join goal pairs `(left goal, right goal)` for join `id` —
/// one per candidate interesting order, with each representative mapped
/// back to concrete pair columns so the goals resolve on both sides.
fn join_merge_goals(
    ctx: &Ctx,
    id: NodeId,
    left: NodeId,
    right: NodeId,
    pairs: &[JoinPair],
    required: &SortOrder,
) -> Vec<(SortOrder, SortOrder)> {
    let s: AttrSet = pairs
        .iter()
        .map(|p| ctx.equiv.rep(&p.left).to_string())
        .collect();
    // Favorable prefixes: afm(el, S) ∪ afm(er, S) ∪ {o ∧ S}.
    let mut prefixes: Vec<SortOrder> = ctx.afm[left]
        .iter()
        .chain(ctx.afm[right].iter())
        .map(|o| lcp_with_set_equiv(o, &s, &ctx.equiv))
        .filter(|o| !o.is_empty())
        .collect();
    let req_prefix = lcp_with_set_equiv(required, &s, &ctx.equiv);
    if !req_prefix.is_empty() {
        prefixes.push(req_prefix);
    }
    prefixes.sort();
    prefixes.dedup();
    let orders = match ctx.forced.get(&id) {
        Some(o) => vec![o.clone()],
        None => ctx.strategy.candidate_orders(&s, &prefixes),
    };
    // Map each representative attribute back to the concrete pair
    // columns: goals are then guaranteed to resolve on both sides.
    let rep_to_pair: HashMap<&str, &JoinPair> = pairs
        .iter()
        .map(|pr| (ctx.equiv.rep(&pr.left), pr))
        .collect();
    let mut out = Vec::with_capacity(orders.len());
    for p in orders {
        let mut l_attrs = Vec::with_capacity(p.len());
        let mut r_attrs = Vec::with_capacity(p.len());
        let mut ok = true;
        for a in p.attrs() {
            match rep_to_pair.get(a.as_str()) {
                Some(pair) => {
                    l_attrs.push(pair.left.clone());
                    r_attrs.push(pair.right.clone());
                }
                None => {
                    ok = false;
                    break;
                }
            }
        }
        if ok {
            out.push((SortOrder::new(l_attrs), SortOrder::new(r_attrs)));
        }
    }
    out
}

/// The candidate input orders for a sort-based grouping operator (sort
/// aggregate / sort distinct) over grouping set `l` — favorable orders and
/// the requirement projected into the grouping columns, expanded by the
/// strategy.
fn grouping_goal_orders(
    ctx: &Ctx,
    input: NodeId,
    l: &AttrSet,
    required: &SortOrder,
) -> Vec<SortOrder> {
    let mut prefixes: Vec<SortOrder> = ctx.afm[input]
        .iter()
        .map(|o| project_order_to_names(o, l, &ctx.equiv))
        .filter(|o| !o.is_empty())
        .collect();
    let req_prefix = project_order_to_names(required, l, &ctx.equiv);
    if !req_prefix.is_empty() {
        prefixes.push(req_prefix);
    }
    prefixes.sort();
    prefixes.dedup();
    ctx.strategy.candidate_orders(l, &prefixes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::logical::JoinPair;
    use pyro_common::{Tuple, Value};

    fn catalog() -> Catalog {
        let mut cat = Catalog::new();
        let rows: Vec<Tuple> = (0..2000)
            .map(|i| Tuple::new(vec![Value::Int(i), Value::Int(i % 50), Value::Int(i % 7)]))
            .collect();
        cat.register_table(
            "t1",
            Schema::ints(&["a", "b", "c"]),
            SortOrder::new(["a"]),
            &rows,
        )
        .unwrap();
        let mut by_b = rows.clone();
        by_b.sort_by(|x, y| x.get(1).cmp(y.get(1)));
        cat.register_table(
            "t2",
            Schema::ints(&["a", "b", "c"]),
            SortOrder::new(["b"]),
            &by_b,
        )
        .unwrap();
        cat
    }

    #[test]
    fn simple_scan_plan() {
        let cat = catalog();
        let mut p = LogicalPlan::new();
        p.scan_as("t1", "x");
        let plan = Optimizer::new(&cat).optimize(&p).unwrap();
        assert!(matches!(plan.root.op, PhysOp::ClusteredIndexScan { .. }));
        assert!(plan.cost() > 0.0);
    }

    #[test]
    fn empty_plan_is_a_typed_error() {
        let cat = catalog();
        let err = Optimizer::new(&cat)
            .optimize(&LogicalPlan::new())
            .unwrap_err();
        assert!(
            matches!(&err, PyroError::Plan(m) if m == "empty logical plan"),
            "{err}"
        );
    }

    #[test]
    fn order_by_on_clustering_is_free() {
        let cat = catalog();
        let mut p = LogicalPlan::new();
        let s = p.scan_as("t1", "x");
        p.order_by(s, SortOrder::new(["x.a"]));
        let plan = Optimizer::new(&cat).optimize(&p).unwrap();
        assert_eq!(
            plan.root
                .count_nodes(&|n| matches!(n.op, PhysOp::Sort { .. } | PhysOp::PartialSort { .. })),
            0,
            "clustering satisfies the ORDER BY:\n{}",
            plan.explain()
        );
    }

    #[test]
    fn order_by_extension_uses_partial_sort() {
        let cat = catalog();
        let mut p = LogicalPlan::new();
        let s = p.scan_as("t1", "x");
        p.order_by(s, SortOrder::new(["x.a", "x.b"]));
        let plan = Optimizer::new(&cat).optimize(&p).unwrap();
        assert_eq!(
            plan.root
                .count_nodes(&|n| matches!(n.op, PhysOp::PartialSort { prefix_len: 1, .. })),
            1,
            "{}",
            plan.explain()
        );
    }

    #[test]
    fn pyro_o_minus_never_partial_sorts() {
        let cat = catalog();
        let mut p = LogicalPlan::new();
        let s = p.scan_as("t1", "x");
        p.order_by(s, SortOrder::new(["x.a", "x.b"]));
        let plan = Optimizer::new(&cat)
            .with_strategy(Strategy::pyro_o_minus())
            .optimize(&p)
            .unwrap();
        assert_eq!(
            plan.root
                .count_nodes(&|n| matches!(n.op, PhysOp::PartialSort { .. })),
            0
        );
        assert_eq!(
            plan.root
                .count_nodes(&|n| matches!(n.op, PhysOp::Sort { .. })),
            1
        );
    }

    #[test]
    fn join_picks_merge_with_shared_order() {
        let cat = catalog();
        let mut p = LogicalPlan::new();
        let l = p.scan_as("t1", "l");
        let r = p.scan_as("t2", "r");
        p.join(l, r, vec![JoinPair::new("l.a", "r.a")]);
        let plan = Optimizer::new(&cat).optimize(&p).unwrap();
        // t1 clustered on a: merge join on (a) needs only the right side
        // sorted. Whatever wins must beat a double-full-sort.
        let has_join = plan
            .root
            .count_nodes(&|n| matches!(n.op, PhysOp::MergeJoin { .. } | PhysOp::HashJoin { .. }));
        assert_eq!(has_join, 1);
    }

    #[test]
    fn strategies_cost_ordering() {
        // PYRO-E explores a superset of candidates, so its plan can never
        // cost more than the others'.
        let cat = catalog();
        let mut p = LogicalPlan::new();
        let l = p.scan_as("t1", "l");
        let r = p.scan_as("t2", "r");
        let j = p.join(
            l,
            r,
            vec![JoinPair::new("l.a", "r.a"), JoinPair::new("l.b", "r.b")],
        );
        p.order_by(j, SortOrder::new(["l.a", "l.b"]));

        let cost = |s: Strategy| {
            Optimizer::new(&cat)
                .with_strategy(s)
                .optimize(&p)
                .unwrap()
                .cost()
        };
        let e = cost(Strategy::pyro_e());
        assert!(e <= cost(Strategy::pyro()) + 1e-6);
        assert!(e <= cost(Strategy::pyro_p()) + 1e-6);
        assert!(e <= cost(Strategy::pyro_o()) + 1e-6);
        assert!(e <= cost(Strategy::pyro_o_minus()) + 1e-6);
    }

    #[test]
    fn aggregate_chooses_sort_agg_on_clustered_input() {
        let cat = catalog();
        let mut p = LogicalPlan::new();
        let s = p.scan_as("t1", "x");
        p.aggregate(
            s,
            vec!["x.a"],
            vec![crate::logical::AggSpec {
                func: pyro_exec::agg::AggFunc::Count,
                arg: NExpr::col("x.b"),
                name: "cnt".into(),
            }],
        );
        let plan = Optimizer::new(&cat).optimize(&p).unwrap();
        assert_eq!(
            plan.root
                .count_nodes(&|n| matches!(n.op, PhysOp::SortAggregate { .. })),
            1,
            "clustered input makes the sort aggregate free:\n{}",
            plan.explain()
        );
        assert_eq!(
            plan.root
                .count_nodes(&|n| matches!(n.op, PhysOp::Sort { .. })),
            0
        );
    }

    #[test]
    fn memo_is_consulted() {
        let cat = catalog();
        let mut p = LogicalPlan::new();
        let l = p.scan_as("t1", "l");
        let r = p.scan_as("t1", "r");
        p.join(
            l,
            r,
            vec![
                JoinPair::new("l.a", "r.a"),
                JoinPair::new("l.b", "r.b"),
                JoinPair::new("l.c", "r.c"),
            ],
        );
        // Exhaustive on 3 attrs = 6 orders; should still be fast and
        // produce a valid plan.
        let plan = Optimizer::new(&cat)
            .with_strategy(Strategy::pyro_e())
            .optimize(&p)
            .unwrap();
        assert!(plan.cost() > 0.0);
    }

    /// Cost and search accounting of the written-order search on chains and
    /// stars of 2, 8 and 20 relations. The literals were recorded while a
    /// second enumerator still existed and agreed with this one number for
    /// number; a change to goal generation moves them.
    #[test]
    fn wide_chains_and_stars_keep_their_search_accounting() {
        // `edges[i]` names the (left, right) join columns linking relation
        // `i + 1` to the tree built so far.
        let check = |shape: &str,
                     tables: Vec<(String, Vec<String>)>,
                     edges: Vec<(String, String)>,
                     (cost, groups, candidates): (f64, u64, u64)| {
            let mut cat = Catalog::new();
            for (salt, (name, cols)) in tables.iter().enumerate() {
                let mut rows: Vec<Tuple> = (0..60usize)
                    .map(|r| {
                        Tuple::new(
                            (0..cols.len())
                                .map(|c| Value::Int(((r * (c + salt + 3)) % 97) as i64))
                                .collect(),
                        )
                    })
                    .collect();
                rows.sort();
                let names: Vec<&str> = cols.iter().map(String::as_str).collect();
                let clustering = SortOrder::new([cols[0].clone()]);
                cat.register_table(name, Schema::ints(&names), clustering, &rows)
                    .unwrap();
            }
            let mut p = LogicalPlan::new();
            let mut cur = p.scan_as(&tables[0].0, &tables[0].0);
            for ((name, _), (l, r)) in tables[1..].iter().zip(edges) {
                let next = p.scan_as(name, name);
                cur = p.join(cur, next, vec![JoinPair::new(l, r)]);
            }
            let plan = Optimizer::new(&cat)
                .with_join_enum_threshold(usize::MAX)
                .optimize(&p)
                .unwrap();
            let what = format!("{shape} n={}", tables.len());
            assert!((plan.cost() - cost).abs() < 1e-9, "{what}: {}", plan.cost());
            assert_eq!(plan.planning.groups, groups, "{what}: groups");
            assert_eq!(plan.planning.candidates, candidates, "{what}: candidates");
            assert_eq!(plan.planning.reordered_joins, 0, "{what}");
        };
        for (n, chain, star) in [
            (2usize, (2.004144134357365, 5, 8), (2.0006, 5, 8)),
            (8, (8.029008940501557, 29, 68), (8.02546480614419, 29, 68)),
            (
                20,
                (20.078738552789943, 77, 188),
                (22.075194418432577, 77, 188),
            ),
        ] {
            // Chain: t{i} carries x{i}, x{i+1} and joins its successor on x{i+1}.
            let tables = (0..n)
                .map(|i| {
                    (
                        format!("t{i}"),
                        vec![format!("x{i}"), format!("x{}", i + 1)],
                    )
                })
                .collect();
            let edges = (1..n)
                .map(|i| (format!("t{}.x{i}", i - 1), format!("t{i}.x{i}")))
                .collect();
            check("chain", tables, edges, chain);
            // Star: hub t0 carries one key per satellite t{i}.
            let mut tables = vec![("t0".to_string(), (1..n).map(|i| format!("k{i}")).collect())];
            tables
                .extend((1..n).map(|i| (format!("t{i}"), vec![format!("k{i}"), format!("s{i}")])));
            let edges = (1..n)
                .map(|i| (format!("t0.k{i}"), format!("t{i}.k{i}")))
                .collect();
            check("star", tables, edges, star);
        }
    }
}
