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
//!
//! The search runs on attribute ids (see [`crate::ids`]): a statement's
//! names are resolved once into a `Ctx`, candidates are `Cand`s over
//! ids, and only the winning tree is rendered into a [`PhysNode`] in names.
//! A search interns each order it meets once and keeps its candidates in
//! one arena, so a memo probe or a new candidate allocates nothing.

use crate::compile::CompileOptions;
use crate::cost::{CostParams, SearchStats};
use crate::equiv::EquivMap;
use crate::favorable::{compute_afm, lcp_with_set_equiv, lcp_with_set_equiv_len};
use crate::ids::{resolve, AttrId, IdOrder, IdSet, Names, Node, OrderId, Orders};
use crate::joingraph::{collect_equivs, reorder_joins, EnumStrategy, DEFAULT_JOIN_ENUM_THRESHOLD};
use crate::logical::{project_schema, LogicalOp, LogicalPlan, NExpr, NodeId, ProjItem};
use crate::plan::{PhysNode, PhysOp};
use crate::seek::eq_prefix_len;
use crate::stats::{derive_stats, NodeStats};
use crate::strategy::Strategy;
use pyro_catalog::Catalog;
use pyro_common::hash::WordMap;
use pyro_common::{Column, PyroError, Result, Schema};
use pyro_exec::join::{JoinKind, Side};
use std::collections::HashMap;
use std::rc::Rc;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The optimizer facade.
pub struct Optimizer<'a> {
    catalog: &'a Catalog,
    strategy: Strategy,
    params: CostParams,
    enable_hash: bool,
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
            join_enum_threshold: DEFAULT_JOIN_ENUM_THRESHOLD,
        }
    }

    /// Selects a different interesting-order strategy.
    pub fn with_strategy(mut self, strategy: Strategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Overrides the cost model's CPU-translation constants (`cmp_io`,
    /// `tuple_io`, `hash_io`, ...). `block_size`, `sort_mem_blocks` and
    /// `buffer_pool_pages` keep the catalog's values, as [`Optimizer::new`]
    /// sets them: they are facts of the device, the sort budget and the
    /// pool, so estimates always describe the executor that runs.
    pub fn with_params(mut self, params: CostParams) -> Self {
        self.params = CostParams {
            block_size: self.params.block_size,
            sort_mem_blocks: self.params.sort_mem_blocks,
            buffer_pool_pages: self.params.buffer_pool_pages,
            ..params
        };
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

    /// Does nothing: [`EnumStrategy::Memo`] is the only enumerator. Kept
    /// only for the benchmark harness, and deleted by its next interface
    /// change (ROADMAP 20(b)).
    pub fn with_enum_strategy(self, _enum_strategy: EnumStrategy) -> Self {
        self
    }

    /// Inner-join region size (in leaf inputs) above which the region is
    /// re-shaped with the cardinality-free heuristic instead of planned in
    /// the given shape (default: [`DEFAULT_JOIN_ENUM_THRESHOLD`];
    /// `2` re-shapes every region of three or more inputs, `usize::MAX`
    /// never re-shapes).
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
        let reordered = reorder_joins(plan, self.catalog, self.join_enum_threshold)?;
        let (plan, reordered_joins) = match &reordered {
            Some((p, n)) => (p, *n),
            None => (plan, 0),
        };
        let ctx = Ctx::build(
            plan,
            self.catalog,
            self.strategy,
            self.params,
            self.enable_hash,
        )?;
        let (mut best, accounting) = Search::run(&ctx, HashMap::new())?;
        if self.strategy.refine {
            if let Some(forced) = crate::refine::reworked_orders(&ctx, &best) {
                // The re-search shares the statement's context; its pinned
                // orders, tables and accounting are its own, so the
                // accounting reported below is the first search's alone.
                let (refined, _) = Search::run(&ctx, forced)?;
                if refined.cost() < best.cost() {
                    best = refined;
                }
            }
        }
        let root = in_statement_order(ctx.render(&best, best.best)?, &ctx.schemas[plan.root()]);
        Ok(OptimizedPlan {
            root,
            strategy: self.strategy,
            planning: PlanningInfo {
                groups: accounting.groups,
                candidates: accounting.candidates,
                reordered_joins,
                elapsed: start.elapsed(),
            },
        })
    }
}

/// `root`, with a projection on top if its columns are the statement's in
/// another order: a covering index scan lists its key columns first, and
/// `SELECT *` has no projection of its own to restore the tables' order.
fn in_statement_order(root: Arc<PhysNode>, statement: &Schema) -> Arc<PhysNode> {
    fn names(s: &Schema) -> impl Iterator<Item = &str> {
        s.columns().iter().map(|c| &*c.name)
    }
    if names(&root.schema).eq(names(statement)) {
        return root;
    }
    let items = names(statement)
        .map(|name| ProjItem {
            expr: NExpr::Col(name.to_string()),
            name: name.to_string(),
        })
        .collect();
    Arc::new(PhysNode {
        op: PhysOp::Project { items },
        schema: statement.clone(),
        out_order: root.out_order.clone(),
        cost: root.cost,
        rows: root.rows,
        logical: root.logical,
        children: vec![root],
    })
}

/// How one plan was found: the search's enumeration accounting, the joins
/// re-shaped before it, and the planning wall-clock. Rides on every
/// [`OptimizedPlan`]; a plan served from the plan cache carries the info of
/// the run that originally produced it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlanningInfo {
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
    /// How the plan was found: search accounting, re-shaped joins,
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
    /// serial, 1024-row-batch instantiation).
    pub fn compile(
        &self,
        catalog: &Catalog,
        options: &CompileOptions,
    ) -> Result<pyro_exec::Pipeline> {
        crate::compile::compile(&self.root, catalog, options)
    }

    /// [`Self::compile`] with the options spelled out positionally; the
    /// last argument is ignored (scans always decode to columns). Kept only
    /// for the benchmark harness, and deleted by its next interface change
    /// (ROADMAP 20(b)); new code builds a [`CompileOptions`].
    pub fn compile_bound_columnar(
        &self,
        catalog: &Catalog,
        batch_size: usize,
        workers: usize,
        params: &[pyro_common::Value],
        _columnar: bool,
    ) -> Result<pyro_exec::Pipeline> {
        let options = CompileOptions {
            batch_size,
            workers,
            params,
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

/// A statement's derived context: everything the search reads, built once
/// per statement and shared by phase 1 and the phase-2 re-search.
pub(crate) struct Ctx<'a> {
    pub plan: &'a LogicalPlan,
    pub catalog: &'a Catalog,
    /// Every attribute name the statement can mention, under its id.
    pub names: Names,
    /// Each logical node's output schema.
    pub schemas: Vec<Schema>,
    /// Each logical node with its names resolved.
    pub nodes: Vec<Node>,
    pub stats: Vec<NodeStats>,
    pub afm: Vec<Rc<[IdOrder]>>,
    pub equiv: EquivMap,
    pub params: CostParams,
    pub strategy: Strategy,
    pub enable_hash: bool,
}

impl<'a> Ctx<'a> {
    pub(crate) fn build(
        plan: &'a LogicalPlan,
        catalog: &'a Catalog,
        strategy: Strategy,
        params: CostParams,
        enable_hash: bool,
    ) -> Result<Ctx<'a>> {
        let schemas =
            plan.schemas(|table, alias| Ok(catalog.table(table)?.meta.schema.qualify(alias)))?;
        let referenced_columns = plan.referenced_columns();
        // Every name the statement can mention: the columns scans,
        // projections and aggregates introduce (every other operator passes
        // its inputs' columns on) and every column an expression names.
        let introduced = (0..plan.len())
            .filter(|&id| {
                matches!(
                    plan.node(id),
                    LogicalOp::Scan { .. }
                        | LogicalOp::Project { .. }
                        | LogicalOp::Aggregate { .. }
                )
            })
            .flat_map(|id| schemas[id].columns());
        let names = Names::with_columns(introduced, referenced_columns.iter().copied());
        // Equivalences from join pairs and col=col equality filters.
        let equiv = collect_equivs(plan, &names);
        let nodes = resolve(plan, catalog, &names, &equiv, &schemas, &referenced_columns)?;
        let stats = derive_stats(plan, catalog, &schemas, &names)?;
        let afm = compute_afm(&nodes, &equiv);
        Ok(Ctx {
            plan,
            catalog,
            names,
            schemas,
            nodes,
            stats,
            afm,
            equiv,
            params,
            strategy,
            enable_hash,
        })
    }

    /// True iff `have` guarantees `need` (prefix under equivalence).
    fn satisfies(&self, have: &IdOrder, need: &IdOrder) -> bool {
        need.len() <= have.len()
            && need
                .attrs()
                .iter()
                .zip(have.attrs())
                .all(|(&n, &h)| self.equiv.same(n, h))
    }

    /// What it costs to deliver `have` as `required` on node `id`'s output:
    /// nothing when `have` already guarantees it, else a (partial) sort
    /// enforcer's cost and the length of the prefix it keeps (§3.2).
    fn enforcement(&self, id: NodeId, have: &IdOrder, required: &IdOrder) -> Option<(f64, usize)> {
        if required.is_empty() || self.satisfies(have, required) {
            return None;
        }
        let empty = IdOrder::empty();
        // Exact-match-only optimizers re-sort from scratch.
        let have = if self.strategy.partial_enforcers {
            have
        } else {
            &empty
        };
        Some(
            self.params
                .coe_order(&self.stats[id], have, required, |a, b| {
                    self.equiv.same(a, b)
                }),
        )
    }

    /// The candidate input orders for a sort aggregate over grouping set
    /// `l` — favorable orders
    /// and the requirement projected into the grouping columns, expanded by
    /// the strategy.
    fn grouping_goal_orders(&self, input: NodeId, l: &IdSet, required: &IdOrder) -> Vec<IdOrder> {
        let prefixes = self.afm[input].iter().map(|o| self.project_order(o, l));
        let prefixes = distinct_prefixes(prefixes.chain([self.project_order(required, l)]));
        self.strategy.candidate_orders(l, &prefixes)
    }

    /// Maps an order into the columns `cols` (longest prefix whose
    /// attributes are equivalent to members of `cols`, emitted as those
    /// members; of several members of one class, the largest).
    fn project_order(&self, order: &IdOrder, cols: &IdSet) -> IdOrder {
        let mut out = Vec::new();
        for &a in order.attrs() {
            let rep = self.equiv.rep(a);
            match cols.iter().rev().find(|&&c| self.equiv.rep(c) == rep) {
                Some(&c) if !out.contains(&c) => out.push(c),
                _ => break,
            }
        }
        IdOrder::new(out)
    }

    /// Renders the winning candidate tree of `found` into a [`PhysNode`]
    /// tree in names: the one place ids become strings again and operators
    /// take their payloads (tables, predicates, pairs, items, aggregates)
    /// from the logical plan.
    pub(crate) fn render(&self, found: &Found, at: CandId) -> Result<Arc<PhysNode>> {
        let c = found.cand(at);
        let children = c
            .children()
            .map(|child| self.render(found, child))
            .collect::<Result<Vec<_>>>()?;
        let id = c.logical;
        let out_order = self.names.names_of(found.orders.get(c.out_order));
        let order = || out_order.clone();
        let inherited = || children[0].schema.clone();
        let joined = || children[0].schema.join(&children[1].schema);
        let (op, schema) = match (&c.alt, self.plan.node(id)) {
            (Alt::Enforce(0), _) => (PhysOp::Sort { target: order() }, inherited()),
            (&Alt::Enforce(prefix_len), _) => (
                PhysOp::PartialSort {
                    prefix_len,
                    target: order(),
                },
                inherited(),
            ),
            (&Alt::Scan(path), LogicalOp::Scan { table, alias }) => {
                self.render_scan(id, path, table, alias)?
            }
            (Alt::Direct, LogicalOp::Filter { predicate, .. }) => (
                PhysOp::Filter {
                    predicate: predicate.clone(),
                },
                inherited(),
            ),
            (Alt::Direct, LogicalOp::Project { items, .. }) => (
                PhysOp::Project {
                    items: items.clone(),
                },
                project_schema(items, &children[0].schema),
            ),
            (Alt::Direct, LogicalOp::Limit { k, .. }) => (PhysOp::Limit { k: *k }, inherited()),
            (Alt::Sorted, LogicalOp::Join { kind, pairs, .. }) => (
                PhysOp::MergeJoin {
                    kind: *kind,
                    pairs: pairs.clone(),
                    order: order(),
                },
                joined(),
            ),
            (&Alt::Hashed(build), LogicalOp::Join { pairs, .. }) => (
                PhysOp::HashJoin {
                    pairs: pairs.clone(),
                    build,
                },
                joined(),
            ),
            (Alt::NestedLoops, LogicalOp::Join { kind, pairs, .. }) => (
                PhysOp::NestedLoopsJoin {
                    kind: *kind,
                    pairs: pairs.clone(),
                },
                joined(),
            ),
            (alt, LogicalOp::Aggregate { group_by, aggs, .. }) => {
                let (group_by, aggs) = (group_by.clone(), aggs.clone());
                let op = match alt {
                    Alt::Sorted => PhysOp::SortAggregate { group_by, aggs },
                    _ => PhysOp::HashAggregate { group_by, aggs },
                };
                (op, self.schemas[id].clone())
            }
            _ => unreachable!("a candidate implements the logical operator it was generated for"),
        };
        Ok(Arc::new(PhysNode {
            op,
            out_order,
            children,
            schema,
            cost: c.cost,
            rows: c.rows,
            logical: id,
        }))
    }

    /// A scan's operator and output schema for access path `path`.
    fn render_scan(
        &self,
        id: NodeId,
        path: usize,
        table: &str,
        alias: &str,
    ) -> Result<(PhysOp, Schema)> {
        let Node::Scan { paths, .. } = &self.nodes[id] else {
            unreachable!("a scan candidate's node is a scan");
        };
        let (table, alias) = (table.to_string(), alias.to_string());
        let Some(index) = paths[path].index else {
            let op = if paths[path].order.is_empty() {
                PhysOp::TableScan { table, alias }
            } else {
                PhysOp::ClusteredIndexScan { table, alias }
            };
            return Ok((op, self.schemas[id].clone()));
        };
        let handle = self.catalog.table(&table)?;
        let meta = &handle.meta;
        let idx = &meta.indexes[index];
        let schema = Schema::new(
            idx.entry_columns()
                .iter()
                .map(|c| {
                    let i = meta.schema.index_of(c)?;
                    Ok(Column::new(
                        format!("{alias}.{c}"),
                        meta.schema.column(i).ty,
                    ))
                })
                .collect::<Result<Vec<_>>>()?,
        );
        let index = idx.name.clone();
        Ok((
            PhysOp::CoveringIndexScan {
                table,
                alias,
                index,
            },
            schema,
        ))
    }
}

/// Sorted, deduplicated, non-empty favorable prefixes.
fn distinct_prefixes(prefixes: impl Iterator<Item = IdOrder>) -> Vec<IdOrder> {
    let mut out: Vec<IdOrder> = prefixes.filter(|o| !o.is_empty()).collect();
    out.sort();
    out.dedup();
    out
}

/// A candidate's position in its search's arena.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct CandId(u32);

/// A search candidate: one physical alternative for a logical node, over
/// ids. Its operator's payload stays in the logical plan until the winning
/// tree is rendered.
pub(crate) struct Cand {
    pub alt: Alt,
    /// Guaranteed output order.
    pub out_order: OrderId,
    /// Cumulative estimated cost.
    pub cost: f64,
    /// Estimated output rows.
    pub rows: f64,
    /// The logical node implemented (an enforcer's: the node it re-orders).
    pub logical: NodeId,
    /// Inputs: none, one, or left and right.
    inputs: [Option<CandId>; 2],
}

impl Cand {
    /// The candidate's inputs, left first.
    pub fn children(&self) -> impl Iterator<Item = CandId> + '_ {
        self.inputs.iter().flatten().copied()
    }
}

/// Which physical operator a candidate is.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Alt {
    /// A scan along the node's `i`-th access path.
    Scan(usize),
    /// The operator's one implementation: filter, projection, limit.
    Direct,
    /// Sort-based, over the candidate's output order: merge join, sort
    /// aggregate.
    Sorted,
    /// Hash-based: hash join building on the given side, hash aggregate
    /// (where the side means nothing).
    Hashed(Side),
    /// Nested-loops join.
    NestedLoops,
    /// A sort enforcer to the candidate's output order, partial when the
    /// given number of leading attributes is already ordered.
    Enforce(usize),
}

/// A finished search: every candidate it built, the orders they name, and
/// the winner.
pub(crate) struct Found<'c> {
    cands: Vec<Cand>,
    pub orders: Orders<'c>,
    pub best: CandId,
}

impl Found<'_> {
    /// The candidate at `id`.
    pub fn cand(&self, id: CandId) -> &Cand {
        &self.cands[id.0 as usize]
    }

    /// The winner's cost.
    fn cost(&self) -> f64 {
        self.cand(self.best).cost
    }
}

/// The cheapest candidate offered to one goal so far, with the enforcer
/// (cost, kept prefix) it needs, and how many were offered.
#[derive(Default)]
struct Offers {
    best: Option<(CandId, f64, Option<usize>)>,
    count: u64,
}

/// One goal-directed search over a statement's [`Ctx`]. The merge-join
/// orders it pins (phase 2 applies its reworked orders this way), its
/// tables and its accounting are its own. Every order it meets is interned
/// in `orders` and every candidate lives in `cands`, so a memo probe, a
/// goal list and a candidate allocate nothing once the statement's orders
/// are known.
struct Search<'c, 'a> {
    ctx: &'c Ctx<'a>,
    forced: HashMap<NodeId, IdOrder>,
    orders: Orders<'c>,
    cands: Vec<Cand>,
    /// Goal (node, rep-normalized required order) → best candidate.
    memo: WordMap<(NodeId, OrderId), CandId>,
    /// The sort-based operators' input goals, computed once per node and
    /// the part of the requirement they depend on (a join's `o ∧ S`, a
    /// grouping's requirement projected into its columns): a range of
    /// `goal_pool`, which holds a join's goals as (left, right) pairs.
    goal_lists: WordMap<(NodeId, OrderId), (usize, usize)>,
    goal_pool: Vec<OrderId>,
    /// The child goals of the goals being solved, innermost last: a solver
    /// pushes its list and truncates it away when done.
    goal_stack: Vec<OrderId>,
    stats: SearchStats,
}

impl<'c, 'a> Search<'c, 'a> {
    /// Searches from `(root, ε)` with the merge-join orders in `forced`
    /// pinned: the best plan and the search's accounting.
    fn run(ctx: &'c Ctx<'a>, forced: HashMap<NodeId, IdOrder>) -> Result<(Found<'c>, SearchStats)> {
        // Sized for a few goals and candidates per node, so that most
        // statements never grow them.
        let n = ctx.plan.len();
        let mut search = Search {
            ctx,
            forced,
            orders: Orders::new(&ctx.equiv),
            cands: Vec::with_capacity(8 * n),
            memo: WordMap::with_capacity_and_hasher(4 * n, Default::default()),
            goal_lists: WordMap::with_capacity_and_hasher(n, Default::default()),
            goal_pool: Vec::with_capacity(4 * n),
            goal_stack: Vec::with_capacity(4 * n),
            stats: SearchStats::default(),
        };
        let best = search.best_plan(ctx.plan.root(), Orders::EMPTY)?;
        let found = Found {
            cands: search.cands,
            orders: search.orders,
            best,
        };
        Ok((found, search.stats))
    }

    fn cand(&self, id: CandId) -> &Cand {
        &self.cands[id.0 as usize]
    }

    fn push(
        &mut self,
        alt: Alt,
        out_order: OrderId,
        cost: f64,
        rows: f64,
        logical: NodeId,
        inputs: [Option<CandId>; 2],
    ) -> CandId {
        let id = CandId(u32::try_from(self.cands.len()).expect("fewer than 2^32 candidates"));
        self.cands.push(Cand {
            alt,
            out_order,
            cost,
            rows,
            logical,
            inputs,
        });
        id
    }

    /// Offers candidate `cand` to goal `(id, required)`: it wins if it is
    /// strictly cheaper, enforcer included, than every earlier offer, so
    /// the first of equally cheap candidates is kept.
    fn offer(&self, offers: &mut Offers, id: NodeId, required: OrderId, cand: CandId) {
        offers.count += 1;
        let c = self.cand(cand);
        let have = self.orders.get(c.out_order);
        let (cost, enforcer) = match self.ctx.enforcement(id, have, self.orders.get(required)) {
            Some((coe, k)) => (c.cost + coe, Some(k)),
            None => (c.cost, None),
        };
        if offers.best.is_none_or(|(_, best, _)| cost < best) {
            offers.best = Some((cand, cost, enforcer));
        }
    }

    /// The memoized goal solver: cheapest plan for `(id, required)`.
    fn best_plan(&mut self, id: NodeId, required: OrderId) -> Result<CandId> {
        let key = (id, self.orders.norm(required));
        if let Some(&hit) = self.memo.get(&key) {
            return Ok(hit);
        }
        let mut offers = Offers::default();
        self.gen_candidates(id, required, &mut offers)?;
        self.stats.groups += 1;
        self.stats.candidates += offers.count;
        let Some((cand, cost, enforcer)) = offers.best else {
            return Err(PyroError::Plan(format!(
                "no physical plan for node {id} with order {}",
                self.ctx.names.names_of(self.orders.get(required))
            )));
        };
        let best = match enforcer {
            None => cand,
            Some(k) => {
                let rows = self.cand(cand).rows;
                self.push(
                    Alt::Enforce(k),
                    required,
                    cost,
                    rows,
                    id,
                    [Some(cand), None],
                )
            }
        };
        self.memo.insert(key, best);
        Ok(best)
    }

    /// Pushes the goals worth trying for an order-preserving unary
    /// operator's child onto the goal stack: the requirement itself,
    /// nothing, and each favorable order of the child (whose prefix a
    /// partial-sort enforcer above can exploit), each normalized form once.
    /// Returns where the list starts.
    fn push_child_goals(&mut self, child: NodeId, required: OrderId) -> usize {
        let start = self.goal_stack.len();
        self.push_goal(start, Orders::EMPTY);
        if required != Orders::EMPTY {
            self.push_goal(start, required);
        }
        for o in self.ctx.afm[child].iter() {
            let goal = self.orders.intern(o.attrs());
            self.push_goal(start, goal);
        }
        start
    }

    /// Pushes `goal` onto the list starting at `start` unless a goal with
    /// the same normalized form is on it.
    fn push_goal(&mut self, start: usize, goal: OrderId) {
        let norm = self.orders.norm(goal);
        let list = &self.goal_stack[start..];
        if !list.iter().any(|&g| self.orders.norm(g) == norm) {
            self.goal_stack.push(goal);
        }
    }

    /// Solves `input` under each goal [`Self::push_child_goals`] lists and
    /// offers an order-preserving unary operator over each answer, adding
    /// `per_row` per input row to its cost.
    fn offer_unary(
        &mut self,
        offers: &mut Offers,
        (id, input): (NodeId, NodeId),
        required: OrderId,
        child_required: OrderId,
        keep: impl Fn(&mut Orders, OrderId) -> OrderId,
        per_row: f64,
    ) -> Result<()> {
        let start = self.push_child_goals(input, child_required);
        let end = self.goal_stack.len();
        let (rows, in_rows) = (self.ctx.stats[id].rows, self.ctx.stats[input].rows);
        for at in start..end {
            let child = self.best_plan(input, self.goal_stack[at])?;
            let (child_order, child_cost) = (self.cand(child).out_order, self.cand(child).cost);
            let out_order = keep(&mut self.orders, child_order);
            let cost = child_cost + per_row * in_rows;
            let cand = self.push(Alt::Direct, out_order, cost, rows, id, [Some(child), None]);
            self.offer(offers, id, required, cand);
        }
        self.goal_stack.truncate(start);
        Ok(())
    }

    /// Enumerates the physical alternatives for one logical node and
    /// offers each to the goal.
    fn gen_candidates(&mut self, id: NodeId, required: OrderId, offers: &mut Offers) -> Result<()> {
        let ctx = self.ctx;
        let (rows, params) = (ctx.stats[id].rows, &ctx.params);
        match &ctx.nodes[id] {
            Node::Scan { paths, .. } => {
                for (i, path) in paths.iter().enumerate() {
                    let order = self.orders.intern(path.order.attrs());
                    let cand = self.push(Alt::Scan(i), order, path.blocks, rows, id, [None, None]);
                    self.offer(offers, id, required, cand);
                }
            }
            Node::Filter { input, pinned } => {
                let same = |_: &mut Orders, o| o;
                self.offer_unary(
                    offers,
                    (id, *input),
                    required,
                    required,
                    same,
                    params.tuple_io,
                )?;
                // A filter directly over a sorted-file scan compiles to a
                // binary-searched page range when the predicate pins an
                // equality prefix of the scan's order (the filter stays as
                // the residual — see `compile::compile_filter_child`). Offer
                // each access path again with the seek discount, so a
                // selective point predicate can pick the path it seeks on
                // even when that path loses on a full scan — typically the
                // covering index beating the clustered heap.
                if let Node::Scan { paths, .. } = &ctx.nodes[*input] {
                    let in_stats = &ctx.stats[*input];
                    for (i, path) in paths.iter().enumerate() {
                        let k = eq_prefix_len(pinned, path.order.attrs());
                        if k == 0 {
                            continue;
                        }
                        let sel = (1.0
                            / in_stats.distinct_of(path.order.attrs()[..k].iter().copied()))
                        .min(1.0);
                        // O(log P) opening-tuple probes, then the surviving pages.
                        let probes = path.blocks.max(2.0).log2().ceil();
                        let seek_cost = (path.blocks * sel + probes).max(1.0);
                        if seek_cost >= path.blocks {
                            continue; // the discount doesn't pay for the probes
                        }
                        let rows_in = (in_stats.rows * sel).max(1.0);
                        let order = self.orders.intern(path.order.attrs());
                        let bounded = self.push(
                            Alt::Scan(i),
                            order,
                            seek_cost,
                            rows_in,
                            *input,
                            [None, None],
                        );
                        let cost = seek_cost + params.tuple_io * rows_in;
                        let cand =
                            self.push(Alt::Direct, order, cost, rows, id, [Some(bounded), None]);
                        self.offer(offers, id, required, cand);
                    }
                }
            }
            Node::Project { input, kept } => {
                // Pass-through columns survive the projection; an order is
                // preserved up to its first dropped column.
                let keep = |orders: &mut Orders, o: OrderId| {
                    let n = orders.get(o).lcp_with_set_len(kept);
                    orders.prefix(o, n)
                };
                let child_required = keep(&mut self.orders, required);
                self.offer_unary(
                    offers,
                    (id, *input),
                    required,
                    child_required,
                    keep,
                    params.tuple_io,
                )?;
            }
            Node::Join {
                left,
                right,
                kind,
                pairs,
                reps,
            } => {
                let (left, right) = (*left, *right);
                let (l_stats, r_stats) = (&ctx.stats[left], &ctx.stats[right]);
                let (start, end) = self.join_merge_goals(id, left, right, pairs, reps, required);
                for at in (start..end).step_by(2) {
                    let (l_goal, r_goal) = (self.goal_pool[at], self.goal_pool[at + 1]);
                    let lchild = self.best_plan(left, l_goal)?;
                    let rchild = self.best_plan(right, r_goal)?;
                    let cost = self.cand(lchild).cost
                        + self.cand(rchild).cost
                        + params.tuple_io * (l_stats.rows + r_stats.rows);
                    let inputs = [Some(lchild), Some(rchild)];
                    let cand = self.push(Alt::Sorted, l_goal, cost, rows, id, inputs);
                    self.offer(offers, id, required, cand);
                }
                // Full outer joins are merge-only: none of the systems the
                // paper measured implemented hash (or nested-loops) full
                // outer joins — SYS2 had to rewrite FO joins as a union of
                // two left outer joins — and the coordinated-order findings
                // of Experiment B2 rest on that reality. Hash joins are
                // inner only: a left outer join is merged or nested.
                if !self.forced.contains_key(&id)
                    && ctx.enable_hash
                    && !matches!(kind, JoinKind::FullOuter)
                {
                    let lchild = self.best_plan(left, Orders::EMPTY)?;
                    let rchild = self.best_plan(right, Orders::EMPTY)?;
                    let (l, r) = (self.cand(lchild), self.cand(rchild));
                    let (l_order, r_order) = (l.out_order, r.out_order);
                    let (bl, br) = (
                        l_stats.blocks(params.block_size),
                        r_stats.blocks(params.block_size),
                    );
                    let inputs_cost = l.cost + r.cost;
                    let hash_cost = inputs_cost + params.hash_io * (l_stats.rows + r_stats.rows);
                    // Hash join, one candidate per build side. `best_plan`
                    // keeps the first of equally cheap candidates, so the
                    // side offered first is the tie-break: the smaller
                    // input, else the written (left) one.
                    let sides: &[Side] = match kind {
                        JoinKind::Inner if br < bl => &[Side::Right, Side::Left],
                        JoinKind::Inner => &[Side::Left, Side::Right],
                        _ => &[],
                    };
                    let inputs = [Some(lchild), Some(rchild)];
                    for &build in sides {
                        let (build_blocks, probe_order) = match build {
                            Side::Left => (bl, r_order),
                            Side::Right => (br, l_order),
                        };
                        // Against an in-memory table the probe child
                        // streams through, each row followed by its matches,
                        // so the join hands the probe order on, like nested
                        // loops. A table over the budget is grace
                        // partitioned — a round trip of both inputs, which
                        // scatters the probe order.
                        let (cost, out_order) = match build_blocks <= params.sort_mem_blocks {
                            true => (hash_cost, probe_order),
                            false => (hash_cost + 2.0 * (bl + br), Orders::EMPTY),
                        };
                        let cand = self.push(Alt::Hashed(build), out_order, cost, rows, id, inputs);
                        self.offer(offers, id, required, cand);
                    }
                    // Nested loops: propagates the outer (left) order — the
                    // property afm rule 4 relies on.
                    let nl_cost = inputs_cost + params.cmp_io * l_stats.rows * r_stats.rows;
                    let cand = self.push(Alt::NestedLoops, l_order, nl_cost, rows, id, inputs);
                    self.offer(offers, id, required, cand);
                }
            }
            // A sort aggregate over grouping set `cols` (a DISTINCT groups
            // on every column): any permutation of `cols` works for the
            // streaming implementation — the same factorial space as merge
            // joins (paper §1). It charges `tuple_io` per input row and no
            // comparisons, as the executor counts none (`cost::CostParams`).
            Node::Aggregate { input, group: cols } => {
                let in_stats = &ctx.stats[*input];
                let (start, end) = self.grouping_goals(id, *input, cols, required);
                for at in start..end {
                    let q = self.goal_pool[at];
                    let child = self.best_plan(*input, q)?;
                    let cost = self.cand(child).cost + params.tuple_io * in_stats.rows;
                    let cand = self.push(Alt::Sorted, q, cost, rows, id, [Some(child), None]);
                    self.offer(offers, id, required, cand);
                }
                if ctx.enable_hash {
                    let child = self.best_plan(*input, Orders::EMPTY)?;
                    let b_in = in_stats.blocks(params.block_size);
                    let mut cost = self.cand(child).cost + params.hash_io * in_stats.rows;
                    if b_in > params.sort_mem_blocks {
                        cost += 2.0 * b_in;
                    }
                    let alt = Alt::Hashed(Side::Left);
                    let cand = self.push(alt, Orders::EMPTY, cost, rows, id, [Some(child), None]);
                    self.offer(offers, id, required, cand);
                }
            }
            Node::Sort { input, order } => {
                // The ORDER BY is itself a goal: delegate to the child with
                // the target order; enforcement happens inside `best_plan`.
                let order = self.orders.intern(order.attrs());
                let cand = self.best_plan(*input, order)?;
                self.offer(offers, id, required, cand);
            }
            Node::Limit { input } => {
                // Order-preserving; the requirement flows through. A fully
                // pipelined child would let LIMIT terminate early, but
                // costing partial evaluation is out of scope — we keep the
                // child's cost (nothing per row).
                let same = |_: &mut Orders, o| o;
                self.offer_unary(offers, (id, *input), required, required, same, 0.0)?;
            }
        }
        Ok(())
    }

    /// The range of `goal_pool` holding grouping node `id`'s input orders
    /// over grouping set `cols` under `required`, computed on first use.
    fn grouping_goals(
        &mut self,
        id: NodeId,
        input: NodeId,
        cols: &IdSet,
        required: OrderId,
    ) -> (usize, usize) {
        let ctx = self.ctx;
        let projected = ctx.project_order(self.orders.get(required), cols);
        let key = (id, self.orders.intern(projected.attrs()));
        if let Some(&range) = self.goal_lists.get(&key) {
            return range;
        }
        let start = self.goal_pool.len();
        for q in ctx.grouping_goal_orders(input, cols, &projected) {
            let q = self.orders.intern(q.attrs());
            self.goal_pool.push(q);
        }
        let range = (start, self.goal_pool.len());
        self.goal_lists.insert(key, range);
        range
    }

    /// The range of `goal_pool` holding the merge-join goal pairs
    /// `(left goal, right goal)` for join `id` over join attribute set `s`
    /// — one per candidate interesting order, with each representative
    /// mapped back to concrete pair columns so the goals resolve on both
    /// sides. They depend on the requirement only through `o ∧ S`, so they
    /// are computed once per distinct `o ∧ S`.
    fn join_merge_goals(
        &mut self,
        id: NodeId,
        left: NodeId,
        right: NodeId,
        pairs: &[(AttrId, AttrId)],
        s: &IdSet,
        required: OrderId,
    ) -> (usize, usize) {
        let ctx = self.ctx;
        let n = lcp_with_set_equiv_len(self.orders.get(required), s, &ctx.equiv);
        let required_s = self.orders.prefix(self.orders.norm(required), n);
        if let Some(&range) = self.goal_lists.get(&(id, required_s)) {
            return range;
        }
        // Favorable prefixes: afm(el, S) ∪ afm(er, S) ∪ {o ∧ S}.
        let prefixes = ctx.afm[left]
            .iter()
            .chain(ctx.afm[right].iter())
            .map(|o| lcp_with_set_equiv(o, s, &ctx.equiv))
            .chain([self.orders.get(required_s).clone()]);
        let orders = match self.forced.get(&id) {
            Some(o) => vec![o.clone()],
            None => ctx
                .strategy
                .candidate_orders(s, &distinct_prefixes(prefixes)),
        };
        // Each representative resolves to the last pair written in its
        // class.
        let pair_of = |rep: AttrId| {
            pairs
                .iter()
                .rev()
                .find(|&&(l, _)| ctx.equiv.rep(l) == rep)
                .copied()
        };
        let start = self.goal_pool.len();
        let mut side = Vec::new();
        for p in &orders {
            if p.attrs().iter().any(|&a| pair_of(a).is_none()) {
                continue;
            }
            for pick in [|(l, _)| l, |(_, r)| r] {
                side.clear();
                // One column can answer two classes (`l1 = r AND l2 = r`,
                // where `l1` and `l2` share a table): it is sorted on once.
                for a in p.attrs().iter().filter_map(|&a| pair_of(a).map(pick)) {
                    if !side.contains(&a) {
                        side.push(a);
                    }
                }
                let goal = self.orders.intern(&side);
                self.goal_pool.push(goal);
            }
        }
        let range = (start, self.goal_pool.len());
        self.goal_lists.insert((id, required_s), range);
        range
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::logical::{JoinPair, NExpr};
    use pyro_common::{Tuple, Value};
    use pyro_ordering::SortOrder;

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
