//! The typed result a [`crate::Session`] query returns.

use pyro_common::{Schema, Tuple};
use pyro_core::cache::PlanCacheStats;
use pyro_core::{OptimizedPlan, PlanningInfo, Strategy};
use pyro_exec::MetricsRef;
use std::time::Duration;

/// How this query's plan interacted with the session's plan cache: whether
/// this lookup was a hit, plus a snapshot of the cache's counters taken at
/// lookup time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlanCacheInfo {
    /// True iff the plan was served from the cache (planning was skipped).
    pub hit: bool,
    /// Cache counters (hits/misses/evictions/occupancy) after the lookup.
    pub stats: PlanCacheStats,
}

/// Everything one `Session::sql` round trip produced: the rows, their
/// schema, the execution counters, and the optimizer's view of the plan
/// that made them (estimated cost, strategy, printable tree).
///
/// ```
/// use pyro::{Session, SortOrder, common::Schema};
///
/// let mut session = Session::new();
/// session
///     .register_csv("t", Schema::ints(&["a"]), SortOrder::new(["a"]), "1\n2\n")
///     .unwrap();
/// let result = session.sql("SELECT a FROM t ORDER BY a").unwrap();
/// assert_eq!(result.len(), 2);
/// assert_eq!(result.schema().names(), ["t.a"]);
/// assert!(result.cost() >= 0.0);
/// assert!(result.explain().contains("plan"));
/// let rows = result.into_rows();
/// assert_eq!(rows[0].get(0).as_int(), Some(1));
/// ```
#[derive(Debug)]
pub struct QueryResult {
    pub(crate) rows: Vec<Tuple>,
    pub(crate) schema: Schema,
    pub(crate) metrics: MetricsRef,
    pub(crate) plan: OptimizedPlan,
    pub(crate) elapsed: Duration,
    pub(crate) plan_cache: Option<PlanCacheInfo>,
}

/// Renders a costed plan header + search line + tree — the `explain` text
/// both [`crate::Session::explain`] and [`QueryResult::explain`] return.
/// The search line reports how much of the plan space the search touched
/// and how many joins were re-shaped before it; planning wall-clock is deliberately *not*
/// rendered (it lives in [`QueryResult::planning`]) so equal plans explain
/// identically.
pub(crate) fn render_plan(plan: &OptimizedPlan) -> String {
    let p = &plan.planning;
    let mut search = format!("search: {} groups, {} candidates", p.groups, p.candidates);
    if p.reordered_joins > 0 {
        search.push_str(&format!(", {} joins reordered", p.reordered_joins));
    }
    format!(
        "{} plan, estimated cost {:.1} I/O units\n{search}\n{}",
        plan.strategy.name(),
        plan.cost(),
        plan.explain()
    )
}

impl QueryResult {
    /// The result rows, in stream order (sorted iff the query had an
    /// `ORDER BY`).
    pub fn rows(&self) -> &[Tuple] {
        &self.rows
    }

    /// Consumes the result, yielding the rows.
    pub fn into_rows(self) -> Vec<Tuple> {
        self.rows
    }

    /// Output schema (qualified column names).
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of rows returned.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True iff no rows were returned.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Execution counters (comparisons, sort-spill I/O) accumulated while
    /// producing these rows.
    pub fn metrics(&self) -> &MetricsRef {
        &self.metrics
    }

    /// The optimizer's estimated plan cost, in I/O units.
    pub fn cost(&self) -> f64 {
        self.plan.cost()
    }

    /// The interesting-order strategy that chose the plan.
    pub fn strategy(&self) -> Strategy {
        self.plan.strategy
    }

    /// The executed [`OptimizedPlan`], for structural inspection.
    pub fn plan(&self) -> &OptimizedPlan {
        &self.plan
    }

    /// How the plan was found: the search's memo group/candidate
    /// accounting, the joins re-shaped before it, and the planning
    /// wall-clock.
    /// A plan served from the plan cache reports the run that originally
    /// produced it (planning was skipped for this call —
    /// [`QueryResult::plan_cache`] says so).
    pub fn planning(&self) -> &PlanningInfo {
        &self.plan.planning
    }

    /// The executed physical plan, pretty-printed with its cost header —
    /// the same text [`crate::Session::explain`] returns. Rendered on
    /// demand, so results that are never explained pay nothing.
    pub fn explain(&self) -> String {
        render_plan(&self.plan)
    }

    /// Wall-clock execution time (compile + drain).
    pub fn elapsed(&self) -> Duration {
        self.elapsed
    }

    /// Plan-cache interaction for this query — `Some` iff the session runs
    /// with a plan cache ([`crate::SessionBuilder::plan_cache_entries`]).
    /// `info.hit` says whether planning was skipped for this very call;
    /// `info.stats` snapshots the cache counters at lookup time.
    pub fn plan_cache(&self) -> Option<&PlanCacheInfo> {
        self.plan_cache.as_ref()
    }
}
