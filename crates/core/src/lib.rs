//! # pyro-core — the PYRO optimizer
//!
//! A Volcano-style cost-based optimizer implementing the contributions of
//! *"Reducing Order Enforcement Cost in Complex Query Plans"*:
//!
//! * **Partial sort enforcers** (§3.2): when a physical alternative
//!   guarantees a strict prefix `o' < o` of the required order, the
//!   optimizer inserts a partial-sort enforcer costed with
//!   `coe(e, o1, o2) = D(e, attrs(o2 ∧ o1)) · coe(σ(e), ε, o2 − o2∧o1)`.
//! * **Favorable orders** (§5.1): `afm(e)`, the approximate minimal
//!   favorable-order set, computed bottom-up from clustering orders,
//!   covering indices and operator propagation rules.
//! * **Interesting-order strategies** (§5.2.1, §6.2): the five contenders of
//!   the paper's Experiment B3 — `PYRO` (arbitrary), `PYRO-O−` (favorable,
//!   exact-match only), `PYRO-P` (the PostgreSQL heuristic), `PYRO-O`
//!   (favorable + partial sorts) and `PYRO-E` (exhaustive) — as one
//!   pluggable [`Strategy`].
//! * **Plan refinement** (§5.2.2 / §4.2): a post-optimization phase that
//!   reworks the *free attributes* of adjacent merge joins with the
//!   2-approximate tree algorithm so they share sort-order prefixes.
//! * **Wide joins** (beyond the paper): an explicit join graph
//!   ([`joingraph`]) and a cardinality-free big-join re-shape gated by the
//!   `join_enum_threshold` knob, run before the one memoized search — see
//!   `DESIGN.md` §13.
//!
//! Entry point: [`Optimizer`]. Logical plans are built with
//! [`logical::LogicalPlan`] (or via `pyro-sql`), optimized into a
//! [`plan::PhysNode`] tree, and compiled into runnable `pyro-exec` pipelines
//! with [`compile::compile`].

pub mod cache;
pub mod compile;
pub mod cost;
pub mod equiv;
pub mod favorable;
pub mod ids;
pub mod joingraph;
pub mod logical;
pub mod optimizer;
mod parallel;
pub mod plan;
pub mod refine;
mod seek;
pub mod stats;
pub mod strategy;

pub use cache::{CachedStatement, PlanCache, PlanCacheStats, PlanKey};
pub use compile::CompileOptions;
pub use cost::SearchStats;
pub use joingraph::EnumStrategy;
pub use logical::{AggSpec, JoinPair, LogicalPlan, NExpr, NodeId, ProjItem};
pub use optimizer::{OptimizedPlan, Optimizer, PlanningInfo};
pub use plan::{PhysNode, PhysOp};
pub use strategy::Strategy;
