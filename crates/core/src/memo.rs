//! Memo-based bottom-up plan enumeration.
//!
//! The legacy search (`crate::optimizer::best_plan`) is a top-down
//! recursion over optimization goals `(node, required order)` with a memo
//! table keyed by the goal (orders rep-normalized through the
//! [`crate::equiv::EquivMap`], so equivalent orders share one memo group).
//! Because each goal's answer is a pure function of the goal — candidates,
//! enforcer placement and tie-breaking never depend on *when* a goal is
//! solved — the memo can equally be filled **bottom-up**: collect the goal
//! closure once (phase A), then solve goals in arena order, children
//! before parents, so every recursive lookup is a memo hit (phase B). The
//! two traversals provably choose identical plans, costs and counters;
//! what the bottom-up pass adds is *accounting* (group/candidate totals,
//! see [`crate::cost::SearchStats`]) and a place to **bound** the
//! interesting-order set per memo group: phase A caps the non-ε goals it
//! collects per node at [`Optimizer::with_interesting_cap`]
//! (default [`DEFAULT_INTERESTING_ORDER_CAP`]); goals beyond the cap are
//! simply not prefilled — the on-demand recursion still solves them
//! exactly — and the truncation is counted so a pathological ORDER BY
//! fan-out is visible instead of silent.
//!
//! [`Optimizer::with_interesting_cap`]: crate::optimizer::Optimizer::with_interesting_cap

use crate::logical::NodeId;
use crate::optimizer::{best_plan, child_goal_requests, Ctx};
use pyro_common::{PyroError, Result};
use pyro_ordering::SortOrder;
use std::collections::HashSet;

/// Default for the `join_enum_threshold` knob: inner-join regions with
/// more leaves than this are re-shaped by the cardinality-free heuristic
/// before the order-aware search runs. The default sits above every
/// workload in the paper's figures, so their plans are untouched.
pub const DEFAULT_JOIN_ENUM_THRESHOLD: usize = 8;

/// Default cap on non-ε interesting orders collected per memo group
/// during the bottom-up prefill (phase A).
pub const DEFAULT_INTERESTING_ORDER_CAP: usize = 64;

/// How the optimizer enumerates the plan space. Orthogonal to the paper's
/// interesting-order [`crate::strategy::Strategy`]: every enumerator runs
/// the same goal solver with the same candidate orders.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum EnumStrategy {
    /// The legacy top-down recursion, exactly as earlier releases: plans
    /// on demand, never re-shapes joins.
    Exhaustive,
    /// Bottom-up memo prefill with the interesting-order cap, plus the
    /// cardinality-free join re-shape for inner-join regions above the
    /// `join_enum_threshold` knob. At or below the threshold the chosen
    /// plans, costs and paper counters are identical to [`Exhaustive`]'s.
    ///
    /// [`Exhaustive`]: EnumStrategy::Exhaustive
    #[default]
    Memo,
    /// Forces the cardinality-free re-shape for *every* inner-join region
    /// of three or more leaves (then enumerates like [`Memo`]) — the
    /// Simpli-Squared-style fallback for plans too large to enumerate in
    /// the given shape.
    ///
    /// [`Memo`]: EnumStrategy::Memo
    Heuristic,
}

impl EnumStrategy {
    /// All enumerators, for benches and tests.
    pub fn all() -> [EnumStrategy; 3] {
        [
            EnumStrategy::Exhaustive,
            EnumStrategy::Memo,
            EnumStrategy::Heuristic,
        ]
    }

    /// CLI/config name.
    pub fn name(&self) -> &'static str {
        match self {
            EnumStrategy::Exhaustive => "exhaustive",
            EnumStrategy::Memo => "memo",
            EnumStrategy::Heuristic => "heuristic",
        }
    }

    /// Parses a CLI/config name.
    pub fn from_name(name: &str) -> Result<EnumStrategy> {
        match name.to_ascii_lowercase().as_str() {
            "exhaustive" => Ok(EnumStrategy::Exhaustive),
            "memo" => Ok(EnumStrategy::Memo),
            "heuristic" => Ok(EnumStrategy::Heuristic),
            _ => Err(PyroError::Plan(format!(
                "unknown enum strategy {name:?} (expected exhaustive, memo or heuristic)"
            ))),
        }
    }
}

impl std::fmt::Display for EnumStrategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Fills the memo bottom-up for the goal closure of `(root, required)`.
///
/// Phase A walks the goal graph top-down — using the *same* goal
/// generation the candidate enumerator uses, so the closure is exactly
/// the set of goals the recursive search would solve — deduplicating
/// goals under rep-normalization and capping non-ε goals per node at
/// `ctx.interesting_cap` (ε is always kept; overflow is counted in
/// `SearchStats::truncated`). Phase B then solves the collected goals in
/// ascending arena order; the arena guarantees children precede parents,
/// so each `best_plan` call bottoms out in memo hits.
pub(crate) fn prefill(ctx: &Ctx, root: NodeId, required: &SortOrder) -> Result<()> {
    let n = ctx.plan.len();
    let mut goals: Vec<Vec<SortOrder>> = vec![Vec::new(); n];
    let mut non_eps: Vec<usize> = vec![0; n];
    let mut seen: HashSet<(NodeId, Vec<String>)> = HashSet::new();
    let mut truncated = 0u64;
    let mut stack: Vec<(NodeId, SortOrder)> = vec![(root, required.clone())];
    while let Some((id, req)) = stack.pop() {
        if !seen.insert(ctx.memo_key(id, &req)) {
            continue;
        }
        if !req.is_empty() {
            if non_eps[id] >= ctx.interesting_cap {
                // Not prefilled: the on-demand recursion solves it exactly
                // when (and if) a parent actually asks.
                truncated += 1;
                continue;
            }
            non_eps[id] += 1;
        }
        for goal in child_goal_requests(ctx, id, &req)? {
            stack.push(goal);
        }
        goals[id].push(req);
    }
    ctx.search.borrow_mut().truncated += truncated;
    for (id, reqs) in goals.iter().enumerate() {
        for req in reqs {
            best_plan(ctx, id, req)?;
        }
    }
    Ok(())
}
