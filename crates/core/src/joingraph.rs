//! Join-graph extraction and cardinality-free join reordering.
//!
//! The paper optimizes sort-order choices over a *fixed* join shape (§1);
//! its fig16 experiment shows how that search behaves as plans grow. This
//! module is the scalability complement: it pulls the join predicates out
//! of a [`LogicalPlan`] into an explicit graph — maximal regions of
//! directly-nested inner joins, their leaf inputs, and the equality edges
//! between leaves — so the optimizer can (a) derive its attribute
//! equivalences from one place and (b) re-shape oversized regions with a
//! *Simpli-Squared*-style heuristic that needs no cardinality estimates:
//! join connectedness alone picks a left-deep order (densest-connected
//! leaf first, then greedily the leaf sharing the most join pairs with the
//! tree built so far). A pass-through projection restores the region's
//! original column order, so nothing above the region can tell the shape
//! changed.
//!
//! Reordering is gated by the `join_enum_threshold` knob
//! ([`DEFAULT_JOIN_ENUM_THRESHOLD`]; 2 re-shapes every region it can
//! improve): regions at or below the threshold keep the given shape and
//! therefore the exact plans, costs and counters of the unreordered search.

use crate::equiv::EquivMap;
use crate::ids::{AttrId, Names};
use crate::logical::{JoinPair, LogicalOp, LogicalPlan, NExpr, NodeId, ProjItem};
use pyro_catalog::Catalog;
use pyro_common::{Result, Schema};
use pyro_exec::join::JoinKind;
use pyro_exec::CmpOp;
use std::collections::HashMap;

/// Collects attribute equivalences from a plan's join pairs and
/// column-equality filter conjuncts — the single source the optimizer,
/// favorable-order computation and refinement all share. Every column the
/// plan's expressions name must be in `names`.
///
/// An equality holds only above the operator that enforces it, while
/// orders are compared by class everywhere. So two columns of one table
/// never share a class (below the join, the table's rows need not have
/// them equal), and a full outer join's pairs make no class (its padded
/// rows have them differ); such equalities are still enforced, they just
/// do not stand in for each other in orders.
pub fn collect_equivs(plan: &LogicalPlan, names: &Names) -> EquivMap {
    let mut equiv = EquivMap::new(names.len());
    let table = |id: AttrId| names.name(id).split_once('.').map(|(t, _)| t);
    let mut union = |a: &str, b: &str| {
        let (a, b) = (names.id(a), names.id(b));
        let n = names.len();
        let shares_table = !equiv.same(a, b)
            && class(&equiv, n, a)
                .any(|x| table(x).is_some() && class(&equiv, n, b).any(|y| table(x) == table(y)));
        if !shares_table {
            equiv.union(a, b);
        }
    };
    for id in 0..plan.len() {
        match plan.node(id) {
            LogicalOp::Join {
                kind: JoinKind::FullOuter,
                ..
            } => {}
            LogicalOp::Join { pairs, .. } => {
                for p in pairs {
                    union(&p.left, &p.right);
                }
            }
            LogicalOp::Filter { predicate, .. } => collect_filter_equivs(predicate, &mut union),
            _ => {}
        }
    }
    equiv
}

/// The members of `of`'s class among the first `n` attributes.
fn class(equiv: &EquivMap, n: usize, of: AttrId) -> impl Iterator<Item = AttrId> + '_ {
    let of = equiv.rep(of);
    (0..n as u32)
        .map(AttrId)
        .filter(move |&m| equiv.rep(m) == of)
}

fn collect_filter_equivs(pred: &NExpr, union: &mut impl FnMut(&str, &str)) {
    match pred {
        NExpr::And(terms) => {
            for t in terms {
                collect_filter_equivs(t, union);
            }
        }
        NExpr::Cmp(CmpOp::Eq, a, b) => {
            if let (NExpr::Col(x), NExpr::Col(y)) = (a.as_ref(), b.as_ref()) {
                union(x, y);
            }
        }
        _ => {}
    }
}

/// One edge of a region's join graph: the equality pairs connecting two
/// leaves. Pairs are stored oriented — `pair.left` is a column of
/// `leaves[a]`, `pair.right` of `leaves[b]`.
#[derive(Debug, Clone)]
pub struct JoinEdge {
    /// Leaf index of one endpoint (the side `pair.left` columns live on).
    pub a: usize,
    /// Leaf index of the other endpoint.
    pub b: usize,
    /// Equality pairs between the two leaves.
    pub pairs: Vec<JoinPair>,
}

/// A maximal subtree of directly-nested **inner** joins: its non-join leaf
/// inputs and the equality edges between them. This is the unit the
/// reordering heuristic may re-shape — outer joins, and anything beneath a
/// leaf, are never touched.
#[derive(Debug, Clone)]
pub struct JoinRegion {
    /// The region's topmost join node in the source plan.
    pub root: NodeId,
    /// Leaf inputs in original in-order (left-to-right) position, so the
    /// concatenation of their schemas is the region root's schema.
    pub leaves: Vec<NodeId>,
    /// The join nodes forming the region.
    pub joins: Vec<NodeId>,
    /// Leaf-to-leaf equality edges.
    pub edges: Vec<JoinEdge>,
    /// Region root output column names (original order) — what a
    /// restoring projection must re-emit after a re-shape.
    pub columns: Vec<String>,
    /// False when some join pair could not be attributed to exactly two
    /// distinct leaves (the heuristic then leaves the region alone).
    pub well_formed: bool,
}

/// The join graph of a plan: every maximal inner-join region.
#[derive(Debug, Clone)]
pub struct JoinGraph {
    /// Regions in discovery order (outermost-first tree walk from the
    /// root).
    pub regions: Vec<JoinRegion>,
}

fn is_inner_join(plan: &LogicalPlan, id: NodeId) -> bool {
    matches!(
        plan.node(id),
        LogicalOp::Join {
            kind: JoinKind::Inner,
            ..
        }
    )
}

impl JoinGraph {
    /// Extracts every maximal inner-join region reachable from the plan
    /// root. `catalog` resolves base-table schemas so join pairs can be
    /// attributed to the leaf whose output contains each column.
    pub fn extract(plan: &LogicalPlan, catalog: &Catalog) -> Result<JoinGraph> {
        let schemas =
            plan.schemas(|table, alias| Ok(catalog.table(table)?.meta.schema.qualify(alias)))?;
        let mut regions = Vec::new();
        let mut stack = vec![plan.root()];
        while let Some(id) = stack.pop() {
            if is_inner_join(plan, id) {
                let region = extract_region(plan, id, &schemas);
                // Continue the walk *below* the region's leaves.
                stack.extend(region.leaves.iter().copied());
                regions.push(region);
            } else {
                stack.extend(plan.children(id));
            }
        }
        Ok(JoinGraph { regions })
    }
}

/// Collects one region rooted at inner-join `root`: leaves in in-order
/// position, member joins, and per-leaf-pair equality edges.
fn extract_region(plan: &LogicalPlan, root: NodeId, schemas: &[Schema]) -> JoinRegion {
    let mut leaves = Vec::new();
    let mut joins = Vec::new();
    collect_region(plan, root, &mut leaves, &mut joins);
    let leaf_schemas: Vec<&Schema> = leaves.iter().map(|&l| &schemas[l]).collect();
    let columns: Vec<String> = leaf_schemas.iter().flat_map(|s| s.names()).collect();
    let leaf_of = |col: &str| leaf_schemas.iter().position(|s| s.contains(col));
    let mut edges: Vec<JoinEdge> = Vec::new();
    let mut well_formed = true;
    for &j in &joins {
        let LogicalOp::Join { pairs, .. } = plan.node(j) else {
            unreachable!("region joins are Join nodes");
        };
        for p in pairs {
            let (Some(la), Some(lb)) = (leaf_of(&p.left), leaf_of(&p.right)) else {
                well_formed = false;
                continue;
            };
            if la == lb {
                well_formed = false;
                continue;
            }
            // Normalize the endpoint order so one edge collects every pair
            // between the same two leaves; orient the pair to match.
            let (a, b, pair) = if la < lb {
                (la, lb, p.clone())
            } else {
                (lb, la, JoinPair::new(p.right.clone(), p.left.clone()))
            };
            match edges.iter_mut().find(|e| e.a == a && e.b == b) {
                Some(e) => e.pairs.push(pair),
                None => edges.push(JoinEdge {
                    a,
                    b,
                    pairs: vec![pair],
                }),
            }
        }
    }
    JoinRegion {
        root,
        leaves,
        joins,
        edges,
        columns,
        well_formed,
    }
}

/// In-order walk of the maximal inner-join subtree under `id`.
fn collect_region(
    plan: &LogicalPlan,
    id: NodeId,
    leaves: &mut Vec<NodeId>,
    joins: &mut Vec<NodeId>,
) {
    if let LogicalOp::Join {
        left,
        right,
        kind: JoinKind::Inner,
        ..
    } = plan.node(id)
    {
        joins.push(id);
        collect_region(plan, *left, leaves, joins);
        collect_region(plan, *right, leaves, joins);
    } else {
        leaves.push(id);
    }
}

impl JoinRegion {
    /// Total join pairs incident on each leaf — the "connectedness" the
    /// cardinality-free heuristic ranks by.
    fn degrees(&self) -> Vec<usize> {
        let mut deg = vec![0usize; self.leaves.len()];
        for e in &self.edges {
            deg[e.a] += e.pairs.len();
            deg[e.b] += e.pairs.len();
        }
        deg
    }

    /// The greedy left-deep leaf order: start from the most-connected leaf
    /// (ties: lowest original position), then repeatedly append the
    /// unjoined leaf sharing the most join pairs with the tree built so
    /// far. Returns `None` when the region's join graph is disconnected
    /// (a cross join would be required).
    pub fn greedy_order(&self) -> Option<Vec<usize>> {
        let n = self.leaves.len();
        if n == 0 {
            return None;
        }
        let deg = self.degrees();
        let start = (0..n).max_by_key(|&i| (deg[i], std::cmp::Reverse(i)))?;
        let mut joined = vec![false; n];
        joined[start] = true;
        let mut order = vec![start];
        for _ in 1..n {
            let next = (0..n)
                .filter(|&i| !joined[i])
                .map(|i| {
                    let connecting: usize = self
                        .edges
                        .iter()
                        .filter(|e| (e.a == i && joined[e.b]) || (e.b == i && joined[e.a]))
                        .map(|e| e.pairs.len())
                        .sum();
                    (connecting, i)
                })
                .filter(|&(c, _)| c > 0)
                .max_by_key(|&(c, i)| (c, std::cmp::Reverse(i)))?;
            joined[next.1] = true;
            order.push(next.1);
        }
        Some(order)
    }

    /// The leaf sequence of the original tree when it is already left-deep
    /// (every right child a leaf); `None` for bushy shapes. Used to skip
    /// re-shapes that would rebuild the identical tree.
    fn left_deep_sequence(&self, plan: &LogicalPlan) -> Option<Vec<usize>> {
        let mut seq = Vec::new();
        let mut id = self.root;
        loop {
            let LogicalOp::Join { left, right, .. } = plan.node(id) else {
                unreachable!("region root is a Join");
            };
            let right_leaf = self.leaves.iter().position(|&l| l == *right)?;
            seq.push(right_leaf);
            match self.leaves.iter().position(|&l| l == *left) {
                Some(p) => {
                    seq.push(p);
                    seq.reverse();
                    return Some(seq);
                }
                None => id = *left,
            }
        }
    }
}

/// Default for the `join_enum_threshold` knob: inner-join regions with
/// more leaves than this are re-shaped by the cardinality-free heuristic
/// before the order-aware search runs. The default sits above every
/// workload in the paper's figures, so their plans are untouched.
pub const DEFAULT_JOIN_ENUM_THRESHOLD: usize = 8;

/// The one plan-space enumerator: the memoized search over the written
/// join shape, after [`reorder_joins`] re-shapes the regions above the
/// `join_enum_threshold`. Kept only for the benchmark harness, and deleted
/// by its next interface change (ROADMAP 20(b)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EnumStrategy {
    /// The memoized search.
    Memo,
}

/// Rebuilds `plan` with every well-formed, connected inner-join region of
/// more than `threshold` leaves re-shaped into the greedy left-deep order,
/// wrapped in a pass-through projection restoring the original column
/// order. Returns `None` when no region qualifies (including when every
/// qualifying region is already in greedy shape), so callers keep the
/// original plan — and its exact optimization results — untouched.
pub fn reorder_joins(
    plan: &LogicalPlan,
    catalog: &Catalog,
    threshold: usize,
) -> Result<Option<(LogicalPlan, u64)>> {
    // Cheap pre-scan: no schema work unless some region is big enough.
    if largest_region_leaves(plan) <= threshold {
        return Ok(None);
    }
    let graph = JoinGraph::extract(plan, catalog)?;
    let mut chosen: HashMap<NodeId, (&JoinRegion, Vec<usize>)> = HashMap::new();
    for region in &graph.regions {
        if region.leaves.len() <= threshold || !region.well_formed {
            continue;
        }
        let Some(order) = region.greedy_order() else {
            continue; // disconnected: a cross join is never introduced
        };
        if region.left_deep_sequence(plan).as_ref() == Some(&order) {
            continue; // already the greedy shape
        }
        chosen.insert(region.root, (region, order));
    }
    if chosen.is_empty() {
        return Ok(None);
    }
    let mut rebuild = Rebuild {
        src: plan,
        chosen: &chosen,
        out: LogicalPlan::new(),
        rebuilt_joins: 0,
    };
    let root = rebuild.copy(plan.root());
    let mut out = rebuild.out;
    out.set_root(root);
    Ok(Some((out, rebuild.rebuilt_joins)))
}

/// Leaf count of the largest inner-join region — a schema-free scan used
/// to skip extraction entirely for the common small plan.
fn largest_region_leaves(plan: &LogicalPlan) -> usize {
    let mut max = 0usize;
    let mut stack = vec![plan.root()];
    while let Some(id) = stack.pop() {
        if is_inner_join(plan, id) {
            let mut leaves = Vec::new();
            let mut joins = Vec::new();
            collect_region(plan, id, &mut leaves, &mut joins);
            max = max.max(leaves.len());
            stack.extend(leaves);
        } else {
            stack.extend(plan.children(id));
        }
    }
    max
}

struct Rebuild<'a> {
    src: &'a LogicalPlan,
    chosen: &'a HashMap<NodeId, (&'a JoinRegion, Vec<usize>)>,
    out: LogicalPlan,
    rebuilt_joins: u64,
}

impl Rebuild<'_> {
    fn copy(&mut self, id: NodeId) -> NodeId {
        if let Some((region, order)) = self.chosen.get(&id) {
            return self.build_region(region, order);
        }
        match self.src.node(id).clone() {
            LogicalOp::Scan { table, alias } => self.out.scan_as(&table, &alias),
            LogicalOp::Filter { input, predicate } => {
                let c = self.copy(input);
                self.out.filter(c, predicate)
            }
            LogicalOp::Project { input, items } => {
                let c = self.copy(input);
                self.out.project(c, items)
            }
            LogicalOp::Join {
                left,
                right,
                kind,
                pairs,
            } => {
                let l = self.copy(left);
                let r = self.copy(right);
                self.out.join_kind(l, r, kind, pairs)
            }
            LogicalOp::Aggregate {
                input,
                group_by,
                aggs,
            } => {
                let c = self.copy(input);
                self.out.aggregate(c, group_by, aggs)
            }
            LogicalOp::Sort { input, order } => {
                let c = self.copy(input);
                self.out.order_by(c, order)
            }
            LogicalOp::Limit { input, k } => {
                let c = self.copy(input);
                self.out.limit(c, k)
            }
        }
    }

    /// Emits the region as a left-deep chain of inner joins over `order`,
    /// each step carrying every pair that connects the new leaf to the
    /// tree built so far, capped by the order-restoring projection.
    fn build_region(&mut self, region: &JoinRegion, order: &[usize]) -> NodeId {
        let new_leaf: Vec<NodeId> = region.leaves.iter().map(|&l| self.copy(l)).collect();
        let mut in_tree = vec![false; region.leaves.len()];
        in_tree[order[0]] = true;
        let mut cur = new_leaf[order[0]];
        for &i in &order[1..] {
            let mut pairs = Vec::new();
            for e in &region.edges {
                if e.b == i && in_tree[e.a] {
                    pairs.extend(e.pairs.iter().cloned());
                } else if e.a == i && in_tree[e.b] {
                    pairs.extend(
                        e.pairs
                            .iter()
                            .map(|p| JoinPair::new(p.right.clone(), p.left.clone())),
                    );
                }
            }
            cur = self.out.join(cur, new_leaf[i], pairs);
            in_tree[i] = true;
            self.rebuilt_joins += 1;
        }
        let items: Vec<ProjItem> = region.columns.iter().map(ProjItem::col).collect();
        self.out.project(cur, items)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pyro_common::{Tuple, Value};
    use pyro_ordering::SortOrder;

    fn catalog() -> Catalog {
        let mut cat = Catalog::new();
        let rows: Vec<Tuple> = (0..100)
            .map(|i| Tuple::new(vec![Value::Int(i), Value::Int(i % 10)]))
            .collect();
        for t in ["t1", "t2", "t3", "t4"] {
            cat.register_table(t, Schema::ints(&["a", "b"]), SortOrder::new(["a"]), &rows)
                .unwrap();
        }
        cat
    }

    /// t1 ⋈ t2 ⋈ t3 chain under an ORDER BY.
    fn chain3() -> LogicalPlan {
        let mut p = LogicalPlan::new();
        let a = p.scan_as("t1", "r1");
        let b = p.scan_as("t2", "r2");
        let c = p.scan_as("t3", "r3");
        let j1 = p.join(a, b, vec![JoinPair::new("r1.b", "r2.a")]);
        let j2 = p.join(j1, c, vec![JoinPair::new("r2.b", "r3.a")]);
        p.order_by(j2, SortOrder::new(["r1.a"]));
        p
    }

    #[test]
    fn extracts_one_region_with_edges() {
        let cat = catalog();
        let p = chain3();
        let g = JoinGraph::extract(&p, &cat).unwrap();
        assert_eq!(g.regions.len(), 1);
        let r = &g.regions[0];
        assert!(r.well_formed);
        assert_eq!(r.leaves.len(), 3);
        assert_eq!(r.joins.len(), 2);
        assert_eq!(r.edges.len(), 2);
        assert_eq!(r.columns.len(), 6);
        // Pairs oriented: left column belongs to leaves[a].
        for e in &r.edges {
            for pr in &e.pairs {
                assert!(pr.left.starts_with(&format!("r{}", e.a + 1)), "{pr:?}");
            }
        }
    }

    #[test]
    fn outer_join_splits_regions() {
        let cat = catalog();
        let mut p = LogicalPlan::new();
        let a = p.scan_as("t1", "r1");
        let b = p.scan_as("t2", "r2");
        let c = p.scan_as("t3", "r3");
        let inner = p.join(a, b, vec![JoinPair::new("r1.a", "r2.a")]);
        p.join_kind(
            inner,
            c,
            pyro_exec::join::JoinKind::FullOuter,
            vec![JoinPair::new("r1.a", "r3.a")],
        );
        let g = JoinGraph::extract(&p, &cat).unwrap();
        assert_eq!(g.regions.len(), 1, "outer join is not a region member");
        assert_eq!(g.regions[0].leaves.len(), 2);
    }

    #[test]
    fn greedy_order_prefers_dense_leaf() {
        let cat = catalog();
        // Star: r3 joins both r1 and r2 → r3 is the densest leaf.
        let mut p = LogicalPlan::new();
        let a = p.scan_as("t1", "r1");
        let b = p.scan_as("t2", "r2");
        let c = p.scan_as("t3", "r3");
        let j1 = p.join(a, c, vec![JoinPair::new("r1.a", "r3.a")]);
        p.join(j1, b, vec![JoinPair::new("r3.b", "r2.b")]);
        let g = JoinGraph::extract(&p, &cat).unwrap();
        let order = g.regions[0].greedy_order().unwrap();
        // leaves in-order: [r1, r3, r2]; r3 (index 1) has degree 2.
        assert_eq!(order[0], 1);
    }

    #[test]
    fn reorder_below_threshold_is_none() {
        let cat = catalog();
        let p = chain3();
        assert!(reorder_joins(&p, &cat, 3).unwrap().is_none());
    }

    #[test]
    fn reorder_restores_column_order() {
        let cat = catalog();
        let p = chain3();
        let (re, rebuilt) = reorder_joins(&p, &cat, 2).unwrap().unwrap();
        assert!(rebuilt > 0);
        let root_names = |p: &LogicalPlan| {
            let schemas = p
                .schemas(|table, alias| Ok(cat.table(table)?.meta.schema.qualify(alias)))
                .unwrap();
            schemas[p.root()].names()
        };
        assert_eq!(
            root_names(&p),
            root_names(&re),
            "restoring projection keeps the region schema"
        );
    }

    #[test]
    fn disconnected_region_is_left_alone() {
        let cat = catalog();
        let mut p = LogicalPlan::new();
        let a = p.scan_as("t1", "r1");
        let b = p.scan_as("t2", "r2");
        let c = p.scan_as("t3", "r3");
        // r3 attaches with no join pairs: disconnected graph.
        let j1 = p.join(a, b, vec![JoinPair::new("r1.a", "r2.a")]);
        p.join(j1, c, vec![]);
        assert!(reorder_joins(&p, &cat, 2).unwrap().is_none());
    }
}
