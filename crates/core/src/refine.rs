//! Phase-2 plan refinement (§5.2.2).
//!
//! After the cost-based search picks a plan, the *free attributes* of each
//! merge join — join attributes whose position was fixed by an arbitrary
//! permutation rather than by any input favorable order — are reworked so
//! adjacent joins share sort-order prefixes, using the 2-approximate tree
//! algorithm of §4.2. This module computes the reworked orders; the
//! optimizer applies them by searching again with those orders pinned and
//! keeps the refined plan only if it costs less.

use crate::favorable::lcp_with_set_equiv;
use crate::ids::{IdOrder, IdSet, Node};
use crate::logical::NodeId;
use crate::optimizer::{Alt, CandId, Ctx, Found};
use pyro_ordering::{two_approx_tree_order, JoinTree};
use std::collections::HashMap;

/// One merge join discovered in the physical plan.
struct MjInfo {
    logical: NodeId,
    /// Chosen order in representatives.
    order_reps: IdOrder,
    /// Fixed prefix (longest common prefix with any input favorable order).
    fixed: IdOrder,
    /// Free attributes (representatives).
    free: IdSet,
    /// Logical id of the nearest merge-join ancestor, if any.
    parent: Option<NodeId>,
}

/// Phase-2 on `best`: the merge-join orders to pin for the re-search, or
/// `None` when there is nothing to coordinate.
pub(crate) fn reworked_orders(ctx: &Ctx, found: &Found) -> Option<HashMap<NodeId, IdOrder>> {
    let mut joins: Vec<MjInfo> = Vec::new();
    collect_mjs(ctx, found, found.best, None, &mut joins);
    // Fewer than two merge joins, or no free attributes at all.
    if joins.len() < 2 || joins.iter().all(|j| j.free.is_empty()) {
        return None;
    }

    // Build the binary tree over free-attribute sets. Multiple roots can
    // exist (e.g. joins under different branches); we refine the largest
    // tree containing the root-most join and leave others untouched.
    let mut tree = JoinTree::new();
    let mut tree_ids: HashMap<NodeId, usize> = HashMap::new();
    // Insert root-most joins first (parents before children).
    let mut remaining: Vec<&MjInfo> = joins.iter().collect();
    remaining.sort_by_key(|j| j.parent.is_some()); // roots first
    for j in &remaining {
        match j.parent.and_then(|p| tree_ids.get(&p).copied()) {
            None => {
                if tree.is_empty() {
                    tree_ids.insert(j.logical, tree.add_root(j.free.clone()));
                }
                // Secondary roots are skipped; refining one tree at a time
                // keeps the transformation simple and is what the paper's
                // single-plan-tree examples need.
            }
            Some(parent_tree_id) => {
                if tree.children(parent_tree_id).len() < 2 {
                    tree_ids.insert(j.logical, tree.add_child(parent_tree_id, j.free.clone()));
                }
            }
        }
    }
    if tree.len() < 2 {
        return None;
    }

    let solution = two_approx_tree_order(&tree);
    // New order per refined join: fixed prefix + reworked free attributes.
    let mut forced: HashMap<NodeId, IdOrder> = HashMap::new();
    for j in &joins {
        if let Some(&tid) = tree_ids.get(&j.logical) {
            let reworked = j.fixed.concat(&solution.orders[tid]);
            // Only force when it actually covers the full attribute set.
            if reworked.len() == j.order_reps.len() {
                forced.insert(j.logical, reworked);
            }
        }
    }
    (!forced.is_empty()).then_some(forced)
}

/// Walks the candidate tree under `at` recording merge joins and their
/// nearest merge-join ancestor.
fn collect_mjs(
    ctx: &Ctx,
    found: &Found,
    at: CandId,
    parent_mj: Option<NodeId>,
    out: &mut Vec<MjInfo>,
) {
    let node = found.cand(at);
    let this_parent = match (node.alt, &ctx.nodes[node.logical]) {
        (
            Alt::Sorted,
            Node::Join {
                left, right, reps, ..
            },
        ) => {
            let order_reps = found.orders.get(node.out_order).map(|&a| ctx.equiv.rep(a));
            // qi: input favorable order sharing the longest prefix with pi.
            let fixed = ctx.afm[*left]
                .iter()
                .chain(ctx.afm[*right].iter())
                .map(|q| order_reps.lcp(&lcp_with_set_equiv(q, reps, &ctx.equiv)))
                .max_by_key(IdOrder::len)
                .unwrap_or_default();
            let free: IdSet = order_reps
                .attrs()
                .iter()
                .filter(|a| !fixed.attrs().contains(a))
                .copied()
                .collect();
            out.push(MjInfo {
                logical: node.logical,
                order_reps,
                fixed,
                free,
                parent: parent_mj,
            });
            Some(node.logical)
        }
        _ => parent_mj,
    };
    for c in node.children() {
        collect_mjs(ctx, found, c, this_parent, out);
    }
}

#[cfg(test)]
mod tests {
    use crate::logical::{JoinPair, LogicalPlan};
    use crate::optimizer::Optimizer;
    use crate::plan::PhysOp;
    use crate::strategy::Strategy;
    use pyro_catalog::Catalog;
    use pyro_common::{Schema, Tuple, Value};
    use pyro_exec::join::JoinKind;
    use pyro_ordering::SortOrder;

    /// Query-4 shaped setup: three identical unindexed tables, two
    /// full-outer joins sharing attributes c4, c5.
    fn q4_catalog() -> Catalog {
        let mut cat = Catalog::new();
        let rows: Vec<Tuple> = (0..500)
            .map(|i| {
                Tuple::new(vec![
                    Value::Int(i % 97),
                    Value::Int(i % 89),
                    Value::Int(i % 83),
                    Value::Int(i % 79),
                    Value::Int(i % 73),
                ])
            })
            .collect();
        for t in ["r1", "r2", "r3"] {
            cat.register_table(
                t,
                Schema::ints(&["c1", "c2", "c3", "c4", "c5"]),
                SortOrder::empty(),
                &rows,
            )
            .unwrap();
        }
        cat
    }

    fn q4_plan() -> LogicalPlan {
        let mut p = LogicalPlan::new();
        let r1 = p.scan_as("r1", "r1");
        let r2 = p.scan_as("r2", "r2");
        let j1 = p.join_kind(
            r1,
            r2,
            JoinKind::FullOuter,
            vec![
                JoinPair::new("r1.c5", "r2.c5"),
                JoinPair::new("r1.c4", "r2.c4"),
                JoinPair::new("r1.c3", "r2.c3"),
            ],
        );
        let r3 = p.scan_as("r3", "r3");
        p.join_kind(
            j1,
            r3,
            JoinKind::FullOuter,
            vec![
                JoinPair::new("r1.c1", "r3.c1"),
                JoinPair::new("r1.c4", "r3.c4"),
                JoinPair::new("r1.c5", "r3.c5"),
            ],
        );
        p
    }

    #[test]
    fn refinement_aligns_shared_attributes() {
        let cat = q4_catalog();
        let plan = q4_plan();
        let optimized = Optimizer::new(&cat)
            .with_strategy(Strategy::pyro_o())
            .optimize(&plan)
            .unwrap();
        // Collect the two merge-join orders.
        let mut orders: Vec<SortOrder> = Vec::new();
        optimized.root.walk(&mut |n| {
            if let PhysOp::MergeJoin { order, .. } = &n.op {
                orders.push(order.clone());
            }
        });
        assert_eq!(orders.len(), 2, "{}", optimized.explain());
        // The two joins share {c4, c5}; after refinement their orders must
        // share a 2-attribute prefix (modulo column-name side).
        let bare = |o: &SortOrder, i: usize| o.attrs()[i].rsplit('.').next().unwrap().to_string();
        let shared = (0..2)
            .take_while(|&i| bare(&orders[0], i) == bare(&orders[1], i))
            .count();
        assert_eq!(
            shared,
            2,
            "joins should share (c4, c5) prefix; got {:?} vs {:?}\n{}",
            orders[0],
            orders[1],
            optimized.explain()
        );
    }

    #[test]
    fn refinement_strictly_helps_q4() {
        let cat = q4_catalog();
        let plan = q4_plan();
        let with = Optimizer::new(&cat)
            .with_strategy(Strategy::pyro_o())
            .optimize(&plan)
            .unwrap()
            .cost();
        let without = Optimizer::new(&cat)
            .with_strategy(Strategy {
                refine: false,
                ..Strategy::pyro_o()
            })
            .optimize(&plan)
            .unwrap()
            .cost();
        assert!(
            with < without,
            "refined {with} should beat unrefined {without}"
        );
    }

    #[test]
    fn single_join_is_left_alone() {
        let cat = q4_catalog();
        let mut p = LogicalPlan::new();
        let r1 = p.scan_as("r1", "a");
        let r2 = p.scan_as("r2", "b");
        p.join(r1, r2, vec![JoinPair::new("a.c1", "b.c1")]);
        // Must not error or change anything structurally.
        let plan = Optimizer::new(&cat)
            .with_strategy(Strategy::pyro_o())
            .optimize(&p)
            .unwrap();
        assert!(plan.cost() > 0.0);
    }
}
