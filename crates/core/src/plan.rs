//! Physical plans.
//!
//! A [`PhysNode`] tree is the optimizer's output: every node carries its
//! operator, output schema, guaranteed output sort order, estimated rows and
//! *cumulative* cost. `explain()` renders the tree in the style of the
//! paper's Figures 10/11/14 (operator, chosen orders, per-node cost).

use crate::logical::{AggSpec, JoinPair, NExpr, ProjItem};
use pyro_common::Schema;
use pyro_exec::join::{JoinKind, Side};
use pyro_ordering::SortOrder;
use std::fmt::Write as _;
use std::sync::Arc;

/// Physical operator variants.
#[derive(Debug, Clone)]
pub enum PhysOp {
    /// Unordered heap scan.
    TableScan {
        /// Catalog table.
        table: String,
        /// Alias qualifying output columns.
        alias: String,
    },
    /// Scan of the clustered heap file — same I/O, known order.
    ClusteredIndexScan {
        /// Catalog table.
        table: String,
        /// Alias.
        alias: String,
    },
    /// Scan of a covering secondary index's entry file.
    CoveringIndexScan {
        /// Catalog table.
        table: String,
        /// Alias.
        alias: String,
        /// Index name.
        index: String,
    },
    /// Selection.
    Filter {
        /// Predicate over the child's schema.
        predicate: NExpr,
    },
    /// Projection.
    Project {
        /// Output items.
        items: Vec<ProjItem>,
    },
    /// Full sort enforcer (SRS at runtime).
    Sort {
        /// Target order.
        target: SortOrder,
    },
    /// Partial sort enforcer (MRS at runtime): the child already guarantees
    /// the first `prefix_len` attributes of `target`.
    PartialSort {
        /// Attributes of `target` already ordered in the input.
        prefix_len: usize,
        /// Target order.
        target: SortOrder,
    },
    /// Sort-merge join; both inputs sorted per `order` (a permutation of the
    /// join attribute set, expressed over left-side column names).
    MergeJoin {
        /// Join type.
        kind: JoinKind,
        /// Equality pairs.
        pairs: Vec<JoinPair>,
        /// Chosen interesting order.
        order: SortOrder,
    },
    /// Inner hash join. Output columns are `left ++ right` whichever child
    /// the table is built on; output order is the probe child's.
    HashJoin {
        /// Equality pairs.
        pairs: Vec<JoinPair>,
        /// The child the hash table is built on.
        build: Side,
    },
    /// Nested loops join.
    NestedLoopsJoin {
        /// Join type.
        kind: JoinKind,
        /// Equality pairs.
        pairs: Vec<JoinPair>,
    },
    /// Streaming aggregate over sorted input; with no aggregates, a
    /// DISTINCT.
    SortAggregate {
        /// Grouping columns.
        group_by: Vec<String>,
        /// Aggregates.
        aggs: Vec<AggSpec>,
    },
    /// Hash aggregate; with no aggregates, a DISTINCT.
    HashAggregate {
        /// Grouping columns.
        group_by: Vec<String>,
        /// Aggregates.
        aggs: Vec<AggSpec>,
    },
    /// LIMIT/Top-K.
    Limit {
        /// Maximum rows.
        k: u64,
    },
}

impl PhysOp {
    /// Short operator name for explain output.
    pub fn name(&self) -> String {
        match self {
            PhysOp::TableScan { table, .. } => format!("Table Scan [{table}]"),
            PhysOp::ClusteredIndexScan { table, .. } => format!("C.Idx Scan [{table}]"),
            PhysOp::CoveringIndexScan { table, index, .. } => {
                format!("Cov.Idx Scan [{table}.{index}]")
            }
            PhysOp::Filter { .. } => "Filter".into(),
            PhysOp::Project { .. } => "Project".into(),
            PhysOp::Sort { target } => format!("Sort {target}"),
            PhysOp::PartialSort { prefix_len, target } => {
                let known = target.prefix(*prefix_len);
                format!("Partial Sort {known} --> {target}")
            }
            PhysOp::MergeJoin { kind, order, .. } => match kind {
                JoinKind::Inner => format!("Merge Join {order}"),
                JoinKind::LeftOuter => format!("Merge LO Join {order}"),
                JoinKind::FullOuter => format!("Merge FO Join {order}"),
            },
            PhysOp::HashJoin { build, .. } => {
                let side = match build {
                    Side::Left => "left",
                    Side::Right => "right",
                };
                format!("Hash Join (Inner, build={side})")
            }
            PhysOp::NestedLoopsJoin { .. } => "Nested Loops".into(),
            PhysOp::SortAggregate { group_by, .. } => {
                format!("Group Aggregate [{}]", group_by.join(", "))
            }
            PhysOp::HashAggregate { group_by, .. } => {
                format!("Hash Aggregate [{}]", group_by.join(", "))
            }
            PhysOp::Limit { k } => format!("Limit {k}"),
        }
    }
}

/// A costed physical plan node.
#[derive(Debug, Clone)]
pub struct PhysNode {
    /// Operator.
    pub op: PhysOp,
    /// Children (0–2).
    pub children: Vec<Arc<PhysNode>>,
    /// Output schema.
    pub schema: Schema,
    /// Guaranteed output sort order (qualified column names).
    pub out_order: SortOrder,
    /// Cumulative estimated cost in I/O units.
    pub cost: f64,
    /// Estimated output rows.
    pub rows: f64,
    /// The logical node this physical node implements (enforcers carry the
    /// id of the node they re-order). Used by phase-2 refinement.
    pub logical: crate::logical::NodeId,
}

impl PhysNode {
    /// The `(build, probe)` children of a hash-join node building on
    /// `build`.
    pub fn build_probe(&self, build: Side) -> (&Arc<PhysNode>, &Arc<PhysNode>) {
        match build {
            Side::Left => (&self.children[0], &self.children[1]),
            Side::Right => (&self.children[1], &self.children[0]),
        }
    }

    /// Renders the plan tree, root first, children indented — the format of
    /// the paper's plan figures.
    pub fn explain(&self) -> String {
        let mut out = String::new();
        self.explain_into(&mut out, 0);
        out
    }

    fn explain_into(&self, out: &mut String, depth: usize) {
        let pad = "  ".repeat(depth);
        let own_cost = self.cost - self.children.iter().map(|c| c.cost).sum::<f64>();
        let _ = writeln!(
            out,
            "{pad}{}  (cost={:.0}, rows={:.0}{})",
            self.op.name(),
            own_cost.max(0.0),
            self.rows,
            if self.out_order.is_empty() {
                String::new()
            } else {
                format!(", order={}", self.out_order)
            }
        );
        for c in &self.children {
            c.explain_into(out, depth + 1);
        }
    }

    /// Iterates over all nodes (pre-order).
    pub fn walk<'a>(&'a self, f: &mut impl FnMut(&'a PhysNode)) {
        f(self);
        for c in &self.children {
            c.walk(f);
        }
    }

    /// Counts nodes matching a predicate (test helper).
    pub fn count_nodes(&self, pred: &impl Fn(&PhysNode) -> bool) -> usize {
        let mut n = 0;
        self.walk(&mut |node| {
            if pred(node) {
                n += 1;
            }
        });
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn leaf() -> Arc<PhysNode> {
        Arc::new(PhysNode {
            op: PhysOp::TableScan {
                table: "t".into(),
                alias: "t".into(),
            },
            children: vec![],
            schema: Schema::ints(&["t.a"]),
            out_order: SortOrder::empty(),
            cost: 10.0,
            rows: 100.0,
            logical: 0,
        })
    }

    #[test]
    fn explain_renders_tree() {
        let scan = leaf();
        let sort = PhysNode {
            op: PhysOp::Sort {
                target: SortOrder::new(["t.a"]),
            },
            children: vec![scan],
            schema: Schema::ints(&["t.a"]),
            out_order: SortOrder::new(["t.a"]),
            cost: 30.0,
            rows: 100.0,
            logical: 0,
        };
        let text = sort.explain();
        assert!(text.contains("Sort (t.a)"), "{text}");
        assert!(text.contains("Table Scan [t]"), "{text}");
        // own cost of sort = 30 - 10 = 20
        assert!(text.contains("cost=20"), "{text}");
    }

    #[test]
    fn walk_and_count() {
        let n = PhysNode {
            op: PhysOp::Filter {
                predicate: NExpr::lit(1i64),
            },
            children: vec![leaf(), leaf()],
            schema: Schema::ints(&["t.a"]),
            out_order: SortOrder::empty(),
            cost: 25.0,
            rows: 50.0,
            logical: 0,
        };
        assert_eq!(
            n.count_nodes(&|x| matches!(x.op, PhysOp::TableScan { .. })),
            2
        );
        assert_eq!(n.count_nodes(&|_| true), 3);
    }

    #[test]
    fn partial_sort_name_shows_prefix() {
        let op = PhysOp::PartialSort {
            prefix_len: 1,
            target: SortOrder::new(["a", "b"]),
        };
        assert_eq!(op.name(), "Partial Sort (a) --> (a, b)");
    }
}
