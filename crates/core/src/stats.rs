//! Logical-node statistics: `N(e)`, `B(e)`, `D(e, s)` derived bottom-up.

use crate::ids::{AttrId, Names};
use crate::logical::{LogicalOp, LogicalPlan, NExpr, NodeId};
use pyro_catalog::Catalog;
use pyro_common::{Result, Schema};
use pyro_exec::CmpOp;

/// Estimated statistics for one logical node's output.
#[derive(Debug, Clone, Default)]
pub struct NodeStats {
    /// `N(e)`: estimated row count.
    pub rows: f64,
    /// Average tuple width in bytes.
    pub avg_bytes: f64,
    /// Per-attribute distinct estimates, indexed by [`AttrId`]; `None` for
    /// an attribute the node has no estimate for.
    pub distinct: Vec<Option<f64>>,
}

impl NodeStats {
    /// `B(e)`: blocks at the given block size.
    pub fn blocks(&self, block_size: usize) -> f64 {
        (self.rows * self.avg_bytes / block_size as f64).max(1.0)
    }

    /// The distinct estimate of one attribute, if the node has one.
    pub fn get(&self, a: AttrId) -> Option<f64> {
        self.distinct[a.index()]
    }

    /// `D(e, s)` for an attribute list under independence, capped by `N`.
    pub fn distinct_of(&self, attrs: impl IntoIterator<Item = AttrId>) -> f64 {
        let mut prod = 1.0f64;
        let mut any = false;
        for a in attrs {
            any = true;
            prod *= self.get(a).unwrap_or(self.rows.max(1.0));
            if prod >= self.rows {
                return self.rows.max(1.0);
            }
        }
        if !any {
            return 1.0;
        }
        prod.clamp(1.0, self.rows.max(1.0))
    }

    /// The attributes with an estimate, in id order.
    fn known(&self) -> impl Iterator<Item = AttrId> + '_ {
        (0..self.distinct.len() as u32)
            .map(AttrId)
            .filter(|&a| self.get(a).is_some())
    }
}

/// Default equality selectivity when the column is unknown.
const DEFAULT_EQ_SEL: f64 = 0.1;
/// Selectivity of range comparisons.
const RANGE_SEL: f64 = 1.0 / 3.0;

/// Derives stats for all nodes of a logical plan, given every node's schema
/// and the statement's names.
pub fn derive_stats(
    plan: &LogicalPlan,
    catalog: &Catalog,
    schemas: &[Schema],
    names: &Names,
) -> Result<Vec<NodeStats>> {
    let mut out: Vec<NodeStats> = Vec::with_capacity(plan.len());
    for id in 0..plan.len() {
        let stats = node_stats(plan, id, catalog, schemas, names, &out)?;
        out.push(stats);
    }
    Ok(out)
}

fn node_stats(
    plan: &LogicalPlan,
    id: NodeId,
    catalog: &Catalog,
    schemas: &[Schema],
    names: &Names,
    done: &[NodeStats],
) -> Result<NodeStats> {
    let unknown = || vec![None; names.len()];
    Ok(match plan.node(id) {
        LogicalOp::Scan { table, .. } => {
            let handle = catalog.table(table)?;
            let stats = &handle.meta.stats;
            let mut distinct = unknown();
            // The scan's schema is the table's, qualified, column by column.
            for (col, out) in handle
                .meta
                .schema
                .columns()
                .iter()
                .zip(schemas[id].columns())
            {
                distinct[names.id(&out.name).index()] = Some(stats.distinct(&col.name) as f64);
            }
            NodeStats {
                rows: stats.row_count as f64,
                avg_bytes: stats.avg_tuple_bytes.max(1.0),
                distinct,
            }
        }
        LogicalOp::Filter { input, predicate } => {
            let inner = &done[*input];
            let sel = selectivity(predicate, inner, names);
            scale(inner, sel)
        }
        LogicalOp::Project { input, items } => {
            let inner = &done[*input];
            let mut distinct = unknown();
            for it in items {
                if let NExpr::Col(c) = &it.expr {
                    if let Some(d) = inner.get(names.id(c)) {
                        distinct[names.id(&it.name).index()] = Some(d);
                    }
                }
            }
            // Width estimate: proportional share of the input width, floor 8.
            let frac = items.len() as f64 / (inner.known().count().max(items.len()).max(1)) as f64;
            NodeStats {
                rows: inner.rows,
                avg_bytes: (inner.avg_bytes * frac).max(8.0),
                distinct,
            }
        }
        LogicalOp::Join {
            left,
            right,
            pairs,
            kind,
        } => {
            let (l, r) = (&done[*left], &done[*right]);
            // Exponential backoff over the per-pair selectivities (largest
            // first, each subsequent factor dampened by a square root):
            // multi-attribute join predicates are usually correlated —
            // catastrophically so for the paper's data-consolidation
            // workload, where both catalogs describe the same entities —
            // and plain independence would starve every operator above the
            // join of rows.
            let mut factors: Vec<f64> = pairs
                .iter()
                .map(|p| {
                    let dl = l.get(names.id(&p.left)).unwrap_or(l.rows.max(1.0));
                    let dr = r.get(names.id(&p.right)).unwrap_or(r.rows.max(1.0));
                    dl.max(dr).max(1.0)
                })
                .collect();
            factors.sort_by(|a, b| b.total_cmp(a));
            let mut denom = 1.0f64;
            let mut exponent = 1.0f64;
            for f in factors {
                denom *= f.powf(exponent);
                exponent /= 2.0;
            }
            let mut rows = (l.rows * r.rows / denom).max(1.0);
            if matches!(kind, pyro_exec::join::JoinKind::FullOuter) {
                // Outer joins keep unmatched rows as well.
                rows = rows.max(l.rows).max(r.rows);
            }
            NodeStats {
                rows,
                avg_bytes: l.avg_bytes + r.avg_bytes,
                distinct: l
                    .distinct
                    .iter()
                    .zip(&r.distinct)
                    .map(|(dl, dr)| dr.or(*dl).map(|d| d.min(rows)))
                    .collect(),
            }
        }
        LogicalOp::Aggregate {
            input,
            group_by,
            aggs,
        } => {
            let inner = &done[*input];
            let group: Vec<AttrId> = group_by.iter().map(|g| names.id(g)).collect();
            let groups = inner.distinct_of(group.iter().copied());
            let mut distinct = unknown();
            for g in group {
                distinct[g.index()] = Some(inner.get(g).unwrap_or(groups).min(groups));
            }
            for a in aggs {
                distinct[names.id(&a.name).index()] = Some(groups);
            }
            NodeStats {
                rows: groups,
                avg_bytes: 9.0 * (group_by.len() + aggs.len()) as f64 + 16.0,
                distinct,
            }
        }
        LogicalOp::Sort { input, .. } => done[*input].clone(),
        LogicalOp::Limit { input, k } => {
            let inner = &done[*input];
            scale(inner, (*k as f64 / inner.rows.max(1.0)).min(1.0))
        }
    })
}

fn scale(s: &NodeStats, sel: f64) -> NodeStats {
    let rows = (s.rows * sel).max(1.0);
    NodeStats {
        rows,
        avg_bytes: s.avg_bytes,
        distinct: s.distinct.iter().map(|d| d.map(|d| d.min(rows))).collect(),
    }
}

/// Textbook selectivity estimation.
fn selectivity(pred: &NExpr, input: &NodeStats, names: &Names) -> f64 {
    let distinct = |c: &str| input.get(names.id(c));
    match pred {
        NExpr::And(terms) => terms.iter().map(|t| selectivity(t, input, names)).product(),
        NExpr::Cmp(CmpOp::Eq, a, b) => match (a.as_ref(), b.as_ref()) {
            // A parameter placeholder estimates exactly like an unknown
            // literal: the cached plan must be reasonable for any binding.
            (NExpr::Col(c), NExpr::Lit(_) | NExpr::Param(_))
            | (NExpr::Lit(_) | NExpr::Param(_), NExpr::Col(c)) => {
                1.0 / distinct(c).unwrap_or(1.0 / DEFAULT_EQ_SEL).max(1.0)
            }
            (NExpr::Col(c1), NExpr::Col(c2)) => {
                let d1 = distinct(c1).unwrap_or(10.0);
                let d2 = distinct(c2).unwrap_or(10.0);
                1.0 / d1.max(d2).max(1.0)
            }
            _ => DEFAULT_EQ_SEL,
        },
        NExpr::Cmp(_, _, _) => RANGE_SEL,
        _ => 1.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::CostParams;
    use crate::logical::JoinPair;
    use crate::optimizer::Ctx;
    use crate::strategy::Strategy;
    use pyro_common::{Schema, Tuple, Value};
    use pyro_ordering::SortOrder;

    /// Every node's stats, and the statement's names.
    fn derive(p: &LogicalPlan, cat: &Catalog) -> (Vec<NodeStats>, Names) {
        let ctx = Ctx::build(p, cat, Strategy::pyro_o(), CostParams::default(), true).unwrap();
        (ctx.stats, ctx.names)
    }

    fn catalog() -> Catalog {
        let mut cat = Catalog::new();
        let rows: Vec<Tuple> = (0..1000)
            .map(|i| Tuple::new(vec![Value::Int(i % 10), Value::Int(i)]))
            .collect();
        let mut sorted = rows.clone();
        sorted.sort();
        cat.register_table(
            "t",
            Schema::ints(&["g", "u"]),
            SortOrder::new(["g"]),
            &sorted,
        )
        .unwrap();
        cat
    }

    #[test]
    fn scan_stats_from_catalog() {
        let cat = catalog();
        let mut p = LogicalPlan::new();
        p.scan_as("t", "x");
        let (stats, names) = derive(&p, &cat);
        assert_eq!(stats[0].rows, 1000.0);
        assert_eq!(stats[0].get(names.id("x.g")), Some(10.0));
        assert!(stats[0].blocks(4096) >= 1.0);
    }

    #[test]
    fn filter_scales_by_selectivity() {
        let cat = catalog();
        let mut p = LogicalPlan::new();
        let s = p.scan_as("t", "x");
        p.filter(s, NExpr::col_eq_lit("x.g", 3i64));
        let (stats, _) = derive(&p, &cat);
        assert!(
            (stats[1].rows - 100.0).abs() < 1.0,
            "1000/10 = 100, got {}",
            stats[1].rows
        );
    }

    #[test]
    fn join_estimates() {
        let cat = catalog();
        let mut p = LogicalPlan::new();
        let a = p.scan_as("t", "a");
        let b = p.scan_as("t", "b");
        p.join(a, b, vec![JoinPair::new("a.u", "b.u")]);
        let (stats, _) = derive(&p, &cat);
        // unique join key: N ≈ 1000
        assert!((stats[2].rows - 1000.0).abs() < 1.0);
    }

    #[test]
    fn aggregate_rows_are_group_count() {
        let cat = catalog();
        let mut p = LogicalPlan::new();
        let s = p.scan_as("t", "x");
        p.aggregate(s, vec!["x.g"], vec![]);
        let (stats, _) = derive(&p, &cat);
        assert_eq!(stats[1].rows, 10.0);
    }

    #[test]
    fn distinct_of_set_capped() {
        let cat = catalog();
        let mut p = LogicalPlan::new();
        p.scan_as("t", "x");
        let (stats, names) = derive(&p, &cat);
        assert_eq!(
            stats[0].distinct_of([names.id("x.g"), names.id("x.u")]),
            1000.0
        );
        assert_eq!(stats[0].distinct_of([]), 1.0);
    }
}
