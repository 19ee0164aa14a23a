//! Favorable orders — the `afm` (approximate minimal favorable-order set)
//! computation of §5.1.2.
//!
//! `afm(e)` approximates "the sort orders obtainable on `e`'s result at less
//! than full-sort cost": clustering orders, covering-index orders, and their
//! propagation through selections, projections, joins and grouping. One
//! bottom-up pass; the only non-trivial operation is the
//! set-restricted longest-prefix `o ∧ s`, exactly as the paper analyzes.

use crate::equiv::EquivMap;
use crate::ids::{IdOrder, IdSet, Node};
use pyro_ordering::AttrSet;
use std::borrow::Cow;
use std::rc::Rc;

/// Cap on the afm set size per node; the paper observes real sets are tiny
/// (`m ≤ 2` for base relations), the cap only guards pathological schemas.
const AFM_CAP: usize = 8;

/// Computes `afm` for every node. Orders are over the respective node's
/// output columns; at joins, prefixes restricted to the join attribute set
/// are expressed in equivalence-class representatives. A node that passes
/// its input's favorable orders on shares its input's list.
pub(crate) fn compute_afm(nodes: &[Node], equiv: &EquivMap) -> Vec<Rc<[IdOrder]>> {
    let mut afm: Vec<Rc<[IdOrder]>> = Vec::with_capacity(nodes.len());
    for node in nodes {
        let orders = node_afm(node, equiv, &afm);
        afm.push(orders);
    }
    afm
}

/// The bare names of the columns of `columns` qualified by `alias` — the
/// shape index metadata speaks. Unqualified names (aggregate outputs)
/// belong to no scan and are skipped.
pub fn alias_columns<'n>(alias: &str, columns: impl IntoIterator<Item = &'n str>) -> AttrSet {
    columns
        .into_iter()
        .filter_map(|col| col.split_once('.'))
        .filter(|&(a, _)| a == alias)
        .map(|(_, bare)| bare)
        .collect()
}

/// `o ∧ s` under equivalence: the longest prefix of `o` whose attributes'
/// representatives belong to `s` (which must itself hold representatives);
/// the result is expressed in representatives.
pub fn lcp_with_set_equiv(o: &IdOrder, s: &IdSet, equiv: &EquivMap) -> IdOrder {
    let prefix = &o.attrs()[..lcp_with_set_equiv_len(o, s, equiv)];
    IdOrder::new(prefix.iter().map(|&a| equiv.rep(a)))
}

/// `|o ∧ s|` under equivalence: the length of [`lcp_with_set_equiv`], the
/// longest prefix of `o` whose representatives are distinct members of `s`.
pub fn lcp_with_set_equiv_len(o: &IdOrder, s: &IdSet, equiv: &EquivMap) -> usize {
    let attrs = o.attrs();
    (0..attrs.len())
        .take_while(|&i| {
            let rep = equiv.rep(attrs[i]);
            s.contains(&rep) && !attrs[..i].iter().any(|&b| equiv.rep(b) == rep)
        })
        .count()
}

/// The distinct non-empty `orders`, at most [`AFM_CAP`] of them; only the
/// borrowed ones that survive are copied.
fn dedup_capped<'o>(orders: impl Iterator<Item = Cow<'o, IdOrder>>) -> Rc<[IdOrder]> {
    let mut orders: Vec<Cow<IdOrder>> = orders.filter(|o| !o.is_empty()).collect();
    orders.sort();
    orders.dedup();
    // Prefer longer orders when trimming to the cap (subsumption rule 3 of
    // ford-min: a longer order at equal cost dominates its prefixes).
    orders.sort_by_key(|o| std::cmp::Reverse(o.len()));
    orders.truncate(AFM_CAP);
    orders.sort();
    orders.into_iter().map(Cow::into_owned).collect()
}

fn node_afm(node: &Node, equiv: &EquivMap, done: &[Rc<[IdOrder]>]) -> Rc<[IdOrder]> {
    match node {
        // Rule 1: clustering order + covering secondary index orders.
        Node::Scan { favorable, .. } => dedup_capped(favorable.iter().map(Cow::Borrowed)),
        // Rule 2: selections pass favorable orders through.
        Node::Filter { input, .. } => Rc::clone(&done[*input]),
        // Rule 3: longest prefixes within the projected columns.
        Node::Project { input, kept } => dedup_capped(
            done[*input]
                .iter()
                .map(|o| Cow::Owned(o.lcp_with_set(kept))),
        ),
        // Rule 4: input favorable orders survive (nested loops propagates
        // the outer's order); additionally each input favorable prefix on
        // the join attributes, extended by an arbitrary permutation of the
        // remaining join attributes (merge join propagates the chosen join
        // order).
        Node::Join {
            left, right, reps, ..
        } => {
            let t = || done[*left].iter().chain(done[*right].iter());
            let empty = IdOrder::empty();
            // Many inputs share a prefix on the join attributes: extend
            // each distinct prefix once.
            let mut prefixes: Vec<IdOrder> = t()
                .chain([&empty])
                .map(|o| lcp_with_set_equiv(o, reps, equiv))
                .collect();
            prefixes.sort();
            prefixes.dedup();
            let extended = prefixes.iter().map(|p| Cow::Owned(p.extend_with_set(reps)));
            dedup_capped(t().map(Cow::Borrowed).chain(extended))
        }
        // Rule 5: longest prefix within the group-by columns, extended by
        // an arbitrary permutation of the rest.
        Node::Aggregate { input, group } => dedup_capped(
            done[*input]
                .iter()
                .chain(std::iter::once(&IdOrder::empty()))
                .map(|o| Cow::Owned(o.lcp_with_set(group).extend_with_set(group))),
        ),
        Node::Sort { input, .. } | Node::Limit { input } => Rc::clone(&done[*input]),
    }
}

#[cfg(test)]
mod tests {
    use crate::cost::CostParams;
    use crate::logical::{JoinPair, LogicalPlan};
    use crate::optimizer::Ctx;
    use crate::strategy::Strategy;
    use pyro_catalog::Catalog;
    use pyro_common::{Schema, Tuple, Value};
    use pyro_ordering::SortOrder;

    /// catalog1-style setup: ct1 clustered on y, ct2 clustered on m, rt has
    /// a covering index on m (with y, r included).
    fn example1_catalog() -> Catalog {
        let mut cat = Catalog::new();
        // The first `width` of four columns, sorted on `key_col`.
        let mk_rows = |key_col: usize, width: usize| -> Vec<Tuple> {
            let mut rows: Vec<Tuple> = (0..100)
                .map(|i| {
                    Tuple::new(
                        [i % 10, i % 7, i % 5, i % 3][..width]
                            .iter()
                            .map(|&v| Value::Int(v))
                            .collect(),
                    )
                })
                .collect();
            rows.sort_by(|a, b| a.get(key_col).cmp(b.get(key_col)));
            rows
        };
        cat.register_table(
            "ct1",
            Schema::ints(&["y", "m", "c", "co"]),
            SortOrder::new(["y"]),
            &mk_rows(0, 4),
        )
        .unwrap();
        cat.register_table(
            "ct2",
            Schema::ints(&["y", "m", "c", "co"]),
            SortOrder::new(["m"]),
            &mk_rows(1, 4),
        )
        .unwrap();
        cat.register_table(
            "rt",
            Schema::ints(&["m", "y", "r"]),
            SortOrder::new(["m"]),
            &mk_rows(0, 3),
        )
        .unwrap();
        cat.create_index("rt", "rt_m_cov", SortOrder::new(["m"]), &["y", "r"])
            .unwrap();
        cat
    }

    /// Builds the Example 1 join tree: (ct1 ⋈ ct2) ⋈ rt.
    fn example1_plan() -> LogicalPlan {
        let mut p = LogicalPlan::new();
        let c1 = p.scan_as("ct1", "c1");
        let c2 = p.scan_as("ct2", "c2");
        let j1 = p.join(
            c1,
            c2,
            vec![
                JoinPair::new("c1.c", "c2.c"),
                JoinPair::new("c1.m", "c2.m"),
                JoinPair::new("c1.y", "c2.y"),
                JoinPair::new("c1.co", "c2.co"),
            ],
        );
        let rt = p.scan_as("rt", "r");
        p.join(
            j1,
            rt,
            vec![JoinPair::new("c1.m", "r.m"), JoinPair::new("c1.y", "r.y")],
        );
        p
    }

    /// Each node's afm in names, and the representative of `col`'s class.
    fn afm(plan: &LogicalPlan, cat: &Catalog) -> (Vec<Vec<SortOrder>>, impl Fn(&str) -> String) {
        let ctx = Ctx::build(plan, cat, Strategy::pyro_o(), CostParams::default(), true).unwrap();
        let afm = ctx
            .afm
            .iter()
            .map(|orders| orders.iter().map(|o| ctx.names.names_of(o)).collect())
            .collect();
        let (names, equiv) = (ctx.names, ctx.equiv);
        (afm, move |col: &str| {
            names.name(equiv.rep(names.id(col))).to_string()
        })
    }

    #[test]
    fn scan_afm_holds_clustering_and_covering_orders() {
        let cat = example1_catalog();
        let (afm, _) = afm(&example1_plan(), &cat);
        // ct1 scan: clustering (y)
        assert_eq!(afm[0], vec![SortOrder::new(["c1.y"])]);
        // ct2 scan: clustering (m)
        assert_eq!(afm[1], vec![SortOrder::new(["c2.m"])]);
        // rt scan: clustering (m) + covering index (m), both r.m → one entry.
        assert_eq!(afm[3], vec![SortOrder::new(["r.m"])]);
    }

    #[test]
    fn join_afm_extends_prefixes_like_paper_example() {
        // Paper §5.2.1: afm(ct1 ⋈ ct2) = {(y, co, c, m), (m, co, c, y)}
        // modulo the arbitrary suffix permutation (the paper writes
        // (y, co, c, m); our canonical suffix is lexicographic).
        let cat = example1_catalog();
        let (afm, rep) = afm(&example1_plan(), &cat);
        let j1 = &afm[2];
        // Must contain a 4-attr order starting with the rep of y and one
        // starting with the rep of m.
        let (rep_y, rep_m) = (rep("c1.y"), rep("c1.m"));
        assert!(
            j1.iter().any(|o| o.len() == 4 && o.attrs()[0] == rep_y),
            "want a y-led extension in {j1:?}"
        );
        assert!(
            j1.iter().any(|o| o.len() == 4 && o.attrs()[0] == rep_m),
            "want an m-led extension in {j1:?}"
        );
    }

    #[test]
    fn top_join_afm_projects_to_its_attrs() {
        // Paper: afm((ct1 ⋈ ct2) ⋈ rt) = {(y, m), (m, y)}.
        let cat = example1_catalog();
        let (afm, rep) = afm(&example1_plan(), &cat);
        let top = &afm[4];
        let (rep_y, rep_m) = (rep("c1.y"), rep("c1.m"));
        assert!(
            top.iter()
                .any(|o| o.len() == 2 && o.attrs()[0] == rep_y && o.attrs()[1] == rep_m),
            "want (y, m) in {top:?}"
        );
        assert!(
            top.iter()
                .any(|o| o.len() == 2 && o.attrs()[0] == rep_m && o.attrs()[1] == rep_y),
            "want (m, y) in {top:?}"
        );
    }

    #[test]
    fn aggregate_afm_restricts_to_group_cols() {
        let cat = example1_catalog();
        let mut p = LogicalPlan::new();
        let s = p.scan_as("ct1", "c1");
        p.aggregate(s, vec!["c1.y", "c1.m"], vec![]);
        let (afm, _) = afm(&p, &cat);
        // clustering (y) → prefix (y) extended with m → (y, m); plus the
        // ε-extension ⟨{m,y}⟩ = (c1.m, c1.y).
        assert!(afm[1].contains(&SortOrder::new(["c1.y", "c1.m"])));
        assert!(afm[1].contains(&SortOrder::new(["c1.m", "c1.y"])));
    }

    #[test]
    fn covering_check_respects_referenced_columns() {
        let mut cat = Catalog::new();
        let rows: Vec<Tuple> = (0..10)
            .map(|i| Tuple::new(vec![Value::Int(i), Value::Int(i), Value::Int(i)]))
            .collect();
        cat.register_table(
            "t",
            Schema::ints(&["a", "b", "c"]),
            SortOrder::new(["a"]),
            &rows,
        )
        .unwrap();
        // Index on b includes a — does NOT cover queries touching c.
        cat.create_index("t", "t_b", SortOrder::new(["b"]), &["a"])
            .unwrap();

        let mut p = LogicalPlan::new();
        let s = p.scan_as("t", "t");
        p.project(s, vec![crate::logical::ProjItem::col("t.c")]);
        let (afm, _) = afm(&p, &cat);
        assert_eq!(
            afm[0],
            vec![SortOrder::new(["t.a"])],
            "index must not appear: it does not cover column c"
        );
    }
}
