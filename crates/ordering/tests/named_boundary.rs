//! The named boundary of the order algebra, as an outside caller uses it.
//!
//! `benchmark/src/workloads/plan_wide.rs` times `path_order` and
//! `two_approx_tree_order` on the paper's four paths, built from names with
//! `AttrSet::from_iter` over `&str` and `JoinTree::{new, add_root,
//! add_child}`. This test makes exactly those calls and pins their outputs,
//! so the algebra's internals may change while that contract holds.

use pyro_ordering::{path_order, two_approx_tree_order, AttrSet, JoinTree, SortOrder};

/// The attribute sets the paper's statements hand the order algorithms:
/// each path runs from a statement's ORDER BY / GROUP BY node down its
/// merge joins.
fn paper_paths() -> Vec<Vec<AttrSet>> {
    let set = |attrs: &[&str]| AttrSet::from_iter(attrs.iter().copied());
    let q5 = [
        "userid",
        "basketid",
        "parentorderid",
        "waveid",
        "childorderid",
    ];
    vec![
        // Query 2/3: group-by over the two-attribute join.
        vec![
            set(&["suppkey", "partkey", "availqty"]),
            set(&["suppkey", "partkey"]),
        ],
        // Query 4: two full outer joins sharing c4, c5.
        vec![set(&["c3", "c4", "c5"]), set(&["c1", "c4", "c5"])],
        // Query 5: group-by over the five-attribute self-join.
        vec![set(&q5), set(&q5)],
        // Example 1: order-by, the rating join, the four-attribute join.
        vec![
            set(&[
                "make",
                "year",
                "color",
                "city",
                "sellreason",
                "breakdowns",
                "rating",
            ]),
            set(&["make", "year"]),
            set(&["city", "make", "year", "color"]),
        ],
    ]
}

fn paper_trees() -> Vec<JoinTree> {
    paper_paths()
        .into_iter()
        .map(|path| {
            let mut tree = JoinTree::new();
            let mut sets = path.into_iter();
            let mut node = tree.add_root(sets.next().expect("non-empty path"));
            for attrs in sets {
                node = tree.add_child(node, attrs);
            }
            tree
        })
        .collect()
}

fn orders(rows: &[&[&str]]) -> Vec<SortOrder> {
    rows.iter()
        .map(|r| SortOrder::new(r.iter().copied()))
        .collect()
}

const Q5: [&str; 5] = [
    "basketid",
    "childorderid",
    "parentorderid",
    "userid",
    "waveid",
];
const EX1_TOP: [&str; 7] = [
    "make",
    "year",
    "breakdowns",
    "city",
    "color",
    "rating",
    "sellreason",
];

#[test]
fn path_order_on_the_paper_paths() {
    let expected: [(u64, Vec<SortOrder>); 4] = [
        (
            2,
            orders(&[&["partkey", "suppkey", "availqty"], &["partkey", "suppkey"]]),
        ),
        (2, orders(&[&["c4", "c5", "c3"], &["c4", "c5", "c1"]])),
        (5, orders(&[&Q5, &Q5])),
        (
            4,
            orders(&[
                &EX1_TOP,
                &["make", "year"],
                &["make", "year", "city", "color"],
            ]),
        ),
    ];
    for (path, (benefit, want)) in paper_paths().iter().zip(expected) {
        let sol = path_order(path);
        assert_eq!((sol.benefit, sol.orders), (benefit, want));
    }
}

#[test]
fn two_approx_tree_order_on_the_paper_paths() {
    let expected: [(u64, Vec<SortOrder>); 4] = [
        (
            2,
            orders(&[&["partkey", "suppkey", "availqty"], &["partkey", "suppkey"]]),
        ),
        (2, orders(&[&["c4", "c5", "c3"], &["c4", "c5", "c1"]])),
        (5, orders(&[&Q5, &Q5])),
        (
            2,
            orders(&[
                &EX1_TOP,
                &["make", "year"],
                &["city", "color", "make", "year"],
            ]),
        ),
    ];
    for (tree, (benefit, want)) in paper_trees().iter().zip(expected) {
        let sol = two_approx_tree_order(tree);
        assert_eq!(sol.chosen_parity, "odd");
        assert_eq!((sol.benefit, sol.orders), (benefit, want));
    }
}
