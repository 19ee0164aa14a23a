//! `PathOrder` — the exact dynamic program for paths (paper §4.2, Fig. 4).
//!
//! Given a path of join nodes `v1..vn`, node `vi` carrying attribute set
//! `si`, choose a permutation `pi` of each `si` maximizing
//! `F = Σ |pi ∧ pi+1|` over adjacent pairs. Left-deep and right-deep join
//! plans produce exactly such paths.
//!
//! The recurrence: `OPT(i,j) = max_{i ≤ k < j} OPT(i,k) + OPT(k+1,j) + c(i,j)`
//! where `c(i,j)` is the number of attributes common to *every* node of the
//! segment. The common attributes of a segment become a shared permutation
//! prefix for all its nodes and are "paid for" once per internal segment of
//! the split tree — i.e. once per edge they span.

use crate::order::{Attr, Order, Set};

/// Result of [`path_order`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PathSolution<A = String> {
    /// Chosen permutation for each node, in path order.
    pub orders: Vec<Order<A>>,
    /// The DP's optimal benefit `F = Σ |pi ∧ pi+1|`.
    pub benefit: u64,
}

/// Runs the `PathOrder` dynamic program over the attribute sets of a path.
///
/// Returns the chosen permutations and the optimal benefit. `O(n³)` time
/// with `O(n²)` set intersections, matching the paper's Fig. 4 pseudocode.
///
/// ```
/// use pyro_ordering::{path_order, AttrSet};
/// let sets = vec![
///     AttrSet::from_iter(["a", "b"]),
///     AttrSet::from_iter(["a", "b", "c"]),
///     AttrSet::from_iter(["c", "d"]),
/// ];
/// let sol = path_order(&sets);
/// // The middle node can lead with (a, b) for its left edge or with (c)
/// // for its right edge, not both: optimum is 2.
/// assert_eq!(sol.benefit, 2);
/// ```
pub fn path_order<A: Attr>(sets: &[Set<A>]) -> PathSolution<A> {
    let n = sets.len();
    if n == 0 {
        return PathSolution {
            orders: vec![],
            benefit: 0,
        };
    }
    if n == 1 {
        return PathSolution {
            orders: vec![sets[0].arbitrary_order()],
            benefit: 0,
        };
    }

    // benefit[i][j], commons[i][j], split[i][j] over inclusive segments.
    let mut benefit = vec![vec![0u64; n]; n];
    let mut commons: Vec<Vec<Set<A>>> = vec![vec![Set::new(); n]; n];
    let mut split = vec![vec![usize::MAX; n]; n];

    for i in 0..n {
        commons[i][i] = sets[i].clone();
    }

    for j in 1..n {
        // segment length j+1
        for i in 0..n - j {
            let end = i + j;
            let mut best_k = i;
            let mut best_val = 0u64;
            for k in i..end {
                let val = benefit[i][k] + benefit[k + 1][end];
                if val > best_val || k == i {
                    best_val = val;
                    best_k = k;
                }
            }
            let common = commons[i][best_k].intersect(&commons[best_k + 1][end]);
            benefit[i][end] = best_val + common.len() as u64;
            commons[i][end] = common;
            split[i][end] = best_k;
        }
    }

    let total = benefit[0][n - 1];
    let mut orders = vec![Order::empty(); n];
    make_permutation(0, n - 1, &mut commons, &split, &mut orders);
    PathSolution {
        orders,
        benefit: total,
    }
}

/// `MakePermutation(i, j)` from Fig. 4: prepend the segment's common
/// attributes (one canonical permutation shared by every node in the
/// segment), remove them from the `commons` entries of *nested* segments,
/// then recurse on the two halves of the optimal split.
///
/// Deviation from the paper's pseudocode, which subtracts from *all*
/// `(i', j') ≠ (i, j)`: literal subtraction corrupts sibling segments. If an
/// attribute `x` is common to nodes 1–2 and, independently, to nodes 4–5
/// (but not to the whole path), the DP counts `x` in both `OPT(1,2)` and
/// `OPT(4,5)`; globally subtracting it after placing it in segment (1,2)
/// would silently drop it from (4,5)'s permutations and the realized benefit
/// would fall short of the DP value. Attributes are per-node resources —
/// the only purpose of the subtraction is to avoid appending the same
/// attribute twice to the same node — so restricting it to descendants is
/// both necessary and sufficient (entries outside `[i..j]` are never read by
/// this recursion branch).
fn make_permutation<A: Attr>(
    i: usize,
    j: usize,
    commons: &mut [Vec<Set<A>>],
    split: &[Vec<usize>],
    orders: &mut [Order<A>],
) {
    let seg_common = commons[i][j].clone();
    let appended = seg_common.arbitrary_order();
    if i == j {
        orders[i] = orders[i].concat(&appended);
        return;
    }
    for order in orders.iter_mut().take(j + 1).skip(i) {
        *order = order.concat(&appended);
    }
    // Remove the just-placed attributes from nested segments so descendants
    // do not place them again.
    for (a, row) in commons.iter_mut().enumerate().take(j + 1).skip(i) {
        for (b, entry) in row.iter_mut().enumerate().take(j + 1).skip(a) {
            if !(a == i && b == j) {
                *entry = entry.difference(&seg_common);
            }
        }
    }
    let m = split[i][j];
    make_permutation(i, m, commons, split, orders);
    make_permutation(m + 1, j, commons, split, orders);
}

/// Evaluates the path benefit `Σ |pi ∧ pi+1|` of explicit permutations.
pub fn path_benefit<A: Attr>(orders: &[Order<A>]) -> u64 {
    orders
        .windows(2)
        .map(|w| w[0].lcp(&w[1]).len() as u64)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::order::AttrSet;

    fn s(attrs: &[&str]) -> AttrSet {
        AttrSet::from_iter(attrs.iter().copied())
    }

    #[test]
    fn empty_and_single() {
        assert_eq!(path_order::<String>(&[]).benefit, 0);
        let sol = path_order(&[s(&["b", "a"])]);
        assert_eq!(sol.benefit, 0);
        assert_eq!(sol.orders[0].len(), 2);
    }

    #[test]
    fn identical_sets_align_fully() {
        let sets = vec![s(&["a", "b", "c"]); 4];
        let sol = path_order(&sets);
        // each of 3 edges shares all 3 attributes
        assert_eq!(sol.benefit, 9);
        assert_eq!(path_benefit(&sol.orders), 9);
        for o in &sol.orders {
            assert_eq!(o.len(), 3);
        }
        // all permutations identical
        assert!(sol.orders.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn disjoint_sets_have_zero_benefit() {
        let sets = vec![s(&["a"]), s(&["b"]), s(&["c"])];
        let sol = path_order(&sets);
        assert_eq!(sol.benefit, 0);
        assert_eq!(path_benefit(&sol.orders), 0);
    }

    #[test]
    fn nested_commonality() {
        // {a,b} - {a,b,c} - {c,d}: the middle node leads with (a,b) for the
        // left edge (benefit 2) — it cannot also lead with (c) for the
        // right edge, so the optimum is 2.
        let sets = vec![s(&["a", "b"]), s(&["a", "b", "c"]), s(&["c", "d"])];
        let sol = path_order(&sets);
        assert_eq!(sol.benefit, 2);
        assert_eq!(path_benefit(&sol.orders), 2);
    }

    #[test]
    fn chain_with_global_common_attr() {
        // 'x' is common to all four nodes and contributes on all 3 edges.
        // Beyond x, each interior node can favour only one side: the best
        // assignment adds p on edge 1 and r on edge 3 (q on edge 2 would
        // conflict with both) → 3 + 2 = 5.
        let sets = vec![
            s(&["x", "p"]),
            s(&["x", "p", "q"]),
            s(&["x", "q", "r"]),
            s(&["x", "r"]),
        ];
        let sol = path_order(&sets);
        assert_eq!(sol.benefit, 5);
        assert_eq!(path_benefit(&sol.orders), sol.benefit);
    }

    #[test]
    fn permutations_cover_whole_sets() {
        let sets = vec![s(&["a", "b", "z"]), s(&["b", "c"]), s(&["c", "d"])];
        let sol = path_order(&sets);
        for (set, order) in sets.iter().zip(&sol.orders) {
            assert_eq!(
                &order.attr_set(),
                set,
                "order must be a permutation of its set"
            );
        }
    }

    #[test]
    fn reported_benefit_matches_realized_benefit() {
        // Regression guard: DP benefit must equal the benefit of the
        // permutations it constructs.
        let cases: Vec<Vec<AttrSet>> = vec![
            vec![
                s(&["a", "b"]),
                s(&["b", "c"]),
                s(&["a", "c"]),
                s(&["a", "b", "c"]),
            ],
            vec![s(&["m", "y"]), s(&["m", "y", "co", "c"]), s(&["m", "y"])],
            vec![
                s(&["a"]),
                s(&["a", "b"]),
                s(&["b"]),
                s(&["b", "c"]),
                s(&["c"]),
            ],
            // Sibling-corruption regression: x is common to nodes 1-2 and to
            // nodes 4-5 but not to the whole path. Literal Fig. 4 subtraction
            // would realize 3 instead of the DP's 4 here.
            vec![
                s(&["x", "a"]),
                s(&["x", "a"]),
                s(&["p"]),
                s(&["x", "b"]),
                s(&["x", "b"]),
            ],
        ];
        for sets in cases {
            let sol = path_order(&sets);
            assert_eq!(path_benefit(&sol.orders), sol.benefit, "sets = {sets:?}");
        }
    }
}
