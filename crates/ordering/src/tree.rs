//! Binary join trees and the 2-approximation of §4.2 (paper Fig. 5).
//!
//! Edges of the tree are split by level parity into two sets `Eo` (odd
//! levels) and `Ee` (even levels). Each set induces vertex-disjoint *paths*,
//! solved exactly by [`crate::path::path_order`]; the better of the two path
//! solutions achieves at least half the optimal tree benefit, because the
//! optimum's benefit decomposes as `odd-ben + even-ben` and each path
//! solution dominates its half.

use crate::order::{Attr, Order, Set};
use crate::path::path_order;

/// A binary tree of join nodes, each carrying the attribute set over which a
/// permutation (sort order) must be chosen.
#[derive(Debug, Clone)]
pub struct JoinTree<A = String> {
    attrs: Vec<Set<A>>,
    parent: Vec<Option<usize>>,
    children: Vec<Vec<usize>>,
    root: Option<usize>,
}

impl<A> Default for JoinTree<A> {
    fn default() -> Self {
        JoinTree {
            attrs: Vec::new(),
            parent: Vec::new(),
            children: Vec::new(),
            root: None,
        }
    }
}

impl<A: Attr> JoinTree<A> {
    /// Empty tree.
    pub fn new() -> Self {
        JoinTree::default()
    }

    /// Adds the root node; panics if a root already exists.
    pub fn add_root(&mut self, attrs: Set<A>) -> usize {
        assert!(self.root.is_none(), "tree already has a root");
        let id = self.push(attrs, None);
        self.root = Some(id);
        id
    }

    /// Adds a child of `parent`; a node may have at most two children.
    pub fn add_child(&mut self, parent: usize, attrs: Set<A>) -> usize {
        assert!(
            self.children[parent].len() < 2,
            "binary tree: node {parent} already has 2 children"
        );
        let id = self.push(attrs, Some(parent));
        self.children[parent].push(id);
        id
    }

    fn push(&mut self, attrs: Set<A>, parent: Option<usize>) -> usize {
        let id = self.attrs.len();
        self.attrs.push(attrs);
        self.parent.push(parent);
        self.children.push(Vec::new());
        id
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.attrs.len()
    }

    /// True iff the tree has no nodes.
    pub fn is_empty(&self) -> bool {
        self.attrs.is_empty()
    }

    /// The root id, if any.
    pub fn root(&self) -> Option<usize> {
        self.root
    }

    /// Attribute set of node `id`.
    pub fn attrs(&self, id: usize) -> &Set<A> {
        &self.attrs[id]
    }

    /// Parent of node `id`.
    pub fn parent(&self, id: usize) -> Option<usize> {
        self.parent[id]
    }

    /// Children of node `id`.
    pub fn children(&self, id: usize) -> &[usize] {
        &self.children[id]
    }

    /// All `(parent, child)` edges.
    pub fn edges(&self) -> Vec<(usize, usize)> {
        (0..self.len())
            .filter_map(|c| self.parent[c].map(|p| (p, c)))
            .collect()
    }

    /// Depth of each node (root = 0). The *level* of edge `(p, c)` is
    /// `depth(c)`.
    pub fn depths(&self) -> Vec<usize> {
        let mut d = vec![0usize; self.len()];
        let Some(root) = self.root else { return d };
        let mut stack = vec![root];
        while let Some(v) = stack.pop() {
            for &c in &self.children[v] {
                d[c] = d[v] + 1;
                stack.push(c);
            }
        }
        d
    }
}

/// Result of [`two_approx_tree_order`].
#[derive(Debug, Clone)]
pub struct TreeSolution<A = String> {
    /// Chosen permutation per node id.
    pub orders: Vec<Order<A>>,
    /// Realized benefit over *all* tree edges.
    pub benefit: u64,
    /// Which parity was kept: `"odd"` or `"even"`.
    pub chosen_parity: &'static str,
}

/// Total benefit `Σ_{(p,c) ∈ E} |orders[p] ∧ orders[c]|` of explicit
/// permutations on a tree.
pub fn benefit_of<A: Attr>(tree: &JoinTree<A>, orders: &[Order<A>]) -> u64 {
    tree.edges()
        .iter()
        .map(|&(p, c)| orders[p].lcp(&orders[c]).len() as u64)
        .sum()
}

/// The 2-approximation for binary trees (paper §4.2).
///
/// Splits edges by level parity, solves the induced paths exactly with the
/// `PathOrder` DP, and returns whichever parity's solution realizes the
/// higher benefit over the full tree. Nodes not covered by the winning
/// parity's paths receive the canonical arbitrary permutation of their set.
///
/// Guarantee: `benefit ≥ OPT/2` (the realized benefit can only exceed the
/// chosen parity's path benefit, and `max(ben_odd, ben_even) ≥ OPT/2`).
pub fn two_approx_tree_order<A: Attr>(tree: &JoinTree<A>) -> TreeSolution<A> {
    if tree.is_empty() {
        return TreeSolution {
            orders: vec![],
            benefit: 0,
            chosen_parity: "odd",
        };
    }
    let odd = solve_parity(tree, 1);
    let even = solve_parity(tree, 0);
    let ben_odd = benefit_of(tree, &odd);
    let ben_even = benefit_of(tree, &even);
    if ben_odd >= ben_even {
        TreeSolution {
            orders: odd,
            benefit: ben_odd,
            chosen_parity: "odd",
        }
    } else {
        TreeSolution {
            orders: even,
            benefit: ben_even,
            chosen_parity: "even",
        }
    }
}

/// Solves one parity class: keeps edges whose level `depth(child) % 2 ==
/// parity`, decomposes the kept forest into maximal paths, and runs the
/// exact path DP on each.
fn solve_parity<A: Attr>(tree: &JoinTree<A>, parity: usize) -> Vec<Order<A>> {
    let n = tree.len();
    let depths = tree.depths();
    // Adjacency restricted to kept edges.
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (p, c) in tree.edges() {
        if depths[c] % 2 == parity {
            adj[p].push(c);
            adj[c].push(p);
        }
    }
    // Every node has ≤ 2 incident kept edges (its parent edge and child
    // edges are at consecutive levels, so only one side survives; a node has
    // at most two children). Components are therefore simple paths.
    debug_assert!(adj.iter().all(|a| a.len() <= 2));

    let mut orders = vec![Order::empty(); n];
    let mut visited = vec![false; n];
    for start in 0..n {
        if visited[start] || adj[start].len() > 1 {
            continue; // only start walks from path endpoints (degree ≤ 1)
        }
        // Walk the path from this endpoint.
        let mut path = vec![start];
        visited[start] = true;
        let mut prev = start;
        let mut cur = adj[start].first().copied();
        while let Some(v) = cur {
            path.push(v);
            visited[v] = true;
            cur = adj[v].iter().copied().find(|&w| w != prev);
            prev = v;
        }
        let sets: Vec<Set<A>> = path.iter().map(|&v| tree.attrs(v).clone()).collect();
        let sol = path_order(&sets);
        for (node, order) in path.iter().zip(sol.orders) {
            orders[*node] = order;
        }
    }
    debug_assert!(
        visited.iter().all(|&v| v),
        "path decomposition missed a node"
    );
    orders
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::order::{AttrSet, SortOrder};

    fn s(attrs: &[&str]) -> AttrSet {
        AttrSet::from_iter(attrs.iter().copied())
    }

    /// Builds the Figure 3 tree from the paper:
    /// root {a,b,c,d,e} with children {a,b,c,k} and {c,d,h,n};
    /// {a,b,c,k} has children {c,e,i,j} and {c,k,l,m};
    /// {c,d,h,n} has children {c,d} and {f,g,p,q}.
    /// (Leaf relations R1..R8 carry no attribute sets of their own — only
    /// the seven join nodes choose permutations; we model the join nodes.)
    fn figure3_tree() -> JoinTree {
        let mut t = JoinTree::new();
        let root = t.add_root(s(&["a", "b", "c", "d", "e"]));
        let l = t.add_child(root, s(&["a", "b", "c", "k"]));
        let r = t.add_child(root, s(&["c", "d", "h", "n"]));
        t.add_child(l, s(&["c", "e", "i", "j"]));
        t.add_child(l, s(&["c", "k", "l", "m"]));
        t.add_child(r, s(&["c", "d"]));
        t.add_child(r, s(&["f", "g", "p", "q"]));
        t
    }

    #[test]
    fn tree_construction() {
        let t = figure3_tree();
        assert_eq!(t.len(), 7);
        assert_eq!(t.edges().len(), 6);
        let d = t.depths();
        assert_eq!(d[t.root().unwrap()], 0);
        assert_eq!(d.iter().filter(|&&x| x == 1).count(), 2);
        assert_eq!(d.iter().filter(|&&x| x == 2).count(), 4);
    }

    #[test]
    fn figure3_two_approx_reaches_at_least_half_of_paper_optimum() {
        // The paper states the optimal benefit for Figure 3 is 8.
        let t = figure3_tree();
        let sol = two_approx_tree_order(&t);
        assert!(
            sol.benefit >= 4,
            "2-approx must reach ≥ 8/2, got {}",
            sol.benefit
        );
        assert_eq!(benefit_of(&t, &sol.orders), sol.benefit);
        // Permutations must cover their sets exactly.
        for v in 0..t.len() {
            assert_eq!(&sol.orders[v].attr_set(), t.attrs(v));
        }
    }

    #[test]
    fn figure3_paper_solution_scores_eight() {
        // Sanity-check our benefit evaluator against the paper's hand-made
        // optimal solution: ⟨c,d,a,b,e⟩ ⟨c,k,a,b⟩ ⟨c,d,h,n⟩ ⟨c,e,i,j⟩
        // ⟨c,k,l,m⟩ ⟨c,d⟩ ⟨f,g,p,q⟩ with edge benefits 2,2,1,2,1,0 = 8.
        let t = figure3_tree();
        let orders = vec![
            SortOrder::new(["c", "d", "a", "b", "e"]),
            SortOrder::new(["c", "k", "a", "b"]),
            SortOrder::new(["c", "d", "h", "n"]),
            SortOrder::new(["c", "e", "i", "j"]),
            SortOrder::new(["c", "k", "l", "m"]),
            SortOrder::new(["c", "d"]),
            SortOrder::new(["f", "g", "p", "q"]),
        ];
        assert_eq!(benefit_of(&t, &orders), 8);
    }

    #[test]
    fn single_node_tree() {
        let mut t = JoinTree::new();
        t.add_root(s(&["a", "b"]));
        let sol = two_approx_tree_order(&t);
        assert_eq!(sol.benefit, 0);
        assert_eq!(sol.orders[0].len(), 2);
    }

    #[test]
    fn identical_sets_on_a_path_shaped_tree_solve_exactly() {
        // Left-deep tree = path; the approximation solves it exactly.
        let mut t = JoinTree::new();
        let mut cur = t.add_root(s(&["a", "b"]));
        for _ in 0..4 {
            cur = t.add_child(cur, s(&["a", "b"]));
        }
        let sol = two_approx_tree_order(&t);
        // Optimum: all 5 nodes share both attrs on all 4 edges = 8.
        // Parity split cuts the path into 2-node pieces; each parity
        // realizes at least half (and full-tree evaluation often more).
        assert!(sol.benefit >= 4, "got {}", sol.benefit);
    }

    #[test]
    fn empty_tree() {
        let sol = two_approx_tree_order(&JoinTree::<String>::new());
        assert_eq!(sol.benefit, 0);
        assert!(sol.orders.is_empty());
    }

    #[test]
    fn parity_paths_cover_all_nodes() {
        // A bushy 15-node tree; internal invariant (debug_assert) checks the
        // decomposition, we check output shape.
        let mut t = JoinTree::new();
        let root = t.add_root(s(&["r", "s"]));
        let mut frontier = vec![root];
        for level in 0..3 {
            let mut next = Vec::new();
            for &f in &frontier {
                for i in 0..2 {
                    let attrs = AttrSet::from_iter(["r".to_string(), format!("l{level}_{i}")]);
                    next.push(t.add_child(f, attrs));
                }
            }
            frontier = next;
        }
        let sol = two_approx_tree_order(&t);
        assert_eq!(sol.orders.len(), t.len());
        for v in 0..t.len() {
            assert_eq!(&sol.orders[v].attr_set(), t.attrs(v));
        }
        // 'r' is common everywhere: any parity realizes ≥ half of the 14
        // edges' worth of shared-prefix benefit.
        assert!(sol.benefit >= 7, "got {}", sol.benefit);
    }
}
