//! # pyro-ordering
//!
//! The sort-order algebra and combinatorial algorithms of
//! *"Reducing Order Enforcement Cost in Complex Query Plans"* (§4).
//!
//! * [`order::Order`] — sequences of attributes with the paper's operators:
//!   longest common prefix (`o1 ∧ o2`), concatenation (`o1 + o2`),
//!   difference (`o1 − o2`), subsumption (`o1 ≤ o2`) and the set-restricted
//!   prefix (`o ∧ s`).
//!   Generic over the attribute type: [`SortOrder`] and [`AttrSet`] are the
//!   instantiation over names, and every algorithm below works on any.
//! * [`path::path_order`] — the exact dynamic program (`PathOrder`,
//!   paper Fig. 4) choosing permutations along a path of join nodes that
//!   maximize the total adjacent longest-common-prefix benefit.
//! * [`tree::two_approx_tree_order`] — the 2-approximation for binary trees
//!   (odd/even edge-level split, paper Fig. 5).
//! * [`exhaustive::exhaustive_tree_order`] — brute-force optimum used to
//!   validate the approximation bound on small instances.
//! * [`sumcut`] — the SUM-CUT reduction construction from the NP-hardness
//!   proof (Theorem 4.1), usable to generate hard instances.

pub mod exhaustive;
pub mod order;
pub mod path;
pub mod sumcut;
pub mod tree;

pub use order::{all_permutations, Attr, AttrSet, Order, Set, SortOrder};
pub use path::{path_order, PathSolution};
pub use tree::{benefit_of, two_approx_tree_order, JoinTree, TreeSolution};
