//! Column equivalence classes.
//!
//! Join predicates `l = r` make the two columns interchangeable for ordering
//! purposes: a stream sorted on `ps_partkey` after `ps_partkey = l_partkey`
//! is also sorted on `l_partkey`, and an `ORDER BY ps_partkey` above the
//! join is satisfied either way. This is the small slice of Simmen et
//! al.-style order inference the paper's techniques assume. Implemented as a
//! union-find over a statement's attribute ids.

use crate::ids::AttrId;

/// Union-find over attribute ids, kept flat: every id maps straight to its
/// class representative, so a lookup is one index. `union` pays for that by
/// re-pointing the absorbed class, which is a handful of ids.
#[derive(Debug)]
pub struct EquivMap {
    rep: Vec<AttrId>,
}

impl EquivMap {
    /// `n` attributes, each its own class.
    pub fn new(n: usize) -> Self {
        EquivMap {
            rep: (0..n as u32).map(AttrId).collect(),
        }
    }

    /// Representative of `a`'s class: its smallest member — with ids in
    /// name order, the lexicographically smallest name.
    pub fn rep(&self, a: AttrId) -> AttrId {
        self.rep[a.index()]
    }

    /// Declares `a = b`.
    pub fn union(&mut self, a: AttrId, b: AttrId) {
        let (ra, rb) = (self.rep(a), self.rep(b));
        let (root, child) = (ra.min(rb), ra.max(rb));
        for r in &mut self.rep {
            if *r == child {
                *r = root;
            }
        }
    }

    /// True iff the two columns are known equal.
    pub fn same(&self, a: AttrId, b: AttrId) -> bool {
        self.rep(a) == self.rep(b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const A: AttrId = AttrId(0);
    const B: AttrId = AttrId(1);
    const C: AttrId = AttrId(2);

    #[test]
    fn reflexive_by_default() {
        let m = EquivMap::new(2);
        assert_eq!(m.rep(A), A);
        assert!(m.same(A, A));
        assert!(!m.same(A, B));
    }

    #[test]
    fn union_transitive() {
        let mut m = EquivMap::new(3);
        m.union(B, C);
        m.union(A, B);
        assert!(m.same(A, C));
        assert_eq!(m.rep(C), A, "smallest is root");
    }

    #[test]
    fn separate_classes_stay_separate() {
        let mut m = EquivMap::new(4);
        m.union(A, B);
        m.union(C, AttrId(3));
        assert!(!m.same(A, C));
    }

    #[test]
    fn deterministic_rep_regardless_of_order() {
        let mut m1 = EquivMap::new(3);
        m1.union(C, A);
        let mut m2 = EquivMap::new(3);
        m2.union(A, C);
        assert_eq!(m1.rep(C), m2.rep(C));
    }
}
