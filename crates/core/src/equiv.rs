//! Column equivalence classes.
//!
//! Join predicates `l = r` make the two columns interchangeable for ordering
//! purposes: a stream sorted on `ps_partkey` after `ps_partkey = l_partkey`
//! is also sorted on `l_partkey`, and an `ORDER BY ps_partkey` above the
//! join is satisfied either way. This is the small slice of Simmen et
//! al.-style order inference the paper's techniques assume. Implemented as a
//! union-find over qualified column names.

use std::collections::HashMap;

/// Union-find over column names, kept flat: every column that was ever
/// unioned maps straight to its class representative, so a lookup is one
/// probe and borrows instead of allocating. `union` pays for that by
/// re-pointing the absorbed class, which is a handful of columns.
#[derive(Debug, Default)]
pub struct EquivMap {
    rep: HashMap<String, String>,
}

impl EquivMap {
    /// Empty map: every column is its own class.
    pub fn new() -> Self {
        EquivMap::default()
    }

    /// Representative of `name`'s class (deterministic: the
    /// lexicographically smallest member).
    pub fn rep<'a>(&'a self, name: &'a str) -> &'a str {
        self.rep.get(name).map_or(name, String::as_str)
    }

    /// Declares `a = b`.
    pub fn union(&mut self, a: &str, b: &str) {
        let (ra, rb) = (self.rep(a).to_string(), self.rep(b).to_string());
        // Smaller name becomes the root so reps are deterministic.
        let (root, child) = if ra <= rb { (ra, rb) } else { (rb, ra) };
        for r in self.rep.values_mut() {
            if *r == child {
                r.clone_from(&root);
            }
        }
        for name in [a, b] {
            self.rep.insert(name.to_string(), root.clone());
        }
    }

    /// True iff the two columns are known equal.
    pub fn same(&self, a: &str, b: &str) -> bool {
        self.rep(a) == self.rep(b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reflexive_by_default() {
        let m = EquivMap::new();
        assert_eq!(m.rep("x"), "x");
        assert!(m.same("x", "x"));
        assert!(!m.same("x", "y"));
    }

    #[test]
    fn union_transitive() {
        let mut m = EquivMap::new();
        m.union("a.k", "b.k");
        m.union("b.k", "c.k");
        assert!(m.same("a.k", "c.k"));
        assert_eq!(m.rep("c.k"), "a.k", "lexicographically smallest is root");
    }

    #[test]
    fn separate_classes_stay_separate() {
        let mut m = EquivMap::new();
        m.union("a.x", "b.x");
        m.union("a.y", "b.y");
        assert!(!m.same("a.x", "a.y"));
    }

    #[test]
    fn deterministic_rep_regardless_of_order() {
        let mut m1 = EquivMap::new();
        m1.union("z.c", "a.c");
        let mut m2 = EquivMap::new();
        m2.union("a.c", "z.c");
        assert_eq!(m1.rep("z.c"), m2.rep("z.c"));
    }
}
