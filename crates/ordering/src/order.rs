//! Sort orders and attribute sets — the paper's §3 notation, executable.
//!
//! A sort order `o` is a sequence of attributes `(a1, a2, ..., an)`.
//! Sort direction is ignored throughout, exactly as in the paper ("our
//! techniques are applicable independent of the sort direction").
//!
//! The algebra is written once, generic over the attribute type. Its
//! instantiation over attribute *names* — [`SortOrder`] and [`AttrSet`] —
//! is the one the catalog, SQL and plan output speak. An optimizer may run
//! the same algebra over dense ids instead; every "canonical" choice below
//! (sorted set iteration, `apermute`, the order of [`all_permutations`])
//! follows the attribute type's `Ord`, so ids assigned in name order make
//! every one of those choices exactly as the names would.

use std::borrow::Borrow;
use std::fmt;

/// What the algebra needs of an attribute: a total order, which makes
/// every canonical choice well defined, and clones.
pub trait Attr: Ord + Clone + fmt::Debug {}

impl<T: Ord + Clone + fmt::Debug> Attr for T {}

/// A sort order over attribute names.
pub type SortOrder = Order<String>;

/// A set of attribute names.
pub type AttrSet = Set<String>;

/// A set of attributes with deterministic (sorted) iteration order.
///
/// Determinism matters: the paper's algorithms call `apermute(s)` — "an
/// arbitrary permutation of attribute set s" — and both `PathOrder` and the
/// afm computation rely on *the same* arbitrary permutation being chosen for
/// the same set on adjacent nodes, otherwise the common prefix they engineer
/// is silently destroyed. Keeping the members sorted makes
/// [`Set::arbitrary_order`] canonical. Sets hold any number of attributes.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Set<A> {
    /// Ascending, without duplicates.
    attrs: Vec<A>,
}

impl<A> Default for Set<A> {
    fn default() -> Self {
        Set { attrs: Vec::new() }
    }
}

impl<A: Attr> Set<A> {
    /// Empty set.
    pub fn new() -> Self {
        Set::default()
    }

    /// Builds from any iterator of attributes.
    #[allow(clippy::should_implement_trait)] // FromIterator is also implemented
    pub fn from_iter<I, S>(iter: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<A>,
    {
        let mut attrs: Vec<A> = iter.into_iter().map(Into::into).collect();
        attrs.sort();
        attrs.dedup();
        Set { attrs }
    }

    /// Number of attributes.
    pub fn len(&self) -> usize {
        self.attrs.len()
    }

    /// True iff empty.
    pub fn is_empty(&self) -> bool {
        self.attrs.is_empty()
    }

    /// Membership test.
    pub fn contains<Q: Ord + ?Sized>(&self, a: &Q) -> bool
    where
        A: Borrow<Q>,
    {
        self.attrs.binary_search_by(|x| x.borrow().cmp(a)).is_ok()
    }

    /// Inserts an attribute.
    pub fn insert(&mut self, a: impl Into<A>) {
        let a = a.into();
        if let Err(at) = self.attrs.binary_search(&a) {
            self.attrs.insert(at, a);
        }
    }

    /// Set intersection.
    pub fn intersect(&self, other: &Set<A>) -> Set<A> {
        self.filtered(|a| other.contains(a))
    }

    /// Set difference `self − other`.
    pub fn difference(&self, other: &Set<A>) -> Set<A> {
        self.filtered(|a| !other.contains(a))
    }

    fn filtered(&self, keep: impl Fn(&A) -> bool) -> Set<A> {
        Set {
            attrs: self.attrs.iter().filter(|a| keep(a)).cloned().collect(),
        }
    }

    /// True iff `self ⊆ other`.
    pub fn is_subset(&self, other: &Set<A>) -> bool {
        self.attrs.iter().all(|a| other.contains(a))
    }

    /// Deterministic iteration in ascending order.
    pub fn iter(&self) -> std::slice::Iter<'_, A> {
        self.attrs.iter()
    }

    /// `apermute(s)`: the canonical "arbitrary" permutation of this set —
    /// its attributes in ascending order.
    pub fn arbitrary_order(&self) -> Order<A> {
        Order {
            attrs: self.attrs.clone(),
        }
    }
}

impl<A: fmt::Display> fmt::Display for Set<A> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        write_list(f, &self.attrs)?;
        write!(f, "}}")
    }
}

fn write_list<A: fmt::Display>(f: &mut fmt::Formatter<'_>, attrs: &[A]) -> fmt::Result {
    for (i, a) in attrs.iter().enumerate() {
        if i > 0 {
            write!(f, ", ")?;
        }
        write!(f, "{a}")?;
    }
    Ok(())
}

impl<A: Attr, S: Into<A>> FromIterator<S> for Set<A> {
    fn from_iter<I: IntoIterator<Item = S>>(iter: I) -> Self {
        Set::from_iter(iter)
    }
}

/// A sort order: a duplicate-free sequence of attributes.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Order<A> {
    attrs: Vec<A>,
}

impl<A> Default for Order<A> {
    fn default() -> Self {
        Order { attrs: Vec::new() }
    }
}

impl<A: Attr> Order<A> {
    /// The empty order `ε`.
    pub fn empty() -> Self {
        Order::default()
    }

    /// Builds an order from a sequence of attributes. Debug builds assert
    /// duplicate-freedom.
    pub fn new<I, S>(attrs: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<A>,
    {
        let attrs: Vec<A> = attrs.into_iter().map(Into::into).collect();
        debug_assert!(
            {
                let mut s: Vec<&A> = attrs.iter().collect();
                s.sort_unstable();
                s.windows(2).all(|w| w[0] != w[1])
            },
            "duplicate attribute in sort order {attrs:?}"
        );
        Order { attrs }
    }

    /// `|o|`: number of attributes.
    pub fn len(&self) -> usize {
        self.attrs.len()
    }

    /// True iff this is `ε`.
    pub fn is_empty(&self) -> bool {
        self.attrs.is_empty()
    }

    /// The attribute sequence.
    pub fn attrs(&self) -> &[A] {
        &self.attrs
    }

    /// `attrs(o)`: the set of attributes in the order.
    pub fn attr_set(&self) -> Set<A> {
        Set::from_iter(self.attrs.iter().cloned())
    }

    /// `o1 ≤ o2` with `self` as `o1`: true iff `self` is a prefix of `other`
    /// (so `other` *subsumes* `self`).
    pub fn is_prefix_of(&self, other: &Order<A>) -> bool {
        other.attrs.starts_with(&self.attrs)
    }

    /// `o1 ∧ o2`: longest common prefix.
    pub fn lcp(&self, other: &Order<A>) -> Order<A> {
        let n = self
            .attrs
            .iter()
            .zip(&other.attrs)
            .take_while(|(a, b)| a == b)
            .count();
        self.prefix(n)
    }

    /// `o1 + o2`: concatenation. Attributes of `other` already present in
    /// `self` are skipped (they are functionally redundant as minor keys —
    /// the run is already unique on them within the prefix).
    pub fn concat(&self, other: &Order<A>) -> Order<A> {
        let mut attrs = self.attrs.clone();
        for a in &other.attrs {
            if !attrs.contains(a) {
                attrs.push(a.clone());
            }
        }
        Order { attrs }
    }

    /// `o1 − o2`: the order `o'` with `o2 + o' = o1`. Defined only when
    /// `o2 ≤ o1`; returns `None` otherwise.
    pub fn minus(&self, prefix: &Order<A>) -> Option<Order<A>> {
        prefix.is_prefix_of(self).then(|| Order {
            attrs: self.attrs[prefix.len()..].to_vec(),
        })
    }

    /// `o ∧ s`: longest *prefix* of `o` whose attributes all belong to `s`.
    pub fn lcp_with_set(&self, s: &Set<A>) -> Order<A> {
        self.prefix(self.lcp_with_set_len(s))
    }

    /// `|o ∧ s|`: the length of [`Order::lcp_with_set`], without building
    /// the prefix (a caller that interns orders looks the prefix up by
    /// slice instead).
    pub fn lcp_with_set_len(&self, s: &Set<A>) -> usize {
        self.attrs.iter().take_while(|a| s.contains(*a)).count()
    }

    /// Extends this order with an arbitrary (canonical) permutation of the
    /// attributes in `s` not already present: `o + ⟨s − attrs(o)⟩`.
    pub fn extend_with_set(&self, s: &Set<A>) -> Order<A> {
        let mut attrs = self.attrs.clone();
        attrs.extend(s.iter().filter(|a| !self.attrs.contains(a)).cloned());
        Order { attrs }
    }

    /// Truncates to the first `n` attributes.
    pub fn prefix(&self, n: usize) -> Order<A> {
        Order {
            attrs: self.attrs[..n.min(self.attrs.len())].to_vec(),
        }
    }

    /// The same order over another attribute type, one attribute at a time
    /// (used to map orders through column equivalences, qualification, or
    /// between names and ids).
    pub fn map<B>(&self, f: impl FnMut(&A) -> B) -> Order<B> {
        Order {
            attrs: self.attrs.iter().map(f).collect(),
        }
    }
}

impl SortOrder {
    /// Applies a renaming function to every attribute name.
    pub fn rename(&self, f: impl Fn(&str) -> String) -> SortOrder {
        self.map(|a| f(a))
    }
}

impl<A: fmt::Display> fmt::Display for Order<A> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.attrs.is_empty() {
            return write!(f, "ε");
        }
        write!(f, "(")?;
        write_list(f, &self.attrs)?;
        write!(f, ")")
    }
}

impl<A: Attr, S: Into<A>> FromIterator<S> for Order<A> {
    fn from_iter<I: IntoIterator<Item = S>>(iter: I) -> Self {
        Order::new(iter)
    }
}

/// All `n!` permutations of an attribute set, in a deterministic order —
/// `P(s)` from the paper. Used by the exhaustive strategy (PYRO-E) and by
/// tests; callers must keep `s` small.
pub fn all_permutations<A: Attr>(s: &Set<A>) -> Vec<Order<A>> {
    let mut out = Vec::new();
    let mut current = Vec::with_capacity(s.len());
    let mut used = vec![false; s.len()];
    permute_rec(&s.attrs, &mut used, &mut current, &mut out);
    out
}

fn permute_rec<A: Attr>(
    items: &[A],
    used: &mut [bool],
    current: &mut Vec<A>,
    out: &mut Vec<Order<A>>,
) {
    if current.len() == items.len() {
        out.push(Order {
            attrs: current.clone(),
        });
        return;
    }
    for i in 0..items.len() {
        if !used[i] {
            used[i] = true;
            current.push(items[i].clone());
            permute_rec(items, used, current, out);
            current.pop();
            used[i] = false;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn o(attrs: &[&str]) -> SortOrder {
        SortOrder::new(attrs.iter().copied())
    }

    #[test]
    fn lcp_basic() {
        assert_eq!(
            o(&["y", "m", "c"]).lcp(&o(&["y", "m", "k"])),
            o(&["y", "m"])
        );
        assert_eq!(o(&["a"]).lcp(&o(&["b"])), SortOrder::empty());
        assert_eq!(o(&["a", "b"]).lcp(&o(&["a", "b"])), o(&["a", "b"]));
    }

    #[test]
    fn prefix_relations() {
        assert!(o(&["a"]).is_prefix_of(&o(&["a", "b"])));
        assert!(SortOrder::empty().is_prefix_of(&o(&["a"])));
        assert!(!o(&["b"]).is_prefix_of(&o(&["a", "b"])));
    }

    #[test]
    fn concat_skips_duplicates() {
        assert_eq!(o(&["a", "b"]).concat(&o(&["b", "c"])), o(&["a", "b", "c"]));
    }

    #[test]
    fn minus_inverts_concat() {
        let o1 = o(&["a", "b"]);
        let o2 = o(&["c", "d"]);
        let whole = o1.concat(&o2);
        assert_eq!(whole.minus(&o1), Some(o2));
        assert_eq!(whole.minus(&o(&["x"])), None);
    }

    #[test]
    fn lcp_with_set_stops_at_foreign_attr() {
        let s = AttrSet::from_iter(["m", "y"]);
        assert_eq!(o(&["y", "m", "c"]).lcp_with_set(&s), o(&["y", "m"]));
        assert_eq!(o(&["c", "y"]).lcp_with_set(&s), SortOrder::empty());
    }

    #[test]
    fn extend_with_set_appends_missing() {
        let s = AttrSet::from_iter(["c", "a", "b"]);
        assert_eq!(o(&["b"]).extend_with_set(&s), o(&["b", "a", "c"]));
        // deterministic "arbitrary" permutation
        assert_eq!(SortOrder::empty().extend_with_set(&s), o(&["a", "b", "c"]));
    }

    #[test]
    fn display_formats() {
        assert_eq!(o(&["a", "b"]).to_string(), "(a, b)");
        assert_eq!(SortOrder::empty().to_string(), "ε");
        assert_eq!(AttrSet::from_iter(["b", "a"]).to_string(), "{a, b}");
    }

    #[test]
    fn permutations_count() {
        let s = AttrSet::from_iter(["a", "b", "c"]);
        let perms = all_permutations(&s);
        assert_eq!(perms.len(), 6);
        // all distinct
        let mut seen = std::collections::HashSet::new();
        for p in &perms {
            assert!(seen.insert(p.clone()));
            assert_eq!(p.len(), 3);
        }
    }

    #[test]
    fn rename_maps_attrs() {
        let r = o(&["x", "y"]).rename(|a| format!("t.{a}"));
        assert_eq!(r, o(&["t.x", "t.y"]));
    }

    #[test]
    fn attr_set_ops() {
        let a = AttrSet::from_iter(["a", "b", "c"]);
        let b = AttrSet::from_iter(["b", "c", "d"]);
        assert_eq!(a.intersect(&b), AttrSet::from_iter(["b", "c"]));
        assert_eq!(a.difference(&b), AttrSet::from_iter(["a"]));
        assert!(AttrSet::from_iter(["b"]).is_subset(&a));
    }

    #[test]
    fn sets_hold_any_number_of_attributes() {
        let mut s: Set<u32> = (0..200u32).rev().collect();
        assert_eq!(s.len(), 200);
        assert!(s.iter().copied().eq(0..200));
        assert!(s.contains(&150) && !s.contains(&200));
        s.insert(200u32);
        assert_eq!(s.arbitrary_order().attrs(), (0..=200).collect::<Vec<u32>>());
    }
}
