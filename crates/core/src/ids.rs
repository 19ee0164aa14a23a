//! Names at the edge, ids in the search.
//!
//! A statement's attribute names are resolved once, before the search, to
//! dense [`AttrId`]s: [`Names`] is the statement's name table, and
//! `Node` is each logical node with its names resolved. The search runs
//! the order algebra over ids; only the winning plan is rendered back into
//! names. Ids are assigned in name order, so comparing two ids compares
//! their names, and every sort, dedup and set iteration, `apermute`, the
//! equivalence representative (the smallest member) and the search's
//! first-of-equally-cheap tie-break come out exactly as over the names.

use crate::equiv::EquivMap;
use crate::favorable::alias_columns;
use crate::logical::{LogicalOp, LogicalPlan, NExpr, NodeId};
use pyro_catalog::Catalog;
use pyro_common::{Column, Result, Schema};
use pyro_exec::join::JoinKind;
use pyro_ordering::{Order, Set, SortOrder};
use std::sync::Arc;

/// A statement-local attribute id. Ids compare as their names do.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct AttrId(pub(crate) u32);

impl AttrId {
    /// Position in the statement's [`Names`].
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A sort order over ids.
pub type IdOrder = Order<AttrId>;

/// A set of ids.
pub type IdSet = Set<AttrId>;

/// A statement's name table: every attribute name the statement can
/// mention, sorted; an id is a position in it.
#[derive(Debug, Clone, Default)]
pub struct Names {
    names: Vec<Arc<str>>,
}

impl Names {
    /// Interns `names` (duplicates allowed), numbering them in name order.
    pub fn new<'n>(names: impl IntoIterator<Item = &'n str>) -> Names {
        Names::with_columns([], names)
    }

    /// Interns the names of `columns`, sharing each column's name rather
    /// than copying it, and the further names `more`.
    pub fn with_columns<'n>(
        columns: impl IntoIterator<Item = &'n Column>,
        more: impl IntoIterator<Item = &'n str>,
    ) -> Names {
        let shared = columns.into_iter().map(|c| (&*c.name, Some(&c.name)));
        let mut all: Vec<(&str, Option<&Arc<str>>)> =
            shared.chain(more.into_iter().map(|n| (n, None))).collect();
        // A shared spelling sorts before an unshared one and survives dedup.
        all.sort_unstable_by(|a, b| a.0.cmp(b.0).then(b.1.is_some().cmp(&a.1.is_some())));
        all.dedup_by(|later, kept| later.0 == kept.0);
        Names {
            names: all
                .into_iter()
                .map(|(name, shared)| shared.map_or_else(|| name.into(), Arc::clone))
                .collect(),
        }
    }

    /// Number of names.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// True iff no name was interned.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// The id of `name`. Panics if `name` was never interned: a statement's
    /// table holds every name the statement mentions, so that is a bug.
    pub fn id(&self, name: &str) -> AttrId {
        let at = self
            .names
            .binary_search_by(|n| (**n).cmp(name))
            .unwrap_or_else(|_| panic!("attribute {name} was not interned"));
        AttrId(u32::try_from(at).expect("fewer than 2^32 attribute names"))
    }

    /// The name of `id`.
    pub fn name(&self, id: AttrId) -> &str {
        &self.names[id.index()]
    }

    /// An order of names as ids.
    pub fn ids_of(&self, order: &SortOrder) -> IdOrder {
        order.map(|a| self.id(a))
    }

    /// An order of ids as names.
    pub fn names_of(&self, order: &IdOrder) -> SortOrder {
        order.map(|&a| self.name(a).to_string())
    }
}

/// A statement-local sort-order id: a position in an [`Orders`] table.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub(crate) struct OrderId(u32);

/// A search's order table: every distinct [`IdOrder`] it meets, interned
/// once under an [`OrderId`]. An order is looked up by its attribute slice,
/// so meeting a known order again allocates nothing; each order also knows
/// its rep-normalized form, the memo's view of a goal.
pub(crate) struct Orders<'e> {
    equiv: &'e EquivMap,
    orders: Vec<IdOrder>,
    /// Per order, the id of the order over class representatives.
    norm: Vec<OrderId>,
    /// Open-addressing index over `orders`: a slot holds an id plus one,
    /// or 0 when empty. At most half full.
    slots: Vec<u32>,
}

impl<'e> Orders<'e> {
    /// The empty order `ε`, interned first by every table.
    pub const EMPTY: OrderId = OrderId(0);

    /// A table holding only `ε`, normalizing under `equiv`.
    pub fn new(equiv: &'e EquivMap) -> Orders<'e> {
        let mut table = Orders {
            equiv,
            orders: Vec::new(),
            norm: Vec::new(),
            slots: vec![0; 64],
        };
        table.intern(&[]);
        table
    }

    /// The order under `id`.
    pub fn get(&self, id: OrderId) -> &IdOrder {
        &self.orders[id.0 as usize]
    }

    /// The id of `id`'s order over class representatives.
    pub fn norm(&self, id: OrderId) -> OrderId {
        self.norm[id.0 as usize]
    }

    /// The id of the order `attrs`, interning it on first sight.
    pub fn intern(&mut self, attrs: &[AttrId]) -> OrderId {
        match self.find(attrs) {
            Some(id) => id,
            None => self.insert(IdOrder::new(attrs.iter().copied())),
        }
    }

    /// The id of the first `n` attributes of `id`'s order.
    pub fn prefix(&mut self, id: OrderId, n: usize) -> OrderId {
        let attrs = self.get(id).attrs();
        if n >= attrs.len() {
            return id;
        }
        match self.find(&attrs[..n]) {
            Some(hit) => hit,
            None => {
                let order = self.get(id).prefix(n);
                self.insert(order)
            }
        }
    }

    fn slot_of(&self, attrs: &[AttrId]) -> usize {
        // FNV-1a over the ids: orders are a few small integers long, and
        // the ids are this statement's own numbering, not outside input.
        let hash = attrs.iter().fold(0xcbf2_9ce4_8422_2325_u64, |h, a| {
            (h ^ u64::from(a.0)).wrapping_mul(0x0100_0000_01b3)
        });
        (hash ^ (hash >> 29)) as usize & (self.slots.len() - 1)
    }

    fn find(&self, attrs: &[AttrId]) -> Option<OrderId> {
        let mask = self.slots.len() - 1;
        let mut at = self.slot_of(attrs);
        loop {
            match self.slots[at] {
                0 => return None,
                slot if self.orders[slot as usize - 1].attrs() == attrs => {
                    return Some(OrderId(slot - 1))
                }
                _ => at = (at + 1) & mask,
            }
        }
    }

    /// Adds an order `find` missed, and its normalized form if new.
    fn insert(&mut self, order: IdOrder) -> OrderId {
        if 2 * (self.orders.len() + 1) > self.slots.len() {
            let grown = vec![0; 2 * self.slots.len()];
            let old = std::mem::replace(&mut self.slots, grown);
            for slot in old.into_iter().filter(|&s| s != 0) {
                self.place(slot);
            }
        }
        let id = OrderId(u32::try_from(self.orders.len()).expect("fewer than 2^32 orders"));
        let normal = order.attrs().iter().all(|&a| self.equiv.rep(a) == a);
        let mapped = (!normal).then(|| order.map(|&a| self.equiv.rep(a)));
        self.orders.push(order);
        self.norm.push(id);
        self.place(id.0 + 1);
        if let Some(mapped) = mapped {
            // Representatives map to themselves: the normalized order is
            // its own normal form.
            let norm = match self.find(mapped.attrs()) {
                Some(hit) => hit,
                None => self.insert(mapped),
            };
            self.norm[id.0 as usize] = norm;
        }
        id
    }

    fn place(&mut self, slot: u32) {
        let mask = self.slots.len() - 1;
        let mut at = self.slot_of(self.orders[slot as usize - 1].attrs());
        while self.slots[at] != 0 {
            at = (at + 1) & mask;
        }
        self.slots[at] = slot;
    }
}

/// A logical node as the search reads it: its inputs and its names,
/// resolved to ids once per statement.
#[derive(Debug)]
pub(crate) enum Node {
    Scan {
        /// The ways to read the table, heap first: one candidate each.
        paths: Vec<Access>,
        /// The orders the scan offers for free — its clustering, then each
        /// covering index's key (afm rule 1).
        favorable: Vec<IdOrder>,
    },
    Filter {
        input: NodeId,
        /// Columns the predicate pins by equality to a constant.
        pinned: Vec<AttrId>,
    },
    Project {
        input: NodeId,
        /// Columns passed through unchanged.
        kept: IdSet,
    },
    Join {
        left: NodeId,
        right: NodeId,
        kind: JoinKind,
        /// The `(left, right)` column pairs.
        pairs: Vec<(AttrId, AttrId)>,
        /// The pairs' class representatives: the join attribute set `S`.
        reps: IdSet,
    },
    Aggregate {
        input: NodeId,
        /// Grouping columns.
        group: IdSet,
    },
    Sort {
        input: NodeId,
        order: IdOrder,
    },
    Limit {
        input: NodeId,
    },
}

/// One way to read a scan's table.
#[derive(Debug)]
pub(crate) struct Access {
    /// `None` for the heap file, else the covering index's position in the
    /// table's index list.
    pub index: Option<usize>,
    /// The order the path delivers.
    pub order: IdOrder,
    /// Blocks read.
    pub blocks: f64,
}

/// Resolves every node of `plan`. `referenced` holds every column an
/// expression of the query names: with the columns the query returns, they
/// are what it needs from each scan, and an index is an access path, and
/// its key a favorable order, only if it covers them.
pub(crate) fn resolve(
    plan: &LogicalPlan,
    catalog: &Catalog,
    names: &Names,
    equiv: &EquivMap,
    schemas: &[Schema],
    referenced: &[&str],
) -> Result<Vec<Node>> {
    let col_ids = |id: NodeId| schemas[id].columns().iter().map(|c| names.id(&c.name));
    (0..plan.len())
        .map(|id| {
            Ok(match plan.node(id) {
                LogicalOp::Scan { table, alias } => {
                    let handle = catalog.table(table)?;
                    let meta = &handle.meta;
                    // Key columns by position: the scan's schema is the
                    // table's, qualified.
                    let scan_cols: Vec<AttrId> = col_ids(id).collect();
                    let key = |o: &SortOrder| -> Result<IdOrder> {
                        Ok(IdOrder::new(
                            meta.key_spec(o)?.into_iter().map(|i| scan_cols[i]),
                        ))
                    };
                    let clustering = key(&meta.clustering)?;
                    let mut favorable: Vec<IdOrder> = (!clustering.is_empty())
                        .then(|| clustering.clone())
                        .into_iter()
                        .collect();
                    let mut paths = vec![Access {
                        index: None,
                        order: clustering,
                        blocks: handle.heap.block_count().max(1) as f64,
                    }];
                    // `SELECT *` lowers to no projection, so the root's
                    // columns are named nowhere else.
                    let needed = (!meta.indexes.is_empty()).then(|| {
                        let returned = schemas[plan.root()].columns().iter();
                        let returned = returned.map(|c| &*c.name);
                        alias_columns(alias, referenced.iter().copied().chain(returned))
                    });
                    let needed = needed.filter(|cols| !cols.is_empty());
                    for (i, idx) in meta.indexes.iter().enumerate() {
                        if needed.as_ref().is_some_and(|cols| !idx.covers(cols)) {
                            continue;
                        }
                        let order = key(&idx.key)?;
                        if let Some(file) = handle.index_files.get(&idx.name) {
                            paths.push(Access {
                                index: Some(i),
                                order: order.clone(),
                                blocks: file.block_count().max(1) as f64,
                            });
                        }
                        favorable.push(order);
                    }
                    Node::Scan { paths, favorable }
                }
                LogicalOp::Filter { input, predicate } => Node::Filter {
                    input: *input,
                    pinned: crate::seek::pinned_columns(predicate)
                        .into_iter()
                        .map(|c| names.id(c))
                        .collect(),
                },
                LogicalOp::Project { input, items } => Node::Project {
                    input: *input,
                    kept: items
                        .iter()
                        .filter(|it| matches!(&it.expr, NExpr::Col(c) if c == &it.name))
                        .map(|it| names.id(&it.name))
                        .collect(),
                },
                LogicalOp::Join {
                    left,
                    right,
                    kind,
                    pairs,
                } => {
                    let pairs: Vec<(AttrId, AttrId)> = pairs
                        .iter()
                        .map(|p| (names.id(&p.left), names.id(&p.right)))
                        .collect();
                    Node::Join {
                        left: *left,
                        right: *right,
                        kind: *kind,
                        reps: pairs.iter().map(|&(l, _)| equiv.rep(l)).collect(),
                        pairs,
                    }
                }
                LogicalOp::Aggregate {
                    input, group_by, ..
                } => Node::Aggregate {
                    input: *input,
                    group: group_by.iter().map(|g| names.id(g)).collect(),
                },
                LogicalOp::Sort { input, order } => Node::Sort {
                    input: *input,
                    order: names.ids_of(order),
                },
                LogicalOp::Limit { input, .. } => Node::Limit { input: *input },
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pyro_ordering::{all_permutations, AttrSet};

    /// The generator of `sort::mrs`'s tests: a 64-bit LCG.
    struct Lcg(u64);

    impl Lcg {
        fn below(&mut self, n: u64) -> u64 {
            self.0 = self
                .0
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (self.0 >> 33) % n
        }
    }

    /// A name sharing prefixes with its neighbours: a few aliases, dots,
    /// and column parts both under and over 8 bytes.
    fn name(r: &mut Lcg) -> String {
        const ALIAS: [&str; 4] = ["t", "t1", "tt", "lineitem"];
        const STEM: [&str; 5] = ["a", "ab", "abcdefgh", "abcdefghij", "a.b"];
        format!(
            "{}.{}{}",
            ALIAS[r.below(4) as usize],
            STEM[r.below(5) as usize],
            r.below(12)
        )
    }

    fn distinct_names(r: &mut Lcg, n: usize) -> Vec<String> {
        let mut out: Vec<String> = Vec::new();
        while out.len() < n {
            let s = name(r);
            if !out.contains(&s) {
                out.push(s);
            }
        }
        out
    }

    #[test]
    fn id_order_is_name_order_through_the_algebra() {
        let mut r = Lcg(7);
        for _ in 0..200 {
            let pool = distinct_names(&mut r, 12);
            let names = Names::new(pool.iter().map(String::as_str));
            let k = 1 + r.below(5) as usize;
            let o1 = SortOrder::new(distinct_names_from(&mut r, &pool, k));
            let o2 = SortOrder::new(distinct_names_from(&mut r, &pool, 4));
            let (i1, i2) = (names.ids_of(&o1), names.ids_of(&o2));
            let s: AttrSet = pool[..1 + r.below(6) as usize].iter().cloned().collect();
            let is: IdSet = s.iter().map(|a| names.id(a)).collect();

            assert_eq!(names.names_of(&i1.lcp(&i2)), o1.lcp(&o2));
            assert_eq!(names.names_of(&i1.concat(&i2)), o1.concat(&o2));
            assert_eq!(
                names.names_of(&i1.extend_with_set(&is)),
                o1.extend_with_set(&s)
            );
            assert_eq!(names.names_of(&is.arbitrary_order()), s.arbitrary_order());
            assert_eq!(names.names_of(&i1.lcp_with_set(&is)), o1.lcp_with_set(&s));
            assert_eq!(i1.cmp(&i2), o1.cmp(&o2), "{o1} vs {o2}");
            let (mut by_id, mut by_name) = (vec![i1.clone(), i2.clone()], vec![o1, o2]);
            by_id.sort();
            by_name.sort();
            assert_eq!(
                by_id.iter().map(|o| names.names_of(o)).collect::<Vec<_>>(),
                by_name
            );
            let small: AttrSet = s.iter().take(4).cloned().collect();
            let small_ids: IdSet = small.iter().map(|a| names.id(a)).collect();
            let perms: Vec<SortOrder> = all_permutations(&small_ids)
                .iter()
                .map(|o| names.names_of(o))
                .collect();
            assert_eq!(perms, all_permutations(&small));
        }
    }

    fn distinct_names_from(r: &mut Lcg, pool: &[String], k: usize) -> Vec<String> {
        let mut out: Vec<String> = Vec::new();
        while out.len() < k {
            let s = &pool[r.below(pool.len() as u64) as usize];
            if !out.contains(s) {
                out.push(s.clone());
            }
        }
        out
    }

    #[test]
    fn the_representative_is_the_smallest_name_of_its_class() {
        let mut r = Lcg(11);
        for _ in 0..200 {
            let pool = distinct_names(&mut r, 10);
            let names = Names::new(pool.iter().map(String::as_str));
            let mut equiv = EquivMap::new(names.len());
            let mut unions: Vec<(&str, &str)> = Vec::new();
            for _ in 0..r.below(8) {
                let (a, b) = (r.below(10) as usize, r.below(10) as usize);
                unions.push((&pool[a], &pool[b]));
                equiv.union(names.id(&pool[a]), names.id(&pool[b]));
            }
            for a in &pool {
                // The class of `a` by closure over the unions, in names.
                let mut class = vec![a.as_str()];
                while let Some(next) = unions.iter().find_map(|&(x, y)| {
                    match (class.contains(&x), class.contains(&y)) {
                        (true, false) => Some(y),
                        (false, true) => Some(x),
                        _ => None,
                    }
                }) {
                    class.push(next);
                }
                let min = class.iter().min().unwrap();
                assert_eq!(names.name(equiv.rep(names.id(a))), *min, "{unions:?}");
            }
        }
    }

    #[test]
    fn two_hundred_attributes_round_trip() {
        let pool: Vec<String> = (0..200).map(|i| format!("t{}.c{i}", i % 7)).collect();
        let names = Names::new(pool.iter().map(String::as_str));
        assert_eq!(names.len(), 200);
        let set: IdSet = pool.iter().map(|a| names.id(a)).collect();
        assert_eq!(set.len(), 200);
        let back: AttrSet = set.iter().map(|&a| names.name(a).to_string()).collect();
        assert_eq!(back, pool.iter().cloned().collect::<AttrSet>());
        let order = SortOrder::new(pool.iter().rev().cloned());
        assert_eq!(names.names_of(&names.ids_of(&order)), order);
    }
}
