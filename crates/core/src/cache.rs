//! A bounded, thread-safe LRU cache of optimized plans.
//!
//! The paper's strategies spend real planner effort — `PYRO-E` enumerates
//! up to `n!` candidate orders, `PYRO-O` runs a favorable-order search plus
//! refinement — which only pays off if it is *amortized*: the same query
//! shapes arrive over and over in a serving workload, and re-running the
//! whole parse → lower → optimize pipeline per call re-pays the cost each
//! time. [`PlanCache`] converts that per-call cost into a once-per-shape
//! cost.
//!
//! **Keying rule.** An entry is addressed by [`PlanKey`]: the normalized
//! SQL text (`pyro_sql::normalize` — whitespace/keyword-case insensitive,
//! literal-sensitive), a fingerprint hash of every plan-affecting session
//! knob (strategy, hash-operator toggle, cost-parameter overrides, sort
//! memory budget, batch size, worker count, buffer-pool capacity and
//! join-enum threshold), and the catalog's schema
//! [generation counter](pyro_catalog::Catalog::generation).
//! Any knob flip or catalog mutation therefore changes the key and misses —
//! a stale plan can never be served. Stale-generation entries age out via
//! LRU eviction rather than eager sweeps.
//!
//! **Serving-path design.** Entries are `Arc<CachedStatement>`, so the work
//! done *inside* the mutex is a hash lookup, a few pointer swaps and one
//! `Arc` clone — never a deep clone of the plan tree or the statement's
//! parameter table. Recency is an intrusive doubly-linked list threaded
//! through a slab of nodes (`prev`/`next` are slab indices): a hit splices
//! its node to the front and eviction pops the tail, both `O(1)` with zero
//! allocation, so the lock hold time is flat no matter how many plans are
//! resident. One cache serves every thread sharing a `Session`.

use crate::optimizer::OptimizedPlan;
use pyro_common::DataType;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, PoisonError};

/// A cached statement: the optimized physical plan and what the frontend
/// learned about its `?` placeholders (one expected-type slot per
/// placeholder; see `pyro_sql::ParamInfo`).
#[derive(Debug, Clone)]
pub struct CachedStatement {
    /// The optimized plan (cheap to clone: the tree is shared via `Arc`).
    pub plan: OptimizedPlan,
    /// Expected type per `?` placeholder, indexed by placeholder number;
    /// `None` where the query does not pin a type. Empty for literal SQL.
    pub param_types: Vec<Option<DataType>>,
}

/// Cache address of one statement under one planning configuration.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PlanKey {
    /// Normalized SQL text.
    pub sql: String,
    /// Hash over every plan-affecting session knob.
    pub fingerprint: u64,
    /// Catalog schema generation the plan was optimized against.
    pub generation: u64,
}

/// Monotonic cache counters plus the current occupancy.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlanCacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to optimize from scratch.
    pub misses: u64,
    /// Entries displaced by the LRU bound.
    pub evictions: u64,
    /// Entries currently resident.
    pub entries: usize,
    /// Maximum resident entries.
    pub capacity: usize,
}

/// Sentinel slab index (list end / empty list).
const NIL: u32 = u32::MAX;

/// One resident plan: the payload plus its links in the recency list.
#[derive(Debug)]
struct Node {
    key: PlanKey,
    stmt: Arc<CachedStatement>,
    /// Toward the MRU end (`NIL` at the head).
    prev: u32,
    /// Toward the LRU end (`NIL` at the tail).
    next: u32,
}

#[derive(Debug)]
struct Inner {
    /// Key → slab slot of its node.
    map: HashMap<PlanKey, u32>,
    /// Node storage; `None` slots are free (tracked in `free`). The slab
    /// never exceeds `capacity` slots, so slot indices stay stable and
    /// reusable for the cache's whole life.
    slab: Vec<Option<Node>>,
    free: Vec<u32>,
    /// Most recently used node (`NIL` when empty).
    head: u32,
    /// Least recently used node — the eviction victim (`NIL` when empty).
    tail: u32,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl Default for Inner {
    fn default() -> Inner {
        Inner {
            map: HashMap::new(),
            slab: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }
}

impl Inner {
    fn node(&self, slot: u32) -> &Node {
        self.slab[slot as usize].as_ref().expect("live slot")
    }

    fn node_mut(&mut self, slot: u32) -> &mut Node {
        self.slab[slot as usize].as_mut().expect("live slot")
    }

    /// Detaches `slot` from the recency list (links become dangling).
    fn unlink(&mut self, slot: u32) {
        let (prev, next) = {
            let n = self.node(slot);
            (n.prev, n.next)
        };
        match prev {
            NIL => self.head = next,
            p => self.node_mut(p).next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.node_mut(n).prev = prev,
        }
    }

    /// Attaches `slot` at the MRU end.
    fn push_front(&mut self, slot: u32) {
        let old_head = self.head;
        {
            let n = self.node_mut(slot);
            n.prev = NIL;
            n.next = old_head;
        }
        if old_head != NIL {
            self.node_mut(old_head).prev = slot;
        }
        self.head = slot;
        if self.tail == NIL {
            self.tail = slot;
        }
    }

    /// Splices `slot` to the front of the recency list: two pointer swaps,
    /// no allocation, no ordering structure to rebalance.
    fn touch(&mut self, slot: u32) {
        if self.head == slot {
            return;
        }
        self.unlink(slot);
        self.push_front(slot);
    }

    /// Removes the LRU node and returns its slot to the free list.
    fn evict_tail(&mut self) {
        let victim = self.tail;
        if victim == NIL {
            return;
        }
        self.unlink(victim);
        let node = self.slab[victim as usize].take().expect("live slot");
        self.map.remove(&node.key);
        self.free.push(victim);
        self.evictions += 1;
    }

    /// Allocates a slab slot for a new node.
    fn alloc(&mut self, node: Node) -> u32 {
        match self.free.pop() {
            Some(slot) => {
                self.slab[slot as usize] = Some(node);
                slot
            }
            None => {
                self.slab.push(Some(node));
                (self.slab.len() - 1) as u32
            }
        }
    }
}

/// The bounded LRU plan cache; see the [module docs](self).
#[derive(Debug)]
pub struct PlanCache {
    capacity: usize,
    inner: Mutex<Inner>,
}

impl PlanCache {
    /// A cache holding at most `capacity` plans (floor 1 — a zero-entry
    /// cache is expressed by not constructing one at all).
    pub fn new(capacity: usize) -> PlanCache {
        PlanCache {
            capacity: capacity.max(1),
            inner: Mutex::new(Inner::default()),
        }
    }

    /// Maximum resident entries.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        // Nothing panics while holding the lock except allocation failure;
        // recover the data rather than poisoning every later query.
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Looks up `key`, counting a hit (and refreshing recency) or a miss.
    /// The returned handle shares the cached statement — no deep clone
    /// happens inside or outside the lock.
    pub fn lookup(&self, key: &PlanKey) -> Option<Arc<CachedStatement>> {
        let mut inner = self.lock();
        match inner.map.get(key).copied() {
            Some(slot) => {
                inner.touch(slot);
                inner.hits += 1;
                Some(Arc::clone(&inner.node(slot).stmt))
            }
            None => {
                inner.misses += 1;
                None
            }
        }
    }

    /// Inserts (or refreshes) an entry, evicting the least-recently-used
    /// one first when the cache is full. `O(1)` either way.
    pub fn insert(&self, key: PlanKey, stmt: Arc<CachedStatement>) {
        let mut inner = self.lock();
        if let Some(slot) = inner.map.get(&key).copied() {
            // Refresh in place: new payload, fresh recency, no eviction.
            inner.node_mut(slot).stmt = stmt;
            inner.touch(slot);
            return;
        }
        if inner.map.len() >= self.capacity {
            inner.evict_tail();
        }
        let slot = inner.alloc(Node {
            key: key.clone(),
            stmt,
            prev: NIL,
            next: NIL,
        });
        inner.map.insert(key, slot);
        inner.push_front(slot);
    }

    /// Current counters and occupancy.
    pub fn stats(&self) -> PlanCacheStats {
        let inner = self.lock();
        PlanCacheStats {
            hits: inner.hits,
            misses: inner.misses,
            evictions: inner.evictions,
            entries: inner.map.len(),
            capacity: self.capacity,
        }
    }

    /// Number of resident entries.
    pub fn len(&self) -> usize {
        self.lock().map.len()
    }

    /// True iff no entries are resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every entry (counters are kept — they are monotonic totals).
    pub fn clear(&self) {
        let mut inner = self.lock();
        inner.map.clear();
        inner.slab.clear();
        inner.free.clear();
        inner.head = NIL;
        inner.tail = NIL;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{PhysNode, PhysOp};
    use crate::strategy::Strategy;
    use pyro_common::Schema;
    use pyro_ordering::SortOrder;
    use std::sync::Arc;

    fn stmt(cost: f64) -> Arc<CachedStatement> {
        Arc::new(CachedStatement {
            plan: OptimizedPlan {
                root: Arc::new(PhysNode {
                    op: PhysOp::TableScan {
                        table: "t".into(),
                        alias: "t".into(),
                    },
                    children: vec![],
                    schema: Schema::ints(&["t.a"]),
                    out_order: SortOrder::empty(),
                    cost,
                    rows: 1.0,
                    logical: 0,
                }),
                strategy: Strategy::pyro_o(),
                ordered_output: false,
                planning: crate::optimizer::PlanningInfo::default(),
            },
            param_types: Vec::new(),
        })
    }

    fn key(sql: &str, fp: u64, generation: u64) -> PlanKey {
        PlanKey {
            sql: sql.into(),
            fingerprint: fp,
            generation,
        }
    }

    #[test]
    fn hit_miss_and_stats() {
        let cache = PlanCache::new(4);
        assert!(cache.lookup(&key("q", 1, 0)).is_none());
        cache.insert(key("q", 1, 0), stmt(10.0));
        let hit = cache.lookup(&key("q", 1, 0)).expect("hit");
        assert_eq!(hit.plan.cost(), 10.0);
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.evictions, s.entries), (1, 1, 0, 1));
        assert_eq!(s.capacity, 4);
    }

    #[test]
    fn lookup_shares_not_clones() {
        let cache = PlanCache::new(4);
        cache.insert(key("q", 1, 0), stmt(10.0));
        let a = cache.lookup(&key("q", 1, 0)).expect("hit");
        let b = cache.lookup(&key("q", 1, 0)).expect("hit");
        assert!(Arc::ptr_eq(&a, &b), "hits must share one statement");
    }

    #[test]
    fn key_components_all_discriminate() {
        let cache = PlanCache::new(8);
        cache.insert(key("q", 1, 0), stmt(1.0));
        assert!(cache.lookup(&key("q2", 1, 0)).is_none(), "sql text");
        assert!(cache.lookup(&key("q", 2, 0)).is_none(), "knob fingerprint");
        assert!(
            cache.lookup(&key("q", 1, 1)).is_none(),
            "catalog generation"
        );
        assert!(cache.lookup(&key("q", 1, 0)).is_some());
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let cache = PlanCache::new(2);
        cache.insert(key("a", 0, 0), stmt(1.0));
        cache.insert(key("b", 0, 0), stmt(2.0));
        // Touch "a" so "b" is the LRU victim.
        assert!(cache.lookup(&key("a", 0, 0)).is_some());
        cache.insert(key("c", 0, 0), stmt(3.0));
        assert!(cache.lookup(&key("b", 0, 0)).is_none(), "b evicted");
        assert!(cache.lookup(&key("a", 0, 0)).is_some());
        assert!(cache.lookup(&key("c", 0, 0)).is_some());
        assert_eq!(cache.stats().evictions, 1);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn eviction_order_tracks_many_touches() {
        // Stress the order index: interleaved inserts and touches must
        // keep map and BTreeMap consistent (every eviction removes exactly
        // the oldest untouched key).
        let cache = PlanCache::new(4);
        for i in 0..4 {
            cache.insert(key(&format!("q{i}"), 0, 0), stmt(i as f64));
        }
        // Touch q0 and q2; q1 then q3 become the victims.
        assert!(cache.lookup(&key("q0", 0, 0)).is_some());
        assert!(cache.lookup(&key("q2", 0, 0)).is_some());
        cache.insert(key("q4", 0, 0), stmt(4.0));
        assert!(cache.lookup(&key("q1", 0, 0)).is_none(), "q1 was LRU");
        cache.insert(key("q5", 0, 0), stmt(5.0));
        assert!(cache.lookup(&key("q3", 0, 0)).is_none(), "q3 next");
        for live in ["q0", "q2", "q4", "q5"] {
            assert!(cache.lookup(&key(live, 0, 0)).is_some(), "{live} resident");
        }
        assert_eq!(cache.stats().evictions, 2);
    }

    #[test]
    fn reinsert_refreshes_without_eviction() {
        let cache = PlanCache::new(1);
        cache.insert(key("a", 0, 0), stmt(1.0));
        cache.insert(key("a", 0, 0), stmt(2.0));
        assert_eq!(cache.stats().evictions, 0);
        assert_eq!(cache.lookup(&key("a", 0, 0)).unwrap().plan.cost(), 2.0);
    }

    /// Long insert churn far past capacity: slab slots must recycle (the
    /// node store never outgrows the capacity) and the survivor set must
    /// always be the most recent `capacity` keys.
    #[test]
    fn slot_reuse_under_churn() {
        let cache = PlanCache::new(3);
        for i in 0..100 {
            cache.insert(key(&format!("q{i}"), 0, 0), stmt(i as f64));
        }
        assert_eq!(cache.len(), 3);
        assert_eq!(cache.stats().evictions, 97);
        for live in ["q97", "q98", "q99"] {
            assert!(cache.lookup(&key(live, 0, 0)).is_some(), "{live} resident");
        }
        assert!(cache.lookup(&key("q96", 0, 0)).is_none());
    }

    #[test]
    fn capacity_floor_is_one() {
        let cache = PlanCache::new(0);
        assert_eq!(cache.capacity(), 1);
        cache.insert(key("a", 0, 0), stmt(1.0));
        assert!(!cache.is_empty());
        cache.clear();
        assert!(cache.is_empty());
    }

    #[test]
    fn shared_across_threads() {
        let cache = Arc::new(PlanCache::new(16));
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let cache = cache.clone();
                std::thread::spawn(move || {
                    for i in 0..50 {
                        let k = key(&format!("q{}", i % 8), t, 0);
                        if cache.lookup(&k).is_none() {
                            cache.insert(k, stmt(i as f64));
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let s = cache.stats();
        assert_eq!(s.hits + s.misses, 200);
        assert!(s.hits > 0);
    }

    #[test]
    fn concurrent_eviction_pressure_stays_consistent() {
        // More distinct keys than capacity from several threads: the
        // order index and map must never desync (evictions would panic or
        // evict the wrong entry if they did).
        let cache = Arc::new(PlanCache::new(4));
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let cache = cache.clone();
                std::thread::spawn(move || {
                    for i in 0..200 {
                        let k = key(&format!("q{}", (i + t * 7) % 16), 0, 0);
                        if cache.lookup(&k).is_none() {
                            cache.insert(k, stmt(i as f64));
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let s = cache.stats();
        assert!(s.entries <= 4);
        assert_eq!(s.hits + s.misses, 800);
        assert!(s.evictions > 0);
    }
}
