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
//! knob (the session's whole config — strategy, join-enum threshold,
//! hash-operator toggle, batch size, worker count and seed — plus the
//! catalog's sort memory budget and buffer-pool capacity), and the
//! catalog's schema [generation counter](pyro_catalog::Catalog::generation).
//! Any knob flip or catalog mutation therefore changes the key and misses —
//! a stale plan can never be served. Stale-generation entries age out via
//! LRU eviction rather than eager sweeps.
//!
//! **Serving-path design.** Entries are `Arc<CachedStatement>`, so the work
//! done *inside* the mutex is a hash lookup, a stamp write and one `Arc`
//! clone — never a deep clone of the plan tree or the statement's
//! parameter table. Recency is a use counter: every hit and every insert
//! stamps its entry with the next count, and an insert into a full cache
//! evicts the entry with the smallest stamp, the least recently used,
//! found by scanning the resident stamps. Hits stay `O(1)`; only an
//! eviction pays `O(capacity)`, and serving workloads size the cache to
//! hold their shapes, so they do not evict. One cache serves every thread
//! sharing a `Session`.

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

#[derive(Debug, Default)]
struct Inner {
    /// Key → statement and the stamp of its last use.
    map: HashMap<PlanKey, (Arc<CachedStatement>, u64)>,
    /// Uses so far; the next use is stamped `clock + 1`.
    clock: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
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

    /// Looks up `key`, counting a hit (and restamping its entry) or a miss.
    /// The returned handle shares the cached statement — no deep clone
    /// happens inside or outside the lock.
    pub fn lookup(&self, key: &PlanKey) -> Option<Arc<CachedStatement>> {
        let mut guard = self.lock();
        let inner = &mut *guard;
        match inner.map.get_mut(key) {
            Some((stmt, used)) => {
                inner.clock += 1;
                *used = inner.clock;
                inner.hits += 1;
                Some(Arc::clone(stmt))
            }
            None => {
                inner.misses += 1;
                None
            }
        }
    }

    /// Inserts (or refreshes) an entry under a fresh stamp, first evicting
    /// the least-recently-used one when the cache is full.
    pub fn insert(&self, key: PlanKey, stmt: Arc<CachedStatement>) {
        let mut inner = self.lock();
        inner.clock += 1;
        let stamp = inner.clock;
        if let Some(entry) = inner.map.get_mut(&key) {
            *entry = (stmt, stamp);
            return;
        }
        if inner.map.len() >= self.capacity {
            let lru = inner.map.iter().min_by_key(|(_, (_, used))| *used);
            if let Some(lru) = lru.map(|(k, _)| k.clone()) {
                inner.map.remove(&lru);
                inner.evictions += 1;
            }
        }
        inner.map.insert(key, (stmt, stamp));
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
        self.lock().map.clear();
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
        // Interleaved inserts and touches: every eviction must remove
        // exactly the key with the oldest stamp.
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

    /// Long insert churn far past capacity: the map never outgrows the
    /// capacity and the survivor set must always be the most recent
    /// `capacity` keys.
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
        // occupancy bound and the counters must hold under the lock.
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

    /// xorshift64*: a fixed, dependency-free stream of test choices.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: u64) -> u64 {
            self.0 ^= self.0 >> 12;
            self.0 ^= self.0 << 25;
            self.0 ^= self.0 >> 27;
            self.0.wrapping_mul(0x2545_F491_4F6C_DD1D) % n
        }
    }

    /// Seeded runs of 10,000 random lookups and inserts over 12 keys, held
    /// after every step to a naive model: a `Vec` in recency order (least
    /// recently used first) whose every hit and insert moves its key to
    /// the back, and whose front is evicted when an insert overflows it.
    /// Each insert carries its own payload, so a stale refresh shows too.
    #[test]
    fn matches_a_naive_recency_list() {
        let keys: Vec<PlanKey> = (0..12).map(|i| key(&format!("q{i}"), 0, 0)).collect();
        for capacity in 1..=6 {
            for seed in 1..=3u64 {
                let cache = PlanCache::new(capacity);
                let mut rng = Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ capacity as u64);
                let mut model: Vec<(usize, f64)> = Vec::new();
                let mut want = PlanCacheStats {
                    capacity,
                    ..PlanCacheStats::default()
                };
                for op in 0..10_000 {
                    let k = rng.below(keys.len() as u64) as usize;
                    let pos = model.iter().position(|&(m, _)| m == k);
                    if rng.below(2) == 0 {
                        let expected = pos.map(|i| {
                            let entry = model.remove(i);
                            model.push(entry);
                            entry.1
                        });
                        let got = cache.lookup(&keys[k]).map(|s| s.plan.cost());
                        assert_eq!(
                            got, expected,
                            "lookup: capacity {capacity} seed {seed} op {op}"
                        );
                        match expected {
                            Some(_) => want.hits += 1,
                            None => want.misses += 1,
                        }
                    } else {
                        match pos {
                            Some(i) => {
                                model.remove(i);
                            }
                            None if model.len() == capacity => {
                                model.remove(0);
                                want.evictions += 1;
                            }
                            None => {}
                        }
                        model.push((k, op as f64));
                        cache.insert(keys[k].clone(), stmt(op as f64));
                    }
                    want.entries = model.len();
                    assert_eq!(
                        cache.stats(),
                        want,
                        "capacity {capacity} seed {seed} op {op}"
                    );
                    let mut resident: Vec<String> =
                        cache.lock().map.keys().map(|k| k.sql.clone()).collect();
                    let mut expected: Vec<String> =
                        model.iter().map(|&(m, _)| keys[m].sql.clone()).collect();
                    resident.sort();
                    expected.sort();
                    assert_eq!(
                        resident, expected,
                        "capacity {capacity} seed {seed} op {op}"
                    );
                }
            }
        }
    }
}
