//! Concurrent serving parity: 8 client threads share one `Arc<Session>`
//! (one catalog, one buffer pool, one plan cache) and run the paper
//! workloads across all five strategies. Every thread must observe exactly
//! the serial run's rows and all four paper counters — concurrency, like
//! parallelism and batching before it, may change wall-clock only — and
//! warm threads must be served from the plan cache.

use pyro::datagen::tpch;
use pyro::exec::MetricsRef;
use pyro::{Session, Strategy};
use std::sync::Arc;

mod common;
use common::exact;

const THREADS: usize = 8;

/// (sql, ordered): ordered results compare as sequences, unordered as
/// multisets (tie order within an ordered prefix is plan-dependent but the
/// plan is fixed here, so sequences still match; multiset keeps the intent
/// documented).
const QUERIES: [&str; 3] = [
    "SELECT l_suppkey, l_partkey FROM lineitem ORDER BY l_suppkey, l_partkey",
    "SELECT l_suppkey, l_partkey, l_quantity FROM lineitem WHERE l_linestatus = 'O'",
    "SELECT ps_suppkey, ps_partkey, ps_availqty, count(l_partkey) AS n \
     FROM partsupp, lineitem \
     WHERE ps_suppkey = l_suppkey AND ps_partkey = l_partkey \
     GROUP BY ps_suppkey, ps_partkey, ps_availqty \
     ORDER BY ps_suppkey, ps_partkey",
];

fn counters(m: &MetricsRef) -> (u64, u64, u64, u64) {
    (
        m.comparisons(),
        m.run_pages_written(),
        m.run_pages_read(),
        m.runs_created(),
    )
}

#[test]
fn eight_threads_reproduce_serial_across_all_strategies() {
    for strategy in Strategy::all() {
        let mut session = Session::builder()
            .strategy(strategy)
            .plan_cache_entries(16)
            .build();
        let seed = session.seed();
        tpch::load_with_seed(session.catalog_mut(), tpch::TpchConfig::scaled(0.002), seed).unwrap();

        // Serial reference (also warms the plan cache — by design: a
        // serving deployment's steady state is warm).
        let reference: Vec<_> = QUERIES
            .iter()
            .map(|sql| {
                let out = session.sql(sql).unwrap();
                (out.rows().to_vec(), counters(out.metrics()))
            })
            .collect();

        let session = Arc::new(session);
        let reference = Arc::new(reference);
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let session = Arc::clone(&session);
                let reference = Arc::clone(&reference);
                std::thread::spawn(move || {
                    let mut hits = 0u64;
                    for round in 0..2 {
                        for (q, (ref_rows, ref_counters)) in QUERIES.iter().zip(reference.iter()) {
                            let out = session.sql(q).unwrap();
                            assert_eq!(
                                exact(out.rows()),
                                exact(ref_rows),
                                "rows diverged (strategy={}, thread={t}, round={round}): {q}",
                                strategy.name()
                            );
                            assert_eq!(
                                counters(out.metrics()),
                                *ref_counters,
                                "counters diverged (strategy={}, thread={t}): {q}",
                                strategy.name()
                            );
                            if out.plan_cache().unwrap().hit {
                                hits += 1;
                            }
                        }
                    }
                    hits
                })
            })
            .collect();

        let mut total_hits = 0;
        for h in handles {
            total_hits += h.join().expect("worker thread must not panic");
        }
        // The cache was warmed serially, every knob stayed fixed and the
        // catalog never changed: every concurrent lookup must hit.
        assert_eq!(
            total_hits,
            (THREADS * 2 * QUERIES.len()) as u64,
            "warm threads must be served from the plan cache (strategy={})",
            strategy.name()
        );
        let stats = session.plan_cache_stats().unwrap();
        assert!(stats.hits >= total_hits);
        assert_eq!(stats.evictions, 0);
    }
}

#[test]
fn concurrent_prepared_statements_share_one_plan() {
    let mut session = Session::builder().plan_cache_entries(8).build();
    let seed = session.seed();
    tpch::load_with_seed(session.catalog_mut(), tpch::TpchConfig::scaled(0.002), seed).unwrap();
    let sql = "SELECT l_orderkey, l_quantity FROM lineitem WHERE l_suppkey = ? \
               ORDER BY l_orderkey, l_quantity";
    // Reference bindings computed serially via literal SQL.
    let reference: Vec<_> = [1i64, 2, 3]
        .iter()
        .map(|k| {
            session
                .sql(&format!(
                    "SELECT l_orderkey, l_quantity FROM lineitem WHERE l_suppkey = {k} \
                     ORDER BY l_orderkey, l_quantity"
                ))
                .unwrap()
                .into_rows()
        })
        .collect();
    assert!(reference.iter().any(|r| !r.is_empty()), "premise: matches");

    // Four first-time prepares of the same text race against an empty
    // cache. The cache is lookup-then-insert, not single-flight: racers
    // that look the text up before any of them has inserted it all miss,
    // legitimately. What must hold however they interleave: every prepare
    // is counted once, at least one planned from scratch, they all end up
    // behind ONE cached entry, and every statement answers correctly.
    let before = session.plan_cache_stats().unwrap();
    let session = Arc::new(session);
    let reference = Arc::new(reference);
    let barrier = Arc::new(std::sync::Barrier::new(4));
    let handles: Vec<_> = (0..4)
        .map(|_| {
            let session = Arc::clone(&session);
            let reference = Arc::clone(&reference);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                barrier.wait();
                let stmt = session.prepare(sql).unwrap();
                for (i, k) in [1i64, 2, 3].iter().enumerate() {
                    let out = stmt.execute(&[pyro::common::Value::Int(*k)]).unwrap();
                    assert_eq!(exact(out.rows()), exact(&reference[i]), "binding {k}");
                }
                stmt.cache_hit().expect("session has a plan cache")
            })
        })
        .collect();
    let hits = handles
        .into_iter()
        .map(|h| h.join().expect("worker thread must not panic"))
        .filter(|&hit| hit)
        .count() as u64;
    let stats = session.plan_cache_stats().unwrap();
    assert!(hits <= 3, "someone planned the text first: {stats:?}");
    assert_eq!(stats.hits - before.hits, hits, "{stats:?}");
    assert_eq!(stats.misses - before.misses, 4 - hits, "{stats:?}");
    assert_eq!(stats.entries, before.entries + 1, "one shared entry");
    // With the entry resident, a later prepare is a hit.
    assert_eq!(session.prepare(sql).unwrap().cache_hit(), Some(true));
}
