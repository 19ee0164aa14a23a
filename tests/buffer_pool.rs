//! Buffer-pool behaviour through the `Session` front door.
//!
//! Two invariants from the issue's acceptance criteria:
//!
//! 1. **Bypass is the default and is free**: without
//!    `SessionBuilder::buffer_pool_pages`, cache counters stay zero and
//!    device I/O is charged exactly as before the pool existed.
//! 2. **A bounded pool separates hot from cold**: the first (cold) run of
//!    the quickstart workload misses for every heap page; a warm second
//!    run of the same query reports `cache_hits > 0` and strictly fewer
//!    device reads — while rows and all four paper counters are
//!    bit-identical run to run and pool to no-pool.

use pyro::common::{Schema, Tuple, Value};
use pyro::exec::MetricsRef;
use pyro::{Session, SortOrder};

mod common;
use common::exact;

const QUICKSTART_SQL: &str = "SELECT k, v FROM events ORDER BY k, v";

/// The quickstart table: clustered on `k`, random `v` per segment.
fn register_events(session: &mut Session, n: i64) {
    let mut state = 42u64;
    let rows: Vec<Tuple> = (0..n)
        .map(|i| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            Tuple::new(vec![Value::Int(i / 50), Value::Int((state >> 40) as i64)])
        })
        .collect();
    session
        .register_table(
            "events",
            Schema::ints(&["k", "v"]),
            SortOrder::new(["k"]),
            &rows,
        )
        .unwrap();
}

fn assert_paper_counters_eq(a: &MetricsRef, b: &MetricsRef, what: &str) {
    assert_eq!(a.comparisons(), b.comparisons(), "comparisons: {what}");
    assert_eq!(
        a.run_pages_written(),
        b.run_pages_written(),
        "run pages written: {what}"
    );
    assert_eq!(
        a.run_pages_read(),
        b.run_pages_read(),
        "run pages read: {what}"
    );
    assert_eq!(a.runs_created(), b.runs_created(), "runs created: {what}");
}

#[test]
fn default_session_bypasses_the_pool() {
    let mut session = Session::new();
    register_events(&mut session, 2_000);
    assert_eq!(session.buffer_pool_pages(), None);
    let before = session.catalog().device().io();
    let first = session.sql(QUICKSTART_SQL).unwrap();
    let first_reads = session.catalog().device().io().since(&before).reads;
    assert_eq!(first.metrics().cache_hits(), 0);
    assert_eq!(first.metrics().cache_misses(), 0);
    // No cache: a rerun re-reads every page from the device.
    let before = session.catalog().device().io();
    let second = session.sql(QUICKSTART_SQL).unwrap();
    let second_reads = session.catalog().device().io().since(&before).reads;
    assert_eq!(first_reads, second_reads, "bypass reruns are never warm");
    assert_eq!(exact(first.rows()), exact(second.rows()));
}

#[test]
fn pool_knob_floors_and_reports() {
    assert_eq!(
        Session::builder()
            .buffer_pool_pages(0)
            .build()
            .buffer_pool_pages(),
        None,
        "0 pages means bypass"
    );
    assert_eq!(
        Session::builder()
            .buffer_pool_pages(64)
            .build()
            .buffer_pool_pages(),
        Some(64)
    );
}

#[test]
fn warm_rerun_hits_cache_and_reads_less() {
    // Pool large enough to hold the whole events heap.
    let mut session = Session::builder().buffer_pool_pages(4096).build();
    register_events(&mut session, 2_000);

    // Ingestion must not pre-warm: the first query run starts cold.
    let before = session.catalog().device().io();
    let cold = session.sql(QUICKSTART_SQL).unwrap();
    let cold_reads = session.catalog().device().io().since(&before).reads;
    assert!(cold.metrics().cache_misses() > 0, "cold run misses");
    assert_eq!(cold.metrics().cache_hits(), 0, "bulk load must not warm");
    assert!(cold_reads > 0);

    let before = session.catalog().device().io();
    let warm = session.sql(QUICKSTART_SQL).unwrap();
    let warm_reads = session.catalog().device().io().since(&before).reads;
    assert!(warm.metrics().cache_hits() > 0, "warm run hits");
    assert_eq!(warm.metrics().cache_misses(), 0, "fully resident");
    assert!(
        warm_reads < cold_reads,
        "warm run must read less: {warm_reads} vs {cold_reads}"
    );

    // The pool changes *where* pages come from, never what work is done.
    assert_eq!(exact(cold.rows()), exact(warm.rows()));
    assert_paper_counters_eq(cold.metrics(), warm.metrics(), "cold vs warm");

    // And against a no-pool session over identical data: same rows, same
    // four paper counters, same plan.
    let mut bypass = Session::new();
    register_events(&mut bypass, 2_000);
    let reference = bypass.sql(QUICKSTART_SQL).unwrap();
    assert_eq!(exact(reference.rows()), exact(cold.rows()));
    assert_paper_counters_eq(reference.metrics(), cold.metrics(), "bypass vs pooled");
    assert_eq!(reference.explain(), cold.explain(), "same chosen plan");
}

#[test]
fn spill_runs_flow_through_the_pool() {
    // A 3-block sort budget forces external sorting; with a pool big
    // enough to keep the runs resident, run *reads* during the merge are
    // cache hits, so the device sees fewer reads than the logical
    // run_pages_read charge — while the logical counters match bypass
    // exactly.
    let sql = "SELECT v, k FROM events ORDER BY v, k";
    let mut pooled = Session::builder()
        .sort_memory_blocks(3)
        .buffer_pool_pages(4096)
        .build();
    register_events(&mut pooled, 2_000);
    let mut bypass = Session::builder().sort_memory_blocks(3).build();
    register_events(&mut bypass, 2_000);

    let before = pooled.catalog().device().io();
    let a = pooled.sql(sql).unwrap();
    let pooled_reads = pooled.catalog().device().io().since(&before).reads;
    let before = bypass.catalog().device().io();
    let b = bypass.sql(sql).unwrap();
    let bypass_reads = bypass.catalog().device().io().since(&before).reads;

    assert!(a.metrics().run_io() > 0, "premise: this workload spills");
    assert_eq!(exact(a.rows()), exact(b.rows()));
    assert_paper_counters_eq(a.metrics(), b.metrics(), "pooled vs bypass spill");
    assert!(
        pooled_reads < bypass_reads,
        "resident spill runs must absorb device reads: {pooled_reads} vs {bypass_reads}"
    );
    assert!(a.metrics().cache_hits() > 0, "merge re-reads hit the pool");
}

/// A cleared pool holds nothing: reading the whole heap after `clear`
/// misses exactly once per page, on the in-memory device and on a
/// reopened data file alike, so a read loop timed there prices cold pages.
#[test]
fn a_cleared_pool_misses_once_per_heap_page() {
    let dir = fresh_dir("buffer_pool_cleared");
    let mut durable = open_durable(&dir, 4096);
    register_events(&mut durable, 20_000);
    let mut in_memory = Session::builder().buffer_pool_pages(4096).build();
    register_events(&mut in_memory, 20_000);
    for session in [&durable, &in_memory] {
        session.sql(QUICKSTART_SQL).unwrap();
        let store = session.catalog().store();
        let pool = store.pool().expect("pooled session");
        let pages = session.catalog().tables()["events"].heap.pages().to_vec();
        assert!(pool.resident() >= pages.len(), "premise: the heap is warm");
        pool.clear().unwrap();
        let misses = pool.stats().misses;
        for &page in &pages {
            store.read_page(page).unwrap();
        }
        assert_eq!(pool.stats().misses - misses, pages.len() as u64);
    }
    drop(durable);
    std::fs::remove_dir_all(&dir).expect("clean test dir");
}

#[test]
fn abandoned_scan_leaves_no_frame_pinned() {
    let mut session = Session::builder()
        .buffer_pool_pages(4096)
        .batch_size(64)
        .build();
    register_events(&mut session, 20_000);
    let heap_pages = session.catalog().tables()["events"].heap.block_count();
    let pool = session.catalog().store().pool().expect("pooled session");

    // A Limit above the scan stops pulling after the first batch; the scan
    // under it is dropped with most of the file unread.
    let mut stream = session
        .sql_stream("SELECT k, v FROM events LIMIT 10")
        .unwrap();
    assert_eq!(stream.next_batch().unwrap().expect("ten rows").len(), 10);
    let read = pool.stats().misses;
    assert!(
        read > 0 && read < heap_pages,
        "premise: the scan stopped mid-file ({read} of {heap_pages} pages)"
    );
    // Mid-stream and after it, no reader holds a frame: `clear` empties
    // the pool, and the open stream still finishes.
    pool.clear().unwrap();
    assert_eq!(pool.resident(), 0, "the open scan pins nothing");
    assert!(stream.next_batch().unwrap().is_none());
    drop(stream);
    session.sql("SELECT k, v FROM events LIMIT 10").unwrap();
    pool.clear().unwrap();
    assert_eq!(pool.resident(), 0, "nor does a finished one");
}

#[test]
fn registering_another_table_keeps_the_pool_warm() {
    let mut session = Session::builder().buffer_pool_pages(4096).build();
    register_events(&mut session, 20_000);
    // Whole-statement pool activity: a seek's page probes run while the
    // plan is compiled, before the drain `ExecMetrics` brackets.
    let seek = |session: &Session| {
        let before = session.catalog().store().cache_stats();
        let result = session
            .sql("SELECT k, v FROM events WHERE k = 123")
            .unwrap();
        let delta = session.catalog().store().cache_stats().since(&before);
        (result.rows().to_vec(), delta.hits, delta.misses)
    };
    let (_, _, cold_misses) = seek(&session);
    assert!(cold_misses > 0, "first seek reads cold");
    let (rows, hits, misses) = seek(&session);
    assert!(
        hits > 0 && misses == 0,
        "repeated seek is served by the pool"
    );

    // An unrelated 30-page commit: its own pages are written through and
    // dropped ("bulk load must not warm"), nobody else's frames are.
    let other: Vec<Tuple> = (0..6_000)
        .map(|k| Tuple::new(vec![Value::Int(k), Value::Int(k * 7 % 1_000)]))
        .collect();
    session
        .register_table(
            "other",
            Schema::ints(&["k", "v"]),
            SortOrder::new(["k"]),
            &other,
        )
        .unwrap();
    let (again, hits_again, misses_again) = seek(&session);
    assert_eq!(exact(&again), exact(&rows));
    assert_eq!(
        (hits_again, misses_again),
        (hits, 0),
        "the seek's pages survived the other table's load"
    );
    let loaded = session.sql("SELECT k, v FROM other").unwrap();
    assert_eq!(loaded.metrics().cache_hits(), 0, "bulk load must not warm");
    assert!(loaded.metrics().cache_misses() > 0);
}

/// A fresh per-test data directory under the target tmpdir.
fn fresh_dir(name: &str) -> std::path::PathBuf {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    if dir.exists() {
        std::fs::remove_dir_all(&dir).expect("clear stale test dir");
    }
    dir
}

fn open_durable(dir: &std::path::Path, pool_pages: usize) -> Session {
    pyro::SessionBuilder::new()
        .data_dir(dir)
        .buffer_pool_pages(pool_pages)
        .open()
        .expect("open durable session")
}

fn wal_fsyncs(session: &Session) -> u64 {
    let wal = session.catalog().store().wal().expect("durable session");
    wal.sync_count()
}

/// A durable session checkpointed, dropped and reopened starts cold: its
/// first run reads the data file, and a rerun is served by the pool.
#[test]
fn reopened_durable_session_reads_the_file_then_the_pool() {
    let dir = fresh_dir("buffer_pool_reopen");
    let mut session = open_durable(&dir, 4096);
    register_events(&mut session, 20_000);
    session.checkpoint().unwrap();
    drop(session);

    let session = open_durable(&dir, 4096);
    let run = || {
        let before = session.catalog().device().io();
        let out = session.sql(QUICKSTART_SQL).unwrap();
        let reads = session.catalog().device().io().since(&before).reads;
        (out.metrics().cache_hits(), reads)
    };
    let (_, cold_reads) = run();
    assert!(cold_reads > 0, "the cold run reads the data file");
    let (warm_hits, warm_reads) = run();
    assert!(
        warm_hits > 0 && warm_reads < cold_reads,
        "the rerun is served by the pool: {warm_hits} hits, {warm_reads} vs {cold_reads} reads"
    );
    drop(session);
    std::fs::remove_dir_all(&dir).expect("clean test dir");
}

/// ROADMAP 6(a): inside a mutation window a dirty eviction fsyncs the WAL
/// only when the victim's log record is above the synced watermark, so a
/// load through a pool smaller than the table costs one fsync per pool's
/// worth of pages, not one per page — and no longer takes several times
/// as long as the same load through a pool that holds it.
#[test]
fn load_through_a_small_pool_fsyncs_per_watermark_not_per_page() {
    const ROWS: i64 = 200_000;
    const SMALL_POOL: usize = 400;
    let load = |pool_pages: usize| {
        let dir = fresh_dir(&format!("buffer_pool_load_{pool_pages}"));
        let mut session = open_durable(&dir, pool_pages);
        let before = wal_fsyncs(&session);
        let start = std::time::Instant::now();
        register_events(&mut session, ROWS);
        let took = start.elapsed();
        let fsyncs = wal_fsyncs(&session) - before;
        let pages = session.catalog().tables()["events"].heap.block_count();
        let rows = session.sql("SELECT k, v FROM events").unwrap().rows().len();
        assert_eq!(rows, ROWS as usize);
        drop(session);
        std::fs::remove_dir_all(&dir).expect("clean test dir");
        (took, fsyncs, pages)
    };
    // The time bound is a ratio of two loads on the same machine; one
    // retry absorbs a scheduling hiccup landing in the small-pool run.
    let mut ratio = f64::MAX;
    for _ in 0..2 {
        let (big_took, big_fsyncs, _) = load(2_000);
        let (small_took, small_fsyncs, pages) = load(SMALL_POOL);
        assert!(pages as usize > 2 * SMALL_POOL, "premise: table ≫ pool");
        // Barrier before the load's write-back, commit, and the truncation
        // of the auto-checkpoint this 4 MB log triggers.
        assert_eq!(big_fsyncs, 3);
        assert!(
            small_fsyncs <= pages / SMALL_POOL as u64 + 3,
            "{small_fsyncs} WAL fsyncs for {pages} pages through {SMALL_POOL}"
        );
        ratio = ratio.min(small_took.as_secs_f64() / big_took.as_secs_f64());
        if ratio <= 2.0 {
            break;
        }
    }
    assert!(
        ratio <= 2.0,
        "small-pool load took {ratio:.2}x the big-pool load"
    );
}

/// The exact count behind the bound above. With auto-checkpoint off (so
/// the log's truncation is not counted), a load through a pool a quarter
/// the heap's size fsyncs the WAL once per pool's worth of evictions —
/// three times, the first pool filling without evicting — plus the barrier
/// before the load's write-back and the commit.
#[test]
fn load_through_a_quarter_pool_costs_five_wal_fsyncs() {
    const ROWS: i64 = 50_000;
    let mut sized = Session::new();
    register_events(&mut sized, ROWS);
    let heap_pages = sized.catalog().tables()["events"].heap.block_count();
    let pool_pages = heap_pages as usize / 4;

    let dir = fresh_dir("buffer_pool_quarter_load");
    let mut session = pyro::SessionBuilder::new()
        .data_dir(&dir)
        .buffer_pool_pages(pool_pages)
        .wal_checkpoint_bytes(u64::MAX)
        .open()
        .expect("open durable session");
    let before = wal_fsyncs(&session);
    register_events(&mut session, ROWS);
    let fsyncs = wal_fsyncs(&session) - before;
    let pages = session.catalog().tables()["events"].heap.block_count();
    assert_eq!(pages, heap_pages, "same rows, same pages");
    assert!(
        pages >= 4 * pool_pages as u64,
        "premise: the heap ({pages} pages) is at least 4x the pool ({pool_pages})"
    );
    assert_eq!(
        fsyncs, 5,
        "{pages} pages through {pool_pages} frames: 3 eviction barriers + write-back + commit"
    );
    drop(session);
    std::fs::remove_dir_all(&dir).expect("clean test dir");
}

/// The flush policy is unchanged: a commit the size of `durable_mix`'s
/// costs the two WAL fsyncs it always did — the barrier before the load's
/// pages reach the data file, and the commit itself.
#[test]
fn a_small_commit_costs_two_wal_fsyncs() {
    let dir = fresh_dir("buffer_pool_commit_fsyncs");
    let mut session = open_durable(&dir, 400);
    register_events(&mut session, 20_000);
    for i in 0..3 {
        let rows: Vec<Tuple> = (0..6_000)
            .map(|k| Tuple::new(vec![Value::Int(k), Value::Int(k * 31 % 977 + i)]))
            .collect();
        let before = wal_fsyncs(&session);
        session
            .register_table(
                &format!("batch{i}"),
                Schema::ints(&["k", "v"]),
                SortOrder::new(["k"]),
                &rows,
            )
            .unwrap();
        assert_eq!(wal_fsyncs(&session) - before, 2, "commit {i}");
        session.sql(QUICKSTART_SQL).unwrap();
    }
    drop(session);
    std::fs::remove_dir_all(&dir).expect("clean test dir");
}
