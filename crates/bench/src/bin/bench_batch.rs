//! Batch-engine micro-benchmarks — the perf trajectory seed.
//!
//! Three pipelines, each timed at the default batch size from the same
//! optimized plan, and run once more one row per pull (batch size 1, the
//! batch contract's reference): the two must produce identical rows,
//! `comparisons` and `run_io` counters — batching is a CPU-efficiency
//! change, not a semantics change. The third, `quickstart_partial_sort`,
//! is the paper's own hot path: a partial sort of 1,000-row segments.
//!
//! A fourth section reruns the quickstart workload under a bounded buffer
//! pool: the cold run reads every heap page from the device, the warm
//! rerun must report `cache_hits > 0` and strictly fewer device reads
//! (asserted in every mode, `--smoke` included).
//!
//! A fifth section repeats that on the durable `FileDevice` (cold reopen,
//! warm rerun) and prices the cold-page path on its own: µs per page of a
//! cold read loop over the same heap through the file device and through
//! the pooled in-memory device, and the WAL fsyncs of a load through a
//! pool a quarter the table's size — a count, gated exactly in every mode,
//! as is the CRC-32 check value.
//!
//! ```bash
//! cargo run --release --bin bench_batch                  # 1M rows, writes BENCH_batch.json
//! cargo run --release --bin bench_batch -- --smoke       # small CI mode
//! cargo run --release --bin bench_batch -- --out out.json
//! ```

use pyro::core::{CompileOptions, PhysOp};
use pyro::Session;
use pyro_bench::{banner, workloads};
use std::path::Path;
use std::time::Instant;

const BATCH_SIZE: usize = 1024;
const REPS: usize = 5;

#[derive(Debug, Clone)]
struct PathStats {
    elapsed_ms: f64,
    rows: usize,
    rows_per_sec: f64,
    comparisons: u64,
    run_io: u64,
}

impl PathStats {
    fn json(&self) -> String {
        format!(
            "{{\"elapsed_ms\": {:.3}, \"rows\": {}, \"rows_per_sec\": {:.0}, \"comparisons\": {}, \"run_io\": {}}}",
            self.elapsed_ms, self.rows, self.rows_per_sec, self.comparisons, self.run_io
        )
    }
}

/// Runs one timed execution of `sql` over a freshly compiled pipeline at
/// `batch_size` rows per pull.
fn run_once(session: &Session, sql: &str, batch_size: usize) -> PathStats {
    let plan = session.plan(sql).expect("plan");
    let start = Instant::now();
    let options = CompileOptions {
        batch_size,
        ..CompileOptions::default()
    };
    let pipeline = plan.compile(session.catalog(), &options).expect("compile");
    let out = pipeline.run().expect("run");
    let elapsed = start.elapsed().as_secs_f64();
    PathStats {
        elapsed_ms: elapsed * 1e3,
        rows: out.rows.len(),
        rows_per_sec: out.rows.len() as f64 / elapsed,
        comparisons: out.metrics.comparisons(),
        run_io: out.metrics.run_io(),
    }
}

struct BenchResult {
    name: &'static str,
    rows_in: usize,
    /// The fastest of [`REPS`] runs at [`BATCH_SIZE`].
    batch: PathStats,
}

impl BenchResult {
    fn json(&self) -> String {
        format!(
            "    {{\n      \"name\": \"{}\",\n      \"input_rows\": {},\n      \"batch\": {}\n    }}",
            self.name,
            self.rows_in,
            self.batch.json(),
        )
    }
}

fn run_bench(session: &Session, name: &'static str, rows_in: usize, sql: &str) -> BenchResult {
    banner(&format!("{name}  ({rows_in} input rows)"));
    let batch = (0..REPS)
        .map(|_| run_once(session, sql, BATCH_SIZE))
        .min_by(|a, b| a.elapsed_ms.total_cmp(&b.elapsed_ms))
        .expect("reps > 0");
    let one_row = run_once(session, sql, 1);
    assert_eq!(
        one_row.rows, batch.rows,
        "{name}: row counts diverged between batch sizes"
    );
    assert_eq!(
        one_row.comparisons, batch.comparisons,
        "{name}: comparison counters diverged between batch sizes"
    );
    assert_eq!(
        one_row.run_io, batch.run_io,
        "{name}: run-I/O counters diverged between batch sizes"
    );
    println!(
        "batch {BATCH_SIZE}   : {:>10.1} ms  {:>12.0} rows/s  (comparisons {} / run_io {} at batch sizes 1 and {BATCH_SIZE})",
        batch.elapsed_ms, batch.rows_per_sec, batch.comparisons, batch.run_io
    );
    BenchResult {
        name,
        rows_in,
        batch,
    }
}

/// One run's cache-facing stats under the bounded pool.
#[derive(Debug, Clone, Copy)]
struct PoolRunStats {
    elapsed_ms: f64,
    device_reads: u64,
    cache_hits: u64,
    cache_misses: u64,
}

impl PoolRunStats {
    fn json(&self) -> String {
        format!(
            "{{\"elapsed_ms\": {:.3}, \"device_reads\": {}, \"cache_hits\": {}, \"cache_misses\": {}}}",
            self.elapsed_ms, self.device_reads, self.cache_hits, self.cache_misses
        )
    }

    fn hit_rate(&self) -> f64 {
        pyro::storage::CacheStats {
            hits: self.cache_hits,
            misses: self.cache_misses,
            ..Default::default()
        }
        .hit_rate()
    }
}

fn run_pooled_once(session: &Session, sql: &str) -> PoolRunStats {
    let before = session.catalog().device().io();
    let start = Instant::now();
    let out = session.sql(sql).expect("pooled run");
    let elapsed_ms = start.elapsed().as_secs_f64() * 1e3;
    PoolRunStats {
        elapsed_ms,
        device_reads: session.catalog().device().io().since(&before).reads,
        cache_hits: out.metrics().cache_hits(),
        cache_misses: out.metrics().cache_misses(),
    }
}

/// Cold run then warm rerun of the quickstart workload under a pool big
/// enough to hold the heap; asserts the warm run actually got warm.
fn run_pool_bench(n: usize, seed: u64, pool_pages: usize) -> String {
    banner(&format!(
        "buffer_pool warm rerun  ({n} input rows, {pool_pages}-page pool)"
    ));
    let (session, sql) = workloads::partial_sort_with_pool(n, seed, pool_pages);
    let cold = run_pooled_once(&session, sql);
    let warm = run_pooled_once(&session, sql);
    println!(
        "cold : {:>10.1} ms  {:>8} device reads  ({} misses, {} hits)",
        cold.elapsed_ms, cold.device_reads, cold.cache_misses, cold.cache_hits
    );
    println!(
        "warm : {:>10.1} ms  {:>8} device reads  ({} misses, {} hits, hit rate {:.2})",
        warm.elapsed_ms,
        warm.device_reads,
        warm.cache_misses,
        warm.cache_hits,
        warm.hit_rate()
    );
    assert!(
        warm.cache_hits > 0,
        "warm rerun under a bounded pool must hit the cache"
    );
    assert!(
        warm.device_reads < cold.device_reads,
        "warm rerun must read the device less: {} vs {}",
        warm.device_reads,
        cold.device_reads
    );
    format!(
        "  \"buffer_pool\": {{\n    \"pool_pages\": {},\n    \"cold\": {},\n    \"warm\": {},\n    \"warm_hit_rate\": {:.3}\n  }},",
        pool_pages,
        cold.json(),
        warm.json(),
        warm.hit_rate()
    )
}

/// µs per page of reading `events`' whole heap through the session's
/// store with nothing resident: every read is a pool miss, so this is the
/// device's cold-page cost plus the pool's bookkeeping. Leaves the pool
/// as cold as it found it.
fn cold_us_per_page(session: &Session) -> (f64, usize) {
    let store = session.catalog().store();
    let pool = store.pool().expect("a pooled session");
    let pages = session.catalog().tables()["events"].heap.pages().to_vec();
    pool.clear().expect("clear pool");
    let misses = pool.stats().misses;
    let start = Instant::now();
    for &page in &pages {
        std::hint::black_box(store.read_page(page).expect("cold read"));
    }
    let us = start.elapsed().as_secs_f64() * 1e6 / pages.len() as f64;
    assert_eq!(pool.stats().misses - misses, pages.len() as u64);
    pool.clear().expect("clear pool");
    (us, pages.len())
}

/// WAL fsyncs of bulk-loading the workload through a pool a quarter the
/// heap's size (auto-checkpoint off, so the log's own truncation is not in
/// the count). The barrier fsyncs only for a victim logged after the last
/// fsync, which happens once per pool's worth of evictions: three times
/// here, plus the barrier before the load's write-back and the commit.
fn quarter_pool_load_fsyncs(n: usize, seed: u64, heap_pages: usize, dir: &Path) -> (usize, u64) {
    let pool_pages = heap_pages / 4;
    let mut session = pyro::SessionBuilder::new()
        .data_dir(dir)
        .buffer_pool_pages(pool_pages)
        .wal_checkpoint_bytes(u64::MAX)
        .seed(seed)
        .open()
        .expect("open quarter-pool bench session");
    let wal = session.catalog().store().wal().expect("durable").clone();
    let before = wal.sync_count();
    workloads::register_events(&mut session, n);
    let fsyncs = wal.sync_count() - before;
    assert_eq!(
        fsyncs, 5,
        "a {heap_pages}-page load through {pool_pages} frames must cost 3 barrier \
         fsyncs + write-back barrier + commit"
    );
    (pool_pages, fsyncs)
}

/// Cold open then warm rerun of the quickstart workload on the durable
/// [`pyro::storage::FileDevice`]: register + checkpoint + drop, then
/// reopen the data directory so the cold run pays real file reads and the
/// warm rerun is served by the pool.
fn run_durable_bench(n: usize, seed: u64, pool_pages: usize) -> String {
    banner(&format!(
        "durable file-backed rerun  ({n} input rows, {pool_pages}-page pool)"
    ));
    let dir = std::env::temp_dir().join(format!("pyro_bench_durable_{}", std::process::id()));
    if dir.exists() {
        std::fs::remove_dir_all(&dir).expect("clear stale bench dir");
    }
    let sql = {
        let (session, sql) =
            workloads::partial_sort_durable(n, seed, pool_pages, &dir.join("main"));
        session.checkpoint().expect("checkpoint");
        sql
    };
    let session = pyro::SessionBuilder::new()
        .data_dir(dir.join("main"))
        .buffer_pool_pages(pool_pages)
        .seed(seed)
        .open()
        .expect("reopen durable bench session");
    let (file_us, heap_pages) = cold_us_per_page(&session);
    let (sim_us, sim_pages) =
        cold_us_per_page(&workloads::partial_sort_with_pool(n, seed, pool_pages).0);
    assert_eq!(heap_pages, sim_pages, "same rows, same pages");
    println!(
        "cold page: {file_us:>6.2} us on the file device, {sim_us:.2} us on the pooled \
         in-memory device  ({heap_pages} pages)"
    );
    let (quarter_pool, fsyncs) =
        quarter_pool_load_fsyncs(n, seed, heap_pages, &dir.join("quarter"));
    println!("load through a {quarter_pool}-page pool: {fsyncs} WAL fsyncs");
    let cold = run_pooled_once(&session, sql);
    let warm = run_pooled_once(&session, sql);
    println!(
        "cold : {:>10.1} ms  {:>8} device reads  ({} misses, {} hits)",
        cold.elapsed_ms, cold.device_reads, cold.cache_misses, cold.cache_hits
    );
    println!(
        "warm : {:>10.1} ms  {:>8} device reads  ({} misses, {} hits, hit rate {:.2})",
        warm.elapsed_ms,
        warm.device_reads,
        warm.cache_misses,
        warm.cache_hits,
        warm.hit_rate()
    );
    assert!(
        cold.device_reads > 0,
        "the cold durable run must read the data file"
    );
    assert!(
        warm.cache_hits > 0 && warm.device_reads < cold.device_reads,
        "warm durable rerun must be served by the pool: {} hits, {} vs {} reads",
        warm.cache_hits,
        warm.device_reads,
        cold.device_reads
    );
    std::fs::remove_dir_all(&dir).expect("clean bench dir");
    format!(
        "  \"durable_file\": {{\n    \"pool_pages\": {},\n    \"cold\": {},\n    \"warm\": {},\n    \"warm_hit_rate\": {:.3},\n    \"cold_us_per_page\": {{\"heap_pages\": {}, \"file_device\": {:.3}, \"pooled_sim_device\": {:.3}}},\n    \"quarter_pool_load\": {{\"pool_pages\": {}, \"wal_fsyncs\": {}}}\n  }},",
        pool_pages,
        cold.json(),
        warm.json(),
        warm.hit_rate(),
        heap_pages,
        file_us,
        sim_us,
        quarter_pool,
        fsyncs
    )
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_batch.json".to_string());
    let seed: u64 = args
        .iter()
        .position(|a| a == "--seed")
        .and_then(|i| args.get(i + 1))
        .map(|s| s.parse().expect("--seed takes a u64"))
        .unwrap_or(pyro::datagen::SEED);
    let n: usize = if smoke { 50_000 } else { 1_000_000 };

    // Every page slot and WAL record on disk carries this function's
    // output: the standard check value pins polynomial, init and final XOR.
    assert_eq!(
        pyro::storage::crc32(b"123456789"),
        0xCBF4_3926,
        "CRC-32/IEEE check value"
    );

    let mut results = Vec::new();

    let (session, sql) = workloads::scan_filter_project(n, seed);
    results.push(run_bench(&session, "scan_filter_project", n, sql));

    let (session, sql) = workloads::hash_join(n, seed);
    // The optimizer must actually have picked a hash join, or the numbers
    // would describe a different operator.
    let plan = session.plan(sql).expect("plan");
    assert!(
        plan.root
            .count_nodes(&|node| matches!(node.op, PhysOp::HashJoin { .. }))
            > 0,
        "hash_join bench plan lost its hash join:\n{}",
        plan.explain()
    );
    results.push(run_bench(&session, "hash_join", n, sql));

    let (session, sql) = workloads::partial_sort(n, seed);
    let result = run_bench(&session, "quickstart_partial_sort", n, sql);
    assert_eq!(
        result.batch.run_io, 0,
        "quickstart invariant violated: partial sort must do zero run I/O"
    );
    assert!(result.batch.comparisons > 0);
    results.push(result);

    // Bounded-pool warm rerun: sized to hold the whole events heap
    // (~20 B/row at 4 KB blocks → n/200 pages, rounded up generously).
    let pool_pages = (n / 100).max(256);
    let pool_json = run_pool_bench(n, seed, pool_pages);

    // The same workload off the durable FileDevice: cold reopen vs warm.
    let durable_json = run_durable_bench(n, seed, pool_pages);

    // Recorded so archived numbers can be normalized across machines.
    let cpu_cores = std::thread::available_parallelism().map_or(0, usize::from);
    let json = format!(
        "{{\n  \"bench\": \"BENCH_batch\",\n  \"mode\": \"{}\",\n  \"batch_size\": {},\n  \"reps\": {},\n  \"cpu_cores\": {},\n{}\n{}\n  \"benches\": [\n{}\n  ]\n}}\n",
        if smoke { "smoke" } else { "full" },
        BATCH_SIZE,
        REPS,
        cpu_cores,
        pool_json,
        durable_json,
        results
            .iter()
            .map(BenchResult::json)
            .collect::<Vec<_>>()
            .join(",\n")
    );
    std::fs::write(&out_path, &json).expect("write bench json");
    banner(&format!("wrote {out_path}"));
    println!("{json}");
}
