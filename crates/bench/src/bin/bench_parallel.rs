//! Serial vs morsel-parallel micro-benchmarks — the `workers` knob's
//! perf-trajectory file.
//!
//! Each workload is optimized once and then executed from the same plan at
//! `workers = 1` (the serial engine, bit-identical to every previous
//! release) and `workers ∈ {2, 4}`. Two invariants are asserted on every
//! run, on every machine:
//!
//! * **parity** — rows are identical as multisets (exactly, for the ordered
//!   `partial_sort` workload) and all four `ExecMetrics` counters are
//!   bit-identical between serial and parallel execution;
//! * **sanity** — parallel wall-clock does not collapse (speedup well above
//!   the channel-overhead floor).
//!
//! The *speedup gates* — two workers within 10% of one on
//! `scan_filter_project` and `hash_join` (a printed warning in `--smoke`,
//! whose 10-20 ms runs are too short to hold it), and in full mode ≥ 2× at
//! 4 workers — are enforced only when the machine actually has that many
//! cores. Every
//! run records `cpu_cores` and `columnar` next to its timing, so a reader
//! can tell a 1-core container's numbers from a real multicore run, and a
//! kernel run from a row-path one. (`cpu_cores` counts what the OS
//! schedules on: two hyperthreads of one core, or two vCPUs of a busy
//! host, report 2 and scale like 1.)
//!
//! ```bash
//! cargo run --release --bin bench_parallel                    # 1M rows → BENCH_parallel.json
//! cargo run --release --bin bench_parallel -- --smoke         # CI mode
//! cargo run --release --bin bench_parallel -- --out out.json --seed 42
//! ```

use pyro::common::Tuple;
use pyro::core::{CompileOptions, PhysOp};
use pyro::Session;
use pyro_bench::{banner, workloads};
use std::time::Instant;

const BATCH_SIZE: usize = 1024;
const REPS: usize = 5;
const WORKER_COUNTS: [usize; 3] = [1, 2, 4];

#[derive(Debug, Clone)]
struct RunStats {
    elapsed_ms: f64,
    rows: usize,
    comparisons: u64,
    run_pages_written: u64,
    run_pages_read: u64,
    runs_created: u64,
    columnar: bool,
    cpu_cores: usize,
}

fn cpu_cores() -> usize {
    std::thread::available_parallelism()
        .map(|c| c.get())
        .unwrap_or(1)
}

impl RunStats {
    fn json(&self) -> String {
        format!(
            "{{\"elapsed_ms\": {:.3}, \"columnar\": {}, \"cpu_cores\": {}, \"rows\": {}, \"comparisons\": {}, \"run_pages_written\": {}, \"run_pages_read\": {}, \"runs_created\": {}}}",
            self.elapsed_ms,
            self.columnar,
            self.cpu_cores,
            self.rows,
            self.comparisons,
            self.run_pages_written,
            self.run_pages_read,
            self.runs_created
        )
    }
}

/// One execution: compile (including worker spawn) + drain, timed.
fn run_once(session: &Session, sql: &str, workers: usize) -> (RunStats, Vec<Tuple>) {
    let plan = session.plan(sql).expect("plan");
    let options = CompileOptions {
        batch_size: BATCH_SIZE,
        workers,
        columnar: session.columnar(),
        ..CompileOptions::default()
    };
    let start = Instant::now();
    let out = plan
        .compile(session.catalog(), &options)
        .expect("compile")
        .run()
        .expect("run");
    let elapsed_ms = start.elapsed().as_secs_f64() * 1e3;
    let stats = RunStats {
        elapsed_ms,
        rows: out.rows.len(),
        comparisons: out.metrics.comparisons(),
        run_pages_written: out.metrics.run_pages_written(),
        run_pages_read: out.metrics.run_pages_read(),
        runs_created: out.metrics.runs_created(),
        columnar: options.columnar,
        cpu_cores: cpu_cores(),
    };
    (stats, out.rows)
}

/// Interleaved reps (w=1, w=2, w=4, w=1, …) so machine-load drift hits all
/// worker counts equally; keeps each count's fastest rep. The rows of a
/// timed run are dropped at once: keeping result sets alive between timed
/// runs (several million tuples in full mode) makes the next run fault in
/// and fragment fresh allocator memory, which the timing then charges to
/// whichever worker count happens to run next. Row parity has its own
/// untimed pass, [`assert_row_parity`].
fn measure(session: &Session, sql: &str) -> Vec<(usize, RunStats)> {
    let mut best: Vec<Option<RunStats>> = vec![None; WORKER_COUNTS.len()];
    for _ in 0..REPS {
        for (slot, &w) in WORKER_COUNTS.iter().enumerate() {
            let (stats, _) = run_once(session, sql, w);
            if best[slot]
                .as_ref()
                .is_none_or(|b| stats.elapsed_ms < b.elapsed_ms)
            {
                best[slot] = Some(stats);
            }
        }
    }
    WORKER_COUNTS
        .iter()
        .zip(best)
        .map(|(&w, s)| (w, s.expect("reps > 0")))
        .collect()
}

/// Row parity, after the timing: every parallel worker count must produce
/// the serial run's rows — the exact sequence for an `ordered` bench, the
/// same multiset otherwise.
fn assert_row_parity(session: &Session, name: &str, ordered: bool, sql: &str) {
    let rows_at = |workers: usize| {
        let (_, mut rows) = run_once(session, sql, workers);
        if !ordered {
            rows.sort();
        }
        rows
    };
    let serial = rows_at(WORKER_COUNTS[0]);
    for &w in &WORKER_COUNTS[1..] {
        assert!(
            serial == rows_at(w),
            "{name}: {} diverged at workers={w}",
            if ordered {
                "ordered rows"
            } else {
                "row multiset"
            }
        );
    }
}

struct BenchResult {
    name: &'static str,
    rows_in: usize,
    ordered: bool,
    runs: Vec<(usize, RunStats)>,
}

impl BenchResult {
    fn serial(&self) -> &RunStats {
        &self.runs[0].1
    }

    fn speedup_at(&self, workers: usize) -> f64 {
        let par = &self
            .runs
            .iter()
            .find(|(w, _)| *w == workers)
            .expect("measured")
            .1;
        self.serial().elapsed_ms / par.elapsed_ms
    }

    fn json(&self) -> String {
        let runs = self
            .runs
            .iter()
            .map(|(w, s)| format!("        \"workers_{w}\": {}", s.json()))
            .collect::<Vec<_>>()
            .join(",\n");
        format!(
            "    {{\n      \"name\": \"{}\",\n      \"input_rows\": {},\n      \"ordered_output\": {},\n      \"runs\": {{\n{}\n      }},\n      \"speedup_2\": {:.3},\n      \"speedup_4\": {:.3}\n    }}",
            self.name,
            self.rows_in,
            self.ordered,
            runs,
            self.speedup_at(2),
            self.speedup_at(4)
        )
    }
}

/// Parity: the whole point of the exchange design — parallel execution may
/// only change wall-clock, never rows ([`assert_row_parity`]) or the four
/// paper counters.
fn assert_parity(result: &BenchResult) {
    let serial = result.serial();
    for (w, stats) in &result.runs[1..] {
        assert_eq!(serial.rows, stats.rows, "{}: workers={w}", result.name);
        assert_eq!(
            serial.comparisons, stats.comparisons,
            "{}: comparisons diverged at workers={w}",
            result.name
        );
        assert_eq!(
            serial.run_pages_written, stats.run_pages_written,
            "{}: run pages written diverged at workers={w}",
            result.name
        );
        assert_eq!(
            serial.run_pages_read, stats.run_pages_read,
            "{}: run pages read diverged at workers={w}",
            result.name
        );
        assert_eq!(
            serial.runs_created, stats.runs_created,
            "{}: runs created diverged at workers={w}",
            result.name
        );
    }
}

fn run_bench(
    session: &Session,
    name: &'static str,
    rows_in: usize,
    ordered: bool,
    sql: &str,
) -> BenchResult {
    banner(&format!("{name}  ({rows_in} input rows)"));
    let runs = measure(session, sql);
    assert_row_parity(session, name, ordered, sql);
    let result = BenchResult {
        name,
        rows_in,
        ordered,
        runs,
    };
    assert_parity(&result);
    for (w, s) in &result.runs {
        println!(
            "workers={w}    : {:>10.1} ms   ({} rows, {} comparisons, {} run pages)",
            s.elapsed_ms,
            s.rows,
            s.comparisons,
            s.run_pages_written + s.run_pages_read
        );
    }
    println!(
        "speedup      : {:>10.2}x @2   {:.2}x @4",
        result.speedup_at(2),
        result.speedup_at(4)
    );
    result
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_parallel.json".to_string());
    let seed: u64 = args
        .iter()
        .position(|a| a == "--seed")
        .and_then(|i| args.get(i + 1))
        .map(|s| s.parse().expect("--seed takes a u64"))
        .unwrap_or(pyro::datagen::SEED);
    let n: usize = if smoke { 200_000 } else { 1_000_000 };
    let cores = cpu_cores();
    banner(&format!(
        "bench_parallel  (mode={}, cpu_cores={cores}, seed={seed:#x})",
        if smoke { "smoke" } else { "full" }
    ));

    let mut results = Vec::new();

    let (session, sql) = workloads::scan_filter_project(n, seed);
    results.push(run_bench(&session, "scan_filter_project", n, false, sql));

    let (session, sql) = workloads::hash_join(n, seed);
    let plan = session.plan(sql).expect("plan");
    assert!(
        plan.root
            .count_nodes(&|node| matches!(node.op, PhysOp::HashJoin { .. }))
            > 0,
        "hash_join bench plan lost its hash join:\n{}",
        plan.explain()
    );
    results.push(run_bench(&session, "hash_join", n, false, sql));

    // The referee runs this shape at one worker count per workload; the
    // w1 : w2 : w4 ratio of the one-gather, four-probe pipeline lives here.
    let (session, sql) = workloads::star_join(n, seed);
    let plan = session.plan(sql).expect("plan");
    let joins = |hash: bool| {
        plan.root.count_nodes(&|node| match node.op {
            PhysOp::HashJoin { .. } => hash,
            PhysOp::MergeJoin { .. } | PhysOp::NestedLoopsJoin { .. } => !hash,
            _ => false,
        })
    };
    assert!(
        joins(true) == 4 && joins(false) == 0,
        "star_join bench plan is not four hash joins:\n{}",
        plan.explain()
    );
    results.push(run_bench(&session, "star_join", n, false, sql));

    let (session, sql) = workloads::partial_sort(n, seed);
    let result = run_bench(&session, "quickstart_partial_sort", n, true, sql);
    assert_eq!(
        result.serial().run_pages_written + result.serial().run_pages_read,
        0,
        "quickstart invariant violated: partial sort must do zero run I/O"
    );
    results.push(result);

    // Speedup gates, enforced where the hardware can express them. Parity
    // above is unconditional; wall-clock only means something with cores.
    let headline = results
        .iter()
        .find(|r| r.name == "scan_filter_project")
        .expect("headline bench present");
    let join = results
        .iter()
        .find(|r| r.name == "hash_join")
        .expect("join bench");
    if cores >= 4 && !smoke {
        assert!(
            headline.speedup_at(4) >= 2.0,
            "scan_filter_project must reach 2x at 4 workers on a >=4-core machine (got {:.2}x)",
            headline.speedup_at(4)
        );
        assert!(
            join.speedup_at(4) >= 2.0,
            "hash_join must reach 2x at 4 workers on a >=4-core machine (got {:.2}x)",
            join.speedup_at(4)
        );
    }
    if cores >= 2 {
        // A second worker must at least pay for itself. The margin under
        // the nominal "≥ 1×" keeps wall-clock noise on a contended 2-core
        // CI runner from aborting a defect-free build. At smoke size a run
        // is 10-20 ms and two busy vCPUs have measured 0.85-0.90× with no
        // defect anywhere, so there the gate only warns.
        for bench in [headline, join] {
            let speedup = bench.speedup_at(2);
            let message = format!(
                "{} at 2 workers slower than serial on a multicore machine ({speedup:.2}x)",
                bench.name
            );
            if smoke && speedup < 0.9 {
                println!("\nWARNING: {message}");
            } else {
                assert!(speedup >= 0.9, "{message}");
            }
        }
    } else {
        // Single core: threads only add overhead; bound how much.
        assert!(
            headline.speedup_at(2).max(headline.speedup_at(4)) >= 0.3,
            "parallel overhead out of bounds on a 1-core machine ({:.2}x)",
            headline.speedup_at(2).max(headline.speedup_at(4))
        );
        println!(
            "\nNOTE: only {cores} CPU core(s) available — speedup gates skipped, parity still asserted."
        );
    }

    let json = format!(
        "{{\n  \"bench\": \"BENCH_parallel\",\n  \"mode\": \"{}\",\n  \"cpu_cores\": {},\n  \"batch_size\": {},\n  \"reps\": {},\n  \"seed\": {},\n  \"benches\": [\n{}\n  ]\n}}\n",
        if smoke { "smoke" } else { "full" },
        cores,
        BATCH_SIZE,
        REPS,
        seed,
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
