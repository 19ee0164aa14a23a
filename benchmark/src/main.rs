//! `pyro-benchmark` — the one yardstick for pyro: six workloads, four
//! end-to-end metrics and the per-layer metrics that explain them, all
//! measured from outside the engine. See `benchmark/README.md`.
//!
//! ```text
//! pyro-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!     one workload in this process; the last stdout line is the result
//!     object the driver reads (see BENCHMARK.json)
//! pyro-benchmark [--seed <n>] [--seconds <s>] [--runs <r>] [--trace] [--out <file>]
//!     every workload, each run in a child process; writes the result file
//! pyro-benchmark --compare <A.json> <B.json>
//!     applies the bounds to two result files; exit 1 on a regression
//! pyro-benchmark --bless
//!     rewrites benchmark/expected/digests.txt for the default seed
//! ```

mod check;
mod compare;
mod harness;
mod json;
mod metrics;
mod sqlrounds;
mod stats;
mod suite;
mod trace;
mod workloads;

use harness::{peak_rss_mb, Outcome, RunConfig};
use json::Json;
use metrics::{END_TO_END, PER_LAYER, WORKLOADS};
use std::path::PathBuf;
use std::process::ExitCode;

/// The seed the committed digests belong to.
pub const DEFAULT_SEED: u64 = 0x5EED_0DE5;
/// Length of one timed section when `--seconds` is not given; equals
/// `run_seconds` in BENCHMARK.json.
pub const DEFAULT_SECONDS: f64 = 10.0;

/// This package's directory, relative to the working directory: the
/// repository root (where the driver runs) or `benchmark/` itself.
fn package_dir() -> PathBuf {
    if std::path::Path::new("expected/digests.txt").exists() {
        PathBuf::from(".")
    } else {
        PathBuf::from("benchmark")
    }
}

/// Where runs write: scratch data, detail and trace files, results.
pub fn out_dir() -> PathBuf {
    package_dir().join("out")
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    runs: usize,
    out: Option<PathBuf>,
    compare: Option<(PathBuf, PathBuf)>,
    bless: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        runs: 1,
        out: None,
        compare: None,
        bless: false,
    };
    let mut it = argv.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} takes {what}"))
        };
        match flag.as_str() {
            "--workload" => args.workload = Some(value("a workload name")?),
            "--seed" => {
                args.seed = value("a u64")?
                    .parse()
                    .map_err(|_| "--seed takes a u64".to_string())?;
            }
            "--seconds" => {
                args.seconds = value("a number")?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or("--seconds takes a positive number")?;
            }
            "--runs" => {
                args.runs = value("a count")?
                    .parse()
                    .ok()
                    .filter(|r| *r >= 1)
                    .ok_or("--runs takes a count of at least 1")?;
            }
            "--out" => args.out = Some(PathBuf::from(value("a path")?)),
            "--compare" => {
                args.compare = Some((
                    PathBuf::from(value("two paths")?),
                    PathBuf::from(value("two paths")?),
                ));
            }
            "--bless" => args.bless = true,
            // `--trace 0|1` for the driver, bare `--trace` for people.
            "--trace" => {
                args.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

/// The result object's `metrics`: every end-to-end metric of an untraced
/// run, every per-layer metric of a traced one.
fn metrics_of(out: &Outcome, trace: bool) -> Vec<(&'static str, &'static str, f64)> {
    if trace {
        return PER_LAYER
            .iter()
            .map(|m| {
                (
                    m.name,
                    m.unit,
                    out.layers.get(m.name).copied().unwrap_or(0.0),
                )
            })
            .collect();
    }
    END_TO_END
        .iter()
        .map(|m| {
            let value = match m.name {
                "latency_p50_ms" => stats::median(&out.op_ms),
                "throughput_ops_s" if out.timed_s > 0.0 => out.op_ms.len() as f64 / out.timed_s,
                "throughput_ops_s" => 0.0,
                "peak_rss_mb" => peak_rss_mb(),
                "setup_s" => stats::median(&out.setup_s),
                other => unreachable!("no source for end-to-end metric {other}"),
            };
            (m.name, m.unit, value)
        })
        .collect()
}

/// One workload, in this process: the driver's entry point.
fn run_one(name: &str, args: &Args) -> ExitCode {
    let cfg = RunConfig {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        out_dir: out_dir(),
    };
    if let Err(e) = std::fs::create_dir_all(&cfg.out_dir) {
        eprintln!("cannot create {}: {e}", cfg.out_dir.display());
        return ExitCode::from(2);
    }
    let Some(mut out) = workloads::run(name, &cfg) else {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        eprintln!(
            "unknown workload {name}; expected one of {}",
            names.join(", ")
        );
        return ExitCode::from(2);
    };
    if cfg.seed == DEFAULT_SEED {
        let committed = check::committed(name);
        for (stmt, digest) in &out.digests {
            if committed.get(stmt) != Some(digest) {
                out.checker.fail(format!(
                    "{name}.{stmt}: digest ({}, {:016x}) is not the one committed in benchmark/expected/digests.txt — the workload's data changed",
                    digest.rows, digest.checksum
                ));
            }
        }
    }
    out.fill_op_diagnostics();
    let metrics = metrics_of(&out, cfg.trace);

    let summary = stats::summarize(&out.op_ms);
    let detail = Json::obj()
        .with("workload", name)
        .with("seed", cfg.seed)
        .with("seconds", cfg.seconds)
        .with("trace", cfg.trace)
        .with("sizes", std::mem::take(&mut out.detail))
        .with("op_samples", summary.n)
        .with("op_p50_ms", summary.p50)
        .with("op_tail_pct", summary.tail_pct)
        .with("op_tail_ms", summary.tail)
        .with("op_wall_p50_ms", stats::median(&out.op_wall_ms))
        .with("steal_taken_out_s", out.steal_s)
        .with(
            "setup_samples_s",
            out.setup_s
                .iter()
                .map(|s| Json::Num(*s))
                .collect::<Vec<_>>(),
        )
        .with(
            "failures",
            out.checker
                .messages
                .iter()
                .map(|m| Json::from(m.as_str()))
                .collect::<Vec<_>>(),
        );
    let tag = u8::from(cfg.trace);
    let _ = std::fs::write(
        cfg.out_dir.join(format!("detail.{name}.trace{tag}.json")),
        detail.pretty(),
    );
    if let Some(tracer) = &out.tracer {
        let _ = std::fs::write(
            cfg.out_dir.join(format!("trace.{name}.json")),
            trace::to_json(tracer, name, cfg.seed).pretty(),
        );
    }

    println!(
        "{name}  seed={} seconds={} trace={tag}  ops={} (p{} of {} samples = {:.3} ms)",
        cfg.seed, cfg.seconds, out.checker.attempted, summary.tail_pct, summary.n, summary.tail
    );
    for (metric, unit, value) in &metrics {
        println!("  {metric:<34} {value:>16.4} {unit}");
    }
    let correct = out.checker.failed == 0 && out.checker.attempted > 0;
    let result = Json::obj()
        .with("correct", correct)
        .with("attempted", out.checker.attempted.max(1))
        .with("failed", out.checker.failed)
        .with(
            "metrics",
            Json::Obj(
                metrics
                    .iter()
                    .map(|(name, unit, value)| {
                        (
                            name.to_string(),
                            Json::obj().with("value", *value).with("unit", *unit),
                        )
                    })
                    .collect(),
            ),
        );
    println!("{}", result.compact());
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Recomputes every workload's digests for the default seed and commits
/// them to `benchmark/expected/digests.txt`.
fn bless() -> ExitCode {
    let cfg = RunConfig {
        seed: DEFAULT_SEED,
        seconds: 0.2,
        trace: false,
        out_dir: out_dir(),
    };
    let _ = std::fs::create_dir_all(&cfg.out_dir);
    let mut text = String::from(
        "# (rows, order-insensitive checksum) of every checked result at the default seed.\n\
         # Written by `pyro-benchmark --bless`; a mismatch means the workload's data changed.\n",
    );
    for w in WORKLOADS {
        let out = workloads::run(w.name, &cfg).expect("a declared workload");
        if out.checker.failed > 0 {
            eprintln!("{}: not blessing a run with failed checks", w.name);
            return ExitCode::FAILURE;
        }
        text.push_str(&check::render_expected(w.name, &out.digests));
    }
    let path = package_dir().join("expected").join("digests.txt");
    match std::fs::write(&path, text) {
        Ok(()) => {
            println!("wrote {}", path.display());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("cannot write {}: {e}", path.display());
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}\nsee benchmark/README.md for usage");
            return ExitCode::from(2);
        }
    };
    if let Some((a, b)) = &args.compare {
        return compare::run(a, b);
    }
    if args.bless {
        return bless();
    }
    match &args.workload {
        Some(name) => run_one(name, &args),
        None => suite::run(
            args.seed,
            args.seconds,
            args.runs,
            args.trace,
            args.out.clone(),
        ),
    }
}
