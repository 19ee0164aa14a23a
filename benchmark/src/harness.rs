//! What every workload shares: the run configuration and outcome, the
//! closed-loop driver, and the traced run's statement stepping.

use crate::check::{Checker, Digest};
use crate::json::Json;
use crate::stats::{median, summarize};
use crate::trace::Tracer;
use pyro::{PyroError, Session};
use pyro_common::Tuple;
use pyro_core::{OptimizedPlan, Optimizer};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Set-ups per untraced run, at least; `setup_s` is their median. A
/// set-up of tens of ms is repeated until a second has gone into them (at
/// most [`MAX_SETUP_REPS`] times): five samples of 35 ms spread 30% from
/// run to run. The traced run does not report `setup_s` and sets up once.
const SETUP_REPS: usize = 5;
const MAX_SETUP_REPS: usize = 25;
const SETUP_BUDGET_S: f64 = 1.0;

#[derive(Debug, Clone)]
pub struct RunConfig {
    pub seed: u64,
    /// Length of the timed section.
    pub seconds: f64,
    pub trace: bool,
    /// Scratch and output directory (`benchmark/out` in the checkout).
    pub out_dir: PathBuf,
}

impl RunConfig {
    pub fn setup_reps(&self) -> usize {
        if self.trace {
            1
        } else {
            SETUP_REPS
        }
    }
}

/// Everything one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    pub checker: Checker,
    /// One sample per set-up repetition, seconds.
    pub setup_s: Vec<f64>,
    /// Untraced op latencies of the timed section, ms, steal taken out
    /// (see [`Timed`]); `wire_point`'s are plain wall-clock.
    pub op_ms: Vec<f64>,
    /// The same ops' wall-clock latencies, ms.
    pub op_wall_ms: Vec<f64>,
    /// Time the timed section's ops took, seconds, steal taken out: the
    /// sum of the op intervals for a single-generator loop (answer
    /// checking between ops is the harness's time, not the engine's);
    /// first-send to last-reply for `wire_point`'s concurrent clients.
    pub timed_s: f64,
    /// Steal taken out of `timed_s`, seconds.
    pub steal_s: f64,
    /// Per-layer metrics (traced run only); absent names report 0.
    pub layers: BTreeMap<&'static str, f64>,
    /// Sizes, op definition and counts, for the result file.
    pub detail: Json,
    pub tracer: Option<Tracer>,
    /// Digest per statement, as checked — what `--bless` commits.
    pub digests: BTreeMap<String, Digest>,
}

impl Outcome {
    /// Takes over a loop's samples as this run's timed section.
    pub fn set_samples(&mut self, samples: LoopSamples) {
        self.timed_s = samples.total.own().as_secs_f64();
        self.steal_s = samples.total.steal.as_secs_f64();
        self.op_ms = samples.own_ms;
        self.op_wall_ms = samples.wall_ms;
    }

    pub fn new(detail: Json) -> Outcome {
        Outcome {
            detail,
            ..Outcome::default()
        }
    }

    pub fn layer(&mut self, name: &'static str, value: f64) {
        self.layers.insert(name, value);
    }

    /// The `session.*` diagnostics every workload reports from its own op
    /// samples.
    pub fn fill_op_diagnostics(&mut self) {
        let s = summarize(&self.op_ms);
        self.layer("session.op_tail_ms", s.tail);
        self.layer("session.op_tail_pct", s.tail_pct);
        self.layer("session.op_samples", s.n as f64);
        self.layer("session.op_wall_p50_ms", median(&self.op_wall_ms));
        if self.timed_s + self.steal_s > 0.0 {
            self.layer(
                "session.steal_pct",
                self.steal_s / (self.timed_s + self.steal_s) * 100.0,
            );
        }
        let rate = if self.checker.attempted == 0 {
            0.0
        } else {
            self.checker.failed as f64 / self.checker.attempted as f64
        };
        self.layer("session.error_rate", rate);
    }
}

/// Runs `build` `reps` times — more, up to [`MAX_SETUP_REPS`], while all of
/// them together took under a second and `reps` asked for more than one —
/// timing each (steal taken out, as for ops); keeps the last state.
pub fn repeat_setup<S>(reps: usize, mut build: impl FnMut(usize) -> S) -> (S, Vec<f64>) {
    let mut samples: Vec<f64> = Vec::with_capacity(reps);
    let mut state = None;
    loop {
        // Drop the previous state first: two resident copies would double
        // peak RSS and, for a server, hold its threads.
        drop(state.take());
        let (built, took) = timed(|| build(samples.len()));
        state = Some(built);
        samples.push(took.own().as_secs_f64());
        let done = samples.len();
        let short =
            reps > 1 && done < MAX_SETUP_REPS && samples.iter().sum::<f64>() < SETUP_BUDGET_S;
        if done >= reps && !short {
            return (state.expect("set up at least once"), samples);
        }
    }
}

/// What one engine call cost: wall-clock, and how much of it the
/// hypervisor reports having taken from this VM.
///
/// The sandbox is a 2-vCPU VM on a shared host, and `/proc/stat` shows
/// 5-55% steal, in bursts of a few hundred ms that come and go over
/// minutes. Ten 10-second runs of one commit spread 20-60% on wall-clock
/// medians whenever a heavy minute hit a few of them; with each op's
/// stolen time taken out, the same samples spread 5-12%. Steal is the
/// host's doing, not the engine's, so the end-to-end timings are of
/// [`Timed::own`]; the wall-clock figures stay in the detail file and in
/// `session.op_wall_p50_ms`, with `session.steal_pct` beside them.
#[derive(Debug, Clone, Copy, Default)]
pub struct Timed {
    pub wall: Duration,
    /// Steal charged to the call; see [`StealClock::charged_since`].
    pub steal: Duration,
}

impl Timed {
    /// Wall-clock minus steal: the time the VM actually had.
    pub fn own(&self) -> Duration {
        self.wall.saturating_sub(self.steal)
    }
}

impl std::ops::AddAssign for Timed {
    fn add_assign(&mut self, other: Timed) {
        self.wall += other.wall;
        self.steal += other.steal;
    }
}

/// A reading of the per-vCPU steal counters: field 8 of each `cpuN` line
/// of `/proc/stat`, in 10 ms ticks. Empty where the kernel reports none —
/// the timings are then plain wall-clock.
#[derive(Debug, Clone, Default)]
pub struct StealClock(Vec<Duration>);

impl StealClock {
    pub fn now() -> StealClock {
        let per_cpu = std::fs::read_to_string("/proc/stat")
            .map(|stat| {
                stat.lines()
                    .filter(|l| l.starts_with("cpu") && !l.starts_with("cpu "))
                    .filter_map(|l| l.split_whitespace().nth(8)?.parse::<u64>().ok())
                    .map(|ticks| Duration::from_millis(ticks * 10))
                    .collect()
            })
            .unwrap_or_default();
        StealClock(per_cpu)
    }

    fn deltas(&self, earlier: &StealClock) -> Vec<Duration> {
        self.0
            .iter()
            .zip(&earlier.0)
            .map(|(now, then)| now.saturating_sub(*then))
            .collect()
    }

    /// Steal charged to an interval that began at `earlier`: halfway
    /// between the most-stolen vCPU's and the sum over vCPUs.
    ///
    /// An idle vCPU accrues no steal, so for a single-threaded op both are
    /// the steal of the vCPU it ran on. An op that keeps both vCPUs busy
    /// is delayed by between half the sum (its work rebalances) and the
    /// sum (all of it on the critical path); for evenly stolen vCPUs this
    /// is the middle, 0.75 x sum, and the best fit on `scan_join_w2`
    /// samples was 0.8 x sum. Charging the sum there over-corrects by 14%
    /// when steal reaches 55%; charging the maximum under-corrects by 20%.
    pub fn charged_since(&self, earlier: &StealClock) -> Duration {
        let deltas = self.deltas(earlier);
        let sum: Duration = deltas.iter().sum();
        let max = deltas.iter().copied().max().unwrap_or_default();
        (sum + max) / 2
    }

    /// Mean steal per vCPU since `earlier` — what a section that kept
    /// every vCPU busy lost of its wall clock.
    pub fn mean_since(&self, earlier: &StealClock) -> Duration {
        let deltas = self.deltas(earlier);
        match deltas.len() {
            0 => Duration::ZERO,
            n => deltas.iter().sum::<Duration>() / n as u32,
        }
    }
}

/// Runs `f` under the wall clock and the steal counters.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Timed) {
    let before = StealClock::now();
    let start = Instant::now();
    let out = f();
    let wall = start.elapsed();
    let steal = StealClock::now().charged_since(&before);
    (out, Timed { wall, steal })
}

/// The samples of one closed loop.
#[derive(Debug, Default)]
pub struct LoopSamples {
    /// Per op, ms: wall-clock minus steal.
    pub own_ms: Vec<f64>,
    /// Per op, ms: wall-clock.
    pub wall_ms: Vec<f64>,
    /// Sum over the ops.
    pub total: Timed,
}

/// Calls `op(i)` back to back until `seconds` of wall clock have passed
/// and at least `min_ops` calls were made. `op` returns what the engine
/// took — the harness's own checking between ops is excluded from the
/// samples.
pub fn closed_loop(seconds: f64, min_ops: u64, mut op: impl FnMut(u64) -> Timed) -> LoopSamples {
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut samples = LoopSamples::default();
    let mut i = 0;
    loop {
        let took = op(i);
        samples.total += took;
        samples.own_ms.push(took.own().as_secs_f64() * 1e3);
        samples.wall_ms.push(took.wall.as_secs_f64() * 1e3);
        i += 1;
        if i >= min_ops && Instant::now() >= deadline {
            return samples;
        }
    }
}

pub fn err_text(e: &PyroError) -> String {
    format!("engine error: {e}")
}

/// One statement stepped through the layers' public functions — the same
/// calls `Session::sql` makes, each under its own span — with the
/// executor's counters recorded at the span boundary. Returns the rows.
pub fn step_statement(
    tr: &mut Tracer,
    session: &Session,
    label: &str,
    sql: &str,
) -> Result<Vec<Tuple>, PyroError> {
    let catalog = session.catalog();
    let stmt = tr.open(&format!("stmt.{label}"));
    let out = (|| {
        let plan = step_plan(tr, session, sql, "core.optimize")?;
        let pipeline = tr.span("core.compile", || {
            plan.compile_bound_columnar(
                catalog,
                session.batch_size(),
                session.workers(),
                &[],
                session.columnar(),
            )
        })?;
        let io_before = catalog.device().io();
        let pool_before = catalog.store().cache_stats();
        let rows = tr.span(&format!("exec.{label}"), || pipeline.run())?;
        let io = catalog.device().io().since(&io_before);
        let pool = catalog.store().cache_stats().since(&pool_before);
        let m = &rows.metrics;
        for (name, value) in [
            ("exec.comparisons", m.comparisons()),
            ("exec.run_pages_written", m.run_pages_written()),
            ("exec.run_pages_read", m.run_pages_read()),
            ("exec.runs_created", m.runs_created()),
            ("exec.rows_out", rows.rows.len() as u64),
            ("storage.device_reads", io.reads),
            ("storage.device_writes", io.writes),
            ("storage.pool_hits", pool.hits),
            ("storage.pool_misses", pool.misses),
            ("storage.pool_evictions", pool.evictions),
            ("storage.pool_writebacks", pool.writebacks),
        ] {
            tr.count(name, value as f64);
        }
        Ok(rows.rows)
    })();
    tr.close(stmt);
    out
}

/// The planning half of [`step_statement`] — what an uncached
/// `Session::plan` does — with the optimizer's search accounting recorded.
/// `optimize_span` names the optimize step, so a caller can keep one
/// statement's planning apart from the rest.
pub fn step_plan(
    tr: &mut Tracer,
    session: &Session,
    sql: &str,
    optimize_span: &str,
) -> Result<OptimizedPlan, PyroError> {
    let catalog = session.catalog();
    tr.span("sql.normalize", || pyro_sql::normalize(sql))?;
    let (logical, _params) = tr.span("sql.parse_lower", || {
        pyro_sql::plan_with_params(sql, catalog)
    })?;
    let plan = tr.span(optimize_span, || {
        Optimizer::new(catalog)
            .with_strategy(session.strategy())
            .with_hash(session.hash_operators())
            .with_enum_strategy(session.enum_strategy())
            .with_join_enum_threshold(session.join_enum_threshold())
            .optimize(&logical)
    })?;
    tr.count("core.groups", plan.planning.groups as f64);
    tr.count("core.candidates", plan.planning.candidates as f64);
    tr.count("core.reordered_joins", plan.planning.reordered_joins as f64);
    Ok(plan)
}

/// Median duration of spans named `span`, in µs.
pub fn median_us(tr: &Tracer, span: &str) -> f64 {
    median(&tr.durations_ms(span)) * 1e3
}

/// Sum of counter `name` over the spans of op `op` — for counts that are
/// stated per round and must repeat exactly.
pub fn counter_for_op(tr: &Tracer, name: &str, op: u64) -> f64 {
    tr.counters
        .iter()
        .filter(|c| c.op == op && c.name == name)
        .map(|c| c.value)
        .sum::<f64>()
        + 0.0 // an empty float sum is -0.0
}

/// Sum of counter `name` over the whole traced run.
pub fn counter_total(tr: &Tracer, name: &str) -> f64 {
    tr.counter_values(name).iter().sum::<f64>() + 0.0
}

/// Fills the layer metrics every stepped workload derives the same way:
/// the `sql.*` / `core.*` step medians, the per-round exact counters (read
/// off the first traced op), the storage deltas, and the validity figures
/// of the breakdown itself. Traced ops are numbered from 0.
///
/// `untraced_ms` are `Session::sql` op samples taken in the same run,
/// interleaved with the traced ops, so both see the same machine state.
pub fn fill_stepped_layers(out: &mut Outcome, tr: &Tracer, traced_ops: u64, untraced_ms: &[f64]) {
    out.layer("sql.normalize_us", median_us(tr, "sql.normalize"));
    out.layer("sql.parse_lower_us", median_us(tr, "sql.parse_lower"));
    out.layer("core.optimize_us", median_us(tr, "core.optimize"));
    out.layer("core.compile_us", median_us(tr, "core.compile"));
    for name in [
        "core.groups",
        "core.candidates",
        "core.reordered_joins",
        "exec.comparisons",
        "exec.run_pages_written",
        "exec.run_pages_read",
        "exec.runs_created",
        "exec.rows_out",
    ] {
        out.layer(name, counter_for_op(tr, name, 0));
    }
    for name in [
        "storage.device_reads",
        "storage.device_writes",
        "storage.pool_evictions",
        "storage.pool_writebacks",
    ] {
        out.layer(name, counter_total(tr, name));
    }
    let hits = counter_total(tr, "storage.pool_hits");
    let misses = counter_total(tr, "storage.pool_misses");
    if hits + misses > 0.0 {
        out.layer("storage.pool_hit_rate", hits / (hits + misses));
    }

    // Per traced op: the statement spans, and the step spans under them.
    let mut stmt_ns = vec![0u64; traced_ops as usize];
    let mut step_ns = vec![0u64; traced_ops as usize];
    let mut exec_ns = 0u64;
    for s in &tr.spans {
        let slot = s.op as usize;
        if slot >= stmt_ns.len() {
            continue;
        }
        if s.name.starts_with("stmt.") {
            stmt_ns[slot] += s.dur_ns();
        } else if s
            .parent
            .is_some_and(|p| tr.spans[p as usize].name.starts_with("stmt."))
        {
            step_ns[slot] += s.dur_ns();
            if s.name.starts_with("exec.") {
                exec_ns += s.dur_ns();
            }
        }
    }
    let total_stmt: u64 = stmt_ns.iter().sum();
    if total_stmt > 0 {
        out.layer(
            "session.exec_share_pct",
            exec_ns as f64 / total_stmt as f64 * 100.0,
        );
    }
    let untraced = median(untraced_ms);
    if untraced > 0.0 {
        let to_ms = |ns: &[u64]| median(&ns.iter().map(|n| *n as f64 / 1e6).collect::<Vec<_>>());
        out.layer(
            "session.trace_coverage_pct",
            to_ms(&step_ns) / untraced * 100.0,
        );
        out.layer(
            "session.trace_overhead_pct",
            (to_ms(&stmt_ns) - untraced) / untraced * 100.0,
        );
    }
}

/// Peak resident set of this process, MB (`VmHWM`); 0 where `/proc` has no
/// such line.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn clock(ms: &[u64]) -> StealClock {
        StealClock(ms.iter().map(|m| Duration::from_millis(*m)).collect())
    }

    #[test]
    fn steal_is_charged_between_the_worst_vcpu_and_the_sum() {
        let start = clock(&[100, 200]);
        // One busy vCPU: max == sum == its steal.
        assert_eq!(
            clock(&[140, 200]).charged_since(&start),
            Duration::from_millis(40)
        );
        // Both stolen evenly: three quarters of the sum.
        assert_eq!(
            clock(&[140, 240]).charged_since(&start),
            Duration::from_millis(60)
        );
        assert_eq!(
            clock(&[140, 240]).mean_since(&start),
            Duration::from_millis(40)
        );
        // No counters (or a counter that went backwards): nothing charged.
        assert_eq!(clock(&[]).charged_since(&clock(&[])), Duration::ZERO);
        assert_eq!(clock(&[90, 200]).charged_since(&start), Duration::ZERO);
    }

    #[test]
    fn own_time_is_wall_minus_steal_and_never_negative() {
        let mut t = Timed {
            wall: Duration::from_millis(100),
            steal: Duration::from_millis(30),
        };
        assert_eq!(t.own(), Duration::from_millis(70));
        t += Timed {
            wall: Duration::from_millis(10),
            steal: Duration::from_millis(200),
        };
        assert_eq!(t.own(), Duration::ZERO);
    }

    #[test]
    fn closed_loop_runs_min_ops_even_past_the_deadline() {
        let samples = closed_loop(0.0, 3, |_| Timed {
            wall: Duration::from_millis(2),
            steal: Duration::from_millis(1),
        });
        assert_eq!(samples.own_ms, vec![1.0, 1.0, 1.0]);
        assert_eq!(samples.wall_ms, vec![2.0, 2.0, 2.0]);
        assert_eq!(samples.total.own(), Duration::from_millis(3));
    }
}
