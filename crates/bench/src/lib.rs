//! # pyro-bench
//!
//! Shared plumbing for the figure-regeneration binaries (`src/bin/fig*.rs`)
//! and the `bench_*` measurement bins. Each binary reproduces one figure or
//! experiment of the paper; see `DESIGN.md` §5 for the full index and
//! `EXPERIMENTS.md` for paper-vs-measured notes.

use pyro_catalog::Catalog;
use pyro_common::Result;
use pyro_core::plan::{PhysNode, PhysOp};
use pyro_core::{CompileOptions, OptimizedPlan};
use pyro_exec::MetricsRef;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Pretty banner for experiment output.
pub fn banner(title: &str) {
    println!("\n==================================================================");
    println!("{title}");
    println!("==================================================================");
}

/// Result of one measured execution.
#[derive(Debug, Clone)]
pub struct RunStats {
    /// Wall-clock duration.
    pub elapsed: Duration,
    /// Rows returned.
    pub rows: usize,
    /// Scalar key comparisons.
    pub comparisons: u64,
    /// Sort-spill pages (read + written).
    pub run_io: u64,
    /// Device block reads during execution.
    pub device_reads: u64,
}

impl RunStats {
    /// Milliseconds as f64 for table printing.
    pub fn ms(&self) -> f64 {
        self.elapsed.as_secs_f64() * 1e3
    }
}

/// Compiles a plan with the default options, executes it and gathers
/// statistics.
pub fn run_plan(plan: &OptimizedPlan, catalog: &Catalog) -> Result<RunStats> {
    let pipeline = plan.compile(catalog, &CompileOptions::default())?;
    let before = catalog.device().io();
    let start = Instant::now();
    let out = pipeline.run()?;
    let elapsed = start.elapsed();
    Ok(stats_of(
        elapsed,
        out.rows.len(),
        &out.metrics,
        catalog,
        before,
    ))
}

fn stats_of(
    elapsed: Duration,
    rows: usize,
    metrics: &MetricsRef,
    catalog: &Catalog,
    before: pyro_storage::IoSnapshot,
) -> RunStats {
    let delta = catalog.device().io().since(&before);
    RunStats {
        elapsed,
        rows,
        comparisons: metrics.comparisons(),
        run_io: metrics.run_io(),
        device_reads: delta.reads,
    }
}

/// Rewrites every `PartialSort` enforcer in a plan into a full `Sort` —
/// the surgical "same plan, standard replacement selection instead of
/// modified" comparison the paper's Experiments A1/A4 make.
pub fn degrade_partial_sorts(node: &Arc<PhysNode>) -> Arc<PhysNode> {
    let children: Vec<Arc<PhysNode>> = node.children.iter().map(degrade_partial_sorts).collect();
    let op = match &node.op {
        PhysOp::PartialSort { target, .. } => PhysOp::Sort {
            target: target.clone(),
        },
        other => other.clone(),
    };
    Arc::new(PhysNode {
        op,
        children,
        schema: node.schema.clone(),
        out_order: node.out_order.clone(),
        cost: node.cost,
        rows: node.rows,
        logical: node.logical,
    })
}

/// The paper's Query 3 ("parts running out of stock").
pub const QUERY3: &str = "SELECT ps_suppkey, ps_partkey, ps_availqty, sum(l_quantity) AS total \
     FROM partsupp, lineitem \
     WHERE ps_suppkey = l_suppkey AND ps_partkey = l_partkey AND l_linestatus = 'O' \
     GROUP BY ps_availqty, ps_partkey, ps_suppkey \
     HAVING sum(l_quantity) > ps_availqty \
     ORDER BY ps_partkey";

/// The paper's Query 2 (Experiment A4).
pub const QUERY2: &str = "SELECT ps_suppkey, ps_partkey, ps_availqty, count(l_partkey) AS n \
     FROM partsupp, lineitem \
     WHERE ps_suppkey = l_suppkey AND ps_partkey = l_partkey \
     GROUP BY ps_suppkey, ps_partkey, ps_availqty \
     ORDER BY ps_suppkey, ps_partkey";

/// The paper's Query 4 (Experiment B2).
pub const QUERY4: &str = "SELECT * FROM r1 FULL OUTER JOIN r2 \
     ON (r1.c5 = r2.c5 AND r1.c4 = r2.c4 AND r1.c3 = r2.c3) \
     FULL OUTER JOIN r3 \
     ON (r3.c1 = r1.c1 AND r3.c4 = r1.c4 AND r3.c5 = r1.c5)";

/// The paper's Query 5 (`min()` wrapper documented in `EXPERIMENTS.md`).
pub const QUERY5: &str =
    "SELECT t1.userid, t1.basketid, t1.parentorderid, t1.waveid, t1.childorderid, \
            min(t1.quantity * t1.price) AS ordervalue, \
            sum(t2.quantity * t2.price) AS executedvalue \
     FROM tran t1, tran t2 \
     WHERE t1.userid = t2.userid AND t1.parentorderid = t2.parentorderid \
       AND t1.basketid = t2.basketid AND t1.waveid = t2.waveid \
       AND t1.childorderid = t2.childorderid \
       AND t1.trantype = 'New' AND t2.trantype = 'Executed' \
     GROUP BY t1.userid, t1.basketid, t1.parentorderid, t1.waveid, t1.childorderid";

/// The paper's Query 6.
pub const QUERY6: &str = "SELECT * FROM basket b, analytics a \
     WHERE b.prodtype = a.prodtype AND b.symbol = a.symbol AND b.exchange = a.exchange";

/// Example 1's consolidation query (Figs. 1-2).
pub const EXAMPLE1: &str = "SELECT c1.make, c1.year, c1.city, c1.color, c1.sellreason, \
            c2.breakdowns, r.rating \
     FROM catalog1 c1, catalog2 c2, rating r \
     WHERE c1.city = c2.city AND c1.make = c2.make AND c1.year = c2.year \
       AND c1.color = c2.color AND c1.make = r.make AND c1.year = r.year \
     ORDER BY c1.make, c1.year, c1.color, c1.city, c1.sellreason, c2.breakdowns, r.rating";

/// The three micro-bench workloads shared by `bench_batch` and
/// `bench_parallel`. Each builds a session whose RNG seed is the one knob
/// (`SessionBuilder::seed`) that decides the generated data, so the two
/// harnesses — and any two runs — populate bit-identical tables from the
/// same seed.
pub mod workloads {
    use pyro::common::{Schema, Tuple, Value};
    use pyro::{Session, SortOrder};
    use pyro_datagen::rng_with;

    /// scan → filter → project over a 3-int-column table; the two-conjunct
    /// predicate keeps ~50% of the rows.
    pub fn scan_filter_project(n: usize, seed: u64) -> (Session, &'static str) {
        let mut session = Session::builder().seed(seed).build();
        let mut r = rng_with(session.seed());
        let rows: Vec<Tuple> = (0..n as i64)
            .map(|i| {
                Tuple::new(vec![
                    Value::Int(i),
                    Value::Int(r.gen_range(0..1_000_000)),
                    Value::Int(r.gen_range(0..97)),
                ])
            })
            .collect();
        session
            .register_table(
                "points",
                Schema::ints(&["a", "b", "c"]),
                SortOrder::new(["a"]),
                &rows,
            )
            .expect("register points");
        (
            session,
            "SELECT a, c FROM points WHERE b < 750000 AND c < 65",
        )
    }

    /// Hash join: an `n`-row fact probing an `n/10`-row dim build side.
    pub fn hash_join(n: usize, seed: u64) -> (Session, &'static str) {
        let dim_n = (n / 10).max(1);
        let mut session = Session::builder().seed(seed).build();
        let mut r = rng_with(session.seed());
        let dim: Vec<Tuple> = (0..dim_n as i64)
            .map(|i| Tuple::new(vec![Value::Int(i), Value::Int(i * 3)]))
            .collect();
        let fact: Vec<Tuple> = (0..n as i64)
            .map(|i| {
                Tuple::new(vec![
                    Value::Int(i),
                    Value::Int(r.gen_range(0..dim_n as i64)),
                ])
            })
            .collect();
        session
            .register_table(
                "dim",
                Schema::ints(&["d_k", "d_v"]),
                SortOrder::new(["d_k"]),
                &dim,
            )
            .expect("register dim");
        session
            .register_table(
                "fact",
                Schema::ints(&["f_k", "f_d"]),
                SortOrder::new(["f_k"]),
                &fact,
            )
            .expect("register fact");
        (session, "SELECT * FROM dim, fact WHERE d_k = f_d")
    }

    /// Five-way star join, the shape of the referee's `star5`: an `n`-row
    /// fact table, four dimensions of `n / 20` rows, and a filter keeping 5%
    /// of the dimension written last.
    pub fn star_join(n: usize, seed: u64) -> (Session, &'static str) {
        let dim_n = (n / 20).max(1) as i64;
        let mut session = Session::builder().seed(seed).build();
        let mut r = rng_with(session.seed());
        let fact: Vec<Tuple> = (0..n as i64)
            .map(|id| {
                let mut row = vec![Value::Int(id)];
                row.extend((0..4).map(|_| Value::Int(r.gen_range(0..dim_n))));
                row.push(Value::Int(r.gen_range(0..1_000_000)));
                Tuple::new(row)
            })
            .collect();
        session
            .register_table(
                "sfact",
                Schema::ints(&["s_id", "s_d1", "s_d2", "s_d3", "s_d4", "s_m"]),
                SortOrder::new(["s_id"]),
                &fact,
            )
            .expect("register sfact");
        for i in 1..=4 {
            let (k, a) = (format!("k{i}"), format!("a{i}"));
            let rows: Vec<Tuple> = (0..dim_n)
                .map(|key| Tuple::new(vec![Value::Int(key), Value::Int((key * 37 + i) % 100)]))
                .collect();
            session
                .register_table(
                    &format!("sd{i}"),
                    Schema::ints(&[&k, &a]),
                    SortOrder::new([k.clone()]),
                    &rows,
                )
                .expect("register star dimension");
        }
        (
            session,
            "SELECT s_id, s_m, a1, a2, a3, a4 FROM sfact, sd1, sd2, sd3, sd4 \
             WHERE s_d1 = k1 AND s_d2 = k2 AND s_d3 = k3 AND s_d4 = k4 AND a4 < 5",
        )
    }

    /// The quickstart partial-sort query: ORDER BY (k, v) over clustering
    /// (k) — zero run I/O by the paper's §3.1 argument.
    pub fn partial_sort(n: usize, seed: u64) -> (Session, &'static str) {
        partial_sort_with_pool(n, seed, 0)
    }

    /// [`partial_sort`] over a session with a `pool_pages`-frame buffer
    /// pool (`0` = bypass) — the warm-vs-cold rerun workload of
    /// `bench_batch`.
    pub fn partial_sort_with_pool(
        n: usize,
        seed: u64,
        pool_pages: usize,
    ) -> (Session, &'static str) {
        let mut session = Session::builder()
            .seed(seed)
            .buffer_pool_pages(pool_pages)
            .build();
        register_events(&mut session, n);
        (session, "SELECT k, v FROM events ORDER BY k, v")
    }

    /// [`partial_sort_with_pool`] over a **durable** session rooted at
    /// `data_dir` — the file-backed cold/warm workload of `bench_batch`.
    /// The generated rows are bit-identical to the in-memory variant's.
    pub fn partial_sort_durable(
        n: usize,
        seed: u64,
        pool_pages: usize,
        data_dir: &std::path::Path,
    ) -> (Session, &'static str) {
        let mut session = Session::builder()
            .seed(seed)
            .buffer_pool_pages(pool_pages)
            .data_dir(data_dir)
            .open()
            .expect("open durable bench session");
        register_events(&mut session, n);
        (session, "SELECT k, v FROM events ORDER BY k, v")
    }

    /// The quickstart `events` table: `n` rows in 1000-row clustering
    /// segments, seeded by the session's RNG seed.
    pub fn register_events(session: &mut Session, n: usize) {
        let per_segment = 1000.min(n.max(2) / 2) as i64;
        let mut r = rng_with(session.seed());
        let rows: Vec<Tuple> = (0..n as i64)
            .map(|i| {
                Tuple::new(vec![
                    Value::Int(i / per_segment),
                    Value::Int(r.gen_range(0..1_000_000)),
                ])
            })
            .collect();
        session
            .register_table(
                "events",
                Schema::ints(&["k", "v"]),
                SortOrder::new(["k"]),
                &rows,
            )
            .expect("register events");
    }
}

/// Collects rows while recording `(tuples_produced, elapsed)` checkpoints —
/// the series Fig. 8 plots.
pub fn run_with_checkpoints(
    mut op: pyro_exec::BoxOp,
    every: usize,
) -> Result<(usize, Vec<(usize, Duration)>)> {
    let start = Instant::now();
    let mut produced = 0usize;
    let mut checkpoints = Vec::new();
    let mut stash = pyro_exec::Stash::new();
    while let Some(_t) = stash.next_row(&mut op)? {
        produced += 1;
        if produced.is_multiple_of(every) {
            checkpoints.push((produced, start.elapsed()));
        }
    }
    checkpoints.push((produced, start.elapsed()));
    Ok((produced, checkpoints))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pyro_ordering::SortOrder;

    #[test]
    fn degrade_replaces_partial_sorts() {
        let leaf = Arc::new(PhysNode {
            op: PhysOp::TableScan {
                table: "t".into(),
                alias: "t".into(),
            },
            children: vec![],
            schema: pyro_common::Schema::ints(&["t.a"]),
            out_order: SortOrder::empty(),
            cost: 1.0,
            rows: 1.0,
            logical: 0,
        });
        let ps = Arc::new(PhysNode {
            op: PhysOp::PartialSort {
                prefix_len: 1,
                target: SortOrder::new(["t.a"]),
            },
            children: vec![leaf],
            schema: pyro_common::Schema::ints(&["t.a"]),
            out_order: SortOrder::new(["t.a"]),
            cost: 2.0,
            rows: 1.0,
            logical: 0,
        });
        let degraded = degrade_partial_sorts(&ps);
        assert!(matches!(degraded.op, PhysOp::Sort { .. }));
        assert_eq!(degraded.children.len(), 1);
    }
}
