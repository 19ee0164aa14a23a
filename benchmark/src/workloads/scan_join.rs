//! `scan_join` / `scan_join_w2` — the columnar scan, filter, project and
//! hash-join kernels plus a five-way star join, at one and at two workers.
//! No statement sorts, so `exec.comparisons` stays 0 and a sort
//! optimisation must leave these numbers alone.

use crate::check::Digest;
use crate::harness::{repeat_setup, Outcome, RunConfig};
use crate::json::Json;
use crate::sqlrounds::{run_rounds, Statement};
use pyro::{Session, SortOrder};
use pyro_common::{Schema, Tuple, Value};
use pyro_datagen::rng_with;
use std::collections::BTreeMap;
use std::time::Instant;

/// ISSUE 11 asked for 1M-row scans; set-up alone (generate + register,
/// three times per run) then outlasts the driver's per-run budget. A
/// quarter of that keeps every table far above the 1,024-row batch and
/// the round near 0.1 s.
pub const POINTS_ROWS: usize = 250_000;
pub const FACT_ROWS: usize = 250_000;
pub const DIM_ROWS: usize = FACT_ROWS / 10;
pub const STAR_FACT_ROWS: usize = 10_000;
pub const STAR_DIM_ROWS: usize = 500;
/// `a4 < 5` keeps 5% of the last-written dimension.
const STAR_FILTER: i64 = 5;
const WARMUP_ROUNDS: usize = 2;

const SFP: &str = "SELECT a, c FROM points WHERE b < 750000 AND c < 65";
const HASH_JOIN: &str = "SELECT * FROM dim, fact WHERE d_k = f_d";
const STAR5: &str = "SELECT s_id, s_m, a1, a2, a3, a4 FROM sfact, sd1, sd2, sd3, sd4 \
     WHERE s_d1 = k1 AND s_d2 = k2 AND s_d3 = k3 AND s_d4 = k4 AND a4 < 5";

fn ints(vals: &[i64]) -> Tuple {
    Tuple::new(vals.iter().map(|v| Value::Int(*v)).collect())
}

/// Generates and registers every table, and — from the generated rows,
/// never from the engine — the digest each statement must produce.
/// `register_ms` receives the time of the `points` registration.
fn build(seed: u64, workers: usize, register_ms: &mut f64) -> (Session, BTreeMap<String, Digest>) {
    let mut session = Session::builder().seed(seed).workers(workers).build();
    let mut r = rng_with(seed);
    let mut expected = BTreeMap::new();

    let mut sfp = Digest::default();
    let points: Vec<Tuple> = (0..POINTS_ROWS as i64)
        .map(|a| {
            let (b, c) = (r.gen_range(0..1_000_000_i64), r.gen_range(0..97_i64));
            if b < 750_000 && c < 65 {
                sfp.add(&[Value::Int(a), Value::Int(c)]);
            }
            ints(&[a, b, c])
        })
        .collect();
    let start = Instant::now();
    session
        .register_table(
            "points",
            Schema::ints(&["a", "b", "c"]),
            SortOrder::new(["a"]),
            &points,
        )
        .expect("register points");
    *register_ms = start.elapsed().as_secs_f64() * 1e3;
    drop(points);
    expected.insert("sfp".to_string(), sfp);

    let dim: Vec<Tuple> = (0..DIM_ROWS as i64).map(|k| ints(&[k, k * 3])).collect();
    let mut join = Digest::default();
    let fact: Vec<Tuple> = (0..FACT_ROWS as i64)
        .map(|k| {
            let d = r.gen_range(0..DIM_ROWS as i64);
            // Every fact row meets exactly one dim row.
            join.add(&[
                Value::Int(d),
                Value::Int(d * 3),
                Value::Int(k),
                Value::Int(d),
            ]);
            ints(&[k, d])
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
    drop((dim, fact));
    expected.insert("hash_join".to_string(), join);

    // Four dimensions; the selective one is written (and joined) last.
    // Attribute values are a shuffle of 0..100 repeated, so `a4 < 5` keeps
    // exactly 5% of the dimension whatever the seed.
    let attrs: Vec<Vec<i64>> = (0..4)
        .map(|_| {
            let mut vals: Vec<i64> = (0..STAR_DIM_ROWS as i64).map(|k| k % 100).collect();
            for i in (1..vals.len()).rev() {
                vals.swap(i, r.gen_range(0..=i));
            }
            vals
        })
        .collect();
    let mut star = Digest::default();
    let sfact: Vec<Tuple> = (0..STAR_FACT_ROWS as i64)
        .map(|id| {
            let d: Vec<i64> = (0..4)
                .map(|_| r.gen_range(0..STAR_DIM_ROWS as i64))
                .collect();
            let m = r.gen_range(0..1_000_000_i64);
            let a: Vec<i64> = (0..4).map(|i| attrs[i][d[i] as usize]).collect();
            if a[3] < STAR_FILTER {
                star.add(&[
                    Value::Int(id),
                    Value::Int(m),
                    Value::Int(a[0]),
                    Value::Int(a[1]),
                    Value::Int(a[2]),
                    Value::Int(a[3]),
                ]);
            }
            ints(&[id, d[0], d[1], d[2], d[3], m])
        })
        .collect();
    session
        .register_table(
            "sfact",
            Schema::ints(&["s_id", "s_d1", "s_d2", "s_d3", "s_d4", "s_m"]),
            SortOrder::new(["s_id"]),
            &sfact,
        )
        .expect("register sfact");
    for (i, attr) in attrs.iter().enumerate() {
        let (k, a) = (format!("k{}", i + 1), format!("a{}", i + 1));
        let rows: Vec<Tuple> = attr
            .iter()
            .enumerate()
            .map(|(key, v)| ints(&[key as i64, *v]))
            .collect();
        session
            .register_table(
                &format!("sd{}", i + 1),
                Schema::ints(&[&k, &a]),
                SortOrder::new([k.clone()]),
                &rows,
            )
            .expect("register star dimension");
    }
    expected.insert("star5".to_string(), star);
    (session, expected)
}

pub fn run(cfg: &RunConfig, workers: usize) -> Outcome {
    let mut out = Outcome::new(
        Json::obj()
            .with(
                "op",
                "one round of scan_filter_project, hash_join and star5 via Session::sql",
            )
            .with("clients", 1_u64)
            .with("loop", "closed")
            .with("workers", workers)
            .with("points_rows", POINTS_ROWS)
            .with("fact_rows", FACT_ROWS)
            .with("dim_rows", DIM_ROWS)
            .with("star_fact_rows", STAR_FACT_ROWS)
            .with("star_dim_rows", STAR_DIM_ROWS)
            .with("star_filter_share", STAR_FILTER as f64 / 100.0)
            .with("warmup_rounds", WARMUP_ROUNDS),
    );
    let mut register_ms = 0.0;
    let ((session, expected), setup_s) = repeat_setup(cfg.setup_reps(), |_| {
        build(cfg.seed, workers, &mut register_ms)
    });
    out.setup_s = setup_s;
    out.digests = expected.clone();

    let statements = [
        Statement::new("sfp", "exec.sfp_ms", SFP, None),
        Statement::new("hash_join", "exec.hash_join_ms", HASH_JOIN, None),
        Statement::new("star5", "exec.star5_ms", STAR5, None),
    ];
    run_rounds(
        cfg,
        &mut out,
        &session,
        &statements,
        &expected,
        WARMUP_ROUNDS,
    );
    if cfg.trace {
        out.layer("catalog.register_ms", register_ms);
    }
    out
}
