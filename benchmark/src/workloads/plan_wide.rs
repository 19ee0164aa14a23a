//! `plan_wide` — planning and nothing else: the paper's statements under
//! all five strategies plus chain and star joins of 4–16 relations, every
//! plan built from scratch (no plan cache). The paper's Fig. 16 axis, and
//! the only workload where a planner slowdown is visible at all.

use crate::check::Digest;
use crate::harness::{
    closed_loop, err_text, fill_stepped_layers, median_us, repeat_setup, step_plan, timed, Outcome,
    RunConfig, Timed,
};
use crate::json::Json;
use crate::trace::Tracer;
use crate::workloads::paper_order;
use pyro::{Session, SortOrder, Strategy};
use pyro_common::{Schema, Tuple, Value};
use pyro_core::OptimizedPlan;
use pyro_datagen::rng_with;
use pyro_ordering::{path_order, two_approx_tree_order, AttrSet, JoinTree};
use std::hint::black_box;
use std::time::Instant;

pub const JOIN_SIZES: [usize; 4] = [4, 8, 12, 16];
pub const JOIN_TABLE_ROWS: usize = 1_000;
/// The paper tables are only planned over here, never read: a fifth of
/// `paper_order`'s size keeps the same statistics shape at a fifth of the
/// set-up time.
const PAPER_SHRINK: usize = 5;
const WARMUP_SWEEPS: usize = 3;
const ORDERING_REPS: usize = 2_000;
const EXHAUSTIVE_REPS: usize = 5;

struct PlanStatement {
    label: String,
    sql: String,
    strategy: Strategy,
    /// Span name of its optimize step in the traced run.
    optimize_span: &'static str,
}

fn sorted_rows(width: usize, r: &mut pyro_datagen::StdRng) -> Vec<Tuple> {
    let mut rows: Vec<Tuple> = (0..JOIN_TABLE_ROWS)
        .map(|_| Tuple::new((0..width).map(|_| Value::Int(r.gen_range(0..97))).collect()))
        .collect();
    rows.sort();
    rows
}

/// `ch0..ch15`, each `(l<i>, r<i>)`, chained on `r<i> = l<i+1>`; `hub` with
/// one key per satellite `sat<i>(k<i>, s<i>)`. A chain or star of `n`
/// relations uses the first `n`.
fn load_join_tables(session: &mut Session, seed: u64) {
    let mut r = rng_with(seed);
    let max = *JOIN_SIZES.last().expect("non-empty");
    for i in 0..max {
        let (l, rr) = (format!("l{i}"), format!("r{i}"));
        session
            .register_table(
                &format!("ch{i}"),
                Schema::ints(&[&l, &rr]),
                SortOrder::new([l.clone()]),
                &sorted_rows(2, &mut r),
            )
            .expect("register chain table");
    }
    let hub_cols: Vec<String> = (1..max).map(|i| format!("h{i}")).collect();
    let hub_refs: Vec<&str> = hub_cols.iter().map(String::as_str).collect();
    session
        .register_table(
            "hub",
            Schema::ints(&hub_refs),
            SortOrder::new([hub_cols[0].clone()]),
            &sorted_rows(max - 1, &mut r),
        )
        .expect("register hub");
    for i in 1..max {
        let (k, s) = (format!("k{i}"), format!("s{i}"));
        session
            .register_table(
                &format!("sat{i}"),
                Schema::ints(&[&k, &s]),
                SortOrder::new([k.clone()]),
                &sorted_rows(2, &mut r),
            )
            .expect("register satellite");
    }
}

fn chain_sql(n: usize) -> String {
    let tables: Vec<String> = (0..n).map(|i| format!("ch{i}")).collect();
    let joins: Vec<String> = (1..n).map(|i| format!("r{} = l{i}", i - 1)).collect();
    format!(
        "SELECT * FROM {} WHERE {}",
        tables.join(", "),
        joins.join(" AND ")
    )
}

fn star_sql(n: usize) -> String {
    let tables: Vec<String> = (1..n).map(|i| format!("sat{i}")).collect();
    let joins: Vec<String> = (1..n).map(|i| format!("h{i} = k{i}")).collect();
    format!(
        "SELECT * FROM hub, {} WHERE {}",
        tables.join(", "),
        joins.join(" AND ")
    )
}

/// PYRO-E tries every permutation of a join's attributes, and Query 5
/// joins on five: that one plan takes 130 ms, 96% of a sweep that
/// included it, and would hide every other planner change. It is left out
/// of the sweep and timed on its own in the traced run
/// (`core.optimize_q5_exhaustive_ms`).
fn in_sweep(label: &str, strategy: Strategy) -> bool {
    !(label == "q5" && strategy == Strategy::pyro_e())
}

/// One sweep, in order: six statements × five strategies (less the one
/// [`in_sweep`] excludes), then the chain and star joins under PYRO-O.
fn sweep_statements() -> Vec<PlanStatement> {
    let mut out = Vec::new();
    for strategy in Strategy::all() {
        for st in paper_order::statements() {
            if !in_sweep(st.label, strategy) {
                continue;
            }
            out.push(PlanStatement {
                label: format!("{}.{}", st.label, strategy.name()),
                sql: st.sql,
                strategy,
                optimize_span: "core.optimize",
            });
        }
    }
    for n in JOIN_SIZES {
        let widest = n == 16;
        out.push(PlanStatement {
            label: format!("chain{n}"),
            sql: chain_sql(n),
            strategy: Strategy::pyro_o(),
            optimize_span: if widest {
                "core.optimize_chain16"
            } else {
                "core.optimize"
            },
        });
        out.push(PlanStatement {
            label: format!("star{n}"),
            sql: star_sql(n),
            strategy: Strategy::pyro_o(),
            optimize_span: if widest {
                "core.optimize_star16"
            } else {
                "core.optimize"
            },
        });
    }
    out
}

fn build(seed: u64) -> Session {
    let mut session = Session::builder().hash_operators(false).seed(seed).build();
    paper_order::load_tables(&mut session, seed, PAPER_SHRINK).expect("load the paper's tables");
    load_join_tables(&mut session, seed);
    session
}

/// Plans are this workload's answers: a sweep's digest is over each plan's
/// explain text and estimated cost.
fn add_plan(digest: &mut Digest, plan: &OptimizedPlan) {
    digest.add(&[Value::Str(plan.explain()), Value::Double(plan.cost())]);
}

/// One untraced sweep under one timer; the plans are digested after it
/// stops.
fn untraced_sweep(
    session: &mut Session,
    statements: &[PlanStatement],
) -> (Timed, Result<Digest, String>) {
    let (plans, took) = timed(|| {
        statements
            .iter()
            .map(|st| {
                session.set_strategy(st.strategy);
                session.plan(&st.sql)
            })
            .collect::<Vec<_>>()
    });
    let mut digest = Digest::default();
    for (st, plan) in statements.iter().zip(&plans) {
        match plan {
            Ok(p) => add_plan(&mut digest, p),
            Err(e) => return (took, Err(format!("{}: {}", st.label, err_text(e)))),
        }
    }
    (took, Ok(digest))
}

fn compare(what: &str, got: Result<Digest, String>, expected: Digest) -> Option<String> {
    match got {
        Err(msg) => Some(msg),
        Ok(d) if d != expected => Some(format!(
            "{what}: plans ({}, {:016x}) differ from the first sweep's ({}, {:016x})",
            d.rows, d.checksum, expected.rows, expected.checksum
        )),
        Ok(_) => None,
    }
}

/// The attribute sets the paper's statements hand the order algorithms:
/// each path runs from a statement's ORDER BY / GROUP BY node down its
/// merge joins.
fn paper_paths() -> Vec<Vec<AttrSet>> {
    let set = |attrs: &[&str]| AttrSet::from_iter(attrs.iter().copied());
    let q5 = [
        "userid",
        "basketid",
        "parentorderid",
        "waveid",
        "childorderid",
    ];
    vec![
        // Query 2/3: group-by over the two-attribute join.
        vec![
            set(&["suppkey", "partkey", "availqty"]),
            set(&["suppkey", "partkey"]),
        ],
        // Query 4: two full outer joins sharing c4, c5.
        vec![set(&["c3", "c4", "c5"]), set(&["c1", "c4", "c5"])],
        // Query 5: group-by over the five-attribute self-join.
        vec![set(&q5), set(&q5)],
        // Example 1: order-by, the rating join, the four-attribute join.
        vec![
            set(&[
                "make",
                "year",
                "color",
                "city",
                "sellreason",
                "breakdowns",
                "rating",
            ]),
            set(&["make", "year"]),
            set(&["city", "make", "year", "color"]),
        ],
    ]
}

fn paper_trees() -> Vec<JoinTree> {
    paper_paths()
        .into_iter()
        .map(|path| {
            let mut tree = JoinTree::new();
            let mut sets = path.into_iter();
            let mut node = tree.add_root(sets.next().expect("non-empty path"));
            for attrs in sets {
                node = tree.add_child(node, attrs);
            }
            tree
        })
        .collect()
}

fn time_ordering(out: &mut Outcome) {
    let paths = paper_paths();
    let trees = paper_trees();
    let mut path_us = Vec::with_capacity(ORDERING_REPS);
    let mut tree_us = Vec::with_capacity(ORDERING_REPS);
    for _ in 0..ORDERING_REPS {
        let start = Instant::now();
        for p in &paths {
            black_box(path_order(black_box(p)));
        }
        path_us.push(start.elapsed().as_secs_f64() * 1e6);
        let start = Instant::now();
        for t in &trees {
            black_box(two_approx_tree_order(black_box(t)));
        }
        tree_us.push(start.elapsed().as_secs_f64() * 1e6);
    }
    out.layer("ordering.path_order_us", crate::stats::median(&path_us));
    out.layer("ordering.tree_order_us", crate::stats::median(&tree_us));
}

pub fn run(cfg: &RunConfig) -> Outcome {
    let statements = sweep_statements();
    let mut out = Outcome::new(
        Json::obj()
            .with(
                "op",
                "one sweep of uncached Session::plan over every statement below",
            )
            .with("clients", 1_u64)
            .with("loop", "closed")
            .with("plans_per_sweep", statements.len())
            .with("paper_statements", 6_u64)
            .with("strategies", 5_u64)
            .with(
                "left_out",
                "Query 5 under PYRO-E (timed on its own in the traced run)",
            )
            .with(
                "join_sizes",
                JOIN_SIZES
                    .iter()
                    .map(|n| Json::from(*n))
                    .collect::<Vec<_>>(),
            )
            .with("join_table_rows", JOIN_TABLE_ROWS)
            .with("paper_tables_shrink", PAPER_SHRINK)
            .with("hash_operators", false)
            .with("plan_cache", "off")
            .with("warmup_sweeps", WARMUP_SWEEPS),
    );
    let (mut session, setup_s) = repeat_setup(cfg.setup_reps(), |_| build(cfg.seed));
    out.setup_s = setup_s;

    // The first sweep's plans are the reference: planning is a pure
    // function of statement, knobs and catalog, so every later sweep must
    // reproduce them (and, for the default seed, the committed digest).
    let (_, first) = untraced_sweep(&mut session, &statements);
    let expected = match first {
        Ok(d) => d,
        Err(msg) => {
            out.checker.fail(msg);
            return out;
        }
    };
    out.digests.insert("plans".to_string(), expected);
    for _ in 1..WARMUP_SWEEPS {
        let (_, got) = untraced_sweep(&mut session, &statements);
        if let Some(msg) = compare("warm-up", got, expected) {
            out.checker.fail(msg);
        }
    }

    let mut tr = Tracer::new(Instant::now());
    let mut traced_ops = 0u64;
    let checker = &mut out.checker;
    let samples = closed_loop(cfg.seconds, 1, |i| {
        let (took, got) = untraced_sweep(&mut session, &statements);
        checker.record(compare("sweep", got, expected));
        if cfg.trace {
            tr.set_op(i);
            let mut digest = Digest::default();
            let mut problem = None;
            for st in &statements {
                session.set_strategy(st.strategy);
                let stmt = tr.open(&format!("stmt.{}", st.label));
                let plan = step_plan(&mut tr, &session, &st.sql, st.optimize_span);
                tr.close(stmt);
                match plan {
                    Ok(p) => add_plan(&mut digest, &p),
                    Err(e) => problem = Some(format!("{} (stepped): {}", st.label, err_text(&e))),
                }
            }
            checker.record(compare(
                "stepped sweep",
                problem.map_or(Ok(digest), Err),
                expected,
            ));
            traced_ops += 1;
        }
        took
    });
    out.set_samples(samples);

    if cfg.trace {
        let untraced = out.op_wall_ms.clone();
        fill_stepped_layers(&mut out, &tr, traced_ops, &untraced);
        out.layer(
            "core.optimize_chain16_us",
            median_us(&tr, "core.optimize_chain16"),
        );
        out.layer(
            "core.optimize_star16_us",
            median_us(&tr, "core.optimize_star16"),
        );
        time_ordering(&mut out);
        session.set_strategy(Strategy::pyro_e());
        let exhaustive: Vec<f64> = (0..EXHAUSTIVE_REPS)
            .map(|_| {
                let start = Instant::now();
                if let Err(e) = session.plan(black_box(paper_order::QUERY5)) {
                    out.checker
                        .fail(format!("q5 under PYRO-E: {}", err_text(&e)));
                }
                start.elapsed().as_secs_f64() * 1e3
            })
            .collect();
        out.layer(
            "core.optimize_q5_exhaustive_ms",
            crate::stats::median(&exhaustive),
        );
        out.tracer = Some(tr);
    }
    out
}
