//! `paper_order` — the paper's own traffic: Query 2–6 and Example 1 over
//! the evaluation's tables, sort-based plan space only.

use crate::check::Digest;
use crate::harness::{err_text, repeat_setup, Outcome, RunConfig};
use crate::json::Json;
use crate::sqlrounds::{run_rounds, Statement};
use pyro::{Session, SortOrder, Strategy};
use pyro_datagen::{consolidation, qtables, tpch};
use std::collections::BTreeMap;
use std::time::Instant;

/// The paper's figures use TPC-H sf 0.05, 30k-row Query 4 tables and a
/// 64-block sort budget; one round of the six statements then takes 1.1 s
/// here, i.e. seven samples per run. Everything is scaled by a quarter —
/// the sort budget too, so Query 4, Query 6 and Example 1 still spill
/// their runs and Query 2/3/5 still do not — for a 0.17 s round.
pub const TPCH: tpch::TpchConfig = tpch::TpchConfig {
    lineitems: 75_000,
    parts: 2_500,
    suppliers: 125,
};
pub const Q4_ROWS: usize = 7_500;
pub const TRAN_ROWS: usize = 25_000;
pub const BASKET_ROWS: usize = 25_000;
pub const CATALOG_ROWS: usize = 25_000;
pub const SORT_MEMORY_BLOCKS: u64 = 16;
const WARMUP_ROUNDS: usize = 2;

pub const QUERY2: &str = "SELECT ps_suppkey, ps_partkey, ps_availqty, count(l_partkey) AS n \
     FROM partsupp, lineitem \
     WHERE ps_suppkey = l_suppkey AND ps_partkey = l_partkey \
     GROUP BY ps_suppkey, ps_partkey, ps_availqty \
     ORDER BY ps_suppkey, ps_partkey";
pub const QUERY3: &str = "SELECT ps_suppkey, ps_partkey, ps_availqty, sum(l_quantity) AS total \
     FROM partsupp, lineitem \
     WHERE ps_suppkey = l_suppkey AND ps_partkey = l_partkey AND l_linestatus = 'O' \
     GROUP BY ps_availqty, ps_partkey, ps_suppkey \
     HAVING sum(l_quantity) > ps_availqty \
     ORDER BY ps_partkey";
pub const QUERY4: &str = "SELECT * FROM r1 FULL OUTER JOIN r2 \
     ON (r1.c5 = r2.c5 AND r1.c4 = r2.c4 AND r1.c3 = r2.c3) \
     FULL OUTER JOIN r3 \
     ON (r3.c1 = r1.c1 AND r3.c4 = r1.c4 AND r3.c5 = r1.c5)";
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
pub const QUERY6: &str = "SELECT * FROM basket b, analytics a \
     WHERE b.prodtype = a.prodtype AND b.symbol = a.symbol AND b.exchange = a.exchange";
pub const EXAMPLE1: &str = "SELECT c1.make, c1.year, c1.city, c1.color, c1.sellreason, \
            c2.breakdowns, r.rating \
     FROM catalog1 c1, catalog2 c2, rating r \
     WHERE c1.city = c2.city AND c1.make = c2.make AND c1.year = c2.year \
       AND c1.color = c2.color AND c1.make = r.make AND c1.year = r.year \
     ORDER BY c1.make, c1.year, c1.color, c1.city, c1.sellreason, c2.breakdowns, r.rating";

/// The six statements with the output columns their ORDER BY names.
pub fn statements() -> Vec<Statement> {
    vec![
        Statement::new("q2", "exec.q2_ms", QUERY2, Some(&[0, 1])),
        Statement::new("q3", "exec.q3_ms", QUERY3, Some(&[1])),
        Statement::new("q4", "exec.q4_ms", QUERY4, None),
        Statement::new("q5", "exec.q5_ms", QUERY5, None),
        Statement::new("q6", "exec.q6_ms", QUERY6, None),
        Statement::new("ex1", "exec.ex1_ms", EXAMPLE1, Some(&[0, 1, 3, 2, 4, 5, 6])),
    ]
}

/// Loads every table the six statements read, at `1/shrink` of this
/// workload's size (`plan_wide` plans over a smaller copy).
pub fn load_tables(session: &mut Session, seed: u64, shrink: usize) -> pyro::Result<()> {
    let cat = session.catalog_mut();
    let cfg = tpch::TpchConfig {
        lineitems: TPCH.lineitems / shrink,
        parts: TPCH.parts / shrink,
        suppliers: TPCH.suppliers / shrink,
    };
    tpch::load_with_seed(cat, cfg, seed)?;
    qtables::load_q4_with_seed(cat, Q4_ROWS / shrink, seed)?;
    qtables::load_tran_with_seed(cat, TRAN_ROWS / shrink, seed)?;
    qtables::load_basket_analytics_with_seed(cat, BASKET_ROWS / shrink, seed)?;
    consolidation::load_with_seed(cat, CATALOG_ROWS / shrink, seed)
}

fn build(seed: u64) -> Session {
    let mut session = Session::builder()
        .hash_operators(false)
        .sort_memory_blocks(SORT_MEMORY_BLOCKS)
        .seed(seed)
        .build();
    load_tables(&mut session, seed, 1).expect("load the paper's tables");
    session
}

/// Runs every statement under all five strategies, hash operators off and
/// on. The ten plans per statement differ — that is the paper's subject —
/// so ten equal digests are an answer no single plan vouches for. Leaves
/// the session at its measured configuration (PYRO-O, hash off).
fn agree_across_plans(
    session: &mut Session,
    statements: &[Statement],
    out: &mut Outcome,
) -> BTreeMap<String, Digest> {
    let mut agreed: BTreeMap<String, Digest> = BTreeMap::new();
    for hash in [true, false] {
        session.set_hash_operators(hash);
        for strategy in Strategy::all() {
            session.set_strategy(strategy);
            for st in statements {
                let digest = match session.sql(&st.sql) {
                    Ok(r) => Digest::of(r.rows()),
                    Err(e) => {
                        out.checker.fail(format!(
                            "{} under {} hash={hash}: {}",
                            st.label,
                            strategy.name(),
                            err_text(&e)
                        ));
                        continue;
                    }
                };
                let first = *agreed.entry(st.label.to_string()).or_insert(digest);
                if first != digest {
                    out.checker.fail(format!(
                        "{} under {} hash={hash}: ({}, {:016x}) disagrees with ({}, {:016x})",
                        st.label,
                        strategy.name(),
                        digest.rows,
                        digest.checksum,
                        first.rows,
                        first.checksum
                    ));
                }
            }
        }
    }
    session.set_strategy(Strategy::pyro_o());
    agreed
}

pub fn run(cfg: &RunConfig) -> Outcome {
    let mut out = Outcome::new(
        Json::obj()
            .with(
                "op",
                "one round of Query 2, 3, 4, 5, 6 and Example 1 via Session::sql",
            )
            .with("clients", 1_u64)
            .with("loop", "closed")
            .with("lineitems", TPCH.lineitems)
            .with("parts", TPCH.parts)
            .with("suppliers", TPCH.suppliers)
            .with("q4_rows", Q4_ROWS)
            .with("tran_rows", TRAN_ROWS)
            .with("basket_rows", BASKET_ROWS)
            .with("catalog_rows", CATALOG_ROWS)
            .with("sort_memory_blocks", SORT_MEMORY_BLOCKS)
            .with("strategy", "pyro-o")
            .with("hash_operators", false)
            .with("warmup_rounds", WARMUP_ROUNDS),
    );
    let (mut session, setup_s) = repeat_setup(cfg.setup_reps(), |_| build(cfg.seed));
    out.setup_s = setup_s;

    let statements = statements();
    let expected = agree_across_plans(&mut session, &statements, &mut out);
    if expected.len() != statements.len() {
        return out; // a statement never ran; the failures are recorded
    }
    out.digests = expected.clone();

    run_rounds(
        cfg,
        &mut out,
        &session,
        &statements,
        &expected,
        WARMUP_ROUNDS,
    );

    if cfg.trace {
        // After the rounds: an index bumps the catalog generation.
        let start = Instant::now();
        session
            .create_index(
                "lineitem",
                "bench_l_partkey_cov",
                SortOrder::new(["l_partkey"]),
                &["l_quantity"],
            )
            .expect("build the probe index");
        out.layer(
            "catalog.index_build_ms",
            start.elapsed().as_secs_f64() * 1e3,
        );
    }
    out
}
