//! Plan goldens: every plan `plan_wide` makes, pinned one by one.
//!
//! The statements are the paper's six under all five strategies with hash
//! operators off and on, plus chain and star joins of 4, 8 and 16
//! relations, over the same tables at a small size. Each plan's explain
//! text, the bit pattern of its cost, its search accounting (memo groups,
//! candidates, re-shaped joins) and the result schema its compiled pipeline
//! reports (what a wire client receives: names and types) must equal
//! `tests/expected/plan_golden.txt`. A planner change that moves any of
//! them names the plan that moved and shows the difference.
//!
//! Each plan is also executed at the default options and its run pinned:
//! row count, an order-insensitive digest of the rows and the four paper
//! counters (comparisons, run pages written and read, runs created). The
//! 16-way joins are the exception — their results run to millions of rows
//! — so they pin the plan only. The paper's six statements are pinned once
//! more under a 3-block sort budget (the `budget=3` blocks, over 512-byte pages), where both
//! sort enforcers spill more runs than one merge pass takes.
//!
//! On a mismatch the whole actual recording is written next to the test
//! binary's scratch directory (the path is in the failure message); copy it
//! over the expected file only when the change of plans is intended.

use pyro::catalog::Catalog;
use pyro::common::{Schema, Tuple, Value};
use pyro::core::CompileOptions;
use pyro::datagen::{consolidation, qtables, rng_with, tpch, StdRng};
use pyro::storage::SimDevice;
use pyro::{Session, SortOrder, Strategy};
use std::collections::BTreeMap;

const EXPECTED: &str = include_str!("expected/plan_golden.txt");
const SEED: u64 = 41;
const JOIN_SIZES: [usize; 3] = [4, 8, 16];
const JOIN_TABLE_ROWS: usize = 200;
/// Joins this wide are planned but not executed.
const UNEXECUTED_JOIN_SIZE: usize = 16;
/// The page size of the sweep.
const BLOCK_SIZE: usize = 4096;
/// The page size and sort budget, in blocks, of the spilling pass over the
/// paper's statements: 1.5 KB of sort memory, merged two runs at a time.
const SPILL_BLOCK_SIZE: usize = 512;
const SPILL_BUDGET_BLOCKS: u64 = 3;

const QUERY2: &str = "SELECT ps_suppkey, ps_partkey, ps_availqty, count(l_partkey) AS n \
     FROM partsupp, lineitem \
     WHERE ps_suppkey = l_suppkey AND ps_partkey = l_partkey \
     GROUP BY ps_suppkey, ps_partkey, ps_availqty \
     ORDER BY ps_suppkey, ps_partkey";
const QUERY3: &str = "SELECT ps_suppkey, ps_partkey, ps_availqty, sum(l_quantity) AS total \
     FROM partsupp, lineitem \
     WHERE ps_suppkey = l_suppkey AND ps_partkey = l_partkey AND l_linestatus = 'O' \
     GROUP BY ps_availqty, ps_partkey, ps_suppkey \
     HAVING sum(l_quantity) > ps_availqty \
     ORDER BY ps_partkey";
const QUERY4: &str = "SELECT * FROM r1 FULL OUTER JOIN r2 \
     ON (r1.c5 = r2.c5 AND r1.c4 = r2.c4 AND r1.c3 = r2.c3) \
     FULL OUTER JOIN r3 \
     ON (r3.c1 = r1.c1 AND r3.c4 = r1.c4 AND r3.c5 = r1.c5)";
const QUERY5: &str =
    "SELECT t1.userid, t1.basketid, t1.parentorderid, t1.waveid, t1.childorderid, \
            min(t1.quantity * t1.price) AS ordervalue, \
            sum(t2.quantity * t2.price) AS executedvalue \
     FROM tran t1, tran t2 \
     WHERE t1.userid = t2.userid AND t1.parentorderid = t2.parentorderid \
       AND t1.basketid = t2.basketid AND t1.waveid = t2.waveid \
       AND t1.childorderid = t2.childorderid \
       AND t1.trantype = 'New' AND t2.trantype = 'Executed' \
     GROUP BY t1.userid, t1.basketid, t1.parentorderid, t1.waveid, t1.childorderid";
const QUERY6: &str = "SELECT * FROM basket b, analytics a \
     WHERE b.prodtype = a.prodtype AND b.symbol = a.symbol AND b.exchange = a.exchange";
const EXAMPLE1: &str = "SELECT c1.make, c1.year, c1.city, c1.color, c1.sellreason, \
            c2.breakdowns, r.rating \
     FROM catalog1 c1, catalog2 c2, rating r \
     WHERE c1.city = c2.city AND c1.make = c2.make AND c1.year = c2.year \
       AND c1.color = c2.color AND c1.make = r.make AND c1.year = r.year \
     ORDER BY c1.make, c1.year, c1.color, c1.city, c1.sellreason, c2.breakdowns, r.rating";

const PAPER: [(&str, &str); 6] = [
    ("q2", QUERY2),
    ("q3", QUERY3),
    ("q4", QUERY4),
    ("q5", QUERY5),
    ("q6", QUERY6),
    ("ex1", EXAMPLE1),
];

fn sorted_rows(width: usize, r: &mut StdRng) -> Vec<Tuple> {
    let mut rows: Vec<Tuple> = (0..JOIN_TABLE_ROWS)
        .map(|_| Tuple::new((0..width).map(|_| Value::Int(r.gen_range(0..97))).collect()))
        .collect();
    rows.sort();
    rows
}

/// The paper's tables at about a tenth of `plan_wide`'s size, then `ch0..ch15`
/// chained on `r<i> = l<i+1>` and a `hub` with one key per satellite
/// `sat<i>(k<i>, s<i>)`. Pages are `block_size` bytes.
fn session_over(block_size: usize) -> Session {
    let mut session = Session::builder().hash_operators(false).seed(SEED).build();
    let cat = session.catalog_mut();
    *cat = Catalog::on_device(SimDevice::with_block_size(block_size));
    let cfg = tpch::TpchConfig {
        lineitems: 1_500,
        parts: 50,
        suppliers: 5,
    };
    tpch::load_with_seed(cat, cfg, SEED).unwrap();
    qtables::load_q4_with_seed(cat, 150, SEED).unwrap();
    qtables::load_tran_with_seed(cat, 500, SEED).unwrap();
    qtables::load_basket_analytics_with_seed(cat, 500, SEED).unwrap();
    consolidation::load_with_seed(cat, 500, SEED).unwrap();

    let mut r = rng_with(SEED);
    let max = *JOIN_SIZES.last().unwrap();
    for i in 0..max {
        let (l, rr) = (format!("l{i}"), format!("r{i}"));
        session
            .register_table(
                &format!("ch{i}"),
                Schema::ints(&[&l, &rr]),
                SortOrder::new([l.clone()]),
                &sorted_rows(2, &mut r),
            )
            .unwrap();
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
        .unwrap();
    for i in 1..max {
        let (k, s) = (format!("k{i}"), format!("s{i}"));
        session
            .register_table(
                &format!("sat{i}"),
                Schema::ints(&[&k, &s]),
                SortOrder::new([k.clone()]),
                &sorted_rows(2, &mut r),
            )
            .unwrap();
    }
    session
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

/// One statement to plan: its label, its SQL, the strategy, and whether
/// its plan is also executed.
struct Statement {
    label: String,
    sql: String,
    strategy: Strategy,
    execute: bool,
}

/// The paper's six statements under every strategy.
fn paper_statements() -> Vec<Statement> {
    let mut out = Vec::new();
    for strategy in Strategy::all() {
        for (label, sql) in PAPER {
            out.push(Statement {
                label: format!("{label} {}", strategy.name()),
                sql: sql.to_string(),
                strategy,
                execute: true,
            });
        }
    }
    out
}

/// Every statement of the sweep.
fn statements() -> Vec<Statement> {
    let mut out = paper_statements();
    for n in JOIN_SIZES {
        for (shape, sql) in [("chain", chain_sql(n)), ("star", star_sql(n))] {
            out.push(Statement {
                label: format!("{shape}{n}"),
                sql,
                strategy: Strategy::pyro_o(),
                execute: n < UNEXECUTED_JOIN_SIZE,
            });
        }
    }
    out
}

/// FNV-1a over `bytes`.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Runs `plan`'s pipeline at the default options and renders what it did:
/// the row count, the wrapping sum of each row's hash (so row order does
/// not matter; `Debug` tells the two zeros and NaNs apart) and the four
/// paper counters.
fn run_line(pipeline: pyro::exec::Pipeline) -> pyro::Result<String> {
    let out = pipeline.run()?;
    let digest = out.rows.iter().fold(0u64, |acc, t| {
        acc.wrapping_add(fnv1a(format!("{t:?}").as_bytes()))
    });
    let m = &out.metrics;
    Ok(format!(
        "run rows {} digest {digest:#018x} comparisons {} run_pages {}/{} runs {}\n",
        out.rows.len(),
        m.comparisons(),
        m.run_pages_written(),
        m.run_pages_read(),
        m.runs_created()
    ))
}

/// Plans (and, where marked, runs) `statements` and renders one block per
/// plan into `out`, keyed by its label plus `suffix`.
fn record_into(
    session: &mut Session,
    statements: Vec<Statement>,
    suffix: &str,
    out: &mut BTreeMap<String, String>,
) {
    for st in statements {
        session.set_strategy(st.strategy);
        let label = format!("{}{suffix}", st.label);
        let plan = session
            .plan(&st.sql)
            .unwrap_or_else(|e| panic!("{label}: {e}"));
        let info = plan.planning;
        let pipeline = plan
            .compile(session.catalog(), &CompileOptions::default())
            .unwrap_or_else(|e| panic!("{label}: {e}"));
        let mut block = format!(
            "cost {:#018x} groups {} candidates {} reordered {}\nschema {}\n",
            plan.cost().to_bits(),
            info.groups,
            info.candidates,
            info.reordered_joins,
            pipeline.schema(),
        );
        if st.execute {
            block += &run_line(pipeline).unwrap_or_else(|e| panic!("{label}: {e}"));
        }
        block += &plan.explain();
        assert!(out.insert(label, block).is_none(), "duplicate label");
    }
}

/// Plans every statement with hash operators off, then on, then the
/// paper's statements with hash operators off under the spilling budget,
/// and renders one block per plan, keyed by its label.
fn record() -> BTreeMap<String, String> {
    let mut session = session_over(BLOCK_SIZE);
    let mut out = BTreeMap::new();
    for hash in [false, true] {
        session.set_hash_operators(hash);
        let suffix = format!(" hash={}", if hash { "on" } else { "off" });
        record_into(&mut session, statements(), &suffix, &mut out);
    }
    let mut spilling = session_over(SPILL_BLOCK_SIZE);
    spilling.set_sort_memory_blocks(SPILL_BUDGET_BLOCKS);
    let suffix = format!(" budget={SPILL_BUDGET_BLOCKS} hash=off");
    record_into(&mut spilling, paper_statements(), &suffix, &mut out);
    out
}

fn render(blocks: &BTreeMap<String, String>) -> String {
    blocks
        .iter()
        .map(|(label, block)| format!("## {label}\n{block}"))
        .collect()
}

fn parse(text: &str) -> BTreeMap<String, String> {
    let mut out = BTreeMap::new();
    for chunk in text.split("## ").skip(1) {
        let (label, block) = chunk.split_once('\n').unwrap_or((chunk, ""));
        out.insert(label.to_string(), block.to_string());
    }
    out
}

/// Line-by-line difference of two blocks: `-` expected, `+` actual.
fn diff(expected: &str, actual: &str) -> String {
    let (e, a): (Vec<&str>, Vec<&str>) = (expected.lines().collect(), actual.lines().collect());
    let mut out = String::new();
    for i in 0..e.len().max(a.len()) {
        match (e.get(i), a.get(i)) {
            (Some(x), Some(y)) if x == y => out += &format!("    {x}\n"),
            (x, y) => {
                if let Some(x) = x {
                    out += &format!("  - {x}\n");
                }
                if let Some(y) = y {
                    out += &format!("  + {y}\n");
                }
            }
        }
    }
    out
}

#[test]
fn every_plan_wide_plan_matches_its_recording() {
    let actual = record();
    let expected = parse(EXPECTED);
    let mut report = String::new();
    for (label, block) in &actual {
        match expected.get(label) {
            None => report += &format!("{label}: not in the recording\n"),
            Some(want) if want != block => {
                report += &format!("{label}:\n{}", diff(want, block));
            }
            Some(_) => {}
        }
    }
    for label in expected.keys().filter(|l| !actual.contains_key(*l)) {
        report += &format!("{label}: recorded but no longer planned\n");
    }
    if !report.is_empty() {
        let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("plan_golden.txt");
        std::fs::write(&path, render(&actual)).unwrap();
        panic!(
            "plans moved ({} recorded, {} planned); actual recording written to {}\n{report}",
            expected.len(),
            actual.len(),
            path.display()
        );
    }
    assert_eq!(
        actual.len(),
        2 * (5 * PAPER.len() + 2 * JOIN_SIZES.len()) + 5 * PAPER.len()
    );
}

/// The premise of the `budget=3` blocks: under that budget a plan whose
/// enforcers are all full sorts, and one whose enforcers are all partial
/// sorts, each create more runs than its enforcers could merge in one pass
/// apiece (a fan-in of two), so multi-pass merges are pinned.
#[test]
fn the_spilling_budget_merges_in_more_than_one_pass() {
    let recorded = parse(EXPECTED);
    let multi_pass = |enforcer: &str| {
        recorded.iter().any(|(label, block)| {
            let enforcers: Vec<&str> = block
                .lines()
                .map(str::trim_start)
                .filter(|l| l.starts_with("Sort (") || l.starts_with("Partial Sort ("))
                .collect();
            let runs = block
                .lines()
                .find_map(|l| l.strip_prefix("run rows "))
                .and_then(|l| l.rsplit(' ').next())
                .and_then(|n| n.parse::<usize>().ok());
            label.contains("budget=")
                && enforcers.iter().all(|l| l.starts_with(enforcer))
                && runs.is_some_and(|n| n > 2 * enforcers.len())
        })
    };
    assert!(multi_pass("Sort ("), "no multi-pass full sort");
    assert!(multi_pass("Partial Sort ("), "no multi-pass partial sort");
}
