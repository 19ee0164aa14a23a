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
//! On a mismatch the whole actual recording is written next to the test
//! binary's scratch directory (the path is in the failure message); copy it
//! over the expected file only when the change of plans is intended.

use pyro::common::{Schema, Tuple, Value};
use pyro::core::CompileOptions;
use pyro::datagen::{consolidation, qtables, rng_with, tpch, StdRng};
use pyro::{Session, SortOrder, Strategy};
use std::collections::BTreeMap;

const EXPECTED: &str = include_str!("expected/plan_golden.txt");
const SEED: u64 = 41;
const JOIN_SIZES: [usize; 3] = [4, 8, 16];
const JOIN_TABLE_ROWS: usize = 200;

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
/// `sat<i>(k<i>, s<i>)`.
fn session() -> Session {
    let mut session = Session::builder().hash_operators(false).seed(SEED).build();
    let cat = session.catalog_mut();
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

/// Every statement with its label and strategy.
fn statements() -> Vec<(String, String, Strategy)> {
    let mut out = Vec::new();
    for strategy in Strategy::all() {
        for (label, sql) in PAPER {
            out.push((
                format!("{label} {}", strategy.name()),
                sql.to_string(),
                strategy,
            ));
        }
    }
    for n in JOIN_SIZES {
        out.push((format!("chain{n}"), chain_sql(n), Strategy::pyro_o()));
        out.push((format!("star{n}"), star_sql(n), Strategy::pyro_o()));
    }
    out
}

/// Plans every statement with hash operators off, then on, and renders one
/// block per plan, keyed by its label.
fn record() -> BTreeMap<String, String> {
    let mut session = session();
    let mut out = BTreeMap::new();
    for hash in [false, true] {
        session.set_hash_operators(hash);
        for (label, sql, strategy) in statements() {
            session.set_strategy(strategy);
            let plan = session
                .plan(&sql)
                .unwrap_or_else(|e| panic!("{label}: {e}"));
            let info = plan.planning;
            let label = format!("{label} hash={}", if hash { "on" } else { "off" });
            let pipeline = plan
                .compile(session.catalog(), &CompileOptions::default())
                .unwrap_or_else(|e| panic!("{label}: {e}"));
            let block = format!(
                "cost {:#018x} groups {} candidates {} reordered {}\nschema {}\n{}",
                plan.cost().to_bits(),
                info.groups,
                info.candidates,
                info.reordered_joins,
                pipeline.schema(),
                plan.explain()
            );
            assert!(out.insert(label, block).is_none(), "duplicate label");
        }
    }
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
    assert_eq!(actual.len(), 2 * (5 * PAPER.len() + 2 * JOIN_SIZES.len()));
}
