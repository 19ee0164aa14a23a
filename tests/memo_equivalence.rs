//! Memo-vs-exhaustive equivalence: the memo enumerator is a *prefilled*
//! run of the same pure goal-directed search the legacy recursion performs,
//! so — whenever the join-reorder fallback does not fire — it must produce
//! the same plan at the same cost, bit-identical rows, identical paper
//! counters (comparisons, run pages written/read, runs created), and even
//! identical search accounting (memo groups and candidates enumerated).
//!
//! Covered here: every SQL workload from the end-to-end/order-claims
//! suites × all five strategies × hash operators on/off, plus the
//! interesting-order cap (truncation may skip prefill goals but never
//! changes the winning plan) and the cardinality-free heuristic (reorders
//! big join regions yet preserves rows and schema).

use pyro::common::Value;
use pyro::core::{JoinPair, LogicalPlan, Optimizer};
use pyro::datagen::{consolidation, qtables, tpch};
use pyro::{EnumStrategy, Session, SortOrder, Strategy};

/// Builds an (exhaustive, memo) session pair and hands them to `load`.
fn session_pair(load: &dyn Fn(&mut Session)) -> (Session, Session) {
    let mut exhaustive = Session::builder()
        .enum_strategy(EnumStrategy::Exhaustive)
        .build();
    let mut memo = Session::builder().enum_strategy(EnumStrategy::Memo).build();
    load(&mut exhaustive);
    load(&mut memo);
    (exhaustive, memo)
}

/// Runs `sql` under every strategy × hash toggle on both sessions and
/// asserts the full equivalence contract.
fn assert_equivalent(exhaustive: &mut Session, memo: &mut Session, sql: &str) {
    for strategy in Strategy::all() {
        for hash in [true, false] {
            for s in [&mut *exhaustive, &mut *memo] {
                s.set_strategy(strategy);
                s.set_hash_operators(hash);
            }
            let what = format!("{} hash={hash}: {sql}", strategy.name());
            let a = exhaustive.sql(sql).unwrap();
            let b = memo.sql(sql).unwrap();
            assert_eq!(a.planning().enumerator, EnumStrategy::Exhaustive, "{what}");
            assert_eq!(b.planning().enumerator, EnumStrategy::Memo, "{what}");
            assert_eq!(a.cost(), b.cost(), "plan cost diverged: {what}");
            assert_eq!(
                a.plan().explain(),
                b.plan().explain(),
                "plan tree diverged: {what}"
            );
            assert_eq!(a.schema(), b.schema(), "schema diverged: {what}");
            assert_eq!(a.rows(), b.rows(), "rows diverged: {what}");
            assert_eq!(
                a.metrics().comparisons(),
                b.metrics().comparisons(),
                "comparisons diverged: {what}"
            );
            assert_eq!(
                a.metrics().run_pages_written(),
                b.metrics().run_pages_written(),
                "run pages written diverged: {what}"
            );
            assert_eq!(
                a.metrics().run_pages_read(),
                b.metrics().run_pages_read(),
                "run pages read diverged: {what}"
            );
            assert_eq!(
                a.metrics().runs_created(),
                b.metrics().runs_created(),
                "runs created diverged: {what}"
            );
            // The prefill walks the exact goal closure the recursion
            // explores, so the search accounting matches too.
            assert_eq!(
                a.planning().groups,
                b.planning().groups,
                "memo groups diverged: {what}"
            );
            assert_eq!(
                a.planning().candidates,
                b.planning().candidates,
                "candidates diverged: {what}"
            );
            assert_eq!(
                b.planning().reordered_joins,
                0,
                "workload is below the join-enum threshold: {what}"
            );
        }
    }
}

#[test]
fn tpch_workloads_match() {
    let (mut exhaustive, mut memo) = session_pair(&|s| {
        tpch::load(s.catalog_mut(), tpch::TpchConfig::scaled(0.002)).unwrap();
    });
    for sql in [
        "SELECT l_suppkey, l_partkey FROM lineitem ORDER BY l_suppkey, l_partkey",
        "SELECT l_suppkey, l_partkey FROM lineitem ORDER BY l_suppkey, l_partkey LIMIT 50",
        "SELECT ps_suppkey, ps_partkey, ps_availqty, count(l_partkey) AS n \
         FROM partsupp, lineitem \
         WHERE ps_suppkey = l_suppkey AND ps_partkey = l_partkey \
         GROUP BY ps_suppkey, ps_partkey, ps_availqty \
         ORDER BY ps_suppkey, ps_partkey",
        "SELECT ps_suppkey, ps_partkey, ps_availqty, sum(l_quantity) AS total \
         FROM partsupp, lineitem \
         WHERE ps_suppkey = l_suppkey AND ps_partkey = l_partkey AND l_linestatus = 'O' \
         GROUP BY ps_availqty, ps_partkey, ps_suppkey \
         HAVING sum(l_quantity) > ps_availqty \
         ORDER BY ps_partkey",
    ] {
        assert_equivalent(&mut exhaustive, &mut memo, sql);
    }
}

#[test]
fn full_outer_join_workloads_match() {
    let (mut exhaustive, mut memo) = session_pair(&|s| {
        qtables::load_q4(s.catalog_mut(), 400).unwrap();
    });
    for sql in [
        "SELECT * FROM r1 FULL OUTER JOIN r2 \
         ON (r1.c5 = r2.c5 AND r1.c4 = r2.c4 AND r1.c3 = r2.c3) \
         FULL OUTER JOIN r3 \
         ON (r3.c1 = r1.c1 AND r3.c4 = r1.c4 AND r3.c5 = r1.c5)",
        "SELECT * FROM r1 FULL OUTER JOIN r2 \
         ON (r1.c5 = r2.c5 AND r1.c4 = r2.c4 AND r1.c3 = r2.c3) \
         FULL OUTER JOIN r3 \
         ON (r3.c1 = r1.c1 AND r3.c4 = r1.c4 AND r3.c5 = r1.c5) \
         ORDER BY r1.c4, r1.c5",
    ] {
        assert_equivalent(&mut exhaustive, &mut memo, sql);
    }
}

#[test]
fn trading_and_basket_workloads_match() {
    let (mut exhaustive, mut memo) = session_pair(&|s| {
        qtables::load_tran(s.catalog_mut(), 1_000).unwrap();
    });
    assert_equivalent(
        &mut exhaustive,
        &mut memo,
        "SELECT t1.userid, t1.basketid, t1.parentorderid, t1.waveid, t1.childorderid, \
                min(t1.quantity * t1.price) AS ordervalue, \
                sum(t2.quantity * t2.price) AS executedvalue \
         FROM tran t1, tran t2 \
         WHERE t1.userid = t2.userid AND t1.parentorderid = t2.parentorderid \
           AND t1.basketid = t2.basketid AND t1.waveid = t2.waveid \
           AND t1.childorderid = t2.childorderid \
           AND t1.trantype = 'New' AND t2.trantype = 'Executed' \
         GROUP BY t1.userid, t1.basketid, t1.parentorderid, t1.waveid, t1.childorderid",
    );

    let (mut exhaustive, mut memo) = session_pair(&|s| {
        qtables::load_basket_analytics(s.catalog_mut(), 1_000).unwrap();
    });
    for sql in [
        "SELECT * FROM basket b, analytics a \
         WHERE b.prodtype = a.prodtype AND b.symbol = a.symbol AND b.exchange = a.exchange",
        "SELECT DISTINCT prodtype, exchange FROM basket ORDER BY prodtype, exchange",
    ] {
        assert_equivalent(&mut exhaustive, &mut memo, sql);
    }
}

#[test]
fn consolidation_workload_matches() {
    let (mut exhaustive, mut memo) = session_pair(&|s| {
        consolidation::load(s.catalog_mut(), 1_500).unwrap();
    });
    assert_equivalent(
        &mut exhaustive,
        &mut memo,
        "SELECT c1.make, c1.year, c1.color, c1.city, c2.breakdowns, r.rating \
         FROM catalog1 c1, catalog2 c2, rating r \
         WHERE c1.city = c2.city AND c1.make = c2.make AND c1.year = c2.year \
           AND c1.color = c2.color AND c1.make = r.make AND c1.year = r.year \
         ORDER BY c1.make, c1.year, c1.color",
    );
}

// ---------------------------------------------------------------------
// Interesting-order cap: truncation is accounted but never changes the
// winning plan (truncated goals fall back to on-demand recursion).
// ---------------------------------------------------------------------

#[test]
fn interesting_order_cap_truncates_without_changing_the_plan() {
    let mut catalog = pyro::catalog::Catalog::new();
    let cols = ["a0", "a1", "a2"];
    let rows: Vec<pyro::common::Tuple> = (0..500)
        .map(|r| {
            pyro::common::Tuple::new(
                (0..3)
                    .map(|c| Value::Int(((r * (c + 3)) % 97) as i64))
                    .collect(),
            )
        })
        .collect();
    let mut sorted = rows.clone();
    sorted.sort();
    for t in ["t1", "t2"] {
        catalog
            .register_table(
                t,
                pyro::common::Schema::ints(&cols),
                SortOrder::new(["a0"]),
                &sorted,
            )
            .unwrap();
    }
    let mut plan = LogicalPlan::new();
    let l = plan.scan_as("t1", "l");
    let r = plan.scan_as("t2", "r");
    let pairs: Vec<JoinPair> = (0..3)
        .map(|i| JoinPair::new(format!("l.a{i}"), format!("r.a{i}")))
        .collect();
    plan.join(l, r, pairs);

    let full = Optimizer::new(&catalog)
        .with_strategy(Strategy::pyro_e())
        .optimize(&plan)
        .unwrap();
    let capped = Optimizer::new(&catalog)
        .with_strategy(Strategy::pyro_e())
        .with_interesting_cap(1)
        .optimize(&plan)
        .unwrap();

    assert_eq!(full.planning.truncated, 0, "default cap fits the workload");
    assert!(
        capped.planning.truncated > 0,
        "cap 1 must truncate a multi-order join"
    );
    assert_eq!(full.cost(), capped.cost(), "truncation never changes cost");
    assert_eq!(full.explain(), capped.explain(), "...or the chosen plan");
    assert_eq!(full.planning.groups, capped.planning.groups);
    assert_eq!(full.planning.candidates, capped.planning.candidates);
}

// ---------------------------------------------------------------------
// Heuristic: the cardinality-free reorder rewrites a multi-way chain but
// preserves rows, schema, and result order.
// ---------------------------------------------------------------------

#[test]
fn heuristic_reorder_preserves_rows_on_multiway_chain() {
    let load = |s: &mut Session| {
        for (i, t) in ["t0", "t1", "t2", "t3"].iter().enumerate() {
            let csv: String = (0..120)
                .map(|k| format!("{k},{}\n", k * (i as i64 + 2)))
                .collect();
            s.register_csv(
                t,
                pyro::common::Schema::ints(&["k", &format!("v{i}")]),
                SortOrder::new(["k"]),
                &csv,
            )
            .unwrap();
        }
    };
    let mut exhaustive = Session::builder()
        .enum_strategy(EnumStrategy::Exhaustive)
        .build();
    let mut heuristic = Session::builder()
        .enum_strategy(EnumStrategy::Heuristic)
        .build();
    load(&mut exhaustive);
    load(&mut heuristic);

    // A 4-way chain: greedy seeds at the densest leaf (t1), so the
    // heuristic rewrites the tree while the pass-through projection
    // restores the original column order.
    let sql = "SELECT t0.k, t0.v0, t1.v1, t2.v2, t3.v3 \
               FROM t0, t1, t2, t3 \
               WHERE t0.k = t1.k AND t1.k = t2.k AND t2.k = t3.k \
               ORDER BY t0.k";
    let a = exhaustive.sql(sql).unwrap();
    let b = heuristic.sql(sql).unwrap();
    assert!(
        b.planning().reordered_joins > 0,
        "a 4-way chain is above the heuristic's threshold:\n{}",
        b.explain()
    );
    assert_eq!(a.schema(), b.schema(), "projection restores column order");
    assert_eq!(a.rows(), b.rows(), "reorder must not change the result");
    assert_eq!(a.len(), 120);
}

// ---------------------------------------------------------------------
// Wide joins with the reorder threshold off (the gate the retired
// `bench_opt` smoke held): on chains and stars up to 20 relations the
// memo prefill and the exhaustive recursion are the same pure search, so
// cost and search accounting match exactly.
// ---------------------------------------------------------------------

#[test]
fn wide_chains_and_stars_cost_the_same_with_the_threshold_off() {
    // `edges[i]` names the (left, right) join columns linking relation
    // `i + 1` to the tree built so far.
    let check = |shape: &str, tables: Vec<(String, Vec<String>)>, edges: Vec<(String, String)>| {
        let mut session = Session::new();
        for (salt, (name, cols)) in tables.iter().enumerate() {
            let mut rows: Vec<Vec<i64>> = (0..60usize)
                .map(|r| {
                    (0..cols.len())
                        .map(|c| ((r * (c + salt + 3)) % 97) as i64)
                        .collect()
                })
                .collect();
            rows.sort();
            let csv: String = rows
                .iter()
                .map(|r| {
                    let cells: Vec<String> = r.iter().map(i64::to_string).collect();
                    cells.join(",") + "\n"
                })
                .collect();
            let names: Vec<&str> = cols.iter().map(String::as_str).collect();
            session
                .register_csv(
                    name,
                    pyro::common::Schema::ints(&names),
                    SortOrder::new([cols[0].clone()]),
                    &csv,
                )
                .unwrap();
        }
        let mut plan = LogicalPlan::new();
        let mut cur = plan.scan_as(&tables[0].0, &tables[0].0);
        for ((name, _), (l, r)) in tables[1..].iter().zip(edges) {
            let next = plan.scan_as(name, name);
            cur = plan.join(cur, next, vec![JoinPair::new(l, r)]);
        }
        let optimize = |enumerator| {
            Optimizer::new(session.catalog())
                .with_enum_strategy(enumerator)
                .with_join_enum_threshold(usize::MAX)
                .optimize(&plan)
                .unwrap()
        };
        let (ex, memo) = (
            optimize(EnumStrategy::Exhaustive),
            optimize(EnumStrategy::Memo),
        );
        let n = tables.len();
        assert_eq!(ex.cost(), memo.cost(), "{shape} n={n}: cost");
        assert_eq!(ex.explain(), memo.explain(), "{shape} n={n}: plan");
        assert_eq!(ex.planning.groups, memo.planning.groups, "{shape} n={n}");
        assert_eq!(
            ex.planning.candidates, memo.planning.candidates,
            "{shape} n={n}"
        );
        assert_eq!(memo.planning.reordered_joins, 0, "{shape} n={n}");
    };
    for n in [2usize, 8, 20] {
        // Chain: t{i} carries x{i}, x{i+1} and joins its successor on x{i+1}.
        let tables = (0..n)
            .map(|i| {
                (
                    format!("t{i}"),
                    vec![format!("x{i}"), format!("x{}", i + 1)],
                )
            })
            .collect();
        let edges = (1..n)
            .map(|i| (format!("t{}.x{i}", i - 1), format!("t{i}.x{i}")))
            .collect();
        check("chain", tables, edges);
        // Star: hub t0 carries one key per satellite t{i}.
        let mut tables = vec![("t0".to_string(), (1..n).map(|i| format!("k{i}")).collect())];
        tables.extend((1..n).map(|i| (format!("t{i}"), vec![format!("k{i}"), format!("s{i}")])));
        let edges = (1..n)
            .map(|i| (format!("t0.k{i}"), format!("t{i}.k{i}")))
            .collect();
        check("star", tables, edges);
    }
}
