//! Order-claim verification: every sort order the optimizer *claims* on the
//! root of a plan must actually hold on the produced stream, for every
//! strategy and query. This is the invariant that separates "the plan looks
//! like the paper's figure" from "the plan is correct" — and the test
//! pattern that exposed the merge-full-outer-join NULL-ordering bug during
//! development. All plans come through the `pyro::Session` front door.

use pyro::common::{Schema, Tuple, Value};
use pyro::core::PhysOp;
use pyro::datagen::{consolidation, qtables, tpch};
use pyro::{Session, SortOrder, Strategy};

mod common;
use common::exact;

/// Executes `sql` under every strategy/hash combination and asserts the
/// stream is sorted by the root's claimed output order.
fn assert_order_claims(session: &mut Session, sql: &str) {
    for strategy in Strategy::all() {
        for hash in [true, false] {
            session.set_strategy(strategy);
            session.set_hash_operators(hash);
            let plan = session.plan(sql).unwrap();
            let claimed = plan.root.out_order.clone();
            let schema = plan.root.schema.clone();
            let rows = plan.execute(session.catalog()).unwrap().rows;
            if claimed.is_empty() {
                continue;
            }
            let cols: Vec<usize> = claimed
                .attrs()
                .iter()
                .map(|a| {
                    schema
                        .index_of(a)
                        .unwrap_or_else(|_| panic!("claimed order attr {a} not in schema"))
                })
                .collect();
            let key = |t: &pyro::common::Tuple| -> Vec<Value> {
                cols.iter().map(|&c| t.get(c).clone()).collect()
            };
            for w in rows.windows(2) {
                assert!(
                    key(&w[0]) <= key(&w[1]),
                    "{} (hash={hash}) claimed {claimed} but stream violates it:\n{}\n vs\n{}\nplan:\n{}",
                    strategy.name(),
                    w[0],
                    w[1],
                    plan.explain()
                );
            }
        }
    }
}

#[test]
fn claims_hold_on_simple_order_by() {
    let mut session = Session::new();
    tpch::load(session.catalog_mut(), tpch::TpchConfig::scaled(0.002)).unwrap();
    assert_order_claims(
        &mut session,
        "SELECT l_suppkey, l_partkey FROM lineitem ORDER BY l_suppkey, l_partkey",
    );
}

#[test]
fn claims_hold_on_query3() {
    let mut session = Session::new();
    tpch::load(session.catalog_mut(), tpch::TpchConfig::scaled(0.002)).unwrap();
    assert_order_claims(
        &mut session,
        "SELECT ps_suppkey, ps_partkey, ps_availqty, sum(l_quantity) AS total \
         FROM partsupp, lineitem \
         WHERE ps_suppkey = l_suppkey AND ps_partkey = l_partkey AND l_linestatus = 'O' \
         GROUP BY ps_availqty, ps_partkey, ps_suppkey \
         HAVING sum(l_quantity) > ps_availqty \
         ORDER BY ps_partkey",
    );
}

#[test]
fn claims_hold_on_full_outer_joins() {
    // The regression case: FO merge joins interleaving NULL-padded rows.
    let mut session = Session::new();
    qtables::load_q4(session.catalog_mut(), 500).unwrap();
    assert_order_claims(
        &mut session,
        "SELECT * FROM r1 FULL OUTER JOIN r2 \
         ON (r1.c5 = r2.c5 AND r1.c4 = r2.c4 AND r1.c3 = r2.c3) \
         FULL OUTER JOIN r3 \
         ON (r3.c1 = r1.c1 AND r3.c4 = r1.c4 AND r3.c5 = r1.c5) \
         ORDER BY r1.c4, r1.c5",
    );
}

#[test]
fn claims_hold_on_consolidation_query() {
    let mut session = Session::new();
    consolidation::load(session.catalog_mut(), 2_000).unwrap();
    assert_order_claims(
        &mut session,
        "SELECT c1.make, c1.year, c1.color, c1.city, c2.breakdowns, r.rating \
         FROM catalog1 c1, catalog2 c2, rating r \
         WHERE c1.city = c2.city AND c1.make = c2.make AND c1.year = c2.year \
           AND c1.color = c2.color AND c1.make = r.make AND c1.year = r.year \
         ORDER BY c1.make, c1.year, c1.color",
    );
}

/// `sfact(s_id, s_d1, s_m)`: 10k rows clustered on `s_id` (several morsels);
/// `sd1(k1, a1)`: `dim_rows` rows in no declared order, so a merge join would
/// have to sort both sides.
fn fact_and_dimension(dim_rows: i64) -> Session {
    let ints = |vals: [i64; 3]| Tuple::new(vals.iter().map(|v| Value::Int(*v)).collect());
    let mut session = Session::new();
    let fact: Vec<Tuple> = (0..10_000)
        .map(|id| ints([id, (id * 7919) % dim_rows, id % 97]))
        .collect();
    session
        .register_table(
            "sfact",
            Schema::ints(&["s_id", "s_d1", "s_m"]),
            SortOrder::new(["s_id"]),
            &fact,
        )
        .unwrap();
    let dim: Vec<Tuple> = (0..dim_rows)
        .map(|k| Tuple::new(vec![Value::Int(k), Value::Int(k % 100)]))
        .collect();
    session
        .register_table("sd1", Schema::ints(&["k1", "a1"]), SortOrder::empty(), &dim)
        .unwrap();
    session
}

fn enforcers(plan: &pyro::core::OptimizedPlan) -> usize {
    plan.root
        .count_nodes(&|n| matches!(n.op, PhysOp::Sort { .. } | PhysOp::PartialSort { .. }))
}

/// A hash join whose table fits in memory streams its probe input through
/// in order, so an ORDER BY on the probe side's clustering needs no
/// enforcer — and the claim holds at every worker count, where the join
/// runs in parallel: its gather releases the fact table's morsels in file
/// order, each probing a table built in serial order. A dimension over the
/// sort budget would be grace partitioned: no claim, and the enforcer is
/// back.
#[test]
fn hash_join_hands_its_probe_order_to_an_order_by() {
    let sql = "SELECT s_id, s_m, a1 FROM sfact, sd1 WHERE s_d1 = k1 ORDER BY s_id";
    let sorted = |rows: &[Tuple]| rows.windows(2).all(|w| w[0].get(0) < w[1].get(0));

    let mut session = fact_and_dimension(500);
    let plan = session.plan(sql).unwrap();
    assert_eq!(enforcers(&plan), 0, "{}", plan.explain());
    assert_eq!(
        plan.root
            .count_nodes(&|n| matches!(n.op, PhysOp::HashJoin { .. })),
        1,
        "{}",
        plan.explain()
    );
    assert_order_claims(&mut session, sql);
    session.set_strategy(Strategy::pyro_o());
    session.set_hash_operators(true);
    let serial = session.sql(sql).unwrap().into_rows();
    assert_eq!(serial.len(), 10_000);
    assert!(sorted(&serial));
    for workers in [2, 4] {
        session.set_workers(workers);
        let rows = session.sql(sql).unwrap().into_rows();
        assert!(exact(&rows) == exact(&serial), "workers={workers}");
    }

    let mut session = fact_and_dimension(20_000);
    session.set_sort_memory_blocks(50);
    let plan = session.plan(sql).unwrap();
    assert!(enforcers(&plan) > 0, "{}", plan.explain());
    assert_eq!(
        plan.root
            .count_nodes(&|n| matches!(n.op, PhysOp::HashJoin { .. }) && n.out_order.is_empty()),
        1,
        "{}",
        plan.explain()
    );
    assert!(sorted(&session.sql(sql).unwrap().into_rows()));
}

#[test]
fn distinct_agrees_across_strategies_and_orders_hold() {
    let mut session = Session::new();
    qtables::load_basket_analytics(session.catalog_mut(), 2_000).unwrap();
    let sql = "SELECT DISTINCT prodtype, exchange FROM basket ORDER BY prodtype, exchange";
    assert_order_claims(&mut session, sql);
    // Result equality across strategies.
    let mut reference: Option<Vec<_>> = None;
    for strategy in [
        Strategy::pyro(),
        Strategy::pyro_p(),
        Strategy::pyro_o(),
        Strategy::pyro_e(),
    ] {
        for hash in [true, false] {
            session.set_strategy(strategy);
            session.set_hash_operators(hash);
            let rows = session.sql(sql).unwrap().into_rows();
            // DISTINCT must actually deduplicate.
            let mut dedup = rows.clone();
            dedup.dedup();
            assert_eq!(dedup.len(), rows.len(), "duplicates survived DISTINCT");
            match &reference {
                None => reference = Some(rows),
                Some(r) => assert_eq!(exact(r), exact(&rows)),
            }
        }
    }
}

#[test]
fn distinct_exploits_clustering_via_sort_distinct() {
    // basket is clustered on (prodtype, symbol): a DISTINCT over those
    // columns, in either SELECT order, is a grouping with no aggregates that
    // streams off the clustered scan without any sort, and returns its
    // columns in SELECT order.
    let mut session = Session::builder().hash_operators(false).build();
    qtables::load_basket_analytics(session.catalog_mut(), 2_000).unwrap();
    for cols in [["prodtype", "symbol"], ["symbol", "prodtype"]] {
        let sql = format!("SELECT DISTINCT {} FROM basket", cols.join(", "));
        session.set_hash_operators(false);
        let plan = session.plan(&sql).unwrap();
        let explain = plan.explain();
        assert_eq!(
            plan.root.schema.names(),
            cols.map(|c| format!("basket.{c}"))
        );
        assert_eq!(
            plan.root
                .count_nodes(&|n| matches!(n.op, PhysOp::Sort { .. } | PhysOp::PartialSort { .. })),
            0,
            "clustering satisfies the DISTINCT order:\n{explain}"
        );
        assert!(
            matches!(&plan.root.op, PhysOp::SortAggregate { aggs, .. } if aggs.is_empty()),
            "{explain}"
        );
        let mut sorted = session.sql(&sql).unwrap().into_rows();
        session.set_hash_operators(true);
        let mut hashed = session.sql(&sql).unwrap().into_rows();
        assert!(!sorted.is_empty());
        sorted.sort();
        hashed.sort();
        assert_eq!(exact(&sorted), exact(&hashed), "{sql}");
    }
}

#[test]
fn limit_truncates_and_preserves_order() {
    let mut session = Session::new();
    tpch::load(session.catalog_mut(), tpch::TpchConfig::scaled(0.002)).unwrap();
    let rows = session
        .sql("SELECT l_suppkey, l_partkey FROM lineitem ORDER BY l_suppkey, l_partkey LIMIT 50")
        .unwrap()
        .into_rows();
    assert_eq!(rows.len(), 50);
    let keys: Vec<(i64, i64)> = rows
        .iter()
        .map(|t| (t.get(0).as_int().unwrap(), t.get(1).as_int().unwrap()))
        .collect();
    assert!(keys.windows(2).all(|w| w[0] <= w[1]));

    // The Top-K must be the *global* minimum prefix, not an arbitrary 50.
    let all_rows = session
        .sql("SELECT l_suppkey, l_partkey FROM lineitem ORDER BY l_suppkey, l_partkey")
        .unwrap()
        .into_rows();
    assert_eq!(exact(&all_rows[..50]), exact(&rows));
}

#[test]
fn top_k_via_mrs_reads_less() {
    // §3.1 benefit 2: with a partial sort in the pipeline, LIMIT stops after
    // the first segments — far fewer comparisons than draining everything.
    let mut session = Session::new();
    tpch::load(session.catalog_mut(), tpch::TpchConfig::scaled(0.02)).unwrap();
    let run = |sql: &str| {
        let result = session.sql(sql).unwrap();
        (result.len(), result.metrics().comparisons())
    };
    let (n_limited, cmp_limited) =
        run("SELECT l_suppkey, l_partkey FROM lineitem ORDER BY l_suppkey, l_partkey LIMIT 100");
    let (n_full, cmp_full) =
        run("SELECT l_suppkey, l_partkey FROM lineitem ORDER BY l_suppkey, l_partkey");
    assert_eq!(n_limited, 100);
    assert!(n_full > 10_000);
    assert!(
        cmp_limited * 10 < cmp_full,
        "Top-K should compare at least 10x less: {cmp_limited} vs {cmp_full}"
    );
}
