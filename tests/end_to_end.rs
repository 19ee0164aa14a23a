//! End-to-end integration tests: SQL → logical plan → optimizer → executor,
//! across all five interesting-order strategies, on the paper's queries —
//! all driven through the `pyro::Session` front door.

use pyro::common::{Schema, Tuple, Value};
use pyro::core::PhysOp;
use pyro::datagen::{consolidation, qtables, tpch};
use pyro::{Session, SortOrder, Strategy};

mod common;
use common::exact;

/// Runs `sql` under every strategy (hash on and off) and asserts identical
/// result multisets; returns the PYRO-O rows.
fn assert_strategy_invariance(session: &mut Session, sql: &str) -> Vec<Tuple> {
    let mut reference: Option<Vec<Tuple>> = None;
    let mut pyro_o_rows = Vec::new();
    for strategy in Strategy::all() {
        for hash in [true, false] {
            session.set_strategy(strategy);
            session.set_hash_operators(hash);
            let result = session
                .sql(sql)
                .unwrap_or_else(|e| panic!("{} failed: {e}", strategy.name()));
            let mut rows = result.into_rows();
            if strategy == Strategy::pyro_o() && hash {
                pyro_o_rows = rows.clone();
            }
            // Compare as multisets (plans may emit different but equally
            // valid orders when the query has no ORDER BY).
            rows.sort();
            match &reference {
                None => reference = Some(rows),
                Some(r) => assert_eq!(
                    exact(r),
                    exact(&rows),
                    "strategy {} (hash={hash}) changed the result set",
                    strategy.name()
                ),
            }
        }
    }
    pyro_o_rows
}

fn tpch_session() -> Session {
    let mut session = Session::new();
    tpch::load(session.catalog_mut(), tpch::TpchConfig::scaled(0.002)).unwrap();
    session
}

#[test]
fn query1_order_by_on_lineitem() {
    // Experiment A1's query: ORDER BY (l_suppkey, l_partkey) served by the
    // covering index + partial sort.
    let mut session = tpch_session();
    let rows = assert_strategy_invariance(
        &mut session,
        "SELECT l_suppkey, l_partkey FROM lineitem ORDER BY l_suppkey, l_partkey",
    );
    assert!(!rows.is_empty());
    // Verify the ORDER BY actually holds on the returned rows.
    let keys: Vec<(i64, i64)> = rows
        .iter()
        .map(|t| (t.get(0).as_int().unwrap(), t.get(1).as_int().unwrap()))
        .collect();
    assert!(
        keys.windows(2).all(|w| w[0] <= w[1]),
        "output must be sorted"
    );
}

#[test]
fn query1_pyro_o_plan_uses_covering_index_and_partial_sort() {
    let session = tpch_session();
    let plan = session
        .plan("SELECT l_suppkey, l_partkey FROM lineitem ORDER BY l_suppkey, l_partkey")
        .unwrap();
    assert_eq!(
        plan.root
            .count_nodes(&|n| matches!(n.op, PhysOp::CoveringIndexScan { .. })),
        1,
        "{}",
        plan.explain()
    );
    assert_eq!(
        plan.root
            .count_nodes(&|n| matches!(n.op, PhysOp::PartialSort { prefix_len: 1, .. })),
        1,
        "{}",
        plan.explain()
    );
    assert_eq!(
        plan.root
            .count_nodes(&|n| matches!(n.op, PhysOp::Sort { .. })),
        0,
        "no full sort wanted:\n{}",
        plan.explain()
    );
}

#[test]
fn query2_count_per_supplier_part() {
    // Experiment A4's query.
    let mut session = tpch_session();
    let rows = assert_strategy_invariance(
        &mut session,
        "SELECT ps_suppkey, ps_partkey, ps_availqty, count(l_partkey) AS n \
         FROM partsupp, lineitem \
         WHERE ps_suppkey = l_suppkey AND ps_partkey = l_partkey \
         GROUP BY ps_suppkey, ps_partkey, ps_availqty \
         ORDER BY ps_suppkey, ps_partkey",
    );
    assert!(!rows.is_empty());
}

#[test]
fn query3_stock_outage() {
    let mut session = tpch_session();
    let rows = assert_strategy_invariance(
        &mut session,
        "SELECT ps_suppkey, ps_partkey, ps_availqty, sum(l_quantity) AS total \
         FROM partsupp, lineitem \
         WHERE ps_suppkey = l_suppkey AND ps_partkey = l_partkey AND l_linestatus = 'O' \
         GROUP BY ps_availqty, ps_partkey, ps_suppkey \
         HAVING sum(l_quantity) > ps_availqty \
         ORDER BY ps_partkey",
    );
    // HAVING must actually filter: every returned total > availqty.
    for row in &rows {
        let availqty = row.get(2).as_int().unwrap();
        let total = row.get(3).as_int().unwrap();
        assert!(total > availqty);
    }
}

#[test]
fn query4_double_full_outer_join() {
    let mut session = Session::new();
    qtables::load_q4(session.catalog_mut(), 400).unwrap();
    let rows = assert_strategy_invariance(
        &mut session,
        "SELECT * FROM r1 FULL OUTER JOIN r2 \
         ON (r1.c5 = r2.c5 AND r1.c4 = r2.c4 AND r1.c3 = r2.c3) \
         FULL OUTER JOIN r3 \
         ON (r3.c1 = r1.c1 AND r3.c4 = r1.c4 AND r3.c5 = r1.c5)",
    );
    // Full outer: at least as many rows as the largest input.
    assert!(rows.len() >= 400);
}

#[test]
fn query4_pyro_o_joins_share_prefix() {
    // Experiment B2's headline: the two join orders share the (c4, c5)
    // prefix after phase-2 refinement (paper Fig. 14b).
    let mut session = Session::new();
    qtables::load_q4(session.catalog_mut(), 400).unwrap();
    let plan = session
        .plan(
            "SELECT * FROM r1 FULL OUTER JOIN r2 \
             ON (r1.c5 = r2.c5 AND r1.c4 = r2.c4 AND r1.c3 = r2.c3) \
             FULL OUTER JOIN r3 \
             ON (r3.c1 = r1.c1 AND r3.c4 = r1.c4 AND r3.c5 = r1.c5)",
        )
        .unwrap();
    let mut orders = Vec::new();
    plan.root.walk(&mut |n| {
        if let PhysOp::MergeJoin { order, .. } = &n.op {
            orders.push(order.clone());
        }
    });
    assert_eq!(orders.len(), 2, "{}", plan.explain());
    let bare = |o: &pyro::SortOrder, i: usize| o.attrs()[i].rsplit('.').next().unwrap().to_string();
    let shared: Vec<String> = (0..2)
        .take_while(|&i| bare(&orders[0], i) == bare(&orders[1], i))
        .map(|i| bare(&orders[0], i))
        .collect();
    assert_eq!(shared.len(), 2, "{:?} vs {:?}", orders[0], orders[1]);
    let mut sorted = shared.clone();
    sorted.sort();
    assert_eq!(sorted, vec!["c4", "c5"], "the shared attributes are c4, c5");
}

#[test]
fn query5_trading_self_join() {
    let mut session = Session::new();
    qtables::load_tran(session.catalog_mut(), 2_000).unwrap();
    let rows = assert_strategy_invariance(
        &mut session,
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
    assert_eq!(rows.len(), 1000, "one group per (New, Executed) order pair");
}

#[test]
fn query6_basket_analytics() {
    let mut session = Session::new();
    qtables::load_basket_analytics(session.catalog_mut(), 2_000).unwrap();
    let rows = assert_strategy_invariance(
        &mut session,
        "SELECT * FROM basket b, analytics a \
         WHERE b.prodtype = a.prodtype AND b.symbol = a.symbol AND b.exchange = a.exchange",
    );
    // sanity: join produces something but far less than the cross product
    assert!(!rows.is_empty());
    assert!(rows.len() < 2_000 * 10);
}

#[test]
fn example1_consolidation_query() {
    let mut session = Session::new();
    consolidation::load(session.catalog_mut(), 3_000).unwrap();
    let rows = assert_strategy_invariance(
        &mut session,
        "SELECT c1.make, c1.year, c1.city, c1.color, c1.sellreason, c2.breakdowns, r.rating \
         FROM catalog1 c1, catalog2 c2, rating r \
         WHERE c1.city = c2.city AND c1.make = c2.make AND c1.year = c2.year \
           AND c1.color = c2.color AND c1.make = r.make AND c1.year = r.year \
         ORDER BY c1.make, c1.year, c1.color, c1.city, c1.sellreason, c2.breakdowns, r.rating",
    );
    // ORDER BY holds — note the ORDER BY list is (make, year, color, city,
    // sellreason, breakdowns, rating) while SELECT has city before color.
    let key = |t: &Tuple| {
        [0usize, 1, 3, 2, 4, 5, 6]
            .iter()
            .map(|&i| t.get(i).clone())
            .collect::<Vec<_>>()
    };
    assert!(rows.windows(2).all(|w| key(&w[0]) <= key(&w[1])));
}

#[test]
fn pyro_e_is_never_worse_than_others_on_paper_queries() {
    let mut session = tpch_session();
    session.set_hash_operators(false);
    let sql = "SELECT ps_suppkey, ps_partkey, ps_availqty, sum(l_quantity) AS total \
             FROM partsupp, lineitem \
             WHERE ps_suppkey = l_suppkey AND ps_partkey = l_partkey AND l_linestatus = 'O' \
             GROUP BY ps_availqty, ps_partkey, ps_suppkey \
             HAVING sum(l_quantity) > ps_availqty \
             ORDER BY ps_partkey";
    let mut cost = |s: Strategy| {
        session.set_strategy(s);
        session.plan(sql).unwrap().cost()
    };
    let e = cost(Strategy::pyro_e());
    for s in [
        Strategy::pyro(),
        Strategy::pyro_p(),
        Strategy::pyro_o(),
        Strategy::pyro_o_minus(),
    ] {
        assert!(
            e <= cost(s) + 1e-6,
            "exhaustive must be the floor, but {} beat it",
            s.name()
        );
    }
}

#[test]
fn pyro_o_costs_at_most_pyro_p_and_pyro_on_paper_queries() {
    // The paper's Fig. 15 ordering (sort-based plan space): PYRO-O ≤ PYRO-P
    // on the complex queries, and PYRO-O well below plain PYRO.
    let mut session = Session::builder().hash_operators(false).build();
    qtables::load_basket_analytics(session.catalog_mut(), 5_000).unwrap();
    let sql = "SELECT * FROM basket b, analytics a \
             WHERE b.prodtype = a.prodtype AND b.symbol = a.symbol AND b.exchange = a.exchange";
    let mut cost = |s: Strategy| {
        session.set_strategy(s);
        session.plan(sql).unwrap().cost()
    };
    assert!(cost(Strategy::pyro_o()) <= cost(Strategy::pyro_p()) + 1e-6);
    assert!(cost(Strategy::pyro_o()) < cost(Strategy::pyro()));
}

/// `SELECT *` lowers to no projection, so its output columns are named by
/// no expression: an index covering only the columns the query *names*
/// must not be taken for one that covers the query.
#[test]
fn select_star_returns_every_column_beside_a_narrow_index() {
    let session_with = |index: bool| {
        let ints = |vals: [i64; 3]| Tuple::new(vals.iter().map(|v| Value::Int(*v)).collect());
        let mut session = Session::new();
        for name in ["t", "u"] {
            let rows: Vec<Tuple> = (0..200).map(|i| ints([i, i % 20, i % 7])).collect();
            let schema = Schema::ints(&["a", "b", "c"]);
            session
                .register_table(name, schema, SortOrder::new(["a"]), &rows)
                .unwrap();
        }
        if index {
            session
                .create_index("t", "t_b", SortOrder::new(["b"]), &[])
                .unwrap();
        }
        session
    };
    let (mut with, mut without) = (session_with(true), session_with(false));
    for (sql, columns) in [
        ("SELECT * FROM t WHERE b = 5", 3),
        ("SELECT * FROM t ORDER BY b", 3),
        ("SELECT * FROM t, u WHERE t.b = u.b", 6),
    ] {
        let mut expected = assert_strategy_invariance(&mut without, sql);
        let mut rows = assert_strategy_invariance(&mut with, sql);
        assert!(rows.iter().all(|r| r.arity() == columns), "{sql}");
        expected.sort();
        rows.sort();
        assert_eq!(
            exact(&expected),
            exact(&rows),
            "the index changed the answer: {sql}"
        );
    }
    // Index-only scans are still chosen where the index does cover.
    with.set_strategy(Strategy::pyro_o());
    let plan = with.plan("SELECT b FROM t WHERE b = 5").unwrap();
    assert_eq!(
        plan.root
            .count_nodes(&|n| matches!(n.op, PhysOp::CoveringIndexScan { .. })),
        1,
        "{}",
        plan.explain()
    );
}

/// The cardinality-free reorder rewrites a multi-way chain but preserves
/// rows, schema and result order.
#[test]
fn heuristic_reorder_preserves_rows_on_multiway_chain() {
    let session = |builder: pyro::SessionBuilder| {
        let mut s = builder.build();
        for (i, t) in ["t0", "t1", "t2", "t3"].iter().enumerate() {
            let csv: String = (0..120)
                .map(|k| format!("{k},{}\n", k * (i as i64 + 2)))
                .collect();
            let schema = Schema::ints(&["k", &format!("v{i}")]);
            s.register_csv(t, schema, SortOrder::new(["k"]), &csv)
                .unwrap();
        }
        s
    };
    let written = session(Session::builder().join_enum_threshold(usize::MAX));
    let heuristic = session(Session::builder().join_enum_threshold(2));

    // A 4-way chain: greedy seeds at the densest leaf (t1), so the
    // heuristic rewrites the tree while the pass-through projection
    // restores the original column order.
    let sql = "SELECT t0.k, t0.v0, t1.v1, t2.v2, t3.v3 \
               FROM t0, t1, t2, t3 \
               WHERE t0.k = t1.k AND t1.k = t2.k AND t2.k = t3.k \
               ORDER BY t0.k";
    let a = written.sql(sql).unwrap();
    let b = heuristic.sql(sql).unwrap();
    assert_eq!(a.planning().reordered_joins, 0, "threshold off");
    assert!(
        b.planning().reordered_joins > 0,
        "a 4-way chain is above the heuristic's threshold:\n{}",
        b.explain()
    );
    assert_eq!(a.schema(), b.schema(), "projection restores column order");
    assert_eq!(
        exact(a.rows()),
        exact(b.rows()),
        "reorder must not change the result"
    );
    assert_eq!(a.len(), 120);
}
