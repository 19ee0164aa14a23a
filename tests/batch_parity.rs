//! Batch parity: every operator must produce identical rows AND identical
//! `ExecMetrics` totals at batch sizes {1, 7, 1024} as one row per pull
//! (batch size 1, the batch contract's reference) — whichever layout its
//! input batches arrive in: scans decoding to columns at the SQL level, and
//! dense batches, batches whose rows hide decoys behind a selection vector
//! and a stream alternating between the two at the operator level.
//!
//! This is the invariant that lets the batch engine claim the paper's
//! Experiment A figures unchanged: batching may only change CPU
//! efficiency, never what work is done. Covered here: the end-to-end and
//! order-claims SQL workloads through the `Session` front door, plus
//! direct operator-level checks for operators the SQL layer rarely reaches
//! (nested loops) and for spill paths (external SRS, oversized MRS
//! segments).

use pyro::common::{KeySpec, Schema, Tuple, Value};
use pyro::core::CompileOptions;
use pyro::datagen::{consolidation, qtables, tpch};
use pyro::exec::agg::{AggExpr, AggFunc, GroupAggregate, HashAggregate};
use pyro::exec::join::{HashJoin, JoinKind, MergeJoin, NestedLoopsJoin, Side};
use pyro::exec::limit::Limit;
use pyro::exec::sort::{PartialSort, SortBudget, StandardReplacementSort};
use pyro::exec::{collect, BoxOp, CmpOp, ExecMetrics, Expr, MetricsRef, Operator};
use pyro::storage::SimDevice;
use pyro::{Session, Strategy};

mod common;

use common::{exact, Layout, Source, LAYOUTS};

const BATCH_SIZES: [usize; 3] = [1, 7, 1024];

/// Runs `sql` one row per pull as the reference, then at every other probe
/// batch size, asserting identical rows and counters.
fn assert_sql_parity(session: &Session, sql: &str) {
    let plan = session.plan(sql).unwrap();
    let run = |batch_size: usize| {
        let options = CompileOptions {
            batch_size,
            ..CompileOptions::default()
        };
        let pipeline = plan.compile(session.catalog(), &options).unwrap();
        pipeline.run().unwrap()
    };
    let reference = run(1);
    for &bs in &BATCH_SIZES[1..] {
        let out = run(bs);
        assert_eq!(
            exact(&reference.rows),
            exact(&out.rows),
            "rows diverged (batch={bs}): {sql}"
        );
        assert_metrics_eq(&reference.metrics, &out.metrics, bs, sql);
    }
}

fn assert_metrics_eq(a: &MetricsRef, b: &MetricsRef, bs: usize, what: &str) {
    assert_eq!(
        a.comparisons(),
        b.comparisons(),
        "comparisons diverged (batch={bs}): {what}"
    );
    assert_eq!(
        a.run_pages_written(),
        b.run_pages_written(),
        "run pages written diverged (batch={bs}): {what}"
    );
    assert_eq!(
        a.run_pages_read(),
        b.run_pages_read(),
        "run pages read diverged (batch={bs}): {what}"
    );
    assert_eq!(
        a.runs_created(),
        b.runs_created(),
        "runs created diverged (batch={bs}): {what}"
    );
}

// ---------------------------------------------------------------------
// SQL workloads (the end_to_end + order_claims suites' queries)
// ---------------------------------------------------------------------

#[test]
fn tpch_queries_parity_across_strategies() {
    let mut session = Session::new();
    tpch::load(session.catalog_mut(), tpch::TpchConfig::scaled(0.002)).unwrap();
    let queries = [
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
    ];
    for strategy in Strategy::all() {
        for hash in [true, false] {
            session.set_strategy(strategy);
            session.set_hash_operators(hash);
            for sql in &queries {
                assert_sql_parity(&session, sql);
            }
        }
    }
}

#[test]
fn full_outer_join_query_parity() {
    let mut session = Session::new();
    qtables::load_q4(session.catalog_mut(), 400).unwrap();
    for hash in [true, false] {
        session.set_hash_operators(hash);
        assert_sql_parity(
            &session,
            "SELECT * FROM r1 FULL OUTER JOIN r2 \
             ON (r1.c5 = r2.c5 AND r1.c4 = r2.c4 AND r1.c3 = r2.c3) \
             FULL OUTER JOIN r3 \
             ON (r3.c1 = r1.c1 AND r3.c4 = r1.c4 AND r3.c5 = r1.c5)",
        );
        assert_sql_parity(
            &session,
            "SELECT * FROM r1 FULL OUTER JOIN r2 \
             ON (r1.c5 = r2.c5 AND r1.c4 = r2.c4 AND r1.c3 = r2.c3) \
             FULL OUTER JOIN r3 \
             ON (r3.c1 = r1.c1 AND r3.c4 = r1.c4 AND r3.c5 = r1.c5) \
             ORDER BY r1.c4, r1.c5",
        );
    }
}

#[test]
fn trading_and_basket_queries_parity() {
    let mut session = Session::new();
    qtables::load_tran(session.catalog_mut(), 1_000).unwrap();
    assert_sql_parity(
        &session,
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

    let mut session = Session::new();
    qtables::load_basket_analytics(session.catalog_mut(), 1_000).unwrap();
    for hash in [true, false] {
        session.set_hash_operators(hash);
        assert_sql_parity(
            &session,
            "SELECT * FROM basket b, analytics a \
             WHERE b.prodtype = a.prodtype AND b.symbol = a.symbol AND b.exchange = a.exchange",
        );
        assert_sql_parity(
            &session,
            "SELECT DISTINCT prodtype, exchange FROM basket ORDER BY prodtype, exchange",
        );
    }
}

#[test]
fn consolidation_query_parity() {
    let mut session = Session::new();
    consolidation::load(session.catalog_mut(), 1_500).unwrap();
    assert_sql_parity(
        &session,
        "SELECT c1.make, c1.year, c1.color, c1.city, c2.breakdowns, r.rating \
         FROM catalog1 c1, catalog2 c2, rating r \
         WHERE c1.city = c2.city AND c1.make = c2.make AND c1.year = c2.year \
           AND c1.color = c2.color AND c1.make = r.make AND c1.year = r.year \
         ORDER BY c1.make, c1.year, c1.color",
    );
}

// ---------------------------------------------------------------------
// Direct operator-level parity (operators + paths SQL plans don't reach)
// ---------------------------------------------------------------------

/// Builds the same operator via `build` — handing it a source factory of
/// the layout under test — once one row per pull over dense input as the
/// reference, then per batch size and input layout, and checks rows and
/// counters agree.
fn assert_op_parity(what: &str, build: &dyn Fn(&Values) -> (BoxOp, MetricsRef)) {
    let (mut op, reference_metrics) = build(&Values(Layout::Dense));
    op.set_batch_size(1);
    let reference_rows = collect(op).unwrap();
    for &bs in &BATCH_SIZES {
        for layout in LAYOUTS {
            let (mut op, metrics) = build(&Values(layout));
            op.set_batch_size(bs);
            let rows = collect(op).unwrap();
            let what = format!("{what} over {layout:?} input");
            assert_eq!(
                exact(&reference_rows),
                exact(&rows),
                "rows diverged (batch={bs}): {what}"
            );
            assert_metrics_eq(&reference_metrics, &metrics, bs, &what);
        }
    }
}

fn int_rows(vals: &[(i64, i64)]) -> Vec<Tuple> {
    vals.iter()
        .map(|&(a, b)| Tuple::new(vec![Value::Int(a), Value::Int(b)]))
        .collect()
}

/// Deterministically scrambled two-column rows, first column grouped.
fn segmented(segments: i64, per_segment: i64) -> Vec<Tuple> {
    let mut rows = Vec::new();
    let mut state = 7u64;
    for s in 0..segments {
        for _ in 0..per_segment {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            rows.push(Tuple::new(vec![
                Value::Int(s),
                Value::Int((state >> 40) as i64),
            ]));
        }
    }
    rows
}

/// In-memory sources of one layout, four rows to a batch (so even the
/// small inputs below span batches, and an alternating stream alternates)
/// unless the operator above forwards its own batch size.
struct Values(Layout);

impl Values {
    fn ab(&self, rows: Vec<Tuple>) -> BoxOp {
        Box::new(Source::new(Schema::ints(&["a", "b"]), rows, 4, self.0))
    }

    fn cd(&self, rows: Vec<Tuple>) -> BoxOp {
        Box::new(Source::new(Schema::ints(&["c", "d"]), rows, 4, self.0))
    }
}

#[test]
fn join_operators_parity() {
    let left = [(1, 10), (1, 11), (2, 20), (4, 40), (6, 60)];
    let right = [(1, 100), (2, 200), (2, 201), (5, 500)];
    for build in [Side::Left, Side::Right] {
        assert_op_parity(&format!("hash_join build={build:?}"), &|v| {
            let m = ExecMetrics::new();
            let op = HashJoin::new(
                v.ab(int_rows(&left)),
                v.cd(int_rows(&right)),
                KeySpec::new(vec![0]),
                KeySpec::new(vec![0]),
                build,
            );
            (Box::new(op), m)
        });
    }
    for kind in [JoinKind::Inner, JoinKind::LeftOuter, JoinKind::FullOuter] {
        assert_op_parity(&format!("nested_loops {kind:?}"), &|v| {
            let m = ExecMetrics::new();
            let op = NestedLoopsJoin::new(
                v.ab(int_rows(&left)),
                v.cd(int_rows(&right)),
                KeySpec::new(vec![0]),
                KeySpec::new(vec![0]),
                kind,
            );
            (Box::new(op), m)
        });
        assert_op_parity(&format!("merge_join {kind:?}"), &|v| {
            let m = ExecMetrics::new();
            let op = MergeJoin::new(
                v.ab(int_rows(&left)),
                v.cd(int_rows(&right)),
                KeySpec::new(vec![0]),
                KeySpec::new(vec![0]),
                kind,
                m.clone(),
            );
            (Box::new(op), m)
        });
    }
}

/// An inner hash join building on its right input is nested loops row for
/// row: both walk the left input in order and emit each left row's matches
/// in right arrival order, columns `left ++ right`. Int keys key the table
/// by value, string keys by dictionary code; both must hold the sequence —
/// at every batch size over every input layout.
#[test]
fn hash_join_building_right_equals_nested_loops_row_for_row() {
    use pyro::common::{Column, DataType};
    // Duplicate keys on both sides, NULL keys on both sides, unmatched keys
    // on both sides; neither side arrives sorted.
    let keyed = |n: i64, modulus: i64, null_every: i64, base: i64, key: &dyn Fn(i64) -> Value| {
        (0..n)
            .map(|i| {
                let k = match (i * 7 + 3) % null_every {
                    0 => Value::Null,
                    _ => key((i * 5) % modulus),
                };
                Tuple::new(vec![k, Value::Int(base + i)])
            })
            .collect::<Vec<Tuple>>()
    };
    let int_key: &dyn Fn(i64) -> Value = &Value::Int;
    let str_key: &dyn Fn(i64) -> Value = &|k| Value::Str(format!("k{k}"));
    for (what, key, ty) in [
        ("int", int_key, DataType::Int),
        ("string", str_key, DataType::Str),
    ] {
        let schema =
            |k: &str, v: &str| Schema::new(vec![Column::new(k, ty), Column::new(v, DataType::Int)]);
        let (left, right) = (keyed(60, 11, 9, 0, key), keyed(45, 13, 7, 1000, key));
        let inputs = |batch: usize, layout: Layout| -> (BoxOp, BoxOp) {
            (
                Box::new(Source::new(schema("a", "b"), left.clone(), batch, layout)),
                Box::new(Source::new(schema("c", "d"), right.clone(), batch, layout)),
            )
        };
        let key0 = || KeySpec::new(vec![0]);
        let hash = |(l, r): (BoxOp, BoxOp)| -> BoxOp {
            Box::new(HashJoin::new(l, r, key0(), key0(), Side::Right))
        };
        let (l, r) = inputs(4, Layout::Dense);
        let mut nested_loops = NestedLoopsJoin::new(l, r, key0(), key0(), JoinKind::Inner);
        nested_loops.set_batch_size(1);
        let oracle = collect(Box::new(nested_loops)).unwrap();
        assert!(
            oracle.len() > left.len(),
            "test premise: duplicate matches ({what} keys)"
        );
        for &bs in &BATCH_SIZES {
            for layout in LAYOUTS {
                let mut op = hash(inputs(4, layout));
                op.set_batch_size(bs);
                assert_eq!(
                    exact(&oracle),
                    exact(&collect(op).unwrap()),
                    "{what} keys, batch={bs}, {layout:?} input"
                );
            }
        }
    }
}

#[test]
fn aggregate_and_distinct_parity() {
    let sorted = int_rows(&[(1, 5), (1, 7), (2, 1), (3, 3), (3, 3), (3, 9)]);
    assert_op_parity("group_aggregate", &|v| {
        let m = ExecMetrics::new();
        let op = GroupAggregate::new(
            v.ab(sorted.clone()),
            vec![0],
            vec![
                AggExpr::new(AggFunc::Count, Expr::col(1), "c"),
                AggExpr::new(AggFunc::Sum, Expr::col(1), "s"),
            ],
        );
        (Box::new(op), m)
    });
    assert_op_parity("hash_aggregate", &|v| {
        let m = ExecMetrics::new();
        let op = HashAggregate::new(
            v.ab(sorted.clone()),
            vec![0],
            vec![AggExpr::new(AggFunc::Avg, Expr::col(1), "m")],
        );
        (Box::new(op), m)
    });
    // A DISTINCT is a grouping on every column with no aggregates.
    assert_op_parity("group_aggregate without aggregates", &|v| {
        let m = ExecMetrics::new();
        let op = GroupAggregate::new(v.ab(sorted.clone()), vec![0, 1], vec![]);
        (Box::new(op), m)
    });
    assert_op_parity("hash_aggregate without aggregates", &|v| {
        let m = ExecMetrics::new();
        let op = HashAggregate::new(v.ab(sorted.clone()), vec![0, 1], vec![]);
        (Box::new(op), m)
    });
}

#[test]
fn filter_project_limit_parity() {
    let rows = segmented(10, 30);
    assert_op_parity("filter", &|v| {
        let m = ExecMetrics::new();
        let op = pyro::exec::filter::Filter::new(
            v.ab(rows.clone()),
            Expr::cmp(CmpOp::Ge, Expr::col(1), Expr::lit(0i64)),
        );
        (Box::new(op), m)
    });
    assert_op_parity("project", &|v| {
        let m = ExecMetrics::new();
        let op = pyro::exec::project::Project::keep(v.ab(rows.clone()), &[1, 0]);
        (Box::new(op), m)
    });
    assert_op_parity("limit", &|v| {
        let m = ExecMetrics::new();
        let op = Limit::new(v.ab(rows.clone()), 17);
        (Box::new(op), m)
    });
}

#[test]
fn sort_spill_paths_parity() {
    // External SRS: reverse-sorted input with a tiny budget forces
    // replacement selection + multi-run merging.
    assert_op_parity("srs_external", &|v| {
        let dev = SimDevice::with_block_size(128);
        let m = ExecMetrics::new();
        let rows: Vec<Tuple> = (0..300)
            .rev()
            .map(|i| Tuple::new(vec![Value::Int(i), Value::Int(i % 7)]))
            .collect();
        let op = StandardReplacementSort::new(
            v.ab(rows),
            KeySpec::new(vec![0, 1]),
            dev,
            SortBudget::new(3, 128),
            m.clone(),
        );
        (Box::new(op), m)
    });
    // MRS with an oversized segment: the per-segment spill/merge path.
    assert_op_parity("mrs_oversized_segment", &|v| {
        let dev = SimDevice::with_block_size(128);
        let m = ExecMetrics::new();
        let mut rows = segmented(1, 400);
        rows.extend(segmented(5, 10).into_iter().map(|t| {
            Tuple::new(vec![
                Value::Int(t.get(0).as_int().unwrap() + 1),
                t.get(1).clone(),
            ])
        }));
        let op = PartialSort::new(
            v.ab(rows),
            KeySpec::new(vec![0, 1]),
            1,
            dev,
            SortBudget::new(3, 128),
            m.clone(),
        );
        (Box::new(op), m)
    });
    // Top-K over MRS: the demand-bounded pull must close the same segments
    // (and so charge the same comparisons) at every batch size.
    assert_op_parity("limit_over_mrs", &|v| {
        let dev = SimDevice::new();
        let m = ExecMetrics::new();
        let op = PartialSort::new(
            v.ab(segmented(20, 25)),
            KeySpec::new(vec![0, 1]),
            1,
            dev,
            SortBudget::new(100, 4096),
            m.clone(),
        );
        (Box::new(Limit::new(Box::new(op), 60)), m)
    });
}

// ---------------------------------------------------------------------
// Pool-bounded variant: an 8-frame buffer pool (far smaller than the
// lineitem heap, so the CLOCK hand evicts constantly) must change cache
// counters only — rows and all four paper counters stay identical to the
// bypass engine at every batch size.
// ---------------------------------------------------------------------

#[test]
fn bounded_pool_parity_with_bypass() {
    let mut bypass = Session::new();
    tpch::load(bypass.catalog_mut(), tpch::TpchConfig::scaled(0.002)).unwrap();
    let mut pooled = Session::builder().buffer_pool_pages(8).build();
    tpch::load(pooled.catalog_mut(), tpch::TpchConfig::scaled(0.002)).unwrap();
    let queries = [
        "SELECT l_suppkey, l_partkey FROM lineitem ORDER BY l_suppkey, l_partkey",
        "SELECT ps_suppkey, ps_partkey, ps_availqty, count(l_partkey) AS n \
         FROM partsupp, lineitem \
         WHERE ps_suppkey = l_suppkey AND ps_partkey = l_partkey \
         GROUP BY ps_suppkey, ps_partkey, ps_availqty \
         ORDER BY ps_suppkey, ps_partkey",
    ];
    for sql in queries {
        // Premise: an 8-page pool is too small for any cost-model discount
        // to apply, so both sessions must choose the same plan.
        assert_eq!(
            bypass.explain(sql).unwrap(),
            pooled.explain(sql).unwrap(),
            "plan diverged under bounded pool: {sql}"
        );
        let reference = bypass.sql(sql).unwrap();
        for &bs in &BATCH_SIZES {
            pooled.set_batch_size(bs);
            let out = pooled.sql(sql).unwrap();
            assert_eq!(
                exact(reference.rows()),
                exact(out.rows()),
                "rows diverged under bounded pool (batch={bs}): {sql}"
            );
            assert_metrics_eq(reference.metrics(), out.metrics(), bs, sql);
            // Only cache counters differ: bypass charges none, the pooled
            // engine charges every page pin.
            assert_eq!(reference.metrics().cache_hits(), 0);
            assert_eq!(reference.metrics().cache_misses(), 0);
            assert!(
                out.metrics().cache_hits() + out.metrics().cache_misses() > 0,
                "pooled run must charge cache counters: {sql}"
            );
        }
    }
    let stats = pooled.catalog().store().cache_stats();
    assert!(stats.evictions > 0, "8 frames must evict on these scans");
}
