//! Serial/parallel parity: for every paper-query workload and strategy,
//! executing at `workers ∈ {2, 4}` must reproduce the serial engine
//! exactly — the identical row sequence and bit-identical totals for all
//! four `ExecMetrics` counters, spill paths included.
//!
//! This is the invariant that lets the morsel-parallel engine claim the
//! paper's figures unchanged: parallelism may only change wall-clock, never
//! what work the order-enforcement machinery does. It holds by
//! construction — parallel fragments contain only counter-free operators,
//! every gather releases its morsels in file order, hash-join tables are
//! built in serial order, and exchange bookkeeping is never charged — and
//! this suite pins it.

use pyro::common::{Column, DataType, Schema, Tuple, Value};
use pyro::datagen::{consolidation, qtables, tpch};
use pyro::exec::MetricsRef;
use pyro::{Session, SortOrder, Strategy};

mod common;
use common::exact;

/// Worker counts: the first is the reference every other mode must
/// reproduce — the serial engine.
const MODES: [usize; 3] = [1, 2, 4];

struct Reference {
    rows: Vec<Tuple>,
    metrics: MetricsRef,
}

/// Runs `sql` in the reference mode, then in every other mode, asserting
/// counter parity and row parity as a sequence — for the drained result
/// and, in every mode, for the same statement streamed batch by batch
/// ([`Session::sql_stream`]), which pulls a parallel plan's exchange
/// without draining it to rows. Leaves the session at one worker.
fn assert_parallel_parity(session: &mut Session, sql: &str) {
    let mut reference: Option<Reference> = None;
    for w in MODES {
        session.set_workers(w);
        let out = session.sql(sql).unwrap();
        let streamed = stream_rows(session, sql);
        let reference = reference.get_or_insert_with(|| Reference {
            rows: out.rows().to_vec(),
            metrics: out.metrics().clone(),
        });
        let mode = format!("workers={w}");
        assert_same_rows(&reference.rows, out.rows(), &mode, sql);
        assert_same_rows(
            &reference.rows,
            &streamed,
            &format!("{mode}, streamed"),
            sql,
        );
        let (a, b) = (&reference.metrics, out.metrics());
        assert_eq!(
            a.comparisons(),
            b.comparisons(),
            "comparisons diverged ({mode}): {sql}"
        );
        assert_eq!(
            a.run_pages_written(),
            b.run_pages_written(),
            "run pages written diverged ({mode}): {sql}"
        );
        assert_eq!(
            a.run_pages_read(),
            b.run_pages_read(),
            "run pages read diverged ({mode}): {sql}"
        );
        assert_eq!(
            a.runs_created(),
            b.runs_created(),
            "runs created diverged ({mode}): {sql}"
        );
    }
    session.set_workers(1);
}

/// `sql`'s rows, pulled batch by batch through [`Session::sql_stream`].
fn stream_rows(session: &Session, sql: &str) -> Vec<Tuple> {
    let mut stream = session.sql_stream(sql).unwrap();
    let mut rows = Vec::new();
    while let Some(batch) = stream.next_batch().unwrap() {
        batch.append_rows(&mut rows);
    }
    rows
}

/// `got` is `reference` exactly, as a sequence.
fn assert_same_rows(reference: &[Tuple], got: &[Tuple], mode: &str, sql: &str) {
    assert!(
        exact(reference) == exact(got),
        "row sequence diverged ({mode}): {sql}"
    );
}

// ---------------------------------------------------------------------
// Paper-query workloads across strategies
// ---------------------------------------------------------------------

#[test]
fn tpch_queries_parity_across_strategies() {
    // Loader driven by the session's seed knob: the explicit-seed variant
    // with the session default is the plain loader, bit for bit.
    let mut session = Session::new();
    let seed = session.seed();
    tpch::load_with_seed(session.catalog_mut(), tpch::TpchConfig::scaled(0.002), seed).unwrap();
    let queries = [
        "SELECT l_suppkey, l_partkey FROM lineitem ORDER BY l_suppkey, l_partkey",
        "SELECT l_suppkey, l_partkey FROM lineitem ORDER BY l_suppkey, l_partkey LIMIT 50",
        // ORDER BY fully satisfied by the clustering: no sort enforcer in
        // the plan, so order preservation rests on the exchange alone.
        "SELECT l_orderkey, l_partkey FROM lineitem ORDER BY l_orderkey",
        "SELECT l_suppkey, l_partkey, l_quantity FROM lineitem WHERE l_linestatus = 'O'",
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
                assert_parallel_parity(&mut session, sql);
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
        // With hashing on these are FULL OUTER hash joins, which are serial
        // breakers over (possibly parallel) children.
        assert_parallel_parity(
            &mut session,
            "SELECT * FROM r1 FULL OUTER JOIN r2 \
             ON (r1.c5 = r2.c5 AND r1.c4 = r2.c4 AND r1.c3 = r2.c3) \
             FULL OUTER JOIN r3 \
             ON (r3.c1 = r1.c1 AND r3.c4 = r1.c4 AND r3.c5 = r1.c5)",
        );
        assert_parallel_parity(
            &mut session,
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
    assert_parallel_parity(
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

    let mut session = Session::new();
    qtables::load_basket_analytics(session.catalog_mut(), 1_000).unwrap();
    for hash in [true, false] {
        session.set_hash_operators(hash);
        assert_parallel_parity(
            &mut session,
            "SELECT * FROM basket b, analytics a \
             WHERE b.prodtype = a.prodtype AND b.symbol = a.symbol AND b.exchange = a.exchange",
        );
        assert_parallel_parity(
            &mut session,
            "SELECT DISTINCT prodtype, exchange FROM basket ORDER BY prodtype, exchange",
        );
    }
}

#[test]
fn consolidation_query_parity() {
    let mut session = Session::new();
    consolidation::load(session.catalog_mut(), 1_500).unwrap();
    assert_parallel_parity(
        &mut session,
        "SELECT c1.make, c1.year, c1.color, c1.city, c2.breakdowns, r.rating \
         FROM catalog1 c1, catalog2 c2, rating r \
         WHERE c1.city = c2.city AND c1.make = c2.make AND c1.year = c2.year \
           AND c1.color = c2.color AND c1.make = r.make AND c1.year = r.year \
           ORDER BY c1.make, c1.year, c1.color",
    );
}

// ---------------------------------------------------------------------
// Spill paths: sorts over parallel scans with a tiny memory budget
// ---------------------------------------------------------------------

#[test]
fn spill_paths_parity() {
    // 3-block budget forces external sorting (run creation, spill I/O) for
    // both the full sort and oversized partial-sort segments. The sort is a
    // breaker fed in exact serial sequence, so run counts, spill pages and
    // comparisons must all survive parallelism untouched.
    let mut session = Session::builder().sort_memory_blocks(3).build();
    tpch::load(session.catalog_mut(), tpch::TpchConfig::scaled(0.002)).unwrap();
    let queries = [
        // Partial sort whose per-suppkey segments (~600 rows at this scale)
        // overflow 3 blocks: the per-segment spill/merge path.
        "SELECT l_suppkey, l_partkey FROM lineitem ORDER BY l_suppkey, l_partkey",
        // Full re-sort on a non-prefix order: classic SRS external sort.
        "SELECT l_partkey, l_orderkey FROM lineitem ORDER BY l_partkey, l_orderkey",
    ];
    for sql in queries {
        session.set_workers(1);
        let reference = session.sql(sql).unwrap();
        assert!(
            reference.metrics().run_io() > 0,
            "test premise: this workload must spill ({sql})"
        );
        assert_parallel_parity(&mut session, sql);
    }
}

// ---------------------------------------------------------------------
// The exchange's own corner cases, on tables big enough to span morsels
// ---------------------------------------------------------------------

/// `big(k, g, s)`: 30k rows clustered on `k`; `g = k % 100`, and `s` is a
/// string key that is NULL on every 11th row. `small` is 700 rows of the
/// same shape (far less than one morsel), `keys(g, s)` 100 distinct
/// pairs, one of them NULL-keyed.
fn exchange_session() -> Session {
    let str_key = |i: i64| {
        if i % 11 == 0 {
            Value::Null
        } else {
            Value::Str(format!("s{}", i % 100))
        }
    };
    let schema = |names: [&str; 3]| {
        Schema::new(vec![
            Column::new(names[0], DataType::Int),
            Column::new(names[1], DataType::Int),
            Column::new(names[2], DataType::Str),
        ])
    };
    let rows = |n: i64| -> Vec<Tuple> {
        (0..n)
            .map(|i| Tuple::new(vec![Value::Int(i), Value::Int(i % 100), str_key(i)]))
            .collect()
    };
    // A sort budget above `big`'s page count keeps it eligible as a hash
    // join's build side (no grace-partitioning surcharge in the cost model).
    let mut session = Session::builder().sort_memory_blocks(1_000).build();
    session
        .register_table(
            "big",
            schema(["k", "g", "s"]),
            SortOrder::new(["k"]),
            &rows(30_000),
        )
        .unwrap();
    session
        .register_table(
            "small",
            schema(["sk", "sg", "ss"]),
            SortOrder::new(["sk"]),
            &rows(700),
        )
        .unwrap();
    let keys: Vec<Tuple> = (0..100)
        .map(|i| Tuple::new(vec![Value::Int(i), str_key(i)]))
        .collect();
    session
        .register_table(
            "keys",
            Schema::new(vec![
                Column::new("kg", DataType::Int),
                Column::new("ks", DataType::Str),
            ]),
            SortOrder::new(["kg"]),
            &keys,
        )
        .unwrap();
    let pages = session.catalog().table("big").unwrap().heap.block_count();
    assert!(
        pages > 128,
        "test premise: big spans several morsels ({pages} pages)"
    );
    session
}

#[test]
fn ordered_gather_corner_cases_parity() {
    let mut session = exchange_session();
    // The filter keeps a sliver at the far end of the file: every morsel
    // before it comes back empty, and the gather's window must
    // still move past them — then a sliver at the near end, with nothing
    // but empty morsels after it.
    assert_parallel_parity(
        &mut session,
        "SELECT k, g FROM big WHERE k > 29950 ORDER BY k",
    );
    assert_parallel_parity(&mut session, "SELECT k, g FROM big WHERE k < 40 ORDER BY k");
    // Nothing survives at all.
    assert_parallel_parity(&mut session, "SELECT k FROM big WHERE g > 500 ORDER BY k");
    // LIMIT without ORDER BY: the serial prefix, from file order alone.
    assert_parallel_parity(&mut session, "SELECT k, s FROM big WHERE g = 7 LIMIT 120");
    // The referee's `sfp` shape: two conjuncts keep about half of every
    // morsel, so no morsel comes back empty.
    assert_parallel_parity(
        &mut session,
        "SELECT k, s FROM big WHERE g < 75 AND k > 4000",
    );
}

#[test]
fn shared_build_hash_join_corner_cases_parity() {
    let mut session = exchange_session();
    let queries = [
        // Int-keyed: the vector table.
        "SELECT k, kg, ks FROM keys, big WHERE kg = g",
        // Str-keyed, with NULL keys on both sides: the shared row table in
        // every mode; NULL never matches NULL.
        "SELECT k, kg FROM keys, big WHERE ks = s",
        // Written big-first: the join still builds on `small`, and `big`'s
        // morsels probe it.
        "SELECT k, sk FROM big, small WHERE g = sg",
        // The referee's `hash_join` shape: `SELECT *`, the small side
        // written first, every row of `big` finding its match.
        "SELECT * FROM keys, big WHERE kg = g",
        // Join under join: the outer build side is itself a parallel join.
        "SELECT b1.k, b2.k, kg FROM keys, big b1, big b2 \
         WHERE kg = b1.g AND b1.g = b2.g AND b2.k < 30 AND b1.k > 29000",
    ];
    for sql in queries {
        let plan = session.explain(sql).unwrap();
        assert!(
            plan.contains("Hash Join"),
            "test premise: a hash join\n{plan}"
        );
        assert_parallel_parity(&mut session, sql);
    }
}

/// The `scan_join` benchmark's star5 shape: a 10k-row fact table clustered
/// on its id, four 500-row dimensions, the selective one written last.
fn star_session() -> Session {
    let ints = |vals: &[i64]| Tuple::new(vals.iter().map(|v| Value::Int(*v)).collect());
    let mut state = 7u64;
    let mut draw = |below: i64| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) as i64 % below
    };
    let mut session = Session::new();
    let fact: Vec<Tuple> = (0..10_000)
        .map(|id| {
            let d: Vec<i64> = (0..4).map(|_| draw(500)).collect();
            ints(&[id, d[0], d[1], d[2], d[3], draw(1_000_000)])
        })
        .collect();
    session
        .register_table(
            "sfact",
            Schema::ints(&["s_id", "s_d1", "s_d2", "s_d3", "s_d4", "s_m"]),
            SortOrder::new(["s_id"]),
            &fact,
        )
        .unwrap();
    for i in 1..=4 {
        let (k, a) = (format!("k{i}"), format!("a{i}"));
        let rows: Vec<Tuple> = (0..500)
            .map(|key| ints(&[key, (key * 37 + i) % 100]))
            .collect();
        session
            .register_table(
                &format!("sd{i}"),
                Schema::ints(&[&k, &a]),
                SortOrder::new([k.clone()]),
                &rows,
            )
            .unwrap();
    }
    session
}

/// A star join is one pipeline: every join builds on its dimension —
/// whichever side it was written on — and the fact table streams past all
/// four tables, with no nested loops and no projection to put columns back.
/// Rows equal the hash-off merge plan's in every mode (as a multiset: the
/// two plans emit them in different orders), come in the serial sequence at
/// every worker count, and nothing in the plan charges a counter.
#[test]
fn star_join_builds_on_every_dimension_parity() {
    use pyro::core::PhysOp;
    use pyro::exec::join::Side;
    let sql = "SELECT s_id, s_m, a1, a2, a3, a4 FROM sfact, sd1, sd2, sd3, sd4 \
               WHERE s_d1 = k1 AND s_d2 = k2 AND s_d3 = k3 AND s_d4 = k4 AND a4 < 5";
    let mut session = star_session();
    let plan = session.plan(sql).unwrap();
    let mut hash_joins = 0;
    plan.root.walk(&mut |node| {
        if let PhysOp::HashJoin { build, .. } = &node.op {
            hash_joins += 1;
            let (built, _) = node.build_probe(*build);
            assert_eq!(*build, Side::Right, "{}", plan.explain());
            assert!(
                built.rows <= 500.0 && built.count_nodes(&|n| n.children.len() > 1) == 0,
                "a join builds on something other than a dimension\n{}",
                plan.explain()
            );
        }
    });
    assert_eq!(hash_joins, 4, "{}", plan.explain());
    let others = plan.root.count_nodes(&|n| {
        matches!(
            n.op,
            PhysOp::NestedLoopsJoin { .. } | PhysOp::MergeJoin { .. }
        )
    });
    assert_eq!(others, 0, "{}", plan.explain());
    assert_eq!(
        plan.root
            .count_nodes(&|n| matches!(n.op, PhysOp::Project { .. })),
        1,
        "only the SELECT list projects\n{}",
        plan.explain()
    );

    session.set_hash_operators(false);
    let merge_plan = session.explain(sql).unwrap();
    assert!(
        merge_plan.contains("Merge Join") && !merge_plan.contains("Hash Join"),
        "test premise: the reference is the merge plan\n{merge_plan}"
    );
    let mut expect = session.sql(sql).unwrap().rows().to_vec();
    expect.sort();
    assert!(!expect.is_empty());
    session.set_hash_operators(true);
    for workers in MODES {
        session.set_workers(workers);
        let out = session.sql(sql).unwrap();
        let mode = format!("workers={workers}");
        let mut rows = out.rows().to_vec();
        rows.sort();
        assert!(
            exact(&rows) == exact(&expect),
            "rows diverged from the merge plan ({mode})"
        );
        let m = out.metrics();
        assert_eq!(
            (
                m.comparisons(),
                m.run_pages_written(),
                m.run_pages_read(),
                m.runs_created()
            ),
            (0, 0, 0, 0),
            "{mode}"
        );
    }
    assert_parallel_parity(&mut session, sql);
}

/// A filter pinning an equality prefix of its file's order compiles to a
/// seek over the few pages that can hold the key. More workers must not
/// turn it back into a scan of the whole file dealt out in morsels — under
/// a projection, and as the probe side of a join, too.
#[test]
fn seekable_filter_seeks_at_every_worker_count() {
    let mut session = exchange_session();
    let pages = session.catalog().table("big").unwrap().heap.block_count();
    for sql in [
        "SELECT k, g, s FROM big WHERE k = 12345",
        "SELECT g FROM big WHERE k = 29999 AND g > 5",
        "SELECT k, kg FROM keys, big WHERE kg = g AND k = 777",
    ] {
        let plan = session.explain(sql).unwrap();
        let lines: Vec<&str> = plan.lines().map(str::trim_start).collect();
        assert!(
            lines
                .windows(2)
                .any(|w| w[0].starts_with("Filter") && w[1].starts_with("C.Idx Scan [big]")),
            "test premise: a filter directly over the clustered scan of big\n{plan}"
        );
        assert_parallel_parity(&mut session, sql);
        for workers in [1, 2, 4] {
            session.set_workers(workers);
            let device = session.catalog().device().clone();
            device.reset_io();
            assert_eq!(session.sql(sql).unwrap().rows().len(), 1, "{sql}");
            let reads = device.io().reads;
            assert!(
                reads < pages / 4,
                "workers={workers}: {reads} page reads for a seek into {pages} pages: {sql}"
            );
        }
        session.set_workers(1);
    }
}

/// FULL OUTER joins are merge-only in the optimizer: a serial breaker whose
/// inputs (a sort over a gather, a bare gather) must
/// arrive in exact serial sequence. (LEFT OUTER *hash* joins, which the SQL
/// dialect cannot spell, are covered by the `parallel.rs` unit tests.)
#[test]
fn full_outer_join_over_ordered_gathers_parity() {
    let mut session = exchange_session();
    for sql in [
        "SELECT * FROM keys FULL OUTER JOIN big ON (kg = g)",
        "SELECT * FROM big FULL OUTER JOIN keys ON (k = kg)",
    ] {
        assert_parallel_parity(&mut session, sql);
    }
}

// ---------------------------------------------------------------------
// Knob plumbing
// ---------------------------------------------------------------------

#[test]
fn workers_knob_defaults_and_floors() {
    let session = Session::new();
    assert_eq!(session.workers(), 1, "serial by default");
    let session = Session::builder().workers(0).build();
    assert_eq!(session.workers(), 1, "floor 1");
    let mut session = Session::builder().workers(4).build();
    assert_eq!(session.workers(), 4);
    session.set_workers(0);
    assert_eq!(session.workers(), 1);
    assert_eq!(
        Session::new().seed(),
        pyro::datagen::SEED,
        "default seed is the fixed datagen constant"
    );
    assert_eq!(Session::builder().seed(42).build().seed(), 42);
}

// ---------------------------------------------------------------------
// Pool-bounded variant: the morsel workers of a parallel scan share one
// 8-frame buffer pool (evicting constantly); rows and all four paper
// counters must still reproduce workers = 1 exactly — only cache counters
// are pool-dependent.
// ---------------------------------------------------------------------

#[test]
fn bounded_pool_parallel_parity() {
    let mut session = Session::builder().buffer_pool_pages(8).build();
    let seed = session.seed();
    tpch::load_with_seed(session.catalog_mut(), tpch::TpchConfig::scaled(0.002), seed).unwrap();
    let queries = [
        "SELECT l_suppkey, l_partkey FROM lineitem ORDER BY l_suppkey, l_partkey",
        "SELECT l_suppkey, l_partkey, l_quantity FROM lineitem WHERE l_linestatus = 'O'",
    ];
    for sql in queries {
        assert_parallel_parity(&mut session, sql);
    }
    let stats = session.catalog().store().cache_stats();
    assert!(stats.misses > 0, "the shared pool was exercised");
    assert!(stats.evictions > 0, "8 frames must evict on these scans");
}
