//! Plan-cache semantics: off by default (bit-identical planning per call),
//! hits return identical rows/counters, and *every* plan-affecting knob or
//! catalog mutation invalidates — a stale plan is never served. Plus the
//! prepared-statement contract: `?` placeholders bound at execute time
//! reproduce the equivalent literal SQL exactly, across all five paper
//! strategies.

use pyro::common::{DataType, PyroError, Schema, Value};
use pyro::{Session, SessionConfig, SortOrder, Strategy};

mod common;
use common::exact;

fn load(session: &mut Session) {
    let rows: String = (0..500)
        .map(|i| format!("{},{},{}\n", i, i % 7, i % 3))
        .collect();
    session
        .register_csv(
            "t",
            Schema::ints(&["k", "g", "f"]),
            SortOrder::new(["k"]),
            &rows,
        )
        .unwrap();
    let rows2: String = (0..300).map(|i| format!("{},{}\n", i, i % 5)).collect();
    session
        .register_csv(
            "s",
            Schema::ints(&["k", "h"]),
            SortOrder::new(["k"]),
            &rows2,
        )
        .unwrap();
}

const QUERY: &str = "SELECT g, sum(k) AS total FROM t GROUP BY g ORDER BY g";

// ---------------------------------------------------------------------
// Default-off contract
// ---------------------------------------------------------------------

#[test]
fn cache_off_by_default_and_stats_absent() {
    let mut session = Session::new();
    load(&mut session);
    assert_eq!(session.plan_cache_entries(), 0);
    assert!(session.plan_cache_stats().is_none());
    let out = session.sql(QUERY).unwrap();
    assert!(out.plan_cache().is_none());
    // Explicit zero is the same as the default.
    assert_eq!(
        Session::builder()
            .plan_cache_entries(0)
            .build()
            .plan_cache_entries(),
        0
    );
}

// ---------------------------------------------------------------------
// Hit semantics
// ---------------------------------------------------------------------

#[test]
fn repeated_query_hits_with_identical_rows_and_counters() {
    let mut session = Session::builder().plan_cache_entries(8).build();
    load(&mut session);
    let cold = session.sql(QUERY).unwrap();
    let cold_cache = cold.plan_cache().expect("cache configured");
    assert!(!cold_cache.hit);
    assert_eq!(cold_cache.stats.misses, 1);

    let warm = session.sql(QUERY).unwrap();
    let warm_cache = warm.plan_cache().expect("cache configured");
    assert!(warm_cache.hit, "second identical query must hit");
    assert_eq!(warm_cache.stats.hits, 1);
    assert_eq!(exact(warm.rows()), exact(cold.rows()));
    assert_eq!(warm.explain(), cold.explain());
    let (a, b) = (cold.metrics(), warm.metrics());
    assert_eq!(a.comparisons(), b.comparisons());
    assert_eq!(a.run_pages_written(), b.run_pages_written());
    assert_eq!(a.run_pages_read(), b.run_pages_read());
    assert_eq!(a.runs_created(), b.runs_created());
}

#[test]
fn normalized_text_is_the_key() {
    let mut session = Session::builder().plan_cache_entries(8).build();
    load(&mut session);
    session.sql("SELECT k FROM t ORDER BY k").unwrap();
    // Whitespace and keyword case differences hit the same entry...
    let out = session.sql("select   K  from T order by k").unwrap();
    assert!(out.plan_cache().unwrap().hit);
    // ...but different literals are different statements.
    let a = session.sql("SELECT k FROM t WHERE g = 1").unwrap();
    assert!(!a.plan_cache().unwrap().hit);
    let b = session.sql("SELECT k FROM t WHERE g = 2").unwrap();
    assert!(!b.plan_cache().unwrap().hit);
}

#[test]
fn lru_bound_evicts_and_reports() {
    let mut session = Session::builder().plan_cache_entries(2).build();
    load(&mut session);
    session.sql("SELECT k FROM t").unwrap();
    session.sql("SELECT g FROM t").unwrap();
    session.sql("SELECT f FROM t").unwrap(); // evicts "SELECT k FROM t"
    let stats = session.plan_cache_stats().unwrap();
    assert_eq!(stats.evictions, 1);
    assert_eq!(stats.entries, 2);
    let out = session.sql("SELECT k FROM t").unwrap();
    assert!(!out.plan_cache().unwrap().hit, "evicted entry re-plans");
}

// ---------------------------------------------------------------------
// Satellite: every plan-affecting knob invalidates (regression test —
// flipping a knob between two identical sql() calls must miss and produce
// the new knob's plan, never serve the stale one).
// ---------------------------------------------------------------------

#[test]
fn every_knob_flip_misses() {
    let mut session = Session::builder().plan_cache_entries(32).build();
    load(&mut session);
    let join_query = "SELECT t.k, s.h FROM t, s WHERE t.k = s.k AND t.g = 3 ORDER BY t.k LIMIT 20";

    let assert_miss_then_hit = |session: &mut Session, what: &str| {
        let miss = session.sql(join_query).unwrap();
        assert!(
            !miss.plan_cache().unwrap().hit,
            "{what}: flipping the knob must invalidate"
        );
        let hit = session.sql(join_query).unwrap();
        assert!(
            hit.plan_cache().unwrap().hit,
            "{what}: steady state re-hits"
        );
        miss
    };

    // Baseline entry.
    session.sql(join_query).unwrap();
    assert!(session.sql(join_query).unwrap().plan_cache().unwrap().hit);

    // Every field of the config, named: a field added to `SessionConfig`
    // does not compile here until this test flips it too. A default
    // session reports exactly the default config through its getters.
    let defaults = SessionConfig::default();
    assert_eq!(session.config(), &defaults);
    let SessionConfig {
        strategy,
        join_enum_threshold,
        hash_operators,
        batch_size,
        workers,
        seed,
    } = defaults;
    assert_eq!(session.strategy(), strategy);
    assert_eq!(session.join_enum_threshold(), join_enum_threshold);
    assert_eq!(session.hash_operators(), hash_operators);
    assert_eq!(session.batch_size(), batch_size);
    assert_eq!(session.workers(), workers);
    // Fixed at build time (no setter), so it cannot change under a live
    // cache; it is hashed with the rest all the same.
    assert_eq!(session.seed(), seed);

    session.set_strategy(Strategy::pyro());
    let out = assert_miss_then_hit(&mut session, "set_strategy");
    assert_eq!(out.strategy(), Strategy::pyro(), "the NEW plan is served");
    session.set_strategy(strategy);

    session.set_hash_operators(!hash_operators);
    let out = assert_miss_then_hit(&mut session, "set_hash_operators");
    assert!(
        !out.explain().contains("Hash"),
        "the new plan reflects the toggle:\n{}",
        out.explain()
    );
    session.set_hash_operators(hash_operators);

    session.set_batch_size(7);
    assert_miss_then_hit(&mut session, "set_batch_size");
    session.set_batch_size(batch_size);

    session.set_workers(2);
    assert_miss_then_hit(&mut session, "set_workers");
    session.set_workers(workers);

    // A threshold flip must never re-hit a plan the other threshold
    // produced.
    session.set_join_enum_threshold(2);
    assert_miss_then_hit(&mut session, "set_join_enum_threshold");
    session.set_join_enum_threshold(join_enum_threshold);

    // The one plan-affecting fact the catalog owns and a session can
    // change: it is hashed beside the config.
    session.set_sort_memory_blocks(3);
    assert_miss_then_hit(&mut session, "set_sort_memory_blocks");
    session.set_sort_memory_blocks(100);

    // Restoring each knob makes the original key reachable again: the very
    // first entry is still live (capacity 32) and must hit, proving the
    // misses above were key changes, not evictions.
    assert!(session.sql(join_query).unwrap().plan_cache().unwrap().hit);
}

// ---------------------------------------------------------------------
// Catalog mutations invalidate via the generation counter
// ---------------------------------------------------------------------

#[test]
fn catalog_mutations_invalidate() {
    let mut session = Session::builder().plan_cache_entries(8).build();
    load(&mut session);
    session.sql(QUERY).unwrap();
    assert!(session.sql(QUERY).unwrap().plan_cache().unwrap().hit);

    // register_csv
    session
        .register_csv("u", Schema::ints(&["a"]), SortOrder::new(["a"]), "1\n")
        .unwrap();
    assert!(!session.sql(QUERY).unwrap().plan_cache().unwrap().hit);
    assert!(session.sql(QUERY).unwrap().plan_cache().unwrap().hit);

    // register_table
    session
        .register_table("v", Schema::ints(&["a"]), SortOrder::empty(), &[])
        .unwrap();
    assert!(!session.sql(QUERY).unwrap().plan_cache().unwrap().hit);
    assert!(session.sql(QUERY).unwrap().plan_cache().unwrap().hit);

    // create_index — the new index may genuinely change the best plan.
    session
        .create_index("t", "t_g", SortOrder::new(["g", "k"]), &[])
        .unwrap();
    assert!(!session.sql(QUERY).unwrap().plan_cache().unwrap().hit);
    assert!(session.sql(QUERY).unwrap().plan_cache().unwrap().hit);
}

// ---------------------------------------------------------------------
// Prepared statements
// ---------------------------------------------------------------------

#[test]
fn prepared_matches_literal_sql_across_all_strategies() {
    for strategy in Strategy::all() {
        for hash in [true, false] {
            let mut session = Session::builder()
                .strategy(strategy)
                .hash_operators(hash)
                .plan_cache_entries(16)
                .build();
            load(&mut session);
            let stmt = session
                .prepare(
                    "SELECT t.k, s.h FROM t, s \
                     WHERE t.k = s.k AND t.g = ? ORDER BY t.k",
                )
                .unwrap();
            assert_eq!(stmt.param_count(), 1);
            assert_eq!(stmt.param_types(), &[Some(DataType::Int)]);
            for g in [0i64, 3, 6] {
                let bound = stmt.execute(&[Value::Int(g)]).unwrap();
                let literal = session
                    .sql(&format!(
                        "SELECT t.k, s.h FROM t, s \
                         WHERE t.k = s.k AND t.g = {g} ORDER BY t.k"
                    ))
                    .unwrap();
                assert!(!literal.is_empty(), "premise: rows exist at g={g}");
                assert_eq!(
                    exact(bound.rows()),
                    exact(literal.rows()),
                    "strategy={} hash={hash} g={g}",
                    strategy.name()
                );
                assert_eq!(
                    bound.metrics().comparisons(),
                    literal.metrics().comparisons(),
                    "bound execution does the same work as literal SQL"
                );
                assert_eq!(bound.metrics().run_io(), literal.metrics().run_io());
                // The borrowed handle streams exactly what it executes.
                let mut stream = stmt.execute_stream(&[Value::Int(g)]).unwrap();
                let mut streamed = Vec::new();
                while let Some(batch) = stream.next_batch().unwrap() {
                    batch.append_rows(&mut streamed);
                }
                assert_eq!(exact(&streamed), exact(bound.rows()), "streamed g={g}");
                let (a, b) = (stream.metrics(), bound.metrics());
                assert_eq!(
                    (
                        a.comparisons(),
                        a.run_pages_written(),
                        a.run_pages_read(),
                        a.runs_created()
                    ),
                    (
                        b.comparisons(),
                        b.run_pages_written(),
                        b.run_pages_read(),
                        b.runs_created()
                    ),
                    "streamed counters g={g}"
                );
            }
        }
    }
}

#[test]
fn prepare_then_reprepare_hits_the_cache() {
    let mut session = Session::builder().plan_cache_entries(8).build();
    load(&mut session);
    let sql = "SELECT k FROM t WHERE g = ? ORDER BY k";
    let first = session.prepare(sql).unwrap();
    assert_eq!(first.cache_hit(), Some(false));
    let again = session.prepare(sql).unwrap();
    assert_eq!(again.cache_hit(), Some(true), "same text, same knobs: hit");
    let out = again.execute(&[Value::Int(1)]).unwrap();
    assert!(out.plan_cache().unwrap().hit);
    // NULL binds anywhere; the comparison is not-true for every row.
    assert!(first.execute(&[Value::Null]).unwrap().is_empty());
}

#[test]
fn binding_errors_are_typed() {
    let mut session = Session::new();
    load(&mut session);
    // sql() refuses unbound placeholders.
    assert!(matches!(
        session.sql("SELECT k FROM t WHERE g = ?"),
        Err(PyroError::ParamBinding(_))
    ));
    let stmt = session.prepare("SELECT k FROM t WHERE g = ?").unwrap();
    // Arity mismatch, both directions.
    assert!(matches!(stmt.execute(&[]), Err(PyroError::ParamBinding(_))));
    assert!(matches!(
        stmt.execute(&[Value::Int(1), Value::Int(2)]),
        Err(PyroError::ParamBinding(_))
    ));
    // Type mismatch against the inferred column type.
    assert!(matches!(
        stmt.execute(&[Value::Str("x".into())]),
        Err(PyroError::ParamBinding(_))
    ));
    // Streaming rejects the same bindings before it yields any batch.
    for bad in [&[][..], &[Value::Str("x".into())]] {
        assert!(matches!(
            stmt.execute_stream(bad),
            Err(PyroError::ParamBinding(_))
        ));
    }
    // Correct binding works without a plan cache, too.
    assert_eq!(stmt.execute(&[Value::Int(1)]).unwrap().len(), 72);
}

#[test]
fn numeric_bindings_coerce_like_literal_sql() {
    // The engine compares mixed numerics numerically, so literal SQL
    // `WHERE x = 2` matches a Double column; an Int binding against a
    // Double-typed placeholder must behave identically (and vice versa).
    let mut session = Session::new();
    session
        .register_csv(
            "d",
            Schema::new(vec![
                pyro::common::Column::new("x", DataType::Double),
                pyro::common::Column::new("y", DataType::Int),
            ]),
            SortOrder::new(["x"]),
            "1.0,1\n2.0,2\n3.5,3\n",
        )
        .unwrap();
    let stmt = session.prepare("SELECT y FROM d WHERE x = ?").unwrap();
    assert_eq!(stmt.param_types(), &[Some(DataType::Double)]);
    let bound = stmt.execute(&[Value::Int(2)]).unwrap();
    let literal = session.sql("SELECT y FROM d WHERE x = 2").unwrap();
    assert_eq!(exact(bound.rows()), exact(literal.rows()));
    assert_eq!(bound.len(), 1);
    // Double against an Int-typed placeholder is equally fine...
    let stmt = session.prepare("SELECT x FROM d WHERE y = ?").unwrap();
    assert_eq!(stmt.execute(&[Value::Double(2.0)]).unwrap().len(), 1);
    // ...but a string against a numeric placeholder stays a typed error.
    assert!(matches!(
        stmt.execute(&[Value::Str("2".into())]),
        Err(PyroError::ParamBinding(_))
    ));
}

#[test]
fn select_list_placeholders_rejected() {
    // A `?` in the SELECT list would shape the result schema with a type
    // only known at bind time — typed error at prepare, not mistyped rows.
    let mut session = Session::new();
    load(&mut session);
    assert!(matches!(
        session.prepare("SELECT ? FROM t"),
        Err(PyroError::Unsupported(_))
    ));
    assert!(matches!(
        session.prepare("SELECT k + ? FROM t"),
        Err(PyroError::Unsupported(_))
    ));
    assert!(matches!(
        session.prepare("SELECT g, sum(k + ?) AS s FROM t GROUP BY g"),
        Err(PyroError::Unsupported(_))
    ));
    // Predicate-side placeholders (WHERE and HAVING) stay supported.
    let stmt = session
        .prepare("SELECT g, sum(k) AS s FROM t GROUP BY g HAVING sum(k) > ? ORDER BY g")
        .unwrap();
    assert_eq!(stmt.param_count(), 1);
    assert!(!stmt.execute(&[Value::Int(0)]).unwrap().is_empty());
}

#[test]
fn desc_surfaces_as_typed_unsupported_error() {
    let mut session = Session::new();
    load(&mut session);
    assert!(matches!(
        session.sql("SELECT k FROM t ORDER BY k DESC"),
        Err(PyroError::Unsupported(_))
    ));
}
