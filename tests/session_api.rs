//! Integration tests for the `pyro::Session` front door: builder defaults,
//! strategy-by-name, ingestion, `explain()`, error mapping, and the metrics
//! exposed on `QueryResult`.

use pyro::common::{PyroError, Schema, Tuple, Value};
use pyro::{Session, SortOrder, Strategy};

mod common;
use common::exact;

/// The quickstart table: 50 000 rows clustered on `k` (50 rows per value),
/// `v` scrambled — an `ORDER BY (k, v)` only needs a partial sort.
fn quickstart_session() -> Session {
    let mut session = Session::new();
    let rows: Vec<Tuple> = (0..50_000)
        .map(|i| Tuple::new(vec![Value::Int(i / 50), Value::Int((i * 37) % 1000)]))
        .collect();
    session
        .register_table(
            "events",
            Schema::ints(&["k", "v"]),
            SortOrder::new(["k"]),
            &rows,
        )
        .unwrap();
    session
}

const QUICKSTART: &str = "SELECT k, v FROM events ORDER BY k, v";

#[test]
fn builder_defaults() {
    let session = Session::builder().build();
    assert_eq!(
        session.strategy(),
        Strategy::pyro_o(),
        "default strategy is PYRO-O"
    );
    assert!(session.hash_operators(), "hash operators default on");
    assert_eq!(
        session.catalog().sort_memory_blocks(),
        100,
        "default sort budget"
    );
    assert_eq!(session.batch_size(), 1024, "default execution batch size");
    // `Session::new` and `Session::default` agree with the builder.
    assert_eq!(Session::new().strategy(), Strategy::pyro_o());
    assert_eq!(Session::default().strategy(), Strategy::pyro_o());
}

#[test]
fn batch_size_knob_is_result_invariant() {
    // Any batch size — including the degenerate tuple-at-a-time 1 — must
    // produce the same rows and the same counters.
    let mut session = quickstart_session();
    let reference = session.sql(QUICKSTART).unwrap();
    for rows in [1usize, 7, 4096] {
        session.set_batch_size(rows);
        assert_eq!(session.batch_size(), rows);
        let result = session.sql(QUICKSTART).unwrap();
        assert_eq!(
            exact(result.rows()),
            exact(reference.rows()),
            "batch_size={rows}"
        );
        assert_eq!(
            result.metrics().comparisons(),
            reference.metrics().comparisons(),
            "batch_size={rows}"
        );
        assert_eq!(result.metrics().run_io(), reference.metrics().run_io());
    }
    // Builder knob, floor 1.
    let session = Session::builder().batch_size(0).build();
    assert_eq!(session.batch_size(), 1);
}

#[test]
fn builder_knobs_apply() {
    let session = Session::builder()
        .strategy(Strategy::pyro_e())
        .hash_operators(false)
        .sort_memory_blocks(64)
        .build();
    assert_eq!(session.strategy(), Strategy::pyro_e());
    assert!(!session.hash_operators());
    assert_eq!(session.catalog().sort_memory_blocks(), 64);
}

#[test]
fn strategy_by_name_covers_all_five() {
    for (name, expected) in [
        ("pyro", Strategy::pyro()),
        ("pyro-p", Strategy::pyro_p()),
        ("pyro-e", Strategy::pyro_e()),
        ("pyro-o", Strategy::pyro_o()),
        ("pyro-o-", Strategy::pyro_o_minus()),
        ("PYRO-O-", Strategy::pyro_o_minus()),
    ] {
        let session = Session::builder().strategy_name(name).unwrap().build();
        assert_eq!(session.strategy(), expected, "builder name {name:?}");
        let mut session = Session::new();
        session.set_strategy_name(name).unwrap();
        assert_eq!(session.strategy(), expected, "setter name {name:?}");
    }
    assert!(Session::builder().strategy_name("volcano").is_err());
    assert!(Session::new().set_strategy_name("").is_err());
}

#[test]
fn quickstart_round_trip_pyro_o_beats_volcano() {
    // The acceptance check: PYRO-O picks a partial sort over a full sort
    // and reports a lower cost than the plain-Volcano strategy.
    let mut session = quickstart_session();
    let tuned = session.sql(QUICKSTART).unwrap();
    assert_eq!(tuned.len(), 50_000);
    assert_eq!(tuned.strategy(), Strategy::pyro_o());
    use pyro::core::PhysOp;
    let plan = session.plan(QUICKSTART).unwrap();
    assert_eq!(
        plan.root
            .count_nodes(&|n| matches!(n.op, PhysOp::PartialSort { .. })),
        1,
        "PYRO-O must pick a partial sort:\n{}",
        tuned.explain()
    );
    assert_eq!(
        plan.root
            .count_nodes(&|n| matches!(n.op, PhysOp::Sort { .. })),
        0,
        "no full sort in the PYRO-O plan:\n{}",
        tuned.explain()
    );
    // Rows really are sorted by (k, v).
    let keys: Vec<(i64, i64)> = tuned
        .rows()
        .iter()
        .map(|t| (t.get(0).as_int().unwrap(), t.get(1).as_int().unwrap()))
        .collect();
    assert!(keys.windows(2).all(|w| w[0] <= w[1]));

    session.set_strategy(Strategy::pyro());
    let naive = session.sql(QUICKSTART).unwrap();
    assert_eq!(naive.len(), tuned.len());
    assert!(
        tuned.cost() < naive.cost(),
        "PYRO-O ({}) must be cheaper than plain Volcano ({})",
        tuned.cost(),
        naive.cost()
    );
}

#[test]
fn metrics_exposed_on_result() {
    let session = quickstart_session();
    let result = session.sql(QUICKSTART).unwrap();
    assert!(
        result.metrics().comparisons() > 0,
        "sorting must compare keys"
    );
    assert_eq!(
        result.metrics().run_io(),
        0,
        "partial-sort segments fit in memory: zero spill"
    );
    assert!(result.cost() > 0.0);
    assert!(!result.is_empty());
    assert_eq!(result.schema().names(), vec!["events.k", "events.v"]);
}

#[test]
fn explain_reports_strategy_cost_and_operators() {
    let session = quickstart_session();
    let text = session.explain(QUICKSTART).unwrap();
    assert!(text.contains("PYRO-O"), "{text}");
    assert!(text.contains("estimated cost"), "{text}");
    assert!(text.contains("Partial Sort"), "{text}");
    assert!(text.contains("C.Idx Scan"), "{text}");
    // explain() matches what sql() reports for the same query.
    assert_eq!(text, session.sql(QUICKSTART).unwrap().explain());
}

#[test]
fn register_csv_round_trips() {
    let mut session = Session::new();
    // Rows arrive unsorted; register_csv sorts by the clustering order.
    session
        .register_csv(
            "people",
            Schema::new(vec![
                pyro::common::Column::new("id", pyro::common::DataType::Int),
                pyro::common::Column::new("name", pyro::common::DataType::Str),
            ]),
            SortOrder::new(["id"]),
            "2,bob\n1,alice\n3,carol\n",
        )
        .unwrap();
    let result = session
        .sql("SELECT id, name FROM people ORDER BY id")
        .unwrap();
    assert_eq!(result.len(), 3);
    assert_eq!(result.rows()[0].get(1), &Value::Str("alice".into()));
    assert_eq!(result.rows()[2].get(1), &Value::Str("carol".into()));
}

#[test]
fn error_paths_map_to_pyro_errors() {
    let session = quickstart_session();
    // Unknown table.
    assert!(matches!(
        session.sql("SELECT x FROM missing"),
        Err(PyroError::UnknownTable(t)) if t == "missing"
    ));
    // Unknown column.
    assert!(matches!(
        session.sql("SELECT nope FROM events"),
        Err(PyroError::UnknownColumn(c)) if c == "nope"
    ));
    // A join equality naming a table that is not in FROM, and a FROM with no
    // table: the statements nearest lowering's own "cannot happen" checks
    // (both typed `Plan` errors now) stop earlier, typed as well.
    assert!(matches!(
        session.sql("SELECT k FROM events WHERE events.k = other.k"),
        Err(PyroError::UnknownColumn(c)) if c == "other.k"
    ));
    assert!(matches!(
        session.sql("SELECT k FROM"),
        Err(PyroError::Sql(_))
    ));
    // Parse error.
    assert!(matches!(
        session.sql("SELEKT k FROM events"),
        Err(PyroError::Sql(_))
    ));
    assert!(matches!(
        session.explain("SELECT FROM"),
        Err(PyroError::Sql(_))
    ));
    // Bad CSV is a SQL-layer (frontend) error.
    let mut session = Session::new();
    assert!(matches!(
        session.register_csv("t", Schema::ints(&["a"]), SortOrder::empty(), "notanint\n"),
        Err(PyroError::Sql(_))
    ));
    // Duplicate registration surfaces the catalog's error.
    let mut session = Session::new();
    session
        .register_csv("t", Schema::ints(&["a"]), SortOrder::empty(), "1\n")
        .unwrap();
    assert!(session
        .register_csv("t", Schema::ints(&["a"]), SortOrder::empty(), "1\n")
        .is_err());
}

#[test]
fn create_index_enables_covering_scan() {
    let mut session = Session::new();
    let rows: Vec<Tuple> = (0..5_000)
        .map(|i| Tuple::new(vec![Value::Int(i), Value::Int(i % 97), Value::Int(i % 13)]))
        .collect();
    session
        .register_table(
            "t",
            Schema::ints(&["a", "b", "c"]),
            SortOrder::new(["a"]),
            &rows,
        )
        .unwrap();
    session
        .create_index("t", "t_b_cov", SortOrder::new(["b"]), &["c"])
        .unwrap();
    let text = session.explain("SELECT b, c FROM t ORDER BY b").unwrap();
    assert!(text.contains("Cov.Idx Scan"), "{text}");
}

#[test]
fn per_query_strategy_switching_is_cheap_and_isolated() {
    let mut session = quickstart_session();
    let o = session.sql(QUICKSTART).unwrap();
    session.set_strategy_name("pyro-o-").unwrap();
    let o_minus = session.sql(QUICKSTART).unwrap();
    assert_eq!(o_minus.strategy(), Strategy::pyro_o_minus());
    // Exact-match-only enforcement re-sorts from scratch → strictly more
    // estimated cost than the partial-sort plan.
    assert!(o.cost() < o_minus.cost());
    // Identical result multisets either way.
    assert_eq!(o.len(), o_minus.len());
}
