//! End-to-end tests: a real `WireServer` on a loopback socket, driven by
//! `WireClient`, checked against direct `Session::sql` execution.

use pyro::datagen::tpch::{self, TpchConfig};
use pyro::{Session, SessionBuilder, SortOrder};
use pyro_common::{error::codes, PyroError, Schema, Value};
use pyro_wire::{proto, AdmissionConfig, ServerConfig, WireClient, WireServer};
use std::sync::Arc;
use std::time::Duration;

/// The same four-query mix `bench_serve` measures; parity here must be
/// bit-identical, not just value-equal.
const MIX: [&str; 4] = [
    "SELECT l_suppkey, l_partkey FROM lineitem ORDER BY l_suppkey, l_partkey",
    "SELECT l_suppkey, l_partkey, l_quantity FROM lineitem WHERE l_linestatus = 'O'",
    "SELECT ps_suppkey, ps_partkey, ps_availqty, count(l_partkey) AS n \
     FROM partsupp, lineitem \
     WHERE ps_suppkey = l_suppkey AND ps_partkey = l_partkey \
     GROUP BY ps_suppkey, ps_partkey, ps_availqty \
     ORDER BY ps_suppkey, ps_partkey",
    "SELECT l_orderkey, l_quantity FROM lineitem WHERE l_suppkey = 3 \
     ORDER BY l_orderkey, l_quantity",
];

fn tpch_session(cache_entries: usize) -> Arc<Session> {
    let mut session = SessionBuilder::new()
        .plan_cache_entries(cache_entries)
        .build();
    let cfg = TpchConfig {
        lineitems: 2_000,
        parts: 100,
        suppliers: 10,
    };
    tpch::load_with_seed(session.catalog_mut(), cfg, pyro::datagen::SEED).unwrap();
    Arc::new(session)
}

fn tiny_session() -> Arc<Session> {
    let mut session = Session::new();
    session
        .register_csv(
            "t",
            Schema::ints(&["a", "b"]),
            SortOrder::new(["a"]),
            "1,10\n2,20\n3,30\n4,40\n5,50\n",
        )
        .unwrap();
    Arc::new(session)
}

fn start(session: Arc<Session>, cfg: ServerConfig) -> WireServer {
    WireServer::start(session, cfg).expect("server starts")
}

#[test]
fn wire_rows_bit_identical_to_direct_execution_for_the_bench_mix() {
    let session = tpch_session(64);
    let server = start(Arc::clone(&session), ServerConfig::default());
    let mut client = WireClient::connect(server.local_addr()).unwrap();

    for sql in MIX {
        let direct = session.sql(sql).expect("direct run");
        let wire = client.query(sql).expect("wire run");
        assert_eq!(wire.schema, *direct.schema(), "schema mismatch for {sql}");
        // Compare the *encodings*: they capture each cell's type and exact
        // double bits, where `Value`'s `==` takes `Int(2)` for `Double(2.0)`.
        assert_eq!(
            proto::enc_rows(&wire.rows),
            proto::enc_rows(direct.rows()),
            "row mismatch for {sql}"
        );
        assert_eq!(wire.total_rows as usize, direct.rows().len());
    }
    server.shutdown();
}

#[test]
fn prepared_statement_lifecycle_over_the_wire() {
    let session = tpch_session(64);
    let server = start(Arc::clone(&session), ServerConfig::default());
    let mut client = WireClient::connect(server.local_addr()).unwrap();

    let sql = "SELECT l_orderkey, l_quantity FROM lineitem WHERE l_suppkey = ? \
               ORDER BY l_orderkey, l_quantity";
    let stmt = client.prepare(sql).unwrap();
    assert_eq!(stmt.param_count, 1);

    for k in [1i64, 3, 7] {
        let wire = client.execute(stmt, &[Value::Int(k)]).unwrap();
        let literal = format!(
            "SELECT l_orderkey, l_quantity FROM lineitem WHERE l_suppkey = {k} \
             ORDER BY l_orderkey, l_quantity"
        );
        let direct = session.sql(&literal).unwrap();
        assert_eq!(
            proto::enc_rows(&wire.rows),
            proto::enc_rows(direct.rows()),
            "binding {k}"
        );
    }

    // Wrong arity is a typed request-level error; the connection survives.
    let e = client.execute(stmt, &[]).expect_err("0 of 1 params bound");
    assert_eq!(e.code(), codes::PARAM_BINDING, "{e}");

    client.close(stmt).unwrap();
    let e = client
        .execute(stmt, &[Value::Int(1)])
        .expect_err("closed statement");
    assert_eq!(e.code(), codes::WIRE, "{e}");
    let e = client.close(stmt).expect_err("double close");
    assert_eq!(e.code(), codes::WIRE, "{e}");

    // Still healthy after all those errors.
    assert!(client.query(MIX[3]).is_ok());
    client.bye().unwrap();
    server.shutdown();
}

#[test]
fn full_gate_with_empty_queue_sheds_typed_overload() {
    let session = tiny_session();
    let server = start(
        session,
        ServerConfig {
            admission: AdmissionConfig {
                max_concurrent: 1,
                max_queue: 0,
                queue_timeout: Duration::from_millis(10),
            },
            ..ServerConfig::default()
        },
    );
    let gate = server.admission();
    let mut client = WireClient::connect(server.local_addr()).unwrap();

    // Deterministically occupy the only slot from the test itself.
    let held = gate.admit().expect("the only slot");
    let e = client
        .query("SELECT a, b FROM t ORDER BY a, b")
        .expect_err("gate full, queue empty");
    assert!(matches!(e, PyroError::ServerOverloaded(_)), "{e}");
    assert_eq!(e.code(), codes::SERVER_OVERLOADED);
    assert_eq!(server.admission_stats().shed_queue_full, 1);

    // Shedding is graceful: same connection works once the slot frees.
    drop(held);
    let out = client.query("SELECT a, b FROM t ORDER BY a, b").unwrap();
    assert_eq!(out.rows.len(), 5);
    server.shutdown();
}

#[test]
fn queued_request_times_out_into_typed_overload() {
    let session = tiny_session();
    let server = start(
        session,
        ServerConfig {
            admission: AdmissionConfig {
                max_concurrent: 1,
                max_queue: 4,
                queue_timeout: Duration::from_millis(40),
            },
            ..ServerConfig::default()
        },
    );
    let gate = server.admission();
    let mut client = WireClient::connect(server.local_addr()).unwrap();

    let held = gate.admit().expect("the only slot");
    let e = client
        .query("SELECT a FROM t ORDER BY a")
        .expect_err("queued, then timed out");
    assert!(matches!(e, PyroError::ServerOverloaded(_)), "{e}");
    assert_eq!(server.admission_stats().shed_timeout, 1);
    drop(held);
    assert!(client.query("SELECT a FROM t ORDER BY a").is_ok());
    server.shutdown();
}

#[test]
fn row_budget_cancels_mid_stream_with_typed_error() {
    let session = tpch_session(0);
    let server = start(
        Arc::clone(&session),
        ServerConfig {
            // Between the point query's ~200 rows and the full scan's 2000.
            max_rows_per_query: 500,
            ..ServerConfig::default()
        },
    );
    let mut client = WireClient::connect(server.local_addr()).unwrap();

    // 2000 lineitem rows > the 500-row budget.
    let e = client.query(MIX[0]).expect_err("row budget");
    assert!(matches!(e, PyroError::BudgetExceeded(_)), "{e}");
    assert_eq!(e.code(), codes::BUDGET_EXCEEDED);

    // A query under budget still works on the same connection, and
    // matches direct execution.
    let wire = client.query(MIX[3]).expect("point query fits the budget");
    let direct = session.sql(MIX[3]).unwrap();
    assert_eq!(proto::enc_rows(&wire.rows), proto::enc_rows(direct.rows()));
    server.shutdown();
}

#[test]
fn byte_budget_cancels_mid_stream_with_typed_error() {
    let session = tpch_session(0);
    let server = start(
        session,
        ServerConfig {
            // Between the point query's ~4 KiB response and the scan's ~36 KiB.
            max_response_bytes: 8 * 1024,
            ..ServerConfig::default()
        },
    );
    let mut client = WireClient::connect(server.local_addr()).unwrap();
    let e = client.query(MIX[0]).expect_err("byte budget");
    assert!(matches!(e, PyroError::BudgetExceeded(_)), "{e}");
    assert!(client.query(MIX[3]).is_ok(), "connection survives");
    server.shutdown();
}

#[test]
fn sql_errors_are_typed_and_do_not_kill_the_connection() {
    let session = tiny_session();
    let server = start(session, ServerConfig::default());
    let mut client = WireClient::connect(server.local_addr()).unwrap();

    let e = client
        .query("SELECT nope FROM t ORDER BY nope")
        .expect_err("unknown column");
    assert_eq!(e.code(), codes::UNKNOWN_COLUMN, "{e}");
    let e = client
        .query("SELECT a FROM missing ORDER BY a")
        .expect_err("unknown table");
    assert_eq!(e.code(), codes::UNKNOWN_TABLE, "{e}");
    let e = client.prepare("SELECT ? FROM").expect_err("parse error");
    assert_eq!(e.code(), codes::SQL, "{e}");

    let out = client.query("SELECT a, b FROM t ORDER BY a, b").unwrap();
    assert_eq!(out.rows.len(), 5);
    server.shutdown();
}

#[test]
fn done_frame_reports_plan_cache_interaction() {
    let session = tpch_session(8);
    let server = start(session, ServerConfig::default());
    let mut client = WireClient::connect(server.local_addr()).unwrap();

    let first = client.query(MIX[3]).unwrap();
    assert_eq!(first.cache_hit, Some(false), "cold cache: miss");
    let second = client.query(MIX[3]).unwrap();
    assert_eq!(second.cache_hit, Some(true), "warm cache: hit");

    // With the cache disabled the flag says so.
    let nocache = tiny_session();
    let server2 = start(nocache, ServerConfig::default());
    let mut client2 = WireClient::connect(server2.local_addr()).unwrap();
    let out = client2.query("SELECT a FROM t ORDER BY a").unwrap();
    assert_eq!(out.cache_hit, None);
    server2.shutdown();
    server.shutdown();
}

#[test]
fn many_concurrent_clients_all_get_correct_results() {
    let session = tpch_session(64);
    let server = start(
        Arc::clone(&session),
        ServerConfig {
            conn_threads: 4,
            admission: AdmissionConfig {
                max_concurrent: 2,
                max_queue: 64,
                queue_timeout: Duration::from_secs(10),
            },
            ..ServerConfig::default()
        },
    );
    let addr = server.local_addr();
    let expected: Vec<Vec<u8>> = MIX
        .iter()
        .map(|sql| proto::enc_rows(session.sql(sql).unwrap().rows()))
        .collect();

    let handles: Vec<_> = (0..8)
        .map(|i| {
            let expected = expected.clone();
            std::thread::spawn(move || {
                let mut client = WireClient::connect(addr).unwrap();
                for round in 0..3 {
                    let q = (i + round) % MIX.len();
                    let out = client.query(MIX[q]).unwrap();
                    assert_eq!(proto::enc_rows(&out.rows), expected[q], "query {q}");
                }
                client.bye().unwrap();
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let stats = server.admission_stats();
    assert_eq!(stats.admitted, 24, "every query admitted (deep queue)");
    assert!(stats.peak_running <= 2, "admission limit respected");
    server.shutdown();
}

#[test]
fn registry_bound_is_enforced_per_connection() {
    let session = tiny_session();
    let server = start(
        session,
        ServerConfig {
            max_prepared_statements: 2,
            ..ServerConfig::default()
        },
    );
    let mut client = WireClient::connect(server.local_addr()).unwrap();
    let a = client.prepare("SELECT a FROM t WHERE a = ?").unwrap();
    let _b = client.prepare("SELECT b FROM t WHERE a = ?").unwrap();
    let e = client
        .prepare("SELECT a, b FROM t WHERE a = ?")
        .expect_err("registry full");
    assert_eq!(e.code(), codes::WIRE, "{e}");
    client.close(a).unwrap();
    assert!(
        client.prepare("SELECT a, b FROM t WHERE a = ?").is_ok(),
        "closing frees capacity"
    );

    // A second connection gets its own registry.
    let mut other = WireClient::connect(server.local_addr()).unwrap();
    assert!(other.prepare("SELECT a FROM t WHERE a = ?").is_ok());
    server.shutdown();
}

/// `PREPARED` and `EXECUTE` carry a parameter count as a `u16`. A statement
/// with more placeholders is refused and never registered (it could not be
/// executed), and a client never sends more values than the count holds.
#[test]
fn parameter_counts_past_u16_max_are_refused_on_both_sides() {
    let where_n = |n: usize| format!("SELECT a FROM t WHERE {}", vec!["a = ?"; n].join(" AND "));
    let max = usize::from(u16::MAX);
    let server = start(
        tiny_session(),
        ServerConfig {
            max_prepared_statements: 1,
            ..ServerConfig::default()
        },
    );
    let mut client = WireClient::connect(server.local_addr()).unwrap();
    let e = client.prepare(&where_n(max + 1)).expect_err("too many");
    assert_eq!(e.code(), codes::WIRE, "{e}");
    let stmt = client
        .prepare("SELECT a FROM t WHERE a = ?")
        .expect("the refused statement took no registry slot");
    let e = client
        .execute(stmt, &vec![Value::Int(3); max + 1])
        .expect_err("too many values");
    assert!(matches!(e, PyroError::Wire(_)), "{e}");
    let rows = client.execute(stmt, &[Value::Int(3)]).unwrap();
    assert_eq!(
        rows.rows.len(),
        1,
        "nothing was sent for the refused execute"
    );

    let mut other = WireClient::connect(server.local_addr()).unwrap();
    let widest = other.prepare(&where_n(max)).unwrap();
    assert_eq!(widest.param_count, u16::MAX);
    server.shutdown();
}

#[test]
fn shutdown_is_idempotent_and_joins_cleanly() {
    let session = tiny_session();
    let server = start(Arc::clone(&session), ServerConfig::default());
    let addr = server.local_addr();
    {
        let mut client = WireClient::connect(addr).unwrap();
        assert!(client.query("SELECT a FROM t ORDER BY a").is_ok());
    }
    server.shutdown();
    // The port is released: a fresh server can bind a fresh port and serve.
    let server2 = start(session, ServerConfig::default());
    let mut client = WireClient::connect(server2.local_addr()).unwrap();
    assert!(client.query("SELECT a FROM t ORDER BY a").is_ok());
    drop(server2); // Drop also shuts down
}

#[test]
fn graceful_shutdown_checkpoints_a_durable_session() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("wire_graceful_shutdown");
    if dir.exists() {
        std::fs::remove_dir_all(&dir).unwrap();
    }
    let mut session = SessionBuilder::new()
        .data_dir(&dir)
        .buffer_pool_pages(8)
        .wal_checkpoint_bytes(u64::MAX)
        .open()
        .expect("open durable session");
    session
        .register_csv(
            "t",
            Schema::ints(&["a", "b"]),
            SortOrder::new(["a"]),
            "1,10\n2,20\n3,30\n",
        )
        .unwrap();
    // Uncheckpointed: the registration lives in the WAL.
    assert!(std::fs::metadata(dir.join("wal.pyro")).unwrap().len() > pyro::storage::WAL_HEADER_LEN);

    let server = start(Arc::new(session), ServerConfig::default());
    let mut client =
        WireClient::connect_with_retry(server.local_addr(), Duration::from_secs(2)).unwrap();
    assert_eq!(
        client
            .query("SELECT a, b FROM t ORDER BY a")
            .unwrap()
            .total_rows,
        3
    );
    server.shutdown();

    // Shutdown drained, flushed and checkpointed: the WAL holds no live
    // record, and a reopen serves the table without any replay.
    let device = pyro::storage::FileDevice::open(dir.join("data.pyro")).unwrap();
    let wal = pyro::storage::Wal::open_or_create(dir.join("wal.pyro")).unwrap();
    let replay = wal.recover(&device).unwrap();
    assert_eq!((replay.pages_replayed, replay.commits), (0, 0));
    assert_eq!(wal.size(), pyro::storage::WAL_HEADER_LEN);
    drop((wal, device));
    let reopened = SessionBuilder::new().data_dir(&dir).open().expect("reopen");
    assert_eq!(
        reopened.sql("SELECT a, b FROM t ORDER BY a").unwrap().len(),
        3
    );
}

#[test]
fn connect_with_retry_waits_out_a_slow_bind() {
    // Reserve a port, free it, and bind the server there only after a
    // delay — the window where plain connect gets ConnectionRefused. The
    // probe uses 127.0.0.2 so no concurrent test's `127.0.0.1:0` bind can
    // recycle the freed port out from under us.
    let addr = {
        let probe = std::net::TcpListener::bind("127.0.0.2:0").unwrap();
        probe.local_addr().unwrap()
    };
    let session = tiny_session();
    let starter = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(150));
        start(
            session,
            ServerConfig {
                addr: addr.to_string(),
                ..ServerConfig::default()
            },
        )
    });

    let mut client =
        WireClient::connect_with_retry(addr, Duration::from_secs(10)).expect("retry until bind");
    assert!(client.query("SELECT a FROM t ORDER BY a").is_ok());
    starter.join().unwrap().shutdown();
}

#[test]
fn connect_with_retry_gives_up_after_the_deadline() {
    // 127.0.0.3: see connect_with_retry_waits_out_a_slow_bind.
    let addr = {
        let probe = std::net::TcpListener::bind("127.0.0.3:0").unwrap();
        probe.local_addr().unwrap()
    };
    let started = std::time::Instant::now();
    let err = WireClient::connect_with_retry(addr, Duration::from_millis(200))
        .expect_err("nobody is listening");
    assert!(
        matches!(err, PyroError::Wire(ref m) if m.contains("retries exhausted")),
        "{err:?}"
    );
    assert!(started.elapsed() >= Duration::from_millis(200));
}
