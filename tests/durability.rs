//! Durability integration tests: clean reopen, kill-9 crash recovery, and
//! in-memory/durable result parity.
//!
//! The kill-9 suite spawns the `pyro_ingest` helper binary (see
//! `src/bin/pyro_ingest.rs`), SIGKILLs it mid-ingest, reopens the data
//! directory in-process and asserts the committed prefix survived
//! bit-identically — the WAL replay path is load-bearing because the
//! helper runs with an infinite checkpoint threshold.

use pyro::{SessionBuilder, SortOrder};
use pyro_common::{Schema, Tuple, Value};
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

mod common;
use common::{exact, recover_dir};

/// A fresh per-test data directory under the target tmpdir.
fn fresh_dir(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    if dir.exists() {
        std::fs::remove_dir_all(&dir).expect("clear stale test dir");
    }
    dir
}

/// Must match `table_rows` in `src/bin/pyro_ingest.rs`.
fn ingest_rows(table: usize, rows: usize) -> Vec<Tuple> {
    (0..rows)
        .map(|k| {
            let v = (k as i64)
                .wrapping_mul(2_654_435_761)
                .wrapping_add(table as i64 * 97)
                % 100_000;
            Tuple::new(vec![Value::Int(k as i64), Value::Int(v)])
        })
        .collect()
}

fn sample_rows() -> Vec<Tuple> {
    (0..500)
        .map(|k| Tuple::new(vec![Value::Int(k), Value::Int((k * 37) % 101)]))
        .collect()
}

#[test]
fn clean_reopen_recovers_tables_and_checkpoint_truncates_wal() {
    let dir = fresh_dir("durability_clean_reopen");
    let rows = sample_rows();
    {
        let mut session = SessionBuilder::new()
            .data_dir(&dir)
            .buffer_pool_pages(8)
            .open()
            .expect("open fresh durable session");
        assert!(session.is_durable());
        session
            .register_table("t", Schema::ints(&["k", "v"]), SortOrder::new(["k"]), &rows)
            .expect("register");
        session.checkpoint().expect("checkpoint");
        // A checkpoint flushes everything and starts a new log cycle: the
        // log holds no live record, so reopening replays nothing.
        let wal = session.catalog().store().wal().expect("durable");
        assert_eq!(wal.size(), pyro::storage::WAL_HEADER_LEN);
    }
    let replay = recover_dir(&dir);
    assert_eq!((replay.pages_replayed, replay.commits), (0, 0));
    let session = SessionBuilder::new()
        .data_dir(&dir)
        .open()
        .expect("reopen durable session");
    let got = session.sql("SELECT k, v FROM t ORDER BY k").expect("query");
    assert_eq!(exact(got.rows()), exact(&rows));
}

#[test]
fn reopen_without_checkpoint_replays_wal() {
    let dir = fresh_dir("durability_no_checkpoint");
    let rows = sample_rows();
    {
        let mut session = SessionBuilder::new()
            .data_dir(&dir)
            .buffer_pool_pages(64)
            .wal_checkpoint_bytes(u64::MAX)
            .open()
            .expect("open");
        session
            .register_table("t", Schema::ints(&["k", "v"]), SortOrder::new(["k"]), &rows)
            .expect("register");
        // Dropped without checkpoint: dirty pool pages are lost, as in a
        // crash. Only the WAL can bring the table back.
        assert!(
            std::fs::metadata(dir.join("wal.pyro")).expect("wal").len()
                > pyro::storage::WAL_HEADER_LEN
        );
    }
    let session = SessionBuilder::new().data_dir(&dir).open().expect("reopen");
    let got = session.sql("SELECT k, v FROM t ORDER BY k").expect("query");
    assert_eq!(exact(got.rows()), exact(&rows));
}

#[test]
fn durable_results_match_in_memory() {
    let dir = fresh_dir("durability_parity");
    let rows = sample_rows();
    let schema = Schema::ints(&["k", "v"]);
    let sql = "SELECT v, k FROM t WHERE v > 50 ORDER BY v, k";

    let mut mem = SessionBuilder::new().build();
    mem.register_table("t", schema.clone(), SortOrder::new(["k"]), &rows)
        .expect("register in-memory");
    let expected = mem.sql(sql).expect("in-memory query");

    let mut durable = SessionBuilder::new()
        .data_dir(&dir)
        .buffer_pool_pages(8)
        .open()
        .expect("open durable");
    durable
        .register_table("t", schema, SortOrder::new(["k"]), &rows)
        .expect("register durable");
    let got = durable.sql(sql).expect("durable query");
    assert_eq!(exact(got.rows()), exact(expected.rows()));
}

#[test]
fn kill9_mid_ingest_recovers_committed_prefix_bit_identically() {
    const N_TABLES: usize = 40;
    const ROWS_PER: usize = 1000;
    const KILL_AFTER: usize = 3;

    let dir = fresh_dir("durability_kill9");
    let mut child = Command::new(env!("CARGO_BIN_EXE_pyro_ingest"))
        .arg(&dir)
        .arg(N_TABLES.to_string())
        .arg(ROWS_PER.to_string())
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn pyro_ingest");

    // Synchronize on the helper's per-commit lines, then SIGKILL it — no
    // destructors, no flush: whatever survives survived the hard way.
    let stdout = child.stdout.take().expect("child stdout");
    let mut reader = BufReader::new(stdout);
    let mut committed = 0usize;
    let mut line = String::new();
    while committed < KILL_AFTER {
        line.clear();
        let n = reader.read_line(&mut line).expect("read child stdout");
        assert!(n > 0, "helper exited after only {committed} commits");
        assert!(line.starts_with("committed "), "unexpected line: {line:?}");
        committed += 1;
    }
    child.kill().expect("SIGKILL helper");
    // Commits that raced the kill still flushed their line into the pipe;
    // drain them so `committed` is exact.
    loop {
        line.clear();
        match reader.read_line(&mut line) {
            Ok(0) | Err(_) => break,
            Ok(_) if line.starts_with("committed ") => committed += 1,
            Ok(_) => break,
        }
    }
    child.wait().expect("reap helper");
    assert!(
        committed < N_TABLES,
        "helper finished before the kill landed"
    );

    let session = SessionBuilder::new()
        .data_dir(&dir)
        .open()
        .expect("reopen after SIGKILL");
    let recovered = session.catalog().tables().len();
    // Every acknowledged commit must survive; one unacknowledged trailing
    // commit may additionally have made it to the WAL before the kill.
    assert!(
        recovered >= committed && recovered <= committed + 1,
        "acknowledged {committed} commits but recovered {recovered} tables"
    );
    for i in 0..recovered {
        let name = format!("t{i}");
        assert!(
            session.catalog().tables().contains_key(&name),
            "recovered tables are not the prefix t0..t{}: missing {name}",
            recovered - 1
        );
        let got = session
            .sql(&format!("SELECT k, v FROM {name} ORDER BY k"))
            .unwrap_or_else(|e| panic!("query {name} after recovery: {e}"));
        assert_eq!(
            exact(got.rows()),
            exact(&ingest_rows(i, ROWS_PER)),
            "{name} not bit-identical after recovery"
        );
    }
}
