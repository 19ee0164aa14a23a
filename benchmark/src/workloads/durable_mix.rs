//! `durable_mix` — writes beside reads on the one layer stack that is
//! larger than its cache: a durable session whose `events` table is 2.45×
//! the buffer pool. Each op commits a fresh table through the WAL, floods
//! the pool with an ordered scan, and seeks one clustered key.

use crate::check::{verify, Digest};
use crate::harness::{
    closed_loop, err_text, fill_stepped_layers, repeat_setup, step_statement, timed, Outcome,
    RunConfig, Timed,
};
use crate::json::Json;
use crate::stats::median;
use crate::trace::Tracer;
use pyro::{Session, SessionBuilder, SortOrder};
use pyro_catalog::Catalog;
use pyro_common::{Schema, Tuple, Value};
use pyro_datagen::rng_with;
use pyro_storage::encoded_len;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// ISSUE 11 sized this at 1M events / 2,000 pool pages / 20k-row batches;
/// one op then takes 0.45 s. A fifth of the table and pool keeps the table
/// at 2.45× the pool at ~14 ops/s; batches of 6k rows (~120 KB of WAL)
/// keep one checkpoint per ~9 commits, so a run sees about ten cycles.
pub const EVENTS_ROWS: usize = 200_000;
pub const POOL_PAGES: usize = 400;
/// Pool of the bulk-load session: holds all of `events`. Loading through
/// the 400-page pool instead makes every eviction of a dirty page fsync
/// the WAL first — ~580 fsyncs, 0.25-0.8 s and nothing but device noise —
/// which would make `setup_s` a measure of the sandbox's disk.
const LOAD_POOL_PAGES: usize = 2_000;
pub const BATCH_ROWS: usize = 6_000;
/// Rows per clustering key of `events` (one seek returns this many).
const SEGMENT_ROWS: i64 = 1_000;
const WARMUP_OPS: u64 = 2;
/// The traced run checkpoints and measures the files after exactly this
/// many commits, so the space and WAL ratios repeat exactly.
const EXACT_OPS: u64 = 10;

const SCAN: &str = "SELECT k, v FROM events ORDER BY k, v";

fn seek_sql(key: i64) -> String {
    format!("SELECT k, v FROM events WHERE k = {key}")
}

fn schema() -> Schema {
    Schema::ints(&["k", "v"])
}

fn user_bytes(rows: &[Tuple]) -> u64 {
    rows.iter().map(|t| encoded_len(t) as u64).sum()
}

/// What the harness knows about `events` without asking the engine.
struct Events {
    all: Digest,
    /// Digest of the rows of clustering key `k`, by `k`.
    by_key: Vec<Digest>,
    user_bytes: u64,
}

fn events_rows(seed: u64) -> (Vec<Tuple>, Events) {
    let mut r = rng_with(seed);
    let keys = EVENTS_ROWS.div_ceil(SEGMENT_ROWS as usize);
    let mut facts = Events {
        all: Digest::default(),
        by_key: vec![Digest::default(); keys],
        user_bytes: 0,
    };
    let rows: Vec<Tuple> = (0..EVENTS_ROWS as i64)
        .map(|i| {
            let vals = [
                Value::Int(i / SEGMENT_ROWS),
                Value::Int(r.gen_range(0..1_000_000)),
            ];
            facts.all.add(&vals);
            facts.by_key[(i / SEGMENT_ROWS) as usize].add(&vals);
            Tuple::new(vals.to_vec())
        })
        .collect();
    facts.user_bytes = user_bytes(&rows);
    (rows, facts)
}

/// The table op `i` commits: rows depend on the seed and `i` only.
fn batch_rows(seed: u64, i: u64) -> Vec<Tuple> {
    let mut r = rng_with(seed ^ (i + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    (0..BATCH_ROWS as i64)
        .map(|k| Tuple::new(vec![Value::Int(k), Value::Int(r.gen_range(0..1_000_000))]))
        .collect()
}

fn open(dir: &Path, pool_pages: usize) -> pyro::Result<Session> {
    SessionBuilder::new()
        .data_dir(dir)
        .buffer_pool_pages(pool_pages)
        .open()
}

fn fresh_dir(cfg: &RunConfig, rep: usize) -> ScratchDir {
    let dir = cfg
        .out_dir
        .join("tmp")
        .join(format!("durable_mix-{}-{rep}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    ScratchDir(dir)
}

/// The run's data directory; removed when the state holding it goes.
struct ScratchDir(PathBuf);

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Fields drop in order: the session closes its files before the
/// directory is removed.
struct State {
    session: Session,
    events: Events,
    dir: ScratchDir,
}

fn build(cfg: &RunConfig, rep: usize) -> State {
    let dir = fresh_dir(cfg, rep);
    let (rows, events) = events_rows(cfg.seed);
    // Bulk load, checkpoint, then reopen under the pool the ops run with.
    let mut loader = open(&dir.0, LOAD_POOL_PAGES).expect("open the bulk-load session");
    loader
        .register_table("events", schema(), SortOrder::new(["k"]), &rows)
        .expect("register events");
    loader.checkpoint().expect("checkpoint the bulk load");
    drop(loader);
    let session = open(&dir.0, POOL_PAGES).expect("reopen under the small pool");
    State {
        session,
        events,
        dir,
    }
}

fn file_len(path: PathBuf) -> u64 {
    std::fs::metadata(path).map_or(0, |m| m.len())
}

/// One op's three timed calls and the checks after each.
struct OpTimes {
    commit: Timed,
    scan: Timed,
    seek: Timed,
    /// WAL growth of the commit, bytes; not observable from outside when
    /// the commit also checkpointed (the log was truncated), so 0 then.
    wal_grew: u64,
    checkpointed: bool,
    problem: Option<String>,
}

impl OpTimes {
    fn total(&self) -> Timed {
        let mut sum = self.commit;
        sum += self.scan;
        sum += self.seek;
        sum
    }
}

fn op(
    state: &mut State,
    seed: u64,
    name: &str,
    i: u64,
    acked: &mut Vec<(String, Digest)>,
    mut tr: Option<&mut Tracer>,
) -> OpTimes {
    let rows = batch_rows(seed, i);
    let digest = Digest::of(&rows);
    let key = (i.wrapping_mul(7919) % state.events.by_key.len() as u64) as i64;
    let wal = state
        .session
        .catalog()
        .store()
        .wal()
        .cloned()
        .expect("a durable session has a WAL");

    let wal_before = wal.size();
    let span = tr.as_deref_mut().map(|t| t.open("catalog.commit"));
    let (committed, commit) = timed(|| {
        state
            .session
            .register_table(name, schema(), SortOrder::new(["k"]), &rows)
    });
    if let (Some(t), Some(id)) = (tr.as_deref_mut(), span) {
        t.close(id);
    }
    let wal_after = wal.size();
    let mut problem = committed
        .as_ref()
        .err()
        .map(|e| format!("{name}: {}", err_text(e)));
    if committed.is_ok() {
        acked.push((name.to_string(), digest));
    }

    let session = &state.session;
    let mut statement = |label: &str, sql: &str, expected: Digest, key: Option<&[usize]>| {
        let (got, took) = timed(|| match tr.as_deref_mut() {
            Some(t) => step_statement(t, session, label, sql),
            None => session.sql(sql).map(pyro::QueryResult::into_rows),
        });
        let this = match &got {
            Ok(rows) => verify(label, rows, expected, key),
            Err(e) => Some(format!("{label}: {}", err_text(e))),
        };
        (took, this)
    };
    let (scan, p_scan) = statement("partial_sort", SCAN, state.events.all, Some(&[0, 1]));
    let (seek, p_seek) = statement(
        "seek",
        &seek_sql(key),
        state.events.by_key[key as usize],
        None,
    );
    problem = problem.or(p_scan).or(p_seek);
    OpTimes {
        commit,
        scan,
        seek,
        wal_grew: wal_after.saturating_sub(wal_before),
        checkpointed: wal_after < wal_before,
        problem,
    }
}

/// Reopens the directory as a crashed process would find it — no final
/// checkpoint, so the WAL replays — and checks every acknowledged table.
fn reopen_and_verify(state: State, acked: &[(String, Digest)], out: &mut Outcome) -> f64 {
    let State {
        session,
        events,
        dir,
    } = state;
    drop(session);
    let start = Instant::now();
    let reopened = open(&dir.0, POOL_PAGES);
    let reopen_ms = start.elapsed().as_secs_f64() * 1e3;
    match reopened {
        Err(e) => out.checker.fail(format!("reopen: {}", err_text(&e))),
        Ok(session) => {
            let mut check = |table: &str, expected: Digest| {
                let problem = match session.sql(&format!("SELECT k, v FROM {table}")) {
                    Ok(r) => verify(&format!("reopened {table}"), r.rows(), expected, None),
                    Err(e) => Some(format!("reopened {table}: {}", err_text(&e))),
                };
                if let Some(msg) = problem {
                    out.checker.fail(msg);
                }
            };
            check("events", events.all);
            for (table, digest) in acked {
                check(table, *digest);
            }
        }
    }
    reopen_ms
}

pub fn run(cfg: &RunConfig) -> Outcome {
    let mut out = Outcome::new(
        Json::obj()
            .with(
                "op",
                "register_table of a fresh batch (WAL append + fsync + commit), then SELECT k, v FROM events ORDER BY k, v, then one clustered-key seek",
            )
            .with("clients", 1_u64)
            .with("loop", "closed")
            .with("events_rows", EVENTS_ROWS)
            .with("buffer_pool_pages", POOL_PAGES)
            .with("bulk_load_pool_pages", LOAD_POOL_PAGES)
            .with("batch_rows", BATCH_ROWS)
            .with("wal_checkpoint_bytes", pyro::DEFAULT_WAL_CHECKPOINT_BYTES)
            .with("flush_policy", "fsync the WAL at every commit; checkpoint when the WAL passes wal_checkpoint_bytes")
            .with("warmup_ops", WARMUP_OPS),
    );
    let (mut state, setup_s) = repeat_setup(cfg.setup_reps(), |rep| build(cfg, rep));
    out.setup_s = setup_s;
    let events_pages = state
        .session
        .catalog()
        .table("events")
        .map_or(0, |t| t.heap.block_count());
    out.detail.set("events_pages", events_pages);
    out.digests.insert("events".to_string(), state.events.all);
    out.digests
        .insert("batch_0".to_string(), Digest::of(&batch_rows(cfg.seed, 0)));

    let mut acked = Vec::new();
    for w in 0..WARMUP_OPS {
        let t = op(
            &mut state,
            cfg.seed,
            &format!("warm_{w}"),
            w,
            &mut acked,
            None,
        );
        if let Some(msg) = t.problem {
            out.checker.fail(format!("warm-up: {msg}"));
        }
    }

    let catalog_io = |s: &Session| (s.catalog().device().io(), s.catalog().store().cache_stats());
    let (io_before, pool_before) = catalog_io(&state.session);
    let mut tr = Tracer::new(Instant::now());
    let (mut commit_ms, mut scan_ms, mut seek_us) = (Vec::new(), Vec::new(), Vec::new());
    let (mut checkpoints, mut traced_ops) = (0u64, 0u64);
    let (mut wal_bytes, mut wal_user_bytes, mut batch_bytes) = (0u64, 0u64, 0u64);
    let mut exact = None;
    let checker = &mut out.checker;
    let samples = closed_loop(cfg.seconds, if cfg.trace { EXACT_OPS } else { 1 }, |i| {
        let mut t = op(
            &mut state,
            cfg.seed,
            &format!("batch_{i}"),
            i,
            &mut acked,
            None,
        );
        checker.record(t.problem.take());
        checkpoints += u64::from(t.checkpointed);
        if !cfg.trace {
            return t.total();
        }
        commit_ms.push(t.commit.wall.as_secs_f64() * 1e3);
        // The stepped twin of this op: same rows, a table of its own.
        tr.set_op(i);
        let mut s = op(
            &mut state,
            cfg.seed,
            &format!("traced_{i}"),
            i,
            &mut acked,
            Some(&mut tr),
        );
        checker.record(s.problem.take());
        checkpoints += u64::from(s.checkpointed);
        scan_ms.push(s.scan.wall.as_secs_f64() * 1e3);
        seek_us.push(s.seek.wall.as_secs_f64() * 1e6);
        traced_ops += 1;

        if i < EXACT_OPS {
            let bytes = user_bytes(&batch_rows(cfg.seed, i));
            batch_bytes += 2 * bytes;
            for commit in [&t, &s] {
                if !commit.checkpointed {
                    wal_bytes += commit.wal_grew;
                    wal_user_bytes += bytes;
                }
            }
        }
        if i + 1 == EXACT_OPS {
            // After the checkpoint every byte committed so far is in the
            // data file and the log is empty: space used per user byte.
            let start = Instant::now();
            if let Err(e) = state.session.checkpoint() {
                checker.fail(format!("checkpoint: {}", err_text(&e)));
            }
            let checkpoint_ms = start.elapsed().as_secs_f64() * 1e3;
            let disk =
                file_len(state.dir.0.join("data.pyro")) + file_len(state.dir.0.join("wal.pyro"));
            let warm: u64 = (0..WARMUP_OPS)
                .map(|w| user_bytes(&batch_rows(cfg.seed, w)))
                .sum();
            let user = state.events.user_bytes + warm + batch_bytes;
            exact = Some((
                checkpoint_ms,
                disk as f64 / user as f64,
                wal_bytes as f64 / wal_user_bytes.max(1) as f64,
            ));
        }
        t.total()
    });
    out.set_samples(samples);
    out.detail.set("tables_committed", acked.len());

    let (io_after, pool_after) = catalog_io(&state.session);
    let reopen_ms = reopen_and_verify(state, &acked, &mut out);

    if cfg.trace {
        let untraced = out.op_wall_ms.clone();
        // Coverage here is of the two statements; the commit has no steps
        // to split (it is one call), so it is left out of both sides.
        let statements_only: Vec<f64> = untraced
            .iter()
            .zip(&commit_ms)
            .map(|(op, commit)| op - commit)
            .collect();
        fill_stepped_layers(&mut out, &tr, traced_ops, &statements_only);
        let io = io_after.since(&io_before);
        let pool = pool_after.since(&pool_before);
        out.layer("storage.device_reads", io.reads as f64);
        out.layer("storage.device_writes", io.writes as f64);
        out.layer("storage.pool_hit_rate", pool.hit_rate());
        out.layer("storage.pool_evictions", pool.evictions as f64);
        out.layer("storage.pool_writebacks", pool.writebacks as f64);
        out.layer("storage.checkpoints", checkpoints as f64);
        out.layer("storage.reopen_ms", reopen_ms);
        out.layer("exec.partial_sort_ms", median(&scan_ms));
        out.layer("exec.seek_us", median(&seek_us));
        out.layer("catalog.commit_ms", median(&commit_ms));
        if let Some((checkpoint_ms, disk_ratio, wal_ratio)) = exact {
            out.layer("storage.checkpoint_ms", checkpoint_ms);
            out.layer("storage.disk_bytes_per_user_byte", disk_ratio);
            out.layer("storage.wal_bytes_per_user_byte", wal_ratio);
        }
        // The same batch into an in-memory catalog: what a commit costs
        // without the WAL, the fsync and the persisted catalog.
        let rows = batch_rows(cfg.seed, 0);
        let register: Vec<f64> = (0..5)
            .map(|_| {
                let mut catalog = Catalog::new();
                let start = Instant::now();
                catalog
                    .register_table("batch", schema(), SortOrder::new(["k"]), &rows)
                    .expect("in-memory register");
                start.elapsed().as_secs_f64() * 1e3
            })
            .collect();
        out.layer("catalog.register_ms", median(&register));
        out.tracer = Some(tr);
    }
    out
}
