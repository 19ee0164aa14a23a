//! `wire_point` — the front door under load: two closed-loop TCP clients
//! against an in-process `WireServer`, a seeded 8:1:1 mix of prepared
//! point lookups, prepared short ranges and literal-SQL queries on data
//! that fits the buffer pool. Frame codec, admission, statement registry,
//! plan-cache lookup and index seek carry the time; the executor barely
//! runs — the bypass workload for every executor change.

use crate::check::{verify, Checker, Digest};
use crate::harness::{err_text, repeat_setup, Outcome, RunConfig, StealClock};
use crate::json::Json;
use crate::stats::{median, summarize};
use crate::trace::Tracer;
use pyro::{Session, SortOrder};
use pyro_common::{Tuple, Value};
use pyro_datagen::tpch::{self, TpchConfig};
use pyro_datagen::{rng_with, StdRng};
use pyro_wire::frame::{read_frame, write_frame};
use pyro_wire::{proto, AdmissionConfig, ServerConfig, WireClient, WireServer};
use std::collections::HashMap;
use std::hint::black_box;
use std::net::SocketAddr;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

pub const DATA: TpchConfig = TpchConfig {
    lineitems: 60_000,
    parts: 2_000,
    suppliers: 2_000,
};
/// Far more than the ~700 pages the tables and indexes take: every read
/// after warm-up is a pool hit.
pub const POOL_PAGES: usize = 10_000;
pub const PLAN_CACHE_ENTRIES: usize = 256;
/// One thread per connection, as many connections as cores.
pub const CLIENTS: usize = 2;
/// Distinct literal statements; all resident in the plan cache after
/// warm-up, so the literal path is the cache-hit path.
const LITERALS: usize = 32;
const CONNECTION_WARMUP_REQUESTS: usize = 200;
const DIRECT_REPS: usize = 2_000;
const CODEC_REPS: usize = 200;

const POINT: &str = "SELECT l_orderkey, l_quantity FROM lineitem WHERE l_orderkey = ? \
     ORDER BY l_orderkey, l_quantity";
const RANGE: &str = "SELECT l_suppkey, l_partkey, l_quantity FROM lineitem WHERE l_suppkey = ? \
     ORDER BY l_suppkey, l_partkey";

fn literal_sql(key: i64) -> String {
    POINT.replace('?', &key.to_string())
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Point,
    Range,
    Literal,
}

impl Kind {
    fn span(self) -> &'static str {
        match self {
            Kind::Point => "wire.point",
            Kind::Range => "wire.range",
            Kind::Literal => "wire.literal",
        }
    }
}

/// Per-key answers taken from one full scan of `lineitem` — a different
/// access path from the seeks the requests use.
struct Truth {
    orders: i64,
    by_order: HashMap<i64, Digest>,
    by_supplier: HashMap<i64, Digest>,
    scan: Digest,
}

fn truth_of(session: &Session) -> Result<Truth, String> {
    let result = session
        .sql("SELECT l_orderkey, l_suppkey, l_partkey, l_quantity FROM lineitem")
        .map_err(|e| err_text(&e))?;
    let mut truth = Truth {
        orders: (DATA.lineitems / 4) as i64,
        by_order: HashMap::new(),
        by_supplier: HashMap::new(),
        scan: Digest::of(result.rows()),
    };
    for row in result.rows() {
        let v = row.values();
        let (order, supplier) = (v[0].as_int().unwrap_or(-1), v[1].as_int().unwrap_or(-1));
        truth
            .by_order
            .entry(order)
            .or_default()
            .add(&[v[0].clone(), v[3].clone()]);
        truth.by_supplier.entry(supplier).or_default().add(&[
            v[1].clone(),
            v[2].clone(),
            v[3].clone(),
        ]);
    }
    Ok(truth)
}

/// The request stream of one connection: kind and key drawn from its own
/// seeded generator, so a seed fixes every request of the run.
struct Requests {
    rng: StdRng,
    literals: Vec<(i64, String)>,
    orders: i64,
}

impl Requests {
    fn new(seed: u64, client: usize, orders: i64) -> Requests {
        // The literal pool is the same on every connection (one plan-cache
        // entry per statement); the request stream is not.
        let mut pool = rng_with(seed);
        let literals = (0..LITERALS)
            .map(|_| {
                let key = pool.gen_range(0..orders);
                (key, literal_sql(key))
            })
            .collect();
        Requests {
            rng: rng_with(seed ^ (client as u64 + 1).wrapping_mul(0xA076_1D64_78BD_642F)),
            literals,
            orders,
        }
    }

    fn next(&mut self) -> (Kind, i64, usize) {
        match self.rng.gen_range(0..10_u64) {
            0..=7 => (Kind::Point, self.rng.gen_range(0..self.orders), 0),
            8 => (Kind::Range, self.rng.gen_range(0..DATA.suppliers as i64), 0),
            _ => {
                let slot = self.rng.gen_range(0..LITERALS);
                (Kind::Literal, self.literals[slot].0, slot)
            }
        }
    }
}

struct Connection {
    client: WireClient,
    point: pyro_wire::WireStatement,
    range: pyro_wire::WireStatement,
    requests: Requests,
}

impl Connection {
    fn open(addr: SocketAddr, seed: u64, idx: usize, orders: i64) -> Result<Connection, String> {
        let mut client = WireClient::connect(addr).map_err(|e| err_text(&e))?;
        let point = client.prepare(POINT).map_err(|e| err_text(&e))?;
        let range = client.prepare(RANGE).map_err(|e| err_text(&e))?;
        Ok(Connection {
            client,
            point,
            range,
            requests: Requests::new(seed, idx, orders),
        })
    }

    /// Sends the next request and waits for its reply. Returns the round
    /// trip and, checked after the clock stopped, what was wrong with it.
    fn request(&mut self, truth: &Truth) -> (Kind, Duration, Option<String>) {
        let (kind, key, slot) = self.requests.next();
        let start = Instant::now();
        let reply = match kind {
            Kind::Point => self.client.execute(self.point, &[Value::Int(key)]),
            Kind::Range => self.client.execute(self.range, &[Value::Int(key)]),
            Kind::Literal => self.client.query(&self.requests.literals[slot].1),
        };
        let took = start.elapsed();
        let expected = match kind {
            Kind::Range => truth.by_supplier.get(&key),
            _ => truth.by_order.get(&key),
        }
        .copied()
        .unwrap_or_default();
        let problem = match &reply {
            Ok(r) => verify("", &r.rows, expected, Some(&[0, 1]))
                .map(|msg| format!("{kind:?} {key}{msg}")),
            Err(e) => Some(format!("{kind:?} {key}: {}", err_text(e))),
        };
        (kind, took, problem)
    }
}

struct State {
    session: Arc<Session>,
    /// Dropping the server stops its threads and joins them.
    server: WireServer,
}

fn build(seed: u64) -> State {
    let mut session = Session::builder()
        .buffer_pool_pages(POOL_PAGES)
        .plan_cache_entries(PLAN_CACHE_ENTRIES)
        .seed(seed)
        .build();
    tpch::load_with_seed(session.catalog_mut(), DATA, seed).expect("load lineitem and partsupp");
    let session = Arc::new(session);
    let server = WireServer::start(
        Arc::clone(&session),
        ServerConfig {
            conn_threads: CLIENTS,
            admission: AdmissionConfig {
                max_concurrent: CLIENTS,
                max_queue: 64,
                queue_timeout: Duration::from_secs(10),
            },
            ..ServerConfig::default()
        },
    )
    .expect("start the wire server");
    State { session, server }
}

struct ClientRun {
    samples: Vec<(Kind, f64)>,
    checker: Checker,
    started: Instant,
    ended: Instant,
    tracer: Tracer,
}

fn client_run(
    addr: SocketAddr,
    cfg: &RunConfig,
    idx: usize,
    truth: &Truth,
    barrier: &Barrier,
    epoch: Instant,
) -> ClientRun {
    let mut checker = Checker::default();
    let mut tracer = Tracer::new(epoch);
    let mut conn = match Connection::open(addr, cfg.seed, idx, truth.orders) {
        Ok(c) => Some(c),
        Err(msg) => {
            checker.fail(format!("client {idx}: {msg}"));
            None
        }
    };
    // Warm-up, outside every timing: each literal once (fills the plan
    // cache) and a stretch of the mix (pulls the touched pages into the
    // pool). It is not part of `setup_s`: request ping-pong between two
    // threads measures how the host schedules two vCPUs, which swung that
    // figure 4x between runs of one commit.
    if let Some(c) = conn.as_mut() {
        for (_, sql) in c.requests.literals.clone() {
            if let Err(e) = c.client.query(&sql) {
                checker.fail(format!("warm-up literal: {}", err_text(&e)));
            }
        }
        for _ in 0..CONNECTION_WARMUP_REQUESTS {
            if let (_, _, Some(msg)) = c.request(truth) {
                checker.fail(format!("warm-up: {msg}"));
            }
        }
    }
    // Twice: once so the main thread can snapshot the server's counters
    // with every connection warm and idle, once to start together.
    barrier.wait();
    barrier.wait();
    let started = Instant::now();
    let mut samples = Vec::new();
    if let Some(c) = conn.as_mut() {
        let mut i = 0u64;
        while started.elapsed().as_secs_f64() < cfg.seconds {
            let sent = Instant::now();
            let (kind, took, problem) = c.request(truth);
            if cfg.trace {
                tracer.set_op(i * CLIENTS as u64 + idx as u64);
                tracer.record(kind.span(), sent, took);
            }
            checker.record(problem);
            samples.push((kind, took.as_secs_f64() * 1e3));
            i += 1;
        }
    }
    let ended = Instant::now();
    if let Some(c) = conn {
        let _ = c.client.bye();
    }
    ClientRun {
        samples,
        checker,
        started,
        ended,
        tracer,
    }
}

fn rtt_us(samples: &[(Kind, f64)], kind: Kind) -> Vec<f64> {
    samples
        .iter()
        .filter(|(k, _)| *k == kind)
        .map(|(_, ms)| ms * 1e3)
        .collect()
}

/// Time of `f`, median of `reps` calls, µs.
fn time_us<T>(reps: usize, mut f: impl FnMut(usize) -> T) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|i| {
            let start = Instant::now();
            black_box(f(i));
            start.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    median(&samples)
}

/// The codec alone, on a 1,024-row batch shaped like a `lineitem` result.
fn time_codec(out: &mut Outcome) {
    let rows: Vec<Tuple> = (0..1_024_i64)
        .map(|i| {
            Tuple::new(vec![
                Value::Int(i / 4),
                Value::Int(i * 7 % 2_000),
                Value::Int(i * 13 % 2_000),
                Value::Int(i % 50 + 1),
                Value::Str(if i % 2 == 0 { "O" } else { "F" }.into()),
            ])
        })
        .collect();
    let payload = proto::enc_rows(&rows);
    out.layer(
        "wire.encode_rows_us",
        time_us(CODEC_REPS, |_| proto::enc_rows(black_box(&rows))),
    );
    out.layer(
        "wire.decode_rows_us",
        time_us(CODEC_REPS, |_| proto::dec_rows(black_box(&payload), 5)),
    );
    out.layer(
        "wire.frame_roundtrip_us",
        time_us(CODEC_REPS, |_| {
            let mut buf = Vec::with_capacity(payload.len() + 16);
            write_frame(&mut buf, proto::op::ROWS, &payload).expect("write to a Vec");
            read_frame(&mut buf.as_slice()).expect("read back a whole frame")
        }),
    );
}

pub fn run(cfg: &RunConfig) -> Outcome {
    let mut out = Outcome::new(
        Json::obj()
            .with("op", "one request: prepared point EXECUTE (l_orderkey = ?), prepared range EXECUTE (l_suppkey = ?) or literal-SQL query, 8:1:1")
            .with("clients", CLIENTS)
            .with("loop", "closed")
            .with("server_conn_threads", CLIENTS)
            .with("admission_max_concurrent", CLIENTS)
            .with("lineitems", DATA.lineitems)
            .with("parts", DATA.parts)
            .with("suppliers", DATA.suppliers)
            .with("buffer_pool_pages", POOL_PAGES)
            .with("plan_cache_entries", PLAN_CACHE_ENTRIES)
            .with("literal_statements", LITERALS)
            .with("connection_warmup_requests", CONNECTION_WARMUP_REQUESTS + LITERALS),
    );
    let (state, setup_s) = repeat_setup(cfg.setup_reps(), |_| build(cfg.seed));
    out.setup_s = setup_s;
    let truth = match truth_of(&state.session) {
        Ok(t) => t,
        Err(msg) => {
            out.checker.fail(msg);
            return out;
        }
    };
    out.digests.insert("lineitem_scan".to_string(), truth.scan);

    let catalog = state.session.catalog();
    let addr = state.server.local_addr();
    let barrier = Barrier::new(CLIENTS + 1);
    let epoch = Instant::now();
    let mut steal = Duration::ZERO;
    let (runs, pool_before, cache_before, admitted_before) = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|idx| {
                let (truth, barrier) = (&truth, &barrier);
                scope.spawn(move || client_run(addr, cfg, idx, truth, barrier, epoch))
            })
            .collect();
        barrier.wait();
        let before = (
            catalog.store().cache_stats(),
            state.session.plan_cache_stats().unwrap_or_default(),
            state.server.admission_stats().admitted,
        );
        barrier.wait();
        let steal_before = StealClock::now();
        let runs: Vec<ClientRun> = handles
            .into_iter()
            .map(|h| h.join().expect("a client thread panicked"))
            .collect();
        steal = StealClock::now().mean_since(&steal_before);
        (runs, before.0, before.1, before.2)
    });
    let pool = catalog.store().cache_stats().since(&pool_before);
    let cache_after = state.session.plan_cache_stats().unwrap_or_default();
    let admission = state.server.admission_stats();

    let started = runs.iter().map(|r| r.started).min().expect("clients ran");
    let ended = runs.iter().map(|r| r.ended).max().expect("clients ran");
    // Two pairs of ping-ponging threads keep both vCPUs busy, so what the
    // section lost of its wall clock is the mean steal per vCPU. Request
    // latencies stay wall-clock — a steal tick is 30 requests long — and
    // their median over 60,000 samples does not need the correction.
    let wall = ended.duration_since(started);
    out.steal_s = steal.min(wall / 2).as_secs_f64();
    out.timed_s = wall.as_secs_f64() - out.steal_s;
    let mut samples = Vec::new();
    let mut tracer = Tracer::new(epoch);
    for run in runs {
        samples.extend(run.samples);
        out.checker.merge(run.checker);
        tracer.absorb(run.tracer);
    }
    out.op_ms = samples.iter().map(|(_, ms)| *ms).collect();
    out.op_wall_ms = out.op_ms.clone();
    let shed = admission.shed_queue_full + admission.shed_timeout;
    if shed > 0 {
        out.checker
            .fail(format!("{shed} requests were shed by admission control"));
    }

    if cfg.trace {
        let point = summarize(&rtt_us(&samples, Kind::Point));
        out.layer("wire.rtt_point_p50_us", point.p50);
        out.layer("wire.rtt_point_tail_us", point.tail);
        out.detail.set("rtt_point_tail_pct", point.tail_pct);
        out.detail.set("rtt_point_samples", point.n);
        out.layer(
            "wire.rtt_range_p50_us",
            median(&rtt_us(&samples, Kind::Range)),
        );
        out.layer(
            "wire.rtt_literal_p50_us",
            median(&rtt_us(&samples, Kind::Literal)),
        );
        out.layer(
            "wire.admitted",
            (admission.admitted - admitted_before) as f64,
        );
        out.layer("wire.queued", admission.peak_waiting as f64);
        out.layer("wire.shed", shed as f64);
        out.layer("storage.pool_hit_rate", pool.hit_rate());
        out.layer("storage.pool_evictions", pool.evictions as f64);
        out.layer("storage.pool_writebacks", pool.writebacks as f64);
        let lookups =
            (cache_after.hits + cache_after.misses) - (cache_before.hits + cache_before.misses);
        if lookups > 0 {
            out.layer(
                "core.plan_cache_hit_rate",
                (cache_after.hits - cache_before.hits) as f64 / lookups as f64,
            );
        }

        // The same point statement without the wire: what is left of the
        // round trip is the front door's share.
        let mut keys = rng_with(cfg.seed);
        let direct = state
            .session
            .prepare_shared(POINT)
            .expect("prepare the point statement");
        let mut engine_us = Vec::with_capacity(DIRECT_REPS);
        let direct_us = time_us(DIRECT_REPS, |_| {
            let key = keys.gen_range(0..truth.orders);
            let result = direct
                .execute(&[Value::Int(key)])
                .expect("direct point query");
            engine_us.push(result.elapsed().as_secs_f64() * 1e6);
            result
        });
        out.layer("wire.direct_point_p50_us", direct_us);
        out.layer("wire.overhead_point_us", point.p50 - direct_us);
        out.layer("exec.seek_us", median(&engine_us));
        let literal = literal_sql(keys.gen_range(0..truth.orders));
        state.session.plan(&literal).expect("plan the literal once");
        out.layer(
            "core.plan_cache_hit_us",
            time_us(DIRECT_REPS, |_| state.session.plan(black_box(&literal))),
        );
        out.layer(
            "sql.normalize_us",
            time_us(DIRECT_REPS, |_| pyro_sql::normalize(black_box(&literal))),
        );
        time_codec(&mut out);
        out.tracer = Some(tracer);
        drop(direct);

        // Last: an index bumps the catalog generation and with it every
        // plan-cache key. The server is down by then.
        let State { session, server } = state;
        server.shutdown();
        match Arc::try_unwrap(session) {
            Ok(mut session) => {
                let start = Instant::now();
                session
                    .create_index(
                        "lineitem",
                        "bench_l_partkey_cov",
                        SortOrder::new(["l_partkey"]),
                        &["l_quantity"],
                    )
                    .expect("build the probe index");
                out.layer(
                    "catalog.index_build_ms",
                    start.elapsed().as_secs_f64() * 1e3,
                );
            }
            Err(_) => out
                .checker
                .fail("the server kept a session handle after shutdown".into()),
        }
    }
    out
}
