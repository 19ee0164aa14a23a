//! The TCP serving front door: listener, connection thread pool, and the
//! per-connection protocol state machine.
//!
//! ## Threading model
//!
//! One **accept thread** pulls connections off the listener and hands them
//! to a fixed pool of **connection workers** over a bounded queue. When
//! every worker is busy and the queue is full, the connection is *shed at
//! accept*: it gets a typed `ServerOverloaded` error frame and a clean
//! close instead of an unbounded backlog. Inside a connection, QUERY and
//! EXECUTE additionally pass the [`AdmissionGate`] — the query-level gate —
//! before touching the session.
//!
//! ## Streaming and budgets
//!
//! Results are never fully materialized on the server: each
//! [`pyro::QueryStream`] batch is encoded straight from its columns
//! ([`proto::enc_batch`]: no result row is boxed on the server) and
//! flushed as its own `ROWS` frame. Per-query budgets (result rows,
//! response bytes) are checked batch-by-batch; exceeding one cancels the
//! query mid-stream with a typed `BudgetExceeded` error frame — the
//! connection stays healthy.
//!
//! ## Error policy
//!
//! Frames are length-delimited, so a malformed *payload* never desyncs the
//! stream: the server answers with a typed error frame and keeps serving
//! the connection. Only transport-level problems (unreadable frame
//! header, handshake violation, write failure) close the connection — and
//! always cleanly, never by panicking.

use crate::admission::{AdmissionConfig, AdmissionGate, AdmissionStats};
use crate::frame::{read_frame_cancellable, write_frame, ReadOutcome};
use crate::proto::{self, op};
use crate::registry::StmtRegistry;
use pyro::{QueryStream, Session};
use pyro_common::{PyroError, Result};
use std::io::{BufWriter, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Everything the server enforces; `Default` is a sensible local setup.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Listen address; port `0` picks a free port (see
    /// [`WireServer::local_addr`]).
    pub addr: String,
    /// Connection worker threads — concurrently *served* connections.
    pub conn_threads: usize,
    /// Accepted connections allowed to wait for a free worker before new
    /// arrivals are shed at accept time.
    pub max_pending_conns: usize,
    /// Query-level admission control (concurrency + wait queue + timeout).
    pub admission: AdmissionConfig,
    /// Per-query result-row budget; `0` = unlimited.
    pub max_rows_per_query: u64,
    /// Per-query response-byte budget (ROWS payload bytes); `0` = unlimited.
    pub max_response_bytes: u64,
    /// Prepared statements a single connection may hold open.
    pub max_prepared_statements: usize,
    /// Granularity at which blocked reads re-check the shutdown flag.
    pub idle_poll: Duration,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            conn_threads: 8,
            max_pending_conns: 64,
            admission: AdmissionConfig::default(),
            max_rows_per_query: 0,
            max_response_bytes: 0,
            max_prepared_statements: 64,
            idle_poll: Duration::from_millis(100),
        }
    }
}

/// A running wire server. Dropping (or calling [`WireServer::shutdown`])
/// stops accepting, wakes every blocked worker, and joins all threads.
#[derive(Debug)]
pub struct WireServer {
    addr: SocketAddr,
    session: Arc<Session>,
    shutdown: Arc<AtomicBool>,
    gate: Arc<AdmissionGate>,
    accept_thread: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl WireServer {
    /// Binds `cfg.addr` and starts serving `session`.
    pub fn start(session: Arc<Session>, cfg: ServerConfig) -> Result<WireServer> {
        let listener = TcpListener::bind(&cfg.addr)
            .map_err(|e| PyroError::Wire(format!("bind {}: {e}", cfg.addr)))?;
        let addr = listener
            .local_addr()
            .map_err(|e| PyroError::Wire(format!("local_addr: {e}")))?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let gate = Arc::new(AdmissionGate::new(cfg.admission));
        let (tx, rx) = std::sync::mpsc::sync_channel::<TcpStream>(cfg.max_pending_conns.max(1));
        let rx = Arc::new(Mutex::new(rx));

        let threads = cfg.conn_threads.max(1);
        let mut workers: Vec<JoinHandle<()>> = Vec::with_capacity(threads);
        for i in 0..threads {
            let rx = Arc::clone(&rx);
            let session = Arc::clone(&session);
            let gate = Arc::clone(&gate);
            let cfg = cfg.clone();
            let shutdown = Arc::clone(&shutdown);
            let spawned = std::thread::Builder::new()
                .name(format!("pyro-wire-conn-{i}"))
                .spawn(move || connection_worker(&rx, &session, &gate, &cfg, &shutdown));
            match spawned {
                Ok(handle) => workers.push(handle),
                Err(e) => {
                    drop(tx);
                    return Err(spawn_failed("connection worker", e, workers));
                }
            }
        }

        // A failed spawn drops its closure, and with it the only sender.
        let accept_thread = {
            let shutdown = Arc::clone(&shutdown);
            std::thread::Builder::new()
                .name("pyro-wire-accept".into())
                .spawn(move || accept_loop(&listener, &tx, &shutdown))
                .map_err(|e| spawn_failed("accept thread", e, std::mem::take(&mut workers)))?
        };

        Ok(WireServer {
            addr,
            session,
            shutdown,
            gate,
            accept_thread: Some(accept_thread),
            workers,
        })
    }

    /// The bound address (resolves port `0`).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The query-level admission gate — shared, so tests can occupy slots
    /// deterministically and operators can read live occupancy.
    pub fn admission(&self) -> Arc<AdmissionGate> {
        Arc::clone(&self.gate)
    }

    /// Admission counters (admitted / shed / peaks).
    pub fn admission_stats(&self) -> AdmissionStats {
        self.gate.stats()
    }

    /// Stops accepting, disconnects idle workers, joins every thread, and
    /// — once no thread can touch the session anymore — checkpoints a
    /// durable session so the data directory reopens with nothing to
    /// replay. Connections mid-query finish their current response first.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        if self.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.accept_thread.take() {
            let _ = h.join();
        }
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
        // All workers are joined: the flush below races with nothing.
        if let Err(e) = self.session.checkpoint() {
            eprintln!("pyro: shutdown checkpoint failed: {e}");
        }
    }
}

impl Drop for WireServer {
    fn drop(&mut self) {
        self.stop();
    }
}

fn accept_loop(listener: &TcpListener, tx: &SyncSender<TcpStream>, shutdown: &AtomicBool) {
    loop {
        let stream = match listener.accept() {
            Ok((stream, _peer)) => stream,
            Err(_) => continue,
        };
        if shutdown.load(Ordering::SeqCst) {
            return; // drops tx → workers' recv() errors → they exit
        }
        match tx.try_send(stream) {
            Ok(()) => {}
            Err(TrySendError::Full(stream)) => shed_connection(stream),
            Err(TrySendError::Disconnected(_)) => return,
        }
    }
}

/// Every worker is busy and the backlog is full: answer with a typed
/// overload frame instead of silently dropping the connection.
fn shed_connection(stream: TcpStream) {
    let e = PyroError::ServerOverloaded("connection backlog full; retry later".into());
    let mut w = BufWriter::new(stream);
    let _ = write_frame(&mut w, op::ERROR, &proto::enc_error(&e));
    let _ = w.flush();
}

/// The error for a thread `start` could not spawn, once the connection
/// workers already running have been joined: the channel's sender is gone,
/// so each returns from its next `recv`.
fn spawn_failed(what: &str, e: std::io::Error, workers: Vec<JoinHandle<()>>) -> PyroError {
    for handle in workers {
        let _ = handle.join();
    }
    PyroError::Wire(format!("spawn {what}: {e}"))
}

fn connection_worker(
    rx: &Mutex<Receiver<TcpStream>>,
    session: &Arc<Session>,
    gate: &AdmissionGate,
    cfg: &ServerConfig,
    shutdown: &AtomicBool,
) {
    loop {
        let stream = {
            let guard = rx.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
            match guard.recv() {
                Ok(s) => s,
                Err(_) => return, // accept loop gone: shutdown
            }
        };
        if shutdown.load(Ordering::SeqCst) {
            return;
        }
        // A connection failure must never take the worker down with it.
        handle_connection(stream, session, gate, cfg, shutdown);
    }
}

/// Runs one connection's protocol state machine to completion; every exit
/// path is a clean close.
fn handle_connection(
    stream: TcpStream,
    session: &Arc<Session>,
    gate: &AdmissionGate,
    cfg: &ServerConfig,
    shutdown: &AtomicBool,
) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(cfg.idle_poll.max(Duration::from_millis(1))));
    let mut reader = match stream.try_clone() {
        Ok(r) => r,
        Err(_) => return,
    };
    let mut writer = BufWriter::new(stream);
    let cancelled = || shutdown.load(Ordering::SeqCst);

    // --- handshake: exactly one HELLO before anything else -------------
    match read_frame_cancellable(&mut reader, &cancelled) {
        Ok(ReadOutcome::Frame(op::HELLO, payload)) => match proto::dec_hello(&payload) {
            Ok(version) if version == proto::VERSION => {
                if send(&mut writer, op::WELCOME, &proto::enc_welcome("pyro")).is_err() {
                    return;
                }
            }
            Ok(version) => {
                let e = PyroError::Wire(format!(
                    "protocol version mismatch: client {version}, server {}",
                    proto::VERSION
                ));
                let _ = send(&mut writer, op::ERROR, &proto::enc_error(&e));
                return;
            }
            Err(e) => {
                let _ = send(&mut writer, op::ERROR, &proto::enc_error(&e));
                return;
            }
        },
        Ok(ReadOutcome::Frame(other, _)) => {
            let e = PyroError::Wire(format!(
                "expected HELLO (0x01) before anything else, got opcode {other:#04x}"
            ));
            let _ = send(&mut writer, op::ERROR, &proto::enc_error(&e));
            return;
        }
        Ok(ReadOutcome::Eof | ReadOutcome::Cancelled) => return,
        Err(e) => {
            let _ = send(&mut writer, op::ERROR, &proto::enc_error(&e));
            return;
        }
    }

    // --- steady state ---------------------------------------------------
    let mut registry = StmtRegistry::new(cfg.max_prepared_statements);
    loop {
        let (opcode, payload) = match read_frame_cancellable(&mut reader, &cancelled) {
            Ok(ReadOutcome::Frame(opcode, payload)) => (opcode, payload),
            Ok(ReadOutcome::Eof | ReadOutcome::Cancelled) => return,
            Err(e) => {
                // Unreadable framing (oversized length, mid-frame
                // disconnect): answer if the socket still works, then close
                // — the stream position is no longer trustworthy.
                let _ = send(&mut writer, op::ERROR, &proto::enc_error(&e));
                return;
            }
        };
        let outcome = match opcode {
            op::QUERY => match proto::dec_sql(&payload) {
                Ok(sql) => respond_query(&mut writer, gate, cfg, || session.sql_stream(&sql)),
                Err(e) => reply_error(&mut writer, &e),
            },
            op::PREPARE => match proto::dec_sql(&payload) {
                // A statement whose count the reply cannot carry is never
                // registered: it could not be executed.
                Ok(sql) => match session.prepare_shared(&sql).and_then(|stmt| {
                    let count = proto::wire_count(stmt.param_count(), "parameters")?;
                    Ok((registry.insert(stmt)?, count))
                }) {
                    Ok((id, count)) => {
                        send(&mut writer, op::PREPARED, &proto::enc_prepared(id, count))
                    }
                    Err(e) => reply_error(&mut writer, &e),
                },
                Err(e) => reply_error(&mut writer, &e),
            },
            op::EXECUTE => match proto::dec_execute(&payload) {
                Ok((id, params)) => match registry.get(id) {
                    Ok(stmt) => {
                        respond_query(&mut writer, gate, cfg, || stmt.execute_stream(&params))
                    }
                    Err(e) => reply_error(&mut writer, &e),
                },
                Err(e) => reply_error(&mut writer, &e),
            },
            op::CLOSE => match proto::dec_stmt_id(&payload).and_then(|id| {
                registry.remove(id)?;
                Ok(id)
            }) {
                Ok(id) => send(&mut writer, op::CLOSED, &proto::enc_stmt_id(id)),
                Err(e) => reply_error(&mut writer, &e),
            },
            op::BYE => return,
            other => {
                let e = PyroError::Wire(format!("unknown opcode {other:#04x}"));
                reply_error(&mut writer, &e)
            }
        };
        if outcome.is_err() {
            return; // the socket is gone; nothing more to say
        }
    }
}

/// Writes one frame and flushes — responses must not sit in the buffer
/// while the server waits for the client's next request.
fn send(w: &mut BufWriter<TcpStream>, opcode: u8, payload: &[u8]) -> Result<()> {
    write_frame(w, opcode, payload)?;
    w.flush().map_err(|e| crate::frame::io_err("flush", &e))
}

/// Reports a request-level failure on the wire; the connection survives.
fn reply_error(w: &mut BufWriter<TcpStream>, e: &PyroError) -> Result<()> {
    send(w, op::ERROR, &proto::enc_error(e))
}

/// Admission-gates `make`, then streams its result: `SCHEMA`, `ROWS`
/// batch-by-batch under the row/byte budgets, `DONE` — or a typed `ERROR`
/// at the point of failure. Returns `Err` only for transport failures.
fn respond_query(
    w: &mut BufWriter<TcpStream>,
    gate: &AdmissionGate,
    cfg: &ServerConfig,
    make: impl FnOnce() -> Result<QueryStream>,
) -> Result<()> {
    let started = Instant::now();
    let permit = match gate.admit() {
        Ok(p) => p,
        Err(e) => return reply_error(w, &e),
    };
    let mut stream = match make() {
        Ok(s) => s,
        Err(e) => return reply_error(w, &e),
    };
    match proto::enc_schema(stream.schema()) {
        Ok(schema) => send(w, op::SCHEMA, &schema)?,
        Err(e) => return reply_error(w, &e),
    }
    let mut rows_sent: u64 = 0;
    let mut bytes_sent: u64 = 0;
    loop {
        let batch = match stream.next_batch() {
            Ok(Some(batch)) => batch,
            Ok(None) => break,
            Err(e) => return reply_error(w, &e),
        };
        rows_sent += batch.len() as u64;
        if cfg.max_rows_per_query > 0 && rows_sent > cfg.max_rows_per_query {
            let e = PyroError::BudgetExceeded(format!(
                "result exceeds the {}-row budget",
                cfg.max_rows_per_query
            ));
            return reply_error(w, &e); // dropping `stream` cancels the query
        }
        let payload = proto::enc_batch(&batch);
        bytes_sent += payload.len() as u64;
        if cfg.max_response_bytes > 0 && bytes_sent > cfg.max_response_bytes {
            let e = PyroError::BudgetExceeded(format!(
                "response exceeds the {}-byte budget",
                cfg.max_response_bytes
            ));
            return reply_error(w, &e);
        }
        send(w, op::ROWS, &payload)?;
    }
    let cache = match stream.plan_cache() {
        None => proto::CACHE_OFF,
        Some(info) if info.hit => proto::CACHE_HIT,
        Some(_) => proto::CACHE_MISS,
    };
    let elapsed_us = started.elapsed().as_micros() as u64;
    let out = send(w, op::DONE, &proto::enc_done(rows_sent, elapsed_us, cache));
    drop(permit); // release the slot only after the response is complete
    out
}
