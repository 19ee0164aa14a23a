//! `WireClient` — the in-crate reference client, used by the integration
//! tests and the `bench_wire` harness.
//!
//! One client drives one connection, synchronously: send a request frame,
//! read the response frames. Server-side failures come back as the same
//! typed [`PyroError`] variant the server produced (reconstructed from the
//! stable code in the error frame), so callers can `match` on
//! `ServerOverloaded`, `BudgetExceeded`, `Sql`, ... without string parsing.

use crate::frame::{io_err, read_frame, write_frame};
use crate::proto::{self, op};
use pyro_common::{PyroError, Result, Schema, Tuple, Value};
use std::io::{ErrorKind, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

/// A complete query response received over the wire.
#[derive(Debug)]
pub struct WireRows {
    /// Result schema (qualified column names), as sent by the server.
    pub schema: Schema,
    /// All received rows, in stream order.
    pub rows: Vec<Tuple>,
    /// Row count reported by the server's `DONE` frame.
    pub total_rows: u64,
    /// Server-side elapsed time (admission to `DONE`), microseconds.
    pub elapsed_us: u64,
    /// Plan-cache interaction: `None` if the session has no cache, else
    /// whether this query's plan was a cache hit.
    pub cache_hit: Option<bool>,
}

/// A server-side prepared statement handle.
#[derive(Debug, Clone, Copy)]
pub struct WireStatement {
    /// Server-assigned id, scoped to this connection.
    pub id: u32,
    /// Number of `?` placeholders to bind on execute.
    pub param_count: u16,
}

/// A synchronous client connection; see the [module docs](self).
#[derive(Debug)]
pub struct WireClient {
    reader: TcpStream,
    writer: TcpStream,
    server: String,
}

impl WireClient {
    /// Connects and completes the protocol handshake.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<WireClient> {
        let stream = TcpStream::connect(addr).map_err(|e| io_err("connect", &e))?;
        WireClient::handshake(stream)
    }

    /// Like [`WireClient::connect`], but retries `ConnectionRefused` with
    /// capped exponential backoff (10 ms doubling to 500 ms) until
    /// `max_wait` elapses — the idiom for "the server is still binding its
    /// port". Any other failure, including refusal after the deadline,
    /// returns immediately.
    pub fn connect_with_retry(
        addr: impl ToSocketAddrs + Clone,
        max_wait: Duration,
    ) -> Result<WireClient> {
        let deadline = Instant::now() + max_wait;
        let mut backoff = Duration::from_millis(10);
        loop {
            match TcpStream::connect(addr.clone()) {
                Ok(stream) => return WireClient::handshake(stream),
                Err(e) if e.kind() == ErrorKind::ConnectionRefused => {
                    let left = deadline.saturating_duration_since(Instant::now());
                    if left.is_zero() {
                        return Err(io_err("connect (retries exhausted)", &e));
                    }
                    std::thread::sleep(backoff.min(left));
                    backoff = (backoff * 2).min(Duration::from_millis(500));
                }
                Err(e) => return Err(io_err("connect", &e)),
            }
        }
    }

    fn handshake(stream: TcpStream) -> Result<WireClient> {
        let _ = stream.set_nodelay(true);
        let reader = stream.try_clone().map_err(|e| io_err("clone socket", &e))?;
        let mut client = WireClient {
            reader,
            writer: stream,
            server: String::new(),
        };
        client.send(op::HELLO, &proto::enc_hello())?;
        let (opcode, payload) = client.recv()?;
        match opcode {
            op::WELCOME => {
                let (version, server) = proto::dec_welcome(&payload)?;
                if version != proto::VERSION {
                    return Err(PyroError::Wire(format!(
                        "server speaks protocol v{version}, this client v{}",
                        proto::VERSION
                    )));
                }
                client.server = server;
                Ok(client)
            }
            op::ERROR => Err(proto::dec_error(&payload)?),
            other => Err(unexpected(other, "WELCOME")),
        }
    }

    /// The server banner from the handshake.
    pub fn server(&self) -> &str {
        &self.server
    }

    /// Runs one SQL query, collecting the streamed response.
    pub fn query(&mut self, sql: &str) -> Result<WireRows> {
        self.send(op::QUERY, &proto::enc_sql(sql))?;
        self.read_result()
    }

    /// Prepares a (possibly `?`-parameterized) statement server-side.
    pub fn prepare(&mut self, sql: &str) -> Result<WireStatement> {
        self.send(op::PREPARE, &proto::enc_sql(sql))?;
        let (opcode, payload) = self.recv()?;
        match opcode {
            op::PREPARED => {
                let (id, param_count) = proto::dec_prepared(&payload)?;
                Ok(WireStatement { id, param_count })
            }
            op::ERROR => Err(proto::dec_error(&payload)?),
            other => Err(unexpected(other, "PREPARED")),
        }
    }

    /// Executes a prepared statement with `params` bound positionally;
    /// more than `u16::MAX` of them fail before anything is sent.
    pub fn execute(&mut self, stmt: WireStatement, params: &[Value]) -> Result<WireRows> {
        self.send(op::EXECUTE, &proto::enc_execute(stmt.id, params)?)?;
        self.read_result()
    }

    /// Closes a prepared statement server-side.
    pub fn close(&mut self, stmt: WireStatement) -> Result<()> {
        self.send(op::CLOSE, &proto::enc_stmt_id(stmt.id))?;
        let (opcode, payload) = self.recv()?;
        match opcode {
            op::CLOSED => {
                let id = proto::dec_stmt_id(&payload)?;
                if id != stmt.id {
                    return Err(PyroError::Wire(format!(
                        "server closed statement {id}, expected {}",
                        stmt.id
                    )));
                }
                Ok(())
            }
            op::ERROR => Err(proto::dec_error(&payload)?),
            other => Err(unexpected(other, "CLOSED")),
        }
    }

    /// Says goodbye and closes the connection.
    pub fn bye(mut self) -> Result<()> {
        self.send(op::BYE, &[])
    }

    fn send(&mut self, opcode: u8, payload: &[u8]) -> Result<()> {
        write_frame(&mut self.writer, opcode, payload)?;
        self.writer.flush().map_err(|e| io_err("flush", &e))
    }

    fn recv(&mut self) -> Result<(u8, Vec<u8>)> {
        read_frame(&mut self.reader)?
            .ok_or_else(|| PyroError::Wire("server closed the connection".into()))
    }

    /// Reads one `SCHEMA` / `ROWS`* / `DONE` response (or a typed `ERROR`
    /// anywhere in it).
    fn read_result(&mut self) -> Result<WireRows> {
        let (opcode, payload) = self.recv()?;
        let schema = match opcode {
            op::SCHEMA => proto::dec_schema(&payload)?,
            op::ERROR => return Err(proto::dec_error(&payload)?),
            other => return Err(unexpected(other, "SCHEMA")),
        };
        let ncols = schema.len();
        let mut rows: Vec<Tuple> = Vec::new();
        loop {
            let (opcode, payload) = self.recv()?;
            match opcode {
                op::ROWS => rows.extend(proto::dec_rows(&payload, ncols)?),
                op::DONE => {
                    let (total_rows, elapsed_us, cache) = proto::dec_done(&payload)?;
                    if total_rows != rows.len() as u64 {
                        return Err(PyroError::Wire(format!(
                            "server reported {total_rows} rows, received {}",
                            rows.len()
                        )));
                    }
                    let cache_hit = match cache {
                        proto::CACHE_OFF => None,
                        proto::CACHE_HIT => Some(true),
                        _ => Some(false),
                    };
                    return Ok(WireRows {
                        schema,
                        rows,
                        total_rows,
                        elapsed_us,
                        cache_hit,
                    });
                }
                op::ERROR => return Err(proto::dec_error(&payload)?),
                other => return Err(unexpected(other, "ROWS/DONE")),
            }
        }
    }
}

fn unexpected(opcode: u8, wanted: &str) -> PyroError {
    PyroError::Wire(format!(
        "unexpected opcode {opcode:#04x} (expected {wanted})"
    ))
}
