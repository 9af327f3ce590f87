//! The wire client: [`RemoteConnection`] is one framed, timeout-guarded
//! socket to a wire server — the remote flavor of [`ShardTransport`]
//! behind [`crate::backend::ShardedBackend`], and the connection inside
//! [`crate::backend::RemoteBackend`] and [`crate::backend::ServeClient`].
//!
//! SQL travels as text — the soundness of that rests on the
//! `print ∘ parse ∘ print` fixed point proved by
//! [`crate::backend::SqlTextBackend`] (see `DESIGN.md` § "Wire
//! protocol").
//!
//! **Failure handling** is retry-then-fail: connect and I/O timeouts
//! bound every wait; on a transport error the client reconnects with
//! exponential backoff under its [`RetryPolicy`], re-presents its session
//! resume token, and re-issues every in-flight request ([`retry`]). The
//! server keeps a session alive across connection drops for a grace
//! period — split handles, temp tables and the replay window of
//! applied-but-unacked `(seq, response)` pairs survive, so a replayed
//! request that was already applied returns the cached response instead
//! of re-executing (safe replay of non-idempotent statements). Only when
//! the retry budget is exhausted does the first error *poison* the
//! connection: every later call fails immediately with the original
//! error, so cleanup paths touching a dead shard cost nothing.
//! [`RetryPolicy::none()`] is strict fail-fast.

mod mux;
mod retry;

use std::collections::BTreeMap;
use std::io;
use std::net::{TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use parking_lot::{Condvar, Mutex};

use joinboost_engine::{DataType, Datum, EngineError, Table};
use joinboost_sql::ast::Statement;

use super::split::{
    keys_from_table, keys_to_table, summaries_from_table, IntervalSummary, SplitHandle, SplitSpec,
};
use super::wire::{
    decode_response, encode_request, read_frame, write_frame, Request, Response, MAGIC, MAX_FRAME,
    VERSION,
};
use super::{BackendResult, ShardTransport, SplitOpen};
use crate::serve::ScorerSpec;
use mux::{MuxState, Pending, Slot};
use retry::fresh_token;
pub use retry::RetryPolicy;

/// Client-side transport knobs.
#[derive(Debug, Clone, Copy)]
pub struct RemoteOptions {
    /// Bound on establishing the TCP connection.
    pub connect_timeout: Duration,
    /// Bound on every request/response exchange (read + write timeouts on
    /// the socket): a dead or hung server surfaces as an error after at
    /// most this long, never as a hang.
    pub io_timeout: Duration,
    /// Reconnect-and-replay behavior on transport errors.
    pub retry: RetryPolicy,
}

impl Default for RemoteOptions {
    fn default() -> Self {
        RemoteOptions {
            connect_timeout: Duration::from_secs(5),
            io_timeout: Duration::from_secs(30),
            retry: RetryPolicy::default(),
        }
    }
}

/// One framed connection to a wire server: the remote flavor of
/// [`ShardTransport`], and the engine half of [`crate::backend::RemoteBackend`].
///
/// A connection *multiplexes*: any number of threads may have requests
/// in flight over the one socket at once. Each request carries a fresh
/// sequence number; replies carry the seq they answer, so completions
/// may arrive in any order. No dedicated I/O thread exists — whichever
/// waiting caller gets there first takes the reader role and drains
/// reply frames for everyone (leader/follower), handing the role off
/// when its own reply lands.
///
/// On a transport failure the connection reconnects under its
/// [`RetryPolicy`], re-presents its session resume token, and replays
/// *every* in-flight request (the server's replay window makes that
/// exactly-once); only an exhausted retry budget *poisons* the
/// connection, failing all in-flight requests at once, after which every
/// call fails immediately with the original error — cleanup paths
/// touching a dead shard cost nothing, they do not re-wait on timeouts.
pub struct RemoteConnection {
    /// Multiplexer bookkeeping — in-flight slots, the live socket, the
    /// seq counter. Never held across blocking socket I/O, so reply
    /// deposits can always make progress.
    mux: Mutex<MuxState>,
    /// Signals waiters: a reply was deposited, the reader role freed, or
    /// recovery finished (either way the slots say what happened).
    cv: Condvar,
    /// Serializes frame *writes* so concurrent requests cannot
    /// interleave bytes mid-frame. Held across the (possibly blocking)
    /// write and nothing else; the server drains its socket one frame at
    /// a time, so a blocked write never deadlocks against the reader.
    wlock: Mutex<()>,
    addr: String,
    opts: RemoteOptions,
    /// Session resume token presented in every handshake.
    token: u64,
    column_swap: bool,
    bytes_sent: AtomicU64,
    bytes_received: AtomicU64,
    /// Split-protocol wire volume (one logical frame per request/reply,
    /// reconnect retransmits excluded) — the per-round traffic the
    /// sharded coordinator reports, as opposed to lifetime totals.
    split_bytes_sent: AtomicU64,
    split_bytes_received: AtomicU64,
    requests: AtomicU64,
    /// Reconnect attempts performed (diagnostics).
    retries: AtomicU64,
    poisoned: Mutex<Option<String>>,
}

/// TCP connect + raw `Hello` handshake presenting `token`. Returns the
/// socket, the server's column-swap capability, and the handshake's
/// `(sent, received)` byte counts. Errors stay at the `io` level; the
/// caller adds the shard-address context.
fn connect_and_hello(
    addr: &str,
    opts: &RemoteOptions,
    token: u64,
) -> io::Result<(TcpStream, bool, u64, u64)> {
    let fail = io::Error::other;
    let sock_addr = addr
        .to_socket_addrs()
        .map_err(|e| fail(format!("connect failed: {e}")))?
        .next()
        .ok_or_else(|| fail("no address".into()))?;
    let mut stream = TcpStream::connect_timeout(&sock_addr, opts.connect_timeout)
        .map_err(|e| fail(format!("connect failed: {e}")))?;
    stream.set_read_timeout(Some(opts.io_timeout))?;
    stream.set_write_timeout(Some(opts.io_timeout))?;
    let _ = stream.set_nodelay(true);
    let hello = encode_request(&Request::Hello {
        magic: MAGIC,
        version: VERSION,
        token,
    });
    let sent = write_frame(&mut stream, &hello)? as u64;
    let frame = read_frame(&mut stream)?;
    let received = frame.len() as u64 + 4;
    match decode_response(&frame).map_err(|e| fail(e.to_string()))? {
        Response::Caps { column_swap } => Ok((stream, column_swap, sent, received)),
        Response::Err(e) => Err(fail(format!("handshake rejected: {e}"))),
        other => Err(fail(format!("bad handshake reply: {other:?}"))),
    }
}

/// Configures a [`RemoteConnection`]: address, transport timeouts, and
/// the retry policy.
///
/// ```no_run
/// # use std::time::Duration;
/// # use joinboost::backend::{RemoteConnection, RetryPolicy};
/// let conn = RemoteConnection::builder("127.0.0.1:7654")
///     .connect_timeout(Duration::from_secs(1))
///     .io_timeout(Duration::from_secs(10))
///     .retry(RetryPolicy::none())
///     .connect()
///     .unwrap();
/// ```
pub struct RemoteConnectionBuilder {
    addr: String,
    opts: RemoteOptions,
}

impl RemoteConnectionBuilder {
    /// Bound on establishing the TCP connection (default 5s).
    pub fn connect_timeout(mut self, t: Duration) -> RemoteConnectionBuilder {
        self.opts.connect_timeout = t;
        self
    }

    /// Bound on every request/response exchange (default 30s).
    pub fn io_timeout(mut self, t: Duration) -> RemoteConnectionBuilder {
        self.opts.io_timeout = t;
        self
    }

    /// Reconnect-and-replay behavior on transport errors (default: a
    /// modest retrying policy — see [`RetryPolicy`]).
    pub fn retry(mut self, policy: RetryPolicy) -> RemoteConnectionBuilder {
        self.opts.retry = policy;
        self
    }

    /// Connect, handshake, and learn the server's capabilities.
    pub fn connect(self) -> BackendResult<RemoteConnection> {
        RemoteConnection::open(&self.addr, self.opts)
    }
}

impl RemoteConnection {
    /// Start configuring a connection to `addr` — see
    /// [`RemoteConnectionBuilder`].
    pub fn builder(addr: impl ToSocketAddrs + std::fmt::Display) -> RemoteConnectionBuilder {
        RemoteConnectionBuilder {
            addr: addr.to_string(),
            opts: RemoteOptions::default(),
        }
    }

    /// The *initial* connect is single-attempt regardless of the retry
    /// policy: a server that was never there fails fast with its connect
    /// error; retries exist to ride out a server that *was* there.
    fn open(addr: &str, opts: RemoteOptions) -> BackendResult<RemoteConnection> {
        let label = addr.to_string();
        let token = fresh_token();
        let (stream, column_swap, sent, received) = connect_and_hello(&label, &opts, token)
            .map_err(|e| EngineError::Other(format!("shard server at {label}: {e}")))?;
        Ok(RemoteConnection {
            mux: Mutex::new(MuxState {
                stream: Some(stream),
                next_seq: 0,
                inflight: BTreeMap::new(),
                reading: false,
                generation: 0,
                recovering: false,
            }),
            cv: Condvar::new(),
            wlock: Mutex::new(()),
            addr: label,
            opts,
            token,
            column_swap,
            bytes_sent: AtomicU64::new(sent),
            bytes_received: AtomicU64::new(received),
            split_bytes_sent: AtomicU64::new(0),
            split_bytes_received: AtomicU64::new(0),
            requests: AtomicU64::new(1),
            retries: AtomicU64::new(0),
            poisoned: Mutex::new(None),
        })
    }

    /// The address this connection talks to (diagnostics).
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Whether the server's engine accepts `SWAP COLUMN`.
    pub fn server_column_swap(&self) -> bool {
        self.column_swap
    }

    /// `(bytes_sent, bytes_received)` on this connection, framing
    /// included — the real shuffle volume of a distributed run.
    pub fn wire_byte_counts(&self) -> (u64, u64) {
        (
            self.bytes_sent.load(Ordering::Relaxed),
            self.bytes_received.load(Ordering::Relaxed),
        )
    }

    /// Requests completed on this connection.
    pub fn request_count(&self) -> u64 {
        self.requests.load(Ordering::Relaxed)
    }

    /// Reconnect attempts performed so far (diagnostics).
    pub fn retry_count(&self) -> u64 {
        self.retries.load(Ordering::Relaxed)
    }

    /// `(bytes_sent, bytes_received)` attributable to the split
    /// protocol, framing and envelopes included, counted once per
    /// logical request/reply (reconnect retransmits excluded).
    pub fn split_wire_byte_counts(&self) -> (u64, u64) {
        (
            self.split_bytes_sent.load(Ordering::Relaxed),
            self.split_bytes_received.load(Ordering::Relaxed),
        )
    }

    /// One request/response exchange over the multiplexer: register an
    /// in-flight slot, write the enveloped frame, then wait (or read on
    /// everyone's behalf) until the reply with this seq lands. Transport
    /// failures trigger a shared reconnect-and-replay under the
    /// connection's [`RetryPolicy`]; once the budget is exhausted the
    /// connection is poisoned and the error carries the shard address.
    /// Server-side engine errors come back as the exact [`EngineError`]
    /// variant the engine raised.
    pub(super) fn request(&self, req: &Request) -> BackendResult<Response> {
        let body = encode_request(req);
        if body.len() + 16 > MAX_FRAME as usize {
            // A purely client-side limit: nothing touched the socket, so
            // the connection stays healthy — no poison, typed error.
            return Err(EngineError::Other(format!(
                "request frame of {} bytes exceeds the {MAX_FRAME}-byte wire limit; \
                 transfer large tables in parts",
                body.len() + 16
            )));
        }
        let split = req.is_split();
        let seq = {
            // Registration and the poison check share one critical
            // section with recovery's fail-everything pass, so a request
            // can never slip in after poisoning and wait forever.
            let mut mux = self.mux.lock();
            if let Some(why) = self.poisoned.lock().as_ref() {
                return Err(EngineError::Other(format!(
                    "shard server at {}: connection previously failed: {why}",
                    self.addr
                )));
            }
            mux.next_seq += 1;
            let seq = mux.next_seq;
            if split {
                self.split_bytes_sent
                    .fetch_add(body.len() as u64 + 20, Ordering::Relaxed);
            }
            mux.inflight.insert(
                seq,
                Pending {
                    body,
                    slot: Slot::Waiting,
                },
            );
            seq
        };
        self.send(seq);
        let outcome = self.await_reply(seq);
        let result = match outcome {
            Ok(bytes) => {
                if split {
                    self.split_bytes_received
                        .fetch_add(bytes.len() as u64 + 12, Ordering::Relaxed);
                }
                self.requests.fetch_add(1, Ordering::Relaxed);
                decode_response(&bytes).map_err(|e| {
                    // A reply that decodes to garbage is a broken peer,
                    // not a recoverable drop — replaying would fetch the
                    // same cached bytes. Poison.
                    let mut p = self.poisoned.lock();
                    if p.is_none() {
                        *p = Some(e.to_string());
                    }
                    e.to_string()
                })
            }
            Err(why) => Err(why),
        };
        result.map_err(|e| EngineError::Other(format!("shard server at {}: {e}", self.addr)))
    }

    /// Request + unwrap a server-side error into the engine error it was.
    /// An admission-control rejection becomes a typed `server busy` error
    /// — like `Response::Err`, it does *not* poison the connection.
    fn call(&self, req: &Request) -> BackendResult<Response> {
        match self.request(req)? {
            Response::Err(e) => Err(e),
            Response::Busy(m) => Err(EngineError::Other(format!(
                "shard server at {}: server busy: {m}",
                self.addr
            ))),
            ok => Ok(ok),
        }
    }

    pub(super) fn unexpected(&self, what: &str, got: &Response) -> EngineError {
        EngineError::Other(format!(
            "shard server at {}: unexpected reply to {what}: {got:?}",
            self.addr
        ))
    }

    /// Execute one SQL statement given as text.
    pub fn execute_text(&self, sql: &str) -> BackendResult {
        match self.call(&Request::Execute { sql: sql.into() })? {
            Response::Table(t) => Ok(t),
            other => Err(self.unexpected("Execute", &other)),
        }
    }

    /// Read a table: every row (`rows: None`) or only the given ones.
    fn scan(&self, name: &str, rows: Option<&[u32]>) -> BackendResult<Table> {
        let req = Request::Scan {
            name: name.into(),
            rows: rows.map(<[u32]>::to_vec),
        };
        match self.call(&req)? {
            Response::Table(t) => Ok(t),
            other => Err(self.unexpected("Scan", &other)),
        }
    }

    /// A table's `(name, type)` columns and its row count.
    fn describe(&self, name: &str) -> BackendResult<(Vec<(String, DataType)>, u64)> {
        match self.call(&Request::Describe { name: name.into() })? {
            Response::Schema { columns, rows } => Ok((columns, rows)),
            other => Err(self.unexpected("Describe", &other)),
        }
    }

    /// Names of every table the server holds (diagnostics / tests).
    pub fn table_names(&self) -> BackendResult<Vec<String>> {
        match self.call(&Request::TableNames)? {
            Response::Names(n) => Ok(n),
            other => Err(self.unexpected("TableNames", &other)),
        }
    }

    /// One `PredictBatch` round trip, in any of its modes.
    pub(super) fn predict_wire(
        &self,
        job: Option<u64>,
        spec: Option<&ScorerSpec>,
        keys: &[i64],
        partial: bool,
    ) -> BackendResult<Vec<(bool, f64)>> {
        match self.call(&Request::PredictBatch {
            job,
            spec: spec.map(|s| Box::new(s.clone())),
            keys: keys.to_vec(),
            partial,
        })? {
            Response::Scores { found, scores } => {
                if found.len() != keys.len() || scores.len() != keys.len() {
                    return Err(EngineError::Other(format!(
                        "shard server at {}: PredictBatch answered {} scores for {} keys",
                        self.addr,
                        scores.len(),
                        keys.len()
                    )));
                }
                Ok(found.into_iter().zip(scores).collect())
            }
            other => Err(self.unexpected("PredictBatch", &other)),
        }
    }
}

impl ShardTransport for RemoteConnection {
    fn execute(&self, stmt: &Statement) -> BackendResult {
        // SQL ships as text; the server re-parses the identical statement
        // (the round-trip fixed point of the SQL-text backend).
        self.execute_text(&stmt.to_string())
    }

    fn create_table(&self, name: &str, table: Table) -> BackendResult<()> {
        match self.call(&Request::CreateTable {
            name: name.into(),
            table,
        })? {
            Response::Unit => Ok(()),
            other => Err(self.unexpected("CreateTable", &other)),
        }
    }

    fn snapshot(&self, name: &str) -> BackendResult<Table> {
        self.scan(name, None)
    }

    fn gather_rows(&self, name: &str, rows: &[u32]) -> BackendResult<Table> {
        self.scan(name, Some(rows))
    }

    fn column_names(&self, table: &str) -> BackendResult<Vec<String>> {
        let (columns, _) = self.describe(table)?;
        Ok(columns.into_iter().map(|(c, _)| c).collect())
    }

    fn column_dtype(&self, table: &str, column: &str) -> BackendResult<DataType> {
        // Case-insensitive, like the engine's own column lookup.
        (self.describe(table)?.0.into_iter())
            .find(|(c, _)| c.eq_ignore_ascii_case(column))
            .map(|(_, d)| d)
            .ok_or_else(|| EngineError::UnknownColumn(column.into()))
    }

    fn has_table(&self, name: &str) -> bool {
        self.describe(name).is_ok()
    }

    fn row_count(&self, name: &str) -> BackendResult<usize> {
        Ok(self.describe(name)?.1 as usize)
    }

    fn drop_table(&self, name: &str) -> BackendResult<()> {
        // A drop is a statement like any other: the server's `Execute`
        // path tracks the write for its scorer cache and session.
        let stmt = Statement::DropTable {
            name: name.into(),
            if_exists: true,
        };
        self.execute(&stmt).map(drop)
    }

    fn split_open(
        &self,
        stmt: &Statement,
        spec: &SplitSpec,
        k: usize,
    ) -> BackendResult<SplitOpen<'_>> {
        // The absorbed result stays on the server; only the protocol's
        // messages (boundaries, summaries, candidate rows) will cross. The
        // reply already carries the first k equal-count boundary keys,
        // saving one round trip.
        let req = Request::SplitOpen {
            sql: stmt.to_string(),
            key_col: spec.key_col as u32,
            c0_col: spec.c0_col as u32,
            c1_col: spec.c1_col as u32,
            specs: spec.specs.iter().map(|s| s.to_tag()).collect(),
            k: k as u32,
        };
        match self.call(&req)? {
            Response::SplitOpened { id, rows, bounds } => {
                let key = bounds.columns.first().ok_or_else(|| {
                    EngineError::Other(format!(
                        "shard server at {}: split bounds without a key column",
                        self.addr
                    ))
                })?;
                Ok(SplitOpen::Protocol {
                    handle: Box::new(RemoteSplitHandle {
                        conn: self,
                        id,
                        rows: rows as usize,
                        key_type: key.dtype(),
                    }),
                    bounds: keys_from_table(&bounds),
                })
            }
            // Protocol inapplicable on the server's data: the absorbed
            // result came back instead, ready for the dense merge.
            Response::Table(t) => Ok(SplitOpen::Dense(t)),
            other => Err(self.unexpected("SplitOpen", &other)),
        }
    }

    fn predict_partials(&self, spec: &ScorerSpec, keys: &[i64]) -> BackendResult<Vec<(bool, f64)>> {
        // Shard-resident scoring: only keys and partial sums cross the
        // wire, never message tables.
        self.predict_wire(None, Some(spec), keys, true)
    }

    fn wire_bytes(&self) -> (u64, u64) {
        self.wire_byte_counts()
    }

    fn split_wire_bytes(&self) -> (u64, u64) {
        self.split_wire_byte_counts()
    }
}

/// Client proxy of a server-side split handle: every method is one
/// request/response on the shard's connection.
struct RemoteSplitHandle<'a> {
    conn: &'a RemoteConnection,
    id: u64,
    rows: usize,
    /// The group key's type, as the server's boundary keys carry it.
    key_type: DataType,
}

impl RemoteSplitHandle<'_> {
    fn table_reply(&self, what: &str, req: &Request) -> BackendResult<Table> {
        match self.conn.call(req)? {
            Response::Table(t) => Ok(t),
            other => Err(self.conn.unexpected(what, &other)),
        }
    }
}

impl SplitHandle for RemoteSplitHandle<'_> {
    fn num_rows(&self) -> usize {
        self.rows
    }

    fn boundaries(&self, k: usize) -> BackendResult<Vec<Datum>> {
        let t = self.table_reply(
            "SplitBoundaries",
            &Request::SplitBoundaries {
                id: self.id,
                k: k as u32,
            },
        )?;
        Ok(keys_from_table(&t))
    }

    fn summaries_delta(
        &self,
        grid: &[Datum],
        changed: &[usize],
    ) -> BackendResult<Vec<IntervalSummary>> {
        // The full grid travels (cheap — keys only), but summaries come
        // back solely for the `changed` intervals; the coordinator
        // reconstructs the rest from its cache, bit-identically. An
        // ascending in-range `changed` as long as the grid names every
        // interval, which the frame says with a flag instead of a list.
        let all = changed.len() == grid.len();
        let t = self.table_reply(
            "SplitSummaries",
            &Request::SplitSummaries {
                id: self.id,
                grid: keys_to_table(self.key_type, grid)?,
                changed: (!all).then(|| changed.iter().map(|&j| j as u32).collect()),
            },
        )?;
        summaries_from_table(&t).ok_or_else(|| {
            EngineError::Other(format!(
                "shard server at {}: malformed split summaries",
                self.conn.addr
            ))
        })
    }

    fn refine(&self, grid: &[Datum], targets: &[(usize, usize)]) -> BackendResult<Vec<Datum>> {
        let t = self.table_reply(
            "SplitRefine",
            &Request::SplitRefine {
                id: self.id,
                grid: keys_to_table(self.key_type, grid)?,
                targets: targets
                    .iter()
                    .map(|&(j, per)| (j as u32, per as u32))
                    .collect(),
            },
        )?;
        Ok(keys_from_table(&t))
    }

    fn fetch(&self, grid: &[Datum], retain: &[bool]) -> BackendResult<Table> {
        self.table_reply(
            "SplitFetch",
            &Request::SplitFetch {
                id: self.id,
                grid: keys_to_table(self.key_type, grid)?,
                retain: retain.to_vec(),
            },
        )
    }

    fn into_all_rows(self: Box<Self>) -> BackendResult<Table> {
        // The dense fallback: one interval covering every key ships the
        // whole absorbed result — exactly the cost the protocol avoids
        // when it does apply. (Drop then releases the server-side state.)
        let bounds = self.boundaries(2)?;
        match bounds.last() {
            None => self.fetch(&[], &[]),
            Some(max) => {
                let max = max.clone();
                self.fetch(&[max], &[true])
            }
        }
    }
}

impl Drop for RemoteSplitHandle<'_> {
    fn drop(&mut self) {
        // Best-effort release of the server-side state; a dead
        // connection already dropped it with the session.
        let _ = self.conn.call(&Request::SplitClose { id: self.id });
    }
}
