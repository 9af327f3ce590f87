//! The wire server: a JoinBoost engine hosted for clients in *other
//! processes*, speaking the protocol of [`crate::backend::wire`].
//!
//! One [`ServerContext`] owns everything the server holds — the hosted
//! [`Database`], the resumable sessions ([`session`]), the job registry
//! ([`jobs`]) and the scorer cache; the request handlers ([`dispatch`])
//! borrow it. [`WireServerBuilder::serve`] runs the accept loop over a
//! [`TcpListener`] — every connection gets an OS thread, every request
//! maps onto the same engine entry points the in-process backends use;
//! [`WireServerBuilder::spawn`] runs the same loop on a background thread
//! (examples, experiments, tests), and the `shard_server` binary wraps
//! the blocking loop for true multi-process deployments. [`ServeOptions`]
//! carries the fault-injection knobs the test suite uses to kill, stall,
//! or — recoverably — drop connections mid-round.

mod dispatch;
mod jobs;
mod session;

use std::collections::{HashMap, HashSet};
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use joinboost_engine::{Database, EngineError};

use super::wire::{
    decode_request, encode_response, read_frame, write_frame, Request, Response, MAGIC, VERSION,
};
use super::{BackendResult, ShardTransport};
use crate::serve::{MessageIndex, ScorerSpec};
use dispatch::SqlWrite;
use jobs::{job_table_id, recover_jobs, run_job, JobHandle, JobProgress};
use session::{enveloped_response, spawn_sweeper, SessionState};

/// Server-side knobs. The fault-injection fields exist for the test rig:
/// a real deployment leaves them at `Default`.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServeOptions {
    /// After this many requests have been *received* (across all
    /// connections), the server stops serving: with [`ServeOptions::stall`]
    /// unset it drops every connection (a killed process — clients see
    /// EOF/reset immediately); with it set the sockets stay open but no
    /// reply ever comes (a hung process — clients run into their read
    /// timeout). `None` serves forever.
    pub fail_after: Option<u64>,
    /// Fault mode: stall (hold sockets silently) instead of dropping them.
    pub stall: bool,
    /// *Recovering* fault: every `n`-th received request (across all
    /// connections) is thrown away *before* execution and its connection
    /// dropped — then the server keeps serving. A retrying client must
    /// reconnect and re-issue; since the request was never applied, the
    /// replay executes fresh. Reconnect handshakes count as requests, so
    /// `n` must be ≥ 3 for a client to make progress between drops.
    pub drop_every: Option<u64>,
    /// *Recovering* fault, one-shot: request number `n` is executed but
    /// its connection drops *before the reply is written* — then the
    /// server serves normally forever after. The client's replay must be
    /// answered from the session's response cache, not re-executed (the
    /// exactly-once case for non-idempotent statements).
    pub flaky_after: Option<u64>,
    /// Crash-the-process fault: after this many boosting iterations have
    /// been trained (across all jobs, counted *after* the iteration's
    /// registry checkpoint was persisted), the server calls
    /// [`std::process::abort`] — no destructors, no WAL flush beyond what
    /// commit already did. Only meaningful for a real `shard_server`
    /// child process; the restart tests use it to kill training at an
    /// exact, reproducible point.
    pub crash_after_iters: Option<u64>,
    /// Deterministic reply jitter `(seed, max_micros)`: before writing
    /// each reply the server sleeps `splitmix64(seed ^ request_number) %
    /// max_micros` microseconds. With several shard servers on different
    /// seeds this randomizes *cross-shard completion order* — the
    /// pipelined coordinator's ordering-independence proptests drive it.
    pub reply_jitter: Option<(u64, u64)>,
}

struct ServerContext {
    db: Database,
    opts: ServeOptions,
    requests: AtomicU64,
    shutdown: AtomicBool,
    /// Clones of the live sockets (keyed by connection id), so `kill`
    /// can yank connections out from under their threads. Entries leave
    /// when their connection ends — a long-running server does not
    /// accumulate dead fds.
    conns: Mutex<Vec<(u64, TcpStream)>>,
    next_conn: AtomicU64,
    /// The job registry: id → handle. Terminal jobs stay registered so
    /// late polls answer their final state.
    jobs: Mutex<HashMap<u64, Arc<JobHandle>>>,
    next_job: AtomicU64,
    /// Admission control: at most this many jobs queued + running.
    max_jobs: usize,
    /// Admission control: per-session cap on bytes bulk-loaded via
    /// `CreateTable` (`None` = unlimited).
    session_budget: Option<u64>,
    /// How long a disconnected session's state survives before the
    /// sweeper reclaims it (cancels its jobs, drops its temp tables).
    grace: Duration,
    /// Resumable sessions, keyed by the client's resume token.
    sessions: Mutex<HashMap<u64, Arc<SessionState>>>,
    /// One-shot latch for [`ServeOptions::flaky_after`].
    flaky_fired: AtomicBool,
    /// Loaded message-table dictionaries, keyed by fact table name; an
    /// entry answers only the spec it was loaded for. A write
    /// invalidates only the entries whose relations it touches.
    scorer_cache: Mutex<HashMap<String, CachedScorer>>,
    /// Cache-miss loads performed (tests assert on invalidation
    /// granularity through this).
    scorer_loads: AtomicU64,
    /// Does the hosted engine persist tables across restarts? When true,
    /// the job registry is mirrored into the WAL-logged `jb_sys_jobs`
    /// table on every transition and training checkpoint.
    durable: bool,
    /// Persist a Running job's partial forest every this many iterations.
    job_checkpoint_iters: u64,
    /// Boosting iterations trained across all jobs (drives
    /// [`ServeOptions::crash_after_iters`]).
    train_iters: AtomicU64,
    /// Byte budget across all sessions' cached replay responses.
    replay_budget: u64,
    /// Current total bytes held in sessions' replay caches.
    replay_bytes: AtomicU64,
    /// Replay-cache entries evicted under the budget (tests assert the
    /// bound bites through this).
    replay_evictions: AtomicU64,
}

/// A cached scorer dictionary, the spec it was loaded for (the index
/// holds that spec's leaf values), and the relations it was built from
/// (the invalidation footprint).
struct CachedScorer {
    index: Arc<MessageIndex>,
    spec: ScorerSpec,
    tables: Vec<String>,
}

impl ServerContext {
    fn new(
        db: Database,
        opts: ServeOptions,
        max_jobs: usize,
        session_budget: Option<u64>,
        grace: Duration,
        job_checkpoint_iters: u64,
        replay_budget: u64,
    ) -> ServerContext {
        let durable = db.config().storage_path.is_some();
        ServerContext {
            db,
            opts,
            requests: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
            conns: Mutex::new(Vec::new()),
            next_conn: AtomicU64::new(0),
            jobs: Mutex::new(HashMap::new()),
            next_job: AtomicU64::new(0),
            max_jobs,
            session_budget,
            grace,
            sessions: Mutex::new(HashMap::new()),
            flaky_fired: AtomicBool::new(false),
            scorer_cache: Mutex::new(HashMap::new()),
            scorer_loads: AtomicU64::new(0),
            durable,
            job_checkpoint_iters: job_checkpoint_iters.max(1),
            train_iters: AtomicU64::new(0),
            replay_budget,
            replay_bytes: AtomicU64::new(0),
            replay_evictions: AtomicU64::new(0),
        }
    }

    /// Has the fault-injection threshold been crossed (or `kill` called)?
    fn failed(&self) -> bool {
        self.shutdown.load(Ordering::Relaxed)
            || self
                .opts
                .fail_after
                .is_some_and(|n| self.requests.load(Ordering::Relaxed) >= n)
    }

    /// The message-table dictionary for `spec`, loaded once and cached.
    /// Another spec over the same fact table (e.g. the first k trees of
    /// a model) reloads and replaces the entry.
    fn scorer_index(&self, spec: &ScorerSpec) -> BackendResult<Arc<MessageIndex>> {
        if let Some(c) = self.scorer_cache.lock().get(&spec.fact_table) {
            if c.spec == *spec {
                return Ok(Arc::clone(&c.index));
            }
        }
        let idx = Arc::new(MessageIndex::load(spec, &mut |n| self.db.snapshot(n))?);
        self.scorer_loads.fetch_add(1, Ordering::Relaxed);
        let mut cache = self.scorer_cache.lock();
        if cache.len() >= 8 {
            cache.clear();
        }
        cache.insert(
            spec.fact_table.clone(),
            CachedScorer {
                index: Arc::clone(&idx),
                spec: spec.clone(),
                tables: spec.tables().iter().map(|s| s.to_string()).collect(),
            },
        );
        Ok(idx)
    }

    /// Evict cached scorer dictionaries whose relations `write` touched.
    fn invalidate_scorers(&self, write: &SqlWrite) {
        let mut cache = self.scorer_cache.lock();
        match write {
            SqlWrite::ReadOnly => {}
            SqlWrite::Create(t) | SqlWrite::Update(t) | SqlWrite::Drop(t) => {
                cache.retain(|_, c| !c.tables.iter().any(|x| x == t));
            }
            SqlWrite::Swap(a, b) => {
                cache.retain(|_, c| !c.tables.iter().any(|x| x == a || x == b));
            }
        }
    }
}

/// One connection's request loop. Ends on EOF, I/O error, or fault
/// injection. On exit the session is *detached*, not destroyed: its
/// state (split handles, temp tables, jobs, replay cache) survives for
/// the server's grace period so a reconnecting client can resume; the
/// expiry sweeper reclaims sessions that stay gone.
fn serve_connection(ctx: &Arc<ServerContext>, conn_id: u64, mut stream: TcpStream) {
    let mut session: Option<Arc<SessionState>> = None;
    serve_requests(ctx, conn_id, &mut session, &mut stream);
    if let Some(sess) = session {
        let mut inner = sess.inner.lock();
        // Generation guard: if the client already reconnected (a newer
        // connection holds the session), this late detach is a no-op.
        if inner.conn_gen == Some(conn_id) {
            inner.conn_gen = None;
            inner.detached_at = Some(Instant::now());
        }
    }
}

/// Answer the handshake (the raw, un-enveloped first frame) and attach
/// the session on success.
fn hello_response(
    ctx: &Arc<ServerContext>,
    session: &mut Option<Arc<SessionState>>,
    conn_id: u64,
    payload: &[u8],
) -> Response {
    match decode_request(payload) {
        Ok(Request::Hello {
            magic,
            version,
            token,
        }) => {
            if magic != MAGIC {
                Response::Err(EngineError::Other("bad protocol magic".into()))
            } else if version != VERSION {
                Response::Err(EngineError::Other(format!(
                    "protocol version mismatch: client {version}, server {VERSION}"
                )))
            } else {
                *session = Some(ctx.attach_session(token, conn_id));
                Response::Caps {
                    column_swap: ctx.db.config().allow_swap,
                }
            }
        }
        Ok(_) => Response::Err(EngineError::Other(
            "expected Hello as the first request".into(),
        )),
        Err(e) => Response::Err(e),
    }
}

/// splitmix64 finalizer: the deterministic hash behind
/// [`ServeOptions::reply_jitter`].
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

fn serve_requests(
    ctx: &Arc<ServerContext>,
    conn_id: u64,
    session: &mut Option<Arc<SessionState>>,
    stream: &mut TcpStream,
) {
    loop {
        let payload = match read_frame(stream) {
            Ok(p) => p,
            Err(_) => return, // client went away (or kill() shut us down)
        };
        // Fault injection is checked *after* a request arrives — the
        // failure lands mid-round, between statements of a training run.
        let count = ctx.requests.fetch_add(1, Ordering::Relaxed) + 1;
        if ctx.failed() {
            if ctx.opts.stall {
                // Hung process: never answer, hold the socket until the
                // client's read timeout fires (or kill() closes us).
                loop {
                    std::thread::sleep(Duration::from_millis(50));
                    if ctx.shutdown.load(Ordering::Relaxed) {
                        return;
                    }
                }
            }
            // Killed process: drop the connection, client sees EOF.
            let _ = stream.shutdown(std::net::Shutdown::Both);
            return;
        }
        // Recovering fault: the n-th request is received and then thrown
        // away *before* execution — the retrying client's replay
        // re-executes it from scratch.
        if ctx.opts.drop_every.is_some_and(|n| n > 0 && count % n == 0) {
            let _ = stream.shutdown(std::net::Shutdown::Both);
            return;
        }
        let out = match session {
            None => encode_response(&hello_response(ctx, session, conn_id, &payload)),
            Some(sess) => match payload.split_first_chunk::<16>() {
                Some((env, body)) => {
                    let seq = u64::from_le_bytes(env[..8].try_into().expect("8 bytes"));
                    let ack = u64::from_le_bytes(env[8..].try_into().expect("8 bytes"));
                    enveloped_response(ctx, sess, seq, ack, body)
                }
                // No seq to address a reply to: answer bare; the client
                // (which never sends this) reads it as a broken peer.
                None => encode_response(&Response::Err(EngineError::Other(
                    "wire decode: request missing its seq/ack envelope".into(),
                ))),
            },
        };
        // Recovering fault (one-shot): request n was *applied*, but the
        // connection drops before the reply — the client's replay must be
        // served from the session's response cache, not re-executed.
        if ctx.opts.flaky_after.is_some_and(|n| count >= n)
            && !ctx.flaky_fired.swap(true, Ordering::Relaxed)
        {
            let _ = stream.shutdown(std::net::Shutdown::Both);
            return;
        }
        // Deterministic reply jitter: stagger completion order across
        // shards (per-request hash of the seed), never change results.
        if let Some((jseed, max_us)) = ctx.opts.reply_jitter {
            if max_us > 0 {
                std::thread::sleep(Duration::from_micros(splitmix64(jseed ^ count) % max_us));
            }
        }
        if write_frame(stream, &out).is_err() {
            return;
        }
    }
}

fn accept_loop(listener: TcpListener, ctx: Arc<ServerContext>) {
    loop {
        let (stream, _) = match listener.accept() {
            Ok(x) => x,
            Err(_) => return,
        };
        if ctx.shutdown.load(Ordering::Relaxed) {
            return;
        }
        if ctx.failed() && !ctx.opts.stall {
            // Refuse service once failed: drop fresh connections too.
            continue;
        }
        let _ = stream.set_nodelay(true);
        let id = ctx.next_conn.fetch_add(1, Ordering::Relaxed);
        if let Ok(clone) = stream.try_clone() {
            ctx.conns.lock().push((id, clone));
        }
        let st = Arc::clone(&ctx);
        std::thread::spawn(move || {
            serve_connection(&st, id, stream);
            st.conns.lock().retain(|(i, _)| *i != id);
        });
    }
}

/// Configures a [`WireServer`]: fault injection for the chaos tests, job
/// admission control, the per-session load budget, and the session
/// grace period.
///
/// ```no_run
/// # use joinboost::backend::WireServer;
/// # use joinboost_engine::Database;
/// let server = WireServer::builder(Database::in_memory())
///     .max_jobs(2)
///     .session_budget_bytes(64 << 20)
///     .spawn()
///     .unwrap();
/// ```
pub struct WireServerBuilder {
    db: Database,
    opts: ServeOptions,
    max_jobs: usize,
    session_budget: Option<u64>,
    grace: Duration,
    job_checkpoint_iters: u64,
    replay_budget: u64,
}

impl WireServerBuilder {
    /// Fault injection: fail (hang or drop, per [`Self::stall`]) after
    /// `n` requests.
    pub fn fail_after(mut self, n: u64) -> WireServerBuilder {
        self.opts.fail_after = Some(n);
        self
    }

    /// Fault injection mode: `true` hangs the connection when failed,
    /// `false` (default) drops it.
    pub fn stall(mut self, stall: bool) -> WireServerBuilder {
        self.opts.stall = stall;
        self
    }

    /// Recovering fault injection: drop every `n`-th received request's
    /// connection *before* executing it, then keep serving (see
    /// [`ServeOptions::drop_every`]).
    pub fn drop_every(mut self, n: u64) -> WireServerBuilder {
        self.opts.drop_every = Some(n);
        self
    }

    /// Recovering fault injection, one-shot: execute request `n` but drop
    /// its connection before replying, then serve normally (see
    /// [`ServeOptions::flaky_after`]).
    pub fn flaky_after(mut self, n: u64) -> WireServerBuilder {
        self.opts.flaky_after = Some(n);
        self
    }

    /// Fault injection: abort the whole process after `n` boosting
    /// iterations have trained (see [`ServeOptions::crash_after_iters`]).
    pub fn crash_after_iters(mut self, n: u64) -> WireServerBuilder {
        self.opts.crash_after_iters = Some(n);
        self
    }

    /// Persist a running job's partial forest to the durable registry
    /// every `k` iterations (default 1: every iteration is resumable).
    /// Clamped to at least 1. No effect on non-durable engines.
    pub fn job_checkpoint_iters(mut self, k: u64) -> WireServerBuilder {
        self.job_checkpoint_iters = k.max(1);
        self
    }

    /// Byte budget across all sessions' cached replay responses (default
    /// 8 MiB). Over budget, *other* sessions' cached replies are evicted
    /// — never the session that just applied a request, so the in-flight
    /// exactly-once guarantee always holds. A client replaying into an
    /// evicted entry gets a typed error, never a silent re-execution.
    pub fn replay_budget_bytes(mut self, bytes: u64) -> WireServerBuilder {
        self.replay_budget = bytes;
        self
    }

    /// Admission control: at most `n` training jobs queued + running
    /// (default 4). Excess submissions get a typed
    /// [`Response::Busy`](super::wire::Response::Busy) rejection, not a
    /// hang.
    pub fn max_jobs(mut self, n: usize) -> WireServerBuilder {
        self.max_jobs = n;
        self
    }

    /// Admission control: cap the bytes each session may bulk-load via
    /// `CreateTable` (default unlimited).
    pub fn session_budget_bytes(mut self, bytes: u64) -> WireServerBuilder {
        self.session_budget = Some(bytes);
        self
    }

    /// How long a disconnected session's state (split handles, temp
    /// tables, active jobs, replay cache) survives before the sweeper
    /// reclaims it (default 2s). Must comfortably exceed the client's
    /// worst-case reconnect backoff.
    pub fn session_grace(mut self, grace: Duration) -> WireServerBuilder {
        self.grace = grace;
        self
    }

    /// Deterministic reply jitter: sleep a seed-derived `0..max_micros`
    /// microseconds before each reply (see [`ServeOptions::reply_jitter`]).
    /// The interleaving proptests use it to randomize cross-shard
    /// completion order without changing any result.
    pub fn reply_jitter(mut self, seed: u64, max_micros: u64) -> WireServerBuilder {
        self.opts.reply_jitter = Some((seed, max_micros));
        self
    }

    fn context(self) -> Arc<ServerContext> {
        // Recover the durable job registry *before* sweeping orphans: a
        // recovered Done job vouches for its `jb_job<id>_` message
        // tables, which must survive so `PredictBatch { job }` keeps
        // answering after the restart.
        let recovered = if self.db.config().storage_path.is_some() {
            recover_jobs(&self.db)
        } else {
            Vec::new()
        };
        let keep_job_tables: HashSet<u64> = recovered
            .iter()
            .filter(|r| matches!(&*r.handle.progress.lock(), JobProgress::Done { .. }))
            .map(|r| r.handle.id)
            .collect();
        // Orphan sweep, gated on the registry: `jb_` working tables left
        // behind by a previous process are unreachable — except the
        // `jb_sys_` system tables and the message tables of recovered
        // Done jobs, which the registry still refers to.
        for name in self.db.table_names() {
            if !name.starts_with("jb_") || name.starts_with("jb_sys_") {
                continue;
            }
            if job_table_id(&name).is_some_and(|id| keep_job_tables.contains(&id)) {
                continue;
            }
            let _ = ShardTransport::drop_table(&self.db, &name);
        }
        let ctx = Arc::new(ServerContext::new(
            self.db,
            self.opts,
            self.max_jobs,
            self.session_budget,
            self.grace,
            self.job_checkpoint_iters,
            self.replay_budget,
        ));
        if !recovered.is_empty() {
            let next = recovered.iter().map(|r| r.handle.id).max().unwrap_or(0) + 1;
            ctx.next_job.store(next, Ordering::Relaxed);
            let mut resumable = Vec::new();
            {
                let mut jobs = ctx.jobs.lock();
                for r in recovered {
                    if r.resume {
                        resumable.push(Arc::clone(&r.handle));
                    }
                    jobs.insert(r.handle.id, r.handle);
                }
            }
            // Interrupted jobs go back to work: each worker replays the
            // persisted forest checkpoint and trains the remaining
            // iterations (bit-identical to the uncrashed run).
            for handle in resumable {
                let st = Arc::clone(&ctx);
                std::thread::spawn(move || run_job(&st, &handle));
            }
        }
        ctx
    }

    /// Bind an ephemeral loopback port and serve on a background thread.
    pub fn spawn(self) -> io::Result<WireServer> {
        let listener = TcpListener::bind(("127.0.0.1", 0))?;
        let addr = listener.local_addr()?;
        let ctx = self.context();
        let st = Arc::clone(&ctx);
        let accept = std::thread::spawn(move || accept_loop(listener, st));
        let sweeper = spawn_sweeper(Arc::clone(&ctx));
        Ok(WireServer {
            addr,
            ctx,
            accept: Some(accept),
            sweeper: Some(sweeper),
        })
    }

    /// Serve on `listener` until the process exits — the blocking entry
    /// point the `shard_server` binary uses; each accepted connection
    /// still gets its own thread.
    pub fn serve(self, listener: TcpListener) {
        let ctx = self.context();
        let _sweeper = spawn_sweeper(Arc::clone(&ctx));
        accept_loop(listener, ctx);
    }
}

/// An in-process wire server: the full remote protocol over a real
/// loopback TCP socket, hosted on a background thread. What the examples,
/// experiments and most tests use; the `shard_server` binary provides the
/// same loop as a standalone process.
pub struct WireServer {
    addr: SocketAddr,
    ctx: Arc<ServerContext>,
    accept: Option<std::thread::JoinHandle<()>>,
    sweeper: Option<std::thread::JoinHandle<()>>,
}

impl WireServer {
    /// Start configuring a server for `db` — see [`WireServerBuilder`].
    pub fn builder(db: Database) -> WireServerBuilder {
        WireServerBuilder {
            db,
            opts: ServeOptions::default(),
            max_jobs: 4,
            session_budget: None,
            grace: Duration::from_secs(2),
            job_checkpoint_iters: 1,
            replay_budget: 8 << 20,
        }
    }

    /// The server's socket address (`127.0.0.1:<ephemeral>`).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The hosted engine — tests use it to assert on server-side state
    /// (temp-table cleanup, concurrent clients' tables).
    pub fn database(&self) -> &Database {
        &self.ctx.db
    }

    /// Requests received so far (across all connections).
    pub fn requests(&self) -> u64 {
        self.ctx.requests.load(Ordering::Relaxed)
    }

    /// Scorer-dictionary cache misses so far — the invalidation tests
    /// assert that unrelated writes do not force reloads.
    pub fn scorer_cache_loads(&self) -> u64 {
        self.ctx.scorer_loads.load(Ordering::Relaxed)
    }

    /// Replay-cache entries evicted under the replay byte budget so far
    /// (see [`WireServerBuilder::replay_budget_bytes`]).
    pub fn replay_evictions(&self) -> u64 {
        self.ctx.replay_evictions.load(Ordering::Relaxed)
    }

    /// Kill the server: stop accepting and sever every live connection.
    /// Clients observe the same thing a crashed process produces.
    pub fn kill(&mut self) {
        self.ctx.shutdown.store(true, Ordering::Relaxed);
        for (_, c) in self.ctx.conns.lock().drain(..) {
            let _ = c.shutdown(std::net::Shutdown::Both);
        }
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_millis(200));
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        if let Some(h) = self.sweeper.take() {
            let _ = h.join();
        }
    }
}

impl Drop for WireServer {
    fn drop(&mut self) {
        self.kill();
    }
}
