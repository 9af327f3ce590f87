//! Resumable sessions: the per-client state that outlives a dropped
//! connection — split handles, temp tables, the load budget — and the
//! replay window that makes re-delivered requests exactly-once, with its
//! byte budget and the sweeper that reclaims sessions that stay gone.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use joinboost_engine::EngineError;

use super::dispatch::{handle_request, handle_split_request, SqlWrite};
use super::jobs::{cancel_job, persist_jobs, JobHandle};
use super::ServerContext;
use crate::backend::split::LocalSplitState;
use crate::backend::wire::{decode_request, encode_response, Request, Response, MAX_FRAME};
use crate::backend::ShardTransport;

/// A resumable session: split-protocol handles, the load budget, the
/// session's temp tables, and the idempotent-replay cache. Keyed by the
/// client's resume token, a session survives connection drops for the
/// server's grace period — only the expiry sweeper reclaims it.
pub(super) struct SessionState {
    token: u64,
    pub(super) inner: Mutex<SessionInner>,
}

pub(super) struct SessionInner {
    pub(super) splits: HashMap<u64, LocalSplitState>,
    pub(super) next_split: u64,
    /// Bytes bulk-loaded via `CreateTable` in this session (frame
    /// sizes, the number the wire actually carried).
    bytes_loaded: u64,
    /// Highest sequence number applied so far (client seqs start at 1).
    /// Diagnostics only under multiplexing: a pipelined client's frames
    /// may arrive out of seq order, so replay decisions key off the
    /// window and the acked floor, never off this maximum.
    last_applied: u64,
    /// The replay window: per applied-but-unacknowledged seq, the
    /// encoded reply (`Some`), replayed verbatim when a reconnecting
    /// client re-issues a request whose reply was lost — or `None` when
    /// the cached bytes fell to the replay byte budget, in which case
    /// the replay gets a typed error instead of re-execution
    /// (exactly-once is preserved; at-least-once is not silently
    /// substituted). The client acks its lowest in-flight seq on every
    /// request, releasing older entries.
    responses: BTreeMap<u64, Option<Vec<u8>>>,
    /// Every seq below this has been acknowledged: it can never be
    /// legitimately replayed, so a request below the floor that misses
    /// the window is answered with a typed stale-sequence error. A fresh
    /// seq at or above the floor executes regardless of arrival order.
    acked_floor: u64,
    /// `jb_`-prefixed (non-`jb_job`) tables this session created over the
    /// wire and has not dropped: reclaimed when the session expires.
    temp_tables: HashSet<String>,
    /// Connection currently bound to this session (`None` = detached).
    pub(super) conn_gen: Option<u64>,
    /// When the session detached; the sweeper reclaims it `grace` later.
    pub(super) detached_at: Option<Instant>,
}

impl SessionState {
    fn new(token: u64) -> SessionState {
        SessionState {
            token,
            inner: Mutex::new(SessionInner {
                splits: HashMap::new(),
                next_split: 0,
                bytes_loaded: 0,
                last_applied: 0,
                responses: BTreeMap::new(),
                acked_floor: 0,
                temp_tables: HashSet::new(),
                conn_gen: None,
                detached_at: None,
            }),
        }
    }
}

/// Session temp tables the expiry sweeper may reclaim: the `jb_` working
/// prefix, but never the `jb_job<id>_` message tables, which belong to
/// the job registry, not to any one session.
fn is_session_temp(name: &str) -> bool {
    name.starts_with("jb_") && !name.starts_with("jb_job")
}

impl SessionInner {
    /// Record the effect of a *successful* write on this session's
    /// temp-table set.
    pub(super) fn note_write(&mut self, write: &SqlWrite) {
        match write {
            SqlWrite::Create(t) if is_session_temp(t) => {
                self.temp_tables.insert(t.clone());
            }
            SqlWrite::Drop(t) => {
                self.temp_tables.remove(t);
            }
            _ => {}
        }
    }
}

impl ServerContext {
    /// Look up (or create) the session for `token` and bind it to the
    /// connection `conn_id`. A reconnecting client re-presents its token
    /// and gets its surviving state back; the generation guard makes a
    /// late detach from the *previous* connection's thread a no-op.
    pub(super) fn attach_session(&self, token: u64, conn_id: u64) -> Arc<SessionState> {
        let sess = Arc::clone(
            self.sessions
                .lock()
                .entry(token)
                .or_insert_with(|| Arc::new(SessionState::new(token))),
        );
        let mut inner = sess.inner.lock();
        inner.conn_gen = Some(conn_id);
        inner.detached_at = None;
        drop(inner);
        sess
    }
}

/// Answer one enveloped request frame (`[u64 seq][u64 ack][request]`)
/// against the session, consulting the replay window first. Returns the
/// encoded response frame under its own `[u64 seq]` envelope; the caller
/// writes it (or drops it, under fault injection).
pub(super) fn enveloped_response(
    ctx: &Arc<ServerContext>,
    sess: &Arc<SessionState>,
    seq: u64,
    ack: u64,
    body: &[u8],
) -> Vec<u8> {
    // The client matches replies to in-flight requests by seq.
    let envelope = |bytes: Vec<u8>| -> Vec<u8> {
        let mut out = Vec::with_capacity(bytes.len() + 8);
        out.extend_from_slice(&seq.to_le_bytes());
        out.extend_from_slice(&bytes);
        out
    };
    let mut inner = sess.inner.lock();
    if seq != 0 {
        match inner.responses.get(&seq) {
            Some(Some(cached)) => {
                // The request was applied but its reply was lost in a
                // drop: replay the cached (already enveloped) bytes
                // without re-executing. This is what makes retrying
                // non-idempotent statements safe.
                return cached.clone();
            }
            Some(None) => {
                // The request was applied but its cached reply fell to
                // the replay byte budget. Re-executing could
                // double-apply a non-idempotent statement, so the
                // client gets a typed error instead.
                return envelope(encode_response(&Response::Err(EngineError::Other(
                    format!(
                        "replay of sequence {seq} unavailable: cached response evicted \
                     under the server's replay byte budget"
                    ),
                ))));
            }
            None if seq < inner.acked_floor => {
                // Below the floor the client has acknowledged: it can
                // never be a legitimate replay.
                return envelope(encode_response(&Response::Err(EngineError::Other(
                    format!(
                        "stale sequence {seq}: session already applied {}",
                        inner.last_applied
                    ),
                ))));
            }
            // A fresh seq at or above the floor executes below. A
            // pipelined client's frames may arrive out of seq order,
            // so "greater than some applied seq" proves nothing.
            None => {}
        }
    }
    let resp = match decode_request(body) {
        Ok(req) if req.is_split() => handle_split_request(&ctx.db, &mut inner, req),
        Ok(req) => {
            // Per-session load budget: meter `CreateTable` by the
            // bytes the wire actually carried, and reject — typed,
            // on a live connection — the frame that would exceed it.
            let frame_len = body.len() as u64 + 8;
            let over_budget = matches!(req, Request::CreateTable { .. })
                && match ctx.session_budget {
                    None => {
                        inner.bytes_loaded = inner.bytes_loaded.saturating_add(frame_len);
                        false
                    }
                    Some(budget) => {
                        let would = inner.bytes_loaded.saturating_add(frame_len);
                        if would > budget {
                            true
                        } else {
                            inner.bytes_loaded = would;
                            false
                        }
                    }
                };
            if over_budget {
                Response::Busy(format!(
                    "session load budget exhausted: {} bytes loaded, frame of {frame_len} \
                     would exceed the {}-byte cap",
                    inner.bytes_loaded,
                    ctx.session_budget.unwrap_or(0)
                ))
            } else {
                handle_request(ctx, sess.token, &mut inner, req)
            }
        }
        Err(e) => Response::Err(e),
    };
    // A result too large for one frame becomes a *typed* error on a
    // live connection, not a silent hangup the client would read as
    // a crashed server.
    let mut out = encode_response(&resp);
    if out.len() + 8 > MAX_FRAME as usize {
        out = encode_response(&Response::Err(EngineError::Other(format!(
            "result frame of {} bytes exceeds the {MAX_FRAME}-byte wire limit; \
             transfer large tables in parts",
            out.len()
        ))));
    }
    let out = envelope(out);
    // Cache the (possibly substituted) encoded reply *before* it is
    // written: a connection drop between apply and reply then replays
    // byte-identically. The client's ack (its lowest in-flight seq)
    // releases window entries it can never replay again.
    if seq != 0 {
        inner.last_applied = inner.last_applied.max(seq);
        inner.acked_floor = inner.acked_floor.max(ack.min(seq));
        let keep = inner.acked_floor;
        let mut released = 0u64;
        while let Some(entry) = inner.responses.first_entry() {
            if *entry.key() >= keep {
                break;
            }
            released += entry.remove().map_or(0, |b| b.len()) as u64;
        }
        inner.responses.insert(seq, Some(out.clone()));
        drop(inner);
        ctx.replay_bytes.fetch_sub(released, Ordering::Relaxed);
        ctx.replay_bytes
            .fetch_add(out.len() as u64, Ordering::Relaxed);
        enforce_replay_budget(ctx, sess.token);
    }
    out
}

/// Bring the total bytes held across sessions' replay caches back under
/// the budget by evicting *other* sessions' cached replies — never the
/// in-flight session's, whose entry is exactly the one a reconnect would
/// need next. A session whose reply alone exceeds the budget therefore
/// keeps it; the bound is enforced against accumulation across sessions.
fn enforce_replay_budget(ctx: &Arc<ServerContext>, keep_token: u64) {
    if ctx.replay_bytes.load(Ordering::Relaxed) <= ctx.replay_budget {
        return;
    }
    let victims: Vec<Arc<SessionState>> = ctx.sessions.lock().values().cloned().collect();
    for sess in victims {
        if ctx.replay_bytes.load(Ordering::Relaxed) <= ctx.replay_budget {
            return;
        }
        if sess.token == keep_token {
            continue;
        }
        // `try_lock`: a session busy applying its own request is about to
        // overwrite its cache anyway; skipping it avoids any lock-order
        // deadlock between two sessions evicting each other.
        let Some(mut inner) = sess.inner.try_lock() else {
            continue;
        };
        let mut len = 0u64;
        for v in inner.responses.values_mut() {
            if let Some(bytes) = v.take() {
                len += bytes.len() as u64;
            }
        }
        if len == 0 {
            continue;
        }
        drop(inner);
        ctx.replay_bytes.fetch_sub(len, Ordering::Relaxed);
        ctx.replay_evictions.fetch_add(1, Ordering::Relaxed);
    }
}

/// Background reclaimer: a session detached for longer than the grace
/// period is removed — its active jobs are cancelled, its split handles
/// freed, and the `jb_` temp tables it created over the wire dropped.
fn sweep_sessions(ctx: &Arc<ServerContext>) {
    let now = Instant::now();
    let expired: Vec<Arc<SessionState>> = {
        let mut sessions = ctx.sessions.lock();
        let tokens: Vec<u64> = sessions
            .iter()
            .filter(|(_, s)| {
                let inner = s.inner.lock();
                inner.conn_gen.is_none()
                    && inner
                        .detached_at
                        .is_some_and(|t| now.duration_since(t) >= ctx.grace)
            })
            .map(|(&t, _)| t)
            .collect();
        tokens.iter().filter_map(|t| sessions.remove(t)).collect()
    };
    for sess in expired {
        let temps = {
            let mut inner = sess.inner.lock();
            inner.splits.clear();
            // The session's replay window dies with it: release its bytes
            // from the global budget.
            let cached: u64 = inner
                .responses
                .values()
                .map(|v| v.as_ref().map_or(0, |b| b.len() as u64))
                .sum();
            inner.responses.clear();
            ctx.replay_bytes.fetch_sub(cached, Ordering::Relaxed);
            std::mem::take(&mut inner.temp_tables)
        };
        for name in temps {
            let _ = ShardTransport::drop_table(&ctx.db, &name);
        }
        let owned: Vec<Arc<JobHandle>> = ctx
            .jobs
            .lock()
            .values()
            // Recovered jobs carry owner 0 and belong to no session; they
            // outlive every session expiry.
            .filter(|j| j.owner != 0 && j.owner == sess.token && j.progress.lock().is_active())
            .cloned()
            .collect();
        let cancelled = !owned.is_empty();
        for job in owned {
            cancel_job(&job);
        }
        if cancelled {
            persist_jobs(ctx);
        }
    }
}

/// Spawn the session-expiry sweeper; ticks every 25ms until shutdown.
pub(super) fn spawn_sweeper(ctx: Arc<ServerContext>) -> std::thread::JoinHandle<()> {
    std::thread::spawn(move || {
        while !ctx.shutdown.load(Ordering::Relaxed) {
            std::thread::sleep(Duration::from_millis(25));
            sweep_sessions(&ctx);
        }
    })
}
