//! What [`RemoteConnection`] does when its socket dies: the
//! [`RetryPolicy`] and the shared reconnect-and-replay pass.

use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use super::mux::{envelope, Slot};
use super::{connect_and_hello, RemoteConnection};
use crate::backend::wire::write_frame;

/// How a [`RemoteConnection`] handles transport errors: how many times to
/// reconnect-and-replay, and how the backoff between attempts grows.
///
/// The default is a modest retrying policy; [`RetryPolicy::none()`]
/// restores strict fail-fast (first transport error poisons the
/// connection immediately), which the kill/stall fault tests rely on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Reconnect attempts after the first failure (0 = fail fast).
    pub max_retries: u32,
    /// Backoff before the first retry; doubles per attempt.
    pub base_backoff: Duration,
    /// Cap on the (pre-jitter) backoff.
    pub max_backoff: Duration,
    /// Uniform jitter fraction in `[0, 1]`: each backoff is scaled by a
    /// factor drawn from `1 ± jitter`, decorrelating a fleet of clients
    /// that failed together.
    pub jitter: f64,
}

impl RetryPolicy {
    /// Fail fast: no reconnects, the first transport error poisons the
    /// connection.
    pub fn none() -> RetryPolicy {
        RetryPolicy {
            max_retries: 0,
            base_backoff: Duration::ZERO,
            max_backoff: Duration::ZERO,
            jitter: 0.0,
        }
    }

    /// Backoff before retry number `attempt` (1-based): exponential from
    /// `base_backoff`, capped at `max_backoff`, jittered.
    fn backoff(&self, attempt: u32) -> Duration {
        let exp = attempt.saturating_sub(1).min(20);
        let base = self.base_backoff.as_secs_f64() * (1u64 << exp) as f64;
        let capped = base.min(self.max_backoff.as_secs_f64());
        let factor = if self.jitter > 0.0 {
            let unit = (entropy64() >> 11) as f64 / (1u64 << 53) as f64; // [0, 1)
            1.0 + self.jitter * (2.0 * unit - 1.0)
        } else {
            1.0
        };
        Duration::from_secs_f64((capped * factor).max(0.0))
    }
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 4,
            base_backoff: Duration::from_millis(50),
            max_backoff: Duration::from_secs(2),
            jitter: 0.2,
        }
    }
}

/// Process-unique 64-bit values for resume tokens and backoff jitter:
/// wall clock ⊕ pid ⊕ a counter, through a SplitMix64 finalizer. Not
/// cryptographic — collisions just alias two sessions, and only within
/// one server's grace window.
fn entropy64() -> u64 {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let t = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_nanos() as u64);
    let x = t
        ^ ((std::process::id() as u64) << 32)
        ^ COUNTER.fetch_add(0x9e37_79b9_7f4a_7c15, Ordering::Relaxed);
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A fresh, nonzero session resume token.
pub(super) fn fresh_token() -> u64 {
    entropy64() | 1
}

impl RemoteConnection {
    /// Shared reconnect-and-replay. Exactly one thread runs this at a
    /// time: it tears down the socket of `generation` (unblocking any
    /// parked reader), then under the [`RetryPolicy`] reconnects,
    /// re-presents the resume token, and replays every request still
    /// waiting — in seq order, with fresh acks. The server's replay
    /// window turns re-delivery into exactly-once. An exhausted budget
    /// poisons the connection and fails every waiter with the last
    /// transport error.
    pub(super) fn recover(&self, generation: u64, err: io::Error) {
        {
            let mut mux = self.mux.lock();
            if mux.generation != generation || mux.recovering {
                // The failure is from a socket generation someone else
                // already recovered past (or is recovering right now).
                return;
            }
            mux.recovering = true;
            mux.generation += 1;
            if let Some(s) = mux.stream.take() {
                // A reader parked on the dead socket returns immediately
                // once it is shut down.
                let _ = s.shutdown(std::net::Shutdown::Both);
            }
        }
        let retry = self.opts.retry;
        let mut last_err = err;
        for attempt in 1..=retry.max_retries {
            self.retries.fetch_add(1, Ordering::Relaxed);
            std::thread::sleep(retry.backoff(attempt));
            let (mut stream, sent, received) =
                match connect_and_hello(&self.addr, &self.opts, self.token) {
                    Ok((stream, _, sent, received)) => (stream, sent, received),
                    Err(e) => {
                        last_err = e;
                        continue; // reconnect failed: spend another attempt
                    }
                };
            self.bytes_sent.fetch_add(sent, Ordering::Relaxed);
            self.bytes_received.fetch_add(received, Ordering::Relaxed);
            // Install the socket and snapshot the replays in one
            // critical section: requests registered later see the live
            // stream and send themselves. (A request that does both is
            // delivered twice; the server's window and the reader's
            // resolved-slot check both drop the duplicate.)
            let replays: Vec<Vec<u8>> = {
                let mut mux = self.mux.lock();
                match stream.try_clone() {
                    Ok(s) => mux.stream = Some(s),
                    Err(e) => {
                        last_err = e;
                        continue;
                    }
                }
                let ack = mux.inflight.keys().next().copied();
                mux.inflight
                    .iter()
                    .filter(|(_, p)| matches!(p.slot, Slot::Waiting))
                    .map(|(&s, p)| envelope(s, ack.unwrap_or(s), &p.body))
                    .collect()
            };
            self.cv.notify_all();
            let mut replay_err = None;
            for payload in &replays {
                let written = {
                    let _w = self.wlock.lock();
                    write_frame(&mut stream, payload)
                };
                match written {
                    Ok(n) => {
                        self.bytes_sent.fetch_add(n as u64, Ordering::Relaxed);
                    }
                    Err(e) => {
                        replay_err = Some(e);
                        break;
                    }
                }
            }
            match replay_err {
                None => {
                    self.mux.lock().recovering = false;
                    self.cv.notify_all();
                    return;
                }
                Some(e) => {
                    // The freshly installed socket died too: reclaim it
                    // (we still hold `recovering`, so nobody else can
                    // race a competing recovery) and spend another
                    // attempt.
                    last_err = e;
                    let mut mux = self.mux.lock();
                    mux.generation += 1;
                    if let Some(s) = mux.stream.take() {
                        let _ = s.shutdown(std::net::Shutdown::Both);
                    }
                }
            }
        }
        // Budget exhausted: poison and fail every waiter at once.
        let why = if retry.max_retries == 0 {
            last_err.to_string()
        } else {
            format!(
                "{last_err} (after {} reconnect attempts)",
                retry.max_retries
            )
        };
        let mut mux = self.mux.lock();
        {
            let mut p = self.poisoned.lock();
            if p.is_none() {
                *p = Some(why.clone());
            }
        }
        for p in mux.inflight.values_mut() {
            if matches!(p.slot, Slot::Waiting) {
                p.slot = Slot::Failed(why.clone());
            }
        }
        mux.recovering = false;
        drop(mux);
        self.cv.notify_all();
    }
}
