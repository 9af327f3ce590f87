//! The multiplexer under [`RemoteConnection`]: in-flight slots keyed by
//! sequence number, the enveloped frame writer, and the leader/follower
//! reader that deposits replies for every waiting caller.

use std::collections::BTreeMap;
use std::net::TcpStream;
use std::sync::atomic::Ordering;

use super::RemoteConnection;
use crate::backend::wire::{read_frame, write_frame};

/// The multiplexer state behind [`RemoteConnection::mux`].
pub(super) struct MuxState {
    /// The live socket, or `None` while recovery is rebuilding it (and
    /// forever after poisoning). Senders and the reader work on
    /// `try_clone`d handles, so nothing blocks while holding the lock.
    pub(super) stream: Option<TcpStream>,
    /// Monotone request sequence numbers, starting at 1.
    pub(super) next_seq: u64,
    /// Every request that has not yet resolved, keyed by seq. The entry
    /// keeps the *unenveloped* request body so a reconnect can replay it
    /// with a fresh ack.
    pub(super) inflight: BTreeMap<u64, Pending>,
    /// A thread currently owns the reader role (is blocked reading reply
    /// frames). At most one at a time.
    pub(super) reading: bool,
    /// Bumped on every reconnect. A thread that hits an I/O error on a
    /// socket of an older generation knows someone else already
    /// recovered past that failure and must not recover again.
    pub(super) generation: u64,
    /// A thread is inside [`RemoteConnection::recover`] (backoff,
    /// reconnect, replay). At most one at a time.
    pub(super) recovering: bool,
}

/// One in-flight request: its body (kept for reconnect replay) and the
/// slot its reply lands in.
pub(super) struct Pending {
    pub(super) body: Vec<u8>,
    pub(super) slot: Slot,
}

/// Completion state of an in-flight request.
pub(super) enum Slot {
    /// No reply yet; on reconnect the request is replayed.
    Waiting,
    /// The reply's encoded `Response` bytes (seq envelope stripped).
    Ready(Vec<u8>),
    /// The connection died and the retry budget is spent.
    Failed(String),
}

/// `[u64 seq][u64 ack][body]` — the request envelope.
pub(super) fn envelope(seq: u64, ack: u64, body: &[u8]) -> Vec<u8> {
    let mut payload = Vec::with_capacity(body.len() + 16);
    payload.extend_from_slice(&seq.to_le_bytes());
    payload.extend_from_slice(&ack.to_le_bytes());
    payload.extend_from_slice(body);
    payload
}

impl RemoteConnection {
    /// Envelope and write in-flight request `seq`. The ack — the lowest
    /// seq still in flight — is computed at write time, so every frame
    /// (including recovery replays) carries the freshest window release.
    /// A write failure routes into [`RemoteConnection::recover`]; a
    /// `None` stream means recovery is already rebuilding the socket and
    /// its replay pass owns delivery of this request.
    pub(super) fn send(&self, seq: u64) {
        let (payload, stream, generation) = {
            let mux = self.mux.lock();
            let Some(stream) = mux.stream.as_ref() else {
                return;
            };
            let Some(p) = mux.inflight.get(&seq) else {
                return;
            };
            let ack = *mux.inflight.keys().next().expect("inflight holds seq");
            let stream = match stream.try_clone() {
                Ok(s) => s,
                Err(e) => {
                    let generation = mux.generation;
                    drop(mux);
                    self.recover(generation, e);
                    return;
                }
            };
            (envelope(seq, ack, &p.body), stream, mux.generation)
        };
        let mut stream = stream;
        let written = {
            let _w = self.wlock.lock();
            write_frame(&mut stream, &payload)
        };
        match written {
            Ok(n) => {
                self.bytes_sent.fetch_add(n as u64, Ordering::Relaxed);
            }
            Err(e) => self.recover(generation, e),
        }
    }

    /// Block until in-flight request `seq` resolves, taking the reader
    /// role whenever it is free (leader/follower: exactly one waiter
    /// reads, deposits every reply it sees, and hands off).
    pub(super) fn await_reply(&self, seq: u64) -> Result<Vec<u8>, String> {
        let mut mux = self.mux.lock();
        loop {
            match mux.inflight.get(&seq).map(|p| &p.slot) {
                Some(Slot::Waiting) => {}
                None => {
                    // Unreachable: only this thread removes its entry.
                    return Err(format!("in-flight slot for seq {seq} vanished"));
                }
                Some(_) => {
                    let p = mux.inflight.remove(&seq).expect("just matched");
                    return match p.slot {
                        Slot::Ready(bytes) => Ok(bytes),
                        Slot::Failed(why) => Err(why),
                        Slot::Waiting => unreachable!("matched resolved slot"),
                    };
                }
            }
            if !mux.reading && !mux.recovering && mux.stream.is_some() {
                let generation = mux.generation;
                match mux.stream.as_ref().expect("checked is_some").try_clone() {
                    Ok(stream) => {
                        mux.reading = true;
                        drop(mux);
                        self.read_until(seq, stream, generation);
                    }
                    Err(e) => {
                        drop(mux);
                        self.recover(generation, e);
                    }
                }
                mux = self.mux.lock();
                continue;
            }
            mux = self.cv.wait(mux);
        }
    }

    /// The reader role: drain reply frames — depositing each into its
    /// in-flight slot by seq — until our own request `seq` resolves, the
    /// socket dies (routes into recovery), or a reconnect makes this
    /// socket generation stale. Clears `reading` and wakes all waiters
    /// on every exit path.
    fn read_until(&self, seq: u64, mut stream: TcpStream, generation: u64) {
        loop {
            match read_frame(&mut stream) {
                Ok(frame) => {
                    self.bytes_received
                        .fetch_add(frame.len() as u64 + 4, Ordering::Relaxed);
                    let mut mux = self.mux.lock();
                    if frame.len() >= 8 {
                        let rseq = u64::from_le_bytes(frame[..8].try_into().expect("8 bytes"));
                        if let Some(p) = mux.inflight.get_mut(&rseq) {
                            if matches!(p.slot, Slot::Waiting) {
                                p.slot = Slot::Ready(frame[8..].to_vec());
                            }
                        }
                        // An unknown or already-resolved seq is a
                        // duplicate delivery (a reconnect replay raced
                        // the original reply): drop it.
                    }
                    let mine =
                        !matches!(mux.inflight.get(&seq).map(|p| &p.slot), Some(Slot::Waiting));
                    if mine || mux.generation != generation {
                        // Hand the role off: either our reply landed or
                        // recovery replaced the socket (its replay
                        // re-delivers anything still buffered here).
                        mux.reading = false;
                        drop(mux);
                        self.cv.notify_all();
                        return;
                    }
                    drop(mux);
                    self.cv.notify_all();
                }
                Err(e) => {
                    self.mux.lock().reading = false;
                    self.cv.notify_all();
                    self.recover(generation, e);
                    return;
                }
            }
        }
    }
}
