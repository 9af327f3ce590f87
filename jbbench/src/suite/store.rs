//! One fresh deployment per repetition: the engine a training workload
//! runs against, with whatever it needs around it (a scratch directory, a
//! pair of `shard_server` children). Training mutates the fact table, so
//! a store is never reused: every repetition opens one and loads it.

use std::path::Path;
use std::sync::Arc;

use joinboost::backend::{
    EngineBackend, RemoteConnection, RemoteOptions, ShardTransport, ShardedBackend, SqlBackend,
};
use joinboost_engine::{Database, EngineConfig};

use crate::data::Star;
use crate::procs::{shard_server_bin, ScratchDir, ShardServerProc};
use crate::timed::TimedTransport;
use crate::trace::Recorder;

/// Where a training workload's data lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreKind {
    /// `EngineBackend::in_memory()`.
    Mem,
    /// `EngineConfig::paged(dir)` with the library's defaults: a 256-page
    /// (1 MiB) Clock pool, commit-fsynced WAL, 64 MiB checkpoint budget.
    Paged,
    /// `ShardedBackend` over spawned in-memory `shard_server` processes,
    /// `RemoteOptions::default()`, `PushdownConfig::default()`.
    Remote,
}

/// Number of `shard_server` processes behind `remote_highcard`. Two, not
/// four: five busy processes on two cores would measure the scheduler.
pub const SHARDS: usize = 2;

enum Backend {
    Engine(Box<EngineBackend>),
    Sharded(Box<ShardedBackend>),
}

/// A deployment. Fields drop in order: the backend closes its files and
/// sockets before the children are killed and the directory removed.
pub struct Store {
    backend: Backend,
    /// The shard connections, shared with the transports inside the
    /// backend; only a traced remote store keeps them.
    conns: Vec<Arc<RemoteConnection>>,
    servers: Vec<ShardServerProc>,
    scratch: Option<ScratchDir>,
}

impl Store {
    /// Bring up an empty deployment. With a recorder, a remote store
    /// talks to its shards through [`TimedTransport`]s.
    pub fn open(
        kind: StoreKind,
        star: &Star,
        out_dir: &Path,
        recorder: Option<&Arc<Recorder>>,
    ) -> Result<Store, String> {
        match kind {
            StoreKind::Mem => Ok(Store {
                backend: Backend::Engine(Box::new(EngineBackend::in_memory())),
                conns: Vec::new(),
                servers: Vec::new(),
                scratch: None,
            }),
            StoreKind::Paged => {
                let scratch = ScratchDir::new(out_dir, "paged")?;
                let db = EngineBackend::new(EngineConfig::paged(scratch.path()));
                Ok(Store {
                    backend: Backend::Engine(Box::new(db)),
                    conns: Vec::new(),
                    servers: Vec::new(),
                    scratch: Some(scratch),
                })
            }
            StoreKind::Remote => {
                let bin = shard_server_bin()?;
                let servers: Vec<ShardServerProc> = (0..SHARDS)
                    .map(|_| ShardServerProc::spawn(&bin))
                    .collect::<Result<_, _>>()?;
                let addrs: Vec<_> = servers.iter().map(ShardServerProc::addr).collect();
                let config = EngineConfig::duckdb_mem();
                let (backend, conns) = match recorder {
                    None => (
                        ShardedBackend::remote(
                            &addrs,
                            config,
                            star.fact,
                            star.key,
                            RemoteOptions::default(),
                        )
                        .map_err(|e| e.to_string())?,
                        Vec::new(),
                    ),
                    Some(rec) => {
                        // What `ShardedBackend::remote` does, with a timed
                        // wrapper around each connection.
                        let opts = RemoteOptions::default();
                        let conns: Vec<Arc<RemoteConnection>> = addrs
                            .iter()
                            .map(|a| {
                                RemoteConnection::builder(a)
                                    .connect_timeout(opts.connect_timeout)
                                    .io_timeout(opts.io_timeout)
                                    .retry(opts.retry)
                                    .connect()
                                    .map(Arc::new)
                            })
                            .collect::<Result<_, _>>()
                            .map_err(|e| e.to_string())?;
                        let transports = conns
                            .iter()
                            .enumerate()
                            .map(|(i, c)| {
                                Box::new(TimedTransport::new(c.clone(), i, rec.clone()))
                                    as Box<dyn ShardTransport>
                            })
                            .collect();
                        (
                            ShardedBackend::from_transports(
                                transports,
                                config,
                                format!("remote x{SHARDS}"),
                                star.fact,
                                star.key,
                            ),
                            conns,
                        )
                    }
                };
                Ok(Store {
                    backend: Backend::Sharded(Box::new(backend)),
                    conns,
                    servers,
                    scratch: None,
                })
            }
        }
    }

    /// The backend training runs against.
    pub fn backend(&self) -> &dyn SqlBackend {
        match &self.backend {
            Backend::Engine(b) => b.as_ref(),
            Backend::Sharded(b) => b.as_ref(),
        }
    }

    /// The in-process engine of this deployment: the whole store for the
    /// single-node kinds, the coordinator for the sharded one.
    pub fn engine(&self) -> &Database {
        match &self.backend {
            Backend::Engine(b) => b.database(),
            Backend::Sharded(b) => b.coordinator(),
        }
    }

    /// The paged store's directory.
    pub fn scratch(&self) -> Option<&ScratchDir> {
        self.scratch.as_ref()
    }

    /// Shard connections of a traced remote store.
    pub fn conns(&self) -> &[Arc<RemoteConnection>] {
        &self.conns
    }

    /// Load every table of the star, in order.
    pub fn load(backend: &dyn SqlBackend, star: &Star) -> Result<(), String> {
        for (name, table) in &star.tables {
            backend
                .create_table(name, table.clone())
                .map_err(|e| format!("load {name}: {e}"))?;
        }
        Ok(())
    }

    /// Peak resident memory of the children so far, summed, in KiB.
    pub fn children_peak_rss_kib(&self) -> Result<u64, String> {
        self.servers.iter().map(ShardServerProc::peak_rss_kib).sum()
    }

    /// Bytes this deployment holds right now, wherever they live: files
    /// in the paged store's directory; the engine's own table sizes in
    /// memory; and for each shard server the raw size of every table it
    /// holds (a server's stored size cannot be asked for over the wire,
    /// so its tables are fetched and measured).
    pub fn held_bytes(&self) -> Result<u64, String> {
        if let Some(scratch) = &self.scratch {
            return scratch.bytes_on_disk();
        }
        let engine = self.engine();
        let mut total = 0u64;
        for name in engine.table_names() {
            total += engine.table_byte_size(&name).map_err(|e| e.to_string())? as u64;
        }
        for server in &self.servers {
            total += server_held_bytes(&server.addr().to_string())?;
        }
        Ok(total)
    }

    /// Take the paged store apart for the crash-and-reopen check: the
    /// engine is dropped (closing its files), the directory survives.
    pub fn into_scratch(self) -> Option<ScratchDir> {
        let Store {
            backend, scratch, ..
        } = self;
        drop(backend);
        scratch
    }
}

/// Raw bytes of every table a shard server holds, over a connection of
/// our own.
pub fn server_held_bytes(addr: &str) -> Result<u64, String> {
    let conn = RemoteConnection::builder(addr)
        .connect()
        .map_err(|e| e.to_string())?;
    let mut total = 0u64;
    for name in conn.table_names().map_err(|e| e.to_string())? {
        total += conn.snapshot(&name).map_err(|e| e.to_string())?.byte_size() as u64;
    }
    Ok(total)
}
