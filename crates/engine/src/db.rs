//! The database: catalog, configuration and statement execution.

use std::borrow::Cow;
use std::collections::{HashMap, VecDeque};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, MutexGuard, RwLock, RwLockReadGuard};

use joinboost_sql::ast::{Expr, Statement};
use joinboost_sql::parse_statement;

use crate::column::Column;
use crate::error::{EngineError, Result};
use crate::expr::{CaseMerge, EvalContext};
use crate::interop::ExternalTable;
use crate::plan::{bind, names_read, Op, Plan};
use crate::storage::{BufferPoolStats, PageChain, PagedStore, StoredColumn};
use crate::table::{ColumnMeta, Table};
use crate::wal::{self, ColumnRef, LoggedColumn, Wal};

/// Columnar vs row-oriented execution (the paper's `X-col` vs `X-row`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecMode {
    /// Whole-column vectorized evaluation.
    Columnar,
    /// Tuple-at-a-time evaluation.
    Row,
}

/// Engine configuration. The named constructors correspond to the DBMS
/// backends of the paper's evaluation (Section 6.3, Figure 15).
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Columnar vs row execution.
    pub exec: ExecMode,
    /// Write-ahead logging of updates and created tables. Without a
    /// `storage_path` the log is a per-database temp file, removed when
    /// the database drops.
    pub wal: bool,
    /// MVCC-style versioning: updates first deep-copy the before-image of
    /// each touched column into an undo buffer (a real copy, never a share
    /// of the stored buffer, counted by `DbStats::undo_bytes`).
    pub mvcc: bool,
    /// Hold each RAM-resident column as its run-length codec image when
    /// that is smaller (chosen per column at every store); `false` never
    /// encodes. A scan decodes an encoded column, and an `UPDATE` encodes
    /// only the columns it assigns. This governs the in-memory catalog
    /// only: pages and the WAL always bit-pack Int columns where that is
    /// smaller.
    pub compression: bool,
    /// Whether the `SWAP COLUMN` extension is available (`D-Swap`).
    pub allow_swap: bool,
    /// Directory of the paged (out-of-core) store. `None` keeps tables
    /// RAM-resident (the untouched fast default); `Some(dir)` stores
    /// every table as fixed-size page chains in `dir/data.jbp`, scanned
    /// through a capacity-bounded buffer pool, with commit-fsynced WAL
    /// replay restoring committed tables on reopen (crash recovery).
    pub storage_path: Option<PathBuf>,
    /// Buffer-pool capacity in pages (paged mode; minimum 1).
    pub bufferpool_pages: usize,
    /// Spill grouped-aggregation state to disk when the estimated
    /// accumulator-bank footprint exceeds this many bytes (paged mode
    /// only; the group-id space is sliced so results stay bit-identical).
    pub agg_spill_bytes: usize,
    /// Automatic checkpoint budget (paged mode only): once the WAL has
    /// logged this many bytes since the last checkpoint, the next
    /// statement boundary compacts it ([`Database::checkpoint`]), so the
    /// log past its base stays bounded by `checkpoint_bytes` plus one
    /// statement. `None` disables automatic checkpoints
    /// ([`Database::checkpoint`] can still be called manually).
    pub checkpoint_bytes: Option<u64>,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self::duckdb_mem()
    }
}

impl EngineConfig {
    /// `D-mem`: in-memory columnar engine, MVCC + compression, no WAL.
    pub fn duckdb_mem() -> Self {
        EngineConfig {
            exec: ExecMode::Columnar,
            wal: false,
            mvcc: true,
            compression: true,
            allow_swap: false,
            storage_path: None,
            bufferpool_pages: 256,
            agg_spill_bytes: 64 << 20,
            checkpoint_bytes: None,
        }
    }

    /// `D-disk`: disk-backed columnar engine (WAL on writes).
    pub fn duckdb_disk() -> Self {
        EngineConfig {
            wal: true,
            ..Self::duckdb_mem()
        }
    }

    /// `X-col`: commercial column store — disk-based, aggressive
    /// compression, WAL and versioning.
    pub fn dbms_x_col() -> Self {
        Self::duckdb_disk()
    }

    /// `X-row`: commercial row store — row execution, no columnar
    /// compression, WAL and versioning.
    pub fn dbms_x_row() -> Self {
        EngineConfig {
            exec: ExecMode::Row,
            compression: false,
            ..Self::duckdb_disk()
        }
    }

    /// `D-Swap`: in-memory columnar engine with the column-swap extension.
    pub fn d_swap() -> Self {
        EngineConfig {
            allow_swap: true,
            ..Self::duckdb_mem()
        }
    }

    /// Paged (out-of-core) engine rooted at `dir`: tables live as page
    /// chains on disk behind a pinning buffer pool, every write statement
    /// is WAL-logged and commit-fsynced, and reopening the same directory
    /// recovers all committed tables by replaying the log. Results are
    /// bit-identical to [`EngineConfig::duckdb_mem`] at any pool size.
    /// In-memory RLE compression and MVCC are off: tables share the page
    /// chains of the columns they have in common, and the WAL logs each
    /// new column's image once, so a column a statement passes through
    /// costs no page writes and only a reference in the log. Pages and
    /// log records store each Int column bit-packed at its value width
    /// when that is smaller. Tune `bufferpool_pages` and
    /// `agg_spill_bytes` with struct-update syntax.
    pub fn paged(dir: impl Into<PathBuf>) -> Self {
        EngineConfig {
            wal: true,
            mvcc: false,
            compression: false,
            storage_path: Some(dir.into()),
            checkpoint_bytes: Some(64 << 20),
            ..Self::duckdb_mem()
        }
    }
}

/// Execution statistics (observable costs of the DBMS mechanisms).
#[derive(Debug, Clone, Default)]
pub struct DbStats {
    /// `SELECT`/`CREATE TABLE AS` queries executed.
    pub queries: u64,
    /// Total statements executed (queries included).
    pub statements: u64,
    /// Bytes appended to the write-ahead log since the last checkpoint.
    pub wal_bytes: u64,
    /// Records appended to the write-ahead log since the last checkpoint.
    pub wal_records: u64,
    /// Bytes of MVCC before-images copied into the undo buffer.
    pub undo_bytes: u64,
    /// Number of MVCC before-images recorded.
    pub undo_versions: u64,
    /// Bytes deep-copied from external (dataframe) storage on scans.
    pub interop_bytes_copied: u64,
    /// Bytes written through the compression path.
    pub compressed_bytes_written: u64,
    /// `SWAP COLUMN` statements executed.
    pub swaps: u64,
    /// Checkpoints taken (manual + automatic).
    pub checkpoints: u64,
    /// Bytes of the bases checkpoints wrote (see [`Database::checkpoint`]).
    pub checkpoint_bytes_written: u64,
}

enum Stored {
    /// A catalog table, each column in the form `StoredColumn::store` chose.
    Table {
        meta: Vec<ColumnMeta>,
        columns: Vec<StoredColumn>,
    },
    External(Arc<ExternalTable>),
}

impl Stored {
    fn rows(&self) -> usize {
        match self {
            Stored::Table { columns, .. } => columns.first().map_or(0, |c| c.shape().0),
            Stored::External(e) => e.num_rows(),
        }
    }
}

/// Index of the first column named `name` (case-insensitive).
fn column_index(meta: &[ColumnMeta], name: &str) -> Result<usize> {
    (meta.iter())
        .position(|m| m.name.eq_ignore_ascii_case(name))
        .ok_or_else(|| EngineError::UnknownColumn(name.to_string()))
}

/// Cap on retained MVCC before-images (older versions are garbage
/// collected, as a real MVCC engine eventually does).
const UNDO_CAP_BYTES: usize = 64 << 20;

/// Stored tables by lower-case name.
type Catalog = HashMap<String, Stored>;

/// An embedded SQL database.
pub struct Database {
    config: EngineConfig,
    /// Changed only under `wal`'s lock, so a statement that checks it
    /// under that lock writes into the tables it checked.
    catalog: RwLock<Catalog>,
    wal: Mutex<Wal>,
    undo: Mutex<UndoLog>,
    stats: Mutex<DbStats>,
    /// The paged store (out-of-core mode only).
    storage: Option<PagedStore>,
    /// The temp-dir log file of a non-paged database with `wal: true`,
    /// removed on drop.
    temp_wal: Option<PathBuf>,
    /// Checkpoint vs writer exclusion: every write statement holds a read
    /// guard while it logs + applies; a checkpoint takes the write guard,
    /// so its snapshot always sits on a statement boundary.
    write_gate: RwLock<()>,
}

#[derive(Default)]
struct UndoLog {
    versions: VecDeque<(String, Column)>,
    bytes: usize,
}

impl Database {
    /// Open a database with the given configuration, panicking on storage
    /// errors — only possible in paged mode; use [`Database::open`] to
    /// handle them.
    pub fn new(config: EngineConfig) -> Database {
        Database::open(config).unwrap_or_else(|e| panic!("failed to open database: {e}"))
    }

    /// Open a database with the given configuration. For paged
    /// configurations this opens (or creates) the storage directory and
    /// replays the WAL's committed prefix, restoring every committed
    /// table — crash recovery. Non-paged configurations cannot fail.
    pub fn open(config: EngineConfig) -> Result<Database> {
        // Each database gets its own log file: the pid keeps processes
        // apart, the counter keeps this process's databases apart.
        static NEXT_WAL: AtomicU64 = AtomicU64::new(0);
        let (catalog, wal, storage, temp_wal) = match &config.storage_path {
            Some(dir) => {
                let (catalog, wal, store) = Self::open_paged(dir, config.bufferpool_pages)?;
                (catalog, wal, Some(store), None)
            }
            None if config.wal => {
                let path = std::env::temp_dir().join(format!(
                    "jb_wal_{}_{}.log",
                    std::process::id(),
                    NEXT_WAL.fetch_add(1, Ordering::Relaxed)
                ));
                match Wal::open(&path) {
                    Ok(wal) => (HashMap::new(), wal, None, Some(path)),
                    Err(_) => (HashMap::new(), Wal::disabled(), None, None),
                }
            }
            None => (HashMap::new(), Wal::disabled(), None, None),
        };
        Ok(Database {
            config,
            catalog: RwLock::new(catalog),
            wal: Mutex::new(wal),
            undo: Mutex::default(),
            stats: Mutex::default(),
            storage,
            temp_wal,
            write_gate: RwLock::new(()),
        })
    }

    /// Open the paged engine: create the directory, replay the WAL's
    /// committed prefix into the (fresh) page file, then reopen the log
    /// for appending with fsync-on-commit enabled.
    fn open_paged(dir: &Path, pool_pages: usize) -> Result<(Catalog, Wal, PagedStore)> {
        let store = PagedStore::open(dir, pool_pages)?;
        let mut tables = HashMap::new();
        let replayed = wal::recover(dir, &mut tables)?;
        // A buffer that replay shared between tables is stored once, as a
        // chain those tables share (see `PagedStore::store_column`).
        let mut catalog = HashMap::new();
        for (name, table) in tables {
            let columns = (table.columns.iter())
                .map(|c| StoredColumn::store(c, false, Some(&store)))
                .collect::<Result<_>>()?;
            let meta = table.meta;
            catalog.insert(name, Stored::Table { meta, columns });
        }
        let mut wal = Wal::open_append(&dir.join(wal::LOG_FILE), replayed)?;
        // The latent `sync = false` default would leave commit records in
        // OS buffers; the paged engine's durability contract is that a
        // committed statement survives a crash, so fsync on commit.
        wal.sync = true;
        Ok((catalog, wal, store))
    }

    /// In-memory columnar database with default (DuckDB-like) settings.
    pub fn in_memory() -> Database {
        Database::new(EngineConfig::duckdb_mem())
    }

    /// The configuration this database was opened with.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Snapshot of the execution statistics.
    pub fn stats(&self) -> DbStats {
        let mut s = self.stats.lock().clone();
        let wal = self.wal.lock();
        s.wal_bytes = wal.bytes_logged;
        s.wal_records = wal.records;
        s
    }

    /// Buffer-pool counters (paged mode only).
    pub fn bufferpool_stats(&self) -> Option<BufferPoolStats> {
        self.storage.as_ref().map(|s| s.pool().stats())
    }

    /// Test hook: simulate a process crash — WAL bytes the OS never
    /// acknowledged as durable are discarded, exactly as a power loss
    /// would, leaving the log at its last-fsynced length. The in-memory
    /// catalog is untouched; reopen the directory to see what survived.
    pub fn simulate_crash(&self) -> Result<()> {
        self.wal.lock().simulate_crash()
    }

    /// Spill destination and budget for grouped aggregation (paged mode).
    pub(crate) fn spill_target(&self) -> Option<(&PagedStore, usize)> {
        (self.storage.as_ref()).map(|s| (s, self.config.agg_spill_bytes))
    }

    /// Checkpoint the catalog (paged mode only): compact the WAL into a
    /// base, one statement that creates every catalog table in name order,
    /// imaging each page chain once and logging a chain an earlier table
    /// of the base holds as a reference ([`Wal::compact`]). The base is
    /// fsynced and renamed over the log, which then appends past it.
    /// Concurrent write statements are excluded for the duration, so the
    /// base always captures a statement boundary; reads proceed normally.
    /// A crash before the rename recovers the old log, after it the new.
    pub fn checkpoint(&self) -> Result<()> {
        let (Some(store), Some(dir)) = (&self.storage, &self.config.storage_path) else {
            return Err(EngineError::Other(
                "checkpoint requires the paged engine".into(),
            ));
        };
        let _gate = self.write_gate.write();
        // Page-chain metadata is cheap to clone; contents cannot move under
        // the exclusive gate. External tables are deliberately non-durable
        // (they bypass the WAL too), so they stay out of the base.
        let tables: Vec<(String, Vec<ColumnMeta>, Vec<StoredColumn>)> =
            (catalog_tables(&self.catalog.read()).into_iter())
                .map(|(k, meta, columns)| (k.to_string(), meta.to_vec(), columns.to_vec()))
                .collect();
        let bytes = self.wal.lock().compact(dir, |base| {
            let mut held = Holders::new();
            for (name, meta, columns) in &tables {
                let logged = logged_columns(&held, columns, |i| columns[i].load(Some(store)))?;
                base.log_create_table(name, meta, &logged)?;
                hold(&mut held, name, columns);
            }
            Ok(())
        })?;
        let mut stats = self.stats.lock();
        stats.checkpoints += 1;
        stats.checkpoint_bytes_written += bytes;
        Ok(())
    }

    /// Auto-checkpoint trigger, called after each write statement commits
    /// (and after its gate guard is released — [`Database::checkpoint`]
    /// takes the exclusive gate itself).
    fn maybe_checkpoint(&self) -> Result<()> {
        let due = |budget| self.storage.is_some() && self.wal.lock().bytes_logged >= budget;
        match self.config.checkpoint_bytes {
            Some(budget) if due(budget) => self.checkpoint(),
            _ => Ok(()),
        }
    }

    /// Commit the write statement just applied (paged mode: log the
    /// commit record, the fsync that makes it durable), release its log,
    /// the state it replaced and its gate guard, then checkpoint if due.
    fn commit<T>(&self, mut wal: MutexGuard<Wal>, old: T, gate: RwLockReadGuard<()>) -> Result<()> {
        if self.storage.is_some() {
            wal.log_commit()?;
        }
        drop((wal, old, gate));
        self.maybe_checkpoint()
    }

    // ---- programmatic catalog API -----------------------------------------

    /// Register a table built in Rust (bulk load).
    pub fn create_table(&self, name: &str, table: Table) -> Result<()> {
        // Paged engines WAL bulk loads too: recovery must be able to
        // rebuild every committed table from the log alone. (Non-paged
        // disk configs keep the original behavior — bulk loads bypass
        // the WAL, which only models per-statement write costs there.)
        self.install(
            name,
            table,
            false,
            self.storage.is_some() && self.config.wal,
        )
    }

    /// Register a table, replacing any existing table of the same name,
    /// as a *single* WAL-logged statement. Unlike `drop_table` followed
    /// by [`Database::create_table`] — two statements, between which a
    /// crash leaves the table missing — replay of the one `CreateTable`
    /// record overwrites the old image atomically, so recovery sees
    /// either the old table or the new one, never neither. This is the
    /// primitive durable system tables (e.g. a server's job registry)
    /// are rewritten through.
    pub fn create_or_replace_table(&self, name: &str, table: Table) -> Result<()> {
        self.install(name, table, true, self.storage.is_some() && self.config.wal)
    }

    /// Install `table` as `name` — replacing a table of that name only if
    /// `replace` — logged if `log`, as one write statement.
    ///
    /// The table is stored first, so a column that already lives in a chain
    /// shares it. Logging, the catalog change and the commit then happen
    /// under the log's lock: the catalog is the state the log stands at, so
    /// a column whose chain a catalog table holds logs as a reference to it.
    fn install(&self, name: &str, table: Table, replace: bool, log: bool) -> Result<()> {
        let key = name.to_ascii_lowercase();
        let gate = self.write_gate.read();
        let (rle, pages) = (self.config.compression, self.storage.as_ref());
        let columns = (table.columns.iter())
            .map(|c| StoredColumn::store(c, rle, pages))
            .collect::<Result<Vec<_>>>()?;
        let mut wal = self.wal.lock();
        {
            let cat = self.catalog.read();
            if !replace && cat.contains_key(&key) {
                return Err(EngineError::TableExists(name.to_string()));
            }
            if log {
                let mut held = Holders::new();
                for (key, _, held_columns) in catalog_tables(&cat) {
                    hold(&mut held, key, held_columns);
                }
                let logged = logged_columns(&held, &columns, |i| Ok(table.columns[i].clone()))?;
                wal.log_create_table(name, &table.meta, &logged)?;
            }
        }
        self.count_encoded(&columns);
        let meta = table.meta;
        // A replaced table's chains go back to the free list when the last
        // table or scan holding them lets go.
        let old = (self.catalog.write()).insert(key, Stored::Table { meta, columns });
        self.commit(wal, old, gate)
    }

    /// Register (or replace) a table held in external dataframe storage
    /// (the `DP` backend's fact table).
    pub fn register_external(&self, name: &str, table: &Table) {
        let key = name.to_ascii_lowercase();
        let _wal = self.wal.lock();
        self.catalog.write().insert(
            key,
            Stored::External(Arc::new(ExternalTable::from_table(table))),
        );
    }

    /// Access an external table's handle for O(1) column replacement.
    pub fn external(&self, name: &str) -> Result<Arc<ExternalTable>> {
        match self.catalog.read().get(&name.to_ascii_lowercase()) {
            Some(Stored::External(e)) => Ok(Arc::clone(e)),
            Some(_) => Err(EngineError::Other(format!("{name} is not external"))),
            None => Err(EngineError::UnknownTable(name.to_string())),
        }
    }

    /// Remove a table from the catalog.
    pub fn drop_table(&self, name: &str) -> Result<()> {
        let key = name.to_ascii_lowercase();
        let gate = self.write_gate.read();
        let mut wal = self.wal.lock();
        let old = self.catalog.write().remove(&key);
        if old.is_none() {
            return Err(EngineError::UnknownTable(name.to_string()));
        }
        if self.config.wal {
            wal.log_drop_table(name)?;
        }
        self.commit(wal, old, gate)
    }

    /// Does a table with this name exist?
    pub fn has_table(&self, name: &str) -> bool {
        self.catalog.read().contains_key(&name.to_ascii_lowercase())
    }

    /// All table names, sorted.
    pub fn table_names(&self) -> Vec<String> {
        let mut v: Vec<String> = self.catalog.read().keys().cloned().collect();
        v.sort();
        v
    }

    /// Approximate stored size of a table in bytes.
    pub fn table_byte_size(&self, name: &str) -> Result<usize> {
        match self.catalog.read().get(&name.to_ascii_lowercase()) {
            Some(Stored::Table { columns, .. }) => {
                Ok(columns.iter().map(StoredColumn::byte_size).sum())
            }
            Some(Stored::External(e)) => Ok(e.byte_size()),
            None => Err(EngineError::UnknownTable(name.to_string())),
        }
    }

    /// Column names of a table (schema lookup, no data copied).
    pub fn column_names(&self, name: &str) -> Result<Vec<String>> {
        match self.catalog.read().get(&name.to_ascii_lowercase()) {
            Some(Stored::Table { meta, .. }) => Ok(meta.iter().map(|m| m.name.clone()).collect()),
            Some(Stored::External(e)) => Ok(e.column_names().to_vec()),
            None => Err(EngineError::UnknownTable(name.to_string())),
        }
    }

    /// Data type of one column (schema lookup).
    pub fn column_dtype(&self, table: &str, column: &str) -> Result<crate::datum::DataType> {
        match self.catalog.read().get(&table.to_ascii_lowercase()) {
            Some(Stored::Table { meta, columns }) => {
                Ok(columns[column_index(meta, column)?].shape().1)
            }
            Some(Stored::External(e)) => Ok(e.column(column)?.dtype()),
            None => Err(EngineError::UnknownTable(table.to_string())),
        }
    }

    /// Number of rows in a table.
    pub fn row_count(&self, name: &str) -> Result<usize> {
        (self.catalog.read().get(&name.to_ascii_lowercase()))
            .map(Stored::rows)
            .ok_or_else(|| EngineError::UnknownTable(name.to_string()))
    }

    /// Materialize every column of a table — `scan(name, None)`; what
    /// backends and bulk reads ask for.
    pub fn snapshot(&self, name: &str) -> Result<Table> {
        self.scan(name, None)
    }

    /// The one funnel every read of stored data goes through: materialize
    /// the columns of `name` whose (case-insensitive) name is in
    /// `columns`, or all of them for `None`. Only those are shared (a
    /// plain in-memory column hands out its stored buffers, O(1)) or
    /// decoded, pinned through the buffer pool, or deep-copied in from
    /// external storage; names the table does not have are ignored, and a
    /// table none of whose columns is asked for still yields its first,
    /// since a [`Table`]'s row count is its columns' length.
    pub fn scan(&self, name: &str, columns: Option<&[&str]>) -> Result<Table> {
        let kept = |meta: &[ColumnMeta]| -> Vec<usize> {
            let kept: Vec<usize> = (0..meta.len())
                .filter(|&i| meta[i].named_in(columns))
                .collect();
            if kept.is_empty() && !meta.is_empty() {
                vec![0]
            } else {
                kept
            }
        };
        let cat = self.catalog.read();
        match cat.get(&name.to_ascii_lowercase()) {
            Some(Stored::Table { meta, columns }) => {
                // The kept columns are cloned (O(1)), so the catalog lock is
                // released before images decode or pages pin.
                let kept: Vec<(ColumnMeta, StoredColumn)> = (kept(meta).into_iter())
                    .map(|i| (meta[i].clone(), columns[i].clone()))
                    .collect();
                drop(cat);
                let mut t = Table::new();
                for (m, c) in kept {
                    t.push_column(m, c.load(self.storage.as_ref())?);
                }
                Ok(t)
            }
            Some(Stored::External(e)) => {
                let e = Arc::clone(e);
                drop(cat);
                let meta: Vec<ColumnMeta> =
                    (e.column_names().iter().cloned().map(ColumnMeta::new)).collect();
                let (copied, bytes) = e.copy_in_columns(&kept(&meta));
                self.stats.lock().interop_bytes_copied += bytes as u64;
                Ok(copied)
            }
            None => Err(EngineError::UnknownTable(name.to_string())),
        }
    }

    /// Count the run-length images among `columns`, about to enter the
    /// catalog, as bytes written through the compression path.
    fn count_encoded(&self, columns: &[StoredColumn]) {
        let images = (columns.iter()).filter(|c| matches!(c, StoredColumn::Rle { .. }));
        let bytes: usize = images.map(StoredColumn::byte_size).sum();
        self.stats.lock().compressed_bytes_written += bytes as u64;
    }

    // ---- SQL entry points --------------------------------------------------

    /// Execute one SQL statement; `SELECT` returns its result, other
    /// statements return an empty table.
    pub fn execute(&self, sql: &str) -> Result<Table> {
        self.execute_statement(&parse_statement(sql)?)
    }

    /// Convenience alias for `SELECT` statements.
    pub fn query(&self, sql: &str) -> Result<Table> {
        self.execute(sql)
    }

    /// The plan `sql` binds to, printed one node per line.
    pub fn explain(&self, sql: &str) -> Result<String> {
        Ok(bind(&parse_statement(sql)?, self)?.to_string())
    }

    /// Execute a pre-parsed statement.
    pub fn execute_statement(&self, stmt: &Statement) -> Result<Table> {
        let mut stats = self.stats.lock();
        stats.statements += 1;
        stats.queries +=
            matches!(stmt, Statement::Select(_) | Statement::CreateTableAs { .. }) as u64;
        drop(stats);
        self.run(&bind(stmt, self)?)
    }

    fn run(&self, plan: &Plan) -> Result<Table> {
        let slots = plan.slots.clone();
        match &plan.op {
            Op::Query(q) => return self.run_query(q, slots),
            Op::CreateAs(name, or_replace, query) => {
                let result = self.run_query(query, slots)?.unqualified();
                self.install(name, result, *or_replace, self.config.wal)?
            }
            Op::UpdateColumn(table, assignments, pred) => {
                self.update(&EvalContext::bound(self, slots), table, assignments, *pred)?
            }
            Op::Drop(name, true) if !self.has_table(name) => {}
            Op::Drop(name, _) => self.drop_table(name)?,
            Op::SwapColumn(a, b) => self.swap_column(a.0, a.1, b.0, b.1)?,
        }
        Ok(Table::new())
    }

    /// `UPDATE`: scan only the assigned columns and those the assignments
    /// and `WHERE` read, compute every new column from the old values, and
    /// store each in place of its old one. Other columns stay as stored.
    /// An external table is copied in whole and installed as a new handle,
    /// so a scan that holds the old one never sees half an update.
    fn update<'p>(
        &self,
        ctx: &EvalContext<'p>,
        table: &str,
        assignments: &'p [(String, Expr)],
        where_clause: Option<&'p Expr>,
    ) -> Result<()> {
        let gate = self.write_gate.read();
        let key = table.to_ascii_lowercase();
        let external = matches!(self.catalog.read().get(&key), Some(Stored::External(_)));
        let mut read = names_read(assignments.iter().map(|(_, e)| e).chain(where_clause));
        read.extend(assignments.iter().map(|(c, _)| c.as_str()));
        let current = self.scan(table, (!external).then_some(&read[..]))?;
        let n = current.num_rows();
        let hit = where_clause
            .map(|pred| self.predicate(pred, &current, ctx))
            .transpose()?;
        // Every assignment reads the old values, so the new columns are
        // installed only once all of them are computed.
        let mut merged = Vec::with_capacity(assignments.len());
        for (col_name, expr) in assignments {
            let idx = current.resolve(None, col_name)?;
            // MVCC: copy the before-image into the undo buffer — a real
            // copy, the cost versioning models, not a shared buffer.
            if self.config.mvcc {
                let before = current.columns[idx].deep_copy();
                let bytes = before.byte_size();
                let mut undo = self.undo.lock();
                undo.versions
                    .push_back((format!("{table}.{col_name}"), before));
                undo.bytes += bytes;
                while undo.bytes > UNDO_CAP_BYTES {
                    let Some((_, old)) = undo.versions.pop_front() else {
                        break;
                    };
                    undo.bytes -= old.byte_size();
                }
                let mut stats = self.stats.lock();
                stats.undo_bytes += bytes as u64;
                stats.undo_versions += 1;
            }
            let new_vals = || self.eval(expr, &current, ctx);
            // Merge: rows the predicate hits take the new value, others
            // keep the old — a one-branch CASE.
            let merged_col = match &hit {
                Some(hit) => {
                    let mut merge = CaseMerge::new(Some(current.columns[idx].clone()), n);
                    merge.branch(hit, || new_vals().map(Cow::Owned))?;
                    merge.finish()
                }
                None => CaseMerge::new(Some(new_vals()?), n).finish(),
            };
            merged.push((idx, col_name, merged_col));
        }
        let log = |wal: &mut Wal| match self.config.wal {
            true => (merged.iter()).try_for_each(|(_, c, v)| wal.log_update_column(table, c, v)),
            false => Ok(()),
        };
        if external {
            let mut updated = current;
            for (idx, _, col) in &merged {
                updated.columns[*idx] = col.clone();
            }
            let stored = Stored::External(Arc::new(ExternalTable::from_table(&updated)));
            let mut wal = self.wal.lock();
            log(&mut wal)?;
            let old = self.catalog.write().insert(key, stored);
            return self.commit(wal, old, gate);
        }
        let (rle, pages) = (self.config.compression, self.storage.as_ref());
        let stored = (merged.iter())
            .map(|(_, _, c)| StoredColumn::store(c, rle, pages))
            .collect::<Result<Vec<_>>>()?;
        let mut wal = self.wal.lock();
        // Every catalog change holds the log's lock, so the table checked
        // here takes the new columns: a table replaced since the scan by
        // one they do not fit is refused before anything is logged.
        let slots = match self.catalog.read().get(&key) {
            Some(t @ Stored::Table { meta, .. }) if t.rows() == n => (merged.iter())
                .map(|(_, col_name, _)| column_index(meta, col_name))
                .collect::<Result<Vec<_>>>()?,
            Some(_) => return Err(EngineError::Other(format!("{table} changed during UPDATE"))),
            None => return Err(EngineError::UnknownTable(table.to_string())),
        };
        log(&mut wal)?;
        self.count_encoded(&stored);
        let mut cat = self.catalog.write();
        let Some(Stored::Table { columns, .. }) = cat.get_mut(&key) else {
            unreachable!("the catalog changes only under the log's lock")
        };
        let old: Vec<StoredColumn> = (slots.into_iter().zip(stored))
            .map(|(i, new)| std::mem::replace(&mut columns[i], new))
            .collect();
        drop(cat);
        self.commit(wal, old, gate)
    }

    fn swap_column(&self, ta: &str, ca: &str, tb: &str, cb: &str) -> Result<()> {
        let (ka, kb) = (ta.to_ascii_lowercase(), tb.to_ascii_lowercase());
        let _wal = self.wal.lock();
        let mut cat = self.catalog.write();
        let rows = |k: &str, t: &str| {
            (cat.get(k).map(Stored::rows)).ok_or_else(|| EngineError::UnknownTable(t.to_string()))
        };
        let (ra, rb) = (rows(&ka, ta)?, rows(&kb, tb)?);
        if ra != rb {
            return Err(EngineError::Other(format!(
                "cannot swap columns of tables with {ra} and {rb} rows"
            )));
        }
        // Swap deliberately bypasses the WAL (it is a schema-level pointer
        // move), which WAL-replay recovery cannot follow: on a paged engine
        // only external tables, which bypass the log too, swap.
        let logged = |k: &str| matches!(cat.get(k), Some(Stored::Table { .. }));
        if self.storage.is_some() && (logged(&ka) || logged(&kb)) {
            return Err(EngineError::Other(
                "column swap is not supported on paged storage".into(),
            ));
        }
        // Exchange the two columns, each in the encoding it has: O(1) in
        // the number of rows, and `b` is found before `a` moves.
        let col_b = column_of(&cat[&kb], cb)?;
        let col_a = put_column(cat.get_mut(&ka).expect("checked"), ca, col_b)?;
        put_column(cat.get_mut(&kb).expect("checked"), cb, col_a)?;
        self.stats.lock().swaps += 1;
        Ok(())
    }
}

impl Drop for Database {
    fn drop(&mut self) {
        if let Some(path) = self.temp_wal.take() {
            // Close the log before unlinking it.
            *self.wal.get_mut() = Wal::disabled();
            let _ = std::fs::remove_file(path);
        }
    }
}

/// The catalog tables of `cat` in name order, so the log's bytes do not
/// depend on the catalog's hash order.
fn catalog_tables(cat: &Catalog) -> Vec<(&str, &[ColumnMeta], &[StoredColumn])> {
    let mut tables: Vec<_> = (cat.iter())
        .filter_map(|(k, s)| match s {
            Stored::Table { meta, columns } => Some((k.as_str(), &meta[..], &columns[..])),
            Stored::External(_) => None,
        })
        .collect();
    tables.sort_unstable_by_key(|&(k, ..)| k);
    tables
}

/// The first table and position holding each page chain.
type Holders<'a> = HashMap<*const PageChain, (&'a str, usize)>;

/// Record the chains of table `name` that no earlier table holds.
fn hold<'a>(held: &mut Holders<'a>, name: &'a str, columns: &[StoredColumn]) {
    for (index, c) in columns.iter().enumerate() {
        if let StoredColumn::Paged(pc) = c {
            held.entry(Arc::as_ptr(&pc.pages)).or_insert((name, index));
        }
    }
}

/// Each of `columns` as the log records it: a reference to the column
/// `held` names for its chain, or else its image, `image(i)`.
fn logged_columns(
    held: &Holders,
    columns: &[StoredColumn],
    image: impl Fn(usize) -> Result<Column>,
) -> Result<Vec<LoggedColumn>> {
    let holder = |c: &StoredColumn| match c {
        StoredColumn::Paged(pc) => held.get(&Arc::as_ptr(&pc.pages)).copied(),
        _ => None,
    };
    (columns.iter().enumerate())
        .map(|(i, c)| match holder(c) {
            Some((table, index)) => Ok(LoggedColumn::Ref(ColumnRef {
                table: table.to_string(),
                index: index as u32,
            })),
            None => image(i).map(LoggedColumn::Image),
        })
        .collect()
}

/// Column `name` of `stored`, sharing its bytes.
fn column_of(stored: &Stored, name: &str) -> Result<StoredColumn> {
    match stored {
        Stored::Table { meta, columns } => Ok(columns[column_index(meta, name)?].clone()),
        Stored::External(e) => Ok(StoredColumn::Plain(e.column(name)?)),
    }
}

/// Put `col` in place of column `name` of `stored`; returns the column it
/// replaces.
fn put_column(stored: &mut Stored, name: &str, col: StoredColumn) -> Result<StoredColumn> {
    match stored {
        Stored::Table { meta, columns } => Ok(std::mem::replace(
            &mut columns[column_index(meta, name)?],
            col,
        )),
        // External storage holds plain arrays only: the one place a swap
        // changes a column's encoding.
        Stored::External(e) => {
            let old = e.column(name)?;
            e.replace_column(name, col.load(None)?)?;
            Ok(StoredColumn::Plain(old))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datum::{DataType, Datum};

    fn db_with_r() -> Database {
        let db = Database::in_memory();
        db.create_table(
            "r",
            Table::from_columns(vec![
                ("a", Column::int(vec![1, 1, 2, 2])),
                ("y", Column::float(vec![2.0, 3.0, 1.0, 2.0])),
            ]),
        )
        .unwrap();
        db
    }

    #[test]
    fn each_logged_database_owns_its_temp_wal_until_dropped() {
        let a = Database::new(EngineConfig::duckdb_disk());
        let b = Database::new(EngineConfig::duckdb_disk());
        let (pa, pb) = (a.temp_wal.clone().unwrap(), b.temp_wal.clone().unwrap());
        assert_ne!(pa, pb, "two live engines must not share a log file");
        assert!(pa.exists() && pb.exists());
        drop(a);
        assert!(!pa.exists(), "the log must go with its engine");
        assert!(pb.exists(), "the other engine's log is untouched");
        drop(b);
        assert!(!pb.exists());
        assert!(Database::in_memory().temp_wal.is_none());
    }

    #[test]
    fn full_join_with_an_empty_left_side_keeps_the_left_types() {
        let db = Database::in_memory();
        let l = Table::from_columns(vec![
            ("k", Column::int(vec![])),
            ("n", Column::int(vec![])),
            ("s", Column::str(vec![])),
        ]);
        db.create_table("l", l).unwrap();
        let r = Table::from_columns(vec![
            ("k", Column::int(vec![1, 2])),
            ("y", Column::str(vec!["a".into(), "b".into()])),
        ]);
        db.create_table("r", r).unwrap();
        let t = db
            .query("SELECT k, n, s, y FROM l FULL JOIN r USING (k)")
            .unwrap();
        assert_eq!(t.num_rows(), 2);
        let col = |name| t.column(None, name).unwrap();
        assert_eq!(col("k").dtype(), DataType::Int);
        assert_eq!(
            (col("n").dtype(), col("n").null_count()),
            (DataType::Int, 2)
        );
        assert_eq!(
            (col("s").dtype(), col("s").null_count()),
            (DataType::Str, 2)
        );
        assert_eq!(col("y").get(1), Datum::Str("b".into()));
    }

    #[test]
    fn select_group_by_aggregates() {
        let db = db_with_r();
        let t = db
            .query("SELECT a, SUM(y) AS s, COUNT(*) AS c FROM r GROUP BY a ORDER BY a")
            .unwrap();
        assert_eq!(t.num_rows(), 2);
        assert_eq!(t.column(None, "s").unwrap().get(0), Datum::Float(5.0));
        assert_eq!(t.column(None, "c").unwrap().get(1), Datum::Int(2));
    }

    #[test]
    fn global_aggregate_and_arithmetic_over_aggs() {
        let db = db_with_r();
        // variance = Q - S^2/C over all of r
        let t = db
            .query("SELECT SUM(y * y) - SUM(y) * SUM(y) / COUNT(*) AS v FROM r")
            .unwrap();
        let v = t.scalar_f64("v").unwrap();
        assert!((v - 2.0).abs() < 1e-9, "got {v}");
    }

    #[test]
    fn create_table_as_and_reuse() {
        let db = db_with_r();
        db.execute("CREATE TABLE agg AS SELECT a, SUM(y) AS s FROM r GROUP BY a")
            .unwrap();
        let t = db.query("SELECT SUM(s) AS total FROM agg").unwrap();
        assert_eq!(t.scalar_f64("total").unwrap(), 8.0);
        assert!(db.execute("CREATE TABLE agg AS SELECT 1 AS x").is_err());
        db.execute("CREATE OR REPLACE TABLE agg AS SELECT 1 AS x")
            .unwrap();
        assert_eq!(db.row_count("agg").unwrap(), 1);
    }

    #[test]
    fn update_with_predicate() {
        let db = db_with_r();
        let before = db.scan("r", Some(&["y"])).unwrap();
        db.execute("UPDATE r SET y = y - 1.0 WHERE a = 1").unwrap();
        let t = db.query("SELECT SUM(y) AS s FROM r").unwrap();
        assert_eq!(t.scalar_f64("s").unwrap(), 6.0);
        let stats = db.stats();
        assert_eq!(stats.undo_versions, 1, "MVCC before-image recorded");
        // The before-image is a copy the undo buffer owns, not a share of
        // the stored buffer, and it is counted at its logical size.
        let undo = db.undo.lock();
        let (name, image) = undo.versions.back().unwrap();
        assert_eq!((name.as_str(), image), ("r.y", &before.columns[0]));
        assert!(!image.shares_buffers(&before.columns[0]));
        assert_eq!(stats.undo_bytes, 4 * 8);
    }

    /// Nine columns no run-length encoding shrinks, so the catalog keeps
    /// them plain: `c1..c8` of every type, NULLs and odd floats among
    /// them, and the annotation `s`.
    fn plain_table(n: usize) -> Table {
        let mut cols: Vec<(String, Column)> = Vec::new();
        for j in 1..=8i64 {
            let col = match j % 4 {
                0 => Column::int((0..n as i64).map(|i| i * j).collect()),
                1 => Column::float((0..n).map(|i| i as f64 / j as f64).collect()),
                2 => Column::str((0..n).map(|i| format!("v{}", i * j as usize)).collect()),
                _ => Column::from_datums(
                    &(0..n as i64)
                        .map(|i| match i % 3 {
                            0 => Datum::Null,
                            _ => Datum::Int(i + j),
                        })
                        .collect::<Vec<_>>(),
                ),
            };
            cols.push((format!("c{j}"), col));
        }
        let mut s: Vec<f64> = (0..n).map(|i| i as f64 - 0.5).collect();
        (s[1], s[2]) = (-0.0, f64::from_bits(0x7FF8_0000_0000_0001));
        cols.push(("s".into(), Column::float(s)));
        Table::from_columns(cols.iter().map(|(m, c)| (m.as_str(), c.clone())).collect())
    }

    #[test]
    fn scans_projections_and_create_table_as_share_the_stored_buffers() {
        let db = Database::in_memory();
        db.create_table("t", plain_table(64)).unwrap();
        let (first, second) = (db.scan("t", None).unwrap(), db.scan("t", None).unwrap());
        for (a, b) in first.columns.iter().zip(&second.columns) {
            assert!(a.shares_buffers(b), "two scans return the stored buffers");
        }
        // A column reference in a projection hands on the scanned buffer.
        let picked = db.query("SELECT c3, s FROM t").unwrap();
        assert!(picked.columns[0].shares_buffers(&first.columns[2]));
        assert!(picked.columns[1].shares_buffers(&first.columns[8]));
        // The residual update's shape: only the new column is new.
        db.execute(
            "CREATE OR REPLACE TABLE t AS SELECT c1, c2, c3, c4, c5, c6, c7, c8, \
             CASE WHEN c1 < 2.0 THEN s + 1.0 ELSE s END AS s FROM t",
        )
        .unwrap();
        let after = db.scan("t", None).unwrap();
        assert_eq!(after.column_names(), first.column_names());
        for (i, (a, b)) in after.columns.iter().zip(&first.columns).enumerate() {
            assert_eq!(a.shares_buffers(b), i < 8, "column {i}");
        }
        assert_eq!(db.stats().compressed_bytes_written, 0);
    }

    #[test]
    fn writes_to_a_table_leave_tables_and_results_that_share_it_unchanged() {
        let setup = || {
            let db = Database::new(EngineConfig::d_swap());
            db.create_table("a", plain_table(16)).unwrap();
            db.create_table("c", plain_table(16)).unwrap();
            db.execute("CREATE TABLE b AS SELECT * FROM a").unwrap();
            db
        };
        let writes = [
            "UPDATE a SET s = s + 1.0, c4 = c4 * 2 WHERE c1 < 4.0",
            "UPDATE a SET c3 = c3 + 1",
            "SWAP COLUMN a.s WITH c.c1",
            "CREATE OR REPLACE TABLE a AS SELECT c1, c2, \
             CASE WHEN c1 < 4.0 THEN s - 1.0 ELSE s END AS s FROM a",
            "DROP TABLE a",
        ];
        for sql in writes {
            let db = setup();
            let kept = db.query("SELECT * FROM a").unwrap();
            let (b, a) = (db.snapshot("b").unwrap(), db.snapshot("a").unwrap());
            for (x, y) in b
                .columns
                .iter()
                .zip(&a.columns)
                .chain(kept.columns.iter().zip(&a.columns))
            {
                assert!(x.shares_buffers(y), "{sql}: shared before the write");
            }
            let (b_before, kept_before) = (bits(&b), bits(&kept));
            db.execute(sql).unwrap();
            assert_eq!(bits(&db.snapshot("b").unwrap()), b_before, "{sql}: b moved");
            assert_eq!(bits(&kept), kept_before, "{sql}: a kept result moved");
            assert_eq!(bits(&b), b_before, "{sql}: a kept snapshot moved");
        }
    }

    #[test]
    fn update_with_in_subquery() {
        let db = db_with_r();
        db.create_table("m", Table::from_columns(vec![("a", Column::int(vec![2]))]))
            .unwrap();
        db.execute("UPDATE r SET y = 0.0 WHERE a IN (SELECT a FROM m)")
            .unwrap();
        let t = db.query("SELECT SUM(y) AS s FROM r").unwrap();
        assert_eq!(t.scalar_f64("s").unwrap(), 5.0);
    }

    #[test]
    fn swap_column_requires_capability() {
        let db = db_with_r();
        db.execute("CREATE TABLE r2 AS SELECT a, y + 1.0 AS y FROM r")
            .unwrap();
        assert!(db.execute("SWAP COLUMN r.y WITH r2.y").is_err());

        let db2 = Database::new(EngineConfig::d_swap());
        db2.create_table(
            "f",
            Table::from_columns(vec![("s", Column::float(vec![1.0, 2.0]))]),
        )
        .unwrap();
        db2.create_table(
            "f2",
            Table::from_columns(vec![("s", Column::float(vec![10.0, 20.0]))]),
        )
        .unwrap();
        db2.execute("SWAP COLUMN f.s WITH f2.s").unwrap();
        assert_eq!(
            db2.query("SELECT SUM(s) AS s FROM f")
                .unwrap()
                .scalar_f64("s")
                .unwrap(),
            30.0
        );
        assert_eq!(db2.stats().swaps, 1);
    }

    #[test]
    fn swap_rejects_columns_of_different_lengths_and_leaves_both_tables() {
        let db = Database::new(EngineConfig::d_swap());
        let f = Table::from_columns(vec![("s", Column::float(vec![1.0, 2.0, 3.0]))]);
        let g = Table::from_columns(vec![("s", Column::float(vec![10.0]))]);
        db.create_table("f", f.clone()).unwrap();
        db.create_table("g", g.clone()).unwrap();
        let err = db.execute("SWAP COLUMN f.s WITH g.s").unwrap_err();
        assert!(err.to_string().contains("3 and 1 rows"), "{err}");
        assert_eq!(
            (db.snapshot("f").unwrap(), db.snapshot("g").unwrap()),
            (f, g)
        );
        assert_eq!(db.stats().swaps, 0);
        let t = db.query("SELECT s FROM f WHERE s > 1.5").unwrap();
        assert_eq!(t.num_rows(), 2);
    }

    /// Column names plus every column's codec bytes: equality is
    /// bit-exactness (NaN payloads and `-0.0` included).
    fn bits(t: &Table) -> (Vec<&str>, Vec<u8>) {
        let mut out = Vec::new();
        for c in &t.columns {
            crate::storage::codec::encode_column(&mut out, c);
        }
        (t.column_names(), out)
    }

    #[test]
    fn mixed_encodings_store_snapshot_and_swap_bit_exactly() {
        let n = 64;
        let k = Column::int(vec![7; n]);
        let mut xs: Vec<f64> = (0..n).map(|i| i as f64 * 0.5).collect();
        (xs[3], xs[5]) = (f64::from_bits(0x7FF8_0000_0000_0001), -0.0);
        let x = Column::float(xs);
        let s = Column::from_datums(
            &(0..n)
                .map(|i| match i % 4 {
                    0 => Datum::Null,
                    _ => Datum::Str(["a", "b", "c"][i % 3].into()),
                })
                .collect::<Vec<_>>(),
        );
        let t = Table::from_columns(vec![("k", k.clone()), ("x", x.clone()), ("s", s.clone())]);
        let rle = crate::storage::codec::rle_len;
        assert!(rle(&k) < k.byte_size() && rle(&x) > x.byte_size() && rle(&s) > s.byte_size());

        let db = Database::new(EngineConfig::d_swap());
        db.create_table("t", t.clone()).unwrap();
        assert_eq!(bits(&db.snapshot("t").unwrap()), bits(&t));
        let t_bytes = rle(&k) + x.byte_size() + s.byte_size();
        assert_eq!(db.table_byte_size("t").unwrap(), t_bytes);
        assert_eq!(db.stats().compressed_bytes_written, rle(&k) as u64);

        // `u` mirrors `t`: a plain `k` and an RLE `x`.
        let uk = Column::int((0..n as i64).collect());
        let ux = Column::float(vec![0.25; n]);
        db.create_table(
            "u",
            Table::from_columns(vec![("k", uk.clone()), ("x", ux.clone())]),
        )
        .unwrap();
        let written = db.stats().compressed_bytes_written;
        // RLE t.k → u, plain u.k → t; then plain t.x → u, RLE u.x → t.
        db.execute("SWAP COLUMN t.k WITH u.k").unwrap();
        db.execute("SWAP COLUMN t.x WITH u.x").unwrap();
        let want_t =
            Table::from_columns(vec![("k", uk.clone()), ("x", ux.clone()), ("s", s.clone())]);
        let want_u = Table::from_columns(vec![("k", k.clone()), ("x", x.clone())]);
        assert_eq!(bits(&db.snapshot("t").unwrap()), bits(&want_t));
        assert_eq!(bits(&db.snapshot("u").unwrap()), bits(&want_u));
        let t_bytes = uk.byte_size() + rle(&ux) + s.byte_size();
        assert_eq!(db.table_byte_size("t").unwrap(), t_bytes);
        assert_eq!(db.table_byte_size("u").unwrap(), rle(&k) + x.byte_size());
        let stats = db.stats();
        assert_eq!((stats.swaps, stats.compressed_bytes_written), (2, written));

        // External storage holds plain arrays: RLE u.k is decoded into it.
        let ek = Column::int((100..100 + n as i64).collect());
        db.register_external("e", &Table::from_columns(vec![("k", ek.clone())]));
        db.execute("SWAP COLUMN u.k WITH e.k").unwrap();
        let want_e = Table::from_columns(vec![("k", k.clone())]);
        assert_eq!(bits(&db.snapshot("e").unwrap()), bits(&want_e));
        let want_u = Table::from_columns(vec![("k", ek.clone()), ("x", x.clone())]);
        assert_eq!(bits(&db.snapshot("u").unwrap()), bits(&want_u));
    }

    #[test]
    fn join_via_sql() {
        let db = db_with_r();
        db.create_table(
            "d",
            Table::from_columns(vec![
                ("a", Column::int(vec![1, 2])),
                ("grp", Column::int(vec![10, 20])),
            ]),
        )
        .unwrap();
        let t = db
            .query("SELECT grp, SUM(y) AS s FROM r JOIN d USING (a) GROUP BY grp ORDER BY grp")
            .unwrap();
        assert_eq!(t.num_rows(), 2);
        assert_eq!(t.column(None, "s").unwrap().get(0), Datum::Float(5.0));
    }

    #[test]
    fn left_join_keeps_unmatched() {
        let db = Database::in_memory();
        db.create_table(
            "l",
            Table::from_columns(vec![("k", Column::int(vec![1, 2, 3]))]),
        )
        .unwrap();
        db.create_table(
            "rr",
            Table::from_columns(vec![
                ("k", Column::int(vec![1])),
                ("v", Column::int(vec![100])),
            ]),
        )
        .unwrap();
        let t = db
            .query("SELECT k, v FROM l LEFT JOIN rr USING (k) ORDER BY k")
            .unwrap();
        assert_eq!(t.num_rows(), 3);
        assert_eq!(t.column(None, "v").unwrap().get(0), Datum::Int(100));
        assert_eq!(t.column(None, "v").unwrap().get(2), Datum::Null);
    }

    #[test]
    fn semi_join_filters_without_duplicating() {
        let db = Database::in_memory();
        db.create_table(
            "l",
            Table::from_columns(vec![("k", Column::int(vec![1, 2, 3]))]),
        )
        .unwrap();
        db.create_table(
            "rr",
            Table::from_columns(vec![("k", Column::int(vec![1, 1, 2]))]),
        )
        .unwrap();
        let t = db
            .query("SELECT k FROM l SEMI JOIN rr USING (k) ORDER BY k")
            .unwrap();
        assert_eq!(t.num_rows(), 2, "duplicates on the right do not multiply");
    }

    #[test]
    fn window_over_grouped_subquery_matches_paper_example() {
        // Example 2 shape: prefix sums over per-value aggregates.
        let db = db_with_r();
        let t = db
            .query(
                "SELECT a, SUM(c) OVER (ORDER BY a) AS cc, SUM(s) OVER (ORDER BY a) AS ss \
                 FROM (SELECT a, SUM(y) AS s, COUNT(*) AS c FROM r GROUP BY a) AS g ORDER BY a",
            )
            .unwrap();
        assert_eq!(t.column(None, "cc").unwrap().get(1), Datum::Float(4.0));
        assert_eq!(t.column(None, "ss").unwrap().get(1), Datum::Float(8.0));
    }

    #[test]
    fn row_mode_same_results() {
        let db = Database::new(EngineConfig::dbms_x_row());
        db.create_table(
            "r",
            Table::from_columns(vec![
                ("a", Column::int(vec![1, 1, 2, 2])),
                ("y", Column::float(vec![2.0, 3.0, 1.0, 2.0])),
            ]),
        )
        .unwrap();
        let t = db
            .query("SELECT a, SUM(y) AS s FROM r WHERE y > 1.0 GROUP BY a ORDER BY a")
            .unwrap();
        assert_eq!(t.num_rows(), 2);
        assert_eq!(t.column(None, "s").unwrap().get(0), Datum::Float(5.0));
        assert_eq!(t.column(None, "s").unwrap().get(1), Datum::Float(2.0));
    }

    #[test]
    fn external_table_scan_and_replace() {
        let db = Database::in_memory();
        let f = Table::from_columns(vec![
            ("a", Column::int(vec![1, 2])),
            ("s", Column::float(vec![1.0, 2.0])),
        ]);
        db.register_external("f", &f);
        let t = db.query("SELECT SUM(s) AS s FROM f").unwrap();
        assert_eq!(t.scalar_f64("s").unwrap(), 3.0);
        assert!(db.stats().interop_bytes_copied > 0);
        db.external("f")
            .unwrap()
            .replace_column("s", Column::float(vec![5.0, 5.0]))
            .unwrap();
        let t = db.query("SELECT SUM(s) AS s FROM f").unwrap();
        assert_eq!(t.scalar_f64("s").unwrap(), 10.0);
    }

    /// An 8-column fact-shaped table, the 5-key table a message semi-joins
    /// it with, and a message over them that names 3 of the 8 columns.
    fn wide_fact() -> (Table, Table, &'static str) {
        let n = 20_000i64;
        let ints = |m: i64| Column::int((0..n).map(|i| (i * 7919) % m).collect());
        let wide = Table::from_columns(vec![
            ("k1", ints(100)),
            ("k2", ints(10)),
            ("k3", ints(50)),
            ("k4", ints(30)),
            ("k5", ints(20)),
            (
                "y",
                Column::float((0..n).map(|i| i as f64 * 0.125).collect()),
            ),
            ("id", Column::int((0..n).collect())),
            (
                "s",
                Column::float((0..n).map(|i| (i % 97) as f64 * 0.25).collect()),
            ),
        ]);
        let keep = Table::from_columns(vec![("k2", Column::int(vec![1, 3, 5, 7, 9]))]);
        let message = "SELECT k1, SUM(1) AS jb_c, SUM(wide.s) AS jb_s FROM wide \
                       SEMI JOIN keep USING (k2) GROUP BY k1 ORDER BY k1";
        (wide, keep, message)
    }

    #[test]
    fn message_over_a_paged_table_touches_only_the_pages_of_the_columns_it_names() {
        use crate::storage::{codec, PAGE_CAPACITY};
        let (wide, keep, message) = wide_fact();
        let dir = std::env::temp_dir().join(format!("jb_db_pruned_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let db = Database::new(EngineConfig {
            bufferpool_pages: 8,
            ..EngineConfig::paged(&dir)
        });
        db.create_table("wide", wide.clone()).unwrap();
        db.create_table("keep", keep.clone()).unwrap();
        let pages = |t: &Table, names: &[&str]| -> u64 {
            (names.iter())
                .map(|c| {
                    let mut bytes = Vec::new();
                    codec::encode_stored_column(&mut bytes, t.column(None, c).unwrap());
                    bytes.len().div_ceil(PAGE_CAPACITY).max(1) as u64
                })
                .sum()
        };
        let before = db.bufferpool_stats().unwrap();
        let got = db.query(message).unwrap();
        let after = db.bufferpool_stats().unwrap();
        let touched = (after.hits + after.misses) - (before.hits + before.misses);
        let named = pages(&wide, &["k1", "k2", "s"]) + pages(&keep, &["k2"]);
        assert_eq!(touched, named, "one pin per page of a named column");
        assert!(after.misses - before.misses <= named);
        assert!(
            named * 2 < pages(&wide, &wide.column_names()),
            "3 of 8 columns are well under half the table"
        );
        let mem = Database::in_memory();
        mem.create_table("wide", wide).unwrap();
        mem.create_table("keep", keep).unwrap();
        assert_eq!(got, mem.query(message).unwrap());
        drop(db);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stores_written_with_plain_int_images_reopen_bit_exactly() {
        use crate::storage::codec::{
            encode_column, encode_stored_column, put_string, put_u32, put_u64,
        };
        use crate::wal::RecordKind;
        let dir = std::env::temp_dir().join(format!("jb_db_plain_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let fact = Table::from_columns(vec![
            ("k", Column::int((0..500).map(|i| i % 9).collect())),
            (
                "y",
                Column::float((0..500).map(|i| i as f64 * 0.5).collect()),
            ),
        ]);
        let dim = Table::from_columns(vec![
            ("id", Column::int(vec![3; 40])),
            (
                "n",
                Column::from_datums(
                    &(0..40)
                        .map(|i| {
                            if i % 3 == 0 {
                                Datum::Null
                            } else {
                                Datum::Int(-i)
                            }
                        })
                        .collect::<Vec<_>>(),
                ),
            ),
        ]);
        let new_id = Column::int((100..140).collect());
        for c in [&fact.columns[0], &dim.columns[0], &dim.columns[1], &new_id] {
            let (mut plain, mut packed) = (Vec::new(), Vec::new());
            encode_column(&mut plain, c);
            encode_stored_column(&mut packed, c);
            assert!(packed.len() < plain.len(), "today's writers pack it");
        }
        // A named table as the writers framed it before Int columns
        // packed: each column's plain image.
        let named = |name: &str, t: &Table| {
            let mut out = Vec::new();
            put_string(&mut out, name);
            put_u32(&mut out, t.num_columns() as u32);
            for (m, c) in t.meta.iter().zip(&t.columns) {
                put_string(&mut out, &m.name);
                encode_column(&mut out, c);
            }
            out
        };
        // wal.log: each record is a kind byte, a u64 length, the payload.
        let mut log = Vec::new();
        let mut update = Vec::new();
        put_string(&mut update, "dim");
        put_string(&mut update, "id");
        encode_column(&mut update, &new_id);
        for (kind, payload) in [
            (RecordKind::CreateTable, named("dim", &dim)),
            (RecordKind::CreateTable, named("fact", &fact)),
            (RecordKind::UpdateColumn, update),
            (RecordKind::Commit, Vec::new()),
        ] {
            log.push(kind as u8);
            put_u64(&mut log, payload.len() as u64);
            log.extend(payload);
        }
        std::fs::write(dir.join("wal.log"), log).unwrap();

        let db = Database::open(EngineConfig::paged(&dir)).unwrap();
        let mut dim_now = dim.clone();
        dim_now.columns[0] = new_id;
        assert_eq!(bits(&db.snapshot("fact").unwrap()), bits(&fact));
        assert_eq!(bits(&db.snapshot("dim").unwrap()), bits(&dim_now));
        drop(db);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn message_over_external_storage_copies_in_only_the_columns_it_names() {
        let (wide, keep, message) = wide_fact();
        let db = Database::in_memory();
        db.register_external("wide", &wide);
        db.create_table("keep", keep).unwrap();
        let before = db.stats().interop_bytes_copied;
        db.query(message).unwrap();
        let named: usize = (["k1", "k2", "s"].iter())
            .map(|c| wide.column(None, c).unwrap().byte_size())
            .sum();
        assert_eq!(db.stats().interop_bytes_copied - before, named as u64);
        // A full snapshot still copies everything, into buffers of its own.
        let before = db.stats().interop_bytes_copied;
        let copied = db.snapshot("wide").unwrap();
        assert_eq!(copied, wide);
        assert_eq!(
            db.stats().interop_bytes_copied - before,
            wide.byte_size() as u64
        );
        let external = db.external("wide").unwrap();
        for (m, c) in copied.meta.iter().zip(&copied.columns) {
            assert!(!c.shares_buffers(&external.column(&m.name).unwrap()));
        }
    }

    #[test]
    fn scan_keeps_named_columns_and_a_row_count_when_none_is_named() {
        let db = db_with_r();
        assert_eq!(
            db.scan("r", Some(&["Y", "zzz"])).unwrap().column_names(),
            ["y"]
        );
        assert_eq!(db.scan("r", None).unwrap(), db.snapshot("r").unwrap());
        // No named column: the first one still carries the row count.
        let t = db.scan("r", Some(&[])).unwrap();
        assert_eq!((t.column_names(), t.num_rows()), (vec!["a"], 4));
        let t = db
            .query("SELECT SUM(1) AS c, COUNT(*) AS n FROM r")
            .unwrap();
        assert_eq!(t.row(0), vec![Datum::Int(4), Datum::Int(4)]);
        assert!(db.scan("nope", None).is_err());
    }

    #[test]
    fn drop_table_if_exists() {
        let db = db_with_r();
        db.execute("DROP TABLE IF EXISTS nope").unwrap();
        db.execute("DROP TABLE r").unwrap();
        assert!(!db.has_table("r"));
        assert!(db.execute("DROP TABLE r").is_err());
    }

    #[test]
    fn order_by_desc_limit_and_null_last() {
        let db = db_with_r();
        // NULL criteria (e.g. division by zero at the boundary split) must
        // sort last even in DESC order, so LIMIT 1 picks the real value.
        let t = db
            .query(
                "SELECT a, CASE WHEN a = 1 THEN NULL ELSE 5.0 END AS crit \
                 FROM r GROUP BY a ORDER BY crit DESC LIMIT 1",
            )
            .unwrap();
        assert_eq!(t.num_rows(), 1);
        assert_eq!(t.column(None, "crit").unwrap().get(0), Datum::Float(5.0));
        assert_eq!(t.column(None, "a").unwrap().get(0), Datum::Int(2));
    }

    /// An in-memory engine per execution mode, each holding `tables`.
    fn both_modes(tables: &[(&str, Table)]) -> Vec<(ExecMode, Database)> {
        [EngineConfig::duckdb_mem(), EngineConfig::dbms_x_row()]
            .into_iter()
            .map(|config| {
                let db = Database::new(config);
                for (name, t) in tables {
                    db.create_table(name, t.clone()).unwrap();
                }
                (db.config().exec, db)
            })
            .collect()
    }

    /// The first column of `sql`'s result.
    fn first_column(db: &Database, sql: &str) -> Vec<Datum> {
        let t = db.query(sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
        (0..t.num_rows()).map(|i| t.columns[0].get(i)).collect()
    }

    #[test]
    fn int_comparisons_are_exact() {
        // 2^53 and its neighbours: 2^53 + 1 is the first integer an f64
        // cannot hold.
        let big = 1i64 << 53;
        let t = Table::from_columns(vec![("a", Column::int(vec![big, big + 1, big + 2]))]);
        let u = Table::from_columns(vec![("a", Column::int(vec![big + 1]))]);
        let ints = |v: &[i64]| v.iter().map(|&x| Datum::Int(x)).collect::<Vec<_>>();
        for (mode, db) in both_modes(&[("t", t), ("u", u)]) {
            for (pred, want) in [
                ("a = 9007199254740993", vec![big + 1]),
                ("a < 9007199254740993", vec![big]),
                ("9007199254740993 <= a", vec![big + 1, big + 2]),
                ("a <> 9007199254740993", vec![big, big + 2]),
                // Against a Float, an Int compares as f64: 2^53 + 1 rounds
                // to 2^53 (ties to even), so both equal the literal.
                ("a = 9007199254740993.0", vec![big, big + 1]),
            ] {
                let got = first_column(&db, &format!("SELECT a FROM t WHERE {pred}"));
                assert_eq!(got, ints(&want), "{mode:?}: {pred}");
            }
            // The join's equality is the same one.
            for sql in [
                "SELECT a FROM t JOIN u USING (a)",
                "SELECT t.a FROM t JOIN u ON t.a = u.a",
            ] {
                assert_eq!(first_column(&db, sql), ints(&[big + 1]), "{mode:?}: {sql}");
            }
        }
    }

    #[test]
    fn not_follows_three_valued_logic() {
        let t = Table::from_columns(vec![
            (
                "x",
                Column::from_datums(&[Datum::Int(0), Datum::Int(2), Datum::Null]),
            ),
            (
                "k",
                Column::from_datums(&[Datum::Int(1), Datum::Null, Datum::Int(3)]),
            ),
            ("id", Column::int(vec![0, 1, 2])),
        ]);
        let d = Table::from_columns(vec![("k", Column::int(vec![1, 2]))]);
        for (mode, db) in both_modes(&[("t", t), ("d", d)]) {
            let ids = |pred: &str| -> Vec<i64> {
                (first_column(&db, &format!("SELECT id FROM t WHERE {pred}")).iter())
                    .map(|d| d.as_i64().unwrap())
                    .collect()
            };
            // NOT of NULL is NULL, which WHERE does not keep.
            assert_eq!(ids("NOT (x > 1)"), vec![0], "{mode:?}");
            assert_eq!(ids("x > 1 OR NOT (x > 1)"), vec![0, 1], "{mode:?}");
            assert_eq!(ids("NOT (x > 1 AND k > 0)"), vec![0], "{mode:?}");
            assert_eq!(ids("NOT (x > 1 OR k > 2)"), vec![0], "{mode:?}");
            // A NULL probe makes IN NULL, so NOT IN and NOT (.. IN ..) agree.
            for set in ["(SELECT k FROM d)", "(1, 2)"] {
                assert_eq!(ids(&format!("NOT (k IN {set})")), vec![2], "{mode:?}");
                assert_eq!(ids(&format!("k NOT IN {set}")), vec![2], "{mode:?}");
            }
            // IS NULL is never NULL.
            assert_eq!(ids("NOT (x IS NULL)"), vec![0, 1], "{mode:?}");
            // The same rule for a projected predicate and in an UPDATE.
            let negated = first_column(&db, "SELECT NOT (x > 1) AS n FROM t");
            assert_eq!(negated, vec![Datum::Int(1), Datum::Int(0), Datum::Null]);
            db.execute("UPDATE t SET id = 9 WHERE NOT (x > 1)").unwrap();
            assert_eq!(ids("id = 9"), vec![9], "{mode:?}");
        }
    }

    #[test]
    fn integer_arithmetic_over_nulls_stays_integer_in_both_modes() {
        let t = Table::from_columns(vec![
            ("a", Column::int(vec![1, 2, 3])),
            (
                "b",
                Column::from_datums(&[Datum::Int(10), Datum::Null, Datum::Int(30)]),
            ),
        ]);
        for (mode, db) in both_modes(&[("t", t)]) {
            let int = |x| Datum::Int(x);
            let col = |sql: &str| first_column(&db, sql);
            assert_eq!(
                col("SELECT a + b FROM t"),
                [int(11), Datum::Null, int(33)],
                "{mode:?}"
            );
            assert_eq!(
                col("SELECT b - a FROM t"),
                [int(9), Datum::Null, int(27)],
                "{mode:?}"
            );
            assert_eq!(
                col("SELECT a * b FROM t"),
                [int(10), Datum::Null, int(90)],
                "{mode:?}"
            );
            // Division is Float, with or without NULLs.
            let div = [Datum::Float(10.0), Datum::Null, Datum::Float(10.0)];
            assert_eq!(col("SELECT b / a FROM t"), div, "{mode:?}");
        }
    }

    #[test]
    fn window_sums_share_one_sort_per_key_with_ties_nulls_and_nans_in_order() {
        use Datum::{Float as F, Null};
        let t = Table::from_columns(vec![
            (
                "k",
                Column::from_datums(&[F(2.0), Null, F(1.0), F(f64::NAN), F(2.0), F(3.0), Null]),
            ),
            (
                "j",
                Column::from_datums(&[
                    Datum::Int(3),
                    Datum::Int(1),
                    Null,
                    Datum::Int(1),
                    Datum::Int(2),
                    Datum::Int(3),
                    Datum::Int(0),
                ]),
            ),
            (
                "v",
                Column::float(vec![1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0]),
            ),
            (
                "w",
                Column::from_datums(&[F(10.0), Null, F(40.0), F(80.0), F(160.0), Null, F(640.0)]),
            ),
        ]);
        // Two nodes over `k`, one over `j`. Order by `k`: rows 2 (1.0),
        // 0 (2.0), 3 (NaN, equal to every key, so it stays between the
        // 2.0s it comes between in row order), 4 (2.0, after the tied row
        // 0), 5 (3.0), then the NULLs 1 and 6 last, in row order. Order by
        // `j`: rows 6, 1, 3 (tied with 1), 4, 0, 5 (tied with 0), then 2
        // (NULL). A NULL `w` adds nothing to its running sum.
        let want = [
            ("sv", [5.0, 63.0, 4.0, 13.0, 29.0, 61.0, 127.0]),
            ("sw", [50.0, 290.0, 40.0, 130.0, 290.0, 290.0, 930.0]),
            ("jv", [91.0, 66.0, 127.0, 74.0, 90.0, 123.0, 64.0]),
        ];
        for (mode, db) in both_modes(&[("t", t)]) {
            let t = db
                .query(
                    "SELECT SUM(v) OVER (ORDER BY k) AS sv, SUM(w) OVER (ORDER BY k) AS sw, \
                     SUM(v) OVER (ORDER BY j) AS jv FROM t",
                )
                .unwrap();
            for (name, sums) in &want {
                let got = t.column(None, name).unwrap();
                let got: Vec<Datum> = (0..got.len()).map(|i| got.get(i)).collect();
                assert_eq!(got, sums.map(F), "{name} {mode:?}");
            }
        }
    }

    #[test]
    fn arithmetic_result_type_comes_from_the_operand_types() {
        use Datum::{Float as F, Int as I, Null};
        let db = Database::in_memory();
        db.create_table(
            "t",
            Table::from_columns(vec![
                ("a", Column::int(vec![1, 2, 3])),
                ("c", Column::from_datums(&[I(10), Null, Null])),
                ("f", Column::float(vec![0.5, 0.0, 2.0])),
            ]),
        )
        .unwrap();
        let ints: [(&str, &[Datum]); 5] = [
            ("a + c FROM t", &[I(11), Null, Null]),
            ("a + c FROM t WHERE c IS NULL", &[Null, Null]),
            ("a * c FROM t WHERE a = 2", &[Null]),
            ("a - c FROM t WHERE a > 9", &[]),
            ("c - 1 FROM t WHERE c IS NULL", &[Null, Null]),
        ];
        let floats: [(&str, &[Datum]); 6] = [
            ("a / c FROM t WHERE c IS NULL", &[Null, Null]),
            ("c / a FROM t", &[F(10.0), Null, Null]),
            ("a / f FROM t", &[F(2.0), Null, F(1.5)]),
            ("a / 0 FROM t", &[Null, Null, Null]),
            ("c + f FROM t", &[F(10.5), Null, Null]),
            ("c * f FROM t WHERE c IS NULL", &[Null, Null]),
        ];
        // `+ - *` of two `Int`s is `Int` whether or not a row is NULL; `/`
        // and a `Float` operand make `Float`, and a zero divisor is NULL.
        let cases = (ints.iter().map(|c| (c, DataType::Int)))
            .chain(floats.iter().map(|c| (c, DataType::Float)));
        for ((sql, want), dtype) in cases {
            let t = db.query(&format!("SELECT {sql}")).unwrap();
            let col = &t.columns[0];
            assert_eq!(col.dtype(), dtype, "SELECT {sql}");
            let got: Vec<Datum> = (0..col.len()).map(|i| col.get(i)).collect();
            assert_eq!(got, *want, "SELECT {sql}");
        }
    }

    #[test]
    fn negation_and_coalesce_take_their_type_from_their_arguments() {
        use Datum::{Float as F, Int as I, Null, Str as S};
        let db = Database::in_memory();
        db.create_table(
            "u",
            Table::from_columns(vec![
                ("a", Column::int(vec![1, 2, 3])),
                ("c", Column::from_datums(&[I(10), Null, Null])),
                ("f", Column::from_datums(&[F(0.5), Null, F(2.0)])),
                ("s", Column::from_datums(&[S("x".into()), Null, Null])),
            ]),
        )
        .unwrap();
        let cases: [(&str, DataType, &[Datum]); 14] = [
            ("-c FROM u", DataType::Int, &[I(-10), Null, Null]),
            ("-c FROM u WHERE c IS NULL", DataType::Int, &[Null, Null]),
            ("-c FROM u WHERE a > 9", DataType::Int, &[]),
            ("-f FROM u WHERE f IS NULL", DataType::Float, &[Null]),
            (
                "COALESCE(c, c) FROM u WHERE c IS NULL",
                DataType::Int,
                &[Null, Null],
            ),
            ("COALESCE(c, c) FROM u WHERE a > 9", DataType::Int, &[]),
            ("COALESCE(c, a) FROM u", DataType::Int, &[I(10), I(2), I(3)]),
            (
                "COALESCE(c, 0) FROM u WHERE c IS NULL",
                DataType::Int,
                &[I(0), I(0)],
            ),
            // Int and Float mix to Float, whichever argument a row picks.
            (
                "COALESCE(c, f) FROM u",
                DataType::Float,
                &[F(10.0), Null, F(2.0)],
            ),
            (
                "COALESCE(c, f) FROM u WHERE a = 1",
                DataType::Float,
                &[F(10.0)],
            ),
            ("COALESCE(f, c) FROM u WHERE a > 9", DataType::Float, &[]),
            (
                "COALESCE(c, 0.5) FROM u WHERE a = 1",
                DataType::Float,
                &[F(10.0)],
            ),
            (
                "COALESCE(s, s) FROM u WHERE s IS NULL",
                DataType::Str,
                &[Null, Null],
            ),
            ("COALESCE(s, s) FROM u WHERE a > 9", DataType::Str, &[]),
        ];
        for (sql, dtype, want) in cases {
            let t = db.query(&format!("SELECT {sql}")).unwrap();
            let col = &t.columns[0];
            assert_eq!(col.dtype(), dtype, "SELECT {sql}");
            let got: Vec<Datum> = (0..col.len()).map(|i| col.get(i)).collect();
            assert_eq!(got, want, "SELECT {sql}");
        }
        assert!(matches!(
            db.query("SELECT -s FROM u WHERE s IS NULL"),
            Err(EngineError::TypeMismatch(_))
        ));
    }

    /// The columns of catalog table `name`, as stored.
    fn stored(db: &Database, name: &str) -> Vec<StoredColumn> {
        match db.catalog.read().get(name) {
            Some(Stored::Table { columns, .. }) => columns.clone(),
            _ => unreachable!("{name} is a catalog table"),
        }
    }

    /// The page chains of paged table `name`'s columns.
    fn chains(db: &Database, name: &str) -> Vec<crate::storage::PagedColumn> {
        (stored(db, name).into_iter())
            .map(|c| match c {
                StoredColumn::Paged(pc) => pc,
                _ => unreachable!("{name} is a paged table"),
            })
            .collect()
    }

    #[test]
    fn update_reads_and_restores_only_the_columns_it_names() {
        // Paged: one pin per page of `v`, none of `k`, whose chain stays.
        let dir = std::env::temp_dir().join(format!("jb_db_update_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let db = Database::new(EngineConfig {
            bufferpool_pages: 8,
            ..EngineConfig::paged(&dir)
        });
        let n = 20_000;
        let t = Table::from_columns(vec![
            ("k", Column::int((0..n).map(|i| i * 7919 % 1000).collect())),
            ("v", Column::float((0..n).map(|i| i as f64 * 0.5).collect())),
        ]);
        db.create_table("t", t).unwrap();
        let [k, v] = <[_; 2]>::try_from(chains(&db, "t")).unwrap();
        assert!(
            k.pages.len() > 1 && v.pages.len() > 8,
            "neither fits the pool"
        );
        let before = db.bufferpool_stats().unwrap();
        db.execute("UPDATE t SET v = v + 1.0").unwrap();
        let after = db.bufferpool_stats().unwrap();
        // A fresh page counts as a miss: old `v` read, new `v` written.
        let touched = (after.hits + after.misses) - (before.hits + before.misses);
        let now = chains(&db, "t");
        let v_pages = (v.pages.len() + now[1].pages.len()) as u64;
        assert_eq!(touched, v_pages, "v's pages, and no page of k");
        assert!(Arc::ptr_eq(&now[0].pages, &k.pages), "k keeps its chain");
        assert!(!Arc::ptr_eq(&now[1].pages, &v.pages));
        drop(db);
        let _ = std::fs::remove_dir_all(&dir);

        // D-mem: the untouched run-length `k` keeps its image, and only
        // the new `v` is encoded.
        let db = Database::in_memory();
        let t = Table::from_columns(vec![
            ("k", Column::int(vec![3; 500])),
            ("v", Column::float(vec![0.5; 500])),
        ]);
        db.create_table("t", t).unwrap();
        let image = |c: &StoredColumn| match c {
            StoredColumn::Rle { image, .. } => Arc::clone(image),
            _ => unreachable!("a run-length column"),
        };
        let k = image(&stored(&db, "t")[0]);
        let written = db.stats().compressed_bytes_written;
        db.execute("UPDATE t SET v = v + 1.0").unwrap();
        let new_v = crate::storage::codec::rle_len(&Column::float(vec![1.5; 500]));
        assert_eq!(db.stats().compressed_bytes_written - written, new_v as u64);
        let now = stored(&db, "t");
        assert!(Arc::ptr_eq(&image(&now[0]), &k), "k keeps its image");
        assert_eq!(image(&now[1]).len(), new_v);
    }

    /// `UPDATE`s racing `CREATE OR REPLACE`s of another row count never
    /// install a column into a table it does not fit, and the log replays
    /// to the state they leave.
    #[test]
    fn updates_racing_replacements_never_leave_a_ragged_table() {
        let dir = std::env::temp_dir().join(format!("jb_db_race_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let db = Database::new(EngineConfig::paged(&dir));
        let table = |n: usize| {
            Table::from_columns(vec![
                ("k", Column::int((0..n as i64).collect())),
                ("v", Column::float(vec![0.5; n])),
            ])
        };
        db.create_table("t", table(300)).unwrap();
        std::thread::scope(|s| {
            s.spawn(|| {
                for round in 0..40 {
                    db.create_or_replace_table("t", table(300 + round % 2 * 200))
                        .unwrap();
                }
            });
            for _ in 0..40 {
                match db.execute("UPDATE t SET v = v + 1.0") {
                    Ok(_) => {}
                    Err(EngineError::Other(m)) if m.contains("changed during UPDATE") => {}
                    Err(e) => panic!("{e}"),
                }
                let t = db.snapshot("t").unwrap();
                assert_eq!(t.columns[0].len(), t.columns[1].len(), "ragged");
            }
        });
        let state = |db: &Database| {
            let t = db.snapshot("t").unwrap();
            let (names, bytes) = bits(&t);
            (names.join(","), bytes)
        };
        let before = state(&db);
        drop(db);
        let db = Database::new(EngineConfig::paged(&dir));
        assert_eq!(state(&db), before);
        drop(db);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// An external table is updated as a new handle: a scan holding the
    /// old one sees none of the update, and every column is copied in.
    #[test]
    fn update_of_an_external_table_installs_a_new_handle() {
        let db = Database::in_memory();
        let t = Table::from_columns(vec![
            ("k", Column::int(vec![1, 2, 3])),
            ("v", Column::float(vec![0.5; 3])),
            ("w", Column::float(vec![2.0; 3])),
        ]);
        db.register_external("t", &t);
        let old = db.external("t").unwrap();
        let copied = db.stats().interop_bytes_copied;
        db.execute("UPDATE t SET v = v + 1.0, w = w * 2.0").unwrap();
        assert_eq!(
            db.stats().interop_bytes_copied - copied,
            t.byte_size() as u64
        );
        assert_eq!(old.column("v").unwrap(), Column::float(vec![0.5; 3]));
        assert_eq!(old.column("w").unwrap(), Column::float(vec![2.0; 3]));
        let new = db.external("t").unwrap();
        assert!(!Arc::ptr_eq(&old, &new));
        assert_eq!(new.column("v").unwrap(), Column::float(vec![1.5; 3]));
        assert_eq!(new.column("w").unwrap(), Column::float(vec![4.0; 3]));
        assert_eq!(new.column("k").unwrap(), Column::int(vec![1, 2, 3]));
    }

    #[test]
    fn swap_column_on_a_paged_engine_is_refused_and_changes_nothing() {
        let dir = std::env::temp_dir().join(format!("jb_db_swap_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let config = EngineConfig {
            allow_swap: true,
            ..EngineConfig::paged(&dir)
        };
        let db = Database::new(config.clone());
        db.create_table("f", plain_table(40)).unwrap();
        db.execute("CREATE TABLE g AS SELECT s + 1.0 AS s FROM f")
            .unwrap();
        let state = |db: &Database| {
            let owned = |name| {
                let t = db.snapshot(name).unwrap();
                let (names, bytes) = bits(&t);
                (names.join(","), bytes)
            };
            (owned("f"), owned("g"))
        };
        let (before, wal_bytes) = (state(&db), db.stats().wal_bytes);
        let err = db.execute("SWAP COLUMN f.s WITH g.s").unwrap_err();
        assert!(
            matches!(&err, EngineError::Other(m) if m.contains("paged storage")),
            "{err}"
        );
        assert_eq!(state(&db), before);
        assert_eq!((db.stats().wal_bytes, db.stats().swaps), (wal_bytes, 0));
        drop(db);
        let db = Database::new(config);
        assert_eq!(state(&db), before, "a reopen is the state before");
        drop(db);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A paged rewrite that passes `k` through shares `k`'s page chain:
    /// the log holds `k`'s image once, the page file does not grow with
    /// the rounds, and the chain lives as long as some table holds it.
    #[test]
    fn paged_rewrites_share_the_chains_of_the_columns_they_pass_through() {
        use crate::storage::codec;
        let dir = std::env::temp_dir().join(format!("jb_db_chains_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let db = Database::new(EngineConfig {
            bufferpool_pages: 8,
            ..EngineConfig::paged(&dir)
        });
        let n = 5000;
        // String keys: `k`'s image is larger than the rewritten `v`'s.
        let k = Column::str((0..n).map(|i| format!("key-{i:05}")).collect());
        let t = Table::from_columns(vec![("k", k.clone()), ("v", Column::float(vec![0.0; n]))]);
        db.create_table("t", t).unwrap();
        let mut k_image = Vec::new();
        codec::encode_stored_column(&mut k_image, &k);
        let store = db.storage.as_ref().unwrap();
        let chains = |name: &str| chains(&db, name);
        let (k_pages, v_pages) = (chains("t")[0].pages.len(), chains("t")[1].pages.len());
        for round in 0..20 {
            let before = db.stats().wal_bytes;
            db.execute("CREATE OR REPLACE TABLE t AS SELECT k, v + 1.0 AS v FROM t")
                .unwrap();
            let logged = db.stats().wal_bytes - before;
            assert!(
                logged < k_image.len() as u64,
                "round {round}: logged {logged} bytes, k's image is {}",
                k_image.len()
            );
            // `k`, the new `v`, and the old `v` until the table is replaced.
            let bound = (k_pages + 2 * v_pages) as u64;
            assert!(store.disk().pages_allocated() <= bound, "round {round}");
        }
        db.execute("CREATE TABLE u AS SELECT k FROM t").unwrap();
        assert!(Arc::ptr_eq(&chains("u")[0].pages, &chains("t")[0].pages));
        db.execute("DROP TABLE t").unwrap();
        assert_eq!(db.snapshot("u").unwrap().columns, [k], "u outlives t");
        let free = store.disk().pages_free();
        db.execute("DROP TABLE u").unwrap();
        assert_eq!(
            store.disk().pages_free(),
            free + k_pages,
            "k's pages came back"
        );
        drop(db);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn negating_i64_min_wraps_in_both_modes() {
        let t = Table::from_columns(vec![
            ("a", Column::int(vec![i64::MIN, 5])),
            (
                "b",
                Column::from_datums(&[Datum::Int(i64::MIN), Datum::Null]),
            ),
        ]);
        for (mode, db) in both_modes(&[("t", t)]) {
            let got = first_column(&db, "SELECT -a FROM t");
            assert_eq!(got, [Datum::Int(i64::MIN), Datum::Int(-5)], "{mode:?}");
            let got = first_column(&db, "SELECT -b FROM t");
            assert_eq!(got, [Datum::Int(i64::MIN), Datum::Null], "{mode:?}");
        }
    }

    #[test]
    fn keyless_join_pairs_rows_left_major() {
        let l = Table::from_columns(vec![("x", Column::int(vec![1, 2]))]);
        let r = Table::from_columns(vec![("y", Column::int(vec![10, 20, 30]))]);
        for (mode, db) in both_modes(&[("l", l), ("r", r)]) {
            let t = db.query("SELECT x, y FROM l JOIN r").unwrap();
            let pairs: Vec<(Datum, Datum)> = (0..t.num_rows())
                .map(|i| (t.columns[0].get(i), t.columns[1].get(i)))
                .collect();
            let want: Vec<(Datum, Datum)> = [(1, 10), (1, 20), (1, 30), (2, 10), (2, 20), (2, 30)]
                .into_iter()
                .map(|(x, y)| (Datum::Int(x), Datum::Int(y)))
                .collect();
            assert_eq!(pairs, want, "{mode:?}");
        }
    }

    /// A two-dimension star in the trainer's shape: the lifted fact
    /// `jb_fact` (keys, a feature, the label and the annotation `jb_s`),
    /// the semi-join key tables of two dimensions, and two cached messages.
    fn lifted_star() -> Database {
        let db = Database::in_memory();
        let tables = [
            (
                "jb_fact",
                vec![
                    ("d1_id", Column::int(vec![0, 1, 1, 2])),
                    ("d2_id", Column::int(vec![0, 0, 1, 1])),
                    ("f0", Column::float(vec![0.5, 1.5, 2.5, 3.5])),
                    ("y", Column::float(vec![1.0, 2.0, 3.0, 4.0])),
                    ("jb_s", Column::float(vec![-1.5, -0.5, 0.5, 1.5])),
                ],
            ),
            (
                "d1",
                vec![
                    ("d1_id", Column::int(vec![0, 1, 2])),
                    ("f1", Column::float(vec![1.0, 2.0, 3.0])),
                ],
            ),
            ("jb_semi_1", vec![("d1_id", Column::int(vec![1, 2]))]),
            ("jb_semi_2", vec![("d2_id", Column::int(vec![1]))]),
            (
                "jb_msg_1",
                vec![
                    ("d1_id", Column::int(vec![0, 1, 2])),
                    ("jb_c", Column::int(vec![1, 2, 1])),
                    ("jb_s", Column::float(vec![-1.5, 0.0, 1.5])),
                ],
            ),
            (
                "jb_msg_2",
                vec![
                    ("d1_id", Column::int(vec![1, 2])),
                    ("jb_c", Column::int(vec![1, 1])),
                    ("jb_s", Column::float(vec![0.5, 1.5])),
                ],
            ),
        ];
        for (name, cols) in tables {
            db.create_table(name, Table::from_columns(cols)).unwrap();
        }
        db
    }

    /// `explain` over the four statement shapes a training run sends,
    /// pinned whole: the choices they print are the engine's.
    #[test]
    fn explain_prints_the_trainers_four_statement_shapes() {
        let db = lifted_star();
        let explain = |sql: &str| db.explain(sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
        // A fact message behind the semi joins of the nodes above it: two
        // key probes, and a scan of the four columns it names.
        let message = "CREATE TABLE jb_msg_3 AS SELECT d1_id, SUM(1) AS jb_c, \
            SUM(jb_fact.jb_s) AS jb_s FROM jb_fact SEMI JOIN jb_semi_1 USING (d1_id) \
            SEMI JOIN jb_semi_2 USING (d2_id) GROUP BY d1_id";
        assert_eq!(explain(message), MESSAGE_PLAN);
        // The three-layer split query: a grouped join, prefix sums over
        // its groups, and the best split by top-1.
        let split = "SELECT val, c, s, s / c * s AS criteria FROM (SELECT val, \
            SUM(c) OVER (ORDER BY val) AS c, SUM(s) OVER (ORDER BY val) AS s FROM \
            (SELECT f1 AS val, SUM(jb_msg_1.jb_c) AS c, SUM(jb_msg_1.jb_s) AS s \
            FROM d1 JOIN jb_msg_1 USING (d1_id) WHERE f1 IS NOT NULL GROUP BY f1) AS g \
            ORDER BY val) AS w WHERE c >= 1.0 AND 4.0 - c >= 1.0 \
            ORDER BY criteria DESC LIMIT 1";
        assert_eq!(explain(split), SPLIT_PLAN);
        // The residual update: one CASE branch per leaf, whose dimension
        // predicates repeat — two distinct subqueries behind three INs.
        let update = "CREATE OR REPLACE TABLE jb_fact AS SELECT d1_id, d2_id, f0, y, \
            CASE WHEN d1_id IN (SELECT d1_id FROM d1 WHERE f1 <= 1.5) THEN jb_s - 0.25 \
            WHEN d1_id IN (SELECT d1_id FROM d1 WHERE f1 > 1.5) AND f0 <= 2.0 THEN jb_s + 0.5 \
            WHEN d1_id IN (SELECT d1_id FROM d1 WHERE f1 > 1.5) THEN jb_s - 0.75 \
            ELSE jb_s END AS jb_s FROM jb_fact";
        assert_eq!(explain(update), UPDATE_PLAN);
        // Sibling subtraction: the larger child's message is the parent's
        // less the smaller child's, key-aligned by a LEFT JOIN.
        let sibling = "CREATE TABLE jb_msg_4 AS SELECT d1_id, \
            jb_msg_1.jb_c - COALESCE(jb_msg_2.jb_c, 0) AS jb_c, \
            jb_msg_1.jb_s - COALESCE(jb_msg_2.jb_s, 0.0) AS jb_s \
            FROM jb_msg_1 LEFT JOIN jb_msg_2 USING (d1_id) \
            WHERE jb_msg_1.jb_c - COALESCE(jb_msg_2.jb_c, 0) > 0";
        assert_eq!(explain(sibling), SIBLING_PLAN);
        // Explaining runs nothing; running the statements works as planned.
        assert!(!db.has_table("jb_msg_3"));
        for sql in [message, split, update, sibling] {
            db.execute(sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
        }
        let split = db.query(split).unwrap();
        assert_eq!(split.num_rows(), 1);
        let msg = db
            .query("SELECT jb_c FROM jb_msg_4 ORDER BY d1_id")
            .unwrap();
        assert_eq!(msg.columns[0], Column::int(vec![1, 1]));
    }

    const MESSAGE_PLAN: &str = r#"Scan jb_fact [d1_id, d2_id, jb_s]
SemiProbe USING (d1_id)
  Scan jb_semi_1 [d1_id, d2_id, jb_s]
SemiProbe USING (d2_id)
  Scan jb_semi_2 [d1_id, d2_id, jb_s]
Aggregate [d1_id] [SUM(1), SUM(jb_fact.jb_s)] -> [__key0 AS d1_id, __agg0 AS jb_c, __agg1 AS jb_s] reads [d1_id, jb_s]
CreateAs jb_msg_3 or_replace=false
"#;
    const SPLIT_PLAN: &str = r#"Subquery w
  Subquery g
    Scan d1 [d1_id, f1, jb_c, jb_s]
    HashJoin Inner USING (d1_id)
      Scan jb_msg_1 [d1_id, f1, jb_c, jb_s]
    Filter [f1 IS NOT NULL]
    Aggregate [f1] [SUM(jb_msg_1.jb_c), SUM(jb_msg_1.jb_s)] -> [__key0 AS val, __agg0 AS c, __agg1 AS s] reads [f1, jb_c, jb_s]
  Project [val, SUM(c) OVER (ORDER BY val) AS c, SUM(s) OVER (ORDER BY val) AS s] reads [val, c, s]
  Sort [val]
Filter [c >= 1.0, 4.0 - c >= 1.0]
Project [val, c, s, s / c * s AS criteria] reads [val, c, s, criteria]
TopK 1 [criteria DESC]
"#;
    const UPDATE_PLAN: &str = r#"Scan jb_fact [d1_id, d2_id, f0, y, jb_s]
Project [d1_id, d2_id, f0, y, CASE WHEN d1_id IN (SELECT d1_id FROM d1 WHERE f1 <= 1.5) THEN jb_s - 0.25 WHEN d1_id IN (SELECT d1_id FROM d1 WHERE f1 > 1.5) AND f0 <= 2.0 THEN jb_s + 0.5 WHEN d1_id IN (SELECT d1_id FROM d1 WHERE f1 > 1.5) THEN jb_s - 0.75 ELSE jb_s END AS jb_s] reads [d1_id, d2_id, f0, y, jb_s]
CreateAs jb_fact or_replace=true
subquery $0: SELECT d1_id FROM d1 WHERE f1 <= 1.5
subquery $1: SELECT d1_id FROM d1 WHERE f1 > 1.5
"#;
    const SIBLING_PLAN: &str = r#"Scan jb_msg_1 [d1_id, jb_c, jb_s]
HashJoin Left USING (d1_id)
  Scan jb_msg_2 [d1_id, jb_c, jb_s]
Filter [jb_msg_1.jb_c - COALESCE(jb_msg_2.jb_c, 0) > 0]
Project [d1_id, jb_msg_1.jb_c - COALESCE(jb_msg_2.jb_c, 0) AS jb_c, jb_msg_1.jb_s - COALESCE(jb_msg_2.jb_s, 0.0) AS jb_s] reads [d1_id, jb_c, jb_s]
CreateAs jb_msg_4 or_replace=false
"#;
}
