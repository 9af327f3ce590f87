//! Pluggable SQL backends (the portability claim of paper Section 5).
//!
//! JoinBoost compiles training into vendor-neutral SPJA SQL; everything the
//! trainer needs from a DBMS is captured by the [`SqlBackend`] trait:
//! statement execution, bulk load/snapshot, schema lookups, temp-table
//! lifecycle, and a set of [`BackendCapabilities`] flags that gate the
//! optional extensions (column swap, dataframe interop, window functions).
//!
//! Four implementations ship with this crate:
//!
//! * [`EngineBackend`] — wraps one in-memory [`Database`] and hands it
//!   pre-parsed statements directly (the *AST fast path*; bit-identical to
//!   talking to the engine without the trait),
//! * [`SqlTextBackend`] — forces every statement through a
//!   `print ∘ parse ∘ print` round-trip before execution, proving end to
//!   end that the emitted SQL subset survives serialization to text (what
//!   a wire-protocol backend would send to a real DBMS),
//! * [`RemoteBackend`] — an engine hosted in *another process*, spoken to
//!   over the length-prefixed [`wire`] protocol (SQL as text, tables as
//!   framed columnar blocks); [`WireServer`] and the `shard_server`
//!   binary provide the server side,
//! * [`ShardedBackend`] — hash-partitions the fact relation across N
//!   engine instances, fans the per-node SPJA aggregates out to every
//!   shard and `⊕`-merges the partial semi-ring aggregates (exact by
//!   Definition 1 of the paper; see `DESIGN.md` § Backends for the
//!   floating-point side of that argument). Its shards sit behind the
//!   pluggable [`ShardTransport`] seam: in-process engines by default,
//!   [`RemoteConnection`]s for multi-*process* sharding over sockets —
//!   the fan-out, merge and split-pushdown logic is identical either way.
//!
//! [`Database`] itself also implements the trait, so existing code that
//! holds a `Database` keeps working unchanged: `&Database` coerces to
//! `&dyn SqlBackend` at every [`crate::Dataset::new`] call site.
//!
//! # Example
//!
//! ```
//! use joinboost::backend::{EngineBackend, SqlBackend, SqlTextBackend};
//!
//! let backend = EngineBackend::in_memory();
//! backend.execute("CREATE TABLE t AS SELECT 1 AS x").unwrap();
//! let sum = backend.query("SELECT SUM(x) AS s FROM t").unwrap();
//! assert_eq!(sum.scalar_f64("s").unwrap(), 1.0);
//!
//! // The text backend answers identically but round-trips the SQL text.
//! let text = SqlTextBackend::in_memory();
//! text.execute("CREATE TABLE t AS SELECT 1 AS x").unwrap();
//! assert_eq!(text.query("SELECT SUM(x) AS s FROM t").unwrap(),
//!            backend.query("SELECT SUM(x) AS s FROM t").unwrap());
//! assert!(text.round_trips() >= 2);
//! ```

mod client;
mod remote_backend;
mod serve_client;
mod server;
mod sharded;
pub mod split;
mod split_bounds;
pub mod wire;

pub use client::{RemoteConnection, RemoteConnectionBuilder, RemoteOptions, RetryPolicy};
pub use remote_backend::{RemoteBackend, RemoteBackendBuilder};
pub use serve_client::{JobStatus, ServeClient, ServeError};
pub use server::{ServeOptions, WireServer, WireServerBuilder};
pub use sharded::{PushdownConfig, ShardTransport, ShardedBackend, SplitOpen};
pub use wire::JobSpec;

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use joinboost_engine::interop::ExternalTable;
use joinboost_engine::{DataType, Database, EngineConfig, EngineError, Table};
use joinboost_sql::ast::Statement;
use joinboost_sql::parse_statement;

/// Result type of every backend operation.
///
/// Backend failures surface as [`EngineError`]s (a remote backend would map
/// its wire errors into [`EngineError::Other`]); the trainer wraps them
/// into [`crate::TrainError::Engine`] with query context attached.
pub type BackendResult<T = Table> = std::result::Result<T, EngineError>;

/// What a backend can do beyond plain SPJA SQL.
///
/// The trainer consults these flags instead of probing with trial
/// statements: unsupported [`crate::UpdateMethod`]s are rejected up front
/// with a clear error, and numeric splits (which need window prefix sums)
/// refuse backends without window-function support.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BackendCapabilities {
    /// `SUM(..) OVER (ORDER BY ..)` window prefix sums — required for
    /// numeric split evaluation (paper Example 2).
    pub window_functions: bool,
    /// The `SWAP COLUMN a.x WITH b.y` extension (`D-Swap`, Section 5.4).
    pub column_swap: bool,
    /// External dataframe storage with O(1) column replacement
    /// (the `DP` backend, Section 5.4).
    pub external_interop: bool,
    /// Number of data partitions; 1 for single-node backends.
    pub shards: usize,
}

impl BackendCapabilities {
    /// Capabilities of a single-node engine with the given configuration.
    pub fn of_engine(config: &EngineConfig) -> BackendCapabilities {
        BackendCapabilities {
            window_functions: true,
            column_swap: config.allow_swap,
            external_interop: true,
            shards: 1,
        }
    }
}

/// Observable work done by a backend, in one vocabulary for every
/// implementation (the unified successor of the engine's `DbStats`, the
/// sharded backend's fan-out counters and the text backend's
/// `round_trips()`): experiments and examples report any backend's work
/// through [`SqlBackend::stats`] without downcasting.
///
/// Single-node backends leave the distribution counters at zero; the
/// text backend is the only one that bumps `text_round_trips`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BackendStats {
    /// Statements executed (every kind, `SELECT`s included). For the
    /// sharded backend this counts *logical* statements — one per
    /// routing decision, window/argmax layers included — not the
    /// internal temp-table bookkeeping of its merge paths.
    pub statements: u64,
    /// `SELECT`/`CREATE TABLE AS` queries executed.
    pub selects: u64,
    /// `SELECT`s fanned out to every shard and `⊕`-merged.
    pub fanout_selects: u64,
    /// Statements broadcast to every shard (DDL, updates on sharded data).
    pub broadcast_statements: u64,
    /// Statements executed on replicated tables (coordinator + shards).
    pub replicated_statements: u64,
    /// Queries answered by the coordinator alone.
    pub coordinator_selects: u64,
    /// Split queries evaluated shard-locally (boundary summaries + top-k
    /// candidates shipped instead of full per-value aggregates).
    pub pushdown_splits: u64,
    /// Summary rounds executed across all pushdown splits — the
    /// denominator that turns split wire volume into *per-round* volume.
    pub split_rounds: u64,
    /// Rows moved shard → coordinator by gathers, merges, summaries and
    /// samples — the shuffle volume of the paper's multi-node experiments.
    pub rows_shipped: u64,
    /// Statements that survived a `print ∘ parse ∘ print` round-trip.
    pub text_round_trips: u64,
    /// Bytes written to remote sockets (framing included). Zero for
    /// in-process backends — together with `bytes_received` this turns
    /// `rows_shipped` into *measured* wire volume on remote transports.
    pub bytes_sent: u64,
    /// Bytes read back from remote sockets (framing included).
    pub bytes_received: u64,
    /// The subset of `bytes_sent` carrying split-protocol frames
    /// (open/boundaries/summaries/refine/fetch) — divided by
    /// `split_rounds` this is the per-round request volume of
    /// distributed split evaluation.
    pub split_bytes_sent: u64,
    /// The subset of `bytes_received` carrying split-protocol replies —
    /// divided by `split_rounds`, the per-round wire volume the
    /// delta encoding exists to shrink.
    pub split_bytes_received: u64,
}

/// A DBMS seen through JoinBoost's eyes.
///
/// The trainer only ever talks to this trait ([`crate::Dataset`] stores a
/// `&dyn SqlBackend`), so porting JoinBoost to a new DBMS means
/// implementing these methods — the SQL it must execute is the
/// vendor-neutral subset of `joinboost-sql`.
///
/// Training hands every statement over as an AST through
/// [`SqlBackend::execute_ast`]; [`SqlBackend::execute`] is the text entry
/// point for users and for ports that only speak SQL text, which need
/// implement nothing else — the default `execute_ast` prints the AST and
/// calls it.
///
/// Implementations must be [`Send`] + [`Sync`]: split queries run on
/// worker threads (Section 5.5.3) and random forests train trees in
/// parallel.
///
/// # Example
///
/// ```
/// use joinboost::backend::{ShardedBackend, SqlBackend};
/// use joinboost_engine::{Column, EngineConfig, Table};
///
/// // Two engine "machines"; `fact` is hash-partitioned on `k`.
/// let backend = ShardedBackend::new(2, EngineConfig::duckdb_mem(), "fact", "k");
/// backend
///     .create_table(
///         "fact",
///         Table::from_columns(vec![
///             ("k", Column::int(vec![1, 2, 3, 4])),
///             ("y", Column::float(vec![1.0, 2.0, 3.0, 4.0])),
///         ]),
///     )
///     .unwrap();
/// // The grouped aggregate fans out to both shards; the partial sums are
/// // ⊕-merged — same answer as a single-node engine.
/// let t = backend.query("SELECT k, SUM(y) AS s FROM fact GROUP BY k").unwrap();
/// assert_eq!(t.num_rows(), 4);
/// assert_eq!(backend.capabilities().shards, 2);
/// ```
pub trait SqlBackend: Send + Sync {
    /// Short human-readable backend name (used in stats and reports).
    fn name(&self) -> &str;

    /// What this backend supports beyond plain SPJA SQL.
    fn capabilities(&self) -> BackendCapabilities;

    /// Execute one SQL statement given as text; `SELECT` returns its
    /// result, other statements return an empty table.
    fn execute(&self, sql: &str) -> BackendResult;

    /// Execute a pre-parsed statement — how training issues every
    /// statement. The default prints the AST and calls
    /// [`SqlBackend::execute`]; backends that can run an AST directly
    /// override it to skip the print and the re-parse.
    fn execute_ast(&self, stmt: &Statement) -> BackendResult {
        self.execute(&stmt.to_string())
    }

    /// Convenience alias of [`SqlBackend::execute`] for `SELECT`s.
    fn query(&self, sql: &str) -> BackendResult {
        self.execute(sql)
    }

    /// Bulk-load a table built in Rust under the given name.
    fn create_table(&self, name: &str, table: Table) -> BackendResult<()>;

    /// Materialize a full scan of a table (a sharded backend gathers and
    /// concatenates its partitions in shard order).
    fn snapshot(&self, name: &str) -> BackendResult<Table>;

    /// Column names of a table (schema lookup, no data copied).
    fn column_names(&self, table: &str) -> BackendResult<Vec<String>>;

    /// Data type of one column (schema lookup).
    fn column_dtype(&self, table: &str, column: &str) -> BackendResult<DataType>;

    /// Does a table with this name exist?
    fn has_table(&self, name: &str) -> bool;

    /// Number of rows in a table (summed over shards when partitioned).
    fn row_count(&self, name: &str) -> BackendResult<usize>;

    /// Bulk-load a table that should be hash-partitioned on `key`
    /// wherever the backend is partitioned (deployed message tables of
    /// [`crate::serve`] use this so the fact dictionary lives with the
    /// fact partitions). Single-node backends ignore the key.
    fn create_partitioned_table(&self, name: &str, table: Table, key: &str) -> BackendResult<()> {
        let _ = key;
        self.create_table(name, table)
    }

    /// Score a batch of predict keys against deployed message tables
    /// (see [`crate::serve`]): `(found, score)` per key, scores starting
    /// from the model's initial score. The default loads the spec's
    /// tables through [`SqlBackend::snapshot`] into a
    /// [`crate::serve::MessageIndex`]; partitioned backends override it
    /// to evaluate shard partials where the fact partitions live and
    /// `⊕`-merge, which the dyadic leaf grid keeps bit-identical.
    fn predict_batch(
        &self,
        spec: &crate::serve::ScorerSpec,
        keys: &[i64],
    ) -> BackendResult<Vec<(bool, f64)>> {
        let idx = crate::serve::MessageIndex::load(spec, &mut |n| self.snapshot(n))?;
        idx.eval_batch(keys, spec.init_score)
    }

    /// Gather the rows at the given positions of the table's
    /// [`snapshot`](SqlBackend::snapshot) order, in the given index order
    /// (random-forest row sampling). A partitioned backend overrides this
    /// to take each row from the shard that owns it and ship only the
    /// sample — not whole partitions.
    fn gather_rows(&self, name: &str, rows: &[u32]) -> BackendResult<Table> {
        Ok(self.snapshot(name)?.take(rows))
    }

    /// Run `f` against every partition of `name`, *where the partition
    /// lives*: `f` receives the partition index and the partition's rows
    /// and returns the (small) table to ship back; results come back in
    /// partition order. Single-node backends present one partition — the
    /// whole table. Partitioned backends count only the returned rows as
    /// shipped, which is what makes per-shard ancestral sampling a
    /// ship-messages-not-scans operation.
    fn map_partitions(
        &self,
        name: &str,
        f: &mut dyn FnMut(usize, &Table) -> BackendResult<Table>,
    ) -> BackendResult<Vec<Table>> {
        Ok(vec![f(0, &self.snapshot(name)?)?])
    }

    /// Snapshot of the backend's work counters. The default reports a
    /// backend that counts nothing; all bundled implementations override
    /// it (see [`BackendStats`]).
    fn stats(&self) -> BackendStats {
        BackendStats::default()
    }

    /// Temp-table lifecycle: drop a (possibly already dropped) table.
    /// [`crate::Dataset`] calls this for every registered temp table.
    fn drop_table_if_exists(&self, name: &str) -> BackendResult<()> {
        self.execute_ast(&Statement::DropTable {
            name: name.to_string(),
            if_exists: true,
        })
        .map(|_| ())
    }

    /// Register (or replace) a table held in external dataframe storage
    /// (the `DP` update path). Backends without
    /// [`BackendCapabilities::external_interop`] keep the default, which
    /// reports the capability gap.
    fn register_external(&self, name: &str, table: &Table) -> BackendResult<()> {
        let _ = (name, table);
        Err(unsupported(self.name(), "external dataframe storage"))
    }

    /// Handle to an external table for O(1) column replacement.
    fn external(&self, name: &str) -> BackendResult<Arc<ExternalTable>> {
        let _ = name;
        Err(unsupported(self.name(), "external dataframe storage"))
    }
}

fn unsupported(backend: &str, what: &str) -> EngineError {
    EngineError::Other(format!("backend {backend} does not support {what}"))
}

/// [`BackendStats`] view of a single engine's `DbStats`.
fn engine_stats(db: &Database) -> BackendStats {
    let s = db.stats();
    BackendStats {
        statements: s.statements,
        selects: s.queries,
        ..BackendStats::default()
    }
}

// ---------------------------------------------------------------------------
// Database: every engine instance is itself a backend (AST fast path).
// ---------------------------------------------------------------------------

impl SqlBackend for Database {
    fn name(&self) -> &str {
        "engine"
    }

    fn capabilities(&self) -> BackendCapabilities {
        BackendCapabilities::of_engine(self.config())
    }

    fn execute(&self, sql: &str) -> BackendResult {
        Database::execute(self, sql)
    }

    fn execute_ast(&self, stmt: &Statement) -> BackendResult {
        // AST fast path: hand the statement to the executor directly, no
        // print + re-parse.
        Database::execute_statement(self, stmt)
    }

    fn create_table(&self, name: &str, table: Table) -> BackendResult<()> {
        Database::create_table(self, name, table)
    }

    fn snapshot(&self, name: &str) -> BackendResult<Table> {
        Database::snapshot(self, name)
    }

    fn column_names(&self, table: &str) -> BackendResult<Vec<String>> {
        Database::column_names(self, table)
    }

    fn column_dtype(&self, table: &str, column: &str) -> BackendResult<DataType> {
        Database::column_dtype(self, table, column)
    }

    fn has_table(&self, name: &str) -> bool {
        Database::has_table(self, name)
    }

    fn row_count(&self, name: &str) -> BackendResult<usize> {
        Database::row_count(self, name)
    }

    fn stats(&self) -> BackendStats {
        engine_stats(self)
    }

    fn register_external(&self, name: &str, table: &Table) -> BackendResult<()> {
        Database::register_external(self, name, table);
        Ok(())
    }

    fn external(&self, name: &str) -> BackendResult<Arc<ExternalTable>> {
        Database::external(self, name)
    }
}

// ---------------------------------------------------------------------------
// EngineBackend: an owning wrapper around one engine instance.
// ---------------------------------------------------------------------------

/// The reference backend: one in-memory engine, statements executed from
/// their AST without ever being printed to text.
///
/// Functionally identical to handing a bare [`Database`] to
/// [`crate::Dataset::new`]; the wrapper exists so backend line-ups
/// (examples, experiments) can own their engine and label it.
pub struct EngineBackend {
    db: Database,
    label: String,
}

impl EngineBackend {
    /// Open an engine with the given configuration.
    pub fn new(config: EngineConfig) -> EngineBackend {
        EngineBackend {
            db: Database::new(config),
            label: "engine".to_string(),
        }
    }

    /// In-memory columnar engine with default (DuckDB-like) settings.
    pub fn in_memory() -> EngineBackend {
        EngineBackend::new(EngineConfig::duckdb_mem())
    }

    /// Same backend under a custom display name.
    pub fn labeled(config: EngineConfig, label: impl Into<String>) -> EngineBackend {
        EngineBackend {
            db: Database::new(config),
            label: label.into(),
        }
    }

    /// The wrapped engine (stats, catalog inspection).
    pub fn database(&self) -> &Database {
        &self.db
    }
}

impl SqlBackend for EngineBackend {
    fn name(&self) -> &str {
        &self.label
    }

    fn capabilities(&self) -> BackendCapabilities {
        BackendCapabilities::of_engine(self.db.config())
    }

    fn execute(&self, sql: &str) -> BackendResult {
        self.db.execute(sql)
    }

    fn execute_ast(&self, stmt: &Statement) -> BackendResult {
        self.db.execute_statement(stmt)
    }

    fn create_table(&self, name: &str, table: Table) -> BackendResult<()> {
        self.db.create_table(name, table)
    }

    fn snapshot(&self, name: &str) -> BackendResult<Table> {
        self.db.snapshot(name)
    }

    fn column_names(&self, table: &str) -> BackendResult<Vec<String>> {
        self.db.column_names(table)
    }

    fn column_dtype(&self, table: &str, column: &str) -> BackendResult<DataType> {
        self.db.column_dtype(table, column)
    }

    fn has_table(&self, name: &str) -> bool {
        self.db.has_table(name)
    }

    fn row_count(&self, name: &str) -> BackendResult<usize> {
        self.db.row_count(name)
    }

    fn stats(&self) -> BackendStats {
        engine_stats(&self.db)
    }

    fn register_external(&self, name: &str, table: &Table) -> BackendResult<()> {
        self.db.register_external(name, table);
        Ok(())
    }

    fn external(&self, name: &str) -> BackendResult<Arc<ExternalTable>> {
        self.db.external(name)
    }
}

// ---------------------------------------------------------------------------
// SqlTextBackend: everything goes through SQL text.
// ---------------------------------------------------------------------------

/// A backend that forces every statement through SQL *text*.
///
/// Statements arriving as text are parsed, printed back, and re-parsed;
/// statements arriving as ASTs are printed and parsed. If the second print
/// ever differs from the first, execution fails — so a green training run
/// on this backend proves the whole emitted SQL subset round-trips
/// (`print ∘ parse ∘ print = print`), which is exactly what a remote
/// backend speaking a wire protocol to a real DBMS relies on.
pub struct SqlTextBackend {
    db: Database,
    label: String,
    round_trips: AtomicU64,
}

impl SqlTextBackend {
    /// Open a text-path backend over an engine with the given config.
    pub fn new(config: EngineConfig) -> SqlTextBackend {
        SqlTextBackend {
            db: Database::new(config),
            label: "sql-text".to_string(),
            round_trips: AtomicU64::new(0),
        }
    }

    /// In-memory engine behind the text path.
    pub fn in_memory() -> SqlTextBackend {
        SqlTextBackend::new(EngineConfig::duckdb_mem())
    }

    /// The wrapped engine (stats, catalog inspection).
    pub fn database(&self) -> &Database {
        &self.db
    }

    /// How many statements survived the print/parse round-trip so far.
    pub fn round_trips(&self) -> u64 {
        self.round_trips.load(Ordering::Relaxed)
    }

    /// Print → parse → print; verify the fixed point; execute.
    fn round_trip_and_run(&self, stmt: &Statement) -> BackendResult {
        let printed = stmt.to_string();
        let reparsed = parse_statement(&printed)
            .map_err(|e| EngineError::Other(format!("emitted SQL failed to re-parse: {e}")))?;
        let reprinted = reparsed.to_string();
        if reprinted != printed {
            return Err(EngineError::Other(format!(
                "SQL text round-trip diverged:\n  first:  {printed}\n  second: {reprinted}"
            )));
        }
        self.round_trips.fetch_add(1, Ordering::Relaxed);
        self.db.execute_statement(&reparsed)
    }
}

impl SqlBackend for SqlTextBackend {
    fn name(&self) -> &str {
        &self.label
    }

    fn capabilities(&self) -> BackendCapabilities {
        BackendCapabilities::of_engine(self.db.config())
    }

    fn execute(&self, sql: &str) -> BackendResult {
        let stmt = parse_statement(sql)?;
        self.round_trip_and_run(&stmt)
    }

    fn execute_ast(&self, stmt: &Statement) -> BackendResult {
        self.round_trip_and_run(stmt)
    }

    fn create_table(&self, name: &str, table: Table) -> BackendResult<()> {
        self.db.create_table(name, table)
    }

    fn snapshot(&self, name: &str) -> BackendResult<Table> {
        self.db.snapshot(name)
    }

    fn column_names(&self, table: &str) -> BackendResult<Vec<String>> {
        self.db.column_names(table)
    }

    fn column_dtype(&self, table: &str, column: &str) -> BackendResult<DataType> {
        self.db.column_dtype(table, column)
    }

    fn has_table(&self, name: &str) -> bool {
        self.db.has_table(name)
    }

    fn row_count(&self, name: &str) -> BackendResult<usize> {
        self.db.row_count(name)
    }

    fn stats(&self) -> BackendStats {
        BackendStats {
            text_round_trips: self.round_trips(),
            ..engine_stats(&self.db)
        }
    }

    fn register_external(&self, name: &str, table: &Table) -> BackendResult<()> {
        self.db.register_external(name, table);
        Ok(())
    }

    fn external(&self, name: &str) -> BackendResult<Arc<ExternalTable>> {
        self.db.external(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use joinboost_engine::Column;

    fn seed(backend: &dyn SqlBackend) {
        backend
            .create_table(
                "r",
                Table::from_columns(vec![
                    ("a", Column::int(vec![1, 1, 2])),
                    ("y", Column::float(vec![1.0, 2.0, 4.0])),
                ]),
            )
            .unwrap();
    }

    #[test]
    fn engine_and_text_backends_agree() {
        let engine = EngineBackend::in_memory();
        let text = SqlTextBackend::in_memory();
        for b in [&engine as &dyn SqlBackend, &text as &dyn SqlBackend] {
            seed(b);
            b.execute("CREATE TABLE g AS SELECT a, SUM(y) AS s FROM r GROUP BY a")
                .unwrap();
        }
        let q = "SELECT a, s FROM g ORDER BY a";
        assert_eq!(engine.query(q).unwrap(), text.query(q).unwrap());
        assert!(text.round_trips() >= 2);
    }

    #[test]
    fn default_methods_cover_lifecycle_and_interop_gaps() {
        let b = EngineBackend::in_memory();
        seed(&b);
        assert!(b.has_table("r"));
        assert_eq!(b.row_count("r").unwrap(), 3);
        assert_eq!(b.column_names("r").unwrap(), vec!["a", "y"]);
        assert_eq!(b.column_dtype("r", "y").unwrap(), DataType::Float);
        b.drop_table_if_exists("r").unwrap();
        b.drop_table_if_exists("r").unwrap();
        assert!(!b.has_table("r"));
    }

    #[test]
    fn text_backend_runs_ast_statements_via_text() {
        let b = SqlTextBackend::in_memory();
        seed(&b);
        let stmt = parse_statement("SELECT SUM(y) AS s FROM r").unwrap();
        let t = b.execute_ast(&stmt).unwrap();
        assert_eq!(t.scalar_f64("s").unwrap(), 7.0);
        assert_eq!(b.round_trips(), 1);
    }
}
