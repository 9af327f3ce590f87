//! Wrappers that time the program's public seams from outside:
//! [`TimedBackend`] around any [`SqlBackend`], [`TimedTransport`] around
//! a shard's [`RemoteConnection`], [`TimedSplitHandle`] around the split
//! protocol handle a transport opens. Each forwards every call unchanged
//! and records one span per call, so a run through them trains the same
//! model and reports the same `BackendStats` as a run without them (the
//! transparency tests assert that). They are installed only in the traced
//! repetition; end-to-end metrics never come from it.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use joinboost::backend::split::{IntervalSummary, SplitHandle, SplitSpec};
use joinboost::backend::{
    BackendCapabilities, BackendResult, BackendStats, RemoteConnection, ShardTransport, SplitOpen,
    SqlBackend,
};
use joinboost::serve::ScorerSpec;
use joinboost_engine::interop::ExternalTable;
use joinboost_engine::{DataType, Database, Datum, Table};
use joinboost_sql::ast::Statement;

use crate::trace::{Recorder, Span, SpanId};

/// What a backend call is for. Statements are classified by their AST
/// variant and target table; the other `SqlBackend` methods by what they
/// do.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Class {
    /// A `SELECT`: split queries, node totals, bin ranges.
    Split,
    /// `CREATE TABLE jb_*`: a message (or absorbed) table.
    Message,
    /// `UPDATE`, `SWAP COLUMN`, and creating or rewriting the lifted fact
    /// table — the paper's residual update, plus the one-time lift.
    Update,
    /// `DROP TABLE` and `drop_table_if_exists`.
    Cleanup,
    /// Schema lookups: `column_names`, `column_dtype`, `has_table`, `row_count`.
    Meta,
    /// `create_table` / `create_partitioned_table` bulk loads.
    Load,
    /// `snapshot`, `gather_rows`, `map_partitions`, `predict_batch`,
    /// external storage: not used by GBM training.
    Other,
}

impl Class {
    pub const ALL: [Class; 7] = [
        Class::Split,
        Class::Message,
        Class::Update,
        Class::Cleanup,
        Class::Meta,
        Class::Load,
        Class::Other,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Class::Split => "split",
            Class::Message => "message",
            Class::Update => "update",
            Class::Cleanup => "cleanup",
            Class::Meta => "meta",
            Class::Load => "load",
            Class::Other => "other",
        }
    }
}

/// The trainer names its lifted fact table `jb_<dataset>_fact_<n>`
/// (`Dataset::fresh_table("fact")`).
fn is_lifted_fact(table: &str) -> bool {
    let t = table.to_ascii_lowercase();
    t.starts_with("jb_") && t.contains("_fact_")
}

/// Class of a parsed statement.
pub fn classify(stmt: &Statement) -> Class {
    match stmt {
        Statement::Select(_) => Class::Split,
        Statement::CreateTableAs { name, .. } if is_lifted_fact(name) => Class::Update,
        Statement::CreateTableAs { .. } => Class::Message,
        Statement::Update { .. } | Statement::SwapColumn { .. } => Class::Update,
        Statement::DropTable { .. } => Class::Cleanup,
    }
}

/// Class of a statement that arrives as text, read off its leading
/// keywords so the traced call pays no parse. Agrees with [`classify`]
/// on everything the printer emits (a unit test checks that).
pub fn classify_text(sql: &str) -> Class {
    let mut words = sql.split_whitespace();
    let first = words.next().unwrap_or("").to_ascii_uppercase();
    match first.as_str() {
        "SELECT" => Class::Split,
        "UPDATE" | "SWAP" => Class::Update,
        "DROP" => Class::Cleanup,
        "CREATE" => {
            // CREATE [OR REPLACE] TABLE <name> AS ...
            let name = words
                .find(|w| {
                    !["OR", "REPLACE", "TABLE"]
                        .iter()
                        .any(|k| w.eq_ignore_ascii_case(k))
                })
                .unwrap_or("");
            if is_lifted_fact(name) {
                Class::Update
            } else {
                Class::Message
            }
        }
        _ => Class::Other,
    }
}

/// One statement the trainer issued, as it arrived at the seam.
#[derive(Debug, Clone)]
pub enum Logged {
    Text(String),
    Ast(Box<Statement>),
}

/// Counters of the paged engine sampled after each call. The WAL counters
/// restart whenever a checkpoint truncates the log, so totals over a run
/// have to be accumulated call by call.
#[derive(Debug, Default, Clone, Copy)]
pub struct WalTotals {
    /// Bytes appended to the log. A lower bound: the statement that trips
    /// a checkpoint is truncated away before it can be sampled.
    pub bytes: u64,
    /// Records appended (same caveat).
    pub records: u64,
    /// Calls after which the log had moved: one per committed write
    /// statement, and the paged engine fsyncs once per commit.
    pub commits: u64,
    last_bytes: u64,
    last_records: u64,
}

impl WalTotals {
    fn sample(&mut self, db: &Database) {
        let s = db.stats();
        if s.wal_bytes == self.last_bytes && s.wal_records == self.last_records {
            return;
        }
        self.commits += 1;
        // A smaller reading means the log was truncated in between: what
        // is there now was all written since.
        self.bytes += s
            .wal_bytes
            .checked_sub(self.last_bytes)
            .unwrap_or(s.wal_bytes);
        self.records += s
            .wal_records
            .checked_sub(self.last_records)
            .unwrap_or(s.wal_records);
        self.last_bytes = s.wal_bytes;
        self.last_records = s.wal_records;
    }
}

/// A [`SqlBackend`] that forwards to `inner` and records one `backend`
/// span per call.
pub struct TimedBackend<'a> {
    inner: &'a dyn SqlBackend,
    rec: &'a Recorder,
    /// Harness span that backend calls outside training hang off
    /// (`setup` while loading, `teardown` while cleaning up).
    fallback: AtomicU64,
    log: Mutex<Vec<Logged>>,
    rows_returned: AtomicU64,
    failed: AtomicU64,
    /// The in-process engine behind `inner`, when there is one to sample.
    probe: Option<&'a Database>,
    wal: Mutex<WalTotals>,
}

impl<'a> TimedBackend<'a> {
    pub fn new(
        inner: &'a dyn SqlBackend,
        rec: &'a Recorder,
        probe: Option<&'a Database>,
    ) -> TimedBackend<'a> {
        let mut wal = WalTotals::default();
        if let Some(db) = probe {
            let s = db.stats();
            (wal.last_bytes, wal.last_records) = (s.wal_bytes, s.wal_records);
        }
        TimedBackend {
            inner,
            rec,
            fallback: AtomicU64::new(0),
            log: Mutex::new(Vec::new()),
            rows_returned: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            probe,
            wal: Mutex::new(wal),
        }
    }

    /// Name the harness span that calls outside training belong to.
    pub fn set_fallback(&self, span: SpanId) {
        self.fallback.store(span, Ordering::Relaxed);
    }

    /// Statements seen so far, in order.
    pub fn take_log(&self) -> Vec<Logged> {
        std::mem::take(&mut self.log.lock().expect("log lock"))
    }

    /// Rows in the tables returned by statements.
    pub fn rows_returned(&self) -> u64 {
        self.rows_returned.load(Ordering::Relaxed)
    }

    /// Calls that returned an error.
    pub fn failed(&self) -> u64 {
        self.failed.load(Ordering::Relaxed)
    }

    /// WAL totals accumulated over the calls made so far.
    pub fn wal_totals(&self) -> WalTotals {
        *self.wal.lock().expect("wal lock")
    }

    fn timed<T>(
        &self,
        name: &'static str,
        class: Class,
        call: impl FnOnce() -> BackendResult<T>,
    ) -> BackendResult<T> {
        let (id, parent, iteration, start_ns) = self
            .rec
            .enter_backend(self.fallback.load(Ordering::Relaxed));
        let out = call();
        let end_ns = self.rec.now_ns();
        self.rec.leave_backend();
        self.rec.push(Span {
            id,
            parent,
            layer: "backend",
            name,
            class: class.name(),
            shard: -1,
            iteration,
            start_ns,
            end_ns,
        });
        if out.is_err() {
            self.failed.fetch_add(1, Ordering::Relaxed);
        }
        if let Some(db) = self.probe {
            self.wal.lock().expect("wal lock").sample(db);
        }
        out
    }

    fn timed_table(
        &self,
        name: &'static str,
        class: Class,
        call: impl FnOnce() -> BackendResult,
    ) -> BackendResult {
        let out = self.timed(name, class, call);
        if let Ok(t) = &out {
            self.rows_returned
                .fetch_add(t.num_rows() as u64, Ordering::Relaxed);
        }
        out
    }
}

impl SqlBackend for TimedBackend<'_> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn capabilities(&self) -> BackendCapabilities {
        self.inner.capabilities()
    }

    fn execute(&self, sql: &str) -> BackendResult {
        self.log
            .lock()
            .expect("log lock")
            .push(Logged::Text(sql.to_string()));
        self.timed_table("execute", classify_text(sql), || self.inner.execute(sql))
    }

    fn execute_ast(&self, stmt: &Statement) -> BackendResult {
        self.log
            .lock()
            .expect("log lock")
            .push(Logged::Ast(Box::new(stmt.clone())));
        self.timed_table("execute_ast", classify(stmt), || {
            self.inner.execute_ast(stmt)
        })
    }

    fn query(&self, sql: &str) -> BackendResult {
        self.log
            .lock()
            .expect("log lock")
            .push(Logged::Text(sql.to_string()));
        self.timed_table("query", classify_text(sql), || self.inner.query(sql))
    }

    fn create_table(&self, name: &str, table: Table) -> BackendResult<()> {
        self.timed("create_table", Class::Load, || {
            self.inner.create_table(name, table)
        })
    }

    fn snapshot(&self, name: &str) -> BackendResult<Table> {
        self.timed_table("snapshot", Class::Other, || self.inner.snapshot(name))
    }

    fn column_names(&self, table: &str) -> BackendResult<Vec<String>> {
        self.timed("column_names", Class::Meta, || {
            self.inner.column_names(table)
        })
    }

    fn column_dtype(&self, table: &str, column: &str) -> BackendResult<DataType> {
        self.timed("column_dtype", Class::Meta, || {
            self.inner.column_dtype(table, column)
        })
    }

    fn has_table(&self, name: &str) -> bool {
        self.timed("has_table", Class::Meta, || Ok(self.inner.has_table(name)))
            .unwrap_or(false)
    }

    fn row_count(&self, name: &str) -> BackendResult<usize> {
        self.timed("row_count", Class::Meta, || self.inner.row_count(name))
    }

    fn create_partitioned_table(&self, name: &str, table: Table, key: &str) -> BackendResult<()> {
        self.timed("create_partitioned_table", Class::Load, || {
            self.inner.create_partitioned_table(name, table, key)
        })
    }

    fn predict_batch(&self, spec: &ScorerSpec, keys: &[i64]) -> BackendResult<Vec<(bool, f64)>> {
        self.timed("predict_batch", Class::Other, || {
            self.inner.predict_batch(spec, keys)
        })
    }

    fn gather_rows(&self, name: &str, rows: &[u32]) -> BackendResult<Table> {
        self.timed_table("gather_rows", Class::Other, || {
            self.inner.gather_rows(name, rows)
        })
    }

    fn map_partitions(
        &self,
        name: &str,
        f: &mut dyn FnMut(usize, &Table) -> BackendResult<Table>,
    ) -> BackendResult<Vec<Table>> {
        self.timed("map_partitions", Class::Other, || {
            self.inner.map_partitions(name, f)
        })
    }

    fn stats(&self) -> BackendStats {
        self.inner.stats()
    }

    fn drop_table_if_exists(&self, name: &str) -> BackendResult<()> {
        self.timed("drop_table_if_exists", Class::Cleanup, || {
            self.inner.drop_table_if_exists(name)
        })
    }

    fn register_external(&self, name: &str, table: &Table) -> BackendResult<()> {
        self.timed("register_external", Class::Other, || {
            self.inner.register_external(name, table)
        })
    }

    fn external(&self, name: &str) -> BackendResult<Arc<ExternalTable>> {
        self.timed("external", Class::Other, || self.inner.external(name))
    }
}

/// A shard transport that forwards to a [`RemoteConnection`] and records
/// one `remote` span per call, tagged with its shard. The connection is
/// shared (`Arc`) so the harness can read its request and retry counters
/// after the backend has taken ownership of the transport.
pub struct TimedTransport {
    conn: Arc<RemoteConnection>,
    shard: i32,
    rec: Arc<Recorder>,
}

impl TimedTransport {
    pub fn new(conn: Arc<RemoteConnection>, shard: usize, rec: Arc<Recorder>) -> TimedTransport {
        TimedTransport {
            conn,
            shard: shard as i32,
            rec,
        }
    }

    fn timed<T>(&self, name: &'static str, call: impl FnOnce() -> T) -> T {
        record_remote(&self.rec, self.shard, name, call)
    }
}

fn record_remote<T>(rec: &Recorder, shard: i32, name: &'static str, call: impl FnOnce() -> T) -> T {
    let (parent, iteration) = rec.transport_context();
    let id = rec.fresh_id();
    let start_ns = rec.now_ns();
    let out = call();
    rec.push(Span {
        id,
        parent,
        layer: "remote",
        name,
        class: "",
        shard,
        iteration,
        start_ns,
        end_ns: rec.now_ns(),
    });
    out
}

impl ShardTransport for TimedTransport {
    fn execute(&self, stmt: &Statement) -> BackendResult {
        self.timed("execute", || self.conn.execute(stmt))
    }

    fn create_table(&self, name: &str, table: Table) -> BackendResult<()> {
        self.timed("create_table", || self.conn.create_table(name, table))
    }

    fn snapshot(&self, name: &str) -> BackendResult<Table> {
        self.timed("snapshot", || self.conn.snapshot(name))
    }

    fn gather_rows(&self, name: &str, rows: &[u32]) -> BackendResult<Table> {
        self.timed("gather_rows", || self.conn.gather_rows(name, rows))
    }

    fn column_names(&self, table: &str) -> BackendResult<Vec<String>> {
        self.timed("column_names", || self.conn.column_names(table))
    }

    fn column_dtype(&self, table: &str, column: &str) -> BackendResult<DataType> {
        self.timed("column_dtype", || self.conn.column_dtype(table, column))
    }

    fn has_table(&self, name: &str) -> bool {
        self.timed("has_table", || self.conn.has_table(name))
    }

    fn row_count(&self, name: &str) -> BackendResult<usize> {
        self.timed("row_count", || self.conn.row_count(name))
    }

    fn drop_table(&self, name: &str) -> BackendResult<()> {
        self.timed("drop_table", || self.conn.drop_table(name))
    }

    fn split_open(
        &self,
        stmt: &Statement,
        spec: &SplitSpec,
        k: usize,
    ) -> BackendResult<SplitOpen<'_>> {
        let opened = self.timed("split_open", || self.conn.split_open(stmt, spec, k))?;
        Ok(match opened {
            SplitOpen::Protocol { handle, bounds } => SplitOpen::Protocol {
                handle: Box::new(TimedSplitHandle {
                    inner: Some(handle),
                    shard: self.shard,
                    rec: self.rec.as_ref(),
                }),
                bounds,
            },
            dense => dense,
        })
    }

    fn predict_partials(&self, spec: &ScorerSpec, keys: &[i64]) -> BackendResult<Vec<(bool, f64)>> {
        self.timed("predict_partials", || {
            self.conn.predict_partials(spec, keys)
        })
    }

    fn wire_bytes(&self) -> (u64, u64) {
        self.conn.wire_bytes()
    }

    fn split_wire_bytes(&self) -> (u64, u64) {
        self.conn.split_wire_bytes()
    }
}

/// Times each round of the split protocol on one shard. Dropping the
/// remote handle sends the protocol's close request, so the drop is a
/// span too.
pub struct TimedSplitHandle<'a> {
    /// `None` only after `into_all_rows` or inside `drop`.
    inner: Option<Box<dyn SplitHandle + 'a>>,
    shard: i32,
    rec: &'a Recorder,
}

impl TimedSplitHandle<'_> {
    fn handle(&self) -> &dyn SplitHandle {
        self.inner
            .as_deref()
            .expect("the handle is only taken by into_all_rows and drop")
    }
}

impl SplitHandle for TimedSplitHandle<'_> {
    fn num_rows(&self) -> usize {
        self.handle().num_rows()
    }

    fn boundaries(&self, k: usize) -> BackendResult<Vec<Datum>> {
        record_remote(self.rec, self.shard, "split_boundaries", || {
            self.handle().boundaries(k)
        })
    }

    fn summaries(&self, grid: &[Datum]) -> BackendResult<Vec<IntervalSummary>> {
        record_remote(self.rec, self.shard, "split_summaries", || {
            self.handle().summaries(grid)
        })
    }

    fn summaries_delta(
        &self,
        grid: &[Datum],
        changed: &[usize],
    ) -> BackendResult<Vec<IntervalSummary>> {
        record_remote(self.rec, self.shard, "split_summaries_delta", || {
            self.handle().summaries_delta(grid, changed)
        })
    }

    fn refine(&self, grid: &[Datum], targets: &[(usize, usize)]) -> BackendResult<Vec<Datum>> {
        record_remote(self.rec, self.shard, "split_refine", || {
            self.handle().refine(grid, targets)
        })
    }

    fn fetch(&self, grid: &[Datum], retain: &[bool]) -> BackendResult<Table> {
        record_remote(self.rec, self.shard, "split_fetch", || {
            self.handle().fetch(grid, retain)
        })
    }

    fn into_all_rows(mut self: Box<Self>) -> BackendResult<Table> {
        let inner = self.inner.take().expect("taken once");
        record_remote(self.rec, self.shard, "split_all_rows", || {
            inner.into_all_rows()
        })
    }
}

impl Drop for TimedSplitHandle<'_> {
    fn drop(&mut self) {
        if let Some(inner) = self.inner.take() {
            record_remote(self.rec, self.shard, "split_close", || drop(inner));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use joinboost_sql::parse_statement;

    #[test]
    fn text_and_ast_classification_agree() {
        for sql in [
            "SELECT a, SUM(y) AS s FROM r GROUP BY a",
            "CREATE TABLE jb_3_msg_7 AS SELECT a FROM r",
            "CREATE TABLE jb_3_fact_0 AS SELECT a FROM r",
            "CREATE OR REPLACE TABLE jb_3_fact_0 AS SELECT a FROM jb_3_fact_0",
            "UPDATE r SET y = y - 1.5 WHERE a = 2",
            "DROP TABLE IF EXISTS jb_3_msg_7",
            "SWAP COLUMN a.x WITH b.y",
        ] {
            let stmt = parse_statement(sql).unwrap();
            assert_eq!(classify_text(sql), classify(&stmt), "{sql}");
            assert_eq!(classify_text(&stmt.to_string()), classify(&stmt), "{sql}");
        }
        assert_eq!(
            classify_text("create table jb_1_fact_0 as select 1"),
            Class::Update
        );
        assert_eq!(classify_text(""), Class::Other);
    }
}
