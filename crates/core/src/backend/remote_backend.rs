//! [`RemoteBackend`]: a full [`SqlBackend`] over one remote engine
//! process, so a training run can target it exactly like a local engine.

use std::net::ToSocketAddrs;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use joinboost_engine::{DataType, Table};
use joinboost_sql::ast::Statement;
use joinboost_sql::parse_statement;

use super::client::{RemoteConnection, RemoteConnectionBuilder, RetryPolicy};
use super::{BackendCapabilities, BackendResult, BackendStats, ShardTransport, SqlBackend};
use crate::serve::ScorerSpec;

/// A full [`SqlBackend`] over one remote engine process.
///
/// Every statement ships as SQL text; tables move as framed columnar
/// blocks. Capabilities are learned from the server's handshake;
/// [`BackendCapabilities::external_interop`] is always off (an
/// `Arc`-shared dataframe cannot cross a process boundary), so the
/// trainer's capability checks reject the `DP` update path up front.
pub struct RemoteBackend {
    conn: RemoteConnection,
    label: String,
    statements: AtomicU64,
    selects: AtomicU64,
}

/// Configures a [`RemoteBackend`]: address plus transport timeouts.
pub struct RemoteBackendBuilder {
    inner: RemoteConnectionBuilder,
}

impl RemoteBackendBuilder {
    /// Bound on establishing the TCP connection (default 5s).
    pub fn connect_timeout(mut self, t: Duration) -> RemoteBackendBuilder {
        self.inner = self.inner.connect_timeout(t);
        self
    }

    /// Bound on every request/response exchange (default 30s).
    pub fn io_timeout(mut self, t: Duration) -> RemoteBackendBuilder {
        self.inner = self.inner.io_timeout(t);
        self
    }

    /// Reconnect-and-replay behavior on transport errors.
    pub fn retry(mut self, policy: RetryPolicy) -> RemoteBackendBuilder {
        self.inner = self.inner.retry(policy);
        self
    }

    /// Connect and wrap the connection as a full [`SqlBackend`].
    pub fn connect(self) -> BackendResult<RemoteBackend> {
        Ok(RemoteBackend::from_connection(self.inner.connect()?))
    }
}

impl RemoteBackend {
    /// Start configuring a backend for `addr` — see
    /// [`RemoteBackendBuilder`].
    pub fn builder(addr: impl ToSocketAddrs + std::fmt::Display) -> RemoteBackendBuilder {
        RemoteBackendBuilder {
            inner: RemoteConnection::builder(addr),
        }
    }

    fn from_connection(conn: RemoteConnection) -> RemoteBackend {
        RemoteBackend {
            label: "remote".to_string(),
            conn,
            statements: AtomicU64::new(0),
            selects: AtomicU64::new(0),
        }
    }

    /// The underlying connection (byte counters, diagnostics).
    pub fn connection(&self) -> &RemoteConnection {
        &self.conn
    }

    /// Count one statement (`None`: text that does not parse, which the
    /// server will reject) the way the engine does: `SELECT` and
    /// `CREATE TABLE AS` are queries.
    fn count(&self, stmt: Option<&Statement>) {
        self.statements.fetch_add(1, Ordering::Relaxed);
        if matches!(
            stmt,
            Some(Statement::Select(_) | Statement::CreateTableAs { .. })
        ) {
            self.selects.fetch_add(1, Ordering::Relaxed);
        }
    }
}

impl SqlBackend for RemoteBackend {
    fn name(&self) -> &str {
        &self.label
    }

    fn capabilities(&self) -> BackendCapabilities {
        BackendCapabilities {
            window_functions: true,
            column_swap: self.conn.server_column_swap(),
            external_interop: false,
            shards: 1,
        }
    }

    fn execute(&self, sql: &str) -> BackendResult {
        self.count(parse_statement(sql).ok().as_ref());
        self.conn.execute_text(sql)
    }

    fn execute_ast(&self, stmt: &Statement) -> BackendResult {
        self.count(Some(stmt));
        self.conn.execute_text(&stmt.to_string())
    }

    fn create_table(&self, name: &str, table: Table) -> BackendResult<()> {
        ShardTransport::create_table(&self.conn, name, table)
    }

    fn snapshot(&self, name: &str) -> BackendResult<Table> {
        ShardTransport::snapshot(&self.conn, name)
    }

    fn column_names(&self, table: &str) -> BackendResult<Vec<String>> {
        ShardTransport::column_names(&self.conn, table)
    }

    fn column_dtype(&self, table: &str, column: &str) -> BackendResult<DataType> {
        ShardTransport::column_dtype(&self.conn, table, column)
    }

    fn has_table(&self, name: &str) -> bool {
        ShardTransport::has_table(&self.conn, name)
    }

    fn row_count(&self, name: &str) -> BackendResult<usize> {
        ShardTransport::row_count(&self.conn, name)
    }

    fn gather_rows(&self, name: &str, rows: &[u32]) -> BackendResult<Table> {
        // Ship only the sample, not the snapshot it came from.
        ShardTransport::gather_rows(&self.conn, name, rows)
    }

    fn drop_table_if_exists(&self, name: &str) -> BackendResult<()> {
        ShardTransport::drop_table(&self.conn, name)
    }

    fn predict_batch(&self, spec: &ScorerSpec, keys: &[i64]) -> BackendResult<Vec<(bool, f64)>> {
        // Full scores (init included): the server holds every message
        // table, so no coordinator-side merge is needed.
        self.conn.predict_wire(None, Some(spec), keys, false)
    }

    fn stats(&self) -> BackendStats {
        let (bytes_sent, bytes_received) = self.conn.wire_byte_counts();
        BackendStats {
            statements: self.statements.load(Ordering::Relaxed),
            selects: self.selects.load(Ordering::Relaxed),
            bytes_sent,
            bytes_received,
            ..BackendStats::default()
        }
    }
}
