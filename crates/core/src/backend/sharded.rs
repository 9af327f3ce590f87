//! The sharded fan-out backend: one fact partition per engine instance.
//!
//! Reproduces the paper's multi-node setup (Figures 12–13) behind the
//! [`SqlBackend`] trait: dimension tables are replicated to every shard
//! (and to a coordinator engine), the fact relation is hash-partitioned on
//! a shard key, and every table *derived from* the fact — the lifted fact,
//! its messages — stays shard-local. Statements route by the tables they
//! reference:
//!
//! * statements touching a sharded table broadcast to all shards (DDL,
//!   residual updates) or fan out and merge (`SELECT`s),
//! * statements over replicated tables run everywhere (so replicas stay
//!   in sync) or on the coordinator alone (plain reads).
//!
//! `SELECT`s over sharded data come in three shapes:
//!
//! 1. **distributable SPJA aggregates** (an aggregate block over base
//!    tables, without `ORDER BY`/`LIMIT`) — decomposed as the engine's
//!    binder decomposes them ([`joinboost_engine::plan`]): every shard
//!    runs `SELECT keys AS __key{i}, calls AS __agg{j} .. GROUP BY keys`
//!    in parallel (an `AVG` ships as its `SUM` plus a `COUNT`), the
//!    partials are `⊕`-merged by group key (SUM/COUNT partials add,
//!    MIN/MAX partials take the best), and the coordinator evaluates the
//!    binder's outputs — arithmetic over aggregates, keys absent from the
//!    output, `AVG` as merged sum over merged count — over the merged
//!    table. Because the fact partition induces a disjoint partition of
//!    the join result, the merge is exact ⊕, not an approximation
//!    (Definition 1: `c`, `s`, `q` are additive).
//! 2. **plain scans** (no aggregates/windows/ordering) — gathered by
//!    concatenating shard results in shard order.
//! 3. **split queries** (window prefix sums + argmax over an absorbed
//!    aggregate, the shape of [`crate::sqlgen::numeric_split_query`]) —
//!    evaluated *shard-locally*: each shard keeps its per-value
//!    aggregates, ships boundary keys and per-interval boundary prefix
//!    sums, and only the intervals that can still contain the global
//!    argmax (by convexity bounds on the criteria) ship their rows. The
//!    coordinator assembles a run-compressed table whose window/argmax
//!    evaluation is *identical* to the full merge — see `DESIGN.md`
//!    § "Distributed split evaluation" — cutting the shuffle volume from
//!    O(Σ feature cardinality) to O(shards · k) per split.
//! 4. **nested queries** (anything else with a `FROM`-subquery) — the
//!    innermost subquery is resolved recursively (usually by shape 1),
//!    materialized on the coordinator, and the outer layers run there.
//!
//! `SELECT`s joining *two* sharded relations are rejected: each shard would
//! only see same-shard pairs. JoinBoost's queries contain at most one
//! fact-derived table, with one exception: sibling subtraction
//! ([`crate::messages`]) materializes `parent ⊖ sibling` as a key-aligned
//! `LEFT JOIN` of two message partials over the same fact partition. That
//! `CREATE TABLE AS` broadcasts and runs shard-locally, and it is exact
//! there: the two partials on one shard aggregate the same fact rows, so
//! each shard's difference is the larger child's partial on that shard —
//! including which keys it keeps (`jb_c > 0`).

use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;

use joinboost_engine::agg::{self, PreparedAgg};
use joinboost_engine::column::ColumnData;
use joinboost_engine::expr::{eval, EvalContext, Slots};
use joinboost_engine::keys;
use joinboost_engine::plan::{bind_query, Output, QueryPlan, Source, Step};
use joinboost_engine::table::ColumnMeta;
use joinboost_engine::{Column, DataType, Database, Datum, EngineConfig, EngineError, Table};
use joinboost_sql::ast::{Expr, Query, SelectItem, Statement, TablePosition, TableRef};
use joinboost_sql::parse_statement;

use crate::scheduler::par_map;
use crate::sqlgen::{split_pushdown_shape, SplitQueryShape};

use super::client::{RemoteConnection, RemoteOptions};
use super::split::{
    interval_delta_map, reconstruct_summaries, IntervalSummary, LocalSplitState, MergeSpec,
    SplitHandle, SplitSpec,
};
use super::split_bounds::{
    binned_val_monotone, d_wrt, eval_interval, eval_two_col, guard_c_range, slack,
};
use super::{BackendCapabilities, BackendResult, BackendStats, SqlBackend};

/// One shard's engine as the fan-out sees it: the pluggable transport
/// behind [`ShardedBackend`].
///
/// In-process shards are bare [`Database`]s; remote shards are
/// [`RemoteConnection`]s speaking the wire protocol to a separate engine
/// process. The fan-out, `⊕`-merge and split-pushdown machinery only ever
/// talks to this trait, so multi-*process* sharding runs the exact same
/// protocol as in-process sharding — which is what lets
/// `backend_equivalence` assert bit-identical models across both.
pub trait ShardTransport: Send + Sync {
    /// Execute one statement on this shard. Remote transports print it to
    /// SQL text and ship that (sound by the `print ∘ parse ∘ print`
    /// fixed point the SQL-text backend proves).
    fn execute(&self, stmt: &Statement) -> BackendResult;

    /// Bulk-load a table on this shard (remote: framed columnar block).
    fn create_table(&self, name: &str, table: Table) -> BackendResult<()>;

    /// Materialize a full scan of a shard-local table.
    fn snapshot(&self, name: &str) -> BackendResult<Table>;

    /// Ship only the rows at the given snapshot-order positions, in that
    /// order — the messages-not-scans path of row sampling.
    fn gather_rows(&self, name: &str, rows: &[u32]) -> BackendResult<Table>;

    /// Column names of a shard-local table.
    fn column_names(&self, table: &str) -> BackendResult<Vec<String>>;

    /// One column's data type.
    fn column_dtype(&self, table: &str, column: &str) -> BackendResult<DataType>;

    /// Does this shard hold the table?
    fn has_table(&self, name: &str) -> bool;

    /// Rows of the table on this shard.
    fn row_count(&self, name: &str) -> BackendResult<usize>;

    /// Drop a table, tolerating its absence (temp-table cleanup must
    /// succeed on replicas that never materialized it).
    fn drop_table(&self, name: &str) -> BackendResult<()>;

    /// Parse + execute SQL text (tests and diagnostics).
    fn query(&self, sql: &str) -> BackendResult {
        self.execute(&parse_statement(sql)?)
    }

    /// Open a split-protocol handle over the absorbed per-value query:
    /// the shard executes it and keeps the sorted, prefix-summed result
    /// *local*, answering the protocol through [`SplitHandle`] — so a
    /// remote transport ships boundary summaries and candidate rows, not
    /// per-value aggregates. `k > 0` asks for the first `k` equal-count
    /// boundary keys *in the open reply* (fused: over a remote transport
    /// this folds the opening `boundaries` round trip into the open
    /// frame). When this shard's data disqualifies the protocol (NULL
    /// components), the executed result comes back as
    /// [`SplitOpen::Dense`] so the caller's fallback pays no second
    /// execution.
    fn split_open(
        &self,
        stmt: &Statement,
        spec: &SplitSpec,
        k: usize,
    ) -> BackendResult<SplitOpen<'_>> {
        Ok(
            match LocalSplitState::build(self.execute(stmt)?, spec.clone()) {
                Ok(s) => {
                    let bounds = if k > 0 { s.boundaries(k)? } else { Vec::new() };
                    SplitOpen::Protocol {
                        handle: Box::new(s),
                        bounds,
                    }
                }
                Err(table) => SplitOpen::Dense(table),
            },
        )
    }

    /// Shard-partial scores for a batch of predict keys against
    /// shard-resident message tables (see [`crate::serve`]): `(found,
    /// partial)` per key, partials accumulated from `0.0` — the
    /// coordinator adds the model's initial score once per found key,
    /// which the dyadic leaf grid keeps bit-identical to single-node
    /// evaluation. The default loads the spec's tables through
    /// [`ShardTransport::snapshot`]; remote transports override it so the
    /// shard evaluates server-side and ships only scores, never tables.
    fn predict_partials(
        &self,
        spec: &crate::serve::ScorerSpec,
        keys: &[i64],
    ) -> BackendResult<Vec<(bool, f64)>> {
        let idx = crate::serve::MessageIndex::load(spec, &mut |n| self.snapshot(n))?;
        idx.eval_batch(keys, 0.0)
    }

    /// `(bytes_sent, bytes_received)` on this transport's socket; zero
    /// for in-process transports.
    fn wire_bytes(&self) -> (u64, u64) {
        (0, 0)
    }

    /// `(bytes_sent, bytes_received)` attributable to split-protocol
    /// frames only (a subset of [`ShardTransport::wire_bytes`]); zero
    /// for in-process transports. This is what lets the coordinator
    /// report *per-round* split wire volume rather than lifetime socket
    /// totals.
    fn split_wire_bytes(&self) -> (u64, u64) {
        (0, 0)
    }
}

/// What [`ShardTransport::split_open`] produced: the shard either serves
/// the summary protocol, or hands back the absorbed result for the dense
/// merge (its data disqualified the protocol).
pub enum SplitOpen<'a> {
    /// The shard serves the summary protocol through this handle.
    Protocol {
        /// Answers boundaries/summaries/refine/fetch for this shard.
        handle: Box<dyn SplitHandle + 'a>,
        /// First-round boundary keys prefetched in the open reply (empty
        /// when the open asked for none) — the fused frame that saves
        /// the opening round trip per (shard, split query).
        bounds: Vec<Datum>,
    },
    /// Protocol inapplicable on this shard's data: the full absorbed
    /// result, for the dense fallback.
    Dense(Table),
}

impl SplitOpen<'_> {
    /// The full absorbed result, whichever side this is (consumes the
    /// handle; in-process a move, remote one fetch).
    fn into_all_rows(self) -> BackendResult<Table> {
        match self {
            SplitOpen::Protocol { handle, .. } => handle.into_all_rows(),
            SplitOpen::Dense(t) => Ok(t),
        }
    }
}

impl ShardTransport for Database {
    fn execute(&self, stmt: &Statement) -> BackendResult {
        Database::execute_statement(self, stmt)
    }

    fn create_table(&self, name: &str, table: Table) -> BackendResult<()> {
        Database::create_table(self, name, table)
    }

    fn snapshot(&self, name: &str) -> BackendResult<Table> {
        Database::snapshot(self, name)
    }

    fn gather_rows(&self, name: &str, rows: &[u32]) -> BackendResult<Table> {
        let snap = Database::snapshot(self, name)?;
        let n = snap.num_rows();
        if let Some(&bad) = rows.iter().find(|&&r| r as usize >= n) {
            return Err(EngineError::Other(format!(
                "gather_rows: row {bad} out of range for {name} ({n} rows)"
            )));
        }
        Ok(snap.take(rows))
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

    fn drop_table(&self, name: &str) -> BackendResult<()> {
        match Database::drop_table(self, name) {
            Err(EngineError::UnknownTable(_)) => Ok(()),
            r => r,
        }
    }
}

/// Tuning knobs of the shard-local split evaluation (shape 3 of the
/// module docs). The defaults favor high-cardinality features; tests
/// lower `min_rows` to exercise the pushdown on small data.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PushdownConfig {
    /// Boundary candidates each shard publishes (the `k` of the
    /// O(shards · k) shuffle bound). At least 2.
    pub boundaries_per_shard: usize,
    /// Below this many per-value rows (summed over shards) the summary
    /// protocol would ship *more* than the rows themselves, so the split
    /// falls back to a dense merge.
    pub min_rows: usize,
}

impl Default for PushdownConfig {
    fn default() -> Self {
        PushdownConfig {
            boundaries_per_shard: 16,
            min_rows: 256,
        }
    }
}

/// N engine instances over a hash-partitioned fact relation, plus a
/// coordinator engine holding every replicated table and running the
/// non-distributable query layers.
///
/// See the [`crate::backend`] module docs for the routing rules and
/// `DESIGN.md` § Backends for the merge-exactness argument.
pub struct ShardedBackend {
    coordinator: Database,
    shards: Vec<Box<dyn ShardTransport>>,
    label: String,
    /// Lowercase name of the relation to partition on load.
    fact: String,
    /// Column of the fact relation whose hash picks the shard.
    shard_key: String,
    /// Lowercase names of fact-derived (shard-local) tables.
    sharded: RwLock<HashSet<String>>,
    column_swap: bool,
    tmp_counter: AtomicUsize,
    /// `None` disables the shard-local split evaluation (every split query
    /// then takes the dense nested-merge path).
    pushdown: RwLock<Option<PushdownConfig>>,
    fanout_selects: AtomicU64,
    broadcast_statements: AtomicU64,
    replicated_statements: AtomicU64,
    coordinator_selects: AtomicU64,
    pushdown_splits: AtomicU64,
    /// Summary rounds executed across all pushdown splits (the
    /// denominator of per-round wire volume). Dense split execution
    /// (pushdown off) counts each split query as one ship-everything
    /// round, so dense and delta per-round volumes compare directly.
    split_rounds: AtomicU64,
    /// Wire bytes of *dense* split execution (pushdown off): the nested
    /// fan-out-merge traffic of split-shaped queries, metered by
    /// before/after snapshots of the shard sockets. Exact when split
    /// queries run serially (the trainer's default); under inter-query
    /// parallelism concurrent traffic may be co-attributed.
    dense_split_sent: AtomicU64,
    /// See `dense_split_sent`.
    dense_split_received: AtomicU64,
    rows_shuffled: AtomicU64,
    skew_warnings: AtomicU64,
}

impl ShardedBackend {
    /// Create `num_shards` engine instances (plus a coordinator) with the
    /// given configuration. `fact_table` will be hash-partitioned on
    /// `shard_key` when it is bulk-loaded; every other table replicates.
    pub fn new(
        num_shards: usize,
        config: EngineConfig,
        fact_table: &str,
        shard_key: &str,
    ) -> ShardedBackend {
        assert!(num_shards >= 1, "at least one shard");
        let transports: Vec<Box<dyn ShardTransport>> = (0..num_shards)
            .map(|_| Box::new(Database::new(config.clone())) as Box<dyn ShardTransport>)
            .collect();
        ShardedBackend::from_transports(
            transports,
            config,
            format!("sharded x{num_shards}"),
            fact_table,
            shard_key,
        )
    }

    /// Multi-*process* sharding: one remote shard server per address (the
    /// `shard_server` binary or [`super::WireServer`]), a local
    /// coordinator engine with the given configuration. The fan-out,
    /// merge and split-pushdown protocol is the one the in-process
    /// backend runs — only the transport differs.
    pub fn remote<A>(
        addrs: &[A],
        config: EngineConfig,
        fact_table: &str,
        shard_key: &str,
        opts: RemoteOptions,
    ) -> BackendResult<ShardedBackend>
    where
        A: std::net::ToSocketAddrs + std::fmt::Display,
    {
        assert!(!addrs.is_empty(), "at least one shard server");
        let mut transports: Vec<Box<dyn ShardTransport>> = Vec::with_capacity(addrs.len());
        let mut column_swap = config.allow_swap;
        for addr in addrs {
            let conn = RemoteConnection::builder(addr)
                .connect_timeout(opts.connect_timeout)
                .io_timeout(opts.io_timeout)
                .retry(opts.retry)
                .connect()?;
            column_swap = column_swap && conn.server_column_swap();
            transports.push(Box::new(conn));
        }
        let mut backend = ShardedBackend::from_transports(
            transports,
            config,
            format!("remote x{}", addrs.len()),
            fact_table,
            shard_key,
        );
        backend.column_swap = column_swap;
        Ok(backend)
    }

    /// Assemble a backend over caller-provided shard transports (the
    /// extension point: mix in-process engines with remote connections,
    /// or plug in a custom transport). The coordinator is always a local
    /// engine — it runs the window/argmax layers and holds replicas.
    pub fn from_transports(
        transports: Vec<Box<dyn ShardTransport>>,
        config: EngineConfig,
        label: String,
        fact_table: &str,
        shard_key: &str,
    ) -> ShardedBackend {
        assert!(!transports.is_empty(), "at least one shard");
        ShardedBackend {
            coordinator: Database::new(config.clone()),
            shards: transports,
            label,
            fact: fact_table.to_ascii_lowercase(),
            shard_key: shard_key.to_string(),
            sharded: RwLock::new(HashSet::new()),
            column_swap: config.allow_swap,
            tmp_counter: AtomicUsize::new(0),
            pushdown: RwLock::new(Some(PushdownConfig::default())),
            fanout_selects: AtomicU64::new(0),
            broadcast_statements: AtomicU64::new(0),
            replicated_statements: AtomicU64::new(0),
            coordinator_selects: AtomicU64::new(0),
            pushdown_splits: AtomicU64::new(0),
            split_rounds: AtomicU64::new(0),
            dense_split_sent: AtomicU64::new(0),
            dense_split_received: AtomicU64::new(0),
            rows_shuffled: AtomicU64::new(0),
            skew_warnings: AtomicU64::new(0),
        }
    }

    /// Number of fact partitions.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// One shard's transport (inspection/tests).
    pub fn shard(&self, i: usize) -> &dyn ShardTransport {
        self.shards[i].as_ref()
    }

    /// The coordinator engine (inspection/tests).
    pub fn coordinator(&self) -> &Database {
        &self.coordinator
    }

    /// Hash-partition `table` on `key` across the shards and mark `name`
    /// sharded; returns the partition sizes.
    fn partition(&self, name: &str, table: &Table, key: &str) -> BackendResult<Vec<usize>> {
        let kidx = table.resolve(None, key)?;
        let mut masks = vec![vec![false; table.num_rows()]; self.shards.len()];
        #[allow(clippy::needless_range_loop)] // i indexes the key column and masks
        for i in 0..table.num_rows() {
            let s = self.shard_of(&table.columns[kidx].get(i));
            masks[s][i] = true;
        }
        for (db, mask) in self.shards.iter().zip(&masks) {
            db.create_table(name, table.filter(mask))?;
        }
        self.sharded.write().insert(name.to_ascii_lowercase());
        Ok(masks
            .iter()
            .map(|m| m.iter().filter(|&&b| b).count())
            .collect())
    }

    /// Is this table hash-partitioned (fact-derived) rather than
    /// replicated?
    pub fn is_sharded(&self, name: &str) -> bool {
        self.sharded.read().contains(&name.to_ascii_lowercase())
    }

    /// Enable or disable the shard-local split evaluation (keeps the
    /// current [`PushdownConfig`] when toggled back on).
    pub fn set_pushdown(&self, enabled: bool) {
        let mut pd = self.pushdown.write();
        if enabled {
            if pd.is_none() {
                *pd = Some(PushdownConfig::default());
            }
        } else {
            *pd = None;
        }
    }

    /// Replace the pushdown tuning knobs (also re-enables the pushdown).
    pub fn set_pushdown_config(&self, cfg: PushdownConfig) {
        *self.pushdown.write() = Some(cfg);
    }

    /// Rows of the fact relation held by each shard, in shard order —
    /// the telemetry behind the skew warning (a hot shard key can
    /// overload one partition; see [`ShardedBackend::skew_warnings`]).
    pub fn partition_sizes(&self) -> Vec<usize> {
        self.shards
            .iter()
            .map(|db| db.row_count(&self.fact).unwrap_or(0))
            .collect()
    }

    /// How many fact loads produced a skewed partition (max shard more
    /// than 4× the mean). Each one also logs a warning to stderr.
    pub fn skew_warnings(&self) -> u64 {
        self.skew_warnings.load(Ordering::Relaxed)
    }

    // ---- routing ----------------------------------------------------------

    /// The subset of `names` that are currently sharded (normalized,
    /// deduplicated).
    fn filter_sharded(&self, names: &[String]) -> Vec<String> {
        let sharded = self.sharded.read();
        let mut out: Vec<String> = names
            .iter()
            .map(|n| n.to_ascii_lowercase())
            .filter(|n| sharded.contains(n))
            .collect();
        out.sort();
        out.dedup();
        out
    }

    /// Reject statements that reference a sharded table from *expression*
    /// position (an `IN (SELECT ..)` predicate, for instance): each shard
    /// would evaluate the subquery against only its own partition, and a
    /// replicated outer table would be scanned once per shard — silently
    /// wrong either way, so this shape errors instead.
    fn reject_sharded_expr_refs(&self, expr_refs: &[String], what: &str) -> BackendResult<()> {
        let bad = self.filter_sharded(expr_refs);
        if bad.is_empty() {
            return Ok(());
        }
        Err(EngineError::Other(format!(
            "sharded relation {} is referenced from an expression subquery in {what}; \
             each shard would see only its own partition — rewrite with the sharded \
             relation in the FROM clause",
            bad.join(", ")
        )))
    }

    /// Run a closure on every shard in parallel, collecting results in
    /// shard order.
    fn on_all_shards<'s, T, F>(&'s self, f: F) -> Vec<BackendResult<T>>
    where
        T: Send,
        F: Fn(usize, &'s dyn ShardTransport) -> BackendResult<T> + Sync,
    {
        let shards: Vec<_> = self.shards.iter().map(AsRef::as_ref).enumerate().collect();
        par_map(&shards, shards.len(), |&(i, db)| f(i, db))
    }

    /// Broadcast a statement to every shard; marks `creates` sharded.
    fn broadcast(&self, stmt: &Statement, creates: Option<&str>) -> BackendResult {
        self.broadcast_statements.fetch_add(1, Ordering::Relaxed);
        for r in self.on_all_shards(|_, db| db.execute(stmt)) {
            r?;
        }
        if let Some(name) = creates {
            self.sharded.write().insert(name.to_ascii_lowercase());
        }
        Ok(Table::new())
    }

    /// Execute a statement on the coordinator and every shard (replicated
    /// tables must stay in sync everywhere).
    fn replicate(&self, stmt: &Statement) -> BackendResult {
        self.replicated_statements.fetch_add(1, Ordering::Relaxed);
        let result = self.coordinator.execute_statement(stmt)?;
        for r in self.on_all_shards(|_, db| db.execute(stmt)) {
            r?;
        }
        Ok(result)
    }

    // ---- SELECT routing ---------------------------------------------------

    fn exec_select(&self, q: &Query) -> BackendResult {
        let stmt = Statement::Select(q.clone());
        let (from_refs, expr_refs) = table_refs(q);
        let from_sharded = self.filter_sharded(&from_refs);
        if from_sharded.is_empty() && self.filter_sharded(&expr_refs).is_empty() {
            self.coordinator_selects.fetch_add(1, Ordering::Relaxed);
            return self.coordinator.execute_statement(&stmt);
        }
        self.reject_sharded_expr_refs(&expr_refs, "a SELECT")?;
        if from_sharded.len() > 1 {
            return Err(EngineError::Other(format!(
                "sharded backend cannot join two sharded relations ({}): \
                 each shard would only see same-shard pairs; in: {q}",
                from_sharded.join(", ")
            )));
        }
        let plan = bind_query(q, &mut Slots::default())?;
        if let Some(fan_out) = FanOut::of(q, &plan)? {
            return self.fan_out_merge(&fan_out);
        }
        if is_plain_scan(&plan) {
            return self.gather(q);
        }
        // Split queries evaluate shard-locally: ship summaries and top-k
        // candidate rows, not the full per-value aggregates.
        let pushdown = *self.pushdown.read();
        if let Some((shape, inner)) = split_pushdown_shape(q) {
            if let Some(cfg) = pushdown {
                let plan = bind_query(inner, &mut Slots::default())?;
                if let Some(fan_out) = FanOut::of(inner, &plan)? {
                    return self.pushdown_split(q, &shape, fan_out, cfg);
                }
            }
            // Dense split execution (pushdown off): the nested route
            // below ships every shard's full absorbed table. Metered as
            // one ship-everything round so dense and delta split wire
            // volume compare per round.
            let (s0, r0) = self.shard_wire_totals();
            let result = self.exec_nested(q);
            let (s1, r1) = self.shard_wire_totals();
            self.split_rounds.fetch_add(1, Ordering::Relaxed);
            self.dense_split_sent
                .fetch_add(s1.saturating_sub(s0), Ordering::Relaxed);
            self.dense_split_received
                .fetch_add(r1.saturating_sub(r0), Ordering::Relaxed);
            return result;
        }
        self.exec_nested(q)
    }

    /// Total `(sent, received)` socket bytes across the shard transports.
    fn shard_wire_totals(&self) -> (u64, u64) {
        self.shards.iter().fold((0, 0), |(s, r), t| {
            let (ts, tr) = t.wire_bytes();
            (s + ts, r + tr)
        })
    }

    /// Nested query: resolve the FROM-subquery recursively, then run the
    /// outer layers over it on the coordinator.
    fn exec_nested(&self, q: &Query) -> BackendResult {
        let Some(TableRef::Subquery { query, .. }) = &q.from else {
            return Err(EngineError::Other(format!(
                "query shape not supported over sharded data \
                 (not a mergeable SPJA aggregate, plain scan, or nested query): {q}"
            )));
        };
        let inner = self.exec_select(query)?;
        self.exec_over(q, 0, inner)
    }

    /// Materialize `inner` on the coordinator as the `FROM` of the block
    /// `depth` subqueries below `q`, run `q` there, and drop it again.
    fn exec_over(&self, q: &Query, depth: usize, inner: Table) -> BackendResult {
        let tmp = format!(
            "jb_shard_merge_{}",
            self.tmp_counter.fetch_add(1, Ordering::Relaxed)
        );
        let mut outer = q.clone();
        let mut from = &mut outer.from;
        for _ in 0..depth {
            from = match from {
                Some(TableRef::Subquery { query, .. }) => &mut query.from,
                _ => unreachable!("callers swap a FROM subquery they matched"),
            };
        }
        let Some(TableRef::Subquery { alias, .. }) = from.take() else {
            unreachable!("callers swap a FROM subquery they matched");
        };
        *from = Some(TableRef::Named {
            name: tmp.clone(),
            alias,
        });
        self.coordinator.create_table(&tmp, inner)?;
        let (from_refs, expr_refs) = table_refs(&outer);
        let result = if self
            .filter_sharded(&[from_refs, expr_refs].concat())
            .is_empty()
        {
            self.coordinator_selects.fetch_add(1, Ordering::Relaxed);
            self.coordinator
                .execute_statement(&Statement::Select(outer))
        } else {
            Err(EngineError::Other(format!(
                "outer query layers may not reference sharded tables: {q}"
            )))
        };
        let _ = self.coordinator.drop_table(&tmp);
        result
    }

    /// Run `f` on every shard in parallel: the tables it returns, in shard
    /// order, are rows shipped to the coordinator.
    fn ship<F>(&self, f: F) -> BackendResult<Vec<Table>>
    where
        F: Fn(&dyn ShardTransport) -> BackendResult<Table> + Sync,
    {
        let parts = self.on_all_shards(|_, db| f(db));
        let parts = parts.into_iter().collect::<BackendResult<Vec<_>>>()?;
        let shipped: usize = parts.iter().map(Table::num_rows).sum();
        self.rows_shuffled
            .fetch_add(shipped as u64, Ordering::Relaxed);
        Ok(parts)
    }

    /// Shape 1: run the decomposed aggregate on every shard, `⊕`-merge
    /// the partials, and finish the binder's outputs over them.
    fn fan_out_merge(&self, plan: &FanOut) -> BackendResult {
        self.fanout_selects.fetch_add(1, Ordering::Relaxed);
        let stmt = Statement::Select(plan.shard.clone());
        let merged = merge_partials(self.ship(|db| db.execute(&stmt))?, &plan.specs)?;
        plan.finish(merged, &self.coordinator)
    }

    /// Shape 2: concatenate shard results in shard order.
    fn gather(&self, q: &Query) -> BackendResult {
        self.fanout_selects.fetch_add(1, Ordering::Relaxed);
        let stmt = Statement::Select(q.clone());
        concat_tables(self.ship(|db| db.execute(&stmt))?)
    }

    /// Execute the absorbed query and open the split protocol on every
    /// shard, in parallel. Shards whose data disqualifies the protocol
    /// come back as [`SplitOpen::Dense`] with their executed result.
    fn open_splits<'a>(
        &'a self,
        stmt: &Statement,
        spec: &SplitSpec,
        k: usize,
    ) -> BackendResult<Vec<SplitOpen<'a>>> {
        let opens = self.on_all_shards(|_, db| db.split_open(stmt, spec, k));
        opens.into_iter().collect()
    }

    /// Shape 3: shard-local split evaluation. The absorbed inner query
    /// runs on every shard and *stays there* (behind a [`SplitHandle`]);
    /// only boundary keys, per-interval boundary prefix sums and the
    /// candidate intervals' rows ship to the coordinator — over a remote
    /// transport these are the only bytes on the wire. The coordinator
    /// assembles a run-compressed per-value table and runs the original
    /// window/argmax layers on it. The compressed evaluation is identical
    /// to the dense merge (see `DESIGN.md` § "Distributed split
    /// evaluation"), so results — and, under the dyadic recipe, bits —
    /// match the single-engine path.
    fn pushdown_split(
        &self,
        q: &Query,
        shape: &SplitQueryShape,
        plan: FanOut,
        cfg: PushdownConfig,
    ) -> BackendResult {
        self.fanout_selects.fetch_add(1, Ordering::Relaxed);
        let stmt = Statement::Select(plan.shard.clone());
        let merged = 'merged: {
            // Plan-level roles: without them (multiple keys, components
            // not ⊕-sums, a val the key cannot order) the summary
            // protocol does not apply and no handles are opened.
            let Some(spec) = split_spec_for(&plan, shape) else {
                let locals = self.ship(|db| db.execute(&stmt))?;
                break 'merged merge_partials(locals, &plan.specs)?;
            };
            // The open is fused with the first boundaries round: each
            // shard's opening reply already carries its k equal-count
            // boundary keys, one less round trip per (shard, split
            // query) over a remote transport.
            let opens = self.open_splits(&stmt, &spec, cfg.boundaries_per_shard.max(2))?;
            let any_dense = opens.iter().any(|o| matches!(o, SplitOpen::Dense(_)));
            let total: usize = opens
                .iter()
                .map(|o| match o {
                    SplitOpen::Protocol { handle, .. } => handle.num_rows(),
                    SplitOpen::Dense(t) => t.num_rows(),
                })
                .sum();
            if any_dense || total == 0 || total < cfg.min_rows {
                // A shard disqualified the protocol (NULL components), or
                // the result sits below the protocol's break-even point
                // (the summaries would outweigh the rows). Dense merge,
                // reusing every shard's already-executed result.
                self.rows_shuffled
                    .fetch_add(total as u64, Ordering::Relaxed);
                let mut locals = Vec::with_capacity(opens.len());
                for o in opens {
                    locals.push(o.into_all_rows()?);
                }
                break 'merged merge_partials(locals, &plan.specs)?;
            }
            let mut handles: Vec<Box<dyn SplitHandle + '_>> = Vec::with_capacity(opens.len());
            let mut prefetched: Vec<Vec<Datum>> = Vec::with_capacity(opens.len());
            for o in opens {
                match o {
                    SplitOpen::Protocol { handle, bounds } => {
                        handles.push(handle);
                        prefetched.push(bounds);
                    }
                    SplitOpen::Dense(_) => unreachable!("any_dense checked above"),
                }
            }
            let (table, shipped, rounds) =
                shard_split_protocol(&handles, prefetched, &plan.specs, shape, cfg)?;
            self.pushdown_splits.fetch_add(1, Ordering::Relaxed);
            self.split_rounds
                .fetch_add(rounds as u64, Ordering::Relaxed);
            self.rows_shuffled
                .fetch_add(shipped as u64, Ordering::Relaxed);
            table
        };
        // The outputs are evaluated once; the window and argmax layers run
        // on the coordinator over the merged (possibly run-compressed)
        // per-value table.
        self.exec_over(q, 1, plan.finish(merged, &self.coordinator)?)
    }

    /// Hash of the shard-key datum: FNV-1a over a type-tagged byte
    /// encoding plus an avalanche finalizer (FNV's low bit is a plain XOR
    /// of input low bits, so without the mix all-even surrogate ids would
    /// collapse onto one shard under `% 2`). Deterministic across runs.
    fn shard_of(&self, key: &Datum) -> usize {
        const OFFSET: u64 = 1469598103934665603;
        const PRIME: u64 = 1099511628211;
        let fnv = |tag: u8, bytes: &[u8]| -> u64 {
            let mut acc = (OFFSET ^ tag as u64).wrapping_mul(PRIME);
            for &b in bytes {
                acc = (acc ^ b as u64).wrapping_mul(PRIME);
            }
            // splitmix64-style finalizer: mix high bits into the low bits
            // the modulo below actually looks at.
            acc ^= acc >> 33;
            acc = acc.wrapping_mul(0xff51afd7ed558ccd);
            acc ^= acc >> 33;
            acc = acc.wrapping_mul(0xc4ceb9fe1a85ec53);
            acc ^ (acc >> 33)
        };
        let h = match key {
            Datum::Int(v) => fnv(0, &v.to_le_bytes()),
            Datum::Float(v) => fnv(1, &v.to_bits().to_le_bytes()),
            Datum::Str(s) => fnv(2, s.as_bytes()),
            Datum::Null => fnv(3, &[]),
        };
        (h % self.shards.len() as u64) as usize
    }
}

impl SqlBackend for ShardedBackend {
    fn name(&self) -> &str {
        &self.label
    }

    fn capabilities(&self) -> BackendCapabilities {
        BackendCapabilities {
            window_functions: true, // the coordinator runs window layers
            column_swap: self.column_swap,
            external_interop: false, // no single array store to swap into
            shards: self.shards.len(),
        }
    }

    fn execute(&self, sql: &str) -> BackendResult {
        let stmt = parse_statement(sql)?;
        self.execute_ast(&stmt)
    }

    fn execute_ast(&self, stmt: &Statement) -> BackendResult {
        match stmt {
            Statement::Select(q) => self.exec_select(q),
            Statement::CreateTableAs { name, query, .. } => {
                let (from_refs, expr_refs) = table_refs(query);
                self.reject_sharded_expr_refs(&expr_refs, "a CREATE TABLE AS")?;
                if self.filter_sharded(&from_refs).is_empty() {
                    self.replicate(stmt)
                } else {
                    self.broadcast(stmt, Some(name))
                }
            }
            Statement::Update {
                table,
                assignments,
                where_clause,
            } => {
                let mut expr_refs = Vec::new();
                for e in assignments.iter().map(|(_, e)| e).chain(where_clause) {
                    e.visit_tables(&mut |name, _| expr_refs.push(name.to_string()));
                }
                self.reject_sharded_expr_refs(&expr_refs, "an UPDATE")?;
                // Route by the *written* table: a sharded target updates
                // shard-locally; a replicated target must update every
                // replica (coordinator included) to stay consistent.
                if self.is_sharded(table) {
                    self.broadcast(stmt, None)
                } else {
                    self.replicate(stmt)
                }
            }
            Statement::SwapColumn {
                table_a, table_b, ..
            } => match (self.is_sharded(table_a), self.is_sharded(table_b)) {
                (true, true) => self.broadcast(stmt, None),
                (false, false) => self.replicate(stmt),
                _ => Err(EngineError::Other(format!(
                    "cannot SWAP COLUMN between sharded and replicated tables \
                     ({table_a}, {table_b})"
                ))),
            },
            Statement::DropTable { name, if_exists } => {
                if !if_exists && !self.has_table(name) {
                    return Err(EngineError::UnknownTable(name.clone()));
                }
                // Drop wherever the table lives; replicas may be partial
                // after errors, so tolerate misses everywhere.
                let _ = self.coordinator.drop_table(name);
                for db in &self.shards {
                    let _ = db.drop_table(name);
                }
                self.sharded.write().remove(&name.to_ascii_lowercase());
                Ok(Table::new())
            }
        }
    }

    fn create_table(&self, name: &str, table: Table) -> BackendResult<()> {
        if name.eq_ignore_ascii_case(&self.fact) {
            // Hash-partition the fact relation on the shard key.
            let sizes = self.partition(name, &table, &self.shard_key)?;
            // Partition-skew telemetry: a hot shard key funnels the fact
            // into few partitions and serializes every fan-out on them.
            let n = sizes.len();
            let max = sizes.iter().copied().max().unwrap_or(0);
            if n > 1 && max * n > 4 * table.num_rows() {
                self.skew_warnings.fetch_add(1, Ordering::Relaxed);
                eprintln!(
                    "warning: skewed shard-key distribution on {name}: partition sizes \
                     {sizes:?} (max {max} > 4x mean {}); consider a different shard key \
                     or composite partitioning",
                    table.num_rows() / n
                );
            }
            Ok(())
        } else {
            self.coordinator.create_table(name, table.clone())?;
            for db in &self.shards {
                db.create_table(name, table.clone())?;
            }
            Ok(())
        }
    }

    fn create_partitioned_table(&self, name: &str, table: Table, key: &str) -> BackendResult<()> {
        // Same hash partitioning as the fact relation, but on the named
        // key: a message table partitioned on the predict key lands each
        // entry on the shard that answers for that key.
        self.partition(name, &table, key).map(drop)
    }

    fn predict_batch(
        &self,
        spec: &crate::serve::ScorerSpec,
        keys: &[i64],
    ) -> BackendResult<Vec<(bool, f64)>> {
        // Fan the batch out; each shard scores the keys whose fact
        // partition it owns and answers (found, partial). Exactly one
        // shard finds any given key, so the merge is init + partial.
        self.fanout_selects.fetch_add(1, Ordering::Relaxed);
        let mut out = vec![(false, 0.0f64); keys.len()];
        for shard in self.on_all_shards(|_, db| db.predict_partials(spec, keys)) {
            let shard = shard?;
            if shard.len() != keys.len() {
                return Err(EngineError::Other(format!(
                    "predict_partials answered {} scores for {} keys",
                    shard.len(),
                    keys.len()
                )));
            }
            for (i, (found, p)) in shard.into_iter().enumerate() {
                if found {
                    if out[i].0 {
                        return Err(EngineError::Other(format!(
                            "predict key {} found on multiple shards; message \
                             tables are inconsistent with the partitioning",
                            keys[i]
                        )));
                    }
                    out[i] = (true, spec.init_score + p);
                }
            }
        }
        Ok(out)
    }

    fn snapshot(&self, name: &str) -> BackendResult<Table> {
        if self.is_sharded(name) {
            concat_tables(self.ship(|db| db.snapshot(name))?)
        } else {
            self.coordinator.snapshot(name)
        }
    }

    fn column_names(&self, table: &str) -> BackendResult<Vec<String>> {
        if self.is_sharded(table) {
            self.shards[0].column_names(table)
        } else {
            self.coordinator.column_names(table)
        }
    }

    fn column_dtype(&self, table: &str, column: &str) -> BackendResult<DataType> {
        if self.is_sharded(table) {
            self.shards[0].column_dtype(table, column)
        } else {
            self.coordinator.column_dtype(table, column)
        }
    }

    fn has_table(&self, name: &str) -> bool {
        self.coordinator.has_table(name) || self.shards.iter().any(|db| db.has_table(name))
    }

    fn row_count(&self, name: &str) -> BackendResult<usize> {
        if self.is_sharded(name) {
            let mut total = 0;
            for db in &self.shards {
                total += db.row_count(name)?;
            }
            Ok(total)
        } else {
            self.coordinator.row_count(name)
        }
    }

    fn gather_rows(&self, name: &str, rows: &[u32]) -> BackendResult<Table> {
        if !self.is_sharded(name) {
            return Ok(self.coordinator.snapshot(name)?.take(rows));
        }
        if rows.is_empty() {
            // Any shard answers the (empty) request with the table's layout.
            return self.shards[0].gather_rows(name, rows);
        }
        // Route each requested snapshot-order position to the shard that
        // owns it; every shard ships only its selected rows, and the
        // coordinator reassembles them in the requested order. Both
        // phases fan out in parallel — over remote transports the round
        // trips would otherwise serialize per shard.
        let counts = self.on_all_shards(|_, db| db.row_count(name));
        let counts = counts.into_iter().collect::<BackendResult<Vec<_>>>()?;
        let total: usize = counts.iter().sum();
        let mut per_shard: Vec<Vec<(usize, u32)>> = vec![Vec::new(); self.shards.len()];
        for (pos, &g) in rows.iter().enumerate() {
            let mut g = g as usize;
            if g >= total {
                return Err(EngineError::Other(format!(
                    "gather_rows: row {g} out of range for {name} ({total} rows)"
                )));
            }
            let mut shard = 0;
            while g >= counts[shard] {
                g -= counts[shard];
                shard += 1;
            }
            per_shard[shard].push((pos, g as u32));
        }
        // Only shards that own requested rows ship anything — and they
        // ship exactly their selected rows (via the transport's
        // `gather_rows`, a single framed message on remote shards), never
        // whole partitions.
        let gathered = self.on_all_shards(|i, db| {
            let wanted = &per_shard[i];
            if wanted.is_empty() {
                return Ok(None);
            }
            let locals: Vec<u32> = wanted.iter().map(|&(_, local)| local).collect();
            db.gather_rows(name, &locals).map(Some)
        });
        let parts = gathered.into_iter().filter_map(Result::transpose);
        let parts = parts.collect::<BackendResult<Vec<_>>>()?;
        // Concatenated in shard order, request position `pos` sits at its
        // shard's offset plus its rank among that shard's requests.
        let mut positions = vec![0u32; rows.len()];
        for (at, &(pos, _)) in per_shard.iter().flatten().enumerate() {
            positions[pos] = at as u32;
        }
        self.rows_shuffled
            .fetch_add(rows.len() as u64, Ordering::Relaxed);
        Ok(concat_tables(parts)?.take(&positions))
    }

    fn map_partitions(
        &self,
        name: &str,
        f: &mut dyn FnMut(usize, &Table) -> BackendResult<Table>,
    ) -> BackendResult<Vec<Table>> {
        if !self.is_sharded(name) {
            return Ok(vec![f(0, &self.coordinator.snapshot(name)?)?]);
        }
        let mut out = Vec::with_capacity(self.shards.len());
        for (i, db) in self.shards.iter().enumerate() {
            // The closure runs against the shard's local rows; only what
            // it returns crosses to the coordinator.
            let result = f(i, &db.snapshot(name)?)?;
            self.rows_shuffled
                .fetch_add(result.num_rows() as u64, Ordering::Relaxed);
            out.push(result);
        }
        Ok(out)
    }

    fn stats(&self) -> BackendStats {
        let fanout_selects = self.fanout_selects.load(Ordering::Relaxed);
        let broadcast_statements = self.broadcast_statements.load(Ordering::Relaxed);
        let replicated_statements = self.replicated_statements.load(Ordering::Relaxed);
        let coordinator_selects = self.coordinator_selects.load(Ordering::Relaxed);
        let (mut bytes_sent, mut bytes_received) = (0u64, 0u64);
        let (mut split_bytes_sent, mut split_bytes_received) = (0u64, 0u64);
        for t in &self.shards {
            let (s, r) = t.wire_bytes();
            bytes_sent += s;
            bytes_received += r;
            let (ss, sr) = t.split_wire_bytes();
            split_bytes_sent += ss;
            split_bytes_received += sr;
        }
        // Dense split execution meters its fan-out traffic separately
        // (the transports attribute only protocol frames to split_*).
        split_bytes_sent += self.dense_split_sent.load(Ordering::Relaxed);
        split_bytes_received += self.dense_split_received.load(Ordering::Relaxed);
        BackendStats {
            statements: fanout_selects
                + broadcast_statements
                + replicated_statements
                + coordinator_selects,
            selects: fanout_selects + coordinator_selects,
            fanout_selects,
            broadcast_statements,
            replicated_statements,
            coordinator_selects,
            pushdown_splits: self.pushdown_splits.load(Ordering::Relaxed),
            split_rounds: self.split_rounds.load(Ordering::Relaxed),
            rows_shipped: self.rows_shuffled.load(Ordering::Relaxed),
            text_round_trips: 0,
            bytes_sent,
            bytes_received,
            split_bytes_sent,
            split_bytes_received,
        }
    }
}

/// The tables `q` references, split by position: `FROM`/`JOIN` closure
/// (where a sharded relation may legitimately appear) and expression
/// subqueries (where it cannot be fanned out correctly).
fn table_refs(q: &Query) -> (Vec<String>, Vec<String>) {
    let (mut from, mut expr) = (Vec::new(), Vec::new());
    q.visit_tables(&mut |name, pos| match pos {
        TablePosition::From => from.push(name.to_string()),
        TablePosition::Expr => expr.push(name.to_string()),
    });
    (from, expr)
}

// ---------------------------------------------------------------------------
// Fan-out planning
// ---------------------------------------------------------------------------

/// A distributable SPJA aggregate as the engine's binder decomposes it:
/// what every shard runs, how its columns `⊕`-merge, and the binder's
/// outputs, which the coordinator evaluates over the merged columns.
struct FanOut {
    /// `SELECT keys AS __key{i}, calls AS __agg{j} .. GROUP BY keys`; an
    /// `AVG` call ships as its `SUM`, its `COUNT` trailing the calls.
    shard: Query,
    /// How each column of the shard query's result merges.
    specs: Vec<MergeSpec>,
    /// Each `AVG` call's column and the division that finishes it.
    avgs: Vec<(usize, Expr)>,
    /// The select items over `__key{i}`/`__agg{j}`, named.
    outputs: Vec<(String, Expr)>,
}

impl FanOut {
    /// How `q`, bound as `plan`, fans out: `None` unless it aggregates
    /// base tables only. `ORDER BY`/`LIMIT` would need the merged groups,
    /// so an aggregate that takes them is an error.
    fn of(q: &Query, plan: &QueryPlan) -> BackendResult<Option<FanOut>> {
        let Output::Aggregate(keys, calls, outputs) = &plan.output else {
            return Ok(None);
        };
        if !scans_only(plan) {
            return Ok(None);
        }
        if !plan.order.is_empty() || plan.top_k.is_some() || plan.limit.is_some() {
            return Err(EngineError::Other(format!(
                "an aggregate over sharded data cannot take ORDER BY/LIMIT, which need \
                 the merged groups; order or limit a query over it instead: {q}"
            )));
        }
        let agg = |j: usize| format!("__agg{j}");
        let mut items: Vec<SelectItem> = (keys.iter().enumerate())
            .map(|(i, k)| SelectItem::aliased(k.clone(), format!("__key{i}")))
            .collect();
        let mut specs = vec![MergeSpec::Key; keys.len()];
        let (mut avgs, mut counts) = (Vec::new(), Vec::new());
        for (j, &call) in calls.iter().enumerate() {
            let Expr::Func { name, args } = call else {
                return Ok(None);
            };
            let (call, spec) = match name.as_str() {
                "SUM" | "COUNT" => (call.clone(), MergeSpec::Sum),
                "MIN" => (call.clone(), MergeSpec::Min),
                "MAX" => (call.clone(), MergeSpec::Max),
                "AVG" => {
                    let n = agg(calls.len() + avgs.len());
                    let avg = Expr::div(Expr::col(agg(j)), Expr::col(n.clone()));
                    avgs.push((items.len(), avg));
                    counts.push(SelectItem::aliased(Expr::func("COUNT", args.clone()), n));
                    (Expr::func("SUM", args.clone()), MergeSpec::Sum)
                }
                _ => return Ok(None),
            };
            items.push(SelectItem::aliased(call, agg(j)));
            specs.push(spec);
        }
        specs.resize(specs.len() + counts.len(), MergeSpec::Sum);
        items.extend(counts);
        Ok(Some(FanOut {
            shard: Query { items, ..q.clone() },
            specs,
            avgs,
            outputs: outputs.clone(),
        }))
    }

    /// The binder's outputs over the merged partials, each `AVG` first
    /// divided out. Expressions, evaluated on the coordinator without
    /// running a statement there.
    fn finish(&self, mut merged: Table, coordinator: &Database) -> BackendResult {
        let ctx = EvalContext::new(coordinator);
        for (col, avg) in &self.avgs {
            merged.columns[*col] = eval(avg, &merged, &ctx)?;
        }
        let mut out = Table::new();
        for (name, e) in &self.outputs {
            out.push_column(ColumnMeta::new(name.clone()), eval(e, &merged, &ctx)?);
        }
        Ok(out)
    }
}

/// Do all of the block's rows come from base tables (no `FROM` or `JOIN`
/// subquery), so that each shard can run it whole?
fn scans_only(plan: &QueryPlan) -> bool {
    let scan = |s: &Source| matches!(s, Source::Scan(..));
    scan(&plan.source)
        && plan.steps.iter().all(|step| match step {
            Step::Filter(_) => true,
            Step::SemiProbe(s, _) | Step::HashJoin(s, ..) | Step::NestedLoop(s) => scan(s),
        })
}

/// A block over base tables with no aggregation, windows, ordering or
/// limit: shard results concatenate.
fn is_plain_scan(plan: &QueryPlan) -> bool {
    let project = match &plan.output {
        Output::Project(items) => items.iter().all(|(_, e)| !contains_window(e)),
        Output::Aggregate(..) => false,
    };
    project
        && scans_only(plan)
        && plan.order.is_empty()
        && plan.top_k.is_none()
        && plan.limit.is_none()
}

fn contains_window(e: &Expr) -> bool {
    let mut found = false;
    e.walk(&mut |x| {
        found |= matches!(x, Expr::WindowSum { .. });
        !found
    });
    found
}

// ---------------------------------------------------------------------------
// Merge execution
// ---------------------------------------------------------------------------

/// `⊕`-merge per-shard partial aggregates with the engine's kernels: the
/// partials concatenate in shard order, group on the key columns, and
/// fold SUM/MIN/MAX per group in that order; the groups are then sorted
/// by key so the merged table has a deterministic, backend-independent
/// order.
fn merge_partials(partials: Vec<Table>, specs: &[MergeSpec]) -> BackendResult {
    let all = concat_tables(partials)?;
    if all.num_columns() != specs.len() {
        return Err(EngineError::Other(format!(
            "merge plan arity mismatch: {} columns, {} specs",
            all.num_columns(),
            specs.len()
        )));
    }
    let key_refs: Vec<&Column> = (specs.iter().zip(&all.columns))
        .filter_map(|(spec, col)| (*spec == MergeSpec::Key).then_some(col))
        .collect();
    let groups = keys::group_rows(&key_refs, all.num_rows());
    let key_cols: Vec<Column> = key_refs.iter().map(|c| c.take(&groups.reps)).collect();
    // Ints widen to f64 and NULLs sort last, as `Datum::sql_cmp` orders.
    let order = keys::SortKeys::new(key_cols.clone(), &vec![false; key_cols.len()])
        .sort_permutation(groups.num_groups);
    let mut key_cols = key_cols.into_iter();
    let mut out = Table::new();
    for ((m, spec), col) in all.meta.iter().zip(specs).zip(all.columns) {
        let name = match spec {
            MergeSpec::Key => {
                let key = key_cols.next().expect("one key column per Key spec");
                out.push_column(m.clone(), key.take(&order));
                continue;
            }
            MergeSpec::Sum => "SUM",
            MergeSpec::Min => "MIN",
            MergeSpec::Max => "MAX",
        };
        // The engine's SUM skips NaN as NULL, but a NaN partial (+inf and
        // -inf summed on one shard) is a value: its group sums to NaN, as
        // in a single engine over the same rows.
        let nan_groups: Vec<u32> = match &col.data {
            ColumnData::Float(v) if name == "SUM" => (0..v.len())
                .filter(|&r| v[r].is_nan() && col.is_valid(r))
                .map(|r| groups.gids[r])
                .collect(),
            _ => Vec::new(),
        };
        let agg = PreparedAgg::new(name, Some(col))?;
        let mut merged =
            agg::compute_grouped(&[agg], &groups.gids, groups.num_groups, &groups.sizes)?;
        let mut merged = merged.pop().expect("one column per aggregate");
        for &g in &nan_groups {
            // Written in place: a buffer the merge shares is copied first.
            if let ColumnData::Float(v) = &mut merged.data {
                Arc::make_mut(v)[g as usize] = f64::NAN;
            }
            if let Some(valid) = &mut merged.validity {
                Arc::make_mut(valid)[g as usize] = true;
            }
        }
        out.push_column(m.clone(), merged.take(&order));
    }
    Ok(out)
}

/// Vertically concatenate shard results (layouts must match), each column
/// keeping its type.
fn concat_tables(parts: Vec<Table>) -> BackendResult {
    let first = parts
        .first()
        .ok_or_else(|| EngineError::Other("no shard partials".into()))?;
    if parts.iter().any(|t| t.num_columns() != first.num_columns()) {
        return Err(EngineError::Other("shard gather layout mismatch".into()));
    }
    let mut out = Table::new();
    for (ci, m) in first.meta.iter().enumerate() {
        let cols: Vec<&Column> = parts.iter().map(|t| &t.columns[ci]).collect();
        out.push_column(ColumnMeta::new(m.name.clone()), Column::concat(&cols)?);
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// Shard-local split evaluation
// ---------------------------------------------------------------------------

/// Plan-level column roles of the split protocol: the single group key,
/// the two ⊕-summed split components, and how every shard column merges.
/// `val` and the components are the shard columns their outputs read
/// bare. `None` when the summary protocol cannot order the result
/// (multiple group keys, components that are not sums, or a `val` whose
/// order the key does not determine) — the caller then takes the dense
/// path without opening handles.
fn split_spec_for(plan: &FanOut, shape: &SplitQueryShape) -> Option<SplitSpec> {
    let [key] = plan.shard.group_by.as_slice() else {
        return None;
    };
    let col_of = |output: &str| -> Option<usize> {
        let (_, e) = (plan.outputs.iter()).find(|(n, _)| n.eq_ignore_ascii_case(output))?;
        let Expr::Column { table: None, name } = e else {
            return None;
        };
        (plan.shard.items.iter()).position(|it| it.alias.as_deref() == Some(name))
    };
    let val_col = col_of(&shape.val)?;
    let c0_col = col_of(&shape.components[0])?;
    let c1_col = col_of(&shape.components[1])?;
    // An AVG's column holds its merged sum, not a ⊕-summed output.
    let summed = |c: usize| plan.specs[c] == MergeSpec::Sum && plan.avgs.iter().all(|a| a.0 != c);
    if !summed(c0_col) || !summed(c1_col) {
        return None;
    }
    // When val is not itself the key (column 0), the key must still order
    // like val (the histogram-bin shape); otherwise prefix runs would be
    // built in the wrong order.
    if val_col != 0 && !binned_val_monotone(key, &plan.shard.items[val_col].expr) {
        return None;
    }
    Some(SplitSpec {
        key_col: 0,
        c0_col,
        c1_col,
        specs: plan.specs.clone(),
    })
}

/// Ask every shard handle the same protocol question, in parallel.
/// Results come back in shard order; the first shard error wins.
fn on_all_handles<'h, T, F>(handles: &[Box<dyn SplitHandle + 'h>], f: F) -> BackendResult<Vec<T>>
where
    T: Send,
    F: Fn(&dyn SplitHandle) -> BackendResult<T> + Sync,
{
    let results = par_map(handles, handles.len(), |h| f(h.as_ref()));
    results.into_iter().collect()
}

/// The coordinator half of the shard-local split protocol: boundary
/// keys → global interval grid → per-interval boundary prefix-sum
/// summaries → convexity bounds → candidate fetch → run-compressed
/// merged table. Every shard interaction goes through [`SplitHandle`],
/// so over a remote transport only these messages cross the wire.
///
/// Exactness: replacing a contiguous run of per-value rows `(v_a, v_b]`
/// by one row `(val(v_b), Σc, Σs)` leaves every *prefix sum* at `v_b` and
/// beyond unchanged, so the engine's window/argmax evaluation over the
/// compressed table computes exactly what it computes at the retained
/// rows of the dense table. The bounds only decide which interior rows
/// are retained; every boundary row is always present, and any interval
/// that could still hold the argmax (criteria upper bound ≥ best
/// boundary candidate, by convexity of both split criteria in the two
/// prefix components) ships its rows in full. See `DESIGN.md`
/// § "Distributed split evaluation" for the full argument.
fn shard_split_protocol(
    handles: &[Box<dyn SplitHandle + '_>],
    prefetched: Vec<Vec<Datum>>,
    specs: &[MergeSpec],
    shape: &SplitQueryShape,
    cfg: PushdownConfig,
) -> BackendResult<(Table, usize, usize)> {
    let total: usize = handles.iter().map(|h| h.num_rows()).sum();
    let mut shipped = 0usize;
    // Initial grid: each shard published k equal-count boundary keys in
    // its (fused) open reply — its last key always included, so the grid
    // covers every row.
    let k = cfg.boundaries_per_shard.max(2);
    let sort_dedup = |grid: &mut Vec<Datum>| {
        grid.sort_by(|a, b| a.sql_cmp(b));
        grid.dedup_by(|a, b| a.sql_cmp(b) == std::cmp::Ordering::Equal);
    };
    let mut grid: Vec<Datum> = Vec::new();
    for keys in prefetched {
        shipped += keys.len();
        grid.extend(keys);
    }
    sort_dedup(&mut grid);
    // The shards' equal-count boundaries cluster around the same global
    // quantiles, which would alternate tiny and huge intervals and pay
    // shards·|grid| summaries for no extra precision; the coordinator
    // coarsens the union back to ~k points (keeping the global maximum,
    // which covers every row) and lets refinement re-split only where the
    // criteria bounds demand it.
    if grid.len() > k {
        let stride = grid.len().div_ceil(k);
        let last = grid.last().cloned();
        let mut coarse: Vec<Datum> = grid
            .iter()
            .skip(stride - 1)
            .step_by(stride)
            .cloned()
            .collect();
        if let Some(last) = last {
            if coarse
                .last()
                .is_none_or(|d| d.sql_cmp(&last) != std::cmp::Ordering::Equal)
            {
                coarse.push(last);
            }
        }
        grid = coarse;
    }

    let [n0, n1] = &shape.components;
    let clip = shape.guard.as_ref().and_then(|g| guard_c_range(g, n0));
    let d_expr = d_wrt(&shape.criteria, n1, n0);

    // Refinement loop: summarize the grid intervals, bound the criteria
    // over each, and subdivide the survivors — candidate volume shrinks
    // geometrically, so a handful of summary rounds replaces shipping
    // whole buckets around a flat criteria peak.
    let mut retain: Vec<bool> = Vec::new();
    let mut rounds = 0usize;
    // Delta cache: the grid `deltas` (the per-shard summaries) was last
    // brought up to date for — empty before round 0, which therefore
    // asks for every interval. Valid because a summary is a pure
    // function of its interval's absolute row range — an interval whose
    // (lower, upper) bounds both survived refinement covers the same
    // rows and summarizes bit-identically, so only subdivided intervals
    // need the wire.
    let mut prev_grid: Vec<Datum> = Vec::new();
    let mut deltas: Vec<Vec<IntervalSummary>> = vec![Vec::new(); handles.len()];
    for round in 0usize..5 {
        let m = grid.len();
        // One summary row per (shard, interval): exact interval ⊕-sums
        // (f64 view), the range each shard's local prefix covers inside
        // the interval, and the shard's chord-deviation bound (how far
        // its prefix staircase strays from the straight line between its
        // interval endpoints — the term that makes the tight bound
        // O(width²) on smooth data). Later rounds only re-ship the
        // freshly subdivided intervals (charged at refinement time).
        let map = interval_delta_map(&prev_grid, &grid);
        let changed: Vec<usize> = map
            .iter()
            .enumerate()
            .filter_map(|(j, o)| o.is_none().then_some(j))
            .collect();
        let fresh = on_all_handles(handles, |h| h.summaries_delta(&grid, &changed))?;
        for (row, new) in deltas.iter_mut().zip(fresh) {
            *row = reconstruct_summaries(row, &map, &new).ok_or_else(|| {
                EngineError::Other("split summaries do not match the grid".into())
            })?;
        }
        rounds += 1;
        prev_grid.clone_from(&grid);
        let mut cum0 = vec![0.0f64; m];
        let mut cum1 = vec![0.0f64; m];
        let mut lo0 = vec![0.0f64; m];
        let mut hi0 = vec![0.0f64; m];
        let mut lo1 = vec![0.0f64; m];
        let mut hi1 = vec![0.0f64; m];
        for row in &deltas {
            for (j, d) in row.iter().enumerate() {
                cum0[j] += d.dc;
                cum1[j] += d.ds;
                lo0[j] += d.min0;
                hi0[j] += d.max0;
                lo1[j] += d.min1;
                hi1[j] += d.max1;
            }
        }
        if round == 0 {
            shipped += handles.len() * m;
        }
        // Exact global prefix sums at every grid boundary (cumulative).
        for j in 1..m {
            cum0[j] += cum0[j - 1];
            cum1[j] += cum1[j - 1];
        }

        // Best boundary candidate (lower bound for pruning): boundary
        // rows are always retained in the output, so the bound only has
        // to beat *interior* rows of pruned intervals.
        let mut best_lb = f64::NEG_INFINITY;
        for j in 0..m {
            let (c, s) = (cum0[j], cum1[j]);
            if let Some(g) = &shape.guard {
                match eval_two_col(g, n0, n1, c, s) {
                    Some(v) if v > 0.5 => {}
                    _ => continue,
                }
            }
            if let Some(v) = eval_two_col(&shape.criteria, n0, n1, c, s) {
                if v.is_finite() {
                    best_lb = best_lb.max(v - slack(v));
                }
            }
        }

        // Retention: an interval survives if the criteria's upper bound
        // over its reachable prefix set can still reach the best boundary
        // candidate. Two sound bounds are combined:
        //
        // * **box bound** — max over the corners of the prefix box (valid
        //   by convexity of both split criteria in the prefix
        //   components); overshoot is linear in the interval width;
        // * **chord bound** — exact criteria at the interval's chord
        //   endpoints plus `L_s · deviation`: any reachable point sits at
        //   vertical distance ≤ Σᵢ(maxdevᵢ + |ρᵢ−ρ|·max|Δcᵢ|) from the
        //   chord (triangle inequality over the per-shard staircases),
        //   and the criteria's s-slope over the box is bounded by
        //   interval arithmetic on its symbolic derivative. On smooth
        //   data the deviation is O(width²), which is what lets the
        //   pushdown prune aggressively near flat peaks.
        retain = (0..m)
            .map(|j| {
                let (mut clo, mut chi) = (lo0[j], hi0[j]);
                if let Some((glo, ghi)) = clip {
                    // Rows with a prefix count outside the guard range
                    // cannot win; clipping also steps off the convexity
                    // poles.
                    clo = clo.max(glo);
                    chi = chi.min(ghi);
                    if clo > chi {
                        return false;
                    }
                }
                let mut ub = f64::INFINITY;
                let mut box_ub = f64::NEG_INFINITY;
                let mut box_ok = true;
                for &c in &[clo, chi] {
                    for &s in &[lo1[j], hi1[j]] {
                        match eval_two_col(&shape.criteria, n0, n1, c, s) {
                            Some(v) if !v.is_nan() => box_ub = box_ub.max(v),
                            _ => box_ok = false,
                        }
                    }
                }
                if box_ok {
                    ub = box_ub;
                }
                let (c_start, s_start) = if j == 0 {
                    (0.0, 0.0)
                } else {
                    (cum0[j - 1], cum1[j - 1])
                };
                let dcg = cum0[j] - c_start;
                if let Some(dx) = &d_expr {
                    if dcg != 0.0 {
                        let rho = (cum1[j] - s_start) / dcg;
                        let mut dev = 0.0f64;
                        for row in &deltas {
                            let d = &row[j];
                            let rho_i = if d.dc != 0.0 { d.ds / d.dc } else { 0.0 };
                            dev += d.maxdev + (rho_i - rho).abs() * d.maxabsdc;
                        }
                        // Chord restricted to the (clipped) reachable
                        // c-range; max over a segment of a convex
                        // function is at the endpoints.
                        let chord = |c: f64| {
                            eval_two_col(&shape.criteria, n0, n1, c, s_start + rho * (c - c_start))
                        };
                        let s_ext = (
                            lo1[j]
                                .min(s_start + rho * (clo - c_start))
                                .min(s_start + rho * (chi - c_start)),
                            hi1[j]
                                .max(s_start + rho * (clo - c_start))
                                .max(s_start + rho * (chi - c_start)),
                        );
                        if let (Some(e1), Some(e2), Some((dlo, dhi))) = (
                            chord(clo),
                            chord(chi),
                            eval_interval(dx, n0, n1, (clo, chi), s_ext),
                        ) {
                            let tight = e1.max(e2) + dlo.abs().max(dhi.abs()) * dev;
                            if !tight.is_nan() {
                                ub = ub.min(tight);
                            }
                        }
                    }
                }
                if ub == f64::INFINITY {
                    return true; // no usable bound: keep the rows
                }
                ub + slack(ub) >= best_lb
            })
            .collect();

        let interval_rows =
            |j: usize| -> usize { deltas.iter().map(|row| row[j].rows as usize).sum::<usize>() };
        let retained_rows: usize = (0..m).filter(|&j| retain[j]).map(interval_rows).sum();
        let retained_count = retain.iter().filter(|&&r| r).count();
        // Stop refining once the candidate set is small, the round budget
        // is spent, or another summary round could no longer undercut
        // what shipping the remaining candidates outright costs.
        if round == 4
            || retained_rows <= (2 * k * handles.len()).max(64)
            || shipped + retained_rows >= total
        {
            break;
        }
        // Subdivide the survivors: spend a ~2k-key budget proportionally
        // to each surviving interval's row mass (each shard publishes
        // equal-count sub-boundaries inside its slice of the interval).
        let budget = 2 * k;
        let mut targets: Vec<(usize, usize)> = Vec::new();
        for (j, &keep) in retain.iter().enumerate() {
            if !keep || retained_rows == 0 {
                continue;
            }
            let quota = (budget * interval_rows(j)).div_ceil(retained_rows).max(1);
            targets.push((j, quota.div_ceil(handles.len()).max(1)));
        }
        let mut added: Vec<Datum> = Vec::new();
        for keys in on_all_handles(handles, |h| h.refine(&grid, &targets))? {
            added.extend(keys);
        }
        sort_dedup(&mut added);
        if added.is_empty() {
            break;
        }
        // New boundary keys plus re-summaries of the subdivided ranges.
        shipped += added.len() + handles.len() * (retained_count + added.len());
        grid.extend(added);
        sort_dedup(&mut grid);
    }

    // Assemble: every shard ships its retained intervals' rows in full
    // plus one compressed partial per non-empty pruned interval; the
    // ⊕-merge matches partials on the (unique) keys, so the merged table
    // is exactly the run-compressed table of the in-process protocol.
    let fetches = on_all_handles(handles, |h| h.fetch(&grid, &retain))?;
    shipped += fetches.iter().map(Table::num_rows).sum::<usize>();
    let merged = merge_partials(fetches, specs)?;
    Ok((merged, shipped, rounds))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn star(n_shards: usize) -> ShardedBackend {
        let b = ShardedBackend::new(n_shards, EngineConfig::duckdb_mem(), "fact", "k");
        b.create_table(
            "fact",
            Table::from_columns(vec![
                ("k", Column::int((0..100).map(|i| i % 10).collect())),
                ("y", Column::float((0..100).map(|i| i as f64).collect())),
            ]),
        )
        .unwrap();
        b.create_table(
            "dim",
            Table::from_columns(vec![
                ("k", Column::int((0..10).collect())),
                ("grp", Column::int((0..10).map(|i| i % 2).collect())),
            ]),
        )
        .unwrap();
        b
    }

    #[test]
    fn partitions_fact_and_replicates_dims() {
        let b = star(4);
        assert!(b.is_sharded("fact"));
        assert!(!b.is_sharded("dim"));
        assert_eq!(b.row_count("fact").unwrap(), 100);
        let per_shard: Vec<usize> = (0..4)
            .map(|i| b.shard(i).row_count("fact").unwrap())
            .collect();
        assert!(per_shard.iter().all(|&n| n > 0), "{per_shard:?}");
        assert_eq!(b.coordinator().row_count("dim").unwrap(), 10);
        assert!(!b.coordinator().has_table("fact"));
    }

    #[test]
    fn grouped_aggregate_merges_exactly_across_shard_counts() {
        let single = star(1);
        let q = "SELECT grp, SUM(y) AS s, COUNT(*) AS c \
                 FROM fact JOIN dim USING (k) GROUP BY grp";
        let expected = single.query(q).unwrap();
        for n in [2, 3, 4] {
            let b = star(n);
            let got = b.query(q).unwrap();
            assert_eq!(got, expected, "{n} shards diverged");
            assert!(b.stats().fanout_selects > 0);
            assert!(b.stats().rows_shipped > 0);
        }
    }

    // Property test: ⊕-merged partials equal the single-engine result on
    // random integer data (exact arithmetic, sums past 2^53, NULLs) and
    // string MIN/MAX over random shard counts, key skew and group counts —
    // AVG, arithmetic over aggregates and a group key absent from the
    // output included.
    proptest::proptest! {
        #![proptest_config(proptest::test_runner::Config::with_cases(24))]
        #[test]
        fn random_grouped_aggregates_match_unsharded_engine(
            rows in 1usize..200,
            groups in 1u64..12,
            shards in 1usize..5,
            seed in 0u64..1000,
        ) {
            let mut h = seed.wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(1);
            let mut next = move || {
                h ^= h >> 33;
                h = h.wrapping_mul(0xff51afd7ed558ccd);
                h ^= h >> 29;
                h
            };
            let k: Vec<i64> = (0..rows).map(|_| (next() % 50) as i64).collect();
            let g: Vec<i64> = (0..rows).map(|_| (next() % groups) as i64).collect();
            let v: Vec<Datum> = (0..rows)
                .map(|_| match next() % 8 {
                    0 => Datum::Null,
                    1 => Datum::Int((1 << 53) - (next() % 4) as i64),
                    2 => Datum::Int((next() % 4) as i64 - (1 << 53)),
                    _ => Datum::Int((next() % 1000) as i64 - 500),
                })
                .collect();
            let name: Vec<String> = (0..rows).map(|_| format!("n{}", next() % 30)).collect();
            let table = Table::from_columns(vec![
                ("k", Column::int(k)),
                ("g", Column::int(g)),
                ("v", Column::from_datums(DataType::Int, &v).unwrap()),
                ("name", Column::str(name)),
            ]);
            let engine = Database::in_memory();
            engine.create_table("fact", table.clone()).unwrap();
            let b = ShardedBackend::new(shards, EngineConfig::duckdb_mem(), "fact", "k");
            b.create_table("fact", table).unwrap();
            // The ORDER BY layer runs on the coordinator over the merged
            // aggregate, giving both backends the same row order.
            let queries = [
                "SELECT * FROM (SELECT g, COUNT(*) AS c, SUM(v) AS s, MIN(v) AS mn, \
                 MAX(v) AS mx, MIN(name) AS first, MAX(name) AS last, AVG(v) AS avg, \
                 SUM(v) / COUNT(*) AS mean, MAX(v) - MIN(v) AS span \
                 FROM fact GROUP BY g) AS a ORDER BY g",
                "SELECT * FROM (SELECT MIN(g) AS low, COUNT(*) AS c, AVG(v) AS avg, \
                 SUM(v) * 2 AS twice FROM fact GROUP BY g + 1) AS a ORDER BY low",
            ];
            // Compared by metadata, type and value, not by `Table` equality:
            // a Str column's dictionary order follows the order its rows
            // were folded in.
            let values = |t: Table| {
                let types: Vec<DataType> = t.columns.iter().map(Column::dtype).collect();
                let rows: Vec<_> = (0..t.num_rows()).map(|i| t.row(i)).collect();
                (t.meta, types, rows)
            };
            for q in queries {
                assert_eq!(values(b.query(q).unwrap()), values(engine.query(q).unwrap()));
            }
            // Ordering a flat aggregate needs the merged groups: a typed
            // error naming the clause, not an unsupported shape.
            let err = b
                .query("SELECT g, SUM(v) AS s FROM fact GROUP BY g ORDER BY g")
                .unwrap_err();
            assert!(matches!(&err, EngineError::Other(m) if m.contains("ORDER BY/LIMIT")), "{err}");
        }
    }

    #[test]
    fn nan_partials_make_the_merged_sum_nan() {
        // +inf and -inf share k, hence a shard, whose SUM partial is NaN;
        // one engine over the same rows sums group 1 to NaN too.
        let table = Table::from_columns(vec![
            ("k", Column::int(vec![0, 0, 1, 1, 2])),
            ("g", Column::int(vec![0, 0, 1, 1, 1])),
            (
                "v",
                Column::float(vec![1.0, 2.0, f64::INFINITY, f64::NEG_INFINITY, 2.5]),
            ),
        ]);
        let q = "SELECT * FROM (SELECT g, SUM(v) AS s FROM fact GROUP BY g) AS a ORDER BY g";
        let engine = Database::in_memory();
        engine.create_table("fact", table.clone()).unwrap();
        for shards in [1, 2, 3] {
            let b = ShardedBackend::new(shards, EngineConfig::duckdb_mem(), "fact", "k");
            b.create_table("fact", table.clone()).unwrap();
            for t in [b.query(q).unwrap(), engine.query(q).unwrap()] {
                assert_eq!(t.column(None, "s").unwrap().get(0), Datum::Float(3.0));
                let s = t.column(None, "s").unwrap().get(1);
                assert!(
                    matches!(s, Datum::Float(x) if x.is_nan()),
                    "{shards} shards: {s:?}"
                );
            }
        }
    }

    #[test]
    fn merging_a_nan_partial_leaves_the_partials_unchanged() {
        let image = |t: &Table| {
            let mut out = Vec::new();
            for c in &t.columns {
                joinboost_engine::storage::codec::encode_column(&mut out, c);
            }
            out
        };
        let partial = |s: Vec<Datum>| {
            Table::from_columns(vec![
                ("g", Column::int(vec![0, 1, 2])),
                ("s", Column::from_datums(DataType::Float, &s).unwrap()),
            ])
        };
        let nan = Datum::Float(f64::NAN);
        let partials = vec![
            partial(vec![Datum::Float(1.0), nan.clone(), Datum::Null]),
            partial(vec![Datum::Float(2.0), Datum::Float(0.5), nan]),
        ];
        let kept = partials.clone();
        let before: Vec<Vec<u8>> = kept.iter().map(image).collect();
        let merged = merge_partials(partials, &[MergeSpec::Key, MergeSpec::Sum]).unwrap();
        let s = merged.column(None, "s").unwrap();
        assert_eq!(s.get(0), Datum::Float(3.0));
        assert!(matches!(s.get(1), Datum::Float(x) if x.is_nan()));
        assert!(matches!(s.get(2), Datum::Float(x) if x.is_nan()));
        assert_eq!(kept.iter().map(image).collect::<Vec<_>>(), before);
    }

    #[test]
    fn sharded_create_table_as_stays_shard_local() {
        let b = star(3);
        b.execute("CREATE TABLE msg AS SELECT k, SUM(y) AS s FROM fact GROUP BY k")
            .unwrap();
        assert!(b.is_sharded("msg"));
        assert!(!b.coordinator().has_table("msg"));
        // Joining the replicated dim against the shard-local message still
        // merges to the global answer.
        let t = b
            .query("SELECT grp, SUM(s) AS s FROM dim JOIN msg USING (k) GROUP BY grp")
            .unwrap();
        let expected = star(1)
            .query("SELECT grp, SUM(y) AS s FROM fact JOIN dim USING (k) GROUP BY grp")
            .unwrap();
        assert_eq!(
            t.column(None, "s").unwrap(),
            expected.column(None, "s").unwrap()
        );
        b.execute("DROP TABLE msg").unwrap();
        assert!(!b.has_table("msg"));
    }

    #[test]
    fn nested_split_query_runs_outer_layers_on_coordinator() {
        // The Example-2 shape: window prefix sums + argmax over an
        // absorbed aggregate of sharded data.
        let q = "SELECT val, c, s FROM (SELECT val, SUM(c) OVER (ORDER BY val) AS c, \
                 SUM(s) OVER (ORDER BY val) AS s FROM (SELECT grp AS val, COUNT(*) AS c, \
                 SUM(y) AS s FROM fact JOIN dim USING (k) GROUP BY grp) AS g) AS w \
                 ORDER BY s DESC LIMIT 1";
        let expected = star(1).query(q).unwrap();
        for n in [2, 4] {
            let got = star(n).query(q).unwrap();
            assert_eq!(got, expected, "{n} shards diverged");
        }
    }

    #[test]
    fn updates_broadcast_to_shards() {
        let b = star(3);
        b.execute("UPDATE fact SET y = 0.0 WHERE k IN (SELECT k FROM dim WHERE grp = 0)")
            .unwrap();
        let t = b.query("SELECT SUM(y) AS s FROM fact").unwrap();
        let expected = {
            let s1 = star(1);
            s1.execute("UPDATE fact SET y = 0.0 WHERE k IN (SELECT k FROM dim WHERE grp = 0)")
                .unwrap();
            s1.query("SELECT SUM(y) AS s FROM fact").unwrap()
        };
        assert_eq!(t, expected);
    }

    #[test]
    fn plain_scan_gathers_all_rows() {
        let b = star(4);
        let t = b.query("SELECT y FROM fact WHERE k = 3").unwrap();
        assert_eq!(t.num_rows(), 10);
    }

    #[test]
    fn projection_over_an_aggregate_subquery_merges_before_projecting() {
        // Gathering the whole query would concatenate every shard's
        // unmerged groups; the subquery merges first, as a nested query.
        let q = "SELECT s FROM (SELECT grp, SUM(y) AS s FROM fact JOIN dim USING (k) \
                 GROUP BY grp) AS a";
        let sorted = |t: Table| {
            let mut s: Vec<_> = (0..t.num_rows()).map(|i| t.row(i)).collect();
            s.sort_by(|a, b| a[0].sql_cmp(&b[0]));
            s
        };
        let expected = sorted(star(1).query(q).unwrap());
        assert_eq!(expected.len(), 2);
        for n in [2, 4] {
            assert_eq!(sorted(star(n).query(q).unwrap()), expected, "{n} shards");
        }
    }

    #[test]
    fn gathers_keep_column_types_when_no_shard_has_a_value() {
        let b = ShardedBackend::new(3, EngineConfig::duckdb_mem(), "fact", "k");
        let n = Column::int(vec![0; 30]).take_nullable(&[None; 30]);
        let mut fact = Table::from_columns(vec![
            ("k", Column::int((0..30).collect())),
            (
                "name",
                Column::str((0..30).map(|i| format!("v{i}")).collect()),
            ),
        ]);
        fact.push_column(ColumnMeta::new("n"), n);
        b.create_table("fact", fact).unwrap();
        let empty = b.query("SELECT name FROM fact WHERE k < 0").unwrap();
        let name = empty.column(None, "name").unwrap();
        assert_eq!((name.dtype(), name.len()), (DataType::Str, 0));
        let all = b.query("SELECT k, n FROM fact").unwrap();
        let n = all.column(None, "n").unwrap();
        assert_eq!((n.dtype(), n.null_count()), (DataType::Int, 30));
    }

    #[test]
    fn joining_two_sharded_relations_is_rejected() {
        let b = star(2);
        b.execute("CREATE TABLE m1 AS SELECT k, SUM(y) AS s FROM fact GROUP BY k")
            .unwrap();
        let err = b
            .query("SELECT SUM(fact.y) AS s FROM fact JOIN m1 USING (k)")
            .unwrap_err();
        assert!(err.to_string().contains("two sharded relations"), "{err}");
    }

    #[test]
    fn sibling_subtraction_runs_shard_locally_like_one_engine() {
        // Messages group by `j`, which is not the shard key, so every key's
        // rows spread over several shards. Keys 0..=2 go to the sibling only.
        let fact = Table::from_columns(vec![
            ("k", Column::int((0..100).collect())),
            ("j", Column::int((0..100).map(|i| i % 10).collect())),
            (
                "y",
                Column::float((0..100).map(|i| i as f64 * 0.375).collect()),
            ),
        ]);
        let sibling = "j < 3 OR y < 7.5";
        let stmts = [
            "CREATE TABLE p AS SELECT j, COUNT(*) AS jb_c, SUM(y) AS jb_s FROM fact GROUP BY j"
                .to_string(),
            format!(
                "CREATE TABLE s AS SELECT j, COUNT(*) AS jb_c, SUM(y) AS jb_s FROM fact \
                 WHERE {sibling} GROUP BY j"
            ),
            "CREATE TABLE m AS SELECT j, p.jb_c - COALESCE(s.jb_c, 0) AS jb_c, \
             p.jb_s - COALESCE(s.jb_s, 0.0) AS jb_s FROM p LEFT JOIN s USING (j) \
             WHERE p.jb_c - COALESCE(s.jb_c, 0) > 0"
                .to_string(),
            format!(
                "CREATE TABLE scan AS SELECT j, COUNT(*) AS jb_c, SUM(y) AS jb_s FROM fact \
                 WHERE NOT ({sibling}) GROUP BY j"
            ),
        ];
        let merged = |t: &str| {
            format!(
                "SELECT * FROM (SELECT j, SUM(jb_c) AS c, SUM(jb_s) AS s FROM {t} \
                 GROUP BY j) AS a ORDER BY j"
            )
        };
        let engine = Database::in_memory();
        engine.create_table("fact", fact.clone()).unwrap();
        let b = ShardedBackend::new(4, EngineConfig::duckdb_mem(), "fact", "k");
        b.create_table("fact", fact).unwrap();
        for stmt in &stmts {
            engine.execute(stmt).unwrap();
            b.execute(stmt).unwrap();
        }
        assert!(b.is_sharded("m"));
        let expected = engine.query(&merged("m")).unwrap();
        assert_eq!(b.query(&merged("m")).unwrap(), expected);
        assert_eq!(engine.query(&merged("scan")).unwrap(), expected);
        let keys = expected.column(None, "j").unwrap();
        let keys: Vec<_> = (0..expected.num_rows()).map(|i| keys.get(i)).collect();
        assert_eq!(keys, (3..10).map(Datum::Int).collect::<Vec<_>>());
        // Each shard's partial equals its own scan, key set included.
        for i in 0..4 {
            let shard = b.shard(i);
            assert_eq!(
                shard.query("SELECT * FROM m ORDER BY j").unwrap(),
                shard.query("SELECT * FROM scan ORDER BY j").unwrap(),
                "shard {i}"
            );
        }
    }

    #[test]
    fn binned_absorb_without_key_in_output_merges_like_single_engine() {
        // GROUP BY FLOOR(..) with the bin id absent from the output: every
        // shard groups on the binder's `__key0`, the coordinator merges
        // MAX/⊕ per bin and evaluates only the select items — same answer
        // as one engine.
        let q = "SELECT * FROM (SELECT MAX(y) AS val, COUNT(*) AS c, SUM(y) AS s \
                 FROM fact GROUP BY FLOOR(y / 10.0)) AS b ORDER BY val";
        let expected = star(1).query(q).unwrap();
        assert_eq!(expected.num_rows(), 10, "ten bins over y in 0..100");
        for n in [2, 3, 4] {
            let b = star(n);
            let got = b.query(q).unwrap();
            assert_eq!(got, expected, "{n} shards diverged");
            // The shard's key column never leaks into the output.
            let names =
                |t: &Table| -> Vec<String> { t.meta.iter().map(|m| m.name.clone()).collect() };
            assert_eq!(names(&got), names(&expected));
        }
    }

    #[test]
    fn split_query_pushdown_matches_dense_merge_and_ships_less() {
        // A high-cardinality numeric split query: the pushdown must give
        // the same (bit-level) winner while shipping far fewer rows.
        let rows = 20_000usize;
        let card = 2_500i64;
        let make = |shards: usize| {
            let b = ShardedBackend::new(shards, EngineConfig::duckdb_mem(), "fact", "k");
            b.create_table(
                "fact",
                Table::from_columns(vec![
                    ("k", Column::int((0..rows as i64).collect())),
                    (
                        "f",
                        Column::int((0..rows).map(|i| (i as i64 * 7919) % card).collect()),
                    ),
                    (
                        // The target follows the feature (dyadic 1/8 grid,
                        // so both merge orders are exact): the criterion
                        // then has a real peak and pruning can bite.
                        "y",
                        Column::float(
                            (0..rows)
                                .map(|i| (((i as i64 * 7919) % card) as f64) / 8.0)
                                .collect(),
                        ),
                    ),
                ]),
            )
            .unwrap();
            b
        };
        let absorbed = joinboost_sql::parse_query(
            "SELECT f AS val, COUNT(*) AS c, SUM(y) AS s FROM fact WHERE f IS NOT NULL GROUP BY f",
        )
        .unwrap();
        let totals = {
            let b = make(1);
            let t = b
                .query("SELECT COUNT(*) AS c, SUM(y) AS s FROM fact")
                .unwrap();
            crate::sqlgen::NodeTotals {
                c0: t.scalar_f64("c").unwrap(),
                c1: t.scalar_f64("s").unwrap(),
            }
        };
        let q = crate::sqlgen::numeric_split_query(
            absorbed,
            crate::sqlgen::RingKind::Variance,
            totals,
            0.0,
            1.0,
        )
        .to_string();
        let dense = make(4);
        dense.set_pushdown(false);
        let expected = dense.query(&q).unwrap();
        let dense_rows = dense.stats().rows_shipped;
        let pushed = make(4);
        let got = pushed.query(&q).unwrap();
        let pushed_rows = pushed.stats().rows_shipped;
        assert_eq!(got, expected, "pushdown changed the split result");
        assert_eq!(pushed.stats().pushdown_splits, 1);
        assert!(
            pushed_rows * 5 <= dense_rows,
            "pushdown must ship >= 5x fewer rows ({pushed_rows} vs {dense_rows})"
        );
    }

    #[test]
    fn skewed_partitioning_is_detected() {
        // Every fact row carries the same shard key: one partition takes
        // everything, and the load-time telemetry must say so.
        let b = ShardedBackend::new(5, EngineConfig::duckdb_mem(), "fact", "k");
        b.create_table(
            "fact",
            Table::from_columns(vec![
                ("k", Column::int(vec![7; 50])),
                ("y", Column::float(vec![1.0; 50])),
            ]),
        )
        .unwrap();
        assert_eq!(b.skew_warnings(), 1, "max/mean = 5 > 4 must warn");
        let sizes = b.partition_sizes();
        assert_eq!(sizes.iter().sum::<usize>(), 50);
        assert_eq!(*sizes.iter().max().unwrap(), 50);
        // A healthy distribution stays quiet.
        let ok = star(4);
        assert_eq!(ok.skew_warnings(), 0);
        assert_eq!(ok.partition_sizes().iter().sum::<usize>(), 100);
    }

    #[test]
    fn gather_rows_ships_only_the_sample() {
        let b = star(3);
        let before = b.stats().rows_shipped;
        // Positions across the snapshot order, deliberately shuffled.
        let want: Vec<u32> = vec![99, 0, 57, 13, 13, 42];
        let got = b.gather_rows("fact", &want).unwrap();
        let full = b.snapshot("fact").unwrap();
        assert_eq!(got.num_rows(), want.len());
        for (i, &g) in want.iter().enumerate() {
            for c in 0..full.num_columns() {
                assert_eq!(got.columns[c].get(i), full.columns[c].get(g as usize));
            }
        }
        // Only the sample (plus the verifying snapshot above) crossed over.
        let shipped = b.stats().rows_shipped - before;
        assert_eq!(shipped as usize, want.len() + full.num_rows());
        assert!(b.gather_rows("fact", &[100]).is_err(), "out of range");
        // Replicated tables answer from the coordinator.
        let dim = b.gather_rows("dim", &[3, 1]).unwrap();
        assert_eq!(dim.num_rows(), 2);
    }

    #[test]
    fn sharded_ref_inside_expression_subquery_is_rejected_not_multiplied() {
        // A replicated outer table filtered by an IN-subquery over the
        // sharded fact: fanning out would scan the dim replica once per
        // shard and ADD partials — silently shard-count-multiplied. Must
        // error instead.
        let b = star(4);
        for q in [
            "SELECT SUM(grp) AS s FROM dim WHERE k IN (SELECT k FROM fact WHERE y > 50.0)",
            "SELECT grp FROM dim WHERE k IN (SELECT k FROM fact WHERE y > 50.0)",
        ] {
            let err = b.query(q).unwrap_err();
            assert!(err.to_string().contains("expression subquery"), "{err}");
        }
        // Same shape with a replicated subquery target is fine.
        let t = b
            .query("SELECT SUM(y) AS s FROM fact WHERE k IN (SELECT k FROM dim WHERE grp = 0)")
            .unwrap();
        assert_eq!(
            t,
            star(1)
                .query("SELECT SUM(y) AS s FROM fact WHERE k IN (SELECT k FROM dim WHERE grp = 0)")
                .unwrap()
        );
    }

    #[test]
    fn update_of_replicated_table_with_sharded_predicate_is_rejected() {
        // Broadcasting would leave the coordinator stale and make shard
        // replicas diverge (each evaluates the subquery on its partition).
        let b = star(2);
        let err = b
            .execute("UPDATE dim SET grp = 9 WHERE k IN (SELECT k FROM fact WHERE y > 0.0)")
            .unwrap_err();
        assert!(err.to_string().contains("expression subquery"), "{err}");
        // Replicated-only updates still apply everywhere.
        b.execute("UPDATE dim SET grp = 9 WHERE k = 0").unwrap();
        let coord: &dyn ShardTransport = b.coordinator();
        for db in [coord, b.shard(0), b.shard(1)] {
            let t = db.query("SELECT grp FROM dim WHERE k = 0").unwrap();
            assert_eq!(t.column(None, "grp").unwrap().get(0), Datum::Int(9));
        }
    }

    #[test]
    fn swap_between_sharded_and_replicated_is_rejected() {
        let b = ShardedBackend::new(
            2,
            EngineConfig {
                allow_swap: true,
                ..EngineConfig::duckdb_mem()
            },
            "fact",
            "k",
        );
        b.create_table(
            "fact",
            Table::from_columns(vec![
                ("k", Column::int(vec![1, 2])),
                ("y", Column::float(vec![1.0, 2.0])),
            ]),
        )
        .unwrap();
        b.create_table(
            "dim",
            Table::from_columns(vec![
                ("k", Column::int(vec![1, 2])),
                ("y", Column::float(vec![9.0, 9.0])),
            ]),
        )
        .unwrap();
        let err = b.execute("SWAP COLUMN fact.y WITH dim.y").unwrap_err();
        assert!(err.to_string().contains("SWAP COLUMN"), "{err}");
    }

    #[test]
    fn strided_integer_keys_still_spread_across_shards() {
        // All-even surrogate ids: `v % shards` would land everything on
        // shard 0; the FNV hash must spread them.
        let b = ShardedBackend::new(2, EngineConfig::duckdb_mem(), "fact", "k");
        b.create_table(
            "fact",
            Table::from_columns(vec![
                ("k", Column::int((0..100).map(|i| i * 2).collect())),
                ("y", Column::float(vec![1.0; 100])),
            ]),
        )
        .unwrap();
        let (a, c) = (
            b.shard(0).row_count("fact").unwrap(),
            b.shard(1).row_count("fact").unwrap(),
        );
        assert_eq!(a + c, 100);
        assert!(a > 10 && c > 10, "skewed partition: {a}/{c}");
    }

    #[test]
    fn snapshot_gathers_partitions() {
        let b = star(3);
        let t = b.snapshot("fact").unwrap();
        assert_eq!(t.num_rows(), 100);
        let sum: f64 = (0..t.num_rows())
            .map(|i| t.column(None, "y").unwrap().f64_at(i).unwrap())
            .sum();
        assert_eq!(sum, 4950.0);
    }
}
