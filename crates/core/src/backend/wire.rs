//! The wire protocol of the remote backend: length-prefixed frames
//! carrying SQL *text* and columnar table blocks.
//!
//! Design (see `DESIGN.md` § "Wire protocol"):
//!
//! * **Framing** — every message is `[u32 LE length][payload]`; a frame is
//!   read fully or the connection is dead. Requests and responses are
//!   *multiplexed*: the client may have many requests in flight on one
//!   socket, and matches each response to its request by sequence
//!   number. Oversized lengths (> [`MAX_FRAME`]) are rejected before
//!   any allocation, so a corrupt or malicious peer cannot OOM the reader.
//! * **Sessions and replay** — the first frame on a connection is a raw
//!   [`Request::Hello`] carrying a client-generated *resume token*;
//!   every later request frame is `[u64 LE seq][u64 LE ack][encoded
//!   request]` and every response `[u64 LE seq][encoded response]`, so
//!   a pipelined client can match out-of-order-completed replies. The
//!   server keeps, per token, the encoded responses of every
//!   applied-but-unacknowledged request (`ack` = the client's lowest
//!   in-flight seq releases older entries): a reconnecting client that
//!   re-presents its token and re-issues its in-flight requests either
//!   gets the *cached* responses (applied but the reply was lost —
//!   replay of non-idempotent CREATE/UPDATE is therefore safe) or fresh
//!   executions (they never arrived).
//! * **SQL travels as text** — [`Request::Execute`] carries the printed
//!   statement, leaning on the `print ∘ parse ∘ print` fixed-point proved
//!   by [`crate::backend::SqlTextBackend`]: the server re-parses exactly
//!   the statement the client's planner built.
//! * **Tables travel as columnar blocks** — column and row counts, then
//!   per column its qualifier, its name and the storage codec's column body
//!   ([`joinboost_engine::storage::codec`]: f64s by bit pattern, strings as
//!   dictionary + codes, validity as a packed bitmap), so a decoded
//!   [`Table`] is *bit-exact*, not just value-equal: NaN payloads, `-0.0`
//!   and dictionary order all survive. The `wire_roundtrip` proptests pin
//!   this down.
//! * **Errors stay typed** — [`EngineError`] crosses the wire as a kind
//!   tag plus its field string, so a remote `UnknownTable` is the *same*
//!   variant the local engine would have produced; transport failures (and
//!   only those) map into [`EngineError::Other`] with the shard address
//!   attached.
//!
//! Everything here is synchronous `std::io` over any `Read`/`Write` pair —
//! the repo builds without tokio, and one OS thread per connection is
//! exactly the concurrency model the sharded fan-out already uses.

use std::io::{self, Read, Write};

use joinboost_engine::storage::codec::{
    decode_column, encode_column, put_string, put_u32, put_u64, ByteReader,
};
use joinboost_engine::table::ColumnMeta;
use joinboost_engine::{Column, DataType, EngineError, Table};

use crate::serve::ScorerSpec;
use crate::tree::{Split, SplitCondition, Tree, TreeNode};

/// A training job as submitted over the wire: the join graph by name
/// (the referenced tables must already be loaded on the server), the
/// target binding, and the training parameters the serving tier exposes.
///
/// `key_column` names a unique `Int` column on the target relation; when
/// set, a finished job compiles its model into message tables (see
/// [`crate::serve`]) so [`Request::PredictBatch`] can score keys against
/// it without a join.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// `(relation name, feature columns)` — one entry per table.
    pub relations: Vec<(String, Vec<String>)>,
    /// `(relation a, relation b, join key columns)` edges; `a` is the
    /// many side (the graph defaults to many-to-one toward `b`).
    pub edges: Vec<(String, String, Vec<String>)>,
    /// Relation holding the target column.
    pub target_relation: String,
    /// The target (label) column.
    pub target_column: String,
    /// Predict-key column on the target relation; `None` trains without
    /// deploying message tables.
    pub key_column: Option<String>,
    /// Boosting iterations.
    pub num_iterations: u32,
    /// Leaves per tree.
    pub num_leaves: u32,
    /// Shrinkage.
    pub learning_rate: f64,
    /// Dyadic leaf grid (0 disables; see `DESIGN.md` § Backends).
    pub leaf_quantization: f64,
    /// Random seed.
    pub seed: u64,
}

impl Default for JobSpec {
    fn default() -> JobSpec {
        JobSpec {
            relations: Vec::new(),
            edges: Vec::new(),
            target_relation: String::new(),
            target_column: String::new(),
            key_column: None,
            num_iterations: 3,
            num_leaves: 8,
            learning_rate: 0.5,
            leaf_quantization: (2.0f64).powi(-10),
            seed: 42,
        }
    }
}

/// Protocol magic, sent in [`Request::Hello`]: `"JBWP"` (JoinBoost wire
/// protocol).
pub const MAGIC: u32 = 0x4a42_5750;

/// Protocol version; bumped on any incompatible codec change. The server
/// speaks exactly this version and answers a `Hello` carrying any other
/// with a typed mismatch error instead of misdecoding (the history of
/// versions 2–6 is in `CHANGES.md`).
pub const VERSION: u32 = 7;

/// Upper bound on one frame's payload (64 MiB). Larger tables must be
/// loaded in parts; in practice JoinBoost's shard messages are orders of
/// magnitude smaller.
pub const MAX_FRAME: u32 = 64 << 20;

/// One client → server message.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Handshake: protocol magic + version + session resume token. Always
    /// the first (and only un-enveloped) frame on a connection. The server
    /// answers with [`Response::Caps`] or an error on a version mismatch.
    /// Re-presenting a token re-attaches the connection to that session's
    /// surviving state (split handles, temp tables, replay cache).
    Hello {
        /// Must equal [`MAGIC`].
        magic: u32,
        /// Must equal [`VERSION`].
        version: u32,
        /// Client-generated session resume token (nonzero in practice).
        token: u64,
    },
    /// Execute one SQL statement given as text; the answer is
    /// [`Response::Table`] (empty for non-`SELECT`s).
    Execute {
        /// The statement, printed by the client's emitter.
        sql: String,
    },
    /// Bulk-load a table under the given name (columnar block).
    CreateTable {
        /// Table name to register.
        name: String,
        /// The table payload.
        table: Table,
    },
    /// Schema and row count of a table; answered with
    /// [`Response::Schema`] (or `UnknownTable`).
    Describe {
        /// Table to describe.
        name: String,
    },
    /// Read a table; answered with [`Response::Table`].
    Scan {
        /// Table to read.
        name: String,
        /// `None` reads every row; `Some` only the rows at these
        /// snapshot-order positions, in this order (bounds-checked) — the
        /// messages-not-scans path of row sampling.
        rows: Option<Vec<u32>>,
    },
    /// Names of every table the server currently holds (diagnostics; the
    /// fault-injection tests use it to prove temp-table cleanup).
    TableNames,
    /// Open a split-protocol handle: execute the absorbed per-value query
    /// and keep its sorted, prefix-summed result *server-side* (see
    /// [`crate::backend::split`]). The reply, [`Response::SplitOpened`],
    /// already carries the first `k` equal-count boundary keys, folding
    /// the protocol's opening `boundaries` round trip into the open.
    SplitOpen {
        /// The absorbed inner query, as text.
        sql: String,
        /// Column index of the single group key.
        key_col: u32,
        /// Column index of split component 0.
        c0_col: u32,
        /// Column index of split component 1.
        c1_col: u32,
        /// Per-column [`crate::backend::split::MergeSpec`] wire tags.
        specs: Vec<u8>,
        /// Number of boundary keys requested (0 ⇒ none).
        k: u32,
    },
    /// Equal-count boundary keys of an open split handle (1-column table).
    SplitBoundaries {
        /// Handle from [`Response::SplitOpened`].
        id: u64,
        /// Number of boundaries requested.
        k: u32,
    },
    /// Per-interval boundary summaries for a grid. The coordinator
    /// caches the previous round's summaries per shard and asks only for
    /// the intervals the refined grid *changed* — an interval's summary
    /// is a pure function of its absolute row range, so intervals whose
    /// bounding keys survived refinement are bit-identical and need not
    /// be recomputed or re-shipped. The reply is [`Response::Table`]
    /// carrying the requested intervals' summaries, in ascending order.
    SplitSummaries {
        /// Handle from [`Response::SplitOpened`].
        id: u64,
        /// Ascending grid keys as a 1-column table (always the *full*
        /// grid; the delta is in which intervals are summarized).
        grid: Table,
        /// Strictly ascending interval indices into the grid to
        /// summarize; `None` (a flag on the wire, not a list) asks for
        /// every interval — the first round.
        changed: Option<Vec<u32>>,
    },
    /// Sub-boundary keys inside the given `(interval, per-shard budget)`
    /// targets (1-column table back).
    SplitRefine {
        /// Handle from [`Response::SplitOpened`].
        id: u64,
        /// Ascending grid keys as a 1-column table.
        grid: Table,
        /// `(interval index, key budget)` pairs.
        targets: Vec<(u32, u32)>,
    },
    /// The shard's run-compressed contribution: full rows for retained
    /// intervals, one compressed partial per non-empty pruned interval.
    SplitFetch {
        /// Handle from [`Response::SplitOpened`].
        id: u64,
        /// Ascending grid keys as a 1-column table.
        grid: Table,
        /// Per-interval retention decisions, parallel to the grid.
        retain: Vec<bool>,
    },
    /// Release a split handle's server-side state.
    SplitClose {
        /// Handle from [`Response::SplitOpened`].
        id: u64,
    },
    /// Submit a training job; answered with [`Response::JobSubmitted`]
    /// (the job id) or [`Response::Busy`] when admission control rejects
    /// it. Training runs on a background worker; poll for progress.
    SubmitJob {
        /// The job: graph, target, parameters.
        spec: Box<JobSpec>,
    },
    /// Current state of a job; answered with [`Response::JobState`]. Any
    /// connection may poll any job id.
    PollJob {
        /// Id from [`Response::JobSubmitted`].
        id: u64,
    },
    /// Cancel a queued or running job. Idempotent: cancelling a finished
    /// or already-cancelled job answers its terminal state unchanged.
    CancelJob {
        /// Id from [`Response::JobSubmitted`].
        id: u64,
    },
    /// Score a batch of predict keys against deployed message tables;
    /// answered with [`Response::Scores`]. Either the compiled tables of
    /// a `Done` job (`job`) or an inline [`ScorerSpec`] naming
    /// server-resident tables (`spec`) — exactly one must be set.
    PredictBatch {
        /// Score against this finished job's compiled message tables.
        job: Option<u64>,
        /// Score against these server-resident tables directly.
        spec: Option<Box<ScorerSpec>>,
        /// The predict keys.
        keys: Vec<i64>,
        /// `true`: shard-partial scores accumulated from `0.0` (the
        /// caller adds the initial score once per found key); `false`:
        /// full scores starting from the model's initial score.
        partial: bool,
    },
}

impl Request {
    /// Does this request belong to the split protocol? Those are routed
    /// to the session's split handles, and metered as split wire volume.
    pub fn is_split(&self) -> bool {
        matches!(
            self,
            Request::SplitOpen { .. }
                | Request::SplitBoundaries { .. }
                | Request::SplitSummaries { .. }
                | Request::SplitRefine { .. }
                | Request::SplitFetch { .. }
                | Request::SplitClose { .. }
        )
    }
}

/// One server → client message.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Handshake answer: what the server's engine supports.
    Caps {
        /// Whether the server accepts `SWAP COLUMN` statements.
        column_swap: bool,
    },
    /// A result table (bit-exact columnar block).
    Table(Table),
    /// Success without a payload.
    Unit,
    /// A list of names.
    Names(Vec<String>),
    /// Reply to [`Request::Describe`].
    Schema {
        /// `(name, type)` per column, in table order.
        columns: Vec<(String, DataType)>,
        /// Rows in the table.
        rows: u64,
    },
    /// The engine error the statement produced, variant preserved.
    Err(EngineError),
    /// Reply to [`Request::SplitOpen`] when the protocol applies: the
    /// handle, its row count, and the first equal-count boundary keys as
    /// a 1-column table. When the shard's data disqualifies the protocol
    /// (NULL components), the server answers with [`Response::Table`]
    /// carrying the absorbed result instead, so the dense fallback costs
    /// no second execution.
    SplitOpened {
        /// Handle id for subsequent split requests.
        id: u64,
        /// Rows behind the handle.
        rows: u64,
        /// Equal-count boundary keys (1-column table).
        bounds: Table,
    },
    /// Reply to [`Request::SubmitJob`]: the job id to poll.
    JobSubmitted(u64),
    /// Reply to [`Request::PollJob`] / [`Request::CancelJob`]: the job's
    /// current state.
    JobState {
        /// State tag: 0 queued, 1 running, 2 done, 3 failed, 4 cancelled.
        state: u8,
        /// Boosting iterations completed so far.
        iterations: u64,
        /// Failure message (empty unless failed).
        message: String,
    },
    /// Typed admission-control rejection (too many jobs, session budget
    /// exhausted). Deliberately *not* an [`EngineError`]: the connection
    /// stays healthy and the client may retry later.
    Busy(String),
    /// Reply to [`Request::PredictBatch`]: per key, whether its tuple is
    /// in `R⋈` and its (partial) score. Parallel to the request's keys.
    Scores {
        /// `found[i]`: key `i` is present in the join.
        found: Vec<bool>,
        /// `scores[i]`: the score (0.0 when not found).
        scores: Vec<f64>,
    },
}

// ---------------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------------

/// Write one `[u32 LE length][payload]` frame. Returns the total number of
/// bytes put on the wire (`payload.len() + 4`).
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<usize> {
    if payload.len() > MAX_FRAME as usize {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame of {} bytes exceeds MAX_FRAME", payload.len()),
        ));
    }
    w.write_all(&(payload.len() as u32).to_le_bytes())?;
    w.write_all(payload)?;
    w.flush()?;
    Ok(payload.len() + 4)
}

/// Read one frame; fails on EOF, short reads and oversized lengths.
pub fn read_frame(r: &mut impl Read) -> io::Result<Vec<u8>> {
    let mut len = [0u8; 4];
    r.read_exact(&mut len)?;
    let len = u32::from_le_bytes(len);
    if len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame length {len} exceeds MAX_FRAME"),
        ));
    }
    let mut buf = vec![0u8; len as usize];
    r.read_exact(&mut buf)?;
    Ok(buf)
}

// ---------------------------------------------------------------------------
// Checked reads
// ---------------------------------------------------------------------------

// A received payload is read through the storage codec's bounds-checked
// `ByteReader`: a truncated or corrupt frame surfaces as a decode error,
// never a panic — a killed server must not take the client down with it.

type DecodeResult<T> = Result<T, EngineError>;

fn corrupt(what: &str) -> EngineError {
    EngineError::Other(format!("wire decode: {what}"))
}

/// A `u32` count of items of at least `item_bytes` each, checked against
/// the bytes left: guards allocations against frames whose headers
/// promise more data than they carry.
fn count(r: &mut ByteReader<'_>, item_bytes: usize) -> DecodeResult<usize> {
    let n = r.u32()? as usize;
    if n.saturating_mul(item_bytes.max(1)) > r.remaining() {
        return Err(corrupt("count exceeds frame size"));
    }
    Ok(n)
}

// ---------------------------------------------------------------------------
// Table codec
// ---------------------------------------------------------------------------

/// Append a columnar block encoding of `t` to `buf`: the column and row
/// counts, then per column its qualifier, its name and its
/// plain [`encode_column`] body. The storage codec's one decoder also
/// reads the bit-packed Int image that pages, the WAL and checkpoints may
/// hold, but the wire always carries the plain one.
pub fn encode_table(t: &Table, buf: &mut Vec<u8>) {
    put_u32(buf, t.num_columns() as u32);
    put_u64(buf, t.num_rows() as u64);
    for (meta, col) in t.meta.iter().zip(&t.columns) {
        match &meta.qualifier {
            None => buf.push(0),
            Some(q) => {
                buf.push(1);
                put_string(buf, q);
            }
        }
        put_string(buf, &meta.name);
        encode_column(buf, col);
    }
}

/// Decode a columnar block produced by [`encode_table`]. Each column body
/// carries its own row count, and one that disagrees with the block's is
/// a decode error: a decoded table is never ragged.
fn decode_table(r: &mut ByteReader<'_>) -> DecodeResult<Table> {
    let ncols = count(r, 1)?;
    let nrows = r.u64()?;
    let mut t = Table::new();
    for _ in 0..ncols {
        let qualifier = match r.u8()? {
            0 => None,
            1 => Some(r.string()?),
            _ => return Err(corrupt("unknown qualifier tag")),
        };
        let name = r.string()?;
        let col: Column = decode_column(r)?;
        if col.len() as u64 != nrows {
            return Err(corrupt("column length differs from the table's row count"));
        }
        let meta = match qualifier {
            None => ColumnMeta::new(name),
            Some(q) => ColumnMeta::qualified(q, name),
        };
        t.push_column(meta, col);
    }
    Ok(t)
}

/// Standalone table decode (the proptest entry point): the whole buffer
/// must be one encoded table.
pub fn decode_table_bytes(bytes: &[u8]) -> DecodeResult<Table> {
    let mut r = ByteReader::new(bytes);
    let t = decode_table(&mut r)?;
    r.done()?;
    Ok(t)
}

/// Standalone table encode (the proptest entry point).
pub fn encode_table_bytes(t: &Table) -> Vec<u8> {
    let mut buf = Vec::new();
    encode_table(t, &mut buf);
    buf
}

// ---------------------------------------------------------------------------
// Error codec
// ---------------------------------------------------------------------------

fn encode_engine_error(e: &EngineError, buf: &mut Vec<u8>) {
    let (tag, msg): (u8, &str) = match e {
        EngineError::Parse(m) => (0, m),
        EngineError::UnknownTable(m) => (1, m),
        EngineError::TableExists(m) => (2, m),
        EngineError::UnknownColumn(m) => (3, m),
        EngineError::TypeMismatch(m) => (4, m),
        EngineError::Other(m) => (5, m),
        EngineError::Corrupt(m) => (6, m),
    };
    buf.push(tag);
    put_string(buf, msg);
}

fn decode_engine_error(r: &mut ByteReader<'_>) -> DecodeResult<EngineError> {
    let tag = r.u8()?;
    let msg = r.string()?;
    Ok(match tag {
        0 => EngineError::Parse(msg),
        1 => EngineError::UnknownTable(msg),
        2 => EngineError::TableExists(msg),
        3 => EngineError::UnknownColumn(msg),
        4 => EngineError::TypeMismatch(msg),
        5 => EngineError::Other(msg),
        6 => EngineError::Corrupt(msg),
        _ => return Err(corrupt("unknown error tag")),
    })
}

// ---------------------------------------------------------------------------
// Job / scorer codecs
// ---------------------------------------------------------------------------

fn put_f64(buf: &mut Vec<u8>, x: f64) {
    put_u64(buf, x.to_bits());
}

fn put_strings(buf: &mut Vec<u8>, ss: &[String]) {
    put_u32(buf, ss.len() as u32);
    for s in ss {
        put_string(buf, s);
    }
}

/// An optional `u32` list: a `0` flag for `None`, or `1`, the count and
/// the values.
fn put_u32s(buf: &mut Vec<u8>, xs: Option<&[u32]>) {
    match xs {
        None => buf.push(0),
        Some(xs) => {
            buf.push(1);
            put_u32(buf, xs.len() as u32);
            for &x in xs {
                put_u32(buf, x);
            }
        }
    }
}

fn read_f64(r: &mut ByteReader<'_>) -> DecodeResult<f64> {
    Ok(f64::from_bits(r.u64()?))
}

fn read_strings(r: &mut ByteReader<'_>) -> DecodeResult<Vec<String>> {
    let n = count(r, 4)?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(r.string()?);
    }
    Ok(out)
}

fn read_u32s(r: &mut ByteReader<'_>) -> DecodeResult<Option<Vec<u32>>> {
    match r.u8()? {
        0 => Ok(None),
        1 => {
            let n = count(r, 4)?;
            (0..n)
                .map(|_| r.u32())
                .collect::<DecodeResult<_>>()
                .map(Some)
        }
        _ => Err(corrupt("unknown option tag")),
    }
}

fn encode_scorer_spec(spec: &ScorerSpec, buf: &mut Vec<u8>) {
    put_f64(buf, spec.init_score);
    put_f64(buf, spec.learning_rate);
    put_u32(buf, spec.leaf_values.len() as u32);
    for tree in &spec.leaf_values {
        put_u32(buf, tree.len() as u32);
        for &v in tree {
            put_f64(buf, v);
        }
    }
    put_string(buf, &spec.fact_table);
    put_string(buf, &spec.key_column);
    put_strings(buf, &spec.dim_tables);
}

fn decode_scorer_spec(r: &mut ByteReader<'_>) -> DecodeResult<ScorerSpec> {
    let init_score = read_f64(r)?;
    let learning_rate = read_f64(r)?;
    let nt = count(r, 4)?;
    let mut leaf_values = Vec::with_capacity(nt);
    for _ in 0..nt {
        let nl = count(r, 8)?;
        let mut tree = Vec::with_capacity(nl);
        for _ in 0..nl {
            tree.push(read_f64(r)?);
        }
        leaf_values.push(tree);
    }
    Ok(ScorerSpec {
        init_score,
        learning_rate,
        leaf_values,
        fact_table: r.string()?,
        key_column: r.string()?,
        dim_tables: read_strings(r)?,
    })
}

fn encode_job_spec(spec: &JobSpec, buf: &mut Vec<u8>) {
    put_u32(buf, spec.relations.len() as u32);
    for (name, feats) in &spec.relations {
        put_string(buf, name);
        put_strings(buf, feats);
    }
    put_u32(buf, spec.edges.len() as u32);
    for (a, b, keys) in &spec.edges {
        put_string(buf, a);
        put_string(buf, b);
        put_strings(buf, keys);
    }
    put_string(buf, &spec.target_relation);
    put_string(buf, &spec.target_column);
    match &spec.key_column {
        None => buf.push(0),
        Some(k) => {
            buf.push(1);
            put_string(buf, k);
        }
    }
    put_u32(buf, spec.num_iterations);
    put_u32(buf, spec.num_leaves);
    put_f64(buf, spec.learning_rate);
    put_f64(buf, spec.leaf_quantization);
    put_u64(buf, spec.seed);
}

fn decode_job_spec(r: &mut ByteReader<'_>) -> DecodeResult<JobSpec> {
    let nr = count(r, 4)?;
    let mut relations = Vec::with_capacity(nr);
    for _ in 0..nr {
        let name = r.string()?;
        relations.push((name, read_strings(r)?));
    }
    let ne = count(r, 4)?;
    let mut edges = Vec::with_capacity(ne);
    for _ in 0..ne {
        let a = r.string()?;
        let b = r.string()?;
        edges.push((a, b, read_strings(r)?));
    }
    Ok(JobSpec {
        relations,
        edges,
        target_relation: r.string()?,
        target_column: r.string()?,
        key_column: match r.u8()? {
            0 => None,
            1 => Some(r.string()?),
            _ => return Err(corrupt("unknown option tag")),
        },
        num_iterations: r.u32()?,
        num_leaves: r.u32()?,
        learning_rate: read_f64(r)?,
        leaf_quantization: read_f64(r)?,
        seed: r.u64()?,
    })
}

// ---------------------------------------------------------------------------
// Durable registry blobs
// ---------------------------------------------------------------------------
//
// The server's durable job registry (`jb_sys_jobs`, see
// `backend/server/jobs.rs`) stores job specs, compiled scorers and
// partial-forest training checkpoints as byte blobs inside engine string
// columns. The blobs reuse the wire codecs, so every float survives by
// bit pattern — the resume-bit-identity argument needs the recovered
// forest to be *exactly* the one that was checkpointed.

/// Encode a [`JobSpec`] as a standalone blob for the durable registry.
pub(crate) fn job_spec_bytes(spec: &JobSpec) -> Vec<u8> {
    let mut buf = Vec::new();
    encode_job_spec(spec, &mut buf);
    buf
}

/// Decode a registry [`JobSpec`] blob (whole-buffer, no trailing bytes).
pub(crate) fn job_spec_from_bytes(bytes: &[u8]) -> DecodeResult<JobSpec> {
    let mut r = ByteReader::new(bytes);
    let spec = decode_job_spec(&mut r)?;
    r.done()?;
    Ok(spec)
}

/// Encode a [`ScorerSpec`] as a standalone blob for the durable registry.
pub(crate) fn scorer_spec_bytes(spec: &ScorerSpec) -> Vec<u8> {
    let mut buf = Vec::new();
    encode_scorer_spec(spec, &mut buf);
    buf
}

/// Decode a registry [`ScorerSpec`] blob (whole-buffer).
pub(crate) fn scorer_spec_from_bytes(bytes: &[u8]) -> DecodeResult<ScorerSpec> {
    let mut r = ByteReader::new(bytes);
    let spec = decode_scorer_spec(&mut r)?;
    r.done()?;
    Ok(spec)
}

const SPLIT_LEAF: u8 = 0;
const SPLIT_LTEQ: u8 = 1;
const SPLIT_EQ_NUM: u8 = 2;
const SPLIT_EQ_STR: u8 = 3;

/// Encode a (possibly partial) forest as a standalone blob: the training
/// checkpoint the durable job registry persists every k iterations.
pub(crate) fn forest_bytes(trees: &[Tree]) -> Vec<u8> {
    let mut buf = Vec::new();
    put_u32(&mut buf, trees.len() as u32);
    for tree in trees {
        put_u32(&mut buf, tree.nodes.len() as u32);
        for node in &tree.nodes {
            match &node.split {
                None => buf.push(SPLIT_LEAF),
                Some(split) => {
                    match &split.cond {
                        SplitCondition::LtEq(v) => {
                            buf.push(SPLIT_LTEQ);
                            put_f64(&mut buf, *v);
                        }
                        SplitCondition::EqNum(v) => {
                            buf.push(SPLIT_EQ_NUM);
                            put_f64(&mut buf, *v);
                        }
                        SplitCondition::EqStr(s) => {
                            buf.push(SPLIT_EQ_STR);
                            put_string(&mut buf, s);
                        }
                    }
                    put_string(&mut buf, &split.feature);
                    put_string(&mut buf, &split.relation);
                    buf.push(split.default_left as u8);
                }
            }
            put_u32(&mut buf, node.left as u32);
            put_u32(&mut buf, node.right as u32);
            put_f64(&mut buf, node.value);
            put_f64(&mut buf, node.weight);
            put_u32(&mut buf, node.depth as u32);
        }
    }
    buf
}

/// Decode a registry forest blob (whole-buffer). Bit-exact inverse of
/// [`forest_bytes`].
pub(crate) fn forest_from_bytes(bytes: &[u8]) -> DecodeResult<Vec<Tree>> {
    let mut r = ByteReader::new(bytes);
    let ntrees = count(&mut r, 4)?;
    let mut trees = Vec::with_capacity(ntrees);
    for _ in 0..ntrees {
        let nnodes = count(&mut r, 16)?;
        let mut nodes = Vec::with_capacity(nnodes);
        for _ in 0..nnodes {
            let tag = r.u8()?;
            let split = match tag {
                SPLIT_LEAF => None,
                SPLIT_LTEQ | SPLIT_EQ_NUM | SPLIT_EQ_STR => {
                    let cond = match tag {
                        SPLIT_LTEQ => SplitCondition::LtEq(read_f64(&mut r)?),
                        SPLIT_EQ_NUM => SplitCondition::EqNum(read_f64(&mut r)?),
                        _ => SplitCondition::EqStr(r.string()?),
                    };
                    Some(Split {
                        feature: r.string()?,
                        relation: r.string()?,
                        cond,
                        default_left: match r.u8()? {
                            0 => false,
                            1 => true,
                            _ => return Err(corrupt("bad default_left flag")),
                        },
                    })
                }
                _ => return Err(corrupt("unknown split tag")),
            };
            nodes.push(TreeNode {
                split,
                left: r.u32()? as usize,
                right: r.u32()? as usize,
                value: read_f64(&mut r)?,
                weight: read_f64(&mut r)?,
                depth: r.u32()? as usize,
            });
        }
        trees.push(Tree { nodes });
    }
    r.done()?;
    Ok(trees)
}

fn dtype_tag(d: DataType) -> u8 {
    match d {
        DataType::Int => 0,
        DataType::Float => 1,
        DataType::Str => 2,
    }
}

fn dtype_from(tag: u8) -> DecodeResult<DataType> {
    Ok(match tag {
        0 => DataType::Int,
        1 => DataType::Float,
        2 => DataType::Str,
        _ => return Err(corrupt("unknown dtype tag")),
    })
}

// ---------------------------------------------------------------------------
// Request / Response codecs
// ---------------------------------------------------------------------------

const REQ_HELLO: u8 = 0;
const REQ_EXECUTE: u8 = 1;
const REQ_CREATE_TABLE: u8 = 2;
const REQ_DESCRIBE: u8 = 3;
const REQ_SCAN: u8 = 4;
const REQ_TABLE_NAMES: u8 = 5;
const REQ_SPLIT_OPEN: u8 = 6;
const REQ_SPLIT_BOUNDARIES: u8 = 7;
const REQ_SPLIT_SUMMARIES: u8 = 8;
const REQ_SPLIT_REFINE: u8 = 9;
const REQ_SPLIT_FETCH: u8 = 10;
const REQ_SPLIT_CLOSE: u8 = 11;
const REQ_SUBMIT_JOB: u8 = 12;
const REQ_POLL_JOB: u8 = 13;
const REQ_CANCEL_JOB: u8 = 14;
const REQ_PREDICT_BATCH: u8 = 15;

/// Encode one request into a frame payload.
pub fn encode_request(req: &Request) -> Vec<u8> {
    let mut buf = Vec::new();
    match req {
        Request::Hello {
            magic,
            version,
            token,
        } => {
            buf.push(REQ_HELLO);
            put_u32(&mut buf, *magic);
            put_u32(&mut buf, *version);
            put_u64(&mut buf, *token);
        }
        Request::Execute { sql } => {
            buf.push(REQ_EXECUTE);
            put_string(&mut buf, sql);
        }
        Request::CreateTable { name, table } => {
            buf.push(REQ_CREATE_TABLE);
            put_string(&mut buf, name);
            encode_table(table, &mut buf);
        }
        Request::Describe { name } => {
            buf.push(REQ_DESCRIBE);
            put_string(&mut buf, name);
        }
        Request::Scan { name, rows } => {
            buf.push(REQ_SCAN);
            put_string(&mut buf, name);
            put_u32s(&mut buf, rows.as_deref());
        }
        Request::TableNames => buf.push(REQ_TABLE_NAMES),
        Request::SplitOpen {
            sql,
            key_col,
            c0_col,
            c1_col,
            specs,
            k,
        } => {
            buf.push(REQ_SPLIT_OPEN);
            put_string(&mut buf, sql);
            put_u32(&mut buf, *key_col);
            put_u32(&mut buf, *c0_col);
            put_u32(&mut buf, *c1_col);
            put_u32(&mut buf, specs.len() as u32);
            buf.extend_from_slice(specs);
            put_u32(&mut buf, *k);
        }
        Request::SplitBoundaries { id, k } => {
            buf.push(REQ_SPLIT_BOUNDARIES);
            put_u64(&mut buf, *id);
            put_u32(&mut buf, *k);
        }
        Request::SplitSummaries { id, grid, changed } => {
            buf.push(REQ_SPLIT_SUMMARIES);
            put_u64(&mut buf, *id);
            encode_table(grid, &mut buf);
            put_u32s(&mut buf, changed.as_deref());
        }
        Request::SplitRefine { id, grid, targets } => {
            buf.push(REQ_SPLIT_REFINE);
            put_u64(&mut buf, *id);
            encode_table(grid, &mut buf);
            put_u32(&mut buf, targets.len() as u32);
            for &(j, per) in targets {
                put_u32(&mut buf, j);
                put_u32(&mut buf, per);
            }
        }
        Request::SplitFetch { id, grid, retain } => {
            buf.push(REQ_SPLIT_FETCH);
            put_u64(&mut buf, *id);
            encode_table(grid, &mut buf);
            put_u32(&mut buf, retain.len() as u32);
            for &r in retain {
                buf.push(u8::from(r));
            }
        }
        Request::SplitClose { id } => {
            buf.push(REQ_SPLIT_CLOSE);
            put_u64(&mut buf, *id);
        }
        Request::SubmitJob { spec } => {
            buf.push(REQ_SUBMIT_JOB);
            encode_job_spec(spec, &mut buf);
        }
        Request::PollJob { id } => {
            buf.push(REQ_POLL_JOB);
            put_u64(&mut buf, *id);
        }
        Request::CancelJob { id } => {
            buf.push(REQ_CANCEL_JOB);
            put_u64(&mut buf, *id);
        }
        Request::PredictBatch {
            job,
            spec,
            keys,
            partial,
        } => {
            buf.push(REQ_PREDICT_BATCH);
            match job {
                None => buf.push(0),
                Some(id) => {
                    buf.push(1);
                    put_u64(&mut buf, *id);
                }
            }
            match spec {
                None => buf.push(0),
                Some(s) => {
                    buf.push(1);
                    encode_scorer_spec(s, &mut buf);
                }
            }
            put_u32(&mut buf, keys.len() as u32);
            for &k in keys {
                buf.extend_from_slice(&k.to_le_bytes());
            }
            buf.push(u8::from(*partial));
        }
    }
    buf
}

/// Decode one request frame payload.
pub fn decode_request(bytes: &[u8]) -> DecodeResult<Request> {
    let mut r = ByteReader::new(bytes);
    let req = match r.u8()? {
        REQ_HELLO => {
            let magic = r.u32()?;
            let version = r.u32()?;
            let token = r.u64()?;
            Request::Hello {
                magic,
                version,
                token,
            }
        }
        REQ_EXECUTE => Request::Execute { sql: r.string()? },
        REQ_CREATE_TABLE => {
            let name = r.string()?;
            let table = decode_table(&mut r)?;
            Request::CreateTable { name, table }
        }
        REQ_DESCRIBE => Request::Describe { name: r.string()? },
        REQ_SCAN => Request::Scan {
            name: r.string()?,
            rows: read_u32s(&mut r)?,
        },
        REQ_TABLE_NAMES => Request::TableNames,
        REQ_SPLIT_OPEN => {
            let sql = r.string()?;
            let key_col = r.u32()?;
            let c0_col = r.u32()?;
            let c1_col = r.u32()?;
            let n = count(&mut r, 1)?;
            let specs = r.take(n)?.to_vec();
            let k = r.u32()?;
            Request::SplitOpen {
                sql,
                key_col,
                c0_col,
                c1_col,
                specs,
                k,
            }
        }
        REQ_SPLIT_BOUNDARIES => Request::SplitBoundaries {
            id: r.u64()?,
            k: r.u32()?,
        },
        REQ_SPLIT_SUMMARIES => {
            let id = r.u64()?;
            let grid = decode_table(&mut r)?;
            let changed = read_u32s(&mut r)?;
            // Strict ascent and grid range are part of the contract: they
            // make the reply's interval order unambiguous and reject
            // duplicate work.
            if changed.as_ref().is_some_and(|c| {
                c.windows(2).any(|w| w[0] >= w[1])
                    || c.last().is_some_and(|&j| j as usize >= grid.num_rows())
            }) {
                return Err(corrupt("changed intervals not ascending within the grid"));
            }
            Request::SplitSummaries { id, grid, changed }
        }
        REQ_SPLIT_REFINE => {
            let id = r.u64()?;
            let grid = decode_table(&mut r)?;
            let n = count(&mut r, 8)?;
            let mut targets = Vec::with_capacity(n);
            for _ in 0..n {
                targets.push((r.u32()?, r.u32()?));
            }
            Request::SplitRefine { id, grid, targets }
        }
        REQ_SPLIT_FETCH => {
            let id = r.u64()?;
            let grid = decode_table(&mut r)?;
            let n = count(&mut r, 1)?;
            let retain = r.take(n)?.iter().map(|&b| b != 0).collect();
            Request::SplitFetch { id, grid, retain }
        }
        REQ_SPLIT_CLOSE => Request::SplitClose { id: r.u64()? },
        REQ_SUBMIT_JOB => Request::SubmitJob {
            spec: Box::new(decode_job_spec(&mut r)?),
        },
        REQ_POLL_JOB => Request::PollJob { id: r.u64()? },
        REQ_CANCEL_JOB => Request::CancelJob { id: r.u64()? },
        REQ_PREDICT_BATCH => {
            let job = match r.u8()? {
                0 => None,
                1 => Some(r.u64()?),
                _ => return Err(corrupt("unknown option tag")),
            };
            let spec = match r.u8()? {
                0 => None,
                1 => Some(Box::new(decode_scorer_spec(&mut r)?)),
                _ => return Err(corrupt("unknown option tag")),
            };
            let n = count(&mut r, 8)?;
            let mut keys = Vec::with_capacity(n);
            for _ in 0..n {
                keys.push(r.i64()?);
            }
            let partial = r.u8()? != 0;
            Request::PredictBatch {
                job,
                spec,
                keys,
                partial,
            }
        }
        _ => return Err(corrupt("unknown request tag")),
    };
    r.done()?;
    Ok(req)
}

const RESP_CAPS: u8 = 0;
const RESP_TABLE: u8 = 1;
const RESP_UNIT: u8 = 2;
const RESP_NAMES: u8 = 3;
const RESP_SCHEMA: u8 = 4;
const RESP_ERR: u8 = 5;
const RESP_SPLIT_OPENED: u8 = 6;
const RESP_JOB_SUBMITTED: u8 = 7;
const RESP_JOB_STATE: u8 = 8;
const RESP_BUSY: u8 = 9;
const RESP_SCORES: u8 = 10;

/// Encode one response into a frame payload.
pub fn encode_response(resp: &Response) -> Vec<u8> {
    let mut buf = Vec::new();
    match resp {
        Response::Caps { column_swap } => {
            buf.push(RESP_CAPS);
            buf.push(u8::from(*column_swap));
        }
        Response::Table(t) => {
            buf.push(RESP_TABLE);
            encode_table(t, &mut buf);
        }
        Response::Unit => buf.push(RESP_UNIT),
        Response::Names(names) => {
            buf.push(RESP_NAMES);
            put_strings(&mut buf, names);
        }
        Response::Schema { columns, rows } => {
            buf.push(RESP_SCHEMA);
            put_u32(&mut buf, columns.len() as u32);
            for (name, dtype) in columns {
                put_string(&mut buf, name);
                buf.push(dtype_tag(*dtype));
            }
            put_u64(&mut buf, *rows);
        }
        Response::Err(e) => {
            buf.push(RESP_ERR);
            encode_engine_error(e, &mut buf);
        }
        Response::SplitOpened { id, rows, bounds } => {
            buf.push(RESP_SPLIT_OPENED);
            put_u64(&mut buf, *id);
            put_u64(&mut buf, *rows);
            encode_table(bounds, &mut buf);
        }
        Response::JobSubmitted(id) => {
            buf.push(RESP_JOB_SUBMITTED);
            put_u64(&mut buf, *id);
        }
        Response::JobState {
            state,
            iterations,
            message,
        } => {
            buf.push(RESP_JOB_STATE);
            buf.push(*state);
            put_u64(&mut buf, *iterations);
            put_string(&mut buf, message);
        }
        Response::Busy(reason) => {
            buf.push(RESP_BUSY);
            put_string(&mut buf, reason);
        }
        Response::Scores { found, scores } => {
            buf.push(RESP_SCORES);
            put_u32(&mut buf, found.len() as u32);
            for (&f, &s) in found.iter().zip(scores) {
                buf.push(u8::from(f));
                put_f64(&mut buf, s);
            }
        }
    }
    buf
}

/// Decode one response frame payload.
pub fn decode_response(bytes: &[u8]) -> DecodeResult<Response> {
    let mut r = ByteReader::new(bytes);
    let resp = match r.u8()? {
        RESP_CAPS => Response::Caps {
            column_swap: r.u8()? != 0,
        },
        RESP_TABLE => Response::Table(decode_table(&mut r)?),
        RESP_UNIT => Response::Unit,
        RESP_NAMES => Response::Names(read_strings(&mut r)?),
        RESP_SCHEMA => {
            let n = count(&mut r, 5)?;
            let mut columns = Vec::with_capacity(n);
            for _ in 0..n {
                columns.push((r.string()?, dtype_from(r.u8()?)?));
            }
            Response::Schema {
                columns,
                rows: r.u64()?,
            }
        }
        RESP_ERR => Response::Err(decode_engine_error(&mut r)?),
        RESP_SPLIT_OPENED => {
            let id = r.u64()?;
            let rows = r.u64()?;
            let bounds = decode_table(&mut r)?;
            Response::SplitOpened { id, rows, bounds }
        }
        RESP_JOB_SUBMITTED => Response::JobSubmitted(r.u64()?),
        RESP_JOB_STATE => {
            let state = r.u8()?;
            if state > 4 {
                return Err(corrupt("unknown job state tag"));
            }
            Response::JobState {
                state,
                iterations: r.u64()?,
                message: r.string()?,
            }
        }
        RESP_BUSY => Response::Busy(r.string()?),
        RESP_SCORES => {
            let n = count(&mut r, 9)?;
            let mut found = Vec::with_capacity(n);
            let mut scores = Vec::with_capacity(n);
            for _ in 0..n {
                found.push(r.u8()? != 0);
                scores.push(read_f64(&mut r)?);
            }
            Response::Scores { found, scores }
        }
        _ => return Err(corrupt("unknown response tag")),
    };
    r.done()?;
    Ok(resp)
}

#[cfg(test)]
mod tests {
    use super::*;
    use joinboost_engine::column::ColumnData;
    use joinboost_engine::Datum;

    fn sample_scorer_spec() -> ScorerSpec {
        ScorerSpec {
            init_score: 1.5,
            learning_rate: 0.5,
            leaf_values: vec![vec![-0.25, 0.75], vec![0.0]],
            fact_table: "jb_job1_msg_fact".into(),
            key_column: "sale_id".into(),
            dim_tables: vec!["jb_job1_msg_items".into(), "jb_job1_msg_dates".into()],
        }
    }

    fn sample_table() -> Table {
        let mut t = Table::new();
        t.push_column(ColumnMeta::new("a"), Column::int(vec![1, -5, i64::MAX]));
        t.push_column(
            ColumnMeta::qualified("q", "b"),
            Column {
                data: ColumnData::Float(vec![0.5, -0.0, f64::NAN].into()),
                validity: Some(vec![true, false, true].into()),
            },
        );
        t.push_column(
            ColumnMeta::new("c"),
            Column::str(vec!["x".into(), "".into(), "x".into()]),
        );
        t
    }

    #[test]
    fn table_roundtrips_bit_exactly() {
        let t = sample_table();
        let bytes = encode_table_bytes(&t);
        let back = decode_table_bytes(&bytes).unwrap();
        // Bit-exact: re-encoding the decoded table yields identical bytes
        // (PartialEq would miss NaN payloads and -0.0).
        assert_eq!(encode_table_bytes(&back), bytes);
        assert_eq!(back.num_rows(), 3);
        assert_eq!(back.meta, t.meta);
        assert_eq!(back.columns[1].get(1), Datum::Null);
    }

    #[test]
    fn empty_and_zero_column_tables_roundtrip() {
        for t in [
            Table::new(),
            Table::from_columns(vec![("x", Column::int(vec![]))]),
        ] {
            let bytes = encode_table_bytes(&t);
            let back = decode_table_bytes(&bytes).unwrap();
            assert_eq!(encode_table_bytes(&back), bytes);
            assert_eq!(back.num_rows(), 0);
            assert_eq!(back.num_columns(), t.num_columns());
        }
    }

    #[test]
    fn truncated_and_corrupt_frames_error_not_panic() {
        let t = sample_table();
        let bytes = encode_table_bytes(&t);
        for cut in 0..bytes.len() {
            assert!(decode_table_bytes(&bytes[..cut]).is_err(), "cut at {cut}");
        }
        // A frame announcing more rows than it carries must not allocate
        // or panic.
        let mut evil = Vec::new();
        put_u32(&mut evil, 1); // one column
        put_u64(&mut evil, u64::MAX); // absurd row count
        assert!(decode_table_bytes(&evil).is_err());
        assert!(decode_request(&[99]).is_err());
        assert!(decode_response(&[99]).is_err());
    }

    #[test]
    fn requests_and_responses_roundtrip() {
        let reqs = vec![
            Request::Hello {
                magic: MAGIC,
                version: VERSION,
                token: 0x5eed_f00d_dead_beef,
            },
            Request::Execute {
                sql: "SELECT a, SUM(y) AS s FROM r GROUP BY a".into(),
            },
            Request::CreateTable {
                name: "t".into(),
                table: sample_table(),
            },
            Request::Describe { name: "t".into() },
            Request::Scan {
                name: "t".into(),
                rows: None,
            },
            Request::Scan {
                name: "t".into(),
                rows: Some(vec![2, 0, 2]),
            },
            Request::TableNames,
            Request::SplitSummaries {
                id: 3,
                grid: sample_table(),
                changed: None,
            },
            Request::SplitSummaries {
                id: 3,
                grid: sample_table(),
                changed: Some(vec![0, 2]),
            },
            Request::SplitOpen {
                sql: "SELECT k, c0, c1 FROM r".into(),
                key_col: 0,
                c0_col: 1,
                c1_col: 2,
                specs: vec![0, 1, 2],
                k: 16,
            },
            Request::SubmitJob {
                spec: Box::new(JobSpec {
                    relations: vec![
                        ("sales".into(), vec![]),
                        ("items".into(), vec!["f_items".into()]),
                    ],
                    edges: vec![("sales".into(), "items".into(), vec!["items_id".into()])],
                    target_relation: "sales".into(),
                    target_column: "net_profit".into(),
                    key_column: Some("sale_id".into()),
                    ..JobSpec::default()
                }),
            },
            Request::PollJob { id: 7 },
            Request::CancelJob { id: u64::MAX },
            Request::PredictBatch {
                job: Some(7),
                spec: None,
                keys: vec![1, -1, i64::MAX],
                partial: true,
            },
            Request::PredictBatch {
                job: None,
                spec: Some(Box::new(sample_scorer_spec())),
                keys: vec![],
                partial: false,
            },
        ];
        for req in reqs {
            let enc = encode_request(&req);
            let back = decode_request(&enc).unwrap();
            // Compare via re-encoding: PartialEq on a NaN-bearing table
            // would reject a perfectly bit-exact round-trip.
            assert_eq!(encode_request(&back), enc, "{req:?}");
        }
        let resps = vec![
            Response::Caps { column_swap: true },
            Response::Table(sample_table()),
            Response::Unit,
            Response::Names(vec!["a".into(), "b".into()]),
            Response::Schema {
                columns: vec![("a".into(), DataType::Int), ("b".into(), DataType::Str)],
                rows: 42,
            },
            Response::Err(EngineError::UnknownTable("ghost".into())),
            Response::SplitOpened {
                id: 3,
                rows: 99,
                bounds: sample_table(),
            },
            Response::JobSubmitted(12),
            Response::JobState {
                state: 3,
                iterations: 2,
                message: "boom".into(),
            },
            Response::Busy("4 jobs already running".into()),
            Response::Scores {
                found: vec![true, false, true],
                scores: vec![-0.0, 0.0, f64::NAN],
            },
        ];
        for resp in resps {
            let enc = encode_response(&resp);
            let back = decode_response(&enc).unwrap();
            // Compare via re-encoding (NaN-proof) and structurally.
            assert_eq!(encode_response(&back), enc, "{resp:?}");
        }
    }

    #[test]
    fn unsorted_or_out_of_range_changed_intervals_are_rejected() {
        // `sample_table()` has 3 rows, so interval 3 is out of range.
        for changed in [vec![2u32, 0], vec![1, 1], vec![0, 3]] {
            let enc = encode_request(&Request::SplitSummaries {
                id: 1,
                grid: sample_table(),
                changed: Some(changed),
            });
            assert!(decode_request(&enc).is_err());
        }
    }

    #[test]
    fn frames_roundtrip_over_a_byte_pipe() {
        let payload = encode_request(&Request::Execute {
            sql: "SELECT 1 AS one".into(),
        });
        let mut pipe = Vec::new();
        let sent = write_frame(&mut pipe, &payload).unwrap();
        assert_eq!(sent, payload.len() + 4);
        let mut cursor: &[u8] = &pipe;
        assert_eq!(read_frame(&mut cursor).unwrap(), payload);
        // Oversized length prefix is rejected before allocation.
        let mut evil: &[u8] = &(MAX_FRAME + 1).to_le_bytes();
        assert!(read_frame(&mut evil).is_err());
    }
}
