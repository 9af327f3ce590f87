//! The pipelined-coordinator claim: multiplexing split-protocol requests
//! over one socket, scrambling the order in which shard replies land, and
//! delta-encoding refinement rounds must not change a *single bit* of the
//! trained model.
//!
//! The serial coordinator — the plain in-process engine, one query at a
//! time, no wire — is the reference. Every remote configuration below
//! (1/2/4 shard servers, reply jitter scrambling completion order) must
//! reproduce its model `to_bits()`-identical.
//!
//! Why orderings cannot matter: the coordinator's merge runs over a
//! *keyed* union (per-interval summaries tagged by grid position, fanout
//! rows tagged by shard), so late replies land in the same slot they
//! would have landed in early; and the dyadic workload (DESIGN.md
//! § Backends) makes every `⊕` on those slots exact, so even the merge
//! fold order is bit-stable. The tests here are the empirical check that
//! the multiplexer's replies really are routed by tag and never by
//! arrival order.

use std::sync::{Arc, Mutex, OnceLock};

use proptest::prelude::*;

use joinboost::backend::split::{interval_delta_map, IntervalSummary, SplitHandle, SplitSpec};
use joinboost::backend::{
    BackendResult, PushdownConfig, RemoteOptions, ShardTransport, ShardedBackend, SplitOpen,
    SqlBackend, WireServer,
};
use joinboost::{train_gbm, Dataset, GbmModel, TrainParams};
use joinboost_engine::{Column, DataType, Database, Datum, EngineConfig, Table};
use joinboost_graph::JoinGraph;
use joinboost_sql::ast::Statement;

// ---------------------------------------------------------------------------
// Workload (same dyadic star schema as remote_chaos.rs)
// ---------------------------------------------------------------------------

fn star_tables(rows: usize) -> (Table, Table, JoinGraph) {
    let dim_rows = 8i64;
    let fact = Table::from_columns(vec![
        ("k", Column::int((0..rows as i64).collect())),
        (
            "d_id",
            Column::int((0..rows as i64).map(|i| i % dim_rows).collect()),
        ),
        (
            "f",
            Column::int((0..rows as i64).map(|i| (i * 13) % 40).collect()),
        ),
        (
            "y",
            Column::float(
                (0..rows as i64)
                    .map(|i| (((i * 13) % 40) as f64) / 8.0 + ((i % dim_rows) as f64) / 2.0)
                    .collect(),
            ),
        ),
    ]);
    let dim = Table::from_columns(vec![
        ("d_id", Column::int((0..dim_rows).collect())),
        (
            "g",
            Column::int((0..dim_rows).map(|d| (d * 3) % 5).collect()),
        ),
    ]);
    let mut graph = JoinGraph::new();
    graph.add_relation("fact", &["f"]).unwrap();
    graph.add_relation("dim", &["g"]).unwrap();
    graph.add_edge("fact", "dim", &["d_id"]).unwrap();
    (fact, dim, graph)
}

/// A star with a high-cardinality feature (~4000 distinct values on
/// 16,000 fact rows): the split pushdown needs several refinement rounds
/// to corner the best split, which is what gives the delta encoding
/// unchanged intervals to elide, and the per-value tables are large
/// enough that summaries undercut shipping them (at a tenth of this size
/// pushdown-off ships fewer bytes). All values stay on the 1/8 dyadic
/// grid so bit-identity still holds. (The tiny star above converges in
/// one round — fine for equivalence, useless for byte accounting.)
fn highcard_tables() -> (Table, Table, JoinGraph) {
    let rows = 16_000usize;
    let card = 4_000i64;
    let dim_rows = 20i64;
    let fact = Table::from_columns(vec![
        ("k", Column::int((0..rows as i64).collect())),
        (
            "d_id",
            Column::int((0..rows as i64).map(|i| i % dim_rows).collect()),
        ),
        (
            "f",
            Column::int((0..rows as i64).map(|i| (i * 7919) % card).collect()),
        ),
        (
            "y",
            Column::float(
                (0..rows as i64)
                    .map(|i| {
                        let f = ((i * 7919) % card) as f64;
                        let noise = ((i * 2654435761) % 97) as f64;
                        f / 8.0 + ((i % dim_rows) % 10) as f64 * 4.0 + noise / 8.0
                    })
                    .collect(),
            ),
        ),
    ]);
    let dim = Table::from_columns(vec![
        ("d_id", Column::int((0..dim_rows).collect())),
        (
            "g",
            Column::int((0..dim_rows).map(|d| (d * 13) % 7).collect()),
        ),
    ]);
    let mut graph = JoinGraph::new();
    graph.add_relation("fact", &["f"]).unwrap();
    graph.add_relation("dim", &["g"]).unwrap();
    graph.add_edge("fact", "dim", &["d_id"]).unwrap();
    (fact, dim, graph)
}

fn params() -> TrainParams {
    TrainParams {
        num_iterations: 2,
        learning_rate: 0.5,
        leaf_quantization: (2.0f64).powi(-10),
        ..Default::default()
    }
}

fn train_on(backend: &dyn SqlBackend) -> GbmModel {
    let (fact, dim, graph) = star_tables(400);
    backend.create_table("fact", fact).unwrap();
    backend.create_table("dim", dim).unwrap();
    let set = Dataset::new(backend, graph, "fact", "y").unwrap();
    train_gbm(&set, &params()).unwrap()
}

/// Train over the given shard servers with pushdown forced on; returns
/// the model and the backend's final stats (split rounds + split wire
/// bytes).
fn train_remote(addrs: &[std::net::SocketAddr]) -> (GbmModel, joinboost::backend::BackendStats) {
    let backend = ShardedBackend::remote(
        addrs,
        EngineConfig::duckdb_mem(),
        "fact",
        "k",
        RemoteOptions::default(),
    )
    .unwrap();
    backend.set_pushdown_config(PushdownConfig {
        boundaries_per_shard: 4,
        min_rows: 0,
    });
    let model = train_on(&backend);
    let stats = backend.stats();
    (model, stats)
}

fn assert_bit_identical(reference: &GbmModel, model: &GbmModel, who: &str) {
    assert_eq!(
        reference.init_score.to_bits(),
        model.init_score.to_bits(),
        "{who}: init score diverged"
    );
    assert_eq!(
        reference.trees.len(),
        model.trees.len(),
        "{who}: tree count diverged"
    );
    for (i, (a, b)) in reference.trees.iter().zip(&model.trees).enumerate() {
        assert_eq!(a.nodes.len(), b.nodes.len(), "{who}: tree {i} shape");
        for (na, nb) in a.nodes.iter().zip(&b.nodes) {
            assert_eq!(na.split, nb.split, "{who}: tree {i} split");
            assert_eq!(
                na.value.to_bits(),
                nb.value.to_bits(),
                "{who}: tree {i} leaf value diverged"
            );
            assert_eq!(
                na.weight.to_bits(),
                nb.weight.to_bits(),
                "{who}: tree {i} weight diverged"
            );
        }
    }
}

/// The serial coordinator: the plain in-process engine, no shards, no
/// wire, no pipelining. Computed once per test binary.
fn serial_reference() -> &'static GbmModel {
    static REF: OnceLock<GbmModel> = OnceLock::new();
    REF.get_or_init(|| {
        let engine = joinboost::backend::EngineBackend::in_memory();
        train_on(&engine)
    })
}

fn spawn_servers(n: usize, jitter: Option<(u64, u64)>) -> Vec<WireServer> {
    (0..n)
        .map(|i| {
            let mut b = WireServer::builder(Database::in_memory());
            if let Some((seed, max_micros)) = jitter {
                // A different stream per server so shard replies
                // interleave rather than shifting in lockstep.
                b = b.reply_jitter(seed.wrapping_add(i as u64 * 0x9e37), max_micros);
            }
            b.spawn().unwrap()
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Baseline: pipelined + delta over quiet servers, every shard count
// ---------------------------------------------------------------------------

/// Remote {1, 2, 4}-shard training through the multiplexed connection
/// and the delta split wire reproduces the serial coordinator's bits
/// exactly.
#[test]
fn pipelined_delta_training_matches_the_serial_coordinator() {
    let reference = serial_reference();
    for shards in [1usize, 2, 4] {
        let servers = spawn_servers(shards, None);
        let addrs: Vec<_> = servers.iter().map(|s| s.addr()).collect();
        let (model, stats) = train_remote(&addrs);
        assert_bit_identical(reference, &model, &format!("remote x{shards}"));
        assert!(
            stats.pushdown_splits > 0,
            "split pushdown must actually run (x{shards})"
        );
        assert!(
            stats.split_rounds > 0,
            "refinement rounds must be counted (x{shards})"
        );
        assert!(
            stats.split_bytes_sent > 0 && stats.split_bytes_received > 0,
            "split wire traffic must be metered (x{shards}): {stats:?}"
        );
    }
}

// ---------------------------------------------------------------------------
// Byte accounting: the delta wire must be cheaper than dense execution
// ---------------------------------------------------------------------------

fn train_highcard(backend: &dyn SqlBackend) -> GbmModel {
    let (fact, dim, graph) = highcard_tables();
    backend.create_table("fact", fact).unwrap();
    backend.create_table("dim", dim).unwrap();
    let set = Dataset::new(backend, graph, "fact", "y").unwrap();
    let p = TrainParams {
        num_iterations: 1,
        ..params()
    };
    train_gbm(&set, &p).unwrap()
}

const HIGHCARD_PUSHDOWN: PushdownConfig = PushdownConfig {
    boundaries_per_shard: 16,
    min_rows: 0,
};

/// On 4 shards, the identical high-cardinality workload ships strictly
/// fewer split bytes to the coordinator — in total and per round — with
/// the split pushdown (and its delta-encoded refinement rounds) than
/// with pushdown off, where every split query ships each shard's full
/// absorbed table; both produce the identical model.
#[test]
fn delta_encoding_ships_fewer_split_bytes_than_dense() {
    let run = |pushdown: bool| {
        let servers = spawn_servers(4, None);
        let addrs: Vec<_> = servers.iter().map(|s| s.addr()).collect();
        let backend = ShardedBackend::remote(
            &addrs,
            EngineConfig::duckdb_mem(),
            "fact",
            "k",
            RemoteOptions::default(),
        )
        .unwrap();
        backend.set_pushdown_config(HIGHCARD_PUSHDOWN);
        backend.set_pushdown(pushdown);
        let model = train_highcard(&backend);
        (model, backend.stats())
    };
    let reference = train_highcard(&joinboost::backend::EngineBackend::in_memory());
    let (dense_model, dense) = run(false);
    let (delta_model, delta) = run(true);
    assert_bit_identical(&reference, &dense_model, "dense x4 highcard");
    assert_bit_identical(&reference, &delta_model, "delta x4 highcard");
    assert_eq!(dense.pushdown_splits, 0, "pushdown off must stay off");
    assert!(
        delta.split_rounds > delta.pushdown_splits,
        "the workload must drive multi-round refinement ({} rounds over {} splits)",
        delta.split_rounds,
        delta.pushdown_splits
    );
    assert!(
        delta.split_bytes_received < dense.split_bytes_received,
        "delta must reduce coordinator recv bytes: delta {} vs dense {}",
        delta.split_bytes_received,
        dense.split_bytes_received
    );
    assert!(
        delta.split_bytes_received * dense.split_rounds
            < dense.split_bytes_received * delta.split_rounds,
        "delta must also win per round: {delta:?} vs {dense:?}"
    );
}

/// Every `summaries_delta` call one shard's split handles received:
/// `(handle, grid, changed)`, in call order.
type SummaryLog = Arc<Mutex<Vec<(usize, Vec<Datum>, Vec<usize>)>>>;

/// An in-process shard that logs which intervals each summary round asks
/// for; everything else goes straight to the engine.
struct RecordingShard {
    db: Database,
    log: SummaryLog,
    opened: Mutex<usize>,
}

struct RecordingHandle<'a> {
    inner: Box<dyn SplitHandle + 'a>,
    id: usize,
    log: SummaryLog,
}

impl ShardTransport for RecordingShard {
    fn execute(&self, stmt: &Statement) -> BackendResult {
        ShardTransport::execute(&self.db, stmt)
    }
    fn create_table(&self, name: &str, table: Table) -> BackendResult<()> {
        ShardTransport::create_table(&self.db, name, table)
    }
    fn snapshot(&self, name: &str) -> BackendResult<Table> {
        ShardTransport::snapshot(&self.db, name)
    }
    fn gather_rows(&self, name: &str, rows: &[u32]) -> BackendResult<Table> {
        ShardTransport::gather_rows(&self.db, name, rows)
    }
    fn column_names(&self, table: &str) -> BackendResult<Vec<String>> {
        ShardTransport::column_names(&self.db, table)
    }
    fn column_dtype(&self, table: &str, column: &str) -> BackendResult<DataType> {
        ShardTransport::column_dtype(&self.db, table, column)
    }
    fn has_table(&self, name: &str) -> bool {
        ShardTransport::has_table(&self.db, name)
    }
    fn row_count(&self, name: &str) -> BackendResult<usize> {
        ShardTransport::row_count(&self.db, name)
    }
    fn drop_table(&self, name: &str) -> BackendResult<()> {
        ShardTransport::drop_table(&self.db, name)
    }
    fn split_open(
        &self,
        stmt: &Statement,
        spec: &SplitSpec,
        k: usize,
    ) -> BackendResult<SplitOpen<'_>> {
        Ok(match self.db.split_open(stmt, spec, k)? {
            SplitOpen::Protocol { handle, bounds } => {
                let mut opened = self.opened.lock().unwrap();
                *opened += 1;
                SplitOpen::Protocol {
                    handle: Box::new(RecordingHandle {
                        inner: handle,
                        id: *opened,
                        log: Arc::clone(&self.log),
                    }),
                    bounds,
                }
            }
            dense => dense,
        })
    }
}

impl SplitHandle for RecordingHandle<'_> {
    fn num_rows(&self) -> usize {
        self.inner.num_rows()
    }
    fn boundaries(&self, k: usize) -> BackendResult<Vec<Datum>> {
        self.inner.boundaries(k)
    }
    fn summaries_delta(
        &self,
        grid: &[Datum],
        changed: &[usize],
    ) -> BackendResult<Vec<IntervalSummary>> {
        (self.log.lock().unwrap()).push((self.id, grid.to_vec(), changed.to_vec()));
        self.inner.summaries_delta(grid, changed)
    }
    fn refine(&self, grid: &[Datum], targets: &[(usize, usize)]) -> BackendResult<Vec<Datum>> {
        self.inner.refine(grid, targets)
    }
    fn fetch(&self, grid: &[Datum], retain: &[bool]) -> BackendResult<Table> {
        self.inner.fetch(grid, retain)
    }
    fn into_all_rows(self: Box<Self>) -> BackendResult<Table> {
        self.inner.into_all_rows()
    }
}

/// The direct form of the delta claim: a split's first summary round
/// asks every shard for every interval, and each later round asks only
/// for the intervals refinement subdivided — exactly those whose bounding
/// keys are not both in the previous round's grid.
#[test]
fn later_rounds_summarize_only_subdivided_intervals() {
    let logs: Vec<SummaryLog> = (0..4).map(|_| SummaryLog::default()).collect();
    let shards: Vec<Box<dyn ShardTransport>> = logs
        .iter()
        .map(|log| {
            Box::new(RecordingShard {
                db: Database::in_memory(),
                log: Arc::clone(log),
                opened: Mutex::new(0),
            }) as Box<dyn ShardTransport>
        })
        .collect();
    let backend = ShardedBackend::from_transports(
        shards,
        EngineConfig::duckdb_mem(),
        "recording x4".into(),
        "fact",
        "k",
    );
    backend.set_pushdown_config(HIGHCARD_PUSHDOWN);
    let model = train_highcard(&backend);
    let reference = train_highcard(&joinboost::backend::EngineBackend::in_memory());
    assert_bit_identical(&reference, &model, "recording x4 highcard");

    let mut later_rounds = 0usize;
    let mut elided = 0usize;
    for log in &logs {
        let log = log.lock().unwrap();
        let mut prev: Option<(usize, &[Datum])> = None;
        for (id, grid, changed) in log.iter() {
            let prev_grid = match prev {
                Some((pid, g)) if pid == *id => g,
                _ => &[], // a handle's first round: nothing cached
            };
            let expect: Vec<usize> = interval_delta_map(prev_grid, grid)
                .iter()
                .enumerate()
                .filter_map(|(j, kept)| kept.is_none().then_some(j))
                .collect();
            assert_eq!(changed, &expect, "handle {id}: wrong intervals summarized");
            if prev_grid.is_empty() {
                assert_eq!(changed.len(), grid.len(), "first round is every interval");
            } else {
                later_rounds += 1;
                elided += grid.len() - changed.len();
            }
            prev = Some((*id, grid));
        }
    }
    assert!(
        later_rounds > 0,
        "the workload must drive multi-round refinement"
    );
    assert!(elided > 0, "later rounds must skip the surviving intervals");
}

// ---------------------------------------------------------------------------
// Randomized completion orderings
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Whatever per-reply delays the servers draw — and therefore in
    /// whatever order multiplexed in-flight requests complete — the
    /// pipelined + delta-encoded run reproduces the serial coordinator's
    /// bits. `reply_jitter` delays every reply by a seeded pseudo-random
    /// duration, so each case scrambles a *different* interleaving of
    /// the same request stream.
    #[test]
    fn response_interleavings_never_change_a_bit(
        seed in any::<u64>(),
        max_micros in 50u64..800,
        shard_sel in 0usize..2,
    ) {
        let shards = [2usize, 4][shard_sel];
        let reference = serial_reference();
        let servers = spawn_servers(shards, Some((seed, max_micros)));
        let addrs: Vec<_> = servers.iter().map(|s| s.addr()).collect();
        let (model, stats) = train_remote(&addrs);
        assert_bit_identical(
            reference,
            &model,
            &format!("jitter seed={seed:#x} max={max_micros}us x{shards}"),
        );
        prop_assert!(stats.split_rounds > 0);
    }
}
