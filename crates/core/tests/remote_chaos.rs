//! Chaos tests for the fault-tolerant wire: *recovering* faults (dropped
//! connections, not dead servers) injected mid-training must be invisible
//! in the trained model. The contract under test is the wire's
//! session-resume + idempotent-replay machinery:
//!
//! * the client reconnects under its [`RetryPolicy`], presents its resume
//!   token, and re-issues every in-flight request;
//! * the server replays cached responses from its replay window for
//!   requests it already applied, so non-idempotent statements run
//!   exactly once even when several were in flight at the drop;
//! * session state (temp tables, split handles) survives the drop for the
//!   grace period, so training resumes instead of restarting.
//!
//! The headline proof: 4-shard training over real `shard_server`
//! *processes* with a connection dropped every few requests produces a
//! model `to_bits()`-identical to the healthy run.

use std::sync::OnceLock;
use std::time::Duration;

use proptest::prelude::*;

use joinboost::backend::{
    PushdownConfig, RemoteBackend, RemoteOptions, RetryPolicy, ShardedBackend, SqlBackend,
    WireServer,
};
use joinboost::{train_gbm, Dataset, GbmModel, TrainParams};
use joinboost_engine::{Column, Database, EngineConfig, Table};
use joinboost_graph::JoinGraph;

// ---------------------------------------------------------------------------
// Workload (same star schema as remote_fault.rs, dyadic so every backend
// and shard count reproduces the exact same bits)
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

/// Fast retry policy for tests: same shape as the default, millisecond
/// backoffs so injected drops cost wall-clock noise, not seconds.
fn test_retry() -> RetryPolicy {
    RetryPolicy {
        max_retries: 4,
        base_backoff: Duration::from_millis(5),
        max_backoff: Duration::from_millis(100),
        jitter: 0.2,
    }
}

fn retrying_opts() -> RemoteOptions {
    RemoteOptions {
        connect_timeout: Duration::from_secs(5),
        io_timeout: Duration::from_secs(10),
        retry: test_retry(),
    }
}

/// Load + train over the given shard addresses, with the split pushdown
/// on or with every split merged densely at the coordinator.
fn train_remote(addrs: &[std::net::SocketAddr], opts: RemoteOptions, pushdown: bool) -> GbmModel {
    let backend =
        ShardedBackend::remote(addrs, EngineConfig::duckdb_mem(), "fact", "k", opts).unwrap();
    backend.set_pushdown_config(PushdownConfig {
        boundaries_per_shard: 4,
        min_rows: 0,
    });
    backend.set_pushdown(pushdown);
    let (fact, dim, graph) = star_tables(400);
    backend.create_table("fact", fact).unwrap();
    backend.create_table("dim", dim).unwrap();
    let set = Dataset::new(&backend, graph, "fact", "y").unwrap();
    let params = TrainParams {
        num_iterations: 2,
        learning_rate: 0.5,
        leaf_quantization: (2.0f64).powi(-10),
        ..Default::default()
    };
    train_gbm(&set, &params).unwrap()
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

/// Healthy 4-shard reference model, computed once per test binary on
/// in-process servers (the workload is deterministic, so in-process and
/// child-process servers produce the same bits).
fn reference_model() -> &'static GbmModel {
    static REF: OnceLock<GbmModel> = OnceLock::new();
    REF.get_or_init(|| {
        let servers: Vec<WireServer> = (0..4)
            .map(|_| WireServer::builder(Database::in_memory()).spawn().unwrap())
            .collect();
        let addrs: Vec<_> = servers.iter().map(|s| s.addr()).collect();
        train_remote(&addrs, RemoteOptions::default(), true)
    })
}

// ---------------------------------------------------------------------------
// Child-process rig
// ---------------------------------------------------------------------------

/// A real `shard_server` child process: spawned on an ephemeral port with
/// the given extra flags, killed on drop.
struct ShardServerProc {
    child: std::process::Child,
    addr: std::net::SocketAddr,
}

impl ShardServerProc {
    fn spawn(extra_args: &[&str]) -> ShardServerProc {
        use std::io::BufRead as _;
        let mut child = std::process::Command::new(env!("CARGO_BIN_EXE_shard_server"))
            .args(extra_args)
            .stdout(std::process::Stdio::piped())
            .spawn()
            .expect("spawn shard_server");
        let stdout = child.stdout.take().expect("stdout piped");
        let mut line = String::new();
        std::io::BufReader::new(stdout)
            .read_line(&mut line)
            .expect("read LISTENING line");
        let addr = line
            .trim()
            .strip_prefix("LISTENING ")
            .expect("server must announce its address")
            .parse()
            .expect("valid socket address");
        ShardServerProc { child, addr }
    }
}

impl Drop for ShardServerProc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

// ---------------------------------------------------------------------------
// Headline: multi-process chaos run
// ---------------------------------------------------------------------------

/// 4 `shard_server` *processes*, every 7th request on each shard dropping
/// its connection before execution: the retrying client reconnects with
/// its resume token, replays, and training completes bit-identical to the
/// healthy run, with the split pushdown on and off. This is the end-to-end
/// proof that transient shard failures no longer abort training.
#[test]
fn chaos_drops_across_four_processes_train_bit_identical() {
    let reference = reference_model();
    for pushdown in [true, false] {
        let servers: Vec<ShardServerProc> = (0..4)
            .map(|_| ShardServerProc::spawn(&["--drop-every", "7", "--grace-ms", "30000"]))
            .collect();
        let addrs: Vec<_> = servers.iter().map(|s| s.addr).collect();
        let model = train_remote(&addrs, retrying_opts(), pushdown);
        assert_bit_identical(
            reference,
            &model,
            &format!("chaos x4 (drop-every 7, pushdown {pushdown})"),
        );
    }
}

// ---------------------------------------------------------------------------
// Exactly-once: replay of an applied-but-unacknowledged request
// ---------------------------------------------------------------------------

/// The nastiest fault: the server *applies* a non-idempotent request,
/// then the connection dies before the reply is written. On reconnect the
/// client re-issues the same sequence number; the server must return the
/// *cached* response instead of re-executing (a second `CREATE TABLE`
/// would fail). `flaky_after(2)` aims the drop precisely: request 1 is
/// the Hello, request 2 is the create.
#[test]
fn applied_but_unacknowledged_create_replays_from_cache() {
    let server = WireServer::builder(Database::in_memory())
        .flaky_after(2)
        .spawn()
        .unwrap();
    let backend = RemoteBackend::builder(server.addr())
        .connect_timeout(Duration::from_secs(2))
        .io_timeout(Duration::from_secs(2))
        .retry(test_retry())
        .connect()
        .unwrap();
    backend
        .create_table(
            "t",
            Table::from_columns(vec![("x", Column::int(vec![1, 2, 3]))]),
        )
        .expect("create must succeed via cached replay, not re-execution");
    // The retry path actually ran: the reply was dropped once.
    assert!(
        backend.connection().retry_count() >= 1,
        "fault must have fired ({} retries)",
        backend.connection().retry_count()
    );
    // And the table was applied exactly once, with the right contents.
    let t = backend.query("SELECT SUM(x) AS s FROM t").unwrap();
    assert_eq!(t.scalar_f64("s").unwrap(), 6.0);
    assert!(
        backend
            .create_table("t", Table::from_columns(vec![("x", Column::int(vec![9]))]))
            .is_err(),
        "a genuinely new CREATE of the same table must still conflict"
    );
}

// ---------------------------------------------------------------------------
// Mid-pipeline faults: drops landing on multiplexed in-flight requests
// ---------------------------------------------------------------------------

/// Several threads share ONE multiplexed connection, so drops land while
/// multiple non-idempotent requests are in flight — the case the replay
/// *window* (not a single slot) exists for. Every `CREATE TABLE` must
/// succeed exactly once: re-execution instead of replay would conflict
/// and fail the create; a lost request would fail the later row-count
/// check. Reply jitter scrambles which in-flight requests the drop
/// catches, and the connection must survive unpoisoned.
#[test]
fn mid_pipeline_drops_replay_in_flight_requests_exactly_once() {
    let server = WireServer::builder(Database::in_memory())
        .drop_every(11)
        .reply_jitter(0xC0FFEE, 300)
        .spawn()
        .unwrap();
    let backend = RemoteBackend::builder(server.addr())
        .connect_timeout(Duration::from_secs(5))
        .io_timeout(Duration::from_secs(10))
        .retry(test_retry())
        .connect()
        .unwrap();

    let threads = 4usize;
    let per_thread = 8usize;
    std::thread::scope(|scope| {
        for t in 0..threads {
            let backend = &backend;
            scope.spawn(move || {
                for i in 0..per_thread {
                    let rows = (t * per_thread + i + 1) as i64;
                    backend
                        .create_table(
                            &format!("c{t}_{i}"),
                            Table::from_columns(vec![("x", Column::int((0..rows).collect()))]),
                        )
                        .unwrap_or_else(|e| panic!("create c{t}_{i} must replay, not fail: {e}"));
                }
            });
        }
    });

    // The fault actually fired, repeatedly.
    assert!(
        backend.connection().retry_count() >= 1,
        "drop-every must have hit the pipeline ({} retries)",
        backend.connection().retry_count()
    );
    // Exactly-once side effects: every table exists with its exact rows,
    // and a second create of any of them still conflicts.
    for t in 0..threads {
        for i in 0..per_thread {
            let name = format!("c{t}_{i}");
            let rows = (t * per_thread + i + 1) as u64;
            assert_eq!(
                backend.row_count(&name).unwrap(),
                rows as usize,
                "{name} must hold its exact rows"
            );
        }
    }
    assert!(
        backend
            .create_table(
                "c0_0",
                Table::from_columns(vec![("x", Column::int(vec![]))])
            )
            .is_err(),
        "a genuinely new CREATE of an existing table must conflict"
    );
    // No poisoned survivors: the shared connection keeps serving.
    let t = backend.query("SELECT SUM(x) AS s FROM c0_0").unwrap();
    assert_eq!(t.scalar_f64("s").unwrap(), 0.0);
}

/// The headline chaos run with the completion order scrambled too:
/// connection drops *and* reply jitter on every shard process, so drops
/// catch pipelined requests at random depths. Training must still
/// reproduce the healthy run's bits.
#[test]
fn chaos_drops_with_scrambled_replies_train_bit_identical() {
    let reference = reference_model();
    let servers: Vec<ShardServerProc> = (0..4)
        .map(|i| {
            ShardServerProc::spawn(&[
                "--drop-every",
                "7",
                "--grace-ms",
                "30000",
                "--reply-jitter",
                &format!("{}:400", 17 + i * 1031),
            ])
        })
        .collect();
    let addrs: Vec<_> = servers.iter().map(|s| s.addr).collect();
    let model = train_remote(&addrs, retrying_opts(), true);
    assert_bit_identical(reference, &model, "chaos x4 (drop-every 7 + jitter)");
}

// ---------------------------------------------------------------------------
// Randomized fault points
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Wherever a one-shot drop-before-reply lands in the request stream
    /// — handshake-adjacent, mid-load, mid-round — recovered training is
    /// bit-identical to the fault-free run. Each shard gets a *different*
    /// fault point so the two failures interleave.
    #[test]
    fn training_recovers_bit_identical_from_any_fault_point(k in 2u64..60) {
        let reference = reference_model();
        let servers: Vec<WireServer> = (0..4)
            .map(|i| {
                WireServer::builder(Database::in_memory())
                    .flaky_after(k + i as u64 * 3)
                    .spawn()
                    .unwrap()
            })
            .collect();
        let addrs: Vec<_> = servers.iter().map(|s| s.addr()).collect();
        let model = train_remote(&addrs, retrying_opts(), true);
        assert_bit_identical(reference, &model, &format!("flaky-after {k}"));
    }
}
