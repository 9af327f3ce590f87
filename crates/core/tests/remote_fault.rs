//! Fault injection against the remote wire backend: a shard server that
//! dies or hangs mid-round must surface as a *fast*, contextful
//! [`TrainError::Engine`] — never a hang — and must not leave temp tables
//! behind on the surviving shards.
//!
//! The failure modes come from [`ServeOptions`]:
//!
//! * `fail_after` + `stall: false` — a *killed* process: connections drop,
//!   clients see EOF immediately;
//! * `fail_after` + `stall: true` — a *hung* process: sockets stay open
//!   but no reply ever comes, so the client's read timeout is what fires.
//!
//! Both runs calibrate `fail_after` from a healthy run's request count, so
//! the fault always lands mid-training, between statements of a round.
//!
//! These tests pin [`RetryPolicy::none()`]: they are about the *fail-fast*
//! contract (first transport error poisons, cleanup costs nothing), which
//! the default retrying policy deliberately softens. Recovery from
//! transient faults is covered by `remote_chaos.rs`.

use std::time::{Duration, Instant};

use joinboost::backend::{
    PushdownConfig, RemoteBackend, RemoteOptions, RetryPolicy, ShardedBackend, SqlBackend,
    WireServer,
};
use joinboost::{train_gbm, Dataset, TrainError, TrainParams};
use joinboost_engine::{Column, Database, EngineConfig, Table};
use joinboost_graph::JoinGraph;

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

/// Load + train on a 2-shard remote backend; returns the training result
/// (the `Dataset` is dropped before returning, so temp-table cleanup has
/// already run against whatever shards still answer).
fn train_remote(
    addrs: &[std::net::SocketAddr],
    opts: RemoteOptions,
) -> Result<joinboost::GbmModel, TrainError> {
    let backend = ShardedBackend::remote(addrs, EngineConfig::duckdb_mem(), "fact", "k", opts)
        .map_err(|e| TrainError::Engine(e.to_string()))?;
    backend.set_pushdown_config(PushdownConfig {
        boundaries_per_shard: 4,
        min_rows: 0,
    });
    let (fact, dim, graph) = star_tables(400);
    backend
        .create_table("fact", fact)
        .map_err(|e| TrainError::Engine(e.to_string()))?;
    backend
        .create_table("dim", dim)
        .map_err(|e| TrainError::Engine(e.to_string()))?;
    let set = Dataset::new(&backend, graph, "fact", "y")?;
    let params = TrainParams {
        num_iterations: 2,
        learning_rate: 0.5,
        leaf_quantization: (2.0f64).powi(-10),
        ..Default::default()
    };
    train_gbm(&set, &params)
}

/// Healthy 2-shard run: returns the request count the *second* shard
/// served, used to aim the fault injection at mid-training.
fn healthy_request_count() -> u64 {
    let a = WireServer::builder(Database::in_memory()).spawn().unwrap();
    let b = WireServer::builder(Database::in_memory()).spawn().unwrap();
    train_remote(&[a.addr(), b.addr()], RemoteOptions::default()).expect("healthy run");
    b.requests()
}

fn assert_fails_fast_and_survivor_clean(stall: bool) {
    let total = healthy_request_count();
    assert!(
        total > 10,
        "training must exercise the wire enough to inject mid-round ({total} requests)"
    );

    let survivor = WireServer::builder(Database::in_memory()).spawn().unwrap();
    let victim = WireServer::builder(Database::in_memory())
        .fail_after(total * 2 / 3)
        .stall(stall)
        .spawn()
        .unwrap();
    let opts = RemoteOptions {
        connect_timeout: Duration::from_secs(2),
        io_timeout: Duration::from_secs(2),
        retry: RetryPolicy::none(),
    };
    let started = Instant::now();
    let err = train_remote(&[survivor.addr(), victim.addr()], opts)
        .expect_err("training must fail when a shard dies mid-round");
    let elapsed = started.elapsed();

    // Fast: bounded by the io timeout (plus slack), not by a hang. The
    // stall mode *must* consume the read timeout; the kill mode sees EOF
    // immediately.
    assert!(
        elapsed < Duration::from_secs(20),
        "failure took {elapsed:?} — the wire backend hung instead of failing fast"
    );
    // Contextful: a TrainError::Engine naming the shard server.
    match &err {
        TrainError::Engine(msg) => {
            assert!(
                msg.contains("shard server at"),
                "error must name the failing shard: {msg}"
            );
        }
        other => panic!("expected TrainError::Engine, got {other:?}"),
    }

    // No partial-commit: the survivor holds base data, dims and messages,
    // but every `jb_`-temp registered by the dataset was dropped when the
    // failed run's dataset went out of scope.
    let names = survivor.database().table_names();
    assert!(
        !names.iter().any(|n| n.starts_with("jb_")),
        "temp tables left on surviving shard ({}): {names:?}",
        if stall { "stall" } else { "kill" },
    );
    assert!(names.iter().any(|n| n == "fact"), "base table must survive");
}

/// A killed shard server (connections dropped): EOF, immediate failure.
#[test]
fn killed_shard_server_fails_training_fast_and_cleanly() {
    assert_fails_fast_and_survivor_clean(false);
}

/// A hung shard server (sockets open, no replies): the client read
/// timeout converts the hang into an error.
#[test]
fn stalled_shard_server_hits_read_timeout_not_a_hang() {
    assert_fails_fast_and_survivor_clean(true);
}

/// Once poisoned, a connection fails instantly — cleanup paths touching a
/// dead shard must not re-pay the timeout per statement.
#[test]
fn poisoned_connection_fails_immediately_after_first_error() {
    let mut server = WireServer::builder(Database::in_memory()).spawn().unwrap();
    let backend = RemoteBackend::builder(server.addr())
        .connect_timeout(Duration::from_secs(2))
        .io_timeout(Duration::from_secs(2))
        .retry(RetryPolicy::none())
        .connect()
        .unwrap();
    backend
        .create_table(
            "t",
            Table::from_columns(vec![("x", Column::int(vec![1, 2, 3]))]),
        )
        .unwrap();
    server.kill();
    let first = backend.query("SELECT SUM(x) AS s FROM t");
    assert!(first.is_err(), "dead server must error");
    let started = Instant::now();
    for _ in 0..50 {
        let err = backend.query("SELECT SUM(x) AS s FROM t").unwrap_err();
        assert!(
            err.to_string().contains("previously failed"),
            "poison context missing: {err}"
        );
    }
    assert!(
        started.elapsed() < Duration::from_secs(1),
        "poisoned calls must not touch the socket"
    );
}

/// With a *retrying* policy against a server that died for good, the
/// reconnect budget is spent and the final error still names the shard
/// address — retries must not launder away the failure context.
#[test]
fn exhausted_retries_still_name_the_shard_address() {
    let mut server = WireServer::builder(Database::in_memory()).spawn().unwrap();
    let addr = server.addr();
    let backend = RemoteBackend::builder(addr)
        .connect_timeout(Duration::from_secs(2))
        .io_timeout(Duration::from_secs(2))
        .retry(RetryPolicy {
            max_retries: 2,
            base_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_millis(50),
            jitter: 0.0,
        })
        .connect()
        .unwrap();
    backend
        .create_table(
            "t",
            Table::from_columns(vec![("x", Column::int(vec![1, 2, 3]))]),
        )
        .unwrap();
    server.kill();
    let started = Instant::now();
    let err = backend.query("SELECT SUM(x) AS s FROM t").unwrap_err();
    let elapsed = started.elapsed();
    let msg = err.to_string();
    assert!(
        msg.contains("shard server at") && msg.contains(&addr.to_string()),
        "exhausted-retry error must name the shard: {msg}"
    );
    assert!(
        msg.contains("reconnect attempts"),
        "error must say the retry budget was spent: {msg}"
    );
    assert!(
        elapsed < Duration::from_secs(10),
        "2 retries with 10ms base backoff must not take {elapsed:?}"
    );
}

/// Connecting to a dead address fails fast with the address in the error.
#[test]
fn connect_to_dead_server_fails_fast_with_context() {
    // Bind an ephemeral port, then free it: nothing listens there.
    let addr = {
        let l = std::net::TcpListener::bind(("127.0.0.1", 0)).unwrap();
        l.local_addr().unwrap()
    };
    let started = Instant::now();
    let err = RemoteBackend::builder(addr)
        .connect_timeout(Duration::from_secs(2))
        .io_timeout(Duration::from_secs(2))
        .connect()
        .map(|_| ())
        .unwrap_err();
    assert!(started.elapsed() < Duration::from_secs(5));
    let msg = err.to_string();
    assert!(
        msg.contains(&addr.to_string()) && msg.contains("connect"),
        "connect error must carry the address: {msg}"
    );
}
