//! The serving tier over a real socket: submit / poll / cancel training
//! jobs, admission control, per-session load budgets, and `PredictBatch`
//! against job-compiled message tables.
//!
//! Every test talks to a [`WireServer`] through [`ServeClient`] — the
//! same frames a multi-process deployment exchanges.

use std::time::{Duration, Instant};

use joinboost::backend::{
    JobSpec, JobStatus, RemoteBackend, RemoteConnection, RetryPolicy, ServeClient, ServeError,
    SqlBackend, WireServer,
};
use joinboost::serve::MessageIndex;
use joinboost::{train_gbm, Dataset, FactorizedScorer, ScorerSpec, TrainParams};
use joinboost_engine::{Column, Database, Datum, Table};

/// A star-schema database whose target is on the dyadic 1/8 grid, so
/// the exactness recipe (lr 0.5, leaf quantization 2⁻¹⁰) holds.
fn star_db(rows: i64) -> Database {
    let db = Database::in_memory();
    db.create_table(
        "fact",
        Table::from_columns(vec![
            ("k", Column::int((0..rows).collect())),
            ("d_id", Column::int((0..rows).map(|i| i % 6).collect())),
            ("x", Column::int((0..rows).map(|i| (i * 13) % 40).collect())),
            (
                "y",
                Column::float(
                    (0..rows)
                        .map(|i| (((i * 5) % 16) as f64) / 8.0 + ((i % 6) as f64) / 2.0)
                        .collect(),
                ),
            ),
        ]),
    )
    .unwrap();
    db.create_table(
        "dim",
        Table::from_columns(vec![
            ("d_id", Column::int((0..6).collect())),
            ("g", Column::int((0..6).map(|d| (d * 3) % 5).collect())),
        ]),
    )
    .unwrap();
    db
}

fn star_job() -> JobSpec {
    JobSpec {
        relations: vec![
            ("fact".into(), vec!["x".into()]),
            ("dim".into(), vec!["g".into()]),
        ],
        edges: vec![("fact".into(), "dim".into(), vec!["d_id".into()])],
        target_relation: "fact".into(),
        target_column: "y".into(),
        key_column: Some("k".into()),
        ..JobSpec::default()
    }
}

/// Poll until the job is `Running` (or panic after `timeout`).
fn wait_running(client: &ServeClient, id: u64, timeout: Duration) -> JobStatus {
    let start = Instant::now();
    loop {
        let status = client.poll(id).unwrap();
        match status {
            JobStatus::Running { .. } => return status,
            JobStatus::Queued => {}
            other => panic!("job {id} reached {other:?} before Running"),
        }
        assert!(start.elapsed() < timeout, "job {id} never started running");
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// Submit → poll → wait → predict, plus the unknown-id and unknown-key
/// error contracts.
#[test]
fn job_lifecycle_submit_wait_predict() {
    let server = WireServer::builder(star_db(64)).spawn().unwrap();
    let client = ServeClient::connect(server.addr()).unwrap();

    let id = client.submit(&star_job()).unwrap();
    let done = client.wait(id).unwrap();
    assert_eq!(done, JobStatus::Done { iterations: 3 });

    // Known keys score; a key no fact row carries maps to None — the
    // row a materialized inner join would not contain.
    let scores = client.predict(id, &[0, 1, 63, 10_000]).unwrap();
    assert!(scores[0].is_some() && scores[1].is_some() && scores[2].is_some());
    assert!(scores[0].unwrap().is_finite());
    assert_eq!(scores[3], None);

    // The message tables the job compiled are deployed under its prefix;
    // no jb_ *temp* tables survive training (job tables are jb_job-…).
    let names = server.database().table_names();
    assert!(names.iter().any(|n| n.starts_with(&format!("jb_job{id}_"))));
    assert!(
        names
            .iter()
            .all(|n| !n.starts_with("jb_") || n.starts_with("jb_job")),
        "training temp tables leaked: {names:?}"
    );

    // Unknown ids name the id in the error, for both poll and predict.
    let missing = 777u64;
    for err in [
        client.poll(missing).unwrap_err(),
        client.predict(missing, &[0]).map(|_| ()).unwrap_err(),
        client.cancel(missing).map(|_| ()).unwrap_err(),
    ] {
        assert!(
            err.to_string().contains("777"),
            "error must name the unknown job id: {err}"
        );
    }
}

/// Two clients share one server: both jobs run to completion and each
/// client can observe (and score against) the other's job.
#[test]
fn two_clients_submit_and_poll_concurrently() {
    let server = WireServer::builder(star_db(64)).spawn().unwrap();
    let addr = server.addr();

    let ids: Vec<u64> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..2)
            .map(|_| {
                scope.spawn(move || {
                    let client = ServeClient::connect(addr).unwrap();
                    let id = client.submit(&star_job()).unwrap();
                    assert_eq!(client.wait(id).unwrap(), JobStatus::Done { iterations: 3 });
                    id
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    assert_ne!(ids[0], ids[1], "jobs must get distinct ids");

    // The registry is server-global: a third connection can poll and
    // score both finished jobs.
    let observer = ServeClient::connect(addr).unwrap();
    for id in ids {
        assert_eq!(
            observer.wait(id).unwrap(),
            JobStatus::Done { iterations: 3 }
        );
        let scores = observer.predict(id, &[0, 5]).unwrap();
        assert!(scores.iter().all(|s| s.is_some()));
    }
}

/// Cancelling mid-training stops the worker at the next iteration
/// boundary and leaves zero `jb_` temp tables on the server — on every
/// server, when jobs ran on more than one.
#[test]
fn cancel_mid_training_leaves_no_temp_tables() {
    let servers: Vec<WireServer> = (0..2)
        .map(|_| WireServer::builder(star_db(512)).spawn().unwrap())
        .collect();
    let long_job = JobSpec {
        num_iterations: 50_000, // far more than can finish: cancel decides
        ..star_job()
    };
    for server in &servers {
        let client = ServeClient::connect(server.addr()).unwrap();
        let id = client.submit(&long_job).unwrap();
        wait_running(&client, id, Duration::from_secs(30));
        let after = client.cancel(id).unwrap();
        assert!(
            matches!(after, JobStatus::Running { .. } | JobStatus::Cancelled),
            "cancel mid-run answers the pre-terminal state, got {after:?}"
        );
        assert_eq!(client.wait(id).unwrap(), JobStatus::Cancelled);
        // Idempotent: cancelling a terminal job re-reports its state.
        assert_eq!(client.cancel(id).unwrap(), JobStatus::Cancelled);
        // Predict against a cancelled job is a typed error naming it.
        let err = client.predict(id, &[0]).map(|_| ()).unwrap_err();
        assert!(err.to_string().contains("cancelled"), "{err}");
    }
    for (i, server) in servers.iter().enumerate() {
        let names = server.database().table_names();
        assert!(
            !names.iter().any(|n| n.starts_with("jb_")),
            "cancelled job leaked tables on server {i}: {names:?}"
        );
    }
}

/// With `max_jobs(1)`, a second submission is rejected with a typed
/// [`ServeError::Busy`] — and the connection stays fully usable.
#[test]
fn admission_control_rejects_busy_without_poisoning() {
    let server = WireServer::builder(star_db(512))
        .max_jobs(1)
        .spawn()
        .unwrap();
    let client = ServeClient::connect(server.addr()).unwrap();

    let long_job = JobSpec {
        num_iterations: 50_000,
        ..star_job()
    };
    let first = client.submit(&long_job).unwrap();
    wait_running(&client, first, Duration::from_secs(30));

    match client.submit(&star_job()) {
        Err(ServeError::Busy(m)) => assert!(m.contains("limit"), "busy must explain: {m}"),
        other => panic!("second submit must be Busy, got {other:?}"),
    }

    // Same connection, next request: still healthy.
    assert!(matches!(
        client.poll(first).unwrap(),
        JobStatus::Running { .. }
    ));
    client.cancel(first).unwrap();
    assert_eq!(client.wait(first).unwrap(), JobStatus::Cancelled);

    // Slot freed: admission now accepts again.
    let second = client.submit(&star_job()).unwrap();
    assert_eq!(
        client.wait(second).unwrap(),
        JobStatus::Done { iterations: 3 }
    );
}

/// A session that exceeds its `CreateTable` byte budget gets a typed
/// rejection; the connection is not poisoned and smaller loads still fit.
#[test]
fn session_budget_rejects_large_loads_without_poisoning() {
    let server = WireServer::builder(Database::in_memory())
        .session_budget_bytes(4096)
        .spawn()
        .unwrap();
    let backend = RemoteBackend::builder(server.addr()).connect().unwrap();

    let big = Table::from_columns(vec![("x", Column::int((0..10_000).collect()))]);
    let err = backend.create_table("big", big).unwrap_err();
    let msg = err.to_string();
    assert!(
        msg.contains("budget") && msg.contains("busy"),
        "budget rejection must be a typed busy error: {msg}"
    );

    // Not poisoned: the same connection still serves requests, and a
    // load inside the budget succeeds.
    assert!(!backend.has_table("big"));
    let small = Table::from_columns(vec![("x", Column::int(vec![1, 2, 3]))]);
    backend.create_table("small", small).unwrap();
    assert_eq!(backend.row_count("small").unwrap(), 3);
}

/// Jobs still queued or running when their submitter disconnects are
/// cancelled — once the session's grace period expires without a
/// reconnect. A short grace keeps the test fast; the resumption test
/// below covers the other side (reconnect *within* grace keeps the job).
#[test]
fn disconnect_cancels_owned_jobs() {
    let server = WireServer::builder(star_db(512))
        .session_grace(Duration::from_millis(100))
        .spawn()
        .unwrap();
    let observer = ServeClient::connect(server.addr()).unwrap();

    let id = {
        let client = ServeClient::connect(server.addr()).unwrap();
        let id = client
            .submit(&JobSpec {
                num_iterations: 50_000,
                ..star_job()
            })
            .unwrap();
        wait_running(&client, id, Duration::from_secs(30));
        id
        // client drops here: the socket closes, the server cancels.
    };

    assert_eq!(observer.wait(id).unwrap(), JobStatus::Cancelled);
    let names = server.database().table_names();
    assert!(
        !names.iter().any(|n| n.starts_with("jb_")),
        "disconnected client's job leaked tables: {names:?}"
    );
}

/// The flip side of disconnect-cancels: a session whose *connection*
/// drops but whose client reconnects within the grace period keeps its
/// jobs. The server drops every 5th request; the retrying client resumes
/// its session each time and polls its long-running job throughout.
#[test]
fn briefly_dropped_session_keeps_its_jobs() {
    let server = WireServer::builder(star_db(512))
        .drop_every(5)
        .session_grace(Duration::from_secs(30))
        .spawn()
        .unwrap();
    let conn = RemoteConnection::builder(server.addr())
        .retry(RetryPolicy {
            max_retries: 4,
            base_backoff: Duration::from_millis(5),
            max_backoff: Duration::from_millis(100),
            jitter: 0.2,
        })
        .connect()
        .unwrap();
    let client = ServeClient::from_connection(conn);

    let id = client
        .submit(&JobSpec {
            num_iterations: 50_000,
            ..star_job()
        })
        .unwrap();
    wait_running(&client, id, Duration::from_secs(30));

    // Poll through several injected drops: the job must stay alive — a
    // drop must look like nothing happened, not like a disconnect.
    for _ in 0..20 {
        assert!(
            matches!(
                client.poll(id).unwrap(),
                JobStatus::Queued | JobStatus::Running { .. }
            ),
            "job must survive connection drops while the session resumes"
        );
        std::thread::sleep(Duration::from_millis(2));
    }
    assert!(
        client.connection().retry_count() >= 1,
        "the fault must actually have fired"
    );

    // The resumed session still owns the job: cancel works.
    client.cancel(id).unwrap();
    assert_eq!(client.wait(id).unwrap(), JobStatus::Cancelled);
}

/// The scorer cache is invalidated *per relation*: writes to tables a
/// deployed scorer does not reference leave it cached, while dropping one
/// of its message tables takes effect immediately (no stale scoring from
/// memory).
#[test]
fn scorer_cache_invalidation_is_per_relation() {
    let server = WireServer::builder(star_db(64)).spawn().unwrap();
    let client = ServeClient::connect(server.addr()).unwrap();
    let backend = RemoteBackend::builder(server.addr()).connect().unwrap();

    let id = client.submit(&star_job()).unwrap();
    assert_eq!(client.wait(id).unwrap(), JobStatus::Done { iterations: 3 });

    client.predict(id, &[0, 1]).unwrap();
    assert_eq!(server.scorer_cache_loads(), 1, "first predict loads");
    client.predict(id, &[2, 3]).unwrap();
    assert_eq!(server.scorer_cache_loads(), 1, "second predict hits cache");

    // A write touching an *unrelated* table must not evict the scorer.
    backend
        .create_table(
            "scratch",
            Table::from_columns(vec![("x", Column::int(vec![1]))]),
        )
        .unwrap();
    client.predict(id, &[4]).unwrap();
    assert_eq!(
        server.scorer_cache_loads(),
        1,
        "unrelated write must not invalidate the scorer cache"
    );

    // The same precision for SQL *text*, whatever its layout: the server
    // derives the written table from the parsed statement, so lower-case
    // keywords split by a newline and a tab still name `scratch2` — not
    // "some table, evict everything".
    backend
        .execute("create\n\ttable scratch2 as\nselect x + 1 as x from scratch")
        .unwrap();
    backend.execute("update\tscratch2\nset x = 0").unwrap();
    backend
        .execute("drop\n table\tif exists\n scratch2")
        .unwrap();
    client.predict(id, &[5]).unwrap();
    assert_eq!(
        server.scorer_cache_loads(),
        1,
        "unrelated SQL writes must not invalidate the scorer cache"
    );

    // Dropping one of the scorer's own message tables must evict it: the
    // next predict tries to reload and fails, rather than serving stale
    // bits from memory.
    let victim = server
        .database()
        .table_names()
        .into_iter()
        .find(|n| n.starts_with(&format!("jb_job{id}_")))
        .expect("job must have deployed message tables");
    backend.drop_table_if_exists(&victim).unwrap();
    assert!(
        client.predict(id, &[0]).is_err(),
        "predict after dropping {victim} must fail, not serve a stale cached scorer"
    );
}

/// Temp tables left behind by a previous process (crash before cleanup)
/// are swept when the server starts: state is rebuilt from scratch, so
/// any `jb_`-prefixed table is an orphan by definition.
#[test]
fn server_start_sweeps_orphan_temp_tables() {
    let db = star_db(64);
    for orphan in ["jb_old_tmp", "jb_job9_msg0"] {
        db.create_table(
            orphan,
            Table::from_columns(vec![("x", Column::int(vec![1, 2]))]),
        )
        .unwrap();
    }
    let server = WireServer::builder(db).spawn().unwrap();
    let names = server.database().table_names();
    assert!(
        !names.iter().any(|n| n.starts_with("jb_")),
        "orphan temp tables must be swept at startup: {names:?}"
    );
    assert!(
        names.iter().any(|n| n == "fact") && names.iter().any(|n| n == "dim"),
        "base tables must survive the sweep: {names:?}"
    );
}

/// The per-session replay cache is bounded: under a tiny byte budget,
/// idle sessions' cached responses are evicted (observable via the
/// eviction counter) while every connection stays fully usable for new
/// requests — the budget trades replay coverage, never liveness.
#[test]
fn replay_cache_eviction_under_byte_budget() {
    let server = WireServer::builder(star_db(64))
        .replay_budget_bytes(64)
        .spawn()
        .unwrap();

    // Three concurrent sessions, each caching a response far larger than
    // the 64-byte budget: every new cache write must evict the others.
    let backends: Vec<RemoteBackend> = (0..3)
        .map(|_| RemoteBackend::builder(server.addr()).connect().unwrap())
        .collect();
    for b in &backends {
        b.query("SELECT k, x, y FROM fact").unwrap();
    }
    assert!(
        server.replay_evictions() >= 1,
        "three over-budget cache writes must evict at least one entry"
    );

    // Eviction must not break the sessions: each still answers fresh
    // requests (new sequence numbers never consult the replay cache).
    for b in &backends {
        let t = b.query("SELECT COUNT(*) AS n FROM dim").unwrap();
        assert_eq!(t.column(None, "n").unwrap().get(0), Datum::Int(6));
    }
}

/// Train a 3-tree model on the server's star schema through `backend`
/// and deploy its message tables there. The dataset owns the tables, so
/// it must outlive every use of the spec.
fn deployed_spec(backend: &RemoteBackend) -> (Dataset<'_>, ScorerSpec) {
    let mut graph = joinboost_graph::JoinGraph::new();
    graph.add_relation("fact", &["x"]).unwrap();
    graph.add_relation("dim", &["g"]).unwrap();
    graph.add_edge("fact", "dim", &["d_id"]).unwrap();
    let set = Dataset::new(backend, graph, "fact", "y").unwrap();
    let params = TrainParams {
        num_iterations: 3,
        learning_rate: 0.5,
        leaf_quantization: (2.0f64).powi(-10),
        ..Default::default()
    };
    let model = train_gbm(&set, &params).unwrap();
    let spec = FactorizedScorer::compile(&set, &model, "k")
        .unwrap()
        .spec()
        .clone();
    (set, spec)
}

/// Two inline specs over the same deployed tables — a model and its
/// first tree — are each scored with their own leaf values: the server's
/// scorer cache answers only the spec an entry was loaded for.
#[test]
fn inline_specs_over_the_same_tables_get_their_own_leaf_values() {
    let server = WireServer::builder(star_db(64)).spawn().unwrap();
    let backend = RemoteBackend::builder(server.addr()).connect().unwrap();
    let (_set, spec) = deployed_spec(&backend);
    let first = ScorerSpec {
        leaf_values: spec.leaf_values[..1].to_vec(),
        ..spec.clone()
    };
    let keys: Vec<i64> = (0..64).collect();
    // The oracle: each spec loaded fresh, in process.
    let oracle = |spec: &ScorerSpec| {
        MessageIndex::load(spec, &mut |n| backend.snapshot(n))
            .unwrap()
            .eval_batch(&keys, spec.init_score)
            .unwrap()
    };
    let bits = |rs: Vec<(bool, f64)>| -> Vec<(bool, u64)> {
        rs.into_iter().map(|(f, s)| (f, s.to_bits())).collect()
    };
    let (want_all, want_first) = (bits(oracle(&spec)), bits(oracle(&first)));
    assert_ne!(want_all, want_first, "the two specs must score differently");
    for (s, want) in [
        (&spec, &want_all),
        (&first, &want_first),
        (&spec, &want_all),
    ] {
        let got = bits(backend.predict_batch(s, &keys).unwrap());
        assert_eq!(&got, want, "{} trees", s.leaf_values.len());
    }
}

/// A spec with fewer leaf values than a deployed tree selects is a typed
/// error naming the tree and the slot — answered at once, not a panicked
/// connection the client waits out — and the connection serves on.
#[test]
fn a_short_inline_spec_is_a_typed_error_and_the_connection_serves_on() {
    let server = WireServer::builder(star_db(64)).spawn().unwrap();
    let io_timeout = Duration::from_secs(10);
    let backend = RemoteBackend::builder(server.addr())
        .io_timeout(io_timeout)
        .retry(RetryPolicy::none())
        .connect()
        .unwrap();
    let (_set, spec) = deployed_spec(&backend);
    assert!(
        spec.leaf_values[0].len() > 1,
        "tree 0 must have leaves to cut"
    );
    let mut short = spec.clone();
    short.leaf_values[0].truncate(1);
    let keys: Vec<i64> = (0..64).collect();
    let start = Instant::now();
    let err = backend
        .predict_batch(&short, &keys)
        .unwrap_err()
        .to_string();
    assert!(
        start.elapsed() < io_timeout / 4,
        "took {:?}",
        start.elapsed()
    );
    assert!(err.contains("tree 0") && err.contains("slot"), "{err}");
    assert_eq!(backend.row_count("fact").unwrap(), 64);
    backend.predict_batch(&spec, &keys).unwrap();
}
