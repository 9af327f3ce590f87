//! Tests of the harness itself: the wrappers change nothing they time,
//! span trees come out well formed, every workload runs end to end at
//! smoke size, children die with their guard, and `BENCHMARK.json` says
//! what the metric registry says.

use std::path::Path;
use std::process::Command;
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use jbbench::data::{favorita_star, highcard_star, Star};
use jbbench::json::{self, Json};
use jbbench::metrics::{Workload, END_TO_END, PER_LAYER};
use jbbench::procs::{ScratchDir, ShardServerProc};
use jbbench::suite::{self, fingerprint, store::Store, RunConfig, Sizes};
use jbbench::timed::{TimedBackend, TimedTransport};
use jbbench::trace::{Recorder, Tree};

use joinboost::backend::{
    EngineBackend, RemoteConnection, RemoteOptions, ShardTransport, ShardedBackend, SqlBackend,
    WireServer,
};
use joinboost::{train_gbm, train_gbm_cb, Dataset, TrainParams};
use joinboost_engine::{Database, EngineConfig};

fn params(iterations: usize) -> TrainParams {
    TrainParams {
        num_iterations: iterations,
        learning_rate: 0.5,
        leaf_quantization: (2.0f64).powi(-10),
        ..TrainParams::default()
    }
}

fn dataset<'a>(backend: &'a dyn SqlBackend, star: &Star) -> Dataset<'a> {
    Dataset::new(backend, star.graph.clone(), star.fact, star.target).unwrap()
}

/// Train through a `TimedBackend`, recording iteration spans the way the
/// suite does.
fn train_traced(
    backend: &dyn SqlBackend,
    rec: &Recorder,
    star: &Star,
    iterations: usize,
) -> joinboost::GbmModel {
    let timed = TimedBackend::new(backend, rec, None);
    let run = rec.fresh_id();
    let run_start = rec.now_ns();
    timed.set_fallback(run);
    Store::load(&timed, star).unwrap();
    let set = dataset(&timed, star);
    let train = rec.fresh_id();
    timed.set_fallback(train);
    let train_start = rec.now_ns();
    rec.begin_training();
    let mut iter_start = train_start;
    let model = train_gbm_cb(&set, &params(iterations), |i, _| {
        iter_start = rec.end_iteration(train, i, iter_start);
        true
    })
    .unwrap();
    rec.end_training();
    rec.record(train, run, "harness", "train", train_start);
    timed.set_fallback(run);
    drop(set);
    rec.record(run, 0, "harness", "run", run_start);
    model
}

#[test]
fn timed_backend_is_transparent() {
    let star = favorita_star(3_000, 11);
    let plain = EngineBackend::in_memory();
    Store::load(&plain, &star).unwrap();
    let plain_model = {
        let set = dataset(&plain, &star);
        train_gbm(&set, &params(3)).unwrap()
    };

    let wrapped = EngineBackend::in_memory();
    let rec = Recorder::new();
    let traced_model = train_traced(&wrapped, &rec, &star, 3);

    assert_eq!(fingerprint(&plain_model), fingerprint(&traced_model));
    assert_eq!(plain.stats(), wrapped.stats());

    // One backend span per statement the engine counted (a temp-table
    // drop reaches it as a `DROP TABLE IF EXISTS`), and a tree whose self
    // times add up.
    let tree = Tree::build(rec.spans());
    assert_eq!(tree.problems(0.001), Vec::<String>::new());
    let statements = tree
        .spans
        .iter()
        .filter(|s| {
            s.layer == "backend"
                && ["execute", "execute_ast", "query", "drop_table_if_exists"].contains(&s.name)
        })
        .count() as u64;
    assert_eq!(statements, wrapped.stats().statements);
    let iters = tree
        .spans
        .iter()
        .filter(|s| (s.layer, s.name) == ("trainer", "iter"))
        .count();
    assert_eq!(iters, 3);
}

#[test]
fn timed_transport_is_transparent() {
    let star = highcard_star(6_000, 600, 5);
    let serve = || -> Vec<WireServer> {
        (0..2)
            .map(|_| WireServer::builder(Database::in_memory()).spawn().unwrap())
            .collect()
    };
    let train_on = |backend: &ShardedBackend| {
        Store::load(backend, &star).unwrap();
        let set = dataset(backend, &star);
        train_gbm(&set, &params(2)).unwrap()
    };

    let plain_servers = serve();
    let addrs: Vec<_> = plain_servers.iter().map(WireServer::addr).collect();
    let plain = ShardedBackend::remote(
        &addrs,
        EngineConfig::duckdb_mem(),
        star.fact,
        star.key,
        RemoteOptions::default(),
    )
    .unwrap();
    let plain_model = train_on(&plain);

    let timed_servers = serve();
    let rec = Arc::new(Recorder::new());
    let transports: Vec<Box<dyn ShardTransport>> = timed_servers
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let conn = Arc::new(RemoteConnection::builder(s.addr()).connect().unwrap());
            Box::new(TimedTransport::new(conn, i, rec.clone())) as Box<dyn ShardTransport>
        })
        .collect();
    let wrapped = ShardedBackend::from_transports(
        transports,
        EngineConfig::duckdb_mem(),
        "remote x2".into(),
        star.fact,
        star.key,
    );
    let traced_model = train_traced(&wrapped, &rec, &star, 2);

    assert_eq!(fingerprint(&plain_model), fingerprint(&traced_model));
    // Same routing decisions, same rows, same bytes back. Bytes sent
    // carry the SQL text, whose temp-table names hold a process-wide
    // dataset counter: a digit more in it is a few bytes more.
    let (p, w) = (plain.stats(), wrapped.stats());
    let sent = |s: &joinboost::backend::BackendStats| s.bytes_sent as f64;
    assert!(
        (sent(&p) - sent(&w)).abs() <= 0.001 * sent(&p),
        "{p:?} vs {w:?}"
    );
    assert_eq!(
        joinboost::backend::BackendStats { bytes_sent: 0, ..p },
        joinboost::backend::BackendStats { bytes_sent: 0, ..w }
    );
    assert!(w.pushdown_splits > 0, "the split protocol ran");

    let tree = Tree::build(rec.spans());
    assert_eq!(tree.problems(0.001), Vec::<String>::new());
    // Every shard span hangs off a backend span; both shards took part,
    // split rounds and their closing request included.
    let backend_ids: std::collections::HashSet<u64> = tree
        .spans
        .iter()
        .filter(|s| s.layer == "backend")
        .map(|s| s.id)
        .collect();
    let remote: Vec<_> = tree.spans.iter().filter(|s| s.layer == "remote").collect();
    assert!(remote.iter().all(|s| backend_ids.contains(&s.parent)));
    for shard in 0..2 {
        for name in ["execute", "split_open", "split_close"] {
            assert!(
                remote.iter().any(|s| s.shard == shard && s.name == name),
                "no {name} span on shard {shard}"
            );
        }
    }
}

fn manifest_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// The `shard_server` the workloads spawn sits next to the binaries of
/// this profile; build it once if an earlier build has not.
fn ensure_shard_server() {
    static BUILT: OnceLock<()> = OnceLock::new();
    BUILT.get_or_init(|| {
        if jbbench::procs::shard_server_bin().is_ok() {
            return;
        }
        let mut cargo = Command::new(env!("CARGO"));
        cargo
            .args(["build", "--offline", "--quiet", "--manifest-path"])
            .arg(manifest_dir().join("Cargo.toml"))
            .args(["-p", "joinboost", "--bin", "shard_server"]);
        if !cfg!(debug_assertions) {
            cargo.arg("--release");
        }
        let status = cargo.status().expect("run cargo");
        assert!(status.success(), "building shard_server failed");
        jbbench::procs::shard_server_bin().expect("shard_server after building it");
    });
}

/// An output directory of the test's own under `jbbench/out`, removed
/// when the test ends, passing or not.
fn scratch_dir(name: &str) -> ScratchDir {
    ScratchDir::new(&manifest_dir().join("out"), name).unwrap()
}

#[test]
fn smoke_suite_runs_every_workload_both_ways() {
    ensure_shard_server();
    let scratch = scratch_dir("smoke");
    let out_dir = scratch.path().to_path_buf();
    let started = Instant::now();
    for workload in Workload::ALL {
        let mut fingerprints = Vec::new();
        for trace in [false, true] {
            let cfg = RunConfig {
                workload,
                seed: 7,
                seconds: 0.2,
                trace,
                sizes: Sizes::SMOKE,
                out_dir: out_dir.clone(),
            };
            let outcome = suite::run(&cfg)
                .unwrap_or_else(|e| panic!("{} trace={trace}: {e}", workload.name()));
            assert!(outcome.correct, "{}", workload.name());
            assert_eq!(outcome.failed, 0);
            assert!(outcome.attempted > 0);
            let owed = outcome.owed(trace).unwrap();
            assert_eq!(
                owed.len(),
                if trace {
                    PER_LAYER.len()
                } else {
                    END_TO_END.len()
                }
            );
            if trace {
                let trace_file = out_dir.join(format!("{}.trace.json", workload.name()));
                let spans = json::parse(&std::fs::read_to_string(trace_file).unwrap()).unwrap();
                assert!(!spans.as_arr().unwrap().is_empty());
                if workload != Workload::ServeBatch {
                    assert_eq!(
                        outcome
                            .metrics
                            .get("remote.retries")
                            .copied()
                            .unwrap_or(0.0),
                        0.0
                    );
                    let train_s =
                        outcome.metrics["trainer.self_s"] + outcome.metrics["backend.busy_s"];
                    assert!(train_s > 0.0);
                    assert!(outcome.metrics["trainer.statements"] > 0.0);
                }
            }
            fingerprints.push(outcome.fingerprint);
        }
        // Same seed, same recipe: the traced run trained the same model.
        assert_eq!(fingerprints[0], fingerprints[1], "{}", workload.name());
    }
    assert!(
        started.elapsed().as_secs() < 60,
        "the smoke suite took {:?}",
        started.elapsed()
    );
}

#[test]
fn mem_and_paged_train_the_same_model() {
    let scratch = scratch_dir("twins");
    let out_dir = scratch.path().to_path_buf();
    let run = |workload| {
        suite::run(&RunConfig {
            workload,
            seed: 3,
            seconds: 0.1,
            trace: false,
            sizes: Sizes::SMOKE,
            out_dir: out_dir.clone(),
        })
        .unwrap()
    };
    let (mem, paged) = (run(Workload::MemStar), run(Workload::PagedStar));
    assert_eq!(mem.fingerprint, paged.fingerprint);
    // The paged store is on disk and the in-memory one is not.
    assert!(paged.metrics["disk_amp"] > mem.metrics["disk_amp"]);
}

#[test]
fn a_panic_kills_the_children() {
    ensure_shard_server();
    let bin = jbbench::procs::shard_server_bin().unwrap();
    let pid = std::panic::catch_unwind(|| {
        let server = ShardServerProc::spawn(&bin).unwrap();
        // The child serves: it answers a handshake.
        RemoteConnection::builder(server.addr()).connect().unwrap();
        assert!(server.peak_rss_kib().unwrap() > 0);
        std::panic::resume_unwind(Box::new(server.pid()));
    })
    .unwrap_err()
    .downcast::<u32>()
    .unwrap();
    assert!(
        !Path::new(&format!("/proc/{pid}")).exists(),
        "shard_server {pid} outlived its guard"
    );
}

#[test]
fn benchmark_json_matches_the_registry() {
    let path = manifest_dir().join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    assert!(text.len() <= 64 * 1024);
    let doc = json::parse(&text).unwrap();
    let keys: Vec<&str> = doc
        .as_obj()
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    let strings = |v: &Json| -> Vec<String> {
        v.as_arr()
            .unwrap()
            .iter()
            .map(|s| s.as_str().unwrap().to_string())
            .collect()
    };
    assert_eq!(strings(doc.get("paths").unwrap()), ["jbbench"]);
    assert_eq!(
        strings(doc.get("command").unwrap()),
        ["bash", "jbbench/run.sh"]
    );
    let seconds = doc.get("run_seconds").unwrap().as_f64().unwrap();
    assert!((1.0..=60.0).contains(&seconds) && seconds.fract() == 0.0);

    let workloads = doc.get("workloads").unwrap().as_arr().unwrap();
    assert_eq!(workloads.len(), Workload::ALL.len());
    for (entry, w) in workloads.iter().zip(Workload::ALL) {
        assert_eq!(entry.as_obj().unwrap().len(), 2);
        assert_eq!(entry.get("name").unwrap().as_str(), Some(w.name()));
        assert_eq!(entry.get("why").unwrap().as_str(), Some(w.why()));
    }
    for (key, defs, with_bound) in [
        ("end_to_end", END_TO_END, true),
        ("per_layer", PER_LAYER, false),
    ] {
        let entries = doc.get(key).unwrap().as_arr().unwrap();
        assert_eq!(entries.len(), defs.len(), "{key}");
        for (entry, def) in entries.iter().zip(defs) {
            assert_eq!(entry.get("name").unwrap().as_str(), Some(def.name));
            assert_eq!(
                entry.get("unit").unwrap().as_str(),
                Some(def.unit),
                "{}",
                def.name
            );
            assert_eq!(
                entry.get("better").unwrap().as_str(),
                Some(def.better.as_str()),
                "{}",
                def.name
            );
            if with_bound {
                assert_eq!(entry.as_obj().unwrap().len(), 4);
                assert_eq!(
                    entry.get("bound").unwrap().as_f64(),
                    Some(def.bound),
                    "{}",
                    def.name
                );
            } else {
                assert_eq!(entry.as_obj().unwrap().len(), 3);
            }
        }
    }
}
