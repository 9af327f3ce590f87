//! The three training workloads: `mem_star`, `paged_star` and
//! `remote_highcard`. They share one lifecycle — set up a fresh store,
//! train a GBM, serve the model, and at the end compare it with an
//! in-memory reference — and differ only in where the data lives.
//!
//! An untraced run is one discarded warm-up repetition (the first
//! training in a process runs up to 2× slow) followed by timed
//! repetitions, no wrapper installed. A traced run is a warm-up, one
//! plain repetition to compare against, and one repetition through the
//! wrappers of [`crate::timed`].

use std::collections::{BTreeMap, HashSet};
use std::sync::Arc;
use std::time::{Duration, Instant};

use joinboost::backend::{BackendStats, EngineBackend, SqlBackend};
use joinboost::serve::MessageIndex;
use joinboost::{
    train_gbm, train_gbm_cb, Dataset, FactorizedScorer, GbmModel, JoinScorer, Scorer, TrainParams,
};
use joinboost_engine::{Database, EngineConfig};
use joinboost_sql::parse_statement;
use joinboost_sql::token::{tokenize, Token};

use crate::data::{favorita_star, highcard_star, Star};
use crate::procs::self_peak_rss_kib;
use crate::timed::{Class, Logged, TimedBackend};
use crate::trace::{union_ns, Recorder, Span, Tree};

use super::predict::{check_first_batches, report_windows, run_windows, ScoreFn, Window};
use super::store::{Store, StoreKind, SHARDS};
use super::{fingerprint, median, Outcome, RunConfig};

/// Most timed repetitions a run makes, however short each is.
const MAX_REPS: usize = 12;

/// Share of `--seconds` the predict windows of a run measure for, split
/// evenly over its repetitions: every repetition is a fresh deployment
/// at another moment of the host, and the run reports the median window.
const PREDICT_SHARE: f64 = 0.12;

/// Back-to-back predict windows at the end of each repetition.
const WINDOWS_PER_REP: usize = 3;

fn make_star(cfg: &RunConfig, kind: StoreKind) -> Star {
    match kind {
        StoreKind::Mem | StoreKind::Paged => favorita_star(cfg.sizes.star_rows, cfg.seed),
        StoreKind::Remote => {
            highcard_star(cfg.sizes.highcard_rows, cfg.sizes.highcard_card, cfg.seed)
        }
    }
}

/// `TrainParams::default()` but for the iteration count and the dyadic
/// recipe (learning rate 1/2, leaves on the 2⁻¹⁰ grid) that makes every
/// backend sum the same bits.
fn train_params(cfg: &RunConfig, kind: StoreKind) -> TrainParams {
    TrainParams {
        num_iterations: match kind {
            StoreKind::Mem | StoreKind::Paged => cfg.sizes.star_iters,
            StoreKind::Remote => cfg.sizes.highcard_iters,
        },
        learning_rate: 0.5,
        leaf_quantization: (2.0f64).powi(-10),
        ..TrainParams::default()
    }
}

fn dataset<'a>(backend: &'a dyn SqlBackend, star: &Star) -> Result<Dataset<'a>, String> {
    Dataset::new(backend, star.graph.clone(), star.fact, star.target).map_err(|e| e.to_string())
}

/// A store brought up from the source tables, and what that took.
struct SetUp {
    star: Star,
    store: Store,
    started: Instant,
    gen_s: f64,
    load_s: f64,
    /// Spawn + open + load: everything but generating the data.
    bringup_s: f64,
}

/// Generate the data, open a fresh store and load it. The caller binds a
/// `Dataset` to it, which completes the set-up (`started.elapsed()`).
fn set_up(cfg: &RunConfig, kind: StoreKind) -> Result<SetUp, String> {
    let started = Instant::now();
    let star = make_star(cfg, kind);
    let gen_s = started.elapsed().as_secs_f64();
    let t_bringup = Instant::now();
    let store = Store::open(kind, &star, &cfg.out_dir, None)?;
    let t_load = Instant::now();
    Store::load(store.backend(), &star)?;
    Ok(SetUp {
        gen_s,
        load_s: t_load.elapsed().as_secs_f64(),
        bringup_s: t_bringup.elapsed().as_secs_f64(),
        star,
        store,
        started,
    })
}

/// Set-ups a run makes after each repetition, beyond the repetition's
/// own. A set-up takes milliseconds where a repetition takes seconds, and
/// a median of three millisecond timings is noise; a dozen and more,
/// spread over the whole run, is a measurement.
const EXTRA_SETUPS_PER_REP: usize = 3;

/// What one untraced repetition measured.
struct Rep {
    gen_s: f64,
    load_s: f64,
    bringup_s: f64,
    setup_s: f64,
    train_s: f64,
    /// Crash, then `Database::open` on the same directory (paged only).
    reopen_s: Option<f64>,
    disk_amp: f64,
    children_rss_kib: u64,
    statements: u64,
    fingerprint: u64,
    /// The closing predict windows (timed repetitions only).
    windows: Vec<Window>,
}

/// One repetition with no wrapper installed: set up, train, measure what
/// the deployment holds, crash and reopen a paged store, and serve the
/// model for `serve` (not at all if that is zero).
fn plain_rep(
    cfg: &RunConfig,
    kind: StoreKind,
    params: &TrainParams,
    serve: Duration,
) -> Result<Rep, String> {
    let SetUp {
        star,
        store,
        started,
        gen_s,
        load_s,
        bringup_s,
    } = set_up(cfg, kind)?;
    let mut set = dataset(store.backend(), &star)?;
    let setup_s = started.elapsed().as_secs_f64();

    let before = store.backend().stats();
    let t_train = Instant::now();
    let model = train_gbm(&set, params).map_err(|e| e.to_string())?;
    let train_s = t_train.elapsed().as_secs_f64();
    let statements = store.backend().stats().statements - before.statements;

    // Temp tables (the lifted fact, live messages) are part of what the
    // deployment holds at the end of training.
    let disk_amp = store.held_bytes()? as f64 / star.user_bytes() as f64;
    let children_rss_kib = store.children_peak_rss_kib()?;
    let mut rep = Rep {
        gen_s,
        load_s,
        bringup_s,
        setup_s,
        train_s,
        reopen_s: None,
        disk_amp,
        children_rss_kib,
        statements,
        fingerprint: fingerprint(&model),
        windows: Vec::new(),
    };

    if kind == StoreKind::Paged {
        // Durability: crash, reopen from only the bytes that were synced,
        // and find the most-written table as it was.
        set.keep_temp_tables = true;
        drop(set);
        let engine = store.engine();
        let lifted = engine
            .table_names()
            .into_iter()
            .find(|n| n.contains("_fact_"))
            .ok_or("the trainer left no lifted fact table")?;
        let before_crash = engine.snapshot(&lifted).map_err(|e| e.to_string())?;
        let user_fact = engine.snapshot(star.fact).map_err(|e| e.to_string())?;
        engine.simulate_crash().map_err(|e| e.to_string())?;
        let scratch = store.into_scratch().expect("a paged store has a directory");
        let t_reopen = Instant::now();
        let reopened =
            Database::open(EngineConfig::paged(scratch.path())).map_err(|e| e.to_string())?;
        rep.reopen_s = Some(t_reopen.elapsed().as_secs_f64());
        if reopened.snapshot(&lifted).map_err(|e| e.to_string())? != before_crash
            || reopened.snapshot(star.fact).map_err(|e| e.to_string())? != user_fact
        {
            return Err(format!(
                "durability: {lifted} or {} differs after crash and reopen",
                star.fact
            ));
        }
        if !serve.is_zero() {
            let set = dataset(&reopened, &star)?;
            rep.windows = serve_model(cfg, &reopened, &set, &model, &star, true, serve)?;
        }
        // `reopened` closes its files before `scratch` removes them.
        drop(reopened);
        drop(scratch);
    } else if !serve.is_zero() {
        let in_process = kind == StoreKind::Mem;
        rep.windows = serve_model(cfg, store.backend(), &set, &model, &star, in_process, serve)?;
    }
    Ok(rep)
}

/// Serve the trained model from the store it was trained on: compile it
/// into message tables there, then score seeded 64-key batches in a
/// closed loop. A single-node store is served in process, from a
/// resident [`MessageIndex`]; the sharded store through
/// `SqlBackend::predict_batch`, one partial per shard over the wire.
fn serve_model(
    cfg: &RunConfig,
    backend: &dyn SqlBackend,
    set: &Dataset<'_>,
    model: &GbmModel,
    star: &Star,
    in_process: bool,
    total: Duration,
) -> Result<Vec<Window>, String> {
    let scorer = FactorizedScorer::compile(set, model, star.key).map_err(|e| e.to_string())?;
    let to_scores = |found: Vec<(bool, f64)>| -> Vec<Option<f64>> {
        found.into_iter().map(|(f, s)| f.then_some(s)).collect()
    };
    let client: ScoreFn<'_> = if in_process {
        let spec = scorer.spec();
        let index = MessageIndex::load(spec, &mut |name| backend.snapshot(name))
            .map_err(|e| e.to_string())?;
        let init = spec.init_score;
        Box::new(move |keys| {
            index
                .eval_batch(keys, init)
                .map(to_scores)
                .map_err(|e| e.to_string())
        })
    } else {
        Box::new(|keys| scorer.score_batch(keys).map_err(|e| e.to_string()))
    };
    let mut clients = [client];
    let windows = run_windows(
        &mut clients,
        cfg.seed,
        star.fact_rows(),
        cfg.sizes.train_predict_discard,
        total,
        WINDOWS_PER_REP,
    );
    Ok(windows)
}

/// The in-memory reference every training run ends with (outside every
/// timed region): the same data and recipe on one in-process
/// `EngineBackend`. Its model must have the fingerprint the measured
/// repetitions had, and its materialized join is the oracle the served
/// scores are compared with. Returns the training rmse.
fn reference(
    cfg: &RunConfig,
    kind: StoreKind,
    params: &TrainParams,
    want: u64,
    windows: &[&Window],
) -> Result<f64, String> {
    let star = make_star(cfg, kind);
    let backend = EngineBackend::in_memory();
    Store::load(&backend, &star)?;
    let set = dataset(&backend, &star)?;
    let model = train_gbm(&set, params).map_err(|e| e.to_string())?;
    let got = fingerprint(&model);
    if got != want {
        return Err(format!(
            "model fingerprint {want:016x} differs from the in-memory reference {got:016x}"
        ));
    }
    let oracle = JoinScorer::compile(&set, &model, star.key).map_err(|e| e.to_string())?;
    for window in windows {
        check_first_batches(window, &mut |keys| {
            oracle.score_batch(keys).map_err(|e| e.to_string())
        })?;
    }
    let keys: Vec<i64> = (0..star.fact_rows() as i64).collect();
    let scores = oracle.score_batch(&keys).map_err(|e| e.to_string())?;
    let y = star
        .fact_table()
        .column(None, star.target)
        .map_err(|e| e.to_string())?
        .to_f64_vec()
        .map_err(|e| e.to_string())?;
    let sse: f64 = scores
        .iter()
        .zip(&y)
        .map(|(s, y)| {
            let s = s.expect("every fact row joins in a star with complete dimensions");
            (s - y) * (s - y)
        })
        .sum();
    Ok((sse / y.len() as f64).sqrt())
}

/// Boosting iterations of the discarded warm-up repetition.
const WARMUP_ITERS: usize = 2;

pub fn run(cfg: &RunConfig, kind: StoreKind) -> Result<Outcome, String> {
    let params = train_params(cfg, kind);
    // Discarded: the first training in a process pays for page faults
    // and allocator growth the later ones do not. Two iterations touch
    // every code path and table size the full recipe does.
    let warm_params = TrainParams {
        num_iterations: WARMUP_ITERS.min(params.num_iterations),
        ..params.clone()
    };
    let warm = plain_rep(cfg, kind, &warm_params, Duration::ZERO)?;
    if cfg.trace {
        traced(cfg, kind, &params)
    } else {
        let per_iteration = warm.train_s / warm_params.num_iterations as f64;
        untraced(
            cfg,
            kind,
            &params,
            per_iteration * params.num_iterations as f64,
        )
    }
}

fn untraced(
    cfg: &RunConfig,
    kind: StoreKind,
    params: &TrainParams,
    expected_train_s: f64,
) -> Result<Outcome, String> {
    let reps =
        ((cfg.seconds / expected_train_s).round() as usize).clamp(cfg.sizes.min_reps, MAX_REPS);
    let serve = Duration::from_secs_f64(cfg.seconds * PREDICT_SHARE / reps as f64);
    let mut done: Vec<Rep> = Vec::with_capacity(reps);
    let (mut setups, mut bringups) = (Vec::new(), Vec::new());
    for i in 0..reps {
        let rep = plain_rep(cfg, kind, params, serve)?;
        if let Some(first) = done.first() {
            if rep.fingerprint != first.fingerprint {
                return Err(format!(
                    "repetition {i} trained model {:016x}, repetition 0 {:016x}",
                    rep.fingerprint, first.fingerprint
                ));
            }
        }
        done.push(rep);
        for _ in 0..EXTRA_SETUPS_PER_REP {
            let up = set_up(cfg, kind)?;
            let set = dataset(up.store.backend(), &up.star)?;
            setups.push(up.started.elapsed().as_secs_f64());
            bringups.push(up.bringup_s);
            drop(set);
        }
    }
    let want = done[0].fingerprint;
    // Before the reference run, which is not part of the workload.
    let self_rss_kib = self_peak_rss_kib()?;
    let windows: Vec<&Window> = done.iter().flat_map(|r| &r.windows).collect();
    let rmse = reference(cfg, kind, params, want, &windows)?;

    let mut out = Outcome {
        correct: true,
        attempted: done.iter().map(|r| r.statements).sum(),
        fingerprint: want,
        ..Outcome::default()
    };
    report_windows(&windows, &mut out);
    let col = |f: fn(&Rep) -> f64| done.iter().map(f).collect::<Vec<f64>>();
    setups.extend(col(|r| r.setup_s));
    bringups.extend(col(|r| r.bringup_s));
    out.set_median("setup_s", setups);
    out.set_median("train_s", col(|r| r.train_s));
    // A store that keeps nothing on disk comes back by being loaded again.
    let reopens: Vec<f64> = done.iter().filter_map(|r| r.reopen_s).collect();
    out.set_median(
        "reopen_s",
        if reopens.is_empty() {
            bringups
        } else {
            reopens
        },
    );
    out.set_median("disk_amp", col(|r| r.disk_amp));
    let children = done.iter().map(|r| r.children_rss_kib).max().unwrap_or(0);
    out.set("peak_rss_mb", (self_rss_kib + children) as f64 / 1024.0);
    out.notes.push(format!(
        "{reps} timed repetitions of {} iterations; model {:016x} on every repetition and on \
         the in-memory reference; training rmse {rmse:.4}; {} predict calls measured",
        params.num_iterations,
        want,
        windows.iter().map(|w| w.latencies_us.len()).sum::<usize>()
    ));
    out.notes.push(format!(
        "set-up: datagen {:.3} s, load {:.3} s, store bring-up {:.3} s (medians)",
        median(&col(|r| r.gen_s)),
        median(&col(|r| r.load_s)),
        median(&col(|r| r.bringup_s)),
    ));
    Ok(out)
}

/// Engine-side counters read before and after the traced training.
struct Counters {
    backend: BackendStats,
    db: joinboost_engine::db::DbStats,
    pool: joinboost_engine::BufferPoolStats,
    requests: u64,
    wal: crate::timed::WalTotals,
}

fn counters(store: &Store, timed: &TimedBackend<'_>) -> Counters {
    Counters {
        backend: store.backend().stats(),
        db: store.engine().stats(),
        pool: store.engine().bufferpool_stats().unwrap_or_default(),
        requests: store.conns().iter().map(|c| c.request_count()).sum(),
        wal: timed.wal_totals(),
    }
}

/// What the traced repetition hands to the metric computation.
struct Traced {
    spans: Vec<Span>,
    train: (u64, u64),
    log: Vec<Logged>,
    before: Counters,
    after: Counters,
    rows_returned: u64,
    failed: u64,
    retries: u64,
    rtts_us: Vec<f64>,
    gen_s: f64,
    load_s: f64,
    checkpoint_s: f64,
    page_file_bytes: u64,
    fingerprint: u64,
    /// The trainer's own account of its time (`GbmModel::{stats, update_time}`).
    stats: joinboost::TrainStats,
    update_s: f64,
    codec_mb_per_s: (f64, f64),
}

/// One repetition through the wrappers, recording spans
/// `run → setup | train → iter[i] → backend.<class> → remote[shard].<method>`
/// and `run → teardown` for the temp-table cleanup.
fn traced_rep(cfg: &RunConfig, kind: StoreKind, params: &TrainParams) -> Result<Traced, String> {
    let rec = Arc::new(Recorder::new());
    let run_id = rec.fresh_id();
    let run_start = rec.now_ns();

    let setup_id = rec.fresh_id();
    let t_gen = Instant::now();
    let star = make_star(cfg, kind);
    let gen_s = t_gen.elapsed().as_secs_f64();
    let store = Store::open(kind, &star, &cfg.out_dir, Some(&rec))?;
    // Idle round trips, before any load: what one request costs when the
    // server has nothing else to do.
    let mut rtts_us = Vec::new();
    for conn in store.conns() {
        use joinboost::backend::ShardTransport as _;
        for _ in 0..cfg.sizes.rtt_pings {
            let t0 = Instant::now();
            std::hint::black_box(conn.has_table("jbbench_ping"));
            rtts_us.push(t0.elapsed().as_secs_f64() * 1e6);
        }
    }
    let probe = (kind != StoreKind::Remote).then(|| store.engine());
    let timed = TimedBackend::new(store.backend(), &rec, probe);
    timed.set_fallback(setup_id);
    let t_load = Instant::now();
    Store::load(&timed, &star)?;
    let load_s = t_load.elapsed().as_secs_f64();
    let set = dataset(&timed, &star)?;
    rec.record(setup_id, run_id, "harness", "setup", run_start);

    let before = counters(&store, &timed);
    let train_id = rec.fresh_id();
    timed.set_fallback(train_id);
    let train_start = rec.now_ns();
    rec.begin_training();
    let mut iter_start = train_start;
    let model = train_gbm_cb(&set, params, |i, _| {
        iter_start = rec.end_iteration(train_id, i, iter_start);
        true
    })
    .map_err(|e| e.to_string())?;
    rec.end_training();
    let train_end = rec.now_ns();
    rec.record(train_id, run_id, "harness", "train", train_start);
    let after = counters(&store, &timed);
    let log = timed.take_log();

    let teardown_id = rec.fresh_id();
    let teardown_start = rec.now_ns();
    timed.set_fallback(teardown_id);
    drop(set);
    let (mut checkpoint_s, mut page_file_bytes) = (0.0, 0);
    if let Some(scratch) = store.scratch() {
        let t0 = Instant::now();
        store.engine().checkpoint().map_err(|e| e.to_string())?;
        checkpoint_s = t0.elapsed().as_secs_f64();
        page_file_bytes = std::fs::metadata(scratch.path().join("data.jbp"))
            .map_err(|e| format!("data.jbp: {e}"))?
            .len();
    }
    rec.record(teardown_id, run_id, "harness", "teardown", teardown_start);
    rec.record(run_id, 0, "harness", "run", run_start);

    Ok(Traced {
        spans: rec.spans(),
        train: (train_start, train_end),
        log,
        before,
        after,
        rows_returned: timed.rows_returned(),
        failed: timed.failed(),
        retries: store.conns().iter().map(|c| c.retry_count()).sum(),
        rtts_us,
        gen_s,
        load_s,
        checkpoint_s,
        page_file_bytes,
        fingerprint: fingerprint(&model),
        update_s: model.update_time.as_secs_f64(),
        stats: model.stats,
        codec_mb_per_s: codec_probe(&star),
    })
}

/// `wire::encode_table_bytes` / `decode_table_bytes` over one fact
/// partition, in MB/s of encoded bytes (median of five).
fn codec_probe(star: &Star) -> (f64, f64) {
    use joinboost::backend::wire::{decode_table_bytes, encode_table_bytes};
    let partition = star.fact_table().head(star.fact_rows() / SHARDS);
    let (mut enc, mut dec) = (Vec::new(), Vec::new());
    for _ in 0..5 {
        let t0 = Instant::now();
        let bytes = std::hint::black_box(encode_table_bytes(std::hint::black_box(&partition)));
        enc.push(bytes.len() as f64 / 1e6 / t0.elapsed().as_secs_f64());
        let t0 = Instant::now();
        let table = std::hint::black_box(decode_table_bytes(&bytes));
        dec.push(bytes.len() as f64 / 1e6 / t0.elapsed().as_secs_f64());
        assert!(table.is_ok_and(|t| t == partition), "wire codec round trip");
    }
    (median(&enc), median(&dec))
}

/// Replace every literal by `?`; with `rename`, also the counters in the
/// trainer's temp-table names (`jb_<dataset>_<hint>_<n>`), which are
/// fresh for every message and would make every statement its own shape.
fn shape_of(sql: &str, rename: bool) -> String {
    let Ok(tokens) = tokenize(sql) else {
        return sql.to_string();
    };
    let mut out = String::with_capacity(sql.len());
    for t in tokens {
        match t {
            Token::Int(_) | Token::Float(_) | Token::Str(_) => out.push('?'),
            Token::Word(w) if rename && w.to_ascii_lowercase().starts_with("jb_") => {
                out.extend(w.chars().map(|c| if c.is_ascii_digit() { '#' } else { c }))
            }
            other => out.push_str(&other.to_string()),
        }
        out.push(' ');
    }
    out
}

/// Print and parse every recorded statement once, outside every timed
/// region: what `sqlparse` costs per statement, and how many distinct
/// statement shapes a shape cache could ever hold.
fn replay_sql(log: &[Logged], out: &mut Outcome) -> Result<(), String> {
    let mut asts = Vec::with_capacity(log.len());
    for entry in log {
        asts.push(match entry {
            Logged::Ast(stmt) => (**stmt).clone(),
            Logged::Text(sql) => parse_statement(sql).map_err(|e| format!("{e} in: {sql}"))?,
        });
    }
    let t0 = Instant::now();
    let texts: Vec<String> = asts.iter().map(|s| s.to_string()).collect();
    out.set("sqlparse.print_s", t0.elapsed().as_secs_f64());
    let t0 = Instant::now();
    for sql in &texts {
        std::hint::black_box(parse_statement(sql).map_err(|e| format!("{e} in: {sql}"))?);
    }
    out.set("sqlparse.parse_s", t0.elapsed().as_secs_f64());
    out.set(
        "sqlparse.sql_bytes",
        texts.iter().map(String::len).sum::<usize>() as f64,
    );
    for (name, rename) in [
        ("sqlparse.distinct_shapes", false),
        ("sqlparse.distinct_shapes_renamed", true),
    ] {
        let shapes: HashSet<String> = texts.iter().map(|s| shape_of(s, rename)).collect();
        out.set(name, shapes.len() as f64);
    }
    Ok(())
}

/// Per-layer metrics of one traced repetition. Everything under
/// `backend.*`, `remote.*` (but `load_s`), `sharded.*` and `trainer.*`
/// covers the `train` span only.
fn layer_metrics(t: &Traced, kind: StoreKind, out: &mut Outcome) -> Result<Tree, String> {
    let tree = Tree::build(t.spans.clone());
    let problems = tree.problems(0.001);
    if !problems.is_empty() {
        return Err(format!("malformed span tree: {}", problems.join("; ")));
    }
    let secs = |ns: u64| ns as f64 * 1e-9;
    let train_ns = t.train.1 - t.train.0;
    let in_train = |s: &Span| s.iteration >= 0;

    // trainer: time inside `train` not inside any backend call.
    let mut trainer_self = 0u64;
    let mut iters_ms = Vec::new();
    for (i, s) in tree.spans.iter().enumerate() {
        match (s.layer, s.name) {
            ("harness", "train") => trainer_self += tree.self_ns[i],
            ("trainer", "iter") => {
                trainer_self += tree.self_ns[i];
                iters_ms.push(s.secs() * 1e3);
            }
            _ => {}
        }
    }
    out.set("trainer.self_s", secs(trainer_self));
    out.set("trainer.iter_ms_p50", median(&iters_ms));
    // The program's own account, for comparison with the spans.
    out.set("trainer.split_queries", t.stats.split_queries as f64);
    out.set("trainer.message_queries", t.stats.message_queries as f64);
    out.set("trainer.msg_cache_hits", t.stats.cache_hits as f64);
    out.set("trainer.split_s", t.stats.split_time.as_secs_f64());
    out.set("trainer.message_s", t.stats.message_time.as_secs_f64());
    out.set("trainer.update_s", t.update_s);

    // backend: one span per SqlBackend call.
    let mut by_class: BTreeMap<&str, (u64, u64)> = BTreeMap::new();
    let (mut busy, mut calls, mut statements, mut text_calls) = (0u64, 0u64, 0u64, 0u64);
    let mut coordinator_self = 0u64;
    let mut shard_wait = 0u64;
    for (i, s) in tree.spans.iter().enumerate() {
        if s.layer != "backend" || !in_train(s) {
            continue;
        }
        let ns = s.end_ns - s.start_ns;
        busy += ns;
        calls += 1;
        if matches!(s.name, "execute" | "execute_ast" | "query") {
            statements += 1;
        }
        if matches!(s.name, "execute" | "query") {
            text_calls += 1;
        }
        let entry = by_class.entry(s.class).or_default();
        entry.0 += 1;
        entry.1 += ns;
        coordinator_self += tree.self_ns[i];
        shard_wait += ns - tree.self_ns[i];
    }
    out.set("backend.busy_s", secs(busy));
    out.set("backend.calls", calls as f64);
    out.set("backend.text_calls", text_calls as f64);
    out.set("backend.rows_returned", t.rows_returned as f64);
    out.set("trainer.statements", statements as f64);
    for class in Class::ALL {
        let (n, ns) = by_class.get(class.name()).copied().unwrap_or_default();
        let (count_name, secs_name) = class_metric_names(class);
        out.set(count_name, n as f64);
        out.set(secs_name, secs(ns));
    }

    // remote: one span per transport call; a fan-out's spans overlap.
    if kind == StoreKind::Remote {
        out.set("sharded.self_s", secs(coordinator_self));
        out.set("remote.wait_s", secs(shard_wait));
        let mut per_call: BTreeMap<u64, [u64; SHARDS]> = BTreeMap::new();
        let (mut sum, mut n) = (0u64, 0u64);
        let (mut execute, mut open, mut round, mut load) = (0u64, 0u64, 0u64, 0u64);
        for s in tree.spans.iter().filter(|s| s.layer == "remote") {
            let ns = s.end_ns - s.start_ns;
            if s.name == "create_table" {
                load += ns;
            }
            if !in_train(s) {
                continue;
            }
            sum += ns;
            n += 1;
            per_call.entry(s.parent).or_default()[s.shard as usize] += ns;
            match s.name {
                "execute" => execute += ns,
                "split_open" => open += ns,
                name if name.starts_with("split_") => round += ns,
                _ => {}
            }
        }
        // Of the shard time each backend call caused, the share spent on
        // its slowest shard: 1/shards when balanced, 1 when one shard
        // does everything. The slowest shard sets a fan-out's time.
        let slowest: u64 = per_call
            .values()
            .map(|s| *s.iter().max().unwrap_or(&0))
            .sum();
        out.set("remote.busy_sum_s", secs(sum));
        out.set("remote.slowest_shard_share", slowest as f64 / sum as f64);
        out.set("remote.calls", n as f64);
        out.set("remote.execute_s", secs(execute));
        out.set("remote.split_open_s", secs(open));
        out.set("remote.split_round_s", secs(round));
        out.set("remote.load_s", secs(load));
        let requests = t.after.requests - t.before.requests;
        let rtt_us = median(&t.rtts_us);
        out.set("remote.requests", requests as f64);
        out.set("remote.retries", t.retries as f64);
        out.set("remote.rtt_us_p50", rtt_us);
        out.set(
            "remote.rtt_floor_s",
            requests as f64 * rtt_us * 1e-6 / SHARDS as f64,
        );
        let (b, a) = (&t.before.backend, &t.after.backend);
        out.set(
            "sharded.fanout_selects",
            (a.fanout_selects - b.fanout_selects) as f64,
        );
        out.set(
            "sharded.coordinator_selects",
            (a.coordinator_selects - b.coordinator_selects) as f64,
        );
        out.set(
            "sharded.broadcast_statements",
            (a.broadcast_statements - b.broadcast_statements) as f64,
        );
        out.set(
            "sharded.pushdown_splits",
            (a.pushdown_splits - b.pushdown_splits) as f64,
        );
        let rounds = a.split_rounds - b.split_rounds;
        out.set("sharded.split_rounds", rounds as f64);
        out.set(
            "sharded.rows_shipped",
            (a.rows_shipped - b.rows_shipped) as f64,
        );
        out.set("wire.bytes_sent", (a.bytes_sent - b.bytes_sent) as f64);
        out.set(
            "wire.bytes_received",
            (a.bytes_received - b.bytes_received) as f64,
        );
        out.set(
            "wire.split_bytes_sent",
            (a.split_bytes_sent - b.split_bytes_sent) as f64,
        );
        let split_recv = a.split_bytes_received - b.split_bytes_received;
        out.set("wire.split_bytes_received", split_recv as f64);
        out.set(
            "wire.split_recv_per_round",
            split_recv as f64 / rounds.max(1) as f64,
        );
    }
    out.set("wire.encode_mb_per_s", t.codec_mb_per_s.0);
    out.set("wire.decode_mb_per_s", t.codec_mb_per_s.1);

    // engine, storage, wal: the in-process engine's own counters.
    let (b, a) = (&t.before.db, &t.after.db);
    out.set("engine.statements", (a.statements - b.statements) as f64);
    out.set("engine.queries", (a.queries - b.queries) as f64);
    out.set("engine.undo_bytes", (a.undo_bytes - b.undo_bytes) as f64);
    out.set(
        "engine.compressed_bytes_written",
        (a.compressed_bytes_written - b.compressed_bytes_written) as f64,
    );
    if kind == StoreKind::Paged {
        let (pb, pa) = (&t.before.pool, &t.after.pool);
        let (hits, misses) = (pa.hits - pb.hits, pa.misses - pb.misses);
        out.set("storage.pool_hits", hits as f64);
        out.set("storage.pool_misses", misses as f64);
        out.set(
            "storage.pool_evictions",
            (pa.evictions - pb.evictions) as f64,
        );
        out.set(
            "storage.hit_rate",
            hits as f64 / (hits + misses).max(1) as f64,
        );
        out.set(
            "storage.writeback_bytes",
            (pa.spilled_bytes - pb.spilled_bytes) as f64,
        );
        out.set("storage.page_file_bytes", t.page_file_bytes as f64);
        let (wb, wa) = (&t.before.wal, &t.after.wal);
        out.set("wal.bytes", (wa.bytes - wb.bytes) as f64);
        out.set("wal.records", (wa.records - wb.records) as f64);
        out.set("wal.commits", (wa.commits - wb.commits) as f64);
        let checkpoints = a.checkpoints - b.checkpoints;
        out.set("wal.checkpoints", checkpoints as f64);
        out.set(
            "wal.checkpoint_bytes",
            (a.checkpoint_bytes_written - b.checkpoint_bytes_written) as f64,
        );
        out.set("wal.checkpoint_s", t.checkpoint_s);
        if checkpoints == 0 {
            out.notes.push(
                "FLAG: training never crossed the WAL checkpoint budget; wal.checkpoint* \
                 measure only the manual checkpoint"
                    .into(),
            );
        }
    }
    out.set("datagen.gen_s", t.gen_s);
    out.set("datagen.load_s", t.load_s);

    // Share of `train` no leaf span covers: trainer self time, plus on
    // the sharded backend the coordinator's own work inside fan-outs.
    let mut leaves: Vec<(u64, u64)> = tree
        .spans
        .iter()
        .zip(&tree.has_children)
        .filter(|(s, &parent)| in_train(s) && !parent && s.layer != "trainer")
        .map(|(s, _)| (s.start_ns, s.end_ns))
        .collect();
    let residual = train_ns - union_ns(&mut leaves).min(train_ns);
    let residual_pct = 100.0 * residual as f64 / train_ns as f64;
    out.set("trace.residual_pct", residual_pct);
    if residual_pct > 5.0 {
        out.notes.push(format!(
            "FLAG: {residual_pct:.1} % of the train span is covered by no leaf span (trainer and \
             coordinator self time): more than the 5 % an outside-in trace should leave"
        ));
    }

    // The accounting identity the issue asks for.
    let accounted = trainer_self + busy;
    if (accounted as f64 - train_ns as f64).abs() > 0.01 * train_ns as f64 {
        return Err(format!(
            "trainer.self_s + backend.busy_s = {} ns but the train span is {train_ns} ns",
            accounted
        ));
    }
    Ok(tree)
}

fn class_metric_names(class: Class) -> (&'static str, &'static str) {
    match class {
        Class::Split => ("backend.split.count", "backend.split.s"),
        Class::Message => ("backend.message.count", "backend.message.s"),
        Class::Update => ("backend.update.count", "backend.update.s"),
        Class::Cleanup => ("backend.cleanup.count", "backend.cleanup.s"),
        Class::Meta => ("backend.meta.count", "backend.meta.s"),
        Class::Load => ("backend.load.count", "backend.load.s"),
        Class::Other => ("backend.other.count", "backend.other.s"),
    }
}

fn traced(cfg: &RunConfig, kind: StoreKind, params: &TrainParams) -> Result<Outcome, String> {
    let plain = plain_rep(cfg, kind, params, Duration::ZERO)?;
    let t = traced_rep(cfg, kind, params)?;
    let want = plain.fingerprint;
    if t.fingerprint != want {
        return Err(format!(
            "the traced repetition trained model {:016x}, the plain one {want:016x}",
            t.fingerprint
        ));
    }
    let rmse = reference(cfg, kind, params, want, &[])?;

    let mut out = Outcome {
        correct: t.failed == 0,
        failed: t.failed,
        fingerprint: want,
        ..Outcome::default()
    };
    let tree = layer_metrics(&t, kind, &mut out)?;
    out.attempted = tree.spans.iter().filter(|s| s.layer == "backend").count() as u64;
    replay_sql(&t.log, &mut out)?;

    let train_s = (t.train.1 - t.train.0) as f64 * 1e-9;
    let overhead = 100.0 * (train_s - plain.train_s) / plain.train_s;
    out.set("trace.overhead_pct", overhead);
    if overhead >= 5.0 {
        out.notes.push(format!(
            "FLAG: tracing overhead {overhead:.1} % (traced {train_s:.3} s vs plain {:.3} s)",
            plain.train_s
        ));
    }
    if kind == StoreKind::Paged {
        // Same statements, same rows, no storage under them.
        let mem_busy = traced_rep(cfg, StoreKind::Mem, params)
            .and_then(|m| {
                let mut scratch = Outcome::default();
                layer_metrics(&m, StoreKind::Mem, &mut scratch)?;
                Ok(scratch.metrics["backend.busy_s"])
            })
            .map_err(|e| format!("in-memory twin of the traced repetition: {e}"))?;
        out.set(
            "storage.overhead_s",
            out.metrics["backend.busy_s"] - mem_busy,
        );
    }

    let path = cfg
        .out_dir
        .join(format!("{}.trace.json", cfg.workload.name()));
    std::fs::write(&path, tree.to_json().to_string())
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    let share = |name: &str| 100.0 * out.metrics.get(name).copied().unwrap_or(0.0) / train_s;
    out.notes.push(format!(
        "traced train_s {train_s:.3} s ({} spans → {}); model {want:016x}; rmse {rmse:.4}",
        tree.spans.len(),
        path.display()
    ));
    out.notes.push(match kind {
        StoreKind::Mem | StoreKind::Paged => format!(
            "shares of traced train_s: backend.update.s {:.1} %, backend.split.s {:.1} %, \
             backend.message.s {:.1} %, trainer.self_s {:.1} %; storage.overhead_s {:.3} s",
            share("backend.update.s"),
            share("backend.split.s"),
            share("backend.message.s"),
            share("trainer.self_s"),
            out.metrics
                .get("storage.overhead_s")
                .copied()
                .unwrap_or(0.0),
        ),
        StoreKind::Remote => format!(
            "shares of traced train_s: remote.wait_s {:.1} %, sharded.self_s {:.1} %, \
             remote.rtt_floor_s {:.1} %, sqlparse.parse_s {:.1} % (one parse per statement; \
             each shard parses its copy), trainer.self_s {:.1} %",
            share("remote.wait_s"),
            share("sharded.self_s"),
            share("remote.rtt_floor_s"),
            share("sqlparse.parse_s"),
            share("trainer.self_s"),
        ),
    });
    Ok(out)
}
