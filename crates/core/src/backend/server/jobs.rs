//! The job registry: training jobs submitted over the wire, their worker
//! threads, and — on durable engines — the WAL-logged mirror that lets a
//! restarted server resume them.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use joinboost_engine::{Column, Database, Datum, EngineError, Table};
use joinboost_graph::JoinGraph;

use super::ServerContext;
use crate::backend::wire::{
    forest_bytes, forest_from_bytes, job_spec_bytes, job_spec_from_bytes, scorer_spec_bytes,
    scorer_spec_from_bytes, JobSpec, Response,
};
use crate::boosting::train_gbm_resume;
use crate::dataset::Dataset;
use crate::params::TrainParams;
use crate::serve::{compile_messages, ScorerSpec};
use crate::tree::Tree;

/// A training job's life: `Queued → Running → Done | Failed | Cancelled`.
/// `Cancelled` can also be entered straight from `Queued`.
pub(super) enum JobProgress {
    Queued,
    Running {
        iterations: u64,
    },
    Done {
        iterations: u64,
        /// Message tables compiled from the trained model when the job
        /// named a `key_column`; what `PredictBatch { job }` scores
        /// against.
        spec: Option<ScorerSpec>,
    },
    Failed(String),
    Cancelled,
}

impl JobProgress {
    pub(super) fn is_active(&self) -> bool {
        matches!(self, JobProgress::Queued | JobProgress::Running { .. })
    }

    /// The wire view of this state (tags documented on
    /// [`Response::JobState`]).
    pub(super) fn response(&self) -> Response {
        let (state, iterations, message) = match self {
            JobProgress::Queued => (0, 0, String::new()),
            JobProgress::Running { iterations } => (1, *iterations, String::new()),
            JobProgress::Done { iterations, .. } => (2, *iterations, String::new()),
            JobProgress::Failed(m) => (3, 0, m.clone()),
            JobProgress::Cancelled => (4, 0, String::new()),
        };
        Response::JobState {
            state,
            iterations,
            message,
        }
    }
}

/// One registered job: owned by the session that submitted it, driven
/// by a background worker thread, cancellable from any connection.
pub(super) struct JobHandle {
    pub(super) id: u64,
    /// Session token of the submitter. Jobs still active when their
    /// session *expires* (disconnected past the grace period) are
    /// cancelled — a briefly-dropped client that reconnects in time
    /// keeps its job. Jobs recovered from the durable registry at boot
    /// carry owner `0`, which no live session token can equal (tokens
    /// are odd), so the expiry sweeper never cancels them.
    pub(super) owner: u64,
    /// Cooperative cancel flag, checked by the training callback after
    /// every boosting iteration.
    cancel: AtomicBool,
    pub(super) progress: Mutex<JobProgress>,
    /// The submitted spec, kept so the registry can persist it and a
    /// restarted server can resume the job.
    spec: JobSpec,
    /// Latest persisted training checkpoint: the partial forest after
    /// the most recent completed iteration. Cleared when the job goes
    /// `Done` (the compiled scorer is the durable artifact from then on).
    forest: Mutex<Vec<Tree>>,
}

pub(super) fn cancel_job(job: &JobHandle) {
    job.cancel.store(true, Ordering::Relaxed);
    let mut p = job.progress.lock();
    if matches!(*p, JobProgress::Queued) {
        // Not picked up by its worker yet: terminal immediately.
        *p = JobProgress::Cancelled;
    }
}

/// The WAL-logged system table mirroring the job registry on durable
/// engines. Rewritten as one `create_or_replace_table` call — a single
/// WAL statement, so no crash window can lose the whole table — on every
/// job state transition and every training checkpoint. Column layout:
/// `id`/`state`/`iters` (Int), `message` (Str), and the `spec`/`scorer`/
/// `forest` blobs hex-encoded into Str columns (wire codecs, floats by
/// bit pattern).
const JOB_REGISTRY_TABLE: &str = "jb_sys_jobs";

fn to_hex(bytes: &[u8]) -> String {
    let mut s = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        s.push(char::from_digit((b >> 4) as u32, 16).expect("nibble < 16"));
        s.push(char::from_digit((b & 0xf) as u32, 16).expect("nibble < 16"));
    }
    s
}

fn from_hex(s: &str) -> Option<Vec<u8>> {
    if s.len() % 2 != 0 {
        return None;
    }
    let mut out = Vec::with_capacity(s.len() / 2);
    for pair in s.as_bytes().chunks_exact(2) {
        let hi = (pair[0] as char).to_digit(16)?;
        let lo = (pair[1] as char).to_digit(16)?;
        out.push(((hi << 4) | lo) as u8);
    }
    Some(out)
}

/// `jb_job<id>_…` message-table name → the owning job id.
pub(super) fn job_table_id(name: &str) -> Option<u64> {
    let rest = name.strip_prefix("jb_job")?;
    let (id, _) = rest.split_once('_')?;
    id.parse().ok()
}

/// Mirror the live job registry into [`JOB_REGISTRY_TABLE`]. A no-op on
/// non-durable engines. Write failures are swallowed: the previous
/// registry image stays in place, and recovery simply resumes from that
/// older checkpoint.
pub(super) fn persist_jobs(ctx: &ServerContext) {
    if !ctx.durable {
        return;
    }
    let handles: Vec<Arc<JobHandle>> = {
        let jobs = ctx.jobs.lock();
        let mut v: Vec<_> = jobs.values().cloned().collect();
        v.sort_by_key(|j| j.id);
        v
    };
    let n = handles.len();
    let (mut ids, mut states, mut iters) = (
        Vec::with_capacity(n),
        Vec::with_capacity(n),
        Vec::with_capacity(n),
    );
    let (mut messages, mut specs, mut scorers, mut forests) = (
        Vec::with_capacity(n),
        Vec::with_capacity(n),
        Vec::with_capacity(n),
        Vec::with_capacity(n),
    );
    for job in handles {
        let (tag, it, msg, scorer) = {
            let p = job.progress.lock();
            match &*p {
                JobProgress::Queued => (0i64, 0i64, String::new(), String::new()),
                JobProgress::Running { iterations } => {
                    (1, *iterations as i64, String::new(), String::new())
                }
                JobProgress::Done { iterations, spec } => (
                    2,
                    *iterations as i64,
                    String::new(),
                    spec.as_ref()
                        .map_or_else(String::new, |s| to_hex(&scorer_spec_bytes(s))),
                ),
                JobProgress::Failed(m) => (3, 0, m.clone(), String::new()),
                JobProgress::Cancelled => (4, 0, String::new(), String::new()),
            }
        };
        ids.push(job.id as i64);
        states.push(tag);
        iters.push(it);
        messages.push(msg);
        specs.push(to_hex(&job_spec_bytes(&job.spec)));
        scorers.push(scorer);
        forests.push(to_hex(&forest_bytes(&job.forest.lock())));
    }
    let table = Table::from_columns(vec![
        ("id", Column::int(ids)),
        ("state", Column::int(states)),
        ("iters", Column::int(iters)),
        ("message", Column::str(messages)),
        ("spec", Column::str(specs)),
        ("scorer", Column::str(scorers)),
        ("forest", Column::str(forests)),
    ]);
    let _ = ctx.db.create_or_replace_table(JOB_REGISTRY_TABLE, table);
}

/// One registry row brought back to life at boot. `resume` marks jobs
/// that were `Queued`/`Running` when the previous process died: the
/// server re-queues them and a worker picks their training back up from
/// the persisted forest checkpoint.
pub(super) struct RecoveredJob {
    pub(super) handle: Arc<JobHandle>,
    pub(super) resume: bool,
}

/// Decode [`JOB_REGISTRY_TABLE`] into live job handles. Terminal jobs
/// come back with their final state (a `Done` job's compiled scorer
/// included, so `PredictBatch { job }` keeps answering after a restart);
/// active jobs come back `Queued` with their partial forest. Rows that
/// fail to decode surface as `Failed` jobs rather than vanishing.
pub(super) fn recover_jobs(db: &Database) -> Vec<RecoveredJob> {
    if !db.has_table(JOB_REGISTRY_TABLE) {
        return Vec::new();
    }
    let Ok(t) = db.snapshot(JOB_REGISTRY_TABLE) else {
        return Vec::new();
    };
    let int_col = |name: &str| {
        t.column(None, name)
            .ok()
            .and_then(|c| c.as_i64_slice())
            .map(<[i64]>::to_vec)
    };
    let str_at = |name: &str, row: usize| {
        t.column(None, name)
            .ok()
            .map_or_else(String::new, |c| match c.get(row) {
                Datum::Str(s) => s,
                _ => String::new(),
            })
    };
    let (Some(ids), Some(tags), Some(iter_counts)) =
        (int_col("id"), int_col("state"), int_col("iters"))
    else {
        return Vec::new();
    };
    let mut out = Vec::new();
    for row in 0..t.num_rows() {
        let iterations = iter_counts[row].max(0) as u64;
        let spec = from_hex(&str_at("spec", row)).and_then(|b| job_spec_from_bytes(&b).ok());
        let scorer = from_hex(&str_at("scorer", row)).and_then(|b| scorer_spec_from_bytes(&b).ok());
        let forest = from_hex(&str_at("forest", row))
            .and_then(|b| forest_from_bytes(&b).ok())
            .unwrap_or_default();
        let (progress, resume, spec) = match spec {
            None => (
                JobProgress::Failed("registry entry could not be decoded after restart".into()),
                false,
                JobSpec::default(),
            ),
            Some(spec) => {
                let p = match tags[row] {
                    0 | 1 => JobProgress::Queued,
                    2 => JobProgress::Done {
                        iterations,
                        spec: scorer,
                    },
                    3 => JobProgress::Failed(str_at("message", row)),
                    _ => JobProgress::Cancelled,
                };
                (p, matches!(tags[row], 0 | 1), spec)
            }
        };
        out.push(RecoveredJob {
            resume,
            handle: Arc::new(JobHandle {
                id: ids[row].max(0) as u64,
                owner: 0,
                cancel: AtomicBool::new(false),
                progress: Mutex::new(progress),
                spec,
                forest: Mutex::new(forest),
            }),
        });
    }
    out
}

/// Admit (or reject) a job submission, register it, and hand it to a
/// worker thread. `owner` is the submitting session's resume token.
pub(super) fn submit_job(ctx: &Arc<ServerContext>, owner: u64, spec: JobSpec) -> Response {
    {
        let jobs = ctx.jobs.lock();
        let active = jobs
            .values()
            .filter(|j| j.progress.lock().is_active())
            .count();
        if active >= ctx.max_jobs {
            // Typed backpressure on a healthy connection — the client
            // retries later instead of timing out against a hang.
            return Response::Busy(format!(
                "{active} training jobs already queued or running (limit {})",
                ctx.max_jobs
            ));
        }
    }
    let id = ctx.next_job.fetch_add(1, Ordering::Relaxed);
    let handle = Arc::new(JobHandle {
        id,
        owner,
        cancel: AtomicBool::new(false),
        progress: Mutex::new(JobProgress::Queued),
        spec,
        forest: Mutex::new(Vec::new()),
    });
    ctx.jobs.lock().insert(id, Arc::clone(&handle));
    // The submission is durable before any work happens: a crash from
    // here on resumes the job instead of forgetting it.
    persist_jobs(ctx);
    let st = Arc::clone(ctx);
    std::thread::spawn(move || run_job(&st, &handle));
    Response::JobSubmitted(id)
}

/// Worker-thread body: drive one job from `Queued` to a terminal state.
/// Also the resume path: a recovered job enters with a non-empty forest
/// checkpoint and training replays it before growing new trees.
pub(super) fn run_job(ctx: &Arc<ServerContext>, handle: &Arc<JobHandle>) {
    if handle.cancel.load(Ordering::Relaxed) {
        *handle.progress.lock() = JobProgress::Cancelled;
        persist_jobs(ctx);
        return;
    }
    *handle.progress.lock() = JobProgress::Running {
        iterations: handle.forest.lock().len() as u64,
    };
    persist_jobs(ctx);
    let outcome = train_job(ctx, handle);
    {
        let mut p = handle.progress.lock();
        *p = match outcome {
            Err(msg) => JobProgress::Failed(msg),
            Ok(compiled) => {
                let iterations = match *p {
                    JobProgress::Running { iterations } => iterations,
                    _ => 0,
                };
                if handle.cancel.load(Ordering::Relaxed) {
                    // The training loop broke early; the dataset guard has
                    // already dropped every `jb_` temp table it created.
                    JobProgress::Cancelled
                } else {
                    JobProgress::Done {
                        iterations,
                        spec: compiled,
                    }
                }
            }
        };
    }
    if matches!(&*handle.progress.lock(), JobProgress::Done { .. }) {
        // The compiled scorer is the durable artifact now; dropping the
        // forest checkpoint keeps the registry row small.
        handle.forest.lock().clear();
    }
    persist_jobs(ctx);
}

/// Train the job's model and, when a `key_column` was named, compile it
/// into `jb_job{id}_`-prefixed message tables that outlive training.
///
/// Training always goes through [`train_gbm_resume`] with the handle's
/// forest checkpoint as the prior: empty for a fresh submission (where
/// it is exactly `train_gbm_cb`), non-empty after a crash — the stored
/// trees are replayed statement-for-statement, so the finished model is
/// `to_bits()`-identical to an uncrashed run (see `DESIGN.md`
/// § "Durability & recovery").
fn train_job(
    ctx: &Arc<ServerContext>,
    handle: &Arc<JobHandle>,
) -> Result<Option<ScorerSpec>, String> {
    let err = |e: EngineError| e.to_string();
    let spec = &handle.spec;
    let mut graph = JoinGraph::new();
    for (name, features) in &spec.relations {
        let refs: Vec<&str> = features.iter().map(String::as_str).collect();
        graph.add_relation(name, &refs).map_err(|e| e.to_string())?;
    }
    for (a, b, keys) in &spec.edges {
        let refs: Vec<&str> = keys.iter().map(String::as_str).collect();
        graph.add_edge(a, b, &refs).map_err(|e| e.to_string())?;
    }
    let set = Dataset::new(&ctx.db, graph, &spec.target_relation, &spec.target_column)
        .map_err(|e| e.to_string())?;
    let params = TrainParams {
        num_iterations: spec.num_iterations as usize,
        num_leaves: spec.num_leaves as usize,
        learning_rate: spec.learning_rate,
        leaf_quantization: spec.leaf_quantization,
        seed: spec.seed,
        ..TrainParams::default()
    };
    let mut prior = handle.forest.lock().clone();
    // A crash can land between the final iteration's checkpoint and the
    // Done transition; the replay prior is never longer than the target.
    prior.truncate(params.num_iterations);
    let checkpoint_every = ctx.job_checkpoint_iters;
    let model = train_gbm_resume(&set, &params, &prior, |iter, m| {
        let iterations = iter as u64 + 1;
        *handle.progress.lock() = JobProgress::Running { iterations };
        *handle.forest.lock() = m.trees.clone();
        if iterations % checkpoint_every == 0 {
            persist_jobs(ctx);
        }
        // Fault injection: die mid-training with no warning — after the
        // checkpoint above, so the restart test resumes from iteration n.
        let trained = ctx.train_iters.fetch_add(1, Ordering::Relaxed) + 1;
        if ctx.opts.crash_after_iters.is_some_and(|n| trained >= n) {
            std::process::abort();
        }
        !handle.cancel.load(Ordering::Relaxed)
    })
    .map_err(|e| e.to_string())?;
    if handle.cancel.load(Ordering::Relaxed) {
        return Ok(None);
    }
    match &spec.key_column {
        None => Ok(None),
        Some(key) => {
            // Not dataset temps: the `jb_job{id}_` tables must survive
            // the dataset guard so `PredictBatch { job }` can score.
            let mut n = 0u32;
            let prefix = format!("jb_job{}", handle.id);
            let compiled = compile_messages(&ctx.db, &set.graph, &model, key, &mut |hint| {
                let name = format!("{prefix}_{hint}_{n}");
                n += 1;
                name
            })
            .map_err(err)?;
            Ok(Some(compiled))
        }
    }
}
