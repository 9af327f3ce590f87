//! Request dispatch: one decoded [`Request`] against the hosted engine,
//! the session's split handles, the job registry or the scorer cache.

use std::sync::Arc;

use joinboost_engine::{Database, EngineError, Table};
use joinboost_sql::ast::Statement;
use joinboost_sql::parse_statement;

use super::jobs::{cancel_job, persist_jobs, submit_job, JobProgress};
use super::session::SessionInner;
use super::ServerContext;
use crate::backend::split::{
    keys_from_table, keys_to_table, summaries_to_table, LocalSplitState, MergeSpec, SplitHandle,
    SplitSpec,
};
use crate::backend::wire::{Request, Response};
use crate::backend::ShardTransport;
use crate::serve::ScorerSpec;

/// Which tables a statement writes (lower-cased names): what scorer-cache
/// invalidation and session temp-table tracking key off.
pub(super) enum SqlWrite {
    ReadOnly,
    Create(String),
    Update(String),
    Drop(String),
    Swap(String, String),
}

impl SqlWrite {
    fn of(stmt: &Statement) -> SqlWrite {
        let lower = |s: &String| s.to_ascii_lowercase();
        match stmt {
            Statement::Select(_) => SqlWrite::ReadOnly,
            Statement::CreateTableAs { name, .. } => SqlWrite::Create(lower(name)),
            Statement::Update { table, .. } => SqlWrite::Update(lower(table)),
            Statement::DropTable { name, .. } => SqlWrite::Drop(lower(name)),
            Statement::SwapColumn {
                table_a, table_b, ..
            } => SqlWrite::Swap(lower(table_a), lower(table_b)),
        }
    }
}

/// Execute the absorbed query and build the shard-side split state, or
/// the ready-made fallback/error response. `Err(Response::Table)` is the
/// dense fallback (NULL components); other `Err`s are typed errors.
fn open_split_state(
    db: &Database,
    sql: String,
    key_col: u32,
    c0_col: u32,
    c1_col: u32,
    specs: Vec<u8>,
) -> Result<LocalSplitState, Response> {
    let specs: Option<Vec<MergeSpec>> = specs.iter().map(|&t| MergeSpec::from_tag(t)).collect();
    let Some(specs) = specs else {
        return Err(Response::Err(EngineError::Other(
            "bad merge-spec tag".into(),
        )));
    };
    let table = match db.execute(&sql) {
        Ok(t) => t,
        Err(e) => return Err(Response::Err(e)),
    };
    if [key_col, c0_col, c1_col]
        .iter()
        .any(|&c| c as usize >= table.num_columns())
        || specs.len() != table.num_columns()
    {
        return Err(Response::Err(EngineError::Other(
            "split spec does not match the absorbed result".into(),
        )));
    }
    let spec = SplitSpec {
        key_col: key_col as usize,
        c0_col: c0_col as usize,
        c1_col: c1_col as usize,
        specs,
    };
    // Protocol inapplicable (NULL components): hand the absorbed result
    // back so the client's dense fallback needs no second execution.
    LocalSplitState::build(table, spec).map_err(Response::Table)
}

/// Handle one `Split*` request against the connection's session.
pub(super) fn handle_split_request(
    db: &Database,
    session: &mut SessionInner,
    req: Request,
) -> Response {
    match req {
        Request::SplitOpen {
            sql,
            key_col,
            c0_col,
            c1_col,
            specs,
            k,
        } => match open_split_state(db, sql, key_col, c0_col, c1_col, specs) {
            Err(resp) => resp,
            Ok(state) => {
                let rows = state.num_rows() as u64;
                let bounds = if k == 0 {
                    Vec::new()
                } else {
                    match state.boundaries(k as usize) {
                        Ok(keys) => keys,
                        Err(e) => return Response::Err(e),
                    }
                };
                let bounds = keys_to_table(&bounds);
                let id = session.next_split;
                session.next_split += 1;
                session.splits.insert(id, state);
                Response::SplitOpened { id, rows, bounds }
            }
        },
        Request::SplitClose { id } => {
            session.splits.remove(&id);
            Response::Unit
        }
        Request::SplitBoundaries { id, .. }
        | Request::SplitSummaries { id, .. }
        | Request::SplitRefine { id, .. }
        | Request::SplitFetch { id, .. } => {
            let Some(state) = session.splits.get(&id) else {
                return Response::Err(EngineError::Other(format!("unknown split handle {id}")));
            };
            let result = match req {
                Request::SplitBoundaries { k, .. } => state
                    .boundaries(k as usize)
                    .map(|keys| Response::Table(keys_to_table(&keys))),
                Request::SplitSummaries { grid, changed, .. } => {
                    let grid = keys_from_table(&grid);
                    // The codec already rejected out-of-range indices.
                    match changed {
                        None => state.summaries(&grid),
                        Some(changed) => {
                            let changed: Vec<usize> = changed.iter().map(|&j| j as usize).collect();
                            state.summaries_delta(&grid, &changed)
                        }
                    }
                    .map(|s| Response::Table(summaries_to_table(&s)))
                }
                Request::SplitRefine { grid, targets, .. } => {
                    let targets: Vec<(usize, usize)> = targets
                        .iter()
                        .map(|&(j, per)| (j as usize, per as usize))
                        .collect();
                    let grid = keys_from_table(&grid);
                    if targets.iter().any(|&(j, _)| j >= grid.len()) {
                        return Response::Err(EngineError::Other(
                            "refine interval out of grid range".into(),
                        ));
                    }
                    state
                        .refine(&grid, &targets)
                        .map(|keys| Response::Table(keys_to_table(&keys)))
                }
                Request::SplitFetch { grid, retain, .. } => {
                    let grid = keys_from_table(&grid);
                    if retain.len() != grid.len() {
                        return Response::Err(EngineError::Other(
                            "retain mask does not match the grid".into(),
                        ));
                    }
                    state.fetch(&grid, &retain).map(Response::Table)
                }
                _ => unreachable!("outer match covers the split requests"),
            };
            result.unwrap_or_else(Response::Err)
        }
        _ => unreachable!("caller routes only split requests here"),
    }
}

/// Answer `Describe`: every column's name and type, and the row count.
fn describe(db: &Database, name: &str) -> Result<Response, EngineError> {
    let columns = (db.column_names(name)?.into_iter())
        .map(|c| db.column_dtype(name, &c).map(|d| (c, d)))
        .collect::<Result<_, _>>()?;
    let rows = db.row_count(name)? as u64;
    Ok(Response::Schema { columns, rows })
}

/// Serve one `PredictBatch` request: resolve the scorer spec (from a
/// finished job or inline), evaluate against the cached message-table
/// dictionary.
fn predict_batch_response(
    ctx: &ServerContext,
    job: Option<u64>,
    spec: Option<Box<ScorerSpec>>,
    keys: &[i64],
    partial: bool,
) -> Response {
    let fail = |m: String| Response::Err(EngineError::Other(m));
    let spec: ScorerSpec = match (job, spec) {
        (Some(id), None) => {
            let handle = ctx.jobs.lock().get(&id).cloned();
            let Some(handle) = handle else {
                return fail(format!("unknown job id {id}"));
            };
            let p = handle.progress.lock();
            match &*p {
                JobProgress::Done { spec: Some(s), .. } => s.clone(),
                JobProgress::Done { spec: None, .. } => {
                    return fail(format!(
                        "job {id} trained without a key_column; no message tables to score"
                    ))
                }
                JobProgress::Queued => return fail(format!("job {id} is still queued")),
                JobProgress::Running { .. } => return fail(format!("job {id} is still running")),
                JobProgress::Failed(m) => return fail(format!("job {id} failed: {m}")),
                JobProgress::Cancelled => return fail(format!("job {id} was cancelled")),
            }
        }
        (None, Some(s)) => *s,
        _ => return fail("PredictBatch requires exactly one of job id or scorer spec".into()),
    };
    let idx = match ctx.scorer_index(&spec) {
        Ok(i) => i,
        Err(e) => return Response::Err(e),
    };
    // Partial mode: shard-resident scoring starts from 0 so the
    // coordinator adds `init_score` exactly once per key.
    let start = if partial { 0.0 } else { spec.init_score };
    match idx.eval_batch(keys, start) {
        Ok(rs) => Response::Scores {
            found: rs.iter().map(|r| r.0).collect(),
            scores: rs.iter().map(|r| r.1).collect(),
        },
        Err(e) => Response::Err(e),
    }
}

/// Execute one decoded request against the hosted engine. `token` is the
/// session's resume token (the owner of any job submitted here).
pub(super) fn handle_request(
    ctx: &Arc<ServerContext>,
    token: u64,
    session: &mut SessionInner,
    req: Request,
) -> Response {
    let db = &ctx.db;
    let table = |r: Result<Table, EngineError>| match r {
        Ok(t) => Response::Table(t),
        Err(e) => Response::Err(e),
    };
    match req {
        Request::Hello { .. } => {
            // The connection loop answers the handshake before a session
            // exists; a second Hello is a protocol violation.
            Response::Err(EngineError::Other("Hello after handshake".into()))
        }
        Request::Execute { sql } => {
            let stmt = match parse_statement(&sql) {
                Ok(stmt) => stmt,
                Err(e) => return Response::Err(e.into()),
            };
            let r = db.execute_statement(&stmt);
            if r.is_ok() {
                // A mutating statement may rewrite a message table: evict
                // the cached dictionaries whose relations it touches.
                let write = SqlWrite::of(&stmt);
                ctx.invalidate_scorers(&write);
                session.note_write(&write);
            }
            table(r)
        }
        Request::CreateTable { name, table: t } => match db.create_table(&name, t) {
            Ok(()) => {
                let write = SqlWrite::Create(name.to_ascii_lowercase());
                ctx.invalidate_scorers(&write);
                session.note_write(&write);
                Response::Unit
            }
            Err(e) => Response::Err(e),
        },
        Request::Describe { name } => describe(db, &name).unwrap_or_else(Response::Err),
        // The bounds-checked gather is the in-process transport's: one
        // copy of the semantics for local and remote shards.
        Request::Scan { name, rows: None } => table(db.snapshot(&name)),
        Request::Scan {
            name,
            rows: Some(rows),
        } => table(ShardTransport::gather_rows(db, &name, &rows)),
        Request::TableNames => Response::Names(db.table_names()),
        Request::SubmitJob { spec } => submit_job(ctx, token, *spec),
        Request::PollJob { id } => match ctx.jobs.lock().get(&id) {
            Some(job) => job.progress.lock().response(),
            None => Response::Err(EngineError::Other(format!("unknown job id {id}"))),
        },
        Request::CancelJob { id } => {
            let job = ctx.jobs.lock().get(&id).cloned();
            match job {
                Some(job) => {
                    // Idempotent: cancelling a terminal job just reports
                    // its (unchanged) final state.
                    cancel_job(&job);
                    let resp = job.progress.lock().response();
                    persist_jobs(ctx);
                    resp
                }
                None => Response::Err(EngineError::Other(format!("unknown job id {id}"))),
            }
        }
        Request::PredictBatch {
            job,
            spec,
            keys,
            partial,
        } => predict_batch_response(ctx, job, spec, &keys, partial),
        // Every remaining variant is a split request (`Request::is_split`),
        // which the session routes to `handle_split_request` first;
        // reaching here is a protocol bug.
        _ => Response::Err(EngineError::Other("split request outside a session".into())),
    }
}
