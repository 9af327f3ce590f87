//! Inter-query parallelism (Section 5.5.3).
//!
//! DBMSes give diminishing returns from intra-query parallelism on the
//! small aggregation queries JoinBoost emits, so JoinBoost also
//! parallelizes *across* queries: each query tracks its dependencies, and
//! when they complete it enters a FIFO run queue drained by worker
//! threads. Used for split-candidate queries (independent per feature),
//! messages on independent branches, and trees of a random forest.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};

use joinboost_engine::Table;

use crate::backend::SqlBackend;
use crate::error::{Result, TrainError};

/// One schedulable query.
#[derive(Debug, Clone)]
pub struct Task {
    /// The SQL statement to execute.
    pub sql: String,
    /// Indices of tasks that must finish first.
    pub deps: Vec<usize>,
}

impl Task {
    /// A task with no dependencies.
    pub fn new(sql: impl Into<String>) -> Task {
        Task {
            sql: sql.into(),
            deps: Vec::new(),
        }
    }

    /// A task that runs only after `deps` complete.
    pub fn after(sql: impl Into<String>, deps: Vec<usize>) -> Task {
        Task {
            sql: sql.into(),
            deps,
        }
    }
}

struct DagState {
    /// Remaining dependency count per task; `usize::MAX` marks running/done.
    remaining: Vec<usize>,
    ready: VecDeque<usize>,
    done: Vec<bool>,
    results: Vec<Option<Result<Table>>>,
    pending: usize,
}

/// Execute a dependency DAG of SQL statements over `threads` workers.
/// Results are returned in task order. A failed task still releases its
/// dependents (they will typically fail on a missing table, surfacing the
/// root cause in their own error).
pub fn run_dag(db: &dyn SqlBackend, tasks: &[Task], threads: usize) -> Vec<Result<Table>> {
    let n = tasks.len();
    if n == 0 {
        return Vec::new();
    }
    // Validate deps to avoid deadlocks on malformed input.
    for (i, t) in tasks.iter().enumerate() {
        for &d in &t.deps {
            assert!(d < n && d != i, "task {i} has invalid dependency {d}");
        }
    }
    let threads = threads.max(1).min(n);
    if threads == 1 {
        // Sequential fast path (still respects dependency order).
        return run_sequential(db, tasks);
    }
    let mut remaining: Vec<usize> = tasks.iter().map(|t| t.deps.len()).collect();
    let mut ready = VecDeque::new();
    for (i, &r) in remaining.iter().enumerate() {
        if r == 0 {
            ready.push_back(i);
        }
    }
    // Dependents adjacency.
    let mut dependents: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (i, t) in tasks.iter().enumerate() {
        for &d in &t.deps {
            dependents[d].push(i);
        }
    }
    for r in &mut remaining {
        if *r == 0 {
            *r = usize::MAX;
        }
    }
    let state = Mutex::new(DagState {
        remaining,
        ready,
        done: vec![false; n],
        results: (0..n).map(|_| None).collect(),
        pending: n,
    });
    // Workers park here when the ready queue is momentarily empty (their
    // dependencies are still executing elsewhere) instead of spinning;
    // every completion that releases dependents — and the final one —
    // wakes them.
    let wake = Condvar::new();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let next = {
                    let mut st = state.lock().expect("scheduler lock");
                    loop {
                        if st.pending == 0 {
                            return;
                        }
                        match st.ready.pop_front() {
                            Some(i) => break i,
                            None => st = wake.wait(st).expect("scheduler lock"),
                        }
                    }
                };
                let result = db
                    .execute(&tasks[next].sql)
                    .map_err(|e| TrainError::Engine(format!("{e} in: {}", tasks[next].sql)));
                let mut st = state.lock().expect("scheduler lock");
                st.results[next] = Some(result);
                st.done[next] = true;
                st.pending -= 1;
                let mut released = 0usize;
                for &dep in &dependents[next] {
                    if st.remaining[dep] != usize::MAX {
                        st.remaining[dep] -= 1;
                        if st.remaining[dep] == 0 {
                            st.remaining[dep] = usize::MAX;
                            st.ready.push_back(dep);
                            released += 1;
                        }
                    }
                }
                let finished = st.pending == 0;
                drop(st);
                if finished {
                    wake.notify_all();
                } else {
                    for _ in 0..released {
                        wake.notify_one();
                    }
                }
            });
        }
    });
    state
        .into_inner()
        .expect("scheduler lock")
        .results
        .into_iter()
        .map(|r| r.expect("all tasks executed"))
        .collect()
}

fn run_sequential(db: &dyn SqlBackend, tasks: &[Task]) -> Vec<Result<Table>> {
    // Topological order via repeated sweeps (task lists are tiny).
    let n = tasks.len();
    let mut done = vec![false; n];
    let mut results: Vec<Option<Result<Table>>> = (0..n).map(|_| None).collect();
    let mut progressed = true;
    while progressed {
        progressed = false;
        for i in 0..n {
            if done[i] || !tasks[i].deps.iter().all(|&d| done[d]) {
                continue;
            }
            results[i] = Some(
                db.execute(&tasks[i].sql)
                    .map_err(|e| TrainError::Engine(format!("{e} in: {}", tasks[i].sql))),
            );
            done[i] = true;
            progressed = true;
        }
    }
    results
        .into_iter()
        .map(|r| r.expect("acyclic task graph"))
        .collect()
}

/// Run independent queries in parallel, preserving input order.
pub fn run_parallel(db: &dyn SqlBackend, sqls: &[String], threads: usize) -> Vec<Result<Table>> {
    let tasks: Vec<Task> = sqls.iter().map(Task::new).collect();
    run_dag(db, &tasks, threads)
}

#[cfg(test)]
mod tests {
    use super::*;
    use joinboost_engine::{Column, Database, Table as ETable};

    fn db() -> Database {
        let db = Database::in_memory();
        db.create_table(
            "nums",
            ETable::from_columns(vec![("x", Column::int((1..=100).collect()))]),
        )
        .unwrap();
        db
    }

    #[test]
    fn parallel_queries_return_in_order() {
        let db = db();
        let sqls: Vec<String> = (1..=8)
            .map(|i| format!("SELECT SUM(x * {i}) AS s FROM nums"))
            .collect();
        let results = run_parallel(&db, &sqls, 4);
        for (i, r) in results.iter().enumerate() {
            let t = r.as_ref().unwrap();
            assert_eq!(t.scalar_f64("s").unwrap(), 5050.0 * (i as f64 + 1.0));
        }
    }

    #[test]
    fn dag_respects_dependencies() {
        let db = db();
        let tasks = vec![
            Task::new("CREATE TABLE stage1 AS SELECT SUM(x) AS s FROM nums"),
            Task::after(
                "CREATE TABLE stage2 AS SELECT s * 2 AS s2 FROM stage1",
                vec![0],
            ),
            Task::after("SELECT s2 FROM stage2", vec![1]),
        ];
        let results = run_dag(&db, &tasks, 4);
        assert!(results[0].is_ok());
        assert!(results[1].is_ok());
        let t = results[2].as_ref().unwrap();
        assert_eq!(t.scalar_f64("s2").unwrap(), 10100.0);
    }

    #[test]
    fn failed_task_reports_error_and_releases_dependents() {
        let db = db();
        let tasks = vec![
            Task::new("SELECT nope FROM missing_table"),
            Task::after("SELECT SUM(x) AS s FROM nums", vec![0]),
        ];
        let results = run_dag(&db, &tasks, 2);
        assert!(results[0].is_err());
        assert!(
            results[1].is_ok(),
            "dependent still runs (its input exists)"
        );
    }

    #[test]
    fn sequential_path_matches_parallel() {
        let db = db();
        let sqls = vec!["SELECT COUNT(*) AS c FROM nums".to_string()];
        let seq = run_parallel(&db, &sqls, 1);
        assert_eq!(seq[0].as_ref().unwrap().scalar_f64("c").unwrap(), 100.0);
    }

    #[test]
    #[should_panic(expected = "invalid dependency")]
    fn invalid_dependency_panics() {
        let db = db();
        let tasks = vec![Task::after("SELECT 1", vec![5])];
        let _ = run_dag(&db, &tasks, 2);
    }
}
