//! The span recorder of the traced repetition, and the interval
//! arithmetic that turns a span tree into self times.
//!
//! Spans are recorded from outside the program under test, by the
//! wrappers in [`crate::timed`] around its public seams. They live in
//! memory until the workload ends and are then written out as JSON.
//! The tree is `run → setup | train → iter[i] → backend.<class> →
//! remote[shard].<method>`.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::json::Json;

/// Identifier of a span; 0 means "no span" (the parent of a root).
pub type SpanId = u64;

/// One timed interval at a layer boundary.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: SpanId,
    /// The span that caused this one; 0 for the root.
    pub parent: SpanId,
    /// Module the time belongs to (`harness`, `trainer`, `backend`, `remote`).
    pub layer: &'static str,
    /// Operation name (`execute_ast`, `split_open`, `iter`, ...).
    pub name: &'static str,
    /// Statement class for backend spans (see `timed::Class`), else `""`.
    pub class: &'static str,
    /// Shard index for transport spans, else -1.
    pub shard: i32,
    /// Boosting iteration the span ran in, -1 outside training.
    pub iteration: i32,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// Collects spans from any thread. The current iteration and the open
/// backend call are kept here so a transport span recorded on a fan-out
/// thread can name the backend call that caused it: the trainer issues
/// one backend call at a time (`TrainParams::threads = 1`), so "the open
/// backend call" is unambiguous.
pub struct Recorder {
    epoch: Instant,
    next_id: AtomicU64,
    open_backend: AtomicU64,
    open_iter: AtomicU64,
    iteration: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

/// `iteration` value meaning "not inside training".
const NO_ITER: u64 = u64::MAX;

impl Default for Recorder {
    fn default() -> Self {
        Recorder::new()
    }
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            open_backend: AtomicU64::new(0),
            open_iter: AtomicU64::new(0),
            iteration: AtomicU64::new(NO_ITER),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Nanoseconds since the recorder was made.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Reserve an id for a span whose end is not known yet.
    pub fn fresh_id(&self) -> SpanId {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    fn current_iteration(&self) -> i32 {
        match self.iteration.load(Ordering::Relaxed) {
            NO_ITER => -1,
            i => i as i32,
        }
    }

    /// Store a finished span.
    pub fn push(&self, span: Span) {
        self.spans
            .lock()
            .expect("no recorder user panics while holding the lock")
            .push(span);
    }

    /// Record a finished harness-level span (`run`, `setup`, `train`, ...).
    pub fn record(
        &self,
        id: SpanId,
        parent: SpanId,
        layer: &'static str,
        name: &'static str,
        start_ns: u64,
    ) {
        self.push(Span {
            id,
            parent,
            layer,
            name,
            class: "",
            shard: -1,
            iteration: -1,
            start_ns,
            end_ns: self.now_ns(),
        });
    }

    /// Training starts: iteration 0 opens under `train`. It includes the
    /// trainer's prologue (initial score, lifting the fact table), which
    /// cannot be told apart from outside: the callback fires only when an
    /// iteration ends.
    pub fn begin_training(&self) {
        self.iteration.store(0, Ordering::Relaxed);
        self.open_iter.store(self.fresh_id(), Ordering::Relaxed);
    }

    /// The `train_gbm_cb` callback fired for `iteration`: close its span
    /// (which began at `start_ns`) under `train` and open the next.
    /// Returns the time the next iteration starts at.
    pub fn end_iteration(&self, train: SpanId, iteration: usize, start_ns: u64) -> u64 {
        let end_ns = self.now_ns();
        self.push(Span {
            id: self.open_iter.load(Ordering::Relaxed),
            parent: train,
            layer: "trainer",
            name: "iter",
            class: "",
            shard: -1,
            iteration: iteration as i32,
            start_ns,
            end_ns,
        });
        self.iteration
            .store(iteration as u64 + 1, Ordering::Relaxed);
        self.open_iter.store(self.fresh_id(), Ordering::Relaxed);
        end_ns
    }

    /// Training returned: backend calls from here on (temp-table cleanup)
    /// hang off whatever harness span the caller names.
    pub fn end_training(&self) {
        self.iteration.store(NO_ITER, Ordering::Relaxed);
        self.open_iter.store(0, Ordering::Relaxed);
    }

    /// A backend call begins: returns `(id, parent, iteration, start)`.
    /// Outside training the parent is `fallback`.
    pub fn enter_backend(&self, fallback: SpanId) -> (SpanId, SpanId, i32, u64) {
        let id = self.fresh_id();
        self.open_backend.store(id, Ordering::Relaxed);
        let parent = match self.open_iter.load(Ordering::Relaxed) {
            0 => fallback,
            iter => iter,
        };
        (id, parent, self.current_iteration(), self.now_ns())
    }

    /// The backend call ended.
    pub fn leave_backend(&self) {
        self.open_backend.store(0, Ordering::Relaxed);
    }

    /// Parent and iteration for a transport span starting now.
    pub fn transport_context(&self) -> (SpanId, i32) {
        (
            self.open_backend.load(Ordering::Relaxed),
            self.current_iteration(),
        )
    }

    /// Every span recorded so far, in start order.
    pub fn spans(&self) -> Vec<Span> {
        let mut v = self
            .spans
            .lock()
            .expect("no recorder user panics while holding the lock")
            .clone();
        v.sort_by_key(|s| (s.start_ns, s.id));
        v
    }
}

/// Total length covered by a set of `[start, end)` intervals, counting
/// overlapping parts once (shard spans overlap: the coordinator fans out
/// concurrently).
pub fn union_ns(intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = 0;
    for &(start, end) in intervals.iter() {
        let start = start.max(reach);
        if end > start {
            covered += end - start;
            reach = end;
        }
    }
    covered
}

/// A span tree with self times worked out.
pub struct Tree {
    pub spans: Vec<Span>,
    /// `self_ns[i]` = duration of `spans[i]` minus the part of it its
    /// children cover.
    pub self_ns: Vec<u64>,
    /// `has_children[i]`.
    pub has_children: Vec<bool>,
    /// Sum of the durations of `spans[i]`'s children, when they run one
    /// after another (every layer but `remote`, whose spans are a
    /// concurrent fan-out); `None` for a parent of shard calls.
    sequential_child_ns: Vec<Option<u64>>,
}

impl Tree {
    pub fn build(spans: Vec<Span>) -> Tree {
        let index: std::collections::HashMap<SpanId, usize> =
            spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
        let mut sequential_child_ns = vec![Some(0u64); spans.len()];
        for s in &spans {
            if let Some(&p) = index.get(&s.parent) {
                // Clip to the parent so a child that outlives it by a
                // clock read cannot make the self time negative.
                let (ps, pe) = (spans[p].start_ns, spans[p].end_ns);
                let (start, end) = (s.start_ns.clamp(ps, pe), s.end_ns.clamp(ps, pe));
                children[p].push((start, end));
                sequential_child_ns[p] = match (s.layer, sequential_child_ns[p]) {
                    ("remote", _) | (_, None) => None,
                    (_, Some(sum)) => Some(sum + (end - start)),
                };
            }
        }
        let has_children = children.iter().map(|c| !c.is_empty()).collect();
        let self_ns = spans
            .iter()
            .zip(&mut children)
            .map(|(s, kids)| (s.end_ns - s.start_ns) - union_ns(kids))
            .collect();
        Tree {
            spans,
            self_ns,
            has_children,
            sequential_child_ns,
        }
    }

    /// Structural problems of the tree; empty when it is well formed:
    /// every parent exists, every child lies inside its parent, and
    /// children that run one after another do not overlap by more than
    /// `tolerance` (a fraction of their parent). Then each span's self
    /// time plus its children's durations is its own duration, and so
    /// leaves and self times add up to the root.
    pub fn problems(&self, tolerance: f64) -> Vec<String> {
        let index: std::collections::HashMap<SpanId, usize> = self
            .spans
            .iter()
            .enumerate()
            .map(|(i, s)| (s.id, i))
            .collect();
        let mut out = Vec::new();
        for (i, s) in self.spans.iter().enumerate() {
            if s.end_ns < s.start_ns {
                out.push(format!("span {} ends before it starts", s.id));
                continue;
            }
            match index.get(&s.parent) {
                None if s.parent != 0 => {
                    out.push(format!("span {} names missing parent {}", s.id, s.parent))
                }
                Some(&p) => {
                    let parent = &self.spans[p];
                    if s.start_ns < parent.start_ns || s.end_ns > parent.end_ns {
                        out.push(format!(
                            "span {} ({}.{}) leaves its parent {} ({}.{})",
                            s.id, s.layer, s.name, parent.id, parent.layer, parent.name
                        ));
                    }
                }
                None => {}
            }
            let duration = s.end_ns - s.start_ns;
            if let Some(sum) = self.sequential_child_ns[i] {
                let covered = duration - self.self_ns[i];
                if (sum - covered) as f64 > tolerance * duration as f64 {
                    out.push(format!(
                        "children of span {} ({}.{}) overlap: {sum} ns of spans cover {covered} ns",
                        s.id, s.layer, s.name
                    ));
                }
            }
        }
        out
    }

    /// The trace file: host-independent, one object per span.
    pub fn to_json(&self) -> Json {
        Json::Arr(
            self.spans
                .iter()
                .zip(&self.self_ns)
                .map(|(s, &self_ns)| {
                    Json::obj([
                        ("id", Json::Int(s.id as i64)),
                        ("parent", Json::Int(s.parent as i64)),
                        ("layer", Json::str(s.layer)),
                        ("name", Json::str(s.name)),
                        ("class", Json::str(s.class)),
                        ("shard", Json::Int(s.shard as i64)),
                        ("iteration", Json::Int(s.iteration as i64)),
                        ("start_ns", Json::Int(s.start_ns as i64)),
                        ("end_ns", Json::Int(s.end_ns as i64)),
                        ("self_ns", Json::Int(self_ns as i64)),
                    ])
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, layer: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            layer,
            name: "x",
            class: "",
            shard: -1,
            iteration: -1,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn union_counts_overlap_once() {
        assert_eq!(union_ns(&mut []), 0);
        assert_eq!(union_ns(&mut [(0, 10), (5, 15), (20, 30)]), 25);
        assert_eq!(union_ns(&mut [(5, 6), (0, 100)]), 100);
        assert_eq!(union_ns(&mut [(3, 3)]), 0);
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // A backend call with two overlapping shard spans under it.
        let tree = Tree::build(vec![
            span(1, 0, "harness", 0, 100),
            span(2, 1, "backend", 10, 60),
            span(3, 2, "remote", 20, 40),
            span(4, 2, "remote", 30, 50),
        ]);
        assert_eq!(tree.self_ns, vec![50, 20, 20, 20]);
        assert!(
            tree.problems(0.001).is_empty(),
            "{:?}",
            tree.problems(0.001)
        );
    }

    #[test]
    fn reports_sequential_siblings_that_overlap() {
        let tree = Tree::build(vec![
            span(1, 0, "harness", 0, 100),
            span(2, 1, "backend", 10, 60),
            span(3, 1, "backend", 50, 90),
        ]);
        let problems = tree.problems(0.001);
        assert_eq!(problems.len(), 1, "{problems:?}");
        assert!(problems[0].contains("overlap"));
    }

    #[test]
    fn reports_a_child_outside_its_parent_and_a_missing_parent() {
        let tree = Tree::build(vec![
            span(1, 0, "harness", 0, 100),
            span(2, 1, "backend", 90, 120),
            span(3, 9, "backend", 10, 20),
        ]);
        let problems = tree.problems(0.001);
        assert!(problems.iter().any(|p| p.contains("leaves its parent")));
        assert!(problems.iter().any(|p| p.contains("missing parent 9")));
    }

    #[test]
    fn recorder_threads_iterations_and_backend_calls() {
        let rec = Recorder::new();
        let train = rec.fresh_id();
        let t0 = rec.now_ns();
        rec.begin_training();
        let (id, parent, iteration, start) = rec.enter_backend(train);
        assert_eq!(iteration, 0);
        assert_eq!(rec.transport_context(), (id, 0));
        rec.leave_backend();
        rec.push(Span {
            id,
            parent,
            layer: "backend",
            name: "execute",
            class: "split",
            shard: -1,
            iteration,
            start_ns: start,
            end_ns: rec.now_ns(),
        });
        let next = rec.end_iteration(train, 0, t0);
        rec.end_training();
        rec.record(train, 0, "harness", "train", t0);
        assert!(next >= start);
        let tree = Tree::build(rec.spans());
        assert!(tree.problems(1.0).is_empty(), "{:?}", tree.problems(1.0));
        // backend → iter → train.
        let find = |layer, name| {
            tree.spans
                .iter()
                .position(|s| (s.layer, s.name) == (layer, name))
                .unwrap()
        };
        let (backend, iter) = (find("backend", "execute"), find("trainer", "iter"));
        assert_eq!(tree.spans[backend].parent, tree.spans[iter].id);
        assert_eq!(tree.spans[iter].parent, train);
        // After training, backend calls hang off the fallback span.
        assert_eq!(rec.enter_backend(77).1, 77);
    }
}
