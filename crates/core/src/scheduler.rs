//! Inter-query parallelism (Section 5.5.3).
//!
//! DBMSes give diminishing returns from intra-query parallelism on the
//! small aggregation queries JoinBoost emits, so JoinBoost also
//! parallelizes *across* queries. Every parallel step here is a map over
//! independent items — the per-feature split queries of one node, the
//! trees of a random forest, the shards of a fan-out — so one ordered
//! [`par_map`] serves them all.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Apply `f` to every item on up to `threads` threads — the caller's and
/// `threads - 1` scoped helpers — and return the results in input order.
///
/// Each thread takes the next unclaimed item from a shared counter, so a
/// slow item does not hold back the ones queued behind it. With one
/// thread or at most one item, `f` runs inline and no thread is spawned.
/// A panic in `f` propagates to the caller.
pub fn par_map<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let threads = threads.min(items.len());
    if threads <= 1 {
        return items.iter().map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let worker = || {
        let mut done = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some(item) = items.get(i) else {
                return done;
            };
            done.push((i, f(item)));
        }
    };
    let finished: Vec<Vec<(usize, R)>> = std::thread::scope(|scope| {
        let helpers: Vec<_> = (1..threads).map(|_| scope.spawn(worker)).collect();
        let mut finished = vec![worker()];
        for h in helpers {
            finished.push(h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)));
        }
        finished
    });
    let mut slots: Vec<Option<R>> = items.iter().map(|_| None).collect();
    for (i, r) in finished.into_iter().flatten() {
        slots[i] = Some(r);
    }
    slots
        .into_iter()
        .map(|r| r.expect("every item is claimed exactly once"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn results_come_back_in_input_order_for_any_thread_count() {
        let items: Vec<u64> = (0..37).collect();
        for threads in [1, 2, 8] {
            let got = par_map(&items, threads, |&x| {
                // Uneven work so completion order differs from input order.
                thread::sleep(std::time::Duration::from_micros((37 - x) * 20));
                x * x
            });
            let want: Vec<u64> = items.iter().map(|x| x * x).collect();
            assert_eq!(got, want, "threads = {threads}");
        }
    }

    #[test]
    fn an_error_in_one_item_leaves_the_others_intact() {
        let items: Vec<i32> = (0..10).collect();
        let got = par_map(&items, 4, |&x| {
            if x == 3 {
                Err(format!("item {x} failed"))
            } else {
                Ok(x + 100)
            }
        });
        for (x, r) in items.iter().zip(&got) {
            match r {
                Ok(v) => assert_eq!(*v, x + 100),
                Err(e) => assert_eq!((x, e.as_str()), (&3, "item 3 failed")),
            }
        }
        assert_eq!(got.iter().filter(|r| r.is_err()).count(), 1);
    }

    #[test]
    fn a_single_item_runs_inline() {
        let here = thread::current().id();
        assert_eq!(par_map(&[()], 8, |_| thread::current().id()), vec![here]);
        assert_eq!(
            par_map(&[(), ()], 1, |_| thread::current().id()),
            vec![here; 2]
        );
        assert!(par_map(&[] as &[u8], 4, |&x| x).is_empty());
    }
}
