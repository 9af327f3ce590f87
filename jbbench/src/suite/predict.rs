//! The closed-loop predict window every workload ends with: each client
//! sends seeded 64-key batches one after another, waiting for each reply,
//! and every call after the discarded warm-up is timed.

use std::time::{Duration, Instant};

use crate::data::{KeyStream, BATCH};

use super::{quantile_sorted, Outcome};

/// What a scoring call answers: one optional score per key.
pub type Scores = Result<Vec<Option<f64>>, String>;

/// A scoring path: keys in, scores out.
pub type ScoreFn<'a> = Box<dyn FnMut(&[i64]) -> Scores + Send + 'a>;

/// What a window measured.
#[derive(Debug, Default)]
pub struct Window {
    /// Latency of every measured call, microseconds, ascending.
    pub latencies_us: Vec<f64>,
    /// Wall-clock of the measured part (the longest client's).
    pub wall_s: f64,
    /// Calls made, warm-up included.
    pub calls: u64,
    /// Calls that returned an error.
    pub failed: u64,
    /// Each client's first batch and the scores it got, for the
    /// correctness gate.
    pub first: Vec<(Vec<i64>, Vec<Option<f64>>)>,
}

impl Window {
    pub fn p50_us(&self) -> f64 {
        quantile_sorted(&self.latencies_us, 0.50)
    }

    /// The 99th percentile: with the ≥ 1,000 measured calls a window
    /// makes, at least ten samples lie beyond it.
    pub fn p99_us(&self) -> f64 {
        quantile_sorted(&self.latencies_us, 0.99)
    }

    /// Keys scored per second of the measured window.
    pub fn scores_per_s(&self) -> f64 {
        (self.latencies_us.len() * BATCH) as f64 / self.wall_s
    }
}

/// Report a run's predict metrics, each the median over the run's
/// windows, and count the calls into the outcome. One percentile over
/// the pooled samples would be set by the worst window alone: a tail is
/// made of whichever window caught a noisy moment of the host.
pub fn report_windows(windows: &[&Window], out: &mut Outcome) {
    let each = |f: fn(&Window) -> f64| windows.iter().map(|w| f(w)).collect::<Vec<f64>>();
    out.set_median("predict_us_p50", each(Window::p50_us));
    out.set_median("predict_us_p99", each(Window::p99_us));
    out.set_median("scores_per_s", each(Window::scores_per_s));
    out.attempted += windows.iter().map(|w| w.calls).sum::<u64>();
    out.failed += windows.iter().map(|w| w.failed).sum::<u64>();
    out.correct &= out.failed == 0;
}

/// Fewest measured calls per client, however short the window: keeps
/// ten samples beyond the 99th percentile.
const MIN_MEASURED: usize = 1_000;

/// Run `count` windows back to back over the same clients, each a
/// `count`-th of `total` long; calls are discarded only before the first
/// (the clients stay warm from one window to the next). A run reports the
/// median over its windows, and many short windows make a steadier median
/// than few long ones: each still measures at least 1,000 calls per
/// client.
pub fn run_windows(
    clients: &mut [ScoreFn<'_>],
    seed: u64,
    rows: usize,
    discard: usize,
    total: Duration,
    count: usize,
) -> Vec<Window> {
    (0..count)
        .map(|k| {
            run_window(
                clients,
                seed.wrapping_add(k as u64),
                rows,
                if k == 0 { discard } else { 0 },
                total / count as u32,
            )
        })
        .collect()
}

/// Run one window: client `i` draws its keys from stream `i` of `seed`
/// over `0..rows`, discards its first `discard` calls, then measures for
/// `window`.
pub fn run_window(
    clients: &mut [ScoreFn<'_>],
    seed: u64,
    rows: usize,
    discard: usize,
    window: Duration,
) -> Window {
    struct ClientOut {
        latencies_us: Vec<f64>,
        wall_s: f64,
        calls: u64,
        failed: u64,
        first: (Vec<i64>, Vec<Option<f64>>),
    }
    let outs: Vec<ClientOut> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(i, score)| {
                scope.spawn(move || {
                    let mut keys = KeyStream::new(seed, i as u64, rows);
                    let mut out = ClientOut {
                        latencies_us: Vec::new(),
                        wall_s: 0.0,
                        calls: 0,
                        failed: 0,
                        first: (Vec::new(), Vec::new()),
                    };
                    for call in 0..discard.max(1) {
                        let batch = keys.next_batch();
                        out.calls += 1;
                        match score(&batch) {
                            Ok(scores) if call == 0 => out.first = (batch, scores),
                            Ok(_) => {}
                            Err(_) => out.failed += 1,
                        }
                    }
                    let started = Instant::now();
                    while started.elapsed() < window || out.latencies_us.len() < MIN_MEASURED {
                        let batch = keys.next_batch();
                        let t0 = Instant::now();
                        let result = score(&batch);
                        out.latencies_us.push(t0.elapsed().as_secs_f64() * 1e6);
                        out.calls += 1;
                        if std::hint::black_box(result).is_err() {
                            out.failed += 1;
                        }
                    }
                    out.wall_s = started.elapsed().as_secs_f64();
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("a predict client panicked"))
            .collect()
    });
    let mut w = Window::default();
    for out in outs {
        w.latencies_us.extend(out.latencies_us);
        w.wall_s = w.wall_s.max(out.wall_s);
        w.calls += out.calls;
        w.failed += out.failed;
        w.first.push(out.first);
    }
    w.latencies_us.sort_by(f64::total_cmp);
    w
}

/// The correctness gate of a window: every client's first batch must
/// match the oracle bit for bit, absent keys included.
pub fn check_first_batches(
    window: &Window,
    oracle: &mut dyn FnMut(&[i64]) -> Scores,
) -> Result<(), String> {
    for (client, (keys, got)) in window.first.iter().enumerate() {
        let want = oracle(keys)?;
        if got.len() != want.len() {
            return Err(format!(
                "client {client}: {} scores for {} keys",
                got.len(),
                want.len()
            ));
        }
        for (i, (g, w)) in got.iter().zip(&want).enumerate() {
            if g.map(f64::to_bits) != w.map(f64::to_bits) {
                return Err(format!(
                    "client {client}: key {} scored {g:?}, the join oracle says {w:?}",
                    keys[i]
                ));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_measures_every_client_and_checks_first_batches() {
        let score = |keys: &[i64]| -> Scores {
            Ok(keys
                .iter()
                .map(|&k| (k < 500).then_some(k as f64 * 0.5))
                .collect())
        };
        let mut clients: Vec<ScoreFn<'_>> = vec![Box::new(score), Box::new(score)];
        let w = run_window(&mut clients, 9, 500, 5, Duration::from_millis(1));
        assert_eq!(w.first.len(), 2);
        assert!(w.latencies_us.len() >= 2 * MIN_MEASURED);
        assert_eq!(w.calls as usize, w.latencies_us.len() + 10);
        assert_eq!(w.failed, 0);
        assert!(w.p50_us() <= w.p99_us());
        assert!(w.scores_per_s() > 0.0);
        check_first_batches(&w, &mut |k| score(k)).unwrap();
        let err = check_first_batches(&w, &mut |k| Ok(k.iter().map(|&k| Some(k as f64)).collect()))
            .unwrap_err();
        assert!(err.contains("join oracle"), "{err}");
        // Back-to-back windows: only the first discards, each has its keys.
        let ws = run_windows(&mut clients, 9, 500, 5, Duration::from_millis(3), 3);
        assert_eq!(ws.len(), 3);
        assert_eq!(ws[1].calls as usize, ws[1].latencies_us.len() + 2);
        assert_ne!(ws[0].first[0].0, ws[1].first[0].0);
    }
}
