//! The workspace's one worker pool, plus the serve crate's shared trace
//! buffer.
//!
//! [`run_indexed`] schedules both the figure runner's experiments and
//! sweep points (`nvsim_bench::runner`) and the server's per-session
//! units ([`crate::session::SessionUnit`]). It is Driver-class code
//! (nvsim-lint allows threads and locks here), and it is the **only**
//! file in the serve crate where synchronization primitives are allowed;
//! the session simulation paths in `session.rs` / `registry.rs` /
//! `server.rs` stay lock-free and Simulation-class. The split keeps the
//! determinism argument local: threads only decide *which worker* runs
//! an item, never what the item computes, and results come back in input
//! order, so figure CSVs and response streams are byte-identical at any
//! worker count.
//!
//! Scheduling: items are sorted by descending cost (stable, so equal-cost
//! items keep input order) behind one shared cursor, and every worker
//! claims the next item from it. An idle worker therefore always takes
//! the largest item nobody has started.

use std::io;
use std::panic;
use std::sync::{Arc, Mutex};
use std::thread;

/// A byte buffer shared between a session's `JsonlSink` (owned by the
/// backend) and the session bookkeeping that drains it into
/// `TraceChunk` responses. The mutex is uncontended by construction — a
/// session is only ever driven by one worker at a time — it exists so
/// the buffer can cross thread boundaries with the session.
#[derive(Debug, Default)]
pub struct TraceShared(Arc<Mutex<Vec<u8>>>);

impl TraceShared {
    /// An empty shared buffer.
    pub fn new() -> Self {
        TraceShared::default()
    }

    /// Drains and returns everything written since the last take.
    pub fn take(&self) -> Vec<u8> {
        match self.0.lock() {
            Ok(mut buf) => std::mem::take(&mut *buf),
            Err(poisoned) => std::mem::take(&mut *poisoned.into_inner()),
        }
    }

    /// A `Send` writer handle for a `JsonlSink` feeding this buffer.
    pub fn writer(&self) -> TraceWriter {
        TraceWriter(Arc::clone(&self.0))
    }
}

/// The write half of a [`TraceShared`] buffer.
#[derive(Debug)]
pub struct TraceWriter(Arc<Mutex<Vec<u8>>>);

impl io::Write for TraceWriter {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self.0.lock() {
            Ok(mut b) => b.extend_from_slice(buf),
            Err(poisoned) => poisoned.into_inner().extend_from_slice(buf),
        }
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Runs `f` on every item across `workers` threads and returns the
/// results in input order.
///
/// Items are claimed in descending `cost`, ties in input order. The
/// worker count is clamped to `1..=max(1, items.len())`; with one worker
/// the items run inline on the calling thread, in that same order, and
/// no thread is spawned. A panic in `f` is re-raised on the caller.
pub fn run_indexed<T, R, C, F>(items: Vec<T>, cost: C, workers: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    C: Fn(&T) -> u64,
    F: Fn(T) -> R + Sync,
{
    let workers = workers.clamp(1, items.len().max(1));
    let mut order: Vec<(usize, T)> = items.into_iter().enumerate().collect();
    order.sort_by_key(|(_, item)| std::cmp::Reverse(cost(item)));
    let cursor = Mutex::new(order.into_iter());
    let drain = || {
        let mut done = Vec::new();
        loop {
            // Its own statement, so the guard drops before `f` runs;
            // holding it across `f` would serialise the pool.
            let next = cursor.lock().expect("cursor lock").next();
            let Some((i, item)) = next else {
                return done;
            };
            done.push((i, f(item)));
        }
    };
    let mut done: Vec<(usize, R)> = if workers == 1 {
        drain()
    } else {
        thread::scope(|s| {
            let handles: Vec<_> = (0..workers).map(|_| s.spawn(drain)).collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().unwrap_or_else(|p| panic::resume_unwind(p)))
                .collect()
        })
    };
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::mpsc;
    use std::time::Duration;

    /// Every item runs exactly once and results keep input order, for
    /// empty, tiny and uneven inputs at, below and above the item count.
    #[test]
    fn every_item_runs_once_and_results_keep_input_order() {
        for n in [0usize, 1, 2, 7, 33] {
            for workers in [0usize, 1, 2, 3, 8, 64] {
                let runs: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
                let items: Vec<usize> = (0..n).collect();
                let out = run_indexed(
                    items,
                    |&i| ((i * 37) % 11) as u64,
                    workers,
                    |i| {
                        runs[i].fetch_add(1, Ordering::SeqCst);
                        i * 10
                    },
                );
                assert_eq!(out, (0..n).map(|i| i * 10).collect::<Vec<_>>());
                for (i, r) in runs.iter().enumerate() {
                    assert_eq!(
                        r.load(Ordering::SeqCst),
                        1,
                        "item {i}, n {n}, workers {workers}"
                    );
                }
            }
        }
    }

    /// Two items that each wait for the other's token can only both
    /// finish if two workers run `f` at the same time.
    #[test]
    fn two_workers_run_items_concurrently() {
        let (to_second, from_first) = mpsc::channel();
        let (to_first, from_second) = mpsc::channel();
        let items = vec![(to_second, from_second), (to_first, from_first)];
        let met = run_indexed(
            items,
            |_| 0,
            2,
            |(tx, rx)| tx.send(()).is_ok() && rx.recv_timeout(Duration::from_secs(10)).is_ok(),
        );
        assert_eq!(met, vec![true, true]);
    }

    /// One worker runs inline on the caller, largest cost first, ties in
    /// input order.
    #[test]
    fn one_worker_runs_inline_largest_first() {
        let caller = thread::current().id();
        let claimed = Mutex::new(Vec::new());
        let costs = [1u64, 5, 3, 5, 0];
        run_indexed(
            (0..costs.len()).collect(),
            |&i| costs[i],
            1,
            |i| {
                assert_eq!(thread::current().id(), caller);
                claimed.lock().expect("test lock").push(i);
            },
        );
        assert_eq!(
            claimed.into_inner().expect("test lock"),
            vec![1, 3, 2, 0, 4]
        );
    }

    /// A worker's panic reaches the caller with its own payload.
    #[test]
    fn worker_panic_is_reraised_on_the_caller() {
        let caught = panic::catch_unwind(|| {
            run_indexed(
                vec![0, 1, 2],
                |_| 0,
                2,
                |i| {
                    assert_ne!(i, 1, "item one fails");
                },
            )
        });
        let payload = caught.expect_err("the panic must propagate");
        let msg = payload
            .downcast_ref::<String>()
            .map(String::as_str)
            .unwrap_or_default();
        assert!(msg.contains("item one fails"), "{msg}");
    }
}
