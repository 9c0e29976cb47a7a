//! Parallel experiment runner.
//!
//! Each registry experiment is either *whole* (one indivisible unit) or
//! *split* into independent sweep points — a probe-size × region ×
//! configuration cell that builds its own fresh simulation
//! ([`MemorySystem`](vans::MemorySystem) instances share nothing), runs
//! it, and returns `(x, y)` samples. Units execute on the workspace's one
//! worker pool, [`run_indexed`], largest cost first; results come back
//! **in input order**, so the assembled [`ExpOutput`]s — and therefore
//! the CSV bytes written under `results/` — are identical for `--jobs 1`
//! and `--jobs N`.
//!
//! Determinism argument, in two halves:
//!
//! * *Within a point*: a point owns every piece of mutable state it
//!   touches (fresh backend, fresh RNG seeded by the point's own
//!   parameters), so its samples do not depend on when or where it runs.
//! * *Across points*: units are laid out in experiment order with points
//!   in slot order, and the merge step drains the input-ordered results
//!   in that layout, handing each [`Split::finish`] its points in slot
//!   order, never in completion order.

use crate::output::ExpOutput;
use crate::ExperimentFn;
use nvsim::serve::executor::run_indexed;
use std::time::Instant;

/// Samples produced by one sweep point: `(x, y)` pairs in sweep order.
pub type PointData = Vec<(u64, f64)>;

/// The merge step of a [`Split`]: assembles the experiment output from
/// per-point samples delivered in point-schedule order.
pub type FinishFn = Box<dyn FnOnce(Vec<PointData>) -> ExpOutput + Send>;

/// A progress callback: `(unit label, wall-clock seconds)`; called from
/// worker threads as units complete.
pub type ProgressFn<'a> = &'a (dyn Fn(&str, f64) + Sync);

/// One independently schedulable sweep point.
pub struct Point {
    /// Progress label ("fig9a/ld/16MB").
    pub label: String,
    /// Relative cost estimate; the pool claims larger points first (for
    /// chase points: the region size in bytes).
    pub cost: u64,
    /// The work. Must build all mutable state it needs from scratch.
    pub run: Box<dyn FnOnce() -> PointData + Send>,
}

impl Point {
    /// Builds a point from a label, cost hint, and closure.
    pub fn new(
        label: impl Into<String>,
        cost: u64,
        run: impl FnOnce() -> PointData + Send + 'static,
    ) -> Self {
        Point {
            label: label.into(),
            cost,
            run: Box::new(run),
        }
    }
}

/// An experiment decomposed into sweep points plus the merge step that
/// assembles the final output from per-point data (always delivered in
/// point-schedule order).
pub struct Split {
    /// The sweep points, in schedule order.
    pub points: Vec<Point>,
    /// Assembles the experiment output; `data[i]` is the result of
    /// `points[i]`.
    pub finish: FinishFn,
}

impl Split {
    /// Runs every point in schedule order on the calling thread and
    /// assembles the output. The registry's serial experiment functions
    /// are thin wrappers around this, so the serial path and the
    /// parallel path share every line of measurement and assembly code —
    /// equality of their outputs is structural, not coincidental.
    pub fn run_serial(self) -> ExpOutput {
        let data: Vec<PointData> = self.points.into_iter().map(|p| (p.run)()).collect();
        (self.finish)(data)
    }
}

/// How one experiment is scheduled.
pub enum Runnable {
    /// One indivisible unit (the default adapter for experiments without
    /// a point decomposition).
    Whole(ExperimentFn),
    /// Point-decomposed.
    Split(Split),
}

/// Resolves the number of worker threads: an explicit request wins, then
/// the machine's available parallelism.
///
/// An explicit request above the machine's available parallelism is
/// honored (the units are CPU-bound but a user may want to test the
/// scheduler) with a one-line warning on stderr.
pub fn resolve_jobs(explicit: Option<usize>) -> usize {
    let avail = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    let (jobs, oversubscribed) = resolve_jobs_with(explicit, avail);
    if oversubscribed {
        eprintln!(
            "warning: --jobs {jobs} exceeds available parallelism ({avail}); \
             workers are CPU-bound, extra threads will only contend"
        );
    }
    jobs
}

/// Pure core of [`resolve_jobs`]: picks the worker count from an explicit
/// request and the machine's available parallelism, and reports whether
/// the request oversubscribes the machine.
fn resolve_jobs_with(requested: Option<usize>, avail: usize) -> (usize, bool) {
    match requested.filter(|&j| j > 0) {
        Some(j) => (j, j > avail),
        None => (avail.max(1), false),
    }
}

/// One schedulable unit: a whole experiment or one of its points.
struct Unit {
    cost: u64,
    label: String,
    kind: UnitKind,
}

enum UnitKind {
    Whole(ExperimentFn),
    Point(Box<dyn FnOnce() -> PointData + Send>),
}

enum UnitOut {
    Whole(ExpOutput),
    Point(PointData),
}

/// Runs the named experiments on `jobs` workers and returns their
/// outputs **in input order**. `progress` (if given) is called from
/// worker threads as units complete, with the unit label and its
/// wall-clock seconds — completion order is nondeterministic, the
/// returned outputs are not.
pub fn run(
    exps: Vec<(String, Runnable)>,
    jobs: usize,
    progress: Option<ProgressFn<'_>>,
) -> Vec<ExpOutput> {
    // Per experiment, the finisher and point count of a split (`None`
    // for a whole experiment); units follow in the same order.
    let mut merges: Vec<Option<(FinishFn, usize)>> = Vec::with_capacity(exps.len());
    let mut units: Vec<Unit> = Vec::new();
    for (id, runnable) in exps {
        match runnable {
            Runnable::Whole(f) => {
                merges.push(None);
                units.push(Unit {
                    // Whole experiments are opaque; schedule them early
                    // (alongside the largest points) so a long one does
                    // not start last and dominate the tail.
                    cost: u64::MAX,
                    label: id,
                    kind: UnitKind::Whole(f),
                });
            }
            Runnable::Split(split) => {
                merges.push(Some((split.finish, split.points.len())));
                units.extend(split.points.into_iter().map(|p| Unit {
                    cost: p.cost,
                    label: p.label,
                    kind: UnitKind::Point(p.run),
                }));
            }
        }
    }

    let results = run_indexed(
        units,
        |u| u.cost,
        jobs,
        |u| {
            let started = Instant::now();
            let out = match u.kind {
                UnitKind::Whole(f) => UnitOut::Whole(f()),
                UnitKind::Point(f) => UnitOut::Point(f()),
            };
            if let Some(cb) = progress {
                cb(&u.label, started.elapsed().as_secs_f64());
            }
            out
        },
    );

    // Results are in unit order, so each experiment takes the next one
    // (whole) or the next `n` (split, in slot order).
    let mut done = results.into_iter();
    merges
        .into_iter()
        .map(|merge| match merge {
            None => match done.next() {
                Some(UnitOut::Whole(out)) => out,
                _ => unreachable!("a whole experiment's unit yields its output"),
            },
            Some((finish, n)) => finish(
                done.by_ref()
                    .take(n)
                    .map(|d| match d {
                        UnitOut::Point(data) => data,
                        UnitOut::Whole(_) => unreachable!("a split's units yield point data"),
                    })
                    .collect(),
            ),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    /// A split whose points record `(exp, slot)` and bump a per-point
    /// execution counter.
    fn counting_split(
        exp: usize,
        n_points: usize,
        counters: &Arc<Vec<AtomicUsize>>,
        base: usize,
    ) -> Split {
        let points = (0..n_points)
            .map(|slot| {
                let counters = Arc::clone(counters);
                Point::new(
                    format!("e{exp}/p{slot}"),
                    ((slot * 37) % 11 + 1) as u64,
                    move || {
                        counters[base + slot].fetch_add(1, Ordering::SeqCst);
                        vec![(slot as u64, exp as f64)]
                    },
                )
            })
            .collect();
        Split {
            points,
            finish: Box::new(move |data| {
                let mut out = ExpOutput::new(format!("exp{exp}"), "t", "x", "y");
                out.push_series(crate::output::Series::numeric(
                    "pts",
                    data.into_iter().flatten().collect::<Vec<_>>(),
                ));
                out
            }),
        }
    }

    /// Property: for a sweep of shapes and job counts, every scheduled
    /// point executes exactly once and outputs arrive in input order
    /// with slots in schedule order.
    #[test]
    fn every_point_runs_exactly_once_and_merges_in_order() {
        for &(n_exps, n_points, jobs) in &[
            (1usize, 1usize, 1usize),
            (1, 7, 4),
            (3, 5, 2),
            (4, 9, 8),
            (2, 3, 16), // more workers than units
            (5, 4, 3),
        ] {
            let counters: Arc<Vec<AtomicUsize>> = Arc::new(
                (0..n_exps * n_points)
                    .map(|_| AtomicUsize::new(0))
                    .collect(),
            );
            let exps: Vec<(String, Runnable)> = (0..n_exps)
                .map(|e| {
                    (
                        format!("exp{e}"),
                        Runnable::Split(counting_split(e, n_points, &counters, e * n_points)),
                    )
                })
                .collect();
            let outs = run(exps, jobs, None);
            for c in counters.iter() {
                assert_eq!(c.load(Ordering::SeqCst), 1, "point ran != once");
            }
            assert_eq!(outs.len(), n_exps);
            for (e, out) in outs.iter().enumerate() {
                assert_eq!(out.id, format!("exp{e}"), "output order broke");
                let pts = &out.series[0].points;
                assert_eq!(pts.len(), n_points);
                for (slot, (x, y)) in pts.iter().enumerate() {
                    assert_eq!(*x, slot.to_string(), "slot order broke");
                    assert_eq!(*y, e as f64);
                }
            }
        }
    }

    /// Whole experiments ride alongside splits and land in input order.
    #[test]
    fn whole_and_split_experiments_interleave() {
        fn whole_out() -> ExpOutput {
            ExpOutput::new("whole", "t", "x", "y")
        }
        let counters: Arc<Vec<AtomicUsize>> =
            Arc::new((0..4).map(|_| AtomicUsize::new(0)).collect());
        let exps = vec![
            (
                "s0".to_owned(),
                Runnable::Split(counting_split(0, 4, &counters, 0)),
            ),
            ("whole".to_owned(), Runnable::Whole(whole_out)),
        ];
        let outs = run(exps, 3, None);
        assert_eq!(outs[0].id, "exp0");
        assert_eq!(outs[1].id, "whole");
    }

    /// `run_serial` and the threaded runner produce identical outputs.
    #[test]
    fn serial_and_parallel_agree() {
        let mk = || {
            let counters: Arc<Vec<AtomicUsize>> =
                Arc::new((0..6).map(|_| AtomicUsize::new(0)).collect());
            counting_split(1, 6, &counters, 0)
        };
        let serial = mk().run_serial();
        let parallel = run(vec![("exp1".to_owned(), Runnable::Split(mk()))], 4, None)
            .pop()
            .unwrap();
        assert_eq!(format!("{serial}"), format!("{parallel}"));
    }

    #[test]
    fn resolve_jobs_prefers_explicit() {
        assert_eq!(resolve_jobs(Some(3)), 3);
        assert!(resolve_jobs(None) >= 1);
    }

    #[test]
    fn oversubscription_is_honored_but_flagged() {
        assert_eq!(resolve_jobs_with(Some(16), 8), (16, true));
        assert_eq!(resolve_jobs_with(Some(8), 8), (8, false));
        assert_eq!(resolve_jobs_with(Some(2), 8), (2, false));
        // No request: cap at available parallelism, never warn.
        assert_eq!(resolve_jobs_with(None, 8), (8, false));
        assert_eq!(resolve_jobs_with(None, 0), (1, false));
        // Zero is not a valid request; falls back silently.
        assert_eq!(resolve_jobs_with(Some(0), 4), (4, false));
    }
}
