//! SMARTS-style interval sampling over checkpointed simulator state.
//!
//! The paper's case studies (Fig 13) simulate ≥2 B instructions per
//! workload; detailed simulation of windows that long is out of reach.
//! Interval sampling (Wunderlich et al., SMARTS) closes the gap: the
//! instruction stream is divided into alternating *fast-forward*
//! segments — executed on the functional-warming path, which keeps
//! caches, TLBs and media heat current but does no cycle accounting —
//! and short *detailed windows* that are measured cycle-accurately.
//! The per-window measurements are i.i.d.-ish samples of the steady
//! state, so their mean comes with a confidence interval.
//!
//! The checkpoint subsystem makes the windows independent: a
//! [`SampledRun`] first functionally warms one simulation through the
//! whole stream, cutting a `(system, core, workload)` snapshot at each
//! window boundary (the *chain*), and then schedules every detailed
//! window as its own [`Point`] on the parallel runner. A window's
//! point restores its chain entry into a freshly built target and runs
//! only `detail_warmup + detail` instructions in detailed mode. The
//! chain is built lazily by whichever point executes first and shared
//! via [`OnceLock`]; it is a pure function of the (deterministic)
//! target builder and the plan, so results are byte-identical for any
//! `--jobs N`.

use crate::runner::{Point, PointData};
use nvsim_cpu::{Core, RunReport};
use nvsim_types::snapshot::{restore_blob, save_blob};
use nvsim_types::MemoryBackend;
use nvsim_workloads::Workload;
use std::sync::{Arc, OnceLock};

/// How a sampled run divides the instruction stream.
#[derive(Debug, Clone, Copy)]
pub struct SamplingPlan {
    /// Number of detailed measurement windows.
    pub windows: usize,
    /// Functionally-warmed instructions before each window.
    pub fast_forward: u64,
    /// Detailed (cycle-accounted) instructions run before measurement
    /// starts, absorbing the timing state the functional path does not
    /// carry (queue occupancy, in-flight requests).
    pub detail_warmup: u64,
    /// Measured detailed instructions per window.
    pub detail: u64,
}

impl SamplingPlan {
    /// The span of the instruction stream the run covers.
    pub fn effective_instructions(&self) -> u64 {
        self.windows as u64 * (self.fast_forward + self.detail_warmup + self.detail)
    }

    /// The instructions simulated in detailed (cycle-accounted) mode.
    pub fn detailed_instructions(&self) -> u64 {
        self.windows as u64 * (self.detail_warmup + self.detail)
    }

    /// The Fig 13 production plan: 8 windows over a 200 M-instruction
    /// stream — 100× the pre-sampling 2 M windows, ~2.8 M of which are
    /// simulated in detail.
    pub fn fig13() -> Self {
        SamplingPlan {
            windows: 8,
            fast_forward: 24_650_000,
            detail_warmup: 150_000,
            detail: 200_000,
        }
    }

    /// A tiny plan for tests and the CI smoke.
    pub fn smoke() -> Self {
        SamplingPlan {
            windows: 3,
            fast_forward: 60_000,
            detail_warmup: 15_000,
            detail: 25_000,
        }
    }
}

/// Everything a sampled run simulates: a memory system, the CPU in
/// front of it, and the workload feeding the CPU.
pub struct SampleTarget {
    /// The memory backend (must support snapshots).
    pub system: Box<dyn MemoryBackend>,
    /// The CPU core (caches + TLB).
    pub core: Core,
    /// The trace generator (must support checkpointing).
    pub workload: Box<dyn Workload + Send>,
}

impl std::fmt::Debug for SampleTarget {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SampleTarget")
            .field("system", &self.system.label())
            .field("workload", &self.workload.name())
            .finish_non_exhaustive()
    }
}

/// A deterministic builder for fresh [`SampleTarget`]s. Every call must
/// produce an identically configured target, so that restoring a chain
/// entry into a fresh build reproduces the warmed state exactly.
pub type TargetFn = Arc<dyn Fn() -> SampleTarget + Send + Sync>;

/// State captured at one window boundary.
struct WindowState {
    system: Vec<u8>,
    core: Vec<u8>,
    workload: Vec<u8>,
}

type Chain = Vec<WindowState>;

/// Trace-generation chunk for the warming path: bounds the transient
/// `Vec<TraceOp>` while fast-forwarding tens of millions of
/// instructions.
const WARM_CHUNK: u64 = 1 << 20;

/// Functionally warms `instructions` through the target: caches, TLBs
/// and media state advance; no clock does.
fn warm(t: &mut SampleTarget, instructions: u64) {
    let mut left = instructions;
    while left > 0 {
        let trace = t.workload.generate(left.min(WARM_CHUNK));
        let mut mem: &mut dyn MemoryBackend = &mut *t.system;
        let done = t.core.warm_run(trace.into_iter(), &mut mem);
        left = left.saturating_sub(done.max(1));
    }
}

/// Runs `instructions` in detailed mode and returns the report.
fn run_detailed(t: &mut SampleTarget, instructions: u64) -> RunReport {
    let trace = t.workload.generate(instructions);
    let mut mem: &mut dyn MemoryBackend = &mut *t.system;
    t.core.run(trace.into_iter(), &mut mem)
}

/// Warms one simulation through the full stream, snapshotting at each
/// window boundary. Pure in the target builder and plan.
fn build_chain(target: &TargetFn, plan: SamplingPlan) -> Chain {
    let mut t = target();
    let mut chain = Vec::with_capacity(plan.windows);
    for _ in 0..plan.windows {
        warm(&mut t, plan.fast_forward);
        chain.push(WindowState {
            system: t
                .system
                .save_snapshot()
                .expect("sampled backends support snapshots"),
            core: save_blob(&t.core),
            workload: t
                .workload
                .save_state()
                .expect("sampled workloads support checkpointing"),
        });
        // The window's own instructions stay part of the warmed stream,
        // so the next fast-forward segment starts where the window ends.
        warm(&mut t, plan.detail_warmup + plan.detail);
    }
    chain
}

/// Restores window state into a fresh target and measures the window.
fn detail_window(target: &TargetFn, state: &WindowState, plan: SamplingPlan) -> RunReport {
    let mut t = target();
    t.system
        .restore_snapshot(&state.system)
        .expect("chain blobs restore into their own builder's configuration");
    restore_blob(&mut t.core, &state.core)
        .expect("chain blobs restore into their own builder's configuration");
    t.workload
        .restore_state(&state.workload)
        .expect("chain blobs restore into their own builder's configuration");
    if plan.detail_warmup > 0 {
        let _ = run_detailed(&mut t, plan.detail_warmup);
    }
    run_detailed(&mut t, plan.detail)
}

/// Index of the ns-per-instruction column in a window's [`PointData`].
pub const COL_NS_PER_INSTR: usize = 0;
/// Index of the TLB MPKI column in a window's [`PointData`].
pub const COL_TLB_MPKI: usize = 1;
/// Index of the LLC MPKI column in a window's [`PointData`].
pub const COL_LLC_MPKI: usize = 2;
/// Index of the IPC column in a window's [`PointData`].
pub const COL_IPC: usize = 3;
/// Index of the read-CPI / rest-CPI ratio column in a window's
/// [`PointData`].
pub const COL_READ_CPI_RATIO: usize = 4;

/// One sampled simulation: a target builder plus a plan, decomposable
/// into per-window runner [`Point`]s.
///
/// Each point returns one `(COL_*, value)` sample per metric column for
/// its window.
pub struct SampledRun {
    label: String,
    plan: SamplingPlan,
    target: TargetFn,
    chain: Arc<OnceLock<Arc<Chain>>>,
}

impl std::fmt::Debug for SampledRun {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SampledRun")
            .field("label", &self.label)
            .field("plan", &self.plan)
            .finish_non_exhaustive()
    }
}

impl SampledRun {
    /// Creates a sampled run; `label` prefixes the per-window point
    /// labels ("fig13d/fio/lazy").
    pub fn new(
        label: impl Into<String>,
        plan: SamplingPlan,
        target: impl Fn() -> SampleTarget + Send + Sync + 'static,
    ) -> Self {
        SampledRun {
            label: label.into(),
            plan,
            target: Arc::new(target),
            chain: Arc::new(OnceLock::new()),
        }
    }

    /// The per-window sample a point reports, one entry per `COL_*`.
    fn window_data(report: &RunReport) -> PointData {
        let ns_per_instr = report.exec_time.as_ns_f64() / report.instructions.max(1) as f64;
        vec![
            (COL_NS_PER_INSTR as u64, ns_per_instr),
            (COL_TLB_MPKI as u64, report.tlb_mpki()),
            (COL_LLC_MPKI as u64, report.llc_mpki()),
            (COL_IPC as u64, report.ipc()),
            (
                COL_READ_CPI_RATIO as u64,
                report.read_cpi() / report.rest_cpi().max(1e-9),
            ),
        ]
    }

    /// Decomposes the run into one point per window. `cost` seeds the
    /// scheduler; windows get strictly decreasing costs just under it,
    /// so with per-run costs spaced ≥ the window count apart the
    /// largest-first schedule stays run-major — at most one chain per
    /// worker is alive at a time. Windows of the same run share the
    /// lazily built chain.
    pub fn into_points(self, cost: u64) -> Vec<Point> {
        let SampledRun {
            label,
            plan,
            target,
            chain,
        } = self;
        (0..plan.windows)
            .map(|k| {
                let target = Arc::clone(&target);
                let chain = Arc::clone(&chain);
                let point_cost = cost.saturating_sub(k as u64).max(1);
                Point::new(format!("{label}/w{k}"), point_cost, move || {
                    let built = chain.get_or_init(|| Arc::new(build_chain(&target, plan)));
                    let report = detail_window(&target, &built[k], plan);
                    Self::window_data(&report)
                })
            })
            .collect()
    }

    /// Runs every window on the calling thread (chain built once) and
    /// returns the per-window samples in window order.
    pub fn run_serial(self) -> Vec<PointData> {
        self.into_points(1).into_iter().map(|p| (p.run)()).collect()
    }
}

// ---------------------------------------------------------------------
// Interval statistics
// ---------------------------------------------------------------------

/// A mean with its 95% confidence half-width.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Estimate {
    /// Sample mean.
    pub mean: f64,
    /// Half-width of the 95% confidence interval (0 for n < 2).
    pub half_width: f64,
}

impl Estimate {
    /// Relative half-width (`half_width / mean`; 0 for a zero mean).
    pub fn relative(&self) -> f64 {
        if self.mean.abs() < f64::EPSILON {
            0.0
        } else {
            self.half_width / self.mean.abs()
        }
    }
}

/// Two-sided Student-t 0.975 quantiles for small sample sizes
/// (`T975[df - 1]`), falling back to the normal 1.96 beyond df 20.
const T975: [f64; 20] = [
    12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228, 2.201, 2.179, 2.160,
    2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
];

/// Mean and 95% confidence half-width of a sample set (Student t).
pub fn estimate95(samples: &[f64]) -> Estimate {
    let n = samples.len();
    if n == 0 {
        return Estimate {
            mean: 0.0,
            half_width: 0.0,
        };
    }
    let mean = samples.iter().sum::<f64>() / n as f64;
    if n < 2 {
        return Estimate {
            mean,
            half_width: 0.0,
        };
    }
    let var = samples.iter().map(|s| (s - mean).powi(2)).sum::<f64>() / (n - 1) as f64;
    let t = T975.get(n - 2).copied().unwrap_or(1.96);
    Estimate {
        mean,
        half_width: t * (var / n as f64).sqrt(),
    }
}

/// The ratio `num / den` of two estimated means, with its half-width
/// propagated from the relative errors (first-order, independent
/// samples) — used for speedups and normalized metrics.
pub fn ratio95(num: Estimate, den: Estimate) -> Estimate {
    let mean = if den.mean.abs() < f64::EPSILON {
        0.0
    } else {
        num.mean / den.mean
    };
    let rel = (num.relative().powi(2) + den.relative().powi(2)).sqrt();
    Estimate {
        mean,
        half_width: mean.abs() * rel,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvsim_cpu::CoreConfig;
    use nvsim_workloads::FioWrite;
    use vans::{MemorySystem, VansConfig};

    fn smoke_target() -> SampleTarget {
        SampleTarget {
            system: Box::new(MemorySystem::new(VansConfig::optane_1dimm()).expect("valid preset")),
            core: Core::new(CoreConfig::cascade_lake_like()),
            workload: Box::new(FioWrite::new(11)),
        }
    }

    #[test]
    fn estimate_matches_hand_computation() {
        let e = estimate95(&[1.0, 2.0, 3.0]);
        assert!((e.mean - 2.0).abs() < 1e-12);
        // s = 1, hw = t(2df) * 1/sqrt(3) = 4.303 * 0.5774
        assert!((e.half_width - 4.303 / 3f64.sqrt()).abs() < 1e-3);
        assert_eq!(estimate95(&[5.0]).half_width, 0.0);
        assert_eq!(estimate95(&[]).mean, 0.0);
    }

    #[test]
    fn ratio_propagates_relative_error() {
        let a = Estimate {
            mean: 10.0,
            half_width: 1.0,
        };
        let b = Estimate {
            mean: 5.0,
            half_width: 0.0,
        };
        let r = ratio95(a, b);
        assert!((r.mean - 2.0).abs() < 1e-12);
        assert!((r.half_width - 0.2).abs() < 1e-12);
    }

    #[test]
    fn sampled_run_is_deterministic_and_window_independent() {
        let plan = SamplingPlan::smoke();
        let a = SampledRun::new("t/a", plan, smoke_target).run_serial();
        // Run the windows in reverse order on a second instance: the
        // chain makes every window independent of execution order.
        let b_points = SampledRun::new("t/b", plan, smoke_target).into_points(1);
        let mut b: Vec<(usize, PointData)> = b_points
            .into_iter()
            .enumerate()
            .rev()
            .map(|(k, p)| (k, (p.run)()))
            .collect();
        b.sort_by_key(|&(k, _)| k);
        let b: Vec<PointData> = b.into_iter().map(|(_, d)| d).collect();
        assert_eq!(a, b, "window results must not depend on execution order");
        assert_eq!(a.len(), plan.windows);
        for w in &a {
            assert!(w[0].1 > 0.0, "windows must measure nonzero time");
        }
    }

    #[test]
    #[ignore = "wall-clock calibration, run manually with --release --nocapture"]
    fn calibrate_warm_speed() {
        for (name, mut t) in [
            ("fio", smoke_target()),
            (
                "redis",
                SampleTarget {
                    workload: Box::new(nvsim_workloads::Redis::new(11)),
                    ..smoke_target()
                },
            ),
        ] {
            let start = std::time::Instant::now();
            warm(&mut t, 20_000_000);
            let warm_s = start.elapsed().as_secs_f64();
            let start = std::time::Instant::now();
            let _ = run_detailed(&mut t, 1_000_000);
            let det_s = start.elapsed().as_secs_f64();
            eprintln!(
                "{name}: warm {:.1} M instr/s, detailed {:.1} M instr/s",
                20.0 / warm_s,
                1.0 / det_s
            );
        }
    }

    #[test]
    fn windows_sample_distinct_stream_positions() {
        let plan = SamplingPlan::smoke();
        let samples = SampledRun::new("t/c", plan, smoke_target).run_serial();
        // fio streams sequentially; all windows measure, none are copies
        // of window 0's report (positions differ, timings may).
        assert_eq!(samples.len(), 3);
        assert!(samples.iter().all(|w| w[0].1.is_finite()));
    }
}
