//! Fig 13: the case-study evaluation — Lazy cache and Pre-translation on
//! the six workloads (fio, YCSB, TPCC, HashMap, Redis, LinkedList).
//!
//! (d) speedup over the unoptimized baseline for LazyCache,
//! Pre-translation and Both; (e) Pre-translation's TLB MPKI reduction.
//!
//! Both figures run SMARTS-style sampled simulations (see
//! [`crate::sampling`]): each (workload, configuration) pair covers a
//! 200 M-instruction stream — 100× the pre-sampling window — via
//! checkpointed fast-forwarding, with 8 detailed measurement windows
//! whose spread yields the `±95%` confidence columns in the CSVs.

use crate::output::{ExpOutput, Series};
use crate::runner::{Point, Split};
use crate::sampling::{
    estimate95, ratio95, Estimate, SampleTarget, SampledRun, SamplingPlan, COL_NS_PER_INSTR,
    COL_TLB_MPKI,
};
use nvsim_cpu::{Core, CoreConfig};
use nvsim_workloads::cloud::fig13_workloads;
use vans::opt::{LazyCacheConfig, PreTranslationConfig};
use vans::{MemorySystem, VansConfig};

#[derive(Clone, Copy, PartialEq)]
enum OptMode {
    Baseline,
    Lazy,
    Pretrans,
    Both,
}

/// Builds the sample target of one (workload, mode) combination:
/// VANS 1-DIMM with the mode's optimizations, a Cascade-Lake-like core,
/// and the fig 13 workload. Deterministic, as the chain restore
/// contract requires.
fn target(workload_idx: usize, mode: OptMode) -> SampleTarget {
    let mut sys = MemorySystem::new(VansConfig::optane_1dimm()).expect("valid preset");
    if matches!(mode, OptMode::Lazy | OptMode::Both) {
        sys.enable_lazy_cache(LazyCacheConfig::paper());
    }
    if matches!(mode, OptMode::Pretrans | OptMode::Both) {
        sys.enable_pretranslation(PreTranslationConfig::paper());
    }
    let mut ws = fig13_workloads(42);
    let mut workload = ws.swap_remove(workload_idx);
    workload.set_mkpt(matches!(mode, OptMode::Pretrans | OptMode::Both));
    SampleTarget {
        system: Box::new(sys),
        core: Core::new(CoreConfig::cascade_lake_like()),
        workload,
    }
}

fn plan() -> SamplingPlan {
    SamplingPlan::fig13()
}

fn workload_names() -> Vec<String> {
    fig13_workloads(1)
        .iter()
        .map(|w| w.name().to_owned())
        .collect()
}

/// Scheduler cost of the first combination's points; successive
/// combinations step down by [`COST_STEP`]. The pool claims points
/// largest first from one shared cursor, so every point of a combination
/// is claimed before any of the next: work proceeds combo-major and at
/// most one checkpoint chain per worker is alive at a time.
const CASE_STUDY_COST: u64 = 48 << 20;
const COST_STEP: u64 = 64;

/// The per-window points of one (workload, mode) combination.
fn combo_points(
    figid: &str,
    workload_idx: usize,
    name: &str,
    mode: OptMode,
    tag: &str,
    combo: u64,
) -> Vec<Point> {
    SampledRun::new(format!("{figid}/{name}/{tag}"), plan(), move || {
        target(workload_idx, mode)
    })
    .into_points(CASE_STUDY_COST - combo * COST_STEP)
}

/// Per-window samples of one combination, grouped out of the flat
/// point-data vector: `data[combo * windows ..][col]`.
fn combo_estimate(data: &[crate::runner::PointData], combo: usize, col: usize) -> Estimate {
    let windows = plan().windows;
    let samples: Vec<f64> = data[combo * windows..(combo + 1) * windows]
        .iter()
        .map(|w| w[col].1)
        .collect();
    estimate95(&samples)
}

/// Assembles fig 13d: speedups (ratio of mean ns-per-instruction) with
/// propagated 95% confidence half-widths.
fn assemble_fig13d(names: &[String], data: Vec<crate::runner::PointData>) -> ExpOutput {
    let mut out = ExpOutput::new(
        "fig13d",
        "case-study speedup over baseline: LazyCache / Pre-translation / Both (sampled, mean of 8 windows)",
        "workload",
        "speedup",
    );
    let mut base_pts = Vec::new();
    let mut series = [
        ("LazyCache", Vec::new(), Vec::new()),
        ("Pre-Translation", Vec::new(), Vec::new()),
        ("Both", Vec::new(), Vec::new()),
    ];
    for (i, name) in names.iter().enumerate() {
        let base = combo_estimate(&data, i * 4, COL_NS_PER_INSTR);
        base_pts.push((name.clone(), 1.0));
        for (m, (_, pts, cis)) in series.iter_mut().enumerate() {
            let opt = combo_estimate(&data, i * 4 + m + 1, COL_NS_PER_INSTR);
            let speedup = ratio95(base, opt);
            pts.push((name.clone(), speedup.mean));
            cis.push((name.clone(), speedup.half_width));
        }
    }
    let avg = |pts: &[(String, f64)]| pts.iter().map(|(_, s)| s).sum::<f64>() / pts.len() as f64;
    let lazy_avg = avg(&series[0].1);
    let pt_avg = avg(&series[1].1);
    let both_avg = avg(&series[2].1);
    out.push_series(Series::categorical("Baseline", base_pts));
    for (label, pts, cis) in series {
        out.push_series(Series::categorical(label, pts));
        out.push_series(Series::categorical(format!("{label} ±95%"), cis));
    }
    out.note(format!(
        "average speedups: LazyCache {lazy_avg:.2}x (paper ~1.10x), Pre-translation {pt_avg:.2}x (paper 1.01–1.48x), Both {both_avg:.2}x (paper 1.08–1.49x)"
    ));
    out.note(format!(
        "sampled: {} windows x {} detailed instructions over a {}M-instruction stream per configuration",
        plan().windows,
        plan().detail,
        plan().effective_instructions() / 1_000_000
    ));
    out
}

/// Fig 13d: speedups of the three optimization configurations,
/// decomposed into one sweep point per (workload, mode, window).
pub fn fig13d_split() -> Split {
    let names = workload_names();
    let modes = [
        (OptMode::Baseline, "base"),
        (OptMode::Lazy, "lazy"),
        (OptMode::Pretrans, "pretrans"),
        (OptMode::Both, "both"),
    ];
    let mut points = Vec::new();
    let mut combo = 0u64;
    for (i, name) in names.iter().enumerate() {
        for (mode, tag) in modes {
            points.extend(combo_points("fig13d", i, name, mode, tag, combo));
            combo += 1;
        }
    }
    Split {
        points,
        finish: Box::new(move |data| assemble_fig13d(&names, data)),
    }
}

/// Assembles fig 13e: TLB MPKI normalized to baseline, with propagated
/// 95% confidence half-widths.
fn assemble_fig13e(names: &[String], data: Vec<crate::runner::PointData>) -> ExpOutput {
    let mut out = ExpOutput::new(
        "fig13e",
        "Pre-translation TLB MPKI, normalized to baseline (sampled, mean of 8 windows)",
        "workload",
        "normalized TLB MPKI",
    );
    let mut base_pts = Vec::new();
    let mut pt_pts = Vec::new();
    let mut ci_pts = Vec::new();
    let mut reductions = Vec::new();
    for (i, name) in names.iter().enumerate() {
        let base = combo_estimate(&data, i * 2, COL_TLB_MPKI);
        let pt = combo_estimate(&data, i * 2 + 1, COL_TLB_MPKI);
        let norm = if base.mean > 0.0 {
            ratio95(pt, base)
        } else {
            Estimate {
                mean: 1.0,
                half_width: 0.0,
            }
        };
        base_pts.push((name.clone(), 1.0));
        pt_pts.push((name.clone(), norm.mean));
        ci_pts.push((name.clone(), norm.half_width));
        reductions.push(1.0 - norm.mean);
    }
    let avg_red = reductions.iter().sum::<f64>() / reductions.len() as f64 * 100.0;
    out.push_series(Series::categorical("Baseline", base_pts));
    out.push_series(Series::categorical("Pre-Translation", pt_pts));
    out.push_series(Series::categorical("Pre-Translation ±95%", ci_pts));
    out.note(format!(
        "average TLB MPKI reduction {avg_red:.0}% (paper: 17% on average)"
    ));
    out.note(format!(
        "sampled: {} windows x {} detailed instructions over a {}M-instruction stream per configuration",
        plan().windows,
        plan().detail,
        plan().effective_instructions() / 1_000_000
    ));
    out
}

/// Fig 13e: Pre-translation's TLB MPKI reduction, decomposed into one
/// sweep point per (workload, mode, window).
pub fn fig13e_split() -> Split {
    let names = workload_names();
    let mut points = Vec::new();
    let mut combo = 0u64;
    for (i, name) in names.iter().enumerate() {
        for (mode, tag) in [(OptMode::Baseline, "base"), (OptMode::Pretrans, "pretrans")] {
            points.extend(combo_points("fig13e", i, name, mode, tag, combo));
            combo += 1;
        }
    }
    Split {
        points,
        finish: Box::new(move |data| assemble_fig13e(&names, data)),
    }
}
