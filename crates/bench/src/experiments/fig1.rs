//! Fig 1: the motivating PMEP-vs-Optane discrepancy.
//!
//! (a) single-thread bandwidth by instruction flavor; (b) pointer-chasing
//! read latency across region sizes. PMEP treats NVRAM as slow DRAM, so
//! it gets the store ordering backwards and misses the buffer staircase.

use crate::experiments::common::{chase_points, region_sweep, take_curve, vans_6dimm};
use crate::output::{ExpOutput, Series};
use crate::runner::Split;
use lens::microbench::{PtrChaseMode, Stride};
use nvsim_baselines::{PmepBackend, PmepConfig};
use nvsim_types::MemOp;

fn pmep() -> PmepBackend {
    PmepBackend::new(PmepConfig::paper()).expect("valid preset")
}

/// Fig 1a: single-thread bandwidth (GB/s) for ld / st / st-clwb / st-nt
/// on PMEP (6 DIMM equivalent) vs VANS-modeled Optane (6 DIMM).
pub fn fig1a() -> ExpOutput {
    let mut out = ExpOutput::new(
        "fig1a",
        "single-thread bandwidth: PMEP vs Optane(VANS)",
        "op",
        "GB/s",
    );
    let ops = [MemOp::Load, MemOp::Store, MemOp::StoreClwb, MemOp::NtStore];
    let stream = 16u64 << 20;
    let mut pm = Vec::new();
    let mut va = Vec::new();
    for op in ops {
        let bw_p = Stride::sequential(stream, op)
            .run(&mut pmep())
            .bandwidth_gbps();
        let bw_v = Stride::sequential(stream, op)
            .run(&mut vans_6dimm())
            .bandwidth_gbps();
        pm.push((op.label().to_owned(), bw_p));
        va.push((op.label().to_owned(), bw_v));
    }
    // The headline inversion.
    let p_st = pm[1].1;
    let p_nt = pm[3].1;
    let v_st = va[1].1;
    let v_nt = va[3].1;
    out.push_series(Series::categorical("PMEP(6DIMM)", pm));
    out.push_series(Series::categorical("Optane(VANS,6DIMM)", va));
    out.note(format!(
        "PMEP: store {:.1} > nt-store {:.1} GB/s; Optane(VANS): nt-store {:.1} > store {:.1} GB/s — ordering inverts, as on real Optane",
        p_st, p_nt, v_nt, v_st
    ));
    out
}

/// Assembles fig 1b from the measured PMEP and VANS curves.
fn assemble_fig1b(pmep_curve: Vec<(u64, f64)>, vans_curve: Vec<(u64, f64)>) -> ExpOutput {
    let mut out = ExpOutput::new(
        "fig1b",
        "PtrChasing read latency: PMEP vs Optane(VANS,1DIMM)",
        "region (B)",
        "ns per cache line",
    );
    let pm_span = pmep_curve.iter().map(|&(_, y)| y).fold(f64::MIN, f64::max)
        / pmep_curve.iter().map(|&(_, y)| y).fold(f64::MAX, f64::min);
    let knees = lens::detect_knees(&vans_curve, 1.22);
    out.push_series(Series::numeric("PMEP(1DIMM)", pmep_curve));
    out.push_series(Series::numeric("Optane(VANS,1DIMM)", vans_curve));
    out.note(format!(
        "PMEP max/min latency ratio {:.2} (flat); VANS knees at {:?} — the on-DIMM buffer staircase PMEP cannot produce",
        pm_span,
        knees.iter().map(|k| k.capacity).collect::<Vec<_>>()
    ));
    out
}

/// Fig 1b: pointer-chasing read latency per cache line: PMEP flat, VANS
/// staircased with knees at 16 KB and 16 MB. Decomposed into sweep points
/// for the parallel runner.
pub fn fig1b_split() -> Split {
    let regions = region_sweep();
    let n = regions.len();
    let mut points = chase_points("fig1b/pmep", &regions, 64, PtrChaseMode::Read, pmep);
    points.extend(chase_points(
        "fig1b/vans",
        &regions,
        64,
        PtrChaseMode::Read,
        super::common::vans_1dimm,
    ));
    Split {
        points,
        finish: Box::new(move |data| {
            let mut it = data.into_iter();
            let pmep_curve = take_curve(&mut it, n);
            let vans_curve = take_curve(&mut it, n);
            assemble_fig1b(pmep_curve, vans_curve)
        }),
    }
}
