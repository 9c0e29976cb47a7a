//! `sampled-ycsb`: one sampled fig 13 configuration — YCSB on the
//! baseline one-DIMM VANS system behind a Cascade-Lake-like core — run
//! through `SampledRun` exactly as `fig13.rs` builds it, with the
//! workload seeded from `--seed`.
//!
//! The plan is fig 13's at a tenth of every length (same window count,
//! same fast-forward to detail ratio), so several configurations fit in
//! one run. Functional warming (cpu, workloads, the VANS warm path,
//! snapshots) dominates it; the timed engine is a small share.

use crate::report::{
    fastest_per_position, peak_rss_mb, percentile, quartiles, setup_count, Digest, Outcome,
    RepPlan, Value,
};
use crate::timed::{
    TimedBackend, TimedWorkload, BACKEND_OTHER, BACKEND_RESTORE, BACKEND_SAVE, BACKEND_TIMED,
    BACKEND_WARM, WORKLOAD_CHECKPOINT, WORKLOAD_GENERATE,
};
use crate::trace;
use nvsim::cpu::{Core, CoreConfig};
use nvsim::types::snapshot::save_blob;
use nvsim::vans::{MemorySystem, VansConfig};
use nvsim::workloads::cloud::fig13_workloads;
use nvsim_bench::runner::PointData;
use nvsim_bench::sampling::{
    SampleTarget, SampledRun, SamplingPlan, COL_IPC, COL_LLC_MPKI, COL_TLB_MPKI,
};
use std::time::Instant;

/// Position of YCSB in `fig13_workloads`.
const YCSB: usize = 1;
const TARGET_BUILD: &str = "sampling.target_build";
/// Host seconds of one full-size configuration on the machine the
/// benchmark was tuned on; it fixes how many a run of `--seconds` makes.
const NOMINAL_CONFIGURATION_S: f64 = 1.5;

/// The per-layer metrics a traced sampled run sets.
const LAYER_METRICS: [&str; 13] = [
    "workloads.generate_s",
    "vans.warm_access_s",
    "vans.timed_s",
    "snapshot.save_s",
    "snapshot.restore_s",
    "workloads.checkpoint_s",
    "sampling.target_build_s",
    "cpu.self_s",
    "trace.overhead_pct",
    "cpu.ipc",
    "cpu.llc_mpki",
    "cpu.tlb_mpki",
    "cpu.warm_accesses",
];

pub fn plan(smoke: bool) -> SamplingPlan {
    if smoke {
        return SamplingPlan::smoke();
    }
    let f = SamplingPlan::fig13();
    SamplingPlan {
        windows: f.windows,
        fast_forward: f.fast_forward / 10,
        detail_warmup: f.detail_warmup / 10,
        detail: f.detail / 10,
    }
}

/// The fig 13 baseline YCSB target; `timed` wraps its backend and
/// workload in the timing adapters.
fn target(seed: u64, timed: bool) -> SampleTarget {
    let _s = timed.then(|| trace::enter(TARGET_BUILD));
    let sys = MemorySystem::new(VansConfig::optane_1dimm()).expect("the VANS preset is valid");
    let mut workload = fig13_workloads(seed).swap_remove(YCSB);
    workload.set_mkpt(false);
    let core = Core::new(CoreConfig::cascade_lake_like());
    if timed {
        SampleTarget {
            system: Box::new(TimedBackend(Box::new(sys))),
            core,
            workload: Box::new(TimedWorkload(workload)),
        }
    } else {
        SampleTarget {
            system: Box::new(sys),
            core,
            workload,
        }
    }
}

/// The state a fresh target starts from, as snapshot bytes.
fn target_state(t: &SampleTarget) -> Vec<u8> {
    let mut state = t.system.save_snapshot().unwrap_or_default();
    state.extend(save_blob(&t.core));
    state.extend(t.workload.save_state().unwrap_or_default());
    state
}

/// One configuration, run point by point as `SampledRun::run_serial`
/// runs it. Returns the wall time, each point's time and its samples.
fn configuration(seed: u64, plan: SamplingPlan, timed: bool) -> (f64, Vec<f64>, Vec<PointData>) {
    let run = SampledRun::new(format!("sampled-ycsb/{seed}"), plan, move || {
        target(seed, timed)
    });
    let began = Instant::now();
    let mut times = Vec::new();
    let mut data = Vec::new();
    for p in run.into_points(1) {
        let t = Instant::now();
        data.push((p.run)());
        times.push(t.elapsed().as_secs_f64());
    }
    let end = Instant::now();
    if timed {
        trace::phase("sampled.configuration", began, end);
    }
    ((end - began).as_secs_f64(), times, data)
}

fn digest(data: &[PointData]) -> u64 {
    let mut d = Digest::default();
    for w in data {
        for &(col, v) in w {
            d.word(col);
            d.word(v.to_bits());
        }
    }
    d.0
}

fn mean_col(data: &[PointData], col: usize) -> f64 {
    let vals: Vec<f64> = data
        .iter()
        .filter_map(|w| w.iter().find(|(c, _)| *c == col as u64).map(|&(_, v)| v))
        .collect();
    vals.iter().sum::<f64>() / vals.len().max(1) as f64
}

pub fn run(seed: u64, seconds: f64, smoke: bool, traced: bool) -> Outcome {
    let mut out = Outcome::default();
    let plan = plan(smoke);
    let instructions = plan.effective_instructions();

    // Set-up: SampledRun requires every build of a target to start from
    // identical state; check it on two builds.
    let mut setups = Vec::new();
    let mut deterministic = true;
    for _ in 0..setup_count(traced) {
        let t = Instant::now();
        let (a, b) = (target(seed, false), target(seed, false));
        deterministic &= target_state(&a) == target_state(&b);
        setups.push(t.elapsed().as_secs_f64());
    }
    out.check(
        "target-builds-identical",
        deterministic,
        "two builds of the target start from different states",
    );

    // A traced run alternates untraced and traced configurations, so the
    // tracing overhead compares the two under the same host conditions.
    let reps_plan = RepPlan::new(
        seconds,
        if traced { 2.0 } else { 1.0 } * NOMINAL_CONFIGURATION_S,
    );
    let mut reps = Vec::new();
    let mut point_us = Vec::new();
    let mut traced_reps = Vec::new();
    if traced {
        trace::install();
    }
    while reps_plan.more(reps.len()) {
        let (secs, times, data) = configuration(seed, plan, false);
        point_us.push(times.iter().map(|t| t * 1e6).collect::<Vec<f64>>());
        reps.push((secs, data));
        if traced {
            let (secs, _, data) = configuration(seed, plan, true);
            traced_reps.push((secs, data));
        }
    }
    let tracer = trace::finish();
    if let Some(n) = reps_plan.shortfall(reps.len()) {
        out.note(n);
    }
    out.attempted = instructions * reps.len() as u64;
    let first = digest(&reps[0].1);
    let diverged = reps.iter().filter(|r| digest(&r.1) != first).count() as u64;
    out.failed += diverged * instructions;
    out.check(
        "windows-identical",
        diverged == 0,
        format!(
            "{diverged} of {} configurations measured other per-window ns/instr or TLB MPKI",
            reps.len()
        ),
    );
    out.digest = first;
    let data = reps[0].1.clone();
    out.note(format!(
        "{} windows x {} detailed instructions over {} instructions per configuration; mean IPC {:.4}, TLB MPKI {:.4}",
        plan.windows,
        plan.detail,
        instructions,
        mean_col(&data, COL_IPC),
        mean_col(&data, COL_TLB_MPKI)
    ));

    if !traced {
        let mut points = fastest_per_position(&point_us);
        let rates: Vec<f64> = reps.iter().map(|r| instructions as f64 / r.0).collect();
        let (q1, med, q3) = quartiles(&rates);
        out.set("setup_s", Value::median_of(&setups));
        out.set(
            "ops_per_s",
            Value::of(instructions as f64 / (points.iter().sum::<f64>() / 1e6)),
        );
        out.set("batch_us_p50", Value::of(percentile(&mut points, 50.0)));
        out.set("batch_us_p99", Value::of(percentile(&mut points, 99.0)));
        out.set("peak_rss_mb", Value::of(peak_rss_mb()));
        out.note(format!(
            "{} identical configurations, timed per window point (window 0's point also builds the checkpoint chain); configuration rates median {med:.0} instr/s [q1 {q1:.0}, q3 {q3:.0}]",
            reps.len()
        ));
        return out;
    }

    let tracer = tracer.expect("installed above");
    out.exercise(&LAYER_METRICS);
    let n = traced_reps.len() as f64;
    out.attempted += instructions * traced_reps.len() as u64;
    let diverged = traced_reps.iter().filter(|r| digest(&r.1) != first).count() as u64;
    out.failed += diverged * instructions;
    out.check(
        "traced-digest-equal",
        diverged == 0,
        format!("{diverged} traced configurations measured other windows"),
    );
    let s = |name: &str| tracer.agg(name).total_ns / 1e9 / n;
    let parts = [
        ("workloads.generate_s", s(WORKLOAD_GENERATE)),
        ("vans.warm_access_s", s(BACKEND_WARM)),
        ("vans.timed_s", s(BACKEND_TIMED) + s(BACKEND_OTHER)),
        ("snapshot.save_s", s(BACKEND_SAVE)),
        ("snapshot.restore_s", s(BACKEND_RESTORE)),
        ("workloads.checkpoint_s", s(WORKLOAD_CHECKPOINT)),
        ("sampling.target_build_s", s(TARGET_BUILD)),
    ];
    for (name, v) in parts {
        out.set(name, Value::of(v));
    }
    let secs = traced_reps.iter().map(|r| r.0).sum::<f64>() / n;
    out.set(
        "cpu.self_s",
        Value::of(secs - parts.iter().map(|p| p.1).sum::<f64>()),
    );
    let median = |v: Vec<f64>| quartiles(&v).1;
    let untraced = median(reps.iter().map(|r| r.0).collect());
    let with_spans = median(traced_reps.iter().map(|r| r.0).collect());
    out.set(
        "trace.overhead_pct",
        Value::of((with_spans - untraced) / untraced * 100.0),
    );
    out.set("cpu.ipc", Value::of(mean_col(&data, COL_IPC)));
    out.set("cpu.llc_mpki", Value::of(mean_col(&data, COL_LLC_MPKI)));
    out.set("cpu.tlb_mpki", Value::of(mean_col(&data, COL_TLB_MPKI)));
    out.set(
        "cpu.warm_accesses",
        Value::of(tracer.agg(BACKEND_WARM).count as f64 / n),
    );
    out.note("cpu.self_s is the configuration's time outside every timed call: the core model, SampledRun's bookkeeping and core snapshots");
    out.tracer = Some(tracer);
    out
}
