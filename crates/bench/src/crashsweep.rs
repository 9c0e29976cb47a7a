//! Crash-consistency sweep: power-fail injection across write patterns.
//!
//! Each pattern drives a fresh [`MemorySystem`] with durability tracking
//! enabled through one of the figure-style write streams (nt-store
//! streams, store+clwb, plain stores, RMW-straddling writes,
//! wear-migration in flight, multi-DIMM interleaving), then sweeps
//! power-loss points over the finished run: WPQ-insertion cuts, wall-clock
//! cuts, and deterministic probabilistic plans. For every cut the model's
//! [`CrashImage`](nvsim_types::CrashImage) is diffed against the
//! [`crashcheck`](mod@vans::crashcheck) oracle; any disagreement is a hard
//! failure reported with the full request history of the offending line.
//!
//! The sweep rides on the parallel runner as [`Runnable::Whole`] units,
//! one per pattern; outputs merge in input order, so `results/crash.csv`
//! is byte-identical across `--jobs` counts.
//!
//! Every pattern takes a `smoke` flag: smoke mode shrinks stream lengths
//! and the probabilistic-seed pool so CI can run the whole sweep in
//! seconds.

use crate::output::{ExpOutput, Series};
use crate::runner::Runnable;
use nvsim_types::{Addr, FaultPlan, MemOp, MemoryBackend, RequestDesc, SessionOptions};
use vans::{crashcheck, MemorySystem, VansConfig};

/// Stream length for the sweep patterns.
fn stream_len(smoke: bool) -> u64 {
    if smoke {
        16
    } else {
        64
    }
}

/// One sweep pattern: drives a fresh system, in smoke mode or full.
pub type PatternFn = fn(bool) -> ExpOutput;

/// The sweep patterns, in schedule (and output) order.
pub const PATTERNS: [(&str, PatternFn); 6] = [
    ("nt_stream", nt_stream),
    ("store_clwb", store_clwb),
    ("plain_mix", plain_mix),
    ("rmw_straddle", rmw_straddle),
    ("wear_migration", wear_migration),
    ("nt_2dimm", nt_2dimm),
];

/// Builds the runner units for the sweep, one per pattern.
pub fn runnables(smoke: bool) -> Vec<(String, Runnable)> {
    PATTERNS
        .iter()
        .map(|&(name, f)| (format!("crash/{name}"), Runnable::whole(move || f(smoke))))
        .collect()
}

/// Merges the per-pattern outputs (in input order) into the single
/// `crash` experiment written to `results/crash.csv`.
pub fn combine(outputs: Vec<ExpOutput>) -> ExpOutput {
    let mut out = ExpOutput::new(
        "crash",
        "Power-fail injection sweep: durable lines vs oracle",
        "pattern/cut",
        "lines",
    );
    let labels = [
        "durable",
        "lost_volatile",
        "adr_drained",
        "on_media",
        "supercap_used_ns",
        "oracle_mismatches",
    ];
    for label in labels {
        let pts = outputs
            .iter()
            .flat_map(|o| o.series.iter().filter(|s| s.label == label))
            .flat_map(|s| s.points.iter().cloned())
            .collect::<Vec<_>>();
        out.push_series(Series::categorical(label, pts));
    }
    for o in &outputs {
        for n in &o.notes {
            out.note(n.clone());
        }
    }
    out
}

/// Total oracle mismatches across a combined output — the sweep's hard
/// pass/fail criterion.
pub fn total_mismatches(out: &ExpOutput) -> u64 {
    out.series
        .iter()
        .filter(|s| s.label == "oracle_mismatches")
        .flat_map(|s| s.points.iter())
        .map(|&(_, y)| y as u64)
        .sum()
}

/// Runs one finished system through the fault-plan sweep and tabulates
/// the crash images.
fn sweep(pattern: &str, sys: &MemorySystem, smoke: bool) -> ExpOutput {
    let mut plans: Vec<FaultPlan> = Vec::new();
    let total = sys.wpq_insertions();
    let mut ks: Vec<u64> = Vec::new();
    for k in [1, total / 4, total / 2, 3 * total / 4, total] {
        if k > 0 && !ks.contains(&k) {
            ks.push(k);
        }
    }
    plans.extend(ks.into_iter().map(FaultPlan::at_insertion));
    let now = sys.now().as_ps();
    for pct in [25u64, 50, 75, 100] {
        plans.push(FaultPlan::at_time(nvsim_types::Time::from_ps(
            now * pct / 100,
        )));
    }
    let seeds: u64 = if smoke { 2 } else { 6 };
    plans.extend((0..seeds).map(|s| FaultPlan::probabilistic(0xC0FFEE + s)));

    let mut out = ExpOutput::new(
        format!("crash_{pattern}"),
        format!("crash sweep over {pattern}"),
        "cut",
        "lines",
    );
    let mut rows: Vec<(String, [f64; 6])> = Vec::new();
    let mut worst = 0usize;
    for plan in &plans {
        let image = sys.inject_power_loss(plan);
        let mismatches = crashcheck::diff_image(&image, sys.request_log());
        if !mismatches.is_empty() {
            eprintln!("{}", crashcheck::report(&image.cut, &mismatches));
            worst = worst.max(mismatches.len());
        }
        let c = &image.counters;
        rows.push((
            format!("{pattern}/{}", plan.label()),
            [
                c.durable_lines as f64,
                c.volatile_lines as f64,
                c.adr_drained_lines as f64,
                c.media_lines as f64,
                image.counters.supercap_used.as_ns_f64(),
                mismatches.len() as f64,
            ],
        ));
    }
    let labels = [
        "durable",
        "lost_volatile",
        "adr_drained",
        "on_media",
        "supercap_used_ns",
        "oracle_mismatches",
    ];
    for (i, label) in labels.into_iter().enumerate() {
        out.push_series(Series::categorical(
            label,
            rows.iter().map(|(x, ys)| (x.clone(), ys[i])),
        ));
    }
    if worst > 0 {
        out.note(format!(
            "{pattern}: ORACLE DISAGREEMENT — up to {worst} mismatched line(s) in a cut"
        ));
    } else {
        out.note(format!(
            "{pattern}: model and oracle agree on every durable line across {} cuts",
            plans.len()
        ));
    }
    out
}

fn tracked_system(cfg: VansConfig) -> MemorySystem {
    let mut sys = MemorySystem::new(cfg).expect("valid crashsweep config");
    sys.configure_session(SessionOptions::new().durability_tracking(true));
    sys
}

/// Fig 5-style nt-store stream: every line reaches the ADR domain, so
/// every cut's durable set is exactly the admitted prefix plus nothing.
fn nt_stream(smoke: bool) -> ExpOutput {
    let mut sys = tracked_system(VansConfig::optane_1dimm());
    for i in 0..stream_len(smoke) {
        sys.execute(RequestDesc::nt_store(Addr::new(0x10_0000 + i * 64)));
    }
    sweep("nt_stream", &sys, smoke)
}

/// store + clwb pairs with a terminal fence: the clwb makes each line
/// ADR-durable at WPQ acceptance, same contract as nt-stores.
fn store_clwb(smoke: bool) -> ExpOutput {
    let mut sys = tracked_system(VansConfig::optane_1dimm());
    for i in 0..stream_len(smoke) {
        sys.execute(RequestDesc::new(
            Addr::new(0x20_0000 + i * 64),
            64,
            MemOp::StoreClwb,
        ));
    }
    sys.execute(RequestDesc::fence());
    sweep("store_clwb", &sys, smoke)
}

/// Interleaved plain stores (region A) and nt-stores (region B): the
/// plain-store lines route through the WPQ for timing but stay cached
/// architecturally, so every cut must drop them while keeping the
/// admitted nt-store prefix.
fn plain_mix(smoke: bool) -> ExpOutput {
    let mut sys = tracked_system(VansConfig::optane_1dimm());
    for i in 0..stream_len(smoke) {
        sys.execute(RequestDesc::store(Addr::new(0x2000 + i * 64)));
        sys.execute(RequestDesc::nt_store(Addr::new(0x80_0000 + i * 64)));
    }
    sweep("plain_mix", &sys, smoke)
}

/// 128 B nt-stores at offset 192 within each 256 B block: every write
/// straddles two RMW blocks, so lines sit in the RMW buffer at the cut.
fn rmw_straddle(smoke: bool) -> ExpOutput {
    let mut sys = tracked_system(VansConfig::optane_1dimm());
    for k in 0..stream_len(smoke) {
        sys.execute(RequestDesc::new(
            Addr::new(0x40_0000 + k * 256 + 192),
            128,
            MemOp::NtStore,
        ));
    }
    sweep("rmw_straddle", &sys, smoke)
}

/// Hot-block rewrites past the wear threshold: power loss lands while a
/// wear-leveling migration is in flight; migration copies must not
/// promote lines the CPU never persisted.
fn wear_migration(smoke: bool) -> ExpOutput {
    let cfg = VansConfig::builder()
        .name("VANS-wear-crash")
        .wear_threshold(8)
        .media_capacity_bytes(64 << 20)
        .build()
        .expect("valid crashsweep config");
    let mut sys = tracked_system(cfg);
    let rounds = if smoke { 4 } else { 12 };
    for _ in 0..rounds {
        for i in 0..8u64 {
            sys.execute(RequestDesc::nt_store(Addr::new(0x6_0000 + i * 64)));
        }
        sys.execute(RequestDesc::fence());
    }
    sweep("wear_migration", &sys, smoke)
}

/// Two interleaved DIMMs with a stream spanning several 4 KB interleave
/// granules: exercises the physical-address un-routing of per-DIMM
/// write-back logs.
fn nt_2dimm(smoke: bool) -> ExpOutput {
    let cfg = VansConfig::builder()
        .name("VANS-2dimm-crash")
        .dimms(2)
        .build()
        .expect("valid crashsweep config");
    let mut sys = tracked_system(cfg);
    // Stride just under the 4 KB granularity so consecutive lines
    // alternate DIMMs across several granules.
    for i in 0..stream_len(smoke) {
        sys.execute(RequestDesc::nt_store(Addr::new(0x100_0000 + i * 4032)));
    }
    sys.execute(RequestDesc::fence());
    sweep("nt_2dimm", &sys, smoke)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_sweep_has_zero_mismatches_and_all_patterns() {
        let outputs: Vec<ExpOutput> = PATTERNS.iter().map(|&(_, f)| f(true)).collect();
        let combined = combine(outputs);
        assert_eq!(combined.id, "crash");
        assert_eq!(combined.series.len(), 6);
        assert_eq!(total_mismatches(&combined), 0, "oracle disagreed");
        for &(name, _) in &PATTERNS {
            assert!(
                combined.series[0]
                    .points
                    .iter()
                    .any(|(x, _)| x.starts_with(name)),
                "pattern {name} missing from combined output"
            );
        }
        // Every pattern admits at least one line into the ADR domain at
        // its final cut; plain_mix additionally loses its plain stores.
        let lost = combined
            .series
            .iter()
            .find(|s| s.label == "lost_volatile")
            .expect("series");
        assert!(
            lost.points
                .iter()
                .any(|(x, y)| x.starts_with("plain_mix") && *y > 0.0),
            "plain stores must show up as lost lines"
        );
    }

    #[test]
    fn combined_output_is_deterministic() {
        let a = combine(PATTERNS.iter().map(|&(_, f)| f(true)).collect());
        let b = combine(PATTERNS.iter().map(|&(_, f)| f(true)).collect());
        assert_eq!(a, b);
    }
}
