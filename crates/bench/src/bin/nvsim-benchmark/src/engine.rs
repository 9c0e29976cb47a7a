//! The two engine workloads: dependent requests driven straight into
//! `MemoryBackend::execute` of a one-DIMM VANS `MemorySystem`.
//!
//! * `vans-read-cold` — 64 B loads, uniformly random over 1 GiB (64× the
//!   16 MB AIT buffer): AIT, buffer, media and DRAM do most of the work,
//!   the write path none.
//! * `vans-write-mix` — per window, 8 nt-stores appending into a 1 MiB log
//!   ring, 8 nt-stores and 16 loads random over 64 MiB, then a fence:
//!   WPQ, LSQ combining, RMW fills, AIT writes and fences carry the load.
//!
//! Set-up sweeps one functional-warming load over every page of the
//! footprint (so every AIT translation exists, as in a long-running
//! simulation) and then runs a timed warm-up from its own stream; the
//! warmed system is saved as a snapshot. Every measured rep restores that
//! snapshot and replays the same request stream, so reps do identical
//! simulated work and their digests must agree.

use crate::replay::{self, ChainedDimm, End, Layer, Start, Stats};
use crate::report::{
    fastest_per_position, peak_rss_mb, percentile, quartiles, setup_count, Digest, Outcome,
    RepPlan, Value,
};
use crate::trace;
use nvsim::optane_model::OptaneReference;
use nvsim::types::trace::{BreakdownSink, Stage};
use nvsim::types::{Addr, ConfigError, DetRng, MemOp, MemoryBackend, RequestDesc, SessionOptions};
use nvsim::vans::{MemorySystem, VansConfig};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

const READ_FOOTPRINT: u64 = 1 << 30;
const MIX_FOOTPRINT: u64 = 64 << 20;
/// The write-mix log ring sits right above the random region.
const LOG_RING: u64 = 1 << 20;
const LINE: u64 = 64;
const PAGE: u64 = 4096;
/// Salt separating the warm-up stream from the measured one.
const WARM_SALT: u64 = 0x5741_524d;
/// Windows per timed batch: the unit whose host time `batch_us_*`
/// reports (about 250 requests, long enough that a host interrupt does
/// not make a tail on its own).
const BATCH_WINDOWS: u64 = 8;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    ReadCold,
    WriteMix,
}

impl Kind {
    /// Requests per window (the write-mix fence period).
    pub fn window(self) -> u64 {
        match self {
            Kind::ReadCold => 32,
            Kind::WriteMix => 33,
        }
    }

    /// Host seconds of one full-size rep on the machine the benchmark was
    /// tuned on; it fixes how many reps a run of `--seconds` makes.
    fn nominal_rep_s(self) -> f64 {
        match self {
            Kind::ReadCold => 0.5,
            Kind::WriteMix => 0.7,
        }
    }

    fn footprint(self) -> u64 {
        match self {
            Kind::ReadCold => READ_FOOTPRINT,
            Kind::WriteMix => MIX_FOOTPRINT + LOG_RING,
        }
    }

    /// The set-up stream, in order: the page sweep (functional warming,
    /// `timed == false`), then the timed warm-up windows.
    pub fn warmup(self, seed: u64, shape: Shape, mut f: impl FnMut(RequestDesc, bool)) {
        for page in 0..self.footprint() / PAGE {
            f(RequestDesc::load(Addr::new(page * PAGE)), false);
        }
        let mut gen = Generator::new(self, seed ^ WARM_SALT);
        for _ in 0..shape.warmup_windows * self.window() {
            f(gen.next_request(), true);
        }
    }
}

/// Work sizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shape {
    pub warmup_windows: u64,
    pub rep_batches: u64,
    /// Windows of the measured stream the traced run's ledger replays.
    pub ledger_windows: u64,
}

impl Shape {
    pub fn full() -> Shape {
        Shape {
            warmup_windows: 4096,
            rep_batches: 2048,
            ledger_windows: 2048,
        }
    }

    pub fn smoke() -> Shape {
        Shape {
            warmup_windows: 128,
            rep_batches: 32,
            ledger_windows: 128,
        }
    }
}

/// The request stream of one workload, a pure function of its seed.
#[derive(Debug, Clone)]
pub struct Generator {
    kind: Kind,
    rng: DetRng,
    pos: u64,
    log_next: u64,
}

impl Generator {
    pub fn new(kind: Kind, seed: u64) -> Generator {
        let mut rng = DetRng::seed_from(seed);
        let log_next = rng.range_u64(0, LOG_RING / LINE);
        Generator {
            kind,
            rng,
            pos: 0,
            log_next,
        }
    }

    pub fn next_request(&mut self) -> RequestDesc {
        let p = self.pos % self.kind.window();
        self.pos += 1;
        match self.kind {
            Kind::ReadCold => self.random(READ_FOOTPRINT, MemOp::Load),
            Kind::WriteMix if p == 32 => RequestDesc::fence(),
            Kind::WriteMix if p.is_multiple_of(4) => {
                let addr = Addr::new(MIX_FOOTPRINT + self.log_next * LINE);
                self.log_next = (self.log_next + 1) % (LOG_RING / LINE);
                RequestDesc::nt_store(addr)
            }
            Kind::WriteMix if p % 4 == 1 => self.random(MIX_FOOTPRINT, MemOp::NtStore),
            Kind::WriteMix => self.random(MIX_FOOTPRINT, MemOp::Load),
        }
    }

    fn random(&mut self, footprint: u64, op: MemOp) -> RequestDesc {
        let addr = Addr::new(self.rng.range_u64(0, footprint / LINE) * LINE);
        RequestDesc::new(addr, 64, op)
    }
}

/// A warmed system plus the measured stream's start.
#[derive(Debug)]
pub struct Engine {
    pub kind: Kind,
    pub shape: Shape,
    pub sys: MemorySystem,
    blob: Vec<u8>,
    gen: Generator,
}

/// What one rep did.
#[derive(Debug)]
struct Rep {
    secs: f64,
    digest: u64,
    start: Stats,
    end: Stats,
    sim_ns: f64,
    bus_reads: u64,
}

impl Engine {
    /// Builds and warms a system (the workload's set-up).
    pub fn setup(kind: Kind, seed: u64, shape: Shape) -> Result<Engine, ConfigError> {
        let mut sys = MemorySystem::new(VansConfig::optane_1dimm())?;
        kind.warmup(seed, shape, |d, timed| {
            if timed {
                black_box(sys.execute(d));
            } else {
                sys.warm_access(&d);
            }
        });
        let blob = sys.save_snapshot().expect("VANS systems snapshot");
        Ok(Engine {
            kind,
            shape,
            sys,
            blob,
            gen: Generator::new(kind, seed),
        })
    }

    /// The first `n` requests of the measured stream.
    pub fn stream(&self, n: u64) -> Vec<RequestDesc> {
        let mut gen = self.gen.clone();
        (0..n).map(|_| gen.next_request()).collect()
    }

    /// Returns the system to the measured stream's start.
    fn restore(&mut self) {
        self.sys
            .restore_snapshot(&self.blob)
            .expect("a blob restores into the system that saved it");
    }

    fn digest(&self) -> u64 {
        let mut d = Digest::default();
        for v in self.sys.counters().as_map().values() {
            d.word(*v);
        }
        d.word(self.sys.now().as_ps());
        d.bytes(format!("{:?}", Stats::of_dimm(&self.sys.dimms()[0])).as_bytes());
        d.0
    }

    /// One measured rep. Batch host times go to `batches_us`; a traced
    /// rep records a span per request around generation and execution.
    fn rep(&mut self, batches_us: &mut Vec<f64>, traced: bool) -> Rep {
        self.restore();
        let start = Stats::of_dimm(&self.sys.dimms()[0]);
        let (t0, reads0) = (self.sys.now(), self.sys.counters().bus_reads);
        let mut gen = self.gen.clone();
        let batch = BATCH_WINDOWS * self.kind.window();
        let began = Instant::now();
        for _ in 0..self.shape.rep_batches {
            let w = Instant::now();
            for _ in 0..batch {
                if traced {
                    let _r = trace::enter("bench.request");
                    let d = {
                        let _g = trace::enter("bench.client.generate");
                        gen.next_request()
                    };
                    let _e = trace::enter("vans.system.execute");
                    black_box(self.sys.execute(d));
                } else {
                    let d = gen.next_request();
                    black_box(self.sys.execute(d));
                }
            }
            batches_us.push(w.elapsed().as_secs_f64() * 1e6);
        }
        let secs = began.elapsed().as_secs_f64();
        Rep {
            secs,
            digest: self.digest(),
            start,
            end: Stats::of_dimm(&self.sys.dimms()[0]),
            sim_ns: (self.sys.now() - t0).as_ns_f64(),
            bus_reads: self.sys.counters().bus_reads - reads0,
        }
    }

    fn rep_requests(&self) -> u64 {
        self.shape.rep_batches * BATCH_WINDOWS * self.kind.window()
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Runs one engine workload: the untraced end-to-end reps a run of
/// `seconds` plans, or (traced) the per-layer ledger.
pub fn run(kind: Kind, seed: u64, seconds: f64, shape: Shape, traced: bool) -> Outcome {
    let mut out = Outcome::default();
    let mut setups = Vec::new();
    let mut engine = None;
    for _ in 0..setup_count(traced) {
        let t = Instant::now();
        engine = Some(Engine::setup(kind, seed, shape).expect("the VANS preset is valid"));
        setups.push(t.elapsed().as_secs_f64());
    }
    let mut engine = engine.expect("set up at least once");
    // A traced run measures two untraced reps, for the overhead's base.
    let plan = RepPlan::new(if traced { 0.0 } else { seconds }, kind.nominal_rep_s());
    let mut reps = Vec::new();
    let mut batches_us = Vec::new();
    while plan.more(reps.len()) {
        let mut times = Vec::new();
        reps.push(engine.rep(&mut times, false));
        batches_us.push(times);
    }
    if let Some(n) = plan.shortfall(reps.len()) {
        out.note(n);
    }
    let requests = engine.rep_requests();
    out.attempted = requests * reps.len() as u64;
    let first = reps[0].digest;
    let diverged = reps.iter().filter(|r| r.digest != first).count() as u64;
    out.failed += diverged * requests;
    out.check(
        "reps-identical",
        diverged == 0,
        format!(
            "{diverged} of {} reps diverged from rep 0's digest",
            reps.len()
        ),
    );
    out.digest = first;

    // Simulated read latency against the analytical Optane reference.
    let rep = &reps[0];
    let sim_read_ns = rep.sim_ns / rep.bus_reads.max(1) as f64;
    if kind == Kind::ReadCold {
        let reference = OptaneReference::new().read_latency_ns(READ_FOOTPRINT, 1);
        let err = (sim_read_ns - reference) / reference * 100.0;
        out.note(format!(
            "simulated read latency {sim_read_ns:.1} ns vs Optane reference {reference:.1} ns: model error {err:+.2}%"
        ));
        out.check(
            "model-error-within-10pct",
            err.abs() <= 10.0,
            format!("model error {err:+.2}% exceeds 10%"),
        );
        if err.abs() > 10.0 {
            out.failed = out.attempted;
        }
        if traced {
            out.set("sim.read_latency_ns", Value::of(sim_read_ns));
            out.set("sim.model_error_pct", Value::of(err));
        }
    } else {
        out.note(format!(
            "simulated time {:.1} ns per request (no hardware reference exists for this mix)",
            rep.sim_ns / requests as f64
        ));
    }

    if !traced {
        let mut batches = fastest_per_position(&batches_us);
        let rates: Vec<f64> = reps.iter().map(|r| requests as f64 / r.secs).collect();
        let (q1, med, q3) = quartiles(&rates);
        out.set("setup_s", Value::median_of(&setups));
        out.set(
            "ops_per_s",
            Value::of(requests as f64 / (batches.iter().sum::<f64>() / 1e6)),
        );
        out.set("batch_us_p50", Value::of(percentile(&mut batches, 50.0)));
        out.set("batch_us_p99", Value::of(percentile(&mut batches, 99.0)));
        out.set("peak_rss_mb", Value::of(peak_rss_mb()));
        out.note(format!(
            "{} identical reps of {requests} requests, timed in {} batches of {} requests; rep rates median {med:.0} op/s [q1 {q1:.0}, q3 {q3:.0}]",
            reps.len(),
            batches.len(),
            BATCH_WINDOWS * kind.window()
        ));
        return out;
    }

    // Traced: one rep with spans (same work, same digest), then the ledger.
    out.exercise(&LAYER_METRICS);
    out.exercise(&STAGES.map(|s| s.0));
    if kind == Kind::ReadCold {
        out.exercise(&["sim.read_latency_ns", "sim.model_error_pct"]);
    }
    let untraced = quartiles(&reps.iter().map(|r| r.secs).collect::<Vec<_>>()).1;
    trace::install();
    let traced_rep = engine.rep(&mut Vec::new(), true);
    out.check(
        "traced-digest-equal",
        traced_rep.digest == first,
        "the traced rep's digest differs from the untraced reps'",
    );
    if traced_rep.digest != first {
        out.failed += requests;
    }
    out.attempted += requests;
    out.set(
        "trace.overhead_pct",
        Value::of((traced_rep.secs - untraced) / untraced * 100.0),
    );
    counts(&mut out, &traced_rep);
    let traced_ns = traced_rep.secs / requests as f64 * 1e9;
    ledger(&mut out, &mut engine, seed, seconds, traced_ns);
    out.tracer = trace::finish();
    out
}

/// The per-layer metrics every traced engine run sets, besides the stage
/// shares.
const LAYER_METRICS: [&str; 28] = [
    "trace.overhead_pct",
    "bench.client.generator_ns",
    "vans.system.self_ns",
    "vans.dimm.self_ns",
    "vans.imc.ns",
    "vans.lsq.ns",
    "vans.rmw.ns",
    "vans.ait.self_ns",
    "vans.buffer.ns",
    "dram.ns",
    "media.ns",
    "ledger.unattributed_pct",
    "vans.imc.wpq_allocations",
    "vans.imc.wpq_merge_ratio",
    "vans.imc.wpq_stalls",
    "vans.imc.rpq_stalls",
    "vans.lsq.read_forward_ratio",
    "vans.lsq.combined_drains",
    "vans.rmw.read_hit_ratio",
    "vans.rmw.write_hit_ratio",
    "vans.rmw.fills",
    "vans.ait.buffer_hit_ratio",
    "vans.ait.translation_hit_ratio",
    "vans.ait.writebacks",
    "vans.ait.migrations",
    "vans.ait.dram_accesses",
    "media.units_read",
    "media.units_written",
];

/// Stage shares reported from a `BreakdownSink` over the ledger stream.
const STAGES: [(&str, Stage); 8] = [
    ("sim.stage.rmw_fill.share", Stage::RmwFill),
    ("sim.stage.ait_walk.share", Stage::AitWalk),
    ("sim.stage.ait_cache_hit.share", Stage::AitCacheHit),
    ("sim.stage.media_read.share", Stage::MediaRead),
    ("sim.stage.media_write.share", Stage::MediaWrite),
    ("sim.stage.wpq_adr.share", Stage::WpqAdr),
    ("sim.stage.lsq_combine.share", Stage::LsqCombine),
    ("sim.stage.fence.share", Stage::Fence),
];

fn layer_span(layer: Layer) -> &'static str {
    match layer {
        Layer::Imc => "vans.imc.replay",
        Layer::Lsq => "vans.lsq.replay",
        Layer::Rmw => "vans.rmw.replay",
        Layer::Ait => "vans.ait.replay",
        Layer::Buffer => "vans.buffer.replay",
        Layer::Dram => "dram.replay",
        Layer::Media => "media.replay",
    }
}

/// The component ledger, in host ns per request, over the first
/// `ledger_windows` of the measured stream: the integrated system, the
/// DIMM driven directly, and every component replayed alone, in
/// interleaved rounds (medians reported) until `seconds` have passed.
/// `traced_ns` is the traced rep's end-to-end time per request.
fn ledger(out: &mut Outcome, engine: &mut Engine, seed: u64, seconds: f64, traced_ns: f64) {
    let kind = engine.kind;
    let cfg = engine.sys.config().clone();
    let n = engine.shape.ledger_windows * kind.window();
    let stream = engine.stream(n);
    let began = Instant::now();

    let mut chain = ChainedDimm::new(&cfg).expect("the VANS preset has one DIMM");
    kind.warmup(seed, engine.shape, |d, timed| {
        if timed {
            chain.execute(d);
        } else {
            chain.warm(&d);
        }
    });
    engine.restore();
    let start_ok =
        chain.stats() == Stats::of_dimm(&engine.sys.dimms()[0]) && chain.now == engine.sys.now();
    let start = Start::capture(&chain);
    chain.start_logging();
    for &d in &stream {
        chain.execute(d);
    }
    let logs = chain.take_logs();
    for &d in &stream {
        black_box(engine.sys.execute(d));
    }
    let stats = Stats::of_dimm(&engine.sys.dimms()[0]);
    let end_now = engine.sys.now();
    let got = chain.stats();
    let chain_ok = start_ok && chain.now == end_now;
    let shadow_ok = chain.shadow_agrees();
    let end = End::new(stats, &chain);
    let mut valid: BTreeMap<Layer, bool> = BTreeMap::from([
        (Layer::Imc, got.imc == stats.imc),
        (Layer::Lsq, got.lsq == stats.lsq),
        (Layer::Rmw, got.rmw == stats.rmw),
        (Layer::Ait, got.ait == stats.ait && got.media == stats.media),
        (Layer::Buffer, shadow_ok),
        (Layer::Dram, shadow_ok),
        (Layer::Media, shadow_ok),
    ]);
    for v in valid.values_mut() {
        *v &= chain_ok;
    }
    let mut dimm_ok = true;

    let mut samples: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let mut rounds = 0;
    while rounds < 3 || began.elapsed().as_secs_f64() < seconds {
        let p = Instant::now();
        let mut gen = engine.gen.clone();
        for _ in 0..n {
            black_box(gen.next_request());
        }
        let e = Instant::now();
        trace::phase("bench.client.generate.pass", p, e);
        samples
            .entry("gen")
            .or_default()
            .push((e - p).as_secs_f64());

        engine.restore();
        let p = Instant::now();
        for &d in &stream {
            black_box(engine.sys.execute(d));
        }
        let e = Instant::now();
        trace::phase("vans.system.pass", p, e);
        samples
            .entry("exec")
            .or_default()
            .push((e - p).as_secs_f64());

        engine.restore();
        let mut now = engine.sys.now();
        let p = Instant::now();
        {
            let dimm = &mut engine.sys.dimms_mut()[0];
            for &d in &stream {
                let done = match d.op {
                    MemOp::Load => dimm.read_line(d.addr, now),
                    MemOp::NtStore => dimm.write_line(d.addr, now),
                    _ => dimm.fence(now),
                };
                now = now.max(done);
            }
        }
        let e = Instant::now();
        trace::phase("vans.dimm.pass", p, e);
        samples
            .entry("dimm")
            .or_default()
            .push((e - p).as_secs_f64());
        dimm_ok &= Stats::of_dimm(&engine.sys.dimms()[0]) == stats && now == end_now;

        for layer in Layer::ALL {
            let p = Instant::now();
            let (secs, ok) =
                replay::replay(&cfg, &start, &logs, &end, layer).expect("the VANS preset is valid");
            trace::phase(layer_span(layer), p, Instant::now());
            samples.entry(layer_span(layer)).or_default().push(secs);
            if let Some(v) = valid.get_mut(&layer) {
                *v &= ok;
            }
        }
        rounds += 1;
    }
    let ns = |k: &str| quartiles(&samples[k]).1 / n as f64 * 1e9;
    let layer_ns = |l: Layer| ns(layer_span(l));
    let ok = |l: Layer| valid[&l];
    let value = |v: f64, ok: bool| if ok { Value::of(v) } else { Value::INVALID };
    let (gen, exec, dimm) = (ns("gen"), ns("exec"), ns("dimm"));
    let parts = [Layer::Imc, Layer::Lsq, Layer::Rmw, Layer::Ait];
    out.set("bench.client.generator_ns", Value::of(gen));
    out.set("vans.system.self_ns", value(exec - dimm, dimm_ok));
    out.set(
        "vans.dimm.self_ns",
        value(
            dimm - parts.iter().map(|&l| layer_ns(l)).sum::<f64>(),
            dimm_ok && parts.iter().all(|&l| ok(l)),
        ),
    );
    out.set("vans.imc.ns", value(layer_ns(Layer::Imc), ok(Layer::Imc)));
    out.set("vans.lsq.ns", value(layer_ns(Layer::Lsq), ok(Layer::Lsq)));
    out.set("vans.rmw.ns", value(layer_ns(Layer::Rmw), ok(Layer::Rmw)));
    let inner = [Layer::Buffer, Layer::Dram, Layer::Media];
    out.set(
        "vans.ait.self_ns",
        value(
            layer_ns(Layer::Ait) - inner.iter().map(|&l| layer_ns(l)).sum::<f64>(),
            ok(Layer::Ait) && inner.iter().all(|&l| ok(l)),
        ),
    );
    out.set(
        "vans.buffer.ns",
        value(layer_ns(Layer::Buffer), ok(Layer::Buffer)),
    );
    out.set("dram.ns", value(layer_ns(Layer::Dram), ok(Layer::Dram)));
    out.set("media.ns", value(layer_ns(Layer::Media), ok(Layer::Media)));
    out.set(
        "ledger.unattributed_pct",
        Value::of((traced_ns - gen - exec) / traced_ns * 100.0),
    );
    let invalid: Vec<Layer> = valid.iter().filter(|(_, &v)| !v).map(|(&l, _)| l).collect();
    out.note(format!(
        "ledger: {rounds} interleaved rounds over {n} requests; replays not reproducing the engine: {invalid:?}{}",
        if dimm_ok { "" } else { " (and the direct DIMM drive)" }
    ));

    // Simulated stage attribution over the same stream, on a copy.
    let mut sys = MemorySystem::new(cfg).expect("the VANS preset is valid");
    sys.restore_snapshot(&engine.blob)
        .expect("a blob restores into an identical configuration");
    sys.configure_session(SessionOptions::new().trace_sink(Box::new(BreakdownSink::new())));
    for &d in &stream {
        black_box(sys.execute(d));
    }
    out.check(
        "breakdown-run-identical",
        Stats::of_dimm(&sys.dimms()[0]) == stats && sys.now() == end_now,
        "recording stage spans changed the simulated result",
    );
    if let Some(bd) = sys.breakdown() {
        for (name, stage) in STAGES {
            out.set(name, Value::of(bd.share(stage)));
        }
    }
}

/// Simulated counts of one rep (deltas over the rep).
fn counts(out: &mut Outcome, rep: &Rep) {
    let (s, e) = (&rep.start, &rep.end);
    let imc_alloc = e.imc.wpq_allocations - s.imc.wpq_allocations;
    let imc_merge = e.imc.wpq_merges - s.imc.wpq_merges;
    let rmw_rh = e.rmw.read_hits - s.rmw.read_hits;
    let rmw_rm = e.rmw.read_misses - s.rmw.read_misses;
    let rmw_wh = e.rmw.write_hits - s.rmw.write_hits;
    let rmw_wm = e.rmw.write_misses - s.rmw.write_misses;
    let bh = e.ait.buffer_hits - s.ait.buffer_hits;
    let bm = e.ait.buffer_misses - s.ait.buffer_misses;
    let th = e.ait.translation_hits - s.ait.translation_hits;
    let tm = e.ait.translation_misses - s.ait.translation_misses;
    let c = |v: u64| Value::of(v as f64);
    out.set("vans.imc.wpq_allocations", c(imc_alloc));
    out.set(
        "vans.imc.wpq_merge_ratio",
        Value::of(ratio(imc_merge, imc_merge + imc_alloc)),
    );
    out.set(
        "vans.imc.wpq_stalls",
        c(e.imc.wpq_stalls - s.imc.wpq_stalls),
    );
    out.set(
        "vans.imc.rpq_stalls",
        c(e.imc.rpq_stalls - s.imc.rpq_stalls),
    );
    out.set(
        "vans.lsq.read_forward_ratio",
        Value::of(ratio(
            e.lsq.read_forwards - s.lsq.read_forwards,
            rep.bus_reads,
        )),
    );
    out.set(
        "vans.lsq.combined_drains",
        c(e.lsq.combined_drains - s.lsq.combined_drains),
    );
    out.set(
        "vans.rmw.read_hit_ratio",
        Value::of(ratio(rmw_rh, rmw_rh + rmw_rm)),
    );
    out.set(
        "vans.rmw.write_hit_ratio",
        Value::of(ratio(rmw_wh, rmw_wh + rmw_wm)),
    );
    out.set(
        "vans.rmw.fills",
        c((e.rmw.fill_bytes - s.rmw.fill_bytes) / 256),
    );
    out.set("vans.ait.buffer_hit_ratio", Value::of(ratio(bh, bh + bm)));
    out.set(
        "vans.ait.translation_hit_ratio",
        Value::of(ratio(th, th + tm)),
    );
    out.set(
        "vans.ait.writebacks",
        c(e.ait.writebacks - s.ait.writebacks),
    );
    out.set(
        "vans.ait.migrations",
        c(e.ait.migrations - s.ait.migrations),
    );
    out.set(
        "vans.ait.dram_accesses",
        c(e.ait.dram_accesses - s.ait.dram_accesses),
    );
    out.set(
        "media.units_read",
        c(e.media.units_read - s.media.units_read),
    );
    out.set(
        "media.units_written",
        c(e.media.units_written - s.media.units_written),
    );
}
