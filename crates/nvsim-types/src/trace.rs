//! Per-stage latency attribution: spans, request traces, and trace sinks.
//!
//! A memory request that enters a simulated datapath crosses a sequence of
//! architectural *stages* — the iMC queues, the DDR-T bus, the on-DIMM
//! buffers, the address-indirection table, the media arrays. Each stage a
//! request visits is recorded as a [`StageSpan`] (a `[start, end]` interval
//! in simulated time); the spans of one request form a [`RequestTrace`],
//! which backends hand to a [`TraceSink`].
//!
//! Three sinks are provided:
//!
//! * [`NullSink`] — discards everything. With tracing disabled, span
//!   recording is a single predictable branch per candidate span
//!   (see [`SpanRecorder`]), so the instrumented datapath costs nothing
//!   measurable.
//! * [`BreakdownSink`] — aggregates spans into a per-stage
//!   [`LatencyBreakdown`] (count / mean / total / share per stage, plus
//!   end-to-end percentiles). This is what powers `bench trace` and the
//!   LENS report's plateau attribution.
//! * [`JsonlSink`] — streams each trace as one deterministic JSON line,
//!   for offline analysis. Two identical simulations produce byte-identical
//!   output.
//!
//! # Span-tiling contract
//!
//! For a single-line (64 B) `Load` against a one-DIMM VANS system the
//! recorded spans *tile* the end-to-end latency exactly: sorted by start
//! time, each span begins where the previous one ended, the first starts at
//! submit time and the last ends at completion time. Write traces do not
//! tile: a store may trigger WPQ drains and posted AIT work whose spans are
//! attributed to the store that caused them, and background media
//! write-backs overlap foreground time. The property suite enforces the
//! read-tiling contract.
//!
//! # Example
//!
//! ```
//! use nvsim_types::trace::{BreakdownSink, RequestTrace, Stage, StageSpan, TraceSink};
//! use nvsim_types::{Addr, MemOp, ReqId, Time};
//!
//! let trace = RequestTrace {
//!     id: ReqId(0),
//!     op: MemOp::Load,
//!     addr: Addr::new(0x40),
//!     start: Time::ZERO,
//!     end: Time::from_ns(100),
//!     spans: vec![StageSpan::new(Stage::Rpq, Time::ZERO, Time::from_ns(100))],
//! };
//! let mut sink = BreakdownSink::new();
//! sink.record(&trace);
//! let bd = sink.breakdown().unwrap();
//! assert_eq!(bd.requests, 1);
//! assert_eq!(bd.rows[0].stage, Stage::Rpq);
//! ```

use crate::addr::Addr;
use crate::durability::PersistEvent;
use crate::request::{MemOp, ReqId};
use crate::stats::{Histogram, RunningStats};
use crate::time::Time;
use std::fmt;
use std::fs;
use std::io;
use std::path::Path;

/// An architectural stage of the simulated datapath that a request can
/// spend time in.
///
/// The taxonomy follows the VANS component graph (paper §IV): host-side iMC
/// structures, the DDR-T bus, the on-DIMM controller buffers, address
/// indirection, the media arrays, and the optimization-study structures
/// (LazyCache, RLB).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[repr(u8)]
pub enum Stage {
    /// Residency in the iMC write-pending queue (the ADR domain): from
    /// store acceptance until the line is durable on the DIMM.
    WpqAdr,
    /// iMC read-pending-queue allocation stall and issue delay.
    Rpq,
    /// DDR-T bus transfer time (request packets, data packets, protocol
    /// overhead).
    DdrTBus,
    /// On-DIMM load-store-queue probe on the read path (forwarding check).
    LsqProbe,
    /// On-DIMM LSQ write acceptance / write-combining on the store path.
    LsqCombine,
    /// RMW buffer access that hit (the ~16 KB plateau of Fig 9a).
    RmwHit,
    /// RMW buffer miss: SRAM access plus the 256 B fill it triggers.
    RmwFill,
    /// AIT buffer hit: one on-DIMM DRAM access for the cached translation.
    AitCacheHit,
    /// AIT buffer miss: table walk in on-DIMM DRAM (the >16 MB plateau).
    AitWalk,
    /// Other on-DIMM DRAM accesses (buffer install traffic).
    OnDimmDram,
    /// 3D-XPoint media array read.
    MediaRead,
    /// 3D-XPoint media array write (includes posted write-backs, which are
    /// attributed to the request that triggered them).
    MediaWrite,
    /// Stall behind an in-progress wear-leveling block migration.
    MigrationStall,
    /// Fence processing: WPQ + LSQ drain until all earlier writes are
    /// durable.
    Fence,
    /// LazyCache (LZ1/LZ2/WLB) hit servicing a request (§V-A case study).
    LazyCache,
    /// Pre-translation RLB lookup (§V-B case study).
    Rlb,
}

impl Stage {
    /// Every stage, in datapath order. Index `i` holds the stage whose
    /// [`index`](Stage::index) is `i`.
    pub const ALL: [Stage; 16] = [
        Stage::WpqAdr,
        Stage::Rpq,
        Stage::DdrTBus,
        Stage::LsqProbe,
        Stage::LsqCombine,
        Stage::RmwHit,
        Stage::RmwFill,
        Stage::AitCacheHit,
        Stage::AitWalk,
        Stage::OnDimmDram,
        Stage::MediaRead,
        Stage::MediaWrite,
        Stage::MigrationStall,
        Stage::Fence,
        Stage::LazyCache,
        Stage::Rlb,
    ];

    /// Number of stages.
    pub const COUNT: usize = Stage::ALL.len();

    /// Dense index of this stage into [`Stage::ALL`].
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }

    /// Short snake_case label, stable across releases — used in JSONL
    /// output, CSV columns and report tables.
    pub fn label(self) -> &'static str {
        match self {
            Stage::WpqAdr => "wpq_adr",
            Stage::Rpq => "rpq",
            Stage::DdrTBus => "ddrt_bus",
            Stage::LsqProbe => "lsq_probe",
            Stage::LsqCombine => "lsq_combine",
            Stage::RmwHit => "rmw_hit",
            Stage::RmwFill => "rmw_fill",
            Stage::AitCacheHit => "ait_cache_hit",
            Stage::AitWalk => "ait_walk",
            Stage::OnDimmDram => "on_dimm_dram",
            Stage::MediaRead => "media_read",
            Stage::MediaWrite => "media_write",
            Stage::MigrationStall => "migration_stall",
            Stage::Fence => "fence",
            Stage::LazyCache => "lazy_cache",
            Stage::Rlb => "rlb",
        }
    }
}

impl fmt::Display for Stage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Time a request spent in one [`Stage`]: the half-open interval
/// `[start, end)` in simulated time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StageSpan {
    /// Which stage.
    pub stage: Stage,
    /// When the request entered the stage.
    pub start: Time,
    /// When the request left the stage.
    pub end: Time,
}

impl StageSpan {
    /// Creates a span.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `end < start`.
    #[inline]
    pub fn new(stage: Stage, start: Time, end: Time) -> Self {
        debug_assert!(end >= start, "span for {stage} ends before it starts");
        StageSpan { stage, start, end }
    }

    /// Time spent in the stage.
    #[inline]
    pub fn duration(&self) -> Time {
        self.end - self.start
    }
}

/// The full per-stage record of one completed memory request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestTrace {
    /// Backend-assigned request id.
    pub id: ReqId,
    /// Operation kind.
    pub op: MemOp,
    /// Physical address of the first byte accessed.
    pub addr: Addr,
    /// When the request entered the memory system.
    pub start: Time,
    /// When the request completed.
    pub end: Time,
    /// Stages visited, in recording order (start-time order for reads).
    pub spans: Vec<StageSpan>,
}

impl RequestTrace {
    /// End-to-end latency of the request.
    pub fn total_latency(&self) -> Time {
        self.end - self.start
    }

    /// Consumes the trace and returns its span buffer, cleared, so a
    /// backend assembling one trace per request can reuse a single
    /// allocation for the lifetime of the simulation.
    pub fn recycle(mut self) -> Vec<StageSpan> {
        self.spans.clear();
        self.spans
    }

    /// Sum of all span durations in picoseconds. Equals
    /// [`total_latency`](Self::total_latency) for requests whose spans tile
    /// (single-line loads); may exceed it for writes that trigger drains.
    pub fn span_sum_ps(&self) -> u64 {
        self.spans.iter().map(|s| s.duration().as_ps()).sum()
    }

    /// Total time attributed to one stage, in picoseconds.
    pub fn stage_total_ps(&self, stage: Stage) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.stage == stage)
            .map(|s| s.duration().as_ps())
            .sum()
    }

    /// Serializes the trace as one deterministic JSON line (no trailing
    /// newline). All values are integers, so the encoding is exact and
    /// byte-stable across runs.
    pub fn to_jsonl(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::with_capacity(96 + self.spans.len() * 56);
        let _ = write!(
            s,
            "{{\"id\":{},\"op\":\"{}\",\"addr\":{},\"start_ps\":{},\"end_ps\":{},\"spans\":[",
            self.id.0,
            self.op.label(),
            self.addr.raw(),
            self.start.as_ps(),
            self.end.as_ps(),
        );
        for (i, sp) in self.spans.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(
                s,
                "{{\"stage\":\"{}\",\"start_ps\":{},\"end_ps\":{}}}",
                sp.stage.label(),
                sp.start.as_ps(),
                sp.end.as_ps(),
            );
        }
        s.push_str("]}");
        s
    }
}

/// Span collection buffer embedded in datapath components.
///
/// Instrumented code calls [`record`](SpanRecorder::record) unconditionally;
/// when the recorder is disabled (the default) that call is one predictable
/// branch and no allocation, which is what keeps the `NullSink`
/// configuration within noise of the uninstrumented datapath.
#[derive(Debug, Clone, Default)]
pub struct SpanRecorder {
    enabled: bool,
    spans: Vec<StageSpan>,
}

impl SpanRecorder {
    /// Creates a disabled recorder.
    pub fn new() -> Self {
        SpanRecorder::default()
    }

    /// Whether spans are being collected.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Enables or disables collection. Disabling discards buffered spans.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
        if !enabled {
            self.spans = Vec::new();
        }
    }

    /// Records a span if collection is enabled.
    #[inline]
    pub fn record(&mut self, stage: Stage, start: Time, end: Time) {
        if self.enabled {
            self.spans.push(StageSpan::new(stage, start, end));
        }
    }

    /// Takes all buffered spans, leaving the recorder empty but enabled.
    #[inline]
    pub fn take_spans(&mut self) -> Vec<StageSpan> {
        std::mem::take(&mut self.spans)
    }

    /// Moves all buffered spans into `out`.
    #[inline]
    pub fn drain_into(&mut self, out: &mut Vec<StageSpan>) {
        out.append(&mut self.spans);
    }
}

/// Consumer of completed [`RequestTrace`]s.
///
/// Backends that support tracing call [`record`](TraceSink::record) once per
/// completed request, synchronously, in submission order — which is what
/// makes [`JsonlSink`] output deterministic.
pub trait TraceSink: fmt::Debug + Send {
    /// Consumes one completed request trace.
    fn record(&mut self, trace: &RequestTrace);

    /// Whether this sink actually consumes traces. Backends skip span
    /// collection and trace assembly entirely while this is `false`
    /// ([`NullSink`] overrides it), so an installed-but-null sink costs
    /// a single flag test per request — the "disabled" configuration of
    /// the layer.
    fn wants_traces(&self) -> bool {
        true
    }

    /// Aggregated per-stage breakdown, if this sink computes one.
    fn breakdown(&self) -> Option<LatencyBreakdown> {
        None
    }

    /// Consumes one durability transition ([`PersistEvent`]). Emitted only
    /// when the backend has durability tracking enabled; sinks that do not
    /// care inherit this no-op.
    fn persist(&mut self, _event: &PersistEvent) {}

    /// Flushes any buffered output.
    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Sink that discards every trace.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullSink;

impl TraceSink for NullSink {
    fn record(&mut self, _trace: &RequestTrace) {}

    fn wants_traces(&self) -> bool {
        false
    }
}

/// One row of a [`LatencyBreakdown`]: aggregate statistics for a stage.
#[derive(Debug, Clone, PartialEq)]
pub struct StageRow {
    /// The stage.
    pub stage: Stage,
    /// Number of spans recorded for the stage.
    pub count: u64,
    /// Mean span duration in nanoseconds.
    pub mean_ns: f64,
    /// Smallest span duration in nanoseconds.
    pub min_ns: f64,
    /// Largest span duration in nanoseconds.
    pub max_ns: f64,
    /// Total time attributed to the stage, in nanoseconds.
    pub total_ns: f64,
    /// Fraction of all attributed time spent in this stage, in `[0, 1]`.
    pub share: f64,
}

/// Aggregated per-stage latency attribution over a set of traced requests.
///
/// Produced by [`BreakdownSink::breakdown`]. Rows cover only stages that
/// appeared at least once, in [`Stage::ALL`] order.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct LatencyBreakdown {
    /// Number of requests traced.
    pub requests: u64,
    /// Mean end-to-end latency in nanoseconds.
    pub e2e_mean_ns: f64,
    /// Median end-to-end latency in nanoseconds.
    pub e2e_p50_ns: f64,
    /// 99th-percentile end-to-end latency in nanoseconds.
    pub e2e_p99_ns: f64,
    /// Per-stage rows (stages with at least one span), in datapath order.
    pub rows: Vec<StageRow>,
}

impl LatencyBreakdown {
    /// The row for `stage`, if any spans were recorded for it.
    pub fn row(&self, stage: Stage) -> Option<&StageRow> {
        self.rows.iter().find(|r| r.stage == stage)
    }

    /// The stage with the largest total attributed time.
    pub fn dominant_stage(&self) -> Option<Stage> {
        self.rows
            .iter()
            .max_by(|a, b| a.total_ns.total_cmp(&b.total_ns))
            .map(|r| r.stage)
    }

    /// Fraction of attributed time spent in `stage` (0 if absent).
    pub fn share(&self, stage: Stage) -> f64 {
        self.row(stage).map_or(0.0, |r| r.share)
    }

    /// Renders the breakdown as a GitHub-flavored markdown table.
    pub fn to_markdown(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = writeln!(
            s,
            "| stage | spans | mean (ns) | total (ns) | share |\n\
             |---|---:|---:|---:|---:|"
        );
        for r in &self.rows {
            let _ = writeln!(
                s,
                "| {} | {} | {:.1} | {:.1} | {:.1}% |",
                r.stage,
                r.count,
                r.mean_ns,
                r.total_ns,
                r.share * 100.0
            );
        }
        let _ = writeln!(
            s,
            "\n{} requests; end-to-end mean {:.1} ns, p50 {:.1} ns, p99 {:.1} ns",
            self.requests, self.e2e_mean_ns, self.e2e_p50_ns, self.e2e_p99_ns
        );
        s
    }

    /// Renders the breakdown as CSV (header + one row per stage).
    pub fn to_csv(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::from("stage,spans,mean_ns,min_ns,max_ns,total_ns,share\n");
        for r in &self.rows {
            let _ = writeln!(
                s,
                "{},{},{:.3},{:.3},{:.3},{:.3},{:.4}",
                r.stage, r.count, r.mean_ns, r.min_ns, r.max_ns, r.total_ns, r.share
            );
        }
        s
    }
}

impl fmt::Display for LatencyBreakdown {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "  {:<16} {:>8} {:>11} {:>12} {:>7}",
            "stage", "spans", "mean (ns)", "total (ns)", "share"
        )?;
        for r in &self.rows {
            writeln!(
                f,
                "  {:<16} {:>8} {:>11.1} {:>12.1} {:>6.1}%",
                r.stage.label(),
                r.count,
                r.mean_ns,
                r.total_ns,
                r.share * 100.0
            )?;
        }
        write!(
            f,
            "  {} requests; e2e mean {:.1} ns, p50 {:.1} ns, p99 {:.1} ns",
            self.requests, self.e2e_mean_ns, self.e2e_p50_ns, self.e2e_p99_ns
        )
    }
}

/// Sink aggregating spans into a per-stage [`LatencyBreakdown`].
#[derive(Debug, Clone)]
pub struct BreakdownSink {
    per_stage: Vec<RunningStats>,
    e2e: RunningStats,
    e2e_hist: Histogram,
}

impl Default for BreakdownSink {
    fn default() -> Self {
        BreakdownSink {
            per_stage: vec![RunningStats::new(); Stage::COUNT],
            e2e: RunningStats::new(),
            e2e_hist: Histogram::new(),
        }
    }
}

impl BreakdownSink {
    /// Creates an empty sink.
    pub fn new() -> Self {
        Self::default()
    }
}

impl TraceSink for BreakdownSink {
    fn record(&mut self, trace: &RequestTrace) {
        for sp in &trace.spans {
            self.per_stage[sp.stage.index()].push(sp.duration().as_ns_f64());
        }
        let e2e = trace.total_latency();
        self.e2e.push_time_ns(e2e);
        self.e2e_hist.push_time_ns(e2e);
    }

    fn breakdown(&self) -> Option<LatencyBreakdown> {
        let mut rows = Vec::new();
        let mut attributed = 0.0;
        for stage in Stage::ALL {
            let s = &self.per_stage[stage.index()];
            if s.count() == 0 {
                continue;
            }
            let total_ns = s.mean() * s.count() as f64;
            attributed += total_ns;
            rows.push(StageRow {
                stage,
                count: s.count(),
                mean_ns: s.mean(),
                min_ns: s.min().unwrap_or(0.0),
                max_ns: s.max().unwrap_or(0.0),
                total_ns,
                share: 0.0,
            });
        }
        if attributed > 0.0 {
            for r in &mut rows {
                r.share = r.total_ns / attributed;
            }
        }
        let (p50, p99) = if self.e2e_hist.is_empty() {
            (0.0, 0.0)
        } else {
            let mut h = self.e2e_hist.clone();
            (h.percentile(50.0), h.percentile(99.0))
        };
        Some(LatencyBreakdown {
            requests: self.e2e.count(),
            e2e_mean_ns: self.e2e.mean(),
            e2e_p50_ns: p50,
            e2e_p99_ns: p99,
            rows,
        })
    }
}

/// Sink streaming each trace as one JSON line to a writer.
///
/// Output is deterministic: integer-only values, fixed key order, one trace
/// per line in completion order. Two same-seed simulations produce
/// byte-identical files.
#[derive(Debug)]
pub struct JsonlSink<W: io::Write + fmt::Debug = io::BufWriter<fs::File>> {
    out: W,
    lines: u64,
}

impl JsonlSink<io::BufWriter<fs::File>> {
    /// Creates (truncating) the file at `path`, creating parent directories
    /// as needed. The conventional location is `results/traces/<name>.jsonl`.
    pub fn create(path: impl AsRef<Path>) -> io::Result<Self> {
        let path = path.as_ref();
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                fs::create_dir_all(parent)?;
            }
        }
        Ok(JsonlSink::new(io::BufWriter::new(fs::File::create(path)?)))
    }
}

impl<W: io::Write + fmt::Debug> JsonlSink<W> {
    /// Wraps an arbitrary writer (e.g. a `Vec<u8>` in tests).
    pub fn new(out: W) -> Self {
        JsonlSink { out, lines: 0 }
    }

    /// Number of traces written so far.
    pub fn lines_written(&self) -> u64 {
        self.lines
    }

    /// Flushes and returns the underlying writer.
    pub fn into_inner(mut self) -> W {
        let _ = self.out.flush();
        self.out
    }
}

impl<W: io::Write + fmt::Debug + Send> TraceSink for JsonlSink<W> {
    fn record(&mut self, trace: &RequestTrace) {
        // IO errors can't propagate through the hot path; fail loudly
        // rather than silently truncating an analysis artifact.
        #[expect(
            clippy::expect_used,
            reason = "diagnostics-only sink; an IO error here must abort rather than \
                      silently truncate the artifact"
        )]
        writeln!(self.out, "{}", trace.to_jsonl()).expect("trace JSONL write failed");
        self.lines += 1;
    }

    fn persist(&mut self, event: &PersistEvent) {
        // Same determinism contract as `record`: integer-only values in a
        // fixed key order, one event per line, interleaved with traces in
        // emission order.
        let row = format!(
            "{{\"persist\":{{\"line\":{},\"from\":\"{}\",\"to\":\"{}\",\"at_ns\":{},\"seq\":{},\"insertion\":{}}}}}",
            event.line,
            event.from.label(),
            event.to.label(),
            event.at.as_ns(),
            event.seq,
            event.insertion
        );
        #[expect(
            clippy::expect_used,
            reason = "diagnostics-only sink; an IO error here must abort rather than \
                      silently truncate the artifact"
        )]
        writeln!(self.out, "{row}").expect("persist JSONL write failed");
        self.lines += 1;
    }

    fn flush(&mut self) -> io::Result<()> {
        self.out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_trace() -> RequestTrace {
        RequestTrace {
            id: ReqId(3),
            op: MemOp::Load,
            addr: Addr::new(64),
            start: Time::from_ns(10),
            end: Time::from_ns(110),
            spans: vec![
                StageSpan::new(Stage::Rpq, Time::from_ns(10), Time::from_ns(30)),
                StageSpan::new(Stage::DdrTBus, Time::from_ns(30), Time::from_ns(50)),
                StageSpan::new(Stage::RmwHit, Time::from_ns(50), Time::from_ns(110)),
            ],
        }
    }

    #[test]
    fn stage_indexing_is_dense_and_labels_unique() {
        for (i, s) in Stage::ALL.iter().enumerate() {
            assert_eq!(s.index(), i);
        }
        let mut labels: Vec<_> = Stage::ALL.iter().map(|s| s.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), Stage::COUNT);
    }

    #[test]
    fn trace_sums() {
        let t = sample_trace();
        assert_eq!(t.total_latency(), Time::from_ns(100));
        assert_eq!(t.span_sum_ps(), Time::from_ns(100).as_ps());
        assert_eq!(t.stage_total_ps(Stage::RmwHit), Time::from_ns(60).as_ps());
        assert_eq!(t.stage_total_ps(Stage::MediaRead), 0);
    }

    #[test]
    fn recorder_disabled_by_default() {
        let mut r = SpanRecorder::new();
        r.record(Stage::Rpq, Time::ZERO, Time::from_ns(1));
        assert!(r.take_spans().is_empty());
        r.set_enabled(true);
        r.record(Stage::Rpq, Time::ZERO, Time::from_ns(1));
        assert_eq!(r.take_spans().len(), 1);
        r.record(Stage::Rpq, Time::ZERO, Time::from_ns(1));
        r.set_enabled(false);
        assert!(r.take_spans().is_empty());
    }

    #[test]
    fn breakdown_aggregates_and_shares_sum_to_one() {
        let mut sink = BreakdownSink::new();
        sink.record(&sample_trace());
        sink.record(&sample_trace());
        let bd = sink.breakdown().unwrap();
        assert_eq!(bd.requests, 2);
        assert_eq!(bd.rows.len(), 3);
        assert_eq!(bd.dominant_stage(), Some(Stage::RmwHit));
        let share_sum: f64 = bd.rows.iter().map(|r| r.share).sum();
        assert!((share_sum - 1.0).abs() < 1e-12);
        assert!((bd.share(Stage::RmwHit) - 0.6).abs() < 1e-12);
        assert!((bd.e2e_mean_ns - 100.0).abs() < 1e-9);
        assert_eq!(bd.row(Stage::Rpq).unwrap().count, 2);
        // Rendering paths don't panic and mention every stage present.
        for text in [bd.to_markdown(), bd.to_csv(), bd.to_string()] {
            assert!(text.contains("rmw_hit"), "missing stage in: {text}");
        }
    }

    #[test]
    fn jsonl_line_is_exact() {
        let t = sample_trace();
        assert_eq!(
            t.to_jsonl(),
            "{\"id\":3,\"op\":\"ld\",\"addr\":64,\"start_ps\":10000,\"end_ps\":110000,\
             \"spans\":[{\"stage\":\"rpq\",\"start_ps\":10000,\"end_ps\":30000},\
             {\"stage\":\"ddrt_bus\",\"start_ps\":30000,\"end_ps\":50000},\
             {\"stage\":\"rmw_hit\",\"start_ps\":50000,\"end_ps\":110000}]}"
        );
    }

    #[test]
    fn jsonl_sink_is_deterministic() {
        let render = || {
            let mut sink = JsonlSink::new(Vec::new());
            sink.record(&sample_trace());
            sink.record(&sample_trace());
            assert_eq!(sink.lines_written(), 2);
            sink.into_inner()
        };
        let a = render();
        assert_eq!(a, render());
        assert_eq!(a.iter().filter(|&&b| b == b'\n').count(), 2);
    }

    #[test]
    fn null_sink_reports_no_breakdown() {
        let mut s = NullSink;
        s.record(&sample_trace());
        assert!(s.breakdown().is_none());
        assert!(s.flush().is_ok());
    }

    #[test]
    fn only_the_null_sink_declines_traces() {
        assert!(!NullSink.wants_traces());
        assert!(BreakdownSink::new().wants_traces());
        assert!(JsonlSink::new(Vec::new()).wants_traces());
    }
}
