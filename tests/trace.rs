//! End-to-end tests of the trace/observability layer: span-tiling and
//! span-sum invariants for loads, byte-level determinism of the JSONL
//! dump, and the per-plateau attribution the paper's Fig 9a discussion
//! implies.

#![expect(
    clippy::disallowed_types,
    reason = "test code: a shared buffer lets the test read what a boxed sink wrote"
)]

use lens::microbench::{PtrChaseMode, PtrChasing};
use lens::plateau_stage_breakdowns;
use nvsim::prelude::*;
use nvsim::types::trace::{BreakdownSink, JsonlSink, RequestTrace, Stage, TraceSink};
use proptest::prelude::*;
use std::io;
use std::sync::{Arc, Mutex};

/// A sink that shares its collected traces with the test body
/// (`Arc<Mutex<..>>` because `TraceSink` requires `Send`).
#[derive(Debug, Clone, Default)]
struct SharedSink(Arc<Mutex<Vec<RequestTrace>>>);

impl TraceSink for SharedSink {
    fn record(&mut self, trace: &RequestTrace) {
        self.0.lock().unwrap().push(trace.clone());
    }
}

/// A writer that shares its bytes with the test body (so a `JsonlSink`
/// can be boxed into the backend and still be inspected afterwards).
#[derive(Debug, Clone, Default)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl io::Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Stages whose spans are posted (background) work and therefore exempt
/// from the load-path tiling contract (see `nvsim_types::trace` docs).
fn is_posted(stage: Stage) -> bool {
    matches!(stage, Stage::OnDimmDram | Stage::MediaWrite)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// For single-line loads, the recorded synchronous spans tile the
    /// end-to-end interval exactly: sorted by start, the first span
    /// begins at submission, each span begins where the previous ended,
    /// and the last ends at completion. Consequently their durations sum
    /// to the end-to-end latency.
    #[test]
    fn load_spans_tile_end_to_end(
        lines in prop::collection::vec(0u64..(1 << 16), 1..80)
    ) {
        let mut sys = MemorySystem::new(VansConfig::tiny_for_tests()).unwrap();
        let sink = SharedSink::default();
        prop_assert!(sys.configure_session(SessionOptions::new().trace_sink(Box::new(sink.clone()))));
        for line in lines {
            sys.execute(RequestDesc::load(Addr::new(line * 64)));
        }
        let traces = sink.0.lock().unwrap();
        prop_assert!(!traces.is_empty());
        for t in traces.iter() {
            let mut spans: Vec<_> = t
                .spans
                .iter()
                .filter(|s| !is_posted(s.stage))
                .collect();
            spans.sort_by_key(|s| (s.start, s.end));
            prop_assert!(!spans.is_empty(), "{}: no synchronous spans", t.id);
            prop_assert_eq!(spans[0].start, t.start, "first span starts late");
            prop_assert_eq!(
                spans.last().unwrap().end, t.end,
                "last span ends early"
            );
            for w in spans.windows(2) {
                prop_assert_eq!(
                    w[0].end, w[1].start,
                    "{}: gap/overlap between {} and {}",
                    t.id, w[0].stage, w[1].stage
                );
            }
            let sum: Time = spans.iter().map(|s| s.duration()).sum();
            prop_assert_eq!(sum, t.total_latency());
        }
    }
}

#[test]
fn jsonl_dump_is_deterministic() {
    let dump = || {
        let buf = SharedBuf::default();
        let mut sys = MemorySystem::new(VansConfig::tiny_for_tests()).unwrap();
        assert!(sys.configure_session(
            SessionOptions::new().trace_sink(Box::new(JsonlSink::new(buf.clone())))
        ));
        PtrChasing::read(64 << 10).with_passes(2).run(&mut sys);
        sys.flush_traces().unwrap();
        let bytes = buf.0.lock().unwrap().clone();
        bytes
    };
    let a = dump();
    let b = dump();
    assert!(!a.is_empty());
    assert_eq!(a, b, "same seed + same pattern must dump identical bytes");
}

#[test]
fn plateau_attribution_matches_the_papers_story() {
    // Tiny config: RMW 1 KB, AIT buffer 1 MB — the probe regions are
    // 512 B (RMW plateau), 512 KB (AIT plateau) and 4 MB (media).
    let cfg = VansConfig::tiny_for_tests();
    let caps = [cfg.rmw.capacity_bytes(), cfg.ait.capacity_bytes()];
    let fresh = move || MemorySystem::new(cfg.clone()).unwrap();
    let plateaus = plateau_stage_breakdowns(&caps, PtrChaseMode::Read, fresh);
    assert_eq!(plateaus.len(), 3);

    // Inside the RMW buffer: warm reads are RMW hits.
    assert_eq!(
        plateaus[0].breakdown.dominant_stage(),
        Some(Stage::RmwHit),
        "\n{}",
        plateaus[0].breakdown
    );
    // Beyond every buffer: the AIT walk + media read dominate.
    let media = &plateaus[2].breakdown;
    let walk_media = media.share(Stage::AitWalk) + media.share(Stage::MediaRead);
    assert!(
        walk_media > 0.5,
        "ait_walk+media_read share {walk_media:.2}\n{media}"
    );
    // Latency must rise plateau over plateau, as in Fig 9a.
    assert!(
        plateaus[0].breakdown.e2e_mean_ns < plateaus[1].breakdown.e2e_mean_ns
            && plateaus[1].breakdown.e2e_mean_ns < plateaus[2].breakdown.e2e_mean_ns
    );
}

#[test]
fn breakdown_sink_attribution_is_complete_for_loads() {
    // With only loads in flight the attributed share of e2e time is
    // exactly 1 (the tiling property aggregated): check BreakdownSink's
    // accounting against the e2e histogram.
    let mut sys = MemorySystem::new(VansConfig::tiny_for_tests()).unwrap();
    assert!(sys.configure_session(SessionOptions::new().trace_sink(Box::new(BreakdownSink::new()))));
    PtrChasing::read(32 << 10).with_passes(1).run(&mut sys);
    let b = sys.breakdown().expect("breakdown available");
    assert!(b.requests > 0);
    let sync_total: f64 = b
        .rows
        .iter()
        .filter(|r| !is_posted(r.stage))
        .map(|r| r.total_ns)
        .sum();
    let e2e_total = b.e2e_mean_ns * b.requests as f64;
    let ratio = sync_total / e2e_total;
    assert!(
        (ratio - 1.0).abs() < 1e-6,
        "synchronous spans cover {ratio:.4} of e2e time"
    );
}
