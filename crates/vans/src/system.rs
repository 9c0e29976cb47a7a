//! The top-level memory system: multi-DIMM composition, 4 KB
//! interleaving, and the [`MemoryBackend`] implementation that LENS, the
//! CPU model, and the experiment harness drive.

use crate::config::VansConfig;
use crate::dimm::NvDimm;
use crate::opt::lazy_cache::{LazyCache, LazyCacheConfig};
use crate::opt::pretranslation::{PreTranslation, PreTranslationConfig};
use crate::persist::{DrainModel, LiveOccupancy, LoggedRequest, PersistTracker};
use nvsim_types::snapshot::{
    restore_blob, save_blob, Snapshot, SnapshotError, SnapshotReader, SnapshotWriter,
};
use nvsim_types::trace::{LatencyBreakdown, RequestTrace, Stage, StageSpan, TraceSink};
use nvsim_types::{
    Addr, BackendCounters, BackendError, ConfigError, CrashImage, DetRng, FaultPlan, InFlight,
    MemOp, MemoryBackend, ReqId, RequestDesc, ResolvedCut, SessionOptions, Time, CACHE_LINE,
    CACHE_LINE_U32,
};
use std::io;

/// The VANS memory system.
///
/// # Example
///
/// ```
/// use vans::{MemorySystem, VansConfig};
/// use nvsim_types::{Addr, MemoryBackend, RequestDesc};
///
/// let mut sys = MemorySystem::new(VansConfig::optane_1dimm())?;
/// let done = sys.execute(RequestDesc::nt_store(Addr::new(0x40)));
/// sys.fence();
/// assert!(sys.counters().bus_bytes_written >= 64);
/// # drop(done);
/// # Ok::<(), nvsim_types::ConfigError>(())
/// ```
#[derive(Debug)]
pub struct MemorySystem {
    // nvsim-lint: allow(snapshot-field-coverage) — construction-time configuration; never mutated.
    cfg: VansConfig,
    dimms: Vec<NvDimm>,
    pretrans: Option<PreTranslation>,
    now: Time,
    next_id: u64,
    /// Completion times not yet taken; the snapshot flags the newest
    /// request's entry ([`InFlight::save_newest_flagged`]).
    in_flight: InFlight,
    /// Bus-level traffic counters (host side).
    bus_reads: u64,
    bus_writes: u64,
    bus_bytes_read: u64,
    bus_bytes_written: u64,
    fences: u64,
    /// Trace sink, when tracing is enabled via `configure_session`.
    // nvsim-lint: allow(snapshot-field-coverage) — session plumbing bound by `configure_session`; the restoring session keeps its own sink.
    sink: Option<Box<dyn TraceSink>>,
    /// Cached `sink.wants_traces()`: the hot path tests this flag
    /// instead of making a virtual call per request.
    // nvsim-lint: allow(snapshot-field-coverage) — cached view of the restoring session's sink; session plumbing, not snapshot state.
    tracing: bool,
    /// System-level spans (pre-translation RLB lookups) waiting to be
    /// attached to the next submitted request's trace.
    // nvsim-lint: allow(snapshot-field-coverage) — undrained spans belong to the saving run's diagnostics; restore clears them.
    pending_sys_spans: Vec<StageSpan>,
    /// Recycled span buffer for trace assembly (one allocation reused
    /// across every traced request).
    // nvsim-lint: allow(snapshot-field-coverage) — recycled scratch, emptied before each use; carries no cross-call state.
    trace_scratch: Vec<StageSpan>,
    /// Durability history (persist events + request log), populated only
    /// while durability tracking is enabled via `configure_session`.
    persist: PersistTracker,
    /// Recycled scratch for draining per-DIMM media write-back records.
    // nvsim-lint: allow(snapshot-field-coverage) — recycled scratch, emptied before each use; carries no cross-call state.
    persist_scratch: Vec<(u64, Time)>,
    /// Modeled supercap hold-up budget for the ADR drain on power loss.
    supercap_budget: Time,
    /// Requested snapshot cadence (instructions between automatic
    /// checkpoints), set via [`SessionOptions::snapshot_interval`]. The
    /// system itself does not count instructions; drivers read this back.
    // nvsim-lint: allow(snapshot-field-coverage) — session cadence set via `configure_session`; the restoring session keeps its own.
    snapshot_interval: Option<u64>,
}

impl MemorySystem {
    /// Builds a memory system from a validated configuration.
    ///
    /// # Errors
    ///
    /// Returns the first configuration validation error.
    pub fn new(cfg: VansConfig) -> Result<Self, ConfigError> {
        cfg.validate()?;
        let dimms = (0..cfg.interleave.dimms)
            .map(|_| NvDimm::new(&cfg))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(MemorySystem {
            cfg,
            dimms,
            pretrans: None,
            now: Time::ZERO,
            next_id: 0,
            in_flight: InFlight::default(),
            bus_reads: 0,
            bus_writes: 0,
            bus_bytes_read: 0,
            bus_bytes_written: 0,
            fences: 0,
            sink: None,
            tracing: false,
            pending_sys_spans: Vec::new(),
            trace_scratch: Vec::new(),
            persist: PersistTracker::default(),
            persist_scratch: Vec::new(),
            supercap_budget: Time::from_us(crate::params::SUPERCAP_BUDGET_US),
            snapshot_interval: None,
        })
    }

    /// Flushes the installed trace sink's buffered output, if any.
    pub fn flush_traces(&mut self) -> io::Result<()> {
        match self.sink.as_mut() {
            Some(sink) => sink.flush(),
            None => Ok(()),
        }
    }

    /// The configuration in effect.
    pub fn config(&self) -> &VansConfig {
        &self.cfg
    }

    /// Enables the Lazy cache case study on every DIMM.
    pub fn enable_lazy_cache(&mut self, cfg: LazyCacheConfig) {
        for d in &mut self.dimms {
            d.lazy = Some(LazyCache::new(cfg));
        }
    }

    /// Enables the Pre-translation case study.
    pub fn enable_pretranslation(&mut self, cfg: PreTranslationConfig) {
        self.pretrans = Some(PreTranslation::new(cfg));
    }

    /// Access to the DIMMs (for experiment instrumentation).
    pub fn dimms(&self) -> &[NvDimm] {
        &self.dimms
    }

    /// Mutable access to the DIMMs.
    pub fn dimms_mut(&mut self) -> &mut [NvDimm] {
        &mut self.dimms
    }

    /// Pre-translation statistics, if enabled.
    pub fn pretranslation_stats(&self) -> Option<crate::opt::pretranslation::PreTranslationStats> {
        self.pretrans.as_ref().map(|p| p.stats())
    }

    /// Routes a physical address to `(dimm_index, local_address)` under
    /// the configured interleaving.
    pub fn route(&self, addr: Addr) -> (usize, Addr) {
        let g = self.cfg.interleave.granularity as u64;
        let n = self.cfg.interleave.dimms as u64;
        if n == 1 {
            return (0, addr);
        }
        let chunk = addr.raw() / g;
        let dimm = (chunk % n) as usize;
        let local = (chunk / n) * g + addr.raw() % g;
        (dimm, Addr::new(local))
    }

    /// Inverse of [`route`](MemorySystem::route): maps a DIMM-local
    /// address back to the physical address it interleaves from.
    pub fn unroute(&self, dimm: usize, local: Addr) -> Addr {
        let g = self.cfg.interleave.granularity as u64;
        let n = self.cfg.interleave.dimms as u64;
        if n == 1 {
            return local;
        }
        let chunk = (local.raw() / g) * n + dimm as u64;
        Addr::new(chunk * g + local.raw() % g)
    }

    /// The durability-tracking application behind
    /// [`configure_session`](MemoryBackend::configure_session)'s
    /// `durability_tracking` option. Enabling starts a fresh history
    /// (persist-event log + request log); the tracked run can then be
    /// crash-tested any number of times with
    /// [`inject_power_loss`](MemorySystem::inject_power_loss).
    fn apply_durability_tracking(&mut self, enabled: bool) {
        self.persist.set_enabled(enabled);
        for d in &mut self.dimms {
            d.set_persist_tracking(enabled);
        }
    }

    /// The snapshot cadence requested via
    /// [`SessionOptions::snapshot_interval`], if any. The system does not
    /// count instructions itself; sampling drivers read this back.
    pub fn snapshot_interval(&self) -> Option<u64> {
        self.snapshot_interval
    }

    /// Is durability tracking enabled?
    pub fn durability_tracking(&self) -> bool {
        self.persist.enabled()
    }

    /// The request log recorded under durability tracking (what the
    /// [`crate::crashcheck`] oracle replays).
    pub fn request_log(&self) -> &[LoggedRequest] {
        self.persist.log()
    }

    /// Total WPQ insertions recorded under durability tracking.
    pub fn wpq_insertions(&self) -> u64 {
        self.persist.insertions()
    }

    /// The modeled supercap hold-up budget for the power-loss ADR drain.
    pub fn supercap_budget(&self) -> Time {
        self.supercap_budget
    }

    /// Injects a power failure and returns the resulting [`CrashImage`].
    ///
    /// The simulated clock is frozen at the cut: the fault plan is
    /// resolved against the run's history (a probabilistic plan draws its
    /// WPQ-insertion cut here, deterministically from its seed), the
    /// persist-event log is replayed up to the cut, and the modeled
    /// supercap drains exactly the ADR domain — every line admitted to
    /// the WPQ or below it reaches media, everything still in the CPU
    /// cache is lost. The datapath itself is untouched and `now` does not
    /// advance, so the same run can be probed at many cut points and even
    /// continued afterwards.
    ///
    /// Requires durability tracking; without it the image is empty.
    pub fn inject_power_loss(&self, plan: &FaultPlan) -> CrashImage {
        let cut = match plan {
            FaultPlan::AtTime(t) => ResolvedCut::Time(*t),
            FaultPlan::AtWpqInsertion(k) => ResolvedCut::Insertion(*k),
            FaultPlan::Probabilistic { seed } => {
                let total = self.persist.insertions();
                if total == 0 {
                    ResolvedCut::Time(self.now)
                } else {
                    let mut rng = DetRng::seed_from(*seed);
                    ResolvedCut::Insertion(rng.range_u64(1, total + 1))
                }
            }
        };
        let lines_per_page = (self.cfg.ait.entry_bytes / CACHE_LINE_U32) as u64;
        // Per-page drain cost: writing one AIT page to media, estimated as
        // die write latency per access unit plus the internal bus move.
        let page_units = (self.cfg.ait.entry_bytes / self.cfg.media.access_unit).max(1) as u64;
        let page_cost = Time::from_ns(self.cfg.media.write_latency.as_ns() * page_units)
            + self.cfg.media.bus_time(self.cfg.ait.entry_bytes as u64);
        let drain = DrainModel {
            protocol_overhead: self.cfg.imc.protocol_overhead,
            line_cost: self.cfg.imc.bus_transfer + self.cfg.imc.drain_period,
            page_cost,
            budget: self.supercap_budget,
            lines_per_page,
        };
        let mut live = LiveOccupancy::default();
        for d in &self.dimms {
            live.wpq_lines += d.imc.wpq_occupancy() as u64;
            live.lsq_lines += d.lsq.occupancy() as u64;
            live.rmw_blocks += d.rmw.occupancy() as u64;
            live.ait_dirty_pages += d.ait.dirty_pages();
            live.media_lines_written += d.ait.media_stats().lines_written();
        }
        self.persist.image(cut, &drain, live)
    }

    /// Collects the media write-back records the DIMMs logged during the
    /// last request and turns them into OnMedia transitions (page → lines,
    /// unrouted back to physical addresses).
    fn collect_persist_writebacks(&mut self) {
        let lines_per_page = (self.cfg.ait.entry_bytes / CACHE_LINE_U32) as u64;
        let entry_bytes = self.cfg.ait.entry_bytes as u64;
        for di in 0..self.dimms.len() {
            self.persist_scratch.clear();
            self.dimms[di].drain_persist_into(&mut self.persist_scratch);
            for i in 0..self.persist_scratch.len() {
                let (page, at) = self.persist_scratch[i];
                for li in 0..lines_per_page {
                    let local = Addr::new(page * entry_bytes + li * CACHE_LINE);
                    let phys = self.unroute(di, local);
                    self.persist.record_media_line(phys.line_index(), at);
                }
            }
        }
    }

    /// Computes the completion time of a request submitted at `self.now`.
    fn process(&mut self, desc: RequestDesc) -> Time {
        let now = self.now;
        match desc.op {
            MemOp::Fence => {
                self.fences += 1;
                let mut done = now;
                for d in &mut self.dimms {
                    done = done.max(d.fence(now));
                }
                done
            }
            MemOp::Load => {
                self.bus_reads += desc.cache_lines();
                self.bus_bytes_read += desc.size as u64;
                let mut done = now;
                let first_line = desc.addr.align_down(CACHE_LINE);
                for i in 0..desc.cache_lines() {
                    let line = first_line + i * CACHE_LINE;
                    let (di, local) = self.route(line);
                    done = done.max(self.dimms[di].read_line(local, now));
                }
                done
            }
            MemOp::Store | MemOp::StoreClwb | MemOp::NtStore => {
                self.bus_writes += desc.cache_lines();
                self.bus_bytes_written += desc.size as u64;
                let mut done = now;
                let first_line = desc.addr.align_down(CACHE_LINE);
                for i in 0..desc.cache_lines() {
                    let line = first_line + i * CACHE_LINE;
                    let (di, local) = self.route(line);
                    // A regular (cacheable) store performs an implicit
                    // read-for-ownership before the line can be written
                    // back; NT stores bypass it. This is what inverts the
                    // store/NT-store bandwidth ordering vs. PMEP (Fig 1a).
                    let start = if desc.op == MemOp::Store {
                        self.bus_reads += 1;
                        self.bus_bytes_read += CACHE_LINE;
                        self.dimms[di].read_line(local, now)
                    } else {
                        now
                    };
                    let mut t = self.dimms[di].write_line(local, start);
                    if self.persist.enabled() {
                        // `t` is the WPQ acceptance time `write_line`
                        // reports — the ADR admission instant for
                        // persistent stores. A plain cacheable store
                        // demotes the line's durable image instead (the
                        // latest value stays in the CPU cache).
                        self.persist.record_store_line(
                            line.line_index(),
                            desc.op != MemOp::Store,
                            t,
                        );
                    }
                    if desc.op == MemOp::StoreClwb {
                        // clwb forces an immediate write-back instead of
                        // letting the WPQ retire the line lazily: a small
                        // latency plus extra drain-engine occupancy that
                        // throttles clwb streams below NT streams
                        // (Fig 1a's ordering).
                        t += Time::from_ns(crate::params::CLWB_WRITEBACK_NS);
                        self.dimms[di].imc.charge_drain(
                            start,
                            Time::from_ns(crate::params::CLWB_DRAIN_CHARGE_NS),
                        );
                    }
                    done = done.max(t);
                }
                done
            }
        }
    }
}

impl MemoryBackend for MemorySystem {
    fn label(&self) -> String {
        self.cfg.name.clone()
    }

    fn now(&self) -> Time {
        self.now
    }

    fn submit(&mut self, desc: RequestDesc) -> ReqId {
        let id = ReqId(self.next_id);
        self.next_id += 1;
        let start = self.now;
        if self.persist.enabled() {
            self.persist.begin_request(id, &desc, start);
        }
        let done = self.process(desc);
        if self.persist.enabled() {
            // Media write-backs triggered while processing (dirty AIT
            // evictions, fence flushes) are OnMedia transitions.
            self.collect_persist_writebacks();
            if self.tracing {
                if let Some(sink) = &mut self.sink {
                    for ev in self.persist.unforwarded_events() {
                        sink.persist(ev);
                    }
                }
            }
        }
        self.in_flight.push(id, done);
        if self.tracing {
            let mut spans = std::mem::take(&mut self.trace_scratch);
            spans.append(&mut self.pending_sys_spans);
            for d in &mut self.dimms {
                d.drain_spans(&mut spans);
            }
            // Recording order already follows the datapath; sort by start
            // time so multi-line requests interleave deterministically.
            spans.sort_by_key(|s| (s.start, s.end, s.stage.index()));
            let trace = RequestTrace {
                id,
                op: desc.op,
                addr: desc.addr,
                start,
                end: done,
                spans,
            };
            if let Some(sink) = &mut self.sink {
                sink.record(&trace);
            }
            self.trace_scratch = trace.recycle();
        }
        id
    }

    fn try_take_completion(&mut self, id: ReqId) -> Result<Time, BackendError> {
        self.in_flight.take(id)
    }

    fn drain(&mut self) -> Time {
        self.now = self.in_flight.drain(self.now);
        self.now
    }

    fn skip_to(&mut self, t: Time) {
        self.now = self.now.max(t);
    }

    fn counters(&self) -> BackendCounters {
        let mut c = BackendCounters {
            bus_reads: self.bus_reads,
            bus_writes: self.bus_writes,
            bus_bytes_read: self.bus_bytes_read,
            bus_bytes_written: self.bus_bytes_written,
            fences: self.fences,
            ..Default::default()
        };
        for d in &self.dimms {
            let rmw = d.rmw.stats();
            c.rmw_hits += rmw.read_hits + rmw.write_hits;
            c.rmw_misses += rmw.read_misses + rmw.write_misses;
            let ait = d.ait.stats();
            c.ait_hits += ait.buffer_hits;
            c.ait_misses += ait.buffer_misses;
            c.migrations += ait.migrations;
            c.on_dimm_dram_accesses += ait.dram_accesses;
            let m = d.ait.media_stats();
            c.media_bytes_read += m.bytes_read;
            c.media_bytes_written += m.bytes_written;
            let lsq = d.lsq.stats();
            c.lsq_combines += lsq.write_merges + lsq.combined_drains;
        }
        c
    }

    fn reset_counters(&mut self) {
        self.bus_reads = 0;
        self.bus_writes = 0;
        self.bus_bytes_read = 0;
        self.bus_bytes_written = 0;
        self.fences = 0;
        for d in &mut self.dimms {
            d.rmw.reset_stats();
            d.ait.reset_stats();
            d.lsq.reset_stats();
            d.imc.reset_stats();
        }
    }

    fn models_persistence_ops(&self) -> bool {
        true
    }

    fn mkpt_lookup(&mut self, paddr: Addr, t: Time) -> Option<(u64, Time)> {
        let p = self.pretrans.as_mut()?;
        let entry = p.lookup(paddr, t)?;
        if self.tracing {
            // Attributed to the *next* submitted request, which is the
            // dependent load this lookup accelerates.
            self.pending_sys_spans
                .push(StageSpan::new(Stage::Rlb, t, entry.ready_at));
        }
        Some((entry.pfn, entry.ready_at))
    }

    fn mkpt_update(&mut self, paddr: Addr, pfn: u64) {
        if let Some(p) = self.pretrans.as_mut() {
            p.update(paddr, pfn);
        }
    }

    fn configure_session(&mut self, mut opts: SessionOptions) -> bool {
        if let Some(sink) = opts.take_trace_sink() {
            // A sink that wants nothing (NullSink) leaves the datapath
            // recorders disabled: installing it is how tracing is turned
            // off without tearing the sink out.
            self.tracing = sink.wants_traces();
            for d in &mut self.dimms {
                d.set_tracing(self.tracing);
            }
            self.sink = Some(sink);
        }
        if let Some(enabled) = opts.durability_tracking_requested() {
            self.apply_durability_tracking(enabled);
        }
        if let Some(interval) = opts.snapshot_interval_requested() {
            self.snapshot_interval = Some(interval);
        }
        true
    }

    fn inject_power_loss(&self, plan: &FaultPlan) -> Option<CrashImage> {
        Some(MemorySystem::inject_power_loss(self, plan))
    }

    fn save_snapshot(&self) -> Option<Vec<u8>> {
        Some(save_blob(self))
    }

    fn restore_snapshot(&mut self, blob: &[u8]) -> Result<bool, SnapshotError> {
        restore_blob(self, blob)?;
        Ok(true)
    }

    fn warm_access(&mut self, desc: &RequestDesc) {
        match desc.op {
            MemOp::Fence => {
                for d in &mut self.dimms {
                    d.warm_fence();
                }
            }
            MemOp::Load => {
                let first_line = desc.addr.align_down(CACHE_LINE);
                for i in 0..desc.cache_lines() {
                    let line = first_line + i * CACHE_LINE;
                    let (di, local) = self.route(line);
                    self.dimms[di].warm_line(local, false);
                }
            }
            MemOp::Store | MemOp::StoreClwb | MemOp::NtStore => {
                let first_line = desc.addr.align_down(CACHE_LINE);
                for i in 0..desc.cache_lines() {
                    let line = first_line + i * CACHE_LINE;
                    let (di, local) = self.route(line);
                    if desc.op == MemOp::Store {
                        // The implicit read-for-ownership warms read state.
                        self.dimms[di].warm_line(local, false);
                    }
                    self.dimms[di].warm_line(local, true);
                }
            }
        }
    }

    fn breakdown(&self) -> Option<LatencyBreakdown> {
        self.sink.as_ref()?.breakdown()
    }
}

/// Section tag of [`MemorySystem`] snapshots.
const SECTION_SYSTEM: u16 = 0x35;

impl Snapshot for MemorySystem {
    fn save(&self, w: &mut SnapshotWriter) {
        w.section(SECTION_SYSTEM);
        w.put_time(self.now);
        w.put_u64(self.next_id);
        self.in_flight.save_newest_flagged(self.next_id, w);
        w.put_u64(self.bus_reads);
        w.put_u64(self.bus_writes);
        w.put_u64(self.bus_bytes_read);
        w.put_u64(self.bus_bytes_written);
        w.put_u64(self.fences);
        w.put_time(self.supercap_budget);
        w.put_usize(self.dimms.len());
        for d in &self.dimms {
            d.save(w);
        }
        match &self.pretrans {
            Some(p) => {
                w.put_bool(true);
                p.save(w);
            }
            None => w.put_bool(false),
        }
        self.persist.save(w);
    }

    fn restore(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        r.expect_section(SECTION_SYSTEM)?;
        self.now = r.get_time()?;
        self.next_id = r.get_u64()?;
        self.in_flight.restore_newest_flagged(self.next_id, r)?;
        self.bus_reads = r.get_u64()?;
        self.bus_writes = r.get_u64()?;
        self.bus_bytes_read = r.get_u64()?;
        self.bus_bytes_written = r.get_u64()?;
        self.fences = r.get_u64()?;
        self.supercap_budget = r.get_time()?;
        if r.get_usize()? != self.dimms.len() {
            return Err(r.invalid("DIMM count differs from this configuration"));
        }
        for d in &mut self.dimms {
            d.restore(r)?;
        }
        let had_pretrans = r.get_bool()?;
        match (had_pretrans, self.pretrans.as_mut()) {
            (true, Some(p)) => p.restore(r)?,
            (false, None) => {}
            _ => return Err(r.invalid("pre-translation presence differs from this configuration")),
        }
        self.persist.restore(r)?;
        // Session plumbing (sink, tracing, scratch buffers) belongs to
        // the restoring session, not the snapshot.
        self.pending_sys_spans.clear();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sys() -> MemorySystem {
        MemorySystem::new(VansConfig::optane_1dimm()).expect("valid preset")
    }

    #[test]
    fn single_dimm_routing_is_identity() {
        let s = sys();
        let (d, local) = s.route(Addr::new(123456));
        assert_eq!(d, 0);
        assert_eq!(local, Addr::new(123456));
    }

    #[test]
    fn six_dimm_routing_interleaves_4kb_chunks() {
        let s = MemorySystem::new(VansConfig::optane_6dimm()).unwrap();
        // First 4KB chunk on DIMM 0, second on DIMM 1, ...
        assert_eq!(s.route(Addr::new(0)).0, 0);
        assert_eq!(s.route(Addr::new(4096)).0, 1);
        assert_eq!(s.route(Addr::new(5 * 4096)).0, 5);
        assert_eq!(s.route(Addr::new(6 * 4096)).0, 0);
        // Local addresses are compacted.
        assert_eq!(s.route(Addr::new(6 * 4096)).1, Addr::new(4096));
        // Offsets inside a chunk are preserved.
        assert_eq!(s.route(Addr::new(4096 + 100)).1, Addr::new(100));
    }

    #[test]
    #[expect(
        clippy::disallowed_types,
        reason = "test-only membership set, never iterated"
    )]
    fn routing_is_injective_per_dimm() {
        let s = MemorySystem::new(VansConfig::optane_6dimm()).unwrap();
        let mut seen = std::collections::HashSet::new();
        for i in 0..10_000u64 {
            let a = Addr::new(i * 64);
            let (d, local) = s.route(a);
            assert!(seen.insert((d, local.raw())), "collision at {a}");
        }
    }

    #[test]
    fn load_roundtrip_advances_time() {
        let mut s = sys();
        let t = s.execute(RequestDesc::load(Addr::new(0)));
        assert!(t > Time::ZERO);
        assert_eq!(s.now(), t);
        assert_eq!(s.counters().bus_reads, 1);
    }

    #[test]
    fn one_load_after_a_long_skip_returns() {
        // 2^62 ps is about 6 * 10^11 refresh intervals of the on-DIMM
        // DRAM; the load that catches up on them takes constant time.
        let mut s = sys();
        s.execute(RequestDesc::load(Addr::new(0)));
        let skip = Time::from_ps(1 << 62);
        s.skip_to(skip);
        let t = s.execute(RequestDesc::load(Addr::new(1 << 20)));
        assert!(t > skip);
        assert!(t - skip < Time::from_us(10), "{}", t - skip);
        assert_eq!(s.counters().bus_reads, 2);
    }

    #[test]
    fn multi_line_load_touches_all_lines() {
        let mut s = sys();
        s.execute(RequestDesc::new(Addr::new(0), 256, MemOp::Load));
        let c = s.counters();
        assert_eq!(c.bus_reads, 4);
        assert_eq!(c.bus_bytes_read, 256);
    }

    #[test]
    fn regular_store_pays_rfo() {
        let mut s = sys();
        s.execute(RequestDesc::store(Addr::new(0)));
        let c = s.counters();
        assert_eq!(c.bus_writes, 1);
        assert_eq!(c.bus_reads, 1, "RFO read expected");
        let mut s2 = sys();
        s2.execute(RequestDesc::nt_store(Addr::new(0)));
        assert_eq!(s2.counters().bus_reads, 0);
    }

    #[test]
    fn nt_store_faster_than_regular_store() {
        let mut s = sys();
        let nt = s.execute(RequestDesc::nt_store(Addr::new(0)));
        let mut s2 = sys();
        let st = s2.execute(RequestDesc::store(Addr::new(0)));
        assert!(nt < st, "nt {nt} !< st {st}");
    }

    #[test]
    fn fence_completes_pending_writes() {
        let mut s = sys();
        for i in 0..8u64 {
            s.execute(RequestDesc::nt_store(Addr::new(i * 64)));
        }
        let t = s.fence();
        assert!(t >= s.now());
        assert_eq!(s.counters().fences, 1);
    }

    #[test]
    #[expect(
        clippy::unreachable,
        reason = "test-only: the loop returns on its second pass"
    )]
    fn pointer_chase_read_plateaus() {
        // The headline behaviour: reads get slower as the region grows
        // past each buffer capacity.
        let mut s = sys();
        let lat = |s: &mut MemorySystem, region: u64| -> f64 {
            // One pass to warm, one to measure.
            for pass in 0..2 {
                let start = s.now();
                let lines = region / 64;
                let mut sum = Time::ZERO;
                let mut t = start;
                // Simple strided chase with a large prime stride to avoid
                // trivial prefetch-like locality.
                let mut idx = 0u64;
                for _ in 0..lines {
                    let a = Addr::new((idx % lines) * 64);
                    let before = t;
                    t = s.execute(RequestDesc::load(a));
                    sum += t - before;
                    idx += 7919;
                }
                if pass == 1 {
                    return sum.as_ns_f64() / lines as f64;
                }
            }
            unreachable!()
        };
        let small = lat(&mut s, 8 * 1024); // fits RMW (16KB)
        let mut s2 = sys();
        let medium = lat(&mut s2, 1 << 20); // fits AIT (16MB), misses RMW
        let mut s3 = sys();
        let large = lat(&mut s3, 64 << 20); // misses AIT
        assert!(
            small < medium && medium < large,
            "plateaus: small {small:.0} medium {medium:.0} large {large:.0}"
        );
    }

    #[test]
    fn counters_reset() {
        let mut s = sys();
        s.execute(RequestDesc::load(Addr::new(0)));
        s.reset_counters();
        assert_eq!(s.counters(), BackendCounters::default());
    }

    #[test]
    fn pretranslation_disabled_by_default() {
        let mut s = sys();
        assert!(s.mkpt_lookup(Addr::new(0), Time::ZERO).is_none());
        s.mkpt_update(Addr::new(0), 7);
        assert!(s.mkpt_lookup(Addr::new(0), Time::ZERO).is_none());
    }

    #[test]
    fn pretranslation_roundtrip_when_enabled() {
        let mut s = sys();
        s.enable_pretranslation(PreTranslationConfig::paper());
        s.mkpt_update(Addr::new(0x1000), 99);
        let (pfn, ready) = s.mkpt_lookup(Addr::new(0x1000), Time::ZERO).unwrap();
        assert_eq!(pfn, 99);
        assert!(ready > Time::ZERO);
        assert_eq!(s.pretranslation_stats().unwrap().updates, 1);
    }

    #[test]
    fn lazy_cache_enabled_on_all_dimms() {
        let mut s = MemorySystem::new(VansConfig::optane_6dimm()).unwrap();
        s.enable_lazy_cache(LazyCacheConfig::paper());
        assert!(s.dimms().iter().all(|d| d.lazy.is_some()));
    }

    #[test]
    fn persistence_ops_modeled() {
        assert!(sys().models_persistence_ops());
    }

    #[test]
    fn unroute_inverts_route() {
        let s = MemorySystem::new(VansConfig::optane_6dimm()).unwrap();
        for i in 0..5000u64 {
            let a = Addr::new(i * 64 + (i % 64));
            let (d, local) = s.route(a);
            assert_eq!(s.unroute(d, local), a, "addr {a}");
        }
        let s1 = sys();
        assert_eq!(s1.unroute(0, Addr::new(777)), Addr::new(777));
    }

    #[test]
    fn power_loss_image_matches_contract_end_to_end() {
        let mut s = sys();
        s.configure_session(SessionOptions::new().durability_tracking(true));
        for i in 0..4u64 {
            s.execute(RequestDesc::nt_store(Addr::new(0x1000 + i * 64)));
        }
        s.execute(RequestDesc::store(Addr::new(0x8000)));
        s.execute(RequestDesc::new(Addr::new(0x9000), 64, MemOp::StoreClwb));
        let img = s.inject_power_loss(&FaultPlan::at_time(s.now()));
        assert!(img.is_durable(Addr::new(0x1000)), "nt-store reached WPQ");
        assert!(img.is_durable(Addr::new(0x9000)), "clwb'd store durable");
        assert!(!img.is_durable(Addr::new(0x8000)), "cached store is lost");
        assert_eq!(img.counters.wpq_insertions, 5);
        // Every line still sitting in the WPQ whose latest write was a
        // persistent store is ADR-resident → durable. (A plain store also
        // crosses the WPQ in the timing model, but its *latest value*
        // stays in the CPU cache, so it is exempt.)
        let plain_line = Addr::new(0x8000).line_index();
        for line in s.dimms()[0].imc.wpq_lines() {
            if line != plain_line {
                assert!(img.is_line_durable(line), "WPQ line {line} must survive");
            }
        }
        let diff = crate::crashcheck::diff_image(&img, s.request_log());
        assert!(
            diff.is_empty(),
            "{}",
            crate::crashcheck::report(&img.cut, &diff)
        );
        // Injection froze the clock and left the run reusable.
        let now = s.now();
        let img2 = s.inject_power_loss(&FaultPlan::at_time(now));
        assert_eq!(img, img2);
        assert_eq!(s.now(), now);
        s.execute(RequestDesc::nt_store(Addr::new(0x8000)));
        assert!(s
            .inject_power_loss(&FaultPlan::at_time(s.now()))
            .is_durable(Addr::new(0x8000)));
    }

    #[test]
    fn probabilistic_plan_resolves_deterministically() {
        let mut s = sys();
        s.configure_session(SessionOptions::new().durability_tracking(true));
        for i in 0..10u64 {
            s.execute(RequestDesc::nt_store(Addr::new(i * 64)));
        }
        let a = s.inject_power_loss(&FaultPlan::probabilistic(42));
        let b = s.inject_power_loss(&FaultPlan::probabilistic(42));
        assert_eq!(a.cut, b.cut, "same seed, same cut");
        match a.cut {
            ResolvedCut::Insertion(k) => assert!((1..=10).contains(&k)),
            other => panic!("expected an insertion cut, got {other:?}"),
        }
        // No insertions: falls back to a cut at `now`.
        let mut empty = sys();
        empty.configure_session(SessionOptions::new().durability_tracking(true));
        empty.execute(RequestDesc::load(Addr::new(0)));
        let img = empty.inject_power_loss(&FaultPlan::probabilistic(7));
        assert_eq!(img.cut, ResolvedCut::Time(empty.now()));
        assert_eq!(img.tracked_lines(), 0);
    }

    #[test]
    fn tracking_disabled_yields_an_empty_image() {
        let mut s = sys();
        s.execute(RequestDesc::nt_store(Addr::new(0)));
        let img = s.inject_power_loss(&FaultPlan::at_time(s.now()));
        assert_eq!(img.tracked_lines(), 0);
        assert!(s.request_log().is_empty());
    }

    /// Drives `s` through a deterministic mixed workload of `n` requests
    /// starting at seed offset `phase`.
    fn drive(s: &mut MemorySystem, phase: u64, n: u64) {
        let mut rng = DetRng::seed_from(0x5eed ^ phase);
        for i in 0..n {
            let addr = Addr::new((rng.next_u64() % 4096) * 64);
            match (phase + i) % 5 {
                0 => drop(s.execute(RequestDesc::load(addr))),
                1 => drop(s.execute(RequestDesc::store(addr))),
                2 => drop(s.execute(RequestDesc::nt_store(addr))),
                3 => drop(s.execute(RequestDesc::new(addr, 32, MemOp::StoreClwb))),
                _ => drop(s.fence()),
            }
        }
    }

    #[test]
    fn snapshot_roundtrip_continues_identically() {
        let mut a = sys();
        drive(&mut a, 0, 400);
        // Mid-flight: leave pending WPQ/LSQ state by not fencing.
        let blob = a.save_snapshot().expect("vans supports snapshots");
        let mut b = sys();
        b.restore_snapshot(&blob).expect("restore into same config");
        assert_eq!(a.now(), b.now());
        assert_eq!(a.counters(), b.counters());
        // Subsequent execution must be byte-identical.
        drive(&mut a, 1000, 400);
        drive(&mut b, 1000, 400);
        assert_eq!(a.now(), b.now());
        assert_eq!(a.counters(), b.counters());
        assert_eq!(a.save_snapshot(), b.save_snapshot());
    }

    #[test]
    fn snapshot_roundtrip_covers_case_studies_and_persist() {
        let mut a = MemorySystem::new(VansConfig::optane_6dimm()).unwrap();
        a.enable_lazy_cache(LazyCacheConfig::paper());
        a.enable_pretranslation(PreTranslationConfig::paper());
        a.configure_session(SessionOptions::new().durability_tracking(true));
        drive(&mut a, 3, 600);
        let blob = a.save_snapshot().unwrap();
        let mut b = MemorySystem::new(VansConfig::optane_6dimm()).unwrap();
        b.enable_lazy_cache(LazyCacheConfig::paper());
        b.enable_pretranslation(PreTranslationConfig::paper());
        b.restore_snapshot(&blob).unwrap();
        assert!(b.durability_tracking(), "tracking state travels");
        drive(&mut a, 77, 300);
        drive(&mut b, 77, 300);
        assert_eq!(a.counters(), b.counters());
        let ia = a.inject_power_loss(&FaultPlan::probabilistic(9));
        let ib = b.inject_power_loss(&FaultPlan::probabilistic(9));
        assert_eq!(ia.cut, ib.cut);
        assert_eq!(ia.tracked_lines(), ib.tracked_lines());
        assert_eq!(a.save_snapshot(), b.save_snapshot());
    }

    #[test]
    fn snapshot_rejects_structural_mismatch() {
        let mut a = MemorySystem::new(VansConfig::optane_6dimm()).unwrap();
        drive(&mut a, 0, 50);
        let blob = a.save_snapshot().unwrap();
        let mut wrong = sys(); // 1 DIMM, blob has 6
        let err = wrong.restore_snapshot(&blob).unwrap_err();
        assert!(err.to_string().contains("DIMM count"), "got: {err}");
        let mut no_pretrans = MemorySystem::new(VansConfig::optane_6dimm()).unwrap();
        a.enable_pretranslation(PreTranslationConfig::paper());
        let blob2 = a.save_snapshot().unwrap();
        let err2 = no_pretrans.restore_snapshot(&blob2).unwrap_err();
        assert!(err2.to_string().contains("pre-translation"), "got: {err2}");
    }

    /// `blob` with its next-id field rewritten: the payload opens with
    /// the one-byte section tag and the clock, zero here, in one byte.
    fn with_next_id(mut blob: Vec<u8>, next_id: u8) -> Vec<u8> {
        let payload = nvsim_types::snapshot::MAGIC.len() + 1;
        assert_eq!(blob[payload..payload + 2], [SECTION_SYSTEM as u8, 0]);
        blob[payload + 2] = next_id;
        blob
    }

    #[test]
    fn restore_rejects_in_flight_ids_that_contradict_the_next_id() {
        // The newest request (id 0) is flagged; next id 1.
        let mut a = sys();
        a.submit(RequestDesc::load(Addr::new(0)));
        let flagged = a.save_snapshot().unwrap();
        assert!(sys().restore_snapshot(&flagged).unwrap());
        let err = sys()
            .restore_snapshot(&with_next_id(flagged, 2))
            .unwrap_err();
        assert!(err.to_string().contains("flagged"), "got: {err}");

        // Request 1 taken, request 0 older and in flight; next id 2.
        let mut b = sys();
        b.submit(RequestDesc::load(Addr::new(0)));
        let newest = b.submit(RequestDesc::load(Addr::new(64)));
        b.try_take_completion(newest).unwrap();
        let older = b.save_snapshot().unwrap();
        assert!(sys().restore_snapshot(&older).unwrap());
        let err = sys().restore_snapshot(&with_next_id(older, 1)).unwrap_err();
        assert!(err.to_string().contains("not yet handed out"), "got: {err}");
    }

    #[test]
    fn warm_access_tracks_detailed_residency() {
        // Functional warming must leave the same *residency* state as the
        // timed path (clocks and port times excepted).
        let mut warm = sys();
        let mut timed = sys();
        let mut rng = DetRng::seed_from(77);
        for i in 0..300u64 {
            let addr = Addr::new((rng.next_u64() % 1024) * 64);
            match i % 4 {
                0 => {
                    warm.warm_access(&RequestDesc::load(addr));
                    timed.execute(RequestDesc::load(addr));
                }
                1 => {
                    warm.warm_access(&RequestDesc::nt_store(addr));
                    timed.execute(RequestDesc::nt_store(addr));
                }
                2 => {
                    warm.warm_access(&RequestDesc::store(addr));
                    timed.execute(RequestDesc::store(addr));
                }
                _ => {
                    warm.warm_access(&RequestDesc::fence());
                    timed.fence();
                }
            }
        }
        assert_eq!(warm.now(), Time::ZERO, "warming never advances the clock");
        let (wd, td) = (&warm.dimms()[0], &timed.dimms()[0]);
        assert_eq!(wd.lsq.occupancy(), td.lsq.occupancy());
        assert_eq!(wd.rmw.occupancy(), td.rmw.occupancy());
        assert_eq!(wd.ait.stats().migrations, td.ait.stats().migrations);
    }
}
