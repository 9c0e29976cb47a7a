//! The MLP-windowed trace-driven core.

use crate::cache::{CacheHierarchy, HierarchyConfig};
use crate::tlb::{TlbConfig, TlbHierarchy};
use crate::trace::{OpClass, TraceOp};
use nvsim_types::snapshot::{Snapshot, SnapshotError, SnapshotReader, SnapshotWriter};
use nvsim_types::time::Freq;
use nvsim_types::{Addr, ConfigError, MemOp, MemoryBackend, RequestDesc, Time};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Core configuration (Table V's CPU section, reduced to what a
/// trace-driven model needs).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CoreConfig {
    /// Core clock.
    pub freq: Freq,
    /// Base cycles per instruction when nothing stalls (4-wide issue
    /// ⇒ 0.25; the paper's OoO core approaches this on compute).
    pub base_cpi: f64,
    /// Maximum overlapped LLC misses (load-buffer / MSHR depth).
    pub max_outstanding: u32,
    /// Cache hierarchy.
    pub caches: HierarchyConfig,
    /// TLB hierarchy.
    pub tlb: TlbConfig,
}

impl CoreConfig {
    /// A Cascade-Lake-like configuration matching Table V.
    pub fn cascade_lake_like() -> Self {
        CoreConfig {
            freq: Freq::mhz(crate::params::CORE_FREQ_MHZ),
            base_cpi: 0.25,
            max_outstanding: 10,
            caches: HierarchyConfig::table_v(),
            tlb: TlbConfig::table_iii(),
        }
    }

    /// A scaled-down configuration for fast tests.
    pub fn tiny_for_tests() -> Self {
        CoreConfig {
            freq: Freq::mhz(crate::params::CORE_FREQ_MHZ),
            base_cpi: 0.25,
            max_outstanding: 4,
            caches: HierarchyConfig::tiny_for_tests(),
            tlb: TlbConfig::tiny_for_tests(),
        }
    }
}

/// Where a cycle went (Fig 12a's attribution).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum StallClass {
    /// Base issue/retire bandwidth.
    Base,
    /// Cache hit latency.
    CacheHit,
    /// Waiting on memory for loads.
    ReadMemory,
    /// Waiting on memory for stores/fences.
    WriteMemory,
    /// TLB misses and page walks.
    TlbWalk,
}

/// The result of running a trace.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunReport {
    /// Instructions retired.
    pub instructions: u64,
    /// Total core cycles.
    pub cycles: f64,
    /// Wall-clock simulated time.
    pub exec_time: Time,
    /// LLC misses.
    pub llc_misses: u64,
    /// LLC references.
    pub llc_references: u64,
    /// Page walks performed.
    pub tlb_walks: u64,
    /// Walks avoided through pre-translation.
    pub pretranslated: u64,
    /// Cycles by stall class: (base, cache, read-mem, write-mem, tlb).
    pub cycles_by_class: [(StallClass, f64); 5],
    /// Cycles attributed to read ops vs everything else
    /// (Fig 12a's Read / Rest split).
    pub read_cycles: f64,
    /// Cycles attributed to non-read ops.
    pub rest_cycles: f64,
    /// Retired read instructions.
    pub read_instructions: u64,
    /// Retired non-read instructions.
    pub rest_instructions: u64,
}

impl RunReport {
    /// Instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0.0 {
            0.0
        } else {
            self.instructions as f64 / self.cycles
        }
    }

    /// LLC misses per kilo-instruction.
    pub fn llc_mpki(&self) -> f64 {
        self.llc_misses as f64 / (self.instructions as f64 / 1000.0)
    }

    /// LLC miss rate (misses / references).
    pub fn llc_miss_rate(&self) -> f64 {
        if self.llc_references == 0 {
            0.0
        } else {
            self.llc_misses as f64 / self.llc_references as f64
        }
    }

    /// TLB (page-walk) misses per kilo-instruction.
    pub fn tlb_mpki(&self) -> f64 {
        self.tlb_walks as f64 / (self.instructions as f64 / 1000.0)
    }

    /// CPI of read operations (Fig 12a).
    pub fn read_cpi(&self) -> f64 {
        if self.read_instructions == 0 {
            0.0
        } else {
            self.read_cycles / self.read_instructions as f64
        }
    }

    /// CPI of everything else (Fig 12a).
    pub fn rest_cpi(&self) -> f64 {
        if self.rest_instructions == 0 {
            0.0
        } else {
            self.rest_cycles / self.rest_instructions as f64
        }
    }
}

/// The trace-driven core model.
#[derive(Debug)]
pub struct Core {
    // nvsim-lint: allow(snapshot-field-coverage) — construction-time configuration; never mutated.
    cfg: CoreConfig,
    /// Private cache hierarchy.
    pub caches: CacheHierarchy,
    /// TLB hierarchy.
    pub tlb: TlbHierarchy,
    // nvsim-lint: allow(snapshot-field-coverage) — derived from `cfg` at construction (clock period); immutable.
    period: Time,
}

impl Core {
    /// Creates a core.
    ///
    /// # Panics
    ///
    /// Panics if the cache configuration is invalid (it is a programmer
    /// error to construct a core from an unvalidated ad-hoc config; use
    /// the presets or validate first via [`Core::try_new`]).
    #[expect(
        clippy::expect_used,
        reason = "documented programmer-error panic on unvalidated configs; simulation \
                  drivers use try_new"
    )]
    pub fn new(cfg: CoreConfig) -> Self {
        Self::try_new(cfg).expect("invalid core configuration")
    }

    /// Fallible constructor.
    ///
    /// # Errors
    ///
    /// Returns the first cache-configuration validation error.
    pub fn try_new(cfg: CoreConfig) -> Result<Self, ConfigError> {
        Ok(Core {
            caches: CacheHierarchy::new(cfg.caches)?,
            tlb: TlbHierarchy::new(cfg.tlb),
            period: cfg.freq.period(),
            cfg,
        })
    }

    /// The configuration in effect.
    pub fn config(&self) -> &CoreConfig {
        &self.cfg
    }

    /// Runs a trace to completion against `mem`; returns the report.
    ///
    /// The core may be reused across runs; cache/TLB contents persist
    /// (use a fresh core for independent experiments).
    pub fn run<B, I>(&mut self, trace: I, mem: &mut B) -> RunReport
    where
        B: MemoryBackend,
        I: Iterator<Item = TraceOp>,
    {
        let start = mem.now();
        let mut now = start;
        let mut instructions: u64 = 0;
        let mut class_cycles = [
            (StallClass::Base, 0.0f64),
            (StallClass::CacheHit, 0.0),
            (StallClass::ReadMemory, 0.0),
            (StallClass::WriteMemory, 0.0),
            (StallClass::TlbWalk, 0.0),
        ];
        let mut read_cycles = 0.0f64;
        let mut rest_cycles = 0.0f64;
        let mut read_instructions = 0u64;
        let mut rest_instructions = 0u64;
        let mut outstanding: VecDeque<Time> = VecDeque::new();
        let llc_before = self.caches.llc_hit_miss();
        let tlb_before = self.tlb.stats();
        // The previous mkpt-marked load's physical address, for learning
        // pointer-chain pre-translation entries.
        let mut prev_mkpt: Option<Addr> = None;

        let period_ns = self.period.as_ns_f64();
        let mut charge = |class: StallClass, op_class: OpClass, cycles: f64| {
            for (c, v) in class_cycles.iter_mut() {
                if *c == class {
                    *v += cycles;
                }
            }
            if op_class == OpClass::Read {
                read_cycles += cycles;
            } else {
                rest_cycles += cycles;
            }
        };

        for op in trace {
            instructions += op.instructions();
            match op.class() {
                OpClass::Read => read_instructions += op.instructions(),
                _ => rest_instructions += op.instructions(),
            }
            match op {
                TraceOp::Compute { n } => {
                    let cycles = n as f64 * self.cfg.base_cpi;
                    charge(StallClass::Base, OpClass::Compute, cycles);
                    now += Time::from_ns_f64(cycles * period_ns);
                }
                TraceOp::Load {
                    vaddr,
                    dependent,
                    mkpt,
                } => {
                    charge(StallClass::Base, OpClass::Read, self.cfg.base_cpi);
                    now += Time::from_ns_f64(self.cfg.base_cpi * period_ns);
                    mem.skip_to(now);
                    let tr = self.tlb.translate(vaddr, now, mem);
                    if tr.cycles > 0 {
                        charge(StallClass::TlbWalk, OpClass::Read, tr.cycles as f64);
                        now += Time::from_ns_f64(tr.cycles as f64 * period_ns);
                    }
                    let acc = self.caches.access(tr.paddr, false);
                    charge(StallClass::CacheHit, OpClass::Read, acc.hit_cycles as f64);
                    now += Time::from_ns_f64(acc.hit_cycles as f64 * period_ns);
                    self.spill_writebacks(&acc.writebacks, now, mem);
                    // mkpt update path (Fig 13c): the CPU learns the
                    // pointer chain from *consecutive marked loads*,
                    // regardless of where the data came from.
                    if mkpt {
                        if let Some(prev) = prev_mkpt {
                            mem.mkpt_update(prev, vaddr.page_index());
                        }
                        prev_mkpt = Some(tr.paddr);
                    }
                    if acc.llc_miss {
                        mem.skip_to(now);
                        // mkpt usage path (Fig 13b): the NVRAM piggybacks
                        // the next hop's TLB entry on the read data.
                        if mkpt {
                            if let Some((pfn, ready)) = mem.mkpt_lookup(tr.paddr, now) {
                                self.tlb.install_pretranslation(pfn, ready);
                            }
                        }
                        let id = mem.submit(RequestDesc::load(tr.paddr));
                        if dependent {
                            let done = mem.wait_for(id);
                            let stall = done.saturating_sub(now);
                            charge(
                                StallClass::ReadMemory,
                                OpClass::Read,
                                stall.as_ns_f64() / period_ns,
                            );
                            now = done;
                        } else {
                            let done = mem.expect_completion(id);
                            while let Some(&front) = outstanding.front() {
                                if front <= now {
                                    outstanding.pop_front();
                                } else {
                                    break;
                                }
                            }
                            outstanding.push_back(done);
                            if outstanding.len() > self.cfg.max_outstanding as usize {
                                if let Some(oldest) = outstanding.pop_front().filter(|&o| o > now) {
                                    let stall = oldest - now;
                                    charge(
                                        StallClass::ReadMemory,
                                        OpClass::Read,
                                        stall.as_ns_f64() / period_ns,
                                    );
                                    now = oldest;
                                }
                            }
                        }
                    }
                }
                TraceOp::Store {
                    vaddr,
                    non_temporal,
                } => {
                    charge(StallClass::Base, OpClass::Write, self.cfg.base_cpi);
                    now += Time::from_ns_f64(self.cfg.base_cpi * period_ns);
                    mem.skip_to(now);
                    let tr = self.tlb.translate(vaddr, now, mem);
                    if tr.cycles > 0 {
                        charge(StallClass::TlbWalk, OpClass::Write, tr.cycles as f64);
                        now += Time::from_ns_f64(tr.cycles as f64 * period_ns);
                    }
                    if non_temporal {
                        // Bypass the caches; the write buffer absorbs it
                        // unless the window is full.
                        mem.skip_to(now);
                        let id = mem.submit(RequestDesc::nt_store(tr.paddr));
                        let done = mem.expect_completion(id);
                        outstanding.push_back(done);
                        if outstanding.len() > self.cfg.max_outstanding as usize {
                            if let Some(oldest) = outstanding.pop_front().filter(|&o| o > now) {
                                let stall = oldest - now;
                                charge(
                                    StallClass::WriteMemory,
                                    OpClass::Write,
                                    stall.as_ns_f64() / period_ns,
                                );
                                now = oldest;
                            }
                        }
                    } else {
                        let acc = self.caches.access(tr.paddr, true);
                        charge(StallClass::CacheHit, OpClass::Write, acc.hit_cycles as f64);
                        now += Time::from_ns_f64(acc.hit_cycles as f64 * period_ns);
                        if acc.llc_miss {
                            // Write-allocate fetch; overlapped like a load.
                            mem.skip_to(now);
                            let id = mem.submit(RequestDesc::load(tr.paddr));
                            let done = mem.expect_completion(id);
                            outstanding.push_back(done);
                            if outstanding.len() > self.cfg.max_outstanding as usize {
                                if let Some(oldest) = outstanding.pop_front().filter(|&o| o > now) {
                                    let stall = oldest - now;
                                    charge(
                                        StallClass::WriteMemory,
                                        OpClass::Write,
                                        stall.as_ns_f64() / period_ns,
                                    );
                                    now = oldest;
                                }
                            }
                        }
                        self.spill_writebacks(&acc.writebacks, now, mem);
                    }
                }
                TraceOp::Clwb { vaddr } => {
                    charge(StallClass::Base, OpClass::Write, self.cfg.base_cpi);
                    now += Time::from_ns_f64(self.cfg.base_cpi * period_ns);
                    let tr = self.tlb.translate(vaddr, now, mem);
                    if self.caches.flush_line(tr.paddr) {
                        mem.skip_to(now);
                        let id = mem.submit(RequestDesc::new(tr.paddr, 64, MemOp::StoreClwb));
                        // Fire-and-forget: clwb retires asynchronously.
                        let _ = mem.try_take_completion(id);
                    }
                }
                TraceOp::Fence => {
                    charge(StallClass::Base, OpClass::Write, self.cfg.base_cpi);
                    now += Time::from_ns_f64(self.cfg.base_cpi * period_ns);
                    // Retire the overlap window, then fence the memory.
                    if let Some(&last) = outstanding.back() {
                        if last > now {
                            let stall = last - now;
                            charge(
                                StallClass::WriteMemory,
                                OpClass::Write,
                                stall.as_ns_f64() / period_ns,
                            );
                            now = last;
                        }
                    }
                    outstanding.clear();
                    mem.skip_to(now);
                    let done = mem.fence();
                    if done > now {
                        let stall = done - now;
                        charge(
                            StallClass::WriteMemory,
                            OpClass::Write,
                            stall.as_ns_f64() / period_ns,
                        );
                        now = done;
                    }
                }
            }
        }
        // Retire any remaining overlapped misses.
        if let Some(&last) = outstanding.back() {
            if last > now {
                now = last;
            }
        }
        mem.skip_to(now);
        mem.drain();

        let llc_after = self.caches.llc_hit_miss();
        let tlb_after = self.tlb.stats();
        let exec_time = now - start;
        let cycles: f64 = class_cycles.iter().map(|(_, v)| v).sum();
        RunReport {
            instructions,
            cycles,
            exec_time,
            llc_misses: llc_after.1 - llc_before.1,
            llc_references: (llc_after.0 + llc_after.1) - (llc_before.0 + llc_before.1),
            tlb_walks: tlb_after.walks - tlb_before.walks,
            pretranslated: tlb_after.pretranslated - tlb_before.pretranslated,
            cycles_by_class: class_cycles,
            read_cycles,
            rest_cycles,
            read_instructions,
            rest_instructions,
        }
    }

    fn spill_writebacks<B: MemoryBackend>(
        &mut self,
        writebacks: &[Option<Addr>; 3],
        now: Time,
        mem: &mut B,
    ) {
        // Only LLC-level spills reach memory.
        if let Some(wb) = writebacks[2] {
            mem.skip_to(now);
            let id = mem.submit(RequestDesc::store(wb));
            // Fire-and-forget: the write buffer retires it asynchronously.
            let _ = mem.try_take_completion(id);
        }
    }

    /// Functional warming (SMARTS fast-forward): replays the trace
    /// against the caches, TLBs, and the backend's *warm* path. All
    /// residency, recency, and wear-heat state advances exactly as in a
    /// detailed run, but no cycle or port accounting happens — neither
    /// the core clock nor the backend clock moves. Returns the number of
    /// instructions warmed.
    pub fn warm_run<B, I>(&mut self, trace: I, mem: &mut B) -> u64
    where
        B: MemoryBackend,
        I: Iterator<Item = TraceOp>,
    {
        let mut instructions = 0u64;
        let mut prev_mkpt: Option<Addr> = None;
        for op in trace {
            instructions += op.instructions();
            match op {
                TraceOp::Compute { .. } => {}
                TraceOp::Load { vaddr, mkpt, .. } => {
                    let paddr = self.tlb.warm_translate(vaddr, mem);
                    let acc = self.caches.access(paddr, false);
                    self.warm_spill(&acc.writebacks, mem);
                    // The mkpt *learning* path is pure table state; keep
                    // it warm. The *usage* path (piggybacked TLB install)
                    // is timing-coupled and left to detailed windows.
                    if mkpt {
                        if let Some(prev) = prev_mkpt {
                            mem.mkpt_update(prev, vaddr.page_index());
                        }
                        prev_mkpt = Some(paddr);
                    }
                    if acc.llc_miss {
                        mem.warm_access(&RequestDesc::load(paddr));
                    }
                }
                TraceOp::Store {
                    vaddr,
                    non_temporal,
                } => {
                    let paddr = self.tlb.warm_translate(vaddr, mem);
                    if non_temporal {
                        mem.warm_access(&RequestDesc::nt_store(paddr));
                    } else {
                        let acc = self.caches.access(paddr, true);
                        if acc.llc_miss {
                            // Write-allocate fetch.
                            mem.warm_access(&RequestDesc::load(paddr));
                        }
                        self.warm_spill(&acc.writebacks, mem);
                    }
                }
                TraceOp::Clwb { vaddr } => {
                    let paddr = self.tlb.warm_translate(vaddr, mem);
                    if self.caches.flush_line(paddr) {
                        mem.warm_access(&RequestDesc::new(paddr, 64, MemOp::StoreClwb));
                    }
                }
                TraceOp::Fence => {
                    mem.warm_access(&RequestDesc::fence());
                }
            }
        }
        instructions
    }

    fn warm_spill<B: MemoryBackend>(&mut self, writebacks: &[Option<Addr>; 3], mem: &mut B) {
        if let Some(wb) = writebacks[2] {
            mem.warm_access(&RequestDesc::store(wb));
        }
    }
}

/// Section tag of [`Core`] snapshots.
const SECTION_CORE: u16 = 0x42;

impl Snapshot for Core {
    fn save(&self, w: &mut SnapshotWriter) {
        w.section(SECTION_CORE);
        self.caches.save(w);
        self.tlb.save(w);
    }

    fn restore(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        r.expect_section(SECTION_CORE)?;
        self.caches.restore(r)?;
        self.tlb.restore(r)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvsim_types::backend::FixedLatencyBackend;
    use nvsim_types::VirtAddr;

    fn mem() -> FixedLatencyBackend {
        FixedLatencyBackend::new(Time::from_ns(100), Time::from_ns(100))
    }

    #[test]
    fn pure_compute_hits_base_ipc() {
        let mut core = Core::new(CoreConfig::tiny_for_tests());
        let mut m = mem();
        let report = core.run(std::iter::once(TraceOp::compute(1000)), &mut m);
        assert_eq!(report.instructions, 1000);
        assert!((report.ipc() - 4.0).abs() < 0.01, "ipc {}", report.ipc());
    }

    #[test]
    fn cache_hits_keep_ipc_high() {
        let mut core = Core::new(CoreConfig::tiny_for_tests());
        let mut m = mem();
        // Same line over and over: one miss, rest L1 hits.
        let trace = (0..1000).map(|_| TraceOp::load(VirtAddr::new(0x40)));
        let report = core.run(trace, &mut m);
        assert_eq!(report.llc_misses, 1);
        assert!(report.ipc() > 0.1);
    }

    #[test]
    fn dependent_chain_is_memory_bound() {
        let mut core = Core::new(CoreConfig::tiny_for_tests());
        let mut m = mem();
        // Pointer chase over 1 MB: every load misses and serializes.
        let trace = (0..500u64).map(|i| TraceOp::chase(VirtAddr::new((i * 7919 * 64) % (1 << 20))));
        let report = core.run(trace, &mut m);
        assert!(report.llc_misses > 400);
        // Each access costs ~100ns = 220 cycles: IPC far below base.
        assert!(report.ipc() < 0.05, "ipc {}", report.ipc());
        assert!(report.read_cpi() > 100.0);
    }

    #[test]
    fn independent_misses_overlap() {
        // Disable page-walk memory traffic so the comparison isolates
        // miss-level parallelism.
        let mut cfg = CoreConfig::tiny_for_tests();
        cfg.tlb.walk_memory_accesses = 0;
        let run = |dependent: bool| -> Time {
            let mut core = Core::new(cfg);
            let mut m = mem();
            let trace = (0..200u64).map(move |i| {
                let v = VirtAddr::new((i * 7919 * 64) % (1 << 20));
                if dependent {
                    TraceOp::chase(v)
                } else {
                    TraceOp::load(v)
                }
            });
            core.run(trace, &mut m).exec_time
        };
        let dep = run(true);
        let indep = run(false);
        assert!(
            indep * 2 < dep,
            "MLP should hide latency: dep {dep} indep {indep}"
        );
    }

    #[test]
    fn tlb_walks_counted_and_charged() {
        let mut core = Core::new(CoreConfig::tiny_for_tests());
        let mut m = mem();
        // Touch many pages: constant TLB misses.
        let trace = (0..100u64).map(|i| TraceOp::load(VirtAddr::new(i * 4096 * 7)));
        let report = core.run(trace, &mut m);
        assert!(report.tlb_walks > 50);
        assert!(report.tlb_mpki() > 100.0);
        let tlb_cycles = report
            .cycles_by_class
            .iter()
            .find(|(c, _)| *c == StallClass::TlbWalk)
            .unwrap()
            .1;
        assert!(tlb_cycles > 0.0);
    }

    #[test]
    fn fence_waits_for_outstanding() {
        let mut core = Core::new(CoreConfig::tiny_for_tests());
        let mut m = mem();
        let mut trace = vec![TraceOp::nt_store(VirtAddr::new(0))];
        trace.push(TraceOp::Fence);
        let report = core.run(trace.into_iter(), &mut m);
        assert_eq!(report.instructions, 2);
        assert!(report.exec_time >= Time::from_ns(100));
    }

    #[test]
    fn read_rest_attribution_sums_to_total() {
        let mut core = Core::new(CoreConfig::tiny_for_tests());
        let mut m = mem();
        let trace = vec![
            TraceOp::compute(10),
            TraceOp::chase(VirtAddr::new(0x9000)),
            TraceOp::store(VirtAddr::new(0x5000)),
        ];
        let report = core.run(trace.into_iter(), &mut m);
        let total = report.read_cycles + report.rest_cycles;
        assert!((total - report.cycles).abs() < 1e-6);
        assert_eq!(report.read_instructions, 1);
        assert_eq!(report.rest_instructions, 11);
    }

    #[test]
    fn llc_miss_rate_bounded() {
        let mut core = Core::new(CoreConfig::tiny_for_tests());
        let mut m = mem();
        let trace = (0..500u64).map(|i| TraceOp::load(VirtAddr::new(i * 64)));
        let report = core.run(trace, &mut m);
        let r = report.llc_miss_rate();
        assert!((0.0..=1.0).contains(&r));
        assert!(report.llc_references > 0);
    }

    #[test]
    fn snapshot_roundtrip_continues_identically() {
        let mut a = Core::new(CoreConfig::tiny_for_tests());
        let mut ma = mem();
        let warmup = (0..400u64).map(|i| TraceOp::load(VirtAddr::new((i * 7919 * 64) % (1 << 18))));
        a.run(warmup, &mut ma);
        let blob = nvsim_types::snapshot::save_blob(&a);
        let mut b = Core::new(CoreConfig::tiny_for_tests());
        nvsim_types::snapshot::restore_blob(&mut b, &blob).expect("same configuration");
        let tail =
            |()| (0..200u64).map(|i| TraceOp::load(VirtAddr::new((i * 31 * 64) % (1 << 18))));
        let mut mb = mem();
        mb.skip_to(ma.now());
        let ra = a.run(tail(()), &mut ma);
        let rb = b.run(tail(()), &mut mb);
        assert_eq!(ra.llc_misses, rb.llc_misses);
        assert_eq!(ra.tlb_walks, rb.tlb_walks);
        assert_eq!(ra.cycles, rb.cycles);
        assert_eq!(
            nvsim_types::snapshot::save_blob(&a),
            nvsim_types::snapshot::save_blob(&b)
        );
    }

    #[test]
    fn snapshot_rejects_different_geometry() {
        let a = Core::new(CoreConfig::tiny_for_tests());
        let blob = nvsim_types::snapshot::save_blob(&a);
        let mut b = Core::new(CoreConfig::cascade_lake_like());
        let err = nvsim_types::snapshot::restore_blob(&mut b, &blob).unwrap_err();
        assert!(err.to_string().contains("geometry"), "got: {err}");
    }

    #[test]
    fn warm_run_matches_detailed_residency() {
        // After identical access streams, a warmed core and a detailed
        // core must agree on cache/TLB contents: the next detailed run
        // sees the same hits and misses.
        let stream =
            |()| (0..600u64).map(|i| TraceOp::load(VirtAddr::new((i * 127 * 64) % (1 << 18))));
        let mut warm = Core::new(CoreConfig::tiny_for_tests());
        let mut mw = mem();
        let warmed = warm.warm_run(stream(()), &mut mw);
        assert_eq!(warmed, 600);
        assert_eq!(mw.now(), Time::ZERO, "warming never advances the clock");
        let mut detailed = Core::new(CoreConfig::tiny_for_tests());
        let mut md = mem();
        detailed.run(stream(()), &mut md);
        // Replay a probe window on both.
        let probe =
            |()| (0..200u64).map(|i| TraceOp::load(VirtAddr::new((i * 127 * 64) % (1 << 18))));
        let rw = warm.run(probe(()), &mut mw);
        let rd = detailed.run(probe(()), &mut md);
        assert_eq!(rw.llc_misses, rd.llc_misses);
        assert_eq!(rw.tlb_walks, rd.tlb_walks);
    }
}
