//! Memory Mode: DRAM as a direct-mapped cache in front of the NVRAM
//! (§II-A). In this mode the system has no persistence guarantees — the
//! DRAM absorbs most traffic and the Optane DIMM only sees its misses.
//!
//! Modeled after the Cascade Lake implementation: a direct-mapped,
//! 64 B-line near-memory cache whose tags live with the data in DRAM
//! (one DRAM access resolves both), write-back and write-allocate.

use crate::config::VansConfig;
use crate::system::MemorySystem;
use nvsim_dram::{DramConfig, DramModel};
use nvsim_types::snapshot::{
    restore_blob, save_blob, Snapshot, SnapshotError, SnapshotReader, SnapshotWriter,
};
use nvsim_types::{
    Addr, BackendCounters, BackendError, ConfigError, InFlight, MemOp, MemoryBackend, ReqId,
    RequestDesc, SessionOptions, Time, CACHE_LINE,
};
#[expect(
    clippy::disallowed_types,
    reason = "the tag array is key-indexed only (get/insert by set index, never \
              iterated), so iteration order is never observed; a hash map keeps the \
              potentially multi-million-entry array O(1)"
)]
use std::collections::HashMap;

/// Statistics of the near-memory cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoryModeStats {
    /// Near-memory cache hits.
    pub hits: u64,
    /// Misses (NVRAM accesses).
    pub misses: u64,
    /// Dirty evictions written back to NVRAM.
    pub writebacks: u64,
}

/// A Memory-Mode system: DRAM cache + VANS NVRAM behind it.
///
/// # Example
///
/// ```
/// use vans::memory_mode::MemoryModeSystem;
/// use vans::VansConfig;
/// use nvsim_types::{Addr, MemoryBackend, RequestDesc};
///
/// let mut sys = MemoryModeSystem::new(VansConfig::optane_1dimm())?;
/// let cold = sys.execute(RequestDesc::load(Addr::new(0x40)));
/// let t0 = sys.now();
/// let warm = sys.execute(RequestDesc::load(Addr::new(0x40)));
/// assert!(warm - t0 < cold, "second access hits the DRAM cache");
/// # Ok::<(), nvsim_types::ConfigError>(())
/// ```
#[derive(Debug)]
pub struct MemoryModeSystem {
    nvram: MemorySystem,
    dram: DramModel,
    /// Direct-mapped tag array: set index → (tag, dirty).
    #[expect(
        clippy::disallowed_types,
        reason = "looked up by set index; the one walk, in `save`, sorts the entries first"
    )]
    tags: HashMap<u64, (u64, bool)>,
    /// Number of cache sets (DRAM capacity / 64 B).
    sets: u64,
    /// In-flight completions of this wrapper.
    in_flight: InFlight,
    next_id: u64,
    stats: MemoryModeStats,
}

impl MemoryModeSystem {
    /// Builds a Memory-Mode system: a 1 GB DDR4 near-memory cache per
    /// DIMM in front of the VANS NVRAM model.
    ///
    /// # Errors
    ///
    /// Propagates configuration validation errors.
    pub fn new(cfg: VansConfig) -> Result<Self, ConfigError> {
        let nvram = MemorySystem::new(cfg)?;
        let mut dram_cfg = DramConfig::ddr4_2666_4gb();
        dram_cfg.name = "near-memory-cache".to_owned();
        // 1 GB single-channel cache front.
        dram_cfg.organization.channels = 1;
        dram_cfg.organization.rows = 8192;
        let dram = DramModel::new(dram_cfg)?;
        let sets = dram.config().organization.capacity_bytes() / CACHE_LINE;
        Ok(MemoryModeSystem {
            nvram,
            dram,
            #[expect(clippy::disallowed_types, reason = "see the field's reason")]
            tags: HashMap::new(),
            sets,
            in_flight: InFlight::default(),
            next_id: 0,
            stats: MemoryModeStats::default(),
        })
    }

    /// Cache statistics.
    pub fn stats(&self) -> MemoryModeStats {
        self.stats
    }

    /// Serves one line; returns the completion time.
    fn access_line(&mut self, line_addr: Addr, write: bool, now: Time) -> Time {
        let line = line_addr.line_index();
        let set = line % self.sets;
        let tag = line / self.sets;
        // Tag + data are colocated: one DRAM access resolves the lookup.
        let dram_done = self.dram.access(line_addr, write, now);
        match self.tags.get(&set) {
            Some(&(t, _dirty)) if t == tag => {
                self.stats.hits += 1;
                if write {
                    self.tags.insert(set, (tag, true));
                }
                dram_done
            }
            resident => {
                self.stats.misses += 1;
                // Dirty conflict eviction: write the victim back to NVRAM
                // (posted — it only occupies the NVRAM write path).
                if let Some(&(victim_tag, true)) = resident {
                    self.stats.writebacks += 1;
                    let victim_addr = Addr::new((victim_tag * self.sets + set) * CACHE_LINE);
                    self.nvram.skip_to(now);
                    let id = self
                        .nvram
                        .submit(RequestDesc::new(victim_addr, 64, MemOp::NtStore));
                    let _ = self.nvram.try_take_completion(id);
                }
                // Fetch the line from NVRAM (reads and write-allocates).
                self.nvram.skip_to(now);
                let id = self.nvram.submit(RequestDesc::load(line_addr));
                let filled = self.nvram.expect_completion(id);
                // Install into DRAM (posted).
                let _ = self.dram.access(line_addr, true, filled);
                self.tags.insert(set, (tag, write));
                filled.max(dram_done)
            }
        }
    }

    /// Functional-warming counterpart of [`access_line`](Self::access_line):
    /// updates the tag array and the NVRAM's residency state without any
    /// DRAM or NVRAM timing.
    fn warm_line(&mut self, line_addr: Addr, write: bool) {
        let line = line_addr.line_index();
        let set = line % self.sets;
        let tag = line / self.sets;
        match self.tags.get(&set) {
            Some(&(t, _dirty)) if t == tag => {
                self.stats.hits += 1;
                if write {
                    self.tags.insert(set, (tag, true));
                }
            }
            resident => {
                self.stats.misses += 1;
                if let Some(&(victim_tag, true)) = resident {
                    self.stats.writebacks += 1;
                    let victim_addr = Addr::new((victim_tag * self.sets + set) * CACHE_LINE);
                    self.nvram
                        .warm_access(&RequestDesc::new(victim_addr, 64, MemOp::NtStore));
                }
                self.nvram.warm_access(&RequestDesc::load(line_addr));
                self.tags.insert(set, (tag, write));
            }
        }
    }
}

impl MemoryBackend for MemoryModeSystem {
    fn label(&self) -> String {
        format!("{}+MemoryMode", self.nvram.label())
    }

    fn now(&self) -> Time {
        self.nvram.now()
    }

    fn submit(&mut self, desc: RequestDesc) -> ReqId {
        let now = self.now();
        let done = match desc.op {
            MemOp::Fence => now, // Memory Mode has no persistence domain.
            _ => {
                let write = desc.op.is_write();
                let first = desc.addr.align_down(CACHE_LINE);
                let mut done = now;
                for i in 0..desc.cache_lines() {
                    done = done.max(self.access_line(first + i * CACHE_LINE, write, now));
                }
                done
            }
        };
        let id = ReqId(self.next_id);
        self.next_id += 1;
        self.in_flight.push(id, done);
        id
    }

    fn try_take_completion(&mut self, id: ReqId) -> Result<Time, BackendError> {
        self.in_flight.take(id)
    }

    fn drain(&mut self) -> Time {
        let last = self.in_flight.drain(self.now());
        self.nvram.skip_to(last);
        self.nvram.drain()
    }

    fn skip_to(&mut self, t: Time) {
        self.nvram.skip_to(t);
    }

    fn counters(&self) -> BackendCounters {
        self.nvram.counters()
    }

    fn reset_counters(&mut self) {
        self.nvram.reset_counters();
    }

    fn models_persistence_ops(&self) -> bool {
        false // Memory Mode is volatile.
    }

    fn configure_session(&mut self, opts: SessionOptions) -> bool {
        self.nvram.configure_session(opts)
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
            MemOp::Fence => {} // Fences are free in Memory Mode.
            _ => {
                let write = desc.op.is_write();
                let first = desc.addr.align_down(CACHE_LINE);
                for i in 0..desc.cache_lines() {
                    self.warm_line(first + i * CACHE_LINE, write);
                }
            }
        }
    }
}

/// Section tag of [`MemoryModeSystem`] snapshots.
const SECTION_MEMORY_MODE: u16 = 0x39;

impl Snapshot for MemoryModeSystem {
    fn save(&self, w: &mut SnapshotWriter) {
        w.section(SECTION_MEMORY_MODE);
        self.nvram.save(w);
        self.dram.save(w);
        w.put_u64(self.sets);
        w.put_usize(self.tags.len());
        let mut entries: Vec<_> = self.tags.iter().map(|(&s, &(t, d))| (s, t, d)).collect();
        entries.sort_unstable();
        for (set, tag, dirty) in entries {
            w.put_u64(set);
            w.put_u64(tag);
            w.put_bool(dirty);
        }
        self.in_flight.save(w);
        w.put_u64(self.next_id);
        w.put_u64(self.stats.hits);
        w.put_u64(self.stats.misses);
        w.put_u64(self.stats.writebacks);
    }

    fn restore(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        r.expect_section(SECTION_MEMORY_MODE)?;
        self.nvram.restore(r)?;
        self.dram.restore(r)?;
        let sets = r.get_u64()?;
        if sets != self.sets {
            return Err(r.invalid("near-memory cache set count differs from this configuration"));
        }
        let n = r.get_usize()?;
        if n > r.remaining() {
            return Err(r.invalid("tag-array entry count exceeds the blob"));
        }
        self.tags.clear();
        for _ in 0..n {
            let set = r.get_u64()?;
            let tag = r.get_u64()?;
            let dirty = r.get_bool()?;
            self.tags.insert(set, (tag, dirty));
        }
        self.in_flight.restore(r)?;
        self.next_id = r.get_u64()?;
        self.in_flight.check_issued(self.next_id, r)?;
        self.stats.hits = r.get_u64()?;
        self.stats.misses = r.get_u64()?;
        self.stats.writebacks = r.get_u64()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sys() -> MemoryModeSystem {
        MemoryModeSystem::new(VansConfig::optane_1dimm()).expect("valid preset")
    }

    #[test]
    fn second_access_hits_dram() {
        let mut s = sys();
        let cold = s.execute(RequestDesc::load(Addr::new(0x40)));
        let t0 = s.now();
        let warm = s.execute(RequestDesc::load(Addr::new(0x40)));
        assert!(warm - t0 < cold, "cold {cold}, warm {}", warm - t0);
        assert_eq!(s.stats().hits, 1);
        assert_eq!(s.stats().misses, 1);
    }

    #[test]
    fn conflicting_dirty_line_writes_back() {
        let mut s = sys();
        let sets = s.sets;
        // Dirty a line, then touch the conflicting line one tag away.
        s.execute(RequestDesc::store(Addr::new(0)));
        s.execute(RequestDesc::load(Addr::new(sets * CACHE_LINE)));
        assert_eq!(s.stats().writebacks, 1);
        assert!(s.counters().bus_writes >= 1);
    }

    #[test]
    fn fences_are_free_in_memory_mode() {
        let mut s = sys();
        let t0 = s.now();
        let t1 = s.fence();
        assert_eq!(t0, t1);
        assert!(!s.models_persistence_ops());
    }

    #[test]
    fn hit_rate_reflects_working_set() {
        let mut s = sys();
        // Small working set: high hit rate after warmup.
        for pass in 0..2 {
            for i in 0..64u64 {
                s.execute(RequestDesc::load(Addr::new(i * 64)));
            }
            if pass == 0 {
                continue;
            }
        }
        let st = s.stats();
        assert_eq!(st.misses, 64);
        assert_eq!(st.hits, 64);
    }

    #[test]
    fn label_mentions_memory_mode() {
        assert!(sys().label().contains("MemoryMode"));
    }

    #[test]
    fn snapshot_roundtrip_continues_identically() {
        let mut a = sys();
        let mut rng = nvsim_types::DetRng::seed_from(11);
        for _ in 0..200 {
            let addr = Addr::new((rng.next_u64() % (2 * a.sets)) * CACHE_LINE);
            if rng.next_u64().is_multiple_of(2) {
                a.execute(RequestDesc::load(addr));
            } else {
                a.execute(RequestDesc::store(addr));
            }
        }
        let blob = a.save_snapshot().expect("memory mode supports snapshots");
        let mut b = sys();
        b.restore_snapshot(&blob).expect("same configuration");
        assert_eq!(a.stats(), b.stats());
        for _ in 0..100 {
            let addr = Addr::new((rng.next_u64() % (2 * a.sets)) * CACHE_LINE);
            let ta = a.execute(RequestDesc::store(addr));
            // Replay identically on b: reproduce the rng draw.
            let tb = b.execute(RequestDesc::store(addr));
            assert_eq!(ta, tb);
        }
        assert_eq!(a.stats(), b.stats());
        assert_eq!(a.counters(), b.counters());
        assert_eq!(a.save_snapshot(), b.save_snapshot());
    }

    #[test]
    fn warm_access_populates_the_tag_array() {
        let mut s = sys();
        s.warm_access(&RequestDesc::load(Addr::new(0x40)));
        assert_eq!(s.now(), Time::ZERO, "warming never advances the clock");
        let t0 = s.now();
        let warm = s.execute(RequestDesc::load(Addr::new(0x40)));
        assert_eq!(s.stats().hits, 1, "warmed line is resident");
        let mut cold_sys = sys();
        let cold = cold_sys.execute(RequestDesc::load(Addr::new(0x40)));
        assert!(warm - t0 < cold);
    }
}
