//! Lazy cache (§V-C): a small two-level on-DIMM write cache for
//! wear-hot data.
//!
//! The paper's YCSB profiling (Fig 12b) shows ten cache lines absorbing
//! over 100× more writes than everything else, triggering ~503× more
//! wear-leveling work. Lazy cache adds a 3 KB two-level inclusive cache
//! (LZ1 64 B entries, LZ2 128 B entries) plus a write-lookaside buffer
//! (WLB) holding the cached addresses. It is fed by the AIT's existing
//! wear records: once a write triggers wear-leveling, subsequent writes
//! to that location are absorbed by the Lazy cache instead of hammering
//! the RMW/AIT path. Persistence relies on the existing ADR domain — at
//! 3 KB the structure is far smaller than the other on-DIMM buffers.

use crate::buffer::LruBuffer;
use nvsim_types::snapshot::{Snapshot, SnapshotError, SnapshotReader, SnapshotWriter};
use nvsim_types::{Addr, Time, CACHE_LINE, CACHE_LINE_U32};
use serde::{Deserialize, Serialize};

/// Lazy cache configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LazyCacheConfig {
    /// LZ1 capacity in bytes (64 B granularity). Paper: 1 KB.
    pub lz1_bytes: u32,
    /// LZ2 capacity in bytes (128 B granularity). Paper: 2 KB.
    pub lz2_bytes: u32,
    /// Access latency of LZ1.
    pub lz1_latency: Time,
    /// Access latency of LZ2.
    pub lz2_latency: Time,
    /// How many wear-block migrations an address neighbourhood needs
    /// before its writes are considered lazy-cacheable (the paper's
    /// "priority threshold").
    pub priority_threshold: u32,
}

impl LazyCacheConfig {
    /// The paper's evaluation configuration: 1 KB LZ1 + 2 KB LZ2.
    pub fn paper() -> Self {
        LazyCacheConfig {
            lz1_bytes: 1024,
            lz2_bytes: 2048,
            lz1_latency: Time::from_ns(crate::params::LZ1_LATENCY_NS),
            lz2_latency: Time::from_ns(crate::params::LZ2_LATENCY_NS),
            priority_threshold: 1,
        }
    }
}

/// Statistics of Lazy cache behaviour.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LazyCacheStats {
    /// Writes absorbed by the cache (did not reach the RMW/AIT path).
    pub absorbed_writes: u64,
    /// Writes that were not hot enough to absorb.
    pub passed_writes: u64,
    /// Reads served from LZ1.
    pub lz1_read_hits: u64,
    /// Reads served from LZ2.
    pub lz2_read_hits: u64,
    /// Lines currently tracked as wear-hot.
    pub hot_lines: u64,
}

/// The Lazy cache model.
#[derive(Debug)]
pub struct LazyCache {
    // nvsim-lint: allow(snapshot-field-coverage) — construction-time configuration; never mutated.
    cfg: LazyCacheConfig,
    /// LZ1: 64 B entries keyed by line index.
    lz1: LruBuffer,
    /// LZ2: 128 B entries keyed by 128 B block index.
    lz2: LruBuffer,
    /// WLB: wear-hot line indices with their migration-derived priority.
    /// Ordered map so any future iteration (stats, dumps) is deterministic.
    wlb: std::collections::BTreeMap<u64, u32>,
    stats: LazyCacheStats,
}

impl LazyCache {
    /// Creates a Lazy cache.
    pub fn new(cfg: LazyCacheConfig) -> Self {
        LazyCache {
            lz1: LruBuffer::new((cfg.lz1_bytes / CACHE_LINE_U32).max(1) as usize),
            lz2: LruBuffer::new((cfg.lz2_bytes / 128).max(1) as usize),
            cfg,
            wlb: std::collections::BTreeMap::new(),
            stats: LazyCacheStats::default(),
        }
    }

    /// Statistics so far.
    pub fn stats(&self) -> LazyCacheStats {
        let mut s = self.stats;
        // nvsim-lint: allow(unit-mismatch) — the WLB is keyed by line index, so its len() IS the hot-line count.
        s.hot_lines = self.wlb.len() as u64;
        s
    }

    /// Marks the 64 KB wear block starting at `block_addr` as having
    /// migrated; its lines become lazy-cacheable candidates. Called by the
    /// DIMM when the AIT reports a migration, reusing the wear record the
    /// AIT already maintains.
    pub fn record_migration(&mut self, line_addrs: impl Iterator<Item = Addr>) {
        for a in line_addrs {
            *self.wlb.entry(a.line_index()).or_insert(0) += 1;
        }
    }

    fn is_hot(&self, line: u64) -> bool {
        self.wlb
            .get(&line)
            .is_some_and(|&p| p >= self.cfg.priority_threshold)
    }

    /// Attempts to absorb a (combined) write of `bytes` at `block_addr`.
    /// Returns the completion time if the write was absorbed, or `None`
    /// if it must proceed down the RMW/AIT path.
    pub fn try_absorb_write(&mut self, block_addr: Addr, bytes: u32, t: Time) -> Option<Time> {
        let lines = (bytes as u64).div_ceil(CACHE_LINE);
        let first_line = block_addr.line_index();
        let all_hot = (0..lines).all(|i| self.is_hot(first_line + i));
        if !all_hot {
            self.stats.passed_writes += 1;
            return None;
        }
        self.stats.absorbed_writes += 1;
        let mut done = t;
        for i in 0..lines {
            let line = first_line + i;
            self.lz1.touch(line, true);
            // Inclusive hierarchy: LZ2 holds the containing 128 B block.
            self.lz2.touch(line / 2, true);
            done += self.cfg.lz1_latency;
        }
        Some(done)
    }

    /// Attempts to serve a read of `addr`; returns the completion time on
    /// a hit.
    pub fn try_read(&mut self, addr: Addr, t: Time) -> Option<Time> {
        let line = addr.line_index();
        if self.lz1.touch_hit(line, false) {
            self.stats.lz1_read_hits += 1;
            return Some(t + self.cfg.lz1_latency);
        }
        if self.lz2.touch_hit(line / 2, false) {
            self.stats.lz2_read_hits += 1;
            return Some(t + self.cfg.lz2_latency);
        }
        None
    }
}

/// Section tag of [`LazyCache`] snapshots.
const SECTION_LAZY: u16 = 0x37;

impl Snapshot for LazyCache {
    fn save(&self, w: &mut SnapshotWriter) {
        w.section(SECTION_LAZY);
        self.lz1.save(w);
        self.lz2.save(w);
        w.put_usize(self.wlb.len());
        for (&line, &priority) in &self.wlb {
            w.put_u64(line);
            w.put_u32(priority);
        }
        w.put_u64(self.stats.absorbed_writes);
        w.put_u64(self.stats.passed_writes);
        w.put_u64(self.stats.lz1_read_hits);
        w.put_u64(self.stats.lz2_read_hits);
    }

    fn restore(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        r.expect_section(SECTION_LAZY)?;
        self.lz1.restore(r)?;
        self.lz2.restore(r)?;
        let n = r.get_usize()?;
        if n > r.remaining() {
            return Err(r.invalid("WLB entry count exceeds payload"));
        }
        self.wlb.clear();
        for _ in 0..n {
            let line = r.get_u64()?;
            let priority = r.get_u32()?;
            self.wlb.insert(line, priority);
        }
        self.stats.absorbed_writes = r.get_u64()?;
        self.stats.passed_writes = r.get_u64()?;
        self.stats.lz1_read_hits = r.get_u64()?;
        self.stats.lz2_read_hits = r.get_u64()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lazy() -> LazyCache {
        LazyCache::new(LazyCacheConfig::paper())
    }

    fn mark_hot(l: &mut LazyCache, addr: Addr, lines: u64) {
        l.record_migration((0..lines).map(|i| addr + i * 64));
    }

    #[test]
    fn cold_writes_pass_through() {
        let mut l = lazy();
        assert!(l.try_absorb_write(Addr::new(0), 64, Time::ZERO).is_none());
        assert_eq!(l.stats().passed_writes, 1);
    }

    #[test]
    fn hot_writes_are_absorbed() {
        let mut l = lazy();
        mark_hot(&mut l, Addr::new(0), 4);
        let done = l.try_absorb_write(Addr::new(0), 256, Time::ZERO);
        assert!(done.is_some());
        assert_eq!(l.stats().absorbed_writes, 1);
    }

    #[test]
    fn absorbed_data_is_readable() {
        let mut l = lazy();
        mark_hot(&mut l, Addr::new(0), 1);
        l.try_absorb_write(Addr::new(0), 64, Time::ZERO).unwrap();
        let r = l.try_read(Addr::new(0), Time::from_ns(100));
        assert_eq!(r, Some(Time::from_ns(110)));
        assert_eq!(l.stats().lz1_read_hits, 1);
    }

    #[test]
    fn lz2_serves_after_lz1_eviction() {
        let mut l = lazy();
        // Make 32 hot lines: more than LZ1's 16 entries, within LZ2's
        // 16 × 128 B = 32-line reach.
        mark_hot(&mut l, Addr::new(0), 32);
        for i in 0..32u64 {
            l.try_absorb_write(Addr::new(i * 64), 64, Time::ZERO);
        }
        // Line 0 fell out of LZ1 but its 128 B block may survive in LZ2.
        let r = l.try_read(Addr::new(0), Time::ZERO);
        assert!(r.is_some(), "inclusive LZ2 should still hold line 0");
        assert!(l.stats().lz2_read_hits >= 1);
    }

    #[test]
    fn partial_hot_block_not_absorbed() {
        let mut l = lazy();
        mark_hot(&mut l, Addr::new(0), 2); // lines 0-1 hot, 2-3 cold
        assert!(l.try_absorb_write(Addr::new(0), 256, Time::ZERO).is_none());
    }

    #[test]
    fn misses_return_none() {
        let mut l = lazy();
        assert!(l.try_read(Addr::new(0x1000), Time::ZERO).is_none());
    }

    #[test]
    fn priority_threshold_respected() {
        let mut cfg = LazyCacheConfig::paper();
        cfg.priority_threshold = 2;
        let mut l = LazyCache::new(cfg);
        l.record_migration(std::iter::once(Addr::new(0)));
        assert!(l.try_absorb_write(Addr::new(0), 64, Time::ZERO).is_none());
        l.record_migration(std::iter::once(Addr::new(0)));
        assert!(l.try_absorb_write(Addr::new(0), 64, Time::ZERO).is_some());
    }
}
