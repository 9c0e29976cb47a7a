//! The on-DIMM load-store queue (LSQ).
//!
//! The LSQ is the highest-level storage on the DIMM (§IV-A): it queues
//! requests arriving from the iMC, performs **write combining** — merging
//! 64 B writes into 256 B blocks to reduce read-modify-write operations —
//! and fast-forwards reads of data it still holds. The paper characterizes
//! it as a 4 KB structure (64 × 64 B) whose overflow produces the second
//! write-latency knee (Fig 5a) and which is flushed by `mfence` (§III-C).

use crate::buffer::LruBuffer;
use crate::config::LsqConfig;
use nvsim_types::snapshot::{Snapshot, SnapshotError, SnapshotReader, SnapshotWriter};
use nvsim_types::{Addr, Time, CACHE_LINE_U32};

/// A group of resident lines belonging to one combine block, handed to the
/// RMW stage as a single (possibly partial) write.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CombinedWrite {
    /// Base address of the combine block (aligned to `combine_bytes`).
    pub block_addr: Addr,
    /// Number of resident 64 B lines being drained (1..=combine ratio).
    pub lines: u32,
}

impl CombinedWrite {
    /// Total bytes carried by the drained lines.
    pub fn bytes(&self) -> u32 {
        self.lines * CACHE_LINE_U32
    }
}

/// Statistics of LSQ behaviour.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LsqStats {
    /// Write lookups that merged into a resident line.
    pub write_merges: u64,
    /// New line allocations.
    pub allocations: u64,
    /// Drains issued to the RMW stage.
    pub drains: u64,
    /// Drains that combined more than one line.
    pub combined_drains: u64,
    /// Reads fast-forwarded from resident write data.
    pub read_forwards: u64,
}

/// The LSQ model: an LRU-managed set of dirty 64 B lines.
///
/// Timing is expressed through the `port_free` reservation: the LSQ
/// processes one lookup at a time with `cfg.latency` occupancy.
#[derive(Debug, Clone)]
pub struct Lsq {
    // nvsim-lint: allow(snapshot-field-coverage) — construction-time configuration; never mutated.
    cfg: LsqConfig,
    lines: LruBuffer,
    port_free: Time,
    stats: LsqStats,
    /// Reused per-eviction scratch for combine-block member keys, so the
    /// drain path allocates nothing in steady state.
    // nvsim-lint: allow(snapshot-field-coverage) — per-eviction scratch (see field docs); emptied before each use, no cross-call state.
    members: Vec<u64>,
}

impl Lsq {
    /// Creates an LSQ.
    pub fn new(cfg: LsqConfig) -> Self {
        Lsq {
            lines: LruBuffer::new(cfg.entries as usize),
            members: Vec::with_capacity((cfg.combine_bytes / CACHE_LINE_U32) as usize),
            cfg,
            port_free: Time::ZERO,
            stats: LsqStats::default(),
        }
    }

    /// Statistics so far.
    pub fn stats(&self) -> LsqStats {
        self.stats
    }

    /// Resets statistics (not contents).
    pub fn reset_stats(&mut self) {
        self.stats = LsqStats::default();
        self.lines.reset_stats();
    }

    /// Number of resident lines.
    pub fn occupancy(&self) -> usize {
        self.lines.len()
    }

    /// Cache-line indices currently resident, MRU first. The
    /// crash-consistency layer snapshots these: LSQ-resident lines sit
    /// below the WPQ and are therefore inside the ADR domain.
    pub fn resident_lines(&self) -> impl Iterator<Item = u64> + '_ {
        self.lines.iter().map(|(line, _)| line)
    }

    /// Reserves the lookup port from `t`; returns when the lookup's
    /// result is available. The port itself frees after `occupancy`
    /// (lookups pipeline).
    fn port(&mut self, t: Time) -> Time {
        let start = t.max(self.port_free);
        self.port_free = start + self.cfg.occupancy;
        start + self.cfg.latency
    }

    /// True if a read of `addr` can be fast-forwarded from resident data.
    pub fn read_probe(&mut self, addr: Addr) -> bool {
        let hit = self.lines.contains(addr.line_index());
        if hit {
            self.stats.read_forwards += 1;
        }
        hit
    }

    /// Accepts a 64 B write at time `t`.
    ///
    /// Returns `(accept_time, drained)`: the time the line is resident in
    /// the LSQ, and the combined write the caller must push into the RMW
    /// stage if an eviction was forced. The caller (the DIMM) is
    /// responsible for timing the drain; the LSQ entry is considered freed
    /// once the drain is *accepted* downstream, which the caller reflects
    /// back via the returned drain handle's timing.
    pub fn accept_write(&mut self, addr: Addr, t: Time) -> (Time, Option<CombinedWrite>) {
        let done = self.port(t);
        let key = addr.line_index();
        if self.lines.contains(key) {
            self.lines.touch(key, true);
            self.stats.write_merges += 1;
            return (done, None);
        }
        // Need a free entry: evict (combine) first if full.
        let drained = if self.lines.len() >= self.cfg.entries as usize {
            self.evict_one()
        } else {
            None
        };
        self.lines.touch(key, true);
        self.stats.allocations += 1;
        (done, drained)
    }

    /// Evicts the LRU line together with every resident line of its
    /// combine block (write combining). Returns `None` when the LSQ is
    /// empty.
    fn evict_one(&mut self) -> Option<CombinedWrite> {
        let victim = self.lines.peek_lru()?;
        let lines_per_block = self.cfg.combine_bytes / CACHE_LINE_U32;
        let block = victim / lines_per_block as u64;
        self.members.clear();
        for (k, _) in self.lines.iter() {
            if k / lines_per_block as u64 == block {
                self.members.push(k);
            }
        }
        for &k in &self.members {
            self.lines.invalidate(k);
        }
        self.stats.drains += 1;
        if self.members.len() > 1 {
            self.stats.combined_drains += 1;
        }
        Some(CombinedWrite {
            block_addr: Addr::new(block * self.cfg.combine_bytes as u64),
            // nvsim-lint: allow(unit-mismatch) — members holds line indices, so its len() IS the combined line count.
            lines: self.members.len() as u32, // nvsim-lint: allow(cast-truncation) — members is bounded by lines-per-combine-block (4)
        })
    }

    /// Functional-warming write: updates residency, recency and combine
    /// state the way [`accept_write`](Lsq::accept_write) would, without
    /// touching the port reservation. Returns the forced combine drain,
    /// if any, so the caller can warm the downstream RMW/AIT path.
    pub fn warm_write(&mut self, addr: Addr) -> Option<CombinedWrite> {
        let key = addr.line_index();
        if self.lines.contains(key) {
            self.lines.touch(key, true);
            self.stats.write_merges += 1;
            return None;
        }
        let drained = if self.lines.len() >= self.cfg.entries as usize {
            self.evict_one()
        } else {
            None
        };
        self.lines.touch(key, true);
        self.stats.allocations += 1;
        drained
    }

    /// Flushes every resident line (the `mfence` behaviour the paper
    /// characterizes) into `out` (cleared first) in drain order. Callers
    /// on the fence path reuse one scratch vector across flushes.
    pub fn flush_into(&mut self, out: &mut Vec<CombinedWrite>) {
        out.clear();
        while let Some(cw) = self.evict_one() {
            out.push(cw);
        }
    }

    /// Flushes every resident line, returning the combined writes in
    /// drain order. Allocates; hot paths should prefer
    /// [`flush_into`](Lsq::flush_into).
    pub fn flush(&mut self) -> Vec<CombinedWrite> {
        let mut out = Vec::new();
        self.flush_into(&mut out);
        out
    }
}

/// Section tag of [`Lsq`] snapshots.
const SECTION_LSQ: u16 = 0x30;

impl Snapshot for Lsq {
    fn save(&self, w: &mut SnapshotWriter) {
        w.section(SECTION_LSQ);
        self.lines.save(w);
        w.put_time(self.port_free);
        w.put_u64(self.stats.write_merges);
        w.put_u64(self.stats.allocations);
        w.put_u64(self.stats.drains);
        w.put_u64(self.stats.combined_drains);
        w.put_u64(self.stats.read_forwards);
    }

    fn restore(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        r.expect_section(SECTION_LSQ)?;
        self.lines.restore(r)?;
        self.port_free = r.get_time()?;
        self.stats.write_merges = r.get_u64()?;
        self.stats.allocations = r.get_u64()?;
        self.stats.drains = r.get_u64()?;
        self.stats.combined_drains = r.get_u64()?;
        self.stats.read_forwards = r.get_u64()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lsq() -> Lsq {
        Lsq::new(LsqConfig {
            entries: 4,
            latency: Time::from_ns(8),
            occupancy: Time::from_ns(8),
            combine_bytes: 256,
        })
    }

    #[test]
    fn writes_merge_without_draining() {
        let mut q = lsq();
        let (t1, d1) = q.accept_write(Addr::new(0), Time::ZERO);
        assert_eq!(t1, Time::from_ns(8));
        assert!(d1.is_none());
        let (_, d2) = q.accept_write(Addr::new(0), t1);
        assert!(d2.is_none());
        assert_eq!(q.stats().write_merges, 1);
        assert_eq!(q.occupancy(), 1);
    }

    #[test]
    fn port_serializes_lookups() {
        let mut q = lsq();
        let (t1, _) = q.accept_write(Addr::new(0), Time::ZERO);
        let (t2, _) = q.accept_write(Addr::new(64), Time::ZERO);
        assert_eq!(t2, t1 + Time::from_ns(8));
    }

    #[test]
    fn overflow_drains_lru_block() {
        let mut q = lsq();
        // Fill 4 entries in distinct 256B blocks.
        for i in 0..4u64 {
            q.accept_write(Addr::new(i * 256), Time::ZERO);
        }
        let (_, drained) = q.accept_write(Addr::new(4 * 256), Time::ZERO);
        let d = drained.expect("full LSQ must drain");
        assert_eq!(d.block_addr, Addr::new(0));
        assert_eq!(d.lines, 1);
        assert_eq!(d.bytes(), 64);
    }

    #[test]
    fn combining_gathers_same_block_lines() {
        let mut q = lsq();
        // 4 lines of the same 256B block.
        for i in 0..4u64 {
            q.accept_write(Addr::new(i * 64), Time::ZERO);
        }
        // Next write forces eviction of the whole combined block.
        let (_, drained) = q.accept_write(Addr::new(512), Time::ZERO);
        let d = drained.unwrap();
        assert_eq!(d.lines, 4);
        assert_eq!(d.bytes(), 256);
        assert_eq!(q.stats().combined_drains, 1);
        assert_eq!(q.occupancy(), 1);
    }

    #[test]
    fn read_probe_forwards_resident_lines() {
        let mut q = lsq();
        q.accept_write(Addr::new(128), Time::ZERO);
        assert!(q.read_probe(Addr::new(128)));
        assert!(q.read_probe(Addr::new(130))); // same line
        assert!(!q.read_probe(Addr::new(192)));
        assert_eq!(q.stats().read_forwards, 2);
    }

    #[test]
    fn flush_drains_everything_combined() {
        let mut q = lsq();
        for i in 0..4u64 {
            q.accept_write(Addr::new(i * 64), Time::ZERO);
        }
        let drains = q.flush();
        assert_eq!(drains.len(), 1);
        assert_eq!(drains[0].lines, 4);
        assert_eq!(q.occupancy(), 0);
        assert!(q.flush().is_empty());
    }

    #[test]
    fn stats_reset() {
        let mut q = lsq();
        q.accept_write(Addr::new(0), Time::ZERO);
        q.reset_stats();
        assert_eq!(q.stats(), LsqStats::default());
    }
}
