//! The read-modify-write (RMW) buffer.
//!
//! A 16 KB SRAM structure of 256 B entries (§IV-A, Table V). It stages
//! 256 B blocks between the LSQ and the AIT:
//!
//! * **Reads** are served from resident blocks (SRAM latency); misses
//!   fetch the block from the AIT and allocate it.
//! * **Writes** merge into the buffer and are *written through* to the AIT
//!   (every write ultimately reaches the AIT entry, which is where wear
//!   records accumulate). A sub-256 B write whose block is absent first
//!   performs the read half of a read-modify-write — fetching the block
//!   from the AIT — exactly the amplification LENS measures (Fig 6).

use crate::buffer::LruBuffer;
use crate::config::RmwConfig;
use nvsim_types::snapshot::{Snapshot, SnapshotError, SnapshotReader, SnapshotWriter};
use nvsim_types::{Addr, Time};

/// What the RMW stage needs from the next level (the AIT) to complete an
/// operation. Returned to the caller (the DIMM), which owns the AIT and
/// performs the timed accesses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RmwOutcome {
    /// Time the SRAM lookup (and merge, for writes) finished.
    pub sram_done: Time,
    /// Whether the block was resident.
    pub hit: bool,
    /// Whether the operation requires fetching the whole block from the
    /// AIT before it can complete (read miss, or partial-write miss).
    pub needs_fill: bool,
}

/// Statistics of RMW behaviour.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RmwStats {
    /// Read lookups that hit.
    pub read_hits: u64,
    /// Read lookups that missed (and filled from the AIT).
    pub read_misses: u64,
    /// Write operations that found their block resident.
    pub write_hits: u64,
    /// Write operations that missed.
    pub write_misses: u64,
    /// Read-modify-write fills triggered by partial writes.
    pub rmw_fills: u64,
    /// Bytes fetched from the AIT into this buffer.
    pub fill_bytes: u64,
}

/// The RMW buffer model.
#[derive(Debug, Clone)]
pub struct Rmw {
    // nvsim-lint: allow(snapshot-field-coverage) — construction-time configuration; never mutated.
    cfg: RmwConfig,
    blocks: LruBuffer,
    port_free: Time,
    stats: RmwStats,
}

impl Rmw {
    /// Creates an RMW buffer.
    pub fn new(cfg: RmwConfig) -> Self {
        Rmw {
            blocks: LruBuffer::new(cfg.entries as usize),
            cfg,
            port_free: Time::ZERO,
            stats: RmwStats::default(),
        }
    }

    /// The entry granularity in bytes.
    pub fn entry_bytes(&self) -> u32 {
        self.cfg.entry_bytes
    }

    /// Statistics so far.
    pub fn stats(&self) -> RmwStats {
        self.stats
    }

    /// Resets statistics (not contents).
    pub fn reset_stats(&mut self) {
        self.stats = RmwStats::default();
        self.blocks.reset_stats();
    }

    fn key(&self, addr: Addr) -> u64 {
        addr.block_index(self.cfg.entry_bytes as u64)
    }

    fn port(&mut self, t: Time) -> Time {
        let start = t.max(self.port_free);
        // The port frees after `port_occupancy` (accesses pipeline); the
        // result arrives after the full SRAM latency.
        self.port_free = start + self.cfg.port_occupancy;
        start + self.cfg.sram_latency
    }

    /// Looks up a read of the block containing `addr` at time `t`.
    ///
    /// On a miss the caller must fetch the block from the AIT and then
    /// call [`fill`](Self::fill).
    pub fn read(&mut self, addr: Addr, t: Time) -> RmwOutcome {
        let sram_done = self.port(t);
        let key = self.key(addr);
        let hit = self.blocks.touch_hit(key, false);
        if hit {
            self.stats.read_hits += 1;
        } else {
            self.stats.read_misses += 1;
        }
        RmwOutcome {
            sram_done,
            hit,
            needs_fill: !hit,
        }
    }

    /// Performs the buffer-side part of a write of `bytes` bytes into the
    /// block containing `addr` at time `t`.
    ///
    /// A full-block write never needs a fill; a partial write of an absent
    /// block does (the "read" half of read-modify-write). In both cases
    /// the write data is subsequently written through to the AIT by the
    /// caller.
    pub fn write(&mut self, addr: Addr, bytes: u32, t: Time) -> RmwOutcome {
        assert!(
            bytes <= self.cfg.entry_bytes,
            "write larger than an RMW entry must be split by the caller"
        );
        let sram_done = self.port(t);
        let key = self.key(addr);
        let hit = self.blocks.touch_hit(key, false);
        let full = bytes == self.cfg.entry_bytes;
        let needs_fill = !hit && !full;
        if hit {
            self.stats.write_hits += 1;
        } else {
            self.stats.write_misses += 1;
        }
        if needs_fill {
            self.stats.rmw_fills += 1;
        } else if !hit {
            // A full write allocates immediately. Entries are clean: the
            // write is written through to the AIT.
            self.blocks.insert_missed(key, false);
        }
        RmwOutcome {
            sram_done,
            hit,
            needs_fill,
        }
    }

    /// Installs a block fetched from the AIT (completing a read miss or a
    /// partial-write fill).
    pub fn fill(&mut self, addr: Addr) {
        let key = self.key(addr);
        self.stats.fill_bytes += self.cfg.entry_bytes as u64;
        // Entries are clean (write-through); evictions need no write-back.
        debug_assert!(
            !self.blocks.contains(key),
            "fill of an already-resident block"
        );
        self.blocks.insert_missed(key, false);
    }

    /// Functional-warming touch of the block containing `addr`: updates
    /// residency and recency without port timing or fill accounting.
    /// Returns `true` when the block was absent (the timed path would
    /// have fetched it from the AIT).
    pub fn warm(&mut self, addr: Addr) -> bool {
        let key = self.key(addr);
        let hit = self.blocks.touch_hit(key, false);
        if !hit {
            self.blocks.insert_missed(key, false);
        }
        !hit
    }

    /// Occupied entries.
    pub fn occupancy(&self) -> usize {
        self.blocks.len()
    }
}

/// Section tag of [`Rmw`] snapshots.
const SECTION_RMW: u16 = 0x31;

impl Snapshot for Rmw {
    fn save(&self, w: &mut SnapshotWriter) {
        w.section(SECTION_RMW);
        self.blocks.save(w);
        w.put_time(self.port_free);
        w.put_u64(self.stats.read_hits);
        w.put_u64(self.stats.read_misses);
        w.put_u64(self.stats.write_hits);
        w.put_u64(self.stats.write_misses);
        w.put_u64(self.stats.rmw_fills);
        w.put_u64(self.stats.fill_bytes);
    }

    fn restore(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        r.expect_section(SECTION_RMW)?;
        self.blocks.restore(r)?;
        self.port_free = r.get_time()?;
        self.stats.read_hits = r.get_u64()?;
        self.stats.read_misses = r.get_u64()?;
        self.stats.write_hits = r.get_u64()?;
        self.stats.write_misses = r.get_u64()?;
        self.stats.rmw_fills = r.get_u64()?;
        self.stats.fill_bytes = r.get_u64()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rmw() -> Rmw {
        Rmw::new(RmwConfig {
            entries: 4,
            entry_bytes: 256,
            sram_latency: Time::from_ns(30),
            port_occupancy: Time::from_ns(30),
        })
    }

    #[test]
    fn read_miss_then_hit() {
        let mut r = rmw();
        let o = r.read(Addr::new(0), Time::ZERO);
        assert!(!o.hit);
        assert!(o.needs_fill);
        assert_eq!(o.sram_done, Time::from_ns(30));
        r.fill(Addr::new(0));
        let o2 = r.read(Addr::new(64), o.sram_done); // same 256B block
        assert!(o2.hit);
        assert!(!o2.needs_fill);
        assert_eq!(r.stats().read_hits, 1);
        assert_eq!(r.stats().read_misses, 1);
        assert_eq!(r.stats().fill_bytes, 256);
    }

    #[test]
    fn full_block_write_never_fills() {
        let mut r = rmw();
        let o = r.write(Addr::new(0), 256, Time::ZERO);
        assert!(!o.needs_fill);
        assert!(!o.hit);
        // Block is now resident for subsequent reads.
        assert!(r.read(Addr::new(128), o.sram_done).hit);
    }

    #[test]
    fn partial_write_miss_triggers_rmw_fill() {
        let mut r = rmw();
        let o = r.write(Addr::new(0), 64, Time::ZERO);
        assert!(o.needs_fill);
        assert_eq!(r.stats().rmw_fills, 1);
        r.fill(Addr::new(0));
        // Subsequent partial write to the same block merges without a fill.
        let o2 = r.write(Addr::new(64), 64, o.sram_done);
        assert!(o2.hit);
        assert!(!o2.needs_fill);
    }

    #[test]
    fn lru_capacity_bounded() {
        let mut r = rmw();
        for i in 0..10u64 {
            r.write(Addr::new(i * 256), 256, Time::ZERO);
        }
        assert!(r.occupancy() <= 4);
    }

    #[test]
    fn port_serializes() {
        let mut r = rmw();
        let a = r.read(Addr::new(0), Time::ZERO);
        let b = r.read(Addr::new(256), Time::ZERO);
        assert_eq!(b.sram_done, a.sram_done + Time::from_ns(30));
    }

    #[test]
    #[should_panic(expected = "split by the caller")]
    fn oversized_write_panics() {
        rmw().write(Addr::new(0), 512, Time::ZERO);
    }

    #[test]
    fn stats_reset() {
        let mut r = rmw();
        r.read(Addr::new(0), Time::ZERO);
        r.reset_stats();
        assert_eq!(r.stats(), RmwStats::default());
    }
}
