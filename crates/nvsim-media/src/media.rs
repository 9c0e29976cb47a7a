//! Die-level media timing model.

use nvsim_types::error::{require_nonzero, require_power_of_two};
use nvsim_types::snapshot::{Snapshot, SnapshotError, SnapshotReader, SnapshotWriter};
use nvsim_types::{ConfigError, KeyTable, Time};
use serde::{Deserialize, Serialize};
use std::fmt;

/// An address within the NVRAM media address space (post-AIT translation).
///
/// Deliberately a distinct type from [`nvsim_types::Addr`]: the whole point
/// of the AIT is that physical and media addresses differ, and mixing them
/// up is a bug the type system should catch.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct MediaAddr(u64);

impl MediaAddr {
    /// Creates a media address.
    pub const fn new(raw: u64) -> Self {
        MediaAddr(raw)
    }

    /// Raw byte offset into the media.
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// Index of the `block`-sized media block containing this address.
    pub fn block_index(self, block: u64) -> u64 {
        self.0 / block
    }

    /// Address advanced by `bytes`.
    pub const fn offset(self, bytes: u64) -> Self {
        MediaAddr(self.0 + bytes)
    }
}

impl fmt::Display for MediaAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ma:{:#x}", self.0)
    }
}

/// Configuration of the media array.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MediaConfig {
    /// Total media capacity in bytes.
    pub capacity_bytes: u64,
    /// Number of independent dies.
    pub dies: u32,
    /// Access unit in bytes (256 for 3D-XPoint).
    pub access_unit: u32,
    /// Die read latency per access unit.
    pub read_latency: Time,
    /// Die write latency per access unit.
    pub write_latency: Time,
    /// Internal bus bandwidth between media and on-DIMM buffers, bytes/ns
    /// (i.e. GB/s).
    pub bus_gbps: f64,
}

impl MediaConfig {
    /// Parameters approximating a 3D-XPoint Optane DIMM media array:
    /// 16 dies, 256 B units, ~150 ns reads, ~450 ns writes, 32 GB/s
    /// internal bus. Default capacity 4 GB (the VANS validation media
    /// size; Fig 10a shows capacity does not move the latency curves).
    pub fn optane_like() -> Self {
        MediaConfig {
            capacity_bytes: 4 << 30,
            dies: 16,
            access_unit: 256,
            read_latency: Time::from_ns(crate::params::MEDIA_READ_NS),
            write_latency: Time::from_ns(crate::params::MEDIA_WRITE_NS),
            bus_gbps: 64.0,
        }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] naming the first invalid field.
    pub fn validate(&self) -> Result<(), ConfigError> {
        require_nonzero("media.capacity_bytes", self.capacity_bytes)?;
        require_power_of_two("media.dies", self.dies as u64)?;
        require_power_of_two("media.access_unit", self.access_unit as u64)?;
        if self.bus_gbps <= 0.0 {
            return Err(ConfigError::new("media.bus_gbps", "must be positive"));
        }
        if !self.capacity_bytes.is_multiple_of(self.access_unit as u64) {
            return Err(ConfigError::new(
                "media.capacity_bytes",
                "must be a multiple of the access unit",
            ));
        }
        Ok(())
    }

    /// Time to move `bytes` over the internal bus.
    pub fn bus_time(&self, bytes: u64) -> Time {
        Time::from_ns_f64(bytes as f64 / self.bus_gbps)
    }
}

/// Traffic statistics of the media array.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MediaStats {
    /// Access units read.
    pub units_read: u64,
    /// Access units written.
    pub units_written: u64,
    /// Bytes read (units × unit size).
    pub bytes_read: u64,
    /// Bytes written.
    pub bytes_written: u64,
}

impl MediaStats {
    /// Bytes written expressed as 64 B cache lines. The crash-consistency
    /// layer reports this next to its durable-line counts: media writes
    /// vastly exceed durable lines because write-backs and wear-leveling
    /// copies move whole pages and blocks.
    pub fn lines_written(&self) -> u64 {
        self.bytes_written / 64
    }
}

/// The media array timing model.
///
/// Requests are split into access units; unit `u` is served by die
/// `u mod dies`. Each die serves one unit at a time; the shared internal
/// bus serializes data transfer. The model returns the completion time of
/// the whole request.
#[derive(Debug, Clone)]
pub struct XpointMedia {
    // nvsim-lint: allow(snapshot-field-coverage) — construction-time configuration; never mutated.
    cfg: MediaConfig,
    // nvsim-lint: allow(snapshot-field-coverage) — derived from `cfg` at construction (log2 of the access unit); immutable.
    unit_shift: u32,
    // nvsim-lint: allow(snapshot-field-coverage) — derived from `cfg` at construction (dies − 1); immutable.
    die_mask: u64,
    // nvsim-lint: allow(snapshot-field-coverage) — derived from `cfg` at construction (one unit's bus time); immutable.
    unit_bus_time: Time,
    die_free: Vec<Time>,
    bus_free: Time,
    stats: MediaStats,
    /// Lifetime writes per access unit index; units below the capacity
    /// are chunk-indexed, migration targets past it kept sparsely.
    unit_writes: KeyTable,
}

impl XpointMedia {
    /// Builds a media array from a validated configuration.
    ///
    /// # Errors
    ///
    /// Returns the configuration validation error, if any.
    pub fn new(cfg: MediaConfig) -> Result<Self, ConfigError> {
        cfg.validate()?;
        let dies = cfg.dies as usize;
        let unit_shift = cfg.access_unit.trailing_zeros();
        let units = cfg.capacity_bytes >> unit_shift;
        Ok(XpointMedia {
            unit_shift,
            die_mask: u64::from(cfg.dies) - 1,
            unit_bus_time: cfg.bus_time(cfg.access_unit as u64),
            cfg,
            die_free: vec![Time::ZERO; dies],
            bus_free: Time::ZERO,
            stats: MediaStats::default(),
            unit_writes: KeyTable::new(units),
        })
    }

    /// The configuration in effect.
    pub fn config(&self) -> &MediaConfig {
        &self.cfg
    }

    /// Traffic statistics.
    pub fn stats(&self) -> MediaStats {
        self.stats
    }

    /// Resets traffic statistics (not die/bus state or wear).
    pub fn reset_stats(&mut self) {
        self.stats = MediaStats::default();
    }

    /// Lifetime write count of the access unit containing `addr`.
    pub fn unit_write_count(&self, addr: MediaAddr) -> u64 {
        self.unit_writes.get(addr.raw() >> self.unit_shift)
    }

    fn access(&mut self, addr: MediaAddr, size: u32, earliest: Time, write: bool) -> Time {
        assert!(size > 0, "zero-size media access");
        let start_unit = addr.raw() >> self.unit_shift;
        let end_unit = (addr.raw() + size as u64 - 1) >> self.unit_shift;
        let lat = if write {
            self.cfg.write_latency
        } else {
            self.cfg.read_latency
        };
        let mut done = earliest;
        for u in start_unit..=end_unit {
            let die = (u & self.die_mask) as usize;
            let start = earliest.max(self.die_free[die]);
            let array_done = start + lat;
            self.die_free[die] = array_done;
            // The unit's data then crosses the internal bus.
            let bus_start = array_done.max(self.bus_free);
            let bus_done = bus_start + self.unit_bus_time;
            self.bus_free = bus_done;
            done = done.max(bus_done);
            if write {
                self.unit_writes.update(u, |count| count.saturating_add(1));
            }
        }
        let units = end_unit - start_unit + 1;
        let bytes = units << self.unit_shift;
        if write {
            self.stats.units_written += units;
            self.stats.bytes_written += bytes;
        } else {
            self.stats.units_read += units;
            self.stats.bytes_read += bytes;
        }
        done
    }

    /// Reads `size` bytes starting at `addr`; returns the completion time.
    ///
    /// The read always transfers whole access units (this is the media-side
    /// amplification LENS measures).
    pub fn read(&mut self, addr: MediaAddr, size: u32, earliest: Time) -> Time {
        self.access(addr, size, earliest, false)
    }

    /// Writes `size` bytes starting at `addr`; returns the completion time.
    pub fn write(&mut self, addr: MediaAddr, size: u32, earliest: Time) -> Time {
        self.access(addr, size, earliest, true)
    }

    /// Copies `size` bytes from `src` to `dst` (used by wear-leveling
    /// migration); returns the completion time.
    pub fn copy(&mut self, src: MediaAddr, dst: MediaAddr, size: u32, earliest: Time) -> Time {
        let read_done = self.read(src, size, earliest);
        self.write(dst, size, read_done)
    }
}

/// Section tag of [`XpointMedia`] snapshots.
const SECTION_MEDIA: u16 = 0x20;

impl Snapshot for XpointMedia {
    fn save(&self, w: &mut SnapshotWriter) {
        w.section(SECTION_MEDIA);
        w.put_usize(self.die_free.len());
        for &t in &self.die_free {
            w.put_time(t);
        }
        w.put_time(self.bus_free);
        w.put_u64(self.stats.units_read);
        w.put_u64(self.stats.units_written);
        w.put_u64(self.stats.bytes_read);
        w.put_u64(self.stats.bytes_written);
        w.put_usize(self.unit_writes.len());
        for (unit, count) in self.unit_writes.iter() {
            w.put_u64(unit);
            w.put_u64(count);
        }
    }

    fn restore(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        r.expect_section(SECTION_MEDIA)?;
        if r.get_usize()? != self.die_free.len() {
            return Err(r.invalid("die count differs from this configuration"));
        }
        for t in &mut self.die_free {
            *t = r.get_time()?;
        }
        self.bus_free = r.get_time()?;
        self.stats.units_read = r.get_u64()?;
        self.stats.units_written = r.get_u64()?;
        self.stats.bytes_read = r.get_u64()?;
        self.stats.bytes_written = r.get_u64()?;
        let n = r.get_usize()?;
        if n > r.remaining() {
            return Err(r.invalid("unit-writes count exceeds payload"));
        }
        self.unit_writes.clear();
        for _ in 0..n {
            let unit = r.get_u64()?;
            let count = r.get_u64()?;
            // A live run lists only written units; the table cannot hold
            // a zero count. A repeated unit keeps its last count.
            if count == 0 {
                return Err(r.invalid("zero unit write count"));
            }
            self.unit_writes.update(unit, |_| count);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvsim_types::snapshot::SnapshotErrorKind;

    fn media() -> XpointMedia {
        XpointMedia::new(MediaConfig::optane_like()).expect("valid preset")
    }

    #[test]
    fn single_unit_read_latency() {
        let mut m = media();
        let done = m.read(MediaAddr::new(0), 64, Time::ZERO);
        // One die read (110ns) + one 256B bus transfer (4ns at 64 GB/s).
        assert_eq!(done, Time::from_ns(110) + Time::from_ns(4));
    }

    #[test]
    fn four_kb_read_parallelizes_across_dies() {
        let mut m = media();
        let done = m.read(MediaAddr::new(0), 4096, Time::ZERO);
        // 16 units on 16 distinct dies: array phase fully parallel (110ns),
        // then 16 bus transfers of 4ns each serialize.
        assert_eq!(done, Time::from_ns(110 + 16 * 4));
        // Far cheaper than serial: 16 * 114ns.
        assert!(done < Time::from_ns(16 * 114));
    }

    #[test]
    fn same_die_units_serialize() {
        let mut m = media();
        // Units 0 and 16 both map to die 0.
        let first = m.read(MediaAddr::new(0), 64, Time::ZERO);
        let second = m.read(MediaAddr::new(16 * 256), 64, Time::ZERO);
        assert!(second > first);
        assert!(second >= Time::from_ns(220), "two serialized die reads");
    }

    #[test]
    fn writes_slower_than_reads() {
        let mut m = media();
        let r = m.read(MediaAddr::new(0), 64, Time::ZERO);
        let mut m2 = media();
        let w = m2.write(MediaAddr::new(0), 64, Time::ZERO);
        assert!(w > r);
    }

    #[test]
    fn stats_count_amplified_units() {
        let mut m = media();
        // A 64 B request still moves one whole 256 B unit.
        m.read(MediaAddr::new(0), 64, Time::ZERO);
        assert_eq!(m.stats().units_read, 1);
        assert_eq!(m.stats().bytes_read, 256);
        // A straddling 300 B request moves two units.
        m.write(MediaAddr::new(200), 300, Time::ZERO);
        assert_eq!(m.stats().units_written, 2);
        assert_eq!(m.stats().bytes_written, 512);
        m.reset_stats();
        assert_eq!(m.stats(), MediaStats::default());
    }

    #[test]
    fn stats_and_unit_writes_match_per_unit_accounting() {
        let mut m = media();
        let mut stats = MediaStats::default();
        let mut writes = std::collections::BTreeMap::new();
        let mut rng = nvsim_types::DetRng::seed_from(0x3d);
        let top = MediaConfig::optane_like().capacity_bytes;
        for i in 0..2_000u64 {
            // Aligned and straddling, single- and multi-unit, some at the
            // top of the media and past it.
            let size = [1, 64, 255, 256, 300, 512, 4096, 65536][rng.index(8)];
            let addr = match i % 4 {
                0 => rng.range_u64(0, 1 << 16),
                1 => top - rng.range_u64(1, 8192),
                2 => top + rng.range_u64(0, 8192),
                _ => rng.range_u64(0, top),
            };
            let write = rng.chance(0.5);
            let first = addr / 256;
            let last = (addr + size as u64 - 1) / 256;
            for u in first..=last {
                if write {
                    stats.units_written += 1;
                    stats.bytes_written += 256;
                    *writes.entry(u).or_insert(0u64) += 1;
                } else {
                    stats.units_read += 1;
                    stats.bytes_read += 256;
                }
            }
            if write {
                m.write(MediaAddr::new(addr), size, Time::from_ns(i));
            } else {
                m.read(MediaAddr::new(addr), size, Time::from_ns(i));
            }
            assert_eq!(m.stats(), stats, "after access {i}");
        }
        assert!(stats.units_written > 1_000 && stats.units_read > 1_000);
        let table: Vec<(u64, u64)> = m.unit_writes.iter().collect();
        let reference: Vec<(u64, u64)> = writes.into_iter().collect();
        assert_eq!(table, reference);
    }

    #[test]
    fn wear_counts_accumulate_per_unit() {
        let mut m = media();
        for _ in 0..5 {
            m.write(MediaAddr::new(0), 64, Time::ZERO);
        }
        m.write(MediaAddr::new(256), 64, Time::ZERO);
        assert_eq!(m.unit_write_count(MediaAddr::new(0)), 5);
        assert_eq!(m.unit_write_count(MediaAddr::new(63)), 5);
        assert_eq!(m.unit_write_count(MediaAddr::new(256)), 1);
        assert_eq!(m.unit_write_count(MediaAddr::new(512)), 0);
    }

    #[test]
    fn copy_is_read_then_write() {
        let mut m = media();
        let done = m.copy(MediaAddr::new(0), MediaAddr::new(1 << 20), 256, Time::ZERO);
        assert!(done >= Time::from_ns(110 + 400));
        assert_eq!(m.stats().units_read, 1);
        assert_eq!(m.stats().units_written, 1);
    }

    #[test]
    fn invalid_configs_rejected() {
        let mut cfg = MediaConfig::optane_like();
        cfg.dies = 3;
        assert!(XpointMedia::new(cfg).is_err());
        let mut cfg = MediaConfig::optane_like();
        cfg.bus_gbps = 0.0;
        assert!(XpointMedia::new(cfg).is_err());
        let mut cfg = MediaConfig::optane_like();
        cfg.capacity_bytes = 1000; // not a multiple of 256
        assert!(XpointMedia::new(cfg).is_err());
    }

    #[test]
    #[should_panic(expected = "zero-size")]
    fn zero_size_access_panics() {
        media().read(MediaAddr::new(0), 0, Time::ZERO);
    }

    #[test]
    fn media_addr_helpers() {
        let a = MediaAddr::new(65536 + 100);
        assert_eq!(a.block_index(65536), 1);
        assert_eq!(a.offset(28).raw(), 65536 + 128);
        assert_eq!(MediaAddr::new(0x40).to_string(), "ma:0x40");
    }

    #[test]
    fn snapshot_restore_continues_identically() {
        let mut live = media();
        for i in 0..40u64 {
            let addr = MediaAddr::new(i * 256);
            if i % 3 == 0 {
                live.write(addr, 64, Time::from_ns(i * 10));
            } else {
                live.read(addr, 64, Time::from_ns(i * 10));
            }
        }
        let mut w = SnapshotWriter::new();
        live.save(&mut w);
        let blob = w.into_bytes();

        let mut restored = media();
        let mut r = SnapshotReader::new(&blob);
        restored.restore(&mut r).unwrap();
        r.finish().unwrap();

        for i in 0..40u64 {
            let addr = MediaAddr::new((i % 7) * 512);
            let a = live.write(addr, 128, Time::from_ns(5000 + i * 7));
            let b = restored.write(addr, 128, Time::from_ns(5000 + i * 7));
            assert_eq!(a, b);
        }
        assert_eq!(live.stats().bytes_written, restored.stats().bytes_written);
        assert_eq!(
            live.unit_write_count(MediaAddr::new(0)),
            restored.unit_write_count(MediaAddr::new(0))
        );
    }

    #[test]
    fn writing_the_last_unit_allocates_one_chunk() {
        let mut m = media();
        let top = MediaAddr::new(MediaConfig::optane_like().capacity_bytes - 256);
        m.write(top, 256, Time::ZERO);
        assert_eq!(m.unit_write_count(top), 1);
        assert_eq!(m.unit_writes.allocated_chunks(), 1);
        // A whole page written back at the top of the media stays in it.
        let page = MediaAddr::new(MediaConfig::optane_like().capacity_bytes - 4096);
        m.write(page, 4096, Time::ZERO);
        assert_eq!(m.unit_write_count(top), 2);
        assert_eq!(m.unit_writes.allocated_chunks(), 1);
    }

    /// A blob of a fresh media array whose unit-write table lists
    /// `entries`; every other byte comes from `save`.
    fn blob_with_unit_writes(entries: &[(u64, u64)]) -> Vec<u8> {
        let mut w = SnapshotWriter::new();
        media().save(&mut w);
        let mut blob = w.into_bytes();
        assert_eq!(
            blob.pop(),
            Some(0),
            "an empty table saves a zero count last"
        );
        let mut table = SnapshotWriter::new();
        table.put_usize(entries.len());
        for &(unit, count) in entries {
            table.put_u64(unit);
            table.put_u64(count);
        }
        blob.extend(table.into_bytes());
        blob
    }

    #[test]
    fn zero_unit_write_count_is_rejected() {
        let blob = blob_with_unit_writes(&[(3, 2), (5, 0)]);
        let err = media()
            .restore(&mut SnapshotReader::new(&blob))
            .unwrap_err();
        assert!(
            matches!(err.kind, SnapshotErrorKind::Invalid(what) if what.contains("zero")),
            "{err}"
        );
    }

    #[test]
    fn far_unit_restores_byte_identically_without_a_chunk() {
        let blob = blob_with_unit_writes(&[(1 << 40, 7)]);
        let mut m = media();
        let mut r = SnapshotReader::new(&blob);
        m.restore(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(m.unit_write_count(MediaAddr::new((1 << 40) * 256)), 7);
        assert_eq!(m.unit_writes.allocated_chunks(), 0);
        let mut w = SnapshotWriter::new();
        m.save(&mut w);
        assert_eq!(w.into_bytes(), blob);
    }

    #[test]
    fn repeated_unit_keeps_its_last_count() {
        let blob = blob_with_unit_writes(&[(9, 4), (9, 2)]);
        let mut m = media();
        m.restore(&mut SnapshotReader::new(&blob)).unwrap();
        assert_eq!(m.unit_write_count(MediaAddr::new(9 * 256)), 2);
        assert_eq!(m.unit_writes.len(), 1);
    }

    #[test]
    fn snapshot_rejects_wrong_die_count() {
        let mut w = SnapshotWriter::new();
        media().save(&mut w);
        let blob = w.into_bytes();

        let mut cfg = MediaConfig::optane_like();
        cfg.dies *= 2;
        let mut other = XpointMedia::new(cfg).unwrap();
        let mut r = SnapshotReader::new(&blob);
        assert!(other.restore(&mut r).is_err());
    }
}
