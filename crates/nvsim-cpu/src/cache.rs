//! Set-associative caches and the three-level hierarchy of Table V.

use nvsim_types::error::{require_nonzero, require_power_of_two};
use nvsim_types::snapshot::{Snapshot, SnapshotError, SnapshotReader, SnapshotWriter};
use nvsim_types::{Addr, ConfigError, CACHE_LINE};
use serde::{Deserialize, Serialize};

/// Configuration of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub capacity: u64,
    /// Associativity (ways).
    pub ways: u32,
    /// Hit latency in core cycles.
    pub hit_cycles: u32,
}

impl CacheConfig {
    /// Number of sets.
    pub fn sets(&self) -> u64 {
        self.capacity / (self.ways as u64 * CACHE_LINE)
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] naming the first invalid field.
    pub fn validate(&self) -> Result<(), ConfigError> {
        require_nonzero("cache.capacity", self.capacity)?;
        require_nonzero("cache.ways", self.ways as u64)?;
        if !self.capacity.is_multiple_of(self.ways as u64 * CACHE_LINE) {
            return Err(ConfigError::new(
                "cache.capacity",
                "must be a multiple of ways x line size",
            ));
        }
        require_power_of_two("cache.sets", self.sets())?;
        Ok(())
    }
}

/// The outcome of a cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheAccess {
    /// Whether the line was present.
    pub hit: bool,
    /// A dirty victim line (base address) that must be written back.
    pub writeback: Option<Addr>,
}

#[derive(Debug, Clone, Copy, Default)]
struct Way {
    tag: u64,
    valid: bool,
    dirty: bool,
    stamp: u64,
}

/// One set-associative, write-back, write-allocate cache level.
///
/// The ways of every set live in one flat array, set by set; a line's
/// low bits pick its set and the bits above them are its tag.
///
/// # Example
///
/// ```
/// use nvsim_cpu::cache::{Cache, CacheConfig};
/// use nvsim_types::Addr;
///
/// let mut l1 = Cache::new(CacheConfig { capacity: 32 << 10, ways: 8, hit_cycles: 4 })?;
/// assert!(!l1.access(Addr::new(0x40), false).hit);
/// assert!(l1.access(Addr::new(0x40), false).hit);
/// # Ok::<(), nvsim_types::ConfigError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Cache {
    cfg: CacheConfig,
    /// `sets × ways` ways, set-major: set `s` holds
    /// `ways[s * cfg.ways..(s + 1) * cfg.ways]`.
    ways: Vec<Way>,
    /// `sets - 1`; the set count is a power of two.
    set_mask: u64,
    /// `log2(sets)`.
    // nvsim-lint: allow(snapshot-field-coverage) — construction-time configuration (log2 of the set count); never mutated, and restore checks the saved set count against `set_mask`.
    set_shift: u32,
    clock: u64,
    hits: u64,
    misses: u64,
}

/// Bits of a line index: 64-bit addresses over 64 B lines.
const LINE_INDEX_BITS: u32 = u64::BITS - CACHE_LINE.trailing_zeros();

impl Cache {
    /// Creates a cache level.
    ///
    /// # Errors
    ///
    /// Returns the configuration validation error, if any.
    pub fn new(cfg: CacheConfig) -> Result<Self, ConfigError> {
        cfg.validate()?;
        let sets = cfg.sets();
        let ways = vec![Way::default(); (sets * cfg.ways as u64) as usize];
        Ok(Cache {
            cfg,
            ways,
            set_mask: sets - 1,
            set_shift: sets.trailing_zeros(),
            clock: 0,
            hits: 0,
            misses: 0,
        })
    }

    /// The level's configuration.
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    /// Lifetime (hits, misses).
    pub fn hit_miss(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// Resets statistics (contents stay).
    pub fn reset_stats(&mut self) {
        self.hits = 0;
        self.misses = 0;
    }

    /// Number of sets.
    fn sets(&self) -> usize {
        self.set_mask as usize + 1
    }

    fn index(&self, addr: Addr) -> (usize, u64) {
        let line = addr.line_index();
        ((line & self.set_mask) as usize, line >> self.set_shift)
    }

    /// The range of `ways` that holds set `set`.
    fn set_range(&self, set: usize) -> std::ops::Range<usize> {
        let n = self.cfg.ways as usize;
        set * n..(set + 1) * n
    }

    /// Accesses the line containing `addr`; allocates on miss. `write`
    /// marks the line dirty.
    pub fn access(&mut self, addr: Addr, write: bool) -> CacheAccess {
        self.clock += 1;
        let (set_idx, tag) = self.index(addr);
        let range = self.set_range(set_idx);
        let set = &mut self.ways[range];
        if let Some(w) = set.iter_mut().find(|w| w.valid && w.tag == tag) {
            w.stamp = self.clock;
            w.dirty |= write;
            self.hits += 1;
            return CacheAccess {
                hit: true,
                writeback: None,
            };
        }
        self.misses += 1;
        // Victim: invalid way first, else LRU.
        let victim_idx = set.iter().position(|w| !w.valid).unwrap_or_else(|| {
            set.iter()
                .enumerate()
                .min_by_key(|(_, w)| w.stamp)
                .map_or(0, |(i, _)| i)
        });
        let victim = set[victim_idx];
        let writeback = (victim.valid && victim.dirty)
            .then(|| Addr::new(((victim.tag << self.set_shift) | set_idx as u64) * CACHE_LINE));
        set[victim_idx] = Way {
            tag,
            valid: true,
            dirty: write,
            stamp: self.clock,
        };
        CacheAccess {
            hit: false,
            writeback,
        }
    }

    /// True if the line containing `addr` is resident (no state change).
    pub fn probe(&self, addr: Addr) -> bool {
        let (set_idx, tag) = self.index(addr);
        self.ways[self.set_range(set_idx)]
            .iter()
            .any(|w| w.valid && w.tag == tag)
    }

    /// Invalidates the line containing `addr`, returning whether it was
    /// dirty (clwb / nt-store behaviour).
    pub fn invalidate(&mut self, addr: Addr) -> Option<bool> {
        let (set_idx, tag) = self.index(addr);
        let range = self.set_range(set_idx);
        let w = self.ways[range]
            .iter_mut()
            .find(|w| w.valid && w.tag == tag)?;
        w.valid = false;
        Some(w.dirty)
    }
}

/// Section tag of [`Cache`] snapshots.
const SECTION_CACHE: u16 = 0x40;

impl Snapshot for Cache {
    fn save(&self, w: &mut SnapshotWriter) {
        w.section(SECTION_CACHE);
        w.put_usize(self.sets());
        w.put_u32(self.cfg.ways);
        for way in &self.ways {
            w.put_u64(way.tag);
            w.put_bool(way.valid);
            w.put_bool(way.dirty);
            w.put_u64(way.stamp);
        }
        w.put_u64(self.clock);
        w.put_u64(self.hits);
        w.put_u64(self.misses);
    }

    fn restore(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        r.expect_section(SECTION_CACHE)?;
        let sets = r.get_usize()?;
        let ways = r.get_u32()?;
        if sets != self.sets() || ways != self.cfg.ways {
            return Err(r.invalid("cache geometry differs from this configuration"));
        }
        // A tag is a line index shifted right by the set bits, so no
        // address reaches this bound; a larger one would overflow the
        // write-back address on eviction.
        let tag_limit = 1u64 << (LINE_INDEX_BITS - self.set_shift);
        for set in self.ways.chunks_exact_mut(ways as usize) {
            for i in 0..set.len() {
                let way = Way {
                    tag: r.get_u64()?,
                    valid: r.get_bool()?,
                    dirty: r.get_bool()?,
                    stamp: r.get_u64()?,
                };
                if way.valid {
                    if way.tag >= tag_limit {
                        return Err(r.invalid("cache tag past any address's line"));
                    }
                    // `invalidate` clears one copy of a line, so a second
                    // valid copy would stay resident after a clwb.
                    if set[..i].iter().any(|w| w.valid && w.tag == way.tag) {
                        return Err(r.invalid("cache line valid in two ways of one set"));
                    }
                }
                set[i] = way;
            }
        }
        self.clock = r.get_u64()?;
        self.hits = r.get_u64()?;
        self.misses = r.get_u64()?;
        Ok(())
    }
}

/// Configuration of the full hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct HierarchyConfig {
    /// L1 data cache.
    pub l1: CacheConfig,
    /// Private L2.
    pub l2: CacheConfig,
    /// Shared L3 (LLC).
    pub l3: CacheConfig,
}

impl HierarchyConfig {
    /// Table V: L1D 32 KB 8-way, L2 1 MB 16-way, L3 32 MB 16-way.
    pub fn table_v() -> Self {
        HierarchyConfig {
            l1: CacheConfig {
                capacity: 32 << 10,
                ways: 8,
                hit_cycles: crate::params::L1_HIT_CYCLES,
            },
            l2: CacheConfig {
                capacity: 1 << 20,
                ways: 16,
                hit_cycles: crate::params::L2_HIT_CYCLES,
            },
            l3: CacheConfig {
                capacity: 32 << 20,
                ways: 16,
                hit_cycles: crate::params::L3_HIT_CYCLES,
            },
        }
    }

    /// A small hierarchy for fast tests (4 KB / 16 KB / 64 KB).
    pub fn tiny_for_tests() -> Self {
        HierarchyConfig {
            l1: CacheConfig {
                capacity: 4 << 10,
                ways: 4,
                hit_cycles: crate::params::L1_HIT_CYCLES,
            },
            l2: CacheConfig {
                capacity: 16 << 10,
                ways: 4,
                hit_cycles: crate::params::L2_HIT_CYCLES,
            },
            l3: CacheConfig {
                capacity: 64 << 10,
                ways: 8,
                hit_cycles: crate::params::L3_HIT_CYCLES,
            },
        }
    }
}

/// The result of walking a memory access through the hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HierarchyAccess {
    /// Cycles spent in cache hits along the way.
    pub hit_cycles: u32,
    /// True if the access missed every level (must go to memory).
    pub llc_miss: bool,
    /// Dirty lines pushed out to memory (at most one per level).
    pub writebacks: [Option<Addr>; 3],
}

/// A three-level write-back hierarchy.
#[derive(Debug, Clone)]
pub struct CacheHierarchy {
    /// L1 data cache.
    pub l1: Cache,
    /// L2.
    pub l2: Cache,
    /// L3 / LLC.
    pub l3: Cache,
}

impl CacheHierarchy {
    /// Builds the hierarchy.
    ///
    /// # Errors
    ///
    /// Returns the first level's validation error.
    pub fn new(cfg: HierarchyConfig) -> Result<Self, ConfigError> {
        Ok(CacheHierarchy {
            l1: Cache::new(cfg.l1)?,
            l2: Cache::new(cfg.l2)?,
            l3: Cache::new(cfg.l3)?,
        })
    }

    /// Performs one access; misses allocate in every level on the way in.
    pub fn access(&mut self, addr: Addr, write: bool) -> HierarchyAccess {
        let mut hit_cycles = self.l1.config().hit_cycles;
        let mut writebacks = [None, None, None];
        let a1 = self.l1.access(addr, write);
        writebacks[0] = a1.writeback;
        if a1.hit {
            return HierarchyAccess {
                hit_cycles,
                llc_miss: false,
                writebacks,
            };
        }
        hit_cycles += self.l2.config().hit_cycles;
        // L1 writebacks land in L2.
        if let Some(wb) = a1.writeback {
            let spill = self.l2.access(wb, true);
            writebacks[1] = spill.writeback;
        }
        let a2 = self.l2.access(addr, false);
        writebacks[1] = writebacks[1].or(a2.writeback);
        if a2.hit {
            return HierarchyAccess {
                hit_cycles,
                llc_miss: false,
                writebacks,
            };
        }
        hit_cycles += self.l3.config().hit_cycles;
        if let Some(wb) = writebacks[1] {
            let spill = self.l3.access(wb, true);
            writebacks[2] = spill.writeback;
        }
        let a3 = self.l3.access(addr, false);
        writebacks[2] = writebacks[2].or(a3.writeback);
        HierarchyAccess {
            hit_cycles,
            llc_miss: !a3.hit,
            writebacks,
        }
    }

    /// LLC (hits, misses).
    pub fn llc_hit_miss(&self) -> (u64, u64) {
        self.l3.hit_miss()
    }

    /// Invalidates a line everywhere (for clwb/nt-store semantics);
    /// returns true if any level held it dirty.
    pub fn flush_line(&mut self, addr: Addr) -> bool {
        let d1 = self.l1.invalidate(addr).unwrap_or(false);
        let d2 = self.l2.invalidate(addr).unwrap_or(false);
        let d3 = self.l3.invalidate(addr).unwrap_or(false);
        d1 || d2 || d3
    }

    /// Resets statistics on every level.
    pub fn reset_stats(&mut self) {
        self.l1.reset_stats();
        self.l2.reset_stats();
        self.l3.reset_stats();
    }
}

impl Snapshot for CacheHierarchy {
    fn save(&self, w: &mut SnapshotWriter) {
        self.l1.save(w);
        self.l2.save(w);
        self.l3.save(w);
    }

    fn restore(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        self.l1.restore(r)?;
        self.l2.restore(r)?;
        self.l3.restore(r)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvsim_types::snapshot::SnapshotErrorKind;
    use nvsim_types::DetRng;

    fn l1() -> Cache {
        Cache::new(CacheConfig {
            capacity: 4 << 10,
            ways: 4,
            hit_cycles: 4,
        })
        .unwrap()
    }

    #[test]
    fn miss_then_hit() {
        let mut c = l1();
        assert!(!c.access(Addr::new(0x40), false).hit);
        assert!(c.access(Addr::new(0x40), false).hit);
        assert!(c.access(Addr::new(0x7f), false).hit); // same line
        assert_eq!(c.hit_miss(), (2, 1));
    }

    #[test]
    fn conflict_eviction_lru() {
        let mut c = l1();
        let sets = c.config().sets();
        // Fill all 4 ways of set 0, then a 5th conflicting line.
        for i in 0..4u64 {
            c.access(Addr::new(i * sets * 64), false);
        }
        // Touch line 0 to make line 1 the LRU.
        c.access(Addr::new(0), false);
        c.access(Addr::new(4 * sets * 64), false);
        assert!(c.probe(Addr::new(0)));
        assert!(!c.probe(Addr::new(sets * 64)), "LRU way evicted");
    }

    #[test]
    fn dirty_eviction_reports_writeback() {
        let mut c = l1();
        let sets = c.config().sets();
        c.access(Addr::new(0), true); // dirty
        for i in 1..=4u64 {
            let acc = c.access(Addr::new(i * sets * 64), false);
            if let Some(wb) = acc.writeback {
                assert_eq!(wb, Addr::new(0));
                return;
            }
        }
        panic!("dirty line never written back");
    }

    #[test]
    fn invalidate_reports_dirtiness() {
        let mut c = l1();
        c.access(Addr::new(0x40), true);
        assert_eq!(c.invalidate(Addr::new(0x40)), Some(true));
        assert_eq!(c.invalidate(Addr::new(0x40)), None);
        assert!(!c.probe(Addr::new(0x40)));
    }

    #[test]
    fn hierarchy_miss_allocates_everywhere() {
        let mut h = CacheHierarchy::new(HierarchyConfig::tiny_for_tests()).unwrap();
        let a = h.access(Addr::new(0x1000), false);
        assert!(a.llc_miss);
        // Second access hits L1.
        let b = h.access(Addr::new(0x1000), false);
        assert!(!b.llc_miss);
        assert_eq!(b.hit_cycles, 4);
    }

    #[test]
    fn hierarchy_l2_hit_after_l1_eviction() {
        let mut h = CacheHierarchy::new(HierarchyConfig::tiny_for_tests()).unwrap();
        h.access(Addr::new(0), false);
        // Blow L1 (4 KB) but stay within L2 (16 KB).
        for i in 1..128u64 {
            h.access(Addr::new(i * 64), false);
        }
        let (l1_hits_before, _) = h.l1.hit_miss();
        let acc = h.access(Addr::new(0), false);
        let (l1_hits_after, _) = h.l1.hit_miss();
        assert!(!acc.llc_miss);
        // It was not an L1 hit (L1 holds the most recent 64 lines).
        assert_eq!(l1_hits_before, l1_hits_after);
    }

    #[test]
    fn working_set_beyond_llc_misses() {
        let mut h = CacheHierarchy::new(HierarchyConfig::tiny_for_tests()).unwrap();
        // Stream 1 MB (llc is 64 KB): steady state misses.
        for round in 0..2 {
            let mut misses = 0;
            for i in 0..(1 << 14) {
                let acc = h.access(Addr::new(i * 64), false);
                if acc.llc_miss {
                    misses += 1;
                }
            }
            if round == 1 {
                assert!(misses > (1 << 13), "streaming should defeat the LLC");
            }
        }
    }

    #[test]
    fn flush_line_everywhere() {
        let mut h = CacheHierarchy::new(HierarchyConfig::tiny_for_tests()).unwrap();
        h.access(Addr::new(0x40), true);
        assert!(h.flush_line(Addr::new(0x40)));
        assert!(!h.flush_line(Addr::new(0x40)));
        let a = h.access(Addr::new(0x40), false);
        assert!(a.llc_miss, "flushed line must re-miss");
    }

    #[test]
    fn table_v_config_validates() {
        let h = CacheHierarchy::new(HierarchyConfig::table_v()).unwrap();
        assert_eq!(h.l1.config().capacity, 32 << 10);
        assert_eq!(h.l3.config().sets(), (32 << 20) / (16 * 64));
    }

    /// A [`Cache`] blob of `sets × ways` ways, each from `way(set, way)`,
    /// then the clock, hits and misses.
    fn cache_blob(
        sets: usize,
        ways: u32,
        way: impl Fn(usize, u32) -> Way,
        counters: [u64; 3],
    ) -> Vec<u8> {
        let mut w = SnapshotWriter::new();
        w.section(SECTION_CACHE);
        w.put_usize(sets);
        w.put_u32(ways);
        for s in 0..sets {
            for i in 0..ways {
                let way = way(s, i);
                w.put_u64(way.tag);
                w.put_bool(way.valid);
                w.put_bool(way.dirty);
                w.put_u64(way.stamp);
            }
        }
        for c in counters {
            w.put_u64(c);
        }
        w.into_bytes()
    }

    /// A blob for [`l1`]'s geometry, 16 sets of 4 ways.
    fn l1_blob(way: impl Fn(usize, u32) -> Way) -> Vec<u8> {
        cache_blob(16, 4, way, [64, 0, 0])
    }

    /// Restores `blob` into [`l1`] (16 sets of 4 ways).
    fn restore_l1(blob: &[u8]) -> Result<Cache, SnapshotError> {
        let mut c = l1();
        c.restore(&mut SnapshotReader::new(blob))?;
        Ok(c)
    }

    fn is_invalid<T>(r: Result<T, SnapshotError>) -> bool {
        matches!(
            r,
            Err(SnapshotError {
                kind: SnapshotErrorKind::Invalid(_),
                ..
            })
        )
    }

    /// A valid, dirty `tag` at `(set, way)`; every other way empty.
    fn lone_line(at: (usize, u32), tag: u64) -> impl Fn(usize, u32) -> Way {
        move |s, i| Way {
            tag,
            valid: (s, i) == at,
            dirty: true,
            stamp: 1,
        }
    }

    #[test]
    fn restore_rejects_tags_no_address_produces() {
        // 16 sets: a tag is a 58-bit line index without its 4 set bits.
        let limit = 1u64 << 54;
        let mut c = restore_l1(&l1_blob(lone_line((15, 0), limit - 1)))
            .expect("the largest tag an address produces restores");
        // Four conflicting lines evict it to the last line of memory.
        let evicted: Vec<_> = (1..=4u64)
            .filter_map(|i| c.access(Addr::new((i * 16 + 15) * 64), false).writeback)
            .collect();
        assert_eq!(evicted, [Addr::new(u64::MAX - 63)]);
        for tag in [limit, u64::MAX] {
            assert!(is_invalid(restore_l1(&l1_blob(lone_line((0, 0), tag)))));
        }
        // An invalid way keeps whatever tag it held last.
        assert!(restore_l1(&l1_blob(|_, _| Way {
            tag: u64::MAX,
            ..Way::default()
        }))
        .is_ok());
    }

    #[test]
    fn restore_rejects_a_line_valid_in_two_ways_of_one_set() {
        let twice = |s: usize, i: u32| Way {
            tag: 7,
            valid: s == 3 && (i == 0 || i == 2),
            dirty: true,
            stamp: 1,
        };
        assert!(is_invalid(restore_l1(&l1_blob(twice))));
        // The same tag in two sets is two different lines.
        let two_sets = |s: usize, i: u32| Way {
            valid: (s == 3 || s == 4) && i == 0,
            ..twice(s, i)
        };
        let mut c = restore_l1(&l1_blob(two_sets)).expect("two lines restore");
        let line = Addr::new((7 * 16 + 3) * 64);
        assert_eq!(c.invalidate(line), Some(true));
        assert!(!c.probe(line));
    }

    /// The arithmetic the flat array replaced: one `Vec` per set, sets
    /// and tags by `%` and `/`.
    struct DivCache {
        sets: Vec<Vec<Way>>,
        clock: u64,
        hits: u64,
        misses: u64,
    }

    impl DivCache {
        fn new(cfg: CacheConfig) -> Self {
            DivCache {
                sets: vec![vec![Way::default(); cfg.ways as usize]; cfg.sets() as usize],
                clock: 0,
                hits: 0,
                misses: 0,
            }
        }

        fn index(&self, addr: Addr) -> (usize, u64) {
            let sets = self.sets.len() as u64;
            let line = addr.line_index();
            ((line % sets) as usize, line / sets)
        }

        fn access(&mut self, addr: Addr, write: bool) -> CacheAccess {
            self.clock += 1;
            let sets = self.sets.len() as u64;
            let (set_idx, tag) = self.index(addr);
            let set = &mut self.sets[set_idx];
            if let Some(w) = set.iter_mut().find(|w| w.valid && w.tag == tag) {
                w.stamp = self.clock;
                w.dirty |= write;
                self.hits += 1;
                return CacheAccess {
                    hit: true,
                    writeback: None,
                };
            }
            self.misses += 1;
            let victim_idx = set.iter().position(|w| !w.valid).unwrap_or_else(|| {
                set.iter()
                    .enumerate()
                    .min_by_key(|(_, w)| w.stamp)
                    .map_or(0, |(i, _)| i)
            });
            let victim = set[victim_idx];
            let writeback = (victim.valid && victim.dirty)
                .then(|| Addr::new((victim.tag * sets + set_idx as u64) * CACHE_LINE));
            set[victim_idx] = Way {
                tag,
                valid: true,
                dirty: write,
                stamp: self.clock,
            };
            CacheAccess {
                hit: false,
                writeback,
            }
        }

        fn probe(&self, addr: Addr) -> bool {
            let (set_idx, tag) = self.index(addr);
            self.sets[set_idx].iter().any(|w| w.valid && w.tag == tag)
        }

        fn invalidate(&mut self, addr: Addr) -> Option<bool> {
            let (set_idx, tag) = self.index(addr);
            let w = self.sets[set_idx]
                .iter_mut()
                .find(|w| w.valid && w.tag == tag)?;
            w.valid = false;
            Some(w.dirty)
        }

        fn save(&self, ways: u32) -> Vec<u8> {
            cache_blob(
                self.sets.len(),
                ways,
                |s, i| self.sets[s][i as usize],
                [self.clock, self.hits, self.misses],
            )
        }
    }

    fn saved(c: &Cache) -> Vec<u8> {
        let mut w = SnapshotWriter::new();
        c.save(&mut w);
        w.into_bytes()
    }

    #[test]
    fn matches_divide_and_modulo_reference() {
        let (tiny, v) = (
            HierarchyConfig::tiny_for_tests(),
            HierarchyConfig::table_v(),
        );
        for cfg in [tiny.l1, tiny.l2, tiny.l3, v.l1, v.l2, v.l3] {
            let mut c = Cache::new(cfg).unwrap();
            let mut r = DivCache::new(cfg);
            let mut rng = DetRng::seed_from(cfg.capacity ^ u64::from(cfg.ways));
            // Lines this far apart share a set.
            let period = cfg.sets() * CACHE_LINE;
            for step in 0..20_000u64 {
                let addr = Addr::new(match rng.range_u64(0, 4) {
                    // Twice the capacity: hits and capacity misses.
                    0 => rng.range_u64(0, 2 * cfg.capacity),
                    // A few sets crowded past their ways: LRU evictions.
                    1 => {
                        rng.range_u64(0, 2 * u64::from(cfg.ways)) * period
                            + rng.range_u64(0, 4) * CACHE_LINE
                    }
                    // The top of the address space: the widest tags.
                    2 => u64::MAX - rng.range_u64(0, 64 * period),
                    _ => rng.range_u64(0, 1 << 63),
                });
                let ctx = format!("{cfg:?} step {step} addr {addr:?}");
                match rng.range_u64(0, 8) {
                    0..=4 => {
                        let write = rng.chance(0.4);
                        assert_eq!(c.access(addr, write), r.access(addr, write), "{ctx}");
                    }
                    5 => assert_eq!(c.probe(addr), r.probe(addr), "{ctx}"),
                    _ => assert_eq!(c.invalidate(addr), r.invalidate(addr), "{ctx}"),
                }
                if step % 5_000 == 4_999 {
                    assert_eq!(saved(&c), r.save(cfg.ways), "{ctx}");
                }
            }
            assert_eq!(c.hit_miss(), (r.hits, r.misses), "{cfg:?}");
        }
    }

    #[test]
    fn bad_config_rejected() {
        let bad = CacheConfig {
            capacity: 3000,
            ways: 4,
            hit_cycles: 1,
        };
        assert!(Cache::new(bad).is_err());
    }
}
