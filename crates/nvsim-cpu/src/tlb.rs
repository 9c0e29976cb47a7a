//! TLBs, the page walker, and the Pre-translation integration.

use nvsim_types::error::require_nonzero;
use nvsim_types::lru::Lru;
use nvsim_types::snapshot::{Snapshot, SnapshotError, SnapshotReader, SnapshotWriter};
use nvsim_types::{Addr, ConfigError, MemoryBackend, RequestDesc, Time, VirtAddr};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// TLB hierarchy configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TlbConfig {
    /// L1 DTLB entries (Table III: 64 entries, 4-way).
    pub l1_entries: u32,
    /// Second-level (STLB) entries (Table III: 1536 entries, 12-way).
    pub stlb_entries: u32,
    /// STLB hit penalty in core cycles.
    pub stlb_hit_cycles: u32,
    /// Page-walk cost in core cycles on top of the walk's memory
    /// accesses.
    pub walk_base_cycles: u32,
    /// Memory accesses a page walk performs (radix levels that miss the
    /// walk caches).
    pub walk_memory_accesses: u32,
}

impl TlbConfig {
    /// Table III-like defaults.
    pub fn table_iii() -> Self {
        TlbConfig {
            l1_entries: 64,
            stlb_entries: 1536,
            stlb_hit_cycles: crate::params::STLB_HIT_CYCLES,
            walk_base_cycles: crate::params::WALK_BASE_CYCLES,
            walk_memory_accesses: 2,
        }
    }

    /// A tiny configuration for tests.
    pub fn tiny_for_tests() -> Self {
        TlbConfig {
            l1_entries: 4,
            stlb_entries: 16,
            stlb_hit_cycles: crate::params::STLB_HIT_CYCLES,
            walk_base_cycles: crate::params::WALK_BASE_CYCLES,
            walk_memory_accesses: 2,
        }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] naming the first invalid field.
    pub fn validate(&self) -> Result<(), ConfigError> {
        require_nonzero("tlb.l1_entries", u64::from(self.l1_entries))?;
        require_nonzero("tlb.stlb_entries", u64::from(self.stlb_entries))?;
        Ok(())
    }
}

/// Statistics of TLB behaviour.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TlbStats {
    /// L1 DTLB hits.
    pub l1_hits: u64,
    /// STLB hits (L1 misses that stopped there).
    pub stlb_hits: u64,
    /// Full misses requiring a page walk.
    pub walks: u64,
    /// Walks skipped thanks to a pre-translation entry installed by a
    /// marked load (§V-B).
    pub pretranslated: u64,
    /// Check-before-read confirmations that found a stale entry.
    pub stale_pretranslations: u64,
}

/// The result of a translation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Translation {
    /// The physical address.
    pub paddr: Addr,
    /// Core cycles spent on translation (0 for an L1 hit).
    pub cycles: u32,
    /// Whether a full page walk happened (counts toward TLB MPKI).
    pub walked: bool,
}

/// A fully associative LRU array of translations: each resident VPN
/// maps to the array's clock at its last use.
#[derive(Debug, Clone)]
struct TlbArray {
    /// VPN → stamp, most recently used first.
    lru: Lru<u64>,
    clock: u64,
}

impl TlbArray {
    fn new(capacity: usize) -> Self {
        TlbArray {
            lru: Lru::new(capacity),
            clock: 0,
        }
    }

    fn lookup(&mut self, vpn: u64) -> bool {
        self.clock += 1;
        let clock = self.clock;
        match self.lru.get(vpn) {
            Some(stamp) => {
                *stamp = clock;
                true
            }
            None => false,
        }
    }

    /// Makes `vpn` the most recently used entry; returns the VPN it
    /// evicted, if any.
    fn insert(&mut self, vpn: u64) -> Option<u64> {
        if self.lru.contains(vpn) {
            self.lookup(vpn);
            return None;
        }
        self.fill(vpn)
    }

    /// [`insert`](Self::insert) for a `vpn` this array's last
    /// [`lookup`](Self::lookup) missed, without probing for it again.
    fn fill(&mut self, vpn: u64) -> Option<u64> {
        self.clock += 1;
        self.lru.insert(vpn, self.clock).map(|(victim, _)| victim)
    }
}

impl Snapshot for TlbArray {
    fn save(&self, w: &mut SnapshotWriter) {
        // Least to most recently used, which is ascending stamp order.
        w.put_usize(self.lru.len());
        for (vpn, stamp) in self.lru.iter().rev() {
            w.put_u64(stamp);
            w.put_u64(vpn);
        }
        w.put_u64(self.clock);
    }

    fn restore(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        let n = r.get_usize()?;
        if n > r.remaining() {
            return Err(r.invalid("TLB entry count exceeds the blob"));
        }
        if n > self.lru.capacity() {
            return Err(r.invalid("TLB entry count exceeds this configuration's capacity"));
        }
        let mut entries = Vec::with_capacity(n);
        for _ in 0..n {
            let stamp = r.get_u64()?;
            let vpn = r.get_u64()?;
            entries.push((stamp, vpn));
        }
        // `save` writes ascending stamps; any order of unique stamps
        // rebuilds the same recency list.
        entries.sort_unstable();
        self.lru.clear();
        for &(stamp, vpn) in &entries {
            if self.lru.contains(vpn) {
                return Err(r.invalid("duplicate VPNs in TLB snapshot"));
            }
            self.lru.insert(vpn, stamp);
        }
        // `save` writes unique stamps, none past the clock; anything else
        // would make the saved order differ from the recency order.
        if entries.windows(2).any(|p| p[0].0 == p[1].0) {
            return Err(r.invalid("duplicate stamps in TLB snapshot"));
        }
        self.clock = r.get_u64()?;
        if entries.last().is_some_and(|&(stamp, _)| stamp > self.clock) {
            return Err(r.invalid("TLB stamp past the saved clock"));
        }
        Ok(())
    }
}

/// L1 DTLB + STLB with a page walker that issues real memory reads, plus
/// the Pre-translation (`mkpt`) fast path.
///
/// Virtual-to-physical mapping itself is a deterministic linear map
/// (`pfn = vpn`), which keeps page-table state implicit while preserving
/// all the *timing* behaviour (hits, misses, walks).
#[derive(Debug)]
pub struct TlbHierarchy {
    // nvsim-lint: allow(snapshot-field-coverage) — construction-time configuration; never mutated.
    cfg: TlbConfig,
    l1: TlbArray,
    stlb: TlbArray,
    /// Pre-translation entries the NVRAM piggybacked: vpn → install time.
    prefetched: BTreeMap<u64, Time>,
    stats: TlbStats,
}

impl TlbHierarchy {
    /// Creates the TLB hierarchy.
    ///
    /// # Errors
    ///
    /// Returns the configuration's validation error.
    pub fn new(cfg: TlbConfig) -> Result<Self, ConfigError> {
        cfg.validate()?;
        Ok(TlbHierarchy {
            l1: TlbArray::new(cfg.l1_entries as usize),
            stlb: TlbArray::new(cfg.stlb_entries as usize),
            cfg,
            prefetched: BTreeMap::new(),
            stats: TlbStats::default(),
        })
    }

    /// Statistics so far.
    pub fn stats(&self) -> TlbStats {
        self.stats
    }

    /// Resets statistics (contents stay).
    pub fn reset_stats(&mut self) {
        self.stats = TlbStats::default();
    }

    /// The deterministic linear page mapping used by the model.
    pub fn page_mapping(vaddr: VirtAddr) -> Addr {
        // Identity at page granularity.
        Addr::new(vaddr.raw())
    }

    /// Installs a TLB entry that arrived piggybacked on NVRAM read data
    /// (the Pre-translation path). The check-before-read validation is
    /// modeled by comparing against the true mapping: stale entries are
    /// dropped and counted.
    pub fn install_pretranslation(&mut self, pfn: u64, at: Time) {
        // pfn is the page frame of the next hop; with the linear mapping
        // the expected vpn equals the pfn.
        let vpn = pfn;
        let true_pfn = vpn; // linear map: always up to date
        if pfn != true_pfn {
            self.stats.stale_pretranslations += 1;
            return;
        }
        self.prefetched.insert(vpn, at);
        self.l1.insert(vpn);
    }

    /// Probes the L1 DTLB, then the STLB, counting the outcome. A hit
    /// returns its cycles (0 in the L1); `None` means both missed and the
    /// caller walks, then calls [`fill_walked`](Self::fill_walked).
    fn probe(&mut self, vpn: u64) -> Option<u32> {
        if self.l1.lookup(vpn) {
            self.stats.l1_hits += 1;
            // Entries installed by pre-translation count once.
            if self.prefetched.remove(&vpn).is_some() {
                self.stats.pretranslated += 1;
            }
            return Some(0);
        }
        if self.stlb.lookup(vpn) {
            self.stats.stlb_hits += 1;
            self.l1.fill(vpn);
            return Some(self.cfg.stlb_hit_cycles);
        }
        self.stats.walks += 1;
        None
    }

    /// Installs a walked translation in both arrays, which
    /// [`probe`](Self::probe) has just found without it.
    fn fill_walked(&mut self, vpn: u64) {
        self.l1.fill(vpn);
        self.stlb.fill(vpn);
    }

    /// The address of the page-table entry a walk reads at radix `level`.
    fn pte(vpn: u64, level: u32) -> Addr {
        // Page-table pages live high in the physical address space;
        // each radix level indexes by 9 fewer VPN bits.
        let pte = (1u64 << 40) + ((vpn >> (9 * level)) * 8) % (1 << 30);
        Addr::new(pte).align_down(64)
    }

    /// Translates `vaddr` at time `now`, walking the page table through
    /// `mem` if necessary.
    pub fn translate<B: MemoryBackend>(
        &mut self,
        vaddr: VirtAddr,
        now: Time,
        mem: &mut B,
    ) -> Translation {
        let vpn = vaddr.page_index();
        let paddr = Self::page_mapping(vaddr);
        if let Some(cycles) = self.probe(vpn) {
            return Translation {
                paddr,
                cycles,
                walked: false,
            };
        }
        // Full walk: issue real memory reads against the page-table
        // region.
        let mut t = now;
        for level in 0..self.cfg.walk_memory_accesses {
            t = mem.execute(RequestDesc::load(Self::pte(vpn, level)));
        }
        let walk_wait = t.saturating_sub(now);
        // f64→u32 `as` rounds toward the saturated bound deterministically,
        // but the former `+` could overflow u32 on a pathological backend
        // latency (debug-build panic, release wraparound); saturate instead.
        // nvsim-lint: allow(cast-truncation) — f64 as u32 saturates, never wraps
        let walk_cycles = (walk_wait.as_ns_f64() * 2.2).round() as u32;
        let cycles = self.cfg.walk_base_cycles.saturating_add(walk_cycles);
        self.fill_walked(vpn);
        Translation {
            paddr,
            cycles,
            walked: true,
        }
    }

    /// Functional-warming translation: updates TLB residency and recency
    /// exactly as [`translate`](Self::translate) would, but page walks
    /// issue *warm* memory accesses (no timing) instead of timed loads.
    pub fn warm_translate<B: MemoryBackend>(&mut self, vaddr: VirtAddr, mem: &mut B) -> Addr {
        let vpn = vaddr.page_index();
        if self.probe(vpn).is_none() {
            for level in 0..self.cfg.walk_memory_accesses {
                mem.warm_access(&RequestDesc::load(Self::pte(vpn, level)));
            }
            self.fill_walked(vpn);
        }
        Self::page_mapping(vaddr)
    }
}

/// Section tag of [`TlbHierarchy`] snapshots.
const SECTION_TLB: u16 = 0x41;

impl Snapshot for TlbHierarchy {
    fn save(&self, w: &mut SnapshotWriter) {
        w.section(SECTION_TLB);
        self.l1.save(w);
        self.stlb.save(w);
        w.put_usize(self.prefetched.len());
        for (&vpn, &at) in &self.prefetched {
            w.put_u64(vpn);
            w.put_time(at);
        }
        w.put_u64(self.stats.l1_hits);
        w.put_u64(self.stats.stlb_hits);
        w.put_u64(self.stats.walks);
        w.put_u64(self.stats.pretranslated);
        w.put_u64(self.stats.stale_pretranslations);
    }

    fn restore(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        r.expect_section(SECTION_TLB)?;
        self.l1.restore(r)?;
        self.stlb.restore(r)?;
        let n = r.get_usize()?;
        if n > r.remaining() {
            return Err(r.invalid("pre-translation entry count exceeds the blob"));
        }
        self.prefetched.clear();
        for _ in 0..n {
            let vpn = r.get_u64()?;
            let at = r.get_time()?;
            self.prefetched.insert(vpn, at);
        }
        if self.prefetched.len() != n {
            return Err(r.invalid("duplicate VPNs in pre-translation snapshot"));
        }
        self.stats.l1_hits = r.get_u64()?;
        self.stats.stlb_hits = r.get_u64()?;
        self.stats.walks = r.get_u64()?;
        self.stats.pretranslated = r.get_u64()?;
        self.stats.stale_pretranslations = r.get_u64()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvsim_types::backend::FixedLatencyBackend;
    use nvsim_types::snapshot::SnapshotErrorKind;
    use nvsim_types::DetRng;

    fn mem() -> FixedLatencyBackend {
        FixedLatencyBackend::new(Time::from_ns(100), Time::from_ns(100))
    }

    fn tlb() -> TlbHierarchy {
        TlbHierarchy::new(TlbConfig::tiny_for_tests()).unwrap()
    }

    #[test]
    fn first_access_walks_then_hits() {
        let mut t = tlb();
        let mut m = mem();
        let a = t.translate(VirtAddr::new(0x1000), Time::ZERO, &mut m);
        assert!(a.walked);
        assert!(a.cycles > 30);
        let b = t.translate(VirtAddr::new(0x1040), m.now(), &mut m);
        assert!(!b.walked);
        assert_eq!(b.cycles, 0);
        assert_eq!(t.stats().walks, 1);
        assert_eq!(t.stats().l1_hits, 1);
    }

    #[test]
    fn stlb_catches_l1_evictions() {
        let mut t = tlb();
        let mut m = mem();
        // Touch 5 pages: more than the 4-entry L1, within the 16-entry STLB.
        for i in 0..5u64 {
            t.translate(VirtAddr::new(i * 4096), Time::ZERO, &mut m);
        }
        let before = t.stats().walks;
        let a = t.translate(VirtAddr::new(0), Time::ZERO, &mut m);
        assert!(!a.walked, "STLB should cover the re-access");
        assert_eq!(a.cycles, 7);
        assert_eq!(t.stats().walks, before);
    }

    #[test]
    fn working_set_beyond_stlb_walks_again() {
        let mut t = tlb();
        let mut m = mem();
        for i in 0..20u64 {
            t.translate(VirtAddr::new(i * 4096), Time::ZERO, &mut m);
        }
        let before = t.stats().walks;
        t.translate(VirtAddr::new(0), Time::ZERO, &mut m);
        assert_eq!(t.stats().walks, before + 1);
    }

    #[test]
    fn walk_issues_memory_reads() {
        let mut t = tlb();
        let mut m = mem();
        t.translate(VirtAddr::new(0x5000), Time::ZERO, &mut m);
        assert_eq!(
            m.counters().bus_reads as u32,
            TlbConfig::tiny_for_tests().walk_memory_accesses
        );
    }

    #[test]
    fn extreme_walk_latency_saturates_instead_of_overflowing() {
        // Regression: walk_base_cycles + (wait * 2.2) used plain `+` on
        // u32, which panics in debug builds (and wraps in release) when a
        // pathological backend latency pushes the walk cost past u32::MAX.
        let mut t = tlb();
        let huge = Time::from_ns(u64::from(u32::MAX) * 4);
        let mut m = FixedLatencyBackend::new(huge, huge);
        let a = t.translate(VirtAddr::new(0x9000), Time::ZERO, &mut m);
        assert!(a.walked);
        assert_eq!(a.cycles, u32::MAX);
    }

    #[test]
    fn pretranslation_skips_the_walk() {
        let mut t = tlb();
        let mut m = mem();
        let next_page = VirtAddr::new(0x7000);
        t.install_pretranslation(next_page.page_index(), Time::ZERO);
        let a = t.translate(next_page, Time::ZERO, &mut m);
        assert!(!a.walked);
        assert_eq!(a.cycles, 0);
        assert_eq!(t.stats().pretranslated, 1);
        assert_eq!(t.stats().walks, 0);
    }

    /// A [`TlbArray`] blob: the `(stamp, vpn)` pairs, then the clock.
    fn array_blob(entries: &[(u64, u64)], clock: u64) -> Vec<u8> {
        let mut w = SnapshotWriter::new();
        w.put_usize(entries.len());
        for &(stamp, vpn) in entries {
            w.put_u64(stamp);
            w.put_u64(vpn);
        }
        w.put_u64(clock);
        w.into_bytes()
    }

    fn restore_array(blob: &[u8]) -> Result<TlbArray, SnapshotError> {
        let mut a = TlbArray::new(4);
        a.restore(&mut SnapshotReader::new(blob))?;
        Ok(a)
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

    #[test]
    fn array_restore_rejects_stamps_save_never_writes() {
        // Duplicate stamps: `order` would keep one entry of four, and the
        // other three would never be evicted.
        let dup = array_blob(&[(5, 1), (5, 2), (5, 3), (5, 4)], 5);
        assert!(is_invalid(restore_array(&dup)));
        // A stamp past the clock collides with the next insert's stamp.
        assert!(is_invalid(restore_array(&array_blob(&[(3, 1), (9, 2)], 5))));
        // What `save` writes restores and evicts in LRU order.
        let mut a = TlbArray::new(4);
        for vpn in 1..=4 {
            a.insert(vpn);
        }
        let mut w = SnapshotWriter::new();
        a.save(&mut w);
        let mut b = restore_array(&w.into_bytes()).expect("a saved array restores");
        for vpn in 100..120 {
            b.insert(vpn);
        }
        assert!((1..=4).all(|vpn| !b.lookup(vpn)));
    }

    /// The LRU array as a linear list of `(vpn, stamp)`: the reference
    /// the slab and its recency list must match.
    struct LinearLru {
        entries: Vec<(u64, u64)>,
        capacity: usize,
        clock: u64,
    }

    impl LinearLru {
        fn lookup(&mut self, vpn: u64) -> bool {
            self.clock += 1;
            let clock = self.clock;
            self.entries
                .iter_mut()
                .find(|e| e.0 == vpn)
                .map(|e| e.1 = clock)
                .is_some()
        }

        fn insert(&mut self, vpn: u64) -> Option<u64> {
            self.clock += 1;
            if let Some(e) = self.entries.iter_mut().find(|e| e.0 == vpn) {
                e.1 = self.clock;
                return None;
            }
            let mut victim = None;
            if self.entries.len() >= self.capacity && !self.entries.is_empty() {
                let lru = (0..self.entries.len())
                    .min_by_key(|&i| self.entries[i].1)
                    .unwrap();
                victim = Some(self.entries.swap_remove(lru).0);
            }
            self.entries.push((vpn, self.clock));
            victim
        }

        /// `(stamp, vpn)` pairs, oldest first.
        fn pairs(&self) -> Vec<(u64, u64)> {
            let mut p: Vec<_> = self.entries.iter().map(|&(v, s)| (s, v)).collect();
            p.sort_unstable();
            p
        }
    }

    fn saved(a: &TlbArray) -> Vec<u8> {
        let mut w = SnapshotWriter::new();
        a.save(&mut w);
        w.into_bytes()
    }

    #[test]
    fn matches_linear_reference() {
        for capacity in [1usize, 4, 64, 1536] {
            let mut a = TlbArray::new(capacity);
            let mut r = LinearLru {
                entries: Vec::new(),
                capacity,
                clock: 0,
            };
            let mut rng = DetRng::seed_from(capacity as u64);
            // Narrow VPNs hit and evict within the array; wide ones
            // almost never repeat.
            let narrow = capacity as u64 * 3 / 2 + 2;
            for step in 0..20_000u64 {
                let vpn = if rng.chance(0.8) {
                    rng.range_u64(0, narrow)
                } else {
                    rng.range_u64(0, 1 << 52)
                };
                match rng.range_u64(0, 16) {
                    0..=7 => assert_eq!(a.lookup(vpn), r.lookup(vpn), "step {step}"),
                    8..=14 => assert_eq!(a.insert(vpn), r.insert(vpn), "step {step}"),
                    _ => {
                        // Restore what `save` writes or, as any order of
                        // unique stamps restores, the same pairs newest
                        // first.
                        let mut pairs = r.pairs();
                        if rng.chance(0.5) {
                            pairs.reverse();
                        }
                        let mut b = TlbArray::new(capacity);
                        let blob = array_blob(&pairs, r.clock);
                        b.restore(&mut SnapshotReader::new(&blob))
                            .expect("unique stamps restore");
                        a = b;
                    }
                }
                assert_eq!(saved(&a), array_blob(&r.pairs(), r.clock), "step {step}");
            }
        }
    }

    #[test]
    fn hierarchy_restore_rejects_duplicate_pretranslations() {
        let mut t = tlb();
        t.install_pretranslation(7, Time::ZERO);
        let mut w = SnapshotWriter::new();
        t.save(&mut w);
        let good = w.into_bytes();
        assert!(tlb().restore(&mut SnapshotReader::new(&good)).is_ok());
        // Re-save with the one pre-translation entry written twice.
        let mut w = SnapshotWriter::new();
        w.section(SECTION_TLB);
        t.l1.save(&mut w);
        t.stlb.save(&mut w);
        w.put_usize(2);
        for _ in 0..2 {
            w.put_u64(7);
            w.put_time(Time::ZERO);
        }
        // The five stats counters.
        for _ in 0..5 {
            w.put_u64(0);
        }
        let dup = w.into_bytes();
        assert!(is_invalid(tlb().restore(&mut SnapshotReader::new(&dup))));
    }

    #[test]
    fn translation_is_deterministic() {
        let mut t = tlb();
        let mut m = mem();
        let a = t.translate(VirtAddr::new(0x1234), Time::ZERO, &mut m);
        let b = t.translate(VirtAddr::new(0x1234), Time::ZERO, &mut m);
        assert_eq!(a.paddr, b.paddr);
        assert_eq!(a.paddr, Addr::new(0x1234));
    }
}
