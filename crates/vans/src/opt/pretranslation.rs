//! Pre-translation (§V-B): in-memory address pre-translation for
//! pointer-chasing reads.
//!
//! The DIMM-side structures:
//!
//! * The **Pre-translation table**, stored in the on-DIMM DRAM alongside
//!   the AIT: it maps a physical address (`paddr`, used as the index) to
//!   the page frame number (`pfn`) of the page the pointer stored at
//!   `paddr` points to.
//! * The **read lookaside buffer (RLB)**, a small SRAM cache of table
//!   entries (the paper evaluates 1 KB).
//!
//! Software marks pointer-chasing loads with the new `mkpt` instruction.
//! When the NVRAM serves such a marked read and finds a pre-translation
//! entry, it returns the TLB entry for the *next* pointer hop together
//! with the data, so the CPU's next access skips its TLB miss and page
//! walk. Stale entries are handled by the check-before-read scheme: the
//! speculative read carries an "uncertain" bit and an asynchronous page
//! walk confirms or repairs it (modeled in `nvsim-cpu`).

use crate::buffer::LruBuffer;
use nvsim_types::snapshot::{Snapshot, SnapshotError, SnapshotReader, SnapshotWriter};
use nvsim_types::{Addr, Time};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Pre-translation configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PreTranslationConfig {
    /// RLB capacity in entries (8 B per entry; the paper's 1 KB RLB holds
    /// 128 entries).
    pub rlb_entries: u32,
    /// RLB (SRAM) access latency.
    pub rlb_latency: Time,
    /// Pre-translation table access latency (one extra on-DIMM DRAM
    /// access via the AIT entry's pointer).
    pub table_latency: Time,
    /// Maximum number of table entries (bounded by the 16 MB table the
    /// paper provisions in the on-DIMM DRAM).
    pub table_entries: u32,
}

impl PreTranslationConfig {
    /// The paper's evaluation configuration: 1 KB RLB, 16 MB table.
    pub fn paper() -> Self {
        PreTranslationConfig {
            rlb_entries: 128,
            rlb_latency: Time::from_ns(crate::params::RLB_LATENCY_NS),
            table_latency: Time::from_ns(crate::params::PRETRANSLATION_TABLE_NS),
            table_entries: (16 << 20) / 8,
        }
    }
}

/// Statistics of pre-translation behaviour.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PreTranslationStats {
    /// Marked reads that found an entry in the RLB.
    pub rlb_hits: u64,
    /// Marked reads that found an entry only in the DRAM table.
    pub table_hits: u64,
    /// Marked reads with no entry.
    pub misses: u64,
    /// `mkpt` updates installing or refreshing entries.
    pub updates: u64,
}

/// A pre-translation entry returned alongside read data.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PretransEntry {
    /// Page frame number of the next pointer hop.
    pub pfn: u64,
    /// Time at which the entry is available to ship with the data.
    pub ready_at: Time,
}

/// The DIMM-side pre-translation machinery.
#[derive(Debug)]
pub struct PreTranslation {
    // nvsim-lint: allow(snapshot-field-coverage) — construction-time configuration; never mutated.
    cfg: PreTranslationConfig,
    /// RLB keyed by the paddr's line index.
    rlb: LruBuffer,
    /// The full table: paddr line index → pfn. Ordered map: the
    /// capacity-eviction victim in [`PreTranslation::update`] is chosen by
    /// iteration order, which must be deterministic.
    table: BTreeMap<u64, u64>,
    stats: PreTranslationStats,
}

impl PreTranslation {
    /// Creates the pre-translation structures.
    pub fn new(cfg: PreTranslationConfig) -> Self {
        PreTranslation {
            rlb: LruBuffer::new(cfg.rlb_entries.max(1) as usize),
            cfg,
            table: BTreeMap::new(),
            stats: PreTranslationStats::default(),
        }
    }

    /// Statistics so far.
    pub fn stats(&self) -> PreTranslationStats {
        self.stats
    }

    /// Looks up the pre-translation entry for a marked read of `paddr` at
    /// time `t`.
    pub fn lookup(&mut self, paddr: Addr, t: Time) -> Option<PretransEntry> {
        let key = paddr.line_index();
        if self.rlb.touch_hit(key, false) {
            let pfn = *self.table.get(&key)?;
            self.stats.rlb_hits += 1;
            return Some(PretransEntry {
                pfn,
                ready_at: t + self.cfg.rlb_latency,
            });
        }
        if let Some(&pfn) = self.table.get(&key) {
            self.stats.table_hits += 1;
            self.rlb.insert_missed(key, false);
            return Some(PretransEntry {
                pfn,
                ready_at: t + self.cfg.table_latency,
            });
        }
        self.stats.misses += 1;
        None
    }

    /// Installs or refreshes the entry for `paddr` (the `mkpt` update
    /// path, Fig 13c): the data at `paddr` points into page `pfn`.
    pub fn update(&mut self, paddr: Addr, pfn: u64) {
        let key = paddr.line_index();
        self.stats.updates += 1;
        if self.table.len() >= self.cfg.table_entries as usize && !self.table.contains_key(&key) {
            // Table full: drop the smallest-keyed entry (the table is a
            // cache of derived state; correctness is preserved by
            // check-before-read, and a deterministic victim keeps simulated
            // cycles reproducible run-to-run).
            if let Some(&victim) = self.table.keys().next() {
                self.table.remove(&victim);
                self.rlb.invalidate(victim);
            }
        }
        self.table.insert(key, pfn);
        self.rlb.touch(key, true);
    }

    /// Invalidates the entry for `paddr` (page table changed).
    pub fn invalidate(&mut self, paddr: Addr) {
        let key = paddr.line_index();
        self.table.remove(&key);
        self.rlb.invalidate(key);
    }
}

/// Section tag of [`PreTranslation`] snapshots.
const SECTION_PRETRANS: u16 = 0x38;

impl Snapshot for PreTranslation {
    fn save(&self, w: &mut SnapshotWriter) {
        w.section(SECTION_PRETRANS);
        self.rlb.save(w);
        w.put_usize(self.table.len());
        for (&key, &pfn) in &self.table {
            w.put_u64(key);
            w.put_u64(pfn);
        }
        w.put_u64(self.stats.rlb_hits);
        w.put_u64(self.stats.table_hits);
        w.put_u64(self.stats.misses);
        w.put_u64(self.stats.updates);
    }

    fn restore(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        r.expect_section(SECTION_PRETRANS)?;
        self.rlb.restore(r)?;
        let n = r.get_usize()?;
        if n > r.remaining() {
            return Err(r.invalid("pre-translation table count exceeds payload"));
        }
        self.table.clear();
        for _ in 0..n {
            let key = r.get_u64()?;
            let pfn = r.get_u64()?;
            self.table.insert(key, pfn);
        }
        self.stats.rlb_hits = r.get_u64()?;
        self.stats.table_hits = r.get_u64()?;
        self.stats.misses = r.get_u64()?;
        self.stats.updates = r.get_u64()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pt() -> PreTranslation {
        PreTranslation::new(PreTranslationConfig::paper())
    }

    #[test]
    fn miss_then_update_then_hit() {
        let mut p = pt();
        assert!(p.lookup(Addr::new(0x1000), Time::ZERO).is_none());
        p.update(Addr::new(0x1000), 42);
        let e = p.lookup(Addr::new(0x1000), Time::ZERO).unwrap();
        assert_eq!(e.pfn, 42);
        // First lookup after update hits the RLB (update installs there).
        assert_eq!(e.ready_at, Time::from_ns(4));
        assert_eq!(p.stats().rlb_hits, 1);
    }

    #[test]
    fn table_hit_pays_dram_latency() {
        let mut cfg = PreTranslationConfig::paper();
        cfg.rlb_entries = 1;
        let mut p = PreTranslation::new(cfg);
        p.update(Addr::new(0x1000), 1);
        p.update(Addr::new(0x2000), 2); // evicts 0x1000 from the 1-entry RLB
        let e = p.lookup(Addr::new(0x1000), Time::ZERO).unwrap();
        assert_eq!(e.ready_at, Time::from_ns(45));
        assert_eq!(p.stats().table_hits, 1);
        // Now it is back in the RLB.
        let e2 = p.lookup(Addr::new(0x1000), Time::ZERO).unwrap();
        assert_eq!(e2.ready_at, Time::from_ns(4));
    }

    #[test]
    fn update_refreshes_existing_entry() {
        let mut p = pt();
        p.update(Addr::new(0x1000), 1);
        p.update(Addr::new(0x1000), 9);
        let e = p.lookup(Addr::new(0x1000), Time::ZERO).unwrap();
        assert_eq!(e.pfn, 9);
        assert_eq!(p.stats().updates, 2);
    }

    #[test]
    fn invalidate_removes_entry() {
        let mut p = pt();
        p.update(Addr::new(0x1000), 1);
        p.invalidate(Addr::new(0x1000));
        assert!(p.lookup(Addr::new(0x1000), Time::ZERO).is_none());
    }

    #[test]
    fn table_capacity_bounded() {
        let mut cfg = PreTranslationConfig::paper();
        cfg.table_entries = 4;
        let mut p = PreTranslation::new(cfg);
        for i in 0..100u64 {
            p.update(Addr::new(i * 64), i);
        }
        assert!(p.table.len() <= 4);
    }
}
