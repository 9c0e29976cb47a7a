//! The address-indirection table (AIT).
//!
//! The AIT owns the physical→media address translation and the 16 MB AIT
//! data buffer; both live in the on-DIMM DRAM (§IV-A). It is also where
//! wear-leveling acts: writes accumulate wear records per 64 KB media
//! block, and when a block turns hot the AIT stalls writes to it, migrates
//! the data to a fresh media block, and updates the translation records.

use crate::buffer::LruBuffer;
use crate::config::AitConfig;
use nvsim_dram::DramModel;
use nvsim_media::{MediaAddr, WearEvent, WearTracker, XpointMedia};
use nvsim_types::snapshot::{Snapshot, SnapshotError, SnapshotReader, SnapshotWriter};
use nvsim_types::trace::{SpanRecorder, Stage, StageSpan};
use nvsim_types::{Addr, Time};
use std::collections::BTreeMap;

/// Statistics of AIT behaviour.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AitStats {
    /// Data-buffer hits.
    pub buffer_hits: u64,
    /// Data-buffer misses (page fetched from media).
    pub buffer_misses: u64,
    /// Translation-cache hits.
    pub translation_hits: u64,
    /// Translation-cache misses (DRAM table walk).
    pub translation_misses: u64,
    /// Wear-leveling migrations performed.
    pub migrations: u64,
    /// Dirty pages written back to media.
    pub writebacks: u64,
    /// Total accesses to the on-DIMM DRAM.
    pub dram_accesses: u64,
    /// Writes that were stalled behind an ongoing migration.
    pub stalled_writes: u64,
}

/// Physical page → media frame, for every page the AIT has translated.
///
/// Pages below the media's directly mapped range (`capacity_bytes /
/// entry_bytes`) index a vector holding `frame + 1`, where 0 means never
/// translated. The vector grows on demand to the highest such page
/// translated, so a small footprint never pays for the whole range.
/// Pages at or past that range (the cloud heap at 128 GiB, page-walk
/// tables at 1 TiB, any page a snapshot names) stay in an ordered map,
/// so memory stays bounded by the configuration, not by the address.
///
/// Iteration is ascending by page: every dense page lies below every
/// sparse one. [`Ait::remap_block`] assigns new frames in this order and
/// snapshots list entries in it.
#[derive(Debug)]
struct TranslationTable {
    /// `frame + 1` per page below `dense_pages`; 0 = never translated.
    dense: Vec<u64>,
    /// Translated pages held in `dense`.
    dense_len: usize,
    /// The directly mapped range; pages below it index `dense`.
    dense_pages: usize,
    /// Translated pages at or past `dense_pages`.
    sparse: BTreeMap<u64, u64>,
}

impl TranslationTable {
    fn new(dense_pages: u64) -> Self {
        TranslationTable {
            dense: Vec::new(),
            dense_len: 0,
            dense_pages: usize::try_from(dense_pages).unwrap_or(usize::MAX),
            sparse: BTreeMap::new(),
        }
    }

    /// Number of translated pages.
    fn len(&self) -> usize {
        self.dense_len + self.sparse.len()
    }

    /// The page's index into `dense`, or `None` for pages at or past the
    /// directly mapped range.
    fn dense_slot(&self, page: u64) -> Option<usize> {
        usize::try_from(page).ok().filter(|&i| i < self.dense_pages)
    }

    /// Grows `dense` (with never-translated slots) to hold index `i`.
    fn grow_to(&mut self, i: usize) {
        if i >= self.dense.len() {
            self.dense.resize(i + 1, 0);
        }
    }

    /// The page's frame, if it was ever translated.
    fn get(&self, page: u64) -> Option<u64> {
        match self.dense_slot(page) {
            Some(i) => self.dense.get(i).and_then(|&stored| stored.checked_sub(1)),
            None => self.sparse.get(&page).copied(),
        }
    }

    /// True if the page was ever translated.
    fn contains(&self, page: u64) -> bool {
        self.get(page).is_some()
    }

    /// The page's frame; a never-translated page is recorded as mapping
    /// to its own index.
    fn frame(&mut self, page: u64) -> u64 {
        let Some(i) = self.dense_slot(page) else {
            return *self.sparse.entry(page).or_insert(page);
        };
        self.grow_to(i);
        if self.dense[i] == 0 {
            self.dense[i] = page + 1;
            self.dense_len += 1;
        }
        self.dense[i] - 1
    }

    /// Maps `page` to `frame`. Frames are media frame indices whose byte
    /// addresses fit in a `u64` (restore rejects any other), so
    /// `frame + 1` cannot overflow.
    fn insert(&mut self, page: u64, frame: u64) {
        let Some(i) = self.dense_slot(page) else {
            self.sparse.insert(page, frame);
            return;
        };
        self.grow_to(i);
        if self.dense[i] == 0 {
            self.dense_len += 1;
        }
        self.dense[i] = frame + 1;
    }

    /// Forgets every translation.
    fn clear(&mut self) {
        self.dense.clear();
        self.dense_len = 0;
        self.sparse.clear();
    }

    /// `(page, frame)` pairs in ascending page order.
    fn iter(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        let dense = (0u64..)
            .zip(&self.dense)
            .filter_map(|(page, &stored)| stored.checked_sub(1).map(|frame| (page, frame)));
        dense.chain(self.sparse.iter().map(|(&page, &frame)| (page, frame)))
    }
}

/// The AIT model: translation table + translation cache + data buffer,
/// timed against the on-DIMM DRAM and the media array.
#[derive(Debug)]
pub struct Ait {
    // nvsim-lint: allow(snapshot-field-coverage) — construction-time configuration; never mutated.
    cfg: AitConfig,
    /// Data buffer, keyed by physical page index.
    buffer: LruBuffer,
    /// Translation cache, keyed by physical page index.
    tcache: LruBuffer,
    /// The full translation table: physical page → media frame index.
    /// Resident in on-DIMM DRAM; lookups not covered by `tcache` pay a
    /// DRAM access. [`Ait::remap_block`] iterates it and the iteration
    /// order feeds the post-migration frame assignment, so it iterates
    /// in ascending page order.
    translations: TranslationTable,
    /// On-DIMM DRAM timing model.
    dram: DramModel,
    /// Media array.
    media: XpointMedia,
    /// Wear-leveling hot-block detector.
    wear: WearTracker,
    /// Bump allocator for fresh media wear blocks (in wear-block units).
    next_free_block: u64,
    /// Physical pages currently stalled behind a migration.
    busy_pages: BTreeMap<u64, Time>,
    stats: AitStats,
    /// Per-stage span collection (disabled unless tracing is on).
    // nvsim-lint: allow(snapshot-field-coverage) — trace diagnostics of the saving run; restore drains it rather than loading spans.
    recorder: SpanRecorder,
    /// When durability tracking is on, every media write-back is logged
    /// here as `(page index, completion time)` — the OnMedia transition
    /// source for the crash-consistency layer.
    persist_enabled: bool,
    persist_log: Vec<(u64, Time)>,
}

impl Ait {
    /// Creates an AIT over the given DRAM, media and wear models.
    pub fn new(cfg: AitConfig, dram: DramModel, media: XpointMedia, wear: WearTracker) -> Self {
        let capacity = media.config().capacity_bytes;
        let block = wear.config().block_size;
        Ait {
            buffer: LruBuffer::new(cfg.buffer_entries as usize),
            tcache: LruBuffer::new(cfg.translation_cache_entries.max(1) as usize),
            translations: TranslationTable::new(capacity / cfg.entry_bytes as u64),
            cfg,
            dram,
            media,
            wear,
            // Fresh blocks for migration targets start past the directly
            // mapped region.
            next_free_block: capacity / block,
            busy_pages: BTreeMap::new(),
            stats: AitStats::default(),
            recorder: SpanRecorder::new(),
            persist_enabled: false,
            persist_log: Vec::new(),
        }
    }

    /// Enables or disables per-stage span collection.
    pub fn set_tracing(&mut self, enabled: bool) {
        self.recorder.set_enabled(enabled);
    }

    /// Moves spans recorded since the last drain into `out`.
    pub fn drain_spans(&mut self, out: &mut Vec<StageSpan>) {
        self.recorder.drain_into(out);
    }

    /// Enables or disables media write-back logging for durability
    /// tracking.
    pub fn set_persist_tracking(&mut self, enabled: bool) {
        self.persist_enabled = enabled;
        if !enabled {
            self.persist_log.clear();
        }
    }

    /// Moves `(page, completion time)` write-back records collected since
    /// the last drain into `out` (appending).
    pub fn drain_persist_into(&mut self, out: &mut Vec<(u64, Time)>) {
        out.append(&mut self.persist_log);
    }

    /// Number of dirty pages currently resident in the data buffer (lines
    /// the ADR drain would still have to push to media).
    pub fn dirty_pages(&self) -> u64 {
        self.buffer
            .keys()
            .filter(|&k| self.buffer.is_dirty(k))
            .count() as u64
    }

    /// Statistics so far.
    pub fn stats(&self) -> AitStats {
        self.stats
    }

    /// Media traffic statistics.
    pub fn media_stats(&self) -> nvsim_media::MediaStats {
        self.media.stats()
    }

    /// The wear tracker (e.g. to inspect per-block migration counts).
    pub fn wear(&self) -> &WearTracker {
        &self.wear
    }

    /// Resets statistics (not contents or wear state).
    pub fn reset_stats(&mut self) {
        self.stats = AitStats::default();
        self.media.reset_stats();
        self.buffer.reset_stats();
        self.tcache.reset_stats();
    }

    /// Pages per wear block.
    fn pages_per_block(&self) -> u64 {
        self.wear.config().block_size / self.cfg.entry_bytes as u64
    }

    fn page_of(&self, addr: Addr) -> u64 {
        addr.raw() / self.cfg.entry_bytes as u64
    }

    /// One timed access to the on-DIMM DRAM (row locality handled by the
    /// DRAM model itself). The AIT stores the page's data and metadata
    /// contiguously, so we address the DRAM by page index.
    fn dram_access(&mut self, page: u64, offset: u64, write: bool, t: Time) -> Time {
        self.stats.dram_accesses += 1;
        let addr = Addr::new(page * self.cfg.entry_bytes as u64 + offset);
        self.dram.access(addr, write, t) + self.cfg.controller_overhead
    }

    /// Resolves the physical page's media frame, paying a DRAM table walk
    /// on a translation-cache miss. Returns `(media_addr_of_page, time)`.
    fn translate(&mut self, page: u64, t: Time) -> (MediaAddr, Time) {
        let mut done = t;
        if self.tcache.contains(page) {
            self.tcache.touch(page, false);
            self.stats.translation_hits += 1;
        } else {
            self.stats.translation_misses += 1;
            done = self.dram_access(page, 0, false, done);
            self.recorder.record(Stage::AitWalk, t, done);
            self.tcache.touch(page, false);
        }
        let frame = self.translations.frame(page);
        (MediaAddr::new(frame * self.cfg.entry_bytes as u64), done)
    }

    /// Handles a dirty-page eviction: write the page back to media.
    /// The write-back proceeds in the background (it occupies the media
    /// but does not extend the requester's latency).
    fn writeback(&mut self, page: u64, t: Time) {
        self.stats.writebacks += 1;
        let frame = self.translations.frame(page);
        let media_addr = MediaAddr::new(frame * self.cfg.entry_bytes as u64);
        let done = self.media.write(media_addr, self.cfg.entry_bytes, t);
        // Posted: overlaps foreground time, so this span does not tile.
        self.recorder.record(Stage::MediaWrite, t, done);
        if self.persist_enabled {
            self.persist_log.push((page, done));
        }
    }

    /// Ensures the page is resident in the data buffer; returns the time
    /// data is available to forward. `write` marks the page dirty.
    fn ensure_resident(&mut self, page: u64, write: bool, t: Time) -> Time {
        if self.buffer.contains(page) {
            self.stats.buffer_hits += 1;
            // Data access in the on-DIMM DRAM.
            let done = self.dram_access(page, 64, write, t);
            self.recorder.record(Stage::AitCacheHit, t, done);
            self.buffer.touch(page, write);
            return done;
        }
        self.stats.buffer_misses += 1;
        let (media_addr, after_translate) = self.translate(page, t);
        // Fetch the whole page from media; data is forwarded as it
        // arrives (the DRAM install happens in the background).
        let fetched = self
            .media
            .read(media_addr, self.cfg.entry_bytes, after_translate);
        self.recorder
            .record(Stage::MediaRead, after_translate, fetched);
        // Background install into the DRAM buffer.
        let install_done = self.dram_access(page, 64, true, fetched);
        // Posted: overlaps the data return, so this span does not tile.
        self.recorder
            .record(Stage::OnDimmDram, fetched, install_done);
        let (_, evicted) = self.buffer.touch(page, write);
        if let Some(ev) = evicted {
            if ev.dirty {
                self.writeback(ev.key, fetched);
            }
        }
        fetched
    }

    /// Reads `_bytes` of the block containing `addr`; returns the time the
    /// data is available to the RMW stage.
    pub fn read(&mut self, addr: Addr, _bytes: u32, t: Time) -> Time {
        let page = self.page_of(addr);
        self.ensure_resident(page, false, t)
    }

    /// Writes `bytes` of the block containing `addr` (arriving from the
    /// RMW write-through); returns the completion time.
    ///
    /// This is where wear accumulates and migrations trigger: a write to a
    /// page whose media block is mid-migration stalls until the migration
    /// finishes — the tail latency of Fig 7b.
    pub fn write(&mut self, addr: Addr, bytes: u32, t: Time) -> Time {
        let page = self.page_of(addr);
        // Stall behind an ongoing migration of this page's block.
        let mut start = t;
        if let Some(&busy) = self.busy_pages.get(&page) {
            if busy > start {
                self.stats.stalled_writes += 1;
                self.recorder.record(Stage::MigrationStall, start, busy);
                start = busy;
            } else {
                self.busy_pages.remove(&page);
            }
        }
        let done = self.ensure_resident(page, true, start);
        // Record wear against the *media* block actually written.
        let frame = self.translations.frame(page);
        let offset = addr.raw() % self.cfg.entry_bytes as u64;
        let _ = bytes;
        let media_addr = MediaAddr::new(frame * self.cfg.entry_bytes as u64 + offset);
        if let WearEvent::Migrate { block } = self.wear.record_write(media_addr) {
            self.migrate(block, page, done);
        }
        done
    }

    /// Migrates a hot media block: copy its data to a fresh block, remap
    /// every affected physical page, and stall subsequent writes to those
    /// pages until the copy completes.
    fn migrate(&mut self, media_block: u64, _trigger_page: u64, t: Time) {
        self.stats.migrations += 1;
        let block_size = self.wear.config().block_size;
        let new_block = self.next_free_block;
        self.next_free_block += 1;
        // Timed media copy of the whole wear block.
        let copy_done = self.media.copy(
            MediaAddr::new(media_block * block_size),
            MediaAddr::new(new_block * block_size),
            block_size as u32, // nvsim-lint: allow(cast-truncation) — wear-block size is a small config constant (pages_per_block · 4 KiB)
            t,
        ) + self.wear.config().migration_latency;
        // Posted: the copy runs behind foreground traffic (later writes to
        // the block see it as a MigrationStall span instead).
        self.recorder.record(Stage::MediaWrite, t, copy_done);
        self.remap_block(media_block, new_block, Some(copy_done));
    }

    /// Remaps every physical page pointing into `media_block` onto
    /// `new_block`, optionally stalling writes to those pages until
    /// `stall_until`. The remapped frame of each page depends on its
    /// position in this scan, so the scan must visit pages in a
    /// deterministic (key) order.
    fn remap_block(&mut self, media_block: u64, new_block: u64, stall_until: Option<Time>) {
        let ppb = self.pages_per_block();
        let frame_lo = media_block * ppb;
        let frame_hi = frame_lo + ppb;
        let affected: Vec<u64> = self
            .translations
            .iter()
            .filter(|&(_, f)| f >= frame_lo && f < frame_hi)
            .map(|(p, _)| p)
            .collect();
        // Pages never explicitly translated map identity; cover those too.
        let identity_pages: Vec<u64> = (frame_lo..frame_hi)
            .filter(|&p| !self.translations.contains(p))
            .collect();
        let all: Vec<u64> = affected.into_iter().chain(identity_pages).collect();
        for (i, page) in all.iter().enumerate() {
            self.translations
                .insert(*page, new_block * ppb + (i as u64 % ppb));
            if let Some(busy) = stall_until {
                self.busy_pages.insert(*page, busy);
            }
            self.tcache.invalidate(*page);
        }
    }

    /// Functional-warming access: updates buffer/translation-cache
    /// recency, translation records and wear heat the way a timed access
    /// would — including performing any triggered wear-leveling remap —
    /// **without** advancing DRAM, media or port timing. The sampled
    /// simulation drives this during fast-forward so a detailed window
    /// starts from realistically warm state.
    pub fn warm(&mut self, addr: Addr, write: bool) {
        let page = self.page_of(addr);
        if self.buffer.contains(page) {
            self.stats.buffer_hits += 1;
            self.buffer.touch(page, write);
        } else {
            self.stats.buffer_misses += 1;
            if self.tcache.contains(page) {
                self.stats.translation_hits += 1;
            } else {
                self.stats.translation_misses += 1;
            }
            self.tcache.touch(page, false);
            self.translations.frame(page);
            // Dirty evictions are dropped without a timed write-back;
            // warming only tracks residency, not media traffic.
            let _ = self.buffer.touch(page, write);
        }
        if write {
            self.busy_pages.remove(&page);
            let frame = self.translations.frame(page);
            let offset = addr.raw() % self.cfg.entry_bytes as u64;
            let media_addr = MediaAddr::new(frame * self.cfg.entry_bytes as u64 + offset);
            if let WearEvent::Migrate { block } = self.wear.record_write(media_addr) {
                self.stats.migrations += 1;
                let new_block = self.next_free_block;
                self.next_free_block += 1;
                self.remap_block(block, new_block, None);
            }
        }
    }

    /// Hit/miss counters of the data buffer.
    pub fn buffer_hit_miss(&self) -> (u64, u64) {
        self.buffer.hit_miss()
    }
}

/// Section tag of [`Ait`] snapshots.
const SECTION_AIT: u16 = 0x33;

impl Snapshot for Ait {
    fn save(&self, w: &mut SnapshotWriter) {
        w.section(SECTION_AIT);
        self.buffer.save(w);
        self.tcache.save(w);
        w.put_usize(self.translations.len());
        for (page, frame) in self.translations.iter() {
            w.put_u64(page);
            w.put_u64(frame);
        }
        self.dram.save(w);
        self.media.save(w);
        self.wear.save(w);
        w.put_u64(self.next_free_block);
        w.put_usize(self.busy_pages.len());
        for (&page, &busy) in &self.busy_pages {
            w.put_u64(page);
            w.put_time(busy);
        }
        w.put_u64(self.stats.buffer_hits);
        w.put_u64(self.stats.buffer_misses);
        w.put_u64(self.stats.translation_hits);
        w.put_u64(self.stats.translation_misses);
        w.put_u64(self.stats.migrations);
        w.put_u64(self.stats.writebacks);
        w.put_u64(self.stats.dram_accesses);
        w.put_u64(self.stats.stalled_writes);
        w.put_bool(self.persist_enabled);
        w.put_usize(self.persist_log.len());
        for &(page, at) in &self.persist_log {
            w.put_u64(page);
            w.put_time(at);
        }
    }

    fn restore(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        r.expect_section(SECTION_AIT)?;
        self.buffer.restore(r)?;
        self.tcache.restore(r)?;
        let n = r.get_usize()?;
        if n > r.remaining() {
            return Err(r.invalid("translation count exceeds payload"));
        }
        self.translations.clear();
        for _ in 0..n {
            let page = r.get_u64()?;
            let frame = r.get_u64()?;
            // A frame is a media frame index: one whose byte address
            // overflows cannot name media, and `u64::MAX` has no
            // `frame + 1` encoding in the dense table.
            if frame.checked_mul(self.cfg.entry_bytes as u64).is_none() {
                return Err(r.invalid("translated frame past the media address space"));
            }
            self.translations.insert(page, frame);
        }
        self.dram.restore(r)?;
        self.media.restore(r)?;
        self.wear.restore(r)?;
        self.next_free_block = r.get_u64()?;
        let n = r.get_usize()?;
        if n > r.remaining() {
            return Err(r.invalid("busy-page count exceeds payload"));
        }
        self.busy_pages.clear();
        for _ in 0..n {
            let page = r.get_u64()?;
            let busy = r.get_time()?;
            self.busy_pages.insert(page, busy);
        }
        self.stats.buffer_hits = r.get_u64()?;
        self.stats.buffer_misses = r.get_u64()?;
        self.stats.translation_hits = r.get_u64()?;
        self.stats.translation_misses = r.get_u64()?;
        self.stats.migrations = r.get_u64()?;
        self.stats.writebacks = r.get_u64()?;
        self.stats.dram_accesses = r.get_u64()?;
        self.stats.stalled_writes = r.get_u64()?;
        self.persist_enabled = r.get_bool()?;
        let n = r.get_usize()?;
        if n > r.remaining() {
            return Err(r.invalid("persist-log count exceeds payload"));
        }
        self.persist_log.clear();
        for _ in 0..n {
            let page = r.get_u64()?;
            let at = r.get_time()?;
            self.persist_log.push((page, at));
        }
        // Undrained trace spans are diagnostics of the *saving* run; a
        // restored AIT starts with an empty recorder.
        let mut discard = Vec::new();
        self.recorder.drain_into(&mut discard);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvsim_dram::DramConfig;
    use nvsim_media::{MediaConfig, WearConfig};
    use nvsim_types::snapshot::SnapshotErrorKind;
    use nvsim_types::DetRng;

    fn ait(buffer_entries: u32, wear_threshold: u64) -> Ait {
        ait_on(MediaConfig::optane_like(), buffer_entries, wear_threshold)
    }

    /// An AIT over 256 KiB of media: 64 directly mapped pages.
    fn small_ait() -> Ait {
        let mut media = MediaConfig::optane_like();
        media.capacity_bytes = 256 << 10;
        ait_on(media, 16, 1_000_000)
    }

    fn ait_on(media: MediaConfig, buffer_entries: u32, wear_threshold: u64) -> Ait {
        let cfg = AitConfig {
            buffer_entries,
            entry_bytes: 4096,
            controller_overhead: Time::from_ns(10),
            translation_cache_entries: 8,
        };
        let mut dram_cfg = DramConfig::on_dimm_512mb();
        dram_cfg.refresh_enabled = false;
        let dram = DramModel::new(dram_cfg).unwrap();
        let media = XpointMedia::new(media).unwrap();
        let mut wcfg = WearConfig::optane_like();
        wcfg.threshold = wear_threshold;
        let wear = WearTracker::new(wcfg).unwrap();
        Ait::new(cfg, dram, media, wear)
    }

    #[test]
    fn buffer_hit_is_much_faster_than_miss() {
        let mut a = ait(16, 1_000_000);
        let miss_done = a.read(Addr::new(0), 256, Time::ZERO);
        let hit_done = a.read(Addr::new(256), 256, miss_done);
        let miss_lat = miss_done - Time::ZERO;
        let hit_lat = hit_done - miss_done;
        assert!(hit_lat * 2 < miss_lat, "hit {hit_lat} vs miss {miss_lat}");
        assert_eq!(a.stats().buffer_hits, 1);
        assert_eq!(a.stats().buffer_misses, 1);
    }

    #[test]
    fn miss_fetches_whole_page_from_media() {
        let mut a = ait(16, 1_000_000);
        a.read(Addr::new(0), 64, Time::ZERO);
        assert_eq!(a.media_stats().bytes_read, 4096);
    }

    #[test]
    fn translation_cache_saves_a_dram_walk() {
        // Tiny 2-entry data buffer: page 0 gets evicted while its
        // translation survives in the 8-entry translation cache.
        let mut a = ait(2, 1_000_000);
        let mut now = a.read(Addr::new(0), 256, Time::ZERO);
        assert_eq!(a.stats().translation_misses, 1);
        now = a.read(Addr::new(4096), 256, now);
        now = a.read(Addr::new(2 * 4096), 256, now);
        // Page 0 is gone from the data buffer; reading it again walks the
        // buffer-miss path but hits the translation cache.
        let misses_before = a.stats().translation_misses;
        a.read(Addr::new(512), 256, now);
        assert_eq!(a.stats().translation_misses, misses_before);
        assert_eq!(a.stats().translation_hits, 1);
        assert_eq!(a.stats().buffer_misses, 4);
    }

    #[test]
    fn dirty_eviction_writes_back_to_media() {
        let mut a = ait(2, 1_000_000);
        let mut now = Time::ZERO;
        now = a.write(Addr::new(0), 256, now);
        // Touch two more pages to evict page 0 (dirty).
        now = a.read(Addr::new(4096), 256, now);
        let _ = a.read(Addr::new(2 * 4096), 256, now);
        assert_eq!(a.stats().writebacks, 1);
        assert!(a.media_stats().bytes_written >= 4096);
    }

    #[test]
    fn hot_block_migration_stalls_next_write() {
        let mut a = ait(16, 50);
        let mut now = Time::ZERO;
        let mut latencies = Vec::new();
        for _ in 0..120 {
            let done = a.write(Addr::new(0), 256, now);
            latencies.push((done - now).as_ns());
            now = done;
        }
        assert!(a.stats().migrations >= 1, "expected a migration");
        assert!(a.stats().stalled_writes >= 1, "expected a stalled write");
        // The stall appears as a tail far above the median write latency.
        let max = *latencies.iter().max().unwrap();
        let mut sorted = latencies.clone();
        sorted.sort_unstable();
        let median = sorted[sorted.len() / 2];
        assert!(max > median * 20, "tail {max}ns not >> median {median}ns");
    }

    #[test]
    fn migration_remaps_translation() {
        let mut a = ait(16, 50);
        let mut now = Time::ZERO;
        for _ in 0..60 {
            now = a.write(Addr::new(0), 256, now);
        }
        assert_eq!(a.stats().migrations, 1);
        // The page now maps to a fresh frame past the identity region.
        let frame = a.translations.get(0).unwrap();
        assert_ne!(frame, 0);
        // And wear of the new block starts cold: many more writes needed
        // before the next migration.
        for _ in 0..30 {
            now = a.write(Addr::new(0), 256, now);
        }
        assert_eq!(a.stats().migrations, 1);
    }

    #[test]
    fn spread_writes_do_not_migrate() {
        let mut a = ait(64, 50);
        let mut now = Time::ZERO;
        // Alternate between two 64KB blocks: the decaying detector never
        // fires (Fig 7c collapse).
        for i in 0..500u64 {
            let addr = Addr::new((i % 2) * 64 * 1024);
            now = a.write(addr, 256, now);
        }
        assert_eq!(a.stats().migrations, 0);
    }

    #[test]
    fn stats_reset_keeps_wear_state() {
        let mut a = ait(16, 50);
        let mut now = Time::ZERO;
        for _ in 0..40 {
            now = a.write(Addr::new(0), 256, now);
        }
        a.reset_stats();
        assert_eq!(a.stats().migrations, 0);
        // Wear state persists: 10 more writes reach the threshold of 50.
        for _ in 0..10 {
            now = a.write(Addr::new(0), 256, now);
        }
        assert_eq!(a.stats().migrations, 1);
    }

    /// The table against an ordered map with the semantics it replaced:
    /// lookups insert identity (`entry(page).or_insert(page)`), inserts
    /// overwrite, clears empty it. Pages fall on both sides of the
    /// directly mapped range and far past it.
    #[test]
    fn translation_table_matches_ordered_map_reference() {
        let mut table = small_ait().translations;
        assert_eq!(table.dense_pages, 64);
        let mut reference: BTreeMap<u64, u64> = BTreeMap::new();
        let mut rng = DetRng::seed_from(0x7ab1e);
        for _ in 0..20_000 {
            let page = match rng.range_u64(0, 4) {
                0 => rng.range_u64(0, 64),
                1 => rng.range_u64(64, 128),
                2 => rng.range_u64(0, 128),
                _ => (1 << 40) + rng.range_u64(0, 4),
            };
            match rng.range_u64(0, 100) {
                0 => {
                    table.clear();
                    reference.clear();
                }
                1..=40 => {
                    assert_eq!(table.frame(page), *reference.entry(page).or_insert(page));
                }
                41..=70 => {
                    let frame = rng.range_u64(0, 256);
                    table.insert(page, frame);
                    reference.insert(page, frame);
                }
                _ => assert_eq!(table.get(page), reference.get(&page).copied()),
            }
            assert_eq!(table.len(), reference.len());
            assert_eq!(table.contains(page), reference.contains_key(&page));
            assert!(table.iter().eq(reference.iter().map(|(&p, &f)| (p, f))));
            assert!(table.dense.len() <= 64);
        }
    }

    /// A blob of `a` whose translation table lists `entries` instead of
    /// `a`'s own (empty) table; every other byte comes from `a.save`.
    fn blob_with_translations(a: &Ait, entries: &[(u64, u64)]) -> Vec<u8> {
        assert_eq!(a.translations.len(), 0);
        let mut w = SnapshotWriter::new();
        w.section(SECTION_AIT);
        a.buffer.save(&mut w);
        a.tcache.save(&mut w);
        let count_at = w.len();
        let mut w = SnapshotWriter::new();
        a.save(&mut w);
        let mut blob = w.into_bytes();
        let mut table = SnapshotWriter::new();
        table.put_usize(entries.len());
        for &(page, frame) in entries {
            table.put_u64(page);
            table.put_u64(frame);
        }
        blob.splice(count_at..=count_at, table.into_bytes());
        blob
    }

    #[test]
    fn far_page_restores_without_growing_the_dense_table() {
        let blob = blob_with_translations(&small_ait(), &[(1 << 40, 9)]);
        let mut a = small_ait();
        let mut r = SnapshotReader::new(&blob);
        a.restore(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(a.translations.get(1 << 40), Some(9));
        assert_eq!(a.translations.dense.capacity(), 0);
        let mut w = SnapshotWriter::new();
        a.save(&mut w);
        assert_eq!(w.into_bytes(), blob);
    }

    #[test]
    fn unencodable_frame_is_rejected() {
        let blob = blob_with_translations(&small_ait(), &[(3, u64::MAX)]);
        let mut a = small_ait();
        let err = a.restore(&mut SnapshotReader::new(&blob)).unwrap_err();
        assert!(
            matches!(err.kind, SnapshotErrorKind::Invalid(what) if what.contains("frame")),
            "{err}"
        );
        assert!(!a.translations.contains(3));
    }
}
