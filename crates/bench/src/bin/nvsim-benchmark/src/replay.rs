//! The engine's cost ledger: each layer's host cost found by isolating it.
//!
//! [`ChainedDimm`] rebuilds one VANS DIMM from the public component types
//! (`Imc`, `Lsq`, `Rmw`, `Ait`) and drives them in `NvDimm`'s order, with
//! the system-level clock of a one-DIMM `MemorySystem` on top. Beside the
//! real AIT runs [`ShadowAit`], a copy of the AIT's private composition —
//! data buffer and translation cache (`LruBuffer`s), translation table,
//! on-DIMM DRAM, media and wear tracker — that must return the real AIT's
//! completion time on every call and end with its counters.
//!
//! While a stream runs with logging on, every call into a component is
//! appended to that component's log. Replaying one log alone, on a copy of
//! the component taken where the stream started, times that component in
//! isolation. A replay counts only when it reproduces the engine's
//! counters exactly; otherwise its layer is reported invalid.

use nvsim::dram::model::DramStats;
use nvsim::dram::DramModel;
use nvsim::media::{MediaAddr, MediaStats, WearEvent, WearTracker, XpointMedia};
use nvsim::types::snapshot::{restore_blob, save_blob};
use nvsim::types::{Addr, ConfigError, MemOp, RequestDesc, Time, CACHE_LINE};
use nvsim::vans::ait::{Ait, AitStats};
use nvsim::vans::buffer::LruBuffer;
use nvsim::vans::config::AitConfig;
use nvsim::vans::dimm::NvDimm;
use nvsim::vans::imc::{Imc, ImcStats};
use nvsim::vans::lsq::{CombinedWrite, Lsq, LsqStats};
use nvsim::vans::params::LSQ_READ_PROBE_NS;
use nvsim::vans::rmw::{Rmw, RmwStats};
use nvsim::vans::VansConfig;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

#[derive(Debug, Clone, Copy)]
pub enum ImcOp {
    AllocateRpq(Time),
    CompleteRead(Time),
    BusPacket(Time),
    DataPacket(Time),
    AcceptStore(Addr, Time),
    PopDrain(Time),
    DrainAccepted(Time),
    FenceLines(Time),
}

#[derive(Debug, Clone, Copy)]
pub enum LsqOp {
    ReadProbe(Addr),
    AcceptWrite(Addr, Time),
    Flush,
}

#[derive(Debug, Clone, Copy)]
pub enum RmwOp {
    Read(Addr, Time),
    Write(Addr, u32, Time),
    Fill(Addr),
}

#[derive(Debug, Clone, Copy)]
pub enum AitOp {
    Read(Addr, u32, Time),
    Write(Addr, u32, Time),
}

/// A call into one of the AIT's two `LruBuffer`s (`tcache` selects the
/// translation cache over the data buffer).
#[derive(Debug, Clone, Copy)]
pub enum BufOp {
    Contains { tcache: bool, key: u64 },
    Touch { tcache: bool, key: u64, write: bool },
    Invalidate { key: u64 },
}

/// A call into the media crate: the array or the wear tracker.
#[derive(Debug, Clone, Copy)]
pub enum MediaOp {
    Read(MediaAddr, u32, Time),
    Write(MediaAddr, u32, Time),
    Copy(MediaAddr, MediaAddr, u32, Time),
    Wear(MediaAddr),
}

/// Per-component call logs of one stream.
#[derive(Debug, Default, Clone)]
pub struct Logs {
    pub imc: Vec<ImcOp>,
    pub lsq: Vec<LsqOp>,
    pub rmw: Vec<RmwOp>,
    pub ait: Vec<AitOp>,
    pub buffer: Vec<BufOp>,
    pub dram: Vec<(Addr, bool, Time)>,
    pub media: Vec<MediaOp>,
}

/// The counters a replay must reproduce.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Stats {
    pub imc: ImcStats,
    pub lsq: LsqStats,
    pub rmw: RmwStats,
    pub ait: AitStats,
    pub media: MediaStats,
    /// AIT data-buffer `(hits, misses)`.
    pub buffer: (u64, u64),
}

impl Stats {
    pub fn of_dimm(d: &NvDimm) -> Stats {
        Stats {
            imc: d.imc.stats(),
            lsq: d.lsq.stats(),
            rmw: d.rmw.stats(),
            ait: d.ait.stats(),
            media: d.ait.media_stats(),
            buffer: d.ait.buffer_hit_miss(),
        }
    }
}

fn build_ait(cfg: &VansConfig) -> Result<Ait, ConfigError> {
    Ok(Ait::new(
        cfg.ait,
        DramModel::new(cfg.on_dimm_dram.clone())?,
        XpointMedia::new(cfg.media.clone())?,
        WearTracker::new(cfg.wear)?,
    ))
}

/// The AIT's composition, step for step as `Ait` runs it, with every
/// call into a buffer, the DRAM, the media or the wear tracker logged
/// while logging is on.
#[derive(Debug, Clone)]
pub struct ShadowAit {
    cfg: AitConfig,
    buffer: LruBuffer,
    tcache: LruBuffer,
    translations: BTreeMap<u64, u64>,
    dram: DramModel,
    media: XpointMedia,
    wear: WearTracker,
    next_free_block: u64,
    busy_pages: BTreeMap<u64, Time>,
    stats: AitStats,
    /// Its buffer, DRAM and media calls, while logging is on.
    logs: Option<Logs>,
}

impl ShadowAit {
    fn new(cfg: &VansConfig) -> Result<ShadowAit, ConfigError> {
        let wear = WearTracker::new(cfg.wear)?;
        Ok(ShadowAit {
            cfg: cfg.ait,
            buffer: LruBuffer::new(cfg.ait.buffer_entries as usize),
            tcache: LruBuffer::new(cfg.ait.translation_cache_entries.max(1) as usize),
            translations: BTreeMap::new(),
            dram: DramModel::new(cfg.on_dimm_dram.clone())?,
            next_free_block: cfg.media.capacity_bytes / wear.config().block_size,
            media: XpointMedia::new(cfg.media.clone())?,
            wear,
            busy_pages: BTreeMap::new(),
            stats: AitStats::default(),
            logs: None,
        })
    }

    fn page_bytes(&self) -> u64 {
        u64::from(self.cfg.entry_bytes)
    }

    fn contains(&mut self, tcache: bool, key: u64) -> bool {
        if let Some(l) = &mut self.logs {
            l.buffer.push(BufOp::Contains { tcache, key });
        }
        if tcache {
            self.tcache.contains(key)
        } else {
            self.buffer.contains(key)
        }
    }

    fn touch(&mut self, tcache: bool, key: u64, write: bool) -> Option<(u64, bool)> {
        if let Some(l) = &mut self.logs {
            l.buffer.push(BufOp::Touch { tcache, key, write });
        }
        let buf = if tcache {
            &mut self.tcache
        } else {
            &mut self.buffer
        };
        buf.touch(key, write).1.map(|e| (e.key, e.dirty))
    }

    fn dram_access(&mut self, page: u64, offset: u64, write: bool, t: Time) -> Time {
        self.stats.dram_accesses += 1;
        let addr = Addr::new(page * self.page_bytes() + offset);
        if let Some(l) = &mut self.logs {
            l.dram.push((addr, write, t));
        }
        self.dram.access(addr, write, t) + self.cfg.controller_overhead
    }

    fn media_op(&mut self, op: MediaOp) -> Option<Time> {
        if let Some(l) = &mut self.logs {
            l.media.push(op);
        }
        apply_media(&mut self.media, &mut self.wear, op)
    }

    fn frame_addr(&mut self, page: u64) -> MediaAddr {
        let frame = *self.translations.entry(page).or_insert(page);
        MediaAddr::new(frame * self.page_bytes())
    }

    fn translate(&mut self, page: u64, t: Time) -> (MediaAddr, Time) {
        let mut done = t;
        if self.contains(true, page) {
            self.touch(true, page, false);
            self.stats.translation_hits += 1;
        } else {
            self.stats.translation_misses += 1;
            done = self.dram_access(page, 0, false, done);
            self.touch(true, page, false);
        }
        (self.frame_addr(page), done)
    }

    fn ensure_resident(&mut self, page: u64, write: bool, t: Time) -> Time {
        if self.contains(false, page) {
            self.stats.buffer_hits += 1;
            let done = self.dram_access(page, 64, write, t);
            self.touch(false, page, write);
            return done;
        }
        self.stats.buffer_misses += 1;
        let (media_addr, after) = self.translate(page, t);
        let unit = self.cfg.entry_bytes;
        let fetched = self
            .media_op(MediaOp::Read(media_addr, unit, after))
            .unwrap_or(after);
        self.dram_access(page, 64, true, fetched);
        if let Some((victim, true)) = self.touch(false, page, write) {
            self.stats.writebacks += 1;
            let at = self.frame_addr(victim);
            self.media_op(MediaOp::Write(at, unit, fetched));
        }
        fetched
    }

    fn read(&mut self, addr: Addr, t: Time) -> Time {
        let page = addr.raw() / self.page_bytes();
        self.ensure_resident(page, false, t)
    }

    fn write(&mut self, addr: Addr, t: Time) -> Time {
        let page = addr.raw() / self.page_bytes();
        let mut start = t;
        if let Some(&busy) = self.busy_pages.get(&page) {
            if busy > start {
                self.stats.stalled_writes += 1;
                start = busy;
            } else {
                self.busy_pages.remove(&page);
            }
        }
        let done = self.ensure_resident(page, true, start);
        let media_addr = self.frame_addr(page).offset(addr.raw() % self.page_bytes());
        if let Some(block) = self.record_write(media_addr) {
            self.stats.migrations += 1;
            let size = self.wear.config().block_size;
            let new_block = self.next_free_block;
            self.next_free_block += 1;
            let copy = MediaOp::Copy(
                MediaAddr::new(block * size),
                MediaAddr::new(new_block * size),
                u32::try_from(size).expect("wear blocks are KiB-sized"),
                done,
            );
            let copied = self.media_op(copy).unwrap_or(done);
            let stall = copied + self.wear.config().migration_latency;
            self.remap_block(block, new_block, Some(stall));
        }
        done
    }

    fn record_write(&mut self, media_addr: MediaAddr) -> Option<u64> {
        if let Some(l) = &mut self.logs {
            l.media.push(MediaOp::Wear(media_addr));
        }
        match self.wear.record_write(media_addr) {
            WearEvent::Migrate { block } => Some(block),
            WearEvent::None => None,
        }
    }

    fn remap_block(&mut self, media_block: u64, new_block: u64, stall_until: Option<Time>) {
        let ppb = self.wear.config().block_size / self.page_bytes();
        let (lo, hi) = (media_block * ppb, media_block * ppb + ppb);
        let mapped: Vec<u64> = self
            .translations
            .iter()
            .filter(|&(_, &f)| f >= lo && f < hi)
            .map(|(&p, _)| p)
            .collect();
        let identity: Vec<u64> = (lo..hi)
            .filter(|p| !self.translations.contains_key(p))
            .collect();
        for (i, page) in mapped.into_iter().chain(identity).enumerate() {
            self.translations
                .insert(page, new_block * ppb + (i as u64 % ppb));
            if let Some(busy) = stall_until {
                self.busy_pages.insert(page, busy);
            }
            if let Some(l) = &mut self.logs {
                l.buffer.push(BufOp::Invalidate { key: page });
            }
            self.tcache.invalidate(page);
        }
    }

    fn warm(&mut self, addr: Addr, write: bool) {
        let page = addr.raw() / self.page_bytes();
        if self.contains(false, page) {
            self.stats.buffer_hits += 1;
            self.touch(false, page, write);
        } else {
            self.stats.buffer_misses += 1;
            if self.contains(true, page) {
                self.stats.translation_hits += 1;
            } else {
                self.stats.translation_misses += 1;
            }
            self.touch(true, page, false);
            self.translations.entry(page).or_insert(page);
            self.touch(false, page, write);
        }
        if write {
            self.busy_pages.remove(&page);
            let media_addr = self.frame_addr(page).offset(addr.raw() % self.page_bytes());
            if let Some(block) = self.record_write(media_addr) {
                self.stats.migrations += 1;
                let new_block = self.next_free_block;
                self.next_free_block += 1;
                self.remap_block(block, new_block, None);
            }
        }
    }
}

/// One VANS DIMM (and the one-DIMM system clock above it) rebuilt from
/// its components. Handles the requests the engine workloads issue:
/// 64 B loads, 64 B non-temporal stores and fences.
#[derive(Debug)]
pub struct ChainedDimm {
    pub imc: Imc,
    pub lsq: Lsq,
    pub rmw: Rmw,
    pub ait: Ait,
    pub shadow: ShadowAit,
    /// System clock: completion of the previous request.
    pub now: Time,
    /// AIT calls whose completion time the shadow did not reproduce.
    pub shadow_misses: u64,
    logs: Option<Logs>,
    drains: Vec<CombinedWrite>,
}

impl ChainedDimm {
    /// A fresh DIMM built from `cfg` exactly as `NvDimm::new` builds one.
    pub fn new(cfg: &VansConfig) -> Result<ChainedDimm, ConfigError> {
        if cfg.interleave.dimms != 1 {
            return Err(ConfigError::new(
                "interleave.dimms",
                "the component ledger models one DIMM",
            ));
        }
        Ok(ChainedDimm {
            imc: Imc::new(cfg.imc),
            lsq: Lsq::new(cfg.lsq),
            rmw: Rmw::new(cfg.rmw),
            ait: build_ait(cfg)?,
            shadow: ShadowAit::new(cfg)?,
            now: Time::ZERO,
            shadow_misses: 0,
            logs: None,
            drains: Vec::new(),
        })
    }

    pub fn stats(&self) -> Stats {
        Stats {
            imc: self.imc.stats(),
            lsq: self.lsq.stats(),
            rmw: self.rmw.stats(),
            ait: self.ait.stats(),
            media: self.ait.media_stats(),
            buffer: self.ait.buffer_hit_miss(),
        }
    }

    /// Whether the shadow reproduced every AIT completion time and ends
    /// with the AIT's counters, buffer counts and media traffic.
    pub fn shadow_agrees(&self) -> bool {
        self.shadow_misses == 0
            && self.shadow.stats == self.ait.stats()
            && self.shadow.buffer.hit_miss() == self.ait.buffer_hit_miss()
            && self.shadow.media.stats() == self.ait.media_stats()
    }

    /// Starts logging component calls (discarding any earlier log).
    pub fn start_logging(&mut self) {
        self.logs = Some(Logs::default());
        self.shadow.logs = Some(Default::default());
    }

    pub fn take_logs(&mut self) -> Logs {
        let mut logs = self.logs.take().unwrap_or_default();
        if let Some(shadow) = self.shadow.logs.take() {
            (logs.buffer, logs.dram, logs.media) = (shadow.buffer, shadow.dram, shadow.media);
        }
        logs
    }

    /// `MemorySystem::execute` of one request on a one-DIMM system.
    pub fn execute(&mut self, d: RequestDesc) {
        let line = d.addr.align_down(CACHE_LINE);
        let now = self.now;
        let done = match d.op {
            MemOp::Load => self.read_line(line, now),
            MemOp::NtStore => self.write_line(line, now),
            MemOp::Fence => self.fence(now),
            other => panic!("the engine workloads issue no {other:?} requests"),
        };
        self.now = self.now.max(done);
    }

    /// `MemorySystem::warm_access` of one request on a one-DIMM system.
    pub fn warm(&mut self, d: &RequestDesc) {
        let line = d.addr.align_down(CACHE_LINE);
        match d.op {
            MemOp::Load => {
                if self.lsq.read_probe(line) {
                    return;
                }
                if self.rmw.warm(line) {
                    self.ait_warm(line, false);
                }
            }
            MemOp::NtStore => {
                if let Some(cw) = self.lsq.warm_write(line) {
                    self.warm_combined(&cw);
                }
            }
            MemOp::Fence => {
                let mut drains = std::mem::take(&mut self.drains);
                self.lsq.flush_into(&mut drains);
                for cw in &drains {
                    self.warm_combined(cw);
                }
                self.drains = drains;
            }
            other => panic!("the engine workloads issue no {other:?} requests"),
        }
    }

    fn warm_combined(&mut self, cw: &CombinedWrite) {
        let missed = self.rmw.warm(cw.block_addr);
        if missed && cw.bytes() < self.rmw.entry_bytes() {
            self.ait_warm(cw.block_addr, false);
        }
        self.ait_warm(cw.block_addr, true);
    }

    // --- NvDimm's datapath, call for call ------------------------------

    fn read_line(&mut self, addr: Addr, t: Time) -> Time {
        let issue = self.imc_op(ImcOp::AllocateRpq(t + self.imc.core_overhead()));
        let arrived = self.imc_op(ImcOp::BusPacket(issue)) + self.imc.protocol_overhead();
        let probe = Time::from_ns(LSQ_READ_PROBE_NS);
        let done = if self.lsq_read_probe(addr) {
            self.imc_op(ImcOp::DataPacket(arrived + probe))
        } else {
            let probed = arrived + probe;
            if let Some(l) = &mut self.logs {
                l.rmw.push(RmwOp::Read(addr, probed));
            }
            let out = self.rmw.read(addr, probed);
            let mut cursor = out.sram_done;
            if out.needs_fill {
                cursor = self.ait_read(addr, self.rmw.entry_bytes(), cursor);
                self.rmw_fill(addr);
            }
            self.imc_op(ImcOp::DataPacket(cursor))
        };
        self.imc_op(ImcOp::CompleteRead(done));
        done
    }

    fn write_line(&mut self, addr: Addr, t: Time) -> Time {
        let issue = t + self.imc.core_overhead();
        if let Some(l) = &mut self.logs {
            l.imc.push(ImcOp::AcceptStore(addr, issue));
        }
        let (durable, must_drain) = self.imc.accept_store(addr, issue);
        if must_drain {
            self.drain_one_wpq_line(issue);
            durable.max(self.imc.drain_free_time())
        } else {
            durable
        }
    }

    fn fence(&mut self, t: Time) -> Time {
        if let Some(l) = &mut self.logs {
            l.imc.push(ImcOp::FenceLines(t));
        }
        let pending = self.imc.fence_lines(t);
        let mut cursor = t;
        for _ in 0..pending {
            if !self.drain_one_wpq_line(cursor) {
                break;
            }
            cursor = cursor.max(self.imc.drain_free_time());
        }
        let mut drains = std::mem::take(&mut self.drains);
        if let Some(l) = &mut self.logs {
            l.lsq.push(LsqOp::Flush);
        }
        self.lsq.flush_into(&mut drains);
        let mut done = cursor.max(self.imc.drain_free_time());
        for cw in &drains {
            done = self.rmw_write(cw, done, true);
        }
        self.drains = drains;
        done
    }

    fn drain_one_wpq_line(&mut self, t: Time) -> bool {
        if let Some(l) = &mut self.logs {
            l.imc.push(ImcOp::PopDrain(t));
        }
        let Some((addr, arrived)) = self.imc.pop_drain(t) else {
            return false;
        };
        if let Some(l) = &mut self.logs {
            l.lsq.push(LsqOp::AcceptWrite(addr, arrived));
        }
        let (accepted, drained) = self.lsq.accept_write(addr, arrived);
        let accepted = match drained {
            Some(cw) => self.rmw_write(&cw, accepted, false),
            None => accepted,
        };
        self.imc_op(ImcOp::DrainAccepted(accepted));
        true
    }

    fn rmw_write(&mut self, cw: &CombinedWrite, t: Time, blocking: bool) -> Time {
        if let Some(l) = &mut self.logs {
            l.rmw.push(RmwOp::Write(cw.block_addr, cw.bytes(), t));
        }
        let out = self.rmw.write(cw.block_addr, cw.bytes(), t);
        let mut cursor = out.sram_done;
        if out.needs_fill {
            cursor = self.ait_read(cw.block_addr, self.rmw.entry_bytes(), cursor);
            self.rmw_fill(cw.block_addr);
        }
        let wdone = self.ait_write(cw.block_addr, cw.bytes(), cursor);
        if blocking {
            wdone
        } else {
            cursor
        }
    }

    // --- logged component calls ----------------------------------------

    fn imc_op(&mut self, op: ImcOp) -> Time {
        if let Some(l) = &mut self.logs {
            l.imc.push(op);
        }
        apply_imc(&mut self.imc, op)
    }

    fn lsq_read_probe(&mut self, addr: Addr) -> bool {
        if let Some(l) = &mut self.logs {
            l.lsq.push(LsqOp::ReadProbe(addr));
        }
        self.lsq.read_probe(addr)
    }

    fn rmw_fill(&mut self, addr: Addr) {
        if let Some(l) = &mut self.logs {
            l.rmw.push(RmwOp::Fill(addr));
        }
        self.rmw.fill(addr);
    }

    fn ait_read(&mut self, addr: Addr, bytes: u32, t: Time) -> Time {
        if let Some(l) = &mut self.logs {
            l.ait.push(AitOp::Read(addr, bytes, t));
        }
        let done = self.ait.read(addr, bytes, t);
        self.shadow_misses += u64::from(self.shadow.read(addr, t) != done);
        done
    }

    fn ait_write(&mut self, addr: Addr, bytes: u32, t: Time) -> Time {
        if let Some(l) = &mut self.logs {
            l.ait.push(AitOp::Write(addr, bytes, t));
        }
        let done = self.ait.write(addr, bytes, t);
        self.shadow_misses += u64::from(self.shadow.write(addr, t) != done);
        done
    }

    fn ait_warm(&mut self, addr: Addr, write: bool) {
        self.ait.warm(addr, write);
        self.shadow.warm(addr, write);
    }
}

fn apply_imc(imc: &mut Imc, op: ImcOp) -> Time {
    match op {
        ImcOp::AllocateRpq(t) => imc.allocate_rpq(t),
        ImcOp::CompleteRead(t) => {
            imc.complete_read(t);
            t
        }
        ImcOp::BusPacket(t) => imc.bus_packet(t),
        ImcOp::DataPacket(t) => imc.data_packet(t),
        ImcOp::AcceptStore(a, t) => imc.accept_store(a, t).0,
        ImcOp::PopDrain(t) => imc.pop_drain(t).map_or(t, |(_, at)| at),
        ImcOp::DrainAccepted(t) => {
            imc.drain_accepted(t);
            t
        }
        ImcOp::FenceLines(t) => {
            black_box(imc.fence_lines(t));
            t
        }
    }
}

fn apply_media(media: &mut XpointMedia, wear: &mut WearTracker, op: MediaOp) -> Option<Time> {
    match op {
        MediaOp::Read(a, n, t) => Some(media.read(a, n, t)),
        MediaOp::Write(a, n, t) => Some(media.write(a, n, t)),
        MediaOp::Copy(s, d, n, t) => Some(media.copy(s, d, n, t)),
        MediaOp::Wear(a) => {
            black_box(wear.record_write(a));
            None
        }
    }
}

/// Component state where a logged stream started: what each isolated
/// replay starts from.
#[derive(Debug)]
pub struct Start {
    imc: Imc,
    lsq: Lsq,
    rmw: Rmw,
    ait: Vec<u8>,
    shadow: ShadowAit,
}

impl Start {
    pub fn capture(d: &ChainedDimm) -> Start {
        Start {
            imc: d.imc.clone(),
            lsq: d.lsq.clone(),
            rmw: d.rmw.clone(),
            ait: save_blob(&d.ait),
            shadow: d.shadow.clone(),
        }
    }
}

/// The layers an isolated replay times.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Layer {
    Imc,
    Lsq,
    Rmw,
    Ait,
    Buffer,
    Dram,
    Media,
}

impl Layer {
    pub const ALL: [Layer; 7] = [
        Layer::Imc,
        Layer::Lsq,
        Layer::Rmw,
        Layer::Ait,
        Layer::Buffer,
        Layer::Dram,
        Layer::Media,
    ];
}

/// What the replays must end with: the integrated DIMM's counters and
/// the shadow's sub-component state after the stream.
#[derive(Debug, Clone)]
pub struct End {
    pub stats: Stats,
    buffers: ((u64, u64), (u64, u64)),
    dram: DramStats,
    media: MediaStats,
    wear: (u64, u64),
}

impl End {
    pub fn new(stats: Stats, d: &ChainedDimm) -> End {
        End {
            stats,
            buffers: (d.shadow.buffer.hit_miss(), d.shadow.tcache.hit_miss()),
            dram: d.shadow.dram.stats(),
            media: d.shadow.media.stats(),
            wear: (
                d.shadow.wear.total_writes(),
                d.shadow.wear.total_migrations(),
            ),
        }
    }
}

/// One timed isolated replay of `layer`'s log. Returns the host seconds
/// spent in the component (the replay minus the same walk over the log
/// without calls) and whether the replay reproduced `end`.
pub fn replay(
    cfg: &VansConfig,
    start: &Start,
    logs: &Logs,
    end: &End,
    layer: Layer,
) -> Result<(f64, bool), ConfigError> {
    fn walk<T: Copy>(log: &[T]) -> f64 {
        let t = Instant::now();
        for op in log {
            black_box(*op);
        }
        t.elapsed().as_secs_f64()
    }
    let s = &end.stats;
    let (secs, ok, empty) = match layer {
        Layer::Imc => {
            let mut imc = start.imc.clone();
            let t = Instant::now();
            for &op in &logs.imc {
                black_box(apply_imc(&mut imc, op));
            }
            let secs = t.elapsed().as_secs_f64();
            (secs, imc.stats() == s.imc, walk(&logs.imc))
        }
        Layer::Lsq => {
            let mut lsq = start.lsq.clone();
            let mut drains = Vec::new();
            let t = Instant::now();
            for &op in &logs.lsq {
                match op {
                    LsqOp::ReadProbe(a) => {
                        black_box(lsq.read_probe(a));
                    }
                    LsqOp::AcceptWrite(a, at) => {
                        black_box(lsq.accept_write(a, at));
                    }
                    LsqOp::Flush => lsq.flush_into(&mut drains),
                }
            }
            let secs = t.elapsed().as_secs_f64();
            (secs, lsq.stats() == s.lsq, walk(&logs.lsq))
        }
        Layer::Rmw => {
            let mut rmw = start.rmw.clone();
            let t = Instant::now();
            for &op in &logs.rmw {
                match op {
                    RmwOp::Read(a, at) => {
                        black_box(rmw.read(a, at));
                    }
                    RmwOp::Write(a, n, at) => {
                        black_box(rmw.write(a, n, at));
                    }
                    RmwOp::Fill(a) => rmw.fill(a),
                }
            }
            let secs = t.elapsed().as_secs_f64();
            (secs, rmw.stats() == s.rmw, walk(&logs.rmw))
        }
        Layer::Ait => {
            let mut ait = build_ait(cfg)?;
            if restore_blob(&mut ait, &start.ait).is_err() {
                return Ok((0.0, false));
            }
            let t = Instant::now();
            for &op in &logs.ait {
                match op {
                    AitOp::Read(a, n, at) => black_box(ait.read(a, n, at)),
                    AitOp::Write(a, n, at) => black_box(ait.write(a, n, at)),
                };
            }
            let secs = t.elapsed().as_secs_f64();
            let ok = ait.stats() == s.ait && ait.media_stats() == s.media;
            (secs, ok, walk(&logs.ait))
        }
        Layer::Buffer => {
            let mut buffer = start.shadow.buffer.clone();
            let mut tcache = start.shadow.tcache.clone();
            let t = Instant::now();
            for &op in &logs.buffer {
                match op {
                    BufOp::Contains { tcache: tc, key } => {
                        black_box(if tc { &tcache } else { &buffer }.contains(key));
                    }
                    BufOp::Touch {
                        tcache: tc,
                        key,
                        write,
                    } => {
                        black_box(if tc { &mut tcache } else { &mut buffer }.touch(key, write));
                    }
                    BufOp::Invalidate { key } => {
                        black_box(tcache.invalidate(key));
                    }
                }
            }
            let secs = t.elapsed().as_secs_f64();
            let ok = (buffer.hit_miss(), tcache.hit_miss()) == end.buffers
                && buffer.hit_miss() == s.buffer;
            (secs, ok, walk(&logs.buffer))
        }
        Layer::Dram => {
            let mut dram = start.shadow.dram.clone();
            let t = Instant::now();
            for &(a, write, at) in &logs.dram {
                black_box(dram.access(a, write, at));
            }
            let secs = t.elapsed().as_secs_f64();
            (secs, dram.stats() == end.dram, walk(&logs.dram))
        }
        Layer::Media => {
            let mut media = start.shadow.media.clone();
            let mut wear = start.shadow.wear.clone();
            let t = Instant::now();
            for &op in &logs.media {
                black_box(apply_media(&mut media, &mut wear, op));
            }
            let secs = t.elapsed().as_secs_f64();
            let ok = media.stats() == end.media
                && media.stats() == s.media
                && (wear.total_writes(), wear.total_migrations()) == end.wear;
            (secs, ok, walk(&logs.media))
        }
    };
    Ok((secs - empty, ok))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Engine, Kind, Shape};
    use nvsim::types::MemoryBackend;

    /// On smoke-sized streams of both engine workloads, the chained
    /// components reproduce the integrated DIMM's counters and completion
    /// times exactly, the AIT shadow reproduces every AIT completion time
    /// and counter, and every isolated replay reproduces its component.
    #[test]
    fn chained_replay_reproduces_the_integrated_dimm() {
        for kind in [Kind::ReadCold, Kind::WriteMix] {
            let shape = Shape::smoke();
            let mut engine = Engine::setup(kind, 7, shape).expect("valid preset");
            let mut chain = ChainedDimm::new(engine.sys.config()).expect("valid preset");
            kind.warmup(7, shape, |d, timed| {
                if timed {
                    chain.execute(d);
                } else {
                    chain.warm(&d);
                }
            });
            assert_eq!(
                chain.stats(),
                Stats::of_dimm(&engine.sys.dimms()[0]),
                "{kind:?} warm-up"
            );
            assert_eq!(chain.now, engine.sys.now());
            let start = Start::capture(&chain);
            chain.start_logging();
            let stream = engine.stream(4096);
            for &d in &stream {
                chain.execute(d);
                engine.sys.execute(d);
            }
            let stats = Stats::of_dimm(&engine.sys.dimms()[0]);
            assert_eq!(chain.stats(), stats, "{kind:?} stream");
            assert_eq!(chain.now, engine.sys.now());
            assert!(
                chain.shadow_agrees(),
                "{kind:?}: {} shadow misses",
                chain.shadow_misses
            );
            let end = End::new(stats, &chain);
            let logs = chain.take_logs();
            assert!(!logs.dram.is_empty() && !logs.buffer.is_empty() && !logs.media.is_empty());
            for layer in Layer::ALL {
                let (_, ok) = replay(engine.sys.config(), &start, &logs, &end, layer).unwrap();
                assert!(ok, "{kind:?}: isolated {layer:?} replay diverged");
            }
        }
    }

    /// The shadow follows wear-leveling migrations: writes hammering one
    /// block migrate it, stall later writes and remap its translations.
    #[test]
    fn the_shadow_follows_migrations() {
        let cfg = VansConfig::optane_1dimm();
        let mut chain = ChainedDimm::new(&cfg).expect("valid preset");
        for i in 0..20_000u64 {
            let addr = Addr::new((i % 64) * 256);
            chain.execute(RequestDesc::nt_store(addr));
            if i % 8 == 7 {
                chain.execute(RequestDesc::fence());
            }
        }
        assert!(chain.ait.stats().migrations > 0, "the stream must migrate");
        assert!(
            chain.shadow_agrees(),
            "{} shadow misses",
            chain.shadow_misses
        );
    }

    #[test]
    fn a_diverging_replay_is_reported() {
        let cfg = VansConfig::optane_1dimm();
        let engine = Engine::setup(Kind::ReadCold, 3, Shape::smoke()).expect("valid preset");
        let mut chain = ChainedDimm::new(&cfg).expect("valid preset");
        let start = Start::capture(&chain);
        chain.start_logging();
        for d in engine.stream(512) {
            chain.execute(d);
        }
        let mut stats = chain.stats();
        stats.lsq.read_forwards += 1;
        let end = End::new(stats, &chain);
        let logs = chain.take_logs();
        let (_, ok) = replay(&cfg, &start, &logs, &end, Layer::Lsq).unwrap();
        assert!(!ok);
        let (_, ok) = replay(&cfg, &start, &logs, &end, Layer::Rmw).unwrap();
        assert!(ok);
    }
}
