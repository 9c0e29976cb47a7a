//! The DRAM timing engine.
//!
//! [`DramModel`] is a stateful timing calculator in the style of fast DRAM
//! simulators: each access is resolved into the command sequence it needs
//! (PRE?/ACT?/RD|WR), the issue time of each command is the maximum over
//! all bank/rank/channel constraints, bank state is updated, and the
//! data-available time is returned. Because all constraint windows are kept
//! as "earliest next allowed" timestamps, the model is exact for the
//! modeled constraint set while remaining O(1) per access.

use crate::bank::{Bank, BankState, RankWindow};
use crate::command::{CommandKind, CommandRecord};
use crate::config::DramConfig;
use crate::mapping::{AddressMapping, DecodedAddr};
use nvsim_types::snapshot::{Snapshot, SnapshotError, SnapshotReader, SnapshotWriter};
use nvsim_types::{Addr, ConfigError, Time};

/// Aggregate statistics exposed by the DRAM model.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DramStats {
    /// Total read accesses.
    pub reads: u64,
    /// Total write accesses.
    pub writes: u64,
    /// Row-buffer hits.
    pub row_hits: u64,
    /// Row-buffer misses (closed row or conflict).
    pub row_misses: u64,
    /// Refresh commands issued.
    pub refreshes: u64,
}

#[derive(Debug, Clone)]
struct Channel {
    banks: Vec<Bank>,
    ranks: Vec<RankWindow>,
    /// Earliest time the shared data bus is free.
    data_bus_free: Time,
    /// Earliest time the command bus is free.
    cmd_bus_free: Time,
    /// End of the most recent write burst (for tWTR).
    last_write_data_end: Time,
    /// Next scheduled refresh.
    next_refresh: Time,
}

/// The timing parameters an access or a refresh reads, each converted
/// from clock cycles once, at construction.
#[derive(Debug, Clone, Copy)]
struct Clocks {
    tck: Time,
    trp: Time,
    trcd: Time,
    tras: Time,
    trc: Time,
    cl: Time,
    cwl: Time,
    burst: Time,
    twr: Time,
    trtp: Time,
    tccd: Time,
    trrd: Time,
    twtr: Time,
    tfaw: Time,
    trfc: Time,
    trefi: Time,
}

impl Clocks {
    fn new(cfg: &DramConfig) -> Self {
        let tck = cfg.clock().period();
        let t = cfg.timings;
        let clocks = |n: u32| tck * u64::from(n);
        Clocks {
            tck,
            trp: clocks(t.trp),
            trcd: clocks(t.trcd),
            tras: clocks(t.tras),
            trc: clocks(t.trc),
            cl: clocks(t.cl),
            cwl: clocks(t.cwl),
            burst: clocks(t.burst_cycles),
            twr: clocks(t.twr),
            trtp: clocks(t.trtp),
            tccd: clocks(t.tccd_l),
            trrd: clocks(t.trrd_l),
            twtr: clocks(t.twtr_l),
            tfaw: clocks(t.tfaw),
            trfc: clocks(t.trfc),
            trefi: clocks(t.trefi),
        }
    }
}

/// The command trace: time-sorted records, kept only when the
/// configuration sets `record_commands`.
#[derive(Debug, Clone)]
struct CommandLog {
    enabled: bool,
    records: Vec<CommandRecord>,
}

impl CommandLog {
    #[inline]
    fn record(&mut self, at: Time, kind: CommandKind, channel: u32, d: &DecodedAddr) {
        if !self.enabled {
            return;
        }
        let rec = CommandRecord {
            at,
            kind,
            channel,
            rank: d.rank,
            bank_group: d.bank_group,
            bank: d.bank,
            row: if kind == CommandKind::Activate {
                d.row
            } else {
                0
            },
            column: match kind {
                CommandKind::Read | CommandKind::Write => d.column,
                _ => 0,
            },
        };
        // Refreshes are evaluated lazily and may be recorded after
        // commands with later issue times; keep the trace time-sorted.
        let pos = self
            .records
            .iter()
            .rposition(|c| c.at <= rec.at)
            .map_or(0, |p| p + 1);
        self.records.insert(pos, rec);
    }
}

/// A cycle-level DRAM timing model.
///
/// # Example
///
/// ```
/// use nvsim_dram::{DramConfig, DramModel};
/// use nvsim_types::{Addr, Time};
///
/// let mut dram = DramModel::new(DramConfig::ddr4_2666_4gb())?;
/// // Row miss: ACT + RD; ~ tRCD + CL + burst.
/// let t1 = dram.access(Addr::new(0), false, Time::ZERO);
/// // Row hit right after: much faster.
/// let t2 = dram.access(Addr::new(4 * 64), false, t1);
/// assert!(t2 - t1 < t1 - Time::ZERO);
/// # Ok::<(), nvsim_types::ConfigError>(())
/// ```
#[derive(Debug, Clone)]
pub struct DramModel {
    // nvsim-lint: allow(snapshot-field-coverage) — construction-time configuration; never mutated.
    cfg: DramConfig,
    // nvsim-lint: allow(snapshot-field-coverage) — derived from `cfg` at construction; immutable address-mapping function.
    mapping: AddressMapping,
    channels: Vec<Channel>,
    stats: DramStats,
    // nvsim-lint: allow(snapshot-field-coverage) — diagnostic command trace, not simulation state; restore clears it.
    trace: CommandLog,
    // nvsim-lint: allow(snapshot-field-coverage) — derived from `cfg` at construction (timings in ps); immutable.
    clocks: Clocks,
}

impl DramModel {
    /// Builds a model from a validated configuration.
    ///
    /// # Errors
    ///
    /// Returns the configuration validation error, if any.
    pub fn new(cfg: DramConfig) -> Result<Self, ConfigError> {
        cfg.validate()?;
        let clocks = Clocks::new(&cfg);
        let org = cfg.organization;
        let channels = (0..org.channels)
            .map(|_| Channel {
                banks: vec![Bank::default(); (org.ranks * org.banks_per_rank()) as usize],
                ranks: vec![RankWindow::default(); org.ranks as usize],
                data_bus_free: Time::ZERO,
                cmd_bus_free: Time::ZERO,
                last_write_data_end: Time::ZERO,
                next_refresh: clocks.trefi,
            })
            .collect();
        Ok(DramModel {
            mapping: AddressMapping::new(&org),
            channels,
            stats: DramStats::default(),
            trace: CommandLog {
                enabled: cfg.record_commands,
                records: Vec::new(),
            },
            clocks,
            cfg,
        })
    }

    /// The model's configuration.
    pub fn config(&self) -> &DramConfig {
        &self.cfg
    }

    /// Aggregate statistics so far.
    pub fn stats(&self) -> DramStats {
        self.stats
    }

    /// The recorded command trace (empty unless `record_commands` is set).
    pub fn trace(&self) -> &[CommandRecord] {
        &self.trace.records
    }

    /// Clears the recorded command trace.
    pub fn clear_trace(&mut self) {
        self.trace.records.clear();
    }

    /// Performs any refreshes due at or before `now` on the channel.
    ///
    /// The first due refresh precharges every open bank (the implicit
    /// PREA, recorded as one PRE per bank) and blocks each rank for tRFC.
    /// Every later refresh in the gap finds the banks precharged, so all
    /// it does is raise each bank's `next_act` and the rank's `next_any`
    /// to its own due time plus tRFC and count one refresh per rank: the
    /// last one's bound covers all of theirs, and they fold into one
    /// step however long the gap.
    #[inline]
    fn maybe_refresh(&mut self, ch: u32, now: Time) {
        let due = self.channels[ch as usize].next_refresh;
        if due > now || !self.cfg.refresh_enabled {
            return;
        }
        self.refresh(ch, now);
    }

    /// The out-of-line body of [`maybe_refresh`](Self::maybe_refresh).
    fn refresh(&mut self, ch: u32, now: Time) {
        let c = self.clocks;
        let org = self.cfg.organization;
        let per_group = org.banks_per_group as usize;
        let trace = &mut self.trace;
        let chan = &mut self.channels[ch as usize];
        let due = chan.next_refresh;
        let ranks = chan
            .ranks
            .iter_mut()
            .zip(chan.banks.chunks_exact_mut(org.banks_per_rank() as usize));
        for (rank, (window, banks)) in (0u32..).zip(ranks) {
            let mut start = due;
            for (bank_group, group) in (0u32..).zip(banks.chunks_exact_mut(per_group)) {
                for (bank, state) in (0u32..).zip(group.iter_mut()) {
                    if matches!(state.state, BankState::Active { .. }) {
                        let pre_at = due.max(state.next_pre);
                        state.state = BankState::Precharged;
                        start = start.max(saturating_add(pre_at, c.trp));
                        let d = DecodedAddr {
                            rank,
                            bank_group,
                            bank,
                            ..Default::default()
                        };
                        trace.record(pre_at, CommandKind::Precharge, ch, &d);
                    }
                }
            }
            let end = saturating_add(start, c.trfc);
            for bank in banks {
                bank.next_act = bank.next_act.max(end);
            }
            window.next_any = window.next_any.max(end);
            let d = DecodedAddr {
                rank,
                ..Default::default()
            };
            trace.record(start, CommandKind::Refresh, ch, &d);
        }
        // The later refreshes due by `now`; `due + later · tREFI ≤ now`.
        let gap = now - due;
        let later = if gap < c.trefi {
            0
        } else {
            gap.as_ps().checked_div(c.trefi.as_ps()).unwrap_or(0)
        };
        let last_due = due + c.trefi * later;
        if later > 0 {
            let end = saturating_add(last_due, c.trfc);
            for bank in &mut chan.banks {
                bank.next_act = bank.next_act.max(end);
            }
            for window in &mut chan.ranks {
                window.next_any = window.next_any.max(end);
            }
            if trace.enabled {
                for k in 1..=later {
                    for rank in 0..org.ranks {
                        let d = DecodedAddr {
                            rank,
                            ..Default::default()
                        };
                        trace.record(due + c.trefi * k, CommandKind::Refresh, ch, &d);
                    }
                }
            }
        }
        chan.next_refresh = saturating_add(last_due, c.trefi);
        self.stats.refreshes += (later + 1) * u64::from(org.ranks);
    }

    /// Simulates one access of `cfg.organization.access_bytes` bytes.
    ///
    /// `earliest` is the first moment the request may occupy the channel
    /// (its arrival at the device). Returns the time the data transfer
    /// completes (read: data at the pins; write: data written into the
    /// sense amps — write recovery is accounted for in subsequent
    /// constraint windows, as on real devices).
    pub fn access(&mut self, addr: Addr, is_write: bool, earliest: Time) -> Time {
        let d = self.mapping.decode(addr);
        self.access_decoded(&d, is_write, earliest)
    }

    /// Like [`access`](Self::access) but takes pre-decoded coordinates.
    pub fn access_decoded(&mut self, d: &DecodedAddr, is_write: bool, earliest: Time) -> Time {
        let c = self.clocks;
        self.maybe_refresh(d.channel, earliest);

        let flat = d.flat_bank(&self.cfg.organization);
        let trace = &mut self.trace;
        let chan = &mut self.channels[d.channel as usize];
        let rank = &mut chan.ranks[d.rank as usize];
        let bank = &mut chan.banks[flat];

        if is_write {
            self.stats.writes += 1;
        } else {
            self.stats.reads += 1;
        }

        let mut cursor = earliest;
        if bank.row_open(d.row) {
            bank.row_hits += 1;
            self.stats.row_hits += 1;
        } else {
            // Row conflict: precharge first if another row is open.
            if matches!(bank.state, BankState::Active { .. }) {
                let pre_at = cursor
                    .max(bank.next_pre)
                    .max(chan.cmd_bus_free)
                    .max(rank.next_any);
                bank.state = BankState::Precharged;
                bank.next_act = bank.next_act.max(pre_at + c.trp);
                chan.cmd_bus_free = pre_at + c.tck;
                trace.record(pre_at, CommandKind::Precharge, d.channel, d);
                cursor = pre_at;
            }
            // Activate the target row.
            let act_at = cursor
                .max(bank.next_act)
                .max(rank.next_act_rank)
                .max(rank.faw_constraint(c.tfaw))
                .max(rank.next_any)
                .max(chan.cmd_bus_free);
            bank.state = BankState::Active { row: d.row };
            bank.last_act = act_at;
            bank.next_read = bank.next_read.max(act_at + c.trcd);
            bank.next_write = bank.next_write.max(act_at + c.trcd);
            bank.next_pre = bank.next_pre.max(act_at + c.tras);
            bank.next_act = bank.next_act.max(act_at + c.trc);
            bank.row_misses += 1;
            rank.record_act(act_at);
            rank.next_act_rank = rank.next_act_rank.max(act_at + c.trrd);
            chan.cmd_bus_free = act_at + c.tck;
            trace.record(act_at, CommandKind::Activate, d.channel, d);
            self.stats.row_misses += 1;
            cursor = act_at;
        }

        // Column command.
        let (col_ready, latency) = if is_write {
            (bank.next_write, c.cwl)
        } else {
            // tWTR: reads must wait after the end of write data.
            (bank.next_read.max(chan.last_write_data_end + c.twtr), c.cl)
        };
        let issue_at = cursor
            .max(col_ready)
            .max(rank.next_any)
            .max(chan.cmd_bus_free)
            // The data bus must be free when our burst starts.
            .max(chan.data_bus_free.saturating_sub(latency));
        let data_done = issue_at + latency + c.burst;
        chan.cmd_bus_free = issue_at + c.tck;
        chan.data_bus_free = chan.data_bus_free.max(data_done);
        // Column-to-column spacing.
        bank.next_read = bank.next_read.max(issue_at + c.tccd);
        bank.next_write = bank.next_write.max(issue_at + c.tccd);
        let kind = if is_write {
            chan.last_write_data_end = chan.last_write_data_end.max(data_done);
            // Write recovery gates precharge.
            bank.next_pre = bank.next_pre.max(data_done + c.twr);
            CommandKind::Write
        } else {
            bank.next_pre = bank.next_pre.max(issue_at + c.trtp);
            CommandKind::Read
        };
        trace.record(issue_at, kind, d.channel, d);
        data_done
    }

    /// Convenience: latency of a single isolated read from the idle state
    /// starting at `earliest` (ACT + RD + CL + burst).
    pub fn idle_read_latency(&mut self, addr: Addr, earliest: Time) -> Time {
        let done = self.access(addr, false, earliest);
        done - earliest
    }
}

/// `a + b`, or [`Time::MAX`] where that overflows.
fn saturating_add(a: Time, b: Time) -> Time {
    a.checked_add(b).unwrap_or(Time::MAX)
}

/// Section tag of [`DramModel`] snapshots.
const SECTION_DRAM: u16 = 0x10;

impl Snapshot for Channel {
    fn save(&self, w: &mut SnapshotWriter) {
        w.put_usize(self.banks.len());
        for bank in &self.banks {
            bank.save(w);
        }
        w.put_usize(self.ranks.len());
        for rank in &self.ranks {
            rank.save(w);
        }
        w.put_time(self.data_bus_free);
        w.put_time(self.cmd_bus_free);
        w.put_time(self.last_write_data_end);
        w.put_time(self.next_refresh);
    }

    fn restore(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        if r.get_usize()? != self.banks.len() {
            return Err(r.invalid("bank count differs from this organization"));
        }
        for bank in &mut self.banks {
            bank.restore(r)?;
        }
        if r.get_usize()? != self.ranks.len() {
            return Err(r.invalid("rank count differs from this organization"));
        }
        for rank in &mut self.ranks {
            rank.restore(r)?;
        }
        self.data_bus_free = r.get_time()?;
        self.cmd_bus_free = r.get_time()?;
        self.last_write_data_end = r.get_time()?;
        self.next_refresh = r.get_time()?;
        Ok(())
    }
}

impl Snapshot for DramModel {
    fn save(&self, w: &mut SnapshotWriter) {
        w.section(SECTION_DRAM);
        w.put_usize(self.channels.len());
        for ch in &self.channels {
            ch.save(w);
        }
        w.put_u64(self.stats.reads);
        w.put_u64(self.stats.writes);
        w.put_u64(self.stats.row_hits);
        w.put_u64(self.stats.row_misses);
        w.put_u64(self.stats.refreshes);
    }

    fn restore(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        r.expect_section(SECTION_DRAM)?;
        if r.get_usize()? != self.channels.len() {
            return Err(r.invalid("channel count differs from this organization"));
        }
        for ch in &mut self.channels {
            ch.restore(r)?;
        }
        self.stats.reads = r.get_u64()?;
        self.stats.writes = r.get_u64()?;
        self.stats.row_hits = r.get_u64()?;
        self.stats.row_misses = r.get_u64()?;
        self.stats.refreshes = r.get_u64()?;
        // The recorded command trace is a diagnostic artifact, not
        // simulation state; a restored model starts with an empty trace.
        self.trace.records.clear();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DramConfig;

    fn model() -> DramModel {
        let mut cfg = DramConfig::ddr4_2666_4gb();
        cfg.refresh_enabled = false;
        DramModel::new(cfg).expect("valid preset")
    }

    #[test]
    fn idle_read_latency_is_act_rcd_cl_burst() {
        let mut m = model();
        let t = m.config().timings;
        let tck = m.config().clock().period();
        let expected = tck * (t.trcd + t.cl + t.burst_cycles) as u64;
        let lat = m.idle_read_latency(Addr::new(0), Time::ZERO);
        assert_eq!(lat, expected);
    }

    #[test]
    fn row_hit_is_faster_than_miss() {
        let mut m = model();
        let t0 = Time::ZERO;
        let t1 = m.access(Addr::new(0), false, t0);
        let miss_lat = t1 - t0;
        // Same row (stride by channels * access_bytes keeps channel & row).
        let t2 = m.access(Addr::new(4 * 64), false, t1);
        let hit_lat = t2 - t1;
        assert!(hit_lat < miss_lat, "hit {hit_lat} !< miss {miss_lat}");
    }

    #[test]
    fn row_conflict_pays_precharge() {
        let mut m = model();
        let t1 = m.access(Addr::new(0), false, Time::ZERO);
        let hit_done = m.access(Addr::new(4 * 64), false, t1);
        let hit_lat = hit_done - t1;
        // Different row, same bank: row index changes with the high bits.
        let org = m.config().organization;
        let row_stride = 64u64
            * org.channels as u64
            * org.columns as u64
            * org.bank_groups as u64
            * org.banks_per_group as u64
            * org.ranks as u64;
        let conflict_done = m.access(Addr::new(row_stride), false, hit_done);
        let conflict_lat = conflict_done - hit_done;
        assert!(
            conflict_lat > hit_lat * 2,
            "conflict {conflict_lat} vs hit {hit_lat}"
        );
    }

    #[test]
    fn writes_then_read_pay_wtr() {
        let mut m = model();
        let w = m.access(Addr::new(0), true, Time::ZERO);
        let r_done = m.access(Addr::new(4 * 64), false, w);
        // Read after write on same channel must be at least tWTR after
        // write data end.
        let t = m.config().timings;
        let min_gap = m.config().clock().cycles_to_time(t.twtr_l as u64);
        assert!(r_done - w >= min_gap);
    }

    #[test]
    fn stats_count_hits_and_misses() {
        let mut m = model();
        let mut now = Time::ZERO;
        now = m.access(Addr::new(0), false, now);
        now = m.access(Addr::new(4 * 64), false, now);
        let _ = m.access(Addr::new(8 * 64), false, now);
        let s = m.stats();
        assert_eq!(s.reads, 3);
        assert_eq!(s.row_misses, 1);
        assert_eq!(s.row_hits, 2);
    }

    #[test]
    fn trace_recorded_when_enabled() {
        let mut cfg = DramConfig::ddr4_2666_4gb();
        cfg.record_commands = true;
        cfg.refresh_enabled = false;
        let mut m = DramModel::new(cfg).unwrap();
        let done = m.access(Addr::new(0), false, Time::ZERO);
        let _ = m.access(Addr::new(4 * 64), true, done);
        let kinds: Vec<_> = m.trace().iter().map(|c| c.kind).collect();
        assert_eq!(
            kinds,
            vec![CommandKind::Activate, CommandKind::Read, CommandKind::Write]
        );
        m.clear_trace();
        assert!(m.trace().is_empty());
    }

    #[test]
    fn refresh_blocks_the_rank() {
        let mut cfg = DramConfig::ddr4_2666_4gb();
        cfg.refresh_enabled = true;
        cfg.record_commands = true;
        let mut m = DramModel::new(cfg).unwrap();
        let trefi = m
            .config()
            .clock()
            .cycles_to_time(m.config().timings.trefi as u64);
        // Arrive just after the first refresh is due.
        let arrival = trefi + Time::from_ns(1);
        let done = m.access(Addr::new(0), false, arrival);
        let trfc = m
            .config()
            .clock()
            .cycles_to_time(m.config().timings.trfc as u64);
        assert!(done >= trefi + trfc, "access must wait out tRFC");
        assert!(m.trace().iter().any(|c| c.kind == CommandKind::Refresh));
        assert!(m.stats().refreshes > 0);
    }

    #[test]
    fn different_banks_overlap() {
        let mut m = model();
        // Two accesses to different banks issued at the same time should
        // finish closer together than two serialized same-bank conflicts.
        let a_done = m.access(Addr::new(0), false, Time::ZERO);
        // Different bank: stride by channels*columns*64.
        let org = m.config().organization;
        let bank_stride = 64u64 * org.channels as u64 * org.columns as u64;
        let b_done = m.access(Addr::new(bank_stride), false, Time::ZERO);
        let span = b_done.max(a_done) - Time::ZERO;
        let serial = (a_done - Time::ZERO) * 2;
        assert!(span < serial, "bank parallelism should overlap accesses");
    }

    #[test]
    fn snapshot_restore_continues_identically() {
        use nvsim_types::snapshot::{restore_blob, save_blob};
        let mut m = model();
        let mut now = Time::ZERO;
        for i in 0..50u64 {
            now = m.access(Addr::new(i * 64 * 97 % (1 << 24)), i % 3 == 0, now);
        }
        let blob = save_blob(&m);
        let mut copy = model();
        restore_blob(&mut copy, &blob).unwrap();
        assert_eq!(copy.stats(), m.stats());
        for i in 0..50u64 {
            let a = Addr::new(i * 64 * 131 % (1 << 24));
            let t1 = m.access(a, i % 2 == 0, now);
            let t2 = copy.access(a, i % 2 == 0, now);
            assert_eq!(t1, t2, "divergence at access {i}");
            now = t1;
        }
        assert_eq!(save_blob(&m), save_blob(&copy));
    }

    #[test]
    fn snapshot_rejects_wrong_organization() {
        use nvsim_types::snapshot::{restore_blob, save_blob};
        let m = model();
        let blob = save_blob(&m);
        let mut other_cfg = DramConfig::ddr4_2666_4gb();
        other_cfg.refresh_enabled = false;
        other_cfg.organization.channels *= 2;
        if let Ok(mut other) = DramModel::new(other_cfg) {
            assert!(restore_blob(&mut other, &blob).is_err());
        }
    }

    /// The refresh loop the folded catch-up replaced: every due refresh
    /// in turn precharges the open banks, then blocks each rank for tRFC.
    fn reference_refresh(m: &mut DramModel, ch: u32, now: Time) {
        let ch_idx = ch as usize;
        if !m.cfg.refresh_enabled {
            return;
        }
        let trefi = m.clocks.trefi;
        let trfc = m.clocks.trfc;
        let trp = m.clocks.trp;
        loop {
            let due = m.channels[ch_idx].next_refresh;
            if due > now {
                break;
            }
            let org = m.cfg.organization;
            for rank in 0..org.ranks {
                let mut start = due;
                let mut pres: Vec<(Time, DecodedAddr)> = Vec::new();
                {
                    let chan = &mut m.channels[ch_idx];
                    for b in 0..org.banks_per_rank() {
                        let flat = (rank * org.banks_per_rank() + b) as usize;
                        let bank = &mut chan.banks[flat];
                        if matches!(bank.state, BankState::Active { .. }) {
                            let pre_at = due.max(bank.next_pre);
                            bank.state = BankState::Precharged;
                            bank.next_act = bank.next_act.max(pre_at + trp);
                            start = start.max(pre_at + trp);
                            pres.push((
                                pre_at,
                                DecodedAddr {
                                    rank,
                                    bank_group: b / org.banks_per_group,
                                    bank: b % org.banks_per_group,
                                    ..Default::default()
                                },
                            ));
                        }
                    }
                }
                for (pre_at, d) in pres {
                    m.trace.record(pre_at, CommandKind::Precharge, ch, &d);
                }
                let end = start + trfc;
                let chan = &mut m.channels[ch_idx];
                for b in 0..org.banks_per_rank() {
                    let bank = &mut chan.banks[(rank * org.banks_per_rank() + b) as usize];
                    bank.state = BankState::Precharged;
                    bank.next_act = bank.next_act.max(end);
                }
                chan.ranks[rank as usize].next_any = chan.ranks[rank as usize].next_any.max(end);
                let rec = DecodedAddr {
                    rank,
                    ..Default::default()
                };
                m.trace.record(start, CommandKind::Refresh, ch, &rec);
                m.stats.refreshes += 1;
            }
            m.channels[ch_idx].next_refresh = due + trefi;
        }
    }

    #[test]
    fn folded_refresh_matches_one_at_a_time_reference() {
        use nvsim_types::snapshot::save_blob;
        use nvsim_types::DetRng;
        let mut rng = DetRng::seed_from(0x2ef);
        let mut refreshes = 0;
        for record in [false, true] {
            for case in 0..60u64 {
                let mut cfg = DramConfig::ddr4_2666_4gb();
                cfg.organization.channels = 2;
                cfg.organization.ranks = 1 << (case % 3);
                cfg.record_commands = record;
                let mut m = DramModel::new(cfg).unwrap();
                let trefi = m.clocks.trefi;
                // Random open rows and ACT windows, some accesses landing
                // just before a refresh falls due so its PREs wait on
                // tRAS and write recovery.
                let cap = m.cfg.organization.capacity_bytes();
                let mut now = Time::from_ps(rng.range_u64(0, 3 * trefi.as_ps()));
                for _ in 0..rng.range_u64(0, 80) {
                    let addr = Addr::new(rng.range_u64(0, cap) & !63);
                    m.access(addr, rng.chance(0.4), now);
                    now += Time::from_ps(rng.range_u64(0, 400_000));
                }
                for ch in 0..2 {
                    let gap = rng.range_u64(0, 201);
                    let due = m.channels[ch as usize].next_refresh;
                    let at = if gap == 0 && rng.chance(0.5) {
                        due.saturating_sub(Time::from_ps(1))
                    } else {
                        due + trefi * gap + Time::from_ps(rng.range_u64(0, trefi.as_ps()))
                    };
                    let mut folded = m.clone();
                    folded.maybe_refresh(ch, at);
                    reference_refresh(&mut m, ch, at);
                    assert_eq!(folded.stats(), m.stats(), "case {case} ch {ch} gap {gap}");
                    assert_eq!(save_blob(&folded), save_blob(&m), "case {case} gap {gap}");
                    assert_eq!(folded.trace(), m.trace(), "case {case} gap {gap}");
                    // Both continue identically.
                    let addr = Addr::new(rng.range_u64(0, cap) & !63);
                    assert_eq!(folded.access(addr, false, at), m.access(addr, false, at));
                    assert_eq!(save_blob(&folded), save_blob(&m));
                }
                refreshes += m.stats().refreshes;
            }
        }
        assert!(refreshes > 10_000, "{refreshes} refreshes");
    }

    #[test]
    fn refresh_near_the_end_of_time_saturates() {
        let mut m = DramModel::new(DramConfig::ddr4_2666_4gb()).unwrap();
        m.access(Addr::new(0), true, Time::ZERO);
        for now in [
            Time::from_ps(1 << 62),
            Time::from_ps(u64::MAX - 1),
            Time::MAX,
        ] {
            m.maybe_refresh(0, now);
            assert!(m.channels[0].next_refresh > now || now == Time::MAX);
        }
        assert!(m.stats().refreshes > (1 << 62) / m.clocks.trefi.as_ps());
        assert_eq!(m.channels[0].banks[0].next_act, Time::MAX);
    }

    #[test]
    fn invalid_config_rejected() {
        let mut cfg = DramConfig::ddr4_2666_4gb();
        cfg.timings.burst_cycles = 0;
        assert!(DramModel::new(cfg).is_err());
    }
}
