//! A [`MemoryBackend`] view of the reference model, so LENS can drive the
//! "reference machine" through the same interface as the simulators.
//!
//! The backend serves each request with the analytical latency the curves
//! predict for the *currently observed working set*: it tracks the
//! distinct lines touched recently (an exponential window) and uses that
//! as the region size. This is intentionally simple — the backend exists
//! to validate LENS's analysis pipeline end-to-end (probers must recover
//! the reference knees from it) rather than to re-model the hardware.

use crate::curves::OptaneReference;
use nvsim_types::snapshot::{
    restore_blob, save_blob, Snapshot, SnapshotError, SnapshotReader, SnapshotWriter,
};
use nvsim_types::{
    Addr, BackendCounters, BackendError, InFlight, MemOp, MemoryBackend, ReqId, RequestDesc, Time,
};
use std::collections::BTreeMap;

/// The reference machine as a driveable backend.
#[derive(Debug, Clone)]
pub struct ReferenceBackend {
    // nvsim-lint: allow(snapshot-field-coverage) — immutable analytical model; all mutable backend state lives in the sibling fields.
    model: OptaneReference,
    dimms: u32,
    now: Time,
    next_id: u64,
    in_flight: InFlight,
    counters: BackendCounters,
    /// Footprint tracking: lowest/highest line index seen since reset.
    lo_line: Option<u64>,
    hi_line: Option<u64>,
    /// Bytes written per 64 KB block, for tail emulation (the model's
    /// tail period is expressed in 256 B write iterations).
    block_writes: BTreeMap<u64, u64>,
}

impl ReferenceBackend {
    /// Creates a reference backend for `dimms` interleaved DIMMs.
    pub fn new(model: OptaneReference, dimms: u32) -> Self {
        ReferenceBackend {
            model,
            dimms,
            now: Time::ZERO,
            next_id: 0,
            in_flight: InFlight::default(),
            counters: BackendCounters::default(),
            lo_line: None,
            hi_line: None,
            block_writes: BTreeMap::new(),
        }
    }

    fn observe(&mut self, addr: Addr) -> u64 {
        let line = addr.line_index();
        let lo = self.lo_line.map_or(line, |l| l.min(line));
        let hi = self.hi_line.map_or(line, |h| h.max(line));
        self.lo_line = Some(lo);
        self.hi_line = Some(hi);
        let span_lines = hi - lo + 1;
        span_lines * 64
    }

    fn latency_for(&mut self, desc: &RequestDesc) -> Time {
        match desc.op {
            // Fences carry a dummy address: do not let them pollute the
            // footprint window.
            MemOp::Fence => Time::from_ns(crate::params::FENCE_NS),
            MemOp::Load => {
                let region = self.observe(desc.addr);
                Time::from_ns_f64(self.model.read_latency_ns(region, self.dimms))
            }
            _ => {
                let region = self.observe(desc.addr);
                // Wear-leveling tail emulation: one stall per
                // `tail_period` 256 B-equivalents written to a 64 KB
                // block (the model's period is in 256 B iterations).
                let block = desc.addr.raw() / (64 << 10);
                let bytes = self.block_writes.entry(block).or_insert(0);
                let units_before = *bytes / 256;
                *bytes += desc.size as u64;
                let units_after = *bytes / 256;
                let crossed = units_after / self.model.tail_period_iters
                    > units_before / self.model.tail_period_iters;
                if crossed && region < (64 << 10) {
                    return Time::from_ns_f64(self.model.tail_magnitude_us * 1_000.0);
                }
                Time::from_ns_f64(self.model.write_latency_ns(region, self.dimms))
            }
        }
    }
}

impl MemoryBackend for ReferenceBackend {
    fn label(&self) -> String {
        "Optane-reference".to_owned()
    }

    fn now(&self) -> Time {
        self.now
    }

    fn submit(&mut self, desc: RequestDesc) -> ReqId {
        let id = ReqId(self.next_id);
        self.next_id += 1;
        match desc.op {
            MemOp::Load => {
                self.counters.bus_reads += desc.cache_lines();
                self.counters.bus_bytes_read += desc.size as u64;
            }
            MemOp::Fence => self.counters.fences += 1,
            _ => {
                self.counters.bus_writes += desc.cache_lines();
                self.counters.bus_bytes_written += desc.size as u64;
            }
        }
        let lat = self.latency_for(&desc);
        let done = self.now + lat;
        self.in_flight.push(id, done);
        id
    }

    fn try_take_completion(&mut self, id: ReqId) -> Result<Time, BackendError> {
        self.in_flight.take(id)
    }

    fn drain(&mut self) -> Time {
        self.now = self.in_flight.drain(self.now);
        self.now
    }

    fn skip_to(&mut self, t: Time) {
        self.now = self.now.max(t);
    }

    fn counters(&self) -> BackendCounters {
        self.counters
    }

    fn reset_counters(&mut self) {
        self.counters = BackendCounters::default();
    }

    fn models_persistence_ops(&self) -> bool {
        true
    }

    fn save_snapshot(&self) -> Option<Vec<u8>> {
        Some(save_blob(self))
    }

    fn restore_snapshot(&mut self, blob: &[u8]) -> Result<bool, SnapshotError> {
        restore_blob(self, blob)?;
        Ok(true)
    }

    fn warm_access(&mut self, desc: &RequestDesc) {
        // The analytical model's only history is the footprint window and
        // the per-block write totals; advance those without timing.
        match desc.op {
            MemOp::Fence => {}
            MemOp::Load => {
                self.observe(desc.addr);
            }
            _ => {
                self.observe(desc.addr);
                let block = desc.addr.raw() / (64 << 10);
                *self.block_writes.entry(block).or_insert(0) += desc.size as u64;
            }
        }
    }
}

/// Section tag of [`ReferenceBackend`] snapshots.
const SECTION_REFERENCE: u16 = 0x60;

impl Snapshot for ReferenceBackend {
    fn save(&self, w: &mut SnapshotWriter) {
        w.section(SECTION_REFERENCE);
        w.put_u32(self.dimms);
        w.put_time(self.now);
        w.put_u64(self.next_id);
        self.in_flight.save(w);
        self.counters.save(w);
        w.put_bool(self.lo_line.is_some());
        w.put_u64(self.lo_line.unwrap_or(0));
        w.put_bool(self.hi_line.is_some());
        w.put_u64(self.hi_line.unwrap_or(0));
        w.put_usize(self.block_writes.len());
        for (&block, &bytes) in &self.block_writes {
            w.put_u64(block);
            w.put_u64(bytes);
        }
    }

    fn restore(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        r.expect_section(SECTION_REFERENCE)?;
        let dimms = r.get_u32()?;
        if dimms != self.dimms {
            return Err(r.invalid("DIMM count differs from this configuration"));
        }
        self.now = r.get_time()?;
        self.next_id = r.get_u64()?;
        self.in_flight.restore(r)?;
        self.in_flight.check_issued(self.next_id, r)?;
        self.counters.restore(r)?;
        let has_lo = r.get_bool()?;
        let lo = r.get_u64()?;
        self.lo_line = has_lo.then_some(lo);
        let has_hi = r.get_bool()?;
        let hi = r.get_u64()?;
        self.hi_line = has_hi.then_some(hi);
        let b = r.get_usize()?;
        if b > r.remaining() {
            return Err(r.invalid("block-write count exceeds the blob"));
        }
        self.block_writes.clear();
        for _ in 0..b {
            let block = r.get_u64()?;
            let bytes = r.get_u64()?;
            self.block_writes.insert(block, bytes);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn backend() -> ReferenceBackend {
        ReferenceBackend::new(OptaneReference::new(), 1)
    }

    #[test]
    fn small_footprint_reads_are_fast() {
        let mut b = backend();
        let mut now = Time::ZERO;
        let mut last_lat = Time::ZERO;
        for i in 0..16u64 {
            let before = now;
            now = b.execute(RequestDesc::load(Addr::new(i * 64 % 1024)));
            last_lat = now - before;
        }
        assert!(last_lat < Time::from_ns(120), "{last_lat}");
    }

    #[test]
    fn widening_footprint_slows_reads() {
        let mut b = backend();
        b.execute(RequestDesc::load(Addr::new(0)));
        let t0 = b.now();
        let t1 = b.execute(RequestDesc::load(Addr::new(128 << 20)));
        assert!(t1 - t0 > Time::from_ns(250));
    }

    #[test]
    fn overwrite_tail_appears_on_schedule() {
        let mut model = OptaneReference::new();
        model.tail_period_iters = 100;
        let mut b = ReferenceBackend::new(model, 1);
        let mut tails = 0;
        let mut now = Time::ZERO;
        // The tail period is counted in 256 B write iterations.
        for _ in 0..1000 {
            let before = now;
            now = b.execute(RequestDesc::new(Addr::new(0), 256, MemOp::NtStore));
            if now - before > Time::from_us(10) {
                tails += 1;
            }
        }
        assert_eq!(tails, 10);
    }

    #[test]
    fn counters_accumulate() {
        let mut b = backend();
        b.execute(RequestDesc::load(Addr::new(0)));
        b.execute(RequestDesc::nt_store(Addr::new(64)));
        b.fence();
        let c = b.counters();
        assert_eq!((c.bus_reads, c.bus_writes, c.fences), (1, 1, 1));
    }

    #[test]
    fn snapshot_roundtrip_continues_identically() {
        let mut a = backend();
        for i in 0..50u64 {
            a.execute(RequestDesc::load(Addr::new(i * 4096)));
            a.execute(RequestDesc::nt_store(Addr::new(i * 256)));
        }
        let blob = a.save_snapshot().expect("reference supports snapshots");
        let mut b = backend();
        b.restore_snapshot(&blob).expect("same configuration");
        for i in 0..30u64 {
            let ta = a.execute(RequestDesc::nt_store(Addr::new(i * 512)));
            let tb = b.execute(RequestDesc::nt_store(Addr::new(i * 512)));
            assert_eq!(ta, tb);
        }
        assert_eq!(a.counters(), b.counters());
        assert_eq!(a.save_snapshot(), b.save_snapshot());
    }

    #[test]
    fn warm_access_advances_footprint_without_time() {
        let mut warm = backend();
        warm.warm_access(&RequestDesc::load(Addr::new(0)));
        warm.warm_access(&RequestDesc::load(Addr::new(128 << 20)));
        assert_eq!(warm.now(), Time::ZERO);
        // The widened footprint now makes the first timed read slow.
        let t0 = warm.now();
        let t1 = warm.execute(RequestDesc::load(Addr::new(64)));
        assert!(t1 - t0 > Time::from_ns(250));
    }
}
