//! The PMEP-style NVRAM emulator model.
//!
//! PMEP (the Persistent Memory Emulation Platform) emulates NVRAM by
//! stalling the CPU for extra cycles and throttling bandwidth on top of
//! ordinary DRAM. Consequently:
//!
//! * latency per cache line is *flat* across pointer-chasing region sizes
//!   (Fig 1b, PMEP curve);
//! * regular (cacheable) loads and stores are fast, while non-temporal
//!   stores — which bypass the cache and hit the emulated throttle on
//!   every access — are the slowest write flavor (Fig 1a, PMEP bars),
//!   the *opposite* of real Optane ordering.

use crate::dram_backend::DramBackend;
use nvsim_dram::DramConfig;
use nvsim_types::snapshot::{
    restore_blob, save_blob, Snapshot, SnapshotError, SnapshotReader, SnapshotWriter,
};
use nvsim_types::{
    BackendCounters, BackendError, ConfigError, InFlight, MemOp, MemoryBackend, ReqId, RequestDesc,
    Time,
};
use serde::{Deserialize, Serialize};

/// PMEP emulation parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PmepConfig {
    /// Extra latency injected on every load that reaches memory.
    pub extra_read_latency: Time,
    /// Extra latency injected on every store that reaches memory.
    pub extra_write_latency: Time,
    /// Bandwidth throttle for regular (cached) stores, GB/s.
    pub store_throttle_gbps: f64,
    /// Bandwidth throttle for store+clwb traffic, GB/s.
    pub clwb_throttle_gbps: f64,
    /// Bandwidth throttle applied to non-temporal traffic, GB/s.
    pub nt_throttle_gbps: f64,
}

impl PmepConfig {
    /// The configuration used for Fig 1's PMEP bars: emulated NVRAM read
    /// latency ~165 ns total, and per-flavor write throttles that give
    /// PMEP's characteristic ordering `ld > st > st-clwb > st-nt` — the
    /// one real Optane inverts.
    pub fn paper() -> Self {
        PmepConfig {
            extra_read_latency: Time::from_ns(crate::params::PMEP_EXTRA_READ_NS),
            extra_write_latency: Time::from_ns(crate::params::PMEP_EXTRA_WRITE_NS),
            store_throttle_gbps: 3.5,
            clwb_throttle_gbps: 2.2,
            nt_throttle_gbps: 1.8,
        }
    }
}

/// The PMEP backend: DRAM + injected delay + NT throttle.
#[derive(Debug)]
pub struct PmepBackend {
    inner: DramBackend,
    // nvsim-lint: allow(snapshot-field-coverage) — construction-time configuration; never mutated.
    cfg: PmepConfig,
    /// Token-bucket state per write flavor (store / clwb / nt).
    throttle_free: [Time; 3],
    /// Completion times including the injected delay.
    in_flight: InFlight,
}

impl PmepBackend {
    /// Creates a PMEP emulator over DDR4 DRAM.
    ///
    /// # Errors
    ///
    /// Returns the DRAM configuration validation error, if any.
    pub fn new(cfg: PmepConfig) -> Result<Self, ConfigError> {
        let mut dram_cfg = DramConfig::ddr4_2666_4gb();
        dram_cfg.name = "PMEP-DDR4".to_owned();
        Ok(PmepBackend {
            inner: DramBackend::new(dram_cfg)?,
            cfg,
            throttle_free: [Time::ZERO; 3],
            in_flight: InFlight::default(),
        })
    }

    fn throttle(&mut self, slot: usize, gbps: f64, size: u32) -> Time {
        let interval = Time::from_ns_f64(size as f64 / gbps);
        let start = self.inner.now().max(self.throttle_free[slot]);
        self.throttle_free[slot] = start + interval;
        self.throttle_free[slot] - self.inner.now()
    }

    fn extra_for(&mut self, desc: &RequestDesc) -> Time {
        match desc.op {
            MemOp::Load => self.cfg.extra_read_latency,
            MemOp::Fence => Time::ZERO,
            MemOp::Store => {
                let wait = self.throttle(0, self.cfg.store_throttle_gbps, desc.size);
                self.cfg.extra_write_latency + wait
            }
            MemOp::StoreClwb => {
                let wait = self.throttle(1, self.cfg.clwb_throttle_gbps, desc.size);
                self.cfg.extra_write_latency + wait
            }
            MemOp::NtStore => {
                let wait = self.throttle(2, self.cfg.nt_throttle_gbps, desc.size);
                self.cfg.extra_write_latency + wait
            }
        }
    }
}

impl MemoryBackend for PmepBackend {
    fn label(&self) -> String {
        "PMEP".to_owned()
    }

    fn now(&self) -> Time {
        self.inner.now()
    }

    fn submit(&mut self, desc: RequestDesc) -> ReqId {
        let extra = self.extra_for(&desc);
        let id = self.inner.submit(desc);
        // Push the completion out by the injected delay (without
        // advancing the clock, so independent requests overlap).
        let done = self.inner.expect_completion(id);
        self.in_flight.push(id, done + extra);
        id
    }

    fn try_take_completion(&mut self, id: ReqId) -> Result<Time, BackendError> {
        self.in_flight.take(id)
    }

    fn drain(&mut self) -> Time {
        let last = self.in_flight.drain(self.inner.now());
        self.inner.skip_to(last);
        self.inner.now()
    }

    fn skip_to(&mut self, t: Time) {
        self.inner.skip_to(t);
    }

    fn counters(&self) -> BackendCounters {
        self.inner.counters()
    }

    fn reset_counters(&mut self) {
        self.inner.reset_counters();
    }

    fn save_snapshot(&self) -> Option<Vec<u8>> {
        Some(save_blob(self))
    }

    fn restore_snapshot(&mut self, blob: &[u8]) -> Result<bool, SnapshotError> {
        restore_blob(self, blob)?;
        Ok(true)
    }
}

/// Section tag of [`PmepBackend`] snapshots.
const SECTION_PMEP: u16 = 0x62;

impl Snapshot for PmepBackend {
    fn save(&self, w: &mut SnapshotWriter) {
        w.section(SECTION_PMEP);
        self.inner.save(w);
        for &t in &self.throttle_free {
            w.put_time(t);
        }
        self.in_flight.save(w);
    }

    fn restore(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        r.expect_section(SECTION_PMEP)?;
        self.inner.restore(r)?;
        for t in &mut self.throttle_free {
            *t = r.get_time()?;
        }
        // Ids come from the inner backend.
        self.in_flight.restore(r)?;
        self.in_flight.check_issued(self.inner.next_id(), r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvsim_types::Addr;

    fn pmep() -> PmepBackend {
        PmepBackend::new(PmepConfig::paper()).unwrap()
    }

    #[test]
    fn read_latency_is_flat_across_regions() {
        let avg = |region: u64| -> f64 {
            let mut sim = pmep();
            let lines = (region / 64).min(2048);
            let mut sum = Time::ZERO;
            let mut idx = 0u64;
            for _ in 0..lines {
                let a = Addr::new((idx % (region / 64)) * 64);
                let before = sim.now();
                let done = sim.execute(RequestDesc::load(a));
                sum += done - before;
                idx += 7919;
            }
            sum.as_ns_f64() / lines as f64
        };
        let small = avg(4 << 10);
        let large = avg(128 << 20);
        assert!(
            (large / small) < 1.5,
            "PMEP should be flat: {small:.0} vs {large:.0}"
        );
    }

    #[test]
    fn reads_pay_injected_latency() {
        let mut sim = pmep();
        let done = sim.execute(RequestDesc::load(Addr::new(0)));
        assert!(done >= Time::from_ns(100));
    }

    #[test]
    fn nt_store_is_slowest_write_flavor() {
        // Stream 64 writes of each flavor and compare total time.
        let total = |op: MemOp| -> Time {
            let mut sim = pmep();
            for i in 0..64u64 {
                sim.submit(RequestDesc::new(Addr::new(i * 64), 64, op));
            }
            sim.drain()
        };
        let st = total(MemOp::Store);
        let nt = total(MemOp::NtStore);
        assert!(nt > st, "PMEP nt-stores must be slower: st {st}, nt {nt}");
    }

    #[test]
    fn fence_is_cheap() {
        let mut sim = pmep();
        let t0 = sim.now();
        let t1 = sim.fence();
        assert!(t1 - t0 < Time::from_ns(5));
    }

    #[test]
    fn snapshot_roundtrip_continues_identically() {
        let mut a = pmep();
        for i in 0..100u64 {
            a.execute(RequestDesc::new(Addr::new(i * 64), 64, MemOp::NtStore));
            a.execute(RequestDesc::load(Addr::new(i * 4096)));
        }
        let blob = a.save_snapshot().expect("pmep supports snapshots");
        let mut b = pmep();
        b.restore_snapshot(&blob).expect("same configuration");
        for i in 0..50u64 {
            let ta = a.execute(RequestDesc::new(Addr::new(i * 128), 64, MemOp::StoreClwb));
            let tb = b.execute(RequestDesc::new(Addr::new(i * 128), 64, MemOp::StoreClwb));
            assert_eq!(ta, tb);
        }
        assert_eq!(a.counters(), b.counters());
        assert_eq!(a.save_snapshot(), b.save_snapshot());
    }
}
