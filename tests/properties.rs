//! Property-based tests (proptest) over core invariants: timing
//! monotonicity, routing bijectivity, buffer bounds, wear-tracker
//! behaviour, and checker soundness under random traffic.

#![expect(
    clippy::disallowed_types,
    reason = "test code: membership sets only, never iterated"
)]

use nvsim::dram::{DramConfig, DramModel, ProtocolChecker};
use nvsim::media::{MediaAddr, MediaConfig, WearConfig, WearTracker, XpointMedia};
use nvsim::prelude::*;
use nvsim::vans::buffer::LruBuffer;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Completion times never precede submission for any request mix.
    #[test]
    fn vans_completions_after_submission(
        ops in prop::collection::vec((0u64..(1 << 22), 0u8..3), 1..120)
    ) {
        let mut sys = MemorySystem::new(VansConfig::tiny_for_tests()).unwrap();
        for (raw, kind) in ops {
            let addr = Addr::new(raw & !63);
            let desc = match kind {
                0 => RequestDesc::load(addr),
                1 => RequestDesc::nt_store(addr),
                _ => RequestDesc::store(addr),
            };
            let before = sys.now();
            let done = sys.execute(desc);
            prop_assert!(done >= before);
        }
        let c = sys.counters();
        prop_assert!(c.bus_reads + c.bus_writes >= 1);
    }

    /// The interleaver is a bijection: distinct physical addresses never
    /// collide on (dimm, local address).
    #[test]
    fn routing_is_injective(
        addrs in prop::collection::hash_set(0u64..(1 << 30), 1..200),
        dimms in 1u32..8,
    ) {
        let mut cfg = VansConfig::tiny_for_tests();
        cfg.interleave.dimms = dimms;
        let sys = MemorySystem::new(cfg).unwrap();
        let mut seen = std::collections::HashSet::new();
        for a in addrs {
            let (d, local) = sys.route(Addr::new(a));
            prop_assert!((d as u32) < dimms);
            prop_assert!(seen.insert((d, local.raw())), "collision for {a:#x}");
        }
    }

    /// LRU buffers never exceed capacity and never evict without being
    /// full.
    #[test]
    fn lru_buffer_bounds(
        capacity in 1usize..32,
        keys in prop::collection::vec((0u64..64, any::<bool>()), 1..400),
    ) {
        let mut b = LruBuffer::new(capacity);
        for (k, w) in keys {
            let before = b.len();
            let (_, evicted) = b.touch(k, w);
            if evicted.is_some() {
                prop_assert_eq!(before, capacity, "eviction from non-full buffer");
            }
            prop_assert!(b.len() <= capacity);
        }
    }

    /// The wear tracker triggers if and only if a block sustains a
    /// majority of the traffic: uniform traffic over >= 2 blocks never
    /// migrates; single-block traffic migrates once per threshold.
    #[test]
    fn wear_tracker_majority_property(
        blocks in 2u64..8,
        rounds in 1u64..40,
    ) {
        let mut cfg = WearConfig::optane_like();
        cfg.threshold = 50;
        let mut w = WearTracker::new(cfg).unwrap();
        for i in 0..(rounds * 50) {
            let block = i % blocks;
            let ev = w.record_write(MediaAddr::new(block * 64 * 1024));
            prop_assert_eq!(ev, nvsim::media::WearEvent::None);
        }
        // Now hammer one block: it must migrate within 2x threshold.
        let mut migrated = false;
        for _ in 0..100 {
            if w.record_write(MediaAddr::new(0)) != nvsim::media::WearEvent::None {
                migrated = true;
                break;
            }
        }
        prop_assert!(migrated);
    }

    /// Media timing: completion monotone in the earliest-start argument,
    /// and amplification counters exact.
    #[test]
    fn media_timing_monotone(
        addr in 0u64..(1 << 20),
        size in 1u32..2048,
        delay_ns in 0u64..1000,
    ) {
        let mut m1 = XpointMedia::new(MediaConfig::optane_like()).unwrap();
        let mut m2 = XpointMedia::new(MediaConfig::optane_like()).unwrap();
        let a = MediaAddr::new(addr);
        let t1 = m1.read(a, size, Time::ZERO);
        let t2 = m2.read(a, size, Time::from_ns(delay_ns));
        prop_assert!(t2 >= t1);
        let units = (addr + size as u64 - 1) / 256 - addr / 256 + 1;
        prop_assert_eq!(m1.stats().units_read, units);
    }

    /// Random DRAM traffic never generates an illegal DDR4 command.
    #[test]
    fn dram_traces_always_legal(
        seeds in prop::collection::vec((0u64..(1 << 28), any::<bool>()), 10..150),
    ) {
        let mut cfg = DramConfig::ddr4_2666_4gb();
        cfg.record_commands = true;
        let mut model = DramModel::new(cfg.clone()).unwrap();
        let mut now = Time::ZERO;
        for (raw, write) in seeds {
            now = model.access(Addr::new(raw & !63), write, now);
        }
        let violations = ProtocolChecker::new(cfg).check(model.trace());
        prop_assert!(violations.is_empty(), "violation: {}", violations[0]);
    }

    /// Pointer-chasing latency is monotone (within tolerance) in region
    /// size on the analytical reference model.
    #[test]
    fn reference_curves_monotone(dimms in 1u32..8) {
        let m = nvsim::optane_model::OptaneReference::new();
        let mut prev = 0.0f64;
        for p in 6..=28u32 {
            let lat = m.read_latency_ns(1 << p, dimms);
            prop_assert!(lat >= prev - 1e-9);
            prev = lat;
        }
    }

    /// Deterministic replay: the same seed and request stream give
    /// bit-identical completion times.
    #[test]
    fn vans_is_deterministic(
        ops in prop::collection::vec(0u64..(1 << 20), 1..60),
    ) {
        let run = |ops: &[u64]| -> Vec<u64> {
            let mut sys = MemorySystem::new(VansConfig::tiny_for_tests()).unwrap();
            ops.iter()
                .map(|&a| sys.execute(RequestDesc::load(Addr::new(a & !63))).as_ps())
                .collect()
        };
        prop_assert_eq!(run(&ops), run(&ops));
    }
}
