//! End-to-end checkpoint/restore properties over the whole backend
//! matrix: restore-then-run must be indistinguishable — byte-identical
//! trace JSONL, equal counters, byte-identical final snapshots — from
//! straight-through execution, for every [`BackendKind`], including a
//! mid-flight cut with non-empty WPQ/RMW/AIT-migration state; and old
//! or corrupt blobs must fail with a clean error, never garbage state.

use nvsim::backends::build_backend;
use nvsim::prelude::*;
use nvsim::types::snapshot::{restore_blob, save_blob, SnapshotErrorKind, MAGIC, VERSION};
use nvsim::types::trace::JsonlSink;
use nvsim::types::DetRng;
use nvsim::vans::{LazyCacheConfig, MemorySystem, PreTranslationConfig, VansConfig};
use proptest::prelude::*;
use std::io;
use std::sync::{Arc, Mutex};

/// A writer that shares its bytes with the test body (`Arc<Mutex<..>>`
/// because `TraceSink`, and hence `JsonlSink`'s writer, must be `Send`).
#[derive(Debug, Clone, Default)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl io::Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Drives one deterministic phase of mixed traffic; the op stream is a
/// pure function of `phase` and `ops`, so a restored backend replays
/// the exact continuation the straight-through copy sees.
fn drive(b: &mut dyn MemoryBackend, phase: u64, ops: u64) {
    let mut rng = DetRng::seed_from(0x5eed_0000 ^ phase);
    for i in 0..ops {
        let addr = Addr::new(rng.range_u64(0, (32 << 20) / 64) * 64);
        match i % 6 {
            0 => {
                b.execute(RequestDesc::new(addr, 64, MemOp::Store));
            }
            1 | 4 => {
                b.execute(RequestDesc::new(addr, 64, MemOp::NtStore));
            }
            2 => {
                b.execute(RequestDesc::new(addr, 32, MemOp::StoreClwb));
            }
            _ => {
                b.execute(RequestDesc::load(addr));
            }
        }
        if i % 53 == 0 {
            b.fence();
        }
    }
}

/// `save → restore → run(N)` equals `run(N)` straight-through — same
/// continuation trace JSONL, same counters, same final snapshot — for
/// every backend kind the factory builds.
#[test]
fn every_backend_kind_roundtrips_byte_identically() {
    for kind in BackendKind::ALL {
        let cfg = BackendConfig::default();
        let mut straight = build_backend(kind, &cfg).expect("default config builds");
        drive(straight.as_mut(), 1, 400);
        let blob = straight
            .save_snapshot()
            .unwrap_or_else(|| panic!("{kind}: snapshots must be supported"));

        let mut restored = build_backend(kind, &cfg).expect("default config builds");
        assert!(
            restored
                .restore_snapshot(&blob)
                .expect("same configuration"),
            "{kind}: restore must be supported"
        );

        // Trace the continuation on both copies.
        let buf_s = SharedBuf::default();
        let buf_r = SharedBuf::default();
        straight.configure_session(
            SessionOptions::new().trace_sink(Box::new(JsonlSink::new(buf_s.clone()))),
        );
        restored.configure_session(
            SessionOptions::new().trace_sink(Box::new(JsonlSink::new(buf_r.clone()))),
        );
        drive(straight.as_mut(), 2, 400);
        drive(restored.as_mut(), 2, 400);

        assert_eq!(
            straight.counters(),
            restored.counters(),
            "{kind}: counters diverged after restore"
        );
        assert_eq!(
            straight.now(),
            restored.now(),
            "{kind}: clocks diverged after restore"
        );
        assert_eq!(
            buf_s.0.lock().unwrap().as_slice(),
            buf_r.0.lock().unwrap().as_slice(),
            "{kind}: continuation trace JSONL diverged after restore"
        );
        assert_eq!(
            straight.save_snapshot(),
            restored.save_snapshot(),
            "{kind}: final snapshots diverged"
        );
    }
}

/// A cut taken mid-flight — write-combining queues occupied, RMW buffer
/// holding partials, wear-leveling migrations already performed — still
/// round-trips exactly.
#[test]
fn mid_flight_cut_with_busy_queues_roundtrips() {
    let mut straight = MemorySystem::new(VansConfig::optane_1dimm()).expect("valid preset");
    // Phase one: hammer ten hot lines of one 64 KB wear block with
    // full-line writes. At ~100% write concentration the block crosses
    // the 14,000-write wear threshold and migrates.
    for _batch in 0..6_000u64 {
        for line in 0..10u64 {
            straight.execute(RequestDesc::new(Addr::new(line * 64), 64, MemOp::NtStore));
        }
        // The fence drains the write-combining queues, so every batch
        // actually reaches the media and accumulates wear.
        straight.fence();
    }
    // Phase two: partial writes over a spread region fill the RMW
    // buffer and keep the WPQ busy; submit without draining so the cut
    // lands with requests in flight.
    let mut rng = DetRng::seed_from(0xb0b);
    for i in 0..400u64 {
        let spread = Addr::new(rng.range_u64(0, 1 << 14) * 64);
        straight.submit(RequestDesc::new(spread, 32, MemOp::StoreClwb));
        if i % 11 == 0 {
            straight.submit(RequestDesc::load(spread));
        }
    }
    let dimm = &straight.dimms()[0];
    assert!(
        dimm.lsq.occupancy() > 0 || dimm.rmw.occupancy() > 0,
        "the cut must land with non-empty WPQ/RMW state (lsq {}, rmw {})",
        dimm.lsq.occupancy(),
        dimm.rmw.occupancy()
    );
    assert!(
        straight.counters().migrations > 0,
        "the cut must land after AIT wear-leveling migrations"
    );

    let blob = straight.save_snapshot().expect("vans supports snapshots");
    let mut restored = MemorySystem::new(VansConfig::optane_1dimm()).expect("valid preset");
    restored
        .restore_snapshot(&blob)
        .expect("same configuration");

    drive(&mut straight, 7, 600);
    drive(&mut restored, 7, 600);
    straight.drain();
    restored.drain();
    assert_eq!(straight.counters(), restored.counters());
    assert_eq!(straight.now(), restored.now());
    assert_eq!(straight.save_snapshot(), restored.save_snapshot());
}

/// FNV-1a 64 of a byte string.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Heap base of the cloud workloads: on a 4 GiB DIMM its pages lie far
/// past the media's directly mapped range.
const CLOUD_HEAP: u64 = 128 << 30;

/// A fixed stream over both sides of the AIT's directly mapped range,
/// then 256 B nt-stores fenced one by one into two pages of a single
/// 64 KiB wear block, the other fourteen pages never translated. On one
/// DIMM the block migrates twice; with the Lazy cache on, each of the two
/// DIMMs the pages land on migrates once before its cache absorbs the
/// rest.
fn golden_stream(sys: &mut MemorySystem) {
    let mut rng = DetRng::seed_from(0x901d);
    for _ in 0..3_000u64 {
        let low = Addr::new(rng.range_u64(0, (64 << 20) / 64) * 64);
        let heap = Addr::new(CLOUD_HEAP + rng.range_u64(0, (64 << 20) / 64) * 64);
        sys.execute(RequestDesc::load(low));
        sys.execute(RequestDesc::new(low, 64, MemOp::NtStore));
        sys.execute(RequestDesc::load(heap));
        sys.execute(RequestDesc::new(heap, 64, MemOp::NtStore));
    }
    let block = 256u64 << 20;
    for i in 0..48_000u64 {
        let addr = Addr::new(block + (i % 2) * 4096 + (i / 2 % 16) * 256);
        sys.execute(RequestDesc::new(addr, 256, MemOp::NtStore));
        sys.fence();
    }
}

/// The continuation both copies run after the restore.
fn golden_tail(sys: &mut MemorySystem) {
    let mut rng = DetRng::seed_from(0x7a11);
    for i in 0..1_000u64 {
        let base = if i % 2 == 0 { 0 } else { CLOUD_HEAP };
        let addr = Addr::new(base + rng.range_u64(0, (64 << 20) / 64) * 64);
        if i % 3 == 0 {
            sys.execute(RequestDesc::new(addr, 64, MemOp::NtStore));
        } else {
            sys.execute(RequestDesc::load(addr));
        }
    }
}

/// Recorded simulator state after [`golden_stream`]: the snapshot
/// blob's length and FNV-1a 64 digest, the final clock, the counters.
/// These pin the snapshot format and every simulated byte; a change to
/// the AIT's bookkeeping must leave them exactly as they are.
struct Golden {
    blob_len: usize,
    blob_fnv: u64,
    now_ps: u64,
    counters: BackendCounters,
}

/// Runs [`golden_stream`] on a fresh system, compares it with `want`,
/// then restores the blob into another fresh system and requires both to
/// save the same blob after the same continuation.
fn check_golden(build: impl Fn() -> MemorySystem, want: &Golden) {
    let mut sys = build();
    golden_stream(&mut sys);
    let blob = sys.save_snapshot().expect("vans supports snapshots");
    let counters = sys.counters();
    assert!(counters.migrations >= 2, "{counters:?}");
    assert_eq!(
        (blob.len(), fnv1a64(&blob), sys.now().as_ps()),
        (want.blob_len, want.blob_fnv, want.now_ps),
        "blob length, blob digest, final clock"
    );
    assert_eq!(counters, want.counters);

    let mut restored = build();
    restored
        .restore_snapshot(&blob)
        .expect("same configuration");
    assert_eq!(restored.save_snapshot().as_deref(), Some(&blob[..]));
    golden_tail(&mut sys);
    golden_tail(&mut restored);
    assert_eq!(sys.save_snapshot(), restored.save_snapshot());
}

/// Simulated bytes of a single-DIMM system are pinned.
#[test]
fn golden_bytes_single_dimm() {
    check_golden(
        || MemorySystem::new(VansConfig::optane_1dimm()).expect("valid preset"),
        &Golden {
            blob_len: 178_858,
            blob_fnv: 0xcf59_e4d2_d518_56a7,
            now_ps: 11_531_351_750,
            counters: BackendCounters {
                bus_reads: 6_000,
                bus_writes: 198_000,
                bus_bytes_read: 384_000,
                bus_bytes_written: 12_672_000,
                rmw_hits: 47_969,
                rmw_misses: 12_031,
                ait_hits: 60_501,
                ait_misses: 5_498,
                media_bytes_read: 22_650_880,
                media_bytes_written: 5_873_664,
                migrations: 2,
                lsq_combines: 48_000,
                on_dimm_dram_accesses: 71_497,
                fences: 48_000,
            },
        },
    );
}

/// Simulated bytes of six interleaved DIMMs with both case studies on
/// are pinned.
#[test]
fn golden_bytes_six_dimms_with_case_studies() {
    check_golden(
        || {
            let mut sys = MemorySystem::new(VansConfig::optane_6dimm()).expect("valid preset");
            sys.enable_lazy_cache(LazyCacheConfig::paper());
            sys.enable_pretranslation(PreTranslationConfig::paper());
            sys
        },
        &Golden {
            blob_len: 86_511,
            blob_fnv: 0x0216_59c3_813e_2698,
            now_ps: 10_911_631_250,
            counters: BackendCounters {
                bus_reads: 6_000,
                bus_writes: 198_000,
                bus_bytes_read: 384_000,
                bus_bytes_written: 12_672_000,
                rmw_hits: 40_968,
                rmw_misses: 12_018,
                ait_hits: 53_517,
                ait_misses: 5_458,
                media_bytes_read: 22_487_040,
                media_bytes_written: 131_072,
                migrations: 2,
                lsq_combines: 48_005,
                on_dimm_dram_accesses: 64_433,
                fences: 48_000,
            },
        },
    );
}

/// The fixed stream behind [`golden_bytes_every_backend_kind`]: loads,
/// nt-stores and stores over 8 MiB.
fn golden_kind_stream(b: &mut dyn MemoryBackend) {
    let mut rng = DetRng::seed_from(0x6b1d);
    for i in 0..600u64 {
        let addr = Addr::new(rng.range_u64(0, (8 << 20) / 64) * 64);
        let desc = match i % 3 {
            0 => RequestDesc::load(addr),
            1 => RequestDesc::new(addr, 64, MemOp::NtStore),
            _ => RequestDesc::new(addr, 64, MemOp::Store),
        };
        b.execute(desc);
    }
}

/// Snapshot format of every backend kind: `(kind, blob length, blob
/// FNV-1a 64, final clock in ps)` after [`golden_kind_stream`]. A field
/// added to any kind's `Snapshot` impl fails this test, so a format
/// change is a deliberate regeneration.
#[test]
fn golden_bytes_every_backend_kind() {
    use BackendKind::*;
    let want: [(BackendKind, usize, u64, u64); 8] = [
        (Vans, 5_419, 0xd76f_a7ca_3563_fba2, 198_106_000),
        (VansMemoryMode, 8_093, 0x2ed5_8ae0_a7c6_3f1f, 187_648_250),
        (OptaneReference, 389, 0x3172_fc6e_7f47_8839, 158_178_519),
        (DramDdr4, 1_787, 0x5448_592c_0042_6740, 36_137_250),
        (DramDdr3, 535, 0x4677_f834_9d47_c1de, 37_914_347),
        (RamulatorPcm, 295, 0x547e_4dd1_4abc_a6c9, 74_038_500),
        (Pmep, 1_733, 0xf19f_3624_3940_e805, 78_946_684),
        (FixedLatency, 32, 0xd91a_258b_b170_5e3a, 140_000_000),
    ];
    let got: Vec<(BackendKind, usize, u64, u64)> = BackendKind::ALL
        .into_iter()
        .map(|kind| {
            let mut b =
                build_backend(kind, &BackendConfig::default()).expect("default config builds");
            golden_kind_stream(b.as_mut());
            let blob = b
                .save_snapshot()
                .unwrap_or_else(|| panic!("{kind}: snapshots must be supported"));
            (kind, blob.len(), fnv1a64(&blob), b.now().as_ps())
        })
        .collect();
    assert_eq!(got, want);
}

/// The functional-warming stream behind [`golden_core_blob`]: a 256 KiB
/// hot set, 4 GiB of cold memory and 64 MiB at the cloud heap, with every
/// op kind `Core::warm_run` handles. Cold lines sit at multiples of
/// 2 MiB, the LLC's set period (32 MiB over 16 ways), so they crowd 64
/// LLC sets and evict there; the cold and heap pages far outnumber the
/// STLB's 1536 entries.
fn golden_core_stream(seed: u64, ops: u64) -> impl Iterator<Item = TraceOp> {
    const COLD_BASE: u64 = 1 << 30;
    let mut rng = DetRng::seed_from(seed);
    (0..ops).map(move |i| {
        let hot = VirtAddr::new(rng.range_u64(0, (256 << 10) / 64) * 64);
        let cold = VirtAddr::new(
            COLD_BASE
                + rng.range_u64(0, (4 << 30) / (2 << 20)) * (2 << 20)
                + rng.range_u64(0, 64) * 64,
        );
        let heap = VirtAddr::new(CLOUD_HEAP + rng.range_u64(0, (64 << 20) / 64) * 64);
        match i % 16 {
            0..=4 => TraceOp::load(hot),
            5 => TraceOp::load(cold),
            6 => TraceOp::chase_mkpt(heap),
            7 => TraceOp::load(heap),
            8 => TraceOp::store(hot),
            9 => TraceOp::store(cold),
            10 => TraceOp::nt_store(cold),
            11 => TraceOp::nt_store(heap),
            12 => TraceOp::Clwb { vaddr: hot },
            13 => TraceOp::compute(8),
            14 if i % 64 == 14 => TraceOp::Fence,
            14 => TraceOp::load(cold),
            _ => TraceOp::compute(3),
        }
    })
}

/// Core snapshot format: the caches and TLB of a Cascade-Lake-like core
/// after [`golden_core_stream`] warms it against one DIMM with
/// Pre-translation on. Blob length and FNV-1a 64 are pinned; the blob
/// then restores into a fresh core that tracks the original through the
/// same tail.
#[test]
fn golden_core_blob() {
    let build = || {
        let mut sys = MemorySystem::new(VansConfig::optane_1dimm()).expect("valid preset");
        sys.enable_pretranslation(PreTranslationConfig::paper());
        sys
    };
    let mut sys = build();
    let mut core = Core::new(CoreConfig::cascade_lake_like());
    let warmed = core.warm_run(golden_core_stream(0xc04e, 320_000), &mut sys);
    let blob = save_blob(&core);
    assert_eq!(
        (warmed, blob.len(), fnv1a64(&blob)),
        (500_000, 2_410_389, 0xdc4a_32ab_a09e_4cb5),
        "instructions warmed, blob length, blob digest"
    );

    let mut sys_b = build();
    sys_b
        .restore_snapshot(&sys.save_snapshot().expect("vans supports snapshots"))
        .expect("same configuration");
    let mut core_b = Core::new(CoreConfig::cascade_lake_like());
    restore_blob(&mut core_b, &blob).expect("same configuration");
    assert_eq!(save_blob(&core_b), blob);
    core.warm_run(golden_core_stream(0x7a11, 20_000), &mut sys);
    core_b.warm_run(golden_core_stream(0x7a11, 20_000), &mut sys_b);
    assert_eq!(save_blob(&core), save_blob(&core_b));
}

/// Old-version and corrupt blobs are rejected with a clean, typed
/// error — state stays untouched, nothing panics.
#[test]
fn foreign_blobs_fail_cleanly() {
    let mut sys = MemorySystem::new(VansConfig::tiny_for_tests()).expect("valid preset");
    drive(&mut sys, 1, 50);
    let good = sys.save_snapshot().expect("vans supports snapshots");
    let counters_before = sys.counters();

    // Future format version.
    let mut future = good.clone();
    future[MAGIC.len()] = VERSION + 1;
    let err = sys.restore_snapshot(&future).expect_err("must reject");
    assert!(
        matches!(err.kind, SnapshotErrorKind::UnsupportedVersion(v) if v == VERSION + 1),
        "unexpected error: {err}"
    );
    assert!(err.to_string().contains("version"), "undiagnostic: {err}");

    // Wrong magic.
    let mut alien = good.clone();
    alien[0] = b'X';
    assert!(sys.restore_snapshot(&alien).is_err());

    // Truncations at every prefix length must error, never panic.
    for len in 0..good.len().min(64) {
        assert!(
            sys.restore_snapshot(&good[..len]).is_err(),
            "truncated blob of {len} bytes must be rejected"
        );
    }

    // The failed restores left the system usable and unchanged.
    assert_eq!(sys.counters(), counters_before);
    sys.restore_snapshot(&good)
        .expect("good blob still restores");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random single-byte corruption of the payload either restores
    /// (the flip hit dead space or produced an equally valid encoding)
    /// or errors cleanly — it must never panic.
    #[test]
    fn corrupted_payload_never_panics(pos in 5usize..2000, bit in 0u8..8) {
        let mut sys = MemorySystem::new(VansConfig::tiny_for_tests()).unwrap();
        drive(&mut sys, 3, 120);
        let mut blob = sys.save_snapshot().expect("vans supports snapshots");
        let pos = pos.min(blob.len() - 1);
        blob[pos] ^= 1 << bit;
        let mut fresh = MemorySystem::new(VansConfig::tiny_for_tests()).unwrap();
        let _ = fresh.restore_snapshot(&blob);
    }

    /// The cut position never matters: cutting after `k` ops and
    /// replaying the remainder always matches straight-through.
    #[test]
    fn cut_position_is_immaterial(k in 1u64..300) {
        let mut straight = MemorySystem::new(VansConfig::tiny_for_tests()).unwrap();
        drive(&mut straight, 5, k);
        let blob = straight.save_snapshot().expect("vans supports snapshots");
        let mut restored = MemorySystem::new(VansConfig::tiny_for_tests()).unwrap();
        restored.restore_snapshot(&blob).expect("same configuration");
        drive(&mut straight, 6, 150);
        drive(&mut restored, 6, 150);
        prop_assert_eq!(straight.counters(), restored.counters());
        prop_assert_eq!(straight.save_snapshot(), restored.save_snapshot());
    }
}

/// `save_blob`/`restore_blob` also carry the CPU core, so a full
/// `MemorySystem + Cpu` pair round-trips as one checkpoint.
#[test]
fn cpu_and_memory_checkpoint_together() {
    use nvsim::cpu::{Core, CoreConfig, TraceOp};
    let trace = |seed: u64| -> Vec<TraceOp> {
        let mut rng = DetRng::seed_from(seed);
        (0..4_000)
            .map(|i| match i % 4 {
                0 => TraceOp::compute(8),
                1 => TraceOp::store(nvsim::types::VirtAddr::new(
                    0x10_0000 + rng.range_u64(0, 1 << 18) * 64,
                )),
                _ => TraceOp::load(nvsim::types::VirtAddr::new(
                    0x10_0000 + rng.range_u64(0, 1 << 18) * 64,
                )),
            })
            .collect()
    };
    let mut sys_a = MemorySystem::new(VansConfig::optane_1dimm()).expect("valid preset");
    let mut core_a = Core::new(CoreConfig::cascade_lake_like());
    core_a.run(trace(1).into_iter(), &mut sys_a);

    let sys_blob = sys_a.save_snapshot().expect("vans supports snapshots");
    let core_blob = save_blob(&core_a);

    let mut sys_b = MemorySystem::new(VansConfig::optane_1dimm()).expect("valid preset");
    let mut core_b = Core::new(CoreConfig::cascade_lake_like());
    sys_b
        .restore_snapshot(&sys_blob)
        .expect("same configuration");
    restore_blob(&mut core_b, &core_blob).expect("same configuration");

    let ra = core_a.run(trace(2).into_iter(), &mut sys_a);
    let rb = core_b.run(trace(2).into_iter(), &mut sys_b);
    assert_eq!(ra.cycles, rb.cycles);
    assert_eq!(ra.llc_misses, rb.llc_misses);
    assert_eq!(ra.tlb_walks, rb.tlb_walks);
    assert_eq!(ra.exec_time, rb.exec_time);
    assert_eq!(sys_a.counters(), sys_b.counters());
    assert_eq!(save_blob(&core_a), save_blob(&core_b));
}
