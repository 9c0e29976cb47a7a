//! Cross-crate integration tests: the full stack working together —
//! workloads → CPU model → VANS → media, LENS probing every backend,
//! and the case-study optimizations end to end.

use nvsim::prelude::*;
use nvsim::vans::opt::{LazyCacheConfig, PreTranslationConfig};
use nvsim::workloads::{Redis, SpecWorkloadGen, Ycsb};

fn vans_sys() -> MemorySystem {
    MemorySystem::new(VansConfig::optane_1dimm()).expect("valid preset")
}

#[test]
fn cpu_on_vans_runs_spec_trace() {
    let mut gen = SpecWorkloadGen::from_table_iv("gcc", 2.9, 0.1, 7);
    let mut core = Core::new(CoreConfig::cascade_lake_like());
    let mut mem = vans_sys();
    let report = core.run(gen.generate(200_000).into_iter(), &mut mem);
    assert!(report.instructions >= 199_000);
    assert!(report.ipc() > 0.0 && report.ipc() < 4.0);
    assert!(report.llc_misses > 0);
    // The memory system actually saw the misses.
    assert!(mem.counters().bus_reads > 0);
}

#[test]
fn nvram_is_slower_than_dram_for_memory_bound_work() {
    let mut gen = SpecWorkloadGen::from_table_iv("mcf", 27.1, 0.2, 7);
    let trace = gen.generate(300_000);

    let mut dram =
        nvsim::baselines::DramBackend::new(nvsim::dram::DramConfig::ddr4_2666_4gb()).unwrap();
    let mut core1 = Core::new(CoreConfig::cascade_lake_like());
    let dram_report = core1.run(trace.clone().into_iter(), &mut dram);

    let mut nv = vans_sys();
    let mut core2 = Core::new(CoreConfig::cascade_lake_like());
    let nv_report = core2.run(trace.into_iter(), &mut nv);

    assert!(
        nv_report.exec_time > dram_report.exec_time,
        "NVRAM {} must be slower than DRAM {}",
        nv_report.exec_time,
        dram_report.exec_time
    );
    // Speedup (DRAM/NVRAM) below 1, per Fig 11c.
    let speedup = dram_report.exec_time.as_ns_f64() / nv_report.exec_time.as_ns_f64();
    assert!(speedup < 1.0);
}

#[test]
fn redis_read_cpi_dominates_rest() {
    let mut w = Redis::new(42);
    let mut core = Core::new(CoreConfig::cascade_lake_like());
    let mut mem = vans_sys();
    let report = core.run(w.generate(400_000).into_iter(), &mut mem);
    let ratio = report.read_cpi() / report.rest_cpi().max(1e-9);
    assert!(
        ratio > 3.0,
        "Redis read CPI must dominate (paper: 8.8x), got {ratio:.1}x"
    );
}

#[test]
fn ycsb_triggers_wear_leveling_on_hot_lines() {
    let mut w = Ycsb::new(42);
    let mut core = Core::new(CoreConfig::cascade_lake_like());
    let mut mem = vans_sys();
    core.run(w.generate(3_000_000).into_iter(), &mut mem);
    assert!(
        mem.counters().migrations > 0,
        "hot metadata lines must trigger wear-leveling"
    );
}

#[test]
fn lazy_cache_absorbs_hot_writes_after_first_migration() {
    let run = |lazy: bool| {
        let mut mem = vans_sys();
        if lazy {
            mem.enable_lazy_cache(LazyCacheConfig::paper());
        }
        let mut w = Ycsb::new(42);
        let mut core = Core::new(CoreConfig::cascade_lake_like());
        let report = core.run(w.generate(6_000_000).into_iter(), &mut mem);
        let absorbed = mem.dimms()[0]
            .lazy
            .as_ref()
            .map(|l| l.stats().absorbed_writes)
            .unwrap_or(0);
        (report.exec_time, mem.counters().migrations, absorbed)
    };
    let (base_time, base_migrations, _) = run(false);
    let (lazy_time, lazy_migrations, absorbed) = run(true);
    assert!(base_migrations >= 2, "base migrations {base_migrations}");
    // The first migration teaches the lazy cache; after that the hot
    // lines are absorbed and wear stops accumulating.
    assert!(
        lazy_migrations < base_migrations,
        "lazy cache must curb wear-leveling: {lazy_migrations} vs {base_migrations}"
    );
    assert!(absorbed > 0, "lazy cache must absorb hot writes");
    assert!(
        lazy_time <= base_time,
        "lazy cache must not slow the workload: {lazy_time} vs {base_time}"
    );
}

#[test]
fn pretranslation_reduces_tlb_walks_on_linked_list() {
    let run = |pt: bool| {
        let mut mem = vans_sys();
        if pt {
            mem.enable_pretranslation(PreTranslationConfig::paper());
        }
        let mut w = nvsim::workloads::PmdkLinkedList::new(42);
        w.set_mkpt(pt);
        let mut core = Core::new(CoreConfig::cascade_lake_like());
        // Warm so the pre-translation table learns the chains.
        core.run(w.generate(200_000).into_iter(), &mut mem);
        core.tlb.reset_stats();
        let report = core.run(w.generate(400_000).into_iter(), &mut mem);
        report.tlb_mpki()
    };
    let base = run(false);
    let pt = run(true);
    assert!(
        pt < base,
        "pre-translation must reduce TLB MPKI: {pt:.1} vs {base:.1}"
    );
}

#[test]
fn lens_flags_baselines_as_bufferless() {
    // LENS on a DRAM-style baseline finds none of the Optane buffers.
    use nvsim::lens::probers::BufferProber;
    let report = BufferProber::scaled(4 << 20)
        .probe_with(|| nvsim::baselines::DramBackend::new(nvsim::dram::DramConfig::pcm()).unwrap());
    assert!(
        report.read_buffer_capacities.len() < 2,
        "PCM baseline must not exhibit the two-level Optane staircase: {:?}",
        report.read_buffer_capacities
    );
}

#[test]
fn fence_durability_is_monotonic() {
    // Everything fenced is durable no later than anything fenced later.
    let mut mem = vans_sys();
    let mut last = Time::ZERO;
    for i in 0..32u64 {
        mem.execute(RequestDesc::nt_store(Addr::new(i * 64)));
        let t = mem.fence();
        assert!(t >= last, "fence completion must be monotone");
        last = t;
    }
}

#[test]
fn six_dimm_system_is_faster_for_streams() {
    use nvsim::lens::Stride;
    let mut one = vans_sys();
    let mut six = MemorySystem::new(VansConfig::optane_6dimm()).unwrap();
    let s1 = Stride::sequential(1 << 20, MemOp::NtStore).run(&mut one);
    let s6 = Stride::sequential(1 << 20, MemOp::NtStore).run(&mut six);
    assert!(
        s6.total < s1.total,
        "interleaving must speed sequential writes: {} vs {}",
        s6.total,
        s1.total
    );
}

#[test]
fn counters_are_consistent_after_mixed_traffic() {
    let mut mem = vans_sys();
    for i in 0..256u64 {
        if i % 3 == 0 {
            mem.execute(RequestDesc::load(Addr::new(i * 4096)));
        } else {
            mem.execute(RequestDesc::nt_store(Addr::new(i * 4096)));
        }
    }
    mem.fence();
    let c = mem.counters();
    assert_eq!(c.bus_reads, 86);
    assert_eq!(c.bus_writes, 170);
    // Write-through means media/DRAM saw traffic.
    assert!(c.on_dimm_dram_accesses > 0);
    assert!(c.media_bytes_read > 0);
    // Amplification ratios are well-formed.
    assert!(c.read_amplification().unwrap() >= 1.0);
}

/// `drain` returns the time the backend became idle, which is never
/// before its clock: after `skip_to` past every completion it is
/// `now()`, and a request submitted after the skip drains at its own
/// completion, later than the skip.
#[test]
fn drain_returns_now_for_every_backend_kind() {
    let skip = Time::from_ns(1_000_000);
    for kind in BackendKind::ALL {
        let mut b = nvsim::backends::build_backend(kind, &BackendConfig::default())
            .expect("default config builds");
        b.submit(RequestDesc::load(Addr::new(0x40)));
        b.skip_to(skip);
        let idle = b.drain();
        assert_eq!(idle, b.now(), "{kind}: drain after skipping past the load");

        b.submit(RequestDesc::load(Addr::new(0x80)));
        let idle = b.drain();
        assert_eq!(idle, b.now(), "{kind}: drain of a load after the skip");
        assert!(idle > skip, "{kind}: {idle:?} is not past the skip");
    }
}

/// The completion contract every backend kind keeps: an in-flight id is
/// taken once, in any order, at the same time on an identically built
/// twin; a second take and a take of an id never submitted both report
/// `UnknownRequest`; `drain` then ends both copies at the same time.
#[test]
fn completions_are_taken_once_in_any_order_for_every_backend_kind() {
    use nvsim::types::{BackendError, ReqId};
    let descs = [
        RequestDesc::load(Addr::new(0x40)),
        RequestDesc::nt_store(Addr::new(0x1000)),
        RequestDesc::store(Addr::new(0x2_0040)),
        RequestDesc::load(Addr::new(0x40_0080)),
        RequestDesc::nt_store(Addr::new(0x3000)),
    ];
    for kind in BackendKind::ALL {
        let build = || {
            nvsim::backends::build_backend(kind, &BackendConfig::default())
                .expect("default config builds")
        };
        let (mut a, mut b) = (build(), build());
        let ids: Vec<ReqId> = descs.iter().map(|&d| a.submit(d)).collect();
        let twin_ids: Vec<ReqId> = descs.iter().map(|&d| b.submit(d)).collect();
        assert_eq!(ids, twin_ids, "{kind}");

        let subset = [ids[3], ids[0], ids[4]];
        let in_order: Vec<_> = subset.iter().map(|&id| a.try_take_completion(id)).collect();
        let mut reversed: Vec<_> = subset
            .iter()
            .rev()
            .map(|&id| b.try_take_completion(id))
            .collect();
        reversed.reverse();
        assert_eq!(in_order, reversed, "{kind}");
        assert!(in_order.iter().all(Result::is_ok), "{kind}: {in_order:?}");

        let never = ReqId(ids[4].0 + 1_000);
        for id in subset.into_iter().chain([never]) {
            assert_eq!(
                a.try_take_completion(id),
                Err(BackendError::UnknownRequest(id)),
                "{kind}"
            );
            assert_eq!(
                b.try_take_completion(id),
                Err(BackendError::UnknownRequest(id)),
                "{kind}"
            );
        }
        assert_eq!(a.drain(), b.drain(), "{kind}");
    }
}
