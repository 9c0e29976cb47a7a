//! Timing adapters: a [`MemoryBackend`] and a [`Workload`] that forward
//! every trait method to the wrapped value and time the ones that do
//! work as [`trace`](crate::trace) spans. The backend adapter mirrors the
//! blanket `impl MemoryBackend for &mut B` in `nvsim-types`, so a wrapped
//! run computes exactly what an unwrapped one does.

use crate::trace::enter;
use nvsim::cpu::TraceOp;
use nvsim::types::trace::LatencyBreakdown;
use nvsim::types::{
    Addr, BackendConfig, BackendCounters, BackendError, BackendKind, ConfigError, CrashImage,
    FaultPlan, MemoryBackend, ReqId, RequestDesc, SessionOptions, SnapshotError, Time,
};
use nvsim::workloads::Workload;

/// Span of the timed request path (submit, completion, clock moves).
pub const BACKEND_TIMED: &str = "backend.timed";
/// Span of functional-warming accesses.
pub const BACKEND_WARM: &str = "backend.warm_access";
/// Span of backend snapshot saves.
pub const BACKEND_SAVE: &str = "backend.snapshot_save";
/// Span of backend snapshot restores.
pub const BACKEND_RESTORE: &str = "backend.snapshot_restore";
/// Span of the remaining work-doing calls (session options, fault
/// injection, counter resets).
pub const BACKEND_OTHER: &str = "backend.other";
/// Span of trace generation.
pub const WORKLOAD_GENERATE: &str = "workloads.generate";
/// Span of workload cursor saves and restores.
pub const WORKLOAD_CHECKPOINT: &str = "workloads.checkpoint";

/// A backend whose work-doing calls are timed.
pub struct TimedBackend(pub Box<dyn MemoryBackend>);

impl MemoryBackend for TimedBackend {
    fn label(&self) -> String {
        self.0.label()
    }
    fn now(&self) -> Time {
        self.0.now()
    }
    fn submit(&mut self, desc: RequestDesc) -> ReqId {
        let _s = enter(BACKEND_TIMED);
        self.0.submit(desc)
    }
    fn try_take_completion(&mut self, id: ReqId) -> Result<Time, BackendError> {
        let _s = enter(BACKEND_TIMED);
        self.0.try_take_completion(id)
    }
    fn expect_completion(&mut self, id: ReqId) -> Time {
        let _s = enter(BACKEND_TIMED);
        // nvsim-lint: allow(expect-completion-misuse) — a forwarding adapter: the caller that submitted the request owns the no-miss contract, exactly as through the blanket `&mut B` impl.
        self.0.expect_completion(id)
    }
    fn wait_for(&mut self, id: ReqId) -> Time {
        let _s = enter(BACKEND_TIMED);
        self.0.wait_for(id)
    }
    fn drain(&mut self) -> Time {
        let _s = enter(BACKEND_TIMED);
        self.0.drain()
    }
    fn skip_to(&mut self, t: Time) {
        let _s = enter(BACKEND_TIMED);
        self.0.skip_to(t)
    }
    fn counters(&self) -> BackendCounters {
        self.0.counters()
    }
    fn reset_counters(&mut self) {
        let _s = enter(BACKEND_OTHER);
        self.0.reset_counters()
    }
    fn execute(&mut self, desc: RequestDesc) -> Time {
        let _s = enter(BACKEND_TIMED);
        self.0.execute(desc)
    }
    fn fence(&mut self) -> Time {
        let _s = enter(BACKEND_TIMED);
        self.0.fence()
    }
    fn execute_batch(&mut self, descs: &[RequestDesc]) -> Time {
        let _s = enter(BACKEND_TIMED);
        self.0.execute_batch(descs)
    }
    fn models_persistence_ops(&self) -> bool {
        self.0.models_persistence_ops()
    }
    fn mkpt_lookup(&mut self, paddr: Addr, t: Time) -> Option<(u64, Time)> {
        let _s = enter(BACKEND_TIMED);
        self.0.mkpt_lookup(paddr, t)
    }
    fn mkpt_update(&mut self, paddr: Addr, pfn: u64) {
        let _s = enter(BACKEND_TIMED);
        self.0.mkpt_update(paddr, pfn)
    }
    fn configure_session(&mut self, opts: SessionOptions) -> bool {
        let _s = enter(BACKEND_OTHER);
        self.0.configure_session(opts)
    }
    fn inject_power_loss(&self, plan: &FaultPlan) -> Option<CrashImage> {
        let _s = enter(BACKEND_OTHER);
        self.0.inject_power_loss(plan)
    }
    fn breakdown(&self) -> Option<LatencyBreakdown> {
        self.0.breakdown()
    }
    fn save_snapshot(&self) -> Option<Vec<u8>> {
        let _s = enter(BACKEND_SAVE);
        self.0.save_snapshot()
    }
    fn restore_snapshot(&mut self, blob: &[u8]) -> Result<bool, SnapshotError> {
        let _s = enter(BACKEND_RESTORE);
        self.0.restore_snapshot(blob)
    }
    fn warm_access(&mut self, desc: &RequestDesc) {
        let _s = enter(BACKEND_WARM);
        self.0.warm_access(desc)
    }
}

/// A workload whose trace generation and checkpointing are timed.
pub struct TimedWorkload(pub Box<dyn Workload + Send>);

impl Workload for TimedWorkload {
    fn name(&self) -> &str {
        self.0.name()
    }
    fn generate(&mut self, instructions: u64) -> Vec<TraceOp> {
        let _s = enter(WORKLOAD_GENERATE);
        self.0.generate(instructions)
    }
    fn mkpt_enabled(&self) -> bool {
        self.0.mkpt_enabled()
    }
    fn set_mkpt(&mut self, enabled: bool) {
        self.0.set_mkpt(enabled)
    }
    fn save_state(&self) -> Option<Vec<u8>> {
        let _s = enter(WORKLOAD_CHECKPOINT);
        self.0.save_state()
    }
    fn restore_state(&mut self, blob: &[u8]) -> Result<bool, SnapshotError> {
        let _s = enter(WORKLOAD_CHECKPOINT);
        self.0.restore_state(blob)
    }
}

/// The serve `BackendFactory` of traced runs: every backend the service
/// opens is a [`TimedBackend`] around the one `build_backend` makes.
pub fn timing_factory(
    kind: BackendKind,
    cfg: &BackendConfig,
) -> Result<Box<dyn MemoryBackend>, ConfigError> {
    let inner = nvsim::backends::build_backend(kind, cfg)?;
    Ok(Box::new(TimedBackend(inner)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace;
    use nvsim::backends::{build_backend, build_server};
    use nvsim::cpu::{Core, CoreConfig};
    use nvsim::serve::scripts::smoke_script;
    use nvsim::serve::{Server, ServerConfig};
    use nvsim::types::DetRng;
    use nvsim::vans::{MemorySystem, VansConfig};
    use nvsim::workloads::Ycsb;
    use nvsim_bench::sampling::{SampleTarget, SampledRun, SamplingPlan};

    fn drive(mem: &mut dyn MemoryBackend) {
        let mut rng = DetRng::seed_from(5);
        for i in 0..3000u64 {
            let addr = Addr::new(rng.range_u64(0, 1 << 20) * 64);
            match i % 6 {
                0 => drop(mem.execute(RequestDesc::nt_store(addr))),
                1 => drop(mem.execute(RequestDesc::store(addr))),
                2 => mem.warm_access(&RequestDesc::load(addr)),
                3 => drop(mem.fence()),
                _ => {
                    let id = mem.submit(RequestDesc::load(addr));
                    let done = mem.try_take_completion(id).expect("just submitted");
                    mem.skip_to(done);
                }
            }
        }
    }

    fn vans() -> Box<dyn MemoryBackend> {
        Box::new(MemorySystem::new(VansConfig::optane_1dimm()).expect("valid preset"))
    }

    #[test]
    fn wrapped_backends_produce_identical_snapshot_blobs() {
        let mut bare = vans();
        drive(&mut *bare);
        trace::install();
        let mut wrapped = TimedBackend(vans());
        drive(&mut wrapped);
        let blob = wrapped.save_snapshot().expect("vans snapshots");
        let mut restored = TimedBackend(vans());
        assert!(restored.restore_snapshot(&blob).expect("same config"));
        let t = trace::finish().expect("installed");
        assert_eq!(bare.save_snapshot().expect("vans snapshots"), blob);
        assert_eq!(restored.save_snapshot(), Some(blob));
        assert!(t.agg(BACKEND_TIMED).count > 2000);
        assert_eq!(t.agg(BACKEND_WARM).count, 500);
        assert_eq!(t.agg(BACKEND_RESTORE).count, 1);
    }

    #[test]
    fn wrapped_serve_responses_are_byte_identical() {
        let script = smoke_script();
        let bare = build_server(ServerConfig::with_workers(1))
            .run_script(&script)
            .expect("smoke script decodes");
        trace::install();
        let timed = Server::new(timing_factory, ServerConfig::with_workers(1))
            .run_script(&script)
            .expect("smoke script decodes");
        let t = trace::finish().expect("installed");
        assert_eq!(bare, timed);
        assert!(t.agg(BACKEND_TIMED).count > 0);
        assert!(
            t.agg(BACKEND_OTHER).count > 0,
            "the fault command reaches the backend"
        );
    }

    #[test]
    fn wrapped_runs_produce_identical_run_reports_and_samples() {
        let run = |wrap: bool| {
            let mut core = Core::new(CoreConfig::cascade_lake_like());
            let mut wl: Box<dyn Workload + Send> = Box::new(Ycsb::new(3));
            let mut mem =
                build_backend(BackendKind::Vans, &BackendConfig::default()).expect("vans builds");
            if wrap {
                wl = Box::new(TimedWorkload(wl));
                mem = Box::new(TimedBackend(mem));
            }
            let mut mem: &mut dyn MemoryBackend = &mut *mem;
            let warm = wl.generate(50_000);
            core.warm_run(warm.into_iter(), &mut mem);
            let trace = wl.generate(20_000);
            core.run(trace.into_iter(), &mut mem)
        };
        trace::install();
        assert_eq!(run(false), run(true));
        let target = |wrap: bool| {
            move || {
                let mut workload: Box<dyn Workload + Send> = Box::new(Ycsb::new(9));
                let mut system: Box<dyn MemoryBackend> = vans();
                if wrap {
                    workload = Box::new(TimedWorkload(workload));
                    system = Box::new(TimedBackend(system));
                }
                SampleTarget {
                    system,
                    core: Core::new(CoreConfig::cascade_lake_like()),
                    workload,
                }
            }
        };
        let plan = SamplingPlan::smoke();
        let bare = SampledRun::new("bare", plan, target(false)).run_serial();
        let timed = SampledRun::new("timed", plan, target(true)).run_serial();
        let t = trace::finish().expect("installed");
        assert_eq!(bare, timed);
        assert!(t.agg(WORKLOAD_GENERATE).count > 0);
        assert!(t.agg(WORKLOAD_CHECKPOINT).count > 0);
        assert!(t.agg(BACKEND_SAVE).count > 0);
    }
}
