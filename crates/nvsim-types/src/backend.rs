//! The [`MemoryBackend`] trait: the contract between memory-system models
//! (VANS, the baselines, the analytical Optane reference) and everything
//! that drives them (LENS probers, the CPU model, trace replay).

use crate::addr::Addr;
use crate::durability::{CrashImage, FaultPlan};
use crate::error::BackendError;
use crate::request::{MemOp, ReqId, RequestDesc};
use crate::snapshot::{Snapshot, SnapshotError, SnapshotReader, SnapshotWriter};
use crate::time::Time;
use crate::trace::{LatencyBreakdown, TraceSink};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;
use std::str::FromStr;

/// The memory-system models the workspace can construct by name.
///
/// Used with [`BackendConfig`] and the facade crate's `build_backend`
/// factory so drivers (the sampled-simulation runner, `nvsim-serve`)
/// can pick a backend from a string instead of hard-wiring constructors.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum BackendKind {
    /// The VANS NVRAM simulator (App-Direct mode).
    Vans,
    /// VANS fronted by the on-DIMM DRAM cache (Memory mode).
    VansMemoryMode,
    /// The analytical Optane reference machine (validation target).
    OptaneReference,
    /// DDR4 DRAM timing baseline.
    DramDdr4,
    /// DDR3 DRAM timing baseline.
    DramDdr3,
    /// Ramulator-style PCM baseline.
    RamulatorPcm,
    /// The PMEP (persistent-memory emulation platform) baseline.
    Pmep,
    /// A fixed-latency stub (tests and driver plumbing).
    FixedLatency,
}

impl BackendKind {
    /// Every constructible kind, in a stable order.
    pub const ALL: [BackendKind; 8] = [
        BackendKind::Vans,
        BackendKind::VansMemoryMode,
        BackendKind::OptaneReference,
        BackendKind::DramDdr4,
        BackendKind::DramDdr3,
        BackendKind::RamulatorPcm,
        BackendKind::Pmep,
        BackendKind::FixedLatency,
    ];

    /// The canonical name (`vans`, `memory-mode`, `optane`, `ddr4`,
    /// `ddr3`, `pcm`, `pmep`, `fixed`) this kind parses from.
    pub fn name(self) -> &'static str {
        match self {
            BackendKind::Vans => "vans",
            BackendKind::VansMemoryMode => "memory-mode",
            BackendKind::OptaneReference => "optane",
            BackendKind::DramDdr4 => "ddr4",
            BackendKind::DramDdr3 => "ddr3",
            BackendKind::RamulatorPcm => "pcm",
            BackendKind::Pmep => "pmep",
            BackendKind::FixedLatency => "fixed",
        }
    }
}

impl fmt::Display for BackendKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for BackendKind {
    type Err = crate::error::ConfigError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        BackendKind::ALL
            .into_iter()
            .find(|k| k.name() == s)
            .ok_or_else(|| {
                crate::error::ConfigError::new(
                    "backend.kind",
                    "unknown backend name (expected vans | memory-mode | optane | ddr4 | ddr3 | pcm | pmep | fixed)",
                )
            })
    }
}

/// Knobs shared by every backend the factory can build. Kind-specific
/// detail (DDR timings, media latencies) comes from each model's own
/// presets; this struct only carries the cross-cutting choices.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BackendConfig {
    /// NVDIMM count for interleaved kinds (VANS and the Optane
    /// reference accept 1 or 6; others ignore it).
    pub dimms: u32,
    /// Read latency for [`BackendKind::FixedLatency`].
    pub fixed_read_latency: Time,
    /// Write latency for [`BackendKind::FixedLatency`].
    pub fixed_write_latency: Time,
}

/// Default [`BackendKind::FixedLatency`] read latency — the ~100 ns
/// AIT-buffer-hit read the paper cites as the idle Optane latency scale.
pub const FIXED_READ_NS: u64 = 100;

/// Default [`BackendKind::FixedLatency`] write latency — an
/// LSQ-overflowed NT-store scale.
pub const FIXED_WRITE_NS: u64 = 300;

impl Default for BackendConfig {
    fn default() -> Self {
        BackendConfig {
            dimms: 1,
            fixed_read_latency: Time::from_ns(FIXED_READ_NS),
            fixed_write_latency: Time::from_ns(FIXED_WRITE_NS),
        }
    }
}

impl BackendConfig {
    /// The default configuration with a different DIMM count.
    pub fn with_dimms(dimms: u32) -> Self {
        BackendConfig {
            dimms,
            ..Default::default()
        }
    }
}

/// Session-scoped options applied to a backend in one call.
///
/// Replaces the grown family of toggle setters (`set_trace_sink`,
/// `set_durability_tracking`, ...): build the options once and hand them
/// to [`MemoryBackend::configure_session`]. Unset fields leave the
/// backend's current setting untouched.
///
/// # Example
///
/// ```
/// use nvsim_types::backend::SessionOptions;
///
/// let opts = SessionOptions::new()
///     .durability_tracking(true)
///     .snapshot_interval(1_000_000);
/// assert_eq!(opts.durability_tracking_requested(), Some(true));
/// ```
#[derive(Default)]
pub struct SessionOptions {
    trace_sink: Option<Box<dyn TraceSink>>,
    durability_tracking: Option<bool>,
    snapshot_interval: Option<u64>,
}

impl fmt::Debug for SessionOptions {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SessionOptions")
            .field("trace_sink", &self.trace_sink.is_some())
            .field("durability_tracking", &self.durability_tracking)
            .field("snapshot_interval", &self.snapshot_interval)
            .finish()
    }
}

impl SessionOptions {
    /// An empty options object (applies nothing).
    pub fn new() -> Self {
        SessionOptions::default()
    }

    /// Installs a trace sink (enables per-stage span collection if the
    /// sink wants traces).
    #[must_use]
    pub fn trace_sink(mut self, sink: Box<dyn TraceSink>) -> Self {
        self.trace_sink = Some(sink);
        self
    }

    /// Enables or disables per-line durability tracking.
    #[must_use]
    pub fn durability_tracking(mut self, enabled: bool) -> Self {
        self.durability_tracking = Some(enabled);
        self
    }

    /// Requests an automatic checkpoint every `instructions` committed
    /// instructions (consumed by sampling drivers; backends just store
    /// it).
    #[must_use]
    pub fn snapshot_interval(mut self, instructions: u64) -> Self {
        self.snapshot_interval = Some(instructions);
        self
    }

    /// Takes the trace sink out of the options, if one was set.
    pub fn take_trace_sink(&mut self) -> Option<Box<dyn TraceSink>> {
        self.trace_sink.take()
    }

    /// The requested durability-tracking change, if any.
    pub fn durability_tracking_requested(&self) -> Option<bool> {
        self.durability_tracking
    }

    /// The requested snapshot interval, if any.
    pub fn snapshot_interval_requested(&self) -> Option<u64> {
        self.snapshot_interval
    }
}

/// Event and traffic counters every backend exposes.
///
/// Counters a given model does not implement stay zero; LENS only interprets
/// counters relevant to the behaviour it probes. All byte counters are of
/// traffic at the named interface, which is what makes amplification ratios
/// (Fig 6, Fig 9c) directly computable:
/// `read_amplification = media_bytes_read / bus_bytes_read`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct BackendCounters {
    /// Read requests that crossed the host memory bus.
    pub bus_reads: u64,
    /// Write requests that crossed the host memory bus.
    pub bus_writes: u64,
    /// Bytes read over the host memory bus.
    pub bus_bytes_read: u64,
    /// Bytes written over the host memory bus.
    pub bus_bytes_written: u64,
    /// RMW-buffer lookups that hit.
    pub rmw_hits: u64,
    /// RMW-buffer lookups that missed.
    pub rmw_misses: u64,
    /// AIT-buffer lookups that hit.
    pub ait_hits: u64,
    /// AIT-buffer lookups that missed.
    pub ait_misses: u64,
    /// Bytes read from the NVRAM media arrays.
    pub media_bytes_read: u64,
    /// Bytes written to the NVRAM media arrays.
    pub media_bytes_written: u64,
    /// Wear-leveling migrations triggered.
    pub migrations: u64,
    /// Write-combining merges performed in the on-DIMM LSQ.
    pub lsq_combines: u64,
    /// Accesses to the on-DIMM DRAM (AIT table + AIT buffer).
    pub on_dimm_dram_accesses: u64,
    /// Fences processed.
    pub fences: u64,
}

impl BackendCounters {
    /// Read amplification at the media interface relative to bus reads
    /// (`None` if no bus reads happened).
    pub fn read_amplification(&self) -> Option<f64> {
        (self.bus_bytes_read > 0).then(|| self.media_bytes_read as f64 / self.bus_bytes_read as f64)
    }

    /// Write amplification at the media interface relative to bus writes
    /// (`None` if no bus writes happened).
    pub fn write_amplification(&self) -> Option<f64> {
        (self.bus_bytes_written > 0)
            .then(|| self.media_bytes_written as f64 / self.bus_bytes_written as f64)
    }

    /// RMW-buffer hit rate (`None` if no lookups).
    pub fn rmw_hit_rate(&self) -> Option<f64> {
        let total = self.rmw_hits + self.rmw_misses;
        (total > 0).then(|| self.rmw_hits as f64 / total as f64)
    }

    /// AIT-buffer hit rate (`None` if no lookups).
    pub fn ait_hit_rate(&self) -> Option<f64> {
        let total = self.ait_hits + self.ait_misses;
        (total > 0).then(|| self.ait_hits as f64 / total as f64)
    }

    /// Difference `self - earlier`, for windowed measurements.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if any counter in `earlier` exceeds this one.
    pub fn delta_since(&self, earlier: &BackendCounters) -> BackendCounters {
        BackendCounters {
            bus_reads: self.bus_reads - earlier.bus_reads,
            bus_writes: self.bus_writes - earlier.bus_writes,
            bus_bytes_read: self.bus_bytes_read - earlier.bus_bytes_read,
            bus_bytes_written: self.bus_bytes_written - earlier.bus_bytes_written,
            rmw_hits: self.rmw_hits - earlier.rmw_hits,
            rmw_misses: self.rmw_misses - earlier.rmw_misses,
            ait_hits: self.ait_hits - earlier.ait_hits,
            ait_misses: self.ait_misses - earlier.ait_misses,
            media_bytes_read: self.media_bytes_read - earlier.media_bytes_read,
            media_bytes_written: self.media_bytes_written - earlier.media_bytes_written,
            migrations: self.migrations - earlier.migrations,
            lsq_combines: self.lsq_combines - earlier.lsq_combines,
            on_dimm_dram_accesses: self.on_dimm_dram_accesses - earlier.on_dimm_dram_accesses,
            fences: self.fences - earlier.fences,
        }
    }

    /// A map view of all counters, for tabular experiment output.
    pub fn as_map(&self) -> BTreeMap<&'static str, u64> {
        let mut m = BTreeMap::new();
        m.insert("bus_reads", self.bus_reads);
        m.insert("bus_writes", self.bus_writes);
        m.insert("bus_bytes_read", self.bus_bytes_read);
        m.insert("bus_bytes_written", self.bus_bytes_written);
        m.insert("rmw_hits", self.rmw_hits);
        m.insert("rmw_misses", self.rmw_misses);
        m.insert("ait_hits", self.ait_hits);
        m.insert("ait_misses", self.ait_misses);
        m.insert("media_bytes_read", self.media_bytes_read);
        m.insert("media_bytes_written", self.media_bytes_written);
        m.insert("migrations", self.migrations);
        m.insert("lsq_combines", self.lsq_combines);
        m.insert("on_dimm_dram_accesses", self.on_dimm_dram_accesses);
        m.insert("fences", self.fences);
        m
    }
}

/// A simulated memory system that requests can be issued against.
///
/// The driving pattern is synchronous-ish discrete-event simulation:
///
/// * [`submit`](MemoryBackend::submit) enqueues a request at the backend's
///   current time and returns its id *without* advancing time.
/// * [`wait_for`](MemoryBackend::wait_for) advances simulated time until the
///   given request completes and returns the completion time. Other requests
///   may complete along the way.
/// * [`drain`](MemoryBackend::drain) advances time until the backend is idle.
/// * [`skip_to`](MemoryBackend::skip_to) models the issuing agent being busy
///   elsewhere (compute, another channel) until `t`.
///
/// Dependent-access experiments (pointer chasing) alternate
/// `submit`/`wait_for`; bandwidth experiments `submit` a window of requests
/// and then `drain`.
///
/// Backends are `Send` so a driver may *move* one between worker threads
/// (the `nvsim-serve` executor migrates whole sessions this way). They
/// are deliberately not `Sync`: a backend is single-threaded by
/// construction and only ever driven from one thread at a time.
pub trait MemoryBackend: Send {
    /// Human-readable model name ("VANS", "PMEP", "Ramulator-PCM", ...).
    fn label(&self) -> String;

    /// Current simulated time.
    fn now(&self) -> Time;

    /// Enqueues a request at the current simulated time.
    ///
    /// Backpressure is modeled inside the backend: if internal queues are
    /// full the request waits in an unbounded front-end queue, exactly like
    /// a core stalling on a full WPQ.
    fn submit(&mut self, desc: RequestDesc) -> ReqId;

    /// Removes request `id` from the in-flight set and returns its
    /// completion time **without advancing the clock** — the primitive
    /// for overlap-aware agents (the CPU model's miss window) that issue
    /// younger requests while older ones are still in flight.
    ///
    /// Returns [`BackendError::UnknownRequest`] if `id` was never
    /// submitted or its completion was already taken.
    fn try_take_completion(&mut self, id: ReqId) -> Result<Time, BackendError>;

    /// Infallible variant of
    /// [`try_take_completion`](MemoryBackend::try_take_completion), for
    /// drivers whose request bookkeeping makes a miss a logic bug: the
    /// canonical use is taking the completion of a request the caller has
    /// just submitted and never detached, which cannot legitimately miss.
    ///
    /// This is the one sanctioned panic site for completion bookkeeping;
    /// datapath code calls this instead of `.expect(..)`-ing the fallible
    /// variant so the invariant is stated (and audited) in exactly one place.
    ///
    /// # Panics
    ///
    /// Panics if `id` was never submitted or was already taken.
    fn expect_completion(&mut self, id: ReqId) -> Time {
        match self.try_take_completion(id) {
            Ok(t) => t,
            #[expect(
                clippy::panic,
                reason = "the single documented logic-bug panic backing every infallible \
                          completion take; callers that can miss must use try_take_completion"
            )]
            Err(e) => panic!("expect_completion: {e}"),
        }
    }

    /// Advances simulated time until request `id` completes; returns the
    /// completion time.
    ///
    /// # Panics
    ///
    /// Panics if `id` was never submitted or already waited for.
    fn wait_for(&mut self, id: ReqId) -> Time {
        let done = self.expect_completion(id);
        self.skip_to(done);
        done
    }

    /// Advances simulated time until no request is in flight; returns the
    /// time at which the backend became idle.
    fn drain(&mut self) -> Time;

    /// Advances the clock to `t` (processing any internal events) without
    /// submitting new work. No-op if `t` is in the past.
    fn skip_to(&mut self, t: Time);

    /// Snapshot of the backend's counters.
    fn counters(&self) -> BackendCounters;

    /// Resets all counters to zero (time is *not* reset).
    fn reset_counters(&mut self);

    /// Issues a request and waits for it; convenience for dependent chains.
    fn execute(&mut self, desc: RequestDesc) -> Time {
        let id = self.submit(desc);
        self.wait_for(id)
    }

    /// Issues a fence and waits for it to retire.
    fn fence(&mut self) -> Time {
        self.execute(RequestDesc::fence())
    }

    /// Issues `descs` back-to-back and waits for all of them; returns the
    /// time the last one completed.
    fn execute_batch(&mut self, descs: &[RequestDesc]) -> Time {
        for &d in descs {
            self.submit(d);
        }
        self.drain()
    }

    /// Whether this backend distinguishes `op` from a plain load/store.
    ///
    /// Baseline DRAM-style models treat `StoreClwb`/`NtStore` as `Store`;
    /// they report `false` so LENS can annotate its reports.
    fn models_persistence_ops(&self) -> bool {
        false
    }

    /// Pre-translation lookup for an `mkpt`-marked pointer-chasing read
    /// (the Pre-translation case study of the VANS paper, §V-B).
    ///
    /// Returns `Some((pfn, ready_at))` — the page frame number of the next
    /// pointer hop and the time the piggybacked TLB entry is available —
    /// if the backend implements pre-translation and has an entry for
    /// `paddr`. The default implementation (no pre-translation hardware)
    /// returns `None`.
    fn mkpt_lookup(&mut self, _paddr: Addr, _t: Time) -> Option<(u64, Time)> {
        None
    }

    /// Installs or refreshes a pre-translation entry: the pointer stored
    /// at `paddr` targets page frame `pfn`. No-op by default.
    fn mkpt_update(&mut self, _paddr: Addr, _pfn: u64) {}

    /// Applies session-scoped options (trace sink, durability tracking,
    /// snapshot interval) in one call.
    ///
    /// Returns `true` if every *requested* option is supported by this
    /// backend; `false` if at least one was ignored (e.g. a trace sink
    /// handed to a model without span recording). Unset options never
    /// affect the result. The default implementation supports nothing.
    fn configure_session(&mut self, opts: SessionOptions) -> bool {
        let mut opts = opts;
        let unsupported = opts.take_trace_sink().is_some()
            || opts.durability_tracking_requested().is_some()
            || opts.snapshot_interval_requested().is_some();
        !unsupported
    }

    /// Resolves a power-fail [`FaultPlan`] against the run's durability
    /// history and returns the resulting [`CrashImage`], or `None` if this
    /// backend does not model persistence-domain fault injection (the
    /// default). The injection is read-only: the clock does not advance
    /// and the run can be continued afterwards.
    fn inject_power_loss(&self, _plan: &FaultPlan) -> Option<CrashImage> {
        None
    }

    /// Per-stage latency breakdown aggregated by the installed trace sink,
    /// if the backend supports tracing and the sink computes one.
    fn breakdown(&self) -> Option<LatencyBreakdown> {
        None
    }

    /// Serializes the backend's full mutable state into a framed snapshot
    /// blob (see [`crate::snapshot`]), or `None` if this backend does not
    /// support checkpointing.
    fn save_snapshot(&self) -> Option<Vec<u8>> {
        None
    }

    /// Restores state previously captured by
    /// [`save_snapshot`](MemoryBackend::save_snapshot) on an identically
    /// configured instance. Returns `Ok(true)` on success, `Ok(false)` if
    /// this backend does not support checkpointing (the default).
    ///
    /// # Errors
    ///
    /// Returns a [`SnapshotError`] if the blob is malformed, has an
    /// unsupported version, or does not match this configuration.
    fn restore_snapshot(&mut self, _blob: &[u8]) -> Result<bool, SnapshotError> {
        Ok(false)
    }

    /// Functional-warming access: updates stateful structures (buffers,
    /// recency, wear heat) the way `desc` would, **without** any timing,
    /// queueing or counter accounting. The sampled-simulation driver uses
    /// this between detailed windows. No-op by default.
    fn warm_access(&mut self, _desc: &RequestDesc) {}
}

/// Blanket impl so `&mut B` can be passed wherever a backend is expected.
impl<B: MemoryBackend + ?Sized> MemoryBackend for &mut B {
    fn label(&self) -> String {
        (**self).label()
    }
    fn now(&self) -> Time {
        (**self).now()
    }
    fn submit(&mut self, desc: RequestDesc) -> ReqId {
        (**self).submit(desc)
    }
    fn try_take_completion(&mut self, id: ReqId) -> Result<Time, BackendError> {
        (**self).try_take_completion(id)
    }
    fn expect_completion(&mut self, id: ReqId) -> Time {
        (**self).expect_completion(id)
    }
    fn wait_for(&mut self, id: ReqId) -> Time {
        (**self).wait_for(id)
    }
    fn drain(&mut self) -> Time {
        (**self).drain()
    }
    fn skip_to(&mut self, t: Time) {
        (**self).skip_to(t)
    }
    fn counters(&self) -> BackendCounters {
        (**self).counters()
    }
    fn reset_counters(&mut self) {
        (**self).reset_counters()
    }
    fn models_persistence_ops(&self) -> bool {
        (**self).models_persistence_ops()
    }
    fn mkpt_lookup(&mut self, paddr: Addr, t: Time) -> Option<(u64, Time)> {
        (**self).mkpt_lookup(paddr, t)
    }
    fn mkpt_update(&mut self, paddr: Addr, pfn: u64) {
        (**self).mkpt_update(paddr, pfn)
    }
    fn configure_session(&mut self, opts: SessionOptions) -> bool {
        (**self).configure_session(opts)
    }
    fn inject_power_loss(&self, plan: &FaultPlan) -> Option<CrashImage> {
        (**self).inject_power_loss(plan)
    }
    fn breakdown(&self) -> Option<LatencyBreakdown> {
        (**self).breakdown()
    }
    fn save_snapshot(&self) -> Option<Vec<u8>> {
        (**self).save_snapshot()
    }
    fn restore_snapshot(&mut self, blob: &[u8]) -> Result<bool, SnapshotError> {
        (**self).restore_snapshot(blob)
    }
    fn warm_access(&mut self, desc: &RequestDesc) {
        (**self).warm_access(desc)
    }
}

impl Snapshot for BackendCounters {
    fn save(&self, w: &mut SnapshotWriter) {
        for (_, v) in self.as_map() {
            w.put_u64(v);
        }
    }

    fn restore(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        // Same alphabetical order as `as_map`.
        self.ait_hits = r.get_u64()?;
        self.ait_misses = r.get_u64()?;
        self.bus_bytes_read = r.get_u64()?;
        self.bus_bytes_written = r.get_u64()?;
        self.bus_reads = r.get_u64()?;
        self.bus_writes = r.get_u64()?;
        self.fences = r.get_u64()?;
        self.lsq_combines = r.get_u64()?;
        self.media_bytes_read = r.get_u64()?;
        self.media_bytes_written = r.get_u64()?;
        self.migrations = r.get_u64()?;
        self.on_dimm_dram_accesses = r.get_u64()?;
        self.rmw_hits = r.get_u64()?;
        self.rmw_misses = r.get_u64()?;
        Ok(())
    }
}

/// The completion times a backend has computed but not yet handed back,
/// in ascending request-id order.
///
/// Backends hand out ascending ids, and drivers take a completion right
/// after submitting it, so [`take`](InFlight::take) looks at the newest
/// entry first and binary-searches the rest. The snapshot encoding is
/// `usize n, n × (u64 id, time)`; a restored list must strictly ascend,
/// and [`check_issued`](InFlight::check_issued) rejects an id the backend
/// has not handed out yet.
#[derive(Debug, Clone, Default)]
pub struct InFlight {
    entries: Vec<(ReqId, Time)>,
}

impl InFlight {
    /// Records that request `id`, newer than every held one, completes
    /// at `done`.
    pub fn push(&mut self, id: ReqId, done: Time) {
        debug_assert!(
            self.entries.last().is_none_or(|&(newest, _)| newest < id),
            "{id} is not newer than every in-flight request"
        );
        self.entries.push((id, done));
    }

    /// Removes request `id` and returns its completion time.
    ///
    /// # Errors
    ///
    /// [`BackendError::UnknownRequest`] if `id` is not held: never
    /// submitted or already taken.
    pub fn take(&mut self, id: ReqId) -> Result<Time, BackendError> {
        match self.entries.last() {
            Some(&(newest, done)) if newest == id => {
                self.entries.pop();
                Ok(done)
            }
            _ => {
                let pos = self
                    .entries
                    .binary_search_by_key(&id, |&(i, _)| i)
                    .map_err(|_| BackendError::UnknownRequest(id))?;
                Ok(self.entries.remove(pos).1)
            }
        }
    }

    /// Empties the store; returns the latest of `now` and every held
    /// completion time.
    pub fn drain(&mut self, now: Time) -> Time {
        self.entries
            .drain(..)
            .fold(now, |last, (_, done)| last.max(done))
    }

    /// Rejects a restored list holding an id at or past `next_id`, the
    /// next id the backend hands out: a later request would find that
    /// id's completion instead of its own.
    ///
    /// # Errors
    ///
    /// [`SnapshotErrorKind::Invalid`](crate::snapshot::SnapshotErrorKind::Invalid)
    /// at `r`'s offset.
    pub fn check_issued(&self, next_id: u64, r: &SnapshotReader<'_>) -> Result<(), SnapshotError> {
        if self
            .entries
            .last()
            .is_some_and(|&(newest, _)| newest.0 >= next_id)
        {
            return Err(r.invalid("in-flight id not yet handed out"));
        }
        Ok(())
    }

    /// Saves in the has-newest layout: a flag, then `(u64 id, time)` of
    /// request `next_id - 1` if it is held, then the older entries in the
    /// [`Snapshot`] encoding.
    pub fn save_newest_flagged(&self, next_id: u64, w: &mut SnapshotWriter) {
        match self.entries.split_last() {
            Some((&(id, done), older)) if id.0.checked_add(1) == Some(next_id) => {
                w.put_bool(true);
                w.put_u64(id.0);
                w.put_time(done);
                save_entries(older, w);
            }
            _ => {
                w.put_bool(false);
                save_entries(&self.entries, w);
            }
        }
    }

    /// Restores what [`save_newest_flagged`](InFlight::save_newest_flagged)
    /// wrote for the same `next_id`.
    ///
    /// # Errors
    ///
    /// [`SnapshotErrorKind::Invalid`](crate::snapshot::SnapshotErrorKind::Invalid)
    /// if a flagged entry is not request `next_id - 1` or an older entry
    /// is not below it, and every error of the [`Snapshot`] restore.
    pub fn restore_newest_flagged(
        &mut self,
        next_id: u64,
        r: &mut SnapshotReader<'_>,
    ) -> Result<(), SnapshotError> {
        let newest = if r.get_bool()? {
            Some((ReqId(r.get_u64()?), r.get_time()?))
        } else {
            None
        };
        self.restore(r)?;
        self.check_issued(next_id.saturating_sub(1), r)?;
        if let Some((id, done)) = newest {
            if id.0.checked_add(1) != Some(next_id) {
                return Err(r.invalid("flagged in-flight id is not the newest handed out"));
            }
            self.entries.push((id, done));
        }
        Ok(())
    }
}

/// Writes `usize n, n × (u64 id, time)`.
fn save_entries(entries: &[(ReqId, Time)], w: &mut SnapshotWriter) {
    w.put_usize(entries.len());
    for &(id, done) in entries {
        w.put_u64(id.0);
        w.put_time(done);
    }
}

impl Snapshot for InFlight {
    fn save(&self, w: &mut SnapshotWriter) {
        save_entries(&self.entries, w);
    }

    fn restore(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        let n = r.get_usize()?;
        if n > r.remaining() {
            return Err(r.invalid("in-flight count exceeds the blob"));
        }
        self.entries.clear();
        for _ in 0..n {
            let id = ReqId(r.get_u64()?);
            let done = r.get_time()?;
            if self.entries.last().is_some_and(|&(older, _)| older >= id) {
                return Err(r.invalid("in-flight ids do not strictly ascend"));
            }
            self.entries.push((id, done));
        }
        Ok(())
    }
}

/// A trivial fixed-latency backend, useful in tests of driver code.
///
/// Reads and writes complete a constant latency after they are submitted,
/// with unlimited parallelism. Not a model of anything real.
///
/// # Example
///
/// ```
/// use nvsim_types::backend::FixedLatencyBackend;
/// use nvsim_types::{Addr, MemoryBackend, RequestDesc, Time};
///
/// let mut mem = FixedLatencyBackend::new(Time::from_ns(100), Time::from_ns(300));
/// let t = mem.execute(RequestDesc::load(Addr::new(0x40)));
/// assert_eq!(t, Time::from_ns(100));
/// ```
#[derive(Debug, Clone)]
pub struct FixedLatencyBackend {
    // nvsim-lint: allow(snapshot-field-coverage) — construction-time configuration; never mutated.
    read_latency: Time,
    // nvsim-lint: allow(snapshot-field-coverage) — construction-time configuration; never mutated.
    write_latency: Time,
    now: Time,
    next_id: u64,
    in_flight: InFlight,
    counters: BackendCounters,
}

impl FixedLatencyBackend {
    /// Creates a backend with the given read and write latencies.
    pub fn new(read_latency: Time, write_latency: Time) -> Self {
        FixedLatencyBackend {
            read_latency,
            write_latency,
            now: Time::ZERO,
            next_id: 0,
            in_flight: InFlight::default(),
            counters: BackendCounters::default(),
        }
    }
}

impl MemoryBackend for FixedLatencyBackend {
    fn label(&self) -> String {
        "fixed-latency".to_owned()
    }

    fn now(&self) -> Time {
        self.now
    }

    fn submit(&mut self, desc: RequestDesc) -> ReqId {
        let id = ReqId(self.next_id);
        self.next_id += 1;
        let latency = match desc.op {
            MemOp::Load => {
                self.counters.bus_reads += 1;
                self.counters.bus_bytes_read += desc.size as u64;
                self.read_latency
            }
            MemOp::Fence => {
                self.counters.fences += 1;
                Time::ZERO
            }
            _ => {
                self.counters.bus_writes += 1;
                self.counters.bus_bytes_written += desc.size as u64;
                self.write_latency
            }
        };
        self.in_flight.push(id, self.now + latency);
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

    fn save_snapshot(&self) -> Option<Vec<u8>> {
        Some(crate::snapshot::save_blob(self))
    }

    fn restore_snapshot(&mut self, blob: &[u8]) -> Result<bool, SnapshotError> {
        crate::snapshot::restore_blob(self, blob)?;
        Ok(true)
    }
}

/// Section tag of [`FixedLatencyBackend`] snapshots.
const SECTION_FIXED_LATENCY: u16 = 0x0F;

impl Snapshot for FixedLatencyBackend {
    fn save(&self, w: &mut SnapshotWriter) {
        w.section(SECTION_FIXED_LATENCY);
        w.put_time(self.now);
        w.put_u64(self.next_id);
        self.in_flight.save(w);
        self.counters.save(w);
    }

    fn restore(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        r.expect_section(SECTION_FIXED_LATENCY)?;
        self.now = r.get_time()?;
        self.next_id = r.get_u64()?;
        self.in_flight.restore(r)?;
        self.in_flight.check_issued(self.next_id, r)?;
        self.counters.restore(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::Addr;

    fn mem() -> FixedLatencyBackend {
        FixedLatencyBackend::new(Time::from_ns(100), Time::from_ns(300))
    }

    #[test]
    fn execute_advances_time() {
        let mut m = mem();
        let t1 = m.execute(RequestDesc::load(Addr::new(0)));
        assert_eq!(t1, Time::from_ns(100));
        let t2 = m.execute(RequestDesc::store(Addr::new(64)));
        assert_eq!(t2, Time::from_ns(400));
        assert_eq!(m.now(), Time::from_ns(400));
    }

    #[test]
    fn batch_overlaps_in_fixed_backend() {
        let mut m = mem();
        let descs: Vec<_> = (0..8)
            .map(|i| RequestDesc::load(Addr::new(i * 64)))
            .collect();
        let done = m.execute_batch(&descs);
        // Unlimited parallelism: all 8 finish at 100ns.
        assert_eq!(done, Time::from_ns(100));
    }

    #[test]
    fn counters_track_traffic() {
        let mut m = mem();
        m.execute(RequestDesc::load(Addr::new(0)));
        m.execute(RequestDesc::nt_store(Addr::new(64)));
        m.fence();
        let c = m.counters();
        assert_eq!(c.bus_reads, 1);
        assert_eq!(c.bus_writes, 1);
        assert_eq!(c.bus_bytes_read, 64);
        assert_eq!(c.bus_bytes_written, 64);
        assert_eq!(c.fences, 1);
        m.reset_counters();
        assert_eq!(m.counters(), BackendCounters::default());
    }

    #[test]
    fn skip_to_moves_clock_forward_only() {
        let mut m = mem();
        m.skip_to(Time::from_ns(500));
        assert_eq!(m.now(), Time::from_ns(500));
        m.skip_to(Time::from_ns(100));
        assert_eq!(m.now(), Time::from_ns(500));
    }

    #[test]
    fn amplification_ratios() {
        let c = BackendCounters {
            bus_bytes_read: 64,
            media_bytes_read: 256,
            ..Default::default()
        };
        assert_eq!(c.read_amplification(), Some(4.0));
        assert_eq!(c.write_amplification(), None);
    }

    #[test]
    fn counter_deltas() {
        let early = BackendCounters {
            bus_reads: 10,
            migrations: 1,
            ..Default::default()
        };
        let late = BackendCounters {
            bus_reads: 25,
            migrations: 3,
            ..Default::default()
        };
        let d = late.delta_since(&early);
        assert_eq!(d.bus_reads, 15);
        assert_eq!(d.migrations, 2);
    }

    #[test]
    fn counters_map_is_complete() {
        let c = BackendCounters::default();
        assert_eq!(c.as_map().len(), 14);
    }

    #[test]
    fn trait_object_usable_via_mut_ref() {
        let mut m = mem();
        fn drive(b: &mut dyn MemoryBackend) -> Time {
            b.execute(RequestDesc::load(Addr::new(0)))
        }
        assert_eq!(drive(&mut m), Time::from_ns(100));
    }

    #[test]
    fn try_take_completion_reports_unknown_ids() {
        let mut m = mem();
        let id = m.submit(RequestDesc::load(Addr::new(0)));
        assert_eq!(m.try_take_completion(id), Ok(Time::from_ns(100)));
        assert_eq!(
            m.try_take_completion(id),
            Err(crate::error::BackendError::UnknownRequest(id))
        );
        assert_eq!(
            m.try_take_completion(ReqId(999)),
            Err(crate::error::BackendError::UnknownRequest(ReqId(999)))
        );
    }

    #[test]
    fn expect_completion_returns_fresh_completions() {
        let mut m = mem();
        let id = m.submit(RequestDesc::load(Addr::new(0)));
        assert_eq!(m.expect_completion(id), Time::from_ns(100));
    }

    #[test]
    #[should_panic(expected = "not in flight")]
    fn expect_completion_panics_on_unknown() {
        mem().expect_completion(ReqId(42));
    }

    #[test]
    fn tracing_unsupported_by_default() {
        let mut m = mem();
        assert!(!m
            .configure_session(SessionOptions::new().trace_sink(Box::new(crate::trace::NullSink))));
        assert!(m.breakdown().is_none());
    }

    #[test]
    fn fault_injection_unsupported_by_default() {
        let m = mem();
        assert!(m
            .inject_power_loss(&crate::durability::FaultPlan::at_insertion(0))
            .is_none());
    }

    /// Backends are movable between threads by contract: a `Box<dyn
    /// MemoryBackend>` must satisfy a `Send` bound (the serve executor
    /// migrates sessions across workers this way).
    #[test]
    fn boxed_backends_are_send() {
        fn assert_send<T: Send>(_: T) {}
        assert_send(Box::new(mem()) as Box<dyn MemoryBackend>);
    }

    #[test]
    fn empty_session_options_always_apply() {
        let mut m = mem();
        assert!(m.configure_session(SessionOptions::new()));
        assert!(!m.configure_session(SessionOptions::new().durability_tracking(true)));
    }

    #[test]
    fn backend_kind_parses_all_names() {
        for kind in BackendKind::ALL {
            assert_eq!(kind.name().parse::<BackendKind>().unwrap(), kind);
            assert_eq!(kind.to_string(), kind.name());
        }
        assert!("nope".parse::<BackendKind>().is_err());
    }

    #[test]
    fn fixed_latency_snapshot_roundtrips_midflight() {
        let mut m = mem();
        m.execute(RequestDesc::load(Addr::new(0)));
        let pending = m.submit(RequestDesc::store(Addr::new(64)));
        let blob = m.save_snapshot().unwrap();
        let mut copy = mem();
        assert!(copy.restore_snapshot(&blob).unwrap());
        assert_eq!(copy.now(), m.now());
        assert_eq!(copy.counters(), m.counters());
        assert_eq!(
            copy.try_take_completion(pending),
            m.try_take_completion(pending)
        );
        // Subsequent execution is identical.
        assert_eq!(
            copy.execute(RequestDesc::load(Addr::new(128))),
            m.execute(RequestDesc::load(Addr::new(128)))
        );
    }

    #[test]
    fn in_flight_takes_each_held_id_once() {
        let mut s = InFlight::default();
        for i in 0..6 {
            s.push(ReqId(i), Time::from_ns(10 * i));
        }
        assert_eq!(s.take(ReqId(5)), Ok(Time::from_ns(50)));
        assert_eq!(s.take(ReqId(2)), Ok(Time::from_ns(20)));
        assert_eq!(s.take(ReqId(0)), Ok(Time::ZERO));
        for id in [ReqId(2), ReqId(5), ReqId(9)] {
            assert_eq!(s.take(id), Err(BackendError::UnknownRequest(id)));
        }
        assert_eq!(s.drain(Time::from_ns(7)), Time::from_ns(40));
        assert_eq!(s.drain(Time::from_ns(7)), Time::from_ns(7));
    }

    /// A framed fixed-latency blob: clock zero, `next_id`, the in-flight
    /// list `(id, ns)` as given, zero counters.
    fn fixed_blob(next_id: u64, in_flight: &[(u64, u64)]) -> Vec<u8> {
        let mut w = SnapshotWriter::new();
        w.section(SECTION_FIXED_LATENCY);
        w.put_time(Time::ZERO);
        w.put_u64(next_id);
        w.put_usize(in_flight.len());
        for &(id, ns) in in_flight {
            w.put_u64(id);
            w.put_time(Time::from_ns(ns));
        }
        BackendCounters::default().save(&mut w);
        let mut blob = crate::snapshot::MAGIC.to_vec();
        blob.push(crate::snapshot::VERSION);
        blob.extend(w.into_bytes());
        blob
    }

    fn is_invalid(r: Result<bool, SnapshotError>) -> bool {
        matches!(
            r,
            Err(SnapshotError {
                kind: crate::snapshot::SnapshotErrorKind::Invalid(_),
                ..
            })
        )
    }

    #[test]
    fn restore_rejects_an_in_flight_id_not_yet_handed_out() {
        let mut m = mem();
        assert!(m.restore_snapshot(&fixed_blob(1, &[(0, 999)])).unwrap());
        // Request 0 at 999 ns, with id 0 still to be handed out, would
        // answer the next load's take with 999 ns instead of 100 ns.
        assert!(is_invalid(m.restore_snapshot(&fixed_blob(0, &[(0, 999)]))));
        assert!(is_invalid(
            m.restore_snapshot(&fixed_blob(3, &[(1, 5), (3, 9)]))
        ));
    }

    #[test]
    fn restore_rejects_a_duplicate_in_flight_id() {
        let mut m = mem();
        assert!(m
            .restore_snapshot(&fixed_blob(6, &[(2, 7), (5, 9)]))
            .unwrap());
        assert!(is_invalid(
            m.restore_snapshot(&fixed_blob(6, &[(5, 7), (5, 9)]))
        ));
        assert!(is_invalid(
            m.restore_snapshot(&fixed_blob(6, &[(5, 7), (2, 9)]))
        ));
    }

    #[test]
    fn fixed_latency_snapshot_rejects_garbage() {
        let mut m = mem();
        assert!(m.restore_snapshot(b"definitely not a snapshot").is_err());
        let mut blob = m.save_snapshot().unwrap();
        blob[4] = 9;
        assert!(m.restore_snapshot(&blob).is_err());
    }
}
