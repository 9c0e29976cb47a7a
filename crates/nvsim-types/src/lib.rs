//! Common vocabulary types for the `nvsim` workspace.
//!
//! This crate holds the small, dependency-light building blocks shared by
//! every other crate in the workspace:
//!
//! * [`Time`] — simulated time in picoseconds.
//! * [`Addr`] / [`VirtAddr`] — physical and virtual address newtypes.
//! * [`Request`], [`MemOp`], [`ReqId`] — the memory-request vocabulary.
//! * [`MemoryBackend`] — the trait every simulated memory system implements,
//!   which is what the LENS profiler drives.
//! * [`stats`] — counters, histograms and running statistics.
//! * [`trace`] — per-stage latency attribution: [`Stage`], [`StageSpan`],
//!   [`RequestTrace`] and the [`TraceSink`] family.
//! * [`rng`] — a deterministic, seedable RNG (SplitMix64 / Xoshiro256++)
//!   so every simulation in the workspace is reproducible.
//! * [`durability`] — crash-consistency vocabulary: the per-line
//!   [`Durability`] state machine, [`PersistEvent`], [`FaultPlan`] and
//!   the [`CrashImage`] a power-fail injection produces.
//! * [`table`] — [`KeyTable`], a chunk-indexed `u64 → u64` table for
//!   per-page and per-unit state keyed below a configured bound.
//!
//! # Example
//!
//! ```
//! use nvsim_types::{Addr, MemOp, RequestDesc, Time};
//!
//! let req = RequestDesc::new(Addr::new(0x1000), 64, MemOp::Load);
//! assert_eq!(req.cache_lines(), 1);
//! let t = Time::from_ns(150);
//! assert_eq!(t.as_ns_f64(), 150.0);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::undocumented_unsafe_blocks,
    clippy::borrow_as_ptr,
    clippy::ref_as_ptr,
    clippy::allow_attributes,
    clippy::allow_attributes_without_reason
)]

pub mod addr;
pub mod backend;
pub mod durability;
pub mod error;
pub mod request;
pub mod rng;
pub mod snapshot;
pub mod stats;
pub mod table;
pub mod time;
pub mod trace;

pub use addr::{Addr, VirtAddr, CACHE_LINE, CACHE_LINE_U32, PAGE_SIZE};
pub use backend::{
    BackendConfig, BackendCounters, BackendKind, InFlight, MemoryBackend, SessionOptions,
};
pub use durability::{CrashCounters, CrashImage, Durability, FaultPlan, PersistEvent, ResolvedCut};
pub use error::{BackendError, ConfigError};
pub use request::{MemOp, ReqId, Request, RequestDesc};
pub use rng::{DetRng, SplitMix64};
pub use snapshot::{Snapshot, SnapshotError, SnapshotReader, SnapshotWriter};
pub use stats::{Histogram, RunningStats};
pub use table::KeyTable;
pub use time::Time;
pub use trace::{
    BreakdownSink, JsonlSink, LatencyBreakdown, NullSink, RequestTrace, SpanRecorder, Stage,
    StageSpan, TraceSink,
};
