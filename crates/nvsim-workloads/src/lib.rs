//! Workload trace generators.
//!
//! Two families, matching the paper's two evaluation campaigns:
//!
//! * [`spec`] — synthetic instruction traces calibrated to Table IV's
//!   SPEC CPU 2006/2017 workloads (target LLC MPKI and footprint), used
//!   by the Fig 11 validation.
//! * [`cloud`] — behavioural models of the cloud workloads in §V:
//!   Redis (hash + linked-list pointer chasing, read-dominated), YCSB
//!   (Zipfian key-value with ten wear-hot lines), TPCC (transactional
//!   mix with log writes), fio (sequential write streaming), and the two
//!   PMDK microbenchmarks (persistent HashMap and LinkedList).
//!
//! All generators are deterministic given a seed, and produce
//! [`nvsim_cpu::TraceOp`] streams the CPU model consumes.

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
    clippy::allow_attributes,
    clippy::allow_attributes_without_reason
)]

pub mod cloud;
pub mod spec;
pub mod zipf;

pub use cloud::{CloudWorkload, FioWrite, PmdkHashMap, PmdkLinkedList, Redis, Tpcc, Ycsb};
pub use spec::SpecWorkloadGen;
pub use zipf::Zipfian;

use nvsim_cpu::TraceOp;
use nvsim_types::snapshot::SnapshotError;

/// A workload that can produce an instruction trace of roughly
/// `instructions` retired instructions.
pub trait Workload {
    /// Display name (matches the paper's figure labels).
    fn name(&self) -> &str;

    /// Generates the next `instructions` worth of trace.
    ///
    /// Calling this repeatedly continues the workload (state such as
    /// pointers, key popularity and log positions persists).
    fn generate(&mut self, instructions: u64) -> Vec<TraceOp>;

    /// Whether the workload's loads are marked with `mkpt` for the
    /// Pre-translation case study. Off by default; workloads that
    /// support marking override [`set_mkpt`](Workload::set_mkpt).
    fn mkpt_enabled(&self) -> bool {
        false
    }

    /// Enables or disables `mkpt` marking (a source-code modification in
    /// the paper; a flag here).
    fn set_mkpt(&mut self, _enabled: bool) {}

    /// Saves the generator's cursor state (RNG, stream cursors) so that a
    /// restored copy continues the *identical* trace. Returns `None` when
    /// the workload does not support checkpointing.
    fn save_state(&self) -> Option<Vec<u8>> {
        None
    }

    /// Restores cursor state captured by [`save_state`](Workload::save_state).
    /// Returns `Ok(false)` when the workload does not support
    /// checkpointing (state is untouched).
    ///
    /// # Errors
    ///
    /// Returns a [`SnapshotError`] when the blob is malformed or was
    /// saved by a different workload type.
    fn restore_state(&mut self, _blob: &[u8]) -> Result<bool, SnapshotError> {
        Ok(false)
    }
}
