//! **nvsim** — a reproduction of *"Characterizing and Modeling
//! Non-Volatile Memory Systems"* (MICRO 2020): the LENS profiler, the
//! VANS simulator, and everything they need.
//!
//! This facade crate re-exports the workspace:
//!
//! * [`vans`] — the validated NVRAM simulator (iMC, LSQ, RMW buffer, AIT,
//!   wear-leveling, 4 KB interleaving) plus the Lazy-cache and
//!   Pre-translation case studies.
//! * [`lens`] — the profiler: pointer-chasing / overwrite / stride
//!   microbenchmarks and the buffer / policy / performance probers.
//! * [`optane_model`] — the analytical reference machine standing in for
//!   the paper's Optane server (validation target).
//! * [`baselines`] — PMEP and DRAMSim2/Ramulator-style comparators.
//! * [`cpu`] — the trace-driven CPU model (gem5 substitute).
//! * [`workloads`] — SPEC-calibrated and cloud workload generators.
//! * [`dram`] / [`media`] — the DDR timing and 3D-XPoint substrates.
//! * [`serve`] — the concurrent, deterministic simulation service
//!   (binary wire protocol, batched sessions, snapshot migration).
//! * [`types`] — shared vocabulary ([`types::MemoryBackend`] and friends).
//!
//! # Quickstart
//!
//! ```
//! use nvsim::prelude::*;
//!
//! // Build a single-DIMM Optane-like system and chase some pointers.
//! let mut sys = MemorySystem::new(VansConfig::optane_1dimm())?;
//! let lat = PtrChasing::read(8 << 10).run(&mut sys).latency_per_cl_ns();
//! assert!(lat > 0.0);
//! # Ok::<(), nvsim::types::ConfigError>(())
//! ```

#![warn(missing_docs)]
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

pub mod backends;

pub use lens;
pub use nvsim_baselines as baselines;
pub use nvsim_cpu as cpu;
pub use nvsim_dram as dram;
pub use nvsim_media as media;
pub use nvsim_serve as serve;
pub use nvsim_types as types;
pub use nvsim_workloads as workloads;
pub use optane_model;
pub use vans;

/// The most common imports in one place.
pub mod prelude {
    pub use lens::{
        BufferProber, CharacterizationReport, Overwrite, PerfProber, PolicyProber, PtrChasing,
        Stride,
    };
    pub use nvsim_cpu::{Core, CoreConfig, TraceOp};
    pub use nvsim_types::{
        Addr, BackendConfig, BackendCounters, BackendKind, CrashImage, Durability, FaultPlan,
        MemOp, MemoryBackend, RequestDesc, ResolvedCut, SessionOptions, Time, VirtAddr,
    };
    pub use nvsim_workloads::Workload;
    pub use optane_model::OptaneReference;
    pub use vans::{MemorySystem, VansConfig};
}

#[cfg(test)]
mod tests {
    #[test]
    fn facade_reexports_compile() {
        use crate::prelude::*;
        let _ = VansConfig::optane_1dimm();
        let _ = OptaneReference::new();
        let _ = Time::from_ns(1);
    }
}
