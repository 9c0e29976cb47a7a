//! **LENS** — a Low-level profilEr for Non-volatile memory Systems.
//!
//! LENS reverse engineers the microarchitecture of an NVRAM memory system
//! purely from its timing behaviour, using three probers (§III of the
//! paper, Table II):
//!
//! | Prober | Microbenchmark | Behaviour triggered | Parameter recovered |
//! |---|---|---|---|
//! | Buffer | pointer chasing (64 B blocks) | buffer overflow | buffer sizes |
//! | Buffer | pointer chasing (varied blocks) | R/W amplification | entry sizes |
//! | Buffer | read-after-write | data fast-forwarding | hierarchy organization |
//! | Policy | sequential/strided writes | interleaving speedup | interleave scheme |
//! | Policy | overwrite (256 B region) | data migration | migration latency/frequency |
//! | Policy | overwrite (varied region) | data migration | migration block size |
//! | Perf | strided reads/writes | stable amplification | internal bandwidth |
//!
//! The paper implements LENS as a Linux kernel module driving real Optane
//! hardware; here the same analysis drives any
//! [`nvsim_types::MemoryBackend`] (VANS, the baselines, or the analytical
//! reference machine) — the probers' logic is identical.
//!
//! # Example
//!
//! ```no_run
//! use lens::probers::BufferProber;
//! use vans::{MemorySystem, VansConfig};
//!
//! let fresh = || MemorySystem::new(VansConfig::optane_1dimm()).expect("valid preset");
//! let report = BufferProber::default().probe_with(fresh);
//! println!("read buffers: {:?}", report.read_buffer_capacities);
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
    clippy::allow_attributes,
    clippy::allow_attributes_without_reason
)]

pub mod analysis;
pub mod capabilities;
pub mod microbench;
pub mod probers;
pub mod report;

pub use analysis::{detect_knees, tail_analysis, KneeDetection, TailAnalysis};
pub use microbench::{
    Overwrite, OverwriteResult, PtrChaseMode, PtrChasing, PtrChasingResult, Stride, StrideResult,
};
pub use probers::{BufferProber, BufferReport, PerfProber, PerfReport, PolicyProber, PolicyReport};
pub use report::{plateau_stage_breakdowns, CharacterizationReport, PlateauBreakdown};
