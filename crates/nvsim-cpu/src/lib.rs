//! A trace-driven CPU model — the reproduction's substitute for gem5.
//!
//! The paper attaches VANS to gem5 for its SPEC CPU validation (Fig 11)
//! and cloud-workload case studies (Fig 12/13). gem5 is out of scope for
//! a Rust reproduction, so this crate provides the pieces those
//! experiments actually need:
//!
//! * [`cache::Cache`] — set-associative write-back/write-allocate caches,
//!   composed into the Cascade-Lake-like three-level
//!   [`cache::CacheHierarchy`] of Table V.
//! * [`tlb::TlbHierarchy`] — L1 DTLB + STLB with a page walker that
//!   issues real memory accesses, plus the Pre-translation hook
//!   (`mkpt`-marked loads install piggybacked entries, with the
//!   check-before-read validation modeled as an asynchronous confirm).
//! * [`core::Core`] — an MLP-windowed in-order-retire core: independent
//!   misses overlap up to the load-buffer depth, dependent (pointer
//!   chasing) loads serialize, and every cycle is attributed to a
//!   [`core::StallClass`] so Fig 12a's CPI breakdown is measurable.
//! * [`trace::TraceOp`] — the instruction-trace vocabulary produced by
//!   `nvsim-workloads`.
//!
//! # Example
//!
//! ```
//! use nvsim_cpu::{Core, CoreConfig, TraceOp};
//! use nvsim_types::backend::FixedLatencyBackend;
//! use nvsim_types::{Time, VirtAddr};
//!
//! let mut mem = FixedLatencyBackend::new(Time::from_ns(100), Time::from_ns(100));
//! let mut core = Core::new(CoreConfig::cascade_lake_like());
//! let trace = vec![
//!     TraceOp::compute(10),
//!     TraceOp::load(VirtAddr::new(0x1000)),
//!     TraceOp::store(VirtAddr::new(0x2000)),
//! ];
//! let report = core.run(trace.into_iter(), &mut mem);
//! assert_eq!(report.instructions, 12);
//! assert!(report.ipc() > 0.0);
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

pub mod cache;
pub mod core;
pub mod params;
pub mod tlb;
pub mod trace;
pub mod trace_io;

pub use crate::core::{Core, CoreConfig, RunReport, StallClass};
pub use cache::{Cache, CacheConfig, CacheHierarchy, HierarchyConfig};
pub use tlb::{TlbConfig, TlbHierarchy};
pub use trace::{OpClass, TraceOp};
