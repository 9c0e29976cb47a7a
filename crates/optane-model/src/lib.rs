//! An analytical reference model of the Optane DIMM measurements.
//!
//! The paper validates VANS by comparing simulator output against a real
//! Optane-DIMM server (§IV-C/D). This reproduction has no Optane hardware,
//! so the *reference machine* is substituted by this crate: a set of
//! piecewise analytical curves encoding the measured behaviour the paper
//! reports (knee positions, plateau latencies, bandwidth ordering, tail
//! period and magnitude). Validation then proceeds exactly as in the
//! paper: run the simulator, compare against the reference, report
//! accuracy.
//!
//! The curve parameters come from the paper's own figures and the numbers
//! it cites (16 KB / 16 MB read knees, 512 B / 4 KB write knees, ~100 ns
//! AIT-buffer read latency, tails every ~14,000 overwrites with >100×
//! penalty, 4 KB interleaving), with plateau levels consistent with the
//! published Optane characterization literature.
//!
//! # Example
//!
//! ```
//! use optane_model::OptaneReference;
//!
//! let m = OptaneReference::new();
//! let small = m.read_latency_ns(8 << 10, 1);
//! let large = m.read_latency_ns(256 << 20, 1);
//! assert!(small < 120.0 && large > 300.0);
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

pub mod backend;
pub mod curves;
pub mod params;
pub mod spec;

pub use backend::ReferenceBackend;
pub use curves::OptaneReference;
pub use spec::{SpecRef, SPEC_REFERENCE};
