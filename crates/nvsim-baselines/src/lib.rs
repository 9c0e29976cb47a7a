//! Baseline memory models.
//!
//! The paper motivates VANS by showing that the tools the community used
//! before real Optane hardware existed mispredict its behaviour (§II-B,
//! §II-C, Fig 1, Fig 3). This crate implements those baselines:
//!
//! * [`DramBackend`] — a conventional DRAM simulator in the mold of
//!   DRAMSim2/Ramulator: requests go straight to a DDR timing model.
//!   Instantiated with DDR3, DDR4 or PCM parameter sets, it plays the
//!   roles of the "DRAMSim2 DDR3", "Ramulator DDR4" and "Ramulator PCM"
//!   bars of Fig 3a and the Ramulator-PCM comparator of Fig 11.
//! * [`PmepBackend`] — the Persistent Memory Emulation Platform model:
//!   DRAM with injected extra latency and a bandwidth throttle. On PMEP,
//!   regular stores are fast (they hit the cache hierarchy) and
//!   non-temporal stores are the *slowest* write flavor — the ordering
//!   Optane inverts (Fig 1a).
//!
//! None of these model on-DIMM buffering, so their pointer-chasing curves
//! are flat where Optane's are staircased — exactly the discrepancy the
//! paper demonstrates.

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

pub mod dram_backend;
pub mod params;
pub mod pmep;

pub use dram_backend::DramBackend;
pub use pmep::{PmepBackend, PmepConfig};
