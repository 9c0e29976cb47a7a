//! 3D-XPoint-style NVRAM media model.
//!
//! This crate models the storage media inside an Optane-style NVRAM DIMM:
//!
//! * [`XpointMedia`] — an array of media **dies**, each serving 256 B
//!   access units with phase-change-style read/write latencies, connected
//!   to the on-DIMM buffers by a shared internal bus. Consecutive 256 B
//!   units interleave across dies, so a 4 KB AIT-buffer fill parallelizes
//!   across (up to) 16 dies.
//! * [`WearTracker`] — the hot-block detector that drives wear-leveling.
//!   The paper observes a long tail latency every ~14,000 iterations of a
//!   256 B overwrite loop, attributes it to wear-leveling migration, and
//!   finds the tail frequency collapses once the overwritten region spans
//!   two or more 64 KB blocks (Fig 7b/7c). The tracker reproduces exactly
//!   that: per-64 KB-block write counters with periodic exponential decay
//!   trigger a migration when a block absorbs a sustained majority of
//!   write traffic.
//!
//! The address-indirection translation itself (physical → media address)
//! lives in the `vans` crate's AIT model; this crate deliberately only
//! knows about *media* addresses.
//!
//! # Example
//!
//! ```
//! use nvsim_media::{MediaConfig, XpointMedia};
//! use nvsim_types::Time;
//!
//! let mut media = XpointMedia::new(MediaConfig::optane_like())?;
//! // A 4 KB read spreads over the dies and finishes in roughly one
//! // die-read latency plus the bus transfer.
//! let done = media.read(nvsim_media::MediaAddr::new(0), 4096, Time::ZERO);
//! assert!(done.as_ns() >= 150);
//! # Ok::<(), nvsim_types::ConfigError>(())
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

pub mod media;
pub mod params;
pub mod wear;

pub use media::{MediaAddr, MediaConfig, MediaStats, XpointMedia};
pub use wear::{WearConfig, WearEvent, WearTracker};
