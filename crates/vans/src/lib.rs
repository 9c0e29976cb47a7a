//! **VANS** — a validated, modular NVRAM simulator.
//!
//! This crate is the core contribution of the reproduction of
//! *"Characterizing and Modeling Non-Volatile Memory Systems"*
//! (MICRO 2020): a timing model of the Intel Optane DC Persistent Memory
//! DIMM microarchitecture as reverse engineered by the LENS profiler.
//!
//! # Modeled datapath
//!
//! ```text
//!  CPU ──► iMC ──────────────► NVRAM DIMM ───────────────────► media
//!          │ WPQ (8×64B, ADR)   │ LSQ (64×64B, write combining)
//!          │ RPQ                │ RMW buffer (64×256B, SRAM)
//!          │ 4KB interleaver    │ AIT table + AIT buffer
//!          │ DDR-T bus          │   (4096×4KB, on-DIMM DDR4)
//!          │                    │ wear-leveling migration (64KB blocks)
//! ```
//!
//! * Writes persist once they reach the **WPQ** (the ADR domain); the WPQ
//!   merges repeated writes to the same line and drains to the DIMM.
//! * The **LSQ** is the top of the DIMM: it queues requests, combines
//!   64 B writes into 256 B blocks, and fast-forwards reads of dirty data.
//! * The **RMW buffer** stages 256 B blocks in SRAM and performs
//!   read-modify-write for sub-256 B writes.
//! * The **AIT** translates physical to media addresses at 4 KB
//!   granularity; both the table and the 16 MB data buffer live in the
//!   on-DIMM DRAM (timed by `nvsim-dram`). AIT buffer misses fetch whole
//!   4 KB pages from the 3D-XPoint media (timed by `nvsim-media`).
//! * Per-64 KB-block **wear-leveling** stalls writes to a hot block for the
//!   duration of a migration and remaps its pages.
//! * An `mfence` drains the WPQ **and** flushes the LSQ, as the paper's
//!   characterization shows (§III-C).
//! * Power-fail injection ([`MemorySystem::inject_power_loss`]) resolves a
//!   [`nvsim_types::FaultPlan`] against the run, drains exactly the ADR
//!   domain on a modeled supercap budget, and returns a
//!   [`nvsim_types::CrashImage`]; the independent [`crashcheck`] oracle
//!   replays the request log against the persistence contract and must
//!   agree line-for-line.
//!
//! The three latency plateaus of the paper's pointer-chasing reads
//! (≈100 ns below 16 KB, ≈180 ns below 16 MB, ≈330 ns beyond) and the
//! write knees at 512 B and 4 KB all *emerge* from these structures; none
//! of them is hard-coded.
//!
//! # Example
//!
//! ```
//! use vans::{MemorySystem, VansConfig};
//! use nvsim_types::{Addr, MemoryBackend, RequestDesc};
//!
//! let mut sys = MemorySystem::new(VansConfig::optane_1dimm())?;
//! let t = sys.execute(RequestDesc::load(Addr::new(0x1000)));
//! assert!(t.as_ns() > 0);
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
    clippy::allow_attributes,
    clippy::allow_attributes_without_reason
)]

pub mod ait;
pub mod buffer;
pub mod config;
pub mod crashcheck;
pub mod dimm;
pub mod imc;
pub mod lsq;
pub mod memory_mode;
pub mod opt;
pub mod params;
pub mod persist;
pub mod rmw;
pub mod system;

pub use config::{
    AitConfig, ImcConfig, InterleaveConfig, LsqConfig, RmwConfig, VansConfig, VansConfigBuilder,
};
pub use opt::{LazyCacheConfig, PreTranslationConfig};
pub use system::MemorySystem;
