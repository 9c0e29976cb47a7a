//! A cycle-level DRAM timing model parameterized for DDR3, DDR4 and
//! PCM-style devices, plus a protocol checker.
//!
//! This crate is one of the substrates of the VANS reproduction:
//!
//! * VANS places the Optane DIMM's **AIT table and AIT buffer in on-DIMM
//!   DDR4 DRAM** (§IV-A of the paper); [`DramModel`] provides those access
//!   timings.
//! * The **baseline simulators** (DRAMSim2-like DDR3, Ramulator-like
//!   DDR4/PCM; Fig 3 and Fig 11) are thin wrappers around [`DramModel`]
//!   with different [`DramConfig`] presets.
//! * The paper verifies its DRAM model with Micron's Verilog model and a
//!   Cadence toolchain (§IV-B). We substitute a [`checker::ProtocolChecker`]
//!   that replays the model's emitted [`command::CommandRecord`] trace and
//!   asserts every JEDEC-style timing constraint — the same "no illegal
//!   command" property.
//!
//! # Example
//!
//! ```
//! use nvsim_dram::{DramConfig, DramModel};
//! use nvsim_types::{Addr, Time};
//!
//! let mut dram = DramModel::new(DramConfig::ddr4_2666_4gb())?;
//! let done = dram.access(Addr::new(0x4000), false, Time::ZERO);
//! assert!(done > Time::ZERO);
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

pub mod bank;
pub mod checker;
pub mod command;
pub mod config;
pub mod mapping;
pub mod model;

pub use checker::{ProtocolChecker, Violation};
pub use command::{CommandKind, CommandRecord};
pub use config::{DramConfig, DramOrganization, DramTimings};
pub use mapping::{AddressMapping, DecodedAddr};
pub use model::DramModel;
