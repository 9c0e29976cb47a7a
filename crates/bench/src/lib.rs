//! The experiment harness: every table and figure of the paper's
//! evaluation, regenerated from the reproduction's own components.
//!
//! Each experiment lives in [`experiments`] and produces an
//! [`ExpOutput`]: a titled table (the same rows/series the paper
//! reports) plus free-form notes (observations the figure's caption
//! makes). The `nvsim-bench` binary prints the tables and writes
//! CSV + a markdown summary under `results/`.
//!
//! `nvsim-bench perf` ([`perf`]) times a reduced point of each figure
//! family for performance tracking.

#![warn(missing_docs)]
#![deny(
    clippy::undocumented_unsafe_blocks,
    clippy::allow_attributes,
    clippy::allow_attributes_without_reason
)]

pub mod crashsweep;
pub mod experiments;
pub mod lintbench;
pub mod output;
pub mod perf;
pub mod runner;
pub mod sampling;
pub mod snapsmoke;
pub mod tracecmd;

pub use output::{ExpOutput, Series};

use runner::Runnable;
use std::collections::BTreeMap;

/// The registry of all experiments, keyed by the paper's figure/table id.
/// Each entry builds the experiment's schedulable form: the sweep-heavy
/// experiments, which dominate `nvsim-bench all`'s wall clock, split into
/// points the runner spreads across workers; every other one runs as a
/// single [`Runnable::Whole`] unit.
pub fn registry() -> BTreeMap<&'static str, fn() -> Runnable> {
    use experiments::*;
    let mut m: BTreeMap<&'static str, fn() -> Runnable> = BTreeMap::new();
    m.insert("fig1a", || Runnable::whole(fig1::fig1a));
    m.insert("fig1b", || Runnable::Split(fig1::fig1b_split()));
    m.insert("fig3a", || Runnable::whole(fig3::fig3a));
    m.insert("fig3b", || Runnable::whole(fig3::fig3b));
    m.insert("fig4", || Runnable::whole(fig4::fig4));
    m.insert("fig5a", || Runnable::Split(fig5::fig5a_split()));
    m.insert("fig5b", || Runnable::Split(fig5::fig5b_split()));
    m.insert("fig5c", || Runnable::Split(fig5::fig5c_split()));
    m.insert("fig5d", || Runnable::whole(fig5::fig5d));
    m.insert("fig6a", || Runnable::whole(fig6::fig6a));
    m.insert("fig6b", || Runnable::whole(fig6::fig6b));
    m.insert("fig7a", || Runnable::whole(fig7::fig7a));
    m.insert("fig7b", || Runnable::whole(fig7::fig7b));
    m.insert("fig7c", || Runnable::whole(fig7::fig7c));
    m.insert("fig7d", || Runnable::whole(fig7::fig7d));
    m.insert("fig9a", || Runnable::Split(fig9::fig9a_split()));
    m.insert("fig9b", || Runnable::Split(fig9::fig9b_split()));
    m.insert("fig9c", || Runnable::whole(fig9::fig9c));
    m.insert("fig9d", || Runnable::whole(fig9::fig9d));
    m.insert("fig9e", || Runnable::Split(fig9::fig9e_split()));
    m.insert("fig10a", || Runnable::whole(fig10::fig10a));
    m.insert("fig10b", || Runnable::whole(fig10::fig10b));
    m.insert("tab1", || Runnable::whole(tab1::tab1));
    m.insert("tab2", || Runnable::whole(tab1::tab2));
    m.insert("tab4", || Runnable::whole(tab4::tab4));
    m.insert("fig11a", || Runnable::whole(fig11::fig11a));
    m.insert("fig11b", || Runnable::whole(fig11::fig11b));
    m.insert("fig11c", || Runnable::whole(fig11::fig11c));
    m.insert("fig11d", || Runnable::whole(fig11::fig11d));
    m.insert("fig12a", || Runnable::whole(fig12::fig12a));
    m.insert("fig12b", || Runnable::whole(fig12::fig12b));
    m.insert("fig13d", || Runnable::Split(fig13::fig13d_split()));
    m.insert("fig13e", || Runnable::Split(fig13::fig13e_split()));
    m.insert("ddr4check", || Runnable::whole(ddr4check::ddr4check));
    m.insert("ablations", || Runnable::whole(ablations::ablations));
    m.insert("scaling", || Runnable::whole(scaling::scaling));
    m
}
