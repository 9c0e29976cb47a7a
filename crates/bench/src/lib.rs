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

pub mod crashsweep;
pub mod experiments;
pub mod lintbench;
pub mod output;
pub mod perf;
pub mod runner;
pub mod sampling;
pub mod servebench;
pub mod snapsmoke;
pub mod tracecmd;

pub use output::{ExpOutput, Series};

use std::collections::BTreeMap;

/// An experiment regenerating one table or figure.
pub type ExperimentFn = fn() -> ExpOutput;

/// The registry of all experiments, keyed by the paper's figure/table id.
pub fn registry() -> BTreeMap<&'static str, ExperimentFn> {
    use experiments::*;
    let mut m: BTreeMap<&'static str, ExperimentFn> = BTreeMap::new();
    m.insert("fig1a", fig1::fig1a);
    m.insert("fig1b", fig1::fig1b);
    m.insert("fig3a", fig3::fig3a);
    m.insert("fig3b", fig3::fig3b);
    m.insert("fig4", fig4::fig4);
    m.insert("fig5a", fig5::fig5a);
    m.insert("fig5b", fig5::fig5b);
    m.insert("fig5c", fig5::fig5c);
    m.insert("fig5d", fig5::fig5d);
    m.insert("fig6a", fig6::fig6a);
    m.insert("fig6b", fig6::fig6b);
    m.insert("fig7a", fig7::fig7a);
    m.insert("fig7b", fig7::fig7b);
    m.insert("fig7c", fig7::fig7c);
    m.insert("fig7d", fig7::fig7d);
    m.insert("fig9a", fig9::fig9a);
    m.insert("fig9b", fig9::fig9b);
    m.insert("fig9c", fig9::fig9c);
    m.insert("fig9d", fig9::fig9d);
    m.insert("fig9e", fig9::fig9e);
    m.insert("fig10a", fig10::fig10a);
    m.insert("fig10b", fig10::fig10b);
    m.insert("tab1", tab1::tab1);
    m.insert("tab2", tab1::tab2);
    m.insert("tab4", tab4::tab4);
    m.insert("fig11a", fig11::fig11a);
    m.insert("fig11b", fig11::fig11b);
    m.insert("fig11c", fig11::fig11c);
    m.insert("fig11d", fig11::fig11d);
    m.insert("fig12a", fig12::fig12a);
    m.insert("fig12b", fig12::fig12b);
    m.insert("fig13d", fig13::fig13d);
    m.insert("fig13e", fig13::fig13e);
    m.insert("ddr4check", ddr4check::ddr4check);
    m.insert("ablations", ablations::ablations);
    m.insert("scaling", scaling::scaling);
    m
}

/// Point decompositions for the sweep-heavy experiments: these dominate
/// `nvsim-bench all`'s wall clock, so they are the ones worth splitting
/// across workers. Every other experiment runs as a single
/// [`runner::Runnable::Whole`] unit.
pub fn split_registry() -> BTreeMap<&'static str, fn() -> runner::Split> {
    use experiments::*;
    let mut m: BTreeMap<&'static str, fn() -> runner::Split> = BTreeMap::new();
    m.insert("fig1b", fig1::fig1b_split);
    m.insert("fig5a", fig5::fig5a_split);
    m.insert("fig5b", fig5::fig5b_split);
    m.insert("fig5c", fig5::fig5c_split);
    m.insert("fig9a", fig9::fig9a_split);
    m.insert("fig9b", fig9::fig9b_split);
    m.insert("fig9e", fig9::fig9e_split);
    m.insert("fig13d", fig13::fig13d_split);
    m.insert("fig13e", fig13::fig13e_split);
    m
}

/// Resolves an experiment id to its schedulable form: point-decomposed
/// where a split exists, whole otherwise. `None` for unknown ids.
pub fn runnable_for(id: &str) -> Option<runner::Runnable> {
    if let Some(mk) = split_registry().get(id) {
        return Some(runner::Runnable::Split(mk()));
    }
    registry().get(id).map(|&f| runner::Runnable::Whole(f))
}

#[cfg(test)]
mod tests {
    #[test]
    fn every_split_id_is_a_registry_id() {
        let reg = super::registry();
        for id in super::split_registry().keys() {
            assert!(reg.contains_key(id), "split for unknown experiment {id}");
        }
    }
}
