//! Self-benchmark for `nvsim-lint`: full-workspace analysis throughput
//! (every file lexed, parsed and analyzed, then the workspace-level
//! passes), recorded into `BENCH_lint.json` via the same perf recorder as
//! the engine and serve benchmarks, so the analyzer's cost is tracked
//! across PRs like any other hot path.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

/// Number of timed repetitions; the minimum is recorded (standard
/// practice for throughput: noise only ever adds time).
const REPS: usize = 3;

/// Runs the benchmark and returns the `BENCH_lint.json` entries. Every
/// run analyzes every file, so the keys keep their `cold_` names.
pub fn lint_micro(root: &Path) -> BTreeMap<String, f64> {
    let mut best = f64::INFINITY;
    let mut files = 0u64;
    for _ in 0..REPS {
        let start = Instant::now();
        let report = nvsim_lint::lint_workspace(root).expect("lint run on the live workspace");
        best = best.min(start.elapsed().as_secs_f64());
        files = report.files_scanned as u64;
    }

    let mut out = BTreeMap::new();
    out.insert("files_scanned".to_owned(), files as f64);
    out.insert("cold_ms".to_owned(), best * 1e3);
    out.insert("cold_files_per_s".to_owned(), files as f64 / best);
    out
}
