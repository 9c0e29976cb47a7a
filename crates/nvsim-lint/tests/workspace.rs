//! Live-workspace test: `cargo test` itself enforces the zero-finding
//! invariant, so a regression cannot land without either fixing it or
//! adding a justified inline allow annotation.

#![expect(
    clippy::disallowed_types,
    clippy::disallowed_methods,
    reason = "test code: the self-benchmark times the analysis with the host clock"
)]

use std::path::Path;
use std::time::Instant;

#[test]
fn workspace_is_finding_free() {
    let manifest = Path::new(env!("CARGO_MANIFEST_DIR"));
    let root = nvsim_lint::find_root(manifest).expect("workspace root above nvsim-lint");
    let report = nvsim_lint::lint_workspace(&root).expect("lint run");
    assert!(
        report.files_scanned > 30,
        "suspiciously few files scanned ({}) — walk broken?",
        report.files_scanned
    );
    assert!(
        report.is_clean(),
        "nvsim-lint found findings:\n{}",
        report.render_text()
    );
}

/// The README rule table is generated text: it must match
/// `rules_markdown_table()` exactly, so the docs cannot drift from the
/// rule inventory in code. Regenerate by pasting the function's output
/// between the `<!-- nvsim-lint-rules -->` markers.
#[test]
fn readme_rule_table_matches_the_rule_inventory() {
    let manifest = Path::new(env!("CARGO_MANIFEST_DIR"));
    let root = nvsim_lint::find_root(manifest).expect("workspace root above nvsim-lint");
    let readme = std::fs::read_to_string(root.join("README.md")).expect("README.md");
    let marker = "<!-- nvsim-lint-rules -->";
    let start = readme
        .find(marker)
        .expect("opening nvsim-lint-rules marker");
    let rest = &readme[start + marker.len()..];
    let end = rest.find(marker).expect("closing nvsim-lint-rules marker");
    let embedded = rest[..end].trim();
    let generated = nvsim_lint::rules::rules_markdown_table();
    assert_eq!(
        embedded,
        generated.trim(),
        "README rule table differs from rules_markdown_table(); \
         re-embed the generated table between the markers"
    );
}

/// Self-benchmark: the full semantic analysis (lex + item tree + every
/// rule over every workspace file) must
/// stay fast enough to run on every CI push. 5 s is the budget from ISSUE
/// 4; a debug-build single-CPU container run currently takes well under
/// 1 s.
#[test]
fn full_workspace_analysis_stays_under_five_seconds() {
    let manifest = Path::new(env!("CARGO_MANIFEST_DIR"));
    let root = nvsim_lint::find_root(manifest).expect("workspace root above nvsim-lint");
    let start = Instant::now();
    let report = nvsim_lint::lint_workspace(&root).expect("lint run");
    let elapsed = start.elapsed();
    assert!(report.files_scanned > 30);
    assert!(
        elapsed.as_secs_f64() < 5.0,
        "full-workspace analysis took {:.2}s (budget 5s)",
        elapsed.as_secs_f64()
    );
}
