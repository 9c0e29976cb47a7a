//! Fixture-based rule tests: known-bad and known-clean snippets per rule,
//! including the tricky cases (matches inside string literals, comments,
//! `#[cfg(test)]` modules, and behind allow annotations).

use nvsim_lint::rules::{lint_sources, Rule};

const SIM: &str = "crates/vans/src/fixture.rs";

fn rules_at(path: &str, src: &str) -> Vec<(String, u32)> {
    lint_sources([(path, src)])
        .into_iter()
        .map(|f| (f.rule.id().to_string(), f.line))
        .collect()
}

fn rule_count(path: &str, src: &str, rule: Rule) -> usize {
    rules_at(path, src)
        .iter()
        .filter(|(r, _)| r == rule.id())
        .count()
}

// ---------------------------------------------------------------- R1

#[test]
fn r1_hashmap_in_sim_crate_is_flagged() {
    let src = "use std::collections::HashMap;\nstruct S { m: HashMap<u64, u64> }\n";
    assert_eq!(rule_count(SIM, src, Rule::UnorderedMap), 2);
}

#[test]
fn r1_hashset_is_flagged() {
    let src = "fn f() { let s = std::collections::HashSet::<u64>::new(); }\n";
    assert_eq!(rule_count(SIM, src, Rule::UnorderedMap), 1);
}

#[test]
fn r1_hashmap_in_string_literal_is_clean() {
    let src = "fn f() -> &'static str { \"HashMap::new() is banned\" }\n";
    assert_eq!(rule_count(SIM, src, Rule::UnorderedMap), 0);
}

#[test]
fn r1_hashmap_in_comment_is_clean() {
    let src = "// why no HashMap here: iteration order\n/* HashMap /* nested */ */\nfn f() {}\n";
    assert_eq!(rule_count(SIM, src, Rule::UnorderedMap), 0);
}

#[test]
fn r1_hashmap_in_cfg_test_module_is_clean() {
    let src = "
fn live() {}
#[cfg(test)]
mod tests {
    use std::collections::HashMap;
    #[test]
    fn t() { let _ = HashMap::<u64, u64>::new(); }
}
";
    assert_eq!(rule_count(SIM, src, Rule::UnorderedMap), 0);
}

#[test]
fn r1_allow_annotation_with_reason_suppresses() {
    let src = "
// nvsim-lint: allow(unordered-map) — key-indexed lookups only, never iterated
use std::collections::HashMap;
struct S {
    // nvsim-lint: allow(unordered-map) — order recovered via intrusive list
    m: HashMap<u64, u32>,
}
";
    assert_eq!(rule_count(SIM, src, Rule::UnorderedMap), 0);
    assert_eq!(rule_count(SIM, src, Rule::BadAnnotation), 0);
}

#[test]
fn r1_allow_annotation_without_reason_does_not_suppress() {
    let src = "// nvsim-lint: allow(unordered-map)\nuse std::collections::HashMap;\n";
    assert_eq!(rule_count(SIM, src, Rule::UnorderedMap), 1);
    assert_eq!(rule_count(SIM, src, Rule::BadAnnotation), 1);
}

#[test]
fn r1_trailing_allow_annotation_suppresses_same_line() {
    let src = "use std::collections::HashMap; // nvsim-lint: allow(unordered-map) — lookup only\n";
    assert_eq!(rule_count(SIM, src, Rule::UnorderedMap), 0);
}

#[test]
fn r1_unknown_rule_id_in_annotation_is_flagged() {
    let src = "// nvsim-lint: allow(no-such-rule) — whatever\nfn f() {}\n";
    assert_eq!(rule_count(SIM, src, Rule::BadAnnotation), 1);
}

#[test]
fn r1_exempt_in_shims_and_tests() {
    let src = "use std::collections::HashMap;\n";
    assert_eq!(
        rule_count("crates/shims/serde/src/lib.rs", src, Rule::UnorderedMap),
        0
    );
    assert_eq!(
        rule_count("crates/vans/tests/integration.rs", src, Rule::UnorderedMap),
        0
    );
}

#[test]
fn r1_applies_to_bench_runner_code() {
    let src = "use std::collections::HashMap;\n";
    assert_eq!(
        rule_count("crates/bench/src/runner.rs", src, Rule::UnorderedMap),
        1
    );
}

// ---------------------------------------------------------------- R2

#[test]
fn r2_instant_in_sim_crate_is_flagged() {
    let src = "use std::time::Instant;\nfn f() { let _t = Instant::now(); }\n";
    assert!(rule_count(SIM, src, Rule::WallClock) >= 2);
}

#[test]
fn r2_instantiated_in_comment_is_clean() {
    let src = "// Instantiated lazily; see SystemTime docs.\nfn f() {}\n";
    assert_eq!(rule_count(SIM, src, Rule::WallClock), 0);
}

#[test]
fn r2_bench_is_exempt() {
    let src = "use std::time::Instant;\nfn f() { let _t = Instant::now(); }\n";
    assert_eq!(
        rule_count("crates/bench/src/perf.rs", src, Rule::WallClock),
        0
    );
}

// ---------------------------------------------------------------- R3

#[test]
fn r3_unwrap_and_expect_calls_are_flagged() {
    let src = "fn f(x: Option<u32>) -> u32 { x.unwrap() + x.expect(\"msg\") }\n";
    assert_eq!(rule_count(SIM, src, Rule::PanicPath), 2);
}

#[test]
fn r3_panic_family_macros_are_flagged() {
    let src =
        "fn f(n: u32) { match n { 0 => panic!(\"boom\"), 1 => unreachable!(), _ => todo!() } }\n";
    assert_eq!(rule_count(SIM, src, Rule::PanicPath), 3);
}

#[test]
fn r3_unwrap_or_and_expect_completion_are_clean() {
    let src =
        "fn f(x: Option<u32>, b: &mut B) -> u32 { x.unwrap_or(0) + b.expect_completion(1) }\n";
    assert_eq!(rule_count(SIM, src, Rule::PanicPath), 0);
}

#[test]
fn r3_asserts_are_clean() {
    let src = "fn f(n: u32) { assert!(n > 0); debug_assert_eq!(n, n); }\n";
    assert_eq!(rule_count(SIM, src, Rule::PanicPath), 0);
}

#[test]
fn r3_test_fn_may_unwrap() {
    let src = "
#[test]
fn t() { Some(1).unwrap(); }
#[cfg(test)]
mod tests { fn h() { panic!(\"fine in tests\"); } }
";
    assert_eq!(rule_count(SIM, src, Rule::PanicPath), 0);
}

#[test]
fn r3_fn_named_unwrap_definition_is_clean() {
    // Only method-call position `.unwrap(` is flagged.
    let src = "fn unwrap(x: u32) -> u32 { x }\nfn g() { let _ = unwrap(3); }\n";
    assert_eq!(rule_count(SIM, src, Rule::PanicPath), 0);
}

// ---------------------------------------------------------------- R4

#[test]
fn r4_expect_completion_without_a_submit_is_flagged_everywhere() {
    // Taking a completion in a function that never submitted anything
    // cannot locally justify the panic-on-miss contract.
    let src = "fn f(b: &mut B, id: u64) -> u64 { b.expect_completion(id) }\n";
    assert_eq!(rule_count(SIM, src, Rule::ExpectCompletionMisuse), 1);
    assert_eq!(
        rule_count(
            "crates/bench/src/main.rs",
            src,
            Rule::ExpectCompletionMisuse
        ),
        1
    );
    assert_eq!(
        rule_count("examples/demo.rs", src, Rule::ExpectCompletionMisuse),
        1
    );
}

#[test]
fn r4_submit_then_expect_in_same_fn_is_clean() {
    let src = "
fn f(b: &mut B, d: RequestDesc) -> u64 {
    let id = b.submit(d);
    b.expect_completion(id)
}
";
    assert_eq!(rule_count(SIM, src, Rule::ExpectCompletionMisuse), 0);
}

#[test]
fn r4_completion_bookkeeping_module_is_exempt() {
    // The defining module's wait_for/forwarders legitimately take
    // completions for requests submitted elsewhere.
    let src = "
fn wait_for(b: &mut B, id: u64) -> u64 { b.expect_completion(id) }
";
    assert_eq!(
        rule_count(
            "crates/nvsim-types/src/backend.rs",
            src,
            Rule::ExpectCompletionMisuse
        ),
        0
    );
    assert_eq!(rule_count(SIM, src, Rule::ExpectCompletionMisuse), 1);
}

#[test]
fn r4_test_fns_and_allows_are_respected() {
    let src = "
#[cfg(test)]
mod tests {
    fn t(b: &mut B) -> u64 { b.expect_completion(1) }
}
fn live(b: &mut B) -> u64 {
    // nvsim-lint: allow(expect-completion-misuse) — id handed over by the caller's submit
    b.expect_completion(1)
}
";
    assert_eq!(rule_count(SIM, src, Rule::ExpectCompletionMisuse), 0);
}

// ---------------------------------------------------------------- R5

const DEF: &str = "crates/nvsim-types/src/trace.rs";
const DEF_SRC: &str = "
pub enum Stage {
    Rpq,
    MediaRead,
}
pub struct SpanRecorder;
impl Stage {
    pub const ALL: [Stage; 2] = [Stage::Rpq, Stage::MediaRead];
}
";

#[test]
fn r5_unemitted_variant_is_flagged_at_definition() {
    let emitter = "
use crate::trace::{SpanRecorder, Stage};
fn f(r: &mut SpanRecorder) { r.record(Stage::Rpq, 0, 1); }
";
    let findings = lint_sources([(DEF, DEF_SRC), ("crates/vans/src/imc.rs", emitter)]);
    let missing: Vec<_> = findings
        .iter()
        .filter(|f| f.rule == Rule::StageCoverage)
        .collect();
    assert_eq!(missing.len(), 1);
    assert!(missing[0].message.contains("MediaRead"));
    assert_eq!(missing[0].file, DEF);
}

#[test]
fn r5_full_coverage_is_clean() {
    let emitter = "
use crate::trace::{SpanRecorder, Stage};
fn f(r: &mut SpanRecorder) {
    r.record(Stage::Rpq, 0, 1);
    r.record(Stage::MediaRead, 1, 2);
}
";
    let findings = lint_sources([(DEF, DEF_SRC), ("crates/vans/src/imc.rs", emitter)]);
    assert!(!findings.iter().any(|f| f.rule == Rule::StageCoverage));
}

#[test]
fn r5_reference_without_recorder_context_does_not_count() {
    // A file mentioning Stage::MediaRead without any SpanRecorder/StageSpan
    // is not an emission site (e.g. a match arm in a formatter).
    let non_emitter = "
use crate::trace::Stage;
fn name(s: Stage) -> &'static str { match s { Stage::MediaRead => \"m\", _ => \"r\" } }
";
    let emitter = "
use crate::trace::{SpanRecorder, Stage};
fn f(r: &mut SpanRecorder) { r.record(Stage::Rpq, 0, 1); }
";
    let findings = lint_sources([
        (DEF, DEF_SRC),
        ("crates/vans/src/fmt.rs", non_emitter),
        ("crates/vans/src/imc.rs", emitter),
    ]);
    let missing: Vec<_> = findings
        .iter()
        .filter(|f| f.rule == Rule::StageCoverage)
        .collect();
    assert_eq!(missing.len(), 1, "MediaRead must still be uncovered");
}

#[test]
fn r5_test_only_emission_does_not_count() {
    let emitter = "
use crate::trace::{SpanRecorder, Stage};
fn f(r: &mut SpanRecorder) { r.record(Stage::Rpq, 0, 1); }
#[cfg(test)]
mod tests {
    use super::*;
    #[test]
    fn t(r: &mut SpanRecorder) { r.record(Stage::MediaRead, 0, 1); }
}
";
    let findings = lint_sources([(DEF, DEF_SRC), ("crates/vans/src/imc.rs", emitter)]);
    assert!(findings
        .iter()
        .any(|f| f.rule == Rule::StageCoverage && f.message.contains("MediaRead")));
}

// ---------------------------------------------------------------- R7

#[test]
fn r7_two_hop_panic_reach_is_caught_with_full_chain() {
    // The acceptance fixture: a seeded panic two calls away from the
    // datapath entry point must be reported, with the whole path shown.
    let src = "
fn entry() { middle(); }
fn middle() { leaf(); }
fn leaf(x: Option<u32>) -> u32 { x.unwrap() }
";
    let findings = lint_sources([(SIM, src)]);
    let reaches: Vec<_> = findings
        .iter()
        .filter(|f| f.rule == Rule::PanicReach)
        .collect();
    // entry and middle reach; leaf itself is R3's finding, not R7's.
    assert_eq!(reaches.len(), 2);
    let entry = reaches
        .iter()
        .find(|f| f.message.contains("`entry`"))
        .unwrap();
    assert_eq!(entry.chain.len(), 4);
    assert!(entry.chain[0].contains("fn entry"));
    assert!(entry.chain[1].contains("fn middle"));
    assert!(entry.chain[2].contains("fn leaf"));
    assert!(entry.chain[3].contains(".unwrap()"));
}

#[test]
fn r7_sanctioned_root_on_the_same_path_is_not_flagged() {
    // Same shape, but the middle hop is a reviewed boundary: nothing above
    // it is reported.
    let src = "
fn entry() { middle(); }
// nvsim-lint: allow(panic-reach) — boundary: ids validated at entry
fn middle() { leaf(); }
fn leaf(x: Option<u32>) -> u32 { x.unwrap() }
";
    let findings = lint_sources([(SIM, src)]);
    assert!(!findings.iter().any(|f| f.rule == Rule::PanicReach));
}

#[test]
fn r7_call_graph_cycles_terminate_and_report() {
    let src = "
fn ping(n: u32) { if n > 0 { pong(n - 1) } }
fn pong(n: u32) { ping(n); boom() }
fn boom() { panic!(\"seeded\") }
";
    let findings = lint_sources([(SIM, src)]);
    let reaches: Vec<_> = findings
        .iter()
        .filter(|f| f.rule == Rule::PanicReach)
        .collect();
    assert_eq!(reaches.len(), 2, "ping and pong both reach boom");
}

#[test]
fn r7_ambiguous_trait_dispatch_links_every_impl() {
    // `.step()` cannot be resolved without types; the conservative graph
    // must assume the panicking impl is reachable.
    let src = "
fn driver(x: &mut dyn Engine) { x.step(); }
trait Engine { fn step(&mut self); }
struct Safe;
impl Engine for Safe { fn step(&mut self) {} }
struct Risky;
impl Engine for Risky { fn step(&mut self) { unreachable!() } }
";
    let findings = lint_sources([(SIM, src)]);
    let driver: Vec<_> = findings
        .iter()
        .filter(|f| f.rule == Rule::PanicReach && f.message.contains("`driver`"))
        .collect();
    assert_eq!(driver.len(), 1);
    assert!(driver[0].chain.iter().any(|c| c.contains("Risky::step")));
}

#[test]
fn r7_expect_completion_root_is_sanctioned_by_name() {
    let src = "
fn datapath(b: &mut Backend, d: u64) -> u64 {
    let id = b.submit(d);
    b.expect_completion(id)
}
impl Backend {
    fn submit(&mut self, d: u64) -> u64 { d }
    fn expect_completion(&mut self, id: u64) -> u64 {
        // nvsim-lint: allow(panic-path) — documented bookkeeping panic
        self.take(id).expect(\"in flight\")
    }
}
";
    let findings = lint_sources([(SIM, src)]);
    assert!(!findings.iter().any(|f| f.rule == Rule::PanicReach));
}

#[test]
fn r7_panic_only_reached_from_tests_is_clean() {
    let src = "
fn live() { shared(); }
fn shared() {}
#[cfg(test)]
mod tests {
    fn kaboom() { panic!(\"test-only\") }
    #[test]
    fn t() { kaboom(); }
}
";
    let findings = lint_sources([(SIM, src)]);
    assert!(!findings.iter().any(|f| f.rule == Rule::PanicReach));
}

#[test]
fn r7_spans_files_across_the_workspace() {
    let caller = "fn issue(q: &Queue) { q.push_back_checked(1); }\n";
    let callee = "
impl Queue {
    fn push_back_checked(&self, v: u64) { if v > self.cap { panic!(\"overflow\") } }
}
";
    let findings = lint_sources([
        ("crates/vans/src/imc.rs", caller),
        ("crates/vans/src/queue.rs", callee),
    ]);
    let reaches: Vec<_> = findings
        .iter()
        .filter(|f| f.rule == Rule::PanicReach)
        .collect();
    assert_eq!(reaches.len(), 1);
    assert_eq!(reaches[0].file, "crates/vans/src/imc.rs");
    assert!(reaches[0]
        .chain
        .iter()
        .any(|c| c.contains("crates/vans/src/queue.rs")));
}

// ---------------------------------------------------------------- R8

#[test]
fn r8_bare_unsafe_is_flagged() {
    let src = "fn f(p: *const u64) -> u64 { unsafe { *p } }\n";
    assert_eq!(rule_count(SIM, src, Rule::UnsafeUndocumented), 1);
}

#[test]
fn r8_safety_comment_placements_sanction() {
    // Same line, preceding line, and multi-line block comment ending on
    // the preceding line all count.
    let src = "
fn a(p: *const u64) -> u64 {
    // SAFETY: p is a slab-interior pointer, alive for &self's lifetime
    unsafe { *p }
}
fn b(p: *const u64) -> u64 {
    /* SAFETY: checked */ unsafe { *p }
}
fn c(p: *const u64) -> u64 {
    /* SAFETY: the caller guarantees
       alignment and liveness */
    unsafe { *p }
}
";
    assert_eq!(rule_count(SIM, src, Rule::UnsafeUndocumented), 0);
}

#[test]
fn r8_safety_comment_two_lines_up_does_not_sanction() {
    let src = "
fn f(p: *const u64) -> u64 {
    // SAFETY: too far away
    let _gap = 1;
    unsafe { *p }
}
";
    assert_eq!(rule_count(SIM, src, Rule::UnsafeUndocumented), 1);
}

#[test]
fn r8_applies_to_driver_code_but_not_tests() {
    let src = "fn f(p: *const u64) -> u64 { unsafe { *p } }\n";
    assert_eq!(
        rule_count("crates/bench/src/runner.rs", src, Rule::UnsafeUndocumented),
        1
    );
    let test_src = "
#[cfg(test)]
mod tests {
    fn f(p: *const u64) -> u64 { unsafe { *p } }
}
";
    assert_eq!(rule_count(SIM, test_src, Rule::UnsafeUndocumented), 0);
}

// ---------------------------------------------------------------- R9

#[test]
fn r9_narrowing_casts_are_flagged() {
    let src = "
fn f(cycles: u64, small: u64) -> u32 {
    let _b = small as u8;
    let _h = small as i16;
    cycles as u32
}
";
    assert_eq!(rule_count(SIM, src, Rule::CastTruncation), 3);
}

#[test]
fn r9_widening_and_same_width_casts_are_clean() {
    let src = "fn f(x: u32, c: char) -> u64 { (x as u64) + (c as u64) + (x as usize as u64) }\n";
    assert_eq!(rule_count(SIM, src, Rule::CastTruncation), 0);
}

#[test]
fn r9_allow_with_bound_argument_suppresses() {
    let src = "
fn f(n: u64) -> u32 {
    // nvsim-lint: allow(cast-truncation) — n is a channel index < 8 by config
    n as u32
}
";
    assert_eq!(rule_count(SIM, src, Rule::CastTruncation), 0);
}

#[test]
fn r9_driver_stat_paths_are_exempt() {
    let src = "fn f(n: u64) -> u32 { n as u32 }\n";
    assert_eq!(
        rule_count(
            "crates/bench/src/experiments/fig7.rs",
            src,
            Rule::CastTruncation
        ),
        0
    );
}

#[test]
fn r9_use_renames_are_not_casts() {
    let src = "use crate::types::Width as u8_width;\nfn f() {}\n";
    assert_eq!(rule_count(SIM, src, Rule::CastTruncation), 0);
}

// ---------------------------------------------------------------- R10

#[test]
fn r10_sync_primitives_in_sim_crates_are_flagged() {
    let src = "
use std::sync::Mutex;
use std::sync::atomic::AtomicU64;
struct S { m: Mutex<u64>, c: AtomicU64 }
";
    assert_eq!(rule_count(SIM, src, Rule::SyncOnSimPath), 4);
}

#[test]
fn r10_thread_spawn_is_flagged() {
    let src = "fn f() { std::thread::spawn(|| {}); }\n";
    assert_eq!(rule_count(SIM, src, Rule::SyncOnSimPath), 1);
}

#[test]
fn r10_bench_runner_is_exempt() {
    let src = "
use std::sync::Mutex;
fn pool() { std::thread::scope(|s| { let _ = s; }); }
";
    assert_eq!(
        rule_count("crates/bench/src/runner.rs", src, Rule::SyncOnSimPath),
        0
    );
}

#[test]
fn r10_prose_and_variable_names_are_clean() {
    // `thread` only counts in path position (`thread::`), and comments or
    // strings never count.
    let src = "
// One Mutex per worker would break determinism; see DESIGN.md.
fn f() -> &'static str { let thread = 1; let _ = thread; \"AtomicU64\" }
";
    assert_eq!(rule_count(SIM, src, Rule::SyncOnSimPath), 0);
}

// ------------------------------------------------- serve classification

#[test]
fn serve_executor_is_driver_class() {
    // The executor holds the workspace's one worker pool: sync
    // primitives, wall clock and panics are legitimate there, but
    // determinism (R1) and unsafe hygiene (R8) hold.
    let exec = "crates/nvsim-serve/src/executor.rs";
    let sync_src = "
use std::sync::Mutex;
fn pool() { std::thread::scope(|s| { let _ = s; }); }
";
    assert_eq!(rule_count(exec, sync_src, Rule::SyncOnSimPath), 0);
    assert_eq!(
        rule_count(exec, "use std::collections::HashMap;\n", Rule::UnorderedMap),
        1
    );
    assert_eq!(
        rule_count(
            exec,
            "fn f(p: *const u64) -> u64 { unsafe { *p } }\n",
            Rule::UnsafeUndocumented
        ),
        1
    );
}

#[test]
fn rest_of_serve_crate_is_simulation_class() {
    // Protocol, session, registry and server model service state
    // deterministically: every simulator rule applies in full.
    for file in [
        "crates/nvsim-serve/src/protocol.rs",
        "crates/nvsim-serve/src/session.rs",
        "crates/nvsim-serve/src/registry.rs",
        "crates/nvsim-serve/src/server.rs",
        "crates/nvsim-serve/src/lib.rs",
    ] {
        assert_eq!(
            rule_count(file, "use std::sync::Mutex;\n", Rule::SyncOnSimPath),
            1,
            "{file} must be simulation-class for R10"
        );
        assert_eq!(
            rule_count(
                file,
                "fn f(x: Option<u32>) -> u32 { x.unwrap() }\n",
                Rule::PanicPath
            ),
            1,
            "{file} must be simulation-class for R3"
        );
    }
}

// ---------------------------------------------------------------- output shape

#[test]
fn findings_are_sorted_and_positioned() {
    let src = "use std::collections::HashMap;\nfn f(x: Option<u32>) { x.unwrap(); }\n";
    let findings = lint_sources([(SIM, src)]);
    assert_eq!(findings.len(), 2);
    assert_eq!(findings[0].line, 1);
    assert_eq!(findings[0].col, 23);
    assert_eq!(findings[1].line, 2);
    let sorted = {
        let mut s: Vec<u32> = findings.iter().map(|f| f.line).collect();
        s.sort_unstable();
        s
    };
    assert_eq!(sorted, vec![1, 2]);
}

// ------------------------------------------------- Snapshot impls (R3/R7)

#[test]
fn snapshot_restore_that_panics_is_flagged() {
    // The checkpoint contract: `Snapshot::restore` returns a
    // `SnapshotError` on malformed blobs, it never panics. A restore
    // that unwraps is a seeded violation R3 must catch on sim paths.
    let src = "
impl Snapshot for Lsq {
    fn save(&self, w: &mut SnapshotWriter) { w.put_u64(self.head); }
    fn restore(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        self.head = r.get_u64().unwrap();
        Ok(())
    }
}
";
    assert_eq!(rule_count(SIM, src, Rule::PanicPath), 1);
}

#[test]
fn snapshot_restore_reaching_a_panicking_helper_is_flagged() {
    // R7's call graph: the panic hides one hop below restore.
    let src = "
impl Snapshot for Rmw {
    fn restore(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        self.slots = decode_slots(r);
        Ok(())
    }
}
fn decode_slots(r: &mut SnapshotReader<'_>) -> u64 {
    r.get_u64().expect(\"slot count\")
}
";
    let findings = lint_sources([(SIM, src)]);
    let reaches: Vec<_> = findings
        .iter()
        .filter(|f| f.rule == Rule::PanicReach && f.message.contains("Rmw::restore"))
        .collect();
    assert_eq!(
        reaches.len(),
        1,
        "restore must be reported for transitively reaching the panic"
    );
    assert!(
        reaches[0].chain.iter().any(|c| c.contains("decode_slots")),
        "the evidence chain must walk through the panicking helper"
    );
}

#[test]
fn snapshot_restore_returning_errors_is_clean() {
    // The idiomatic shape every in-tree Snapshot impl follows: propagate
    // reader errors with `?`, validate counts, no panic anywhere.
    let src = "
impl Snapshot for Imc {
    fn save(&self, w: &mut SnapshotWriter) { w.put_u64(self.next); }
    fn restore(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        let n = r.get_usize()?;
        if n > r.remaining() {
            return Err(r.invalid(\"count exceeds the blob\"));
        }
        self.next = r.get_u64()?;
        Ok(())
    }
}
";
    assert_eq!(rule_count(SIM, src, Rule::PanicPath), 0);
    assert_eq!(rule_count(SIM, src, Rule::PanicReach), 0);
}

// ---------------------------------------------------------------- R11

const COVERED_SNAPSHOT: &str = "
struct S { a: u64, b: u64 }
impl Snapshot for S {
    fn save(&self, w: &mut SnapshotWriter) { w.put_u64(self.a); w.put_u64(self.b); }
    fn restore(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        self.a = r.get_u64()?;
        self.b = r.get_u64()?;
        Ok(())
    }
}
";

#[test]
fn r11_fully_covered_struct_is_clean() {
    assert_eq!(
        rule_count(SIM, COVERED_SNAPSHOT, Rule::SnapshotFieldCoverage),
        0
    );
}

#[test]
fn r11_save_only_field_is_flagged_as_missing_from_restore() {
    let src = "
struct S { a: u64, b: u64 }
impl Snapshot for S {
    fn save(&self, w: &mut SnapshotWriter) { w.put_u64(self.a); w.put_u64(self.b); }
    fn restore(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        self.a = r.get_u64()?;
        Ok(())
    }
}
";
    let hits = lint_sources([(SIM, src)]);
    let f = hits
        .iter()
        .find(|f| f.rule == Rule::SnapshotFieldCoverage)
        .expect("one R11 finding");
    assert_eq!(f.line, 2, "anchored at the field definition");
    assert!(f.message.contains("`b` of `S`"));
    assert!(f.message.contains("the restore body"));
}

#[test]
fn r11_restore_only_field_is_flagged_as_missing_from_save() {
    let src = "
struct S { a: u64 }
impl Snapshot for S {
    fn save(&self, _w: &mut SnapshotWriter) {}
    fn restore(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        self.a = r.get_u64()?;
        Ok(())
    }
}
";
    let hits = lint_sources([(SIM, src)]);
    let f = hits
        .iter()
        .find(|f| f.rule == Rule::SnapshotFieldCoverage)
        .expect("one R11 finding");
    assert!(f.message.contains("the save body"));
}

#[test]
fn r11_field_missing_on_both_sides_is_flagged_once() {
    let src = "
struct S { a: u64, ghost: u64 }
impl Snapshot for S {
    fn save(&self, w: &mut SnapshotWriter) { w.put_u64(self.a); }
    fn restore(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        self.a = r.get_u64()?;
        Ok(())
    }
}
";
    let hits = lint_sources([(SIM, src)]);
    let r11: Vec<_> = hits
        .iter()
        .filter(|f| f.rule == Rule::SnapshotFieldCoverage)
        .collect();
    assert_eq!(r11.len(), 1);
    assert!(r11[0]
        .message
        .contains("either the save or the restore body"));
}

#[test]
fn r11_derived_field_allow_on_the_field_suppresses() {
    let src = "
struct S {
    a: u64,
    // nvsim-lint: allow(snapshot-field-coverage) — derived from `a` on restore.
    twice_a: u64,
}
impl Snapshot for S {
    fn save(&self, w: &mut SnapshotWriter) { w.put_u64(self.a); }
    fn restore(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        self.a = r.get_u64()?;
        Ok(())
    }
}
";
    assert_eq!(rule_count(SIM, src, Rule::SnapshotFieldCoverage), 0);
}

#[test]
fn r11_field_referenced_through_a_same_file_helper_is_covered() {
    let src = "
struct S { a: u64 }
impl S {
    fn write_parts(&self, w: &mut SnapshotWriter) { w.put_u64(self.a); }
    fn read_parts(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        self.a = r.get_u64()?;
        Ok(())
    }
}
impl Snapshot for S {
    fn save(&self, w: &mut SnapshotWriter) { self.write_parts(w); }
    fn restore(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        self.read_parts(r)
    }
}
";
    assert_eq!(rule_count(SIM, src, Rule::SnapshotFieldCoverage), 0);
}

#[test]
fn r11_sibling_impl_in_the_same_file_does_not_cross_credit() {
    // `T::save` references `lonely`; that must not cover `S.lonely`.
    let src = "
struct S { lonely: u64 }
struct T { lonely: u64 }
impl Snapshot for S {
    fn save(&self, _w: &mut SnapshotWriter) {}
    fn restore(&mut self, _r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> { Ok(()) }
}
impl Snapshot for T {
    fn save(&self, w: &mut SnapshotWriter) { w.put_u64(self.lonely); }
    fn restore(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        self.lonely = r.get_u64()?;
        Ok(())
    }
}
";
    let hits = lint_sources([(SIM, src)]);
    let r11: Vec<_> = hits
        .iter()
        .filter(|f| f.rule == Rule::SnapshotFieldCoverage)
        .collect();
    assert_eq!(r11.len(), 1, "only S.lonely is uncovered");
    assert_eq!(r11[0].line, 2);
}

#[test]
fn r11_enum_variant_missing_on_the_restore_side_is_flagged() {
    let src = "
enum E {
    A,
    B,
}
impl Snapshot for E {
    fn save(&self, w: &mut SnapshotWriter) {
        match self { E::A => w.put_u8(0), E::B => w.put_u8(1) }
    }
    fn restore(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        *self = match r.get_u8()? {
            0 => E::A,
            _ => return Err(r.invalid(\"bad tag\")),
        };
        Ok(())
    }
}
";
    let hits = lint_sources([(SIM, src)]);
    let f = hits
        .iter()
        .find(|f| f.rule == Rule::SnapshotFieldCoverage)
        .expect("variant B flagged");
    assert_eq!(f.line, 4);
    assert!(f.message.contains("variant `B`"));
}

#[test]
fn r11_does_not_fire_in_test_modules() {
    let src = format!(
        "#[cfg(test)]\nmod tests {{\n{}\n}}\n",
        "struct S { a: u64 }
impl Snapshot for S {
    fn save(&self, _w: &mut SnapshotWriter) {}
    fn restore(&mut self, _r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> { Ok(()) }
}"
    );
    assert_eq!(rule_count(SIM, &src, Rule::SnapshotFieldCoverage), 0);
}

// ---------------------------------------------------------------- R12

const DRIVER: &str = "crates/bench/src/fixture.rs";

#[test]
fn r12_two_lock_cycle_is_flagged_with_the_chain() {
    let src = "
fn ab(a: &Mutex<u64>, b: &Mutex<u64>) {
    let ga = a.lock().expect(\"a\");
    let gb = b.lock().expect(\"b\");
}
fn ba(a: &Mutex<u64>, b: &Mutex<u64>) {
    let gb = b.lock().expect(\"b\");
    let ga = a.lock().expect(\"a\");
}
";
    let hits = lint_sources([(DRIVER, src)]);
    let f = hits
        .iter()
        .find(|f| f.rule == Rule::LockOrder)
        .expect("cycle finding");
    assert!(f.message.contains("lock acquisition cycle"));
    assert!(
        !f.chain.is_empty(),
        "cycle evidence travels in the chain field"
    );
}

#[test]
fn r12_consistent_lock_order_is_clean() {
    let src = "
fn ab(a: &Mutex<u64>, b: &Mutex<u64>) {
    let ga = a.lock().expect(\"a\");
    let gb = b.lock().expect(\"b\");
}
fn also_ab(a: &Mutex<u64>, b: &Mutex<u64>) {
    let ga = a.lock().expect(\"a\");
    let gb = b.lock().expect(\"b\");
}
";
    assert_eq!(rule_count(DRIVER, src, Rule::LockOrder), 0);
}

#[test]
fn r12_temporary_guard_chains_do_not_hold_across_the_next_lock() {
    // The bench-runner idiom: consume the guard in the same statement.
    let src = "
fn drain(q: &Mutex<VecDeque<u64>>, r: &Mutex<VecDeque<u64>>) {
    let x = q.lock().expect(\"q\").pop_front();
    let y = r.lock().expect(\"r\").pop_front();
}
fn drain_rev(q: &Mutex<VecDeque<u64>>, r: &Mutex<VecDeque<u64>>) {
    let y = r.lock().expect(\"r\").pop_front();
    let x = q.lock().expect(\"q\").pop_front();
}
";
    assert_eq!(rule_count(DRIVER, src, Rule::LockOrder), 0);
}

#[test]
fn r12_self_deadlock_is_flagged() {
    let src = "
fn relock(m: &Mutex<u64>) {
    let g = m.lock().expect(\"outer\");
    let h = m.lock().expect(\"inner\");
}
";
    assert_eq!(rule_count(DRIVER, src, Rule::LockOrder), 1);
}

#[test]
fn r12_allow_on_the_acquisition_site_suppresses() {
    let src = "
fn ab(a: &Mutex<u64>, b: &Mutex<u64>) {
    let ga = a.lock().expect(\"a\");
    let gb = b.lock().expect(\"b\"); // nvsim-lint: allow(lock-order) — fixture exercising suppression.
}
fn ba(a: &Mutex<u64>, b: &Mutex<u64>) {
    let gb = b.lock().expect(\"b\");
    let ga = a.lock().expect(\"a\"); // nvsim-lint: allow(lock-order) — fixture exercising suppression.
}
";
    assert_eq!(rule_count(DRIVER, src, Rule::LockOrder), 0);
}

// ---------------------------------------------------------------- R13

#[test]
fn r13_reference_to_integer_cast_is_flagged() {
    let src = "fn f(x: &u64) -> usize { x as *const u64 as usize }\n";
    assert_eq!(rule_count(SIM, src, Rule::PtrAsInt), 1);
}

#[test]
fn r13_as_ptr_to_integer_cast_is_flagged() {
    let src = "fn f(v: &[u8]) -> u64 { v.as_ptr() as u64 }\n";
    assert_eq!(rule_count(SIM, src, Rule::PtrAsInt), 1);
}

#[test]
fn r13_sanctioned_value_widening_is_clean() {
    let src = "fn f(x: u32, y: u16) -> u64 { (x as u64) + (y as u64) }\n";
    assert_eq!(rule_count(SIM, src, Rule::PtrAsInt), 0);
}

#[test]
fn r13_test_code_is_exempt() {
    let src = "#[test]\nfn t() { let x = 7u64; let _ = &x as *const u64 as usize; }\n";
    assert_eq!(rule_count(SIM, src, Rule::PtrAsInt), 0);
}

#[test]
fn r13_does_not_fire_on_driver_class_files() {
    let src = "fn f(x: &u64) -> usize { x as *const u64 as usize }\n";
    assert_eq!(rule_count(DRIVER, src, Rule::PtrAsInt), 0);
}

// ---------------------------------------------------------------- R14

const PROTO: &str = "crates/nvsim-serve/src/protocol.rs";

#[test]
fn r14_variant_with_encode_decode_and_test_is_clean() {
    let src = "
enum Command {
    Open,
}
fn encode_payload(c: &Command) { match c { Command::Open => {} } }
fn decode_payload() -> Command { Command::Open }
#[cfg(test)]
mod tests {
    #[test]
    fn roundtrip() { let _ = Command::Open; }
}
";
    assert_eq!(rule_count(PROTO, src, Rule::ProtocolCoverage), 0);
}

#[test]
fn r14_encode_without_decode_is_flagged() {
    let src = "
enum Command {
    Open,
    Close,
}
fn encode_payload(c: &Command) {
    match c { Command::Open => {}, Command::Close => {} }
}
fn decode_payload() -> Command { Command::Open }
#[cfg(test)]
mod tests {
    #[test]
    fn roundtrip() { let _ = (Command::Open, Command::Close); }
}
";
    let hits = lint_sources([(PROTO, src)]);
    let f = hits
        .iter()
        .find(|f| f.rule == Rule::ProtocolCoverage)
        .expect("Close flagged");
    assert_eq!(f.line, 4, "anchored at the variant definition");
    assert!(f.message.contains("`Command::Close`"));
    assert!(
        f.message.contains("is missing a decode arm:"),
        "only the decode arm is missing: {}",
        f.message
    );
}

#[test]
fn r14_missing_test_reference_is_flagged() {
    let src = "
enum Command {
    Open,
}
fn encode_payload(c: &Command) { match c { Command::Open => {} } }
fn decode_payload() -> Command { Command::Open }
";
    let hits = lint_sources([(PROTO, src)]);
    let f = hits
        .iter()
        .find(|f| f.rule == Rule::ProtocolCoverage)
        .expect("missing test ref flagged");
    assert!(f.message.contains("a round-trip test reference"));
}

#[test]
fn r14_references_from_serve_test_files_count_as_test_coverage() {
    let def = "
enum Command {
    Open,
}
fn encode_payload(c: &Command) { match c { Command::Open => {} } }
fn decode_payload() -> Command { Command::Open }
";
    let t = "fn roundtrip() { let _ = Command::Open; }\n";
    let hits = lint_sources([(PROTO, def), ("crates/nvsim-serve/tests/proto.rs", t)]);
    assert!(!hits.iter().any(|f| f.rule == Rule::ProtocolCoverage));
}

#[test]
fn r14_allow_on_the_variant_definition_suppresses() {
    let src = "
enum Command {
    // nvsim-lint: allow(protocol-coverage) — fixture: reserved variant, wire id parked.
    Reserved,
}
";
    assert_eq!(rule_count(PROTO, src, Rule::ProtocolCoverage), 0);
}

// ---------------------------------------------------------------- R15

#[test]
fn r15_mixed_unit_addition_is_flagged() {
    let src = "fn f(read_ns: u64, bus_cycles: u64) -> u64 { read_ns + bus_cycles }\n";
    assert_eq!(rule_count(SIM, src, Rule::UnitMismatch), 1);
}

#[test]
fn r15_same_unit_addition_is_clean() {
    let src = "fn f(read_ns: u64, write_ns: u64) -> u64 { read_ns + write_ns }\n";
    assert_eq!(rule_count(SIM, src, Rule::UnitMismatch), 0);
}

#[test]
fn r15_mixed_unit_comparison_is_flagged() {
    let src = "fn f(lat_ns: u64, budget_cycles: u64) -> bool { lat_ns < budget_cycles }\n";
    assert_eq!(rule_count(SIM, src, Rule::UnitMismatch), 1);
}

#[test]
fn r15_cross_file_callee_summary_resolves_the_unit() {
    // `media_read_ns()` lives in another file; its return unit comes from
    // the workspace fn-summary pass, not from anything local to `g`.
    let lib = "pub fn media_read_ns() -> u64 { MEDIA_READ_NS }\n";
    let user = "fn g(budget_cycles: u64) -> u64 { media_read_ns() + budget_cycles }\n";
    let findings = lint_sources([
        ("crates/vans/src/a.rs", lib),
        ("crates/vans/src/b.rs", user),
    ]);
    let hits: Vec<_> = findings
        .iter()
        .filter(|f| f.rule == Rule::UnitMismatch)
        .collect();
    assert_eq!(hits.len(), 1, "{findings:?}");
    assert!(hits[0].file.ends_with("b.rs"));
    assert!(
        hits[0].chain.iter().any(|c| c.contains("summary")),
        "provenance names the fn summary: {:?}",
        hits[0].chain
    );
}

#[test]
fn r15_allow_with_reason_suppresses() {
    let src = "// nvsim-lint: allow(unit-mismatch) — fixture: the domains agree here.\n\
               fn f(read_ns: u64, bus_cycles: u64) -> u64 { read_ns + bus_cycles }\n";
    assert_eq!(rule_count(SIM, src, Rule::UnitMismatch), 0);
}

/// Operand order and file order must not change what is found: the
/// analysis is symmetric and the aggregation sorts deterministically.
#[test]
fn r15_is_order_independent() {
    let a = "pub fn media_read_ns() -> u64 { MEDIA_READ_NS }\n";
    let b = "fn g(budget_cycles: u64) -> u64 { media_read_ns() + budget_cycles }\n";
    let b_swapped = "fn g(budget_cycles: u64) -> u64 { budget_cycles + media_read_ns() }\n";
    let fwd = lint_sources([("crates/vans/src/a.rs", a), ("crates/vans/src/b.rs", b)]);
    let rev = lint_sources([("crates/vans/src/b.rs", b), ("crates/vans/src/a.rs", a)]);
    assert_eq!(fwd, rev, "file order must not matter");
    let sw = lint_sources([
        ("crates/vans/src/a.rs", a),
        ("crates/vans/src/b.rs", b_swapped),
    ]);
    assert_eq!(
        sw.iter().filter(|f| f.rule == Rule::UnitMismatch).count(),
        fwd.iter().filter(|f| f.rule == Rule::UnitMismatch).count(),
        "operand order must not matter"
    );
}

// ---------------------------------------------------------------- R16

#[test]
fn r16_bare_shift_out_of_the_addr_domain_is_flagged() {
    let src = "fn f(addr: u64) -> u64 { addr >> 6 }\n";
    assert_eq!(rule_count(SIM, src, Rule::AddrDomain), 1);
}

#[test]
fn r16_bare_divide_by_line_size_is_flagged() {
    let src = "fn f(span_bytes: u64) -> u64 { span_bytes / 64 }\n";
    assert_eq!(rule_count(SIM, src, Rule::AddrDomain), 1);
}

#[test]
fn r16_named_const_crossing_is_clean() {
    let src = "fn f(span_bytes: u64) -> u64 { span_bytes / CACHE_LINE }\n";
    assert_eq!(rule_count(SIM, src, Rule::AddrDomain), 0);
}

#[test]
fn r16_non_geometry_literal_is_clean() {
    let src = "fn f(addr: u64) -> u64 { addr / 10 }\n";
    assert_eq!(rule_count(SIM, src, Rule::AddrDomain), 0);
}

#[test]
fn r16_count_domain_is_not_address_family() {
    let src = "fn f(retry_count: u64) -> u64 { retry_count / 64 }\n";
    assert_eq!(rule_count(SIM, src, Rule::AddrDomain), 0);
}

// ---------------------------------------------------------------- R17

#[test]
fn r17_timing_literal_in_a_ctor_is_flagged() {
    let src = "fn f() -> Time { Time::from_ns(25) }\n";
    assert_eq!(rule_count(SIM, src, Rule::TimingLiteralProvenance), 1);
}

#[test]
fn r17_named_const_argument_is_clean() {
    let src = "fn f() -> Time { Time::from_ns(PROTOCOL_OVERHEAD_NS) }\n";
    assert_eq!(rule_count(SIM, src, Rule::TimingLiteralProvenance), 0);
}

#[test]
fn r17_literal_inside_a_const_item_is_clean() {
    // Const items are the sanctioned home for timing parameters.
    let src = "pub const PROTOCOL_OVERHEAD_NS: u64 = 25;\n\
               fn f() -> Time { Time::from_ns(PROTOCOL_OVERHEAD_NS) }\n";
    assert_eq!(rule_count(SIM, src, Rule::TimingLiteralProvenance), 0);
}

#[test]
fn r17_timing_suffixed_let_from_a_bare_literal_is_flagged() {
    let src = "fn f() -> u64 { let delay_ns = 25; delay_ns }\n";
    assert_eq!(rule_count(SIM, src, Rule::TimingLiteralProvenance), 1);
}

#[test]
fn r17_test_code_is_exempt() {
    let src = "
fn live() {}
#[cfg(test)]
mod tests {
    #[test]
    fn t() { let _ = Time::from_ns(25); }
}
";
    assert_eq!(rule_count(SIM, src, Rule::TimingLiteralProvenance), 0);
}

// ---------------------------------------------------------------- R18

#[test]
fn r18_unchecked_loop_product_accumulation_is_flagged() {
    let src = "fn f(n_lines: u64, width_bytes: u64) -> u64 {\n\
                   let mut total = 0;\n\
                   for _ in 0..4 { total += n_lines * width_bytes; }\n\
                   total\n\
               }\n";
    assert_eq!(rule_count(SIM, src, Rule::OverflowPolicy), 1);
}

#[test]
fn r18_saturating_policy_is_clean() {
    let src = "fn f(n_lines: u64, width_bytes: u64) -> u64 {\n\
                   let mut total = 0u64;\n\
                   for _ in 0..4 { total += n_lines.saturating_mul(width_bytes); }\n\
                   total\n\
               }\n";
    assert_eq!(rule_count(SIM, src, Rule::OverflowPolicy), 0);
}

#[test]
fn r18_product_outside_a_loop_is_clean() {
    let src = "fn f(n_lines: u64, width_bytes: u64) -> u64 {\n\
                   let mut total = 0;\n\
                   total += n_lines * width_bytes;\n\
                   total\n\
               }\n";
    assert_eq!(rule_count(SIM, src, Rule::OverflowPolicy), 0);
}

#[test]
fn r18_product_inside_a_saturating_conversion_is_clean() {
    // `Time::from_ns_f64` clamps at the float→int cast, so the product
    // never reaches the accumulator unclamped.
    let src = "fn f(lat_ns: f64, n_count: f64) -> Time {\n\
                   let mut total = Time::ZERO;\n\
                   for _ in 0..4 { total += Time::from_ns_f64(lat_ns * n_count); }\n\
                   total\n\
               }\n";
    assert_eq!(rule_count(SIM, src, Rule::OverflowPolicy), 0);
}

#[test]
fn r18_allow_with_reason_suppresses() {
    let src = "fn f(n_lines: u64, width_bytes: u64) -> u64 {\n\
                   let mut total = 0;\n\
                   // nvsim-lint: allow(overflow-policy) — fixture: bounded by construction.\n\
                   for _ in 0..4 { total += n_lines * width_bytes; }\n\
                   total\n\
               }\n";
    assert_eq!(rule_count(SIM, src, Rule::OverflowPolicy), 0);
}

// --------------------------------------------- transport classification

#[test]
fn transport_layer_files_classify_as_driver() {
    use nvsim_lint::rules::{classify, FileClass};
    // The daemon/transport layer may hold threads, sleep between polls
    // and touch sockets — pin it Driver-class so R2/R10 do not fire.
    for rel in [
        "crates/nvsim-serve/src/executor.rs",
        "crates/nvsim-serve/src/transport.rs",
        "crates/nvsim-serve/src/daemon.rs",
        "src/bin/nvsim_served.rs",
    ] {
        assert_eq!(classify(rel), FileClass::Driver, "{rel}");
    }
    // The byte-relevant service layer stays fully linted.
    for rel in [
        "crates/nvsim-serve/src/protocol.rs",
        "crates/nvsim-serve/src/server.rs",
        "crates/nvsim-serve/src/registry.rs",
        "crates/nvsim-serve/src/session.rs",
        "crates/nvsim-serve/src/scripts.rs",
        "crates/nvsim-serve/src/lib.rs",
    ] {
        assert_eq!(classify(rel), FileClass::Simulation, "{rel}");
    }
}

#[test]
fn driver_class_transport_keeps_determinism_rules() {
    // Threads and sleeps are the daemon's job ...
    let daemon = "crates/nvsim-serve/src/daemon.rs";
    let src = "fn f() { std::thread::sleep(std::time::Duration::from_millis(1)); }\n";
    assert_eq!(rule_count(daemon, src, Rule::SyncOnSimPath), 0);
    assert_eq!(rule_count(daemon, src, Rule::WallClock), 0);
    // ... but iteration-order nondeterminism is still banned there.
    let src = "use std::collections::HashMap;\n";
    assert_eq!(rule_count(daemon, src, Rule::UnorderedMap), 1);
    // And wall-clock inside the server would be a finding.
    let src = "fn f() { let t = std::time::Instant::now(); }\n";
    assert!(rule_count("crates/nvsim-serve/src/server.rs", src, Rule::WallClock) > 0);
}
