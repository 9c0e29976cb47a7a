//! Fixture-based rule tests: known-bad and known-clean snippets per rule,
//! including the tricky cases (matches inside string literals, comments,
//! `#[cfg(test)]` modules, and behind allow annotations).

use nvsim_lint::rules::{lint_sources, Rule};

const SIM: &str = "crates/vans/src/fixture.rs";
const DRIVER: &str = "crates/bench/src/fixture.rs";

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

// ------------------------------------- lexing, test regions and allows
//
// The mechanisms every rule shares, shown on R9: matches inside strings,
// comments and test regions never count, and a justified allow on the
// finding's line or the line above suppresses it.

#[test]
fn cast_in_string_literal_is_clean() {
    let src = "fn f() -> &'static str { \"n as u32 is banned\" }\n";
    assert_eq!(rule_count(SIM, src, Rule::CastTruncation), 0);
}

#[test]
fn cast_in_comment_is_clean() {
    let src = "// why no n as u32 here: truncation\n/* n as u8 /* nested */ */\nfn f() {}\n";
    assert_eq!(rule_count(SIM, src, Rule::CastTruncation), 0);
}

#[test]
fn cast_in_cfg_test_module_is_clean() {
    let src = "
fn live() {}
#[cfg(test)]
mod tests {
    #[test]
    fn t() { let _ = 7u64 as u32; }
}
";
    assert_eq!(rule_count(SIM, src, Rule::CastTruncation), 0);
}

#[test]
fn allow_annotation_with_reason_suppresses() {
    let src = "
fn f(n: u64, m: u64) -> (u32, u16) {
    // nvsim-lint: allow(cast-truncation) — n is a channel index < 8 by config
    let a = n as u32;
    (
        a,
        // nvsim-lint: allow(cast-truncation) — m < 2^10 by construction
        m as u16,
    )
}
";
    assert_eq!(rule_count(SIM, src, Rule::CastTruncation), 0);
    assert_eq!(rule_count(SIM, src, Rule::BadAnnotation), 0);
}

#[test]
fn allow_annotation_without_reason_does_not_suppress() {
    let src = "fn f(n: u64) -> u32 {\n    // nvsim-lint: allow(cast-truncation)\n    n as u32\n}\n";
    assert_eq!(rule_count(SIM, src, Rule::CastTruncation), 1);
    assert_eq!(rule_count(SIM, src, Rule::BadAnnotation), 1);
}

#[test]
fn trailing_allow_annotation_suppresses_same_line() {
    let src = "fn f(n: u64) -> u32 { n as u32 } // nvsim-lint: allow(cast-truncation) — n < 8\n";
    assert_eq!(rule_count(SIM, src, Rule::CastTruncation), 0);
}

#[test]
fn unknown_rule_id_in_annotation_is_flagged() {
    let src = "// nvsim-lint: allow(no-such-rule) — whatever\nfn f() {}\n";
    assert_eq!(rule_count(SIM, src, Rule::BadAnnotation), 1);
}

/// The ids of the rules clippy checks, and of the deleted ones, are
/// unknown here: an annotation naming one is a finding, so none can
/// linger in the tree.
#[test]
fn retired_rule_ids_are_unknown() {
    for id in [
        "unordered-map",
        "wall-clock",
        "panic-path",
        "panic-reach",
        "unsafe-undocumented",
        "sync-on-simpath",
        "lock-order",
        "ptr-as-int",
    ] {
        assert_eq!(Rule::from_id(id), None, "{id}");
        let src = format!("// nvsim-lint: allow({id}) — retired\nfn f() {{}}\n");
        assert_eq!(rule_count(SIM, &src, Rule::BadAnnotation), 1, "{id}");
    }
}

#[test]
fn shims_and_test_trees_are_exempt() {
    let src = "fn f(n: u64) -> u32 { n as u32 }\n";
    assert_eq!(
        rule_count("crates/shims/serde/src/lib.rs", src, Rule::CastTruncation),
        0
    );
    assert_eq!(
        rule_count(
            "crates/vans/tests/integration.rs",
            src,
            Rule::CastTruncation
        ),
        0
    );
}

/// One site each of R4, R9 and R11: Simulation-class files get all
/// three findings, Driver-class files only R4's.
const CLASS_PROBE: &str = "
fn take(b: &mut B, id: u64) -> u64 { b.expect_completion(id) }
fn narrow(n: u64) -> u32 { n as u32 }
struct S { a: u64, b: u64 }
impl Snapshot for S {
    fn save(&self, w: &mut SnapshotWriter) { w.put_u64(self.a); w.put_u64(self.b); }
    fn restore(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        self.a = r.get_u64()?;
        Ok(())
    }
}
";

/// `(R4, R9, R11)` finding counts of [`CLASS_PROBE`] at `path`.
fn class_profile(path: &str) -> (usize, usize, usize) {
    (
        rule_count(path, CLASS_PROBE, Rule::ExpectCompletionMisuse),
        rule_count(path, CLASS_PROBE, Rule::CastTruncation),
        rule_count(path, CLASS_PROBE, Rule::SnapshotFieldCoverage),
    )
}

const SIMULATION_PROFILE: (usize, usize, usize) = (1, 1, 1);
const DRIVER_PROFILE: (usize, usize, usize) = (1, 0, 0);

#[test]
fn bench_runner_code_is_driver_class() {
    assert_eq!(class_profile("crates/bench/src/runner.rs"), DRIVER_PROFILE);
}

#[test]
fn examples_are_driver_class() {
    for file in ["examples/quickstart.rs", "crates/vans/examples/demo.rs"] {
        assert_eq!(class_profile(file), DRIVER_PROFILE, "{file}");
    }
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

// ------------------------------------------------- serve classification

#[test]
fn serve_driver_files_keep_completion_discipline_but_not_simulation_rules() {
    // The executor holds the workspace's one worker pool and the daemon
    // its loops: narrowing stat casts are legitimate there, but a
    // completion still needs its submit.
    for file in [
        "crates/nvsim-serve/src/executor.rs",
        "crates/nvsim-serve/src/daemon.rs",
        "src/bin/nvsim_served.rs",
    ] {
        assert_eq!(class_profile(file), DRIVER_PROFILE, "{file}");
    }
}

#[test]
fn rest_of_serve_crate_is_simulation_class() {
    // Protocol, session, registry, server and the transport mux model
    // service state deterministically: every simulator rule applies.
    for file in [
        "crates/nvsim-serve/src/protocol.rs",
        "crates/nvsim-serve/src/session.rs",
        "crates/nvsim-serve/src/registry.rs",
        "crates/nvsim-serve/src/server.rs",
        "crates/nvsim-serve/src/transport.rs",
        "crates/nvsim-serve/src/lib.rs",
    ] {
        assert_eq!(class_profile(file), SIMULATION_PROFILE, "{file}");
    }
}

// ---------------------------------------------------------------- output shape

#[test]
fn findings_are_sorted_and_positioned() {
    let src = "fn g(n: u64) -> u16 {\n    let a = n as u8;\n    a as u16 + n as u16\n}\n";
    let findings = lint_sources([(SIM, src)]);
    let at: Vec<(u32, u32)> = findings.iter().map(|f| (f.line, f.col)).collect();
    assert_eq!(at, [(2, 15), (3, 7), (3, 18)]);
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
    // The executor and daemon may hold threads, sleep between polls and
    // touch sockets — pin them Driver-class: the simulation rules stay off.
    for rel in [
        "crates/nvsim-serve/src/executor.rs",
        "crates/nvsim-serve/src/daemon.rs",
        "src/bin/nvsim_served.rs",
    ] {
        assert_eq!(classify(rel), FileClass::Driver, "{rel}");
    }
    // The byte-relevant service layer stays fully linted, the transport
    // mux (every connection's frame decoder) included.
    for rel in [
        "crates/nvsim-serve/src/transport.rs",
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

// ------------------------------------------------------ dead allows

/// `src` with every allow comment cut off its line.
fn without_allows(src: &str) -> String {
    src.lines()
        .map(|l| match l.find("// nvsim-lint: allow(") {
            Some(at) => format!("{}\n", &l[..at]),
            None => format!("{l}\n"),
        })
        .collect()
}

/// The transport's response-budget helper: with the parameter named
/// `budget` no unit is inferred for it, so the allow suppresses nothing
/// and is itself the finding; named `max_bytes`, the comparison mixes a
/// `count` with `bytes` and the allow carries it.
#[test]
fn allow_that_suppresses_no_finding_is_a_bad_annotation() {
    let helper = |param: &str| {
        format!(
            "
struct Conn {{ out: Vec<u8> }}
impl Conn {{
    fn over_response_budget(&self, {param}: usize) -> bool {{
        // nvsim-lint: allow(unit-mismatch) — `out` is a byte buffer: its length counts bytes.
        self.out.len() > {param}
    }}
}}
"
        )
    };
    let transport = "crates/nvsim-serve/src/transport.rs";
    let dead = lint_sources([(transport, helper("budget").as_str())]);
    assert_eq!(dead.len(), 1, "{dead:?}");
    assert_eq!((dead[0].rule, dead[0].line), (Rule::BadAnnotation, 5));
    assert!(dead[0]
        .message
        .contains("`allow(unit-mismatch)` suppresses no finding"));
    assert!(lint_sources([(transport, helper("max_bytes").as_str())]).is_empty());
    let bare = without_allows(&helper("max_bytes"));
    assert_eq!(rule_count(transport, &bare, Rule::UnitMismatch), 1);
}

/// One live allow per rule family — token-level (R9), item-tree (R11,
/// and R4 in a Driver-class file), protocol coverage (R14), unit domains
/// resolved at aggregation (R15) and per-file (R17): with its allow a
/// source shows no finding of the rule and no annotation finding, and
/// without it the rule fires.
#[test]
fn live_allow_of_each_rule_family_is_clean() {
    let cases: [(&str, Rule, &str); 6] = [
        (
            SIM,
            Rule::CastTruncation,
            "fn f(n: u64) -> u32 {
    // nvsim-lint: allow(cast-truncation) — n is a channel index < 8 by config
    n as u32
}
",
        ),
        (
            SIM,
            Rule::SnapshotFieldCoverage,
            "struct S {
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
",
        ),
        (
            DRIVER,
            Rule::ExpectCompletionMisuse,
            "fn wait(b: &mut B, id: u64) -> u64 {
    b.expect_completion(id) // nvsim-lint: allow(expect-completion-misuse) — fixture: the caller submitted `id`.
}
",
        ),
        (
            PROTO,
            Rule::ProtocolCoverage,
            "enum Command {
    // nvsim-lint: allow(protocol-coverage) — fixture: reserved variant, wire id parked.
    Reserved,
}
",
        ),
        (
            SIM,
            Rule::UnitMismatch,
            "fn f(read_ns: u64, bus_cycles: u64) -> u64 {
    // nvsim-lint: allow(unit-mismatch) — fixture: the domains agree here.
    read_ns + bus_cycles
}
",
        ),
        (
            SIM,
            Rule::TimingLiteralProvenance,
            "fn f() -> u64 {
    // nvsim-lint: allow(timing-literal-provenance) — fixture: a documented one-off.
    let delay_ns = 25;
    delay_ns
}
",
        ),
    ];
    for (path, rule, src) in cases {
        let with = lint_sources([(path, src)]);
        assert!(
            with.iter()
                .all(|f| f.rule != rule && f.rule != Rule::BadAnnotation),
            "{}: {with:?}",
            rule.id()
        );
        assert!(
            rule_count(path, &without_allows(src), rule) > 0,
            "{}",
            rule.id()
        );
    }
}

/// An allow above code its rule never flags, and an allow of
/// `bad-annotation` itself (annotation findings are never suppressible),
/// suppress nothing.
#[test]
fn allow_without_a_finding_and_bad_annotation_allows_are_dead() {
    let src = "
// nvsim-lint: allow(cast-truncation) — nothing below narrows
fn calm(n: u32) -> u64 { n as u64 }
// nvsim-lint: allow(bad-annotation) — fixture: cannot be silenced
fn other() {}
";
    assert_eq!(
        rules_at(SIM, src),
        [
            ("bad-annotation".to_string(), 2),
            ("bad-annotation".to_string(), 4)
        ]
    );
}
