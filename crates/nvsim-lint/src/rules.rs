//! Rule catalog and the per-file / workspace-level checks.
//!
//! Rules (see DESIGN.md "Static analysis & determinism invariants"):
//!   R1  `unordered-map`             — no HashMap/HashSet in simulation code
//!   R2  `wall-clock`                — no std::time / Instant / SystemTime
//!   R3  `panic-path`                — no .unwrap()/.expect()/panic!-family
//!   R4  `expect-completion-misuse`  — expect_completion only beside a submit
//!   R5  `stage-coverage`            — every Stage variant has an emission site
//!   R7  `panic-reach`               — no transitive path to a panic (call graph)
//!   R8  `unsafe-undocumented`       — every `unsafe` carries a SAFETY: rationale
//!   R9  `cast-truncation`           — no narrowing `as` casts on sim paths
//!   R10 `sync-on-simpath`           — no locks/atomics/threads in simulator crates
//!   R11 `snapshot-field-coverage`   — every field of a `Snapshot` type saved & restored
//!   R12 `lock-order`                — no lock-acquisition cycles in Driver code
//!   R13 `ptr-as-int`                — no pointer-to-integer casts on sim paths
//!   R14 `protocol-coverage`         — every wire variant encoded, decoded, and tested
//!   R15 `unit-mismatch`             — no arithmetic across unit domains (ns/cycles/…)
//!   R16 `addr-domain`               — no addr↔line/page crossings via bare literals
//!   R17 `timing-literal-provenance` — Table I literals live in named consts/config
//!   R18 `overflow-policy`           — loop-product accumulation states its policy
//!       `bad-annotation`            — malformed/unjustified allow annotations
//!
//! R1–R3, R8–R10 and R13 are token-level per-file checks. R4 and R11 are
//! per-file semantic checks over the item tree ([`crate::items`]); R7, R12
//! and R14 are workspace-level: they run over the call graph
//! ([`crate::callgraph`]), the Driver lock graph ([`crate::locks`]) and
//! the aggregated protocol-reference facts respectively. R15–R18 ride on
//! the unit-domain dataflow engine ([`crate::units`]): R17/R18 fire
//! per-file, R15/R16 fire at aggregation time so call operands resolve
//! against the workspace fn-unit summary map.

use crate::callgraph::Graph;
use crate::items::{parse_items, parse_types, FnItem, TypeDef};
use crate::lexer::{lex, Tok, TokKind};
use crate::locks::{self, LockFn};
use crate::scope::{allows, test_mask, Allow};
use crate::units::{self, FnUnit, OpKind, Operand, Unit, UnitOp};
use std::collections::{BTreeMap, BTreeSet};

/// Rule identifiers, ordered as in the catalog.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    UnorderedMap,
    WallClock,
    PanicPath,
    ExpectCompletionMisuse,
    StageCoverage,
    PanicReach,
    UnsafeUndocumented,
    CastTruncation,
    SyncOnSimPath,
    SnapshotFieldCoverage,
    LockOrder,
    PtrAsInt,
    ProtocolCoverage,
    UnitMismatch,
    AddrDomain,
    TimingLiteralProvenance,
    OverflowPolicy,
    BadAnnotation,
}

pub const ALL_RULES: [Rule; 18] = [
    Rule::UnorderedMap,
    Rule::WallClock,
    Rule::PanicPath,
    Rule::ExpectCompletionMisuse,
    Rule::StageCoverage,
    Rule::PanicReach,
    Rule::UnsafeUndocumented,
    Rule::CastTruncation,
    Rule::SyncOnSimPath,
    Rule::SnapshotFieldCoverage,
    Rule::LockOrder,
    Rule::PtrAsInt,
    Rule::ProtocolCoverage,
    Rule::UnitMismatch,
    Rule::AddrDomain,
    Rule::TimingLiteralProvenance,
    Rule::OverflowPolicy,
    Rule::BadAnnotation,
];

impl Rule {
    pub fn id(self) -> &'static str {
        match self {
            Rule::UnorderedMap => "unordered-map",
            Rule::WallClock => "wall-clock",
            Rule::PanicPath => "panic-path",
            Rule::ExpectCompletionMisuse => "expect-completion-misuse",
            Rule::StageCoverage => "stage-coverage",
            Rule::PanicReach => "panic-reach",
            Rule::UnsafeUndocumented => "unsafe-undocumented",
            Rule::CastTruncation => "cast-truncation",
            Rule::SyncOnSimPath => "sync-on-simpath",
            Rule::SnapshotFieldCoverage => "snapshot-field-coverage",
            Rule::LockOrder => "lock-order",
            Rule::PtrAsInt => "ptr-as-int",
            Rule::ProtocolCoverage => "protocol-coverage",
            Rule::UnitMismatch => "unit-mismatch",
            Rule::AddrDomain => "addr-domain",
            Rule::TimingLiteralProvenance => "timing-literal-provenance",
            Rule::OverflowPolicy => "overflow-policy",
            Rule::BadAnnotation => "bad-annotation",
        }
    }

    pub fn rationale(self) -> &'static str {
        match self {
            Rule::UnorderedMap => {
                "HashMap/HashSet iteration order is randomized per process; any simulated \
                 quantity derived from it breaks run-to-run CSV reproducibility. Use \
                 BTreeMap/BTreeSet or a slab, or annotate with a written argument that \
                 iteration order is never observed."
            }
            Rule::WallClock => {
                "wall-clock time on the simulation path makes simulated cycles depend on \
                 host load; Instant/SystemTime belong only in bench perf recording and shims"
            }
            Rule::PanicPath => {
                "datapath code must route failures through BackendError/Result; panics tear \
                 down worker threads mid-experiment and poison partial results"
            }
            Rule::ExpectCompletionMisuse => {
                "expect_completion is only infallible for a request submitted in the same \
                 function; anywhere else the id may already be taken — use \
                 try_take_completion and handle the error"
            }
            Rule::StageCoverage => {
                "a Stage variant with no SpanRecorder emission site is dead attribution: \
                 per-stage latency breakdowns silently under-report"
            }
            Rule::PanicReach => {
                "this function transitively reaches a panic through the call graph; a \
                 deep panic tears down the experiment exactly like a direct one but is \
                 invisible to per-site review. Route the failure through Result, or mark \
                 a reviewed boundary with allow(panic-reach)"
            }
            Rule::UnsafeUndocumented => {
                "every unsafe block/fn/impl needs a `// SAFETY:` comment on the same or \
                 preceding line stating the invariant that makes it sound; undocumented \
                 unsafe cannot be audited"
            }
            Rule::CastTruncation => {
                "a narrowing `as` cast silently wraps out-of-range cycle/address counters \
                 and corrupts simulated results; use try_into/checked conversion or \
                 annotate with a written bound argument"
            }
            Rule::SyncOnSimPath => {
                "locks, atomics and threads have no place inside the simulator: the model \
                 is single-threaded by construction and sync primitives smuggle in \
                 scheduling-dependent behavior; parallelism lives in the bench runner only"
            }
            Rule::SnapshotFieldCoverage => {
                "a field of a `Snapshot` type that is not written in `save` and read back \
                 in `restore` silently drifts out of the checkpoint: SMARTS resume and \
                 serve-session parking then diverge from an uninterrupted run. Reference \
                 the field on both sides, or annotate the field with a written argument \
                 that it is derived/transient and rebuilt without snapshot state"
            }
            Rule::LockOrder => {
                "two locks acquired in opposite orders on different paths (directly or \
                 through a call made while a guard is held) can deadlock the worker pool \
                 under contention; keep a single global acquisition order or drop the \
                 first guard before taking the second"
            }
            Rule::PtrAsInt => {
                "casting a reference or pointer to an integer launders the allocation \
                 address into a value: ASLR then feeds a different number into every run \
                 and any simulated quantity derived from it breaks byte-identical \
                 reproducibility"
            }
            Rule::ProtocolCoverage => {
                "a wire-protocol variant with no encode site, no decode arm, or no \
                 round-trip test reference is a silent compatibility gap: the first \
                 client to send it gets a decode error or a skewed frame instead of a \
                 versioned rejection"
            }
            Rule::UnitMismatch => {
                "adding, subtracting, or comparing values from different unit domains \
                 (ns vs cycles, bytes vs lines, addr vs count) type-checks as plain \
                 integers but silently corrupts the timing model; convert at a named \
                 boundary (`Time::from_ns`, `Freq::time_to_cycles`, `Addr::line_index`) \
                 or annotate why the domains genuinely agree"
            }
            Rule::AddrDomain => {
                "crossing between raw addresses/sizes and line or page indices with a \
                 bare `>>`/`&`/`/` literal duplicates the interleaving geometry at every \
                 site; route crossings through the named helpers (`Addr::line_index`, \
                 `Addr::page_index`, `blocks_touched`) or a named geometry const so the \
                 line/page shape changes in exactly one place"
            }
            Rule::TimingLiteralProvenance => {
                "a Table I latency hard-coded as a bare literal far from its config \
                 field has no provenance: reviewers cannot tell a tuned parameter from \
                 a typo, and the analytical model cannot extract it. Every default \
                 timing parameter lives in exactly one named const or config field; \
                 test/fixture code is exempt"
            }
            Rule::OverflowPolicy => {
                "accumulating loop-carried products into a plain integer invites silent \
                 wraparound exactly where earlier reviews found real overflow bugs; \
                 state the policy with saturating_/checked_ arithmetic or a written \
                 allow justifying the bound"
            }
            Rule::BadAnnotation => {
                "nvsim-lint annotations must name a known rule and carry a written \
                 justification; an unexplained allow is indistinguishable from a mistake"
            }
        }
    }

    pub fn from_id(id: &str) -> Option<Rule> {
        ALL_RULES.iter().copied().find(|r| r.id() == id)
    }

    /// Catalog number as documented in the module header and DESIGN.md.
    /// `None` for `bad-annotation`, which polices the annotation syntax
    /// itself and has never carried a number. (There is no R6 — the slot
    /// was retired before v1 shipped and the numbering is frozen in
    /// baselines and allow comments.)
    pub fn number(self) -> Option<u32> {
        match self {
            Rule::UnorderedMap => Some(1),
            Rule::WallClock => Some(2),
            Rule::PanicPath => Some(3),
            Rule::ExpectCompletionMisuse => Some(4),
            Rule::StageCoverage => Some(5),
            Rule::PanicReach => Some(7),
            Rule::UnsafeUndocumented => Some(8),
            Rule::CastTruncation => Some(9),
            Rule::SyncOnSimPath => Some(10),
            Rule::SnapshotFieldCoverage => Some(11),
            Rule::LockOrder => Some(12),
            Rule::PtrAsInt => Some(13),
            Rule::ProtocolCoverage => Some(14),
            Rule::UnitMismatch => Some(15),
            Rule::AddrDomain => Some(16),
            Rule::TimingLiteralProvenance => Some(17),
            Rule::OverflowPolicy => Some(18),
            Rule::BadAnnotation => None,
        }
    }

    /// One-line description for the rule table (README, `--explain`
    /// listing). Same inventory as [`Rule::rationale`] — there is exactly
    /// one place a rule's documentation lives.
    pub fn summary(self) -> &'static str {
        match self {
            Rule::UnorderedMap => "no HashMap/HashSet on simulation paths",
            Rule::WallClock => "no Instant/SystemTime on simulation paths",
            Rule::PanicPath => "no panic!/unwrap/expect on the datapath",
            Rule::ExpectCompletionMisuse => "expect_completion only after a same-function submit",
            Rule::StageCoverage => "every Stage variant has a trace emission site",
            Rule::PanicReach => "no transitive path from simulation code to a panic",
            Rule::UnsafeUndocumented => "every unsafe block carries a SAFETY comment",
            Rule::CastTruncation => "no narrowing `as` casts of counters/addresses",
            Rule::SyncOnSimPath => "no locks/atomics/threads inside the simulator",
            Rule::SnapshotFieldCoverage => "every Snapshot field is saved and restored",
            Rule::LockOrder => "no conflicting lock-acquisition orders (Driver code)",
            Rule::PtrAsInt => "no pointer-to-integer casts (ASLR nondeterminism)",
            Rule::ProtocolCoverage => {
                "every wire variant is encoded, decoded, and round-trip tested"
            }
            Rule::UnitMismatch => {
                "no +/-/compare across unit domains (ns, cycles, bytes, lines, pages, addr, count)"
            }
            Rule::AddrDomain => "addr/line/page crossings only via named helpers or consts",
            Rule::TimingLiteralProvenance => {
                "timing literals live in named consts/config fields only"
            }
            Rule::OverflowPolicy => "loop-product accumulation states an overflow policy",
            Rule::BadAnnotation => "allow annotations name a known rule and a written reason",
        }
    }

    /// What a finding of this rule shows as evidence — the site format and
    /// any `chain` payload.
    pub fn evidence(self) -> &'static str {
        match self {
            Rule::UnorderedMap
            | Rule::WallClock
            | Rule::PanicPath
            | Rule::SyncOnSimPath
            | Rule::PtrAsInt
            | Rule::CastTruncation
            | Rule::UnsafeUndocumented
            | Rule::BadAnnotation
            | Rule::ExpectCompletionMisuse => "file:line:col of the offending token",
            Rule::StageCoverage => {
                "the Stage variant's definition site; fires when no \
                 SpanRecorder emission references it anywhere in the workspace"
            }
            Rule::PanicReach => {
                "the reaching function's definition site, with the full \
                 call chain to the panic in the finding's `chain` field"
            }
            Rule::SnapshotFieldCoverage => {
                "the field's declaration site, naming which of \
                 save/restore misses it"
            }
            Rule::LockOrder => {
                "one acquisition site per cycle, with the lock-order cycle \
                 (lock -> lock -> ...) in the finding's `chain` field"
            }
            Rule::ProtocolCoverage => {
                "the variant's definition site, naming the missing \
                 side (encode, decode, or round-trip test)"
            }
            Rule::UnitMismatch => {
                "the operator site, with each operand's inferred unit and \
                 its provenance (suffix, accessor, const, or callee summary) in the \
                 finding's `chain` field"
            }
            Rule::AddrDomain => {
                "the operator site, with the address-family operand's \
                 inferred unit and provenance in the finding's `chain` field"
            }
            Rule::TimingLiteralProvenance => {
                "the literal's site, naming the constructor or \
                 timing-suffixed binding it feeds; const/static items and test code are \
                 exempt (they ARE the sanctioned homes)"
            }
            Rule::OverflowPolicy => {
                "the accumulation site inside the loop, naming the \
                 unit domain of the product operand; products routed through the \
                 saturating Time::from_*/Freq conversions are compliant"
            }
        }
    }
}

/// The 18-rule inventory as a GitHub-flavored markdown table — the exact
/// text embedded in README.md between the `<!-- nvsim-lint-rules -->`
/// markers; a workspace test diffs the two so the docs cannot drift from
/// the code.
pub fn rules_markdown_table() -> String {
    let mut out = String::from("| # | rule | checks |\n|---|------|--------|\n");
    for r in ALL_RULES {
        let num = match r.number() {
            Some(n) => format!("R{n}"),
            None => "—".to_string(),
        };
        out.push_str(&format!("| {num} | `{}` | {} |\n", r.id(), r.summary()));
    }
    out
}

/// How a file participates in linting, derived from its workspace path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileClass {
    /// Simulator source: all rules apply.
    Simulation,
    /// Bench/examples driver code: wall clock, panics, narrowing stat casts
    /// and the worker pool's threads are legitimate there, but determinism
    /// (R1), completion discipline (R4) and unsafe hygiene (R8) still apply.
    Driver,
    /// Examples: R4 only (they demonstrate the public API).
    Example,
    /// Integration-test trees: no rules apply, but the files are scanned
    /// for R14 round-trip-test references (a protocol variant exercised
    /// only from `tests/` still counts as tested).
    TestRef,
    /// Shims, benches: skipped entirely.
    Skip,
}

/// Classify a workspace-relative path (`/`-separated).
pub fn classify(rel: &str) -> FileClass {
    if !rel.ends_with(".rs") {
        return FileClass::Skip;
    }
    if rel.contains("crates/shims/") {
        return FileClass::Skip;
    }
    // Test trees are exempt from every rule (and from R5 reference
    // counting: a span emitted only by a test does not make a variant
    // "covered") but still contribute R14 test-reference facts. Bench
    // trees are skipped entirely.
    let in_dir = |d: &str| rel.starts_with(&format!("{d}/")) || rel.contains(&format!("/{d}/"));
    if in_dir("tests") {
        return FileClass::TestRef;
    }
    if in_dir("benches") {
        return FileClass::Skip;
    }
    if in_dir("examples") {
        return FileClass::Example;
    }
    if rel.starts_with("crates/bench/") {
        return FileClass::Driver;
    }
    // The serve executor, the transport mux and the daemon loops are the
    // places the service layer is allowed to hold threads, sleep between
    // polls and touch sockets: they schedule and carry bytes but never
    // model time. Everything else in nvsim-serve (protocol, session,
    // registry, server) is simulation-class, as are the byte-relevant
    // parts the transport depends on.
    if rel == "crates/nvsim-serve/src/executor.rs"
        || rel == "crates/nvsim-serve/src/transport.rs"
        || rel == "crates/nvsim-serve/src/daemon.rs"
    {
        return FileClass::Driver;
    }
    // Binary entrypoints (signal handling, CLI, process exit) are driver
    // code by nature.
    if rel.starts_with("src/bin/") {
        return FileClass::Driver;
    }
    if rel.starts_with("crates/") || rel.starts_with("src/") {
        return FileClass::Simulation;
    }
    FileClass::Skip
}

/// One lint finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    pub file: String,
    pub line: u32,
    pub col: u32,
    pub rule: Rule,
    pub message: String,
    /// Chain evidence: the R7 call path (caller first, panic site last) or
    /// the R12 lock-acquisition cycle (first lock repeated at the end).
    pub chain: Vec<String>,
}

/// Classification of a protocol-variant reference site (R14).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProtoRef {
    /// Referenced inside an `*encode*` function.
    Encode,
    /// Referenced inside a `*decode*` function.
    Decode,
    /// Referenced from test code (a `#[cfg(test)]` region or a `tests/`
    /// tree file).
    Test,
}

/// Per-file facts feeding the workspace-level passes (R5 stage coverage,
/// the R7 call graph, R12 lock order, R14 protocol coverage).
#[derive(Debug, Default)]
pub struct FileFacts {
    /// `(variant, line)` pairs from the `enum Stage` definition, if this
    /// file defines it.
    pub defined: Vec<(String, u32)>,
    /// Variants referenced as `Stage::X` in non-test code of a file that
    /// records spans (contains `SpanRecorder` or `StageSpan::new`).
    pub emitted: Vec<String>,
    /// Parsed function items (simulation-class files only) for the
    /// workspace call graph.
    pub items: Vec<FnItem>,
    /// Justified allow annotations `(rule id, applies line)` — consulted by
    /// workspace-level passes whose findings anchor in this file.
    pub allows: Vec<(String, u32)>,
    /// Wire-protocol enum variants `(enum, variant, line)` defined here
    /// (populated only for the protocol definition file).
    pub proto_defined: Vec<(String, String, u32)>,
    /// Protocol variant reference sites `(enum, variant, kind)`.
    pub proto_refs: Vec<(String, String, ProtoRef)>,
    /// Per-function lock facts (Driver-class files only) for R12.
    pub lock_fns: Vec<LockFn>,
    /// R15/R16 operator sites awaiting call-operand resolution against
    /// the workspace fn-unit summary map.
    pub unit_ops: Vec<UnitOp>,
    /// Return-unit summaries of this file's functions (from name
    /// suffixes), feeding cross-file R15/R16 resolution.
    pub fn_units: Vec<FnUnit>,
}

/// Path suffix identifying the `Stage` definition file.
const STAGE_DEF_FILE: &str = "nvsim-types/src/trace.rs";

/// Path suffix identifying the wire-protocol definition file (R14).
const PROTOCOL_DEF_FILE: &str = "nvsim-serve/src/protocol.rs";

/// The wire-protocol enums whose variants R14 tracks.
const PROTOCOL_ENUMS: [&str; 2] = ["Command", "Response"];

/// Integer target types of an R13 pointer cast. Wider than R9's narrowing
/// list: a pointer laundered through `as u64`/`as usize` is exactly the
/// nondeterminism R13 exists to stop.
const PTR_CAST_INTS: [&str; 12] = [
    "usize", "u64", "u32", "u16", "u8", "isize", "i64", "i32", "i16", "i8", "u128", "i128",
];

/// Path suffix of the completion-bookkeeping module: the one place allowed
/// to define and wrap `expect_completion` without a paired submit (the
/// `wait_for` convenience and the blanket `&mut B` forwarder live there).
const COMPLETION_MODULE: &str = "nvsim-types/src/backend.rs";

/// Sub-64-bit integer type names: an `as` cast to one of these narrows on
/// every 64-bit target. (`as u64`/`as usize`/`as f64` are widening or
/// value-preserving for the workspace's u32-and-down sources and are not
/// flagged; the repo builds 64-bit only.)
const NARROW_INTS: [&str; 6] = ["u8", "u16", "u32", "i8", "i16", "i32"];

/// Synchronization primitives banned inside simulator crates (R10).
const SYNC_TYPES: [&str; 16] = [
    "Mutex",
    "RwLock",
    "Condvar",
    "Barrier",
    "AtomicBool",
    "AtomicU8",
    "AtomicU16",
    "AtomicU32",
    "AtomicU64",
    "AtomicUsize",
    "AtomicI8",
    "AtomicI16",
    "AtomicI32",
    "AtomicI64",
    "AtomicIsize",
    "mpsc",
];

/// Lint a single file. Returns per-site findings and workspace facts.
pub fn lint_file(rel: &str, src: &str, class: FileClass) -> (Vec<Finding>, FileFacts) {
    let mut findings = Vec::new();
    let mut facts = FileFacts::default();
    if class == FileClass::Skip {
        return (findings, facts);
    }
    if class == FileClass::TestRef {
        // Test trees contribute only R14 test-reference facts, and only
        // the serve crate's tests can exercise the wire protocol.
        if rel.contains("crates/nvsim-serve/") {
            let toks = lex(src);
            let mask = test_mask(&toks);
            facts.proto_refs = proto_refs(&toks, &mask, &[], class);
        }
        return (findings, facts);
    }
    let toks = lex(src);
    let mask = test_mask(&toks);
    let allow_list = allows(&toks);

    let allowed = |rule: Rule, line: u32| -> bool {
        allow_list
            .iter()
            .any(|a| a.has_reason && a.rule == rule.id() && a.applies_line == line)
    };
    let mut push = |rule: Rule, line: u32, col: u32, msg: String| {
        if !allowed(rule, line) {
            findings.push(Finding {
                file: rel.to_string(),
                line,
                col,
                rule,
                message: msg,
                chain: Vec::new(),
            });
        }
    };

    let next_code = |mut i: usize| -> Option<&Tok> {
        loop {
            i += 1;
            match toks.get(i) {
                Some(t) if t.kind == TokKind::Comment => continue,
                other => return other,
            }
        }
    };
    let prev_code =
        |i: usize| -> Option<&Tok> { toks[..i].iter().rev().find(|t| t.kind != TokKind::Comment) };

    // Last line of each SAFETY: comment, for R8 adjacency (a multi-line
    // block comment sanctions the line after its *end*).
    let safety_ends: Vec<u32> = toks
        .iter()
        .filter(|t| t.kind == TokKind::Comment && t.text.contains("SAFETY:"))
        .map(|t| {
            let newlines = t.text.matches('\n').count();
            t.line + u32::try_from(newlines).unwrap_or(u32::MAX)
        })
        .collect();

    // The defining file (trace.rs) references every variant in `Stage::ALL`
    // and in the recorder impl itself — those are not emission sites.
    let is_emitter = class == FileClass::Simulation
        && !rel.ends_with(STAGE_DEF_FILE)
        && toks
            .iter()
            .zip(&mask)
            .any(|(t, m)| !m && (t.is_ident("SpanRecorder") || t.is_ident("StageSpan")));

    for (i, t) in toks.iter().enumerate() {
        if t.kind == TokKind::Comment || mask[i] {
            continue;
        }
        if t.kind != TokKind::Ident {
            continue;
        }
        let name = t.text.as_str();

        // R1 — unordered maps.
        if class != FileClass::Example && (name == "HashMap" || name == "HashSet") {
            push(
                Rule::UnorderedMap,
                t.line,
                t.col,
                format!(
                    "`{name}` on a simulation path: {}",
                    Rule::UnorderedMap.rationale()
                ),
            );
        }

        // R2 — wall clock (simulation only).
        if class == FileClass::Simulation {
            if name == "Instant" || name == "SystemTime" {
                push(
                    Rule::WallClock,
                    t.line,
                    t.col,
                    format!(
                        "`{name}` on a simulation path: {}",
                        Rule::WallClock.rationale()
                    ),
                );
            }
            if name == "std"
                && next_code(i).is_some_and(|n| n.is_punct(':'))
                && toks.get(i + 3).is_some_and(|n| n.is_ident("time"))
            {
                push(
                    Rule::WallClock,
                    t.line,
                    t.col,
                    format!("`std::time` import: {}", Rule::WallClock.rationale()),
                );
            }
        }

        // R3 — panic paths (simulation only).
        if class == FileClass::Simulation {
            let method_call = |n: &str| {
                name == n
                    && prev_code(i).is_some_and(|p| p.is_punct('.'))
                    && next_code(i).is_some_and(|n| n.is_punct('('))
            };
            if method_call("unwrap") || method_call("expect") {
                push(
                    Rule::PanicPath,
                    t.line,
                    t.col,
                    format!("`.{name}()` on a datapath: {}", Rule::PanicPath.rationale()),
                );
            }
            if matches!(name, "panic" | "unreachable" | "todo" | "unimplemented")
                && next_code(i).is_some_and(|n| n.is_punct('!'))
            {
                push(
                    Rule::PanicPath,
                    t.line,
                    t.col,
                    format!("`{name}!` on a datapath: {}", Rule::PanicPath.rationale()),
                );
            }
        }

        // R8 — undocumented unsafe (simulation + driver; examples have none
        // by policy review, and shims/tests are skipped anyway).
        if class != FileClass::Example
            && name == "unsafe"
            && !safety_ends
                .iter()
                .any(|&end| end == t.line || end + 1 == t.line)
        {
            push(
                Rule::UnsafeUndocumented,
                t.line,
                t.col,
                format!(
                    "`unsafe` without a SAFETY: comment: {}",
                    Rule::UnsafeUndocumented.rationale()
                ),
            );
        }

        // R9 — narrowing casts (simulation only; driver stat paths exempt).
        if class == FileClass::Simulation && name == "as" {
            if let Some(ty) = next_code(i).filter(|n| n.kind == TokKind::Ident) {
                if NARROW_INTS.contains(&ty.text.as_str()) {
                    push(
                        Rule::CastTruncation,
                        t.line,
                        t.col,
                        format!(
                            "narrowing `as {}` cast: {}",
                            ty.text,
                            Rule::CastTruncation.rationale()
                        ),
                    );
                }
            }
        }

        // R10 — sync primitives (simulation only; Driver-class code such as
        // the worker pool may hold them).
        if class == FileClass::Simulation {
            if SYNC_TYPES.contains(&name) {
                push(
                    Rule::SyncOnSimPath,
                    t.line,
                    t.col,
                    format!(
                        "`{name}` in a simulator crate: {}",
                        Rule::SyncOnSimPath.rationale()
                    ),
                );
            }
            if name == "thread" && next_code(i).is_some_and(|n| n.is_punct(':')) {
                push(
                    Rule::SyncOnSimPath,
                    t.line,
                    t.col,
                    format!(
                        "`thread::` path in a simulator crate: {}",
                        Rule::SyncOnSimPath.rationale()
                    ),
                );
            }
        }

        // R5 facts — references.
        if is_emitter && name == "Stage" && next_code(i).is_some_and(|n| n.is_punct(':')) {
            if let Some(variant) = toks.get(i + 3).filter(|v| v.kind == TokKind::Ident) {
                facts.emitted.push(variant.text.clone());
            }
        }
    }

    // R13 — pointer-to-integer casts (simulation only).
    if class == FileClass::Simulation {
        for (line, col, what) in ptr_as_int_sites(&toks, &mask) {
            push(
                Rule::PtrAsInt,
                line,
                col,
                format!("{what}: {}", Rule::PtrAsInt.rationale()),
            );
        }
    }

    // Item tree: feeds R4 here and the workspace call graph (R7) upstream.
    facts.items = parse_items(&toks, &mask, &allow_list);

    // R15–R18 — unit-domain dataflow (simulation only). R17/R18 fire
    // here; R15/R16 operator facts and fn-unit summaries go to the
    // aggregation pass for cross-file call resolution.
    if class == FileClass::Simulation {
        let ufacts = units::analyze(&toks, &mask, &facts.items);
        for lf in &ufacts.local {
            let rule = match lf.rule {
                units::LocalRule::TimingLiteral => Rule::TimingLiteralProvenance,
                units::LocalRule::OverflowPolicy => Rule::OverflowPolicy,
            };
            push(rule, lf.line, lf.col, lf.message.clone());
        }
        facts.unit_ops = ufacts.ops;
        facts.fn_units = ufacts.fn_units;
    }

    // R11 — snapshot field coverage: every field (or enum variant) of a
    // type with an `impl Snapshot` in this file must be referenced in both
    // the save and the restore body (including same-file helper fns the
    // bodies call). All workspace `Snapshot` impls live beside their type
    // definition, so the check is per-file.
    if class == FileClass::Simulation {
        let typedefs = parse_types(&toks, &mask);
        for def in &typedefs {
            snapshot_field_coverage(&toks, &facts.items, def, &mut |line, col, msg| {
                push(Rule::SnapshotFieldCoverage, line, col, msg);
            });
        }

        // R14 facts — definition side (the protocol file) and reference
        // sides (encode/decode bodies anywhere in the serve crate).
        if rel.ends_with(PROTOCOL_DEF_FILE) {
            for def in typedefs
                .iter()
                .filter(|d| d.is_enum && PROTOCOL_ENUMS.contains(&d.name.as_str()))
            {
                for v in &def.fields {
                    facts
                        .proto_defined
                        .push((def.name.clone(), v.name.clone(), v.line));
                }
            }
        }
        if rel.contains("crates/nvsim-serve/") {
            facts.proto_refs = proto_refs(&toks, &mask, &facts.items, class);
        }
    }

    // R12 facts — lock acquisitions and guard extents (Driver files only;
    // R10 keeps everything else lock-free).
    if class == FileClass::Driver {
        facts.lock_fns = locks::collect(&toks, &mask, &facts.items);
    }

    // R4 — expect_completion outside the completion-bookkeeping module must
    // sit in a function that submits the request itself; anywhere else the
    // panic-on-miss contract cannot be locally verified.
    if !rel.ends_with(COMPLETION_MODULE) {
        for f in facts.items.iter().filter(|f| !f.is_test) {
            let submits = f.calls.iter().any(|c| c.name == "submit");
            if submits {
                continue;
            }
            for c in f.calls.iter().filter(|c| c.name == "expect_completion") {
                push(
                    Rule::ExpectCompletionMisuse,
                    c.line,
                    c.col,
                    format!(
                        "`expect_completion` in `{}` which never submits: {}",
                        f.qual_name(),
                        Rule::ExpectCompletionMisuse.rationale()
                    ),
                );
            }
        }
    }

    // R5 facts — definition.
    if rel.ends_with(STAGE_DEF_FILE) {
        facts.defined = stage_variants(&toks);
    }

    // Malformed / unjustified annotations.
    for a in &allow_list {
        annotation_finding(rel, a, &mut findings);
    }

    // Export justified allows for workspace-level passes (R12/R14) whose
    // findings anchor back into this file.
    facts.allows = allow_list
        .iter()
        .filter(|a| a.has_reason)
        .map(|a| (a.rule.clone(), a.applies_line))
        .collect();

    (findings, facts)
}

/// R11 core: check one type definition against its `impl Snapshot` bodies.
fn snapshot_field_coverage(
    toks: &[Tok],
    items: &[FnItem],
    def: &TypeDef,
    emit: &mut dyn FnMut(u32, u32, String),
) {
    let side = |fn_name: &str| -> Option<BTreeSet<String>> {
        let start = items.iter().position(|f| {
            !f.is_test
                && f.name == fn_name
                && f.of_trait.as_deref() == Some("Snapshot")
                && f.owner.as_deref() == Some(def.name.as_str())
        })?;
        Some(reachable_idents(toks, items, start))
    };
    // Only types with both trait fns in this file are checked; the trait
    // requires both, so a lone side means the impl lives elsewhere.
    let (Some(saved), Some(restored)) = (side("save"), side("restore")) else {
        return;
    };
    let what = if def.is_enum { "variant" } else { "field" };
    for field in &def.fields {
        let in_save = saved.contains(&field.name);
        let in_restore = restored.contains(&field.name);
        if in_save && in_restore {
            continue;
        }
        let missing = match (in_save, in_restore) {
            (false, false) => "either the save or the restore body",
            (false, true) => "the save body",
            _ => "the restore body",
        };
        emit(
            field.line,
            field.col,
            format!(
                "{what} `{}` of `{}` (impl Snapshot) is not referenced in {missing}: {}",
                field.name,
                def.name,
                Rule::SnapshotFieldCoverage.rationale()
            ),
        );
    }
}

/// Identifiers reachable from `items[start]`'s body: the body's own idents
/// plus those of same-file helper functions it calls (BFS, name-based with
/// qualified narrowing). Calls into *other types'* `save`/`restore` impls
/// are not followed — a field forwarding its own snapshot appears as
/// `self.field.save(w)`, so the field ident is already direct evidence,
/// and following the sibling impl would credit its fields to this type.
fn reachable_idents(toks: &[Tok], items: &[FnItem], start: usize) -> BTreeSet<String> {
    let mut idents = BTreeSet::new();
    let mut seen: BTreeSet<usize> = BTreeSet::new();
    seen.insert(start);
    let mut queue = vec![start];
    while let Some(fi) = queue.pop() {
        let f = &items[fi];
        if let Some((b0, b1)) = f.body {
            for t in toks.iter().take(b1 + 1).skip(b0) {
                if t.kind == TokKind::Ident {
                    idents.insert(t.text.clone());
                }
            }
        }
        for c in &f.calls {
            if c.method && (c.name == "save" || c.name == "restore") {
                continue;
            }
            for (gi, g) in items.iter().enumerate() {
                if g.is_test || g.name != c.name {
                    continue;
                }
                if let Some(q) = &c.qual {
                    if q != "Self" && g.owner.as_deref() != Some(q.as_str()) {
                        continue;
                    }
                }
                if seen.insert(gi) {
                    queue.push(gi);
                }
            }
        }
    }
    idents
}

/// R13 scan: pointer-to-integer cast sites `(line, col, description)`.
///
/// Two patterns are recognized — `.as_ptr() as <int>` (and `as_mut_ptr`)
/// and the cast chain `… as *const T as <int>` / `… as *mut T as <int>`.
/// A bare `p as usize` on an already-pointer-typed binding needs type
/// inference and is out of scope; the workspace idiom for sanctioned
/// widening (`n as u64` on integers) is untouched.
fn ptr_as_int_sites(toks: &[Tok], mask: &[bool]) -> Vec<(u32, u32, String)> {
    let code: Vec<usize> = (0..toks.len())
        .filter(|&i| toks[i].kind != TokKind::Comment)
        .collect();
    let mut out = Vec::new();
    for k in 0..code.len() {
        let i = code[k];
        if mask[i] || !toks[i].is_ident("as") {
            continue;
        }
        let Some(&ni) = code.get(k + 1) else {
            continue;
        };
        if toks[ni].kind != TokKind::Ident || !PTR_CAST_INTS.contains(&toks[ni].text.as_str()) {
            continue;
        }
        let int_ty = toks[ni].text.as_str();
        // `.as_ptr() as usize` — the pointer came from a method one step back.
        let from_as_ptr = k >= 4
            && toks[code[k - 1]].is_punct(')')
            && toks[code[k - 2]].is_punct('(')
            && (toks[code[k - 3]].is_ident("as_ptr") || toks[code[k - 3]].is_ident("as_mut_ptr"))
            && toks[code[k - 4]].is_punct('.');
        if from_as_ptr {
            out.push((
                toks[i].line,
                toks[i].col,
                format!("`.{}() as {int_ty}` pointer cast", toks[code[k - 3]].text),
            ));
            continue;
        }
        // `… as *const T as usize` — walk back over the pointee type to the
        // raw-pointer cast that produced the value.
        let mut j = k;
        let mut steps = 0usize;
        let from_raw_cast = loop {
            if j == 0 || steps > 16 {
                break false;
            }
            j -= 1;
            steps += 1;
            let t = &toks[code[j]];
            let type_ish = (t.kind == TokKind::Ident
                && !matches!(t.text.as_str(), "const" | "mut" | "as"))
                || t.is_punct(':')
                || t.is_punct('<')
                || t.is_punct('>')
                || t.is_punct('[')
                || t.is_punct(']')
                || t.is_punct(';')
                || t.kind == TokKind::Lifetime
                || t.kind == TokKind::Num;
            if type_ish {
                continue;
            }
            break t.kind == TokKind::Ident
                && matches!(t.text.as_str(), "const" | "mut")
                && j >= 2
                && toks[code[j - 1]].is_punct('*')
                && toks[code[j - 2]].is_ident("as");
        };
        if from_raw_cast {
            out.push((
                toks[i].line,
                toks[i].col,
                format!(
                    "`as *{} _ as {int_ty}` pointer cast chain",
                    toks[code[j]].text
                ),
            ));
        }
    }
    out
}

/// R14 reference scan: `Command::X` / `Response::X` sites classified as
/// encode, decode, or test references. Test-masked regions and `tests/`
/// files count as Test; unmasked sites count only inside a fn whose name
/// contains `encode`/`decode` (plain match arms in session handling are
/// usage, not wire coverage).
fn proto_refs(
    toks: &[Tok],
    mask: &[bool],
    items: &[FnItem],
    class: FileClass,
) -> Vec<(String, String, ProtoRef)> {
    let code: Vec<usize> = (0..toks.len())
        .filter(|&i| toks[i].kind != TokKind::Comment)
        .collect();
    let mut out = Vec::new();
    if code.len() < 4 {
        return out;
    }
    for k in 0..code.len() - 3 {
        let t = &toks[code[k]];
        if t.kind != TokKind::Ident || !PROTOCOL_ENUMS.contains(&t.text.as_str()) {
            continue;
        }
        if !toks[code[k + 1]].is_punct(':') || !toks[code[k + 2]].is_punct(':') {
            continue;
        }
        let v = &toks[code[k + 3]];
        if v.kind != TokKind::Ident || !v.text.chars().next().is_some_and(|c| c.is_uppercase()) {
            continue;
        }
        let kind = if class == FileClass::TestRef || mask[code[k]] {
            ProtoRef::Test
        } else {
            let i = code[k];
            let enclosing = items
                .iter()
                .filter(|f| f.body.is_some_and(|(b0, b1)| b0 <= i && i <= b1))
                .min_by_key(|f| f.body.map(|(b0, b1)| b1 - b0).unwrap_or(usize::MAX));
            match enclosing {
                Some(f) if f.name.contains("encode") => ProtoRef::Encode,
                Some(f) if f.name.contains("decode") => ProtoRef::Decode,
                _ => continue,
            }
        };
        out.push((t.text.clone(), v.text.clone(), kind));
    }
    out
}

/// Workspace-level R14: every protocol variant needs an encode site, a
/// decode arm, and a round-trip test reference.
pub fn protocol_coverage(
    def_file: &str,
    defined: &[(String, String, u32)],
    refs: &[(String, String, ProtoRef)],
    allowed: &dyn Fn(u32) -> bool,
) -> Vec<Finding> {
    let mut out = Vec::new();
    for (enm, variant, line) in defined {
        let has = |kind: ProtoRef| {
            refs.iter()
                .any(|(e, v, k)| e == enm && v == variant && *k == kind)
        };
        let mut missing = Vec::new();
        if !has(ProtoRef::Encode) {
            missing.push("an encode site");
        }
        if !has(ProtoRef::Decode) {
            missing.push("a decode arm");
        }
        if !has(ProtoRef::Test) {
            missing.push("a round-trip test reference");
        }
        if missing.is_empty() || allowed(*line) {
            continue;
        }
        out.push(Finding {
            file: def_file.to_string(),
            line: *line,
            col: 1,
            rule: Rule::ProtocolCoverage,
            message: format!(
                "`{enm}::{variant}` is missing {}: {}",
                missing.join(", "),
                Rule::ProtocolCoverage.rationale()
            ),
            chain: Vec::new(),
        });
    }
    out
}

/// Workspace-level R15/R16: resolve call operands through the fn-unit
/// summary map (qualified-name narrowing, like the call graph) and fire
/// unit mismatches and bare-literal address-domain crossings.
fn unit_findings(
    unit_files: &[(String, Vec<UnitOp>)],
    fn_units: &[FnUnit],
    allowed_at: &dyn Fn(&str, Rule, u32) -> bool,
) -> Vec<Finding> {
    let mut summary: BTreeMap<&str, Vec<(&Option<String>, Unit)>> = BTreeMap::new();
    for fu in fn_units {
        summary
            .entry(fu.name.as_str())
            .or_default()
            .push((&fu.owner, fu.unit));
    }
    let resolve = |op: &Operand| -> Option<(Unit, String)> {
        match op {
            Operand::Known(u, prov) => Some((*u, prov.clone())),
            Operand::Call { name, qual } => {
                let cands = summary.get(name.as_str())?;
                let narrowed: Vec<Unit> = match qual {
                    Some(q) => {
                        let m: Vec<Unit> = cands
                            .iter()
                            .filter(|(o, _)| o.as_deref() == Some(q.as_str()))
                            .map(|&(_, u)| u)
                            .collect();
                        if m.is_empty() {
                            cands.iter().map(|&(_, u)| u).collect()
                        } else {
                            m
                        }
                    }
                    None => cands.iter().map(|&(_, u)| u).collect(),
                };
                let first = *narrowed.first()?;
                if narrowed.iter().all(|&u| u == first) {
                    Some((first, format!("workspace fn `{name}()` summary")))
                } else {
                    None
                }
            }
            _ => None,
        }
    };
    let mut out = Vec::new();
    for (rel, ops) in unit_files {
        for op in ops {
            match op.kind {
                OpKind::Arith => {
                    let (Some((ul, pl)), Some((ur, pr))) = (resolve(&op.lhs), resolve(&op.rhs))
                    else {
                        continue;
                    };
                    if ul == ur || allowed_at(rel, Rule::UnitMismatch, op.line) {
                        continue;
                    }
                    out.push(Finding {
                        file: rel.clone(),
                        line: op.line,
                        col: op.col,
                        rule: Rule::UnitMismatch,
                        message: format!(
                            "`{} {} {}` mixes `{}` with `{}`: {}",
                            op.lhs_text,
                            op.op,
                            op.rhs_text,
                            ul.name(),
                            ur.name(),
                            Rule::UnitMismatch.rationale()
                        ),
                        chain: vec![
                            format!("lhs `{}` is {} ({})", op.lhs_text, ul.name(), pl),
                            format!("rhs `{}` is {} ({})", op.rhs_text, ur.name(), pr),
                        ],
                    });
                }
                OpKind::AddrCross => {
                    let Some((ul, pl)) = resolve(&op.lhs) else {
                        continue;
                    };
                    if !units::addr_family(ul) || allowed_at(rel, Rule::AddrDomain, op.line) {
                        continue;
                    }
                    out.push(Finding {
                        file: rel.clone(),
                        line: op.line,
                        col: op.col,
                        rule: Rule::AddrDomain,
                        message: format!(
                            "`{} {} {}` crosses out of the `{}` domain via a bare \
                             geometry literal: {}",
                            op.lhs_text,
                            op.op,
                            op.rhs_text,
                            ul.name(),
                            Rule::AddrDomain.rationale()
                        ),
                        chain: vec![format!("lhs `{}` is {} ({})", op.lhs_text, ul.name(), pl)],
                    });
                }
            }
        }
    }
    out
}

fn annotation_finding(rel: &str, a: &Allow, findings: &mut Vec<Finding>) {
    let problem = if a.rule.is_empty() {
        Some("marker without a parsable `allow(<rule-id>)`".to_string())
    } else if Rule::from_id(&a.rule).is_none() {
        Some(format!("unknown rule id `{}`", a.rule))
    } else if !a.has_reason {
        Some(format!(
            "`allow({})` without a written justification (append `— <reason>`)",
            a.rule
        ))
    } else {
        None
    };
    if let Some(p) = problem {
        findings.push(Finding {
            file: rel.to_string(),
            line: a.comment_line,
            col: 1,
            rule: Rule::BadAnnotation,
            message: format!("{p}: {}", Rule::BadAnnotation.rationale()),
            chain: Vec::new(),
        });
    }
}

/// Extract `(variant, line)` pairs from `pub enum Stage { ... }`.
fn stage_variants(toks: &[Tok]) -> Vec<(String, u32)> {
    let mut out = Vec::new();
    let code: Vec<&Tok> = toks.iter().filter(|t| t.kind != TokKind::Comment).collect();
    let mut i = 0usize;
    while i + 2 < code.len() {
        if code[i].is_ident("enum") && code[i + 1].is_ident("Stage") && code[i + 2].is_punct('{') {
            let mut j = i + 3;
            let mut depth = 1i32;
            while j < code.len() && depth > 0 {
                let t = code[j];
                if t.is_punct('{') {
                    depth += 1;
                } else if t.is_punct('}') {
                    depth -= 1;
                } else if depth == 1
                    && t.kind == TokKind::Ident
                    && t.text.chars().next().is_some_and(|c| c.is_uppercase())
                    && code
                        .get(j + 1)
                        .is_some_and(|n| n.is_punct(',') || n.is_punct('}') || n.is_punct('='))
                {
                    out.push((t.text.clone(), t.line));
                }
                j += 1;
            }
            break;
        }
        i += 1;
    }
    out
}

/// Workspace-level R5: every defined Stage variant must be emitted somewhere.
pub fn stage_coverage(
    def_file: &str,
    defined: &[(String, u32)],
    emitted_all: &[String],
) -> Vec<Finding> {
    let mut out = Vec::new();
    for (variant, line) in defined {
        if !emitted_all.iter().any(|e| e == variant) {
            out.push(Finding {
                file: def_file.to_string(),
                line: *line,
                col: 1,
                rule: Rule::StageCoverage,
                message: format!(
                    "`Stage::{variant}` has no SpanRecorder emission site: {}",
                    Rule::StageCoverage.rationale()
                ),
                chain: Vec::new(),
            });
        }
    }
    out
}

/// Lint a set of in-memory sources (shared by the CLI workspace walk and the
/// fixture tests). Paths are workspace-relative, `/`-separated. Findings are
/// sorted deterministically.
pub fn lint_sources<'a>(files: impl IntoIterator<Item = (&'a str, &'a str)>) -> Vec<Finding> {
    let per_file: Vec<(String, Vec<Finding>, FileFacts)> = files
        .into_iter()
        .map(|(rel, src)| {
            let (f, facts) = lint_file(rel, src, classify(rel));
            (rel.to_string(), f, facts)
        })
        .collect();
    aggregate(per_file)
}

/// Combine per-file results (fresh from [`lint_file`] or replayed from the
/// incremental cache) and run the workspace-level passes: R5 stage
/// coverage, the R7 call graph, the R12 lock graph, and R14 protocol
/// coverage. Findings come back deterministically sorted.
pub fn aggregate(per_file: Vec<(String, Vec<Finding>, FileFacts)>) -> Vec<Finding> {
    let mut findings = Vec::new();
    let mut emitted_all: Vec<String> = Vec::new();
    let mut stage_def: Option<(String, Vec<(String, u32)>)> = None;
    let mut graph_files: Vec<(String, Vec<FnItem>)> = Vec::new();
    let mut allows_by_file: std::collections::BTreeMap<String, Vec<(String, u32)>> =
        std::collections::BTreeMap::new();
    // (definition file, [(enum, variant, line)]).
    type ProtoDef = (String, Vec<(String, String, u32)>);
    let mut proto_def: Option<ProtoDef> = None;
    let mut proto_refs_all: Vec<(String, String, ProtoRef)> = Vec::new();
    let mut lock_files: Vec<(String, Vec<LockFn>)> = Vec::new();
    let mut unit_files: Vec<(String, Vec<UnitOp>)> = Vec::new();
    let mut fn_units_all: Vec<FnUnit> = Vec::new();
    for (rel, mut f, mut facts) in per_file {
        if !facts.unit_ops.is_empty() {
            unit_files.push((rel.clone(), std::mem::take(&mut facts.unit_ops)));
        }
        fn_units_all.append(&mut facts.fn_units);
        findings.append(&mut f);
        emitted_all.append(&mut facts.emitted);
        if !facts.defined.is_empty() {
            stage_def = Some((rel.clone(), std::mem::take(&mut facts.defined)));
        }
        if !facts.allows.is_empty() {
            allows_by_file.insert(rel.clone(), std::mem::take(&mut facts.allows));
        }
        if !facts.proto_defined.is_empty() {
            proto_def = Some((rel.clone(), std::mem::take(&mut facts.proto_defined)));
        }
        proto_refs_all.append(&mut facts.proto_refs);
        if !facts.lock_fns.is_empty() {
            lock_files.push((rel.clone(), std::mem::take(&mut facts.lock_fns)));
        }
        if classify(&rel) == FileClass::Simulation {
            graph_files.push((rel, std::mem::take(&mut facts.items)));
        }
    }
    if let Some((def_file, defined)) = &stage_def {
        findings.extend(stage_coverage(def_file, defined, &emitted_all));
    }
    // R7 — transitive panic reachability over the workspace call graph.
    let graph = Graph::build(graph_files);
    for r in graph.panic_reaches() {
        findings.push(Finding {
            file: r.file,
            line: r.line,
            col: r.col,
            rule: Rule::PanicReach,
            message: format!(
                "fn `{}` transitively reaches a panic ({} hop(s)): {}",
                r.name,
                r.chain.len().saturating_sub(2),
                Rule::PanicReach.rationale()
            ),
            chain: r.chain,
        });
    }
    let allowed_at = |file: &str, rule: Rule, line: u32| -> bool {
        allows_by_file
            .get(file)
            .is_some_and(|v| v.iter().any(|(r, l)| r == rule.id() && *l == line))
    };
    // R12 — lock-order cycles over the Driver lock graph.
    for c in locks::lock_order(&lock_files) {
        if allowed_at(&c.file, Rule::LockOrder, c.line) {
            continue;
        }
        let message = format!(
            "lock acquisition cycle {}: {}",
            c.chain.join(" → "),
            Rule::LockOrder.rationale()
        );
        findings.push(Finding {
            file: c.file,
            line: c.line,
            col: c.col,
            rule: Rule::LockOrder,
            message,
            chain: c.chain,
        });
    }
    // R14 — wire-protocol coverage.
    if let Some((def_file, defined)) = &proto_def {
        findings.extend(protocol_coverage(
            def_file,
            defined,
            &proto_refs_all,
            &|line| allowed_at(def_file, Rule::ProtocolCoverage, line),
        ));
    }
    // R15/R16 — resolve pending unit-operator facts against the
    // workspace fn-unit summary map and fire mismatches/crossings.
    findings.extend(unit_findings(&unit_files, &fn_units_all, &allowed_at));
    findings
        .sort_by(|a, b| (&a.file, a.line, a.col, a.rule).cmp(&(&b.file, b.line, b.col, b.rule)));
    findings
}
