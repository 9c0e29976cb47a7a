//! The rules nvsim-lint handed to clippy (R1 `unordered-map`, R2
//! `wall-clock`, R3 `panic-path`, R8 `unsafe-undocumented`, R10
//! `sync-on-simpath`, R13 `ptr-as-int`), checked on the bugs they were
//! written for: each fixture, compiled by the toolchain's `clippy-driver`
//! under the workspace `clippy.toml` and the crate-root lint header,
//! fails with its named lint, passes with a reasoned `#[expect]`, and an
//! `#[expect]` that suppresses nothing fails. The header itself is
//! pinned on every crate root that must carry it.
//!
//! Needs the toolchain's `clippy` component.

use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

/// The lint header of every Simulation-class crate root: R3, R8 and R13,
/// and suppression only through a reasoned `#[expect]`.
const SIMULATION_HEADER: &str = "#![deny(
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
)]";

/// The lint header of every Driver-class crate root: R8, and suppression
/// only through a reasoned `#[expect]`.
const DRIVER_HEADER: &str = "#![deny(
    clippy::undocumented_unsafe_blocks,
    clippy::allow_attributes,
    clippy::allow_attributes_without_reason
)]";

/// A module body and the lints it must trip.
struct Fixture {
    name: &'static str,
    lints: &'static [&'static str],
    body: &'static str,
}

const FIXTURES: &[Fixture] = &[
    // R1: the AIT's migration remapped a hot block's pages in hash
    // order, so the frame each page got changed from run to run.
    Fixture {
        name: "ait_migrate_in_hash_order",
        lints: &["clippy::disallowed_types"],
        body: "
use std::collections::HashMap;

#[derive(Default)]
pub struct Ait {
    translations: HashMap<u64, u64>,
}

impl Ait {
    pub fn migrate(&mut self, frame_lo: u64, frame_hi: u64, new_base: u64) {
        let affected: Vec<u64> = self
            .translations
            .iter()
            .filter(|&(_, &f)| f >= frame_lo && f < frame_hi)
            .map(|(&p, _)| p)
            .collect();
        for (i, page) in affected.into_iter().enumerate() {
            self.translations.insert(page, new_base + i as u64);
        }
    }
}
",
    },
    // R1: the pre-translation table evicted the first entry in hash
    // order, so which entry survived differed by run.
    Fixture {
        name: "pretranslation_victim_in_hash_order",
        lints: &["clippy::disallowed_types"],
        body: "
use std::collections::HashMap;

#[derive(Default)]
pub struct Prefetched {
    entries: HashMap<u64, u64>,
}

impl Prefetched {
    pub fn install(&mut self, vpn: u64, at: u64, capacity: usize) {
        if self.entries.len() >= capacity {
            if let Some(&victim) = self.entries.keys().next() {
                self.entries.remove(&victim);
            }
        }
        self.entries.insert(vpn, at);
    }
}
",
    },
    // R2: a latency taken from the host clock instead of simulated time.
    Fixture {
        name: "instant_now",
        lints: &["clippy::disallowed_types", "clippy::disallowed_methods"],
        body: "
pub fn measured_latency_ns() -> u128 {
    let start = std::time::Instant::now();
    start.elapsed().as_nanos()
}
",
    },
    // R2: a host-clock read that never names a clock type.
    Fixture {
        name: "epoch_elapsed",
        lints: &["clippy::disallowed_methods"],
        body: "
pub fn seed_from_epoch() -> u64 {
    std::time::UNIX_EPOCH.elapsed().map_or(0, |d| d.as_secs())
}
",
    },
    // R3: the escape hatches on the datapath.
    Fixture {
        name: "unwrap_and_expect",
        lints: &["clippy::unwrap_used", "clippy::expect_used"],
        body: "
pub fn decode(slot: Option<u32>, count: Result<u32, String>) -> u32 {
    slot.unwrap() + count.expect(\"slot count\")
}
",
    },
    Fixture {
        name: "panic_and_unreachable",
        lints: &["clippy::panic", "clippy::unreachable"],
        body: "
pub fn bank(n: u32) -> u32 {
    match n {
        0 => panic!(\"bank 0 is reserved\"),
        1..=8 => n,
        _ => unreachable!(\"at most 8 banks\"),
    }
}
",
    },
    // R3: a restore must return a `SnapshotError` on a malformed blob;
    // here the panic hides one call below `restore`.
    Fixture {
        name: "restore_calls_a_panicking_helper",
        lints: &["clippy::expect_used"],
        body: "
#[derive(Debug)]
pub struct SnapshotError;

pub struct SnapshotReader<'a> {
    data: &'a [u64],
}

impl SnapshotReader<'_> {
    pub fn get_u64(&mut self) -> Result<u64, SnapshotError> {
        let (&v, rest) = self.data.split_first().ok_or(SnapshotError)?;
        self.data = rest;
        Ok(v)
    }
}

pub trait Snapshot {
    fn restore(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError>;
}

pub struct Rmw {
    pub slots: u64,
}

impl Snapshot for Rmw {
    fn restore(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        self.slots = decode_slots(r);
        Ok(())
    }
}

fn decode_slots(r: &mut SnapshotReader<'_>) -> u64 {
    r.get_u64().expect(\"slot count\")
}
",
    },
    // R8: an `unsafe` block nobody can audit.
    Fixture {
        name: "bare_unsafe",
        lints: &["clippy::undocumented_unsafe_blocks"],
        body: "
pub fn first(v: &[u64]) -> u64 {
    if v.is_empty() {
        return 0;
    }
    unsafe { *v.get_unchecked(0) }
}
",
    },
    // R10: a lock, an atomic, a channel and threads inside the model.
    Fixture {
        name: "sync_primitives",
        lints: &["clippy::disallowed_types", "clippy::disallowed_methods"],
        body: "
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};

pub fn racy_total(n: u64) -> u64 {
    let total = Arc::new(Mutex::new(0u64));
    let ticks = Arc::new(AtomicU64::new(0));
    let (tx, rx) = mpsc::channel();
    for i in 0..n {
        let (total, ticks, tx) = (Arc::clone(&total), Arc::clone(&ticks), tx.clone());
        std::thread::spawn(move || {
            if let Ok(mut t) = total.lock() {
                *t += i;
            }
            ticks.fetch_add(1, Ordering::Relaxed);
            tx.send(i).ok();
        });
    }
    drop(tx);
    let sent: u64 = rx.iter().sum();
    sent + ticks.load(Ordering::Relaxed)
}
",
    },
    // R13: a bank picked from where a value lives instead of from what it
    // is, so ASLR moves it from run to run.
    Fixture {
        name: "borrow_as_int",
        lints: &["clippy::borrow_as_ptr"],
        body: "
pub fn bank_of(line: u64) -> usize {
    (&line as *const u64 as usize) % 16
}
",
    },
    Fixture {
        name: "ref_as_int",
        lints: &["clippy::ref_as_ptr"],
        body: "
pub fn bank_of(line: &u64) -> usize {
    (line as *const u64 as usize) % 16
}
",
    },
    // R13: a seed taken from a buffer's address.
    Fixture {
        name: "slice_as_ptr_as_int",
        lints: &["clippy::disallowed_methods"],
        body: "
pub fn seed(buf: &[u64]) -> u64 {
    buf.as_ptr() as u64
}
",
    },
    Fixture {
        name: "str_as_ptr_as_int",
        lints: &["clippy::disallowed_methods"],
        body: "
pub fn seed(name: &str) -> usize {
    name.as_ptr() as usize
}
",
    },
    Fixture {
        name: "vec_as_ptr_as_int",
        lints: &["clippy::disallowed_methods"],
        body: "
pub fn seed(n: usize) -> usize {
    let table = vec![0u64; n];
    table.as_ptr() as usize
}
",
    },
];

fn workspace_root() -> PathBuf {
    nvsim_lint::find_root(Path::new(env!("CARGO_MANIFEST_DIR")))
        .expect("workspace root above nvsim-lint")
}

/// The toolchain's `clippy-driver`: beside the `cargo` running the test,
/// else on `PATH`.
fn clippy_driver() -> PathBuf {
    std::env::var_os("CARGO")
        .map(|cargo| PathBuf::from(cargo).with_file_name("clippy-driver"))
        .filter(|driver| driver.is_file())
        .unwrap_or_else(|| PathBuf::from("clippy-driver"))
}

/// The lint codes of every diagnostic `clippy-driver` reports on `src`
/// (a crate root), compiled under the workspace configuration with
/// warnings denied. `test` compiles the crate as a test harness.
fn lint_codes(crate_name: &str, src: &str, test: bool) -> Vec<String> {
    let out_dir = Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join("clippy-handover")
        .join(crate_name);
    std::fs::create_dir_all(&out_dir).expect("scratch directory");
    let mut cmd = Command::new(clippy_driver());
    cmd.env("CLIPPY_CONF_DIR", workspace_root())
        .args(["--edition", "2021", "--emit", "metadata"])
        .args(["--error-format", "json", "-D", "warnings"])
        .args(["--crate-name", crate_name, "--out-dir"])
        .arg(&out_dir)
        .args(if test {
            ["--test"].as_slice()
        } else {
            ["--crate-type", "lib"].as_slice()
        })
        .arg("-")
        .stdin(Stdio::piped())
        .stdout(Stdio::null())
        .stderr(Stdio::piped());
    let mut child = cmd
        .spawn()
        .expect("clippy-driver starts (install the toolchain's clippy component)");
    child
        .stdin
        .take()
        .expect("piped stdin")
        .write_all(src.as_bytes())
        .expect("source written to clippy-driver");
    let out = child.wait_with_output().expect("clippy-driver finishes");
    let stderr = String::from_utf8_lossy(&out.stderr);
    let marker = "\"code\":{\"code\":\"";
    let codes: Vec<String> = stderr
        .match_indices(marker)
        .filter_map(|(at, _)| {
            let rest = &stderr[at + marker.len()..];
            rest.find('"').map(|end| rest[..end].to_string())
        })
        .collect();
    assert_eq!(
        out.status.success(),
        codes.is_empty(),
        "clippy-driver exit status disagrees with its diagnostics:\n{stderr}"
    );
    codes
}

/// `body` as module `fixture` of a Simulation-class crate root, under
/// `attr` when given.
fn crate_src(attr: &str, body: &str) -> String {
    format!("{SIMULATION_HEADER}\n{attr}\npub mod fixture {{\n{body}}}\n")
}

fn expect_attr(lints: &[&str]) -> String {
    format!(
        "#[expect({}, reason = \"fixture: a reviewed exception\")]",
        lints.join(", ")
    )
}

#[test]
fn each_fixture_fails_with_its_lint() {
    for f in FIXTURES {
        let codes = lint_codes(f.name, &crate_src("", f.body), false);
        for lint in f.lints {
            assert!(
                codes.iter().any(|c| c == lint),
                "{}: expected `{lint}`, got {codes:?}",
                f.name
            );
        }
    }
}

#[test]
fn a_reasoned_expect_passes_each_fixture() {
    for f in FIXTURES {
        let name = format!("{}_expected", f.name);
        let codes = lint_codes(&name, &crate_src(&expect_attr(f.lints), f.body), false);
        assert!(codes.is_empty(), "{}: {codes:?}", f.name);
    }
}

#[test]
fn an_expect_that_suppresses_nothing_fails() {
    let calm = "\npub fn calm(n: u32) -> u64 {\n    u64::from(n)\n}\n";
    for lint in [
        "clippy::disallowed_types",
        "clippy::disallowed_methods",
        "clippy::unwrap_used",
        "clippy::undocumented_unsafe_blocks",
    ] {
        let name = format!("stale_{}", lint.trim_start_matches("clippy::"));
        let codes = lint_codes(&name, &crate_src(&expect_attr(&[lint]), calm), false);
        assert_eq!(codes, ["unfulfilled_lint_expectations"], "{lint}");
    }
}

#[test]
fn only_a_reasoned_expect_suppresses() {
    let unwrap = FIXTURES
        .iter()
        .find(|f| f.name == "unwrap_and_expect")
        .expect("the unwrap fixture");
    let allowed = "#[allow(clippy::unwrap_used, clippy::expect_used)]";
    let codes = lint_codes("allow_attribute", &crate_src(allowed, unwrap.body), false);
    assert!(
        codes.iter().any(|c| c == "clippy::allow_attributes"),
        "{codes:?}"
    );
    let unreasoned = "#[expect(clippy::unwrap_used, clippy::expect_used)]";
    let codes = lint_codes(
        "unreasoned_expect",
        &crate_src(unreasoned, unwrap.body),
        false,
    );
    assert!(
        codes
            .iter()
            .any(|c| c == "clippy::allow_attributes_without_reason"),
        "{codes:?}"
    );
}

#[test]
fn the_compliant_shapes_pass() {
    let shapes = [
        // The restore every in-tree `Snapshot` impl follows: reader
        // errors propagate with `?`.
        (
            "restore_with_errors",
            "
#[derive(Debug)]
pub struct SnapshotError;

pub fn restore(data: &[u64]) -> Result<u64, SnapshotError> {
    let (&slots, _) = data.split_first().ok_or(SnapshotError)?;
    Ok(slots)
}
",
            false,
        ),
        (
            "documented_unsafe",
            "
pub fn first(v: &[u64]) -> u64 {
    if v.is_empty() {
        return 0;
    }
    // SAFETY: `v` is non-empty, so index 0 is in bounds.
    unsafe { *v.get_unchecked(0) }
}
",
            false,
        ),
        // A value widening is not a pointer cast.
        (
            "value_widening",
            "
pub fn widen(x: u32, y: u16) -> u64 {
    (x as u64) + (y as u64)
}
",
            false,
        ),
        // Tests may unwrap, expect and panic.
        (
            "test_code",
            "
#[cfg(test)]
mod tests {
    #[test]
    fn parses() {
        let n: u32 = \"7\".parse().unwrap();
        let m: u32 = \"8\".parse().expect(\"a number\");
        if n + m != 15 {
            panic!(\"{n} + {m}\");
        }
    }
}
",
            true,
        ),
    ];
    for (name, body, test) in shapes {
        let codes = lint_codes(name, &crate_src("", body), test);
        assert!(codes.is_empty(), "{name}: {codes:?}");
    }
}

/// Clippy's R3 and R8 apply only where a crate root denies them, so every
/// Simulation-class crate root carries the full header and every
/// Driver-class one the R8 header. (The benchmark package cannot carry
/// the attribute; its CI clippy step passes the R8 lint on the command
/// line instead.)
#[test]
fn crate_roots_carry_the_lint_header() {
    use nvsim_lint::{classify, FileClass};
    let root = workspace_root();
    let sources = nvsim_lint::collect_sources(&root).expect("workspace sources");
    let mut checked = 0;
    for (rel, src) in &sources {
        let in_crate = rel.strip_prefix("crates/").map_or(rel.as_str(), |r| {
            r.split_once('/').map_or(r, |(_, inner)| inner)
        });
        let is_root = matches!(in_crate, "src/lib.rs" | "src/main.rs")
            || in_crate
                .strip_prefix("src/bin/")
                .is_some_and(|bin| !bin.contains('/'));
        if !is_root {
            continue;
        }
        let header = match classify(rel) {
            FileClass::Simulation => SIMULATION_HEADER,
            FileClass::Driver => DRIVER_HEADER,
            _ => continue,
        };
        assert!(
            src.contains(header),
            "{rel} lacks its crate-root lint header"
        );
        checked += 1;
    }
    assert!(
        checked >= 15,
        "only {checked} crate roots found — walk broken?"
    );
}
