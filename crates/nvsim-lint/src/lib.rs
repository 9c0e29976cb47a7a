//! `nvsim-lint` — std-only determinism & panic-safety static analyzer for
//! the nvsim workspace.
//!
//! The simulator's reproducibility guarantee (byte-identical `results/` CSVs
//! for any `--jobs N`, run-to-run) rests on invariants the type checker
//! cannot see: full trace coverage, every snapshot field saved and
//! restored, every wire variant encoded, decoded and tested, no narrowing
//! or pointer casts, consistent unit domains and lock order. (The rules
//! clippy checks by resolving types — no unordered maps, no host clock, no
//! locks or threads, no panics on the datapath, no undocumented `unsafe`
//! — live in the workspace `clippy.toml` and the crate-root lint headers.)
//! This crate is a hand-rolled lexer + item-tree parser + rule engine (no
//! `syn`: the linter has no dependencies) that walks workspace sources and
//! enforces them — both token-level rules and workspace-level ones. See
//! DESIGN.md "Static analysis & determinism invariants" for the rule
//! catalog.

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

pub mod items;
pub mod lexer;
pub mod locks;
pub mod report;
pub mod rules;
pub mod scope;
pub mod units;

pub use rules::{
    classify, lint_file, lint_sources, FileClass, FileFacts, Finding, ProtoRef, Rule, ALL_RULES,
};

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Recursively collect workspace `.rs` files eligible for linting, as
/// `(workspace-relative path, contents)`, sorted by path for deterministic
/// reports. Skips `target/`, `.git/`, and anything `classify` rejects.
pub fn collect_sources(root: &Path) -> io::Result<Vec<(String, String)>> {
    let mut files = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let entries = fs::read_dir(&dir)?;
        for entry in entries {
            let entry = entry?;
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if path.is_dir() {
                if name == "target" || name == ".git" || name == ".claude" {
                    continue;
                }
                stack.push(path);
            } else if name.ends_with(".rs") {
                let rel = rel_path(root, &path);
                if classify(&rel) != FileClass::Skip {
                    let src = fs::read_to_string(&path)?;
                    files.push((rel, src));
                }
            }
        }
    }
    files.sort_by(|a, b| a.0.cmp(&b.0));
    Ok(files)
}

fn rel_path(root: &Path, path: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    // Normalise separators so rules and reports are platform-stable.
    rel.components()
        .map(|c| c.as_os_str().to_string_lossy().into_owned())
        .collect::<Vec<_>>()
        .join("/")
}

/// Lint the workspace rooted at `root`: every eligible source file goes
/// through [`lint_sources`], the same pipeline the fixture tests drive.
pub fn lint_workspace(root: &Path) -> io::Result<report::Report> {
    let files = collect_sources(root)?;
    let findings = lint_sources(files.iter().map(|(rel, src)| (rel.as_str(), src.as_str())));
    Ok(report::Report {
        findings,
        files_scanned: files.len(),
    })
}

/// Locate the workspace root: walk up from `start` until a directory holding
/// both `Cargo.toml` and `crates/` is found.
pub fn find_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        if d.join("Cargo.toml").is_file() && d.join("crates").is_dir() {
            return Some(d);
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}
