//! CLI driver:
//! `cargo run -p nvsim-lint [-- --root DIR --format text|json|github]`
//! or `cargo run -p nvsim-lint -- --explain <rule>`.
//!
//! Exit status: 0 when clean (no findings), 1 on findings, 2 on usage or
//! I/O errors. `--format json` also writes the report to
//! `results/lint.json` under the workspace root so CI can diff it against
//! the checked-in copy. `--format github` emits GitHub Actions `::error`
//! annotations so findings surface inline on PR diffs. The only way to
//! suppress a finding is an inline
//! `// nvsim-lint: allow(<rule>) — <reason>` annotation.

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

use std::env;
use std::fs;
use std::path::PathBuf;
use std::process::ExitCode;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Format {
    Text,
    Json,
    Github,
}

struct Opts {
    root: Option<PathBuf>,
    format: Format,
    explain: Option<String>,
}

fn parse_args() -> Result<Opts, String> {
    let mut opts = Opts {
        root: None,
        format: Format::Text,
        explain: None,
    };
    let mut args = env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => {
                let v = args.next().ok_or("--root requires a path")?;
                opts.root = Some(PathBuf::from(v));
            }
            "--format" => match args.next().as_deref() {
                Some("text") => opts.format = Format::Text,
                Some("json") => opts.format = Format::Json,
                Some("github") => opts.format = Format::Github,
                _ => return Err("--format expects `text`, `json`, or `github`".to_string()),
            },
            "--explain" => {
                let v = args
                    .next()
                    .ok_or("--explain requires a rule id (or `all`)")?;
                opts.explain = Some(v);
            }
            "--help" | "-h" => {
                return Err(
                    "usage: nvsim-lint [--root DIR] [--format text|json|github] \
                     | --explain <rule|all>"
                        .to_string(),
                )
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(opts)
}

/// Prints one rule's documentation card: catalog number, summary, the
/// full rationale, the evidence format findings carry, and the allow
/// syntax. Everything comes from the [`nvsim_lint::Rule`] accessors, so
/// this output can never drift from the README table or the JSON report.
fn explain_rule(rule: nvsim_lint::Rule) {
    let num = match rule.number() {
        Some(n) => format!("R{n}"),
        None => "unnumbered".to_string(),
    };
    println!("{} ({num})", rule.id());
    println!("  checks:   {}", rule.summary());
    println!("  why:      {}", rule.rationale());
    println!("  evidence: {}", rule.evidence());
    println!(
        "  allow:    // nvsim-lint: allow({}) — <reason, mandatory>",
        rule.id()
    );
}

fn explain(which: &str) -> ExitCode {
    if which == "all" {
        for (i, rule) in nvsim_lint::ALL_RULES.iter().enumerate() {
            if i > 0 {
                println!();
            }
            explain_rule(*rule);
        }
        return ExitCode::SUCCESS;
    }
    match nvsim_lint::Rule::from_id(which) {
        Some(rule) => {
            explain_rule(rule);
            ExitCode::SUCCESS
        }
        None => {
            eprintln!("nvsim-lint: unknown rule `{which}`; known rules:");
            for rule in nvsim_lint::ALL_RULES {
                eprintln!("  {}", rule.id());
            }
            ExitCode::from(2)
        }
    }
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("nvsim-lint: {msg}");
            return ExitCode::from(2);
        }
    };
    if let Some(which) = &opts.explain {
        return explain(which);
    }
    let start = match opts.root {
        Some(r) => r,
        None => env::current_dir().unwrap_or_else(|_| PathBuf::from(".")),
    };
    let Some(root) = nvsim_lint::find_root(&start) else {
        eprintln!(
            "nvsim-lint: could not locate workspace root (Cargo.toml + crates/) above {}",
            start.display()
        );
        return ExitCode::from(2);
    };
    let report = match nvsim_lint::lint_workspace(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("nvsim-lint: {e}");
            return ExitCode::from(2);
        }
    };
    match opts.format {
        Format::Json => {
            let json = report.render_json();
            let out_dir = root.join("results");
            let write = fs::create_dir_all(&out_dir)
                .and_then(|_| fs::write(out_dir.join("lint.json"), &json));
            if let Err(e) = write {
                eprintln!("nvsim-lint: failed to write results/lint.json: {e}");
                return ExitCode::from(2);
            }
            print!("{json}");
        }
        Format::Github => print!("{}", report.render_github()),
        Format::Text => print!("{}", report.render_text()),
    }
    if report.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
