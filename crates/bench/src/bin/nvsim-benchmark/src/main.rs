//! `nvsim-benchmark`: the end-to-end and per-layer benchmark of the
//! simulator, the sampled figure path and the daemon.
//!
//! ```text
//! nvsim-benchmark [--workload W] [--seed N] [--seconds S] [--trace [0|1]] [--smoke] [--sets N]
//! ```
//!
//! With `--workload`, one workload runs in this process: set-up several
//! times, then a rep count fixed from `--seconds` before measuring (see
//! `report::RepPlan`), then the correctness checks. It prints every
//! declared metric with its unit and, as the last
//! line, one JSON result; it exits non-zero if any check failed. With
//! `--trace`, the per-layer metrics replace the end-to-end ones and the
//! spans go to `target/nvsim-benchmark/<workload>-<seed>.spans.jsonl`.
//!
//! Without `--workload`, every workload runs in its own child process,
//! one at a time. `--sets N` runs N such sets, alternating the workload
//! order, and compares them metric by metric against the declared
//! bounds. See README.md beside this crate for the workloads and metrics.

mod engine;
mod json;
mod replay;
mod report;
mod sampled;
mod serve;
mod timed;
mod trace;

use json::Json;
use report::{Outcome, Spec};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

/// The workloads this binary runs; `BENCHMARK.json` declares the same
/// list, in the order a set runs them.
const WORKLOADS: [&str; 4] = [
    "vans-read-cold",
    "vans-write-mix",
    "sampled-ycsb",
    "serve-socket",
];

/// `--seconds` of a `--smoke` run unless given.
const SMOKE_SECONDS: f64 = 0.2;

#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    traced: bool,
    smoke: bool,
    sets: usize,
}

const USAGE: &str = "usage: nvsim-benchmark [--workload W] [--seed N] [--seconds S] \
                     [--trace [0|1]] [--smoke] [--sets N]";

impl Args {
    fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut args = Args {
            workload: None,
            seed: 1,
            seconds: None,
            traced: false,
            smoke: false,
            sets: 0,
        };
        let mut pending: Option<String> = None;
        loop {
            let Some(arg) = pending.take().or_else(|| it.next()) else {
                return Ok(args);
            };
            let mut value = |name: &str| it.next().ok_or(format!("{name} needs a value"));
            match arg.as_str() {
                "--workload" => {
                    let w = value("--workload")?;
                    if !WORKLOADS.contains(&w.as_str()) {
                        return Err(format!("unknown workload `{w}` (one of {WORKLOADS:?})"));
                    }
                    args.workload = Some(w);
                }
                "--seed" => {
                    args.seed = value("--seed")?
                        .parse()
                        .map_err(|e| format!("--seed: {e}"))?
                }
                "--seconds" => {
                    let s: f64 = value("--seconds")?
                        .parse()
                        .map_err(|e| format!("--seconds: {e}"))?;
                    if !(s.is_finite() && s >= 0.0) {
                        return Err("--seconds must be a non-negative number".to_owned());
                    }
                    args.seconds = Some(s);
                }
                "--trace" => match it.next() {
                    Some(v) if v == "0" || v == "1" => args.traced = v == "1",
                    other => {
                        args.traced = true;
                        pending = other;
                    }
                },
                "--smoke" => args.smoke = true,
                "--sets" => {
                    args.sets = value("--sets")?
                        .parse()
                        .map_err(|e| format!("--sets: {e}"))?
                }
                "-h" | "--help" => return Err(String::new()),
                other => return Err(format!("unknown argument `{other}`")),
            }
        }
    }

    fn seconds(&self, spec: &Spec) -> f64 {
        self.seconds.unwrap_or(if self.smoke {
            SMOKE_SECONDS
        } else {
            spec.run_seconds
        })
    }
}

/// Runs one workload in this process.
fn run_workload(
    name: &str,
    seed: u64,
    seconds: f64,
    smoke: bool,
    traced: bool,
) -> Result<Outcome, String> {
    let engine_shape = if smoke {
        engine::Shape::smoke()
    } else {
        engine::Shape::full()
    };
    let serve_shape = if smoke {
        serve::Shape::smoke()
    } else {
        serve::Shape::full()
    };
    match name {
        "vans-read-cold" => Ok(engine::run(
            engine::Kind::ReadCold,
            seed,
            seconds,
            engine_shape,
            traced,
        )),
        "vans-write-mix" => Ok(engine::run(
            engine::Kind::WriteMix,
            seed,
            seconds,
            engine_shape,
            traced,
        )),
        "sampled-ycsb" => Ok(sampled::run(seed, seconds, smoke, traced)),
        "serve-socket" => serve::run(seed, seconds, serve_shape, traced).map_err(|e| e.to_string()),
        other => Err(format!("unknown workload `{other}`")),
    }
}

fn run_one(spec: &Spec, args: &Args, name: &str) -> ExitCode {
    let mut out = match run_workload(name, args.seed, args.seconds(spec), args.smoke, args.traced) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("nvsim-benchmark: {name}: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(tracer) = out.tracer.take() {
        let path = PathBuf::from("target")
            .join("nvsim-benchmark")
            .join(format!("{name}-{}.spans.jsonl", args.seed));
        match tracer.write_jsonl(&path) {
            Ok(()) => out.note(format!(
                "{} spans written to {}",
                tracer.spans().len(),
                path.display()
            )),
            Err(e) => out.check("spans-written", false, format!("{}: {e}", path.display())),
        }
    }
    print!("{}", out.render(spec, name, args.seed, args.traced));
    if out.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// What a child run printed that the parent uses.
#[derive(Debug, Default)]
struct ChildResult {
    correct: bool,
    metrics: BTreeMap<String, f64>,
    quartiles: BTreeMap<String, (f64, f64)>,
    digest: String,
}

fn parse_child(stdout: &str) -> Result<ChildResult, String> {
    let mut r = ChildResult::default();
    for line in stdout.lines() {
        if let Some(d) = line.strip_prefix("digest ") {
            r.digest = d.trim().to_owned();
        } else if let Some(q) = line.strip_prefix("quartiles ") {
            if let Json::Obj(m) = Json::parse(q)? {
                for (k, v) in m {
                    let a = v.as_arr();
                    if let (Some(q1), Some(q3)) = (
                        a.first().and_then(Json::as_f64),
                        a.get(1).and_then(Json::as_f64),
                    ) {
                        r.quartiles.insert(k, (q1, q3));
                    }
                }
            }
        }
    }
    let last = Json::parse(stdout.lines().last().ok_or("no output")?)?;
    r.correct = last.get("correct").and_then(Json::as_bool) == Some(true);
    if let Some(Json::Obj(m)) = last.get("metrics") {
        for (k, v) in m {
            if let Some(x) = v.get("value").and_then(Json::as_f64) {
                r.metrics.insert(k.clone(), x);
            }
        }
    }
    Ok(r)
}

/// Runs `workload` in a child process of this binary, echoing its output.
fn run_child(args: &Args, spec: &Spec, workload: &str) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds(spec).to_string()])
        .args(["--trace", if args.traced { "1" } else { "0" }])
        .stderr(Stdio::inherit());
    if args.smoke {
        cmd.arg("--smoke");
    }
    let output = cmd.output().map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    print!("{stdout}");
    let mut r = parse_child(&stdout)?;
    r.correct &= output.status.success();
    Ok(r)
}

fn run_all(spec: &Spec, args: &Args) -> ExitCode {
    let mut failed = Vec::new();
    for w in &spec.workloads {
        match run_child(args, spec, w) {
            Ok(r) if r.correct => {}
            Ok(_) => failed.push(w.to_owned()),
            Err(e) => failed.push(format!("{w} ({e})")),
        }
    }
    if failed.is_empty() {
        println!("all {} workloads passed their checks", spec.workloads.len());
        ExitCode::SUCCESS
    } else {
        println!("workloads failing their checks: {}", failed.join(", "));
        ExitCode::FAILURE
    }
}

/// `--sets N`: N full sets, alternating the workload order; prints each
/// (metric, workload) per set and flags pairs whose sets differ by more
/// than the metric's bound, and workloads whose digests differ.
fn run_sets(spec: &Spec, args: &Args) -> ExitCode {
    let mut results: BTreeMap<&str, Vec<ChildResult>> = BTreeMap::new();
    let mut failures = 0;
    for set in 0..args.sets {
        let mut order: Vec<&str> = spec.workloads.iter().map(String::as_str).collect();
        if set % 2 == 1 {
            order.reverse();
        }
        for w in order {
            match run_child(args, spec, w) {
                Ok(r) => {
                    failures += usize::from(!r.correct);
                    results.entry(w).or_default().push(r);
                }
                Err(e) => {
                    eprintln!("nvsim-benchmark: {w}: {e}");
                    failures += 1;
                }
            }
        }
    }
    let mut flags = 0;
    println!("== {} sets compared ==", args.sets);
    for (w, runs) in &results {
        let digests: Vec<&str> = runs.iter().map(|r| r.digest.as_str()).collect();
        if digests.windows(2).any(|p| p[0] != p[1]) {
            println!("{w}: FLAG simulated digests differ between sets: {digests:?}");
            flags += 1;
        }
        for d in spec.metrics(args.traced) {
            let vals: Vec<f64> = runs
                .iter()
                .map(|r| r.metrics.get(&d.name).copied().unwrap_or(f64::NAN))
                .collect();
            let cells: Vec<String> = runs
                .iter()
                .zip(&vals)
                .map(|(r, v)| match r.quartiles.get(&d.name) {
                    Some((q1, q3)) => format!("{v:.6} [{q1:.6}, {q3:.6}]"),
                    None => format!("{v:.6}"),
                })
                .collect();
            let base = vals.first().copied().unwrap_or(0.0);
            let worst = vals
                .iter()
                .map(|v| ((v - base) / base).abs())
                .fold(0.0, f64::max);
            let flag = match d.bound {
                Some(b) if base != 0.0 && worst > b => {
                    flags += 1;
                    format!(
                        "  FLAG: sets differ by {:.1}% > bound {:.0}%",
                        worst * 100.0,
                        b * 100.0
                    )
                }
                _ => String::new(),
            };
            println!(
                "{w:<15} {:<34} {} {}{flag}",
                d.name,
                d.unit,
                cells.join(" | ")
            );
        }
    }
    println!("{flags} flags, {failures} failed runs");
    if failures == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let spec = match Spec::load() {
        Ok(s) => s,
        Err(e) => {
            eprintln!("nvsim-benchmark: BENCHMARK.json: {e}");
            return ExitCode::FAILURE;
        }
    };
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            if !e.is_empty() {
                eprintln!("nvsim-benchmark: {e}");
            }
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    match (&args.workload, args.sets) {
        (Some(w), _) => run_one(&spec, &args, w),
        (None, 0) => run_all(&spec, &args),
        (None, _) => run_sets(&spec, &args),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;
    use std::time::{Duration, Instant};

    fn parse(s: &str) -> Result<Args, String> {
        Args::parse(s.split_whitespace().map(str::to_owned))
    }

    #[test]
    fn parses_every_flag_form() {
        let a = parse("--workload sampled-ycsb --seed 7 --seconds 10 --trace 0").unwrap();
        assert_eq!(a.workload.as_deref(), Some("sampled-ycsb"));
        assert_eq!((a.seed, a.seconds, a.traced), (7, Some(10.0), false));
        let b = parse("--trace --smoke").unwrap();
        assert!(b.traced && b.smoke && b.workload.is_none());
        let c = parse("--trace 1 --sets 2").unwrap();
        assert!(c.traced && c.sets == 2);
        assert!(parse("--workload nope").is_err());
        assert!(parse("--seconds -1").is_err());
        assert!(parse("--bogus").is_err());
    }

    #[test]
    fn the_declared_workloads_are_the_ones_this_binary_runs() {
        let spec = Spec::load().expect("BENCHMARK.json parses");
        assert_eq!(spec.workloads, WORKLOADS.to_vec());
    }

    /// Runs every workload at smoke size in this process, checks that each
    /// passes, and returns the union of the metric names they set.
    fn smoke(traced: bool) -> BTreeSet<&'static str> {
        let spec = Spec::load().expect("BENCHMARK.json parses");
        let mut names = BTreeSet::new();
        for w in WORKLOADS {
            let mut out = run_workload(w, 1, SMOKE_SECONDS, true, traced).expect("smoke run");
            let text = out.render(&spec, w, 1, traced);
            assert!(out.correct(), "{text}");
            assert!(
                out.values.values().all(|v| !v.invalid),
                "a component replay diverged:\n{text}"
            );
            names.extend(out.values.keys());
        }
        names
    }

    fn declared(traced: bool) -> BTreeSet<&'static str> {
        let spec = Spec::load().expect("BENCHMARK.json parses");
        let names = spec.metrics(traced).iter().map(|d| d.name.clone());
        names.map(|n| &*String::leak(n)).collect()
    }

    #[test]
    fn untraced_smoke_runs_pass_and_set_every_end_to_end_metric_quickly() {
        let began = Instant::now();
        assert_eq!(smoke(false), declared(false));
        let took = began.elapsed();
        assert!(took < Duration::from_secs(15), "smoke took {took:?}");
    }

    #[test]
    fn traced_smoke_runs_pass_and_together_set_every_per_layer_metric() {
        assert_eq!(smoke(true), declared(true));
    }
}
