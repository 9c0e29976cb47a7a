//! Metric declarations, run outcomes and their output.
//!
//! `BENCHMARK.json` at the repository root is the single list of metric
//! names, units, directions and bounds: it is compiled into the binary,
//! every value a workload reports is checked against it, and the result
//! line carries exactly the declared metrics of its mode.

use crate::json::{self, Json};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// How many times a workload sets up: an untraced run reports the
/// median set-up time; a traced run sets up once.
pub fn setup_count(traced: bool) -> usize {
    if traced {
        1
    } else {
        5
    }
}

/// The declarations file, embedded at build time.
pub const DECLARATIONS: &str = include_str!("../../../../../../BENCHMARK.json");

/// One declared metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Decl {
    pub name: String,
    pub unit: String,
    /// Regression bound as a share of the parent's median (end-to-end
    /// metrics only).
    pub bound: Option<f64>,
}

/// Everything `BENCHMARK.json` declares that the binary uses.
#[derive(Debug, Clone)]
pub struct Spec {
    pub workloads: Vec<String>,
    pub end_to_end: Vec<Decl>,
    pub per_layer: Vec<Decl>,
    pub run_seconds: f64,
}

impl Spec {
    /// Parses the embedded declarations.
    pub fn load() -> Result<Spec, String> {
        Spec::parse(DECLARATIONS)
    }

    pub fn parse(text: &str) -> Result<Spec, String> {
        let doc = Json::parse(text)?;
        let decls = |key: &str| -> Result<Vec<Decl>, String> {
            doc.get(key)
                .ok_or(format!("missing `{key}`"))?
                .as_arr()
                .iter()
                .map(|m| {
                    let field = |f: &str| {
                        m.get(f)
                            .and_then(Json::as_str)
                            .map(str::to_owned)
                            .ok_or(format!("a `{key}` entry lacks `{f}`"))
                    };
                    Ok(Decl {
                        name: field("name")?,
                        unit: field("unit")?,
                        bound: m.get("bound").and_then(Json::as_f64),
                    })
                })
                .collect()
        };
        let workloads = doc
            .get("workloads")
            .ok_or("missing `workloads`")?
            .as_arr()
            .iter()
            .map(|w| {
                w.get("name")
                    .and_then(Json::as_str)
                    .map(str::to_owned)
                    .ok_or_else(|| "a workload lacks `name`".to_owned())
            })
            .collect::<Result<_, _>>()?;
        Ok(Spec {
            workloads,
            end_to_end: decls("end_to_end")?,
            per_layer: decls("per_layer")?,
            run_seconds: doc
                .get("run_seconds")
                .and_then(Json::as_f64)
                .ok_or("missing `run_seconds`")?,
        })
    }

    /// The declarations of one mode: end-to-end untraced, per-layer traced.
    pub fn metrics(&self, traced: bool) -> &[Decl] {
        if traced {
            &self.per_layer
        } else {
            &self.end_to_end
        }
    }
}

/// Quartiles and sample count of the values a reported median summarizes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spread {
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

/// A reported value. `invalid` marks a per-layer number the benchmark
/// could not attribute (its component replay did not reproduce the
/// engine's counters); it is printed as `invalid` and carried as -1.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Value {
    pub v: f64,
    pub spread: Option<Spread>,
    pub invalid: bool,
}

impl Value {
    pub fn of(v: f64) -> Value {
        Value {
            v,
            spread: None,
            invalid: false,
        }
    }

    /// The median of `samples` with its quartiles.
    pub fn median_of(samples: &[f64]) -> Value {
        let (q1, med, q3) = quartiles(samples);
        Value {
            v: med,
            spread: Some(Spread {
                q1,
                q3,
                n: samples.len(),
            }),
            invalid: false,
        }
    }

    pub const INVALID: Value = Value {
        v: -1.0,
        spread: None,
        invalid: true,
    };
}

/// One correctness check and its verdict.
#[derive(Debug, Clone, PartialEq)]
pub struct Check {
    pub name: String,
    pub ok: bool,
    pub detail: String,
}

/// What one workload run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (the unit of `ops_per_s`).
    pub attempted: u64,
    /// Operations belonging to a unit whose output failed a check.
    pub failed: u64,
    pub checks: Vec<Check>,
    pub values: BTreeMap<&'static str, Value>,
    /// Digest of the simulated results (counters, completion times,
    /// reply bytes): equal across reps, seeds' repeats and the traced run.
    pub digest: u64,
    pub notes: Vec<String>,
    /// The per-layer metrics a traced run of this workload must set (an
    /// untraced run must set every end-to-end metric).
    pub exercised: Vec<&'static str>,
    /// The spans of a traced run, written out when the run ends.
    pub tracer: Option<crate::trace::Tracer>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, v: Value) {
        self.values.insert(name, v);
    }

    /// Declares per-layer metrics this traced run sets.
    pub fn exercise(&mut self, names: &[&'static str]) {
        self.exercised.extend_from_slice(names);
    }

    pub fn check(&mut self, name: &str, ok: bool, detail: impl Into<String>) {
        self.checks.push(Check {
            name: name.to_owned(),
            ok,
            detail: detail.into(),
        });
    }

    pub fn note(&mut self, s: impl Into<String>) {
        self.notes.push(s.into());
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0 && self.checks.iter().all(|c| c.ok)
    }

    /// Renders the human-readable report, then the `digest` and
    /// `quartiles` lines the compare mode reads, then the result line
    /// (always last). A reported name the declarations lack fails the
    /// run, and so does a metric the run must set but did not. Declared
    /// metrics the workload does not exercise print as `n/a` (0 in the
    /// result line, which holds only numbers).
    pub fn render(&mut self, spec: &Spec, workload: &str, seed: u64, traced: bool) -> String {
        let decls = spec.metrics(traced);
        let undeclared: Vec<&str> = self
            .values
            .keys()
            .filter(|k| !decls.iter().any(|d| d.name == **k))
            .copied()
            .collect();
        self.check(
            "metrics-declared",
            undeclared.is_empty(),
            format!("undeclared metric names: {undeclared:?}"),
        );
        let unset: Vec<&str> = if traced {
            self.exercised.clone()
        } else {
            decls.iter().map(|d| d.name.as_str()).collect()
        }
        .into_iter()
        .filter(|n| !self.values.contains_key(n))
        .collect();
        self.check(
            "metrics-set",
            unset.is_empty(),
            format!("metrics this run must set but did not: {unset:?}"),
        );
        let mut out = String::new();
        let mode = if traced { "traced" } else { "untraced" };
        let _ = writeln!(out, "== {workload} seed {seed} ({mode}) ==");
        let mut quart = String::from("{");
        let mut result = String::new();
        for (i, d) in decls.iter().enumerate() {
            let got = self.values.get(d.name.as_str()).copied();
            let v = got.unwrap_or(Value::of(0.0));
            let shown = match got {
                None => "n/a".to_owned(),
                Some(v) if v.invalid => "invalid".to_owned(),
                Some(v) => format!("{:.6}", v.v),
            };
            let _ = write!(out, "  {:<36} {:>18} {:<6}", d.name, shown, d.unit);
            if let Some(s) = v.spread {
                let _ = write!(out, "  [q1 {:.6}, q3 {:.6}; n={}]", s.q1, s.q3, s.n);
                if quart.len() > 1 {
                    quart.push(',');
                }
                json::write_str(&mut quart, &d.name);
                let _ = write!(quart, ":[{},{},{}]", s.q1, s.q3, s.n);
            }
            out.push('\n');
            if i > 0 {
                result.push(',');
            }
            json::write_str(&mut result, &d.name);
            result.push_str(":{\"value\":");
            json::write_num(&mut result, v.v);
            result.push_str(",\"unit\":");
            json::write_str(&mut result, &d.unit);
            result.push('}');
        }
        for n in &self.notes {
            let _ = writeln!(out, "  note: {n}");
        }
        for c in &self.checks {
            if c.ok {
                let _ = writeln!(out, "  check {}: ok", c.name);
            } else {
                let _ = writeln!(out, "  check {}: FAILED: {}", c.name, c.detail);
            }
        }
        let _ = writeln!(
            out,
            "  failed {} of {} attempted operations",
            self.failed, self.attempted
        );
        let _ = writeln!(out, "digest {:016x}", self.digest);
        let _ = writeln!(out, "quartiles {quart}}}");
        let _ = writeln!(
            out,
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{result}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        out
    }
}

/// Median and quartiles, computed as Python's
/// `statistics.quantiles(values, n=4)` (the exclusive method) does.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut d = values.to_vec();
    d.sort_by(f64::total_cmp);
    match d.len() {
        0 => (0.0, 0.0, 0.0),
        1 => (d[0], d[0], d[0]),
        ld => {
            let m = ld + 1;
            let q = |i: usize| {
                let j = (i * m / 4).clamp(1, ld - 1);
                let delta = (i * m) as f64 - (j * 4) as f64;
                (d[j - 1] * (4.0 - delta) + d[j] * delta) / 4.0
            };
            (q(1), q(2), q(3))
        }
    }
}

/// The fastest host time of each position over identical reps (`rows[r][i]`
/// is rep `r`'s time for position `i`): the estimate of each position's
/// cost that the end-to-end metrics of the repeatable workloads are
/// computed from. Interference from the rest of the host only ever adds
/// time, and on a shared host it comes and goes within a run, so a
/// position's fastest execution is its cost with the least interference.
/// A minimum falls as samples are added, so callers take it over a
/// [`RepPlan`]'s fixed rep count.
pub fn fastest_per_position(rows: &[Vec<f64>]) -> Vec<f64> {
    let n = rows.iter().map(Vec::len).min().unwrap_or(0);
    (0..n)
        .map(|i| rows.iter().map(|r| r[i]).fold(f64::INFINITY, f64::min))
        .collect()
}

/// Upper limit on a run's measuring time, whatever `--seconds` asks, so
/// that with set-up and checks a run ends well within three minutes.
const MEASURE_CAP_S: f64 = 120.0;

/// The measured reps of one run. Their number is fixed before the run
/// starts, from `--seconds` and the host time a rep took on the machine
/// the benchmark was tuned on (a 2-vCPU Xeon VM); the clock during the
/// run never sets it. Two commits measured with the same `--seconds` so
/// do identical work, and a statistic over reps, such as the fastest
/// execution of a position, is taken over the same number of samples on
/// both. Only a run slower than three times its `--seconds` (or
/// [`MEASURE_CAP_S`]) stops early, and it says so in a note.
#[derive(Debug, Clone, Copy)]
pub struct RepPlan {
    pub planned: usize,
    cap_s: f64,
    began: std::time::Instant,
}

impl RepPlan {
    pub fn new(seconds: f64, nominal_rep_s: f64) -> RepPlan {
        RepPlan {
            planned: ((seconds / nominal_rep_s).round() as usize).max(2),
            cap_s: (3.0 * seconds).min(MEASURE_CAP_S),
            began: std::time::Instant::now(),
        }
    }

    /// Whether another rep runs after `done` reps.
    pub fn more(&self, done: usize) -> bool {
        done < self.planned && (done < 2 || self.began.elapsed().as_secs_f64() < self.cap_s)
    }

    /// A note for a run that stopped short of its plan.
    pub fn shortfall(&self, done: usize) -> Option<String> {
        (done < self.planned).then(|| {
            format!(
                "stopped after {done} of {} planned reps: the {:.0} s cap passed",
                self.planned, self.cap_s
            )
        })
    }
}

/// The `p`-th percentile (0..=100) by linear interpolation between the
/// closest ranks.
pub fn percentile(values: &mut [f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let rank = p / 100.0 * (values.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = (lo + 1).min(values.len() - 1);
    values[lo] + (values[hi] - values[lo]) * (rank - lo as f64)
}

/// FNV-1a over 64-bit words: the digest of simulated results.
#[derive(Debug, Clone, Copy)]
pub struct Digest(pub u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn bytes(&mut self, bytes: &[u8]) {
        self.word(bytes.len() as u64);
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        // == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        // statistics.quantiles([4, 8], n=4) == [3.0, 6.0, 9.0]
        assert_eq!(quartiles(&[4.0, 8.0]), (3.0, 6.0, 9.0));
    }

    #[test]
    fn the_fastest_execution_of_each_position_is_kept() {
        let rows = vec![vec![3.0, 1.0, 5.0], vec![2.0, 4.0, 6.0, 9.0]];
        assert_eq!(fastest_per_position(&rows), vec![2.0, 1.0, 5.0]);
        assert!(fastest_per_position(&[]).is_empty());
    }

    #[test]
    fn a_rep_plan_is_fixed_by_the_seconds_asked_for() {
        let plan = RepPlan::new(20.0, 0.5);
        assert_eq!(plan.planned, 40);
        assert!(plan.more(39) && !plan.more(40));
        assert_eq!(plan.shortfall(40), None);
        // At least two reps, whatever the time.
        let tiny = RepPlan::new(0.0, 0.5);
        assert_eq!(tiny.planned, 2);
        assert!(tiny.more(1) && !tiny.more(2));
    }

    #[test]
    fn percentiles_interpolate() {
        let mut v: Vec<f64> = (0..=100).map(f64::from).collect();
        assert_eq!(percentile(&mut v, 50.0), 50.0);
        assert_eq!(percentile(&mut v, 99.0), 99.0);
        assert_eq!(percentile(&mut [1.0, 2.0], 50.0), 1.5);
    }

    #[test]
    fn declarations_parse_and_every_end_to_end_metric_has_a_bound() {
        let spec = Spec::load().expect("BENCHMARK.json parses");
        assert!(spec.workloads.len() >= 2);
        assert!(spec.end_to_end.iter().all(|d| d.bound.is_some()));
        assert!(spec.per_layer.iter().all(|d| d.bound.is_none()));
        assert!(spec
            .end_to_end
            .iter()
            .any(|d| d.name == "setup_s" && d.unit == "s"));
    }

    #[test]
    fn render_emits_every_declared_metric_last_and_flags_undeclared_or_unset_ones() {
        let spec = Spec::load().expect("BENCHMARK.json parses");
        let fresh = || Outcome {
            attempted: 10,
            ..Outcome::default()
        };
        let mut o = fresh();
        for d in &spec.end_to_end {
            let name: &'static str = String::leak(d.name.clone());
            o.set(name, Value::of(1.0));
        }
        o.set("setup_s", Value::median_of(&[0.5, 0.6, 0.7]));
        let text = o.render(&spec, "w", 1, false);
        let last = Json::parse(text.lines().last().unwrap()).unwrap();
        assert_eq!(last.get("correct").unwrap().as_bool(), Some(true));
        let metrics = last.get("metrics").unwrap();
        for d in &spec.end_to_end {
            assert!(metrics.get(&d.name).is_some(), "{}", d.name);
        }
        assert_eq!(
            metrics
                .get("setup_s")
                .unwrap()
                .get("value")
                .unwrap()
                .as_f64(),
            Some(0.6)
        );
        let failed = |text: String| text.lines().last().unwrap().contains("\"correct\":false");
        let mut undeclared = fresh();
        undeclared.values = o.values.clone();
        undeclared.set("no_such_metric", Value::of(1.0));
        assert!(failed(undeclared.render(&spec, "w", 1, false)));
        // An untraced run that leaves one end-to-end metric unset fails.
        let mut unset = fresh();
        unset.values = o.values.clone();
        unset.values.remove("setup_s");
        let text = unset.render(&spec, "w", 1, false);
        assert!(text.contains("n/a"), "{text}");
        assert!(failed(text));
        // A traced run fails only on the per-layer metrics it exercises.
        let mut traced = fresh();
        traced.exercise(&["trace.overhead_pct"]);
        assert!(failed(traced.render(&spec, "w", 1, true)));
        traced.set("trace.overhead_pct", Value::of(3.0));
        traced.checks.clear();
        assert!(!failed(traced.render(&spec, "w", 1, true)));
    }
}
