//! The `nvsim-bench` CLI: regenerate the paper's tables and figures.
//!
//! ```text
//! nvsim-bench list               # show available experiments
//! nvsim-bench all                # run everything -> results/
//! nvsim-bench all --jobs 4       # same, on 4 workers (byte-identical CSVs)
//! nvsim-bench fig5a fig7b        # run specific experiments
//! nvsim-bench trace fig9a        # per-stage latency attribution -> results/trace/
//! nvsim-bench perf               # engine req/s + figure points -> BENCH_engine.json
//! nvsim-bench lint-bench         # analyzer cold/warm files/s -> BENCH_lint.json
//! nvsim-bench crashsweep         # power-fail injection sweep -> results/crash.csv
//! nvsim-bench crashsweep --smoke # reduced sweep for CI
//! nvsim-bench snapsmoke          # checkpoint determinism smoke -> results/snapsmoke.csv
//! nvsim-bench serve-bench        # service load gen -> BENCH_serve.json
//! nvsim-bench serve-bench --smoke# same, CI-sized
//! nvsim-bench serve-bench --transport socket|stdio|inproc
//!                                # same loop through a real daemon
//!                                # event loop (keys socket_*/stdio_*)
//! nvsim-bench serve-smoke        # service determinism byte-compare (workers 1 vs 2)
//! ```
//!
//! Worker count: `--jobs N`, else the machine's available parallelism.
//! Results are byte-identical across worker counts (see `runner`).

use nvsim_bench::{registry, runnable_for, runner, tracecmd};
use std::path::PathBuf;
use std::time::Instant;

fn main() {
    // Split `--jobs N` / `--jobs=N` off the positional arguments.
    let mut jobs_arg: Option<usize> = None;
    let mut args: Vec<String> = Vec::new();
    let mut raw = std::env::args().skip(1);
    while let Some(a) = raw.next() {
        let value = if a == "--jobs" || a == "-j" {
            raw.next()
        } else if let Some(v) = a.strip_prefix("--jobs=") {
            Some(v.to_owned())
        } else {
            args.push(a);
            continue;
        };
        match value.and_then(|v| v.parse().ok()).filter(|&j| j > 0) {
            Some(j) => jobs_arg = Some(j),
            None => {
                eprintln!("--jobs needs a positive integer");
                std::process::exit(2);
            }
        }
    }

    let reg = registry();
    if args.is_empty() || args[0] == "list" {
        println!("available experiments (pass ids, or `all`):");
        for id in reg.keys() {
            println!("  {id}");
        }
        println!(
            "traceable (pass `trace <id>`): {}",
            tracecmd::TRACEABLE.join(" ")
        );
        return;
    }
    if args[0] == "trace" {
        let ids = &args[1..];
        if ids.is_empty() {
            eprintln!(
                "usage: nvsim-bench trace <exp>...  (one of: {})",
                tracecmd::TRACEABLE.join(" ")
            );
            std::process::exit(2);
        }
        let results_dir = PathBuf::from("results");
        for id in ids {
            eprintln!(">> tracing {id} ...");
            let start = Instant::now();
            match tracecmd::run_trace(id, &results_dir) {
                Ok(Some(md)) => {
                    println!("{md}");
                    eprintln!(
                        "<< {id} traced in {:.1}s -> results/trace/",
                        start.elapsed().as_secs_f64()
                    );
                }
                Ok(None) => {
                    eprintln!(
                        "`{id}` is not traceable (one of: {})",
                        tracecmd::TRACEABLE.join(" ")
                    );
                    std::process::exit(2);
                }
                Err(e) => {
                    eprintln!("trace {id} failed: {e}");
                    std::process::exit(1);
                }
            }
        }
        return;
    }
    if args[0] == "crashsweep" {
        let smoke = args.iter().any(|a| a == "--smoke");
        nvsim_bench::crashsweep::set_smoke(smoke);
        let jobs = runner::resolve_jobs(jobs_arg);
        eprintln!(
            ">> crash-consistency sweep ({} mode) on {jobs} worker(s) ...",
            if smoke { "smoke" } else { "full" }
        );
        let start = Instant::now();
        let progress = |label: &str, secs: f64| eprintln!("<< {label} done in {secs:.1}s");
        let outputs = runner::run(nvsim_bench::crashsweep::runnables(), jobs, Some(&progress));
        let combined = nvsim_bench::crashsweep::combine(outputs);
        println!("{combined}");
        let results_dir = PathBuf::from("results");
        if let Err(e) = combined.write_csv(&results_dir) {
            eprintln!("could not write results/crash.csv: {e}");
            std::process::exit(1);
        }
        let mismatches = nvsim_bench::crashsweep::total_mismatches(&combined);
        eprintln!(
            "== crashsweep in {:.1}s -> results/crash.csv ({mismatches} oracle mismatch(es))",
            start.elapsed().as_secs_f64()
        );
        if mismatches > 0 {
            eprintln!("crashsweep FAILED: model and oracle disagree (see reports above)");
            std::process::exit(1);
        }
        return;
    }
    if args[0] == "snapsmoke" {
        let jobs = runner::resolve_jobs(jobs_arg);
        eprintln!(">> checkpoint determinism smoke on {jobs} worker(s) ...");
        let start = Instant::now();
        let progress = |label: &str, secs: f64| eprintln!("<< {label} done in {secs:.1}s");
        let out = runner::run(nvsim_bench::snapsmoke::runnables(), jobs, Some(&progress))
            .pop()
            .expect("snapsmoke produces one output");
        println!("{out}");
        let results_dir = PathBuf::from("results");
        if let Err(e) = out.write_csv(&results_dir) {
            eprintln!("could not write results/snapsmoke.csv: {e}");
            std::process::exit(1);
        }
        let failures = nvsim_bench::snapsmoke::total_failures(&out);
        eprintln!(
            "== snapsmoke in {:.1}s -> results/snapsmoke.csv ({failures} round-trip failure(s))",
            start.elapsed().as_secs_f64()
        );
        if failures > 0 {
            eprintln!("snapsmoke FAILED: restore-then-run diverged from straight-through");
            std::process::exit(1);
        }
        return;
    }
    if args[0] == "serve-bench" {
        let smoke = args.iter().any(|a| a == "--smoke");
        let shape = if smoke {
            nvsim_bench::servebench::LoadShape::smoke()
        } else {
            nvsim_bench::servebench::LoadShape::full()
        };
        let transport = match args.iter().position(|a| a == "--transport") {
            None => nvsim_bench::servebench::Transport::Inproc,
            Some(i) => match args
                .get(i + 1)
                .and_then(|v| nvsim_bench::servebench::Transport::parse(v))
            {
                Some(t) => t,
                None => {
                    eprintln!("--transport needs one of: inproc, socket, stdio");
                    std::process::exit(2);
                }
            },
        };
        let path = PathBuf::from("BENCH_serve.json");
        for workers in [1usize, 8] {
            eprintln!(
                ">> serve closed loop ({} shape, {transport:?} transport) on {workers} worker(s) ...",
                if smoke { "smoke" } else { "full" }
            );
            let entries = nvsim_bench::servebench::transport_loop(transport, workers, shape);
            for (k, v) in &entries {
                println!("{k:<32} {v:>14.1}");
            }
            if let Err(e) = nvsim_bench::perf::record(&path, "serve", entries) {
                eprintln!("could not write {}: {e}", path.display());
                std::process::exit(1);
            }
        }
        eprintln!("recorded -> {}", path.display());
        return;
    }
    if args[0] == "serve-smoke" {
        eprintln!(">> serve determinism smoke (workers 1 vs 2) ...");
        let start = Instant::now();
        match nvsim_bench::servebench::smoke_bytes_match() {
            Ok(frames) => eprintln!(
                "== serve-smoke in {:.1}s: {frames} response frames byte-identical",
                start.elapsed().as_secs_f64()
            ),
            Err(e) => {
                eprintln!("serve-smoke FAILED: {e}");
                std::process::exit(1);
            }
        }
        return;
    }
    if args[0] == "lint-bench" {
        let cwd = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
        let Some(root) = nvsim_lint::find_root(&cwd) else {
            eprintln!(
                "lint-bench: could not locate the workspace root above {}",
                cwd.display()
            );
            std::process::exit(2);
        };
        let path = PathBuf::from("BENCH_lint.json");
        eprintln!(">> measuring nvsim-lint cold/warm throughput ...");
        let entries = nvsim_bench::lintbench::lint_micro(&root);
        for (k, v) in &entries {
            println!("{k:<32} {v:>14.1}");
        }
        if let Err(e) = nvsim_bench::perf::record(&path, "lint", entries) {
            eprintln!("could not write {}: {e}", path.display());
            std::process::exit(1);
        }
        eprintln!("recorded -> {}", path.display());
        return;
    }
    if args[0] == "perf" {
        let path = PathBuf::from("BENCH_engine.json");
        eprintln!(">> measuring engine req/s and figure points ...");
        let engine = nvsim_bench::perf::engine_micro();
        for (k, v) in &engine {
            println!("{k:<36} {v:>14.0}");
        }
        let figures = nvsim_bench::perf::figure_points();
        for (k, v) in &figures {
            println!("{k:<36} {v:>14.3}");
        }
        for (section, entries) in [("engine", engine), ("figures", figures)] {
            if let Err(e) = nvsim_bench::perf::record(&path, section, entries) {
                eprintln!("could not write {}: {e}", path.display());
                std::process::exit(1);
            }
        }
        eprintln!("recorded -> {}", path.display());
        return;
    }

    let ran_all = args.iter().any(|a| a == "all");
    let ids: Vec<&str> = if ran_all {
        reg.keys().copied().collect()
    } else {
        args.iter().map(|s| s.as_str()).collect()
    };
    let mut exps: Vec<(String, runner::Runnable)> = Vec::with_capacity(ids.len());
    for id in &ids {
        let Some(r) = runnable_for(id) else {
            eprintln!("unknown experiment `{id}` (try `list`)");
            std::process::exit(2);
        };
        exps.push(((*id).to_owned(), r));
    }

    let jobs = runner::resolve_jobs(jobs_arg);
    eprintln!(
        ">> running {} experiment(s) on {jobs} worker(s) ...",
        exps.len()
    );
    let start = Instant::now();
    let progress = |label: &str, secs: f64| eprintln!("<< {label} done in {secs:.1}s");
    let outputs = runner::run(exps, jobs, Some(&progress));
    let wall = start.elapsed().as_secs_f64();

    let results_dir = PathBuf::from("results");
    let mut summary = String::from("# nvsim-bench results\n\n");
    for out in &outputs {
        println!("{out}");
        if let Err(e) = out.write_csv(&results_dir) {
            eprintln!("warning: could not write CSV for {}: {e}", out.id);
        }
        summary.push_str(&format!(
            "## {} — {}\n\n```\n{}\n```\n\n",
            out.id, out.title, out
        ));
    }
    if let Err(e) = std::fs::create_dir_all(&results_dir)
        .and_then(|_| std::fs::write(results_dir.join("summary.md"), &summary))
    {
        eprintln!("warning: could not write summary: {e}");
    } else {
        eprintln!("wrote results/summary.md");
    }
    eprintln!(
        "== {} experiment(s) in {wall:.1}s on {jobs} worker(s)",
        outputs.len()
    );
    if ran_all {
        // Track the runner payoff across PRs (see BENCH_engine.json).
        let entry = std::collections::BTreeMap::from([(format!("all_jobs{jobs}_wall_s"), wall)]);
        if let Err(e) =
            nvsim_bench::perf::record(&PathBuf::from("BENCH_engine.json"), "runner", entry)
        {
            eprintln!("warning: could not record wall clock: {e}");
        }
    }
}
