//! Sweeps the suite and exports its observability artifacts: collapsed
//! call stacks, a trace-event timeline, and a hot-path-annotated report.
//!
//! ```text
//! cargo run --release -p alberta-bench --bin bench-trace \
//!     [test|train|ref] [--exec serial|threads|processes] [--jobs N] [--out-dir DIR] [--top-k K] \
//!     [--lanes N] [--telemetry]
//! ```
//!
//! Runs the resilient characterization pipeline over every benchmark
//! and writes, into `--out-dir` (default `trace-<scale>/`):
//!
//! * `<benchmark>.<workload>.folded` — one collapsed-stack file per
//!   surviving run (`caller;callee count` lines), ready for flamegraph
//!   tooling (`inferno-flamegraph`, `flamegraph.pl`);
//! * `trace.json` — a Chrome trace-event timeline of the sweep,
//!   openable in `about:tracing` or <https://ui.perfetto.dev>. By
//!   default this is the deterministic *virtual* schedule over
//!   `--lanes N` lanes (default 4) of modelled time; with
//!   `--telemetry` it is the measured wall-clock schedule instead;
//! * `report.json` — the canonical suite report with each benchmark's
//!   `--top-k K` (default 10) hottest call paths embedded.
//!
//! Everything written without `--telemetry` is bit-identical whether
//! the sweep ran serially or under `--jobs N` — CI compares the two
//! byte for byte.

use alberta_bench::{
    exec_from_args, flag_from_args, scale_from_args, usage_error, value_from_args,
};
use alberta_core::Suite;
use alberta_report::{render_trace, SuiteReport, TraceMode, DEFAULT_LANES};
use std::path::{Path, PathBuf};

/// Parses a `--flag N` positive integer, with a default.
fn count_arg(flag: &str, default: usize) -> usize {
    match value_from_args(flag) {
        None => default,
        Some(text) => match text.parse::<usize>() {
            Ok(n) if n > 0 => n,
            _ => usage_error(&format!("{flag} expects a positive count, got {text:?}")),
        },
    }
}

fn write_artifact(path: &Path, contents: &str) {
    if let Err(e) = std::fs::write(path, contents) {
        eprintln!("bench-trace: {}: {e}", path.display());
        std::process::exit(1);
    }
}

fn main() {
    // Under --exec processes the supervisor re-executes this binary in
    // a hidden worker mode; that must be intercepted before any
    // argument parsing sees the worker flag.
    alberta_bench::maybe_worker();
    let scale = scale_from_args();
    let exec = exec_from_args();
    let top_k = count_arg("--top-k", 10);
    let lanes = count_arg("--lanes", DEFAULT_LANES);
    let telemetry = flag_from_args("--telemetry");
    let out_dir = value_from_args("--out-dir")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(format!("trace-{}", scale.name())));
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("bench-trace: {}: {e}", out_dir.display());
        std::process::exit(1);
    }

    let suite = Suite::new(scale).with_exec(exec);
    let results = suite.characterize_all_resilient_metered();
    for (r, _) in &results {
        for incident in r.incidents() {
            eprintln!(
                "bench-trace: {}/{}: {:?}",
                r.short_name, incident.workload, incident.status
            );
        }
    }

    // One collapsed-stack file per surviving run, straight from the
    // exact call tree.
    let mut folded = 0usize;
    for (r, _) in &results {
        if let Some(c) = &r.characterization {
            for run in &c.runs {
                let path = out_dir.join(format!("{}.{}.folded", r.short_name, run.workload));
                write_artifact(&path, &run.paths.folded());
                folded += 1;
            }
        }
    }

    let mut report = SuiteReport::from_resilient(scale, &results);
    report.embed_hot_paths(&results, top_k);
    if !telemetry {
        report.strip_telemetry();
    }

    // The timeline renders from the report: virtual (deterministic)
    // lanes by default, the measured schedule when telemetry is kept.
    let mode = if telemetry {
        TraceMode::Telemetry
    } else {
        TraceMode::Virtual { lanes }
    };
    match render_trace(&report, mode) {
        Ok(text) => write_artifact(&out_dir.join("trace.json"), &text),
        Err(e) => {
            eprintln!("bench-trace: {e}");
            std::process::exit(1);
        }
    }

    if let Err(e) = alberta_report::save(&report, &out_dir.join("report.json")) {
        eprintln!("bench-trace: {e}");
        std::process::exit(1);
    }

    let attempted: usize = report.benchmarks.iter().map(|b| b.attempted()).sum();
    let survived: usize = report.benchmarks.iter().map(|b| b.survived()).sum();
    println!(
        "bench-trace: {survived}/{attempted} runs ok ({} scale), {folded} folded stacks, \
         top-{top_k} hot paths -> {}",
        scale.name(),
        out_dir.display()
    );
    if survived < attempted {
        // Artifacts for the surviving runs are still written, but a
        // sweep that lost runs should not look clean in CI logs.
        std::process::exit(3);
    }
}
