//! The repository's end-to-end benchmark.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload suite-test|serve-mixed [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Run from the repository root. Each workload repeats its unit of work
//! — one sweep, or one round of the request stream — as often as fits
//! in `--seconds`, and reports medians over the repetitions. Set-ups of
//! the workload's inputs (`setup_s`) are timed with every unit, between
//! chunks of a sweep or around a round of requests, so that they sample
//! the host's speed over the run rather than at one moment. CPU-bound
//! times are scaled to a reference host speed by a fixed computation
//! timed alongside them (see [`pace`]). Every output is checked: the
//! sweep against the committed reports, the service against an
//! in-process twin. The last stdout line is one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end
//! metrics, or with `--trace 1` the per-layer metrics of one extra
//! traced repetition, whose spans are written to
//! `.bench_run/spans-<workload>.json`. A failed or mismatched output
//! exits with code 1.

mod measure;
mod pace;
mod serve;
mod spans;
mod sweep;

use alberta_core::json::Value;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// The seed a run uses when `--seed` is not given.
const DEFAULT_SEED: u64 = 1;

/// The repetition time a run uses when `--seconds` is not given.
const DEFAULT_SECONDS: f64 = 50.0;

/// Scratch space for caches and spans, relative to the repository root.
const WORK_DIR: &str = ".bench_run";

/// Metrics printed without tracing, with their units. Every workload
/// reports each of them.
const END_TO_END: [(&str, &str); 3] = [("setup_s", "s"), ("wall_s", "s"), ("ok_frac", "ratio")];

/// Metrics printed by a traced run. A layer that a workload does not
/// reach from outside reports 0.
const PER_LAYER: [(&str, &str); 36] = [
    ("benchmarks.execute_ms", "ms"),
    ("benchmarks.events", "count"),
    ("benchmarks.ns_per_event", "ns"),
    ("profile.finish_ms", "ms"),
    ("profile.validate_ms", "ms"),
    ("profile.paths_ms", "ms"),
    ("profile.retained_events", "count"),
    ("profile.retention", "ratio"),
    ("profile.decimations_max", "count"),
    ("uarch.analyze_ms", "ms"),
    ("uarch.replay_ms", "ms"),
    ("uarch.ladder_ms", "ms"),
    ("uarch.mem_accesses", "count"),
    ("uarch.replayed_events", "count"),
    ("uarch.ns_per_replayed_event", "ns"),
    ("stats.summarize_ms", "ms"),
    ("report.encode_ms", "ms"),
    ("report.bytes", "bytes"),
    ("serve.engine_ms", "ms"),
    ("serve.engine_hit_ms_p50", "ms"),
    ("serve.cache_lookup_ms_p50", "ms"),
    ("serve.wire_hit_ms_p50", "ms"),
    ("serve.hit_ms_p50", "ms"),
    ("serve.hit_ms_p90", "ms"),
    ("serve.hit_samples", "count"),
    ("serve.hit_ratio", "ratio"),
    ("serve.key_lookups", "count"),
    ("serve.computed_keys", "count"),
    ("serve.cache_bytes", "bytes"),
    ("trace.wall_s", "s"),
    ("trace.overhead_pct", "%"),
    ("trace.unaccounted_pct", "%"),
    ("process.cpu_s", "s"),
    ("process.peak_rss_mb", "MiB"),
    ("process.sim_mops_per_s", "Mops/s"),
    ("host.pace_ms", "ms"),
];

/// Named metric values of one run.
#[derive(Debug, Default)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    /// An empty set.
    pub fn new() -> Self {
        Metrics::default()
    }

    /// Sets a metric.
    pub fn insert(&mut self, name: &'static str, value: f64) {
        self.0.insert(name, value);
    }

    /// A metric's value; 0 when unset.
    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}

/// What a workload run measured and checked.
pub struct Outcome {
    /// Runs or requests attempted and failed.
    pub tally: measure::Tally,
    /// Every metric the run produced.
    pub metrics: Metrics,
}

/// Whether a run that started at `started`, and whose last unit of work
/// took `last` with the set-ups timed inside it, starts another: always
/// a first one, then only while one more of that length still ends
/// within `seconds`.
pub fn another_unit(started: Instant, seconds: f64, last: Option<Duration>) -> bool {
    match last {
        None => true,
        Some(last) => (started.elapsed() + last).as_secs_f64() <= seconds,
    }
}

/// Writes a traced run's spans to `.bench_run/spans-<workload>.json`.
pub fn write_spans(workload: &str, log: &spans::SpanLog) -> Result<(), String> {
    let path = Path::new(WORK_DIR).join(format!("spans-{workload}.json"));
    std::fs::create_dir_all(WORK_DIR).map_err(|e| format!("{WORK_DIR}: {e}"))?;
    std::fs::write(&path, log.to_value().render()).map_err(|e| format!("{}: {e}", path.display()))
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} expects {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => parsed.workload = value.clone(),
            "--seed" => parsed.seed = value.parse().map_err(|_| bad("an integer"))?,
            "--seconds" => {
                parsed.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && s.is_finite())
                    .ok_or_else(|| bad("a positive number"))?;
            }
            "--trace" => {
                parsed.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(parsed)
}

fn run(args: &Args) -> Result<Outcome, String> {
    let work_dir = PathBuf::from(WORK_DIR).join(std::process::id().to_string());
    let outcome = match args.workload.as_str() {
        "suite-test" => sweep::run(args.seed, args.seconds, args.trace),
        "serve-mixed" => serve::run(args.seed, args.seconds, args.trace, &work_dir),
        other => Err(format!(
            "unknown workload {other:?} (suite-test | serve-mixed)"
        )),
    };
    if work_dir.exists() {
        std::fs::remove_dir_all(&work_dir).map_err(|e| format!("{}: {e}", work_dir.display()))?;
    }
    outcome
}

/// The result line: the selected metrics in table order.
fn result_line(outcome: &Outcome, table: &[(&str, &str)]) -> String {
    let metrics = table
        .iter()
        .map(|(name, unit)| {
            (
                (*name).to_owned(),
                Value::Object(vec![
                    ("value".to_owned(), Value::Float(outcome.metrics.get(name))),
                    ("unit".to_owned(), Value::Str((*unit).to_owned())),
                ]),
            )
        })
        .collect();
    Value::Object(vec![
        ("correct".to_owned(), Value::Bool(outcome.tally.failed == 0)),
        ("attempted".to_owned(), Value::UInt(outcome.tally.attempted)),
        ("failed".to_owned(), Value::UInt(outcome.tally.failed)),
        ("metrics".to_owned(), Value::Object(metrics)),
    ])
    .render_compact()
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(outcome) => {
            let table: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
            println!("{}", result_line(&outcome, table));
            if outcome.tally.failed == 0 {
                ExitCode::SUCCESS
            } else {
                eprintln!(
                    "perfbench: {} of {} runs or requests failed or mismatched",
                    outcome.tally.failed, outcome.tally.attempted
                );
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(&list.iter().map(|s| (*s).to_owned()).collect::<Vec<_>>())
    }

    #[test]
    fn flags_parse_and_default() {
        let a = args(&[
            "--workload",
            "suite-test",
            "--seed",
            "7",
            "--seconds",
            "3",
            "--trace",
            "1",
        ])
        .expect("valid");
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("suite-test", 7, 3.0, true)
        );
        let a = args(&["--workload", "serve-mixed"]).expect("valid");
        assert_eq!(
            (a.seed, a.seconds, a.trace),
            (DEFAULT_SEED, DEFAULT_SECONDS, false)
        );
        assert!(args(&["--trace", "2"]).is_err());
        assert!(args(&["--seconds", "0"]).is_err());
        assert!(args(&["--seed"]).is_err());
        assert!(args(&["--bogus", "1"]).is_err());
    }

    /// The metric tables are the ones `BENCHMARK.json` declares.
    #[test]
    fn tables_match_the_benchmark_declaration() {
        let text = include_str!("../../BENCHMARK.json");
        let doc = alberta_core::json::parse(text).expect("BENCHMARK.json parses");
        for (key, table) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let declared: Vec<(String, String)> = doc
                .get(key)
                .and_then(Value::as_array)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let field = |f| m.get(f).and_then(Value::as_str).expect("string field");
                    (field("name").to_owned(), field("unit").to_owned())
                })
                .collect();
            let ours: Vec<(String, String)> = table
                .iter()
                .map(|(n, u)| ((*n).to_owned(), (*u).to_owned()))
                .collect();
            assert_eq!(declared, ours, "{key}");
        }
    }

    #[test]
    fn result_line_reports_every_metric_with_its_unit() {
        let mut metrics = Metrics::new();
        metrics.insert("wall_s", 1.25);
        let outcome = Outcome {
            tally: measure::Tally {
                attempted: 3,
                failed: 1,
            },
            metrics,
        };
        let line = result_line(&outcome, &END_TO_END);
        let doc = alberta_core::json::parse(&line).expect("valid JSON");
        assert_eq!(doc.get("correct"), Some(&Value::Bool(false)));
        assert_eq!(doc.get("attempted").and_then(Value::as_u64), Some(3));
        let m = doc.get("metrics").expect("metrics");
        let wall = m.get("wall_s").expect("wall_s");
        assert_eq!(wall.get("value").and_then(Value::as_f64), Some(1.25));
        assert_eq!(wall.get("unit").and_then(Value::as_str), Some("s"));
        assert_eq!(m.as_object().map(<[_]>::len), Some(END_TO_END.len()));
    }
}
