//! `suite-test`: the full resilient Test-scale sweep `bench-report test`
//! runs, in a seeded run order.

use crate::measure::{self, Meter, SplitMix, Tally};
use crate::pace::{self, Pace};
use crate::spans::{Accounting, SpanLog};
use crate::{Metrics, Outcome};
use alberta_benchmarks::{run_guarded, BenchError, Benchmark};
use alberta_core::{
    summarize_runs, ExecPolicy, ResilientCharacterization, RunMetrics, RunReport, RunStatus, Scale,
    Suite, WorkloadRun,
};
use alberta_profile::{Profiler, SampleConfig};
use alberta_report::{MemoryDocument, SuiteReport};
use alberta_uarch::{mpki_sweep_config, Cache, ReplayState, TopDownModel, MPKI_SWEEP_SIZES};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// The committed Test-scale report and its memory projection: the sweep
/// must reproduce both byte for byte.
const BENCH_TEST: &str = include_str!("../../BENCH_test.json");
const MEM_TEST: &str = include_str!("../../MEM_test.json");

/// Every run of the suite as `(benchmark index, workload)`, shuffled by
/// the seed.
fn order(suite: &Suite, rng: &mut SplitMix) -> Vec<(usize, String)> {
    let tasks: Vec<(usize, String)> = suite
        .benchmarks()
        .iter()
        .enumerate()
        .flat_map(|(b, bench)| bench.workload_names().into_iter().map(move |w| (b, w)))
        .collect();
    rng.permutation(tasks.len())
        .into_iter()
        .map(|i| tasks[i].clone())
        .collect()
}

/// One resilient result per benchmark, in suite order.
type Results = Vec<(ResilientCharacterization, Vec<RunMetrics>)>;

/// The canonical documents a sweep produces.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Encoded {
    report: String,
    memory: String,
}

fn encode(results: &Results) -> Encoded {
    let mut report = SuiteReport::from_resilient(Scale::Test, results);
    report.strip_telemetry();
    Encoded {
        memory: MemoryDocument::from_report(&report).to_json(),
        report: report.to_json(),
    }
}

/// Whether the documents are the committed reference output.
fn reference_matches(encoded: &Encoded) -> bool {
    let matches = encoded.report == BENCH_TEST && encoded.memory == MEM_TEST;
    if !matches {
        eprintln!("perfbench: suite-test output differs from BENCH_test.json or MEM_test.json");
    }
    matches
}

/// Runs between two set-ups timed inside an untraced sweep: 24 chunks
/// of the 216-run sweep, with a set-up before each and after the last.
const RUNS_PER_SETUP: usize = 9;

/// An untraced sweep, with its documents, its metered time, the set-ups
/// timed between its chunks and the host pace sampled before every run.
struct Sweep {
    results: Results,
    encoded: Encoded,
    meter: Meter,
    setups: Vec<f64>,
    pace: f64,
}

/// Runs the sweep in `order` through `Suite::characterize_tasks_metered`,
/// the per-run resilient pipeline `characterize_all_resilient_metered`
/// fans out, one run per call, and reassembles and encodes it
/// canonically. The runs go in chunks of [`RUNS_PER_SETUP`] with a timed
/// set-up between chunks; the host pace is sampled before every run and
/// before the encoding. The meter leaves set-ups and samples out.
fn sweep_untraced(
    suite: &Suite,
    order: &[(usize, String)],
    pace: &mut Pace,
) -> Result<Sweep, String> {
    let mut meter = Meter::default();
    let mut setups = Vec::new();
    let mut outcomes = Vec::with_capacity(order.len());
    for chunk in order.chunks(RUNS_PER_SETUP) {
        setups.push(time_setup());
        for (b, w) in chunk {
            let task = [(suite.benchmarks()[*b].short_name().to_owned(), w.clone())];
            pace.sample();
            let runs = meter.time(|| suite.characterize_tasks_metered(&task))?;
            let runs = runs.map_err(|e| e.to_string())?;
            outcomes.extend(
                runs.into_iter()
                    .map(|run| (run.status, run.run, run.metrics)),
            );
        }
    }
    setups.push(time_setup());
    pace.sample();
    let (results, encoded) = meter.time(|| {
        let results = reassemble(suite, order, outcomes, resilient);
        let encoded = encode(&results);
        (results, encoded)
    })?;
    Ok(Sweep {
        results,
        encoded,
        meter,
        setups,
        pace: pace.take().expect("the pace was sampled"),
    })
}

/// One run's fate, measurements and execution metrics.
type RunOutcome = (RunStatus, Option<WorkloadRun>, RunMetrics);

/// Canonical reassembly of runs executed in `order`: benchmark by
/// benchmark in suite order, each benchmark's runs in workload order,
/// each benchmark summarized by `summarize`.
fn reassemble(
    suite: &Suite,
    order: &[(usize, String)],
    outcomes: Vec<RunOutcome>,
    mut summarize: impl FnMut(
        &dyn Benchmark,
        Vec<RunReport>,
        Vec<WorkloadRun>,
        Vec<RunMetrics>,
    ) -> (ResilientCharacterization, Vec<RunMetrics>),
) -> Results {
    let mut placed: Vec<Option<RunOutcome>> = outcomes.into_iter().map(Some).collect();
    let mut results = Vec::new();
    for (b, bench) in suite.benchmarks().iter().enumerate() {
        let mut statuses = Vec::new();
        let mut survivors = Vec::new();
        let mut metrics = Vec::new();
        for workload in bench.workload_names() {
            let at = order
                .iter()
                .position(|(ob, ow)| *ob == b && *ow == workload)
                .expect("every run of the sweep is in its order");
            let (status, run, m) = placed[at].take().expect("each run is placed once");
            metrics.push(m);
            survivors.extend(run);
            statuses.push(RunReport { workload, status });
        }
        results.push(summarize(bench.as_ref(), statuses, survivors, metrics));
    }
    results
}

/// A benchmark's resilient characterization from its runs' fates.
fn resilient(
    bench: &dyn Benchmark,
    statuses: Vec<RunReport>,
    survivors: Vec<WorkloadRun>,
    metrics: Vec<RunMetrics>,
) -> (ResilientCharacterization, Vec<RunMetrics>) {
    (
        ResilientCharacterization {
            spec_id: bench.name().to_owned(),
            short_name: bench.short_name().to_owned(),
            statuses,
            characterization: summarize_runs(bench.name(), bench.short_name(), survivors),
        },
        metrics,
    )
}

/// Counts the layers report in a traced sweep; they repeat exactly for
/// a seed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerCounts {
    /// Instrumentation events the profiler observed.
    pub events: u64,
    /// Events retained in the finished traces.
    pub retained: u64,
    /// Largest decimation count of any trace.
    pub decimations_max: u32,
    /// Loads and stores each ladder pass replays.
    pub mem_accesses: u64,
    /// Events one full batched replay drives through the model.
    pub replayed_events: u64,
}

/// One run through the pipeline `run_workload` drives, with a span
/// around each public layer call, plus the replay and the ten MPKI
/// ladder passes timed again as extra calls off the blocking path.
pub fn traced_run(
    bench: &dyn Benchmark,
    workload: &str,
    model: &TopDownModel,
    log: &mut SpanLog,
    parent: usize,
    id: u64,
    counts: &mut LayerCounts,
) -> Result<WorkloadRun, BenchError> {
    let p = Some(parent);
    let mut profiler = Profiler::new(SampleConfig::default());
    let output = log.time("benchmarks.run_guarded", p, id, || {
        run_guarded(bench, workload, &mut profiler)
    })?;
    counts.events += profiler.event_count();
    let profile = log.time("profile.finish", p, id, || profiler.finish());
    log.time("profile.validate", p, id, || profile.validate())
        .map_err(|violation| BenchError::InvalidProfile {
            benchmark: bench.name(),
            workload: workload.to_owned(),
            violation,
        })?;
    let report = log.time("uarch.analyze", p, id, || model.analyze(&profile));
    let (coverage, paths) = log.time("profile.paths", p, id, || {
        (profile.coverage_percent(), profile.path_table())
    });

    let trace_len = profile.trace.len();
    counts.retained += trace_len as u64;
    counts.decimations_max = counts.decimations_max.max(profile.trace.decimations());
    let replayed = log.time_off_path("uarch.replay", p, id, || {
        let fn_base = model.code_layout(&profile);
        let probes = model.probe_table(&profile);
        let mut state = ReplayState::new(model.config(), model.predictor());
        state.replay_batched(&profile.chunks, (0, trace_len), &probes, &fn_base)
    });
    counts.replayed_events += replayed.events();
    let addrs = profile.chunks.kind_ranges(0, trace_len).mem_addrs;
    counts.mem_accesses += addrs.len() as u64;
    let misses: u64 = log.time_off_path("uarch.ladder", p, id, || {
        MPKI_SWEEP_SIZES
            .iter()
            .map(|&size| Cache::new(mpki_sweep_config(size)).access_many(addrs))
            .sum()
    });
    black_box(misses);

    Ok(WorkloadRun {
        workload: workload.to_owned(),
        report,
        coverage,
        paths,
        work: output.work,
        checksum: output.checksum,
        sampling: None,
    })
}

/// The sweep in `order` with every layer call traced. Runs that fail
/// are reported `Failed` without the resilient retry, which no run at
/// the reference output needs.
fn sweep_traced(
    suite: &Suite,
    order: &[(usize, String)],
    log: &mut SpanLog,
    counts: &mut LayerCounts,
) -> (Results, Encoded) {
    let model = TopDownModel::reference();
    let benchmarks = suite.benchmarks();
    let root = log.open("sweep", None, 0);
    let mut outcomes = Vec::new();
    for (id, (b, workload)) in order.iter().enumerate() {
        let id = id as u64;
        let span = log.open("run", Some(root), id);
        let run = traced_run(
            benchmarks[*b].as_ref(),
            workload,
            &model,
            log,
            span,
            id,
            counts,
        );
        log.close(span);
        let (status, run) = match run {
            Ok(run) => (RunStatus::Ok, Some(run)),
            Err(error) => (RunStatus::Failed { error }, None),
        };
        let metrics = RunMetrics {
            budget_consumed: run.as_ref().map_or(0, |r| r.report.retired_ops),
            dispatches: 1,
            ..RunMetrics::default()
        };
        outcomes.push((status, run, metrics));
    }
    let results = reassemble(
        suite,
        order,
        outcomes,
        |bench, statuses, survivors, metrics| {
            log.time("stats.summarize", Some(root), 0, || {
                resilient(bench, statuses, survivors, metrics)
            })
        },
    );
    let encoded = log.time("report.encode", Some(root), 0, || encode(&results));
    log.close(root);
    (results, encoded)
}

/// The set-up `setup_s` times: generating every benchmark's inputs.
fn set_up() -> Suite {
    Suite::new(Scale::Test).with_exec(ExecPolicy::Serial)
}

/// Times one set-up, dropped once timed so that every set-up builds
/// into the same steady heap.
fn time_setup() -> f64 {
    let start = Instant::now();
    let built = set_up();
    let seconds = start.elapsed().as_secs_f64();
    drop(black_box(built));
    seconds
}

/// Runs `suite-test`: untraced sweeps for `seconds`, and with `trace`
/// one traced sweep after them.
///
/// `wall_s` is the median over sweeps of each sweep's metered time,
/// and `setup_s` the median of the middle mean of each sweep's
/// interleaved set-ups, both scaled by the host pace sampled through
/// that sweep (see [`crate::pace`]). Host speed on a shared machine
/// shifts by half for seconds to minutes, for set-up and sweep alike;
/// timed through the sweep, set-ups and pace samples cover the same
/// span as the sweep instead of catching one moment of it.
pub fn run(seed: u64, seconds: f64, trace: bool) -> Result<Outcome, String> {
    let suite = set_up();
    let mut rng = SplitMix::new(seed);
    let mut tally = Tally::default();
    let mut pace = Pace::default();
    let (mut setups, mut walls, mut raw_walls, mut cpus, mut rates, mut paces) = (
        Vec::new(),
        Vec::new(),
        Vec::new(),
        Vec::new(),
        Vec::new(),
        Vec::new(),
    );
    let mut untraced_bytes = None;
    let started = Instant::now();
    let mut last = None;
    while crate::another_unit(started, seconds, last) {
        let unit = Instant::now();
        let order = order(&suite, &mut rng);
        let sweep = sweep_untraced(&suite, &order, &mut pace)?;
        last = Some(unit.elapsed());
        let raw_wall = sweep.meter.wall.as_secs_f64();
        let wall = pace::scaled(raw_wall, sweep.pace);
        let retired: u64 = sweep
            .results
            .iter()
            .filter_map(|(r, _)| r.characterization.as_ref())
            .flat_map(|c| &c.runs)
            .map(|run| run.report.retired_ops)
            .sum();
        tally.absorb(check(&sweep.results, &sweep.encoded, true));
        let setup = measure::middle_mean(&sweep.setups).expect("set-ups ran");
        setups.push(pace::scaled(setup, sweep.pace));
        walls.push(wall);
        raw_walls.push(raw_wall);
        cpus.push(sweep.meter.cpu.as_secs_f64());
        rates.push(retired as f64 / 1e6 / wall);
        paces.push(sweep.pace);
        eprintln!(
            "perfbench: sweep {}: {wall:.3} s at the reference pace, {raw_wall:.3} s raw, pace {:.3} ms",
            walls.len(),
            sweep.pace * 1e3
        );
        untraced_bytes.get_or_insert(sweep.encoded);
    }
    let mut metrics = Metrics::new();
    metrics.insert("process.peak_rss_mb", measure::peak_rss_mb()?);
    metrics.insert("setup_s", measure::median(&setups).expect("one sweep"));
    metrics.insert("wall_s", measure::median(&walls).expect("one sweep"));
    metrics.insert("process.cpu_s", measure::median(&cpus).expect("one sweep"));
    metrics.insert(
        "process.sim_mops_per_s",
        measure::median(&rates).expect("one sweep"),
    );
    metrics.insert(
        "host.pace_ms",
        measure::median(&paces).expect("one sweep") * 1e3,
    );

    if trace {
        let order = order(&suite, &mut rng);
        let mut log = SpanLog::default();
        let mut counts = LayerCounts::default();
        let (results, encoded) = sweep_traced(&suite, &order, &mut log, &mut counts);
        // The traced sweep must reproduce the untraced bytes: that is
        // what shows it drove the same pipeline.
        let same = Some(&encoded) == untraced_bytes.as_ref();
        tally.absorb(check(&results, &encoded, same));
        layer_metrics(
            &mut metrics,
            &Accounting::of(log.spans()),
            &counts,
            &encoded,
            measure::median(&raw_walls).expect("one sweep"),
        );
        crate::write_spans("suite-test", &log)?;
    }
    metrics.insert("ok_frac", 1.0 - tally.failed_frac());
    Ok(Outcome { tally, metrics })
}

/// Tallies one sweep's runs: a run fails when it did not come back
/// `Ok`, and every run fails when the documents miss the reference or
/// `consistent` is false.
fn check(results: &Results, encoded: &Encoded, consistent: bool) -> Tally {
    let matches = consistent && reference_matches(encoded);
    let mut tally = Tally::default();
    for run in results.iter().flat_map(|(r, _)| &r.statuses) {
        tally.record(run.status.is_ok() && matches);
    }
    tally
}

/// The per-layer metrics of a traced sweep.
fn layer_metrics(
    metrics: &mut Metrics,
    acc: &Accounting,
    counts: &LayerCounts,
    encoded: &Encoded,
    untraced_wall_s: f64,
) {
    pipeline_metrics(metrics, acc, counts);
    metrics.insert("stats.summarize_ms", acc.self_ms("stats.summarize"));
    metrics.insert("report.encode_ms", acc.self_ms("report.encode"));
    metrics.insert(
        "report.bytes",
        (encoded.report.len() + encoded.memory.len()) as f64,
    );
    trace_metrics(metrics, acc, untraced_wall_s, &["sweep", "run"]);
}

/// The `benchmarks.*`, `profile.*` and `uarch.*` metrics of the
/// [`traced_run`] spans and counts.
pub fn pipeline_metrics(metrics: &mut Metrics, acc: &Accounting, counts: &LayerCounts) {
    let execute_ms = acc.self_ms("benchmarks.run_guarded");
    let replay_ms = acc.off_path_ms("uarch.replay");
    metrics.insert("benchmarks.execute_ms", execute_ms);
    metrics.insert("benchmarks.events", counts.events as f64);
    metrics.insert(
        "benchmarks.ns_per_event",
        measure::ratio(execute_ms * 1e6, counts.events as f64),
    );
    metrics.insert("profile.finish_ms", acc.self_ms("profile.finish"));
    metrics.insert("profile.validate_ms", acc.self_ms("profile.validate"));
    metrics.insert("profile.paths_ms", acc.self_ms("profile.paths"));
    metrics.insert("profile.retained_events", counts.retained as f64);
    metrics.insert(
        "profile.retention",
        measure::ratio(counts.retained as f64, counts.events as f64),
    );
    metrics.insert("profile.decimations_max", f64::from(counts.decimations_max));
    metrics.insert("uarch.analyze_ms", acc.self_ms("uarch.analyze"));
    metrics.insert("uarch.replay_ms", replay_ms);
    metrics.insert("uarch.ladder_ms", acc.off_path_ms("uarch.ladder"));
    metrics.insert("uarch.mem_accesses", counts.mem_accesses as f64);
    metrics.insert("uarch.replayed_events", counts.replayed_events as f64);
    metrics.insert(
        "uarch.ns_per_replayed_event",
        measure::ratio(replay_ms * 1e6, counts.replayed_events as f64),
    );
}

/// `trace.*`: the traced blocking wall, its overhead over the untraced
/// wall, and the share of it no layer span covers (the `glue` spans'
/// self time).
pub fn trace_metrics(metrics: &mut Metrics, acc: &Accounting, untraced_wall_s: f64, glue: &[&str]) {
    let traced_s = Duration::from_nanos(acc.blocking_ns).as_secs_f64();
    metrics.insert("trace.wall_s", traced_s);
    metrics.insert(
        "trace.overhead_pct",
        (traced_s - untraced_wall_s) * 100.0 / untraced_wall_s,
    );
    metrics.insert("trace.unaccounted_pct", acc.share_pct(glue));
}
