//! Chrome trace-event export of a characterization sweep.
//!
//! Renders a [`SuiteReport`] as a trace-event JSON document — the
//! format `about:tracing` and [Perfetto](https://ui.perfetto.dev)
//! open directly — with one complete (`"ph": "X"`) span per
//! `(benchmark, workload)` run, grouped into per-lane timelines, and
//! instant-event annotations marking retried and lost runs.
//!
//! Two timeline modes cover the two kinds of report this workspace
//! produces:
//!
//! * [`TraceMode::Virtual`] — a *deterministic* schedule built from
//!   modelled cycles only: runs are placed in canonical order onto the
//!   lane that frees up first, exactly the greedy policy of the real
//!   work-stealing scheduler but on modelled time. The output depends
//!   only on the report's deterministic fields, so serial and
//!   `--jobs N` sweeps of the same suite render byte-identical traces.
//!   This is what `bench-trace` emits and what CI byte-compares;
//! * [`TraceMode::Telemetry`] — the *measured* schedule, from the
//!   `wall_nanos`/`start_nanos`/`worker` telemetry a `--telemetry`
//!   report retains: spans sit where the runs actually executed, one
//!   lane per worker thread. Volatile by nature, useful for eyeballing
//!   real scheduling behaviour, never byte-compared.
//!
//! The document reuses the canonical [`json::Value`] emitter, so trace
//! output inherits the same determinism guarantees as every other
//! artifact: ordered objects, exact integers, stable float rendering.

use crate::json::{Fields, Value};
use crate::schema::{RunRecord, StatusKind, SuiteReport};
use crate::ReportError;

/// Lane count used by `bench-trace` when `--lanes` is not given.
pub const DEFAULT_LANES: usize = 4;

/// Which timeline a trace renders.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceMode {
    /// Deterministic virtual schedule over modelled cycles (1 cycle =
    /// 1 µs of trace time), `lanes` parallel lanes.
    Virtual {
        /// Number of virtual worker lanes (≥ 1; 0 is clamped to 1).
        lanes: usize,
    },
    /// Measured schedule from wall-clock telemetry, one lane per
    /// worker.
    Telemetry,
}

/// One placed span, before serialization.
struct Span<'r> {
    benchmark: &'r str,
    run: &'r RunRecord,
    lane: u64,
    /// Microseconds from sweep start.
    start: f64,
    /// Microseconds.
    duration: f64,
}

/// Renders `report` as trace-event JSON under `mode`.
///
/// # Errors
///
/// [`ReportError::Schema`] in [`TraceMode::Telemetry`] when any run
/// lacks wall-clock telemetry — canonical reports strip it; generate
/// the report with `--telemetry` to keep it.
pub fn render_trace(report: &SuiteReport, mode: TraceMode) -> Result<String, ReportError> {
    let spans = match mode {
        TraceMode::Virtual { lanes } => virtual_spans(report, lanes.max(1)),
        TraceMode::Telemetry => telemetry_spans(report)?,
    };
    let mut events: Vec<Value> = Vec::new();
    events.push(metadata(
        "process_name",
        0,
        &format!("alberta sweep ({:?} scale)", report.scale),
    ));
    let mut lanes: Vec<u64> = spans.iter().map(|s| s.lane).collect();
    lanes.sort_unstable();
    lanes.dedup();
    let lane_label = match mode {
        TraceMode::Virtual { .. } => "lane",
        TraceMode::Telemetry => "worker",
    };
    for lane in &lanes {
        events.push(metadata(
            "thread_name",
            *lane,
            &format!("{lane_label} {lane}"),
        ));
    }
    for span in &spans {
        events.push(span_event(span));
        // Annotate degradations where they happened: an instant event
        // renders as a marker at the span's start in the viewer.
        match span.run.status {
            StatusKind::Ok => {}
            StatusKind::Degraded => events.push(instant_event(span, "retried")),
            StatusKind::Failed => events.push(instant_event(span, "lost")),
        }
    }
    Ok(trace_document(events))
}

/// The deterministic virtual schedule: runs in canonical report order,
/// each placed on the lane with the earliest end time (ties to the
/// lowest lane index), with modelled cycles as the span duration. This
/// mirrors the real scheduler's greedy work-stealing policy, so the
/// rendered timeline *shape* is an honest picture of a `--jobs lanes`
/// sweep — on modelled time instead of volatile wall-clock.
fn virtual_spans(report: &SuiteReport, lanes: usize) -> Vec<Span<'_>> {
    let mut lane_ends = vec![0.0f64; lanes];
    let mut spans = Vec::new();
    for benchmark in &report.benchmarks {
        for run in &benchmark.runs {
            let duration = virtual_duration(run);
            let lane = lane_ends
                .iter()
                .enumerate()
                .min_by(|(_, a), (_, b)| a.partial_cmp(b).expect("lane ends are finite"))
                .map(|(i, _)| i)
                .expect("at least one lane");
            let start = lane_ends[lane];
            lane_ends[lane] = start + duration;
            spans.push(Span {
                benchmark: &benchmark.short_name,
                run,
                lane: lane as u64,
                start,
                duration,
            });
        }
    }
    spans
}

/// Modelled duration of a run in the virtual timeline: its modelled
/// cycles, or for runs without measures (lost runs) the retired-op
/// count at the abort — clamped to one so the span stays visible.
fn virtual_duration(run: &RunRecord) -> f64 {
    match &run.measures {
        Some(m) => m.cycles.max(1.0),
        None => run.budget_consumed.max(1) as f64,
    }
}

/// The measured schedule: spans positioned by their recorded
/// wall-clock start/duration, one lane per worker id.
fn telemetry_spans(report: &SuiteReport) -> Result<Vec<Span<'_>>, ReportError> {
    let mut spans = Vec::new();
    for benchmark in &report.benchmarks {
        for run in &benchmark.runs {
            let (Some(wall), Some(start), Some(worker)) =
                (run.wall_nanos, run.start_nanos, run.worker)
            else {
                return Err(ReportError::Schema {
                    message: format!(
                        "run {}/{} has no wall-clock telemetry (stripped reports cannot \
                         render a measured timeline; regenerate with --telemetry)",
                        benchmark.short_name, run.workload
                    ),
                });
            };
            spans.push(Span {
                benchmark: &benchmark.short_name,
                run,
                lane: worker,
                start: start as f64 / 1_000.0,
                duration: (wall as f64 / 1_000.0).max(0.001),
            });
        }
    }
    Ok(spans)
}

/// A Chrome trace-event document holding `events`, rendered.
pub(crate) fn trace_document(events: Vec<Value>) -> String {
    Fields::new()
        .put("traceEvents", &events)
        .put("displayTimeUnit", "ms")
        .build()
        .render()
}

/// A metadata event naming process or lane `tid`.
pub(crate) fn metadata(name: &str, tid: u64, label: &str) -> Value {
    Fields::new()
        .put("name", name)
        .put("ph", "M")
        .put("pid", &0u64)
        .put("tid", &tid)
        .put("args", &Fields::new().put("name", label).build())
        .build()
}

fn span_event(span: &Span<'_>) -> Value {
    let run = span.run;
    let measures = run.measures.as_ref();
    let args = Fields::new()
        .put("status", &run.status)
        .put("retries", &run.retries)
        .put("budget_consumed", &run.budget_consumed)
        .put_some("cycles", &measures.map(|m| m.cycles))
        .put_some("ipc", &measures.map(|m| m.ipc))
        .put_some("error", &run.error);
    Fields::new()
        .put("name", &format!("{}/{}", span.benchmark, run.workload))
        .put("cat", &run.status)
        .put("ph", "X")
        .put("ts", &span.start)
        .put("dur", &span.duration)
        .put("pid", &0u64)
        .put("tid", &span.lane)
        .put("args", &args.build())
        .build()
}

fn instant_event(span: &Span<'_>, label: &str) -> Value {
    Fields::new()
        .put(
            "name",
            &format!("{}/{}: {label}", span.benchmark, span.run.workload),
        )
        .put("ph", "i")
        .put("ts", &span.start)
        .put("pid", &0u64)
        .put("tid", &span.lane)
        .put("s", "t")
        .build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;
    use crate::schema::{MeasureRecord, SCHEMA_VERSION};
    use alberta_workloads::Scale;
    use std::collections::BTreeMap;

    fn run(workload: &str, status: StatusKind, cycles: Option<f64>) -> RunRecord {
        RunRecord {
            workload: workload.to_owned(),
            status,
            error: (status != StatusKind::Ok).then(|| "synthetic error".to_owned()),
            retried_at: (status == StatusKind::Degraded).then_some(Scale::Test),
            retries: u32::from(status == StatusKind::Degraded),
            budget_consumed: 50,
            wall_nanos: None,
            start_nanos: None,
            worker: None,
            dispatches: None,
            measures: cycles.map(|cycles| MeasureRecord {
                ratios: [0.25, 0.25, 0.25, 0.25],
                cycles,
                ipc: 1.0,
                retired_ops: 100,
                work: 10,
                checksum: 1,
                coverage: BTreeMap::new(),
                memory: Default::default(),
            }),
            sampling: None,
        }
    }

    fn sample_report() -> SuiteReport {
        SuiteReport {
            schema_version: SCHEMA_VERSION,
            scale: Scale::Test,
            benchmarks: vec![crate::schema::BenchmarkReport {
                spec_id: "505.mcf_r".to_owned(),
                short_name: "mcf".to_owned(),
                runs: vec![
                    run("train", StatusKind::Ok, Some(1000.0)),
                    run("refrate", StatusKind::Degraded, Some(400.0)),
                    run("alberta.0", StatusKind::Failed, None),
                    run("alberta.1", StatusKind::Ok, Some(200.0)),
                ],
                summary: None,
                hot_paths: None,
            }],
        }
    }

    #[test]
    fn virtual_trace_is_valid_json_with_expected_events() {
        let text = render_trace(&sample_report(), TraceMode::Virtual { lanes: 2 }).unwrap();
        let doc = json::parse(&text).expect("trace is well-formed JSON");
        let events = doc.get("traceEvents").unwrap().as_array().unwrap();
        // 1 process_name + 2 thread_name + 4 spans + 2 annotations.
        assert_eq!(events.len(), 9);
        let spans: Vec<&Value> = events
            .iter()
            .filter(|e| e.get("ph").unwrap().as_str() == Some("X"))
            .collect();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[0].get("name").unwrap().as_str(), Some("mcf/train"));
        assert_eq!(
            spans[1]
                .get("args")
                .unwrap()
                .get("status")
                .unwrap()
                .as_str(),
            Some("degraded")
        );
        let instants = events
            .iter()
            .filter(|e| e.get("ph").unwrap().as_str() == Some("i"))
            .count();
        assert_eq!(instants, 2, "one marker per non-ok run");
    }

    #[test]
    fn virtual_schedule_packs_lanes_greedily() {
        let text = render_trace(&sample_report(), TraceMode::Virtual { lanes: 2 }).unwrap();
        let doc = json::parse(&text).unwrap();
        let events = doc.get("traceEvents").unwrap().as_array().unwrap();
        let span = |name: &str| -> (u64, f64) {
            let e = events
                .iter()
                .find(|e| {
                    e.get("ph").unwrap().as_str() == Some("X")
                        && e.get("name").unwrap().as_str() == Some(name)
                })
                .unwrap();
            (
                e.get("tid").unwrap().as_u64().unwrap(),
                e.get("ts").unwrap().as_f64().unwrap(),
            )
        };
        // train (1000) fills lane 0; refrate (400) takes lane 1; the
        // failed run (duration 50) follows on lane 1 (earliest end);
        // alberta.1 lands after it, still on lane 1 (450 < 1000).
        assert_eq!(span("mcf/train"), (0, 0.0));
        assert_eq!(span("mcf/refrate"), (1, 0.0));
        assert_eq!(span("mcf/alberta.0"), (1, 400.0));
        assert_eq!(span("mcf/alberta.1"), (1, 450.0));
    }

    #[test]
    fn virtual_trace_ignores_lane_count_zero() {
        let text = render_trace(&sample_report(), TraceMode::Virtual { lanes: 0 }).unwrap();
        let doc = json::parse(&text).unwrap();
        let events = doc.get("traceEvents").unwrap().as_array().unwrap();
        assert!(events
            .iter()
            .filter(|e| e.get("ph").unwrap().as_str() == Some("X"))
            .all(|e| e.get("tid").unwrap().as_u64() == Some(0)));
    }

    #[test]
    fn virtual_trace_is_deterministic() {
        let report = sample_report();
        let a = render_trace(&report, TraceMode::Virtual { lanes: 4 }).unwrap();
        let b = render_trace(&report, TraceMode::Virtual { lanes: 4 }).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn telemetry_mode_requires_telemetry() {
        let err = render_trace(&sample_report(), TraceMode::Telemetry).unwrap_err();
        assert!(err.to_string().contains("--telemetry"), "{err}");

        let mut report = sample_report();
        for r in &mut report.benchmarks[0].runs {
            r.wall_nanos = Some(5_000);
            r.start_nanos = Some(1_000);
            r.worker = Some(3);
        }
        let text = render_trace(&report, TraceMode::Telemetry).unwrap();
        let doc = json::parse(&text).unwrap();
        let events = doc.get("traceEvents").unwrap().as_array().unwrap();
        let span = events
            .iter()
            .find(|e| e.get("ph").unwrap().as_str() == Some("X"))
            .unwrap();
        assert_eq!(span.get("tid").unwrap().as_u64(), Some(3));
        assert_eq!(span.get("ts").unwrap().as_f64(), Some(1.0), "ns → µs");
        assert_eq!(span.get("dur").unwrap().as_f64(), Some(5.0));
        let lane_name = events
            .iter()
            .find(|e| e.get("name").unwrap().as_str() == Some("thread_name"))
            .unwrap();
        assert_eq!(
            lane_name.get("args").unwrap().get("name").unwrap().as_str(),
            Some("worker 3")
        );
    }
}
