//! Chrome trace-event export of a serving engine's span log.
//!
//! Where [`crate::trace`] renders a characterization *sweep*, this
//! module renders the *service*: the ordered [`SpanEvent`] log a daemon
//! accumulates is laid out as one timeline lane per host, with each
//! `placed` span positioned by the scheduler's virtual ticks (1 tick =
//! 1 µs of trace time). Virtual time is what makes the artifact
//! deterministic: the same request stream renders byte-identically
//! whether the engine ran serial, threaded, or process-backed, so the
//! file is both a debugging view (open it in `about:tracing` or
//! Perfetto) and a gateable artifact.
//!
//! Lanes and annotations:
//!
//! * one `"X"` (complete) event per `placed` span, on the executing
//!   host's lane, named `benchmark/workload` and tagged with the
//!   originating request label, the cache key, and whether the task was
//!   stolen;
//! * instant markers for `redispatched` and `retried` events, pinned to
//!   the affected task's slot on its host lane;
//! * a trailing *service* lane carrying `cache_hit` and `failed`
//!   instants — events with no host to sit on — spread by their log
//!   sequence number so they stay readable and deterministic.

use alberta_core::telemetry::SpanEvent;

use crate::json::{opt, Fields, FromJson, Value};
use crate::trace::{metadata, trace_document};
use crate::ReportError;

/// One placed task, indexed by cache key so later annotation events can
/// find their slot on the timeline.
struct Slot {
    host: u64,
    start_ticks: u64,
}

/// Renders a span log (the `Spans` wire response, a canonical array of
/// span events) as trace-event JSON.
///
/// # Errors
///
/// [`ReportError::Schema`] when `spans` is not an array of well-formed
/// span events.
pub fn render_service_timeline(spans: &Value) -> Result<String, ReportError> {
    let events = Vec::<SpanEvent>::from_value(spans)?;

    // A malformed attribute reads as absent: draw what can be drawn.
    let attr_u64 = |e: &SpanEvent, name: &str| opt::<u64>(&e.attrs, name).ok().flatten();
    let attr_str = |e: &SpanEvent, name: &str| opt::<String>(&e.attrs, name).ok().flatten();

    // First pass: where every placed key landed, so annotation instants
    // can be pinned to the right slot.
    let mut slots: Vec<(String, Slot)> = Vec::new();
    let mut hosts: Vec<u64> = Vec::new();
    for e in &events {
        if e.stage != "placed" {
            continue;
        }
        let (Some(key), Some(host), Some(start_ticks)) = (
            attr_str(e, "key"),
            attr_u64(e, "host"),
            attr_u64(e, "start_ticks"),
        ) else {
            continue;
        };
        hosts.push(host);
        slots.push((key, Slot { host, start_ticks }));
    }
    hosts.sort_unstable();
    hosts.dedup();
    let slot_of = |key: &str| slots.iter().find(|(k, _)| k == key).map(|(_, s)| s);
    // Events with no host lane (cache hits, failures) park on a trailing
    // service lane.
    let service_lane = hosts.last().map_or(0, |h| h + 1);

    let mut out: Vec<Value> = Vec::new();
    out.push(metadata("process_name", 0, "alberta service"));
    for host in &hosts {
        out.push(metadata("thread_name", *host, &format!("host {host}")));
    }
    out.push(metadata("thread_name", service_lane, "service"));

    for e in &events {
        match e.stage.as_str() {
            "placed" => {
                let (Some(host), Some(start), Some(end)) = (
                    attr_u64(e, "host"),
                    attr_u64(e, "start_ticks"),
                    attr_u64(e, "end_ticks"),
                ) else {
                    continue;
                };
                let name = format!(
                    "{}/{}",
                    attr_str(e, "benchmark").unwrap_or_default(),
                    attr_str(e, "workload").unwrap_or_default()
                );
                let args = Fields::new()
                    .put("request", &e.request)
                    .put_some("key", &attr_str(e, "key"))
                    .put(
                        "stolen",
                        &e.attrs.get("stolen").unwrap_or(&Value::Bool(false)),
                    );
                out.push(
                    Fields::new()
                        .put("name", &name)
                        .put("cat", "placed")
                        .put("ph", "X")
                        .put("ts", &(start as f64))
                        .put("dur", &((end - start).max(1) as f64))
                        .put("pid", &0u64)
                        .put("tid", &host)
                        .put("args", &args.build())
                        .build(),
                );
            }
            "redispatched" | "retried" => {
                // Pin the marker to the task's slot when we know it;
                // otherwise let it fall through to the service lane.
                let slot = attr_str(e, "key").as_deref().and_then(slot_of);
                let (tid, ts) = match slot {
                    Some(s) => (s.host, s.start_ticks as f64),
                    None => (service_lane, e.seq as f64),
                };
                out.push(instant(e, tid, ts));
            }
            "cache_hit" | "failed" => {
                out.push(instant(e, service_lane, e.seq as f64));
            }
            _ => {}
        }
    }

    Ok(trace_document(out))
}

fn instant(e: &SpanEvent, tid: u64, ts: f64) -> Value {
    Fields::new()
        .put("name", &format!("{}: {}", e.request, e.stage))
        .put("ph", "i")
        .put("ts", &ts)
        .put("pid", &0u64)
        .put("tid", &tid)
        .put("s", "t")
        .put("args", &Fields::new().put("request", &e.request).build())
        .build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Fields, ToJson};
    use alberta_core::telemetry::SpanLog;

    fn sample_log() -> SpanLog {
        let mut log = SpanLog::new();
        log.push(
            "storm-m0#1",
            "received",
            Fields::new().put("benchmark", "mcf"),
        );
        log.push("storm-m0#1", "cache_hit", Fields::new().put("key", "aa11"));
        let placed = Fields::new()
            .put("key", "bb22")
            .put("host", &2u64)
            .put("stolen", &true)
            .put("start_ticks", &4u64)
            .put("end_ticks", &9u64)
            .put("benchmark", "mcf")
            .put("workload", "train");
        log.push("storm-m0#1", "placed", placed);
        let redispatched = Fields::new().put("key", "bb22").put("attempt", &2u64);
        log.push("storm-m0#1", "redispatched", redispatched);
        log.push("storm-m0#1", "completed", Fields::new());
        log
    }

    #[test]
    fn timeline_places_spans_on_host_lanes() {
        let text = render_service_timeline(&sample_log().to_value()).unwrap();
        let doc = json::parse(&text).expect("timeline is well-formed JSON");
        let events = doc.get("traceEvents").unwrap().as_array().unwrap();
        let span = events
            .iter()
            .find(|e| e.get("ph").unwrap().as_str() == Some("X"))
            .expect("one placed span");
        assert_eq!(span.get("name").unwrap().as_str(), Some("mcf/train"));
        assert_eq!(span.get("tid").unwrap().as_u64(), Some(2));
        assert_eq!(span.get("ts").unwrap().as_f64(), Some(4.0));
        assert_eq!(span.get("dur").unwrap().as_f64(), Some(5.0));
        assert_eq!(
            span.get("args").unwrap().get("request").unwrap().as_str(),
            Some("storm-m0#1"),
            "every span is tagged with the originating request label"
        );
    }

    #[test]
    fn annotations_pin_to_slots_and_service_lane() {
        let text = render_service_timeline(&sample_log().to_value()).unwrap();
        let doc = json::parse(&text).unwrap();
        let events = doc.get("traceEvents").unwrap().as_array().unwrap();
        let instants: Vec<&Value> = events
            .iter()
            .filter(|e| e.get("ph").unwrap().as_str() == Some("i"))
            .collect();
        assert_eq!(instants.len(), 2, "cache_hit + redispatched");
        let hit = instants
            .iter()
            .find(|e| {
                e.get("name")
                    .unwrap()
                    .as_str()
                    .unwrap()
                    .contains("cache_hit")
            })
            .unwrap();
        // Host lanes end at 2, so the service lane is 3.
        assert_eq!(hit.get("tid").unwrap().as_u64(), Some(3));
        let redispatch = instants
            .iter()
            .find(|e| {
                e.get("name")
                    .unwrap()
                    .as_str()
                    .unwrap()
                    .contains("redispatched")
            })
            .unwrap();
        assert_eq!(redispatch.get("tid").unwrap().as_u64(), Some(2));
        assert_eq!(redispatch.get("ts").unwrap().as_f64(), Some(4.0));
        let lanes: Vec<&Value> = events
            .iter()
            .filter(|e| e.get("name").unwrap().as_str() == Some("thread_name"))
            .collect();
        assert_eq!(lanes.len(), 2, "host 2 + service");
    }

    #[test]
    fn timeline_is_deterministic_and_rejects_malformed_logs() {
        let log = sample_log().to_value();
        assert_eq!(
            render_service_timeline(&log).unwrap(),
            render_service_timeline(&log).unwrap()
        );
        assert!(render_service_timeline(&Value::UInt(3)).is_err());
        let bad = Value::Array(vec![Value::Object(vec![(
            "stage".to_owned(),
            Value::Str("received".to_owned()),
        )])]);
        assert!(matches!(
            render_service_timeline(&bad),
            Err(ReportError::Schema { .. })
        ));
    }
}
