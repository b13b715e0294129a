//! In-memory span log for the traced run.
//!
//! Spans are recorded from outside the program, around the public call
//! into each layer, and written out once the run ends. A span that is
//! *off the blocking path* times an extra call the benchmark makes to
//! look inside a layer (a second replay, the ladder passes, a twin
//! engine); it is excluded from the traced wall time.

use alberta_core::json::Value;
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer call the span wraps, e.g. `uarch.analyze`.
    pub name: &'static str,
    /// Start, in nanoseconds since the log's origin.
    pub start: u64,
    /// End, in nanoseconds since the log's origin.
    pub end: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Run or request id the span belongs to.
    pub id: u64,
    /// True for extra calls outside the blocking path.
    pub off_path: bool,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn duration(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// The span log of one traced run.
pub struct SpanLog {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for SpanLog {
    fn default() -> Self {
        SpanLog {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl SpanLog {
    /// Opens a blocking-path span and returns its index.
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, id: u64) -> usize {
        self.push(name, parent, id, false)
    }

    /// Opens a span for an extra call outside the blocking path.
    pub fn open_off_path(&mut self, name: &'static str, parent: Option<usize>, id: u64) -> usize {
        self.push(name, parent, id, true)
    }

    fn push(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        id: u64,
        off_path: bool,
    ) -> usize {
        let now = self.now();
        self.spans.push(Span {
            name,
            start: now,
            end: now,
            parent,
            id,
            off_path,
        });
        self.spans.len() - 1
    }

    /// Closes span `index` now.
    pub fn close(&mut self, index: usize) {
        self.spans[index].end = self.now();
    }

    /// Runs `f` inside a blocking-path span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        id: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let span = self.open(name, parent, id);
        let out = f();
        self.close(span);
        out
    }

    /// Runs `f` inside an off-path span.
    pub fn time_off_path<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        id: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let span = self.open_off_path(name, parent, id);
        let out = f();
        self.close(span);
        out
    }

    fn now(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).expect("run shorter than 584 years")
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The whole log as a JSON array, one object per span.
    pub fn to_value(&self) -> Value {
        Value::Array(
            self.spans
                .iter()
                .map(|s| {
                    Value::Object(vec![
                        ("name".to_owned(), Value::Str(s.name.to_owned())),
                        ("start_ns".to_owned(), Value::UInt(s.start)),
                        ("end_ns".to_owned(), Value::UInt(s.end)),
                        (
                            "parent".to_owned(),
                            s.parent.map_or(Value::Null, |p| Value::UInt(p as u64)),
                        ),
                        ("id".to_owned(), Value::UInt(s.id)),
                        ("off_path".to_owned(), Value::Bool(s.off_path)),
                    ])
                })
                .collect(),
        )
    }
}

/// Each span's self time: its duration minus the part of its interval
/// that its child spans cover (overlapping children count once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            let p = &spans[parent];
            let (start, end) = (span.start.max(p.start), span.end.min(p.end));
            if start < end {
                children[parent].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(span, mut covered)| {
            covered.sort_unstable();
            let mut union = 0;
            let mut reach = span.start;
            for (start, end) in covered {
                let start = start.max(reach);
                if end > start {
                    union += end - start;
                    reach = end;
                }
            }
            span.duration() - union
        })
        .collect()
}

fn under_off_path(spans: &[Span], span: &Span) -> bool {
    let mut parent = span.parent;
    while let Some(p) = parent {
        if spans[p].off_path {
            return true;
        }
        parent = spans[p].parent;
    }
    false
}

/// Per-layer accounting of a traced run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Accounting {
    /// Self time per name of the spans that are not off-path, in ns.
    pub self_ns: BTreeMap<&'static str, u64>,
    /// Total duration per off-path span name, in ns.
    pub off_path_ns: BTreeMap<&'static str, u64>,
    /// Root spans' duration minus the outermost off-path spans inside
    /// them, in ns: the traced wall time of the blocking path.
    pub blocking_ns: u64,
}

impl Accounting {
    /// Accounts a span log. Spans nested under an off-path span keep
    /// their layer self time but are not part of the blocking wall.
    pub fn of(spans: &[Span]) -> Self {
        let selfs = self_times(spans);
        let mut acc = Accounting::default();
        let (mut roots, mut off_path) = (0, 0);
        for (span, self_ns) in spans.iter().zip(selfs) {
            if span.off_path {
                *acc.off_path_ns.entry(span.name).or_default() += span.duration();
                if !under_off_path(spans, span) {
                    off_path += span.duration();
                }
            } else {
                *acc.self_ns.entry(span.name).or_default() += self_ns;
                if span.parent.is_none() {
                    roots += span.duration();
                }
            }
        }
        acc.blocking_ns = roots - off_path;
        acc
    }

    /// Self time of a blocking-path layer, in ms.
    pub fn self_ms(&self, name: &str) -> f64 {
        self.self_ns.get(name).copied().unwrap_or(0) as f64 / 1e6
    }

    /// Duration of an off-path call, in ms.
    pub fn off_path_ms(&self, name: &str) -> f64 {
        self.off_path_ns.get(name).copied().unwrap_or(0) as f64 / 1e6
    }

    /// Share of the blocking wall, in percent, that the named spans' self
    /// time covers.
    pub fn share_pct(&self, names: &[&str]) -> f64 {
        let covered: u64 = names.iter().filter_map(|n| self.self_ns.get(n)).sum();
        100.0 * crate::measure::ratio(covered as f64, self.blocking_ns as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            id: 0,
            off_path: false,
        }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)),
            // Overlaps `a`: the covered union is [10, 50), not 30 + 20.
            span("b", 30, 50, Some(0)),
            span("leaf", 12, 20, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![60, 22, 20, 8]);
    }

    #[test]
    fn children_are_clipped_to_their_parent() {
        let spans = vec![span("root", 10, 20, None), span("late", 15, 40, Some(0))];
        assert_eq!(self_times(&spans), vec![5, 25]);
    }

    #[test]
    fn blocking_self_times_partition_the_blocking_wall() {
        let mut spans = vec![
            span("sweep", 0, 1000, None),
            span("run", 0, 900, Some(0)),
            span("benchmarks.run_guarded", 0, 500, Some(1)),
            span("uarch.analyze", 500, 700, Some(1)),
            span("uarch.replay", 700, 850, Some(1)),
            span("report.encode", 900, 980, Some(0)),
        ];
        spans[4].off_path = true;
        let acc = Accounting::of(&spans);
        assert_eq!(acc.blocking_ns, 850);
        assert_eq!(acc.self_ns.values().sum::<u64>(), acc.blocking_ns);
        assert_eq!(acc.self_ns["run"], 50);
        assert_eq!(acc.self_ns["sweep"], 20);
        assert_eq!(acc.off_path_ms("uarch.replay"), 150e-6);
        let share = acc.share_pct(&["benchmarks.run_guarded", "uarch.analyze", "report.encode"]);
        assert!((share - 780.0 * 100.0 / 850.0).abs() < 1e-9);
    }

    #[test]
    fn spans_under_an_off_path_call_leave_the_blocking_wall_once() {
        let mut spans = vec![
            span("round", 0, 1000, None),
            span("request", 0, 300, Some(0)),
            span("serve.execute", 300, 900, Some(0)),
            span("uarch.analyze", 300, 500, Some(2)),
            span("uarch.replay", 500, 800, Some(2)),
        ];
        spans[2].off_path = true;
        spans[4].off_path = true;
        let acc = Accounting::of(&spans);
        assert_eq!(acc.blocking_ns, 400);
        assert_eq!(acc.self_ns["uarch.analyze"], 200);
        assert_eq!(acc.self_ns["round"] + acc.self_ns["request"], 400);
        assert_eq!(acc.off_path_ns["uarch.replay"], 300);
    }

    #[test]
    fn log_records_nesting_and_order() {
        let mut log = SpanLog::default();
        let root = log.open("root", None, 0);
        let inner = log.time("inner", Some(root), 3, || 7);
        log.close(root);
        assert_eq!(inner, 7);
        let spans = log.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].id, 3);
        assert!(spans[0].start <= spans[1].start && spans[1].end <= spans[0].end);
    }
}
