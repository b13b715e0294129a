//! Seeded properties over every cross-boundary JSON codec.
//!
//! * **Round trip.** For each codec type, a seeded random value encodes,
//!   decodes, and encodes again to the same bytes.
//! * **Hostile input.** Seeded truncations and byte mutations of valid
//!   encodings go to `json::parse`, the worker-pipe, wire and spec
//!   decoders, `CacheDocument::parse` and `SuiteReport::parse`. A
//!   truncation must be an error; nothing may panic; and a mutated
//!   cache entry must fail its integrity check unless the mutation left
//!   the parsed document unchanged.

use alberta_core::json::{self, FromJson, ToJson, Value};
use alberta_core::protocol::{
    RemoteStatus, SupervisorMsg, TaskMsg, TaskResult, WorkerConfig, WorkerMode, WorkerMsg,
};
use alberta_core::telemetry::SpanEvent;
use alberta_core::{
    FaultKind, FaultPlan, LogLevel, LogRecord, MachineConfig, MemoryProfile, MpkiPoint, PathRow,
    PathTable, PhaseSampling, PredictorKind, SampleConfig, SamplingPolicy, SamplingStats, Scale,
    TopDownReport, WorkloadRun,
};
use alberta_profile::ProfilerFault;
use alberta_report::{
    BenchmarkReport, CacheDocument, CategoryRecord, HostRecord, HotPathRecord, LatencyReport,
    MeasureRecord, MemoryDocument, MemoryRunRecord, MetricsDocument, RunRecord, SamplingRecord,
    StatusKind, StormReport, SuiteReport, SummaryRecord, MEM_SCHEMA_VERSION, SCHEMA_VERSION,
};
use alberta_serve::{
    ClientMsg, EngineStats, GroupInfo, RequestSpec, ResponseCounts, ServerMsg, ShardStats,
};
use alberta_stats::variation::TopDownRatios;
use proptest::prelude::*;
use std::collections::BTreeMap;

/// Random values for every codec type, from one seeded stream.
struct Gen(TestRng);

impl Gen {
    fn new(seed: u64) -> Self {
        Gen(TestRng::new(seed))
    }

    fn below(&mut self, n: u64) -> u64 {
        self.0.below(n)
    }

    fn coin(&mut self) -> bool {
        self.below(2) == 1
    }

    /// Small counts, values around 2^32, and values near `u64::MAX`.
    fn u64(&mut self) -> u64 {
        match self.below(3) {
            0 => self.below(100),
            1 => self.0.next_u64() >> 32,
            _ => u64::MAX - self.below(1 << 20),
        }
    }

    fn u32(&mut self) -> u32 {
        self.u64() as u32
    }

    /// Finite floats of every rendering shape: integral, tiny, huge,
    /// negative, and inexact.
    fn f64(&mut self) -> f64 {
        match self.below(5) {
            0 => self.below(1000) as f64,
            1 => self.0.unit() * 1e-9,
            2 => self.0.unit() * 1e300,
            3 => -self.0.unit() * 100.0,
            _ => self.0.unit(),
        }
    }

    fn string(&mut self) -> String {
        const PIECES: [&str; 8] = ["mcf", "alberta.7", " ", "\"", "\\", "\n\t", "é😀", "\u{1}"];
        (0..self.below(5))
            .map(|_| PIECES[self.below(PIECES.len() as u64) as usize])
            .collect()
    }

    fn option<T>(&mut self, make: impl FnOnce(&mut Self) -> T) -> Option<T> {
        self.coin().then(|| make(self))
    }

    fn vec<T>(&mut self, max: u64, mut make: impl FnMut(&mut Self) -> T) -> Vec<T> {
        (0..self.below(max + 1)).map(|_| make(self)).collect()
    }

    fn pick<T: Copy>(&mut self, items: &[T]) -> T {
        items[self.below(items.len() as u64) as usize]
    }

    fn scale(&mut self) -> Scale {
        self.pick(&[Scale::Test, Scale::Train, Scale::Ref])
    }

    fn predictor(&mut self) -> PredictorKind {
        let bits = self.u32();
        self.pick(&[
            PredictorKind::StaticTaken,
            PredictorKind::Bimodal { bits },
            PredictorKind::Gshare { bits },
            PredictorKind::Tournament { bits },
        ])
    }

    fn policy(&mut self) -> SamplingPolicy {
        if self.coin() {
            SamplingPolicy::Full
        } else {
            SamplingPolicy::Phase(PhaseSampling {
                interval_work: self.u64(),
                k: self.u64() as usize,
                seed: self.u64(),
            })
        }
    }

    fn machine(&mut self) -> MachineConfig {
        let base = MachineConfig::default();
        MachineConfig {
            issue_width: self.f64(),
            memory_latency: self.f64(),
            l3: alberta_uarch::CacheConfig {
                size_bytes: self.u64(),
                ..base.l3
            },
            dram: alberta_uarch::DramConfig {
                banks: self.u64(),
                ..base.dram
            },
            fetch_probe_bytes: self.u64(),
            ..base
        }
    }

    fn sample_config(&mut self) -> SampleConfig {
        SampleConfig {
            branch_interval: self.u32(),
            mem_interval: self.u32(),
            call_interval: self.u32(),
            trace_capacity: self.u64() as usize,
            work_budget: self.option(Gen::u64),
            interval_work: self.option(Gen::u64),
            fault: self.option(|g| {
                let at = g.u64();
                g.pick(&[
                    ProfilerFault::PanicAtEvent(at),
                    ProfilerFault::CorruptEvents { at },
                ])
            }),
        }
    }

    fn fault_plan(&mut self) -> FaultPlan {
        let mut plan = FaultPlan::new(self.u64());
        for _ in 0..self.below(4) {
            let (at, attempts, clean) = (self.u64(), self.u32(), self.coin());
            let kind = self.pick(&[
                FaultKind::MalformedWorkload,
                FaultKind::PanicAtEvent(at),
                FaultKind::ExhaustBudget { budget: at },
                FaultKind::CorruptEvents { at },
                FaultKind::WorkerCrash { attempts, clean },
                FaultKind::WorkerHang { attempts },
                FaultKind::ResultCorrupt { attempts },
            ]);
            plan = plan.inject(self.string(), self.string(), kind);
        }
        plan
    }

    fn worker_config(&mut self) -> WorkerConfig {
        WorkerConfig {
            mode: self.pick(&[WorkerMode::Strict, WorkerMode::Resilient]),
            scale: self.scale(),
            sampling: self.sample_config(),
            policy: self.policy(),
            machine: self.machine(),
            predictor: self.predictor(),
            faults: self.fault_plan(),
            deadline_work: self.option(Gen::u64),
            beat_ms: self.u64(),
        }
    }

    fn memory(&mut self) -> MemoryProfile {
        MemoryProfile {
            l1_mpki: self.f64(),
            l2_mpki: self.f64(),
            l3_mpki: self.f64(),
            row_hit_rate: self.f64(),
            dram_bytes: self.f64(),
            footprint_lines: self.u64(),
            footprint_pages: self.u64(),
            mpki_curve: self.vec(4, |g| MpkiPoint {
                size_bytes: g.u64(),
                mpki: g.f64(),
            }),
        }
    }

    fn coverage(&mut self) -> BTreeMap<String, f64> {
        self.vec(4, |g| (g.string(), g.f64())).into_iter().collect()
    }

    fn run(&mut self) -> WorkloadRun {
        // Distinct paths: the table keeps its rows sorted by path.
        let rows = self.vec(4, |g| PathRow {
            path: g.string(),
            calls: g.u64(),
            exclusive: g.u64(),
            inclusive: g.u64(),
        });
        let mut seen = std::collections::BTreeSet::new();
        let rows = rows
            .into_iter()
            .filter(|r| seen.insert(r.path.clone()))
            .collect();
        WorkloadRun {
            workload: self.string(),
            report: TopDownReport {
                ratios: TopDownRatios {
                    front_end: self.f64(),
                    back_end: self.f64(),
                    bad_speculation: self.f64(),
                    retiring: self.f64(),
                },
                cycles: self.f64(),
                retired_ops: self.u64(),
                ipc: self.f64(),
                mispredict_rate: self.f64(),
                mispredicts_per_kops: self.f64(),
                l1d_miss_ratio: self.f64(),
                l2_miss_ratio: self.f64(),
                l3_miss_ratio: self.f64(),
                dtlb_miss_ratio: self.f64(),
                icache_miss_ratio: self.f64(),
                predictor: self.pick(&["static-taken", "bimodal", "gshare", "tournament"]),
                memory: self.memory(),
            },
            coverage: self.coverage(),
            paths: PathTable::from_rows(rows),
            work: self.u64(),
            checksum: self.u64(),
            sampling: self.option(|g| SamplingStats {
                interval_work: g.u64(),
                intervals: g.u64() as usize,
                clusters: g.u64() as usize,
                detailed_ops: g.u64(),
                total_ops: g.u64(),
            }),
        }
    }

    fn remote_status(&mut self) -> RemoteStatus {
        match self.below(3) {
            0 => RemoteStatus::Ok,
            1 => RemoteStatus::Degraded {
                error: self.string(),
                retryable: self.coin(),
                retried_at: self.scale(),
            },
            _ => RemoteStatus::Failed {
                error: self.string(),
                retryable: self.coin(),
            },
        }
    }

    fn task_result(&mut self) -> TaskResult {
        TaskResult {
            id: self.u64(),
            status: self.remote_status(),
            run: self.option(Gen::run),
            retries: self.u32(),
            budget_consumed: self.u64(),
            logs: self.vec(3, |g| LogRecord {
                level: g.pick(&[LogLevel::Error, LogLevel::Warn, LogLevel::Info]),
                target: g.pick(&["run", "suite", "worker"]),
                message: g.string(),
            }),
            request: self.option(Gen::string),
        }
    }

    fn supervisor_msg(&mut self) -> SupervisorMsg {
        match self.below(3) {
            0 => SupervisorMsg::Config(Box::new(self.worker_config())),
            1 => SupervisorMsg::Task(TaskMsg {
                id: self.u64(),
                benchmark: self.string(),
                workload: self.string(),
                attempt: self.u32(),
                request: self.option(Gen::string),
            }),
            _ => SupervisorMsg::Shutdown,
        }
    }

    fn worker_msg(&mut self) -> WorkerMsg {
        match self.below(3) {
            0 => WorkerMsg::Hello {
                protocol: self.u64(),
            },
            1 => WorkerMsg::Beat { id: self.u64() },
            _ => WorkerMsg::Result(Box::new(self.task_result())),
        }
    }

    fn spec(&mut self) -> RequestSpec {
        let mut spec = RequestSpec::new(&self.string(), None, self.scale());
        spec.workload = self.option(Gen::string);
        spec.policy = self.policy();
        spec.machine = self.machine();
        spec.predictor = self.predictor();
        spec
    }

    fn client_msg(&mut self) -> ClientMsg {
        match self.below(7) {
            0 => ClientMsg::Hello {
                protocol: self.u64(),
                client: self.option(Gen::string),
                group: self.option(|g| GroupInfo {
                    id: g.string(),
                    size: g.u64(),
                    member: g.u64(),
                }),
            },
            1 => ClientMsg::Request {
                id: self.u64(),
                spec: Box::new(self.spec()),
            },
            2 => ClientMsg::Drain,
            3 => ClientMsg::Stats,
            4 => ClientMsg::Metrics,
            5 => ClientMsg::Spans,
            _ => ClientMsg::Shutdown,
        }
    }

    fn host(&mut self) -> HostRecord {
        HostRecord {
            host: self.u64(),
            tasks: self.u64(),
            stolen: self.u64(),
        }
    }

    fn engine_stats(&mut self) -> EngineStats {
        EngineStats {
            requests: self.u64(),
            computed_keys: self.u64(),
            cache_hits: self.u64(),
            coalesced: self.u64(),
            failed_keys: self.u64(),
            steals: self.u64(),
            redispatches: self.u64(),
            evictions: self.u64(),
            hosts: self.vec(3, Gen::host),
            shards: self.vec(3, |g| ShardStats {
                shard: g.string(),
                entries: g.u64(),
                bytes: g.u64(),
                evictions: g.u64(),
            }),
        }
    }

    /// An arbitrary document: bodies, metrics planes and span
    /// attributes are opaque values on the wire.
    fn value(&mut self, depth: u32) -> Value {
        match if depth == 0 {
            self.below(4)
        } else {
            self.below(6)
        } {
            0 => Value::Null,
            1 => Value::Bool(self.coin()),
            2 => Value::UInt(self.u64()),
            3 => Value::Str(self.string()),
            4 => Value::Array(self.vec(3, |g| g.value(depth - 1))),
            _ => {
                let mut keys = std::collections::BTreeSet::new();
                let fields = self.vec(3, |g| (g.string(), g.value(depth - 1)));
                Value::Object(
                    fields
                        .into_iter()
                        .filter(|(k, _)| keys.insert(k.clone()))
                        .collect(),
                )
            }
        }
    }

    fn object(&mut self) -> Value {
        Value::Object(vec![("k".to_owned(), self.value(2))])
    }

    fn server_msg(&mut self) -> ServerMsg {
        match self.below(8) {
            0 => ServerMsg::Hello {
                protocol: self.u64(),
            },
            1 => ServerMsg::Response {
                id: self.u64(),
                counts: ResponseCounts {
                    computed: self.u64(),
                    cached: self.u64(),
                    coalesced: self.u64(),
                    failed: self.u64(),
                },
                body: self.value(3),
            },
            2 => ServerMsg::Error {
                id: self.u64(),
                message: self.string(),
            },
            3 => ServerMsg::Drained {
                responses: self.u64(),
            },
            4 => ServerMsg::Stats(self.engine_stats()),
            5 => ServerMsg::Metrics {
                document: self.value(3),
            },
            6 => ServerMsg::Spans {
                spans: self.value(3),
            },
            _ => ServerMsg::Bye,
        }
    }

    fn cache_document(&mut self) -> CacheDocument {
        CacheDocument {
            key: self.string(),
            status: self.remote_status(),
            run: self.option(Gen::run),
            retries: self.u32(),
            budget_consumed: self.u64(),
        }
    }

    fn category(&mut self) -> CategoryRecord {
        CategoryRecord {
            geo_mean: self.f64(),
            geo_std: self.f64(),
            variation: self.f64(),
        }
    }

    fn run_record(&mut self) -> RunRecord {
        let status = self.pick(&[StatusKind::Ok, StatusKind::Degraded, StatusKind::Failed]);
        RunRecord {
            workload: self.string(),
            status,
            // Non-ok records carry an error; ok records carry measures.
            error: (status != StatusKind::Ok).then(|| self.string()),
            retried_at: self.option(Gen::scale),
            retries: self.u32(),
            budget_consumed: self.u64(),
            wall_nanos: self.option(Gen::u64),
            start_nanos: self.option(Gen::u64),
            worker: self.option(Gen::u64),
            dispatches: self.option(Gen::u32),
            measures: (status == StatusKind::Ok || self.coin()).then(|| MeasureRecord {
                ratios: [self.f64(), self.f64(), self.f64(), self.f64()],
                cycles: self.f64(),
                ipc: self.f64(),
                retired_ops: self.u64(),
                work: self.u64(),
                checksum: self.u64(),
                coverage: self.coverage(),
                memory: self.memory(),
            }),
            sampling: self.option(|g| SamplingRecord {
                interval_work: g.u64(),
                intervals: g.u64(),
                clusters: g.u64(),
                detailed_ops: g.u64(),
                total_ops: g.u64(),
                estimate_error: g.option(Gen::f64),
            }),
        }
    }

    fn benchmark_report(&mut self) -> BenchmarkReport {
        BenchmarkReport {
            spec_id: self.string(),
            short_name: self.string(),
            runs: self.vec(3, Gen::run_record),
            summary: self.option(|g| SummaryRecord {
                workloads: g.u64(),
                front_end: g.category(),
                back_end: g.category(),
                bad_speculation: g.category(),
                retiring: g.category(),
                mu_g_v: g.f64(),
                mu_g_m: g.f64(),
                refrate_cycles: g.option(Gen::f64),
            }),
            hot_paths: self.option(|g| {
                g.vec(3, |g| HotPathRecord {
                    path: g.string(),
                    exclusive: g.u64(),
                    calls: g.u64(),
                })
            }),
        }
    }

    fn suite_report(&mut self) -> SuiteReport {
        SuiteReport::from_parts(self.scale(), self.vec(2, Gen::benchmark_report))
    }
}

/// Encode → decode → encode must reproduce the first encoding.
fn assert_round_trip<T: ToJson + FromJson>(value: &T) {
    let first = value.to_value().render_compact();
    let decoded = json::decode::<T>(&first).unwrap_or_else(|e| panic!("{e}: {first}"));
    assert_eq!(decoded.to_value().render_compact(), first);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn pipe_messages_round_trip(seed in any::<u64>()) {
        let mut g = Gen::new(seed);
        let supervisor = g.supervisor_msg();
        let line = supervisor.encode();
        prop_assert_eq!(SupervisorMsg::decode(&line).unwrap().encode(), line);
        let worker = g.worker_msg();
        let line = worker.encode();
        prop_assert_eq!(WorkerMsg::decode(&line).unwrap().encode(), line);
    }

    #[test]
    fn pipe_parts_round_trip(seed in any::<u64>()) {
        let mut g = Gen::new(seed);
        assert_round_trip(&g.worker_config());
        assert_round_trip(&g.task_result());
        assert_round_trip(&g.run());
        assert_round_trip(&g.remote_status());
        assert_round_trip(&g.fault_plan());
        assert_round_trip(&g.sample_config());
        assert_round_trip(&g.policy());
        assert_round_trip(&g.predictor());
        assert_round_trip(&g.machine());
        assert_round_trip(&g.memory());
    }

    #[test]
    fn wire_messages_round_trip(seed in any::<u64>()) {
        let mut g = Gen::new(seed);
        let client = g.client_msg();
        let line = client.encode();
        prop_assert_eq!(ClientMsg::decode(&line).unwrap(), client);
        let server = g.server_msg();
        let line = server.encode();
        prop_assert_eq!(ServerMsg::decode(&line).unwrap(), server);
        assert_round_trip(&g.engine_stats());
    }

    #[test]
    fn request_specs_round_trip(seed in any::<u64>()) {
        let spec = Gen::new(seed).spec();
        let line = spec.to_value().render_compact();
        prop_assert_eq!(json::decode::<RequestSpec>(&line).unwrap(), spec);
    }

    #[test]
    fn span_events_round_trip(seed in any::<u64>()) {
        let mut g = Gen::new(seed);
        let event = SpanEvent {
            seq: g.u64(),
            request: g.string(),
            stage: g.string(),
            attrs: g.object(),
        };
        prop_assert_eq!(SpanEvent::from_value(&event.to_value()).unwrap(), event);
    }

    #[test]
    fn cache_documents_round_trip(seed in any::<u64>()) {
        let doc = Gen::new(seed).cache_document();
        let text = doc.to_json();
        prop_assert_eq!(CacheDocument::parse(&text).unwrap().to_json(), text);
    }

    #[test]
    fn suite_reports_round_trip(seed in any::<u64>()) {
        let report = Gen::new(seed).suite_report();
        let text = report.to_json();
        prop_assert_eq!(SuiteReport::parse(&text).unwrap(), report);
    }

    #[test]
    fn memory_documents_round_trip(seed in any::<u64>()) {
        let mut g = Gen::new(seed);
        let doc = MemoryDocument {
            schema_version: MEM_SCHEMA_VERSION,
            scale: g.scale(),
            rows: g.vec(3, |g| MemoryRunRecord {
                benchmark: g.string(),
                workload: g.string(),
                memory: g.memory(),
            }),
        };
        let text = doc.to_json();
        prop_assert_eq!(MemoryDocument::parse(&text).unwrap(), doc);
    }

    #[test]
    fn service_reports_round_trip(seed in any::<u64>()) {
        let mut g = Gen::new(seed);
        let storm = StormReport {
            schema_version: SCHEMA_VERSION,
            requests: g.u64(),
            unique_keys: g.u64(),
            hits: g.u64(),
            computed: g.u64(),
            steals: g.u64(),
            redispatches: g.u64(),
            hosts: g.vec(3, Gen::host),
        };
        prop_assert_eq!(StormReport::parse(&storm.to_json()).unwrap(), storm);
        let latency = LatencyReport {
            samples: g.u64(),
            p50_nanos: g.u64(),
            p90_nanos: g.u64(),
            p99_nanos: g.u64(),
            max_nanos: g.u64(),
        };
        prop_assert_eq!(LatencyReport::parse(&latency.to_json()).unwrap(), latency);
        let metrics = MetricsDocument::new(g.object(), g.object());
        prop_assert_eq!(MetricsDocument::parse(&metrics.to_json()).unwrap(), metrics);
    }
}

/// A decoder under test: its name, and whether it accepts an input.
type Decoder = (&'static str, fn(&str) -> bool);

/// Every decoder under test.
fn decoders() -> Vec<Decoder> {
    vec![
        ("json", |t| json::parse(t).is_ok()),
        ("supervisor", |t| SupervisorMsg::decode(t).is_ok()),
        ("worker", |t| WorkerMsg::decode(t).is_ok()),
        ("client", |t| ClientMsg::decode(t).is_ok()),
        ("server", |t| ServerMsg::decode(t).is_ok()),
        ("spec", |t| json::decode::<RequestSpec>(t).is_ok()),
        ("cache", |t| CacheDocument::parse(t).is_ok()),
        ("suite", |t| SuiteReport::parse(t).is_ok()),
    ]
}

/// One valid encoding of each decoder's input.
fn valid_encodings(g: &mut Gen) -> Vec<String> {
    vec![
        g.supervisor_msg().encode(),
        g.worker_msg().encode(),
        WorkerMsg::Result(Box::new(g.task_result())).encode(),
        g.client_msg().encode(),
        g.server_msg().encode(),
        g.spec().to_value().render_compact(),
        g.cache_document().to_json(),
        g.suite_report().to_json(),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn truncated_encodings_are_errors(seed in any::<u64>()) {
        let mut g = Gen::new(seed);
        for text in valid_encodings(&mut g) {
            let body = text.trim_end();
            for _ in 0..8 {
                let mut cut = g.below(body.len() as u64) as usize;
                while !body.is_char_boundary(cut) {
                    cut -= 1;
                }
                for (name, decodes) in decoders() {
                    prop_assert!(!decodes(&body[..cut]), "{name} accepted a truncation");
                }
            }
        }
    }

    #[test]
    fn mutated_encodings_never_panic(seed in any::<u64>()) {
        let mut g = Gen::new(seed);
        for text in valid_encodings(&mut g) {
            for _ in 0..8 {
                let mut bytes = text.clone().into_bytes();
                for _ in 0..=g.below(3) {
                    let at = g.below(bytes.len() as u64) as usize;
                    bytes[at] ^= 1 + g.below(255) as u8;
                }
                let mutated = String::from_utf8_lossy(&bytes);
                for (_, decodes) in decoders() {
                    decodes(&mutated);
                }
            }
        }
    }

    #[test]
    fn mutated_cache_entries_fail_verification(seed in any::<u64>()) {
        let mut g = Gen::new(seed);
        let text = g.cache_document().to_json();
        let original = json::parse(&text).expect("valid entry");
        for _ in 0..16 {
            let mut bytes = text.clone().into_bytes();
            let at = g.below(bytes.len() as u64) as usize;
            bytes[at] ^= 1 + g.below(255) as u8;
            let mutated = String::from_utf8_lossy(&bytes);
            let unchanged = json::parse(&mutated).is_ok_and(|v| v == original);
            prop_assert!(
                CacheDocument::parse(&mutated).is_err() || unchanged,
                "a mutation at byte {at} passed verification"
            );
        }
    }
}
