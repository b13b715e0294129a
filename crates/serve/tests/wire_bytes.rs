//! Pins the exact bytes every cross-process JSON codec emits.
//!
//! The worker pipe, the service wire, the cache entry and the cache key
//! are all consumed by something other than the code that wrote them: a
//! worker built from the same source, a client, a cache directory
//! written by an earlier daemon, or the host placement that hashes the
//! keys. A refactor of the codecs must therefore keep every byte. Each
//! message variant below is encoded and compared with the line recorded
//! in `fixtures/wire_bytes.txt`; the cache entry with
//! `fixtures/cache_document.json`. Each pinned line must also decode
//! and re-encode to itself.

use alberta_core::json;
use alberta_core::protocol::{
    RemoteStatus, SupervisorMsg, TaskMsg, TaskResult, WorkerConfig, WorkerMode, WorkerMsg,
    PROTOCOL_VERSION,
};
use alberta_core::{
    FaultKind, FaultPlan, LogLevel, LogRecord, MemoryProfile, MpkiPoint, PathRow, PathTable,
    PhaseSampling, PredictorKind, SampleConfig, SamplingPolicy, SamplingStats, Scale, TopDownModel,
    TopDownReport, WorkloadRun,
};
use alberta_profile::ProfilerFault;
use alberta_report::{CacheDocument, HostRecord};
use alberta_serve::{
    ClientMsg, EngineStats, GroupInfo, RequestSpec, ResponseCounts, ServerMsg, ShardStats,
    WIRE_VERSION,
};
use alberta_stats::variation::TopDownRatios;

const PINNED: &str = include_str!("fixtures/wire_bytes.txt");
const PINNED_CACHE_DOCUMENT: &str = include_str!("fixtures/cache_document.json");

/// A run whose floats exercise the shortest round-trip formatting
/// (integral, tiny, huge, and inexact values) and whose integers sit
/// above 2^53.
fn sample_run() -> WorkloadRun {
    WorkloadRun {
        workload: "alberta.3".to_owned(),
        report: TopDownReport {
            ratios: TopDownRatios {
                front_end: 0.1 + 0.2,
                back_end: 0.5,
                bad_speculation: 1e-7,
                retiring: 0.199_999_9,
            },
            cycles: 12345.678,
            retired_ops: u64::MAX - 7,
            ipc: 2.0,
            mispredict_rate: 0.01,
            mispredicts_per_kops: 10.5,
            l1d_miss_ratio: 0.02,
            l2_miss_ratio: 0.3,
            l3_miss_ratio: 0.125,
            dtlb_miss_ratio: 0.001,
            icache_miss_ratio: 0.0,
            predictor: "tournament",
            memory: MemoryProfile {
                l1_mpki: 6.25,
                l2_mpki: 1.875,
                l3_mpki: 0.25,
                row_hit_rate: 0.75,
                dram_bytes: 2.5e20,
                footprint_lines: 321,
                footprint_pages: 17,
                mpki_curve: vec![
                    MpkiPoint {
                        size_bytes: 16 * 1024,
                        mpki: 7.5,
                    },
                    MpkiPoint {
                        size_bytes: 32 * 1024,
                        mpki: 6.0,
                    },
                ],
            },
        },
        coverage: [
            ("kernel".to_owned(), 62.5),
            ("main \"quoted\"\n".to_owned(), 37.5),
        ]
        .into_iter()
        .collect(),
        paths: PathTable::from_rows(vec![
            PathRow {
                path: "main".to_owned(),
                calls: 1,
                exclusive: 3,
                inclusive: 100,
            },
            PathRow {
                path: "main;kernel".to_owned(),
                calls: 42,
                exclusive: 97,
                inclusive: 97,
            },
        ]),
        work: 4096,
        checksum: 0xDEAD_BEEF_CAFE_F00D,
        sampling: Some(SamplingStats {
            interval_work: 1024,
            intervals: 9,
            clusters: 3,
            detailed_ops: 3072,
            total_ops: 9216,
        }),
    }
}

fn sample_config() -> WorkerConfig {
    let reference = TopDownModel::reference();
    WorkerConfig {
        mode: WorkerMode::Resilient,
        scale: Scale::Train,
        sampling: SampleConfig {
            work_budget: Some(1 << 40),
            fault: Some(ProfilerFault::CorruptEvents { at: 17 }),
            ..SampleConfig::default()
        },
        policy: SamplingPolicy::Phase(PhaseSampling {
            interval_work: 131_072,
            k: 16,
            seed: 7,
        }),
        machine: *reference.config(),
        predictor: PredictorKind::Bimodal { bits: 12 },
        faults: FaultPlan::new(9)
            .inject("mcf", "train", FaultKind::MalformedWorkload)
            .inject("gcc", "refrate", FaultKind::PanicAtEvent(5))
            .inject("x264", "alberta.0", FaultKind::ExhaustBudget { budget: 64 })
            .inject("leela", "train", FaultKind::CorruptEvents { at: 20 })
            .inject(
                "xz",
                "refrate",
                FaultKind::WorkerCrash {
                    attempts: 1,
                    clean: true,
                },
            )
            .inject("lbm", "alberta.1", FaultKind::WorkerHang { attempts: 2 })
            .inject("nab", "train", FaultKind::ResultCorrupt { attempts: 3 }),
        deadline_work: None,
        beat_ms: 40,
    }
}

/// Every supervisor, worker, client and server message variant, by
/// fixture name.
fn messages() -> Vec<(&'static str, String)> {
    let task = TaskMsg {
        id: 19,
        benchmark: "deepsjeng".to_owned(),
        workload: "alberta.7".to_owned(),
        attempt: 2,
        request: Some("storm-m1#4".to_owned()),
    };
    let result = TaskResult {
        id: 3,
        status: RemoteStatus::Degraded {
            error: "benchmark mcf panicked while running \"train\": boom".to_owned(),
            retryable: true,
            retried_at: Scale::Test,
        },
        run: Some(sample_run()),
        retries: 1,
        budget_consumed: 9216,
        logs: vec![
            LogRecord {
                level: LogLevel::Warn,
                target: "run",
                message: "mcf/train: retrying\nwith a newline".to_owned(),
            },
            LogRecord {
                level: LogLevel::Debug,
                target: "worker",
                message: "tab\there".to_owned(),
            },
        ],
        request: Some("e2e#11".to_owned()),
    };
    let failed = TaskResult {
        id: 4,
        status: RemoteStatus::Failed {
            error: "lost".to_owned(),
            retryable: false,
        },
        run: None,
        retries: 0,
        budget_consumed: 0,
        logs: Vec::new(),
        request: None,
    };
    let ok = TaskResult {
        id: 5,
        status: RemoteStatus::Ok,
        run: Some(WorkloadRun {
            sampling: None,
            ..sample_run()
        }),
        retries: 0,
        budget_consumed: 77,
        logs: Vec::new(),
        request: None,
    };
    let mut custom = RequestSpec::new("505.mcf_r", None, Scale::Ref);
    custom.policy = SamplingPolicy::Phase(PhaseSampling {
        interval_work: 4096,
        k: 3,
        seed: 11,
    });
    custom.predictor = PredictorKind::StaticTaken;
    custom.machine.issue_width = 3.5;
    let body = json::parse(
        r#"{"workload":"train","status":"ok","retries":0,"budget_consumed":12,"measures":{"cycles":1.5}}"#,
    )
    .expect("literal body parses");
    let metrics = json::parse(
        r#"{"schema_version":2,"deterministic":{"counters":{"a":1},"gauges":{},"histograms":{}},"volatile":{"counters":{},"gauges":{},"histograms":{}}}"#,
    )
    .expect("literal metrics parse");
    let spans = json::parse(
        r#"[{"seq":0,"request":"c#1","stage":"received","attrs":{"benchmark":"mcf"}},{"seq":1,"request":"c#1","stage":"completed","attrs":{}}]"#,
    )
    .expect("literal spans parse");
    vec![
        (
            "supervisor.config",
            SupervisorMsg::Config(Box::new(sample_config())).encode(),
        ),
        (
            "supervisor.config.reference",
            SupervisorMsg::Config(Box::new(WorkerConfig {
                mode: WorkerMode::Strict,
                scale: Scale::Test,
                sampling: SampleConfig::default(),
                policy: SamplingPolicy::Full,
                machine: *TopDownModel::reference().config(),
                predictor: TopDownModel::reference().predictor(),
                faults: FaultPlan::new(0),
                deadline_work: Some(1 << 30),
                beat_ms: 500,
            }))
            .encode(),
        ),
        (
            "supervisor.task",
            SupervisorMsg::Task(task.clone()).encode(),
        ),
        (
            "supervisor.task.unlabeled",
            SupervisorMsg::Task(TaskMsg {
                request: None,
                ..task
            })
            .encode(),
        ),
        ("supervisor.shutdown", SupervisorMsg::Shutdown.encode()),
        (
            "worker.hello",
            WorkerMsg::Hello {
                protocol: PROTOCOL_VERSION,
            }
            .encode(),
        ),
        ("worker.beat", WorkerMsg::Beat { id: 77 }.encode()),
        (
            "worker.result",
            WorkerMsg::Result(Box::new(result)).encode(),
        ),
        (
            "worker.result.failed",
            WorkerMsg::Result(Box::new(failed)).encode(),
        ),
        ("worker.result.ok", WorkerMsg::Result(Box::new(ok)).encode()),
        (
            "client.hello",
            ClientMsg::Hello {
                protocol: WIRE_VERSION,
                client: Some("storm-m2".to_owned()),
                group: Some(GroupInfo {
                    id: "storm-1".to_owned(),
                    size: 4,
                    member: 2,
                }),
            }
            .encode(),
        ),
        (
            "client.hello.anonymous",
            ClientMsg::Hello {
                protocol: WIRE_VERSION,
                client: None,
                group: None,
            }
            .encode(),
        ),
        (
            "client.request",
            ClientMsg::Request {
                id: 7,
                spec: Box::new(RequestSpec::new("mcf", Some("alberta.1"), Scale::Test)),
            }
            .encode(),
        ),
        (
            "client.request.custom",
            ClientMsg::Request {
                id: 8,
                spec: Box::new(custom),
            }
            .encode(),
        ),
        ("client.drain", ClientMsg::Drain.encode()),
        ("client.stats", ClientMsg::Stats.encode()),
        ("client.metrics", ClientMsg::Metrics.encode()),
        ("client.spans", ClientMsg::Spans.encode()),
        ("client.shutdown", ClientMsg::Shutdown.encode()),
        (
            "server.hello",
            ServerMsg::Hello {
                protocol: WIRE_VERSION,
            }
            .encode(),
        ),
        (
            "server.response",
            ServerMsg::Response {
                id: 9,
                counts: ResponseCounts {
                    computed: 1,
                    cached: 2,
                    coalesced: 3,
                    failed: 4,
                },
                body,
            }
            .encode(),
        ),
        (
            "server.error",
            ServerMsg::Error {
                id: 3,
                message: "unknown benchmark \"nope\"".to_owned(),
            }
            .encode(),
        ),
        (
            "server.drained",
            ServerMsg::Drained { responses: 12 }.encode(),
        ),
        (
            "server.stats",
            ServerMsg::Stats(EngineStats {
                requests: 96,
                computed_keys: 40,
                cache_hits: 50,
                coalesced: 6,
                failed_keys: 0,
                steals: 5,
                redispatches: 1,
                evictions: 2,
                hosts: vec![
                    HostRecord {
                        host: 0,
                        tasks: 22,
                        stolen: 2,
                    },
                    HostRecord {
                        host: 1,
                        tasks: 18,
                        stolen: 3,
                    },
                ],
                shards: vec![ShardStats {
                    shard: "0a".to_owned(),
                    entries: 3,
                    bytes: 4096,
                    evictions: 1,
                }],
            })
            .encode(),
        ),
        (
            "server.metrics",
            ServerMsg::Metrics { document: metrics }.encode(),
        ),
        ("server.spans", ServerMsg::Spans { spans }.encode()),
        ("server.bye", ServerMsg::Bye.encode()),
    ]
}

fn pinned(name: &str) -> &'static str {
    PINNED
        .lines()
        .find_map(|line| {
            let (key, bytes) = line.split_once(' ')?;
            (key == name).then_some(bytes)
        })
        .unwrap_or_else(|| panic!("no pinned bytes for {name}"))
}

#[test]
fn every_message_variant_encodes_to_its_pinned_bytes() {
    let messages = messages();
    assert_eq!(
        messages.len(),
        PINNED.lines().filter(|l| !l.starts_with("key.")).count(),
        "every pinned line has a message"
    );
    for (name, line) in &messages {
        assert_eq!(line, pinned(name), "{name} changed on the wire");
    }
}

#[test]
fn pinned_lines_decode_and_re_encode_to_themselves() {
    for line in PINNED.lines().filter(|l| !l.starts_with("key.")) {
        let (name, bytes) = line.split_once(' ').expect("name, space, bytes");
        let again = if name.starts_with("supervisor.") {
            SupervisorMsg::decode(bytes).expect("decodes").encode()
        } else if name.starts_with("worker.") {
            WorkerMsg::decode(bytes).expect("decodes").encode()
        } else if name.starts_with("client.") {
            ClientMsg::decode(bytes).expect("decodes").encode()
        } else {
            ServerMsg::decode(bytes).expect("decodes").encode()
        };
        assert_eq!(again, bytes, "{name} does not round-trip");
    }
}

#[test]
fn cache_document_encodes_to_its_pinned_bytes() {
    let doc = CacheDocument {
        key: RequestSpec::new("mcf", None, Scale::Test).run_key("alberta.3"),
        status: RemoteStatus::Degraded {
            error: "retried".to_owned(),
            retryable: true,
            retried_at: Scale::Test,
        },
        run: Some(sample_run()),
        retries: 1,
        budget_consumed: 9216,
    };
    assert_eq!(doc.to_json(), PINNED_CACHE_DOCUMENT);
    let parsed = CacheDocument::parse(PINNED_CACHE_DOCUMENT).expect("pinned entry verifies");
    assert_eq!(parsed.to_json(), PINNED_CACHE_DOCUMENT);
}

#[test]
fn cache_keys_are_pinned() {
    // These keys name cache files on disk and decide host placement in
    // the committed storm golden.
    let spec = RequestSpec::new("mcf", None, Scale::Test);
    assert_eq!(spec.run_key("train"), pinned("key.mcf.test.train"));
    assert_eq!(spec.run_key("alberta.1"), pinned("key.mcf.test.alberta.1"));
    assert_eq!(spec.config_fingerprint(), pinned("key.config.test"));
}
