//! The line-delimited canonical-JSON pipe protocol between the process
//! supervisor and its worker subprocesses.
//!
//! Every message is one [`crate::json::Value`] rendered with
//! [`Value::render_compact`] — a single line, parsed back with the same
//! strict parser the report schema uses. The supervisor speaks first:
//! one [`SupervisorMsg::Config`] carrying the complete suite
//! configuration (scale, sampling, model, fault plan), then a stream of
//! [`SupervisorMsg::Task`] dispatches and a final
//! [`SupervisorMsg::Shutdown`]. The worker answers with
//! [`WorkerMsg::Hello`] (handshake), [`WorkerMsg::Beat`] (heartbeat,
//! carrying the in-flight task id as its progress payload), and
//! [`WorkerMsg::Result`] (the task's fate plus its measurements and
//! buffered log records).
//!
//! # Determinism
//!
//! The [`WorkloadRun`] codec is lossless for every field that enters a
//! report: `u64` quantities stay exact, and `f64` measurements use
//! Rust's shortest round-trip formatting, so a run decoded from the
//! pipe summarizes bit-identically to the same run computed in-process.
//! Statuses cross the pipe as rendered error text and are rehydrated as
//! [`BenchError::Remote`], whose `Display` echoes the text verbatim —
//! report artifacts built from remote statuses match the serial
//! rendering byte for byte.

use crate::characterize::{RunStatus, WorkloadRun};
use crate::faults::FaultPlan;
use crate::json::{self, req, unknown_tag, DecodeError, Fields, FromJson, ToJson, Value};
use crate::json_codec;
use crate::log::LogRecord;
use crate::sampling::SamplingPolicy;
use alberta_benchmarks::BenchError;
use alberta_profile::SampleConfig;
use alberta_uarch::{MachineConfig, PredictorKind};
use alberta_workloads::Scale;

/// Protocol revision. A worker whose `hello` declares a different
/// revision is killed — supervisor and worker are always the same
/// binary, so a mismatch means the pipe is not speaking to a worker at
/// all.
pub const PROTOCOL_VERSION: u64 = 1;

/// How the worker executes its tasks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkerMode {
    /// `run_workload_with` only — any failure is final (the strict
    /// pipeline's per-run unit).
    Strict,
    /// The resilient unit: guarded run, in-worker retry at reduced
    /// scale for retryable errors, fault-plan application.
    Resilient,
}

/// The complete suite configuration a worker needs to rebuild its runs,
/// sent once per worker as the first message.
#[derive(Debug, Clone)]
pub struct WorkerConfig {
    /// Execution mode for every task of this worker.
    pub mode: WorkerMode,
    /// Scale the suite was built at.
    pub scale: Scale,
    /// Event-sampling configuration (including any injected profiler
    /// fault and work budget).
    pub sampling: SampleConfig,
    /// Full-measurement vs phase-sampled estimation.
    pub policy: SamplingPolicy,
    /// Machine model parameters.
    pub machine: MachineConfig,
    /// Branch-predictor kind.
    pub predictor: PredictorKind,
    /// The fault plan, including process-level kinds the worker injects
    /// on itself.
    pub faults: FaultPlan,
    /// Per-task deadline in retired ops — the deterministic work-budget
    /// clock. The worker clamps its effective
    /// [`SampleConfig::work_budget`] to this for every task.
    pub deadline_work: Option<u64>,
    /// Heartbeat interval in milliseconds — how often the worker sends
    /// [`WorkerMsg::Beat`] while a task is in flight.
    pub beat_ms: u64,
}

/// One task dispatch: run `workload` of `benchmark`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskMsg {
    /// Task id — the task's index in the sweep's canonical run order.
    pub id: u64,
    /// Benchmark short name.
    pub benchmark: String,
    /// Workload name.
    pub workload: String,
    /// 1-based dispatch attempt, so in-worker fault injection can be
    /// bounded per attempt (`attempts: 1` faults fire only on the first
    /// dispatch).
    pub attempt: u32,
    /// The originating request label, when the task was dispatched on
    /// behalf of a characterization-service request. The worker echoes
    /// it verbatim in [`TaskResult`], which is how span logs prove the
    /// label survived the process boundary.
    pub request: Option<String>,
}

/// Supervisor → worker messages.
#[derive(Debug, Clone)]
pub enum SupervisorMsg {
    /// The one-time configuration message.
    Config(Box<WorkerConfig>),
    /// A task dispatch.
    Task(TaskMsg),
    /// Orderly shutdown; the worker exits 0.
    Shutdown,
}

/// A task's fate as the worker reports it, before the supervisor
/// rehydrates errors into [`BenchError::Remote`] (the worker-side
/// `&'static str` benchmark names cannot cross the pipe).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RemoteStatus {
    /// Clean run.
    Ok,
    /// Failed, salvaged by the in-worker retry.
    Degraded {
        /// Rendered original error.
        error: String,
        /// The original error's retryability verdict.
        retryable: bool,
        /// Scale the successful retry ran at.
        retried_at: Scale,
    },
    /// Lost for good.
    Failed {
        /// Rendered error.
        error: String,
        /// The error's retryability verdict.
        retryable: bool,
    },
}

impl RemoteStatus {
    /// Projects a worker-side [`RunStatus`] to its wire form.
    pub fn from_status(status: &RunStatus) -> Self {
        match status {
            RunStatus::Ok => RemoteStatus::Ok,
            RunStatus::Degraded { error, retried_at } => RemoteStatus::Degraded {
                error: error.to_string(),
                retryable: error.is_retryable(),
                retried_at: *retried_at,
            },
            RunStatus::Failed { error } => RemoteStatus::Failed {
                error: error.to_string(),
                retryable: error.is_retryable(),
            },
        }
    }

    /// Rehydrates the supervisor-side [`RunStatus`], attaching the
    /// benchmark name the supervisor still holds as `&'static str`.
    pub fn into_status(self, benchmark: &'static str) -> RunStatus {
        match self {
            RemoteStatus::Ok => RunStatus::Ok,
            RemoteStatus::Degraded {
                error,
                retryable,
                retried_at,
            } => RunStatus::Degraded {
                error: BenchError::Remote {
                    benchmark,
                    retryable,
                    message: error,
                },
                retried_at,
            },
            RemoteStatus::Failed { error, retryable } => RunStatus::Failed {
                error: BenchError::Remote {
                    benchmark,
                    retryable,
                    message: error,
                },
            },
        }
    }
}

/// One finished task: its fate, measurements, deterministic accounting,
/// and the log records buffered during the run (flushed by the
/// supervisor in canonical task order, like the thread scheduler does).
#[derive(Debug, Clone)]
pub struct TaskResult {
    /// The task id this result answers.
    pub id: u64,
    /// The run's fate.
    pub status: RemoteStatus,
    /// Measurements, for survivors.
    pub run: Option<WorkloadRun>,
    /// In-worker retry attempts (the deterministic accounting field of
    /// [`crate::RunMetrics`]).
    pub retries: u32,
    /// Retired ops consumed.
    pub budget_consumed: u64,
    /// Log records captured during the run, in emission order.
    pub logs: Vec<LogRecord>,
    /// The request label from [`TaskMsg`], echoed verbatim.
    pub request: Option<String>,
}

/// Worker → supervisor messages.
#[derive(Debug, Clone)]
pub enum WorkerMsg {
    /// Handshake: the worker is alive and speaks `protocol`.
    Hello {
        /// The worker's [`PROTOCOL_VERSION`].
        protocol: u64,
    },
    /// Heartbeat: task `id` is still making progress.
    Beat {
        /// The in-flight task id.
        id: u64,
    },
    /// A finished task.
    Result(Box<TaskResult>),
}

// ---------------------------------------------------------------------
// Codec
// ---------------------------------------------------------------------

impl ToJson for WorkerMode {
    fn to_value(&self) -> Value {
        match self {
            WorkerMode::Strict => "strict",
            WorkerMode::Resilient => "resilient",
        }
        .to_value()
    }
}

impl FromJson for WorkerMode {
    fn from_value(value: &Value) -> Result<Self, DecodeError> {
        match String::from_value(value)?.as_str() {
            "strict" => Ok(WorkerMode::Strict),
            "resilient" => Ok(WorkerMode::Resilient),
            other => Err(DecodeError::new(format!("unknown worker mode {other:?}"))),
        }
    }
}

json_codec!(WorkerConfig {
    mode,
    scale,
    sampling,
    policy,
    machine,
    predictor,
    faults,
    deadline_work,
    beat_ms
});

json_codec!(TaskMsg {
    id,
    benchmark,
    workload,
    attempt,
    #[omit_none]
    request
});

json_codec!(TaskResult {
    id,
    status,
    run,
    retries,
    budget_consumed,
    logs,
    #[omit_none]
    request
});

impl ToJson for RemoteStatus {
    fn to_value(&self) -> Value {
        match self {
            RemoteStatus::Ok => Fields::new().put("kind", "ok"),
            RemoteStatus::Degraded {
                error,
                retryable,
                retried_at,
            } => Fields::new()
                .put("kind", "degraded")
                .put("error", error)
                .put("retryable", retryable)
                .put("retried_at", retried_at),
            RemoteStatus::Failed { error, retryable } => Fields::new()
                .put("kind", "failed")
                .put("error", error)
                .put("retryable", retryable),
        }
        .build()
    }
}

impl FromJson for RemoteStatus {
    fn from_value(value: &Value) -> Result<Self, DecodeError> {
        match req::<String>(value, "kind")?.as_str() {
            "ok" => Ok(RemoteStatus::Ok),
            "degraded" => Ok(RemoteStatus::Degraded {
                error: req(value, "error")?,
                retryable: req(value, "retryable")?,
                retried_at: req(value, "retried_at")?,
            }),
            "failed" => Ok(RemoteStatus::Failed {
                error: req(value, "error")?,
                retryable: req(value, "retryable")?,
            }),
            other => Err(unknown_tag("kind", other)),
        }
    }
}

impl ToJson for SupervisorMsg {
    fn to_value(&self) -> Value {
        match self {
            SupervisorMsg::Config(config) => Fields::new()
                .put("type", "config")
                .put("protocol", &PROTOCOL_VERSION)
                .put_all(config.as_ref()),
            SupervisorMsg::Task(task) => Fields::new().put("type", "task").put_all(task),
            SupervisorMsg::Shutdown => Fields::new().put("type", "shutdown"),
        }
        .build()
    }
}

impl FromJson for SupervisorMsg {
    fn from_value(value: &Value) -> Result<Self, DecodeError> {
        match req::<String>(value, "type")?.as_str() {
            "config" => {
                let protocol: u64 = req(value, "protocol")?;
                if protocol != PROTOCOL_VERSION {
                    return Err(DecodeError::new(format!(
                        "protocol mismatch: worker speaks {PROTOCOL_VERSION}, \
                         supervisor sent {protocol}"
                    )));
                }
                Ok(SupervisorMsg::Config(Box::new(WorkerConfig::from_value(
                    value,
                )?)))
            }
            "task" => Ok(SupervisorMsg::Task(TaskMsg::from_value(value)?)),
            "shutdown" => Ok(SupervisorMsg::Shutdown),
            other => Err(unknown_tag("type", other)),
        }
    }
}

impl ToJson for WorkerMsg {
    fn to_value(&self) -> Value {
        match self {
            WorkerMsg::Hello { protocol } => {
                Fields::new().put("type", "hello").put("protocol", protocol)
            }
            WorkerMsg::Beat { id } => Fields::new().put("type", "beat").put("id", id),
            WorkerMsg::Result(result) => {
                Fields::new().put("type", "result").put_all(result.as_ref())
            }
        }
        .build()
    }
}

impl FromJson for WorkerMsg {
    fn from_value(value: &Value) -> Result<Self, DecodeError> {
        match req::<String>(value, "type")?.as_str() {
            "hello" => Ok(WorkerMsg::Hello {
                protocol: req(value, "protocol")?,
            }),
            "beat" => Ok(WorkerMsg::Beat {
                id: req(value, "id")?,
            }),
            "result" => Ok(WorkerMsg::Result(Box::new(TaskResult::from_value(value)?))),
            other => Err(unknown_tag("type", other)),
        }
    }
}

impl SupervisorMsg {
    /// Renders the message as one protocol line (no trailing newline).
    pub fn encode(&self) -> String {
        self.to_value().render_compact()
    }

    /// Parses one protocol line.
    ///
    /// # Errors
    ///
    /// The first structural problem, with its path.
    pub fn decode(line: &str) -> Result<SupervisorMsg, DecodeError> {
        json::decode(line)
    }
}

impl WorkerMsg {
    /// Renders the message as one protocol line (no trailing newline).
    pub fn encode(&self) -> String {
        self.to_value().render_compact()
    }

    /// Parses one protocol line.
    ///
    /// # Errors
    ///
    /// The first structural problem, with its path.
    pub fn decode(line: &str) -> Result<WorkerMsg, DecodeError> {
        json::decode(line)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::FaultKind;
    use crate::log::{intern_target, LogLevel};
    use crate::sampling::SamplingStats;
    use alberta_profile::{PathRow, PathTable, ProfilerFault};
    use alberta_stats::variation::TopDownRatios;
    use alberta_uarch::{MemoryProfile, MpkiPoint, TopDownModel, TopDownReport};

    fn sample_run() -> WorkloadRun {
        WorkloadRun {
            workload: "alberta.3".to_owned(),
            report: TopDownReport {
                ratios: TopDownRatios {
                    front_end: 0.125,
                    back_end: 0.5,
                    bad_speculation: 0.0625,
                    retiring: 0.3125,
                },
                cycles: 12345.678,
                retired_ops: u64::MAX - 7,
                ipc: 2.5,
                mispredict_rate: 0.01,
                mispredicts_per_kops: 10.5,
                l1d_miss_ratio: 0.02,
                l2_miss_ratio: 0.3,
                l3_miss_ratio: 0.125,
                dtlb_miss_ratio: 0.001,
                icache_miss_ratio: 0.0,
                predictor: "gshare",
                memory: MemoryProfile {
                    l1_mpki: 6.25,
                    l2_mpki: 1.875,
                    l3_mpki: 0.25,
                    row_hit_rate: 0.75,
                    dram_bytes: 4096.0,
                    footprint_lines: 321,
                    footprint_pages: 17,
                    mpki_curve: vec![
                        MpkiPoint {
                            size_bytes: 16 * 1024,
                            mpki: 7.5,
                        },
                        MpkiPoint {
                            size_bytes: 32 * 1024,
                            mpki: 6.25,
                        },
                    ],
                },
            },
            coverage: [("kernel".to_owned(), 62.5), ("main".to_owned(), 37.5)]
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

    #[test]
    fn config_round_trips() {
        let reference = TopDownModel::reference();
        let config = WorkerConfig {
            mode: WorkerMode::Resilient,
            scale: Scale::Train,
            sampling: SampleConfig {
                work_budget: Some(1 << 40),
                fault: Some(ProfilerFault::PanicAtEvent(17)),
                ..SampleConfig::default()
            },
            policy: SamplingPolicy::phase(),
            machine: *reference.config(),
            predictor: reference.predictor(),
            faults: FaultPlan::new(9)
                .inject("mcf", "train", FaultKind::MalformedWorkload)
                .inject(
                    "xz",
                    "refrate",
                    FaultKind::WorkerCrash {
                        attempts: 1,
                        clean: true,
                    },
                )
                .inject("lbm", "alberta.1", FaultKind::WorkerHang { attempts: 2 })
                .inject("gcc", "train", FaultKind::ResultCorrupt { attempts: 3 }),
            deadline_work: Some(1 << 30),
            beat_ms: 40,
        };
        let line = SupervisorMsg::Config(Box::new(config.clone())).encode();
        assert!(!line.contains('\n'));
        let SupervisorMsg::Config(decoded) = SupervisorMsg::decode(&line).unwrap() else {
            panic!("expected a config message");
        };
        assert_eq!(decoded.mode, config.mode);
        assert_eq!(decoded.scale, config.scale);
        assert_eq!(decoded.sampling, config.sampling);
        assert_eq!(decoded.policy, config.policy);
        assert_eq!(decoded.machine, config.machine);
        assert_eq!(decoded.predictor, config.predictor);
        assert_eq!(decoded.faults, config.faults);
        assert_eq!(decoded.deadline_work, config.deadline_work);
        assert_eq!(decoded.beat_ms, config.beat_ms);
    }

    #[test]
    fn task_and_shutdown_round_trip() {
        let task = TaskMsg {
            id: 19,
            benchmark: "deepsjeng".to_owned(),
            workload: "alberta.7".to_owned(),
            attempt: 2,
            request: Some("storm-m1#4".to_owned()),
        };
        let line = SupervisorMsg::Task(task.clone()).encode();
        let SupervisorMsg::Task(decoded) = SupervisorMsg::decode(&line).unwrap() else {
            panic!("expected a task message");
        };
        assert_eq!(decoded, task);
        // Unlabeled tasks (plain sweeps) omit the field entirely.
        let bare = TaskMsg {
            request: None,
            ..task
        };
        let line = SupervisorMsg::Task(bare.clone()).encode();
        assert!(!line.contains("request"));
        let SupervisorMsg::Task(decoded) = SupervisorMsg::decode(&line).unwrap() else {
            panic!("expected a task message");
        };
        assert_eq!(decoded, bare);
        assert!(matches!(
            SupervisorMsg::decode(&SupervisorMsg::Shutdown.encode()).unwrap(),
            SupervisorMsg::Shutdown
        ));
    }

    #[test]
    fn result_round_trips_with_exact_measurements() {
        let run = sample_run();
        let result = TaskResult {
            id: 3,
            status: RemoteStatus::Degraded {
                error: "benchmark mcf panicked while running \"train\": boom".to_owned(),
                retryable: true,
                retried_at: Scale::Test,
            },
            run: Some(run.clone()),
            retries: 1,
            budget_consumed: 9216,
            logs: vec![LogRecord {
                level: LogLevel::Warn,
                target: "run",
                message: "mcf/train: retrying\nwith a newline".to_owned(),
            }],
            request: Some("e2e#11".to_owned()),
        };
        let line = WorkerMsg::Result(Box::new(result.clone())).encode();
        assert!(!line.contains('\n'), "framing must stay line-delimited");
        let WorkerMsg::Result(decoded) = WorkerMsg::decode(&line).unwrap() else {
            panic!("expected a result message");
        };
        assert_eq!(decoded.id, result.id);
        assert_eq!(decoded.status, result.status);
        assert_eq!(decoded.retries, result.retries);
        assert_eq!(decoded.budget_consumed, result.budget_consumed);
        assert_eq!(decoded.logs, result.logs);
        assert_eq!(decoded.request, result.request);
        let decoded_run = decoded.run.expect("run survived");
        assert_eq!(decoded_run.workload, run.workload);
        assert_eq!(decoded_run.checksum, run.checksum);
        assert_eq!(decoded_run.work, run.work);
        assert_eq!(decoded_run.report.retired_ops, run.report.retired_ops);
        assert_eq!(
            decoded_run.report.cycles.to_bits(),
            run.report.cycles.to_bits()
        );
        assert_eq!(
            decoded_run.report.ratios.front_end.to_bits(),
            run.report.ratios.front_end.to_bits()
        );
        assert_eq!(decoded_run.report.predictor, run.report.predictor);
        assert_eq!(decoded_run.coverage, run.coverage);
        assert_eq!(decoded_run.paths.rows(), run.paths.rows());
        assert_eq!(decoded_run.sampling, run.sampling);
    }

    #[test]
    fn statuses_rehydrate_as_remote_errors_with_verbatim_text() {
        let original = RunStatus::Failed {
            error: BenchError::Panicked {
                benchmark: "mcf",
                workload: "train".to_owned(),
                message: "boom".to_owned(),
            },
        };
        let wire = RemoteStatus::from_status(&original);
        let rehydrated = wire.into_status("mcf");
        let (RunStatus::Failed { error: a }, RunStatus::Failed { error: b }) =
            (&original, &rehydrated)
        else {
            panic!("statuses must stay Failed");
        };
        assert_eq!(a.to_string(), b.to_string(), "rendered text is preserved");
        assert_eq!(a.is_retryable(), b.is_retryable());
        assert_eq!(b.benchmark(), "mcf");
    }

    #[test]
    fn hello_and_beat_round_trip() {
        let line = WorkerMsg::Hello {
            protocol: PROTOCOL_VERSION,
        }
        .encode();
        assert!(matches!(
            WorkerMsg::decode(&line).unwrap(),
            WorkerMsg::Hello {
                protocol: PROTOCOL_VERSION
            }
        ));
        let line = WorkerMsg::Beat { id: 77 }.encode();
        assert!(matches!(
            WorkerMsg::decode(&line).unwrap(),
            WorkerMsg::Beat { id: 77 }
        ));
    }

    #[test]
    fn garbled_lines_are_rejected() {
        assert!(WorkerMsg::decode("").is_err());
        assert!(WorkerMsg::decode("{\"type\":\"result\",\"id\":3,\"status\":").is_err());
        assert!(WorkerMsg::decode("{\"type\":\"nonsense\"}").is_err());
        assert!(SupervisorMsg::decode("[1,2,3]").is_err());
    }

    #[test]
    fn log_targets_intern_to_static_names() {
        assert_eq!(intern_target("run"), "run");
        let novel = intern_target("custom-target");
        assert_eq!(novel, "custom-target");
        // The same novel target interns to the same leaked allocation.
        assert!(std::ptr::eq(
            novel.as_ptr(),
            intern_target("custom-target").as_ptr()
        ));
    }
}
