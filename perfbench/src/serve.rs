//! `serve-mixed`: one client in a closed loop against an in-process
//! daemon, over a seeded stream of workload-level Test-scale requests
//! of which a third name a key not yet cached.

use crate::measure::{self, Meter, SplitMix, Tally};
use crate::pace::{self, Pace};
use crate::spans::{Accounting, SpanLog};
use crate::sweep::{pipeline_metrics, trace_metrics, traced_run, LayerCounts};
use crate::{Metrics, Outcome};
use alberta_core::json::Value;
use alberta_core::{ExecPolicy, Scale, Suite, TopDownModel};
use alberta_serve::{
    request_label, BatchRequest, Client, Daemon, Engine, EngineStats, RequestSpec, ResultCache,
    ServeConfig,
};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Benchmarks whose Test runs take seconds; a miss on one would swamp
/// the stream, and `suite-test` measures them already.
const EXCLUDED: [&str; 2] = ["deepsjeng", "leela"];

/// Workloads, by position in each benchmark's list, whose keys a round
/// computes: `train` and the first `alberta.*` input. A fixed key set
/// keeps the computed work the same for every seed.
const MISS_WORKLOADS: [usize; 2] = [0, 2];

/// Hits per miss: two thirds of the requests repeat a served key.
const HITS_PER_MISS: usize = 2;

/// Hit latencies a run collects at least, so that ten lie beyond p90.
const MIN_HIT_SAMPLES: usize = 100;

/// One request of the stream.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Request {
    benchmark: String,
    workload: String,
    /// True when the key has not been served before in the round.
    miss: bool,
}

impl Request {
    fn spec(&self) -> RequestSpec {
        RequestSpec::new(&self.benchmark, Some(&self.workload), Scale::Test)
    }
}

/// The seeded request stream: every miss key once, in seeded order,
/// with [`HITS_PER_MISS`] hits per miss on seeded earlier keys. Every
/// round replays the same stream against a fresh cache, so its counts
/// repeat exactly.
fn stream(suite: &Suite, seed: u64) -> Vec<Request> {
    let keys: Vec<(&str, String)> = suite
        .benchmarks()
        .iter()
        .filter(|b| !EXCLUDED.contains(&b.short_name()))
        .flat_map(|b| {
            let workloads = b.workload_names();
            MISS_WORKLOADS.map(|i| (b.short_name(), workloads[i].clone()))
        })
        .collect();
    let mut rng = SplitMix::new(seed);
    let fresh = rng.permutation(keys.len());
    // The first request is a miss; the rest of the miss/hit pattern is
    // a seeded shuffle.
    let mut pattern = vec![true; keys.len() - 1];
    pattern.resize(keys.len() * (1 + HITS_PER_MISS) - 1, false);
    let pattern: Vec<bool> = std::iter::once(true)
        .chain(
            rng.permutation(pattern.len())
                .into_iter()
                .map(|i| pattern[i]),
        )
        .collect();
    let mut served = 0;
    pattern
        .into_iter()
        .map(|miss| {
            let key = if miss {
                served += 1;
                fresh[served - 1]
            } else {
                fresh[rng.below(served)]
            };
            Request {
                benchmark: keys[key].0.to_owned(),
                workload: keys[key].1.clone(),
                miss,
            }
        })
        .collect()
}

fn serve_config() -> ServeConfig {
    ServeConfig {
        hosts: 1,
        host_exec: ExecPolicy::Serial,
        ..ServeConfig::default()
    }
}

/// What one request came back with.
#[derive(Debug, Clone, PartialEq)]
struct Answer {
    /// Compact canonical body, or the error.
    body: Result<String, String>,
    /// Whether the cache answered (`Some(true)`), the key was computed
    /// (`Some(false)`), or neither (`None`).
    hit: Option<bool>,
}

impl Answer {
    fn new(counts: alberta_serve::ResponseCounts, result: Result<Value, String>) -> Self {
        let hit = match (counts.cached, counts.computed) {
            (1, 0) => Some(true),
            (0, 1) => Some(false),
            _ => None,
        };
        Answer {
            body: result.map(|body| body.render_compact()),
            hit,
        }
    }
}

/// A daemon on an ephemeral loopback port with one connected client.
struct Service {
    client: Client,
    addr: String,
    daemon: std::thread::JoinHandle<()>,
    cache_dir: PathBuf,
}

impl Service {
    fn start(cache_dir: PathBuf) -> Result<Service, String> {
        std::fs::create_dir_all(&cache_dir).map_err(|e| format!("{}: {e}", cache_dir.display()))?;
        let engine = Engine::new(serve_config(), ResultCache::new(&cache_dir));
        let daemon = Daemon::bind("127.0.0.1:0", engine).map_err(|e| format!("bind: {e}"))?;
        let addr = daemon
            .local_addr()
            .map_err(|e| format!("local addr: {e}"))?
            .to_string();
        let daemon = std::thread::spawn(move || daemon.run());
        match Client::connect_named(&addr, Some("perfbench"), None) {
            Ok(client) => Ok(Service {
                client,
                addr,
                daemon,
                cache_dir,
            }),
            Err(e) => {
                // Shut the daemon down over a second connection before
                // reporting, so no thread outlives the run.
                if let Ok(stopper) = Client::connect(&addr, None) {
                    if stopper.shutdown().is_ok() {
                        let _ = daemon.join();
                    }
                }
                Err(format!("connect: {e}"))
            }
        }
    }

    fn ask(&mut self, request: &Request) -> Result<Answer, String> {
        self.client.request(&request.spec())?;
        let mut responses = self.client.drain()?;
        match (responses.pop(), responses.is_empty()) {
            (Some(r), true) => Ok(Answer::new(r.counts, r.result)),
            _ => Err("drain did not return exactly one response".to_owned()),
        }
    }

    /// Engine counters, then shutdown; waits for the daemon thread.
    fn stop(mut self) -> Result<EngineStats, String> {
        let stats = self.client.stats();
        let stopped = match self.client.shutdown() {
            Ok(()) => Ok(()),
            Err(_) => Client::connect(&self.addr, None).and_then(Client::shutdown),
        };
        stopped?;
        self.daemon
            .join()
            .map_err(|_| "daemon thread panicked".to_owned())?;
        std::fs::remove_dir_all(&self.cache_dir)
            .map_err(|e| format!("{}: {e}", self.cache_dir.display()))?;
        stats
    }
}

/// Set-ups timed after each untraced round, besides the round's own.
/// The closed loop itself runs without pauses: a pause would let the
/// connection go idle and change the timing of the requests after it.
const SETUPS_AFTER_ROUND: usize = 5;

/// One untraced round: fresh service, the whole stream, shutdown.
struct Round {
    /// Middle mean of the round's set-ups, scaled by the host pace
    /// sampled around them.
    setup_s: f64,
    /// That pace, in seconds.
    pace: f64,
    wall_s: f64,
    cpu_s: f64,
    hit_ms: Vec<f64>,
    answers: Vec<Option<Answer>>,
    stats: EngineStats,
}

/// Generates the request stream and starts a service over a fresh
/// cache: the set-up `setup_s` times.
fn set_up(seed: u64, cache_dir: PathBuf) -> Result<(Vec<Request>, Service, f64), String> {
    let t0 = Instant::now();
    let requests = stream(&Suite::new(Scale::Test), seed);
    let service = Service::start(cache_dir)?;
    Ok((requests, service, t0.elapsed().as_secs_f64()))
}

/// Round `index`: its own set-up, the whole stream in a closed loop,
/// shutdown, then [`SETUPS_AFTER_ROUND`] more set-ups of services that
/// are stopped untimed. The host pace is sampled before every set-up
/// and after the last.
///
/// Only the set-ups are scaled by the pace. The request loop is not:
/// most of its wall time is the loopback's timer wait, which does not
/// follow the host's speed.
fn untraced_round(
    seed: u64,
    work_dir: &Path,
    index: usize,
    pace: &mut Pace,
) -> Result<Round, String> {
    pace.sample();
    let (requests, mut service, first) = set_up(seed, work_dir.join(format!("serve-{index}")))?;
    let mut meter = Meter::default();
    let mut hit_ms = Vec::new();
    let mut answers = Vec::with_capacity(requests.len());
    meter.time(|| {
        for request in &requests {
            let sent = Instant::now();
            let answer = service.ask(request).ok();
            if !request.miss {
                hit_ms.push(measure::ms(sent.elapsed()));
            }
            answers.push(answer);
        }
    })?;
    let stats = service.stop()?;
    let mut setups = vec![first];
    for i in 0..SETUPS_AFTER_ROUND {
        pace.sample();
        let (_, standalone, setup_s) = set_up(seed, work_dir.join(format!("setup-{index}-{i}")))?;
        standalone.stop()?;
        setups.push(setup_s);
    }
    pace.sample();
    let round_pace = pace.take().expect("the pace was sampled");
    Ok(Round {
        setup_s: pace::scaled(
            measure::middle_mean(&setups).expect("set-ups ran"),
            round_pace,
        ),
        pace: round_pace,
        wall_s: meter.wall.as_secs_f64(),
        cpu_s: meter.cpu.as_secs_f64(),
        hit_ms,
        answers,
        stats,
    })
}

/// A twin engine over its own fresh cache, fed the same stream in
/// process: its answers are the reference every served body is
/// compared with.
struct Twin {
    engine: Engine,
    dir: PathBuf,
}

impl Twin {
    fn new(dir: PathBuf) -> Result<Twin, String> {
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(Twin {
            engine: Engine::new(serve_config(), ResultCache::new(&dir)),
            dir,
        })
    }

    fn resolve(&self, id: u64, request: &Request) -> Answer {
        let batch = [BatchRequest {
            token: (0, id),
            request: request_label("twin", id),
            spec: request.spec(),
        }];
        let resolved = self
            .engine
            .resolve_batch(&batch)
            .pop()
            .expect("one answer per request");
        Answer::new(resolved.counts, resolved.result)
    }

    fn remove(self) -> Result<(), String> {
        std::fs::remove_dir_all(&self.dir).map_err(|e| format!("{}: {e}", self.dir.display()))
    }
}

/// Retired micro-ops of the run a workload-level response body records.
fn retired_ops(body: &str) -> u64 {
    alberta_core::json::parse(body)
        .ok()
        .and_then(|run| run.get("measures")?.get("retired_ops")?.as_u64())
        .unwrap_or(0)
}

/// Runs `serve-mixed`: rounds for `seconds` (and until enough hit
/// samples), then with `trace` one traced round, then the check of every
/// served body against the twin engine's.
pub fn run(seed: u64, seconds: f64, trace: bool, work_dir: &Path) -> Result<Outcome, String> {
    let mut rounds: Vec<Round> = Vec::new();
    let mut pace = Pace::default();
    let started = Instant::now();
    let mut last = None;
    while crate::another_unit(started, seconds, last)
        || rounds.iter().map(|r| r.hit_ms.len()).sum::<usize>() < MIN_HIT_SAMPLES
    {
        let unit = Instant::now();
        rounds.push(untraced_round(seed, work_dir, rounds.len(), &mut pace)?);
        last = Some(unit.elapsed());
    }
    let walls: Vec<f64> = rounds.iter().map(|r| r.wall_s).collect();

    let requests = stream(&Suite::new(Scale::Test), seed);
    let twin = Twin::new(work_dir.join("twin"))?;
    let mut metrics = Metrics::new();
    metrics.insert("process.peak_rss_mb", measure::peak_rss_mb()?);
    let wall_s = measure::median(&walls).expect("one round");
    let (reference, traced_answers) = if trace {
        let (reference, answers) = traced_round(&requests, &twin, work_dir, wall_s, &mut metrics)?;
        (reference, Some(answers))
    } else {
        let reference = requests
            .iter()
            .enumerate()
            .map(|(id, r)| twin.resolve(id as u64, r))
            .collect();
        (reference, None)
    };
    twin.remove()?;

    // Every served answer must be the in-process one, of the kind the
    // stream predicts (hit or computed), and every round's counters
    // must repeat the first round's.
    let mut tally = Tally::default();
    let answer_sets = rounds
        .iter()
        .map(|r| r.answers.as_slice())
        .chain(traced_answers.as_deref());
    for answers in answer_sets {
        for ((answer, expected), request) in answers.iter().zip(&reference).zip(&requests) {
            let ok = answer
                .as_ref()
                .is_some_and(|a| a == expected && a.body.is_ok() && a.hit == Some(!request.miss));
            tally.record(ok);
        }
    }
    let first = &rounds[0].stats;
    for round in &rounds[1..] {
        if round.stats != *first {
            tally.failed += 1;
        }
    }

    let computed_ops: u64 = reference
        .iter()
        .zip(&requests)
        .filter(|(_, r)| r.miss)
        .filter_map(|(a, _)| a.body.as_ref().ok())
        .map(|body| retired_ops(body))
        .sum();
    let rates: Vec<f64> = rounds
        .iter()
        .map(|r| computed_ops as f64 / 1e6 / r.wall_s)
        .collect();
    let setups: Vec<f64> = rounds.iter().map(|r| r.setup_s).collect();
    metrics.insert("setup_s", measure::median(&setups).expect("one round"));
    metrics.insert("wall_s", wall_s);
    let paces: Vec<f64> = rounds.iter().map(|r| r.pace).collect();
    metrics.insert(
        "host.pace_ms",
        measure::median(&paces).expect("one round") * 1e3,
    );
    let cpus: Vec<f64> = rounds.iter().map(|r| r.cpu_s).collect();
    metrics.insert("process.cpu_s", measure::median(&cpus).expect("one round"));
    metrics.insert(
        "process.sim_mops_per_s",
        measure::median(&rates).expect("one round"),
    );
    if trace {
        let hits: Vec<f64> = rounds
            .iter()
            .flat_map(|r| r.hit_ms.iter().copied())
            .collect();
        let hit_p50 = measure::percentile(&hits, 50.0).expect("enough hit samples");
        metrics.insert("serve.hit_ms_p50", hit_p50);
        metrics.insert(
            "serve.hit_ms_p90",
            measure::percentile(&hits, 90.0).expect("enough hit samples"),
        );
        metrics.insert("serve.hit_samples", hits.len() as f64);
        let engine_hit = metrics.get("serve.engine_hit_ms_p50");
        metrics.insert("serve.wire_hit_ms_p50", hit_p50 - engine_hit);
        let lookups = first.cache_hits + first.computed_keys + first.coalesced + first.failed_keys;
        metrics.insert(
            "serve.hit_ratio",
            measure::ratio(first.cache_hits as f64, lookups as f64),
        );
        metrics.insert("serve.key_lookups", lookups as f64);
        metrics.insert("serve.computed_keys", first.computed_keys as f64);
        metrics.insert(
            "serve.cache_bytes",
            first.shards.iter().map(|s| s.bytes).sum::<u64>() as f64,
        );
        let body_bytes: usize = reference
            .iter()
            .filter_map(|a| a.body.as_ref().ok())
            .map(String::len)
            .sum();
        metrics.insert("report.bytes", body_bytes as f64);
    }
    metrics.insert("ok_frac", 1.0 - tally.failed_frac());
    Ok(Outcome { tally, metrics })
}

/// The traced round: the client's calls on the blocking path; a twin
/// engine call per request, a cache lookup per hit and a traced
/// pipeline run per miss off it. Returns the twin's reference answers
/// and the served ones.
fn traced_round(
    requests: &[Request],
    twin: &Twin,
    work_dir: &Path,
    untraced_wall_s: f64,
    metrics: &mut Metrics,
) -> Result<(Vec<Answer>, Vec<Option<Answer>>), String> {
    let suite = Suite::new(Scale::Test);
    let model = TopDownModel::reference();
    let mut service = Service::start(work_dir.join("serve-traced"))?;
    let mut log = SpanLog::default();
    let mut counts = LayerCounts::default();
    let mut reference = Vec::with_capacity(requests.len());
    let mut answers = Vec::with_capacity(requests.len());
    let root = log.open("round", None, 0);
    for (id, request) in requests.iter().enumerate() {
        let id = id as u64;
        let r = Some(root);
        answers.push(log.time("request", r, id, || service.ask(request).ok()));
        reference.push(log.time_off_path("serve.engine", r, id, || twin.resolve(id, request)));
        if request.miss {
            let bench = suite
                .benchmark(&request.benchmark)
                .ok_or_else(|| format!("unknown benchmark {}", request.benchmark))?;
            let span = log.open_off_path("serve.execute", r, id);
            traced_run(
                bench,
                &request.workload,
                &model,
                &mut log,
                span,
                id,
                &mut counts,
            )
            .map_err(|e| e.to_string())?;
            log.close(span);
        } else {
            let key = request.spec().run_key(&request.workload);
            let found = log.time_off_path("serve.cache_lookup", r, id, || {
                twin.engine.cache().lookup(&key)
            });
            if found.is_none() {
                return Err(format!("twin cache lost served key {key}"));
            }
        }
    }
    log.close(root);
    service.stop()?;

    let acc = Accounting::of(log.spans());
    // Per-hit durations of an off-path call, in ms.
    let hit_ms = |name: &str| -> Vec<f64> {
        log.spans()
            .iter()
            .filter(|s| s.name == name && !requests[s.id as usize].miss)
            .map(|s| s.duration() as f64 / 1e6)
            .collect()
    };
    pipeline_metrics(metrics, &acc, &counts);
    metrics.insert("serve.engine_ms", acc.off_path_ms("serve.engine"));
    let engine_hit =
        measure::percentile(&hit_ms("serve.engine"), 50.0).expect("the stream has enough hits");
    metrics.insert("serve.engine_hit_ms_p50", engine_hit);
    let lookup = measure::percentile(&hit_ms("serve.cache_lookup"), 50.0)
        .expect("the stream has enough hits");
    metrics.insert("serve.cache_lookup_ms_p50", lookup);
    trace_metrics(metrics, &acc, untraced_wall_s, &["round"]);
    crate::write_spans("serve-mixed", &log)?;
    Ok((reference, answers))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_is_seeded_over_a_fixed_key_set() {
        let suite = Suite::new(Scale::Test);
        let a = stream(&suite, 1);
        let b = stream(&suite, 2);
        assert_eq!(a, stream(&suite, 1));
        assert_ne!(a, b);
        assert!(a[0].miss, "the first request cannot hit");
        let misses = |s: &[Request]| {
            let mut keys: Vec<_> = s
                .iter()
                .filter(|r| r.miss)
                .map(|r| (r.benchmark.clone(), r.workload.clone()))
                .collect();
            keys.sort();
            keys
        };
        assert_eq!(misses(&a), misses(&b), "seeds share the computed keys");
        assert_eq!(misses(&a).len(), 26);
        assert_eq!(a.len(), 26 * (1 + HITS_PER_MISS));
        assert!(a.iter().all(|r| !EXCLUDED.contains(&r.benchmark.as_str())));
        // A hit repeats a key served earlier in the stream; a miss never does.
        for (i, r) in a.iter().enumerate() {
            let seen = a[..i]
                .iter()
                .any(|p| p.benchmark == r.benchmark && p.workload == r.workload);
            assert_eq!(seen, !r.miss, "request {i}");
        }
    }
}
