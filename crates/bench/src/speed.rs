//! Self-hosted replay speed gate: scalar vs batched detailed-measurement
//! engine on one synthetic profile.
//!
//! The detailed-measurement rewrite (batched struct-of-arrays replay in
//! `alberta-uarch`) is justified purely by throughput, so the repo
//! tracks its own speed the same way it tracks its own modelled cycles:
//! `timing --speed-only --speed-out SPEED_test.json` measures
//! replayed-events-per-second for both engines on a deterministic
//! synthetic trace and emits a small canonical JSON document committed
//! next to `BENCH_test.json`. CI regenerates and *tracks* the figure
//! (uploads it as an artifact) without gating on it — wall-clock is
//! machine-dependent — while the correctness half of the contract is a
//! hard assertion here: both engines must produce identical
//! [`ReplayCounts`] before any timing is reported.

use alberta_core::json::Fields;
use alberta_profile::{Profile, Profiler, SampleConfig};
use alberta_uarch::{MachineConfig, PredictorKind, ReplayCounts, ReplayState, TopDownModel};
use std::time::Instant;

/// Schema version of the `SPEED_*.json` document.
pub const SPEED_SCHEMA_VERSION: u64 = 1;

/// Deterministic splitmix64 — the repo's standard seeded-stream helper,
/// re-rolled locally to keep the bench crate's lib dependency-light.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Builds a deterministic synthetic profile whose trace mirrors what the
/// mini-benchmarks actually produce: mostly-biased branches over a
/// modest site working set, memory accesses dominated by an L1-resident
/// hot set with streaming and cold tails, and occasional calls — with
/// the *interleaving* of kinds data-dependent, which is exactly the
/// pattern that defeats the host branch predictor in the scalar
/// engine's per-event `match`. `target_events` approximates the
/// retained trace length; the config retains every event (no dilution,
/// no decimation), so the trace is the full event stream.
pub fn synthetic_profile(target_events: usize) -> Profile {
    let config = SampleConfig {
        trace_capacity: (2 * target_events).next_power_of_two(),
        ..SampleConfig::default()
    };
    let mut prof = Profiler::new(config);
    let fns: Vec<_> = (0..32)
        .map(|i| prof.register_function(&format!("fn{i:02}"), 64 + 96 * i as u32))
        .collect();
    let mut rng = 0x5eed_u64;
    prof.enter(fns[0]);
    // Each loop iteration emits ~3.8 trace events on average, with the
    // exact kind sequence decided by the random stream.
    let iterations = target_events / 4;
    for i in 0..iterations {
        let r = splitmix(&mut rng);
        // A loop-exit-style branch (heavily taken) over many sites.
        prof.branch((r % 509) as u32, !r.is_multiple_of(16));
        // Hot data: sequential fields of a record in a 4 KiB structure
        // (L1-resident, consecutive accesses share a line). The region
        // sits away from the streaming buffer so the combined working
        // set stays within L1 associativity, as a tuned kernel's would.
        let record = (0x10_0000 + (r % (1 << 12))) & !63;
        prof.load(record);
        prof.load(record + 8);
        prof.load(record + 24);
        if r & 3 != 0 {
            // A patterned data-dependent branch plus a streaming access
            // over a 16 KiB circular buffer.
            prof.branch((i % 131) as u32, i % 3 != 0);
            prof.load((i as u64 * 64) % (1 << 14));
        }
        if r & 31 == 0 {
            // Cold tail (~3% of iterations): scattered stores and far
            // loads that miss deep into the hierarchy.
            prof.store(r % (1 << 20));
            prof.load(0x4000_0000 + (r >> 32) % (1 << 14));
        }
        prof.retire(6);
        if r & 15 == 0 {
            let callee = fns[(r % 31 + 1) as usize];
            prof.enter(callee);
            prof.retire(2);
            prof.exit();
        }
    }
    prof.exit();
    prof.finish()
}

/// One engine-vs-engine measurement, ready to serialize.
#[derive(Debug, Clone, PartialEq)]
pub struct SpeedReport {
    /// Events in the replayed trace (branches + memory + calls).
    pub events: u64,
    /// Timed repetitions per engine.
    pub reps: u32,
    /// Shipped batched engine throughput in replayed events per second.
    /// The chunk transposition is not included: the capture layer builds
    /// the chunks once at `Profiler::finish`, so the production
    /// `estimate` path never pays it either.
    pub replay_events_per_sec: u64,
    /// Live scalar shadow engine ([`ReplayState::replay`]) throughput.
    pub scalar_events_per_sec: u64,
    /// `replay / scalar` — batching alone, on today's shared substrate.
    pub speedup_vs_scalar: f64,
}

impl SpeedReport {
    /// Canonical JSON rendering (same layer as the suite reports).
    pub fn to_json(&self) -> String {
        let round2 = |x: f64| (x * 100.0).round() / 100.0;
        Fields::new()
            .put("schema_version", &SPEED_SCHEMA_VERSION)
            .put("events", &self.events)
            .put("reps", &self.reps)
            .put("replay_events_per_sec", &self.replay_events_per_sec)
            .put("scalar_events_per_sec", &self.scalar_events_per_sec)
            .put("speedup_vs_scalar", &round2(self.speedup_vs_scalar))
            .build()
            .render()
    }
}

/// Measures both replay engines over `reps` fresh-state replays of a
/// `target_events`-event synthetic trace.
///
/// Panics if the engines disagree on any [`ReplayCounts`] field — the
/// speed figures are meaningless unless the engines are equivalent.
pub fn measure(target_events: usize, reps: u32) -> SpeedReport {
    let profile = synthetic_profile(target_events);
    let cfg = MachineConfig::default();
    let predictor = PredictorKind::Gshare { bits: 12 };
    let model = TopDownModel::new(cfg, predictor);
    let fn_base = model.code_layout(&profile);
    let probe_counts = model.probe_table(&profile);
    let events = profile.trace.events();

    let scalar_run = || {
        let mut state = ReplayState::new(&cfg, predictor);
        state.replay(&cfg, &profile, events, &fn_base)
    };
    let batched_run = || {
        let mut state = ReplayState::new(&cfg, predictor);
        state.replay_batched(
            &profile.chunks,
            (0, profile.chunks.len()),
            &probe_counts,
            &fn_base,
        )
    };

    // Correctness first: identical counts or no speed figure at all.
    let scalar_counts = scalar_run();
    let batched_counts = batched_run();
    assert_eq!(
        scalar_counts, batched_counts,
        "batched replay diverged from the scalar reference engine"
    );

    let time = |run: &dyn Fn() -> ReplayCounts| {
        let start = Instant::now();
        for _ in 0..reps {
            std::hint::black_box(run());
        }
        start.elapsed().as_secs_f64()
    };
    // Warm each path once (counted above), then time.
    let replayed = scalar_counts.events() * reps as u64;
    let per_sec = |secs: f64| (replayed as f64 / secs.max(f64::EPSILON)) as u64;
    let scalar_events_per_sec = per_sec(time(&scalar_run));
    let replay_events_per_sec = per_sec(time(&batched_run));
    SpeedReport {
        events: scalar_counts.events(),
        reps,
        replay_events_per_sec,
        scalar_events_per_sec,
        speedup_vs_scalar: replay_events_per_sec as f64 / scalar_events_per_sec.max(1) as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthetic_profile_fills_the_trace() {
        let profile = synthetic_profile(10_000);
        assert!(profile.trace.len() >= 9_000, "trace should be near-full");
        assert_eq!(profile.trace.weight(), 1, "speed profile must not decimate");
        profile.validate().expect("synthetic profile validates");
    }

    #[test]
    fn measure_reports_equivalent_engines() {
        let report = measure(20_000, 2);
        assert!(report.events > 0);
        assert!(report.scalar_events_per_sec > 0);
        assert!(report.replay_events_per_sec > 0);
        let json = report.to_json();
        assert!(json.contains("\"schema_version\": 1"));
        assert!(json.contains("replay_events_per_sec"));
        assert!(json.contains("speedup_vs_scalar"));
        assert!(!json.contains("baseline"));
    }
}
