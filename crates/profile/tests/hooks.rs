//! Property tests for the instrumentation hooks' fast paths.
//!
//! The hooks keep three pieces of state on their hot path in a cheaper
//! form than the obvious one: the footprint is a page-indexed line
//! bitmap rather than two hash sets, trace retention tests the offer
//! phase with a mask whenever the stride is a power of two, and injected
//! faults fire from a precomputed event index. Each property checks the
//! fast form against the obvious one on seeded random inputs.

use std::collections::HashSet;

use alberta_profile::{
    Event, EventTrace, InvariantViolation, Profiler, ProfilerFault, SampleConfig,
};
use proptest::prelude::*;

/// A small trace buffer: these properties are about the hooks, not about
/// retention volume.
fn config() -> SampleConfig {
    SampleConfig {
        trace_capacity: 256,
        ..SampleConfig::default()
    }
}

/// Expands `(base, len, stride)` runs into an address stream. Bases are
/// steered into three regions: anywhere, the first pages, and the top of
/// the address space (where runs wrap past `u64::MAX`).
fn addresses(runs: &[(u64, u64, u64)]) -> Vec<u64> {
    let mut out = Vec::new();
    for &(base, len, stride) in runs {
        let start = match base % 3 {
            0 => base,
            1 => base % (1 << 16),
            _ => u64::MAX - base % (1 << 16),
        };
        for i in 0..len {
            out.push(start.wrapping_add(i.wrapping_mul(stride)));
        }
    }
    out
}

/// The pre-mask retention rule: a decimating buffer that tests the offer
/// phase by division and halves by keeping odd indices.
struct ReferenceTrace {
    retained: Vec<u64>,
    capacity: usize,
    weight: u64,
    decimations: u32,
    phase: u64,
}

impl ReferenceTrace {
    fn offer(&mut self, tag: u64, dilution: u64) -> bool {
        self.phase += 1;
        if self.retained.len() >= self.capacity {
            self.retained = self.retained.iter().skip(1).step_by(2).copied().collect();
            self.weight *= 2;
            self.decimations += 1;
        }
        if !self.phase.is_multiple_of(self.weight * dilution) {
            return false;
        }
        self.retained.push(tag);
        true
    }
}

/// One instrumentation call of a random hook sequence.
fn hook(p: &mut Profiler, f: alberta_profile::FnId, op: u64, depth: &mut u32) {
    match op % 6 {
        0 => {
            p.enter(f);
            *depth += 1;
        }
        1 if *depth > 0 => {
            p.exit();
            *depth -= 1;
        }
        1 | 2 => p.retire(1 + op % 5),
        3 => p.branch((op % 7) as u32, op & 1 == 0),
        4 => p.load(op.wrapping_mul(64)),
        _ => p.store(op.wrapping_mul(8)),
    }
}

/// Runs `ops` as hooks inside one outer scope and closes every scope,
/// returning the number of instrumentation events issued.
fn drive(p: &mut Profiler, ops: &[u64]) -> u64 {
    let f = p.register_function("f", 64);
    let mut depth = 1;
    p.enter(f);
    for &op in ops {
        hook(p, f, op, &mut depth);
    }
    for _ in 0..depth {
        p.exit();
    }
    p.event_count()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The line bitmap counts exactly the distinct lines and pages a
    /// hash-set reference does, through table growth, page-crossing
    /// strides and addresses at the top of the address space.
    #[test]
    fn footprint_matches_a_hash_set_reference(
        runs in prop::collection::vec((any::<u64>(), 1u64..400, 1u64..5000), 1..24),
    ) {
        let stream = addresses(&runs);
        let mut p = Profiler::new(config());
        let mut lines = HashSet::new();
        let mut pages = HashSet::new();
        for (i, &addr) in stream.iter().enumerate() {
            if i % 2 == 0 {
                p.load(addr);
            } else {
                p.store(addr);
            }
            lines.insert(addr >> 6);
            pages.insert(addr >> 12);
        }
        let footprint = p.finish().footprint;
        prop_assert_eq!(footprint.lines, lines.len() as u64);
        prop_assert_eq!(footprint.pages, pages.len() as u64);
    }

    /// Masked retention keeps exactly the offers the `%` rule keeps, for
    /// power-of-two and odd preset weights and any mix of dilutions.
    #[test]
    fn masked_retention_keeps_what_modulo_keeps(
        capacity in 1usize..64,
        weight in 1u64..9,
        dilutions in prop::collection::vec(1u64..5, 1..3000),
    ) {
        let mut trace = EventTrace::with_capacity(capacity);
        trace.preset_weight(weight);
        let mut reference = ReferenceTrace {
            retained: Vec::new(),
            capacity,
            weight,
            decimations: 0,
            phase: 0,
        };
        for (tag, &dilution) in dilutions.iter().enumerate() {
            let tag = tag as u64;
            let kept = trace.push_diluted(Event::Load { addr: tag }, dilution);
            prop_assert_eq!(kept, reference.offer(tag, dilution), "offer {}", tag);
            prop_assert_eq!(trace.weight(), reference.weight);
            prop_assert_eq!(trace.decimations(), reference.decimations);
        }
        let retained: Vec<u64> = trace
            .events()
            .iter()
            .map(|e| match e {
                Event::Load { addr } => *addr,
                other => panic!("unexpected event {other:?}"),
            })
            .collect();
        prop_assert_eq!(retained, reference.retained);
    }

    /// An injected panic fires on exactly its event index, the first
    /// event included.
    #[test]
    fn panic_fault_fires_at_its_event(
        ops in prop::collection::vec(any::<u64>(), 1..200),
        pick in any::<u64>(),
    ) {
        let total = drive(&mut Profiler::new(config()), &ops);
        for at in [1, 1 + pick % total, total] {
            let mut p = Profiler::new(config().with_fault(ProfilerFault::PanicAtEvent(at)));
            let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                drive(&mut p, &ops);
            }));
            prop_assert!(caught.is_err(), "no panic for event {}", at);
            prop_assert_eq!(p.event_count(), at);
        }
    }

    /// Corruption injected at the last event still lands, and one past
    /// the last event never does.
    #[test]
    fn corruption_fires_at_the_last_event(
        ops in prop::collection::vec(any::<u64>(), 1..200),
    ) {
        let total = drive(&mut Profiler::new(config()), &ops);
        let run = |at| {
            let mut p = Profiler::new(config().with_fault(ProfilerFault::CorruptEvents { at }));
            drive(&mut p, &ops);
            p.finish().validate()
        };
        prop_assert!(
            matches!(run(total), Err(InvariantViolation::TakenExceedsBranches { .. })),
            "corruption at event {} did not land", total
        );
        prop_assert_eq!(run(total + 1), Ok(()));
    }
}
