//! Host pace: a fixed reference computation of the benchmark's own,
//! timed next to the work it measures, by which CPU-bound times are
//! scaled to one reference host speed.
//!
//! On a shared host the same single-threaded work takes up to twice as
//! long for seconds or minutes at a time, and the slowdown is all user
//! time: the host core runs slower, the process does not wait. Raw
//! times taken minutes apart then differ by more than any bound a
//! regression gate can afford. The reference computation slows with
//! the host but never with the program, because it calls none of the
//! program's code. A time `t` measured while the computation takes `p`
//! seconds is reported as `t * REFERENCE_PACE_S / p`: the time the same
//! work takes on a host where the computation takes
//! [`REFERENCE_PACE_S`].
//!
//! The computation mixes what the measured work does: random
//! read-modify-writes over a 4 MiB table (cache and memory), a
//! data-dependent branch chain (branch prediction), and an ordered map
//! of growing buffers (allocation and pointer chasing). Its work is the
//! same in every run: the generator restarts from a fixed state.

use crate::measure;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Seconds the reference computation takes on the host the baselines
/// in `perfbench/README.md` were taken on (2-vCPU Xeon VM, median of a
/// quiet period). Only its ratio to a measured pace matters, so scaled
/// times read as host seconds there.
pub const REFERENCE_PACE_S: f64 = 0.0025;

/// Entries of the random-access table: 4 MiB of `u32`.
const TABLE_LEN: usize = 1 << 20;
/// Random read-modify-writes per sample.
const TABLE_UPDATES: u32 = 60_000;
/// Steps of the branch chain per sample.
const BRANCH_STEPS: u32 = 200_000;
/// Map inserts per sample, over [`MAP_KEYS`] keys.
const MAP_INSERTS: u64 = 4_000;
const MAP_KEYS: u64 = 2_000;

/// Pace samples of one stretch of measured work.
pub struct Pace {
    table: Vec<u32>,
    state: u64,
    samples: Vec<f64>,
}

impl Default for Pace {
    fn default() -> Self {
        Pace {
            table: vec![0; TABLE_LEN],
            state: 0,
            samples: Vec::new(),
        }
    }
}

impl Pace {
    /// Runs the reference computation once and records its seconds.
    pub fn sample(&mut self) {
        let start = Instant::now();
        black_box(self.compute());
        self.samples.push(start.elapsed().as_secs_f64());
    }

    /// The middle mean of the samples recorded since the last call, which
    /// it clears; `None` when there are none.
    pub fn take(&mut self) -> Option<f64> {
        let pace = measure::middle_mean(&self.samples);
        self.samples.clear();
        pace
    }

    fn compute(&mut self) -> u64 {
        let mut x = self.next();
        for _ in 0..TABLE_UPDATES {
            x = lcg(x);
            let i = (x >> 44) as usize % TABLE_LEN;
            self.table[i] = self.table[i].wrapping_add(x as u32);
        }
        let mut y = self.next() | 1;
        let mut acc = 0u64;
        for _ in 0..BRANCH_STEPS {
            y ^= y << 13;
            y ^= y >> 7;
            y ^= y << 17;
            if y & 1 == 0 {
                acc = acc.wrapping_add(y >> 3);
            } else if y & 6 == 2 {
                acc ^= y;
            } else {
                acc = acc.rotate_left(5);
            }
        }
        let mut map: BTreeMap<u64, Vec<u8>> = BTreeMap::new();
        let mut z = self.next();
        for i in 0..MAP_INSERTS {
            z = lcg(z);
            map.entry(z % MAP_KEYS)
                .or_default()
                .extend_from_slice(&i.to_le_bytes());
        }
        acc ^ u64::from(self.table[(x >> 44) as usize % TABLE_LEN]) ^ map.len() as u64
    }

    fn next(&mut self) -> u64 {
        self.state = lcg(self.state);
        self.state
    }
}

fn lcg(x: u64) -> u64 {
    x.wrapping_mul(6_364_136_223_846_793_005)
        .wrapping_add(1_442_695_040_888_963_407)
}

/// `seconds` measured at `pace`, at the reference pace.
pub fn scaled(seconds: f64, pace: f64) -> f64 {
    seconds * REFERENCE_PACE_S / pace
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_is_the_middle_mean_and_clears() {
        let mut pace = Pace::default();
        assert_eq!(pace.take(), None);
        pace.samples = vec![9.0, 1.0, 2.0, 3.0];
        assert_eq!(pace.take(), Some(2.5));
        assert_eq!(pace.take(), None);
        pace.sample();
        assert!(pace.take().is_some_and(|p| p > 0.0));
    }

    #[test]
    fn the_computation_repeats_in_every_run() {
        let results = |n| {
            let mut pace = Pace::default();
            (0..n).map(|_| pace.compute()).collect::<Vec<_>>()
        };
        let first = results(3);
        assert_eq!(first, results(3));
        assert_ne!(first[0], first[1], "each sample draws new inputs");
    }

    #[test]
    fn scaling_is_relative_to_the_reference_pace() {
        assert_eq!(scaled(4.0, REFERENCE_PACE_S), 4.0);
        assert_eq!(scaled(4.0, 2.0 * REFERENCE_PACE_S), 2.0);
    }
}
