//! The benchmark's own arithmetic: order statistics, failure tallies,
//! ratios over a possibly empty base, and process resource readings.

use std::time::{Duration, Instant};

/// Samples that must lie beyond a reported percentile. A tail figure
/// resting on fewer is one or two outliers, not a percentile.
pub const MIN_BEYOND_TAIL: usize = 10;

/// The median of `samples` (mean of the middle pair for even counts);
/// `None` when empty.
pub fn median(samples: &[f64]) -> Option<f64> {
    let sorted = sorted(samples);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// The mean of the middle half of `samples`: a quarter (rounded down)
/// of them is dropped from each end. Unlike the median it moves
/// smoothly when samples fall into two modes, and unlike the mean it
/// ignores a stray stall. `None` when empty.
pub fn middle_mean(samples: &[f64]) -> Option<f64> {
    let sorted = sorted(samples);
    let cut = sorted.len() / 4;
    let middle = &sorted[cut..sorted.len() - cut];
    (!middle.is_empty()).then(|| middle.iter().sum::<f64>() / middle.len() as f64)
}

/// The nearest-rank `p`-th percentile of `samples` (`0 < p < 100`), but
/// only when at least [`MIN_BEYOND_TAIL`] samples rank strictly above
/// it; `None` otherwise. For p90 that means at least 100 samples. Every
/// reported `_p50` and `_p90` uses it, so the two share one definition.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    assert!(p > 0.0 && p < 100.0, "percentile {p} outside (0, 100)");
    let sorted = sorted(samples);
    let n = sorted.len();
    // Nearest rank: the smallest rank r with r/n >= p/100.
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    if rank == 0 || n - rank < MIN_BEYOND_TAIL {
        return None;
    }
    Some(sorted[rank - 1])
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

/// Attempted-vs-failed accounting over runs or requests. An attempt
/// fails when it errored or its output did not match the reference.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Attempts made.
    pub attempted: u64,
    /// Attempts that errored or produced a mismatching output.
    pub failed: u64,
}

impl Tally {
    /// Records one attempt.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    /// Adds another tally's attempts.
    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    /// Failed over attempted; 0 for an empty tally.
    pub fn failed_frac(&self) -> f64 {
        ratio(self.failed as f64, self.attempted as f64)
    }
}

/// `part` over `base`; 0 over an empty base. Callers report the base
/// as a metric of its own, so a ratio is never read without it.
pub fn ratio(part: f64, base: f64) -> f64 {
    if base == 0.0 {
        0.0
    } else {
        part / base
    }
}

/// Wall and CPU time summed over the timed segments of a unit of work,
/// leaving out whatever runs between them.
#[derive(Debug, Clone, Copy, Default)]
pub struct Meter {
    /// Wall time of the segments.
    pub wall: Duration,
    /// Process CPU time ([`process_cpu`]) of the segments.
    pub cpu: Duration,
}

impl Meter {
    /// Runs `segment` and adds its wall and CPU time.
    pub fn time<T>(&mut self, segment: impl FnOnce() -> T) -> Result<T, String> {
        let cpu0 = process_cpu()?;
        let t0 = Instant::now();
        let out = segment();
        self.wall += t0.elapsed();
        self.cpu += process_cpu()? - cpu0;
        Ok(out)
    }
}

/// Milliseconds in a duration, at nanosecond resolution.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// User + system CPU time this process has consumed, all threads.
///
/// Read from `/proc/self/stat`, whose tick unit is the kernel's fixed
/// `USER_HZ` of 100; at that 10 ms resolution the multi-second
/// intervals the benchmark times stay well within 1%.
pub fn process_cpu() -> Result<Duration, String> {
    const USER_HZ: u64 = 100;
    let stat = std::fs::read_to_string("/proc/self/stat")
        .map_err(|e| format!("cannot read /proc/self/stat: {e}"))?;
    // The command name is parenthesised and may hold spaces; fields
    // count from the closing parenthesis, where field 3 (`state`) starts.
    let rest = stat
        .rsplit_once(')')
        .map(|(_, rest)| rest)
        .ok_or("malformed /proc/self/stat")?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let field = |n: usize| -> Result<u64, String> {
        fields
            .get(n - 3)
            .and_then(|v| v.parse().ok())
            .ok_or(format!("/proc/self/stat field {n} missing"))
    };
    let ticks = field(14)? + field(15)?;
    Ok(Duration::from_millis(ticks * 1000 / USER_HZ))
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kib: u64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("VmHWM missing from /proc/self/status")?;
    Ok(kib as f64 / 1024.0)
}

/// A small deterministic generator (SplitMix64) for the seeded run
/// orders and request streams.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A value in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// A uniformly shuffled `0..n`.
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut order: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            order.swap(i, self.below(i + 1));
        }
        order
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn middle_mean_drops_a_quarter_from_each_end() {
        assert_eq!(middle_mean(&[]), None);
        assert_eq!(middle_mean(&[5.0]), Some(5.0));
        // 3 samples: none dropped.
        assert_eq!(middle_mean(&[1.0, 2.0, 6.0]), Some(3.0));
        // 8 samples: two dropped from each end, whatever the input order.
        let samples = [100.0, 6.0, 9.0, 6.0, 0.0, 9.0, 6.0, 6.0];
        assert_eq!(middle_mean(&samples), Some(6.75));
    }

    #[test]
    fn meter_sums_only_its_segments() {
        let gap = Duration::from_millis(30);
        let outer = Instant::now();
        let mut meter = Meter::default();
        let out = meter
            .time(|| std::thread::sleep(Duration::from_millis(5)))
            .map(|()| 7)
            .expect("cpu readable");
        std::thread::sleep(gap);
        meter.time(|| ()).expect("cpu readable");
        assert_eq!(out, 7);
        assert!(meter.wall >= Duration::from_millis(5));
        assert!(meter.wall + gap <= outer.elapsed());
    }

    #[test]
    fn p90_needs_ten_samples_beyond_it() {
        let samples: Vec<f64> = (1..=99).map(f64::from).collect();
        // 99 samples: rank 90, only 9 above it.
        assert_eq!(percentile(&samples, 90.0), None);
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        // 100 samples: rank 90 (value 90), exactly 10 above it.
        assert_eq!(percentile(&samples, 90.0), Some(90.0));
        let samples: Vec<f64> = (1..=250).rev().map(f64::from).collect();
        // Input order is irrelevant; rank ceil(225) = 225.
        assert_eq!(percentile(&samples, 90.0), Some(225.0));
    }

    #[test]
    fn p50_uses_nearest_rank() {
        let samples: Vec<f64> = (1..=21).map(f64::from).collect();
        // rank ceil(10.5) = 11, with 10 above it.
        assert_eq!(percentile(&samples, 50.0), Some(11.0));
        assert_eq!(percentile(&samples[..20], 50.0), Some(10.0));
        assert_eq!(percentile(&samples[..19], 50.0), None);
    }

    #[test]
    fn tally_counts_failures_over_attempts() {
        let mut tally = Tally::default();
        assert_eq!(tally.failed_frac(), 0.0);
        for ok in [true, false, true, true] {
            tally.record(ok);
        }
        assert_eq!(
            tally,
            Tally {
                attempted: 4,
                failed: 1
            }
        );
        tally.absorb(Tally {
            attempted: 4,
            failed: 3,
        });
        assert_eq!(tally.failed_frac(), 0.5);
    }

    #[test]
    fn ratio_survives_an_empty_base() {
        assert_eq!(ratio(2.0, 8.0), 0.25);
        assert_eq!(ratio(3.0, 0.0), 0.0);
        assert_eq!(ratio(0.0, 0.0), 0.0);
    }

    #[test]
    fn permutation_is_seeded_and_complete() {
        let a = SplitMix::new(7).permutation(50);
        assert_eq!(a, SplitMix::new(7).permutation(50));
        assert_ne!(a, SplitMix::new(8).permutation(50));
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn process_readings_are_available() {
        assert!(process_cpu().is_ok());
        assert!(peak_rss_mb().expect("VmHWM") > 0.0);
    }
}
