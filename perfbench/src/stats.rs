//! Latency statistics.
//!
//! A timing is reported as its median and as the highest percentile that
//! still has at least [`MIN_BEYOND`] samples above it, always with the
//! sample count. Failed or refused requests stay in the sample as
//! infinitely slow: they count against the attempts and miss every
//! latency limit, so a run that fails requests cannot report a better tail.

/// Fewest samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Percentile levels a tail may be reported at, highest first.
const TAIL_LEVELS: [f64; 5] = [99.9, 99.0, 95.0, 90.0, 50.0];

/// Client-observed latencies of one statement kind, in microseconds.
#[derive(Debug, Default, Clone)]
pub struct Latencies {
    micros: Vec<f64>,
    failed: u64,
}

/// One percentile read off a sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    /// The level, in percent.
    pub level: f64,
    /// The value at that level (`f64::INFINITY` when it lands on a failure).
    pub value: f64,
    /// Samples strictly beyond the chosen rank.
    pub beyond: usize,
}

impl Latencies {
    /// Record a request that succeeded after `micros`.
    pub fn record(&mut self, micros: f64) {
        self.micros.push(micros);
    }

    /// Record a request that failed or was refused.
    pub fn record_failure(&mut self) {
        self.failed += 1;
    }

    /// Append every sample of `other`.
    pub fn merge(&mut self, other: &Latencies) {
        self.micros.extend_from_slice(&other.micros);
        self.failed += other.failed;
    }

    /// Requests attempted: successes plus failures.
    pub fn attempted(&self) -> u64 {
        self.micros.len() as u64 + self.failed
    }

    /// Requests that failed or were refused.
    pub fn failed(&self) -> u64 {
        self.failed
    }

    /// Requests that succeeded.
    pub fn succeeded(&self) -> u64 {
        self.micros.len() as u64
    }

    fn sorted(&self) -> Vec<f64> {
        let mut all = self.micros.clone();
        all.extend(std::iter::repeat_n(f64::INFINITY, self.failed as usize));
        all.sort_by(f64::total_cmp);
        all
    }

    /// The nearest-rank percentile at `level`, or `None` when fewer than
    /// [`MIN_BEYOND`] samples would lie beyond it.
    pub fn percentile(&self, level: f64) -> Option<Percentile> {
        percentile_of(&self.sorted(), level)
    }

    /// The median, when the sample supports one.
    pub fn median(&self) -> Option<Percentile> {
        self.percentile(50.0)
    }

    /// The highest level not above `cap` that the sample supports: the
    /// tail to report under a metric named for `cap` (e.g. 99).
    pub fn tail(&self, cap: f64) -> Option<Percentile> {
        let sorted = self.sorted();
        TAIL_LEVELS
            .iter()
            .filter(|&&l| l <= cap)
            .find_map(|&l| percentile_of(&sorted, l))
    }
}

fn percentile_of(sorted: &[f64], level: f64) -> Option<Percentile> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    // Nearest rank, 1-based: the smallest rank covering `level` percent.
    let rank = ((level / 100.0) * n as f64).ceil().max(1.0) as usize;
    let beyond = n - rank.min(n);
    (beyond >= MIN_BEYOND || level == 50.0).then(|| Percentile {
        level,
        value: sorted[rank.min(n) - 1],
        beyond,
    })
}

/// First quartile, median and third quartile of `values`, computed as
/// Python's `statistics.quantiles(values, n=4)` (the default "exclusive"
/// method) does. Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64, f64)> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let m = n + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    };
    Some((cut(1), cut(2), cut(3)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(n: usize) -> Latencies {
        let mut l = Latencies::default();
        for v in 1..=n {
            l.record(v as f64);
        }
        l
    }

    #[test]
    fn median_is_nearest_rank() {
        assert_eq!(sample(5).median().unwrap().value, 3.0);
        assert_eq!(sample(4).median().unwrap().value, 2.0);
        assert_eq!(sample(1).median().unwrap().value, 1.0);
        assert!(Latencies::default().median().is_none());
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // 1000 samples: p99 is rank 990 with exactly 10 beyond.
        let l = sample(1000);
        let p99 = l.percentile(99.0).unwrap();
        assert_eq!((p99.value, p99.beyond), (990.0, 10));
        assert!(l.percentile(99.9).is_none(), "only one sample beyond p99.9");
        assert_eq!(l.tail(99.0).unwrap().level, 99.0);
        // 999 samples cannot support p99; the tail falls back to p95.
        let l = sample(999);
        assert!(l.percentile(99.0).is_none());
        let t = l.tail(99.0).unwrap();
        assert_eq!(t.level, 95.0);
        assert!(t.beyond >= MIN_BEYOND);
        // The cap keeps a large sample's p99 metric at p99.
        assert_eq!(sample(100_000).tail(99.0).unwrap().level, 99.0);
    }

    #[test]
    fn failures_count_as_attempts_and_misses() {
        let mut l = sample(990);
        for _ in 0..10 {
            l.record_failure();
        }
        assert_eq!((l.attempted(), l.failed(), l.succeeded()), (1000, 10, 990));
        // The ten failures sit beyond p99, so p99 is still a real latency.
        assert_eq!(l.percentile(99.0).unwrap().value, 990.0);
        l.record_failure();
        // Now a failure lands on the p99 rank: the tail reads infinite.
        assert!(l.percentile(99.0).unwrap().value.is_infinite());
    }

    #[test]
    fn merge_combines_samples() {
        let mut a = sample(3);
        let mut b = Latencies::default();
        b.record(10.0);
        b.record_failure();
        a.merge(&b);
        assert_eq!((a.attempted(), a.failed()), (5, 1));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 5.5, 8.25)));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 2.0, 3.0)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 1.5, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
    }
}
