//! Sample statistics used by the harness: nearest-rank quantiles, the
//! percentile rule, generator-lag accounting and histogram deltas.

use tasq_obs::metrics::bucket_le;
use tasq_obs::Histogram;

/// Percentiles the harness may report, lowest first.
pub const PERCENTILE_LADDER: [f64; 5] = [0.50, 0.90, 0.99, 0.999, 0.9999];

/// Samples needed beyond a percentile before it may be reported.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank `q`-quantile of an ascending slice (0 when empty).
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[rank(sorted.len(), q) - 1]
}

/// 1-based nearest rank of the `q`-quantile among `n` samples.
fn rank(n: usize, q: f64) -> usize {
    ((q.clamp(0.0, 1.0) * n as f64).ceil() as usize).clamp(1, n)
}

/// Number of samples strictly above the `q`-quantile's rank.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, q)
    }
}

/// The highest percentile of [`PERCENTILE_LADDER`] with at least
/// [`MIN_BEYOND`] samples beyond it, or `None` when not even the median
/// qualifies.
pub fn highest_supported(n: usize) -> Option<f64> {
    PERCENTILE_LADDER
        .iter()
        .copied()
        .rev()
        .find(|&q| samples_beyond(n, q) >= MIN_BEYOND)
}

/// Median of a set of values (mean of the middle two for even counts).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Share of CPU time the hypervisor may steal during a round or pass
/// before the host counts as having disturbed it.
pub const STEAL_LIMIT: f64 = 0.02;

/// Cumulative (steal, total) CPU ticks of the host, from `/proc/stat`.
#[derive(Debug, Clone, Copy, Default)]
pub struct CpuTicks {
    steal: u64,
    total: u64,
}

impl CpuTicks {
    /// The counters now; zeros where `/proc/stat` cannot be read.
    pub fn now() -> Self {
        let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
        let ticks: Vec<u64> = stat
            .lines()
            .next()
            .unwrap_or_default()
            .split_whitespace()
            .skip(1)
            .filter_map(|v| v.parse().ok())
            .collect();
        Self {
            steal: ticks.get(7).copied().unwrap_or(0),
            total: ticks.iter().sum(),
        }
    }

    /// Share of CPU time stolen between this reading and now.
    pub fn steal_since(self) -> f64 {
        let now = Self::now();
        now.steal.saturating_sub(self.steal) as f64
            / now.total.saturating_sub(self.total).max(1) as f64
    }
}

/// Which of a set of rounds (or passes) to summarize, judged only by the
/// CPU steal each one saw, never by what it measured: those that stayed
/// within [`STEAL_LIMIT`], or, when that would drop more than half, the
/// least-stolen half. Indices come back in their original order.
pub fn undisturbed(steal: &[f64]) -> Vec<usize> {
    let within: Vec<usize> = (0..steal.len())
        .filter(|&i| steal[i] <= STEAL_LIMIT)
        .collect();
    if 2 * within.len() >= steal.len() {
        return within;
    }
    let mut by_steal: Vec<usize> = (0..steal.len()).collect();
    by_steal.sort_by(|&a, &b| steal[a].total_cmp(&steal[b]));
    by_steal.truncate(steal.len().div_ceil(2));
    by_steal.sort_unstable();
    by_steal
}

/// How late an open-loop generator ran, from each request's due and
/// actual send offsets (same clock, any unit).
#[derive(Debug, Clone, PartialEq)]
pub struct LagReport {
    /// Per-request send lag (send − due, never negative).
    pub lags: Vec<f64>,
    /// Requests due before `schedule_end` that were still unsent at it.
    pub backlog_end: usize,
}

/// Account the generator lag of one schedule. `schedule_end` is the
/// offset at which the last request's slot closes.
pub fn schedule_lag(due: &[f64], sent: &[f64], schedule_end: f64) -> LagReport {
    let lags = due
        .iter()
        .zip(sent)
        .map(|(d, s)| (s - d).max(0.0))
        .collect();
    let backlog_end = due
        .iter()
        .zip(sent)
        .filter(|(d, s)| **d <= schedule_end && **s > schedule_end)
        .count();
    LagReport { lags, backlog_end }
}

/// The samples a registry histogram gained between two snapshots.
#[derive(Debug, Clone)]
pub struct HistDelta {
    counts: Vec<u64>,
    sum: u64,
}

/// A point-in-time copy of a histogram, to subtract later.
#[derive(Debug, Clone)]
pub struct HistMark {
    counts: Vec<u64>,
    sum: u64,
}

impl HistMark {
    /// Snapshot `h` now.
    pub fn of(h: &Histogram) -> Self {
        Self {
            counts: h.bucket_counts(),
            sum: h.sum(),
        }
    }

    /// What `h` recorded since this mark.
    pub fn delta(&self, h: &Histogram) -> HistDelta {
        let now = h.bucket_counts();
        let counts = now
            .iter()
            .zip(&self.counts)
            .map(|(a, b)| a.saturating_sub(*b))
            .collect();
        HistDelta {
            counts,
            sum: h.sum().saturating_sub(self.sum),
        }
    }
}

impl HistDelta {
    /// Samples in the delta.
    pub fn count(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Sum of the samples in the delta.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Estimated `q`-quantile, interpolated linearly inside the bucket
    /// that holds it, as the registry's own histograms do (0 when empty).
    pub fn quantile(&self, q: f64) -> f64 {
        let total: u64 = self.count();
        if total == 0 {
            return 0.0;
        }
        let target = q.clamp(0.0, 1.0) * total as f64;
        let mut cumulative = 0u64;
        for (index, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if (cumulative + c) as f64 >= target {
                let lo = if index == 0 {
                    0.0
                } else {
                    bucket_le(index - 1) as f64 + 1.0
                };
                let hi = bucket_le(index) as f64 + 1.0;
                let within = ((target - cumulative as f64) / c as f64).clamp(0.0, 1.0);
                return lo + (hi - lo) * within;
            }
            cumulative += c;
        }
        bucket_le(self.counts.len().saturating_sub(1)) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_rule_needs_ten_samples_beyond() {
        assert_eq!(highest_supported(5), None);
        // 20 samples: 10 lie beyond the median, only 2 beyond p90.
        assert_eq!(highest_supported(20), Some(0.50));
        assert_eq!(highest_supported(100), Some(0.90));
        assert_eq!(highest_supported(999), Some(0.90));
        assert_eq!(highest_supported(1000), Some(0.99));
        assert_eq!(highest_supported(10_000), Some(0.999));
        assert_eq!(samples_beyond(1000, 0.99), 10);
        assert_eq!(samples_beyond(999, 0.99), 9);
    }

    #[test]
    fn nearest_rank_quantiles() {
        let sorted: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile_sorted(&sorted, 0.5), 50.0);
        assert_eq!(quantile_sorted(&sorted, 0.99), 99.0);
        assert_eq!(quantile_sorted(&sorted, 1.0), 100.0);
        assert_eq!(quantile_sorted(&[], 0.5), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn rounds_are_dropped_by_steal_alone() {
        // A slow round without steal stays; a round with steal goes.
        assert_eq!(undisturbed(&[0.0, 0.01, 0.02, 0.09, 0.0]), vec![0, 1, 2, 4]);
        // Mostly disturbed: keep the least-stolen half, in order.
        assert_eq!(undisturbed(&[0.05, 0.30, 0.04, 0.10, 0.03]), vec![0, 2, 4]);
        assert_eq!(undisturbed(&[0.05, 0.30, 0.04, 0.10]), vec![0, 2]);
        assert!(undisturbed(&[]).is_empty());
    }

    #[test]
    fn a_stall_shows_as_lag_and_backlog() {
        // Ten requests due every 1 ms; the generator stalls for 5 ms at
        // request 6 and then sends everything due at once.
        let due: Vec<f64> = (0..10).map(|i| i as f64).collect();
        let sent: Vec<f64> = (0..10)
            .map(|i| if i < 6 { i as f64 + 0.1 } else { 11.0 })
            .collect();
        let report = schedule_lag(&due, &sent, 10.0);
        assert_eq!(report.backlog_end, 4);
        assert!((report.lags[6] - 5.0).abs() < 1e-9);
        assert!((report.lags[9] - 2.0).abs() < 1e-9);
        assert!((report.lags[0] - 0.1).abs() < 1e-9);
        // A generator that keeps up leaves no backlog.
        let on_time = schedule_lag(&due, &due, 10.0);
        assert_eq!(on_time.backlog_end, 0);
        assert!(on_time.lags.iter().all(|&l| l == 0.0));
    }

    #[test]
    fn histogram_delta_ignores_earlier_samples() {
        let h = Histogram::new();
        for _ in 0..100 {
            h.record(10_000);
        }
        let mark = HistMark::of(&h);
        for v in 1..=100u64 {
            h.record(v);
        }
        let d = mark.delta(&h);
        assert_eq!(d.count(), 100);
        assert_eq!(d.sum(), 5050);
        assert!(
            (45.0..60.0).contains(&d.quantile(0.5)),
            "{}",
            d.quantile(0.5)
        );
        assert!(
            (95.0..=120.0).contains(&d.quantile(1.0)),
            "{}",
            d.quantile(1.0)
        );
    }
}
