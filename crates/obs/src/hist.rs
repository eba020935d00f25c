//! A lock-free, log-bucketed latency histogram.
//!
//! Durations land in a fixed set of 1–2–5 log-spaced buckets (atomic
//! counters, so recording is wait-free and thread-safe), which makes two
//! histograms mergeable by plain addition: the merge is associative,
//! commutative, and independent of the thread count that produced the
//! samples. Quantile estimates are conservative upper bounds — always the
//! upper boundary of the bucket holding the requested rank — so an
//! estimate never under-reports the exact sorted-oracle value and
//! over-reports it by at most one bucket width (≤ 2.5×).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};
use std::time::Duration;

/// Bucket upper bounds in nanoseconds: a 1–2–5 series from 1µs to 60s.
///
/// The boundaries are part of the exposition contract (they become
/// Prometheus `le` labels), so they are public and pinned by tests.
pub const BUCKET_BOUNDS_NANOS: [u64; 24] = [
    1_000,
    2_000,
    5_000,
    10_000,
    20_000,
    50_000,
    100_000,
    200_000,
    500_000,
    1_000_000,
    2_000_000,
    5_000_000,
    10_000_000,
    20_000_000,
    50_000_000,
    100_000_000,
    200_000_000,
    500_000_000,
    1_000_000_000,
    2_000_000_000,
    5_000_000_000,
    10_000_000_000,
    20_000_000_000,
    60_000_000_000,
];

/// The bucket a duration of `nanos` falls into, or `None` for the
/// overflow (`+Inf`) bucket.
pub fn bucket_index(nanos: u64) -> Option<usize> {
    let idx = BUCKET_BOUNDS_NANOS.partition_point(|&bound| bound < nanos);
    if idx < BUCKET_BOUNDS_NANOS.len() {
        Some(idx)
    } else {
        None
    }
}

/// A mergeable, lock-free latency histogram.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKET_BOUNDS_NANOS.len()],
    overflow: AtomicU64,
    sum_nanos: AtomicU64,
    count: AtomicU64,
    max_nanos: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            overflow: AtomicU64::new(0),
            sum_nanos: AtomicU64::new(0),
            count: AtomicU64::new(0),
            max_nanos: AtomicU64::new(0),
        }
    }

    /// Records one duration.
    pub fn record(&self, d: Duration) {
        self.record_nanos(d.as_nanos().min(u64::MAX as u128) as u64);
    }

    /// Records one duration given in nanoseconds.
    pub fn record_nanos(&self, nanos: u64) {
        match bucket_index(nanos) {
            Some(i) => self.buckets[i].fetch_add(1, Ordering::Relaxed),
            None => self.overflow.fetch_add(1, Ordering::Relaxed),
        };
        self.sum_nanos.fetch_add(nanos, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.max_nanos.fetch_max(nanos, Ordering::Relaxed);
    }

    /// Folds another histogram's counts into this one. Addition of
    /// per-bucket counters, so merging is associative and commutative.
    pub fn merge_from(&self, other: &Histogram) {
        for (mine, theirs) in self.buckets.iter().zip(other.buckets.iter()) {
            self.merge_bucket(mine, theirs);
        }
        self.merge_bucket(&self.overflow, &other.overflow);
        self.merge_bucket(&self.sum_nanos, &other.sum_nanos);
        self.merge_bucket(&self.count, &other.count);
        self.max_nanos
            .fetch_max(other.max_nanos.load(Ordering::Relaxed), Ordering::Relaxed);
    }

    fn merge_bucket(&self, mine: &AtomicU64, theirs: &AtomicU64) {
        let v = theirs.load(Ordering::Relaxed);
        if v != 0 {
            mine.fetch_add(v, Ordering::Relaxed);
        }
    }

    /// A consistent-enough point-in-time copy for quantiles and exposition.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            overflow: self.overflow.load(Ordering::Relaxed),
            sum_nanos: self.sum_nanos.load(Ordering::Relaxed),
            count: self.count.load(Ordering::Relaxed),
            max_nanos: self.max_nanos.load(Ordering::Relaxed),
        }
    }
}

/// A plain-data copy of a [`Histogram`]'s counters.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket (non-cumulative) counts, aligned with
    /// [`BUCKET_BOUNDS_NANOS`].
    pub buckets: Vec<u64>,
    /// Samples above the last bucket boundary.
    pub overflow: u64,
    /// Sum of all recorded durations, in nanoseconds.
    pub sum_nanos: u64,
    /// Total number of recorded samples.
    pub count: u64,
    /// The largest single recorded duration, in nanoseconds.
    pub max_nanos: u64,
}

impl HistogramSnapshot {
    /// The estimated `q`-quantile (`0.0 ..= 1.0`) in nanoseconds: the
    /// upper boundary of the bucket containing the rank-`⌈q·count⌉`
    /// sample, clamped to the observed maximum (which is also the answer
    /// for the overflow bucket) — so no quantile exceeds the max. Returns
    /// 0 on an empty histogram.
    pub fn quantile_nanos(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cumulative = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            cumulative += n;
            if cumulative >= rank {
                return BUCKET_BOUNDS_NANOS[i].min(self.max_nanos);
            }
        }
        self.max_nanos
    }

    /// The estimated `q`-quantile as a [`Duration`].
    pub fn quantile(&self, q: f64) -> Duration {
        Duration::from_nanos(self.quantile_nanos(q))
    }

    /// Median estimate.
    pub fn p50(&self) -> Duration {
        self.quantile(0.50)
    }

    /// 90th-percentile estimate.
    pub fn p90(&self) -> Duration {
        self.quantile(0.90)
    }

    /// 99th-percentile estimate.
    pub fn p99(&self) -> Duration {
        self.quantile(0.99)
    }

    /// 99.9th-percentile estimate.
    pub fn p999(&self) -> Duration {
        self.quantile(0.999)
    }

    /// The largest recorded duration.
    pub fn max(&self) -> Duration {
        Duration::from_nanos(self.max_nanos)
    }
}

/// A labelled set of histograms (one per label value), created on first
/// use. Labels are kept sorted so exposition order is deterministic.
#[derive(Debug, Default)]
pub struct HistogramFamily {
    inner: RwLock<std::collections::BTreeMap<String, Arc<Histogram>>>,
}

impl HistogramFamily {
    /// An empty family.
    pub fn new() -> Self {
        HistogramFamily::default()
    }

    /// The histogram for `label`, created empty if absent.
    pub fn get(&self, label: &str) -> Arc<Histogram> {
        if let Some(h) = self
            .inner
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .get(label)
        {
            return Arc::clone(h);
        }
        let mut map = self.inner.write().unwrap_or_else(|e| e.into_inner());
        Arc::clone(map.entry(label.to_string()).or_default())
    }

    /// Records a duration against `label`.
    pub fn record(&self, label: &str, d: Duration) {
        self.get(label).record(d);
    }

    /// Snapshots every labelled histogram, sorted by label.
    pub fn snapshot_all(&self) -> Vec<(String, HistogramSnapshot)> {
        self.inner
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .map(|(label, h)| (label.clone(), h.snapshot()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_strictly_increasing() {
        for pair in BUCKET_BOUNDS_NANOS.windows(2) {
            assert!(pair[0] < pair[1]);
        }
    }

    #[test]
    fn bucket_index_is_the_first_bound_at_or_above() {
        assert_eq!(bucket_index(0), Some(0));
        assert_eq!(bucket_index(1_000), Some(0));
        assert_eq!(bucket_index(1_001), Some(1));
        assert_eq!(bucket_index(60_000_000_000), Some(23));
        assert_eq!(bucket_index(60_000_000_001), None);
    }

    #[test]
    fn quantiles_upper_bound_the_exact_oracle() {
        let h = Histogram::new();
        let samples: Vec<u64> = (1..=1000).map(|i| i * 7_919).collect();
        for &s in &samples {
            h.record_nanos(s);
        }
        let snap = h.snapshot();
        let mut sorted = samples.clone();
        sorted.sort_unstable();
        for q in [0.5, 0.9, 0.99, 0.999] {
            let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
            let exact = sorted[rank - 1];
            let est = snap.quantile_nanos(q);
            assert!(est >= exact, "q={q}: {est} < {exact}");
            assert_eq!(
                Some(est),
                bucket_index(exact).map(|i| BUCKET_BOUNDS_NANOS[i].min(snap.max_nanos))
            );
        }
    }

    #[test]
    fn empty_histogram_reports_zero() {
        let snap = Histogram::new().snapshot();
        assert_eq!(snap.count, 0);
        assert_eq!(snap.quantile_nanos(0.99), 0);
        assert_eq!(snap.max(), Duration::ZERO);
    }

    #[test]
    fn overflow_quantile_is_the_observed_max() {
        let h = Histogram::new();
        h.record_nanos(90_000_000_000);
        h.record_nanos(120_000_000_000);
        let snap = h.snapshot();
        assert_eq!(snap.overflow, 2);
        assert_eq!(snap.quantile_nanos(0.99), 120_000_000_000);
    }

    #[test]
    fn merge_adds_counts() {
        let a = Histogram::new();
        let b = Histogram::new();
        a.record_nanos(500);
        b.record_nanos(500);
        b.record_nanos(3_000_000);
        a.merge_from(&b);
        let snap = a.snapshot();
        assert_eq!(snap.count, 3);
        assert_eq!(snap.buckets[0], 2);
        assert_eq!(snap.sum_nanos, 3_001_000);
        assert_eq!(snap.max_nanos, 3_000_000);
    }

    #[test]
    fn family_creates_on_demand_and_sorts_labels() {
        let fam = HistogramFamily::new();
        fam.record("zeta", Duration::from_micros(5));
        fam.record("alpha", Duration::from_micros(9));
        fam.record("zeta", Duration::from_micros(7));
        let all = fam.snapshot_all();
        assert_eq!(all.len(), 2);
        assert_eq!(all[0].0, "alpha");
        assert_eq!(all[1].0, "zeta");
        assert_eq!(all[1].1.count, 2);
    }
}
