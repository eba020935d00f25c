//! Sample summaries: the median and the tail rule.
//!
//! The tail of a latency sample is reported at the highest percentile that
//! still has at least [`TAIL_BEYOND`] samples beyond it, so the figure rests
//! on ten observations and never on one outlier. Percentiles use the
//! nearest-rank definition on a 0.1 grid: the value of percentile `p` over
//! `n` sorted samples is the sample of rank `ceil(p · n / 100)`, and the
//! samples beyond it are the `n − rank` above that rank.

/// Samples a tail percentile must leave beyond it.
pub const TAIL_BEYOND: usize = 10;

/// The median of `samples` (mean of the middle pair for an even count).
/// Panics on an empty sample: every metric is sized to have samples.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of an empty sample");
    let sorted = sorted(samples);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// A tail figure with the percentile it was read at and its support.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// The percentile, e.g. `90.0`.
    pub percentile: f64,
    /// The sample at that percentile.
    pub value: f64,
    /// Samples strictly beyond the percentile's rank.
    pub beyond: usize,
    /// Samples in total.
    pub samples: usize,
}

/// The highest percentile with at least [`TAIL_BEYOND`] samples beyond it.
/// Returns `None` when the sample is too small for any percentile at or
/// above the median to qualify (fewer than `2 · TAIL_BEYOND` samples).
pub fn tail(samples: &[f64]) -> Option<Tail> {
    let n = samples.len();
    let sorted = sorted(samples);
    // Percentiles in tenths, highest first, down to the median.
    (500..=999usize).rev().find_map(|tenths| {
        let rank = (tenths * n).div_ceil(1000).max(1);
        let beyond = n.checked_sub(rank)?;
        (beyond >= TAIL_BEYOND).then(|| Tail {
            percentile: tenths as f64 / 10.0,
            value: sorted[rank - 1],
            beyond,
            samples: n,
        })
    })
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Shuffled so the rule cannot rely on input order.
        let mut v: Vec<f64> = (1..=n).map(|i| i as f64).collect();
        v.reverse();
        v
    }

    #[test]
    fn hundred_samples_give_p90() {
        let t = tail(&ramp(100)).unwrap();
        assert_eq!(t.percentile, 90.0);
        assert_eq!(t.value, 90.0);
        assert_eq!(t.beyond, 10);
        assert_eq!(t.samples, 100);
    }

    #[test]
    fn forty_samples_give_p75() {
        let t = tail(&ramp(40)).unwrap();
        assert_eq!(t.percentile, 75.0);
        assert_eq!(t.value, 30.0);
        assert_eq!(t.beyond, 10);
    }

    #[test]
    fn thousand_samples_give_p99() {
        let t = tail(&ramp(1000)).unwrap();
        assert_eq!(t.percentile, 99.0);
        assert_eq!(t.beyond, 10);
    }

    #[test]
    fn twenty_samples_fall_back_to_the_median_rank() {
        let t = tail(&ramp(20)).unwrap();
        assert_eq!(t.percentile, 50.0);
        assert_eq!(t.beyond, 10);
    }

    #[test]
    fn uneven_counts_keep_ten_beyond() {
        for n in 20..400 {
            let t = tail(&ramp(n)).unwrap();
            assert!(t.beyond >= TAIL_BEYOND, "n = {n}: {t:?}");
            // One tenth of a percent higher would leave fewer than ten.
            let next = ((t.percentile * 10.0) as usize + 1) * n;
            if t.percentile < 99.9 {
                assert!(n - next.div_ceil(1000) < TAIL_BEYOND, "n = {n}: {t:?}");
            }
        }
    }

    #[test]
    fn too_few_samples_have_no_tail() {
        assert_eq!(tail(&ramp(19)), None);
        assert_eq!(tail(&[]), None);
    }

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
