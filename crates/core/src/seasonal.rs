use crate::error::TsExplainError;

/// An additive classical decomposition `series = trend + seasonal +
/// residual` (paper §8, "Seasonal Datasets", via its ref.\ 15).
///
/// Users of seasonal KPIs can decompose first and run TSExplain on the
/// trend (or explain the raw series and read the repeated explanation
/// pattern as the periodicity).
#[derive(Clone, Debug)]
pub struct Decomposition {
    /// Centered-moving-average trend.
    pub trend: Vec<f64>,
    /// Period-indexed seasonal component (mean-centred), tiled to the
    /// series length.
    pub seasonal: Vec<f64>,
    /// `series − trend − seasonal`.
    pub residual: Vec<f64>,
}

/// Classical additive decomposition with period `period`.
///
/// The trend is a centered moving average of length `period` (the usual
/// 2×m average for even periods); boundary positions reuse the nearest
/// interior trend value so every component has the series' length.
pub fn classical_decompose(series: &[f64], period: usize) -> Result<Decomposition, TsExplainError> {
    let n = series.len();
    if period < 2 || n < 2 * period {
        return Err(TsExplainError::PeriodTooLong { n, period });
    }

    // Centered moving average.
    let half = period / 2;
    let mut trend = vec![f64::NAN; n];
    if period % 2 == 1 {
        for t in half..n - half {
            trend[t] = series[t - half..=t + half].iter().sum::<f64>() / period as f64;
        }
    } else {
        // 2×m MA: average of two adjacent m-windows.
        for t in half..n - half {
            let a: f64 = series[t - half..t + half].iter().sum::<f64>() / period as f64;
            let b: f64 = series[t - half + 1..=t + half].iter().sum::<f64>() / period as f64;
            trend[t] = (a + b) / 2.0;
        }
    }
    // Extend to the boundaries.
    let first = trend[half];
    let last = trend[n - half - 1];
    trend[..half].fill(first);
    trend[n - half..].fill(last);

    // Seasonal means of the detrended series, per phase.
    let mut phase_sum = vec![0.0; period];
    let mut phase_count = vec![0usize; period];
    for t in 0..n {
        let d = series[t] - trend[t];
        phase_sum[t % period] += d;
        phase_count[t % period] += 1;
    }
    let mut phase_mean: Vec<f64> = phase_sum
        .iter()
        .zip(&phase_count)
        .map(|(s, &c)| s / c as f64)
        .collect();
    // Centre the seasonal component so it sums to ~0 over one period.
    let grand = phase_mean.iter().sum::<f64>() / period as f64;
    for m in &mut phase_mean {
        *m -= grand;
    }

    let seasonal: Vec<f64> = (0..n).map(|t| phase_mean[t % period]).collect();
    let residual: Vec<f64> = (0..n).map(|t| series[t] - trend[t] - seasonal[t]).collect();
    Ok(Decomposition {
        trend,
        seasonal,
        residual,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recovers_linear_trend_plus_sine() {
        let period = 12;
        let n = 120;
        let series: Vec<f64> = (0..n)
            .map(|t| {
                2.0 * t as f64 + 10.0 * (t as f64 * std::f64::consts::TAU / period as f64).sin()
            })
            .collect();
        let d = classical_decompose(&series, period).unwrap();
        // Interior trend should track 2t closely.
        for t in period..n - period {
            assert!((d.trend[t] - 2.0 * t as f64).abs() < 1.0, "t={t}");
        }
        // Seasonal repeats with the period and is non-trivial.
        for t in 0..n - period {
            assert!((d.seasonal[t] - d.seasonal[t + period]).abs() < 1e-9);
        }
        let amp = d
            .seasonal
            .iter()
            .cloned()
            .fold(0.0f64, |a, b| a.max(b.abs()));
        assert!(amp > 7.0, "seasonal amplitude {amp}");
        // Residuals are small away from the boundary.
        for t in period..n - period {
            assert!(
                d.residual[t].abs() < 1.5,
                "t={t} residual {}",
                d.residual[t]
            );
        }
    }

    #[test]
    fn components_reassemble_exactly() {
        let series: Vec<f64> = (0..40).map(|t| (t % 7) as f64 + t as f64 * 0.3).collect();
        let d = classical_decompose(&series, 7).unwrap();
        #[expect(
            clippy::needless_range_loop,
            reason = "t indexes four parallel series at once"
        )]
        for t in 0..40 {
            let sum = d.trend[t] + d.seasonal[t] + d.residual[t];
            assert!((sum - series[t]).abs() < 1e-9);
        }
    }

    #[test]
    fn seasonal_sums_to_zero_over_period() {
        let series: Vec<f64> = (0..48).map(|t| ((t % 8) as f64).powi(2)).collect();
        let d = classical_decompose(&series, 8).unwrap();
        let s: f64 = d.seasonal[..8].iter().sum();
        assert!(s.abs() < 1e-9);
    }

    #[test]
    fn rejects_too_short_series() {
        let series = vec![1.0; 10];
        assert!(classical_decompose(&series, 6).is_err());
        assert!(classical_decompose(&series, 1).is_err());
    }
}
