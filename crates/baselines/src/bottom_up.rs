use crate::common::interpolation_sse;

/// Bottom-Up piecewise-linear segmentation (Keogh et al. (paper ref. 21)).
///
/// Starts from the finest boundary-sharing segmentation (every unit
/// segment on its own) and repeatedly merges the adjacent pair whose
/// merged segment has the lowest linear-interpolation error, until `k`
/// segments remain. Keogh et al. report this as the best offline
/// shape-based segmenter, and the paper finds it the most competitive
/// explanation-agnostic baseline (§7.3).
///
/// Returns the K−1 interior cut positions.
pub fn bottom_up(series: &[f64], k: usize) -> Vec<usize> {
    let n = series.len();
    assert!(n >= 2, "need at least two points");
    let k = k.clamp(1, n - 1);
    cuts_after_merges(n, &merge_order(series, k), k)
}

/// The interior boundaries of [`bottom_up`]'s greedy loop in the order it
/// removes them, merging down to `down_to` segments (clamped to
/// `1..=n − 1`): `n − 1 − down_to` boundaries.
///
/// A step's choice reads only the boundaries left, never the target, and
/// ties go to the first minimum, so the boundaries left after the first
/// `n − 1 − k` removals are [`bottom_up`]`(series, k)`'s cuts for every
/// `k ≥ down_to` ([`cuts_after_merges`]). One pass down to one segment
/// therefore proposes every K of an auto-K sweep.
pub(crate) fn merge_order(series: &[f64], down_to: usize) -> Vec<usize> {
    let n = series.len();
    assert!(n >= 2, "need at least two points");
    let down_to = down_to.clamp(1, n - 1);

    // Boundaries of the current segmentation (all points initially).
    let mut bounds: Vec<usize> = (0..n).collect();
    // merge_cost[i] = error of merging segments i and i+1, i.e. the SSE of
    // the would-be segment (bounds[i], bounds[i+2]).
    let mut merge_cost: Vec<f64> = (0..bounds.len() - 2)
        .map(|i| interpolation_sse(series, bounds[i], bounds[i + 2]))
        .collect();
    let mut removed = Vec::with_capacity(n - 1 - down_to);

    while bounds.len() - 1 > down_to {
        let (best, _) = merge_cost
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
            .expect("at least one merge available");
        // Merging segments `best` and `best+1` removes boundary best+1.
        removed.push(bounds.remove(best + 1));
        merge_cost.remove(best);
        // Refresh the costs that involve the merged segment.
        if best < merge_cost.len() {
            merge_cost[best] = interpolation_sse(series, bounds[best], bounds[best + 2]);
        }
        if best > 0 {
            merge_cost[best - 1] = interpolation_sse(series, bounds[best - 1], bounds[best + 1]);
        }
    }
    removed
}

/// The K−1 interior cuts of an `n`-point series left after the first
/// `n − 1 − k` removals of `order`, a [`merge_order`] down to `k` or
/// fewer segments (`k` clamped to `1..=n − 1`).
pub(crate) fn cuts_after_merges(n: usize, order: &[usize], k: usize) -> Vec<usize> {
    let k = k.clamp(1, n - 1);
    let mut kept = vec![true; n];
    for &boundary in &order[..n - 1 - k] {
        kept[boundary] = false;
    }
    (1..n - 1).filter(|&b| kept[b]).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The greedy loop run once per K, merging until `k` segments remain:
    /// the reference that one merge order must reproduce for every K.
    fn reference(series: &[f64], k: usize) -> Vec<usize> {
        let n = series.len();
        let k = k.clamp(1, n - 1);
        let mut bounds: Vec<usize> = (0..n).collect();
        let mut merge_cost: Vec<f64> = (0..bounds.len() - 2)
            .map(|i| interpolation_sse(series, bounds[i], bounds[i + 2]))
            .collect();
        while bounds.len() - 1 > k {
            let (best, _) = merge_cost
                .iter()
                .enumerate()
                .min_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
                .expect("at least one merge available");
            bounds.remove(best + 1);
            merge_cost.remove(best);
            if best < merge_cost.len() {
                merge_cost[best] = interpolation_sse(series, bounds[best], bounds[best + 2]);
            }
            if best > 0 {
                merge_cost[best - 1] =
                    interpolation_sse(series, bounds[best - 1], bounds[best + 1]);
            }
        }
        bounds[1..bounds.len() - 1].to_vec()
    }

    /// A series of `n` points from runs of a few values, so merge costs
    /// tie often (constant runs merge at zero error), with magnitudes up to
    /// 1e12 mixed in.
    fn drawn_series(n: usize, runs: &[(u8, usize)]) -> Vec<f64> {
        let mut series = Vec::with_capacity(n);
        let mut runs = runs.iter().cycle();
        while series.len() < n {
            let &(value, len) = runs.next().expect("at least one run");
            let value = match value {
                0 => 0.0,
                1 => 1.0,
                2 => 2.0,
                3 => -1.0,
                4 => 0.5,
                5 => 1e12,
                _ => -1e12,
            };
            series.resize(n.min(series.len() + len), value);
        }
        series
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn one_merge_order_is_the_per_k_greedy_loop(
            n in 2usize..201,
            runs in proptest::collection::vec((0u8..7, 1usize..6), 1..40),
        ) {
            let series = drawn_series(n, &runs);
            for k in 1..n {
                prop_assert_eq!(bottom_up(&series, k), reference(&series, k), "n={} k={}", n, k);
            }
        }
    }

    #[test]
    fn recovers_piecewise_linear_knees() {
        // Three exact linear pieces with knees at 4 and 9.
        let mut series = Vec::new();
        for t in 0..=4 {
            series.push(2.0 * t as f64);
        }
        for t in 1..=5 {
            series.push(8.0 - 1.5 * t as f64);
        }
        for t in 1..=5 {
            series.push(0.5 + 3.0 * t as f64);
        }
        let cuts = bottom_up(&series, 3);
        assert_eq!(cuts, vec![4, 9]);
    }

    #[test]
    fn k_one_returns_no_cuts() {
        let series = [1.0, 3.0, 2.0, 5.0];
        assert!(bottom_up(&series, 1).is_empty());
    }

    #[test]
    fn k_max_keeps_every_point() {
        let series = [1.0, 3.0, 2.0, 5.0];
        assert_eq!(bottom_up(&series, 3), vec![1, 2]);
    }

    #[test]
    fn cuts_are_sorted_interior_positions() {
        let series: Vec<f64> = (0..50)
            .map(|t| if t < 25 { t as f64 } else { 50.0 - t as f64 })
            .collect();
        let cuts = bottom_up(&series, 5);
        assert_eq!(cuts.len(), 4);
        assert!(cuts.windows(2).all(|w| w[0] < w[1]));
        assert!(cuts.iter().all(|&c| c > 0 && c < 49));
    }

    #[test]
    fn noisy_step_series_cut_near_step() {
        let series: Vec<f64> = (0..40)
            .map(|t| {
                let base = if t < 20 { 0.0 } else { 100.0 };
                base + (t % 3) as f64 * 0.1
            })
            .collect();
        let cuts = bottom_up(&series, 2);
        assert_eq!(cuts.len(), 1);
        assert!((18..=22).contains(&cuts[0]), "cut at {}", cuts[0]);
    }
}
