use crate::context::SegmentationContext;
use crate::dp::k_segmentation;

/// Parameters of the sketching optimization O2 (§5.3.2).
///
/// Paper defaults: `L = min(0.05·n, 20)` and `|S| = 3n / L`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SketchConfig {
    /// Fraction of `n` bounding the phase-I segment length.
    pub max_len_fraction: f64,
    /// Hard cap on the phase-I segment length `L`.
    pub max_len_cap: usize,
    /// Sketch size factor: `|S| = factor · n / L`.
    pub size_factor: f64,
}

impl Default for SketchConfig {
    fn default() -> Self {
        SketchConfig {
            max_len_fraction: 0.05,
            max_len_cap: 20,
            size_factor: 3.0,
        }
    }
}

impl SketchConfig {
    /// The phase-I length bound `L` for a series of `n` points.
    pub fn max_len(&self, n: usize) -> usize {
        (((self.max_len_fraction * n as f64).floor() as usize).min(self.max_len_cap)).max(2)
    }

    /// The sketch size `|S|` for a series of `n` points.
    pub fn sketch_size(&self, n: usize) -> usize {
        let l = self.max_len(n);
        ((self.size_factor * n as f64) / l as f64).floor() as usize
    }
}

/// Optimization O2, phase I — *sketch selection* (§5.3.2).
///
/// Runs the regular pipeline with every segment's length capped at `L`
/// (reducing the segment count from `O(n²)` to `O(L·n)`) and `K = |S|`;
/// the resulting cut positions are points that short-range evidence already
/// favours as boundaries, and become the only candidate cut positions of
/// the full-range phase II.
///
/// Returns the candidate positions *including both endpoints*, sorted. When
/// the sketch cannot prune anything (`|S| ≥ n − 1`, short series), all
/// positions are returned and phase II degenerates to the exact pipeline.
///
/// The positions are kept in the context's [`crate::SegmentMemo`], keyed
/// by `L`, `|S|`, `n` and the costs' key, so a call over a memo that holds
/// them reads them: it prices no band and runs no DP, yet counts the
/// band's cells as memo hits, so `ca_calls` is what a cold run reports.
/// Otherwise the band is priced (from the memo where it can be), the DP
/// runs on the context's segmentation clock
/// ([`SegmentationContext::timed_solve`]) and the positions are
/// published, unless the context was cancelled. The DP is sequential over
/// bit-identical costs, so the positions are the same at any thread count.
pub fn select_sketch(ctx: &mut SegmentationContext<'_>, config: &SketchConfig) -> Vec<usize> {
    let n = ctx.n_points();
    debug_assert!(n >= 2);
    let l = config.max_len(n);
    let s = config.sketch_size(n);
    if s + 1 >= n || n <= l {
        return (0..n).collect();
    }
    if let Some(served) = ctx.memo_sketch(l, s) {
        return served;
    }

    let positions: Vec<usize> = (0..n).collect();
    let costs = ctx.compute_costs(&positions, Some(l));
    let cuts = ctx.timed_solve(|| {
        let dp = k_segmentation(&costs, s);
        let k_use = dp.feasible_k_max().min(s);
        (k_use >= 2).then(|| dp.cuts(k_use).expect("feasible k"))
    });
    let out = match cuts {
        None => positions,
        Some(cuts) => {
            let mut out = Vec::with_capacity(cuts.len() + 2);
            out.push(0);
            out.extend(cuts); // position index == point index here
            out.push(n - 1);
            out
        }
    };
    ctx.publish_sketch(l, s, &out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memo::{SegmentMemo, Tables};
    use crate::variance::VarianceMetric;
    use std::sync::Arc;
    use tsexplain_cube::{CubeConfig, ExplanationCube};
    use tsexplain_diff::{DiffMetric, TopExplStrategy};
    use tsexplain_parallel::{CancelToken, ParallelCtx};
    use tsexplain_relation::{AggQuery, Datum, Field, Relation, Schema};

    /// A 60-point series where NY drives the first half and CA the second.
    fn cube() -> ExplanationCube {
        cube_of(60)
    }

    /// An `n`-point series where NY drives the first half and CA the second.
    fn cube_of(n: usize) -> ExplanationCube {
        let schema = Schema::new(vec![
            Field::dimension("d"),
            Field::dimension("state"),
            Field::measure("v"),
        ])
        .unwrap();
        let half = n / 2;
        let mut b = Relation::builder(schema);
        for t in 0..n {
            let ny = 10.0 * t.min(half - 1) as f64;
            let ca = 5.0 + 8.0 * t.saturating_sub(half) as f64;
            b.push_row(vec![
                Datum::from(format!("d{t:03}")),
                Datum::from("NY"),
                Datum::from(ny),
            ])
            .unwrap();
            b.push_row(vec![
                Datum::from(format!("d{t:03}")),
                Datum::from("CA"),
                Datum::from(ca),
            ])
            .unwrap();
        }
        ExplanationCube::build(
            &b.finish(),
            &AggQuery::sum("d", "v"),
            &CubeConfig::new(["state"]),
        )
        .unwrap()
    }

    fn context(cube: &ExplanationCube) -> SegmentationContext<'_> {
        SegmentationContext::new(
            cube,
            DiffMetric::AbsoluteChange,
            3,
            TopExplStrategy::Exact,
            VarianceMetric::Tse,
        )
    }

    #[test]
    fn default_parameters_match_paper() {
        let cfg = SketchConfig::default();
        assert_eq!(cfg.max_len(400), 20);
        assert_eq!(cfg.max_len(100), 5);
        assert_eq!(cfg.sketch_size(400), 60);
        assert_eq!(cfg.sketch_size(100), 60);
    }

    #[test]
    fn short_series_returns_all_positions() {
        let cube = cube();
        let mut ctx = context(&cube);
        // Default config on n=60: |S| = 3·60/3 = 60 ≥ n−1 → no pruning.
        let sketch = select_sketch(&mut ctx, &SketchConfig::default());
        assert_eq!(sketch.len(), 60);
    }

    #[test]
    fn sketch_prunes_and_keeps_true_cut() {
        let cube = cube();
        let mut ctx = context(&cube);
        let cfg = SketchConfig {
            max_len_fraction: 0.2,
            max_len_cap: 12,
            size_factor: 3.0,
        };
        // L = 12, |S| = 15 → real pruning with enough slack for the data
        // to place cuts where the contributors change.
        let sketch = select_sketch(&mut ctx, &cfg);
        assert!(sketch.len() < 60, "sketch should prune: {}", sketch.len());
        assert_eq!(*sketch.first().unwrap(), 0);
        assert_eq!(*sketch.last().unwrap(), 59);
        assert!(sketch.windows(2).all(|w| w[0] < w[1]));
        // The regime change at point 29/30 must survive pruning (±2).
        assert!(
            sketch.iter().any(|&p| (28..=32).contains(&p)),
            "true cut missing from sketch {sketch:?}"
        );
    }

    #[test]
    fn sketch_positions_within_bounds() {
        let cube = cube();
        let mut ctx = context(&cube);
        let cfg = SketchConfig {
            max_len_fraction: 0.1,
            max_len_cap: 6,
            size_factor: 1.5,
        };
        let sketch = select_sketch(&mut ctx, &cfg);
        assert!(sketch.iter().all(|&p| p < 60));
    }

    /// The band `L` of the default sketch on 400 points (`|S|` = 60).
    const BAND_400: usize = 20;

    #[test]
    fn a_memo_served_sketch_is_read_not_re_solved() {
        // n = 400: L = 20 and |S| = 60, so the sketch prunes.
        let cube = cube_of(400);
        let config = SketchConfig::default();
        assert_eq!(config.max_len(400), BAND_400);
        let mut ctx = context(&cube);
        let first = select_sketch(&mut ctx, &config);
        assert!(first.len() < 400, "sketch should prune: {}", first.len());
        let work = (ctx.ca_derivations(), ctx.memo_misses());
        let clock = ctx.latency().segmentation;
        let second = select_sketch(&mut ctx, &config);
        assert_eq!(second, first);
        // Nothing is derived or priced, and no DP runs on the clock…
        assert_eq!((ctx.ca_derivations(), ctx.memo_misses()), work);
        assert_eq!(ctx.latency().segmentation, clock);
        // …yet the counts are those of a cold context that priced the
        // band on each call.
        let all: Vec<usize> = (0..400).collect();
        let mut cold = context(&cube);
        for _ in 0..2 {
            let _ = cold.compute_costs(&all, Some(BAND_400));
        }
        assert_eq!(ctx.ca_calls(), cold.ca_calls());
        assert_eq!(ctx.memo_hits(), cold.memo_hits());
    }

    /// A memo over `cube`, advanced to it, that holds the default sketch
    /// but none of the costs its band read; and the sketch.
    fn memo_with_only_a_sketch(cube: &ExplanationCube) -> (Arc<SegmentMemo>, Vec<usize>) {
        let mut memo = Arc::new(SegmentMemo::default());
        SegmentMemo::advance(&mut memo, cube, 0);
        let mut ctx = context(cube).with_memo(Arc::clone(&memo));
        let positions = select_sketch(&mut ctx, &SketchConfig::default());
        memo.locked(Tables::forget_costs);
        (memo, positions)
    }

    #[test]
    fn a_served_sketch_prices_no_band() {
        let cube = cube_of(400);
        let (memo, positions) = memo_with_only_a_sketch(&cube);
        let mut cold = context(&cube);
        assert_eq!(
            select_sketch(&mut cold, &SketchConfig::default()),
            positions
        );
        let mut served = context(&cube).with_memo(memo);
        assert_eq!(
            select_sketch(&mut served, &SketchConfig::default()),
            positions
        );
        // The band's costs are gone, so any pricing would derive and miss.
        assert_eq!(served.ca_derivations(), 0);
        assert_eq!(served.memo_misses(), 0);
        assert_eq!(served.ca_calls(), cold.ca_calls());
    }

    #[test]
    fn only_a_changed_row_drops_a_sketch() {
        let cube = cube_of(400);
        let (mut memo, positions) = memo_with_only_a_sketch(&cube);
        // Whether a new context reads the sketch: a solved one re-prices
        // its band.
        let served = |memo: &Arc<SegmentMemo>| {
            let mut ctx = context(&cube).with_memo(Arc::clone(memo));
            assert_eq!(select_sketch(&mut ctx, &SketchConfig::default()), positions);
            ctx.memo_misses() == 0
        };
        SegmentMemo::advance(&mut memo, &cube, usize::MAX);
        assert!(served(&memo), "no row changed, yet the sketch was dropped");
        SegmentMemo::advance(&mut memo, &cube, 399);
        assert!(
            !served(&memo),
            "the last row changed, yet the sketch was kept"
        );
    }

    #[test]
    fn a_cancelled_sketch_is_not_published() {
        let cube = cube_of(400);
        let reference = select_sketch(&mut context(&cube), &SketchConfig::default());
        let mut memo = Arc::new(SegmentMemo::default());
        SegmentMemo::advance(&mut memo, &cube, 0);
        // 399 unit objects, then the token trips inside the band.
        let token = CancelToken::after_polls(1_000);
        let mut cancelled = context(&cube)
            .with_memo(Arc::clone(&memo))
            .with_parallel(ParallelCtx::sequential().with_cancel(token));
        let _ = select_sketch(&mut cancelled, &SketchConfig::default());
        assert!(cancelled.is_cancelled());
        // A later context solves the sketch over the whole band.
        let mut later = context(&cube).with_memo(memo);
        assert_eq!(
            select_sketch(&mut later, &SketchConfig::default()),
            reference
        );
        assert!(later.memo_misses() > 0);
    }
}
