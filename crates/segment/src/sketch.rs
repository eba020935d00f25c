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
/// The DP is charged to the context's segmentation clock
/// ([`SegmentationContext::timed_solve`]); its costs come from the memo
/// when they are known, but the DP runs on every call.
pub fn select_sketch(ctx: &mut SegmentationContext<'_>, config: &SketchConfig) -> Vec<usize> {
    let n = ctx.n_points();
    debug_assert!(n >= 2);
    let l = config.max_len(n);
    let s = config.sketch_size(n);
    if s + 1 >= n || n <= l {
        return (0..n).collect();
    }

    let positions: Vec<usize> = (0..n).collect();
    let costs = ctx.compute_costs(&positions, Some(l));
    let cuts = ctx.timed_solve(|| {
        let dp = k_segmentation(&costs, s);
        let k_use = dp.feasible_k_max().min(s);
        (k_use >= 2).then(|| dp.cuts(k_use).expect("feasible k"))
    });
    let Some(cuts) = cuts else {
        return (0..n).collect();
    };

    let mut out = Vec::with_capacity(cuts.len() + 2);
    out.push(0);
    out.extend(cuts); // position index == point index here
    out.push(n - 1);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::variance::VarianceMetric;
    use tsexplain_cube::{CubeConfig, ExplanationCube};
    use tsexplain_diff::{DiffMetric, TopExplStrategy};
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

    #[test]
    fn a_memo_served_sketch_still_charges_its_dp() {
        // n = 400: L = 20 and |S| = 60, so the sketch prunes.
        let cube = cube_of(400);
        let mut ctx = context(&cube);
        let first = select_sketch(&mut ctx, &SketchConfig::default());
        assert!(first.len() < 400, "sketch should prune: {}", first.len());
        let work = (ctx.ca_derivations(), ctx.memo_misses());
        let clock = ctx.latency().segmentation;
        let second = select_sketch(&mut ctx, &SketchConfig::default());
        assert_eq!(second, first);
        // Every cost is served from the memo: nothing is derived or priced…
        assert_eq!((ctx.ca_derivations(), ctx.memo_misses()), work);
        // …yet the DP runs again, and on the segmentation clock.
        assert!(ctx.latency().segmentation > clock);
    }
}
