//! The synthetic ground-truth corpus (paper §4.2.1, §7.1.1).
//!
//! Each dataset is one relation with schema `(T, category, sales)`. Every
//! category's time series is piecewise linear with randomly placed cutting
//! points and *alternating* up/down trends, which makes every per-category
//! cut necessary; the ground-truth segmentation of the aggregate is the
//! union of the per-category cuts. Gaussian noise is added per category at
//! a configurable SNR (dB).

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use tsexplain_relation::{AggQuery, Datum, Field, Relation, Schema};

use crate::noise::add_gaussian_noise;
use crate::workload::Workload;

/// Configuration of one synthetic dataset.
#[derive(Clone, Debug)]
pub struct SyntheticConfig {
    /// Series length n (paper: 100).
    pub n_points: usize,
    /// Number of categories (paper: 3, named a1, a2, a3).
    pub n_categories: usize,
    /// Cuts per category are drawn from `1..=max_cuts_per_category`.
    pub max_cuts_per_category: usize,
    /// Minimum distance between any two ground-truth cuts and from the
    /// endpoints (paper Fig. 4: observed minimum segment length 6).
    pub min_segment_len: usize,
    /// Gaussian noise level; `None` = clean (paper sweeps 20..=50 dB).
    pub snr_db: Option<f64>,
    /// RNG seed; every dataset is fully determined by its config.
    pub seed: u64,
}

impl Default for SyntheticConfig {
    fn default() -> Self {
        SyntheticConfig {
            n_points: 100,
            n_categories: 3,
            max_cuts_per_category: 3,
            min_segment_len: 6,
            snr_db: None,
            seed: 0,
        }
    }
}

/// A generated synthetic dataset with its ground truth.
#[derive(Clone, Debug)]
pub struct SyntheticDataset {
    /// The generating configuration.
    pub config: SyntheticConfig,
    /// Category labels (`a1`, `a2`, …).
    pub categories: Vec<String>,
    /// Noise-free per-category series.
    pub clean_series: Vec<Vec<f64>>,
    /// Noisy per-category series (equals `clean_series` when `snr_db` is
    /// `None`); values are clamped at 0 so the relation stays physical.
    pub noisy_series: Vec<Vec<f64>>,
    /// Per-category cutting points.
    pub category_cuts: Vec<Vec<usize>>,
    /// Ground-truth cuts of the aggregate: the union of category cuts.
    pub ground_truth_cuts: Vec<usize>,
}

impl SyntheticDataset {
    /// Generates a dataset from `config`.
    pub fn generate(config: SyntheticConfig) -> Self {
        assert!(config.n_points >= 10, "series too short");
        assert!(config.n_categories >= 1);
        let mut rng = StdRng::seed_from_u64(config.seed);

        // Rejection-sample per-category cuts until the union respects the
        // minimum gap, so ground-truth segments stay identifiable.
        let mut category_cuts: Vec<Vec<usize>> = Vec::new();
        let mut union: Vec<usize> = Vec::new();
        for attempt in 0..200 {
            category_cuts.clear();
            for _ in 0..config.n_categories {
                category_cuts.push(sample_cuts(&mut rng, &config));
            }
            union = category_cuts.iter().flatten().copied().collect();
            union.sort_unstable();
            union.dedup();
            let mut ok = union
                .windows(2)
                .all(|w| w[1] - w[0] >= config.min_segment_len);
            ok &= union.first().is_none_or(|&c| c >= config.min_segment_len);
            ok &= union
                .last()
                .is_none_or(|&c| config.n_points - 1 - c >= config.min_segment_len);
            if ok || attempt == 199 {
                break;
            }
        }

        let mut clean_series = Vec::with_capacity(config.n_categories);
        for cuts in &category_cuts {
            clean_series.push(piecewise_linear(&mut rng, config.n_points, cuts));
        }

        let mut noisy_series = clean_series.clone();
        if let Some(snr) = config.snr_db {
            for series in &mut noisy_series {
                add_gaussian_noise(series, snr, &mut rng);
                for v in series.iter_mut() {
                    *v = v.max(0.0);
                }
            }
        }

        let categories = (1..=config.n_categories).map(|i| format!("a{i}")).collect();
        SyntheticDataset {
            config,
            categories,
            clean_series,
            noisy_series,
            category_cuts,
            ground_truth_cuts: union,
        }
    }

    /// The ground-truth number of segments K.
    pub fn ground_truth_k(&self) -> usize {
        self.ground_truth_cuts.len() + 1
    }

    /// The aggregated (noisy) series: the sum over categories.
    pub fn aggregate(&self) -> Vec<f64> {
        let mut agg = vec![0.0; self.config.n_points];
        for series in &self.noisy_series {
            for (a, v) in agg.iter_mut().zip(series) {
                *a += v;
            }
        }
        agg
    }

    /// Materializes the dataset as a relation with schema
    /// `(T, category, sales)` and one row per `(t, category)`.
    ///
    /// The paper's query is `COUNT(sales)`; with one row per point carrying
    /// the series value as a SUM measure the aggregated series is
    /// identical, so [`SyntheticDataset::query`] uses `SUM(sales)`.
    pub fn to_relation(&self) -> Relation {
        // Category-major row order, kept bit-for-bit as it has always
        // been: row order seeds candidate-enumeration order, so changing
        // it could silently reshuffle tie-breaks in downstream results.
        let mut b = Relation::builder(self.schema());
        for (c, series) in self.noisy_series.iter().enumerate() {
            for (t, &v) in series.iter().enumerate() {
                b.push_row(vec![
                    Datum::Attr((t as i64).into()),
                    Datum::from(self.categories[c].as_str()),
                    Datum::from(v),
                ])
                .expect("schema-conformant row");
            }
        }
        b.finish()
    }

    /// The `(T, category, sales)` schema of [`SyntheticDataset::to_relation`].
    pub fn schema(&self) -> Schema {
        Schema::new(vec![
            Field::dimension("T"),
            Field::dimension("category"),
            Field::measure("sales"),
        ])
        .expect("static schema")
    }

    /// Raw rows (schema order) for timestamps `[lo, hi)`, in time-major
    /// order — the single source of truth for replaying this dataset into
    /// `ExplainSession::append_rows` or a serving wire protocol in
    /// windowed chunks (tail appends require non-decreasing timestamps,
    /// which [`SyntheticDataset::to_relation`]'s category-major order
    /// would violate).
    pub fn rows_between(&self, lo: usize, hi: usize) -> Vec<Vec<Datum>> {
        let hi = hi.min(self.config.n_points);
        let mut rows = Vec::new();
        for t in lo..hi {
            for (c, series) in self.noisy_series.iter().enumerate() {
                rows.push(vec![
                    Datum::Attr((t as i64).into()),
                    Datum::from(self.categories[c].as_str()),
                    Datum::from(series[t]),
                ]);
            }
        }
        rows
    }

    /// The aggregated-time-series query for this dataset.
    pub fn query(&self) -> AggQuery {
        AggQuery::sum("T", "sales")
    }

    /// The complete workload (relation + query + explain-by).
    pub fn workload(&self) -> Workload {
        Workload::new(
            format!("synthetic-seed{}", self.config.seed),
            self.to_relation(),
            self.query(),
            vec!["category".to_string()],
        )
    }
}

/// Draws cut positions for one category: `1..=max` cuts, each respecting
/// the minimum gap within the category.
fn sample_cuts(rng: &mut StdRng, config: &SyntheticConfig) -> Vec<usize> {
    let n = config.n_points;
    let gap = config.min_segment_len;
    let n_cuts = rng.random_range(1..=config.max_cuts_per_category);
    let mut cuts: Vec<usize> = Vec::with_capacity(n_cuts);
    for _ in 0..200 {
        if cuts.len() == n_cuts {
            break;
        }
        let c = rng.random_range(gap..n - gap);
        if cuts.iter().all(|&x: &usize| x.abs_diff(c) >= gap) {
            cuts.push(c);
        }
    }
    cuts.sort_unstable();
    cuts
}

/// Builds a piecewise-linear series over the segments defined by `cuts`,
/// with strictly alternating up/down trends (paper §4.2.1).
fn piecewise_linear(rng: &mut StdRng, n: usize, cuts: &[usize]) -> Vec<f64> {
    let mut anchors_pos = Vec::with_capacity(cuts.len() + 2);
    anchors_pos.push(0);
    anchors_pos.extend_from_slice(cuts);
    anchors_pos.push(n - 1);

    let mut up = rng.random_bool(0.5);
    let mut value: f64 = rng.random_range(200.0..600.0);
    let mut anchors_val = vec![value];
    for _ in 1..anchors_pos.len() {
        let delta = rng.random_range(100.0..400.0);
        value = if up { value + delta } else { value - delta };
        // Keep the series comfortably positive; alternation means the next
        // move reverses, so a one-off clamp cannot accumulate.
        value = value.max(30.0);
        anchors_val.push(value);
        up = !up;
    }

    let mut series = vec![0.0; n];
    for w in 0..anchors_pos.len() - 1 {
        let (p0, p1) = (anchors_pos[w], anchors_pos[w + 1]);
        let (v0, v1) = (anchors_val[w], anchors_val[w + 1]);
        #[expect(
            clippy::needless_range_loop,
            reason = "t is also the anchor-relative position in the interpolation"
        )]
        for t in p0..=p1 {
            let frac = if p1 == p0 {
                0.0
            } else {
                (t - p0) as f64 / (p1 - p0) as f64
            };
            series[t] = v0 + frac * (v1 - v0);
        }
    }
    series
}

/// The paper's synthetic corpus: 20 base datasets at each of the 7 SNR
/// levels `{20, 25, …, 50}` dB (§7.1.1: 140 datasets total).
pub fn paper_corpus() -> Vec<SyntheticDataset> {
    let mut out = Vec::with_capacity(140);
    for snr_step in 0..7 {
        let snr_db = 20.0 + 5.0 * snr_step as f64;
        for seed in 0..20u64 {
            out.push(SyntheticDataset::generate(SyntheticConfig {
                snr_db: Some(snr_db),
                seed,
                ..SyntheticConfig::default()
            }));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let a = SyntheticDataset::generate(SyntheticConfig::default());
        let b = SyntheticDataset::generate(SyntheticConfig::default());
        assert_eq!(a.clean_series, b.clean_series);
        assert_eq!(a.ground_truth_cuts, b.ground_truth_cuts);
    }

    #[test]
    fn different_seeds_differ() {
        let a = SyntheticDataset::generate(SyntheticConfig::default());
        let b = SyntheticDataset::generate(SyntheticConfig {
            seed: 1,
            ..SyntheticConfig::default()
        });
        assert_ne!(a.clean_series, b.clean_series);
    }

    #[test]
    fn ground_truth_is_union_of_category_cuts() {
        let d = SyntheticDataset::generate(SyntheticConfig::default());
        for cuts in &d.category_cuts {
            for c in cuts {
                assert!(d.ground_truth_cuts.contains(c));
            }
        }
        assert!(d.ground_truth_cuts.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn cuts_respect_min_gap() {
        for seed in 0..10 {
            let d = SyntheticDataset::generate(SyntheticConfig {
                seed,
                ..SyntheticConfig::default()
            });
            let gap = d.config.min_segment_len;
            let gt = &d.ground_truth_cuts;
            assert!(gt.windows(2).all(|w| w[1] - w[0] >= gap), "seed {seed}");
            assert!(gt
                .iter()
                .all(|&c| c >= gap && d.config.n_points - 1 - c >= gap));
        }
    }

    #[test]
    fn trends_alternate_in_clean_series() {
        let d = SyntheticDataset::generate(SyntheticConfig::default());
        for (cat, cuts) in d.category_cuts.iter().enumerate() {
            let series = &d.clean_series[cat];
            let mut bounds = vec![0];
            bounds.extend_from_slice(cuts);
            bounds.push(d.config.n_points - 1);
            let dirs: Vec<bool> = bounds
                .windows(2)
                .map(|w| series[w[1]] > series[w[0]])
                .collect();
            for w in dirs.windows(2) {
                assert_ne!(w[0], w[1], "adjacent segments must alternate");
            }
        }
    }

    #[test]
    fn series_stay_positive() {
        for seed in 0..5 {
            let d = SyntheticDataset::generate(SyntheticConfig {
                seed,
                snr_db: Some(20.0),
                ..SyntheticConfig::default()
            });
            for series in &d.noisy_series {
                assert!(series.iter().all(|&v| v >= 0.0));
            }
        }
    }

    #[test]
    fn relation_roundtrip_matches_aggregate() {
        let d = SyntheticDataset::generate(SyntheticConfig {
            snr_db: Some(35.0),
            seed: 4,
            ..SyntheticConfig::default()
        });
        let ts = d.query().run(&d.to_relation()).unwrap();
        let agg = d.aggregate();
        assert_eq!(ts.len(), d.config.n_points);
        for (a, b) in ts.values.iter().zip(&agg) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn paper_corpus_shape() {
        let corpus = paper_corpus();
        assert_eq!(corpus.len(), 140);
        let ks: Vec<usize> = corpus.iter().map(|d| d.ground_truth_k()).collect();
        // K varies across the corpus (paper Fig. 4: 2..10).
        assert!(ks.iter().min().unwrap() >= &2);
        assert!(ks.iter().max().unwrap() <= &10);
        assert!(ks.iter().collect::<std::collections::HashSet<_>>().len() > 2);
    }
}
