use tsexplain_segment::{Segmentation, SegmentationContext};

/// The *ground truth rank* of §4.2.2: `1 +` the number of sampled schemes
/// whose objective is strictly lower than the ground truth's. Rank 1 means
/// no sampled scheme beats the ground truth — the behaviour a good
/// variance design must show on clean data.
///
/// The study scores 10 000 sampled schemes per dataset per metric, but
/// distinct segments number only `O(n²)`: the context's segment-cost memo
/// prices each distinct segment once, so the study is linear in samples.
pub fn ground_truth_rank(
    ctx: &mut SegmentationContext<'_>,
    ground_truth: &Segmentation,
    samples: &[Segmentation],
) -> usize {
    let gt_score = ctx.objective(ground_truth);
    let better = ctx
        .objective_batch(samples)
        .into_iter()
        .filter(|&score| score < gt_score - 1e-12)
        .count();
    1 + better
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsexplain_cube::{CubeConfig, ExplanationCube};
    use tsexplain_diff::{DiffMetric, TopExplStrategy};
    use tsexplain_relation::{AggQuery, Datum, Field, Relation, Schema};
    use tsexplain_segment::VarianceMetric;

    /// Two clean phases: x drives points 0..5, y drives 5..10.
    fn cube() -> ExplanationCube {
        let schema = Schema::new(vec![
            Field::dimension("t"),
            Field::dimension("c"),
            Field::measure("v"),
        ])
        .unwrap();
        let mut b = Relation::builder(schema);
        for t in 0..10i64 {
            let x = if t <= 5 { 10.0 * t as f64 } else { 50.0 };
            let y = if t <= 5 {
                3.0
            } else {
                3.0 + 12.0 * (t - 5) as f64
            };
            for (c, v) in [("x", x), ("y", y)] {
                b.push_row(vec![Datum::Attr(t.into()), Datum::from(c), Datum::from(v)])
                    .unwrap();
            }
        }
        ExplanationCube::build(
            &b.finish(),
            &AggQuery::sum("t", "v"),
            &CubeConfig::new(["c"]),
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
    fn memo_avoids_recomputation() {
        let cube = cube();
        let mut ctx = context(&cube);
        let s1 = Segmentation::new(10, vec![5]).unwrap();
        let s2 = Segmentation::new(10, vec![5, 7]).unwrap();
        let samples = [s1.clone(), s2];
        let rank = ground_truth_rank(&mut ctx, &s1, &samples);
        assert_eq!(rank, 1);
        // (0,5) and (5,9) are shared between the ground truth and the
        // samples: four distinct segments are priced once each.
        assert_eq!(ctx.memo_misses(), 4);
        let derivations = ctx.ca_derivations();
        assert_eq!(
            ctx.objective(&s1).to_bits(),
            ctx.objective_batch(&samples)[0].to_bits()
        );
        assert_eq!(ctx.ca_derivations(), derivations);
    }

    #[test]
    fn ground_truth_ranks_first_on_clean_data() {
        let cube = cube();
        let mut ctx = context(&cube);
        let gt = Segmentation::new(10, vec![5]).unwrap();
        let samples: Vec<Segmentation> = (1..9)
            .map(|c| Segmentation::new(10, vec![c]).unwrap())
            .collect();
        let rank = ground_truth_rank(&mut ctx, &gt, &samples);
        assert_eq!(rank, 1, "true cut must score best");
    }

    #[test]
    fn bad_scheme_ranks_behind_good_samples() {
        let cube = cube();
        let mut ctx = context(&cube);
        let bad = Segmentation::new(10, vec![1]).unwrap();
        let samples = vec![Segmentation::new(10, vec![5]).unwrap()];
        let rank = ground_truth_rank(&mut ctx, &bad, &samples);
        assert_eq!(rank, 2);
    }
}
