//! Ground-truth recovery on the synthetic corpus (the §7.3 protocol):
//! with the oracle K, TSExplain's cuts must land near the true cuts on
//! clean data, and the `tse` objective must prefer the ground truth.

use tsexplain::{ExplainRequest, ExplainSession, Optimizations, Segmentation, VarianceMetric};
use tsexplain_cube::{CubeConfig, ExplanationCube};
use tsexplain_datagen::synthetic::{SyntheticConfig, SyntheticDataset};
use tsexplain_diff::{DiffMetric, TopExplStrategy};
use tsexplain_eval::{distance_percent, ground_truth_rank, random_segmentation};
use tsexplain_segment::SegmentationContext;

fn explain_with_oracle_k(dataset: &SyntheticDataset) -> Segmentation {
    let workload = dataset.workload();
    let mut session =
        ExplainSession::new(workload.relation.clone(), workload.query.clone()).unwrap();
    session
        .explain(
            &ExplainRequest::new(workload.explain_by.clone())
                .with_optimizations(Optimizations::none())
                .with_fixed_k(dataset.ground_truth_k()),
        )
        .unwrap()
        .segmentation
}

#[test]
fn clean_data_recovers_ground_truth_nearly_exactly() {
    for seed in [0, 1, 2] {
        let dataset = SyntheticDataset::generate(SyntheticConfig {
            snr_db: Some(50.0),
            seed,
            ..SyntheticConfig::default()
        });
        let ours = explain_with_oracle_k(&dataset);
        let dp = distance_percent(&ours, &dataset.ground_truth_cuts);
        assert!(
            dp < 1.0,
            "seed {seed}: distance percent {dp} (cuts {:?} vs gt {:?})",
            ours.cuts(),
            dataset.ground_truth_cuts
        );
    }
}

#[test]
fn noisy_data_stays_reasonable() {
    let mut total = 0.0;
    let seeds = [0u64, 1, 2, 3];
    for &seed in &seeds {
        let dataset = SyntheticDataset::generate(SyntheticConfig {
            snr_db: Some(25.0),
            seed,
            ..SyntheticConfig::default()
        });
        let ours = explain_with_oracle_k(&dataset);
        total += distance_percent(&ours, &dataset.ground_truth_cuts);
    }
    let avg = total / seeds.len() as f64;
    assert!(avg < 8.0, "average distance percent {avg} at 25 dB");
}

#[test]
fn ground_truth_ranks_first_among_samples_on_clean_data() {
    // The §4.2.2 effectiveness protocol in miniature: on a clean dataset
    // the ground truth should beat (or tie) every randomly sampled scheme
    // under the tse metric.
    let dataset = SyntheticDataset::generate(SyntheticConfig {
        snr_db: Some(50.0),
        seed: 5,
        ..SyntheticConfig::default()
    });
    let relation = dataset.to_relation();
    let cube = ExplanationCube::build(&relation, &dataset.query(), &CubeConfig::new(["category"]))
        .unwrap();
    let mut ctx = SegmentationContext::new(
        &cube,
        DiffMetric::AbsoluteChange,
        3,
        TopExplStrategy::Exact,
        VarianceMetric::Tse,
    );
    let gt = Segmentation::new(dataset.config.n_points, dataset.ground_truth_cuts.clone()).unwrap();
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(99);
    let samples: Vec<Segmentation> = (0..500)
        .map(|_| random_segmentation(&mut rng, dataset.config.n_points, gt.k()))
        .collect();
    let rank = ground_truth_rank(&mut ctx, &gt, &samples);
    assert!(rank <= 5, "ground truth rank {rank} of 501");
}

#[test]
fn auto_k_lands_near_ground_truth_k_on_clean_data() {
    let dataset = SyntheticDataset::generate(SyntheticConfig {
        snr_db: Some(45.0),
        seed: 7,
        ..SyntheticConfig::default()
    });
    let workload = dataset.workload();
    let mut session =
        ExplainSession::new(workload.relation.clone(), workload.query.clone()).unwrap();
    let result = session
        .explain(
            &ExplainRequest::new(workload.explain_by.clone())
                .with_optimizations(Optimizations::none()),
        )
        .unwrap();
    let gt_k = dataset.ground_truth_k();
    assert!(
        result.chosen_k.abs_diff(gt_k) <= 2,
        "elbow K {} vs ground truth {gt_k}",
        result.chosen_k
    );
}
