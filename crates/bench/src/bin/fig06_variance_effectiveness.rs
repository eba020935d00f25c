//! Figure 6: effectiveness of the eight within-segment variance designs.
//!
//! Protocol (§4.2.2): per dataset and metric, rank the ground-truth
//! segmentation's objective among `--samples` random schemes of the same
//! K; then rank the eight metrics against each other per dataset; report
//! each metric's average rank per SNR level. Lower rank = better metric;
//! the paper finds `tse` best at every SNR.
//!
//! `--datasets N` (default 20 per SNR) and `--samples N` (default 10000)
//! trade fidelity for speed.

use rand::rngs::StdRng;
use rand::SeedableRng;
use tsexplain_bench::arg_usize;
use tsexplain_cube::{CubeConfig, ExplanationCube};
use tsexplain_datagen::synthetic::{SyntheticConfig, SyntheticDataset};
use tsexplain_diff::{DiffMetric, TopExplStrategy};
use tsexplain_eval::{average_ranks, ground_truth_rank, random_segmentation, rank_ascending};
use tsexplain_segment::{Segmentation, SegmentationContext, VarianceMetric};

fn main() {
    let n_datasets = arg_usize("--datasets", 20);
    let n_samples = arg_usize("--samples", 10_000);
    let snrs = [20.0, 25.0, 30.0, 35.0, 40.0, 45.0, 50.0];

    println!(
        "Figure 6 — average metric rank vs SNR ({n_datasets} datasets/SNR, {n_samples} samples)"
    );
    print!("{:<8}", "SNR");
    for metric in VarianceMetric::ALL {
        print!("{:<10}", metric.to_string());
    }
    println!();

    for &snr in &snrs {
        let mut per_dataset_ranks: Vec<Vec<f64>> = Vec::new();
        for seed in 0..n_datasets as u64 {
            let dataset = SyntheticDataset::generate(SyntheticConfig {
                snr_db: Some(snr),
                seed,
                ..SyntheticConfig::default()
            });
            let relation = dataset.to_relation();
            let cube =
                ExplanationCube::build(&relation, &dataset.query(), &CubeConfig::new(["category"]))
                    .expect("cube");
            let n = dataset.config.n_points;
            let gt = Segmentation::new(n, dataset.ground_truth_cuts.clone()).expect("valid gt");

            // The same sampled schemes are scored under every metric.
            let mut rng = StdRng::seed_from_u64(1000 + seed);
            let samples: Vec<Segmentation> = (0..n_samples)
                .map(|_| random_segmentation(&mut rng, n, gt.k()))
                .collect();

            let gt_ranks: Vec<f64> = VarianceMetric::ALL
                .iter()
                .map(|&metric| {
                    let mut ctx = SegmentationContext::new(
                        &cube,
                        DiffMetric::AbsoluteChange,
                        3,
                        TopExplStrategy::Exact,
                        metric,
                    );
                    ground_truth_rank(&mut ctx, &gt, &samples) as f64
                })
                .collect();
            per_dataset_ranks.push(rank_ascending(&gt_ranks));
        }
        let avg = average_ranks(&per_dataset_ranks);
        print!("{:<8}", snr);
        for a in &avg {
            print!("{:<10.2}", a);
        }
        println!();
    }
    println!("\n(lower is better; the paper reports tse with the best rank at every SNR)");
}
