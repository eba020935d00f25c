//! Property tests for the histogram: the merge is associative, quantile
//! estimates bound the exact sorted oracle, and totals are independent
//! of how samples are spread across recording threads.

use proptest::prelude::*;
use std::sync::Arc;
use tsexplain_obs::{bucket_index, Histogram, BUCKET_BOUNDS_NANOS};

fn filled(samples: &[u64]) -> Histogram {
    let h = Histogram::new();
    for &s in samples {
        h.record_nanos(s);
    }
    h
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// (a ⊕ b) ⊕ c and a ⊕ (b ⊕ c) leave identical counters.
    #[test]
    fn merge_is_associative(
        a in proptest::collection::vec(0u64..100_000_000_000, 0..40),
        b in proptest::collection::vec(0u64..100_000_000_000, 0..40),
        c in proptest::collection::vec(0u64..100_000_000_000, 0..40),
    ) {
        let left = filled(&a);
        left.merge_from(&filled(&b));
        left.merge_from(&filled(&c));

        let bc = filled(&b);
        bc.merge_from(&filled(&c));
        let right = filled(&a);
        right.merge_from(&bc);

        prop_assert_eq!(left.snapshot(), right.snapshot());
    }

    /// The estimate never under-reports the exact sorted-oracle value,
    /// never exceeds the upper bound of the exact value's bucket or the
    /// observed max, and does not decrease as `q` grows.
    #[test]
    fn quantile_bounds_the_exact_oracle(
        mut samples in proptest::collection::vec(1u64..80_000_000_000, 1..200),
        q_permille in 1u64..1000,
        q_step in 0u64..1000,
    ) {
        let q = q_permille as f64 / 1000.0;
        let snap = filled(&samples).snapshot();
        samples.sort_unstable();
        let rank = ((q * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
        let exact = samples[rank - 1];
        let est = snap.quantile_nanos(q);
        prop_assert!(est >= exact, "estimate {est} under exact {exact}");
        let upper = match bucket_index(exact) {
            Some(i) => BUCKET_BOUNDS_NANOS[i],
            None => snap.max_nanos,
        };
        prop_assert!(est <= upper, "estimate {est} above bucket bound {upper}");
        prop_assert!(est <= snap.max_nanos, "estimate {est} above max {}", snap.max_nanos);
        let q_higher = (q_permille + q_step).min(1000) as f64 / 1000.0;
        let est_higher = snap.quantile_nanos(q_higher);
        prop_assert!(est <= est_higher, "q={q}: {est} > q={q_higher}: {est_higher}");
    }

    /// Recording the same multiset from one thread or four gives
    /// identical totals, buckets, sums, and quantiles.
    #[test]
    fn totals_are_thread_count_independent(
        samples in proptest::collection::vec(0u64..100_000_000_000, 1..120),
    ) {
        let sequential = filled(&samples).snapshot();

        let concurrent = Arc::new(Histogram::new());
        let chunk = samples.len().div_ceil(4);
        let handles: Vec<_> = samples
            .chunks(chunk)
            .map(|part| {
                let h = Arc::clone(&concurrent);
                let part = part.to_vec();
                std::thread::spawn(move || {
                    for s in part {
                        h.record_nanos(s);
                    }
                })
            })
            .collect();
        for handle in handles {
            handle.join().unwrap();
        }

        prop_assert_eq!(sequential, concurrent.snapshot());
    }
}
