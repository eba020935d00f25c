//! Property-based tests for the diff layer: Cascading Analysts optimality
//! against a brute-force oracle, guess-and-verify exactness, and score
//! invariants.

use proptest::prelude::*;
use tsexplain_cube::{CubeConfig, ExplId, ExplanationCube};
use tsexplain_diff::{CascadingAnalysts, DiffMetric, Effect, GuessVerify, ScoreContext};
use tsexplain_relation::{AggFn, AggQuery, Datum, Field, MeasureExpr, Relation, Schema};

/// Small two-attribute instances keep the brute-force subset oracle cheap.
fn rows_strategy() -> impl Strategy<Value = Vec<(u8, u8, u8, f64)>> {
    proptest::collection::vec((0u8..3, 0u8..3, 0u8..2, 0.1f64..50.0), 6..40)
}

fn build_cube(rows: &[(u8, u8, u8, f64)]) -> ExplanationCube {
    let schema = Schema::new(vec![
        Field::dimension("t"),
        Field::dimension("a"),
        Field::dimension("b"),
        Field::measure("v"),
    ])
    .unwrap();
    let mut builder = Relation::builder(schema);
    for &(t, a, b, v) in rows {
        builder
            .push_row(vec![
                Datum::Attr((t as i64).into()),
                Datum::Attr((a as i64).into()),
                Datum::Attr((b as i64).into()),
                Datum::from(v),
            ])
            .unwrap();
    }
    ExplanationCube::build(
        &builder.finish(),
        &AggQuery::sum("t", "v"),
        &CubeConfig::new(["a", "b"]).without_redundancy_pruning(),
    )
    .unwrap()
}

/// Builds the same relation as [`build_cube`] but under an arbitrary
/// aggregate function — the bit-parity sweep covers every `AggFn`.
fn build_cube_with_agg(rows: &[(u8, u8, u8, f64)], agg: AggFn) -> ExplanationCube {
    let schema = Schema::new(vec![
        Field::dimension("t"),
        Field::dimension("a"),
        Field::dimension("b"),
        Field::measure("v"),
    ])
    .unwrap();
    let mut builder = Relation::builder(schema);
    for &(t, a, b, v) in rows {
        builder
            .push_row(vec![
                Datum::Attr((t as i64).into()),
                Datum::Attr((a as i64).into()),
                Datum::Attr((b as i64).into()),
                Datum::from(v),
            ])
            .unwrap();
    }
    ExplanationCube::build(
        &builder.finish(),
        &AggQuery::new("t", agg, MeasureExpr::column("v")),
        &CubeConfig::new(["a", "b"]).without_redundancy_pruning(),
    )
    .unwrap()
}

/// Best total γ over every non-overlapping subset of ≤ m candidates.
fn brute_force(cube: &ExplanationCube, seg: (usize, usize), m: usize) -> f64 {
    let ctx = ScoreContext::new(cube, DiffMetric::AbsoluteChange);
    let n = cube.n_candidates();
    assert!(n <= 20, "oracle too slow for {n}");
    let mut best = 0.0f64;
    for mask in 0u32..(1 << n) {
        if (mask.count_ones() as usize) > m {
            continue;
        }
        let chosen: Vec<ExplId> = (0..n as ExplId).filter(|&e| mask & (1 << e) != 0).collect();
        let ok = chosen.iter().enumerate().all(|(i, &a)| {
            chosen[i + 1..]
                .iter()
                .all(|&b| !cube.explanation(a).overlaps(cube.explanation(b)))
        });
        if ok {
            let score: f64 = chosen.iter().map(|&e| ctx.gamma(e, seg)).sum();
            best = best.max(score);
        }
    }
    best
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// CA finds the optimal non-overlapping set whenever the candidate
    /// space is small enough to enumerate.
    #[test]
    fn cascading_matches_brute_force(rows in rows_strategy(), m in 1usize..4) {
        let cube = build_cube(&rows);
        if cube.n_points() < 2 || cube.n_candidates() > 20 {
            return Ok(());
        }
        let seg = (0, cube.n_points() - 1);
        let mut ca = CascadingAnalysts::new(&cube, DiffMetric::AbsoluteChange, m);
        let (top, best) = ca.top_m_with_best(seg);
        let oracle = brute_force(&cube, seg, m);
        prop_assert!((top.total_score() - oracle).abs() < 1e-6,
            "m={m}: CA {} vs oracle {oracle}", top.total_score());
        prop_assert!((best[m] - oracle).abs() < 1e-6);
        // Selected explanations are pairwise non-overlapping.
        for (i, x) in top.items().iter().enumerate() {
            for y in &top.items()[i + 1..] {
                prop_assert!(!cube.explanation(x.id).overlaps(cube.explanation(y.id)));
            }
        }
    }

    /// Guess-and-verify returns the same optimum as exact CA for any
    /// initial guess.
    #[test]
    fn guess_verify_is_exact(rows in rows_strategy(), m in 1usize..4, initial in 1usize..8) {
        let cube = build_cube(&rows);
        if cube.n_points() < 2 {
            return Ok(());
        }
        let seg = (0, cube.n_points() - 1);
        let mut ca = CascadingAnalysts::new(&cube, DiffMetric::AbsoluteChange, m);
        let exact = ca.top_m(seg).total_score();
        let mut gv = GuessVerify::new(&cube, initial);
        let (approx, _) = gv.top_m(&mut ca, seg);
        prop_assert!((approx.total_score() - exact).abs() < 1e-6,
            "gv {} vs exact {exact}", approx.total_score());
    }

    /// γ is non-negative under every metric, and effect matches the
    /// contribution sign.
    #[test]
    fn score_invariants(rows in rows_strategy()) {
        let cube = build_cube(&rows);
        if cube.n_points() < 2 {
            return Ok(());
        }
        for metric in DiffMetric::ALL {
            let ctx = ScoreContext::new(&cube, metric);
            for e in 0..cube.n_candidates() as ExplId {
                for a in 0..cube.n_points() - 1 {
                    let seg = (a, cube.n_points() - 1);
                    let gamma = ctx.gamma(e, seg);
                    prop_assert!(gamma >= 0.0 && gamma.is_finite());
                    let contribution = ctx.contribution(e, seg);
                    prop_assert_eq!(ctx.effect(e, seg), Effect::of(contribution));
                }
            }
        }
    }

    /// The columnar batched scorer is bit-for-bit identical to the scalar
    /// scorer across every difference metric × aggregate function ×
    /// random segment — the contract that lets every hot loop switch to
    /// `gamma_all` without moving a single golden byte. Also pins the
    /// id-list scan: listed entries match the full scan bit for bit and
    /// unlisted slots keep whatever the buffer held.
    #[test]
    fn batched_gamma_matches_scalar_bitwise(
        rows in rows_strategy(),
        agg_idx in 0usize..4,
        lo in 0usize..8,
        span in 1usize..8,
    ) {
        let cube = build_cube_with_agg(&rows, AggFn::ALL[agg_idx]);
        let n = cube.n_points();
        if n < 2 {
            return Ok(());
        }
        let a = lo % (n - 1);
        let b = (a + 1 + span % (n - 1 - a).max(1)).min(n - 1);
        let seg = (a, b);
        let n_cand = cube.n_candidates();
        // A nontrivial list: every third candidate left out.
        let ids: Vec<ExplId> = (0..n_cand as ExplId).filter(|e| e % 3 != 2).collect();
        let untouched = f64::from_bits(0x7ff8_0000_dead_beef);
        for metric in DiffMetric::ALL {
            let ctx = ScoreContext::new(&cube, metric);
            let mut batched = vec![f64::NAN; n_cand];
            ctx.gamma_all(seg, &mut batched);
            for e in 0..n_cand as ExplId {
                let scalar = ctx.gamma(e, seg);
                prop_assert_eq!(
                    batched[e as usize].to_bits(),
                    scalar.to_bits(),
                    "{} / {:?} seg {:?} candidate {}: batched {} vs scalar {}",
                    metric, AggFn::ALL[agg_idx], seg, e, batched[e as usize], scalar
                );
            }
            let mut listed = vec![untouched; n_cand];
            ctx.gamma_ids(seg, &ids, &mut listed);
            for e in 0..n_cand {
                let expected = if e % 3 != 2 { batched[e] } else { untouched };
                prop_assert_eq!(listed[e].to_bits(), expected.to_bits());
            }
        }
    }

    /// For SUM, signed order-1 contributions along one attribute add up to
    /// the segment's total delta.
    #[test]
    fn contributions_partition_delta(rows in rows_strategy()) {
        let cube = build_cube(&rows);
        if cube.n_points() < 2 {
            return Ok(());
        }
        let seg = (0, cube.n_points() - 1);
        let ctx = ScoreContext::new(&cube, DiffMetric::AbsoluteChange);
        let delta = cube.total_value(seg.1) - cube.total_value(seg.0);
        for attr in 0..2u16 {
            let sum: f64 = (0..cube.n_candidates() as ExplId)
                .filter(|&e| {
                    let x = cube.explanation(e);
                    x.order() == 1 && x.constrains(attr)
                })
                .map(|e| ctx.contribution(e, seg))
                .sum();
            prop_assert!((sum - delta).abs() < 1e-6, "attr {attr}: {sum} vs {delta}");
        }
    }
}
