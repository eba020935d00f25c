//! Property-based tests for the diff layer: Cascading Analysts optimality
//! against a brute-force oracle, guess-and-verify exactness (and its
//! agreement with exact CA where the engine switches), score invariants,
//! and the selectable-plane scan against the id-list scan.

use proptest::prelude::*;
use tsexplain_cube::{CubeConfig, ExplId, ExplanationCube, IncrementalCube};
use tsexplain_diff::{CascadingAnalysts, DiffMetric, Effect, GuessVerify, ScoreContext};
use tsexplain_relation::{AggFn, AggQuery, AttrValue, Datum, Field, MeasureExpr, Relation, Schema};

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

/// A one-attribute SUM cube over `n_points` timestamps whose category `c`
/// holds `LEVELS[level[c][t]] + t · nudge[c]` at point `t`: with two to
/// four levels, γ ties are everywhere and only the id can break them; a
/// nudge of 1e-10 turns exact ties into near-ties, scores that differ by
/// less than the walk-back's 1e-9 tolerance.
fn tied_one_attribute_cube(levels: &[Vec<u8>], n_levels: u8, nudge: &[f64]) -> ExplanationCube {
    const LEVELS: [f64; 4] = [0.0, 2.5, 5.0, 10.0];
    let schema = Schema::new(vec![
        Field::dimension("t"),
        Field::dimension("a"),
        Field::measure("v"),
    ])
    .unwrap();
    let mut builder = Relation::builder(schema);
    for (c, series) in levels.iter().enumerate() {
        for (t, &l) in series.iter().enumerate() {
            builder
                .push_row(vec![
                    Datum::Attr((t as i64).into()),
                    Datum::Attr((c as i64).into()),
                    Datum::from(LEVELS[(l % n_levels) as usize] + t as f64 * nudge[c]),
                ])
                .unwrap();
        }
    }
    ExplanationCube::build(
        &builder.finish(),
        &AggQuery::sum("t", "v"),
        &CubeConfig::new(["a"]),
    )
    .unwrap()
}

/// A two-attribute relation's rows under `agg`, as the plane checks use
/// them: `(t, a, b, v)`.
fn relation_of(rows: &[(u8, u8, u8, f64)]) -> Relation {
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
    builder.finish()
}

/// The selectable-plane scan against the id-list scan, bit for bit, for
/// every metric and every segment of `cube`.
fn check_plane(cube: &ExplanationCube, step: &str) -> Result<(), TestCaseError> {
    let ids = cube.selectable_ids();
    let values = cube.values();
    let plane = cube.selectable_values();
    prop_assert_eq!(plane.n_cols(), ids.len(), "{}", step);
    for t in 0..cube.n_points() {
        for (i, &e) in ids.iter().enumerate() {
            prop_assert_eq!(
                plane.get(t, i).to_bits(),
                values.get(t, e as usize).to_bits()
            );
        }
    }
    let mut listed = vec![0.0; cube.n_candidates()];
    let mut scanned = vec![0.0; ids.len()];
    for metric in DiffMetric::ALL {
        let ctx = ScoreContext::new(cube, metric);
        for a in 0..cube.n_points() {
            for b in a + 1..cube.n_points() {
                ctx.gamma_ids((a, b), ids, &mut listed);
                ctx.gamma_selectable((a, b), &mut scanned);
                for (i, &e) in ids.iter().enumerate() {
                    prop_assert_eq!(
                        scanned[i].to_bits(),
                        listed[e as usize].to_bits(),
                        "{} {} seg ({}, {}) candidate {}",
                        step,
                        metric,
                        a,
                        b,
                        e
                    );
                }
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Inside the switch region (one attribute, `5 · (m̄₀ + m) ≥ S`) exact
    /// CA and guess-and-verify return the same list — ids, order, γ bits
    /// and effects — for every segment of tie-heavy cubes whose ties are
    /// exact. Near-ties can split the lists (each path's walk-back keeps
    /// the lowest ids among the candidates within its 1e-9 tolerance, and
    /// exact CA walks more candidates than the restriction holds); both
    /// lists then still score within that tolerance of each other.
    #[test]
    fn exact_and_guess_verify_agree_on_one_attribute_cubes(
        levels in proptest::collection::vec(proptest::collection::vec(0u8..4, 2..5), 2..48),
        n_levels in 2u8..=4,
        m in 1usize..4,
        initial in 1usize..8,
        nudges in proptest::collection::vec(0u8..4, 48),
        near in 0u8..2,
    ) {
        let near_ties = near == 1;
        let n_points = levels.iter().map(Vec::len).min().unwrap();
        let levels: Vec<Vec<u8>> = levels.iter().map(|s| s[..n_points].to_vec()).collect();
        let nudge: Vec<f64> = nudges
            .iter()
            .map(|&k| if near_ties { f64::from(k) * 1e-10 } else { 0.0 })
            .collect();
        let cube = tied_one_attribute_cube(&levels, n_levels, &nudge);
        if cube.n_selectable() > 5 * (initial + m) {
            return Ok(());
        }
        let mut ca = CascadingAnalysts::new(&cube, DiffMetric::AbsoluteChange, m);
        let mut gv = GuessVerify::new(&cube, initial);
        for a in 0..n_points {
            for b in a + 1..n_points {
                let exact = ca.top_m((a, b));
                let (guessed, _) = gv.top_m(&mut ca, (a, b));
                if near_ties {
                    let tol = 1e-8 * exact.total_score().abs().max(1.0);
                    prop_assert!(
                        (exact.total_score() - guessed.total_score()).abs() <= tol,
                        "seg ({}, {}) m={} m̄₀={}: exact {} vs guessed {}",
                        a, b, m, initial, exact.total_score(), guessed.total_score()
                    );
                    continue;
                }
                let key = |top: &tsexplain_diff::TopExplanations| -> Vec<(ExplId, u64, Effect)> {
                    top.items().iter().map(|it| (it.id, it.gamma.to_bits(), it.effect)).collect()
                };
                prop_assert_eq!(key(&exact), key(&guessed), "seg ({}, {}) m={} m̄₀={}", a, b, m, initial);
            }
        }
    }

    /// The selectable plane scan matches the id-list scan bit for bit for
    /// every metric × aggregate, after each step that changes values or
    /// selectability: the support filter, smoothing, a time slice, and an
    /// append followed by a snapshot (plain and smoothed). The smoothed
    /// snapshot also matches a snapshot smoothed afterwards, bit for bit.
    #[test]
    fn selectable_plane_matches_the_id_scan(
        rows in rows_strategy(),
        tail in proptest::collection::vec((0u8..3, 0u8..4, 0u8..2, 0.1f64..50.0), 1..8),
        agg_idx in 0usize..4,
        ratio in 0.0f64..0.6,
        window in 2usize..5,
        prune in 0u8..2,
    ) {
        let rel = relation_of(&rows);
        let query = AggQuery::new("t", AggFn::ALL[agg_idx], MeasureExpr::column("v"));
        let mut config = CubeConfig::new(["a", "b"]).with_filter_ratio(ratio);
        if prune == 0 {
            config = config.without_redundancy_pruning();
        }
        let mut cube = ExplanationCube::build(&rel, &query, &config).unwrap();
        if cube.n_points() < 2 {
            return Ok(());
        }
        check_plane(&cube, "build")?;
        cube.apply_filter(Some(ratio / 2.0));
        check_plane(&cube, "apply_filter")?;
        let mut smoothed = cube.clone();
        smoothed.smooth_moving_average(window);
        check_plane(&smoothed, "smoothing")?;
        let sliced = cube.slice_time(cube.n_points() / 2, cube.n_points() - 1, Some(ratio));
        if let Ok(sliced) = sliced {
            check_plane(&sliced, "slice_time")?;
        }

        let mut inc = IncrementalCube::from_relation(&rel, &query, &config).unwrap();
        let horizon = rows.iter().map(|r| r.0).max().unwrap();
        let batch: Vec<(AttrValue, Vec<AttrValue>, f64)> = {
            let mut tail = tail.clone();
            tail.sort_by_key(|r| r.0);
            tail.iter()
                .map(|&(dt, a, b, v)| {
                    (
                        AttrValue::Int(i64::from(horizon + dt)),
                        vec![AttrValue::Int(i64::from(a)), AttrValue::Int(i64::from(b))],
                        v,
                    )
                })
                .collect()
        };
        inc.append_batch(&batch).unwrap();
        let grown = inc.snapshot().unwrap();
        check_plane(&grown, "append + snapshot")?;
        let direct = inc.snapshot_smoothed(window).unwrap();
        check_plane(&direct, "append + smoothed snapshot")?;
        let mut after = grown.clone();
        after.smooth_moving_average(window);
        prop_assert_eq!(direct.selectable_ids(), after.selectable_ids());
        prop_assert_eq!(direct.approx_bytes(), after.approx_bytes());
        for t in 0..direct.n_points() {
            let (x, y) = (direct.values().row(t), after.values().row(t));
            prop_assert_eq!(
                x.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                y.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
            );
            let (x, y) = (direct.selectable_values().row(t), after.selectable_values().row(t));
            prop_assert_eq!(
                x.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                y.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
            );
            prop_assert_eq!(
                direct.total_value(t).to_bits(),
                after.total_value(t).to_bits()
            );
        }
    }
}
