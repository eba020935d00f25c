use tsexplain_diff::{rank_log2, ScoreContext, TopExplanations};

/// A segment together with its derived top-m explanations.
///
/// This pairing is the unit the variance design works with: both the
/// *objects* (unit segments `[p_x, p_{x+1}]`, §4.1.1) and the *centroids*
/// (whole candidate segments, §4.1.2) are `ExplainedSegment`s.
#[derive(Clone, Debug)]
pub struct ExplainedSegment {
    /// Point-index endpoints `(a, b)`, `a < b`.
    pub seg: (usize, usize),
    /// The segment's top-m non-overlapping explanations.
    pub top: TopExplanations,
}

impl ExplainedSegment {
    /// Bundles a segment with its explanations.
    pub fn new(seg: (usize, usize), top: TopExplanations) -> Self {
        ExplainedSegment { seg, top }
    }
}

/// `NDCG(target, E*(source))` — how well `source`'s top-explanation list
/// explains the `target` segment (paper Eqs. 3–5).
///
/// Mapping to the web-search setting (§4.1.3): `target` is the query,
/// `source.top` the retrieved document list, `target.top` the ideal list.
/// The relevance of a retrieved explanation is its difference score on the
/// target, *rectified* to zero when its change effect differs between the
/// two segments (Table 2) — an explanation that drove an increase there but
/// a decrease here does not count as consistent.
///
/// Edge cases: a segment whose ideal DCG is zero has nothing to explain
/// (every candidate scores zero on it), so NDCG is defined as 1. The result
/// is clamped to `[0, 1]`.
pub fn ndcg(ctx: &ScoreContext<'_>, target: &ExplainedSegment, source: &ExplainedSegment) -> f64 {
    let ideal = target.top.ideal_dcg();
    if ideal <= 0.0 {
        return 1.0;
    }
    let mut dcg = 0.0;
    for (r, item) in source.top.items().iter().enumerate() {
        let (gamma, effect_on_target) = ctx.gamma_effect(item.id, target.seg);
        // Rectified relevance: γ̄ = γ(E, target) · 1[τ(E, source) = τ(E, target)].
        if effect_on_target == item.effect {
            dcg += gamma / rank_log2(r);
        }
    }
    (dcg / ideal).clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsexplain_cube::{CubeConfig, ExplanationCube};
    use tsexplain_diff::{CascadingAnalysts, DiffMetric};
    use tsexplain_relation::{AggQuery, Datum, Field, Relation, Schema};

    /// Series (per state):
    ///   NY: 0, 10, 20, 20, 20   (rises on objects 0,1; flat after)
    ///   CA: 0,  0,  0, 15, 40   (flat; rises on objects 3,4)
    ///   TX: 5,  5,  8,  8, 11   (small rise on objects 1 and 3)
    fn cube() -> ExplanationCube {
        let schema = Schema::new(vec![
            Field::dimension("d"),
            Field::dimension("state"),
            Field::measure("v"),
        ])
        .unwrap();
        let series: &[(&str, [f64; 5])] = &[
            ("NY", [0.0, 10.0, 20.0, 20.0, 20.0]),
            ("CA", [0.0, 0.0, 0.0, 15.0, 40.0]),
            ("TX", [5.0, 5.0, 8.0, 8.0, 11.0]),
        ];
        let mut b = Relation::builder(schema);
        for (state, vals) in series {
            for (t, v) in vals.iter().enumerate() {
                b.push_row(vec![
                    Datum::from(format!("d{t}")),
                    Datum::from(*state),
                    Datum::from(*v),
                ])
                .unwrap();
            }
        }
        ExplanationCube::build(
            &b.finish(),
            &AggQuery::sum("d", "v"),
            &CubeConfig::new(["state"]),
        )
        .unwrap()
    }

    fn explained(ca: &mut CascadingAnalysts<'_>, seg: (usize, usize)) -> ExplainedSegment {
        ExplainedSegment::new(seg, ca.top_m(seg))
    }

    #[test]
    fn self_ndcg_is_one() {
        let cube = cube();
        let mut ca = CascadingAnalysts::new(&cube, DiffMetric::AbsoluteChange, 3);
        let ctx = ca.score_context();
        for seg in [(0usize, 2usize), (2, 4), (0, 4)] {
            let es = explained(&mut ca, seg);
            assert!((ndcg(&ctx, &es, &es) - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn disjoint_drivers_score_low() {
        let cube = cube();
        let mut ca = CascadingAnalysts::new(&cube, DiffMetric::AbsoluteChange, 1);
        let ctx = ca.score_context();
        // Early segment is explained by NY, late by CA; NY does nothing in
        // the late segment so its list explains it poorly.
        let early = explained(&mut ca, (0, 2));
        let late = explained(&mut ca, (2, 4));
        assert!(ndcg(&ctx, &late, &early) < 0.1);
        assert!(ndcg(&ctx, &early, &late) < 0.1);
    }

    #[test]
    fn range_is_unit_interval() {
        let cube = cube();
        let mut ca = CascadingAnalysts::new(&cube, DiffMetric::AbsoluteChange, 3);
        let ctx = ca.score_context();
        let segs = [
            (0usize, 1usize),
            (1, 2),
            (2, 3),
            (3, 4),
            (0, 2),
            (1, 3),
            (2, 4),
            (0, 4),
        ];
        let explained: Vec<ExplainedSegment> = segs
            .iter()
            .map(|&s| ExplainedSegment::new(s, ca.top_m(s)))
            .collect();
        for a in &explained {
            for b in &explained {
                let v = ndcg(&ctx, a, b);
                assert!((0.0..=1.0).contains(&v), "ndcg {v} out of range");
            }
        }
    }

    #[test]
    fn flat_target_is_perfectly_explained() {
        let schema = Schema::new(vec![
            Field::dimension("d"),
            Field::dimension("s"),
            Field::measure("v"),
        ])
        .unwrap();
        let mut b = Relation::builder(schema);
        for t in 0..3 {
            b.push_row(vec![
                Datum::from(format!("d{t}")),
                Datum::from("x"),
                Datum::from(5.0),
            ])
            .unwrap();
        }
        let cube = ExplanationCube::build(
            &b.finish(),
            &AggQuery::sum("d", "v"),
            &CubeConfig::new(["s"]),
        )
        .unwrap();
        let mut ca = CascadingAnalysts::new(&cube, DiffMetric::AbsoluteChange, 3);
        let ctx = ca.score_context();
        let a = explained(&mut ca, (0, 1));
        let b2 = explained(&mut ca, (1, 2));
        assert_eq!(ndcg(&ctx, &a, &b2), 1.0);
    }

    #[test]
    fn opposite_effect_rectified_to_zero() {
        // NY rises then falls; the same explanation with flipped effect
        // contributes nothing across the two segments.
        let schema = Schema::new(vec![
            Field::dimension("d"),
            Field::dimension("s"),
            Field::measure("v"),
        ])
        .unwrap();
        let mut b = Relation::builder(schema);
        for (t, v) in [(0, 0.0), (1, 10.0), (2, 0.0)] {
            b.push_row(vec![
                Datum::from(format!("d{t}")),
                Datum::from("NY"),
                Datum::from(v),
            ])
            .unwrap();
        }
        let cube = ExplanationCube::build(
            &b.finish(),
            &AggQuery::sum("d", "v"),
            &CubeConfig::new(["s"]),
        )
        .unwrap();
        let mut ca = CascadingAnalysts::new(&cube, DiffMetric::AbsoluteChange, 1);
        let ctx = ca.score_context();
        let up = explained(&mut ca, (0, 1));
        let down = explained(&mut ca, (1, 2));
        // Same explanation (s=NY), same |γ|, opposite τ → rectified to 0.
        assert_eq!(ndcg(&ctx, &up, &down), 0.0);
        assert_eq!(ndcg(&ctx, &down, &up), 0.0);
    }
}
