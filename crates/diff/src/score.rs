use tsexplain_cube::{ExplId, ExplanationCube, ValueMatrix};
use tsexplain_relation::AggFn;

use crate::metric::{DiffMetric, Effect};

/// Minimum share used when computing risk ratios, to keep logs finite.
const SHARE_FLOOR: f64 = 1e-9;

/// Evaluates difference scores γ(E) and change effects τ(E) for
/// explanations over segments of the cube's time series.
///
/// A segment is a pair of point indices `(a, b)` with `a < b`; its control
/// relation is the data at `t_a` and its test relation the data at `t_b`
/// (paper §3.2, "Explain trend in each segment"). Thanks to the cube's
/// decomposable states, each evaluation is O(1) — this is exactly the O(1)
/// per-(E, segment) cost the complexity analysis of §5.2 assumes.
#[derive(Clone, Copy, Debug)]
pub struct ScoreContext<'a> {
    cube: &'a ExplanationCube,
    metric: DiffMetric,
    agg: AggFn,
    /// The cube's decoded value rows, looked up once: the per-candidate
    /// scorers read them millions of times per request.
    values: ValueMatrix<'a>,
}

impl<'a> ScoreContext<'a> {
    /// Builds a scoring context over `cube` using `metric`.
    pub fn new(cube: &'a ExplanationCube, metric: DiffMetric) -> Self {
        ScoreContext {
            cube,
            metric,
            agg: cube.agg(),
            values: cube.values(),
        }
    }

    /// The underlying cube.
    pub fn cube(&self) -> &'a ExplanationCube {
        self.cube
    }

    /// The metric in use.
    pub fn metric(&self) -> DiffMetric {
        self.metric
    }

    /// The signed contribution of `e` to the segment's delta:
    /// `[f(R_t) − f(R_c)] − [f(R_t − σ_E R_t) − f(R_c − σ_E R_c)]`.
    pub fn contribution(&self, e: ExplId, seg: (usize, usize)) -> f64 {
        let (a, b) = seg;
        debug_assert!(a < b, "segment endpoints must be ordered");
        let (cube, agg, values) = (self.cube, self.agg, &self.values);
        match agg {
            // SUM/COUNT decode to the state's own field, so the complement
            // value `(total − slice).value(agg)` is exactly `total_value −
            // slice_value`: the decoded values are enough.
            AggFn::Sum | AggFn::Count => {
                let (total_c, total_t) = (values.total(a), values.total(b));
                let e = e as usize;
                let delta_without = (total_t - values.get(b, e)) - (total_c - values.get(a, e));
                (total_t - total_c) - delta_without
            }
            AggFn::Avg | AggFn::Variance => {
                let total_t = cube.total_state(b);
                let total_c = cube.total_state(a);
                let delta_with = total_t.value(agg) - total_c.value(agg);
                let delta_without = total_t.remove(cube.state(e, b)).value(agg)
                    - total_c.remove(cube.state(e, a)).value(agg);
                delta_with - delta_without
            }
        }
    }

    /// The difference score γ(E) over the segment, under the context's
    /// metric. Always ≥ 0.
    pub fn gamma(&self, e: ExplId, seg: (usize, usize)) -> f64 {
        let contribution = self.contribution(e, seg);
        match self.metric {
            DiffMetric::AbsoluteChange => contribution.abs(),
            DiffMetric::RelativeChange => {
                let base = self.values.get(seg.0, e as usize).abs().max(1.0);
                contribution.abs() / base
            }
            DiffMetric::RiskRatio => {
                let (a, b) = seg;
                let share = |t: usize| -> f64 {
                    let total = self.values.total(t).abs();
                    if total <= 0.0 {
                        return SHARE_FLOOR;
                    }
                    (self.values.get(t, e as usize).abs() / total).max(SHARE_FLOOR)
                };
                (share(b) / share(a)).ln().abs()
            }
        }
    }

    /// The change effect τ(E) over the segment (Definition 3.3).
    pub fn effect(&self, e: ExplId, seg: (usize, usize)) -> Effect {
        Effect::of(self.contribution(e, seg))
    }

    /// Batched γ: writes `gamma(e, seg)` for **every** candidate into
    /// `out` (which must hold `n_candidates` slots). See
    /// [`ScoreContext::gamma_ids`] for the contract.
    pub fn gamma_all(&self, seg: (usize, usize), out: &mut [f64]) {
        let n = self.cube.n_candidates();
        debug_assert_eq!(out.len(), n, "output buffer must cover all candidates");
        self.scan(seg, 0..n, out);
    }

    /// Batched γ over a list of candidates: `out[e]` is set to
    /// `gamma(e, seg)` for every `e` in `ids`; every other slot of `out`
    /// (which must hold `n_candidates` slots) is left untouched. Over the
    /// cube's [`selectable_ids`](ExplanationCube::selectable_ids) it
    /// writes what [`ScoreContext::gamma_selectable`], the scan the top-m
    /// derivations run, writes in position order.
    ///
    /// **Bit-for-bit contract:** each written score is produced by the
    /// same arithmetic, in the same order, as the scalar
    /// [`ScoreContext::gamma`] — the only difference is that the
    /// metric/aggregate dispatch is hoisted out of the loop and the
    /// per-candidate values come from two of the cube's pre-decoded
    /// time-major rows ([`tsexplain_cube::ValueMatrix`]) instead of
    /// per-candidate lookups. AVG and VARIANCE contributions need full
    /// state arithmetic (`remove` must see counts), so those paths read
    /// each candidate's states from the cube's state store with the
    /// dispatch hoisted; SUM/COUNT contributions and all share-based
    /// scores run on the contiguous rows.
    pub fn gamma_ids(&self, seg: (usize, usize), ids: &[ExplId], out: &mut [f64]) {
        debug_assert_eq!(
            out.len(),
            self.cube.n_candidates(),
            "output buffer must cover all candidates"
        );
        self.scan(seg, ids.iter().map(|&e| e as usize), out);
    }

    /// Batched γ over the cube's selectable candidates, in position
    /// order: `out[i]` is set to `gamma(selectable_ids()[i], seg)`
    /// (`out` must hold [`n_selectable`](ExplanationCube::n_selectable)
    /// slots). Every top-m derivation scores its segment here.
    ///
    /// SUM/COUNT contributions and every risk ratio read two contiguous
    /// rows of the cube's selectable plane
    /// ([`ExplanationCube::selectable_values`]) instead of gathering two
    /// values per id; AVG/VARIANCE contributions read each candidate's
    /// states. Bit for bit what [`ScoreContext::gamma_ids`] writes for the
    /// same ids.
    pub fn gamma_selectable(&self, seg: (usize, usize), out: &mut [f64]) {
        let (a, b) = seg;
        debug_assert!(a < b, "segment endpoints must be ordered");
        debug_assert_eq!(out.len(), self.cube.n_selectable());
        let (cube, agg) = (self.cube, self.agg);
        let plane = cube.selectable_values();
        let (row_a, row_b) = (plane.row(a), plane.row(b));
        let relative = self.metric == DiffMetric::RelativeChange;
        match (self.metric, agg) {
            (DiffMetric::RiskRatio, _) => {
                let total_a = self.values.total(a).abs();
                let total_b = self.values.total(b).abs();
                for ((slot, &xa), &xb) in out.iter_mut().zip(row_a).zip(row_b) {
                    *slot = risk_ratio(total_a, total_b, xa, xb);
                }
            }
            (_, AggFn::Sum | AggFn::Count) => {
                let total_a = self.values.total(a);
                let total_b = self.values.total(b);
                for ((slot, &xa), &xb) in out.iter_mut().zip(row_a).zip(row_b) {
                    *slot = value_change(total_a, total_b, xa, xb, relative);
                }
            }
            (_, AggFn::Avg | AggFn::Variance) => {
                let total_a = cube.total_state(a);
                let total_b = cube.total_state(b);
                let delta_with = total_b.value(agg) - total_a.value(agg);
                for ((slot, &id), &xa) in out.iter_mut().zip(cube.selectable_ids()).zip(row_a) {
                    let delta_without = total_b.remove(cube.state(id, b)).value(agg)
                        - total_a.remove(cube.state(id, a)).value(agg);
                    *slot = finish_change(delta_with - delta_without, xa, relative);
                }
            }
        }
    }

    /// The per-candidate arithmetic behind [`ScoreContext::gamma_all`]
    /// and [`ScoreContext::gamma_ids`], written once and monomorphized
    /// for each candidate walk.
    fn scan(&self, seg: (usize, usize), ids: impl Iterator<Item = usize>, out: &mut [f64]) {
        let (a, b) = seg;
        debug_assert!(a < b, "segment endpoints must be ordered");
        let (cube, agg) = (self.cube, self.agg);
        let row_a = self.values.row(a);
        let row_b = self.values.row(b);
        let relative = self.metric == DiffMetric::RelativeChange;

        match (self.metric, agg) {
            // Shares only need decoded values — row-based for every agg.
            (DiffMetric::RiskRatio, _) => {
                let total_a = self.values.total(a).abs();
                let total_b = self.values.total(b).abs();
                for e in ids {
                    out[e] = risk_ratio(total_a, total_b, row_a[e], row_b[e]);
                }
            }
            // SUM/COUNT decode to the state's own field, so the complement
            // value `(total − slice).value(agg)` is exactly `total_value −
            // slice_value`: the whole contribution runs on the two rows.
            (_, AggFn::Sum | AggFn::Count) => {
                let total_a = self.values.total(a);
                let total_b = self.values.total(b);
                for e in ids {
                    out[e] = value_change(total_a, total_b, row_a[e], row_b[e], relative);
                }
            }
            // AVG/VARIANCE complements are not value-derivable; keep the
            // state arithmetic, hoisting the dispatch.
            (_, AggFn::Avg | AggFn::Variance) => {
                let total_a = cube.total_state(a);
                let total_b = cube.total_state(b);
                let delta_with = total_b.value(agg) - total_a.value(agg);
                for e in ids {
                    let id = e as ExplId;
                    let delta_without = total_b.remove(cube.state(id, b)).value(agg)
                        - total_a.remove(cube.state(id, a)).value(agg);
                    out[e] = finish_change(delta_with - delta_without, row_a[e], relative);
                }
            }
        }
    }

    /// `(γ, τ)` in one evaluation.
    pub fn gamma_effect(&self, e: ExplId, seg: (usize, usize)) -> (f64, Effect) {
        let contribution = self.contribution(e, seg);
        let gamma = match self.metric {
            DiffMetric::AbsoluteChange => contribution.abs(),
            _ => self.gamma(e, seg),
        };
        (gamma, Effect::of(contribution))
    }
}

/// γ of a SUM/COUNT candidate whose values are `xa` and `xb` at the
/// segment's ends, the overall values being `total_a` and `total_b`.
#[inline(always)]
fn value_change(total_a: f64, total_b: f64, xa: f64, xb: f64, relative: bool) -> f64 {
    let delta_with = total_b - total_a;
    let delta_without = (total_b - xb) - (total_a - xa);
    finish_change(delta_with - delta_without, xa, relative)
}

/// Absolute- or relative-change γ from a contribution and the candidate's
/// control-side value `xa`.
#[inline(always)]
fn finish_change(contribution: f64, xa: f64, relative: bool) -> f64 {
    if relative {
        contribution.abs() / xa.abs().max(1.0)
    } else {
        contribution.abs()
    }
}

/// Risk-ratio γ from the candidate's values and the overall magnitudes
/// `total_a = |f(R_c)|`, `total_b = |f(R_t)|`.
#[inline(always)]
fn risk_ratio(total_a: f64, total_b: f64, xa: f64, xb: f64) -> f64 {
    let share_a = if total_a <= 0.0 {
        SHARE_FLOOR
    } else {
        (xa.abs() / total_a).max(SHARE_FLOOR)
    };
    let share_b = if total_b <= 0.0 {
        SHARE_FLOOR
    } else {
        (xb.abs() / total_b).max(SHARE_FLOOR)
    };
    (share_b / share_a).ln().abs()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsexplain_cube::CubeConfig;
    use tsexplain_relation::{AggQuery, Datum, Field, Relation, Schema};

    /// Two states over three days; SUM(cases).
    ///   NY: 10, 20, 20  (rises then flat)
    ///   CA:  5,  5, 30  (flat then rises)
    fn cube() -> ExplanationCube {
        let schema = Schema::new(vec![
            Field::dimension("date"),
            Field::dimension("state"),
            Field::measure("cases"),
        ])
        .unwrap();
        let mut b = Relation::builder(schema);
        let rows = [
            ("d1", "NY", 10.0),
            ("d2", "NY", 20.0),
            ("d3", "NY", 20.0),
            ("d1", "CA", 5.0),
            ("d2", "CA", 5.0),
            ("d3", "CA", 30.0),
        ];
        for (d, s, v) in rows {
            b.push_row(vec![Datum::from(d), Datum::from(s), Datum::from(v)])
                .unwrap();
        }
        ExplanationCube::build(
            &b.finish(),
            &AggQuery::sum("date", "cases"),
            &CubeConfig::new(["state"]),
        )
        .unwrap()
    }

    fn id_of(cube: &ExplanationCube, label: &str) -> ExplId {
        (0..cube.n_candidates() as ExplId)
            .find(|&e| cube.label(e) == label)
            .unwrap()
    }

    #[test]
    fn absolute_change_reduces_to_endpoint_delta_for_sum() {
        let cube = cube();
        let ctx = ScoreContext::new(&cube, DiffMetric::AbsoluteChange);
        let ny = id_of(&cube, "state=NY");
        let ca = id_of(&cube, "state=CA");
        // Over (d1, d2): NY contributes +10, CA contributes 0.
        assert_eq!(ctx.gamma(ny, (0, 1)), 10.0);
        assert_eq!(ctx.gamma(ca, (0, 1)), 0.0);
        // Over (d2, d3): CA contributes +25.
        assert_eq!(ctx.gamma(ca, (1, 2)), 25.0);
        assert_eq!(ctx.gamma(ny, (1, 2)), 0.0);
    }

    #[test]
    fn effects_follow_contribution_sign() {
        let cube = cube();
        let ctx = ScoreContext::new(&cube, DiffMetric::AbsoluteChange);
        let ny = id_of(&cube, "state=NY");
        let ca = id_of(&cube, "state=CA");
        assert_eq!(ctx.effect(ny, (0, 1)), Effect::Plus);
        assert_eq!(ctx.effect(ca, (0, 1)), Effect::Zero);
        assert_eq!(ctx.effect(ca, (1, 2)), Effect::Plus);
    }

    #[test]
    fn gamma_is_nonnegative_for_declines() {
        // Build a declining slice: reverse the NY series by using (d2, d1)…
        // segments must be ordered, so instead test a decline via CA over a
        // cube where values drop.
        let schema = Schema::new(vec![
            Field::dimension("date"),
            Field::dimension("state"),
            Field::measure("cases"),
        ])
        .unwrap();
        let mut b = Relation::builder(schema);
        for (d, s, v) in [("d1", "NY", 30.0), ("d2", "NY", 10.0)] {
            b.push_row(vec![Datum::from(d), Datum::from(s), Datum::from(v)])
                .unwrap();
        }
        let cube = ExplanationCube::build(
            &b.finish(),
            &AggQuery::sum("date", "cases"),
            &CubeConfig::new(["state"]),
        )
        .unwrap();
        let ctx = ScoreContext::new(&cube, DiffMetric::AbsoluteChange);
        assert_eq!(ctx.gamma(0, (0, 1)), 20.0);
        assert_eq!(ctx.effect(0, (0, 1)), Effect::Minus);
    }

    #[test]
    fn relative_change_normalizes_by_control_magnitude() {
        let cube = cube();
        let ctx = ScoreContext::new(&cube, DiffMetric::RelativeChange);
        let ny = id_of(&cube, "state=NY");
        // contribution 10 over control magnitude 10 → 1.0
        assert!((ctx.gamma(ny, (0, 1)) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn risk_ratio_detects_share_shift() {
        let cube = cube();
        let ctx = ScoreContext::new(&cube, DiffMetric::RiskRatio);
        let ca = id_of(&cube, "state=CA");
        // CA's share moves from 5/15 to 30/50 over (d1, d3): rr = 1.8.
        let expected = (0.6f64 / (1.0 / 3.0)).ln().abs();
        assert!((ctx.gamma(ca, (0, 2)) - expected).abs() < 1e-12);
    }

    #[test]
    fn gamma_effect_consistent_with_parts() {
        let cube = cube();
        let ctx = ScoreContext::new(&cube, DiffMetric::AbsoluteChange);
        for e in 0..cube.n_candidates() as ExplId {
            for seg in [(0usize, 1usize), (1, 2), (0, 2)] {
                let (g, eff) = ctx.gamma_effect(e, seg);
                assert_eq!(g, ctx.gamma(e, seg));
                assert_eq!(eff, ctx.effect(e, seg));
            }
        }
    }
}
