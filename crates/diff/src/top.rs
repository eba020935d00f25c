//! Top-m lists and the engine that derives them.
//!
//! [`TopExplanations`] is one segment's ranked list with its ideal DCG
//! (Eq. 4); [`rank_log2`] is the DCG discount every nDCG reads, from a
//! table of the first 128 ranks. [`TopExplEngine`] is the segment → list
//! entry point of the segmentation layer. Under
//! [`TopExplStrategy::GuessVerify`] it runs guess-and-verify (O1, §5.3.1)
//! only where O1 can win: a one-attribute cube whose first restriction
//! (m̄₀ + m candidates) covers a large share of its S selectable
//! candidates (`5 · (m̄₀ + m) ≥ S`) takes exact CA, which is cheaper
//! there; every other cube keeps O1.

use std::sync::LazyLock;

use tsexplain_cube::{ExplId, ExplanationCube};

use crate::cascading::CascadingAnalysts;
use crate::guess_verify::GuessVerify;
use crate::metric::{DiffMetric, Effect};

/// One explanation of a ranked top-m list: its cube id, difference score
/// γ and change effect τ over the segment it was derived for.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RankedExplanation {
    /// Cube explanation id.
    pub id: ExplId,
    /// Difference score γ(E) (≥ 0).
    pub gamma: f64,
    /// Change effect τ(E).
    pub effect: Effect,
}

/// The top-m non-overlapping explanations of a segment
/// (Definition 3.5), ranked by γ descending, together with the segment's
/// *ideal DCG* (Eq. 4) — the denominator of every NDCG involving this
/// segment, cached here because it only depends on the segment itself.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TopExplanations {
    items: Vec<RankedExplanation>,
    ideal_dcg: f64,
    total_score: f64,
}

impl TopExplanations {
    /// Builds a ranked list; sorts by γ descending (ties broken by id for
    /// determinism) and computes the ideal DCG and total score.
    pub fn new(mut items: Vec<RankedExplanation>) -> Self {
        items.sort_by(|a, b| {
            b.gamma
                .partial_cmp(&a.gamma)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.id.cmp(&b.id))
        });
        let mut ideal_dcg = 0.0;
        let mut total_score = 0.0;
        for (r, it) in items.iter().enumerate() {
            ideal_dcg += it.gamma / rank_log2(r);
            total_score += it.gamma;
        }
        TopExplanations {
            items,
            ideal_dcg,
            total_score,
        }
    }

    /// The empty list (e.g. a perfectly flat segment).
    pub fn empty() -> Self {
        TopExplanations::default()
    }

    /// The ranked explanations, best first.
    pub fn items(&self) -> &[RankedExplanation] {
        &self.items
    }

    /// Number of explanations (≤ m).
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True when no explanation has a positive score.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// The ideal DCG `Σ_r γ_r / log2(r+1)` (Eq. 4).
    pub fn ideal_dcg(&self) -> f64 {
        self.ideal_dcg
    }

    /// The accumulated difference score `Σ γ(E)` (the objective of
    /// Definition 3.5).
    pub fn total_score(&self) -> f64 {
        self.total_score
    }

    /// Whether `id` appears in the list.
    pub fn contains(&self, id: ExplId) -> bool {
        self.items.iter().any(|it| it.id == id)
    }

    /// 0-based rank of `id`, if present.
    pub fn rank_of(&self, id: ExplId) -> Option<usize> {
        self.items.iter().position(|it| it.id == id)
    }
}

/// Ranks whose DCG discount [`rank_log2`] reads from a table.
const TABLED_RANKS: usize = 128;

/// `log2(r + 2)` for the first [`TABLED_RANKS`] ranks, computed by the
/// same expression a rank past the table uses.
static RANK_LOG2: LazyLock<[f64; TABLED_RANKS]> =
    LazyLock::new(|| std::array::from_fn(|r| ((r + 2) as f64).log2()));

/// The DCG discount `log2(r + 2)` of 0-based rank `r` (Eqs. 4–5): from a
/// table of the first 128 ranks, computed past it. The table holds the
/// bits `log2` returns, so either way the value is bit-identical to
/// computing it. Every derivation's ideal DCG and every nDCG of a request
/// read it once per ranked item: hundreds of thousands of times per
/// covid explain.
pub fn rank_log2(r: usize) -> f64 {
    match RANK_LOG2.get(r) {
        Some(&x) => x,
        None => ((r + 2) as f64).log2(),
    }
}

/// How many times the first restriction (m̄₀ + m candidates) a
/// one-attribute cube's selectable set may hold for exact CA to be the
/// faster derivation; see [`exact_cascading_wins`].
const EXACT_SPAN: usize = 5;

/// Whether exact CA derives a top-m list of `cube` faster than
/// guess-and-verify with initial guess m̄₀, which then is not run.
///
/// Guess-and-verify pays a ranking pass and a restricted DP to avoid the
/// exact DP over every selectable candidate. When the first restriction
/// (the best m̄₀ + m) already covers a large share of the S selectable
/// candidates, that saving is gone: the rule switches at
/// `EXACT_SPAN · (m̄₀ + m) ≥ S`, a pure function of (S, m, m̄₀). Its
/// constant comes from timing both derivations on synthetic one-attribute
/// cubes (README, "Performance architecture"); no end-to-end benchmark
/// workload has a one-attribute cube near the bound.
///
/// Only one-attribute cubes switch. Their trie is flat, so with exactly
/// tied scores both walk-backs keep the lowest ids and the lists agree;
/// on multi-attribute cubes with tied scores the two paths can return
/// different lists of equal total score. Scores closer than the
/// walk-back's 1e-9 relative tolerance (near-ties) can split the lists
/// on a flat trie too: exact CA walks every selectable candidate and may
/// keep a lower id that guess-and-verify's restriction left out. Both
/// lists are then optimal within that tolerance.
fn exact_cascading_wins(cube: &ExplanationCube, m: usize, initial_guess: usize) -> bool {
    cube.attr_names().len() == 1
        && EXACT_SPAN.saturating_mul(initial_guess.saturating_add(m)) >= cube.n_selectable()
}

/// How [`TopExplEngine`] derives top-m lists.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum TopExplStrategy {
    /// Exact Cascading Analysts over every (unfiltered) candidate.
    #[default]
    Exact,
    /// Guess-and-verify (optimization O1, §5.3.1) with the given initial
    /// guess m̄₀ (paper default 30 for m = 3).
    GuessVerify {
        /// Initial restricted input size m̄₀.
        initial_guess: usize,
    },
}

/// The segment → top-m entry point used by the segmentation layer: a
/// [`CascadingAnalysts`] instance plus the configured derivation strategy
/// and a derivation counter.
///
/// [`TopExplStrategy::GuessVerify`] runs guess-and-verify only where it
/// can win: on a one-attribute cube small enough that its first
/// restriction covers most of the selectable candidates, the engine runs
/// exact CA instead (see `exact_cascading_wins`, also for when the two
/// lists can differ).
pub struct TopExplEngine<'a> {
    ca: CascadingAnalysts<'a>,
    gv: Option<GuessVerify>,
    calls: u64,
}

impl<'a> TopExplEngine<'a> {
    /// Builds an engine over `cube` with difference metric `metric`,
    /// list size `m` and the given strategy.
    pub fn new(
        cube: &'a ExplanationCube,
        metric: DiffMetric,
        m: usize,
        strategy: TopExplStrategy,
    ) -> Self {
        let ca = CascadingAnalysts::new(cube, metric, m);
        let gv = match strategy {
            TopExplStrategy::GuessVerify { initial_guess }
                if !exact_cascading_wins(cube, m, initial_guess) =>
            {
                Some(GuessVerify::new(cube, initial_guess))
            }
            _ => None,
        };
        TopExplEngine { ca, gv, calls: 0 }
    }

    /// The cube the engine explains.
    pub fn cube(&self) -> &'a ExplanationCube {
        self.ca.cube()
    }

    /// The configured list size m.
    pub fn m(&self) -> usize {
        self.ca.m()
    }

    /// Top-m non-overlapping explanations for the segment `(a, b)`.
    pub fn top_m(&mut self, seg: (usize, usize)) -> TopExplanations {
        self.calls += 1;
        match &mut self.gv {
            None => self.ca.top_m(seg),
            Some(gv) => gv.top_m(&mut self.ca, seg).0,
        }
    }

    /// Number of top-m derivations performed (segments explained).
    pub fn calls(&self) -> u64 {
        self.calls
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn item(id: ExplId, gamma: f64) -> RankedExplanation {
        RankedExplanation {
            id,
            gamma,
            effect: Effect::Plus,
        }
    }

    #[test]
    fn sorted_by_gamma_desc() {
        let top = TopExplanations::new(vec![item(1, 2.0), item(2, 5.0), item(3, 3.0)]);
        let ids: Vec<ExplId> = top.items().iter().map(|i| i.id).collect();
        assert_eq!(ids, vec![2, 3, 1]);
        assert_eq!(top.rank_of(3), Some(1));
        assert!(top.contains(1));
        assert!(!top.contains(9));
    }

    #[test]
    fn ideal_dcg_matches_hand_computation() {
        let top = TopExplanations::new(vec![item(0, 4.0), item(1, 2.0), item(2, 1.0)]);
        let expected = 4.0 / 2f64.log2() + 2.0 / 3f64.log2() + 1.0 / 4f64.log2();
        assert!((top.ideal_dcg() - expected).abs() < 1e-12);
        assert_eq!(top.total_score(), 7.0);
    }

    #[test]
    fn tie_broken_by_id() {
        let top = TopExplanations::new(vec![item(5, 1.0), item(2, 1.0)]);
        assert_eq!(top.items()[0].id, 2);
    }

    /// A SUM cube whose rows are `(t, attrs…, v)` over the named
    /// explain-by attributes.
    fn cube_of(attrs: &[&str], rows: &[(i64, Vec<i64>, f64)]) -> ExplanationCube {
        use tsexplain_cube::CubeConfig;
        use tsexplain_relation::{AggQuery, Datum, Field, Relation, Schema};
        let mut fields = vec![Field::dimension("t")];
        fields.extend(attrs.iter().map(|&a| Field::dimension(a)));
        fields.push(Field::measure("v"));
        let mut b = Relation::builder(Schema::new(fields).unwrap());
        for (t, codes, v) in rows {
            let mut row = vec![Datum::Attr((*t).into())];
            row.extend(codes.iter().map(|&c| Datum::Attr(c.into())));
            row.push(Datum::from(*v));
            b.push_row(row).unwrap();
        }
        ExplanationCube::build(
            &b.finish(),
            &AggQuery::sum("t", "v"),
            &CubeConfig::new(attrs.iter().copied()),
        )
        .unwrap()
    }

    /// `n` categories of one attribute over two points.
    fn one_attribute(n: i64) -> ExplanationCube {
        let rows: Vec<_> = (0..n)
            .flat_map(|c| [(0, vec![c], 1.0), (1, vec![c], 1.0 + (c % 7) as f64)])
            .collect();
        cube_of(&["a"], &rows)
    }

    #[test]
    fn guess_verify_runs_only_where_it_can_win() {
        let gv = TopExplStrategy::GuessVerify { initial_guess: 30 };
        // m = 3, m̄₀ = 30: exact CA while 5 · (30 + 3) = 165 ≥ S.
        let small = one_attribute(40);
        assert_eq!(small.n_selectable(), 40);
        let engine = TopExplEngine::new(&small, DiffMetric::AbsoluteChange, 3, gv);
        assert!(
            engine.gv.is_none(),
            "a small one-attribute cube takes exact CA"
        );

        // Two attributes with as many selectable candidates keep O1: their
        // tied lists may differ from exact CA's.
        let rows: Vec<_> = (0..32)
            .flat_map(|c| [(0, vec![c, c % 8], 1.0), (1, vec![c, c % 8], 2.0)])
            .collect();
        let two = cube_of(&["a", "b"], &rows);
        assert_eq!(two.n_selectable(), 40);
        let engine = TopExplEngine::new(&two, DiffMetric::AbsoluteChange, 3, gv);
        assert!(
            engine.gv.is_some(),
            "a two-attribute cube keeps guess-and-verify"
        );

        let large = one_attribute(166);
        let engine = TopExplEngine::new(&large, DiffMetric::AbsoluteChange, 3, gv);
        assert!(
            engine.gv.is_some(),
            "a large one-attribute cube keeps guess-and-verify"
        );
        let edge = one_attribute(165);
        let engine = TopExplEngine::new(&edge, DiffMetric::AbsoluteChange, 3, gv);
        assert!(engine.gv.is_none(), "S = 5 · (m̄₀ + m) is still exact");

        // The exact strategy never builds one.
        let engine = TopExplEngine::new(
            &large,
            DiffMetric::AbsoluteChange,
            3,
            TopExplStrategy::Exact,
        );
        assert!(engine.gv.is_none());
    }

    /// Scores closer than the walk-back's tolerance can split the two
    /// paths on a one-attribute cube: with m = 1 and m̄₀ = 30, category 0
    /// moves by 1 and categories 1–30 by 1 + 2e-10. Guess-and-verify's
    /// restriction holds categories 1–30 and keeps the lowest of them;
    /// exact CA, which the engine runs here, walks category 0 too and
    /// keeps it. Both lists score within 1e-9 of each other.
    #[test]
    fn near_tied_scores_can_split_exact_and_guess_verify_lists() {
        let rows: Vec<_> = (0..31)
            .flat_map(|c| {
                let moved = if c == 0 { 1.0 } else { 1.0 + 2e-10 };
                [(0, vec![c], 0.0), (1, vec![c], moved)]
            })
            .collect();
        let cube = cube_of(&["a"], &rows);
        assert_eq!(cube.n_selectable(), 31);
        let strategy = TopExplStrategy::GuessVerify { initial_guess: 30 };
        let mut engine = TopExplEngine::new(&cube, DiffMetric::AbsoluteChange, 1, strategy);
        assert!(engine.gv.is_none(), "5 · (30 + 1) ≥ 31: exact CA");
        let exact = engine.top_m((0, 1));

        let mut ca = CascadingAnalysts::new(&cube, DiffMetric::AbsoluteChange, 1);
        let (guessed, _) = GuessVerify::new(&cube, 30).top_m(&mut ca, (0, 1));

        let label = |top: &TopExplanations| cube.label(top.items()[0].id);
        assert_eq!(label(&exact), "a=0");
        assert_eq!(label(&guessed), "a=1");
        assert!((exact.total_score() - guessed.total_score()).abs() <= 1e-9);
    }

    #[test]
    fn the_rank_table_holds_log2_s_bits() {
        for r in 0..300 {
            assert_eq!(
                rank_log2(r).to_bits(),
                ((r + 2) as f64).log2().to_bits(),
                "rank {r}"
            );
        }
    }

    #[test]
    fn empty_list() {
        let top = TopExplanations::empty();
        assert!(top.is_empty());
        assert_eq!(top.ideal_dcg(), 0.0);
    }
}
