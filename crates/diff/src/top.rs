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
            ideal_dcg += it.gamma / ((r + 2) as f64).log2();
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
            TopExplStrategy::Exact => None,
            TopExplStrategy::GuessVerify { initial_guess } => {
                Some(GuessVerify::new(cube, initial_guess))
            }
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

    #[test]
    fn empty_list() {
        let top = TopExplanations::empty();
        assert!(top.is_empty());
        assert_eq!(top.ideal_dcg(), 0.0);
    }
}
