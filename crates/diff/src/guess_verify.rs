//! Guess-and-verify (optimization O1, §5.3.1).
//!
//! A derivation scores its segment once over the cube's selectable plane
//! (shared with exact CA), then ranks the best m̄ + m in one bounded pass:
//! a heap of the running best whose worst γ is a scalar floor, so a
//! candidate scoring below it costs one compare and no heap work. The
//! restriction closes the best m̄ under the trie's parent lists and hands
//! the DP a plan of just those nodes.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use tsexplain_cube::{ExplId, ExplanationCube, ROOT_NODE};

use crate::cascading::{CascadingAnalysts, DrillPlan};
use crate::top::TopExplanations;

/// Per-derivation statistics of the guess-and-verify loop.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GuessVerifyStats {
    /// The m̄ that finally verified (or ε on exact fallback).
    pub final_guess: usize,
    /// Number of guess rounds (1 when the initial guess verified).
    pub rounds: u32,
    /// True when the loop gave up and ran the exact algorithm.
    pub fell_back_exact: bool,
}

/// Optimization O1: guess-and-verify (paper §5.3.1).
///
/// Instead of feeding all ε candidates into the Cascading Analysts
/// algorithm, feed only the m̄ candidates with the highest difference
/// scores, then certify the result with the Eq. 12 bound:
///
/// ```text
/// Best[m] ≥ Best[m′] + Σ_{1 ≤ j ≤ m−m′} γ(E_{r_{m̄+j}})   ∀ 0 ≤ m′ < m
/// ```
///
/// Any optimal solution splits into members ranked ≤ m̄ (whose total is
/// bounded by some `Best[m′]` of the restricted run, since a subset of a
/// cascading-expressible set is cascading-expressible) and members ranked
/// > m̄ (bounded by the next `m − m′` scores after position m̄). When the
/// > restricted `Best[m]` dominates every such bound it is globally optimal;
/// > otherwise m̄ doubles (paper: m̄₀ = 30 for m = 3).
///
/// A derivation scores the cube's selectable candidates once (the one
/// pass over the selectable plane that exact CA also runs), keeps only
/// the best m̄ + m of them in one bounded pass per round, and runs
/// the restricted CA on the same scores over a plan of the best m̄ and
/// their ancestors, found through the trie's parent lists. Every buffer
/// (ranking heap, restriction bitmaps, plan) is owned and reused, so a
/// warm derivation allocates only the list it returns.
///
/// [`crate::TopExplEngine`] does not run this loop on a one-attribute
/// cube whose first restriction would already cover most selectable
/// candidates: exact CA is cheaper there.
pub struct GuessVerify {
    initial_guess: usize,
    /// The ranked head's scores, indexed by id, for the restricted CA
    /// runs (entries outside the current head are stale).
    gamma_buf: Vec<f64>,
    /// Ranking scratch: the best `need` candidates seen so far, worst on
    /// top.
    heap: BinaryHeap<Ranked>,
    /// The head of χ = [E_r1, E_r2, …]: the best m̄ + m candidates, best
    /// first.
    scored: Vec<Ranked>,
    /// Structural-inclusion bitmap over all candidates.
    structural: Vec<bool>,
    /// Selection-permission bitmap over all candidates.
    allowed: Vec<bool>,
    /// Entries of the two bitmaps that are currently set, in the order
    /// they were marked: the restriction's nodes.
    touched: Vec<ExplId>,
    /// The restricted CA's plan over `touched`, rebuilt per round.
    plan: DrillPlan,
}

/// A scored candidate in χ's order: γ descending (`partial_cmp`, NaN
/// compares equal), then id ascending — so `a < b` means `a` ranks first.
#[derive(Clone, Copy, Debug)]
struct Ranked {
    gamma: f64,
    id: ExplId,
}

impl Ord for Ranked {
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .gamma
            .partial_cmp(&self.gamma)
            .unwrap_or(Ordering::Equal)
            .then(self.id.cmp(&other.id))
    }
}

impl PartialOrd for Ranked {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for Ranked {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Ranked {}

/// Writes the best `need` of `cands` into `out`, best first, in one
/// pass: `heap` keeps the running best with the worst kept candidate on
/// top, so a further candidate costs one comparison, or an O(log need)
/// replacement — never an insertion into a sorted list. `cands` may come
/// in any order.
///
/// Once the heap is full, its worst γ is a floor: a candidate scoring
/// below it ranks after every kept one, so it is skipped on one float
/// compare before any heap work. `γ < floor` is false for a NaN on either
/// side, so NaNs still reach the heap's order.
fn select_best(
    cands: impl Iterator<Item = Ranked>,
    need: usize,
    heap: &mut BinaryHeap<Ranked>,
    out: &mut Vec<Ranked>,
) {
    heap.clear();
    let mut floor = f64::NEG_INFINITY;
    for cand in cands {
        if cand.gamma < floor {
            continue;
        }
        if heap.len() < need {
            heap.push(cand);
        } else if let Some(mut worst) = heap.peek_mut() {
            if cand < *worst {
                *worst = cand;
            }
        }
        if heap.len() == need {
            // A full heap; an empty one (need 0) keeps nothing at all.
            floor = heap.peek().map_or(f64::INFINITY, |worst| worst.gamma);
        }
    }
    out.clear();
    out.extend(heap.drain());
    out.sort_unstable();
}

impl GuessVerify {
    /// Creates the optimizer with initial guess m̄₀ (paper default 30).
    pub fn new(cube: &ExplanationCube, initial_guess: usize) -> Self {
        assert!(initial_guess >= 1, "initial guess must be >= 1");
        let n = cube.n_candidates();
        GuessVerify {
            initial_guess,
            gamma_buf: vec![0.0; n],
            heap: BinaryHeap::new(),
            scored: Vec::new(),
            structural: vec![false; n],
            allowed: vec![false; n],
            touched: Vec::new(),
            plan: DrillPlan::default(),
        }
    }

    /// Derives the (certified-optimal) top-m list for `seg`.
    pub fn top_m(
        &mut self,
        ca: &mut CascadingAnalysts<'_>,
        seg: (usize, usize),
    ) -> (TopExplanations, GuessVerifyStats) {
        let cube = ca.cube();
        let m = ca.m();
        let ids = cube.selectable_ids();

        // One pass over the selectable plane scores every candidate the
        // derivation may select; the scores then feed the ranking, every
        // restricted CA round and the exact fallback (no rescoring).
        ca.score(seg);
        let total = ids.len();
        let mut guess = self.initial_guess.min(total);
        let mut rounds = 0u32;
        loop {
            if guess >= total {
                // Exact fallback (also covers tiny candidate sets).
                let top = ca.top_m_exact(seg);
                return (
                    top,
                    GuessVerifyStats {
                        final_guess: total,
                        rounds: rounds.max(1),
                        fell_back_exact: true,
                    },
                );
            }
            // Only the head of χ is consulted (the top-m̄ restriction plus
            // the next m scores for the Eq. 12 bound), so a bounded pass
            // replaces ranking all selectable candidates — this is where
            // O1's win over exact CA comes from when ε is large.
            let need = (guess + m).min(total);
            let cands = ids
                .iter()
                .zip(ca.scores())
                .map(|(&id, &gamma)| Ranked { gamma, id });
            select_best(cands, need, &mut self.heap, &mut self.scored);
            for r in &self.scored {
                self.gamma_buf[r.id as usize] = r.gamma;
            }
            rounds += 1;
            self.build_restriction(cube, guess);
            let scored = &self.scored;
            let top =
                ca.top_m_restricted(seg, &self.plan, &self.allowed, &self.gamma_buf, |best| {
                    verified(scored, best, m, guess)
                });
            if let Some(top) = top {
                return (
                    top,
                    GuessVerifyStats {
                        final_guess: guess,
                        rounds,
                        fell_back_exact: false,
                    },
                );
            }
            guess = (guess * 2).min(total);
        }
    }

    /// Marks the top-`guess` candidates (plus ancestors) in the bitmaps and
    /// rebuilds the restricted plan over them.
    fn build_restriction(&mut self, cube: &ExplanationCube, guess: usize) {
        for &e in &self.touched {
            self.structural[e as usize] = false;
            self.allowed[e as usize] = false;
        }
        self.touched.clear();
        let trie = cube.trie();
        // `touched` doubles as the work list of the ancestor closure: each
        // marked node's parents are visited once, after it.
        let mut next = 0;
        for r in &self.scored[..guess] {
            self.allowed[r.id as usize] = true;
            if !self.structural[r.id as usize] {
                self.structural[r.id as usize] = true;
                self.touched.push(r.id);
            }
            while let Some(&v) = self.touched.get(next) {
                next += 1;
                for &p in trie.parents(v) {
                    if p != ROOT_NODE && !self.structural[p as usize] {
                        self.structural[p as usize] = true;
                        self.touched.push(p);
                    }
                }
            }
        }
        self.plan.rebuild(cube, &self.touched);
    }
}

/// The Eq. 12 sufficient condition, over the restricted `best` and the
/// head `scored` of χ.
fn verified(scored: &[Ranked], best: &[f64], m: usize, guess: usize) -> bool {
    let tail_gamma = |j: usize| -> f64 { scored.get(guess + j - 1).map_or(0.0, |r| r.gamma) };
    let tol = 1e-9 * best[m].abs().max(1.0);
    for m_prime in 0..m {
        let mut bound = best[m_prime];
        for j in 1..=(m - m_prime) {
            bound += tail_gamma(j);
        }
        if best[m] + tol < bound {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metric::DiffMetric;
    use crate::score::ScoreContext;
    use proptest::prelude::*;
    use tsexplain_cube::CubeConfig;
    use tsexplain_relation::{AggQuery, Datum, Field, Relation, Schema};

    /// A cube with many one-attribute slices of varied movement, plus a
    /// second attribute to exercise drill-downs.
    fn wide_cube(n_slices: usize) -> ExplanationCube {
        let schema = Schema::new(vec![
            Field::dimension("t"),
            Field::dimension("A"),
            Field::dimension("B"),
            Field::measure("v"),
        ])
        .unwrap();
        let mut b = Relation::builder(schema);
        for i in 0..n_slices {
            let a = format!("a{i:03}");
            let bb = if i % 2 == 0 { "x" } else { "y" };
            // Slice i moves by (i * 7 % 23) + small per-B split.
            let delta = (i * 7 % 23) as f64;
            b.push_row(vec![
                Datum::from("t1"),
                Datum::from(a.as_str()),
                Datum::from(bb),
                Datum::from(10.0),
            ])
            .unwrap();
            b.push_row(vec![
                Datum::from("t2"),
                Datum::from(a.as_str()),
                Datum::from(bb),
                Datum::from(10.0 + delta),
            ])
            .unwrap();
        }
        ExplanationCube::build(
            &b.finish(),
            &AggQuery::sum("t", "v"),
            &CubeConfig::new(["A", "B"]),
        )
        .unwrap()
    }

    #[test]
    fn matches_exact_on_wide_instance() {
        let cube = wide_cube(60);
        for m in 1..=3 {
            let mut ca = CascadingAnalysts::new(&cube, DiffMetric::AbsoluteChange, m);
            let exact = ca.top_m((0, 1));
            let mut gv = GuessVerify::new(&cube, 5);
            let (approx, stats) = gv.top_m(&mut ca, (0, 1));
            assert!(
                (approx.total_score() - exact.total_score()).abs() < 1e-9,
                "m={m}: gv={} exact={} (stats {stats:?})",
                approx.total_score(),
                exact.total_score()
            );
        }
    }

    #[test]
    fn small_initial_guess_forces_doubling() {
        let cube = wide_cube(60);
        let mut ca = CascadingAnalysts::new(&cube, DiffMetric::AbsoluteChange, 3);
        let mut gv = GuessVerify::new(&cube, 1);
        let (_, stats) = gv.top_m(&mut ca, (0, 1));
        assert!(stats.rounds >= 1);
        assert!(stats.final_guess >= 1);
    }

    #[test]
    fn reuse_across_segments_is_clean() {
        let schema = Schema::new(vec![
            Field::dimension("t"),
            Field::dimension("A"),
            Field::measure("v"),
        ])
        .unwrap();
        let mut b = Relation::builder(schema);
        for (t, a, v) in [
            ("t1", "x", 1.0),
            ("t2", "x", 9.0),
            ("t3", "x", 2.0),
            ("t1", "y", 5.0),
            ("t2", "y", 5.0),
            ("t3", "y", 50.0),
        ] {
            b.push_row(vec![Datum::from(t), Datum::from(a), Datum::from(v)])
                .unwrap();
        }
        let cube = ExplanationCube::build(
            &b.finish(),
            &AggQuery::sum("t", "v"),
            &CubeConfig::new(["A"]),
        )
        .unwrap();
        let mut ca = CascadingAnalysts::new(&cube, DiffMetric::AbsoluteChange, 1);
        let mut gv = GuessVerify::new(&cube, 1);
        let (t01, _) = gv.top_m(&mut ca, (0, 1));
        let (t12, _) = gv.top_m(&mut ca, (1, 2));
        assert_eq!(cube.label(t01.items()[0].id), "A=x");
        assert_eq!(cube.label(t12.items()[0].id), "A=y");
    }

    /// Two attributes whose slices tie in γ (five candidates at 6, two at
    /// 3) while the optimum stays unique for m ≤ 2: B=x (15) for m = 1,
    /// B=x + B=y (24, the whole delta) for m = 2.
    fn tied_cube() -> ExplanationCube {
        let schema = Schema::new(vec![
            Field::dimension("t"),
            Field::dimension("A"),
            Field::dimension("B"),
            Field::measure("v"),
        ])
        .unwrap();
        let mut b = Relation::builder(schema);
        for (a, bb, delta) in [
            ("a1", "x", 6.0),
            ("a1", "y", 6.0),
            ("a2", "x", 6.0),
            ("a2", "y", 0.0),
            ("a3", "x", 3.0),
            ("a3", "y", 3.0),
        ] {
            for (t, v) in [("t1", 0.0), ("t2", delta)] {
                b.push_row(vec![
                    Datum::from(t),
                    Datum::from(a),
                    Datum::from(bb),
                    Datum::from(v),
                ])
                .unwrap();
            }
        }
        ExplanationCube::build(
            &b.finish(),
            &AggQuery::sum("t", "v"),
            &CubeConfig::new(["A", "B"]),
        )
        .unwrap()
    }

    /// How many non-overlapping sets of at most `m` candidates reach the
    /// best total γ (brute force over subsets).
    fn optimal_set_count(cube: &ExplanationCube, seg: (usize, usize), m: usize) -> usize {
        let ctx = ScoreContext::new(cube, DiffMetric::AbsoluteChange);
        let n = cube.n_candidates();
        let mut totals = Vec::new();
        for mask in 0u32..(1 << n) {
            if mask.count_ones() as usize > m {
                continue;
            }
            let chosen: Vec<ExplId> = (0..n as ExplId).filter(|&e| mask & (1 << e) != 0).collect();
            let disjoint = chosen.iter().enumerate().all(|(i, &a)| {
                chosen[i + 1..]
                    .iter()
                    .all(|&b| !cube.explanation(a).overlaps(cube.explanation(b)))
            });
            if disjoint {
                totals.push(chosen.iter().map(|&e| ctx.gamma(e, seg)).sum::<f64>());
            }
        }
        let best = totals.iter().copied().fold(0.0, f64::max);
        totals.iter().filter(|&&t| (t - best).abs() < 1e-9).count()
    }

    #[test]
    fn tied_gammas_select_exact_cas_ids() {
        let cube = tied_cube();
        let seg = (0, 1);
        let ctx = ScoreContext::new(&cube, DiffMetric::AbsoluteChange);
        let mut gammas: Vec<f64> = cube
            .selectable_ids()
            .iter()
            .map(|&e| ctx.gamma(e, seg))
            .collect();
        gammas.sort_by(f64::total_cmp);
        assert!(
            gammas.windows(2).any(|w| w[0] == w[1]),
            "no tied γ: {gammas:?}"
        );
        let mut doubled = false;
        for m in 1..=2 {
            assert_eq!(
                optimal_set_count(&cube, seg, m),
                1,
                "m={m}: optimum not unique"
            );
            let mut ca = CascadingAnalysts::new(&cube, DiffMetric::AbsoluteChange, m);
            let exact = ca.top_m(seg);
            for initial in 1..=4 {
                let mut gv = GuessVerify::new(&cube, initial);
                let (top, stats) = gv.top_m(&mut ca, seg);
                assert_eq!(top.items(), exact.items(), "m={m} m̄₀={initial} ({stats:?})");
                assert!(!stats.fell_back_exact, "m={m} m̄₀={initial} ({stats:?})");
                doubled |= stats.rounds > 1;
            }
        }
        assert!(doubled, "no derivation took a doubling round");
    }

    /// [`select_best`] over `ids` scored by the id-indexed `gammas`.
    fn select_top(
        gammas: &[f64],
        ids: &[ExplId],
        need: usize,
        heap: &mut BinaryHeap<Ranked>,
        out: &mut Vec<Ranked>,
    ) {
        let cands = ids.iter().map(|&id| Ranked {
            gamma: gammas[id as usize],
            id,
        });
        select_best(cands, need, heap, out);
    }

    /// The ranking the bounded pass replaced: every pair collected, a
    /// partial selection, then a sort of the head.
    fn reference_head(gammas: &[f64], ids: &[ExplId], need: usize) -> Vec<(u64, ExplId)> {
        let desc = |a: &(f64, ExplId), b: &(f64, ExplId)| {
            b.0.partial_cmp(&a.0)
                .unwrap_or(Ordering::Equal)
                .then(a.1.cmp(&b.1))
        };
        let mut all: Vec<(f64, ExplId)> = ids.iter().map(|&e| (gammas[e as usize], e)).collect();
        let need = need.min(all.len());
        if need < all.len() {
            all.select_nth_unstable_by(need, desc);
        }
        all.truncate(need);
        all.sort_by(desc);
        all.into_iter().map(|(g, e)| (g.to_bits(), e)).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The bounded pass returns exactly the reference head — same ids,
        /// same order — for every `need` from 0 past the list length,
        /// grown the way guess-and-verify doubles, with γ drawn from four
        /// values so exact ties are everywhere and only the id decides.
        #[test]
        fn bounded_selection_matches_the_full_ranking(
            levels in proptest::collection::vec(0u8..4, 0..64),
            keep in proptest::collection::vec(0u8..4, 64),
            rotate in 0usize..64,
            initial in 1usize..8,
            m in 1usize..4,
        ) {
            const GAMMA: [f64; 4] = [0.0, 0.5, 2.0, 7.25];
            let gammas: Vec<f64> = levels.iter().map(|&l| GAMMA[l as usize]).collect();
            // A subset in a scrambled order: the result may not depend on
            // where a tied candidate sits in the list.
            let mut ids: Vec<ExplId> = (0..gammas.len() as ExplId)
                .filter(|&e| keep[e as usize] != 0)
                .collect();
            if !ids.is_empty() {
                let k = rotate % ids.len();
                ids.rotate_left(k);
            }
            let mut heap = BinaryHeap::new();
            let mut out = Vec::new();
            let mut needs = vec![0];
            let mut guess = initial;
            loop {
                needs.push(guess + m);
                if guess > ids.len() {
                    break;
                }
                guess *= 2;
            }
            for need in needs {
                select_top(&gammas, &ids, need, &mut heap, &mut out);
                let got: Vec<(u64, ExplId)> = out.iter().map(|r| (r.gamma.to_bits(), r.id)).collect();
                prop_assert_eq!(got, reference_head(&gammas, &ids, need), "need {}", need);
            }
        }
    }

    #[test]
    fn handles_all_filtered() {
        let mut cube = wide_cube(10);
        cube.apply_filter(Some(1e9));
        let mut ca = CascadingAnalysts::new(&cube, DiffMetric::AbsoluteChange, 3);
        let mut gv = GuessVerify::new(&cube, 30);
        let (top, _) = gv.top_m(&mut ca, (0, 1));
        assert!(top.is_empty());
    }
}
