use tsexplain_cube::{DrillTrie, ExplId, ExplanationCube, NodeId, ROOT_NODE};

use crate::metric::DiffMetric;
use crate::score::ScoreContext;
use crate::top::{RankedExplanation, TopExplanations};

/// Relative tolerance for matching DP values during reconstruction.
fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0)
}

/// The Cascading Analysts algorithm (paper ref.\ 38; §5.2, Fig. 8).
///
/// The algorithm simulates an analyst's recursive drill-down: at every node
/// of the drill-down trie it either *takes* the node's data slice as an
/// explanation or picks **one** dimension to drill into and distributes its
/// explanation quota among that dimension's children. Because a node and
/// its descendants are never taken together, and siblings along one
/// dimension are disjoint slices, the selected explanations are
/// non-overlapping by construction (Definition 3.4).
///
/// Both the dimension choice and the quota assignment are dynamic programs:
/// `best[v][q]` is the maximum total γ obtainable with at most `q`
/// explanations inside `v`'s subtree, and children are combined with a
/// grouped-knapsack pass, giving the paper's `O(ε · |A| · m²)` per-segment
/// bound. `Best[q]` at the root for every `q ≤ m` falls out as a side
/// product — which is what the guess-and-verify bound (Eq. 12) consumes.
///
/// The struct owns its DP buffers and the walk-back scratch, so a
/// repeated segment query allocates only the list it returns.
pub struct CascadingAnalysts<'a> {
    ctx: ScoreContext<'a>,
    m: usize,
    /// All nodes whose subtree contains a selectable explanation, ordered
    /// children-before-parents (descending explanation order).
    full_order: Vec<ExplId>,
    /// `(ε + 1) × (m + 1)` DP table; slot ε is the root.
    best: Vec<f64>,
    /// Grouped-knapsack scratch row.
    dp: Vec<f64>,
    /// The exact path's γ buffer, filled by [`ScoreContext::gamma_ids`]
    /// over the selectable ids (other entries are stale and never read).
    gammas: Vec<f64>,
    /// Walk-back stack: the included kids of each group on the current
    /// path with the quota assigned to each.
    kids: Vec<(ExplId, usize)>,
    /// Walk-back stage table, `(kids + 1) × (q + 1)` for the group being
    /// matched; free again once its back-walk ends.
    stages: Vec<f64>,
    /// The ids the walk-back selected.
    selected: Vec<ExplId>,
}

impl<'a> CascadingAnalysts<'a> {
    /// Builds the solver for `cube` under `metric`, extracting lists of at
    /// most `m` explanations.
    pub fn new(cube: &'a ExplanationCube, metric: DiffMetric, m: usize) -> Self {
        assert!(m >= 1, "top-m requires m >= 1");
        let mut full_order: Vec<ExplId> = (0..cube.n_candidates() as ExplId)
            .filter(|&e| cube.subtree_selectable(e))
            .collect();
        full_order.sort_by_key(|&e| std::cmp::Reverse(cube.explanation(e).order()));
        let n = cube.n_candidates();
        CascadingAnalysts {
            ctx: ScoreContext::new(cube, metric),
            m,
            full_order,
            best: vec![0.0; (n + 1) * (m + 1)],
            dp: vec![0.0; m + 1],
            gammas: vec![0.0; n],
            kids: Vec::new(),
            stages: Vec::new(),
            selected: Vec::with_capacity(m),
        }
    }

    /// The cube being explained.
    pub fn cube(&self) -> &'a ExplanationCube {
        self.ctx.cube()
    }

    /// The difference metric in use.
    pub fn metric(&self) -> DiffMetric {
        self.ctx.metric()
    }

    /// The list-size bound m.
    pub fn m(&self) -> usize {
        self.m
    }

    /// The scoring context (γ/τ evaluation).
    pub fn score_context(&self) -> ScoreContext<'a> {
        self.ctx
    }

    /// Exact top-m non-overlapping explanations for segment `(a, b)`.
    pub fn top_m(&mut self, seg: (usize, usize)) -> TopExplanations {
        // One linear scan over the selectable ids replaces the per-node γ
        // evaluations of the DP (bit-identical by the batched scorer's
        // contract).
        let mut gammas = std::mem::take(&mut self.gammas);
        self.ctx
            .gamma_ids(seg, self.cube().selectable_ids(), &mut gammas);
        let top = self.top_m_exact(seg, &gammas);
        self.gammas = gammas;
        top
    }

    /// Exact top-m plus the `Best[0..=m]` root scores.
    pub fn top_m_with_best(&mut self, seg: (usize, usize)) -> (TopExplanations, Vec<f64>) {
        let top = self.top_m(seg);
        (top, self.best_root().to_vec())
    }

    /// Exact top-m over every selectable candidate, with `gammas` holding
    /// γ for at least every selectable candidate (a caller that already
    /// scored the segment passes its buffer instead of rescoring).
    pub(crate) fn top_m_exact(&mut self, seg: (usize, usize), gammas: &[f64]) -> TopExplanations {
        let cube = self.ctx.cube();
        let include = |e| cube.subtree_selectable(e);
        let selectable = |e| cube.is_selectable(e);
        let order = std::mem::take(&mut self.full_order);
        self.solve(gammas, &order, &include, &selectable);
        self.full_order = order;
        self.answer(seg, gammas, &include, &selectable)
    }

    /// Top-m over a restricted candidate set (guess-and-verify, §5.3.1).
    ///
    /// `order` must list every structurally included node children-first
    /// (descending explanation order); `structural[e]` marks inclusion
    /// (selected candidates *and* their ancestors); `allowed[e]` marks the
    /// candidates that may actually be taken as explanations; `gammas`
    /// holds γ for at least every allowed candidate (the caller's batched
    /// scores, borrowed so a guess round never rescores or copies them).
    ///
    /// `verify` sees the restricted `Best[0..=m]`; the list is walked
    /// back and returned only when it accepts, so a rejected round
    /// builds nothing.
    pub(crate) fn top_m_restricted(
        &mut self,
        seg: (usize, usize),
        order: &[ExplId],
        structural: &[bool],
        allowed: &[bool],
        gammas: &[f64],
        verify: impl FnOnce(&[f64]) -> bool,
    ) -> Option<TopExplanations> {
        let include = |e: ExplId| structural[e as usize];
        let selectable = |e: ExplId| allowed[e as usize];
        self.solve(gammas, order, &include, &selectable);
        if !verify(self.best_root()) {
            return None;
        }
        Some(self.answer(seg, gammas, &include, &selectable))
    }

    /// `Best[0..=m]` at the root from the last DP: the best total γ with
    /// at most `q` explanations, for every quota `q`.
    fn best_root(&self) -> &[f64] {
        let stride = self.m + 1;
        let root = self.slot(ROOT_NODE) * stride;
        &self.best[root..root + stride]
    }

    fn slot(&self, node: NodeId) -> usize {
        if node == ROOT_NODE {
            self.ctx.cube().n_candidates()
        } else {
            node as usize
        }
    }

    /// Fills the DP table over `order` and the root.
    fn solve<FI, FS>(&mut self, gammas: &[f64], order: &[ExplId], include: &FI, selectable: &FS)
    where
        FI: Fn(ExplId) -> bool,
        FS: Fn(ExplId) -> bool,
    {
        let trie = self.ctx.cube().trie();
        for &v in order {
            self.solve_node(v, gammas, trie, include, selectable);
        }
        self.solve_node_groups(ROOT_NODE, trie, include, false);
    }

    /// Walks the last DP back into the ranked list.
    fn answer<FI, FS>(
        &mut self,
        seg: (usize, usize),
        gammas: &[f64],
        include: &FI,
        selectable: &FS,
    ) -> TopExplanations
    where
        FI: Fn(ExplId) -> bool,
        FS: Fn(ExplId) -> bool,
    {
        let trie = self.ctx.cube().trie();
        self.selected.clear();
        self.reconstruct(ROOT_NODE, self.m, gammas, trie, include, selectable);
        let items = self
            .selected
            .iter()
            .map(|&id| RankedExplanation {
                id,
                gamma: gammas[id as usize],
                effect: self.ctx.effect(id, seg),
            })
            .collect();
        TopExplanations::new(items)
    }

    /// Fills `best[v][*]` for a concrete explanation node.
    fn solve_node<FI, FS>(
        &mut self,
        v: ExplId,
        gammas: &[f64],
        trie: &DrillTrie,
        include: &FI,
        selectable: &FS,
    ) where
        FI: Fn(ExplId) -> bool,
        FS: Fn(ExplId) -> bool,
    {
        // The batched per-segment scores were filled before the DP walk;
        // `selectable` still gates the take (a restricted run's buffer
        // scores candidates outside its allowed set, and entries outside
        // the scored list are stale).
        let take_self = if selectable(v) {
            gammas[v as usize]
        } else {
            0.0
        };
        let stride = self.m + 1;
        let base = self.slot(v) * stride;
        self.best[base] = 0.0;
        for q in 1..=self.m {
            self.best[base + q] = take_self;
        }
        self.solve_node_groups(v, trie, include, true);
    }

    /// Max-in the best drill-down dimension's knapsack at `node`.
    ///
    /// When `keep_existing` is false the node's row is reset first (used
    /// for the root, which cannot take itself).
    fn solve_node_groups<FI>(
        &mut self,
        node: NodeId,
        trie: &DrillTrie,
        include: &FI,
        keep_existing: bool,
    ) where
        FI: Fn(ExplId) -> bool,
    {
        let stride = self.m + 1;
        let base = self.slot(node) * stride;
        if !keep_existing {
            for q in 0..=self.m {
                self.best[base + q] = 0.0;
            }
        }
        for (_attr, kids) in trie.children(node) {
            // Grouped knapsack over this dimension's children.
            for x in self.dp.iter_mut() {
                *x = 0.0;
            }
            let mut any = false;
            for &kid in kids {
                if !include(kid) {
                    continue;
                }
                any = true;
                let kbase = (kid as usize) * stride;
                for cap in (1..=self.m).rev() {
                    let mut acc = self.dp[cap];
                    for s in 1..=cap {
                        let cand = self.dp[cap - s] + self.best[kbase + s];
                        if cand > acc {
                            acc = cand;
                        }
                    }
                    self.dp[cap] = acc;
                }
            }
            if !any {
                continue;
            }
            for q in 1..=self.m {
                if self.dp[q] > self.best[base + q] {
                    self.best[base + q] = self.dp[q];
                }
            }
        }
    }

    /// Walks the DP back, pushing the selected explanation ids onto
    /// `self.selected`.
    ///
    /// Each visited group pushes its included kids onto `self.kids` and
    /// fills `self.stages`; the kids it assigns quota to are recursed into
    /// only after its back-walk, so the stage table is free again and the
    /// deeper calls' kids land above this group's entries. The emission
    /// order is free: [`TopExplanations::new`] sorts.
    fn reconstruct<FI, FS>(
        &mut self,
        node: NodeId,
        q: usize,
        gammas: &[f64],
        trie: &DrillTrie,
        include: &FI,
        selectable: &FS,
    ) where
        FI: Fn(ExplId) -> bool,
        FS: Fn(ExplId) -> bool,
    {
        let stride = self.m + 1;
        let target = self.best[self.slot(node) * stride + q];
        if target <= 0.0 {
            return;
        }
        if node != ROOT_NODE && q >= 1 && selectable(node) && close(target, gammas[node as usize]) {
            self.selected.push(node);
            return;
        }
        let width = q + 1;
        let start = self.kids.len();
        for (_attr, group) in trie.children(node) {
            self.kids.truncate(start);
            self.kids
                .extend(group.iter().filter(|&&k| include(k)).map(|&k| (k, 0)));
            let n_kids = self.kids.len() - start;
            if n_kids == 0 {
                continue;
            }
            // Stage-by-stage knapsack: stage i, slot cap, after the first
            // i kids.
            self.stages.clear();
            self.stages.resize((n_kids + 1) * width, 0.0);
            for i in 1..=n_kids {
                let kbase = (self.kids[start + i - 1].0 as usize) * stride;
                let (prev, row) = self.stages[(i - 1) * width..(i + 1) * width].split_at_mut(width);
                for cap in 0..=q {
                    let mut acc = prev[cap];
                    for s in 1..=cap {
                        let cand = prev[cap - s] + self.best[kbase + s];
                        if cand > acc {
                            acc = cand;
                        }
                    }
                    row[cap] = acc;
                }
            }
            if !close(self.stages[n_kids * width + q], target) {
                continue;
            }
            // Back-walk the stages, assigning quota to kids.
            let mut cap = q;
            for i in (1..=n_kids).rev() {
                let kbase = (self.kids[start + i - 1].0 as usize) * stride;
                let goal = self.stages[i * width + cap];
                let mut assigned = 0;
                for s in 0..=cap {
                    let part = if s == 0 { 0.0 } else { self.best[kbase + s] };
                    if close(self.stages[(i - 1) * width + cap - s] + part, goal) {
                        assigned = s;
                        break;
                    }
                }
                self.kids[start + i - 1].1 = assigned;
                cap -= assigned;
            }
            let end = self.kids.len();
            for i in start..end {
                let (kid, assigned) = self.kids[i];
                if assigned > 0 {
                    self.reconstruct(kid, assigned, gammas, trie, include, selectable);
                }
            }
            self.kids.truncate(start);
            return;
        }
        self.kids.truncate(start);
        debug_assert!(
            false,
            "reconstruction failed to match best value {target} at node {node}"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsexplain_cube::CubeConfig;
    use tsexplain_relation::{AggQuery, Datum, Field, Relation, Schema};

    /// Builds a cube from (time, a, b, measure) tuples over two explain-by
    /// attributes.
    fn cube_from(rows: &[(&str, &str, &str, f64)]) -> ExplanationCube {
        let schema = Schema::new(vec![
            Field::dimension("t"),
            Field::dimension("A"),
            Field::dimension("B"),
            Field::measure("v"),
        ])
        .unwrap();
        let mut b = Relation::builder(schema);
        for &(t, a, bb, v) in rows {
            b.push_row(vec![
                Datum::from(t),
                Datum::from(a),
                Datum::from(bb),
                Datum::from(v),
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

    /// Exhaustive oracle: the best total γ over every non-overlapping set
    /// of at most m explanations (brute force over subsets).
    fn brute_force_best(cube: &ExplanationCube, seg: (usize, usize), m: usize) -> f64 {
        let ctx = ScoreContext::new(cube, DiffMetric::AbsoluteChange);
        let ids: Vec<ExplId> = (0..cube.n_candidates() as ExplId).collect();
        let mut best = 0.0f64;
        let n = ids.len();
        for mask in 0u64..(1 << n) {
            if (mask.count_ones() as usize) > m {
                continue;
            }
            let chosen: Vec<ExplId> = ids
                .iter()
                .copied()
                .filter(|&e| mask & (1 << e) != 0)
                .collect();
            let ok = chosen.iter().enumerate().all(|(i, &a)| {
                chosen[i + 1..]
                    .iter()
                    .all(|&b| !cube.explanation(a).overlaps(cube.explanation(b)))
            });
            if !ok {
                continue;
            }
            let score: f64 = chosen.iter().map(|&e| ctx.gamma(e, seg)).sum();
            if score > best {
                best = score;
            }
        }
        best
    }

    /// Builds a single-attribute cube from (time, a, measure) tuples.
    fn cube_from_one_attr(rows: &[(&str, &str, f64)]) -> ExplanationCube {
        let schema = Schema::new(vec![
            Field::dimension("t"),
            Field::dimension("A"),
            Field::measure("v"),
        ])
        .unwrap();
        let mut b = Relation::builder(schema);
        for &(t, a, v) in rows {
            b.push_row(vec![Datum::from(t), Datum::from(a), Datum::from(v)])
                .unwrap();
        }
        ExplanationCube::build(
            &b.finish(),
            &AggQuery::sum("t", "v"),
            &CubeConfig::new(["A"]),
        )
        .unwrap()
    }

    #[test]
    fn single_attribute_picks_largest_movers() {
        let rows = [
            ("t1", "NY", 10.0),
            ("t2", "NY", 30.0), // +20
            ("t1", "CA", 10.0),
            ("t2", "CA", 15.0), // +5
            ("t1", "TX", 10.0),
            ("t2", "TX", 11.0), // +1
        ];
        let cube = cube_from_one_attr(&rows);
        let mut ca = CascadingAnalysts::new(&cube, DiffMetric::AbsoluteChange, 2);
        let top = ca.top_m((0, 1));
        assert_eq!(top.len(), 2);
        assert_eq!(cube.label(top.items()[0].id), "A=NY");
        assert_eq!(top.items()[0].gamma, 20.0);
        assert_eq!(cube.label(top.items()[1].id), "A=CA");
    }

    #[test]
    fn whole_population_slice_beats_split_when_larger() {
        // With a second attribute that is constant, the slice B=x covers the
        // whole table and its γ (the full delta, 26) beats NY+CA (25).
        let rows = [
            ("t1", "NY", "x", 10.0),
            ("t2", "NY", "x", 30.0),
            ("t1", "CA", "x", 10.0),
            ("t2", "CA", "x", 15.0),
            ("t1", "TX", "x", 10.0),
            ("t2", "TX", "x", 11.0),
        ];
        let cube = cube_from(&rows);
        let mut ca = CascadingAnalysts::new(&cube, DiffMetric::AbsoluteChange, 2);
        let top = ca.top_m((0, 1));
        assert_eq!(top.len(), 1);
        assert_eq!(cube.label(top.items()[0].id), "B=x");
        assert_eq!(top.total_score(), 26.0);
    }

    #[test]
    fn non_overlap_is_enforced() {
        // A=NY moves +20 total; its sub-slice (NY, b1) moves +18.
        // Taking both would double count; CA must not return both.
        let rows = [
            ("t1", "NY", "b1", 1.0),
            ("t2", "NY", "b1", 19.0),
            ("t1", "NY", "b2", 1.0),
            ("t2", "NY", "b2", 3.0),
            ("t1", "CA", "b1", 5.0),
            ("t2", "CA", "b1", 5.0),
        ];
        let cube = cube_from(&rows);
        let mut ca = CascadingAnalysts::new(&cube, DiffMetric::AbsoluteChange, 3);
        let top = ca.top_m((0, 1));
        for (i, a) in top.items().iter().enumerate() {
            for b in &top.items()[i + 1..] {
                assert!(
                    !cube.explanation(a.id).overlaps(cube.explanation(b.id)),
                    "{} overlaps {}",
                    cube.label(a.id),
                    cube.label(b.id)
                );
            }
        }
    }

    #[test]
    fn drill_down_beats_coarse_when_children_disagree() {
        // A=NY nets 0 (+10 via b1, −10 via b2) but drilling into B inside NY
        // surfaces both movers with |γ| = 10 each.
        let rows = [
            ("t1", "NY", "b1", 10.0),
            ("t2", "NY", "b1", 20.0),
            ("t1", "NY", "b2", 20.0),
            ("t2", "NY", "b2", 10.0),
        ];
        let cube = cube_from(&rows);
        let mut ca = CascadingAnalysts::new(&cube, DiffMetric::AbsoluteChange, 2);
        let top = ca.top_m((0, 1));
        assert_eq!(top.len(), 2);
        assert_eq!(top.total_score(), 20.0);
        let labels: Vec<String> = top.items().iter().map(|i| cube.label(i.id)).collect();
        assert!(labels
            .iter()
            .all(|l| l.contains('&') || l.starts_with("B=")));
    }

    #[test]
    fn matches_brute_force_on_small_instances() {
        let rows = [
            ("t1", "a1", "b1", 3.0),
            ("t2", "a1", "b1", 9.0),
            ("t1", "a1", "b2", 7.0),
            ("t2", "a1", "b2", 2.0),
            ("t1", "a2", "b1", 4.0),
            ("t2", "a2", "b1", 4.5),
            ("t1", "a2", "b2", 1.0),
            ("t2", "a2", "b2", 8.0),
        ];
        let cube = cube_from(&rows);
        for m in 1..=4 {
            let mut ca = CascadingAnalysts::new(&cube, DiffMetric::AbsoluteChange, m);
            let (top, best) = ca.top_m_with_best((0, 1));
            let oracle = brute_force_best(&cube, (0, 1), m);
            assert!(
                (top.total_score() - oracle).abs() < 1e-9,
                "m={m}: CA={} oracle={oracle}",
                top.total_score()
            );
            assert!((best[m] - oracle).abs() < 1e-9);
            // Best is monotone in quota.
            for q in 1..=m {
                assert!(best[q] + 1e-12 >= best[q - 1]);
            }
        }
    }

    #[test]
    fn best_side_products_match_smaller_m_runs() {
        let rows = [
            ("t1", "a1", "b1", 3.0),
            ("t2", "a1", "b1", 9.0),
            ("t1", "a2", "b2", 1.0),
            ("t2", "a2", "b2", 8.0),
            ("t1", "a3", "b1", 5.0),
            ("t2", "a3", "b1", 2.0),
        ];
        let cube = cube_from(&rows);
        let mut ca3 = CascadingAnalysts::new(&cube, DiffMetric::AbsoluteChange, 3);
        let (_, best3) = ca3.top_m_with_best((0, 1));
        #[allow(clippy::needless_range_loop)]
        for m in 1..3 {
            let mut ca = CascadingAnalysts::new(&cube, DiffMetric::AbsoluteChange, m);
            let (top, _) = ca.top_m_with_best((0, 1));
            assert!((best3[m] - top.total_score()).abs() < 1e-9);
        }
    }

    #[test]
    fn flat_segment_returns_empty() {
        let rows = [
            ("t1", "NY", "x", 10.0),
            ("t2", "NY", "x", 10.0),
            ("t1", "CA", "x", 4.0),
            ("t2", "CA", "x", 4.0),
        ];
        let cube = cube_from(&rows);
        let mut ca = CascadingAnalysts::new(&cube, DiffMetric::AbsoluteChange, 3);
        let top = ca.top_m((0, 1));
        assert!(top.is_empty());
        assert_eq!(top.ideal_dcg(), 0.0);
    }

    #[test]
    fn repeated_queries_are_consistent() {
        let rows = [
            ("t1", "a1", "b1", 3.0),
            ("t2", "a1", "b1", 9.0),
            ("t3", "a1", "b1", 1.0),
            ("t1", "a2", "b2", 1.0),
            ("t2", "a2", "b2", 8.0),
            ("t3", "a2", "b2", 12.0),
        ];
        let cube = cube_from(&rows);
        let mut ca = CascadingAnalysts::new(&cube, DiffMetric::AbsoluteChange, 2);
        let first: Vec<_> = ca.top_m((0, 1)).items().to_vec();
        let _ = ca.top_m((1, 2));
        let again: Vec<_> = ca.top_m((0, 1)).items().to_vec();
        assert_eq!(first, again);
    }

    #[test]
    fn respects_filter_selectability() {
        let rows = [
            ("t1", "NY", "x", 10.0),
            ("t2", "NY", "x", 30.0),
            ("t1", "CA", "x", 0.001),
            ("t2", "CA", "x", 0.002),
        ];
        let mut cube = cube_from(&rows);
        cube.apply_filter(Some(0.01));
        let mut ca = CascadingAnalysts::new(&cube, DiffMetric::AbsoluteChange, 3);
        let top = ca.top_m((0, 1));
        assert!(top.items().iter().all(|it| cube.is_selectable(it.id)));
    }
}
