//! The Cascading Analysts DP (§5.2, Fig. 8) over a drill-down plan.
//!
//! A `DrillPlan` is the part of the cube's trie one DP walks: its included
//! nodes children first, each with its drill-down groups cut down to the
//! included kids, in trie order. A plan is built from the trie's parent
//! lists, by counting-sorting the included kids into (parent, attribute)
//! buckets: once per solver for exact CA, and once per round for
//! guess-and-verify, so a restricted DP never visits a child outside its
//! restriction. Kids keep ascending ids, so every knapsack sum — and with
//! it every `Best` value and walk-back — is the one a walk of the whole
//! trie would form.

use tsexplain_cube::{ExplId, ExplanationCube, NodeId, MAX_EXPLAIN_BY, ROOT_NODE};

use crate::metric::DiffMetric;
use crate::score::ScoreContext;
use crate::top::{RankedExplanation, TopExplanations};

/// Relative tolerance for matching DP values during reconstruction.
fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0)
}

/// The part of the drill-down trie one DP walks: its included nodes,
/// children first, each with its drill-down groups cut down to the
/// included kids.
///
/// Groups keep the trie's order (ascending attribute) and kids their
/// ascending id, so every knapsack sum is formed in the order a walk of
/// the whole trie that skips excluded kids would form it, and the DP's
/// values and walk-back are bit-identical to that walk's. Exact CA builds
/// its plan once per solver; guess-and-verify rebuilds one per round, so
/// a restricted DP never visits an excluded child.
#[derive(Debug, Default)]
pub(crate) struct DrillPlan {
    /// Included nodes, children first (descending explanation order). The
    /// root follows them implicitly, at position `order.len()`.
    order: Vec<ExplId>,
    /// Position `i`'s groups are `node_groups[i]..node_groups[i + 1]`
    /// (`order.len() + 2` entries: the root's groups come last).
    node_groups: Vec<u32>,
    /// Group `g`'s kids are `kids[group_kids[g]..group_kids[g + 1]]`.
    group_kids: Vec<u32>,
    kids: Vec<ExplId>,
    /// Per explanation id, its position in `order`; stale for ids outside
    /// the plan, which no walk asks about.
    position: Vec<u32>,
    /// Build scratch: the included ids, ascending.
    ascending: Vec<ExplId>,
    /// Build scratch: per `(parent position, attr)` bucket, its start in
    /// `kids` (then its fill cursor).
    bucket: Vec<u32>,
    /// Build scratch: `(bucket, kid)` per included edge, kids ascending.
    edges: Vec<(u32, ExplId)>,
}

impl DrillPlan {
    /// The plan of exact CA: every node whose subtree holds a selectable
    /// candidate (a set closed under parents), with the kids that do.
    pub(crate) fn full(cube: &ExplanationCube) -> Self {
        let included: Vec<ExplId> = (0..cube.n_candidates() as ExplId)
            .filter(|&e| cube.subtree_selectable(e))
            .collect();
        let mut plan = DrillPlan::default();
        plan.rebuild(cube, &included);
        plan
    }

    /// Rebuilds the plan over `included`, a set closed under drill-down
    /// parents (any order, no repeats): each included node's kids are
    /// found from the kids' parent lists, never by scanning a trie group.
    ///
    /// The kids are counting-sorted into one bucket per (parent position,
    /// attribute) in ascending id order, so each bucket is one group in
    /// trie order: attributes ascending, kids ascending.
    pub(crate) fn rebuild(&mut self, cube: &ExplanationCube, included: &[ExplId]) {
        if self.position.len() != cube.n_candidates() {
            self.position = vec![0; cube.n_candidates()];
        }
        self.set_order(cube, included);
        self.ascending.clear();
        self.ascending.extend_from_slice(included);
        self.ascending.sort_unstable();
        let trie = cube.trie();
        let n_attrs = cube.attr_names().len();
        let (position, root) = (&self.position, self.order.len());
        let bucket_of = |parent: NodeId, attr: u16| {
            let at = if parent == ROOT_NODE {
                root
            } else {
                position[parent as usize] as usize
            };
            at * n_attrs + attr as usize
        };
        let n_buckets = (root + 1) * n_attrs;
        self.bucket.clear();
        self.bucket.resize(n_buckets + 1, 0);
        self.edges.clear();
        for &kid in &self.ascending {
            let preds = cube.explanation(kid).preds();
            for (&parent, &(attr, _)) in trie.parents(kid).iter().zip(preds) {
                let b = bucket_of(parent, attr);
                self.bucket[b + 1] += 1;
                self.edges.push((b as u32, kid));
            }
        }
        for b in 1..=n_buckets {
            self.bucket[b] += self.bucket[b - 1];
        }
        self.group_kids.clear();
        self.node_groups.clear();
        self.group_kids.push(0);
        self.node_groups.push(0);
        for at in 0..=root {
            for b in at * n_attrs..(at + 1) * n_attrs {
                if self.bucket[b + 1] > self.bucket[b] {
                    self.group_kids.push(self.bucket[b + 1]);
                }
            }
            self.node_groups.push(self.group_kids.len() as u32 - 1);
        }
        self.kids.clear();
        self.kids.resize(self.edges.len(), 0);
        for &(b, kid) in &self.edges {
            let slot = &mut self.bucket[b as usize];
            self.kids[*slot as usize] = kid;
            *slot += 1;
        }
    }

    /// Lays `included` out children first by bucketing it on explanation
    /// order (nodes of equal order never read each other's DP rows, so
    /// their relative order is free) and records each one's position.
    fn set_order(&mut self, cube: &ExplanationCube, included: &[ExplId]) {
        let mut start = [0usize; MAX_EXPLAIN_BY + 2];
        for &e in included {
            start[MAX_EXPLAIN_BY - cube.explanation(e).order() + 1] += 1;
        }
        for k in 1..start.len() {
            start[k] += start[k - 1];
        }
        self.order.clear();
        self.order.resize(included.len(), 0);
        for &e in included {
            let slot = &mut start[MAX_EXPLAIN_BY - cube.explanation(e).order()];
            self.order[*slot] = e;
            self.position[e as usize] = *slot as u32;
            *slot += 1;
        }
    }

    /// The position of `node` (the root's is `order.len()`).
    fn position_of(&self, node: NodeId) -> usize {
        if node == ROOT_NODE {
            self.order.len()
        } else {
            self.position[node as usize] as usize
        }
    }

    /// The groups of the node at `position`, as kid slices.
    fn groups(&self, position: usize) -> impl Iterator<Item = &[ExplId]> + '_ {
        let groups = self.node_groups[position] as usize..self.node_groups[position + 1] as usize;
        groups
            .map(move |g| &self.kids[self.group_kids[g] as usize..self.group_kids[g + 1] as usize])
    }
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
/// The DP and its walk-back run over a `DrillPlan`, the included part of
/// the trie: the exact run's plan (every subtree holding a selectable
/// candidate) is built once per solver, and a restricted run's by
/// guess-and-verify each round, so neither visits a child it would skip.
/// Either way a derivation scores its segment once, in one pass over the
/// cube's selectable plane ([`ScoreContext::gamma_selectable`]). The
/// struct owns its score and DP buffers and the walk-back scratch, so a
/// repeated segment query allocates only the list it returns.
pub struct CascadingAnalysts<'a> {
    ctx: ScoreContext<'a>,
    m: usize,
    /// The exact DP's plan: every node whose subtree contains a selectable
    /// explanation, with the kids that do.
    full_plan: DrillPlan,
    /// `(ε + 1) × (m + 1)` DP table; slot ε is the root.
    best: Vec<f64>,
    /// Grouped-knapsack scratch row.
    dp: Vec<f64>,
    /// The last scored segment's γ in selectable-position order
    /// (`scores[i]` scores `selectable_ids()[i]`), from
    /// [`ScoreContext::gamma_selectable`].
    scores: Vec<f64>,
    /// The exact DP's scores, indexed by id (entries of unselectable ids
    /// are stale and never read).
    gammas: Vec<f64>,
    /// Walk-back stack: the kids of each group on the current path with
    /// the quota assigned to each.
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
        let n = cube.n_candidates();
        CascadingAnalysts {
            ctx: ScoreContext::new(cube, metric),
            m,
            full_plan: DrillPlan::full(cube),
            best: vec![0.0; (n + 1) * (m + 1)],
            dp: vec![0.0; m + 1],
            scores: vec![0.0; cube.n_selectable()],
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
        self.score(seg);
        self.top_m_exact(seg)
    }

    /// Exact top-m plus the `Best[0..=m]` root scores.
    pub fn top_m_with_best(&mut self, seg: (usize, usize)) -> (TopExplanations, Vec<f64>) {
        let top = self.top_m(seg);
        (top, self.best_root().to_vec())
    }

    /// Scores every selectable candidate over `seg` in one pass over the
    /// cube's selectable plane. Both derivation paths score a segment
    /// here once: exact CA, and guess-and-verify's ranking.
    pub(crate) fn score(&mut self, seg: (usize, usize)) {
        self.ctx.gamma_selectable(seg, &mut self.scores);
    }

    /// The scores of the last [`CascadingAnalysts::score`] call:
    /// `scores()[i]` scores `selectable_ids()[i]`.
    pub(crate) fn scores(&self) -> &[f64] {
        &self.scores
    }

    /// Exact top-m over every selectable candidate of the segment last
    /// passed to [`CascadingAnalysts::score`], whose scores are first
    /// scattered into the id-indexed buffer the DP reads.
    pub(crate) fn top_m_exact(&mut self, seg: (usize, usize)) -> TopExplanations {
        let cube = self.ctx.cube();
        for (&id, &gamma) in cube.selectable_ids().iter().zip(&self.scores) {
            self.gammas[id as usize] = gamma;
        }
        let selectable = |e| cube.is_selectable(e);
        let plan = std::mem::take(&mut self.full_plan);
        let gammas = std::mem::take(&mut self.gammas);
        self.solve(&plan, &gammas, &selectable);
        let top = self.answer(seg, &plan, &gammas, &selectable);
        self.full_plan = plan;
        self.gammas = gammas;
        top
    }

    /// Top-m over a restricted candidate set (guess-and-verify, §5.3.1).
    ///
    /// `plan` covers the structurally included nodes (the selected
    /// candidates *and* their ancestors; see [`DrillPlan::rebuild`]);
    /// `allowed[e]` marks the candidates that may actually be taken as
    /// explanations; `gammas` holds γ for at least every allowed
    /// candidate, indexed by id (the caller's ranked head, borrowed so a
    /// guess round never rescores or copies it).
    ///
    /// `verify` sees the restricted `Best[0..=m]`; the list is walked
    /// back and returned only when it accepts, so a rejected round
    /// builds nothing.
    pub(crate) fn top_m_restricted(
        &mut self,
        seg: (usize, usize),
        plan: &DrillPlan,
        allowed: &[bool],
        gammas: &[f64],
        verify: impl FnOnce(&[f64]) -> bool,
    ) -> Option<TopExplanations> {
        let selectable = |e: ExplId| allowed[e as usize];
        self.solve(plan, gammas, &selectable);
        if !verify(self.best_root()) {
            return None;
        }
        Some(self.answer(seg, plan, gammas, &selectable))
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

    /// Fills the DP table over `plan`'s nodes, children first, then the
    /// root (which cannot take itself).
    fn solve<FS>(&mut self, plan: &DrillPlan, gammas: &[f64], selectable: &FS)
    where
        FS: Fn(ExplId) -> bool,
    {
        let stride = self.m + 1;
        for (position, &v) in plan.order.iter().enumerate() {
            // The batched per-segment scores were filled before the DP
            // walk; `selectable` still gates the take (a restricted run's
            // buffer scores candidates outside its allowed set, and
            // entries outside the scored list are stale).
            let take_self = if selectable(v) {
                gammas[v as usize]
            } else {
                0.0
            };
            let base = self.slot(v) * stride;
            self.best[base] = 0.0;
            self.best[base + 1..base + stride].fill(take_self);
            self.solve_groups(base, plan, position);
        }
        let root = self.slot(ROOT_NODE) * stride;
        self.best[root..root + stride].fill(0.0);
        self.solve_groups(root, plan, plan.order.len());
    }

    /// Max-in the best drill-down dimension's knapsack at the node whose
    /// DP row starts at `base` and whose plan position is `position`.
    fn solve_groups(&mut self, base: usize, plan: &DrillPlan, position: usize) {
        let stride = self.m + 1;
        for kids in plan.groups(position) {
            // Grouped knapsack over this dimension's children.
            self.dp.fill(0.0);
            for &kid in kids {
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
            for q in 1..=self.m {
                if self.dp[q] > self.best[base + q] {
                    self.best[base + q] = self.dp[q];
                }
            }
        }
    }

    /// Walks the last DP back into the ranked list.
    fn answer<FS>(
        &mut self,
        seg: (usize, usize),
        plan: &DrillPlan,
        gammas: &[f64],
        selectable: &FS,
    ) -> TopExplanations
    where
        FS: Fn(ExplId) -> bool,
    {
        self.selected.clear();
        self.reconstruct(ROOT_NODE, self.m, gammas, plan, selectable);
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

    /// Walks the DP back, pushing the selected explanation ids onto
    /// `self.selected`.
    ///
    /// Each visited group pushes its kids onto `self.kids` and fills
    /// `self.stages`; the kids it assigns quota to are recursed into only
    /// after its back-walk, so the stage table is free again and the
    /// deeper calls' kids land above this group's entries. The emission
    /// order is free: [`TopExplanations::new`] sorts.
    fn reconstruct<FS>(
        &mut self,
        node: NodeId,
        q: usize,
        gammas: &[f64],
        plan: &DrillPlan,
        selectable: &FS,
    ) where
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
        for group in plan.groups(plan.position_of(node)) {
            self.kids.truncate(start);
            self.kids.extend(group.iter().map(|&k| (k, 0)));
            let n_kids = group.len();
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
                    self.reconstruct(kid, assigned, gammas, plan, selectable);
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
        #[expect(
            clippy::needless_range_loop,
            reason = "m is both the index into best3 and the CA's m"
        )]
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

    /// The reference DP: a walk of the whole trie that tests every child
    /// against `include`. Returns the root's `Best[0..=m]` bits and the
    /// selected ids, ascending.
    fn trie_walk(
        cube: &ExplanationCube,
        m: usize,
        gammas: &[f64],
        include: &dyn Fn(ExplId) -> bool,
        selectable: &dyn Fn(ExplId) -> bool,
    ) -> (Vec<u64>, Vec<ExplId>) {
        let n = cube.n_candidates();
        let stride = m + 1;
        let slot = |v: NodeId| if v == ROOT_NODE { n } else { v as usize };
        let mut order: Vec<ExplId> = (0..n as ExplId).filter(|&e| include(e)).collect();
        order.sort_by_key(|&e| std::cmp::Reverse(cube.explanation(e).order()));
        let mut best = vec![0.0; (n + 1) * stride];
        let trie = cube.trie();
        for v in order.iter().copied().chain([ROOT_NODE]) {
            let take = if v != ROOT_NODE && selectable(v) {
                gammas[v as usize]
            } else {
                0.0
            };
            let base = slot(v) * stride;
            for q in 1..=m {
                best[base + q] = take;
            }
            for (_, kids) in trie.children(v) {
                let mut dp = vec![0.0; stride];
                let mut any = false;
                for &kid in kids.iter().filter(|&&k| include(k)) {
                    any = true;
                    for cap in (1..=m).rev() {
                        let mut acc = dp[cap];
                        for s in 1..=cap {
                            let cand = dp[cap - s] + best[kid as usize * stride + s];
                            if cand > acc {
                                acc = cand;
                            }
                        }
                        dp[cap] = acc;
                    }
                }
                for q in 1..=m {
                    if any && dp[q] > best[base + q] {
                        best[base + q] = dp[q];
                    }
                }
            }
        }
        #[expect(
            clippy::too_many_arguments,
            reason = "the reference walk-back takes the DP state field by field"
        )]
        fn walk(
            cube: &ExplanationCube,
            best: &[f64],
            stride: usize,
            node: NodeId,
            q: usize,
            gammas: &[f64],
            include: &dyn Fn(ExplId) -> bool,
            selectable: &dyn Fn(ExplId) -> bool,
            out: &mut Vec<ExplId>,
        ) {
            let n = cube.n_candidates();
            let slot = |v: NodeId| if v == ROOT_NODE { n } else { v as usize };
            let target = best[slot(node) * stride + q];
            if target <= 0.0 {
                return;
            }
            if node != ROOT_NODE && selectable(node) && close(target, gammas[node as usize]) {
                out.push(node);
                return;
            }
            for (_, group) in cube.trie().children(node) {
                let kids: Vec<ExplId> = group.iter().copied().filter(|&k| include(k)).collect();
                if kids.is_empty() {
                    continue;
                }
                let width = q + 1;
                let mut stages = vec![0.0; (kids.len() + 1) * width];
                for i in 1..=kids.len() {
                    for cap in 0..=q {
                        let mut acc = stages[(i - 1) * width + cap];
                        for s in 1..=cap {
                            let cand = stages[(i - 1) * width + cap - s]
                                + best[kids[i - 1] as usize * stride + s];
                            if cand > acc {
                                acc = cand;
                            }
                        }
                        stages[i * width + cap] = acc;
                    }
                }
                if !close(stages[kids.len() * width + q], target) {
                    continue;
                }
                let mut cap = q;
                let mut assigned = vec![0; kids.len()];
                for i in (1..=kids.len()).rev() {
                    let goal = stages[i * width + cap];
                    for s in 0..=cap {
                        let part = if s == 0 {
                            0.0
                        } else {
                            best[kids[i - 1] as usize * stride + s]
                        };
                        if close(stages[(i - 1) * width + cap - s] + part, goal) {
                            assigned[i - 1] = s;
                            break;
                        }
                    }
                    cap -= assigned[i - 1];
                }
                for (&kid, &s) in kids.iter().zip(&assigned) {
                    if s > 0 {
                        walk(cube, best, stride, kid, s, gammas, include, selectable, out);
                    }
                }
                return;
            }
        }
        let mut selected = Vec::new();
        walk(
            cube,
            &best,
            stride,
            ROOT_NODE,
            m,
            gammas,
            include,
            selectable,
            &mut selected,
        );
        selected.sort_unstable();
        let root = n * stride;
        let bits = best[root..root + stride]
            .iter()
            .map(|x| x.to_bits())
            .collect();
        (bits, selected)
    }

    /// A SUM cube over one to three explain-by attributes.
    fn random_cube(
        rows: &[(u8, [u8; 3], f64)],
        n_attrs: usize,
        prune: bool,
        filter: Option<f64>,
    ) -> ExplanationCube {
        let names = ["A", "B", "C"];
        let mut fields = vec![Field::dimension("t")];
        fields.extend(names[..n_attrs].iter().map(|&a| Field::dimension(a)));
        fields.push(Field::measure("v"));
        let mut b = Relation::builder(Schema::new(fields).unwrap());
        for &(t, attrs, v) in rows {
            let mut row = vec![Datum::Attr(i64::from(t).into())];
            row.extend(
                attrs[..n_attrs]
                    .iter()
                    .map(|&x| Datum::Attr(i64::from(x).into())),
            );
            row.push(Datum::from(v));
            b.push_row(row).unwrap();
        }
        let mut config = CubeConfig::new(names[..n_attrs].iter().copied());
        if !prune {
            config = config.without_redundancy_pruning();
        }
        config.filter_ratio = filter;
        ExplanationCube::build(&b.finish(), &AggQuery::sum("t", "v"), &config).unwrap()
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(96))]

        /// The DP over plans matches the whole-trie walk bit for bit —
        /// root `Best` and selected list — for exact CA and for restricted
        /// runs whose included set is closed by probing every predicate
        /// subset, on cubes of one to three attributes, pruned or not.
        #[test]
        fn plans_match_the_whole_trie_walk(
            rows in proptest::collection::vec(
                (0u8..4, (0u8..3, 0u8..3, 0u8..2), 0.0f64..40.0), 4..40),
            n_attrs in 1usize..=3,
            prune in 0u8..2,
            filtered in 0u8..2,
            m in 1usize..4,
            pick in proptest::collection::vec(0u8..3, 64),
        ) {
            let rows: Vec<(u8, [u8; 3], f64)> = rows
                .iter()
                .map(|&(t, (a, b, c), v)| (t, [a, b, c], (v * 4.0).round() / 4.0))
                .collect();
            let filter = (filtered == 1).then_some(0.05);
            let cube = random_cube(&rows, n_attrs, prune == 1, filter);
            if cube.n_points() < 2 {
                return Ok(());
            }
            let n = cube.n_candidates();
            let mut ca = CascadingAnalysts::new(&cube, DiffMetric::AbsoluteChange, m);
            let ctx = ca.score_context();
            let mut gammas = vec![0.0; n];
            ctx.gamma_all((0, 1), &mut gammas);
            for seg in [(0, 1), (0, cube.n_points() - 1)] {
                ctx.gamma_all(seg, &mut gammas);
                let (top, best) = ca.top_m_with_best(seg);
                let mut ids: Vec<ExplId> = top.items().iter().map(|it| it.id).collect();
                ids.sort_unstable();
                let include = |e: ExplId| cube.subtree_selectable(e);
                let selectable = |e: ExplId| cube.is_selectable(e);
                let (want_best, want_ids) = trie_walk(&cube, m, &gammas, &include, &selectable);
                let got_best: Vec<u64> = best.iter().map(|x| x.to_bits()).collect();
                proptest::prop_assert_eq!(got_best, want_best);
                proptest::prop_assert_eq!(ids, want_ids);

                // A restriction: some selectable ids, closed under every
                // predicate subset found in the index.
                let mut allowed = vec![false; n];
                let mut structural = vec![false; n];
                for &e in cube.selectable_ids() {
                    if pick[e as usize % pick.len()] != 0 {
                        continue;
                    }
                    allowed[e as usize] = true;
                    let preds = cube.explanation(e).preds();
                    for mask in 1u32..(1 << preds.len()) {
                        let subset: Vec<(u16, u32)> = preds
                            .iter()
                            .enumerate()
                            .filter(|(i, _)| mask & (1 << i) != 0)
                            .map(|(_, &p)| p)
                            .collect();
                        let id = cube.lookup_preds(&subset).expect("ancestor in the cube");
                        structural[id as usize] = true;
                    }
                }
                let touched: Vec<ExplId> = (0..n as ExplId).rev().filter(|&e| structural[e as usize]).collect();
                let mut plan = DrillPlan::default();
                plan.rebuild(&cube, &touched);
                let mut root_best = Vec::new();
                let top = ca
                    .top_m_restricted(seg, &plan, &allowed, &gammas, |b| {
                        root_best = b.iter().map(|x| x.to_bits()).collect();
                        true
                    })
                    .unwrap();
                let mut ids: Vec<ExplId> = top.items().iter().map(|it| it.id).collect();
                ids.sort_unstable();
                let include = |e: ExplId| structural[e as usize];
                let selectable = |e: ExplId| allowed[e as usize];
                let (want_best, want_ids) = trie_walk(&cube, m, &gammas, &include, &selectable);
                proptest::prop_assert_eq!(root_best, want_best);
                proptest::prop_assert_eq!(ids, want_ids);
            }
        }
    }
}
