use std::collections::{HashMap, HashSet};
use std::time::{Duration, Instant};

use tsexplain_cube::ExplanationCube;
use tsexplain_diff::{DiffMetric, ScoreContext, TopExplEngine, TopExplStrategy};
use tsexplain_parallel::ParallelCtx;

use crate::cost::CostMatrix;
use crate::ndcg::ExplainedSegment;
use crate::scheme::Segmentation;
use crate::variance::{object_centroid_distance, object_pair_distance, VarianceMetric};

/// Below this many items (unit objects, cost-matrix cells, sweep
/// segments) a batch runs as one share on the caller's thread — spawn cost
/// would dwarf the work. A function of the batch size alone, so whether a
/// region fans out never depends on scheduling.
const PAR_MIN_ITEMS: usize = 32;

/// Time accumulators for the two segment-side pipeline stages the paper's
/// latency breakdown separates (Fig. 15): the Cascading Analysts module (b)
/// and the distance/variance module (c).
///
/// Every worker charges its own top-m derivations to `cascading` and its
/// distance scans to `segmentation`, and the context sums the workers. At
/// one thread both are wall-clock; at N threads they are the same work
/// summed over the workers, so the split between the two modules means the
/// same at any thread count (and their sum can exceed the elapsed time).
///
/// The `par_*` fields are the wall-clock of the regions that fanned out
/// across more than one worker, charged to the stage that owns the region:
/// the unit-object region to `par_cascading`, cost-matrix and sweep regions
/// to `par_segmentation`. They are zero when nothing fanned out, and they
/// are not part of the stage times.
#[derive(Clone, Copy, Debug, Default)]
pub struct StageTimers {
    /// Top-m derivations (module b), summed over workers.
    pub cascading: Duration,
    /// Distances and variances (module c), summed over workers.
    pub segmentation: Duration,
    /// Wall-clock of the unit-object regions that fanned out.
    pub par_cascading: Duration,
    /// Wall-clock of the cost-matrix and sweep regions that fanned out.
    pub par_segmentation: Duration,
}

/// The stage clock, and the crate's only wall-clock read. Its readings
/// feed [`StageTimers`] alone, which no answer or golden observes.
#[expect(
    clippy::disallowed_methods,
    reason = "stage timings are reported beside the answer and stripped before goldens compare"
)]
pub(crate) fn stage_clock() -> Instant {
    Instant::now()
}

/// One worker's share of every fan-out region: a private top-m engine,
/// kept from region to region, and the stage time that worker spent.
struct Slot<'a> {
    engine: TopExplEngine<'a>,
    cascading: Duration,
    segmentation: Duration,
}

impl<'a> Slot<'a> {
    fn new(engine: TopExplEngine<'a>) -> Self {
        Slot {
            engine,
            cascading: Duration::ZERO,
            segmentation: Duration::ZERO,
        }
    }

    /// Derives the top-m explanations of `seg`, charged to `cascading`.
    fn explain(&mut self, seg: (usize, usize)) -> ExplainedSegment {
        let start = stage_clock();
        let explained = ExplainedSegment::new(seg, self.engine.top_m(seg));
        self.cascading += start.elapsed();
        explained
    }

    /// The DP cost `|P| · var(P)` of a segment spanning at least two unit
    /// objects. For the centroid structure (Eq. 7) this is the *sum* of
    /// object↔centroid distances, the centroid's derivation charged to
    /// `cascading`; for the all-pair structure (Eq. 10) it is `|P|` times
    /// the average over all ordered object pairs. Distances are charged to
    /// `segmentation`.
    fn cost(
        &mut self,
        score: &ScoreContext<'_>,
        objects: &[ExplainedSegment],
        metric: VarianceMetric,
        seg: (usize, usize),
    ) -> f64 {
        let objects = &objects[seg.0..seg.1];
        if metric.is_all_pair() {
            let start = stage_clock();
            let mut sum = 0.0;
            for (i, x) in objects.iter().enumerate() {
                for y in &objects[i + 1..] {
                    sum += object_pair_distance(score, x, y, metric);
                }
            }
            self.segmentation += start.elapsed();
            // AVG over the l² ordered pairs (diagonal is 0, symmetric pairs
            // counted twice), scaled by |P| = l.
            let l = objects.len() as f64;
            return l * (2.0 * sum / (l * l));
        }
        let centroid = self.explain(seg);
        let start = stage_clock();
        let mut cost = 0.0;
        for x in objects {
            cost += object_centroid_distance(score, x, &centroid, metric);
        }
        self.segmentation += start.elapsed();
        cost
    }
}

/// The one fan-out region of the segment layer. Runs `work` over the items
/// `0..n`, cut into one contiguous share per slot (share *i* on slot *i*),
/// and returns the outputs in item order; a single slot runs inline on the
/// caller's thread. Share boundaries depend only on `(n, slots)`, so the
/// output is the same at any thread count.
///
/// Every item polls the cancellation token first. A cancelled region
/// returns fewer outputs than items, which callers discard; a full-length
/// output is always complete and in order. The wall-clock of a region that
/// fanned out is added to `par_clock`.
fn region<'a, T: Send>(
    parallel: &ParallelCtx,
    slots: &mut [Slot<'a>],
    par_clock: &mut Duration,
    n: usize,
    work: impl Fn(&mut Slot<'a>, usize) -> T + Sync,
) -> Vec<T> {
    let share = |slot: &mut Slot<'a>, items: std::ops::Range<usize>| {
        let mut out = Vec::with_capacity(items.len());
        for i in items {
            if parallel.is_cancelled() {
                break;
            }
            out.push(work(slot, i));
        }
        out
    };
    if let [slot] = slots {
        return share(slot, 0..n);
    }
    let start = stage_clock();
    let mut outputs: Vec<Vec<T>> = Vec::new();
    outputs.resize_with(slots.len(), Vec::new);
    let parts: Vec<_> = slots
        .iter_mut()
        .zip(parallel.chunk_ranges(n))
        .zip(outputs.iter_mut())
        .collect();
    parallel.run_parts(parts, |((slot, items), out)| *out = share(slot, items));
    *par_clock += start.elapsed();
    outputs.into_iter().flatten().collect()
}

/// Orchestrates segment explanation and cost computation: caches the unit
/// objects' top-explanation lists (§4.1.1 — the atomic units of
/// K-Segmentation), runs the configured top-m strategy per centroid
/// segment, and evaluates the `|P| · var(P)` DP costs under the chosen
/// [`VarianceMetric`].
///
/// Every batch of work — the unit objects, a cost matrix's missing cells,
/// a sweep's unique segments, one segment's miss — runs through one
/// fan-out region over the context's worker slots (see [`StageTimers`]).
pub struct SegmentationContext<'a> {
    diff_metric: DiffMetric,
    metric: VarianceMetric,
    strategy: TopExplStrategy,
    parallel: ParallelCtx,
    /// One per share of the widest region so far. Slot 0, built with the
    /// context, is the caller's thread; the rest are built the first time a
    /// region needs them.
    slots: Vec<Slot<'a>>,
    object_tops: Option<Vec<ExplainedSegment>>,
    par_cascading: Duration,
    par_segmentation: Duration,
    /// Segment-cost memo keyed by point-index pair `(a, b)` — one request
    /// repeatedly prices the same segments (the auto-K proposal sweep, the
    /// sketch band vs. the main DP, the final per-segment description),
    /// and costs are pure functions of the segment, so every repeat is a
    /// lookup instead of a fresh centroid derivation + distance scan.
    memo: HashMap<(usize, usize), f64>,
    memo_hits: u64,
    memo_misses: u64,
    /// Centroid derivations *avoided* by memo hits. Added back into
    /// [`SegmentationContext::ca_calls`] so that counter stays the
    /// memo-independent workload metric the serving layer reports (and the
    /// golden files pin); the derivations actually performed are
    /// [`SegmentationContext::ca_derivations`].
    hit_calls: u64,
}

impl<'a> SegmentationContext<'a> {
    /// Builds a context over `cube` with the process-default parallel
    /// context (override with [`SegmentationContext::with_parallel`]).
    pub fn new(
        cube: &'a ExplanationCube,
        diff_metric: DiffMetric,
        m: usize,
        strategy: TopExplStrategy,
        metric: VarianceMetric,
    ) -> Self {
        SegmentationContext {
            diff_metric,
            metric,
            strategy,
            parallel: ParallelCtx::from_env(),
            slots: vec![Slot::new(TopExplEngine::new(
                cube,
                diff_metric,
                m,
                strategy,
            ))],
            object_tops: None,
            par_cascading: Duration::ZERO,
            par_segmentation: Duration::ZERO,
            memo: HashMap::new(),
            memo_hits: 0,
            memo_misses: 0,
            hit_calls: 0,
        }
    }

    /// Sets the parallel execution context (builder style). Results are
    /// byte-identical at any thread count — the determinism contract of
    /// `tsexplain-parallel` — so this only changes how fast the costs are
    /// computed, never what they are.
    pub fn with_parallel(mut self, parallel: ParallelCtx) -> Self {
        self.parallel = parallel;
        self
    }

    /// The parallel execution context in use.
    pub fn parallel(&self) -> ParallelCtx {
        self.parallel.clone()
    }

    /// Polls the request's cancellation token (false when none is
    /// attached). Hot loops early-exit on it; the driver then discards
    /// every partial result and errors, so a poll never changes what a
    /// *successful* request returns.
    pub fn is_cancelled(&self) -> bool {
        self.parallel.is_cancelled()
    }

    /// Segment-cost lookups served from the memo.
    pub fn memo_hits(&self) -> u64 {
        self.memo_hits
    }

    /// Segment costs computed and inserted into the memo.
    pub fn memo_misses(&self) -> u64 {
        self.memo_misses
    }

    /// Records `n` memo hits, restoring the derivations the hits avoided
    /// into the logical `ca_calls` metric (centroid metrics derive one
    /// top-m list per computed segment cost; all-pair metrics derive none).
    fn record_hits(&mut self, n: u64) {
        self.memo_hits += n;
        if !self.metric.is_all_pair() {
            self.hit_calls += n;
        }
    }

    /// The underlying cube.
    pub fn cube(&self) -> &'a ExplanationCube {
        self.slots[0].engine.cube()
    }

    /// Number of points `n` in the series.
    pub fn n_points(&self) -> usize {
        self.cube().n_points()
    }

    /// The within-segment variance metric in use.
    pub fn variance_metric(&self) -> VarianceMetric {
        self.metric
    }

    /// The difference metric γ in use.
    pub fn diff_metric(&self) -> DiffMetric {
        self.diff_metric
    }

    /// Accumulated stage timings: the slots' stage clocks summed, plus the
    /// wall-clock of the regions that fanned out.
    pub fn timers(&self) -> StageTimers {
        let mut timers = StageTimers {
            par_cascading: self.par_cascading,
            par_segmentation: self.par_segmentation,
            ..StageTimers::default()
        };
        for slot in &self.slots {
            timers.cascading += slot.cascading;
            timers.segmentation += slot.segmentation;
        }
        timers
    }

    /// Number of top-m derivations the workload *requested* so far: the
    /// derivations performed plus those served from the segment-cost memo.
    /// By construction this is independent of both the thread count and the
    /// memo — it is the deterministic workload-shape metric reported as
    /// `PipelineStats::ca_calls`. The derivations actually performed are
    /// [`SegmentationContext::ca_derivations`].
    pub fn ca_calls(&self) -> u64 {
        self.ca_derivations() + self.hit_calls
    }

    /// Number of top-m derivations actually performed, summed over the
    /// worker slots (excludes memo hits); `ca_calls − ca_derivations` is
    /// the work the memo saved.
    pub fn ca_derivations(&self) -> u64 {
        self.slots.iter().map(|slot| slot.engine.calls()).sum()
    }

    /// Derives (and times) the top-m explanations of an arbitrary segment.
    pub fn explained(&mut self, seg: (usize, usize)) -> ExplainedSegment {
        self.slots[0].explain(seg)
    }

    /// The number of shares a batch of `n` items runs in: one below
    /// [`PAR_MIN_ITEMS`], else one per thread (at most `n`). Builds the
    /// slots the shares need.
    fn shares(&mut self, n: usize) -> usize {
        let shares = if n < PAR_MIN_ITEMS {
            1
        } else {
            self.parallel.threads().min(n)
        };
        let (cube, m) = (self.cube(), self.slots[0].engine.m());
        while self.slots.len() < shares {
            let engine = TopExplEngine::new(cube, self.diff_metric, m, self.strategy);
            self.slots.push(Slot::new(engine));
        }
        shares
    }

    /// Ensures the unit-object top lists are cached, derived in one region.
    fn ensure_objects(&mut self) {
        if self.object_tops.is_some() {
            return;
        }
        let count = self.n_points().saturating_sub(1);
        let shares = self.shares(count);
        let tops = region(
            &self.parallel,
            &mut self.slots[..shares],
            &mut self.par_cascading,
            count,
            |slot, x| slot.explain((x, x + 1)),
        );
        // A cancelled region is not cached; nothing prices after it.
        if tops.len() == count {
            self.object_tops = Some(tops);
        }
    }

    /// Prices the `n` segments `seg(0..n)`, each spanning at least two unit
    /// objects, in one region. Fewer than `n` costs means the region was
    /// cancelled.
    fn price(&mut self, n: usize, seg: impl Fn(usize) -> (usize, usize) + Sync) -> Vec<f64> {
        if n == 0 {
            return Vec::new();
        }
        self.ensure_objects();
        let shares = self.shares(n);
        let score = ScoreContext::new(self.cube(), self.diff_metric);
        let objects = self.object_tops.as_deref().unwrap_or_default();
        let metric = self.metric;
        region(
            &self.parallel,
            &mut self.slots[..shares],
            &mut self.par_segmentation,
            n,
            |slot, i| slot.cost(&score, objects, metric, seg(i)),
        )
    }

    /// Computes the DP cost matrix over the candidate cut `positions`
    /// (sorted point indices, first = 0, last = n − 1).
    ///
    /// With `max_len_points = Some(L)`, only segments spanning at most `L`
    /// points are evaluated (the sketch-selection constraint, §5.3.2) and —
    /// when positions are all points — banded storage is used so memory is
    /// `O(n·L)` instead of `O(n²)`.
    ///
    /// Cells the memo holds fill in place; the rest are priced in one
    /// region, then written to the matrix and the memo.
    pub fn compute_costs(
        &mut self,
        positions: &[usize],
        max_len_points: Option<usize>,
    ) -> CostMatrix {
        debug_assert!(positions.windows(2).all(|w| w[0] < w[1]));
        debug_assert_eq!(positions.first(), Some(&0));
        debug_assert_eq!(positions.last(), Some(&(self.n_points() - 1)));
        self.ensure_objects();

        let n_pos = positions.len();
        let dense_positions = n_pos == self.n_points();
        let mut matrix = match (max_len_points, dense_positions) {
            (Some(band), true) => CostMatrix::banded(n_pos, band),
            _ => CostMatrix::dense(n_pos),
        };

        let mut missing: Vec<(usize, usize)> = Vec::new();
        let mut hits = 0;
        for pi in 0..n_pos {
            for pj in pi + 1..n_pos {
                let (a, b) = (positions[pi], positions[pj]);
                if max_len_points.is_some_and(|max_len| b - a > max_len) {
                    break; // spans only grow with pj
                }
                if b - a == 1 {
                    matrix.set(pi, pj, 0.0); // a single object is its own centroid
                } else if let Some(&cost) = self.memo.get(&(a, b)) {
                    matrix.set(pi, pj, cost);
                    hits += 1;
                } else {
                    missing.push((pi, pj));
                }
            }
        }
        self.record_hits(hits);
        let costs = self.price(missing.len(), |i| {
            let (pi, pj) = missing[i];
            (positions[pi], positions[pj])
        });
        // A cancelled region leaves the matrix partial; the caller discards it.
        if costs.len() < missing.len() {
            return matrix;
        }
        for (&(pi, pj), cost) in missing.iter().zip(costs) {
            matrix.set(pi, pj, cost);
            self.memo.insert((positions[pi], positions[pj]), cost);
        }
        self.memo_misses += missing.len() as u64;
        matrix
    }

    /// The DP cost `|P| · var(P)` of one segment `(a, b)` (point indices)
    /// under the context's variance metric.
    ///
    /// For the centroid structure (Eq. 7) this is the *sum* of
    /// object↔centroid distances; for the all-pair structure (Eq. 10) it is
    /// `|P|` times the average over all ordered object pairs.
    pub fn segment_cost(&mut self, seg: (usize, usize)) -> f64 {
        debug_assert!(seg.0 < seg.1);
        if seg.1 - seg.0 == 1 {
            return 0.0; // a single object is its own centroid
        }
        if let Some(&cost) = self.memo.get(&seg) {
            self.record_hits(1);
            return cost;
        }
        match self.price(1, |_| seg)[..] {
            [cost] => {
                self.memo.insert(seg, cost);
                self.memo_misses += 1;
                cost
            }
            // Cancelled: nothing is cached or counted, and the request errors.
            _ => 0.0,
        }
    }

    /// The paper's objective (Problem 1): `Σ_i |P_i| · var(P_i)` of a
    /// scheme. This is what Table 7 reports as the segmentation quality.
    pub fn objective(&mut self, scheme: &Segmentation) -> f64 {
        scheme
            .segments()
            .into_iter()
            .map(|seg| self.segment_cost(seg))
            .sum()
    }

    /// Scores many schemes at once — the auto-K candidate sweep of the
    /// shape-strategy driver. The returned vector is in input order and
    /// byte-identical to scoring each scheme with
    /// [`SegmentationContext::objective`].
    ///
    /// Each *unique* segment the memo lacks is priced exactly once, in one
    /// region — nested auto-K proposals share most of their segments. The
    /// per-scheme sums then read the memo in input order, so the summation
    /// order (and hence every f64 bit) matches per-scheme scoring. A
    /// cancelled sweep returns an empty vector.
    pub fn objective_batch(&mut self, schemes: &[Segmentation]) -> Vec<f64> {
        // The unique segments the memo cannot answer yet, in first-seen
        // order (deterministic share boundaries).
        let mut pending: Vec<(usize, usize)> = Vec::new();
        let mut pending_set: HashSet<(usize, usize)> = HashSet::new();
        for scheme in schemes {
            for seg in scheme.segments() {
                if seg.1 - seg.0 > 1 && !self.memo.contains_key(&seg) && pending_set.insert(seg) {
                    pending.push(seg);
                }
            }
        }
        let costs = self.price(pending.len(), |i| pending[i]);
        if costs.len() < pending.len() {
            return Vec::new(); // cancelled: the segmenter surfaces a typed error
        }
        for (&seg, cost) in pending.iter().zip(costs) {
            self.memo.insert(seg, cost);
        }
        self.memo_misses += pending.len() as u64;
        // Each scheme's sum folds its segment costs in segment order. The
        // first occurrence of a segment priced above was already charged as
        // a miss; every other occurrence is a memo hit.
        let mut charged = pending_set;
        let mut out = Vec::with_capacity(schemes.len());
        for scheme in schemes {
            let mut sum = 0.0;
            for seg in scheme.segments() {
                let cost = if seg.1 - seg.0 == 1 {
                    0.0
                } else {
                    let cost = self.memo[&seg];
                    if !charged.remove(&seg) {
                        self.record_hits(1);
                    }
                    cost
                };
                sum += cost;
            }
            out.push(sum);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsexplain_cube::CubeConfig;
    use tsexplain_relation::{AggQuery, Datum, Field, Relation, Schema};

    /// Two clean phases: NY drives objects 0..3, CA drives objects 3..6.
    fn cube() -> ExplanationCube {
        let schema = Schema::new(vec![
            Field::dimension("d"),
            Field::dimension("state"),
            Field::measure("v"),
        ])
        .unwrap();
        let ny = [0.0, 10.0, 20.0, 30.0, 30.0, 30.0, 30.0];
        let ca = [5.0, 5.0, 5.0, 5.0, 25.0, 45.0, 65.0];
        let mut b = Relation::builder(schema);
        for (t, (&vny, &vca)) in ny.iter().zip(ca.iter()).enumerate() {
            b.push_row(vec![
                Datum::from(format!("d{t}")),
                Datum::from("NY"),
                Datum::from(vny),
            ])
            .unwrap();
            b.push_row(vec![
                Datum::from(format!("d{t}")),
                Datum::from("CA"),
                Datum::from(vca),
            ])
            .unwrap();
        }
        ExplanationCube::build(
            &b.finish(),
            &AggQuery::sum("d", "v"),
            &CubeConfig::new(["state"]),
        )
        .unwrap()
    }

    fn context(cube: &ExplanationCube, metric: VarianceMetric) -> SegmentationContext<'_> {
        SegmentationContext::new(
            cube,
            DiffMetric::AbsoluteChange,
            3,
            TopExplStrategy::Exact,
            metric,
        )
    }

    #[test]
    fn unit_segments_cost_zero() {
        let cube = cube();
        let mut ctx = context(&cube, VarianceMetric::Tse);
        for x in 0..cube.n_points() - 1 {
            assert_eq!(ctx.segment_cost((x, x + 1)), 0.0);
        }
    }

    #[test]
    fn coherent_segment_cheaper_than_mixed() {
        let cube = cube();
        let mut ctx = context(&cube, VarianceMetric::Tse);
        let coherent = ctx.segment_cost((0, 3));
        let mixed = ctx.segment_cost((1, 5));
        assert!(
            coherent < mixed,
            "coherent {coherent} should be < mixed {mixed}"
        );
    }

    #[test]
    fn objective_prefers_true_split() {
        let cube = cube();
        let mut ctx = context(&cube, VarianceMetric::Tse);
        let good = Segmentation::new(7, vec![3]).unwrap();
        let bad = Segmentation::new(7, vec![1]).unwrap();
        assert!(ctx.objective(&good) < ctx.objective(&bad));
    }

    #[test]
    fn cost_matrix_matches_individual_costs() {
        let cube = cube();
        let mut ctx = context(&cube, VarianceMetric::Tse);
        let positions: Vec<usize> = (0..7).collect();
        let m = ctx.compute_costs(&positions, None);
        for a in 0..7 {
            for b in a + 1..7 {
                assert!((m.get(a, b) - ctx.segment_cost((a, b))).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn banded_costs_skip_long_segments() {
        let cube = cube();
        let mut ctx = context(&cube, VarianceMetric::Tse);
        let positions: Vec<usize> = (0..7).collect();
        let m = ctx.compute_costs(&positions, Some(2));
        assert_eq!(m.band(), Some(2));
        assert!(m.get(0, 2).is_finite());
        assert!(m.get(0, 3).is_infinite());
    }

    #[test]
    fn sparse_positions_dense_matrix() {
        let cube = cube();
        let mut ctx = context(&cube, VarianceMetric::Tse);
        let positions = vec![0, 3, 6];
        let m = ctx.compute_costs(&positions, None);
        assert_eq!(m.n_pos(), 3);
        assert!(m.get(0, 1).is_finite());
        assert!((m.get(0, 2) - ctx.segment_cost((0, 6))).abs() < 1e-12);
    }

    #[test]
    fn allpair_cost_is_finite_and_nonnegative() {
        let cube = cube();
        for metric in [VarianceMetric::AllPair, VarianceMetric::SAllPair] {
            let mut ctx = context(&cube, metric);
            for seg in [(0usize, 2usize), (0, 6), (2, 5)] {
                let c = ctx.segment_cost(seg);
                assert!(c.is_finite() && c >= 0.0, "{metric}: {c}");
            }
        }
    }

    #[test]
    fn timers_accumulate() {
        let cube = cube();
        let mut ctx = context(&cube, VarianceMetric::Tse);
        let _ = ctx.segment_cost((0, 6));
        assert!(ctx.ca_calls() > 0);
    }

    /// A wider fixture (40 points, above every parallel threshold) so the
    /// parallel paths genuinely fan out.
    fn wide_cube() -> ExplanationCube {
        let schema = Schema::new(vec![
            Field::dimension("d"),
            Field::dimension("state"),
            Field::measure("v"),
        ])
        .unwrap();
        let mut b = Relation::builder(schema);
        for t in 0..40i64 {
            let ny = if t < 20 { 3.0 * t as f64 } else { 60.0 };
            let ca = if t < 20 {
                4.0
            } else {
                4.0 + 5.0 * (t - 20) as f64
            };
            for (s, v) in [("NY", ny), ("CA", ca)] {
                b.push_row(vec![Datum::Attr(t.into()), Datum::from(s), Datum::from(v)])
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

    #[test]
    fn parallel_costs_and_calls_match_sequential_exactly() {
        let cube = wide_cube();
        let positions: Vec<usize> = (0..cube.n_points()).collect();
        // The full matrix and the banded sketch matrix (§5.3.2).
        for band in [None, Some(5)] {
            for metric in [VarianceMetric::Tse, VarianceMetric::AllPair] {
                let mut seq = context(&cube, metric).with_parallel(ParallelCtx::sequential());
                let reference = seq.compute_costs(&positions, band);
                // 3 threads cut uneven shares.
                for threads in [2, 3, 8] {
                    let mut par = context(&cube, metric).with_parallel(ParallelCtx::new(threads));
                    let got = par.compute_costs(&positions, band);
                    for a in 0..positions.len() {
                        for b in a + 1..positions.len() {
                            let (r, g) = (reference.get(a, b), got.get(a, b));
                            assert!(
                                r.to_bits() == g.to_bits(),
                                "{metric} {band:?} t={threads} cell ({a},{b}): {r} vs {g}"
                            );
                        }
                    }
                    assert_eq!(par.ca_calls(), seq.ca_calls(), "{metric} t={threads}");
                    assert_eq!(par.ca_derivations(), seq.ca_derivations());
                }
            }
        }
    }

    #[test]
    fn parallel_objective_batch_matches_sequential() {
        let cube = wide_cube();
        let n = cube.n_points();
        let schemes: Vec<Segmentation> = (1..=8)
            .map(|k| Segmentation::new(n, (1..k).map(|i| i * n / k).collect::<Vec<_>>()).unwrap())
            .collect();
        for metric in [VarianceMetric::Tse, VarianceMetric::AllPair] {
            let mut seq = context(&cube, metric).with_parallel(ParallelCtx::sequential());
            let reference = seq.objective_batch(&schemes);
            for threads in [2, 3, 8] {
                let mut par = context(&cube, metric).with_parallel(ParallelCtx::new(threads));
                assert_eq!(
                    par.objective_batch(&schemes),
                    reference,
                    "{metric} t={threads}"
                );
                assert_eq!(par.ca_calls(), seq.ca_calls(), "{metric} t={threads}");
            }
        }
    }

    /// Nested auto-K-style proposals: k−1 evenly spread cuts for every k,
    /// so many segments recur across the sweep — the memo's target shape.
    fn nested_schemes(n: usize, max_k: usize) -> Vec<Segmentation> {
        (1..=max_k)
            .map(|k| {
                let cuts: Vec<usize> = (1..k)
                    .map(|i| (i * n / k).clamp(1, n - 2))
                    .collect::<std::collections::BTreeSet<_>>()
                    .into_iter()
                    .collect();
                Segmentation::new(n, cuts).unwrap()
            })
            .collect()
    }

    #[test]
    fn memo_is_invisible_in_costs_but_cuts_derivations() {
        let cube = wide_cube();
        let n = cube.n_points();
        let schemes = nested_schemes(n, 8);
        let mut with_memo = context(&cube, VarianceMetric::Tse);
        let memo_costs = with_memo.objective_batch(&schemes);
        // The reference prices every segment occurrence on a fresh
        // context, so nothing is ever served from a memo.
        let mut occurrences = 0;
        for (scheme, &cost) in schemes.iter().zip(&memo_costs) {
            let mut sum = 0.0;
            for seg in scheme.segments() {
                occurrences += u64::from(seg.1 - seg.0 > 1);
                sum += context(&cube, VarianceMetric::Tse).segment_cost(seg);
            }
            // Bit-identical objectives...
            assert_eq!(cost.to_bits(), sum.to_bits());
        }
        // ...the logical workload of pricing every occurrence: one
        // derivation per unit object and one per multi-object occurrence...
        assert_eq!(with_memo.ca_calls(), (n as u64 - 1) + occurrences);
        // ...while strictly fewer derivations were actually performed.
        assert!(
            with_memo.ca_derivations() < with_memo.ca_calls(),
            "memo {} vs logical {}",
            with_memo.ca_derivations(),
            with_memo.ca_calls()
        );
        assert!(with_memo.memo_hits() > 0);
        // Re-pricing a segment from the sweep is a pure hit.
        let before = with_memo.ca_derivations();
        let direct = with_memo.segment_cost(schemes[1].segments()[0]);
        assert_eq!(
            direct.to_bits(),
            with_memo.memo[&schemes[1].segments()[0]].to_bits()
        );
        assert_eq!(with_memo.ca_derivations(), before);
    }

    #[test]
    fn memo_counters_are_thread_count_independent() {
        let cube = wide_cube();
        let positions: Vec<usize> = (0..cube.n_points()).collect();
        let schemes = nested_schemes(cube.n_points(), 8);
        // The sketch band, then the full matrix, then a sweep: each later
        // batch is served partly from what the earlier ones priced.
        let run = |ctx: &mut SegmentationContext<'_>| {
            let band = ctx.compute_costs(&positions, Some(5));
            let full = ctx.compute_costs(&positions, None);
            let sweep = ctx.objective_batch(&schemes);
            (band, full, sweep)
        };
        let mut seq = context(&cube, VarianceMetric::Tse).with_parallel(ParallelCtx::sequential());
        let (band, full, reference) = run(&mut seq);
        for threads in [2, 3, 8] {
            let mut par =
                context(&cube, VarianceMetric::Tse).with_parallel(ParallelCtx::new(threads));
            let (par_band, par_full, got) = run(&mut par);
            for a in 0..positions.len() {
                for b in a + 1..positions.len() {
                    assert_eq!(band.get(a, b).to_bits(), par_band.get(a, b).to_bits());
                    assert_eq!(full.get(a, b).to_bits(), par_full.get(a, b).to_bits());
                }
            }
            for (a, b) in got.iter().zip(&reference) {
                assert_eq!(a.to_bits(), b.to_bits(), "t={threads}");
            }
            assert_eq!(par.ca_calls(), seq.ca_calls(), "t={threads}");
            assert_eq!(par.ca_derivations(), seq.ca_derivations(), "t={threads}");
            assert_eq!(par.memo_hits(), seq.memo_hits(), "t={threads}");
            assert_eq!(par.memo_misses(), seq.memo_misses(), "t={threads}");
        }
    }

    #[test]
    fn cost_matrix_populates_the_memo_for_later_pricing() {
        let cube = cube();
        let mut ctx = context(&cube, VarianceMetric::Tse);
        let positions: Vec<usize> = (0..7).collect();
        let _ = ctx.compute_costs(&positions, None);
        let misses = ctx.memo_misses();
        assert!(misses > 0);
        let derivations = ctx.ca_derivations();
        // Every multi-object span is now priced; re-asking costs nothing.
        let _ = ctx.segment_cost((0, 6));
        let _ = ctx.segment_cost((2, 5));
        assert_eq!(ctx.ca_derivations(), derivations);
        assert_eq!(ctx.memo_misses(), misses);
        assert_eq!(ctx.memo_hits(), 2);
    }

    #[test]
    fn parallel_timers_record_fanout_regions() {
        let cube = wide_cube();
        let positions: Vec<usize> = (0..cube.n_points()).collect();
        for threads in [1, 4] {
            let mut ctx =
                context(&cube, VarianceMetric::Tse).with_parallel(ParallelCtx::new(threads));
            let _ = ctx.compute_costs(&positions, None);
            let timers = ctx.timers();
            // Every worker charges its derivations and its distances.
            assert!(timers.cascading.as_nanos() > 0, "t={threads}");
            assert!(timers.segmentation.as_nanos() > 0, "t={threads}");
            // 39 objects and 741 cells: both regions fan out above 1 thread.
            let fanned = threads > 1;
            assert_eq!(timers.par_cascading.as_nanos() > 0, fanned, "t={threads}");
            assert_eq!(
                timers.par_segmentation.as_nanos() > 0,
                fanned,
                "t={threads}"
            );
        }
    }
}
