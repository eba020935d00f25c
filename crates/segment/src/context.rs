use std::collections::{HashMap, HashSet};
use std::time::{Duration, Instant};

use tsexplain_cube::ExplanationCube;
use tsexplain_diff::{DiffMetric, ScoreContext, TopExplEngine, TopExplStrategy};
use tsexplain_parallel::ParallelCtx;

use crate::cost::CostMatrix;
use crate::ndcg::ExplainedSegment;
use crate::scheme::Segmentation;
use crate::variance::{object_centroid_distance, object_pair_distance, VarianceMetric};

/// Below this many unit objects the object-top derivation runs inline —
/// spawn cost would dwarf the work. Deterministic in the input size, so
/// the parallel/sequential boundary never depends on scheduling.
const PAR_MIN_OBJECTS: usize = 32;

/// Below this many candidate positions the cost matrix runs inline.
const PAR_MIN_POSITIONS: usize = 16;

/// One parallel cost-matrix row: `(pj, cost, served_from_memo)` cells plus
/// the worker engine's derivation count for that row.
type CostRow = (Vec<(usize, f64, bool)>, u64);

/// Below this many points a scheme-scoring batch runs inline.
const PAR_MIN_SCORING_POINTS: usize = 32;

/// Wall-clock accumulators for the two segment-side pipeline stages the
/// paper's latency breakdown separates (Fig. 15): the Cascading Analysts
/// module (b) and the distance/variance/DP module (c).
///
/// The `par_*` fields record the portion of each stage spent inside
/// [`ParallelCtx`] fan-out regions (also included in the stage totals), so
/// callers can report how much of a stage actually ran across the worker
/// set. A parallel region's whole wall-clock is attributed to the stage
/// that owns the region — a parallel cost-matrix region counts under
/// `segmentation` even for the centroid top-m derivations inside it
/// (worker wall-clocks overlap, so a per-module split is not meaningful
/// there); sequential runs keep the exact per-module attribution.
#[derive(Clone, Copy, Debug, Default)]
pub struct StageTimers {
    /// Time spent deriving top-m explanations (module b).
    pub cascading: Duration,
    /// Time spent on distances, variances and the DP (module c).
    pub segmentation: Duration,
    /// Of `cascading`: wall-clock inside parallel fan-out regions.
    pub par_cascading: Duration,
    /// Of `segmentation`: wall-clock inside parallel fan-out regions.
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

/// Orchestrates segment explanation and cost computation: caches the unit
/// objects' top-explanation lists (§4.1.1 — the atomic units of
/// K-Segmentation), runs the configured top-m strategy per centroid
/// segment, and evaluates the `|P| · var(P)` DP costs under the chosen
/// [`VarianceMetric`].
pub struct SegmentationContext<'a> {
    engine: TopExplEngine<'a>,
    diff_metric: DiffMetric,
    metric: VarianceMetric,
    strategy: TopExplStrategy,
    parallel: ParallelCtx,
    object_tops: Option<Vec<ExplainedSegment>>,
    timers: StageTimers,
    /// Top-m derivations performed by per-worker engines inside parallel
    /// regions; [`SegmentationContext::ca_calls`] adds them to the main
    /// engine's counter so the total is thread-count-independent.
    extra_calls: u64,
    /// Segment-cost memo keyed by point-index pair `(a, b)` — one request
    /// repeatedly prices the same segments (the auto-K proposal sweep, the
    /// sketch band vs. the main DP, the final per-segment description),
    /// and costs are pure functions of the segment, so every repeat is a
    /// lookup instead of a fresh centroid derivation + distance scan.
    memo: HashMap<(usize, usize), f64>,
    /// Disabled via [`SegmentationContext::without_memo`] (testing /
    /// apples-to-apples measurement); costs are identical either way.
    memo_enabled: bool,
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
            engine: TopExplEngine::new(cube, diff_metric, m, strategy),
            diff_metric,
            metric,
            strategy,
            parallel: ParallelCtx::from_env(),
            object_tops: None,
            timers: StageTimers::default(),
            extra_calls: 0,
            memo: HashMap::new(),
            memo_enabled: true,
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

    /// Disables the segment-cost memo (builder style). Costs and reported
    /// `ca_calls` are identical either way — the memo only changes how
    /// many derivations are actually performed — so this exists for tests
    /// and for measuring the memo's effect.
    pub fn without_memo(mut self) -> Self {
        self.memo_enabled = false;
        self
    }

    /// Whether the segment-cost memo is active (callers layering their
    /// own caching — e.g. the eval study's `CachedObjective` — use this
    /// to decide whether they must cache locally instead).
    pub fn memo_enabled(&self) -> bool {
        self.memo_enabled
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
        self.engine.cube()
    }

    /// Number of points `n` in the series.
    pub fn n_points(&self) -> usize {
        self.engine.cube().n_points()
    }

    /// The within-segment variance metric in use.
    pub fn variance_metric(&self) -> VarianceMetric {
        self.metric
    }

    /// The difference metric γ in use.
    pub fn diff_metric(&self) -> DiffMetric {
        self.diff_metric
    }

    /// Accumulated stage timings.
    pub fn timers(&self) -> StageTimers {
        self.timers
    }

    /// Number of top-m derivations the workload *requested* so far: the
    /// main engine's count, plus the per-worker engines of parallel
    /// regions, plus derivations served from the segment-cost memo. By
    /// construction this is independent of both the thread count and the
    /// memo — it is the deterministic workload-shape metric reported as
    /// `PipelineStats::ca_calls`. The derivations actually performed are
    /// [`SegmentationContext::ca_derivations`].
    pub fn ca_calls(&self) -> u64 {
        self.engine.calls() + self.extra_calls + self.hit_calls
    }

    /// Number of top-m derivations actually performed (excludes memo
    /// hits); `ca_calls − ca_derivations` is the work the memo saved.
    pub fn ca_derivations(&self) -> u64 {
        self.engine.calls() + self.extra_calls
    }

    /// Derives (and times) the top-m explanations of an arbitrary segment.
    pub fn explained(&mut self, seg: (usize, usize)) -> ExplainedSegment {
        let start = stage_clock();
        let top = self.engine.top_m(seg);
        self.timers.cascading += start.elapsed();
        ExplainedSegment::new(seg, top)
    }

    /// Ensures the unit-object top lists are cached. The per-object
    /// derivations are mutually independent, so large inputs fan out over
    /// the parallel context (chunk-ordered, byte-identical to sequential).
    fn ensure_objects(&mut self) {
        if self.object_tops.is_some() {
            return;
        }
        let count = self.n_points().saturating_sub(1);
        let start = stage_clock();
        let tops: Vec<ExplainedSegment> =
            if self.parallel.is_sequential() || count < PAR_MIN_OBJECTS {
                (0..count)
                    .map(|x| ExplainedSegment::new((x, x + 1), self.engine.top_m((x, x + 1))))
                    .collect()
            } else {
                let cube = self.engine.cube();
                let (diff, m, strategy) = (self.diff_metric, self.engine.m(), self.strategy);
                let parts = self.parallel.run_chunks(count, |range| {
                    let mut engine = TopExplEngine::new(cube, diff, m, strategy);
                    let tops: Vec<ExplainedSegment> = range
                        .map(|x| ExplainedSegment::new((x, x + 1), engine.top_m((x, x + 1))))
                        .collect();
                    vec![(tops, engine.calls())]
                });
                let mut tops = Vec::with_capacity(count);
                for (part, calls) in parts {
                    tops.extend(part);
                    self.extra_calls += calls;
                }
                self.timers.par_cascading += start.elapsed();
                tops
            };
        self.timers.cascading += start.elapsed();
        self.object_tops = Some(tops);
    }

    /// Computes the DP cost matrix over the candidate cut `positions`
    /// (sorted point indices, first = 0, last = n − 1).
    ///
    /// With `max_len_points = Some(L)`, only segments spanning at most `L`
    /// points are evaluated (the sketch-selection constraint, §5.3.2) and —
    /// when positions are all points — banded storage is used so memory is
    /// `O(n·L)` instead of `O(n²)`.
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

        if self.parallel.is_sequential() || n_pos < PAR_MIN_POSITIONS {
            for pi in 0..n_pos {
                // Per-row cancellation poll: a cancelled request stops
                // pricing and returns the (partial, discarded) matrix.
                if self.parallel.is_cancelled() {
                    return matrix;
                }
                for pj in pi + 1..n_pos {
                    let (a, b) = (positions[pi], positions[pj]);
                    if let Some(max_len) = max_len_points {
                        if b - a > max_len {
                            break; // spans only grow with pj
                        }
                    }
                    let cost = self.segment_cost((a, b));
                    matrix.set(pi, pj, cost);
                }
            }
            return matrix;
        }

        // Parallel path: one matrix row per `pi`, rows fanned across the
        // worker chunks. Each worker owns a private top-m engine (top-m
        // derivations are call-independent), every cell's cost is computed
        // by the same [`raw_segment_cost`] the sequential path uses, and
        // the rows are written back in row order — byte-identical output.
        // Workers read (never write) the memo as it stood when the region
        // opened; cells within one call are distinct, so this sees exactly
        // the hits the sequential loop would.
        let start = stage_clock();
        let cube = self.engine.cube();
        let objects = self.object_tops.as_ref().expect("cached");
        let memo = self.memo_enabled.then_some(&self.memo);
        let (diff, metric, m, strategy) = (
            self.diff_metric,
            self.metric,
            self.engine.m(),
            self.strategy,
        );
        let cancel = self.parallel.cancel_token().cloned();
        let rows: Vec<CostRow> = self.parallel.run_chunks(n_pos, |range| {
            let mut engine = TopExplEngine::new(cube, diff, m, strategy);
            range
                .map(|pi| {
                    let before = engine.calls();
                    let mut cells = Vec::new();
                    // Per-row poll inside the chunk: workers stop pricing
                    // promptly; the whole region's output is discarded by
                    // the erroring request.
                    if cancel.as_ref().is_some_and(|t| t.is_cancelled()) {
                        return (cells, 0);
                    }
                    for pj in pi + 1..n_pos {
                        let (a, b) = (positions[pi], positions[pj]);
                        if let Some(max_len) = max_len_points {
                            if b - a > max_len {
                                break; // spans only grow with pj
                            }
                        }
                        if let Some(&cost) = memo.and_then(|memo| memo.get(&(a, b))) {
                            cells.push((pj, cost, true));
                            continue;
                        }
                        let (cost, _) =
                            raw_segment_cost(cube, diff, metric, objects, &mut engine, (a, b));
                        cells.push((pj, cost, false));
                    }
                    (cells, engine.calls() - before)
                })
                .collect()
        });
        for (pi, (cells, calls)) in rows.into_iter().enumerate() {
            self.extra_calls += calls;
            for (pj, cost, from_memo) in cells {
                let seg = (positions[pi], positions[pj]);
                if seg.1 - seg.0 > 1 {
                    if from_memo {
                        self.record_hits(1);
                    } else if self.memo_enabled {
                        self.memo.insert(seg, cost);
                        self.memo_misses += 1;
                    }
                }
                matrix.set(pi, pj, cost);
            }
        }
        let elapsed = start.elapsed();
        self.timers.segmentation += elapsed;
        self.timers.par_segmentation += elapsed;
        matrix
    }

    /// The DP cost `|P| · var(P)` of one segment `(a, b)` (point indices)
    /// under the context's variance metric.
    ///
    /// For the centroid structure (Eq. 7) this is the *sum* of
    /// object↔centroid distances; for the all-pair structure (Eq. 10) it is
    /// `|P|` times the average over all ordered object pairs.
    pub fn segment_cost(&mut self, seg: (usize, usize)) -> f64 {
        let (a, b) = seg;
        debug_assert!(a < b);
        if b - a == 1 {
            return 0.0; // a single object is its own centroid
        }
        // Cancellation poll: bail before deriving or touching the memo,
        // so no placeholder cost and no counter bump can ever leak out of
        // a cancelled (and therefore erroring) request.
        if self.parallel.is_cancelled() {
            return 0.0;
        }
        if self.memo_enabled {
            if let Some(&cost) = self.memo.get(&seg) {
                self.record_hits(1);
                return cost;
            }
        }
        self.ensure_objects();
        let start = stage_clock();
        let cube = self.engine.cube();
        let objects = self.object_tops.as_ref().expect("cached");
        let (cost, centroid_time) = raw_segment_cost(
            cube,
            self.diff_metric,
            self.metric,
            objects,
            &mut self.engine,
            seg,
        );
        // Preserve the module attribution of the latency breakdown
        // (Fig. 15): centroid top-m derivation is Cascading-Analysts work
        // (module b), distances are segmentation work (module c).
        self.timers.cascading += centroid_time;
        self.timers.segmentation += start.elapsed().saturating_sub(centroid_time);
        if self.memo_enabled {
            self.memo.insert(seg, cost);
            self.memo_misses += 1;
        }
        cost
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
    /// With the memo on (the default), each *unique* segment across the
    /// batch is priced exactly once — nested auto-K proposals share most
    /// of their segments, which is where the sweep's redundant centroid
    /// derivations used to go — and the unique set fans out across the
    /// parallel context. Per-scheme sums then read the memo in input
    /// order, so the summation order (and hence every f64 bit) matches
    /// the unmemoized path.
    pub fn objective_batch(&mut self, schemes: &[Segmentation]) -> Vec<f64> {
        if !self.memo_enabled {
            return self.objective_batch_unmemoized(schemes);
        }
        // The unique segments the memo cannot answer yet, in first-seen
        // order (deterministic fan-out chunking).
        let mut pending: Vec<(usize, usize)> = Vec::new();
        let mut pending_set: HashSet<(usize, usize)> = HashSet::new();
        for scheme in schemes {
            for seg in scheme.segments() {
                if seg.1 - seg.0 > 1 && !self.memo.contains_key(&seg) && pending_set.insert(seg) {
                    pending.push(seg);
                }
            }
        }
        if self.parallel.is_sequential()
            || pending.len() < 2
            || self.n_points() < PAR_MIN_SCORING_POINTS
        {
            for &seg in &pending {
                let _ = self.segment_cost(seg); // computes, inserts, counts the miss
            }
        } else {
            self.ensure_objects();
            let start = stage_clock();
            let cube = self.engine.cube();
            let objects = self.object_tops.as_ref().expect("cached");
            let (diff, metric, m, strategy) = (
                self.diff_metric,
                self.metric,
                self.engine.m(),
                self.strategy,
            );
            let cancel = self.parallel.cancel_token().cloned();
            let parts: Vec<(f64, u64)> = self.parallel.run_chunks(pending.len(), |range| {
                let mut engine = TopExplEngine::new(cube, diff, m, strategy);
                range
                    .map(|i| {
                        if cancel.as_ref().is_some_and(|t| t.is_cancelled()) {
                            return (0.0, 0); // discarded by the erroring request
                        }
                        let before = engine.calls();
                        let (cost, _) =
                            raw_segment_cost(cube, diff, metric, objects, &mut engine, pending[i]);
                        (cost, engine.calls() - before)
                    })
                    .collect()
            });
            for (&seg, (cost, calls)) in pending.iter().zip(parts) {
                self.memo.insert(seg, cost);
                self.memo_misses += 1;
                self.extra_calls += calls;
            }
            let elapsed = start.elapsed();
            self.timers.segmentation += elapsed;
            self.timers.par_segmentation += elapsed;
        }
        // A cancelled sweep may have priced only a prefix of `pending`
        // (zip truncation above, or segment_cost's early return): the
        // read-back below would miss memo entries, so discard the batch —
        // the driver surfaces the cancellation as a typed error.
        if self.parallel.is_cancelled() {
            return Vec::new();
        }
        // Each scheme's sum folds its segment costs in segment order —
        // the same fold the unmemoized path performs. The first occurrence
        // of a segment priced above was already charged as a miss; every
        // other occurrence is a memo hit.
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

    /// The memo-off scoring path: every scheme prices every segment from
    /// scratch (what `objective_batch` did before the memo existed) —
    /// kept so disabling the memo reproduces the historical work profile
    /// exactly, which is what the memo-invisibility tests compare against.
    fn objective_batch_unmemoized(&mut self, schemes: &[Segmentation]) -> Vec<f64> {
        if self.parallel.is_sequential()
            || schemes.len() < 2
            || self.n_points() < PAR_MIN_SCORING_POINTS
        {
            return schemes.iter().map(|s| self.objective(s)).collect();
        }
        self.ensure_objects();
        let start = stage_clock();
        let cube = self.engine.cube();
        let objects = self.object_tops.as_ref().expect("cached");
        let (diff, metric, m, strategy) = (
            self.diff_metric,
            self.metric,
            self.engine.m(),
            self.strategy,
        );
        let cancel = self.parallel.cancel_token().cloned();
        let parts: Vec<(f64, u64)> = self.parallel.run_chunks(schemes.len(), |range| {
            let mut engine = TopExplEngine::new(cube, diff, m, strategy);
            range
                .map(|i| {
                    if cancel.as_ref().is_some_and(|t| t.is_cancelled()) {
                        return (0.0, 0); // discarded by the erroring request
                    }
                    let before = engine.calls();
                    let cost: f64 = schemes[i]
                        .segments()
                        .into_iter()
                        .map(|seg| {
                            raw_segment_cost(cube, diff, metric, objects, &mut engine, seg).0
                        })
                        .sum();
                    (cost, engine.calls() - before)
                })
                .collect()
        });
        let mut out = Vec::with_capacity(schemes.len());
        for (cost, calls) in parts {
            out.push(cost);
            self.extra_calls += calls;
        }
        let elapsed = start.elapsed();
        self.timers.segmentation += elapsed;
        self.timers.par_segmentation += elapsed;
        out
    }
}

/// The DP cost `|P| · var(P)` of one segment under `metric` — the one
/// implementation both the sequential [`SegmentationContext::segment_cost`]
/// and every parallel worker share, so parallel costs cannot drift from
/// sequential ones. Returns the cost plus the wall-clock spent deriving
/// the centroid's top-m list (module-b work, so sequential callers can
/// attribute it to the cascading timer).
///
/// For the centroid structure (Eq. 7) this is the *sum* of
/// object↔centroid distances (the centroid's top-m list is derived on
/// `engine`); for the all-pair structure (Eq. 10) it is `|P|` times the
/// average over all ordered object pairs.
fn raw_segment_cost(
    cube: &ExplanationCube,
    diff_metric: DiffMetric,
    metric: VarianceMetric,
    objects: &[ExplainedSegment],
    engine: &mut TopExplEngine<'_>,
    seg: (usize, usize),
) -> (f64, Duration) {
    let (a, b) = seg;
    let len = b - a;
    if len == 1 {
        return (0.0, Duration::default()); // a single object is its own centroid
    }
    let ctx = ScoreContext::new(cube, diff_metric);
    if metric.is_all_pair() {
        let mut sum = 0.0;
        for x in a..b {
            for y in x + 1..b {
                sum += object_pair_distance(&ctx, &objects[x], &objects[y], metric);
            }
        }
        // AVG over the l² ordered pairs (diagonal is 0, symmetric pairs
        // counted twice), scaled by |P| = l.
        let l = len as f64;
        (l * (2.0 * sum / (l * l)), Duration::default())
    } else {
        let centroid_start = stage_clock();
        let centroid = ExplainedSegment::new(seg, engine.top_m(seg));
        let centroid_time = centroid_start.elapsed();
        let mut cost = 0.0;
        #[expect(
            clippy::needless_range_loop,
            reason = "x is a point index into the segment, not a walk over the slice"
        )]
        for x in a..b {
            cost += object_centroid_distance(&ctx, &objects[x], &centroid, metric);
        }
        (cost, centroid_time)
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
        for metric in [VarianceMetric::Tse, VarianceMetric::AllPair] {
            let mut seq = context(&cube, metric).with_parallel(ParallelCtx::sequential());
            let reference = seq.compute_costs(&positions, None);
            for threads in [2, 8] {
                let mut par = context(&cube, metric).with_parallel(ParallelCtx::new(threads));
                let got = par.compute_costs(&positions, None);
                for a in 0..positions.len() {
                    for b in a + 1..positions.len() {
                        let (r, g) = (reference.get(a, b), got.get(a, b));
                        assert!(
                            r == g || (r.is_infinite() && g.is_infinite()),
                            "{metric} t={threads} cell ({a},{b}): {r} vs {g}"
                        );
                    }
                }
                assert_eq!(par.ca_calls(), seq.ca_calls(), "{metric} t={threads}");
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
        let mut seq = context(&cube, VarianceMetric::Tse).with_parallel(ParallelCtx::sequential());
        let reference = seq.objective_batch(&schemes);
        for threads in [2, 8] {
            let mut par =
                context(&cube, VarianceMetric::Tse).with_parallel(ParallelCtx::new(threads));
            assert_eq!(par.objective_batch(&schemes), reference, "t={threads}");
            assert_eq!(par.ca_calls(), seq.ca_calls(), "t={threads}");
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
        let mut without = context(&cube, VarianceMetric::Tse).without_memo();
        let memo_costs = with_memo.objective_batch(&schemes);
        let plain_costs = without.objective_batch(&schemes);
        // Bit-identical objectives...
        for (a, b) in memo_costs.iter().zip(&plain_costs) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        // ...and an identical logical workload metric...
        assert_eq!(with_memo.ca_calls(), without.ca_calls());
        // ...while strictly fewer derivations were actually performed.
        assert!(
            with_memo.ca_derivations() < without.ca_derivations(),
            "memo {} vs plain {}",
            with_memo.ca_derivations(),
            without.ca_derivations()
        );
        assert!(with_memo.memo_hits() > 0);
        assert_eq!(without.memo_hits(), 0);
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
        let schemes = nested_schemes(cube.n_points(), 8);
        let mut seq = context(&cube, VarianceMetric::Tse).with_parallel(ParallelCtx::sequential());
        let reference = seq.objective_batch(&schemes);
        for threads in [2, 8] {
            let mut par =
                context(&cube, VarianceMetric::Tse).with_parallel(ParallelCtx::new(threads));
            let got = par.objective_batch(&schemes);
            for (a, b) in got.iter().zip(&reference) {
                assert_eq!(a.to_bits(), b.to_bits(), "t={threads}");
            }
            assert_eq!(par.ca_calls(), seq.ca_calls(), "t={threads}");
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
        let mut ctx = context(&cube, VarianceMetric::Tse).with_parallel(ParallelCtx::new(4));
        let _ = ctx.compute_costs(&positions, None);
        let timers = ctx.timers();
        assert!(timers.par_segmentation <= timers.segmentation);
        assert!(timers.par_segmentation.as_nanos() > 0);
        assert!(timers.par_cascading <= timers.cascading);
    }
}
