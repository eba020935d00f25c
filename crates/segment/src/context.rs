use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use tsexplain_cube::ExplanationCube;
use tsexplain_diff::{DiffMetric, ScoreContext, TopExplEngine, TopExplStrategy};
use tsexplain_parallel::ParallelCtx;

use crate::cost::CostMatrix;
use crate::latency::{LatencyBreakdown, MemoCounters, ParallelTimings};
use crate::memo::{cell, CostKey, DeriveKey, SegmentMemo, SketchKey};
use crate::ndcg::ExplainedSegment;
use crate::scheme::Segmentation;
use crate::variance::{object_centroid_distance, object_pair_distance, VarianceMetric};

/// Below this many items (unit objects, cost-matrix cells, sweep
/// segments) a batch runs as one share on the caller's thread — spawn cost
/// would dwarf the work. A function of the batch size alone, so whether a
/// region fans out never depends on scheduling.
const PAR_MIN_ITEMS: usize = 32;

/// The stage clock, and the crate's only wall-clock read. Its readings
/// feed the [`LatencyBreakdown`] alone, which no golden observes.
#[expect(
    clippy::disallowed_methods,
    reason = "stage timings are reported beside the answer and stripped before goldens compare"
)]
fn stage_clock() -> Instant {
    Instant::now()
}

/// One worker's share of every fan-out region: a private top-m engine,
/// kept from region to region, and the stage time that worker spent.
///
/// Each worker charges its own top-m derivations to `cascading` and its
/// distance scans to `segmentation`; the context sums the slots into
/// [`LatencyBreakdown::cascading`] and [`LatencyBreakdown::segmentation`].
/// Work on the caller's thread outside a region (a solve through
/// [`SegmentationContext::timed_solve`], a cost matrix's memo
/// bookkeeping) is charged to slot 0's `segmentation`.
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
/// fan-out region over the context's worker slots, whose stage times
/// [`SegmentationContext::latency`] reports.
///
/// Unit lists, segment costs and sketch positions are read from and
/// published to a [`SegmentMemo`]: the cube's, attached with
/// [`SegmentationContext::with_memo`], or else a private one. Lookups run
/// in the single-threaded collect step before a region and publishing
/// after it, one memo lock hold each.
pub struct SegmentationContext<'a> {
    diff_metric: DiffMetric,
    metric: VarianceMetric,
    strategy: TopExplStrategy,
    /// The memo key of the context's derivations (its engines' effective
    /// path).
    derive: DeriveKey,
    parallel: ParallelCtx,
    /// One per share of the widest region so far. Slot 0, built with the
    /// context, is the caller's thread; the rest are built the first time a
    /// region needs them.
    slots: Vec<Slot<'a>>,
    object_tops: Option<Arc<Vec<ExplainedSegment>>>,
    par_cascading: Duration,
    par_segmentation: Duration,
    /// Unit lists, segment costs and sketches, pure functions of their
    /// keys and of the cube rows they read, so every repeat is a lookup
    /// instead of a fresh derivation, distance scan or sketch solve: within
    /// one request (the auto-K proposal sweep, the sketch band vs. the main
    /// DP, the final per-segment description) and, on a cube's memo, across
    /// requests.
    memo: Arc<SegmentMemo>,
    memo_hits: u64,
    memo_misses: u64,
    /// Derivations *avoided* by memo hits. Added back into
    /// [`SegmentationContext::ca_calls`] so that counter stays what a cold,
    /// request-local run reports (the golden files pin it); the
    /// derivations actually performed are
    /// [`SegmentationContext::ca_derivations`].
    hit_calls: u64,
}

impl<'a> SegmentationContext<'a> {
    /// Builds a context over `cube` with the process-default parallel
    /// context (override with [`SegmentationContext::with_parallel`]) and
    /// a private memo (share one with [`SegmentationContext::with_memo`]).
    pub fn new(
        cube: &'a ExplanationCube,
        diff_metric: DiffMetric,
        m: usize,
        strategy: TopExplStrategy,
        metric: VarianceMetric,
    ) -> Self {
        let engine = TopExplEngine::new(cube, diff_metric, m, strategy);
        let derive = DeriveKey {
            metric: diff_metric,
            m,
            path: engine.path(),
        };
        SegmentationContext {
            diff_metric,
            metric,
            strategy,
            derive,
            parallel: ParallelCtx::from_env(),
            slots: vec![Slot::new(engine)],
            object_tops: None,
            par_cascading: Duration::ZERO,
            par_segmentation: Duration::ZERO,
            memo: Arc::default(),
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

    /// Shares `memo`, the memo of the context's cube (builder style).
    /// Entries are pure, so this changes how much is derived, never a
    /// cost, a list or `ca_calls`. The handle keeps the memo of the rows
    /// the cube was finalized from: a later [`SegmentMemo::advance`] of a
    /// shared memo moves a copy.
    pub fn with_memo(mut self, memo: Arc<SegmentMemo>) -> Self {
        self.memo = memo;
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

    /// Lookups served from the memo: segment costs, and unit-object lists
    /// another request published.
    pub fn memo_hits(&self) -> u64 {
        self.memo_hits
    }

    /// Segment costs computed and published to the memo.
    pub fn memo_misses(&self) -> u64 {
        self.memo_misses
    }

    /// Records `n` segment-cost hits, restoring the derivations the hits
    /// avoided into the logical `ca_calls` metric (centroid metrics derive
    /// one top-m list per computed segment cost; all-pair metrics derive
    /// none).
    fn record_hits(&mut self, n: u64) {
        self.memo_hits += n;
        if !self.metric.is_all_pair() {
            self.hit_calls += n;
        }
    }

    /// The memo key of the context's segment costs.
    fn cost_key(&self) -> CostKey {
        CostKey {
            derive: self.derive,
            variance: self.metric,
        }
    }

    /// The memo key of a sketch over the context's series with band
    /// `max_len` and size `size`.
    fn sketch_key(&self, max_len: usize, size: usize) -> SketchKey {
        SketchKey {
            costs: self.cost_key(),
            n: self.n_points(),
            max_len,
            size,
        }
    }

    /// The sketch positions the memo holds for band `max_len` and size
    /// `size`, or `None`. A served sketch counts what pricing its band
    /// from the memo counts: the unit lists, then one hit per cell that
    /// spans two objects or more (`Σ_{d=2}^{min(L, n−1)} (n − d)`), so
    /// `ca_calls` stays what a cold run reports.
    pub(crate) fn memo_sketch(&mut self, max_len: usize, size: usize) -> Option<Vec<usize>> {
        let key = self.sketch_key(max_len, size);
        let positions = self.memo.locked(|tables| tables.sketch(&key))?;
        self.ensure_objects();
        let n = self.n_points();
        let cells: usize = (2..=max_len.min(n - 1)).map(|d| n - d).sum();
        self.record_hits(cells as u64);
        Some(positions.to_vec())
    }

    /// Publishes the sketch positions solved for band `max_len` and size
    /// `size`, unless the context is cancelled: a cancelled band leaves a
    /// partial cost matrix, and the sketch solved over it is discarded.
    pub(crate) fn publish_sketch(&mut self, max_len: usize, size: usize, positions: &[usize]) {
        if self.is_cancelled() {
            return;
        }
        let key = self.sketch_key(max_len, size);
        self.memo.locked(|tables| tables.put_sketch(key, positions));
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

    /// The answer's latency block so far: the slots' stage clocks summed,
    /// the wall-clock of the regions that fanned out, the thread count and
    /// the memo counters. Precompute is the cube's, so it is left at zero
    /// for the caller to fill.
    pub fn latency(&self) -> LatencyBreakdown {
        let mut latency = LatencyBreakdown {
            parallel: ParallelTimings {
                threads: self.parallel.threads(),
                cascading: self.par_cascading,
                segmentation: self.par_segmentation,
            },
            memo: MemoCounters {
                hits: self.memo_hits,
                misses: self.memo_misses,
            },
            ..LatencyBreakdown::default()
        };
        for slot in &self.slots {
            latency.cascading += slot.cascading;
            latency.segmentation += slot.segmentation;
        }
        latency
    }

    /// Runs `solve` on the caller's thread and charges its wall-clock to
    /// the segmentation stage: a strategy's own solver (the DP solve with
    /// its curve, elbow and cuts, or a shape strategy's cut proposal) and
    /// the sketch's DP. A solve that fans out is timed whole, as elapsed
    /// time on this thread.
    pub fn timed_solve<T>(&mut self, solve: impl FnOnce() -> T) -> T {
        let start = stage_clock();
        let out = solve();
        self.slots[0].segmentation += start.elapsed();
        out
    }

    /// Number of top-m derivations the workload *requested* so far: the
    /// derivations performed plus those the memo served. By construction
    /// this is what a cold context with a private memo reports, at any
    /// thread count and whatever a shared memo held — the deterministic
    /// workload-shape metric reported as `PipelineStats::ca_calls`. The
    /// derivations actually performed are
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

    /// Ensures the unit-object top lists are at hand: the memo's, then the
    /// rest derived in one region and published. Called wherever a cold
    /// run first derives them — the first cost matrix or the first lookup
    /// of a segment spanning two or more objects — so `ca_calls` counts
    /// them exactly when a cold run does; each list the memo serves is a
    /// hit that restores its derivation.
    fn ensure_objects(&mut self) {
        if self.object_tops.is_some() {
            return;
        }
        let count = self.n_points().saturating_sub(1);
        let key = self.derive;
        let known = self.memo.locked(|tables| tables.units(&key));
        let have = known.as_ref().map_or(0, |units| units.len().min(count));
        self.memo_hits += have as u64;
        self.hit_calls += have as u64;
        if have == count {
            self.object_tops = known;
            return;
        }
        let shares = self.shares(count - have);
        let fresh = region(
            &self.parallel,
            &mut self.slots[..shares],
            &mut self.par_cascading,
            count - have,
            |slot, i| slot.explain((have + i, have + i + 1)),
        );
        // A cancelled region is not cached; nothing prices after it.
        if fresh.len() < count - have {
            return;
        }
        let mut tops = Vec::with_capacity(count);
        tops.extend(known.iter().flat_map(|units| units[..have].iter().cloned()));
        tops.extend(fresh);
        let tops = Arc::new(tops);
        self.memo.locked(|tables| tables.put_units(key, &tops));
        self.object_tops = Some(tops);
    }

    /// Prices `segs`, segments the memo lacks that each span at least two
    /// unit objects, in one region and publishes their costs. `None` when
    /// the region was cancelled: nothing is published or counted.
    fn price(&mut self, segs: &[(usize, usize)]) -> Option<Vec<f64>> {
        if segs.is_empty() {
            return Some(Vec::new());
        }
        self.ensure_objects();
        let shares = self.shares(segs.len());
        let score = ScoreContext::new(self.cube(), self.diff_metric);
        let objects = self.object_tops.as_deref().map_or(&[][..], Vec::as_slice);
        let metric = self.metric;
        let costs = region(
            &self.parallel,
            &mut self.slots[..shares],
            &mut self.par_segmentation,
            segs.len(),
            |slot, i| slot.cost(&score, objects, metric, segs[i]),
        );
        if costs.len() < segs.len() {
            return None;
        }
        let key = self.cost_key();
        let start = stage_clock();
        self.memo.locked(|tables| {
            tables.put_costs(key, segs.iter().copied().zip(costs.iter().copied()))
        });
        self.slots[0].segmentation += start.elapsed();
        self.memo_misses += segs.len() as u64;
        Some(costs)
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
    /// region, then written to the matrix and published. The lookup pass,
    /// the fill and the publish run on the caller's thread and are charged
    /// to its segmentation clock, beside each worker's own pricing.
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

        let start = stage_clock();
        let mut missing: Vec<(usize, usize)> = Vec::new();
        let mut hits = 0;
        let key = self.cost_key();
        self.memo.locked(|tables| {
            let known = tables.costs(&key);
            for pi in 0..n_pos {
                for pj in pi + 1..n_pos {
                    let (a, b) = (positions[pi], positions[pj]);
                    if max_len_points.is_some_and(|max_len| b - a > max_len) {
                        break; // spans only grow with pj
                    }
                    if b - a == 1 {
                        matrix.set(pi, pj, 0.0); // a single object is its own centroid
                    } else if let Some(&cost) = known.and_then(|costs| costs.get(&cell(a, b))) {
                        matrix.set(pi, pj, cost);
                        hits += 1;
                    } else {
                        missing.push((pi, pj));
                    }
                }
            }
        });
        self.record_hits(hits);
        let segs: Vec<(usize, usize)> = missing
            .iter()
            .map(|&(pi, pj)| (positions[pi], positions[pj]))
            .collect();
        self.slots[0].segmentation += start.elapsed();
        // A cancelled region leaves the matrix partial; the caller discards it.
        if let Some(costs) = self.price(&segs) {
            let start = stage_clock();
            for (&(pi, pj), cost) in missing.iter().zip(costs) {
                matrix.set(pi, pj, cost);
            }
            self.slots[0].segmentation += start.elapsed();
        }
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
        self.ensure_objects();
        let key = self.cost_key();
        if let Some(cost) = self.memo.locked(|tables| tables.cost(&key, seg)) {
            self.record_hits(1);
            return cost;
        }
        match self.price(&[seg]).as_deref() {
            Some(&[cost]) => cost,
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
    /// per-scheme sums then fold the costs in input order, so the summation
    /// order (and hence every f64 bit) matches per-scheme scoring. A
    /// cancelled sweep returns an empty vector.
    pub fn objective_batch(&mut self, schemes: &[Segmentation]) -> Vec<f64> {
        // The unique multi-object segments in first-seen order
        // (deterministic share boundaries), and each one's slot.
        let mut unique: Vec<(usize, usize)> = Vec::new();
        let mut slot_of: HashMap<(usize, usize), usize> = HashMap::new();
        let mut occurrences = 0u64;
        for scheme in schemes {
            for seg in scheme.segments() {
                if seg.1 - seg.0 > 1 {
                    occurrences += 1;
                    slot_of.entry(seg).or_insert_with(|| {
                        unique.push(seg);
                        unique.len() - 1
                    });
                }
            }
        }
        if !unique.is_empty() {
            self.ensure_objects();
        }
        let key = self.cost_key();
        let mut costs = vec![0.0; unique.len()];
        let mut pending: Vec<usize> = Vec::new();
        self.memo.locked(|tables| {
            let known = tables.costs(&key);
            for (i, &(a, b)) in unique.iter().enumerate() {
                match known.and_then(|costs| costs.get(&cell(a, b))) {
                    Some(&cost) => costs[i] = cost,
                    None => pending.push(i),
                }
            }
        });
        let segs: Vec<(usize, usize)> = pending.iter().map(|&i| unique[i]).collect();
        let Some(priced) = self.price(&segs) else {
            return Vec::new(); // cancelled: the segmenter surfaces a typed error
        };
        for (&i, cost) in pending.iter().zip(priced) {
            costs[i] = cost;
        }
        // Every occurrence but the first of each segment priced above is a
        // memo hit.
        self.record_hits(occurrences - segs.len() as u64);
        schemes
            .iter()
            .map(|scheme| {
                let mut sum = 0.0;
                for seg in scheme.segments() {
                    sum += match slot_of.get(&seg) {
                        Some(&i) => costs[i],
                        None => 0.0, // a single object is its own centroid
                    };
                }
                sum
            })
            .collect()
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
        let seg = schemes[1].segments()[0];
        let direct = with_memo.segment_cost(seg);
        assert_eq!(
            direct.to_bits(),
            context(&cube, VarianceMetric::Tse)
                .segment_cost(seg)
                .to_bits()
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
    fn a_memo_served_cost_matrix_charges_its_memo_pass() {
        let cube = wide_cube();
        let positions: Vec<usize> = (0..cube.n_points()).collect();
        let mut memo = Arc::new(SegmentMemo::default());
        SegmentMemo::advance(&mut memo, &cube, 0);
        let mut first = context(&cube, VarianceMetric::Tse).with_memo(Arc::clone(&memo));
        let _ = first.compute_costs(&positions, None);
        // Every cell is in the memo: nothing is priced or derived, and the
        // lookup pass and the fill are still on the segmentation clock.
        let mut served = context(&cube, VarianceMetric::Tse).with_memo(Arc::clone(&memo));
        let _ = served.compute_costs(&positions, None);
        assert_eq!(served.memo_misses(), 0);
        assert_eq!(served.ca_derivations(), 0);
        let latency = served.latency();
        assert!(latency.segmentation.as_nanos() > 0);
        assert_eq!(latency.cascading, Duration::ZERO);
    }

    fn assert_same_costs(a: &CostMatrix, b: &CostMatrix) {
        assert_eq!(a.n_pos(), b.n_pos());
        for i in 0..a.n_pos() {
            for j in i + 1..a.n_pos() {
                assert_eq!(a.get(i, j).to_bits(), b.get(i, j).to_bits(), "({i},{j})");
            }
        }
    }

    #[test]
    fn a_shared_memo_serves_later_contexts() {
        let cube = wide_cube();
        let positions: Vec<usize> = (0..cube.n_points()).collect();
        let mut memo = Arc::new(SegmentMemo::default());
        SegmentMemo::advance(&mut memo, &cube, 0);
        let mut first = context(&cube, VarianceMetric::Tse).with_memo(Arc::clone(&memo));
        let reference = first.compute_costs(&positions, None);
        assert!(memo.bytes() > 0);

        // A later context derives nothing the first one priced, and counts
        // what a cold context counts.
        let mut second = context(&cube, VarianceMetric::Tse).with_memo(Arc::clone(&memo));
        assert_same_costs(&second.compute_costs(&positions, None), &reference);
        assert_eq!(second.ca_calls(), first.ca_calls());
        assert_eq!(second.ca_derivations(), 0);
        assert_eq!(second.memo_misses(), 0);
        assert_eq!(
            second.ca_calls() - second.memo_hits(),
            second.ca_derivations()
        );

        // Another list size is another key: nothing is shared.
        let mut other_m = SegmentationContext::new(
            &cube,
            DiffMetric::AbsoluteChange,
            1,
            TopExplStrategy::Exact,
            VarianceMetric::Tse,
        )
        .with_memo(Arc::clone(&memo));
        let _ = other_m.compute_costs(&positions, None);
        assert_eq!(other_m.memo_hits(), 0);
    }

    /// The wide fixture's rows for `t` in `range`, as a relation.
    fn wide_rows(range: std::ops::Range<i64>) -> Relation {
        let schema = Schema::new(vec![
            Field::dimension("d"),
            Field::dimension("state"),
            Field::measure("v"),
        ])
        .unwrap();
        let mut b = Relation::builder(schema);
        for t in range {
            let ny = if t < 20 { 3.0 * t as f64 } else { 60.0 };
            let ca = 4.0 + 5.0 * (t - 20).max(0) as f64;
            for (s, v) in [("NY", ny), ("CA", ca)] {
                b.push_row(vec![Datum::Attr(t.into()), Datum::from(s), Datum::from(v)])
                    .unwrap();
            }
        }
        b.finish()
    }

    #[test]
    fn advancing_keeps_exactly_the_entries_an_append_left_alone() {
        use tsexplain_cube::IncrementalCube;
        let config = CubeConfig::new(["state"]);
        let mut inc =
            IncrementalCube::from_relation(&wide_rows(0..30), &AggQuery::sum("d", "v"), &config)
                .unwrap();
        let before = inc.snapshot().unwrap();
        let mut memo = Arc::new(SegmentMemo::default());
        SegmentMemo::advance(&mut memo, &before, 0);
        let all = |cube: &ExplanationCube| (0..cube.n_points()).collect::<Vec<_>>();
        let _ = context(&before, VarianceMetric::Tse)
            .with_memo(Arc::clone(&memo))
            .compute_costs(&all(&before), None);

        // A late report on day 29, then day 30: rows 29 and 30 change.
        let attr = |s: &str| tsexplain_relation::AttrValue::from(s);
        inc.append_batch(&[
            (29.into(), vec![attr("CA")], 1.0),
            (30.into(), vec![attr("NY")], 60.0),
            (30.into(), vec![attr("CA")], 160.0),
        ])
        .unwrap();
        let after = inc.snapshot().unwrap();
        // No one else holds the memo, so it advances in place.
        let unshared = Arc::as_ptr(&memo);
        SegmentMemo::advance(&mut memo, &after, 29);
        assert_eq!(Arc::as_ptr(&memo), unshared, "an unshared memo was copied");
        let mut warm = context(&after, VarianceMetric::Tse).with_memo(Arc::clone(&memo));
        let mut cold = context(&after, VarianceMetric::Tse);
        let warm_costs = warm.compute_costs(&all(&after), None);
        assert_same_costs(&warm_costs, &cold.compute_costs(&all(&after), None));
        assert_eq!(warm.ca_calls(), cold.ca_calls());
        // Re-derived: units 28 and 29, and the 28 + 29 costs ending at
        // rows 29 and 30.
        assert_eq!(warm.ca_derivations(), 2 + 28 + 29);

        // A new candidate changes the shape: every entry goes.
        inc.append_batch(&[(31.into(), vec![attr("TX")], 5.0)])
            .unwrap();
        let reshaped = inc.snapshot().unwrap();
        SegmentMemo::advance(&mut memo, &reshaped, usize::MAX);
        assert_eq!(memo.entries(), 0);
    }

    #[test]
    fn advancing_a_shared_memo_moves_a_copy() {
        use tsexplain_cube::IncrementalCube;
        let config = CubeConfig::new(["state"]);
        let mut inc =
            IncrementalCube::from_relation(&wide_rows(0..30), &AggQuery::sum("d", "v"), &config)
                .unwrap();
        let before = inc.snapshot().unwrap();
        let positions: Vec<usize> = (0..before.n_points()).collect();
        let mut memo = Arc::new(SegmentMemo::default());
        SegmentMemo::advance(&mut memo, &before, 0);
        // A context over the first rows holds the memo and fills it.
        let mut held = context(&before, VarianceMetric::Tse).with_memo(Arc::clone(&memo));
        let reference = held.compute_costs(&positions, None);
        let work = (held.ca_derivations(), held.memo_misses());

        // Rows 29 and 30 change; the memo advances while `held` reads it.
        let attr = |s: &str| tsexplain_relation::AttrValue::from(s);
        inc.append_batch(&[
            (29.into(), vec![attr("CA")], 1.0),
            (30.into(), vec![attr("NY")], 60.0),
            (30.into(), vec![attr("CA")], 160.0),
        ])
        .unwrap();
        SegmentMemo::advance(&mut memo, &inc.snapshot().unwrap(), 29);
        assert!(
            !Arc::ptr_eq(&memo, &held.memo),
            "a shared memo advanced in place"
        );

        // The holder keeps every entry of its rows: it derives nothing.
        assert_same_costs(&held.compute_costs(&positions, None), &reference);
        assert_eq!((held.ca_derivations(), held.memo_misses()), work);

        // What a second holder publishes afterwards stays with the old rows.
        let advanced = memo.entries();
        let mut second = SegmentationContext::new(
            &before,
            DiffMetric::AbsoluteChange,
            1,
            TopExplStrategy::Exact,
            VarianceMetric::Tse,
        )
        .with_memo(Arc::clone(&held.memo));
        let _ = second.compute_costs(&positions, None);
        assert!(second.memo_misses() > 0);
        assert_eq!(memo.entries(), advanced);
    }

    #[test]
    fn parallel_timers_record_fanout_regions() {
        let cube = wide_cube();
        let positions: Vec<usize> = (0..cube.n_points()).collect();
        for threads in [1, 4] {
            let mut ctx =
                context(&cube, VarianceMetric::Tse).with_parallel(ParallelCtx::new(threads));
            let _ = ctx.compute_costs(&positions, None);
            let latency = ctx.latency();
            assert_eq!(latency.parallel.threads, threads);
            // Every worker charges its derivations and its distances.
            assert!(latency.cascading.as_nanos() > 0, "t={threads}");
            assert!(latency.segmentation.as_nanos() > 0, "t={threads}");
            // 39 objects and 741 cells: both regions fan out above 1 thread.
            let fanned = threads > 1;
            let parallel = latency.parallel;
            assert_eq!(parallel.cascading.as_nanos() > 0, fanned, "t={threads}");
            assert_eq!(parallel.segmentation.as_nanos() > 0, fanned, "t={threads}");
        }
    }
}
