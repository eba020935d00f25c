//! The traced run's decomposed pipeline.
//!
//! The same answer the facade (`PreparedCube::explain`) gives, computed by
//! calling each layer's public functions from outside the program with one
//! span per call: the cube layer (`IncrementalCube`, `ExplanationCube`),
//! the segment layer (`select_sketch`, `compute_costs`,
//! `k_segmentation_with`, `elbow_k`), the baselines behind
//! `SegmenterSpec::build`, and the diff layer (`SegmentationContext::explained`,
//! `ScoreContext::gamma_all`). The caller checks the assembled answer
//! against the facade's.

use std::sync::Arc;
use std::time::Instant;

use tsexplain::{
    AggQuery, CubeConfig, Datum, ExplainRequest, ExplainResult, ExplanationCube, ExplanationItem,
    IncrementalCube, KSelection, LatencyBreakdown, PipelineStats, Relation, Schema,
    SegmentExplanation, Segmentation, SegmenterSpec,
};
use tsexplain_cube::AppendRow;
use tsexplain_diff::{ScoreContext, TopExplStrategy};
use tsexplain_segment::{elbow_k, k_segmentation_with, select_sketch, SegmentationContext};

use crate::stats::median;
use crate::trace::Tracer;

/// The cube configuration a session derives from a request.
pub fn cube_config(request: &ExplainRequest) -> CubeConfig {
    let mut config =
        CubeConfig::new(request.explain_by().iter().cloned()).with_max_order(request.max_order());
    config.filter_ratio = request.optimizations().filter_ratio;
    config
}

/// A cube kept by the traced run the way a session caches one: the
/// incremental state plus its finalized snapshot.
pub struct ShadowCube {
    pub inc: IncrementalCube,
    pub snapshot: Arc<ExplanationCube>,
    smoothing: usize,
}

impl ShadowCube {
    /// Enumerates the cube from `relation` (`cube.build`) and finalizes it
    /// (`cube.snapshot`). The size counts keep the largest cube the run
    /// builds, whatever order the workload builds its cubes in.
    pub fn build(
        tr: &mut Tracer,
        relation: &Relation,
        query: &AggQuery,
        request: &ExplainRequest,
    ) -> Self {
        let config = cube_config(request);
        let par = request.parallel_ctx();
        let inc = tr.span("cube.build", || {
            IncrementalCube::from_relation_with(relation, query, &config, &par)
                .expect("the cube builds")
        });
        let smoothing = request.smoothing_window().max(1);
        let cube = ShadowCube {
            snapshot: Arc::new(snapshot(tr, &inc, smoothing)),
            inc,
            smoothing,
        };
        for (name, value) in [
            ("cube.candidates", cube.snapshot.n_candidates()),
            ("cube.selectable", cube.snapshot.n_selectable()),
            (
                "cube.bytes",
                cube.inc.approx_bytes() + cube.snapshot.approx_bytes(),
            ),
        ] {
            tr.set(name, tr.get(name).max(value as f64));
        }
        cube
    }

    /// Re-finalizes the snapshot after appends.
    pub fn refresh(&mut self, tr: &mut Tracer) {
        self.snapshot = Arc::new(snapshot(tr, &self.inc, self.smoothing));
    }

    /// Extends the incremental state at the tail (`cube.append`).
    pub fn append(&mut self, tr: &mut Tracer, rows: &[AppendRow]) {
        let inc = &mut self.inc;
        tr.span("cube.append", || {
            inc.append_batch(rows).expect("tail rows append")
        });
    }
}

/// Finalizes the incremental state (`cube.snapshot`, which includes the
/// moving-average smoothing a session applies).
fn snapshot(tr: &mut Tracer, inc: &IncrementalCube, smoothing: usize) -> ExplanationCube {
    tr.span("cube.snapshot", || {
        let mut cube = inc.snapshot().expect("the cube snapshots");
        if smoothing > 1 {
            cube.smooth_moving_average(smoothing);
        }
        cube
    })
}

/// Encodes raw rows into the cube's append form, as a session does for
/// each cached cube.
pub fn encode_rows(
    schema: &Schema,
    query: &AggQuery,
    explain_by: &[String],
    rows: &[Vec<Datum>],
) -> Vec<AppendRow> {
    let index = |name: &str| schema.index_of(name).expect("attribute in schema");
    let time = index(query.time_attr());
    let attrs: Vec<usize> = explain_by.iter().map(|a| index(a)).collect();
    let value = |d: &Datum| match d {
        Datum::Attr(v) => v.clone(),
        Datum::Num(_) => panic!("dimension slot holds a number"),
    };
    rows.iter()
        .map(|row| {
            let measure = query
                .measure()
                .eval_row(schema, row)
                .expect("measure evaluates");
            (
                value(&row[time]),
                attrs.iter().map(|&i| value(&row[i])).collect(),
                measure,
            )
        })
        .collect()
}

/// Restricts `cube` to the request's time range (`cube.slice`), resolved
/// against the cube's axis as a session does.
pub fn slice(
    tr: &mut Tracer,
    cube: &ExplanationCube,
    request: &ExplainRequest,
) -> Option<ExplanationCube> {
    let (start, end) = request.time_range()?;
    let timestamps = cube.timestamps();
    let lo = timestamps.partition_point(|t| t < start);
    let hi = timestamps.partition_point(|t| t <= end);
    let filter = request.optimizations().filter_ratio;
    Some(tr.span("cube.slice", || {
        cube.slice_time(lo, hi - 1, filter)
            .expect("the range covers two points")
    }))
}

/// Runs the request's segmentation strategy over `cube` and explains the
/// scheme, one span per layer call. `from_cache` is copied into the
/// answer's stats (the shadow cube has no cache of its own).
pub fn explain(
    tr: &mut Tracer,
    cube: &ExplanationCube,
    request: &ExplainRequest,
    from_cache: bool,
) -> ExplainResult {
    let n = cube.n_points();
    let optimizations = request.optimizations();
    let strategy = match optimizations.guess_and_verify {
        Some(initial_guess) => TopExplStrategy::GuessVerify { initial_guess },
        None => TopExplStrategy::Exact,
    };
    let parallel = request.parallel_ctx();
    let mut ctx = SegmentationContext::new(
        cube,
        request.diff_metric(),
        request.top_m(),
        strategy,
        request.variance_metric(),
    )
    .with_parallel(parallel.clone());
    let spec = request.segmenter();

    let positions: Vec<usize> = match optimizations
        .sketching
        .filter(|_| spec.uses_candidate_positions())
    {
        Some(config) => tr.span("segment.sketch", || select_sketch(&mut ctx, &config)),
        None => (0..n).collect(),
    };

    let (segmentation, chosen_k, curve, total_variance) = match spec {
        SegmenterSpec::Dp => {
            let costs = tr.span("segment.costs", || ctx.compute_costs(&positions, None));
            tr.span("segment.dp", || {
                let k_cap = match request.k_selection() {
                    KSelection::Auto { max_k } => max_k.min(positions.len() - 1).max(1),
                    KSelection::Fixed(k) => k,
                };
                let dp = k_segmentation_with(&costs, k_cap, &parallel);
                let curve = dp.k_variance_curve();
                let chosen = match request.k_selection() {
                    KSelection::Auto { .. } => elbow_k(&curve),
                    KSelection::Fixed(k) => k,
                };
                let cuts = dp
                    .cuts(chosen)
                    .expect("feasible K")
                    .iter()
                    .map(|&pi| positions[pi])
                    .collect();
                let segmentation = Segmentation::new(n, cuts).expect("valid cuts");
                (segmentation, chosen, curve, dp.total_cost(chosen))
            })
        }
        shape => {
            let outcome = tr.span("baselines.segment", || {
                shape
                    .build()
                    .segment(&mut ctx, &positions, request.k_selection())
                    .expect("the baseline segments")
            });
            (
                outcome.segmentation,
                outcome.chosen_k,
                outcome.k_variance_curve,
                outcome.total_variance,
            )
        }
    };

    let segments: Vec<SegmentExplanation> = tr.span("diff.describe", || {
        segmentation
            .segments()
            .into_iter()
            .map(|seg| describe(cube, &mut ctx, seg))
            .collect()
    });

    // The batched scoring kernel over every candidate, once per answer
    // segment: what one top-m derivation scans.
    let score = ScoreContext::new(cube, request.diff_metric());
    let mut out = vec![0.0; cube.n_candidates()];
    for seg in segmentation.segments() {
        let start = Instant::now();
        score.gamma_all(seg, &mut out);
        std::hint::black_box(&out);
        tr.count("diff.gamma_all_calls", 1.0);
        tr.count("diff.gamma_all_total_ns", start.elapsed().as_nanos() as f64);
    }
    tr.set("diff.gamma_all_bytes", (2 * cube.n_candidates() * 8) as f64);

    tr.count("segment.positions", positions.len() as f64);
    tr.count("segment.ca_calls", ctx.ca_calls() as f64);
    tr.count("segment.ca_derivations", ctx.ca_derivations() as f64);
    tr.count("segment.memo_hits", ctx.memo_hits() as f64);
    tr.count("segment.memo_misses", ctx.memo_misses() as f64);

    ExplainResult {
        strategy: spec.name().to_string(),
        total_variance,
        chosen_k,
        k_variance_curve: curve,
        segments,
        timestamps: cube.timestamps().to_vec(),
        aggregate: cube.total_values(),
        latency: LatencyBreakdown::default(),
        stats: PipelineStats {
            epsilon: cube.n_candidates(),
            filtered_epsilon: cube.n_selectable(),
            n_points: n,
            ca_calls: ctx.ca_calls(),
            candidate_positions: positions.len(),
            cube_from_cache: from_cache,
        },
        segmentation,
    }
}

fn describe(
    cube: &ExplanationCube,
    ctx: &mut SegmentationContext<'_>,
    seg: (usize, usize),
) -> SegmentExplanation {
    let variance = ctx.segment_cost(seg) / (seg.1 - seg.0) as f64;
    let explained = ctx.explained(seg);
    SegmentExplanation {
        start: seg.0,
        end: seg.1,
        start_time: cube.timestamps()[seg.0].clone(),
        end_time: cube.timestamps()[seg.1].clone(),
        explanations: explained
            .top
            .items()
            .iter()
            .map(|item| ExplanationItem {
                label: cube.label(item.id),
                gamma: item.gamma,
                effect: item.effect,
                series: (seg.0..=seg.1).map(|t| cube.value_at(item.id, t)).collect(),
            })
            .collect(),
        variance,
    }
}

/// `parallel.costs_speedup`: `segment.costs` of `request` at one thread
/// over the same at `threads`, each the median of three fresh-context
/// runs, the two thread counts alternating so that a drift in host speed
/// falls on both. At `threads` = 1 the ratio is 1 by definition and
/// nothing is timed. Returns the report line with numerator and
/// denominator.
pub fn costs_speedup(
    tr: &mut Tracer,
    cube: &ExplanationCube,
    request: &ExplainRequest,
    threads: usize,
) -> String {
    if threads == 1 {
        tr.set("parallel.costs_speedup", 1.0);
        return "parallel.costs_speedup = 1 (the default is 1 thread)".into();
    }
    let (mut at_one, mut at_many) = (Vec::new(), Vec::new());
    for _ in 0..3 {
        at_one.push(costs_ms(cube, request, 1));
        at_many.push(costs_ms(cube, request, threads));
    }
    let (one, many) = (median(&at_one), median(&at_many));
    tr.set("parallel.costs_speedup", one / many);
    format!(
        "parallel.costs_speedup = {:.3} ({one:.3} ms at 1 thread / {many:.3} ms at {threads} threads)",
        one / many
    )
}

/// `segment.costs` for `request`'s candidate positions on a fresh context
/// at `threads`.
fn costs_ms(cube: &ExplanationCube, request: &ExplainRequest, threads: usize) -> f64 {
    let request = request.clone().with_threads(threads);
    let optimizations = request.optimizations();
    let strategy = match optimizations.guess_and_verify {
        Some(initial_guess) => TopExplStrategy::GuessVerify { initial_guess },
        None => TopExplStrategy::Exact,
    };
    let mut ctx = SegmentationContext::new(
        cube,
        request.diff_metric(),
        request.top_m(),
        strategy,
        request.variance_metric(),
    )
    .with_parallel(request.parallel_ctx());
    let positions = match optimizations.sketching {
        Some(config) => select_sketch(&mut ctx, &config),
        None => (0..cube.n_points()).collect(),
    };
    // The sketch warmed the memo; price the positions on a fresh context.
    let mut ctx = SegmentationContext::new(
        cube,
        request.diff_metric(),
        request.top_m(),
        strategy,
        request.variance_metric(),
    )
    .with_parallel(request.parallel_ctx());
    let start = Instant::now();
    std::hint::black_box(ctx.compute_costs(&positions, None));
    start.elapsed().as_secs_f64() * 1e3
}
