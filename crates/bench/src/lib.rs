//! # tsexplain-bench
//!
//! The experiment harness: one binary per table/figure of the paper's
//! evaluation, plus the `loadgen` HTTP load generator. Each binary prints
//! the same rows/series the paper reports.
//!
//! Run a single experiment with e.g.
//! `cargo run --release -p tsexplain-bench --bin fig11_covid_total`.

#![forbid(unsafe_code)]
#![deny(clippy::print_stdout)]
use std::time::{Duration, Instant};

use tsexplain::{ExplainRequest, ExplainResult, ExplainSession, Optimizations};
use tsexplain_baselines::{bottom_up, fluss, nnsegment};
use tsexplain_cube::{CubeConfig, ExplanationCube};
use tsexplain_datagen::Workload;
use tsexplain_diff::{CascadingAnalysts, DiffMetric};
use tsexplain_segment::Segmentation;

/// Simple `--flag value` argument lookup for the harness binaries.
pub fn arg_usize(name: &str, default: usize) -> usize {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Runs the full TSExplain pipeline on a workload with the paper's default
/// configuration (all optimizations, auto K, top-3).
pub fn explain_default(workload: &Workload, smoothing: usize) -> ExplainResult {
    explain_with(workload, Optimizations::all(), None, smoothing)
}

/// Runs the pipeline with explicit optimizations / K / smoothing.
pub fn explain_with(
    workload: &Workload,
    optimizations: Optimizations,
    fixed_k: Option<usize>,
    smoothing: usize,
) -> ExplainResult {
    let mut request = ExplainRequest::new(workload.explain_by.clone())
        .with_optimizations(optimizations)
        .with_smoothing(smoothing);
    if let Some(k) = fixed_k {
        request = request.with_fixed_k(k);
    }
    explain_request(workload, &request)
}

/// Answers one request against a one-shot session over the workload — the
/// harness's end-to-end entry point (precompute + pipeline per call).
pub fn explain_request(workload: &Workload, request: &ExplainRequest) -> ExplainResult {
    ExplainSession::new(workload.relation.clone(), workload.query.clone())
        .expect("workload registers")
        .explain(request)
        .expect("workload must be explainable")
}

/// One baseline's cuts on the aggregated series.
pub fn baseline_cuts(name: &str, series: &[f64], k: usize, window: usize) -> Vec<usize> {
    match name {
        "Bottom-Up" => bottom_up(series, k),
        "FLUSS" => fluss(series, k, window),
        "NNSegment" => nnsegment(series, k, window),
        other => panic!("unknown baseline {other}"),
    }
}

/// The three baseline names, in the paper's order.
pub const BASELINES: [&str; 3] = ["Bottom-Up", "FLUSS", "NNSegment"];

/// A segment row for table output: time range + rendered top-m.
pub struct SegmentRow {
    /// `"start ~ end"`.
    pub range: String,
    /// `"label (+)"` strings, best first.
    pub tops: Vec<String>,
}

/// Renders an [`ExplainResult`]'s segments as rows.
pub fn segment_rows(result: &ExplainResult) -> Vec<SegmentRow> {
    result
        .segments
        .iter()
        .map(|seg| SegmentRow {
            range: format!("{} ~ {}", seg.start_time, seg.end_time),
            tops: seg
                .explanations
                .iter()
                .map(|e| format!("{} ({})", e.label, e.effect))
                .collect(),
        })
        .collect()
}

/// Prints a Table-3/4/5-style table.
#[expect(
    clippy::print_stdout,
    reason = "stdout is this helper's output channel: the experiment binaries print the table"
)]
pub fn print_segment_table(title: &str, rows: &[SegmentRow], m: usize) {
    println!("\n{title}");
    print!("{:<26}", "Segment");
    for r in 1..=m {
        print!("{:<30}", format!("Top-{r} Expl"));
    }
    println!();
    for row in rows {
        print!("{:<26}", row.range);
        for r in 0..m {
            print!("{:<30}", row.tops.get(r).map(String::as_str).unwrap_or("-"));
        }
        println!();
    }
}

/// Attaches the explanation module to an external segmentation: for each
/// segment, derive the top-m explanations with exact Cascading Analysts
/// (the §7.5.2 protocol for making the shape baselines comparable).
/// Returns the per-segment rows and the explanation wall-clock.
pub fn explain_fixed_segmentation(
    workload: &Workload,
    scheme: &Segmentation,
    m: usize,
) -> (Vec<SegmentRow>, Duration) {
    let cube = ExplanationCube::build(
        &workload.relation,
        &workload.query,
        &CubeConfig::new(workload.explain_by.iter().map(String::as_str)).with_filter_ratio(0.001),
    )
    .expect("cube must build");
    let start = Instant::now();
    let mut ca = CascadingAnalysts::new(&cube, DiffMetric::AbsoluteChange, m);
    let rows = scheme
        .segments()
        .into_iter()
        .map(|seg| {
            let top = ca.top_m(seg);
            SegmentRow {
                range: format!(
                    "{} ~ {}",
                    cube.timestamps()[seg.0],
                    cube.timestamps()[seg.1]
                ),
                tops: top
                    .items()
                    .iter()
                    .map(|it| format!("{} ({})", cube.label(it.id), it.effect))
                    .collect(),
            }
        })
        .collect();
    (rows, start.elapsed())
}

/// Formats a duration in ms with 1 decimal.
pub fn fmt_ms(d: Duration) -> String {
    format!("{:.1}ms", d.as_secs_f64() * 1e3)
}
