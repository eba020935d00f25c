//! The traced run's report: per-layer self time, the per-layer metrics,
//! every ratio with its numerator and denominator, and the tracing
//! overhead.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::inproc::Traced;
use crate::stats::median;
use crate::trace::Tracer;

/// `(metric, span)`: metrics read as the median duration of a span.
const SPAN_METRICS: [(&str, &str); 15] = [
    ("relation.build_ms", "relation.build"),
    ("cube.build_ms", "cube.build"),
    ("cube.snapshot_ms", "cube.snapshot"),
    ("cube.append_ms", "cube.append"),
    ("diff.describe_ms", "diff.describe"),
    ("segment.sketch_ms", "segment.sketch"),
    ("segment.costs_ms", "segment.costs"),
    ("segment.dp_ms", "segment.dp"),
    ("baselines.segment_ms", "baselines.segment"),
    ("core.prepare_ms", "core.prepare"),
    ("core.pipeline_ms", "core.pipeline"),
    ("core.register_ms", "core.register"),
    ("store.log_ms", "store.log"),
    ("server.body_parse_ms", "server.body_parse"),
    ("server.encode_ms", "server.encode"),
];

/// Span metrics reported only where the workload exercises them (they are
/// not in `BENCHMARK.json`, which lists what every workload measures).
const REPORT_ONLY_SPANS: [(&str, &str); 5] = [
    ("cube.slice_ms", "cube.slice"),
    ("server.register_parse_ms", "server.register_parse"),
    ("server.handle_ms", "server.handle"),
    ("obs.scrape_ms", "obs.scrape"),
    ("obs.render_ms", "obs.render"),
];

/// `(metric, unit)`: counts read as recorded.
const COUNT_METRICS: [(&str, &str); 20] = [
    ("relation.rows", "count"),
    ("cube.candidates", "count"),
    ("cube.selectable", "count"),
    ("cube.bytes", "bytes"),
    ("diff.gamma_all_bytes", "bytes"),
    ("segment.positions", "count"),
    ("segment.ca_calls", "count"),
    ("segment.ca_derivations", "count"),
    ("segment.memo_hits", "count"),
    ("segment.memo_misses", "count"),
    ("parallel.threads", "count"),
    ("parallel.costs_speedup", "ratio"),
    ("core.cube_hit_ratio", "ratio"),
    ("core.cubes_built", "count"),
    ("core.cube_refreshes", "count"),
    ("core.cube_evictions", "count"),
    ("store.wal_appends", "count"),
    ("store.wal_bytes", "bytes"),
    ("store.wal_bytes_per_row_byte", "ratio"),
    ("server.body_bytes", "bytes"),
];

/// The per-layer metrics and the report text.
pub fn summarize(
    tr: &Tracer,
    traced: &Traced,
) -> (BTreeMap<&'static str, (f64, &'static str)>, String) {
    let mut metrics = BTreeMap::new();
    let mut text = String::new();
    let span_median = |span: &str| {
        let d = tr.durations_ms(span);
        (!d.is_empty()).then(|| (median(&d), d.len()))
    };

    for (metric, span) in SPAN_METRICS {
        let (value, line) = match span_median(span) {
            Some((value, n)) => (
                value,
                format!("{metric} = {value:.4} ms (median of {n} {span} spans)"),
            ),
            None => (
                0.0,
                format!("{metric} = 0 ms (this workload makes no {span} call)"),
            ),
        };
        metrics.insert(metric, (value, "ms"));
        let _ = writeln!(text, "{line}");
    }
    for (metric, span) in REPORT_ONLY_SPANS {
        if let Some((value, n)) = span_median(span) {
            let _ = writeln!(
                text,
                "{metric} = {value:.4} ms (median of {n} {span} spans; report only)"
            );
        }
    }
    // The registrations differ in size and the parse is quadratic, so the
    // set-up's share is their sum, not their median.
    let parses = tr.durations_ms("server.register_parse");
    if !parses.is_empty() {
        let each: Vec<String> = parses.iter().map(|d| format!("{d:.1}")).collect();
        let _ = writeln!(
            text,
            "server.register_parse total = {:.1} ms over {} registrations [{}] ms (in setup_s)",
            parses.iter().sum::<f64>(),
            parses.len(),
            each.join(", ")
        );
    }
    for (metric, unit) in COUNT_METRICS {
        let value = match metric {
            "server.body_bytes" => tr.get("server.body_bytes") / tr.get("server.bodies").max(1.0),
            _ => tr.get(metric),
        };
        metrics.insert(metric, (value, unit));
        let _ = writeln!(text, "{metric} = {value} {unit}");
    }

    let responses = tr.get("server.responses");
    let response_bytes = tr.get("server.response_bytes") / responses.max(1.0);
    metrics.insert("server.response_bytes", (response_bytes, "bytes"));
    let _ = writeln!(
        text,
        "server.response_bytes = {response_bytes:.1} bytes ({} bytes over {responses} encoded answers)",
        tr.get("server.response_bytes")
    );

    let calls = tr.get("diff.gamma_all_calls");
    let gamma_ns = tr.get("diff.gamma_all_total_ns") / calls.max(1.0);
    metrics.insert("diff.gamma_all_ns", (gamma_ns, "ns"));
    let _ = writeln!(
        text,
        "diff.gamma_all_ns = {gamma_ns:.1} ns per call ({} ns over {calls} calls, {} computed bytes per call)",
        tr.get("diff.gamma_all_total_ns"),
        tr.get("diff.gamma_all_bytes")
    );

    let (hits, misses) = (tr.get("segment.memo_hits"), tr.get("segment.memo_misses"));
    let ratio = hits / (hits + misses).max(1.0);
    metrics.insert("segment.memo_hit_ratio", (ratio, "ratio"));
    let _ = writeln!(
        text,
        "segment.memo_hit_ratio = {ratio:.4} ({hits} hits / ({hits} hits + {misses} misses))"
    );
    let _ = writeln!(
        text,
        "segment.ca_derivations / segment.ca_calls = {} / {}",
        tr.get("segment.ca_derivations"),
        tr.get("segment.ca_calls")
    );
    let _ = writeln!(
        text,
        "store.wal_bytes_per_row_byte = {} WAL bytes / {} wire-encoded row bytes",
        tr.get("store.wal_bytes"),
        tr.get("store.row_bytes")
    );

    let traced_p50 = median(&traced.traced_explain_ms);
    let untraced_p50 = median(&traced.untraced_explain_ms);
    metrics.insert("trace.overhead_ms", (traced_p50 - untraced_p50, "ms"));
    let _ = writeln!(
        text,
        "trace.overhead_ms = {:.4} ms (traced explain_p50_ms {traced_p50:.4}: the layers' calls, \
         one span each − untraced explain_p50_ms {untraced_p50:.4}: the facade's prepare + \
         pipeline on the same cache state, {} explains each, interleaved in this run)",
        traced_p50 - untraced_p50,
        traced.traced_explain_ms.len()
    );

    let _ = writeln!(
        text,
        "per-layer self time of the decomposed operations (spans under bench.* roots) over {} requests:",
        tr.requests()
    );
    for (layer, (nanos, spans)) in tr.layer_self_nanos("bench") {
        let _ = writeln!(
            text,
            "  {layer:<10} {spans:>6} spans  self {:>10.3} ms  ({:.3} ms per request)",
            nanos as f64 / 1e6,
            nanos as f64 / 1e6 / tr.requests().max(1) as f64
        );
    }
    for note in &traced.notes {
        let _ = writeln!(text, "{note}");
    }
    for (op, (attempted, failed)) in traced.tally.ops() {
        let _ = writeln!(
            text,
            "op {op}: attempted {attempted}, failed {failed} (decomposed vs facade)"
        );
    }
    for note in &traced.tally.notes {
        let _ = writeln!(text, "FAILED {note}");
    }
    (metrics, text)
}
