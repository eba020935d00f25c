//! What a run measured, and how it is printed.
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. Lines before it explain
//! the figures: what set-up contains, the tail percentile and sample count
//! of each tail metric, and attempted/failed counts per operation type.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Duration;

use serde::Value;

use crate::check::Tally;
use crate::stats::{median, tail};

/// Everything an untraced run measured.
#[derive(Default)]
pub struct Measured {
    /// Attempted/failed operations per type.
    pub tally: Tally,
    /// Wall time of each set-up repetition (seconds): the one before the
    /// measured phase, then the rest after it.
    pub setup_s: Vec<f64>,
    /// What `setup_s` covers, in words.
    pub setup_contents: String,
    pub explain_ms: Vec<f64>,
    /// The seconds `explain_rps` divides the explains by: their own time
    /// in-process, the measured phase's wall time in serve-mixed.
    pub rps_seconds: f64,
    /// What `rps_seconds` covers, in words.
    pub rps_basis: &'static str,
    /// Wall time of the measured phase (seconds).
    pub phase_s: f64,
    pub append_ms: Vec<f64>,
    pub compare_ms: Vec<f64>,
    /// VmHWM at the end of the measured phase, before the set-up
    /// repetitions that follow it.
    pub peak_rss_mib: f64,
    /// Free-form lines for the report (sizes, request lists, filesystem).
    pub notes: Vec<String>,
}

impl Measured {
    /// The end-to-end metrics, by name: `(value, unit)`.
    pub fn metrics(&self) -> BTreeMap<&'static str, (f64, &'static str)> {
        let explain_tail = tail(&self.explain_ms).map_or(median(&self.explain_ms), |t| t.value);
        BTreeMap::from([
            ("setup_s", (median(&self.setup_s), "s")),
            ("peak_rss_mib", (self.peak_rss_mib, "MiB")),
            ("explain_p50_ms", (median(&self.explain_ms), "ms")),
            ("explain_tail_ms", (explain_tail, "ms")),
            ("explain_rps", (self.explain_rps(), "1/s")),
            ("append_p50_ms", (median(&self.append_ms), "ms")),
            ("compare_p50_ms", (median(&self.compare_ms), "ms")),
        ])
    }

    fn explain_rps(&self) -> f64 {
        self.explain_ms.len() as f64 / self.rps_seconds
    }

    /// Every latency sample in operation order, one line per type.
    pub fn samples(&self) -> String {
        let mut out = String::new();
        for (name, samples) in [
            ("setup_s", &self.setup_s),
            ("explain_ms", &self.explain_ms),
            ("append_ms", &self.append_ms),
            ("compare_ms", &self.compare_ms),
        ] {
            let values: Vec<String> = samples.iter().map(|v| format!("{v:.4}")).collect();
            let _ = writeln!(out, "{name} {}", values.join(" "));
        }
        out
    }

    /// The human-readable lines printed before the result.
    pub fn describe(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "setup_s covers: {}", self.setup_contents);
        let reps: Vec<String> = self.setup_s.iter().map(|s| format!("{s:.4}")).collect();
        let _ = writeln!(
            out,
            "setup_s repetitions (s): [{}] (the first before the measured phase, the rest \
             after it), median reported",
            reps.join(", ")
        );
        for (name, samples) in [
            ("explain", &self.explain_ms),
            ("append", &self.append_ms),
            ("compare", &self.compare_ms),
        ] {
            let line = match tail(samples) {
                Some(t) => format!(
                    "{name}: n = {}, p50 = {:.3} ms, tail p{} = {:.3} ms ({} samples beyond)",
                    samples.len(),
                    median(samples),
                    t.percentile,
                    t.value,
                    t.beyond
                ),
                None => format!(
                    "{name}: n = {}, p50 = {:.3} ms (too few samples for a tail)",
                    samples.len(),
                    median(samples)
                ),
            };
            let _ = writeln!(out, "{line}");
        }
        let _ = writeln!(
            out,
            "measured phase: {} explains in {:.3} s; explain_rps = {:.3} = {} explains / {:.3} s \
             ({})",
            self.explain_ms.len(),
            self.phase_s,
            self.explain_rps(),
            self.explain_ms.len(),
            self.rps_seconds,
            self.rps_basis
        );
        let _ = writeln!(
            out,
            "peak RSS at the end of the measured phase: {:.1} MiB",
            self.peak_rss_mib
        );
        for (op, (attempted, failed)) in self.tally.ops() {
            let _ = writeln!(out, "op {op}: attempted {attempted}, failed {failed}");
        }
        for note in &self.tally.notes {
            let _ = writeln!(out, "FAILED {note}");
        }
        for note in &self.notes {
            let _ = writeln!(out, "{note}");
        }
        out
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}`.
pub fn result_line(tally: &Tally, metrics: &BTreeMap<&'static str, (f64, &'static str)>) -> String {
    let metrics = Value::object(metrics.iter().map(|(name, (value, unit))| {
        (
            *name,
            Value::object([
                ("value", Value::Number(*value)),
                ("unit", Value::String((*unit).to_string())),
            ]),
        )
    }));
    let line = Value::object([
        ("correct", Value::Bool(tally.failed() == 0)),
        ("attempted", Value::Number(tally.attempted() as f64)),
        ("failed", Value::Number(tally.failed() as f64)),
        ("metrics", metrics),
    ]);
    serde_json::to_string(&line).expect("the result encodes")
}

/// The process's peak resident set (VmHWM), in MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}
