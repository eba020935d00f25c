//! Answer checks: every answer is compared with a reference computed
//! before the measured phase through the same public API.
//!
//! Answers are byte-identical at any thread count, except for the
//! `latency` block, which reports wall-clock time, and the
//! `stats.cube_from_cache` flag, which reports the state of the cube cache
//! (the shared tenant's first explain builds its cube, later ones hit). The
//! comparison is on the canonical JSON text with both removed.

use std::collections::BTreeMap;

use serde::{Serialize, Value};
use tsexplain::ExplainResult;

/// The canonical text of a JSON answer: `latency` and `cube_from_cache`
/// members removed.
pub fn canonical(value: &Value) -> String {
    let mut value = value.clone();
    strip_volatile(&mut value);
    serde_json::to_string(&value).expect("answers encode")
}

/// The canonical text of an in-process answer.
pub fn canonical_result(result: &ExplainResult) -> String {
    canonical(&result.serialize())
}

/// The canonical text of an in-process strategy fan-out: the four answers
/// in strategy order.
pub fn canonical_results(results: &[ExplainResult]) -> String {
    canonical(&Value::Array(
        results.iter().map(|r| r.serialize()).collect(),
    ))
}

fn strip_volatile(value: &mut Value) {
    match value {
        Value::Object(map) => {
            map.remove("latency");
            map.remove("cube_from_cache");
            map.values_mut().for_each(strip_volatile);
        }
        Value::Array(items) => items.iter_mut().for_each(strip_volatile),
        _ => {}
    }
}

/// Attempted and failed operations per operation type.
#[derive(Default)]
pub struct Tally {
    ops: BTreeMap<&'static str, (u64, u64)>,
    /// The first few failures, for the report.
    pub notes: Vec<String>,
}

impl Tally {
    /// Records one operation of type `op`; `error` is `Some` when it failed.
    pub fn record(&mut self, op: &'static str, error: Option<String>) {
        let entry = self.ops.entry(op).or_default();
        entry.0 += 1;
        if let Some(e) = error {
            entry.1 += 1;
            if self.notes.len() < 8 {
                self.notes.push(format!("{op}: {e}"));
            }
        }
    }

    /// Records a checked answer: fails when it differs from the reference.
    pub fn answer(&mut self, op: &'static str, got: &str, want: &str) {
        let error = (got != want).then(|| mismatch(got, want));
        self.record(op, error);
    }

    pub fn merge(&mut self, other: Tally) {
        for (op, (a, f)) in other.ops {
            let entry = self.ops.entry(op).or_default();
            entry.0 += a;
            entry.1 += f;
        }
        let room = 8usize.saturating_sub(self.notes.len());
        self.notes.extend(other.notes.into_iter().take(room));
    }

    pub fn attempted(&self) -> u64 {
        self.ops.values().map(|v| v.0).sum()
    }

    pub fn failed(&self) -> u64 {
        self.ops.values().map(|v| v.1).sum()
    }

    pub fn ops(&self) -> &BTreeMap<&'static str, (u64, u64)> {
        &self.ops
    }
}

/// Where two canonical answers first differ.
fn mismatch(got: &str, want: &str) -> String {
    let at = got
        .bytes()
        .zip(want.bytes())
        .position(|(a, b)| a != b)
        .unwrap_or(got.len().min(want.len()));
    let window = |s: &str| {
        let lo = s.floor_char_boundary(at.saturating_sub(40));
        let hi = s.ceil_char_boundary((at + 40).min(s.len()));
        s[lo..hi].to_string()
    };
    format!(
        "answer differs from the reference at byte {at}: got …{}… want …{}…",
        window(got),
        window(want)
    )
}
