//! The traced run's span recorder.
//!
//! Spans are recorded from the benchmark's own code around each call into
//! a layer's public functions: request id, name, start, end and parent.
//! They stay in memory and are written out when the run ends. A span's
//! self time is its duration minus the time its child spans cover; spans
//! are opened and closed on one thread and nest strictly, so children never
//! overlap and their durations simply add up.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    pub request: u64,
    pub name: &'static str,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn nanos(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// The layer a span belongs to: its name up to the first dot.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// An open span, closed with [`Tracer::close`].
#[must_use]
pub struct Open(usize);

/// In-memory span and count recorder.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    request: u64,
    counts: BTreeMap<&'static str, f64>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            request: 0,
            counts: BTreeMap::new(),
        }
    }

    /// Starts a new request: later spans carry its id.
    pub fn begin_request(&mut self) -> u64 {
        assert!(self.stack.is_empty(), "a request began inside a span");
        self.request += 1;
        self.request
    }

    pub fn open(&mut self, name: &'static str) -> Open {
        let index = self.spans.len();
        self.spans.push(Span {
            request: self.request,
            name,
            parent: self.stack.last().copied(),
            start_ns: self.now_ns(),
            end_ns: 0,
        });
        self.stack.push(index);
        Open(index)
    }

    /// Closes `open` and returns its duration in nanoseconds.
    pub fn close(&mut self, open: Open) -> u64 {
        let end = self.now_ns();
        let top = self.stack.pop().expect("close without an open span");
        assert_eq!(top, open.0, "spans must close in reverse order");
        let span = &mut self.spans[open.0];
        span.end_ns = end;
        span.nanos()
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let open = self.open(name);
        let out = f();
        self.close(open);
        out
    }

    /// Adds `value` to the count `name`.
    pub fn count(&mut self, name: &'static str, value: f64) {
        *self.counts.entry(name).or_insert(0.0) += value;
    }

    /// Sets the count `name` (for gauges read once at the end).
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.counts.insert(name, value);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.counts.get(name).copied().unwrap_or(0.0)
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Durations (ms) of every closed span named `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name && s.end_ns > 0)
            .map(|s| s.nanos() as f64 / 1e6)
            .collect()
    }

    /// Self time per span: duration minus what the direct children cover.
    pub fn self_nanos(&self) -> Vec<u64> {
        let mut child = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child[parent] += span.nanos();
            }
        }
        self.spans
            .iter()
            .zip(child)
            .map(|(s, c)| s.nanos().saturating_sub(c))
            .collect()
    }

    /// Total self time (ns) per layer over the spans under a root whose
    /// layer is `root_layer` (the decomposed operations; the facade calls
    /// timed for comparison sit outside them).
    pub fn layer_self_nanos(&self, root_layer: &str) -> BTreeMap<&'static str, (u64, usize)> {
        // Parents precede their children, so one pass resolves each root.
        let mut root = Vec::with_capacity(self.spans.len());
        for (i, span) in self.spans.iter().enumerate() {
            root.push(span.parent.map_or(i, |p| root[p]));
        }
        let mut out: BTreeMap<&'static str, (u64, usize)> = BTreeMap::new();
        for (i, (span, own)) in self.spans.iter().zip(self.self_nanos()).enumerate() {
            if self.spans[root[i]].layer() != root_layer {
                continue;
            }
            let entry = out.entry(span.layer()).or_default();
            entry.0 += own;
            entry.1 += 1;
        }
        out
    }

    pub fn requests(&self) -> u64 {
        self.request
    }

    /// The spans as JSON lines.
    pub fn spans_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"request\":{},\"name\":\"{}\",\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.request, s.name, s.start_ns, s.end_ns
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new();
        t.begin_request();
        let outer = t.open("bench.outer");
        let inner = t.open("segment.inner");
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.close(inner);
        t.close(outer);
        let own = t.self_nanos();
        assert_eq!(own[1], t.spans[1].nanos());
        assert_eq!(own[0], t.spans[0].nanos() - t.spans[1].nanos());
        let facade = t.open("core.facade");
        t.close(facade);
        let layers = t.layer_self_nanos("bench");
        assert_eq!(layers["segment"].1, 1);
        assert!(!layers.contains_key("core"));
        assert_eq!(t.spans[1].parent, Some(0));
    }
}
