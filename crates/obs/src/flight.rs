//! A slow-request flight recorder.
//!
//! A fixed-size ring of the most recent requests whose wall-clock time
//! met a configurable threshold, each carrying its request id, route,
//! status, duration, full span tree, and any trace annotations (the
//! server attaches the engine's `LatencyBreakdown`). Served by the
//! server at `GET /debug/requests` so "why was that one slow?" is
//! answerable after the fact without re-running anything.

use std::collections::VecDeque;
use std::sync::Mutex;
use std::time::Duration;

use serde::Value;

/// One recorded slow request.
#[derive(Clone, Debug)]
pub struct FlightEntry {
    /// Monotonic sequence number (process-wide, oldest = smallest).
    pub seq: u64,
    /// The request id echoed on the response.
    pub request_id: String,
    /// Upper-cased HTTP method.
    pub method: String,
    /// Request path (query stripped).
    pub path: String,
    /// Response status code.
    pub status: u16,
    /// Wall-clock time spent handling the request, in nanoseconds.
    pub duration_nanos: u64,
    /// The span tree captured by the trace (see `trace::spans_value`).
    pub spans: Value,
    /// Trace annotations, e.g. the engine's latency breakdown.
    pub annotations: Value,
}

impl FlightEntry {
    fn serialize(&self) -> Value {
        Value::object([
            ("seq", Value::Number(self.seq as f64)),
            ("request_id", Value::String(self.request_id.clone())),
            ("method", Value::String(self.method.clone())),
            ("path", Value::String(self.path.clone())),
            ("status", Value::Number(self.status as f64)),
            ("duration_nanos", Value::Number(self.duration_nanos as f64)),
            ("spans", self.spans.clone()),
            ("annotations", self.annotations.clone()),
        ])
    }
}

/// The ring buffer of recent slow requests.
#[derive(Debug)]
pub struct FlightRecorder {
    capacity: usize,
    slow_nanos: u64,
    ring: Mutex<Ring>,
}

/// The retained entries and the next `seq`. One lock guards both, so
/// entries enter the ring in `seq` order and eviction drops the oldest.
#[derive(Debug, Default)]
struct Ring {
    next_seq: u64,
    entries: VecDeque<FlightEntry>,
}

impl FlightRecorder {
    /// A recorder keeping the last `capacity` requests at or above the
    /// `slow` threshold (a zero threshold records every request).
    pub fn new(capacity: usize, slow: Duration) -> Self {
        FlightRecorder {
            capacity: capacity.max(1),
            slow_nanos: slow.as_nanos().min(u64::MAX as u128) as u64,
            ring: Mutex::new(Ring::default()),
        }
    }

    /// Whether a request of `duration` qualifies for recording.
    pub fn qualifies(&self, duration: Duration) -> bool {
        duration.as_nanos() >= self.slow_nanos as u128
    }

    /// Records `entry` if its duration meets the threshold, evicting the
    /// oldest entry when full. Returns whether it was kept. The entry's
    /// `seq` field is assigned here.
    pub fn record(&self, mut entry: FlightEntry) -> bool {
        if entry.duration_nanos < self.slow_nanos {
            return false;
        }
        let mut ring = self.ring.lock().unwrap_or_else(|e| e.into_inner());
        entry.seq = ring.next_seq;
        ring.next_seq += 1;
        if ring.entries.len() == self.capacity {
            ring.entries.pop_front();
        }
        ring.entries.push_back(entry);
        true
    }

    /// The recorder's contents as JSON, newest request last.
    pub fn snapshot_value(&self) -> Value {
        let ring = self.ring.lock().unwrap_or_else(|e| e.into_inner());
        Value::object([
            ("capacity", Value::Number(self.capacity as f64)),
            (
                "slow_threshold_ms",
                Value::Number(self.slow_nanos as f64 / 1e6),
            ),
            (
                "requests",
                Value::Array(ring.entries.iter().map(FlightEntry::serialize).collect()),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(request_id: &str, millis: u64) -> FlightEntry {
        FlightEntry {
            seq: 0,
            request_id: request_id.into(),
            method: "POST".into(),
            path: "/datasets/1/explain".into(),
            status: 200,
            duration_nanos: millis * 1_000_000,
            spans: Value::Array(vec![]),
            annotations: Value::object::<&str, _>([]),
        }
    }

    #[test]
    fn fast_requests_are_not_recorded() {
        let rec = FlightRecorder::new(4, Duration::from_millis(100));
        assert!(!rec.record(entry("fast", 5)));
        assert!(rec.record(entry("slow", 100)));
        let snap = rec.snapshot_value();
        assert_eq!(
            snap.get("requests")
                .and_then(Value::as_array)
                .unwrap()
                .len(),
            1
        );
    }

    #[test]
    fn the_ring_evicts_oldest_first() {
        let rec = FlightRecorder::new(2, Duration::ZERO);
        for id in ["a", "b", "c"] {
            assert!(rec.record(entry(id, 1)));
        }
        let snap = rec.snapshot_value();
        let ids: Vec<&str> = snap
            .get("requests")
            .and_then(Value::as_array)
            .unwrap()
            .iter()
            .filter_map(|e| e.get("request_id").and_then(Value::as_str))
            .collect();
        assert_eq!(ids, ["b", "c"]);
    }

    #[test]
    fn concurrent_records_keep_seq_order() {
        const THREADS: usize = 8;
        const PER_THREAD: usize = 2_000;
        let rec = FlightRecorder::new(THREADS * PER_THREAD, Duration::ZERO);
        let start = std::sync::Barrier::new(THREADS);
        std::thread::scope(|scope| {
            for _ in 0..THREADS {
                scope.spawn(|| {
                    start.wait();
                    for _ in 0..PER_THREAD {
                        rec.record(entry("concurrent", 1));
                    }
                });
            }
        });
        let snap = rec.snapshot_value();
        let seqs: Vec<f64> = snap
            .get("requests")
            .and_then(Value::as_array)
            .unwrap()
            .iter()
            .map(|e| e.get("seq").and_then(Value::as_f64).unwrap())
            .collect();
        assert_eq!(seqs.len(), THREADS * PER_THREAD);
        assert!(
            seqs.windows(2).all(|w| w[0] < w[1]),
            "the ring holds entries out of seq order"
        );
    }

    #[test]
    fn zero_threshold_records_everything() {
        let rec = FlightRecorder::new(8, Duration::ZERO);
        assert!(rec.qualifies(Duration::ZERO));
        assert!(rec.record(entry("any", 0)));
    }
}
