use std::fmt;

use tsexplain_diff::Effect;
use tsexplain_relation::AttrValue;
use tsexplain_segment::{LatencyBreakdown, Segmentation};

/// One ranked explanation of one segment, self-contained for display: its
/// label, score, effect and KPI trendline over the segment (the per-
/// explanation trendlines of the paper's Fig. 2 visualization).
#[derive(Clone, Debug)]
pub struct ExplanationItem {
    /// Human-readable predicate conjunction, e.g. `"BV=1750 & P=6"`.
    pub label: String,
    /// Difference score γ over the segment.
    pub gamma: f64,
    /// Change effect τ (`+` / `-`).
    pub effect: Effect,
    /// The explanation's aggregate values at each point of the segment
    /// (inclusive endpoints).
    pub series: Vec<f64>,
}

/// One segment of the evolving explanation: time range plus top-m
/// explanations (one entry of E in Definition 3.7).
#[derive(Clone, Debug)]
pub struct SegmentExplanation {
    /// Start point index (inclusive).
    pub start: usize,
    /// End point index (inclusive; shared with the next segment).
    pub end: usize,
    /// Timestamp at `start`.
    pub start_time: AttrValue,
    /// Timestamp at `end`.
    pub end_time: AttrValue,
    /// Top-m non-overlapping explanations, ranked by γ.
    pub explanations: Vec<ExplanationItem>,
    /// The segment's within-segment variance `var(P_i)` (Eq. 7): how
    /// *inconsistently* the top explanations cover the segment's steps.
    /// High values flag segments worth further inspection (paper §9).
    pub variance: f64,
}

/// Pipeline statistics (Table 6 columns + instrumentation).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PipelineStats {
    /// Total candidate explanations ε.
    pub epsilon: usize,
    /// Candidates surviving the support filter.
    pub filtered_epsilon: usize,
    /// Series length n.
    pub n_points: usize,
    /// Number of top-m derivations performed.
    pub ca_calls: u64,
    /// Candidate cut positions used by the DP (= n without sketching).
    pub candidate_positions: usize,
    /// Whether the explanation cube was served from a session's cache
    /// (precompute latency ≈ 0) rather than built for this request.
    pub cube_from_cache: bool,
}

/// The full output of one `explain()` call.
#[derive(Clone, Debug)]
pub struct ExplainResult {
    /// Wire name of the segmentation strategy that produced this result
    /// (`"dp"`, `"bottom_up"`, `"fluss"`, `"nnsegment"`).
    pub strategy: String,
    /// The chosen segmentation scheme.
    pub segmentation: Segmentation,
    /// The chosen K (elbow-selected or fixed).
    pub chosen_k: usize,
    /// The K-Variance curve `[(k, D(n, k))]` explored by the DP.
    pub k_variance_curve: Vec<(usize, f64)>,
    /// The DP objective `Σ |P_i| var(P_i)` at the chosen K (Table 7's
    /// quality number).
    pub total_variance: f64,
    /// Per-segment evolving explanations.
    pub segments: Vec<SegmentExplanation>,
    /// The timestamps of the aggregated series.
    pub timestamps: Vec<AttrValue>,
    /// The aggregated KPI values.
    pub aggregate: Vec<f64>,
    /// Wall-clock breakdown (Fig. 15).
    pub latency: LatencyBreakdown,
    /// Pipeline statistics.
    pub stats: PipelineStats,
}

impl ExplainResult {
    /// The interior cut positions, as timestamps.
    pub fn cut_times(&self) -> Vec<&AttrValue> {
        self.segmentation
            .cuts()
            .iter()
            .map(|&c| &self.timestamps[c])
            .collect()
    }

    /// Indices of segments whose within-segment variance exceeds
    /// `factor` × the mean segment variance — the "hints for segments with
    /// higher variance for further inspection" of paper §9. A typical
    /// `factor` is 1.5.
    pub fn high_variance_segments(&self, factor: f64) -> Vec<usize> {
        if self.segments.is_empty() {
            return Vec::new();
        }
        let mean =
            self.segments.iter().map(|s| s.variance).sum::<f64>() / self.segments.len() as f64;
        if mean <= 0.0 {
            return Vec::new();
        }
        self.segments
            .iter()
            .enumerate()
            .filter(|(_, s)| s.variance > factor * mean)
            .map(|(i, _)| i)
            .collect()
    }
}

impl fmt::Display for ExplainResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "TSExplain: K = {} over {} points ({} candidates, {} after filter)",
            self.chosen_k, self.stats.n_points, self.stats.epsilon, self.stats.filtered_epsilon
        )?;
        for seg in &self.segments {
            writeln!(f, "  {} ~ {}", seg.start_time, seg.end_time)?;
            for (rank, item) in seg.explanations.iter().enumerate() {
                writeln!(
                    f,
                    "    top-{}: {} ({}) gamma={:.4}",
                    rank + 1,
                    item.label,
                    item.effect,
                    item.gamma
                )?;
            }
            if seg.explanations.is_empty() {
                writeln!(f, "    (no contributing explanation)")?;
            }
        }
        write!(f, "  latency: {}", self.latency)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ExplainResult {
        ExplainResult {
            strategy: "dp".into(),
            segmentation: Segmentation::new(5, vec![2]).unwrap(),
            chosen_k: 2,
            k_variance_curve: vec![(1, 3.0), (2, 1.0)],
            total_variance: 1.0,
            segments: vec![SegmentExplanation {
                start: 0,
                end: 2,
                start_time: AttrValue::from("d0"),
                end_time: AttrValue::from("d2"),
                explanations: vec![ExplanationItem {
                    label: "state=NY".into(),
                    gamma: 12.0,
                    effect: Effect::Plus,
                    series: vec![0.0, 5.0, 12.0],
                }],
                variance: 0.1,
            }],
            timestamps: ["d0", "d1", "d2", "d3", "d4"].map(AttrValue::from).to_vec(),
            aggregate: vec![0.0, 5.0, 12.0, 12.0, 12.0],
            latency: LatencyBreakdown::default(),
            stats: PipelineStats::default(),
        }
    }

    #[test]
    fn cut_times_map_to_timestamps() {
        let r = sample();
        assert_eq!(r.cut_times(), vec![&AttrValue::from("d2")]);
    }

    #[test]
    fn high_variance_hints() {
        let mut r = sample();
        // Clone the segment twice with different variances.
        let mut quiet = r.segments[0].clone();
        quiet.variance = 0.05;
        let mut loud = r.segments[0].clone();
        loud.variance = 0.9;
        r.segments = vec![quiet.clone(), quiet, loud];
        assert_eq!(r.high_variance_segments(1.5), vec![2]);
        // A huge factor flags nothing.
        assert!(r.high_variance_segments(10.0).is_empty());
    }

    #[test]
    fn no_hints_on_flat_result() {
        let mut r = sample();
        r.segments[0].variance = 0.0;
        assert!(r.high_variance_segments(1.5).is_empty());
    }

    #[test]
    fn display_mentions_segments_and_explanations() {
        let s = sample().to_string();
        assert!(s.contains("state=NY"));
        assert!(s.contains("top-1"));
        assert!(s.contains("d0 ~ d2"));
    }
}
