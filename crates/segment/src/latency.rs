use std::time::Duration;

/// Per-stage intra-query parallelism instrumentation: how many worker
/// threads the request's [`tsexplain_parallel::ParallelCtx`] ran with and
/// the wall-clock of the segment-layer regions that fanned out across more
/// than one worker. Parallel and sequential execution are byte-identical by
/// contract, so these timings are pure observability — they report where
/// the speedup comes from, never affect what is computed.
///
/// Unlike the stage times, which sum the work of every worker, these are
/// elapsed time, and they are zero when nothing fanned out.
#[derive(Clone, Copy, Debug, Default)]
pub struct ParallelTimings {
    /// Worker threads of the request's parallel context (1 = sequential).
    pub threads: usize,
    /// Wall-clock of the unit-object top-m regions that fanned out.
    pub cascading: Duration,
    /// Wall-clock of the cost-matrix and auto-K scoring regions that
    /// fanned out. DP layers that fan out are not included: the DP solve
    /// is timed whole, into [`LatencyBreakdown::segmentation`].
    pub segmentation: Duration,
}

/// Segment memo instrumentation: how the segment memo of the request's
/// cube served its [`crate::SegmentationContext`]. The memo is
/// kept per cached cube, for every request over it, and survives tail
/// appends for the entries whose rows did not change (a time-range
/// request reads the memo of its slice's rows). Like the parallel
/// timings, it never changes what is computed — reported `ca_calls` stay
/// what a cold, request-local run reports — so these counters are the
/// observability channel for the work it saved. Each hit is one avoided pricing or
/// unit-object derivation; under a centroid variance metric each hit also
/// avoided one top-m derivation, so `ca_calls − hits` is exactly the
/// derivations performed.
///
/// Requests running concurrently on one cube may split hits and misses
/// differently from run to run, as each publishes what it priced; their
/// answers never differ.
///
/// They live in the latency block rather than `PipelineStats` because the
/// stats block is pinned byte-for-byte by the golden acceptance files;
/// the latency block is the response's designated non-pinned
/// instrumentation area.
#[derive(Clone, Copy, Debug, Default)]
pub struct MemoCounters {
    /// Segment costs and unit-object top-m lists served from the memo.
    pub hits: u64,
    /// Segment costs computed and published to the memo.
    pub misses: u64,
}

/// Breakdown of one `explain()` call into the paper's three pipeline
/// modules (Fig. 15): precomputation (a), Cascading Analysts (b) and
/// K-Segmentation (c), plus the parallel regions' wall-clock and the
/// segment memo counters.
///
/// Modules (b) and (c) are stage time summed over the segment layer's
/// workers: each worker charges its own derivations to `cascading` and its
/// distances to `segmentation`. At one thread this equals wall-clock; at N
/// threads it is the same work, so the split between the modules does not
/// change with the thread count, and [`LatencyBreakdown::total`] can
/// exceed the elapsed time.
///
/// It is the one record of where an answer's engine time went:
/// [`crate::SegmentationContext::latency`] fills it from the segment
/// layer's stage clocks, the caller adds the precompute, and the server's
/// `/metrics` and flight recorder read this block, not a clock of their
/// own.
#[derive(Clone, Copy, Debug, Default)]
pub struct LatencyBreakdown {
    /// Module (a): cube construction (group-bys, candidate enumeration,
    /// filtering, trie), wall-clock.
    pub precompute: Duration,
    /// Module (b): all top-m derivations, summed over workers.
    pub cascading: Duration,
    /// Module (c): distances and variances summed over workers, plus the
    /// work on the request's own thread, wall-clock: the sketch's DP, the
    /// DP solve with its elbow selection (or a baseline's cut proposals),
    /// and each cost matrix's memo lookups, fill and publish.
    pub segmentation: Duration,
    /// Intra-query parallelism instrumentation.
    pub parallel: ParallelTimings,
    /// Segment memo instrumentation.
    pub memo: MemoCounters,
}

impl LatencyBreakdown {
    /// The three modules' times summed: wall-clock at one thread, stage
    /// time summed over workers above it.
    pub fn total(&self) -> Duration {
        self.precompute + self.cascading + self.segmentation
    }

    /// Wall-clock of the regions that fanned out. It is elapsed time, not
    /// stage time, so it is not a part of [`LatencyBreakdown::total`].
    pub fn parallel_total(&self) -> Duration {
        self.parallel.cascading + self.parallel.segmentation
    }
}

impl std::fmt::Display for LatencyBreakdown {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "total {:?} (precompute {:?}, cascading {:?}, segmentation {:?})",
            self.total(),
            self.precompute,
            self.cascading,
            self.segmentation
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn total_sums_stages() {
        let l = LatencyBreakdown {
            precompute: Duration::from_millis(5),
            cascading: Duration::from_millis(10),
            segmentation: Duration::from_millis(2),
            parallel: ParallelTimings {
                threads: 4,
                cascading: Duration::from_millis(8),
                segmentation: Duration::from_millis(1),
            },
            memo: MemoCounters {
                hits: 12,
                misses: 3,
            },
        };
        assert_eq!(l.total(), Duration::from_millis(17));
        assert_eq!(l.parallel_total(), Duration::from_millis(9));
        assert_eq!(l.memo.hits, 12);
        let s = l.to_string();
        assert!(s.contains("precompute"));
    }
}
