//! # tsexplain-parallel
//!
//! The workspace's intra-query parallel execution layer: a dependency-free
//! scoped-thread fan-out with **deterministic chunk-ordered reduction**.
//!
//! Every hot path that adopts [`ParallelCtx`] — cube candidate
//! enumeration, the DP cost matrix, the auto-K scoring sweep, the server's
//! `/compare` strategy fan-out — splits its work into contiguous chunks
//! whose boundaries depend only on `(n, threads)`, runs each chunk on its
//! own scoped thread, and concatenates the per-chunk results *in chunk
//! order*. The output is therefore a pure function of the input, never of
//! OS scheduling: running with 1, 2 or 64 threads produces byte-identical
//! results. That determinism is the layer's contract, and the workspace's
//! test harness enforces it (golden files replayed at several thread
//! counts, plus parallel-vs-sequential equality proptests).
//!
//! Thread-count resolution, lowest priority first:
//!
//! 1. the machine (`std::thread::available_parallelism`, capped at
//!    [`MAX_DEFAULT_THREADS`]),
//! 2. the `TSX_THREADS` environment variable (`0` or unset = machine
//!    default, `1` = sequential),
//! 3. an explicit per-request override (`ExplainRequest::with_threads` /
//!    `tsx-server --threads`), which callers express by constructing
//!    [`ParallelCtx::new`] directly.
//!
//! Worker threads are spawned per parallel region (`std::thread::scope`),
//! not pooled: regions are coarse (whole cost matrices, whole cube
//! enumerations), so spawn cost is noise, and scoped borrows keep the API
//! free of `Arc`/`'static` ceremony — chunk closures borrow the query's
//! data directly.

#![forbid(unsafe_code)]
#![deny(clippy::print_stdout)]
#![deny(clippy::disallowed_methods, clippy::iter_over_hash_type)]
use std::ops::Range;
use std::sync::OnceLock;
use std::thread;

mod cancel;

pub use cancel::CancelToken;

/// Cap on the machine-derived default thread count. Explicit requests
/// (`ParallelCtx::new`, `TSX_THREADS=32`) may exceed it.
pub const MAX_DEFAULT_THREADS: usize = 8;

/// Hard ceiling on any configured thread count — far above any sane
/// setting, it only guards against `TSX_THREADS=1000000` spawning storms.
pub const MAX_THREADS: usize = 256;

/// The environment variable that sets the default intra-query thread
/// count (`0` or unset = machine default, `1` = sequential).
pub const THREADS_ENV: &str = "TSX_THREADS";

/// An intra-query parallel execution context (see module docs): a thread
/// count plus deterministic chunked fan-out/reduce primitives, optionally
/// carrying the request's [`CancelToken`].
///
/// Cancellation never changes a *successful* result: workers poll the
/// token at chunk boundaries and early-exit with truncated output, but
/// every adopting hot path re-checks [`ParallelCtx::is_cancelled`] after
/// the fan-out and discards the whole region's output in favour of a
/// typed error. Either the request runs to completion byte-identical to
/// an uncancelled run, or it errors — never a third outcome.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParallelCtx {
    threads: usize,
    cancel: Option<CancelToken>,
}

impl ParallelCtx {
    /// A context running `threads` workers per parallel region; `0` means
    /// the machine default. Clamped to [`MAX_THREADS`].
    pub fn new(threads: usize) -> Self {
        let threads = match threads {
            0 => machine_default(),
            t => t.min(MAX_THREADS),
        };
        ParallelCtx {
            threads,
            cancel: None,
        }
    }

    /// The sequential context: every region runs inline on the caller's
    /// thread. Parallel and sequential execution are byte-identical by
    /// contract; this is the reference the harness compares against.
    pub fn sequential() -> Self {
        ParallelCtx {
            threads: 1,
            cancel: None,
        }
    }

    /// The process-wide default: [`THREADS_ENV`] when set (cached after the
    /// first read), the machine default otherwise.
    pub fn from_env() -> Self {
        static ENV_THREADS: OnceLock<usize> = OnceLock::new();
        #[expect(
            clippy::disallowed_methods,
            reason = "TSX_THREADS is the documented thread-count knob; answers are identical at any count"
        )]
        let threads = *ENV_THREADS.get_or_init(|| match std::env::var(THREADS_ENV) {
            Ok(v) => match v.trim().parse::<usize>() {
                Ok(0) | Err(_) => machine_default(),
                Ok(t) => t.min(MAX_THREADS),
            },
            Err(_) => machine_default(),
        });
        ParallelCtx {
            threads,
            cancel: None,
        }
    }

    /// Attaches the request's cancellation token: every fan-out under
    /// this context polls it at chunk boundaries, and adopting hot loops
    /// poll it via [`ParallelCtx::is_cancelled`].
    pub fn with_cancel(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// The attached cancellation token, if any.
    pub fn cancel_token(&self) -> Option<&CancelToken> {
        self.cancel.as_ref()
    }

    /// Polls the attached token; always false when none is attached.
    /// Sticky: once true, stays true.
    pub fn is_cancelled(&self) -> bool {
        self.cancel.as_ref().is_some_and(CancelToken::is_cancelled)
    }

    /// The configured worker count (≥ 1; 1 = sequential).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// True when regions run inline on the caller's thread.
    pub fn is_sequential(&self) -> bool {
        self.threads == 1
    }

    /// Splits `0..n` into at most `threads` contiguous chunks and runs `f`
    /// on each chunk, one scoped thread per chunk; the per-chunk outputs
    /// are concatenated **in chunk order**.
    ///
    /// Chunk boundaries depend only on `(n, threads)` and the reduction
    /// order is fixed, so the result is independent of scheduling — the
    /// determinism contract. With one thread (or one chunk) `f` runs
    /// inline with no spawns.
    ///
    /// When a [`CancelToken`] is attached and trips, workers that have
    /// not yet started their chunk skip it (their slot contributes
    /// nothing), so the fan-out joins promptly and the returned vector
    /// may be **truncated**. Callers that attach a token must re-check
    /// [`ParallelCtx::is_cancelled`] after the region and discard the
    /// output; without a token the result is always complete.
    pub fn run_chunks<T, F>(&self, n: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(Range<usize>) -> Vec<T> + Sync,
    {
        let ranges = self.chunk_ranges(n);
        if ranges.len() <= 1 {
            if self.is_cancelled() {
                return Vec::new();
            }
            return f(0..n);
        }
        let mut parts: Vec<Option<Vec<T>>> = Vec::new();
        parts.resize_with(ranges.len(), || None);
        thread::scope(|scope| {
            // Give each chunk's output slot to exactly one worker; the
            // iteration below re-reads them in chunk order.
            for (slot, range) in parts.iter_mut().zip(ranges.iter().cloned()) {
                let f = &f;
                let ctx = &*self;
                scope.spawn(move || {
                    // Chunk-boundary poll: a cancelled fan-out stops
                    // spending CPU and joins cleanly; the region's caller
                    // discards the truncated output.
                    if ctx.is_cancelled() {
                        *slot = Some(Vec::new());
                    } else {
                        *slot = Some(f(range));
                    }
                });
            }
        });
        let mut out = Vec::with_capacity(n);
        for part in parts {
            out.extend(part.expect("scope joins every worker"));
        }
        out
    }

    /// Maps `f` over `0..n` with deterministic ordering: `out[i] = f(i)`,
    /// computed across the worker chunks. Convenience over
    /// [`ParallelCtx::run_chunks`] for per-index work.
    pub fn map<T, F>(&self, n: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        self.run_chunks(n, |range| range.map(&f).collect())
    }

    /// The contiguous chunk decomposition of `0..n` this context uses: at
    /// most `threads` chunks of near-equal size (the first `n % chunks`
    /// chunks are one element longer). Deterministic in `(n, threads)`.
    pub fn chunk_ranges(&self, n: usize) -> Vec<Range<usize>> {
        if n == 0 {
            return Vec::new();
        }
        let chunks = self.threads.min(n).max(1);
        let base = n / chunks;
        let extra = n % chunks;
        let mut ranges = Vec::with_capacity(chunks);
        let mut start = 0;
        for c in 0..chunks {
            let len = base + usize::from(c < extra);
            ranges.push(start..start + len);
            start += len;
        }
        debug_assert_eq!(start, n);
        ranges
    }
}

impl Default for ParallelCtx {
    /// The process default ([`ParallelCtx::from_env`]).
    fn default() -> Self {
        ParallelCtx::from_env()
    }
}

fn machine_default() -> usize {
    thread::available_parallelism()
        .map(|n| n.get().min(MAX_DEFAULT_THREADS))
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn chunk_ranges_partition_exactly() {
        for threads in [1, 2, 3, 7, 8] {
            let ctx = ParallelCtx::new(threads);
            for n in [0usize, 1, 2, 5, 16, 97] {
                let ranges = ctx.chunk_ranges(n);
                assert!(ranges.len() <= threads.max(1));
                let mut expected = 0;
                for r in &ranges {
                    assert_eq!(r.start, expected, "contiguous");
                    assert!(!r.is_empty(), "no empty chunks");
                    expected = r.end;
                }
                assert_eq!(expected, n, "covers 0..{n} with {threads} threads");
            }
        }
    }

    #[test]
    fn map_preserves_index_order_at_any_thread_count() {
        let reference: Vec<usize> = (0..257).map(|i| i * i).collect();
        for threads in [1, 2, 3, 8, 64] {
            let ctx = ParallelCtx::new(threads);
            assert_eq!(ctx.map(257, |i| i * i), reference, "threads={threads}");
        }
    }

    #[test]
    fn run_chunks_concatenates_in_chunk_order() {
        let ctx = ParallelCtx::new(4);
        let out = ctx.run_chunks(10, |range| range.map(|i| i as u64).collect());
        assert_eq!(out, (0..10u64).collect::<Vec<_>>());
        // Variable-length chunk outputs also concatenate in order.
        let out = ctx.run_chunks(8, |range| {
            range.flat_map(|i| std::iter::repeat_n(i, i % 3)).collect()
        });
        let expected: Vec<usize> = (0..8).flat_map(|i| std::iter::repeat_n(i, i % 3)).collect();
        assert_eq!(out, expected);
    }

    #[test]
    fn parallel_regions_actually_fan_out() {
        let ctx = ParallelCtx::new(4);
        let peak = AtomicUsize::new(0);
        let live = AtomicUsize::new(0);
        ctx.run_chunks(4, |range| {
            let now = live.fetch_add(1, Ordering::SeqCst) + 1;
            peak.fetch_max(now, Ordering::SeqCst);
            // Hold the slot long enough for the other workers to arrive.
            std::thread::sleep(std::time::Duration::from_millis(30));
            live.fetch_sub(1, Ordering::SeqCst);
            range.collect::<Vec<_>>()
        });
        // Even on a single-core machine all four scoped threads coexist.
        assert_eq!(peak.load(Ordering::SeqCst), 4);
    }

    #[test]
    fn sequential_context_runs_inline() {
        let ctx = ParallelCtx::sequential();
        assert!(ctx.is_sequential());
        let caller = std::thread::current().id();
        let ids = ctx.map(3, |_| std::thread::current().id());
        assert!(ids.iter().all(|&id| id == caller));
    }

    #[test]
    fn zero_means_machine_default_and_caps_apply() {
        let ctx = ParallelCtx::new(0);
        assert!(ctx.threads() >= 1 && ctx.threads() <= MAX_DEFAULT_THREADS);
        assert_eq!(ParallelCtx::new(100_000).threads(), MAX_THREADS);
        assert_eq!(ParallelCtx::new(3).threads(), 3);
    }

    #[test]
    fn cancelled_fanout_joins_cleanly_and_truncates() {
        let token = CancelToken::new();
        token.cancel();
        let ctx = ParallelCtx::new(4).with_cancel(token.clone());
        assert!(ctx.is_cancelled());
        let out = ctx.run_chunks(100, |range| range.collect::<Vec<usize>>());
        assert!(out.is_empty(), "cancelled workers skip their chunks");
        // An untripped token leaves results complete and ordered.
        let live = ParallelCtx::new(4).with_cancel(CancelToken::new());
        let out = live.run_chunks(100, |range| range.collect::<Vec<usize>>());
        assert_eq!(out, (0..100).collect::<Vec<_>>());
        assert!(!live.is_cancelled());
    }

    #[test]
    fn mid_region_cancel_truncates_but_joins() {
        // Trip the token from inside the first chunk; later workers
        // (throttled by the barrier-free schedule) may or may not have
        // started, but the join itself must always complete and the
        // caller observes the cancellation.
        let token = CancelToken::after_polls(1);
        let ctx = ParallelCtx::new(4).with_cancel(token);
        let out = ctx.run_chunks(64, |range| {
            std::thread::sleep(std::time::Duration::from_millis(5));
            range.collect::<Vec<usize>>()
        });
        assert!(out.len() <= 64);
        assert!(ctx.is_cancelled());
    }

    #[test]
    fn results_are_identical_across_thread_counts() {
        // The determinism contract in miniature: a floating-point reduction
        // with a fixed chunk decomposition would differ if reduction order
        // ever depended on scheduling; per-index outputs never do.
        let work = |i: usize| ((i as f64) * 0.1).sin();
        let reference: Vec<f64> = (0..1000).map(work).collect();
        for threads in [2, 5, 8] {
            let got = ParallelCtx::new(threads).map(1000, work);
            assert!(got.iter().zip(&reference).all(|(a, b)| a == b));
        }
    }
}
