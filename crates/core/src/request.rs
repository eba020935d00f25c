//! The typed per-query request of the serving API.
//!
//! A [`crate::ExplainSession`] registers a relation and an aggregation
//! query once; every subsequent question an analyst asks — different K,
//! different top-m, a different difference metric, a restricted time window,
//! a different segmentation strategy — is an [`ExplainRequest`]. Requests
//! are cheap values, validated upfront ([`InvalidRequest`]), and
//! serializable, so they can cross a service boundary as JSON.

use std::fmt;

use tsexplain_cube::MAX_EXPLAIN_BY;
use tsexplain_diff::DiffMetric;
use tsexplain_parallel::{CancelToken, ParallelCtx};
use tsexplain_relation::{AttrValue, ColumnType, Schema};
use tsexplain_segment::{KSelection, SketchConfig, VarianceMetric};

use crate::config::Optimizations;
use crate::segmenter::SegmenterSpec;

/// The largest `top_m` a request may ask for.
const MAX_TOP_M: usize = 100;

/// A rejected [`ExplainRequest`], detected before any pipeline work runs.
#[derive(Clone, Debug, PartialEq)]
pub enum InvalidRequest {
    /// The explain-by set was empty.
    EmptyExplainBy,
    /// An explain-by attribute is not a dimension of the registered
    /// relation.
    UnknownAttribute(String),
    /// An explain-by attribute equals the query's time attribute.
    TimeAttrInExplainBy(String),
    /// An explain-by attribute was listed twice.
    DuplicateAttribute(String),
    /// `top_m` was zero — every segment needs at least one explanation
    /// slot.
    ZeroTopM,
    /// `top_m` exceeded 100. Cascading Analysts allocates (ε + 1)·(m + 1)
    /// scores, so an unbounded m exhausts memory; the paper uses m = 3.
    TopMTooLarge(usize),
    /// Guess-and-verify (O1) was enabled with an initial guess m̄₀ of zero.
    ZeroGuessAndVerify,
    /// The explain-by set named more attributes than a cube supports
    /// ([`tsexplain_cube::MAX_EXPLAIN_BY`]).
    TooManyAttributes(usize),
    /// `max_order` was zero — candidates have order at least 1.
    ZeroMaxOrder,
    /// A fixed or maximum K of zero, or a fixed K exceeding `n − 1`
    /// segments for an `n`-point series.
    InfeasibleK {
        /// The requested K.
        k: usize,
        /// The series length it was checked against (0 when rejected
        /// before the series length is known).
        n: usize,
    },
    /// The time-range restriction selects fewer than two points.
    EmptyTimeRange {
        /// Render of the requested range start.
        start: String,
        /// Render of the requested range end.
        end: String,
    },
    /// The session was registered with a time attribute that is not a
    /// dimension of the relation.
    UnknownTimeAttribute(String),
    /// The session's query references a measure column that does not
    /// exist.
    UnknownMeasure(String),
    /// A window-parameterized segmentation strategy (FLUSS, NNSegment)
    /// was given a window the strategy cannot run with: below 2, or too
    /// large for the (possibly time-sliced) series.
    SegmenterWindow {
        /// The strategy's wire name.
        strategy: String,
        /// The rejected window.
        window: usize,
        /// The series length it was checked against (0 when rejected
        /// before the series length is known).
        n: usize,
    },
}

impl fmt::Display for InvalidRequest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InvalidRequest::EmptyExplainBy => {
                write!(f, "explain-by set is empty; name at least one dimension")
            }
            InvalidRequest::UnknownAttribute(a) => {
                write!(
                    f,
                    "explain-by attribute {a:?} is not a dimension of the registered relation"
                )
            }
            InvalidRequest::TimeAttrInExplainBy(a) => {
                write!(
                    f,
                    "explain-by attribute {a:?} is the query's time attribute"
                )
            }
            InvalidRequest::DuplicateAttribute(a) => {
                write!(f, "explain-by attribute {a:?} listed twice")
            }
            InvalidRequest::ZeroTopM => write!(f, "top-m must be at least 1"),
            InvalidRequest::TopMTooLarge(m) => {
                write!(f, "top-m {m} exceeds the maximum of {MAX_TOP_M}")
            }
            InvalidRequest::ZeroGuessAndVerify => {
                write!(f, "guess-and-verify initial guess must be at least 1")
            }
            InvalidRequest::TooManyAttributes(n) => write!(
                f,
                "explain-by set names {n} attributes; at most {MAX_EXPLAIN_BY} are supported"
            ),
            InvalidRequest::ZeroMaxOrder => write!(f, "max explanation order must be at least 1"),
            InvalidRequest::InfeasibleK { k, n } => {
                if *n == 0 {
                    write!(f, "K = {k} is infeasible (K must be at least 1)")
                } else {
                    write!(
                        f,
                        "K = {k} is infeasible for a series of {n} points (max {})",
                        n - 1
                    )
                }
            }
            InvalidRequest::EmptyTimeRange { start, end } => {
                write!(
                    f,
                    "time range [{start}, {end}] selects fewer than two points"
                )
            }
            InvalidRequest::UnknownTimeAttribute(a) => {
                write!(f, "time attribute {a:?} is not a dimension of the relation")
            }
            InvalidRequest::UnknownMeasure(m) => {
                write!(f, "measure column {m:?} does not exist in the relation")
            }
            InvalidRequest::SegmenterWindow {
                strategy,
                window,
                n,
            } => {
                if *n == 0 {
                    write!(
                        f,
                        "segmenter {strategy:?} window {window} is too small (min 2)"
                    )
                } else {
                    write!(
                        f,
                        "segmenter {strategy:?} window {window} is too large for a \
                         series of {n} points"
                    )
                }
            }
        }
    }
}

impl std::error::Error for InvalidRequest {}

/// One explanation query against a registered session (see module docs).
///
/// Construction follows the builder idiom, with the paper's defaults:
/// m = 3, β̄ = 3, absolute-change, `tse` variance, elbow-selected K ≤ 20,
/// all optimizations, no smoothing, full horizon, the explanation-aware DP
/// segmenter.
#[derive(Clone, Debug, PartialEq)]
pub struct ExplainRequest {
    explain_by: Vec<String>,
    top_m: usize,
    max_order: usize,
    diff_metric: DiffMetric,
    variance_metric: VarianceMetric,
    k: KSelection,
    optimizations: Optimizations,
    smoothing_window: usize,
    time_range: Option<(AttrValue, AttrValue)>,
    segmenter: SegmenterSpec,
    /// Intra-query worker threads; `None` defers to the process default
    /// (`TSX_THREADS` / the machine). Results are byte-identical at any
    /// setting — the determinism contract of `tsexplain-parallel` — so
    /// this is a performance knob, never a correctness one.
    threads: Option<usize>,
    /// The client's requested time budget in milliseconds — a wire member.
    /// The server clamps it to its own `--request-timeout-ms` cap when
    /// minting the request's [`crate::Deadline`]; a client can tighten the
    /// budget but never loosen it.
    timeout_ms: Option<u64>,
    /// The runtime cancellation token the compute layers poll — attached by
    /// the serving layer after minting the deadline, never from the wire.
    /// Like `threads`, it can only turn a result into a typed error, never
    /// change what a successful result contains.
    cancel: Option<CancelToken>,
}

impl ExplainRequest {
    /// A request with the paper's defaults for the given explain-by
    /// attributes.
    pub fn new<S: Into<String>, I: IntoIterator<Item = S>>(explain_by: I) -> Self {
        ExplainRequest {
            explain_by: explain_by.into_iter().map(Into::into).collect(),
            top_m: 3,
            max_order: 3,
            diff_metric: DiffMetric::AbsoluteChange,
            variance_metric: VarianceMetric::Tse,
            k: KSelection::default(),
            optimizations: Optimizations::default(),
            smoothing_window: 1,
            time_range: None,
            segmenter: SegmenterSpec::default(),
            threads: None,
            timeout_ms: None,
            cancel: None,
        }
    }

    /// Sets m, the number of explanations per segment.
    pub fn with_top_m(mut self, m: usize) -> Self {
        self.top_m = m;
        self
    }

    /// Sets β̄, the maximum explanation order.
    pub fn with_max_order(mut self, order: usize) -> Self {
        self.max_order = order;
        self
    }

    /// Sets the difference metric γ.
    pub fn with_diff_metric(mut self, metric: DiffMetric) -> Self {
        self.diff_metric = metric;
        self
    }

    /// Sets the within-segment variance design.
    pub fn with_variance_metric(mut self, metric: VarianceMetric) -> Self {
        self.variance_metric = metric;
        self
    }

    /// Fixes K.
    pub fn with_fixed_k(mut self, k: usize) -> Self {
        self.k = KSelection::Fixed(k);
        self
    }

    /// Selects K with the elbow method, capped at `max_k`.
    pub fn with_max_k(mut self, max_k: usize) -> Self {
        self.k = KSelection::Auto { max_k };
        self
    }

    /// Sets the optimization bundle.
    pub fn with_optimizations(mut self, optimizations: Optimizations) -> Self {
        self.optimizations = optimizations;
        self
    }

    /// Sets the pre-explanation smoothing window (`<= 1` = off).
    pub fn with_smoothing(mut self, window: usize) -> Self {
        self.smoothing_window = window;
        self
    }

    /// Selects the segmentation strategy (default:
    /// [`SegmenterSpec::Dp`], the paper's explanation-aware DP).
    pub fn with_segmenter(mut self, segmenter: SegmenterSpec) -> Self {
        self.segmenter = segmenter;
        self
    }

    /// Restricts the explanation to timestamps in `[start, end]`
    /// (inclusive). The window must cover at least two points of the
    /// series.
    pub fn with_time_range(
        mut self,
        start: impl Into<AttrValue>,
        end: impl Into<AttrValue>,
    ) -> Self {
        self.time_range = Some((start.into(), end.into()));
        self
    }

    /// Clears the time-range restriction (full horizon).
    pub fn with_full_horizon(mut self) -> Self {
        self.time_range = None;
        self
    }

    /// Sets the intra-query worker thread count (`0` = machine default;
    /// clamped by the parallel layer). The answer is byte-identical at any
    /// thread count; only latency changes.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads);
        self
    }

    /// Reverts to the process-default thread count (`TSX_THREADS`).
    pub fn with_default_threads(mut self) -> Self {
        self.threads = None;
        self
    }

    /// The explicit thread-count override, if any.
    pub fn threads(&self) -> Option<usize> {
        self.threads
    }

    /// Requests a client-side time budget of `ms` milliseconds (the wire
    /// `timeout_ms` member). The serving layer clamps it to the server cap.
    pub fn with_timeout_ms(mut self, ms: u64) -> Self {
        self.timeout_ms = Some(ms);
        self
    }

    /// The client's requested time budget in milliseconds, if any.
    pub fn timeout_ms(&self) -> Option<u64> {
        self.timeout_ms
    }

    /// Attaches the cancellation token the compute layers will poll
    /// (normally the minted deadline's token — see [`crate::Deadline`]).
    pub fn with_cancel(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// The attached cancellation token, if any.
    pub fn cancel(&self) -> Option<&CancelToken> {
        self.cancel.as_ref()
    }

    /// Whether `other` asks for the same answer: every member but the
    /// runtime-only `threads`, `timeout_ms` and `cancel`, which can change
    /// how fast or whether a request is answered, never what the answer
    /// is.
    pub(crate) fn asks_same_as(&self, other: &ExplainRequest) -> bool {
        let ExplainRequest {
            explain_by,
            top_m,
            max_order,
            diff_metric,
            variance_metric,
            k,
            optimizations,
            smoothing_window,
            time_range,
            segmenter,
            threads: _,
            timeout_ms: _,
            cancel: _,
        } = self;
        *explain_by == other.explain_by
            && *top_m == other.top_m
            && *max_order == other.max_order
            && *diff_metric == other.diff_metric
            && *variance_metric == other.variance_metric
            && *k == other.k
            && *optimizations == other.optimizations
            && *smoothing_window == other.smoothing_window
            && *time_range == other.time_range
            && *segmenter == other.segmenter
    }

    /// The parallel execution context this request runs under: the
    /// explicit override when set, the process default otherwise — with
    /// the request's cancellation token (if any) attached so every fanned
    /// worker polls it.
    pub fn parallel_ctx(&self) -> ParallelCtx {
        let ctx = match self.threads {
            Some(t) => ParallelCtx::new(t),
            None => ParallelCtx::from_env(),
        };
        match &self.cancel {
            Some(token) => ctx.with_cancel(token.clone()),
            None => ctx,
        }
    }

    /// The explain-by attributes A.
    pub fn explain_by(&self) -> &[String] {
        &self.explain_by
    }

    /// m — explanations per segment.
    pub fn top_m(&self) -> usize {
        self.top_m
    }

    /// β̄ — maximum explanation order.
    pub fn max_order(&self) -> usize {
        self.max_order
    }

    /// The difference metric γ.
    pub fn diff_metric(&self) -> DiffMetric {
        self.diff_metric
    }

    /// The within-segment variance design.
    pub fn variance_metric(&self) -> VarianceMetric {
        self.variance_metric
    }

    /// The K selection policy.
    pub fn k_selection(&self) -> KSelection {
        self.k
    }

    /// The optimization bundle.
    pub fn optimizations(&self) -> Optimizations {
        self.optimizations
    }

    /// The smoothing window (`<= 1` = off).
    pub fn smoothing_window(&self) -> usize {
        self.smoothing_window
    }

    /// The segmentation strategy.
    pub fn segmenter(&self) -> SegmenterSpec {
        self.segmenter
    }

    /// The time-range restriction, if any.
    pub fn time_range(&self) -> Option<&(AttrValue, AttrValue)> {
        self.time_range.as_ref()
    }

    /// Validates everything checkable without the series length: explain-by
    /// attributes against the relation's schema, structural knobs (each
    /// bounded so that no request can exhaust memory or crash the engine),
    /// K being nonzero, and the segmenter's window being at least 2.
    /// `K ≤ n − 1` and window-vs-length feasibility are checked by the
    /// session once the series length is known.
    pub fn validate(&self, schema: &Schema, time_attr: &str) -> Result<(), InvalidRequest> {
        if self.explain_by.is_empty() {
            return Err(InvalidRequest::EmptyExplainBy);
        }
        if self.explain_by.len() > MAX_EXPLAIN_BY {
            return Err(InvalidRequest::TooManyAttributes(self.explain_by.len()));
        }
        for (i, a) in self.explain_by.iter().enumerate() {
            if a == time_attr {
                return Err(InvalidRequest::TimeAttrInExplainBy(a.clone()));
            }
            if self.explain_by[..i].contains(a) {
                return Err(InvalidRequest::DuplicateAttribute(a.clone()));
            }
            let is_dimension = schema
                .index_of(a)
                .is_ok_and(|idx| schema.field(idx).column_type() == ColumnType::Dimension);
            if !is_dimension {
                return Err(InvalidRequest::UnknownAttribute(a.clone()));
            }
        }
        if self.top_m == 0 {
            return Err(InvalidRequest::ZeroTopM);
        }
        if self.top_m > MAX_TOP_M {
            return Err(InvalidRequest::TopMTooLarge(self.top_m));
        }
        if self.optimizations.guess_and_verify == Some(0) {
            return Err(InvalidRequest::ZeroGuessAndVerify);
        }
        if self.max_order == 0 {
            return Err(InvalidRequest::ZeroMaxOrder);
        }
        match self.k {
            KSelection::Fixed(0) | KSelection::Auto { max_k: 0 } => {
                return Err(InvalidRequest::InfeasibleK { k: 0, n: 0 })
            }
            _ => {}
        }
        self.segmenter.validate()
    }

    /// Checks the request against the (possibly window-restricted) series
    /// length: a fixed K admits at most `n − 1` segments, and a
    /// window-parameterized strategy must fit the series.
    pub(crate) fn validate_for_series(&self, n: usize) -> Result<(), InvalidRequest> {
        if let KSelection::Fixed(k) = self.k {
            if k > n.saturating_sub(1) {
                return Err(InvalidRequest::InfeasibleK { k, n });
            }
        }
        self.segmenter.validate_for_series(n)
    }

    /// The sketch configuration, when O2 is enabled.
    pub(crate) fn sketching(&self) -> Option<SketchConfig> {
        self.optimizations.sketching
    }
}

impl Default for ExplainRequest {
    /// A request with no explain-by attributes — invalid until
    /// attributes are supplied; useful as deserialization scaffolding.
    fn default() -> Self {
        ExplainRequest::new(Vec::<String>::new())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsexplain_relation::Field;

    fn schema() -> Schema {
        Schema::new(vec![
            Field::dimension("date"),
            Field::dimension("state"),
            Field::dimension("pack"),
            Field::measure("sold"),
        ])
        .unwrap()
    }

    #[test]
    fn defaults_match_paper() {
        let r = ExplainRequest::new(["state"]);
        assert_eq!(r.top_m(), 3);
        assert_eq!(r.max_order(), 3);
        assert_eq!(r.diff_metric(), DiffMetric::AbsoluteChange);
        assert_eq!(r.variance_metric(), VarianceMetric::Tse);
        assert_eq!(r.k_selection(), KSelection::Auto { max_k: 20 });
        assert_eq!(r.time_range(), None);
        assert_eq!(r.segmenter(), SegmenterSpec::Dp);
        assert_eq!(r.optimizations().filter_ratio, Some(0.001));
        assert_eq!(r.optimizations().guess_and_verify, Some(30));
        assert!(r.optimizations().sketching.is_some());
    }

    #[test]
    fn builder_chains() {
        let r = ExplainRequest::new(["state", "pack"])
            .with_top_m(5)
            .with_fixed_k(4)
            .with_diff_metric(DiffMetric::RelativeChange)
            .with_segmenter(SegmenterSpec::fluss(12))
            .with_time_range("2020-01-01", "2020-06-30");
        assert_eq!(r.top_m(), 5);
        assert_eq!(r.k_selection(), KSelection::Fixed(4));
        assert_eq!(r.diff_metric(), DiffMetric::RelativeChange);
        assert_eq!(r.segmenter(), SegmenterSpec::fluss(12));
        assert!(r.time_range().is_some());
        assert_eq!(r.with_full_horizon().time_range(), None);
    }

    #[test]
    fn validation_catches_bad_attributes() {
        let s = schema();
        assert_eq!(
            ExplainRequest::new(Vec::<String>::new()).validate(&s, "date"),
            Err(InvalidRequest::EmptyExplainBy)
        );
        assert_eq!(
            ExplainRequest::new(["nope"]).validate(&s, "date"),
            Err(InvalidRequest::UnknownAttribute("nope".into()))
        );
        // A measure is not a valid explain-by attribute.
        assert_eq!(
            ExplainRequest::new(["sold"]).validate(&s, "date"),
            Err(InvalidRequest::UnknownAttribute("sold".into()))
        );
        assert_eq!(
            ExplainRequest::new(["date"]).validate(&s, "date"),
            Err(InvalidRequest::TimeAttrInExplainBy("date".into()))
        );
        assert_eq!(
            ExplainRequest::new(["state", "state"]).validate(&s, "date"),
            Err(InvalidRequest::DuplicateAttribute("state".into()))
        );
        assert!(ExplainRequest::new(["state", "pack"])
            .validate(&s, "date")
            .is_ok());
    }

    #[test]
    fn validation_catches_bad_knobs() {
        let s = schema();
        assert_eq!(
            ExplainRequest::new(["state"])
                .with_top_m(0)
                .validate(&s, "date"),
            Err(InvalidRequest::ZeroTopM)
        );
        assert_eq!(
            ExplainRequest::new(["state"])
                .with_max_order(0)
                .validate(&s, "date"),
            Err(InvalidRequest::ZeroMaxOrder)
        );
        assert_eq!(
            ExplainRequest::new(["state"])
                .with_fixed_k(0)
                .validate(&s, "date"),
            Err(InvalidRequest::InfeasibleK { k: 0, n: 0 })
        );
        assert_eq!(
            ExplainRequest::new(["state"])
                .with_max_k(0)
                .validate(&s, "date"),
            Err(InvalidRequest::InfeasibleK { k: 0, n: 0 })
        );
    }

    /// Each bound keeps a request from breaking the engine: top-m sizes an
    /// (ε+1)·(m+1) allocation, a zero initial guess panics in
    /// guess-and-verify, and the attribute count sizes a `u32` subset mask.
    #[test]
    fn validation_bounds_knobs_that_crash_the_engine() {
        let s = schema();
        let r = ExplainRequest::new(["state"]);
        assert!(r.clone().with_top_m(MAX_TOP_M).validate(&s, "date").is_ok());
        assert_eq!(
            r.clone().with_top_m(1 << 40).validate(&s, "date"),
            Err(InvalidRequest::TopMTooLarge(1 << 40))
        );
        let zero_guess = Optimizations {
            guess_and_verify: Some(0),
            ..Optimizations::all()
        };
        assert_eq!(
            r.clone()
                .with_optimizations(zero_guess)
                .validate(&s, "date"),
            Err(InvalidRequest::ZeroGuessAndVerify)
        );
        assert!(r
            .with_optimizations(Optimizations::none())
            .validate(&s, "date")
            .is_ok());

        let attrs: Vec<String> = (0..=MAX_EXPLAIN_BY).map(|i| format!("a{i}")).collect();
        let mut fields: Vec<Field> = attrs.iter().map(Field::dimension).collect();
        fields.push(Field::dimension("date"));
        let wide = Schema::new(fields).unwrap();
        assert!(ExplainRequest::new(&attrs[..MAX_EXPLAIN_BY])
            .validate(&wide, "date")
            .is_ok());
        assert_eq!(
            ExplainRequest::new(&attrs).validate(&wide, "date"),
            Err(InvalidRequest::TooManyAttributes(MAX_EXPLAIN_BY + 1))
        );
    }

    #[test]
    fn validation_catches_degenerate_windows() {
        let s = schema();
        for spec in [SegmenterSpec::fluss(0), SegmenterSpec::nnsegment(1)] {
            let err = ExplainRequest::new(["state"])
                .with_segmenter(spec)
                .validate(&s, "date")
                .unwrap_err();
            assert!(
                matches!(err, InvalidRequest::SegmenterWindow { n: 0, .. }),
                "{spec}: {err:?}"
            );
        }
        assert!(ExplainRequest::new(["state"])
            .with_segmenter(SegmenterSpec::fluss(2))
            .validate(&s, "date")
            .is_ok());
    }

    #[test]
    fn k_feasibility_against_series_length() {
        let r = ExplainRequest::new(["state"]).with_fixed_k(29);
        assert!(r.validate_for_series(30).is_ok());
        let r = ExplainRequest::new(["state"]).with_fixed_k(30);
        assert_eq!(
            r.validate_for_series(30),
            Err(InvalidRequest::InfeasibleK { k: 30, n: 30 })
        );
        // Auto K is clamped, never infeasible.
        let r = ExplainRequest::new(["state"]).with_max_k(500);
        assert!(r.validate_for_series(30).is_ok());
    }

    #[test]
    fn window_feasibility_against_series_length() {
        let r = ExplainRequest::new(["state"]).with_segmenter(SegmenterSpec::fluss(10));
        assert!(r.validate_for_series(22).is_ok());
        assert_eq!(
            r.validate_for_series(20),
            Err(InvalidRequest::SegmenterWindow {
                strategy: "fluss".into(),
                window: 10,
                n: 20
            })
        );
        // An exclusion zone spanning the series is rejected for NNSegment.
        let r = ExplainRequest::new(["state"]).with_segmenter(SegmenterSpec::nnsegment(30));
        assert!(r.validate_for_series(30).is_err());
    }

    #[test]
    fn invalid_request_messages_are_specific() {
        assert!(InvalidRequest::UnknownAttribute("x".into())
            .to_string()
            .contains("\"x\""));
        assert!(InvalidRequest::InfeasibleK { k: 30, n: 30 }
            .to_string()
            .contains("max 29"));
        assert!(InvalidRequest::EmptyTimeRange {
            start: "a".into(),
            end: "b".into()
        }
        .to_string()
        .contains("fewer than two points"));
        assert!(InvalidRequest::SegmenterWindow {
            strategy: "fluss".into(),
            window: 40,
            n: 30
        }
        .to_string()
        .contains("too large"));
        assert_eq!(
            InvalidRequest::TopMTooLarge(101).to_string(),
            "top-m 101 exceeds the maximum of 100"
        );
        assert_eq!(
            InvalidRequest::TooManyAttributes(17).to_string(),
            "explain-by set names 17 attributes; at most 16 are supported"
        );
    }
}
