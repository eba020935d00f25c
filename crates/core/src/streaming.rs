use tsexplain_relation::{AggQuery, Datum, Relation, Schema};

use crate::error::TsExplainError;
use crate::request::ExplainRequest;
use crate::result::ExplainResult;
use crate::session::{ExplainSession, Explainer, SessionStats};

/// Real-time time-series explanation (paper §8, "Real-time Time Series").
///
/// The paper's sketch: explain the existing series once, cache its cut
/// points, and when new data arrives "run the segmentation algorithm based
/// on the existing time series' cutting point and newly arrived data
/// points". Concretely, each [`StreamingExplainer::refresh`] after an
/// append restricts the DP's candidate cut positions to the previous cut
/// points plus every point at or after the previous horizon — the settled
/// past is only re-cut at previously chosen boundaries while the fresh
/// tail is segmented at full resolution.
///
/// Since the session redesign this type is a thin stateful wrapper over
/// [`ExplainSession`]: appended rows extend the session's cached cube
/// incrementally at the tail (`O(new rows)` per refresh) instead of
/// re-materializing and re-aggregating every buffered row, and restated
/// history (rows at already-settled timestamps) triggers a transparent
/// full rebuild inside the session — [`StreamingExplainer::reset_cache`]
/// now only forgets the cut points.
pub struct StreamingExplainer {
    session: ExplainSession,
    request: ExplainRequest,
    prev_cuts: Vec<usize>,
    prev_n_points: usize,
    last_result: Option<ExplainResult>,
}

impl StreamingExplainer {
    /// Creates a streaming explainer over an initially empty stream; rows
    /// are appended over time.
    pub fn new(
        request: ExplainRequest,
        schema: Schema,
        query: AggQuery,
    ) -> Result<Self, TsExplainError> {
        let empty = Relation::builder(schema).finish();
        Ok(StreamingExplainer {
            session: ExplainSession::new(empty, query)?,
            request,
            prev_cuts: Vec::new(),
            prev_n_points: 0,
            last_result: None,
        })
    }

    /// Creates a streaming explainer seeded with already-arrived history.
    pub fn with_history(
        request: ExplainRequest,
        relation: Relation,
        query: AggQuery,
    ) -> Result<Self, TsExplainError> {
        Ok(StreamingExplainer {
            session: ExplainSession::new(relation, query)?,
            request,
            prev_cuts: Vec::new(),
            prev_n_points: 0,
            last_result: None,
        })
    }

    /// The per-refresh request (K policy, top-m, metrics, …).
    pub fn request(&self) -> &ExplainRequest {
        &self.request
    }

    /// The underlying serving session (cache statistics, schema, …).
    pub fn session(&self) -> &ExplainSession {
        &self.session
    }

    /// Cache instrumentation of the underlying session.
    pub fn stats(&self) -> SessionStats {
        self.session.stats()
    }

    /// Appends new raw rows (typically for new timestamps). Rows at
    /// already-settled timestamps force a full rebuild inside the session
    /// *and* unfreeze the previously chosen cut points — restated history
    /// can shift the time axis, so cached cut indices would otherwise
    /// point at the wrong timestamps.
    pub fn append_rows(&mut self, rows: Vec<Vec<Datum>>) -> Result<(), TsExplainError> {
        let rebuilds_before = self.session.stats().rebuilds;
        self.session.append_rows(rows)?;
        if self.session.stats().rebuilds > rebuilds_before {
            self.reset_cache();
        }
        Ok(())
    }

    /// Number of distinct timestamps buffered so far.
    pub fn n_points(&self) -> usize {
        self.session.n_points()
    }

    /// Re-explains the accumulated data incrementally.
    ///
    /// New data is detected by timestamp count; if nothing new arrived the
    /// cached result is returned as-is.
    pub fn refresh(&mut self) -> Result<ExplainResult, TsExplainError> {
        if self.request.time_range().is_some() {
            // A windowed request is served ad hoc: the cached cut points
            // are full-horizon indices and do not apply to a sliced cube,
            // and a windowed result must not overwrite the incremental cut
            // state either.
            return self.session.explain_with_positions(&self.request, None);
        }
        let n_now = self.session.n_points();
        if n_now == self.prev_n_points {
            if let Some(cached) = &self.last_result {
                // No new timestamps: the evolving explanation is unchanged.
                return Ok(cached.clone());
            }
        }
        let positions = if self.prev_n_points >= 2 && n_now >= self.prev_n_points {
            let mut p: Vec<usize> = self.prev_cuts.clone();
            p.push(self.prev_n_points - 1);
            // All new points are candidates at full resolution.
            p.extend(self.prev_n_points..n_now);
            Some(p)
        } else {
            None
        };
        let result = self
            .session
            .explain_with_positions(&self.request, positions)?;
        self.prev_cuts = result.segmentation.cuts().to_vec();
        self.prev_n_points = result.stats.n_points;
        self.last_result = Some(result.clone());
        Ok(result)
    }

    /// Forgets the cached cut points and result, so the next refresh
    /// segments the whole horizon at full resolution again.
    pub fn reset_cache(&mut self) {
        self.prev_cuts.clear();
        self.prev_n_points = 0;
        self.last_result = None;
    }
}

impl Explainer for StreamingExplainer {
    /// Answers `request` incrementally: the request replaces the stored
    /// per-refresh request, and the refresh reuses previously settled cut
    /// points exactly like [`StreamingExplainer::refresh`].
    fn explain(&mut self, request: &ExplainRequest) -> Result<ExplainResult, TsExplainError> {
        if *request != self.request {
            self.request = request.clone();
            self.last_result = None;
        }
        self.refresh()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Optimizations;
    use tsexplain_relation::Field;

    fn schema() -> Schema {
        Schema::new(vec![
            Field::dimension("t"),
            Field::dimension("state"),
            Field::measure("v"),
        ])
        .unwrap()
    }

    fn rows_for(range: std::ops::Range<i64>) -> Vec<Vec<Datum>> {
        let mut rows = Vec::new();
        for t in range {
            let ny = if t <= 10 { 8.0 * t as f64 } else { 80.0 };
            let ca = if t <= 10 {
                2.0
            } else {
                2.0 + 9.0 * (t - 10) as f64
            };
            rows.push(vec![Datum::Attr(t.into()), "NY".into(), ny.into()]);
            rows.push(vec![Datum::Attr(t.into()), "CA".into(), ca.into()]);
        }
        rows
    }

    fn request() -> ExplainRequest {
        ExplainRequest::new(["state"]).with_optimizations(Optimizations::none())
    }

    fn streaming() -> StreamingExplainer {
        StreamingExplainer::new(request(), schema(), AggQuery::sum("t", "v")).unwrap()
    }

    #[test]
    fn incremental_matches_batch_on_replay() {
        // Batch over everything at once…
        let mut batch = streaming();
        batch.append_rows(rows_for(0..21)).unwrap();
        let full = batch.refresh().unwrap();

        // …vs. streaming in two chunks.
        let mut s = streaming();
        s.append_rows(rows_for(0..12)).unwrap();
        let first = s.refresh().unwrap();
        assert!(first.stats.n_points == 12);
        s.append_rows(rows_for(12..21)).unwrap();
        let second = s.refresh().unwrap();

        assert_eq!(second.stats.n_points, 21);
        assert_eq!(
            second.segmentation.cuts(),
            full.segmentation.cuts(),
            "replayed stream should find the same cuts"
        );
    }

    #[test]
    fn refresh_restricts_candidates_after_first_run() {
        let mut s = streaming();
        s.append_rows(rows_for(0..15)).unwrap();
        let first = s.refresh().unwrap();
        assert_eq!(first.stats.candidate_positions, 15);
        s.append_rows(rows_for(15..20)).unwrap();
        let second = s.refresh().unwrap();
        // Candidates: endpoints + previous cuts + the 5 new points.
        assert!(
            second.stats.candidate_positions < 20,
            "got {}",
            second.stats.candidate_positions
        );
    }

    #[test]
    fn reset_cache_forces_full_rerun() {
        let mut s = streaming();
        s.append_rows(rows_for(0..15)).unwrap();
        let _ = s.refresh().unwrap();
        s.append_rows(rows_for(15..20)).unwrap();
        s.reset_cache();
        let full = s.refresh().unwrap();
        assert_eq!(full.stats.candidate_positions, 20);
    }

    #[test]
    fn refreshes_reuse_the_session_cube() {
        let mut s = streaming();
        s.append_rows(rows_for(0..12)).unwrap();
        s.refresh().unwrap();
        s.append_rows(rows_for(12..16)).unwrap();
        s.refresh().unwrap();
        s.append_rows(rows_for(16..21)).unwrap();
        s.refresh().unwrap();
        let stats = s.stats();
        assert_eq!(stats.cubes_built, 1, "one cube across all refreshes");
        assert_eq!(stats.cube_refreshes, 2, "tail appends refresh, not rebuild");
        assert_eq!(stats.rebuilds, 0);
    }

    #[test]
    fn quiet_refresh_returns_cached_result() {
        let mut s = streaming();
        s.append_rows(rows_for(0..10)).unwrap();
        let first = s.refresh().unwrap();
        let again = s.refresh().unwrap();
        assert_eq!(first.segmentation, again.segmentation);
        let stats = s.stats();
        // One real request; the second refresh never touched the session.
        assert_eq!(stats.requests, 1);
    }

    #[test]
    fn seeded_history_constructor() {
        let mut b = Relation::builder(schema());
        for row in rows_for(0..12) {
            b.push_row(row).unwrap();
        }
        let mut s =
            StreamingExplainer::with_history(request(), b.finish(), AggQuery::sum("t", "v"))
                .unwrap();
        let first = s.refresh().unwrap();
        assert_eq!(first.stats.n_points, 12);
        s.append_rows(rows_for(12..18)).unwrap();
        assert_eq!(s.refresh().unwrap().stats.n_points, 18);
    }

    #[test]
    fn restated_history_unfreezes_cut_points() {
        // Seed with the *late* phases only, settle cuts, then backfill the
        // early history: the cached cut indices would point at the wrong
        // timestamps on the shifted axis, so the next refresh must run at
        // full resolution.
        let mut b = Relation::builder(schema());
        for row in rows_for(14..21) {
            b.push_row(row).unwrap();
        }
        let mut s =
            StreamingExplainer::with_history(request(), b.finish(), AggQuery::sum("t", "v"))
                .unwrap();
        let first = s.refresh().unwrap();
        assert_eq!(first.stats.n_points, 7);
        s.append_rows(rows_for(0..14)).unwrap();
        assert_eq!(s.stats().rebuilds, 1);
        let full = s.refresh().unwrap();
        assert_eq!(full.stats.n_points, 21);
        assert_eq!(
            full.stats.candidate_positions, 21,
            "backfilled points must be cut candidates again"
        );
        // The result matches a cold batch run over the union.
        let mut batch = streaming();
        batch.append_rows(rows_for(0..21)).unwrap();
        let cold = batch.refresh().unwrap();
        assert_eq!(full.segmentation.cuts(), cold.segmentation.cuts());
    }

    #[test]
    fn windowed_requests_bypass_the_cut_cache() {
        let mut s = streaming();
        s.append_rows(rows_for(0..21)).unwrap();
        let full = s.refresh().unwrap();
        // A windowed request through the trait: served ad hoc at full
        // resolution within the window…
        let windowed = Explainer::explain(
            &mut s,
            &request().with_time_range(11i64, 20i64).with_fixed_k(1),
        )
        .unwrap();
        assert_eq!(windowed.stats.n_points, 10);
        assert_eq!(windowed.stats.candidate_positions, 10);
        assert_eq!(windowed.segments[0].explanations[0].label, "state=CA");
        // …without corrupting the incremental cut state: the next
        // full-horizon refresh (restricted to the previously settled cut
        // candidates) still finds the pre-window cuts. Fixed K, because
        // the elbow is undefined over so few candidate positions.
        let again = Explainer::explain(&mut s, &request().with_fixed_k(2)).unwrap();
        assert_eq!(again.stats.n_points, 21);
        assert_eq!(again.segmentation.cuts(), full.segmentation.cuts());
    }

    #[test]
    fn explainer_trait_switches_request() {
        let mut s = streaming();
        s.append_rows(rows_for(0..21)).unwrap();
        let auto = Explainer::explain(&mut s, &request()).unwrap();
        let fixed = Explainer::explain(&mut s, &request().with_fixed_k(2)).unwrap();
        assert_eq!(fixed.chosen_k, 2);
        assert!(auto.chosen_k >= 1);
        // Both requests share one cube (same cube-relevant knobs).
        assert_eq!(s.stats().cubes_built, 1);
    }
}
