//! Time-major pre-decoded value storage — the columnar half of the cube.
//!
//! The cube's source of truth is the per-explanation [`AggState`] series
//! (`series[e][t]`): explanation-major, one heap allocation per candidate,
//! and an [`AggState::value`] enum dispatch on every read. That layout is
//! right for *maintenance* (appends touch one candidate at a time, and
//! semantics like `remove` on AVG need the full state), but exactly wrong
//! for the scoring hot loop, which scans γ(E, seg) across **all**
//! candidates at two fixed timestamps.
//!
//! [`ValueMatrix`] is the scan-friendly dual: one contiguous `f64` row per
//! timestamp holding every candidate's already-decoded aggregate value,
//! plus the decoded overall series. A batched scorer reads two rows
//! linearly — cache-friendly, branch-free, vectorizable — instead of
//! striding across ε allocations with a per-access `match`.
//!
//! Decoding is a pure function of the state and the aggregate function, so
//! a pre-decoded value is bit-identical to decoding on the fly; every
//! consumer switching from `state(e, t).value(agg)` to `row(t)[e]` keeps
//! byte-identical results by construction.

use tsexplain_relation::{AggFn, AggState};

/// Time-major matrix of pre-decoded aggregate values: `row(t)[e]` is
/// explanation `e`'s value at time index `t`, `totals()[t]` the overall
/// series (see module docs).
#[derive(Clone, Debug, Default)]
pub struct ValueMatrix {
    n_rows: usize,
    n_cols: usize,
    /// Row-major: `data[t * n_cols + e]`.
    data: Vec<f64>,
    totals: Vec<f64>,
}

impl ValueMatrix {
    /// Decodes `total` and `series` (explanation-major) into a time-major
    /// matrix under `agg`. One pass per candidate; done once at cube build.
    pub fn build(agg: AggFn, total: &[AggState], series: &[Vec<AggState>]) -> Self {
        let n_rows = total.len();
        let n_cols = series.len();
        let mut data = vec![0.0; n_rows * n_cols];
        for (e, s) in series.iter().enumerate() {
            debug_assert_eq!(s.len(), n_rows, "ragged state series");
            for (t, st) in s.iter().enumerate() {
                data[t * n_cols + e] = st.value(agg);
            }
        }
        let totals = total.iter().map(|st| st.value(agg)).collect();
        ValueMatrix {
            n_rows,
            n_cols,
            data,
            totals,
        }
    }

    /// An empty matrix with no rows over `n_cols` candidates.
    pub fn with_cols(n_cols: usize) -> Self {
        ValueMatrix {
            n_rows: 0,
            n_cols,
            data: Vec::new(),
            totals: Vec::new(),
        }
    }

    /// Reassembles a matrix from its raw parts — the snapshot-load path.
    /// Returns `None` when the dimensions are inconsistent with the data
    /// (a torn or corrupt snapshot must not become an out-of-bounds panic
    /// later).
    pub fn from_parts(
        n_rows: usize,
        n_cols: usize,
        data: Vec<f64>,
        totals: Vec<f64>,
    ) -> Option<Self> {
        if data.len() != n_rows.checked_mul(n_cols)? || totals.len() != n_rows {
            return None;
        }
        Some(ValueMatrix {
            n_rows,
            n_cols,
            data,
            totals,
        })
    }

    /// The full row-major value block (`data[t * n_cols + e]`) — what a
    /// block snapshot writes in one contiguous pass.
    #[inline]
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Number of time points (rows).
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Number of candidates (columns).
    pub fn n_cols(&self) -> usize {
        self.n_cols
    }

    /// The contiguous value row at time index `t` (one entry per
    /// candidate) — what the batched γ scorer scans.
    #[inline]
    pub fn row(&self, t: usize) -> &[f64] {
        &self.data[t * self.n_cols..(t + 1) * self.n_cols]
    }

    /// One pre-decoded value.
    #[inline]
    pub fn get(&self, t: usize, e: usize) -> f64 {
        self.data[t * self.n_cols + e]
    }

    /// The decoded overall value series.
    #[inline]
    pub fn totals(&self) -> &[f64] {
        &self.totals
    }

    /// The overall value at time index `t`.
    #[inline]
    pub fn total(&self, t: usize) -> f64 {
        self.totals[t]
    }

    /// The matrix restricted to rows `lo..=hi` — a pair of contiguous
    /// copies (no re-decoding), used by `ExplanationCube::slice_time`.
    pub fn slice_rows(&self, lo: usize, hi: usize) -> ValueMatrix {
        debug_assert!(lo <= hi && hi < self.n_rows);
        ValueMatrix {
            n_rows: hi - lo + 1,
            n_cols: self.n_cols,
            data: self.data[lo * self.n_cols..(hi + 1) * self.n_cols].to_vec(),
            totals: self.totals[lo..=hi].to_vec(),
        }
    }

    /// Appends one decoded row at the tail (the incremental-append path).
    pub fn push_row(
        &mut self,
        agg: AggFn,
        total: AggState,
        states: impl Iterator<Item = AggState>,
    ) {
        let before = self.data.len();
        self.data.extend(states.map(|st| st.value(agg)));
        debug_assert_eq!(self.data.len() - before, self.n_cols, "row arity");
        self.totals.push(total.value(agg));
        self.n_rows += 1;
    }

    /// Re-decodes row `t` in place from the authoritative states — how an
    /// incremental cube repairs rows whose states changed under an append.
    pub fn redecode_row<'s>(
        &mut self,
        t: usize,
        agg: AggFn,
        total: AggState,
        states: impl Iterator<Item = &'s AggState>,
    ) {
        let row = &mut self.data[t * self.n_cols..(t + 1) * self.n_cols];
        let mut filled = 0;
        for (slot, st) in row.iter_mut().zip(states) {
            *slot = st.value(agg);
            filled += 1;
        }
        debug_assert_eq!(filled, self.n_cols, "row arity");
        self.totals[t] = total.value(agg);
    }

    /// Approximate heap + inline footprint in bytes (same contract as
    /// the `mem` module: deterministic, monotone in rows × columns).
    pub fn approx_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.data.len() * std::mem::size_of::<f64>()
            + self.totals.len() * std::mem::size_of::<f64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn state(v: f64) -> AggState {
        AggState::of(v)
    }

    fn sample() -> (Vec<AggState>, Vec<Vec<AggState>>) {
        let total = vec![state(6.0), state(9.0), state(6.0)];
        let series = vec![
            vec![state(3.0), state(4.0), AggState::ZERO],
            vec![AggState::ZERO, state(5.0), state(6.0)],
        ];
        (total, series)
    }

    #[test]
    fn build_decodes_time_major() {
        let (total, series) = sample();
        let m = ValueMatrix::build(AggFn::Sum, &total, &series);
        assert_eq!(m.n_rows(), 3);
        assert_eq!(m.n_cols(), 2);
        assert_eq!(m.row(0), &[3.0, 0.0]);
        assert_eq!(m.row(1), &[4.0, 5.0]);
        assert_eq!(m.row(2), &[0.0, 6.0]);
        assert_eq!(m.totals(), &[6.0, 9.0, 6.0]);
        assert_eq!(m.get(1, 1), 5.0);
        assert_eq!(m.total(2), 6.0);
    }

    #[test]
    fn decode_matches_state_value_for_every_agg() {
        let (total, series) = sample();
        for agg in AggFn::ALL {
            let m = ValueMatrix::build(agg, &total, &series);
            for (e, s) in series.iter().enumerate() {
                for (t, st) in s.iter().enumerate() {
                    assert_eq!(m.get(t, e).to_bits(), st.value(agg).to_bits());
                }
            }
        }
    }

    #[test]
    fn slice_rows_is_a_contiguous_copy() {
        let (total, series) = sample();
        let m = ValueMatrix::build(AggFn::Sum, &total, &series);
        let s = m.slice_rows(1, 2);
        assert_eq!(s.n_rows(), 2);
        assert_eq!(s.row(0), m.row(1));
        assert_eq!(s.row(1), m.row(2));
        assert_eq!(s.totals(), &m.totals()[1..=2]);
    }

    #[test]
    fn push_and_redecode_match_batch_build() {
        let (total, series) = sample();
        let batch = ValueMatrix::build(AggFn::Avg, &total, &series);
        let mut inc = ValueMatrix::with_cols(2);
        for t in 0..3 {
            inc.push_row(AggFn::Avg, total[t], series.iter().map(|s| s[t]));
        }
        assert_eq!(inc.row(1), batch.row(1));
        assert_eq!(inc.totals(), batch.totals());
        // Corrupt then repair a row.
        inc.redecode_row(0, AggFn::Avg, total[0], series.iter().map(|s| &s[0]));
        assert_eq!(inc.row(0), batch.row(0));
    }

    #[test]
    fn approx_bytes_monotone() {
        let (total, series) = sample();
        let m = ValueMatrix::build(AggFn::Sum, &total, &series);
        let s = m.slice_rows(0, 1);
        assert!(s.approx_bytes() < m.approx_bytes());
        assert!(m.approx_bytes() > 0);
    }
}
