//! Time-major aggregate-state storage: the cube's one copy of its data.
//!
//! A cube's states live in one [`StateStore`]: three `f64` planes (count,
//! sum and sumsq of [`AggState`]), each holding one row per timestamp with
//! one slot per candidate column (`plane[t * n_cols + col]`), plus the
//! overall state series. An incremental cube holds its store behind an
//! `Arc`, and every snapshot taken since its last append shares that `Arc`;
//! smoothing and time slicing build stores of their own.
//!
//! The scoring hot loop scans γ(E, seg) across all candidates at two fixed
//! timestamps, so it reads decoded values one contiguous row at a time
//! ([`ValueMatrix`]). SUM and COUNT decode to the state's own sum or count,
//! so that plane *is* the value plane and nothing is decoded. AVG and
//! VARIANCE keep one decoded plane beside the states, redecoded row by row
//! as appends change them. Decoding is a pure function of the state, so a
//! pre-decoded value is bit-identical to [`AggState::value`] on the fly.
//!
//! A fold adds each observation to its cell with the arithmetic of
//! [`AggState::observe`], so a cell that receives its rows in row order
//! holds bit for bit the state a per-explanation series would.

use std::ops::Range;

use tsexplain_relation::{AggFn, AggState};

/// A borrowed time-major plane of decoded values: `row(t)[e]` is
/// explanation `e`'s value at time index `t`, `totals()[t]` the overall
/// series (see module docs).
#[derive(Clone, Copy, Debug)]
pub struct ValueMatrix<'a> {
    n_cols: usize,
    /// Row-major: `data[t * n_cols + e]`.
    data: &'a [f64],
    totals: &'a [f64],
}

impl<'a> ValueMatrix<'a> {
    pub(crate) fn new(n_cols: usize, data: &'a [f64], totals: &'a [f64]) -> Self {
        debug_assert_eq!(data.len(), n_cols * totals.len(), "plane shape");
        ValueMatrix {
            n_cols,
            data,
            totals,
        }
    }

    /// Number of time points (rows).
    pub fn n_rows(&self) -> usize {
        self.totals.len()
    }

    /// Number of candidates (columns).
    pub fn n_cols(&self) -> usize {
        self.n_cols
    }

    /// The contiguous value row at time index `t` (one entry per
    /// candidate): what the batched γ scorer scans.
    #[inline]
    pub fn row(&self, t: usize) -> &'a [f64] {
        &self.data[t * self.n_cols..(t + 1) * self.n_cols]
    }

    /// One pre-decoded value.
    #[inline]
    pub fn get(&self, t: usize, e: usize) -> f64 {
        self.data[t * self.n_cols + e]
    }

    /// The decoded overall value series.
    #[inline]
    pub fn totals(&self) -> &'a [f64] {
        self.totals
    }

    /// The overall value at time index `t`.
    #[inline]
    pub fn total(&self, t: usize) -> f64 {
        self.totals[t]
    }
}

/// The time-major state planes of a cube (see module docs).
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct StateStore {
    agg: AggFn,
    n_rows: usize,
    n_cols: usize,
    count: Vec<f64>,
    sum: Vec<f64>,
    sumsq: Vec<f64>,
    /// AVG and VARIANCE: the decoded values, laid out like the state
    /// planes. Empty for SUM and COUNT, whose value plane is `sum` or
    /// `count`.
    decoded: Vec<f64>,
    total: Vec<AggState>,
    /// The decoded overall series.
    totals: Vec<f64>,
}

/// Whether `agg` needs a decoded plane of its own (module docs).
fn decodes(agg: AggFn) -> bool {
    matches!(agg, AggFn::Avg | AggFn::Variance)
}

/// How far a centered moving average of `window` points reaches on each
/// side: smoothed row `t` averages raw rows `t − half ..= t + half`,
/// clamped to the series.
fn half_window(window: usize) -> usize {
    window / 2
}

/// The first row of a `window`-point smoothed series (a window of 1 is
/// the raw series) that can change when raw rows from `row` on change or
/// are appended. Smoothed row `t` reads raw rows up to `t + half`, and a
/// row appended at the end widens the clamped windows that reach it, so
/// every row from `row − half` on may move and every row before it keeps
/// its value bit for bit.
pub fn smoothed_reach(row: usize, window: usize) -> usize {
    row.saturating_sub(half_window(window))
}

/// Appends rows `rows` of columns `cols` of an `n_cols`-wide time-major
/// `plane` to `out`, row by row.
fn gather_into(out: &mut Vec<f64>, plane: &[f64], n_cols: usize, rows: Range<usize>, cols: &[u32]) {
    for t in rows {
        let row = &plane[t * n_cols..(t + 1) * n_cols];
        out.extend(cols.iter().map(|&c| row[c as usize]));
    }
}

impl StateStore {
    /// A store of `n_rows` empty rows over `n_cols` columns.
    pub(crate) fn zeroed(agg: AggFn, n_rows: usize, n_cols: usize) -> Self {
        let cells = n_rows * n_cols;
        StateStore {
            agg,
            n_rows,
            n_cols,
            count: vec![0.0; cells],
            sum: vec![0.0; cells],
            sumsq: vec![0.0; cells],
            decoded: if decodes(agg) {
                vec![0.0; cells]
            } else {
                Vec::new()
            },
            total: vec![AggState::ZERO; n_rows],
            totals: vec![0.0; n_rows],
        }
    }

    /// The aggregate function the values decode under.
    pub(crate) fn agg(&self) -> AggFn {
        self.agg
    }

    /// Number of time points (rows).
    pub(crate) fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Number of candidate columns.
    pub(crate) fn n_cols(&self) -> usize {
        self.n_cols
    }

    /// Column `col`'s state at time index `t`.
    #[inline]
    pub(crate) fn state(&self, t: usize, col: usize) -> AggState {
        let i = t * self.n_cols + col;
        AggState {
            count: self.count[i],
            sum: self.sum[i],
            sumsq: self.sumsq[i],
        }
    }

    /// The overall state series.
    pub(crate) fn total_states(&self) -> &[AggState] {
        &self.total
    }

    /// The count plane, time-major: what redundancy pruning sums.
    pub(crate) fn counts(&self) -> &[f64] {
        &self.count
    }

    /// The value plane over every column.
    pub(crate) fn values(&self) -> ValueMatrix<'_> {
        let data = match self.agg {
            AggFn::Sum => &self.sum,
            AggFn::Count => &self.count,
            AggFn::Avg | AggFn::Variance => &self.decoded,
        };
        ValueMatrix::new(self.n_cols, data, &self.totals)
    }

    /// Folds one observation into column `col` at time index `t`.
    #[inline]
    pub(crate) fn observe(&mut self, t: usize, col: usize, v: f64) {
        let i = t * self.n_cols + col;
        self.count[i] += 1.0;
        self.sum[i] += v;
        self.sumsq[i] += v * v;
    }

    /// Folds one observation into the overall state at time index `t`.
    pub(crate) fn observe_total(&mut self, t: usize, v: f64) {
        self.total[t].observe(v);
    }

    /// Splits the state planes into one [`RowSlab`] per entry of `starts`
    /// (ascending time indices, the first 0): slab `k` owns rows
    /// `starts[k]..starts[k + 1]` (the last one up to `n_rows`) of every
    /// plane, so workers can fold disjoint rows at once.
    pub(crate) fn row_slabs(&mut self, starts: &[usize]) -> Vec<RowSlab<'_>> {
        let (n_rows, n_cols) = (self.n_rows, self.n_cols);
        let (mut count, mut sum, mut sumsq) = (
            self.count.as_mut_slice(),
            self.sum.as_mut_slice(),
            self.sumsq.as_mut_slice(),
        );
        let mut slabs = Vec::with_capacity(starts.len());
        for (k, &lo) in starts.iter().enumerate() {
            let hi = starts.get(k + 1).copied().unwrap_or(n_rows);
            let cells = (hi - lo) * n_cols;
            let (c, rest_c) = std::mem::take(&mut count).split_at_mut(cells);
            let (s, rest_s) = std::mem::take(&mut sum).split_at_mut(cells);
            let (q, rest_q) = std::mem::take(&mut sumsq).split_at_mut(cells);
            (count, sum, sumsq) = (rest_c, rest_s, rest_q);
            slabs.push(RowSlab {
                rows: lo..hi,
                n_cols,
                count: c,
                sum: s,
                sumsq: q,
            });
        }
        slabs
    }

    /// Grows the store to `n_rows` × `n_cols`, keeping every state at its
    /// (row, column) and filling the new cells with empty states. Widening
    /// re-lays every row out; adding rows extends the planes.
    pub(crate) fn grow(&mut self, n_rows: usize, n_cols: usize) {
        debug_assert!(n_rows >= self.n_rows && n_cols >= self.n_cols);
        if n_cols > self.n_cols {
            let (old, rows) = (self.n_cols, self.n_rows);
            let widen = |plane: &mut Vec<f64>| {
                let mut wide = vec![0.0; rows * n_cols];
                if old > 0 {
                    for (dst, src) in wide.chunks_mut(n_cols).zip(plane.chunks(old)) {
                        dst[..old].copy_from_slice(src);
                    }
                }
                *plane = wide;
            };
            widen(&mut self.count);
            widen(&mut self.sum);
            widen(&mut self.sumsq);
            if decodes(self.agg) {
                widen(&mut self.decoded);
            }
            self.n_cols = n_cols;
        }
        if n_rows > self.n_rows {
            let cells = n_rows * self.n_cols;
            self.count.resize(cells, 0.0);
            self.sum.resize(cells, 0.0);
            self.sumsq.resize(cells, 0.0);
            if decodes(self.agg) {
                self.decoded.resize(cells, 0.0);
            }
            self.total.resize(n_rows, AggState::ZERO);
            self.totals.resize(n_rows, 0.0);
            self.n_rows = n_rows;
        }
    }

    /// Redecodes the values of rows `rows` from their states: how the store
    /// catches up after folding observations into them.
    pub(crate) fn redecode_rows(&mut self, rows: impl IntoIterator<Item = usize>) {
        let (agg, n_cols) = (self.agg, self.n_cols);
        for t in rows {
            self.totals[t] = self.total[t].value(agg);
            if decodes(agg) {
                let span = t * n_cols..(t + 1) * n_cols;
                for (i, slot) in span.clone().zip(&mut self.decoded[span]) {
                    let state = AggState {
                        count: self.count[i],
                        sum: self.sum[i],
                        sumsq: self.sumsq[i],
                    };
                    *slot = state.value(agg);
                }
            }
        }
    }

    /// Decodes every row (after a seed or a smoothing pass filled the states).
    pub(crate) fn decode(&mut self) {
        self.redecode_rows(0..self.n_rows);
    }

    /// The value rows of columns `cols`, time-major: `out[t * cols.len() +
    /// j]` is column `cols[j]`'s value at `t`. Gathered row by row.
    pub(crate) fn gather_values(&self, cols: &[u32]) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.n_rows * cols.len());
        gather_into(
            &mut out,
            self.values().data,
            self.n_cols,
            0..self.n_rows,
            cols,
        );
        out
    }

    /// A new store holding rows `rows` of columns `cols` (column `j` of the
    /// result is column `cols[j]` here): what a time slice keeps.
    pub(crate) fn gather(&self, rows: Range<usize>, cols: &[u32]) -> StateStore {
        let pick = |plane: &[f64]| -> Vec<f64> {
            let mut out = Vec::with_capacity(rows.len() * cols.len());
            gather_into(&mut out, plane, self.n_cols, rows.clone(), cols);
            out
        };
        StateStore {
            agg: self.agg,
            n_rows: rows.len(),
            n_cols: cols.len(),
            count: pick(&self.count),
            sum: pick(&self.sum),
            sumsq: pick(&self.sumsq),
            decoded: if decodes(self.agg) {
                pick(&self.decoded)
            } else {
                Vec::new()
            },
            total: self.total[rows.clone()].to_vec(),
            totals: self.totals[rows].to_vec(),
        }
    }

    /// A new store over columns `cols` whose every state is the centered
    /// moving average of `window` points (clamped at the boundaries): each
    /// cell sums its window's states in time order from an empty state,
    /// then divides each field by the window length. Each plane's columns
    /// are gathered once into one reused buffer, so the window sums run
    /// over contiguous rows.
    pub(crate) fn smoothed(&self, cols: &[u32], window: usize) -> StateStore {
        let (n, width) = (self.n_rows, cols.len());
        let half = half_window(window);
        let bounds = |t: usize| (t.saturating_sub(half), (t + half).min(n - 1));
        let mut out = StateStore::zeroed(self.agg, n, width);
        if width > 0 {
            let mut src = Vec::with_capacity(n * width);
            for (plane, dst) in [
                (&self.count, &mut out.count),
                (&self.sum, &mut out.sum),
                (&self.sumsq, &mut out.sumsq),
            ] {
                src.clear();
                gather_into(&mut src, plane, self.n_cols, 0..n, cols);
                for (t, dst) in dst.chunks_mut(width).enumerate() {
                    let (lo, hi) = bounds(t);
                    for row in src[lo * width..(hi + 1) * width].chunks(width) {
                        for (acc, &x) in dst.iter_mut().zip(row) {
                            *acc += x;
                        }
                    }
                    let k = (hi - lo + 1) as f64;
                    for acc in dst.iter_mut() {
                        *acc /= k;
                    }
                }
            }
        }
        for (t, total) in out.total.iter_mut().enumerate() {
            let (lo, hi) = bounds(t);
            let mut acc = AggState::ZERO;
            for x in &self.total[lo..=hi] {
                acc += *x;
            }
            let k = (hi - lo + 1) as f64;
            *total = AggState {
                count: acc.count / k,
                sum: acc.sum / k,
                sumsq: acc.sumsq / k,
            };
        }
        out.decode();
        out
    }

    /// Approximate heap + inline footprint in bytes (same contract as the
    /// `mem` module: deterministic, monotone in rows × columns).
    pub(crate) fn approx_bytes(&self) -> usize {
        use std::mem::size_of;
        size_of::<Self>()
            + (self.count.len() + self.sum.len() + self.sumsq.len() + self.decoded.len())
                * size_of::<f64>()
            + crate::mem::state_series_bytes(&self.total)
            + self.totals.len() * size_of::<f64>()
    }
}

/// One worker's share of a parallel fold: rows `rows` of the three state
/// planes, contiguous (see [`StateStore::row_slabs`]).
pub(crate) struct RowSlab<'a> {
    rows: Range<usize>,
    n_cols: usize,
    count: &'a mut [f64],
    sum: &'a mut [f64],
    sumsq: &'a mut [f64],
}

impl RowSlab<'_> {
    /// The time indices this slab owns.
    pub(crate) fn rows(&self) -> Range<usize> {
        self.rows.clone()
    }

    /// Folds one observation into column `col` at time index `t` (one of
    /// the slab's rows), as [`StateStore::observe`] does.
    #[inline]
    pub(crate) fn observe(&mut self, t: usize, col: usize, v: f64) {
        let i = (t - self.rows.start) * self.n_cols + col;
        self.count[i] += 1.0;
        self.sum[i] += v;
        self.sumsq[i] += v * v;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Observations `(t, col, v)` over two columns and three points:
    /// column 0 sees 3.0 and 4.0, column 1 sees 5.0, 6.0 and 1.0.
    const SAMPLE: [(usize, usize, f64); 5] = [
        (0, 0, 3.0),
        (1, 0, 4.0),
        (1, 1, 5.0),
        (2, 1, 6.0),
        (2, 1, 1.0),
    ];

    fn sample(agg: AggFn) -> StateStore {
        let mut store = StateStore::zeroed(agg, 3, 2);
        for (t, col, v) in SAMPLE {
            store.observe(t, col, v);
            store.observe_total(t, v);
        }
        store.decode();
        store
    }

    #[test]
    fn build_decodes_time_major() {
        let store = sample(AggFn::Sum);
        let m = store.values();
        assert_eq!(m.n_rows(), 3);
        assert_eq!(m.n_cols(), 2);
        assert_eq!(m.row(0), &[3.0, 0.0]);
        assert_eq!(m.row(1), &[4.0, 5.0]);
        assert_eq!(m.row(2), &[0.0, 7.0]);
        assert_eq!(m.totals(), &[3.0, 9.0, 7.0]);
        assert_eq!(m.get(1, 1), 5.0);
        assert_eq!(m.total(2), 7.0);
        assert_eq!(sample(AggFn::Count).values().row(2), &[0.0, 2.0]);
    }

    #[test]
    fn decode_matches_state_value_for_every_agg() {
        for agg in AggFn::ALL {
            let store = sample(agg);
            let m = store.values();
            for t in 0..3 {
                for col in 0..2 {
                    let state = store.state(t, col);
                    assert_eq!(m.get(t, col).to_bits(), state.value(agg).to_bits());
                }
                assert_eq!(
                    m.total(t).to_bits(),
                    store.total_states()[t].value(agg).to_bits()
                );
            }
        }
    }

    #[test]
    fn slice_rows_is_a_contiguous_copy() {
        for agg in AggFn::ALL {
            let store = sample(agg);
            let s = store.gather(1..3, &[0, 1]);
            assert_eq!(s.n_rows(), 2);
            assert_eq!(s.values().row(0), store.values().row(1));
            assert_eq!(s.values().row(1), store.values().row(2));
            assert_eq!(s.values().totals(), &store.values().totals()[1..=2]);
            assert_eq!(s.state(1, 1), store.state(2, 1));
            // Columns are picked in the order asked for.
            let swapped = store.gather(0..3, &[1, 0]);
            assert_eq!(swapped.state(2, 0), store.state(2, 1));
            assert_eq!(
                store.gather_values(&[1]),
                vec![0.0, store.values().get(1, 1), store.values().get(2, 1)]
            );
        }
    }

    #[test]
    fn push_and_redecode_match_batch_build() {
        // Grown one observation at a time, rows and columns appearing as
        // they are first needed, the store equals one built at full size.
        for agg in AggFn::ALL {
            let full = sample(agg);
            let mut grown = StateStore::zeroed(agg, 0, 0);
            for (t, col, v) in SAMPLE {
                grown.grow(grown.n_rows().max(t + 1), grown.n_cols().max(col + 1));
                grown.observe(t, col, v);
                grown.observe_total(t, v);
                grown.redecode_rows([t]);
            }
            assert_eq!(grown, full);
        }
    }

    #[test]
    fn row_slabs_fold_like_the_store() {
        for agg in AggFn::ALL {
            let full = sample(agg);
            for starts in [&[][..], &[0], &[0, 1], &[0, 0, 2]] {
                let mut store = StateStore::zeroed(agg, 3, 2);
                let mut slabs = store.row_slabs(starts);
                for (t, col, v) in SAMPLE {
                    if let Some(slab) = slabs.iter_mut().find(|s| s.rows().contains(&t)) {
                        slab.observe(t, col, v);
                    }
                }
                for (t, _, v) in SAMPLE {
                    store.observe_total(t, v);
                }
                store.decode();
                // No slab, no fold; otherwise the slabs cover every row.
                assert_eq!(store == full, !starts.is_empty(), "{starts:?}");
            }
        }
    }

    #[test]
    fn smoothing_averages_each_window_in_time_order() {
        let store = sample(AggFn::Sum);
        let s = store.smoothed(&[1], 3);
        assert_eq!(s.n_cols(), 1);
        // Point 1 averages all three points of column 1: (0 + 5 + 7) / 3.
        assert_eq!(s.values().get(1, 0), (0.0 + 5.0 + 7.0) / 3.0);
        assert_eq!(s.values().get(0, 0), (0.0 + 5.0) / 2.0);
        assert_eq!(s.values().total(2), (9.0 + 7.0) / 2.0);
    }

    #[test]
    fn approx_bytes_monotone() {
        let store = sample(AggFn::Sum);
        let s = store.gather(0..2, &[0, 1]);
        assert!(s.approx_bytes() < store.approx_bytes());
        assert!(store.approx_bytes() > 0);
        // AVG carries a decoded plane that SUM reads off its sum plane.
        assert!(sample(AggFn::Avg).approx_bytes() > store.approx_bytes());
    }
}
