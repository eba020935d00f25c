use tsexplain_parallel::ParallelCtx;

use crate::cost::CostMatrix;
use crate::error::SegmentError;

/// Below this many cells per K-layer the DP recurrence runs inline.
const PAR_MIN_LAYER_CELLS: usize = 64;

/// The output of the K-Segmentation dynamic program (Eq. 11): optimal total
/// costs `D(n, k)` and back-pointers for every `k` up to the cap, computed
/// in a single pass.
///
/// The paper's optimal-K selection (§6) relies on exactly this: computing
/// `D(n, K = 20)` yields `D(n, k)` for every smaller `k` at no extra cost,
/// which is the K-Variance curve the elbow method inspects.
#[derive(Clone, Debug)]
pub struct DpResult {
    n_pos: usize,
    k_max: usize,
    /// `d[k * n_pos + j]` = minimal total cost of splitting positions
    /// `0..=j` into `k` segments, stored layer by layer. Only the cells a
    /// path to the last position can use are computed (see
    /// [`k_segmentation_with`]); every other cell reads `+∞`.
    d: Vec<f64>,
    /// `prev[k * n_pos + j]`: the previous boundary position index of that
    /// optimum (`u32::MAX` where there is none).
    prev: Vec<u32>,
}

impl DpResult {
    /// Number of candidate positions.
    pub fn n_pos(&self) -> usize {
        self.n_pos
    }

    /// The largest K computed.
    pub fn k_max(&self) -> usize {
        self.k_max
    }

    /// The optimal total cost `D(n, k)`; `+∞` when no valid scheme exists.
    pub fn total_cost(&self, k: usize) -> f64 {
        assert!(k >= 1 && k <= self.k_max, "k out of range");
        self.d[k * self.n_pos + self.n_pos - 1]
    }

    /// The K-Variance curve `[(k, D(n, k))]` over all feasible `k`.
    pub fn k_variance_curve(&self) -> Vec<(usize, f64)> {
        (1..=self.k_max)
            .map(|k| (k, self.total_cost(k)))
            .filter(|(_, c)| c.is_finite())
            .collect()
    }

    /// The largest `k` with a finite optimal cost.
    pub fn feasible_k_max(&self) -> usize {
        (1..=self.k_max)
            .rev()
            .find(|&k| self.total_cost(k).is_finite())
            .unwrap_or(0)
    }

    /// The interior cut *position indices* of the optimal `k`-segmentation.
    pub fn cuts(&self, k: usize) -> Result<Vec<usize>, SegmentError> {
        if k < 1 || k > self.k_max || !self.total_cost(k).is_finite() {
            return Err(SegmentError::InfeasibleK {
                k,
                positions: self.n_pos,
            });
        }
        let mut cuts = Vec::with_capacity(k - 1);
        let mut j = self.n_pos - 1;
        for kk in (2..=k).rev() {
            j = self.prev[kk * self.n_pos + j] as usize;
            cuts.push(j);
        }
        cuts.reverse();
        Ok(cuts)
    }
}

/// Solves K-Segmentation over a cost matrix for all `k ∈ 1..=k_max`
/// (Eq. 11):
///
/// ```text
/// D(j, k) = min_{j'} [ D(j', k−1) + cost(j', j) ]
/// ```
///
/// Positions are the matrix's candidate cut positions; every segment spans
/// at least one position step. When the matrix is banded, transitions are
/// restricted to the band, giving the `O(L · n · K)` sketch-phase bound.
///
/// Runs sequentially; [`k_segmentation_with`] fans each K-layer's rows
/// across a [`ParallelCtx`] and is byte-identical by construction.
pub fn k_segmentation(costs: &CostMatrix, k_max: usize) -> DpResult {
    k_segmentation_with(costs, k_max, &ParallelCtx::sequential())
}

/// [`k_segmentation`] with an explicit parallel context.
///
/// The recurrence is layer-sequential in `k`, but within one layer every
/// cell `D(j, k)` reads only layer `k − 1`, so the cells of a layer are
/// mutually independent: each worker writes its own run of them in place.
/// Each cell's inner minimization scans its predecessors in ascending order
/// with a strict `<` (first-minimum tie-breaking), so the resulting costs
/// *and* back-pointers are byte-identical at any thread count.
///
/// A cell reads layer `k − 1` and the costs of the segments ending at `j`
/// as two contiguous slices. Layer `k` computes only the positions `j` in
/// `max(k, (n−1) − (k_max − k)·band) ..= min(n − 1, k·band)`, where a dense
/// matrix has `band = n − 1`. From position 0, `k` segments reach at least
/// `k` and at most `k·band`; from `j`, the at most `k_max − k` segments
/// left reach the last position only if it lies within `(k_max − k)·band`.
/// No other cell lies on a path to `(n − 1, k′)` for any `k′ ≤ k_max`, so
/// every total, curve point and cut equals the full table's.
pub fn k_segmentation_with(costs: &CostMatrix, k_max: usize, par: &ParallelCtx) -> DpResult {
    let n_pos = costs.n_pos();
    assert!(n_pos >= 2, "need at least two positions");
    let k_max = k_max.max(1).min(n_pos - 1);
    let last = n_pos - 1;
    let band = costs.band().unwrap_or(last);
    // The positions of layer k some path can use (empty when the band
    // cannot reach the last position in k_max segments).
    let reach = |k: usize| {
        let lo = k.max(last.saturating_sub((k_max - k) * band));
        lo..(last.min(k * band) + 1).max(lo)
    };
    let mut d = vec![f64::INFINITY; (k_max + 1) * n_pos];
    let mut prev = vec![u32::MAX; (k_max + 1) * n_pos];

    for j in reach(1) {
        d[n_pos + j] = costs.get(0, j);
    }
    // A layer below the cutoff runs as one inline chunk.
    let inline = ParallelCtx::sequential();
    for k in 2..=k_max {
        // Layer-boundary cancellation poll: the caller (DpSegmenter)
        // re-checks the token after the solve and discards this partial
        // table, so truncated layers never reach a successful response.
        if par.is_cancelled() {
            break;
        }
        let (from, cells) = (reach(k - 1), reach(k));
        let (done, rest) = d.split_at_mut(k * n_pos);
        let below = &done[(k - 1) * n_pos..];
        let cell = |j: usize| -> (f64, u32) {
            let col = costs.column(j);
            let first = j - col.len();
            let lo = first.max(from.start);
            let hi = j.min(from.end).max(lo);
            let mut best = f64::INFINITY;
            let mut arg = u32::MAX;
            let pairs = below[lo..hi].iter().zip(&col[lo - first..hi - first]);
            for (jp, (&left, &cost)) in (lo..hi).zip(pairs) {
                if !left.is_finite() {
                    continue;
                }
                let cand = left + cost;
                if cand < best {
                    best = cand;
                    arg = jp as u32;
                }
            }
            (best, arg)
        };
        let layer_par = if cells.len() < PAR_MIN_LAYER_CELLS {
            &inline
        } else {
            par
        };
        let mut d_rest = &mut rest[cells.clone()];
        let mut p_rest = &mut prev[k * n_pos..][cells.clone()];
        let mut parts = Vec::new();
        for range in layer_par.chunk_ranges(cells.len()) {
            let (d_part, d_tail) = std::mem::take(&mut d_rest).split_at_mut(range.len());
            let (p_part, p_tail) = std::mem::take(&mut p_rest).split_at_mut(range.len());
            parts.push((cells.start + range.start, d_part, p_part));
            (d_rest, p_rest) = (d_tail, p_tail);
        }
        layer_par.run_parts(parts, |(j0, d_part, p_part)| {
            for (j, (best, arg)) in (j0..).zip(d_part.iter_mut().zip(p_part)) {
                (*best, *arg) = cell(j);
            }
        });
    }

    DpResult {
        n_pos,
        k_max,
        d,
        prev,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The recurrence the layer-major kernel replaced, kept as the
    /// reference it is pinned to: a position-major table
    /// (`d[j * (k_max + 1) + k]`), every cell of every layer, each
    /// predecessor read through `CostMatrix::get`.
    struct Reference {
        n_pos: usize,
        k_max: usize,
        d: Vec<f64>,
        prev: Vec<u32>,
    }

    impl Reference {
        fn solve(costs: &CostMatrix, k_max: usize, par: &ParallelCtx) -> Self {
            let n_pos = costs.n_pos();
            let k_max = k_max.max(1).min(n_pos - 1);
            let stride = k_max + 1;
            let mut d = vec![f64::INFINITY; n_pos * stride];
            let mut prev = vec![u32::MAX; n_pos * stride];
            for j in 1..n_pos {
                d[j * stride + 1] = costs.get(0, j);
            }
            let inline = ParallelCtx::sequential();
            for k in 2..=k_max {
                let cell = |j: usize, d: &[f64]| -> (f64, u32) {
                    let lo = match costs.band() {
                        Some(band) => j.saturating_sub(band).max(k - 1),
                        None => k - 1,
                    };
                    let mut best = f64::INFINITY;
                    let mut arg = u32::MAX;
                    for jp in lo..j {
                        let left = d[jp * stride + (k - 1)];
                        if !left.is_finite() {
                            continue;
                        }
                        let cand = left + costs.get(jp, j);
                        if cand < best {
                            best = cand;
                            arg = jp as u32;
                        }
                    }
                    (best, arg)
                };
                let n_cells = n_pos - k;
                let layer_par = if n_cells < PAR_MIN_LAYER_CELLS {
                    &inline
                } else {
                    par
                };
                let d_read = &d;
                let layer: Vec<(f64, u32)> = layer_par.run_chunks(n_cells, |range| {
                    range.map(|off| cell(k + off, d_read)).collect()
                });
                for (off, (best, arg)) in layer.into_iter().enumerate() {
                    let j = k + off;
                    d[j * stride + k] = best;
                    prev[j * stride + k] = arg;
                }
            }
            Reference {
                n_pos,
                k_max,
                d,
                prev,
            }
        }

        fn total_cost(&self, k: usize) -> f64 {
            self.d[(self.n_pos - 1) * (self.k_max + 1) + k]
        }

        fn k_variance_curve(&self) -> Vec<(usize, f64)> {
            (1..=self.k_max)
                .map(|k| (k, self.total_cost(k)))
                .filter(|(_, c)| c.is_finite())
                .collect()
        }

        fn feasible_k_max(&self) -> usize {
            (1..=self.k_max)
                .rev()
                .find(|&k| self.total_cost(k).is_finite())
                .unwrap_or(0)
        }

        fn cuts(&self, k: usize) -> Option<Vec<usize>> {
            if !self.total_cost(k).is_finite() {
                return None;
            }
            let mut cuts = Vec::with_capacity(k - 1);
            let mut j = self.n_pos - 1;
            for kk in (2..=k).rev() {
                j = self.prev[j * (self.k_max + 1) + kk] as usize;
                cuts.push(j);
            }
            cuts.reverse();
            Some(cuts)
        }
    }

    /// A cost matrix for the reference check: `n` positions, dense or
    /// banded, each cell drawn from four values (so ties occur), `+∞` or
    /// NaN.
    fn drawn_costs(n: usize, band: Option<usize>, draws: &[u8]) -> CostMatrix {
        let mut costs = match band {
            Some(band) => CostMatrix::banded(n, band),
            None => CostMatrix::dense(n),
        };
        let mut draws = draws.iter().cycle();
        for j in 1..n {
            for i in j.saturating_sub(band.unwrap_or(j))..j {
                let value = match draws.next().copied().unwrap_or(0) {
                    0 => 0.0,
                    1 => 0.5,
                    2 => 1.0,
                    3 => 2.5,
                    4 => f64::INFINITY,
                    _ => f64::NAN,
                };
                costs.set(i, j, value);
            }
        }
        costs
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(160))]

        #[test]
        fn layer_major_dp_is_the_position_major_recurrence_bit_for_bit(
            (n, band, k_max) in (2usize..91).prop_flat_map(|n| (Just(n), 1..n, 1..n)),
            banded in 0u8..2,
            draws in proptest::collection::vec(0u8..7, 1..400),
        ) {
            let band = (banded == 1).then_some(band);
            let costs = drawn_costs(n, band, &draws);
            let reference = Reference::solve(&costs, k_max, &ParallelCtx::sequential());
            for threads in [1, 2, 8] {
                let par = ParallelCtx::new(threads);
                let dp = k_segmentation_with(&costs, k_max, &par);
                prop_assert_eq!(dp.k_max(), reference.k_max);
                for k in 1..=dp.k_max() {
                    prop_assert_eq!(
                        dp.total_cost(k).to_bits(),
                        reference.total_cost(k).to_bits(),
                        "n={} band={:?} k_max={} t={} k={}", n, band, k_max, threads, k
                    );
                    prop_assert_eq!(
                        dp.cuts(k).ok(),
                        reference.cuts(k),
                        "n={} band={:?} k_max={} t={} k={}", n, band, k_max, threads, k
                    );
                }
                prop_assert_eq!(dp.feasible_k_max(), reference.feasible_k_max());
                let bits = |curve: Vec<(usize, f64)>| -> Vec<(usize, u64)> {
                    curve.into_iter().map(|(k, c)| (k, c.to_bits())).collect()
                };
                prop_assert_eq!(bits(dp.k_variance_curve()), bits(reference.k_variance_curve()));
            }
        }
    }

    /// Costs from an additive per-point "badness": segment (i, j) costs the
    /// squared distance between a step series' values at i and j, so the
    /// optimal 2-segmentation cuts exactly at the step.
    fn step_costs(values: &[f64]) -> CostMatrix {
        let n = values.len();
        let mut m = CostMatrix::dense(n);
        for i in 0..n {
            for j in i + 1..n {
                // Sum of squared deviations from the segment's linear
                // interpolation: zero for segments inside one flat level.
                let mut cost = 0.0;
                for x in i..=j {
                    let frac = (x - i) as f64 / (j - i) as f64;
                    let interp = values[i] + frac * (values[j] - values[i]);
                    cost += (values[x] - interp).powi(2);
                }
                m.set(i, j, cost);
            }
        }
        m
    }

    #[test]
    fn finds_single_breakpoint() {
        // Flat then linearly rising: the unique zero-cost 2-segmentation
        // cuts exactly at the knee (index 2).
        let values = [0.0, 0.0, 0.0, 10.0, 20.0, 30.0];
        let dp = k_segmentation(&step_costs(&values), 3);
        assert!(dp.total_cost(1) > 0.0);
        assert!(dp.total_cost(2).abs() < 1e-12);
        assert_eq!(dp.cuts(2).unwrap(), vec![2]);
    }

    #[test]
    fn cost_is_monotone_for_length_convex_costs() {
        // With a cost that is convex in segment length, splitting any
        // segment strictly helps, so D(n, k) must decrease with k.
        let n = 9;
        let mut costs = CostMatrix::dense(n);
        for i in 0..n {
            for j in i + 1..n {
                costs.set(i, j, ((j - i - 1) * (j - i - 1)) as f64);
            }
        }
        let dp = k_segmentation(&costs, 6);
        for k in 2..=6 {
            assert!(
                dp.total_cost(k) <= dp.total_cost(k - 1) + 1e-12,
                "k={k}: {} > {}",
                dp.total_cost(k),
                dp.total_cost(k - 1)
            );
        }
    }

    #[test]
    fn max_k_gives_zero_cost() {
        let values = [1.0, 4.0, 2.0, 8.0, 3.0];
        let dp = k_segmentation(&step_costs(&values), 4);
        // K = n − 1 puts every object in its own segment: cost 0.
        assert!(dp.total_cost(4).abs() < 1e-12);
        let cuts = dp.cuts(4).unwrap();
        assert_eq!(cuts, vec![1, 2, 3]);
    }

    #[test]
    fn matches_brute_force_enumeration() {
        let values = [2.0, 7.0, 1.0, 9.0, 4.0, 6.0, 3.0];
        let n = values.len();
        let costs = step_costs(&values);
        let dp = k_segmentation(&costs, n - 1);
        for k in 1..n {
            // Enumerate all (k−1)-subsets of interior positions.
            let interior: Vec<usize> = (1..n - 1).collect();
            let mut best = f64::INFINITY;
            let combos = combinations(&interior, k - 1);
            for cuts in combos {
                let mut bounds = vec![0];
                bounds.extend(cuts.iter().copied());
                bounds.push(n - 1);
                let total: f64 = bounds.windows(2).map(|w| costs.get(w[0], w[1])).sum();
                best = best.min(total);
            }
            assert!(
                (dp.total_cost(k) - best).abs() < 1e-9,
                "k={k}: dp={} brute={best}",
                dp.total_cost(k)
            );
        }
    }

    fn combinations(items: &[usize], k: usize) -> Vec<Vec<usize>> {
        if k == 0 {
            return vec![Vec::new()];
        }
        let mut out = Vec::new();
        for (i, &x) in items.iter().enumerate() {
            for mut rest in combinations(&items[i + 1..], k - 1) {
                rest.insert(0, x);
                out.push(rest);
            }
        }
        out
    }

    #[test]
    fn banded_dp_respects_band() {
        let values = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        let n = values.len();
        let dense = step_costs(&values);
        let mut banded = CostMatrix::banded(n, 2);
        for i in 0..n {
            for j in i + 1..n.min(i + 3) {
                banded.set(i, j, dense.get(i, j));
            }
        }
        let dp = k_segmentation(&banded, 5);
        // K = 1 (one 6-point segment) exceeds the band: infeasible.
        assert!(!dp.total_cost(1).is_finite());
        // K = 3 is feasible (2+2+1 points per segment ≤ band).
        assert!(dp.total_cost(3).is_finite());
        let cuts = dp.cuts(3).unwrap();
        assert_eq!(cuts.len(), 2);
        // Every segment within the band.
        let mut bounds = vec![0];
        bounds.extend(&cuts);
        bounds.push(n - 1);
        assert!(bounds.windows(2).all(|w| w[1] - w[0] <= 2));
    }

    #[test]
    fn infeasible_k_errors() {
        let values = [1.0, 2.0, 3.0];
        let dp = k_segmentation(&step_costs(&values), 2);
        assert!(dp.cuts(2).is_ok());
        assert!(matches!(
            // k_max clamps at n−1 = 2, so ask for k=2 on a banded-infeasible…
            // here just check out-of-range k errors via cuts().
            dp.cuts(5),
            Err(SegmentError::InfeasibleK { .. })
        ));
    }

    #[test]
    fn parallel_dp_matches_sequential_costs_and_backpointers() {
        // A cost surface with near-ties so first-minimum tie-breaking is
        // actually exercised, over enough positions to cross the parallel
        // layer threshold.
        let n = 80;
        let mut costs = CostMatrix::dense(n);
        for i in 0..n {
            for j in i + 1..n {
                let len = (j - i) as f64;
                costs.set(
                    i,
                    j,
                    (len - 4.0).abs() + ((i * 7 + j * 3) % 5) as f64 * 0.25,
                );
            }
        }
        let seq = k_segmentation(&costs, 20);
        for threads in [2, 8] {
            let par = k_segmentation_with(&costs, 20, &ParallelCtx::new(threads));
            for k in 1..=20 {
                let (a, b) = (seq.total_cost(k), par.total_cost(k));
                assert!(
                    a == b || (a.is_infinite() && b.is_infinite()),
                    "t={threads} k={k}: {a} vs {b}"
                );
                if a.is_finite() {
                    assert_eq!(
                        seq.cuts(k).unwrap(),
                        par.cuts(k).unwrap(),
                        "t={threads} k={k}"
                    );
                }
            }
        }
    }

    #[test]
    fn curve_lists_feasible_ks() {
        let values = [1.0, 5.0, 2.0, 6.0, 3.0];
        let dp = k_segmentation(&step_costs(&values), 4);
        let curve = dp.k_variance_curve();
        assert_eq!(curve.len(), 4);
        assert_eq!(curve[0].0, 1);
        assert_eq!(dp.feasible_k_max(), 4);
    }
}
