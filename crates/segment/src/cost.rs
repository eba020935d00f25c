/// Segment-cost matrix over an ordered list of candidate cut positions.
///
/// `cost(i, j)` (position indices, `i < j`) is the DP cost
/// `|P| · var(P)` of making one segment out of everything between positions
/// `i` and `j`. Missing entries (outside the sketch band, or skipped by the
/// length constraint) read as `+∞`, which the DP treats as infeasible.
///
/// Two storages are provided because the two pipeline phases have opposite
/// shapes: the sketch-selection phase computes *all* positions but only
/// short segments (banded storage, `O(n·L)`), while the main phase computes
/// *few* positions but all spans (dense triangular storage, `O(|S|²)`).
/// Both store the segments that end at one position side by side, in
/// ascending start order: a DP cell `D(j, k)` scans the costs of every
/// segment ending at `j` as one contiguous slice.
#[derive(Clone, Debug)]
pub struct CostMatrix {
    n_pos: usize,
    storage: Storage,
}

#[derive(Clone, Debug)]
enum Storage {
    /// Lower-triangular by end position: `(i, j)` at `j(j−1)/2 + i`.
    Dense(Vec<f64>),
    /// Only spans of at most `band` positions, `band` slots per end
    /// position: `(i, j)` at `j·band + (i + band − j)`.
    Banded { band: usize, data: Vec<f64> },
}

impl CostMatrix {
    /// An all-infinite dense matrix over `n_pos` positions.
    pub fn dense(n_pos: usize) -> Self {
        let entries = n_pos * n_pos.saturating_sub(1) / 2;
        CostMatrix {
            n_pos,
            storage: Storage::Dense(vec![f64::INFINITY; entries]),
        }
    }

    /// An all-infinite banded matrix: spans `j − i ≤ band` only.
    pub fn banded(n_pos: usize, band: usize) -> Self {
        assert!(band >= 1, "band must cover at least unit segments");
        CostMatrix {
            n_pos,
            storage: Storage::Banded {
                band,
                data: vec![f64::INFINITY; n_pos * band],
            },
        }
    }

    /// Number of candidate positions.
    pub fn n_pos(&self) -> usize {
        self.n_pos
    }

    /// The band width, when banded.
    pub fn band(&self) -> Option<usize> {
        match &self.storage {
            Storage::Dense(_) => None,
            Storage::Banded { band, .. } => Some(*band),
        }
    }

    /// Where `(i, j)` is stored — the one place each layout formula lives;
    /// `get`, `set` and `column` all go through it. `None` outside a band.
    fn index(&self, i: usize, j: usize) -> Option<usize> {
        debug_assert!(i < j && j < self.n_pos);
        match &self.storage {
            Storage::Dense(_) => Some(j * (j - 1) / 2 + i),
            Storage::Banded { band, .. } => (j - i <= *band).then(|| j * band + (i + band - j)),
        }
    }

    fn data(&self) -> &[f64] {
        match &self.storage {
            Storage::Dense(data) | Storage::Banded { data, .. } => data,
        }
    }

    /// The cost of the segment between positions `i` and `j` (`i < j`);
    /// `+∞` when unavailable.
    pub fn get(&self, i: usize, j: usize) -> f64 {
        self.index(i, j).map_or(f64::INFINITY, |at| self.data()[at])
    }

    /// Stores the cost of the segment between positions `i` and `j`.
    ///
    /// # Panics
    /// Panics when a banded matrix is written outside its band.
    pub fn set(&mut self, i: usize, j: usize, value: f64) {
        let at = self
            .index(i, j)
            .unwrap_or_else(|| panic!("write outside band: ({i}, {j}) band {:?}", self.band()));
        match &mut self.storage {
            Storage::Dense(data) | Storage::Banded { data, .. } => data[at] = value,
        }
    }

    /// The costs of every stored segment that ends at position `j > 0`,
    /// side by side in ascending start order: `column(j)[t]` is
    /// `get(j − len + t, j)`, where `len = column(j).len()` (`j` when dense,
    /// `min(j, band)` when banded).
    pub(crate) fn column(&self, j: usize) -> &[f64] {
        let first = j.saturating_sub(self.band().unwrap_or(j));
        let start = self
            .index(first, j)
            .expect("the first start lies in the band");
        &self.data()[start..start + (j - first)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_roundtrip_all_pairs() {
        let n = 7;
        let mut m = CostMatrix::dense(n);
        for i in 0..n {
            for j in i + 1..n {
                m.set(i, j, (i * 10 + j) as f64);
            }
        }
        for i in 0..n {
            for j in i + 1..n {
                assert_eq!(m.get(i, j), (i * 10 + j) as f64, "({i},{j})");
            }
        }
    }

    #[test]
    fn dense_defaults_to_infinity() {
        let m = CostMatrix::dense(4);
        assert!(m.get(0, 3).is_infinite());
    }

    #[test]
    fn banded_roundtrip_within_band() {
        let n = 10;
        let band = 3;
        let mut m = CostMatrix::banded(n, band);
        for i in 0..n {
            for j in i + 1..n.min(i + band + 1) {
                m.set(i, j, (i + j) as f64);
            }
        }
        for i in 0..n {
            for j in i + 1..n {
                if j - i <= band {
                    assert_eq!(m.get(i, j), (i + j) as f64);
                } else {
                    assert!(m.get(i, j).is_infinite());
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "outside band")]
    fn banded_write_outside_band_panics() {
        let mut m = CostMatrix::banded(10, 2);
        m.set(0, 5, 1.0);
    }

    #[test]
    fn columns_agree_with_get_for_both_storages() {
        let n = 9;
        let band = 3;
        let mut dense = CostMatrix::dense(n);
        let mut banded = CostMatrix::banded(n, band);
        for i in 0..n {
            for j in i + 1..n {
                dense.set(i, j, (i * 10 + j) as f64);
                if j - i <= band {
                    banded.set(i, j, (i * 10 + j) as f64);
                }
            }
        }
        for (m, span) in [(&dense, n), (&banded, band)] {
            for j in 1..n {
                let col = m.column(j);
                let first = j - col.len();
                assert_eq!(first, j.saturating_sub(span), "j={j}");
                for i in first..j {
                    assert_eq!(col[i - first], m.get(i, j), "({i},{j})");
                }
            }
        }
    }

    #[test]
    fn band_accessor() {
        assert_eq!(CostMatrix::dense(5).band(), None);
        assert_eq!(CostMatrix::banded(5, 2).band(), Some(2));
    }
}
