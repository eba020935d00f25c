//! The segment memo: unit-object top-m lists and segment costs, kept for
//! every request that prices one cube.
//!
//! An entry is a pure function of its key and of the cube rows it reads.
//! A unit list `(x, x + 1)` reads rows `x` and `x + 1`; a cost of `(a, b)`
//! reads rows `a..=b` (its unit objects plus its centroid). Beyond those
//! rows both read the cube's [`CubeShape`] and the knobs in their key. So
//! one memo can serve many requests over one cube, and it survives a tail
//! append for every entry whose rows the append did not touch:
//! [`SegmentMemo::advance`] drops the others.
//!
//! The memo follows its owner's rows by ownership, not by a version: an
//! advance works on the memo in place while its owner holds the only
//! handle, and on a copy while another holder (a request prepared over
//! the older rows) still reads it. So a [`crate::SegmentationContext`]
//! reads and publishes only the entries of the rows its cube was
//! finalized from, and a request over older rows never mixes its entries
//! with those of newer rows.
//!
//! The lock is a leaf: it is held for a lookup pass or one publish, never
//! while pricing and never while taking another lock. A poisoned lock is
//! recovered, since every entry is inserted whole.

use std::collections::HashMap;
use std::mem::size_of;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use tsexplain_cube::{CubeShape, ExplanationCube};
use tsexplain_diff::{DiffMetric, RankedExplanation, TopExplStrategy};

use crate::ndcg::ExplainedSegment;
use crate::variance::VarianceMetric;

/// What shapes a top-m list besides the cube: the difference metric, m and
/// the path the engine derives by ([`tsexplain_diff::TopExplEngine::path`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub(crate) struct DeriveKey {
    pub(crate) metric: DiffMetric,
    pub(crate) m: usize,
    pub(crate) path: TopExplStrategy,
}

/// What shapes a segment cost: its derivations and the variance metric.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub(crate) struct CostKey {
    pub(crate) derive: DeriveKey,
    pub(crate) variance: VarianceMetric,
}

/// Bytes charged per cost entry: its key, its value and the hash map's
/// per-entry bookkeeping.
const COST_ENTRY_BYTES: usize = size_of::<(u32, u32)>() + size_of::<f64>() + 8;

/// Bytes a unit-object list holds.
fn units_bytes(units: &[ExplainedSegment]) -> usize {
    units
        .iter()
        .map(|u| size_of::<ExplainedSegment>() + u.top.len() * size_of::<RankedExplanation>())
        .sum()
}

/// A cost entry's key: the segment's endpoints.
pub(crate) fn cell(a: usize, b: usize) -> (u32, u32) {
    (a as u32, b as u32)
}

/// Segment memo shared by the requests over one cube (module docs). A
/// context built without one gets a private memo of its own.
#[derive(Default)]
pub struct SegmentMemo {
    tables: Mutex<Tables>,
    /// `Tables::bytes`, readable without the lock.
    bytes: AtomicUsize,
}

#[derive(Clone, Default)]
pub(crate) struct Tables {
    /// The shape every entry was derived under; `None` until the memo is
    /// first advanced (a private memo never is).
    shape: Option<CubeShape>,
    /// Per derivation key, the unit lists `0..len`.
    units: HashMap<DeriveKey, Arc<Vec<ExplainedSegment>>>,
    costs: HashMap<CostKey, HashMap<(u32, u32), f64>>,
    bytes: usize,
}

impl Tables {
    /// The unit lists known for `key`, a prefix of the cube's unit objects.
    pub(crate) fn units(&self, key: &DeriveKey) -> Option<Arc<Vec<ExplainedSegment>>> {
        self.units.get(key).cloned()
    }

    /// Publishes `units` for `key` unless a list at least as long is
    /// already known.
    pub(crate) fn put_units(&mut self, key: DeriveKey, units: &Arc<Vec<ExplainedSegment>>) {
        let old = self.units.get(&key).map_or(0, |known| known.len());
        if units.len() > old {
            if let Some(known) = self.units.insert(key, Arc::clone(units)) {
                self.bytes -= units_bytes(&known);
            }
            self.bytes += units_bytes(units);
        }
    }

    /// The known costs under `key`.
    pub(crate) fn costs(&self, key: &CostKey) -> Option<&HashMap<(u32, u32), f64>> {
        self.costs.get(key)
    }

    /// The known cost of `seg` under `key`.
    pub(crate) fn cost(&self, key: &CostKey, seg: (usize, usize)) -> Option<f64> {
        self.costs(key)?.get(&cell(seg.0, seg.1)).copied()
    }

    /// Publishes segment costs under `key`.
    pub(crate) fn put_costs(
        &mut self,
        key: CostKey,
        costs: impl IntoIterator<Item = ((usize, usize), f64)>,
    ) {
        let table = self.costs.entry(key).or_default();
        let before = table.len();
        table.extend(costs.into_iter().map(|((a, b), cost)| (cell(a, b), cost)));
        self.bytes += (table.len() - before) * COST_ENTRY_BYTES;
    }

    #[expect(
        clippy::disallowed_methods,
        reason = "a byte count summed over the tables is order-insensitive"
    )]
    fn count_bytes(&self) -> usize {
        let units: usize = self.units.values().map(|u| units_bytes(u)).sum();
        let costs: usize = self.costs.values().map(HashMap::len).sum();
        units + costs * COST_ENTRY_BYTES + self.shape.as_ref().map_or(0, CubeShape::approx_bytes)
    }
}

impl SegmentMemo {
    /// Approximate bytes the memo holds: its entries and its shape's
    /// selectable ids (the shape's explanation list is its cube's).
    /// Published after every change, so it can be read while requests
    /// price.
    pub fn bytes(&self) -> usize {
        self.bytes.load(Ordering::Relaxed)
    }

    /// Unit-object lists plus segment costs held.
    #[expect(
        clippy::disallowed_methods,
        reason = "an entry count summed over the tables is order-insensitive"
    )]
    pub fn entries(&self) -> usize {
        let tables = self.lock();
        let units: usize = tables.units.values().map(|u| u.len()).sum();
        let costs: usize = tables.costs.values().map(HashMap::len).sum();
        units + costs
    }

    /// Moves `memo` to the rows `cube` was finalized from, keeping exactly
    /// the entries those rows leave unchanged. With the shape the entries
    /// were derived under, an entry survives when it reads no row from
    /// `first_changed` on (`usize::MAX` when no row changed). A changed
    /// shape (new candidates, pruning or selectability) drops every entry,
    /// and so does a memo that has no shape yet: a new memo starts serving
    /// a cube once advanced to it.
    ///
    /// Copy-on-write: the memo is advanced in place while `memo` is its
    /// only handle, and a copy is advanced while another handle is alive,
    /// which keeps reading and publishing the entries of the older rows.
    #[expect(
        clippy::disallowed_methods,
        reason = "each entry is kept or dropped on its own rows, so the visiting order cannot matter"
    )]
    pub fn advance(memo: &mut Arc<SegmentMemo>, cube: &ExplanationCube, first_changed: usize) {
        let memo = Arc::make_mut(memo);
        let tables = memo
            .tables
            .get_mut()
            .unwrap_or_else(PoisonError::into_inner);
        let shape = cube.shape();
        if tables.shape.as_ref() == Some(&shape) {
            // Unit x reads rows x and x + 1.
            let keep = first_changed.saturating_sub(1);
            tables.units.retain(|_, units| {
                if units.len() > keep {
                    match Arc::get_mut(units) {
                        Some(owned) => owned.truncate(keep),
                        None => *units = Arc::new(units[..keep].to_vec()),
                    }
                }
                !units.is_empty()
            });
            // A cost of (a, b) reads rows a..=b.
            tables.costs.retain(|_, costs| {
                costs.retain(|&(_, b), _| (b as usize) < first_changed);
                !costs.is_empty()
            });
        } else {
            tables.units.clear();
            tables.costs.clear();
            tables.shape = Some(shape);
        }
        tables.bytes = tables.count_bytes();
        *memo.bytes.get_mut() = tables.bytes;
    }

    /// Runs `f` on the tables.
    pub(crate) fn locked<R>(&self, f: impl FnOnce(&mut Tables) -> R) -> R {
        let mut tables = self.lock();
        let out = f(&mut tables);
        self.bytes.store(tables.bytes, Ordering::Relaxed);
        out
    }

    fn lock(&self) -> MutexGuard<'_, Tables> {
        self.tables.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

impl Clone for SegmentMemo {
    /// A copy of the tables, taken under the lock.
    fn clone(&self) -> Self {
        let tables = self.lock().clone();
        SegmentMemo {
            bytes: AtomicUsize::new(tables.bytes),
            tables: Mutex::new(tables),
        }
    }
}

impl std::fmt::Debug for SegmentMemo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SegmentMemo")
            .field("bytes", &self.bytes())
            .finish_non_exhaustive()
    }
}
