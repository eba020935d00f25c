//! Block-snapshot serialization of [`IncrementalCube`] state.
//!
//! A demoted or checkpointed cube is written as one self-describing binary
//! blob: a small header (config, aggregate, dictionaries, explanations)
//! followed by flat little-endian `f64` blocks: the overall state series,
//! one state series per explanation (explanation-major, walked out of the
//! time-major state store column by column), and the time-major value
//! matrix with its overall value series.
//!
//! Only the *logical* state is persisted. The derived lookup structures
//! (time index, dictionary indexes, subset list, per-subset group maps)
//! are pure functions of the logical state and are rebuilt on load (the
//! group maps at the first append, as for a fresh seed), which keeps the
//! format small and makes a round-trip bit-identical by construction:
//! floats travel as raw IEEE-754 bits, codes and ids as fixed-width
//! integers, and every rebuilt map reproduces exactly the entries the live
//! cube held. The group maps are derived by the same function for a seed
//! and a decoded blob, so a change of their key leaves the format, and
//! blobs already written, as they are.
//!
//! The value block is derived data too: the decoder redecodes the states
//! and requires the block to match them bit for bit.
//!
//! Decoding is defensive end to end: every read is bounds-checked and
//! every structural invariant (pred sorted-ness, code ranges, series
//! arity, matrix dimensions, values that decode from the states, no
//! duplicate explanation, every drill-down parent of an explanation
//! present) is re-validated, so a torn write or
//! a bit flip yields [`CubeError::CorruptSnapshot`] — never a panic and
//! never a cube that violates the invariants the scoring paths rely on
//! (the trie, for one, hangs each explanation under all its parents). A
//! session that gets the error discards the blob and rebuilds. Integrity
//! of the bytes themselves (CRC) is the storage layer's job; this module
//! only guarantees that *whatever* bytes arrive cannot crash the decoder.

use std::collections::HashMap;
use std::sync::Arc;

use tsexplain_relation::{AggFn, AggState, AttrValue};

use crate::cube::{CubeConfig, MAX_EXPLAIN_BY};
use crate::enumerate::{derive_groups, enumerate_subsets};
use crate::error::CubeError;
use crate::explanation::Explanation;
use crate::incremental::IncrementalCube;
use crate::values::StateStore;

/// Format magic: "TSXC" + version 1. Bump the trailing byte on layout
/// changes; old snapshots then fail the magic check and recovery rebuilds.
const MAGIC: &[u8; 8] = b"TSXCUB\x00\x01";

fn corrupt(what: impl Into<String>) -> CubeError {
    CubeError::CorruptSnapshot(what.into())
}

impl IncrementalCube {
    /// Serializes the cube's logical state into one snapshot blob (module
    /// docs). The inverse is [`IncrementalCube::from_snapshot_bytes`].
    pub fn to_snapshot_bytes(&self) -> Vec<u8> {
        let store = &*self.store;
        // Four f64 words per cell: three state fields and the value.
        let cells = store.n_rows() * (store.n_cols() + 1);
        let mut out = Vec::with_capacity(64 + cells * 32);
        out.extend_from_slice(MAGIC);

        // Config.
        put_u32(&mut out, self.config.explain_by.len() as u32);
        for name in &self.config.explain_by {
            put_str(&mut out, name);
        }
        put_u64(&mut out, self.config.max_order as u64);
        match self.config.filter_ratio {
            None => out.push(0),
            Some(r) => {
                out.push(1);
                put_u64(&mut out, r.to_bits());
            }
        }
        out.push(self.config.prune_redundant as u8);
        out.push(agg_tag(store.agg()));
        put_u64(&mut out, self.rows_ingested as u64);

        // Time axis and per-attribute dictionaries, in code order.
        put_u64(&mut out, self.timestamps.len() as u64);
        for t in &self.timestamps {
            put_attr(&mut out, t);
        }
        for values in &self.dict_values {
            put_u64(&mut out, values.len() as u64);
            for v in values {
                put_attr(&mut out, v);
            }
        }

        // Explanations in id order (their order *is* the id space).
        put_u64(&mut out, self.explanations.len() as u64);
        for e in &self.explanations {
            put_u16(&mut out, e.preds().len() as u16);
            for &(attr, code) in e.preds() {
                put_u16(&mut out, attr);
                put_u32(&mut out, code);
            }
        }

        // Flat f64 blocks: total series, per-explanation series, matrix.
        for st in store.total_states() {
            put_state(&mut out, st);
        }
        for col in 0..store.n_cols() {
            for t in 0..store.n_rows() {
                put_state(&mut out, &store.state(t, col));
            }
        }
        let values = store.values();
        put_u64(&mut out, values.n_rows() as u64);
        put_u64(&mut out, values.n_cols() as u64);
        for t in 0..values.n_rows() {
            for &x in values.row(t) {
                put_u64(&mut out, x.to_bits());
            }
        }
        for &x in values.totals() {
            put_u64(&mut out, x.to_bits());
        }
        out
    }

    /// Reassembles a cube from snapshot bytes, rebuilding the derived
    /// lookup state and re-validating every invariant (module docs).
    pub fn from_snapshot_bytes(bytes: &[u8]) -> Result<Self, CubeError> {
        let mut r = Reader { buf: bytes, pos: 0 };
        if r.take(MAGIC.len())? != MAGIC {
            return Err(corrupt("bad magic / unsupported version"));
        }

        // Config.
        let n_attrs = r.u32()? as usize;
        if n_attrs == 0 || n_attrs > MAX_EXPLAIN_BY {
            return Err(corrupt(format!("{n_attrs} explain-by attributes")));
        }
        let mut explain_by = Vec::with_capacity(n_attrs);
        for _ in 0..n_attrs {
            explain_by.push(r.str()?);
        }
        let max_order = r.u64()? as usize;
        if max_order == 0 {
            return Err(corrupt("zero max order"));
        }
        let filter_ratio = match r.u8()? {
            0 => None,
            1 => Some(f64::from_bits(r.u64()?)),
            t => return Err(corrupt(format!("filter-ratio tag {t}"))),
        };
        let prune_redundant = match r.u8()? {
            0 => false,
            1 => true,
            t => return Err(corrupt(format!("prune tag {t}"))),
        };
        let agg = agg_from_tag(r.u8()?)?;
        let rows_ingested = r.u64()? as usize;

        // Time axis and dictionaries; indexes rebuilt with duplicates
        // rejected (a live cube's codes are injective by construction).
        let n_times = r.counted(2)?;
        let mut timestamps = Vec::with_capacity(n_times);
        let mut time_index = HashMap::with_capacity(n_times);
        for _ in 0..n_times {
            let t = r.attr()?;
            if time_index
                .insert(t.clone(), timestamps.len() as u32)
                .is_some()
            {
                return Err(corrupt(format!("duplicate timestamp {t}")));
            }
            timestamps.push(t);
        }
        let mut dict_values = Vec::with_capacity(n_attrs);
        let mut dict_index = Vec::with_capacity(n_attrs);
        for _ in 0..n_attrs {
            let n = r.counted(2)?;
            let mut values = Vec::with_capacity(n);
            let mut index = HashMap::with_capacity(n);
            for _ in 0..n {
                let v = r.attr()?;
                if index.insert(v.clone(), values.len() as u32).is_some() {
                    return Err(corrupt(format!("duplicate dictionary value {v}")));
                }
                values.push(v);
            }
            dict_values.push(values);
            dict_index.push(index);
        }

        // Explanations, validated pred-by-pred before construction.
        let n_expl = r.counted(2)?;
        let mut explanations = Vec::with_capacity(n_expl);
        for _ in 0..n_expl {
            let n_preds = r.u16()? as usize;
            let mut preds = Vec::with_capacity(n_preds);
            for _ in 0..n_preds {
                let attr = r.u16()?;
                let code = r.u32()?;
                if attr as usize >= n_attrs {
                    return Err(corrupt(format!("pred attribute {attr} out of range")));
                }
                if code as usize >= dict_values[attr as usize].len() {
                    return Err(corrupt(format!("pred code {code} out of range")));
                }
                if let Some(&(prev, _)) = preds.last() {
                    if attr <= prev {
                        return Err(corrupt("unsorted or duplicate pred attributes"));
                    }
                }
                preds.push((attr, code));
            }
            if preds.is_empty() || preds.len() > max_order {
                return Err(corrupt(format!("explanation of order {}", preds.len())));
            }
            explanations.push(Explanation::new(preds));
        }

        // Flat state blocks, filled into a store sized only once the blob
        // is known to hold that many states (a corrupt count cannot
        // trigger a huge allocation).
        let cells = n_times
            .checked_mul(n_expl)
            .ok_or_else(|| corrupt("state dimension overflow"))?;
        r.block(cells, 24)?;
        let mut store = StateStore::zeroed(agg, n_times, n_expl);
        for t in 0..n_times {
            store.set_total(t, r.state()?);
        }
        for col in 0..n_expl {
            for t in 0..n_times {
                store.set_state(t, col, r.state()?);
            }
        }
        store.decode();
        let n_rows = r.u64()? as usize;
        let n_cols = r.u64()? as usize;
        if n_rows != n_times || n_cols != n_expl {
            return Err(corrupt(format!(
                "matrix is {n_rows}x{n_cols}, state is {n_times}x{n_expl}"
            )));
        }
        let values = store.values();
        for t in 0..n_rows {
            for &x in values.row(t) {
                if r.u64()? != x.to_bits() {
                    return Err(corrupt("value block disagrees with the states"));
                }
            }
        }
        for &x in values.totals() {
            if r.u64()? != x.to_bits() {
                return Err(corrupt("total values disagree with the states"));
            }
        }
        if r.pos != r.buf.len() {
            return Err(corrupt(format!(
                "{} trailing bytes after snapshot",
                r.buf.len() - r.pos
            )));
        }

        // The group maps are derived again at the first append; deriving
        // them here rejects an explanation whose drill-down parents are not
        // all present (the trie would panic on it at the first snapshot).
        let subsets = enumerate_subsets(n_attrs, max_order);
        derive_groups(&subsets, &explanations)?;

        Ok(IncrementalCube {
            config: CubeConfig {
                explain_by: explain_by.clone(),
                max_order,
                filter_ratio,
                prune_redundant,
            },
            timestamps,
            time_index,
            attr_names: explain_by,
            dict_values,
            dict_index,
            subsets,
            groups: None,
            explanations,
            store: Arc::new(store),
            rows_ingested,
        })
    }
}

fn agg_tag(agg: AggFn) -> u8 {
    match agg {
        AggFn::Sum => 0,
        AggFn::Count => 1,
        AggFn::Avg => 2,
        AggFn::Variance => 3,
    }
}

fn agg_from_tag(tag: u8) -> Result<AggFn, CubeError> {
    match tag {
        0 => Ok(AggFn::Sum),
        1 => Ok(AggFn::Count),
        2 => Ok(AggFn::Avg),
        3 => Ok(AggFn::Variance),
        t => Err(corrupt(format!("aggregate tag {t}"))),
    }
}

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

fn put_attr(out: &mut Vec<u8>, v: &AttrValue) {
    match v {
        AttrValue::Int(i) => {
            out.push(0);
            put_u64(out, *i as u64);
        }
        AttrValue::Str(s) => {
            out.push(1);
            put_str(out, s);
        }
    }
}

fn put_state(out: &mut Vec<u8>, st: &AggState) {
    put_u64(out, st.count.to_bits());
    put_u64(out, st.sum.to_bits());
    put_u64(out, st.sumsq.to_bits());
}

/// A bounds-checked little-endian cursor: every primitive read fails with
/// [`CubeError::CorruptSnapshot`] instead of slicing out of range.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], CubeError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| corrupt("truncated snapshot"))?;
        let out = &self.buf[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    fn u8(&mut self) -> Result<u8, CubeError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, CubeError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> Result<u32, CubeError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, CubeError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn str(&mut self) -> Result<String, CubeError> {
        let n = self.u32()? as usize;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| corrupt("non-UTF-8 string"))
    }

    fn attr(&mut self) -> Result<AttrValue, CubeError> {
        match self.u8()? {
            0 => Ok(AttrValue::Int(self.u64()? as i64)),
            1 => Ok(AttrValue::from(self.str()?.as_str())),
            t => Err(corrupt(format!("attribute tag {t}"))),
        }
    }

    fn state(&mut self) -> Result<AggState, CubeError> {
        Ok(AggState {
            count: f64::from_bits(self.u64()?),
            sum: f64::from_bits(self.u64()?),
            sumsq: f64::from_bits(self.u64()?),
        })
    }

    /// Reads a u64 element count and sanity-checks it against the bytes
    /// actually remaining (each element occupies at least `min_size`
    /// bytes), so a corrupt length cannot trigger a huge allocation.
    fn counted(&mut self, min_size: usize) -> Result<usize, CubeError> {
        let n = self.u64()? as usize;
        self.block(n, min_size)?;
        Ok(n)
    }

    /// Checks that `n` elements of at least `min_size` bytes can still
    /// fit in the unread tail; returns `n`.
    fn block(&self, n: usize, min_size: usize) -> Result<usize, CubeError> {
        match n.checked_mul(min_size) {
            Some(need) if need <= self.buf.len() - self.pos => Ok(n),
            _ => Err(corrupt(format!("element count {n} exceeds snapshot size"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cube::ExplanationCube;
    use crate::explanation::ExplId;
    use tsexplain_relation::{AggQuery, Datum, Field, MeasureExpr, Relation, Schema};

    fn sample_cube(filter: Option<f64>) -> IncrementalCube {
        let schema = Schema::new(vec![
            Field::dimension("t"),
            Field::dimension("state"),
            Field::dimension("pack"),
            Field::measure("v"),
        ])
        .unwrap();
        let mut b = Relation::builder(schema);
        for t in 0..6i64 {
            for (s, p, v) in [("NY", 6, 1.5), ("CA", 12, -2.0), ("NY", 12, 0.25)] {
                b.push_row(vec![
                    Datum::Attr(t.into()),
                    Datum::from(s),
                    Datum::Attr(AttrValue::Int(p)),
                    Datum::from(v * (t + 1) as f64),
                ])
                .unwrap();
            }
        }
        let rel = b.finish();
        let mut config = CubeConfig::new(["state", "pack"]);
        if let Some(r) = filter {
            config = config.with_filter_ratio(r);
        }
        let query = AggQuery::new("t", AggFn::Avg, MeasureExpr::Column("v".into()));
        IncrementalCube::from_relation(&rel, &query, &config).unwrap()
    }

    fn assert_bit_identical(a: &IncrementalCube, b: &IncrementalCube) {
        assert_eq!(a.timestamps, b.timestamps);
        assert_eq!(a.time_index, b.time_index);
        assert_eq!(a.attr_names, b.attr_names);
        assert_eq!(a.dict_values, b.dict_values);
        assert_eq!(a.dict_index, b.dict_index);
        assert_eq!(a.subsets, b.subsets);
        assert_eq!(a.groups, b.groups);
        assert_eq!(a.explanations, b.explanations);
        assert_eq!(a.rows_ingested, b.rows_ingested);
        let (sa, sb) = (&a.store, &b.store);
        assert_eq!((sa.n_rows(), sa.n_cols()), (sb.n_rows(), sb.n_cols()));
        let bits = |s: AggState| [s.count.to_bits(), s.sum.to_bits(), s.sumsq.to_bits()];
        for t in 0..sa.n_rows() {
            assert_eq!(bits(sa.total_states()[t]), bits(sb.total_states()[t]));
            for col in 0..sa.n_cols() {
                assert_eq!(bits(sa.state(t, col)), bits(sb.state(t, col)));
                assert_eq!(
                    sa.values().get(t, col).to_bits(),
                    sb.values().get(t, col).to_bits()
                );
            }
            assert_eq!(
                sa.values().total(t).to_bits(),
                sb.values().total(t).to_bits()
            );
        }
    }

    #[test]
    fn roundtrip_is_bit_identical() {
        for filter in [None, Some(0.001)] {
            let cube = sample_cube(filter);
            let back = IncrementalCube::from_snapshot_bytes(&cube.to_snapshot_bytes()).unwrap();
            assert_bit_identical(&cube, &back);
            assert_eq!(back.config().cache_key(), cube.config().cache_key());
        }
    }

    #[test]
    fn rehydrated_cube_keeps_appending_and_snapshotting() {
        let mut cube = sample_cube(Some(0.001));
        let mut back = IncrementalCube::from_snapshot_bytes(&cube.to_snapshot_bytes()).unwrap();
        let batch = vec![
            (AttrValue::Int(6), vec!["TX".into(), AttrValue::Int(6)], 9.0),
            (
                AttrValue::Int(7),
                vec!["NY".into(), AttrValue::Int(12)],
                1.0,
            ),
        ];
        cube.append_batch(&batch).unwrap();
        back.append_batch(&batch).unwrap();
        assert_bit_identical(&cube, &back);
        let a = cube.snapshot().unwrap();
        let b = back.snapshot().unwrap();
        assert_eq!(a.n_candidates(), b.n_candidates());
        for e in 0..a.n_candidates() as ExplId {
            assert_eq!(a.label(e), b.label(e));
            let (va, vb) = (a.value_series(e), b.value_series(e));
            assert_eq!(va.len(), vb.len());
            for (x, y) in va.iter().zip(&vb) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
    }

    #[test]
    fn rehydrated_snapshot_equals_fresh_batch_build() {
        let cube = sample_cube(Some(0.001));
        let back = IncrementalCube::from_snapshot_bytes(&cube.to_snapshot_bytes()).unwrap();
        let fresh = cube.snapshot().unwrap();
        let rehydrated = back.snapshot().unwrap();
        assert_eq!(rehydrated.explanations(), fresh.explanations());
        assert_eq!(rehydrated.total_values(), fresh.total_values());
        let _: &ExplanationCube = &rehydrated;
    }

    #[test]
    fn every_truncation_point_is_rejected_not_panicking() {
        let bytes = sample_cube(Some(0.001)).to_snapshot_bytes();
        for cut in 0..bytes.len() {
            assert!(
                matches!(
                    IncrementalCube::from_snapshot_bytes(&bytes[..cut]),
                    Err(CubeError::CorruptSnapshot(_))
                ),
                "truncation at {cut} must be rejected"
            );
        }
    }

    /// An explanation whose drill-down parents are not all in the blob is
    /// rejected at decode time. Decoded, it would panic in the trie at the
    /// first snapshot, under the tenant lock of the session rehydrating it.
    #[test]
    fn explanation_without_its_parents_is_rejected() {
        let schema = Schema::new(vec![
            Field::dimension("t"),
            Field::dimension("a"),
            Field::dimension("b"),
            Field::dimension("c"),
            Field::measure("v"),
        ])
        .unwrap();
        let mut b = Relation::builder(schema);
        // `a=1 & b=1` and `a=1 & c=1` never occur.
        for (t, a, bb, c, v) in [
            (0, 0, 0, 0, 1.0),
            (0, 1, 0, 0, 2.0),
            (1, 0, 1, 0, 3.0),
            (1, 0, 0, 1, 4.0),
        ] {
            b.push_row(vec![
                Datum::Attr(AttrValue::Int(t)),
                Datum::Attr(AttrValue::Int(a)),
                Datum::Attr(AttrValue::Int(bb)),
                Datum::Attr(AttrValue::Int(c)),
                Datum::from(v),
            ])
            .unwrap();
        }
        let config = CubeConfig::new(["a", "b", "c"]);
        let cube =
            IncrementalCube::from_relation(&b.finish(), &AggQuery::sum("t", "v"), &config).unwrap();
        let bytes = cube.to_snapshot_bytes();
        // One order-3 explanation as encoded: pred count, then per pred
        // the attribute (u16) and the code (u32); codes equal the values.
        let encoded = |codes: [u32; 3]| {
            let mut out = 3u16.to_le_bytes().to_vec();
            for (attr, code) in codes.into_iter().enumerate() {
                out.extend_from_slice(&(attr as u16).to_le_bytes());
                out.extend_from_slice(&code.to_le_bytes());
            }
            out
        };
        // (0,0,0) → (1,1,0) loses the prefix parent `a=1 & b=1`;
        // (1,0,0) → (1,0,1) keeps it but loses `a=1 & c=1`.
        for (from, to) in [([0, 0, 0], [1, 1, 0]), ([1, 0, 0], [1, 0, 1])] {
            let (from, to) = (encoded(from), encoded(to));
            let at = bytes
                .windows(from.len())
                .position(|w| w == from.as_slice())
                .expect("the explanation is in the blob");
            let mut patched = bytes.clone();
            patched[at..at + to.len()].copy_from_slice(&to);
            assert!(
                matches!(
                    IncrementalCube::from_snapshot_bytes(&patched),
                    Err(CubeError::CorruptSnapshot(_))
                ),
                "{to:?} decoded"
            );
        }
        // The unpatched blob still decodes and snapshots.
        let back = IncrementalCube::from_snapshot_bytes(&bytes).unwrap();
        assert!(back.snapshot().is_ok());
    }

    #[test]
    fn trailing_garbage_and_bad_magic_rejected() {
        let mut bytes = sample_cube(None).to_snapshot_bytes();
        bytes.push(0);
        assert!(IncrementalCube::from_snapshot_bytes(&bytes).is_err());
        let mut bad = sample_cube(None).to_snapshot_bytes();
        bad[0] ^= 0xff;
        assert!(matches!(
            IncrementalCube::from_snapshot_bytes(&bad),
            Err(CubeError::CorruptSnapshot(_))
        ));
        assert!(IncrementalCube::from_snapshot_bytes(&[]).is_err());
    }

    #[test]
    fn fingerprints_are_stable_and_distinguish_configs() {
        let a = CubeConfig::new(["state", "pack"]).cache_key().fingerprint();
        let b = CubeConfig::new(["pack", "state"]).cache_key().fingerprint();
        let c = CubeConfig::new(["state", "pack"])
            .with_filter_ratio(0.001)
            .cache_key()
            .fingerprint();
        let d = CubeConfig::new(["state", "pack"])
            .with_max_order(2)
            .cache_key()
            .fingerprint();
        assert_eq!(
            a,
            CubeConfig::new(["state", "pack"]).cache_key().fingerprint()
        );
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, d);
    }
}
