//! Property-based tests for the explanation cube: enumeration against a
//! naive group-by oracle, slice/total consistency, trie structural
//! invariants, filter monotonicity and overlap semantics.

use std::collections::{BTreeMap, HashMap};

use proptest::prelude::*;
use tsexplain_cube::{
    AppendRow, CubeConfig, ExplId, Explanation, ExplanationCube, IncrementalCube, ParallelCtx,
    ROOT_NODE,
};
use tsexplain_relation::{
    AggFn, AggQuery, AggState, AttrValue, Datum, Field, MeasureExpr, Relation, Schema,
};

/// Every enumeration property runs at these thread counts.
const THREADS: [usize; 3] = [1, 2, 8];

/// A row over up to five explain-by attributes: time, codes, measure.
type WideRow = (u8, [u8; 5], f64);

fn wide_rows_strategy() -> impl Strategy<Value = Vec<WideRow>> {
    proptest::collection::vec(
        (
            0u8..6,
            (0u8..4, 0u8..3, 0u8..5, 0u8..2, 0u8..3),
            -50.0f64..100.0,
        )
            .prop_map(|(t, (a, b, c, d, e), v)| (t, [a, b, c, d, e], v)),
        1..60,
    )
}

/// A relation `t, a0..a{n_attrs}, v` over the first `n_attrs` codes of each
/// row, in row order.
fn wide_relation(rows: &[WideRow], n_attrs: usize) -> Relation {
    let mut fields = vec![Field::dimension("t")];
    fields.extend((0..n_attrs).map(|a| Field::dimension(format!("a{a}"))));
    fields.push(Field::measure("v"));
    let mut builder = Relation::builder(Schema::new(fields).unwrap());
    for (t, attrs, v) in rows {
        let mut row = vec![Datum::Attr(i64::from(*t).into())];
        row.extend(
            attrs[..n_attrs]
                .iter()
                .map(|&x| Datum::Attr(i64::from(x).into())),
        );
        row.push(Datum::from(*v));
        builder.push_row(row).unwrap();
    }
    builder.finish()
}

fn attr_names(n_attrs: usize) -> Vec<String> {
    (0..n_attrs).map(|a| format!("a{a}")).collect()
}

/// The full enumeration: no pruning, no filter.
fn full_config(n_attrs: usize, max_order: usize) -> CubeConfig {
    CubeConfig::new(attr_names(n_attrs))
        .with_max_order(max_order)
        .without_redundancy_pruning()
}

/// The reference enumeration: per attribute subset in ascending bitmask
/// order, a naive first-witness group-by of the rows keyed by their code
/// vectors, each group's state accumulated per timestamp in row order.
fn oracle(
    rel: &Relation,
    n_attrs: usize,
    max_order: usize,
) -> (Vec<Explanation>, Vec<Vec<AggState>>) {
    let time = rel.dim_column("t").unwrap();
    let measures = rel.measure("v").unwrap();
    let codes: Vec<&[u32]> = attr_names(n_attrs)
        .iter()
        .map(|a| rel.dim_column(a).unwrap().codes())
        .collect();
    let mut explanations = Vec::new();
    let mut series: Vec<Vec<AggState>> = Vec::new();
    for mask in 1u32..1 << n_attrs {
        if mask.count_ones() as usize > max_order {
            continue;
        }
        let subset: Vec<u16> = (0..n_attrs as u16)
            .filter(|&a| mask & 1 << a != 0)
            .collect();
        let mut groups: BTreeMap<Vec<u32>, usize> = BTreeMap::new();
        for (row, &t) in time.codes().iter().enumerate() {
            let key: Vec<u32> = subset.iter().map(|&a| codes[usize::from(a)][row]).collect();
            let id = *groups.entry(key.clone()).or_insert_with(|| {
                explanations.push(Explanation::new(subset.iter().copied().zip(key).collect()));
                series.push(vec![AggState::ZERO; time.dict().len()]);
                series.len() - 1
            });
            series[id][t as usize].observe(measures[row]);
        }
    }
    (explanations, series)
}

fn state_bits(s: AggState) -> [u64; 3] {
    [s.count.to_bits(), s.sum.to_bits(), s.sumsq.to_bits()]
}

/// Every state and value of `cube` as bits: per point the overall state
/// and value, then each explanation's.
fn cube_bits(cube: &ExplanationCube) -> Vec<[u64; 4]> {
    let mut out = Vec::new();
    for t in 0..cube.n_points() {
        let [c, s, q] = state_bits(cube.total_state(t));
        out.push([c, s, q, cube.total_value(t).to_bits()]);
        for e in 0..cube.n_candidates() as ExplId {
            let [c, s, q] = state_bits(cube.state(e, t));
            out.push([c, s, q, cube.value_at(e, t).to_bits()]);
        }
    }
    out
}

/// The cube enumerates exactly the oracle's explanations, in its order,
/// with bit-identical states, when built at every thread count.
fn check_against_oracle(
    rel: &Relation,
    n_attrs: usize,
    max_order: usize,
) -> Result<(), TestCaseError> {
    let (explanations, series) = oracle(rel, n_attrs, max_order);
    let query = AggQuery::sum("t", "v");
    for threads in THREADS {
        let cube = ExplanationCube::build_with(
            rel,
            &query,
            &full_config(n_attrs, max_order),
            &ParallelCtx::new(threads),
        )
        .unwrap();
        prop_assert_eq!(
            cube.explanations(),
            explanations.as_slice(),
            "t={}",
            threads
        );
        for (e, states) in series.iter().enumerate() {
            for (t, &st) in states.iter().enumerate() {
                prop_assert_eq!(
                    state_bits(cube.state(e as ExplId, t)),
                    state_bits(st),
                    "t={} {} at {}",
                    threads,
                    cube.label(e as ExplId),
                    t
                );
            }
        }
    }
    Ok(())
}

fn rows_strategy() -> impl Strategy<Value = Vec<(u8, u8, u8, f64)>> {
    proptest::collection::vec((0u8..5, 0u8..3, 0u8..3, 0.1f64..100.0), 5..80)
}

fn build_cube(
    rows: &[(u8, u8, u8, f64)],
    max_order: usize,
    filter: Option<f64>,
) -> ExplanationCube {
    let schema = Schema::new(vec![
        Field::dimension("t"),
        Field::dimension("a"),
        Field::dimension("b"),
        Field::measure("v"),
    ])
    .unwrap();
    let mut builder = Relation::builder(schema);
    for &(t, a, b, v) in rows {
        builder
            .push_row(vec![
                Datum::Attr((t as i64).into()),
                Datum::Attr((a as i64).into()),
                Datum::Attr((b as i64).into()),
                Datum::from(v),
            ])
            .unwrap();
    }
    let mut config = CubeConfig::new(["a", "b"])
        .with_max_order(max_order)
        .without_redundancy_pruning();
    config.filter_ratio = filter;
    ExplanationCube::build(&builder.finish(), &AggQuery::sum("t", "v"), &config).unwrap()
}

#[test]
fn enumeration_with_large_dictionaries_matches_the_oracle() {
    // 120 rows over a0 (120 values), a1 (113 values) and a2 (3 values):
    // the subset {a0, a1} keys 120 prefix groups × 113 codes, past the
    // dense table's cap, so the hashed index serves it; every other subset
    // fits a dense table.
    let schema = Schema::new(vec![
        Field::dimension("t"),
        Field::dimension("a0"),
        Field::dimension("a1"),
        Field::dimension("a2"),
        Field::measure("v"),
    ])
    .unwrap();
    let mut builder = Relation::builder(schema);
    for i in 0..120i64 {
        builder
            .push_row(vec![
                Datum::Attr((i % 4).into()),
                Datum::Attr(i.into()),
                Datum::Attr((i * 7 % 113).into()),
                Datum::Attr((i % 3).into()),
                Datum::from(i as f64 * 0.5 - 7.0),
            ])
            .unwrap();
    }
    let rel = builder.finish();
    for max_order in 1..=3 {
        check_against_oracle(&rel, 3, max_order).unwrap();
    }
}

/// The append form of one wide row.
fn append_row(t: i64, attrs: &[u8], v: f64) -> AppendRow {
    (
        AttrValue::Int(t),
        attrs
            .iter()
            .map(|&x| AttrValue::Int(i64::from(x)))
            .collect(),
        v,
    )
}

proptest! {
    /// The seed enumerates exactly the naive group-by's explanations, in
    /// its first-witness order, with bit-identical states.
    #[test]
    fn enumeration_matches_the_oracle(
        rows in wide_rows_strategy(),
        n_attrs in 2usize..=5,
        max_order in 1usize..=5,
    ) {
        check_against_oracle(&wide_relation(&rows, n_attrs), n_attrs, max_order)?;
    }

    /// A seed grown by appends that add timestamps and attribute values
    /// holds, label by label, the states of a cold build over all rows.
    /// Candidates first seen in an append may take other ids.
    #[test]
    fn appends_match_a_cold_build(
        seed in wide_rows_strategy(),
        batches in proptest::collection::vec(
            proptest::collection::vec((0u8..3, (0u8..6, 0u8..5, 0u8..7), -50.0f64..100.0), 1..12),
            1..4,
        ),
        max_order in 1usize..=3,
    ) {
        let n_attrs = 3;
        let query = AggQuery::sum("t", "v");
        let config = full_config(n_attrs, max_order);
        // Each batch lands at or after the horizon, new timestamps in
        // ascending order; values beyond the seed's ranges are new codes.
        let mut all = seed.clone();
        let mut appends: Vec<Vec<AppendRow>> = Vec::new();
        let mut horizon = seed.iter().map(|r| r.0).max().unwrap();
        for mut batch in batches {
            batch.sort_by_key(|r| r.0);
            let mut encoded = Vec::new();
            for (dt, (a, b, c), v) in batch {
                let row = (horizon + dt, [a, b, c, 0, 0], v);
                encoded.push(append_row(i64::from(row.0), &row.1[..n_attrs], v));
                all.push(row);
            }
            horizon = all.iter().map(|r| r.0).max().unwrap();
            appends.push(encoded);
        }
        let cold = ExplanationCube::build(&wide_relation(&all, n_attrs), &query, &config).unwrap();
        for threads in THREADS {
            let mut inc = IncrementalCube::from_relation_with(
                &wide_relation(&seed, n_attrs),
                &query,
                &config,
                &ParallelCtx::new(threads),
            )
            .unwrap();
            for batch in &appends {
                inc.append_batch(batch).unwrap();
            }
            let grown = inc.snapshot().unwrap();
            prop_assert_eq!(grown.n_candidates(), cold.n_candidates(), "t={}", threads);
            prop_assert_eq!(grown.n_points(), cold.n_points());
            for t in 0..cold.n_points() {
                prop_assert_eq!(state_bits(grown.total_state(t)), state_bits(cold.total_state(t)));
            }
            let by_label: HashMap<String, ExplId> = (0..grown.n_candidates() as ExplId)
                .map(|e| (grown.label(e), e))
                .collect();
            for e in 0..cold.n_candidates() as ExplId {
                let label = cold.label(e);
                let ours = by_label.get(&label).copied();
                prop_assert!(ours.is_some(), "t={} {} missing", threads, label);
                for t in 0..cold.n_points() {
                    prop_assert_eq!(
                        state_bits(grown.state(ours.unwrap(), t)),
                        state_bits(cold.state(e, t)),
                        "t={} {} at {}", threads, label, t
                    );
                }
            }
        }
    }

    /// A snapshot shares its incremental cube's states, yet never sees an
    /// append made after it was taken: its states and values keep their
    /// bits and equal a cold build over the rows it saw, for every
    /// aggregate, with pruning and the filter on.
    #[test]
    fn a_snapshot_never_sees_a_later_append(
        seed in wide_rows_strategy(),
        batch in proptest::collection::vec((0u8..3, (0u8..6, 0u8..5, 0u8..7), -50.0f64..100.0), 1..12),
        max_order in 1usize..=3,
        agg in 0usize..4,
    ) {
        let n_attrs = 3;
        let query = AggQuery::new("t", AggFn::ALL[agg], MeasureExpr::Column("v".into()));
        let config = CubeConfig::new(attr_names(n_attrs))
            .with_max_order(max_order)
            .with_filter_ratio(0.05);
        let relation = wide_relation(&seed, n_attrs);
        let cold = ExplanationCube::build(&relation, &query, &config).unwrap();
        let horizon = seed.iter().map(|r| r.0).max().unwrap();
        let mut batch = batch;
        batch.sort_by_key(|r| r.0);
        let rows: Vec<AppendRow> = batch
            .iter()
            .map(|&(dt, (a, b, c), v)| append_row(i64::from(horizon + dt), &[a, b, c], v))
            .collect();
        for threads in THREADS {
            let mut inc =
                IncrementalCube::from_relation_with(&relation, &query, &config, &ParallelCtx::new(threads))
                    .unwrap();
            let snapshot = inc.snapshot().unwrap();
            let before = cube_bits(&snapshot);
            inc.append_batch(&rows).unwrap();
            prop_assert_eq!(cube_bits(&snapshot), before, "t={}", threads);
            prop_assert_eq!(snapshot.explanations(), cold.explanations());
            prop_assert_eq!(snapshot.selectable_ids(), cold.selectable_ids());
            prop_assert_eq!(cube_bits(&snapshot), cube_bits(&cold), "t={}", threads);
            // The append landed: the grown cube differs from what was seen.
            prop_assert!(cube_bits(&inc.snapshot().unwrap()) != before);
        }
    }

    /// Order-1 slices of one attribute sum to the total at every point.
    #[test]
    fn order1_slices_partition_total(rows in rows_strategy()) {
        let cube = build_cube(&rows, 2, None);
        for attr in 0..2u16 {
            for t in 0..cube.n_points() {
                let sum: f64 = (0..cube.n_candidates() as ExplId)
                    .filter(|&e| {
                        let expl = cube.explanation(e);
                        expl.order() == 1 && expl.constrains(attr)
                    })
                    .map(|e| cube.value_at(e, t))
                    .sum();
                prop_assert!((sum - cube.total_value(t)).abs() < 1e-6,
                    "attr {attr} t {t}: {sum} vs {}", cube.total_value(t));
            }
        }
    }

    /// Every trie child refines its parent by exactly the grouping attr.
    #[test]
    fn trie_children_refine_parents(rows in rows_strategy()) {
        let cube = build_cube(&rows, 2, None);
        let trie = cube.trie();
        // Root children are order-1 on the group's attr.
        for (attr, kids) in trie.children(ROOT_NODE) {
            for &kid in kids {
                let e = cube.explanation(kid);
                prop_assert_eq!(e.order(), 1);
                prop_assert!(e.constrains(*attr));
            }
        }
        for parent in 0..cube.n_candidates() as ExplId {
            for (attr, kids) in trie.children(parent) {
                let p = cube.explanation(parent);
                prop_assert!(!p.constrains(*attr));
                for &kid in kids {
                    let k = cube.explanation(kid);
                    prop_assert_eq!(k.order(), p.order() + 1);
                    prop_assert_eq!(&k.without(*attr).unwrap(), p);
                }
            }
        }
    }

    /// Raising the filter ratio can only shrink the selectable set.
    #[test]
    fn filter_is_monotone(rows in rows_strategy(), r1 in 0.0001f64..0.2, r2 in 0.0001f64..0.2) {
        let (lo, hi) = if r1 <= r2 { (r1, r2) } else { (r2, r1) };
        let mut cube = build_cube(&rows, 2, None);
        cube.apply_filter(Some(lo));
        let selectable_lo = cube.n_selectable();
        cube.apply_filter(Some(hi));
        let selectable_hi = cube.n_selectable();
        prop_assert!(selectable_hi <= selectable_lo);
        prop_assert!(selectable_lo <= cube.n_candidates());
    }

    /// `overlaps` agrees with actual row-set intersection.
    #[test]
    fn overlap_matches_row_semantics(rows in rows_strategy()) {
        let cube = build_cube(&rows, 2, None);
        let n = cube.n_candidates().min(12) as ExplId;
        for e1 in 0..n {
            for e2 in 0..n {
                let x1 = cube.explanation(e1);
                let x2 = cube.explanation(e2);
                // Count rows matching both conjunctions.
                let both = rows.iter().filter(|&&(_, a, b, _)| {
                    let matches = |e: &tsexplain_cube::Explanation| {
                        e.preds().iter().all(|&(attr, code)| {
                            let dict = &cube.dicts()[attr as usize];
                            let val = if attr == 0 { a } else { b } as i64;
                            dict.code_of(&val.into()) == Some(code)
                        })
                    };
                    matches(x1) && matches(x2)
                }).count();
                if both > 0 {
                    prop_assert!(x1.overlaps(x2),
                        "{} and {} share {both} rows but report non-overlapping",
                        cube.label(e1), cube.label(e2));
                }
            }
        }
    }

    /// Smoothing preserves the series mean (up to boundary effects) and
    /// never changes the number of points.
    #[test]
    fn smoothing_preserves_shape(rows in rows_strategy(), window in 1usize..6) {
        let mut cube = build_cube(&rows, 1, None);
        let n = cube.n_points();
        let before: f64 = cube.total_values().iter().sum();
        cube.smooth_moving_average(window);
        prop_assert_eq!(cube.n_points(), n);
        let after: f64 = cube.total_values().iter().sum();
        // Centered MA with boundary clamping keeps totals in the same band.
        prop_assert!(after.abs() <= before.abs() * 2.0 + 1e-6);
    }
}
