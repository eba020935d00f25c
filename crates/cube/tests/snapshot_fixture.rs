//! The spilled-cube blob format, pinned by a committed blob.
//!
//! `fixtures/avg_three_attrs_appended.tsxc` is what the encoder wrote at
//! commit `634646f` for [`live_cube`]: an AVG cube over three explain-by
//! attributes (`city` determines `county`, so pruning drops every
//! conjunction naming both) seeded from six days and grown by one append
//! batch that restates the horizon day, adds two days and introduces a new
//! city. A blob that decodes, re-encodes to the same bytes and snapshots
//! like a cold build keeps every spilled cube of that format loadable.

use std::collections::HashMap;

use tsexplain_cube::{AppendRow, CubeConfig, ExplId, ExplanationCube, IncrementalCube};
use tsexplain_relation::{
    AggFn, AggQuery, AggState, AttrValue, Datum, Field, MeasureExpr, Relation, Schema,
};

const FIXTURE: &[u8] = include_bytes!("fixtures/avg_three_attrs_appended.tsxc");

const CITIES: [(&str, &str); 5] = [
    ("Des Moines", "Polk"),
    ("Ankeny", "Polk"),
    ("Cedar Rapids", "Linn"),
    ("Marion", "Linn"),
    ("Iowa City", "Johnson"),
];

/// One row: day, city, county, pack, sold.
type Row = (i64, &'static str, &'static str, i64, f64);

fn sold(day: i64, i: usize, pack: i64) -> f64 {
    ((day * 7 + i as i64 * 13) % 17) as f64 * 1.25 + 0.1 * pack as f64
}

/// Per day, one row per city and a second one for every other city.
fn seed_rows() -> Vec<Row> {
    let mut rows = Vec::new();
    for day in 0..6 {
        for (i, &(city, county)) in CITIES.iter().enumerate() {
            let pack = [6, 12, 24][(day as usize + i) % 3];
            rows.push((day, city, county, pack, sold(day, i, pack)));
            if i % 2 == 0 {
                rows.push((day, city, county, 24, sold(day + 3, i, 24)));
            }
        }
    }
    rows
}

/// The append batch: the horizon day again, two new days, and a city
/// (and county) the seed never saw.
fn appended_rows() -> Vec<Row> {
    vec![
        (5, "Marion", "Linn", 6, 3.75),
        (5, "Ames", "Story", 12, 8.5),
        (6, "Des Moines", "Polk", 12, 11.0),
        (6, "Ames", "Story", 6, 2.25),
        (6, "Iowa City", "Johnson", 24, 6.4),
        (7, "Ankeny", "Polk", 24, 9.9),
        (7, "Ames", "Story", 24, 1.5),
    ]
}

fn relation(rows: &[Row]) -> Relation {
    let schema = Schema::new(vec![
        Field::dimension("day"),
        Field::dimension("city"),
        Field::dimension("county"),
        Field::dimension("pack"),
        Field::measure("sold"),
    ])
    .unwrap();
    let mut b = Relation::builder(schema);
    for &(day, city, county, pack, v) in rows {
        b.push_row(vec![
            Datum::Attr(day.into()),
            Datum::from(city),
            Datum::from(county),
            Datum::Attr(pack.into()),
            Datum::from(v),
        ])
        .unwrap();
    }
    b.finish()
}

fn query() -> AggQuery {
    AggQuery::new("day", AggFn::Avg, MeasureExpr::Column("sold".into()))
}

fn config() -> CubeConfig {
    CubeConfig::new(["city", "county", "pack"]).with_filter_ratio(1.25)
}

/// The cube the fixture holds, built by the current code.
fn live_cube() -> IncrementalCube {
    let mut inc = IncrementalCube::from_relation(&relation(&seed_rows()), &query(), &config())
        .expect("the seed builds");
    let batch: Vec<AppendRow> = appended_rows()
        .into_iter()
        .map(|(day, city, county, pack, v)| {
            (
                AttrValue::Int(day),
                vec![city.into(), county.into(), AttrValue::Int(pack)],
                v,
            )
        })
        .collect();
    inc.append_batch(&batch).expect("the batch appends");
    inc
}

fn state_bits(s: AggState) -> [u64; 3] {
    [s.count.to_bits(), s.sum.to_bits(), s.sumsq.to_bits()]
}

/// `a` and `b` hold the same candidates in the same id order with the
/// same states, values and selectability, bit for bit.
fn assert_identical(a: &ExplanationCube, b: &ExplanationCube) {
    assert_eq!(a.timestamps(), b.timestamps());
    assert_eq!(a.explanations(), b.explanations());
    assert_eq!(a.selectable_ids(), b.selectable_ids());
    for t in 0..a.n_points() {
        assert_eq!(state_bits(a.total_state(t)), state_bits(b.total_state(t)));
        assert_eq!(a.total_value(t).to_bits(), b.total_value(t).to_bits());
    }
    for e in 0..a.n_candidates() as ExplId {
        assert_eq!(a.label(e), b.label(e));
        for t in 0..a.n_points() {
            assert_eq!(state_bits(a.state(e, t)), state_bits(b.state(e, t)));
            assert_eq!(a.value_at(e, t).to_bits(), b.value_at(e, t).to_bits());
        }
    }
}

#[test]
fn the_committed_blob_round_trips_byte_for_byte() {
    let decoded = IncrementalCube::from_snapshot_bytes(FIXTURE).expect("the fixture decodes");
    assert!(
        decoded.to_snapshot_bytes() == FIXTURE,
        "re-encoding changed the blob"
    );
    // The current encoder writes the same bytes for the same cube.
    assert!(
        live_cube().to_snapshot_bytes() == FIXTURE,
        "the encoder drifted"
    );
    assert_eq!(decoded.config().cache_key(), config().cache_key());
    assert_eq!(
        decoded.rows_ingested(),
        seed_rows().len() + appended_rows().len()
    );
}

#[test]
fn the_committed_blob_snapshots_like_a_cold_build() {
    let decoded = IncrementalCube::from_snapshot_bytes(FIXTURE).expect("the fixture decodes");
    let snapshot = decoded.snapshot().unwrap();
    // Pruning dropped candidates, so ids and store columns differ.
    assert!(snapshot.n_candidates() < decoded.n_candidates());
    assert!(snapshot.n_selectable() < snapshot.n_candidates());
    assert_identical(&snapshot, &live_cube().snapshot().unwrap());

    // A cold build numbers candidates first seen in the append otherwise:
    // compare label by label.
    let mut all = seed_rows();
    all.extend(appended_rows());
    let cold = ExplanationCube::build(&relation(&all), &query(), &config()).unwrap();
    assert_eq!(snapshot.n_candidates(), cold.n_candidates());
    assert_eq!(snapshot.n_selectable(), cold.n_selectable());
    assert_eq!(snapshot.timestamps(), cold.timestamps());
    let by_label: HashMap<String, ExplId> = (0..snapshot.n_candidates() as ExplId)
        .map(|e| (snapshot.label(e), e))
        .collect();
    for e in 0..cold.n_candidates() as ExplId {
        let label = cold.label(e);
        let ours = by_label[&label];
        assert_eq!(
            snapshot.is_selectable(ours),
            cold.is_selectable(e),
            "{label}"
        );
        for t in 0..cold.n_points() {
            assert_eq!(
                state_bits(snapshot.state(ours, t)),
                state_bits(cold.state(e, t)),
                "{label} at {t}"
            );
            assert_eq!(
                snapshot.value_at(ours, t).to_bits(),
                cold.value_at(e, t).to_bits(),
                "{label} at {t}"
            );
        }
    }
    for t in 0..cold.n_points() {
        assert_eq!(
            state_bits(snapshot.total_state(t)),
            state_bits(cold.total_state(t))
        );
    }
}
