use tsexplain_cube::{CubeConfig, ExplanationCube};
use tsexplain_relation::{
    AggFn, AggQuery, AttrValue, Column, ColumnType, Datum, Field, MeasureExpr, Relation, Schema,
};

use crate::cascading::CascadingAnalysts;
use crate::error::DiffError;
use crate::metric::{DiffMetric, Effect};

/// The classical two-relations diff operator (paper §3.1.1, Example 3.1):
/// explain how a *test* relation differs from a *control* relation.
///
/// This is the building block TSExplain generalizes — it is exactly the
/// special case of explaining the 2-point "time series" `[control, test]`,
/// and that is how it is implemented: the two relations are stacked with a
/// synthetic time dimension and the segment `(0, 1)` is explained.
///
/// Returns `(label, γ, τ)` triples ranked by γ descending.
#[expect(
    clippy::too_many_arguments,
    reason = "mirrors the paper's two-relation diff inputs one to one"
)]
pub fn diff_two_relations(
    test: &Relation,
    control: &Relation,
    explain_by: &[&str],
    agg: AggFn,
    measure: MeasureExpr,
    metric: DiffMetric,
    m: usize,
    max_order: usize,
) -> Result<Vec<(String, f64, Effect)>, DiffError> {
    if m == 0 {
        return Err(DiffError::ZeroM);
    }
    if !schemas_match(test.schema(), control.schema()) {
        return Err(DiffError::SchemaMismatch);
    }

    const TIME_ATTR: &str = "__diff_side";
    let mut fields = vec![Field::dimension(TIME_ATTR)];
    fields.extend(
        test.schema()
            .fields()
            .iter()
            .map(|f| match f.column_type() {
                ColumnType::Dimension => Field::dimension(f.name()),
                ColumnType::Measure => Field::measure(f.name()),
            }),
    );
    let schema = Schema::new(fields)?;
    let mut builder = Relation::builder(schema);
    for (side, rel) in [("0_control", control), ("1_test", test)] {
        for row in 0..rel.n_rows() {
            let mut data = Vec::with_capacity(rel.schema().len() + 1);
            data.push(Datum::Attr(AttrValue::from(side)));
            for idx in 0..rel.schema().len() {
                data.push(match rel.column(idx) {
                    Column::Dimension(d) => Datum::Attr(d.value_at(row).clone()),
                    Column::Measure(mcol) => Datum::Num(mcol[row]),
                });
            }
            builder.push_row(data)?;
        }
    }
    let stacked = builder.finish();

    let query = AggQuery::new(TIME_ATTR, agg, measure);
    let config = CubeConfig::new(explain_by.iter().copied()).with_max_order(max_order);
    let cube = ExplanationCube::build(&stacked, &query, &config)?;

    let mut ca = CascadingAnalysts::new(&cube, metric, m);
    let top = ca.top_m((0, 1));
    Ok(top
        .items()
        .iter()
        .map(|it| (cube.label(it.id), it.gamma, it.effect))
        .collect())
}

fn schemas_match(a: &Schema, b: &Schema) -> bool {
    a.len() == b.len()
        && a.fields()
            .iter()
            .zip(b.fields())
            .all(|(fa, fb)| fa.name() == fb.name() && fa.column_type() == fb.column_type())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn relation(rows: &[(&str, f64)]) -> Relation {
        let schema = Schema::new(vec![Field::dimension("state"), Field::measure("cases")]).unwrap();
        let mut b = Relation::builder(schema);
        for &(s, v) in rows {
            b.push_row(vec![Datum::from(s), Datum::from(v)]).unwrap();
        }
        b.finish()
    }

    #[test]
    fn surfaces_biggest_mover() {
        let control = relation(&[("NY", 100.0), ("CA", 50.0), ("TX", 40.0)]);
        let test = relation(&[("NY", 105.0), ("CA", 90.0), ("TX", 41.0)]);
        let out = diff_two_relations(
            &test,
            &control,
            &["state"],
            AggFn::Sum,
            MeasureExpr::column("cases"),
            DiffMetric::AbsoluteChange,
            2,
            3,
        )
        .unwrap();
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].0, "state=CA");
        assert_eq!(out[0].1, 40.0);
        assert_eq!(out[0].2, Effect::Plus);
        assert_eq!(out[1].0, "state=NY");
    }

    #[test]
    fn detects_declines() {
        let control = relation(&[("NY", 100.0)]);
        let test = relation(&[("NY", 60.0)]);
        let out = diff_two_relations(
            &test,
            &control,
            &["state"],
            AggFn::Sum,
            MeasureExpr::column("cases"),
            DiffMetric::AbsoluteChange,
            1,
            1,
        )
        .unwrap();
        assert_eq!(out[0].1, 40.0);
        assert_eq!(out[0].2, Effect::Minus);
    }

    #[test]
    fn schema_mismatch_rejected() {
        let control = relation(&[("NY", 1.0)]);
        let schema =
            Schema::new(vec![Field::dimension("county"), Field::measure("cases")]).unwrap();
        let test = Relation::builder(schema).finish();
        let err = diff_two_relations(
            &test,
            &control,
            &["state"],
            AggFn::Sum,
            MeasureExpr::column("cases"),
            DiffMetric::AbsoluteChange,
            1,
            1,
        )
        .unwrap_err();
        assert_eq!(err, DiffError::SchemaMismatch);
    }

    #[test]
    fn zero_m_rejected() {
        let r = relation(&[("NY", 1.0)]);
        let err = diff_two_relations(
            &r,
            &r,
            &["state"],
            AggFn::Sum,
            MeasureExpr::column("cases"),
            DiffMetric::AbsoluteChange,
            0,
            1,
        )
        .unwrap_err();
        assert_eq!(err, DiffError::ZeroM);
    }
}
