use std::fmt;
use std::ops::Range;

use crate::agg::{AggFn, AggState};
use crate::column::{ColumnView, Columnar};
use crate::error::RelationError;
use crate::relation::Relation;
use crate::value::AttrValue;

/// The measure expression an aggregate operates on.
///
/// Besides plain columns, the S&P 500 workload needs the derived measure
/// `price * share / divisor` (paper §7.1.2), so products and scaling are
/// supported. The expression is evaluated row-wise into an `f64` before
/// aggregation.
#[derive(Clone, Debug, PartialEq)]
pub enum MeasureExpr {
    /// A measure column by name.
    Column(String),
    /// Row-wise product of two measure columns.
    Product(String, String),
    /// A scaled sub-expression, e.g. division by the S&P 500 divisor.
    Scaled(Box<MeasureExpr>, f64),
}

impl MeasureExpr {
    /// `column` as an expression.
    pub fn column(name: impl Into<String>) -> Self {
        MeasureExpr::Column(name.into())
    }

    /// `a * b` as an expression.
    pub fn product(a: impl Into<String>, b: impl Into<String>) -> Self {
        MeasureExpr::Product(a.into(), b.into())
    }

    /// `expr * factor`.
    pub fn scaled(self, factor: f64) -> Self {
        MeasureExpr::Scaled(Box::new(self), factor)
    }

    /// Evaluates the expression for one raw row in schema order — the
    /// row-at-a-time counterpart of [`MeasureExpr::eval`], used by
    /// incremental (streaming) ingestion where no materialized [`Relation`]
    /// exists. Applies the same numeric coercions as
    /// [`crate::RelationBuilder::push_row`].
    pub fn eval_row(
        &self,
        schema: &crate::Schema,
        row: &[crate::Datum],
    ) -> Result<f64, RelationError> {
        let column_value = |name: &str| -> Result<f64, RelationError> {
            let idx = schema.measure_index(name)?;
            match row.get(idx) {
                Some(crate::Datum::Num(v)) => Ok(*v),
                Some(crate::Datum::Attr(AttrValue::Int(i))) => Ok(*i as f64),
                Some(crate::Datum::Attr(_)) => Err(RelationError::TypeMismatch {
                    field: name.to_string(),
                    expected: "measure",
                }),
                None => Err(RelationError::ArityMismatch {
                    expected: schema.len(),
                    got: row.len(),
                }),
            }
        };
        match self {
            MeasureExpr::Column(name) => column_value(name),
            MeasureExpr::Product(a, b) => Ok(column_value(a)? * column_value(b)?),
            MeasureExpr::Scaled(inner, factor) => Ok(inner.eval_row(schema, row)? * factor),
        }
    }

    /// Evaluates the expression over every row of `rel`.
    pub fn eval(&self, rel: &Relation) -> Result<Vec<f64>, RelationError> {
        self.eval_rows(rel, 0..rel.n_rows())
    }

    /// Evaluates the expression over rows `rows` of `source` (a relation
    /// or a builder), read from its measure columns in place.
    pub fn eval_rows(
        &self,
        source: &impl Columnar,
        rows: Range<usize>,
    ) -> Result<Vec<f64>, RelationError> {
        match self {
            MeasureExpr::Column(name) => Ok(measure_rows(source, name, rows)?.to_vec()),
            MeasureExpr::Product(a, b) => {
                let xa = measure_rows(source, a, rows.clone())?;
                let xb = measure_rows(source, b, rows)?;
                Ok(xa.iter().zip(xb).map(|(x, y)| x * y).collect())
            }
            MeasureExpr::Scaled(inner, factor) => {
                let mut v = inner.eval_rows(source, rows)?;
                for x in &mut v {
                    *x *= factor;
                }
                Ok(v)
            }
        }
    }
}

/// Rows `rows` of `source`'s measure column `name`.
fn measure_rows<'a>(
    source: &'a impl Columnar,
    name: &str,
    rows: Range<usize>,
) -> Result<&'a [f64], RelationError> {
    match source.view(source.schema().measure_index(name)?) {
        ColumnView::Measure(values) => Ok(&values[rows]),
        ColumnView::Dimension { .. } => unreachable!("schema says measure"),
    }
}

impl fmt::Display for MeasureExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MeasureExpr::Column(c) => write!(f, "{c}"),
            MeasureExpr::Product(a, b) => write!(f, "{a}*{b}"),
            MeasureExpr::Scaled(inner, k) => write!(f, "({inner})*{k}"),
        }
    }
}

/// The "what happened" query: `SELECT T, f(M) FROM R GROUP BY T`
/// (Definition 3.6).
#[derive(Clone, Debug)]
pub struct AggQuery {
    time_attr: String,
    agg: AggFn,
    measure: MeasureExpr,
}

impl AggQuery {
    /// Builds a query grouping by `time_attr` and aggregating `measure`
    /// with `agg`.
    pub fn new(time_attr: impl Into<String>, agg: AggFn, measure: MeasureExpr) -> Self {
        AggQuery {
            time_attr: time_attr.into(),
            agg,
            measure,
        }
    }

    /// Convenience constructor for `SUM(column)`.
    pub fn sum(time_attr: impl Into<String>, column: impl Into<String>) -> Self {
        AggQuery::new(time_attr, AggFn::Sum, MeasureExpr::column(column))
    }

    /// Convenience constructor for `COUNT(column)`.
    pub fn count(time_attr: impl Into<String>, column: impl Into<String>) -> Self {
        AggQuery::new(time_attr, AggFn::Count, MeasureExpr::column(column))
    }

    /// The time dimension's attribute name.
    pub fn time_attr(&self) -> &str {
        &self.time_attr
    }

    /// The aggregate function.
    pub fn agg(&self) -> AggFn {
        self.agg
    }

    /// The measure expression.
    pub fn measure(&self) -> &MeasureExpr {
        &self.measure
    }

    /// Runs the query, producing the aggregated time series.
    pub fn run(&self, rel: &Relation) -> Result<AggregatedTimeSeries, RelationError> {
        let time_col = rel.dim_column(&self.time_attr)?;
        let measures = self.measure.eval(rel)?;
        let n = time_col.dict().len();
        let mut states = vec![AggState::ZERO; n];
        for (row, &code) in time_col.codes().iter().enumerate() {
            states[code as usize].observe(measures[row]);
        }
        let timestamps = time_col.dict().values().to_vec();
        let values = states.iter().map(|s| s.value(self.agg)).collect();
        Ok(AggregatedTimeSeries {
            timestamps,
            states,
            values,
            agg: self.agg,
        })
    }
}

impl fmt::Display for AggQuery {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let agg = match self.agg {
            AggFn::Sum => "SUM",
            AggFn::Count => "COUNT",
            AggFn::Avg => "AVG",
            AggFn::Variance => "VAR",
        };
        write!(
            f,
            "SELECT {t}, {agg}({m}) FROM R GROUP BY {t}",
            t = self.time_attr,
            m = self.measure
        )
    }
}

/// The result of an [`AggQuery`]: a time-ordered series of aggregate values
/// (Definition 3.6), along with the decomposable per-timestamp states.
#[derive(Clone, Debug)]
pub struct AggregatedTimeSeries {
    /// Sorted distinct timestamps.
    pub timestamps: Vec<AttrValue>,
    /// Per-timestamp decomposable aggregate state.
    pub states: Vec<AggState>,
    /// Per-timestamp aggregate values `f(M)`.
    pub values: Vec<f64>,
    /// The aggregate function used.
    pub agg: AggFn,
}

impl AggregatedTimeSeries {
    /// Number of points `n`.
    pub fn len(&self) -> usize {
        self.timestamps.len()
    }

    /// True when the series has no points.
    pub fn is_empty(&self) -> bool {
        self.timestamps.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{Field, Schema};

    fn sample() -> Relation {
        let schema = Schema::new(vec![
            Field::dimension("date"),
            Field::dimension("state"),
            Field::measure("cases"),
            Field::measure("weight"),
        ])
        .unwrap();
        let mut b = Relation::builder(schema);
        let rows = [
            ("d2", "NY", 20.0, 2.0),
            ("d1", "NY", 10.0, 2.0),
            ("d1", "CA", 4.0, 3.0),
            ("d2", "CA", 6.0, 3.0),
        ];
        for (d, s, c, w) in rows {
            b.push_row(vec![d.into(), s.into(), c.into(), w.into()])
                .unwrap();
        }
        b.finish()
    }

    #[test]
    fn sum_group_by_time() {
        let ts = AggQuery::sum("date", "cases").run(&sample()).unwrap();
        assert_eq!(ts.len(), 2);
        assert_eq!(ts.timestamps[0], AttrValue::from("d1"));
        assert_eq!(ts.values, vec![14.0, 26.0]);
    }

    #[test]
    fn count_group_by_time() {
        let ts = AggQuery::count("date", "cases").run(&sample()).unwrap();
        assert_eq!(ts.values, vec![2.0, 2.0]);
    }

    #[test]
    fn avg_group_by_time() {
        let q = AggQuery::new("date", AggFn::Avg, MeasureExpr::column("cases"));
        let ts = q.run(&sample()).unwrap();
        assert_eq!(ts.values, vec![7.0, 13.0]);
    }

    #[test]
    fn weighted_product_measure() {
        // SUM(cases * weight) / 10 — the S&P 500 index shape.
        let q = AggQuery::new(
            "date",
            AggFn::Sum,
            MeasureExpr::product("cases", "weight").scaled(0.1),
        );
        let ts = q.run(&sample()).unwrap();
        // d1: 10*2 + 4*3 = 32; d2: 20*2 + 6*3 = 58
        assert_eq!(ts.values, vec![3.2, 5.8]);
    }

    #[test]
    fn timestamps_sorted_regardless_of_insert_order() {
        let ts = AggQuery::sum("date", "cases").run(&sample()).unwrap();
        assert!(ts.timestamps.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn unknown_measure_errors() {
        assert!(AggQuery::sum("date", "nope").run(&sample()).is_err());
    }

    #[test]
    fn display_reads_like_sql() {
        let q = AggQuery::sum("date", "cases");
        assert_eq!(
            q.to_string(),
            "SELECT date, SUM(cases) FROM R GROUP BY date"
        );
    }
}
