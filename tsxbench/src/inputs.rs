//! Seeded inputs: datasets as raw rows, synthesized append batches, and the
//! fixed request lists each workload cycles.
//!
//! Everything here runs before any set-up clock starts. The program only
//! ever receives what these functions return: rows to build relations
//! from, rows to append, and requests.

use tsexplain::{AggQuery, AttrValue, Datum, DiffMetric, ExplainRequest, Optimizations, Schema};
use tsexplain_datagen::{covid, liquor, sp500, DateIter};
use tsexplain_relation::{Column, Relation};

/// One dataset as the program receives it: schema, query and raw rows.
#[derive(Clone)]
pub struct Dataset {
    pub name: &'static str,
    pub schema: Schema,
    pub query: AggQuery,
    pub explain_by: Vec<String>,
    pub rows: Vec<Vec<Datum>>,
}

impl Dataset {
    fn from_relation(
        name: &'static str,
        relation: &Relation,
        query: AggQuery,
        explain_by: Vec<String>,
    ) -> Self {
        Dataset {
            name,
            schema: relation.schema().clone(),
            query,
            explain_by,
            rows: rows_of(relation),
        }
    }

    fn time_index(&self) -> usize {
        self.schema
            .index_of(self.query.time_attr())
            .expect("the query's time attribute is in the schema")
    }

    /// Distinct timestamps of the rows, ascending.
    pub fn timestamps(&self) -> Vec<AttrValue> {
        let t = self.time_index();
        let mut times: Vec<AttrValue> = self.rows.iter().map(|r| attr(&r[t]).clone()).collect();
        times.sort();
        times.dedup();
        times
    }

    /// The rows in time order (stable within a timestamp), so that any
    /// prefix/suffix split is a valid base/tail split for appends.
    pub fn time_ordered(mut self) -> Self {
        let t = self.time_index();
        self.rows.sort_by(|a, b| attr(&a[t]).cmp(attr(&b[t])));
        self
    }

    /// Splits off the rows of every timestamp after the first `days`.
    pub fn split_at_day(mut self, days: usize) -> (Dataset, Vec<Vec<Datum>>) {
        let t = self.time_index();
        let cutoff = self.timestamps()[days].clone();
        let at = self.rows.partition_point(|r| *attr(&r[t]) < cutoff);
        let tail = self.rows.split_off(at);
        (self, tail)
    }

    /// `days` new calendar days past the horizon, each a copy of the last
    /// day's rows under the new date: live data arriving at the tail.
    pub fn synthesized_days(&self, days: usize) -> Vec<Vec<Datum>> {
        let t = self.time_index();
        let times = self.timestamps();
        let last = times.last().expect("a dataset has rows").clone();
        let last_rows: Vec<&Vec<Datum>> =
            self.rows.iter().filter(|r| *attr(&r[t]) == last).collect();
        let mut date = next_day(&last.to_string());
        let mut out = Vec::with_capacity(days * last_rows.len());
        for _ in 0..days {
            let stamp = Datum::from(date.format().as_str());
            for row in &last_rows {
                let mut row = (*row).clone();
                row[t] = stamp.clone();
                out.push(row);
            }
            date.advance();
        }
        out
    }

    /// The default request over this dataset's explain-by attributes.
    pub fn request(&self) -> ExplainRequest {
        ExplainRequest::new(self.explain_by.iter().cloned())
    }
}

fn attr(d: &Datum) -> &AttrValue {
    match d {
        Datum::Attr(v) => v,
        Datum::Num(_) => panic!("time attribute holds a number"),
    }
}

/// The calendar day after `date` (`YYYY-MM-DD`).
fn next_day(date: &str) -> DateIter {
    let part = |i: usize| -> u32 {
        date.split('-')
            .nth(i)
            .and_then(|p| p.parse().ok())
            .expect("dates are YYYY-MM-DD")
    };
    let mut it = DateIter::new(part(0), part(1), part(2), 0);
    it.advance();
    it
}

/// Raw rows (schema order) of a materialized relation.
pub fn rows_of(relation: &Relation) -> Vec<Vec<Datum>> {
    let width = relation.schema().len();
    let mut rows = vec![Vec::with_capacity(width); relation.n_rows()];
    for idx in 0..width {
        match relation.column(idx) {
            Column::Dimension(col) => {
                for (row, &code) in col.codes().iter().enumerate() {
                    rows[row].push(Datum::Attr(col.dict().value(code).clone()));
                }
            }
            Column::Measure(values) => {
                for (row, &v) in values.iter().enumerate() {
                    rows[row].push(Datum::Num(v));
                }
            }
        }
    }
    rows
}

pub fn liquor(seed: u64) -> Dataset {
    let w = liquor::generate(seed).workload();
    Dataset::from_relation("liquor", &w.relation, w.query, w.explain_by)
}

/// Covid total-confirmed and daily-confirmed: one relation, two queries.
pub fn covid(seed: u64) -> (Dataset, Dataset) {
    let data = covid::generate(seed);
    let total = data.total_workload();
    let daily = data.daily_workload();
    (
        Dataset::from_relation(
            "covid-total",
            &total.relation,
            total.query,
            total.explain_by,
        ),
        Dataset::from_relation(
            "covid-daily",
            &daily.relation,
            daily.query,
            daily.explain_by,
        ),
    )
}

pub fn sp500(seed: u64) -> Dataset {
    let w = sp500::generate(seed).workload();
    Dataset::from_relation("sp500", &w.relation, w.query, w.explain_by)
}

/// The follow-up questions an analyst asks once a cube is warm: auto-K,
/// fixed K = 3, top-1 relative change, O2 only, and the recent half of the
/// horizon. `smoothing` applies to every request (covid daily uses 7).
pub fn follow_ups(data: &Dataset, smoothing: usize) -> Vec<ExplainRequest> {
    let base = data.request().with_smoothing(smoothing);
    let times = data.timestamps();
    let mid = times[times.len() / 2].clone();
    let last = times.last().expect("a dataset has rows").clone();
    vec![
        base.clone(),
        base.clone().with_fixed_k(3),
        base.clone()
            .with_top_m(1)
            .with_diff_metric(DiffMetric::RelativeChange),
        base.clone().with_optimizations(Optimizations::o2()),
        base.with_time_range(mid, last),
    ]
}

/// A request's label for reports.
pub fn describe(request: &ExplainRequest) -> String {
    let mut parts = vec![match request.k_selection() {
        tsexplain::KSelection::Auto { .. } => "auto-K".to_string(),
        tsexplain::KSelection::Fixed(k) => format!("K={k}"),
    }];
    if request.top_m() != 3 {
        parts.push(format!("m={}", request.top_m()));
    }
    if request.diff_metric() != DiffMetric::AbsoluteChange {
        parts.push(format!("{:?}", request.diff_metric()));
    }
    if request.optimizations() != Optimizations::all() {
        parts.push("O2-only".to_string());
    }
    if request.smoothing_window() > 1 {
        parts.push(format!("smooth={}", request.smoothing_window()));
    }
    if request.time_range().is_some() {
        parts.push("half-horizon".to_string());
    }
    parts.join(",")
}
