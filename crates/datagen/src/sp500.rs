//! The S&P 500 workload simulator (paper §7.1.2, "S&P 500").
//!
//! 503 constituents in a `category → subcategory → stock` hierarchy over
//! the 2020 window 2020-01-02 .. 2020-10-01. The index is
//! `SUM(price · share) / divisor`. The generator reproduces the story the
//! paper's case study tells (Table 4): a tech/internet-retail-led rise
//! into early February with energy sliding, the 2/20–3/23 crash led by
//! technology, financial and communication, a tech-led recovery in which
//! financial conspicuously does *not* bounce back, and the
//! late-August-to-October pullback.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use tsexplain_relation::{AggFn, AggQuery, Datum, Field, MeasureExpr, Relation, Schema};

use crate::dates::trading_days_2020;
use crate::rng::gaussian;
use crate::workload::Workload;

/// Index divisor (scales `SUM(price·share)` into index points).
pub const DIVISOR: f64 = 8.0e9;

/// Sector table: name, cap-weight share, stock count share, industries.
const SECTORS: [(&str, f64, &[&str]); 11] = [
    (
        "technology",
        0.27,
        &[
            "software",
            "semiconductors",
            "hardware",
            "it services",
            "cloud",
        ],
    ),
    (
        "healthcare",
        0.14,
        &[
            "pharma",
            "biotech",
            "medical devices",
            "health insurance",
            "diagnostics",
        ],
    ),
    (
        "financial",
        0.11,
        &[
            "banks",
            "insurance",
            "asset management",
            "credit services",
            "exchanges",
        ],
    ),
    (
        "communication",
        0.10,
        &[
            "internet content",
            "telecom",
            "media",
            "entertainment",
            "advertising",
        ],
    ),
    (
        "consumer cyclical",
        0.10,
        &[
            "internet retail",
            "autos",
            "restaurants",
            "apparel",
            "travel",
        ],
    ),
    (
        "industrials",
        0.08,
        &[
            "aerospace",
            "railroads",
            "machinery",
            "airlines",
            "logistics",
        ],
    ),
    (
        "consumer defensive",
        0.07,
        &[
            "household products",
            "beverages",
            "discount stores",
            "packaged foods",
            "tobacco",
        ],
    ),
    (
        "energy",
        0.04,
        &[
            "oil majors",
            "exploration",
            "pipelines",
            "refining",
            "services",
        ],
    ),
    (
        "utilities",
        0.03,
        &["electric", "gas", "water", "renewables", "multi-utility"],
    ),
    (
        "real estate",
        0.03,
        &[
            "reit office",
            "reit retail",
            "reit residential",
            "reit data",
            "reit health",
        ],
    ),
    (
        "basic materials",
        0.03,
        &[
            "chemicals",
            "metals",
            "mining",
            "paper",
            "construction materials",
        ],
    ),
];

/// Total number of constituents (the paper keeps the 503 companies present
/// through the whole period).
pub const N_STOCKS: usize = 503;

/// Market phases as (start-day, end-day, market log-return over the phase).
/// Day indices are in trading days (~188 total); key calendar anchors:
/// 2/6 ≈ 24, 2/19 ≈ 33, 3/23 ≈ 56, 8/25 ≈ 163, 9/23 ≈ 183.
const PHASES: [(usize, usize, f64); 5] = [
    (0, 33, 0.055),     // new-year rally into 2/19
    (33, 56, -0.42),    // covid crash to 3/23
    (56, 163, 0.50),    // recovery into late August
    (163, 183, -0.085), // September pullback
    (183, 200, 0.015),  // stabilisation into 10/1
];

/// Per-sector extra log-drift per phase (same phase boundaries).
fn sector_drift(sector: &str) -> [f64; 5] {
    match sector {
        "technology" => [0.050, -0.10, 0.33, -0.055, 0.0],
        "financial" => [0.000, -0.16, -0.06, -0.035, 0.0],
        "communication" => [0.020, -0.11, 0.16, -0.045, 0.0],
        "consumer cyclical" => [0.010, -0.05, 0.22, -0.010, 0.0],
        "energy" => [-0.120, -0.25, 0.04, -0.020, 0.0],
        "healthcare" => [0.000, 0.04, 0.05, 0.010, 0.0],
        "consumer defensive" => [0.000, 0.06, 0.02, 0.010, 0.0],
        "utilities" => [0.010, 0.03, 0.00, 0.000, 0.0],
        "real estate" => [0.000, -0.06, -0.02, 0.000, 0.0],
        "industrials" => [0.000, -0.08, 0.08, -0.010, 0.0],
        "basic materials" => [0.000, -0.04, 0.06, 0.000, 0.0],
        _ => [0.0; 5],
    }
}

/// Per-industry extra log-drift per phase (on top of the sector's).
fn industry_drift(industry: &str) -> [f64; 5] {
    match industry {
        "internet retail" => [0.080, 0.05, 0.18, -0.02, 0.0],
        "airlines" | "travel" => [-0.020, -0.25, -0.08, 0.00, 0.0],
        "banks" => [0.000, -0.05, -0.04, -0.01, 0.0],
        "internet content" => [0.020, 0.00, 0.10, -0.02, 0.0],
        _ => [0.0; 5],
    }
}

/// Daily log-return contribution of a phase table at `day`.
fn phase_daily(drifts: &[f64; 5], day: usize) -> f64 {
    for (i, &(start, end, _)) in PHASES.iter().enumerate() {
        if day >= start && day < end {
            return drifts[i] / (end - start) as f64;
        }
    }
    0.0
}

fn market_daily(day: usize) -> f64 {
    for &(start, end, total) in &PHASES {
        if day >= start && day < end {
            return total / (end - start) as f64;
        }
    }
    0.0
}

/// The generated S&P 500 dataset.
#[derive(Clone, Debug)]
pub struct Sp500Data {
    /// Schema: `(date, category, subcategory, stock, price, share)`.
    pub relation: Relation,
    /// The trading-day calendar used.
    pub dates: Vec<String>,
}

/// Generates the S&P 500 workload (deterministic per seed).
pub fn generate(seed: u64) -> Sp500Data {
    let mut rng = StdRng::seed_from_u64(seed);
    let dates = trading_days_2020();
    let n_days = dates.len();

    // Allocate stocks to sectors proportionally to cap weight.
    let mut stocks: Vec<(String, &str, &str, f64, f64)> = Vec::with_capacity(N_STOCKS);
    // (ticker, sector, industry, base price, shares)
    let total_weight: f64 = SECTORS.iter().map(|s| s.1).sum();
    for (si, &(sector, weight, industries)) in SECTORS.iter().enumerate() {
        let count = if si == SECTORS.len() - 1 {
            N_STOCKS - stocks.len()
        } else {
            ((weight / total_weight) * N_STOCKS as f64).round() as usize
        };
        for j in 0..count {
            let industry = industries[j % industries.len()];
            let ticker = format!("{}{:03}", sector_ticker_prefix(sector), j);
            let base_price = rng.random_range(40.0..400.0);
            // Cap share within the sector is skewed: a few mega-caps.
            let cap = weight * 28e12 / count as f64
                * rng.random_range(0.4..2.2)
                * if j < 3 { 3.0 } else { 1.0 };
            let shares = cap / base_price;
            stocks.push((ticker, sector, industry, base_price, shares));
        }
    }
    debug_assert_eq!(stocks.len(), N_STOCKS);

    let schema = Schema::new(vec![
        Field::dimension("date"),
        Field::dimension("category"),
        Field::dimension("subcategory"),
        Field::dimension("stock"),
        Field::measure("price"),
        Field::measure("share"),
    ])
    .expect("static schema");
    let mut b = Relation::builder(schema);

    for (ticker, sector, industry, base_price, shares) in &stocks {
        let sdrift = sector_drift(sector);
        let idrift = industry_drift(industry);
        let mut log_price = base_price.ln();
        for (day, date) in dates.iter().enumerate().take(n_days) {
            if day > 0 {
                let ret = market_daily(day)
                    + phase_daily(&sdrift, day)
                    + phase_daily(&idrift, day)
                    + gaussian(&mut rng, 0.0, 0.006);
                log_price += ret;
            }
            b.push_row(vec![
                Datum::from(date.as_str()),
                Datum::from(*sector),
                Datum::from(*industry),
                Datum::from(ticker.as_str()),
                Datum::from(log_price.exp()),
                Datum::from(*shares),
            ])
            .expect("schema-conformant row");
        }
    }

    Sp500Data {
        relation: b.finish(),
        dates,
    }
}

fn sector_ticker_prefix(sector: &str) -> String {
    sector
        .split_whitespace()
        .map(|w| w.chars().next().unwrap_or('X').to_ascii_uppercase())
        .collect::<String>()
        + "T"
}

impl Sp500Data {
    /// `SELECT date, SUM(price*share)/divisor … GROUP BY date`.
    pub fn workload(&self) -> Workload {
        Workload::new(
            "sp500",
            self.relation.clone(),
            AggQuery::new(
                "date",
                AggFn::Sum,
                MeasureExpr::product("price", "share").scaled(1.0 / DIVISOR),
            ),
            vec![
                "category".to_string(),
                "subcategory".to_string(),
                "stock".to_string(),
            ],
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn day_of(dates: &[String], date: &str) -> usize {
        dates.iter().position(|d| d.as_str() >= date).unwrap()
    }

    #[test]
    fn shape() {
        let d = generate(0);
        let n_days = d.dates.len();
        assert_eq!(d.relation.n_rows(), N_STOCKS * n_days);
        assert_eq!(
            d.relation.dim_column("stock").unwrap().dict().len(),
            N_STOCKS
        );
        assert_eq!(d.relation.dim_column("category").unwrap().dict().len(), 11);
        let subcats = d.relation.dim_column("subcategory").unwrap().dict().len();
        assert!((50..=60).contains(&subcats), "{subcats}");
    }

    #[test]
    fn index_follows_crash_and_rebound() {
        let d = generate(0);
        let w = d.workload();
        let ts = w.query.run(&d.relation).unwrap();
        let peak = day_of(&d.dates, "2020-02-19");
        let trough = day_of(&d.dates, "2020-03-23");
        let summer = day_of(&d.dates, "2020-08-25");
        let crash = ts.values[trough] / ts.values[peak];
        assert!(crash < 0.75, "crash ratio {crash}");
        assert!(ts.values[summer] > ts.values[trough] * 1.3);
        // September pullback.
        assert!(*ts.values.last().unwrap() < ts.values[summer]);
    }

    #[test]
    fn sector_stories_hold() {
        let d = generate(0);
        let rel = &d.relation;
        let cats = rel.dim_column("category").unwrap();
        let dates_col = rel.dim_column("date").unwrap();
        let prices = rel.measure("price").unwrap();
        let shares = rel.measure("share").unwrap();
        let cap = |sector: &str, date_idx: usize| -> f64 {
            let code = cats.dict().code_of(&sector.into()).unwrap();
            (0..rel.n_rows())
                .filter(|&r| cats.codes()[r] == code && dates_col.codes()[r] as usize == date_idx)
                .map(|r| prices[r] * shares[r])
                .sum()
        };
        let trough = day_of(&d.dates, "2020-03-23");
        let summer = day_of(&d.dates, "2020-08-25");
        // Tech rebounds strongly; financial barely moves off the bottom.
        let tech_rebound = cap("technology", summer) / cap("technology", trough);
        let fin_rebound = cap("financial", summer) / cap("financial", trough);
        assert!(tech_rebound > 1.5, "tech {tech_rebound}");
        assert!(fin_rebound < tech_rebound * 0.75, "fin {fin_rebound}");
        // Energy declines into early February.
        let feb = day_of(&d.dates, "2020-02-06");
        assert!(cap("energy", feb) < cap("energy", 0));
    }

    #[test]
    fn deterministic() {
        let a = generate(3);
        let b = generate(3);
        assert_eq!(
            a.relation.measure("price").unwrap(),
            b.relation.measure("price").unwrap()
        );
    }
}
