//! # tsexplain-relation
//!
//! The in-memory relational substrate used by TSExplain (ICDE 2023).
//!
//! The paper assumes an interactive analytics setting where a relation is
//! held in memory (integrated with tools like PowerBI) and aggregated time
//! series are produced by group-by queries of the form
//! `SELECT T, f(M) FROM R GROUP BY T` (paper §3.1.2). This crate provides:
//!
//! * [`Relation`] — a dictionary-encoded columnar store with dimension and
//!   measure columns,
//! * [`Predicate`]/[`Conjunction`] — equality predicates and conjunctions
//!   (the "data slice" vocabulary of explanations, Definition 3.1),
//! * [`AggState`]/[`AggFn`] — *decomposable* aggregate state supporting both
//!   merge and removal, which is what makes the absolute-change difference
//!   score (Definition 3.2) an O(1) endpoint computation (paper §5.2),
//! * [`AggQuery`] — the "what happened" group-by query producing an
//!   [`AggregatedTimeSeries`].
//!
//! Everything is deliberately simple, deterministic and single-threaded so
//! the complexity analysis of the paper carries over directly.

#![forbid(unsafe_code)]
#![deny(clippy::print_stdout)]
mod agg;
mod builder;
mod column;
mod csv;
mod dict;
mod error;
mod predicate;
mod query;
mod relation;
mod schema;
mod serde_impls;
mod value;
mod wire;

pub use agg::{AggFn, AggState};
pub use builder::{Datum, RelationBuilder};
pub use column::{Column, DimColumn};
pub use csv::csv_to_relation;
pub use dict::Dictionary;
pub use error::RelationError;
pub use predicate::{Conjunction, Predicate};
pub use query::{AggQuery, AggregatedTimeSeries, MeasureExpr};
pub use relation::Relation;
pub use schema::{ColumnType, Field, Schema};
pub use value::AttrValue;
pub use wire::{decode_wire_row, encode_wire_row, write_wire_row, write_wire_rows, WireRows};
