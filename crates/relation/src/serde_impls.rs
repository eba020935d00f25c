//! JSON serialization for substrate types (vendored-serde impls).
//!
//! [`AttrValue`] crosses the service boundary inside timestamps and
//! segment bounds. The encoding keeps the payload natural — integers as
//! JSON numbers, strings as JSON strings — which round-trips losslessly
//! because an `AttrValue` is exactly one of the two.
//!
//! [`Schema`] and [`AggQuery`] cross the boundary in dataset-registration
//! payloads (`POST /datasets`): a schema is an array of
//! `{"name", "kind"}` fields, an aggregation query is
//! `{"time_attr", "agg", "measure"}` with measure expressions tagged by
//! `"op"`.

use serde::{Deserialize, Error, Serialize, Value};

use crate::agg::AggFn;
use crate::query::{AggQuery, MeasureExpr};
use crate::schema::{ColumnType, Field, Schema};
use crate::value::AttrValue;

impl Serialize for AttrValue {
    fn serialize(&self) -> Value {
        match self {
            AttrValue::Int(i) => Value::Number(*i as f64),
            AttrValue::Str(s) => Value::String(s.to_string()),
        }
    }
}

impl Deserialize for AttrValue {
    fn deserialize(value: &Value) -> Result<Self, Error> {
        match value {
            Value::Number(_) => Ok(AttrValue::Int(i64::deserialize(value)?)),
            Value::String(s) => Ok(AttrValue::from(s.as_str())),
            other => Err(Error::new(format!(
                "expected number or string for an attribute value, got {}",
                other.type_name()
            ))),
        }
    }
}

impl Serialize for ColumnType {
    fn serialize(&self) -> Value {
        Value::String(
            match self {
                ColumnType::Dimension => "dimension",
                ColumnType::Measure => "measure",
            }
            .into(),
        )
    }
}

impl Deserialize for ColumnType {
    fn deserialize(value: &Value) -> Result<Self, Error> {
        match value.as_str() {
            Some("dimension") => Ok(ColumnType::Dimension),
            Some("measure") => Ok(ColumnType::Measure),
            _ => Err(Error::new(
                "expected column kind \"dimension\" or \"measure\"",
            )),
        }
    }
}

impl Serialize for Field {
    fn serialize(&self) -> Value {
        Value::object([
            ("name", Value::String(self.name().into())),
            ("kind", self.column_type().serialize()),
        ])
    }
}

impl Deserialize for Field {
    fn deserialize(value: &Value) -> Result<Self, Error> {
        let name: String = value.field("name")?;
        Ok(match value.field::<ColumnType>("kind")? {
            ColumnType::Dimension => Field::dimension(name),
            ColumnType::Measure => Field::measure(name),
        })
    }
}

impl Serialize for Schema {
    fn serialize(&self) -> Value {
        self.fields().serialize()
    }
}

impl Deserialize for Schema {
    fn deserialize(value: &Value) -> Result<Self, Error> {
        let fields: Vec<Field> = Vec::deserialize(value)?;
        Schema::new(fields).map_err(|e| Error::new(e.to_string()))
    }
}

impl Serialize for AggFn {
    fn serialize(&self) -> Value {
        Value::String(
            match self {
                AggFn::Sum => "sum",
                AggFn::Count => "count",
                AggFn::Avg => "avg",
                AggFn::Variance => "variance",
            }
            .into(),
        )
    }
}

impl Deserialize for AggFn {
    fn deserialize(value: &Value) -> Result<Self, Error> {
        match value.as_str() {
            Some("sum") => Ok(AggFn::Sum),
            Some("count") => Ok(AggFn::Count),
            Some("avg") => Ok(AggFn::Avg),
            Some("variance") => Ok(AggFn::Variance),
            _ => Err(Error::new(
                "expected aggregate \"sum\", \"count\", \"avg\" or \"variance\"",
            )),
        }
    }
}

impl Serialize for MeasureExpr {
    fn serialize(&self) -> Value {
        match self {
            MeasureExpr::Column(name) => Value::object([
                ("op", Value::String("column".into())),
                ("column", Value::String(name.clone())),
            ]),
            MeasureExpr::Product(a, b) => Value::object([
                ("op", Value::String("product".into())),
                ("left", Value::String(a.clone())),
                ("right", Value::String(b.clone())),
            ]),
            MeasureExpr::Scaled(inner, factor) => Value::object([
                ("op", Value::String("scaled".into())),
                ("expr", inner.serialize()),
                ("factor", factor.serialize()),
            ]),
        }
    }
}

impl Deserialize for MeasureExpr {
    fn deserialize(value: &Value) -> Result<Self, Error> {
        match value.get("op").and_then(Value::as_str) {
            Some("column") => Ok(MeasureExpr::Column(value.field("column")?)),
            Some("product") => Ok(MeasureExpr::Product(
                value.field("left")?,
                value.field("right")?,
            )),
            Some("scaled") => {
                let inner: MeasureExpr = value.field("expr")?;
                Ok(inner.scaled(value.field("factor")?))
            }
            _ => Err(Error::new(
                "expected measure op \"column\", \"product\" or \"scaled\"",
            )),
        }
    }
}

impl Serialize for AggQuery {
    fn serialize(&self) -> Value {
        Value::object([
            ("time_attr", Value::String(self.time_attr().into())),
            ("agg", self.agg().serialize()),
            ("measure", self.measure().serialize()),
        ])
    }
}

impl Deserialize for AggQuery {
    fn deserialize(value: &Value) -> Result<Self, Error> {
        Ok(AggQuery::new(
            value.field::<String>("time_attr")?,
            value.field("agg")?,
            value.field("measure")?,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn int_and_str_roundtrip_distinctly() {
        for v in [
            AttrValue::from(42),
            AttrValue::from(-3),
            AttrValue::from("NY"),
        ] {
            assert_eq!(AttrValue::deserialize(&v.serialize()), Ok(v));
        }
        // "42" the string and 42 the int stay distinguishable.
        let s = AttrValue::from("42");
        let i = AttrValue::from(42);
        assert_ne!(s.serialize(), i.serialize());
        assert_eq!(AttrValue::deserialize(&s.serialize()), Ok(s));
        assert_eq!(AttrValue::deserialize(&i.serialize()), Ok(i));
    }

    #[test]
    fn rejects_foreign_shapes() {
        assert!(AttrValue::deserialize(&Value::Bool(true)).is_err());
        assert!(AttrValue::deserialize(&Value::Number(1.5)).is_err());
        assert!(AttrValue::deserialize(&Value::Null).is_err());
    }

    #[test]
    fn schemas_roundtrip_and_reject_duplicates() {
        let schema = Schema::new(vec![
            Field::dimension("date"),
            Field::dimension("state"),
            Field::measure("sold"),
        ])
        .unwrap();
        let back = Schema::deserialize(&schema.serialize()).unwrap();
        assert_eq!(back.fields(), schema.fields());
        // Duplicate field names are rejected at the boundary, not later.
        let dup = Value::Array(vec![
            Field::dimension("a").serialize(),
            Field::measure("a").serialize(),
        ]);
        assert!(Schema::deserialize(&dup).is_err());
        assert!(ColumnType::deserialize(&Value::String("time".into())).is_err());
    }

    #[test]
    fn agg_queries_roundtrip_with_derived_measures() {
        let queries = [
            AggQuery::sum("date", "sold"),
            AggQuery::count("date", "sold"),
            AggQuery::new(
                "date",
                AggFn::Avg,
                MeasureExpr::product("price", "share").scaled(1.0 / 8933.0),
            ),
        ];
        for q in queries {
            let back = AggQuery::deserialize(&q.serialize()).unwrap();
            assert_eq!(back.time_attr(), q.time_attr());
            assert_eq!(back.agg(), q.agg());
            assert_eq!(back.measure(), q.measure());
        }
        assert!(AggFn::deserialize(&Value::String("median".into())).is_err());
        assert!(
            MeasureExpr::deserialize(&Value::object([("op", Value::String("sqrt".into()))]))
                .is_err()
        );
    }
}
