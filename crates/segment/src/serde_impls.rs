//! JSON serialization for segmentation types (vendored-serde impls).
//!
//! [`Segmentation`] deserialization funnels through [`Segmentation::new`],
//! so a scheme arriving over the wire is re-validated (cuts strictly
//! increasing, inside the interior) before it can be used.

use serde::{record, Deserialize, Error, Serialize, Value};

use crate::latency::{LatencyBreakdown, MemoCounters, ParallelTimings};
use crate::scheme::Segmentation;
use crate::segmenter::KSelection;
use crate::sketch::SketchConfig;
use crate::variance::VarianceMetric;

impl Serialize for KSelection {
    fn serialize(&self) -> Value {
        match self {
            KSelection::Auto { max_k } => Value::object([
                ("mode", Value::String("auto".into())),
                ("max_k", max_k.serialize()),
            ]),
            KSelection::Fixed(k) => Value::object([
                ("mode", Value::String("fixed".into())),
                ("k", k.serialize()),
            ]),
        }
    }
}

impl Deserialize for KSelection {
    fn deserialize(value: &Value) -> Result<Self, Error> {
        match value.get("mode").and_then(Value::as_str) {
            Some("auto") => Ok(KSelection::Auto {
                max_k: value.field("max_k")?,
            }),
            Some("fixed") => Ok(KSelection::Fixed(value.field("k")?)),
            _ => Err(Error::new(
                "expected K selection mode \"auto\" or \"fixed\"",
            )),
        }
    }
}

impl Serialize for Segmentation {
    fn serialize(&self) -> Value {
        Value::object([
            ("n_points", self.n_points().serialize()),
            ("cuts", self.cuts().serialize()),
        ])
    }
}

impl Deserialize for Segmentation {
    fn deserialize(value: &Value) -> Result<Self, Error> {
        let n: usize = value.field("n_points")?;
        let cuts: Vec<usize> = value.field("cuts")?;
        Segmentation::new(n, cuts).map_err(|e| Error::new(format!("invalid segmentation: {e}")))
    }
}

impl Serialize for VarianceMetric {
    fn serialize(&self) -> Value {
        Value::String(self.to_string())
    }
}

impl Deserialize for VarianceMetric {
    fn deserialize(value: &Value) -> Result<Self, Error> {
        let name = value
            .as_str()
            .ok_or_else(|| Error::new("expected a variance-metric name"))?;
        VarianceMetric::ALL
            .into_iter()
            .find(|m| m.to_string() == name)
            .ok_or_else(|| Error::new(format!("unknown variance metric {name:?}")))
    }
}

record!(SketchConfig {
    max_len_fraction,
    max_len_cap,
    size_factor,
});

// Members decode in the listed order, so the first bad one names the error.
record!(ParallelTimings {
    threads,
    cascading,
    segmentation,
});
record!(MemoCounters { hits, misses });
// Results predating the parallel layer / the memo carry no such blocks;
// defaults keep old payloads decodable.
record!(LatencyBreakdown {
    precompute,
    cascading,
    segmentation,
    parallel = ParallelTimings::default(),
    memo = MemoCounters::default(),
});

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn segmentation_roundtrips() {
        let s = Segmentation::new(12, vec![3, 7]).unwrap();
        assert_eq!(Segmentation::deserialize(&s.serialize()), Ok(s));
    }

    #[test]
    fn segmentation_revalidates_on_the_way_in() {
        let forged = Value::object([
            ("n_points", 10usize.serialize()),
            ("cuts", vec![9usize, 3].serialize()),
        ]);
        assert!(Segmentation::deserialize(&forged).is_err());
    }

    #[test]
    fn variance_metrics_roundtrip_all() {
        for m in VarianceMetric::ALL {
            assert_eq!(VarianceMetric::deserialize(&m.serialize()), Ok(m));
        }
        assert!(VarianceMetric::deserialize(&Value::String("nope".into())).is_err());
    }

    #[test]
    fn k_selection_roundtrips() {
        for k in [KSelection::Auto { max_k: 12 }, KSelection::Fixed(4)] {
            assert_eq!(KSelection::deserialize(&k.serialize()), Ok(k));
        }
        assert!(KSelection::deserialize(&Value::String("auto".into())).is_err());
    }

    #[test]
    fn sketch_config_roundtrips() {
        let c = SketchConfig::default();
        let back = SketchConfig::deserialize(&c.serialize()).unwrap();
        assert_eq!(back.max_len_cap, c.max_len_cap);
        assert_eq!(back.max_len_fraction, c.max_len_fraction);
        assert_eq!(back.size_factor, c.size_factor);
    }
}
