use std::fmt;

use tsexplain_relation::RelationError;

/// Errors produced while building an [`crate::ExplanationCube`].
#[derive(Clone, Debug, PartialEq)]
pub enum CubeError {
    /// A substrate error (unknown attribute, type mismatch, …).
    Relation(RelationError),
    /// No explain-by attributes were given.
    NoExplainBy,
    /// The time attribute was listed among the explain-by attributes.
    TimeAttrInExplainBy(String),
    /// The same attribute was listed twice in explain-by.
    DuplicateExplainBy(String),
    /// More explain-by attributes than [`crate::MAX_EXPLAIN_BY`].
    TooManyExplainBy(usize),
    /// The maximum explanation order β̄ must be at least 1.
    ZeroMaxOrder,
    /// The relation has no rows / the series has no points.
    EmptyInput,
    /// A time-window slice was empty or out of bounds.
    InvalidTimeSlice {
        /// Requested start point index (inclusive).
        lo: usize,
        /// Requested end point index (inclusive).
        hi: usize,
        /// Series length.
        n: usize,
    },
    /// An incremental append carried a timestamp before the cube's horizon
    /// (data restatement) — the caller must rebuild from scratch instead.
    RestatedTimestamp(String),
    /// An incremental append's row had the wrong number of explain-by
    /// values.
    ArityMismatch {
        /// Number of explain-by attributes the cube was built with.
        expected: usize,
        /// Number of values in the offending row.
        got: usize,
    },
    /// A persisted cube snapshot failed to decode (torn write, bit flip,
    /// wrong version). Recovery treats this as "no snapshot" and rebuilds —
    /// it must never panic.
    CorruptSnapshot(String),
    /// The request's cancel token tripped mid-build; the partial cube was
    /// discarded (all-or-nothing — nothing half-built reaches the cache).
    Cancelled,
}

impl fmt::Display for CubeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CubeError::Relation(e) => write!(f, "relation error: {e}"),
            CubeError::NoExplainBy => write!(f, "at least one explain-by attribute is required"),
            CubeError::TimeAttrInExplainBy(a) => {
                write!(
                    f,
                    "time attribute {a:?} cannot also be an explain-by attribute"
                )
            }
            CubeError::DuplicateExplainBy(a) => {
                write!(f, "duplicate explain-by attribute {a:?}")
            }
            CubeError::TooManyExplainBy(n) => write!(
                f,
                "{n} explain-by attributes; at most {} are supported",
                crate::MAX_EXPLAIN_BY
            ),
            CubeError::ZeroMaxOrder => write!(f, "max explanation order must be >= 1"),
            CubeError::EmptyInput => write!(f, "cannot build a cube from an empty relation"),
            CubeError::InvalidTimeSlice { lo, hi, n } => {
                write!(f, "time slice [{lo}, {hi}] invalid for a series of {n} points (need >= 2 points in range)")
            }
            CubeError::RestatedTimestamp(t) => {
                write!(f, "timestamp {t:?} lies before the cube's horizon; incremental append only accepts tail data")
            }
            CubeError::ArityMismatch { expected, got } => {
                write!(
                    f,
                    "appended row has {got} explain-by value(s); cube expects {expected}"
                )
            }
            CubeError::CorruptSnapshot(what) => {
                write!(f, "corrupt cube snapshot: {what}")
            }
            CubeError::Cancelled => {
                write!(f, "cube build cancelled before completing")
            }
        }
    }
}

impl std::error::Error for CubeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CubeError::Relation(e) => Some(e),
            _ => None,
        }
    }
}

impl From<RelationError> for CubeError {
    fn from(e: RelationError) -> Self {
        CubeError::Relation(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_context() {
        let e = CubeError::TimeAttrInExplainBy("date".into());
        assert!(e.to_string().contains("date"));
        let e: CubeError = RelationError::UnknownField("x".into()).into();
        assert!(e.to_string().contains("x"));
    }
}
