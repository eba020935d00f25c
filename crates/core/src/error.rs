use std::fmt;

use tsexplain_cube::CubeError;
use tsexplain_relation::RelationError;
use tsexplain_segment::SegmentError;

use crate::request::InvalidRequest;

/// Errors surfaced by the TSExplain engine and serving session.
#[derive(Clone, Debug, PartialEq)]
pub enum TsExplainError {
    /// The request failed upfront validation (unknown attributes, empty
    /// explain-by, infeasible K, empty time window, …).
    InvalidRequest(InvalidRequest),
    /// Cube construction failed.
    Cube(CubeError),
    /// A substrate error.
    Relation(RelationError),
    /// Segmentation failed (e.g. an infeasible fixed K).
    Segment(SegmentError),
    /// The aggregated series has fewer than two points.
    SeriesTooShort(usize),
    /// The durable store rejected a write the request's acknowledgement
    /// depends on (WAL append or checkpoint I/O). The in-memory state may
    /// be ahead of disk; the unacknowledged mutation is the part a crash
    /// would lose.
    Storage(String),
    /// The request's deadline (or an explicit cancel) tripped mid-compute.
    /// All-or-nothing: every partial result was discarded, caches and
    /// counters are as if the request never ran. `stage` names the pipeline
    /// stage that observed the trip.
    Cancelled {
        /// Which stage observed the cancellation ("start", "cube",
        /// "segmentation", "cascading").
        stage: &'static str,
    },
}

impl fmt::Display for TsExplainError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TsExplainError::InvalidRequest(e) => write!(f, "invalid request: {e}"),
            TsExplainError::Cube(e) => write!(f, "cube error: {e}"),
            TsExplainError::Relation(e) => write!(f, "relation error: {e}"),
            TsExplainError::Segment(e) => write!(f, "segmentation error: {e}"),
            TsExplainError::SeriesTooShort(n) => {
                write!(f, "aggregated series has {n} point(s); need at least 2")
            }
            TsExplainError::Storage(e) => write!(f, "storage error: {e}"),
            TsExplainError::Cancelled { stage } => {
                write!(
                    f,
                    "request cancelled during {stage}; partial work discarded"
                )
            }
        }
    }
}

impl std::error::Error for TsExplainError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TsExplainError::InvalidRequest(e) => Some(e),
            TsExplainError::Cube(e) => Some(e),
            TsExplainError::Relation(e) => Some(e),
            TsExplainError::Segment(e) => Some(e),
            _ => None,
        }
    }
}

impl From<InvalidRequest> for TsExplainError {
    fn from(e: InvalidRequest) -> Self {
        TsExplainError::InvalidRequest(e)
    }
}

impl From<CubeError> for TsExplainError {
    fn from(e: CubeError) -> Self {
        match e {
            // Cancellation is a property of the request, not of the cube:
            // surface it uniformly so the serving layer maps one variant.
            CubeError::Cancelled => TsExplainError::Cancelled { stage: "cube" },
            e => TsExplainError::Cube(e),
        }
    }
}

impl From<RelationError> for TsExplainError {
    fn from(e: RelationError) -> Self {
        TsExplainError::Relation(e)
    }
}

impl From<SegmentError> for TsExplainError {
    fn from(e: SegmentError) -> Self {
        match e {
            SegmentError::Cancelled => TsExplainError::Cancelled {
                stage: "segmentation",
            },
            e => TsExplainError::Segment(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_and_display() {
        let e: TsExplainError = CubeError::NoExplainBy.into();
        assert!(e.to_string().contains("explain-by"));
        let e: TsExplainError = SegmentError::TooFewPoints(1).into();
        assert!(e.to_string().contains("segmentation"));
        assert!(TsExplainError::SeriesTooShort(1).to_string().contains('1'));
    }
}
