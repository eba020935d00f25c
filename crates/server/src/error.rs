//! Structured error mapping: engine and registry failures become 4xx/5xx
//! JSON bodies with a stable machine-readable `kind`.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::unimplemented
)]

use serde::{Deserialize, Error, Serialize, Value};
use tsexplain::{CubeError, RegistryError, TsExplainError};

use crate::http::Response;

/// A failed API call: the HTTP status plus a JSON body
/// `{"status", "kind", "message"}` — and, for deadline 504s, an honest
/// accounting of the budget (`"elapsed_ms"`, `"budget_ms"`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ApiError {
    /// The HTTP status code.
    pub status: u16,
    /// A stable, machine-readable error class.
    pub kind: String,
    /// A human-readable description.
    pub message: String,
    /// For `deadline_exceeded` responses: how the budget was spent. Absent
    /// (and absent from the wire body) for every other error — the body
    /// stays additive, never restructured.
    pub deadline: Option<DeadlineInfo>,
}

/// The budget accounting attached to a `deadline_exceeded` 504.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DeadlineInfo {
    /// Wall-clock milliseconds spent before the request was abandoned.
    pub elapsed_ms: u64,
    /// The effective budget in milliseconds — the tighter of the server
    /// cap and the request's own `timeout_ms`.
    pub budget_ms: u64,
}

impl ApiError {
    /// Builds an error from parts.
    pub fn new(status: u16, kind: impl Into<String>, message: impl Into<String>) -> Self {
        ApiError {
            status,
            kind: kind.into(),
            message: message.into(),
            deadline: None,
        }
    }

    /// 504 for a request whose deadline tripped before the engine
    /// finished. All partial work was discarded (all-or-nothing), so a
    /// retry with a larger budget sees exactly the same request semantics.
    pub fn deadline_exceeded(stage: &str, elapsed_ms: u64, budget_ms: u64) -> Self {
        let mut e = ApiError::new(
            504,
            "deadline_exceeded",
            format!(
                "request exceeded its {budget_ms} ms budget during {stage}; \
                 partial work was discarded"
            ),
        );
        e.deadline = Some(DeadlineInfo {
            elapsed_ms,
            budget_ms,
        });
        e
    }

    /// 400 for unparsable or structurally invalid payloads.
    pub fn bad_request(message: impl Into<String>) -> Self {
        ApiError::new(400, "bad_request", message)
    }

    /// 404 for paths that route nowhere.
    pub fn not_found(path: &str) -> Self {
        ApiError::new(404, "not_found", format!("no route for {path}"))
    }

    /// 405 for a known path with the wrong method.
    pub fn method_not_allowed(method: &str, path: &str) -> Self {
        ApiError::new(
            405,
            "method_not_allowed",
            format!("{method} is not supported on {path}"),
        )
    }

    /// 413 for bodies over the configured limit.
    pub fn payload_too_large(limit: usize) -> Self {
        ApiError::new(
            413,
            "payload_too_large",
            format!("request body exceeds the {limit}-byte limit"),
        )
    }

    /// 429 for admission-control rejections. `kind` distinguishes the
    /// queue-full shed (`overloaded`) from a per-tenant rate limit
    /// (`throttled`); the caller adds the `retry-after` header via
    /// [`ApiError::into_response_retry_after`].
    pub fn too_many_requests(kind: impl Into<String>, message: impl Into<String>) -> Self {
        ApiError::new(429, kind, message)
    }

    /// Like [`ApiError::into_response`], with a `retry-after` header
    /// telling the client when trying again is worthwhile (whole seconds,
    /// rounded up — zero would invite an immediate, equally-doomed retry).
    pub fn into_response_retry_after(self, after: std::time::Duration) -> Response {
        let secs = after.as_secs() + u64::from(after.subsec_nanos() > 0);
        let mut response = self.into_response();
        response
            .headers
            .push(("retry-after".into(), secs.max(1).to_string()));
        response
    }

    /// 500 for bugs (worker panics, poisoned locks).
    pub fn internal(message: impl Into<String>) -> Self {
        ApiError::new(500, "internal", message)
    }

    /// The JSON response for this error.
    pub fn into_response(self) -> Response {
        let status = self.status;
        // Error bodies always encode today, but this is the last rung of
        // the error ladder — if encoding ever fails, hand-rolled JSON
        // beats a panic that would drop the connection with no response.
        let body = serde_json::to_string(&self).unwrap_or_else(|_| {
            "{\"status\":500,\"kind\":\"internal\",\
             \"message\":\"error body failed to encode\"}"
                .to_string()
        });
        Response::json(status, body)
    }
}

impl From<TsExplainError> for ApiError {
    fn from(e: TsExplainError) -> Self {
        match &e {
            // The client's request (or row payload) is at fault.
            TsExplainError::InvalidRequest(_) => {
                ApiError::new(400, "invalid_request", e.to_string())
            }
            TsExplainError::Relation(_) => ApiError::new(400, "invalid_rows", e.to_string()),
            // Asking before any data arrived is a state conflict, not a
            // malformed request: the same call succeeds after appends.
            TsExplainError::Cube(CubeError::EmptyInput) => {
                ApiError::new(409, "no_data", e.to_string())
            }
            TsExplainError::SeriesTooShort(_) => {
                ApiError::new(409, "series_too_short", e.to_string())
            }
            _ => ApiError::internal(e.to_string()),
        }
    }
}

impl From<RegistryError> for ApiError {
    fn from(e: RegistryError) -> Self {
        match e {
            RegistryError::UnknownDataset(id) => {
                ApiError::new(404, "unknown_dataset", format!("unknown dataset {id}"))
            }
            RegistryError::Session(inner) => inner.into(),
            RegistryError::Poisoned(_) => ApiError::internal(e.to_string()),
        }
    }
}

impl Serialize for ApiError {
    fn serialize(&self) -> Value {
        let mut doc = Value::object([
            ("status", self.status.serialize()),
            ("kind", self.kind.serialize()),
            ("message", self.message.serialize()),
        ]);
        if let (Some(info), Value::Object(fields)) = (&self.deadline, &mut doc) {
            fields.insert("elapsed_ms".into(), info.elapsed_ms.serialize());
            fields.insert("budget_ms".into(), info.budget_ms.serialize());
        }
        doc
    }
}

impl Deserialize for ApiError {
    fn deserialize(value: &Value) -> Result<Self, Error> {
        // Budget fields are additive: only deadline 504s carry them.
        let deadline = match (value.get("elapsed_ms"), value.get("budget_ms")) {
            (Some(elapsed), Some(budget)) => Some(DeadlineInfo {
                elapsed_ms: u64::deserialize(elapsed)?,
                budget_ms: u64::deserialize(budget)?,
            }),
            _ => None,
        };
        Ok(ApiError {
            status: value.field("status")?,
            kind: value.field("kind")?,
            message: value.field("message")?,
            deadline,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsexplain::InvalidRequest;

    #[test]
    fn engine_errors_map_to_stable_statuses() {
        let e: ApiError = TsExplainError::InvalidRequest(InvalidRequest::EmptyExplainBy).into();
        assert_eq!((e.status, e.kind.as_str()), (400, "invalid_request"));
        let e: ApiError = TsExplainError::Cube(CubeError::EmptyInput).into();
        assert_eq!((e.status, e.kind.as_str()), (409, "no_data"));
        let e: ApiError = RegistryError::UnknownDataset(tsexplain::DatasetId::from_u64(9)).into();
        assert_eq!((e.status, e.kind.as_str()), (404, "unknown_dataset"));
        assert!(e.message.contains('9'));
    }

    #[test]
    fn error_bodies_roundtrip_as_json() {
        let e = ApiError::bad_request("missing field `rows`");
        let response = e.clone().into_response();
        assert_eq!(response.status, 400);
        let text = String::from_utf8(response.body).unwrap();
        let back: ApiError = serde_json::from_str(&text).unwrap();
        assert_eq!(back, e);
    }
}
