//! Route dispatch: paths + methods to registry operations.
//!
//! | Method | Path                     | Body               | Response            |
//! |--------|--------------------------|--------------------|---------------------|
//! | POST   | `/datasets`              | `RegisterDataset`  | `DatasetCreated`    |
//! | POST   | `/datasets/{id}/rows`    | `AppendRowsBody`   | `AppendAck`         |
//! | POST   | `/datasets/{id}/explain` | `ExplainRequest`   | `ExplainResult`     |
//! | POST   | `/datasets/{id}/compare` | `CompareBody`      | `CompareResponse`   |
//! | GET    | `/datasets/{id}/stats`   | —                  | stats JSON          |
//! | DELETE | `/datasets/{id}`         | —                  | `{"removed": true}` |
//! | GET    | `/metrics`               | —                  | metrics JSON        |
//! | GET    | `/metrics?format=prometheus` | —              | exposition text     |
//! | GET    | `/debug/requests`        | —                  | flight recorder JSON |
//! | GET    | `/healthz`               | —                  | `{"status": "ok"}`  |
//!
//! `/compare` fans one base request out across every segmentation strategy
//! (the paper's §7.2 harness): the DP plus the three shape baselines run
//! against the tenant's shared cube, and the response carries side-by-side
//! results with `tsexplain-eval` distance/rank metrics.
//!
//! Every error — parse failure, unknown id, invalid request, worker panic —
//! maps through [`ApiError`] to a 4xx/5xx JSON body.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::unimplemented
)]

use std::sync::atomic::Ordering;

use serde::{Deserialize, Serialize, Value};
use tsexplain::{
    default_window_for, DatasetId, Deadline, ExplainRequest, LatencyBreakdown, RegistryError,
    Relation, SegmenterSpec, TsExplainError,
};
use tsexplain_eval::{distance_percent, rank_ascending};

use crate::error::ApiError;
use crate::http::{Request, Response};
use crate::server::ServerShared;
use crate::wire::{
    body_text, decode_wire_rows, read_append_body, read_register_body, stats_body, AppendAck,
    CompareBody, CompareResponse, DatasetCreated, StrategyComparison,
};

/// What the flight recorder keeps of a request beside its response: the
/// latency block of the answer (a `/compare`'s DP row's) and the stage a
/// deadline tripped at.
#[derive(Default)]
pub(crate) struct FlightNotes {
    latency: Option<LatencyBreakdown>,
    cancelled_at_stage: Option<&'static str>,
}

impl FlightNotes {
    /// The notes as a flight entry's `annotations` object.
    pub(crate) fn annotations(&self) -> Value {
        let latency = self.latency.map(|l| ("latency", l.serialize()));
        let stage = self
            .cancelled_at_stage
            .map(|stage| ("cancelled_at_stage", Value::String(stage.into())));
        Value::object(latency.into_iter().chain(stage))
    }
}

/// Dispatches one request against the shared server state.
pub fn handle(shared: &ServerShared, request: &Request) -> Response {
    route(shared, request, &mut FlightNotes::default()).unwrap_or_else(ApiError::into_response)
}

/// Dispatches one request, leaving in `notes` what the flight recorder
/// keeps of it.
pub(crate) fn route(
    shared: &ServerShared,
    request: &Request,
    notes: &mut FlightNotes,
) -> Result<Response, ApiError> {
    let segments: Vec<&str> = request.path.split('/').filter(|s| !s.is_empty()).collect();
    let method = request.method.as_str();
    match (method, segments.as_slice()) {
        ("POST", ["datasets"]) => register(shared, &request.body),
        ("POST", ["datasets", id, "rows"]) => append(shared, parse_id(id)?, &request.body),
        ("POST", ["datasets", id, "explain"]) => {
            explain(shared, parse_id(id)?, &request.body, notes)
        }
        ("POST", ["datasets", id, "compare"]) => {
            compare(shared, parse_id(id)?, &request.body, notes)
        }
        ("GET", ["datasets", id, "stats"]) => stats(shared, parse_id(id)?),
        ("DELETE", ["datasets", id]) => remove(shared, parse_id(id)?),
        ("GET", ["metrics"]) => metrics(shared, request),
        ("GET", ["debug", "requests"]) => Ok(json_ok(200, &shared.obs.flight.snapshot_value())),
        ("GET", ["healthz"]) => Ok(json_ok(
            200,
            &Value::object([("status", Value::String("ok".into()))]),
        )),
        // Known paths with the wrong verb get a 405, everything else 404.
        (_, ["datasets"]) | (_, ["metrics"]) | (_, ["healthz"]) | (_, ["debug", "requests"]) => {
            Err(ApiError::method_not_allowed(method, &request.path))
        }
        (_, ["datasets", ..]) if segments.len() <= 3 => {
            Err(ApiError::method_not_allowed(method, &request.path))
        }
        _ => Err(ApiError::not_found(&request.path)),
    }
}

/// `/metrics` in its two formats: the byte-stable JSON document
/// (default, also `?format=json`) and the Prometheus text exposition.
fn metrics(shared: &ServerShared, request: &Request) -> Result<Response, ApiError> {
    match request.query_param("format") {
        None | Some("json") => Ok(json_ok(200, &shared.metrics_value())),
        Some("prometheus") => Ok(Response::text(200, shared.metrics_prometheus())),
        Some(other) => Err(ApiError::bad_request(format!(
            "unknown metrics format {other:?} (expected json or prometheus)"
        ))),
    }
}

fn parse_id(raw: &str) -> Result<DatasetId, ApiError> {
    raw.parse::<u64>()
        .map(DatasetId::from_u64)
        .map_err(|_| ApiError::bad_request(format!("dataset id {raw:?} is not an integer")))
}

pub(crate) fn parse_body<T: Deserialize>(body: &[u8]) -> Result<T, ApiError> {
    serde_json::from_str(body_text(body)?).map_err(|e| ApiError::bad_request(e.to_string()))
}

fn json_ok<T: Serialize + ?Sized>(status: u16, payload: &T) -> Response {
    // Response bodies always encode today, but a panic here would drop
    // the connection with nothing on the wire — degrade to a 500 instead.
    match serde_json::to_string(payload) {
        Ok(body) => Response::json(status, body),
        Err(e) => ApiError::internal(format!("response encoding failed: {e}")).into_response(),
    }
}

fn register(shared: &ServerShared, body: &[u8]) -> Result<Response, ApiError> {
    let spec = read_register_body(body)?;
    let rows = decode_wire_rows(&spec.schema, &spec.rows)?;
    let n_rows = rows.len();
    let mut builder = Relation::builder(spec.schema);
    for row in rows {
        builder
            .push_row(row)
            .map_err(|e| ApiError::bad_request(e.to_string()))?;
    }
    let id = shared
        .registry
        .register(builder.finish(), spec.query)
        .map_err(ApiError::from)?;
    let n_points = shared
        .registry
        .dataset_stats(id)
        .map(|s| s.n_points)
        .unwrap_or(0);
    Ok(json_ok(
        201,
        &DatasetCreated {
            dataset_id: id.as_u64(),
            n_rows,
            n_points,
        },
    ))
}

/// The order of failures is a malformed body (400), then an unknown
/// dataset (404), then a bad row (400 naming it): the body is read whole
/// before the tenant is looked up, and its rows are typed after.
fn append(shared: &ServerShared, id: DatasetId, body: &[u8]) -> Result<Response, ApiError> {
    let wire_rows = read_append_body(body)?;
    // Row decoding needs the tenant's schema.
    let schema = {
        let handle = shared.registry.session(id).map_err(ApiError::from)?;
        let session = handle
            .lock()
            .map_err(|_| ApiError::internal(format!("dataset {id} is poisoned")))?;
        session.schema().clone()
    };
    let rows = decode_wire_rows(&schema, &wire_rows)?;
    let appended = rows.len();
    shared
        .registry
        .append_rows(id, rows)
        .map_err(ApiError::from)?;
    let n_points = shared
        .registry
        .dataset_stats(id)
        .map(|s| s.n_points)
        .unwrap_or(0);
    Ok(json_ok(200, &AppendAck { appended, n_points }))
}

/// Applies the server-wide `--threads` default to requests that carry no
/// explicit thread count of their own.
fn with_thread_default(shared: &ServerShared, request: ExplainRequest) -> ExplainRequest {
    match (request.threads(), shared.threads) {
        (None, Some(t)) => request.with_threads(t),
        _ => request,
    }
}

/// Mints the request's deadline — the tighter of the server cap
/// (`--request-timeout-ms`) and the request's own wire `timeout_ms` (a
/// client can tighten the cap, never loosen it) — and attaches its cancel
/// token so the engine's hot loops observe it. With neither configured
/// the request runs unbounded, byte-identical to a server without
/// deadlines.
fn with_deadline(
    shared: &ServerShared,
    request: ExplainRequest,
) -> (ExplainRequest, Option<Deadline>) {
    match Deadline::mint(shared.request_timeout, request.timeout_ms()) {
        Some(deadline) => {
            let request = request.with_cancel(deadline.token().clone());
            (request, Some(deadline))
        }
        None => (request, None),
    }
}

/// Turns a cooperative-cancellation error into the deadline 504: bumps
/// the counters (every deadline 504; plus `cancelled_inflight` when the
/// trip happened after engine compute began), leaves the stage in the
/// flight notes, and reports honest elapsed/budget milliseconds from
/// the deadline that was actually minted for this request.
fn deadline_response(
    shared: &ServerShared,
    deadline: Option<&Deadline>,
    notes: &mut FlightNotes,
    stage: &'static str,
) -> ApiError {
    let m = &shared.metrics;
    m.deadline_exceeded.fetch_add(1, Ordering::Relaxed);
    if stage != "start" {
        m.cancelled_inflight.fetch_add(1, Ordering::Relaxed);
    }
    notes.cancelled_at_stage = Some(stage);
    let (elapsed_ms, budget_ms) = match deadline {
        Some(d) => (d.elapsed_ms(), d.budget_ms()),
        // Unreachable in practice — a token only exists because a deadline
        // was minted — but a zeroed accounting beats a panic.
        None => (0, 0),
    };
    ApiError::deadline_exceeded(stage, elapsed_ms, budget_ms)
}

/// Maps a registry failure, routing cancellation to the 504 path.
fn map_registry_error(
    shared: &ServerShared,
    deadline: Option<&Deadline>,
    notes: &mut FlightNotes,
    e: RegistryError,
) -> ApiError {
    match e {
        RegistryError::Session(e) => map_engine_error(shared, deadline, notes, e),
        other => ApiError::from(other),
    }
}

/// Maps an engine failure, routing cancellation to the 504 path.
fn map_engine_error(
    shared: &ServerShared,
    deadline: Option<&Deadline>,
    notes: &mut FlightNotes,
    e: TsExplainError,
) -> ApiError {
    match e {
        TsExplainError::Cancelled { stage } => deadline_response(shared, deadline, notes, stage),
        other => ApiError::from(other),
    }
}

fn explain(
    shared: &ServerShared,
    id: DatasetId,
    body: &[u8],
    notes: &mut FlightNotes,
) -> Result<Response, ApiError> {
    let request = with_thread_default(shared, parse_body::<ExplainRequest>(body)?);
    let (request, deadline) = with_deadline(shared, request);
    let result = shared
        .registry
        .explain(id, &request)
        .map_err(|e| map_registry_error(shared, deadline.as_ref(), notes, e))?;
    shared.metrics.observe_latency(&result.latency);
    shared
        .obs
        .strategy_hist
        .record(&result.strategy, result.latency.total());
    notes.latency = Some(result.latency);
    Ok(json_ok(200, &result))
}

/// Fans one request across every segmentation strategy against one
/// tenant: the tenant is locked **once** to prepare its shared cube (cache
/// keys are strategy-independent, so precompute is paid at most once and
/// the session is never re-locked per strategy), then the four strategies
/// run concurrently across the request's parallel context. Chunk-ordered
/// reduction keeps the response byte-identical at any thread count.
fn compare(
    shared: &ServerShared,
    id: DatasetId,
    body: &[u8],
    notes: &mut FlightNotes,
) -> Result<Response, ApiError> {
    let spec: CompareBody = parse_body(body)?;
    let base = with_thread_default(shared, spec.request.clone());
    // One deadline covers the whole comparison — cube acquisition plus
    // every strategy row. The token rides `base` into each per-strategy
    // clone below.
    let (base, deadline) = with_deadline(shared, base);
    // One lock hold: validate + acquire (or build) the tenant's cube. The
    // prepared cube reports the series length the request actually
    // explains (after any time-range slicing), which is the length the
    // auto-sized baseline window must fit.
    let prepared = shared
        .registry
        .prepare(id, &base.clone().with_segmenter(SegmenterSpec::Dp))
        .map_err(|e| map_registry_error(shared, deadline.as_ref(), notes, e))?;
    let window = spec
        .window
        .unwrap_or_else(|| default_window_for(prepared.n_points()));
    let specs = SegmenterSpec::all_with_window(window);
    // Window structural validity (≥ 2) is schema-free per-strategy state
    // the prepared path no longer re-validates per request; check it once
    // here so an explicit `"window": 1` is a 400, not a degenerate run.
    for s in &specs {
        s.validate()
            .map_err(|e| ApiError::from(TsExplainError::InvalidRequest(e)))?;
    }

    // Lock released: run the fan-out across the parallel context, every
    // strategy reading the same immutable cube snapshot. The request's
    // thread budget is *split*, not multiplied: `outer` workers run the
    // strategies and each strategy's pipeline gets the remaining share,
    // so a `--threads 8` compare spawns ~8 threads total, not 32.
    // Determinism makes the split a pure scheduling choice — the response
    // is byte-identical however the budget is divided.
    let total_threads = base.parallel_ctx().threads();
    let outer = total_threads.min(specs.len()).max(1);
    let inner = (total_threads / outer).max(1);
    let strategy_base = base.clone().with_threads(inner);
    let outcomes = tsexplain::ParallelCtx::new(outer).map(specs.len(), |i| {
        prepared.explain(&strategy_base.clone().with_segmenter(specs[i]))
    });
    shared.metrics.observe_fanout(outer);
    let mut results = Vec::with_capacity(specs.len());
    for outcome in outcomes {
        let result = outcome.map_err(|e| map_engine_error(shared, deadline.as_ref(), notes, e))?;
        shared.metrics.observe_latency(&result.latency);
        shared
            .obs
            .strategy_hist
            .record(&result.strategy, result.latency.total());
        results.push(result);
    }
    // The reference (DP) row's breakdown is the one worth flight-recording.
    notes.latency = Some(results[0].latency);

    let reference_cuts = results[0].segmentation.cuts().to_vec();
    let objectives: Vec<f64> = results.iter().map(|r| r.total_variance).collect();
    let ranks = rank_ascending(&objectives);
    let strategies = results
        .into_iter()
        .zip(ranks)
        .map(|(result, objective_rank)| StrategyComparison {
            strategy: result.strategy.clone(),
            distance_percent_vs_dp: distance_percent(&result.segmentation, &reference_cuts),
            objective_rank,
            result,
        })
        .collect();
    Ok(json_ok(
        200,
        &CompareResponse {
            reference: "dp".into(),
            window,
            strategies,
        },
    ))
}

fn stats(shared: &ServerShared, id: DatasetId) -> Result<Response, ApiError> {
    let snapshot = shared.registry.dataset_stats(id).map_err(ApiError::from)?;
    Ok(json_ok(200, &stats_body(&snapshot)))
}

fn remove(shared: &ServerShared, id: DatasetId) -> Result<Response, ApiError> {
    if shared.registry.remove(id).map_err(ApiError::from)? {
        Ok(json_ok(
            200,
            &Value::object([("removed", Value::Bool(true))]),
        ))
    } else {
        Err(tsexplain::RegistryError::UnknownDataset(id).into())
    }
}
