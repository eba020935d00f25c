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
    default_window_for, DatasetId, Deadline, ExplainRequest, RegistryError, Relation,
    SegmenterSpec, TsExplainError,
};
use tsexplain_eval::{distance_percent, rank_ascending};

use crate::error::ApiError;
use crate::http::{Request, Response};
use crate::server::ServerShared;
use crate::wire::{
    decode_rows, stats_body, AppendAck, AppendRowsBody, CompareBody, CompareResponse,
    DatasetCreated, RegisterDataset, StrategyComparison,
};

/// Dispatches one request against the shared server state.
pub fn handle(shared: &ServerShared, request: &Request) -> Response {
    match route(shared, request) {
        Ok(response) => response,
        Err(e) => e.into_response(),
    }
}

fn route(shared: &ServerShared, request: &Request) -> Result<Response, ApiError> {
    let segments: Vec<&str> = request.path.split('/').filter(|s| !s.is_empty()).collect();
    let method = request.method.as_str();
    match (method, segments.as_slice()) {
        ("POST", ["datasets"]) => register(shared, &request.body),
        ("POST", ["datasets", id, "rows"]) => append(shared, parse_id(id)?, &request.body),
        ("POST", ["datasets", id, "explain"]) => explain(shared, parse_id(id)?, &request.body),
        ("POST", ["datasets", id, "compare"]) => compare(shared, parse_id(id)?, &request.body),
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

fn parse_body<T: Deserialize>(body: &[u8]) -> Result<T, ApiError> {
    let text = std::str::from_utf8(body)
        .map_err(|_| ApiError::bad_request("request body is not UTF-8"))?;
    serde_json::from_str(text).map_err(|e| ApiError::bad_request(e.to_string()))
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
    let spec: RegisterDataset = parse_body(body)?;
    let rows = decode_rows(&spec.schema, &spec.rows)?;
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

fn append(shared: &ServerShared, id: DatasetId, body: &[u8]) -> Result<Response, ApiError> {
    let spec: AppendRowsBody = parse_body(body)?;
    // Row decoding needs the tenant's schema.
    let schema = {
        let handle = shared.registry.session(id).map_err(ApiError::from)?;
        let session = handle
            .lock()
            .map_err(|_| ApiError::internal(format!("dataset {id} is poisoned")))?;
        session.schema().clone()
    };
    let rows = decode_rows(&schema, &spec.rows)?;
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
/// flight recorder, and reports honest elapsed/budget milliseconds from
/// the deadline that was actually minted for this request.
fn deadline_response(
    shared: &ServerShared,
    deadline: Option<&Deadline>,
    stage: &'static str,
) -> ApiError {
    let m = &shared.metrics;
    m.deadline_exceeded.fetch_add(1, Ordering::Relaxed);
    if stage != "start" {
        m.cancelled_inflight.fetch_add(1, Ordering::Relaxed);
    }
    tsexplain_obs::trace::annotate("cancelled_at_stage", Value::String(stage.into()));
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
    e: RegistryError,
) -> ApiError {
    match e {
        RegistryError::Session(TsExplainError::Cancelled { stage }) => {
            deadline_response(shared, deadline, stage)
        }
        other => ApiError::from(other),
    }
}

/// Maps an engine failure, routing cancellation to the 504 path.
fn map_engine_error(
    shared: &ServerShared,
    deadline: Option<&Deadline>,
    e: TsExplainError,
) -> ApiError {
    match e {
        TsExplainError::Cancelled { stage } => deadline_response(shared, deadline, stage),
        other => ApiError::from(other),
    }
}

fn explain(shared: &ServerShared, id: DatasetId, body: &[u8]) -> Result<Response, ApiError> {
    let request = with_thread_default(shared, parse_body::<ExplainRequest>(body)?);
    let (request, deadline) = with_deadline(shared, request);
    let result = shared
        .registry
        .explain(id, &request)
        .map_err(|e| map_registry_error(shared, deadline.as_ref(), e))?;
    shared.metrics.observe_latency(&result.latency);
    shared
        .obs
        .strategy_hist
        .record(&result.strategy, result.latency.total());
    tsexplain_obs::trace::annotate("latency", result.latency.serialize());
    Ok(json_ok(200, &result))
}

/// Fans one request across every segmentation strategy against one
/// tenant: the tenant is locked **once** to prepare its shared cube (cache
/// keys are strategy-independent, so precompute is paid at most once and
/// the session is never re-locked per strategy), then the four strategies
/// run concurrently across the request's parallel context. Chunk-ordered
/// reduction keeps the response byte-identical at any thread count.
fn compare(shared: &ServerShared, id: DatasetId, body: &[u8]) -> Result<Response, ApiError> {
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
        .map_err(|e| map_registry_error(shared, deadline.as_ref(), e))?;
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
    let outcomes = {
        let _span = tsexplain_obs::trace::span("parallel_fanout");
        tsexplain::ParallelCtx::new(outer).map(specs.len(), |i| {
            prepared.explain(&strategy_base.clone().with_segmenter(specs[i]))
        })
    };
    shared.metrics.observe_fanout(outer);
    let mut results = Vec::with_capacity(specs.len());
    for outcome in outcomes {
        let result = outcome.map_err(|e| map_engine_error(shared, deadline.as_ref(), e))?;
        shared.metrics.observe_latency(&result.latency);
        shared
            .obs
            .strategy_hist
            .record(&result.strategy, result.latency.total());
        results.push(result);
    }
    // The reference (DP) row's breakdown is the one worth flight-recording.
    tsexplain_obs::trace::annotate("latency", results[0].latency.serialize());

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
