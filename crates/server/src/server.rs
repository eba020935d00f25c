//! The server proper: an epoll reactor multiplexing connections into a
//! bounded worker pool, admission control, metrics, graceful shutdown.
//!
//! Connection flow: the reactor thread ([`crate::reactor`]) owns the
//! listener and every idle connection; readable connections are handed to
//! the worker pool through a bounded queue (full queue ⇒ 429 shed), and
//! workers hand keep-alive connections back to the reactor between
//! requests. Per-tenant token buckets ([`crate::admission`]) run in the
//! worker once the request's path names a tenant.
//!
//! ```no_run
//! use tsexplain_server::{Server, ServerConfig};
//!
//! let handle = Server::bind(ServerConfig::default()).unwrap();
//! println!("tsx-server listening on http://{}", handle.local_addr());
//! handle.join(); // serve until shutdown() is called from another thread
//! ```
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::unimplemented
)]

use std::io::BufReader;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::Sender;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use serde::Value;
use tsexplain::{DataStore, SessionRegistry, DEFAULT_REGISTRY_BUDGET};
use tsexplain_epoll::Waker;
use tsexplain_obs::{CounterFamily, FlightEntry, FlightRecorder, HistogramFamily};

use crate::admission::TokenBuckets;
use crate::error::ApiError;
use crate::http::{self, ReadError};
use crate::pool::WorkerPool;
use crate::reactor::{self, Reactor};
use crate::router::{self, FlightNotes};

/// Tunables of a [`Server`].
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// The address to bind; port 0 picks an ephemeral port.
    pub addr: String,
    /// Worker threads handling requests.
    pub workers: usize,
    /// Global cube-memory budget handed to the [`SessionRegistry`].
    pub memory_budget: usize,
    /// Per-request body limit.
    pub max_body_bytes: usize,
    /// Idle cap per connection, measured from accept (`tsx-server
    /// --read-timeout-ms` is not exposed; this rides on the same knob as
    /// before): the reactor reaps parked connections idle this long, and
    /// workers use it as their per-read timeout against stalled senders.
    pub read_timeout: Duration,
    /// Open-connection admission limit (`tsx-server --max-conns`).
    /// Arrivals beyond it are answered 429 and closed at accept.
    pub max_conns: usize,
    /// Bound of the pending-request queue between the reactor and the
    /// workers (`tsx-server --queue-depth`). A readable connection that
    /// finds the queue full is shed with a 429 instead of waiting.
    pub queue_depth: usize,
    /// Per-tenant admission rate in requests/second (`tsx-server
    /// --tenant-rps`). Zero (the default) disables per-tenant limits.
    /// Tenants are keyed by dataset id, the same axis as
    /// `tsx_tenant_request_duration_seconds`.
    pub tenant_rps: f64,
    /// Default intra-query worker threads applied to requests that carry
    /// no explicit `threads` member (`tsx-server --threads`). `None`
    /// defers to the process default (`TSX_THREADS` / the machine).
    /// Results are byte-identical at any setting — the parallel layer's
    /// determinism contract.
    pub threads: Option<usize>,
    /// Data directory for the durable storage engine (`tsx-server
    /// --data-dir`). When set, the server recovers every tenant from it
    /// before accepting connections and WAL-logs each mutation before
    /// acknowledging it. Cubes are never written to it: a budget-evicted
    /// cube is dropped and rebuilt from the rows on its next request.
    /// `None` (the default) serves purely in memory — byte-identical
    /// behavior to a server without the storage engine.
    pub data_dir: Option<std::path::PathBuf>,
    /// Requests at or above this wall-clock threshold land in the
    /// slow-request flight recorder (`GET /debug/requests`). Zero records
    /// every request.
    pub slow_ms: u64,
    /// Server-wide request deadline cap (`tsx-server --request-timeout-ms`).
    /// When set, every explain/compare is minted a [`tsexplain::Deadline`]
    /// of at most this budget (a wire `timeout_ms` can tighten it, never
    /// loosen it) and compute is cooperatively cancelled once it trips —
    /// the request 504s with `kind=deadline_exceeded` and the worker is
    /// freed. `None` (the default) runs requests unbounded, byte-identical
    /// to a server without the deadline layer; a wire `timeout_ms` still
    /// applies to its own request.
    pub request_timeout: Option<Duration>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: std::thread::available_parallelism()
                .map(|n| n.get().min(8))
                .unwrap_or(4),
            memory_budget: DEFAULT_REGISTRY_BUDGET,
            max_body_bytes: http::DEFAULT_MAX_BODY_BYTES,
            read_timeout: Duration::from_secs(5),
            max_conns: 4096,
            queue_depth: 1024,
            tenant_rps: 0.0,
            threads: None,
            data_dir: None,
            slow_ms: 500,
            request_timeout: None,
        }
    }
}

/// How many slow requests the flight recorder retains.
const FLIGHT_CAPACITY: usize = 64;

/// Server-level counters (the `/metrics` payload's HTTP half). The metric
/// catalogue in `metrics.rs` names and documents each one.
#[derive(Debug, Default)]
pub struct ServerMetrics {
    /// Includes the 400/413 rejections of unparsable messages, which also
    /// count as `protocol_errors`.
    pub(crate) requests: AtomicU64,
    pub(crate) responses_2xx: AtomicU64,
    pub(crate) responses_4xx: AtomicU64,
    pub(crate) responses_5xx: AtomicU64,
    /// Includes connections shed at accept.
    pub(crate) connections: AtomicU64,
    pub(crate) shed: AtomicU64,
    pub(crate) throttled: AtomicU64,
    pub(crate) idle_reaped: AtomicU64,
    pub(crate) open_connections: AtomicU64,
    pub(crate) queue_depth: AtomicU64,
    pub(crate) parked_connections: AtomicU64,
    pub(crate) protocol_errors: AtomicU64,
    pub(crate) panics: AtomicU64,
    pub(crate) explain_nanos: AtomicU64,
    pub(crate) parallel_nanos: AtomicU64,
    pub(crate) parallel_explains: AtomicU64,
    /// Segment costs and unit-object lists (each, under centroid metrics,
    /// an avoided top-m derivation) the cube's segment memo served
    /// instead of recomputing.
    pub(crate) memo_hits: AtomicU64,
    pub(crate) memo_misses: AtomicU64,
    pub(crate) deadline_exceeded: AtomicU64,
    /// Tripped at a stage other than "start": in-flight work that was
    /// cooperatively abandoned and discarded.
    pub(crate) cancelled_inflight: AtomicU64,
}

impl ServerMetrics {
    pub(crate) fn observe(&self, status: u16) {
        self.requests.fetch_add(1, Ordering::Relaxed);
        let class = match status {
            200..=299 => &self.responses_2xx,
            400..=499 => &self.responses_4xx,
            _ => &self.responses_5xx,
        };
        class.fetch_add(1, Ordering::Relaxed);
    }

    /// Accumulates one answered explain's latency breakdown (router-side;
    /// includes every `/compare` strategy row).
    pub(crate) fn observe_latency(&self, latency: &tsexplain::LatencyBreakdown) {
        self.explain_nanos
            .fetch_add(latency.total().as_nanos() as u64, Ordering::Relaxed);
        self.parallel_nanos.fetch_add(
            latency.parallel_total().as_nanos() as u64,
            Ordering::Relaxed,
        );
        if latency.parallel.threads > 1 {
            self.parallel_explains.fetch_add(1, Ordering::Relaxed);
        }
        self.memo_hits
            .fetch_add(latency.memo.hits, Ordering::Relaxed);
        self.memo_misses
            .fetch_add(latency.memo.misses, Ordering::Relaxed);
    }

    /// Records a `/compare` strategy fan-out of `width` concurrent
    /// workers — the cross-strategy half of the parallelism, which the
    /// per-row latency blocks (reporting each strategy's *inner* thread
    /// share) would otherwise undercount.
    pub(crate) fn observe_fanout(&self, width: usize) {
        if width > 1 {
            self.parallel_explains.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// Observability state shared by every worker: latency histograms and
/// the slow-request flight recorder. All of it is a side channel — it
/// never feeds back into request handling.
#[derive(Debug)]
pub struct ServerObs {
    /// Wall-clock request latency by route label.
    pub route_hist: HistogramFamily,
    /// Engine explain time (`LatencyBreakdown::total`: stage time summed
    /// over workers) by strategy.
    pub strategy_hist: HistogramFamily,
    /// Wall-clock request latency by tenant (dataset id).
    pub tenant_hist: HistogramFamily,
    /// Per-tenant rate-limit rejections, keyed like `tenant_hist` so a
    /// tenant's throttles and its latency read off the same label axis.
    pub tenant_throttled: CounterFamily,
    /// The last N requests over the `--slow-ms` threshold.
    pub flight: FlightRecorder,
}

impl ServerObs {
    fn new(slow: Duration) -> Self {
        ServerObs {
            route_hist: HistogramFamily::new(),
            strategy_hist: HistogramFamily::new(),
            tenant_hist: HistogramFamily::new(),
            tenant_throttled: CounterFamily::new(),
            flight: FlightRecorder::new(FLIGHT_CAPACITY, slow),
        }
    }
}

/// State shared by every worker: the tenant registry plus counters.
#[derive(Debug)]
pub struct ServerShared {
    /// The multi-tenant session registry behind every endpoint.
    pub registry: SessionRegistry,
    /// HTTP-level counters.
    pub metrics: ServerMetrics,
    /// Histograms and the flight recorder.
    pub obs: ServerObs,
    pub(crate) workers: usize,
    /// Open-connection admission limit (`--max-conns`).
    pub(crate) max_conns: usize,
    /// Bound of the pending-request queue (`--queue-depth`).
    pub(crate) queue_capacity: usize,
    /// Per-tenant admission rate (`--tenant-rps`); zero = unlimited.
    pub(crate) tenant_rps: f64,
    /// The per-tenant token buckets, present when `tenant_rps > 0`.
    pub(crate) admission: Option<TokenBuckets>,
    /// The server-wide intra-query thread default (`--threads`), applied
    /// by the router to requests without their own `threads` member.
    pub(crate) threads: Option<usize>,
    /// The server-wide deadline cap (`--request-timeout-ms`); the router
    /// mints each explain/compare deadline from it plus the request's own
    /// wire `timeout_ms`.
    pub(crate) request_timeout: Option<Duration>,
}

/// The serving subsystem: an epoll reactor draining into a bounded
/// worker pool.
pub struct Server;

impl Server {
    /// Binds `config.addr` and starts serving. Returns immediately; the
    /// reactor and workers run on background threads until
    /// [`ServerHandle::shutdown`]. Epoll setup failures (unsupported
    /// platform, fd exhaustion) surface here, not from a background
    /// thread.
    pub fn bind(config: ServerConfig) -> std::io::Result<ServerHandle> {
        // Recovery runs before the listener accepts anything: the first
        // connection already sees every surviving tenant.
        let registry = match &config.data_dir {
            Some(dir) => {
                let (store, recovery) = DataStore::open(dir).map_err(std::io::Error::other)?;
                let recovered = recovery.tenants.len();
                let discarded = recovery.discarded_bytes;
                let (registry, notes) =
                    SessionRegistry::with_store(config.memory_budget, Arc::new(store), recovery);
                for note in &notes {
                    tsexplain_obs::log::warn(
                        "server",
                        "recovery note",
                        &[("note", Value::String(note.clone()))],
                    );
                }
                tsexplain_obs::log::info(
                    "server",
                    "recovery complete",
                    &[
                        ("data_dir", Value::String(dir.display().to_string())),
                        ("datasets", Value::Number(recovered as f64)),
                        ("discarded_bytes", Value::Number(discarded as f64)),
                        ("notes", Value::Number(notes.len() as f64)),
                    ],
                );
                registry
            }
            None => SessionRegistry::with_memory_budget(config.memory_budget),
        };
        let listener = TcpListener::bind(&config.addr)?;
        let local_addr = listener.local_addr()?;
        let waker = Arc::new(Waker::new()?);
        let poller = reactor::build_poller(&listener, &waker)?;
        let max_conns = config.max_conns.max(1);
        let queue_depth = config.queue_depth.max(1);
        let shared = Arc::new(ServerShared {
            registry,
            metrics: ServerMetrics::default(),
            obs: ServerObs::new(Duration::from_millis(config.slow_ms)),
            workers: config.workers.max(1),
            max_conns,
            queue_capacity: queue_depth,
            tenant_rps: config.tenant_rps,
            admission: (config.tenant_rps > 0.0).then(|| TokenBuckets::new(config.tenant_rps)),
            threads: config.threads,
            request_timeout: config.request_timeout,
        });
        let stopping = Arc::new(AtomicBool::new(false));
        let (returns_tx, returns_rx) = std::sync::mpsc::channel::<TcpStream>();

        let pool = {
            let shared = Arc::clone(&shared);
            let stopping = Arc::clone(&stopping);
            let waker = Arc::clone(&waker);
            let config = config.clone();
            WorkerPool::bounded(
                config.workers.max(1),
                queue_depth,
                move |stream: TcpStream| {
                    serve_ready(&shared, stream, &config, &stopping, &returns_tx, &waker);
                },
            )
        };

        let reactor = Reactor {
            poller,
            waker: Arc::clone(&waker),
            listener,
            pool,
            returns: returns_rx,
            shared: Arc::clone(&shared),
            stopping: Arc::clone(&stopping),
            max_conns,
            idle_timeout: config.read_timeout,
        };
        let thread = std::thread::Builder::new()
            .name("tsx-reactor".into())
            .spawn(move || reactor.run())?;

        Ok(ServerHandle {
            local_addr,
            shared,
            stopping,
            waker,
            reactor: Some(thread),
        })
    }
}

/// A running server: address, shared state, and the shutdown switch.
pub struct ServerHandle {
    local_addr: SocketAddr,
    shared: Arc<ServerShared>,
    stopping: Arc<AtomicBool>,
    waker: Arc<Waker>,
    reactor: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (resolves ephemeral ports).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The shared state (registry + metrics) — useful for in-process
    /// assertions in tests and benches.
    pub fn shared(&self) -> &ServerShared {
        &self.shared
    }

    /// Stops accepting, drains in-flight connections and joins every
    /// thread. Idempotent.
    pub fn shutdown(&mut self) {
        if self.stopping.swap(true, Ordering::SeqCst) {
            return;
        }
        // Ring the reactor's eventfd. (The old implementation unblocked a
        // blocking accept loop with a no-op TCP connect, which counted a
        // phantom connection in `tsx_connections_total` on every
        // shutdown.)
        self.waker.wake();
        if let Some(reactor) = self.reactor.take() {
            let _ = reactor.join();
        }
    }

    /// Blocks until the server shuts down (another thread must call
    /// [`ServerHandle::shutdown`], or the process runs forever — the
    /// standalone binary's serving mode).
    pub fn join(mut self) {
        if let Some(reactor) = self.reactor.take() {
            let _ = reactor.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Process-wide sequence feeding generated request ids.
static REQUEST_SEQ: AtomicU64 = AtomicU64::new(0);

/// A fresh request id for requests that arrived without `X-Request-Id`.
pub(crate) fn next_request_id() -> String {
    format!(
        "tsx-{}-{}",
        std::process::id(),
        REQUEST_SEQ.fetch_add(1, Ordering::Relaxed)
    )
}

/// The histogram/flight-recorder route label for a request — the same
/// shape classification the router dispatches on, folded to a closed set
/// so metric label cardinality stays bounded.
fn route_label(request: &http::Request) -> &'static str {
    let segments: Vec<&str> = request.path.split('/').filter(|s| !s.is_empty()).collect();
    match (request.method.as_str(), segments.as_slice()) {
        ("POST", ["datasets"]) => "register",
        ("POST", ["datasets", _, "rows"]) => "append",
        ("POST", ["datasets", _, "explain"]) => "explain",
        ("POST", ["datasets", _, "compare"]) => "compare",
        ("GET", ["datasets", _, "stats"]) => "stats",
        ("DELETE", ["datasets", _]) => "remove",
        ("GET", ["metrics"]) => "metrics",
        ("GET", ["healthz"]) => "healthz",
        ("GET", ["debug", "requests"]) => "debug_requests",
        _ => "other",
    }
}

/// The tenant (dataset id) a request addresses, when its path names one.
fn tenant_label(request: &http::Request) -> Option<String> {
    let mut segments = request.path.split('/').filter(|s| !s.is_empty());
    if segments.next() != Some("datasets") {
        return None;
    }
    let id = segments.next()?;
    id.parse::<u64>().ok().map(|n| n.to_string())
}

/// Answers an unparsable message: counted as a protocol error, stamped
/// with a generated request id like every other response.
fn reject_protocol_error(shared: &ServerShared, error: ApiError, writer: &mut TcpStream) {
    shared
        .metrics
        .protocol_errors
        .fetch_add(1, Ordering::Relaxed);
    let mut response = error.into_response();
    response
        .headers
        .push(("x-request-id".into(), next_request_id()));
    shared.metrics.observe(response.status);
    let _ = response.write_to(writer, false);
}

/// Per-tenant admission check: `Some((tenant, wait))` when the request
/// names a tenant whose bucket is empty. Requests that address no tenant
/// (health, metrics, register) are never throttled.
fn throttle(shared: &ServerShared, request: &http::Request) -> Option<(String, Duration)> {
    let buckets = shared.admission.as_ref()?;
    let tenant = tenant_label(request)?;
    match buckets.try_take(&tenant) {
        Ok(()) => None,
        Err(wait) => Some((tenant, wait)),
    }
}

/// One dispatched conversation: parse, admit, dispatch, respond — then
/// hand the idle connection back to the reactor instead of holding the
/// worker. The conversation leaves this worker at client close, protocol
/// error, read timeout, server shutdown, or (the common case) after a
/// keep-alive response with no pipelined bytes pending.
///
/// Every parsed request is timed into the per-route/per-tenant
/// histograms, stamped with its request id (the client's `X-Request-Id`
/// or a generated one), and — when it meets the `--slow-ms` threshold —
/// captured by the flight recorder with the notes the router left: the
/// answer's own latency block and the stage a deadline tripped at. Only
/// a recorded entry serializes them.
fn serve_ready(
    shared: &ServerShared,
    stream: TcpStream,
    config: &ServerConfig,
    stopping: &AtomicBool,
    returns: &Sender<TcpStream>,
    waker: &Waker,
) {
    let metrics = &shared.metrics;
    metrics.queue_depth.fetch_sub(1, Ordering::Relaxed);
    let close = || {
        metrics.open_connections.fetch_sub(1, Ordering::Relaxed);
    };
    // The reactor parks connections non-blocking; workers read blocking,
    // with the configured timeout guarding against stalled mid-request
    // senders.
    if stream.set_nonblocking(false).is_err() {
        close();
        return;
    }
    let _ = stream.set_read_timeout(Some(config.read_timeout));
    // A stalled *reader* must not pin a worker either: bound every write
    // so a client that stops draining its socket gets disconnected once
    // the kernel buffer fills, instead of wedging the response path.
    let _ = stream.set_write_timeout(Some(config.read_timeout));
    let _ = stream.set_nodelay(true);
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => {
            close();
            return;
        }
    };
    let mut reader = BufReader::new(stream);
    loop {
        let request = match http::read_request(&mut reader, config.max_body_bytes) {
            Ok(request) => request,
            Err(ReadError::ConnectionClosed) => {
                close();
                return;
            }
            Err(ReadError::TooLarge { limit, .. }) => {
                reject_protocol_error(shared, ApiError::payload_too_large(limit), &mut writer);
                close();
                return;
            }
            Err(ReadError::Malformed(m)) => {
                reject_protocol_error(
                    shared,
                    ApiError::bad_request(format!("malformed HTTP: {m}")),
                    &mut writer,
                );
                close();
                return;
            }
            Err(ReadError::Io(_)) => {
                // A transport failure or a read timeout against a stalled
                // sender — routine connection lifecycle, not client
                // garbage; no counter.
                close();
                return;
            }
        };
        let request_id = request
            .header("x-request-id")
            .map(str::to_string)
            .unwrap_or_else(next_request_id);
        let started = Instant::now();
        let mut notes = FlightNotes::default();
        let mut response = match throttle(shared, &request) {
            Some((tenant, wait)) => {
                metrics.throttled.fetch_add(1, Ordering::Relaxed);
                shared.obs.tenant_throttled.add(&tenant, 1);
                ApiError::too_many_requests(
                    "throttled",
                    format!(
                        "tenant {tenant} is over its {} request/s limit",
                        shared.tenant_rps
                    ),
                )
                .into_response_retry_after(wait)
            }
            // A panic in the engine must cost one 500, not a worker thread.
            None => match catch_unwind(AssertUnwindSafe(|| {
                router::route(shared, &request, &mut notes)
            })) {
                Ok(routed) => routed.unwrap_or_else(ApiError::into_response),
                Err(_) => {
                    metrics.panics.fetch_add(1, Ordering::Relaxed);
                    ApiError::internal("worker panicked while handling the request").into_response()
                }
            },
        };
        let elapsed = started.elapsed();

        metrics.observe(response.status);
        let route = route_label(&request);
        shared.obs.route_hist.record(route, elapsed);
        if let Some(tenant) = tenant_label(&request) {
            shared.obs.tenant_hist.record(&tenant, elapsed);
        }
        if shared.obs.flight.qualifies(elapsed) {
            shared.obs.flight.record(FlightEntry {
                seq: 0,
                request_id: request_id.clone(),
                method: request.method.clone(),
                path: request.path.clone(),
                status: response.status,
                duration_nanos: elapsed.as_nanos().min(u64::MAX as u128) as u64,
                annotations: notes.annotations(),
            });
        }
        tsexplain_obs::log::debug(
            "server",
            "request",
            &[
                ("request_id", Value::String(request_id.clone())),
                ("route", Value::String(route.into())),
                ("status", Value::Number(response.status as f64)),
                ("duration_ms", Value::Number(elapsed.as_secs_f64() * 1e3)),
            ],
        );
        response.headers.push(("x-request-id".into(), request_id));
        // Keep-alive is decided *after* dispatch: a shutdown that flips
        // mid-request must not advertise keep-alive on the very response
        // after which the server stops listening.
        let keep_alive = !request.wants_close() && !stopping.load(Ordering::SeqCst);
        if response.write_to(&mut writer, keep_alive).is_err() || !keep_alive {
            close();
            return;
        }
        // Pipelined bytes already buffered are served here — handing the
        // raw stream back to the reactor would discard the BufReader's
        // buffer.
        if !reader.buffer().is_empty() {
            continue;
        }
        // Idle keep-alive: park the connection back in the reactor and
        // free this worker. A closed return channel means the reactor is
        // gone (shutdown); dropping the stream closes it.
        let stream = reader.into_inner();
        drop(writer);
        if returns.send(stream).is_ok() {
            waker.wake();
        } else {
            close();
        }
        return;
    }
}
