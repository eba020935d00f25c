//! The `/metrics` catalogue: every metric the server reports, declared
//! once. Each table below is one object of the JSON document. A row's doc
//! comment is its Prometheus help text, the name before the colon its
//! Prometheus family, and its `Read` value gives the kind, the JSON key
//! and how to read the value. The JSON document and the Prometheus
//! exposition both render by walking the tables, so adding a metric is
//! adding a row.
//!
//! A scalar renders to both formats: a number and a sample, or JSON `null`
//! and no sample. Histograms and counters keyed by a run-time label have
//! no JSON form.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::unimplemented
)]

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};

use serde::Value;
use tsexplain::{DataStore, ParallelCtx, RegistryStats, SessionStats};
use tsexplain_obs::{Exposition, HistogramSnapshot};

use crate::server::ServerShared;
use Read::{Counter, CounterBy, CounterByClass, Gauge, Histogram, HistogramBy};

/// A scalar reading; `None` renders as JSON `null` and as no sample.
type Scalar<S> = fn(&S) -> Option<f64>;

/// How a row reads its value from its table's source `S`. The variant is
/// the Prometheus kind; a scalar's first field is its JSON key.
enum Read<S: 'static> {
    Counter(&'static str, Scalar<S>),
    Gauge(&'static str, Scalar<S>),
    /// A counter per fixed label value; in JSON, an object keyed by them.
    CounterByClass(
        &'static str,
        &'static str,
        &'static [(&'static str, Scalar<S>)],
    ),
    /// Counters keyed by a label whose values appear at run time.
    CounterBy(&'static str, fn(&S) -> Vec<(String, u64)>),
    /// Histograms keyed by a label whose values appear at run time.
    HistogramBy(&'static str, fn(&S) -> Vec<(String, HistogramSnapshot)>),
    Histogram(fn(&S) -> HistogramSnapshot),
}

/// One row: a Prometheus family and, for a scalar, its JSON twin.
struct Metric<S: 'static> {
    name: &'static str,
    help: &'static str,
    read: Read<S>,
}

/// A table's rows, each written `/// help` then `prometheus_name: read,`.
/// A row without a doc comment does not compile.
macro_rules! rows {
    ($($(#[doc = $help:literal])+ $name:ident: $read:expr,)+) => {
        &[$(Metric {
            name: stringify!($name),
            help: concat!($($help),+).trim_ascii_start(),
            read: $read,
        }),+]
    };
}

fn load(counter: &AtomicU64) -> Option<f64> {
    Some(counter.load(Ordering::Relaxed) as f64)
}

/// `server`: HTTP traffic, and the latency histograms.
static SERVER: &[Metric<ServerShared>] = rows! {
    /// Worker threads handling requests.
    tsx_workers: Gauge("workers", |s| Some(s.workers as f64)),
    /// Connections accepted.
    tsx_connections_total: Counter("connections", |s| load(&s.metrics.connections)),
    /// Requests answered with a response.
    tsx_requests_total: Counter("requests", |s| load(&s.metrics.requests)),
    /// Responses by status class.
    tsx_responses_total: CounterByClass("responses", "class", &[
        ("2xx", |s| load(&s.metrics.responses_2xx)),
        ("4xx", |s| load(&s.metrics.responses_4xx)),
        ("5xx", |s| load(&s.metrics.responses_5xx)),
    ]),
    /// Requests that never parsed (protocol garbage, oversized).
    tsx_protocol_errors_total: Counter("protocol_errors", |s| load(&s.metrics.protocol_errors)),
    /// Worker panics converted to 500s.
    tsx_panics_total: Counter("panics", |s| load(&s.metrics.panics)),
    /// Wall-clock request latency by route.
    tsx_request_duration_seconds: HistogramBy("route", |s| s.obs.route_hist.snapshot_all()),
    /// Engine explain time by segmentation strategy: stage time summed over
    /// workers, which equals wall-clock at 1 thread.
    tsx_explain_duration_seconds:
        HistogramBy("strategy", |s| s.obs.strategy_hist.snapshot_all()),
    /// Wall-clock request latency by tenant (dataset id).
    tsx_tenant_request_duration_seconds:
        HistogramBy("tenant", |s| s.obs.tenant_hist.snapshot_all()),
};

/// `server.admission`: connection and tenant admission control.
static ADMISSION: &[Metric<ServerShared>] = rows! {
    /// Open-connection admission limit (--max-conns).
    tsx_max_connections: Gauge("max_connections", |s| Some(s.max_conns as f64)),
    /// Connections currently open (parked or in a worker).
    tsx_open_connections: Gauge("open_connections", |s| load(&s.metrics.open_connections)),
    /// Idle keep-alive connections parked in the epoll set.
    tsx_parked_connections:
        Gauge("parked_connections", |s| load(&s.metrics.parked_connections)),
    /// Bound of the pending-request queue (--queue-depth).
    tsx_queue_capacity: Gauge("queue_capacity", |s| Some(s.queue_capacity as f64)),
    /// Readable connections waiting in the worker queue.
    tsx_queue_depth: Gauge("queue_depth", |s| load(&s.metrics.queue_depth)),
    /// Connections answered 429 by admission control (connection limit or full queue).
    tsx_shed_total: Counter("shed", |s| load(&s.metrics.shed)),
    /// Requests rejected 429 by per-tenant rate limits.
    tsx_throttled_total: Counter("throttled", |s| load(&s.metrics.throttled)),
    /// Per-tenant rate-limit rejections, by tenant (dataset id).
    tsx_tenant_throttled_total: CounterBy("tenant", |s| s.obs.tenant_throttled.snapshot_all()),
    /// Idle connections closed by the reactor's sweep.
    tsx_idle_reaped_total: Counter("idle_reaped", |s| load(&s.metrics.idle_reaped)),
    /// Per-tenant admission rate in requests per second (--tenant-rps); 0 is unlimited.
    tsx_tenant_rps: Gauge("tenant_rps", |s| Some(s.tenant_rps)),
};

/// `server.parallel`: the intra-query parallel layer.
static PARALLEL: &[Metric<ServerShared>] = rows! {
    /// Intra-query threads for requests without their own threads member
    /// (--threads, else TSX_THREADS or the machine).
    tsx_default_threads: Gauge("default_threads", |s| {
        Some(s.threads.unwrap_or_else(|| ParallelCtx::from_env().threads()) as f64)
    }),
    /// Engine stage time summed over workers (equal to wall-clock at 1
    /// thread), summed over answered explains, in nanoseconds.
    tsx_explain_nanoseconds_total: Counter("explain_nanos", |s| load(&s.metrics.explain_nanos)),
    /// Wall-clock of the intra-query regions that fanned out across more
    /// than one worker, summed over answered explains, in nanoseconds.
    tsx_parallel_nanoseconds_total:
        Counter("parallel_nanos", |s| load(&s.metrics.parallel_nanos)),
    /// Explain answers produced by a parallel context.
    tsx_parallel_explains_total:
        Counter("parallel_explains", |s| load(&s.metrics.parallel_explains)),
};

/// `server.memo`: the segment memo each cached cube keeps for every
/// request over it.
static MEMO: &[Metric<ServerShared>] = rows! {
    /// Segment costs and unit-object top-m lists served from the cube's segment memo across answered explains.
    tsx_memo_hits_total: Counter("hits", |s| load(&s.metrics.memo_hits)),
    /// Segment costs computed and published to the cube's segment memo across answered explains.
    tsx_memo_misses_total: Counter("misses", |s| load(&s.metrics.memo_misses)),
};

/// `server.deadlines`: request deadlines and cancellation.
static DEADLINES: &[Metric<ServerShared>] = rows! {
    /// Server-wide request deadline cap (--request-timeout-ms); no sample when unbounded.
    tsx_request_timeout_milliseconds: Gauge("request_timeout_ms", |s| {
        s.request_timeout.map(|cap| cap.as_millis() as f64)
    }),
    /// Requests answered 504 because their deadline tripped.
    tsx_deadline_exceeded_total:
        Counter("deadline_exceeded", |s| load(&s.metrics.deadline_exceeded)),
    /// Deadline 504s whose cancellation tripped after engine compute began.
    tsx_cancelled_inflight_total:
        Counter("cancelled_inflight", |s| load(&s.metrics.cancelled_inflight)),
};

/// `registry`: the tenants and their cube caches.
static REGISTRY: &[Metric<RegistryStats>] = rows! {
    /// Registered datasets.
    tsx_registry_datasets: Gauge("datasets", |r| Some(r.datasets as f64)),
    /// Cubes resident in memory across all tenants.
    tsx_registry_cached_cubes: Gauge("cached_cubes", |r| Some(r.cached_cubes as f64)),
    /// Estimated bytes held by cached cubes.
    tsx_registry_cache_bytes: Gauge("cache_bytes", |r| Some(r.cache_bytes as f64)),
    /// The registry's global cube-memory budget.
    tsx_registry_memory_budget_bytes: Gauge("memory_budget", |r| Some(r.memory_budget as f64)),
};

/// The session counters: one tenant's in `/datasets/{id}/stats`, their
/// sum over the registered datasets at `registry.totals`. The sum falls
/// when a dataset is removed, so these are gauges.
static SESSION: &[Metric<SessionStats>] = rows! {
    /// Explain and compare requests, summed over registered datasets.
    tsx_registry_requests: Gauge("requests", |t| Some(t.requests as f64)),
    /// Cubes built from scratch, summed over registered datasets.
    tsx_registry_cubes_built: Gauge("cubes_built", |t| Some(t.cubes_built as f64)),
    /// Requests answered from an up-to-date cached cube, summed over registered datasets.
    tsx_registry_cube_cache_hits: Gauge("cube_cache_hits", |t| Some(t.cube_cache_hits as f64)),
    /// Cached cubes re-finalized after appends, summed over registered datasets.
    tsx_registry_cube_refreshes: Gauge("cube_refreshes", |t| Some(t.cube_refreshes as f64)),
    /// Rows appended, summed over registered datasets.
    tsx_registry_rows_appended: Gauge("rows_appended", |t| Some(t.rows_appended as f64)),
    /// Full rebuilds forced by restated history, summed over registered datasets.
    tsx_registry_rebuilds: Gauge("rebuilds", |t| Some(t.rebuilds as f64)),
    /// Cached cubes dropped for the memory budget, summed over registered datasets.
    tsx_registry_cube_evictions: Gauge("cube_evictions", |t| Some(t.cube_evictions as f64)),
    /// Cached cubes spilled to disk for the memory budget, summed over registered datasets.
    tsx_registry_cube_demotions: Gauge("cube_demotions", |t| Some(t.cube_demotions as f64)),
    /// Cache misses served from a demoted cube, summed over registered datasets.
    tsx_registry_cube_rehydrations:
        Gauge("cube_rehydrations", |t| Some(t.cube_rehydrations as f64)),
};

/// `store`: the durable storage engine, present only with a data dir.
static STORE: &[Metric<DataStore>] = rows! {
    /// WAL records appended.
    tsx_store_wal_appends_total: Counter("wal_appends", |d| Some(d.metrics().wal_appends as f64)),
    /// Framed WAL bytes written.
    tsx_store_wal_bytes_total: Counter("wal_bytes", |d| Some(d.metrics().wal_bytes as f64)),
    /// Snapshot files written.
    tsx_store_snapshots_total: Counter("snapshots", |d| Some(d.metrics().snapshots as f64)),
    /// Tenants reconstructed by recovery-on-boot.
    tsx_store_recoveries_total: Counter("recoveries", |d| Some(d.metrics().recoveries as f64)),
    /// Cubes demoted to disk by the eviction tier.
    tsx_store_demotions_total: Counter("demotions", |d| Some(d.metrics().demotions as f64)),
    /// Cubes rehydrated from disk on a cache miss.
    tsx_store_rehydrations_total:
        Counter("rehydrations", |d| Some(d.metrics().rehydrations as f64)),
    /// Per-append WAL fsync time.
    tsx_store_fsync_duration_seconds: Histogram(|d| d.durations().fsync.snapshot()),
    /// Full checkpoint cycles.
    tsx_store_checkpoint_duration_seconds: Histogram(|d| d.durations().checkpoint.snapshot()),
    /// Recovery-on-boot, once per open.
    tsx_store_recovery_duration_seconds: Histogram(|d| d.durations().recovery.snapshot()),
};

/// An output format of the catalogue.
trait Render {
    /// Renders `rows`, read from `source`, into the JSON object at the
    /// dotted `path`.
    fn section<S: 'static>(&mut self, path: &str, rows: &[Metric<S>], source: &S);
}

/// Renders every table in exposition order. The registry is read once;
/// the store table renders only with a data dir.
fn walk(shared: &ServerShared, out: &mut impl Render) {
    let registry = shared.registry.stats();
    out.section("server", SERVER, shared);
    out.section("server.admission", ADMISSION, shared);
    out.section("server.parallel", PARALLEL, shared);
    out.section("server.memo", MEMO, shared);
    out.section("server.deadlines", DEADLINES, shared);
    out.section("registry", REGISTRY, &registry);
    out.section("registry.totals", SESSION, &registry.totals);
    if let Some(store) = shared.registry.store() {
        out.section("store", STORE, store.as_ref());
    }
}

/// The JSON document: each scalar under its key.
impl Render for Value {
    fn section<S: 'static>(&mut self, path: &str, rows: &[Metric<S>], source: &S) {
        let Some(object) = object_at(self, path) else {
            return;
        };
        let number = |reading: Option<f64>| reading.map_or(Value::Null, Value::Number);
        for row in rows {
            let (key, value) = match &row.read {
                Counter(key, read) | Gauge(key, read) => (key, number(read(source))),
                CounterByClass(key, _, classes) => {
                    let members = classes.iter().map(|(c, read)| (*c, number(read(source))));
                    (key, Value::object(members))
                }
                CounterBy(..) | HistogramBy(..) | Histogram(..) => continue,
            };
            object.insert(key.to_string(), value);
        }
    }
}

/// The object at a dotted `path` below `node`, created along the way;
/// `None` if the path runs into a non-object.
fn object_at<'v>(mut node: &'v mut Value, path: &str) -> Option<&'v mut BTreeMap<String, Value>> {
    for key in path.split('.') {
        let Value::Object(members) = node else {
            return None;
        };
        node = members
            .entry(key.to_string())
            .or_insert_with(|| Value::Object(BTreeMap::new()));
    }
    match node {
        Value::Object(members) => Some(members),
        _ => None,
    }
}

/// The Prometheus exposition: each row's `# HELP` and `# TYPE` header,
/// then its samples.
impl Render for Exposition {
    fn section<S: 'static>(&mut self, _path: &str, rows: &[Metric<S>], source: &S) {
        for row in rows {
            let kind = match row.read {
                Counter(..) | CounterByClass(..) | CounterBy(..) => "counter",
                Gauge(..) => "gauge",
                HistogramBy(..) | Histogram(..) => "histogram",
            };
            self.header(row.name, kind, row.help);
            match &row.read {
                Counter(_, read) | Gauge(_, read) => {
                    if let Some(value) = read(source) {
                        self.sample(row.name, &[], value);
                    }
                }
                CounterByClass(_, label, classes) => {
                    for (class, read) in *classes {
                        if let Some(value) = read(source) {
                            self.sample(row.name, &[(label, class)], value);
                        }
                    }
                }
                CounterBy(label, read) => {
                    for (value, count) in read(source) {
                        self.sample(row.name, &[(label, &value)], count as f64);
                    }
                }
                HistogramBy(label, read) => {
                    for (value, snapshot) in read(source) {
                        self.histogram(row.name, &[(label, &value)], &snapshot);
                    }
                }
                Histogram(read) => self.histogram(row.name, &[], &read(source)),
            }
        }
    }
}

/// Renders one tenant's session counters into `body` at `path`.
pub(crate) fn session_stats(body: &mut Value, path: &str, stats: &SessionStats) {
    body.section(path, SESSION, stats);
}

impl ServerShared {
    /// The `/metrics` JSON document: HTTP counters + registry counters,
    /// plus a `store` block when a durable data dir backs the process.
    pub fn metrics_value(&self) -> Value {
        let mut doc = Value::Object(BTreeMap::new());
        walk(self, &mut doc);
        doc
    }

    /// The `/metrics?format=prometheus` exposition: the JSON document's
    /// scalars plus the latency histograms and per-tenant throttle
    /// counters, which have no JSON form. Metric names, label order and
    /// bucket boundaries are stable — a scrape target, not an API to
    /// iterate on.
    pub fn metrics_prometheus(&self) -> String {
        let mut exposition = Exposition::new();
        walk(self, &mut exposition);
        exposition.finish()
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use tsexplain_datagen::synthetic::{SyntheticConfig, SyntheticDataset};

    use super::*;
    use crate::{Client, Server, ServerConfig};

    /// Where each row should appear: every scalar series as its JSON path
    /// and Prometheus series, plus the families with no JSON form.
    #[derive(Default)]
    struct Catalogue {
        scalars: Vec<(String, String)>,
        unmirrored: Vec<&'static str>,
    }

    impl Render for Catalogue {
        fn section<S: 'static>(&mut self, path: &str, rows: &[Metric<S>], _: &S) {
            for row in rows {
                match &row.read {
                    Counter(key, _) | Gauge(key, _) => {
                        self.scalars
                            .push((format!("{path}.{key}"), row.name.to_string()));
                    }
                    CounterByClass(key, label, classes) => {
                        for (class, _) in *classes {
                            self.scalars.push((
                                format!("{path}.{key}.{class}"),
                                format!("{}{{{label}=\"{class}\"}}", row.name),
                            ));
                        }
                    }
                    CounterBy(..) | HistogramBy(..) | Histogram(..) => {
                        self.unmirrored.push(row.name)
                    }
                }
            }
        }
    }

    fn leaves(value: &Value) -> usize {
        match value {
            Value::Object(members) => members.values().map(leaves).sum(),
            _ => 1,
        }
    }

    /// Every scalar row reads the same in both formats, JSON `null`
    /// matching an absent sample, and nothing renders outside the table.
    #[test]
    fn json_and_prometheus_agree_on_every_scalar() {
        let dir = std::env::temp_dir().join(format!("tsx-metrics-agree-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut handle = Server::bind(ServerConfig {
            workers: 1,
            data_dir: Some(dir.clone()),
            ..ServerConfig::default()
        })
        .unwrap();
        let data = SyntheticDataset::generate(SyntheticConfig {
            n_points: 40,
            seed: 3,
            ..SyntheticConfig::default()
        });
        let mut client = Client::new(handle.local_addr());
        let id = client
            .register(&data.schema(), &data.query(), &data.rows_between(0, 40))
            .unwrap()
            .dataset_id;
        client
            .explain_value(id, &tsexplain::ExplainRequest::new(["category"]))
            .unwrap();
        drop(client);

        // No request is in flight, but the reactor may still be closing the
        // client's connection: read until the JSON document holds still
        // around the exposition.
        let shared = handle.shared();
        let (doc, text) = loop {
            let doc = shared.metrics_value();
            let text = shared.metrics_prometheus();
            if shared.metrics_value() == doc {
                break (doc, text);
            }
        };
        let samples: BTreeMap<&str, f64> = text
            .lines()
            .filter(|line| !line.starts_with('#'))
            .map(|line| {
                let (series, value) = line.rsplit_once(' ').unwrap();
                (series, value.parse().unwrap())
            })
            .collect();
        let mut catalogue = Catalogue::default();
        walk(shared, &mut catalogue);

        for (path, series) in &catalogue.scalars {
            let json = path
                .split('.')
                .try_fold(&doc, |node, key| node.get(key))
                .unwrap_or_else(|| panic!("{path} is not in the JSON document"));
            match (json, samples.get(series.as_str())) {
                (Value::Number(json), Some(sample)) => assert_eq!(json, sample, "{path}"),
                (Value::Null, None) => {}
                (json, sample) => panic!("{path} is {json:?} but {series} is {sample:?}"),
            }
        }
        assert_eq!(
            leaves(&doc),
            catalogue.scalars.len(),
            "a JSON leaf is not a row"
        );
        let scalars: BTreeSet<&str> = catalogue.scalars.iter().map(|(_, s)| s.as_str()).collect();
        for series in samples.keys() {
            assert!(
                scalars.contains(series)
                    || catalogue.unmirrored.iter().any(|f| series.starts_with(f)),
                "sample {series} is not a row"
            );
        }
        handle.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
