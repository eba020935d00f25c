//! The `serve-mixed` workload: `tsx-server` in-process via `Server::bind`
//! with its default configuration and a data directory, driven over HTTP
//! by two keep-alive clients in a closed loop.
//!
//! Set-up registers one shared covid total-confirmed tenant and, per
//! client, a private tenant holding the first half of covid daily. Each
//! client round: explain on the shared tenant (cycling the follow-up list),
//! the next covid-daily day appended to its own tenant in several batches
//! of partial reports, and an explain of its own tenant (a cube refresh).
//! Every `COMPARE_EVERY`-th round also sends a `/compare` on the shared
//! tenant and a Prometheus scrape.
//!
//! The clients start each round together, and start their appends
//! together once both shared explains are answered. Left to drift, their
//! relative phase wanders over a run, and with it whether an append meets
//! the other client's explain on the two cores: append p50 moved between
//! 0.29 and 0.73 ms across identical runs. The two meeting points fix
//! which operations overlap, so every run measures the same interleaving:
//! the appends run beside each other and the private tenants' refreshes,
//! the shared explains beside each other.

use std::path::{Path, PathBuf};
use std::sync::Barrier;
use std::time::Instant;

use serde::{Serialize, Value};
use tsexplain::{
    default_window_for, DataStore, DatasetId, Datum, ExplainRequest, ExplainResult, ExplainSession,
    Schema, SegmenterSpec,
};
use tsexplain_eval::{distance_percent, rank_ascending};
use tsexplain_server::http::{self, Response, DEFAULT_MAX_BODY_BYTES};
use tsexplain_server::wire::{
    decode_rows, encode_rows, AppendAck, AppendRowsBody, CompareBody, CompareResponse,
    DatasetCreated, RegisterDataset, StrategyComparison,
};
use tsexplain_server::{handle, Client, ClientError, Server, ServerConfig, ServerHandle};

use crate::check::{canonical, canonical_result, Tally};
use crate::inproc::{self, build_relation, Traced};
use crate::inputs::{self, Dataset};
use crate::layers::{self, ShadowCube};
use crate::report::{ms, peak_rss_mib, Measured};
use crate::stats::median;
use crate::trace::Tracer;
use crate::Sizing;

const CLIENTS: usize = 2;
/// Set-up repetitions per run; the median is reported. One costs about 4 s
/// (the registrations' JSON parse), so three is what a run can afford.
const SETUP_REPS: usize = 3;
/// Appends per client round. A 12 s run has 32 rounds, so both clients
/// together log 512 WAL records and the store checkpoints (every 256
/// records) twice.
const APPENDS_PER_ROUND: usize = 8;
/// Partial reports per state in one append: each append carries 464 rows
/// (a 17.6 KB body), and a round's appends sum to the day's generated
/// counts.
///
/// An append must carry enough server work to outweigh what a shared host
/// makes noisy: thread wake-ups, and the WAL fsync, whose latency on ext4
/// follows other tenants' disk traffic (0.2 ms p50 in quiet runs, 0.5 ms
/// in busy ones). With one day per append (58 rows, ~0.45 ms of parse, WAL
/// and cube work), append p50 read 0.53 to 0.97 ms across twenty identical
/// runs, the slow ones (of eight checked) those with slow fsyncs. At 464 rows the server works
/// ~5 ms per append (body parse 4.1 ms, WAL write and fsync 0.9 ms, cube
/// tail 0.14 ms in the traced run). Whole days per append would grow the
/// private tenants by hundreds of days per run, and their explains with
/// them; partial reports add one day per round.
const PARTS: usize = 8;
const COMPARE_EVERY: usize = 2;

/// One append: its rows and its pre-encoded wire body.
struct Batch {
    rows: Vec<Vec<Datum>>,
    body: String,
}

/// The seeded inputs and the request plan.
struct Plan {
    shared: Dataset,
    private: Dataset,
    /// Per round: the batch each client appends `APPENDS_PER_ROUND` times.
    appends: Vec<Batch>,
    follow_ups: Vec<ExplainRequest>,
    own: ExplainRequest,
    compare: ExplainRequest,
    shared_body: String,
    private_body: String,
}

fn plan(seed: u64, sizing: &Sizing) -> Plan {
    let (shared, daily) = inputs::covid(seed);
    let daily = daily.time_ordered();
    let days = daily.timestamps().len();
    let per_day = daily.rows.len().div_ceil(days);
    let half = days / 2;
    let rounds = sizing.rounds;
    // The generated days after the half, then synthesized ones if a run
    // outlasts them.
    let synthesized = daily.synthesized_days(rounds.saturating_sub(days - half));
    let (private, mut tail) = daily.split_at_day(half);
    tail.extend(synthesized);
    // The registration bodies are encoded before the append batches: with
    // the batches allocated first, the same registrations took 6.0–7.5 s
    // instead of 4.0–4.7 s (alternating runs of both builds), the allocator
    // state the program starts from being part of what set-up measures.
    let shared_body = register_body(&shared);
    let private_body = register_body(&private);
    let appends = tail
        .chunks(per_day)
        .take(rounds)
        .map(|day| {
            let rows = partial_reports(day, PARTS, APPENDS_PER_ROUND * PARTS);
            Batch {
                body: append_body(&rows),
                rows,
            }
        })
        .collect();
    Plan {
        follow_ups: inputs::follow_ups(&shared, 1),
        own: private.request(),
        compare: shared.request(),
        shared_body,
        private_body,
        appends,
        shared,
        private,
    }
}

fn register_body(data: &Dataset) -> String {
    let body = RegisterDataset {
        schema: data.schema.clone(),
        query: data.query.clone(),
        rows: encode_rows(&data.rows),
    };
    serde_json::to_string(&body.serialize()).expect("bodies encode")
}

/// `parts` partial reports of each row of `day`, every count divided by
/// `split`: `split / parts` such batches sum to the day's counts.
fn partial_reports(day: &[Vec<Datum>], parts: usize, split: usize) -> Vec<Vec<Datum>> {
    let part = |row: &Vec<Datum>| -> Vec<Datum> {
        row.iter()
            .map(|d| match d {
                Datum::Num(v) => Datum::Num(v / split as f64),
                attr => attr.clone(),
            })
            .collect()
    };
    (0..parts).flat_map(|_| day.iter().map(part)).collect()
}

fn append_body(rows: &[Vec<Datum>]) -> String {
    let body = AppendRowsBody {
        rows: encode_rows(rows),
    };
    serde_json::to_string(&body.serialize()).expect("bodies encode")
}

/// Sends a pre-encoded append; returns the acknowledgement.
fn send_append(http: &mut Client, id: u64, batch: &Batch) -> Result<AppendAck, String> {
    let path = format!("/datasets/{id}/rows");
    let response = http
        .raw("POST", &path, Some(&batch.body), &[])
        .map_err(|e| e.to_string())?;
    let text = String::from_utf8(response.body).map_err(|e| e.to_string())?;
    match response.status {
        200 => serde_json::from_str(&text).map_err(|e| e.to_string()),
        status => Err(format!("HTTP {status} {text}")),
    }
}

/// Index of the shared tenant's follow-up for `client` in `round`.
fn follow_up(plan: &Plan, client: usize, round: usize) -> usize {
    (round * CLIENTS + client) % plan.follow_ups.len()
}

/// A counter of the `/metrics` JSON document, by path.
fn counter(metrics: &Value, path: &[&str]) -> f64 {
    path.iter()
        .try_fold(metrics, |v, key| v.get(key))
        .and_then(Value::as_f64)
        .unwrap_or(0.0)
}

/// `(name, path)` of the admission and deadline counters reported.
const SERVER_COUNTERS: [(&str, [&str; 3]); 2] = [
    ("server.shed", ["server", "admission", "shed"]),
    (
        "server.deadline_exceeded",
        ["server", "deadlines", "deadline_exceeded"],
    ),
];

/// Reference answers, computed in-process before set-up.
struct References {
    follow_ups: Vec<String>,
    compare: String,
    /// The private tenant's answer after each round's appends.
    own: Vec<String>,
}

fn references(plan: &Plan) -> References {
    let session = |data: &Dataset| {
        ExplainSession::new(
            build_relation(&data.schema, data.rows.clone()),
            data.query.clone(),
        )
        .expect("valid query")
    };
    let mut shared = session(&plan.shared);
    let follow_ups = plan
        .follow_ups
        .iter()
        .map(|r| canonical_result(&shared.explain(r).expect("reference explain")))
        .collect();
    let compare = canonical(&compare_response(&mut shared, &plan.compare).serialize());
    let mut own_session = session(&plan.private);
    let own = plan
        .appends
        .iter()
        .map(|batch| {
            for _ in 0..APPENDS_PER_ROUND {
                own_session
                    .append_rows(batch.rows.clone())
                    .expect("reference append");
            }
            canonical_result(&own_session.explain(&plan.own).expect("reference explain"))
        })
        .collect();
    References {
        follow_ups,
        compare,
        own,
    }
}

/// The `/compare` response computed in-process: one prepare, the four
/// strategies, and the eval metrics against the DP row.
fn compare_response(session: &mut ExplainSession, base: &ExplainRequest) -> CompareResponse {
    let prepared = session
        .prepare(&base.clone().with_segmenter(SegmenterSpec::Dp))
        .expect("reference prepare");
    let window = default_window_for(prepared.n_points());
    let results: Vec<ExplainResult> = SegmenterSpec::all_with_window(window)
        .iter()
        .map(|s| {
            prepared
                .explain(&base.clone().with_segmenter(*s))
                .expect("reference strategy")
        })
        .collect();
    assemble_compare(window, results)
}

fn assemble_compare(window: usize, results: Vec<ExplainResult>) -> CompareResponse {
    let reference_cuts = results[0].segmentation.cuts().to_vec();
    let objectives: Vec<f64> = results.iter().map(|r| r.total_variance).collect();
    let strategies = results
        .into_iter()
        .zip(rank_ascending(&objectives))
        .map(|(result, objective_rank)| StrategyComparison {
            strategy: result.strategy.clone(),
            distance_percent_vs_dp: distance_percent(&result.segmentation, &reference_cuts),
            objective_rank,
            result,
        })
        .collect();
    CompareResponse {
        reference: "dp".into(),
        window,
        strategies,
    }
}

/// A bound server with its tenants registered.
struct Running {
    server: ServerHandle,
    shared_id: u64,
    private_ids: Vec<u64>,
}

fn data_dir(dir: &Path, name: &str) -> PathBuf {
    let path = dir.join(name);
    let _ = std::fs::remove_dir_all(&path);
    path
}

fn bind(data_dir: PathBuf) -> ServerHandle {
    Server::bind(ServerConfig {
        data_dir: Some(data_dir),
        ..ServerConfig::default()
    })
    .expect("the server binds")
}

/// Registers a pre-encoded dataset over HTTP; returns its id.
fn register(client: &mut Client, body: &str, rows: usize) -> u64 {
    let response = client
        .raw("POST", "/datasets", Some(body), &[])
        .expect("registration round trip");
    assert_eq!(
        response.status, 201,
        "registration answered {}",
        response.status
    );
    let text = String::from_utf8(response.body).expect("UTF-8 body");
    let created: DatasetCreated = serde_json::from_str(&text).expect("registration ack");
    assert_eq!(
        created.n_rows, rows,
        "registration acknowledged the wrong row count"
    );
    created.dataset_id
}

/// One set-up: bind (recovering an empty data directory) and the HTTP
/// registrations. Returns the server and the set-up wall time.
fn set_up(plan: &Plan, data_dir: PathBuf) -> (Running, f64) {
    let start = Instant::now();
    let server = bind(data_dir);
    let mut client = Client::new(server.local_addr());
    let shared_id = register(&mut client, &plan.shared_body, plan.shared.rows.len());
    let private_ids = (0..CLIENTS)
        .map(|_| register(&mut client, &plan.private_body, plan.private.rows.len()))
        .collect();
    let secs = start.elapsed().as_secs_f64();
    (
        Running {
            server,
            shared_id,
            private_ids,
        },
        secs,
    )
}

/// The filesystem type holding `path`, from the mount table.
fn filesystem_of(path: &Path) -> String {
    let Ok(path) = std::fs::canonicalize(path) else {
        return "unknown".into();
    };
    let Ok(mounts) = std::fs::read_to_string("/proc/self/mounts") else {
        return "unknown".into();
    };
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_, point, kind) = (f.next()?, f.next()?, f.next()?);
            path.starts_with(point)
                .then(|| (point.len(), format!("{kind} at {point}")))
        })
        .max()
        .map_or("unknown".into(), |(_, s)| s)
}

/// Per-client samples and tally.
#[derive(Default)]
struct ClientRun {
    explain_ms: Vec<f64>,
    append_ms: Vec<f64>,
    compare_ms: Vec<f64>,
    scrape_ms: Vec<f64>,
    tally: Tally,
}

fn status_error(e: ClientError) -> String {
    match e {
        ClientError::Api(api) => format!("HTTP {} {}", api.status, api.kind),
        other => other.to_string(),
    }
}

/// One client's closed loop, each round started together with the other
/// client's. Answers are checked after the loop.
fn client_loop(
    plan: &Plan,
    refs: &References,
    running: &Running,
    client: usize,
    barrier: &Barrier,
) -> ClientRun {
    let mut out = ClientRun::default();
    let mut http = Client::new(running.server.local_addr());
    let own_id = running.private_ids[client];
    let mut answers: Vec<(&'static str, Result<Value, ClientError>, &str)> = Vec::new();
    let base_points = plan.private.timestamps().len();
    let mut seen_days = std::collections::BTreeSet::new();
    for round in 0..plan.appends.len() {
        barrier.wait();
        let which = follow_up(plan, client, round);
        let start = Instant::now();
        let answer = http.explain_value(running.shared_id, &plan.follow_ups[which]);
        out.explain_ms.push(ms(start.elapsed()));
        answers.push(("explain", answer, &refs.follow_ups[which]));
        barrier.wait();

        let batch = &plan.appends[round];
        for _ in 0..APPENDS_PER_ROUND {
            let start = Instant::now();
            let ack = send_append(&mut http, own_id, batch);
            out.append_ms.push(ms(start.elapsed()));
            for row in &batch.rows {
                if let Datum::Attr(day) = &row[0] {
                    seen_days.insert(day.clone());
                }
            }
            let error = match ack {
                Err(e) => Some(e),
                Ok(AppendAck { appended, n_points })
                    if appended != batch.rows.len()
                        || n_points != base_points + seen_days.len() =>
                {
                    Some(format!("ack appended {appended} n_points {n_points}"))
                }
                Ok(_) => None,
            };
            out.tally.record("append", error);
        }

        let start = Instant::now();
        let answer = http.explain_value(own_id, &plan.own);
        out.explain_ms.push(ms(start.elapsed()));
        answers.push(("explain", answer, &refs.own[round]));

        if round % COMPARE_EVERY == COMPARE_EVERY - 1 {
            let start = Instant::now();
            let answer = http.compare_value(running.shared_id, &plan.compare, None);
            out.compare_ms.push(ms(start.elapsed()));
            answers.push(("compare", answer, &refs.compare));

            let start = Instant::now();
            let scrape = http.metrics_prometheus();
            out.scrape_ms.push(ms(start.elapsed()));
            let error = match scrape {
                Err(e) => Some(status_error(e)),
                Ok(text) if !text.contains("tsx_requests_total") => {
                    Some("exposition lacks tsx_requests_total".into())
                }
                Ok(_) => None,
            };
            out.tally.record("scrape", error);
        }
    }
    for (op, answer, want) in answers {
        match answer {
            Ok(v) => out.tally.answer(op, &canonical(&v), want),
            Err(e) => out.tally.record(op, Some(status_error(e))),
        }
    }
    out
}

/// Untimed explains before the measured phase: every follow-up on the
/// shared tenant and the default request on each private one, so the
/// first measured round does not pay for the tenants' cube builds.
fn warm_up(plan: &Plan, running: &Running) {
    let mut http = Client::new(running.server.local_addr());
    for request in &plan.follow_ups {
        http.explain_value(running.shared_id, request)
            .expect("warm-up explain");
    }
    for &id in &running.private_ids {
        http.explain_value(id, &plan.own).expect("warm-up explain");
    }
}

/// The untraced run.
pub fn run(seed: u64, sizing: &Sizing, dir: &Path) -> Measured {
    let plan = plan(seed, sizing);
    let refs = references(&plan);
    let mut m = Measured {
        setup_contents: "Server::bind with the default config and an empty data directory \
                         (recovery), then three HTTP registrations of pre-encoded bodies \
                         (covid total 20,010 rows; covid daily first half ×2)"
            .into(),
        ..Measured::default()
    };
    let (running, secs) = set_up(&plan, data_dir(dir, "data"));
    m.setup_s.push(secs);
    warm_up(&plan, &running);
    m.notes.push(format!(
        "data directory: {}",
        filesystem_of(&dir.join("data"))
    ));
    m.notes.push(format!(
        "plan: {CLIENTS} clients × {} rounds, rounds and their appends started together; per \
         round 1 shared explain, {} appends of {} rows ({PARTS} partial reports \
         per state of the round's day, a {} byte body), 1 own explain; a /compare and a scrape \
         once every {COMPARE_EVERY} rounds",
        plan.appends.len(),
        APPENDS_PER_ROUND,
        plan.appends[0].rows.len(),
        plan.appends[0].body.len()
    ));

    let barrier = Barrier::new(CLIENTS);
    let phase = Instant::now();
    let runs: Vec<ClientRun> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let (plan, refs, running, barrier) = (&plan, &refs, &running, &barrier);
                s.spawn(move || client_loop(plan, refs, running, c, barrier))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    m.phase_s = phase.elapsed().as_secs_f64();
    m.peak_rss_mib = peak_rss_mib();
    m.rps_seconds = m.phase_s;
    m.rps_basis = "the measured phase's wall time, both clients' explains together";
    let mut scrape_ms = Vec::new();
    for r in runs {
        m.explain_ms.extend(r.explain_ms);
        m.append_ms.extend(r.append_ms);
        m.compare_ms.extend(r.compare_ms);
        scrape_ms.extend(r.scrape_ms);
        m.tally.merge(r.tally);
    }
    m.notes.push(format!(
        "scrape: n = {}, p50 = {:.3} ms",
        scrape_ms.len(),
        median(&scrape_ms)
    ));
    let shared = running.server.shared();
    if let Some(store) = shared.registry.store() {
        let sm = store.metrics();
        let fsync = store.durations().fsync.snapshot();
        m.notes.push(format!(
            "store: {} WAL appends, {} WAL bytes, {} snapshot files written; WAL fsync p50 {:.3} ms, \
             p90 {:.3} ms (the store's own histogram)",
            sm.wal_appends,
            sm.wal_bytes,
            sm.snapshots,
            ms(fsync.p50()),
            ms(fsync.p90())
        ));
    }
    let metrics = shared.metrics_value();
    for (name, path) in SERVER_COUNTERS {
        m.notes
            .push(format!("{name} = {}", counter(&metrics, &path)));
    }

    // The remaining set-ups, after the measured server has shut down.
    drop(running);
    for _ in 1..SETUP_REPS {
        let (again, secs) = set_up(&plan, data_dir(dir, "data"));
        m.setup_s.push(secs);
        drop(again);
    }
    m
}

/// An HTTP request as the reactor hands it to a worker.
fn request_bytes(method: &str, path: &str, body: &str) -> Vec<u8> {
    format!(
        "{method} {path} HTTP/1.1\r\nhost: bench\r\ncontent-type: application/json\r\ncontent-length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

fn read(tr: &mut Tracer, bytes: &[u8]) -> http::Request {
    tr.span("server.read", || {
        http::read_request(&mut &bytes[..], DEFAULT_MAX_BODY_BYTES).expect("request parses")
    })
}

fn write(tr: &mut Tracer, response: &Response) {
    tr.span("server.write", || {
        let mut out = Vec::new();
        response.write_to(&mut out, true).expect("response writes");
        std::hint::black_box(out);
    });
}

/// `serde_json::from_str` of an append body plus the schema-aware row
/// decode (`server.body_parse`).
fn parse_append(tr: &mut Tracer, schema: &Schema, body: &str) -> Vec<Vec<Datum>> {
    tr.count("server.body_bytes", body.len() as f64);
    tr.count("server.bodies", 1.0);
    tr.span("server.body_parse", || {
        let parsed: AppendRowsBody = serde_json::from_str(body).expect("append bodies parse");
        decode_rows(schema, &parsed.rows).expect("wire rows decode")
    })
}

/// `DataStore::log_rows` with one append's rows (`store.log`).
fn log_rows(tr: &mut Tracer, store: &DataStore, seq: u64, rows: &[Vec<Datum>]) {
    let row_bytes: usize = rows
        .iter()
        .map(|r| {
            serde_json::to_string(&tsexplain_relation::encode_wire_row(r)).map_or(0, |s| s.len())
        })
        .sum();
    tr.count("store.row_bytes", row_bytes as f64);
    tr.span("store.log", || {
        store.log_rows(1, seq, rows).expect("the WAL appends")
    });
}

/// WAL counters of a store, and bytes written per byte of row data.
fn store_counts(tr: &mut Tracer, store: &DataStore) {
    let m = store.metrics();
    tr.set("store.wal_appends", m.wal_appends as f64);
    tr.set("store.wal_bytes", m.wal_bytes as f64);
    let row_bytes = tr.get("store.row_bytes");
    tr.set(
        "store.wal_bytes_per_row_byte",
        m.wal_bytes as f64 / row_bytes,
    );
}

/// Explain samples of the traced run, ms.
#[derive(Default)]
struct Timings {
    /// Shared-tenant explains: server A's round trip and B's in-process
    /// `handle` of the same request (`server.transport_ms`).
    round_trip: Vec<f64>,
    handle: Vec<f64>,
    stall: Vec<f64>,
    scrape: Vec<f64>,
}

/// The traced run: the same inputs and the clients' operations in a fixed
/// interleaving. Each operation goes to server A over HTTP (the facade
/// answer and the untraced round trip) and to server B in-process: its
/// `SessionRegistry` (the facade calls `core.prepare` + `core.pipeline` or
/// `core.append`) and, for explains, `tsexplain_server::handle`. The
/// decomposed path then reads the request, parses the body, runs the
/// layers on shadow cubes kept like B's, and encodes and writes the
/// answer, one span per call. Every decomposed answer must equal A's.
pub fn run_traced(seed: u64, sizing: &Sizing, tr: &mut Tracer, dir: &Path) -> Traced {
    let plan = plan(seed, sizing);
    let mut out = Traced {
        tally: Tally::default(),
        untraced_explain_ms: Vec::new(),
        traced_explain_ms: Vec::new(),
        notes: Vec::new(),
    };
    tr.begin_request();
    let (a, _) = set_up(&plan, data_dir(dir, "data-a"));
    let b = bind(data_dir(dir, "data-b"));
    let reg = &b.shared().registry;

    // Decomposed registrations on B, in A's order so the ids agree.
    let mut b_ids = Vec::new();
    let mut shadows = Vec::new();
    let bodies = std::iter::once((&plan.shared_body, &plan.shared))
        .chain((0..CLIENTS).map(|_| (&plan.private_body, &plan.private)));
    for (body, data) in bodies {
        tr.begin_request();
        let root = tr.open("bench.register");
        let request = read(tr, &request_bytes("POST", "/datasets", body));
        let text = String::from_utf8(request.body).expect("UTF-8 body");
        tr.count("server.register_bytes", text.len() as f64);
        let spec: RegisterDataset = tr.span("server.register_parse", || {
            serde_json::from_str(&text).expect("registration parses")
        });
        let rows = decode_rows(&spec.schema, &spec.rows).expect("rows decode");
        tr.count("relation.rows", rows.len() as f64);
        let relation = tr.span("relation.build", || build_relation(&spec.schema, rows));
        let shadow_relation = relation.clone();
        let id = tr.span("core.register", || {
            reg.register(relation, spec.query.clone())
        });
        tr.close(root);
        b_ids.push(id.expect("B registers").as_u64());
        shadows.push((shadow_relation, data));
    }
    let a_ids: Vec<u64> = std::iter::once(a.shared_id)
        .chain(a.private_ids.iter().copied())
        .collect();
    out.tally.record(
        "register",
        (a_ids != b_ids).then(|| format!("server A ids {a_ids:?}, decomposed ids {b_ids:?}")),
    );

    // Shadow cubes, built on the registered rows: the shared tenant's is
    // sliced per request; each private tenant's is extended by every
    // append and refreshed before every own explain.
    tr.begin_request();
    let root = tr.open("bench.setup");
    let mut cubes: Vec<ShadowCube> = shadows
        .iter()
        .enumerate()
        .map(|(i, (relation, data))| {
            let request = if i == 0 {
                &plan.follow_ups[0]
            } else {
                &plan.own
            };
            ShadowCube::build(tr, relation, &data.query, request)
        })
        .collect();
    tr.close(root);
    let shadow_store = {
        let path = data_dir(dir, "shadow-wal");
        DataStore::open(&path).expect("the shadow store opens").0
    };
    let explain_by = plan.own.explain_by().to_vec();
    let threads = plan.own.parallel_ctx().threads();
    tr.set("parallel.threads", threads as f64);

    let mut http: Vec<Client> = (0..CLIENTS)
        .map(|_| Client::new(a.server.local_addr()))
        .collect();
    let mut times = Timings::default();
    let mut seq = [plan.private.rows.len() as u64; CLIENTS];
    let a_store = a.server.shared().registry.store().expect("A has a store");

    for round in 0..plan.appends.len() {
        for c in 0..CLIENTS {
            let request = &plan.follow_ups[follow_up(&plan, c, round)];
            let shared = Tenant {
                a: a.shared_id,
                b: b_ids[0],
                refresh: false,
            };
            traced_explain(
                tr,
                &mut out,
                &mut http[c],
                &b,
                shared,
                request,
                &mut cubes[0],
                &mut times,
            );

            let own = Tenant {
                a: a.private_ids[c],
                b: b_ids[1 + c],
                refresh: true,
            };
            let batch = &plan.appends[round];
            for _ in 0..APPENDS_PER_ROUND {
                tr.begin_request();
                let before = a_store.metrics().snapshots;
                let start = Instant::now();
                let ack = send_append(&mut http[c], own.a, batch);
                let rt = ms(start.elapsed());
                if a_store.metrics().snapshots > before {
                    times.stall.push(rt);
                }
                // The facade on B.
                let id = DatasetId::from_u64(own.b);
                tr.span("core.append", || reg.append_rows(id, batch.rows.clone()))
                    .expect("B appends");
                let n_points = reg.dataset_stats(id).map(|s| s.n_points).unwrap_or(0);
                // The decomposed path.
                let path = format!("/datasets/{}/rows", own.b);
                let root = tr.open("bench.append");
                let request = read(tr, &request_bytes("POST", &path, &batch.body));
                let text = String::from_utf8(request.body).expect("UTF-8 body");
                let rows = parse_append(tr, &plan.private.schema, &text);
                let encoded = layers::encode_rows(
                    &plan.private.schema,
                    &plan.private.query,
                    &explain_by,
                    &rows,
                );
                cubes[1 + c].append(tr, &encoded);
                log_rows(tr, &shadow_store, seq[c], &rows);
                seq[c] += rows.len() as u64;
                tr.close(root);
                let error = match ack {
                    Err(e) => Some(e),
                    Ok(_) if rows != batch.rows => Some("wire round trip changed the rows".into()),
                    Ok(ack) if ack.appended != rows.len() || ack.n_points != n_points => {
                        Some(format!(
                            "A acked {} rows / {} points, decomposed {} / {n_points}",
                            ack.appended,
                            ack.n_points,
                            rows.len()
                        ))
                    }
                    Ok(_) => None,
                };
                out.tally.record("append", error);
            }

            traced_explain(
                tr,
                &mut out,
                &mut http[c],
                &b,
                own,
                &plan.own,
                &mut cubes[1 + c],
                &mut times,
            );

            if round % COMPARE_EVERY == COMPARE_EVERY - 1 {
                traced_compare(tr, &mut out, &mut http[c], &a, &b, &plan.compare);
                tr.begin_request();
                let start = Instant::now();
                let scrape = tr.span("obs.scrape", || http[c].metrics_prometheus());
                times.scrape.push(ms(start.elapsed()));
                let rendered = tr.span("obs.render", || b.shared().metrics_prometheus());
                let error = match scrape {
                    Err(e) => Some(status_error(e)),
                    Ok(text) if !text.contains("tsx_requests_total") || rendered.is_empty() => {
                        Some("exposition lacks tsx_requests_total".into())
                    }
                    Ok(_) => None,
                };
                out.tally.record("scrape", error);
            }
        }
    }

    // costs speed-up on the shared tenant's default request.
    let note = layers::costs_speedup(tr, &cubes[0].snapshot, &plan.follow_ups[0], threads);
    out.notes.push(note);

    store_counts(tr, &shadow_store);
    let totals = a.server.shared().registry.stats().totals;
    inproc::cache_counts(
        tr,
        (
            totals.cube_cache_hits,
            totals.cubes_built,
            totals.cube_refreshes,
            totals.cube_evictions,
        ),
        &mut out.notes,
    );
    let am = a_store.metrics();
    out.notes.push(format!(
        "server A store: {} WAL appends, {} WAL bytes, {} snapshot files; data directory {}",
        am.wal_appends,
        am.wal_bytes,
        am.snapshots,
        filesystem_of(&dir.join("data-a"))
    ));
    out.notes.push(format!(
        "store.checkpoints = {} (appends during which server A wrote snapshots)",
        times.stall.len()
    ));
    if !times.stall.is_empty() {
        out.notes.push(format!(
            "store.checkpoint_stall_ms = {:.3} ms (median round trip of those appends)",
            median(&times.stall)
        ));
    }
    let (round_trip, handled) = (median(&times.round_trip), median(&times.handle));
    out.notes.push(format!(
        "server.transport_ms = {:.4} ms (server A round trip p50 {round_trip:.4} − in-process \
         handle p50 {handled:.4}, {} shared-tenant explains)",
        round_trip - handled,
        times.round_trip.len()
    ));
    out.notes.push(format!(
        "obs.scrape round trip p50 = {:.4} ms over {} scrapes",
        median(&times.scrape),
        times.scrape.len()
    ));
    out.notes.push(format!(
        "server.register_bytes = {} bytes over 3 registrations",
        tr.get("server.register_bytes")
    ));
    let metrics = a.server.shared().metrics_value();
    for (name, path) in SERVER_COUNTERS {
        out.notes
            .push(format!("{name} = {}", counter(&metrics, &path)));
    }
    out
}

/// A tenant's ids on servers A and B, and whether its explains refresh a
/// cube extended by appends (the private tenants) or slice a warm one.
#[derive(Clone, Copy)]
struct Tenant {
    a: u64,
    b: u64,
    refresh: bool,
}

/// One explain in the traced run (see [`run_traced`]). The untraced
/// figure is B's `SessionRegistry::prepare` + `PreparedCube::explain`; the
/// traced one is the same work through the layers on the shadow cube
/// (refresh or slice, then the pipeline), timed inside the decomposed
/// request's root.
#[allow(clippy::too_many_arguments)]
fn traced_explain(
    tr: &mut Tracer,
    out: &mut Traced,
    http: &mut Client,
    b: &ServerHandle,
    tenant: Tenant,
    request: &ExplainRequest,
    cube: &mut ShadowCube,
    times: &mut Timings,
) {
    tr.begin_request();
    let start = Instant::now();
    let facade = http.explain_value(tenant.a, request);
    let round_trip = ms(start.elapsed());
    let facade = match facade {
        Ok(v) => v,
        Err(e) => {
            out.tally.record("explain", Some(status_error(e)));
            return;
        }
    };
    let want = canonical(&facade);

    // The facade on B, first, so that it pays for a private tenant's cube
    // refresh as A did.
    let id = DatasetId::from_u64(tenant.b);
    let open = tr.open("core.prepare");
    let prepared = b.shared().registry.prepare(id, request);
    let prepare_ns = tr.close(open);
    let prepared = prepared.expect("B prepares");
    let open = tr.open("core.pipeline");
    let pipeline = prepared.explain(request);
    let pipeline_ns = tr.close(open);
    out.untraced_explain_ms
        .push((prepare_ns + pipeline_ns) as f64 / 1e6);
    let pipeline = pipeline.map(|r| canonical_result(&r)).unwrap_or_default();
    let from_cache = prepared.from_cache();

    // B's in-process `handle` (report only: the shared tenant's feeds
    // `server.transport_ms`).
    let body = serde_json::to_string(&request.serialize()).expect("requests encode");
    let bytes = request_bytes("POST", &format!("/datasets/{}/explain", tenant.b), &body);
    let parsed =
        http::read_request(&mut &bytes[..], DEFAULT_MAX_BODY_BYTES).expect("request parses");
    let start = Instant::now();
    let response = tr.span("server.handle", || handle(b.shared(), &parsed));
    if !tenant.refresh {
        times.handle.push(ms(start.elapsed()));
        times.round_trip.push(round_trip);
    }
    let handled = serde_json::parse(std::str::from_utf8(&response.body).expect("UTF-8"))
        .map(|v| canonical(&v))
        .unwrap_or_default();

    let root = tr.open("bench.explain");
    let raw = read(tr, &bytes);
    let text = String::from_utf8(raw.body).expect("UTF-8 body");
    let parsed: ExplainRequest = tr.span("server.request_parse", || {
        serde_json::from_str(&text).expect("request parses")
    });
    let start = Instant::now();
    let answer = if tenant.refresh {
        cube.refresh(tr);
        layers::explain(tr, &cube.snapshot, &parsed, from_cache)
    } else {
        let sliced = layers::slice(tr, &cube.snapshot, &parsed);
        layers::explain(
            tr,
            sliced.as_ref().unwrap_or(&cube.snapshot),
            &parsed,
            from_cache,
        )
    };
    out.traced_explain_ms.push(ms(start.elapsed()));
    let encoded = tr.span("server.encode", || {
        serde_json::to_string(&answer).expect("answers encode")
    });
    tr.count("server.response_bytes", encoded.len() as f64);
    tr.count("server.responses", 1.0);
    write(tr, &Response::json(200, encoded));
    tr.close(root);
    out.tally
        .answer("explain", &canonical_result(&answer), &want);
    out.tally.answer("explain-handle", &handled, &want);
    out.tally.answer("explain-facade", &pipeline, &want);
}

/// One `/compare` in the traced run.
fn traced_compare(
    tr: &mut Tracer,
    out: &mut Traced,
    http: &mut Client,
    a: &Running,
    b: &ServerHandle,
    base: &ExplainRequest,
) {
    tr.begin_request();
    let facade = match http.compare_value(a.shared_id, base, None) {
        Ok(v) => canonical(&v),
        Err(e) => {
            out.tally.record("compare", Some(status_error(e)));
            return;
        }
    };
    let body = serde_json::to_string(
        &CompareBody {
            request: base.clone(),
            window: None,
        }
        .serialize(),
    )
    .expect("bodies encode");
    let path = format!("/datasets/{}/compare", a.shared_id);
    let root = tr.open("bench.compare");
    let raw = read(tr, &request_bytes("POST", &path, &body));
    let text = String::from_utf8(raw.body).expect("UTF-8 body");
    let spec: CompareBody = tr.span("server.request_parse", || {
        serde_json::from_str(&text).expect("compare body parses")
    });
    let open = tr.open("core.prepare");
    let prepared = b.shared().registry.prepare(
        DatasetId::from_u64(a.shared_id),
        &spec.request.clone().with_segmenter(SegmenterSpec::Dp),
    );
    tr.close(open);
    let prepared = prepared.expect("B prepares");
    let (_, requests) = inproc::strategies(&spec.request, prepared.n_points());
    let results: Vec<ExplainResult> = requests
        .iter()
        .map(|request| layers::explain(tr, prepared.cube(), request, prepared.from_cache()))
        .collect();
    let response = assemble_compare(default_window_for(prepared.n_points()), results);
    let encoded = tr.span("server.encode", || {
        serde_json::to_string(&response.serialize()).expect("encodes")
    });
    write(tr, &Response::json(200, encoded.clone()));
    tr.close(root);
    let got = serde_json::parse(&encoded)
        .map(|v| canonical(&v))
        .unwrap_or_default();
    out.tally.answer("compare", &got, &facade);
}
