//! End-to-end acceptance of the durable storage engine through the HTTP
//! boundary: an evicted cube rebuilds bit-identically and writes nothing
//! to the data dir (pinned against the same golden `/compare` the
//! in-memory server must reproduce, at thread counts 1/2/8), deleted
//! datasets stay deleted across reboots, and a SIGKILL'd server recovers
//! every acknowledged mutation on the next boot — warm answers
//! byte-identical to the pre-crash ones.

use std::io::BufRead;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use serde::Value;
use tsexplain::{DiffMetric, ExplainRequest, Optimizations};
use tsexplain_datagen::synthetic::{SyntheticConfig, SyntheticDataset};
use tsexplain_server::{Client, ClientError, Server, ServerConfig};

fn temp_dir(tag: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "tsx-durability-{tag}-{}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::SeqCst)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The same synthetic corpus dataset `integration_server` pins its golden
/// against.
fn dataset() -> SyntheticDataset {
    SyntheticDataset::generate(SyntheticConfig {
        n_points: 60,
        seed: 7,
        ..SyntheticConfig::default()
    })
}

fn base_request() -> ExplainRequest {
    ExplainRequest::new(["category"]).with_optimizations(Optimizations::none())
}

fn durable_config(dir: &std::path::Path) -> ServerConfig {
    ServerConfig {
        workers: 4,
        data_dir: Some(dir.to_path_buf()),
        ..ServerConfig::default()
    }
}

/// Serializes a result with the latency block removed (wall-clock is the
/// one legitimately nondeterministic part of a response).
fn canonical(value: &Value) -> Value {
    match value {
        Value::Object(map) => {
            let mut map = map.clone();
            map.remove("latency");
            Value::Object(map)
        }
        other => other.clone(),
    }
}

/// Canonicalizes a `/compare` response the way the golden file does: the
/// latency block of every strategy row removed, everything else intact.
fn canonical_compare(response: &Value) -> Value {
    let Value::Object(map) = response else {
        return response.clone();
    };
    let mut map = map.clone();
    if let Some(Value::Array(rows)) = map.get("strategies").cloned() {
        let rows = rows
            .into_iter()
            .map(|row| match row {
                Value::Object(mut row) => {
                    if let Some(result) = row.remove("result") {
                        row.insert("result".into(), canonical(&result));
                    }
                    Value::Object(row)
                }
                other => other,
            })
            .collect();
        map.insert("strategies".into(), Value::Array(rows));
    }
    Value::Object(map)
}

fn read_counter(metrics: &Value, block: &str, key: &str) -> f64 {
    metrics
        .get(block)
        .and_then(|b| b.get(key))
        .and_then(Value::as_f64)
        .unwrap_or(0.0)
}

/// An evicted-then-rebuilt cube serves byte-identical responses on a
/// durable server. The budget admits exactly one cube, so asking for a
/// second cube key evicts the first; asking for the first again rebuilds
/// it from the tenant's rows, writing nothing to the data dir, and the
/// subsequent `/compare` must reproduce the *same* pinned golden the
/// in-memory server does, at thread counts 1, 2 and 8.
#[test]
fn evicted_cube_rebuilds_to_the_golden_compare_at_threads_1_2_8() {
    let data = dataset();

    // Probe one cube's footprint on a throwaway in-memory server.
    let one_cube = {
        let mut handle = Server::bind(ServerConfig::default()).unwrap();
        let mut client = Client::new(handle.local_addr());
        let created = client
            .register(&data.schema(), &data.query(), &data.rows_between(0, 60))
            .unwrap();
        client
            .explain_value(created.dataset_id, &base_request())
            .unwrap();
        let stats = client.stats(created.dataset_id).unwrap();
        let bytes = stats.get("cache_bytes").and_then(Value::as_f64).unwrap() as usize;
        drop(client);
        handle.shutdown();
        bytes
    };
    assert!(one_cube > 0);

    let dir = temp_dir("golden");
    let mut handle = Server::bind(ServerConfig {
        memory_budget: one_cube, // exactly one resident cube
        ..durable_config(&dir)
    })
    .unwrap();
    let mut client = Client::new(handle.local_addr());
    let created = client
        .register(&data.schema(), &data.query(), &data.rows_between(0, 60))
        .unwrap();

    // Cube A, then cube B (different key): A is evicted.
    client
        .explain_value(created.dataset_id, &base_request())
        .unwrap();
    let reference = client
        .explain_value(created.dataset_id, &base_request())
        .unwrap();
    client
        .explain_value(created.dataset_id, &base_request().with_max_order(1))
        .unwrap();

    // Asking for A again rebuilds it from the tenant's rows…
    let rebuilt = client
        .explain_value(created.dataset_id, &base_request())
        .unwrap();
    let metrics = client.metrics().unwrap();
    let totals = metrics
        .get("registry")
        .and_then(|r| r.get("totals"))
        .cloned()
        .unwrap();
    let total = |key: &str| totals.get(key).and_then(Value::as_f64);
    assert!(
        total("cube_evictions").unwrap() >= 1.0,
        "budget pressure must evict, got {metrics:?}"
    );
    assert_eq!(total("cubes_built"), Some(3.0), "A was rebuilt");
    // …and the eviction wrote nothing beside the WAL, the tenant
    // snapshots and the id watermark.
    let mut entries: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    entries.sort();
    assert!(
        entries
            .iter()
            .all(|e| ["meta.json", "tenants", "wal"].contains(&e.as_str())),
        "unexpected entries in the data dir: {entries:?}"
    );
    // The rebuilt answer is bit-identical: the full response (minus
    // wall-clock and cache provenance, which differ by construction)
    // matches the pre-eviction cache-hit reference.
    let strip = |value: &Value| {
        let mut value = canonical(value);
        if let Value::Object(map) = &mut value {
            if let Some(Value::Object(mut stats)) = map.get("stats").cloned() {
                stats.remove("cube_from_cache");
                map.insert("stats".into(), Value::Object(stats));
            }
        }
        value
    };
    assert_eq!(strip(&rebuilt), strip(&reference));

    // The rebuilt cube is now warm: `/compare` over it must reproduce
    // the pinned golden — the same bytes the in-memory server produces —
    // at every thread count.
    let golden = include_str!("golden_compare.jsonl")
        .lines()
        .next()
        .expect("golden file has the canonical /compare JSON on line 1");
    for threads in [1usize, 2, 8] {
        let value = client
            .compare_value(
                created.dataset_id,
                &base_request().with_threads(threads),
                None,
            )
            .unwrap();
        assert_eq!(
            serde_json::to_string(&canonical_compare(&value)).unwrap(),
            golden,
            "threads={threads}: rebuilt /compare diverged from the golden"
        );
    }
    drop(client);
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Satellite (a): DELETE removes durable state too — a reboot over the
/// same data dir must not resurrect the dataset, and its id is never
/// recycled.
#[test]
fn deleted_datasets_stay_deleted_across_reboots() {
    let data = dataset();
    let dir = temp_dir("delete");
    let (doomed, survivor) = {
        let mut handle = Server::bind(durable_config(&dir)).unwrap();
        let mut client = Client::new(handle.local_addr());
        let doomed = client
            .register(&data.schema(), &data.query(), &data.rows_between(0, 30))
            .unwrap()
            .dataset_id;
        let survivor = client
            .register(&data.schema(), &data.query(), &data.rows_between(0, 60))
            .unwrap()
            .dataset_id;
        client.remove(doomed).unwrap();
        drop(client);
        handle.shutdown();
        (doomed, survivor)
    };

    let mut handle = Server::bind(durable_config(&dir)).unwrap();
    let mut client = Client::new(handle.local_addr());
    // The tombstone held: the deleted tenant is gone, the other serves.
    match client.stats(doomed).unwrap_err() {
        ClientError::Api(e) => assert_eq!((e.status, e.kind.as_str()), (404, "unknown_dataset")),
        other => panic!("expected a 404, got {other}"),
    }
    let answer = client.explain(survivor, &base_request()).unwrap();
    assert_eq!(answer.stats.n_points, 60);
    // No durable residue: the tenant snapshot is gone.
    assert!(!dir.join("tenants").join(format!("t{doomed}.snap")).exists());
    // New registrations never recycle the deleted id.
    let fresh = client
        .register(&data.schema(), &data.query(), &data.rows_between(0, 10))
        .unwrap()
        .dataset_id;
    assert_ne!(fresh, doomed);
    assert!(fresh > survivor);
    drop(client);
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// `1e999` overflows `f64` to infinity. Accepted, it would be logged as
/// `null`, and replay would skip that record and then every later record
/// of the tenant as a sequence gap. It is a 400 that never reaches the WAL,
/// and the appends after it survive a reboot.
#[test]
fn out_of_range_numbers_are_rejected_before_the_wal() {
    let data = dataset();
    let dir = temp_dir("range");
    let id = {
        let mut handle = Server::bind(durable_config(&dir)).unwrap();
        let mut client = Client::new(handle.local_addr());
        let id = client
            .register(&data.schema(), &data.query(), &data.rows_between(0, 30))
            .unwrap()
            .dataset_id;
        let logged = read_counter(&client.metrics().unwrap(), "store", "wal_appends");
        let body = format!(r#"{{"rows":[[30,"{}",1e999]]}}"#, data.categories[0]);
        let response = client
            .raw("POST", &format!("/datasets/{id}/rows"), Some(&body), &[])
            .unwrap();
        assert_eq!(response.status, 400);
        let error: Value =
            serde_json::from_str(std::str::from_utf8(&response.body).unwrap()).unwrap();
        assert_eq!(
            error.get("kind").and_then(Value::as_str),
            Some("bad_request")
        );
        let message = error.get("message").and_then(Value::as_str).unwrap();
        assert!(message.contains("number out of range"), "{message}");
        let metrics = client.metrics().unwrap();
        assert_eq!(read_counter(&metrics, "store", "wal_appends"), logged);
        client.append_rows(id, &data.rows_between(30, 60)).unwrap();
        drop(client);
        handle.shutdown();
        id
    };

    let mut handle = Server::bind(durable_config(&dir)).unwrap();
    let mut client = Client::new(handle.local_addr());
    let answer = client.explain(id, &base_request()).unwrap();
    assert_eq!(answer.stats.n_points, 60);
    drop(client);
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A `tsx-server` child process, SIGKILLed and reaped when dropped, so a
/// failing assertion ends the server with its test instead of leaving it
/// running (and holding the test's inherited stdout).
struct ServerProcess(std::process::Child);

impl Drop for ServerProcess {
    fn drop(&mut self) {
        // Errors are ignored: the child may already be gone.
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// Boots the real `tsx-server` binary on an ephemeral port with
/// `--data-dir` and returns it with its parsed address.
fn spawn_server(dir: &std::path::Path) -> (ServerProcess, SocketAddr) {
    let mut child = std::process::Command::new(env!("CARGO_BIN_EXE_tsx-server"))
        .args(["--addr", "127.0.0.1:0", "--data-dir", dir.to_str().unwrap()])
        .stdout(std::process::Stdio::piped())
        .spawn()
        .expect("spawn tsx-server");
    let stdout = child.stdout.take().expect("piped stdout");
    let server = ServerProcess(child);
    let mut lines = std::io::BufReader::new(stdout).lines();
    let addr = loop {
        let line = lines
            .next()
            .expect("tsx-server exited before listening")
            .expect("read tsx-server stdout");
        if let Some(rest) = line.split("http://").nth(1) {
            let addr = rest.split_whitespace().next().unwrap();
            break addr.parse().expect("parse the printed address");
        }
    };
    // Keep draining stdout so the child never blocks on a full pipe.
    std::thread::spawn(move || for _ in lines {});
    (server, addr)
}

/// Satellite (f): kill -9 mid-flight, reboot on the same data dir, and
/// every acknowledged mutation — registration and streamed rows — is
/// back, with warm answers byte-identical to the pre-crash ones.
#[test]
fn sigkilled_server_recovers_acknowledged_state_on_reboot() {
    let data = dataset();
    let dir = temp_dir("sigkill");

    let (server, addr) = spawn_server(&dir);
    let mut client = Client::new(addr);
    let created = client
        .register(&data.schema(), &data.query(), &data.rows_between(0, 40))
        .unwrap();
    // Stream the rest in two acknowledged batches.
    client
        .append_rows(created.dataset_id, &data.rows_between(40, 50))
        .unwrap();
    client
        .append_rows(created.dataset_id, &data.rows_between(50, 60))
        .unwrap();
    let requests = [
        base_request(),
        base_request().with_fixed_k(3),
        base_request()
            .with_top_m(1)
            .with_diff_metric(DiffMetric::RelativeChange),
    ];
    let before: Vec<Value> = requests
        .iter()
        .map(|r| canonical(&client.explain_value(created.dataset_id, r).unwrap()))
        .collect();
    drop(client);

    // No goodbyes: SIGKILL, as a crash would.
    drop(server);

    let (server, addr) = spawn_server(&dir);
    let mut client = Client::new(addr);
    // The dataset survives under its original id with all 60 points…
    let stats = client.stats(created.dataset_id).unwrap();
    assert_eq!(stats.get("n_points").and_then(Value::as_f64), Some(60.0));
    // …and warm answers are byte-identical to the pre-crash ones (both
    // sides are first-touch cube builds, so even the stats block agrees).
    for (request, expected) in requests.iter().zip(&before) {
        let after = canonical(&client.explain_value(created.dataset_id, request).unwrap());
        assert_eq!(&after, expected, "post-reboot answer diverged");
    }
    // Recovery is visible in the store metrics.
    let metrics = client.metrics().unwrap();
    assert!(read_counter(&metrics, "store", "recoveries") >= 1.0);
    drop(client);
    drop(server);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A checkpoint the registry trips itself (one per 256 WAL records), then
/// a SIGKILL: the reboot loads the tenant snapshot that checkpoint wrote,
/// replays the appends logged after it, and serves every acknowledged
/// point with byte-identical answers. Every step waits on the response of
/// the one before it, so the order of events is the order of requests.
#[test]
fn a_registry_triggered_checkpoint_survives_a_sigkill() {
    let data = SyntheticDataset::generate(SyntheticConfig {
        seed: 11,
        ..SyntheticConfig::default()
    });
    let n_points = data.config.n_points;
    let dir = temp_dir("checkpoint-sigkill");

    let (server, addr) = spawn_server(&dir);
    let mut client = Client::new(addr);
    let created = client
        .register(&data.schema(), &data.query(), &data.rows_between(0, 10))
        .unwrap();
    // One acknowledged append per row: 270 appends after the registration,
    // so the 256th WAL record trips a checkpoint and 15 land after it.
    let mut appends = 0;
    for row in data.rows_between(10, n_points) {
        client.append_rows(created.dataset_id, &[row]).unwrap();
        appends += 1;
    }
    assert!(appends >= 256, "{appends} appends");
    let metrics = client.metrics().unwrap();
    assert!(read_counter(&metrics, "store", "snapshots") >= 1.0);
    assert_eq!(
        read_counter(&metrics, "store", "wal_appends"),
        (appends + 1) as f64
    );
    assert!(dir
        .join("tenants")
        .join(format!("t{}.snap", created.dataset_id))
        .exists());
    let requests = [
        ExplainRequest::new(["category"]),
        ExplainRequest::new(["category"]).with_fixed_k(3),
    ];
    let before: Vec<Value> = requests
        .iter()
        .map(|r| canonical(&client.explain_value(created.dataset_id, r).unwrap()))
        .collect();
    drop(client);

    drop(server);

    let (server, addr) = spawn_server(&dir);
    let mut client = Client::new(addr);
    let stats = client.stats(created.dataset_id).unwrap();
    assert_eq!(
        stats.get("n_points").and_then(Value::as_f64),
        Some(n_points as f64)
    );
    for (request, expected) in requests.iter().zip(&before) {
        let after = canonical(&client.explain_value(created.dataset_id, request).unwrap());
        assert_eq!(&after, expected, "post-reboot answer diverged");
    }
    drop(client);
    drop(server);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A tenant nothing is appended to keeps the snapshot file the first
/// checkpoint wrote: the second checkpoint writes only the tenant that
/// changed, and after a SIGKILL the untouched tenant recovers from that
/// file with byte-identical answers.
#[test]
fn an_untouched_tenant_keeps_its_snapshot_through_a_second_checkpoint_and_a_sigkill() {
    use std::os::unix::fs::MetadataExt as _;
    let quiet = dataset();
    let busy = SyntheticDataset::generate(SyntheticConfig {
        n_points: 200,
        seed: 11,
        ..SyntheticConfig::default()
    });
    let dir = temp_dir("untouched-sigkill");
    let (server, addr) = spawn_server(&dir);
    let mut client = Client::new(addr);
    let untouched = client
        .register(&quiet.schema(), &quiet.query(), &quiet.rows_between(0, 60))
        .unwrap()
        .dataset_id;
    let appended = client
        .register(&busy.schema(), &busy.query(), &busy.rows_between(0, 10))
        .unwrap()
        .dataset_id;
    let snapshot = dir.join("tenants").join(format!("t{untouched}.snap"));
    let snapshots =
        |client: &mut Client| read_counter(&client.metrics().unwrap(), "store", "snapshots");
    // Two registrations, then one WAL record per append: the 254th append
    // is the 256th record and trips the first checkpoint, the 510th the
    // second.
    let mut first = None;
    for (i, row) in busy.rows_between(10, 200).into_iter().enumerate() {
        client.append_rows(appended, &[row]).unwrap();
        if i + 1 == 254 {
            assert_eq!(
                snapshots(&mut client),
                2.0,
                "the first checkpoint writes both"
            );
            let meta = std::fs::metadata(&snapshot).unwrap();
            first = Some((std::fs::read(&snapshot).unwrap(), meta.ino()));
        }
    }
    assert_eq!(snapshots(&mut client), 3.0, "the second writes one");
    let meta = std::fs::metadata(&snapshot).unwrap();
    assert!(
        first == Some((std::fs::read(&snapshot).unwrap(), meta.ino())),
        "the untouched tenant's snapshot was rewritten"
    );
    let requests = [base_request(), base_request().with_fixed_k(3)];
    let before: Vec<Value> = requests
        .iter()
        .map(|r| canonical(&client.explain_value(untouched, r).unwrap()))
        .collect();
    drop(client);

    drop(server);

    let (server, addr) = spawn_server(&dir);
    let mut client = Client::new(addr);
    for (request, expected) in requests.iter().zip(&before) {
        let after = canonical(&client.explain_value(untouched, request).unwrap());
        assert_eq!(&after, expected, "post-reboot answer diverged");
    }
    let stats = client.stats(appended).unwrap();
    assert_eq!(stats.get("n_points").and_then(Value::as_f64), Some(200.0));
    drop(client);
    drop(server);
    let _ = std::fs::remove_dir_all(&dir);
}
