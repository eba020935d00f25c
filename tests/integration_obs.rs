//! End-to-end acceptance of the observability subsystem: a booted
//! `tsx-server` must echo (or mint) `X-Request-Id` on every response,
//! capture slow requests in the flight recorder with the latency block
//! their answer carried (or the stage a deadline tripped at), serve a
//! valid Prometheus text exposition at
//! `/metrics?format=prometheus`, and keep the JSON `/metrics` document
//! byte-identical whether or not a `format` parameter spelled it out.
//! The metric surface itself — every JSON leaf path and every Prometheus
//! family — is pinned by `golden_metrics_surface.txt`.

use std::collections::BTreeSet;

use serde::{Serialize, Value};
use tsexplain::ExplainRequest;
use tsexplain_datagen::synthetic::{SyntheticConfig, SyntheticDataset};
use tsexplain_server::wire::CompareBody;
use tsexplain_server::{Client, Server, ServerConfig};

/// The `/metrics` surface of a server with a data dir: `json <path>` for
/// every JSON leaf and the `# TYPE <name> <kind>` line of every
/// Prometheus family. Scrapers depend on each line, so new metrics only
/// append to it.
const GOLDEN_SURFACE: &str = include_str!("golden_metrics_surface.txt");

fn dataset() -> SyntheticDataset {
    SyntheticDataset::generate(SyntheticConfig {
        n_points: 60,
        seed: 7,
        ..SyntheticConfig::default()
    })
}

/// Boots a server whose flight recorder captures *every* request
/// (`slow_ms: 0`), registers the corpus dataset, and runs one explain.
fn boot() -> (tsexplain_server::ServerHandle, Client, u64) {
    boot_with(ServerConfig::default())
}

/// [`boot`] over `base` (whose `workers` and `slow_ms` it overrides).
fn boot_with(base: ServerConfig) -> (tsexplain_server::ServerHandle, Client, u64) {
    let handle = Server::bind(ServerConfig {
        workers: 2,
        slow_ms: 0,
        ..base
    })
    .unwrap();
    let data = dataset();
    let mut client = Client::new(handle.local_addr());
    let created = client
        .register(&data.schema(), &data.query(), &data.rows_between(0, 60))
        .unwrap();
    (handle, client, created.dataset_id)
}

/// POSTs `body` to `path` under `request_id`: the response's status and
/// JSON body.
fn post(client: &mut Client, path: &str, body: &Value, request_id: &str) -> (u16, Value) {
    let body = serde_json::to_string(body).unwrap();
    let response = client
        .raw("POST", path, Some(&body), &[("x-request-id", request_id)])
        .unwrap();
    let text = std::str::from_utf8(&response.body).unwrap();
    (response.status, serde_json::from_str(text).unwrap())
}

/// The recorded requests of a `/debug/requests` document.
fn flight_requests(flight: &Value) -> &[Value] {
    flight.get("requests").and_then(Value::as_array).unwrap()
}

/// The flight entry of the request sent under `request_id`.
fn flight_entry<'a>(requests: &'a [Value], request_id: &str) -> &'a Value {
    requests
        .iter()
        .find(|e| e.get("request_id").and_then(Value::as_str) == Some(request_id))
        .unwrap_or_else(|| panic!("no flight entry for {request_id}"))
}

/// `value` with every leaf nulled: its key structure.
fn shape(value: &Value) -> Value {
    match value {
        Value::Object(map) => Value::object(map.iter().map(|(k, v)| (k.clone(), shape(v)))),
        Value::Array(items) => Value::Array(items.iter().map(shape).collect()),
        _ => Value::Null,
    }
}

/// How many arrays and objects `value` nests.
fn depth(value: &Value) -> usize {
    match value {
        Value::Array(items) => 1 + items.iter().map(depth).max().unwrap_or(0),
        Value::Object(map) => 1 + map.values().map(depth).max().unwrap_or(0),
        _ => 0,
    }
}

/// Every leaf of a JSON document as a dotted path (`server.admission.shed`).
fn leaf_paths(value: &Value, path: &str, into: &mut Vec<String>) {
    match value {
        Value::Object(map) => {
            for (key, child) in map {
                let child_path = if path.is_empty() {
                    key.clone()
                } else {
                    format!("{path}.{key}")
                };
                leaf_paths(child, &child_path, into);
            }
        }
        _ => into.push(path.to_string()),
    }
}

/// One scrape's metric surface in [`GOLDEN_SURFACE`]'s line format, sorted.
fn surface(doc: &Value, exposition: &str) -> Vec<String> {
    let mut paths = Vec::new();
    leaf_paths(doc, "", &mut paths);
    let mut lines: Vec<String> = paths.into_iter().map(|p| format!("json {p}")).collect();
    lines.extend(
        exposition
            .lines()
            .filter(|l| l.starts_with("# TYPE "))
            .map(str::to_string),
    );
    lines.sort();
    lines
}

/// The pinned surface, sorted; without a data dir the `store` JSON block
/// and the `tsx_store_*` families are absent.
fn golden_surface(with_store: bool) -> Vec<String> {
    let mut lines: Vec<String> = GOLDEN_SURFACE
        .lines()
        .filter(|l| !l.is_empty())
        .filter(|l| with_store || !(l.starts_with("json store.") || l.contains(" tsx_store_")))
        .map(str::to_string)
        .collect();
    lines.sort();
    lines
}

/// Each Prometheus family is exactly one `# HELP` line, then its `# TYPE`
/// line, then all of its samples in one contiguous block.
fn assert_family_layout(text: &str) {
    let mut declared = BTreeSet::new();
    let mut family: Option<(&str, &str)> = None;
    let mut lines = text.lines();
    while let Some(line) = lines.next() {
        if let Some(help) = line.strip_prefix("# HELP ") {
            let name = help.split(' ').next().unwrap();
            assert!(declared.insert(name), "family {name} is declared twice");
            let kind = lines
                .next()
                .and_then(|l| l.strip_prefix(&format!("# TYPE {name} ")))
                .unwrap_or_else(|| panic!("# HELP {name} is not followed by its # TYPE"));
            family = Some((name, kind));
            continue;
        }
        assert!(!line.starts_with('#'), "stray comment line {line:?}");
        let series = line.split(['{', ' ']).next().unwrap();
        let (name, kind) = family.unwrap_or_else(|| panic!("sample {line:?} before any family"));
        let histogram_part = kind == "histogram"
            && series
                .strip_prefix(name)
                .is_some_and(|rest| ["_bucket", "_sum", "_count"].contains(&rest));
        assert!(
            series == name || histogram_part,
            "sample {line:?} sits outside its family's block (inside {name})"
        );
    }
}

/// A scratch data dir unique to this process and `tag`.
fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("tsx-obs-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn request_ids_are_echoed_or_minted() {
    let (mut handle, mut client, id) = boot();
    let body = serde_json::to_string(&serde::Serialize::serialize(&ExplainRequest::new([
        "category",
    ])))
    .unwrap();

    // A client-supplied id comes back verbatim.
    let response = client
        .raw(
            "POST",
            &format!("/datasets/{id}/explain"),
            Some(&body),
            &[("x-request-id", "trace-abc-123")],
        )
        .unwrap();
    assert_eq!(response.status, 200);
    assert_eq!(response.header("x-request-id"), Some("trace-abc-123"));

    // Without one, the server mints a process-unique id — on errors too.
    for (method, path, expect_2xx) in [
        ("GET", "/healthz".to_string(), true),
        ("GET", "/nope".to_string(), false),
        ("DELETE", format!("/datasets/{id}/explain"), false),
    ] {
        let response = client.raw(method, &path, None, &[]).unwrap();
        assert_eq!((200..300).contains(&response.status), expect_2xx, "{path}");
        let minted = response
            .header("x-request-id")
            .expect("id on every response");
        assert!(minted.starts_with("tsx-"), "minted id {minted:?}");
    }

    // The flight recorder (slow_ms = 0 records everything) carries the
    // client-supplied id on its entry.
    let flight = client.debug_requests().unwrap();
    let requests = flight.get("requests").and_then(Value::as_array).unwrap();
    assert!(requests
        .iter()
        .any(|entry| { entry.get("request_id").and_then(Value::as_str) == Some("trace-abc-123") }));
    drop(client);
    handle.shutdown();
}

#[test]
fn flight_entries_carry_the_answers_latency_block_at_any_thread_count() {
    let (mut handle, mut client, id) = boot();
    // (request id, the latency block its answer carried)
    let mut answered = Vec::new();
    for threads in [1, 2] {
        let request = ExplainRequest::new(["category"]).with_threads(threads);
        let explain_id = format!("explain-t{threads}");
        let (status, explained) = post(
            &mut client,
            &format!("/datasets/{id}/explain"),
            &request.serialize(),
            &explain_id,
        );
        assert_eq!(status, 200, "{explained:?}");
        answered.push((explain_id, explained.get("latency").cloned().unwrap()));

        let compare_id = format!("compare-t{threads}");
        let body = CompareBody {
            request,
            window: None,
        };
        let (status, compared) = post(
            &mut client,
            &format!("/datasets/{id}/compare"),
            &body.serialize(),
            &compare_id,
        );
        assert_eq!(status, 200, "{compared:?}");
        // The reference (DP) row is the first.
        let dp_latency = compared
            .get("strategies")
            .and_then(Value::as_array)
            .and_then(|rows| rows.first())
            .and_then(|row| row.get("result"))
            .and_then(|result| result.get("latency"))
            .cloned()
            .unwrap();
        answered.push((compare_id, dp_latency));
    }

    let flight = client.debug_requests().unwrap();
    assert_eq!(
        flight.get("slow_threshold_ms").and_then(Value::as_f64),
        Some(0.0)
    );
    let requests = flight_requests(&flight);
    // The flight entry holds the very latency block the answer carried:
    // one clock, whatever the thread count.
    for (request_id, latency) in &answered {
        let entry = flight_entry(requests, request_id);
        assert_eq!(
            entry.get("annotations").and_then(|a| a.get("latency")),
            Some(latency),
            "{request_id}"
        );
        assert!(entry
            .get("duration_nanos")
            .and_then(Value::as_f64)
            .is_some_and(|d| d > 0.0));
    }
    // An entry's structure does not change with the thread count.
    for route in ["explain", "compare"] {
        let one = flight_entry(requests, &format!("{route}-t1"));
        let two = flight_entry(requests, &format!("{route}-t2"));
        assert_eq!(shape(one), shape(two), "{route}");
    }
    assert!(
        requests.iter().all(|e| e.get("spans").is_none()),
        "flight entries carry no span trees"
    );

    // The deepest documents the server writes stay far under the JSON
    // parser's nesting cap of 128, so a client can always read them back.
    assert!(
        depth(&flight) <= 16,
        "flight recorder nests {} deep",
        depth(&flight)
    );

    // The ring is bounded: entries report monotonically increasing seq.
    let seqs: Vec<f64> = requests
        .iter()
        .map(|e| e.get("seq").and_then(Value::as_f64).unwrap())
        .collect();
    assert!(seqs.windows(2).all(|w| w[0] < w[1]), "{seqs:?}");
    drop(client);
    handle.shutdown();
}

#[test]
fn a_deadlined_requests_entry_names_its_stage() {
    let (mut handle, mut client, id) = boot();
    let path = format!("/datasets/{id}/explain");
    let request = ExplainRequest::new(["category"]);
    let deadlined = request.clone().with_timeout_ms(0).serialize();
    // A zero budget trips at the first poll: the cold cube build's, then,
    // once the cube is cached, the pipeline's entry poll.
    let (status, body) = post(&mut client, &path, &deadlined, "deadlined-cold");
    assert_eq!(status, 504, "{body:?}");
    client.explain_value(id, &request).unwrap();
    let (status, body) = post(&mut client, &path, &deadlined, "deadlined-warm");
    assert_eq!(status, 504, "{body:?}");
    assert_eq!(
        body.get("kind").and_then(Value::as_str),
        Some("deadline_exceeded")
    );

    let flight = client.debug_requests().unwrap();
    for (request_id, stage) in [("deadlined-cold", "cube"), ("deadlined-warm", "start")] {
        let annotations = flight_entry(flight_requests(&flight), request_id)
            .get("annotations")
            .unwrap();
        assert_eq!(
            annotations
                .get("cancelled_at_stage")
                .and_then(Value::as_str),
            Some(stage),
            "{request_id}"
        );
        // Nothing was answered, so there is no latency block to keep.
        assert!(annotations.get("latency").is_none(), "{annotations:?}");
    }
    drop(client);
    handle.shutdown();
}

#[test]
fn prometheus_exposition_is_well_formed_and_json_metrics_unchanged() {
    let (mut handle, mut client, id) = boot();
    client
        .explain_value(id, &ExplainRequest::new(["category"]))
        .unwrap();
    let _ = client.raw("GET", "/nope", None, &[]); // one 404 for the 4xx class

    let text = client.metrics_prometheus().unwrap();
    assert_family_layout(&text);
    assert!(text.contains("tsx_requests_total "), "{text}");
    assert!(
        text.contains("tsx_request_duration_seconds_bucket{route=\"explain\""),
        "{text}"
    );
    assert!(
        text.contains("tsx_explain_duration_seconds_bucket{strategy=\"dp\""),
        "{text}"
    );
    assert!(
        text.contains("tsx_responses_total{class=\"4xx\"}"),
        "{text}"
    );
    // The deadline counters are additive members of the stable exposition:
    // present (with headers) from boot, zero until a deadline trips.
    assert!(text.contains("tsx_deadline_exceeded_total "), "{text}");
    assert!(text.contains("tsx_cancelled_inflight_total "), "{text}");

    // Line-wise validity: every line is a comment or `name{labels} value`
    // with a parseable finite value.
    for line in text.lines() {
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (series, value) = line.rsplit_once(' ').expect(line);
        assert!(
            series
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphabetic() || c == '_'),
            "{line}"
        );
        let value: f64 = value.parse().expect(line);
        assert!(value.is_finite(), "{line}");
    }

    // Histogram sanity on one family: cumulative buckets end at +Inf ==
    // _count, and _count >= 1 for the explain route.
    let count = text
        .lines()
        .find(|l| l.starts_with("tsx_request_duration_seconds_count{route=\"explain\"}"))
        .and_then(|l| l.rsplit_once(' '))
        .and_then(|(_, v)| v.parse::<f64>().ok())
        .expect("explain route count series");
    assert!(count >= 1.0);
    let inf = text
        .lines()
        .find(|l| {
            l.starts_with("tsx_request_duration_seconds_bucket{route=\"explain\",le=\"+Inf\"}")
        })
        .and_then(|l| l.rsplit_once(' '))
        .and_then(|(_, v)| v.parse::<f64>().ok())
        .expect("+Inf bucket");
    assert_eq!(inf, count);

    // The JSON document is the same bytes with or without ?format=json,
    // and gained no new keys for the scrape formats.
    let bare = client.raw("GET", "/metrics", None, &[]).unwrap();
    let explicit = client
        .raw("GET", "/metrics?format=json", None, &[])
        .unwrap();
    assert_eq!(bare.status, 200);
    // The two scrapes may legitimately differ (requests_total advanced
    // between them), so compare shapes, not bytes: same top-level keys.
    let bare: Value = serde_json::from_str(std::str::from_utf8(&bare.body).unwrap()).unwrap();
    let explicit: Value =
        serde_json::from_str(std::str::from_utf8(&explicit.body).unwrap()).unwrap();
    // Without a data dir: the pinned surface minus the store's metrics.
    assert_eq!(surface(&bare, &text), golden_surface(false));
    let keys = |v: &Value| -> Vec<String> {
        v.as_object()
            .map(|m| m.keys().cloned().collect())
            .unwrap_or_default()
    };
    assert_eq!(keys(&bare), keys(&explicit));
    assert_eq!(
        keys(&bare.get("server").cloned().unwrap()),
        keys(&explicit.get("server").cloned().unwrap())
    );
    // The JSON document stayed additive: every pre-deadline block is
    // still present, and the new `deadlines` block carries exactly its
    // documented keys.
    let server = bare.get("server").cloned().unwrap();
    for block in ["admission", "parallel", "memo", "deadlines"] {
        assert!(server.get(block).is_some(), "server metrics lack {block}");
    }
    let deadlines = server.get("deadlines").cloned().unwrap();
    assert_eq!(
        keys(&deadlines), // JSON objects serialize key-sorted
        vec![
            "cancelled_inflight".to_string(),
            "deadline_exceeded".to_string(),
            "request_timeout_ms".to_string(),
        ]
    );
    // No server cap configured: the cap reports null, the counters zero.
    assert!(matches!(
        deadlines.get("request_timeout_ms"),
        Some(Value::Null)
    ));
    assert_eq!(
        deadlines.get("deadline_exceeded").and_then(Value::as_f64),
        Some(0.0)
    );

    // An unknown format is a 400, not a panic or a silent JSON fallback.
    let bad = client.raw("GET", "/metrics?format=xml", None, &[]).unwrap();
    assert_eq!(bad.status, 400);
    drop(client);
    handle.shutdown();
}

#[test]
fn metric_surface_matches_the_pinned_list() {
    let dir = temp_dir("surface");
    let (mut handle, mut client, id) = boot_with(ServerConfig {
        data_dir: Some(dir.clone()),
        ..ServerConfig::default()
    });
    client
        .explain_value(id, &ExplainRequest::new(["category"]))
        .unwrap();
    let text = client.metrics_prometheus().unwrap();
    assert_family_layout(&text);
    let doc = client.metrics().unwrap();
    let observed = surface(&doc, &text);
    assert_eq!(
        observed,
        golden_surface(true),
        "observed surface:\n{}",
        observed.join("\n")
    );
    drop(client);
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
