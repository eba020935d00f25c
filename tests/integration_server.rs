//! End-to-end acceptance of the HTTP serving subsystem: a booted
//! `tsx-server` must answer register/append/explain/stats/metrics over the
//! wire with responses identical (modulo latency timings) to what an
//! in-process [`ExplainSession`] produces, map failures to structured
//! 4xx/5xx bodies, and survive concurrent clients.

use serde::Value;
use tsexplain::{Datum, DiffMetric, ExplainRequest, ExplainSession, Optimizations, Relation};
use tsexplain_datagen::synthetic::{SyntheticConfig, SyntheticDataset};
use tsexplain_server::{Client, ClientError, Server, ServerConfig};

/// The synthetic paper corpus dataset this whole test serves.
fn dataset() -> SyntheticDataset {
    SyntheticDataset::generate(SyntheticConfig {
        n_points: 60,
        seed: 7,
        ..SyntheticConfig::default()
    })
}

fn relation_until(data: &SyntheticDataset, hi: usize) -> Relation {
    let mut b = Relation::builder(data.schema());
    for row in data.rows_between(0, hi) {
        b.push_row(row).unwrap();
    }
    b.finish()
}

fn requests() -> Vec<ExplainRequest> {
    let base = ExplainRequest::new(["category"]).with_optimizations(Optimizations::none());
    vec![
        base.clone(),
        base.clone().with_fixed_k(3),
        base.clone()
            .with_top_m(1)
            .with_diff_metric(DiffMetric::RelativeChange),
        base.clone().with_smoothing(5),
        base.with_time_range(10i64, 40i64),
    ]
}

/// Serializes a result with the latency block removed — wall-clock timings
/// (and the thread count recorded inside them) are the one legitimately
/// nondeterministic part of a response.
fn canonical(result_value: &Value) -> Value {
    match result_value {
        Value::Object(map) => {
            let mut map = map.clone();
            map.remove("latency");
            Value::Object(map)
        }
        other => other.clone(),
    }
}

/// [`canonical`] plus `stats.cube_from_cache` removed — eviction churn
/// legitimately flips whether an answer came from a cached cube, never
/// what the answer is.
fn strip_cache_flag(value: &Value) -> Value {
    let mut value = canonical(value);
    if let Value::Object(map) = &mut value {
        if let Some(Value::Object(stats)) = map.get("stats") {
            let mut stats = stats.clone();
            stats.remove("cube_from_cache");
            map.insert("stats".into(), Value::Object(stats));
        }
    }
    value
}

/// [`canonical_compare`] plus cube provenance stripped from every
/// strategy row (the stress test's comparison under eviction churn).
fn strip_compare(value: &Value) -> Value {
    let mut value = canonical_compare(value);
    if let Value::Object(map) = &mut value {
        if let Some(Value::Array(rows)) = map.get("strategies").cloned() {
            let rows = rows
                .into_iter()
                .map(|row| match row {
                    Value::Object(mut row) => {
                        if let Some(result) = row.remove("result") {
                            row.insert("result".into(), strip_cache_flag(&result));
                        }
                        Value::Object(row)
                    }
                    other => other,
                })
                .collect();
            map.insert("strategies".into(), Value::Array(rows));
        }
    }
    value
}

/// Canonicalizes a `/compare` response: the latency block of every
/// strategy row is removed, everything else — cuts, chosen K, curves,
/// distances, ranks, stats — stays byte-comparable.
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

#[test]
fn http_responses_equal_in_process_results() {
    let mut handle = Server::bind(ServerConfig {
        workers: 4,
        ..ServerConfig::default()
    })
    .unwrap();
    let data = dataset();

    // Wire side: register over HTTP with the first 40 timestamps.
    let mut client = Client::new(handle.local_addr());
    let created = client
        .register(&data.schema(), &data.query(), &data.rows_between(0, 40))
        .unwrap();
    assert_eq!(created.n_points, 40);
    assert_eq!(created.n_rows, 40 * data.categories.len());

    // In-process side: the same data and the same request sequence.
    let mut session = ExplainSession::new(relation_until(&data, 40), data.query()).unwrap();

    for (i, request) in requests().iter().enumerate() {
        let wire = client.explain_value(created.dataset_id, request).unwrap();
        let local = session.explain(request).unwrap();
        assert_eq!(
            canonical(&wire),
            canonical(&serde_json::to_value(&local)),
            "request #{i} diverged between HTTP and in-process"
        );
    }

    // Streaming append over HTTP, mirrored locally, stays identical.
    let ack = client
        .append_rows(created.dataset_id, &data.rows_between(40, 60))
        .unwrap();
    assert_eq!(ack.n_points, 60);
    session.append_rows(data.rows_between(40, 60)).unwrap();
    let request = requests().remove(0);
    let wire = client.explain_value(created.dataset_id, &request).unwrap();
    let local = session.explain(&request).unwrap();
    assert_eq!(canonical(&wire), canonical(&serde_json::to_value(&local)));

    // The decoded result is the engine's own type, not a lookalike.
    let decoded = client.explain(created.dataset_id, &request).unwrap();
    assert_eq!(decoded.segmentation, local.segmentation);
    assert_eq!(decoded.chosen_k, local.chosen_k);
    assert_eq!(decoded.aggregate, local.aggregate);

    // Stats reflect the shared history: registration + appends + explains.
    let stats = client.stats(created.dataset_id).unwrap();
    assert_eq!(stats.get("n_points").and_then(Value::as_f64), Some(60.0));
    let session_stats = stats.get("session").cloned().unwrap();
    assert_eq!(
        session_stats.get("rows_appended").and_then(Value::as_f64),
        Some((20 * data.categories.len()) as f64)
    );
    drop(client);
    handle.shutdown();
}

#[test]
fn compare_fans_out_across_all_strategies() {
    let mut handle = Server::bind(ServerConfig {
        workers: 4,
        ..ServerConfig::default()
    })
    .unwrap();
    let data = dataset();
    let mut client = Client::new(handle.local_addr());
    let created = client
        .register(&data.schema(), &data.query(), &data.rows_between(0, 60))
        .unwrap();
    let request = requests().remove(0);

    // Warm the cube, then take a cache-hit reference for the DP.
    client.explain_value(created.dataset_id, &request).unwrap();
    let reference = canonical(&client.explain_value(created.dataset_id, &request).unwrap());

    let comparison = client.compare(created.dataset_id, &request, None).unwrap();
    assert_eq!(comparison.reference, "dp");
    assert!(comparison.window >= 2);
    let names: Vec<&str> = comparison
        .strategies
        .iter()
        .map(|s| s.strategy.as_str())
        .collect();
    assert_eq!(names, tsexplain::STRATEGIES.to_vec());

    // The DP row is byte-identical (modulo latency) to a plain /explain
    // and is its own distance reference.
    let dp = &comparison.strategies[0];
    assert_eq!(dp.distance_percent_vs_dp, 0.0);
    assert_eq!(
        canonical(&serde_json::to_value(&dp.result)),
        reference,
        "/compare's dp row diverged from /explain"
    );
    // Metrics are well-formed: ranks are a 1-based permutation with ties,
    // distances are finite and nonnegative.
    for row in &comparison.strategies {
        assert!(row.distance_percent_vs_dp >= 0.0);
        assert!(row.distance_percent_vs_dp.is_finite());
        assert!((1.0..=4.0).contains(&row.objective_rank));
        assert_eq!(row.result.strategy, row.strategy);
    }
    assert!(comparison
        .strategies
        .iter()
        .any(|row| row.objective_rank == 1.0));

    // All four strategies shared the tenant's one cube.
    let stats = client.stats(created.dataset_id).unwrap();
    let session_stats = stats.get("session").cloned().unwrap();
    assert_eq!(
        session_stats.get("cubes_built").and_then(Value::as_f64),
        Some(1.0)
    );

    // An explicit window is honoured; an infeasible one is a 400.
    let windowed = client
        .compare(created.dataset_id, &request, Some(5))
        .unwrap();
    assert_eq!(windowed.window, 5);

    // A time-sliced compare auto-sizes its window from the *sliced*
    // horizon: 16 points admit only small windows, and the fan-out must
    // still answer with all four strategies rather than 400.
    let sliced = client
        .compare(
            created.dataset_id,
            &request.clone().with_time_range(10i64, 25i64),
            None,
        )
        .unwrap();
    assert_eq!(sliced.strategies.len(), 4);
    assert!(
        2 * sliced.window + 2 <= 16,
        "window {} must fit the 16-point slice",
        sliced.window
    );
    assert!(sliced
        .strategies
        .iter()
        .all(|row| row.result.stats.n_points == 16));
    let err = client
        .compare_value(created.dataset_id, &request, Some(40))
        .unwrap_err();
    match err {
        ClientError::Api(e) => {
            assert_eq!((e.status, e.kind.as_str()), (400, "invalid_request"));
            assert!(e.message.contains("window"), "{}", e.message);
        }
        other => panic!("expected an API error, got {other}"),
    }
    drop(client);
    handle.shutdown();
}

/// Golden acceptance of the parallel `/compare` fan-out: the canonical
/// response (all four strategies' cuts, chosen K, K-variance curves,
/// distance percents and objective ranks on the synthetic corpus dataset)
/// is pinned byte-for-byte in `tests/golden_compare.jsonl` and must
/// reproduce at thread counts 1, 2 and 8 — the determinism contract of
/// the intra-query parallel layer, end-to-end through the server.
///
/// Regenerate after an intentional engine change with
/// `TSX_REGEN_GOLDEN=1 cargo test --test integration_server golden`.
#[test]
fn golden_compare_response_reproduces_at_thread_counts_1_2_8() {
    let mut handle = Server::bind(ServerConfig {
        workers: 4,
        ..ServerConfig::default()
    })
    .unwrap();
    let data = dataset();
    let mut client = Client::new(handle.local_addr());
    let created = client
        .register(&data.schema(), &data.query(), &data.rows_between(0, 60))
        .unwrap();
    let request = requests().remove(0);
    // Warm the cube so every compare (any thread count) reports identical
    // cache provenance.
    client.explain_value(created.dataset_id, &request).unwrap();

    let lines: Vec<String> = [1usize, 2, 8]
        .iter()
        .map(|&threads| {
            let value = client
                .compare_value(
                    created.dataset_id,
                    &request.clone().with_threads(threads),
                    None,
                )
                .unwrap();
            serde_json::to_string(&canonical_compare(&value)).unwrap()
        })
        .collect();
    assert_eq!(lines[0], lines[1], "threads=2 diverged from sequential");
    assert_eq!(lines[0], lines[2], "threads=8 diverged from sequential");

    if std::env::var("TSX_REGEN_GOLDEN").is_ok() {
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../tests/golden_compare.jsonl"
        );
        std::fs::write(path, format!("{}\n", lines[0])).unwrap();
        panic!("golden_compare.jsonl regenerated; rerun without TSX_REGEN_GOLDEN");
    }
    let golden = include_str!("golden_compare.jsonl")
        .lines()
        .next()
        .expect("golden file has the canonical /compare JSON on line 1");
    assert_eq!(
        lines[0], golden,
        "/compare response diverged from the pinned golden"
    );
    drop(client);
    handle.shutdown();
}

/// Concurrency stress: 8 keep-alive HTTP clients hammering `/explain` +
/// `/compare` against a registry whose global budget admits ~2 cubes,
/// with intra-query parallelism active (server default 2 threads) — the
/// server worker pool and `ParallelCtx`'s scoped threads nest without
/// deadlock, evictions churn and are counted, and every response matches
/// a single-threaded (`threads = 1`) replay computed upfront.
#[test]
fn stress_parallel_clients_with_evictions_match_sequential_replay() {
    let data = dataset();
    // Size one cube by probing a throwaway server.
    let probe = {
        let mut handle = Server::bind(ServerConfig::default()).unwrap();
        let mut client = Client::new(handle.local_addr());
        let created = client
            .register(&data.schema(), &data.query(), &data.rows_between(0, 60))
            .unwrap();
        client
            .explain_value(created.dataset_id, &requests()[0])
            .unwrap();
        let stats = client.stats(created.dataset_id).unwrap();
        let bytes = stats.get("cache_bytes").and_then(Value::as_f64).unwrap() as usize;
        drop(client);
        handle.shutdown();
        bytes
    };
    assert!(probe > 0);

    let mut handle = Server::bind(ServerConfig {
        workers: 4,
        memory_budget: probe * 2, // ~2 cubes: eviction pressure is real
        threads: Some(2),         // intra-query parallelism active
        ..ServerConfig::default()
    })
    .unwrap();
    let addr = handle.local_addr();
    let mut client = Client::new(addr);
    let created = client
        .register(&data.schema(), &data.query(), &data.rows_between(0, 60))
        .unwrap();

    // Three cube keys in play (default, max_order 1, smoothing) exceed
    // the 2-cube budget; the rotation forces rebuild/eviction churn.
    let mix: Vec<ExplainRequest> = vec![
        requests()[0].clone(),
        requests()[0].clone().with_max_order(1),
        requests()[0].clone().with_smoothing(5),
    ];

    // Single-threaded replays, computed before any concurrency. Eviction
    // churn legitimately flips cube provenance, so `cube_from_cache` is
    // stripped along with latency (see `strip_cache_flag`).
    let explain_refs: Vec<Value> = mix
        .iter()
        .map(|request| {
            let value = client
                .explain_value(created.dataset_id, &request.clone().with_threads(1))
                .unwrap();
            strip_cache_flag(&value)
        })
        .collect();
    let compare_ref = strip_compare(
        &client
            .compare_value(
                created.dataset_id,
                &requests()[0].clone().with_threads(1),
                None,
            )
            .unwrap(),
    );

    let joins: Vec<_> = (0..8)
        .map(|i| {
            let mix = mix.clone();
            let explain_refs = explain_refs.clone();
            let compare_ref = compare_ref.clone();
            std::thread::spawn(move || {
                let mut client = Client::new(addr);
                for round in 0..3 {
                    let request = &mix[(i + round) % mix.len()];
                    let got = client.explain_value(created.dataset_id, request).unwrap();
                    assert_eq!(
                        strip_cache_flag(&got),
                        explain_refs[(i + round) % mix.len()],
                        "client {i} round {round}: /explain diverged from replay"
                    );
                    let got = client
                        .compare_value(created.dataset_id, &mix[0], None)
                        .unwrap();
                    assert_eq!(
                        strip_compare(&got),
                        compare_ref,
                        "client {i} round {round}: /compare diverged from replay"
                    );
                }
            })
        })
        .collect();
    for join in joins {
        join.join().expect("no client thread may panic");
    }

    // The tight budget must have bitten, and nothing broke doing so.
    let metrics = client.metrics().unwrap();
    let registry = metrics.get("registry").cloned().unwrap();
    let totals = registry.get("totals").cloned().unwrap();
    assert!(
        totals
            .get("cube_evictions")
            .and_then(Value::as_f64)
            .unwrap()
            > 0.0,
        "the 2-cube budget must have forced evictions"
    );
    let server = metrics.get("server").cloned().unwrap();
    assert_eq!(server.get("panics").and_then(Value::as_f64), Some(0.0));
    let responses = server.get("responses").cloned().unwrap();
    assert_eq!(responses.get("5xx").and_then(Value::as_f64), Some(0.0));
    // Parallel execution was genuinely active.
    let parallel = server.get("parallel").cloned().unwrap();
    assert!(
        parallel
            .get("parallel_explains")
            .and_then(Value::as_f64)
            .unwrap()
            > 0.0,
        "intra-query parallelism must have been active"
    );
    drop(client);
    handle.shutdown();
}

/// End-to-end deadline acceptance: a request carrying a tiny `timeout_ms`
/// is answered with a well-formed `504 deadline_exceeded` — `x-request-id`
/// echoed, honest elapsed/budget fields — while `/healthz` stays live on
/// the same server, and a follow-up request *without* a deadline on the
/// same session reproduces the pinned golden `/compare` bytes: the
/// cancelled request left no partial state behind.
#[test]
fn deadline_504_is_wellformed_and_leaves_no_state_behind() {
    let mut handle = Server::bind(ServerConfig {
        workers: 2,
        ..ServerConfig::default()
    })
    .unwrap();
    let data = dataset();
    let mut client = Client::new(handle.local_addr());
    let created = client
        .register(&data.schema(), &data.query(), &data.rows_between(0, 60))
        .unwrap();
    let request = requests().remove(0);

    // Over-budget explain: a zero budget deterministically trips at the
    // pipeline's entry poll, through the real engine path.
    let err = client
        .explain_value(created.dataset_id, &request.clone().with_timeout_ms(0))
        .unwrap_err();
    match err {
        ClientError::Api(e) => {
            assert_eq!((e.status, e.kind.as_str()), (504, "deadline_exceeded"));
            let info = e.deadline.expect("deadline 504s carry budget accounting");
            assert_eq!(info.budget_ms, 0, "the effective budget must be honest");
            assert!(e.message.contains("discarded"), "{}", e.message);
        }
        other => panic!("expected a deadline API error, got {other}"),
    }

    // The 504 is a first-class response: x-request-id echoed like on any
    // other route.
    let body = serde_json::to_string(&request.clone().with_timeout_ms(0)).unwrap();
    let response = client
        .raw(
            "POST",
            &format!("/datasets/{}/explain", created.dataset_id),
            Some(&body),
            &[("x-request-id", "deadline-acceptance-1")],
        )
        .unwrap();
    assert_eq!(response.status, 504);
    assert!(
        response
            .headers
            .iter()
            .any(|(n, v)| n.eq_ignore_ascii_case("x-request-id") && v == "deadline-acceptance-1"),
        "the 504 must echo the supplied request id"
    );

    // An over-budget /compare takes the same 504 path.
    let err = client
        .compare_value(
            created.dataset_id,
            &request.clone().with_timeout_ms(0),
            None,
        )
        .unwrap_err();
    match err {
        ClientError::Api(e) => assert_eq!((e.status, e.kind.as_str()), (504, "deadline_exceeded")),
        other => panic!("expected a deadline API error, got {other}"),
    }

    // The server is unharmed: /healthz answers on the same connection.
    let health = client.raw("GET", "/healthz", None, &[]).unwrap();
    assert_eq!(health.status, 200);

    // Follow-up without a deadline on the same session: the pinned golden
    // /compare bytes reproduce — no half-built cube, no poisoned memo.
    // (Warm the cube first exactly like the golden test does, so cache
    // provenance matches the pinned line.)
    client.explain_value(created.dataset_id, &request).unwrap();
    let value = client
        .compare_value(created.dataset_id, &request, None)
        .unwrap();
    let line = serde_json::to_string(&canonical_compare(&value)).unwrap();
    let golden = include_str!("golden_compare.jsonl")
        .lines()
        .next()
        .expect("golden file has the canonical /compare JSON on line 1");
    assert_eq!(
        line, golden,
        "post-504 /compare diverged from the pinned golden"
    );

    // The deadline metrics block counted every 504 (three above). All
    // three tripped during the cube build — engine compute had begun, so
    // they also count as in-flight cancellations (cooperatively abandoned
    // work), and the discarded partial cubes were never cached.
    let metrics = client.metrics().unwrap();
    let deadlines = metrics
        .get("server")
        .and_then(|s| s.get("deadlines"))
        .cloned()
        .expect("the server metrics carry a deadlines block");
    assert_eq!(
        deadlines.get("deadline_exceeded").and_then(Value::as_f64),
        Some(3.0)
    );
    assert_eq!(
        deadlines.get("cancelled_inflight").and_then(Value::as_f64),
        Some(3.0)
    );
    drop(client);
    handle.shutdown();
}

#[test]
fn errors_map_to_structured_statuses() {
    let mut handle = Server::bind(ServerConfig::default()).unwrap();
    let data = dataset();
    let mut client = Client::new(handle.local_addr());

    // Unknown dataset → 404 with a machine-readable kind.
    let err = client.explain_value(999, &requests()[0]).unwrap_err();
    match err {
        ClientError::Api(e) => {
            assert_eq!(e.status, 404);
            assert_eq!(e.kind, "unknown_dataset");
        }
        other => panic!("expected an API error, got {other}"),
    }

    let created = client
        .register(&data.schema(), &data.query(), &data.rows_between(0, 20))
        .unwrap();

    // Invalid explain request → 400 invalid_request.
    let err = client
        .explain_value(created.dataset_id, &ExplainRequest::new(["nope"]))
        .unwrap_err();
    match err {
        ClientError::Api(e) => {
            assert_eq!((e.status, e.kind.as_str()), (400, "invalid_request"));
            assert!(e.message.contains("nope"));
        }
        other => panic!("expected an API error, got {other}"),
    }

    // Malformed rows → 400 naming the offending row.
    let err = client
        .append_rows(
            created.dataset_id,
            &[vec![Datum::Attr(99i64.into())]], // wrong arity
        )
        .unwrap_err();
    match err {
        ClientError::Api(e) => {
            assert_eq!(e.status, 400);
            assert!(e.message.contains("row 0"), "{}", e.message);
        }
        other => panic!("expected an API error, got {other}"),
    }

    // Registering an empty dataset then explaining → 409 no_data.
    let empty = client.register(&data.schema(), &data.query(), &[]).unwrap();
    let err = client
        .explain_value(empty.dataset_id, &requests()[0])
        .unwrap_err();
    match err {
        ClientError::Api(e) => assert_eq!((e.status, e.kind.as_str()), (409, "no_data")),
        other => panic!("expected an API error, got {other}"),
    }

    // DELETE then use → 404.
    client.remove(created.dataset_id).unwrap();
    let err = client.stats(created.dataset_id).unwrap_err();
    match err {
        ClientError::Api(e) => assert_eq!(e.status, 404),
        other => panic!("expected an API error, got {other}"),
    }
    drop(client);
    handle.shutdown();
}

/// 100,000 `[` then 100,000 `]` is 200 KB, far under the body cap. The
/// parser's nesting cap turns it into a 400; without one, the recursion
/// overflowed the worker's stack and aborted the whole process.
#[test]
fn a_deeply_nested_body_is_a_400_and_the_server_keeps_serving() {
    let mut handle = Server::bind(ServerConfig::default()).unwrap();
    let mut client = Client::new(handle.local_addr());
    let body = format!("{}{}", "[".repeat(100_000), "]".repeat(100_000));
    let response = client.raw("POST", "/datasets", Some(&body), &[]).unwrap();
    assert_eq!(response.status, 400);
    let error: Value = serde_json::from_str(std::str::from_utf8(&response.body).unwrap()).unwrap();
    assert_eq!(
        error.get("kind").and_then(Value::as_str),
        Some("bad_request")
    );
    let message = error.get("message").and_then(Value::as_str).unwrap();
    assert!(message.contains("recursion limit exceeded"), "{message}");
    let health = client.raw("GET", "/healthz", None, &[]).unwrap();
    assert_eq!(health.status, 200);
    drop(client);
    handle.shutdown();
}

/// Without request bounds these bodies break the server: a 2^40 `top_m`
/// sizes an (ε+1)·(m+1) allocation that aborts the process, a zero
/// guess-and-verify guess panics under the tenant lock (a 500 on every
/// later request to that tenant), and n explain-by attributes cost 2^n
/// subset masks (33 overflow the `u32` mask). Each must be a 400 before
/// any cube work (the attribute count is checked before the names), and
/// the same tenant must still answer.
#[test]
fn requests_that_would_crash_the_engine_are_400s_and_the_tenant_keeps_serving() {
    let mut handle = Server::bind(ServerConfig::default()).unwrap();
    let data = dataset();
    let mut client = Client::new(handle.local_addr());
    let created = client
        .register(&data.schema(), &data.query(), &data.rows_between(0, 30))
        .unwrap();
    let path = format!("/datasets/{}/explain", created.dataset_id);
    let attrs: Vec<String> = (0..17).map(|i| format!("\"a{i}\"")).collect();
    for (body, needle) in [
        (
            r#"{"explain_by":["category"],"top_m":1099511627776}"#.to_string(),
            "top-m 1099511627776 exceeds the maximum of 100",
        ),
        (
            r#"{"explain_by":["category"],"optimizations":{"filter_ratio":null,"guess_and_verify":0,"sketching":null}}"#
                .to_string(),
            "guess-and-verify initial guess must be at least 1",
        ),
        (
            format!(r#"{{"explain_by":[{}]}}"#, attrs.join(",")),
            "explain-by set names 17 attributes; at most 16 are supported",
        ),
    ] {
        let response = client.raw("POST", &path, Some(&body), &[]).unwrap();
        assert_eq!(response.status, 400, "{body}");
        let error: Value =
            serde_json::from_str(std::str::from_utf8(&response.body).unwrap()).unwrap();
        assert_eq!(
            error.get("kind").and_then(Value::as_str),
            Some("invalid_request")
        );
        let message = error.get("message").and_then(Value::as_str).unwrap();
        assert!(message.contains(needle), "{message}");
    }
    client.explain(created.dataset_id, &requests()[0]).unwrap();
    drop(client);
    handle.shutdown();
}

#[test]
fn metrics_count_requests_and_cache_state() {
    let mut handle = Server::bind(ServerConfig {
        workers: 2,
        ..ServerConfig::default()
    })
    .unwrap();
    let data = dataset();
    let mut client = Client::new(handle.local_addr());
    let created = client
        .register(&data.schema(), &data.query(), &data.rows_between(0, 30))
        .unwrap();
    for request in requests().iter().take(3) {
        client.explain(created.dataset_id, request).unwrap();
    }
    let _ = client.explain_value(999, &requests()[0]); // one 404

    let metrics = client.metrics().unwrap();
    let server = metrics.get("server").cloned().unwrap();
    let registry = metrics.get("registry").cloned().unwrap();
    let responses = server.get("responses").cloned().unwrap();
    let n2xx = responses.get("2xx").and_then(Value::as_f64).unwrap();
    let n4xx = responses.get("4xx").and_then(Value::as_f64).unwrap();
    assert!(n2xx >= 4.0, "register + 3 explains: {n2xx}");
    assert!(n4xx >= 1.0);
    assert_eq!(registry.get("datasets").and_then(Value::as_f64), Some(1.0));
    let totals = registry.get("totals").cloned().unwrap();
    assert_eq!(totals.get("requests").and_then(Value::as_f64), Some(3.0));
    assert!(registry.get("cache_bytes").and_then(Value::as_f64).unwrap() > 0.0);
    // The segment-cost memo's traffic is aggregated server-wide: any
    // priced explain records misses, and the default auto-K requests
    // re-price their final segments, so hits accumulate too.
    let memo = server.get("memo").cloned().unwrap();
    assert!(memo.get("misses").and_then(Value::as_f64).unwrap() > 0.0);
    assert!(memo.get("hits").and_then(Value::as_f64).unwrap() > 0.0);
    drop(client);
    handle.shutdown();
}

#[test]
fn concurrent_clients_get_identical_answers() {
    let mut handle = Server::bind(ServerConfig {
        workers: 4,
        ..ServerConfig::default()
    })
    .unwrap();
    let data = dataset();
    let mut client = Client::new(handle.local_addr());
    let created = client
        .register(&data.schema(), &data.query(), &data.rows_between(0, 60))
        .unwrap();
    let addr = handle.local_addr();
    let request = requests().remove(0);
    // Warm the cube cache first: every thread's answer is then a cache
    // hit, byte-identical to this reference (including its stats block).
    client.explain_value(created.dataset_id, &request).unwrap();
    let reference = canonical(&client.explain_value(created.dataset_id, &request).unwrap());

    let joins: Vec<_> = (0..8)
        .map(|_| {
            let request = request.clone();
            let reference = reference.clone();
            std::thread::spawn(move || {
                let mut client = Client::new(addr);
                for _ in 0..5 {
                    let answer = client.explain_value(created.dataset_id, &request).unwrap();
                    assert_eq!(canonical(&answer), reference);
                }
            })
        })
        .collect();
    for join in joins {
        join.join().expect("no client thread may panic");
    }
    drop(client); // close the keep-alive connection so shutdown drains fast
    handle.shutdown();
}
