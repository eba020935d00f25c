//! `loadgen`: a concurrent load generator for the tsx-server HTTP
//! subsystem.
//!
//! Boots a server in-process (or targets `--addr` of an already-running
//! one), registers one shared dataset plus one per-client tenant, then
//! fires a mixed explain/append workload from N concurrent clients over
//! keep-alive connections and reports throughput, per-operation latency
//! percentiles, and the server's eviction/cache counters.
//!
//! `--segmenter` selects the segmentation strategy the explain mix runs
//! (`dp`, `bottom_up`, `fluss`, `nnsegment`), or `all` to rotate through
//! every strategy; explain latencies are reported *per strategy*
//! (p50/p90/p99/p99.9), so the bench trajectory can track baseline-vs-DP
//! serving cost side by side. Percentiles come from the same log-bucketed
//! `tsexplain-obs` histogram the server scrapes at `/metrics`, so client-
//! and server-side numbers are directly comparable (and the per-strategy
//! rows are mergers of the per-operation histograms — the same merge the
//! server uses to aggregate worker shards).
//!
//! `--threads` sets the in-process server's intra-query parallelism
//! default (0 = machine default): with the determinism contract, the
//! per-strategy latency percentiles at different `--threads` settings are
//! directly comparable — same answers, different wall-clock.
//!
//! `--data-dir` boots the in-process server on the durable storage
//! engine (WAL + checkpoints), so the summary's `store` block exercises
//! the same code path a persistent deployment runs. `--budget-mb 0`
//! keeps only the newest cube resident, so the summary's `evictions`
//! count shows cubes dropped and rebuilt under load.
//!
//! `--overload` switches to the admission-control drill: every client
//! hammers the shared tenant as fast as it can against a deliberately
//! tight server (queue depth defaults to 2 in this mode; tune with
//! `--queue-depth`/`--max-conns`/`--tenant-rps`, which also apply to the
//! normal mode's in-process server). 429s are counted as outcomes, not
//! failures; the run then asserts the server shed load (`tsx_shed_total`
//! and/or throttles > 0) *and* recovered to 2xx — exiting nonzero
//! otherwise, which is what the CI overload smoke step leans on.
//!
//! `--stall-ms MS` (drill mode) mixes two robustness shapes into the
//! flood: *slow readers* that send a request and then refuse to read the
//! response for MS before hanging up, and *over-budget* requests carrying
//! `"timeout_ms": 0`, which the server must answer `504
//! deadline_exceeded` without wedging a worker. The run then additionally
//! asserts deadline 504s were produced and the pool stayed live.
//! `--retry N` gives every drill client a [`RetryPolicy`] of N retries
//! (capped backoff honoring `retry-after`), and the run asserts the
//! retried flood still produced successes.
//!
//! ```text
//! cargo run --release --bin loadgen -- [--clients 8] [--rounds 30]
//!     [--workers 4] [--budget-mb 8] [--points 100] [--addr HOST:PORT]
//!     [--segmenter dp|bottom_up|fluss|nnsegment|all] [--threads N]
//!     [--data-dir PATH] [--overload] [--max-conns N] [--queue-depth N]
//!     [--tenant-rps R] [--stall-ms MS] [--retry N]
//! ```

use std::net::SocketAddr;
use std::time::{Duration, Instant};

use serde::Value;
use tsexplain::{default_window_for, DiffMetric, ExplainRequest, SegmenterSpec};
use tsexplain_datagen::synthetic::{SyntheticConfig, SyntheticDataset};
use tsexplain_obs::{Histogram, HistogramFamily, HistogramSnapshot};
use tsexplain_server::{Client, ClientError, RetryPolicy, Server, ServerConfig, ServerHandle};

struct Args {
    clients: usize,
    rounds: usize,
    workers: usize,
    budget_mb: usize,
    points: usize,
    addr: Option<String>,
    segmenter: String,
    threads: Option<usize>,
    data_dir: Option<String>,
    overload: bool,
    max_conns: Option<usize>,
    queue_depth: Option<usize>,
    tenant_rps: Option<f64>,
    stall_ms: Option<u64>,
    retry: Option<u32>,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            clients: 8,
            rounds: 30,
            workers: 4,
            budget_mb: 8,
            points: 100,
            addr: None,
            segmenter: "dp".into(),
            threads: None,
            data_dir: None,
            overload: false,
            max_conns: None,
            queue_depth: None,
            tenant_rps: None,
            stall_ms: None,
            retry: None,
        }
    }
}

fn parse_args() -> Args {
    let mut args = Args::default();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut take = |name: &str| {
            it.next()
                .and_then(|v| v.parse::<usize>().ok())
                .unwrap_or_else(|| panic!("{name} needs a positive integer"))
        };
        match flag.as_str() {
            "--clients" => args.clients = take("--clients").max(1),
            "--rounds" => args.rounds = take("--rounds").max(1),
            "--workers" => args.workers = take("--workers").max(1),
            "--budget-mb" => args.budget_mb = take("--budget-mb"), // 0 = evict always
            "--points" => args.points = take("--points").max(20),
            "--addr" => args.addr = Some(it.next().expect("--addr needs HOST:PORT")),
            "--segmenter" => args.segmenter = it.next().expect("--segmenter needs a strategy name"),
            "--threads" => args.threads = Some(take("--threads")),
            "--data-dir" => args.data_dir = Some(it.next().expect("--data-dir needs a path")),
            "--overload" => args.overload = true,
            "--max-conns" => args.max_conns = Some(take("--max-conns").max(1)),
            "--queue-depth" => args.queue_depth = Some(take("--queue-depth").max(1)),
            "--tenant-rps" => {
                args.tenant_rps = Some(
                    it.next()
                        .and_then(|v| v.parse::<f64>().ok())
                        .filter(|r| *r >= 0.0 && r.is_finite())
                        .expect("--tenant-rps needs a non-negative rate"),
                )
            }
            "--stall-ms" => args.stall_ms = Some(take("--stall-ms") as u64),
            "--retry" => args.retry = Some(take("--retry") as u32),
            other => panic!("unknown flag {other:?} (see the module docs)"),
        }
    }
    args
}

/// The strategy rotation the explain mix cycles through. The window is
/// sized for the *sliced* horizon, since the mix includes a half-range
/// windowed request.
fn strategy_mix(name: &str, points: usize) -> Vec<SegmenterSpec> {
    let window = default_window_for(points / 2);
    match name {
        "dp" => vec![SegmenterSpec::Dp],
        "bottom_up" => vec![SegmenterSpec::BottomUp],
        "fluss" => vec![SegmenterSpec::fluss(window)],
        "nnsegment" => vec![SegmenterSpec::nnsegment(window)],
        "all" => SegmenterSpec::all_with_window(window).to_vec(),
        other => panic!(
            "unknown --segmenter {other:?} \
             (expected dp, bottom_up, fluss, nnsegment or all)"
        ),
    }
}

/// The rotating explain mix: differing K, top-m, metric, smoothing and
/// window, so both cube keys and snapshots churn.
fn request(i: usize, points: usize) -> ExplainRequest {
    let base = ExplainRequest::new(["category"]);
    match i % 5 {
        0 => base,
        1 => base.with_fixed_k(3),
        2 => base
            .with_top_m(1)
            .with_diff_metric(DiffMetric::RelativeChange),
        3 => base.with_smoothing(5),
        _ => base.with_time_range(0i64, (points / 2) as i64),
    }
}

fn main() {
    let args = parse_args();
    let strategies = strategy_mix(&args.segmenter, args.points);
    let data = SyntheticDataset::generate(SyntheticConfig {
        n_points: args.points,
        seed: 42,
        ..SyntheticConfig::default()
    });

    // Target: an in-process server unless --addr points elsewhere.
    let mut owned: Option<ServerHandle> = None;
    let addr: SocketAddr = match &args.addr {
        Some(addr) => addr.parse().expect("--addr must be HOST:PORT"),
        None => {
            let mut config = ServerConfig {
                workers: args.workers,
                memory_budget: args.budget_mb * 1024 * 1024,
                threads: args.threads,
                data_dir: args.data_dir.as_ref().map(Into::into),
                ..ServerConfig::default()
            };
            if let Some(n) = args.max_conns {
                config.max_conns = n;
            }
            if let Some(r) = args.tenant_rps {
                config.tenant_rps = r;
            }
            match args.queue_depth {
                Some(n) => config.queue_depth = n,
                // The drill needs a queue the flood can actually fill.
                None if args.overload => config.queue_depth = 2,
                None => {}
            }
            let handle = Server::bind(config).expect("bind an ephemeral port");
            let addr = handle.local_addr();
            owned = Some(handle);
            addr
        }
    };
    println!(
        "loadgen: {} clients x {} rounds against http://{addr} \
         ({} workers, {} MiB budget, {} points, segmenter {}, threads {})",
        args.clients,
        args.rounds,
        args.workers,
        args.budget_mb,
        args.points,
        args.segmenter,
        args.threads
            .map(|t| t.to_string())
            .unwrap_or_else(|| "default".into()),
    );

    // The shared tenant everyone explains.
    let schema = data.schema();
    let query = data.query();
    let rows = data.rows_between(0, args.points);
    let mut setup = Client::new(addr);
    let shared = setup
        .register(&schema, &query, &rows)
        .expect("register the shared dataset")
        .dataset_id;

    if args.overload {
        run_overload(&args, addr, shared);
        drop(setup);
        if let Some(mut handle) = owned.take() {
            handle.shutdown();
        }
        return;
    }

    // Fire. Each client owns one connection, one private tenant, and a
    // deterministic mixed workload rotating through the strategy mix.
    let started = Instant::now();
    let workers: Vec<_> = (0..args.clients)
        .map(|c| {
            let schema = schema.clone();
            let query = query.clone();
            let data = data.clone();
            let strategies = strategies.clone();
            let rounds = args.rounds;
            let points = args.points;
            let threads = args.threads;
            std::thread::spawn(move || -> Vec<(String, Duration)> {
                let mut lat = Vec::with_capacity(rounds * 2 + 2);
                let mut client = Client::new(addr);
                // `--threads` rides on every request so it also reaches an
                // external `--addr` server, not only the in-process one.
                let with_threads = |request: ExplainRequest| match threads {
                    Some(t) => request.with_threads(t),
                    None => request,
                };
                let head = points / 2;
                let t0 = Instant::now();
                let own = client
                    .register(&schema, &query, &data.rows_between(0, head))
                    .expect("register a private tenant")
                    .dataset_id;
                lat.push(("register".to_string(), t0.elapsed()));
                // Stream the remaining history in across the rounds.
                let tail: Vec<usize> = (head..points).collect();
                let chunk = (tail.len() / rounds.min(tail.len()).max(1)).max(1);
                let mut fed = head;
                for round in 0..rounds {
                    let spec = strategies[(c + round) % strategies.len()];
                    let shared_request =
                        with_threads(request(c + round, points).with_segmenter(spec));
                    let t0 = Instant::now();
                    client
                        .explain(shared, &shared_request)
                        .expect("shared explain");
                    lat.push((format!("explain(shared,{})", spec.name()), t0.elapsed()));
                    if fed < points {
                        let hi = (fed + chunk).min(points);
                        let t0 = Instant::now();
                        client
                            .append_rows(own, &data.rows_between(fed, hi))
                            .expect("append");
                        lat.push(("append(own)".to_string(), t0.elapsed()));
                        fed = hi;
                    }
                    let own_spec = strategies[round % strategies.len()];
                    let own_request = with_threads(request(round, points).with_segmenter(own_spec));
                    let t0 = Instant::now();
                    client.explain(own, &own_request).expect("own explain");
                    lat.push((format!("explain(own,{})", own_spec.name()), t0.elapsed()));
                }
                lat
            })
        })
        .collect();

    let mut all: Vec<(String, Duration)> = Vec::new();
    for worker in workers {
        all.extend(worker.join().expect("client thread panicked"));
    }
    let wall = started.elapsed();

    // Report: throughput + per-op (and per-strategy) latency percentiles,
    // from the shared obs histogram rather than a hand-rolled sort — the
    // same estimator the server's `/metrics` exposition uses.
    let total = all.len();
    println!(
        "\n{} requests in {:.2?} -> {:.0} req/s over {} concurrent clients\n",
        total,
        wall,
        total as f64 / wall.as_secs_f64(),
        args.clients
    );
    let per_op = HistogramFamily::new();
    for (op, d) in &all {
        per_op.record(op, *d);
    }
    println!(
        "{:<26} {:>7} {:>10} {:>10} {:>10} {:>10} {:>10}",
        "operation", "count", "p50", "p90", "p99", "p99.9", "max"
    );
    let snapshots = per_op.snapshot_all();
    for (op, snap) in &snapshots {
        print_row(op, snap);
    }

    // Per-strategy rollup: every explain op naming this strategy —
    // shared-tenant and private-tenant alike — merged into one histogram
    // (exercising the same associative merge the proptests pin down).
    let strategy_names: Vec<&str> = strategies.iter().map(|s| s.name()).collect();
    if snapshots.iter().filter(|(op, _)| op.contains(',')).count() > 1 {
        println!(
            "\n{:<26} {:>7} {:>10} {:>10} {:>10} {:>10} {:>10}",
            "strategy (merged)", "count", "p50", "p90", "p99", "p99.9", "max"
        );
        for name in strategy_names {
            let merged = Histogram::new();
            for (op, _) in &snapshots {
                if op.ends_with(&format!(",{name})")) {
                    merged.merge_from(&per_op.get(op));
                }
            }
            let snap = merged.snapshot();
            if snap.count > 0 {
                print_row(name, &snap);
            }
        }
    }

    // Server-side counters: cache pressure and eviction activity.
    let metrics = setup.metrics().expect("metrics");
    let registry = metrics.get("registry").cloned().unwrap_or(Value::Null);
    let totals = registry.get("totals").cloned().unwrap_or(Value::Null);
    let read = |v: &Value, k: &str| v.get(k).and_then(Value::as_f64).unwrap_or(0.0);
    println!(
        "\nserver: datasets={} cached_cubes={} cache={:.1} MiB / budget={:.1} MiB",
        read(&registry, "datasets"),
        read(&registry, "cached_cubes"),
        read(&registry, "cache_bytes") / (1024.0 * 1024.0),
        read(&registry, "memory_budget") / (1024.0 * 1024.0),
    );
    println!(
        "        requests={} cubes_built={} cache_hits={} refreshes={} \
         evictions={}",
        read(&totals, "requests"),
        read(&totals, "cubes_built"),
        read(&totals, "cube_cache_hits"),
        read(&totals, "cube_refreshes"),
        read(&totals, "cube_evictions"),
    );
    let store = metrics.get("store").cloned().unwrap_or(Value::Null);
    if !matches!(store, Value::Null) {
        println!(
            "store:  wal_appends={} wal_bytes={} snapshots={} recoveries={}",
            read(&store, "wal_appends"),
            read(&store, "wal_bytes"),
            read(&store, "snapshots"),
            read(&store, "recoveries"),
        );
    }

    drop(setup);
    if let Some(mut handle) = owned.take() {
        handle.shutdown();
    }
}

/// A slow reader: sends one well-formed explain request and then refuses
/// to read a byte of the response for `stall`, then hangs up without
/// ever reading it. The server's bounded write path must absorb this —
/// the worker finishes (or times out) the write and moves on; the
/// connection is the client's loss alone.
fn stall_reader(addr: SocketAddr, shared: u64, points: usize, stall: Duration) {
    use serde::Serialize;
    use std::io::Write;
    let Ok(mut stream) = std::net::TcpStream::connect(addr) else {
        return; // connection shed at accept — also a valid drill outcome
    };
    let body =
        serde_json::to_string(&request(0, points).serialize()).expect("explain requests encode");
    let head = format!(
        "POST /datasets/{shared}/explain HTTP/1.1\r\nhost: tsx\r\n\
         content-type: application/json\r\ncontent-length: {}\r\n\r\n",
        body.len()
    );
    let _ = stream.write_all(head.as_bytes());
    let _ = stream.write_all(body.as_bytes());
    let _ = stream.flush();
    std::thread::sleep(stall);
    // Dropped unread: the response rots in the socket buffer.
}

/// The admission-control drill: every client fires explains at the
/// shared tenant as fast as it can, counting 429s as outcomes instead of
/// failures; afterwards the run verifies the server both *shed* (bounded
/// behavior under overload) and *recovered* (2xx once the flood passed),
/// exiting nonzero otherwise.
///
/// With `--stall-ms` the flood also interleaves slow readers and
/// over-budget (`timeout_ms: 0`) requests; deadline 504s are counted as
/// their own outcome and asserted to have happened. With `--retry` every
/// client retries per [`RetryPolicy`], and the run asserts the retried
/// flood still got answers.
fn run_overload(args: &Args, addr: SocketAddr, shared: u64) {
    let points = args.points;
    let stall = args.stall_ms.map(Duration::from_millis);
    let retry = args.retry;
    let started = Instant::now();
    let workers: Vec<_> = (0..args.clients)
        .map(|c| {
            let rounds = args.rounds;
            std::thread::spawn(move || -> (u64, u64, u64, u64, u64) {
                let (mut ok, mut shed, mut throttled, mut deadlined, mut failed) =
                    (0u64, 0u64, 0u64, 0u64, 0u64);
                let mut client = Client::new(addr);
                if let Some(n) = retry {
                    client = client.with_retry(RetryPolicy::retries(n));
                }
                for round in 0..rounds {
                    // With the stall drill on, every 5th slot is a slow
                    // reader and every 7th an over-budget request; the
                    // rest stay plain floods.
                    if let Some(stall) = stall {
                        if round % 5 == 3 {
                            stall_reader(addr, shared, points, stall);
                            continue;
                        }
                    }
                    let over_budget = stall.is_some() && round % 7 == 5;
                    let request = if over_budget {
                        // Zero budget: deterministically over-deadline at
                        // the pipeline's entry poll.
                        request(c + round, points).with_timeout_ms(0)
                    } else {
                        request(c + round, points)
                    };
                    match client.explain_value(shared, &request) {
                        Ok(_) => ok += 1,
                        Err(ClientError::Api(e)) if e.status == 429 && e.kind == "throttled" => {
                            throttled += 1;
                        }
                        Err(ClientError::Api(e)) if e.status == 429 => shed += 1,
                        Err(ClientError::Api(e))
                            if e.status == 504 && e.kind == "deadline_exceeded" =>
                        {
                            deadlined += 1;
                        }
                        Err(_) => failed += 1,
                    }
                }
                (ok, shed, throttled, deadlined, failed)
            })
        })
        .collect();
    let (mut ok, mut shed, mut throttled, mut deadlined, mut failed) =
        (0u64, 0u64, 0u64, 0u64, 0u64);
    for worker in workers {
        let (o, s, t, d, f) = worker.join().expect("client thread panicked");
        ok += o;
        shed += s;
        throttled += t;
        deadlined += d;
        failed += f;
    }
    let wall = started.elapsed();
    println!(
        "\noverload: {ok} answered, {shed} shed (429 overloaded), \
         {throttled} throttled (429 per-tenant), deadlined={deadlined} \
         (504 deadline_exceeded), {failed} transport errors in {wall:.2?}"
    );

    // Recovery: the server must answer 2xx again once the flood stops.
    let mut client = Client::new(addr);
    let deadline = Instant::now() + Duration::from_secs(10);
    let recovered_in = loop {
        match client.raw("GET", "/healthz", None, &[]) {
            Ok(response) if response.status == 200 => break Some(started.elapsed()),
            _ if Instant::now() > deadline => break None,
            _ => std::thread::sleep(Duration::from_millis(50)),
        }
    };
    let exposition = client.metrics_prometheus().expect("scrape the exposition");
    let scrape = |name: &str| {
        exposition
            .lines()
            .find_map(|line| line.strip_prefix(name))
            .and_then(|v| v.trim().parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    let shed_total = scrape("tsx_shed_total ");
    let throttled_total = scrape("tsx_throttled_total ");
    let deadline_total = scrape("tsx_deadline_exceeded_total ");
    let metrics = client.metrics().expect("metrics");
    let admission = metrics
        .get("server")
        .and_then(|s| s.get("admission"))
        .cloned()
        .unwrap_or(Value::Null);
    let read = |k: &str| admission.get(k).and_then(Value::as_f64).unwrap_or(0.0);
    println!(
        "server: tsx_shed_total={shed_total} tsx_throttled_total={throttled_total} \
         tsx_deadline_exceeded_total={deadline_total} \
         queue_depth={}/{} open_connections={} idle_reaped={}",
        read("queue_depth"),
        read("queue_capacity"),
        read("open_connections"),
        read("idle_reaped"),
    );
    match recovered_in {
        Some(at) => println!("recovered: /healthz answered 200 at {at:.2?}"),
        None => println!("recovery FAILED: /healthz never answered 200"),
    }
    assert!(
        recovered_in.is_some(),
        "the server must answer 2xx after the flood"
    );
    // With retries on, clients absorb 429s and resend until answered —
    // the server-side shed/throttle counters still prove admission
    // control engaged even when no 429 survives to the client tally.
    assert!(
        shed_total + throttled_total > 0.0,
        "the overload run produced no sheds or throttles — \
         raise --clients or lower --queue-depth"
    );
    if args.retry.is_none() {
        assert!(
            shed + throttled > 0,
            "no client observed a 429 — raise --clients or lower --queue-depth"
        );
    } else {
        assert!(
            ok > 0,
            "retrying clients never succeeded — the pool did not stay live"
        );
    }
    if args.stall_ms.is_some() {
        assert!(
            deadlined > 0 && deadline_total > 0.0,
            "the stall drill produced no deadline 504s — \
             the over-budget requests were not answered honestly"
        );
    }
}

fn print_row(label: &str, snap: &HistogramSnapshot) {
    println!(
        "{:<26} {:>7} {:>10.2?} {:>10.2?} {:>10.2?} {:>10.2?} {:>10.2?}",
        label,
        snap.count,
        snap.p50(),
        snap.p90(),
        snap.p99(),
        snap.p999(),
        snap.max(),
    );
}
