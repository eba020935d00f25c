//! The `tsx-server` binary: serve the TSExplain HTTP/JSON API.
//!
//! ```text
//! tsx-server [--addr HOST:PORT] [--workers N] [--budget-mb MB] [--max-body-mb MB]
//!            [--max-conns N] [--queue-depth N] [--tenant-rps R]
//!            [--request-timeout-ms MS] [--threads N] [--data-dir PATH]
//!            [--log-level LEVEL] [--slow-ms MS]
//! ```
//!
//! `--threads` sets the default intra-query parallelism for requests that
//! carry no `threads` member of their own (0 = machine default; results
//! are byte-identical at any setting).
//!
//! `--max-conns`, `--queue-depth` and `--tenant-rps` tune admission
//! control: the open-connection limit enforced at accept, the bound of
//! the pending-request queue between the reactor and the workers (both
//! shed with `429 Too Many Requests` + `retry-after` when exceeded), and
//! the per-tenant token-bucket rate in requests/second (0 = unlimited).
//!
//! `--request-timeout-ms` caps every explain/compare deadline (0 =
//! unbounded, the default). A request's own `timeout_ms` member can
//! tighten the cap but never loosen it; a request over budget is
//! abandoned cooperatively and answered `504 deadline_exceeded` with all
//! partial work discarded.
//!
//! `--data-dir` turns on the durable storage engine: datasets are
//! recovered from `PATH` before the listener accepts, and every mutation
//! is WAL-logged (and fsynced) before its acknowledgement. Only rows are
//! stored; a budget-evicted cube is dropped and rebuilt from them. Without
//! it the server is purely in-memory.
//!
//! `--log-level` (`off|error|warn|info|debug`, default `info`, also the
//! `TSX_LOG` environment variable) controls the structured JSON-lines
//! log on stderr. `--slow-ms` sets the flight-recorder threshold:
//! requests at or above it are captured with the latency breakdown their
//! answer carried and served at `GET /debug/requests` (0 records
//! everything).
//!
//! Serves until killed. `--addr 127.0.0.1:0` picks an ephemeral port and
//! prints it, which is what scripts and CI use.

use std::process::ExitCode;

use tsexplain_server::{Server, ServerConfig};

fn main() -> ExitCode {
    let mut config = ServerConfig {
        addr: "127.0.0.1:7878".into(),
        ..ServerConfig::default()
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--addr" => match args.next() {
                Some(addr) => config.addr = addr,
                None => return usage("--addr needs HOST:PORT"),
            },
            "--workers" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) => config.workers = n,
                None => return usage("--workers needs a positive integer"),
            },
            "--budget-mb" => match args.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(mb) => config.memory_budget = mb * 1024 * 1024,
                None => return usage("--budget-mb needs a size in MiB"),
            },
            "--max-body-mb" => match args.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(mb) => config.max_body_bytes = mb * 1024 * 1024,
                None => return usage("--max-body-mb needs a size in MiB"),
            },
            "--max-conns" => match args.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(n) if n > 0 => config.max_conns = n,
                _ => return usage("--max-conns needs a positive integer"),
            },
            "--queue-depth" => match args.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(n) if n > 0 => config.queue_depth = n,
                _ => return usage("--queue-depth needs a positive integer"),
            },
            "--tenant-rps" => match args.next().and_then(|v| v.parse::<f64>().ok()) {
                Some(r) if r >= 0.0 && r.is_finite() => config.tenant_rps = r,
                _ => return usage("--tenant-rps needs a non-negative rate (0 = unlimited)"),
            },
            "--request-timeout-ms" => match args.next().and_then(|v| v.parse::<u64>().ok()) {
                Some(0) => config.request_timeout = None,
                Some(ms) => config.request_timeout = Some(std::time::Duration::from_millis(ms)),
                None => return usage("--request-timeout-ms needs milliseconds (0 = unbounded)"),
            },
            "--threads" => match args.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(n) => config.threads = Some(n),
                None => return usage("--threads needs a thread count (0 = machine default)"),
            },
            "--data-dir" => match args.next() {
                Some(dir) => config.data_dir = Some(dir.into()),
                None => return usage("--data-dir needs a directory path"),
            },
            "--log-level" => match args.next().as_deref().map(tsexplain_obs::log::parse_level) {
                Some(Ok(level)) => tsexplain_obs::log::set_level(level),
                Some(Err(e)) => return usage(&e),
                None => return usage("--log-level needs off|error|warn|info|debug"),
            },
            "--slow-ms" => match args.next().and_then(|v| v.parse::<u64>().ok()) {
                Some(ms) => config.slow_ms = ms,
                None => return usage("--slow-ms needs a threshold in milliseconds"),
            },
            "--help" | "-h" => {
                println!(
                    "tsx-server: the TSExplain HTTP/JSON serving subsystem\n\n\
                     USAGE: tsx-server [--addr HOST:PORT] [--workers N] \
                     [--budget-mb MB] [--max-body-mb MB] [--max-conns N] \
                     [--queue-depth N] [--tenant-rps R] [--request-timeout-ms MS] \
                     [--threads N] [--data-dir PATH] [--log-level LEVEL] [--slow-ms MS]"
                );
                return ExitCode::SUCCESS;
            }
            other => return usage(&format!("unknown flag {other:?}")),
        }
    }

    let workers = config.workers;
    let budget = config.memory_budget;
    match Server::bind(config) {
        Ok(handle) => {
            println!(
                "tsx-server listening on http://{} ({} workers, {} MiB cube budget)",
                handle.local_addr(),
                workers,
                budget / (1024 * 1024),
            );
            handle.join();
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("tsx-server: bind failed: {e}");
            ExitCode::FAILURE
        }
    }
}

fn usage(message: &str) -> ExitCode {
    eprintln!("tsx-server: {message} (see --help)");
    ExitCode::FAILURE
}
