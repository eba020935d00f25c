//! tsxbench: the end-to-end benchmark of the TSExplain workspace.
//!
//! ```text
//! tsxbench --workload <liquor-cold|warm-sweep|serve-mixed> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each invocation runs one workload in a fresh process and drives the
//! program only through its public API. The seed makes the inputs; the
//! generator runs before any clock starts. `--seconds` fixes the number of
//! operations (sized so a run measures about that long on a 2-core box),
//! so both sides of a comparison get the same samples and the same tail
//! percentile. Every answer is checked against a reference computed before
//! the measured phase.
//!
//! With `--trace 0` the run prints the end-to-end metrics. With `--trace 1`
//! it replays the same operations through the layers' public calls with a
//! span around each, checks the decomposed answers against the facade's,
//! and prints the per-layer metrics. Either way the last line of standard
//! output is one JSON object; the run's files (report, spans, data
//! directory) go to `.tsxbench-out/<workload>-seed<n>-trace<t>/`.
//! See `tsxbench/README.md` for the workloads and what each metric means.

mod check;
mod inproc;
mod inputs;
mod layers;
mod layers_report;
mod report;
mod serve;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

use crate::trace::Tracer;

/// Operation counts of one run, fixed by the workload and `--seconds`.
///
/// In-process, the measured phase is a number of identical windows, so
/// every operation kind is sampled across the whole phase.
pub struct Sizing {
    pub windows: usize,
    /// In-process: explains per window (a whole number of passes over the
    /// request list), with fan-outs and appends spread evenly among them.
    pub explains: usize,
    pub compares: usize,
    pub appends: usize,
    /// serve-mixed: closed-loop rounds per client.
    pub rounds: usize,
}

impl Sizing {
    /// Counts that scale with `seconds`. At 12 s a run takes 20–50 s on a
    /// 2-core box, set-ups, references and checks included, as fast as the
    /// host lends its cores at the time.
    fn new(workload: &str, seconds: u64) -> Sizing {
        let scaled = |per_second: f64| ((seconds as f64 * per_second).round() as usize).max(1);
        match workload {
            // A window is 6 explains (0.33–0.7 s each, as the host lends
            // its cores), two fan-outs (a little more) and 12 appends
            // (~1–3 ms): 30 explains in a 12 s run, the tail read at p66.
            "liquor-cold" => Sizing {
                windows: scaled(1.0 / 2.4),
                explains: 6,
                compares: 2,
                appends: 12,
                rounds: 0,
            },
            // A window is one pass over the 15 follow-ups (45–85 ms each,
            // as fast as the host runs compute-bound code at the time),
            // 9 fan-outs (three per dataset) and 8 appends: 180 explains
            // over 25–35 s in a 12 s run. The host's speed swings
            // between two levels 1.4× apart for 5–15 s at a time, and a
            // median reads whichever level held more of the run, so the run
            // spans several swings: over 8 windows the explain p50 of ten
            // runs spread 0.19 of its median. The tail is read at p94,
            // inside the request classes' own spread; at p97 (2 threads) it
            // counted interference bursts instead and moved by 30 % between
            // identical runs.
            "warm-sweep" => Sizing {
                windows: scaled(1.0),
                explains: 15,
                compares: 9,
                appends: 8,
                rounds: 0,
            },
            // 32 rounds per client (0.3–0.5 s each): 128 explains in a
            // 12 s run, the tail read at p92. Above p95 it counts the
            // stragglers of two 2-thread explains sharing two cores, which
            // moved the tail by 20 % between identical runs. 8 appends per
            // round put 512 WAL records in the run, so the store
            // checkpoints (every 256 records) twice; at 48 rounds (three
            // checkpoints) peak RSS read 306–392 MiB over five runs.
            _ => Sizing {
                windows: 0,
                explains: 0,
                compares: 0,
                appends: 0,
                rounds: scaled(8.0 / 3.0),
            },
        }
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const WORKLOADS: [&str; 3] = ["liquor-cold", "warm-sweep", "serve-mixed"];

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {value}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => trace = Some(number()? != 0),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload} (expected one of {WORKLOADS:?})"
        ));
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(12).max(1),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("tsxbench: {e}");
            return ExitCode::from(2);
        }
    };
    let dir = PathBuf::from(".tsxbench-out").join(format!(
        "{}-seed{}-trace{}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("tsxbench: cannot create {}: {e}", dir.display());
        return ExitCode::FAILURE;
    }
    let sizing = Sizing::new(&args.workload, args.seconds);
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let header = format!(
        "tsxbench {} seed {} seconds {} trace {} (available parallelism {threads})",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );

    let (tally, metrics, text) = if args.trace {
        let mut tr = Tracer::new();
        let traced = match args.workload.as_str() {
            "serve-mixed" => serve::run_traced(args.seed, &sizing, &mut tr, &dir),
            w => inproc::run_traced(w, args.seed, &sizing, &mut tr),
        };
        let (metrics, text) = layers_report::summarize(&tr, &traced);
        let _ = std::fs::write(dir.join("spans.jsonl"), tr.spans_jsonl());
        (traced.tally, metrics, text)
    } else {
        let measured = match args.workload.as_str() {
            "serve-mixed" => serve::run(args.seed, &sizing, &dir),
            w => inproc::run(w, args.seed, &sizing),
        };
        let metrics = measured.metrics();
        let text = measured.describe();
        let _ = std::fs::write(dir.join("samples.txt"), measured.samples());
        (measured.tally, metrics, text)
    };
    let line = report::result_line(&tally, &metrics);
    let text = format!("{header}\n{text}");
    let _ = std::fs::write(dir.join("report.txt"), format!("{text}{line}\n"));
    print!("{text}");
    println!("{line}");
    ExitCode::SUCCESS
}
