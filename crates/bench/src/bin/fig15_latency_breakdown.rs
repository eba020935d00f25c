//! Figure 15: per-module latency breakdown of TSExplain under the five
//! optimization bundles (Vanilla / w filter / O1 / O2 / O1+O2) on the four
//! real-world workloads. K is unspecified — elbow selection is included in
//! the timing, as in the paper.
//!
//! Each row is one cold explain on a fresh session, registered off the
//! clock. The module columns and "work" are stage time summed over
//! workers (`LatencyBreakdown::total`); segmentation includes every DP the
//! request solves, the O2 sketch's among them. "wall" is the elapsed time
//! of the explain call, cube build included, which is what the paper's
//! totals measure. At one thread (`TSX_THREADS=1`) the two differ only by
//! the request's bookkeeping outside the stages; above one thread "work"
//! can exceed "wall".

use std::time::Instant;

use tsexplain::Optimizations;
use tsexplain_bench::{fmt_ms, request_with, session_for};
use tsexplain_datagen::{covid, liquor, sp500, Workload};

fn bundles() -> [(&'static str, Optimizations); 5] {
    [
        ("Vanilla", Optimizations::none()),
        ("w filter", Optimizations::filter_only()),
        ("O1", Optimizations::o1()),
        ("O2", Optimizations::o2()),
        ("O1+O2", Optimizations::all()),
    ]
}

fn run(workload: &Workload, smoothing: usize) {
    println!("\n--- {} ---", workload.name);
    println!(
        "{:<10}{:>14}{:>14}{:>14}{:>14}{:>14}{:>10}",
        "variant", "precompute", "cascading", "segmentation", "work", "wall", "K"
    );
    for (name, optimizations) in bundles() {
        let request = request_with(workload, optimizations, None, smoothing);
        let mut session = session_for(workload);
        let start = Instant::now();
        let result = session
            .explain(&request)
            .expect("workload must be explainable");
        let wall = start.elapsed();
        println!(
            "{:<10}{:>14}{:>14}{:>14}{:>14}{:>14}{:>10}",
            name,
            fmt_ms(result.latency.precompute),
            fmt_ms(result.latency.cascading),
            fmt_ms(result.latency.segmentation),
            fmt_ms(result.latency.total()),
            fmt_ms(wall),
            result.chosen_k
        );
    }
}

fn main() {
    println!("Figure 15 — latency breakdown across optimization bundles");
    let covid_data = covid::generate(0);
    run(&covid_data.total_workload(), 1);
    run(&covid_data.daily_workload(), 7);
    run(&sp500::generate(0).workload(), 1);
    run(&liquor::generate(0).workload(), 1);
    println!("\n(paper reference totals, to compare with \"wall\": total-confirmed 175ms→33ms,");
    println!(" daily 217ms→43ms, S&P 500 →102ms, Liquor 9888ms→756ms; absolute numbers");
    println!(" differ by machine, the shape — which optimization helps which dataset —");
    println!(" should match. \"work\" sums stage time over workers, so above one thread");
    println!(" it can exceed \"wall\")");
}
