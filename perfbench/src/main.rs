//! Benchmark entry point.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload failover-10k --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Prints notes, the check tally, the output digest and one line per
//! metric, then — as the last line — the JSON result
//! `{"correct", "attempted", "failed", "metrics"}`. Exits 0 when the run
//! completed (even if checks failed: `correct` says so), 2 on bad usage.

use std::path::PathBuf;
use std::process::ExitCode;

use perfbench::workloads::{self, WORKLOADS};
use perfbench::Opts;

#[global_allocator]
static HEAP: perfbench::heap::Counting = perfbench::heap::Counting;

fn usage(err: &str) -> ExitCode {
    eprintln!("error: {err}");
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--trace-out <dir>]",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    let Some(workload) = value("--workload") else {
        return usage("missing --workload");
    };
    let Some(seed) = value("--seed").and_then(|v| v.parse::<u64>().ok()) else {
        return usage("missing or bad --seed");
    };
    let seconds = match value("--seconds").map(|v| v.parse::<f64>()) {
        None => 10.0,
        Some(Ok(s)) if s.is_finite() && s >= 0.0 => s,
        Some(_) => return usage("bad --seconds"),
    };
    let trace = match value("--trace").as_deref() {
        None | Some("0") => false,
        Some("1") => true,
        Some(_) => return usage("--trace takes 0 or 1"),
    };
    let trace_out = PathBuf::from(value("--trace-out").unwrap_or_else(|| ".bench_trace".into()));
    let opts = Opts {
        seed,
        seconds,
        trace,
        trace_out,
    };
    let Some(report) = workloads::run(&workload, &opts) else {
        return usage(&format!("unknown workload {workload}"));
    };
    for line in report.human_lines() {
        println!("{line}");
    }
    println!("{}", report.json_line());
    ExitCode::SUCCESS
}
