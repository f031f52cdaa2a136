//! The Phoenix benchmark: three closed-loop workloads driven through the
//! workspace's public API, end-to-end metrics from untraced runs and a
//! per-layer split from a separate traced run.
//!
//! Every layer is timed from the outside, around the public call into it
//! (see [`compose`], [`timed`] and [`spans`]); no program source carries
//! benchmark hooks. `BENCHMARK.json` at the repository root names the
//! metrics; `perfbench/README.md` says what each one measures.

#![deny(unsafe_code)]

pub mod check;
pub mod compose;
#[allow(unsafe_code)]
pub mod heap;
pub mod report;
pub mod spans;
pub mod stats;
pub mod timed;
pub mod workloads;

use std::time::{Duration, Instant};

/// Options of one benchmark run.
#[derive(Debug, Clone)]
pub struct Opts {
    /// Workload seed: the same seed gives the same inputs.
    pub seed: u64,
    /// Wall-clock budget of the measured loop.
    pub seconds: f64,
    /// `true` for the traced (per-layer) run.
    pub trace: bool,
    /// Directory the traced run writes its Chrome trace-event file to.
    pub trace_out: std::path::PathBuf,
}

/// Derives the `k`-th sub-seed of `seed` (SplitMix64 finalizer), so one
/// run can use several independent inputs.
pub fn sub_seed(seed: u64, k: u64) -> u64 {
    let mut z = seed
        .wrapping_add(k.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x632B_E59B_D9B4_E019);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A wall-clock deadline for a measured loop.
#[derive(Debug, Clone, Copy)]
pub struct Deadline(Instant);

impl Deadline {
    /// A deadline `secs` seconds from now.
    pub fn after(secs: f64) -> Deadline {
        Deadline(Instant::now() + Duration::from_secs_f64(secs.max(0.0)))
    }

    /// `true` when another step as long as `step` would still end before
    /// the deadline, so a loop's last step does not overrun its budget.
    pub fn fits(&self, step: Duration) -> bool {
        Instant::now() + step <= self.0
    }
}

/// Runs `f` and returns its result with the elapsed wall time.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, Duration) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed())
}

/// Peak resident set size of this process in MiB (`VmHWM`), or `None`
/// where `/proc` is unavailable.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Logical CPUs of the host.
pub fn host_cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}
