//! # perf — the repo's hold-free benchmark
//!
//! `perf_profile` measures the AutoPN reproduction end to end and layer by
//! layer with **no fault-plan holds and no simulated work**, from outside:
//! it times calls into public functions and reads the already-public
//! counters. See `README.md` for the workloads, the metric glossary and the
//! layer → end-to-end table; `../BENCHMARK.json` is the machine-readable
//! contract (names, units, bounds).
//!
//! **Narrow-API rule.** The benchmark builds the system as shipped — the
//! degree, the thread counts and the seed are the only fields it sets on the
//! config structs — and names none of the runtime-mode enums or retained
//! baseline rungs, so PRs that collapse or re-default those show up here as
//! numbers without editing the benchmark.

pub mod layers;
pub mod recorder;
pub mod report;
pub mod spec;
pub mod stats;
pub mod workloads;

use std::path::PathBuf;

use pnstm::trace::now_ns;

/// Threads the box has; every result that depends on threads carries it.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// Where run artefacts (traces, reports, temp caches) go: `perf/out/`.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Arguments of one workload run.
#[derive(Debug, Clone)]
pub struct RunArgs {
    /// Feeds the request stream, the arrival schedule, the ledger stream
    /// and the tuner seeds; the program only ever sees generated inputs.
    pub seed: u64,
    /// Total length of the workload's timed phases.
    pub seconds: f64,
    /// The traced run: bench-side recorder on, per-layer metrics out.
    pub trace: bool,
}

impl RunArgs {
    /// Nanoseconds of a phase that takes `share` of the run.
    pub fn phase_ns(&self, share: f64) -> u64 {
        (self.seconds * share * 1e9) as u64
    }
}

/// What one workload run reports.
#[derive(Debug, Default)]
pub struct RunResult {
    /// Operations attempted / failed inside the timed windows.
    pub attempted: u64,
    pub failed: u64,
    /// Metric values by name. The untraced run fills the end-to-end names,
    /// the traced run the per-layer names of the layers it exercises.
    pub metrics: Vec<(&'static str, f64)>,
    /// Sample counts and other context printed beside the metrics.
    pub notes: Vec<(String, f64)>,
    /// Validity flags (`not_saturated`, dropped slices, a late generator…).
    pub flags: Vec<String>,
    /// Correctness-gate failures; empty means the outputs were correct.
    pub errors: Vec<String>,
}

impl RunResult {
    pub fn metric(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }

    pub fn note(&mut self, name: impl Into<String>, value: f64) {
        self.notes.push((name.into(), value));
    }

    pub fn flag(&mut self, flag: impl Into<String>) {
        self.flags.push(flag.into());
    }

    /// Record a correctness failure unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.errors.push(what());
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|(n, _)| *n == name).map(|&(_, v)| v)
    }
}

/// Set-up is a single short event, so — as the benchmark contract asks — a
/// run builds its fixtures several times and reports the median build time.
/// The count is fixed per workload (how often threads and tables were built
/// and dropped shows in the process's peak RSS): [`SETUP_BUILDS`] for the
/// fixtures that build in milliseconds, most of it thread spawns and first
/// touches that run cold in a young process, so that the cold builds are a
/// small minority; [`SETUP_BUILDS_SLOW`] for the tuner's oracle surfaces,
/// which compute for over a second each.
pub const SETUP_BUILDS: usize = 25;
pub const SETUP_BUILDS_SLOW: usize = 5;

/// Build the workload's fixtures `builds` times (`build` gets the build's
/// index); returns the last build and the median build time in seconds.
pub fn timed_setup<T>(builds: usize, mut build: impl FnMut(usize) -> T) -> (T, f64) {
    let mut times = Vec::with_capacity(builds);
    let mut last = None;
    for index in 0..builds {
        drop(last.take()); // never hold two fixtures
        let t0 = now_ns();
        last = Some(build(index));
        times.push((now_ns() - t0) as f64 / 1e9);
    }
    (last.expect("at least one build"), stats::median(&times))
}

/// `VmHWM` of this process in MB (0 where `/proc` is unavailable).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// splitmix64 — the suite's shared deterministic generator, used to derive
/// independent sub-seeds from `--seed`.
pub fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed.wrapping_add(stream.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}
