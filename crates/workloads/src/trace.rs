//! Trace capture and trace-driven replay — the Fig. 5/6 methodology.
//!
//! §VII-B: *"we feed the optimizers with off-line collected traces, obtained
//! by evaluating exhaustively every configuration in the solution space
//! (198 configurations), each tested 10 times"*. A trace is a
//! [`simtm::Surface`]; building one is expensive, so surfaces are cached as
//! JSON keyed by the workload's parameters.

use std::fs;
use std::path::PathBuf;
use std::time::Duration;

use autopn::{Config, Tuner};
use simtm::{MachineParams, SimWorkload, Surface, SurfaceBuilder};

/// Where surface caches live: `$AUTOPN_TRACE_CACHE` or
/// `target/autopn-traces` under the current directory.
pub fn cache_dir() -> PathBuf {
    std::env::var_os("AUTOPN_TRACE_CACHE")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("target").join("autopn-traces"))
}

/// Bump when the simulator's execution model changes, so stale surface
/// caches are rebuilt.
const SIM_MODEL_VERSION: &str = "simv3";

/// FNV-1a hash of the workload's serialized parameters, so cached surfaces
/// invalidate when a descriptor is recalibrated.
fn workload_fingerprint(
    wl: &SimWorkload,
    machine: &MachineParams,
    reps: usize,
    measure: Duration,
) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let payload = format!(
        "{SIM_MODEL_VERSION}|{}|{:?}|{}|{}",
        serde_json::to_string(wl).expect("workload serializes"),
        machine,
        reps,
        measure.as_nanos()
    );
    for b in payload.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Build the exhaustive surface for `wl`, loading it from the cache when an
/// identical one was built before.
pub fn load_or_build_surface(
    wl: &SimWorkload,
    machine: &MachineParams,
    reps: usize,
    measure: Duration,
) -> Surface {
    let dir = cache_dir();
    let file = dir.join(format!(
        "{}-n{}-{:016x}.json",
        wl.name,
        machine.n_cores,
        workload_fingerprint(wl, machine, reps, measure)
    ));
    if let Ok(bytes) = fs::read(&file) {
        if let Ok(surface) = serde_json::from_slice::<Surface>(&bytes) {
            return surface;
        }
    }
    let surface = SurfaceBuilder::new(wl.clone(), *machine)
        .reps(reps)
        .warmup(measure / 10)
        .measure(measure)
        .build();
    if fs::create_dir_all(&dir).is_ok() {
        let _ = fs::write(&file, serde_json::to_vec(&surface).expect("surface serializes"));
    }
    surface
}

/// One step of a trace-driven replay.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReplayStep {
    /// Configuration the tuner explored at this step.
    pub config: Config,
    /// The KPI sample the trace returned.
    pub kpi: f64,
    /// Distance from optimum (%) of the tuner's *best-so-far* configuration,
    /// judged by the surface's noise-free means.
    pub best_dfo: f64,
}

/// A completed replay of one tuner against one surface.
#[derive(Debug, Clone)]
pub struct ReplayTrace {
    /// Tuner display name.
    pub tuner: String,
    /// Workload name.
    pub workload: String,
    /// Per-exploration steps, in order.
    pub steps: Vec<ReplayStep>,
    /// The tuner's final configuration.
    pub final_config: Config,
    /// Final distance from optimum (%).
    pub final_dfo: f64,
}

impl ReplayTrace {
    /// Best-so-far DFO at exploration `i` (clamped to the final value past
    /// the end — tuners that stop early "hold" their result, which is how
    /// Fig. 5 plots accuracy-over-time for algorithms of different lengths).
    pub fn dfo_at(&self, i: usize) -> f64 {
        if self.steps.is_empty() {
            return 100.0;
        }
        self.steps[i.min(self.steps.len() - 1)].best_dfo
    }

    /// Number of explorations performed.
    pub fn explorations(&self) -> usize {
        self.steps.len()
    }
}

/// Replay `tuner` against the trace `surface`.
///
/// Each exploration returns one stored sample (rotating through the stored
/// repetitions, offset by `rep_offset` so independent runs see different
/// noise). DFO bookkeeping uses the surface's per-configuration means.
pub fn replay(tuner: &mut dyn Tuner, surface: &Surface, rep_offset: usize) -> ReplayTrace {
    let (_, best_mean) = surface.optimum();
    let mut steps = Vec::new();
    let mut best_so_far: Option<(Config, f64)> = None;
    let mut i = 0usize;
    let cap = surface.len() * 4; // generous guard against non-terminating tuners
    while let Some(cfg) = tuner.propose() {
        let kpi = surface.sample(cfg.as_tuple(), rep_offset + i);
        tuner.observe(cfg, kpi);
        // The tuner's belief of "best" is by sampled KPI; track it from the
        // observations exactly as the tuner does.
        if best_so_far.map(|(_, b)| kpi > b).unwrap_or(true) {
            best_so_far = Some((cfg, kpi));
        }
        let believed_best = best_so_far.expect("just set").0;
        let dfo = 100.0 * (best_mean - surface.mean(believed_best.as_tuple())) / best_mean;
        steps.push(ReplayStep { config: cfg, kpi, best_dfo: dfo.max(0.0) });
        i += 1;
        if i >= cap {
            break;
        }
    }
    let final_config = best_so_far.map(|(c, _)| c).unwrap_or(Config::new(1, 1));
    let final_dfo =
        (100.0 * (best_mean - surface.mean(final_config.as_tuple())) / best_mean).max(0.0);
    ReplayTrace {
        tuner: tuner.name(),
        workload: surface.workload.clone(),
        steps,
        final_config,
        final_dfo,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use autopn::{AutoPn, AutoPnConfig, SearchSpace};
    use baselines::GridSearch;

    fn tiny_surface() -> Surface {
        let wl = SimWorkload::builder("trace-test")
            .top_work_us(40.0)
            .child_count(4)
            .child_work_us(80.0)
            .top_footprint(8, 2)
            .data_items(5_000)
            .build();
        SurfaceBuilder::new(wl, MachineParams::new(8))
            .reps(3)
            .warmup(Duration::from_millis(2))
            .measure(Duration::from_millis(30))
            .build()
    }

    #[test]
    fn replay_autopn_converges_on_trace() {
        let surface = tiny_surface();
        let mut tuner = AutoPn::new(SearchSpace::new(8), AutoPnConfig::default());
        let trace = replay(&mut tuner, &surface, 0);
        assert!(!trace.steps.is_empty());
        assert!(trace.final_dfo < 30.0, "final dfo {}", trace.final_dfo);
        // Past-the-end queries hold the last step's value.
        assert_eq!(trace.dfo_at(10_000), trace.steps.last().unwrap().best_dfo);
    }

    #[test]
    fn exhaustive_grid_replay_reaches_zero_dfo() {
        let surface = tiny_surface();
        let mut tuner = GridSearch::new(SearchSpace::new(8)).with_stop_rule(usize::MAX, 0.0);
        let trace = replay(&mut tuner, &surface, 0);
        assert_eq!(trace.explorations(), surface.len());
        // With modest noise the believed best may differ slightly from the
        // mean-best; allow a small margin.
        assert!(trace.final_dfo < 10.0, "dfo {}", trace.final_dfo);
    }

    #[test]
    fn rep_offset_changes_observed_noise() {
        let surface = tiny_surface();
        let run = |off| {
            let mut tuner = AutoPn::new(SearchSpace::new(8), AutoPnConfig::default());
            replay(&mut tuner, &surface, off).steps.first().map(|s| s.kpi).unwrap()
        };
        // Same first config, different stored repetition.
        assert_ne!(run(0), run(1));
    }

    #[test]
    fn cache_round_trips_surface() {
        let dir = std::env::temp_dir().join(format!("autopn-trace-test-{}", std::process::id()));
        std::env::set_var("AUTOPN_TRACE_CACHE", &dir);
        let wl = SimWorkload::builder("cache-test").top_work_us(100.0).build();
        let machine = MachineParams::new(4);
        let a = load_or_build_surface(&wl, &machine, 2, Duration::from_millis(20));
        let b = load_or_build_surface(&wl, &machine, 2, Duration::from_millis(20));
        assert_eq!(a, b, "second load must come from the cache byte-identically");
        // A malformed cache file is rebuilt, not trusted.
        for entry in std::fs::read_dir(&dir).unwrap() {
            std::fs::write(
                entry.unwrap().path(),
                r#"{"workload":"cache-test","n_cores":4,"samples":[]}"#,
            )
            .unwrap();
        }
        let c = load_or_build_surface(&wl, &machine, 2, Duration::from_millis(20));
        assert_eq!(a, c, "a malformed cache must be rebuilt");
        std::env::remove_var("AUTOPN_TRACE_CACHE");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fingerprint_distinguishes_workloads() {
        let m = MachineParams::new(4);
        let a = SimWorkload::builder("same").top_work_us(10.0).build();
        let b = SimWorkload::builder("same").top_work_us(11.0).build();
        assert_ne!(
            workload_fingerprint(&a, &m, 2, Duration::from_millis(10)),
            workload_fingerprint(&b, &m, 2, Duration::from_millis(10))
        );
    }
}
