//! Co-tuning scaling: in-model N-dimensional tuning vs. exhaustive per-axis
//! sweeping, on a workload whose optimum needs **non-default** discrete axis
//! levels.
//!
//! The system is a deterministic virtual-clock fake (so the bench is exact
//! and runner-load-proof) modelling a high-contention ring: the commit
//! period is a `(t, c)` bowl with its optimum at `(6, 2)`, plus a contention
//! penalty minimized by the `Karma` policy (default is `ExpBackoff`) and a
//! batching penalty minimized by 512-transaction blocks (default is 256).
//! Neither discrete axis is at its default at the optimum, so a tuner that
//! cannot model the axes must sweep them exhaustively.
//!
//! Two contenders, measured in *measurement windows spent* (each window is
//! one `Controller` measurement — the unit of wall-clock cost online):
//!
//! * **Exhaustive sweep** — the pre-generalization strategy: one full
//!   `(t, c)` tuning session per `{cm} × {block}` combination (the
//!   `sweep_axis` driver shape, crossed), winner by throughput.
//! * **In-model co-tune** — one session of the generalized [`AutoPn`] over
//!   the typed `ConfigSpace` with both axes folded into the SMBO model.
//!
//! Gates (`--check`): the co-tuner's best KPI reaches within 10% of the
//! exhaustive sweep's best, using at most half the windows.
//!
//! Usage (cargo bench -p bench --bench cotune_scaling -- [flags]):
//!   --cores N       (t, c) grid bound (default 16)
//!   --check         assert the acceptance gates
//!   --smoke         small-but-real run (same fake, same gates)

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use autopn::monitor::AdaptiveMonitor;
use autopn::{
    AutoPn, AutoPnConfig, Axis, AxisRegistry, Config, Controller, SearchSpace, TunableSystem,
    TuneOptions, TuningOutcome,
};
use pnstm::{CmMode, TraceBus};

struct BenchConfig {
    cores: usize,
    check: bool,
    smoke: bool,
}

fn parse_args() -> BenchConfig {
    let mut cfg = BenchConfig { cores: 16, check: false, smoke: false };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| args.next().unwrap_or_else(|| panic!("{name} needs a value"));
        match arg.as_str() {
            "--cores" => cfg.cores = value("--cores").parse().expect("--cores"),
            "--check" => cfg.check = true,
            "--smoke" => cfg.smoke = true,
            "--bench" | "--quick" => {}
            other => panic!("unknown flag {other:?}"),
        }
    }
    if cfg.smoke {
        cfg.cores = 12;
    }
    cfg
}

/// Deterministic virtual-clock system. The enacted discrete point lives in
/// shared cells so both the registry closures (co-tune path) and the sweep
/// loop (baseline path) actuate the same knobs.
struct RingFakeSystem {
    now: u64,
    cfg: Config,
    cm_idx: Arc<AtomicUsize>,
    block_txns: Arc<AtomicUsize>,
}

impl RingFakeSystem {
    fn new(cm_idx: Arc<AtomicUsize>, block_txns: Arc<AtomicUsize>) -> Self {
        Self { now: 0, cfg: Config::new(1, 1), cm_idx, block_txns }
    }

    /// Commit period in ns. Scaled so the `(1, 1)` pivot (which calibrates
    /// the adaptive monitor's `3/T(1,1)` timeout and its `timeout/4` poll
    /// interval) and the whole healthy neighbourhood of the optimum sit well
    /// under the monitor's minimum 100 µs poll; far-off configurations
    /// exceed the adaptive timeout and get cut short, exactly as online.
    fn period(&self) -> u64 {
        let bowl = (self.cfg.t as f64 - 6.0).powi(2) * 1_000.0
            + (self.cfg.c as f64 - 2.0).powi(2) * 2_000.0;
        let cm = CmMode::from_index(self.cm_idx.load(Ordering::Relaxed)).expect("cm axis level");
        let cm_penalty = match cm {
            CmMode::Karma => 0.0,
            CmMode::ExpBackoff => 8_000.0,
            CmMode::Greedy => 12_000.0,
            other => unreachable!("{other} is not on the cm axis"),
        };
        let b = self.block_txns.load(Ordering::Relaxed).max(1) as f64;
        let block_penalty = (b.log2() - 9.0).powi(2) * 5_000.0; // optimum: 512
        (20_000.0 + bowl + cm_penalty + block_penalty) as u64
    }
}

impl TunableSystem for RingFakeSystem {
    fn apply(&mut self, cfg: Config) {
        self.cfg = cfg;
    }
    fn wait_commit(&mut self, max_wait_ns: u64) -> Option<u64> {
        let period = self.period();
        if period <= max_wait_ns {
            self.now += period;
            Some(self.now)
        } else {
            self.now += max_wait_ns;
            None
        }
    }
    fn now_ns(&self) -> u64 {
        self.now
    }
}

fn windows_of(outcome: &TuningOutcome) -> usize {
    outcome.explored.len()
}

fn main() {
    let cfg = parse_args();
    println!("{{\"bench\":\"cotune_scaling\",\"cores\":{},\"smoke\":{}}}", cfg.cores, cfg.smoke);

    let (cm_axis, block_axis) = (Axis::cm_policy(), Axis::block_size());
    let default_cm = cm_axis.value_at(cm_axis.default_level()) as usize;
    let default_block = block_axis.value_at(block_axis.default_level()) as usize;
    let cm_idx = Arc::new(AtomicUsize::new(default_cm));
    let block_txns = Arc::new(AtomicUsize::new(default_block));

    // --- Baseline: exhaustive {cm} × {block} sweep, one full (t, c)
    // session per combination of axis levels (the generalized space
    // projected away).
    let mut sweep_windows = 0usize;
    let mut sweep_best = f64::MIN;
    let mut sweep_best_point =
        (cm_axis.default_level(), block_axis.default_level(), Config::new(1, 1));
    {
        let mut sys = RingFakeSystem::new(Arc::clone(&cm_idx), Arc::clone(&block_txns));
        for ci in 0..cm_axis.len() {
            for bi in 0..block_axis.len() {
                cm_idx.store(cm_axis.value_at(ci) as usize, Ordering::Relaxed);
                block_txns.store(block_axis.value_at(bi) as usize, Ordering::Relaxed);
                let mut tuner = AutoPn::new(SearchSpace::new(cfg.cores), AutoPnConfig::default());
                let mut monitor = AdaptiveMonitor::default();
                let outcome = Controller::tune_traced_with(
                    &mut sys,
                    &mut tuner,
                    &mut monitor,
                    &TraceBus::default(),
                    &TuneOptions::default(),
                );
                sweep_windows += windows_of(&outcome);
                if outcome.best_throughput > sweep_best {
                    sweep_best = outcome.best_throughput;
                    sweep_best_point = (ci, bi, outcome.best);
                }
            }
        }
    }
    println!(
        "{{\"mode\":\"sweep\",\"sessions\":{},\"windows\":{sweep_windows},\
         \"best_tps\":{sweep_best:.0},\"best_cm\":\"{}\",\"best_block\":{},\
         \"best_t\":{},\"best_c\":{}}}",
        cm_axis.len() * block_axis.len(),
        cm_axis.label_at(sweep_best_point.0),
        block_axis.value_at(sweep_best_point.1),
        sweep_best_point.2.t,
        sweep_best_point.2.c,
    );

    // --- Contender: one in-model co-tuning session over the typed space,
    // actuated through the axis registry (same shared knobs).
    let (cotune_windows, cotune_best, cotune_point, space);
    {
        let cm_knob = Arc::clone(&cm_idx);
        let block_knob = Arc::clone(&block_txns);
        let registry = AxisRegistry::new()
            .bind(Axis::cm_policy(), move |value, _| {
                cm_knob.store(value as usize, Ordering::Relaxed);
                Ok(())
            })
            .bind(Axis::block_size(), move |value, _| {
                block_knob.store((value as usize).max(1), Ordering::Relaxed);
                Ok(())
            });
        space = registry.space(cfg.cores);
        cm_idx.store(default_cm, Ordering::Relaxed);
        block_txns.store(default_block, Ordering::Relaxed);

        /// The fake, with the registry spliced into its apply path — the
        /// same "axes first, degree last" contract the live systems use.
        struct CotuneSystem {
            inner: RingFakeSystem,
            registry: AxisRegistry,
        }
        impl TunableSystem for CotuneSystem {
            fn apply(&mut self, cfg: Config) {
                self.registry.enact(cfg).expect("fake knobs never fail");
                self.inner.apply(cfg);
            }
            fn wait_commit(&mut self, max_wait_ns: u64) -> Option<u64> {
                self.inner.wait_commit(max_wait_ns)
            }
            fn now_ns(&self) -> u64 {
                self.inner.now_ns()
            }
        }

        let mut sys = CotuneSystem {
            inner: RingFakeSystem::new(Arc::clone(&cm_idx), Arc::clone(&block_txns)),
            registry,
        };
        let mut tuner = AutoPn::new(space.clone(), AutoPnConfig::default());
        let mut monitor = AdaptiveMonitor::default();
        let outcome = Controller::tune_traced_with(
            &mut sys,
            &mut tuner,
            &mut monitor,
            &TraceBus::default(),
            &TuneOptions::default(),
        );
        cotune_windows = windows_of(&outcome);
        cotune_best = outcome.best_throughput;
        cotune_point = outcome.best;
    }
    println!(
        "{{\"mode\":\"cotune\",\"sessions\":1,\"windows\":{cotune_windows},\
         \"best_tps\":{cotune_best:.0},\"best_point\":\"{}\"}}",
        space.describe(cotune_point),
    );

    let kpi_ratio = cotune_best / sweep_best.max(1e-9);
    let window_ratio = cotune_windows as f64 / sweep_windows.max(1) as f64;
    println!(
        "{{\"mode\":\"summary\",\"kpi_ratio\":{kpi_ratio:.3},\"window_ratio\":{window_ratio:.3},\
         \"sweep_windows\":{sweep_windows},\"cotune_windows\":{cotune_windows}}}"
    );

    if cfg.check {
        assert!(
            kpi_ratio >= 0.90,
            "co-tuned best ({cotune_best:.0} tps) is below 90% of the exhaustive sweep's best \
             ({sweep_best:.0} tps): ratio {kpi_ratio:.3}"
        );
        assert!(
            window_ratio <= 0.5,
            "co-tuning spent {cotune_windows} windows vs the sweep's {sweep_windows}; the gate \
             needs <= half (ratio {window_ratio:.3})"
        );
        println!(
            "CHECK PASSED: kpi_ratio {kpi_ratio:.3} >= 0.90, window_ratio {window_ratio:.3} <= 0.5"
        );
    }

    let config = format!(
        "cores={} cm_levels={} block_levels={} sweep_windows={} cotune_windows={} smoke={}",
        cfg.cores,
        cm_axis.len(),
        block_axis.len(),
        sweep_windows,
        cotune_windows,
        cfg.smoke
    );
    // ops_per_sec: the co-tuned best KPI; ratio: windows saved vs the sweep
    // (sweep/cotune, >1 is better).
    let window_speedup = sweep_windows as f64 / cotune_windows.max(1) as f64;
    match bench::write_bench_report("cotune_scaling", &config, cotune_best, window_speedup) {
        Ok(path) => println!("report: {}", path.display()),
        Err(e) => eprintln!("report write failed: {e}"),
    }
}
