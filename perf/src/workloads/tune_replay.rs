//! `tune_replay` — the control plane alone (the paper's contribution).
//!
//! For `array-high`, `tpcc-med` and `vacation-low` × 64 seeds, a full
//! `Controller::tune` session (AutoPN + `AdaptiveMonitor`) against
//! `workloads::SimSystem` on the 48-core `simtm` machine; the 192-session
//! round repeats until the run's time is used. `autopn` (model fit, EI
//! sweep, hill climb, window close) and `simtm` do all the work and
//! `pnstm` / `ingress` none: the bypass workload for every data-plane
//! optimisation, the exercise workload for tuner simplifications.
//!
//! Distance from optimum and exploration counts are judged against oracle
//! surfaces built fresh in set-up; both are deterministic in the seed, so
//! they repeat exactly and every round returns the same ones.

use std::path::PathBuf;
use std::time::Duration;

use autopn::monitor::{AdaptiveMonitor, MonitorPolicy};
use autopn::{AutoPn, AutoPnConfig, Config, Controller, SearchSpace, TunableSystem, Tuner};
use pnstm::trace::now_ns;
use simtm::{MachineParams, SimWorkload, Surface};
use workloads::{load_or_build_surface, workload_by_name, SimSystem};

use super::{headline, write_trace};
use crate::recorder::Recorder;
use crate::stats::{lower_quartile, median, percentile};
use crate::{mix, timed_setup, RunArgs, RunResult, SETUP_BUILDS_SLOW};

const WORKLOADS: [&str; 3] = ["array-high", "tpcc-med", "vacation-low"];
const SEEDS_PER_WORKLOAD: u64 = 64;
/// Oracle-surface fidelity: repetitions per configuration and virtual
/// measurement time per repetition.
const SURFACE_REPS: usize = 3;
const SURFACE_MEASURE: Duration = Duration::from_millis(50);
/// Traced: spans are written for the first round only.
const TRACED_ROUNDS: usize = 1;

struct Oracle {
    workload: SimWorkload,
    surface: Surface,
}

/// One finished session.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Session {
    best: Config,
    explorations: usize,
    wall_ns: u64,
}

/// Per-call timings the traced run collects, in ns.
#[derive(Default)]
struct CallTimes {
    propose_smbo: Vec<f64>,
    observe: Vec<f64>,
    measure: Vec<f64>,
    propose_total: u64,
    session_total: u64,
}

fn fixtures(machine: &MachineParams, round: usize) -> Vec<Oracle> {
    // A fresh cache directory per build, so every build really builds.
    let cache: PathBuf = crate::out_dir().join(format!("surfaces-{}-{round}", std::process::id()));
    std::env::set_var("AUTOPN_TRACE_CACHE", &cache);
    let oracles = WORKLOADS
        .iter()
        .map(|name| {
            let workload = workload_by_name(name).expect("a paper workload");
            let surface = load_or_build_surface(&workload, machine, SURFACE_REPS, SURFACE_MEASURE);
            Oracle { workload, surface }
        })
        .collect();
    let _ = std::fs::remove_dir_all(&cache);
    oracles
}

fn parts(
    oracle: &Oracle,
    machine: &MachineParams,
    seed: u64,
) -> (SimSystem, AutoPn, AdaptiveMonitor) {
    (
        SimSystem::new(&oracle.workload, machine, seed),
        AutoPn::new(SearchSpace::new(machine.n_cores), AutoPnConfig { seed, ..Default::default() }),
        AdaptiveMonitor::default(),
    )
}

/// The session as shipped: one `Controller::tune` call.
fn tune(oracle: &Oracle, machine: &MachineParams, seed: u64) -> Session {
    let (mut system, mut tuner, mut monitor) = parts(oracle, machine, seed);
    let t0 = now_ns();
    let outcome = Controller::tune(&mut system, &mut tuner, &mut monitor);
    Session { best: outcome.best, explorations: outcome.explored.len(), wall_ns: now_ns() - t0 }
}

/// The same session with the benchmark driving propose → apply → measure →
/// observe itself, so each call into `autopn` gets a span and a timing.
fn tune_stepwise(
    oracle: &Oracle,
    machine: &MachineParams,
    seed: u64,
    session: u64,
    rec: &mut Recorder,
    times: &mut CallTimes,
) -> Session {
    let (mut system, mut tuner, mut monitor) = parts(oracle, machine, seed);
    let t0 = now_ns();
    let mut spans = Vec::new();
    let mut explorations = 0;
    loop {
        let before = tuner.phase_name();
        let p0 = now_ns();
        let proposal = tuner.propose();
        let p1 = now_ns();
        spans.push(("autopn.propose", p0, p1));
        times.propose_total += p1 - p0;
        if before == "smbo" || tuner.phase_name() == "smbo" {
            times.propose_smbo.push((p1 - p0) as f64);
        }
        let Some(cfg) = proposal else { break };
        system.apply(cfg);
        system.quiesce();
        let m0 = now_ns();
        let m = Controller::measure(&mut system, &mut monitor);
        let m1 = now_ns();
        monitor.measurement_taken(cfg, &m);
        let o0 = now_ns();
        tuner.observe_noisy(cfg, m.throughput, m.cv, m.timed_out);
        let o1 = now_ns();
        spans.push(("autopn.measure_window", m0, m1));
        spans.push(("autopn.observe", o0, o1));
        times.measure.push((m1 - m0) as f64);
        times.observe.push((o1 - o0) as f64);
        explorations += 1;
    }
    let best = tuner.best().map_or(Config::new(1, 1), |(cfg, _)| cfg);
    system.apply(best);
    let t1 = now_ns();
    times.session_total += t1 - t0;
    let root = rec.span("autopn.session", 0, Some(session), t0, t1);
    for (name, start, end) in spans {
        rec.span(name, root, Some(session), start, end);
    }
    Session { best, explorations, wall_ns: t1 - t0 }
}

pub fn run(args: &RunArgs) -> RunResult {
    let mut out = RunResult::default();
    let mut rec = Recorder::new(args.trace);
    let mut unrecorded = Recorder::new(false); // rounds past TRACED_ROUNDS
    let machine = MachineParams::paper_testbed();
    let (oracles, setup_s) = timed_setup(SETUP_BUILDS_SLOW, |round| fixtures(&machine, round));

    let sessions_per_round = WORKLOADS.len() as u64 * SEEDS_PER_WORKLOAD;
    let session_seed = |k: u64| mix(args.seed, k / WORKLOADS.len() as u64);
    let total_ns = args.phase_ns(1.0);
    let warmup_ns = (total_ns / 4).min(2_000_000_000);
    let start_ns = now_ns();
    let mut times = CallTimes::default();
    let mut first_round: Vec<Session> = Vec::new();
    // Per timed round: ms per session, the p50 session time (mean over the
    // three workloads of each one's exact p50) and the exact pooled p99.
    let mut round_ms_per_session = Vec::new();
    let (mut round_p50_ns, mut round_p99_ns) = (Vec::new(), Vec::new());
    let mut rounds = 0usize;
    let mut drifted = 0u64;
    while rounds < 2 || now_ns() - start_ns < total_ns {
        let round_start = now_ns();
        let mut round = Vec::with_capacity(sessions_per_round as usize);
        for k in 0..sessions_per_round {
            // Workloads interleave, so every stretch of a round is alike.
            let oracle = &oracles[(k % WORKLOADS.len() as u64) as usize];
            round.push(if args.trace {
                let rec = if rounds < TRACED_ROUNDS { &mut rec } else { &mut unrecorded };
                tune_stepwise(oracle, &machine, session_seed(k), k, rec, &mut times)
            } else {
                tune(oracle, &machine, session_seed(k))
            });
        }
        let round_ns = now_ns() - round_start;
        // Rounds that begin inside the warm-up are run but not timed (the
        // loop runs at least two rounds and four warm-ups long, so some are).
        if round_start - start_ns >= warmup_ns {
            round_ms_per_session.push(round_ns as f64 / 1e6 / sessions_per_round as f64);
            // The three simulated workloads' sessions differ 5× in length,
            // so the pooled median sits on the edge between two of them and
            // moves with the seed; the p50 is taken per workload, in the
            // middle of its own sessions, and averaged.
            let sorted_walls = |keep: &dyn Fn(usize) -> bool| {
                let mut walls: Vec<u64> = round
                    .iter()
                    .enumerate()
                    .filter(|(k, _)| keep(*k))
                    .map(|(_, s)| s.wall_ns)
                    .collect();
                walls.sort_unstable();
                walls
            };
            let p50s = (0..WORKLOADS.len()).map(|w| {
                percentile(&sorted_walls(&|k| k % WORKLOADS.len() == w), 50.0).unwrap_or(0) as f64
            });
            round_p50_ns.push(p50s.sum::<f64>() / WORKLOADS.len() as f64);
            round_p99_ns.push(percentile(&sorted_walls(&|_| true), 99.0).unwrap_or(0) as f64);
        }
        if first_round.is_empty() {
            first_round = round;
        } else {
            drifted += first_round
                .iter()
                .zip(&round)
                .filter(|(a, b)| (a.best, a.explorations) != (b.best, b.explorations))
                .count() as u64;
        }
        rounds += 1;
    }

    // ---- correctness gate -------------------------------------------------
    let space = SearchSpace::new(machine.n_cores);
    let bad = first_round
        .iter()
        .filter(|s| {
            !space.contains(s.best)
                || s.best.t * s.best.c > machine.n_cores
                || s.explorations == 0
                || s.explorations > space.len()
        })
        .count() as u64;
    out.check(bad == 0, || format!("{bad} sessions ended without an admissible t·c ≤ 48 config"));
    out.check(drifted == 0, || format!("{drifted} sessions differed between identical rounds"));
    if args.trace {
        // The bench-driven loop must be the session `Controller::tune` runs.
        let differ = (0..sessions_per_round)
            .filter(|&k| {
                let oracle = &oracles[(k % WORKLOADS.len() as u64) as usize];
                let shipped = tune(oracle, &machine, session_seed(k));
                let stepped = first_round[k as usize];
                (shipped.best, shipped.explorations) != (stepped.best, stepped.explorations)
            })
            .count();
        out.check(differ == 0, || {
            format!("{differ} bench-driven sessions differ from Controller::tune")
        });
    }

    // ---- measurements -----------------------------------------------------
    let mean = |f: &dyn Fn(usize, &Session) -> f64| {
        first_round.iter().enumerate().map(|(k, s)| f(k, s)).sum::<f64>()
            / first_round.len().max(1) as f64
    };
    let dfo_pct =
        mean(&|k, s| oracles[k % WORKLOADS.len()].surface.distance_from_optimum(s.best.as_tuple()));
    let explorations = mean(&|_, s| s.explorations as f64);
    // Rounds are this workload's slices.
    let session_ms = median(&round_ms_per_session);
    out.attempted = rounds as u64 * sessions_per_round;
    out.failed = bad + drifted;
    out.note("rounds", rounds as f64);
    out.note("timed.rounds", round_ms_per_session.len() as f64);
    out.note("timed.sessions", (round_ms_per_session.len() as u64 * sessions_per_round) as f64);
    headline(
        &mut out,
        args,
        setup_s,
        1e3 / session_ms,
        median(&round_p50_ns) / 1e3,
        lower_quartile(&round_p99_ns) / 1e3,
    );
    if !args.trace {
        // The tuner's own end-to-end numbers (`extra_end_to_end.json`); the
        // last two are deterministic in the seed.
        out.note("tune_session_ms", session_ms);
        out.note("tune_dfo_pct", dfo_pct);
        out.note("tune_explorations", explorations);
        return out;
    }

    out.metric("autopn.propose_smbo_us", median(&times.propose_smbo) / 1e3);
    out.metric("autopn.observe_us", median(&times.observe) / 1e3);
    out.metric("autopn.measure_window_us", median(&times.measure) / 1e3);
    out.metric(
        "autopn.propose_share",
        times.propose_total as f64 / times.session_total.max(1) as f64,
    );
    out.metric("tune_session_ms", session_ms);
    out.metric("tune_dfo_pct", dfo_pct);
    out.metric("tune_explorations", explorations);
    write_trace(&mut out, &rec, "tune_replay");
    out
}
