//! The tuning controller: drives a [`Tuner`] against a [`TunableSystem`]
//! through a [`MonitorPolicy`], tying together the optimizer, the monitor and
//! the actuator (Fig. 2 of the paper).

use crate::kpi::{Measurement, SloKpi};
use crate::monitor::{MonitorPolicy, Verdict, HARD_WINDOW_CAP_NS};
use crate::optimizer::Tuner;
use crate::space::Config;
use pnstm::{TraceBus, TraceEvent};
use std::time::{Duration, Instant};

/// A configuration could not be enacted (e.g. the actuation backend failed,
/// or the fault layer vetoed the reconfiguration).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ApplyError {
    /// Human-readable failure reason.
    pub reason: String,
}

impl ApplyError {
    pub fn new(reason: impl Into<String>) -> Self {
        Self { reason: reason.into() }
    }
}

impl std::fmt::Display for ApplyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "configuration apply failed: {}", self.reason)
    }
}

impl std::error::Error for ApplyError {}

/// A system whose parallelism degree can be tuned and whose top-level commit
/// events can be observed. Implemented by the `simtm` simulator wrapper and
/// by live `pnstm` workload drivers (see the `workloads` crate), and by
/// trace replayers.
pub trait TunableSystem {
    /// Enact configuration `cfg`.
    fn apply(&mut self, cfg: Config);

    /// Fallibly enact configuration `cfg`. Systems whose actuation can fail
    /// (a vetoed semaphore reconfiguration, a remote actuator) override this;
    /// the default delegates to the infallible [`TunableSystem::apply`]. The
    /// controller retries failed applies with backoff and falls back to the
    /// last-known-good configuration (see [`Controller::tune_traced`]).
    fn try_apply(&mut self, cfg: Config) -> Result<(), ApplyError> {
        self.apply(cfg);
        Ok(())
    }

    /// Block (or advance virtual time) until the next top-level commit, at
    /// most `max_wait_ns`. Returns the commit's timestamp on the system
    /// clock, or `None` on timeout.
    fn wait_commit(&mut self, max_wait_ns: u64) -> Option<u64>;

    /// Current time on the system clock (ns).
    fn now_ns(&self) -> u64;

    /// Wait (or advance virtual time) until transactions admitted under the
    /// previous configuration have drained, so the next measurement window
    /// only observes the configuration in force. Default: no-op.
    fn quiesce(&mut self) {}
}

/// A [`TunableSystem`] that additionally serves an open-loop ingress stream
/// and can account a service-level KPI per measurement window: goodput plus
/// coordinated-omission-free latency percentiles (see [`SloKpi`]).
///
/// The controller brackets each measurement window with
/// `begin_slo_window` / `end_slo_window`; the window's *duration* is still
/// decided by the [`MonitorPolicy`] driving commit events, so the SLO path
/// reuses the adaptive windowing machinery unchanged.
pub trait SloTunableSystem: TunableSystem {
    /// Open an SLO accounting window (typically: snapshot the ingress
    /// counters and latency histogram).
    fn begin_slo_window(&mut self);
    /// Close the window opened by the last
    /// [`SloTunableSystem::begin_slo_window`] and return its KPI.
    fn end_slo_window(&mut self) -> SloKpi;
}

/// Hard safety deadlines around one measurement window, *beyond* the
/// policy's own adaptive timeout: the adaptive timeout needs a reference
/// (`1/T(1,1)`) and a ticking system clock, and a sufficiently broken system
/// can deny it both. The watchdog terminates the window on either clock and
/// returns a flagged measurement instead of hanging the controller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Watchdog {
    /// Wall-clock deadline on the driving host.
    pub wall: Duration,
    /// Deadline on the tuned system's clock (virtual or real), in ns.
    pub system_ns: u64,
}

impl Default for Watchdog {
    fn default() -> Self {
        // Comfortably beyond the policies' 120 s hard window cap, so the
        // watchdog only fires when the normal close paths are all broken.
        Self { wall: Duration::from_secs(150), system_ns: 2 * HARD_WINDOW_CAP_NS }
    }
}

/// Degradation-ladder knobs for a tuning session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TuneOptions {
    /// Per-window watchdog deadlines.
    pub watchdog: Watchdog,
    /// How many times a failing [`TunableSystem::try_apply`] is attempted
    /// before the controller gives up on the configuration (≥ 1).
    pub apply_attempts: u32,
    /// Base wall-clock backoff between apply retries (doubles per retry;
    /// `ZERO` retries immediately).
    pub apply_backoff: Duration,
}

impl Default for TuneOptions {
    fn default() -> Self {
        Self {
            watchdog: Watchdog::default(),
            apply_attempts: 4,
            apply_backoff: Duration::from_micros(200),
        }
    }
}

/// Result of a completed tuning session.
#[derive(Debug, Clone)]
pub struct TuningOutcome {
    /// Every exploration in order: configuration and its measurement.
    pub explored: Vec<(Config, Measurement)>,
    /// The configuration the tuner settled on.
    pub best: Config,
    /// Its measured throughput.
    pub best_throughput: f64,
    /// System time consumed by the whole tuning session (ns).
    pub elapsed_ns: u64,
    /// The session survived a fault: a reconfiguration fell back to the
    /// last-known-good configuration, a watchdog terminated a window, or a
    /// measurement came back starved. The result stands but deserves less
    /// trust (mirrors the `SessionEnd.degraded` trace flag).
    pub degraded: bool,
}

/// Result of a completed SLO tuning session ("maximize goodput subject to
/// p99 ≤ target").
#[derive(Debug, Clone)]
pub struct SloTuningOutcome {
    /// Every exploration in order: configuration, the monitor's measurement,
    /// and the ingress window's service-level KPI.
    pub explored: Vec<(Config, Measurement, SloKpi)>,
    /// The configuration the tuner settled on.
    pub best: Config,
    /// Its scalar objective value ([`SloKpi::score`] at the session target).
    pub best_score: f64,
    /// The p99 target the session tuned against, in nanoseconds.
    pub p99_target_ns: u64,
    /// Whether the best configuration's measured window met the target.
    pub meets_target: bool,
    /// System time consumed by the whole session (ns).
    pub elapsed_ns: u64,
    /// Same meaning as [`TuningOutcome::degraded`].
    pub degraded: bool,
}

/// Outcome of a supervised (re-tuning) session.
#[derive(Debug, Clone)]
pub struct SupervisedOutcome {
    /// Every tuning session that ran, in order (a new one per detected
    /// workload change).
    pub sessions: Vec<TuningOutcome>,
    /// Supervision measurements taken between tuning sessions.
    pub supervision_windows: usize,
    /// How many workload changes the detector reported.
    pub changes_detected: usize,
}

/// What [`Controller`]'s session loop hands back to the public entry point
/// that shapes it into its outcome type.
struct Session<E> {
    /// Every exploration: configuration, measurement, the window's extra.
    explored: Vec<(Config, Measurement, E)>,
    best: Config,
    /// The KPI the tuner observed for `best`.
    best_kpi: f64,
    elapsed_ns: u64,
    degraded: bool,
}

/// Drives tuning sessions.
pub struct Controller;

impl Controller {
    /// Measure the system's current configuration under `policy`.
    pub fn measure(system: &mut dyn TunableSystem, policy: &mut dyn MonitorPolicy) -> Measurement {
        Self::measure_traced(system, policy, &TraceBus::default())
    }

    /// [`Controller::measure`], additionally emitting window open/sample/
    /// close events — including the policy's CV trajectory — on `trace`.
    pub fn measure_traced(
        system: &mut dyn TunableSystem,
        policy: &mut dyn MonitorPolicy,
        trace: &TraceBus,
    ) -> Measurement {
        Self::measure_watched(system, policy, trace, &Watchdog::default())
    }

    /// [`Controller::measure_traced`] under explicit [`Watchdog`] deadlines.
    /// When the watchdog fires, the window closes with a flagged (starved,
    /// timed-out) measurement and a [`TraceEvent::WatchdogFired`] marker
    /// instead of the controller hanging on a dead system.
    pub fn measure_watched(
        system: &mut dyn TunableSystem,
        policy: &mut dyn MonitorPolicy,
        trace: &TraceBus,
        watchdog: &Watchdog,
    ) -> Measurement {
        Self::measure_inner(system, policy, trace, watchdog).0
    }

    /// Core measurement loop; the second component reports whether the
    /// watchdog terminated the window (the session is then degraded).
    fn measure_inner<S: TunableSystem + ?Sized>(
        system: &mut S,
        policy: &mut dyn MonitorPolicy,
        trace: &TraceBus,
        watchdog: &Watchdog,
    ) -> (Measurement, bool) {
        let opened = system.now_ns();
        let wall_start = Instant::now();
        policy.begin_window(opened);
        trace.emit(TraceEvent::WindowOpen { at_ns: opened });
        let close = |m: Measurement, at_ns: u64, trace: &TraceBus| {
            trace.emit(TraceEvent::WindowClose {
                at_ns,
                commits: m.commits,
                window_ns: m.window_ns,
                throughput: m.throughput,
                timed_out: m.timed_out,
                cv: m.cv,
            });
            m
        };
        loop {
            // Hard deadline check on both clocks. The policies' own timeouts
            // run on the *system* clock and need a throughput reference; a
            // frozen clock or an uncalibrated policy can defeat them, and the
            // wall deadline is the backstop that cannot be defeated.
            let sys_now = system.now_ns();
            if wall_start.elapsed() >= watchdog.wall
                || sys_now.saturating_sub(opened) >= watchdog.system_ns
            {
                trace.emit(TraceEvent::WatchdogFired { at_ns: sys_now });
                let m = policy.force_close(sys_now);
                return (close(m, sys_now, trace), true);
            }
            match system.wait_commit(policy.poll_interval_ns()) {
                Some(ts) => {
                    let verdict = policy.on_commit(ts);
                    if trace.is_enabled() {
                        trace.emit(TraceEvent::WindowSample { at_ns: ts, cv: policy.current_cv() });
                    }
                    if let Verdict::Complete(m) = verdict {
                        return (close(m, ts, trace), false);
                    }
                }
                None => {
                    let now = system.now_ns();
                    if let Verdict::Complete(m) = policy.on_idle(now) {
                        return (close(m, now, trace), false);
                    }
                }
            }
        }
    }

    /// Attempt `try_apply` up to `opts.apply_attempts` times with exponential
    /// wall-clock backoff. Returns the last error if every attempt failed.
    ///
    /// Live systems reprovision the whole execution layer inside `try_apply`
    /// — admission capacity *and* scheduler worker count (see
    /// [`crate::PnstmActuator::try_apply`]) — and do so only after the
    /// degree switch succeeds, so a failed attempt leaves both the `(t, c)`
    /// configuration and the worker pool exactly as they were.
    fn apply_with_retry<S: TunableSystem + ?Sized>(
        system: &mut S,
        cfg: Config,
        opts: &TuneOptions,
    ) -> Result<(), ApplyError> {
        let attempts = opts.apply_attempts.max(1);
        let mut backoff = opts.apply_backoff;
        let mut last = ApplyError::new("unreachable: zero apply attempts");
        for attempt in 1..=attempts {
            match system.try_apply(cfg) {
                Ok(()) => return Ok(()),
                Err(err) => last = err,
            }
            if attempt < attempts && !backoff.is_zero() {
                std::thread::sleep(backoff);
                backoff = backoff.saturating_mul(2);
            }
        }
        Err(last)
    }

    /// Run a full tuning session: propose → apply → measure → observe, until
    /// the tuner converges; then apply the best configuration.
    pub fn tune(
        system: &mut dyn TunableSystem,
        tuner: &mut dyn Tuner,
        policy: &mut dyn MonitorPolicy,
    ) -> TuningOutcome {
        Self::tune_traced(system, tuner, policy, &TraceBus::default())
    }

    /// [`Controller::tune`], additionally emitting session, window and
    /// optimizer events on `trace`. Pass the tuned STM's own bus
    /// (`stm.trace_bus().clone()`) to interleave control-plane events with
    /// the runtime's transaction/reconfiguration events in one stream.
    pub fn tune_traced(
        system: &mut dyn TunableSystem,
        tuner: &mut dyn Tuner,
        policy: &mut dyn MonitorPolicy,
        trace: &TraceBus,
    ) -> TuningOutcome {
        Self::tune_traced_with(system, tuner, policy, trace, &TuneOptions::default())
    }

    /// [`Controller::tune_traced`] with explicit degradation-ladder knobs.
    ///
    /// The ladder, rung by rung:
    /// 1. a failing reconfiguration is retried `apply_attempts` times with
    ///    exponential backoff;
    /// 2. when retries are exhausted, the configuration is reported to the
    ///    tuner as unusable (zero throughput, timed out) and the system is
    ///    re-parked on the last configuration that *did* apply (or `(1,1)`),
    ///    with a [`TraceEvent::ApplyDegraded`] marker;
    /// 3. a window the policy cannot close is terminated by the watchdog with
    ///    a flagged measurement ([`TraceEvent::WatchdogFired`]).
    ///
    /// Any rung past 1 marks the session (and its `SessionEnd` event) as
    /// degraded, but the session always runs to completion.
    pub fn tune_traced_with(
        system: &mut dyn TunableSystem,
        tuner: &mut dyn Tuner,
        policy: &mut dyn MonitorPolicy,
        trace: &TraceBus,
        opts: &TuneOptions,
    ) -> TuningOutcome {
        let s = Self::session(system, tuner, policy, trace, opts, |system, measure| {
            let m = measure(system);
            (m.throughput, ())
        });
        TuningOutcome {
            explored: s.explored.into_iter().map(|(cfg, m, ())| (cfg, m)).collect(),
            best: s.best,
            best_throughput: s.best_kpi,
            elapsed_ns: s.elapsed_ns,
            degraded: s.degraded,
        }
    }

    /// Run a full SLO tuning session against a [`SloTunableSystem`]:
    /// "maximize goodput subject to p99 ≤ `p99_target_ns`". Same ladder as
    /// [`Controller::tune_traced_with`], but each measurement window is
    /// bracketed with `begin_slo_window` / `end_slo_window` and the tuner
    /// observes [`SloKpi::score`] instead of raw throughput — so a
    /// configuration that maximizes commit throughput while blowing the tail
    /// latency budget loses to any configuration that meets the target.
    pub fn tune_slo(
        system: &mut impl SloTunableSystem,
        tuner: &mut dyn Tuner,
        policy: &mut dyn MonitorPolicy,
        p99_target_ns: u64,
    ) -> SloTuningOutcome {
        Self::tune_slo_traced_with(
            system,
            tuner,
            policy,
            p99_target_ns,
            &TraceBus::default(),
            &TuneOptions::default(),
        )
    }

    /// [`Controller::tune_slo`] with an explicit trace bus and
    /// degradation-ladder knobs.
    pub fn tune_slo_traced_with(
        system: &mut impl SloTunableSystem,
        tuner: &mut dyn Tuner,
        policy: &mut dyn MonitorPolicy,
        p99_target_ns: u64,
        trace: &TraceBus,
        opts: &TuneOptions,
    ) -> SloTuningOutcome {
        let s = Self::session(system, tuner, policy, trace, opts, |system, measure| {
            system.begin_slo_window();
            measure(system);
            let kpi = system.end_slo_window();
            (kpi.score(p99_target_ns), kpi)
        });
        let meets_target = s
            .explored
            .iter()
            .rev()
            .find(|(cfg, _, _)| *cfg == s.best)
            .is_some_and(|(_, _, kpi)| kpi.meets(p99_target_ns));
        SloTuningOutcome {
            explored: s.explored,
            best: s.best,
            best_score: s.best_kpi,
            p99_target_ns,
            meets_target,
            elapsed_ns: s.elapsed_ns,
            degraded: s.degraded,
        }
    }

    /// The session loop behind every tuning entry point: propose → apply
    /// (with retry) → park on last good when the apply fails → quiesce →
    /// measure → observe, then apply the best point and emit `SessionEnd`.
    ///
    /// `window` runs one measurement window: it calls `measure` exactly once
    /// (bracketing it as its KPI needs) and returns the scalar the tuner
    /// observes plus a per-window extra kept in `explored`.
    fn session<S: TunableSystem + ?Sized, E>(
        system: &mut S,
        tuner: &mut dyn Tuner,
        policy: &mut dyn MonitorPolicy,
        trace: &TraceBus,
        opts: &TuneOptions,
        mut window: impl FnMut(&mut S, &mut dyn FnMut(&mut S) -> Measurement) -> (f64, E),
    ) -> Session<E> {
        tuner.attach_trace(trace.clone());
        let started = system.now_ns();
        trace.emit(TraceEvent::SessionStart { at_ns: started });
        let mut explored = Vec::new();
        let mut degraded = false;
        let mut last_good: Option<Config> = None;
        let park_on_last_good = |system: &mut S, cfg: Config, last_good: Option<Config>| {
            let fb = last_good.unwrap_or(Config::new(1, 1));
            trace.emit(TraceEvent::ApplyDegraded {
                t: cfg.t as u32,
                c: cfg.c as u32,
                fb_t: fb.t as u32,
                fb_c: fb.c as u32,
                attempts: opts.apply_attempts.max(1),
            });
            // Best effort: the fallback has applied before, so this is
            // expected to succeed; if the actuator is wedged enough that
            // even this fails, the system simply keeps its current degree.
            let _ = system.try_apply(fb);
        };
        while let Some(cfg) = tuner.propose() {
            if Self::apply_with_retry(system, cfg, opts).is_err() {
                degraded = true;
                park_on_last_good(system, cfg, last_good);
                // Teach the tuner the configuration is unusable (worst
                // possible, known-noisy observation) so the search moves on
                // instead of re-proposing it.
                tuner.observe_noisy(cfg, 0.0, None, true);
                continue;
            }
            last_good = Some(cfg);
            system.quiesce();
            let mut measured = None;
            let (kpi, extra) = window(system, &mut |system| {
                let (m, watchdog_fired) =
                    Self::measure_inner(system, policy, trace, &opts.watchdog);
                measured = Some((m, watchdog_fired));
                m
            });
            let (m, watchdog_fired) = measured.expect("a window measures once");
            degraded |= watchdog_fired;
            policy.measurement_taken(cfg, &m);
            tuner.observe_noisy(cfg, kpi, m.cv, m.timed_out);
            explored.push((cfg, m, extra));
        }
        // A tuner can finish without a single observation (empty search
        // space, a zero-budget stop condition): fall back to the sequential
        // configuration instead of panicking mid-session.
        let (best, best_kpi, fallback) = match tuner.best() {
            Some((cfg, kpi)) => (cfg, kpi, false),
            None => (Config::new(1, 1), 0.0, true),
        };
        if Self::apply_with_retry(system, best, opts).is_err() {
            degraded = true;
            park_on_last_good(system, best, last_good);
        }
        trace.emit(TraceEvent::SessionEnd {
            at_ns: system.now_ns(),
            best_t: best.t as u32,
            best_c: best.c as u32,
            throughput: best_kpi,
            explored: explored.len() as u64,
            fallback,
            degraded,
        });
        Session {
            explored,
            best,
            best_kpi,
            elapsed_ns: system.now_ns().saturating_sub(started),
            degraded,
        }
    }

    /// The §V "dynamic workloads" extension: tune, then supervise the chosen
    /// configuration with periodic measurements fed to a CUSUM change
    /// detector; when the detector fires, run a fresh tuning session.
    ///
    /// `make_tuner` builds a new optimizer per session (AutoPN keeps no
    /// cross-workload knowledge by design, §V-B). Supervision runs until
    /// `max_windows` measurements have been taken.
    pub fn tune_with_retuning(
        system: &mut dyn TunableSystem,
        make_tuner: &mut dyn FnMut() -> Box<dyn crate::optimizer::Tuner>,
        policy: &mut dyn MonitorPolicy,
        detector: &mut crate::change::CusumDetector,
        max_windows: usize,
    ) -> SupervisedOutcome {
        Self::tune_with_retuning_traced(
            system,
            make_tuner,
            policy,
            detector,
            max_windows,
            &TraceBus::default(),
        )
    }

    /// [`Controller::tune_with_retuning`], additionally emitting the per
    /// session trace plus a [`TraceEvent::ChangeDetected`] whenever the CUSUM
    /// detector triggers a re-tune.
    pub fn tune_with_retuning_traced(
        system: &mut dyn TunableSystem,
        make_tuner: &mut dyn FnMut() -> Box<dyn crate::optimizer::Tuner>,
        policy: &mut dyn MonitorPolicy,
        detector: &mut crate::change::CusumDetector,
        max_windows: usize,
        trace: &TraceBus,
    ) -> SupervisedOutcome {
        let mut sessions = Vec::new();
        let mut windows = 0usize;
        let mut changes = 0usize;
        'sessions: loop {
            let mut tuner = make_tuner();
            // A (suspected) new workload invalidates the 1/T(1,1) reference.
            policy.reset_reference();
            let outcome = Self::tune_traced(system, tuner.as_mut(), policy, trace);
            let best = outcome.best;
            sessions.push(outcome);
            detector.reset();
            while windows < max_windows {
                let m = Self::measure_traced(system, policy, trace);
                policy.measurement_taken(best, &m);
                windows += 1;
                if detector.observe(m.throughput) {
                    changes += 1;
                    trace.emit(TraceEvent::ChangeDetected { at_ns: system.now_ns() });
                    continue 'sessions;
                }
            }
            return SupervisedOutcome {
                sessions,
                supervision_windows: windows,
                changes_detected: changes,
            };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::monitor::AdaptiveMonitor;
    use crate::optimizer::{AutoPn, AutoPnConfig};
    use crate::space::SearchSpace;

    /// A deterministic fake system: commits arrive with a period that
    /// depends on the configuration (best at (6,2)).
    struct FakeSystem {
        now: u64,
        period_ns: u64,
    }

    impl FakeSystem {
        fn new() -> Self {
            Self { now: 0, period_ns: 1_000_000 }
        }
        fn period_for(cfg: Config) -> u64 {
            let penalty =
                (cfg.t as f64 - 6.0).powi(2) * 40_000.0 + (cfg.c as f64 - 2.0).powi(2) * 90_000.0;
            (200_000.0 + penalty) as u64
        }
    }

    impl TunableSystem for FakeSystem {
        fn apply(&mut self, cfg: Config) {
            self.period_ns = Self::period_for(cfg);
        }
        fn wait_commit(&mut self, max_wait_ns: u64) -> Option<u64> {
            if self.period_ns <= max_wait_ns {
                self.now += self.period_ns;
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

    #[test]
    fn measure_returns_stable_throughput() {
        let mut sys = FakeSystem::new();
        sys.apply(Config::new(6, 2));
        let mut policy = AdaptiveMonitor::default();
        let m = Controller::measure(&mut sys, &mut policy);
        let want = 1e9 / FakeSystem::period_for(Config::new(6, 2)) as f64;
        assert!((m.throughput - want).abs() / want < 0.05, "tp {} want {}", m.throughput, want);
        assert!(!m.timed_out);
    }

    #[test]
    fn full_tuning_session_finds_good_config() {
        let mut sys = FakeSystem::new();
        let mut tuner = AutoPn::new(SearchSpace::new(16), AutoPnConfig::default());
        let mut policy = AdaptiveMonitor::default();
        let outcome = Controller::tune(&mut sys, &mut tuner, &mut policy);
        assert!(!outcome.explored.is_empty());
        let best = outcome.best;
        assert!(
            (best.t as i64 - 6).abs() <= 1 && (best.c as i64 - 2).abs() <= 1,
            "best {best} too far from (6,2)"
        );
        assert!(outcome.elapsed_ns > 0);
        // The system was left running the chosen configuration.
        assert_eq!(sys.period_ns, FakeSystem::period_for(best));
    }

    #[test]
    fn tune_with_empty_tuner_falls_back_to_sequential_config() {
        /// A tuner that never proposes and never has a best — e.g. an
        /// exhausted search space. `tune` must not panic; it must park the
        /// system on (1,1).
        struct EmptyTuner;
        impl Tuner for EmptyTuner {
            fn propose(&mut self) -> Option<Config> {
                None
            }
            fn observe(&mut self, _cfg: Config, _kpi: f64) {}
            fn best(&self) -> Option<(Config, f64)> {
                None
            }
            fn explored(&self) -> usize {
                0
            }
            fn name(&self) -> String {
                "empty".into()
            }
        }
        let mut sys = FakeSystem::new();
        let mut policy = AdaptiveMonitor::default();
        let sink = std::sync::Arc::new(pnstm::TestSink::default());
        let trace = TraceBus::new();
        trace.subscribe(sink.clone());
        let outcome = Controller::tune_traced(&mut sys, &mut EmptyTuner, &mut policy, &trace);
        assert_eq!(outcome.best, Config::new(1, 1));
        assert_eq!(outcome.best_throughput, 0.0);
        assert!(outcome.explored.is_empty());
        // The fallback was actually applied to the system.
        assert_eq!(sys.period_ns, FakeSystem::period_for(Config::new(1, 1)));
        // And the trace records it as a fallback session.
        let events = sink.events();
        assert!(matches!(events.first(), Some(TraceEvent::SessionStart { .. })));
        match events.last() {
            Some(TraceEvent::SessionEnd {
                best_t: 1,
                best_c: 1,
                fallback: true,
                explored: 0,
                ..
            }) => {}
            other => panic!("unexpected final event {other:?}"),
        }
    }

    #[test]
    fn traced_session_emits_well_ordered_window_events() {
        let mut sys = FakeSystem::new();
        let mut tuner = AutoPn::new(SearchSpace::new(16), AutoPnConfig::default());
        let mut policy = AdaptiveMonitor::default();
        let sink = std::sync::Arc::new(pnstm::TestSink::default());
        let trace = TraceBus::new();
        trace.subscribe(sink.clone());
        let outcome = Controller::tune_traced(&mut sys, &mut tuner, &mut policy, &trace);
        let events = sink.events();
        assert!(matches!(events.first(), Some(TraceEvent::SessionStart { .. })));
        assert!(matches!(events.last(), Some(TraceEvent::SessionEnd { fallback: false, .. })));
        // Windows are properly bracketed and counted: one open+close pair per
        // explored configuration, never nested.
        let mut open = false;
        let mut closes = 0usize;
        let mut proposals = 0usize;
        for ev in events.iter() {
            match ev {
                TraceEvent::WindowOpen { .. } => {
                    assert!(!open, "nested WindowOpen");
                    open = true;
                }
                TraceEvent::WindowClose { commits, throughput, timed_out, .. } => {
                    assert!(open, "WindowClose without WindowOpen");
                    open = false;
                    closes += 1;
                    // Slow configurations may be cut by the adaptive timeout
                    // before a commit lands; otherwise the window saw work.
                    assert!(*timed_out || (*commits > 0 && *throughput > 0.0));
                }
                TraceEvent::WindowSample { .. } => {
                    assert!(open, "WindowSample outside a window");
                }
                TraceEvent::Proposal { t, c, .. } => {
                    proposals += 1;
                    assert!(
                        (*t as u64) * (*c as u64) <= 16,
                        "proposal ({t},{c}) exceeds core budget"
                    );
                }
                _ => {}
            }
        }
        assert!(!open, "unclosed window at session end");
        assert_eq!(closes, outcome.explored.len());
        assert_eq!(proposals, outcome.explored.len());
    }

    #[test]
    fn watchdog_wall_deadline_cuts_frozen_clock_window() {
        /// A system whose clock never advances: defeats every system-clock
        /// timeout (the adaptive 1/T(1,1) timeout *and* the 120 s hard cap),
        /// so only the wall-clock watchdog can terminate the window.
        struct FrozenSystem;
        impl TunableSystem for FrozenSystem {
            fn apply(&mut self, _cfg: Config) {}
            fn wait_commit(&mut self, _max_wait_ns: u64) -> Option<u64> {
                std::thread::sleep(Duration::from_millis(1));
                None
            }
            fn now_ns(&self) -> u64 {
                0
            }
        }
        let mut policy = AdaptiveMonitor::default();
        policy.set_reference_throughput(100.0); // timeout armed but unreachable
        let sink = std::sync::Arc::new(pnstm::TestSink::default());
        let trace = TraceBus::new();
        trace.subscribe(sink.clone());
        let wd = Watchdog { wall: Duration::from_millis(50), system_ns: u64::MAX };
        let m = Controller::measure_watched(&mut FrozenSystem, &mut policy, &trace, &wd);
        assert!(m.timed_out && m.starved, "watchdog measurement must be flagged: {m:?}");
        let events = sink.events();
        assert!(events.iter().any(|e| matches!(e, TraceEvent::WatchdogFired { .. })));
        assert!(
            matches!(events.last(), Some(TraceEvent::WindowClose { .. })),
            "watchdog still closes the window bracket"
        );
    }

    #[test]
    fn watchdog_system_deadline_cuts_silent_window() {
        struct SilentSystem {
            now: u64,
        }
        impl TunableSystem for SilentSystem {
            fn apply(&mut self, _cfg: Config) {}
            fn wait_commit(&mut self, max_wait_ns: u64) -> Option<u64> {
                self.now += max_wait_ns;
                None
            }
            fn now_ns(&self) -> u64 {
                self.now
            }
        }
        // No reference throughput: the adaptive timeout is unarmed, and the
        // policy would idle all the way to the 120 s hard cap. The watchdog's
        // (much tighter) system-clock deadline cuts in first.
        let mut policy = AdaptiveMonitor::default();
        let mut sys = SilentSystem { now: 0 };
        let wd = Watchdog { wall: Duration::from_secs(60), system_ns: 5_000_000 };
        let m = Controller::measure_watched(&mut sys, &mut policy, &TraceBus::default(), &wd);
        assert!(m.timed_out && m.starved);
        assert!(sys.now < 100_000_000, "window ended near the 5ms deadline, not the 120s cap");
    }

    /// Proposes a fixed script of configurations; best = highest KPI seen.
    struct ListTuner {
        queue: std::collections::VecDeque<Config>,
        seen: Vec<(Config, f64)>,
    }
    impl ListTuner {
        fn new(script: &[(usize, usize)]) -> Self {
            Self {
                queue: script.iter().map(|&(t, c)| Config::new(t, c)).collect(),
                seen: Vec::new(),
            }
        }
    }
    impl Tuner for ListTuner {
        fn propose(&mut self) -> Option<Config> {
            self.queue.pop_front()
        }
        fn observe(&mut self, cfg: Config, kpi: f64) {
            self.seen.push((cfg, kpi));
        }
        fn best(&self) -> Option<(Config, f64)> {
            self.seen.iter().copied().reduce(|a, b| if b.1 > a.1 { b } else { a })
        }
        fn explored(&self) -> usize {
            self.seen.len()
        }
        fn name(&self) -> String {
            "list".into()
        }
    }

    #[test]
    fn failed_applies_degrade_and_fall_back_to_last_good() {
        /// Vetoes every configuration with `t >= 4`; the rest applies.
        struct VetoSystem {
            inner: FakeSystem,
            vetoes: u32,
        }
        impl TunableSystem for VetoSystem {
            fn apply(&mut self, cfg: Config) {
                self.inner.apply(cfg);
            }
            fn try_apply(&mut self, cfg: Config) -> Result<(), ApplyError> {
                if cfg.t >= 4 {
                    self.vetoes += 1;
                    return Err(ApplyError::new("actuator vetoed"));
                }
                self.inner.apply(cfg);
                Ok(())
            }
            fn wait_commit(&mut self, max_wait_ns: u64) -> Option<u64> {
                self.inner.wait_commit(max_wait_ns)
            }
            fn now_ns(&self) -> u64 {
                self.inner.now_ns()
            }
        }
        let mut sys = VetoSystem { inner: FakeSystem::new(), vetoes: 0 };
        let mut tuner = ListTuner::new(&[(4, 2), (2, 2)]);
        let mut policy = AdaptiveMonitor::default();
        let sink = std::sync::Arc::new(pnstm::TestSink::default());
        let trace = TraceBus::new();
        trace.subscribe(sink.clone());
        let opts = TuneOptions {
            apply_attempts: 3,
            apply_backoff: Duration::ZERO,
            ..TuneOptions::default()
        };
        let outcome =
            Controller::tune_traced_with(&mut sys, &mut tuner, &mut policy, &trace, &opts);
        assert!(outcome.degraded, "a vetoed configuration degrades the session");
        assert_eq!(outcome.explored.len(), 1, "the vetoed config is never measured");
        assert_eq!(outcome.best, Config::new(2, 2), "best comes from what did run");
        assert_eq!(sys.vetoes, 3, "the veto was retried apply_attempts times");
        // (4,2) was fed back to the tuner as unusable so the search moved on.
        assert!(tuner.seen.contains(&(Config::new(4, 2), 0.0)));
        // The system ended up on the measured best, not the vetoed config.
        assert_eq!(sys.inner.period_ns, FakeSystem::period_for(Config::new(2, 2)));
        let events = sink.events();
        let degraded_applies: Vec<_> = events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::ApplyDegraded { t, c, fb_t, fb_c, attempts } => {
                    Some((*t, *c, *fb_t, *fb_c, *attempts))
                }
                _ => None,
            })
            .collect();
        // One fallback: (4,2) failed with nothing known-good yet → (1,1).
        assert_eq!(degraded_applies, vec![(4, 2, 1, 1, 3)]);
        match events.last() {
            Some(TraceEvent::SessionEnd { degraded: true, fallback: false, .. }) => {}
            other => panic!("expected degraded SessionEnd, got {other:?}"),
        }
    }

    /// Scriptable fake for the degradation-ladder transition table: the
    /// `(t, c)` bowl of [`FakeSystem`], a veto rule over `(apply number,
    /// config)` (every `try_apply` call counts, retries included), one
    /// optional configuration whose clock freezes while it is in force (only
    /// the wall watchdog can cut its window), and commit counting for an SLO
    /// window.
    struct LadderSystem {
        inner: FakeSystem,
        veto: fn(usize, Config) -> bool,
        frozen: Option<Config>,
        applies: usize,
        parked: Config,
        commits: u64,
        slo_start: (u64, u64),
    }

    impl TunableSystem for LadderSystem {
        fn apply(&mut self, cfg: Config) {
            self.inner.apply(cfg);
            self.parked = cfg;
        }
        fn try_apply(&mut self, cfg: Config) -> Result<(), ApplyError> {
            self.applies += 1;
            if (self.veto)(self.applies, cfg) {
                return Err(ApplyError::new("vetoed"));
            }
            self.apply(cfg);
            Ok(())
        }
        fn wait_commit(&mut self, max_wait_ns: u64) -> Option<u64> {
            if Some(self.parked) == self.frozen {
                std::thread::sleep(Duration::from_millis(1));
                return None;
            }
            let ts = self.inner.wait_commit(max_wait_ns);
            self.commits += ts.is_some() as u64;
            ts
        }
        fn now_ns(&self) -> u64 {
            self.inner.now_ns()
        }
    }

    impl SloTunableSystem for LadderSystem {
        fn begin_slo_window(&mut self) {
            self.slo_start = (self.commits, self.now_ns());
        }
        fn end_slo_window(&mut self) -> SloKpi {
            let completed = self.commits - self.slo_start.0;
            let window_ns = (self.now_ns() - self.slo_start.1).max(1);
            SloKpi {
                goodput: completed as f64 * 1e9 / window_ns as f64,
                offered: completed,
                completed,
                rejected: 0,
                p50_ns: 1_000,
                p99_ns: 2_000,
                p999_ns: 4_000,
                window_ns,
            }
        }
    }

    /// One row of the transition table: a scripted session and where the
    /// ladder must leave it.
    struct Row {
        name: &'static str,
        script: &'static [(usize, usize)],
        veto: fn(usize, Config) -> bool,
        frozen: Option<(usize, usize)>,
        explored: usize,
        degraded: bool,
        fallback: bool,
        /// `ApplyDegraded` events as `(t, c, fb_t, fb_c)`.
        apply_degraded: &'static [(u32, u32, u32, u32)],
        watchdog_fired: usize,
        parked: (usize, usize),
    }

    /// The session loop's degradation ladder, row by row, under both KPIs:
    /// the merged loop must take the same transitions whichever caller it
    /// serves.
    #[test]
    fn session_ladder_transition_table() {
        let rows = [
            Row {
                name: "every apply succeeds",
                script: &[(2, 2), (6, 2)],
                veto: |_, _| false,
                frozen: None,
                explored: 2,
                degraded: false,
                fallback: false,
                apply_degraded: &[],
                watchdog_fired: 0,
                parked: (6, 2),
            },
            Row {
                name: "one config vetoed parks on last good",
                script: &[(2, 2), (4, 2)],
                veto: |_, cfg| cfg == Config::new(4, 2),
                frozen: None,
                explored: 1,
                degraded: true,
                fallback: false,
                apply_degraded: &[(4, 2, 2, 2)],
                watchdog_fired: 0,
                parked: (2, 2),
            },
            Row {
                name: "every apply vetoed parks on (1,1)",
                script: &[(2, 2), (4, 2)],
                veto: |_, cfg| cfg != Config::new(1, 1),
                frozen: None,
                explored: 0,
                degraded: true,
                fallback: false,
                // The vetoed configs were observed as unusable (KPI 0), so the
                // tuner's best is the first of them — and its final apply is
                // vetoed too.
                apply_degraded: &[(2, 2, 1, 1), (4, 2, 1, 1), (2, 2, 1, 1)],
                watchdog_fired: 0,
                parked: (1, 1),
            },
            Row {
                name: "watchdog cuts a frozen window",
                script: &[(2, 2), (4, 2)],
                veto: |_, _| false,
                frozen: Some((4, 2)),
                explored: 2,
                degraded: true,
                fallback: false,
                apply_degraded: &[],
                watchdog_fired: 1,
                parked: (2, 2),
            },
            Row {
                name: "tuner proposes nothing",
                script: &[],
                veto: |_, _| false,
                frozen: None,
                explored: 0,
                degraded: false,
                fallback: true,
                apply_degraded: &[],
                watchdog_fired: 0,
                parked: (1, 1),
            },
            Row {
                name: "final apply of best vetoed",
                script: &[(6, 2), (2, 2)],
                // Applies 1 and 2 are the proposals; from 3 on (the final
                // apply of (6,2) and its retry) the winner is refused.
                veto: |n, cfg| n >= 3 && cfg == Config::new(6, 2),
                frozen: None,
                explored: 2,
                degraded: true,
                fallback: false,
                apply_degraded: &[(6, 2, 2, 2)],
                watchdog_fired: 0,
                parked: (2, 2),
            },
        ];
        let opts = TuneOptions {
            watchdog: Watchdog { wall: Duration::from_millis(30), ..Watchdog::default() },
            apply_attempts: 2,
            apply_backoff: Duration::ZERO,
        };
        for row in &rows {
            for slo in [false, true] {
                let mut sys = LadderSystem {
                    inner: FakeSystem::new(),
                    veto: row.veto,
                    frozen: row.frozen.map(Config::from),
                    applies: 0,
                    parked: Config::new(3, 3),
                    commits: 0,
                    slo_start: (0, 0),
                };
                let mut tuner = ListTuner::new(row.script);
                let mut policy = AdaptiveMonitor::default();
                let sink = std::sync::Arc::new(pnstm::TestSink::default());
                let trace = TraceBus::new();
                trace.subscribe(sink.clone());
                let (explored, degraded) = if slo {
                    let o = Controller::tune_slo_traced_with(
                        &mut sys,
                        &mut tuner,
                        &mut policy,
                        1_000_000,
                        &trace,
                        &opts,
                    );
                    (o.explored.len(), o.degraded)
                } else {
                    let o = Controller::tune_traced_with(
                        &mut sys,
                        &mut tuner,
                        &mut policy,
                        &trace,
                        &opts,
                    );
                    (o.explored.len(), o.degraded)
                };
                let ctx = format!("{} ({})", row.name, if slo { "slo" } else { "throughput" });
                assert_eq!(explored, row.explored, "{ctx}: explored");
                assert_eq!(degraded, row.degraded, "{ctx}: degraded");
                assert_eq!(sys.parked, Config::from(row.parked), "{ctx}: parked");
                let events = sink.events();
                let apply_degraded: Vec<_> = events
                    .iter()
                    .filter_map(|e| match e {
                        TraceEvent::ApplyDegraded { t, c, fb_t, fb_c, attempts } => {
                            assert_eq!(*attempts, 2, "{ctx}: attempts");
                            Some((*t, *c, *fb_t, *fb_c))
                        }
                        _ => None,
                    })
                    .collect();
                assert_eq!(apply_degraded, row.apply_degraded, "{ctx}: ApplyDegraded");
                let fired =
                    events.iter().filter(|e| matches!(e, TraceEvent::WatchdogFired { .. })).count();
                assert_eq!(fired, row.watchdog_fired, "{ctx}: WatchdogFired");
                match events.last() {
                    Some(TraceEvent::SessionEnd { explored: n, fallback, degraded, .. }) => {
                        assert_eq!(*n as usize, row.explored, "{ctx}: SessionEnd.explored");
                        assert_eq!(*fallback, row.fallback, "{ctx}: SessionEnd.fallback");
                        assert_eq!(*degraded, row.degraded, "{ctx}: SessionEnd.degraded");
                    }
                    other => panic!("{ctx}: expected SessionEnd last, got {other:?}"),
                }
            }
        }
    }

    /// Deterministic SLO surface: throughput grows with `t` (period shrinks)
    /// but the tail latency grows quadratically in `t` — the classic
    /// saturation shape where the throughput-maximizing degree queues
    /// requests into a p99 no client would accept.
    struct FakeSloSystem {
        now: u64,
        cfg: Config,
    }

    impl FakeSloSystem {
        fn new() -> Self {
            Self { now: 0, cfg: Config::new(1, 1) }
        }
        fn period_for(cfg: Config) -> u64 {
            1_000_000 / cfg.t as u64
        }
        fn p99_for(cfg: Config) -> u64 {
            50_000 * (cfg.t * cfg.t) as u64
        }
    }

    impl TunableSystem for FakeSloSystem {
        fn apply(&mut self, cfg: Config) {
            self.cfg = cfg;
        }
        fn wait_commit(&mut self, max_wait_ns: u64) -> Option<u64> {
            let period = Self::period_for(self.cfg);
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

    impl SloTunableSystem for FakeSloSystem {
        fn begin_slo_window(&mut self) {}
        fn end_slo_window(&mut self) -> SloKpi {
            let goodput = 1e9 / Self::period_for(self.cfg) as f64;
            let p99 = Self::p99_for(self.cfg);
            SloKpi {
                goodput,
                offered: goodput as u64,
                completed: goodput as u64,
                rejected: 0,
                p50_ns: p99 / 4,
                p99_ns: p99,
                p999_ns: p99 * 2,
                window_ns: 1_000_000_000,
            }
        }
    }

    /// The SLO e2e: on the same workload surface, throughput-only tuning
    /// converges to a degree whose p99 violates the target, while SLO tuning
    /// converges to the highest-goodput degree that meets it.
    #[test]
    fn slo_tuning_meets_p99_target_the_throughput_kpi_violates() {
        const TARGET_NS: u64 = 1_000_000; // 1 ms p99 budget
        let ladder = [(1, 1), (2, 2), (4, 2), (8, 2)];

        // Throughput-only tuning is latency-blind: it picks t=8.
        let mut sys = FakeSloSystem::new();
        let mut policy = AdaptiveMonitor::default();
        let tp = Controller::tune(&mut sys, &mut ListTuner::new(&ladder), &mut policy);
        assert_eq!(tp.best, Config::new(8, 2), "throughput KPI maximizes raw commit rate");
        assert!(
            FakeSloSystem::p99_for(tp.best) > TARGET_NS,
            "the throughput-chosen degree must violate the p99 target for this test to bite"
        );

        // SLO tuning over the same ladder: t=8 is infeasible (p99 3.2 ms),
        // so the highest-goodput *feasible* degree t=4 (p99 0.8 ms) wins.
        let mut sys = FakeSloSystem::new();
        let mut policy = AdaptiveMonitor::default();
        let outcome =
            Controller::tune_slo(&mut sys, &mut ListTuner::new(&ladder), &mut policy, TARGET_NS);
        assert_eq!(outcome.best, Config::new(4, 2), "SLO tuning picks the feasible optimum");
        assert!(outcome.meets_target);
        assert_eq!(outcome.p99_target_ns, TARGET_NS);
        assert!(!outcome.degraded);
        assert_eq!(outcome.explored.len(), ladder.len());
        let (_, _, best_kpi) =
            outcome.explored.iter().find(|(c, _, _)| *c == outcome.best).unwrap();
        assert!(best_kpi.meets(TARGET_NS));
        assert_eq!(best_kpi.p99_ns, FakeSloSystem::p99_for(outcome.best));
        // The feasible winner's score is its goodput; the faster-but-late
        // t=8 config scored below it despite double the raw throughput.
        assert!((outcome.best_score - best_kpi.goodput).abs() < 1e-9);
        let (_, _, fast_kpi) =
            outcome.explored.iter().find(|(c, _, _)| *c == Config::new(8, 2)).unwrap();
        assert!(fast_kpi.goodput > best_kpi.goodput);
        assert!(fast_kpi.score(TARGET_NS) < best_kpi.score(TARGET_NS));
        // The session left the system parked on the SLO-feasible winner.
        assert_eq!(sys.cfg, outcome.best);
    }

    #[test]
    fn healthy_session_is_not_degraded() {
        let mut sys = FakeSystem::new();
        let mut tuner = ListTuner::new(&[(2, 2), (6, 2)]);
        let mut policy = AdaptiveMonitor::default();
        let outcome = Controller::tune(&mut sys, &mut tuner, &mut policy);
        assert!(!outcome.degraded);
    }

    #[test]
    fn timeout_path_produces_timed_out_measurement() {
        struct SilentSystem {
            now: u64,
        }
        impl TunableSystem for SilentSystem {
            fn apply(&mut self, _cfg: Config) {}
            fn wait_commit(&mut self, max_wait_ns: u64) -> Option<u64> {
                self.now += max_wait_ns;
                None
            }
            fn now_ns(&self) -> u64 {
                self.now
            }
        }
        let mut sys = SilentSystem { now: 0 };
        let mut policy = AdaptiveMonitor::default();
        policy.set_reference_throughput(100.0); // 10ms timeout
        let m = Controller::measure(&mut sys, &mut policy);
        assert!(m.timed_out);
        assert_eq!(m.commits, 0);
    }
}
