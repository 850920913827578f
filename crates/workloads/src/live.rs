//! Live execution: run an [`StmWorkload`] on a real [`pnstm::Stm`] with a
//! pool of application threads, and expose it as an
//! [`autopn::TunableSystem`] so the controller can tune it end to end.

use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use autopn::{ApplyError, AxisRegistry, Config, PnstmActuator, TunableSystem};
use pnstm::trace::{self, TraceEvent};
use pnstm::{FaultKind, Stm, StmError};

/// Default number of worker panics the system absorbs (restarting the
/// worker's loop) before the panicking worker is retired for good.
pub const DEFAULT_RESTART_BUDGET: u64 = 128;

/// A transactional workload runnable on a live STM.
///
/// `run_txn` executes *one* top-level transaction (it may spawn parallel
/// nested children inside); the runner's application threads call it in a
/// loop, with the STM's throttle enforcing the `(t, c)` configuration.
pub trait StmWorkload: Send + Sync + 'static {
    /// Display name.
    fn name(&self) -> &str;

    /// Execute one top-level transaction. `worker` identifies the calling
    /// application thread, `round` its loop iteration (usable for input
    /// derivation).
    fn run_txn(&self, stm: &Stm, worker: usize, round: u64) -> Result<(), StmError>;
}

/// A live PN-STM system under tuning: `threads` application threads loop the
/// workload while the throttle enforces the current configuration; commit
/// events flow through [`pnstm::Stats`]'s hook into the monitor.
pub struct LiveStmSystem {
    /// Applies configurations (axes, degree, scheduler) to the tuned STM.
    actuator: PnstmActuator,
    epoch: Instant,
    commits: Receiver<u64>,
    stop: Arc<AtomicBool>,
    handles: Vec<thread::JoinHandle<()>>,
    /// Worker panics absorbed so far (supervision counter, shared by all
    /// workers; the restart budget is charged against it).
    panics: Arc<AtomicU64>,
}

impl LiveStmSystem {
    /// Start `threads` application threads running `workload` on `stm`, with
    /// the default panic-restart budget.
    ///
    /// Thread-spawn failure is propagated (after stopping any threads that
    /// did start) instead of aborting the process.
    pub fn start(
        stm: Stm,
        workload: Arc<dyn StmWorkload>,
        threads: usize,
    ) -> std::io::Result<Self> {
        Self::start_with_restart_budget(stm, workload, threads, DEFAULT_RESTART_BUDGET)
    }

    /// [`LiveStmSystem::start`] with an explicit restart budget: a worker
    /// whose transaction body panics is restarted (its loop resumes) until
    /// the *system-wide* panic count reaches `restart_budget`; after that the
    /// panicking worker retires. Every absorbed panic is published as
    /// [`TraceEvent::WorkerPanicked`] on the STM's trace bus.
    pub fn start_with_restart_budget(
        stm: Stm,
        workload: Arc<dyn StmWorkload>,
        threads: usize,
        restart_budget: u64,
    ) -> std::io::Result<Self> {
        let epoch = Instant::now();
        let (tx, rx): (Sender<u64>, Receiver<u64>) = unbounded();
        {
            // Fault site: ClockJitter perturbs the commit timestamps the
            // monitor sees (pathological measurement streams).
            let fault = stm.fault_ctx().clone();
            stm.stats().set_commit_hook(Some(Arc::new(move |ev: pnstm::CommitEvent| {
                let mut ns = ev.at.duration_since(epoch).as_nanos() as u64;
                if let Some(action) = fault.inject(FaultKind::ClockJitter) {
                    ns = ns.saturating_add_signed(action.signed_jitter_ns());
                }
                let _ = tx.send(ns);
            })));
        }
        let stop = Arc::new(AtomicBool::new(false));
        let panics = Arc::new(AtomicU64::new(0));
        let mut sys = Self {
            actuator: PnstmActuator::new(stm.clone()),
            epoch,
            commits: rx,
            stop,
            handles: Vec::new(),
            panics,
        };
        for worker in 0..threads.max(1) {
            let stm = stm.clone();
            let workload = Arc::clone(&workload);
            let stop = Arc::clone(&sys.stop);
            let panics = Arc::clone(&sys.panics);
            let spawned = thread::Builder::new()
                .name(format!("live-{}-{}", workload.name(), worker))
                .spawn(move || worker_loop(stm, workload, worker, stop, panics, restart_budget));
            match spawned {
                Ok(handle) => sys.handles.push(handle),
                Err(err) => {
                    // Degrade instead of aborting: stop whatever started and
                    // hand the error to the caller.
                    sys.shutdown();
                    return Err(err);
                }
            }
        }
        Ok(sys)
    }

    /// The tuned STM instance.
    pub fn stm(&self) -> &Stm {
        self.actuator.stm()
    }

    /// The STM's trace bus. Subscribe a sink here (and pass a clone to
    /// [`autopn::Controller::tune_traced`]) to interleave runtime events
    /// (tx commits/aborts, reconfigurations, semaphore waits) with the
    /// controller's session/window events in one stream.
    pub fn trace_bus(&self) -> &pnstm::TraceBus {
        self.stm().trace_bus()
    }

    /// Worker panics absorbed (and survived) so far.
    pub fn worker_panics(&self) -> u64 {
        self.panics.load(Ordering::Acquire)
    }

    /// Attach a live axis registry (e.g. [`autopn::stm_axis_registry`]); see
    /// [`PnstmActuator::attach_axes`].
    pub fn attach_axes(&mut self, registry: AxisRegistry) {
        self.actuator.attach_axes(registry);
    }

    /// Stop the application threads and detach the commit hook.
    ///
    /// Closing STM admission before joining is what makes this hang-free: a
    /// worker parked on the top-level admission semaphore never re-checks the
    /// stop flag, so the stop flag alone cannot shut the system down when
    /// admission is starved (e.g. under an admission-stall fault plan or a
    /// `t` far below the worker count). The closed gate wakes every parked
    /// worker with [`StmError::Shutdown`] and is reopened once they have
    /// exited, leaving the STM usable afterwards.
    pub fn shutdown(&mut self) {
        let stm = self.actuator.stm();
        self.stop.store(true, Ordering::Release);
        stm.close_admission();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
        stm.reopen_admission();
        stm.stats().set_commit_hook(None);
    }
}

/// One application worker: loop the workload until stopped, absorbing body
/// panics (supervised restart) until the shared restart budget is spent.
fn worker_loop(
    stm: Stm,
    workload: Arc<dyn StmWorkload>,
    worker: usize,
    stop: Arc<AtomicBool>,
    panics: Arc<AtomicU64>,
    restart_budget: u64,
) {
    let fault = stm.fault_ctx().clone();
    let mut round = 0u64;
    while !stop.load(Ordering::Acquire) {
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            // Fault site: a crashing workload closure.
            if fault.inject(FaultKind::WorkerPanic).is_some() {
                panic!("injected worker panic");
            }
            workload.run_txn(&stm, worker, round)
        }));
        round += 1;
        match outcome {
            // Admission closed: the STM is shutting down.
            Ok(Err(StmError::Shutdown)) => return,
            Ok(_) => {}
            Err(_) => {
                let absorbed = panics.fetch_add(1, Ordering::AcqRel) + 1;
                stm.trace_bus().emit(TraceEvent::WorkerPanicked {
                    worker: worker as u32,
                    restarts: absorbed,
                    at_ns: trace::now_ns(),
                });
                if absorbed >= restart_budget {
                    // Budget spent: retire this worker instead of looping a
                    // persistent crash forever. The system runs degraded.
                    return;
                }
            }
        }
    }
}

impl Drop for LiveStmSystem {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl TunableSystem for LiveStmSystem {
    fn apply(&mut self, cfg: Config) {
        self.actuator.apply(cfg);
        // Old commit events belong to the previous configuration; flush them
        // so the next window measures only the new one.
        while self.commits.try_recv().is_ok() {}
    }

    fn try_apply(&mut self, cfg: Config) -> Result<(), ApplyError> {
        self.actuator.try_apply(cfg)?;
        while self.commits.try_recv().is_ok() {}
        Ok(())
    }

    fn wait_commit(&mut self, max_wait_ns: u64) -> Option<u64> {
        match self.commits.recv_timeout(Duration::from_nanos(max_wait_ns)) {
            Ok(ts) => Some(ts),
            Err(RecvTimeoutError::Timeout) => None,
            Err(RecvTimeoutError::Disconnected) => None,
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn quiesce(&mut self) {
        self.actuator.quiesce();
        while self.commits.try_recv().is_ok() {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pnstm::{child, ParallelismDegree, StmConfig, TxResult, VBox};

    /// Minimal workload: increment a shared counter via two nested children.
    struct CounterWorkload {
        cells: Vec<VBox<i64>>,
    }

    impl CounterWorkload {
        fn new(stm: &Stm) -> Self {
            Self { cells: (0..16).map(|_| stm.new_vbox(0i64)).collect() }
        }
    }

    impl StmWorkload for CounterWorkload {
        fn name(&self) -> &str {
            "counter"
        }
        fn run_txn(&self, stm: &Stm, worker: usize, round: u64) -> Result<(), StmError> {
            let a = self.cells[(worker * 7 + round as usize) % self.cells.len()].clone();
            let b = self.cells[(worker * 3 + round as usize + 5) % self.cells.len()].clone();
            stm.atomic(move |tx| {
                let (a, b) = (a.clone(), b.clone());
                let tasks: Vec<pnstm::ChildTask<()>> = vec![
                    child(move |ct| -> TxResult<()> {
                        let v = ct.read(&a);
                        ct.write(&a, v + 1);
                        Ok(())
                    }),
                    child(move |ct| -> TxResult<()> {
                        let v = ct.read(&b);
                        ct.write(&b, v + 1);
                        Ok(())
                    }),
                ];
                tx.parallel::<()>(tasks)?;
                Ok(())
            })
            .map(|_| ())
        }
    }

    #[test]
    fn live_system_produces_commit_events() {
        let stm = Stm::new(StmConfig {
            degree: ParallelismDegree::new(2, 2),
            worker_threads: 2,
            ..StmConfig::default()
        });
        let workload = Arc::new(CounterWorkload::new(&stm));
        let mut sys = LiveStmSystem::start(stm, workload, 2).unwrap();
        let mut got = 0;
        for _ in 0..200 {
            if sys.wait_commit(50_000_000).is_some() {
                got += 1;
            }
            if got >= 5 {
                break;
            }
        }
        assert!(got >= 5, "expected live commits, saw {got}");
        sys.shutdown();
    }

    #[test]
    fn apply_reconfigures_live_stm() {
        let stm = Stm::new(StmConfig::default());
        let workload = Arc::new(CounterWorkload::new(&stm));
        let mut sys = LiveStmSystem::start(stm.clone(), workload, 1).unwrap();
        sys.apply(Config::new(3, 2));
        assert_eq!(stm.degree(), ParallelismDegree::new(3, 2));
        sys.shutdown();
    }

    #[test]
    fn try_apply_enacts_axes_and_stamps_trace() {
        use autopn::{stm_axis_registry, AxisLevels};
        let stm = Stm::new(StmConfig::default());
        let sink = Arc::new(pnstm::TestSink::new());
        stm.trace_bus().subscribe(sink.clone());
        let workload = Arc::new(CounterWorkload::new(&stm));
        let mut sys = LiveStmSystem::start(stm.clone(), workload, 1).unwrap();
        let registry = stm_axis_registry(&stm);
        let space = registry.space(4);
        sys.attach_axes(registry);

        let karma = pnstm::CmMode::Karma.index();
        let gc512 = space.axes()[1].level_of_value(512).unwrap();
        let cfg = Config::with_axes(2, 2, AxisLevels::from_slice(&[karma, gc512]));
        sys.try_apply(cfg).unwrap();
        assert_eq!(stm.cm_mode(), pnstm::CmMode::Karma);
        assert_eq!(stm.gc_slice_boxes(), 512);
        assert_eq!(stm.degree(), ParallelismDegree::new(2, 2));

        // The Reconfigure event carries the full point.
        let axes = sink
            .events()
            .iter()
            .find_map(|ev| match ev {
                pnstm::TraceEvent::Reconfigure { to: (2, 2), axes, .. } => Some(*axes),
                _ => None,
            })
            .expect("reconfigure event");
        assert_eq!(axes.get("cm").unwrap().label, "karma");
        assert_eq!(axes.get("gc_boxes").unwrap().value, 512);

        // A bare (t, c) fallback point restores the default axis levels.
        sys.try_apply(Config::new(1, 1)).unwrap();
        assert_eq!(stm.cm_mode(), pnstm::CmMode::default());
        assert_eq!(stm.gc_slice_boxes(), pnstm::MemConfig::default().gc_slice_boxes);
        sys.shutdown();
    }

    #[test]
    fn timestamps_are_monotone() {
        let stm = Stm::new(StmConfig::default());
        let workload = Arc::new(CounterWorkload::new(&stm));
        let mut sys = LiveStmSystem::start(stm, workload, 2).unwrap();
        let mut last = 0;
        let mut seen = 0;
        for _ in 0..100 {
            if let Some(ts) = sys.wait_commit(50_000_000) {
                assert!(ts >= last, "commit timestamps must not go backwards");
                last = ts;
                seen += 1;
            }
            if seen >= 10 {
                break;
            }
        }
        assert!(seen >= 10);
        sys.shutdown();
    }
}
