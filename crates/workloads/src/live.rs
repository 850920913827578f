//! Live execution: run an [`StmWorkload`] on a real [`pnstm::Stm`] with a
//! pool of application threads, and expose it as an
//! [`autopn::TunableSystem`] so the controller can tune it end to end.
//!
//! What every live tunable system needs is written here once, in
//! [`LiveRuntime`]: the monitor's bounded [`CommitStream`], the worker
//! threads under one [`Supervisor`], the one shutdown order, and the one
//! `TunableSystem` body over a [`PnstmActuator`]. [`LiveStmSystem`] (closed-
//! loop clients), `ingress::Ingress` (an open-loop queue) and
//! [`crate::LedgerLiveSystem`] (a block stream) are three sources on top.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use autopn::{ApplyError, Config, PnstmActuator, TunableSystem};
use parking_lot::Mutex;
use pnstm::park::ParkGate;
use pnstm::trace::{self, TraceEvent};
use pnstm::{FaultKind, Stm, StmError};

/// Worker panics a live system absorbs (restarting the worker's loop) before
/// the panicking worker retires for good.
pub const RESTART_BUDGET: u64 = 128;

/// Commit stamps a [`CommitStream`] keeps for the monitor: far beyond the
/// largest window a monitor policy reads commit by commit (WPNOC-30; the
/// adaptive policy slides over 15), so only the controller's own scheduling
/// lag has to fit, and 0.5 MiB at most.
pub const COMMIT_RING_CAP: usize = 1 << 16;

/// The monitor's per-commit timestamp stream (nanoseconds since its epoch):
/// a drop-oldest ring. The tuner drains it only while a window is open, so
/// an unbounded channel here grew by one `u64` per commit for as long as no
/// tuner was attached. The reader parks on a [`ParkGate`] whose re-check
/// takes the stamps' mutex, so a push wakes it only when it is counted in.
pub struct CommitStream {
    epoch: Instant,
    stamps: Mutex<VecDeque<u64>>,
    gate: ParkGate,
    dropped: AtomicU64,
}

impl CommitStream {
    /// The stream's clock: nanoseconds since its epoch.
    pub(crate) fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Append `ts`, overwriting (and counting) the oldest stamp when full.
    pub(crate) fn push(&self, ts: u64) {
        let mut stamps = self.stamps.lock();
        if stamps.len() == COMMIT_RING_CAP {
            stamps.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        stamps.push_back(ts);
        drop(stamps);
        self.gate.wake_one();
    }

    /// The oldest stamp, waiting up to `timeout` for one.
    pub(crate) fn pop_timeout(&self, timeout: Duration) -> Option<u64> {
        let deadline = Instant::now() + timeout;
        loop {
            if let Some(ts) = self.stamps.lock().pop_front() {
                return Some(ts);
            }
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return None;
            }
            self.gate.park_unless(|| self.held() > 0, left);
        }
    }

    pub(crate) fn clear(&self) {
        self.stamps.lock().clear();
    }

    /// Stamps currently held (at most [`COMMIT_RING_CAP`]).
    pub fn held(&self) -> usize {
        self.stamps.lock().len()
    }

    /// Stamps overwritten before a reader took them (grows whenever no tuner
    /// is attached).
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }
}

/// What one [`Supervisor::call`] tells the worker loop around it.
#[derive(Debug)]
pub enum Supervised<T> {
    /// The body returned anything but [`StmError::Shutdown`].
    Returned(Result<T, StmError>),
    /// The body panicked; the panic was absorbed and traced.
    Absorbed,
    /// Stop this worker: admission is closed, or the restart budget is spent.
    Exit,
}

/// A worker thread's handle on the supervision of its [`LiveRuntime`]: the
/// stop flag, and the supervised call every worker body goes through.
#[derive(Clone)]
pub struct Supervisor {
    stm: Stm,
    stop: Arc<AtomicBool>,
    /// Panics absorbed so far, shared by all workers: the budget is charged
    /// against it.
    panics: Arc<AtomicU64>,
    budget: u64,
}

impl Supervisor {
    pub fn stopped(&self) -> bool {
        self.stop.load(Ordering::Acquire)
    }

    /// Run `body` for `worker`, absorbing a panic: each one is published as
    /// a `worker_panicked` trace event, and the one that spends the
    /// system-wide restart budget retires the worker instead of looping a
    /// persistent crash forever (the system runs degraded).
    pub fn call<T>(
        &self,
        worker: usize,
        body: impl FnOnce() -> Result<T, StmError>,
    ) -> Supervised<T> {
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            // Fault site: a crashing worker body.
            if self.stm.fault_ctx().inject(FaultKind::WorkerPanic).is_some() {
                panic!("injected worker panic");
            }
            body()
        }));
        match outcome {
            Ok(Err(StmError::Shutdown)) => Supervised::Exit,
            Ok(result) => Supervised::Returned(result),
            Err(_) => {
                let absorbed = self.panics.fetch_add(1, Ordering::AcqRel) + 1;
                self.stm.trace_bus().emit(TraceEvent::WorkerPanicked {
                    worker: worker as u32,
                    restarts: absorbed,
                    at_ns: trace::now_ns(),
                });
                if absorbed >= self.budget {
                    Supervised::Exit
                } else {
                    Supervised::Absorbed
                }
            }
        }
    }
}

/// The runtime a live source runs on: its worker threads and their
/// supervision, the commit stream the monitor reads, and the actuator that
/// applies configurations to the STM.
pub struct LiveRuntime {
    actuator: PnstmActuator,
    commits: Arc<CommitStream>,
    supervisor: Supervisor,
    handles: Vec<thread::JoinHandle<()>>,
    /// The source's own close (the ingress queue's), run by shutdown right
    /// after the stop flag.
    close: Box<dyn Fn() + Send>,
}

impl LiveRuntime {
    /// A runtime over `stm` with no workers yet; `close` wakes whatever the
    /// source's workers park on besides STM admission.
    pub fn new(stm: Stm, close: impl Fn() + Send + 'static) -> Self {
        let commits = Arc::new(CommitStream {
            epoch: Instant::now(),
            stamps: Mutex::default(),
            gate: ParkGate::default(),
            dropped: AtomicU64::new(0),
        });
        let supervisor = Supervisor {
            stm: stm.clone(),
            stop: Arc::new(AtomicBool::new(false)),
            panics: Arc::new(AtomicU64::new(0)),
            budget: RESTART_BUDGET,
        };
        let actuator = PnstmActuator::new(stm);
        Self { actuator, commits, supervisor, handles: Vec::new(), close: Box::new(close) }
    }

    /// Push the stamp of every top-level commit of the STM into the stream.
    /// `ClockJitter` is a fault site here: it perturbs the stamps the monitor
    /// sees (pathological measurement streams).
    pub fn hook_commits(&self) {
        let (commits, fault) = (Arc::clone(&self.commits), self.stm().fault_ctx().clone());
        self.stm().stats().set_commit_hook(Some(Arc::new(move |ev: pnstm::CommitEvent| {
            let mut ns = ev.at.duration_since(commits.epoch).as_nanos() as u64;
            if let Some(action) = fault.inject(FaultKind::ClockJitter) {
                ns = ns.saturating_add_signed(action.signed_jitter_ns());
            }
            commits.push(ns);
        })));
    }

    pub fn stm(&self) -> &Stm {
        self.actuator.stm()
    }

    pub fn commits(&self) -> &Arc<CommitStream> {
        &self.commits
    }

    /// Worker panics absorbed so far.
    pub fn worker_panics(&self) -> u64 {
        self.supervisor.panics.load(Ordering::Acquire)
    }

    /// Start a worker thread running `body` with its [`Supervisor`]. A failed
    /// spawn degrades instead of aborting: the threads that did start are
    /// shut down and the error goes to the caller.
    pub fn spawn(
        &mut self,
        name: String,
        body: impl FnOnce(Supervisor) + Send + 'static,
    ) -> std::io::Result<()> {
        let supervisor = self.supervisor.clone();
        match thread::Builder::new().name(name).spawn(move || body(supervisor)) {
            Ok(handle) => {
                self.handles.push(handle);
                Ok(())
            }
            Err(err) => {
                self.shutdown();
                Err(err)
            }
        }
    }

    /// Stop the workers and detach the commit hook: stop flag → the source's
    /// close → admission close → join → admission reopen → hook detach.
    ///
    /// The stop flag alone cannot reach a worker parked in the source or on
    /// the admission gate (starved admission: an admission-stall fault plan,
    /// or a `t` far below the worker count). The closes wake both, the gate
    /// with [`StmError::Shutdown`], and admission reopens once every worker
    /// has exited, leaving the STM usable. Idempotent.
    pub fn shutdown(&mut self) {
        self.supervisor.stop.store(true, Ordering::Release);
        (self.close)();
        let stm = self.actuator.stm();
        stm.close_admission();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
        stm.reopen_admission();
        stm.stats().set_commit_hook(None);
    }
}

impl Drop for LiveRuntime {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl TunableSystem for LiveRuntime {
    fn apply(&mut self, cfg: Config) {
        self.actuator.apply(cfg);
        // Old stamps belong to the previous configuration; flush them so the
        // next window measures only the new one.
        self.commits.clear();
    }

    fn try_apply(&mut self, cfg: Config) -> Result<(), ApplyError> {
        self.actuator.try_apply(cfg)?;
        self.commits.clear();
        Ok(())
    }

    fn wait_commit(&mut self, max_wait_ns: u64) -> Option<u64> {
        self.commits.pop_timeout(Duration::from_nanos(max_wait_ns))
    }

    fn now_ns(&self) -> u64 {
        self.commits.now_ns()
    }

    fn quiesce(&mut self) {
        self.actuator.quiesce();
        self.commits.clear();
    }
}

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
    rt: LiveRuntime,
}

impl LiveStmSystem {
    /// Start `threads` supervised application threads running `workload` on
    /// `stm`. Thread-spawn failure is propagated (after stopping any threads
    /// that did start) instead of aborting the process.
    pub fn start(
        stm: Stm,
        workload: Arc<dyn StmWorkload>,
        threads: usize,
    ) -> std::io::Result<Self> {
        let mut rt = LiveRuntime::new(stm.clone(), || {});
        rt.hook_commits();
        for worker in 0..threads.max(1) {
            let (stm, workload) = (stm.clone(), Arc::clone(&workload));
            rt.spawn(format!("live-{}-{}", workload.name(), worker), move |sup| {
                let mut round = 0u64;
                while !sup.stopped() {
                    let step = sup.call(worker, || workload.run_txn(&stm, worker, round));
                    round += 1;
                    if matches!(step, Supervised::Exit) {
                        return;
                    }
                }
            })?;
        }
        Ok(Self { rt })
    }

    /// The tuned STM instance.
    pub fn stm(&self) -> &Stm {
        self.rt.stm()
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
        self.rt.worker_panics()
    }

    /// Stop the application threads and detach the commit hook; see
    /// [`LiveRuntime::shutdown`].
    pub fn shutdown(&mut self) {
        self.rt.shutdown();
    }
}

impl TunableSystem for LiveStmSystem {
    fn apply(&mut self, cfg: Config) {
        self.rt.apply(cfg);
    }

    fn try_apply(&mut self, cfg: Config) -> Result<(), ApplyError> {
        self.rt.try_apply(cfg)
    }

    fn wait_commit(&mut self, max_wait_ns: u64) -> Option<u64> {
        self.rt.wait_commit(max_wait_ns)
    }

    fn now_ns(&self) -> u64 {
        self.rt.now_ns()
    }

    fn quiesce(&mut self) {
        self.rt.quiesce();
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

    /// A workload that never commits, so every stamp is the test's own.
    struct Idle;

    impl StmWorkload for Idle {
        fn name(&self) -> &str {
            "idle"
        }
        fn run_txn(&self, _stm: &Stm, _worker: usize, _round: u64) -> Result<(), StmError> {
            thread::sleep(Duration::from_millis(1));
            Ok(())
        }
    }

    /// Drain two stamps from a full stream: they come oldest first, and the
    /// oldest is no older than `fresh_from` — the ring kept the newest ones.
    fn assert_late_reader_gets_fresh_stamps(sys: &mut impl TunableSystem, fresh_from: u64) {
        let first = sys.wait_commit(1_000_000).expect("the stream is full");
        let second = sys.wait_commit(1_000_000).expect("the stream is full");
        assert!(fresh_from <= first && first <= second, "{fresh_from} {first} {second}");
    }

    /// A stamp pushed after the reader counted in on the stream's park gate
    /// wakes it: the read returns long before its 30 s timeout.
    #[test]
    fn a_reader_counted_in_gets_the_next_stamp() {
        let stream = Arc::new(CommitStream {
            epoch: Instant::now(),
            stamps: Mutex::default(),
            gate: ParkGate::default(),
            dropped: AtomicU64::new(0),
        });
        let start = Instant::now();
        let reader = thread::spawn({
            let stream = Arc::clone(&stream);
            move || stream.pop_timeout(Duration::from_secs(30))
        });
        while stream.gate.parked() == 0 {
            assert!(start.elapsed() < Duration::from_secs(10), "the reader never counted in");
            thread::yield_now();
        }
        stream.push(42);
        assert_eq!(reader.join().unwrap(), Some(42));
        assert!(start.elapsed() < Duration::from_secs(10), "the push did not wake the reader");
    }

    #[test]
    fn untuned_live_systems_keep_their_commit_stamps_bounded() {
        // No tuner ever calls `wait_commit`, so nothing drains the stamps.
        // The closed-loop system: a million commits through the counter the
        // commit path itself calls must leave the ring at its cap, the
        // overwritten ones counted.
        let stm = Stm::new(StmConfig::default());
        let mut sys = LiveStmSystem::start(stm.clone(), Arc::new(Idle), 1).unwrap();
        const COMMITS: u64 = 1_000_000;
        for _ in 0..COMMITS - COMMIT_RING_CAP as u64 {
            stm.stats().record_commit_top();
        }
        let fresh_from = sys.now_ns();
        for _ in 0..COMMIT_RING_CAP {
            stm.stats().record_commit_top();
        }
        assert_eq!(sys.rt.commits().held(), COMMIT_RING_CAP);
        assert_eq!(sys.rt.commits().dropped(), COMMITS - COMMIT_RING_CAP as u64);
        assert_late_reader_gets_fresh_stamps(&mut sys, fresh_from);
        sys.shutdown();

        // The block stream: let it run until the ring has been overwritten
        // by a whole ring's worth of stamps since `fresh_from`.
        let stm = Stm::new(StmConfig::default());
        let cfg = ledger::LedgerConfig { workers: 2, block_size: 1024, ..Default::default() };
        let mut sys = crate::LedgerLiveSystem::start(stm, 64, 1_000, cfg, 5).unwrap();
        let commits = Arc::clone(sys.rt.commits());
        let deadline = Instant::now() + Duration::from_secs(60);
        let mut fresh_from = None;
        while commits.dropped() < 2 * COMMIT_RING_CAP as u64 {
            assert!(Instant::now() < deadline, "the block stream stalled: {}", commits.held());
            if fresh_from.is_none() && commits.dropped() > 0 {
                fresh_from = Some(sys.now_ns());
            }
            thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(commits.held(), COMMIT_RING_CAP);
        assert_late_reader_gets_fresh_stamps(&mut sys, fresh_from.unwrap());
        sys.shutdown();
    }

    #[test]
    fn supervisor_transition_table() {
        let stm =
            Stm::new(StmConfig { degree: ParallelismDegree::new(1, 1), ..Default::default() });
        let sink = Arc::new(pnstm::TestSink::new());
        stm.trace_bus().subscribe(sink.clone());
        let panicked = || {
            sink.events()
                .into_iter()
                .filter_map(|ev| match ev {
                    TraceEvent::WorkerPanicked { worker, restarts, .. } => Some((worker, restarts)),
                    _ => None,
                })
                .collect::<Vec<_>>()
        };
        let mut rt = LiveRuntime::new(stm.clone(), || {});
        rt.supervisor.budget = 3;
        let sup = rt.supervisor.clone();

        // The body returns: carry on, no event.
        assert!(matches!(sup.call(0, || Ok(7)), Supervised::Returned(Ok(7))));
        let other = sup.call::<()>(0, || Err(StmError::UserAborted));
        assert!(matches!(other, Supervised::Returned(Err(StmError::UserAborted))));
        // Admission closed: the worker exits, and it is not a panic.
        assert!(matches!(sup.call::<()>(0, || Err(StmError::Shutdown)), Supervised::Exit));
        assert_eq!((rt.worker_panics(), panicked()), (0, vec![]));
        // Panics below the budget: absorbed, traced, the worker carries on.
        for k in 1..=2 {
            assert!(matches!(sup.call::<()>(4, || panic!("boom")), Supervised::Absorbed));
            assert_eq!(panicked().last(), Some(&(4, k)));
        }

        // The panic that reaches the budget retires its worker only.
        let survivor_rounds = Arc::new(AtomicU64::new(0));
        let rounds = Arc::clone(&survivor_rounds);
        rt.spawn("crasher".into(), |sup| {
            while !sup.stopped()
                && !matches!(sup.call::<()>(1, || panic!("boom")), Supervised::Exit)
            {}
        })
        .unwrap();
        rt.spawn("survivor".into(), move |sup| {
            while !sup.stopped() {
                if let Supervised::Exit = sup.call(2, || Ok(())) {
                    return;
                }
                rounds.fetch_add(1, Ordering::Relaxed);
                thread::sleep(Duration::from_millis(1));
            }
        })
        .unwrap();
        let deadline = Instant::now() + Duration::from_secs(10);
        while !rt.handles[0].is_finished() {
            assert!(Instant::now() < deadline, "the crashing worker never retired");
            thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(rt.worker_panics(), 3);
        assert_eq!(panicked().last(), Some(&(1, 3)));
        let before = survivor_rounds.load(Ordering::Relaxed);
        while survivor_rounds.load(Ordering::Relaxed) < before + 10 {
            assert!(Instant::now() < deadline, "the other worker stopped with the crashing one");
            thread::sleep(Duration::from_millis(1));
        }
        assert!(!rt.handles[1].is_finished());
        rt.shutdown();

        // Shutdown while workers are parked on starved admission (t = 1, one
        // holder, two waiters) returns within the chaos bound.
        let mut rt = LiveRuntime::new(stm.clone(), || {});
        for worker in 0..3 {
            let stm = stm.clone();
            rt.spawn(format!("starved-{worker}"), move |sup| {
                let hold = || {
                    stm.atomic(|_| {
                        thread::sleep(Duration::from_millis(20));
                        Ok(())
                    })
                };
                while !matches!(sup.call(worker, hold), Supervised::Exit) {}
            })
            .unwrap();
        }
        thread::sleep(Duration::from_millis(50));
        let start = Instant::now();
        rt.shutdown();
        assert!(start.elapsed() < Duration::from_secs(5), "shutdown took {:?}", start.elapsed());
        assert_eq!(rt.worker_panics(), 0);
    }
}
