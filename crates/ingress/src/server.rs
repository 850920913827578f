//! The open-loop ingress front door.
//!
//! A generator thread offers requests on the arrival schedule (never
//! blocking — a full queue is a typed rejection, not a stall), worker
//! threads drain the queue in batches, amortize top-level admission over
//! [`pnstm::Throttle::admit_batch`], and execute each request via
//! [`pnstm::Stm::atomic_admitted`]. Every completed request carries four
//! stamps — intended arrival ≤ push ≤ dequeue ≤ completion — and records
//! into lock-free log2 histograms:
//!
//! * `intended`: completion − intended arrival (the open-loop,
//!   coordinated-omission-free latency a client would see),
//! * `dequeue`: completion − dequeue (the closed-loop number a worker-side
//!   probe would report), and the two parts of the gap between them,
//! * `gen_lag`: push − intended arrival (how late the generator offered),
//! * `queue_wait`: dequeue − push (queue residence, consumer wake-up and
//!   batch admission).
//!
//! Per request `intended = gen_lag + queue_wait + dequeue`, so
//! `intended ≥ dequeue` and the gap between the two p99s is exactly the
//! delay the closed-loop view cannot see — now split by who caused it.
//!
//! Neither wait site sleeps through, or futex-wakes across, an interval
//! shorter than the sleep or the wake costs. The generator keeps an estimate
//! of its own sleep overshoot, sleeps only the part of a gap it can keep and
//! covers the rest by re-reading the clock with `yield_now` between reads;
//! the consumer side is [`crate::queue`]'s wake protocol.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use autopn::{ApplyError, Config, PnstmActuator, SloKpi, SloTunableSystem, TunableSystem};
use parking_lot::{Condvar, Mutex};
use pnstm::throttle::Permit;
use pnstm::trace::{self, TraceEvent};
use pnstm::{FaultKind, LatencyHistogram, LatencySnapshot, Stm, StmError};
use workloads::transfer::{TransferRequest, TransferWorkload};

use crate::arrival::ArrivalProcess;
use crate::queue::{ewma, BoundedQueue, PushError};

/// Default number of worker panics absorbed (worker restarted) before a
/// panicking worker retires — mirrors `workloads::live`.
pub const DEFAULT_RESTART_BUDGET: u64 = 128;

/// The request executor behind the front door. `request` is the stream
/// index of the request (the service derives its inputs from it
/// deterministically); the permit is the already-acquired top-level
/// admission slot, consumed by [`Stm::atomic_admitted`].
pub trait IngressService: Send + Sync + 'static {
    fn run(&self, stm: &Stm, permit: Permit, request: u64) -> Result<(), StmError>;
}

/// The hot-key-skewed transfer service: request `i` executes the `i mod n`-th
/// of `n` pre-generated transfer batches (each one top-level transaction
/// with one parallel child per transfer).
pub struct TransferService {
    workload: TransferWorkload,
    requests: Vec<TransferRequest>,
}

impl TransferService {
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        stm: &Stm,
        accounts: usize,
        initial_balance: u64,
        seed: u64,
        unique_requests: usize,
        transfers_per_request: usize,
        max_amount: u64,
    ) -> Self {
        let workload = TransferWorkload::new(stm, accounts, initial_balance);
        let requests =
            workload.requests(seed, unique_requests.max(1), transfers_per_request, max_amount);
        Self { workload, requests }
    }

    pub fn workload(&self) -> &TransferWorkload {
        &self.workload
    }
}

impl IngressService for TransferService {
    fn run(&self, stm: &Stm, permit: Permit, request: u64) -> Result<(), StmError> {
        let req = &self.requests[(request % self.requests.len() as u64) as usize];
        self.workload.run_admitted(stm, permit, req).map(|_| ())
    }
}

/// Front-door configuration.
#[derive(Debug, Clone, Copy)]
pub struct IngressConfig {
    /// The offered arrival stream.
    pub process: ArrivalProcess,
    /// Seed for the arrival schedule (deterministic replay).
    pub seed: u64,
    /// Submission-queue ceiling; arrivals beyond it are rejected (typed
    /// backpressure, counted as SLO misses).
    pub queue_cap: usize,
    /// Maximum requests a worker dequeues — and admits — per batch.
    pub batch: usize,
    /// Worker threads draining the queue.
    pub workers: usize,
    /// Worker panics absorbed system-wide before a panicking worker retires.
    pub restart_budget: u64,
}

impl Default for IngressConfig {
    fn default() -> Self {
        Self {
            process: ArrivalProcess::Poisson { rate_hz: 1_000.0 },
            seed: 1,
            queue_cap: 1_024,
            batch: 8,
            workers: 2,
            restart_budget: DEFAULT_RESTART_BUDGET,
        }
    }
}

/// Commit timestamps the front door keeps for the monitor: far beyond the
/// largest window a monitor policy reads commit by commit (WPNOC-30; the
/// adaptive policy slides over 15), so only the controller's own scheduling
/// lag has to fit, and 0.5 MiB at most.
pub const COMMIT_RING_CAP: usize = 1 << 16;

/// The commit hook's timestamp stream: a drop-oldest ring. The tuner drains
/// it only while a window is open, so an unbounded channel here grew by one
/// `u64` per commit for as long as no tuner was attached.
#[derive(Default)]
struct CommitRing {
    state: Mutex<RingState>,
    arrived: Condvar,
}

#[derive(Default)]
struct RingState {
    stamps: VecDeque<u64>,
    /// The consumer is parked on `arrived`; producers skip the notify (a
    /// syscall per commit) otherwise.
    parked: bool,
}

impl CommitRing {
    /// Append `ts`; returns whether the oldest stamp was overwritten.
    fn push(&self, ts: u64) -> bool {
        let mut state = self.state.lock();
        let full = state.stamps.len() == COMMIT_RING_CAP;
        if full {
            state.stamps.pop_front();
        }
        state.stamps.push_back(ts);
        let parked = state.parked;
        drop(state);
        if parked {
            self.arrived.notify_one();
        }
        full
    }

    fn pop_timeout(&self, timeout: Duration) -> Option<u64> {
        let deadline = Instant::now() + timeout;
        let mut state = self.state.lock();
        loop {
            if let Some(ts) = state.stamps.pop_front() {
                return Some(ts);
            }
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return None;
            }
            state.parked = true;
            self.arrived.wait_for(&mut state, left);
            state.parked = false;
        }
    }

    fn clear(&self) {
        self.state.lock().stamps.clear();
    }

    #[cfg(test)]
    fn len(&self) -> usize {
        self.state.lock().stamps.len()
    }
}

/// Lock-free ingress counters and latency histograms.
#[derive(Default)]
pub struct IngressStats {
    /// Requests whose intended arrival has passed (accepted + rejected).
    pub offered: AtomicU64,
    /// Requests that entered the submission queue.
    pub accepted: AtomicU64,
    /// Requests refused at the queue ceiling.
    pub rejected: AtomicU64,
    /// Requests that committed.
    pub completed: AtomicU64,
    /// Requests that failed terminally (retries exhausted, body error,
    /// worker panic) or were abandoned by shutdown after acceptance.
    pub failed: AtomicU64,
    /// Commit timestamps the bounded ring overwrote before a monitor read
    /// them (grows whenever no tuner is attached; see [`COMMIT_RING_CAP`]).
    pub commit_stamps_dropped: AtomicU64,
    /// Completion − intended arrival (coordinated-omission-free).
    pub intended: LatencyHistogram,
    /// Completion − dequeue (the closed-loop view, kept for comparison).
    pub dequeue: LatencyHistogram,
    /// Push − intended arrival of the completed requests: generator lateness.
    pub gen_lag: LatencyHistogram,
    /// Dequeue − push of the completed requests: queue residence, consumer
    /// wake-up and batch admission.
    pub queue_wait: LatencyHistogram,
}

impl IngressStats {
    /// The counters and histograms, plus the wake counters `queue` keeps.
    fn snapshot(&self, queue: &BoundedQueue<Request>) -> IngressSnapshot {
        IngressSnapshot {
            offered: self.offered.load(Ordering::Relaxed),
            accepted: self.accepted.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            completed: self.completed.load(Ordering::Relaxed),
            failed: self.failed.load(Ordering::Relaxed),
            commit_stamps_dropped: self.commit_stamps_dropped.load(Ordering::Relaxed),
            intended: self.intended.snapshot(),
            dequeue: self.dequeue.snapshot(),
            gen_lag: self.gen_lag.snapshot(),
            queue_wait: self.queue_wait.snapshot(),
            consumer_parks: queue.consumer_parks(),
            wakes_sent: queue.wakes_sent(),
        }
    }
}

/// Point-in-time copy of [`IngressStats`].
#[derive(Debug, Clone, Default)]
pub struct IngressSnapshot {
    pub offered: u64,
    pub accepted: u64,
    pub rejected: u64,
    pub completed: u64,
    pub failed: u64,
    pub commit_stamps_dropped: u64,
    pub intended: LatencySnapshot,
    pub dequeue: LatencySnapshot,
    pub gen_lag: LatencySnapshot,
    pub queue_wait: LatencySnapshot,
    /// Times a worker parked on the empty queue.
    pub consumer_parks: u64,
    /// `notify_one` calls the queue's pushes and hand-offs made.
    pub wakes_sent: u64,
}

impl IngressSnapshot {
    /// Counters accumulated since `earlier` (saturating).
    pub fn delta_since(&self, earlier: &IngressSnapshot) -> IngressSnapshot {
        IngressSnapshot {
            offered: self.offered.saturating_sub(earlier.offered),
            accepted: self.accepted.saturating_sub(earlier.accepted),
            rejected: self.rejected.saturating_sub(earlier.rejected),
            completed: self.completed.saturating_sub(earlier.completed),
            failed: self.failed.saturating_sub(earlier.failed),
            commit_stamps_dropped: self
                .commit_stamps_dropped
                .saturating_sub(earlier.commit_stamps_dropped),
            intended: self.intended.delta_since(&earlier.intended),
            dequeue: self.dequeue.delta_since(&earlier.dequeue),
            gen_lag: self.gen_lag.delta_since(&earlier.gen_lag),
            queue_wait: self.queue_wait.delta_since(&earlier.queue_wait),
            consumer_parks: self.consumer_parks.saturating_sub(earlier.consumer_parks),
            wakes_sent: self.wakes_sent.saturating_sub(earlier.wakes_sent),
        }
    }

    /// The SLO KPI of a window whose counter delta is `self`.
    pub fn kpi(&self, window_ns: u64) -> SloKpi {
        let window_ns = window_ns.max(1);
        SloKpi {
            goodput: self.completed as f64 * 1e9 / window_ns as f64,
            offered: self.offered,
            completed: self.completed,
            rejected: self.rejected,
            p50_ns: self.intended.quantile(50.0),
            p99_ns: self.intended.quantile(99.0),
            p999_ns: self.intended.quantile(99.9),
            window_ns,
        }
    }
}

struct Request {
    index: u64,
    intended_ns: u64,
    pushed_ns: u64,
}

/// A running front door: one generator thread + `workers` executor threads
/// over a shared [`BoundedQueue`], exposed to the AutoPN controller as an
/// [`SloTunableSystem`].
pub struct Ingress {
    /// Applies configurations (degree, scheduler) to the served STM.
    actuator: PnstmActuator,
    config: IngressConfig,
    stats: Arc<IngressStats>,
    queue: Arc<BoundedQueue<Request>>,
    stop: Arc<AtomicBool>,
    handles: Vec<thread::JoinHandle<()>>,
    panics: Arc<AtomicU64>,
    epoch: Instant,
    commits: Arc<CommitRing>,
    window: Option<(IngressSnapshot, u64)>,
}

impl Ingress {
    /// Start the front door: the generator begins offering requests on the
    /// arrival schedule immediately.
    pub fn start(
        stm: Stm,
        service: Arc<dyn IngressService>,
        config: IngressConfig,
    ) -> std::io::Result<Self> {
        let epoch = Instant::now();
        let commits = Arc::new(CommitRing::default());
        let stats = Arc::new(IngressStats::default());
        {
            // Same commit-hook shape as `LiveStmSystem`: the monitor's
            // timestamp stream, with ClockJitter as a fault site.
            let fault = stm.fault_ctx().clone();
            let (commits, stats) = (Arc::clone(&commits), Arc::clone(&stats));
            stm.stats().set_commit_hook(Some(Arc::new(move |ev: pnstm::CommitEvent| {
                let mut ns = ev.at.duration_since(epoch).as_nanos() as u64;
                if let Some(action) = fault.inject(FaultKind::ClockJitter) {
                    ns = ns.saturating_add_signed(action.signed_jitter_ns());
                }
                if commits.push(ns) {
                    stats.commit_stamps_dropped.fetch_add(1, Ordering::Relaxed);
                }
            })));
        }
        let queue = Arc::new(BoundedQueue::new(config.queue_cap));
        let stop = Arc::new(AtomicBool::new(false));
        let panics = Arc::new(AtomicU64::new(0));
        let mut sys = Self {
            actuator: PnstmActuator::new(stm.clone()),
            config,
            stats: Arc::clone(&stats),
            queue: Arc::clone(&queue),
            stop: Arc::clone(&stop),
            handles: Vec::new(),
            panics: Arc::clone(&panics),
            epoch,
            commits,
            window: None,
        };
        let spawn =
            |name: String, f: Box<dyn FnOnce() + Send>| thread::Builder::new().name(name).spawn(f);
        let gen = {
            let (queue, stats, stop) = (Arc::clone(&queue), Arc::clone(&stats), Arc::clone(&stop));
            spawn(
                "ingress-gen".into(),
                Box::new(move || generator_loop(queue, stats, stop, config.process, config.seed)),
            )
        };
        match gen {
            Ok(h) => sys.handles.push(h),
            Err(err) => {
                sys.shutdown();
                return Err(err);
            }
        }
        for worker in 0..config.workers.max(1) {
            let stm = stm.clone();
            let service = Arc::clone(&service);
            let (queue, stats) = (Arc::clone(&queue), Arc::clone(&stats));
            let (stop, panics) = (Arc::clone(&stop), Arc::clone(&panics));
            let spawned = spawn(
                format!("ingress-{worker}"),
                Box::new(move || {
                    worker_loop(
                        stm,
                        service,
                        queue,
                        stats,
                        stop,
                        panics,
                        config.batch,
                        config.restart_budget,
                        worker,
                    )
                }),
            );
            match spawned {
                Ok(h) => sys.handles.push(h),
                Err(err) => {
                    sys.shutdown();
                    return Err(err);
                }
            }
        }
        Ok(sys)
    }

    pub fn stm(&self) -> &Stm {
        self.actuator.stm()
    }

    pub fn config(&self) -> &IngressConfig {
        &self.config
    }

    pub fn stats(&self) -> &IngressStats {
        &self.stats
    }

    pub fn snapshot(&self) -> IngressSnapshot {
        self.stats.snapshot(&self.queue)
    }

    pub fn trace_bus(&self) -> &pnstm::TraceBus {
        self.stm().trace_bus()
    }

    /// Worker panics absorbed (and survived) so far.
    pub fn worker_panics(&self) -> u64 {
        self.panics.load(Ordering::Acquire)
    }

    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Compute the KPI for the window since `since` (taken
    /// [`Ingress::snapshot`] `window_ns` ago) and publish it as an
    /// `ingress_window` trace event.
    pub fn publish_window(&self, since: &IngressSnapshot, window_ns: u64) -> SloKpi {
        let delta = self.snapshot().delta_since(since);
        let kpi = delta.kpi(window_ns);
        self.trace_bus().emit(TraceEvent::IngressWindow {
            at_ns: trace::now_ns(),
            window_ns: kpi.window_ns,
            offered: kpi.offered,
            completed: kpi.completed,
            rejected: kpi.rejected,
            goodput: kpi.goodput,
            p50_ns: kpi.p50_ns,
            p99_ns: kpi.p99_ns,
            p999_ns: kpi.p999_ns,
            gen_lag_p50_ns: delta.gen_lag.quantile(50.0),
            gen_lag_p99_ns: delta.gen_lag.quantile(99.0),
            queue_wait_p50_ns: delta.queue_wait.quantile(50.0),
            queue_wait_p99_ns: delta.queue_wait.quantile(99.0),
        });
        kpi
    }

    /// Stop the generator and workers, drain the queue, detach the hook.
    ///
    /// Ordering matters (same reasoning as `LiveStmSystem::shutdown`): the
    /// queue close wakes consumers parked in `pop_batch`, and closing STM
    /// admission wakes consumers parked in `admit_batch` — the stop flag
    /// alone cannot reach either park site.
    pub fn shutdown(&mut self) {
        let stm = self.actuator.stm();
        self.stop.store(true, Ordering::Release);
        self.queue.close();
        stm.close_admission();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
        stm.reopen_admission();
        stm.stats().set_commit_hook(None);
        // Requests accepted but never executed are terminal failures now.
        let orphaned = self.queue.pop_batch(usize::MAX, Duration::ZERO).len();
        self.stats.failed.fetch_add(orphaned as u64, Ordering::Relaxed);
    }
}

impl Drop for Ingress {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Longest single sleep of the generator, so the stop flag stays responsive
/// at low rates.
const MAX_SLEEP_NS: u64 = 2_000_000;

/// The generator's running estimate of its sleep overshoot tracks the upper
/// envelope of the samples, because the two errors are not alike: too high
/// polls the clock a little longer, too low sleeps through an arrival. It
/// rises to a larger sample at once (by at most double, so one pre-empted
/// sleep cannot turn the generator into a spin loop) and decays by eighths.
fn fold_overshoot(estimate: u64, sample: u64) -> u64 {
    if estimate != 0 && sample > estimate {
        sample.min(2 * estimate)
    } else {
        ewma(estimate, sample)
    }
}

/// Offer requests on the intended-arrival schedule. Never blocks on the
/// queue: a full queue rejects (open loop), and when the generator falls
/// behind schedule it offers immediately with the *past* intended timestamp
/// — the backlog is charged to latency, not silently dropped from it.
///
/// It never sleeps a gap it cannot keep: `overshoot_ns` is the running
/// estimate of how much later than asked its own sleeps return (timer slack
/// plus a wake-up, measured on every sleep). A gap longer than that is slept
/// short by it; the remainder, and every gap shorter than it, is covered by
/// re-reading the clock with a `yield_now` between reads, so a runnable
/// worker always gets the vCPU first.
fn generator_loop(
    queue: Arc<BoundedQueue<Request>>,
    stats: Arc<IngressStats>,
    stop: Arc<AtomicBool>,
    process: ArrivalProcess,
    seed: u64,
) {
    let start_ns = trace::now_ns();
    let mut overshoot_ns = 0u64;
    for (index, offset) in process.schedule(seed).enumerate() {
        let intended_ns = start_ns + offset;
        let pushed_ns = loop {
            if stop.load(Ordering::Acquire) {
                return;
            }
            let now = trace::now_ns();
            if now >= intended_ns {
                break now;
            }
            let gap = intended_ns - now;
            if gap > overshoot_ns {
                let ask = (gap - overshoot_ns).min(MAX_SLEEP_NS);
                thread::sleep(Duration::from_nanos(ask));
                let slept = trace::now_ns().saturating_sub(now);
                overshoot_ns = fold_overshoot(overshoot_ns, slept.saturating_sub(ask));
            } else {
                thread::yield_now();
            }
        };
        // A request counts as offered together with its outcome: one the
        // closed queue refused at shutdown was never offered.
        match queue.try_push(Request { index: index as u64, intended_ns, pushed_ns }) {
            Ok(()) => {
                stats.offered.fetch_add(1, Ordering::Relaxed);
                stats.accepted.fetch_add(1, Ordering::Relaxed);
            }
            Err(PushError::Full(_)) => {
                stats.offered.fetch_add(1, Ordering::Relaxed);
                stats.rejected.fetch_add(1, Ordering::Relaxed);
            }
            Err(PushError::Closed(_)) => return,
        }
    }
}

/// Drain the queue in batches, admit each batch through one amortized gate
/// operation, execute, record both latency views.
#[allow(clippy::too_many_arguments)]
fn worker_loop(
    stm: Stm,
    service: Arc<dyn IngressService>,
    queue: Arc<BoundedQueue<Request>>,
    stats: Arc<IngressStats>,
    stop: Arc<AtomicBool>,
    panics: Arc<AtomicU64>,
    batch_max: usize,
    restart_budget: u64,
    worker: usize,
) {
    let fault = stm.fault_ctx().clone();
    loop {
        let batch = queue.pop_batch(batch_max, Duration::from_millis(10));
        if batch.is_empty() {
            if queue.is_closed() || stop.load(Ordering::Acquire) {
                return;
            }
            continue;
        }
        // One blocking acquire + one CAS for the whole batch. Unused
        // permits (request failed before consuming one) release on drop.
        let mut permits = stm.throttle().admit_batch(batch.len());
        let mut batch = batch.into_iter();
        while let Some(req) = batch.next() {
            let permit = match permits.pop() {
                Some(p) => p,
                None => {
                    let remaining = 1 + batch.len();
                    permits = stm.throttle().admit_batch(remaining);
                    match permits.pop() {
                        Some(p) => p,
                        None => {
                            // Admission closed: shutdown. The rest of the
                            // batch can no longer execute.
                            stats.failed.fetch_add(remaining as u64, Ordering::Relaxed);
                            return;
                        }
                    }
                }
            };
            let dequeue_ns = trace::now_ns();
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                // Fault site: a crashing request body.
                if fault.inject(FaultKind::WorkerPanic).is_some() {
                    panic!("injected worker panic");
                }
                service.run(&stm, permit, req.index)
            }));
            match outcome {
                Ok(Ok(())) => {
                    let mut done_ns = trace::now_ns();
                    // Fault site: ClockJitter perturbs the completion stamp
                    // the latency samples are derived from.
                    if let Some(action) = fault.inject(FaultKind::ClockJitter) {
                        done_ns = done_ns.saturating_add_signed(action.signed_jitter_ns());
                    }
                    stats.completed.fetch_add(1, Ordering::Relaxed);
                    stats.intended.record(done_ns.saturating_sub(req.intended_ns));
                    stats.dequeue.record(done_ns.saturating_sub(dequeue_ns));
                    stats.gen_lag.record(req.pushed_ns.saturating_sub(req.intended_ns));
                    stats.queue_wait.record(dequeue_ns.saturating_sub(req.pushed_ns));
                }
                Ok(Err(StmError::Shutdown)) => {
                    stats.failed.fetch_add(1 + batch.len() as u64, Ordering::Relaxed);
                    return;
                }
                Ok(Err(_)) => {
                    stats.failed.fetch_add(1, Ordering::Relaxed);
                }
                Err(_) => {
                    stats.failed.fetch_add(1, Ordering::Relaxed);
                    let absorbed = panics.fetch_add(1, Ordering::AcqRel) + 1;
                    stm.trace_bus().emit(TraceEvent::WorkerPanicked {
                        worker: worker as u32,
                        restarts: absorbed,
                        at_ns: trace::now_ns(),
                    });
                    if absorbed >= restart_budget {
                        stats.failed.fetch_add(batch.len() as u64, Ordering::Relaxed);
                        return;
                    }
                }
            }
        }
    }
}

impl TunableSystem for Ingress {
    fn apply(&mut self, cfg: Config) {
        self.actuator.apply(cfg);
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
        self.epoch.elapsed().as_nanos() as u64
    }

    fn quiesce(&mut self) {
        self.actuator.quiesce();
        self.commits.clear();
    }
}

impl SloTunableSystem for Ingress {
    fn begin_slo_window(&mut self) {
        self.window = Some((self.snapshot(), trace::now_ns()));
    }

    fn end_slo_window(&mut self) -> SloKpi {
        let (since, start_ns) =
            self.window.take().unwrap_or_else(|| (IngressSnapshot::default(), trace::now_ns()));
        let window_ns = trace::now_ns().saturating_sub(start_ns).max(1);
        self.publish_window(&since, window_ns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pnstm::{FaultPlan, FaultRule, ParallelismDegree, StmConfig, TestSink};

    fn stm() -> Stm {
        Stm::new(StmConfig {
            degree: ParallelismDegree::new(4, 2),
            worker_threads: 2,
            ..StmConfig::default()
        })
    }

    fn transfer_service(stm: &Stm) -> Arc<TransferService> {
        Arc::new(TransferService::new(stm, 64, 10_000, 9, 64, 2, 100))
    }

    fn run_for(ingress: &Ingress, target_completed: u64, cap: Duration) {
        let deadline = Instant::now() + cap;
        while ingress.stats().completed.load(Ordering::Relaxed) < target_completed
            && Instant::now() < deadline
        {
            thread::sleep(Duration::from_millis(5));
        }
    }

    #[test]
    fn serves_the_stream_and_records_both_latency_views() {
        let stm = stm();
        let service = transfer_service(&stm);
        let config = IngressConfig {
            process: ArrivalProcess::Poisson { rate_hz: 2_000.0 },
            ..IngressConfig::default()
        };
        let mut ing = Ingress::start(stm, service, config).unwrap();
        run_for(&ing, 50, Duration::from_secs(10));
        ing.shutdown();
        let snap = ing.snapshot();
        assert!(snap.completed >= 50, "expected ≥50 completions, saw {}", snap.completed);
        assert_eq!(snap.intended.count, snap.completed);
        assert_eq!(snap.dequeue.count, snap.completed);
        assert_eq!(snap.offered, snap.accepted + snap.rejected);
        // The open-loop view can only be worse (or equal): per request,
        // completion − intended ≥ completion − dequeue.
        for p in [50.0, 99.0, 99.9] {
            assert!(snap.intended.quantile(p) >= snap.dequeue.quantile(p));
        }
        assert!(snap.intended.quantile(50.0) <= snap.intended.quantile(99.9));
    }

    #[test]
    fn the_wait_is_divided_between_generator_and_queue() {
        let stm = stm();
        let service = transfer_service(&stm);
        let config = IngressConfig {
            process: ArrivalProcess::Poisson { rate_hz: 2_000.0 },
            ..IngressConfig::default()
        };
        let mut ing = Ingress::start(stm, service, config).unwrap();
        run_for(&ing, 200, Duration::from_secs(10));
        ing.shutdown();
        let snap = ing.snapshot();
        assert!(snap.completed >= 200, "fault-free run: {snap:?}");
        for part in [&snap.gen_lag, &snap.queue_wait, &snap.dequeue, &snap.intended] {
            assert_eq!(part.count, snap.completed);
        }
        // intended ≤ push ≤ dequeue ≤ completion on one monotonic clock, so
        // over the completed set the three parts add up to the whole.
        assert_eq!(
            snap.intended.total_ns,
            snap.gen_lag.total_ns + snap.queue_wait.total_ns + snap.dequeue.total_ns
        );
        assert!(snap.queue_wait.total_ns > 0);
        // The queue's counters ride along, and a window sees their delta.
        assert!(snap.consumer_parks > 0, "2 kHz leaves gaps long enough to park in: {snap:?}");
        let delta = snap.delta_since(&snap);
        assert_eq!((delta.consumer_parks, delta.wakes_sent, delta.gen_lag.count), (0, 0, 0));
    }

    #[test]
    fn an_idle_front_door_parks_its_workers() {
        // The politeness bound: at 200 Hz the gaps are hundreds of wake costs
        // long, so polling must give way to parking — about once per request.
        let stm = stm();
        let service = transfer_service(&stm);
        let config = IngressConfig {
            process: ArrivalProcess::Uniform { rate_hz: 200.0 },
            ..IngressConfig::default()
        };
        let mut ing = Ingress::start(stm, service, config).unwrap();
        thread::sleep(Duration::from_millis(500));
        ing.shutdown();
        let snap = ing.snapshot();
        assert!(snap.completed >= 50, "the door must still serve: {snap:?}");
        assert!(
            snap.consumer_parks >= snap.completed / 2,
            "{} parks for {} requests: the workers are spinning",
            snap.consumer_parks,
            snap.completed
        );
    }

    #[test]
    fn shutdown_under_load_settles_every_request() {
        let stm = stm();
        let service = transfer_service(&stm);
        for round in 0..50 {
            // Far beyond capacity into a small queue: the generator is mid-push
            // and the queue full whenever the shutdown lands.
            let config = IngressConfig {
                process: ArrivalProcess::Poisson { rate_hz: 500_000.0 },
                seed: round,
                queue_cap: 16,
                ..IngressConfig::default()
            };
            let mut ing = Ingress::start(stm.clone(), service.clone(), config).unwrap();
            thread::sleep(Duration::from_millis(2));
            ing.shutdown();
            let s = ing.snapshot();
            assert_eq!(s.offered, s.accepted + s.rejected, "round {round}: {s:?}");
            assert_eq!(s.accepted, s.completed + s.failed, "round {round}: {s:?}");
        }
    }

    #[test]
    fn overload_rejects_at_the_queue_ceiling() {
        let stm = stm();
        // One slow worker, tiny queue, offered rate far beyond service rate.
        struct SlowService;
        impl IngressService for SlowService {
            fn run(&self, stm: &Stm, permit: Permit, _request: u64) -> Result<(), StmError> {
                stm.atomic_admitted(permit, |_tx| {
                    thread::sleep(Duration::from_millis(2));
                    Ok(())
                })
            }
        }
        let config = IngressConfig {
            process: ArrivalProcess::Uniform { rate_hz: 20_000.0 },
            queue_cap: 4,
            batch: 2,
            workers: 1,
            ..IngressConfig::default()
        };
        let mut ing = Ingress::start(stm, Arc::new(SlowService), config).unwrap();
        thread::sleep(Duration::from_millis(300));
        ing.shutdown();
        let snap = ing.snapshot();
        assert!(snap.rejected > 0, "queue ceiling must shed load: {snap:?}");
        assert!(snap.completed > 0, "the system must still make progress");
        assert_eq!(snap.offered, snap.accepted + snap.rejected);
        // A shedding window violates any finite p99 target.
        let kpi = snap.delta_since(&IngressSnapshot::default()).kpi(300_000_000);
        assert_eq!(kpi.effective_p99(), u64::MAX);
    }

    #[test]
    fn slo_window_emits_ingress_window_event() {
        let stm = stm();
        let sink = Arc::new(TestSink::new());
        stm.trace_bus().subscribe(sink.clone());
        let service = transfer_service(&stm);
        let mut ing = Ingress::start(stm, service, IngressConfig::default()).unwrap();
        ing.begin_slo_window();
        // The window measures a *delta*, so wait relative to the completions
        // that may have landed before the begin snapshot was taken.
        let base = ing.stats().completed.load(Ordering::Relaxed);
        run_for(&ing, base + 10, Duration::from_secs(10));
        let kpi = ing.end_slo_window();
        ing.shutdown();
        assert!(kpi.completed >= 10);
        assert!(kpi.goodput > 0.0);
        assert!(kpi.p50_ns <= kpi.p99_ns && kpi.p99_ns <= kpi.p999_ns);
        let windows: Vec<_> = sink
            .events()
            .into_iter()
            .filter(|e| matches!(e, TraceEvent::IngressWindow { .. }))
            .collect();
        assert_eq!(windows.len(), 1, "end_slo_window publishes exactly one window event");
        if let TraceEvent::IngressWindow { completed, p99_ns, .. } = windows[0] {
            assert_eq!(completed, kpi.completed);
            assert_eq!(p99_ns, kpi.p99_ns);
        }
    }

    #[test]
    fn shutdown_is_clean_and_idempotent_and_leaves_the_stm_usable() {
        let stm = stm();
        let service = transfer_service(&stm);
        let mut ing = Ingress::start(stm.clone(), service, IngressConfig::default()).unwrap();
        run_for(&ing, 1, Duration::from_secs(10));
        ing.shutdown();
        ing.shutdown();
        // The STM survives the front door: admission reopened, no hook left.
        let b = stm.new_vbox(1i32);
        stm.atomic(|tx| {
            let v = tx.read(&b);
            tx.write(&b, v + 1);
            Ok(())
        })
        .unwrap();
        assert_eq!(stm.read_atomic(&b), 2);
    }

    #[test]
    fn untuned_front_door_keeps_its_commit_stamps_bounded() {
        // No tuner ever opens a window, so nothing drains the stamps: a
        // million commits must leave the ring at its cap, the overwritten
        // ones counted. (The hook is driven through the commit counter the
        // commit path itself calls, so the test does not spend a million
        // transactions' worth of time.)
        let stm = stm();
        let service = transfer_service(&stm);
        let config = IngressConfig {
            process: ArrivalProcess::Uniform { rate_hz: 1.0 },
            ..IngressConfig::default()
        };
        let mut ing = Ingress::start(stm.clone(), service, config).unwrap();
        const COMMITS: u64 = 1_000_000;
        for _ in 0..COMMITS {
            stm.stats().record_commit_top();
        }
        assert_eq!(ing.commits.len(), COMMIT_RING_CAP);
        let dropped = ing.snapshot().commit_stamps_dropped;
        // The idle generator may have slipped a real commit or two in.
        assert!(dropped >= COMMITS - COMMIT_RING_CAP as u64, "dropped {dropped}");
        // A tuner attaching later still gets the freshest stamps, in order.
        let first = ing.wait_commit(1_000_000).expect("ring is full");
        let second = ing.wait_commit(1_000_000).expect("ring is full");
        assert!(first <= second);
        ing.shutdown();
    }

    #[test]
    fn apply_retunes_the_live_front_door() {
        let stm = stm();
        let service = transfer_service(&stm);
        let mut ing = Ingress::start(stm.clone(), service, IngressConfig::default()).unwrap();
        ing.apply(Config::new(2, 3));
        assert_eq!(stm.degree(), ParallelismDegree::new(2, 3));
        assert!(ing.wait_commit(2_000_000_000).is_some(), "commits flow after reconfiguration");
        ing.shutdown();
    }

    #[test]
    fn worker_panics_are_absorbed_and_traced() {
        let plan = FaultPlan::new(77)
            .with_rule(FaultKind::WorkerPanic, FaultRule::with_probability(0.05).budget(5));
        let stm = Stm::new(StmConfig {
            degree: ParallelismDegree::new(4, 2),
            worker_threads: 2,
            fault: Some(Arc::new(plan)),
            ..StmConfig::default()
        });
        let sink = Arc::new(TestSink::new());
        stm.trace_bus().subscribe(sink.clone());
        let service = transfer_service(&stm);
        let config = IngressConfig {
            process: ArrivalProcess::Poisson { rate_hz: 5_000.0 },
            ..IngressConfig::default()
        };
        let mut ing = Ingress::start(stm, service, config).unwrap();
        let deadline = Instant::now() + Duration::from_secs(10);
        while ing.worker_panics() < 5 && Instant::now() < deadline {
            thread::sleep(Duration::from_millis(5));
        }
        run_for(&ing, ing.stats().completed.load(Ordering::Relaxed) + 10, Duration::from_secs(5));
        ing.shutdown();
        assert_eq!(ing.worker_panics(), 5, "fault budget spent");
        assert!(ing.snapshot().completed > 0, "service survives absorbed panics");
        let panicked =
            sink.events().iter().filter(|e| matches!(e, TraceEvent::WorkerPanicked { .. })).count();
        assert_eq!(panicked as u64, 5);
    }
}
