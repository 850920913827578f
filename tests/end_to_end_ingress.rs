//! End-to-end integration of the open-loop ingress front door: real
//! generator/worker threads over a live PN-STM, the AutoPN controller
//! tuning `(t, c)` against the SLO KPI, typed backpressure at the queue
//! ceiling, and the chaos scenarios (`ClockJitter`, `WorkerPanic`) the
//! front door must absorb.

use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use autopn::monitor::AdaptiveMonitor;
use autopn::{AutoPn, AutoPnConfig, Controller, SearchSpace, SloTunableSystem};
use ingress::{ArrivalProcess, Ingress, IngressConfig, IngressService, TransferService};
use pnstm::throttle::Permit;
use pnstm::{
    FaultKind, FaultPlan, FaultRule, ParallelismDegree, Stm, StmConfig, StmError, TestSink,
    TraceEvent,
};

fn live_stm(fault: Option<Arc<FaultPlan>>) -> Stm {
    Stm::new(StmConfig {
        degree: ParallelismDegree::new(2, 2),
        worker_threads: 2,
        fault,
        ..StmConfig::default()
    })
}

/// Transfer service holding its permit for `work` of modelled service time,
/// so capacity is set by the parallelism degree (sleep-based: stable on a
/// 1-core CI runner).
struct TimedService {
    inner: TransferService,
    work: Duration,
}

impl IngressService for TimedService {
    fn run(&self, stm: &Stm, permit: Permit, request: u64) -> Result<(), StmError> {
        thread::sleep(self.work);
        self.inner.run(stm, permit, request)
    }
}

fn start_front_door(stm: &Stm, rate_hz: f64, work_us: u64, queue_cap: usize) -> Ingress {
    let service = Arc::new(TimedService {
        inner: TransferService::new(stm, 128, 50_000, 3, 128, 2, 100),
        work: Duration::from_micros(work_us),
    });
    let config = IngressConfig {
        process: ArrivalProcess::Poisson { rate_hz },
        seed: 11,
        queue_cap,
        batch: 4,
        workers: 4,
    };
    Ingress::start(stm.clone(), service, config).expect("spawn ingress")
}

fn wait_completed(ing: &Ingress, n: u64, cap: Duration) {
    let deadline = Instant::now() + cap;
    while ing.snapshot().completed < n && Instant::now() < deadline {
        thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn slo_tuning_on_the_live_front_door_applies_the_chosen_degree() {
    let stm = live_stm(None);
    let sink = Arc::new(TestSink::new());
    stm.trace_bus().subscribe(sink.clone());
    let mut ing = start_front_door(&stm, 800.0, 1_000, 4_096);
    wait_completed(&ing, 20, Duration::from_secs(10));

    let mut tuner = AutoPn::new(SearchSpace::new(4), AutoPnConfig::default());
    let mut policy = AdaptiveMonitor::new(0.3, 4); // loose: CI machines are tiny
    let outcome = Controller::tune_slo(&mut ing, &mut tuner, &mut policy, 100_000_000);
    ing.shutdown();

    assert!(!outcome.explored.is_empty(), "the session must explore configurations");
    assert!(SearchSpace::new(4).contains(outcome.best));
    assert_eq!(outcome.p99_target_ns, 100_000_000);
    assert_eq!(
        stm.degree(),
        ParallelismDegree::new(outcome.best.t, outcome.best.c),
        "the controller must leave the chosen configuration applied"
    );
    // Every explored configuration carried a full SLO KPI window, and each
    // window was published on the trace bus as an `ingress_window` event.
    for (_, _, kpi) in &outcome.explored {
        assert!(kpi.window_ns > 0);
        assert!(kpi.p50_ns <= kpi.p99_ns && kpi.p99_ns <= kpi.p999_ns);
    }
    let windows =
        sink.events().iter().filter(|e| matches!(e, TraceEvent::IngressWindow { .. })).count();
    assert!(
        windows >= outcome.explored.len(),
        "each SLO window must publish an ingress_window event ({} windows, {} explored)",
        windows,
        outcome.explored.len()
    );
}

#[test]
fn queue_ceiling_backpressure_poisons_the_window_p99() {
    // 1 permit, 3 ms per request => ~330/s capacity; 5000/s offered into a
    // 4-slot queue must shed nearly everything.
    let stm = Stm::new(StmConfig {
        degree: ParallelismDegree::new(1, 1),
        worker_threads: 2,
        ..StmConfig::default()
    });
    let mut ing = start_front_door(&stm, 5_000.0, 3_000, 4);
    ing.begin_slo_window();
    thread::sleep(Duration::from_millis(400));
    let kpi = ing.end_slo_window();
    ing.shutdown();
    let snap = ing.snapshot();
    assert!(snap.rejected > 0, "the ceiling must reject: {snap:?}");
    assert_eq!(snap.offered, snap.accepted + snap.rejected);
    assert!(kpi.rejected > 0);
    assert_eq!(
        kpi.effective_p99(),
        u64::MAX,
        "a shedding window must violate every finite p99 target"
    );
    assert!(!kpi.meets(u64::MAX - 1));
}

#[test]
fn chaos_clock_jitter_cannot_break_latency_accounting() {
    let plan =
        Arc::new(FaultPlan::new(0x11).with_rule(
            FaultKind::ClockJitter,
            FaultRule::with_probability(0.5).delay_ns(5_000_000),
        ));
    let stm = live_stm(Some(plan.clone()));
    let mut ing = start_front_door(&stm, 1_500.0, 200, 4_096);
    wait_completed(&ing, 100, Duration::from_secs(10));
    ing.shutdown();
    let snap = ing.snapshot();
    assert!(snap.completed >= 100, "progress under jitter: {snap:?}");
    assert!(plan.injected(FaultKind::ClockJitter) > 0, "the jitter plan must actually fire");
    // Jitter perturbs individual samples but can never produce inverted
    // quantiles (the histogram is monotone by construction) or lose counts.
    assert_eq!(snap.intended.count, snap.completed);
    assert_eq!(snap.dequeue.count, snap.completed);
    let mut last = 0;
    for p in [1.0, 50.0, 99.0, 99.9, 100.0] {
        let q = snap.intended.quantile(p);
        assert!(q >= last);
        last = q;
    }
}

#[test]
fn chaos_worker_panics_are_absorbed_and_the_stream_continues() {
    let plan = Arc::new(
        FaultPlan::new(0x22)
            .with_rule(FaultKind::WorkerPanic, FaultRule::with_probability(0.05).budget(6)),
    );
    let stm = live_stm(Some(plan.clone()));
    let sink = Arc::new(TestSink::new());
    stm.trace_bus().subscribe(sink.clone());
    let mut ing = start_front_door(&stm, 2_000.0, 100, 4_096);
    // Wait for the full panic budget to be spent, then demand further
    // progress: the survivors must keep draining the queue.
    let deadline = Instant::now() + Duration::from_secs(10);
    while ing.worker_panics() < 6 && Instant::now() < deadline {
        thread::sleep(Duration::from_millis(10));
    }
    let completed_at_budget = ing.snapshot().completed;
    wait_completed(&ing, completed_at_budget + 50, Duration::from_secs(10));
    ing.shutdown();
    let snap = ing.snapshot();
    assert_eq!(ing.worker_panics(), 6, "every budgeted panic absorbed");
    assert!(
        snap.completed >= completed_at_budget + 50,
        "the stream must continue after the panic budget is spent: {snap:?}"
    );
    assert!(snap.failed >= 6, "panicked requests count as failures");
    let panicked =
        sink.events().iter().filter(|e| matches!(e, TraceEvent::WorkerPanicked { .. })).count();
    assert_eq!(panicked, 6, "every absorbed panic is published on the trace bus");
}

#[test]
fn shutdown_under_load_is_bounded_and_reopens_admission() {
    let stm = live_stm(None);
    // Offered load far above capacity: the queue is full and workers are
    // parked in admission when shutdown hits.
    let mut ing = start_front_door(&stm, 10_000.0, 2_000, 64);
    thread::sleep(Duration::from_millis(200));
    let start = Instant::now();
    ing.shutdown();
    assert!(start.elapsed() < Duration::from_secs(5), "shutdown must not hang on parked workers");
    // The STM is reusable afterwards: admission reopened, hook detached.
    let b = stm.new_vbox(0u64);
    stm.atomic(|tx| {
        let v = tx.read(&b);
        tx.write(&b, v + 1);
        Ok(())
    })
    .expect("admission must be reopened after ingress shutdown");
    assert_eq!(stm.read_atomic(&b), 1);
}
