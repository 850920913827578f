//! Open-loop ingress latency SLOs: p50/p99/p999 + goodput per arrival-rate
//! rung, static-degree ladder vs. AutoPN SLO tuning, and the
//! coordinated-omission self-check.
//!
//! The front door offers a Poisson stream of hot-key-skewed transfer
//! requests; each request holds its top-level permit for `--work-us` of
//! modelled service time (a sleep, so the measurement survives a loaded
//! 1-core runner) before committing its transfer batch. Capacity is
//! therefore `min(workers, t) / work`: the parallelism degree directly sets
//! how much offered load the system can absorb, and an undersized `t` turns
//! queueing delay — invisible to closed-loop probes — into tail latency.
//!
//! Three experiments:
//!
//! 1. **Rate ladder** (reference degree): p50/p99/p999 + goodput per
//!    arrival-rate rung — the headline numbers of `BENCH_ingress_scaling.json`.
//! 2. **Degree ladder + SLO tuning** (gate): at a rate the best degree can
//!    sustain, measure open-loop p99 at each static degree, then let the
//!    controller tune `(t, c)` against "maximize goodput s.t. p99 ≤ target"
//!    via [`autopn::SloKpi`]. Gate: tuned p99 ≤ the worst static p99.
//! 3. **Coordinated omission** (gate): under an injected 1 ms commit stall,
//!    p99 from *intended-arrival* timestamps must be ≥ p99 from dequeue
//!    timestamps — the dequeue view provably understates the tail.
//!
//! Usage (cargo bench -p bench --bench ingress_scaling -- [flags]):
//!   --workers N     ingress worker threads (default 8)
//!   --work-us N     permit-held service time per request, µs (default 2000)
//!   --measure-ms N  measurement window per rung (default 1500)
//!   --warmup-ms N   warmup before each window (default 300)
//!   --target-ms N   p99 SLO target for tuning, ms (default 50)
//!   --check         assert both gates
//!   --smoke         short windows that still exercise every rung and gate

use std::sync::Arc;
use std::thread;
use std::time::Duration;

use autopn::monitor::AdaptiveMonitor;
use autopn::{
    AutoPn, AutoPnConfig, Config as TuneConfig, Controller, SearchSpace, SloTunableSystem,
};
use ingress::{ArrivalProcess, Ingress, IngressConfig, IngressService, TransferService};
use pnstm::throttle::Permit;
use pnstm::{FaultKind, FaultPlan, FaultRule, ParallelismDegree, Stm, StmConfig, StmError};

/// Static `(t, c)` rungs for the gate comparison; the worst is the
/// latency-blind closed-loop favourite's opposite — a starved degree.
const DEGREE_LADDER: [(usize, usize); 4] = [(1, 1), (2, 2), (4, 2), (8, 2)];

struct BenchConfig {
    workers: usize,
    work_us: u64,
    measure_ms: u64,
    warmup_ms: u64,
    target_ms: u64,
    check: bool,
    smoke: bool,
}

fn parse_args() -> BenchConfig {
    let mut cfg = BenchConfig {
        workers: 8,
        work_us: 2_000,
        measure_ms: 1_500,
        warmup_ms: 300,
        target_ms: 50,
        check: false,
        smoke: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| args.next().unwrap_or_else(|| panic!("{name} needs a value"));
        match arg.as_str() {
            "--workers" => cfg.workers = value("--workers").parse().expect("--workers"),
            "--work-us" => cfg.work_us = value("--work-us").parse().expect("--work-us"),
            "--measure-ms" => cfg.measure_ms = value("--measure-ms").parse().expect("--measure-ms"),
            "--warmup-ms" => cfg.warmup_ms = value("--warmup-ms").parse().expect("--warmup-ms"),
            "--target-ms" => cfg.target_ms = value("--target-ms").parse().expect("--target-ms"),
            "--check" => cfg.check = true,
            "--smoke" => cfg.smoke = true,
            "--bench" | "--quick" => {} // cargo-bench passthrough flags
            other => panic!("unknown flag {other:?}"),
        }
    }
    if cfg.smoke {
        // Service time is a sleep, so capacity ratios — and therefore the
        // queueing behaviour the gates assert — survive a 1-core runner.
        cfg.workers = 8;
        cfg.work_us = 2_000;
        cfg.measure_ms = 600;
        cfg.warmup_ms = 150;
        cfg.target_ms = 50;
    }
    cfg
}

/// Transfer service with `work` of permit-held service time per request:
/// the permit is occupied for the full service time, so throughput is
/// gated by the parallelism degree, not by raw CPU.
struct TimedTransferService {
    inner: TransferService,
    work: Duration,
}

impl IngressService for TimedTransferService {
    fn run(&self, stm: &Stm, permit: Permit, request: u64) -> Result<(), StmError> {
        thread::sleep(self.work);
        self.inner.run(stm, permit, request)
    }
}

fn make_stm(t: usize, c: usize, fault: Option<Arc<FaultPlan>>) -> Stm {
    Stm::new(StmConfig {
        degree: ParallelismDegree::new(t, c),
        worker_threads: 2,
        fault,
        ..StmConfig::default()
    })
}

fn start_ingress(
    cfg: &BenchConfig,
    rate_hz: f64,
    t: usize,
    c: usize,
    fault: Option<Arc<FaultPlan>>,
) -> Ingress {
    let stm = make_stm(t, c, fault);
    let service = Arc::new(TimedTransferService {
        inner: TransferService::new(&stm, 256, 100_000, 0x1234, 256, 2, 100),
        work: Duration::from_micros(cfg.work_us),
    });
    let config = IngressConfig {
        process: ArrivalProcess::Poisson { rate_hz },
        seed: 7,
        queue_cap: 4_096,
        batch: 8,
        workers: cfg.workers,
    };
    Ingress::start(stm, service, config).expect("spawn ingress")
}

/// One warmed-up measurement window on a running front door.
fn measure(
    ing: &Ingress,
    warmup_ms: u64,
    measure_ms: u64,
) -> (autopn::SloKpi, ingress::IngressSnapshot) {
    thread::sleep(Duration::from_millis(warmup_ms));
    let before = ing.snapshot();
    thread::sleep(Duration::from_millis(measure_ms));
    let delta = ing.snapshot().delta_since(&before);
    (delta.kpi(measure_ms * 1_000_000), delta)
}

fn main() {
    let cfg = parse_args();
    println!(
        "{{\"bench\":\"ingress_scaling\",\"workers\":{},\"work_us\":{},\"measure_ms\":{},\
         \"target_ms\":{},\"smoke\":{}}}",
        cfg.workers, cfg.work_us, cfg.measure_ms, cfg.target_ms, cfg.smoke
    );
    let target_ns = cfg.target_ms * 1_000_000;
    // With work = 2 ms a permit serves ~500 req/s: t=8 sustains 4000/s,
    // t=1 only 500/s. 800/s is sustainable for t >= 2 and drowns t = 1.
    let per_permit_hz = 1e6 / cfg.work_us as f64;
    let gate_rate = 1.6 * per_permit_hz;

    // ------------------------------------------------------------------
    // 1. Arrival-rate ladder at the reference degree (8, 2).
    // ------------------------------------------------------------------
    let rate_ladder = [0.5 * per_permit_hz, per_permit_hz, 2.0 * per_permit_hz];
    let mut rung_summaries = Vec::new();
    for &rate in &rate_ladder {
        let mut ing = start_ingress(&cfg, rate, 8, 2, None);
        let (kpi, delta) = measure(&ing, cfg.warmup_ms, cfg.measure_ms);
        ing.publish_window(&ingress::IngressSnapshot::default(), kpi.window_ns);
        ing.shutdown();
        // The last two fields say where the wait ahead of the dequeue went
        // (reported, not gated): generator lateness vs. queue residence.
        println!(
            "{{\"mode\":\"rate\",\"rate_hz\":{rate:.0},\"offered\":{},\"completed\":{},\
             \"rejected\":{},\"goodput\":{:.0},\"p50_ns\":{},\"p99_ns\":{},\"p999_ns\":{},\
             \"gen_lag_p50_ns\":{},\"queue_wait_p50_ns\":{}}}",
            kpi.offered,
            kpi.completed,
            kpi.rejected,
            kpi.goodput,
            kpi.p50_ns,
            kpi.p99_ns,
            kpi.p999_ns,
            delta.gen_lag.quantile(50.0),
            delta.queue_wait.quantile(50.0)
        );
        rung_summaries.push(format!(
            "rate={rate:.0}:goodput={:.0},p50={},p99={},p999={}",
            kpi.goodput, kpi.p50_ns, kpi.p99_ns, kpi.p999_ns
        ));
    }

    // ------------------------------------------------------------------
    // 2. Static-degree ladder vs. SLO tuning at the gate rate.
    // ------------------------------------------------------------------
    let mut ing = start_ingress(&cfg, gate_rate, 8, 2, None);
    let mut worst_static: Option<(usize, usize, u64)> = None;
    for (t, c) in DEGREE_LADDER {
        use autopn::TunableSystem;
        ing.apply(TuneConfig::new(t, c));
        let (kpi, _) = measure(&ing, cfg.warmup_ms, cfg.measure_ms);
        println!(
            "{{\"mode\":\"static\",\"t\":{t},\"c\":{c},\"goodput\":{:.0},\"p99_ns\":{},\
             \"rejected\":{}}}",
            kpi.goodput, kpi.p99_ns, kpi.rejected
        );
        if worst_static.map(|(_, _, p)| kpi.p99_ns > p).unwrap_or(true) {
            worst_static = Some((t, c, kpi.p99_ns));
        }
    }
    let (worst_t, worst_c, worst_p99) = worst_static.expect("ladder measured");

    // Let AutoPN tune (t, c) against "maximize goodput s.t. p99 <= target".
    let mut tuner = AutoPn::new(SearchSpace::new(16), AutoPnConfig::default());
    let mut policy = AdaptiveMonitor::new(0.25, 8);
    let outcome = Controller::tune_slo(&mut ing, &mut tuner, &mut policy, target_ns);
    // A fresh window at the chosen configuration (the controller leaves it
    // applied) gives the apples-to-apples tuned p99.
    ing.begin_slo_window();
    thread::sleep(Duration::from_millis(cfg.warmup_ms + cfg.measure_ms));
    let tuned_kpi = ing.end_slo_window();
    ing.shutdown();
    println!(
        "{{\"mode\":\"tuned\",\"t\":{},\"c\":{},\"meets_target\":{},\"goodput\":{:.0},\
         \"p99_ns\":{},\"worst_static_t\":{worst_t},\"worst_static_c\":{worst_c},\
         \"worst_static_p99_ns\":{worst_p99}}}",
        outcome.best.t, outcome.best.c, outcome.meets_target, tuned_kpi.goodput, tuned_kpi.p99_ns
    );

    // ------------------------------------------------------------------
    // 3. Coordinated-omission self-check under a 1 ms injected stall.
    // ------------------------------------------------------------------
    let plan = FaultPlan::new(0xC0)
        .with_rule(FaultKind::CommitHold, FaultRule::with_probability(0.2).delay_ns(1_000_000));
    let mut ing = start_ingress(&cfg, per_permit_hz, 2, 2, Some(Arc::new(plan)));
    let (_, co_delta) = measure(&ing, cfg.warmup_ms, cfg.measure_ms);
    ing.shutdown();
    let intended_p99 = co_delta.intended.quantile(99.0);
    let dequeue_p99 = co_delta.dequeue.quantile(99.0);
    println!(
        "{{\"mode\":\"coordinated_omission\",\"stall_ns\":1000000,\"completed\":{},\
         \"intended_p99_ns\":{intended_p99},\"dequeue_p99_ns\":{dequeue_p99}}}",
        co_delta.completed
    );

    if cfg.check {
        assert!(
            tuned_kpi.p99_ns <= worst_p99,
            "SLO-tuned ({}, {}) open-loop p99 {}ns exceeds the worst static degree \
             ({worst_t}, {worst_c}) p99 {worst_p99}ns — tuning against SloKpi must not \
             lose to the worst of the ladder",
            outcome.best.t,
            outcome.best.c,
            tuned_kpi.p99_ns
        );
        assert!(
            co_delta.completed > 0 && intended_p99 >= dequeue_p99,
            "intended-arrival p99 {intended_p99}ns fell below dequeue-timestamped p99 \
             {dequeue_p99}ns under a 1 ms stall — the coordinated-omission-free view can \
             never report a better tail than the closed-loop view"
        );
        println!(
            "CHECK PASSED: tuned p99 {}ns <= worst static p99 {worst_p99}ns; \
             intended p99 {intended_p99}ns >= dequeue p99 {dequeue_p99}ns",
            tuned_kpi.p99_ns
        );
    }

    let config = format!(
        "workers={} work_us={} measure_ms={} target_ms={} smoke={} [{}]",
        cfg.workers,
        cfg.work_us,
        cfg.measure_ms,
        cfg.target_ms,
        cfg.smoke,
        rung_summaries.join(" ")
    );
    let ratio = worst_p99 as f64 / tuned_kpi.p99_ns.max(1) as f64;
    match bench::write_bench_report("ingress_scaling", &config, tuned_kpi.goodput, ratio) {
        Ok(path) => println!("report: {}", path.display()),
        Err(e) => eprintln!("report write failed: {e}"),
    }
}
