//! Ingress report — closed-loop vs open-loop, the same workload both ways.
//!
//! The coordinated-omission story of DESIGN.md §5i, as a figure: the
//! hot-key-skewed transfer workload (2 ms of permit-held service per
//! request) is driven at the same offered rate by two generators:
//!
//! * **Closed loop** — K paced clients in a request/response loop. When the
//!   system slows, the *schedule slips*: the next request is not issued
//!   until the previous response returns, and latency is timed from the
//!   actual issue instant. The reported p99 covers only the requests the
//!   harness managed to issue — the **survivor p99**.
//! * **Open loop** — the `ingress` front door offers the same Poisson
//!   stream against a fixed arrival schedule and times every request from
//!   its **intended arrival**, whether it queued, completed late, or was
//!   rejected at the queue ceiling.
//!
//! Below capacity the two views agree. At and beyond capacity the closed
//! loop self-throttles to exactly what the system can absorb and its
//! survivor p99 stays flat, while the open-loop intended-arrival p99 grows
//! with the backlog — the blind spot, quantified in the last column.
//!
//! Usage: `cargo run --release -p bench --bin ingress_report -- [--full]
//! [--work-us N] [--clients K]`

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use bench::{banner, Args, Profile};
use ingress::{ArrivalProcess, Ingress, IngressConfig, IngressService, TransferService};
use pnstm::throttle::Permit;
use pnstm::{LatencyHistogram, ParallelismDegree, Stm, StmConfig, StmError};
use workloads::TransferWorkload;

/// Transfer service with `work` of permit-held service time per request
/// (same shape as the `ingress_scaling` bench): capacity is `t / work`,
/// so the parallelism degree — not raw CPU — sets what the front door can
/// absorb, and the comparison survives a loaded 1-core runner.
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

fn make_stm(t: usize, c: usize) -> Stm {
    Stm::new(StmConfig {
        degree: ParallelismDegree::new(t, c),
        worker_threads: 2,
        ..StmConfig::default()
    })
}

struct DriveResult {
    /// Requests completed per second over the measurement window.
    achieved_hz: f64,
    p50_ns: u64,
    p99_ns: u64,
    rejected: u64,
    /// Open loop only: the worker-side (dequeue-timestamped) p99 — what a
    /// closed-loop probe inside the server would report.
    dequeue_p99_ns: u64,
    /// Open loop only: (p50, p99) of push − intended arrival and of
    /// dequeue − push — who the wait ahead of the dequeue belongs to.
    gen_lag_ns: (u64, u64),
    queue_wait_ns: (u64, u64),
}

/// Open loop: the ingress front door at `rate_hz`, measured over one
/// warmed-up window. Latencies are completion − intended arrival.
fn drive_open_loop(
    rate_hz: f64,
    t: usize,
    c: usize,
    work: Duration,
    warmup: Duration,
    window: Duration,
) -> DriveResult {
    let stm = make_stm(t, c);
    let service = Arc::new(TimedTransferService {
        inner: TransferService::new(&stm, 256, 100_000, 0x1234, 256, 2, 100),
        work,
    });
    let config = IngressConfig {
        process: ArrivalProcess::Poisson { rate_hz },
        seed: 7,
        queue_cap: 4_096,
        batch: 8,
        workers: 8,
    };
    let mut ing = Ingress::start(stm, service, config).expect("spawn ingress");
    thread::sleep(warmup);
    let before = ing.snapshot();
    thread::sleep(window);
    let delta = ing.snapshot().delta_since(&before);
    ing.shutdown();
    DriveResult {
        achieved_hz: delta.completed as f64 * 1e9 / window.as_nanos().max(1) as f64,
        p50_ns: delta.intended.quantile(50.0),
        p99_ns: delta.intended.quantile(99.0),
        rejected: delta.rejected,
        dequeue_p99_ns: delta.dequeue.quantile(99.0),
        gen_lag_ns: (delta.gen_lag.quantile(50.0), delta.gen_lag.quantile(99.0)),
        queue_wait_ns: (delta.queue_wait.quantile(50.0), delta.queue_wait.quantile(99.0)),
    }
}

/// Closed loop: `clients` paced request/response clients targeting
/// `rate_hz` in aggregate, against the same workload and the same
/// permit-held service time. A client that falls behind slips its schedule
/// (no catch-up burst) and times each request from its actual issue — the
/// coordinated-omission harness under test.
fn drive_closed_loop(
    rate_hz: f64,
    clients: usize,
    t: usize,
    c: usize,
    work: Duration,
    warmup: Duration,
    window: Duration,
) -> DriveResult {
    let stm = make_stm(t, c);
    let workload = TransferWorkload::new(&stm, 256, 100_000);
    let requests = Arc::new(workload.requests(0x1234, 256, 2, 100));
    let hist = Arc::new(LatencyHistogram::default());
    let stop = Arc::new(AtomicBool::new(false));
    let interval = Duration::from_secs_f64(clients as f64 / rate_hz);

    let handles: Vec<_> = (0..clients)
        .map(|k| {
            let stm = stm.clone();
            let workload = workload.clone();
            let requests = Arc::clone(&requests);
            let hist = Arc::clone(&hist);
            let stop = Arc::clone(&stop);
            thread::spawn(move || {
                let mut idx = k; // disjoint starting points in the stream
                let mut next = Instant::now() + interval.mul_f64(k as f64 / clients as f64);
                while !stop.load(Ordering::Relaxed) {
                    let now = Instant::now();
                    if next > now {
                        thread::sleep(next - now);
                    }
                    let issue = Instant::now();
                    let Some((permit, _)) = stm.throttle().admit_top_level() else { break };
                    thread::sleep(work);
                    let req = &requests[idx % requests.len()];
                    idx += clients;
                    if workload.run_admitted(&stm, permit, req).is_ok() {
                        hist.record(issue.elapsed().as_nanos() as u64);
                    }
                    // The closed-loop tell: the schedule is relative to the
                    // *response*, so a slow system silently sheds load
                    // instead of accumulating a measurable backlog.
                    next += interval;
                    let now = Instant::now();
                    if next < now {
                        next = now;
                    }
                }
            })
        })
        .collect();

    thread::sleep(warmup);
    let before = hist.snapshot();
    thread::sleep(window);
    let delta = hist.snapshot().delta_since(&before);
    stop.store(true, Ordering::Relaxed);
    for h in handles {
        let _ = h.join();
    }
    DriveResult {
        achieved_hz: delta.count as f64 * 1e9 / window.as_nanos().max(1) as f64,
        p50_ns: delta.quantile(50.0),
        p99_ns: delta.quantile(99.0),
        rejected: 0, // a closed loop never rejects — it just never offers
        dequeue_p99_ns: 0,
        gen_lag_ns: (0, 0),
        queue_wait_ns: (0, 0),
    }
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

fn main() {
    let args = Args::from_env();
    let profile = Profile::from_args(&args);
    let work = Duration::from_micros(args.get_num("work-us", 2_000));
    let clients: usize = args.get_num("clients", 8);
    let (warmup, window) = match profile {
        Profile::Quick => (Duration::from_millis(150), Duration::from_millis(600)),
        Profile::Full => (Duration::from_millis(300), Duration::from_millis(1_500)),
    };

    banner("Ingress — closed-loop (survivor) vs open-loop (intended-arrival) latency");

    // Degree (4, 2): capacity = t / work. The rungs sit below, at, and
    // 2x beyond it, so the last rung is a sustained overload.
    let (t, c) = (4, 2);
    let capacity_hz = t as f64 / work.as_secs_f64();
    println!(
        "\nworkload: skewed transfers, {} of permit-held service; degree ({t}, {c}) => \
         capacity {capacity_hz:.0} req/s; {clients} closed-loop clients\n",
        humantime(work),
    );
    println!(
        "{:>9} | {:>12} {:>9} {:>9} | {:>12} {:>9} {:>9} {:>9} {:>7} | {:>10}",
        "offered",
        "closed ach.",
        "p50",
        "p99",
        "open ach.",
        "p50",
        "p99",
        "deq p99",
        "rej",
        "blind spot"
    );
    println!(
        "{:>9} | {:>12} {:>9} {:>9} | {:>12} {:>9} {:>9} {:>9} {:>7} | {:>10}",
        "req/s", "req/s", "ms", "ms", "req/s", "ms", "ms", "ms", "", "x"
    );

    let mut overload_blind_spot = 0.0f64;
    for mult in [0.5, 1.0, 2.0] {
        let rate = mult * capacity_hz;
        let closed = drive_closed_loop(rate, clients, t, c, work, warmup, window);
        let open = drive_open_loop(rate, t, c, work, warmup, window);
        // How much worse the true (intended-arrival) tail is than what the
        // closed-loop harness reports for the same offered load.
        let blind_spot = open.p99_ns as f64 / closed.p99_ns.max(1) as f64;
        if mult >= 2.0 {
            overload_blind_spot = blind_spot;
        }
        println!(
            "{:>9.0} | {:>12.0} {:>9.2} {:>9.2} | {:>12.0} {:>9.2} {:>9.2} {:>9.2} {:>7} | {:>9.1}x",
            rate,
            closed.achieved_hz,
            ms(closed.p50_ns),
            ms(closed.p99_ns),
            open.achieved_hz,
            ms(open.p50_ns),
            ms(open.p99_ns),
            ms(open.dequeue_p99_ns),
            open.rejected,
            blind_spot,
        );
        println!(
            "{:>9} | open-loop wait ahead of the dequeue: generator lag p50 {:.3} / p99 {:.3} ms, \
             queue wait p50 {:.3} / p99 {:.3} ms",
            "",
            ms(open.gen_lag_ns.0),
            ms(open.gen_lag_ns.1),
            ms(open.queue_wait_ns.0),
            ms(open.queue_wait_ns.1),
        );
    }

    println!(
        "\nAt 2x capacity the paced closed loop slips its schedule down to what the \
         system absorbs,\nso its survivor p99 stays near the service time while the \
         open-loop intended-arrival p99\ncarries the whole queueing backlog: the \
         closed-loop harness under-reports the tail by {overload_blind_spot:.1}x."
    );
}

fn humantime(d: Duration) -> String {
    if d.as_millis() >= 1 {
        format!("{} ms", d.as_millis())
    } else {
        format!("{} us", d.as_micros())
    }
}
