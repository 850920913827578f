//! Scheduler scaling: work-stealing vs. mutex-queue child-task dispatch.
//!
//! Each of `t` application threads runs fork/join transactions that fan out
//! `c` trivial children — the fine-grained-task workload the work-stealing
//! scheduler is built for. Every task dispatch is inflated deterministically
//! with a `ChildStall` fault (a sleep taken at the scheduler's task-claim
//! site). Under [`Oracle::MutexSched`] the stall is taken while holding the
//! batch's queue mutex, so sibling dispatches of one batch queue behind each
//! other; under the shipped work-stealing pool the claim is a lock-free CAS and
//! the stall lands after it, so the `c` holds of a batch overlap — which
//! makes the dispatch-serialization difference visible even on a single-core
//! runner, exactly like `commit_scaling` does for the commit path and
//! `read_scaling` for the read path.
//!
//! Usage (cargo bench -p bench --bench sched_scaling -- [flags]):
//!   --children 1,2,4,8  children per transaction for the held comparison
//!   --threads N         top-level application threads (default 8)
//!   --txns N            fork/join txns per thread in held runs (default 4)
//!   --hold-us N         injected hold per task dispatch, µs (default 1000)
//!   --raw-txns N        txns for the raw (no-hold) t=1,c=1 runs (default 4000)
//!   --check             assert the acceptance bar: >=4x at t=8,c=8,
//!                       <=5% regression at t=1,c=1 raw
//!   --smoke             tiny run that only proves the bench executes

use std::sync::{Arc, Barrier};
use std::time::Instant;

use pnstm::{child, FaultKind, FaultPlan, FaultRule, Oracle, ParallelismDegree, Stm, StmConfig};

struct Config {
    children: Vec<usize>,
    threads: usize,
    txns: u64,
    hold_us: u64,
    raw_txns: u64,
    check: bool,
    smoke: bool,
}

fn parse_args() -> Config {
    let mut cfg = Config {
        children: vec![1, 2, 4, 8],
        threads: 8,
        txns: 4,
        hold_us: 1_000,
        raw_txns: 10_000,
        check: false,
        smoke: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| args.next().unwrap_or_else(|| panic!("{name} needs a value"));
        match arg.as_str() {
            "--children" => {
                cfg.children = value("--children")
                    .split(',')
                    .map(|s| s.parse().expect("--children takes a comma list"))
                    .collect();
            }
            "--threads" => cfg.threads = value("--threads").parse().expect("--threads"),
            "--txns" => cfg.txns = value("--txns").parse().expect("--txns"),
            "--hold-us" => cfg.hold_us = value("--hold-us").parse().expect("--hold-us"),
            "--raw-txns" => cfg.raw_txns = value("--raw-txns").parse().expect("--raw-txns"),
            "--check" => cfg.check = true,
            "--smoke" => cfg.smoke = true,
            "--bench" | "--quick" => {} // cargo-bench passthrough flags
            other => panic!("unknown flag {other:?}"),
        }
    }
    if cfg.smoke {
        // Stalls are sleeps, so even a 1-core runner overlaps a full t=8,c=8
        // fan-out; keeping it makes `--smoke --check` a real assertion.
        cfg.children = vec![1, 8];
        cfg.threads = 8;
        cfg.txns = 4;
        cfg.hold_us = 1_000;
        cfg.raw_txns = 10_000;
    }
    cfg
}

/// The work-stealing scheduler (`None`) or the [`Oracle::MutexSched`] pair.
const STEALING: Option<Oracle> = None;
const MUTEX: Option<Oracle> = Some(Oracle::MutexSched);

fn make_stm(mode: Option<Oracle>, t: usize, c: usize, hold_us: u64) -> Stm {
    let fault = (hold_us > 0).then(|| {
        Arc::new(FaultPlan::new(13).with_rule(
            FaultKind::ChildStall,
            FaultRule::with_probability(1.0).delay_ns(hold_us * 1_000),
        ))
    });
    let config = StmConfig {
        degree: ParallelismDegree::new(t.max(1), c.max(1)),
        // The parent is one executor per tree; helpers cover the rest.
        worker_threads: t * c.saturating_sub(1),
        fault,
        ..StmConfig::default()
    };
    Stm::with_oracle(config, mode)
}

/// `t` threads each run `txns` fork/join transactions fanning out `c`
/// trivial children; return aggregate child dispatches/second.
fn run(mode: Option<Oracle>, t: usize, c: usize, txns: u64, hold_us: u64) -> f64 {
    let stm = make_stm(mode, t, c, hold_us);
    let barrier = Arc::new(Barrier::new(t + 1));
    let handles: Vec<_> = (0..t)
        .map(|_| {
            let stm = stm.clone();
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                barrier.wait();
                for _ in 0..txns {
                    stm.atomic(|tx| {
                        let tasks = (0..c).map(|i| child(move |_tx| Ok(i as u64))).collect();
                        let sums = tx.parallel(tasks)?;
                        let total: u64 = sums.into_iter().sum();
                        assert_eq!(total, (c as u64 * (c as u64 - 1)) / 2, "a child ran amiss");
                        Ok(())
                    })
                    .expect("fork/join txn commits");
                }
            })
        })
        .collect();
    // Start the clock *before* releasing the barrier: if it started after,
    // a descheduled main thread could time-stamp the start after the workers
    // already finished, yielding an absurd throughput sample that `best_of`
    // would then keep. Started here, `elapsed` can only over-estimate.
    let start = Instant::now();
    barrier.wait();
    for h in handles {
        h.join().unwrap();
    }
    let elapsed = start.elapsed().as_secs_f64();
    (t as u64 * txns * c as u64) as f64 / elapsed
}

fn main() {
    let cfg = parse_args();

    println!("# sched_scaling: work-stealing vs mutex-queue child dispatch");
    println!(
        "# t={} threads, {} txns/thread, {} us injected hold per task dispatch",
        cfg.threads, cfg.txns, cfg.hold_us
    );

    let mut held: Vec<(usize, f64, f64)> = Vec::new();
    for &c in &cfg.children {
        let stealing = run(STEALING, cfg.threads, c, cfg.txns, cfg.hold_us);
        let mutex = run(MUTEX, cfg.threads, c, cfg.txns, cfg.hold_us);
        let ratio = stealing / mutex;
        println!(
            "{{\"mode\":\"held\",\"threads\":{},\"children\":{c},\
             \"stealing_dps\":{stealing:.1},\"mutex_dps\":{mutex:.1},\"speedup\":{ratio:.2}}}",
            cfg.threads
        );
        held.push((c, stealing, mutex));
    }

    // Raw t=1,c=1 dispatch cost, no injected hold: the deque and injector
    // machinery must not tax the degenerate single-child case. The reps are
    // interleaved pairwise and the gate uses the median pairwise ratio —
    // a transient background load then lands on both sides of a pair instead
    // of deflating one mode's whole sample like best-of-each-side would.
    let raw_pairs = if cfg.smoke { 3 } else { 5 };
    let mut raw_stealing = f64::MIN;
    let mut raw_mutex = f64::MIN;
    let mut ratios = Vec::new();
    for _ in 0..raw_pairs {
        let s = run(STEALING, 1, 1, cfg.raw_txns, 0);
        let m = run(MUTEX, 1, 1, cfg.raw_txns, 0);
        raw_stealing = raw_stealing.max(s);
        raw_mutex = raw_mutex.max(m);
        ratios.push(s / m);
    }
    let raw_ratio = bench::paired_median(&ratios);
    println!(
        "{{\"mode\":\"raw\",\"threads\":1,\"children\":1,\"stealing_dps\":{raw_stealing:.0},\
         \"mutex_dps\":{raw_mutex:.0},\"ratio\":{raw_ratio:.3}}}"
    );

    if cfg.check {
        let (c, stealing, mutex) = *held.last().expect("at least one child count");
        let speedup = stealing / mutex;
        assert!(c >= 8, "--check needs the child list to reach 8 (got max c = {c})");
        assert!(cfg.threads >= 8, "--check needs t >= 8 (got t = {})", cfg.threads);
        assert!(
            speedup >= 4.0,
            "work-stealing dispatch at t={},c={c} is only {speedup:.2}x the mutex pool \
             (need >=4x)",
            cfg.threads
        );
        assert!(
            raw_ratio >= 0.95,
            "work-stealing path regresses uncontended t=1,c=1 dispatch by more than 5% \
             (stealing/mutex = {raw_ratio:.3})"
        );
        println!(
            "CHECK PASSED: {speedup:.2}x at t={},c={c}, raw t=1,c=1 ratio {raw_ratio:.3}",
            cfg.threads
        );
        let config = format!(
            "t={},c={c}, txns/thread={}, hold_us={}, raw t=1,c=1 ratio {raw_ratio:.3}",
            cfg.threads, cfg.txns, cfg.hold_us
        );
        match bench::write_bench_report("sched_scaling", &config, stealing, speedup) {
            Ok(path) => println!("# report: {}", path.display()),
            Err(e) => eprintln!("warning: could not write bench report: {e}"),
        }
    }
}
