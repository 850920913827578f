//! Commit-path scaling: striped vs. global-lock commit throughput.
//!
//! Each thread owns a private set of vboxes deliberately allocated on its own
//! commit stripe, so write sets are disjoint at stripe granularity — the
//! workload the striped path is supposed to commit fully in parallel. The
//! commit critical section is inflated deterministically with a
//! `CommitHold` fault (a sleep taken while holding the commit locks), which
//! makes the serialization behaviour of the two paths visible even on a
//! single-core runner: under the global lock the holds queue, under striping
//! they overlap.
//!
//! Usage (cargo bench -p bench --bench commit_scaling -- [flags]):
//!   --threads 1,2,4,8   thread counts for the held comparison (default)
//!   --txns N            commits per thread in held runs (default 40)
//!   --hold-us N         injected hold per commit, µs (default 2000)
//!   --raw-txns N        commits for the raw (no-hold) t=1 runs (default 60000)
//!   --check             assert the acceptance bar: >=2x at the largest t,
//!                       <=5% regression at t=1 raw
//!   --smoke             seconds-long run (t = 1 and 8 only) that `--check`
//!                       can still gate

use std::collections::HashSet;
use std::sync::{Arc, Barrier};
use std::time::Instant;

use pnstm::{
    stripe_of, FaultKind, FaultPlan, FaultRule, Oracle, ParallelismDegree, Stm, StmConfig, VBox,
};

const BOXES_PER_THREAD: usize = 4;

struct Config {
    threads: Vec<usize>,
    txns: u64,
    hold_us: u64,
    raw_txns: u64,
    check: bool,
    smoke: bool,
}

fn parse_args() -> Config {
    let mut cfg = Config {
        threads: vec![1, 2, 4, 8],
        txns: 40,
        hold_us: 2_000,
        raw_txns: 60_000,
        check: false,
        smoke: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| args.next().unwrap_or_else(|| panic!("{name} needs a value"));
        match arg.as_str() {
            "--threads" => {
                cfg.threads = value("--threads")
                    .split(',')
                    .map(|s| s.parse().expect("--threads takes a comma list"))
                    .collect();
            }
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
        // Holds are sleeps, so even a 1-core runner overlaps eight striped
        // commits; keeping t = 8 makes `--smoke --check` a real assertion.
        cfg.threads = vec![1, 8];
        cfg.txns = 8;
        cfg.hold_us = 2_000;
        cfg.raw_txns = 20_000;
    }
    cfg
}

/// Striped commit (`None`) or the [`Oracle::GlobalLock`] baseline.
const STRIPED: Option<Oracle> = None;
const GLOBAL: Option<Oracle> = Some(Oracle::GlobalLock);

fn make_stm(path: Option<Oracle>, threads: usize, hold_us: u64) -> Stm {
    let fault = (hold_us > 0).then(|| {
        Arc::new(FaultPlan::new(7).with_rule(
            FaultKind::CommitHold,
            FaultRule::with_probability(1.0).delay_ns(hold_us * 1_000),
        ))
    });
    let config = StmConfig {
        degree: ParallelismDegree::new(threads.max(1), 1),
        worker_threads: 1,
        fault,
        ..StmConfig::default()
    };
    Stm::with_oracle(config, path)
}

/// Allocate `threads` box sets, each entirely on a stripe no other set uses,
/// so commit footprints are pairwise disjoint.
fn disjoint_sets(stm: &Stm, threads: usize) -> Vec<Vec<VBox<u64>>> {
    let mut used = HashSet::new();
    (0..threads)
        .map(|_| {
            let (first, stripe) = loop {
                let b = stm.new_vbox(0u64);
                let s = stripe_of(b.id());
                if used.insert(s) {
                    break (b, s);
                }
            };
            let mut set = vec![first];
            while set.len() < BOXES_PER_THREAD {
                let b = stm.new_vbox(0u64);
                if stripe_of(b.id()) == stripe {
                    set.push(b);
                }
            }
            set
        })
        .collect()
}

/// Run `txns` read-modify-write commits per thread over disjoint stripe sets;
/// return aggregate commits/second.
fn run(path: Option<Oracle>, threads: usize, txns: u64, hold_us: u64) -> f64 {
    let stm = make_stm(path, threads, hold_us);
    let sets = disjoint_sets(&stm, threads);
    let barrier = Arc::new(Barrier::new(threads + 1));
    let handles: Vec<_> = sets
        .into_iter()
        .map(|boxes| {
            let stm = stm.clone();
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                barrier.wait();
                for _ in 0..txns {
                    stm.atomic(|tx| {
                        for b in &boxes {
                            let v = tx.read(b);
                            tx.write(b, v + 1);
                        }
                        Ok(())
                    })
                    .expect("disjoint commit");
                }
            })
        })
        .collect();
    // Clock starts *before* the barrier release: started after, a
    // descheduled main thread could stamp the start after the workers
    // already finished, and `best_of` would keep the absurd sample.
    let start = Instant::now();
    barrier.wait();
    for h in handles {
        h.join().unwrap();
    }
    let elapsed = start.elapsed().as_secs_f64();
    (threads as u64 * txns) as f64 / elapsed
}

/// Best-of-`reps` throughput (damps scheduler noise for the raw t=1 compare).
fn best_of(reps: usize, mut f: impl FnMut() -> f64) -> f64 {
    (0..reps).map(|_| f()).fold(f64::MIN, f64::max)
}

fn main() {
    let cfg = parse_args();

    println!("# commit_scaling: striped vs global-lock, disjoint stripe write sets");
    println!(
        "# {} txns/thread, {} us injected hold per commit, {} boxes/thread",
        cfg.txns, cfg.hold_us, BOXES_PER_THREAD
    );

    let mut held: Vec<(usize, f64, f64)> = Vec::new();
    for &t in &cfg.threads {
        let striped = run(STRIPED, t, cfg.txns, cfg.hold_us);
        let global = run(GLOBAL, t, cfg.txns, cfg.hold_us);
        let ratio = striped / global;
        println!(
            "{{\"mode\":\"held\",\"threads\":{t},\"striped_cps\":{striped:.1},\
             \"global_cps\":{global:.1},\"speedup\":{ratio:.2}}}"
        );
        held.push((t, striped, global));
    }

    // Raw single-thread commit cost, no injected hold: the striped path must
    // not tax the uncontended case.
    let raw_reps = if cfg.smoke { 3 } else { 5 };
    let raw_striped = best_of(raw_reps, || run(STRIPED, 1, cfg.raw_txns, 0));
    let raw_global = best_of(raw_reps, || run(GLOBAL, 1, cfg.raw_txns, 0));
    let raw_ratio = raw_striped / raw_global;
    println!(
        "{{\"mode\":\"raw\",\"threads\":1,\"striped_cps\":{raw_striped:.0},\
         \"global_cps\":{raw_global:.0},\"ratio\":{raw_ratio:.3}}}"
    );

    if cfg.check {
        let (t, striped, global) = *held.last().expect("at least one thread count");
        let speedup = striped / global;
        assert!(t >= 8, "--check needs the thread list to reach 8 (got max t = {t})");
        assert!(
            speedup >= 2.0,
            "striped commit throughput at t={t} is only {speedup:.2}x the global lock (need >=2x)"
        );
        assert!(
            raw_ratio >= 0.95,
            "striped path regresses uncontended t=1 commits by more than 5% \
             (striped/global = {raw_ratio:.3})"
        );
        println!("CHECK PASSED: {speedup:.2}x at t={t}, raw t=1 ratio {raw_ratio:.3}");
        let config = format!(
            "t={t}, txns/thread={}, hold_us={}, raw t=1 ratio {raw_ratio:.3}",
            cfg.txns, cfg.hold_us
        );
        match bench::write_bench_report("commit_scaling", &config, striped, speedup) {
            Ok(path) => println!("# report: {}", path.display()),
            Err(e) => eprintln!("warning: could not write bench report: {e}"),
        }
    }
}
