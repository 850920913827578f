//! Contention-manager scaling: exponential backoff vs. immediate retry
//! under a pathological commit-hold workload.
//!
//! `t` application threads form a read ring over `t` boxes on *distinct*
//! commit stripes: thread `i` read-modify-writes box `i` and also reads box
//! `i + 1`. Every commit attempt's stripe-held window is inflated
//! deterministically with a `CommitHold` fault (a sleep taken after stripe
//! acquisition, before version reservation). Because the write stripes are
//! disjoint, commits never queue on a common lock — instead each committer's
//! validation of its ring read lands inside its neighbour's inflated hold
//! and fails (`read_valid` rejects a stripe another committer holds). Under
//! immediate retry the ring re-synchronizes after every mutual abort and
//! throughput collapses — the livelock `tests/contention.rs` pins. A waiting
//! rung desynchronizes the losers, so holds stop overlapping and throughput
//! approaches one commit per hold. Holds are sleeps, so the ratio survives
//! 1-core runners — same trick as `commit_scaling` / `sched_scaling` /
//! `read_scaling`.
//!
//! Usage (cargo bench -p bench --bench contention_scaling -- [flags]):
//!   --threads N     application threads for the held comparison (default 8)
//!   --dur-ms N      measured window per held run, ms (default 400)
//!   --hold-us N     injected hold per commit attempt, µs (default 1000)
//!   --raw-txns N    txns for the raw (no-fault) t=1 runs (default 10000)
//!   --check         assert the acceptance bar: >=2x ops/s ExpBackoff vs
//!                   Immediate at t=8, >=0.95 raw no-contention ratio
//!   --smoke         tiny run that only proves the bench executes

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use pnstm::{
    stripe_of, CmMode, FaultKind, FaultPlan, FaultRule, ParallelismDegree, Stm, StmConfig, VBox,
};

struct Config {
    threads: usize,
    dur_ms: u64,
    hold_us: u64,
    raw_txns: u64,
    check: bool,
    smoke: bool,
}

fn parse_args() -> Config {
    let mut cfg = Config {
        threads: 8,
        dur_ms: 400,
        hold_us: 1_000,
        raw_txns: 10_000,
        check: false,
        smoke: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| args.next().unwrap_or_else(|| panic!("{name} needs a value"));
        match arg.as_str() {
            "--threads" => cfg.threads = value("--threads").parse().expect("--threads"),
            "--dur-ms" => cfg.dur_ms = value("--dur-ms").parse().expect("--dur-ms"),
            "--hold-us" => cfg.hold_us = value("--hold-us").parse().expect("--hold-us"),
            "--raw-txns" => cfg.raw_txns = value("--raw-txns").parse().expect("--raw-txns"),
            "--check" => cfg.check = true,
            "--smoke" => cfg.smoke = true,
            "--bench" | "--quick" => {} // cargo-bench passthrough flags
            other => panic!("unknown flag {other:?}"),
        }
    }
    if cfg.smoke {
        // Holds are sleeps, so the convoy forms even on a 1-core runner;
        // keeping t=8 makes `--smoke --check` a real assertion.
        cfg.threads = 8;
        cfg.dur_ms = 300;
        cfg.hold_us = 1_000;
        cfg.raw_txns = 10_000;
    }
    cfg
}

fn make_stm(mode: CmMode, t: usize, hold_us: u64) -> Stm {
    let fault = (hold_us > 0).then(|| {
        Arc::new(FaultPlan::new(29).with_rule(
            FaultKind::CommitHold,
            FaultRule::with_probability(1.0).delay_ns(hold_us * 1_000),
        ))
    });
    Stm::new(StmConfig {
        degree: ParallelismDegree::new(t.max(1), 1),
        worker_threads: t.max(1),
        cm_mode: mode,
        fault,
        ..StmConfig::default()
    })
}

/// Allocate `n` boxes that all land on *distinct* commit stripes (rejection
/// sampling over fresh box ids), so the ring writers never share a stripe
/// lock and conflict purely through cross-validation.
fn distinct_stripe_boxes(stm: &Stm, n: usize) -> Vec<VBox<u64>> {
    assert!(n <= pnstm::STRIPE_COUNT, "cannot place {n} boxes on distinct stripes");
    let mut out: Vec<VBox<u64>> = Vec::with_capacity(n);
    let mut taken = std::collections::HashSet::new();
    while out.len() < n {
        let b = stm.new_vbox(0u64);
        if taken.insert(stripe_of(b.id())) {
            out.push(b);
        }
    }
    out
}

/// `t` threads run the read ring for a fixed wall window; returns committed
/// ops/second. A fixed *window* (not a fixed quota) bounds the run's wall
/// time even when the baseline mode makes barely any progress.
fn run_held(mode: CmMode, t: usize, dur: Duration, hold_us: u64) -> f64 {
    let stm = make_stm(mode, t, hold_us);
    let boxes = Arc::new(distinct_stripe_boxes(&stm, t.max(2)));
    let stop = Arc::new(AtomicBool::new(false));
    let barrier = Arc::new(Barrier::new(t + 1));
    let handles: Vec<_> = (0..t)
        .map(|i| {
            let stm = stm.clone();
            let boxes = Arc::clone(&boxes);
            let stop = Arc::clone(&stop);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let mine = boxes[i].clone();
                let peer = boxes[(i + 1) % boxes.len()].clone();
                barrier.wait();
                while !stop.load(Ordering::Acquire) {
                    stm.atomic({
                        let mine = mine.clone();
                        let peer = peer.clone();
                        move |tx| {
                            // The peer read is what the neighbour's held
                            // stripe invalidates.
                            let _ = tx.read(&peer);
                            let v = tx.read(&mine);
                            tx.write(&mine, v + 1);
                            Ok(())
                        }
                    })
                    .expect("ring increment commits");
                }
            })
        })
        .collect();
    // Clock starts before the barrier release so a descheduled main thread
    // can only over-estimate elapsed (under-estimate throughput), never the
    // reverse.
    let start = Instant::now();
    barrier.wait();
    std::thread::sleep(dur);
    stop.store(true, Ordering::Release);
    for h in handles {
        h.join().unwrap();
    }
    let elapsed = start.elapsed().as_secs_f64();
    let commits: u64 = boxes.iter().map(|b| stm.read_atomic(b)).sum();
    // Clamp to one op: an Immediate run that livelocks to zero commits
    // still yields a finite (and damning) ratio.
    commits.max(1) as f64 / elapsed
}

/// Raw t=1 cost, no faults, no contention: `txns` private-box increments.
fn run_raw(mode: CmMode, txns: u64) -> f64 {
    let stm = make_stm(mode, 1, 0);
    let hot = stm.new_vbox(0u64);
    let start = Instant::now();
    for _ in 0..txns {
        stm.atomic({
            let hot = hot.clone();
            move |tx| {
                let v = tx.read(&hot);
                tx.write(&hot, v + 1);
                Ok(())
            }
        })
        .expect("raw increment commits");
    }
    let elapsed = start.elapsed().as_secs_f64();
    assert_eq!(stm.read_atomic(&hot), txns);
    txns as f64 / elapsed
}

fn main() {
    let cfg = parse_args();
    let dur = Duration::from_millis(cfg.dur_ms);

    println!("# contention_scaling: CM rungs vs immediate retry under commit holds");
    println!(
        "# t={} threads, {} ms window, {} us injected hold per commit attempt",
        cfg.threads, cfg.dur_ms, cfg.hold_us
    );

    // The shipped policies, then the immediate-retry oracle (index
    // `CM_POLICIES`).
    let mut held = [0f64; pnstm::CM_POLICIES + 1];
    for mode in CmMode::ALL.into_iter().chain([CmMode::Immediate]) {
        let ops = run_held(mode, cfg.threads, dur, cfg.hold_us);
        held[mode.index()] = ops;
        println!(
            "{{\"mode\":\"held\",\"policy\":\"{}\",\"threads\":{},\"ops_per_sec\":{ops:.1}}}",
            mode.tag(),
            cfg.threads
        );
    }
    let immediate = held[CmMode::Immediate.index()];
    let backoff = held[CmMode::ExpBackoff.index()];
    let speedup = backoff / immediate;
    println!(
        "{{\"mode\":\"held\",\"threads\":{},\"backoff_ops\":{backoff:.1},\
         \"immediate_ops\":{immediate:.1},\"speedup\":{speedup:.2}}}",
        cfg.threads
    );

    // Raw t=1 cost with zero aborts: the CM must be free when it never
    // fires. Reps are interleaved pairwise and the gate uses the median
    // pairwise ratio, so a transient background load lands on both sides of
    // a pair instead of deflating one mode's whole sample.
    let raw_pairs = 5;
    let mut raw_backoff = f64::MIN;
    let mut raw_immediate = f64::MIN;
    let mut ratios = Vec::new();
    for _ in 0..raw_pairs {
        let b = run_raw(CmMode::ExpBackoff, cfg.raw_txns);
        let i = run_raw(CmMode::Immediate, cfg.raw_txns);
        raw_backoff = raw_backoff.max(b);
        raw_immediate = raw_immediate.max(i);
        ratios.push(b / i);
    }
    let raw_ratio = bench::paired_median(&ratios);
    println!(
        "{{\"mode\":\"raw\",\"threads\":1,\"backoff_ops\":{raw_backoff:.0},\
         \"immediate_ops\":{raw_immediate:.0},\"ratio\":{raw_ratio:.3}}}"
    );

    if cfg.check {
        assert!(cfg.threads >= 8, "--check needs t >= 8 (got t = {})", cfg.threads);
        assert!(
            speedup >= 2.0,
            "exp-backoff at t={} is only {speedup:.2}x immediate retry under commit holds \
             (need >=2x)",
            cfg.threads
        );
        assert!(
            raw_ratio >= 0.95,
            "the CM taxes uncontended t=1 commits by more than 5% \
             (backoff/immediate = {raw_ratio:.3})"
        );
        println!("CHECK PASSED: {speedup:.2}x at t={}, raw t=1 ratio {raw_ratio:.3}", cfg.threads);
        let config = format!(
            "t={}, window={}ms, hold_us={}, raw t=1 ratio {raw_ratio:.3}",
            cfg.threads, cfg.dur_ms, cfg.hold_us
        );
        match bench::write_bench_report("contention_scaling", &config, backoff, speedup) {
            Ok(path) => println!("# report: {}", path.display()),
            Err(e) => eprintln!("warning: could not write bench report: {e}"),
        }
    }
}
