//! Read-path scaling: lock-free vs. locked ancestor reads under parallel
//! nesting.
//!
//! A top-level transaction writes a block of boxes and then fans out `c`
//! read-only children that all read those boxes back — the shared-ancestor
//! workload the lock-free read ladder is built for. Every child read probes
//! the parent scope, and each probe is inflated deterministically with a
//! `ReadHold` fault (a sleep taken at the ancestor-probe site). Under
//! [`ReadPathMode::Locked`] the hold is taken while holding the level's
//! commit lock, so sibling reads queue; under the default lock-free path the
//! holds overlap — which makes the serialization difference visible even on
//! a single-core runner, exactly like the `commit_scaling` bench does for
//! the commit path.
//!
//! Usage (cargo bench -p bench --bench read_scaling -- [flags]):
//!   --children 1,2,4,8  child counts for the held comparison (default)
//!   --reads N           reads per child in held runs (default 24)
//!   --hold-us N         injected hold per ancestor probe, µs (default 1000)
//!   --raw-reads N       reads per child for the raw (no-hold) c=1 runs
//!                       (default 40000)
//!   --check             assert the acceptance bar: >=2x at the largest c,
//!                       <=5% regression at c=1 raw
//!   --smoke             tiny run that only proves the bench executes

use std::sync::Arc;
use std::time::Instant;

use pnstm::{
    child, FaultKind, FaultPlan, FaultRule, ParallelismDegree, ReadPathMode, Stm, StmConfig, VBox,
};

const SHARED_BOXES: usize = 8;

struct Config {
    children: Vec<usize>,
    reads: u64,
    hold_us: u64,
    raw_reads: u64,
    check: bool,
    smoke: bool,
}

fn parse_args() -> Config {
    let mut cfg = Config {
        children: vec![1, 2, 4, 8],
        reads: 24,
        hold_us: 1_000,
        raw_reads: 40_000,
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
            "--reads" => cfg.reads = value("--reads").parse().expect("--reads"),
            "--hold-us" => cfg.hold_us = value("--hold-us").parse().expect("--hold-us"),
            "--raw-reads" => cfg.raw_reads = value("--raw-reads").parse().expect("--raw-reads"),
            "--check" => cfg.check = true,
            "--smoke" => cfg.smoke = true,
            "--bench" | "--quick" => {} // cargo-bench passthrough flags
            other => panic!("unknown flag {other:?}"),
        }
    }
    if cfg.smoke {
        // Holds are sleeps, so even a 1-core runner can overlap c=8 children;
        // keeping the full fan-out makes `--smoke --check` a real assertion.
        cfg.children = vec![1, 8];
        cfg.reads = 4;
        cfg.hold_us = 500;
        cfg.raw_reads = 2_000;
    }
    cfg
}

fn make_stm(mode: ReadPathMode, children: usize, hold_us: u64) -> Stm {
    let fault = (hold_us > 0).then(|| {
        Arc::new(FaultPlan::new(11).with_rule(
            FaultKind::ReadHold,
            FaultRule::with_probability(1.0).delay_ns(hold_us * 1_000),
        ))
    });
    Stm::new(StmConfig {
        degree: ParallelismDegree::new(1, children.max(1)),
        worker_threads: children.max(1),
        fault,
        read_path: mode,
        ..StmConfig::default()
    })
}

/// One top-level transaction: write the shared block, then fan out
/// `children` read-only children that each read it back `reads` times.
/// Returns aggregate child reads/second over the `parallel()` region.
fn run(mode: ReadPathMode, children: usize, reads: u64, hold_us: u64) -> f64 {
    let stm = make_stm(mode, children, hold_us);
    let boxes: Vec<VBox<u64>> = (0..SHARED_BOXES).map(|i| stm.new_vbox(i as u64)).collect();
    let mut elapsed = 0.0f64;
    stm.atomic(|tx| {
        for (i, b) in boxes.iter().enumerate() {
            tx.write(b, (i as u64) * 3 + 1);
        }
        let tasks = (0..children)
            .map(|_| {
                let boxes = boxes.clone();
                child(move |tx| {
                    let mut acc = 0u64;
                    for r in 0..reads {
                        acc = acc.wrapping_add(tx.read(&boxes[r as usize % boxes.len()]));
                    }
                    Ok(acc)
                })
            })
            .collect();
        let start = Instant::now();
        let sums = tx.parallel(tasks)?;
        elapsed = start.elapsed().as_secs_f64();
        let expected: u64 = (0..reads)
            .map(|r| (r as usize % SHARED_BOXES) as u64 * 3 + 1)
            .fold(0u64, u64::wrapping_add);
        for s in sums {
            assert_eq!(s, expected, "child read a value not from the parent's write set");
        }
        Ok(())
    })
    .expect("read workload commits");
    (children as u64 * reads) as f64 / elapsed
}

/// Best-of-`reps` throughput (damps scheduler noise for the raw c=1 compare).
fn best_of(reps: usize, mut f: impl FnMut() -> f64) -> f64 {
    (0..reps).map(|_| f()).fold(f64::MIN, f64::max)
}

/// Chain-walk cost (PR 7 follow-up): the same single-threaded read mix over
/// version chains `versions` deep, before and after a synchronous
/// [`Stm::gc`] prune. The snapshot covers every version, and a read whose
/// snapshot covers the newest entry returns it before any binary search, so
/// depth should cost nothing here; a ratio well above 1 would mean the
/// newest-first check stopped firing. Returns (deep reads/s, pruned
/// reads/s, boxes the prune shortened).
fn run_chain_walk(versions: u64, reads: u64, reps: usize) -> (f64, f64, usize) {
    let stm = Stm::new(StmConfig {
        degree: ParallelismDegree::new(1, 1),
        worker_threads: 1,
        // Manual GC only: the deep chains must survive until the pruned pass.
        gc_interval: 0,
        ..StmConfig::default()
    });
    let boxes: Vec<VBox<u64>> = (0..SHARED_BOXES).map(|i| stm.new_vbox(i as u64)).collect();
    for v in 0..versions {
        stm.atomic(|tx| {
            for b in &boxes {
                tx.write(b, v);
            }
            Ok(())
        })
        .expect("chain-building commit");
    }
    let pass = || {
        let start = Instant::now();
        let acc = stm.read_only(|snap| {
            let mut acc = 0u64;
            for r in 0..reads {
                acc = acc.wrapping_add(snap.read(&boxes[r as usize % boxes.len()]));
            }
            acc
        });
        let elapsed = start.elapsed().as_secs_f64();
        assert_eq!(acc, (versions - 1).wrapping_mul(reads), "read something stale");
        reads as f64 / elapsed
    };
    let deep = best_of(reps, pass);
    let shortened = stm.gc();
    assert_eq!(shortened, SHARED_BOXES, "the manual sweep must prune every deep chain");
    let pruned = best_of(reps, pass);
    (deep, pruned, shortened)
}

fn main() {
    let cfg = parse_args();

    println!("# read_scaling: lock-free vs locked ancestor reads, shared parent write set");
    println!(
        "# {} reads/child, {} us injected hold per ancestor probe, {} shared boxes",
        cfg.reads, cfg.hold_us, SHARED_BOXES
    );

    let mut held: Vec<(usize, f64, f64)> = Vec::new();
    for &c in &cfg.children {
        let lockfree = run(ReadPathMode::LockFree, c, cfg.reads, cfg.hold_us);
        let locked = run(ReadPathMode::Locked, c, cfg.reads, cfg.hold_us);
        let ratio = lockfree / locked;
        println!(
            "{{\"mode\":\"held\",\"children\":{c},\"lockfree_rps\":{lockfree:.1},\
             \"locked_rps\":{locked:.1},\"speedup\":{ratio:.2}}}"
        );
        held.push((c, lockfree, locked));
    }

    // Raw single-child read cost, no injected hold: the filter and snapshot
    // machinery must not tax the uncontended case.
    let raw_reps = if cfg.smoke { 1 } else { 5 };
    let raw_lockfree = best_of(raw_reps, || run(ReadPathMode::LockFree, 1, cfg.raw_reads, 0));
    let raw_locked = best_of(raw_reps, || run(ReadPathMode::Locked, 1, cfg.raw_reads, 0));
    let raw_ratio = raw_lockfree / raw_locked;
    println!(
        "{{\"mode\":\"raw\",\"children\":1,\"lockfree_rps\":{raw_lockfree:.0},\
         \"locked_rps\":{raw_locked:.0},\"ratio\":{raw_ratio:.3}}}"
    );

    // Chain-walk cost before/after GC pruning (PR 7 follow-up, recorded in
    // DESIGN.md §5g). Informational: no gate, the number documents what
    // pruning buys the read path beyond bounding memory.
    let versions = if cfg.smoke { 2_048 } else { 16_384 };
    let (deep, pruned, shortened) = run_chain_walk(versions, cfg.raw_reads, raw_reps);
    println!(
        "{{\"mode\":\"chain_walk\",\"versions_per_box\":{versions},\"deep_rps\":{deep:.0},\
         \"pruned_rps\":{pruned:.0},\"pruned_speedup\":{:.3},\"boxes_shortened\":{shortened}}}",
        pruned / deep
    );

    if cfg.check {
        let (c, lockfree, locked) = *held.last().expect("at least one child count");
        let speedup = lockfree / locked;
        assert!(c >= 8, "--check needs the child list to reach 8 (got max c = {c})");
        assert!(
            speedup >= 2.0,
            "lock-free read throughput at c={c} is only {speedup:.2}x the locked path (need >=2x)"
        );
        assert!(
            raw_ratio >= 0.95,
            "lock-free path regresses uncontended c=1 reads by more than 5% \
             (lockfree/locked = {raw_ratio:.3})"
        );
        println!("CHECK PASSED: {speedup:.2}x at c={c}, raw c=1 ratio {raw_ratio:.3}");
        let config = format!(
            "c={c}, reads/child={}, hold_us={}, raw c=1 ratio {raw_ratio:.3}",
            cfg.reads, cfg.hold_us
        );
        match bench::write_bench_report("read_scaling", &config, lockfree, speedup) {
            Ok(path) => println!("# report: {}", path.display()),
            Err(e) => eprintln!("warning: could not write bench report: {e}"),
        }
    }
}
