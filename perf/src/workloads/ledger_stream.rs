//! `ledger_stream` — the Block-STM-style front end.
//!
//! `BlockExecutor::execute_block` over a deterministic `skewed_block`
//! stream, blocks of 256, 2 workers, one block at a time (the executor's
//! `execute_all`, unrolled so each block can be timed). `ledger::{mv, sched,
//! exec}` do all the work; `ingress` and the AutoPN control plane none.
//!
//! * rung `wide` (1000 accounts, 60 % of the run): mostly disjoint
//!   transfers — the end-to-end rung.
//! * rung `hot` (10 accounts, 40 %): ESTIMATE / re-execution bound; its
//!   throughput varies too much run to run for a bound, so it is reported
//!   per layer only.
//!
//! Every block's outputs are folded into a checksum and compared, with the
//! final balances, against a bench-side sequential replay of
//! `ledger::txn::execute`.

use ledger::{skewed_block, txn, Amount, BlockExecutor, LedgerConfig, TransferTxn, TxnOutput};
use pnstm::trace::now_ns;
use pnstm::{StatsSnapshot, Stm};

use super::{
    check_stm_invariants, headline, pnstm_counter_metrics, shipped_stm, write_trace,
    INITIAL_BALANCE, MAX_AMOUNT, THREADS,
};
use crate::recorder::{wait_until, Recorder, Sample, SAMPLE_EVERY_NS};
use crate::stats::{SliceDigest, Slicing};
use crate::{mix, timed_setup, RunArgs, RunResult, SETUP_BUILDS};

const BLOCK: usize = 256;
/// Blocks generated per rung; the stream is replayed from its start when a
/// run outlasts it (balances carry over, so no two passes are alike).
const STREAM_BLOCKS: usize = 512;
/// Half-second slices: about a thousand blocks each, ten beyond the p99.
const SLICE_NS: u64 = 500_000_000;
const WIDE_ACCOUNTS: usize = 1000;
const HOT_ACCOUNTS: usize = 10;

struct Rung {
    name: &'static str,
    accounts: usize,
    executor: BlockExecutor,
    stream: Vec<TransferTxn>,
}

struct Fixture {
    stm: Stm,
    wide: Rung,
    hot: Rung,
}

fn fold(sum: u64, out: &TxnOutput) -> u64 {
    let word = out.from_balance ^ out.to_balance.rotate_left(21) ^ u64::from(out.applied);
    mix(sum, word)
}

struct RungRun {
    slicing: Slicing,
    /// Block latencies: `(phase-relative end, ns)`.
    blocks: Vec<(u64, u64)>,
    reexecutions: u64,
    checksum: u64,
    warm: StatsSnapshot,
    end: StatsSnapshot,
    failed_blocks: u64,
}

fn run_rung(fx: &Fixture, rung: &Rung, phase_ns: u64, rec: &mut Recorder) -> RungRun {
    let slicing = Slicing::standard(phase_ns, SLICE_NS);
    let start_ns = now_ns();
    let end_ns = start_ns + slicing.timed_end_ns();
    let mut run = RungRun {
        slicing,
        blocks: Vec::new(),
        reexecutions: 0,
        checksum: 0,
        warm: StatsSnapshot::default(),
        end: StatsSnapshot::default(),
        failed_blocks: 0,
    };
    let root = rec.span(rung.name, 0, None, start_ns, end_ns);
    let mut warm_taken = false;
    let mut t0 = start_ns;
    for (k, block) in rung.stream.chunks(BLOCK).cycle().enumerate() {
        if t0 >= end_ns {
            break;
        }
        if !warm_taken && t0 - start_ns >= slicing.warmup_ns {
            run.warm = fx.stm.stats().snapshot();
            warm_taken = true;
        }
        match rung.executor.execute_block(block) {
            Ok(outcome) => {
                run.reexecutions += outcome.reexecutions;
                run.checksum = outcome.outputs.iter().fold(run.checksum, fold);
            }
            Err(_) => run.failed_blocks += 1,
        }
        let t1 = now_ns();
        run.blocks.push((t1 - start_ns, t1 - t0));
        rec.span("ledger.execute_block", root, Some(k as u64), t0, t1);
        t0 = t1;
    }
    run.end = fx.stm.stats().snapshot();
    run
}

/// Sequential replay of the first `blocks` blocks of the rung's (cycled)
/// stream: the output checksum and the final balances.
fn replay(rung: &Rung, blocks: usize) -> (u64, Vec<Amount>) {
    let mut balances = vec![INITIAL_BALANCE; rung.accounts];
    let mut checksum = 0;
    for block in rung.stream.chunks(BLOCK).cycle().take(blocks) {
        for t in block {
            let (writes, out) = txn::execute(t, |a| Ok::<_, std::convert::Infallible>(balances[a]))
                .unwrap_or_else(|never| match never {});
            for (account, value) in writes {
                balances[account] = value;
            }
            checksum = fold(checksum, &out);
        }
    }
    (checksum, balances)
}

pub fn run(args: &RunArgs) -> RunResult {
    let mut out = RunResult::default();
    let mut rec = Recorder::new(args.trace);

    let (fx, setup_s) = timed_setup(SETUP_BUILDS, |_| {
        let stm = shipped_stm(THREADS, 1);
        let rung = |name, accounts, stream_seed| Rung {
            name,
            accounts,
            executor: BlockExecutor::new(
                &stm,
                &vec![INITIAL_BALANCE; accounts],
                LedgerConfig { workers: THREADS, block_size: BLOCK, ..Default::default() },
            ),
            stream: skewed_block(stream_seed, STREAM_BLOCKS * BLOCK, accounts, MAX_AMOUNT),
        };
        Fixture {
            wide: rung("wide", WIDE_ACCOUNTS, mix(args.seed, 1)),
            hot: rung("hot", HOT_ACCOUNTS, mix(args.seed, 2)),
            stm,
        }
    });

    // The calling thread is the executor's first worker, so the traced run's
    // counter samples come from a thread of their own.
    let stop = std::sync::atomic::AtomicBool::new(false);
    let (wide, hot) = std::thread::scope(|scope| {
        let sampler = args.trace.then(|| {
            let (stm, stop) = (&fx.stm, &stop);
            scope.spawn(move || {
                let mut samples = Vec::new();
                while !stop.load(std::sync::atomic::Ordering::Acquire) {
                    samples.push(Sample::take(stm, None));
                    wait_until(now_ns() + SAMPLE_EVERY_NS, None);
                }
                samples
            })
        });
        let wide = run_rung(&fx, &fx.wide, args.phase_ns(0.6), &mut rec);
        let hot = run_rung(&fx, &fx.hot, args.phase_ns(0.4), &mut rec);
        stop.store(true, std::sync::atomic::Ordering::Release);
        if let Some(sampler) = sampler {
            for sample in sampler.join().expect("sampler thread panicked") {
                rec.sample("stream", sample);
            }
        }
        (wide, hot)
    });

    // ---- correctness gate -------------------------------------------------
    for (rung, run) in [(&fx.wide, &wide), (&fx.hot, &hot)] {
        let name = rung.name;
        out.check(run.failed_blocks == 0, || {
            format!("{name}: {} blocks failed", run.failed_blocks)
        });
        let (checksum, balances) = replay(rung, run.blocks.len());
        out.check(checksum == run.checksum, || {
            format!("{name}: outputs differ from the sequential replay")
        });
        out.check(balances == rung.executor.balances(), || {
            format!("{name}: final balances differ from the sequential replay")
        });
    }
    check_stm_invariants(&mut out, &fx.stm);

    // ---- measurements -----------------------------------------------------
    let digest = |run: &RungRun| SliceDigest::build(run.blocks.iter().copied(), &run.slicing);
    let (wide_blocks, hot_blocks) = (digest(&wide), digest(&hot));
    let tps = |d: &SliceDigest, run: &RungRun| d.throughput_per_s(&run.slicing) * BLOCK as f64;
    out.attempted = ((wide.blocks.len() + hot.blocks.len()) * BLOCK) as u64;
    out.failed = (wide.failed_blocks + hot.failed_blocks) * BLOCK as u64;
    out.note("wide.blocks", wide.blocks.len() as f64);
    out.note("wide.slices", wide_blocks.counts.len() as f64);
    out.note("wide.min_samples_beyond_p99", wide_blocks.min_beyond_p99() as f64);
    out.note("hot.blocks", hot.blocks.len() as f64);
    let goodput = tps(&wide_blocks, &wide);
    headline(&mut out, args, setup_s, goodput, wide_blocks.p50_us(), wide_blocks.p99_us());
    if !args.trace {
        return out;
    }

    let reexec = |run: &RungRun| run.reexecutions as f64 / (run.blocks.len() * BLOCK).max(1) as f64;
    out.metric("ledger.block_p50_us", wide_blocks.p50_us());
    out.metric("ledger.block_p99_us", wide_blocks.p99_us());
    out.metric("ledger.reexec_ratio", reexec(&wide));
    out.metric("ledger.hot_tps", tps(&hot_blocks, &hot));
    out.metric("ledger.hot_reexec_ratio", reexec(&hot));
    let delta = wide.end.delta_since(&wide.warm);
    pnstm_counter_metrics(&mut out, &fx.stm, &delta, wide.slicing.timed_s(), delta.block_commits);
    write_trace(&mut out, &rec, "ledger_stream");
    out
}
