//! The isolated micro rows: one public operation of one layer, timed alone
//! on one thread, reported as the minimum per-operation time over five
//! batches of at least 100 ms. They re-express the relevant `stm_ops` /
//! `optimizer_step` / `model_overhead` / `monitor_overhead` criterion cases
//! as rows of the benchmark's per-layer table (the criterion benches stay as
//! they are), and give each layer an uncontended floor to read its traced
//! numbers against.
//!
//! Each row is measured once per traced pass: at the end of the traced run
//! of the workload that exercises its layer (see [`ROWS`]), after that
//! workload's threads are gone.

use std::hint::black_box;
use std::time::Duration;

use autopn::model::{BaggedM5, Sample};
use autopn::monitor::{AdaptiveMonitor, MonitorPolicy, Verdict};
use autopn::smbo::expected_improvement;
use autopn::{Config, SearchSpace, TunableSystem};
use ingress::{ArrivalProcess, BoundedQueue};
use ledger::{skewed_block, txn, MvMemory};
use pnstm::trace::now_ns;
use pnstm::{child, ChildTask, ParallelismDegree, Stm, StmConfig, TxResult, VBox};
use simtm::MachineParams;
use workloads::{workload_by_name, SimSystem, TransferWorkload};

use crate::workloads::{shipped_stm, INITIAL_BALANCE, MAX_AMOUNT, THREADS};

const BATCHES: usize = 5;
const MIN_BATCH_NS: u64 = 100_000_000;

/// Minimum over [`BATCHES`] batches of the mean time of one `op()`, in ns.
fn per_op_ns(op: impl FnMut()) -> f64 {
    min_per_op_ns(BATCHES, MIN_BATCH_NS, op)
}

fn min_per_op_ns(batches: usize, min_batch_ns: u64, mut op: impl FnMut()) -> f64 {
    let mut batch = |iters: u64| {
        let t0 = now_ns();
        for _ in 0..iters {
            op();
        }
        now_ns() - t0
    };
    let mut iters = 1u64;
    loop {
        let took = batch(iters);
        if took >= min_batch_ns {
            break;
        }
        // Aim a fifth past the floor; at least double while the clock is coarse.
        let scale = (min_batch_ns as f64 * 1.2 / took.max(1) as f64).clamp(2.0, 1000.0);
        iters = (iters as f64 * scale).ceil() as u64;
    }
    (0..batches).map(|_| batch(iters) as f64 / iters as f64).fold(f64::INFINITY, f64::min)
}

fn boxes(stm: &Stm, n: usize) -> Vec<VBox<i64>> {
    (0..n).map(|i| stm.new_vbox(i as i64)).collect()
}

fn update_txn(stm: &Stm, boxes: &[VBox<i64>]) {
    stm.atomic(|tx| {
        for b in boxes {
            let v = tx.read(b);
            tx.write(b, v + 1);
        }
        Ok(())
    })
    .expect("an uncontended transaction commits");
}

fn flat_stm_with_boxes(n: usize) -> (Stm, Vec<VBox<i64>>) {
    let stm = shipped_stm(THREADS, 1);
    let cells = boxes(&stm, n);
    (stm, cells)
}

fn training_set(n: usize) -> Vec<Sample> {
    (0..n)
        .map(|i| {
            let (t, c) = ((i * 7 % 48 + 1) as f64, (i * 3 % 8 + 1) as f64);
            let noise = ((i * 2_654_435_761) % 100) as f64;
            Sample::point(
                t,
                c,
                5_000.0 - (t - 20.0).powi(2) * 4.0 - (c - 2.0).powi(2) * 60.0 + noise,
            )
        })
        .collect()
}

// ---- ingress ------------------------------------------------------------------

fn queue_push_pop(_seed: u64) -> f64 {
    let queue: BoundedQueue<u64> = BoundedQueue::new(4096);
    let push_pop8 = per_op_ns(|| {
        for i in 0..8 {
            let _ = queue.try_push(i);
        }
        black_box(queue.pop_batch(8, Duration::ZERO));
    });
    push_pop8 / 8.0
}

fn schedule_next(seed: u64) -> f64 {
    let mut schedule = ArrivalProcess::Poisson { rate_hz: 20_000.0 }.schedule(seed);
    per_op_ns(|| {
        black_box(schedule.next());
    })
}

// ---- pnstm --------------------------------------------------------------------

fn atomic_rw1(_seed: u64) -> f64 {
    let (stm, cells) = flat_stm_with_boxes(1);
    per_op_ns(|| update_txn(&stm, &cells))
}

fn atomic_rw8(_seed: u64) -> f64 {
    let (stm, cells) = flat_stm_with_boxes(8);
    per_op_ns(|| update_txn(&stm, &cells))
}

fn read_only16(_seed: u64) -> f64 {
    let (stm, cells) = flat_stm_with_boxes(16);
    per_op_ns(|| {
        black_box(stm.read_only(|tx| cells.iter().map(|b| tx.read(b)).sum::<i64>()));
    })
}

fn read_atomic(_seed: u64) -> f64 {
    let (stm, cells) = flat_stm_with_boxes(1);
    per_op_ns(|| {
        black_box(stm.read_atomic(&cells[0]));
    })
}

fn admit_batch8(_seed: u64) -> f64 {
    let stm = shipped_stm(THREADS, 1);
    per_op_ns(|| drop(black_box(stm.throttle().admit_batch(8))))
}

fn set_degree(_seed: u64) -> f64 {
    let stm = shipped_stm(THREADS, 1);
    let (flat, nested) = (ParallelismDegree::new(2, 1), ParallelismDegree::new(1, 2));
    let mut flip = false;
    per_op_ns(|| {
        flip = !flip;
        stm.set_degree(if flip { nested } else { flat });
    })
}

/// Four children under one parent at degree `(1, c)`, the child pool sized
/// the way the actuator sizes it, `t · (c − 1)`.
fn parallel4(c: usize) -> f64 {
    let stm = shipped_stm(1, c);
    stm.resize_pool(c - 1);
    let cells = boxes(&stm, 4);
    per_op_ns(|| {
        stm.atomic(|tx| {
            let tasks: Vec<ChildTask<i64>> = cells
                .iter()
                .map(|b| {
                    let b = b.clone();
                    child(move |ct| -> TxResult<i64> {
                        let v = ct.read(&b);
                        ct.write(&b, v + 1);
                        Ok(v)
                    })
                })
                .collect();
            Ok(tx.parallel(tasks)?.into_iter().sum::<i64>())
        })
        .expect("an uncontended transaction commits");
    })
}

/// GC cost per pruned version: 8-write transactions pile versions onto 64
/// boxes with automatic GC off, then one timed `Stm::gc()`; min of
/// [`BATCHES`] piles.
fn gc_ns_per_version(_seed: u64) -> f64 {
    let stm = Stm::new(StmConfig {
        degree: ParallelismDegree::new(THREADS, 1),
        worker_threads: THREADS,
        gc_interval: 0,
        ..Default::default()
    });
    let boxes = boxes(&stm, 64);
    (0..BATCHES)
        .map(|_| {
            for k in 0..2_500 {
                update_txn(&stm, &boxes[(k % 8) * 8..][..8]);
            }
            let t0 = now_ns();
            let pruned = stm.gc();
            (now_ns() - t0) as f64 / pruned.max(1) as f64
        })
        .fold(f64::INFINITY, f64::min)
}

// ---- workloads ----------------------------------------------------------------

fn transfer_run4(seed: u64) -> f64 {
    let stm = shipped_stm(THREADS, 1);
    let wide = TransferWorkload::new(&stm, 65_536, INITIAL_BALANCE);
    let requests = wide.requests(seed, 1024, 4, MAX_AMOUNT);
    let mut next = 0usize;
    per_op_ns(|| {
        next = (next + 1) % requests.len();
        wide.run(&stm, &requests[next]).expect("an uncontended request commits");
    })
}

fn audit64(_seed: u64) -> f64 {
    let stm = shipped_stm(THREADS, 1);
    let hot = TransferWorkload::new(&stm, 64, INITIAL_BALANCE);
    per_op_ns(|| {
        black_box(hot.total_balance(&stm));
    })
}

// ---- ledger -------------------------------------------------------------------

fn seq_floor_per_txn(seed: u64) -> f64 {
    let block = skewed_block(seed, 256 * 64, 1000, MAX_AMOUNT);
    let mut balances = vec![INITIAL_BALANCE; 1000];
    let replay = per_op_ns(|| {
        for t in &block {
            let (writes, out) = txn::execute(t, |a| Ok::<_, std::convert::Infallible>(balances[a]))
                .unwrap_or_else(|never| match never {});
            for (account, value) in writes {
                balances[account] = value;
            }
            black_box(out);
        }
    });
    replay / block.len() as f64
}

fn mv_write_read(_seed: u64) -> f64 {
    let mv = MvMemory::new(1000);
    let mut idx = 0usize;
    per_op_ns(|| {
        idx = (idx + 1) % 256;
        let account = idx * 3 % 1000;
        mv.apply_writes(idx, 0, &[(account, idx as u64)], &[account]);
        black_box(mv.read(account, idx + 1));
    })
}

// ---- autopn, simtm ------------------------------------------------------------

fn bagged10_fit_us(_seed: u64) -> f64 {
    let data = training_set(20);
    per_op_ns(|| drop(black_box(BaggedM5::fit(&data, 10, 42)))) / 1e3
}

fn ei_sweep198_us(_seed: u64) -> f64 {
    let model = BaggedM5::fit(&training_set(15), 10, 42);
    let space = SearchSpace::new(48);
    per_op_ns(|| {
        let best = space.configs().iter().fold(f64::NEG_INFINITY, |best, cfg| {
            let (mu, sigma) = model.predict_dist(&[cfg.t as f64, cfg.c as f64]);
            best.max(expected_improvement(mu, sigma, 5_000.0))
        });
        black_box(best);
    }) / 1e3
}

fn monitor_on_commit(_seed: u64) -> f64 {
    let mut monitor = AdaptiveMonitor::default();
    monitor.begin_window(0);
    let mut at = 0u64;
    per_op_ns(|| {
        at += 1_000_000;
        if let Verdict::Complete(_) = monitor.on_commit(at) {
            monitor.begin_window(at);
        }
    })
}

fn virtual_ms_per_wall_ms(seed: u64) -> f64 {
    let workload = workload_by_name("tpcc-med").expect("a paper workload");
    let mut sim = SimSystem::new(&workload, &MachineParams::paper_testbed(), seed);
    sim.apply(Config::new(8, 4));
    let step = Duration::from_millis(5);
    let wall_ns_per_step = per_op_ns(|| {
        black_box(sim.advance(step));
    });
    step.as_nanos() as f64 / wall_ns_per_step
}

/// One micro row: its per-layer metric name, the workload beside whose
/// traced run it is measured (the one that exercises its layer), and the
/// measurement (given the run's `--seed`).
pub struct Row {
    pub name: &'static str,
    pub beside: &'static str,
    measure: fn(u64) -> f64,
}

const fn row(name: &'static str, beside: &'static str, measure: fn(u64) -> f64) -> Row {
    Row { name, beside, measure }
}

pub const ROWS: &[Row] = &[
    row("ingress.queue_push_pop_ns", "serve_wide", queue_push_pop),
    row("ingress.schedule_next_ns", "serve_wide", schedule_next),
    row("pnstm.admit_batch8_ns", "serve_wide", admit_batch8),
    row("workloads.transfer_run4_ns", "serve_wide", transfer_run4),
    row("pnstm.atomic_rw1_ns", "closed_hot", atomic_rw1),
    row("pnstm.atomic_rw8_ns", "closed_hot", atomic_rw8),
    row("pnstm.read_only16_ns", "closed_hot", read_only16),
    row("pnstm.read_atomic_ns", "closed_hot", read_atomic),
    row("pnstm.gc_ns_per_version", "closed_hot", gc_ns_per_version),
    row("workloads.audit64_ns", "closed_hot", audit64),
    row("pnstm.set_degree_ns", "closed_nested", set_degree),
    row("pnstm.parallel4_c1_ns", "closed_nested", |_| parallel4(1)),
    row("pnstm.parallel4_c2_ns", "closed_nested", |_| parallel4(2)),
    row("ledger.seq_floor_ns_per_txn", "ledger_stream", seq_floor_per_txn),
    row("ledger.mv_write_read_ns", "ledger_stream", mv_write_read),
    row("autopn.bagged10_fit_us", "tune_replay", bagged10_fit_us),
    row("autopn.ei_sweep198_us", "tune_replay", ei_sweep198_us),
    row("autopn.monitor_on_commit_ns", "tune_replay", monitor_on_commit),
    row("simtm.virtual_ms_per_wall_ms", "tune_replay", virtual_ms_per_wall_ms),
];

/// Measure the rows that belong beside `workload`.
pub fn measure_beside(workload: &str, seed: u64) -> Vec<(&'static str, f64)> {
    ROWS.iter().filter(|r| r.beside == workload).map(|r| (r.name, (r.measure)(seed))).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::Spec;

    #[test]
    fn per_op_time_grows_with_the_work() {
        let spin = |n: u64| {
            move || {
                black_box((0..n).fold(0u64, |a, x| black_box(a ^ x)));
            }
        };
        let (small, large) =
            (min_per_op_ns(2, 2_000_000, spin(100)), min_per_op_ns(2, 2_000_000, spin(10_000)));
        assert!(small > 0.0 && large > 10.0 * small, "{small} vs {large}");
    }

    #[test]
    fn every_row_is_a_declared_per_layer_metric_beside_a_declared_workload() {
        let spec = Spec::load();
        for (i, r) in ROWS.iter().enumerate() {
            assert!(spec.per_layer.iter().any(|m| m.name == r.name), "{} is not declared", r.name);
            assert!(
                spec.workloads.iter().any(|w| w == r.beside),
                "{}: no workload {}",
                r.name,
                r.beside
            );
            assert!(ROWS[..i].iter().all(|earlier| earlier.name != r.name), "{} twice", r.name);
        }
    }
}
