//! `serve_wide` — open loop through the real front door.
//!
//! Poisson arrivals through `ingress::Ingress` into the transfer service
//! over a wide (65 536-account) table at `(t, c) = (2, 1)`: the ROADMAP
//! request path — queue → batch admission → body → validate → stripes →
//! publish → install → GC — at low conflict. Two phases split the run:
//!
//! * `steady` (20 000 req/s): the latency phase. Wait dominates service, so
//!   the `ingress` layer does most of the work here.
//! * `overload` (150 000 req/s offered): the throughput phase. The queue
//!   stays full, rejections are the measurement, and the `pnstm` commit
//!   path does most of the work.
//!
//! Open-loop latency is `completion − intended arrival`. The generator's
//! epoch is private to `Ingress`, so the wrapper service stamps completions
//! into a slab and the epoch is recovered afterwards from the program's own
//! exact latency sum (see [`crate::stats::epoch_correction_ns`]).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use ingress::{
    ArrivalProcess, Ingress, IngressConfig, IngressService, IngressSnapshot, TransferService,
};
use pnstm::throttle::Permit;
use pnstm::trace::now_ns;
use pnstm::{StatsSnapshot, Stm, StmError};

use super::{
    check_stm_invariants, headline, pnstm_counter_metrics, shipped_stm, write_trace,
    INITIAL_BALANCE, MAX_AMOUNT, SLICE_NS, THREADS, UNIQUE_REQUESTS,
};
use crate::recorder::{wait_until, Recorder, Sample, MAX_TRACED_REQUESTS};
use crate::stats::{
    epoch_correction_ns, generator_lag_ns, percentile, same_log2_bucket, SliceDigest, Slicing,
};
use crate::{mix, timed_setup, RunArgs, RunResult, SETUP_BUILDS};

const ACCOUNTS: usize = 65_536;
const TRANSFERS_PER_REQUEST: usize = 4;
const STEADY_HZ: f64 = 20_000.0;
const OVERLOAD_HZ: f64 = 150_000.0;
const QUEUE_CAP: usize = 4096;
const BATCH: usize = 8;
/// The front door keeps running at least this long past the last timed
/// slice, so requests due inside the timed window are not cut off by the
/// shutdown.
const TAIL_GUARD_NS: u64 = 50_000_000;
/// How late the main thread may be in shutting a phase down before the stamp
/// slabs overflow (which fails the run rather than corrupting it).
const SHUTDOWN_SLACK_NS: u64 = 1_000_000_000;
/// The overload phase only measures saturation if at least this share of
/// the offered requests bounced off the full queue.
const SATURATED_REJECT_SHARE: f64 = 0.2;

/// Pre-allocated per-request clock stamps, indexed by request index.
struct Slab {
    cells: Vec<AtomicU64>,
    overflow: AtomicU64,
}

impl Slab {
    fn new(len: usize) -> Self {
        Self { cells: (0..len).map(|_| AtomicU64::new(0)).collect(), overflow: AtomicU64::new(0) }
    }

    fn stamp(&self, index: u64) {
        match self.cells.get(index as usize) {
            // Relaxed: the stamps are read only after the workers are joined.
            Some(cell) => cell.store(now_ns(), Ordering::Relaxed),
            None => {
                self.overflow.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    fn get(&self, index: usize) -> Option<u64> {
        self.cells.get(index).map(|c| c.load(Ordering::Relaxed)).filter(|&ns| ns != 0)
    }
}

/// The benchmark's `IngressService`: the shipped transfer service plus a
/// completion stamp (the measurement) and, traced, a service-entry stamp
/// (which splits `ingress.wait` from `pnstm.txn`).
struct Stamped {
    inner: Arc<TransferService>,
    entry: Option<Slab>,
    done: Slab,
}

impl IngressService for Stamped {
    fn run(&self, stm: &Stm, permit: Permit, request: u64) -> Result<(), StmError> {
        if let Some(entry) = &self.entry {
            entry.stamp(request);
        }
        let outcome = self.inner.run(stm, permit, request);
        if outcome.is_ok() {
            self.done.stamp(request);
        }
        outcome
    }
}

struct Fixture {
    stm: Stm,
    service: Arc<TransferService>,
    /// Intended-arrival offsets of the steady phase.
    steady_schedule: Vec<u64>,
    steady: Arc<Stamped>,
    overload: Arc<Stamped>,
}

/// Everything one phase leaves behind.
struct PhaseRun {
    /// `now_ns()` read just before `Ingress::start`.
    epoch_est_ns: u64,
    slicing: Slicing,
    warm: (IngressSnapshot, StatsSnapshot),
    end: (IngressSnapshot, StatsSnapshot),
    /// After `shutdown()`.
    last: IngressSnapshot,
}

/// One phase of the run.
struct Phase<'a> {
    name: &'static str,
    rate_hz: f64,
    seed: u64,
    length_ns: u64,
    service: &'a Arc<Stamped>,
    /// The latency phase: every request due inside the timed window must be
    /// seen through before the front door is shut down.
    see_through: bool,
}

fn run_phase(fx: &Fixture, phase: &Phase, rec: &mut Recorder) -> PhaseRun {
    let config = IngressConfig {
        process: ArrivalProcess::Poisson { rate_hz: phase.rate_hz },
        seed: phase.seed,
        queue_cap: QUEUE_CAP,
        batch: BATCH,
        workers: THREADS,
        ..Default::default()
    };
    let (service, phase_name) = (phase.service, phase.name);
    let slicing = Slicing::standard(phase.length_ns, SLICE_NS);
    let epoch_est_ns = now_ns();
    let mut ingress =
        Ingress::start(fx.stm.clone(), Arc::clone(service) as Arc<dyn IngressService>, config)
            .expect("spawning the front door's threads");
    let edge = |ingress: &Ingress| (ingress.snapshot(), fx.stm.stats().snapshot());
    let traced = rec.enabled();
    let wait = |until_ns: u64, ingress: &Ingress, rec: &mut Recorder| {
        let mut take = || rec.sample(phase_name, Sample::take(&fx.stm, Some(ingress)));
        wait_until(until_ns, if traced { Some(&mut take) } else { None });
    };
    wait(epoch_est_ns + slicing.warmup_ns, &ingress, rec);
    let warm = edge(&ingress);
    wait(epoch_est_ns + slicing.timed_end_ns(), &ingress, rec);
    let end = edge(&ingress);
    let mut until_ns = epoch_est_ns + slicing.timed_end_ns() + TAIL_GUARD_NS;
    wait(until_ns, &ingress, rec);
    // A stall at the very end can outlast the guard; give the requests due
    // inside the timed window up to the slack the slabs were sized for.
    let give_up_ns = until_ns + SHUTDOWN_SLACK_NS / 2;
    let due = fx.steady_schedule.partition_point(|&at| at < slicing.timed_end_ns()) as u64;
    let settled = |s: IngressSnapshot| s.completed + s.failed + s.rejected;
    while phase.see_through && settled(ingress.snapshot()) < due && until_ns < give_up_ns {
        until_ns += 5_000_000;
        wait(until_ns, &ingress, rec);
    }
    ingress.shutdown();
    let last = ingress.snapshot();
    rec.span(phase_name, 0, None, epoch_est_ns, now_ns());
    PhaseRun { epoch_est_ns, slicing, warm, end, last }
}

/// Accounting identities that must hold once the front door is shut down.
fn check_accounting(out: &mut RunResult, phase: &str, run: &PhaseRun, stamped: &Stamped) {
    let s = &run.last;
    // The generator counts a request as offered before it pushes it, and
    // leaves without counting an outcome when `shutdown()` has closed the
    // queue in between: one generator thread, so at most one such request.
    let unsettled = s.offered.wrapping_sub(s.accepted + s.rejected);
    out.check(unsettled <= 1, || {
        format!(
            "{phase}: offered {} != accepted {} + rejected {} (+ at most 1 caught by shutdown)",
            s.offered, s.accepted, s.rejected
        )
    });
    out.note(format!("{phase}.offered_unsettled_at_shutdown"), unsettled as f64);
    out.check(s.accepted == s.completed + s.failed, || {
        format!(
            "{phase}: accepted {} != completed {} + failed {}",
            s.accepted, s.completed, s.failed
        )
    });
    let overflow = stamped.done.overflow.load(Ordering::Relaxed);
    out.check(overflow == 0, || format!("{phase}: {overflow} completions beyond the stamp slab"));
    let stamps = stamped.done.cells.iter().filter(|c| c.load(Ordering::Relaxed) != 0).count();
    out.check(stamps as u64 == s.completed, || {
        format!("{phase}: {stamps} completion stamps but the program counts {}", s.completed)
    });
}

struct Steady {
    /// `completion − intended arrival`, sliced by intended arrival.
    latency: SliceDigest,
    /// Traced only: `service entry − intended arrival` and `exit − entry`.
    split: Option<(SliceDigest, SliceDigest)>,
    due: u64,
    missing: u64,
    epoch_ns: u64,
}

fn analyse_steady(out: &mut RunResult, fx: &Fixture, run: &PhaseRun, rec: &mut Recorder) -> Steady {
    let (sched, stamped) = (&fx.steady_schedule, &fx.steady);
    // Epoch: both sides sum completion − intended over the completed set.
    let bench_sum: u128 = (0..sched.len())
        .filter_map(|i| stamped.done.get(i).map(|d| (d - run.epoch_est_ns - sched[i]) as u128))
        .sum();
    let program = &run.last.intended;
    let shift = epoch_correction_ns(bench_sum, program.total_ns as u128, program.count);
    let epoch_ns = run.epoch_est_ns.saturating_add_signed(shift);
    out.note("steady.epoch_correction_us", shift as f64 / 1e3);

    let completed =
        |i: usize| stamped.done.get(i).map(|d| (sched[i], d.saturating_sub(epoch_ns + sched[i])));
    let latency = SliceDigest::build((0..sched.len()).filter_map(completed), &run.slicing);
    let due = sched.iter().filter(|&&at| run.slicing.slice_of(at).is_some()).count() as u64;
    let missing = due - latency.samples();

    // The exact whole-phase quantiles must land in the program's own log2
    // buckets — which also validates the epoch correction.
    let mut all: Vec<u64> = (0..sched.len()).filter_map(|i| completed(i).map(|c| c.1)).collect();
    all.sort_unstable();
    for p in [50.0, 99.0] {
        let (exact, theirs) = (percentile(&all, p).unwrap_or(0), program.quantile(p));
        out.check(same_log2_bucket(exact, theirs, 1_000), || {
            format!("steady: exact p{p} {exact} ns is outside the program's bucket ≤ {theirs} ns")
        });
    }

    let split = stamped.entry.as_ref().map(|entry| {
        let parts = |i: usize| Some((sched[i], entry.get(i)?, stamped.done.get(i)?));
        let wait = SliceDigest::build(
            (0..sched.len())
                .filter_map(parts)
                .map(|(at, e, _)| (at, e.saturating_sub(epoch_ns + at))),
            &run.slicing,
        );
        let txn = SliceDigest::build(
            (0..sched.len()).filter_map(parts).map(|(at, e, d)| (at, d - e)),
            &run.slicing,
        );
        let timed: Vec<usize> =
            (0..sched.len()).filter(|&i| run.slicing.slice_of(sched[i]).is_some()).collect();
        let every = timed.len().div_ceil(MAX_TRACED_REQUESTS).max(1);
        for &i in timed.iter().step_by(every) {
            if let Some((at, e, d)) = parts(i) {
                let intended = epoch_ns + at;
                let root = rec.span("request", 0, Some(i as u64), intended, d);
                rec.span("ingress.wait", root, Some(i as u64), intended, e);
                rec.span("pnstm.txn", root, Some(i as u64), e, d);
            }
        }
        (wait, txn)
    });
    Steady { latency, split, due, missing, epoch_ns }
}

/// Completions per slice of the overload phase, by completion stamp.
fn overload_goodput(stamped: &Stamped, run: &PhaseRun) -> SliceDigest {
    SliceDigest::build(
        (0..stamped.done.cells.len())
            .filter_map(|i| stamped.done.get(i))
            .map(|d| (d.saturating_sub(run.epoch_est_ns), 0)),
        &run.slicing,
    )
}

pub fn run(args: &RunArgs) -> RunResult {
    let mut out = RunResult::default();
    let mut rec = Recorder::new(args.trace);
    let (steady_ns, overload_ns) = (args.phase_ns(0.5), args.phase_ns(0.5));
    let (steady_seed, overload_seed) = (mix(args.seed, 1), mix(args.seed, 2));

    let (fx, setup_s) = timed_setup(SETUP_BUILDS, |_| {
        let stm = shipped_stm(THREADS, 1);
        let service = Arc::new(TransferService::new(
            &stm,
            ACCOUNTS,
            INITIAL_BALANCE,
            args.seed,
            UNIQUE_REQUESTS,
            TRANSFERS_PER_REQUEST,
            MAX_AMOUNT,
        ));
        // The front door runs until the benchmark's main thread wakes up and
        // shuts it down; on a stalled box that can be late, so the schedule
        // (and the slabs sized from it) reach well past the planned end.
        let horizon = steady_ns + TAIL_GUARD_NS + SHUTDOWN_SLACK_NS;
        let steady_schedule: Vec<u64> = ArrivalProcess::Poisson { rate_hz: STEADY_HZ }
            .schedule(steady_seed)
            .take_while(|&at| at < horizon)
            .collect();
        let stamped = |slots: usize| {
            Arc::new(Stamped {
                inner: Arc::clone(&service),
                entry: args.trace.then(|| Slab::new(slots)),
                done: Slab::new(slots),
            })
        };
        // The overload generator cannot offer more than its schedule holds;
        // a tenth of slack covers the Poisson count's variance many times.
        let overload_end_ns = overload_ns + TAIL_GUARD_NS + SHUTDOWN_SLACK_NS;
        let overload_slots = (OVERLOAD_HZ * 1.1 * overload_end_ns as f64 / 1e9) as usize;
        Fixture {
            steady: stamped(steady_schedule.len()),
            overload: stamped(overload_slots + 10_000),
            stm,
            service,
            steady_schedule,
        }
    });
    let funds = fx.service.workload().total_balance(&fx.stm);

    let steady_run = run_phase(
        &fx,
        &Phase {
            name: "steady",
            rate_hz: STEADY_HZ,
            seed: steady_seed,
            length_ns: steady_ns,
            service: &fx.steady,
            see_through: true,
        },
        &mut rec,
    );
    let overload_run = run_phase(
        &fx,
        &Phase {
            name: "overload",
            rate_hz: OVERLOAD_HZ,
            seed: overload_seed,
            length_ns: overload_ns,
            service: &fx.overload,
            see_through: false,
        },
        &mut rec,
    );

    // ---- correctness gate -------------------------------------------------
    check_accounting(&mut out, "steady", &steady_run, &fx.steady);
    check_accounting(&mut out, "overload", &overload_run, &fx.overload);
    check_stm_invariants(&mut out, &fx.stm);
    let funds_after = fx.service.workload().total_balance(&fx.stm);
    out.check(funds_after == funds, || format!("total balance {funds} became {funds_after}"));

    // ---- measurements -----------------------------------------------------
    let steady = analyse_steady(&mut out, &fx, &steady_run, &mut rec);
    let goodput = overload_goodput(&fx.overload, &overload_run);
    let over = overload_run.end.0.delta_since(&overload_run.warm.0);
    let reject_share = over.rejected as f64 / over.offered.max(1) as f64;
    if reject_share < SATURATED_REJECT_SHARE {
        out.flag(format!("not_saturated (overload reject share {reject_share:.3})"));
    }
    let dropped = steady.latency.counts.iter().filter(|&&n| n == 0).count();
    if dropped > 0 {
        out.flag(format!("steady: {dropped} empty slices dropped"));
    }
    // Failures inside the timed windows. Requests still queued or in flight
    // at shutdown are an artefact of stopping, not of serving; they sit
    // past the tail guard and are reported separately.
    out.attempted = steady.due + over.accepted;
    out.failed = steady.missing + over.failed;
    out.note("steady.requests", steady.due as f64);
    out.note("steady.missing", steady.missing as f64);
    out.note("overload.failed", over.failed as f64);
    if steady.missing > 0 {
        // At a fifth of capacity the queue only fills when the generator's
        // vCPU stalls for longer than queue_cap / rate ≈ 0.2 s and it then
        // offers everything overdue at once.
        out.flag(format!(
            "steady: {} requests due in the timed window never completed ({} refused at a full queue)",
            steady.missing, steady_run.last.rejected
        ));
    }
    out.note("steady.slices", steady.latency.counts.len() as f64);
    out.note("steady.min_samples_beyond_p99", steady.latency.min_beyond_p99() as f64);
    out.note("steady.shutdown_orphans", steady_run.last.failed as f64);
    out.note("overload.accepted", over.accepted as f64);
    out.note("overload.reject_share", reject_share);
    out.note("overload.shutdown_orphans", overload_run.last.failed as f64);
    headline(
        &mut out,
        args,
        setup_s,
        goodput.throughput_per_s(&overload_run.slicing),
        steady.latency.p50_us(),
        steady.latency.p99_us(),
    );

    if !args.trace {
        return out;
    }

    let (wait, txn) = steady.split.expect("the traced run stamps service entry");
    out.metric("ingress.wait_p50_us", wait.p50_us());
    out.metric("ingress.wait_p99_us", wait.p99_us());
    out.metric("ingress.reject_share", reject_share);
    let depth = rec.samples("steady").map(|s| s.queue_len).max().unwrap_or(0);
    out.metric("ingress.queue_depth_max", depth as f64);
    out.metric("ingress.lat_p99_all_us", steady.latency.pooled_us(99.0));
    let offered: Vec<(u64, u64)> = rec
        .samples("steady")
        .filter(|s| s.t_ns >= steady.epoch_ns)
        .map(|s| (s.t_ns - steady.epoch_ns, s.offered))
        .collect();
    let mut lag = generator_lag_ns(&offered, &fx.steady_schedule);
    lag.sort_unstable();
    let lag_p99_us = percentile(&lag, 99.0).unwrap_or(0) as f64 / 1e3;
    out.metric("ingress.gen_lag_p99_us", lag_p99_us);
    if lag_p99_us > 1_000.0 {
        out.flag(format!("steady: generator ran {lag_p99_us:.0} µs late at p99"));
    }
    out.metric("pnstm.txn_p50_us", txn.p50_us());
    out.metric("pnstm.txn_p99_us", txn.p99_us());
    let stm_delta = overload_run.end.1.delta_since(&overload_run.warm.1);
    pnstm_counter_metrics(
        &mut out,
        &fx.stm,
        &stm_delta,
        overload_run.slicing.timed_s(),
        stm_delta.top_commits,
    );
    write_trace(&mut out, &rec, "serve_wide");
    out
}
