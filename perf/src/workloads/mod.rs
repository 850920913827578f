//! The five workloads. Each builds the system as shipped, runs its timed
//! phases for `--seconds` in total, checks its outputs and returns the
//! end-to-end metrics (untraced run) or its layers' metrics (traced run).

pub mod closed;
pub mod ledger_stream;
pub mod serve_wide;
pub mod tune_replay;

use pnstm::{ParallelismDegree, StatsSnapshot, Stm, StmConfig};

use crate::recorder::Recorder;
use crate::{RunArgs, RunResult};

/// Worker/helper threads every workload provisions (`nproc` = 2 on the
/// reference box; fixed so numbers from different boxes stay comparable).
pub const THREADS: usize = 2;

/// Opening balance of every account and the largest single transfer: funds
/// never run out, so nearly every transfer takes effect.
pub const INITIAL_BALANCE: u64 = 1_000_000;
pub const MAX_AMOUNT: u64 = 100;

/// Slice length of the request-serving workloads' timed phases: short
/// enough that a run has a hundred slices or so for the medians and
/// quartiles, long enough that a slice holds two thousand requests or more
/// (twenty beyond its own p99).
pub const SLICE_NS: u64 = 100_000_000;

/// Pre-generated requests of the front-door workload; request `i` replays
/// entry `i mod UNIQUE_REQUESTS`.
pub const UNIQUE_REQUESTS: usize = 4096;

/// Run one workload by name. A traced run ends with the isolated micro rows
/// of the layers the workload exercises, measured once its own threads and
/// tables are gone.
pub fn run(name: &str, args: &RunArgs) -> Option<RunResult> {
    let mut out = match name {
        "serve_wide" => serve_wide::run(args),
        "closed_hot" => closed::run(closed::Shape::Hot, args),
        "closed_nested" => closed::run(closed::Shape::Nested, args),
        "ledger_stream" => ledger_stream::run(args),
        "tune_replay" => tune_replay::run(args),
        _ => return None,
    };
    if args.trace {
        out.metrics.extend(crate::layers::measure_beside(name, args.seed));
    }
    Some(out)
}

/// The numbers every workload owes. Untraced: the end-to-end metrics, with
/// the tail latency beside them as a note (on the reference box no tail
/// statistic repeats within the 25 % a bounded metric may spread, so it
/// cannot be one). Traced: the tail latency as a per-layer metric, and the
/// throughput as a note for `trace_overhead_pct`.
pub fn headline(
    out: &mut RunResult,
    args: &RunArgs,
    setup_s: f64,
    goodput_tps: f64,
    lat_p50_us: f64,
    lat_p99_us: f64,
) {
    if args.trace {
        out.note("goodput_tps", goodput_tps);
        out.note("lat_p50_us", lat_p50_us);
        out.metric("lat_p99_us", lat_p99_us);
    } else {
        out.metric("setup_s", setup_s);
        out.metric("goodput_tps", goodput_tps);
        out.metric("lat_p50_us", lat_p50_us);
        out.note("lat_p99_us", lat_p99_us);
    }
}

/// The STM exactly as shipped, at degree `(t, c)`.
pub fn shipped_stm(t: usize, c: usize) -> Stm {
    Stm::new(StmConfig {
        degree: ParallelismDegree::new(t, c),
        worker_threads: THREADS,
        ..Default::default()
    })
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// The `pnstm` layer's counter metrics over one timed window: `delta` is
/// the `StatsSnapshot` difference across it, `batches` the number of child
/// batches handed to the scheduler in it (requests or ledger blocks).
pub fn pnstm_counter_metrics(
    out: &mut RunResult,
    stm: &Stm,
    delta: &StatsSnapshot,
    window_s: f64,
    batches: u64,
) {
    let commits = delta.top_commits;
    out.metric("pnstm.abort_ratio", ratio(delta.top_aborts, commits + delta.top_aborts));
    out.metric(
        "pnstm.stripe_contended_ratio",
        ratio(delta.stripe_lock_contended, delta.stripe_lock_acquisitions),
    );
    out.metric(
        "pnstm.stripe_false_conflicts_per_kcommit",
        1e3 * ratio(delta.stripe_false_conflicts, commits),
    );
    out.metric("pnstm.cm_wait_us_per_commit", ratio(delta.cm_wait_total_ns, commits) / 1e3);
    out.metric(
        "pnstm.sem_wait_us_per_admit",
        ratio(delta.sem_wait_total_ns, delta.sem_wait_count) / 1e3,
    );
    out.metric("pnstm.parks_per_kcommit", 1e3 * ratio(delta.park_count, commits));
    out.metric(
        "pnstm.nested_abort_ratio",
        ratio(delta.nested_aborts, delta.nested_commits + delta.nested_aborts),
    );
    out.metric("pnstm.steals_per_batch", ratio(delta.steal_count, batches));
    out.metric(
        "pnstm.read_slow_path_ratio",
        ratio(delta.read_slow_path, delta.read_filter_hits + delta.read_filter_misses),
    );
    out.metric("pnstm.gc_pruned_per_commit", ratio(delta.gc_pruned_versions, commits));
    out.metric("pnstm.gc_cycles_per_s", delta.gc_cycles as f64 / window_s.max(1e-9));
    out.metric("pnstm.retained_versions_end", stm.heap_gauge().retained_versions() as f64);
    out.metric("pnstm.evicted_aborts", delta.evicted_aborts as f64);
    out.note("pnstm.top_commits", commits as f64);
    out.note("pnstm.top_aborts", delta.top_aborts as f64);
}

/// Write the traced run's spans and samples to `perf/out/trace_<workload>.jsonl`.
pub fn write_trace(out: &mut RunResult, rec: &Recorder, workload: &str) {
    let path = crate::out_dir().join(format!("trace_{workload}.jsonl"));
    if let Err(err) = rec.write_jsonl(&path) {
        out.errors.push(format!("writing {}: {err}", path.display()));
    }
    out.note("trace.spans", rec.span_count() as f64);
}

/// Checks every data-plane workload shares: the GC watermark invariant.
pub fn check_stm_invariants(out: &mut RunResult, stm: &Stm) {
    let stats = stm.stats().snapshot();
    out.check(stats.read_below_floor == 0, || {
        format!("read_below_floor = {} (GC watermark violated)", stats.read_below_floor)
    });
}
