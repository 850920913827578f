//! `closed_hot` and `closed_nested` — the paper's setting: closed-loop
//! application threads calling straight into the STM, no front door.
//!
//! Client threads call `TransferWorkload::run` (admission inside
//! `Stm::atomic`) on 64 hot accounts; every 5th call is a read-only audit
//! (`total_balance`: 64 reads via `Stm::read_only`) that must return the
//! table's constant total.
//!
//! * `closed_hot`: 2 clients at `(t, c) = (2, 1)`, 4 transfers per request.
//!   Abort/retry and contention management, stripe contention, hot version
//!   chains with GC, and reads beside writes dominate.
//! * `closed_nested`: the same table after a live `set_degree((1, 2))` +
//!   `resize_pool`, 1 client, 8 transfers per request. `Txn::parallel`, the
//!   child scheduler and sibling validation dominate.
//!
//! Same `pnstm` layer as `serve_wide`, used differently (non-batched gate,
//! reads beside writes, c = 2): a gain for one use that costs another shows.
//! Latency here is per call in a closed loop — a stalled system is offered
//! less load, so these percentiles say nothing about queueing.

use pnstm::trace::now_ns;
use pnstm::{ParallelismDegree, Stm};
use workloads::{TransferRequest, TransferWorkload};

use super::{
    check_stm_invariants, headline, pnstm_counter_metrics, shipped_stm, write_trace,
    INITIAL_BALANCE, MAX_AMOUNT, SLICE_NS, THREADS,
};
use crate::recorder::{wait_until, Recorder, Sample};
use crate::stats::{percentile, SliceDigest, Slicing};
use crate::{timed_setup, RunArgs, RunResult, SETUP_BUILDS};

const HOT_ACCOUNTS: usize = 64;
/// Pre-generated requests, replayed in a cycle (each client starts at its
/// own offset): a client comes round after a second or more, so no slice
/// sees a request twice, and generating them — not spawning the STM's
/// threads, whose cost moves by a third with the state of the box — is most
/// of the set-up time.
const STREAM_REQUESTS: usize = 65_536;
const AUDIT_EVERY: u64 = 5;
/// Traced: every this-many-th call gets a span written out.
const SPAN_EVERY: u64 = 64;
/// Marks an audit in the packed per-call latency (latencies stay < 2^31 ns).
const AUDIT_BIT: u32 = 1 << 31;
/// Calls one client can rank per slice: 400 000 calls/s, several times the
/// reference box's rate.
const CELL_CAPACITY: usize = (SLICE_NS / 2_500) as usize;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    Hot,
    Nested,
}

impl Shape {
    fn name(self) -> &'static str {
        match self {
            Shape::Hot => "closed_hot",
            Shape::Nested => "closed_nested",
        }
    }

    fn clients(self) -> usize {
        match self {
            Shape::Hot => 2,
            Shape::Nested => 1,
        }
    }

    fn transfers_per_request(self) -> usize {
        match self {
            Shape::Hot => 4,
            Shape::Nested => 8,
        }
    }
}

struct Fixture {
    stm: Stm,
    table: TransferWorkload,
    requests: Vec<TransferRequest>,
}

/// One client's calls in one timed slice, digested when the slice ends so
/// the log stays a few hundred kilobytes however fast the calls go (peak
/// RSS is a metric; a per-call log would grow with the throughput).
#[derive(Debug, Clone, Copy, Default)]
struct Cell {
    calls: u64,
    /// Exact nearest-rank percentiles over all calls, in ns.
    p50_ns: u32,
    p99_ns: u32,
    /// The same over the transfer calls alone (audits left out).
    txn_p50_ns: u32,
    txn_p99_ns: u32,
}

/// What one client thread logs.
#[derive(Default)]
struct ClientLog {
    cells: Vec<Cell>,
    calls: u64,
    failed: u64,
    bad_audits: u64,
    /// Calls beyond [`CELL_CAPACITY`] in one slice: counted, not ranked.
    unranked: u64,
    /// Traced: `(start, end, is_audit)` of every [`SPAN_EVERY`]-th call.
    spans: Vec<(u64, u64, bool)>,
}

/// Rank the packed latencies of one finished slice into its cell.
fn close_cell(cell: &mut Cell, packed: &mut Vec<u32>, scratch: &mut Vec<u32>) {
    let mut rank = |keep_audits: bool| {
        scratch.clear();
        scratch.extend(
            packed.iter().filter(|&&c| keep_audits || c & AUDIT_BIT == 0).map(|&c| c & !AUDIT_BIT),
        );
        scratch.sort_unstable();
        (percentile(scratch, 50.0).unwrap_or(0), percentile(scratch, 99.0).unwrap_or(0))
    };
    (cell.p50_ns, cell.p99_ns) = rank(true);
    (cell.txn_p50_ns, cell.txn_p99_ns) = rank(false);
    packed.clear();
}

fn client(
    fx: &Fixture,
    first_request: usize,
    start_ns: u64,
    slicing: Slicing,
    funds: u128,
    traced: bool,
) -> ClientLog {
    let mut log =
        ClientLog { cells: vec![Cell::default(); slicing.slices()], ..Default::default() };
    // Filled once so the pages are resident before the clock starts.
    let mut packed = vec![1u32; CELL_CAPACITY];
    let mut scratch = packed.clone();
    packed.clear();
    let mut open: Option<usize> = None;
    let end_ns = start_ns + slicing.timed_end_ns();
    wait_until(start_ns, None);
    let mut t0 = now_ns();
    while t0 < end_ns {
        let audit = log.calls % AUDIT_EVERY == AUDIT_EVERY - 1;
        if audit {
            log.bad_audits += u64::from(fx.table.total_balance(&fx.stm) != funds);
        } else {
            let request = &fx.requests[(first_request + log.calls as usize) % fx.requests.len()];
            log.failed += u64::from(fx.table.run(&fx.stm, request).is_err());
        }
        let mut t1 = now_ns();
        if traced && log.calls.is_multiple_of(SPAN_EVERY) {
            log.spans.push((t0, t1, audit));
        }
        log.calls += 1;
        let slice = slicing.slice_of(t1 - start_ns);
        let crossed_an_edge = slice != open;
        if crossed_an_edge {
            if let Some(done) = open {
                close_cell(&mut log.cells[done], &mut packed, &mut scratch);
            }
            open = slice;
        }
        if let Some(k) = slice {
            log.cells[k].calls += 1;
            let lat = ((t1 - t0).min(u64::from(AUDIT_BIT - 1))) as u32;
            if packed.len() < CELL_CAPACITY {
                packed.push(if audit { lat | AUDIT_BIT } else { lat });
            } else {
                log.unranked += 1;
            }
        }
        if crossed_an_edge {
            t1 = now_ns(); // ranking a finished slice is not part of the next call
        }
        t0 = t1;
    }
    if let Some(done) = open {
        close_cell(&mut log.cells[done], &mut packed, &mut scratch);
    }
    log
}

/// The per-slice digest over every client's cells: a slice's count is the
/// sum over clients, and each (client, slice) cell contributes its own
/// exact percentiles to the quartile over cells.
fn digest(
    logs: &[ClientLog],
    slicing: &Slicing,
    pick: impl Fn(&Cell) -> (u32, u32),
) -> SliceDigest {
    let cells = || logs.iter().flat_map(|log| log.cells.iter()).filter(|c| c.calls > 0);
    SliceDigest {
        counts: (0..slicing.slices())
            .map(|k| logs.iter().map(|log| log.cells[k].calls).sum())
            .collect(),
        p50_ns: cells().map(|c| f64::from(pick(c).0)).collect(),
        p99_ns: cells().map(|c| f64::from(pick(c).1)).collect(),
        pooled: Vec::new(),
    }
}

pub fn run(shape: Shape, args: &RunArgs) -> RunResult {
    let mut out = RunResult::default();
    let mut rec = Recorder::new(args.trace);
    let slicing = Slicing::standard(args.phase_ns(1.0), SLICE_NS);

    let (fx, setup_s) = timed_setup(SETUP_BUILDS, |_| {
        let stm = shipped_stm(THREADS, 1);
        let table = TransferWorkload::new(&stm, HOT_ACCOUNTS, INITIAL_BALANCE);
        let requests =
            table.requests(args.seed, STREAM_REQUESTS, shape.transfers_per_request(), MAX_AMOUNT);
        if shape == Shape::Nested {
            // The actuator's live reconfiguration, as the tuner would do it.
            let degree = ParallelismDegree::new(1, 2);
            stm.set_degree(degree);
            stm.resize_pool(degree.top_level * (degree.nested_per_tree - 1));
        }
        Fixture { stm, table, requests }
    });
    let funds = fx.table.total_balance(&fx.stm);

    let clients = shape.clients();
    let start_ns = now_ns() + 5_000_000;
    let (logs, warm, end) = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|k| {
                let fx = &fx;
                let first = k * fx.requests.len() / clients;
                scope.spawn(move || client(fx, first, start_ns, slicing, funds, args.trace))
            })
            .collect();
        let mut take = || rec.sample("timed", Sample::take(&fx.stm, None));
        let mut wait = |until_ns| {
            wait_until(until_ns, if args.trace { Some(&mut take) } else { None });
        };
        wait(start_ns + slicing.warmup_ns);
        let warm = fx.stm.stats().snapshot();
        wait(start_ns + slicing.timed_end_ns());
        let end = fx.stm.stats().snapshot();
        let logs: Vec<ClientLog> =
            handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect();
        (logs, warm, end)
    });
    let timed_span = rec.span("timed", 0, None, start_ns, start_ns + slicing.timed_end_ns());

    // ---- correctness gate -------------------------------------------------
    let calls: u64 = logs.iter().map(|l| l.calls).sum();
    let failed: u64 = logs.iter().map(|l| l.failed).sum();
    let bad_audits: u64 = logs.iter().map(|l| l.bad_audits).sum();
    out.check(failed == 0, || format!("{failed} of {calls} calls failed"));
    out.check(bad_audits == 0, || format!("{bad_audits} audits did not return {funds}"));
    let funds_after = fx.table.total_balance(&fx.stm);
    out.check(funds_after == funds, || format!("total balance {funds} became {funds_after}"));
    out.check(
        fx.stm.degree().nested_per_tree == if shape == Shape::Nested { 2 } else { 1 },
        || format!("unexpected degree {:?}", fx.stm.degree()),
    );
    check_stm_invariants(&mut out, &fx.stm);

    // ---- measurements -----------------------------------------------------
    let all = digest(&logs, &slicing, |c| (c.p50_ns, c.p99_ns));
    let unranked: u64 = logs.iter().map(|l| l.unranked).sum();
    if unranked > 0 {
        out.flag(format!("{unranked} calls beyond the per-slice log were counted but not ranked"));
    }
    out.attempted = calls;
    out.failed = failed + bad_audits;
    out.note("calls", calls as f64);
    out.note("timed.calls", all.samples() as f64);
    out.note("timed.slices", all.counts.len() as f64);
    let smallest = logs.iter().flat_map(|l| &l.cells).map(|c| c.calls).min().unwrap_or(0);
    out.note("timed.min_samples_beyond_p99", (smallest / 100) as f64);
    out.note("clients", clients as f64);
    headline(&mut out, args, setup_s, all.throughput_per_s(&slicing), all.p50_us(), all.p99_us());
    if !args.trace {
        return out;
    }

    let transfers = digest(&logs, &slicing, |c| (c.txn_p50_ns, c.txn_p99_ns));
    out.metric("pnstm.txn_p50_us", transfers.p50_us());
    out.metric("pnstm.txn_p99_us", transfers.p99_us());
    let delta = end.delta_since(&warm);
    pnstm_counter_metrics(&mut out, &fx.stm, &delta, slicing.timed_s(), delta.top_commits);
    for (client, log) in logs.iter().enumerate() {
        for (i, &(t0, t1, audit)) in log.spans.iter().enumerate() {
            let call = ((client as u64) << 32) | (i as u64 * SPAN_EVERY);
            let name = if audit { "workloads.audit" } else { "pnstm.txn" };
            rec.span(name, timed_span, Some(call), t0, t1);
        }
    }
    write_trace(&mut out, &rec, shape.name());
    out
}
