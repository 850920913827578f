//! Ledger-mode live tuning: a continuous stream of transfer blocks on a
//! real [`ledger::BlockExecutor`], exposed as an [`autopn::TunableSystem`]
//! (and [`SloTunableSystem`]) so AutoPN tunes the parallelism degree
//! mid-stream. `try_apply` switches the degree through the runtime's
//! [`autopn::PnstmActuator`], then maps `t` onto the executor's live worker
//! width. Blocks keep the fixed size the system was started with.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use autopn::{ApplyError, Config, SloKpi, SloTunableSystem, TunableSystem};
use ledger::{skewed_block, Amount, BlockExecutor, LedgerConfig};
use pnstm::{LatencyHistogram, LatencySnapshot, Stm};

use crate::live::{CommitStream, LiveRuntime, Supervised, Supervisor};

/// What the driver thread shares with the system.
struct Stream {
    executor: BlockExecutor,
    commits: Arc<CommitStream>,
    /// Transactions per block.
    block_txns: usize,
    blocks_done: AtomicU64,
    /// Per-transaction latency of every committed block: block assembly →
    /// the block's single commit.
    latency: LatencyHistogram,
}

/// A live ledger pipeline under tuning: one supervised driver thread
/// assembles fixed-size skewed transfer blocks and executes them back
/// to back on the parallel rung. Per-transaction commit timestamps are spread
/// across each block's execution interval, so the monitor's CV test sees a
/// steady interarrival stream (the KPI is transactions per second, not
/// blocks).
pub struct LedgerLiveSystem {
    pub(crate) rt: LiveRuntime,
    stream: Arc<Stream>,
    /// The latency histogram and the clock when the SLO window opened.
    window: (LatencySnapshot, u64),
}

impl LedgerLiveSystem {
    /// Start the block stream over `accounts` accounts (each seeded with
    /// `initial_balance`), in blocks of `cfg.block_size` transactions.
    /// `cfg.workers` bounds the executor's live worker width (`t` is clamped
    /// into it on apply).
    pub fn start(
        stm: Stm,
        accounts: usize,
        initial_balance: Amount,
        cfg: LedgerConfig,
        seed: u64,
    ) -> std::io::Result<Self> {
        let accounts = accounts.max(1);
        let executor = BlockExecutor::new(&stm, &vec![initial_balance; accounts], cfg.clone());
        let mut rt = LiveRuntime::new(stm, || {});
        let stream = Arc::new(Stream {
            executor,
            commits: Arc::clone(rt.commits()),
            block_txns: cfg.block_size.max(1),
            blocks_done: AtomicU64::new(0),
            latency: LatencyHistogram::new(),
        });
        let driven = Arc::clone(&stream);
        rt.spawn("ledger-live".into(), move |sup| driver(sup, &driven, seed, accounts))?;
        Ok(Self { rt, stream, window: (LatencySnapshot::default(), 0) })
    }

    /// The executor driving the stream.
    pub fn executor(&self) -> &BlockExecutor {
        &self.stream.executor
    }

    /// Blocks committed since start.
    pub fn blocks_done(&self) -> u64 {
        self.stream.blocks_done.load(Ordering::Acquire)
    }

    /// Stop the driver thread and abort any in-flight block (it polls the
    /// admission gate, which the shutdown closes); see
    /// [`LiveRuntime::shutdown`].
    pub fn shutdown(&mut self) {
        self.rt.shutdown();
    }
}

/// The driver: execute blocks until stopped, each under the supervised call,
/// publishing spread per-txn commit stamps and per-txn latencies.
fn driver(sup: Supervisor, s: &Stream, seed: u64, accounts: usize) {
    let mut round = 0u64;
    while !sup.stopped() {
        let txns = s.block_txns;
        let block = skewed_block(seed.wrapping_add(round), txns, accounts, 10);
        round += 1;
        let t0 = s.commits.now_ns();
        match sup.call(0, || s.executor.execute_block(&block)) {
            Supervised::Returned(Ok(_)) => {
                let dur = s.commits.now_ns().saturating_sub(t0).max(1);
                for i in 0..txns as u64 {
                    s.commits.push(t0 + dur * (i + 1) / txns as u64);
                    // Every transaction in the block waits from block
                    // assembly to the block's single commit — the latency
                    // cost a bigger block trades throughput for.
                    s.latency.record(dur);
                }
                s.blocks_done.fetch_add(1, Ordering::AcqRel);
            }
            Supervised::Returned(Err(_)) | Supervised::Absorbed => {}
            Supervised::Exit => return,
        }
    }
}

impl TunableSystem for LedgerLiveSystem {
    fn apply(&mut self, cfg: Config) {
        self.rt.apply(cfg);
        self.stream.executor.set_workers(cfg.t);
    }

    fn try_apply(&mut self, cfg: Config) -> Result<(), ApplyError> {
        self.rt.try_apply(cfg)?;
        self.stream.executor.set_workers(cfg.t);
        Ok(())
    }

    fn wait_commit(&mut self, max_wait_ns: u64) -> Option<u64> {
        self.rt.wait_commit(max_wait_ns)
    }

    fn now_ns(&self) -> u64 {
        self.rt.now_ns()
    }

    fn quiesce(&mut self) {
        // The actuator's quiesce counts admitted top-level transactions, and
        // an executing block holds none. Wait for the next block boundary
        // instead, so the in-flight block (executed under the previous
        // configuration) does not leak into the next window, capped for
        // liveness.
        let target = self.blocks_done() + 1;
        let deadline = Instant::now() + Duration::from_millis(200);
        while self.blocks_done() < target && Instant::now() < deadline {
            thread::sleep(Duration::from_micros(200));
        }
        self.stream.commits.clear();
    }
}

impl SloTunableSystem for LedgerLiveSystem {
    fn begin_slo_window(&mut self) {
        self.window = (self.stream.latency.snapshot(), self.rt.now_ns());
    }

    fn end_slo_window(&mut self) -> SloKpi {
        let delta = self.stream.latency.snapshot().delta_since(&self.window.0);
        let window_ns = self.rt.now_ns().saturating_sub(self.window.1);
        SloKpi::from_window(&delta, delta.count, delta.count, 0, window_ns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use autopn::monitor::AdaptiveMonitor;
    use autopn::{AutoPn, AutoPnConfig, Controller, SearchSpace};
    use pnstm::{ParallelismDegree, StmConfig};

    fn ledger_cfg() -> LedgerConfig {
        LedgerConfig { workers: 2, block_size: 64, ..LedgerConfig::default() }
    }

    fn stm() -> Stm {
        Stm::new(StmConfig {
            degree: ParallelismDegree::new(4, 2),
            worker_threads: 1,
            ..StmConfig::default()
        })
    }

    #[test]
    fn stream_produces_spread_commit_stamps() {
        let mut sys = LedgerLiveSystem::start(stm(), 64, 1_000, ledger_cfg(), 7).unwrap();
        let mut got = 0;
        let mut last = 0;
        for _ in 0..500 {
            if let Some(ts) = sys.wait_commit(100_000_000) {
                assert!(ts >= last, "spread stamps are monotone");
                last = ts;
                got += 1;
            }
            if got >= 100 {
                break;
            }
        }
        assert!(got >= 100, "expected a steady txn stream, saw {got}");
        sys.shutdown();
    }

    #[test]
    fn try_apply_retargets_the_workers_mid_stream() {
        let stm = stm();
        let sink = Arc::new(pnstm::TestSink::new());
        stm.trace_bus().subscribe(sink.clone());
        let mut sys = LedgerLiveSystem::start(stm.clone(), 64, 1_000, ledger_cfg(), 3).unwrap();

        sys.try_apply(Config::new(2, 1)).unwrap();
        assert_eq!(sys.executor().workers(), 2);
        assert_eq!(stm.degree(), ParallelismDegree::new(2, 1));
        assert!(
            sink.events()
                .iter()
                .any(|ev| matches!(ev, pnstm::TraceEvent::Reconfigure { to: (2, 1), .. })),
            "the degree switch is traced"
        );

        // The stream keeps flowing at the new width.
        let before = sys.blocks_done();
        let deadline = Instant::now() + Duration::from_secs(10);
        while sys.blocks_done() < before + 2 && Instant::now() < deadline {
            thread::sleep(Duration::from_millis(1));
        }
        assert!(sys.blocks_done() >= before + 2, "stream stalled after reconfiguration");
        sys.shutdown();
    }

    #[test]
    fn slo_window_reports_block_latencies() {
        // Blocks of a few milliseconds (64 txns × 200 µs of work on two
        // workers), so the window opens before the first block commits.
        let cfg = LedgerConfig { work: Duration::from_micros(200), ..ledger_cfg() };
        let mut sys = LedgerLiveSystem::start(stm(), 64, 1_000, cfg, 11).unwrap();
        sys.begin_slo_window();
        let deadline = Instant::now() + Duration::from_secs(10);
        while sys.blocks_done() < 3 && Instant::now() < deadline {
            thread::sleep(Duration::from_millis(1));
        }
        // The in-flight block aborts, so the window covers exactly the
        // blocks whose stamps the stream holds.
        sys.shutdown();
        let kpi = sys.end_slo_window();
        assert!(kpi.completed >= 3 * 64, "three 64-txn blocks completed");
        assert!(kpi.goodput > 0.0);
        assert!(kpi.p99_ns >= kpi.p50_ns);
        assert!(kpi.p50_ns > 0);

        // Measure each block's duration from its 64 spread stamps: the last
        // one is t0 + d and the first t0 + ⌊d/64⌋, so d ≈ gap · 64/63.
        let stamps: Vec<u64> = std::iter::from_fn(|| sys.wait_commit(0)).collect();
        assert_eq!(stamps.len() as u64, kpi.completed, "one stamp per transaction");
        let mut latencies: Vec<u64> = stamps
            .chunks(64)
            .flat_map(|block| {
                let gap = block[63] - block[0];
                std::iter::repeat_n(gap + gap / 63, 64)
            })
            .collect();
        latencies.sort_unstable();
        let nearest_rank =
            |p: f64| latencies[((p / 100.0 * latencies.len() as f64).ceil() as usize).max(1) - 1];
        for (p, reported) in [(50.0, kpi.p50_ns), (99.0, kpi.p99_ns)] {
            assert_eq!(
                LatencyHistogram::bucket_of(reported),
                LatencyHistogram::bucket_of(nearest_rank(p)),
                "p{p}: reported {reported} ns, measured {} ns",
                nearest_rank(p)
            );
        }
    }

    /// A full AutoPN session tunes the ledger mid-stream through the
    /// standard controller path and leaves the winner in force.
    #[test]
    fn controller_tunes_the_ledger_mid_stream() {
        let stm = stm();
        let mut sys = LedgerLiveSystem::start(stm.clone(), 64, 10_000, ledger_cfg(), 42).unwrap();
        let space = SearchSpace::new(2);
        let mut tuner = AutoPn::new(space.clone(), AutoPnConfig::default());
        let mut policy = AdaptiveMonitor::new(0.5, 16);
        let outcome = Controller::tune(&mut sys, &mut tuner, &mut policy);
        assert!(!outcome.explored.is_empty());
        assert!(space.contains(outcome.best));
        assert_eq!(stm.degree(), ParallelismDegree::from(outcome.best));
        assert_eq!(sys.executor().workers(), outcome.best.t);
        sys.shutdown();
    }
}
