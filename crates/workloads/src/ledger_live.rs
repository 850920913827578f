//! Ledger-mode live tuning: a continuous stream of transfer blocks on a
//! real [`ledger::BlockExecutor`], exposed as an [`autopn::TunableSystem`]
//! (and [`SloTunableSystem`]) so AutoPN co-tunes the **block size** — the
//! typed `block` axis — together with the parallelism degree mid-stream.
//!
//! The block-size knob is wired through an [`AxisRegistry`]: the tuner
//! proposes full configuration points over `registry.space(n)`, `try_apply`
//! enacts the `block` level into the driver's shared cell (taking effect at
//! the next block boundary) and maps `t` onto the executor's live worker
//! width, and the resulting `Reconfigure` trace events carry the whole
//! point.

use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use autopn::{
    ApplyError, Axis, AxisRegistry, Config, ConfigSpace, SloKpi, SloTunableSystem, TunableSystem,
};
use ledger::{skewed_block, Amount, BlockExecutor, LedgerConfig};
use pnstm::Stm;

/// SLO accounting shared with the driver thread: per-transaction latencies
/// (block assembly → block commit) collected while a window is open.
#[derive(Default)]
struct SloWindow {
    open: bool,
    start_ns: u64,
    latencies: Vec<u64>,
}

/// A live ledger pipeline under tuning: one driver thread assembles
/// `block`-axis-sized skewed transfer blocks and executes them back to back
/// on the parallel rung. Per-transaction commit timestamps are spread across
/// each block's execution interval, so the monitor's CV test sees a steady
/// interarrival stream (the KPI is transactions per second, not blocks).
pub struct LedgerLiveSystem {
    stm: Stm,
    executor: Arc<BlockExecutor>,
    epoch: Instant,
    commits: Receiver<u64>,
    stop: Arc<AtomicBool>,
    handle: Option<thread::JoinHandle<()>>,
    /// Transactions per block, enacted by the `block` axis; the driver reads
    /// it at every block boundary.
    block_txns: Arc<AtomicUsize>,
    blocks_done: Arc<AtomicU64>,
    slo: Arc<parking_lot::Mutex<SloWindow>>,
    registry: AxisRegistry,
}

impl LedgerLiveSystem {
    /// Start the block stream over `accounts` accounts (each seeded with
    /// `initial_balance`). `cfg.block_size` is the starting point of the
    /// `block` axis; `cfg.workers` bounds the executor's live worker width
    /// (`t` is clamped into it on apply).
    pub fn start(
        stm: Stm,
        accounts: usize,
        initial_balance: Amount,
        cfg: LedgerConfig,
        seed: u64,
    ) -> std::io::Result<Self> {
        let accounts = accounts.max(1);
        let initial = vec![initial_balance; accounts];
        let executor = Arc::new(BlockExecutor::new(&stm, &initial, cfg.clone()));
        let epoch = Instant::now();
        let (tx, rx): (Sender<u64>, Receiver<u64>) = unbounded();
        let stop = Arc::new(AtomicBool::new(false));
        let block_txns = Arc::new(AtomicUsize::new(cfg.block_size.max(1)));
        let blocks_done = Arc::new(AtomicU64::new(0));
        let slo = Arc::new(parking_lot::Mutex::new(SloWindow::default()));

        let bt = Arc::clone(&block_txns);
        let registry = AxisRegistry::new().bind(Axis::block_size(), move |value, _| {
            bt.store((value as usize).max(1), Ordering::Release);
            Ok(())
        });

        let handle = {
            let executor = Arc::clone(&executor);
            let block_txns = Arc::clone(&block_txns);
            let blocks_done = Arc::clone(&blocks_done);
            let slo = Arc::clone(&slo);
            let stop = Arc::clone(&stop);
            thread::Builder::new().name("ledger-live".into()).spawn(move || {
                driver(executor, epoch, block_txns, blocks_done, slo, tx, stop, seed, accounts)
            })?
        };

        Ok(Self {
            stm,
            executor,
            epoch,
            commits: rx,
            stop,
            handle: Some(handle),
            block_txns,
            blocks_done,
            slo,
            registry,
        })
    }

    /// The config space this system actuates over an `n_cores` grid:
    /// `(t, c)` crossed with the `block` axis. Hand this to the tuner so
    /// every proposal is enactable.
    pub fn space(&self, n_cores: usize) -> ConfigSpace {
        self.registry.space(n_cores)
    }

    /// The executor driving the stream.
    pub fn executor(&self) -> &BlockExecutor {
        &self.executor
    }

    /// Transactions per block currently in force.
    pub fn block_txns(&self) -> usize {
        self.block_txns.load(Ordering::Acquire)
    }

    /// Blocks committed since start.
    pub fn blocks_done(&self) -> u64 {
        self.blocks_done.load(Ordering::Acquire)
    }

    /// Stop the driver thread and abort any in-flight block.
    pub fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Release);
        // A mid-execution block polls the admission gate; closing it drains
        // the executor's workers promptly instead of waiting a full block.
        self.stm.close_admission();
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
        self.stm.reopen_admission();
    }
}

impl Drop for LedgerLiveSystem {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// The driver: execute blocks until stopped, publishing spread per-txn
/// commit stamps and (while an SLO window is open) per-txn latencies.
#[allow(clippy::too_many_arguments)]
fn driver(
    executor: Arc<BlockExecutor>,
    epoch: Instant,
    block_txns: Arc<AtomicUsize>,
    blocks_done: Arc<AtomicU64>,
    slo: Arc<parking_lot::Mutex<SloWindow>>,
    tx: Sender<u64>,
    stop: Arc<AtomicBool>,
    seed: u64,
    accounts: usize,
) {
    let mut round = 0u64;
    while !stop.load(Ordering::Acquire) {
        let txns = block_txns.load(Ordering::Acquire).max(1);
        let block = skewed_block(seed.wrapping_add(round), txns, accounts, 10);
        let t0 = epoch.elapsed().as_nanos() as u64;
        match executor.execute_block(&block) {
            Ok(_) => {
                let t1 = epoch.elapsed().as_nanos() as u64;
                let dur = t1.saturating_sub(t0).max(1);
                for i in 0..txns as u64 {
                    let _ = tx.send(t0 + dur * (i + 1) / txns as u64);
                }
                {
                    let mut w = slo.lock();
                    if w.open {
                        // Every transaction in the block waits from block
                        // assembly to the block's single commit — the
                        // latency cost a bigger block trades throughput for.
                        w.latencies.extend(std::iter::repeat_n(dur, txns));
                    }
                }
                blocks_done.fetch_add(1, Ordering::AcqRel);
            }
            // Admission closed (shutdown) — or an unrecoverable STM error;
            // either way the stream is over.
            Err(_) => return,
        }
        round += 1;
    }
}

impl TunableSystem for LedgerLiveSystem {
    fn apply(&mut self, cfg: Config) {
        // Infallible path; controller flows use `try_apply`.
        let _ = self.registry.enact_noted(cfg, &self.stm);
        self.stm.set_degree(cfg.into());
        self.executor.set_workers(cfg.t);
        while self.commits.try_recv().is_ok() {}
    }

    fn try_apply(&mut self, cfg: Config) -> Result<(), ApplyError> {
        // Axes first, degree last (the veto point) — same ordering contract
        // as `autopn::PnstmActuator`: a veto after the axes were enacted is
        // repaired by the controller re-applying the full last-good point.
        self.registry.enact_noted(cfg, &self.stm)?;
        self.stm.try_set_degree(cfg.into()).map_err(|err| ApplyError::new(err.to_string()))?;
        self.executor.set_workers(cfg.t);
        while self.commits.try_recv().is_ok() {}
        Ok(())
    }

    fn wait_commit(&mut self, max_wait_ns: u64) -> Option<u64> {
        match self.commits.recv_timeout(Duration::from_nanos(max_wait_ns)) {
            Ok(ts) => Some(ts),
            Err(RecvTimeoutError::Timeout) | Err(RecvTimeoutError::Disconnected) => None,
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn quiesce(&mut self) {
        // Wait for the next block boundary so the in-flight block (executed
        // under the previous configuration) does not leak into the next
        // window, capped for liveness.
        let target = self.blocks_done.load(Ordering::Acquire) + 1;
        let deadline = Instant::now() + Duration::from_millis(200);
        while self.blocks_done.load(Ordering::Acquire) < target && Instant::now() < deadline {
            thread::sleep(Duration::from_micros(200));
        }
        while self.commits.try_recv().is_ok() {}
    }
}

impl SloTunableSystem for LedgerLiveSystem {
    fn begin_slo_window(&mut self) {
        let now = self.epoch.elapsed().as_nanos() as u64;
        let mut w = self.slo.lock();
        w.open = true;
        w.start_ns = now;
        w.latencies.clear();
    }

    fn end_slo_window(&mut self) -> SloKpi {
        let now = self.epoch.elapsed().as_nanos() as u64;
        let mut w = self.slo.lock();
        w.open = false;
        let mut lat = std::mem::take(&mut w.latencies);
        lat.sort_unstable();
        let window_ns = now.saturating_sub(w.start_ns).max(1);
        let completed = lat.len() as u64;
        let pct = |q: f64| -> u64 {
            if lat.is_empty() {
                0
            } else {
                lat[((lat.len() - 1) as f64 * q) as usize]
            }
        };
        SloKpi {
            goodput: completed as f64 * 1e9 / window_ns as f64,
            offered: completed,
            completed,
            rejected: 0,
            p50_ns: pct(0.50),
            p99_ns: pct(0.99),
            p999_ns: pct(0.999),
            window_ns,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use autopn::monitor::AdaptiveMonitor;
    use autopn::{AutoPn, AutoPnConfig, AxisLevels, Controller};
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
    fn block_axis_defaults_to_the_ledger_block_size() {
        let axis = Axis::block_size();
        assert_eq!(
            axis.value_at(axis.default_level()) as usize,
            LedgerConfig::default().block_size
        );
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
    fn block_axis_is_enacted_mid_stream() {
        let stm = stm();
        let sink = Arc::new(pnstm::TestSink::new());
        stm.trace_bus().subscribe(sink.clone());
        let mut sys = LedgerLiveSystem::start(stm.clone(), 64, 1_000, ledger_cfg(), 3).unwrap();
        let space = sys.space(4);
        assert_eq!(space.axes().len(), 1);

        let b512 = space.axes()[0].level_of_value(512).unwrap();
        let cfg = Config::with_axes(2, 1, AxisLevels::from_slice(&[b512]));
        sys.try_apply(cfg).unwrap();
        assert_eq!(sys.block_txns(), 512);
        assert_eq!(sys.executor().workers(), 2);
        assert_eq!(stm.degree(), ParallelismDegree::new(2, 1));

        let axes = sink
            .events()
            .iter()
            .find_map(|ev| match ev {
                pnstm::TraceEvent::Reconfigure { to: (2, 1), axes, .. } => Some(*axes),
                _ => None,
            })
            .expect("reconfigure event");
        assert_eq!(axes.get("block").unwrap().value, 512);

        // The stream keeps flowing at the new width, and the driver picks up
        // the new block size at a block boundary.
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
        let mut sys = LedgerLiveSystem::start(stm(), 64, 1_000, ledger_cfg(), 11).unwrap();
        sys.begin_slo_window();
        let deadline = Instant::now() + Duration::from_secs(10);
        while sys.blocks_done() < 3 && Instant::now() < deadline {
            thread::sleep(Duration::from_millis(1));
        }
        let kpi = sys.end_slo_window();
        assert!(kpi.completed >= 3 * 64, "three 64-txn blocks completed");
        assert!(kpi.goodput > 0.0);
        assert!(kpi.p99_ns >= kpi.p50_ns);
        assert!(kpi.p50_ns > 0);
        sys.shutdown();
    }

    /// The satellite's end-to-end claim: a full AutoPN session over the
    /// ledger space tunes the block size mid-stream through the standard
    /// controller path, ending on a full (enactable) configuration point.
    #[test]
    fn controller_tunes_block_size_mid_stream() {
        let mut sys = LedgerLiveSystem::start(stm(), 64, 10_000, ledger_cfg(), 42).unwrap();
        let space = sys.space(2);
        let mut tuner = AutoPn::new(space.clone(), AutoPnConfig::default());
        let mut policy = AdaptiveMonitor::new(0.5, 16);
        let outcome = Controller::tune(&mut sys, &mut tuner, &mut policy);
        assert!(!outcome.explored.is_empty());
        assert!(space.contains(outcome.best), "winner is a full, enactable point");
        // The initial design probes alone guarantee at least one non-default
        // block level was actually enacted during the session.
        let tried_levels: std::collections::HashSet<usize> =
            outcome.explored.iter().map(|(c, _)| c.axes.get(0)).collect();
        assert!(tried_levels.len() > 1, "session explored multiple block sizes");
        assert_eq!(sys.block_txns() as u32, space.axes()[0].value_at(outcome.best.axes.get(0)));
        sys.shutdown();
    }
}
