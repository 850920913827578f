//! Low-overhead event tracing for the tune loop (observability layer).
//!
//! Every stage of the paper's Fig. 2 feedback loop — actuator, monitor,
//! optimizer — emits typed [`TraceEvent`]s onto a shared [`TraceBus`]. The
//! bus is designed so that an STM with tracing *disabled* pays a single
//! relaxed atomic load per emission site, and an STM with tracing enabled
//! pays whatever the subscribed sinks cost:
//!
//! * [`RingSink`] — fixed-capacity ring buffer, no allocation per event
//!   (events are `Copy`); the cheap always-on option for flight recording.
//! * [`TestSink`] — unbounded in-memory vector, for assertions in tests.
//! * [`JsonlSink`] — one JSON object per line to any writer, for offline
//!   analysis (`jq`-able; see `DESIGN.md` for the schema).
//!
//! Producers inside `pnstm` (the [`crate::Stm`] retry driver, the
//! [`crate::Throttle`] actuator, the nested-transaction runner) share the
//! STM instance's bus ([`crate::Stm::trace_bus`]); the `autopn` controller
//! accepts a bus in its `*_traced` entry points so one stream can interleave
//! runtime and control-plane events.

use parking_lot::{Mutex, RwLock};
use std::io::Write;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use crate::cm::AbortSite;
use crate::fault::FaultKind;
use crate::mem::MemLevel;
use crate::stats::TxKind;

/// Nanoseconds since the process-wide trace epoch (first call wins). All
/// `at_ns` fields of events produced inside `pnstm` use this clock; control
/// planes driving a virtual clock stamp events with their own time instead.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// One typed observation from the tune loop. `Copy`, no heap payload — a
/// ring sink can store events without allocating.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TraceEvent {
    /// A transaction attempt chain started (once per `atomic()` call /
    /// child task, not per retry).
    TxBegin { kind: TxKind, at_ns: u64 },
    /// A transaction committed after `retries` aborted attempts.
    TxCommit { kind: TxKind, retries: u64, at_ns: u64 },
    /// A transaction attempt aborted; `retries` counts aborts so far in the
    /// chain (including this one).
    TxAbort { kind: TxKind, retries: u64, at_ns: u64 },
    /// Time spent blocked on the top-level admission semaphore.
    SemWait { wait_ns: u64 },
    /// A striped commit attempt acquired its write-set stripe locks:
    /// `stripes` locked in canonical order, `contended` of which were held by
    /// another committer on first try. Emitted only when `contended > 0` —
    /// the uncontended common case stays off the bus.
    CommitStripeContention { stripes: u32, contended: u32, at_ns: u64 },
    /// One transaction attempt's aggregated read-path counters, flushed when
    /// the attempt ends: ancestor-level filter probes that could not rule the
    /// level out (`filter_hits`), probes the filter skipped (`filter_misses`),
    /// and reads that performed at least one ancestor fallback lookup
    /// (`slow_path`). Emitted only when at least one counter is nonzero.
    ReadPath { filter_hits: u64, filter_misses: u64, slow_path: u64, at_ns: u64 },
    /// The child scheduler (either rung) completed a `parallel()` batch of
    /// `tasks` child tasks, `stolen` of which were executed by helper
    /// workers. `handed_off` is the hand-off decision: whether the batch was published
    /// to the worker pool at all, or run by its parent alone (always false at
    /// `c = 1`). Emitted once per batch at completion.
    SchedBatch { tasks: u32, stolen: u32, handed_off: bool, at_ns: u64 },
    /// The actuator switched the parallelism degree `from` → `to` `(t, c)`.
    Reconfigure { from: (u32, u32), to: (u32, u32) },
    /// The monitor opened a measurement window.
    WindowOpen { at_ns: u64 },
    /// A commit observed inside the window, with the policy's running CV
    /// estimate at that point (the CV trajectory; `None` until defined).
    WindowSample { at_ns: u64, cv: Option<f64> },
    /// The monitor closed the window with a measurement.
    WindowClose {
        at_ns: u64,
        commits: u64,
        window_ns: u64,
        throughput: f64,
        timed_out: bool,
        cv: Option<f64>,
    },
    /// The optimizer proposed a configuration to measure; `relative_ei` is
    /// the SMBO acquisition value when the proposal came from that phase.
    Proposal { t: u32, c: u32, relative_ei: Option<f64> },
    /// The optimizer moved between phases (endpoints of one `propose` call).
    OptimizerPhase { from: &'static str, to: &'static str },
    /// A tuning session started.
    SessionStart { at_ns: u64 },
    /// A tuning session ended on `best = (t, c)`. `fallback` is set when the
    /// tuner had no observation at all and the controller fell back to the
    /// sequential configuration. `degraded` is set when the session survived
    /// a fault — a reconfiguration fallback, a watchdog-terminated window or
    /// a starved pivot — and its result should be treated with suspicion.
    SessionEnd {
        at_ns: u64,
        best_t: u32,
        best_c: u32,
        throughput: f64,
        explored: u64,
        fallback: bool,
        degraded: bool,
    },
    /// The change detector reported a workload change during supervision.
    ChangeDetected { at_ns: u64 },
    /// The fault layer injected a fault at a site of `kind`; `seq` is the
    /// 1-based injection number within the kind, `delay_ns` the configured
    /// stall/jitter magnitude (0 for abort/panic/fail kinds).
    FaultInjected { kind: FaultKind, seq: u64, delay_ns: u64, at_ns: u64 },
    /// A supervised application worker's transaction body panicked;
    /// `restarts` counts panics absorbed so far across the system.
    WorkerPanicked { worker: u32, restarts: u64, at_ns: u64 },
    /// Applying `(t, c)` kept failing after bounded retries; the controller
    /// fell back to the last-known-good `(fb_t, fb_c)`.
    ApplyDegraded { t: u32, c: u32, fb_t: u32, fb_c: u32, attempts: u32 },
    /// The measurement watchdog force-closed a window that outlived its hard
    /// deadline (the adaptive timeout never fired — e.g. a stalled system).
    WatchdogFired { at_ns: u64 },
    /// The contention manager delayed a retry: a wait of `waited_ns` at
    /// abort site `site`, `attempt` aborts into the chain. Emitted only for
    /// nonzero waits — first aborts stay off the bus.
    CmDecision { site: AbortSite, waited_ns: u64, attempt: u64, at_ns: u64 },
    /// A GC cycle finished: the version-heap gauge stood at
    /// `retained_versions`/`retained_bytes` after pruning `pruned` versions
    /// over `slices` bounded slices. `urgent` marks ladder-triggered cycles.
    MemPressure {
        retained_versions: u64,
        retained_bytes: u64,
        pruned: u64,
        slices: u64,
        urgent: bool,
        at_ns: u64,
    },
    /// The memory degradation ladder moved between levels (escalation or
    /// recovery) at a gauge reading of `retained_versions`.
    MemDegraded { from: MemLevel, to: MemLevel, retained_versions: u64, at_ns: u64 },
    /// A ledger block of `txns` transactions committed in deterministic
    /// index order after `reexecutions` incarnation re-runs (0 on the
    /// sequential rung).
    BlockCommitted { txns: u32, reexecutions: u32, at_ns: u64 },
    /// Block-STM validation aborted a transaction: `txn_idx` will re-run as
    /// `incarnation` (the first re-execution is incarnation 1).
    TxnReexecuted { txn_idx: u32, incarnation: u32, at_ns: u64 },
    /// One ingress monitoring window closed: `offered` requests arrived
    /// (per the open-loop schedule), `completed` finished, `rejected` hit
    /// the queue ceiling (typed backpressure, counted as SLO misses).
    /// Latency percentiles are measured from *intended arrival* — the
    /// scheduled arrival instant, not the dequeue instant — so the figures
    /// are coordinated-omission-free. `goodput` is completed requests per
    /// second over `window_ns`. `gen_lag_*` (push − intended arrival) and
    /// `queue_wait_*` (dequeue − push) divide the wait ahead of the dequeue
    /// between the generator and the queue.
    IngressWindow {
        at_ns: u64,
        window_ns: u64,
        offered: u64,
        completed: u64,
        rejected: u64,
        goodput: f64,
        p50_ns: u64,
        p99_ns: u64,
        p999_ns: u64,
        gen_lag_p50_ns: u64,
        gen_lag_p99_ns: u64,
        queue_wait_p50_ns: u64,
        queue_wait_p99_ns: u64,
    },
}

fn push_f64(out: &mut String, x: f64) {
    if x.is_finite() {
        out.push_str(&x.to_string());
    } else {
        out.push_str("null");
    }
}

fn push_opt_f64(out: &mut String, x: Option<f64>) {
    match x {
        Some(v) => push_f64(out, v),
        None => out.push_str("null"),
    }
}

impl TraceEvent {
    /// Short event-type tag (the `"ev"` field of the JSON schema).
    pub fn tag(&self) -> &'static str {
        match self {
            TraceEvent::TxBegin { .. } => "tx_begin",
            TraceEvent::TxCommit { .. } => "tx_commit",
            TraceEvent::TxAbort { .. } => "tx_abort",
            TraceEvent::SemWait { .. } => "sem_wait",
            TraceEvent::CommitStripeContention { .. } => "commit_stripe_contention",
            TraceEvent::ReadPath { .. } => "read_path",
            TraceEvent::SchedBatch { .. } => "sched_batch",
            TraceEvent::Reconfigure { .. } => "reconfigure",
            TraceEvent::WindowOpen { .. } => "window_open",
            TraceEvent::WindowSample { .. } => "window_sample",
            TraceEvent::WindowClose { .. } => "window_close",
            TraceEvent::Proposal { .. } => "proposal",
            TraceEvent::OptimizerPhase { .. } => "optimizer_phase",
            TraceEvent::SessionStart { .. } => "session_start",
            TraceEvent::SessionEnd { .. } => "session_end",
            TraceEvent::ChangeDetected { .. } => "change_detected",
            TraceEvent::FaultInjected { .. } => "fault_injected",
            TraceEvent::WorkerPanicked { .. } => "worker_panicked",
            TraceEvent::ApplyDegraded { .. } => "apply_degraded",
            TraceEvent::WatchdogFired { .. } => "watchdog_fired",
            TraceEvent::CmDecision { .. } => "cm_decision",
            TraceEvent::MemPressure { .. } => "mem_pressure",
            TraceEvent::MemDegraded { .. } => "mem_degraded",
            TraceEvent::BlockCommitted { .. } => "block_committed",
            TraceEvent::TxnReexecuted { .. } => "txn_reexecuted",
            TraceEvent::IngressWindow { .. } => "ingress_window",
        }
    }

    /// Append this event as one JSON object (no trailing newline). The
    /// schema is documented in `DESIGN.md`; keys are stable.
    pub fn write_json(&self, out: &mut String) {
        use std::fmt::Write as _;
        let kind_str = |k: &TxKind| match k {
            TxKind::TopLevel => "top",
            TxKind::Nested => "nested",
        };
        let _ = write!(out, "{{\"ev\":\"{}\"", self.tag());
        match *self {
            TraceEvent::TxBegin { kind, at_ns } => {
                let _ = write!(out, ",\"kind\":\"{}\",\"at_ns\":{at_ns}", kind_str(&kind));
            }
            TraceEvent::TxCommit { kind, retries, at_ns }
            | TraceEvent::TxAbort { kind, retries, at_ns } => {
                let _ = write!(
                    out,
                    ",\"kind\":\"{}\",\"retries\":{retries},\"at_ns\":{at_ns}",
                    kind_str(&kind)
                );
            }
            TraceEvent::SemWait { wait_ns } => {
                let _ = write!(out, ",\"wait_ns\":{wait_ns}");
            }
            TraceEvent::CommitStripeContention { stripes, contended, at_ns } => {
                let _ = write!(
                    out,
                    ",\"stripes\":{stripes},\"contended\":{contended},\"at_ns\":{at_ns}"
                );
            }
            TraceEvent::ReadPath { filter_hits, filter_misses, slow_path, at_ns } => {
                let _ = write!(
                    out,
                    ",\"filter_hits\":{filter_hits},\"filter_misses\":{filter_misses},\"slow_path\":{slow_path},\"at_ns\":{at_ns}"
                );
            }
            TraceEvent::SchedBatch { tasks, stolen, handed_off, at_ns } => {
                let _ = write!(
                    out,
                    ",\"tasks\":{tasks},\"stolen\":{stolen},\"handed_off\":{handed_off},\"at_ns\":{at_ns}"
                );
            }
            TraceEvent::Reconfigure { from, to } => {
                let _ = write!(out, ",\"from\":[{},{}],\"to\":[{},{}]", from.0, from.1, to.0, to.1);
            }
            TraceEvent::WindowOpen { at_ns }
            | TraceEvent::ChangeDetected { at_ns }
            | TraceEvent::WatchdogFired { at_ns } => {
                let _ = write!(out, ",\"at_ns\":{at_ns}");
            }
            TraceEvent::WindowSample { at_ns, cv } => {
                let _ = write!(out, ",\"at_ns\":{at_ns},\"cv\":");
                push_opt_f64(out, cv);
            }
            TraceEvent::WindowClose { at_ns, commits, window_ns, throughput, timed_out, cv } => {
                let _ = write!(
                    out,
                    ",\"at_ns\":{at_ns},\"commits\":{commits},\"window_ns\":{window_ns},\"throughput\":"
                );
                push_f64(out, throughput);
                let _ = write!(out, ",\"timed_out\":{timed_out},\"cv\":");
                push_opt_f64(out, cv);
            }
            TraceEvent::Proposal { t, c, relative_ei } => {
                let _ = write!(out, ",\"t\":{t},\"c\":{c},\"relative_ei\":");
                push_opt_f64(out, relative_ei);
            }
            TraceEvent::OptimizerPhase { from, to } => {
                let _ = write!(out, ",\"from\":\"{from}\",\"to\":\"{to}\"");
            }
            TraceEvent::SessionStart { at_ns } => {
                let _ = write!(out, ",\"at_ns\":{at_ns}");
            }
            TraceEvent::SessionEnd {
                at_ns,
                best_t,
                best_c,
                throughput,
                explored,
                fallback,
                degraded,
            } => {
                let _ = write!(
                    out,
                    ",\"at_ns\":{at_ns},\"best_t\":{best_t},\"best_c\":{best_c},\"throughput\":"
                );
                push_f64(out, throughput);
                let _ = write!(
                    out,
                    ",\"explored\":{explored},\"fallback\":{fallback},\"degraded\":{degraded}"
                );
            }
            TraceEvent::FaultInjected { kind, seq, delay_ns, at_ns } => {
                let _ = write!(
                    out,
                    ",\"kind\":\"{}\",\"seq\":{seq},\"delay_ns\":{delay_ns},\"at_ns\":{at_ns}",
                    kind.tag()
                );
            }
            TraceEvent::WorkerPanicked { worker, restarts, at_ns } => {
                let _ =
                    write!(out, ",\"worker\":{worker},\"restarts\":{restarts},\"at_ns\":{at_ns}");
            }
            TraceEvent::ApplyDegraded { t, c, fb_t, fb_c, attempts } => {
                let _ = write!(
                    out,
                    ",\"t\":{t},\"c\":{c},\"fb_t\":{fb_t},\"fb_c\":{fb_c},\"attempts\":{attempts}"
                );
            }
            TraceEvent::CmDecision { site, waited_ns, attempt, at_ns } => {
                let _ = write!(
                    out,
                    ",\"site\":\"{}\",\"waited_ns\":{waited_ns},\"attempt\":{attempt},\"at_ns\":{at_ns}",
                    site.tag()
                );
            }
            TraceEvent::MemPressure {
                retained_versions,
                retained_bytes,
                pruned,
                slices,
                urgent,
                at_ns,
            } => {
                let _ = write!(
                    out,
                    ",\"retained_versions\":{retained_versions},\"retained_bytes\":{retained_bytes},\"pruned\":{pruned},\"slices\":{slices},\"urgent\":{urgent},\"at_ns\":{at_ns}"
                );
            }
            TraceEvent::MemDegraded { from, to, retained_versions, at_ns } => {
                let _ = write!(
                    out,
                    ",\"from\":\"{}\",\"to\":\"{}\",\"retained_versions\":{retained_versions},\"at_ns\":{at_ns}",
                    from.tag(),
                    to.tag()
                );
            }
            TraceEvent::BlockCommitted { txns, reexecutions, at_ns } => {
                let _ = write!(
                    out,
                    ",\"txns\":{txns},\"reexecutions\":{reexecutions},\"at_ns\":{at_ns}"
                );
            }
            TraceEvent::TxnReexecuted { txn_idx, incarnation, at_ns } => {
                let _ = write!(
                    out,
                    ",\"txn_idx\":{txn_idx},\"incarnation\":{incarnation},\"at_ns\":{at_ns}"
                );
            }
            TraceEvent::IngressWindow {
                at_ns,
                window_ns,
                offered,
                completed,
                rejected,
                goodput,
                p50_ns,
                p99_ns,
                p999_ns,
                gen_lag_p50_ns,
                gen_lag_p99_ns,
                queue_wait_p50_ns,
                queue_wait_p99_ns,
            } => {
                let _ = write!(
                    out,
                    ",\"at_ns\":{at_ns},\"window_ns\":{window_ns},\"offered\":{offered},\"completed\":{completed},\"rejected\":{rejected},\"goodput\":"
                );
                push_f64(out, goodput);
                let _ = write!(
                    out,
                    ",\"p50_ns\":{p50_ns},\"p99_ns\":{p99_ns},\"p999_ns\":{p999_ns},\"gen_lag_p50_ns\":{gen_lag_p50_ns},\"gen_lag_p99_ns\":{gen_lag_p99_ns},\"queue_wait_p50_ns\":{queue_wait_p50_ns},\"queue_wait_p99_ns\":{queue_wait_p99_ns}"
                );
            }
        }
        out.push('}');
    }

    /// This event as a JSON string.
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(96);
        self.write_json(&mut s);
        s
    }
}

/// Consumer of trace events. Implementations must tolerate concurrent
/// `record` calls from many threads.
pub trait TraceSink: Send + Sync {
    fn record(&self, ev: &TraceEvent);
    /// Flush any buffering to the backing store. Default: no-op.
    fn flush(&self) {}
}

#[derive(Default)]
struct BusInner {
    /// True iff at least one sink is subscribed — the only state the
    /// disabled fast path reads.
    active: AtomicBool,
    sinks: RwLock<Vec<Arc<dyn TraceSink>>>,
}

/// Fan-out bus for [`TraceEvent`]s. Cheap to clone (`Arc` inside); clones
/// share subscriptions. A bus with no sinks costs one relaxed atomic load
/// per [`TraceBus::emit`].
#[derive(Clone, Default)]
pub struct TraceBus {
    inner: Arc<BusInner>,
}

impl TraceBus {
    /// A bus with no subscribers (tracing disabled until one subscribes).
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether any sink is subscribed. Use to skip *constructing* expensive
    /// events; [`TraceBus::emit`] performs the same check itself.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.inner.active.load(Ordering::Relaxed)
    }

    /// Attach a sink; enables the bus.
    pub fn subscribe(&self, sink: Arc<dyn TraceSink>) {
        let mut sinks = self.inner.sinks.write();
        sinks.push(sink);
        self.inner.active.store(true, Ordering::Release);
    }

    /// Detach all sinks; the bus returns to the disabled fast path.
    pub fn clear_sinks(&self) {
        let mut sinks = self.inner.sinks.write();
        self.inner.active.store(false, Ordering::Release);
        sinks.clear();
    }

    /// Publish an event to every subscribed sink (no-op when disabled).
    #[inline]
    pub fn emit(&self, ev: TraceEvent) {
        if self.inner.active.load(Ordering::Relaxed) {
            self.emit_slow(ev);
        }
    }

    #[cold]
    fn emit_slow(&self, ev: TraceEvent) {
        for sink in self.inner.sinks.read().iter() {
            sink.record(&ev);
        }
    }

    /// Flush every subscribed sink.
    pub fn flush(&self) {
        for sink in self.inner.sinks.read().iter() {
            sink.flush();
        }
    }
}

impl std::fmt::Debug for TraceBus {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceBus")
            .field("enabled", &self.is_enabled())
            .field("sinks", &self.inner.sinks.read().len())
            .finish()
    }
}

/// Unbounded in-memory sink for tests: collect events, then assert on them.
#[derive(Default)]
pub struct TestSink {
    events: Mutex<Vec<TraceEvent>>,
}

impl TestSink {
    pub fn new() -> Self {
        Self::default()
    }

    /// Snapshot of all recorded events in arrival order.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.events.lock().clone()
    }

    /// Drain the recorded events.
    pub fn take(&self) -> Vec<TraceEvent> {
        std::mem::take(&mut *self.events.lock())
    }

    pub fn len(&self) -> usize {
        self.events.lock().len()
    }

    pub fn is_empty(&self) -> bool {
        self.events.lock().is_empty()
    }
}

impl TraceSink for TestSink {
    fn record(&self, ev: &TraceEvent) {
        self.events.lock().push(*ev);
    }
}

struct RingState {
    /// Pre-reserved to `capacity`; pushes never reallocate.
    buf: Vec<TraceEvent>,
    /// Index of the oldest event once the buffer has wrapped.
    head: usize,
    overwritten: u64,
}

/// Fixed-capacity flight recorder: keeps the most recent events, overwriting
/// the oldest. The record path takes a short mutex but never allocates.
pub struct RingSink {
    capacity: usize,
    state: Mutex<RingState>,
}

impl RingSink {
    pub fn with_capacity(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        Self {
            capacity,
            state: Mutex::new(RingState {
                buf: Vec::with_capacity(capacity),
                head: 0,
                overwritten: 0,
            }),
        }
    }

    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// How many events were overwritten because the ring was full.
    pub fn overwritten(&self) -> u64 {
        self.state.lock().overwritten
    }

    /// The retained events, oldest first.
    pub fn snapshot(&self) -> Vec<TraceEvent> {
        let st = self.state.lock();
        let mut out = Vec::with_capacity(st.buf.len());
        out.extend_from_slice(&st.buf[st.head..]);
        out.extend_from_slice(&st.buf[..st.head]);
        out
    }
}

impl TraceSink for RingSink {
    fn record(&self, ev: &TraceEvent) {
        let mut st = self.state.lock();
        if st.buf.len() < self.capacity {
            st.buf.push(*ev);
        } else {
            let head = st.head;
            st.buf[head] = *ev;
            st.head = (head + 1) % self.capacity;
            st.overwritten += 1;
        }
    }
}

/// Writes one JSON object per event, newline-delimited (JSONL), to any
/// writer. Buffered; call [`TraceSink::flush`] (or drop the sink) to make
/// the tail visible.
pub struct JsonlSink {
    out: Mutex<std::io::BufWriter<Box<dyn Write + Send>>>,
}

impl JsonlSink {
    /// Trace to a freshly created (truncated) file at `path`.
    pub fn create(path: impl AsRef<std::path::Path>) -> std::io::Result<Self> {
        Ok(Self::new(std::fs::File::create(path)?))
    }

    /// Trace to an arbitrary writer.
    pub fn new(w: impl Write + Send + 'static) -> Self {
        Self { out: Mutex::new(std::io::BufWriter::new(Box::new(w))) }
    }
}

impl TraceSink for JsonlSink {
    fn record(&self, ev: &TraceEvent) {
        let mut line = ev.to_json();
        line.push('\n');
        let _ = self.out.lock().write_all(line.as_bytes());
    }

    fn flush(&self) {
        let _ = self.out.lock().flush();
    }
}

impl Drop for JsonlSink {
    fn drop(&mut self) {
        let _ = self.out.lock().flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bus_disabled_until_subscribed() {
        let bus = TraceBus::new();
        assert!(!bus.is_enabled());
        bus.emit(TraceEvent::SemWait { wait_ns: 1 }); // goes nowhere
        let sink = Arc::new(TestSink::new());
        bus.subscribe(sink.clone());
        assert!(bus.is_enabled());
        bus.emit(TraceEvent::SemWait { wait_ns: 2 });
        assert_eq!(sink.events(), vec![TraceEvent::SemWait { wait_ns: 2 }]);
        bus.clear_sinks();
        assert!(!bus.is_enabled());
        bus.emit(TraceEvent::SemWait { wait_ns: 3 });
        assert_eq!(sink.len(), 1, "cleared sink no longer receives");
    }

    #[test]
    fn clones_share_subscriptions() {
        let bus = TraceBus::new();
        let clone = bus.clone();
        let sink = Arc::new(TestSink::new());
        bus.subscribe(sink.clone());
        clone.emit(TraceEvent::WindowOpen { at_ns: 7 });
        assert_eq!(sink.events(), vec![TraceEvent::WindowOpen { at_ns: 7 }]);
    }

    #[test]
    fn ring_sink_keeps_most_recent() {
        let ring = RingSink::with_capacity(3);
        for i in 0..5u64 {
            ring.record(&TraceEvent::SemWait { wait_ns: i });
        }
        assert_eq!(
            ring.snapshot(),
            vec![
                TraceEvent::SemWait { wait_ns: 2 },
                TraceEvent::SemWait { wait_ns: 3 },
                TraceEvent::SemWait { wait_ns: 4 },
            ]
        );
        assert_eq!(ring.overwritten(), 2);
        assert_eq!(ring.capacity(), 3);
    }

    #[test]
    fn events_format_as_json_objects() {
        let evs = [
            TraceEvent::TxBegin { kind: TxKind::TopLevel, at_ns: 5 },
            TraceEvent::TxCommit { kind: TxKind::Nested, retries: 2, at_ns: 9 },
            TraceEvent::TxAbort { kind: TxKind::TopLevel, retries: 1, at_ns: 11 },
            TraceEvent::SemWait { wait_ns: 1500 },
            TraceEvent::CommitStripeContention { stripes: 4, contended: 1, at_ns: 6 },
            TraceEvent::ReadPath { filter_hits: 2, filter_misses: 30, slow_path: 2, at_ns: 8 },
            TraceEvent::SchedBatch { tasks: 8, stolen: 3, handed_off: true, at_ns: 9 },
            TraceEvent::Reconfigure { from: (4, 1), to: (2, 2) },
            TraceEvent::WindowOpen { at_ns: 1 },
            TraceEvent::WindowSample { at_ns: 2, cv: Some(0.25) },
            TraceEvent::WindowClose {
                at_ns: 3,
                commits: 10,
                window_ns: 100,
                throughput: 1e8,
                timed_out: false,
                cv: None,
            },
            TraceEvent::Proposal { t: 6, c: 2, relative_ei: Some(0.5) },
            TraceEvent::OptimizerPhase { from: "smbo", to: "hill-climb" },
            TraceEvent::SessionStart { at_ns: 0 },
            TraceEvent::SessionEnd {
                at_ns: 10,
                best_t: 6,
                best_c: 2,
                throughput: 123.0,
                explored: 17,
                fallback: false,
                degraded: false,
            },
            TraceEvent::ChangeDetected { at_ns: 42 },
            TraceEvent::FaultInjected {
                kind: FaultKind::ValidationAbort,
                seq: 3,
                delay_ns: 0,
                at_ns: 50,
            },
            TraceEvent::WorkerPanicked { worker: 2, restarts: 5, at_ns: 60 },
            TraceEvent::ApplyDegraded { t: 8, c: 4, fb_t: 2, fb_c: 1, attempts: 4 },
            TraceEvent::WatchdogFired { at_ns: 70 },
            TraceEvent::CmDecision {
                site: AbortSite::Commit,
                waited_ns: 40_000,
                attempt: 2,
                at_ns: 80,
            },
            TraceEvent::MemPressure {
                retained_versions: 1024,
                retained_bytes: 16_384,
                pruned: 12,
                slices: 3,
                urgent: false,
                at_ns: 90,
            },
            TraceEvent::MemDegraded {
                from: MemLevel::Normal,
                to: MemLevel::Soft,
                retained_versions: 2048,
                at_ns: 91,
            },
            TraceEvent::BlockCommitted { txns: 128, reexecutions: 7, at_ns: 92 },
            TraceEvent::TxnReexecuted { txn_idx: 17, incarnation: 2, at_ns: 93 },
            TraceEvent::IngressWindow {
                at_ns: 94,
                window_ns: 1_000_000,
                offered: 1000,
                completed: 990,
                rejected: 10,
                goodput: 990_000.0,
                p50_ns: 2_047,
                p99_ns: 65_535,
                p999_ns: 524_287,
                gen_lag_p50_ns: 1_023,
                gen_lag_p99_ns: 8_191,
                queue_wait_p50_ns: 511,
                queue_wait_p99_ns: 32_767,
            },
        ];
        for ev in evs {
            let json = ev.to_json();
            assert!(json.starts_with('{') && json.ends_with('}'), "{json}");
            assert!(json.contains(&format!("\"ev\":\"{}\"", ev.tag())), "{json}");
        }
        assert_eq!(
            TraceEvent::Reconfigure { from: (4, 1), to: (2, 2) }.to_json(),
            r#"{"ev":"reconfigure","from":[4,1],"to":[2,2]}"#
        );
        assert_eq!(
            TraceEvent::Proposal { t: 6, c: 2, relative_ei: Some(0.5) }.to_json(),
            r#"{"ev":"proposal","t":6,"c":2,"relative_ei":0.5}"#
        );
        assert_eq!(
            TraceEvent::Proposal { t: 1, c: 48, relative_ei: None }.to_json(),
            r#"{"ev":"proposal","t":1,"c":48,"relative_ei":null}"#
        );
        assert_eq!(
            TraceEvent::SessionEnd {
                at_ns: 10,
                best_t: 6,
                best_c: 2,
                throughput: 123.5,
                explored: 17,
                fallback: false,
                degraded: true,
            }
            .to_json(),
            r#"{"ev":"session_end","at_ns":10,"best_t":6,"best_c":2,"throughput":123.5,"explored":17,"fallback":false,"degraded":true}"#
        );
        assert_eq!(
            TraceEvent::WindowSample { at_ns: 2, cv: None }.to_json(),
            r#"{"ev":"window_sample","at_ns":2,"cv":null}"#
        );
        assert_eq!(
            TraceEvent::CommitStripeContention { stripes: 4, contended: 1, at_ns: 6 }.to_json(),
            r#"{"ev":"commit_stripe_contention","stripes":4,"contended":1,"at_ns":6}"#
        );
        assert_eq!(
            TraceEvent::ReadPath { filter_hits: 2, filter_misses: 30, slow_path: 2, at_ns: 8 }
                .to_json(),
            r#"{"ev":"read_path","filter_hits":2,"filter_misses":30,"slow_path":2,"at_ns":8}"#
        );
        assert_eq!(
            TraceEvent::SchedBatch { tasks: 8, stolen: 3, handed_off: true, at_ns: 9 }.to_json(),
            r#"{"ev":"sched_batch","tasks":8,"stolen":3,"handed_off":true,"at_ns":9}"#
        );
        assert_eq!(
            TraceEvent::FaultInjected {
                kind: FaultKind::CommitHold,
                seq: 1,
                delay_ns: 250,
                at_ns: 9
            }
            .to_json(),
            r#"{"ev":"fault_injected","kind":"commit-hold","seq":1,"delay_ns":250,"at_ns":9}"#
        );
        assert_eq!(
            TraceEvent::CmDecision {
                site: AbortSite::Nested,
                waited_ns: 200_000,
                attempt: 2,
                at_ns: 12,
            }
            .to_json(),
            r#"{"ev":"cm_decision","site":"nested","waited_ns":200000,"attempt":2,"at_ns":12}"#
        );
        assert_eq!(
            TraceEvent::MemPressure {
                retained_versions: 7,
                retained_bytes: 112,
                pruned: 4,
                slices: 2,
                urgent: true,
                at_ns: 13,
            }
            .to_json(),
            r#"{"ev":"mem_pressure","retained_versions":7,"retained_bytes":112,"pruned":4,"slices":2,"urgent":true,"at_ns":13}"#
        );
        assert_eq!(
            TraceEvent::MemDegraded {
                from: MemLevel::Soft,
                to: MemLevel::Hard,
                retained_versions: 99,
                at_ns: 14,
            }
            .to_json(),
            r#"{"ev":"mem_degraded","from":"soft","to":"hard","retained_versions":99,"at_ns":14}"#
        );
        assert_eq!(
            TraceEvent::BlockCommitted { txns: 128, reexecutions: 7, at_ns: 92 }.to_json(),
            r#"{"ev":"block_committed","txns":128,"reexecutions":7,"at_ns":92}"#
        );
        assert_eq!(
            TraceEvent::TxnReexecuted { txn_idx: 17, incarnation: 2, at_ns: 93 }.to_json(),
            r#"{"ev":"txn_reexecuted","txn_idx":17,"incarnation":2,"at_ns":93}"#
        );
        assert_eq!(
            TraceEvent::IngressWindow {
                at_ns: 94,
                window_ns: 1_000_000,
                offered: 1000,
                completed: 990,
                rejected: 10,
                goodput: 990_000.0,
                p50_ns: 2_047,
                p99_ns: 65_535,
                p999_ns: 524_287,
                gen_lag_p50_ns: 1_023,
                gen_lag_p99_ns: 8_191,
                queue_wait_p50_ns: 511,
                queue_wait_p99_ns: 32_767,
            }
            .to_json(),
            r#"{"ev":"ingress_window","at_ns":94,"window_ns":1000000,"offered":1000,"completed":990,"rejected":10,"goodput":990000,"p50_ns":2047,"p99_ns":65535,"p999_ns":524287,"gen_lag_p50_ns":1023,"gen_lag_p99_ns":8191,"queue_wait_p50_ns":511,"queue_wait_p99_ns":32767}"#
        );
    }

    #[test]
    fn jsonl_sink_writes_lines() {
        let buf: Arc<Mutex<Vec<u8>>> = Arc::new(Mutex::new(Vec::new()));
        struct Shared(Arc<Mutex<Vec<u8>>>);
        impl Write for Shared {
            fn write(&mut self, data: &[u8]) -> std::io::Result<usize> {
                self.0.lock().extend_from_slice(data);
                Ok(data.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let sink = JsonlSink::new(Shared(buf.clone()));
        sink.record(&TraceEvent::SemWait { wait_ns: 10 });
        sink.record(&TraceEvent::WindowOpen { at_ns: 20 });
        sink.flush();
        let text = String::from_utf8(buf.lock().clone()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines.iter().all(|l| l.starts_with('{') && l.ends_with('}')));
    }

    #[test]
    fn trace_clock_is_monotone() {
        let a = now_ns();
        let b = now_ns();
        assert!(b >= a);
    }

    #[test]
    fn concurrent_emitters_do_not_lose_events() {
        let bus = TraceBus::new();
        let sink = Arc::new(TestSink::new());
        bus.subscribe(sink.clone());
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let bus = bus.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..250u64 {
                    bus.emit(TraceEvent::SemWait { wait_ns: t * 1000 + i });
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(sink.len(), 1000);
    }
}
