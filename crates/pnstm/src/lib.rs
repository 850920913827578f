//! # pnstm — a multi-version software transactional memory with parallel nesting
//!
//! This crate is a from-scratch Rust implementation of the PN-STM substrate
//! assumed by the AutoPN paper (*Online Tuning of Parallelism Degree in
//! Parallel Nesting Transactional Memory*, IPDPS 2018). It follows the
//! abstract system model of §III-A of the paper, which in turn mirrors
//! JVSTM:
//!
//! * **Multi-version boxes** ([`VBox`]) keep a chain of `(version, value)`
//!   pairs. Reads are served from the snapshot selected at transaction begin
//!   and therefore never block or conflict at read time.
//! * **Top-level transactions** validate their read set at commit time and
//!   install new versions atomically. The commit path is TL2-style striped
//!   ([`stripes`]): write sets lock a fixed table of ownership stripes in canonical order, reads validate
//!   against per-stripe version stamps, and commit versions are reserved
//!   from an atomic clock and published contiguously — commits with disjoint
//!   write sets proceed fully in parallel. Read-only transactions never
//!   abort.
//! * **Closed parallel nesting**: a transaction may spawn a batch of child
//!   transactions that execute concurrently ([`Txn::parallel`]). Children
//!   commit into their parent (sibling conflicts are detected against a
//!   per-parent nest clock) and their effects only reach main memory when the
//!   top-level ancestor commits. Nesting may be arbitrarily deep.
//! * **Runtime-adjustable parallelism degree**: the number of concurrent
//!   top-level transactions `t` and the number of concurrent child
//!   transactions per transaction tree `c` are gated by resizable admission
//!   gates ([`throttle::Throttle`]) so that an external controller (AutoPN's
//!   actuator) can reconfigure `(t, c)` while the application runs. Child
//!   transactions run on a work-stealing scheduler ([`WorkStealingPool`])
//!   and top-level admission is a lock-free packed gate ([`PackedGate`]).
//! * **Contention management** ([`cm`], [`CmMode`]): the delay before an
//!   aborted transaction retries is a policy — jittered exponential backoff
//!   from the second abort on (the default), karma, or greedy seniority —
//!   consulted at every abort site and switchable at runtime so the tuner
//!   can co-tune it alongside `(t, c)`.
//! * **KPI instrumentation**: commit/abort counters and a commit-event hook
//!   ([`stats::Stats`]) feed the AutoPN monitor.
//!
//! Differences from JVSTM (documented, behaviour-preserving for the tuning
//! problem): commits use striped ownership locks instead of JVSTM's
//! lock-free helping scheme, and parent transactions are suspended while
//! their children run (fork/join style, which is how the paper's benchmarks
//! use parallel nesting).
//!
//! Each concern has one implementation on this path. The rungs it replaced
//! (a global commit lock, locked reads, a mutex scheduler and semaphore,
//! inline GC, immediate retry) are kept as differential oracles and bench
//! baselines behind the `oracle` cargo feature, which only
//! dev-dependencies turn on.
//!
//! ## Quick example
//!
//! ```
//! use pnstm::{Stm, StmConfig, child};
//!
//! let stm = Stm::new(StmConfig::default());
//! let counter = stm.new_vbox(0i64);
//!
//! // A top-level transaction that increments the counter in two parallel
//! // child transactions.
//! let c2 = counter.clone();
//! let total = stm
//!     .atomic(move |tx| {
//!         let tasks = (0..2)
//!             .map(|_| {
//!                 let b = c2.clone();
//!                 child(move |child_tx| {
//!                     let v = child_tx.read(&b);
//!                     child_tx.write(&b, v + 1);
//!                     Ok(())
//!                 })
//!             })
//!             .collect();
//!         tx.parallel::<()>(tasks)?;
//!         Ok(tx.read(&c2))
//!     })
//!     .unwrap();
//! assert_eq!(total, 2);
//! assert_eq!(stm.read_atomic(&counter), 2);
//! ```

pub mod clock;
pub mod cm;
pub mod collections;
pub mod error;
pub mod fault;
pub mod mem;
#[cfg(any(test, feature = "oracle"))]
pub mod oracle;
pub mod park;
#[cfg(any(test, feature = "oracle"))]
pub mod pool;
pub mod sched;
pub mod stats;
pub mod stripes;
pub mod throttle;
pub mod trace;
pub mod txn;
pub mod vbox;

mod batch;
mod runtime;

pub use cm::{AbortSite, CmMode, CmTx, ContentionManager, CM_POLICIES};
pub use collections::{TArray, TCounter, TMap};
pub use error::{StmError, TxError, TxResult};
pub use fault::{FaultAction, FaultCtx, FaultKind, FaultPlan, FaultRule};
pub use mem::{MemConfig, MemLevel, VersionHeapGauge};
pub use runtime::{ReadTxn, Stm, StmConfig};
pub use sched::{Task, WorkStealingPool};
pub use stats::{
    CommitEvent, LatencyHistogram, LatencySnapshot, Stats, StatsSnapshot, TxKind, LATENCY_BUCKETS,
    SEM_WAIT_BUCKETS,
};
pub use stripes::{stripe_of, STRIPE_COUNT};
pub use throttle::{PackedGate, ParallelismDegree, Permit, ReconfigError, Throttle};
pub use trace::{
    AxesTrace, AxisValue, JsonlSink, RingSink, TestSink, TraceBus, TraceEvent, TraceSink,
    MAX_TRACE_AXES,
};
pub use txn::{child, ChildTask, Txn};
pub use vbox::VBox;
#[cfg(any(test, feature = "oracle"))]
pub use {
    batch::ChildScheduler,
    oracle::{Oracle, ResizableSemaphore},
    pool::ChildPool,
};

/// Without the `oracle` feature there is no retired rung to select: the
/// runtime's `Option<Oracle>` selector is then always `None`.
#[cfg(not(any(test, feature = "oracle")))]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Oracle {}

/// Marker bound for values storable in a [`VBox`].
///
/// Values are cloned on read (multi-version STMs hand out snapshot copies)
/// and must be shareable across the worker threads that execute nested
/// transactions.
pub trait TxValue: Clone + Send + Sync + 'static {}
impl<T: Clone + Send + Sync + 'static> TxValue for T {}
