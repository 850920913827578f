//! # ingress — an open-loop request front door for pnstm
//!
//! The paper (and this suite's benchmark layer up to now) evaluates AutoPN
//! with *closed-loop* workloads: N application threads issue a transaction,
//! wait for it, issue the next. Closed loops have a latency blind spot —
//! **coordinated omission**: when the system stalls, the generator stalls
//! with it, so the stall is charged to one in-flight request instead of to
//! every request that *would have arrived* during it. Throughput numbers
//! survive this; tail-latency numbers do not.
//!
//! This crate adds the missing serving story:
//!
//! * [`ArrivalProcess`] — deterministic open-loop arrival schedules
//!   (uniform, Poisson, bursty square-wave), each request carrying an
//!   **intended arrival** timestamp fixed by the schedule, not by the
//!   system's readiness.
//! * [`BoundedQueue`] — the bounded MPMC submission queue between the
//!   generator and the execution workers. The producer never blocks: a full
//!   queue is a typed [`PushError::Full`] rejection (backpressure), counted
//!   as an SLO miss. The consumer side wakes on demand: one idle worker
//!   polls before it parks, for as long as polling has been paying off, and
//!   a push notifies only a worker that is actually parked (see [`queue`]).
//! * [`Ingress`] — the front door itself: workers drain the queue in
//!   batches, amortize top-level admission via
//!   [`pnstm::Throttle::admit_batch`] (one blocking acquire plus one CAS
//!   per batch instead of one gate round-trip per request), execute through
//!   [`pnstm::Stm::atomic_admitted`], and record per-request latency from
//!   intended arrival into lock-free log2 histograms
//!   ([`pnstm::LatencyHistogram`]) — the whole, and its division into
//!   generator lag, queue wait and service. The generator sleeps only the
//!   part of an arrival gap its measured sleep overshoot lets it keep. It
//!   runs on the [`workloads::live::LiveRuntime`] every live system shares.
//! * SLO windows — per monitoring window the ingress publishes
//!   p50/p99/p999 + goodput as a [`TraceEvent::IngressWindow`] and an
//!   [`autopn::SloKpi`], and implements [`autopn::SloTunableSystem`] so the
//!   controller can tune `(t, c)` against *"maximize goodput subject to
//!   p99 ≤ target"* instead of raw throughput.
//!
//! [`TraceEvent::IngressWindow`]: pnstm::TraceEvent::IngressWindow

pub mod arrival;
pub mod queue;
pub mod server;

pub use arrival::{ArrivalProcess, Schedule};
pub use queue::{BoundedQueue, PushError};
pub use server::{
    Ingress, IngressConfig, IngressService, IngressSnapshot, IngressStats, TransferService,
};
