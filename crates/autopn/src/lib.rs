//! # autopn — online self-tuning of parallelism degree for PN-TM
//!
//! From-scratch Rust implementation of **AutoPN** (Zeng et al., *Online
//! Tuning of Parallelism Degree in Parallel Nesting Transactional Memory*,
//! IPDPS 2018): an online self-tuner for the two-dimensional configuration
//! `(t, c)` of a parallel-nesting transactional memory — `t` concurrent
//! top-level transactions and `c` concurrent nested transactions per
//! transaction tree, over the admissible space `S = {(t,c) : t·c ≤ n}`.
//!
//! The tuner combines (§V of the paper):
//!
//! 1. **Biased initial sampling** ([`sampling`]) — nine deterministic
//!    configurations on the three boundary regions of `S`.
//! 2. **SMBO with Expected Improvement** ([`smbo`], [`model`]) — a bagging
//!    ensemble of M5 model trees supplies the predictive mean and variance
//!    for the closed-form EI acquisition function; exploration stops when the
//!    best EI drops below a threshold ([`stopping`]).
//! 3. **Hill-climbing refinement** ([`hillclimb`]) — a final local search
//!    around the SMBO winner, compensating the model's long-sightedness.
//! 4. **Adaptive KPI monitoring** ([`monitor`]) — measurement windows closed
//!    by a coefficient-of-variation stability test with an adaptive
//!    `1/T(1,1)` timeout (§VI).
//! 5. **Actuation** ([`actuator`]) — applying configurations to a live
//!    [`pnstm`] instance (semaphore throttling) or to any other
//!    [`controller::TunableSystem`].
//!
//! The optimizer is exposed in *ask–tell* form ([`Tuner`]): `propose()` a
//! configuration, measure it however you like, `observe()` the result. This
//! supports live tuning, simulator-driven tuning and the paper's
//! trace-driven-replay evaluation methodology with the same code.
//!
//! ```
//! use autopn::{AutoPn, AutoPnConfig, SearchSpace, Tuner};
//!
//! // Tune a synthetic quadratic bowl with the optimum at (12, 4).
//! let space = SearchSpace::new(48);
//! let f = |t: f64, c: f64| 1000.0 - (t - 12.0).powi(2) - 30.0 * (c - 4.0).powi(2);
//! let mut tuner = AutoPn::new(space, AutoPnConfig::default());
//! while let Some(cfg) = tuner.propose() {
//!     tuner.observe(cfg, f(cfg.t as f64, cfg.c as f64));
//! }
//! let best = tuner.best().unwrap().0;
//! assert!((best.t as i64 - 12).abs() <= 2 && (best.c as i64 - 4).abs() <= 2);
//! ```

pub mod actuator;
pub mod change;
pub mod chaos;
pub mod controller;
pub mod hillclimb;
pub mod kpi;
pub mod model;
pub mod monitor;
pub mod multi;
pub mod optimizer;
pub mod policy;
pub mod sampling;
pub mod smbo;
pub mod space;
pub mod stopping;

pub use actuator::{stm_axis_registry, AxisRegistry, PnstmActuator};
pub use change::CusumDetector;
pub use chaos::FaultyTunable;
pub use controller::{
    ApplyError, Controller, SloTunableSystem, SloTuningOutcome, TunableSystem, TuneOptions,
    TuningOutcome, Watchdog,
};
// Re-exported so controller callers can build a trace pipeline without
// depending on pnstm directly.
pub use kpi::{Measurement, SloKpi, SLO_REJECT_TOLERANCE};
pub use multi::{MultiAutoPn, MultiAutoPnConfig, MultiConfig};
pub use optimizer::{AutoPn, AutoPnConfig, Tuner};
pub use pnstm::{
    AxesTrace, AxisValue, JsonlSink, RingSink, TestSink, TraceBus, TraceEvent, TraceSink,
};
pub use pnstm::{FaultAction, FaultCtx, FaultKind, FaultPlan, FaultRule};
pub use policy::{sweep_axis, AxisSweepOutcome};
pub use sampling::InitialSampling;
pub use space::{Axis, AxisKind, AxisLevels, Config, ConfigSpace, SearchSpace, MAX_AXES};
pub use stopping::StopCondition;
