//! # workloads — PN-TM benchmarks, simulator descriptors, and traces
//!
//! The benchmark layer of the AutoPN reproduction (§VII-A of the paper):
//!
//! * **Live PN-STM workloads** over [`pnstm`]: the [`array`](mod@array)
//!   micro-benchmark, a port of STAMP [`vacation`], and a port of
//!   [`tpcc`] — each decomposing its transactions into parallel nested
//!   children exactly like the paper's JVSTM adaptations.
//! * **Simulator descriptors** ([`descriptors`]): the paper's 10 workloads
//!   (Array ×4 write ratios, TPC-C ×3 contention levels, Vacation ×3)
//!   calibrated for the 48-core [`simtm`] machine.
//! * **Trace capture and replay** ([`trace`]): exhaustive `(t,c)` surfaces
//!   with caching, and the trace-driven optimizer-replay methodology used by
//!   Fig. 5/6.
//! * **[`TunableSystem`] adapters** ([`sim_system`], [`live`]): drive the
//!   AutoPN controller against the simulator (virtual time) or a live
//!   [`pnstm`] instance (real threads and wall-clock time).
//!
//! [`TunableSystem`]: autopn::TunableSystem

pub mod array;
pub mod descriptors;
pub mod ledger_live;
pub mod live;
pub mod sim_system;
pub mod tpcc;
pub mod trace;
pub mod transfer;
pub mod vacation;

pub use array::ArrayWorkload;
pub use descriptors::{paper_workloads, workload_by_name};
pub use ledger_live::LedgerLiveSystem;
pub use live::{LiveStmSystem, StmWorkload};
pub use sim_system::SimSystem;
pub use tpcc::TpccWorkload;
pub use trace::{load_or_build_surface, replay, ReplayTrace};
pub use transfer::{TransferRequest, TransferWorkload};
pub use vacation::VacationWorkload;
