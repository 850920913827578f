//! # simtm — discrete-event performance simulator of a parallel-nesting TM machine
//!
//! The AutoPN paper evaluates on a 48-core AMD machine that this reproduction
//! does not have; `simtm` is the documented substitution (see `DESIGN.md`).
//! It simulates, in virtual time, a closed system of `t` top-level
//! transaction threads running a parallel-nesting TM workload on `n` cores,
//! with `c`-bounded intra-tree child concurrency — exactly the `(t, c)`
//! configuration space of §III-B of the paper.
//!
//! The same engine, [`Simulation`], also runs several transaction classes at
//! once ([`Simulation::with_classes`]), each with its own degree `(t_k, c_k)`,
//! sharing the cores, the commit section and the data set — the substrate
//! for the paper's §VIII per-type extension.
//!
//! The simulation is a hybrid:
//!
//! * **Timing and resources** are simulated exactly (discrete events): cores,
//!   per-tree child slots, the serialized global commit section, spawn and
//!   commit overheads.
//! * **Conflicts** are sampled probabilistically from the workload's
//!   read/write footprints over an abstract data set (with an optional hot
//!   set), using the standard birthday-style approximation
//!   `P(conflict per concurrent commit) = 1 - (1 - W/L)^R`, with `W` taken
//!   from the committing class and `R` from the validating one. Sibling
//!   conflicts inside a transaction tree are modelled the same way over the
//!   tree-shared footprint.
//!
//! The black-box tuner only ever sees `(t, c) → KPI` samples and commit-event
//! streams, so this level of fidelity preserves what matters: the *shape* of
//! the throughput surface (interior optima, contention cliffs,
//! nesting-overhead valleys) and realistic measurement noise.
//!
//! Everything is deterministic given a seed; no wall-clock time is used.
//! [`SurfaceBuilder::build`] runs its simulations on every available core and
//! still returns the same bits on any core count: each simulation has a fixed
//! seed and a fixed result slot, and none shares an RNG with another.
//!
//! ```
//! use simtm::{MachineParams, SimWorkload, Simulation};
//!
//! let wl = SimWorkload::builder("demo")
//!     .top_work_us(50.0)
//!     .child_count(8)
//!     .child_work_us(100.0)
//!     .build();
//! let mut sim = Simulation::new(&wl, &MachineParams::new(48), (4, 8), 42);
//! let stats = sim.run_for_virtual(std::time::Duration::from_millis(200));
//! assert!(stats.commits > 0);
//! ```

pub mod event;
pub mod rng;
pub mod sim;
pub mod stats;
pub mod surface;
pub mod workload;

pub use sim::{ClassSpec, Simulation};
pub use stats::RunStats;
pub use surface::{Surface, SurfaceBuilder};
pub use workload::{MachineParams, SimWorkload, SimWorkloadBuilder};
