//! # ledger — Block-STM-style batch execution over `pnstm`
//!
//! A production-shaped front-end for the PN-STM substrate: take a *block* of
//! transfer transactions, execute it optimistically in parallel, and commit
//! with the semantics of executing the block **sequentially in index
//! order**. The executor is adversarially checked against a sequential
//! replay (the `oracle` feature's `BlockExecutor::sequential`) — same
//! transaction logic, same outputs, byte-identical final state.
//!
//! The moving parts, Block-STM shaped:
//!
//! * [`mv::MvMemory`] — per-account version chains indexed by
//!   `(txn_idx, incarnation)` with ESTIMATE markers on aborted writes, so a
//!   lower-indexed write invalidates (or suspends) higher-indexed readers.
//! * [`sched::BlockScheduler`] — the collaborative execution/validation
//!   wave machine; invalidated transactions re-run as new incarnations.
//! * [`BlockExecutor`] — runs the waves on a `pnstm` work-stealing pool
//!   wired to the host STM's fault/stats/trace plumbing, then installs the
//!   chain heads as one `Stm::atomic` commit (emitting `block_committed`
//!   and bumping the `block_commits` counter).
//!
//! ```
//! use ledger::{BlockExecutor, LedgerConfig, TransferTxn};
//! use pnstm::{Stm, StmConfig};
//!
//! let stm = Stm::new(StmConfig::default());
//! let ex = BlockExecutor::new(&stm, &[100, 0], LedgerConfig::default());
//! let out = ex
//!     .execute_block(&[TransferTxn { from: 0, to: 1, amount: 30 }])
//!     .unwrap();
//! assert!(out.outputs[0].applied);
//! assert_eq!(ex.balances(), vec![70, 30]);
//! ```

pub mod exec;
pub mod mv;
pub mod sched;
pub mod txn;

pub use exec::{BlockExecutor, BlockOutcome, LedgerConfig};
pub use mv::{MvMemory, ReadOrigin, ReadResult};
pub use sched::BlockScheduler;
pub use txn::{execute, skewed_block, AccountId, Amount, TransferTxn, TxnOutput};
