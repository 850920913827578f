//! Differential property test: the parallel Block-STM rung must be
//! indistinguishable from the sequential replay oracle.
//!
//! Blocks are random transfer vectors over a small shared account set,
//! deliberately biased towards the edge cases the VM special-cases —
//! self-transfers (single-write footprint), zero-amount transfers (always
//! applied, never change state) and insufficient-funds transfers (committed
//! no-ops that still write). For every generated block the parallel
//! executor's final balances AND per-transaction outputs must be identical
//! to the oracle's, and the incarnation re-execution count must stay under
//! the trivial n^2 bound (every validation abort kills at least one
//! incarnation of a distinct (txn, lower-conflict) pair).
//!
//! The block deliberately uses the default `ProptestConfig` (no explicit
//! `cases`) so CI can scale the case count through `PROPTEST_CASES`.

use proptest::prelude::*;

use ledger::{BlockExecutor, LedgerConfig, TransferTxn};
use pnstm::{ParallelismDegree, Stm, StmConfig};

fn stm() -> Stm {
    Stm::new(StmConfig {
        degree: ParallelismDegree::new(4, 4),
        worker_threads: 2,
        ..StmConfig::default()
    })
}

/// One transfer over `accounts` accounts. The raw draw's low bits steer the
/// edge-case mix: ~1-in-8 transfers become self-transfers, ~1-in-4 amounts
/// are tiny (zero included), and the rest range past the initial balances so
/// a healthy fraction fail the balance check.
fn txn(accounts: usize) -> impl Strategy<Value = TransferTxn> {
    (0..accounts, 0..accounts, 0u64..(1 << 20)).prop_map(|(from, to, raw)| TransferTxn {
        from,
        to: if raw % 8 == 0 { from } else { to },
        amount: if (raw >> 3) % 4 == 0 { (raw >> 5) % 4 } else { (raw >> 5) % 300 },
    })
}

proptest! {
    /// The differential contract: byte-identical final state and outputs,
    /// bounded re-execution.
    #[test]
    fn parallel_block_replays_sequential(
        block in proptest::collection::vec(txn(6), 0..64),
        initial in proptest::collection::vec(0u64..200, 6..7),
        workers in 1usize..=4,
    ) {
        let stm = stm();
        let seq = BlockExecutor::sequential(
            &stm,
            &initial,
            LedgerConfig { workers: 1, ..LedgerConfig::default() },
        );
        let par =
            BlockExecutor::new(&stm, &initial, LedgerConfig { workers, ..LedgerConfig::default() });
        let seq_out = seq.execute_block(&block).unwrap();
        let par_out = par.execute_block(&block).unwrap();

        prop_assert_eq!(par.balances(), seq.balances(), "final state diverged");
        prop_assert_eq!(&par_out.outputs, &seq_out.outputs, "per-txn outputs diverged");
        prop_assert_eq!(seq_out.reexecutions, 0, "the oracle never re-executes");
        let n = block.len() as u64;
        prop_assert!(
            par_out.reexecutions <= n * n,
            "{} re-executions for an n={} block exceeds the n^2 bound",
            par_out.reexecutions,
            n
        );
        // Transfers conserve value: a cheap independent invariant that
        // catches a broken oracle (both rungs wrong identically would
        // otherwise slip through the differential net).
        prop_assert_eq!(
            par.balances().iter().sum::<u64>(),
            initial.iter().sum::<u64>(),
            "block execution minted or destroyed funds"
        );
    }
}
