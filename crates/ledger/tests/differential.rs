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
//! A second property runs one executor over a stream of blocks, so state
//! that leaks from one block into the next cannot hide behind a fresh
//! executor.
//!
//! Both use the default `ProptestConfig` (no explicit `cases`) so CI can
//! scale the case count through `PROPTEST_CASES`.

use proptest::prelude::*;

use ledger::{BlockExecutor, LedgerConfig, TransferTxn};
use pnstm::{ParallelismDegree, Stm, StmConfig, StmError};

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

/// One step of a block stream. `kind` picks the shape (see
/// `block_stream_replays_sequential`); `txns` is the drawn block, `width` the
/// `set_workers` argument before the step (clamped by the executor), and
/// `seed` seeds the long skewed blocks and the mid-block close delay.
fn step(accounts: usize) -> impl Strategy<Value = (u8, Vec<TransferTxn>, usize, u64)> {
    ((0u8..10, 0usize..6), proptest::collection::vec(txn(accounts), 0..48), 0u64..(1 << 32))
        .prop_map(|((kind, width), txns, seed)| (kind, txns, width, seed))
}

proptest! {
    /// One executor runs a whole stream of blocks: state one block leaves
    /// behind (versions, scheduler slots, read sets, learnt costs) must never
    /// show in the next. Blocks vary in length — empty, longer than
    /// `block_size`, and long skewed ones like `ledger_scaling`'s raw rung —
    /// the live worker width changes between blocks, and some blocks are
    /// abandoned by a `close_admission` that lands mid-block: an abandoned
    /// block installs nothing and the block after it is still exact.
    #[test]
    fn block_stream_replays_sequential(
        steps in proptest::collection::vec(step(6), 1..8),
        initial in proptest::collection::vec(0u64..200, 6..7),
        workers in 1usize..=4,
    ) {
        let (par_stm, seq_stm) = (stm(), stm());
        let seq = BlockExecutor::sequential(
            &seq_stm,
            &initial,
            LedgerConfig { workers: 1, block_size: 16, ..LedgerConfig::default() },
        );
        let par = BlockExecutor::new(
            &par_stm,
            &initial,
            LedgerConfig { workers, block_size: 16, ..LedgerConfig::default() },
        );
        for (kind, txns, width, seed) in steps {
            par.set_workers(width);
            match kind {
                // A long skewed block, as `ledger_scaling`'s raw rung runs.
                0 | 1 => {
                    let block = ledger::skewed_block(seed, 200 + (seed % 100) as usize, 6, 300);
                    let par_out = par.execute_block(&block).unwrap();
                    let seq_out = seq.execute_block(&block).unwrap();
                    prop_assert_eq!(&par_out.outputs, &seq_out.outputs, "long block outputs");
                }
                // A stream split into `block_size` blocks.
                2 => {
                    let par_out = par.execute_all(&txns).unwrap();
                    let seq_out = seq.execute_all(&txns).unwrap();
                    prop_assert_eq!(par_out.len(), seq_out.len());
                    for (p, s) in par_out.iter().zip(&seq_out) {
                        prop_assert_eq!(&p.outputs, &s.outputs, "execute_all outputs");
                    }
                }
                // A long block that a concurrent close may abandon midway.
                3 => {
                    let block = ledger::skewed_block(seed, 300, 6, 300);
                    let before = par.balances();
                    let closer = {
                        let stm = par_stm.clone();
                        let delay = std::time::Duration::from_micros(seed % 300);
                        std::thread::spawn(move || {
                            std::thread::sleep(delay);
                            stm.close_admission();
                        })
                    };
                    let result = par.execute_block(&block);
                    closer.join().unwrap();
                    par_stm.reopen_admission();
                    match result {
                        Ok(par_out) => {
                            let seq_out = seq.execute_block(&block).unwrap();
                            prop_assert_eq!(&par_out.outputs, &seq_out.outputs);
                        }
                        Err(err) => {
                            prop_assert!(matches!(err, StmError::Shutdown), "{:?}", err);
                            prop_assert_eq!(
                                par.balances(),
                                before,
                                "an abandoned block installed writes"
                            );
                        }
                    }
                }
                // An empty block.
                4 => {
                    let out = par.execute_block(&[]).unwrap();
                    prop_assert!(out.outputs.is_empty());
                }
                _ => {
                    let par_out = par.execute_block(&txns).unwrap();
                    let seq_out = seq.execute_block(&txns).unwrap();
                    prop_assert_eq!(&par_out.outputs, &seq_out.outputs, "block outputs");
                }
            }
            prop_assert_eq!(par.balances(), seq.balances(), "state diverged after a step");
        }
        prop_assert_eq!(
            par.balances().iter().sum::<u64>(),
            initial.iter().sum::<u64>(),
            "the stream minted or destroyed funds"
        );
    }
}
