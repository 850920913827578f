//! The multi-version scratch (Block-STM's "MVMemory"): per-account version
//! chains indexed by `(txn_idx, incarnation)`, written during optimistic
//! execution and read with *estimate* semantics.
//!
//! A transaction reads the highest-indexed write **below** its own position
//! in the block, falling back to the committed base state when no such write
//! exists. When a transaction aborts, its writes are not removed but
//! re-marked as ESTIMATEs: a higher transaction that reads an estimate knows
//! it would observe a value about to be overwritten, so it blocks (reports a
//! dependency) instead of speculating through it. The read set records the
//! exact version observed at each account; validation re-resolves the reads
//! and fails on any mismatch — this is how a lower-indexed write invalidates
//! higher-indexed reads.
//!
//! One `MvMemory` serves a whole stream of blocks. Between blocks,
//! [`MvMemory::clear`] empties exactly the chains the finished block could
//! have written (the accounts its transactions name), keeping each chain's
//! capacity, so a steady stream reuses its chains without allocating.

use parking_lot::Mutex;

use crate::txn::{AccountId, Amount};

/// A write recorded in a version chain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Entry {
    /// A speculative value produced by `(txn_idx, incarnation)`.
    Value(u32, Amount),
    /// The transaction aborted; its next incarnation will likely rewrite
    /// this account. Readers must wait rather than speculate through it.
    Estimate(u32),
}

/// One chain element: the latest incarnation's write of `txn_idx`.
#[derive(Debug, Clone, Copy)]
struct Version {
    txn_idx: usize,
    entry: Entry,
}

/// An account's versions, sorted by transaction index, at most one per
/// transaction.
type Chain = Vec<Version>;

/// Where `txn_idx`'s own entry is, or would be inserted, in `chain`.
fn position(chain: &Chain, txn_idx: usize) -> Result<usize, usize> {
    // Transactions mostly finish in index order, so the common insert is a
    // push and the common lookup sits near the end: check there first.
    match chain.last() {
        None => Err(0),
        Some(last) if last.txn_idx < txn_idx => Err(chain.len()),
        Some(_) => chain.binary_search_by_key(&txn_idx, |v| v.txn_idx),
    }
}

/// Where a read resolved, as recorded in the read set and re-checked by
/// validation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadOrigin {
    /// Resolved to the write of `(txn_idx, incarnation)`.
    Version { txn_idx: usize, incarnation: u32 },
    /// No lower-indexed write existed; resolved to the committed base state.
    Base,
}

/// Outcome of a speculative read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadResult {
    /// A concrete value plus the version it came from.
    Ok(Amount, ReadOrigin),
    /// Hit an ESTIMATE left by an aborted lower transaction: the reader
    /// should suspend until `blocking_txn` re-executes.
    Blocked { blocking_txn: usize },
}

/// The multi-version scratch over a fixed account set. Each account's chain
/// is a small vector sorted by transaction index under its own mutex; an
/// account is only ever contended by transactions that actually touch it.
pub struct MvMemory {
    chains: Vec<Mutex<Chain>>,
}

impl MvMemory {
    pub fn new(accounts: usize) -> Self {
        Self { chains: (0..accounts).map(|_| Mutex::new(Vec::new())).collect() }
    }

    /// Read `account` on behalf of transaction `txn_idx`: the write of the
    /// highest lower-indexed transaction, or the base fallback.
    pub fn read(&self, account: AccountId, txn_idx: usize) -> ReadResult {
        let chain = self.chains[account].lock();
        let below = position(&chain, txn_idx).unwrap_or_else(|at| at);
        match below.checked_sub(1).map(|i| chain[i]) {
            Some(Version { txn_idx: idx, entry: Entry::Value(inc, v) }) => {
                ReadResult::Ok(v, ReadOrigin::Version { txn_idx: idx, incarnation: inc })
            }
            Some(Version { txn_idx: idx, entry: Entry::Estimate(_) }) => {
                ReadResult::Blocked { blocking_txn: idx }
            }
            None => ReadResult::Ok(0, ReadOrigin::Base), // caller substitutes base state
        }
    }

    /// Record the write set of `(txn_idx, incarnation)`, replacing any entry
    /// from a previous incarnation. Returns true if this incarnation wrote an
    /// account its predecessor did not — the scheduler then has to
    /// re-validate every higher transaction, not just the ones that read the
    /// previous footprint.
    pub fn apply_writes(
        &self,
        txn_idx: usize,
        incarnation: u32,
        writes: &[(AccountId, Amount)],
        previous_footprint: &[AccountId],
    ) -> bool {
        let mut wrote_new = false;
        for &(account, value) in writes {
            if !previous_footprint.contains(&account) {
                wrote_new = true;
            }
            let entry = Entry::Value(incarnation, value);
            let mut chain = self.chains[account].lock();
            match position(&chain, txn_idx) {
                Ok(at) => chain[at].entry = entry,
                Err(at) => chain.insert(at, Version { txn_idx, entry }),
            }
        }
        // An account written by the previous incarnation but not this one is
        // removed outright — there is no pending rewrite to wait for.
        for &account in previous_footprint {
            if !writes.iter().any(|&(a, _)| a == account) {
                let mut chain = self.chains[account].lock();
                if let Ok(at) = position(&chain, txn_idx) {
                    chain.remove(at);
                }
            }
        }
        wrote_new
    }

    /// Mark the aborted incarnation's writes as ESTIMATEs so higher readers
    /// wait for the re-execution instead of speculating through stale values.
    pub fn convert_writes_to_estimates(&self, txn_idx: usize, footprint: &[AccountId]) {
        for &account in footprint {
            let mut chain = self.chains[account].lock();
            if let Ok(at) = position(&chain, txn_idx) {
                let entry = &mut chain[at].entry;
                let (Entry::Value(inc, _) | Entry::Estimate(inc)) = *entry;
                *entry = Entry::Estimate(inc);
            }
        }
    }

    /// Re-resolve a read set. True iff every read still observes the same
    /// origin (and no estimate has appeared in its place).
    pub fn validate(&self, txn_idx: usize, reads: &[(AccountId, ReadOrigin)]) -> bool {
        reads.iter().all(|&(account, origin)| match self.read(account, txn_idx) {
            ReadResult::Ok(_, now) => now == origin,
            ReadResult::Blocked { .. } => false,
        })
    }

    /// The final value of `account` after the block has fully executed: the
    /// head of its chain, `None` if nothing wrote it. Panics on a leftover
    /// estimate — the scheduler guarantees none survive to commit.
    pub fn final_write(&self, account: AccountId) -> Option<Amount> {
        let head = self.chains[account].lock().last().copied()?;
        match head.entry {
            Entry::Value(_, v) => Some(v),
            Entry::Estimate(_) => {
                panic!("estimate for txn {} survived to commit (account {account})", head.txn_idx)
            }
        }
    }

    /// Empty the chains of `accounts`, keeping their capacity. After a block
    /// this takes every account its transactions name, so no entry of one
    /// block is visible to the next.
    pub fn clear(&mut self, accounts: &[AccountId]) {
        for &account in accounts {
            self.chains[account].get_mut().clear();
        }
    }

    /// Whether every chain is empty: what [`MvMemory::clear`] leaves.
    pub fn is_clear(&self) -> bool {
        self.chains.iter().all(|chain| chain.lock().is_empty())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_resolves_highest_lower_write() {
        let mv = MvMemory::new(1);
        mv.apply_writes(1, 0, &[(0, 11)], &[]);
        mv.apply_writes(4, 0, &[(0, 44)], &[]);
        // txn 3 sees txn 1's write, not txn 4's (higher) nor base.
        assert_eq!(
            mv.read(0, 3),
            ReadResult::Ok(11, ReadOrigin::Version { txn_idx: 1, incarnation: 0 })
        );
        // txn 6 sees txn 4's.
        assert_eq!(
            mv.read(0, 6),
            ReadResult::Ok(44, ReadOrigin::Version { txn_idx: 4, incarnation: 0 })
        );
        // txn 0 has nothing below it.
        assert_eq!(mv.read(0, 0), ReadResult::Ok(0, ReadOrigin::Base));
        // A transaction never reads its own write slot.
        assert_eq!(mv.read(0, 1), ReadResult::Ok(0, ReadOrigin::Base));
    }

    #[test]
    fn estimates_block_higher_readers() {
        let mv = MvMemory::new(1);
        mv.apply_writes(2, 0, &[(0, 22)], &[]);
        mv.convert_writes_to_estimates(2, &[0]);
        assert_eq!(mv.read(0, 5), ReadResult::Blocked { blocking_txn: 2 });
        // Lower readers are unaffected.
        assert_eq!(mv.read(0, 1), ReadResult::Ok(0, ReadOrigin::Base));
        // The re-execution overwrites the estimate and unblocks readers.
        mv.apply_writes(2, 1, &[(0, 23)], &[0]);
        assert_eq!(
            mv.read(0, 5),
            ReadResult::Ok(23, ReadOrigin::Version { txn_idx: 2, incarnation: 1 })
        );
    }

    #[test]
    fn reincarnation_prunes_dropped_footprint_and_flags_new_writes() {
        let mv = MvMemory::new(3);
        let wrote_new = mv.apply_writes(1, 0, &[(0, 1), (1, 1)], &[]);
        assert!(wrote_new);
        // Incarnation 1 drops account 1, adds account 2.
        let wrote_new = mv.apply_writes(1, 1, &[(0, 2), (2, 2)], &[0, 1]);
        assert!(wrote_new, "account 2 is new to this incarnation");
        assert_eq!(mv.read(1, 9), ReadResult::Ok(0, ReadOrigin::Base), "dropped write pruned");
        // Same footprint again: nothing new.
        assert!(!mv.apply_writes(1, 2, &[(0, 3), (2, 3)], &[0, 2]));
    }

    #[test]
    fn validation_detects_new_lower_write() {
        let mv = MvMemory::new(1);
        let ReadResult::Ok(_, origin) = mv.read(0, 5) else { panic!("blocked") };
        let reads = [(0, origin)];
        assert!(mv.validate(5, &reads));
        mv.apply_writes(3, 0, &[(0, 33)], &[]);
        assert!(!mv.validate(5, &reads), "a lower write must invalidate the base read");
        // Re-reading after the invalidation observes the new version.
        let ReadResult::Ok(v, origin) = mv.read(0, 5) else { panic!("blocked") };
        assert_eq!(v, 33);
        assert!(mv.validate(5, &[(0, origin)]));
    }

    #[test]
    fn final_writes_take_chain_heads() {
        let mv = MvMemory::new(3);
        mv.apply_writes(0, 0, &[(0, 5)], &[]);
        mv.apply_writes(2, 1, &[(0, 9), (2, 7)], &[]);
        assert_eq!([0, 1, 2].map(|a| mv.final_write(a)), [Some(9), None, Some(7)]);
    }

    #[test]
    fn out_of_order_writes_keep_the_chain_sorted() {
        let mv = MvMemory::new(1);
        for idx in [5, 1, 3, 7, 0] {
            mv.apply_writes(idx, 0, &[(0, idx as u64 * 10)], &[]);
        }
        for (reader, seen) in [(1, 0), (2, 10), (4, 30), (6, 50), (8, 70)] {
            let ReadResult::Ok(v, ReadOrigin::Version { txn_idx, .. }) = mv.read(0, reader) else {
                panic!("txn {reader} must see a version");
            };
            assert_eq!((v, txn_idx as u64 * 10), (seen, seen));
        }
        assert_eq!(mv.final_write(0), Some(70));
    }

    #[test]
    fn clear_empties_the_named_chains_for_the_next_block() {
        let mut mv = MvMemory::new(3);
        mv.apply_writes(0, 0, &[(0, 5), (2, 6)], &[]);
        mv.convert_writes_to_estimates(0, &[0, 2]);
        mv.clear(&[0, 2]);
        assert!(mv.is_clear());
        assert_eq!(mv.read(0, 9), ReadResult::Ok(0, ReadOrigin::Base));
        assert_eq!(mv.final_write(2), None);
    }
}
