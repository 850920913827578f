//! The ledger's transaction type and its (deliberately tiny) virtual machine.
//!
//! A block is a `Vec<TransferTxn>`; each transaction moves `amount` from one
//! account to another iff the source balance covers it, and otherwise commits
//! as a no-op (a *failed* transfer still occupies its slot in the block and
//! still reports an output). The execution logic is shared verbatim between
//! the parallel and sequential executors — the differential oracle tests the
//! concurrency machinery (multi-version scratch, scheduler, commit order),
//! not the transfer arithmetic, so having a single `execute` keeps the two
//! rungs from diverging semantically by construction.

/// Index of an account in the ledger's balance vector.
pub type AccountId = usize;

/// Account balance / transfer amount.
pub type Amount = u64;

/// One transfer in a block. Self-transfers (`from == to`) and zero-amount
/// transfers are legal: both read and write their accounts (and therefore
/// participate in conflict detection) without changing any balance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TransferTxn {
    pub from: AccountId,
    pub to: AccountId,
    pub amount: Amount,
}

/// The committed effect of one transaction, recorded in block order. Outputs
/// are part of the differential contract: the parallel executor must
/// reproduce the oracle's outputs exactly, not just its final state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TxnOutput {
    /// Whether the balance check passed and the transfer took effect.
    pub applied: bool,
    /// Post-transaction balance of `from`.
    pub from_balance: Amount,
    /// Post-transaction balance of `to`.
    pub to_balance: Amount,
}

/// A transfer's write set: one or two `(account, balance)` pairs, held inline
/// so executing a transaction allocates nothing. It derefs to a slice and
/// iterates by value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WriteSet {
    writes: [(AccountId, Amount); 2],
    len: u8,
}

impl WriteSet {
    fn one(write: (AccountId, Amount)) -> Self {
        Self { writes: [write, write], len: 1 }
    }

    fn two(first: (AccountId, Amount), second: (AccountId, Amount)) -> Self {
        Self { writes: [first, second], len: 2 }
    }
}

impl std::ops::Deref for WriteSet {
    type Target = [(AccountId, Amount)];

    fn deref(&self) -> &Self::Target {
        &self.writes[..usize::from(self.len)]
    }
}

impl IntoIterator for WriteSet {
    type Item = (AccountId, Amount);
    type IntoIter = std::iter::Take<std::array::IntoIter<(AccountId, Amount), 2>>;

    fn into_iter(self) -> Self::IntoIter {
        self.writes.into_iter().take(usize::from(self.len))
    }
}

/// Execute one transfer against a read view, producing the write set and the
/// output. `read` resolves an account to its pre-transaction balance as seen
/// by this transaction (multi-version scratch for the parallel executor,
/// committed state for the sequential one); it may fail to signal a blocked
/// read (an ESTIMATE hit), in which case execution is abandoned wholesale.
///
/// The write set always contains the touched accounts — even for failed and
/// zero-amount transfers — so conflict detection is independent of whether
/// the transfer took effect. A self-transfer produces a single write.
pub fn execute<E>(
    txn: &TransferTxn,
    mut read: impl FnMut(AccountId) -> Result<Amount, E>,
) -> Result<(WriteSet, TxnOutput), E> {
    let from_before = read(txn.from)?;
    if txn.from == txn.to {
        // Read and re-write the single account untouched; `applied` still
        // reflects the balance check so outputs distinguish the two cases.
        let applied = from_before >= txn.amount;
        let out = TxnOutput { applied, from_balance: from_before, to_balance: from_before };
        return Ok((WriteSet::one((txn.from, from_before)), out));
    }
    let to_before = read(txn.to)?;
    let applied = txn.amount <= from_before;
    let (from_after, to_after) = if applied {
        (from_before - txn.amount, to_before.saturating_add(txn.amount))
    } else {
        (from_before, to_before)
    };
    let out = TxnOutput { applied, from_balance: from_after, to_balance: to_after };
    Ok((WriteSet::two((txn.from, from_after), (txn.to, to_after)), out))
}

/// Deterministic block generator with a Zipf-like account skew: low-numbered
/// accounts are drawn quadratically more often, so small account sets force
/// heavy write-write conflicts while large ones leave most transactions
/// disjoint (the `conflicting_level` ladder from the Block-STM harness).
pub fn skewed_block(
    seed: u64,
    txns: usize,
    accounts: usize,
    max_amount: Amount,
) -> Vec<TransferTxn> {
    assert!(accounts > 0, "need at least one account");
    let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1);
    let mut next = || {
        // splitmix64 — the same generator the pnstm test harnesses use.
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    let pick_account = |r: u64| -> AccountId {
        // u^2 maps the uniform draw onto a head-heavy distribution: account 0
        // is drawn with ~2/sqrt(accounts) probability, the tail uniformly.
        let u = (r >> 11) as f64 / (1u64 << 53) as f64;
        ((u * u * accounts as f64) as usize).min(accounts - 1)
    };
    (0..txns)
        .map(|_| TransferTxn {
            from: pick_account(next()),
            to: pick_account(next()),
            amount: next() % (max_amount + 1),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn read_from(balances: &[Amount]) -> impl FnMut(AccountId) -> Result<Amount, ()> + '_ {
        move |a| Ok(balances[a])
    }

    #[test]
    fn applied_transfer_moves_funds() {
        let balances = [100, 50];
        let txn = TransferTxn { from: 0, to: 1, amount: 30 };
        let (writes, out) = execute(&txn, read_from(&balances)).unwrap();
        assert!(out.applied);
        assert_eq!(out.from_balance, 70);
        assert_eq!(out.to_balance, 80);
        assert_eq!(*writes, [(0, 70), (1, 80)]);
    }

    #[test]
    fn insufficient_funds_is_a_committed_noop() {
        let balances = [10, 50];
        let txn = TransferTxn { from: 0, to: 1, amount: 30 };
        let (writes, out) = execute(&txn, read_from(&balances)).unwrap();
        assert!(!out.applied);
        assert_eq!((out.from_balance, out.to_balance), (10, 50));
        // Still writes both accounts (unchanged) — the conflict footprint of
        // a transfer does not depend on the balance check.
        assert_eq!(*writes, [(0, 10), (1, 50)]);
    }

    #[test]
    fn self_transfer_writes_once_and_changes_nothing() {
        let balances = [40];
        let txn = TransferTxn { from: 0, to: 0, amount: 5 };
        let (writes, out) = execute(&txn, read_from(&balances)).unwrap();
        assert!(out.applied);
        assert_eq!((out.from_balance, out.to_balance), (40, 40));
        assert_eq!(*writes, [(0, 40)]);
        assert_eq!(writes.into_iter().collect::<Vec<_>>(), vec![(0, 40)], "by value, once");
    }

    #[test]
    fn zero_amount_applies_without_effect() {
        let balances = [0, 7];
        let txn = TransferTxn { from: 0, to: 1, amount: 0 };
        let (writes, out) = execute(&txn, read_from(&balances)).unwrap();
        assert!(out.applied, "a zero transfer always covers its amount");
        assert_eq!(*writes, [(0, 0), (1, 7)]);
    }

    #[test]
    fn blocked_read_aborts_execution() {
        let txn = TransferTxn { from: 0, to: 1, amount: 1 };
        let r: Result<_, u32> = execute(&txn, |_| Err(9));
        assert_eq!(r.unwrap_err(), 9);
    }

    #[test]
    fn skewed_block_is_deterministic_and_in_range() {
        let a = skewed_block(42, 256, 10, 1000);
        let b = skewed_block(42, 256, 10, 1000);
        assert_eq!(a, b, "same seed must reproduce the block");
        assert_ne!(a, skewed_block(43, 256, 10, 1000));
        assert!(a.iter().all(|t| t.from < 10 && t.to < 10 && t.amount <= 1000));
        // The skew must actually skew: account 0 should appear far more often
        // than a uniform draw would produce (25.6 expected uniform).
        let hot = a.iter().filter(|t| t.from == 0).count();
        assert!(hot > 40, "head account drawn {hot} times; skew looks uniform");
    }
}
