//! Hot-key-skewed transfer workload for the open-loop ingress front door.
//!
//! Each *request* is a small batch of account transfers executed as one
//! top-level PN-STM transaction with one parallel nested child per transfer
//! — so both tuning axes matter: `t` gates how many requests are in flight
//! and `c` how many transfers of one request run concurrently. The transfer
//! semantics (balance check, no-op on insufficient funds, conflict footprint
//! independent of outcome) are [`ledger::txn::execute`]'s, applied to
//! [`pnstm::VBox`] accounts instead of the ledger's scratchpad, and the
//! request stream reuses [`ledger::txn::skewed_block`]'s deterministic
//! head-heavy account skew so a handful of hot keys carry most of the
//! contention.

use std::sync::Arc;

use ledger::txn::{execute, skewed_block, Amount, TransferTxn};
use pnstm::throttle::Permit;
use pnstm::{Stm, StmError, TxResult, Txn, VBox};

/// One ingress request: a batch of transfers committed atomically as a
/// single top-level transaction (all-or-nothing under retry, children run
/// in parallel).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TransferRequest {
    pub transfers: Vec<TransferTxn>,
}

/// A table of transactional accounts plus the request executor.
#[derive(Clone)]
pub struct TransferWorkload {
    accounts: Arc<Vec<VBox<Amount>>>,
}

impl TransferWorkload {
    /// Create `accounts` accounts, each holding `initial_balance`.
    pub fn new(stm: &Stm, accounts: usize, initial_balance: Amount) -> Self {
        assert!(accounts > 0, "need at least one account");
        Self { accounts: Arc::new((0..accounts).map(|_| stm.new_vbox(initial_balance)).collect()) }
    }

    pub fn accounts(&self) -> usize {
        self.accounts.len()
    }

    /// Sum of all balances (conservation invariant: transfers never create
    /// or destroy funds, so this is constant over any request history).
    pub fn total_balance(&self, stm: &Stm) -> u128 {
        stm.read_only(|tx| self.accounts.iter().map(|b| tx.read(b) as u128).sum())
    }

    /// Deterministic request stream: `count` requests of
    /// `transfers_per_request` transfers each, drawn from the skewed block
    /// generator (same seed → same stream).
    pub fn requests(
        &self,
        seed: u64,
        count: usize,
        transfers_per_request: usize,
        max_amount: Amount,
    ) -> Vec<TransferRequest> {
        let per = transfers_per_request.max(1);
        let block = skewed_block(seed, count * per, self.accounts.len(), max_amount);
        block.chunks(per).map(|c| TransferRequest { transfers: c.to_vec() }).collect()
    }

    /// Execute one request as a top-level transaction (closed-loop path:
    /// admission happens inside [`Stm::atomic`]). Returns the number of
    /// transfers whose balance check passed.
    pub fn run(&self, stm: &Stm, req: &TransferRequest) -> Result<usize, StmError> {
        stm.atomic(|tx| self.apply(tx, req))
    }

    /// Execute one request under an already-held top-level permit (the
    /// ingress batch-admission path: the front door amortized admission via
    /// [`pnstm::Throttle::admit_batch`], so the transaction must not
    /// re-acquire).
    pub fn run_admitted(
        &self,
        stm: &Stm,
        permit: Permit,
        req: &TransferRequest,
    ) -> Result<usize, StmError> {
        stm.atomic_admitted(permit, |tx| self.apply(tx, req))
    }

    /// One child per transfer, addressed by its index in the request.
    fn apply(&self, tx: &mut Txn<'_>, req: &TransferRequest) -> TxResult<usize> {
        let applied = tx.parallel_for(req.transfers.len(), &|ct, i| {
            // VBox reads never fail; the error type is vestigial here (the
            // ledger executor uses it for ESTIMATE-blocked reads).
            let (writes, out) =
                execute(&req.transfers[i], |a| Ok::<_, ()>(ct.read(&self.accounts[a])))
                    .expect("VBox reads are infallible");
            for (a, v) in writes {
                ct.write(&self.accounts[a], v);
            }
            Ok(out.applied)
        })?;
        Ok(applied.into_iter().filter(|a| *a).count())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pnstm::{ParallelismDegree, StmConfig};

    fn stm() -> Stm {
        Stm::new(StmConfig {
            degree: ParallelismDegree::new(4, 4),
            worker_threads: 2,
            ..StmConfig::default()
        })
    }

    #[test]
    fn requests_are_deterministic_and_sized() {
        let stm = stm();
        let w = TransferWorkload::new(&stm, 32, 1_000);
        let a = w.requests(7, 10, 4, 100);
        let b = w.requests(7, 10, 4, 100);
        assert_eq!(a, b);
        assert_eq!(a.len(), 10);
        assert!(a.iter().all(|r| r.transfers.len() == 4));
        assert_ne!(a, w.requests(8, 10, 4, 100));
    }

    #[test]
    fn transfers_conserve_total_balance() {
        let stm = stm();
        let w = TransferWorkload::new(&stm, 16, 500);
        let before = w.total_balance(&stm);
        for req in w.requests(42, 20, 3, 200) {
            w.run(&stm, &req).unwrap();
        }
        assert_eq!(w.total_balance(&stm), before, "transfers must conserve funds");
    }

    #[test]
    fn applied_transfer_moves_funds_between_vboxes() {
        let stm = stm();
        let w = TransferWorkload::new(&stm, 4, 100);
        let req = TransferRequest {
            transfers: vec![
                TransferTxn { from: 0, to: 1, amount: 30 },
                TransferTxn { from: 2, to: 3, amount: 1_000 }, // insufficient: no-op
            ],
        };
        let applied = w.run(&stm, &req).unwrap();
        assert_eq!(applied, 1);
        assert_eq!(stm.read_atomic(&w.accounts[0]), 70);
        assert_eq!(stm.read_atomic(&w.accounts[1]), 130);
        assert_eq!(stm.read_atomic(&w.accounts[2]), 100);
    }

    #[test]
    fn run_admitted_uses_the_caller_permit() {
        let stm = stm();
        let w = TransferWorkload::new(&stm, 8, 100);
        let req = w.requests(1, 1, 2, 50).pop().unwrap();
        let mut permits = stm.throttle().admit_batch(1);
        let permit = permits.pop().expect("open gate admits");
        let before = w.total_balance(&stm);
        w.run_admitted(&stm, permit, &req).unwrap();
        assert_eq!(w.total_balance(&stm), before);
        assert_eq!(stm.throttle().top_level_in_use(), 0, "permit released on commit");
    }
}
