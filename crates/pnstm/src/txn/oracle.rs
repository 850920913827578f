//! The two retired transaction-layer rungs: the locked read path
//! ([`crate::Oracle::LockedReads`]) and the global-lock commit
//! ([`crate::Oracle::GlobalLock`]), kept as differential baselines for the shipped
//! lock-free read and striped commit.

use super::{downcast_clone, Txn};
use crate::error::{TxError, TxResult};
use crate::fault::FaultKind;
use crate::vbox::VBox;
use crate::TxValue;

impl Txn<'_> {
    /// [`Txn::read`] under [`crate::Oracle::LockedReads`]: the same lookups, routed
    /// through the own-write-set stand-in mutex and, per ancestor level, the
    /// nest commit lock plus a write-set lock, with no filters — the locking
    /// discipline the lock-free path removed. The `ReadHold` stall is taken
    /// while holding the level's commit lock, so sibling reads through that
    /// level queue behind it.
    pub(super) fn read_locked<T: TxValue>(&mut self, vbox: &VBox<T>) -> T {
        let id = vbox.id();
        {
            let _g = self.locked_reads.as_ref().expect("a locked-read instance").lock();
            if let Some(v) = self.sets.ws.get::<T>(id) {
                return v;
            }
        }
        if !self.scope.is_empty() {
            self.counts.slow_path += 1;
        }
        for entry in &self.scope {
            let store_hit = {
                let _g = entry.nest.commit_mx.lock();
                if let Some(action) = self.shared.fault().inject(FaultKind::ReadHold) {
                    action.stall();
                }
                entry.nest.index.lookup(id, entry.cap)
            };
            let hit = store_hit.map(|v| downcast_clone::<T>(&v)).or_else(|| {
                let _g = entry.nest.ws_mx.lock();
                entry.ws.get::<T>(id)
            });
            if let Some(v) = hit {
                self.sets.rs.record(vbox);
                return v;
            }
        }
        self.read_snapshot(vbox)
    }

    /// [`crate::Oracle::GlobalLock`] commit: the original protocol, one commit at a
    /// time under the instance's global commit lock.
    pub(super) fn commit_top_global(&mut self) -> TxResult<u64> {
        if self.sets.ws.is_empty() {
            return Ok(0); // Read-only: serializable at its snapshot.
        }

        let _commit_guard = self.shared.commit_lock().lock();
        // Fault site: stall while *holding* the commit lock (serializes every
        // other committer behind the injected delay).
        if let Some(action) = self.shared.fault().inject(FaultKind::CommitHold) {
            action.stall();
        }
        // Fault site: force a validation failure (synthetic abort storm).
        if self.shared.fault().inject(FaultKind::ValidationAbort).is_some() {
            return Err(TxError::Conflict);
        }
        // Validate the whole tree's reads (children's reads were folded into
        // ours at each join).
        for (_, vbox) in self.sets.rs.iter() {
            if vbox.latest_version() > self.root_read_version {
                return Err(TxError::Conflict);
            }
        }
        // Install at the *next* version first and publish the clock only
        // afterwards: a transaction beginning mid-commit must keep reading
        // the old snapshot. Ticking before installing would let it adopt the
        // new version number while some boxes still serve old values — and
        // then pass validation against data it never actually read.
        let version = self.shared.clock().now() + 1;
        let (versions, bytes) = self.sets.ws.install(version);
        self.shared.stats().gauge().add(versions, bytes);
        let published = self.shared.clock().tick();
        debug_assert_eq!(published, version, "commit lock serializes clock ticks");
        Ok(versions)
    }
}
