//! Contention-manager integration: the backoff observed through the public
//! API, at every abort site. The unit tests in `src/cm.rs` pin the pure
//! decision math; these tests pin the *wiring* — waits actually happen (and
//! show up in stats), and only from a chain's second abort on. The waits
//! long enough to observe from outside (admission tokens surrendered across
//! a long wait, shutdown cutting a parked backoff short) need a non-default
//! backoff base and live in `src/runtime.rs`.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use pnstm::{child, ParallelismDegree, Stm, StmConfig, TxError};

#[test]
fn nested_sibling_conflicts_back_off_instead_of_hot_spinning() {
    // 48 children read-modify-write one hot box under c = 8: every batch is
    // a sibling-conflict storm. Under the backoff the losers must *wait*
    // between attempts (visible in the CM stats) instead of burning their
    // whole 10k-attempt nested-retry budget hot-spinning against the winner.
    let stm = Stm::new(StmConfig {
        degree: ParallelismDegree::new(1, 8),
        worker_threads: 8,
        ..StmConfig::default()
    });
    let hot = stm.new_vbox(0i64);
    let total = stm
        .atomic({
            let hot = hot.clone();
            move |tx| {
                let tasks = (0..48)
                    .map(|_| {
                        let b = hot.clone();
                        child(move |ct| {
                            let v = ct.read(&b);
                            // Hold the read open long enough for siblings to
                            // overlap: tiny bodies can serialize by accident
                            // and dodge the conflict this test is about.
                            std::thread::sleep(Duration::from_micros(200));
                            ct.write(&b, v + 1);
                            Ok(())
                        })
                    })
                    .collect();
                tx.parallel::<()>(tasks)?;
                Ok(tx.read(&hot))
            }
        })
        .expect("hot-box batch commits");
    assert_eq!(total, 48);
    assert_eq!(stm.read_atomic(&hot), 48);

    let snap = stm.stats().snapshot();
    assert!(snap.nested_aborts > 0, "a 48-way hot-box batch must see sibling conflicts");
    assert!(snap.cm_waits > 0, "nested losers must consult the CM and wait");
    assert!(snap.cm_wait_total_ns > 0);
    // The regression bound: nowhere near the per-child retry budget. Before
    // the CM landed, storms like this burned thousands of immediate retries.
    assert!(
        snap.nested_aborts < 2_000,
        "sibling conflicts hot-spun {} times despite backoff",
        snap.nested_aborts
    );
}

#[test]
fn lone_abort_does_not_sleep() {
    // The backoff retries a chain's first abort at once: one lone
    // conflict costs no wait. A second consecutive abort in the same chain
    // does wait.
    let stm = Stm::new(StmConfig {
        degree: ParallelismDegree::new(1, 1),
        worker_threads: 1,
        ..StmConfig::default()
    });
    let cell = stm.new_vbox(0i64);
    let waits = || stm.stats().snapshot().cm_waits;
    let run_with_forced_aborts = |forced: u64| {
        let attempts = AtomicU64::new(0);
        stm.atomic(|tx| {
            if attempts.fetch_add(1, Ordering::Relaxed) < forced {
                return Err(TxError::Conflict);
            }
            let v = tx.read(&cell);
            tx.write(&cell, v + 1);
            Ok(())
        })
        .expect("commits after its forced aborts");
    };

    run_with_forced_aborts(1);
    assert_eq!(waits(), 0, "a lone abort must retry at once");
    run_with_forced_aborts(2);
    assert_eq!(waits(), 1, "the second consecutive abort waits");
    assert_eq!(stm.read_atomic(&cell), 2);
}
