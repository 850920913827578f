//! Behavioural tests of the PN-STM: atomicity, isolation, nesting semantics,
//! retry behaviour, throttling, and garbage collection.

use pnstm::{
    child, ChildTask, CmMode, MemConfig, ParallelismDegree, Stm, StmConfig, StmError, TxError,
    TxResult, VBox,
};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

fn small_stm() -> Stm {
    Stm::new(StmConfig {
        degree: ParallelismDegree::new(8, 4),
        worker_threads: 3,
        ..StmConfig::default()
    })
}

/// `c = 1`: every `parallel()` batch runs inline on its parent's sets.
fn sequential_stm() -> Stm {
    Stm::new(StmConfig {
        degree: ParallelismDegree::new(1, 1),
        worker_threads: 0,
        ..StmConfig::default()
    })
}

#[test]
fn single_txn_read_write() {
    let stm = small_stm();
    let b = stm.new_vbox(5i64);
    let out = stm
        .atomic(|tx| {
            let v = tx.read(&b);
            tx.write(&b, v * 2);
            Ok(tx.read(&b))
        })
        .unwrap();
    assert_eq!(out, 10);
    assert_eq!(stm.read_atomic(&b), 10);
    assert_eq!(stm.clock_now(), 1);
}

#[test]
fn read_only_txn_does_not_advance_clock() {
    let stm = small_stm();
    let b = stm.new_vbox(1i32);
    stm.atomic(|tx| {
        let _ = tx.read(&b);
        Ok(())
    })
    .unwrap();
    assert_eq!(stm.clock_now(), 0, "read-only commit installs nothing");
}

#[test]
fn user_abort_discards_writes() {
    let stm = small_stm();
    let b = stm.new_vbox(1i32);
    let r: Result<(), StmError> = stm.atomic(|tx| {
        tx.write(&b, 99);
        tx.abort()
    });
    assert_eq!(r, Err(StmError::UserAborted));
    assert_eq!(stm.read_atomic(&b), 1);
    assert_eq!(stm.stats().snapshot().top_aborts, 1);
}

#[test]
fn counter_increments_are_atomic_across_threads() {
    let stm = small_stm();
    let b = stm.new_vbox(0i64);
    let threads = 4;
    let per_thread = 200;
    let mut handles = vec![];
    for _ in 0..threads {
        let stm = stm.clone();
        let b = b.clone();
        handles.push(thread::spawn(move || {
            for _ in 0..per_thread {
                stm.atomic(|tx| {
                    let v = tx.read(&b);
                    tx.write(&b, v + 1);
                    Ok(())
                })
                .unwrap();
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(stm.read_atomic(&b), (threads * per_thread) as i64);
    let snap = stm.stats().snapshot();
    assert_eq!(snap.top_commits, (threads * per_thread) as u64);
}

#[test]
fn snapshot_isolation_for_read_only() {
    let stm = small_stm();
    let a = stm.new_vbox(0i64);
    let b = stm.new_vbox(0i64);
    // Invariant: a == b at every commit point.
    let writer = {
        let (stm, a, b) = (stm.clone(), a.clone(), b.clone());
        thread::spawn(move || {
            for i in 1..=100 {
                stm.atomic(|tx| {
                    tx.write(&a, i);
                    tx.write(&b, i);
                    Ok(())
                })
                .unwrap();
            }
        })
    };
    for _ in 0..200 {
        stm.read_only(|tx| {
            let (va, vb) = (tx.read(&a), tx.read(&b));
            assert_eq!(va, vb, "read-only txn saw a torn snapshot");
        });
    }
    writer.join().unwrap();
}

#[test]
fn write_skew_is_prevented() {
    // T1 reads a, writes b; T2 reads b, writes a. Serializability requires
    // one of them to abort-and-retry; final state must match some serial
    // order: with bodies x = read(other) + 1, a serial execution gives
    // {1, 2} in some assignment.
    let stm = small_stm();
    let a = stm.new_vbox(0i64);
    let b = stm.new_vbox(0i64);
    let t1 = {
        let (stm, a, b) = (stm.clone(), a.clone(), b.clone());
        thread::spawn(move || {
            stm.atomic(|tx| {
                let v = tx.read(&a);
                std::thread::sleep(std::time::Duration::from_millis(5));
                tx.write(&b, v + 1);
                Ok(())
            })
            .unwrap();
        })
    };
    let t2 = {
        let (stm, a, b) = (stm.clone(), a.clone(), b.clone());
        thread::spawn(move || {
            stm.atomic(|tx| {
                let v = tx.read(&b);
                std::thread::sleep(std::time::Duration::from_millis(5));
                tx.write(&a, v + 1);
                Ok(())
            })
            .unwrap();
        })
    };
    t1.join().unwrap();
    t2.join().unwrap();
    let (va, vb) = (stm.read_atomic(&a), stm.read_atomic(&b));
    let mut vals = [va, vb];
    vals.sort();
    assert_eq!(vals, [1, 2], "outcome {va},{vb} matches no serial order");
}

#[test]
fn nested_children_see_parent_writes() {
    let stm = small_stm();
    let b = stm.new_vbox(0i32);
    let b2 = b.clone();
    let observed = stm
        .atomic(move |tx| {
            tx.write(&b2, 7);
            let b3 = b2.clone();
            let mut r = tx.parallel(vec![child(move |ct| Ok(ct.read(&b3)))])?;
            Ok(r.pop().unwrap())
        })
        .unwrap();
    assert_eq!(observed, 7);
}

#[test]
fn parent_sees_child_writes_after_join() {
    let stm = small_stm();
    let b = stm.new_vbox(0i32);
    let b2 = b.clone();
    let seen = stm
        .atomic(move |tx| {
            let b3 = b2.clone();
            tx.parallel::<()>(vec![child(move |ct| {
                ct.write(&b3, 41);
                Ok(())
            })])?;
            Ok(tx.read(&b2) + 1)
        })
        .unwrap();
    assert_eq!(seen, 42);
    assert_eq!(stm.read_atomic(&b), 41, "child write committed with the root");
}

#[test]
fn child_writes_invisible_until_root_commits() {
    let stm = small_stm();
    let b = stm.new_vbox(0i32);
    let b_in = b.clone();
    let stm_probe = stm.clone();
    let b_probe = b.clone();
    stm.atomic(move |tx| {
        let b3 = b_in.clone();
        tx.parallel::<()>(vec![child(move |ct| {
            ct.write(&b3, 9);
            Ok(())
        })])?;
        // Closed nesting: the child committed into this tree, but main
        // memory still holds the old value.
        assert_eq!(stm_probe.read_atomic(&b_probe), 0);
        Ok(())
    })
    .unwrap();
    assert_eq!(stm.read_atomic(&b), 9);
}

#[test]
fn sibling_increments_serialize() {
    // c siblings each increment the same counter; sibling conflict detection
    // plus retry must make the increments additive.
    let stm = small_stm();
    let b = stm.new_vbox(0i64);
    let kids = 8;
    let b_outer = b.clone();
    stm.atomic(move |tx| {
        let tasks = (0..kids)
            .map(|_| {
                let bb = b_outer.clone();
                child(move |ct| {
                    let v = ct.read(&bb);
                    ct.write(&bb, v + 1);
                    Ok(())
                })
            })
            .collect();
        tx.parallel::<()>(tasks)
    })
    .unwrap();
    assert_eq!(stm.read_atomic(&b), kids as i64);
}

#[test]
fn nested_results_preserve_task_order() {
    let stm = small_stm();
    let out = stm
        .atomic(|tx| {
            let tasks = (0..16).map(|i| child(move |_ct| Ok(i * 10))).collect();
            tx.parallel(tasks)
        })
        .unwrap();
    assert_eq!(out, (0..16).map(|i| i * 10).collect::<Vec<_>>());
}

#[test]
fn deep_nesting_three_levels() {
    let stm = small_stm();
    let b = stm.new_vbox(0i64);
    let b0 = b.clone();
    stm.atomic(move |tx| {
        assert_eq!(tx.depth(), 0);
        let b1 = b0.clone();
        tx.parallel::<()>(vec![child(move |c1| {
            assert_eq!(c1.depth(), 1);
            let v = c1.read(&b1);
            c1.write(&b1, v + 100);
            let b2 = b1.clone();
            c1.parallel::<()>(vec![child(move |c2| {
                assert_eq!(c2.depth(), 2);
                // Grandchild must see its parent's uncommitted +100.
                let v = c2.read(&b2);
                assert_eq!(v, 100);
                c2.write(&b2, v + 10);
                Ok(())
            })])?;
            // Parent sees the grandchild's committed write.
            let v = c1.read(&b1);
            assert_eq!(v, 110);
            c1.write(&b1, v + 1);
            Ok(())
        })])
    })
    .unwrap();
    assert_eq!(stm.read_atomic(&b), 111);
}

#[test]
fn nested_user_abort_aborts_whole_txn() {
    let stm = small_stm();
    let b = stm.new_vbox(0i32);
    let b2 = b.clone();
    let r = stm.atomic(move |tx| {
        let b3 = b2.clone();
        tx.parallel::<()>(vec![child(move |ct| {
            ct.write(&b3, 5);
            Err(TxError::UserAbort)
        })])?;
        Ok(())
    });
    assert_eq!(r, Err(StmError::UserAborted));
    assert_eq!(stm.read_atomic(&b), 0);
}

#[test]
#[should_panic(expected = "boom")]
fn child_panic_propagates_to_parent_thread() {
    let stm = small_stm();
    let _ = stm.atomic(|tx| {
        tx.parallel::<()>(vec![child(|_ct| -> pnstm::TxResult<()> { panic!("boom") })])?;
        Ok(())
    });
}

#[test]
fn conflicting_top_level_txns_retry_to_consistency() {
    // Two threads transfer between accounts; total must be conserved.
    let stm = small_stm();
    let acc: Vec<_> = (0..4).map(|_| stm.new_vbox(100i64)).collect();
    let mut handles = vec![];
    for t in 0..4 {
        let stm = stm.clone();
        let acc = acc.clone();
        handles.push(thread::spawn(move || {
            for i in 0..100 {
                let from = (t + i) % 4;
                let to = (t + i + 1) % 4;
                stm.atomic(|tx| {
                    let f = tx.read(&acc[from]);
                    let g = tx.read(&acc[to]);
                    tx.write(&acc[from], f - 1);
                    tx.write(&acc[to], g + 1);
                    Ok(())
                })
                .unwrap();
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    let total: i64 = acc.iter().map(|a| stm.read_atomic(a)).sum();
    assert_eq!(total, 400, "money was created or destroyed");
}

#[test]
fn commit_publication_race_regression() {
    // Regression test for a TOCTOU in the commit protocol: the global clock
    // must be published only after every write of the commit is installed.
    // If the clock ticks first, a transaction beginning in that window
    // snapshots the new version while boxes still serve old values — and
    // passes validation, losing updates. Heavy oversubscription on few
    // cores maximizes preemption inside the race window.
    let stm = Stm::new(StmConfig {
        degree: ParallelismDegree::new(16, 1),
        worker_threads: 0,
        ..StmConfig::default()
    });
    let counter = stm.new_vbox(0i64);
    let threads = 8;
    let per_thread = 400;
    let mut handles = vec![];
    for _ in 0..threads {
        let stm = stm.clone();
        let counter = counter.clone();
        handles.push(thread::spawn(move || {
            for _ in 0..per_thread {
                stm.atomic(|tx| {
                    let v = tx.read(&counter);
                    std::thread::yield_now(); // widen the race window
                    tx.write(&counter, v + 1);
                    Ok(())
                })
                .unwrap();
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(
        stm.read_atomic(&counter),
        (threads * per_thread) as i64,
        "lost update: clock published before installs completed"
    );
}

#[test]
fn throttle_limits_top_level_concurrency() {
    let stm = Stm::new(StmConfig {
        degree: ParallelismDegree::new(2, 1),
        worker_threads: 0,
        ..StmConfig::default()
    });
    let active = Arc::new(AtomicUsize::new(0));
    let peak = Arc::new(AtomicUsize::new(0));
    let mut handles = vec![];
    for _ in 0..6 {
        let stm = stm.clone();
        let active = Arc::clone(&active);
        let peak = Arc::clone(&peak);
        handles.push(thread::spawn(move || {
            stm.atomic(|_tx| {
                let now = active.fetch_add(1, Ordering::SeqCst) + 1;
                peak.fetch_max(now, Ordering::SeqCst);
                thread::sleep(std::time::Duration::from_millis(5));
                active.fetch_sub(1, Ordering::SeqCst);
                Ok(())
            })
            .unwrap();
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    assert!(peak.load(Ordering::SeqCst) <= 2, "t=2 exceeded: {}", peak.load(Ordering::SeqCst));
}

#[test]
fn reconfigure_degree_applies_to_new_txns() {
    let stm = small_stm();
    stm.set_degree(ParallelismDegree::new(1, 1));
    assert_eq!(stm.degree(), ParallelismDegree::new(1, 1));
    stm.set_degree(ParallelismDegree::new(16, 3));
    assert_eq!(stm.degree(), ParallelismDegree::new(16, 3));
    // And transactions still work after reconfiguration.
    let b = stm.new_vbox(0);
    stm.atomic(|tx| {
        tx.write(&b, 1);
        Ok(())
    })
    .unwrap();
    assert_eq!(stm.read_atomic(&b), 1);
}

#[test]
fn exp_backoff_preserves_correctness() {
    let stm = Stm::new(StmConfig {
        degree: ParallelismDegree::new(8, 1),
        worker_threads: 0,
        cm_mode: CmMode::ExpBackoff,
        ..StmConfig::default()
    });
    let b = stm.new_vbox(0i64);
    let mut handles = vec![];
    for _ in 0..4 {
        let stm = stm.clone();
        let b = b.clone();
        handles.push(thread::spawn(move || {
            for _ in 0..50 {
                stm.atomic(|tx| {
                    let v = tx.read(&b);
                    tx.write(&b, v + 1);
                    Ok(())
                })
                .unwrap();
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(stm.read_atomic(&b), 200, "backoff must not lose updates");
}

#[test]
fn default_retry_budget_is_finite_and_typed() {
    // No shipped configuration retries forever: a transaction that can never
    // commit ends with a typed error once its budget is spent.
    assert!(StmConfig::default().max_retries < u64::MAX);
    let stm = Stm::new(StmConfig { max_retries: 3, ..StmConfig::default() });
    let result: Result<(), StmError> = stm.atomic(|_tx| Err(TxError::Conflict));
    assert_eq!(result, Err(StmError::RetriesExhausted { attempts: 3 }));
}

#[test]
fn gc_prunes_old_versions() {
    let stm = Stm::new(StmConfig { gc_interval: 0, ..StmConfig::default() });
    let b = stm.new_vbox(0i64);
    for i in 1..=50 {
        stm.atomic(|tx| {
            tx.write(&b, i);
            Ok(())
        })
        .unwrap();
    }
    assert_eq!(b.version_count(), 51);
    let pruned = stm.gc();
    assert_eq!(pruned, 1);
    assert_eq!(b.version_count(), 1, "only the newest version is reachable");
    assert_eq!(stm.read_atomic(&b), 50);
}

#[test]
fn gc_respects_live_snapshots() {
    let stm = Stm::new(StmConfig { gc_interval: 0, ..StmConfig::default() });
    let b = stm.new_vbox(0i64);
    stm.atomic(|tx| {
        tx.write(&b, 1);
        Ok(())
    })
    .unwrap();
    // Hold a read-only snapshot at version 1 while new versions land.
    let stm2 = stm.clone();
    let b2 = b.clone();
    stm.read_only(move |tx| {
        let pinned = tx.read(&b2);
        assert_eq!(pinned, 1);
        for i in 2..=10 {
            stm2.atomic(|t| {
                t.write(&b2, i);
                Ok(())
            })
            .unwrap();
        }
        stm2.gc();
        // The pinned snapshot must still read its version.
        assert_eq!(tx.read(&b2), 1);
    });
    stm.gc();
    assert_eq!(b.version_count(), 1);
}

#[test]
fn modify_helper_round_trips() {
    let stm = small_stm();
    let b = stm.new_vbox(10i32);
    let out = stm.atomic(|tx| Ok(tx.modify(&b, |v| v * 3))).unwrap();
    assert_eq!(out, 30);
    assert_eq!(stm.read_atomic(&b), 30);
}

#[test]
fn vbox_created_inside_txn_is_usable() {
    let stm = small_stm();
    let holder = stm.new_vbox(None::<pnstm::VBox<i32>>);
    stm.atomic(|tx| {
        let fresh = tx.new_vbox(123);
        tx.write(&holder, Some(fresh));
        Ok(())
    })
    .unwrap();
    let fetched = stm.read_atomic(&holder).expect("holder was written");
    assert_eq!(stm.read_atomic(&fetched), 123);
}

#[test]
fn stats_track_nested_activity() {
    let stm = small_stm();
    let b = stm.new_vbox(0i64);
    let b2 = b.clone();
    stm.atomic(move |tx| {
        let tasks = (0..4)
            .map(|_| {
                let bb = b2.clone();
                child(move |ct| {
                    let v = ct.read(&bb);
                    ct.write(&bb, v + 1);
                    Ok(())
                })
            })
            .collect();
        tx.parallel::<()>(tasks)
    })
    .unwrap();
    let snap = stm.stats().snapshot();
    assert_eq!(snap.top_commits, 1);
    assert_eq!(snap.nested_commits, 4);
}

#[test]
fn c_equals_one_runs_children_sequentially() {
    let stm = Stm::new(StmConfig {
        degree: ParallelismDegree::new(4, 1),
        worker_threads: 4,
        ..StmConfig::default()
    });
    let active = Arc::new(AtomicUsize::new(0));
    let peak = Arc::new(AtomicUsize::new(0));
    let (a2, p2) = (Arc::clone(&active), Arc::clone(&peak));
    stm.atomic(move |tx| {
        let tasks = (0..8)
            .map(|_| {
                let (a, p) = (Arc::clone(&a2), Arc::clone(&p2));
                child(move |_ct| {
                    let now = a.fetch_add(1, Ordering::SeqCst) + 1;
                    p.fetch_max(now, Ordering::SeqCst);
                    thread::sleep(std::time::Duration::from_millis(2));
                    a.fetch_sub(1, Ordering::SeqCst);
                    Ok(())
                })
            })
            .collect();
        tx.parallel::<()>(tasks)
    })
    .unwrap();
    assert_eq!(peak.load(Ordering::SeqCst), 1, "c=1 must serialize children");
}

/// A child that writes `value` to each of `boxes` and then ends with `end`.
fn writer(boxes: &[&VBox<i64>], value: i64, end: Result<(), TxError>) -> ChildTask<()> {
    let boxes: Vec<VBox<i64>> = boxes.iter().map(|b| (*b).clone()).collect();
    child(move |ct| {
        for b in &boxes {
            ct.write(b, value);
        }
        end.clone()
    })
}

#[test]
fn inline_user_abort_undoes_exactly_its_own_writes() {
    let stm = sequential_stm();
    let [parent, earlier, later, only_aborted] = [0, 0, 0, 7].map(|v| stm.new_vbox(v));
    stm.atomic(|tx| {
        tx.write(&parent, 1);
        let (earlier2, later2) = (earlier.clone(), later.clone());
        let tasks = vec![
            writer(&[&earlier], 10, Ok(())),
            // Overwrites a parent-written box (twice), a box the earlier
            // sibling wrote, and one nobody else writes — then aborts.
            writer(&[&parent, &earlier, &only_aborted, &parent], 99, Err(TxError::UserAbort)),
            child(move |ct| {
                let seen = ct.read(&earlier2);
                ct.write(&later2, seen + 1);
                Ok(())
            }),
        ];
        assert_eq!(tx.parallel(tasks), Err(TxError::UserAbort));
        assert_eq!(tx.read(&parent), 1, "the parent's value survives the aborted child");
        assert_eq!(tx.read(&earlier), 10, "an earlier sibling keeps its write");
        assert_eq!(tx.read(&later), 11, "a later sibling read the earlier one's write");
        assert_eq!(tx.read(&only_aborted), 7, "the aborted child's own box reads the snapshot");
        Ok(())
    })
    .unwrap();
    let committed = [&parent, &earlier, &later, &only_aborted].map(|b| stm.read_atomic(b));
    assert_eq!(committed, [1, 10, 11, 7]);
    assert_eq!(stm.stats().snapshot().nested_commits, 2, "the aborted child never committed");
}

#[test]
fn inline_child_panic_is_reraised_after_the_remaining_children_ran() {
    let stm = sequential_stm();
    let [a, b] = [0, 0].map(|v| stm.new_vbox(v));
    let ran_after = Arc::new(AtomicUsize::new(0));
    let ran = Arc::clone(&ran_after);
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        stm.atomic(|tx| {
            tx.write(&a, 1);
            let ran = Arc::clone(&ran);
            let b2 = b.clone();
            let tasks: Vec<ChildTask<()>> = vec![
                writer(&[&a], 2, Ok(())),
                // `resume_unwind` skips the panic hook's message.
                child(|_ct| -> TxResult<()> { resume_unwind(Box::new("inline child panic")) }),
                child(move |ct| {
                    ran.fetch_add(1, Ordering::SeqCst);
                    ct.write(&b2, 3);
                    Ok(())
                }),
            ];
            tx.parallel(tasks).map(drop)
        })
    }));
    let payload = outcome.expect_err("the child panic reaches the caller");
    assert_eq!(payload.downcast_ref::<&str>(), Some(&"inline child panic"));
    assert_eq!(ran_after.load(Ordering::SeqCst), 1, "the later sibling ran before the re-raise");
    assert_eq!((stm.read_atomic(&a), stm.read_atomic(&b)), (0, 0), "nothing committed");
    assert_eq!(stm.stats().snapshot().top_commits, 0);
}

#[test]
fn inline_children_report_their_depth() {
    let stm = sequential_stm();
    let depths = stm
        .atomic(|tx| {
            let tasks: Vec<ChildTask<Vec<u32>>> = vec![child(|ct| {
                assert!(ct.is_nested());
                let inner = ct.parallel(vec![child(|g| Ok(g.depth()))])?;
                Ok(vec![ct.depth(), inner[0], ct.depth()])
            })];
            let depths = tx.parallel(tasks)?;
            assert_eq!(tx.depth(), 0);
            assert!(!tx.is_nested());
            Ok(depths)
        })
        .unwrap();
    assert_eq!(depths, vec![vec![1, 2, 1]]);
}

/// `parallel()` inside an inline child: an outer failure undoes everything
/// the outer child did, the inner batch's writes included; an inner failure
/// undoes only the inner child's writes. At `c = 2` the first inner batch
/// meets a pool with no history and is handed off, so the outer undo also
/// covers that batch's join fold.
#[test]
fn parallel_inside_an_inline_child_undoes_exactly_its_scope() {
    for c in [1, 2] {
        let stm = Stm::new(StmConfig {
            degree: ParallelismDegree::new(1, c),
            worker_threads: c - 1,
            ..StmConfig::default()
        });
        let [p, a, b, d, e] = [0, 0, 0, 0, 0].map(|v| stm.new_vbox(v));
        let (p2, a2, b2, d2, e2) = (p.clone(), a.clone(), b.clone(), d.clone(), e.clone());
        stm.atomic(|tx| {
            tx.write(&p, 1);
            let (p, e) = (p2.clone(), e2.clone());
            let fails: ChildTask<()> = child(move |ct| {
                ct.write(&p, 5);
                ct.parallel(vec![writer(&[&e], 7, Ok(())), writer(&[&p], 6, Ok(()))])?;
                assert_eq!((ct.read(&e), ct.read(&p)), (7, 6), "the inner batch joined");
                Err(TxError::UserAbort)
            });
            assert_eq!(tx.parallel(vec![fails]), Err(TxError::UserAbort));
            let handed_off = stm.stats().snapshot().sched_handoffs;
            assert_eq!(handed_off, c as u64 - 1, "c = {c}: the inner batch was handed off");
            assert_eq!((tx.read(&p2), tx.read(&e2)), (1, 0), "c = {c}: outer undo incomplete");

            let (a, b, d) = (a2.clone(), b2.clone(), d2.clone());
            let survives = child(move |ct| {
                ct.write(&a, 1);
                let inner =
                    vec![writer(&[&b], 1, Ok(())), writer(&[&a, &d], 2, Err(TxError::UserAbort))];
                assert_eq!(ct.parallel(inner), Err(TxError::UserAbort));
                assert_eq!((ct.read(&a), ct.read(&b), ct.read(&d)), (1, 1, 0));
                Ok(())
            });
            assert_eq!(tx.parallel(vec![survives]), Ok(vec![()]));
            Ok(())
        })
        .unwrap();
        let committed = [&p, &a, &b, &d, &e].map(|x| stm.read_atomic(x));
        assert_eq!(committed, [1, 1, 1, 0, 0], "c = {c}");
    }
}

/// A child whose snapshot is evicted under it reports `Conflict`, exactly
/// as its nested commit would, and the attempt retries at the eviction site
/// on a fresh snapshot.
#[test]
fn an_inline_child_under_an_expired_lease_ends_the_attempt() {
    let stm = Stm::new(StmConfig {
        degree: ParallelismDegree::new(2, 1),
        worker_threads: 0,
        gc_interval: 0,
        mem: MemConfig { snapshot_lease: Some(Duration::from_millis(10)), ..MemConfig::default() },
        ..StmConfig::default()
    });
    let b = stm.new_vbox(0i64);
    let base = stm.stats().snapshot();
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let churn = {
        let (stm, b, stop) = (stm.clone(), b.clone(), Arc::clone(&stop));
        thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                stm.atomic(|tx| {
                    let v = tx.read(&b);
                    tx.write(&b, v + 1);
                    Ok(())
                })
                .unwrap();
                stm.gc();
                thread::sleep(Duration::from_millis(1));
            }
        })
    };

    let mut attempts = 0u64;
    stm.atomic(|tx| {
        attempts += 1;
        let first = attempts == 1;
        let (stm2, b2) = (stm.clone(), b.clone());
        let bump = child(move |ct| {
            let v = ct.read(&b2);
            // Park until this attempt's snapshot is evicted and pruned past:
            // the re-read is served from the chain floor.
            let end = Instant::now() + Duration::from_secs(10);
            while first && stm2.stats().snapshot().evicted_reads == base.evicted_reads {
                assert!(Instant::now() < end, "the child never observed an evicted read");
                thread::sleep(Duration::from_millis(5));
                let _ = ct.read(&b2);
            }
            ct.write(&b2, v + 1000);
            Ok(())
        });
        let result = tx.parallel(vec![bump]);
        if first {
            assert_eq!(result, Err(TxError::Conflict), "the evicted child must not commit");
        }
        result.map(drop)
    })
    .expect("the retry on a fresh snapshot commits");
    stop.store(true, Ordering::Relaxed);
    churn.join().unwrap();

    assert!(attempts >= 2, "the doomed attempt was retried");
    let d = stm.stats().snapshot().delta_since(&base);
    assert!(d.evicted_aborts >= 1, "the attempt ends at the eviction site: {d:?}");
    assert!(d.nested_aborts >= 1, "the evicted child counts as a nested abort: {d:?}");
    assert!(stm.read_atomic(&b) >= 1000, "the retried write landed");
}

/// Bounded regret at `c = 2`: once the pool has learnt that children are
/// tiny, a batch of long children starts inline, and the rest is published
/// after the first one outlasts the hand-off cost. Results keep task order.
#[test]
fn a_withheld_batch_that_outlasts_the_handoff_publishes_the_rest() {
    const CHILD: Duration = Duration::from_millis(10);
    let stm = Stm::new(StmConfig {
        degree: ParallelismDegree::new(1, 2),
        worker_threads: 1,
        ..StmConfig::default()
    });
    let cell = stm.new_vbox(0i64);
    for _ in 0..1_000 {
        stm.atomic(|tx| {
            let tasks = (0..2).map(|_| writer(&[&cell], 1, Ok(()))).collect();
            tx.parallel(tasks).map(drop)
        })
        .unwrap();
    }
    let before = stm.stats().snapshot();
    let out = stm
        .atomic(|tx| {
            let tasks: Vec<ChildTask<usize>> = (0..4)
                .map(|i| {
                    child(move |_ct| {
                        thread::sleep(CHILD);
                        Ok(i)
                    })
                })
                .collect();
            tx.parallel(tasks)
        })
        .unwrap();
    assert_eq!(out, vec![0, 1, 2, 3]);
    let d = stm.stats().snapshot().delta_since(&before);
    assert_eq!((d.sched_handoffs, d.sched_handoffs_elided), (1, 0), "{d:?}");
    assert!(d.steal_count >= 1, "no helper ran a published child: {d:?}");
    assert_eq!(d.nested_commits, 4);
}

/// A transaction far past the read/write sets' spill size: 1 000 boxes
/// read, then rotated one place and read back from its own writes, while a
/// bounded transfer stream commits on the same boxes. The sum is conserved.
#[test]
fn a_thousand_box_transaction_commits_and_conserves_the_sum() {
    let stm = small_stm();
    let boxes: Arc<Vec<VBox<i64>>> = Arc::new((0..1000).map(|i| stm.new_vbox(i)).collect());
    let total: i64 = (0..1000).sum();
    let mover = thread::spawn({
        let (stm, boxes) = (stm.clone(), Arc::clone(&boxes));
        move || {
            for k in 0..2000 {
                let (a, b) = (&boxes[k % 1000], &boxes[(k * 7 + 1) % 1000]);
                stm.atomic(|tx| {
                    tx.modify(a, |v| v - 1);
                    tx.modify(b, |v| v + 1);
                    Ok(())
                })
                .unwrap();
            }
        }
    });
    for _ in 0..5 {
        stm.atomic(|tx| {
            let values: Vec<i64> = boxes.iter().map(|b| tx.read(b)).collect();
            for (i, b) in boxes.iter().enumerate() {
                tx.write(b, values[(i + 1) % 1000]);
            }
            assert_eq!(tx.footprint(), (1000, 1000));
            let back: Vec<i64> = boxes.iter().map(|b| tx.read(b)).collect();
            assert_eq!(back[999], values[0], "reads see the transaction's own writes");
            assert_eq!(back.iter().sum::<i64>(), values.iter().sum::<i64>());
            Ok(())
        })
        .unwrap();
    }
    mover.join().unwrap();
    let sum: i64 = stm.read_only(|tx| boxes.iter().map(|b| tx.read(b)).sum());
    assert_eq!(sum, total);
}
