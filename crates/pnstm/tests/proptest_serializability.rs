//! Property-based tests: randomized transactional histories must always be
//! equivalent to some serial execution.

use proptest::prelude::*;
use std::collections::HashSet;
use std::sync::Arc;
use std::thread;

use pnstm::{
    child, stripe_of, ChildTask, CmMode, FaultKind, FaultPlan, FaultRule, Oracle,
    ParallelismDegree, Stm, StmConfig, TxError, Txn, VBox,
};

/// One randomly generated top-level transaction: a list of per-slot deltas;
/// each delta is applied read-modify-write, some of them via parallel
/// children.
#[derive(Debug, Clone)]
struct TxSpec {
    /// (slot index, delta) pairs applied sequentially by the root.
    root_ops: Vec<(usize, i64)>,
    /// (slot index, delta) pairs applied by parallel children (one each).
    child_ops: Vec<(usize, i64)>,
}

fn tx_spec(slots: usize) -> impl Strategy<Value = TxSpec> {
    let op = (0..slots, -5i64..=5i64);
    (proptest::collection::vec(op.clone(), 0..4), proptest::collection::vec(op, 0..4))
        .prop_map(|(root_ops, child_ops)| TxSpec { root_ops, child_ops })
}

fn run_history(
    specs: &[TxSpec],
    slots: usize,
    threads: usize,
    degree: ParallelismDegree,
) -> Vec<i64> {
    let stm = stm_with(degree, None);
    let boxes: Arc<Vec<VBox<i64>>> = Arc::new((0..slots).map(|_| stm.new_vbox(0i64)).collect());
    run_history_on(&stm, &boxes, specs, threads)
}

/// An instance on the shipped rungs (`None`) or with one retired rung.
fn stm_with(degree: ParallelismDegree, oracle: Option<Oracle>) -> Stm {
    Stm::with_oracle(StmConfig { degree, worker_threads: 2, ..StmConfig::default() }, oracle)
}

/// Allocate `n` boxes that all hash to the same commit stripe (rejection
/// sampling over fresh box ids), so every commit in a history over them
/// takes the lock-ordering and false-conflict paths of the striped protocol.
fn colliding_boxes(stm: &Stm, n: usize) -> Vec<VBox<i64>> {
    let first = stm.new_vbox(0i64);
    let target = stripe_of(first.id());
    let mut out = vec![first];
    while out.len() < n {
        let b = stm.new_vbox(0i64);
        if stripe_of(b.id()) == target {
            out.push(b);
        }
    }
    out
}

fn run_history_on(
    stm: &Stm,
    boxes: &Arc<Vec<VBox<i64>>>,
    specs: &[TxSpec],
    threads: usize,
) -> Vec<i64> {
    let chunks: Vec<Vec<TxSpec>> =
        (0..threads).map(|t| specs.iter().skip(t).step_by(threads).cloned().collect()).collect();
    let mut handles = vec![];
    for chunk in chunks {
        let stm = stm.clone();
        let boxes = Arc::clone(boxes);
        handles.push(thread::spawn(move || {
            for spec in chunk {
                let boxes = Arc::clone(&boxes);
                stm.atomic(move |tx| {
                    for &(slot, delta) in &spec.root_ops {
                        let v = tx.read(&boxes[slot]);
                        tx.write(&boxes[slot], v + delta);
                    }
                    if !spec.child_ops.is_empty() {
                        let tasks = spec
                            .child_ops
                            .iter()
                            .map(|&(slot, delta)| {
                                let boxes = Arc::clone(&boxes);
                                child(move |ct| {
                                    let v = ct.read(&boxes[slot]);
                                    ct.write(&boxes[slot], v + delta);
                                    Ok(())
                                })
                            })
                            .collect();
                        tx.parallel::<()>(tasks)?;
                    }
                    Ok(())
                })
                .unwrap();
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    boxes.iter().map(|b| stm.read_atomic(b)).collect()
}

/// All permutations of `items` (items.len() ≤ 4 in our use, so at most 24).
fn permutations<T: Clone>(items: &[T]) -> Vec<Vec<T>> {
    if items.len() <= 1 {
        return vec![items.to_vec()];
    }
    let mut out = Vec::new();
    for i in 0..items.len() {
        let mut rest = items.to_vec();
        let head = rest.remove(i);
        for mut tail in permutations(&rest) {
            tail.insert(0, head.clone());
            out.push(tail);
        }
    }
    out
}

/// Expected final state: deltas are commutative additions, so any serial
/// order yields the same sums.
fn expected_state(specs: &[TxSpec], slots: usize) -> Vec<i64> {
    let mut out = vec![0i64; slots];
    for spec in specs {
        for &(slot, delta) in spec.root_ops.iter().chain(spec.child_ops.iter()) {
            out[slot] += delta;
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Additive read-modify-write histories commute, so the final state must
    /// equal the sum of all deltas regardless of interleaving — any lost
    /// update or torn nested commit breaks this.
    #[test]
    fn additive_histories_conserve_sums(
        specs in proptest::collection::vec(tx_spec(4), 1..12),
        degree in (1usize..=4, 1usize..=4),
    ) {
        let slots = 4;
        let got = run_history(&specs, slots, 3, ParallelismDegree::new(degree.0, degree.1));
        let want = expected_state(&specs, slots);
        prop_assert_eq!(got, want);
    }

    /// Read-only snapshots observe `a + b` invariants maintained by writers.
    #[test]
    fn snapshots_never_torn(writes in 1usize..40) {
        let stm = Stm::new(StmConfig::default());
        let a = stm.new_vbox(0i64);
        let b = stm.new_vbox(0i64);
        let writer = {
            let (stm, a, b) = (stm.clone(), a.clone(), b.clone());
            thread::spawn(move || {
                for i in 1..=writes as i64 {
                    stm.atomic(|tx| {
                        tx.write(&a, i);
                        tx.write(&b, -i);
                        Ok(())
                    }).unwrap();
                }
            })
        };
        for _ in 0..writes {
            stm.read_only(|tx| {
                let (va, vb) = (tx.read(&a), tx.read(&b));
                assert_eq!(va + vb, 0, "torn snapshot: {va} + {vb}");
            });
        }
        writer.join().unwrap();
    }

    /// Unique-token generation: every transaction takes a distinct value from
    /// a shared counter; duplicates would reveal a validation hole.
    #[test]
    fn counter_hands_out_unique_tokens(n in 1usize..60) {
        let stm = Stm::new(StmConfig::default());
        let ctr = stm.new_vbox(0u64);
        let tokens = Arc::new(parking_lot::Mutex::new(Vec::new()));
        let mut handles = vec![];
        for t in 0..3usize {
            let stm = stm.clone();
            let ctr = ctr.clone();
            let tokens = Arc::clone(&tokens);
            let mine = n / 3 + usize::from(t < n % 3);
            handles.push(thread::spawn(move || {
                for _ in 0..mine {
                    let tok = stm.atomic(|tx| {
                        let v = tx.read(&ctr);
                        tx.write(&ctr, v + 1);
                        Ok(v)
                    }).unwrap();
                    tokens.lock().push(tok);
                }
            }));
        }
        for h in handles { h.join().unwrap(); }
        let toks = tokens.lock();
        let set: HashSet<_> = toks.iter().collect();
        prop_assert_eq!(set.len(), toks.len(), "duplicate tokens: {:?}", *toks);
        prop_assert_eq!(toks.len() as u64, stm.read_atomic(&ctr));
    }
}

/// One child of a generated transaction tree: commutative bumps of shared
/// counters, a write of its own box (no other child touches it), optionally
/// a batch of children of its own, and optionally a `UserAbort` after all of
/// that. What it returns depends on no sibling order, so a sequential and a
/// parallel run must agree on it.
#[derive(Debug, Clone)]
struct ChildSpec {
    /// Own box; 0 is the top-level transaction's.
    id: usize,
    bumps: Vec<(usize, i64)>,
    own: i64,
    abort: bool,
    kids: Vec<ChildSpec>,
}

const TREE_COUNTERS: usize = 3;
/// Own boxes: the top level's plus at most 4 children with 3 kids each.
const TREE_OWN: usize = 1 + 4 + 4 * 3;

fn leaf_spec() -> impl Strategy<Value = ChildSpec> {
    (proptest::collection::vec((0..TREE_COUNTERS, -5i64..=5), 0..3), 1i64..1000, 0usize..4)
        .prop_map(|(bumps, own, abort)| ChildSpec {
            id: 0,
            bumps,
            own,
            abort: abort == 0,
            kids: vec![],
        })
}

/// A root batch of 2–4 children, some with a batch of 2–3 kids: every batch
/// has at least two children, so the published run hands every batch off.
fn tree_spec() -> impl Strategy<Value = Vec<ChildSpec>> {
    let node = (leaf_spec(), 0usize..2, proptest::collection::vec(leaf_spec(), 2..4)).prop_map(
        |(mut node, has_kids, kids)| {
            if has_kids == 1 {
                node.kids = kids;
            }
            node
        },
    );
    proptest::collection::vec(node, 2..5).prop_map(|mut batch| {
        number_specs(&mut batch, &mut 1);
        batch
    })
}

fn number_specs(batch: &mut [ChildSpec], next: &mut usize) {
    for node in batch {
        node.id = *next;
        *next += 1;
        number_specs(&mut node.kids, next);
    }
}

fn tree_batches(batch: &[ChildSpec]) -> u64 {
    1 + batch.iter().filter(|n| !n.kids.is_empty()).map(|n| tree_batches(&n.kids)).sum::<u64>()
}

struct TreeWorld {
    counters: Vec<VBox<i64>>,
    own: Vec<VBox<i64>>,
}

/// Run `batch` as `parent`'s children and flatten what they returned; a
/// failed batch contributes its error's code instead.
fn run_spec_batch(
    tx: &mut Txn,
    batch: &[ChildSpec],
    parent: usize,
    world: &Arc<TreeWorld>,
) -> Vec<i64> {
    let tasks: Vec<ChildTask<Vec<i64>>> = batch
        .iter()
        .map(|node| {
            let (node, world) = (node.clone(), Arc::clone(world));
            child(move |ct| {
                for &(c, d) in &node.bumps {
                    let v = ct.read(&world.counters[c]);
                    ct.write(&world.counters[c], v + d);
                }
                ct.write(&world.own[node.id], node.own);
                let mut seen = vec![ct.read(&world.own[parent]), ct.read(&world.own[node.id])];
                if !node.kids.is_empty() {
                    seen.extend(run_spec_batch(ct, &node.kids, node.id, &world));
                }
                if node.abort {
                    Err(TxError::UserAbort)
                } else {
                    Ok(seen)
                }
            })
        })
        .collect();
    match tx.parallel(tasks) {
        Ok(seen) => seen.concat(),
        Err(TxError::UserAbort) => vec![-1],
        Err(_) => vec![-2],
    }
}

/// One top-level transaction per tree, on one client thread; returns what
/// each tree's children returned and the final committed state.
fn replay_trees(stm: &Stm, trees: &[Vec<ChildSpec>]) -> (Vec<Vec<i64>>, Vec<i64>) {
    let world = Arc::new(TreeWorld {
        counters: (0..TREE_COUNTERS).map(|_| stm.new_vbox(0i64)).collect(),
        own: (0..TREE_OWN).map(|_| stm.new_vbox(0i64)).collect(),
    });
    let seen = trees
        .iter()
        .enumerate()
        .map(|(k, batch)| {
            stm.atomic(|tx| {
                // Parent writes the children read back or bump.
                tx.write(&world.own[0], k as i64 + 1);
                let v = tx.read(&world.counters[0]);
                tx.write(&world.counters[0], v + 100);
                Ok(run_spec_batch(tx, batch, 0, &world))
            })
            .expect("a single client never exhausts its retries")
        })
        .collect();
    let state = world.counters.iter().chain(&world.own).map(|b| stm.read_atomic(b)).collect();
    (seen, state)
}

// Striped-commit-specific properties. This block deliberately uses the
// default `ProptestConfig` (no explicit `cases`) so CI can scale the case
// count through the `PROPTEST_CASES` environment variable.
proptest! {
    /// Histories over boxes that all hash to the *same* commit stripe:
    /// every concurrent commit contends on one stripe lock, and every
    /// read of a sibling box is validated through a stamp another box
    /// advanced — the false-conflict and lock-ordering paths. The outcome
    /// must still be the serial sum, and the run must terminate (a
    /// lock-ordering bug would deadlock here first).
    #[test]
    fn colliding_stripe_histories_conserve_sums(
        specs in proptest::collection::vec(tx_spec(4), 1..12),
        degree in (1usize..=4, 1usize..=4),
    ) {
        let slots = 4;
        let stm = stm_with(ParallelismDegree::new(degree.0, degree.1), None);
        let boxes = Arc::new(colliding_boxes(&stm, slots));
        let first = stripe_of(boxes[0].id());
        prop_assert!(boxes.iter().all(|b| stripe_of(b.id()) == first));
        let got = run_history_on(&stm, &boxes, &specs, 3);
        prop_assert_eq!(got, expected_state(&specs, slots));
    }

    /// Differential replay: the same specs produce the same history under
    /// the striped path and the retained global-lock oracle. Single-threaded
    /// the histories are fully defined, so commit/abort outcomes and the
    /// clock must agree exactly; concurrently the additive deltas commute,
    /// so the final states must agree.
    #[test]
    fn striped_path_replays_global_lock_histories(
        specs in proptest::collection::vec(tx_spec(4), 1..10),
    ) {
        let slots = 4;
        // Deterministic single-threaded replay: outcome-for-outcome equal.
        let mut single = Vec::new();
        for oracle in [None, Some(Oracle::GlobalLock)] {
            let stm = stm_with(ParallelismDegree::new(1, 1), oracle);
            let boxes = Arc::new((0..slots).map(|_| stm.new_vbox(0i64)).collect::<Vec<_>>());
            let state = run_history_on(&stm, &boxes, &specs, 1);
            let snap = stm.stats().snapshot();
            single.push((state, snap.top_commits, snap.top_aborts, stm.clock_now()));
        }
        prop_assert_eq!(&single[0], &single[1], "single-threaded histories diverged");
        prop_assert_eq!(single[0].2, 0, "uncontended history must not abort");

        // Concurrent replay: serializability pins the final state.
        let striped = run_history(&specs, slots, 3, ParallelismDegree::new(4, 2));
        let stm = stm_with(ParallelismDegree::new(4, 2), Some(Oracle::GlobalLock));
        let boxes = Arc::new((0..slots).map(|_| stm.new_vbox(0i64)).collect::<Vec<_>>());
        let global = run_history_on(&stm, &boxes, &specs, 3);
        prop_assert_eq!(striped, global);
    }

    /// Differential replay across the execution-layer ladder: the same specs
    /// produce the same history whether child batches run on the retained
    /// mutex pool or the work-stealing scheduler. Commit semantics live
    /// entirely above the child scheduler, so the two rungs must agree
    /// outcome-for-outcome single-threaded and state-for-state concurrently.
    #[test]
    fn work_stealing_replays_mutex_histories(
        specs in proptest::collection::vec(tx_spec(4), 1..10),
    ) {
        let slots = 4;
        // Deterministic single-threaded replay: outcome-for-outcome equal.
        let mut single = Vec::new();
        for oracle in [None, Some(Oracle::MutexSched)] {
            let stm = stm_with(ParallelismDegree::new(1, 1), oracle);
            let boxes = Arc::new((0..slots).map(|_| stm.new_vbox(0i64)).collect::<Vec<_>>());
            let state = run_history_on(&stm, &boxes, &specs, 1);
            let snap = stm.stats().snapshot();
            single.push((state, snap.top_commits, snap.top_aborts, stm.clock_now()));
        }
        prop_assert_eq!(&single[0], &single[1], "single-threaded histories diverged");
        prop_assert_eq!(single[0].2, 0, "uncontended history must not abort");

        // Concurrent replay: serializability pins the final state.
        let mut states = Vec::new();
        for oracle in [None, Some(Oracle::MutexSched)] {
            let stm = stm_with(ParallelismDegree::new(4, 2), oracle);
            let boxes = Arc::new((0..slots).map(|_| stm.new_vbox(0i64)).collect::<Vec<_>>());
            states.push(run_history_on(&stm, &boxes, &specs, 3));
        }
        prop_assert_eq!(&states[0], &states[1], "concurrent final states diverged");
    }

    /// Differential replay across the contention-manager ladder: an
    /// explicitly-Immediate instance (the pre-CM retry loop) is
    /// byte-identical to the shipped default CM on an uncontended history —
    /// the CM begin/decide calls on the hot path must be observably free,
    /// and the default rung never waits without an abort. Single-threaded
    /// the histories are fully defined, so states, commit/abort counts and
    /// the clock must agree exactly; concurrently the additive deltas commute, so the final
    /// states must agree (also exercised under ExpBackoff, whose waits may
    /// reorder but never lose updates).
    #[test]
    fn immediate_cm_replays_seed_histories(
        specs in proptest::collection::vec(tx_spec(4), 1..10),
    ) {
        let slots = 4;
        let stm_cm = |degree, cm_mode| Stm::new(StmConfig {
            degree, worker_threads: 2, cm_mode, ..StmConfig::default()
        });
        // Deterministic single-threaded replay: outcome-for-outcome equal.
        let mut single = Vec::new();
        for explicit in [true, false] {
            let stm = if explicit {
                stm_cm(ParallelismDegree::new(1, 1), CmMode::Immediate)
            } else {
                // The seed configuration, CM left entirely to its default.
                Stm::new(StmConfig {
                    degree: ParallelismDegree::new(1, 1),
                    worker_threads: 2,
                    ..StmConfig::default()
                })
            };
            let want = if explicit { CmMode::Immediate } else { CmMode::default() };
            prop_assert_eq!(stm.cm_mode(), want);
            let boxes = Arc::new((0..slots).map(|_| stm.new_vbox(0i64)).collect::<Vec<_>>());
            let state = run_history_on(&stm, &boxes, &specs, 1);
            let snap = stm.stats().snapshot();
            prop_assert_eq!(snap.cm_wait_count(), 0, "an uncontended history must never wait");
            single.push((state, snap.top_commits, snap.top_aborts, stm.clock_now()));
        }
        prop_assert_eq!(&single[0], &single[1], "single-threaded histories diverged");
        prop_assert_eq!(single[0].2, 0, "uncontended history must not abort");

        // Concurrent replay: serializability pins the final state, on the
        // oracle rung and on a waiting rung.
        let mut states = Vec::new();
        for cm_mode in [CmMode::Immediate, CmMode::ExpBackoff] {
            let stm = stm_cm(ParallelismDegree::new(4, 2), cm_mode);
            let boxes = Arc::new((0..slots).map(|_| stm.new_vbox(0i64)).collect::<Vec<_>>());
            states.push(run_history_on(&stm, &boxes, &specs, 3));
        }
        prop_assert_eq!(&states[0], &states[1], "concurrent final states diverged");
    }

    /// Closed-nesting visibility under random sibling interleavings, on both
    /// read paths:
    ///
    /// 1. **Read-your-ancestors** — every child observes the parent's
    ///    pre-`parallel()` write of the marker box.
    /// 2. **Sibling isolation until commit** — each child writes a poison
    ///    sentinel to its slot before the real value; a sibling observing
    ///    uncommitted state would fold the sentinel into its product.
    /// 3. **Serializability of siblings** — the child ops `x := x*m + a` are
    ///    non-commutative, so the final state is legal only if it equals
    ///    applying the children in *some* sequential order; the oracle
    ///    enumerates all k! orders (k ≤ 4).
    #[test]
    fn closed_nesting_visibility_matches_a_sequential_child_order(
        children in proptest::collection::vec((0usize..2, 2i64..=5, -7i64..=7), 1..5),
        degree_c in 1usize..=4,
        locked in 0usize..2,
    ) {
        let stm = stm_with(
            ParallelismDegree::new(2, degree_c),
            (locked == 1).then_some(Oracle::LockedReads),
        );
        let slots: Arc<Vec<VBox<i64>>> =
            Arc::new((0..2).map(|i| stm.new_vbox(10 + i as i64)).collect());
        let marker = stm.new_vbox(0i64);

        let marker2 = marker.clone();
        let slots2 = Arc::clone(&slots);
        let children2 = children.clone();
        let markers_seen = stm
            .atomic(move |tx| {
                tx.write(&marker2, 99);
                let tasks = children2
                    .iter()
                    .map(|&(slot, m, a)| {
                        let slots = Arc::clone(&slots2);
                        let marker = marker2.clone();
                        child(move |ct| {
                            let seen = ct.read(&marker);
                            let v = ct.read(&slots[slot]);
                            // Tentative garbage a sibling must never see...
                            ct.write(&slots[slot], i64::MIN / 2);
                            // ...overwritten by the real value before commit.
                            ct.write(&slots[slot], v * m + a);
                            Ok(seen)
                        })
                    })
                    .collect();
                tx.parallel(tasks)
            })
            .unwrap();

        prop_assert!(
            markers_seen.iter().all(|&s| s == 99),
            "a child missed its ancestor's write: {:?}", markers_seen
        );

        let legal: HashSet<Vec<i64>> = permutations(&children)
            .into_iter()
            .map(|order| {
                let mut state = vec![10i64, 11];
                for (slot, m, a) in order {
                    state[slot] = state[slot] * m + a;
                }
                state
            })
            .collect();
        let got: Vec<i64> = slots.iter().map(|b| stm.read_atomic(b)).collect();
        prop_assert!(
            legal.contains(&got),
            "final {:?} matches no sequential order of the children; legal: {:?}", got, legal
        );
    }

    /// Differential replay of withheld against published batches. At
    /// `c = 1` every batch runs inline on its parent's own sets; at `c = 4`
    /// a 2 ms `ChildStall` on every dispatch makes `d̄` large enough that
    /// every batch is handed off to nested transactions. Nested `parallel`,
    /// `UserAbort` children (whose writes the inline run undoes from its
    /// journal and the published run never commits) and commutative or
    /// disjoint updates must give the same per-child results and the same
    /// committed state.
    #[test]
    fn inline_children_replay_published_trees(
        trees in proptest::collection::vec(tree_spec(), 1..4),
    ) {
        let inline = Stm::new(StmConfig {
            degree: ParallelismDegree::new(1, 1),
            worker_threads: 0,
            ..StmConfig::default()
        });
        let expected = replay_trees(&inline, &trees);
        let snap = inline.stats().snapshot();
        prop_assert_eq!((snap.sched_handoffs, snap.sched_handoffs_elided), (0, 0));

        let stall = FaultRule::with_probability(1.0).delay_ns(2_000_000);
        let published = Stm::new(StmConfig {
            degree: ParallelismDegree::new(1, 4),
            worker_threads: 3,
            fault: Some(Arc::new(FaultPlan::new(7).with_rule(FaultKind::ChildStall, stall))),
            ..StmConfig::default()
        });
        let got = replay_trees(&published, &trees);
        prop_assert_eq!(&got, &expected, "published trees diverged from inline ones");
        let snap = published.stats().snapshot();
        prop_assert_eq!(snap.sched_handoffs_elided, 0, "a batch stayed inline: {:?}", snap);
        let batches: u64 = trees.iter().map(|t| tree_batches(t)).sum();
        prop_assert!(snap.sched_handoffs >= batches, "{} of {} batches handed off", snap.sched_handoffs, batches);
    }
}
