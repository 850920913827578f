//! The discrete-event simulation engine.
//!
//! A closed system of one or more transaction classes. Each class owns `t_k`
//! top-level "threads" (slots) that loop its transactions forever, with
//! intra-tree child concurrency `c_k`; a one-class simulation is the paper's
//! `(t, c)` machine. Every work segment (prelude, child, postlude, commit
//! section) occupies one of the `n` cores for a sampled duration; a
//! suspended parent waiting for its children does not hold a core, matching
//! the paper's `t × c ≤ n` resource model. The global commit section is
//! serialized, reproducing the commit-lock ceiling of real STMs.
//!
//! All classes share the cores, the commit section and the data set: a
//! class-`i` tree's commit validates against the commits of *every* class
//! during its window, with pairwise conflict probabilities from
//! [`SimWorkload::conflict_prob_vs`] — the substrate for the paper's §VIII
//! per-type `(t_k, c_k)` extension.

use std::collections::VecDeque;
use std::time::Duration;

use crate::event::{EventQueue, SegKind};
use crate::rng::{LogNormal, SimRng};
use crate::stats::RunStats;
use crate::workload::{MachineParams, SimWorkload};

/// One transaction class and its parallelism degree.
#[derive(Debug, Clone)]
pub struct ClassSpec {
    /// The class's workload shape.
    pub workload: SimWorkload,
    /// Its `(t_k, c_k)` degree.
    pub degree: (usize, usize),
}

#[derive(Debug, Clone)]
struct Slot {
    /// The class whose transactions this slot runs.
    class: usize,
    /// Retired by a shrink of `t_k`; no transaction running.
    idle: bool,
    /// Per-class commit counts at this transaction's (re)start, for
    /// conflict-window sampling.
    start_seq: Vec<u64>,
    /// Sibling (tree-local) commit counter of the current transaction tree.
    tree_seq: u64,
    /// Children that have not yet committed.
    remaining_children: usize,
    /// Children that have not yet been started.
    queued_children: usize,
    /// Children currently holding a tree slot (running or core-queued).
    running_children: usize,
    /// Consecutive top-level aborts (drives exponential restart backoff).
    abort_streak: u32,
    /// Virtual time at which the current transaction attempt started.
    started_at: u64,
}

impl Slot {
    /// Running a transaction attempt that began before `t`.
    fn stale_since(&self, t: u64) -> bool {
        !self.idle && self.started_at < t
    }
}

/// A class's segment durations. They depend on its workload and, for the
/// nested commit, on `c_k`: rebuilt whenever either changes, so no draw
/// recomputes them.
#[derive(Debug)]
struct Durations {
    prelude: LogNormal,
    child: LogNormal,
    nested_commit: LogNormal,
    postlude: LogNormal,
    commit: LogNormal,
}

impl Durations {
    fn new(wl: &SimWorkload, c_limit: usize) -> Self {
        let cv = wl.duration_cv;
        let spawn = wl.spawn_overhead_ns * wl.child_count as f64;
        // Nested commits serialize on the parent (JVSTM holds a per-parent
        // lock while merging a child): with c concurrent children a
        // committing child queues behind (c-1)/2 siblings on average.
        let c_eff = c_limit.min(wl.child_count.max(1)) as f64;
        let queue_factor = 1.0 + (c_eff - 1.0) * 0.5;
        Self {
            prelude: LogNormal::new(wl.top_work_ns * 0.5 + spawn, cv),
            child: LogNormal::new(wl.child_work_ns, cv),
            nested_commit: LogNormal::new(wl.nested_commit_ns * queue_factor, cv),
            postlude: LogNormal::new(wl.top_work_ns * 0.5, cv),
            commit: LogNormal::new(wl.commit_ns, cv),
        }
    }
}

/// A class's workload, degree, slots and counters.
#[derive(Debug)]
struct Class {
    workload: SimWorkload,
    t_limit: usize,
    c_limit: usize,
    active_slots: usize,
    retired: Vec<usize>,
    /// `p_conflict[j]`: probability that one class-`j` commit invalidates
    /// this class's reads.
    p_conflict: Vec<f64>,
    p_sibling: f64,
    durations: Durations,
    stats: RunStats,
}

/// A resumable discrete-event simulation of one or more transaction classes
/// on one machine.
pub struct Simulation {
    classes: Vec<Class>,
    machine: MachineParams,
    rng: SimRng,
    now: u64,
    events: EventQueue,

    busy_cores: usize,
    /// FIFO of segments waiting for a core.
    core_queue: VecDeque<(usize, SegKind)>,
    /// FIFO of transactions waiting for the serialized commit section.
    commit_queue: VecDeque<usize>,
    commit_busy: bool,

    slots: Vec<Slot>,
    /// Installed (write) commits per class; drives conflict windows.
    commit_seq: Vec<u64>,

    /// While `quiesce` runs, the time it began; 0 otherwise, when no slot
    /// can be stale.
    drain_since: u64,
    /// Slots that are [`Slot::stale_since`] `drain_since`, kept as they
    /// start or retire so `quiesce` need not scan them per event.
    stale: usize,
}

impl Simulation {
    /// Create a simulation of `workload` on `machine` under configuration
    /// `(t, c)`, deterministic for a given `seed`.
    pub fn new(
        workload: &SimWorkload,
        machine: &MachineParams,
        degree: (usize, usize),
        seed: u64,
    ) -> Self {
        Self::with_classes(&[ClassSpec { workload: workload.clone(), degree }], machine, seed, 1.0)
    }

    /// Create a simulation of several transaction classes, each with its own
    /// `(t_k, c_k)`. All classes must share the same `data_items` (they
    /// operate on one data set). `cross_scale` scales the *cross-class*
    /// conflict probabilities: 1.0 = the classes hammer the same tables,
    /// 0.0 = they work on disjoint tables (intra-class conflicts are
    /// unaffected).
    pub fn with_classes(
        specs: &[ClassSpec],
        machine: &MachineParams,
        seed: u64,
        cross_scale: f64,
    ) -> Self {
        assert!(!specs.is_empty(), "at least one class");
        assert!((0.0..=1.0).contains(&cross_scale));
        let items = specs[0].workload.data_items;
        assert!(
            specs.iter().all(|s| s.workload.data_items == items),
            "classes must share the data set"
        );
        let classes = specs
            .iter()
            .enumerate()
            .map(|(i, spec)| {
                let wl = &spec.workload;
                let c_limit = spec.degree.1.max(1);
                let p_conflict = specs
                    .iter()
                    .enumerate()
                    .map(|(j, writer)| {
                        let p = wl.conflict_prob_vs(&writer.workload);
                        if i == j {
                            p
                        } else {
                            p * cross_scale
                        }
                    })
                    .collect();
                Class {
                    workload: wl.clone(),
                    t_limit: spec.degree.0.max(1),
                    c_limit,
                    active_slots: 0,
                    retired: Vec::new(),
                    p_conflict,
                    p_sibling: wl.sibling_conflict_prob_per_commit(),
                    durations: Durations::new(wl, c_limit),
                    stats: RunStats::default(),
                }
            })
            .collect();
        let mut sim = Self {
            classes,
            machine: *machine,
            rng: SimRng::new(seed),
            now: 0,
            events: EventQueue::new(),
            busy_cores: 0,
            core_queue: VecDeque::new(),
            commit_queue: VecDeque::new(),
            commit_busy: false,
            slots: Vec::new(),
            commit_seq: vec![0; specs.len()],
            drain_since: 0,
            stale: 0,
        };
        for class in 0..sim.classes.len() {
            sim.fill_slots(class);
        }
        sim
    }

    /// The class of a one-class simulation.
    fn single(&self) -> &Class {
        let [class] = &self.classes[..] else {
            panic!("a single-class method called on a multi-class simulation")
        };
        class
    }

    /// Current virtual time in nanoseconds.
    pub fn now_ns(&self) -> u64 {
        self.now
    }

    /// Cumulative statistics since construction, summed over the classes.
    pub fn total_stats(&self) -> RunStats {
        let mut out = RunStats { elapsed_ns: self.now, ..RunStats::default() };
        for c in &self.classes {
            out.commits += c.stats.commits;
            out.aborts += c.stats.aborts;
            out.nested_commits += c.stats.nested_commits;
            out.nested_aborts += c.stats.nested_aborts;
        }
        out
    }

    /// Cumulative statistics since construction, per class.
    pub fn class_stats(&self) -> Vec<RunStats> {
        self.classes.iter().map(|c| RunStats { elapsed_ns: self.now, ..c.stats }).collect()
    }

    /// The `(t, c)` configuration of a one-class simulation.
    pub fn degree(&self) -> (usize, usize) {
        let class = self.single();
        (class.t_limit, class.c_limit)
    }

    /// The `(t_k, c_k)` degrees currently in force, one per class.
    pub fn degrees(&self) -> Vec<(usize, usize)> {
        self.classes.iter().map(|c| (c.t_limit, c.c_limit)).collect()
    }

    /// Reconfigure a one-class simulation to `(t, c)`; see
    /// [`Self::set_degrees`].
    pub fn set_degree(&mut self, t: usize, c: usize) {
        self.set_degrees(&[(t, c)]);
    }

    /// Apply new per-class degrees (one pair per class). Growth of `t_k`
    /// admits new transactions immediately; shrink retires slots as their
    /// transactions complete. A change of `c_k` applies to child launches
    /// from now on.
    pub fn set_degrees(&mut self, degrees: &[(usize, usize)]) {
        assert_eq!(degrees.len(), self.classes.len(), "one degree per class");
        for (class, &(t, c)) in self.classes.iter_mut().zip(degrees) {
            class.t_limit = t.max(1);
            class.c_limit = c.max(1);
            class.durations = Durations::new(&class.workload, class.c_limit);
        }
        for class in 0..self.classes.len() {
            self.fill_slots(class);
        }
    }

    /// Switch a one-class simulation to a different workload at the current
    /// virtual time (a *workload shift*, for exercising change detection).
    /// In-flight segments complete with their already-sampled durations;
    /// every transaction begun from now on uses the new workload.
    pub fn set_workload(&mut self, workload: &SimWorkload) {
        let [class] = &mut self.classes[..] else {
            panic!("set_workload called on a multi-class simulation")
        };
        class.p_conflict[0] = workload.conflict_prob_vs(workload);
        class.p_sibling = workload.sibling_conflict_prob_per_commit();
        class.durations = Durations::new(workload, class.c_limit);
        class.workload = workload.clone();
    }

    /// Name of the workload a one-class simulation is running.
    pub fn workload_name(&self) -> &str {
        &self.single().workload.name
    }

    /// Advance virtual time until every active slot is executing a
    /// transaction that *started* after this call (i.e. all transactions
    /// admitted under a previous configuration or workload have drained),
    /// or until `cap` of virtual time passes. Returns the virtual time
    /// consumed.
    ///
    /// Used between actuation and measurement so that stale commits do not
    /// pollute the next monitoring window.
    pub fn quiesce(&mut self, cap: Duration) -> Duration {
        let begin = self.now;
        let end = begin + cap.as_nanos() as u64;
        self.drain_since = begin;
        self.stale = self.slots.iter().filter(|s| s.stale_since(begin)).count();
        while self.now < end && self.stale > 0 && self.step(end).is_some() {}
        self.drain_since = 0;
        Duration::from_nanos(self.now - begin)
    }

    /// Advance the simulation by `d` of virtual time; returns the statistics
    /// (summed over the classes) of exactly that interval.
    pub fn run_for_virtual(&mut self, d: Duration) -> RunStats {
        let before = self.total_stats();
        let end = self.now + d.as_nanos() as u64;
        while self.step(end).is_some() {}
        self.total_stats().delta_since(&before)
    }

    /// Advance until a top-level commit occurs or `timeout` of virtual time
    /// passes. Returns the commit timestamp if one occurred.
    ///
    /// This is the simulator's commit stream: monitor policies call it to
    /// wait for the next commit.
    pub fn run_until_next_commit(&mut self, timeout: Duration) -> Option<u64> {
        let end = self.now + timeout.as_nanos() as u64;
        while self.now < end {
            if self.step(end)? {
                return Some(self.now);
            }
        }
        None
    }

    /// Handle the next event if it is due by `end`; otherwise move the clock
    /// to `end` and return `None`. `Some(committed)` says whether the event
    /// committed a top-level transaction.
    fn step(&mut self, end: u64) -> Option<bool> {
        match self.events.peek_time() {
            Some(at) if at <= end => {
                let ev = self.events.pop().expect("peeked event exists");
                self.now = ev.at;
                Some(self.handle(ev.slot, ev.kind))
            }
            _ => {
                self.now = end;
                None
            }
        }
    }

    // ------------------------------------------------------------------
    // Slot lifecycle
    // ------------------------------------------------------------------

    fn fill_slots(&mut self, class: usize) {
        while self.classes[class].active_slots < self.classes[class].t_limit {
            let slot = match self.classes[class].retired.pop() {
                Some(s) => s,
                None => {
                    self.slots.push(Slot {
                        class,
                        idle: true,
                        start_seq: vec![0; self.classes.len()],
                        tree_seq: 0,
                        remaining_children: 0,
                        queued_children: 0,
                        running_children: 0,
                        abort_streak: 0,
                        started_at: 0,
                    });
                    self.slots.len() - 1
                }
            };
            self.classes[class].active_slots += 1;
            self.start_txn(slot);
        }
    }

    fn start_txn(&mut self, slot: usize) {
        let s = &mut self.slots[slot];
        if s.stale_since(self.drain_since) {
            self.stale -= 1;
        }
        s.idle = false;
        s.started_at = self.now;
        s.start_seq.copy_from_slice(&self.commit_seq);
        s.tree_seq = 0;
        s.remaining_children = 0;
        s.queued_children = 0;
        s.running_children = 0;
        self.request_core(slot, SegKind::Prelude);
    }

    fn finish_txn(&mut self, slot: usize) {
        let class = &mut self.classes[self.slots[slot].class];
        if class.active_slots > class.t_limit {
            let s = &mut self.slots[slot];
            if s.stale_since(self.drain_since) {
                self.stale -= 1;
            }
            s.idle = true;
            class.active_slots -= 1;
            class.retired.push(slot);
        } else {
            self.start_txn(slot);
        }
    }

    // ------------------------------------------------------------------
    // Resource management
    // ------------------------------------------------------------------

    fn request_core(&mut self, slot: usize, kind: SegKind) {
        if self.busy_cores < self.machine.n_cores
            && self.core_queue.is_empty()
            && !self.pending_commit_ready()
        {
            self.begin_segment(slot, kind);
        } else {
            self.core_queue.push_back((slot, kind));
        }
    }

    fn pending_commit_ready(&self) -> bool {
        !self.commit_busy && !self.commit_queue.is_empty()
    }

    // `#[inline]` here and on `segment_duration`: every caller passes a
    // constant `kind`, so inlined, the duration `match` folds away. Left to
    // the compiler both stayed out of line, and the one-class event loop ran
    // a few percent slower.
    #[inline]
    fn begin_segment(&mut self, slot: usize, kind: SegKind) {
        self.busy_cores += 1;
        let d = self.segment_duration(slot, kind);
        self.events.schedule(self.now + d, slot, kind);
    }

    #[inline]
    fn segment_duration(&mut self, slot: usize, kind: SegKind) -> u64 {
        let d = &self.classes[self.slots[slot].class].durations;
        let rng = &mut self.rng;
        match kind {
            SegKind::Prelude => d.prelude.sample_ns(rng),
            SegKind::Child { .. } => d.child.sample_ns(rng) + d.nested_commit.sample_ns(rng),
            SegKind::Postlude => d.postlude.sample_ns(rng),
            SegKind::Commit => d.commit.sample_ns(rng),
            SegKind::Restart => {
                unreachable!("backoff events are scheduled directly, not via cores")
            }
        }
    }

    /// After a core frees (or the commit lock releases), hand cores out:
    /// the serialized commit section has priority, then the FIFO queue.
    fn dispatch(&mut self) {
        if self.pending_commit_ready() && self.busy_cores < self.machine.n_cores {
            let slot = self.commit_queue.pop_front().expect("checked non-empty");
            self.commit_busy = true;
            self.begin_segment(slot, SegKind::Commit);
        }
        while self.busy_cores < self.machine.n_cores {
            match self.core_queue.pop_front() {
                Some((slot, kind)) => self.begin_segment(slot, kind),
                None => break,
            }
        }
    }

    // ------------------------------------------------------------------
    // Event handling
    // ------------------------------------------------------------------

    /// Returns whether the event committed a top-level transaction.
    fn handle(&mut self, slot: usize, kind: SegKind) -> bool {
        if kind != SegKind::Restart {
            self.busy_cores -= 1;
        }
        let mut committed = false;
        match kind {
            SegKind::Prelude => self.on_prelude_done(slot),
            SegKind::Child { start_tree_seq } => self.on_child_done(slot, start_tree_seq),
            // dispatch() below starts the commit when possible.
            SegKind::Postlude => self.commit_queue.push_back(slot),
            SegKind::Commit => committed = self.on_commit_done(slot),
            SegKind::Restart => self.start_txn(slot),
        }
        self.dispatch();
        committed
    }

    fn on_prelude_done(&mut self, slot: usize) {
        let k = self.classes[self.slots[slot].class].workload.child_count;
        if k == 0 {
            self.request_core(slot, SegKind::Postlude);
            return;
        }
        let s = &mut self.slots[slot];
        s.remaining_children = k;
        s.queued_children = k;
        self.launch_children(slot);
    }

    fn launch_children(&mut self, slot: usize) {
        let c_limit = self.classes[self.slots[slot].class].c_limit;
        loop {
            let s = &mut self.slots[slot];
            if s.queued_children == 0 || s.running_children >= c_limit {
                break;
            }
            s.queued_children -= 1;
            s.running_children += 1;
            let tree_seq = s.tree_seq;
            self.request_core(slot, SegKind::Child { start_tree_seq: tree_seq });
        }
    }

    fn on_child_done(&mut self, slot: usize, start_tree_seq: u64) {
        let class = &mut self.classes[self.slots[slot].class];
        let sibling_commits = self.slots[slot].tree_seq - start_tree_seq;
        let survive = (1.0 - class.p_sibling).powi(sibling_commits as i32);
        if sibling_commits > 0 && !self.rng.chance(survive) {
            // Sibling conflict: the child retries with a fresh snapshot of
            // the tree clock. It keeps its tree slot.
            class.stats.nested_aborts += 1;
            let tree_seq = self.slots[slot].tree_seq;
            self.request_core(slot, SegKind::Child { start_tree_seq: tree_seq });
            return;
        }
        class.stats.nested_commits += 1;
        let s = &mut self.slots[slot];
        if class.workload.child_writes > 0 {
            s.tree_seq += 1;
        }
        s.remaining_children -= 1;
        s.running_children -= 1;
        if s.remaining_children == 0 {
            self.request_core(slot, SegKind::Postlude);
        } else {
            self.launch_children(slot);
        }
    }

    /// Returns whether the transaction committed.
    fn on_commit_done(&mut self, slot: usize) -> bool {
        self.commit_busy = false;
        let s = &mut self.slots[slot];
        let class = &mut self.classes[s.class];
        // Survival against every class's commits during the window.
        let survive: f64 = self
            .commit_seq
            .iter()
            .zip(&s.start_seq)
            .zip(&class.p_conflict)
            .filter(|((seq, start), _)| seq > start)
            .map(|((seq, start), p)| (1.0 - p).powi((seq - start).min(i32::MAX as u64) as i32))
            .product();
        if survive < 1.0 && !self.rng.chance(survive) {
            class.stats.aborts += 1;
            s.abort_streak = s.abort_streak.saturating_add(1);
            if class.workload.restart_backoff_ns > 0.0 {
                // Exponential backoff, doubling per consecutive abort (2⁷× cap).
                let factor = 1u64 << (s.abort_streak - 1).min(7) as u64;
                let mean = class.workload.restart_backoff_ns * factor as f64;
                let delay =
                    LogNormal::new(mean, class.workload.duration_cv).sample_ns(&mut self.rng);
                self.events.schedule(self.now + delay, slot, SegKind::Restart);
            } else {
                self.start_txn(slot);
            }
            return false;
        }
        if class.workload.tree_writes() > 0 {
            self.commit_seq[s.class] += 1;
        }
        s.abort_streak = 0;
        class.stats.commits += 1;
        self.finish_txn(slot);
        true
    }
}

impl std::fmt::Debug for Simulation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let workloads: Vec<&str> = self.classes.iter().map(|c| c.workload.name.as_str()).collect();
        f.debug_struct("Simulation")
            .field("workloads", &workloads)
            .field("now_ns", &self.now)
            .field("degrees", &self.degrees())
            .field("stats", &self.total_stats())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::SimWorkload;

    fn quick_wl() -> SimWorkload {
        SimWorkload::builder("quick")
            .top_work_us(20.0)
            .child_count(8)
            .child_work_us(50.0)
            .child_footprint(20, 4)
            .top_footprint(10, 2)
            .data_items(50_000)
            .build()
    }

    fn machine() -> MachineParams {
        MachineParams::new(48)
    }

    #[test]
    fn produces_commits() {
        let mut sim = Simulation::new(&quick_wl(), &machine(), (4, 4), 1);
        let stats = sim.run_for_virtual(Duration::from_millis(100));
        assert!(stats.commits > 10, "commits = {}", stats.commits);
        assert_eq!(stats.elapsed_ns, 100_000_000);
        // Each committed tree ran its 8 children (aborted roots re-ran
        // theirs, and in-flight trees add a few more).
        assert!(stats.nested_commits >= stats.commits * 8);
    }

    #[test]
    fn deterministic_for_same_seed() {
        let run = |seed| {
            let mut sim = Simulation::new(&quick_wl(), &machine(), (6, 4), seed);
            sim.run_for_virtual(Duration::from_millis(50))
        };
        assert_eq!(run(9), run(9));
        assert_ne!(run(9).commits, 0);
    }

    #[test]
    fn different_seeds_jitter() {
        let run = |seed| {
            let mut sim = Simulation::new(&quick_wl(), &machine(), (6, 4), seed);
            sim.run_for_virtual(Duration::from_millis(50)).commits
        };
        // Noise exists but is small.
        let (a, b) = (run(1), run(2));
        assert_ne!(a, b, "different seeds should differ slightly");
        let rel = (a as f64 - b as f64).abs() / a as f64;
        assert!(rel < 0.2, "noise too large: {a} vs {b}");
    }

    #[test]
    fn more_top_level_parallelism_helps_uncontended() {
        let wl = SimWorkload::builder("scales")
            .top_work_us(100.0)
            .top_footprint(10, 0) // read-only: no conflicts
            .build();
        let tp = |t| {
            let mut sim = Simulation::new(&wl, &machine(), (t, 1), 3);
            sim.run_for_virtual(Duration::from_millis(200)).throughput()
        };
        let (t1, t8, t32) = (tp(1), tp(8), tp(32));
        assert!(t8 > 5.0 * t1, "t=8 {t8} vs t=1 {t1}");
        assert!(t32 > 2.5 * t8, "t=32 {t32} vs t=8 {t8}");
    }

    #[test]
    fn nested_parallelism_shortens_trees() {
        let wl = SimWorkload::builder("nest")
            .top_work_us(20.0)
            .child_count(16)
            .child_work_us(200.0)
            .top_footprint(5, 1)
            .data_items(1_000_000)
            .build();
        let tp = |c| {
            let mut sim = Simulation::new(&wl, &machine(), (1, c), 3);
            sim.run_for_virtual(Duration::from_millis(400)).throughput()
        };
        let (c1, c8) = (tp(1), tp(8));
        assert!(c8 > 4.0 * c1, "c=8 {c8} vs c=1 {c1}");
    }

    #[test]
    fn contention_causes_aborts_at_high_t() {
        let wl = SimWorkload::builder("hot")
            .top_work_us(200.0)
            .top_footprint(50, 25)
            .data_items(200)
            .build();
        let mut sim = Simulation::new(&wl, &machine(), (32, 1), 5);
        let stats = sim.run_for_virtual(Duration::from_millis(300));
        assert!(stats.aborts > 0, "high contention must abort sometimes");
        assert!(stats.abort_rate() > 0.05, "abort rate {}", stats.abort_rate());
    }

    #[test]
    fn sibling_conflicts_occur_when_shared() {
        let wl = SimWorkload::builder("sib")
            .top_work_us(10.0)
            .child_count(8)
            .child_work_us(50.0)
            .child_footprint(10, 5)
            .tree_private_fraction(0.0)
            .data_items(1_000_000)
            .build();
        let mut sim = Simulation::new(&wl, &machine(), (2, 8), 7);
        let stats = sim.run_for_virtual(Duration::from_millis(300));
        assert!(stats.nested_aborts > 0, "expected sibling conflicts");
    }

    #[test]
    fn reconfigure_mid_run_changes_throughput() {
        let wl = SimWorkload::builder("reconf").top_work_us(100.0).top_footprint(5, 0).build();
        let mut sim = Simulation::new(&wl, &machine(), (1, 1), 11);
        let slow = sim.run_for_virtual(Duration::from_millis(100)).throughput();
        sim.set_degree(24, 1);
        let _warm = sim.run_for_virtual(Duration::from_millis(20));
        let fast = sim.run_for_virtual(Duration::from_millis(100)).throughput();
        assert!(fast > 10.0 * slow, "fast {fast} vs slow {slow}");
        assert_eq!(sim.degree(), (24, 1));
    }

    #[test]
    fn run_until_next_commit_returns_timestamp() {
        let mut sim = Simulation::new(&quick_wl(), &machine(), (4, 4), 17);
        let ts = sim.run_until_next_commit(Duration::from_secs(1));
        assert!(ts.is_some());
        assert_eq!(ts.unwrap(), sim.now_ns());
        // Successive commits never go backwards.
        let mut last = ts.unwrap();
        for _ in 0..50 {
            let next = sim.run_until_next_commit(Duration::from_secs(1)).expect("a commit");
            assert!(next >= last, "commit at {next} after one at {last}");
            last = next;
        }
        // A tiny timeout with a slow config should time out.
        let slow_wl = SimWorkload::builder("slow").top_work_us(5_000.0).build();
        let mut slow = Simulation::new(&slow_wl, &machine(), (1, 1), 17);
        assert!(slow.run_until_next_commit(Duration::from_micros(10)).is_none());
    }

    #[test]
    fn oversubscribed_config_still_progresses() {
        // t*c > n is outside the paper's search space but must not wedge.
        let mut sim = Simulation::new(&quick_wl(), &machine(), (48, 8), 19);
        let stats = sim.run_for_virtual(Duration::from_millis(50));
        assert!(stats.commits > 0);
    }

    #[test]
    fn restart_backoff_damps_contended_throughput() {
        // Retry storms with exponential backoff idle aborting slots, cutting
        // throughput at wide t under moderate contention (compared to the
        // idealized instant-restart model).
        let base = |backoff: f64| {
            SimWorkload::builder("contended")
                .top_work_us(300.0)
                .top_footprint(40, 10)
                .data_items(2_000)
                .restart_backoff_us(backoff)
                .build()
        };
        let tp = |wl: &SimWorkload| {
            let mut sim = Simulation::new(wl, &machine(), (32, 1), 31);
            sim.run_for_virtual(Duration::from_millis(400)).throughput()
        };
        let without = tp(&base(0.0));
        let with = tp(&base(2_000.0));
        assert!(
            with < 0.85 * without,
            "backoff should damp contended throughput: {with:.0} vs {without:.0}"
        );
    }

    #[test]
    fn restart_backoff_neutral_when_uncontended() {
        let base = |backoff: f64| {
            SimWorkload::builder("clean")
                .top_work_us(300.0)
                .top_footprint(10, 0)
                .restart_backoff_us(backoff)
                .build()
        };
        let tp = |wl: &SimWorkload| {
            let mut sim = Simulation::new(wl, &machine(), (16, 1), 31);
            sim.run_for_virtual(Duration::from_millis(300)).throughput()
        };
        let (a, b) = (tp(&base(0.0)), tp(&base(2_000.0)));
        assert!((a - b).abs() / a < 0.02, "no aborts, no backoff effect: {a:.0} vs {b:.0}");
    }

    #[test]
    fn shrink_t_drains_slots() {
        let wl = quick_wl();
        let mut sim = Simulation::new(&wl, &machine(), (16, 2), 23);
        sim.run_for_virtual(Duration::from_millis(20));
        sim.set_degree(2, 2);
        sim.run_for_virtual(Duration::from_millis(50));
        assert_eq!(sim.classes[0].active_slots, 2);
    }

    fn short_class() -> SimWorkload {
        SimWorkload::builder("short")
            .top_work_us(50.0)
            .top_footprint(8, 2)
            .data_items(20_000)
            .build()
    }

    fn nested_class() -> SimWorkload {
        SimWorkload::builder("nested")
            .top_work_us(20.0)
            .child_count(8)
            .child_work_us(200.0)
            .child_footprint(16, 4)
            .data_items(20_000)
            .build()
    }

    #[test]
    fn two_classes_both_commit() {
        let specs = vec![
            ClassSpec { workload: short_class(), degree: (4, 1) },
            ClassSpec { workload: nested_class(), degree: (2, 4) },
        ];
        let mut sim = Simulation::with_classes(&specs, &MachineParams::new(24), 1, 1.0);
        sim.run_for_virtual(Duration::from_millis(100));
        let per_class = sim.class_stats();
        assert_eq!(per_class.len(), 2);
        assert!(per_class[0].commits > 0, "class 0 committed nothing");
        assert!(per_class[1].commits > 0, "class 1 committed nothing");
        // The short flat class commits much faster than the long nested one.
        assert!(per_class[0].commits > per_class[1].commits);
        let total = sim.total_stats();
        assert_eq!(total.commits, per_class[0].commits + per_class[1].commits);
    }

    #[test]
    fn set_degrees_reshapes_throughput() {
        let specs = vec![
            ClassSpec { workload: short_class(), degree: (1, 1) },
            ClassSpec { workload: nested_class(), degree: (1, 1) },
        ];
        let mut sim = Simulation::with_classes(&specs, &MachineParams::new(24), 3, 1.0);
        sim.run_for_virtual(Duration::from_millis(50));
        let before = sim.run_for_virtual(Duration::from_millis(200));
        sim.set_degrees(&[(8, 1), (2, 8)]);
        assert_eq!(sim.degrees(), vec![(8, 1), (2, 8)]);
        sim.run_for_virtual(Duration::from_millis(50));
        let after = sim.run_for_virtual(Duration::from_millis(200));
        assert!(
            after.commits > 2 * before.commits,
            "wider degrees must raise throughput: {} -> {}",
            before.commits,
            after.commits
        );
    }

    #[test]
    fn cross_class_conflicts_hurt_readers() {
        // A read-heavy class suffers when a write-heavy class shares data.
        let reader = SimWorkload::builder("reader")
            .top_work_us(100.0)
            .top_footprint(200, 1)
            .data_items(5_000)
            .build();
        let writer_quiet = SimWorkload::builder("wq")
            .top_work_us(100.0)
            .top_footprint(4, 0)
            .data_items(5_000)
            .build();
        let writer_loud = SimWorkload::builder("wl")
            .top_work_us(100.0)
            .top_footprint(4, 200)
            .data_items(5_000)
            .build();
        let tp_of_reader = |writer: SimWorkload| {
            let specs = vec![
                ClassSpec { workload: reader.clone(), degree: (4, 1) },
                ClassSpec { workload: writer, degree: (4, 1) },
            ];
            let mut sim = Simulation::with_classes(&specs, &MachineParams::new(24), 9, 1.0);
            sim.run_for_virtual(Duration::from_millis(300));
            sim.class_stats()[0].commits
        };
        let quiet = tp_of_reader(writer_quiet);
        let loud = tp_of_reader(writer_loud);
        assert!(
            loud < quiet / 2,
            "heavy cross-class writes must abort the reader: {quiet} vs {loud}"
        );
    }

    #[test]
    #[should_panic(expected = "share the data set")]
    fn mismatched_data_sets_rejected() {
        let a = SimWorkload::builder("a").data_items(100).build();
        let b = SimWorkload::builder("b").data_items(200).build();
        let _ = Simulation::with_classes(
            &[ClassSpec { workload: a, degree: (1, 1) }, ClassSpec { workload: b, degree: (1, 1) }],
            &machine(),
            1,
            1.0,
        );
    }

    #[test]
    #[should_panic(expected = "multi-class simulation")]
    fn single_class_methods_reject_several_classes() {
        let specs = vec![
            ClassSpec { workload: short_class(), degree: (1, 1) },
            ClassSpec { workload: nested_class(), degree: (1, 1) },
        ];
        let _ = Simulation::with_classes(&specs, &machine(), 1, 1.0).degree();
    }
}
