//! Workload and machine descriptors.
//!
//! A [`SimWorkload`] captures everything the simulator needs to know about a
//! PN-TM application: the shape of its transaction trees (sequential work,
//! child count and granularity), its data footprint (reads/writes over an
//! abstract item set, optionally skewed toward a hot set), and the TM
//! overheads (spawn, nested commit, global commit).

use serde::impl_serde;

/// The simulated machine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MachineParams {
    /// Number of cores (the paper's testbed has 48).
    pub n_cores: usize,
}

impl MachineParams {
    pub fn new(n_cores: usize) -> Self {
        Self { n_cores: n_cores.max(1) }
    }

    /// The paper's 4× AMD Opteron 6168 testbed.
    pub fn paper_testbed() -> Self {
        Self::new(48)
    }
}

/// Descriptor of one PN-TM workload.
///
/// All durations are mean values in nanoseconds; actual samples are
/// log-normal with coefficient of variation [`SimWorkload::duration_cv`].
#[derive(Debug, Clone, PartialEq)]
pub struct SimWorkload {
    /// Human-readable name (e.g. `"tpcc-med"`).
    pub name: String,
    /// Mean sequential work of a top-level transaction outside its children
    /// (prelude + postlude), ns.
    pub top_work_ns: f64,
    /// Number of child transactions each top-level transaction forks.
    /// The workload decomposes its work into this many tasks; the
    /// configuration's `c` only bounds how many run concurrently.
    pub child_count: usize,
    /// Mean work per child transaction, ns.
    pub child_work_ns: f64,
    /// Sequential overhead paid by the parent per forked child, ns.
    pub spawn_overhead_ns: f64,
    /// Overhead of a nested commit (validation against siblings), ns.
    pub nested_commit_ns: f64,
    /// Duration of the serialized global commit section, ns.
    pub commit_ns: f64,
    /// Size of the abstract shared data set (number of items).
    pub data_items: u64,
    /// Items read by the top-level part of a transaction.
    pub top_reads: u64,
    /// Items written by the top-level part of a transaction.
    pub top_writes: u64,
    /// Items read by each child.
    pub child_reads: u64,
    /// Items written by each child.
    pub child_writes: u64,
    /// Fraction of accesses that target the hot set (0 disables skew).
    pub hot_access_fraction: f64,
    /// Size of the hot set in items (ignored when `hot_access_fraction` is 0).
    pub hot_items: u64,
    /// Fraction of a tree's child accesses that fall in a tree-private
    /// partition (no sibling conflicts); the rest contend with siblings.
    pub tree_private_fraction: f64,
    /// Coefficient of variation of all sampled durations (measurement noise).
    pub duration_cv: f64,
    /// Base restart backoff after a top-level abort, ns (0 disables).
    /// Real STM runtimes back off exponentially under contention; a
    /// non-zero base idles aborting threads, lowering the effective
    /// parallelism of badly contended configurations (retry storms waste
    /// both work and waiting time). Doubles per consecutive abort, capped
    /// at 2⁷×.
    pub restart_backoff_ns: f64,
}

impl_serde!(MachineParams { n_cores });

impl_serde!(SimWorkload {
    name,
    top_work_ns,
    child_count,
    child_work_ns,
    spawn_overhead_ns,
    nested_commit_ns,
    commit_ns,
    data_items,
    top_reads,
    top_writes,
    child_reads,
    child_writes,
    hot_access_fraction,
    hot_items,
    tree_private_fraction,
    duration_cv,
} defaults {
    // Added after the first calibrated descriptors were cached; old caches
    // deserialize with no backoff, matching their original semantics.
    restart_backoff_ns,
});

impl SimWorkload {
    /// Start building a workload with conservative defaults.
    pub fn builder(name: &str) -> SimWorkloadBuilder {
        SimWorkloadBuilder::new(name)
    }

    /// Total items read by one whole transaction tree (validated at the
    /// root commit).
    pub fn tree_reads(&self) -> u64 {
        self.top_reads + self.child_count as u64 * self.child_reads
    }

    /// Total items written by one whole transaction tree.
    pub fn tree_writes(&self) -> u64 {
        self.top_writes + self.child_count as u64 * self.child_writes
    }

    /// Probability that one committed tree of `writer`'s class invalidates
    /// this class's reads (birthday approximation over the shared item set,
    /// split into hot and cold regions by the reader's skew parameters).
    /// `wl.conflict_prob_vs(&wl)` is the one-class probability.
    pub fn conflict_prob_vs(&self, writer: &SimWorkload) -> f64 {
        // Multi-version STMs (JVSTM, pnstm) never abort *read-only*
        // transactions: they read a consistent snapshot regardless of
        // concurrent writers.
        if self.tree_writes() == 0 {
            return 0.0;
        }
        let reads = self.tree_reads() as f64;
        let writes = writer.tree_writes() as f64;
        if reads == 0.0 || writes == 0.0 {
            return 0.0;
        }
        let l = self.data_items.max(1) as f64;
        let h = self.hot_access_fraction.clamp(0.0, 1.0);
        if h > 0.0 && self.hot_items > 0 && self.hot_items < self.data_items {
            let lh = self.hot_items as f64;
            let lc = l - lh;
            let (r_hot, r_cold) = (reads * h, reads * (1.0 - h));
            let wh = writer.hot_access_fraction.clamp(0.0, 1.0);
            let (w_hot, w_cold) = if wh > 0.0 {
                (writes * wh, writes * (1.0 - wh))
            } else {
                // Unskewed writer: writes spread uniformly.
                (writes * lh / l, writes * lc / l)
            };
            let survive_hot = (1.0 - (w_hot / lh).min(1.0)).powf(r_hot);
            let survive_cold = (1.0 - (w_cold / lc).min(1.0)).powf(r_cold);
            1.0 - survive_hot * survive_cold
        } else {
            1.0 - (1.0 - (writes / l).min(1.0)).powf(reads)
        }
    }

    /// Probability that one sibling's nested commit invalidates a child's
    /// reads (over the tree-shared part of the footprint).
    pub fn sibling_conflict_prob_per_commit(&self) -> f64 {
        let shared = (1.0 - self.tree_private_fraction.clamp(0.0, 1.0)).max(0.0);
        let reads = self.child_reads as f64 * shared;
        let writes = self.child_writes as f64 * shared;
        if reads == 0.0 || writes == 0.0 {
            return 0.0;
        }
        // Sibling accesses range over the tree's own footprint, which is far
        // smaller than the global set: use the tree's combined footprint as
        // the effective universe.
        let universe = (self.tree_reads() + self.tree_writes()).max(1) as f64;
        1.0 - (1.0 - (writes / universe).min(1.0)).powf(reads)
    }

    /// Validate invariants; called by the builder.
    fn check(&self) {
        assert!(self.top_work_ns >= 0.0, "negative top work");
        assert!(self.child_work_ns >= 0.0, "negative child work");
        assert!(self.data_items > 0, "empty data set");
        assert!(self.hot_items <= self.data_items, "hot set larger than the data set");
        assert!((0.0..=1.0).contains(&self.hot_access_fraction));
        assert!((0.0..=1.0).contains(&self.tree_private_fraction));
        assert!(self.duration_cv >= 0.0);
    }
}

/// Builder for [`SimWorkload`]; all setters take human-friendly units.
#[derive(Debug, Clone)]
pub struct SimWorkloadBuilder {
    wl: SimWorkload,
}

impl SimWorkloadBuilder {
    fn new(name: &str) -> Self {
        Self {
            wl: SimWorkload {
                name: name.to_string(),
                top_work_ns: 20_000.0,
                child_count: 0,
                child_work_ns: 0.0,
                spawn_overhead_ns: 1_500.0,
                nested_commit_ns: 800.0,
                commit_ns: 2_000.0,
                data_items: 100_000,
                top_reads: 20,
                top_writes: 4,
                child_reads: 0,
                child_writes: 0,
                hot_access_fraction: 0.0,
                hot_items: 0,
                tree_private_fraction: 1.0,
                duration_cv: 0.08,
                restart_backoff_ns: 0.0,
            },
        }
    }

    pub fn top_work_us(mut self, us: f64) -> Self {
        self.wl.top_work_ns = us * 1_000.0;
        self
    }
    pub fn child_count(mut self, k: usize) -> Self {
        self.wl.child_count = k;
        self
    }
    pub fn child_work_us(mut self, us: f64) -> Self {
        self.wl.child_work_ns = us * 1_000.0;
        self
    }
    pub fn spawn_overhead_us(mut self, us: f64) -> Self {
        self.wl.spawn_overhead_ns = us * 1_000.0;
        self
    }
    pub fn nested_commit_us(mut self, us: f64) -> Self {
        self.wl.nested_commit_ns = us * 1_000.0;
        self
    }
    pub fn commit_us(mut self, us: f64) -> Self {
        self.wl.commit_ns = us * 1_000.0;
        self
    }
    pub fn data_items(mut self, n: u64) -> Self {
        self.wl.data_items = n;
        self
    }
    pub fn top_footprint(mut self, reads: u64, writes: u64) -> Self {
        self.wl.top_reads = reads;
        self.wl.top_writes = writes;
        self
    }
    pub fn child_footprint(mut self, reads: u64, writes: u64) -> Self {
        self.wl.child_reads = reads;
        self.wl.child_writes = writes;
        self
    }
    pub fn hot_set(mut self, fraction_of_accesses: f64, items: u64) -> Self {
        self.wl.hot_access_fraction = fraction_of_accesses;
        self.wl.hot_items = items;
        self
    }
    pub fn tree_private_fraction(mut self, f: f64) -> Self {
        self.wl.tree_private_fraction = f;
        self
    }
    pub fn duration_cv(mut self, cv: f64) -> Self {
        self.wl.duration_cv = cv;
        self
    }
    pub fn restart_backoff_us(mut self, us: f64) -> Self {
        self.wl.restart_backoff_ns = us * 1_000.0;
        self
    }

    pub fn build(self) -> SimWorkload {
        self.wl.check();
        self.wl
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p_conflict(wl: &SimWorkload) -> f64 {
        wl.conflict_prob_vs(wl)
    }

    #[test]
    fn builder_defaults_are_valid() {
        let wl = SimWorkload::builder("x").build();
        assert_eq!(wl.name, "x");
        assert_eq!(wl.child_count, 0);
        assert!(p_conflict(&wl) > 0.0);
    }

    #[test]
    fn tree_footprints_sum_children() {
        let wl = SimWorkload::builder("x")
            .child_count(4)
            .child_footprint(10, 2)
            .top_footprint(5, 1)
            .build();
        assert_eq!(wl.tree_reads(), 45);
        assert_eq!(wl.tree_writes(), 9);
    }

    #[test]
    fn conflict_prob_increases_with_footprint() {
        let small = SimWorkload::builder("s").top_footprint(5, 1).data_items(10_000).build();
        let large = SimWorkload::builder("l").top_footprint(500, 100).data_items(10_000).build();
        assert!(p_conflict(&large) > p_conflict(&small));
    }

    #[test]
    fn conflict_prob_zero_without_writes() {
        let ro = SimWorkload::builder("ro").top_footprint(100, 0).build();
        assert_eq!(p_conflict(&ro), 0.0);
    }

    #[test]
    fn hot_set_raises_conflicts() {
        let flat = SimWorkload::builder("f").top_footprint(50, 10).data_items(100_000).build();
        let hot = SimWorkload::builder("h")
            .top_footprint(50, 10)
            .data_items(100_000)
            .hot_set(0.8, 100)
            .build();
        assert!(p_conflict(&hot) > p_conflict(&flat));
    }

    #[test]
    fn sibling_prob_zero_when_private() {
        let wl = SimWorkload::builder("p")
            .child_count(8)
            .child_footprint(20, 5)
            .tree_private_fraction(1.0)
            .build();
        assert_eq!(wl.sibling_conflict_prob_per_commit(), 0.0);
    }

    #[test]
    fn sibling_prob_positive_when_shared() {
        let wl = SimWorkload::builder("s")
            .child_count(8)
            .child_footprint(20, 5)
            .tree_private_fraction(0.5)
            .build();
        let p = wl.sibling_conflict_prob_per_commit();
        assert!(p > 0.0 && p < 1.0, "p = {p}");
    }

    #[test]
    #[should_panic(expected = "hot set larger")]
    fn invalid_hot_set_rejected() {
        let _ = SimWorkload::builder("bad").data_items(10).hot_set(0.5, 100).build();
    }

    #[test]
    fn serde_round_trip() {
        let wl = SimWorkload::builder("rt").child_count(3).build();
        let json = serde_json::to_string(&wl).unwrap();
        let back: SimWorkload = serde_json::from_str(&json).unwrap();
        assert_eq!(wl, back);
    }
}
