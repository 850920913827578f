//! Golden trajectories of the simulated machine.
//!
//! The engine is deterministic given a seed, so these tests pin its exact
//! output: `RunStats` over a live `(t, c)` schedule, successive
//! `run_until_next_commit` timestamps, `quiesce` durations, a mid-run
//! workload switch, and the per-class counters of a two-class run. Any change
//! to the event order, the RNG draws or the conflict model moves them. A
//! change that means to alter the model re-records them and bumps
//! `SIM_MODEL_VERSION` in `workloads`, so cached surfaces are rebuilt.

use std::time::Duration;

use simtm::{ClassSpec, MachineParams, RunStats, SimWorkload, Simulation};

/// `[commits, aborts, nested_commits, nested_aborts, elapsed_ns]`.
type Row = [u64; 5];

fn row(s: RunStats) -> Row {
    [s.commits, s.aborts, s.nested_commits, s.nested_aborts, s.elapsed_ns]
}

/// Nested trees whose children share a quarter of their footprint:
/// sibling conflicts and top-level conflicts both happen.
fn nested() -> SimWorkload {
    SimWorkload::builder("golden-nested")
        .top_work_us(20.0)
        .child_count(8)
        .child_work_us(40.0)
        .top_footprint(10, 2)
        .child_footprint(16, 4)
        .tree_private_fraction(0.75)
        .data_items(20_000)
        .build()
}

/// Flat transactions on a small hot set, with exponential restart backoff.
fn hot() -> SimWorkload {
    SimWorkload::builder("golden-hot")
        .top_work_us(80.0)
        .top_footprint(30, 6)
        .hot_set(0.4, 200)
        .restart_backoff_us(15.0)
        .data_items(20_000)
        .build()
}

/// Read-only nested trees: never abort, never advance the commit clock.
fn read_only() -> SimWorkload {
    SimWorkload::builder("golden-read-only")
        .top_work_us(50.0)
        .child_count(4)
        .child_work_us(30.0)
        .top_footprint(12, 0)
        .data_items(20_000)
        .build()
}

const SCHEDULE: [(usize, usize); 7] = [(1, 1), (4, 2), (8, 4), (2, 8), (16, 1), (3, 3), (6, 6)];

fn schedule_rows(wl: &SimWorkload, seed: u64) -> Vec<Row> {
    let mut sim = Simulation::new(wl, &MachineParams::new(48), SCHEDULE[0], seed);
    let mut rows = Vec::new();
    for &(t, c) in &SCHEDULE {
        sim.set_degree(t, c);
        rows.push(row(sim.run_for_virtual(Duration::from_millis(10))));
    }
    rows.push(row(sim.total_stats()));
    rows
}

#[test]
fn degree_schedule_nested() {
    const EXPECTED: [Row; 8] = [
        [27, 0, 220, 0, 10_000_000],
        [125, 64, 1524, 37, 10_000_000],
        [273, 308, 4655, 267, 10_000_000],
        [164, 35, 1583, 130, 10_000_000],
        [152, 284, 3539, 0, 10_000_000],
        [140, 63, 1569, 58, 10_000_000],
        [251, 211, 3697, 290, 10_000_000],
        [1132, 965, 16_787, 782, 70_000_000],
    ];
    assert_eq!(schedule_rows(&nested(), 7), EXPECTED);
}

#[test]
fn degree_schedule_hot_with_backoff() {
    const EXPECTED: [Row; 8] = [
        [122, 0, 0, 0, 10_000_000],
        [349, 110, 0, 0, 10_000_000],
        [488, 322, 0, 0, 10_000_000],
        [209, 35, 0, 0, 10_000_000],
        [652, 695, 0, 0, 10_000_000],
        [283, 56, 0, 0, 10_000_000],
        [429, 226, 0, 0, 10_000_000],
        [2532, 1444, 0, 0, 70_000_000],
    ];
    assert_eq!(schedule_rows(&hot(), 42), EXPECTED);
}

#[test]
fn degree_schedule_read_only() {
    const EXPECTED: [Row; 8] = [
        [55, 0, 221, 0, 10_000_000],
        [326, 0, 1305, 0, 10_000_000],
        [860, 0, 3447, 0, 10_000_000],
        [220, 0, 875, 0, 10_000_000],
        [877, 0, 3523, 0, 10_000_000],
        [264, 0, 1041, 0, 10_000_000],
        [646, 0, 2596, 0, 10_000_000],
        [3248, 0, 13_008, 0, 70_000_000],
    ];
    assert_eq!(schedule_rows(&read_only(), 901), EXPECTED);
}

#[test]
fn commit_stream_quiesce_and_workload_switch() {
    let mut sim = Simulation::new(&hot(), &MachineParams::new(48), (6, 2), 1);
    let mut stamps = Vec::new();
    for _ in 0..6 {
        stamps.push(sim.run_until_next_commit(Duration::from_millis(5)));
    }
    sim.set_degree(2, 8);
    let q1 = sim.quiesce(Duration::from_millis(5));
    for _ in 0..4 {
        stamps.push(sim.run_until_next_commit(Duration::from_millis(5)));
    }
    sim.set_workload(&nested());
    let q2 = sim.quiesce(Duration::from_secs(2));
    assert_eq!(sim.workload_name(), "golden-nested");
    for _ in 0..6 {
        stamps.push(sim.run_until_next_commit(Duration::from_millis(5)));
    }
    let after = row(sim.run_for_virtual(Duration::from_millis(8)));
    // A timeout far below one transaction's length returns nothing.
    stamps.push(sim.run_until_next_commit(Duration::from_nanos(50)));

    const STAMPS: [Option<u64>; 17] = [
        Some(74_683),
        Some(77_225),
        Some(81_060),
        Some(83_003),
        Some(163_918),
        Some(165_912),
        Some(249_497),
        Some(258_455),
        Some(335_164),
        Some(337_085),
        Some(435_612),
        Some(515_287),
        Some(640_587),
        Some(719_101),
        Some(768_631),
        Some(802_396),
        None,
    ];
    const QUIESCE_NS: [u128; 2] = [72_841, 95_290];
    const AFTER: Row = [135, 22, 1256, 92, 8_000_000];
    const TOTAL: Row = [156, 27, 1328, 96, 8_802_446];
    assert_eq!(stamps, STAMPS);
    assert_eq!([q1.as_nanos(), q2.as_nanos()], QUIESCE_NS);
    assert_eq!(after, AFTER);
    assert_eq!(row(sim.total_stats()), TOTAL);
}

/// `quiesce` edge cases: a cap that expires before the drain, a second call
/// straight after a finished one (with several slots and with one), a drain
/// after a two-class shrink, and a drain while slots sit in restart backoff
/// (their attempts began before the call, so they are stale until their
/// `Restart` event fires).
#[test]
fn quiesce_edges() {
    let machine = MachineParams::new(48);
    let mut q = Vec::new();
    let mut rows = Vec::new();

    // A cap shorter than one transaction of the nested trees.
    let mut sim = Simulation::new(&nested(), &machine, (4, 2), 3);
    sim.run_for_virtual(Duration::from_millis(2));
    sim.set_degree(8, 4);
    q.push(sim.quiesce(Duration::from_micros(30)).as_nanos());
    // The drain it cut short. A second call waits again: the other slots
    // began their transactions before it.
    q.push(sim.quiesce(Duration::from_secs(1)).as_nanos());
    q.push(sim.quiesce(Duration::from_secs(1)).as_nanos());
    rows.push(row(sim.run_for_virtual(Duration::from_millis(3))));

    // With one slot, the transaction a finished drain ends on began at the
    // current instant, so a second call returns at once.
    let mut sim = Simulation::new(&nested(), &machine, (1, 4), 5);
    sim.run_for_virtual(Duration::from_millis(1));
    sim.set_degree(1, 8);
    q.push(sim.quiesce(Duration::from_secs(1)).as_nanos());
    q.push(sim.quiesce(Duration::from_secs(1)).as_nanos());
    rows.push(row(sim.total_stats()));

    // Two classes, both shrunk: retiring slots drain without restarting.
    let specs = [
        ClassSpec { workload: hot(), degree: (8, 1) },
        ClassSpec { workload: nested(), degree: (3, 4) },
    ];
    let mut sim = Simulation::with_classes(&specs, &machine, 11, 0.5);
    sim.run_for_virtual(Duration::from_millis(4));
    sim.set_degrees(&[(2, 1), (1, 2)]);
    q.push(sim.quiesce(Duration::from_secs(1)).as_nanos());
    rows.extend(sim.class_stats().into_iter().map(row));

    // The hot set at t = 24 aborts about a hundred times per millisecond:
    // half the slots are backing off when the drain begins.
    let mut sim = Simulation::new(&hot(), &machine, (24, 1), 17);
    sim.run_for_virtual(Duration::from_millis(5));
    q.push(sim.quiesce(Duration::from_secs(1)).as_nanos());
    rows.push(row(sim.total_stats()));

    const QUIESCE_NS: [u128; 7] = [30_000, 118_631, 105_431, 4_155, 0, 206_776, 606_926];
    const ROWS: [Row; 5] = [
        [85, 92, 1431, 64, 3_000_000],
        [7, 0, 56, 4, 1_004_155],
        [190, 142, 0, 0, 4_206_776],
        [59, 33, 736, 33, 4_206_776],
        [403, 597, 0, 0, 5_606_926],
    ];
    assert_eq!(q, QUIESCE_NS);
    assert_eq!(rows, ROWS);
}

#[test]
fn two_classes_with_cross_scale() {
    let specs = [
        ClassSpec { workload: hot(), degree: (4, 1) },
        ClassSpec { workload: nested(), degree: (2, 4) },
    ];
    let mut sim = Simulation::with_classes(&specs, &MachineParams::new(48), 5, 0.05);
    let mut rows: Vec<Row> = Vec::new();
    sim.run_for_virtual(Duration::from_millis(10));
    rows.extend(sim.class_stats().into_iter().map(row));
    sim.set_degrees(&[(8, 1), (1, 8)]);
    assert_eq!(sim.degrees(), vec![(8, 1), (1, 8)]);
    rows.push(row(sim.run_for_virtual(Duration::from_millis(10))));
    rows.extend(sim.class_stats().into_iter().map(row));
    rows.push(row(sim.total_stats()));

    const EXPECTED: [Row; 6] = [
        [344, 112, 0, 0, 10_000_000],
        [118, 26, 1164, 68, 10_000_000],
        [601, 316, 780, 56, 10_000_000],
        [848, 426, 0, 0, 20_000_000],
        [215, 28, 1944, 124, 20_000_000],
        [1063, 454, 1944, 124, 20_000_000],
    ];
    assert_eq!(rows, EXPECTED);
}
