//! Extension (§VIII) — heterogeneous transaction types with per-type
//! `(t_k, c_k)` degrees.
//!
//! The paper leaves two open items: (i) extending AutoPN to a per-type
//! search space, and (ii) whether its efficiency survives the larger space.
//! This experiment answers both on a two-class workload (a short flat OLTP
//! class and a long nested analytics class sharing one data set):
//!
//! * baseline — the best *uniform* policy, found exhaustively: one `(t, c)`
//!   shape applied to both classes (top-level slots split between classes
//!   proportionally to offered load);
//! * extension — per-type degrees tuned online by coordinate-descent AutoPN
//!   ([`autopn::multi::MultiAutoPn`]), with exploration counts reported
//!   against the per-type space size.
//!
//! Usage: `cargo run --release -p bench --bin ext_heterogeneous -- [--full]`

use std::time::Duration;

use autopn::{MultiAutoPn, MultiAutoPnConfig, MultiConfig};
use bench::{banner, mean, Args, Profile};
use simtm::{ClassSpec, MachineParams, SimWorkload, Simulation};

fn oltp_class() -> SimWorkload {
    SimWorkload::builder("oltp").top_work_us(60.0).top_footprint(10, 3).data_items(30_000).build()
}

fn analytics_class() -> SimWorkload {
    // Bulk-update scans: long nested transactions whose write sets overlap
    // heavily with each other (any two concurrent scans conflict), so their
    // optimum is minimal t with wide intra-tree parallelism — the opposite
    // shape from the OLTP class. Their footprint barely grazes the OLTP
    SimWorkload::builder("analytics")
        .top_work_us(30.0)
        .child_count(8)
        .child_work_us(500.0)
        .top_footprint(0, 0)
        .child_footprint(512, 460)
        .data_items(30_000)
        .build()
}

/// Measure an assignment's KPI on a fresh simulation. The KPI is the
/// *geometric mean* of the per-class throughputs: heterogeneous deployments
/// care about both classes making progress (a plain sum would just starve
/// the slow class — the degenerate optimum a real operator would reject).
fn measure(mc: &MultiConfig, machine: &MachineParams, seed: u64, window: Duration) -> f64 {
    let specs = vec![
        ClassSpec { workload: oltp_class(), degree: mc.per_type[0].as_tuple() },
        ClassSpec { workload: analytics_class(), degree: mc.per_type[1].as_tuple() },
    ];
    // The two classes live in mostly disjoint tables: only 5% of their
    // footprints overlap (otherwise the OLTP commit fire-hose would
    // invalidate every long scan regardless of configuration — a real
    // optimistic-STM pathology, but an untunable scenario).
    let mut sim = Simulation::with_classes(&specs, machine, seed, 0.05);
    sim.run_for_virtual(window / 5); // warmup
    let before = sim.class_stats();
    sim.run_for_virtual(window);
    let after = sim.class_stats();
    let per_class: Vec<f64> =
        before.iter().zip(&after).map(|(b, a)| a.delta_since(b).throughput()).collect();
    per_class.iter().map(|tp| tp.max(1e-3)).product::<f64>().powf(1.0 / per_class.len() as f64)
}

fn main() {
    let args = Args::from_env();
    let profile = Profile::from_args(&args);
    let machine = MachineParams::paper_testbed();
    let window = match profile {
        Profile::Quick => Duration::from_millis(150),
        Profile::Full => Duration::from_millis(400),
    };
    let reps = match profile {
        Profile::Quick => 2,
        Profile::Full => 4,
    };

    banner("§VIII extension — per-type (t_k, c_k) tuning vs the best uniform policy");

    // Baseline: exhaustive sweep of uniform shapes. A uniform policy uses
    // one (t, c); the t slots are split evenly between the two classes.
    let mut best_uniform = (MultiConfig::sequential(2), f64::NEG_INFINITY);
    let n = machine.n_cores;
    for t in (2..=n).step_by(2) {
        for c in 1..=(n / t) {
            let mc = MultiConfig {
                per_type: vec![autopn::Config::new(t / 2, c), autopn::Config::new(t - t / 2, c)],
            };
            if !mc.fits(n) {
                continue;
            }
            let tp = mean(
                &(0..reps)
                    .map(|r| measure(&mc, &machine, 700 + r as u64, window))
                    .collect::<Vec<_>>(),
            );
            if tp > best_uniform.1 {
                best_uniform = (mc, tp);
            }
        }
    }
    println!(
        "\nbest uniform policy       : {} at {:.0} geo-mean txn/s (exhaustive over uniform shapes)",
        best_uniform.0, best_uniform.1
    );

    // Extension: per-type tuning under explicit core caps, with the split
    // between the two types swept as an outer (1-D) search.
    let splits: &[usize] = &[8, 16, 24, 32, 40];
    let mut gains = Vec::new();
    let mut expl_counts = Vec::new();
    for rep in 0..reps {
        let mut best: Option<(MultiConfig, f64)> = None;
        let mut explored = 0usize;
        for &oltp_cores in splits {
            let caps = vec![oltp_cores, n - oltp_cores];
            let mut tuner = MultiAutoPn::with_caps(n, caps, MultiAutoPnConfig::default());
            while let Some(mc) = tuner.propose() {
                let tp = measure(&mc, &machine, 900 + rep as u64, window);
                tuner.observe(mc, tp);
            }
            explored += tuner.explored();
            if let Some((mc, tp)) = tuner.best() {
                if best.as_ref().map(|(_, b)| tp > *b).unwrap_or(true) {
                    best = Some((mc, tp));
                }
            }
        }
        let (best_mc, tp) = best.expect("tuned");
        println!(
            "per-type tuned (rep {rep}) : {} at {:.0} geo-mean txn/s after {} explorations over {} splits",
            best_mc,
            tp,
            explored,
            splits.len()
        );
        gains.push(tp / best_uniform.1);
        expl_counts.push(explored as f64);
    }

    println!("\nheadline answers to the paper's open questions:");
    println!(
        "  per-type tuning vs best uniform : {:.2}x balanced (geo-mean) throughput",
        mean(&gains)
    );
    println!(
        "  exploration cost                : {:.0} assignments, vs {} configs in one \
         2-type product space (coordinate descent sidesteps the quadratic blow-up)",
        mean(&expl_counts),
        autopn::SearchSpace::new(n).len() * autopn::SearchSpace::new(n).len()
    );
}
