//! Throughput surfaces: exhaustive `(t, c) → KPI` evaluations.
//!
//! The paper's Fig. 5/6 methodology feeds optimizers with *offline-collected
//! traces* obtained by exhaustively evaluating every configuration of the
//! search space (198 configurations on the 48-core machine, 10 repetitions
//! each). [`Surface`] is that trace: a map from configuration to throughput
//! samples, serializable for caching and replay.

use std::cmp::Reverse;
use std::collections::BTreeMap;
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

use crate::sim::Simulation;
use crate::workload::{MachineParams, SimWorkload};

/// The admissible search space `S = {(t, c) : t·c ≤ n}` of §III-B.
pub fn search_space(n_cores: usize) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    for t in 1..=n_cores {
        for c in 1..=(n_cores / t) {
            out.push((t, c));
        }
    }
    out
}

/// An exhaustively evaluated throughput surface for one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct Surface {
    /// Workload name this surface belongs to.
    pub workload: String,
    /// Number of cores of the evaluated machine.
    pub n_cores: usize,
    /// Throughput samples (txn/s) per configuration; every configuration of
    /// the search space is present with the same number of samples.
    pub samples: BTreeMap<(usize, usize), Vec<f64>>,
}

// JSON maps need string keys; (de)serialize the samples map as a list of
// `[t, c, samples]` entries instead.
impl serde::Serialize for Surface {
    fn to_value(&self) -> serde::Value {
        let entries: Vec<(usize, usize, Vec<f64>)> =
            self.samples.iter().map(|(&(t, c), v)| (t, c, v.clone())).collect();
        serde::Value::Obj(vec![
            ("workload".to_string(), serde::Serialize::to_value(&self.workload)),
            ("n_cores".to_string(), serde::Serialize::to_value(&self.n_cores)),
            ("samples".to_string(), serde::Serialize::to_value(&entries)),
        ])
    }
}

impl serde::Deserialize for Surface {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let field = |name: &str| {
            v.get(name).ok_or_else(|| serde::Error::new(format!("Surface: missing field {name}")))
        };
        let entries: Vec<(usize, usize, Vec<f64>)> =
            serde::Deserialize::from_value(field("samples")?).map_err(|e| e.context("samples"))?;
        let n_cores: usize =
            serde::Deserialize::from_value(field("n_cores")?).map_err(|e| e.context("n_cores"))?;
        let samples: BTreeMap<_, _> = entries.into_iter().map(|(t, c, v)| ((t, c), v)).collect();
        // Callers index any configuration of the space and divide by the
        // repetition count: accept exactly the space, with equal, non-zero
        // repetitions.
        let space = search_space(n_cores);
        let reps = samples.values().next().map_or(0, Vec::len);
        let well_formed = reps > 0
            && samples.len() == space.len()
            && space.iter().all(|cfg| samples.get(cfg).is_some_and(|v| v.len() == reps));
        if !well_formed {
            return Err(serde::Error::new(format!(
                "Surface: samples must cover exactly the {} configurations of n_cores = \
                 {n_cores}, with equal, non-zero repetitions",
                space.len()
            )));
        }
        Ok(Surface {
            workload: serde::Deserialize::from_value(field("workload")?)
                .map_err(|e| e.context("workload"))?,
            n_cores,
            samples,
        })
    }
}

impl Surface {
    /// Mean throughput of a configuration.
    ///
    /// # Panics
    /// Panics if the configuration is not part of the surface.
    pub fn mean(&self, cfg: (usize, usize)) -> f64 {
        let s = &self.samples[&cfg];
        s.iter().sum::<f64>() / s.len() as f64
    }

    /// One specific sample (wrapping around if `rep` exceeds the stored
    /// repetitions) — used for noisy trace replay.
    pub fn sample(&self, cfg: (usize, usize), rep: usize) -> f64 {
        let s = &self.samples[&cfg];
        s[rep % s.len()]
    }

    /// The configuration with the highest mean throughput.
    pub fn optimum(&self) -> ((usize, usize), f64) {
        self.samples
            .keys()
            .map(|&cfg| (cfg, self.mean(cfg)))
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .expect("surface is never empty")
    }

    /// Distance from optimum of `cfg`, in percent:
    /// `100 · (f(opt) − f(cfg)) / f(opt)`.
    pub fn distance_from_optimum(&self, cfg: (usize, usize)) -> f64 {
        let (_, best) = self.optimum();
        if best <= 0.0 {
            return 0.0;
        }
        100.0 * (best - self.mean(cfg)) / best
    }

    /// All configurations, sorted.
    pub fn configs(&self) -> Vec<(usize, usize)> {
        self.samples.keys().copied().collect()
    }

    /// Number of configurations (198 for n = 48).
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }
}

/// Builds a [`Surface`] by simulating every configuration.
pub struct SurfaceBuilder {
    workload: SimWorkload,
    machine: MachineParams,
    reps: usize,
    warmup: Duration,
    measure: Duration,
    base_seed: u64,
}

impl SurfaceBuilder {
    pub fn new(workload: SimWorkload, machine: MachineParams) -> Self {
        Self {
            workload,
            machine,
            reps: 10,
            warmup: Duration::from_millis(50),
            measure: Duration::from_millis(500),
            base_seed: 0xA070_91AA,
        }
    }

    /// Number of repetitions per configuration (paper: 10).
    pub fn reps(mut self, reps: usize) -> Self {
        self.reps = reps.max(1);
        self
    }

    /// Virtual warmup discarded before each measurement.
    pub fn warmup(mut self, d: Duration) -> Self {
        self.warmup = d;
        self
    }

    /// Virtual measurement duration per sample.
    pub fn measure(mut self, d: Duration) -> Self {
        self.measure = d;
        self
    }

    /// Base seed; repetition `r` of configuration `i` uses a derived seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.base_seed = seed;
        self
    }

    /// Run the exhaustive sweep: `reps` simulations of every configuration,
    /// spread over [`std::thread::available_parallelism`] threads, the
    /// calling thread among them.
    ///
    /// The result does not depend on the thread count or the schedule.
    /// Repetition `r` of configuration `i` is job `i·reps + r`; it seeds its
    /// own simulation from `(base_seed, i, r)` alone, shares no RNG with
    /// other jobs, and its throughput lands in slot `i·reps + r`. Threads
    /// only decide which job runs where; they take job indices from one
    /// counter, widest configurations (`t·c`, the slowest to simulate) first.
    pub fn build(self) -> Surface {
        let space = search_space(self.machine.n_cores);
        let jobs = space.len() * self.reps;
        let mut order: Vec<usize> = (0..jobs).collect();
        order.sort_by_key(|&job| {
            let (t, c) = space[job / self.reps];
            Reverse(t * c)
        });
        let next = AtomicUsize::new(0);
        // Claims a job index only; the results travel back through `join`.
        let work = || {
            let mut done = Vec::new();
            while let Some(&job) = order.get(next.fetch_add(1, Ordering::Relaxed)) {
                done.push((job, self.run_job(&space, job)));
            }
            done
        };
        let threads = std::thread::available_parallelism().map_or(1, NonZeroUsize::get);
        let mut throughput = vec![0.0; jobs];
        std::thread::scope(|scope| {
            let helpers: Vec<_> = (1..threads.min(jobs)).map(|_| scope.spawn(work)).collect();
            let mut place = |done: Vec<(usize, f64)>| {
                for (job, tp) in done {
                    throughput[job] = tp;
                }
            };
            place(work());
            for helper in helpers {
                place(helper.join().expect("a surface worker panicked"));
            }
        });
        let samples = space.into_iter().zip(throughput.chunks(self.reps).map(<[f64]>::to_vec));
        Surface {
            workload: self.workload.name.clone(),
            n_cores: self.machine.n_cores,
            samples: samples.collect(),
        }
    }

    /// Measured throughput of job `i·reps + r`: repetition `r` of
    /// configuration `space[i]`.
    fn run_job(&self, space: &[(usize, usize)], job: usize) -> f64 {
        let (i, r) = (job / self.reps, job % self.reps);
        let seed = self
            .base_seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add((i as u64) << 20)
            .wrapping_add(r as u64);
        let mut sim = Simulation::new(&self.workload, &self.machine, space[i], seed);
        sim.run_for_virtual(self.warmup);
        sim.run_for_virtual(self.measure).throughput()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::SimWorkload;

    #[test]
    fn search_space_matches_paper_count() {
        assert_eq!(search_space(48).len(), 198, "paper: 198 configs at n=48");
        assert_eq!(search_space(1), vec![(1, 1)]);
        let s4 = search_space(4);
        assert_eq!(s4, vec![(1, 1), (1, 2), (1, 3), (1, 4), (2, 1), (2, 2), (3, 1), (4, 1)]);
        assert!(s4.iter().all(|(t, c)| t * c <= 4));
    }

    fn tiny_surface() -> Surface {
        let wl = SimWorkload::builder("tiny")
            .top_work_us(50.0)
            .child_count(4)
            .child_work_us(100.0)
            .build();
        SurfaceBuilder::new(wl, MachineParams::new(8))
            .reps(2)
            .warmup(Duration::from_millis(5))
            .measure(Duration::from_millis(40))
            .build()
    }

    #[test]
    fn builder_covers_whole_space() {
        let s = tiny_surface();
        assert_eq!(s.len(), search_space(8).len());
        assert!(s.samples.values().all(|v| v.len() == 2));
        assert!(s.samples.values().flatten().all(|&x| x > 0.0));
    }

    #[test]
    fn optimum_and_distance() {
        let s = tiny_surface();
        let (best_cfg, best_tp) = s.optimum();
        assert!(s.samples.contains_key(&best_cfg));
        assert!((s.distance_from_optimum(best_cfg)).abs() < 1e-9);
        for cfg in s.configs() {
            let d = s.distance_from_optimum(cfg);
            assert!((0.0..=100.0).contains(&d), "dfo({cfg:?}) = {d}");
            assert!(s.mean(cfg) <= best_tp + 1e-9);
        }
    }

    #[test]
    fn surface_serde_round_trip() {
        let s = tiny_surface();
        let json = serde_json::to_string(&s).unwrap();
        let back: Surface = serde_json::from_str(&json).unwrap();
        assert_eq!(s, back);
    }

    /// A cache file for n = 2, whose space is (1,1), (1,2), (2,1).
    fn parse(samples: &str) -> Result<Surface, serde::Error> {
        serde_json::from_str(&format!(r#"{{"workload":"w","n_cores":2,"samples":{samples}}}"#))
    }

    #[test]
    fn deserialize_rejects_empty_samples() {
        assert!(parse("[]").is_err());
    }

    #[test]
    fn deserialize_rejects_zero_repetitions() {
        assert!(parse("[[1,1,[]],[1,2,[]],[2,1,[]]]").is_err());
    }

    #[test]
    fn deserialize_rejects_unequal_repetitions() {
        assert!(parse("[[1,1,[1.0]],[1,2,[]],[2,1,[5.0]]]").is_err());
    }

    #[test]
    fn deserialize_rejects_missing_configurations() {
        assert!(parse("[[1,1,[1.0]],[2,1,[5.0]]]").is_err());
    }

    #[test]
    fn deserialize_rejects_configurations_outside_the_space() {
        assert!(parse("[[1,1,[1.0]],[1,2,[3.0]],[2,1,[5.0]],[2,2,[7.0]]]").is_err());
    }

    #[test]
    fn sample_wraps_repetitions() {
        let s = tiny_surface();
        let cfg = (1, 1);
        assert_eq!(s.sample(cfg, 0), s.sample(cfg, 2));
        assert_eq!(s.sample(cfg, 1), s.sample(cfg, 3));
    }

    /// The sweep as one thread runs it, with the builder's seed formula.
    #[test]
    fn build_matches_a_sequential_sweep() {
        let wl = SimWorkload::builder("seq")
            .top_work_us(30.0)
            .child_count(4)
            .child_work_us(60.0)
            .top_footprint(8, 2)
            .data_items(5_000)
            .build();
        let machine = MachineParams::new(8);
        let (reps, warmup, measure, base) =
            (2, Duration::from_millis(2), Duration::from_millis(15), 77u64);
        let mut samples = BTreeMap::new();
        for (i, cfg) in search_space(8).into_iter().enumerate() {
            let runs = (0..reps)
                .map(|r| {
                    let seed = base
                        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                        .wrapping_add((i as u64) << 20)
                        .wrapping_add(r as u64);
                    let mut sim = Simulation::new(&wl, &machine, cfg, seed);
                    sim.run_for_virtual(warmup);
                    sim.run_for_virtual(measure).throughput()
                })
                .collect();
            samples.insert(cfg, runs);
        }
        let sequential = Surface { workload: "seq".to_string(), n_cores: 8, samples };
        let built = SurfaceBuilder::new(wl, machine)
            .reps(reps)
            .warmup(warmup)
            .measure(measure)
            .seed(base)
            .build();
        assert_eq!(built, sequential);
    }

    #[test]
    fn a_single_job_builds() {
        let wl = SimWorkload::builder("one").top_work_us(40.0).build();
        let s = SurfaceBuilder::new(wl, MachineParams::new(1))
            .reps(1)
            .warmup(Duration::from_millis(1))
            .measure(Duration::from_millis(10))
            .build();
        assert_eq!(s.configs(), vec![(1, 1)]);
        assert!(s.sample((1, 1), 0) > 0.0);
    }

    #[test]
    fn deterministic_given_seed() {
        let wl = SimWorkload::builder("det").top_work_us(80.0).build();
        let build = || {
            SurfaceBuilder::new(wl.clone(), MachineParams::new(4))
                .reps(1)
                .warmup(Duration::from_millis(1))
                .measure(Duration::from_millis(20))
                .seed(99)
                .build()
        };
        assert_eq!(build(), build());
    }
}
