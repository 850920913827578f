//! The benchmark's statistics: exact nearest-rank percentiles, slicing with
//! medians / lower quartiles over slices, the open-loop epoch correction and
//! the generator-lag computation.
//!
//! Every timed phase is cut into slices and reported as a statistic *over
//! slices* rather than over the whole phase: interference from outside the
//! program (on the reference box a pure spin loop runs anywhere between 1x
//! and 2x its best speed for seconds at a time) poisons some slices, not
//! the run.

/// Exact nearest-rank percentile of an ascending-sorted sample: the value at
/// rank `⌈p/100 · n⌉` (1-based, clamped to `1..=n`). `None` when empty.
pub fn percentile<T: Copy>(sorted: &[T], p: f64) -> Option<T> {
    if sorted.is_empty() {
        return None;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Median of a sample (mean of the two middle values when even). 0 when
/// empty, so an all-slices-dropped phase is visible as a zero, not a panic.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Lower quartile by nearest rank (`⌈n/4⌉`-th smallest); 0 when empty.
///
/// Used for the tail latencies, where interference from outside the program
/// is one-sided: a stall only ever pushes a slice's p99 *up*, and the
/// quartile on the undisturbed side is the statistic such interference
/// cannot reach while a quarter of the slices run undisturbed. (Throughputs
/// and p50s use the median over slices.)
pub fn lower_quartile(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return 0.0;
    }
    v[v.len().div_ceil(4) - 1]
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// (exclusive method) computes them — the spread the benchmark contract
/// judges steadiness by. `None` below two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let at = |k: usize| {
        // Position k·(n+1)/4 on a 1-based axis, clamped into the sample.
        let j = (k * (n + 1) / 4).clamp(1, n - 1);
        let delta = (k * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    Some((at(1), at(3)))
}

/// Interquartile range as a share of the median (the contract's "spread").
/// Below four values it degrades to `(max − min) / median`.
pub fn spread(values: &[f64]) -> f64 {
    let med = median(values);
    if med == 0.0 || values.len() < 2 {
        return 0.0;
    }
    if values.len() < 4 {
        let (lo, hi) = values
            .iter()
            .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &x| (lo.min(x), hi.max(x)));
        return (hi - lo) / med.abs();
    }
    let (q1, q3) = quartiles(values).expect("at least four values");
    (q3 - q1) / med.abs()
}

/// The slicing of one timed phase: `[warmup_ns, end_ns)` cut into
/// `slice_ns`-long slices; a trailing partial slice is dropped.
#[derive(Debug, Clone, Copy)]
pub struct Slicing {
    pub warmup_ns: u64,
    pub slice_ns: u64,
    pub end_ns: u64,
}

impl Slicing {
    /// The benchmark's standard cut: discard the first 2 s (a quarter of
    /// the phase when the phase is shorter than 8 s), then `slice_ns` slices.
    pub fn standard(phase_ns: u64, slice_ns: u64) -> Self {
        let warmup_ns = (phase_ns / 4).min(2_000_000_000);
        Self { warmup_ns, slice_ns, end_ns: phase_ns }
    }

    pub fn slices(&self) -> usize {
        (self.end_ns.saturating_sub(self.warmup_ns) / self.slice_ns.max(1)) as usize
    }

    /// Slice index of phase-relative time `t_ns`, or `None` when it falls
    /// into the warm-up or the dropped tail.
    pub fn slice_of(&self, t_ns: u64) -> Option<usize> {
        if t_ns < self.warmup_ns {
            return None;
        }
        let k = ((t_ns - self.warmup_ns) / self.slice_ns.max(1)) as usize;
        (k < self.slices()).then_some(k)
    }

    /// Length of the timed window (warm-up and partial tail excluded), in s.
    pub fn timed_s(&self) -> f64 {
        (self.timed_end_ns() - self.warmup_ns) as f64 / 1e9
    }

    /// End of the last whole slice (phase-relative).
    pub fn timed_end_ns(&self) -> u64 {
        self.warmup_ns + self.slices() as u64 * self.slice_ns
    }
}

/// Per-slice latency digests of one phase.
#[derive(Debug, Clone, Default)]
pub struct SliceDigest {
    /// Samples per slice.
    pub counts: Vec<u64>,
    /// Exact nearest-rank p50 per non-empty slice, in ns.
    pub p50_ns: Vec<f64>,
    /// Exact nearest-rank p99 per non-empty slice, in ns.
    pub p99_ns: Vec<f64>,
    /// Every timed sample, sorted (for whole-phase percentiles).
    pub pooled: Vec<u64>,
}

impl SliceDigest {
    /// Group `(phase-relative time, latency)` samples into slices.
    pub fn build(samples: impl Iterator<Item = (u64, u64)>, slicing: &Slicing) -> Self {
        let mut per_slice: Vec<Vec<u64>> = vec![Vec::new(); slicing.slices()];
        for (t_ns, lat_ns) in samples {
            if let Some(k) = slicing.slice_of(t_ns) {
                per_slice[k].push(lat_ns);
            }
        }
        let mut digest = Self::default();
        for slice in &mut per_slice {
            slice.sort_unstable();
            digest.counts.push(slice.len() as u64);
            if let (Some(p50), Some(p99)) = (percentile(slice, 50.0), percentile(slice, 99.0)) {
                digest.p50_ns.push(p50 as f64);
                digest.p99_ns.push(p99 as f64);
            }
        }
        digest.pooled = per_slice.concat();
        digest.pooled.sort_unstable();
        digest
    }

    pub fn samples(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Median over slices of completions per second.
    pub fn throughput_per_s(&self, slicing: &Slicing) -> f64 {
        let per_s: Vec<f64> =
            self.counts.iter().map(|&n| n as f64 * 1e9 / slicing.slice_ns as f64).collect();
        median(&per_s)
    }

    /// Median over slices of the slice p50, in µs.
    pub fn p50_us(&self) -> f64 {
        median(&self.p50_ns) / 1e3
    }

    /// Lower quartile over slices of the slice p99, in µs.
    pub fn p99_us(&self) -> f64 {
        lower_quartile(&self.p99_ns) / 1e3
    }

    /// Plain whole-phase percentile, in µs (the stall-sensitive number the
    /// slice statistics replace; kept as a per-layer row for comparison).
    pub fn pooled_us(&self, p: f64) -> f64 {
        percentile(&self.pooled, p).unwrap_or(0) as f64 / 1e3
    }

    /// Samples beyond the p99 in the smallest slice (the guide asks for at
    /// least ten beyond the reported percentile).
    pub fn min_beyond_p99(&self) -> u64 {
        self.counts.iter().map(|&n| n - ((0.99 * n as f64).ceil() as u64).min(n)).min().unwrap_or(0)
    }
}

/// How far the generator's real epoch lies after the benchmark's estimate.
///
/// The benchmark reads its clock before `Ingress::start`; the generator
/// thread reads its own some 100–300 µs later, and every intended arrival
/// is relative to *that*. Both sides sum `completion − intended` over the
/// same completed set — the benchmark with its estimate, the program
/// exactly — so the difference of the sums, per request, is the offset.
pub fn epoch_correction_ns(bench_sum_ns: u128, program_sum_ns: u128, count: u64) -> i64 {
    if count == 0 {
        return 0;
    }
    ((bench_sum_ns as i128 - program_sum_ns as i128) / count as i128) as i64
}

/// How late the generator ran at each sampling instant: with `offered`
/// requests handed over by time `t`, the oldest request still owed was due
/// at `schedule[offered]`; the lag is `t − schedule[offered]` when that is
/// in the past and 0 otherwise. `samples` are `(t_ns since the generator's
/// epoch, offered so far)`; `schedule` holds intended-arrival offsets.
pub fn generator_lag_ns(samples: &[(u64, u64)], schedule: &[u64]) -> Vec<u64> {
    samples
        .iter()
        .filter_map(|&(t_ns, offered)| {
            schedule.get(offered as usize).map(|&due_ns| t_ns.saturating_sub(due_ns))
        })
        .collect()
}

/// Whether an exact quantile and a log2-histogram quantile (the inclusive
/// upper edge `2^(k+1) − 1` of its bucket) describe the same bucket, with
/// `tol_ns` of slack at the bucket edges: the program stamps completion a
/// few tens of ns after the benchmark's wrapper does, so a quantile that
/// sits on a power of two may legitimately land one bucket apart.
pub fn same_log2_bucket(exact_ns: u64, histogram_upper_edge_ns: u64, tol_ns: u64) -> bool {
    let hi = histogram_upper_edge_ns;
    let lo = hi.div_ceil(2); // bucket k spans [2^k, 2^(k+1) − 1]; bucket 0 also holds 0
    let lo = if lo <= 1 { 0 } else { lo };
    exact_ns.saturating_add(tol_ns) >= lo && exact_ns <= hi.saturating_add(tol_ns)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank_at_the_edges() {
        assert_eq!(percentile::<u64>(&[], 50.0), None);
        assert_eq!(percentile(&[7], 0.0), Some(7));
        assert_eq!(percentile(&[7], 100.0), Some(7));
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50.0), Some(50));
        assert_eq!(percentile(&v, 99.0), Some(99));
        assert_eq!(percentile(&v, 99.1), Some(100));
        assert_eq!(percentile(&v, 100.0), Some(100));
        assert_eq!(percentile(&v, 0.0), Some(1));
        // Even count: nearest rank takes the lower middle, never a mean.
        assert_eq!(percentile(&[10, 20, 30, 40], 50.0), Some(20));
        assert_eq!(percentile(&[10, 20, 30, 40], 75.0), Some(30));
        assert_eq!(percentile(&[10, 20, 30, 40], 75.1), Some(40));
    }

    #[test]
    fn median_and_lower_quartile() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(lower_quartile(&[]), 0.0);
        assert_eq!(lower_quartile(&[9.0]), 9.0);
        assert_eq!(lower_quartile(&[4.0, 3.0, 2.0, 1.0]), 1.0);
        assert_eq!(lower_quartile(&[5.0, 4.0, 3.0, 2.0, 1.0]), 2.0);
        // Stalled slices cannot move the quartile on the undisturbed side.
        assert_eq!(lower_quartile(&[1.0, 1.1, 1.2, 1.3, 1.1, 1.0, 37.0, 1.2]), 1.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v).unwrap();
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let (q1, q3) = quartiles(&[2.0, 1.0]).unwrap();
        assert!((q1 - 0.75).abs() < 1e-12 && (q3 - 2.25).abs() < 1e-12);
        assert!(quartiles(&[1.0]).is_none());
        assert!((spread(&v) - 1.0).abs() < 1e-12);
        assert!((spread(&[9.0, 10.0, 11.0]) - 0.2).abs() < 1e-12);
    }

    #[test]
    fn slicing_drops_warmup_and_partial_tail() {
        let s = Slicing::standard(10_500_000_000, 1_000_000_000);
        assert_eq!(s.warmup_ns, 2_000_000_000);
        assert_eq!(s.slices(), 8);
        assert_eq!(s.slice_of(1_999_999_999), None);
        assert_eq!(s.slice_of(2_000_000_000), Some(0));
        assert_eq!(s.slice_of(9_999_999_999), Some(7));
        assert_eq!(s.slice_of(10_000_000_000), None);
        assert_eq!(s.timed_end_ns(), 10_000_000_000);
        // Short (smoke) phases give up a quarter, not 2 s.
        let s = Slicing::standard(2_000_000_000, 250_000_000);
        assert_eq!(s.warmup_ns, 500_000_000);
        assert_eq!(s.slices(), 6);
    }

    #[test]
    fn slice_digest_reports_medians_and_quartiles_over_slices() {
        let slicing = Slicing { warmup_ns: 10, slice_ns: 10, end_ns: 40 };
        // slice 0: 1..=4, slice 1: one stalled slice, slice 2: 1..=2.
        let samples = [
            (5, 999), // warm-up, dropped
            (10, 1),
            (11, 2),
            (12, 3),
            (19, 4),
            (20, 1_000),
            (30, 1),
            (39, 2),
            (40, 999), // past the end, dropped
        ];
        let d = SliceDigest::build(samples.into_iter(), &slicing);
        assert_eq!(d.counts, vec![4, 1, 2]);
        assert_eq!(d.samples(), 7);
        assert_eq!(d.p50_ns, vec![2.0, 1_000.0, 1.0]);
        assert_eq!(d.p99_ns, vec![4.0, 1_000.0, 2.0]);
        // Median and lower quartile of [1, 2, 1000]; lower quartile of
        // [2, 4, 1000] ns: the stalled slice moves neither.
        assert_eq!(d.p50_us(), 0.002);
        assert_eq!(d.p99_us(), 0.002);
        assert_eq!(d.pooled_us(100.0), 1.0);
        // Median of [4, 1, 2] completions per 10 ns slice.
        assert_eq!(d.throughput_per_s(&slicing), 2.0 * 1e9 / 10.0);
    }

    #[test]
    fn epoch_correction_recovers_a_synthetic_offset() {
        // True epoch 250 ns after the estimate; three completions.
        let (estimate, truth) = (1_000u64, 1_250u64);
        let sched = [0u64, 100, 200];
        let done = [2_000u64, 2_500, 2_600];
        let bench: u128 = (0..3).map(|i| (done[i] - estimate - sched[i]) as u128).sum();
        let program: u128 = (0..3).map(|i| (done[i] - truth - sched[i]) as u128).sum();
        assert_eq!(epoch_correction_ns(bench, program, 3), 250);
        assert_eq!(epoch_correction_ns(program, bench, 3), -250);
        assert_eq!(epoch_correction_ns(5, 9, 0), 0);
    }

    #[test]
    fn generator_lag_from_a_synthetic_offered_series() {
        let schedule = [0u64, 100, 200, 300, 400];
        // On time at t=150 (2 offered, #2 due at 200); 130 ns late at t=330
        // (still only 2 offered); caught up at t=350; past the schedule's end.
        let samples = [(150, 2), (330, 2), (350, 4), (500, 5)];
        assert_eq!(generator_lag_ns(&samples, &schedule), vec![0, 130, 0]);
    }

    #[test]
    fn log2_bucket_comparison_tolerates_the_edges() {
        // Bucket 17 spans [131072, 262143].
        assert!(same_log2_bucket(131_072, 262_143, 0));
        assert!(same_log2_bucket(262_143, 262_143, 0));
        assert!(!same_log2_bucket(131_071, 262_143, 0));
        assert!(same_log2_bucket(131_000, 262_143, 100));
        assert!(!same_log2_bucket(262_300, 262_143, 100));
        assert!(same_log2_bucket(0, 1, 0));
    }
}
