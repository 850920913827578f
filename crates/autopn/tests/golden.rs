//! Golden tuner outcomes: a fixed table of full AutoPN sessions on a
//! deterministic synthetic KPI bowl, each pinned to the exact proposal
//! sequence, phase sequence, exploration count and winner it produces.
//!
//! `legacy_projection` compares the shipped tuner with a frozen copy of the
//! 2-D pipeline, but the two share `InitialSampling::configs`,
//! `expected_improvement`, `StopCondition` and `SearchSpace`; drift in that
//! shared code moves both sides at once and the differential test cannot
//! see it. This table can. A change that moves a row changed what the tuner
//! does: if that is intended, re-record the row and say why.

use autopn::{AutoPn, AutoPnConfig, Config, InitialSampling, SearchSpace, Tuner};

/// The synthetic bowl of `legacy_projection`: a quadratic with its peak at
/// `(t0, c0)` plus a seed-mixed per-config jitter of ±20.
fn kpi(cfg: Config, bowl: Bowl) -> f64 {
    let Bowl { t0, c0, st, sc, noise } = bowl;
    let base = 1000.0 - st * (cfg.t as f64 - t0).powi(2) - sc * (cfg.c as f64 - c0).powi(2);
    let h = (cfg.t as u64)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add((cfg.c as u64).wrapping_mul(0xBF58_476D_1CE4_E5B9))
        .wrapping_add(noise);
    let h = (h ^ (h >> 31)).wrapping_mul(0x94D0_49BB_1331_11EB);
    let jitter = ((h >> 11) as f64 / (1u64 << 53) as f64 - 0.5) * 40.0;
    base + jitter
}

/// The CV stream `legacy_projection` feeds the noise-aware variant.
fn cv_of(cfg: Config, noise: u64) -> Option<f64> {
    let h = (cfg.t as u64 * 31 + cfg.c as u64).wrapping_mul(noise | 1);
    match h % 4 {
        0 => None,
        1 => Some(0.02),
        2 => Some(0.10),
        _ => Some(0.35),
    }
}

#[derive(Debug, Clone, Copy)]
struct Bowl {
    t0: f64,
    c0: f64,
    st: f64,
    sc: f64,
    noise: u64,
}

/// What one session is pinned to.
#[derive(Debug, PartialEq, Eq)]
struct Outcome {
    /// FNV-1a over every proposal's `(t, c)` and the phase after it.
    hash: u64,
    explored: usize,
    best: (usize, usize),
    best_kpi_bits: u64,
}

struct Session {
    n_cores: usize,
    init: InitialSampling,
    hill_climb: bool,
    noise_aware: bool,
    ensemble_size: usize,
    seed: u64,
    bowl: Bowl,
    want: Outcome,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

fn run(s: &Session) -> Outcome {
    let cfg = AutoPnConfig {
        init: s.init,
        hill_climb: s.hill_climb,
        noise_aware: s.noise_aware,
        ensemble_size: s.ensemble_size,
        seed: s.seed,
        ..AutoPnConfig::default()
    };
    let mut tuner = AutoPn::new(SearchSpace::new(s.n_cores), cfg);
    let mut hash = fnv1a(FNV_OFFSET, tuner.phase_name().as_bytes());
    let mut steps = 0usize;
    loop {
        let proposal = tuner.propose();
        hash = fnv1a(hash, tuner.phase_name().as_bytes());
        let Some(c) = proposal else { break };
        hash = fnv1a(hash, &(c.t as u64).to_le_bytes());
        hash = fnv1a(hash, &(c.c as u64).to_le_bytes());
        let y = kpi(c, s.bowl);
        if s.noise_aware {
            let cv = cv_of(c, s.bowl.noise);
            tuner.observe_noisy(c, y, cv, cv.is_none() && s.bowl.noise.is_multiple_of(3));
        } else {
            tuner.observe(c, y);
        }
        steps += 1;
        assert!(steps <= SearchSpace::new(s.n_cores).len(), "session failed to terminate");
    }
    let (best, best_kpi) = tuner.best().expect("every session explores");
    Outcome {
        hash,
        explored: tuner.explored(),
        best: (best.t, best.c),
        best_kpi_bits: best_kpi.to_bits(),
    }
}

use Init::{B, U};

type SessionRow = (usize, Init, bool, bool, usize, u64, [f64; 4], u64);
type WantRow = (u64, usize, (usize, usize), u64);

/// `(n_cores, initial sampling, hill_climb, noise_aware, ensemble_size,
/// seed, bowl [t0, c0, st, sc], bowl noise)`. `B(k)` is `Biased(k)`,
/// `U(count, seed)` is `UniformRandom`.
#[rustfmt::skip]
const SESSIONS: [SessionRow; 24] = [
    ( 4, B(3),     true,  false,  1,  1, [ 2.0,  1.5, 20.0, 30.0], 11),
    ( 4, B(5),     false, false, 10,  2, [ 3.2,  1.0,  5.0, 50.0], 12),
    ( 4, B(7),     true,  true,  10,  3, [ 1.0,  3.5,  2.0,  8.0], 13),
    ( 4, B(9),     false, true,   1,  4, [ 1.8,  2.2, 12.0, 12.0], 14),
    ( 4, B(9),     true,  false, 10,  5, [ 4.0,  1.0,  1.0,  1.0], 15),
    ( 4, U(4, 6),  true,  true,  10,  6, [ 2.5,  1.2,  9.0, 40.0], 16),
    ( 4, B(5),     true,  false, 10,  7, [ 1.2,  1.2, 30.0, 30.0], 17),
    ( 4, B(3),     false, true,  10,  8, [ 3.0,  1.3,  0.5,  0.5], 18),
    (14, B(3),     true,  false, 10,  9, [ 7.0,  2.0,  3.0, 20.0], 21),
    (14, B(5),     false, true,  10, 10, [12.5,  1.0,  1.5, 40.0], 22),
    (14, B(7),     true,  true,   1, 11, [ 2.0,  5.0,  6.0,  6.0], 23),
    (14, B(9),     true,  false, 10, 12, [ 4.5,  3.0,  8.0, 25.0], 24),
    (14, B(9),     false, false,  1, 13, [10.0,  1.4,  0.8, 60.0], 25),
    (14, U(7, 14), false, false, 10, 14, [ 3.3,  3.3, 10.0, 10.0], 26),
    (14, B(7),     true,  false, 10, 15, [ 1.0,  1.0, 25.0, 25.0], 27),
    (14, B(5),     true,  true,  10, 16, [ 6.0,  2.0,  4.0, 15.0], 28),
    (48, B(3),     true,  true,  10, 17, [20.0,  2.0,  3.0, 40.0], 31),
    (48, B(5),     true,  false,  1, 18, [12.0,  4.0,  1.0, 30.0], 32),
    (48, B(7),     false, false, 10, 19, [40.0,  1.0,  0.6, 50.0], 33),
    (48, B(9),     true,  false, 10, 20, [ 8.0,  6.0,  2.0, 10.0], 34),
    (48, B(9),     false, true,  10, 21, [ 3.0, 12.0,  5.0,  2.0], 35),
    (48, U(9, 22), true,  false, 10, 22, [16.0,  3.0,  1.5, 20.0], 36),
    (48, B(9),     true,  true,   1, 23, [24.0,  2.0,  0.9, 45.0], 37),
    (48, B(7),     true,  false, 10, 24, [ 1.0,  1.0,  0.2,  0.2], 38),
];

/// Per session: `(hash, explored, best (t, c), best KPI bits)`, recorded
/// from the tuner before the `(t, c)`-only rewrite and unchanged by it.
#[rustfmt::skip]
const WANT: [WantRow; 24] = [
    (0x07fc93bc3a490f87,  7, ( 2, 2), 0x408f550015e42294),
    (0x4d2c6853c5929942,  7, ( 2, 1), 0x408f90bff5d537c8),
    (0xc0e406eb86d4284a,  8, ( 1, 4), 0x408fa28098c3c908),
    (0xd236a778adf31b5f,  8, ( 1, 2), 0x408f872049291432),
    (0xd236a778adf31b5f,  8, ( 3, 1), 0x408f8c05bb62c014),
    (0x9c190dae3fafffe8,  7, ( 3, 1), 0x408f8b5773badb34),
    (0x5a8e67627a7c2d22,  8, ( 2, 1), 0x408f093c290cd621),
    (0x644b95b4bd69508d,  3, ( 1, 1), 0x408f91631a5b0a95),
    (0xa27984369d7663b9, 19, ( 4, 2), 0x408efeab5d949acc),
    (0x6a59cb5a6dfa36f2,  8, (13, 1), 0x408f283d3baf15ff),
    (0x66d1e04e2932f57f,  9, ( 1, 2), 0x408dfe867c627701),
    (0x3e52e1a7aee66568, 20, ( 4, 3), 0x408f1052243969a0),
    (0x8ac1a3a6d5c59f9a, 14, ( 7, 1), 0x408ef832544999ec),
    (0xb22be68f78a0a2b0,  8, ( 2, 2), 0x408ea84f90b6645c),
    (0xf99b17a589769113, 11, ( 1, 1), 0x408f579805d8353c),
    (0xf013b09bf4c35372, 22, ( 6, 2), 0x408fac0edbe4b022),
    (0x0d7d6325181e2d06, 47, (21, 2), 0x408f3da1fddf275e),
    (0x8093d931e72fcdfa, 34, ( 6, 4), 0x408e2fcff48bc4c2),
    (0xb5217dde731abde2, 33, (46, 1), 0x408edd9d7a5f20ff),
    (0xb891deff5ad02aaa, 21, ( 6, 7), 0x408f3e8f0d6bf929),
    (0x426d74e7f43e8767, 13, ( 6, 8), 0x408c5c377f122939),
    (0x6d5a5d30c1d00685, 41, (18, 2), 0x408ecb15d84acfc1),
    (0x4e95d686f60e8e24, 31, (27, 1), 0x408e015fb0642c2e),
    (0x85bc76e8c3502ff4, 12, ( 2, 1), 0x408fbc73e4891e31),
];

#[derive(Debug, Clone, Copy)]
enum Init {
    B(usize),
    U(usize, u64),
}

fn sessions() -> impl Iterator<Item = Session> {
    SESSIONS.into_iter().zip(WANT).map(|(row, want)| {
        let (n_cores, init, hill_climb, noise_aware, ensemble_size, seed, [t0, c0, st, sc], noise) =
            row;
        let (hash, explored, best, best_kpi_bits) = want;
        Session {
            n_cores,
            init: match init {
                Init::B(k) => InitialSampling::Biased(k),
                Init::U(count, seed) => InitialSampling::UniformRandom { count, seed },
            },
            hill_climb,
            noise_aware,
            ensemble_size,
            seed,
            bowl: Bowl { t0, c0, st, sc, noise },
            want: Outcome { hash, explored, best, best_kpi_bits },
        }
    })
}

#[test]
fn tuner_sessions_match_their_golden_outcomes() {
    let mut mismatches = Vec::new();
    for (i, s) in sessions().enumerate() {
        let got = run(&s);
        if got != s.want {
            mismatches.push(format!("row {i}: got {got:?}"));
        }
    }
    assert!(mismatches.is_empty(), "golden rows moved:\n{}", mismatches.join("\n"));
}
