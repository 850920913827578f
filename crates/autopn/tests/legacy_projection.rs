//! Differential proptest pinning the shipped tuner to a frozen reference
//! implementation of the 2-D pipeline: [`AutoPn`] must replay
//! [`LegacyAutoPn`] seed histories **exactly** — identical proposal
//! sequences, identical phase transitions, identical observations, and an
//! identical session outcome. The shipped model layer works on `Vec<f64>`
//! features and the reference on a fixed `(t, c)` sample type, so any
//! arithmetic drift in the model, SMBO or hill-climb layers shows up here as
//! a bit-level divergence. (`tests/golden.rs` covers the code both share.)

// The frozen oracle lives in test support, out of the shipped library.
mod support {
    pub mod legacy;
}

use support::legacy::LegacyAutoPn;

use autopn::{AutoPn, AutoPnConfig, Config, InitialSampling, SearchSpace, StopCondition, Tuner};
use proptest::prelude::*;

/// A deterministic synthetic KPI surface: a quadratic bowl with a seed-mixed
/// per-config perturbation, so the tuners see realistic (non-separable,
/// noisy-looking) observations that are still replayable.
fn kpi(cfg: Config, t0: f64, c0: f64, st: f64, sc: f64, noise: u64) -> f64 {
    let base = 1000.0 - st * (cfg.t as f64 - t0).powi(2) - sc * (cfg.c as f64 - c0).powi(2);
    let h = (cfg.t as u64)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add((cfg.c as u64).wrapping_mul(0xBF58_476D_1CE4_E5B9))
        .wrapping_add(noise);
    let h = (h ^ (h >> 31)).wrapping_mul(0x94D0_49BB_1331_11EB);
    let jitter = ((h >> 11) as f64 / (1u64 << 53) as f64 - 0.5) * 40.0;
    base + jitter
}

/// CV stream derived from the same hash, for the noise-aware variant.
fn cv_of(cfg: Config, noise: u64) -> Option<f64> {
    let h = (cfg.t as u64 * 31 + cfg.c as u64).wrapping_mul(noise | 1);
    match h % 4 {
        0 => None,
        1 => Some(0.02),
        2 => Some(0.10),
        _ => Some(0.35),
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 1000, ..ProptestConfig::default() })]

    /// Full-session lockstep replay.
    #[test]
    fn shipped_tuner_replays_legacy_histories(
        n_cores in 2usize..=14,
        t0 in 1.0f64..14.0,
        c0 in 1.0f64..6.0,
        st in 0.5f64..30.0,
        sc in 0.5f64..60.0,
        noise in 0u64..u64::MAX,
        seed in 0u64..u64::MAX,
        ensemble in 1usize..=5,
        init_k in (0usize..4).prop_map(|i| [3usize, 5, 7, 9][i]),
        noise_aware in (0u8..2).prop_map(|b| b == 1),
        hill_climb in (0u8..2).prop_map(|b| b == 1),
        ei_stop in 0.01f64..0.25,
    ) {
        let cfg = AutoPnConfig {
            init: InitialSampling::Biased(init_k),
            stop: StopCondition::EiBelow(ei_stop),
            hill_climb,
            ensemble_size: ensemble,
            seed,
            noise_aware,
            ..AutoPnConfig::default()
        };
        let tc = SearchSpace::new(n_cores);
        let mut legacy = LegacyAutoPn::new(tc.clone(), cfg);
        let mut gen = AutoPn::new(tc, cfg);

        let mut steps = 0usize;
        loop {
            prop_assert_eq!(legacy.phase_name(), gen.phase_name(),
                "phase diverged after {} steps", steps);
            let (pl, pg) = (legacy.propose(), gen.propose());
            prop_assert_eq!(pl, pg, "proposal diverged at step {}", steps);
            let Some(cfg) = pl else { break };
            let y = kpi(cfg, t0, c0, st, sc, noise);
            if noise_aware {
                let cv = cv_of(cfg, noise);
                let timed_out = cv.is_none() && noise % 3 == 0;
                legacy.observe_noisy(cfg, y, cv, timed_out);
                gen.observe_noisy(cfg, y, cv, timed_out);
            } else {
                legacy.observe(cfg, y);
                gen.observe(cfg, y);
            }
            steps += 1;
            prop_assert!(steps <= 4 * 14 * 14, "session failed to terminate");
        }

        // Identical session outcome: same winner, same KPI, bit-for-bit.
        let (bl, bg) = (legacy.best(), gen.best());
        prop_assert_eq!(bl.map(|(c, _)| c), bg.map(|(c, _)| c));
        prop_assert_eq!(bl.map(|(_, v)| v.to_bits()), bg.map(|(_, v)| v.to_bits()));
        prop_assert_eq!(legacy.explored(), gen.explored());
    }
}
