//! Deterministic random-number generation for reproducible simulations.
//!
//! Every stochastic decision in a simulation run draws from a single
//! [`SimRng`] seeded at construction, so a `(seed, spec)` pair fully
//! determines a run. The generator core and the shared draws (uniform,
//! range, index) are the workspace's canonical [`firm_rng::Xoshiro256`],
//! reached through `Deref`; the distributions only the simulator and
//! the workload generators need (exponential, scaled normal,
//! log-normal, weighted choice) are built on them here, so no
//! external dependencies are involved and the byte-level stream is
//! stable across toolchains.

use std::ops::{Deref, DerefMut};

use firm_rng::Xoshiro256;

/// Deterministic RNG with the distribution helpers the simulator needs.
#[derive(Debug, Clone)]
pub struct SimRng(Xoshiro256);

impl Deref for SimRng {
    type Target = Xoshiro256;

    fn deref(&self) -> &Xoshiro256 {
        &self.0
    }
}

impl DerefMut for SimRng {
    fn deref_mut(&mut self) -> &mut Xoshiro256 {
        &mut self.0
    }
}

impl SimRng {
    /// Creates a generator from a 64-bit seed.
    pub fn new(seed: u64) -> Self {
        SimRng(Xoshiro256::new(seed))
    }

    /// Derives an independent child generator; useful for giving
    /// subsystems their own streams without coupling their draw counts.
    pub fn fork(&mut self) -> SimRng {
        SimRng::new(self.next_u64())
    }

    /// Bernoulli draw with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        self.uniform() < p.clamp(0.0, 1.0)
    }

    /// Exponential draw with the given rate (events per unit time).
    ///
    /// Returns `f64::INFINITY` for non-positive rates, which callers treat
    /// as "never".
    pub fn exponential(&mut self, rate: f64) -> f64 {
        if rate <= 0.0 {
            return f64::INFINITY;
        }
        // Inverse-transform sampling; `1 - u` avoids ln(0).
        let u: f64 = 1.0 - self.uniform();
        -u.ln() / rate
    }

    /// Normal draw via the Box-Muller transform.
    pub fn normal(&mut self, mean: f64, std_dev: f64) -> f64 {
        let (r, cos) = self.box_muller();
        mean + std_dev * r * cos
    }

    /// Normal draw truncated below at `floor`.
    pub fn normal_at_least(&mut self, mean: f64, std_dev: f64, floor: f64) -> f64 {
        self.normal(mean, std_dev).max(floor)
    }

    /// Log-normal draw parameterized by the mean and coefficient of
    /// variation of the *resulting* distribution.
    ///
    /// Service-time variability in the simulator is log-normal, the usual
    /// heavy-ish-tailed model for request service times.
    pub fn lognormal_mean_cv(&mut self, mean: f64, cv: f64) -> f64 {
        if mean <= 0.0 {
            return 0.0;
        }
        match Self::lognormal_params(mean, cv) {
            Some(params) => self.lognormal(params),
            None => mean,
        }
    }

    /// The `(mu, sigma)` of the underlying normal for a log-normal with
    /// the given (positive) mean and coefficient of variation; `None`
    /// when `cv <= 0`, where the distribution is the constant `mean` and
    /// draws nothing. Callers with a fixed `cv` compute this once and
    /// draw through [`SimRng::lognormal`].
    pub(crate) fn lognormal_params(mean: f64, cv: f64) -> Option<(f64, f64)> {
        if cv <= 0.0 {
            return None;
        }
        let sigma2 = (1.0 + cv * cv).ln();
        let mu = mean.ln() - sigma2 / 2.0;
        Some((mu, sigma2.sqrt()))
    }

    /// Log-normal draw from precomputed [`SimRng::lognormal_params`].
    pub(crate) fn lognormal(&mut self, (mu, sigma): (f64, f64)) -> f64 {
        (mu + sigma * self.normal(0.0, 1.0)).exp()
    }

    /// Weighted choice over `weights`; returns the chosen index.
    ///
    /// Non-positive weights are treated as zero. Falls back to the last
    /// index if rounding leaves the cursor past the end.
    ///
    /// # Panics
    ///
    /// Panics if `weights` is empty or all weights are non-positive.
    pub fn weighted_index(&mut self, weights: &[f64]) -> usize {
        assert!(!weights.is_empty(), "weighted_index() requires weights");
        let total: f64 = weights.iter().map(|w| w.max(0.0)).sum();
        assert!(total > 0.0, "weighted_index() requires a positive weight");
        let mut cursor = self.uniform() * total;
        for (i, w) in weights.iter().enumerate() {
            let w = w.max(0.0);
            if cursor < w {
                return i;
            }
            cursor -= w;
        }
        weights.len() - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let mut a = SimRng::new(7);
        let mut b = SimRng::new(7);
        for _ in 0..100 {
            assert_eq!(a.uniform().to_bits(), b.uniform().to_bits());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SimRng::new(1);
        let mut b = SimRng::new(2);
        let same = (0..32).filter(|_| a.uniform() == b.uniform()).count();
        assert!(same < 4);
    }

    #[test]
    fn exponential_mean_close() {
        let mut rng = SimRng::new(3);
        let n = 20_000;
        let mean: f64 = (0..n).map(|_| rng.exponential(4.0)).sum::<f64>() / n as f64;
        assert!((mean - 0.25).abs() < 0.02, "mean was {mean}");
    }

    #[test]
    fn exponential_nonpositive_rate_is_never() {
        let mut rng = SimRng::new(3);
        assert!(rng.exponential(0.0).is_infinite());
        assert!(rng.exponential(-1.0).is_infinite());
    }

    #[test]
    fn normal_moments_close() {
        let mut rng = SimRng::new(5);
        let n = 20_000;
        let xs: Vec<f64> = (0..n).map(|_| rng.normal(10.0, 2.0)).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!((mean - 10.0).abs() < 0.1, "mean was {mean}");
        assert!((var - 4.0).abs() < 0.3, "var was {var}");
    }

    #[test]
    fn lognormal_mean_cv_matches_target() {
        let mut rng = SimRng::new(11);
        let n = 40_000;
        let xs: Vec<f64> = (0..n).map(|_| rng.lognormal_mean_cv(5.0, 0.5)).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        assert!((mean - 5.0).abs() < 0.15, "mean was {mean}");
        assert!(xs.iter().all(|x| *x > 0.0));
    }

    #[test]
    fn lognormal_degenerate_cases() {
        let mut rng = SimRng::new(11);
        assert_eq!(rng.lognormal_mean_cv(0.0, 0.5), 0.0);
        assert_eq!(rng.lognormal_mean_cv(5.0, 0.0), 5.0);
    }

    /// The simulator draws per-chunk noise from parameters tabulated at
    /// build time; that path must be `lognormal_mean_cv(1.0, cv)` to the
    /// last bit, draw for draw, including the `cv <= 0` case that draws
    /// nothing.
    #[test]
    fn tabulated_lognormal_matches_mean_cv_bit_for_bit() {
        for cv in [0.0, 0.15, 0.5, 1.2] {
            let params = SimRng::lognormal_params(1.0, cv);
            let (mut table, mut direct) = (SimRng::new(23), SimRng::new(23));
            for i in 0..10_000 {
                let a = params.map_or(1.0, |p| table.lognormal(p));
                let b = direct.lognormal_mean_cv(1.0, cv);
                assert_eq!(a.to_bits(), b.to_bits(), "cv {cv}, draw {i}");
            }
            assert_eq!(
                table.next_u64(),
                direct.next_u64(),
                "cv {cv}: streams apart"
            );
        }
    }

    #[test]
    fn weighted_index_respects_weights() {
        let mut rng = SimRng::new(13);
        let mut counts = [0usize; 3];
        for _ in 0..30_000 {
            counts[rng.weighted_index(&[1.0, 0.0, 3.0])] += 1;
        }
        assert_eq!(counts[1], 0);
        let ratio = counts[2] as f64 / counts[0] as f64;
        assert!((ratio - 3.0).abs() < 0.3, "ratio was {ratio}");
    }

    #[test]
    fn fork_produces_independent_stream() {
        let mut a = SimRng::new(17);
        let mut child = a.fork();
        // The child stream must not simply mirror the parent.
        let equal = (0..32).filter(|_| a.uniform() == child.uniform()).count();
        assert!(equal < 4);
    }

    #[rustfmt::skip]
    const GOLDEN_BITS: [[u64; 16]; 5] = [
        [ // uniform
            0x3fac_5834_0055_5d20, 0x3fc6_07e4_6efd_274c, 0x3fe6_f662_3676_1a8b, 0x3fdb_5767_da98_c600,
            0x3fee_d64c_7e5e_af20, 0x3fdd_ce16_d89f_08b0, 0x3fe7_2a3f_366c_43d4, 0x3fd5_1c16_d6b7_0078,
            0x3fef_6f2f_e9a2_7380, 0x3fb2_c2b9_fdd9_c110, 0x3fbd_3ee9_ebb9_5710, 0x3fc6_030d_520c_b4d4,
            0x3fe7_7b7b_e0c5_c218, 0x3fbc_f330_5d74_6a18, 0x3fdf_a81a_3c70_7220, 0x3fb8_e718_927f_54e0,
        ],
        [ // uniform_range
            0x3fb7_6de0_4cec_cfb9, 0x3fc6_ec51_b9a4_43e0, 0x3fe2_d263_4272_2d82, 0x3fd7_b4c1_1725_c7b3,
            0x3fe8_ba52_f860_9cf2, 0x3fd9_8dc4_55aa_79b7, 0x3fe2_f949_026a_cc79, 0x3fd3_0844_543c_738d,
            0x3fe9_2cfd_88d3_703a, 0x3fba_ded8_4b30_1d99, 0x3fc1_5dfe_1ecb_e70c, 0x3fc6_e8b0_63ef_ee06,
            0x3fe3_3636_822d_eb2c, 0x3fc1_4198_8972_0e30, 0x3fda_f146_e087_88cb, 0x3fbf_7a1f_3aac_4c75,
        ],
        [ // normal
            0x3fe5_fbc3_39de_fabb, 0xc014_b748_617a_5bcf, 0xc022_69b4_e65e_b485, 0xc006_094c_1ac0_e180,
            0x4023_088e_3da9_76b8, 0x3fee_a962_fe93_aa29, 0x4012_a71e_9d59_4a6c, 0x400d_1f05_2f8b_c585,
            0x3fef_7741_cf11_0af1, 0x3fe1_63a9_9767_05fd, 0xc012_d4f1_e013_6b5d, 0xc019_5b90_ea1e_6e8d,
            0x401c_db23_a1ba_370a, 0x3fd8_55ea_0275_9906, 0xbfe6_dcf8_801a_2352, 0x4017_8788_d3a9_4991,
        ],
        [ // exponential
            0x3f8d_28ca_97ad_c1d6, 0x3fa8_2d49_84fb_1557, 0x3fd4_3ac3_20fc_aa61, 0x3fc1_d4e0_2f6b_93d8,
            0x3fea_84c1_f3bd_295e, 0x3fc4_0ec8_bd70_9f85, 0x3fd4_97a0_09b6_2a45, 0x3fb9_9d7f_9580_b43e,
            0x3ff0_2452_8f29_8e4a, 0x3f93_7bce_ab46_c484, 0x3f9f_0e36_db46_128b, 0x3fa8_2770_ee21_e44b,
            0x3fd5_2d73_7f84_78ff, 0x3f9e_b8c7_4ce4_5f1b, 0x3fc5_d6d5_1803_983d, 0x3f9a_32de_54b7_7582,
        ],
        [ // lognormal
            0x4013_47d7_3b97_735c, 0x4002_3c21_ecef_3ce3, 0x3ff5_cef2_f912_52fd, 0x4008_d9a9_170a_d758,
            0x402d_c332_fe26_c8fd, 0x4013_f5ba_d65f_6966, 0x4020_0424_743d_7a49, 0x401c_1c36_608a_32ea,
            0x4014_0626_8331_14d3, 0x4012_ee31_ce5f_9795, 0x4003_5d79_120d_e979, 0x3fff_72a7_4bca_7370,
            0x4026_2e7a_dd5e_b487, 0x4012_8a48_1f68_c00a, 0x4010_1f32_55c9_fdfc, 0x4022_b6ad_67cc_fab4,
        ],
    ];

    /// The first 16 draws of each distribution at seed 7, captured as bit
    /// patterns before the shared draws moved onto `firm_rng::Xoshiro256`:
    /// draw order and rounding are digest-critical, so a refactor holds
    /// these exactly or is reverted.
    #[test]
    fn golden_vectors() {
        fn first16(mut draw: impl FnMut(&mut SimRng) -> u64) -> [u64; 16] {
            let mut rng = SimRng::new(7);
            std::array::from_fn(|_| draw(&mut rng))
        }
        let [uniform, uniform_range, normal, exponential, lognormal] = GOLDEN_BITS;
        assert_eq!(first16(|r| r.uniform().to_bits()), uniform);
        assert_eq!(
            first16(|r| r.uniform_range(0.05, 0.8).to_bits()),
            uniform_range
        );
        assert_eq!(first16(|r| r.normal(0.1, 3.7).to_bits()), normal);
        assert_eq!(first16(|r| r.exponential(4.0).to_bits()), exponential);
        assert_eq!(
            first16(|r| r.lognormal_mean_cv(5.0, 0.5).to_bits()),
            lognormal
        );
        assert_eq!(
            first16(|r| r.index(7) as u64),
            [0, 1, 5, 2, 6, 3, 5, 2, 6, 0, 0, 1, 5, 0, 3, 0]
        );
        assert_eq!(
            first16(|r| r.weighted_index(&[1.0, 0.0, 3.0, 2.5]) as u64),
            [0, 2, 3, 2, 3, 2, 3, 2, 3, 0, 0, 2, 3, 0, 2, 0]
        );
    }

    #[test]
    fn chance_extremes() {
        let mut rng = SimRng::new(19);
        assert!(!rng.chance(0.0));
        assert!(rng.chance(1.0));
    }
}
