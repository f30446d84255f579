//! Swiftiles: the one-shot statistical tile-size estimator (§4.2).
//!
//! Swiftiles picks a coordinate-space tile size such that approximately `y%`
//! of tiles *overbook* a buffer of capacity `b` nonzeros, in three steps:
//!
//! 1. **Initial estimate** (§4.2.1): `T_initial = b / (1 - s)` where `s` is
//!    the tensor's global sparsity — computable in constant time from shape
//!    and nnz alone.
//! 2. **Tile sampling** (§4.2.2): tile the tensor at `T_initial` and sample
//!    `k / y` random tile occupancies, so that `k` samples are expected in
//!    the top-`y%` tail regardless of `y`.
//! 3. **Distribution scaling** (§4.2.3): select the occupancy `Q_y` that
//!    `y%` of sampled tiles exceed — one order statistic, found in
//!    O(k / y) without sorting the samples — and linearly scale
//!    `T_target = T_initial × b / Q_y`, assuming the occupancy distribution
//!    shape is stable under small tile-size changes.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use tailors_tensor::stats::overbooking_quantile;
use tailors_tensor::tiling::RowPanels;
use tailors_tensor::MatrixProfile;

use crate::CoreError;

/// Configuration for a Swiftiles estimation run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SwiftilesConfig {
    /// Target overbooking rate `y` as a fraction in `[0, 1]` (the paper's
    /// default operating point is 0.10).
    pub y: f64,
    /// Number of samples expected to land in the top-`y%` tail; the total
    /// sample budget is `k / y`. `k = 0` disables sampling entirely and the
    /// initial estimate is used as-is (Fig. 12's leftmost point).
    pub k: usize,
    /// Sample every tile instead of `k / y` random ones (Fig. 11's setup).
    pub sample_all: bool,
    /// RNG seed for sample selection.
    pub seed: u64,
}

impl SwiftilesConfig {
    /// Creates a configuration targeting overbooking rate `y` with sample
    /// parameter `k`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::BadParameter`] if `y` is outside `[0, 1]` or not
    /// finite.
    pub fn new(y: f64, k: usize) -> Result<Self, CoreError> {
        if !y.is_finite() || !(0.0..=1.0).contains(&y) {
            return Err(CoreError::BadParameter("y must be a fraction in [0, 1]"));
        }
        Ok(SwiftilesConfig {
            y,
            k,
            sample_all: false,
            seed: 0,
        })
    }

    /// Samples every tile (exact occupancy distribution at `T_initial`).
    pub fn sample_all(mut self) -> Self {
        self.sample_all = true;
        self
    }

    /// Overrides the sampling seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Total number of tiles to sample from a population of `n_tiles`.
    pub fn sample_budget(&self, n_tiles: usize) -> usize {
        if self.sample_all {
            return n_tiles;
        }
        if self.k == 0 {
            return 0;
        }
        // k samples in the top-y tail needs k / y total; for y = 0 ("no
        // tile may overbook") fall back to a large multiple so the sampled
        // maximum is a meaningful stand-in for the true maximum.
        let budget = if self.y > 0.0 {
            (self.k as f64 / self.y).ceil() as usize
        } else {
            self.k * 100
        };
        budget.min(n_tiles)
    }
}

/// The outcome of a Swiftiles estimation (all three steps).
#[derive(Debug, Clone, PartialEq)]
pub struct SwiftilesEstimate {
    /// Initial tile size `T_initial` in coordinate-space elements.
    pub t_initial: u64,
    /// Rows per tile corresponding to `T_initial` (row panels spanning `K`).
    pub rows_initial: usize,
    /// Sampled tile occupancies at `T_initial` (empty when `k = 0`).
    pub samples: Vec<u64>,
    /// The `y%`-tail quantile of the samples (`Q_y`); `None` when no
    /// sampling occurred.
    pub q_y: Option<u64>,
    /// Final predicted tile size `T_target` in coordinate-space elements.
    pub t_target: u64,
    /// Rows per tile corresponding to `T_target`.
    pub rows_target: usize,
    /// Preprocessing cost: total nonzeros inspected while sampling (the
    /// overbooking row of Table 1's "tiling tax").
    pub sampling_nnz_touched: u64,
}

/// The Swiftiles estimator.
///
/// See the [module docs](self) for the algorithm; see
/// [`SwiftilesEstimate`] for everything a run reports.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Swiftiles {
    config: SwiftilesConfig,
}

impl Swiftiles {
    /// Creates an estimator with the given configuration.
    pub fn new(config: SwiftilesConfig) -> Self {
        Swiftiles { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> SwiftilesConfig {
        self.config
    }

    /// Runs the three-step estimation against `profile` for a buffer of
    /// `capacity` nonzeros.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0` or the profile is empty of nonzeros (no
    /// meaningful tile size exists).
    pub fn estimate(&self, profile: &MatrixProfile, capacity: u64) -> SwiftilesEstimate {
        assert!(capacity > 0, "buffer capacity must be positive");
        assert!(profile.nnz() > 0, "cannot size tiles for an empty tensor");

        // Step 1: initial estimate from global density only.
        let density = profile.density().max(f64::MIN_POSITIVE);
        let t_initial = (capacity as f64 / density).ceil() as u64;
        let rows_initial = rows_for_size(profile, t_initial);

        // Step 2: sample tile occupancies at T_initial. The tile indices
        // are drawn from the seeded RNG, and each occupancy is an O(1)
        // prefix-sum difference, so the whole step is one serial pass.
        let panels = RowPanels::new(profile, rows_initial);
        let n_tiles = panels.n_tiles();
        let budget = self.config.sample_budget(n_tiles);
        let mut rng = StdRng::seed_from_u64(self.config.seed ^ 0x5317_F71E_5EED_0001);
        let samples: Vec<u64> = if budget >= n_tiles {
            (0..n_tiles).map(|i| panels.occupancy(i)).collect()
        } else {
            (0..budget)
                .map(|_| panels.occupancy(rng.gen_range(0..n_tiles)))
                .collect()
        };
        let sampling_nnz_touched = samples.iter().sum();

        // Step 3: scale so the y-tail quantile exactly fills the buffer.
        // `overbooking_quantile` selects it from a copy; `samples` stays in
        // draw order.
        let (q_y, t_target) = if samples.is_empty() {
            (None, t_initial)
        } else {
            let q = overbooking_quantile(&samples, self.config.y).max(1);
            let target = (t_initial as f64 * capacity as f64 / q as f64).ceil() as u64;
            (Some(q), target.max(1))
        };
        let rows_target = rows_for_size(profile, t_target);

        SwiftilesEstimate {
            t_initial,
            rows_initial,
            samples,
            q_y,
            t_target,
            rows_target,
            sampling_nnz_touched,
        }
    }
}

/// Converts a coordinate-space tile size into whole rows of a row panel
/// (`K`-spanning tiles), clamped to `[1, nrows]`.
pub fn rows_for_size(profile: &MatrixProfile, tile_size: u64) -> usize {
    let ncols = profile.ncols().max(1) as u64;
    let rows = (tile_size / ncols).max(1);
    (rows as usize).min(profile.nrows().max(1))
}

/// Measures the *achieved* overbooking rate when tiling `profile` with
/// `rows_per_tile`-row panels against a buffer of `capacity` nonzeros —
/// the ground truth Figs. 11-12 compare Swiftiles' predictions to.
pub fn achieved_overbooking_rate(
    profile: &MatrixProfile,
    rows_per_tile: usize,
    capacity: u64,
) -> f64 {
    RowPanels::new(profile, rows_per_tile).overbooking_rate(capacity)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tailors_tensor::gen::GenSpec;

    fn test_profile() -> MatrixProfile {
        GenSpec::power_law(20_000, 20_000, 150_000)
            .seed(7)
            .generate()
            .profile()
    }

    #[test]
    fn config_validates_y() {
        assert!(SwiftilesConfig::new(-0.1, 5).is_err());
        assert!(SwiftilesConfig::new(1.5, 5).is_err());
        assert!(SwiftilesConfig::new(f64::NAN, 5).is_err());
        assert!(SwiftilesConfig::new(0.1, 5).is_ok());
    }

    #[test]
    fn sample_budget_scales_inversely_with_y() {
        let c10 = SwiftilesConfig::new(0.10, 10).unwrap();
        assert_eq!(c10.sample_budget(10_000), 100);
        let c50 = SwiftilesConfig::new(0.50, 10).unwrap();
        assert_eq!(c50.sample_budget(10_000), 20);
        let zero_k = SwiftilesConfig::new(0.10, 0).unwrap();
        assert_eq!(zero_k.sample_budget(10_000), 0);
        let all = SwiftilesConfig::new(0.10, 10).unwrap().sample_all();
        assert_eq!(all.sample_budget(123), 123);
        // Budget never exceeds the population.
        assert_eq!(c10.sample_budget(50), 50);
    }

    #[test]
    fn initial_estimate_matches_formula() {
        let profile = test_profile();
        let est = Swiftiles::new(SwiftilesConfig::new(0.1, 0).unwrap()).estimate(&profile, 2_048);
        let expected = (2_048.0 / profile.density()).ceil() as u64;
        assert_eq!(est.t_initial, expected);
        // k = 0: no sampling, target falls back to the initial estimate.
        assert!(est.samples.is_empty());
        assert_eq!(est.q_y, None);
        assert_eq!(est.t_target, est.t_initial);
        assert_eq!(est.sampling_nnz_touched, 0);
    }

    #[test]
    fn scaling_pulls_overbooking_toward_target() {
        let profile = test_profile();
        let capacity = 2_048;
        let y = 0.10;
        let config = SwiftilesConfig::new(y, 10).unwrap().sample_all();
        let est = Swiftiles::new(config).estimate(&profile, capacity);
        let initial_rate = achieved_overbooking_rate(&profile, est.rows_initial, capacity);
        let target_rate = achieved_overbooking_rate(&profile, est.rows_target, capacity);
        // The scaled prediction must land closer to y than the raw initial
        // estimate does (Fig. 11's whole point).
        assert!(
            (target_rate - y).abs() <= (initial_rate - y).abs() + 0.02,
            "initial {initial_rate:.3}, scaled {target_rate:.3}, target {y}"
        );
    }

    #[test]
    fn sampled_estimation_is_deterministic_per_seed() {
        let profile = test_profile();
        let config = SwiftilesConfig::new(0.1, 10).unwrap().seed(3);
        let a = Swiftiles::new(config).estimate(&profile, 1_024);
        let b = Swiftiles::new(config).estimate(&profile, 1_024);
        assert_eq!(a, b);
        let c = Swiftiles::new(config.seed(4)).estimate(&profile, 1_024);
        // Different seeds may sample different tiles (targets may differ).
        assert_eq!(a.t_initial, c.t_initial);
    }

    #[test]
    fn larger_y_yields_larger_tiles() {
        // Allowing more tiles to overbook must never shrink the tile size.
        let profile = test_profile();
        let capacity = 2_048;
        let mut last = 0u64;
        for y in [0.0, 0.05, 0.1, 0.25, 0.5, 0.9] {
            let config = SwiftilesConfig::new(y, 10).unwrap().sample_all();
            let est = Swiftiles::new(config).estimate(&profile, capacity);
            assert!(
                est.t_target >= last,
                "t_target should grow with y (y={y}: {} < {last})",
                est.t_target
            );
            last = est.t_target;
        }
    }

    #[test]
    fn rows_for_size_clamps() {
        let profile = MatrixProfile::new(10, 100, vec![1; 10], {
            let mut v = vec![0u32; 100];
            v[..10].fill(1);
            v
        });
        assert_eq!(rows_for_size(&profile, 50), 1); // < one row
        assert_eq!(rows_for_size(&profile, 250), 2);
        assert_eq!(rows_for_size(&profile, 1_000_000), 10); // > whole tensor
    }

    #[test]
    fn sampling_tax_counts_touched_nonzeros() {
        let profile = test_profile();
        let config = SwiftilesConfig::new(0.1, 10).unwrap();
        // A small capacity gives many tiles, so the k/y budget is a real
        // subsample rather than a full traversal.
        let est = Swiftiles::new(config).estimate(&profile, 256);
        assert_eq!(est.sampling_nnz_touched, est.samples.iter().sum::<u64>());
        // Sampling must touch far less than the full tensor (the efficiency
        // claim vs prescient tiling).
        assert!(est.sampling_nnz_touched < profile.nnz());
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_panics() {
        let profile = test_profile();
        let _ = Swiftiles::new(SwiftilesConfig::new(0.1, 1).unwrap()).estimate(&profile, 0);
    }
}
