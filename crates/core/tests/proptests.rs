//! Property-based tests for Swiftiles and the tiling strategies.

use proptest::prelude::*;
use tailors_core::swiftiles::{rows_for_size, Swiftiles, SwiftilesConfig};
use tailors_core::TilingStrategy;
use tailors_tensor::gen::GenSpec;
use tailors_tensor::tiling::RowPanels;
use tailors_tensor::MatrixProfile;

fn random_profile(seed: u64, heavy: bool) -> MatrixProfile {
    let spec = if heavy {
        GenSpec::power_law(3_000, 3_000, 30_000)
    } else {
        GenSpec::uniform(3_000, 3_000, 30_000)
    };
    spec.seed(seed).generate().profile()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Swiftiles always returns a usable plan: rows within bounds, target
    /// size positive, sampling within budget.
    #[test]
    fn swiftiles_output_is_well_formed(
        seed in 0u64..50,
        capacity in 64u64..20_000,
        y in 0.0f64..1.0,
        k in 0usize..30,
        heavy in proptest::bool::ANY,
    ) {
        let profile = random_profile(seed, heavy);
        let config = SwiftilesConfig::new(y, k).unwrap().seed(seed);
        let est = Swiftiles::new(config).estimate(&profile, capacity);
        prop_assert!(est.rows_initial >= 1 && est.rows_initial <= profile.nrows());
        prop_assert!(est.rows_target >= 1 && est.rows_target <= profile.nrows());
        prop_assert!(est.t_target >= 1);
        let n_tiles = RowPanels::new(&profile, est.rows_initial).n_tiles();
        prop_assert!(est.samples.len() <= n_tiles.max(config.sample_budget(n_tiles)));
        if k == 0 {
            prop_assert_eq!(est.t_target, est.t_initial);
        }
    }

    /// The target tile size scales monotonically with buffer capacity.
    #[test]
    fn swiftiles_monotone_in_capacity(seed in 0u64..20) {
        let profile = random_profile(seed, true);
        let config = SwiftilesConfig::new(0.10, 10).unwrap().sample_all();
        let mut last = 0u64;
        for capacity in [128u64, 512, 2_048, 8_192, 32_768] {
            let est = Swiftiles::new(config).estimate(&profile, capacity);
            prop_assert!(
                est.t_target >= last,
                "t_target must grow with capacity"
            );
            last = est.t_target;
        }
    }

    /// Prescient tiling never overbooks, for any capacity, on any profile.
    #[test]
    fn prescient_never_overbooks(
        seed in 0u64..30,
        capacity in 16u64..50_000,
        heavy in proptest::bool::ANY,
    ) {
        let profile = random_profile(seed, heavy);
        let choice = TilingStrategy::PrescientUniformShape.choose(&profile, capacity);
        let panels = RowPanels::new(&profile, choice.rows_per_tile);
        // Either every tile fits, or the minimum granularity (single rows)
        // is itself too large — in which case rows_per_tile must be 1.
        if panels.max_occupancy() > capacity {
            prop_assert_eq!(choice.rows_per_tile, 1);
        } else {
            prop_assert_eq!(choice.overbooking_rate, 0.0);
        }
    }

    /// Utilization and overbooking rate are valid fractions for every
    /// strategy.
    #[test]
    fn strategy_outputs_are_fractions(
        seed in 0u64..20,
        capacity in 64u64..20_000,
    ) {
        let profile = random_profile(seed, true);
        for strategy in [
            TilingStrategy::UniformShape,
            TilingStrategy::PrescientUniformShape,
            TilingStrategy::UniformOccupancy,
            TilingStrategy::Overbooked(SwiftilesConfig::new(0.10, 5).unwrap()),
        ] {
            let c = strategy.choose(&profile, capacity);
            prop_assert!((0.0..=1.0).contains(&c.mean_utilization), "{strategy:?}");
            prop_assert!((0.0..=1.0).contains(&c.overbooking_rate), "{strategy:?}");
            prop_assert!(c.n_tiles >= 1);
            prop_assert!(c.rows_per_tile >= 1);
        }
    }

    /// The heights-only path the accelerator variants plan with picks
    /// exactly the height `choose` reports, for every strategy, at a
    /// one-slot buffer, the ExTensor PE (2 184) and working-tile
    /// (559 104) capacities, a drawn capacity, and one above `nnz`.
    #[test]
    fn rows_per_tile_matches_choose(
        seed in 0u64..30,
        drawn in 2u64..30_000,
        heavy in proptest::bool::ANY,
    ) {
        let profile = random_profile(seed, heavy);
        let config = SwiftilesConfig::new(0.10, 10).unwrap().seed(seed);
        for strategy in [
            TilingStrategy::UniformShape,
            TilingStrategy::PrescientUniformShape,
            TilingStrategy::UniformOccupancy,
            TilingStrategy::Overbooked(config),
        ] {
            for capacity in [1, 2_184, 559_104, drawn, profile.nnz() + 1] {
                prop_assert_eq!(
                    strategy.rows_per_tile(&profile, capacity),
                    strategy.choose(&profile, capacity).rows_per_tile,
                    "{:?} at capacity {}", strategy, capacity
                );
            }
        }
    }

    /// rows_for_size is monotone and clamped.
    #[test]
    fn rows_for_size_properties(size_a in 1u64..1_000_000, size_b in 1u64..1_000_000) {
        let profile = random_profile(1, false);
        let (lo, hi) = if size_a <= size_b { (size_a, size_b) } else { (size_b, size_a) };
        let ra = rows_for_size(&profile, lo);
        let rb = rows_for_size(&profile, hi);
        prop_assert!(ra <= rb);
        prop_assert!(ra >= 1 && rb <= profile.nrows());
    }
}
