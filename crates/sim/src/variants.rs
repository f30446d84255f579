//! The three evaluated accelerator variants (paper §5.2): ExTensor-N,
//! ExTensor-P, and ExTensor-OB, as tile-plan constructors over a common
//! architecture.

use tailors_core::swiftiles::SwiftilesConfig;
use tailors_core::TilingStrategy;
use tailors_tensor::MatrixProfile;

use crate::arch::ArchConfig;
use crate::dataflow::{simulate, simulate_planned};
use crate::exec::{AutoPlanner, BufferParams, ExecutionPlan, GridMode, MemBudget};
use crate::metrics::RunMetrics;
use crate::plan::TilePlan;

/// An accelerator variant: a tiling policy over the shared ExTensor
/// substrate.
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub enum Variant {
    /// Original ExTensor without preprocessing: uniform-shape dense-safe
    /// tiles (coordinate-space size bounded by capacity) at both levels.
    ExTensorN,
    /// ExTensor with prescient uniform-shape tiling: the largest `K`-
    /// spanning panels whose fullest tile still fits each buffer.
    ExTensorP,
    /// ExTensor with overbooking: Swiftiles-sized panels (target rate `y`,
    /// sample parameter `k`) backed by Tailors at both levels.
    ExTensorOB {
        /// Target overbooking rate (paper default 0.10).
        y: f64,
        /// Swiftiles sample parameter (paper default 10).
        k: usize,
    },
}

/// The cacheable identity of a [`Variant`] (see [`Variant::cache_key`]):
/// the discriminant plus, for the overbooked variant, `y` by bit pattern
/// and `k` — so the key is `Eq + Hash` even though `Variant` carries an
/// `f64`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VariantKey {
    /// [`Variant::ExTensorN`].
    N,
    /// [`Variant::ExTensorP`].
    P,
    /// [`Variant::ExTensorOB`] with `y` captured via `f64::to_bits`.
    Ob {
        /// Bit pattern of the target overbooking rate.
        y_bits: u64,
        /// Swiftiles sample parameter.
        k: usize,
    },
}

impl Variant {
    /// The paper's default overbooked configuration (`y = 10 %, k = 10`).
    pub fn default_ob() -> Self {
        Variant::ExTensorOB { y: 0.10, k: 10 }
    }

    /// A hashable identity for this variant, for keying caches of derived
    /// artifacts (tile plans, execution plans, run metrics). Two variants
    /// produce equal keys iff they plan identically (`y` compares by bit
    /// pattern).
    pub fn cache_key(&self) -> VariantKey {
        match self {
            Variant::ExTensorN => VariantKey::N,
            Variant::ExTensorP => VariantKey::P,
            Variant::ExTensorOB { y, k } => VariantKey::Ob {
                y_bits: y.to_bits(),
                k: *k,
            },
        }
    }

    /// Short display name.
    pub fn name(&self) -> &'static str {
        match self {
            Variant::ExTensorN => "ExTensor-N",
            Variant::ExTensorP => "ExTensor-P",
            Variant::ExTensorOB { .. } => "ExTensor-OB",
        }
    }

    /// Builds this variant's tile plan for a workload.
    ///
    /// # Panics
    ///
    /// Panics if the profile has no nonzeros or an overbooked variant has
    /// an invalid `y`.
    pub fn plan(&self, profile: &MatrixProfile, arch: &ArchConfig) -> TilePlan {
        let cap_gb = arch.tile_capacity();
        let cap_pe = arch.pe_operand_capacity();
        match self {
            Variant::ExTensorN => {
                // The paper's ExTensor-N uses fixed 128×128 coordinate-space
                // PE tiles regardless of sparsity (§5.2). Keeping output
                // accumulation on-chip then forces the schedule to complete
                // full-K strips of 128 rows at a time, and every strip
                // triggers a fresh pass over the matching slices of B — the
                // "very low buffer utilization" row of Table 1. Strips are
                // dense-safe, so occupancy accounting never applies.
                let side = 128usize;
                TilePlan {
                    gb_rows_a: side,
                    gb_cols_b: side,
                    pe_rows_a: side,
                    pe_cols_b: side,
                    full_k: false,
                    overbooking: false,
                }
                .normalized(profile.nrows())
            }
            Variant::ExTensorP => {
                let gb = TilingStrategy::PrescientUniformShape.choose(profile, cap_gb);
                let pe = TilingStrategy::PrescientUniformShape.choose(profile, cap_pe);
                TilePlan {
                    gb_rows_a: gb.rows_per_tile,
                    gb_cols_b: gb.rows_per_tile,
                    pe_rows_a: pe.rows_per_tile,
                    pe_cols_b: pe.rows_per_tile,
                    full_k: true,
                    overbooking: false,
                }
                .normalized(profile.nrows())
            }
            Variant::ExTensorOB { y, k } => {
                let config =
                    SwiftilesConfig::new(*y, *k).expect("overbooked variant requires valid y");
                let gb = TilingStrategy::Overbooked(config).choose(profile, cap_gb);
                let pe = TilingStrategy::Overbooked(config).choose(profile, cap_pe);
                TilePlan {
                    gb_rows_a: gb.rows_per_tile,
                    gb_cols_b: gb.rows_per_tile,
                    pe_rows_a: pe.rows_per_tile,
                    pe_cols_b: pe.rows_per_tile,
                    full_k: true,
                    overbooking: true,
                }
                .normalized(profile.nrows())
            }
        }
    }

    /// The memory-governed [`ExecutionPlan`] for a functional replay of
    /// this variant's tiling `tile` (from [`Variant::plan`], passed in so
    /// callers that already paid for the Swiftiles-sampling stage do not
    /// pay twice). The one place a fixed-or-auto plan is decided:
    ///
    /// * `auto: false` keeps the variant's panel height —
    ///   [`ExecutionPlan::for_tile_plan`], with `budget` grouping streamed
    ///   tiles into scratch-bounded column blocks;
    /// * `auto: true` co-optimizes the panel height against the
    ///   column-block width `budget` induces through the [`AutoPlanner`],
    ///   keeping the variant's streamed tile width and buffer discipline,
    ///   with `tile.gb_rows_a` as the baseline candidate. The refetch
    ///   term is priced against the architecture's working-tile
    ///   capacity — the same buffer a functional replay drives — so the
    ///   engine's internal auto plan
    ///   ([`functional::auto_execution_plan`](crate::functional::auto_execution_plan))
    ///   lands on the identical tiling and serve-cache replays stay exact.
    ///
    /// Either way the modeled hardware counts are untouched; only
    /// [`RunMetrics::scratch`] depends on the choice.
    pub fn execution_plan(
        &self,
        profile: &MatrixProfile,
        arch: &ArchConfig,
        budget: MemBudget,
        tile: &TilePlan,
        auto: bool,
    ) -> ExecutionPlan {
        if !auto {
            return ExecutionPlan::for_tile_plan(profile.nrows(), profile.ncols(), tile, budget);
        }
        AutoPlanner::new(profile, tile.gb_cols_b.max(1), budget)
            .with_buffer(BufferParams {
                capacity: (arch.tile_capacity() as usize).max(1),
                fifo_region: arch.gb_fifo_region() as usize,
                overbooking: tile.overbooking,
            })
            .with_baseline(tile.gb_rows_a.max(1))
            .plan()
    }

    /// Plans and simulates this variant on a workload in one call.
    pub fn run(&self, profile: &MatrixProfile, arch: &ArchConfig) -> RunMetrics {
        simulate(profile, arch, self.plan(profile, arch))
    }

    /// [`Variant::run`] under a per-thread scratch budget and a functional
    /// [`GridMode`]: hardware counts are unchanged, and the recorded
    /// [`RunMetrics::scratch`] reports the fixed execution plan `budget`
    /// induces and how many independent work units a functional replay
    /// would fan out (`panels × blocks` under [`GridMode::Grid2D`]).
    pub fn run_gridded(
        &self,
        profile: &MatrixProfile,
        arch: &ArchConfig,
        budget: MemBudget,
        grid: GridMode,
    ) -> RunMetrics {
        let tile = self.plan(profile, arch);
        let exec = self.execution_plan(profile, arch, budget, &tile, false);
        simulate_planned(profile, arch, tile, &exec, grid)
    }

    /// [`Variant::run_gridded`] with the planning stages precomputed: the
    /// tile plan (`tile`, from [`Variant::plan`] — the expensive stage for
    /// the Swiftiles-governed variant, which samples occupancies) and the
    /// memory-governed execution plan (`exec`, from
    /// [`Variant::execution_plan`] with the same tile plan).
    ///
    /// This is the cache-consumer entry point: given the same profile and
    /// plans, it is a pure function, bit-identical to
    /// [`Variant::run_gridded`] — `tailors-serve` keys both plans by
    /// (matrix identity, [`Variant::cache_key`],
    /// [`ArchConfig::cache_key`](crate::arch::ArchConfig::cache_key),
    /// budget) and replays them here, skipping plan construction on hot
    /// requests.
    ///
    /// # Panics
    ///
    /// As [`simulate_planned`]; additionally (debug builds) if `exec` was
    /// not derived from `tile` under `exec.budget()`.
    pub fn run_planned(
        &self,
        profile: &MatrixProfile,
        arch: &ArchConfig,
        tile: &TilePlan,
        exec: &ExecutionPlan,
        grid: GridMode,
    ) -> RunMetrics {
        simulate_planned(profile, arch, *tile, exec, grid)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tailors_tensor::gen::GenSpec;

    fn profile() -> MatrixProfile {
        GenSpec::power_law(60_000, 60_000, 600_000)
            .seed(21)
            .generate()
            .profile()
    }

    #[test]
    fn variant_names() {
        assert_eq!(Variant::ExTensorN.name(), "ExTensor-N");
        assert_eq!(Variant::ExTensorP.name(), "ExTensor-P");
        assert_eq!(Variant::default_ob().name(), "ExTensor-OB");
    }

    #[test]
    fn n_plan_is_dense_safe() {
        let p = profile();
        let arch = ArchConfig::extensor();
        let plan = Variant::ExTensorN.plan(&p, &arch);
        assert!(!plan.full_k);
        assert!(!plan.overbooking);
        // A dense tile of this shape fits the operand partition.
        assert!((plan.gb_rows_a as u64) * (plan.gb_rows_a as u64) <= arch.gb_operand_capacity());
    }

    #[test]
    fn p_plan_never_overbooks() {
        let p = profile();
        let arch = ArchConfig::extensor();
        let m = Variant::ExTensorP.run(&p, &arch);
        assert_eq!(m.reuse.overbooked_a_tiles, 0);
        assert_eq!(m.dram.overbook_extra, 0);
    }

    #[test]
    fn ob_uses_larger_tiles_than_p() {
        let p = profile();
        let arch = ArchConfig::extensor();
        let plan_p = Variant::ExTensorP.plan(&p, &arch);
        let plan_ob = Variant::default_ob().plan(&p, &arch);
        assert!(
            plan_ob.gb_rows_a >= plan_p.gb_rows_a,
            "overbooking should allow at least prescient-sized tiles \
             (ob {} vs p {})",
            plan_ob.gb_rows_a,
            plan_p.gb_rows_a
        );
        assert!(plan_ob.overbooking);
    }

    #[test]
    fn cache_keys_distinguish_variants() {
        assert_eq!(
            Variant::ExTensorN.cache_key(),
            Variant::ExTensorN.cache_key()
        );
        assert_ne!(
            Variant::ExTensorN.cache_key(),
            Variant::ExTensorP.cache_key()
        );
        assert_eq!(
            Variant::default_ob().cache_key(),
            Variant::ExTensorOB { y: 0.10, k: 10 }.cache_key()
        );
        assert_ne!(
            Variant::default_ob().cache_key(),
            Variant::ExTensorOB { y: 0.20, k: 10 }.cache_key()
        );
        assert_ne!(
            Variant::default_ob().cache_key(),
            Variant::ExTensorOB { y: 0.10, k: 11 }.cache_key()
        );
    }

    #[test]
    fn run_planned_replays_cached_plans_bit_identically() {
        let p = profile();
        let arch = ArchConfig::extensor();
        let budget = MemBudget::mib(64);
        for v in [
            Variant::ExTensorN,
            Variant::ExTensorP,
            Variant::default_ob(),
        ] {
            for grid in [GridMode::Panels, GridMode::Grid2D] {
                let direct = v.run_gridded(&p, &arch, budget, grid);
                let tile = v.plan(&p, &arch);
                let exec = v.execution_plan(&p, &arch, budget, &tile, false);
                let replayed = v.run_planned(&p, &arch, &tile, &exec, grid);
                assert_eq!(direct, replayed, "{} {grid}", v.name());
                assert_eq!(direct.cycles.to_bits(), replayed.cycles.to_bits());
                assert_eq!(direct.energy_pj.to_bits(), replayed.energy_pj.to_bits());
            }
        }
    }

    #[test]
    fn paper_ordering_on_a_heavy_tailed_workload() {
        let p = profile();
        let arch = ArchConfig::extensor();
        let n = Variant::ExTensorN.run(&p, &arch);
        let pp = Variant::ExTensorP.run(&p, &arch);
        let ob = Variant::default_ob().run(&p, &arch);
        // Fig. 7's ordering: P beats N, OB beats P on variable tensors.
        assert!(pp.speedup_over(&n) > 1.0, "P should beat N");
        assert!(
            ob.speedup_over(&pp) > 1.0,
            "OB should beat P on a heavy-tailed tensor: {}",
            ob.speedup_over(&pp)
        );
        // Fig. 8's ordering for energy.
        assert!(ob.energy_gain_over(&n) > 1.0);
    }
}
