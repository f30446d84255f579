//! Property tests: the rewritten functional engine (CSR-slice walking
//! once per column block with one B-row cursor per panel element,
//! bitmask-blocked dense panel scratch,
//! cost-balanced rayon fan-out, memory-governed column blocking) is
//! bit-identical to the retained seed engine on arbitrary inputs and
//! configurations — output matrix, DRAM traffic counts and
//! overbooked-tile counts alike; a budgeted column-split run is
//! bit-identical to the unbudgeted path for arbitrary budgets, tilings,
//! and thread counts, including budgets smaller than a single column
//! block; and the 2-D (panel × block) grid mode reports block-local
//! traffic whose closed-form charges sum *exactly* to the whole-panel
//! totals at every thread count.

use proptest::prelude::*;
use tailors_sim::functional::{
    auto_execution_plan, reference_run, run_grid, run_with_threads, FunctionalConfig,
};
use tailors_sim::{AutoPlanner, BufferParams, GridMode, MemBudget};
use tailors_tensor::gen::GenSpec;
use tailors_tensor::ops::spmspm_a_at;
use tailors_tensor::CsrMatrix;

fn check_equivalent(a: &CsrMatrix, config: &FunctionalConfig, threads: usize) {
    let new = run_with_threads(a, config, threads).expect("rewritten engine");
    let old = reference_run(a, config).expect("seed engine");
    assert_eq!(
        new.z, old.z,
        "output mismatch: {config:?} threads={threads}"
    );
    assert_eq!(new.dram_a_fetches, old.dram_a_fetches, "{config:?}");
    assert_eq!(new.dram_b_fetches, old.dram_b_fetches, "{config:?}");
    assert_eq!(new.overbooked_a_tiles, old.overbooked_a_tiles, "{config:?}");
    // And both equal the untiled kernel bit for bit.
    assert_eq!(new.z, spmspm_a_at(a), "{config:?}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random structure × random tiling × random buffer sizing × random
    /// thread count: everything the two engines report must agree.
    #[test]
    fn engines_agree_on_random_inputs(
        seed in 0u64..40,
        heavy in proptest::bool::ANY,
        capacity in 8usize..120,
        fifo_frac in 1usize..90,
        rows_a in 1usize..70,
        cols_b in 1usize..70,
        overbooking in proptest::bool::ANY,
        threads in 1usize..5,
    ) {
        let spec = if heavy {
            GenSpec::power_law(48, 48, 400)
        } else {
            GenSpec::uniform(48, 48, 300)
        };
        let a = spec.seed(seed).generate();
        let config = FunctionalConfig {
            capacity,
            fifo_region: (capacity * fifo_frac / 100).clamp(1, capacity - 1),
            rows_a,
            cols_b,
            overbooking,
            mem_budget: MemBudget::Unbounded,
            grid: GridMode::Panels,
            auto_plan: false,
        };
        check_equivalent(&a, &config, threads);
    }

    /// Random budget × random tiling × random thread count: the budgeted
    /// column-split run must equal the unbudgeted path *and* the seed
    /// engine in every reported field. `budget_bytes` spans everything
    /// from 0 (smaller than any column block: the planner clamps to a
    /// single streamed tile) to more than the widest possible scratch.
    #[test]
    fn budgeted_column_split_is_bit_identical(
        seed in 0u64..40,
        heavy in proptest::bool::ANY,
        capacity in 8usize..120,
        fifo_frac in 1usize..90,
        rows_a in 1usize..70,
        cols_b in 1usize..70,
        overbooking in proptest::bool::ANY,
        threads in 1usize..5,
        budget_bytes in 0u64..40_000,
        grid2d in proptest::bool::ANY,
    ) {
        let spec = if heavy {
            GenSpec::power_law(48, 48, 400)
        } else {
            GenSpec::uniform(48, 48, 300)
        };
        let a = spec.seed(seed).generate();
        let base = FunctionalConfig {
            capacity,
            fifo_region: (capacity * fifo_frac / 100).clamp(1, capacity - 1),
            rows_a,
            cols_b,
            overbooking,
            mem_budget: MemBudget::Unbounded,
            grid: GridMode::Panels,
            auto_plan: false,
        };
        let budgeted_config = FunctionalConfig {
            mem_budget: MemBudget::bytes(budget_bytes),
            grid: if grid2d { GridMode::Grid2D } else { GridMode::Panels },
            auto_plan: false,
            ..base
        };
        let unbudgeted = run_with_threads(&a, &base, 1).expect("unbudgeted run");
        let budgeted = run_with_threads(&a, &budgeted_config, threads).expect("budgeted run");
        prop_assert_eq!(&budgeted, &unbudgeted);
        let oracle = reference_run(&a, &base).expect("seed engine");
        prop_assert_eq!(&budgeted.z, &oracle.z);
        prop_assert_eq!(budgeted.dram_a_fetches, oracle.dram_a_fetches);
        prop_assert_eq!(budgeted.dram_b_fetches, oracle.dram_b_fetches);
        prop_assert_eq!(budgeted.overbooked_a_tiles, oracle.overbooked_a_tiles);
    }

    /// Budget-aware auto-planned runs, on arbitrary inputs: the engine
    /// re-plans the panel height, so the run must be bit-identical to a
    /// *fixed* run at the chosen height — every field, every thread
    /// count, both grids — and therefore to the seed engine at that
    /// tiling (which also pins the output matrix to the reference
    /// product, since the output never depends on the tiling at all).
    #[test]
    fn auto_planned_runs_are_bit_identical_to_reference(
        seed in 0u64..40,
        heavy in proptest::bool::ANY,
        capacity in 8usize..120,
        fifo_frac in 1usize..90,
        rows_a in 1usize..70,
        cols_b in 1usize..70,
        overbooking in proptest::bool::ANY,
        threads in 1usize..5,
        budget_bytes in 0u64..40_000,
        grid2d in proptest::bool::ANY,
    ) {
        let spec = if heavy {
            GenSpec::power_law(48, 48, 400)
        } else {
            GenSpec::uniform(48, 48, 300)
        };
        let a = spec.seed(seed).generate();
        let auto_config = FunctionalConfig {
            capacity,
            fifo_region: (capacity * fifo_frac / 100).clamp(1, capacity - 1),
            rows_a,
            cols_b,
            overbooking,
            mem_budget: MemBudget::bytes(budget_bytes),
            grid: if grid2d { GridMode::Grid2D } else { GridMode::Panels },
            auto_plan: true,
        };
        let chosen = auto_execution_plan(&a, &auto_config);
        let fixed_config = FunctionalConfig {
            rows_a: chosen.rows_a(),
            auto_plan: false,
            ..auto_config
        };
        let auto = run_with_threads(&a, &auto_config, threads).expect("auto run");
        let fixed = run_with_threads(&a, &fixed_config, 1).expect("fixed run at chosen height");
        prop_assert_eq!(&auto, &fixed);
        let oracle = reference_run(&a, &fixed_config).expect("seed engine");
        prop_assert_eq!(&auto.z, &oracle.z);
        prop_assert_eq!(auto.dram_a_fetches, oracle.dram_a_fetches);
        prop_assert_eq!(auto.dram_b_fetches, oracle.dram_b_fetches);
        prop_assert_eq!(auto.overbooked_a_tiles, oracle.overbooked_a_tiles);
        // The output matrix is additionally tiling-invariant: identical
        // to the seed engine at the *baseline* tiling too.
        let baseline_oracle = reference_run(
            &a,
            &FunctionalConfig { auto_plan: false, ..auto_config },
        )
        .expect("seed engine at baseline tiling");
        prop_assert_eq!(&auto.z, &baseline_oracle.z);
    }

    /// The 2-D grid's block-local accounting, on arbitrary inputs:
    /// per-unit adjusted DRAM counts must sum *exactly* to the
    /// whole-panel totals (globally, and per panel for the streamed
    /// operand), the overbooked flag must fire once per overbooked panel,
    /// and none of it may depend on the thread count.
    #[test]
    fn per_block_counts_sum_to_shared_driver_totals(
        seed in 0u64..40,
        heavy in proptest::bool::ANY,
        capacity in 8usize..120,
        fifo_frac in 1usize..90,
        rows_a in 1usize..70,
        cols_b in 1usize..70,
        overbooking in proptest::bool::ANY,
        threads in 1usize..5,
        budget_bytes in 0u64..40_000,
    ) {
        let spec = if heavy {
            GenSpec::power_law(48, 48, 400)
        } else {
            GenSpec::uniform(48, 48, 300)
        };
        let a = spec.seed(seed).generate();
        let config = FunctionalConfig {
            capacity,
            fifo_region: (capacity * fifo_frac / 100).clamp(1, capacity - 1),
            rows_a,
            cols_b,
            overbooking,
            mem_budget: MemBudget::bytes(budget_bytes),
            grid: GridMode::Grid2D,
            auto_plan: false,
        };
        let shared = run_with_threads(
            &a,
            &FunctionalConfig { grid: GridMode::Panels, ..config },
            1,
        )
        .expect("shared-driver run");
        let (result, traffic) = run_grid(&a, &config, threads).expect("2-D grid run");
        prop_assert_eq!(&result, &shared);
        let plan = config.execution_plan(a.nrows(), a.ncols());
        prop_assert_eq!(traffic.len(), plan.parallel_units(GridMode::Grid2D));
        let adjusted: u64 = traffic.iter().map(|t| t.dram_a_fetches).sum();
        prop_assert_eq!(adjusted, shared.dram_a_fetches);
        prop_assert_eq!(
            traffic.iter().map(|t| t.dram_b_fetches).sum::<u64>(),
            shared.dram_b_fetches
        );
        prop_assert_eq!(
            traffic.iter().filter(|t| t.overbooked).count(),
            shared.overbooked_a_tiles
        );
        for pi in 0..plan.n_row_panels() {
            let panel_b: u64 = traffic
                .iter()
                .filter(|t| t.row_panel == pi)
                .map(|t| t.dram_b_fetches)
                .sum();
            prop_assert_eq!(panel_b, a.nnz() as u64);
        }
    }

    /// The auto planner's traffic model is exact, not an estimate: for
    /// arbitrary inputs, buffers, tilings, budgets, grids and thread
    /// counts, `AutoPlanner::cost_of` at a height predicts the DRAM
    /// counts a run at that height reports — A-side fills equal
    /// `scratch_fills`, B-side fetches equal `b_refetch`.
    #[test]
    fn planner_traffic_model_matches_engine_traffic(
        seed in 0u64..40,
        heavy in proptest::bool::ANY,
        large in proptest::bool::ANY,
        capacity in 8usize..120,
        fifo_frac in 1usize..90,
        rows_a in 1usize..200,
        cols_b in 1usize..200,
        overbooking in proptest::bool::ANY,
        threads in 1usize..5,
        budget in (proptest::bool::ANY, 0u64..40_000),
        grid2d in proptest::bool::ANY,
    ) {
        let n = if large { 160 } else { 48 };
        let spec = if heavy {
            GenSpec::power_law(n, n, n * 9)
        } else {
            GenSpec::uniform(n, n, n * 6)
        };
        let a = spec.seed(seed).generate();
        let config = FunctionalConfig {
            capacity,
            fifo_region: (capacity * fifo_frac / 100).clamp(1, capacity - 1),
            rows_a,
            cols_b,
            overbooking,
            mem_budget: if budget.0 { MemBudget::bytes(budget.1) } else { MemBudget::Unbounded },
            grid: if grid2d { GridMode::Grid2D } else { GridMode::Panels },
            auto_plan: false,
        };
        let run = run_with_threads(&a, &config, threads).expect("run");
        let cost = AutoPlanner::new(&a.profile(), cols_b, config.mem_budget)
            .with_buffer(BufferParams {
                capacity: config.capacity,
                fifo_region: config.fifo_region,
                overbooking,
            })
            .cost_of(rows_a);
        prop_assert_eq!(cost.scratch_fills, u128::from(run.dram_a_fetches));
        prop_assert_eq!(cost.b_refetch, u128::from(run.dram_b_fetches));
    }
}

#[test]
fn engines_agree_on_empty_matrix() {
    let a = CsrMatrix::new(12, 12);
    for overbooking in [false, true] {
        let config = FunctionalConfig {
            capacity: 8,
            fifo_region: 2,
            rows_a: 4,
            cols_b: 4,
            overbooking,
            mem_budget: MemBudget::Unbounded,
            grid: GridMode::Panels,
            auto_plan: false,
        };
        check_equivalent(&a, &config, 3);
    }
}

#[test]
fn engines_agree_on_single_row_panels() {
    // rows_a = 1: one panel per row, including empty panels.
    let a = CsrMatrix::from_triplets(6, 6, &[(0, 1, 1.0), (0, 5, -2.0), (3, 0, 4.0), (5, 5, 0.5)])
        .unwrap();
    let config = FunctionalConfig {
        capacity: 3,
        fifo_region: 1,
        rows_a: 1,
        cols_b: 2,
        overbooking: true,
        mem_budget: MemBudget::Unbounded,
        grid: GridMode::Panels,
        auto_plan: false,
    };
    check_equivalent(&a, &config, 4);
}

#[test]
fn engines_agree_on_heavily_overbooked_tiles() {
    // Capacity far below every panel occupancy: every tile overbooks and
    // the Tailors restream path dominates.
    let a = GenSpec::power_law(64, 64, 700).seed(99).generate();
    let config = FunctionalConfig {
        capacity: 10,
        fifo_region: 4,
        rows_a: 32,
        cols_b: 8,
        overbooking: true,
        mem_budget: MemBudget::Unbounded,
        grid: GridMode::Panels,
        auto_plan: false,
    };
    let result = run_with_threads(&a, &config, 2).unwrap();
    assert_eq!(result.overbooked_a_tiles, 2, "both tiles must overbook");
    check_equivalent(&a, &config, 2);
}

#[test]
fn engines_agree_on_one_by_one_matrix() {
    let a = CsrMatrix::from_triplets(1, 1, &[(0, 0, 2.5)]).unwrap();
    let config = FunctionalConfig {
        capacity: 1,
        fifo_region: 1,
        rows_a: 1,
        cols_b: 1,
        overbooking: false,
        mem_budget: MemBudget::Unbounded,
        grid: GridMode::Panels,
        auto_plan: false,
    };
    check_equivalent(&a, &config, 1);
}
