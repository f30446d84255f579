//! Property tests for the engine's per-thread scratch: runs on recycled
//! scratch are bit-identical to cold-scratch runs across arbitrary
//! interleavings of request shapes through one thread's scratch (SPA
//! reshapes, eviction under tight `MemBudget`, 1/4/8 threads), and every
//! entry point rejects a degenerate configuration with the same typed
//! error before any work runs.

use proptest::prelude::*;
use tailors_sim::functional::{
    clear_scratch_pool, reference_run, run_with_threads, scratch_pool_stats, FunctionalConfig,
};
use tailors_sim::{GridMode, MemBudget};
use tailors_tensor::gen::GenSpec;

fn config(
    capacity: usize,
    fifo_frac: usize,
    rows_a: usize,
    cols_b: usize,
    overbooking: bool,
    budget: MemBudget,
) -> FunctionalConfig {
    FunctionalConfig {
        capacity,
        fifo_region: (capacity * fifo_frac / 100).clamp(1, capacity.saturating_sub(1).max(1)),
        rows_a,
        cols_b,
        overbooking,
        mem_budget: budget,
        grid: GridMode::Panels,
        auto_plan: false,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// An arbitrary interleaving of differently-shaped requests through
    /// one thread's scratch — SPA reshapes, recycled buffers, and
    /// eviction under arbitrary (including tiny) retention budgets —
    /// produces bit-identical results to the same requests each run from
    /// a cold pool (every buffer freshly allocated), at 1, 4, and 8
    /// threads.
    #[test]
    fn pooled_interleavings_match_fresh_alloc_runs(
        seed in 0u64..30,
        heavy in proptest::bool::ANY,
        capacity in 8usize..120,
        fifo_frac in 1usize..90,
        shapes in proptest::collection::vec((1usize..70, 1usize..70, 0u64..40_000), 1..6),
        threads_sel in 0usize..3,
    ) {
        let threads = [1usize, 4, 8][threads_sel];
        let spec = if heavy {
            GenSpec::power_law(48, 48, 400)
        } else {
            GenSpec::uniform(48, 48, 300)
        };
        let a = spec.seed(seed).generate();
        let configs: Vec<FunctionalConfig> = shapes
            .iter()
            .map(|&(rows_a, cols_b, budget)| {
                config(capacity, fifo_frac, rows_a, cols_b, true, MemBudget::bytes(budget))
            })
            .collect();

        let pooled: Vec<_> = configs
            .iter()
            .map(|c| run_with_threads(&a, c, threads).expect("pooled run"))
            .collect();
        // Same sequence again through the now-warm pool: recycled
        // buffers must change nothing.
        let warm: Vec<_> = configs
            .iter()
            .map(|c| run_with_threads(&a, c, threads).expect("warm pooled run"))
            .collect();
        // Pools are per thread: a single-threaded run uses this thread's
        // pool, cleared here; wider runs spawn new scoped workers whose
        // pools start empty.
        let fresh: Vec<_> = configs
            .iter()
            .map(|c| {
                clear_scratch_pool();
                run_with_threads(&a, c, threads).expect("fresh-alloc run")
            })
            .collect();
        prop_assert_eq!(&pooled, &fresh);
        prop_assert_eq!(&warm, &fresh);
        for (c, r) in configs.iter().zip(&fresh) {
            let oracle = reference_run(&a, c).expect("seed engine");
            prop_assert_eq!(&r.z, &oracle.z);
            prop_assert_eq!(r.dram_a_fetches, oracle.dram_a_fetches);
            prop_assert_eq!(r.dram_b_fetches, oracle.dram_b_fetches);
            prop_assert_eq!(r.overbooked_a_tiles, oracle.overbooked_a_tiles);
        }
    }

}

/// The steady-state contract behind the serve-side zero-alloc pin, seen
/// from the pool's own counters: once a request's SPA shape and output
/// buffers have been through this thread's scratch, repeating the same
/// request is all hits — the kernel path allocates no new scratch.
#[test]
fn warm_pool_serves_repeat_runs_without_misses() {
    let a = GenSpec::power_law(64, 64, 700).seed(5).generate();
    // Roomy budget: retention must exceed the scratch working set, or the
    // pool (correctly) evicts between runs and every repeat re-allocates.
    let cfg = config(64, 25, 16, 16, true, MemBudget::bytes(1 << 20));

    clear_scratch_pool();
    run_with_threads(&a, &cfg, 1).expect("warmup run");
    let warm = scratch_pool_stats();
    for _ in 0..3 {
        run_with_threads(&a, &cfg, 1).expect("steady-state run");
    }
    let steady = scratch_pool_stats();
    assert_eq!(
        steady.misses, warm.misses,
        "steady-state repeats must not allocate new pool inventory"
    );
    assert!(steady.checkouts > warm.checkouts);
    assert_eq!(steady.checkouts, steady.hits + steady.misses);
}

/// A retention cap smaller than any scratch buffer forces the pool to
/// evict everything at return time — and results still match the seed
/// engine exactly (eviction only frees memory, never changes behaviour).
#[test]
fn tight_budget_evicts_pool_inventory_without_changing_results() {
    let a = GenSpec::uniform(48, 48, 300).seed(9).generate();
    // A 1-byte scratch budget: the plan degenerates to single-tile blocks
    // and the pool can retain nothing.
    let cfg = config(32, 50, 8, 8, true, MemBudget::bytes(1));

    clear_scratch_pool();
    let before = scratch_pool_stats();
    let run = run_with_threads(&a, &cfg, 1).expect("tight-budget run");
    let after = scratch_pool_stats();
    assert!(after.evictions > before.evictions, "nothing was evicted");
    assert_eq!(after.resident_bytes, 0, "cap must hold after the run");

    let oracle = reference_run(&a, &cfg).expect("seed engine");
    assert_eq!(run.z, oracle.z);
    assert_eq!(run.dram_a_fetches, oracle.dram_a_fetches);
    assert_eq!(run.dram_b_fetches, oracle.dram_b_fetches);
}

/// A 2-D grid whose last column block and last panel are ragged, under a
/// budget that fits exactly one full-size SPA: the SPA is charged in the
/// planner's coin, so the full-size one fits the cap, and the narrower
/// blocks reshape it in place. A warm repeat then re-allocates no SPA;
/// the item output buffers, all outstanding until the stitch, can miss
/// at most once per item.
#[test]
fn budgeted_grid_pool_keeps_scratch_across_a_ragged_last_block() {
    // 264 columns = 16 full 16-column tiles plus an 8-column one; 64-row
    // panels leave an 8-row last panel.
    let a = GenSpec::uniform(264, 264, 400).seed(7).generate();
    let cfg = FunctionalConfig {
        grid: GridMode::Grid2D,
        ..config(64, 25, 64, 16, true, MemBudget::bytes(64 * 16 * 8))
    };
    let plan = cfg.execution_plan(a.nrows(), a.ncols());
    assert_eq!(plan.block_cols(), 16, "one tile per block");
    let units = plan.parallel_units(GridMode::Grid2D) as u64;
    assert_eq!(units, 85);

    clear_scratch_pool();
    let cold = run_with_threads(&a, &cfg, 1).expect("cold run");
    let before = scratch_pool_stats();
    let warm = run_with_threads(&a, &cfg, 1).expect("warm repeat");
    let misses = scratch_pool_stats().misses - before.misses;
    assert!(
        misses <= units + 1,
        "{misses} misses in a warm repeat of {units} units"
    );
    assert_eq!(cold, warm);
    let oracle = reference_run(&a, &cfg).expect("seed engine");
    assert_eq!(warm.z, oracle.z);
    assert_eq!(warm.dram_a_fetches, oracle.dram_a_fetches);
}

/// At a panel height that is not a power of two the SPA is shaped to
/// exactly the planner's `rows_a × block_cols`, so under a budget of
/// exactly that scratch a warm repeat keeps it. Only the output buffers,
/// which this budget cannot retain, miss: at most once per work item.
#[test]
fn warm_repeat_at_a_non_power_of_two_panel_height_keeps_its_spa() {
    let a = GenSpec::uniform(256, 256, 400).seed(7).generate();
    let cfg = config(64, 25, 48, 16, true, MemBudget::bytes(48 * 16 * 8));
    let plan = cfg.execution_plan(a.nrows(), a.ncols());
    assert_eq!((plan.rows_a(), plan.block_cols()), (48, 16));
    let items = plan.parallel_units(GridMode::Panels) as u64;
    assert_eq!(items, 6, "five 48-row panels and a 16-row one");

    clear_scratch_pool();
    let cold = run_with_threads(&a, &cfg, 1).expect("cold run");
    let before = scratch_pool_stats();
    let warm = run_with_threads(&a, &cfg, 1).expect("warm repeat");
    let after = scratch_pool_stats();
    assert_eq!(after.checkouts - before.checkouts, 2 * items);
    let misses = after.misses - before.misses;
    assert!(
        misses <= items,
        "{misses} misses in a warm repeat of {items} items"
    );
    assert_eq!(cold, warm);
}

/// An invalid Tailor sizing — no FIFO region, or one that leaves no
/// resident region — is a typed buffer error from every entry point,
/// checked before any work runs; a plain buffet ignores `fifo_region`,
/// so the same sizes are accepted without overbooking.
#[test]
fn invalid_tailor_sizing_is_a_typed_buffer_error_from_every_entry_point() {
    use tailors_eddo::EddoError;
    use tailors_sim::functional::{run_grid, EngineError};
    let a = GenSpec::uniform(32, 32, 150).seed(3).generate();
    let ok = config(32, 50, 8, 8, true, MemBudget::Unbounded);
    for fifo_region in [0, 32, 33] {
        let bad = FunctionalConfig { fifo_region, ..ok };
        let is_bad_config = |r: Result<_, EngineError>| {
            matches!(r, Err(EngineError::Buffer(EddoError::BadConfig(_))))
        };
        assert!(
            is_bad_config(run_with_threads(&a, &bad, 2).map(|_| ())),
            "fifo {fifo_region}"
        );
        assert!(
            is_bad_config(run_grid(&a, &bad, 2).map(|_| ())),
            "fifo {fifo_region}"
        );
        assert!(
            is_bad_config(reference_run(&a, &bad).map(|_| ())),
            "fifo {fifo_region}"
        );

        let buffet = FunctionalConfig {
            overbooking: false,
            ..bad
        };
        let oracle = reference_run(&a, &buffet).expect("buffet oracle");
        assert_eq!(
            run_with_threads(&a, &buffet, 2).expect("buffet run"),
            oracle
        );
        assert_eq!(run_grid(&a, &buffet, 2).expect("buffet grid").0, oracle);
    }
}

/// A degenerate configuration is rejected before any work runs, with the
/// same typed [`ConfigError`](tailors_sim::functional::ConfigError) from
/// every entry point. `reference_run` takes no thread count, so it is
/// checked on every case but `threads = 0`.
#[test]
fn degenerate_configs_are_the_same_typed_error_from_every_entry_point() {
    use tailors_sim::functional::{run_grid, ConfigError, EngineError};
    let square = GenSpec::uniform(32, 32, 150).seed(3).generate();
    let wide = GenSpec::uniform(16, 32, 80).seed(4).generate();
    let ok = config(32, 50, 8, 8, true, MemBudget::Unbounded);
    let zero_tile = |rows_a, cols_b| ConfigError::ZeroTileDims { rows_a, cols_b };
    let cases = [
        (
            "capacity = 0",
            &square,
            FunctionalConfig { capacity: 0, ..ok },
            1,
            ConfigError::ZeroCapacity,
        ),
        (
            "rows_a = 0",
            &square,
            FunctionalConfig { rows_a: 0, ..ok },
            1,
            zero_tile(0, 8),
        ),
        (
            "cols_b = 0",
            &square,
            FunctionalConfig { cols_b: 0, ..ok },
            1,
            zero_tile(8, 0),
        ),
        ("threads = 0", &square, ok, 0, ConfigError::ZeroThreads),
        (
            "non-square",
            &wide,
            ok,
            1,
            ConfigError::NonSquare {
                nrows: 16,
                ncols: 32,
            },
        ),
    ];
    for (name, a, cfg, threads, expected) in cases {
        let expected = EngineError::Config(expected);
        let resident = run_with_threads(a, &cfg, threads).expect_err(name);
        assert_eq!(resident, expected, "{name}: run_with_threads");
        let grid = run_grid(a, &cfg, threads).expect_err(name);
        assert_eq!(grid, expected, "{name}: run_grid");
        if threads > 0 {
            let oracle = reference_run(a, &cfg).expect_err(name);
            assert_eq!(oracle, expected, "{name}: reference_run");
        }
    }
}
