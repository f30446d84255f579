//! Property tests for the storage-handle layer: runs on recycled engine
//! scratch are bit-identical to cold-scratch runs across arbitrary
//! interleavings of request shapes through one thread's scratch (SPA
//! reshapes, eviction under tight `MemBudget`, 1/4/8 threads),
//! and spilled runs ([`run_spilled`] over a file-backed operand paged in
//! panel-by-panel and tile-by-tile) diff clean against `reference_run`
//! in every reported field.

use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use tailors_sim::functional::{
    clear_scratch_pool, reference_run, run_spilled, run_with_threads, scratch_pool_stats,
    FunctionalConfig,
};
use tailors_sim::{GridMode, MemBudget};
use tailors_tensor::gen::GenSpec;
use tailors_tensor::storage::MmapStorage;

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

fn unique_spill_path(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    std::env::temp_dir().join(format!(
        "tailors_pooltest_{}_{}_{}.tspill",
        std::process::id(),
        tag,
        COUNTER.fetch_add(1, Ordering::Relaxed)
    ))
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

    /// A spilled run — `A` panels and `B = Aᵀ` tiles paged in from the
    /// spill file under an arbitrary (often single-tile) residency
    /// budget, through a Tailor or a buffet — is bit-identical to
    /// `reference_run` and to the in-RAM engine in every reported field,
    /// at every thread count.
    #[test]
    fn spilled_runs_diff_clean_vs_reference(
        seed in 0u64..30,
        heavy in proptest::bool::ANY,
        capacity in 8usize..120,
        fifo_frac in 1usize..90,
        rows_a in 1usize..70,
        tile_exp in 0u32..7,
        budget_bytes in 0u64..40_000,
        residency_sel in 0usize..4,
        threads_sel in 0usize..3,
        overbooking in proptest::bool::ANY,
    ) {
        let residency = [None, Some(1u64), Some(4_096), Some(1 << 20)][residency_sel];
        let threads = [1usize, 2, 4][threads_sel];
        let spec = if heavy {
            GenSpec::power_law(48, 48, 400)
        } else {
            GenSpec::uniform(48, 48, 300)
        };
        let a = spec.seed(seed).generate();
        let cols_b = 1usize << tile_exp; // 1..=64
        let cfg = config(
            capacity,
            fifo_frac,
            rows_a,
            cols_b,
            overbooking,
            MemBudget::bytes(budget_bytes),
        );

        let path = unique_spill_path("prop");
        MmapStorage::store(&a, cols_b, &path).expect("store spill file");
        let store = MmapStorage::open(&path, residency).expect("open spill file");
        let spilled = run_spilled(&store, &cfg, threads).expect("spilled run");
        std::fs::remove_file(&path).ok();
        // A budgeted spilled run pages each row panel in exactly once.
        let n = a.nrows();
        let plan = cfg.execution_plan(n, n);
        prop_assert_eq!(store.stats().panel_loads, plan.n_row_panels() as u64);

        let in_ram = run_with_threads(&a, &cfg, 1).expect("in-RAM run");
        prop_assert_eq!(&spilled, &in_ram);
        let oracle = reference_run(&a, &cfg).expect("seed engine");
        prop_assert_eq!(&spilled.z, &oracle.z);
        prop_assert_eq!(spilled.dram_a_fetches, oracle.dram_a_fetches);
        prop_assert_eq!(spilled.dram_b_fetches, oracle.dram_b_fetches);
        prop_assert_eq!(spilled.overbooked_a_tiles, oracle.overbooked_a_tiles);
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
    let path = unique_spill_path("tailor_sizing");
    MmapStorage::store(&a, 8, &path).expect("store spill file");
    let store = MmapStorage::open(&path, None).expect("open spill file");
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
            is_bad_config(run_spilled(&store, &bad, 2).map(|_| ())),
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
        assert_eq!(
            run_spilled(&store, &buffet, 2).expect("buffet spill"),
            oracle
        );
    }
    std::fs::remove_file(&path).ok();
}

/// Mismatched `cols_b` is a typed config error, not a wrong answer.
#[test]
fn spill_tile_mismatch_is_rejected() {
    use tailors_sim::functional::{ConfigError, EngineError};
    let a = GenSpec::uniform(32, 32, 150).seed(3).generate();
    let path = unique_spill_path("mismatch");
    MmapStorage::store(&a, 8, &path).expect("store spill file");
    let store = MmapStorage::open(&path, None).expect("open spill file");
    let cfg = config(32, 50, 8, 16, true, MemBudget::Unbounded);
    let err = run_spilled(&store, &cfg, 1).expect_err("cols_b mismatch must be rejected");
    assert_eq!(
        err,
        EngineError::Config(ConfigError::SpillTileMismatch {
            file_cols: 8,
            config_cols: 16
        })
    );
    std::fs::remove_file(&path).ok();
}

/// The spilled entry point rejects exactly what the resident one rejects,
/// with the same typed error — and a degenerate config is reported as
/// such before any spill-file check.
#[test]
fn spilled_validation_matches_resident_validation() {
    use tailors_sim::functional::{ConfigError, EngineError};
    let square = GenSpec::uniform(32, 32, 150).seed(3).generate();
    let wide = GenSpec::uniform(16, 32, 80).seed(4).generate();
    let ok = config(32, 50, 8, 8, true, MemBudget::Unbounded);
    let cases = [
        (
            "capacity = 0",
            &square,
            FunctionalConfig { capacity: 0, ..ok },
            1,
        ),
        (
            "rows_a = 0",
            &square,
            FunctionalConfig { rows_a: 0, ..ok },
            1,
        ),
        (
            "cols_b = 0",
            &square,
            FunctionalConfig { cols_b: 0, ..ok },
            1,
        ),
        ("threads = 0", &square, ok, 0),
        ("non-square", &wide, ok, 1),
    ];
    for (name, a, cfg, threads) in cases {
        let path = unique_spill_path("validate");
        MmapStorage::store(a, 8, &path).expect("store spill file");
        let store = MmapStorage::open(&path, None).expect("open spill file");
        let spilled = run_spilled(&store, &cfg, threads).expect_err(name);
        std::fs::remove_file(&path).ok();
        let resident = run_with_threads(a, &cfg, threads).expect_err(name);
        assert!(
            matches!(resident, EngineError::Config(_)),
            "{name}: {resident:?}"
        );
        assert_eq!(spilled, resident, "{name}");
    }
    // `cols_b = 0` also mismatches the file's tile width (8); the zero
    // tile dimension is what gets reported.
    let path = unique_spill_path("validate_order");
    MmapStorage::store(&square, 8, &path).expect("store spill file");
    let store = MmapStorage::open(&path, None).expect("open spill file");
    let err = run_spilled(&store, &FunctionalConfig { cols_b: 0, ..ok }, 1);
    std::fs::remove_file(&path).ok();
    assert_eq!(
        err,
        Err(EngineError::Config(ConfigError::ZeroTileDims {
            rows_a: 8,
            cols_b: 0
        }))
    );
}

/// Out-of-range column indices in a spill file's payload are a typed
/// `InvalidData` spill error, not an out-of-bounds panic: an `A` column
/// past `ncols`, and a `B` tile column outside the tile's column range.
#[test]
fn spill_column_index_out_of_range_is_typed() {
    use tailors_sim::functional::EngineError;
    let a = GenSpec::uniform(64, 64, 400).seed(2).generate();
    let cfg = config(64, 25, 16, 16, true, MemBudget::Unbounded);
    let path = unique_spill_path("clean");
    MmapStorage::store(&a, 16, &path).expect("store spill file");
    let bytes = std::fs::read(&path).expect("read spill file");
    std::fs::remove_file(&path).ok();
    // Layout: magic, 5 header words, `nrows + 1` row pointers and
    // `n_tiles + 1` tile offsets, then `A`'s column indices; tile 0's
    // column indices follow its `ncols + 1` row pointers.
    let word = |i: usize| u64::from_le_bytes(bytes[8 * i..8 * i + 8].try_into().unwrap());
    let (n, n_tiles) = (word(1) as usize, word(5) as usize);
    let a_cols = 48 + (n + 1) * 8 + (n_tiles + 1) * 8;
    let tile0_cols = word(6 + n + 1) as usize + (n + 1) * 8;
    for at in [a_cols, tile0_cols] {
        let mut bad = bytes.clone();
        bad[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        let path = unique_spill_path("badcol");
        std::fs::write(&path, &bad).expect("write corrupt spill file");
        let store = MmapStorage::open(&path, None).expect("header is intact");
        let err = run_spilled(&store, &cfg, 1);
        std::fs::remove_file(&path).ok();
        assert_eq!(
            err,
            Err(EngineError::Spill(std::io::ErrorKind::InvalidData)),
            "corrupt column index at byte {at}"
        );
    }
}

/// A spill file that goes short under an open store fails the run with a
/// typed I/O error on the last tile — after earlier tiles have already
/// accumulated into the pooled scratch — and the scratch is left clean:
/// the next run of the same shape on this thread is still exact.
#[test]
fn mid_run_spill_failure_is_typed_and_leaves_scratch_clean() {
    use tailors_sim::functional::EngineError;
    let a = GenSpec::power_law(48, 48, 400).seed(7).generate();
    // One panel (rows_a = n) over six 8-column tiles.
    let cfg = config(64, 25, 48, 8, true, MemBudget::Unbounded);
    let path = unique_spill_path("truncated");
    MmapStorage::store(&a, 8, &path).expect("store spill file");
    let store = MmapStorage::open(&path, Some(1)).expect("open spill file");
    assert!(store.n_tiles() > 1, "test needs several tiles");
    let file = std::fs::OpenOptions::new()
        .write(true)
        .open(&path)
        .expect("second handle");
    let len = file.metadata().expect("metadata").len();
    file.set_len(len - 1).expect("shorten spill file");

    let err = run_spilled(&store, &cfg, 1);
    std::fs::remove_file(&path).ok();
    assert_eq!(
        err,
        Err(EngineError::Spill(std::io::ErrorKind::UnexpectedEof))
    );

    let run = run_with_threads(&a, &cfg, 1).expect("in-RAM run after the failure");
    let oracle = reference_run(&a, &cfg).expect("seed engine");
    assert_eq!(run, oracle);
}
