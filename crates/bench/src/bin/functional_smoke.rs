//! Wide-matrix smoke for the memory-governed functional engine: runs the
//! budgeted `Z = A·Aᵀ` dataflow on a matrix far wider than the unbudgeted
//! scratch could handle, and (optionally) proves the output bit-identical
//! to the retained seed engine.
//!
//! Usage: `cargo run --release -p tailors-bench --bin functional_smoke --
//! [--cols N] [--nnz N] [--rows-a N] [--cols-b N] [--auto-tile]
//! [--auto-plan] [--mem-budget SPEC] [--grid MODE] [--threads N]
//! [--verify]`
//!
//! `--auto-tile` replaces the explicit `--rows-a`/`--cols-b` tiling with
//! the one a Swiftiles-governed strategy picks for the paper architecture
//! (`ExecutionPlan::from_strategy` over `TilingStrategy::Overbooked`),
//! i.e. the same planning path the hardware variants use.
//!
//! `--auto-plan` hands the panel height to the budget-aware
//! [`AutoPlanner`](tailors_sim::AutoPlanner) instead: `--rows-a` becomes
//! the baseline candidate and the engine runs whatever height minimizes
//! the closed-form traffic model under the budget. `--verify` then diffs
//! against the seed engine at the *chosen* tiling — the auto run must be
//! bit-identical to a fixed run there in every reported field.
//!
//! Defaults reproduce the CI acceptance point: a 50 000-column power-law
//! tensor under a 256 MiB per-thread scratch budget. Unbudgeted, one
//! 4096-row panel over 50 k columns would need ~1.6 GiB of scratch per
//! thread; the execution plan blocks it into 8192-column strips instead.
//! `--mem-budget` defaults to 256 MiB. `--grid 2d` (default: panels)
//! runs the full 2-D (panel x block) grid decomposition — one work item
//! per unit, with block-local traffic accounting — whose results,
//! `--verify` proves, are still bit-identical to the seed engine.

use std::time::Instant;

use tailors_bench::threads_from_env;
use tailors_core::swiftiles::SwiftilesConfig;
use tailors_core::TilingStrategy;
use tailors_sim::functional::{reference_run, run_with_threads, FunctionalConfig};
use tailors_sim::{ArchConfig, CostModel, ExecutionPlan, GridMode, MemBudget};
use tailors_tensor::gen::GenSpec;

fn main() {
    let mut cols = 50_000usize;
    let mut nnz: Option<usize> = None;
    let mut rows_a = 4_096usize;
    let mut cols_b = 2_048usize;
    let mut auto_tile = false;
    let mut auto_plan = false;
    let mut budget = MemBudget::mib(256);
    let mut grid = GridMode::Panels;
    let mut threads: Option<usize> = None;
    let mut verify = false;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut next = |flag: &str| {
            args.next()
                .unwrap_or_else(|| panic!("{flag} requires a value"))
        };
        match arg.as_str() {
            "--cols" => cols = next("--cols").parse().expect("--cols: positive integer"),
            "--nnz" => nnz = Some(next("--nnz").parse().expect("--nnz: positive integer")),
            "--rows-a" => {
                rows_a = next("--rows-a")
                    .parse()
                    .expect("--rows-a: positive integer")
            }
            "--cols-b" => {
                cols_b = next("--cols-b")
                    .parse()
                    .expect("--cols-b: positive integer")
            }
            "--auto-tile" => auto_tile = true,
            "--auto-plan" => auto_plan = true,
            "--mem-budget" => {
                budget = MemBudget::parse(&next("--mem-budget")).expect("--mem-budget")
            }
            "--grid" => grid = GridMode::parse(&next("--grid")).expect("--grid"),
            "--threads" => {
                threads = Some(
                    next("--threads")
                        .parse()
                        .expect("--threads: positive integer"),
                )
            }
            "--verify" => verify = true,
            other => panic!("unknown argument {other:?}; see the module docs"),
        }
    }
    let nnz = nnz.unwrap_or(cols.saturating_mul(6));
    let threads = threads.unwrap_or_else(threads_from_env);

    println!("generating {cols} x {cols} power-law tensor, target nnz {nnz} ...");
    let t0 = Instant::now();
    let a = GenSpec::power_law(cols, cols, nnz).seed(50).generate();
    println!("  generated nnz {} in {:.2?}", a.nnz(), t0.elapsed());

    if auto_tile {
        // Let the paper's Swiftiles-governed strategy pick the tile grid
        // against the ExTensor architecture, then keep the same budget.
        let strategy = TilingStrategy::Overbooked(
            SwiftilesConfig::new(0.10, 10).expect("paper operating point"),
        );
        let auto =
            ExecutionPlan::from_strategy(&a.profile(), &ArchConfig::extensor(), &strategy, budget);
        rows_a = auto.rows_a();
        cols_b = auto.cols_b();
        println!("auto-tile: strategy chose {rows_a}-row panels x {cols_b}-col tiles");
    }

    let config = FunctionalConfig {
        capacity: (a.nnz() / 8).max(8),
        fifo_region: (a.nnz() / 32).max(1),
        rows_a,
        cols_b,
        overbooking: true,
        mem_budget: budget,
        grid,
        auto_plan,
    };
    let plan = if auto_plan {
        // The plan the engine will derive internally: the budget-aware
        // planner with `--rows-a` as the baseline candidate.
        let auto = tailors_sim::functional::auto_execution_plan(&a, &config, CostModel::UNIFORM);
        println!(
            "auto-plan: cost model chose {}-row panels (baseline {rows_a}) -> {} col blocks",
            auto.rows_a(),
            auto.n_col_blocks(),
        );
        auto
    } else {
        config.execution_plan(a.nrows(), a.ncols())
    };
    let stats = plan.scratch_stats(grid);
    println!(
        "plan: {} row panels x {} col blocks = {} work units ({} tiles of {} cols per block); \
         grid mode {} -> {} parallel units",
        plan.n_row_panels(),
        stats.col_blocks,
        plan.units().count(),
        plan.block_tiles(),
        config.cols_b,
        stats.grid,
        stats.parallel_units,
    );
    // Streamed-operand balance across the plan's column blocks: the
    // nonzeros of B columns [c0, c1) are those of A rows [c0, c1), what
    // the engine charges each block.
    let block_occ: Vec<u64> = (0..plan.n_col_blocks())
        .map(|bi| {
            let (cols, _) = plan.block_extent(bi);
            a.row_range_nnz(cols.start, cols.end) as u64
        })
        .collect();
    println!(
        "streamed occupancy per block: min {} / max {} (sum {})",
        block_occ.iter().min().unwrap_or(&0),
        block_occ.iter().max().unwrap_or(&0),
        block_occ.iter().sum::<u64>(),
    );
    assert_eq!(
        block_occ.iter().sum::<u64>(),
        a.nnz() as u64,
        "column blocks must partition the streamed operand"
    );
    println!(
        "scratch: {:.1} MiB/thread under budget {} (fits: {})",
        stats.bytes_per_thread as f64 / (1024.0 * 1024.0),
        budget,
        stats.fits_budget,
    );
    if auto_tile || auto_plan {
        // A strategy-chosen grid may have single tiles wider than the
        // budget; the planner clamps to one tile per block and says so.
        if !stats.fits_budget {
            println!(
                "note: single-tile blocks exceed the budget (plan clamped to the minimum unit)"
            );
        }
    } else {
        assert!(
            stats.fits_budget,
            "smoke point must honour its budget; widen --mem-budget or shrink --rows-a"
        );
    }

    let t1 = Instant::now();
    let result = run_with_threads(&a, &config, threads).expect("budgeted functional run");
    println!(
        "budgeted run ({threads} threads): {:.2?}, z nnz {}, dram A {} / B {}, overbooked tiles {}",
        t1.elapsed(),
        result.z.nnz(),
        result.dram_a_fetches,
        result.dram_b_fetches,
        result.overbooked_a_tiles,
    );

    if verify {
        // The oracle runs at the *effective* tiling: the config's fixed
        // one, or whatever the auto planner chose — the engine's contract
        // is bit-identity with the seed engine at the tiling it executed.
        let oracle_config = FunctionalConfig {
            rows_a: plan.rows_a(),
            auto_plan: false,
            ..config
        };
        let t2 = Instant::now();
        let oracle = reference_run(&a, &oracle_config).expect("seed engine run");
        println!("seed engine: {:.2?}", t2.elapsed());
        assert_eq!(result.z, oracle.z, "output must be bit-identical");
        assert_eq!(result.dram_a_fetches, oracle.dram_a_fetches);
        assert_eq!(result.dram_b_fetches, oracle.dram_b_fetches);
        assert_eq!(result.overbooked_a_tiles, oracle.overbooked_a_tiles);
        println!("verify: bit-identical to reference_run");
    }
    println!("OK");
}
