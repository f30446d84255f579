//! Cross-crate integration tests: the functional engine (real eddo
//! buffers) against the reference kernels and the analytical model, across
//! the workload suite.

use tailors::sim::functional::{run_with_threads, FunctionalConfig};
use tailors::sim::threads_from_env;
use tailors::sim::{ArchConfig, GridMode, MemBudget, Variant};
use tailors::tensor::ops::{approx_eq, spmspm_a_at};
use tailors::tensor::tiling::RowPanels;

const TINY: f64 = 1.0 / 512.0;

/// The functional engine computes the exact `A·Aᵀ` product through Tailors
/// buffers for every structural family in the suite.
#[test]
fn functional_engine_is_correct_on_every_workload_family() {
    for name in ["rma10", "amazon0312", "roadNet-CA", "web-Google"] {
        let wl = tailors::workloads::by_name(name).expect("suite tensor");
        let a = wl.scaled(TINY).generate();
        let config = FunctionalConfig {
            capacity: (a.nnz() / 6).max(8),
            fifo_region: (a.nnz() / 24).max(1),
            rows_a: (a.nrows() / 5).max(1),
            cols_b: (a.nrows() / 7).max(1),
            overbooking: true,
            mem_budget: MemBudget::Unbounded,
            grid: GridMode::Panels,
            auto_plan: false,
        };
        let result = run_with_threads(&a, &config, threads_from_env()).expect("functional run");
        let reference = spmspm_a_at(&a);
        assert!(
            approx_eq(&result.z, &reference, 1e-9),
            "{name}: functional output diverged from reference"
        );
    }
}

/// The functional engine's measured DRAM traffic matches the analytical
/// model's closed form for the stationary operand, including overbooking
/// restreams.
#[test]
fn functional_traffic_matches_analytical_closed_form() {
    let wl = tailors::workloads::by_name("email-Enron").expect("suite tensor");
    let a = wl.scaled(TINY).generate();
    let profile = a.profile();
    let (capacity, fifo) = ((a.nnz() / 5).max(8), (a.nnz() / 20).max(1));
    let (rows_a, cols_b) = ((a.nrows() / 6).max(2), (a.nrows() / 6).max(1));
    let config = FunctionalConfig {
        capacity,
        fifo_region: fifo,
        rows_a,
        cols_b,
        overbooking: true,
        mem_budget: MemBudget::Unbounded,
        grid: GridMode::Panels,
        auto_plan: false,
    };
    let result = run_with_threads(&a, &config, threads_from_env()).expect("functional run");
    // The 2-D grid's per-block accounting must reduce to the same closed
    // form (a sub-tile budget maximizes the number of work items).
    let gridded = run_with_threads(
        &a,
        &FunctionalConfig {
            mem_budget: MemBudget::bytes(1),
            grid: GridMode::Grid2D,
            auto_plan: false,
            ..config
        },
        threads_from_env(),
    )
    .expect("2-D grid run");
    assert_eq!(gridded, result);

    // Closed form, as computed by the analytical dataflow model.
    let n_b = a.nrows().div_ceil(cols_b) as u64;
    let resident = (capacity - fifo) as u64;
    let panels = RowPanels::new(&profile, rows_a);
    let mut expected_a = 0u64;
    for occ in panels.occupancies() {
        let bumped = if occ > capacity as u64 && rows_a > 1 {
            occ - resident.min(occ)
        } else {
            0
        };
        expected_a += occ + (n_b - 1) * bumped;
    }
    assert_eq!(result.dram_a_fetches, expected_a);

    let n_a = a.nrows().div_ceil(rows_a) as u64;
    assert_eq!(result.dram_b_fetches, n_a * a.nnz() as u64);
}

/// All three variants produce finite, ordered metrics on the whole suite,
/// and prescient never overbooks.
#[test]
fn suite_smoke_all_variants() {
    let arch = ArchConfig::extensor().scaled(TINY);
    for wl in tailors::workloads::suite() {
        let profile = wl.scaled(TINY).generate().profile();
        let n = Variant::ExTensorN.run(&profile, &arch);
        let p = Variant::ExTensorP.run(&profile, &arch);
        let ob = Variant::default_ob().run(&profile, &arch);
        for m in [&n, &p, &ob] {
            assert!(m.cycles.is_finite() && m.cycles > 0.0, "{}", wl.name);
            assert!(m.energy_pj.is_finite() && m.energy_pj > 0.0, "{}", wl.name);
            assert!(m.dram.total >= m.dram.overbook_extra, "{}", wl.name);
        }
        assert_eq!(
            p.reuse.overbooked_a_tiles, 0,
            "{}: P must never overbook",
            wl.name
        );
        // MACs are a property of the workload, not the tiling.
        assert_eq!(n.activity.macs, p.activity.macs, "{}", wl.name);
        assert_eq!(p.activity.macs, ob.activity.macs, "{}", wl.name);
    }
}

/// A memory-budgeted functional run — column-blocked scratch — is
/// bit-identical to the unbudgeted path on real workload families, down to
/// budgets smaller than one column block.
#[test]
fn budgeted_functional_runs_match_unbudgeted_on_workloads() {
    for name in ["rma10", "webbase-1M"] {
        let wl = tailors::workloads::by_name(name).expect("suite tensor");
        let a = wl.scaled(TINY).generate();
        let base = FunctionalConfig {
            capacity: (a.nnz() / 6).max(8),
            fifo_region: (a.nnz() / 24).max(1),
            rows_a: (a.nrows() / 5).max(1),
            cols_b: (a.nrows() / 7).max(1),
            overbooking: true,
            mem_budget: MemBudget::Unbounded,
            grid: GridMode::Panels,
            auto_plan: false,
        };
        let unbudgeted = run_with_threads(&a, &base, threads_from_env()).expect("unbudgeted run");
        let one_tile_bytes = 8 * (base.rows_a as u64) * (base.cols_b as u64);
        for budget in [
            MemBudget::bytes(1), // clamps to a single streamed tile
            MemBudget::bytes(one_tile_bytes),
            MemBudget::bytes(3 * one_tile_bytes),
        ] {
            for grid in [GridMode::Panels, GridMode::Grid2D] {
                let budgeted = run_with_threads(
                    &a,
                    &FunctionalConfig {
                        mem_budget: budget,
                        grid,
                        auto_plan: false,
                        ..base
                    },
                    threads_from_env(),
                )
                .expect("budgeted run");
                assert_eq!(budgeted, unbudgeted, "{name}: budget {budget} grid {grid}");
            }
        }
    }
}

/// Simulation is fully deterministic end to end.
#[test]
fn end_to_end_determinism() {
    let arch = ArchConfig::extensor().scaled(TINY);
    let wl = tailors::workloads::by_name("soc-Epinions1").expect("suite tensor");
    let run_once = || {
        let profile = wl.scaled(TINY).generate().profile();
        Variant::default_ob().run(&profile, &arch)
    };
    let a = run_once();
    let b = run_once();
    assert_eq!(a.cycles, b.cycles);
    assert_eq!(a.activity, b.activity);
}

/// Tailors never fetch more than buffets would for the same plan, and both
/// compute the same result (the Fig. 3 guarantee, end to end).
#[test]
fn tailors_never_worse_than_buffets() {
    let wl = tailors::workloads::by_name("pdb1HYS").expect("suite tensor");
    let a = wl.scaled(TINY).generate();
    for rows_a in [a.nrows() / 3, a.nrows() / 8] {
        let base = FunctionalConfig {
            capacity: (a.nnz() / 8).max(8),
            fifo_region: (a.nnz() / 32).max(1),
            rows_a: rows_a.max(2),
            cols_b: (a.nrows() / 4).max(1),
            overbooking: true,
            mem_budget: MemBudget::Unbounded,
            grid: GridMode::Panels,
            auto_plan: false,
        };
        let tailors = run_with_threads(&a, &base, threads_from_env()).expect("tailors run");
        let buffets = run_with_threads(
            &a,
            &FunctionalConfig {
                overbooking: false,
                ..base
            },
            threads_from_env(),
        )
        .expect("buffet run");
        assert!(approx_eq(&tailors.z, &buffets.z, 1e-9));
        assert!(tailors.dram_a_fetches <= buffets.dram_a_fetches);
    }
}
