//! Graph analytics scenario: co-citation counting on a social graph.
//!
//! `Z = A·Aᵀ` over an adjacency matrix counts, for every pair of users,
//! how many neighbours they share — the workload class the paper's intro
//! motivates (graph computing / data analytics). This example runs the
//! *functional* engine, so the output matrix is actually computed through
//! real Tailors buffers and validated against a reference multiply, while
//! the buffers count the DRAM traffic overbooking saves.
//!
//! Run with: `cargo run --release --example graph_analytics`

use tailors::eddo::TailorConfig;
use tailors::sim::functional::{run_with_threads, FunctionalConfig};
use tailors::sim::threads_from_env;
use tailors::sim::{GridMode, MemBudget};
use tailors::tensor::gen::GenSpec;
use tailors::tensor::ops::{approx_eq, spmspm_a_at};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A small social graph: 3000 users, heavy-tailed follower counts.
    let graph = GenSpec::power_law(3_000, 3_000, 24_000).seed(42).generate();
    println!(
        "social graph: {} users, {} edges",
        graph.nrows(),
        graph.nnz()
    );

    // A buffer too small for the busiest tiles — the overbooking regime.
    let capacity = 1_500;
    let fifo = TailorConfig::for_latency(capacity, 100, 1)?.fifo_region();
    let overbooked = FunctionalConfig {
        capacity,
        fifo_region: fifo,
        rows_a: 400,
        cols_b: 400,
        overbooking: true,
        mem_budget: MemBudget::Unbounded,
        grid: GridMode::Grid2D,
        auto_plan: false,
    };
    let buffet_only = FunctionalConfig {
        overbooking: false,
        ..overbooked
    };

    let with_tailors = run_with_threads(&graph, &overbooked, threads_from_env())?;
    let without = run_with_threads(&graph, &buffet_only, threads_from_env())?;

    // Both must compute the same co-citation matrix…
    let reference = spmspm_a_at(&graph);
    assert!(approx_eq(&with_tailors.z, &reference, 1e-9));
    assert!(approx_eq(&without.z, &reference, 1e-9));
    println!(
        "co-citation matrix: {} nonzero pairs (verified against reference)",
        with_tailors.z.nnz()
    );

    // …but Tailors fetch far less when tiles overbook.
    println!(
        "overbooked tiles: {} of {}",
        with_tailors.overbooked_a_tiles,
        graph.nrows().div_ceil(overbooked.rows_a)
    );
    println!(
        "DRAM fetches (stationary operand): tailors {}, buffets {} ({:.2}x saved)",
        with_tailors.dram_a_fetches,
        without.dram_a_fetches,
        without.dram_a_fetches as f64 / with_tailors.dram_a_fetches.max(1) as f64
    );

    // Top co-citation pair (excluding self-pairs), for flavour.
    let best = with_tailors
        .z
        .iter()
        .filter(|&(r, c, _)| r != c)
        .max_by(|a, b| a.2.partial_cmp(&b.2).expect("finite"));
    if let Some((u, v, w)) = best {
        println!("most-aligned users: {u} and {v} (shared-neighbour weight {w:.1})");
    }
    Ok(())
}
