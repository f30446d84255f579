//! Analytical and functional models of an ExTensor-class sparse tensor
//! algebra accelerator, used to evaluate buffer overbooking (Tailors +
//! Swiftiles, MICRO 2023).
//!
//! * [`arch`] — the accelerator configuration (30 MB global buffer, 128
//!   PEs, 68.25 GB/s DRAM, §5.2), including Tailors FIFO-region sizing.
//! * [`energy`] — the per-action energy model (Accelergy/CACTI substitute).
//! * [`plan`] / [`dataflow`] — closed-form per-level access counts for the
//!   A-stationary intersection SpMSpM schedule, a roofline cycle model,
//!   and overbooking streaming-traffic accounting.
//! * [`variants`] — ExTensor-N / ExTensor-P / ExTensor-OB tile planners.
//! * [`exec`] — the memory-governed execution planner: 2-D (row-panel ×
//!   column-block) work-unit grids that bound the software engines'
//!   per-thread dense scratch to a configurable byte budget, the
//!   [`GridMode`] parallel decomposition, and the cost-balanced
//!   work-partitioner ([`balanced_partition`]) the engines schedule with.
//! * [`functional`] — an operation-level engine that executes the same
//!   schedule, computing the output and charging the stationary buffer's
//!   DRAM traffic in closed form; its oracle
//!   [`functional::reference_run`] drives real `tailors-eddo` buffers,
//!   and the two agree on the output and on every traffic count. With a
//!   [`MemBudget`] the engine scales to wide outputs (50 k+ columns) while
//!   staying bit-identical to the unbudgeted path, and with
//!   [`GridMode::Grid2D`] it fans out over `panels × blocks` work units
//!   with exact block-local traffic accounting.
//!
//! # Example
//!
//! ```
//! use tailors_sim::{ArchConfig, Variant};
//! use tailors_tensor::gen::GenSpec;
//!
//! let a = GenSpec::power_law(30_000, 30_000, 300_000).seed(3).generate();
//! let profile = a.profile();
//! let arch = ArchConfig::extensor();
//! let p = Variant::ExTensorP.run(&profile, &arch);
//! let ob = Variant::default_ob().run(&profile, &arch);
//! println!("overbooking speedup: {:.2}x", ob.speedup_over(&p));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arch;
pub mod dataflow;
pub mod energy;
pub mod exec;
pub mod functional;
pub mod metrics;
pub mod plan;
pub mod variants;

pub use arch::{ArchConfig, ArchKey};
pub use dataflow::{simulate, simulate_planned};
pub use exec::{
    balanced_partition, run_balanced, run_bins, AutoPlanner, BufferParams, ExecutionPlan, GridMode,
    MemBudget, PlanCost, PlanUnit, ScratchStats,
};

/// Worker-thread count from the `TAILORS_THREADS` environment variable
/// when set (`1` = the serial path), otherwise whatever rayon advertises.
/// Results never depend on this — every fan-out in the workspace
/// reassembles in item order.
///
/// # Panics
///
/// Panics if `TAILORS_THREADS` is set but not a positive integer.
pub fn threads_from_env() -> usize {
    match std::env::var("TAILORS_THREADS") {
        Err(_) => rayon::current_num_threads(),
        Ok(s) => {
            let n: usize = s.trim().parse().unwrap_or_else(|_| {
                panic!("TAILORS_THREADS must be a positive integer, got {s:?}")
            });
            assert!(n > 0, "TAILORS_THREADS must be positive");
            n
        }
    }
}

pub use energy::{ActivityCounts, EnergyModel};
pub use metrics::{DramBreakdown, ReuseStats, RunMetrics};
pub use plan::TilePlan;
pub use variants::{Variant, VariantKey};
