//! Runs every figure/table reproduction in sequence (the full evaluation).
//!
//! Usage: `cargo run --release -p tailors-bench --bin run_all -- [scale]`
//!
//! At `scale = 1.0` (default) the workloads have the paper's full
//! dimensions; the whole evaluation takes seconds. The figures run in this
//! process and share one in-process profile cache, so each workload's
//! profile is streamed from the generator once. `TAILORS_THREADS` pins the
//! suite's worker threads (`1` is the fully serial path); without it the
//! figures use all available cores. The output is identical either way.
//!
//! Every figure runs even if an earlier one panics; `run_all` then exits 1
//! and lists the figures that failed.

use tailors_bench::figures::{run_figures, FIGURES};

fn main() {
    let failed = run_figures(&FIGURES, tailors_bench::scale_from_args());
    if !failed.is_empty() {
        eprintln!("run_all: {} failed: {}", failed.len(), failed.join(", "));
        std::process::exit(1);
    }
}
