//! Ablations of FIFO-region sizing and of overbooking without Tailors
//! (see [`tailors_bench::figures::ablation`]).
//!
//! Usage: `cargo run --release -p tailors-bench --bin ablation [scale]`

fn main() {
    tailors_bench::figures::ablation(tailors_bench::scale_from_args());
}
