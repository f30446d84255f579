//! Fig. 8: energy efficiency of ExTensor-P and ExTensor-OB over ExTensor-N
//! (see [`tailors_bench::figures::fig8`]).
//!
//! Usage: `cargo run --release -p tailors-bench --bin fig8 [scale]`

fn main() {
    tailors_bench::figures::fig8(tailors_bench::scale_from_args());
}
