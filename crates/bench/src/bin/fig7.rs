//! Fig. 7: speedup of ExTensor-P and ExTensor-OB over ExTensor-N
//! (see [`tailors_bench::figures::fig7`]).
//!
//! Usage: `cargo run --release -p tailors-bench --bin fig7 [scale]`

fn main() {
    tailors_bench::figures::fig7(tailors_bench::scale_from_args());
}
