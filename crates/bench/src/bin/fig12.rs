//! Fig. 12: Swiftiles MAE as the sample parameter k sweeps
//! (see [`tailors_bench::figures::fig12`]).
//!
//! Usage: `cargo run --release -p tailors-bench --bin fig12 [scale]`

fn main() {
    tailors_bench::figures::fig12(tailors_bench::scale_from_args());
}
