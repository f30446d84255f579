//! Fig. 13: Swiftiles' occupancy distributions on amazon0312
//! (see [`tailors_bench::figures::fig13`]).
//!
//! Usage: `cargo run --release -p tailors-bench --bin fig13 [scale]`

fn main() {
    tailors_bench::figures::fig13(tailors_bench::scale_from_args());
}
