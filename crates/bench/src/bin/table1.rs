//! Table 1: tiling-strategy comparison
//! (see [`tailors_bench::figures::table1`]).
//!
//! Usage: `cargo run --release -p tailors-bench --bin table1 [scale]`

fn main() {
    tailors_bench::figures::table1(tailors_bench::scale_from_args());
}
