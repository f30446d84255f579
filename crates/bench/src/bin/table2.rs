//! Table 2: characteristics of the 22 evaluation tensors
//! (see [`tailors_bench::figures::table2`]).
//!
//! Usage: `cargo run --release -p tailors-bench --bin table2 [scale]`

fn main() {
    tailors_bench::figures::table2(tailors_bench::scale_from_args());
}
