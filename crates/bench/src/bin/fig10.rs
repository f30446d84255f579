//! Fig. 10: geomean OB/P speedup as the overbooking target y sweeps
//! (see [`tailors_bench::figures::fig10`]).
//!
//! Usage: `cargo run --release -p tailors-bench --bin fig10 [scale]`

fn main() {
    tailors_bench::figures::fig10(tailors_bench::scale_from_args());
}
