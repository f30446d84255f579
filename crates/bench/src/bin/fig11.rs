//! Fig. 11: achieved overbooking rate, initial estimate vs Swiftiles
//! (see [`tailors_bench::figures::fig11`]).
//!
//! Usage: `cargo run --release -p tailors-bench --bin fig11 [scale]`

fn main() {
    tailors_bench::figures::fig11(tailors_bench::scale_from_args());
}
