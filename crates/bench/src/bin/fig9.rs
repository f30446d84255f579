//! Fig. 9: DRAM streaming overhead and reuse vs bumped data under overbooking
//! (see [`tailors_bench::figures::fig9`]).
//!
//! Usage: `cargo run --release -p tailors-bench --bin fig9 [scale]`

fn main() {
    tailors_bench::figures::fig9(tailors_bench::scale_from_args());
}
