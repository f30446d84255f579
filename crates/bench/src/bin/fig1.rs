//! Fig. 1: tile-occupancy distribution on the webbase-1M stand-in
//! (see [`tailors_bench::figures::fig1`]).
//!
//! Usage: `cargo run --release -p tailors-bench --bin fig1 [scale]`

fn main() {
    tailors_bench::figures::fig1(tailors_bench::scale_from_args());
}
