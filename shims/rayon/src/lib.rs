//! Offline shim for the one `rayon` item this workspace uses:
//! [`current_num_threads`], the default worker count. Every fan-out runs
//! on `tailors_sim::exec::run_bins` (scoped `std::thread`s), not here.

#![forbid(unsafe_code)]

/// The default worker-thread count: the `RAYON_NUM_THREADS` environment
/// variable when it holds a positive integer, otherwise
/// `std::thread::available_parallelism()` (1 if that is unknown).
pub fn current_num_threads() -> usize {
    std::env::var("RAYON_NUM_THREADS")
        .ok()
        .and_then(|s| s.trim().parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
        })
}
