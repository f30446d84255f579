//! Shared harness code for the figure/table reproduction binaries.
//!
//! Every binary in `src/bin/` regenerates one table or figure from the
//! paper (see `DESIGN.md`'s per-experiment index). They all accept one
//! optional positional argument: the workload scale factor in `(0, 1]`
//! (default `1.0` = paper scale; use e.g. `0.03125` for a quick pass).
//! Architecture capacities are scaled by the same factor so tensor-to-
//! buffer ratios — and hence the evaluation's shape — are preserved.
//!
//! Cross-cutting environment knobs: `TAILORS_THREADS` pins suite worker
//! threads (see [`threads_from_env`]), and `TAILORS_GEN_CACHE` names the
//! on-disk tensor-generation cache directory (see [`generate_cached`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use tailors_sim::{run_balanced, ArchConfig, GridMode, MemBudget, RunMetrics, Variant};
use tailors_tensor::MatrixProfile;
use tailors_workloads::Workload;

// The generation caches moved to `tailors-workloads` so the serving layer
// (`tailors-serve`) can share them without depending on the bench harness;
// re-exported here so existing `tailors_bench::generate_cached` callers
// keep working.
pub use tailors_workloads::{generate_cached, profile_cached};

/// Results of running all three variants on one workload.
#[derive(Debug, Clone)]
pub struct SuiteRun {
    /// The workload (already scaled).
    pub workload: Workload,
    /// The workload's occupancy profile.
    pub profile: MatrixProfile,
    /// ExTensor-N metrics.
    pub n: RunMetrics,
    /// ExTensor-P metrics.
    pub p: RunMetrics,
    /// ExTensor-OB metrics (y = 10 %, k = 10).
    pub ob: RunMetrics,
}

impl SuiteRun {
    /// Speedup of P over N (a Fig. 7 bar).
    pub fn speedup_p(&self) -> f64 {
        self.p.speedup_over(&self.n)
    }

    /// Speedup of OB over N (a Fig. 7 bar).
    pub fn speedup_ob(&self) -> f64 {
        self.ob.speedup_over(&self.n)
    }

    /// Energy gain of P over N (a Fig. 8 bar).
    pub fn energy_gain_p(&self) -> f64 {
        self.p.energy_gain_over(&self.n)
    }

    /// Energy gain of OB over N (a Fig. 8 bar).
    pub fn energy_gain_ob(&self) -> f64 {
        self.ob.energy_gain_over(&self.n)
    }
}

/// Parses the scale factor from the first CLI argument (default 1.0).
///
/// # Panics
///
/// Panics with a usage message if the argument is present but not a number
/// in `(0, 1]`.
pub fn scale_from_args() -> f64 {
    match std::env::args().nth(1) {
        None => 1.0,
        Some(s) => {
            let v: f64 = s
                .parse()
                .unwrap_or_else(|_| panic!("usage: <bin> [scale in (0,1]], got {s:?}"));
            assert!(v > 0.0 && v <= 1.0, "scale must be in (0, 1]");
            v
        }
    }
}

// The thread-count knob lives in `tailors-sim`; re-exported here so
// existing `tailors_bench::threads_from_env` callers keep working.
pub use tailors_sim::threads_from_env;

/// The architecture used by every figure, scaled consistently.
pub fn arch_at(scale: f64) -> ArchConfig {
    ArchConfig::extensor().scaled(scale)
}

/// Generates one workload at `scale` (through the generation caches — see
/// [`generate_cached`] / [`profile_cached`]) and returns its profile. The
/// full tensor is released as soon as the profile is extracted; repeated
/// calls for the same workload and scale hit the strong profile cache.
pub fn profile_at(workload: &Workload, scale: f64) -> (Workload, MatrixProfile) {
    let scaled = workload.scaled(scale);
    let profile = MatrixProfile::clone(&profile_cached(&scaled));
    (scaled, profile)
}

/// Runs the three variants over the whole 22-workload suite, fanning the
/// independent workload runs across [`threads_from_env`] worker threads.
pub fn simulate_suite(scale: f64) -> Vec<SuiteRun> {
    simulate_suite_with_threads(scale, threads_from_env())
}

/// [`simulate_suite_with_threads`] routed through a long-lived
/// [`SimService`](tailors_serve::SimService): one request per
/// (workload, variant), submitted as a single cost-balanced batch, with
/// profiles and plans answered from the service's cache tiers when hot.
/// Output is bit-identical to the direct suite run at every thread count
/// and for any cache state — a repeated sweep only gets *faster*, never
/// different (`suite_results_are_identical_under_serving` pins this).
///
/// # Panics
///
/// Panics if `threads == 0`.
pub fn simulate_suite_served(
    service: &tailors_serve::SimService,
    scale: f64,
    threads: usize,
) -> Vec<SuiteRun> {
    assert!(threads > 0, "thread count must be positive");
    let arch = arch_at(scale);
    let suite = tailors_workloads::suite();
    let variants = [
        Variant::ExTensorN,
        Variant::ExTensorP,
        Variant::default_ob(),
    ];
    let reqs: Vec<tailors_serve::SimRequest> = suite
        .iter()
        .flat_map(|wl| {
            variants.map(|variant| tailors_serve::SimRequest {
                workload: wl.scaled(scale),
                variant,
                arch,
                budget: MemBudget::Unbounded,
                grid: GridMode::Panels,
                auto_plan: false,
            })
        })
        .collect();
    let responses = service.submit_batch(&reqs, threads);
    suite
        .iter()
        .zip(responses.chunks(variants.len()))
        .map(|(wl, r)| {
            let (workload, profile) = profile_at(wl, scale);
            SuiteRun {
                workload,
                profile,
                n: r[0].metrics,
                p: r[1].metrics,
                ob: r[2].metrics,
            }
        })
        .collect()
}

/// [`simulate_suite`] with an explicit thread count (`1` = fully serial).
/// Every workload is seeded and independent and results are reassembled
/// in suite order, so the output is identical for any count.
///
/// The fan-out is *cost-chunked*: workloads land in
/// [`tailors_sim::balanced_partition`] bins weighted by their scaled size
/// instead of uniform contiguous splits. The suite's sizes span two orders
/// of magnitude (Table 2 runs from 63 k- to 2 M-row tensors), so a uniform
/// split leaves every thread but the one holding the giants idle —
/// cost-shaped bins are what actually separates the parallel and serial
/// curves (the vendored rayon never steals work).
///
/// # Panics
///
/// Panics if `threads == 0`.
pub fn simulate_suite_with_threads(scale: f64, threads: usize) -> Vec<SuiteRun> {
    assert!(threads > 0, "thread count must be positive");
    let arch = arch_at(scale);
    let one = |wl: &Workload| {
        let (workload, profile) = profile_at(wl, scale);
        let run =
            |v: Variant| v.run_gridded(&profile, &arch, MemBudget::Unbounded, GridMode::Panels);
        let n = run(Variant::ExTensorN);
        let p = run(Variant::ExTensorP);
        let ob = run(Variant::default_ob());
        SuiteRun {
            workload,
            profile,
            n,
            p,
            ob,
        }
    };
    let suite = tailors_workloads::suite();
    // Generation and simulation cost both scale with the tensor's nonzero
    // count (plus a per-row term for profiles and row-panel sums).
    let costs: Vec<u128> = suite
        .iter()
        .map(|wl| {
            let s = wl.scaled(scale);
            s.target_nnz as u128 + s.nrows as u128 + 1
        })
        .collect();
    run_balanced(suite.len(), &costs, threads, |i| one(&suite[i]))
}

/// Prints a horizontal rule sized to `width`.
pub fn rule(width: usize) {
    println!("{}", "-".repeat(width));
}

/// Formats a count with thousands separators for table readability.
pub fn fmt_count(v: u128) -> String {
    let s = v.to_string();
    let mut out = String::with_capacity(s.len() + s.len() / 3);
    for (i, c) in s.chars().enumerate() {
        if i > 0 && (s.len() - i).is_multiple_of(3) {
            out.push(',');
        }
        out.push(c);
    }
    out
}

/// An ASCII bar of `frac` (clamped to `[0, 1]`) out of `width` cells.
pub fn bar(frac: f64, width: usize) -> String {
    let filled = ((frac.clamp(0.0, 1.0)) * width as f64).round() as usize;
    format!("{}{}", "#".repeat(filled), ".".repeat(width - filled))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fmt_count_groups_digits() {
        assert_eq!(fmt_count(0), "0");
        assert_eq!(fmt_count(999), "999");
        assert_eq!(fmt_count(1_000), "1,000");
        assert_eq!(fmt_count(1_234_567), "1,234,567");
    }

    #[test]
    fn bar_clamps() {
        assert_eq!(bar(0.5, 4), "##..");
        assert_eq!(bar(2.0, 3), "###");
        assert_eq!(bar(-1.0, 3), "...");
    }

    #[test]
    fn suite_results_do_not_depend_on_thread_count() {
        let scale = 1.0 / 256.0;
        let serial = simulate_suite_with_threads(scale, 1);
        let parallel = simulate_suite_with_threads(scale, 4);
        assert_eq!(serial.len(), parallel.len());
        for (s, p) in serial.iter().zip(&parallel) {
            assert_eq!(s.workload.name, p.workload.name);
            assert_eq!(s.n.cycles.to_bits(), p.n.cycles.to_bits());
            assert_eq!(s.speedup_ob().to_bits(), p.speedup_ob().to_bits());
            assert_eq!(s.energy_gain_p().to_bits(), p.energy_gain_p().to_bits());
        }
    }

    #[test]
    fn suite_results_are_identical_under_serving() {
        let scale = 1.0 / 256.0;
        let direct = simulate_suite_with_threads(scale, 1);
        let service = tailors_serve::SimService::new();
        // Cold pass, then a fully plan-hot pass, at different widths:
        // all bit-identical to the direct suite.
        for threads in [1, 3] {
            let served = simulate_suite_served(&service, scale, threads);
            assert_eq!(served.len(), direct.len());
            for (s, d) in served.iter().zip(&direct) {
                assert_eq!(s.workload.name, d.workload.name);
                assert_eq!(s.n, d.n, "{} threads={threads}", s.workload.name);
                assert_eq!(s.p, d.p, "{} threads={threads}", s.workload.name);
                assert_eq!(s.ob, d.ob, "{} threads={threads}", s.workload.name);
            }
        }
        let stats = service.stats();
        assert_eq!(stats.plan_hits, 66, "second pass must be fully plan-hot");
    }

    #[test]
    fn suite_run_smoke() {
        // A very small scale keeps this test fast while exercising the
        // whole pipeline.
        let runs = simulate_suite(1.0 / 256.0);
        assert_eq!(runs.len(), 22);
        for r in &runs {
            assert!(r.n.cycles > 0.0);
            assert!(r.speedup_p() > 0.0);
            assert!(r.speedup_ob() > 0.0);
            assert!(r.energy_gain_ob() > 0.0);
        }
    }
}
