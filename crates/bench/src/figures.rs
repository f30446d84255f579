//! The paper's figures and tables, one function each.
//!
//! Each function prints one figure or table at workload scale `scale` and
//! panics if `scale` is outside `(0, 1]`. The binary of the same name in
//! `src/bin/` calls it with [`scale_from_args`](crate::scale_from_args),
//! and `run_all` calls every entry of [`FIGURES`] in one process through
//! [`run_figures`]. Every figure reads only occupancy profiles, which come
//! from the generator's pattern stream, so none of them builds a tensor.

use std::panic::catch_unwind;

use tailors_core::swiftiles::{achieved_overbooking_rate, Swiftiles, SwiftilesConfig};
use tailors_core::TilingStrategy;
use tailors_eddo::replay::replay_tailor;
use tailors_eddo::TailorConfig;
use tailors_sim::{simulate, Variant};
use tailors_tensor::stats::{
    geomean, mae_to_target, pearson, quantile_sorted, summarize, Histogram,
};
use tailors_tensor::tiling::RowPanels;

use crate::{arch_at, bar, check_scale, fmt_count, profile_at, rule, simulate_suite, SuiteRun};

/// A figure's label and the function that prints it.
pub type Figure = (&'static str, fn(f64));

/// The full evaluation, in the order `run_all` prints it.
pub const FIGURES: [Figure; 10] = [
    ("table2", table2),
    ("fig1", fig1),
    ("table1", table1),
    ("fig7", fig7),
    ("fig8", fig8),
    ("fig9", fig9),
    ("fig10", fig10),
    ("fig11", fig11),
    ("fig12", fig12),
    ("fig13", fig13),
];

/// Runs `figures` in order at `scale`, each under a banner and each
/// isolated with `catch_unwind`: a panicking figure does not stop the
/// ones after it. Returns the labels of the figures that panicked.
pub fn run_figures(figures: &[Figure], scale: f64) -> Vec<&'static str> {
    let mut failed = Vec::new();
    for &(label, figure) in figures {
        println!();
        println!("==================== {label} ====================");
        if catch_unwind(|| figure(scale)).is_err() {
            eprintln!("{label} panicked");
            failed.push(label);
        }
    }
    failed
}

/// Table 2: characteristics of the 22 evaluation tensors, with the actual
/// statistics of the generated synthetic stand-ins alongside the paper's
/// targets.
pub fn table2(scale: f64) {
    check_scale(scale);
    println!("Table 2 — workload characteristics (scale = {scale})");
    rule(92);
    println!(
        "{:<20} {:>14} {:>12} {:>12} {:>12} {:>12}",
        "tensor", "dimensions", "target nnz", "actual nnz", "paper spars.", "actual spars."
    );
    rule(92);
    for wl in tailors_workloads::suite() {
        let (scaled, profile) = profile_at(&wl, scale);
        println!(
            "{:<20} {:>6}x{:<7} {:>12} {:>12} {:>11.5}% {:>11.5}%",
            wl.name,
            scaled.nrows,
            scaled.ncols,
            fmt_count(scaled.target_nnz as u128),
            fmt_count(profile.nnz() as u128),
            100.0 * wl.paper_sparsity,
            100.0 * profile.sparsity(),
        );
    }
    rule(92);
}

/// Fig. 1: tile-occupancy distribution for a fixed large coordinate-space
/// tile size on a high-variability SuiteSparse-style tensor.
///
/// The paper partitions a SuiteSparse tensor into 51.4 M-element tiles and
/// observes: maximum occupancy (31.6 K) more than three orders of magnitude
/// below the tile size, and a 90th-percentile occupancy more than 15x below
/// the maximum. This reproduces those statistics on the synthetic
/// webbase-1M stand-in.
pub fn fig1(scale: f64) {
    check_scale(scale);
    let wl = tailors_workloads::by_name("webbase-1M").expect("suite tensor");
    let (scaled, profile) = profile_at(&wl, scale);
    // The paper's 51.4M-element tile size, scaled with the workload.
    let tile_size = (51_400_000.0 * scale) as u64;
    let rows = ((tile_size / profile.ncols().max(1) as u64).max(1)) as usize;
    let panels = RowPanels::new(&profile, rows);
    let occ: Vec<u64> = panels.occupancies().collect();
    let s = summarize(&occ).expect("non-empty tiling");

    println!(
        "Fig. 1 — tile occupancy distribution ({}, scale = {scale})",
        scaled.name
    );
    rule(64);
    println!("uncompressed tile size : {}", panels.tile_size());
    println!("number of tiles        : {}", s.count);
    println!("maximum occupancy      : {}", s.max);
    println!("90th pct occupancy     : {}", s.p90);
    println!("99th pct occupancy     : {}", s.p99);
    println!("median occupancy       : {}", s.median);
    println!(
        "size / max occupancy   : {:.0}x   (paper: >1000x)",
        panels.tile_size() as f64 / s.max.max(1) as f64
    );
    println!(
        "max / 90th pct         : {:.1}x   (paper: >15x)",
        s.max as f64 / s.p90.max(1) as f64
    );
    rule(64);
    println!("histogram (fraction of tiles per occupancy bin):");
    let h = Histogram::new(&occ, 16);
    for ((start, _), frac) in h.iter().zip(h.fractions()) {
        println!("{:>10} | {} {:.1}%", start, bar(frac, 40), 100.0 * frac);
    }
}

/// Table 1: tiling-strategy comparison — buffer utilization (adaptability)
/// and tiling tax (efficiency) for all four strategies, measured on a
/// representative subset of the suite.
pub fn table1(scale: f64) {
    check_scale(scale);
    let arch = arch_at(scale);
    let capacity = arch.tile_capacity();
    let strategies: [(&str, TilingStrategy); 4] = [
        ("Uniform shape", TilingStrategy::UniformShape),
        (
            "Prescient uniform shape",
            TilingStrategy::PrescientUniformShape,
        ),
        ("Uniform occupancy (PST)", TilingStrategy::UniformOccupancy),
        (
            "Overbooking (this work)",
            TilingStrategy::Overbooked(SwiftilesConfig::new(0.10, 10).expect("valid y")),
        ),
    ];
    let representative = ["rma10", "amazon0312", "webbase-1M", "roadNet-CA"];

    println!("Table 1 — tiling strategies (scale = {scale}, capacity = {capacity} nnz)");
    for name in representative {
        let wl = tailors_workloads::by_name(name).expect("suite tensor");
        let (_, profile) = profile_at(&wl, scale);
        println!();
        println!("{name}:");
        rule(84);
        println!(
            "{:<26} {:>12} {:>10} {:>16} {:>14}",
            "strategy", "utilization", "overbook%", "preproc tax", "matching tax"
        );
        rule(84);
        for (label, strategy) in &strategies {
            let choice = strategy.choose(&profile, capacity);
            println!(
                "{:<26} {:>11.1}% {:>9.1}% {:>16} {:>14}",
                label,
                100.0 * choice.mean_utilization,
                100.0 * choice.overbooking_rate,
                fmt_count(choice.tax.preprocessing_nnz as u128),
                fmt_count(choice.tax.matching_ops as u128),
            );
        }
        rule(84);
    }
    println!();
    println!("paper's qualitative Table 1: uniform = very low util / no tax;");
    println!("prescient = low util / high tax; PST = high util / very high tax;");
    println!("overbooking = high util / low tax.");
}

/// Fig. 7: speedup of ExTensor-P and ExTensor-OB relative to ExTensor-N
/// on all 22 workloads, plus geometric means.
pub fn fig7(scale: f64) {
    check_scale(scale);
    println!("Fig. 7 — speedup over ExTensor-N (scale = {scale})");
    print_p_ob_table(scale, SuiteRun::speedup_p, SuiteRun::speedup_ob);
    println!("paper reports:       geomean OB/N = 52.7x, OB/P = 2.3x");
}

/// Fig. 8: energy efficiency of ExTensor-P and ExTensor-OB normalized to
/// ExTensor-N on all 22 workloads, plus geometric means.
pub fn fig8(scale: f64) {
    check_scale(scale);
    println!("Fig. 8 — energy efficiency normalized to ExTensor-N (scale = {scale})");
    print_p_ob_table(scale, SuiteRun::energy_gain_p, SuiteRun::energy_gain_ob);
    println!("paper reports:       geomean OB/N = 22.5x, OB/P = 2.5x");
}

/// The body Figs. 7 and 8 share: per-workload P and OB gains over N, their
/// ratio, and the geomeans of each column, followed by a blank line.
fn print_p_ob_table(scale: f64, gain_p: fn(&SuiteRun) -> f64, gain_ob: fn(&SuiteRun) -> f64) {
    rule(66);
    println!(
        "{:<20} {:>12} {:>12} {:>12}",
        "workload", "ExTensor-P", "ExTensor-OB", "OB / P"
    );
    rule(66);
    let runs = simulate_suite(scale);
    let mut p = Vec::new();
    let mut ob = Vec::new();
    for r in &runs {
        let (gp, gob) = (gain_p(r), gain_ob(r));
        println!(
            "{:<20} {:>11.2}x {:>11.2}x {:>11.2}x",
            r.workload.name,
            gp,
            gob,
            gob / gp
        );
        p.push(gp);
        ob.push(gob);
    }
    rule(66);
    let gp = geomean(&p).expect("non-empty suite");
    let gob = geomean(&ob).expect("non-empty suite");
    println!(
        "{:<20} {:>11.2}x {:>11.2}x {:>11.2}x",
        "geomean",
        gp,
        gob,
        gob / gp
    );
    println!();
}

/// Fig. 9: the cost side of overbooking at y = 10 %.
///
/// (a) per-workload fraction of DRAM traffic spent streaming bumped data
///     through Tailors (paper average: 26 %);
/// (b) data reused vs bumped-data percentage, with their correlation
///     (paper: strongly inversely correlated).
pub fn fig9(scale: f64) {
    check_scale(scale);
    let runs = simulate_suite(scale);

    println!("Fig. 9a — DRAM traffic share of overbooking streaming (scale = {scale})");
    rule(70);
    println!(
        "{:<20} {:>10} {:>10}  overhead bar",
        "workload", "baseline%", "overhead%"
    );
    rule(70);
    let mut overheads = Vec::new();
    for r in &runs {
        let ovh = r.ob.dram.overhead_fraction();
        overheads.push(ovh);
        println!(
            "{:<20} {:>9.1}% {:>9.1}%  {}",
            r.workload.name,
            100.0 * (1.0 - ovh),
            100.0 * ovh,
            bar(ovh, 24)
        );
    }
    rule(70);
    let avg = overheads.iter().sum::<f64>() / overheads.len() as f64;
    println!("average overhead: {:.1}%   (paper: 26%)", 100.0 * avg);

    println!();
    println!("Fig. 9b — data reused vs bumped data (y = 10%)");
    rule(56);
    println!("{:<20} {:>12} {:>12}", "workload", "bumped %", "reused %");
    rule(56);
    let mut bumped = Vec::new();
    let mut reused = Vec::new();
    for r in &runs {
        let b = 100.0 * r.ob.reuse.bumped_fraction;
        let u = 100.0 * r.ob.reuse.reused_fraction;
        bumped.push(b);
        reused.push(u);
        println!("{:<20} {:>11.1}% {:>11.1}%", r.workload.name, b, u);
    }
    rule(56);
    match pearson(&bumped, &reused) {
        Some(rho) => {
            println!("correlation(bumped, reused) = {rho:.3}   (paper: strong inverse correlation)")
        }
        None => println!("correlation undefined (degenerate data)"),
    }
}

/// Fig. 10: geomean speedup of ExTensor-OB over ExTensor-P as the target
/// overbooking rate y sweeps 0..100 %.
///
/// The paper's curve: ~0.75x at y = 0 (pure estimation error), rising to a
/// peak around y = 22 %, then degrading as streaming overhead dominates,
/// far below 1x at y = 100 %. It also reports an idealized best-y-per-
/// workload oracle at 2.1x the fixed y = 10 % choice — printed here too.
pub fn fig10(scale: f64) {
    check_scale(scale);
    let arch = arch_at(scale);
    let ys = [
        0.0, 0.02, 0.05, 0.10, 0.15, 0.22, 0.30, 0.40, 0.50, 0.65, 0.80, 0.90, 1.0,
    ];

    // Profile each workload once; sweep y on the cached profiles.
    let suite: Vec<_> = tailors_workloads::suite()
        .iter()
        .map(|wl| profile_at(wl, scale))
        .collect();
    let p_runs: Vec<_> = suite
        .iter()
        .map(|(_, profile)| Variant::ExTensorP.run(profile, &arch))
        .collect();

    println!("Fig. 10 — geomean OB/P speedup vs overbooking target y (scale = {scale})");
    rule(64);
    let mut per_workload_best = vec![0.0f64; suite.len()];
    for &y in &ys {
        let mut ratios = Vec::new();
        for (i, (_, profile)) in suite.iter().enumerate() {
            let ob = Variant::ExTensorOB { y, k: 10 }.run(profile, &arch);
            let ratio = ob.speedup_over(&p_runs[i]);
            per_workload_best[i] = per_workload_best[i].max(ratio);
            ratios.push(ratio);
        }
        let g = geomean(&ratios).expect("non-empty suite");
        println!(
            "y = {:>5.1}% : {:>6.2}x  {}",
            100.0 * y,
            g,
            bar(g / 4.0, 32)
        );
    }
    rule(64);
    let oracle = geomean(&per_workload_best).expect("non-empty suite");
    println!(
        "idealized best-y-per-workload oracle: {oracle:.2}x over P (paper: 4.8x over P, \
         2.1x over fixed y = 10%)"
    );
    println!("paper's curve: ~0.75x at y=0, peak near y=22%, <<1x at y=100%");
}

/// Fig. 11: achieved overbooking rate when tiling with the raw initial
/// estimate T_initial vs with the Swiftiles-scaled prediction T_target
/// (y = 10 %, all tiles sampled).
///
/// The paper: the initial estimate averages 19.9 % overbooking with an MAE
/// of 15.6 %; after scaling the average is 10.6 % with an MAE of 5.8 %.
pub fn fig11(scale: f64) {
    check_scale(scale);
    let arch = arch_at(scale);
    let capacity = arch.tile_capacity();
    let y = 0.10;
    let config = SwiftilesConfig::new(y, 10).expect("valid y").sample_all();

    println!("Fig. 11 — overbooking rate: initial estimate vs Swiftiles (scale = {scale})");
    rule(62);
    println!(
        "{:<20} {:>16} {:>16}",
        "workload", "initial rate", "scaled rate"
    );
    rule(62);
    let mut initial = Vec::new();
    let mut scaled = Vec::new();
    for wl in tailors_workloads::suite() {
        let (_, profile) = profile_at(&wl, scale);
        let est = Swiftiles::new(config).estimate(&profile, capacity);
        let r0 = achieved_overbooking_rate(&profile, est.rows_initial, capacity);
        let r1 = achieved_overbooking_rate(&profile, est.rows_target, capacity);
        initial.push(100.0 * r0);
        scaled.push(100.0 * r1);
        println!(
            "{:<20} {:>15.1}% {:>15.1}%",
            wl.name,
            100.0 * r0,
            100.0 * r1
        );
    }
    rule(62);
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    println!(
        "initial estimate: mean {:.1}%, MAE {:.1}%   (paper: 19.9%, 15.6%)",
        mean(&initial),
        mae_to_target(&initial, 100.0 * y)
    );
    println!(
        "after scaling   : mean {:.1}%, MAE {:.1}%   (paper: 10.6%,  5.8%)",
        mean(&scaled),
        mae_to_target(&scaled, 100.0 * y)
    );
}

/// Fig. 12: MAE of Swiftiles' achieved-vs-target overbooking rate as the
/// sample parameter k sweeps from 0 (no sampling: the initial estimate) to
/// full sampling, at y = 10 %.
///
/// The paper: error drops steeply from k = 0, reaches ~5.8 % at k = 10,
/// and plateaus near 5.5 % at full sampling (the residual is the one-shot
/// scaling assumption, not sampling noise).
pub fn fig12(scale: f64) {
    check_scale(scale);
    let arch = arch_at(scale);
    let capacity = arch.tile_capacity();
    let y = 0.10;
    let seeds = [1u64, 2, 3];

    let suite: Vec<_> = tailors_workloads::suite()
        .iter()
        .map(|wl| profile_at(wl, scale))
        .collect();

    println!("Fig. 12 — Swiftiles MAE vs sample parameter k (y = 10%, scale = {scale})");
    rule(60);
    for k in [0usize, 1, 2, 5, 10, 20, 30, 50] {
        let mut rates = Vec::new();
        for (_, profile) in &suite {
            for &seed in &seeds {
                let config = SwiftilesConfig::new(y, k).expect("valid y").seed(seed);
                let est = Swiftiles::new(config).estimate(profile, capacity);
                rates.push(100.0 * achieved_overbooking_rate(profile, est.rows_target, capacity));
            }
        }
        let mae = mae_to_target(&rates, 100.0 * y);
        println!("k = {k:>3} : MAE {:>5.1}%  {}", mae, bar(mae / 25.0, 32));
    }
    // Full sampling limit.
    let mut rates = Vec::new();
    for (_, profile) in &suite {
        let config = SwiftilesConfig::new(y, 10).expect("valid y").sample_all();
        let est = Swiftiles::new(config).estimate(profile, capacity);
        rates.push(100.0 * achieved_overbooking_rate(profile, est.rows_target, capacity));
    }
    let mae = mae_to_target(&rates, 100.0 * y);
    println!("k = all : MAE {:>5.1}%  {}", mae, bar(mae / 25.0, 32));
    rule(60);
    println!("paper: MAE 5.8% at k = 10; 5.5% fully sampled (one-shot scaling residual)");
}

/// Fig. 13: Swiftiles' distributions on amazon0312 for a buffer of 8 K
/// nonzeros at y = 10 %: the sampled distribution at T_initial, the scaled
/// prediction at T_target, and the observed distribution when the tensor is
/// actually tiled at T_target.
pub fn fig13(scale: f64) {
    check_scale(scale);
    let capacity = (8_192.0 * scale).max(64.0) as u64; // the paper's 8K buffer
    let y = 0.10;
    let wl = tailors_workloads::by_name("amazon0312").expect("suite tensor");
    let (scaled_wl, profile) = profile_at(&wl, scale);

    let config = SwiftilesConfig::new(y, 10).expect("valid y").sample_all();
    let est = Swiftiles::new(config).estimate(&profile, capacity);

    // The three distributions of Fig. 13.
    let initial: Vec<u64> = est.samples.clone();
    // Predicted: the sampled distribution linearly rescaled so Q_y lands on
    // the capacity (what Swiftiles *assumes* tiling at T_target looks like).
    let q_y = est.q_y.expect("sampled") as f64;
    let predicted: Vec<u64> = initial
        .iter()
        .map(|&o| (o as f64 * capacity as f64 / q_y).round() as u64)
        .collect();
    let observed: Vec<u64> = RowPanels::new(&profile, est.rows_target)
        .occupancies()
        .collect();

    println!(
        "Fig. 13 — Swiftiles distributions on {} (buffer = {} nnz, y = 10%, scale = {scale})",
        scaled_wl.name, capacity
    );
    rule(74);
    println!(
        "T_initial = {} ({} rows/tile); T_target = {} ({} rows/tile)",
        est.t_initial, est.rows_initial, est.t_target, est.rows_target
    );
    let frac_over = |v: &[u64]| {
        100.0 * v.iter().filter(|&&o| o > capacity).count() as f64 / v.len().max(1) as f64
    };
    println!(
        "tiles over capacity: initial {:.1}%, predicted {:.1}%, observed {:.1}% (target 10%)",
        frac_over(&initial),
        frac_over(&predicted),
        frac_over(&observed)
    );
    rule(74);

    for (label, data) in [
        ("T_initial (sampled)", &initial),
        ("T_target (predicted)", &predicted),
        ("T_target (observed)", &observed),
    ] {
        println!();
        println!("{label}: CDF at selected occupancies");
        let mut sorted = data.clone();
        sorted.sort_unstable();
        for pct in [50.0, 80.0, 90.0, 95.0, 99.0, 100.0] {
            let v = quantile_sorted(&sorted, pct / 100.0);
            println!("  {:>5.1}% of tiles <= {:>10} nnz", pct, v);
        }
        let h = Histogram::new(data, 8);
        let fr = h.fractions();
        print!("  pdf:");
        for ((start, _), f) in h.iter().zip(fr) {
            print!(" [{start}:{:.0}%]", 100.0 * f);
        }
        println!();
    }
    rule(74);
    println!("paper: scaling aligns the predicted CDF with the observed one at the");
    println!("y = 10% point (90% of tiles fit) despite T_initial being inaccurate.");
}

/// Ablations of the design choices DESIGN.md calls out (not part of
/// [`FIGURES`]):
///
/// 1. **FIFO-region sizing** (§3.3.1): the paper sizes the streaming region
///    statically to hide the parent round trip; too small starves the
///    child, too large sacrifices resident reuse. This sweeps the region
///    fraction and reports the retained-reuse side of that trade-off on a
///    real overbooked traversal.
/// 2. **Overbooking without Tailors** (Fig. 3a): the same oversized tiling
///    backed by plain buffets, which refetch whole tiles per traversal —
///    demonstrating that the Tailors mechanism, not the larger tiles
///    alone, is what makes overbooking profitable.
pub fn ablation(scale: f64) {
    check_scale(scale);

    // --- Ablation 1: FIFO-region size vs retained reuse. -----------------
    println!("Ablation 1 — FIFO-region size vs retained reuse (overbooked tile)");
    rule(64);
    let capacity = 4_096usize;
    let tile: Vec<u32> = (0..(capacity as u32 * 2)).collect(); // 2x overbooked
    let passes = 8;
    println!(
        "{:>12} {:>10} {:>14} {:>10}",
        "fifo region", "resident", "parent fetches", "reuse"
    );
    for frac in [1, 2, 5, 10, 25, 50, 75, 90] {
        let region = (capacity * frac / 100).clamp(1, capacity - 1);
        let config = TailorConfig::new(capacity, region).expect("valid config");
        let report = replay_tailor(&tile, config, passes).expect("replay");
        println!(
            "{:>11}% {:>10} {:>14} {:>9.1}%",
            frac,
            config.resident_region(),
            report.parent_fetches,
            100.0 * report.reuse_fraction()
        );
    }
    println!("larger streaming regions trade resident reuse for latency hiding");
    println!("(the latency-hiding benefit is a pipeline effect the per-element");
    println!("traffic model cannot show; the paper sizes for the round trip).");

    // --- Ablation 2: overbooked tiling with vs without Tailors. ----------
    println!();
    println!("Ablation 2 — overbooked tiling with Tailors vs plain buffets (scale = {scale})");
    rule(72);
    let arch = arch_at(scale);
    println!(
        "{:<20} {:>12} {:>14} {:>14}",
        "workload", "OB/P (tailors)", "OB/P (buffets)", "tailors gain"
    );
    rule(72);
    for name in ["amazon0312", "webbase-1M", "roadNet-CA", "rma10"] {
        let wl = tailors_workloads::by_name(name).expect("suite tensor");
        let (_, profile) = profile_at(&wl, scale);
        let p = Variant::ExTensorP.run(&profile, &arch);
        let ob_plan = Variant::default_ob().plan(&profile, &arch);
        let with_tailors = simulate(&profile, &arch, ob_plan);
        let mut buffet_plan = ob_plan;
        buffet_plan.overbooking = false; // same tiles, no streaming support
        let without = simulate(&profile, &arch, buffet_plan);
        println!(
            "{:<20} {:>13.2}x {:>13.2}x {:>13.2}x",
            name,
            with_tailors.speedup_over(&p),
            without.speedup_over(&p),
            without.cycles / with_tailors.cycles
        );
    }
    rule(72);
    println!("without Tailors, every traversal of an overbooked tile refetches the");
    println!("whole tile (Fig. 3a): speculative tiling alone is not enough.");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_panicking_figure_does_not_stop_the_ones_after_it() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        static RAN: AtomicUsize = AtomicUsize::new(0);
        fn ok(_: f64) {
            RAN.fetch_add(1, Ordering::SeqCst);
        }
        fn boom(_: f64) {
            panic!("deliberate figure failure");
        }
        let figures: [Figure; 4] = [("a", ok), ("b", boom), ("c", ok), ("d", ok)];
        assert_eq!(run_figures(&figures, 0.5), ["b"]);
        assert_eq!(RAN.load(Ordering::SeqCst), 3, "figures after a panic run");
    }
}
