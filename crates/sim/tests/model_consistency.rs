//! Invariant tests for the analytical accelerator model: physics the model
//! must respect for any plan on any workload.

use tailors_core::{SwiftilesConfig, TilingStrategy};
use tailors_sim::{
    simulate, ActivityCounts, ArchConfig, BufferParams, DramBreakdown, RunMetrics, TilePlan,
    Variant,
};
use tailors_tensor::gen::GenSpec;
use tailors_tensor::tiling::RowPanels;
use tailors_tensor::MatrixProfile;

fn profiles() -> Vec<MatrixProfile> {
    vec![
        GenSpec::banded(8_000, 8_000, 120_000)
            .seed(1)
            .generate()
            .profile(),
        GenSpec::power_law(8_000, 8_000, 80_000)
            .seed(2)
            .generate()
            .profile(),
        GenSpec::clustered(8_000, 8_000, 60_000)
            .seed(3)
            .generate()
            .profile(),
        GenSpec::uniform(8_000, 8_000, 60_000)
            .seed(4)
            .generate()
            .profile(),
    ]
}

fn plan(rows: usize, pe_rows: usize, overbooking: bool) -> TilePlan {
    TilePlan {
        gb_rows_a: rows,
        gb_cols_b: rows,
        pe_rows_a: pe_rows,
        pe_cols_b: pe_rows,
        full_k: true,
        overbooking,
    }
}

/// DRAM traffic can never drop below the compulsory traffic: each operand
/// fetched at least once.
#[test]
fn dram_has_compulsory_floor() {
    let arch = ArchConfig::extensor().scaled(0.05);
    for p in profiles() {
        for rows in [64, 512, 4_096, 8_000] {
            for ob in [false, true] {
                let m = simulate(&p, &arch, plan(rows, rows / 8 + 1, ob));
                assert!(
                    m.activity.dram_elems >= 2 * p.nnz() as u128,
                    "dram below compulsory floor at rows={rows} ob={ob}"
                );
            }
        }
    }
}

/// Growing the buffers (same plan) never increases cycles or traffic.
/// (Energy is deliberately *not* asserted: larger SRAMs cost more per
/// access under the CACTI-style √capacity scaling — the very reason the
/// paper wants small buffers with high utilization.)
#[test]
fn bigger_buffers_never_hurt() {
    for p in profiles() {
        let small = ArchConfig::extensor().scaled(0.02);
        let large = ArchConfig::extensor().scaled(0.5);
        let pl = plan(1_024, 128, true);
        let m_small = simulate(&p, &small, pl);
        let m_large = simulate(&p, &large, pl);
        assert!(m_large.cycles <= m_small.cycles * 1.0001);
        assert!(m_large.activity.dram_elems <= m_small.activity.dram_elems);
        assert!(m_large.activity.gb_accesses <= m_small.activity.gb_accesses);
    }
}

/// With buffers big enough for everything, overbooking support changes
/// nothing: no tile overflows, so Tailors are inert.
#[test]
fn overbooking_is_inert_when_everything_fits() {
    let arch = ArchConfig::extensor(); // full 30 MB vs small test tensors
    for p in profiles() {
        let with = simulate(&p, &arch, plan(256, 64, true));
        let without = simulate(&p, &arch, plan(256, 64, false));
        assert_eq!(with.dram.overbook_extra, 0);
        assert_eq!(with.activity.dram_elems, without.activity.dram_elems);
        assert_eq!(with.reuse.overbooked_a_tiles, 0);
    }
}

/// The DRAM breakdown always reconciles: baseline + extra = total, and the
/// overhead fraction is a valid fraction.
#[test]
fn dram_breakdown_reconciles() {
    let arch = ArchConfig::extensor().scaled(0.02);
    for p in profiles() {
        for rows in [128, 1_000, 8_000] {
            let m = simulate(&p, &arch, plan(rows, (rows / 16).max(1), true));
            assert_eq!(m.dram.baseline + m.dram.overbook_extra, m.dram.total);
            let f = m.dram.overhead_fraction();
            assert!((0.0..=1.0).contains(&f));
        }
    }
}

/// Variant planners always produce plans the simulator accepts, across
/// arch scales.
#[test]
fn planners_are_total() {
    for p in profiles() {
        for scale in [0.01, 0.1, 1.0] {
            let arch = ArchConfig::extensor().scaled(scale);
            for v in [
                Variant::ExTensorN,
                Variant::ExTensorP,
                Variant::ExTensorOB { y: 0.0, k: 10 },
                Variant::ExTensorOB { y: 0.5, k: 3 },
                Variant::ExTensorOB { y: 1.0, k: 10 },
            ] {
                let m = v.run(&p, &arch);
                assert!(m.cycles.is_finite() && m.cycles > 0.0, "{v:?} at {scale}");
            }
        }
    }
}

/// Planning and simulation stay bit-identical to their full-statistics
/// forms: each variant's plan carries exactly the heights Table 1's
/// `TilingStrategy::choose` reports at the architecture's working-tile
/// and PE capacities, and the simulated multiply count is the brute-force
/// `Σ_k c_k²` over the column counts, not just the profile's cached copy.
#[test]
fn plans_and_macs_match_their_full_computations() {
    for p in profiles() {
        let macs: u128 = p.col_nnz().iter().map(|&c| (c as u128).pow(2)).sum();
        for scale in [1.0 / 64.0, 0.1, 1.0] {
            let arch = ArchConfig::extensor().scaled(scale);
            let (cap_gb, cap_pe) = (arch.tile_capacity(), arch.pe_operand_capacity());
            let ob = SwiftilesConfig::new(0.10, 10).unwrap();
            for (v, strategy, overbooking) in [
                (
                    Variant::ExTensorP,
                    TilingStrategy::PrescientUniformShape,
                    false,
                ),
                (Variant::default_ob(), TilingStrategy::Overbooked(ob), true),
            ] {
                let gb = strategy.choose(&p, cap_gb).rows_per_tile;
                let pe = strategy.choose(&p, cap_pe).rows_per_tile;
                let want = TilePlan {
                    gb_rows_a: gb,
                    gb_cols_b: gb,
                    pe_rows_a: pe,
                    pe_cols_b: pe,
                    full_k: true,
                    overbooking,
                }
                .normalized(p.nrows());
                assert_eq!(v.plan(&p, &arch), want, "{v:?} at {scale}");
            }
            for v in [
                Variant::ExTensorN,
                Variant::ExTensorP,
                Variant::default_ob(),
            ] {
                assert_eq!(v.run(&p, &arch).activity.macs, macs, "{v:?} at {scale}");
            }
        }
    }
}

/// `simulate`'s per-tile walks (A's DRAM, GB refetch and bumped sums,
/// overbooked tiles, PE batches, B's refetch, PE overflow), recomputed
/// tile by tile in `u128` through `BufferParams::steady_refetch` and
/// `div_ceil`, then carried through the model's closed form. Returns the
/// counts `simulate` must report for `plan`.
fn brute_force(
    p: &MatrixProfile,
    arch: &ArchConfig,
    plan: TilePlan,
) -> (DramBreakdown, ActivityCounts, [usize; 2], f64) {
    let nnz = p.nnz() as u128;
    let n_a = p.nrows().div_ceil(plan.gb_rows_a) as u128;
    let n_b = p.nrows().div_ceil(plan.gb_cols_b) as u128;
    let buffer = |capacity: u64, fifo_region: u64| BufferParams {
        capacity: capacity as usize,
        fifo_region: fifo_region as usize,
        overbooking: plan.overbooking,
    };
    let (cap_gb, cap_pe) = (arch.tile_capacity(), arch.pe_operand_capacity());
    let gb = buffer(cap_gb, arch.gb_fifo_region());
    let pe = buffer(cap_pe, arch.pe_fifo_region());
    let resident = |b: &BufferParams| -> u128 {
        let r = if plan.overbooking {
            b.capacity.saturating_sub(b.fifo_region).max(1)
        } else {
            b.capacity
        };
        r as u128
    };
    // Single-row panels carry no refetch (the address generator K-splits
    // them).
    let refetch = |b: &BufferParams, occ: u64, rows: usize| -> u128 {
        if rows <= 1 {
            0
        } else {
            b.steady_refetch(occ) as u128
        }
    };
    let walk = |rows: usize| {
        let panels = RowPanels::new(p, rows);
        (0..panels.n_tiles()).map(move |i| panels.occupancy(i))
    };
    let subtiles = plan.gb_rows_a.div_ceil(plan.pe_rows_a) as u128;
    let batch_floor = subtiles.div_ceil(arch.pe_count as u128).max(1);
    let wave = (arch.pe_count as u128 * resident(&pe)).max(1);
    let batches_for = |occ: u128| batch_floor.max(occ.div_ceil(wave));

    let (mut dram_a, mut refetch_a, mut bumped, mut over_a, mut batches) = (0, 0, 0, 0, 0);
    let (mut refetch_b, mut over_b, mut refetch_pe) = (0, 0, 0);
    if plan.full_k {
        for occ in walk(plan.gb_rows_a) {
            let rf = refetch(&gb, occ, plan.gb_rows_a);
            dram_a += occ as u128 + (n_b - 1) * rf;
            refetch_a += rf;
            batches += batches_for(occ as u128);
            if occ > cap_gb {
                over_a += 1;
                bumped += occ as u128 - resident(&gb).min(occ as u128);
            }
        }
        for occ in walk(plan.gb_cols_b) {
            refetch_b += refetch(&gb, occ, plan.gb_cols_b);
            over_b += usize::from(occ > cap_gb);
        }
        for occ in walk(plan.pe_rows_a) {
            refetch_pe += refetch(&pe, occ, plan.pe_rows_a);
        }
    } else {
        dram_a = nnz;
        batches = n_a * batches_for(nnz / n_a);
    }

    let macs = p.mults_a_at();
    let avg_uses = (macs / nnz).max(1);
    let pe_extra = refetch_pe * avg_uses.saturating_sub(n_b.min(avg_uses));
    let escalation = pe_extra * bumped / nnz;
    let dram_b = n_a * nnz + (batches - n_a) * refetch_b;
    let total = dram_a + dram_b + escalation;
    let (gb_reads_a, gb_reads_b) = (n_b * nnz + pe_extra, batches * nnz);
    let dram = DramBreakdown {
        total,
        baseline: dram_a - (n_b - 1) * refetch_a + n_a * nnz,
        overbook_extra: (n_b - 1) * refetch_a + (batches - n_a) * refetch_b + escalation,
    };
    let activity = ActivityCounts {
        dram_elems: total,
        gb_accesses: gb_reads_a + gb_reads_b + total,
        pe_buf_accesses: gb_reads_a + gb_reads_b + 3 * macs,
        macs,
        isect_coords: n_b * nnz + batches * nnz + 2 * macs,
    };
    (dram, activity, [over_a, over_b], bumped as f64 / nnz as f64)
}

/// The model's `u64` tile walks equal the brute-force `u128`
/// recomputation for every variant's plan on the suite at 1/256 and 1/64,
/// for the same plans with B streamed at half A's height (the one case
/// the model walks B's panels separately), and at the boundaries the
/// suite's own plans never reach: one- and two-row panels against a
/// working tile exactly as large as the heaviest row, and one smaller.
#[test]
fn tile_walks_match_a_brute_force_u128_recomputation() {
    let check =
        |p: &MatrixProfile, arch: &ArchConfig, plan: TilePlan, m: RunMetrics, what: &str| {
            let (dram, activity, [over_a, over_b], bumped) = brute_force(p, arch, plan);
            assert_eq!(m.dram, dram, "{what}");
            assert_eq!(m.activity, activity, "{what}");
            assert_eq!(m.reuse.overbooked_a_tiles, over_a, "{what}");
            assert_eq!(m.reuse.overbooked_b_tiles, over_b, "{what}");
            assert_eq!(m.reuse.bumped_fraction, bumped, "{what}");
        };
    for scale in [1.0 / 256.0, 1.0 / 64.0] {
        let arch = ArchConfig::extensor().scaled(scale);
        for wl in tailors_workloads::suite() {
            let p = wl.scaled(scale).pattern().0;
            for v in [
                Variant::ExTensorN,
                Variant::ExTensorP,
                Variant::default_ob(),
            ] {
                let plan = v.plan(&p, &arch);
                let what = format!("{} {v:?} at {scale}", wl.name);
                check(&p, &arch, plan, v.run(&p, &arch), &what);
                let split = TilePlan {
                    gb_cols_b: plan.gb_cols_b.div_ceil(2),
                    ..plan
                }
                .normalized(p.nrows());
                check(&p, &arch, split, simulate(&p, &arch, split), &what);
            }
            let heaviest = p.max_row_nnz() as u64;
            for cap in [heaviest, heaviest - 1] {
                // `tiny(g, g)`'s working tile holds ⌊0.4 g⌋, which takes
                // every value as `g` grows.
                let arch = (2 * cap..)
                    .map(|g| ArchConfig::tiny(g, g))
                    .find(|a| a.tile_capacity() == cap)
                    .unwrap();
                for (rows, overbooking) in [(1, false), (1, true), (2, false), (2, true)] {
                    let edge = plan(rows, 1, overbooking);
                    let what = format!("{} at capacity {cap}, {rows} rows", wl.name);
                    check(&p, &arch, edge, simulate(&p, &arch, edge), &what);
                }
            }
        }
    }
}

/// Reuse statistics are valid fractions and respond to capacity in the
/// right direction.
#[test]
fn reuse_fractions_are_sane() {
    for p in profiles() {
        let tight = simulate(
            &p,
            &ArchConfig::extensor().scaled(0.01),
            plan(4_000, 500, true),
        );
        let roomy = simulate(
            &p,
            &ArchConfig::extensor().scaled(1.0),
            plan(4_000, 500, true),
        );
        for m in [&tight, &roomy] {
            assert!((0.0..=1.0).contains(&m.reuse.reused_fraction));
            assert!(m.reuse.bumped_fraction >= 0.0);
        }
        assert!(roomy.reuse.reused_fraction >= tight.reuse.reused_fraction);
        assert!(tight.reuse.bumped_fraction >= roomy.reuse.bumped_fraction);
    }
}

/// Energy decreases when traffic decreases: a plan with strictly fewer
/// passes over B costs no more energy.
#[test]
fn energy_tracks_traffic() {
    let arch = ArchConfig::extensor().scaled(0.1);
    for p in profiles() {
        let few_passes = simulate(&p, &arch, plan(4_000, 256, false));
        let many_passes = simulate(&p, &arch, plan(250, 125, false));
        assert!(few_passes.activity.dram_elems <= many_passes.activity.dram_elems);
        assert!(few_passes.energy_pj <= many_passes.energy_pj * 1.0001);
    }
}
