//! Invariant tests for the analytical accelerator model: physics the model
//! must respect for any plan on any workload.

use tailors_core::{SwiftilesConfig, TilingStrategy};
use tailors_sim::{simulate, ArchConfig, TilePlan, Variant};
use tailors_tensor::gen::GenSpec;
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
