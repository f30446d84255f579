//! The analytical ExTensor dataflow model.
//!
//! Closed-form per-level access counts for the A-stationary, intersection-
//! based SpMSpM schedule (paper §5.2):
//!
//! ```text
//! for each A-tile i (resident in the GB A-partition):        # n_a tiles
//!     for each B-tile j (streamed into the GB B-partition):  # n_b tiles
//!         for each batch of 128 PE A-subtiles:               # n_batches
//!             for each B streaming chunk:                    # n_chunks
//!                 intersect coordinate streams, MAC matches
//! ```
//!
//! Reuse structure (what overbooking changes):
//!
//! * the GB **A-tile** is traversed once per B-tile (`n_b` times over its
//!   residence). An overbooked A-tile refetches its bumped portion from
//!   DRAM on each traversal after the first — with Tailors only the bumped
//!   portion; with plain buffets the *whole* tile (Fig. 3).
//! * the GB **B-tile** is traversed once per PE batch within a pair
//!   (`n_batches` times). Overbooked B-tiles refetch analogously.
//! * the PE **A-subtile** is traversed once per B chunk (`n_chunks` times
//!   within a pair); overflow refetches come from the GB, not DRAM.
//!
//! Because every tile is a `K`-spanning panel, all sums reduce to O(#tiles)
//! prefix-sum arithmetic on the workload's [`MatrixProfile`] — exact even
//! for the 2 M-row tensors.

use tailors_tensor::tiling::RowPanels;
use tailors_tensor::MatrixProfile;

use crate::arch::ArchConfig;
use crate::energy::{ActivityCounts, EnergyModel};
use crate::exec::{BufferParams, ExecutionPlan, GridMode, MemBudget};
use crate::metrics::{DramBreakdown, ReuseStats, RunMetrics};
use crate::plan::TilePlan;

/// Simulates one `Z = A·Aᵀ` run and returns its metrics, with an
/// unbounded software-scratch budget and the panels-only grid (see
/// [`simulate_planned`] for an explicit execution plan).
///
/// # Panics
///
/// Panics if the profile is not square (the suite workloads all are) or has
/// no nonzeros.
pub fn simulate(profile: &MatrixProfile, arch: &ArchConfig, plan: TilePlan) -> RunMetrics {
    let plan = plan.normalized(profile.nrows());
    let exec = ExecutionPlan::for_tile_plan(
        profile.nrows(),
        profile.ncols(),
        &plan,
        MemBudget::Unbounded,
    );
    simulate_planned(profile, arch, plan, &exec, GridMode::Panels)
}

/// [`simulate`] with a precomputed software execution plan and a
/// functional [`GridMode`]: the pure simulation function every entry
/// point (and [`Variant::run_planned`](crate::variants::Variant::run_planned))
/// bottoms out in.
///
/// Neither `exec` nor `grid` changes the modeled hardware counts — they
/// describe the *software* execution plan (how a functional replay of
/// this tiling would block its dense scratch, and how many independently
/// schedulable work units that exposes), recorded in
/// [`RunMetrics::scratch`] so budget/grid sweeps can report feasibility
/// and parallel width alongside performance.
///
/// `exec` comes from
/// [`Variant::execution_plan`](crate::variants::Variant::execution_plan):
/// either `ExecutionPlan::for_tile_plan(nrows, ncols, &plan, budget)` or
/// an auto-planned height with the tile plan's streamed width. Callers
/// like `tailors-serve` cache it keyed by (matrix identity, variant,
/// architecture, budget) so a hot request performs no planning at all.
/// Checked in debug builds.
///
/// # Panics
///
/// As [`simulate`]; additionally (debug builds) if `exec` is not
/// canonical for its panel height and the plan's streamed width.
pub fn simulate_planned(
    profile: &MatrixProfile,
    arch: &ArchConfig,
    plan: TilePlan,
    exec: &ExecutionPlan,
    grid: GridMode,
) -> RunMetrics {
    assert_eq!(
        profile.nrows(),
        profile.ncols(),
        "the A·Aᵀ dataflow expects a square tensor"
    );
    assert!(profile.nnz() > 0, "cannot simulate an empty tensor");
    let plan = plan.normalized(profile.nrows());
    // The exec plan's panel height may legitimately differ from the tile
    // plan's (the auto planner co-optimizes it against the budget), but
    // its streamed tile width and block grouping must be the canonical
    // ones for that height — anything else means a cache served a plan
    // derived from different inputs.
    debug_assert_eq!(
        *exec,
        ExecutionPlan::new(
            profile.nrows(),
            profile.ncols(),
            exec.rows_a().max(1),
            plan.gb_cols_b,
            exec.budget()
        ),
        "exec plan must be canonical for its height and the tile plan's width"
    );
    let nnz = profile.nnz() as u128;

    let n_a = profile.nrows().div_ceil(plan.gb_rows_a) as u128;
    let n_b = profile.nrows().div_ceil(plan.gb_cols_b) as u128;

    let cap_gb = arch.tile_capacity();
    let cap_pe = arch.pe_operand_capacity();
    let resident_gb = if plan.overbooking {
        cap_gb.saturating_sub(arch.gb_fifo_region()).max(1)
    } else {
        cap_gb
    };
    let resident_pe = if plan.overbooking {
        cap_pe.saturating_sub(arch.pe_fifo_region()).max(1)
    } else {
        cap_pe
    };

    // Per-traversal refetch volume for a tile of occupancy `occ`: the
    // buffer's steady-state refetch (zero when it fits; the bumped
    // remainder with Tailors; the whole tile with plain buffets, Fig. 3a).
    // Single-row panels that exceed capacity are K-split by the address
    // generator in every variant (a fiber longer than the buffer cannot be
    // tiled any finer in coordinate space), so they carry no refetch
    // penalty. Every per-tile walk below sums in `u64`: no sum exceeds
    // `nnz`, or `2 × nrows + nnz` for the batch count, so only the
    // products after the walks widen to `u128`.
    let buffer = |capacity: u64, fifo_region: u64| BufferParams {
        capacity: capacity as usize,
        fifo_region: fifo_region as usize,
        overbooking: plan.overbooking,
    };
    let (gb, pe) = (
        buffer(cap_gb, arch.gb_fifo_region()),
        buffer(cap_pe, arch.pe_fifo_region()),
    );

    // PE batching: 128 subtiles run concurrently, and a batch can hold at
    // most the PE array's aggregate (resident) capacity. An A-tile whose
    // occupancy exceeds that staging capacity must flow through the array
    // in multiple waves — and every wave re-traverses the B-tile. This is
    // the cost that makes "one giant overbooked tile" (y → 100 %) lose.
    // A saturated divisor leaves every quotient as it is: an occupancy
    // fits `u64`, so past `u64::MAX` it needs one wave either way.
    let subtiles_per_a_tile = plan.gb_rows_a.div_ceil(plan.pe_rows_a) as u64;
    let batch_floor = subtiles_per_a_tile.div_ceil(arch.pe_count).max(1);
    let pe_array_resident = arch.pe_count.saturating_mul(resident_pe).max(1);
    let batches_for = |occ: u64| batch_floor.max(occ.div_ceil(pe_array_resident));

    // Occupancy-dependent sums (full-K panels only; dense-safe 2-D tiles
    // can never overflow). Every panel's `occ` sums to `nnz`, so A's DRAM
    // traffic `Σ_i [occ_i + (n_b - 1) × refetch_i]` is
    // `nnz + (n_b - 1) × Σ_i refetch_i`.
    let (gb_refetch_a_total, bumped_a_total, overbooked_a_tiles, total_batches) = if plan.full_k {
        let gb_refetches = u64::from(plan.gb_rows_a > 1);
        let (mut refetch, mut bumped, mut over, mut batches) = (0u64, 0u64, 0usize, 0u64);
        for occ in RowPanels::new(profile, plan.gb_rows_a).occupancies() {
            let overbooked = occ > cap_gb;
            refetch += gb_refetches * gb.steady_refetch(occ);
            bumped += u64::from(overbooked) * occ.saturating_sub(resident_gb);
            over += usize::from(overbooked);
            batches += batches_for(occ);
        }
        (refetch, bumped, over, batches)
    } else {
        let avg_occ = profile.nnz() / n_a as u64;
        (0, 0, 0, n_a as u64 * batches_for(avg_occ))
    };
    let (gb_refetch_a_total, bumped_a_total, total_batches) = (
        gb_refetch_a_total as u128,
        bumped_a_total as u128,
        total_batches as u128,
    );
    let dram_a = nnz + (n_b - 1) * gb_refetch_a_total;

    // B side: per-pass occupancy and refetch sums over B tiles. The bumped
    // portion of an overbooked B-tile is refetched once per extra wave.
    // When both operands tile at the same panel height (the prescient and
    // overbooked variants always do — B = Aᵀ of a square tensor, so the
    // panels are literally the same), the A-side sums above already are
    // the B-side sums; re-walking the tiling would double the hot loop.
    let (b_refetch_per_pass, overbooked_b_tiles) = if !plan.full_k {
        (0, 0)
    } else if plan.gb_cols_b == plan.gb_rows_a {
        (gb_refetch_a_total, overbooked_a_tiles)
    } else {
        let gb_refetches = u64::from(plan.gb_cols_b > 1);
        let (mut refetch, mut over) = (0u64, 0usize);
        for occ in RowPanels::new(profile, plan.gb_cols_b).occupancies() {
            refetch += gb_refetches * gb.steady_refetch(occ);
            over += usize::from(occ > cap_gb);
        }
        (refetch as u128, over)
    };
    // Σ_i [nnz + (batches_i - 1) × Σ_j refetch_j].
    let dram_b = n_a * nnz + (total_batches - n_a) * b_refetch_per_pass;

    // PE-level A-subtile overflow (refetched from the GB per extra chunk
    // traversal). Single-row subtiles carry no refetch penalty by the
    // single-row rule above, so the near-per-row walk the prescient
    // variant otherwise forces here (pe_rows_a of 1 on million-row
    // tensors) is skipped outright.
    let pe_refetch_a_total = if plan.full_k && plan.pe_rows_a > 1 {
        RowPanels::new(profile, plan.pe_rows_a)
            .occupancies()
            .map(|occ| pe.steady_refetch(occ))
            .sum::<u64>() as u128
    } else {
        0
    };

    let macs = profile.mults_a_at();

    // Bumped PE data is fetched from the global buffer *for every use*
    // (§6.2) instead of once per pair; a resident element is used
    // `macs / nnz` times on average over the run but fetched only `n_b`
    // times, so each bumped element pays the difference.
    let avg_uses = (macs / nnz).max(1);
    let pe_stream_extra = pe_refetch_a_total * avg_uses.saturating_sub(n_b.min(avg_uses));

    // Per-use refetches that target data *also* bumped out of the global
    // buffer escalate past it to DRAM. This coupling is what makes fully
    // overbooked hierarchies (y -> 100 %) thrash: every use of doubly
    // bumped data is a DRAM access (the paper's "pays the data reuse
    // penalty for overbooking every tile").
    let dram_escalation = pe_stream_extra * bumped_a_total / nnz;

    // Global-buffer reads: A once per pair plus PE-overflow streaming; B
    // once per batch per pair.
    let gb_reads_a = n_b * nnz + pe_stream_extra;
    let gb_reads_b = total_batches * nnz;
    let gb_writes = dram_a + dram_b + dram_escalation;
    let gb_accesses = gb_reads_a + gb_reads_b + gb_writes;

    // Intersection scan work: coordinate streams are walked monotonically,
    // so each operand's coordinates are scanned once per tile traversal
    // (not once per PE chunk — the two-finger scan does not restart), plus
    // per-match work proportional to the effectual multiplies.
    let isect_coords = n_b * nnz + total_batches * nnz + 2 * macs;

    // PE-buffer activity: fills from the GB plus datapath operand reads and
    // accumulator updates.
    let pe_buf_accesses = gb_reads_a + gb_reads_b + 3 * macs;

    let dram_total = dram_a + dram_b + dram_escalation;
    let counts = ActivityCounts {
        dram_elems: dram_total,
        gb_accesses,
        pe_buf_accesses,
        macs,
        isect_coords,
    };

    // Roofline over the four resources.
    let dram_cycles = dram_total as f64 / arch.dram_elems_per_cycle();
    let gb_cycles = gb_accesses as f64 / arch.gb_elems_per_cycle;
    let isect_cycles = isect_coords as f64 / arch.isect_coords_per_cycle;
    let mac_cycles = macs as f64 / (arch.pe_count as f64 * arch.macs_per_pe_per_cycle);
    let cycles = dram_cycles.max(gb_cycles).max(isect_cycles).max(mac_cycles);

    // Overbooking overhead split (Fig. 9a): extra DRAM beyond an
    // infinitely-large-buffer baseline with the same tiling.
    let extra_a = (n_b - 1) * gb_refetch_a_total;
    let extra_b = (total_batches - n_a) * b_refetch_per_pass;
    let dram = DramBreakdown {
        total: dram_total,
        baseline: (dram_a - extra_a) + n_a * nnz,
        overbook_extra: extra_a + extra_b + dram_escalation,
    };

    // Reuse statistics on the stationary operand (Fig. 9b). "Reused" is
    // normalized to reuse *opportunities* — reads beyond the compulsory
    // first fetch — so an all-fitting tiling scores 100 % regardless of how
    // many tiles it has (the paper's definition: "if all tiles fit...the
    // percentage of data reused would be 100%").
    let a_reads = n_b * nnz;
    let reuse_opportunities = a_reads.saturating_sub(nnz);
    let reuse = ReuseStats {
        bumped_fraction: bumped_a_total as f64 / nnz as f64,
        reused_fraction: if reuse_opportunities == 0 {
            1.0
        } else {
            ((a_reads - dram_a.min(a_reads)) as f64 / reuse_opportunities as f64).clamp(0.0, 1.0)
        },
        overbooked_a_tiles,
        total_a_tiles: n_a as usize,
        overbooked_b_tiles,
        total_b_tiles: n_b as usize,
    };

    let energy = EnergyModel::for_arch(arch);
    let scratch = exec.scratch_stats(grid);
    RunMetrics {
        cycles,
        energy_pj: energy.total_pj(&counts),
        activity: counts,
        dram,
        reuse,
        plan,
        scratch,
        bound_by: bound_name(dram_cycles, gb_cycles, isect_cycles, mac_cycles),
    }
}

fn bound_name(dram: f64, gb: f64, isect: f64, mac: f64) -> &'static str {
    let max = dram.max(gb).max(isect).max(mac);
    if max == dram {
        "dram"
    } else if max == gb {
        "global-buffer"
    } else if max == isect {
        "intersection"
    } else {
        "compute"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tailors_tensor::gen::GenSpec;

    fn profile() -> MatrixProfile {
        GenSpec::power_law(4_096, 4_096, 40_000)
            .seed(5)
            .generate()
            .profile()
    }

    fn base_plan(rows: usize) -> TilePlan {
        TilePlan {
            gb_rows_a: rows,
            gb_cols_b: rows,
            pe_rows_a: (rows / 4).max(1),
            pe_cols_b: (rows / 4).max(1),
            full_k: true,
            overbooking: false,
        }
    }

    #[test]
    fn dram_traffic_has_compulsory_floor() {
        let p = profile();
        let arch = ArchConfig::extensor();
        let m = simulate(&p, &arch, base_plan(4_096));
        // One tile holding everything: A fetched once, B fetched once.
        assert_eq!(m.activity.dram_elems, 2 * p.nnz() as u128);
        assert_eq!(m.dram.overbook_extra, 0);
    }

    #[test]
    fn smaller_tiles_mean_more_b_refetch() {
        let p = profile();
        let arch = ArchConfig::extensor();
        let big = simulate(&p, &arch, base_plan(2_048));
        let small = simulate(&p, &arch, base_plan(256));
        assert!(small.activity.dram_elems > big.activity.dram_elems);
        assert!(small.cycles >= big.cycles);
    }

    #[test]
    fn macs_are_tiling_invariant() {
        let p = profile();
        let arch = ArchConfig::extensor();
        let a = simulate(&p, &arch, base_plan(4_096));
        let b = simulate(&p, &arch, base_plan(128));
        assert_eq!(a.activity.macs, b.activity.macs);
        assert_eq!(a.activity.macs, p.mults_a_at());
    }

    #[test]
    fn overbooking_tolerates_oversized_tiles() {
        let p = profile();
        // Tiny buffers so panels overbook.
        let arch = ArchConfig::tiny(2_000, 200);
        let mut plan = base_plan(2_048);
        plan.overbooking = true;
        let m = simulate(&p, &arch, plan);
        assert!(m.reuse.overbooked_a_tiles > 0);
        assert!(m.dram.overbook_extra > 0);
        assert!(m.dram.total == m.dram.baseline + m.dram.overbook_extra);
    }

    #[test]
    fn buffet_fallback_costs_more_than_tailors() {
        // PE buffers are sized generously so both runs use identical PE
        // batching and the comparison isolates the GB-level idiom: with the
        // same tiling, buffets refetch whole overbooked tiles where Tailors
        // refetch only the bumped remainder (Fig. 3).
        let p = profile();
        let arch = ArchConfig::tiny(2_000, 60_000);
        let mut with_tailors = base_plan(2_048);
        with_tailors.overbooking = true;
        let mut without = with_tailors;
        without.overbooking = false;
        let t = simulate(&p, &arch, with_tailors);
        let b = simulate(&p, &arch, without);
        assert!(b.activity.dram_elems > t.activity.dram_elems);
    }

    #[test]
    fn dense_safe_plans_never_overbook() {
        let p = profile();
        let arch = ArchConfig::tiny(500, 50);
        let plan = TilePlan {
            gb_rows_a: 22,
            gb_cols_b: 22,
            pe_rows_a: 7,
            pe_cols_b: 7,
            full_k: false,
            overbooking: false,
        };
        let m = simulate(&p, &arch, plan);
        assert_eq!(m.reuse.overbooked_a_tiles, 0);
        assert_eq!(m.dram.overbook_extra, 0);
    }

    #[test]
    fn reuse_fraction_falls_as_buffers_shrink() {
        let p = profile();
        let mut plan = base_plan(2_048);
        plan.overbooking = true;
        let roomy = simulate(&p, &ArchConfig::tiny(100_000, 4_000), plan);
        let tight = simulate(&p, &ArchConfig::tiny(1_000, 100), plan);
        assert!(roomy.reuse.reused_fraction >= tight.reuse.reused_fraction);
        assert!(tight.reuse.bumped_fraction >= roomy.reuse.bumped_fraction);
    }

    #[test]
    #[should_panic(expected = "square")]
    fn non_square_panics() {
        let p = GenSpec::uniform(10, 20, 30).generate().profile();
        simulate(&p, &ArchConfig::extensor(), base_plan(4));
    }
}
