//! Golden-metrics regression suite: for a fixed seed set covering every
//! `Variant` × {no budget, tight budget} × `GridMode::{Panels, Grid2D}`
//! (plus auto-planned rows at the tight budget, appended after the fixed
//! ones so non-auto lines never move),
//! the full `RunMetrics` payload (cycle/energy roofline, DRAM totals and
//! breakdowns, activity counts, reuse statistics, tile plan, scratch
//! stats) is snapshotted into the checked-in golden file
//! `tests/golden/metrics.txt`. A future kernel or planner refactor that
//! shifts *any* accounting — even one element of DRAM traffic — fails
//! here with a line-level diff instead of slipping through.
//!
//! To intentionally re-baseline after a deliberate accounting change:
//! `TAILORS_UPDATE_GOLDEN=1 cargo test -p tailors-serve --test
//! golden_metrics` rewrites the file; commit the diff with the change
//! that caused it.
//!
//! The suite also runs every combination through a batched, multi-thread
//! [`SimService`] submission twice (cold then plan-hot) and holds the
//! served responses to the same golden lines — the "golden suite passes
//! under `--serve`" guarantee.

use std::fmt::Write as _;
use std::path::PathBuf;

use tailors_serve::{SimRequest, SimService};
use tailors_sim::{ArchConfig, CostModel, GridMode, MemBudget, RunMetrics, Variant};
use tailors_workloads::Workload;

/// Fixed evaluation points: two structurally different suite workloads
/// (banded linear system, heavy-tailed graph) at 1/256 scale, with the
/// architecture scaled alongside as the bench suite does.
const SCALE: f64 = 1.0 / 256.0;
const WORKLOADS: [&str; 2] = ["cant", "email-Enron"];

/// The tight budget: small enough to split every workload's panels into
/// multiple column blocks at this scale, so the snapshot pins the
/// budgeted planner too.
const TIGHT: MemBudget = MemBudget::bytes(64 << 10);

fn variants() -> [Variant; 3] {
    [
        Variant::ExTensorN,
        Variant::ExTensorP,
        Variant::default_ob(),
    ]
}

fn combos() -> Vec<(Workload, Variant, MemBudget, GridMode, bool)> {
    let mut out = Vec::new();
    for name in WORKLOADS {
        let wl = tailors_workloads::by_name(name)
            .expect("fixed workload exists")
            .scaled(SCALE);
        for variant in variants() {
            for budget in [MemBudget::Unbounded, TIGHT] {
                for grid in [GridMode::Panels, GridMode::Grid2D] {
                    out.push((wl.clone(), variant, budget, grid, false));
                }
            }
        }
    }
    // Auto-planned rows ride at the tight budget only (an unbounded
    // budget leaves nothing to co-optimize against), appended *after*
    // every fixed row so the pre-existing golden lines stay untouched.
    for name in WORKLOADS {
        let wl = tailors_workloads::by_name(name)
            .expect("fixed workload exists")
            .scaled(SCALE);
        for variant in variants() {
            for grid in [GridMode::Panels, GridMode::Grid2D] {
                out.push((wl.clone(), variant, TIGHT, grid, true));
            }
        }
    }
    out
}

/// Renders one run's full metrics as a stable, diffable line. Floats use
/// Rust's shortest-round-trip `Debug` form, so the text captures the
/// exact bit pattern.
fn render(
    wl: &Workload,
    variant: Variant,
    budget: MemBudget,
    grid: GridMode,
    auto_plan: bool,
    m: &RunMetrics,
) -> String {
    let mut s = String::new();
    let a = &m.activity;
    // Auto-planned rows carry a marker after the grid so fixed lines
    // render byte-identically to the pre-auto golden file.
    let auto = if auto_plan { " auto-plan" } else { "" };
    let _ = write!(
        s,
        "{}@1/256 {} budget={budget} grid={grid}{auto} | cycles={:?} energy_pj={:?} bound={} | \
         dram={}/{}+{} gb={} pe={} macs={} isect={} | \
         bumped={:?} reused={:?} obA={}/{} obB={}/{} | \
         tile={}x{}/{}x{} full_k={} ob={} | \
         blocks={}x{}cols bytes={} fits={} units={}",
        wl.name,
        variant.name(),
        m.cycles,
        m.energy_pj,
        m.bound_by,
        m.dram.total,
        m.dram.baseline,
        m.dram.overbook_extra,
        a.gb_accesses,
        a.pe_buf_accesses,
        a.macs,
        a.isect_coords,
        m.reuse.bumped_fraction,
        m.reuse.reused_fraction,
        m.reuse.overbooked_a_tiles,
        m.reuse.total_a_tiles,
        m.reuse.overbooked_b_tiles,
        m.reuse.total_b_tiles,
        m.plan.gb_rows_a,
        m.plan.gb_cols_b,
        m.plan.pe_rows_a,
        m.plan.pe_cols_b,
        m.plan.full_k,
        m.plan.overbooking,
        m.scratch.col_blocks,
        m.scratch.block_cols,
        m.scratch.bytes_per_thread,
        m.scratch.fits_budget,
        m.scratch.parallel_units,
    );
    debug_assert_eq!(m.dram.total, a.dram_elems, "breakdown totals agree");
    s
}

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join("metrics.txt")
}

/// Asserts `actual` equals the checked-in golden file, printing a
/// line-level diff on mismatch (or rewriting the file under
/// `TAILORS_UPDATE_GOLDEN=1`).
fn assert_matches_golden(actual: &str, context: &str) {
    let path = golden_path();
    if std::env::var("TAILORS_UPDATE_GOLDEN").is_ok_and(|v| !v.trim().is_empty() && v != "0") {
        std::fs::create_dir_all(path.parent().expect("golden dir")).expect("mkdir golden");
        std::fs::write(&path, actual).expect("write golden file");
        eprintln!("golden file updated: {}", path.display());
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); run with TAILORS_UPDATE_GOLDEN=1 to create it",
            path.display()
        )
    });
    if expected == actual {
        return;
    }
    let mut diff = String::new();
    let (exp, act): (Vec<_>, Vec<_>) = (expected.lines().collect(), actual.lines().collect());
    for i in 0..exp.len().max(act.len()) {
        match (exp.get(i), act.get(i)) {
            (Some(e), Some(a)) if e == a => {}
            (e, a) => {
                let _ = writeln!(diff, "line {}:", i + 1);
                let _ = writeln!(diff, "  - expected: {}", e.unwrap_or(&"<missing>"));
                let _ = writeln!(diff, "  + actual:   {}", a.unwrap_or(&"<missing>"));
            }
        }
    }
    panic!(
        "{context}: metrics diverged from the golden snapshot {}.\n{diff}\
         If this accounting change is deliberate, re-baseline with \
         TAILORS_UPDATE_GOLDEN=1 and commit the golden diff alongside it.",
        path.display()
    );
}

#[test]
fn golden_metrics_direct() {
    let arch = ArchConfig::extensor().scaled(SCALE);
    let mut actual = String::new();
    for (wl, variant, budget, grid, auto_plan) in combos() {
        let profile = tailors_workloads::generate_cached(&wl).profile();
        let tile = variant.plan(&profile, &arch);
        let auto = auto_plan.then_some(CostModel::UNIFORM);
        let exec = variant.execution_plan(&profile, &arch, budget, &tile, auto);
        let m = variant.run_planned(&profile, &arch, &tile, &exec, grid);
        actual.push_str(&render(&wl, variant, budget, grid, auto_plan, &m));
        actual.push('\n');
    }
    assert_matches_golden(&actual, "direct Variant runs");
}

#[test]
fn golden_metrics_under_serve() {
    let arch = ArchConfig::extensor().scaled(SCALE);
    let service = SimService::new();
    let reqs: Vec<SimRequest> = combos()
        .into_iter()
        .map(|(workload, variant, budget, grid, auto_plan)| SimRequest {
            workload,
            variant,
            arch,
            budget,
            grid,
            auto_plan,
        })
        .collect();
    // Cold batch warms the tiers; the hot batch is the one snapshotted —
    // the golden file must hold for cache-served responses too.
    let cold = service.submit_batch(&reqs, 4);
    let hot = service.submit_batch(&reqs, 4);
    let mut actual = String::new();
    for (req, (c, h)) in reqs.iter().zip(cold.iter().zip(&hot)) {
        assert_eq!(c.metrics, h.metrics, "{}: hot != cold", req.workload.name);
        assert!(
            h.hits.plan,
            "{}: second batch must be plan-hot",
            req.workload.name
        );
        actual.push_str(&render(
            &req.workload,
            req.variant,
            req.budget,
            req.grid,
            req.auto_plan,
            &h.metrics,
        ));
        actual.push('\n');
    }
    assert_matches_golden(&actual, "served (plan-hot) responses");
}
