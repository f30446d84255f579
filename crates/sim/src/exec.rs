//! The memory-governed execution planner: 2-D (row-panel × column-block)
//! partitioning of the `Z = A·B` dataflow for the software engines.
//!
//! The hardware model sizes its tiles against on-chip buffer capacities
//! (see [`crate::plan::TilePlan`] and [`crate::variants::Variant`]); the
//! *software* functional engine has an analogous resource to govern — the
//! dense SPA scratch each worker thread accumulates a row panel into. An
//! unpartitioned panel scratch is `rows_a × ncols` doubles, which forbids
//! functional runs past a few thousand columns. [`ExecutionPlan`] applies
//! the paper's budget-governed discipline to that scratch: given a tiling
//! (`rows_a × cols_b` tiles, chosen by a [`TilingStrategy`] or a
//! [`Variant`](crate::variants::Variant) planner) and a [`MemBudget`], it
//! groups the `cols_b`-wide streamed tiles into *column blocks* such that
//! `rows_a × block_cols × 8` bytes fits the budget, and emits the
//! resulting 2-D grid of [`PlanUnit`]s.
//!
//! Column blocks never change results: a block is a run of whole streamed
//! tiles traversed in the same global order, every output coordinate is
//! owned by exactly one block, and blocks of a panel are emitted in column
//! order — so a budgeted run is bit-identical to the unbudgeted one (the
//! property tests in `crates/sim/tests/functional_equivalence.rs` prove
//! it), while the scratch shrinks from `rows_a × ncols` to
//! `rows_a × block_cols`.
//!
//! The minimum schedulable unit is one streamed tile: a budget smaller
//! than `rows_a × cols_b` doubles clamps to a single-tile block (reported
//! by [`ExecutionPlan::fits_budget`]) rather than splitting a tile, which
//! would change buffer-traversal counts.

use tailors_core::TilingStrategy;
use tailors_tensor::MatrixProfile;

use crate::arch::ArchConfig;
use crate::plan::TilePlan;

/// Size of one dense-scratch slot (an `f64` accumulator).
const SLOT_BYTES: u64 = core::mem::size_of::<f64>() as u64;

/// A per-thread scratch-memory budget in bytes.
///
/// `Unbounded` reproduces the historical behaviour (one block spanning all
/// columns). The binaries parse this from `--mem-budget` via
/// [`MemBudget::parse`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum MemBudget {
    /// No limit: the scratch spans every column of the output.
    #[default]
    Unbounded,
    /// At most this many bytes of dense scratch per worker thread.
    Bytes(u64),
}

impl MemBudget {
    /// A budget of `n` bytes.
    pub const fn bytes(n: u64) -> Self {
        MemBudget::Bytes(n)
    }

    /// A budget of `n` binary megabytes.
    pub const fn mib(n: u64) -> Self {
        MemBudget::Bytes(n * 1024 * 1024)
    }

    /// The byte limit, or `None` when unbounded.
    pub fn limit_bytes(&self) -> Option<u64> {
        match self {
            MemBudget::Unbounded => None,
            MemBudget::Bytes(b) => Some(*b),
        }
    }

    /// Parses a human-readable budget: `"unbounded"` / `"none"`, a plain
    /// byte count (`"1048576"`), or a binary-suffixed size (`"512K"`,
    /// `"256MiB"`, `"2G"`); suffixes are case-insensitive.
    ///
    /// # Errors
    ///
    /// Returns a description of the malformed input.
    pub fn parse(s: &str) -> Result<Self, String> {
        let t = s.trim();
        if t.eq_ignore_ascii_case("unbounded") || t.eq_ignore_ascii_case("none") {
            return Ok(MemBudget::Unbounded);
        }
        let lower = t.to_ascii_lowercase();
        let (digits, multiplier) = if let Some(p) = lower
            .strip_suffix("kib")
            .or_else(|| lower.strip_suffix("kb"))
            .or_else(|| lower.strip_suffix("k"))
        {
            (p, 1u64 << 10)
        } else if let Some(p) = lower
            .strip_suffix("mib")
            .or_else(|| lower.strip_suffix("mb"))
            .or_else(|| lower.strip_suffix("m"))
        {
            (p, 1u64 << 20)
        } else if let Some(p) = lower
            .strip_suffix("gib")
            .or_else(|| lower.strip_suffix("gb"))
            .or_else(|| lower.strip_suffix("g"))
        {
            (p, 1u64 << 30)
        } else if let Some(p) = lower.strip_suffix("b") {
            (p, 1u64)
        } else {
            (lower.as_str(), 1u64)
        };
        let n: u64 = digits.trim().parse().map_err(|_| {
            format!("invalid memory budget {s:?} (try \"256MiB\" or \"unbounded\")")
        })?;
        n.checked_mul(multiplier)
            .map(MemBudget::Bytes)
            .ok_or_else(|| format!("memory budget {s:?} overflows u64 bytes"))
    }
}

impl core::fmt::Display for MemBudget {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            MemBudget::Unbounded => write!(f, "unbounded"),
            MemBudget::Bytes(b) if b % (1 << 20) == 0 && *b > 0 => {
                write!(f, "{}MiB", b >> 20)
            }
            MemBudget::Bytes(b) => write!(f, "{b}B"),
        }
    }
}

/// How the functional engine cuts an [`ExecutionPlan`] into work items —
/// a row panel paired with a contiguous range of its column blocks — for
/// its one executor to fan out.
///
/// * [`GridMode::Panels`] — 1-D: one item per stationary row panel
///   covering all its column blocks.
/// * [`GridMode::Grid2D`] — 2-D: one item per (row panel × column block)
///   [`PlanUnit`], with block-local traffic accounting
///   (`functional::UnitTraffic`). The closed-form charges (see
///   [`crate::functional`]) sum to the whole-panel totals bit for bit, so
///   results do not depend on the mode — only the available parallelism
///   does (`panels × blocks` instead of `panels`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum GridMode {
    /// 1-D: fan out over row panels, one work item per panel covering
    /// all its column blocks.
    #[default]
    Panels,
    /// 2-D: fan out over (row panel × column block) units, one work item
    /// per unit, each charged its block-local share of the traffic.
    Grid2D,
}

impl GridMode {
    /// Parses a mode name: `"panels"` / `"1d"`, or `"2d"` / `"grid"` /
    /// `"grid2d"` (case-insensitive).
    ///
    /// # Errors
    ///
    /// Returns a description of the malformed input.
    pub fn parse(s: &str) -> Result<Self, String> {
        let t = s.trim();
        if t.eq_ignore_ascii_case("panels") || t.eq_ignore_ascii_case("1d") {
            Ok(GridMode::Panels)
        } else if t.eq_ignore_ascii_case("2d")
            || t.eq_ignore_ascii_case("grid")
            || t.eq_ignore_ascii_case("grid2d")
        {
            Ok(GridMode::Grid2D)
        } else {
            Err(format!(
                "invalid grid mode {s:?} (try \"panels\" or \"2d\")"
            ))
        }
    }
}

impl core::fmt::Display for GridMode {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            GridMode::Panels => write!(f, "panels"),
            GridMode::Grid2D => write!(f, "2d"),
        }
    }
}

/// Partitions item indices `0..costs.len()` into at most `bins` groups
/// with approximately equal total cost (greedy LPT: heaviest item first,
/// into the currently lightest bin). Deterministic: ties break on the
/// lower bin index, equal costs on the lower item index.
///
/// Every fan-out in the workspace runs its bins through [`run_bins`], one
/// OS thread per bin with no work stealing, so cost-shaped bins — not
/// uniform splits — are what actually balances skewed workloads. Callers
/// must reassemble results in item order; every partition of independent
/// items yields bit-identical results.
///
/// # Panics
///
/// Panics if `bins == 0`.
pub fn balanced_partition(costs: &[u128], bins: usize) -> Vec<Vec<usize>> {
    assert!(bins > 0, "bin count must be positive");
    let bins = bins.min(costs.len()).max(1);
    let mut order: Vec<usize> = (0..costs.len()).collect();
    // Stable sort, descending cost: equal-cost items keep index order.
    order.sort_by(|&i, &j| costs[j].cmp(&costs[i]));
    let mut groups: Vec<Vec<usize>> = vec![Vec::new(); bins];
    let mut loads: Vec<u128> = vec![0; bins];
    for idx in order {
        let lightest = (0..bins)
            .min_by_key(|&b| loads[b])
            .expect("at least one bin");
        groups[lightest].push(idx);
        loads[lightest] += costs[idx].max(1);
    }
    groups.retain(|g| !g.is_empty());
    groups
}

/// Runs `job` over `bins` of item indices, one scoped OS thread per bin
/// (a single bin runs inline on the calling thread), each bin in its own
/// order, and returns the results *in item order* `0..n_items`. This is
/// the workspace's one thread fan-out: [`run_balanced`], the service's
/// batch path and the shard router's all schedule through it.
///
/// # Panics
///
/// Panics if an item of `0..n_items` is in no bin or in two, or a bin
/// holds an index `>= n_items`. A panic in `job` resumes on the caller
/// with its payload.
pub fn run_bins<R: Send>(
    n_items: usize,
    bins: &[Vec<usize>],
    job: impl Fn(usize) -> R + Sync,
) -> Vec<R> {
    let run = |bin: &[usize]| bin.iter().map(|&i| job(i)).collect::<Vec<R>>();
    let per_bin: Vec<Vec<R>> = if let [bin] = bins {
        vec![run(bin)]
    } else {
        std::thread::scope(|s| {
            let handles: Vec<_> = bins.iter().map(|bin| s.spawn(|| run(bin))).collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
                .collect()
        })
    };
    let mut slots: Vec<Option<R>> = (0..n_items).map(|_| None).collect();
    for (bin, results) in bins.iter().zip(per_bin) {
        for (&i, r) in bin.iter().zip(results) {
            assert!(slots[i].replace(r).is_none(), "item {i} is in two bins");
        }
    }
    slots
        .into_iter()
        .map(|s| s.expect("every item lands in exactly one bin"))
        .collect()
}

/// Fans `n_items` work items out over `threads` cost-balanced
/// [`balanced_partition`] bins through [`run_bins`] and returns `job`'s
/// results *in item order*, so any partition yields bit-identical output.
/// With one thread or at most one item, the items run inline in index
/// order. The functional engine schedules panels and grid units through
/// this, and the bench suite its 22 workloads.
///
/// # Panics
///
/// Panics if `threads == 0`, and as [`run_bins`] if `job` panics.
pub fn run_balanced<R: Send>(
    n_items: usize,
    costs: &[u128],
    threads: usize,
    job: impl Fn(usize) -> R + Sync,
) -> Vec<R> {
    assert!(threads > 0, "thread count must be positive");
    if threads == 1 || n_items <= 1 {
        return (0..n_items).map(job).collect();
    }
    run_bins(n_items, &balanced_partition(costs, threads), job)
}

/// One work unit of an [`ExecutionPlan`]: the intersection of a stationary
/// row panel with a column block of the streamed operand.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanUnit {
    /// Row-panel index (`0..n_row_panels`).
    pub row_panel: usize,
    /// Column-block index (`0..n_col_blocks`).
    pub col_block: usize,
    /// Output rows the unit accumulates into.
    pub rows: core::ops::Range<usize>,
    /// Output columns the unit owns.
    pub cols: core::ops::Range<usize>,
}

/// Scratch accounting derived from an [`ExecutionPlan`], recorded in
/// [`RunMetrics`](crate::metrics::RunMetrics) so the bench layer can report
/// how a budget shaped the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScratchStats {
    /// Column blocks per row panel.
    pub col_blocks: usize,
    /// Columns per (non-ragged) block.
    pub block_cols: usize,
    /// Dense-scratch bytes one worker thread allocates.
    pub bytes_per_thread: u64,
    /// Whether the scratch honours the budget (false only when the budget
    /// is smaller than a single `rows × cols_b` tile, the minimum unit).
    pub fits_budget: bool,
    /// The grid decomposition a functional replay would fan out with.
    pub grid: GridMode,
    /// Independently schedulable work items under `grid`: row panels in
    /// [`GridMode::Panels`], `panels × blocks` in [`GridMode::Grid2D`].
    pub parallel_units: usize,
}

/// A memory-governed 2-D partitioning of one `Z = A·B` execution: row
/// panels of the stationary operand × column blocks of the streamed one.
///
/// See the [module docs](self) for semantics. Construct via
/// [`ExecutionPlan::new`] (explicit tiling),
/// [`ExecutionPlan::for_tile_plan`] (from a hardware variant's
/// [`TilePlan`]), or [`ExecutionPlan::from_strategy`] (let a Table-1
/// [`TilingStrategy`] choose the tile shape first).
///
/// # Example
///
/// ```
/// use tailors_sim::exec::{ExecutionPlan, MemBudget};
///
/// // 50k × 50k output, 4096-row panels, 2048-column streamed tiles,
/// // 256 MiB of scratch per thread.
/// let plan = ExecutionPlan::new(50_000, 50_000, 4_096, 2_048, MemBudget::mib(256));
/// assert_eq!(plan.block_cols(), 8_192); // 4 tiles of 2048 columns
/// assert!(plan.scratch_bytes() <= 256 << 20);
/// assert_eq!(plan.n_col_blocks(), 7); // ceil(25 tiles / 4 tiles per block)
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecutionPlan {
    nrows: usize,
    ncols: usize,
    rows_a: usize,
    cols_b: usize,
    /// Streamed tiles per column block (≥ 1 whenever there are tiles).
    block_tiles: usize,
    budget: MemBudget,
}

impl ExecutionPlan {
    /// Plans an `nrows × ncols` output tiled into `rows_a`-row stationary
    /// panels and `cols_b`-column streamed tiles, grouping tiles into
    /// column blocks so one panel's dense scratch fits `budget`.
    ///
    /// # Panics
    ///
    /// Panics if `rows_a == 0` or `cols_b == 0`.
    pub fn new(
        nrows: usize,
        ncols: usize,
        rows_a: usize,
        cols_b: usize,
        budget: MemBudget,
    ) -> ExecutionPlan {
        assert!(rows_a > 0 && cols_b > 0, "tile dimensions must be positive");
        let n_tiles = ncols.div_ceil(cols_b);
        let block_tiles = match budget.limit_bytes() {
            None => n_tiles.max(1),
            Some(bytes) => {
                let panel_rows = rows_a.min(nrows).max(1) as u64;
                let scratch_cols = bytes / SLOT_BYTES / panel_rows;
                let tiles = (scratch_cols / cols_b as u64).min(n_tiles.max(1) as u64) as usize;
                tiles.max(1)
            }
        };
        ExecutionPlan {
            nrows,
            ncols,
            rows_a,
            cols_b,
            block_tiles,
            budget,
        }
    }

    /// Plans from a hardware [`TilePlan`]'s global-buffer tiling: `gb_rows_a`
    /// stationary panels × `gb_cols_b` streamed tiles under `budget`.
    pub fn for_tile_plan(
        nrows: usize,
        ncols: usize,
        tile: &TilePlan,
        budget: MemBudget,
    ) -> ExecutionPlan {
        ExecutionPlan::new(
            nrows,
            ncols,
            tile.gb_rows_a.max(1),
            tile.gb_cols_b.max(1),
            budget,
        )
    }

    /// Lets a Table-1 [`TilingStrategy`] choose the tile shape against the
    /// architecture's working-tile capacity (as the hardware variants do),
    /// then governs the scratch with `budget`.
    ///
    /// # Panics
    ///
    /// As [`TilingStrategy::rows_per_tile`] (empty profile, zero capacity).
    pub fn from_strategy(
        profile: &MatrixProfile,
        arch: &ArchConfig,
        strategy: &TilingStrategy,
        budget: MemBudget,
    ) -> ExecutionPlan {
        let rows = strategy.rows_per_tile(profile, arch.tile_capacity()).max(1);
        ExecutionPlan::new(profile.nrows(), profile.ncols(), rows, rows, budget)
    }

    /// Rows of the stationary operand per panel.
    pub fn rows_a(&self) -> usize {
        self.rows_a
    }

    /// Columns of the streamed operand per tile.
    pub fn cols_b(&self) -> usize {
        self.cols_b
    }

    /// The governing budget.
    pub fn budget(&self) -> MemBudget {
        self.budget
    }

    /// Streamed tiles per column block.
    pub fn block_tiles(&self) -> usize {
        self.block_tiles
    }

    /// Number of stationary row panels.
    pub fn n_row_panels(&self) -> usize {
        self.nrows.div_ceil(self.rows_a)
    }

    /// Number of streamed column tiles.
    pub fn n_col_tiles(&self) -> usize {
        self.ncols.div_ceil(self.cols_b)
    }

    /// Number of column blocks per panel.
    pub fn n_col_blocks(&self) -> usize {
        self.n_col_tiles().div_ceil(self.block_tiles.max(1))
    }

    /// Columns spanned by the widest block (the last block may be ragged
    /// and cover fewer).
    pub fn block_cols(&self) -> usize {
        (self.block_tiles * self.cols_b).min(self.ncols)
    }

    /// Dense-scratch slots one worker thread needs: full-panel rows × the
    /// widest block.
    pub fn scratch_elems(&self) -> u64 {
        let panel_rows = self.rows_a.min(self.nrows).max(1) as u64;
        panel_rows.saturating_mul(self.block_cols() as u64)
    }

    /// Dense-scratch bytes one worker thread needs (saturating: the
    /// serving runtime gates requests on it).
    pub fn scratch_bytes(&self) -> u64 {
        self.scratch_elems().saturating_mul(SLOT_BYTES)
    }

    /// Whether the scratch honours the budget. `false` only when the budget
    /// is smaller than one `rows_a × cols_b` tile — the minimum schedulable
    /// unit — and the plan clamped to it.
    pub fn fits_budget(&self) -> bool {
        match self.budget.limit_bytes() {
            None => true,
            Some(bytes) => self.scratch_bytes() <= bytes,
        }
    }

    /// Independently schedulable work items under `grid`.
    pub fn parallel_units(&self, grid: GridMode) -> usize {
        match grid {
            GridMode::Panels => self.n_row_panels(),
            GridMode::Grid2D => self.n_row_panels() * self.n_col_blocks(),
        }
    }

    /// The scratch accounting summary recorded in run metrics.
    pub fn scratch_stats(&self, grid: GridMode) -> ScratchStats {
        ScratchStats {
            col_blocks: self.n_col_blocks(),
            block_cols: self.block_cols(),
            bytes_per_thread: self.scratch_bytes(),
            fits_budget: self.fits_budget(),
            grid,
            parallel_units: self.parallel_units(grid),
        }
    }

    /// Row range of stationary panel `pi`.
    ///
    /// # Panics
    ///
    /// Panics if `pi >= self.n_row_panels()`.
    pub fn panel_rows(&self, pi: usize) -> core::ops::Range<usize> {
        assert!(pi < self.n_row_panels(), "row-panel index out of range");
        let lo = pi * self.rows_a;
        lo..(lo + self.rows_a).min(self.nrows)
    }

    /// Column and streamed-tile ranges of column block `bi`.
    ///
    /// # Panics
    ///
    /// Panics if `bi >= self.n_col_blocks()`.
    pub fn block_extent(&self, bi: usize) -> (core::ops::Range<usize>, core::ops::Range<usize>) {
        assert!(bi < self.n_col_blocks(), "column-block index out of range");
        let t0 = bi * self.block_tiles;
        let t1 = (t0 + self.block_tiles).min(self.n_col_tiles());
        let c0 = t0 * self.cols_b;
        let c1 = (t1 * self.cols_b).min(self.ncols);
        (c0..c1, t0..t1)
    }

    /// The [`PlanUnit`] at (`pi`, `bi`).
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    pub fn unit(&self, pi: usize, bi: usize) -> PlanUnit {
        PlanUnit {
            row_panel: pi,
            col_block: bi,
            rows: self.panel_rows(pi),
            cols: self.block_extent(bi).0,
        }
    }

    /// Iterates the whole 2-D grid in (panel, block) row-major order.
    pub fn units(&self) -> impl Iterator<Item = PlanUnit> + '_ {
        (0..self.n_row_panels())
            .flat_map(move |pi| (0..self.n_col_blocks()).map(move |bi| self.unit(pi, bi)))
    }
}

/// The stationary operand's buffer: one traffic model shared by the auto
/// planner's A-side refetch term and the functional engine's DRAM
/// charges. A stationary panel whose occupancy exceeds `capacity`
/// refetches its steady-state volume on every traversal after the first —
/// the bumped remainder (`occ − (capacity − fifo_region)`) through a
/// Tailor, the whole panel through a plain buffet. `tailors_eddo::replay`
/// drives real buffers through the same traversals, and the functional
/// oracle (`reference_run`) counts with it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BufferParams {
    /// Operand-buffer capacity in nonzeros.
    pub capacity: usize,
    /// Tailors FIFO-region size (ignored when `overbooking` is false).
    pub fifo_region: usize,
    /// Tailor (stream the bumped remainder) vs plain buffet (drop and
    /// refill the whole tile).
    pub overbooking: bool,
}

impl BufferParams {
    /// Per-traversal steady-state refetch volume of a panel of `occ`
    /// nonzeros (the first traversal fetches all `occ`): zero when the
    /// panel fits, the bumped remainder through a Tailor, the whole panel
    /// through a buffet. There is no single-row exemption here: the
    /// analytical dataflow model adds one on top (its hardware assumes the
    /// address generator K-splits an over-capacity single-row fiber), but
    /// the software engine has no such split and really does restream an
    /// overbooked one-row panel every traversal.
    pub fn steady_refetch(&self, occ: u64) -> u64 {
        // What stays resident of an overflowing panel: a Tailor keeps all
        // but its FIFO region, a buffet keeps nothing. Branch-free, since
        // the analytical model sums it over every panel of a tiling.
        let kept = if self.overbooking {
            self.capacity.saturating_sub(self.fifo_region).max(1) as u64
        } else {
            0
        };
        u64::from(occ > self.capacity as u64) * occ.saturating_sub(kept)
    }
}

/// The closed-form traffic of one auto-planner candidate, in
/// element-touches (see [`AutoPlanner`] for the model).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlanCost {
    /// Candidate panel height.
    pub rows_a: usize,
    /// Column blocks the budget induces at this height.
    pub col_blocks: usize,
    /// Whether the induced scratch honours the budget (single streamed
    /// tiles wider than the budget clamp and violate it).
    pub fits_budget: bool,
    /// A-side DRAM volume: one cold fill of every panel (`nnz`) plus the
    /// steady-state refetch volume of every traversal after the first.
    pub scratch_fills: u128,
    /// B-side DRAM volume: every panel streams the whole operand once
    /// (`n_row_panels × nnz`).
    pub b_refetch: u128,
    /// Total extraction row-drain passes: every output row is drained
    /// once per column block (`nrows × col_blocks`) — the term narrow
    /// blocks blow up.
    pub extraction_passes: u128,
    /// `scratch_fills + b_refetch + extraction_passes` — the planner's
    /// objective, in element-touches.
    pub total: u128,
}

/// The occupancy-profile-driven auto-tiling planner (the paper's thesis
/// applied to the *software* scratch): given a [`MemBudget`], co-optimize
/// the stationary panel height against the column-block width it induces,
/// using a closed-form traffic model over the profile's prefix sums.
///
/// The budget fixes the trade surface: a block spans
/// `budget / (8 × rows_a)` scratch columns, so **shorter panels mean
/// wider blocks**. The model prices each candidate height in
/// element-touches:
///
/// * **scratch fills** — A-side DRAM: `nnz` compulsory cold fills plus
///   `(n_col_tiles − 1) × Σ_p steady_p` steady-state refetch
///   ([`BufferParams::steady_refetch`] per panel; taller panels overbook
///   the operand buffer and restream more);
/// * **B-refetch** — `n_row_panels × nnz`: every panel streams the whole
///   operand once, so ever-shorter panels are not free;
/// * **extraction passes** — `nrows × n_col_blocks` row-drains: every
///   output row is extracted once per block, the cost a fixed tall panel
///   under a tight budget degenerates into (many narrow blocks).
///
/// All three are the quantities the variants and the functional engine
/// already account — the planner just minimizes their sum instead of
/// accepting a fixed height. Candidates are the powers of two up to
/// `nrows`, `nrows` itself, and the caller's baseline height (so the
/// model never scores worse than the fixed plan it replaces); plans that
/// honour the budget are strictly preferred over clamped ones, then lower
/// total, then fewer blocks, then the shorter panel — a deterministic
/// order with no ties. No other heights are tried.
///
/// Results never depend on the choice: every tiling is bit-identical to
/// [`reference_run`](crate::functional::reference_run) (the invariant the
/// property suites enforce for arbitrary tilings) — the planner only
/// moves traffic and scratch shape.
#[derive(Debug, Clone, Copy)]
pub struct AutoPlanner<'a> {
    profile: &'a MatrixProfile,
    cols_b: usize,
    budget: MemBudget,
    buffer: Option<BufferParams>,
    baseline_rows_a: Option<usize>,
}

impl<'a> AutoPlanner<'a> {
    /// A planner over `profile` with streamed tiles `cols_b` wide under
    /// `budget`, with no buffer model (refetch term zero) and no baseline.
    ///
    /// # Panics
    ///
    /// Panics if `cols_b == 0`.
    pub fn new(profile: &'a MatrixProfile, cols_b: usize, budget: MemBudget) -> Self {
        assert!(cols_b > 0, "tile dimensions must be positive");
        AutoPlanner {
            profile,
            cols_b,
            budget,
            buffer: None,
            baseline_rows_a: None,
        }
    }

    /// Prices the A-side refetch term against a concrete operand buffer
    /// (the functional engine's, or the architecture's working-tile
    /// capacity).
    pub fn with_buffer(mut self, buffer: BufferParams) -> Self {
        self.buffer = Some(buffer);
        self
    }

    /// Adds the fixed panel height being replaced to the candidate set,
    /// so the chosen plan never scores worse than it under the model.
    ///
    /// # Panics
    ///
    /// Panics if `rows_a == 0`.
    pub fn with_baseline(mut self, rows_a: usize) -> Self {
        assert!(rows_a > 0, "tile dimensions must be positive");
        self.baseline_rows_a = Some(rows_a);
        self
    }

    /// The closed-form cost of one candidate height. O(`nrows / rows_a`)
    /// over the profile's prefix sums when a buffer model is set, O(1)
    /// otherwise.
    ///
    /// # Panics
    ///
    /// Panics if `rows_a == 0`.
    pub fn cost_of(&self, rows_a: usize) -> PlanCost {
        let (nrows, ncols) = (self.profile.nrows(), self.profile.ncols());
        let plan = ExecutionPlan::new(nrows, ncols, rows_a, self.cols_b, self.budget);
        let nnz = self.profile.nnz() as u128;
        let n_panels = plan.n_row_panels() as u128;
        let n_blocks = plan.n_col_blocks() as u128;
        let traversals = plan.n_col_tiles() as u128;
        let steady: u128 = match &self.buffer {
            None => 0,
            Some(bp) => self
                .profile
                .panel_occupancies(rows_a)
                .map(|occ| bp.steady_refetch(occ) as u128)
                .sum(),
        };
        let scratch_fills = nnz + traversals.saturating_sub(1) * steady;
        let b_refetch = n_panels * nnz;
        let extraction_passes = nrows as u128 * n_blocks;
        PlanCost {
            rows_a,
            col_blocks: plan.n_col_blocks(),
            fits_budget: plan.fits_budget(),
            scratch_fills,
            b_refetch,
            extraction_passes,
            total: scratch_fills + b_refetch + extraction_passes,
        }
    }

    /// Evaluates every candidate height and returns the winner's cost
    /// breakdown (see the type docs for the candidate set and the
    /// deterministic preference order).
    pub fn choose(&self) -> PlanCost {
        let nrows = self.profile.nrows().max(1);
        let mut candidates: Vec<usize> = Vec::with_capacity(nrows.ilog2() as usize + 4);
        let mut r = 1usize;
        while r < nrows {
            candidates.push(r);
            r *= 2;
        }
        candidates.push(nrows);
        if let Some(b) = self.baseline_rows_a {
            candidates.push(b.min(nrows));
        }
        candidates.sort_unstable();
        candidates.dedup();
        candidates
            .into_iter()
            .map(|rows_a| self.cost_of(rows_a))
            .min_by_key(|c| (!c.fits_budget, c.total, c.col_blocks, c.rows_a))
            .expect("candidate set is never empty")
    }

    /// The chosen execution plan: [`ExecutionPlan::new`] at the winning
    /// height, so it is exactly the plan a fixed run at that height would
    /// derive (the bit-identity the tests lean on).
    pub fn plan(&self) -> ExecutionPlan {
        let choice = self.choose();
        ExecutionPlan::new(
            self.profile.nrows(),
            self.profile.ncols(),
            choice.rows_a,
            self.cols_b,
            self.budget,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_accepts_common_spellings() {
        assert_eq!(MemBudget::parse("unbounded"), Ok(MemBudget::Unbounded));
        assert_eq!(MemBudget::parse("NONE"), Ok(MemBudget::Unbounded));
        assert_eq!(MemBudget::parse("1024"), Ok(MemBudget::Bytes(1024)));
        assert_eq!(MemBudget::parse("512b"), Ok(MemBudget::Bytes(512)));
        assert_eq!(MemBudget::parse("4K"), Ok(MemBudget::Bytes(4096)));
        assert_eq!(MemBudget::parse("256MiB"), Ok(MemBudget::mib(256)));
        assert_eq!(MemBudget::parse(" 2g "), Ok(MemBudget::Bytes(2 << 30)));
        assert!(MemBudget::parse("lots").is_err());
        assert!(MemBudget::parse("12.5M").is_err());
    }

    #[test]
    fn display_round_trips_the_common_cases() {
        assert_eq!(MemBudget::Unbounded.to_string(), "unbounded");
        assert_eq!(MemBudget::mib(256).to_string(), "256MiB");
        assert_eq!(MemBudget::bytes(100).to_string(), "100B");
    }

    #[test]
    fn unbounded_plan_is_one_block_spanning_all_columns() {
        let p = ExecutionPlan::new(1_000, 7_777, 128, 64, MemBudget::Unbounded);
        assert_eq!(p.n_col_blocks(), 1);
        let (cols, tiles) = p.block_extent(0);
        assert_eq!(cols, 0..7_777);
        assert_eq!(tiles, 0..p.n_col_tiles());
        assert!(p.fits_budget());
    }

    #[test]
    fn budget_shrinks_blocks_and_is_honoured() {
        // 128-row panels, 64-col tiles, 64 KiB budget: 65536/8/128 = 64
        // scratch columns = exactly one tile per block.
        let p = ExecutionPlan::new(1_000, 1_000, 128, 64, MemBudget::bytes(64 << 10));
        assert_eq!(p.block_tiles(), 1);
        assert_eq!(p.block_cols(), 64);
        assert!(p.fits_budget());
        assert_eq!(p.scratch_bytes(), 128 * 64 * 8);
        // Double the budget: two tiles per block.
        let p2 = ExecutionPlan::new(1_000, 1_000, 128, 64, MemBudget::bytes(128 << 10));
        assert_eq!(p2.block_tiles(), 2);
        assert!(p2.fits_budget());
    }

    #[test]
    fn sub_tile_budget_clamps_to_one_tile_and_reports_it() {
        let p = ExecutionPlan::new(1_000, 1_000, 128, 64, MemBudget::bytes(1));
        assert_eq!(p.block_tiles(), 1);
        assert!(!p.fits_budget());
        assert!(!p.scratch_stats(GridMode::Panels).fits_budget);
    }

    #[test]
    fn grid_mode_parses_and_displays() {
        assert_eq!(GridMode::parse("panels"), Ok(GridMode::Panels));
        assert_eq!(GridMode::parse("1D"), Ok(GridMode::Panels));
        assert_eq!(GridMode::parse(" 2d "), Ok(GridMode::Grid2D));
        assert_eq!(GridMode::parse("Grid2D"), Ok(GridMode::Grid2D));
        assert!(GridMode::parse("3d").is_err());
        assert_eq!(GridMode::Panels.to_string(), "panels");
        assert_eq!(GridMode::Grid2D.to_string(), "2d");
        assert_eq!(GridMode::default(), GridMode::Panels);
    }

    #[test]
    fn parallel_units_multiply_under_the_2d_grid() {
        let p = ExecutionPlan::new(100, 90, 32, 16, MemBudget::bytes(32 * 16 * 2 * 8));
        assert_eq!(p.parallel_units(GridMode::Panels), 4);
        assert_eq!(p.parallel_units(GridMode::Grid2D), 12);
        let s = p.scratch_stats(GridMode::Grid2D);
        assert_eq!(s.grid, GridMode::Grid2D);
        assert_eq!(s.parallel_units, 12);
    }

    #[test]
    fn balanced_partition_covers_all_items_exactly_once() {
        let costs: Vec<u128> = vec![100, 1, 1, 1, 50, 50, 1, 1];
        let bins = balanced_partition(&costs, 3);
        assert_eq!(bins.len(), 3);
        let mut seen: Vec<usize> = bins.iter().flatten().copied().collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..costs.len()).collect::<Vec<_>>());
        // LPT: the heaviest item sits alone-ish; the two 50s share a bin
        // or split, but no bin exceeds ~half the total.
        let loads: Vec<u128> = bins
            .iter()
            .map(|g| g.iter().map(|&i| costs[i]).sum())
            .collect();
        assert!(loads.iter().all(|&l| l <= 103), "loads {loads:?}");
    }

    #[test]
    fn balanced_partition_handles_degenerate_shapes() {
        assert_eq!(balanced_partition(&[], 4), Vec::<Vec<usize>>::new());
        let one = balanced_partition(&[7], 4);
        assert_eq!(one, vec![vec![0]]);
        // More bins than items: empty bins are dropped.
        let few = balanced_partition(&[1, 2], 8);
        assert_eq!(few.iter().flatten().count(), 2);
        // Zero costs still place every item.
        let zeros = balanced_partition(&[0, 0, 0], 2);
        assert_eq!(zeros.iter().flatten().count(), 3);
    }

    #[test]
    fn run_balanced_returns_item_order_at_every_thread_count() {
        // Skewed: every fifth item is 1000× heavier than its neighbours.
        let costs: Vec<u128> = (0..23)
            .map(|i| if i % 5 == 0 { 1_000 } else { i })
            .collect();
        let job = |i: usize| (i, (i as f64).sqrt());
        for n in [0, 1, 2, 23] {
            let serial: Vec<_> = (0..n).map(job).collect();
            for threads in [1, 2, 3, 7] {
                let out = run_balanced(n, &costs[..n], threads, job);
                assert_eq!(out, serial, "n_items={n} threads={threads}");
                // One thread per bin: as many distinct threads as bins.
                let ids: std::collections::HashSet<_> =
                    run_balanced(n, &costs[..n], threads, |_| std::thread::current().id())
                        .into_iter()
                        .collect();
                assert_eq!(ids.len(), n.min(threads), "n_items={n} threads={threads}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "job boom")]
    fn run_balanced_propagates_a_job_panic() {
        run_balanced(8, &[1; 8], 4, |i| {
            assert!(i != 5, "job boom");
            i
        });
    }

    #[test]
    fn run_balanced_rejects_zero_threads_for_every_item_count() {
        for n in [0, 1, 2, 23] {
            let costs = vec![1; n];
            let err = std::panic::catch_unwind(|| run_balanced(n, &costs, 0, |i| i))
                .expect_err("threads == 0 must panic");
            let msg = err.downcast_ref::<&str>().copied().unwrap_or_default();
            assert_eq!(msg, "thread count must be positive", "n_items={n}");
        }
    }

    #[test]
    fn run_bins_runs_one_bin_on_the_caller_in_item_order() {
        let caller = std::thread::current().id();
        let out = run_bins(3, &[vec![2, 0, 1]], |i| (i, std::thread::current().id()));
        assert_eq!(out, vec![(0, caller), (1, caller), (2, caller)]);
        let spawned = run_bins(3, &[vec![2], vec![0, 1]], |_| std::thread::current().id());
        assert!(spawned.iter().all(|&id| id != caller));
        assert_eq!(spawned[0], spawned[1]);
        assert_ne!(spawned[0], spawned[2]);
    }

    #[test]
    #[should_panic(expected = "item 1 is in two bins")]
    fn run_bins_rejects_an_item_in_two_bins() {
        run_bins(2, &[vec![0, 1], vec![1]], |i| i);
    }

    #[test]
    fn units_tile_the_grid_exactly() {
        let p = ExecutionPlan::new(100, 90, 32, 16, MemBudget::bytes(32 * 16 * 2 * 8));
        assert_eq!(p.block_tiles(), 2);
        assert_eq!(p.n_row_panels(), 4);
        assert_eq!(p.n_col_tiles(), 6);
        assert_eq!(p.n_col_blocks(), 3);
        let units: Vec<_> = p.units().collect();
        assert_eq!(units.len(), 12);
        // Rows partition [0, 100), columns partition [0, 90) per panel.
        for pi in 0..4 {
            let row_units: Vec<_> = units.iter().filter(|u| u.row_panel == pi).collect();
            assert_eq!(row_units.first().unwrap().cols.start, 0);
            assert_eq!(row_units.last().unwrap().cols.end, 90);
            for w in row_units.windows(2) {
                assert_eq!(w[0].cols.end, w[1].cols.start);
            }
        }
        assert_eq!(units[11].rows, 96..100);
        assert_eq!(units[11].cols, 64..90);
    }

    #[test]
    fn ragged_edges_are_clamped() {
        let p = ExecutionPlan::new(10, 10, 64, 64, MemBudget::Unbounded);
        assert_eq!(p.n_row_panels(), 1);
        assert_eq!(p.n_col_blocks(), 1);
        assert_eq!(p.panel_rows(0), 0..10);
        assert_eq!(p.block_extent(0).0, 0..10);
        // Scratch accounts the clamped extents, not the nominal tile.
        assert_eq!(p.scratch_elems(), 100);
    }

    #[test]
    fn zero_width_output_has_no_blocks() {
        let p = ExecutionPlan::new(0, 0, 4, 4, MemBudget::mib(1));
        assert_eq!(p.n_row_panels(), 0);
        assert_eq!(p.n_col_tiles(), 0);
        assert_eq!(p.n_col_blocks(), 0);
        assert_eq!(p.units().count(), 0);
    }

    /// A uniform 2000 × 2000 profile with 10 nonzeros per row/column —
    /// the auto-planner tests' analog of the 2 k benchmark point.
    fn uniform_profile() -> MatrixProfile {
        MatrixProfile::new(2_000, 2_000, vec![10; 2_000], vec![10; 2_000])
    }

    #[test]
    fn auto_planner_widens_blocks_under_a_tight_budget() {
        let p = uniform_profile();
        // The bench operating point: 32-column streamed tiles, a 64 KiB
        // budget, the engine's overbooked 2048-slot buffer, and a fixed
        // 256-row baseline (whose panels overbook and whose blocks are
        // single tiles).
        let planner = AutoPlanner::new(&p, 32, MemBudget::bytes(64 << 10))
            .with_buffer(BufferParams {
                capacity: 2_048,
                fifo_region: 256,
                overbooking: true,
            })
            .with_baseline(256);
        let fixed = planner.cost_of(256);
        assert_eq!(fixed.col_blocks, 63, "baseline: single-tile blocks");
        assert!(fixed.fits_budget);
        let auto = planner.choose();
        assert_eq!(auto.rows_a, 128, "half-height panels, double-width blocks");
        assert_eq!(auto.col_blocks, 32);
        assert!(auto.fits_budget);
        // The acceptance ordering: strictly fewer extraction passes and
        // strictly lower modeled traffic than the fixed plan.
        assert!(auto.extraction_passes < fixed.extraction_passes);
        assert!(auto.total < fixed.total);
        // The shorter panels stopped overbooking the operand buffer.
        assert_eq!(auto.scratch_fills, p.nnz() as u128);
        assert!(fixed.scratch_fills > p.nnz() as u128);
        // And the emitted plan is exactly the fixed plan at that height.
        assert_eq!(
            planner.plan(),
            ExecutionPlan::new(2_000, 2_000, 128, 32, MemBudget::bytes(64 << 10))
        );
    }

    #[test]
    fn auto_planner_prefers_budget_honouring_plans() {
        let p = uniform_profile();
        // A budget smaller than any multi-row single tile: only 1-row
        // panels fit (1 × 32 × 8 = 256 bytes).
        let planner = AutoPlanner::new(&p, 32, MemBudget::bytes(256)).with_baseline(512);
        let choice = planner.choose();
        assert_eq!(choice.rows_a, 1);
        assert!(choice.fits_budget);
        assert!(!planner.cost_of(512).fits_budget);
    }

    #[test]
    fn auto_planner_unbounded_budget_keeps_one_block() {
        let p = uniform_profile();
        // Without a budget every height yields one block; B-refetch then
        // dominates and the planner grows the panel to the whole tensor.
        let choice = AutoPlanner::new(&p, 32, MemBudget::Unbounded).choose();
        assert_eq!(choice.rows_a, 2_000);
        assert_eq!(choice.col_blocks, 1);
        assert_eq!(choice.b_refetch, p.nnz() as u128);
    }

    #[test]
    fn auto_planner_handles_degenerate_profiles() {
        let empty = MatrixProfile::new(0, 0, vec![], vec![]);
        let plan = AutoPlanner::new(&empty, 8, MemBudget::mib(1)).plan();
        assert_eq!(plan.n_row_panels(), 0);
        assert_eq!(plan.units().count(), 0);
        let tiny = MatrixProfile::new(1, 1, vec![1], vec![1]);
        let plan = AutoPlanner::new(&tiny, 8, MemBudget::bytes(8))
            .with_baseline(4)
            .plan();
        assert_eq!(plan.rows_a(), 1);
    }

    #[test]
    fn buffer_params_mirror_the_tile_driver() {
        let tailor = BufferParams {
            capacity: 40,
            fifo_region: 8,
            overbooking: true,
        };
        assert_eq!(tailor.steady_refetch(40), 0, "fitting tile");
        assert_eq!(tailor.steady_refetch(100), 100 - 32, "bumped remainder");
        let buffet = BufferParams {
            overbooking: false,
            ..tailor
        };
        assert_eq!(buffet.steady_refetch(100), 100, "whole-tile refill");
    }

    #[test]
    fn wide_smoke_shape_matches_issue_arithmetic() {
        // The CI wide-matrix smoke: 50k columns, 4096-row panels, 2048-col
        // tiles, 256 MiB → 4 tiles (8192 columns) per block, 7 blocks.
        let p = ExecutionPlan::new(50_000, 50_000, 4_096, 2_048, MemBudget::mib(256));
        assert_eq!(p.block_tiles(), 4);
        assert_eq!(p.block_cols(), 8_192);
        assert_eq!(p.n_col_blocks(), 7);
        assert_eq!(p.scratch_bytes(), 256 << 20);
        assert!(p.fits_budget());
    }
}
