//! The functional engine: executes the tiled `Z = A·Aᵀ` dataflow and
//! counts its DRAM traffic.
//!
//! This is the ground truth the analytical model is validated against:
//!
//! * the computed output matrix must equal the reference
//!   [`tailors_tensor::ops::spmspm_a_at`];
//! * the counted DRAM fetches must equal the closed-form expressions in
//!   [`crate::dataflow`] (the integration tests cross-check this).
//!
//! The engine models one buffered level (DRAM → operand buffer → compute),
//! i.e. the analytical model with a degenerate PE level — exactly the part
//! of the hierarchy overbooking changes. The fast engine charges that
//! buffer's traffic in closed form; the oracle [`reference_run`] drives
//! real `tailors-eddo` buffers element by element.
//!
//! # Execution substrate
//!
//! Row panels of `A` produce disjoint row ranges of `Z`, so panels execute
//! independently — serially in deterministic order with `threads == 1`, or
//! fanned out across a rayon pool with [`run_with_threads`]. Within a
//! panel the engine walks CSR row slices directly (the stationary tile is
//! never materialized as a coordinate list), slices each streamed B tile
//! through a precomputed [`TileColPtr`] column-pointer view instead of a
//! per-element binary search, and accumulates into a bitmask-blocked
//! dense scratch ([`BlockedSpa`]): one dense write plus one occupancy-word
//! OR per effectual multiply, with extraction walking only set words/bits
//! (ascending by construction — no per-row sort, no full zero-scan).
//!
//! # Resident and spilled operands
//!
//! One executor serves both storage tiers. The work items, block loop,
//! kernel choice and output stitch are generic over a private `Operand`
//! trait: the in-RAM matrix (with its transpose and tile view) for
//! [`run_with_threads`] / [`run_grid`], or a file-backed [`MmapStorage`]
//! for [`run_spilled`], whose panels page in on demand and whose streamed
//! tiles are checked out of a residency cache with the next one
//! prefetched. Both present the stationary panel through the same
//! in-place view and each streamed `B` row as a slice pair, so the two
//! tiers run the same traversal and produce the same bits.
//!
//! # Memory governance
//!
//! The per-item scratch is governed by an [`ExecutionPlan`]: under a
//! finite [`MemBudget`] the panel's streamed tiles are grouped into
//! *column blocks* and the scratch spans `rows_a × block_cols` instead of
//! `rows_a × ncols`. A block is a run of whole B tiles traversed in the
//! same global order, every output coordinate is owned by exactly one
//! block, and a panel's blocks are stitched per row in column order —
//! so the budgeted run is bit-identical to the unbudgeted one in every
//! reported field, and large column counts become feasible (the scratch
//! no longer scales with `ncols`).
//!
//! # Work items, grid parallelism and traffic accounting
//!
//! Every entry point runs one executor over *work items*: a row panel
//! paired with a contiguous range of its column blocks. An item pages its
//! panel in once, runs its blocks in column order, and drains each block
//! straight into flat output buffers; one stitch then interleaves each
//! panel's block segments row by row. [`GridMode`] only picks the item
//! granularity: a whole panel per item under [`GridMode::Panels`] (and
//! always in [`run_spilled`]), one (panel × block) [`PlanUnit`] per item
//! under [`GridMode::Grid2D`] — `panels × blocks`-way parallelism, with
//! the traffic reported per item ([`UnitTraffic`]).
//!
//! * Stationary-operand traffic is charged in closed form. A panel of
//!   `occ` nonzeros is traversed once per streamed tile; the first
//!   traversal fills the whole panel and every later one refetches the
//!   steady-state volume `r` = [`BufferParams::steady_refetch`] (`0` when
//!   the panel fits, the bumped remainder `occ − resident` through an
//!   overbooked Tailor, `occ` through an overbooked buffet, which cannot
//!   rewind). An item of `k` traversals is charged `k·r`, plus `occ − r`
//!   if it holds the panel's first block. Summed over a panel's items
//!   this is `occ + (Σk − 1)·r`, one traversal sequence's count, for every
//!   tiling, budget and grid mode. The auto planner prices the same
//!   formula, and [`reference_run`] replays the traversals through real
//!   buffers (`tailors_eddo::replay`); the property suite in
//!   `crates/sim/tests/functional_equivalence.rs` holds all three equal.
//! * Streamed-operand traffic partitions exactly: each item owns the B
//!   columns of its blocks, and per-panel sums equal one full pass over
//!   B (`nnz`).
//!
//! Work items are distributed across threads by cost-balanced bins
//! ([`crate::exec::balanced_partition`]) and reassembled in item order,
//! so results — including every floating-point accumulation order and
//! every reported traffic count — are bit-identical for every thread
//! count, every memory budget, and both grid modes, and bit-identical to
//! the retained seed engine [`reference_run`].

use crate::exec::{run_balanced, BufferParams, ExecutionPlan, GridMode, MemBudget, PlanUnit};
use std::sync::Arc;
use tailors_eddo::replay::{replay_buffet, replay_tailor};
use tailors_eddo::{EddoError, TailorConfig};
use tailors_tensor::ops::BlockedSpa;
use tailors_tensor::storage::{
    MmapStorage, PanelBuffers, PoolHandle, PoolStats, ScratchPool, ShapeClass, SpillTile,
};
use tailors_tensor::{CooMatrix, CsrMatrix, TileColPtr};

/// A structurally invalid engine configuration, reported through the
/// `Err` channel instead of a panic so a long-lived server can answer a
/// bad request with a typed error and keep serving (the serving layer's
/// workers must never abort on caller input).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum ConfigError {
    /// `Z = A·Aᵀ` requires a square stationary operand.
    NonSquare {
        /// Rows of the supplied matrix.
        nrows: usize,
        /// Columns of the supplied matrix.
        ncols: usize,
    },
    /// The operand buffer has no capacity.
    ZeroCapacity,
    /// A tile dimension is zero.
    ZeroTileDims {
        /// Configured rows of `A` per tile.
        rows_a: usize,
        /// Configured columns of `B` per tile.
        cols_b: usize,
    },
    /// The worker-thread count is zero.
    ZeroThreads,
    /// A spilled run's `cols_b` does not match the tile width the spill
    /// file was written with (the file's per-tile segments *are* the
    /// streamed tiles, so the two must agree).
    SpillTileMismatch {
        /// Columns per tile in the spill file.
        file_cols: usize,
        /// Columns per tile in the run configuration.
        config_cols: usize,
    },
}

impl core::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ConfigError::NonSquare { nrows, ncols } => {
                write!(f, "A·Aᵀ expects a square matrix, got {nrows}x{ncols}")
            }
            ConfigError::ZeroCapacity => write!(f, "capacity must be positive"),
            ConfigError::ZeroTileDims { rows_a, cols_b } => {
                write!(
                    f,
                    "tile dimensions must be positive, got rows_a={rows_a} cols_b={cols_b}"
                )
            }
            ConfigError::ZeroThreads => write!(f, "thread count must be positive"),
            ConfigError::SpillTileMismatch {
                file_cols,
                config_cols,
            } => write!(
                f,
                "spill file was tiled at cols_b={file_cols} but the run asks for {config_cols}"
            ),
        }
    }
}

impl std::error::Error for ConfigError {}

/// Everything a functional run can fail with: a rejected configuration,
/// an invalid Tailor sizing, or a spill-tier I/O failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineError {
    /// The configuration was rejected before any work ran.
    Config(ConfigError),
    /// The operand buffer's sizing was rejected before any work ran
    /// ([`EddoError::BadConfig`]: `fifo_region == 0` or
    /// `fifo_region >= capacity` while overbooking). The oracle
    /// [`reference_run`] also reports a buffer-protocol violation here;
    /// none occurs for well-formed input.
    Buffer(EddoError),
    /// The spill tier failed to page an operand in ([`run_spilled`]);
    /// carries the I/O error kind (the error itself is not `Copy`).
    Spill(std::io::ErrorKind),
}

impl From<ConfigError> for EngineError {
    fn from(e: ConfigError) -> Self {
        EngineError::Config(e)
    }
}

impl From<EddoError> for EngineError {
    fn from(e: EddoError) -> Self {
        EngineError::Buffer(e)
    }
}

impl From<std::io::Error> for EngineError {
    fn from(e: std::io::Error) -> Self {
        EngineError::Spill(e.kind())
    }
}

impl core::fmt::Display for EngineError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            EngineError::Config(e) => write!(f, "invalid configuration: {e}"),
            EngineError::Buffer(e) => write!(f, "buffer protocol error: {e}"),
            EngineError::Spill(kind) => write!(f, "spill-tier I/O error: {kind}"),
        }
    }
}

impl std::error::Error for EngineError {}

/// Shared request validation for every engine entry point, resident or
/// spilled, over the operand's `nrows × ncols` shape (and for
/// [`reference_run`], which must reject exactly what the rewritten engine
/// rejects so the oracle stays callable wherever the engine is).
fn validate(
    nrows: usize,
    ncols: usize,
    config: &FunctionalConfig,
    threads: usize,
) -> Result<(), ConfigError> {
    if nrows != ncols {
        return Err(ConfigError::NonSquare { nrows, ncols });
    }
    if config.capacity == 0 {
        return Err(ConfigError::ZeroCapacity);
    }
    if config.rows_a == 0 || config.cols_b == 0 {
        return Err(ConfigError::ZeroTileDims {
            rows_a: config.rows_a,
            cols_b: config.cols_b,
        });
    }
    if threads == 0 {
        return Err(ConfigError::ZeroThreads);
    }
    Ok(())
}

/// Configuration of a functional run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FunctionalConfig {
    /// Operand-buffer capacity in nonzeros.
    pub capacity: usize,
    /// Tailors FIFO-region size (ignored when `overbooking` is false).
    pub fifo_region: usize,
    /// Rows of `A` per tile (`K`-spanning row panels).
    pub rows_a: usize,
    /// Columns of `B = Aᵀ` per tile.
    pub cols_b: usize,
    /// Whether the operand buffer is a Tailor (otherwise a plain buffet,
    /// which drops everything and refills when a tile does not fit).
    pub overbooking: bool,
    /// Per-thread dense-scratch budget; the [`ExecutionPlan`] derived from
    /// it groups streamed tiles into column blocks. Any budget yields
    /// bit-identical results; it only bounds memory.
    pub mem_budget: MemBudget,
    /// Parallel decomposition: row panels only, or the full 2-D
    /// (panel × block) grid with one work item per unit. Either mode
    /// yields bit-identical results; it only changes the available
    /// parallelism.
    pub grid: GridMode,
    /// Opt-in budget-aware auto-tiling: when set, `rows_a` is only the
    /// *baseline* candidate — the engine re-plans the panel height
    /// against `mem_budget` through the
    /// [`AutoPlanner`](crate::exec::AutoPlanner) under the uniform cost
    /// model (see [`auto_execution_plan`]) before running. The output
    /// matrix is bit-identical to [`reference_run`] either way (results
    /// never depend on the tiling); the DRAM counts are those of the
    /// chosen tiling.
    pub auto_plan: bool,
}

impl FunctionalConfig {
    /// The memory-governed execution plan this configuration induces on an
    /// `nrows × ncols` output **at the fixed `rows_a`** — what every run
    /// without [`FunctionalConfig::auto_plan`] executes. An auto-planned
    /// run derives its plan from the matrix instead; see
    /// [`auto_execution_plan`].
    pub fn execution_plan(&self, nrows: usize, ncols: usize) -> ExecutionPlan {
        ExecutionPlan::new(nrows, ncols, self.rows_a, self.cols_b, self.mem_budget)
    }

    /// The operand buffer, as the engine charges its traffic and the auto
    /// planner prices its refetch term.
    fn buffer_params(&self) -> BufferParams {
        BufferParams {
            capacity: self.capacity,
            fifo_region: self.fifo_region,
            overbooking: self.overbooking,
        }
    }

    /// The Tailor sizing of an overbooking run (`None` for a plain
    /// buffet). Every entry point checks it once, before any work runs.
    fn tailor(&self) -> Result<Option<TailorConfig>, EddoError> {
        self.overbooking
            .then(|| TailorConfig::new(self.capacity, self.fifo_region))
            .transpose()
    }
}

/// The execution plan an auto-planned run ([`FunctionalConfig::auto_plan`])
/// derives: the [`AutoPlanner`](crate::exec::AutoPlanner) over the
/// matrix's occupancy profile, with the config's buffer as the refetch
/// model, its `rows_a` as the baseline candidate, and `model` weighting
/// the traffic terms. Exposed so callers (smokes, tests, the serving
/// layer) can see the tiling an auto run will execute — a fixed run at
/// `plan.rows_a()` is bit-identical to the auto run in every reported
/// field.
///
/// The engine's own auto plans use
/// [`CostModel::UNIFORM`](crate::exec::CostModel::UNIFORM); another
/// `model` can only move the chosen tiling (and therefore the traffic
/// counters), never the output matrix.
pub fn auto_execution_plan(
    a: &CsrMatrix,
    config: &FunctionalConfig,
    model: crate::exec::CostModel,
) -> ExecutionPlan {
    crate::exec::AutoPlanner::new(&a.profile(), config.cols_b, config.mem_budget)
        .with_buffer(config.buffer_params())
        .with_baseline(config.rows_a)
        .with_cost_model(model)
        .plan()
}

/// Result of a functional run.
#[derive(Debug, Clone, PartialEq)]
pub struct FunctionalResult {
    /// The computed output `Z = A·Aᵀ`.
    pub z: CsrMatrix,
    /// Elements fetched from DRAM for the stationary operand `A`
    /// (including overbooking restreams).
    pub dram_a_fetches: u64,
    /// Elements fetched from DRAM for the streamed operand `B`.
    pub dram_b_fetches: u64,
    /// Number of A tiles that overbooked the buffer.
    pub overbooked_a_tiles: usize,
}

/// Executes the tiled dataflow on `a` with `threads` workers (`1` = fully
/// serial, deterministic-by-construction path), returning the output and
/// DRAM traffic counts. The result does not depend on the thread count.
///
/// # Errors
///
/// [`EngineError::Config`] if `a` is not square or the configuration is
/// degenerate (`capacity == 0`, `rows_a == 0`, `cols_b == 0`, or
/// `threads == 0`); [`EngineError::Buffer`] for an invalid Tailor sizing
/// (`fifo_region == 0` or `fifo_region >= capacity` while overbooking).
/// No caller input panics the engine.
pub fn run_with_threads(
    a: &CsrMatrix,
    config: &FunctionalConfig,
    threads: usize,
) -> Result<FunctionalResult, EngineError> {
    let (op, plan) = engine_setup(a, config, threads)?;
    Ok(run_items(&op, config, &plan, config.grid, threads)?.0)
}

/// Validated common setup for the resident entry points: the operand and
/// the execution plan.
fn engine_setup<'a>(
    a: &'a CsrMatrix,
    config: &FunctionalConfig,
    threads: usize,
) -> Result<(Resident<'a>, ExecutionPlan), EngineError> {
    validate(a.nrows(), a.ncols(), config, threads)?;
    config.tailor()?;
    let b = a.transpose();
    let n = a.nrows();
    let plan = if config.auto_plan {
        auto_execution_plan(a, config, crate::exec::CostModel::UNIFORM)
    } else {
        config.execution_plan(n, n)
    };
    // Column-pointer view of B at the tile grid: row k ∩ tile tj becomes an
    // O(1) slice instead of a per-element partition_point. The view costs
    // nrows × (n_tiles + 1) indices; when a degenerate tiling (tiny cols_b
    // on a wide B) would make that dwarf the matrix itself, skip it and let
    // panels fall back to per-element range searches.
    let n_b_tiles = plan.n_col_tiles();
    let view_cells = b.nrows() * (n_b_tiles + 1);
    let b_tiles = if view_cells <= 8 * b.nnz() + 4096 {
        let view = b.tile_col_ptr(config.cols_b);
        debug_assert_eq!(view.n_tiles(), n_b_tiles);
        Some(view)
    } else {
        None
    };
    let op = Resident {
        a,
        b,
        b_tiles,
        cols_b: config.cols_b,
    };
    Ok((op, plan))
}

/// One work item of the executor: row panel `panel` paired with a
/// contiguous run of its column blocks, executed in column order.
struct WorkItem {
    panel: usize,
    blocks: core::ops::Range<usize>,
}

/// The work items of `plan` under `grid`, in (panel, first block) order:
/// one per row panel covering all its blocks ([`GridMode::Panels`]), or
/// one per (panel × block) [`PlanUnit`] ([`GridMode::Grid2D`]).
fn work_items(plan: &ExecutionPlan, grid: GridMode) -> Vec<WorkItem> {
    let n_blocks = plan.n_col_blocks();
    let step = match grid {
        GridMode::Panels => n_blocks.max(1),
        GridMode::Grid2D => 1,
    };
    (0..plan.n_row_panels())
        .flat_map(|panel| {
            (0..n_blocks).step_by(step).map(move |b0| WorkItem {
                panel,
                blocks: b0..(b0 + step).min(n_blocks),
            })
        })
        .collect()
}

/// The one executor behind every entry point: runs the work items `grid`
/// cuts `plan` into across `threads` workers, stitches their outputs into
/// one CSR matrix, and reports each item's [`UnitTraffic`].
fn run_items<O: Operand>(
    op: &O,
    config: &FunctionalConfig,
    plan: &ExecutionPlan,
    grid: GridMode,
    threads: usize,
) -> Result<(FunctionalResult, Vec<UnitTraffic>), EngineError> {
    let items = work_items(plan, grid);

    // Item cost ≈ panel occupancy × its share of the streamed operand
    // (the accumulate work) plus the traversal cost of the panel itself.
    let costs: Vec<u128> = items
        .iter()
        .map(|item| {
            let rows = plan.panel_rows(item.panel);
            let occ = op.row_range_nnz(rows.start, rows.end) as u128;
            let cols = item_cols(plan, item);
            let block = op.row_range_nnz(cols.start, cols.end) as u128;
            occ * block + occ + block + 1
        })
        .collect();
    let outputs = run_balanced(items.len(), &costs, threads, |i| {
        run_item(op, config, plan, &items[i])
    })
    .into_iter()
    .collect::<Result<Vec<ItemOutput>, _>>()?;

    // Stitch: items come in (panel, first block) order, and each drained
    // its blocks one after another, one length per panel row per block.
    // Per panel, every output row concatenates its block segments in
    // column order; segment cursors advance monotonically because every
    // block drained its rows in order.
    let n = op.nrows();
    let nnz: usize = outputs.iter().map(|o| o.out.cols.len()).sum();
    let mut row_ptr: Vec<usize> = Vec::with_capacity(n + 1);
    row_ptr.push(0);
    let mut cols: Vec<u32> = Vec::with_capacity(nnz);
    let mut vals: Vec<f64> = Vec::with_capacity(nnz);
    let mut segments: Vec<(&PanelBuffers, &[usize], usize)> = Vec::new();
    for panel in outputs.chunk_by(|x, y| x.traffic.row_panel == y.traffic.row_panel) {
        let panel_rows = plan.panel_rows(panel[0].traffic.row_panel).len();
        segments.clear();
        for item in panel {
            let mut start = 0;
            for lens in item.out.row_lens.chunks(panel_rows) {
                segments.push((&item.out, lens, start));
                start += lens.iter().sum::<usize>();
            }
        }
        for lr in 0..panel_rows {
            let before = cols.len();
            for (out, lens, cursor) in &mut segments {
                let end = *cursor + lens[lr];
                cols.extend_from_slice(&out.cols[*cursor..end]);
                vals.extend_from_slice(&out.vals[*cursor..end]);
                *cursor = end;
            }
            row_ptr.push(row_ptr.last().expect("non-empty") + (cols.len() - before));
        }
    }
    let z = CsrMatrix::from_parts(n, n, row_ptr, cols, vals)
        .expect("item emission produces canonical CSR");
    let traffic: Vec<UnitTraffic> = outputs.iter().map(|o| o.traffic).collect();
    let result = FunctionalResult {
        z,
        dram_a_fetches: traffic.iter().map(|t| t.dram_a_fetches).sum(),
        dram_b_fetches: traffic.iter().map(|t| t.dram_b_fetches).sum(),
        overbooked_a_tiles: traffic.iter().filter(|t| t.overbooked).count(),
    };
    Ok((result, traffic))
}

/// The output columns `item` owns: its first block's start to its last
/// block's end.
fn item_cols(plan: &ExecutionPlan, item: &WorkItem) -> core::ops::Range<usize> {
    let (first, _) = plan.block_extent(item.blocks.start);
    let (last, _) = plan.block_extent(item.blocks.end - 1);
    first.start..last.end
}

/// Per-item traffic accounting of the executor, as [`run_grid`] reports
/// it: one entry per (panel × block) [`PlanUnit`] ([`GridMode::Grid2D`]).
///
/// `dram_a_fetches` is charged in closed form (see the
/// [module docs](self)): per panel, block 0 pays the cold fill and every
/// block its steady-state refetches, which sums *exactly* to the panel's
/// total over one traversal sequence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UnitTraffic {
    /// Row-panel index of the unit.
    pub row_panel: usize,
    /// Column-block index of the unit.
    pub col_block: usize,
    /// Stationary-operand fetches charged to this unit; summing these over
    /// a panel's blocks reproduces the panel's count exactly.
    pub dram_a_fetches: u64,
    /// Streamed-operand nonzeros this unit owns (the B columns of its
    /// block); per-panel block sums equal one full pass over B.
    pub dram_b_fetches: u64,
    /// Whether the panel overbooks the operand buffer; reported on
    /// `col_block == 0` only so panel sums count each panel once.
    pub overbooked: bool,
}

/// [`run_with_threads`] in [`GridMode::Grid2D`], also returning the
/// per-unit traffic breakdown. The [`FunctionalResult`] is bit-identical
/// to the [`GridMode::Panels`] run (and to [`reference_run`]) in every
/// field.
///
/// # Errors
///
/// As [`run_with_threads`].
pub fn run_grid(
    a: &CsrMatrix,
    config: &FunctionalConfig,
    threads: usize,
) -> Result<(FunctionalResult, Vec<UnitTraffic>), EngineError> {
    let (op, plan) = engine_setup(a, config, threads)?;
    run_items(&op, config, &plan, GridMode::Grid2D, threads)
}

/// Output of one work item: its blocks' rows drained one block after
/// another into pooled assembly buffers (the stitch reads through the
/// handle, and dropping it returns the buffers to the worker's scratch
/// slab), plus the item's traffic.
struct ItemOutput {
    out: PoolHandle<PanelBuffers>,
    traffic: UnitTraffic,
}

/// The accumulator interface the per-unit kernel dispatch needs: the
/// bitmask-blocked scratch's masked mode and its dense mode
/// ([`DenseMode`]) both provide it with identical semantics
/// (bit-identical emission on the same write sequence — property-tested
/// in `crates/tensor/tests/proptests.rs`), so [`run_block`]
/// monomorphizes over the choice and the accumulate hot loop carries no
/// per-write dispatch branch. Both modes drive the *same* per-thread
/// [`BlockedSpa`] allocation, so dispatching never grows the scratch
/// beyond the planner's per-thread budget.
trait UnitSpa {
    fn reset_shape(&mut self, rows: usize, width: usize);
    fn accumulate(&mut self, row: usize, col: usize, v: f64);
    fn drain_row(&mut self, row: usize, base: u32, cols: &mut Vec<u32>, vals: &mut Vec<f64>);
    fn clear(&mut self);
}

impl UnitSpa for BlockedSpa {
    fn reset_shape(&mut self, rows: usize, width: usize) {
        BlockedSpa::reset_shape(self, rows, width)
    }
    #[inline]
    fn accumulate(&mut self, row: usize, col: usize, v: f64) {
        BlockedSpa::accumulate(self, row, col, v)
    }
    fn drain_row(&mut self, row: usize, base: u32, cols: &mut Vec<u32>, vals: &mut Vec<f64>) {
        BlockedSpa::drain_row(self, row, base, cols, vals)
    }
    fn clear(&mut self) {
        BlockedSpa::clear(self)
    }
}

/// The dense kernel: the same [`BlockedSpa`] driven in its unmasked mode
/// (no occupancy maintenance per accumulate, full-width scan-and-wipe
/// extraction) — the profitable trade for blocks predicted to fill.
struct DenseMode<'a>(&'a mut BlockedSpa);

impl UnitSpa for DenseMode<'_> {
    fn reset_shape(&mut self, rows: usize, width: usize) {
        BlockedSpa::reset_shape(self.0, rows, width)
    }
    #[inline]
    fn accumulate(&mut self, row: usize, col: usize, v: f64) {
        self.0.accumulate_dense(row, col, v)
    }
    fn drain_row(&mut self, row: usize, base: u32, cols: &mut Vec<u32>, vals: &mut Vec<f64>) {
        self.0.drain_row_dense(row, base, cols, vals)
    }
    fn clear(&mut self) {
        BlockedSpa::clear(self.0)
    }
}

/// Predicted-fill dispatch threshold: expected accumulate writes per
/// scratch slot at or above which a block runs on the plain dense kernel.
/// At half a write per slot most occupancy words are populated anyway, so
/// the mask OR + touched-word bookkeeping per accumulate buys nothing and
/// the dense kernel's full-width extraction wipe costs at most ~2 slots
/// per write. Correctness never depends on the value — the kernels are
/// bit-identical — so it only moves the crossover.
const DENSE_FILL_THRESHOLD: f64 = 0.5;

/// Whether `unit` should run on the dense kernel: predicted fill density
/// from the profile quantities already on hand. The expected effectual
/// multiplies landing in a (panel × block) unit are
/// `occ_panel × occ_block / nnz` for unstructured sparsity (each of the
/// panel's elements meets the streamed elements sharing its `k`
/// coordinate; `Σ_k panel_k × block_k` with both factors proportional to
/// their totals), and writes-per-slot is that over the unit's area.
fn dense_kernel_for<O: Operand>(op: &O, unit: &PlanUnit) -> bool {
    let slots = unit.rows.len() as f64 * unit.cols.len() as f64;
    let nnz = op.nnz() as f64;
    if slots == 0.0 || nnz == 0.0 {
        return false;
    }
    let occ_panel = op.row_range_nnz(unit.rows.start, unit.rows.end) as f64;
    // The streamed block's occupancy: B columns [c0, c1) are A rows.
    let occ_block = op.row_range_nnz(unit.cols.start, unit.cols.end) as f64;
    occ_panel * occ_block >= DENSE_FILL_THRESHOLD * slots * nnz
}

/// Runs one column block on whichever kernel [`dense_kernel_for`] picks
/// for `unit` — the single dispatch point every work item goes through.
fn run_block_dispatch<O: Operand>(
    op: &O,
    spa: &mut BlockedSpa,
    panel: &PanelElems<'_>,
    unit: &PlanUnit,
    out: &mut PanelBuffers,
) -> Result<(), EngineError> {
    if dense_kernel_for(op, unit) {
        run_block(&mut DenseMode(spa), panel, op, unit, out)
    } else {
        run_block(spa, panel, op, unit, out)
    }
}

/// Executes one column block of a stationary panel: shapes `spa` to the
/// unit, walks the panel's rows in stream (row-major) order once per
/// streamed tile of the block (accumulating block-local columns, re-based
/// at the block's first column), and drains every row onto the end of
/// `out`, one `row_lens` entry per panel row. Generic over the
/// accumulator kernel — the caller picks the masked or dense mode per
/// unit via [`dense_kernel_for`].
fn run_block<O: Operand, A: UnitSpa>(
    spa: &mut A,
    panel: &PanelElems<'_>,
    op: &O,
    unit: &PlanUnit,
    out: &mut PanelBuffers,
) -> Result<(), EngineError> {
    let c0 = unit.cols.start;
    spa.reset_shape(unit.rows.len(), unit.cols.len());
    for tj in unit.tiles.clone() {
        // A paging error restores the all-zero invariant before propagating.
        let tile = op.tile(tj).inspect_err(|_| spa.clear())?;
        for lr in 0..unit.rows.len() {
            let (ks, vas) = panel.row(lr);
            for (&k, &va) in ks.iter().zip(vas) {
                let (cols, vals) = op.tile_row(&tile, k as usize);
                for (&nn, &vb) in cols.iter().zip(vals) {
                    spa.accumulate(lr, nn as usize - c0, va * vb);
                }
            }
        }
    }
    // Extract in row order; the stitch interleaves a panel's blocks per
    // row, and blocks own disjoint column ranges in ascending order, so
    // every stitched row stays sorted.
    for lr in 0..unit.rows.len() {
        let before = out.cols.len();
        spa.drain_row(lr, c0 as u32, &mut out.cols, &mut out.vals);
        out.row_lens.push(out.cols.len() - before);
    }
    Ok(())
}

/// Executes one work item: pages its panel in once and runs the item's
/// column blocks in order, each on the accumulator kernel
/// [`dense_kernel_for`] picks — the bitmask-blocked scratch in the sparse
/// regime, the plain dense one when the block is predicted to fill.
/// Returns the drained blocks and the item's [`UnitTraffic`].
fn run_item<O: Operand>(
    op: &O,
    config: &FunctionalConfig,
    plan: &ExecutionPlan,
    item: &WorkItem,
) -> Result<ItemOutput, EngineError> {
    let rows = plan.panel_rows(item.panel);
    // This item's share of the streamed operand: the nonzeros of B columns
    // [c0, c1) are the nonzeros of A rows [c0, c1).
    let cols = item_cols(plan, item);
    let dram_b = op.row_range_nnz(cols.start, cols.end) as u64;
    // The stationary panel's traffic in closed form (see the module docs):
    // every traversal refetches the steady-state volume r, and the panel's
    // first block also pays the rest of the cold fill, occ − r.
    let occ = op.row_range_nnz(rows.start, rows.end) as u64;
    let r = config.buffer_params().steady_refetch(occ);
    let traversals: u64 = item
        .blocks
        .clone()
        .map(|bi| plan.block_extent(bi).1.len() as u64)
        .sum();
    let first = item.blocks.start == 0;
    let dram_a = traversals * r + if first { occ - r } else { 0 };
    // The item's first block is its widest (only a plan's last block can
    // be narrower), so its shape class bounds every block's scratch.
    let (first_cols, _) = plan.block_extent(item.blocks.start);
    let class = ShapeClass::of(rows.len(), first_cols.len());
    op.with_panel(rows.start, rows.end, |panel| {
        // SPA scratch and assembly buffers both come out of the worker's
        // scratch pool by shape class, so steady-state runs on warm
        // threads allocate nothing here. Extraction restores the SPA's
        // all-zero invariant as it goes.
        SCRATCH_POOL.with(|pool| {
            pool.set_retention(config.mem_budget.limit_bytes());
            let mut spa = pool.checkout_spa(class);
            let mut out = pool.checkout_buffers(class);
            for bi in item.blocks.clone() {
                let unit = plan.unit(item.panel, bi);
                run_block_dispatch(op, &mut spa, &panel, &unit, &mut out)?;
            }
            Ok(ItemOutput {
                out,
                traffic: UnitTraffic {
                    row_panel: item.panel,
                    col_block: item.blocks.start,
                    dram_a_fetches: dram_a,
                    dram_b_fetches: dram_b,
                    overbooked: occ > config.capacity as u64 && first,
                },
            })
        })
    })
}

thread_local! {
    /// Per-thread scratch pool for [`run_item`]: SPA accumulators
    /// (all-zero between items by construction — extraction drains them)
    /// and item assembly buffers, recycled by shape class across items,
    /// runs, and served requests on the same thread. One SPA serves both dispatch kernels —
    /// [`DenseMode`] is a view over it — so the per-thread footprint
    /// stays within the planner's budget no matter how blocks dispatch;
    /// retention is re-capped from each run's `MemBudget`.
    static SCRATCH_POOL: ScratchPool = ScratchPool::new();
}

/// Counters of the **calling thread's** engine scratch pool (each worker
/// thread keeps its own; a serve runtime worker reports its own numbers).
/// `misses` staying flat across warmed runs is what "the kernel path
/// allocates nothing" looks like from the inside; the allocator-level
/// regression test in `tailors-serve` pins it from the outside.
pub fn scratch_pool_stats() -> PoolStats {
    SCRATCH_POOL.with(|pool| pool.stats())
}

/// Frees the calling thread's idle pooled scratch (outstanding handles
/// are unaffected). Useful for tests that want a cold pool.
pub fn clear_scratch_pool() {
    SCRATCH_POOL.with(|pool| pool.clear());
}

/// Executes the tiled dataflow against a file-backed operand
/// ([`MmapStorage`]) instead of an in-RAM [`CsrMatrix`], paging row
/// panels of `A` and column tiles of `B = Aᵀ` in on demand — so matrices
/// whose CSR payload exceeds the configured RAM budget stream through the
/// planner's row-panel × column-block working sets.
///
/// It is the [`run_with_threads`] executor in [`GridMode::Panels`] over
/// the spilled operand — one work item per panel, so each panel pages in
/// once: the same work items, block loop, kernel choice, traversal
/// order and traffic accounting at the same plan, so the result — every field — is **bit-identical** to
/// the in-RAM run and to [`reference_run`] (the property suite pins it).
/// Each streamed tile is checked out of the store's residency cache, and
/// the next column tile in [`ExecutionPlan`] order is prefetched before
/// the current one is traversed, keeping the cache's eviction aligned
/// with the plan.
///
/// `config.grid` and `config.auto_plan` are ignored: a spilled run is
/// always panel-mode (splitting a panel into (panel, block) items would
/// page the panel in once per item), and
/// auto-planning needs the occupancy profile of a resident matrix —
/// callers that want an auto plan derive it where the profile lives and
/// pass the chosen `rows_a` in.
///
/// # Errors
///
/// As [`run_with_threads`], plus [`ConfigError::SpillTileMismatch`] when
/// `config.cols_b` differs from the tile width the spill file was written
/// with, and [`EngineError::Spill`] when paging fails mid-run.
pub fn run_spilled(
    store: &MmapStorage,
    config: &FunctionalConfig,
    threads: usize,
) -> Result<FunctionalResult, EngineError> {
    validate(store.nrows(), store.ncols(), config, threads)?;
    if config.cols_b != store.tile_cols() {
        return Err(ConfigError::SpillTileMismatch {
            file_cols: store.tile_cols(),
            config_cols: config.cols_b,
        }
        .into());
    }
    config.tailor()?;
    let plan = config.execution_plan(store.nrows(), store.ncols());
    Ok(run_items(store, config, &plan, GridMode::Panels, threads)?.0)
}

/// The square operand `A` of `Z = A·Aᵀ` as the executor consumes it:
/// resident in RAM ([`Resident`]) or paged in from a spill file
/// ([`MmapStorage`]). The executor is generic over it (never `dyn`), so
/// each storage format gets its own monomorphized traversal loop.
trait Operand: Sync {
    /// A streamed column tile of `B = Aᵀ`, held while it is traversed.
    type Tile;
    /// Rows (and columns) of `A`.
    fn nrows(&self) -> usize;
    /// Stored nonzeros of `A`.
    fn nnz(&self) -> usize;
    /// Stored nonzeros in rows `[m0, m1)` of `A` — from resident row
    /// pointers, no I/O.
    fn row_range_nnz(&self, m0: usize, m1: usize) -> usize;
    /// Runs `f` over rows `[m0, m1)` of `A` as a stationary tile.
    fn with_panel<R>(
        &self,
        m0: usize,
        m1: usize,
        f: impl FnOnce(PanelElems<'_>) -> Result<R, EngineError>,
    ) -> Result<R, EngineError>;
    /// Streamed tile `tj` (columns `tj·cols_b ..` of `B`).
    fn tile(&self, tj: usize) -> Result<Self::Tile, EngineError>;
    /// Row `k` of `B` restricted to `tile`: global column indices and
    /// values.
    fn tile_row<'t>(&'t self, tile: &'t Self::Tile, k: usize) -> (&'t [u32], &'t [f64]);
}

/// The in-RAM operand: `A`, its transpose `B`, and (when the memory guard
/// in `engine_setup` allows) `B`'s column-pointer view at the tile grid.
struct Resident<'a> {
    a: &'a CsrMatrix,
    b: CsrMatrix,
    b_tiles: Option<TileColPtr>,
    cols_b: usize,
}

impl Operand for Resident<'_> {
    /// The tile index and its global column range `[n0, n1)`.
    type Tile = (usize, u32, u32);

    fn nrows(&self) -> usize {
        self.a.nrows()
    }

    fn nnz(&self) -> usize {
        self.a.nnz()
    }

    fn row_range_nnz(&self, m0: usize, m1: usize) -> usize {
        self.a.row_range_nnz(m0, m1)
    }

    fn with_panel<R>(
        &self,
        m0: usize,
        m1: usize,
        f: impl FnOnce(PanelElems<'_>) -> Result<R, EngineError>,
    ) -> Result<R, EngineError> {
        f(PanelElems {
            row_ptr: &self.a.row_ptr()[m0..=m1],
            cols: self.a.col_indices(),
            vals: self.a.values(),
        })
    }

    fn tile(&self, tj: usize) -> Result<Self::Tile, EngineError> {
        let n0 = tj * self.cols_b;
        let n1 = ((tj + 1) * self.cols_b).min(self.a.nrows());
        Ok((tj, n0 as u32, n1 as u32))
    }

    #[inline]
    fn tile_row<'t>(&'t self, tile: &'t Self::Tile, k: usize) -> (&'t [u32], &'t [f64]) {
        let &(tj, n0, n1) = tile;
        let (b_cols, b_vals) = (self.b.col_indices(), self.b.values());
        let (lo, hi) = match &self.b_tiles {
            Some(view) => view.row_tile_range(k, tj),
            // Memory-guarded fallback: per-element range searches within
            // row k, as in the seed engine.
            None => {
                let (rlo, rhi) = (self.b.row_ptr()[k], self.b.row_ptr()[k + 1]);
                let coords = &b_cols[rlo..rhi];
                let start = rlo + coords.partition_point(|&c| c < n0);
                let end = rlo + coords.partition_point(|&c| c < n1);
                (start, end)
            }
        };
        (&b_cols[lo..hi], &b_vals[lo..hi])
    }
}

impl Operand for MmapStorage {
    /// The checked-out tile; the `Arc` keeps it alive across eviction.
    type Tile = Arc<SpillTile>;

    fn nrows(&self) -> usize {
        MmapStorage::nrows(self)
    }

    fn nnz(&self) -> usize {
        MmapStorage::nnz(self)
    }

    fn row_range_nnz(&self, m0: usize, m1: usize) -> usize {
        MmapStorage::row_range_nnz(self, m0, m1)
    }

    /// Pages the panel's payload in once; its row pointers are rebased to
    /// the panel, so they index the payload directly.
    fn with_panel<R>(
        &self,
        m0: usize,
        m1: usize,
        f: impl FnOnce(PanelElems<'_>) -> Result<R, EngineError>,
    ) -> Result<R, EngineError> {
        let p = self.load_panel(m0, m1)?;
        f(PanelElems {
            row_ptr: &p.row_ptr,
            cols: &p.cols,
            vals: &p.vals,
        })
    }

    fn tile(&self, tj: usize) -> Result<Self::Tile, EngineError> {
        let tile = self.checkout_tile(tj)?;
        if tj + 1 < self.n_tiles() {
            // Warm the cache for the next tile in plan order. A prefetch
            // failure is not fatal here: the demand checkout that
            // actually needs the tile reports it.
            let _ = self.prefetch(tj + 1);
        }
        Ok(tile)
    }

    #[inline]
    fn tile_row<'t>(&'t self, tile: &'t Self::Tile, k: usize) -> (&'t [u32], &'t [f64]) {
        let (lo, hi) = (tile.row_ptr[k], tile.row_ptr[k + 1]);
        (&tile.cols[lo..hi], &tile.vals[lo..hi])
    }
}

/// A row panel of a CSR payload viewed in place — no materialization.
/// `row_ptr` holds the pointers of the panel's rows (one past the last
/// included) into `cols`/`vals`: the whole matrix's arrays for a resident
/// operand, the panel's own (rebased, `row_ptr[0] == 0`) payload for a
/// spilled one.
struct PanelElems<'a> {
    row_ptr: &'a [usize],
    cols: &'a [u32],
    vals: &'a [f64],
}

impl PanelElems<'_> {
    /// Local row `lr` of the panel: its column indices and values.
    #[inline]
    fn row(&self, lr: usize) -> (&[u32], &[f64]) {
        let (lo, hi) = (self.row_ptr[lr], self.row_ptr[lr + 1]);
        (&self.cols[lo..hi], &self.vals[lo..hi])
    }
}

/// The seed engine, retained as the oracle for the rewritten
/// [`run_with_threads`]: materializes each stationary tile as a coordinate
/// list, re-searches each B row per element, and accumulates into a hash
/// map. Its DRAM counts come from driving a real `tailors-eddo` [`Tailor`]
/// or [`Buffet`] through one traversal of the tile's `(m, k)` coordinates
/// per streamed tile ([`replay_tailor`] / [`replay_buffet`], which check
/// every element the buffer returns). `mem_budget` is ignored — the oracle
/// always uses the unpartitioned global accumulator.
///
/// Property tests assert [`run_with_threads`] is bit-identical to this on
/// arbitrary inputs and budgets; benchmarks measure the gap.
///
/// [`Tailor`]: tailors_eddo::Tailor
/// [`Buffet`]: tailors_eddo::Buffet
///
/// # Errors
///
/// As [`run_with_threads`]: a typed [`ConfigError`] for a rejected
/// configuration, [`EngineError::Buffer`] for an invalid Tailor sizing or
/// a buffer-protocol error (none occurs for well-formed input).
pub fn reference_run(
    a: &CsrMatrix,
    config: &FunctionalConfig,
) -> Result<FunctionalResult, EngineError> {
    use std::collections::HashMap;

    // The oracle ignores the thread count; validate with the always-legal 1
    // so it rejects exactly the configurations the rewritten engine rejects.
    validate(a.nrows(), a.ncols(), config, 1)?;
    let tailor = config.tailor()?;
    let b = a.transpose();
    let n = a.nrows();
    let n_a_tiles = n.div_ceil(config.rows_a.max(1));
    let n_b_tiles = n.div_ceil(config.cols_b.max(1));

    let mut acc: HashMap<(u32, u32), f64> = HashMap::new();
    let mut dram_a = 0u64;
    let mut dram_b = 0u64;
    let mut overbooked = 0usize;

    for ti in 0..n_a_tiles {
        let m0 = ti * config.rows_a;
        let m1 = ((ti + 1) * config.rows_a).min(n);
        // Materialize the tile's elements in stream (row-major) order.
        let tile: Vec<(u32, u32, f64)> = (m0..m1)
            .flat_map(|m| {
                let row = a.row(m);
                row.coords()
                    .iter()
                    .zip(row.values())
                    .map(move |(&k, &v)| (m as u32, k, v))
                    .collect::<Vec<_>>()
            })
            .collect();
        if tile.len() > config.capacity {
            overbooked += 1;
        }

        // One buffer traversal per streamed tile, over coordinates only (a
        // NaN value would fail replay's equality check).
        let coords: Vec<(u32, u32)> = tile.iter().map(|&(m, k, _)| (m, k)).collect();
        let passes = n_b_tiles as u64;
        dram_a += match tailor {
            Some(tc) => replay_tailor(&coords, tc, passes)?,
            None => replay_buffet(&coords, config.capacity, passes)?,
        }
        .parent_fetches;
        for tj in 0..n_b_tiles {
            let n0 = (tj * config.cols_b) as u32;
            let n1 = (((tj + 1) * config.cols_b).min(n)) as u32;
            // Stream the B tile from DRAM: its occupancy is the nonzeros of
            // B columns [n0, n1), i.e. rows n0..n1 of A.
            for col in n0..n1 {
                dram_b += a.row_nnz(col as usize) as u64;
            }
            for &(m, k, va) in &tile {
                let row_b = b.row(k as usize);
                let coords = row_b.coords();
                let start = coords.partition_point(|&c| c < n0);
                for (idx, &nn) in coords[start..].iter().enumerate() {
                    if nn >= n1 {
                        break;
                    }
                    let vb = row_b.values()[start + idx];
                    *acc.entry((m, nn)).or_insert(0.0) += va * vb;
                }
            }
        }
    }

    let mut coo = CooMatrix::with_capacity(n, n, acc.len());
    for ((m, nn), v) in acc {
        if v != 0.0 {
            coo.push(m as usize, nn as usize, v)
                .expect("accumulator coordinates in bounds");
        }
    }
    Ok(FunctionalResult {
        z: CsrMatrix::from_coo(&coo),
        dram_a_fetches: dram_a,
        dram_b_fetches: dram_b,
        overbooked_a_tiles: overbooked,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tailors_tensor::gen::GenSpec;
    use tailors_tensor::ops::{approx_eq, spmspm_a_at};

    /// The engine on every thread rayon advertises.
    fn run(a: &CsrMatrix, config: &FunctionalConfig) -> Result<FunctionalResult, EngineError> {
        run_with_threads(a, config, rayon::current_num_threads())
    }

    fn small() -> CsrMatrix {
        GenSpec::power_law(64, 64, 500).seed(13).generate()
    }

    #[test]
    fn output_matches_reference_with_overbooking() {
        let a = small();
        let config = FunctionalConfig {
            capacity: 40,
            fifo_region: 8,
            rows_a: 16,
            cols_b: 16,
            overbooking: true,
            mem_budget: MemBudget::Unbounded,
            grid: GridMode::Panels,
            auto_plan: false,
        };
        let result = run(&a, &config).unwrap();
        let reference = spmspm_a_at(&a);
        assert!(
            approx_eq(&result.z, &reference, 1e-9),
            "functional output must equal the reference product"
        );
        assert!(
            result.overbooked_a_tiles > 0,
            "test should exercise overbooking"
        );
    }

    #[test]
    fn output_matches_reference_without_overbooking() {
        let a = small();
        let config = FunctionalConfig {
            capacity: 4_096, // everything fits
            fifo_region: 8,
            rows_a: 16,
            cols_b: 16,
            overbooking: false,
            mem_budget: MemBudget::Unbounded,
            grid: GridMode::Panels,
            auto_plan: false,
        };
        let result = run(&a, &config).unwrap();
        assert!(approx_eq(&result.z, &spmspm_a_at(&a), 1e-9));
        assert_eq!(result.overbooked_a_tiles, 0);
        // Fitting tiles are fetched exactly once.
        assert_eq!(result.dram_a_fetches, a.nnz() as u64);
    }

    #[test]
    fn rewritten_engine_is_bit_identical_to_seed_engine() {
        let a = small();
        for overbooking in [false, true] {
            for (rows_a, cols_b) in [(16, 16), (7, 11), (64, 64), (1, 64)] {
                let config = FunctionalConfig {
                    capacity: 40,
                    fifo_region: 8,
                    rows_a,
                    cols_b,
                    overbooking,
                    mem_budget: MemBudget::Unbounded,
                    grid: GridMode::Panels,
                    auto_plan: false,
                };
                let new = run(&a, &config).unwrap();
                let old = reference_run(&a, &config).unwrap();
                assert_eq!(
                    new.z, old.z,
                    "rows_a={rows_a} cols_b={cols_b} ob={overbooking}"
                );
                assert_eq!(new.dram_a_fetches, old.dram_a_fetches);
                assert_eq!(new.dram_b_fetches, old.dram_b_fetches);
                assert_eq!(new.overbooked_a_tiles, old.overbooked_a_tiles);
            }
        }
    }

    #[test]
    fn memory_budget_is_bit_identical_to_unbudgeted() {
        let a = small();
        for overbooking in [false, true] {
            let base = FunctionalConfig {
                capacity: 40,
                fifo_region: 8,
                rows_a: 16,
                cols_b: 8,
                overbooking,
                mem_budget: MemBudget::Unbounded,
                grid: GridMode::Panels,
                auto_plan: false,
            };
            let unbudgeted = run_with_threads(&a, &base, 1).unwrap();
            // Budgets from "one tile per block" through "everything", plus
            // one smaller than a single 16 × 8 tile (clamps, still runs).
            for bytes in [1u64, 16 * 8 * 8, 16 * 24 * 8, 1 << 20] {
                let budgeted = FunctionalConfig {
                    mem_budget: MemBudget::bytes(bytes),
                    grid: GridMode::Panels,
                    auto_plan: false,
                    ..base
                };
                for threads in [1, 3] {
                    let r = run_with_threads(&a, &budgeted, threads).unwrap();
                    assert_eq!(r, unbudgeted, "bytes={bytes} threads={threads}");
                }
            }
        }
    }

    #[test]
    fn budgeted_run_shrinks_the_scratch() {
        let a = small();
        let config = FunctionalConfig {
            capacity: 40,
            fifo_region: 8,
            rows_a: 16,
            cols_b: 8,
            overbooking: true,
            mem_budget: MemBudget::bytes(16 * 16 * 8),
            grid: GridMode::Panels,
            auto_plan: false,
        };
        let plan = config.execution_plan(a.nrows(), a.ncols());
        assert_eq!(plan.block_cols(), 16, "two 8-column tiles per block");
        assert_eq!(plan.n_col_blocks(), 4);
        assert!(plan.fits_budget());
        let r = run_with_threads(&a, &config, 2).unwrap();
        assert!(approx_eq(&r.z, &spmspm_a_at(&a), 1e-9));
    }

    #[test]
    fn grid_2d_is_bit_identical_to_panels_mode() {
        let a = small();
        for overbooking in [false, true] {
            let base = FunctionalConfig {
                capacity: 40,
                fifo_region: 8,
                rows_a: 16,
                cols_b: 8,
                overbooking,
                mem_budget: MemBudget::Unbounded,
                grid: GridMode::Panels,
                auto_plan: false,
            };
            let shared = run_with_threads(&a, &base, 1).unwrap();
            for bytes in [1u64, 16 * 8 * 8, 16 * 24 * 8, 1 << 20] {
                let grid2d = FunctionalConfig {
                    mem_budget: MemBudget::bytes(bytes),
                    grid: GridMode::Grid2D,
                    auto_plan: false,
                    ..base
                };
                for threads in [1, 3] {
                    let r = run_with_threads(&a, &grid2d, threads).unwrap();
                    assert_eq!(
                        r, shared,
                        "ob={overbooking} bytes={bytes} threads={threads}"
                    );
                }
            }
        }
    }

    #[test]
    fn per_unit_traffic_reduces_exactly_to_shared_driver_counts() {
        let a = small();
        for overbooking in [false, true] {
            // One streamed tile per block: the most work items per panel
            // (and the most charges that have to sum to the panel's count).
            let config = FunctionalConfig {
                capacity: 40,
                fifo_region: 8,
                rows_a: 16,
                cols_b: 8,
                overbooking,
                mem_budget: MemBudget::bytes(16 * 8 * 8),
                grid: GridMode::Grid2D,
                auto_plan: false,
            };
            let shared = run_with_threads(
                &a,
                &FunctionalConfig {
                    grid: GridMode::Panels,
                    auto_plan: false,
                    ..config
                },
                1,
            )
            .unwrap();
            let (result, traffic) = run_grid(&a, &config, 2).unwrap();
            assert_eq!(result, shared, "ob={overbooking}");
            let plan = config.execution_plan(a.nrows(), a.ncols());
            assert_eq!(traffic.len(), plan.parallel_units(GridMode::Grid2D));
            // Per-unit charges sum exactly to the whole-panel counts.
            let adjusted: u64 = traffic.iter().map(|t| t.dram_a_fetches).sum();
            assert_eq!(adjusted, shared.dram_a_fetches);
            assert_eq!(
                traffic.iter().map(|t| t.dram_b_fetches).sum::<u64>(),
                shared.dram_b_fetches
            );
            assert_eq!(
                traffic.iter().filter(|t| t.overbooked).count(),
                shared.overbooked_a_tiles
            );
            // Per panel, the streamed-operand shares partition one pass.
            for pi in 0..plan.n_row_panels() {
                let panel_b: u64 = traffic
                    .iter()
                    .filter(|t| t.row_panel == pi)
                    .map(|t| t.dram_b_fetches)
                    .sum();
                assert_eq!(panel_b, a.nnz() as u64, "panel {pi}");
            }
        }
    }

    #[test]
    fn auto_plan_runs_the_cost_model_tiling_bit_identically() {
        let a = small();
        for overbooking in [false, true] {
            for grid in [GridMode::Panels, GridMode::Grid2D] {
                let auto_config = FunctionalConfig {
                    capacity: 40,
                    fifo_region: 8,
                    rows_a: 32,
                    cols_b: 8,
                    overbooking,
                    mem_budget: MemBudget::bytes(16 * 8 * 8),
                    grid,
                    auto_plan: true,
                };
                let chosen = auto_execution_plan(&a, &auto_config, crate::exec::CostModel::UNIFORM);
                let fixed_config = FunctionalConfig {
                    rows_a: chosen.rows_a(),
                    auto_plan: false,
                    ..auto_config
                };
                let auto = run_with_threads(&a, &auto_config, 2).unwrap();
                let fixed = run_with_threads(&a, &fixed_config, 1).unwrap();
                assert_eq!(auto, fixed, "ob={overbooking} grid={grid}");
                // Tiling invariance of the output itself: still the
                // reference product, bitwise, at the baseline tiling.
                let oracle = reference_run(
                    &a,
                    &FunctionalConfig {
                        auto_plan: false,
                        ..auto_config
                    },
                )
                .unwrap();
                assert_eq!(auto.z, oracle.z);
            }
        }
    }

    #[test]
    fn dense_blocks_dispatch_to_the_dense_kernel() {
        // A deterministic ~69 %-dense matrix: the single (panel × block)
        // unit predicts `nnz / 1024` writes per slot, well beyond the
        // dispatch threshold.
        let triplets: Vec<(usize, usize, f64)> = (0..32usize)
            .flat_map(|r| {
                (0..32usize)
                    .filter(move |c| (r * 32 + c) % 16 < 11)
                    .map(move |c| (r, c, 0.5 + ((r * 7 + c) % 9) as f64 * 0.25))
            })
            .collect();
        let a = CsrMatrix::from_triplets(32, 32, &triplets).unwrap();
        assert!(a.nnz() > 512 + 100, "test needs a clearly dense matrix");
        let config = FunctionalConfig {
            capacity: 4_096,
            fifo_region: 8,
            rows_a: 32,
            cols_b: 32,
            overbooking: false,
            mem_budget: MemBudget::Unbounded,
            grid: GridMode::Panels,
            auto_plan: false,
        };
        let (op, plan) = engine_setup(&a, &config, 1).unwrap();
        assert!(
            dense_kernel_for(&op, &plan.unit(0, 0)),
            "a 60%-dense unit must pick the dense kernel"
        );
        // And a sparse matrix must not.
        let sparse = small();
        let (sop, splan) = engine_setup(&sparse, &config, 1).unwrap();
        assert!(!dense_kernel_for(&sop, &splan.unit(0, 0)));
        // The dispatched run stays bit-identical to the seed engine.
        let new = run_with_threads(&a, &config, 2).unwrap();
        let old = reference_run(&a, &config).unwrap();
        assert_eq!(new.z, old.z);
        assert_eq!(new.dram_a_fetches, old.dram_a_fetches);
        assert_eq!(new.dram_b_fetches, old.dram_b_fetches);
        // Multi-block + 2-D grid over the dense kernel too.
        let blocked = FunctionalConfig {
            mem_budget: MemBudget::bytes(32 * 8 * 8),
            grid: GridMode::Grid2D,
            ..config
        };
        let b = run_with_threads(&a, &blocked, 3).unwrap();
        assert_eq!(b, new);
    }

    #[test]
    fn thread_count_does_not_change_the_result() {
        let a = small();
        let config = FunctionalConfig {
            capacity: 40,
            fifo_region: 8,
            rows_a: 8,
            cols_b: 16,
            overbooking: true,
            mem_budget: MemBudget::Unbounded,
            grid: GridMode::Panels,
            auto_plan: false,
        };
        let serial = run_with_threads(&a, &config, 1).unwrap();
        for threads in [2, 3, 8] {
            let parallel = run_with_threads(&a, &config, threads).unwrap();
            assert_eq!(serial, parallel, "threads={threads}");
        }
    }

    #[test]
    fn dram_a_matches_closed_form() {
        let a = small();
        let (capacity, fifo, rows_a, cols_b) = (40usize, 8usize, 16usize, 16usize);
        let config = FunctionalConfig {
            capacity,
            fifo_region: fifo,
            rows_a,
            cols_b,
            overbooking: true,
            mem_budget: MemBudget::Unbounded,
            grid: GridMode::Panels,
            auto_plan: false,
        };
        let result = run(&a, &config).unwrap();
        // Closed form: occ + (n_b - 1) × bumped per tile.
        let profile = a.profile();
        let n_b = a.nrows().div_ceil(cols_b) as u64;
        let resident = (capacity - fifo) as u64;
        let mut expected = 0u64;
        for t in 0..a.nrows().div_ceil(rows_a) {
            let lo = t * rows_a;
            let hi = ((t + 1) * rows_a).min(a.nrows());
            let occ = profile.row_range_nnz(lo, hi);
            let bumped = if occ > capacity as u64 {
                occ - resident
            } else {
                0
            };
            expected += occ + (n_b - 1) * bumped;
        }
        assert_eq!(result.dram_a_fetches, expected);
    }

    #[test]
    fn dram_b_is_one_pass_per_a_tile() {
        let a = small();
        let config = FunctionalConfig {
            capacity: 40,
            fifo_region: 8,
            rows_a: 16,
            cols_b: 16,
            overbooking: true,
            mem_budget: MemBudget::Unbounded,
            grid: GridMode::Panels,
            auto_plan: false,
        };
        let result = run(&a, &config).unwrap();
        let n_a = a.nrows().div_ceil(config.rows_a) as u64;
        assert_eq!(result.dram_b_fetches, n_a * a.nnz() as u64);
    }

    #[test]
    fn buffet_fallback_fetches_whole_tiles_per_pass() {
        let a = small();
        let overbooked = FunctionalConfig {
            capacity: 40,
            fifo_region: 8,
            rows_a: 64, // one big tile that cannot fit
            cols_b: 16,
            overbooking: true,
            mem_budget: MemBudget::Unbounded,
            grid: GridMode::Panels,
            auto_plan: false,
        };
        let buffet = FunctionalConfig {
            overbooking: false,
            ..overbooked
        };
        let t = run(&a, &overbooked).unwrap();
        let b = run(&a, &buffet).unwrap();
        assert!(approx_eq(&t.z, &b.z, 1e-9), "both must compute the same Z");
        assert!(
            b.dram_a_fetches > t.dram_a_fetches,
            "buffets refetch whole overbooked tiles (Fig. 3): {} vs {}",
            b.dram_a_fetches,
            t.dram_a_fetches
        );
        // Buffet: n_b full refetches of the tile.
        let n_b = a.nrows().div_ceil(16) as u64;
        assert_eq!(b.dram_a_fetches, n_b * a.nnz() as u64);
    }

    #[test]
    fn empty_matrix_is_fine() {
        let a = CsrMatrix::new(8, 8);
        let config = FunctionalConfig {
            capacity: 4,
            fifo_region: 1,
            rows_a: 4,
            cols_b: 4,
            overbooking: true,
            mem_budget: MemBudget::Unbounded,
            grid: GridMode::Panels,
            auto_plan: false,
        };
        let r = run(&a, &config).unwrap();
        assert_eq!(r.z.nnz(), 0);
        assert_eq!(r.dram_a_fetches, 0);
        assert_eq!(r.dram_b_fetches, 0);
        // Zero-dimensional input: zero tiles on both axes, in both grid
        // modes (Grid2D has zero units and must not choke on it).
        for grid in [GridMode::Panels, GridMode::Grid2D] {
            let z = run(&CsrMatrix::new(0, 0), &FunctionalConfig { grid, ..config }).unwrap();
            assert_eq!(z.z.nrows(), 0);
            assert_eq!(z.dram_a_fetches, 0);
        }
        // And the empty-but-nonzero-dimensional case in 2-D mode.
        let g = run(
            &a,
            &FunctionalConfig {
                grid: GridMode::Grid2D,
                auto_plan: false,
                ..config
            },
        )
        .unwrap();
        assert_eq!(g, r);
    }

    #[test]
    fn degenerate_tiling_falls_back_without_the_column_view() {
        // cols_b = 1 on a 600-column B makes the column-pointer view cost
        // 600 × 601 cells against ~1k nonzeros — the memory guard skips it
        // and panels binary-search instead. Results must be unchanged.
        let a = GenSpec::uniform(600, 600, 1_000).seed(21).generate();
        let config = FunctionalConfig {
            capacity: 300,
            fifo_region: 32,
            rows_a: 200,
            cols_b: 1,
            overbooking: true,
            mem_budget: MemBudget::Unbounded,
            grid: GridMode::Panels,
            auto_plan: false,
        };
        let new = run_with_threads(&a, &config, 2).unwrap();
        let old = reference_run(&a, &config).unwrap();
        assert_eq!(new.z, old.z);
        assert_eq!(new.dram_a_fetches, old.dram_a_fetches);
        assert_eq!(new.dram_b_fetches, old.dram_b_fetches);
    }
}
