//! The functional engine: executes the tiled `Z = A·Aᵀ` dataflow and
//! counts its DRAM traffic.
//!
//! This is the ground truth the analytical model is validated against:
//!
//! * the computed output matrix must equal the hash-accumulator kernel
//!   [`tailors_tensor::ops::spmspm_a_at`] bit for bit;
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
//! fanned out over scoped threads with [`run_with_threads`]. Within a
//! panel the engine walks CSR row slices directly (the stationary tile is
//! never materialized as a coordinate list), once per column block in
//! Gustavson order: each panel element keeps a cursor into its B row,
//! reads the row up to the block's end, and resumes there for the next
//! block, so B is sliced without a per-tile lookup. A work item that
//! starts at column 0 starts each cursor at its row's start; any other
//! item finds it with one binary search per element. Products accumulate
//! into a bitmask-blocked dense scratch ([`BlockedSpa`]): one dense write
//! plus one occupancy-word OR per effectual multiply, with extraction
//! walking only set words/bits (ascending by construction — no per-row
//! sort, no full zero-scan). Every output `(m, n)` lies in one block and
//! sums its `k` terms in ascending `k`, the order of a per-tile walk, so
//! the results are those of the modeled per-tile traversal bit for bit.
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
//! Each worker thread keeps its scratch between work items, runs and
//! served requests: one SPA, reshaped to exactly each block's extent,
//! and a free list of item output buffers. What a thread keeps idle is
//! capped per family by the run's budget, so steady-state runs on warm
//! threads allocate no scratch ([`scratch_pool_stats`] counts it).
//!
//! # Work items, grid parallelism and traffic accounting
//!
//! Every entry point runs one executor over *work items*: a row panel
//! paired with a contiguous range of its column blocks. An item runs its
//! blocks in column order and drains each block straight into flat
//! output buffers; one stitch then interleaves each panel's block
//! segments row by row. [`GridMode`] only picks the item granularity: a
//! whole panel per item under [`GridMode::Panels`], one (panel × block)
//! [`PlanUnit`] per item under [`GridMode::Grid2D`] — `panels ×
//! blocks`-way parallelism, with the traffic reported per item
//! ([`UnitTraffic`]).
//!
//! * Stationary-operand traffic is charged in closed form. In the
//!   modeled dataflow a panel of `occ` nonzeros is traversed once per
//!   streamed tile; the first
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
use std::cell::RefCell;
use std::thread::ThreadId;
use tailors_eddo::replay::{replay_buffet, replay_tailor};
use tailors_eddo::{EddoError, TailorConfig};
use tailors_tensor::ops::BlockedSpa;
use tailors_tensor::{CooMatrix, CsrMatrix};

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
        }
    }
}

impl std::error::Error for ConfigError {}

/// Everything a functional run can fail with: a rejected configuration
/// or an invalid Tailor sizing.
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

impl core::fmt::Display for EngineError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            EngineError::Config(e) => write!(f, "invalid configuration: {e}"),
            EngineError::Buffer(e) => write!(f, "buffer protocol error: {e}"),
        }
    }
}

impl std::error::Error for EngineError {}

/// Shared request validation for every engine entry point, over the
/// operand's `nrows × ncols` shape (and for
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
/// model and its `rows_a` as the baseline candidate. Exposed so callers
/// (smokes, tests, the serving layer) can see the tiling an auto run will
/// execute — a fixed run at `plan.rows_a()` is bit-identical to the auto
/// run in every reported field.
pub fn auto_execution_plan(a: &CsrMatrix, config: &FunctionalConfig) -> ExecutionPlan {
    crate::exec::AutoPlanner::new(&a.profile(), config.cols_b, config.mem_budget)
        .with_buffer(config.buffer_params())
        .with_baseline(config.rows_a)
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
    Ok(run_items(&op, config, &plan, config.grid, threads).0)
}

/// Validated common setup for the engine entry points: the operand and
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
        auto_execution_plan(a, config)
    } else {
        config.execution_plan(n, n)
    };
    Ok((Resident { a, b }, plan))
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
fn run_items(
    op: &Resident<'_>,
    config: &FunctionalConfig,
    plan: &ExecutionPlan,
    grid: GridMode,
    threads: usize,
) -> (FunctionalResult, Vec<UnitTraffic>) {
    let items = work_items(plan, grid);

    // Item cost ≈ panel occupancy × its share of the streamed operand
    // (the accumulate work) plus the traversal cost of the panel itself.
    let costs: Vec<u128> = items
        .iter()
        .map(|item| {
            let rows = plan.panel_rows(item.panel);
            let occ = op.a.row_range_nnz(rows.start, rows.end) as u128;
            let cols = item_cols(plan, item);
            let block = op.a.row_range_nnz(cols.start, cols.end) as u128;
            occ * block + occ + block + 1
        })
        .collect();
    let outputs = run_balanced(items.len(), &costs, threads, |i| {
        run_item(op, config, plan, &items[i])
    });

    // Stitch: items come in (panel, first block) order, and each drained
    // its blocks one after another, one length per panel row per block.
    // Per panel, every output row concatenates its block segments in
    // column order; segment cursors advance monotonically because every
    // block drained its rows in order.
    let n = op.a.nrows();
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
    // Buffers go back to the thread that filled them if that is this one;
    // a scoped worker's scratch ended with the worker.
    let here = std::thread::current().id();
    SCRATCH.with_borrow_mut(|s| {
        for o in outputs.into_iter().filter(|o| o.home == here) {
            s.put_bufs(o.out);
        }
    });
    let result = FunctionalResult {
        z,
        dram_a_fetches: traffic.iter().map(|t| t.dram_a_fetches).sum(),
        dram_b_fetches: traffic.iter().map(|t| t.dram_b_fetches).sum(),
        overbooked_a_tiles: traffic.iter().filter(|t| t.overbooked).count(),
    };
    (result, traffic)
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
    Ok(run_items(&op, config, &plan, GridMode::Grid2D, threads))
}

/// Output of one work item: its blocks' rows drained one block after
/// another into assembly buffers taken from the scratch of thread
/// `home`, plus the item's traffic.
struct ItemOutput {
    out: PanelBuffers,
    home: ThreadId,
    traffic: UnitTraffic,
}

/// Executes one column block of a stationary panel: shapes `spa` to the
/// unit, walks the panel once in Gustavson order, and drains every row
/// onto the end of `out`, one `row_lens` entry per panel row.
///
/// `cursors` holds one [`Cursor`] per panel element into that element's B
/// row, at the block's first column; each element reads its row up to the
/// block's end (accumulating block-local columns, re-based at the block's
/// first column) and leaves its cursor there for the next block.
fn run_block(
    spa: &mut BlockedSpa,
    cursors: &mut [Cursor],
    op: &Resident<'_>,
    unit: &PlanUnit,
    out: &mut PanelBuffers,
) {
    let (c0, c1) = (unit.cols.start, unit.cols.end);
    spa.reset_shape(unit.rows.len(), unit.cols.len());
    let (a_ptr, a_cols, a_vals) = (op.a.row_ptr(), op.a.col_indices(), op.a.values());
    let (b_ptr, b_cols, b_vals) = (op.b.row_ptr(), op.b.col_indices(), op.b.values());
    let base = a_ptr[unit.rows.start];
    for (lr, m) in unit.rows.clone().enumerate() {
        let (lo, hi) = (a_ptr[m], a_ptr[m + 1]);
        let elems = a_cols[lo..hi].iter().zip(&a_vals[lo..hi]);
        for ((&k, &va), cursor) in elems.zip(&mut cursors[lo - base..hi - base]) {
            if cursor.1 as usize >= c1 {
                continue;
            }
            let (start, end) = (cursor.0, b_ptr[k as usize + 1]);
            let row = b_cols[start..end].iter().zip(&b_vals[start..end]);
            *cursor = (end, u32::MAX);
            for (pos, (&nn, &vb)) in (start..).zip(row) {
                if nn as usize >= c1 {
                    *cursor = (pos, nn);
                    break;
                }
                spa.accumulate(lr, nn as usize - c0, va * vb);
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
}

/// Executes one work item: runs the item's column blocks in order on the
/// worker's [`BlockedSpa`]. Returns the drained blocks and the item's
/// [`UnitTraffic`].
fn run_item(
    op: &Resident<'_>,
    config: &FunctionalConfig,
    plan: &ExecutionPlan,
    item: &WorkItem,
) -> ItemOutput {
    let rows = plan.panel_rows(item.panel);
    // This item's share of the streamed operand: the nonzeros of B columns
    // [c0, c1) are the nonzeros of A rows [c0, c1).
    let cols = item_cols(plan, item);
    let dram_b = op.a.row_range_nnz(cols.start, cols.end) as u64;
    // The stationary panel's traffic in closed form (see the module docs):
    // every traversal refetches the steady-state volume r, and the panel's
    // first block also pays the rest of the cold fill, occ − r.
    let occ = op.a.row_range_nnz(rows.start, rows.end) as u64;
    let r = config.buffer_params().steady_refetch(occ);
    let traversals: u64 = item
        .blocks
        .clone()
        .map(|bi| plan.block_extent(bi).1.len() as u64)
        .sum();
    let first = item.blocks.start == 0;
    let dram_a = traversals * r + if first { occ - r } else { 0 };
    // The SPA and assembly buffers come from the worker's scratch, so
    // steady-state runs on warm threads allocate nothing here. Each block
    // reshapes the SPA to exactly its own extent, and extraction restores
    // the all-zero invariant as it goes.
    let ((mut spa, mut cursors), mut out) = SCRATCH.with_borrow_mut(|s| {
        s.set_cap(config.mem_budget.limit_bytes());
        (s.take_spa(), s.take_bufs())
    });
    // One cursor per panel element into its B row, at the item's first
    // column: the row's start when that is column 0 (every Panels item,
    // and each panel's first Grid2D item), else one search.
    let (b_ptr, b_cols) = (op.b.row_ptr(), op.b.col_indices());
    let elems = op.a.row_ptr()[rows.start]..op.a.row_ptr()[rows.end];
    cursors.clear();
    cursors.extend(op.a.col_indices()[elems].iter().map(|&k| {
        let (lo, hi) = (b_ptr[k as usize], b_ptr[k as usize + 1]);
        let pos = if cols.start == 0 {
            lo
        } else {
            lo + b_cols[lo..hi].partition_point(|&c| (c as usize) < cols.start)
        };
        (pos, b_cols[pos..hi].first().copied().unwrap_or(u32::MAX))
    }));
    out.row_lens.reserve(rows.len() * item.blocks.len());
    for bi in item.blocks.clone() {
        run_block(
            &mut spa,
            &mut cursors,
            op,
            &plan.unit(item.panel, bi),
            &mut out,
        );
    }
    SCRATCH.with_borrow_mut(|s| s.put_spa((spa, cursors)));
    ItemOutput {
        out,
        home: std::thread::current().id(),
        traffic: UnitTraffic {
            row_panel: item.panel,
            col_block: item.blocks.start,
            dram_a_fetches: dram_a,
            dram_b_fetches: dram_b,
            overbooked: occ > config.capacity as u64 && first,
        },
    }
}

/// The output-assembly buffers of one engine work item: per-row lengths
/// and the item's concatenated column/value pairs. An item drains its
/// column blocks one after another, so `row_lens` holds one entry per
/// panel row per block.
///
/// Reused as one unit because they live and die together: an item takes
/// the whole set, fills it, and the stitch gives it back once the output
/// has been spliced into the result CSR.
#[derive(Debug, Clone, Default)]
struct PanelBuffers {
    /// Per-row output lengths, block after block.
    row_lens: Vec<usize>,
    /// Concatenated output column indices for the item.
    cols: Vec<u32>,
    /// Concatenated output values for the item.
    vals: Vec<f64>,
}

impl PanelBuffers {
    /// Empties the three vectors, keeping their capacity.
    fn clear(&mut self) {
        self.row_lens.clear();
        self.cols.clear();
        self.vals.clear();
    }

    /// Heap capacity of the three vectors, in bytes.
    fn heap_bytes(&self) -> u64 {
        (self.row_lens.capacity() * core::mem::size_of::<usize>()
            + self.cols.capacity() * 4
            + self.vals.capacity() * 8) as u64
    }
}

/// Counters of a thread's engine scratch (or several threads' merged).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Buffers handed out.
    pub checkouts: u64,
    /// Checkouts served from idle inventory (no allocation).
    pub hits: u64,
    /// Checkouts that fell back to a fresh allocation.
    pub misses: u64,
    /// Buffers given back after use.
    pub returns: u64,
    /// Idle buffers freed to respect the retention cap.
    pub evictions: u64,
    /// Bytes currently held by idle inventory: a SPA's dense slots at 8
    /// bytes each, buffers by heap capacity.
    pub resident_bytes: u64,
}

impl PoolStats {
    /// Combines two counter snapshots field-by-field — e.g. one per
    /// worker thread rolled up into a service-wide view.
    pub fn merge(self, other: PoolStats) -> PoolStats {
        PoolStats {
            checkouts: self.checkouts + other.checkouts,
            hits: self.hits + other.hits,
            misses: self.misses + other.misses,
            returns: self.returns + other.returns,
            evictions: self.evictions + other.evictions,
            resident_bytes: self.resident_bytes + other.resident_bytes,
        }
    }
}

/// The engine scratch one thread keeps between work items: one SPA with
/// its B-row cursors (one per panel element), and a free list of item
/// output buffers. [`run_block`] reshapes the SPA to each block's exact
/// extent; it only grows, so it holds the largest block this thread has
/// run since it was last dropped. The cursors are kept and dropped with
/// the SPA.
///
/// What the thread keeps idle is capped per family by the current run's
/// [`MemBudget`] limit, in the coin the planner sizes scratch by: a SPA's
/// dense slots at 8 bytes each (its occupancy mask, touched lists and
/// cursors are not counted), the buffers by heap capacity. Anything over
/// the cap is dropped and counted as an eviction.
#[derive(Debug, Default)]
struct Scratch {
    spa: Option<(BlockedSpa, Vec<Cursor>)>,
    bufs: Vec<PanelBuffers>,
    /// Heap bytes of `bufs`.
    buf_bytes: u64,
    cap: Option<u64>,
    stats: PoolStats,
}

/// A SPA's retention charge: its dense slots at 8 bytes each.
fn spa_bytes(spa: &BlockedSpa) -> u64 {
    (spa.capacity_slots() * core::mem::size_of::<f64>()) as u64
}

impl Scratch {
    fn fits(&self, bytes: u64) -> bool {
        self.cap.is_none_or(|cap| bytes <= cap)
    }

    /// Sets the retention cap and evicts idle inventory over it.
    fn set_cap(&mut self, cap: Option<u64>) {
        self.cap = cap;
        if self
            .spa
            .as_ref()
            .is_some_and(|(spa, _)| !self.fits(spa_bytes(spa)))
        {
            self.spa = None;
            self.stats.evictions += 1;
        }
        while !self.fits(self.buf_bytes) {
            let bufs = self.bufs.pop().expect("over the cap means some bytes");
            self.buf_bytes -= bufs.heap_bytes();
            self.stats.evictions += 1;
        }
    }

    fn count_checkout(&mut self, hit: bool) {
        self.stats.checkouts += 1;
        self.stats.hits += u64::from(hit);
        self.stats.misses += u64::from(!hit);
    }

    fn take_spa(&mut self) -> (BlockedSpa, Vec<Cursor>) {
        let spa = self.spa.take();
        self.count_checkout(spa.is_some());
        spa.unwrap_or_default()
    }

    /// Keeps `spa` (drained, so all-zero) and its cursors if the SPA fits
    /// the cap.
    fn put_spa(&mut self, spa: (BlockedSpa, Vec<Cursor>)) {
        self.stats.returns += 1;
        if self.fits(spa_bytes(&spa.0)) {
            self.spa = Some(spa);
        } else {
            self.stats.evictions += 1;
        }
    }

    fn take_bufs(&mut self) -> PanelBuffers {
        let bufs = self.bufs.pop();
        self.count_checkout(bufs.is_some());
        let bufs = bufs.unwrap_or_default();
        self.buf_bytes -= bufs.heap_bytes();
        bufs
    }

    /// Keeps `bufs`, emptied, if they fit the cap beside those kept.
    fn put_bufs(&mut self, mut bufs: PanelBuffers) {
        self.stats.returns += 1;
        let bytes = bufs.heap_bytes();
        if self.fits(self.buf_bytes + bytes) {
            bufs.clear();
            self.buf_bytes += bytes;
            self.bufs.push(bufs);
        } else {
            self.stats.evictions += 1;
        }
    }

    fn stats(&self) -> PoolStats {
        PoolStats {
            resident_bytes: self.spa.as_ref().map_or(0, |(spa, _)| spa_bytes(spa)) + self.buf_bytes,
            ..self.stats
        }
    }

    fn clear(&mut self) {
        self.spa = None;
        self.bufs.clear();
        self.buf_bytes = 0;
    }
}

thread_local! {
    /// Per-thread scratch for [`run_item`], reused across items, runs and
    /// served requests on the same thread.
    static SCRATCH: RefCell<Scratch> = RefCell::default();
}

/// Counters of the **calling thread's** engine scratch (each worker
/// thread keeps its own; a serve runtime worker reports its own numbers).
/// `misses` staying flat across warmed runs is what "the kernel path
/// allocates nothing" looks like from the inside; the allocator-level
/// regression test in `tailors-serve` pins it from the outside.
pub fn scratch_pool_stats() -> PoolStats {
    SCRATCH.with_borrow(Scratch::stats)
}

/// Frees the calling thread's idle engine scratch. Useful for tests that
/// want a cold start.
pub fn clear_scratch_pool() {
    SCRATCH.with_borrow_mut(Scratch::clear);
}

/// A panel element's place in its B row: the next unread position and the
/// column stored there (`u32::MAX` once the row is spent), so a block the
/// row has nothing in is skipped without touching B.
type Cursor = (usize, u32);

/// The in-RAM operand: `A` and its transpose `B`.
struct Resident<'a> {
    a: &'a CsrMatrix,
    b: CsrMatrix,
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
    use tailors_tensor::ops::spmspm_a_at;

    /// The engine on the default thread count (`rayon::current_num_threads`).
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
        assert_eq!(
            result.z, reference,
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
        assert_eq!(result.z, spmspm_a_at(&a));
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
        assert_eq!(r.z, spmspm_a_at(&a));
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
    fn auto_plan_runs_the_planned_tiling_bit_identically() {
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
                let chosen = auto_execution_plan(&a, &auto_config);
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
    fn dense_matrix_is_bit_identical_to_reference() {
        // A deterministic ~69 %-dense matrix, far denser than any suite
        // workload: its single (panel × block) unit fills every slot.
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
        let new = run_with_threads(&a, &config, 2).unwrap();
        let old = reference_run(&a, &config).unwrap();
        assert_eq!(new.z, old.z);
        assert_eq!(new.dram_a_fetches, old.dram_a_fetches);
        assert_eq!(new.dram_b_fetches, old.dram_b_fetches);
        // Multi-block + 2-D grid over the same dense matrix.
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
        assert_eq!(t.z, b.z, "both must compute the same Z");
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
    fn many_tile_single_block_run_matches_reference() {
        // cols_b = 1 on a 600-column B: 600 one-column tiles in one
        // block. Results must be unchanged.
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

    #[test]
    fn panel_buffers_recycle_capacity() {
        let mut bufs = PanelBuffers::default();
        bufs.row_lens.extend_from_slice(&[3; 16]);
        bufs.cols.extend(0..48);
        bufs.vals.extend((0..48).map(f64::from));
        let bytes = bufs.heap_bytes();
        assert!(bytes >= 16 * 8 + 48 * 4 + 48 * 8);
        bufs.clear();
        assert!(bufs.row_lens.is_empty() && bufs.cols.is_empty() && bufs.vals.is_empty());
        assert_eq!(bufs.heap_bytes(), bytes, "clearing keeps the capacity");
    }

    #[test]
    fn scratch_recycles_spa_and_buffers() {
        let mut scratch = Scratch::default();
        let (mut spa, mut cursors) = scratch.take_spa();
        spa.reset_shape(16, 200);
        cursors.extend((0..40).map(|pos| (pos, 0)));
        spa.accumulate(3, 17, 1.0);
        let mut out = scratch.take_bufs();
        spa.drain_row(3, 0, &mut out.cols, &mut out.vals);
        scratch.put_spa((spa, cursors));
        scratch.put_bufs(out);
        let stats = scratch.stats();
        assert_eq!((stats.checkouts, stats.misses, stats.returns), (2, 2, 2));
        assert!(stats.resident_bytes >= 16 * 200 * 8);
        // Recycled: the SPA keeps its exact extent and its cursors, the
        // buffers come back empty with their capacity.
        let (spa, cursors) = scratch.take_spa();
        assert_eq!(spa.capacity_slots(), 16 * 200);
        assert!(cursors.capacity() >= 40);
        let out = scratch.take_bufs();
        assert!(out.cols.is_empty() && out.cols.capacity() > 0);
        let stats = scratch.stats();
        assert_eq!(
            (stats.checkouts, stats.hits, stats.resident_bytes),
            (4, 2, 0)
        );
    }

    #[test]
    fn returned_spa_is_clear_on_next_checkout() {
        let mut scratch = Scratch::default();
        let (mut spa, cursors) = scratch.take_spa();
        spa.reset_shape(4, 64);
        spa.accumulate(0, 1, 2.0);
        let (mut c, mut v) = (Vec::new(), Vec::new());
        spa.drain_row(0, 0, &mut c, &mut v);
        assert_eq!((c, v), (vec![1], vec![2.0]));
        scratch.put_spa((spa, cursors));
        let (mut spa, _) = scratch.take_spa();
        assert!(spa.is_clear());
        // A narrower reshape reuses the allocation.
        spa.reset_shape(2, 64);
        spa.accumulate(1, 1, 5.0);
        let (mut c, mut v) = (Vec::new(), Vec::new());
        spa.drain_row(1, 0, &mut c, &mut v);
        assert_eq!((c, v), (vec![1], vec![5.0]));
        assert_eq!(spa.capacity_slots(), 4 * 64);
    }

    #[test]
    fn retention_cap_evicts_idle_inventory() {
        let mut scratch = Scratch::default();
        scratch.set_cap(Some(0));
        let (mut spa, cursors) = scratch.take_spa();
        spa.reset_shape(8, 512);
        scratch.put_spa((spa, cursors));
        let mut out = scratch.take_bufs();
        out.cols.push(1);
        scratch.put_bufs(out);
        let stats = scratch.stats();
        assert_eq!((stats.returns, stats.evictions), (2, 2));
        assert_eq!(stats.resident_bytes, 0);
        // Next checkouts miss again: nothing was retained.
        scratch.take_spa();
        scratch.take_bufs();
        assert_eq!(scratch.stats().misses, 4);
    }

    #[test]
    fn retention_counts_dense_slots() {
        let mut scratch = Scratch::default();
        let (mut spa, cursors) = scratch.take_spa();
        spa.reset_shape(8, 128);
        // A cap of exactly the SPA's dense slots holds it: the occupancy
        // mask and touched lists are not charged.
        scratch.set_cap(Some(8 * 128 * 8));
        scratch.put_spa((spa, cursors));
        let stats = scratch.stats();
        assert_eq!((stats.evictions, stats.resident_bytes), (0, 8 * 128 * 8));
        // A tighter cap evicts the idle SPA at once.
        scratch.set_cap(Some(8 * 128 * 8 - 1));
        let stats = scratch.stats();
        assert_eq!((stats.evictions, stats.resident_bytes), (1, 0));
        // Buffers are kept while their heap bytes fit beside those kept.
        scratch.set_cap(Some(64 * 8));
        for _ in 0..3 {
            scratch.put_bufs(PanelBuffers {
                vals: Vec::with_capacity(32),
                ..PanelBuffers::default()
            });
        }
        let stats = scratch.stats();
        assert_eq!((stats.evictions, stats.resident_bytes), (2, 64 * 8));
    }
}
