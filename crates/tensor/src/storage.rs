//! Storage handles: where tensor and scratch bytes live.
//!
//! Two places bytes can come from besides a fresh heap allocation:
//!
//! * [`SlabStorage`] — a keyed arena that recycles allocations by
//!   [`ShapeClass`] (power-of-two buckets of a plan unit's rows × width).
//!   Checkout pops a warm buffer and [`PoolItem::prepare`]s it; dropping
//!   the [`PoolHandle`] returns the buffer to its slab. Retained bytes are
//!   capped by [`SlabStorage::set_retention`], so pooled scratch counts
//!   against the same memory budget the planner already honors, in the
//!   planner's own coin ([`PoolItem::budget_bytes`]).
//! * [`MmapStorage`] — read-only file-backed CSR payloads with
//!   panel-granular residency: the operand's row pointers stay resident,
//!   row-panel payloads and column-tile segments of `B = Aᵀ` are paged in
//!   on demand through a clock-LRU tile cache bounded by a byte budget.
//!   This is the spill tier that lets matrices larger than RAM stream
//!   through the planner's existing row-panel × column-block working sets.
//!
//! The engine-facing composition is [`ScratchPool`]: one slab per scratch
//! family (SPA accumulators, work-item output buffers), kept per worker
//! thread by `tailors_sim::functional` so steady-state serving performs no
//! heap allocation in the kernel + assembly path.

use crate::ops::BlockedSpa;
use crate::CsrMatrix;
use std::collections::{BTreeMap, HashMap};
use std::fs::File;
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard};

// ---------------------------------------------------------------------------
// Shape classes
// ---------------------------------------------------------------------------

/// A power-of-two bucket of plan-unit scratch shapes.
///
/// Pool keys must collide across *similar* shapes or a pool serving mixed
/// workloads retains one buffer per exact shape and recycles nothing.
/// Bucketing rows and width up to the next power of two bounds internal
/// waste at 4× slots while collapsing the long tail of near-identical
/// plan units onto shared slabs. [`PoolItem::prepare`] sizes a buffer for
/// the *class* bounds, so every later in-shape resize is allocation-free.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ShapeClass {
    /// Bucketed row count (power of two, at least 1).
    pub rows: u32,
    /// Bucketed width (power of two, at least 1).
    pub width: u32,
}

impl ShapeClass {
    /// Buckets an actual `rows × width` scratch shape.
    pub fn of(rows: usize, width: usize) -> Self {
        fn bucket(v: usize) -> u32 {
            v.max(1)
                .next_power_of_two()
                .min(u32::MAX as usize)
                .try_into()
                .expect("bucket bounded by u32::MAX")
        }
        Self {
            rows: bucket(rows),
            width: bucket(width),
        }
    }
}

/// A buffer a [`SlabStorage`] can recycle.
pub trait PoolItem: Default + Send + 'static {
    /// Readies the buffer for a checkout of shape class `class`: clear
    /// logical contents (keeping capacity) and grow backing storage to the
    /// class bounds, so subsequent in-shape use allocates nothing.
    fn prepare(&mut self, class: ShapeClass);
    /// Bytes the buffer charges against the slab's retention cap while
    /// idle, in the coin the memory budget sizes the buffer by.
    fn budget_bytes(&self) -> u64;
}

impl PoolItem for BlockedSpa {
    fn prepare(&mut self, class: ShapeClass) {
        // Pre-grow to the class bounds; the engine's own `reset_shape`
        // calls (always ≤ the class by construction) then never allocate.
        self.reset_shape(class.rows as usize, class.width as usize);
    }

    /// The dense slots at 8 bytes each: the planner sizes a block's
    /// scratch in exactly this coin, so a SPA that fills the budget also
    /// fits the retention cap. The occupancy mask (1/64 of the dense
    /// bytes) and the per-row touched lists are not counted.
    fn budget_bytes(&self) -> u64 {
        (self.capacity_slots() * core::mem::size_of::<f64>()) as u64
    }
}

/// The output-assembly buffers of one engine work item: per-row lengths
/// and the item's concatenated column/value pairs. An item drains its
/// column blocks one after another, so `row_lens` holds one entry per
/// panel row per block.
///
/// Pooled as one unit because they live and die together: an item checks
/// the whole set out, fills it, and the stitch releases it back to the
/// slab when the output has been spliced into the result CSR.
#[derive(Debug, Clone, Default)]
pub struct PanelBuffers {
    /// Per-row output lengths, block after block.
    pub row_lens: Vec<usize>,
    /// Concatenated output column indices for the item.
    pub cols: Vec<u32>,
    /// Concatenated output values for the item.
    pub vals: Vec<f64>,
}

impl PoolItem for PanelBuffers {
    fn prepare(&mut self, class: ShapeClass) {
        self.row_lens.clear();
        self.cols.clear();
        self.vals.clear();
        self.row_lens.reserve(class.rows as usize);
    }

    /// Heap capacity of the three vectors.
    fn budget_bytes(&self) -> u64 {
        (self.row_lens.capacity() * core::mem::size_of::<usize>()
            + self.cols.capacity() * 4
            + self.vals.capacity() * 8) as u64
    }
}

// ---------------------------------------------------------------------------
// Slab storage
// ---------------------------------------------------------------------------

/// Counters describing a slab (or merged [`ScratchPool`]) history.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Buffers handed out.
    pub checkouts: u64,
    /// Checkouts served from slab inventory (no allocation).
    pub hits: u64,
    /// Checkouts that fell back to a fresh allocation.
    pub misses: u64,
    /// Handles returned to the slab.
    pub returns: u64,
    /// Idle buffers freed to respect the retention cap.
    pub evictions: u64,
    /// Bytes currently held by idle slab inventory, counted in
    /// [`PoolItem::budget_bytes`].
    pub resident_bytes: u64,
}

impl PoolStats {
    /// Combines two counter snapshots field-by-field — e.g. the two slab
    /// families of a [`ScratchPool`], or one pool per worker thread
    /// rolled up into a service-wide view.
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

#[derive(Debug)]
struct SlabState<T> {
    /// Idle inventory by shape class. Invariant: no empty buckets.
    /// `BTreeMap` so eviction order is deterministic.
    by_class: BTreeMap<ShapeClass, Vec<T>>,
    resident_bytes: u64,
    retain: Option<u64>,
    stats: PoolStats,
}

impl<T> Default for SlabState<T> {
    fn default() -> Self {
        Self {
            by_class: BTreeMap::new(),
            resident_bytes: 0,
            retain: None,
            stats: PoolStats::default(),
        }
    }
}

fn lock_state<T>(state: &Mutex<SlabState<T>>) -> MutexGuard<'_, SlabState<T>> {
    // A panicking holder leaves the inventory structurally intact (every
    // mutation is a single push/pop), so poisoning is not a correctness
    // signal here — recover the guard.
    state.lock().unwrap_or_else(|e| e.into_inner())
}

/// A keyed arena recycling buffers by [`ShapeClass`].
///
/// Cloning shares the underlying slab (handles may outlive the clone they
/// were checked out from). Thread-safe; the engine keeps one per worker
/// thread so the lock is uncontended on the hot path.
#[derive(Debug, Clone, Default)]
pub struct SlabStorage<T: PoolItem> {
    state: Arc<Mutex<SlabState<T>>>,
}

impl<T: PoolItem> SlabStorage<T> {
    /// Creates an empty slab with unbounded retention.
    pub fn new() -> Self {
        Self::default()
    }

    /// Checks a buffer of class `class` out of the slab (recycling idle
    /// inventory when available), prepared per [`PoolItem::prepare`].
    pub fn checkout(&self, class: ShapeClass) -> PoolHandle<T> {
        let mut item = {
            let mut st = lock_state(&self.state);
            st.stats.checkouts += 1;
            match st.by_class.get_mut(&class).and_then(Vec::pop) {
                Some(item) => {
                    if st.by_class.get(&class).is_some_and(Vec::is_empty) {
                        st.by_class.remove(&class);
                    }
                    st.stats.hits += 1;
                    st.resident_bytes -= item.budget_bytes();
                    st.stats.resident_bytes = st.resident_bytes;
                    item
                }
                None => {
                    st.stats.misses += 1;
                    T::default()
                }
            }
        };
        item.prepare(class);
        PoolHandle {
            item: Some(item),
            class,
            home: Arc::clone(&self.state),
        }
    }

    /// Caps the bytes idle inventory may hold; `None` is unbounded.
    /// Enforced at return time, evicting largest-class buffers first but
    /// the class just returned last (see [`PoolHandle`]'s drop).
    pub fn set_retention(&self, cap: Option<u64>) {
        let mut st = lock_state(&self.state);
        st.retain = cap;
        evict_over_cap(&mut st, None);
    }

    /// Slab counters since construction.
    pub fn stats(&self) -> PoolStats {
        lock_state(&self.state).stats
    }

    /// Frees all idle inventory (outstanding handles are unaffected and
    /// still return to the slab on drop).
    pub fn clear(&self) {
        let mut st = lock_state(&self.state);
        st.by_class.clear();
        st.resident_bytes = 0;
        st.stats.resident_bytes = 0;
    }
}

/// Evicts idle buffers until the retention cap holds: largest class
/// first, except that `keep` (the class just returned) goes last.
/// Otherwise an idle small buffer, such as a ragged last block's SPA,
/// would make every larger buffer returned after it evict itself, and
/// every later checkout of that larger class would miss.
fn evict_over_cap<T: PoolItem>(st: &mut SlabState<T>, keep: Option<ShapeClass>) {
    if let Some(cap) = st.retain {
        while st.resident_bytes > cap {
            let others_first = st.by_class.keys().rev().find(|&&c| Some(c) != keep);
            let Some(&class) = others_first.or_else(|| st.by_class.keys().next()) else {
                break;
            };
            let bucket = st.by_class.get_mut(&class).expect("class is present");
            let victim = bucket.pop().expect("no empty buckets");
            if bucket.is_empty() {
                st.by_class.remove(&class);
            }
            st.resident_bytes -= victim.budget_bytes();
            st.stats.evictions += 1;
        }
    }
    st.stats.resident_bytes = st.resident_bytes;
}

/// An owned, prepared buffer checked out of a [`SlabStorage`]. Dropping
/// it returns the buffer to its slab.
#[derive(Debug)]
pub struct PoolHandle<T: PoolItem> {
    /// `Some` until drop; taken exactly once by `Drop`.
    item: Option<T>,
    class: ShapeClass,
    home: Arc<Mutex<SlabState<T>>>,
}

impl<T: PoolItem> PoolHandle<T> {
    /// The shape class this handle was checked out with.
    pub fn class(&self) -> ShapeClass {
        self.class
    }
}

impl<T: PoolItem> core::ops::Deref for PoolHandle<T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.item.as_ref().expect("pool handle accessed after drop")
    }
}

impl<T: PoolItem> core::ops::DerefMut for PoolHandle<T> {
    fn deref_mut(&mut self) -> &mut T {
        self.item.as_mut().expect("pool handle accessed after drop")
    }
}

impl<T: PoolItem> Drop for PoolHandle<T> {
    fn drop(&mut self) {
        if let Some(item) = self.item.take() {
            let mut st = lock_state(&self.home);
            st.stats.returns += 1;
            st.resident_bytes += item.budget_bytes();
            st.by_class.entry(self.class).or_default().push(item);
            evict_over_cap(&mut st, Some(self.class));
        }
    }
}

// ---------------------------------------------------------------------------
// The engine-facing scratch pool
// ---------------------------------------------------------------------------

/// One slab per scratch family the engine checks out: the per-unit
/// [`BlockedSpa`] accumulator and the per-work-item [`PanelBuffers`] output
/// set. `tailors_sim::functional` keeps one per worker thread; a serve
/// runtime worker therefore reuses the same warm buffers request after
/// request, which is what makes the steady-state hot path allocation-free.
#[derive(Debug, Clone, Default)]
pub struct ScratchPool {
    spa: SlabStorage<BlockedSpa>,
    bufs: SlabStorage<PanelBuffers>,
}

impl ScratchPool {
    /// Creates an empty pool with unbounded retention.
    pub fn new() -> Self {
        Self::default()
    }

    /// Checks out a SPA accumulator for a `class`-shaped plan unit.
    pub fn checkout_spa(&self, class: ShapeClass) -> PoolHandle<BlockedSpa> {
        self.spa.checkout(class)
    }

    /// Checks out a work item's output-assembly buffer set.
    pub fn checkout_buffers(&self, class: ShapeClass) -> PoolHandle<PanelBuffers> {
        self.bufs.checkout(class)
    }

    /// Caps idle bytes retained *per family* (`None` is unbounded). The
    /// engine passes its `MemBudget` limit through here, so pooled scratch
    /// answers to the same budget the planner sized the working sets for.
    pub fn set_retention(&self, cap: Option<u64>) {
        self.spa.set_retention(cap);
        self.bufs.set_retention(cap);
    }

    /// Merged counters across both families.
    pub fn stats(&self) -> PoolStats {
        self.spa.stats().merge(self.bufs.stats())
    }

    /// Frees all idle inventory in both families.
    pub fn clear(&self) {
        self.spa.clear();
        self.bufs.clear();
    }
}

// ---------------------------------------------------------------------------
// Spill tier: file-backed CSR payloads with panel-granular residency
// ---------------------------------------------------------------------------

/// Magic prefix of the spill file format.
const SPILL_MAGIC: &[u8; 8] = b"TSPILL01";
/// Header words after the magic: nrows, ncols, nnz, tile_cols, n_tiles.
const SPILL_HEADER_WORDS: usize = 5;

/// Counters describing spill-tier I/O since [`MmapStorage::open`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpillStats {
    /// Column-tile segments read from disk.
    pub tile_loads: u64,
    /// Tile checkouts served from the residency cache.
    pub tile_hits: u64,
    /// Tiles dropped from the cache to respect the residency budget.
    pub evictions: u64,
    /// Payload bytes read from disk (tiles + panels).
    pub bytes_read: u64,
    /// Row-panel payloads of `A` read from disk.
    pub panel_loads: u64,
    /// Bytes of tile payload currently cache-resident.
    pub resident_bytes: u64,
}

/// One column tile of the stationary operand `B = Aᵀ`, paged in from the
/// spill file: a rebased CSR over all `B` rows restricted to the tile's
/// columns. Column indices are **global** (exactly what the traversal
/// compares against), so a resident tile is a drop-in for the in-RAM
/// `TileColPtr` view.
#[derive(Debug, Clone, PartialEq)]
pub struct SpillTile {
    /// Rebased row pointers, length `b_rows + 1`, `row_ptr[0] == 0`.
    pub row_ptr: Vec<usize>,
    /// Global column indices of the tile's nonzeros.
    pub cols: Vec<u32>,
    /// Values of the tile's nonzeros.
    pub vals: Vec<f64>,
}

impl SpillTile {
    fn payload_bytes(&self) -> u64 {
        (self.row_ptr.len() * core::mem::size_of::<usize>()
            + self.cols.len() * 4
            + self.vals.len() * 8) as u64
    }
}

/// One row panel of the streamed operand `A`, paged in from the spill
/// file: rebased row pointers plus the panel's column/value payload.
#[derive(Debug, Clone, PartialEq)]
pub struct PanelPayload {
    /// Rebased row pointers, length `panel_rows + 1`, `row_ptr[0] == 0`.
    pub row_ptr: Vec<usize>,
    /// Column indices of the panel's nonzeros.
    pub cols: Vec<u32>,
    /// Values of the panel's nonzeros.
    pub vals: Vec<f64>,
}

#[derive(Debug)]
struct SpillState {
    file: File,
    /// Tile cache: tile index → (payload, last-use stamp).
    tiles: HashMap<usize, (Arc<SpillTile>, u64)>,
    clock: u64,
    resident: u64,
    stats: SpillStats,
}

/// Read-only file-backed storage for one `Z = A·Aᵀ` operand pair, with
/// panel-granular residency.
///
/// Layout (all integers little-endian):
///
/// ```text
/// magic "TSPILL01"
/// header u64×5: nrows ncols nnz tile_cols n_tiles
/// a_row_ptr    u64×(nrows+1)            — resident after open
/// tile_offsets u64×(n_tiles+1)          — absolute byte offsets, resident
/// a_cols       u32×nnz                  — paged per row panel
/// a_vals       f64×nnz                  — paged per row panel
/// per tile t:  row_ptr u64×(ncols+1), cols u32×tnnz, vals f64×tnnz
/// ```
///
/// `B = Aᵀ` is stored **tile-major** (one self-contained CSR segment per
/// column tile) precisely because the engine's traversal touches B rows
/// scattered across the whole matrix but always *within one column tile
/// at a time* — so the working set per (panel, tile) step is one `A`
/// panel plus one `B` tile, and a byte-budgeted tile cache bounds
/// residency regardless of matrix size. No `mmap(2)` involved despite the
/// name the roadmap gave the tier: plain seek + read keeps the crate free
/// of `unsafe` and OS-specific paging.
#[derive(Debug)]
pub struct MmapStorage {
    path: PathBuf,
    nrows: usize,
    ncols: usize,
    nnz: usize,
    tile_cols: usize,
    n_tiles: usize,
    /// Resident `A` row pointers (absolute, length `nrows + 1`).
    a_row_ptr: Vec<u64>,
    /// Absolute byte offsets of tile segments (length `n_tiles + 1`).
    tile_offsets: Vec<u64>,
    /// Byte offset where `a_cols` begins.
    a_cols_off: u64,
    /// Byte offset where `a_vals` begins.
    a_vals_off: u64,
    /// Tile-cache residency budget; `None` is unbounded.
    residency: Option<u64>,
    state: Mutex<SpillState>,
}

fn bad(msg: &'static str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

fn read_u64s(file: &mut File, n: usize) -> io::Result<Vec<u64>> {
    let mut buf = vec![0u8; n * 8];
    file.read_exact(&mut buf)?;
    Ok(buf
        .chunks_exact(8)
        .map(|c| u64::from_le_bytes(c.try_into().expect("chunk is 8 bytes")))
        .collect())
}

fn parse_u64s(bytes: &[u8]) -> Vec<u64> {
    bytes
        .chunks_exact(8)
        .map(|c| u64::from_le_bytes(c.try_into().expect("chunk is 8 bytes")))
        .collect()
}

fn parse_u32s(bytes: &[u8]) -> Vec<u32> {
    bytes
        .chunks_exact(4)
        .map(|c| u32::from_le_bytes(c.try_into().expect("chunk is 4 bytes")))
        .collect()
}

fn parse_f64s(bytes: &[u8]) -> Vec<f64> {
    bytes
        .chunks_exact(8)
        .map(|c| f64::from_le_bytes(c.try_into().expect("chunk is 8 bytes")))
        .collect()
}

/// The byte offset where `a_cols` begins and the total file length a
/// spill header declares, or `None` if either overflows `u64` (the header
/// is untrusted). Every tile segment carries its own `ncols + 1` row
/// pointers.
fn spill_sizes(nrows: u64, ncols: u64, nnz: u64, n_tiles: u64) -> Option<(u64, u64)> {
    let words = |n: u64| n.checked_add(1)?.checked_mul(8);
    let fixed = (8 + SPILL_HEADER_WORDS as u64 * 8)
        .checked_add(words(nrows)?)?
        .checked_add(words(n_tiles)?)?;
    // `A` and `B` each hold `nnz` (u32 column, f64 value) pairs.
    let payload = nnz.checked_mul(12)?;
    let tile_ptrs = n_tiles.checked_mul(words(ncols)?)?;
    let total = fixed
        .checked_add(payload)?
        .checked_add(payload)?
        .checked_add(tile_ptrs)?;
    Some((fixed, total))
}

fn monotonic(ptr: &[u64]) -> bool {
    ptr.windows(2).all(|w| w[0] <= w[1])
}

impl MmapStorage {
    /// Writes matrix `a` (and its transpose, tile-major at `tile_cols`
    /// columns per tile) to `path` in the spill format. Writes to a
    /// sibling temp file and renames into place, so a crash never leaves
    /// a half-written spill file at `path`.
    pub fn store(a: &CsrMatrix, tile_cols: usize, path: &Path) -> io::Result<()> {
        assert!(tile_cols > 0, "tile width must be positive");
        let b = a.transpose();
        let tcp = b.tile_col_ptr(tile_cols);
        let n_tiles = tcp.n_tiles();
        let b_rows = b.nrows();

        // Per-tile nnz, then absolute segment offsets.
        let mut tile_nnz = vec![0u64; n_tiles];
        for (t, nnz) in tile_nnz.iter_mut().enumerate() {
            for row in 0..b_rows {
                let (s, e) = tcp.row_tile_range(row, t);
                *nnz += (e - s) as u64;
            }
        }
        let header_bytes = 8 + (SPILL_HEADER_WORDS * 8) as u64;
        let a_row_ptr_bytes = ((a.nrows() + 1) * 8) as u64;
        let tile_offsets_bytes = ((n_tiles + 1) * 8) as u64;
        let a_cols_off = header_bytes + a_row_ptr_bytes + tile_offsets_bytes;
        let a_vals_off = a_cols_off + (a.nnz() * 4) as u64;
        let tiles_off = a_vals_off + (a.nnz() * 8) as u64;
        let mut tile_offsets = Vec::with_capacity(n_tiles + 1);
        let mut off = tiles_off;
        tile_offsets.push(off);
        for &nnz in &tile_nnz {
            off += ((b_rows + 1) * 8) as u64 + nnz * 12;
            tile_offsets.push(off);
        }

        let tmp = path.with_extension("tmp");
        let mut w = io::BufWriter::new(File::create(&tmp)?);
        w.write_all(SPILL_MAGIC)?;
        for v in [
            a.nrows() as u64,
            a.ncols() as u64,
            a.nnz() as u64,
            tile_cols as u64,
            n_tiles as u64,
        ] {
            w.write_all(&v.to_le_bytes())?;
        }
        for &p in a.row_ptr() {
            w.write_all(&(p as u64).to_le_bytes())?;
        }
        for &o in &tile_offsets {
            w.write_all(&o.to_le_bytes())?;
        }
        for &c in a.col_indices() {
            w.write_all(&c.to_le_bytes())?;
        }
        for &v in a.values() {
            w.write_all(&v.to_le_bytes())?;
        }
        for t in 0..n_tiles {
            let mut acc = 0u64;
            w.write_all(&acc.to_le_bytes())?;
            for row in 0..b_rows {
                let (s, e) = tcp.row_tile_range(row, t);
                acc += (e - s) as u64;
                w.write_all(&acc.to_le_bytes())?;
            }
            for row in 0..b_rows {
                let (s, e) = tcp.row_tile_range(row, t);
                for &c in &b.col_indices()[s..e] {
                    w.write_all(&c.to_le_bytes())?;
                }
            }
            for row in 0..b_rows {
                let (s, e) = tcp.row_tile_range(row, t);
                for &v in &b.values()[s..e] {
                    w.write_all(&v.to_le_bytes())?;
                }
            }
        }
        w.flush()?;
        drop(w);
        std::fs::rename(&tmp, path)
    }

    /// Opens a spill file, validating magic, header consistency, and the
    /// total file size *before* allocating anything payload-sized.
    /// `residency` caps the bytes of `B` tiles kept cache-resident
    /// (`None` is unbounded).
    pub fn open(path: &Path, residency: Option<u64>) -> io::Result<MmapStorage> {
        let mut file = File::open(path)?;
        let file_len = file.metadata()?.len();
        let mut magic = [0u8; 8];
        file.read_exact(&mut magic)?;
        if &magic != SPILL_MAGIC {
            return Err(bad("bad spill magic"));
        }
        let header = read_u64s(&mut file, SPILL_HEADER_WORDS)?;
        let (nrows, ncols, nnz, tile_cols, n_tiles) = (
            header[0] as usize,
            header[1] as usize,
            header[2] as usize,
            header[3] as usize,
            header[4] as usize,
        );
        // Tiles partition the columns of `B = Aᵀ`, i.e. the rows of `A`.
        if tile_cols == 0 || n_tiles != nrows.div_ceil(tile_cols) {
            return Err(bad("inconsistent spill tiling header"));
        }
        // Size cross-check before any payload-sized allocation.
        let fixed = match spill_sizes(header[0], header[1], header[2], header[4]) {
            Some((fixed, expected)) if expected == file_len => fixed,
            _ => return Err(bad("spill file size does not match header")),
        };
        let a_row_ptr = read_u64s(&mut file, nrows + 1)?;
        let tile_offsets = read_u64s(&mut file, n_tiles + 1)?;
        if a_row_ptr.first() != Some(&0)
            || a_row_ptr.last() != Some(&(nnz as u64))
            || !monotonic(&a_row_ptr)
        {
            return Err(bad("corrupt spill row pointers"));
        }
        let a_cols_off = fixed;
        let a_vals_off = a_cols_off + (nnz as u64) * 4;
        let tiles_off = a_vals_off + (nnz as u64) * 8;
        if tile_offsets.first() != Some(&tiles_off)
            || tile_offsets.last() != Some(&file_len)
            || !monotonic(&tile_offsets)
        {
            return Err(bad("corrupt spill tile offsets"));
        }
        Ok(MmapStorage {
            path: path.to_path_buf(),
            nrows,
            ncols,
            nnz,
            tile_cols,
            n_tiles,
            a_row_ptr,
            tile_offsets,
            a_cols_off,
            a_vals_off,
            residency,
            state: Mutex::new(SpillState {
                file,
                tiles: HashMap::new(),
                clock: 0,
                resident: 0,
                stats: SpillStats::default(),
            }),
        })
    }

    /// Rows of the streamed operand `A`.
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Columns of `A` (also the row count of `B = Aᵀ`).
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Nonzeros of `A` (and of `B`).
    pub fn nnz(&self) -> usize {
        self.nnz
    }

    /// Columns per `B` tile the file was written with. Runs against this
    /// store must use the same `cols_b`, or the per-tile segments would
    /// not match the plan's column blocks.
    pub fn tile_cols(&self) -> usize {
        self.tile_cols
    }

    /// Number of `B` column tiles in the file.
    pub fn n_tiles(&self) -> usize {
        self.n_tiles
    }

    /// Path the store was opened from.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Nonzeros of `A` in rows `[m0, m1)` — from the resident row
    /// pointers, no I/O.
    pub fn row_range_nnz(&self, m0: usize, m1: usize) -> usize {
        (self.a_row_ptr[m1] - self.a_row_ptr[m0]) as usize
    }

    /// Nonzeros of a single `A` row, from the resident row pointers.
    pub fn row_nnz(&self, row: usize) -> usize {
        self.row_range_nnz(row, row + 1)
    }

    /// I/O counters since open.
    pub fn stats(&self) -> SpillStats {
        lock_spill(&self.state).stats
    }

    /// Reads the `A` payload for rows `[m0, m1)`: rebased row pointers
    /// plus the panel's column/value slices.
    pub fn load_panel(&self, m0: usize, m1: usize) -> io::Result<PanelPayload> {
        assert!(m0 <= m1 && m1 <= self.nrows, "panel range out of bounds");
        let (s, e) = (self.a_row_ptr[m0], self.a_row_ptr[m1]);
        let row_ptr: Vec<usize> = self.a_row_ptr[m0..=m1]
            .iter()
            .map(|&p| (p - s) as usize)
            .collect();
        let n = (e - s) as usize;
        let mut cols_bytes = vec![0u8; n * 4];
        let mut vals_bytes = vec![0u8; n * 8];
        {
            let mut st = lock_spill(&self.state);
            st.file.seek(SeekFrom::Start(self.a_cols_off + s * 4))?;
            st.file.read_exact(&mut cols_bytes)?;
            st.file.seek(SeekFrom::Start(self.a_vals_off + s * 8))?;
            st.file.read_exact(&mut vals_bytes)?;
            st.stats.panel_loads += 1;
            st.stats.bytes_read += (n * 12) as u64;
        }
        let cols = parse_u32s(&cols_bytes);
        if cols.iter().any(|&c| c as usize >= self.ncols) {
            return Err(bad("spill column index out of range"));
        }
        Ok(PanelPayload {
            row_ptr,
            cols,
            vals: parse_f64s(&vals_bytes),
        })
    }

    /// Checks out `B` column tile `tile`, reading it from disk unless it
    /// is cache-resident. The returned `Arc` keeps the tile alive even if
    /// the cache evicts it while the caller still traverses it.
    pub fn checkout_tile(&self, tile: usize) -> io::Result<Arc<SpillTile>> {
        assert!(tile < self.n_tiles, "tile index out of range");
        let mut st = lock_spill(&self.state);
        st.clock += 1;
        let stamp = st.clock;
        if let Some((arc, last)) = st.tiles.get_mut(&tile) {
            *last = stamp;
            let arc = Arc::clone(arc);
            st.stats.tile_hits += 1;
            return Ok(arc);
        }
        let (seg_s, seg_e) = (self.tile_offsets[tile], self.tile_offsets[tile + 1]);
        let seg_len = (seg_e - seg_s) as usize;
        let rp_bytes = (self.ncols + 1) * 8;
        if seg_len < rp_bytes || !(seg_len - rp_bytes).is_multiple_of(12) {
            return Err(bad("corrupt spill tile segment"));
        }
        let tnnz = (seg_len - rp_bytes) / 12;
        let mut seg = vec![0u8; seg_len];
        st.file.seek(SeekFrom::Start(seg_s))?;
        st.file.read_exact(&mut seg)?;
        let row_ptr_u64 = parse_u64s(&seg[..rp_bytes]);
        if row_ptr_u64.first() != Some(&0)
            || row_ptr_u64.last() != Some(&(tnnz as u64))
            || !monotonic(&row_ptr_u64)
        {
            return Err(bad("corrupt spill tile row pointers"));
        }
        // Tile `tile` holds the `B` columns in `[c0, c1)`.
        let c0 = tile * self.tile_cols;
        let c1 = (c0 + self.tile_cols).min(self.nrows);
        let cols = parse_u32s(&seg[rp_bytes..rp_bytes + tnnz * 4]);
        if cols.iter().any(|&c| !(c0..c1).contains(&(c as usize))) {
            return Err(bad("spill tile column index out of range"));
        }
        let arc = Arc::new(SpillTile {
            row_ptr: row_ptr_u64.into_iter().map(|p| p as usize).collect(),
            cols,
            vals: parse_f64s(&seg[rp_bytes + tnnz * 4..]),
        });
        let bytes = arc.payload_bytes();
        st.stats.tile_loads += 1;
        st.stats.bytes_read += seg_len as u64;
        st.resident += bytes;
        st.tiles.insert(tile, (Arc::clone(&arc), stamp));
        if let Some(cap) = self.residency {
            // Clock-LRU: evict the least-recently-stamped tile, never the
            // one just inserted (the caller is about to traverse it).
            while st.resident > cap && st.tiles.len() > 1 {
                let victim = st
                    .tiles
                    .iter()
                    .filter(|(&t, _)| t != tile)
                    .min_by_key(|(_, (_, last))| *last)
                    .map(|(&t, _)| t);
                match victim {
                    Some(t) => {
                        if let Some((gone, _)) = st.tiles.remove(&t) {
                            st.resident -= gone.payload_bytes();
                            st.stats.evictions += 1;
                        }
                    }
                    None => break,
                }
            }
        }
        st.stats.resident_bytes = st.resident;
        Ok(arc)
    }

    /// Warms the cache for `tile` (checkout, result discarded). The
    /// engine calls this for the *next* tile in plan order while the
    /// current one is being traversed.
    pub fn prefetch(&self, tile: usize) -> io::Result<()> {
        self.checkout_tile(tile).map(|_| ())
    }
}

fn lock_spill(state: &Mutex<SpillState>) -> MutexGuard<'_, SpillState> {
    state.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::GenSpec;

    #[test]
    fn shape_class_buckets_to_powers_of_two() {
        assert_eq!(ShapeClass::of(0, 0), ShapeClass { rows: 1, width: 1 });
        assert_eq!(ShapeClass::of(1, 64), ShapeClass { rows: 1, width: 64 });
        assert_eq!(
            ShapeClass::of(33, 100),
            ShapeClass {
                rows: 64,
                width: 128
            }
        );
        // Same bucket → same slab key.
        assert_eq!(ShapeClass::of(33, 100), ShapeClass::of(64, 65));
    }

    #[test]
    fn slab_recycles_by_class() {
        let slab: SlabStorage<BlockedSpa> = SlabStorage::new();
        let class = ShapeClass::of(16, 200);
        {
            let mut spa = slab.checkout(class);
            spa.accumulate(3, 17, 1.0);
            let (mut c, mut v) = (Vec::new(), Vec::new());
            spa.drain_row(3, 0, &mut c, &mut v);
        }
        let stats = slab.stats();
        assert_eq!((stats.checkouts, stats.misses, stats.returns), (1, 1, 1));
        assert!(stats.resident_bytes > 0);
        {
            let spa = slab.checkout(class);
            // Recycled: already grown to the class bounds.
            assert!(spa.capacity_slots() >= 16 * 200);
        }
        let stats = slab.stats();
        assert_eq!((stats.checkouts, stats.hits), (2, 1));
    }

    #[test]
    fn returned_spa_is_prepared_clear_on_next_checkout() {
        let slab: SlabStorage<BlockedSpa> = SlabStorage::new();
        let class = ShapeClass::of(4, 64);
        {
            let mut spa = slab.checkout(class);
            spa.accumulate(0, 1, 2.0);
            let (mut c, mut v) = (Vec::new(), Vec::new());
            spa.drain_row(0, 0, &mut c, &mut v);
            assert_eq!((c, v), (vec![1], vec![2.0]));
        }
        let mut spa = slab.checkout(class);
        assert!(spa.is_clear());
        spa.accumulate(0, 1, 5.0);
        let (mut c, mut v) = (Vec::new(), Vec::new());
        spa.drain_row(0, 0, &mut c, &mut v);
        assert_eq!((c, v), (vec![1], vec![5.0]));
    }

    #[test]
    fn retention_cap_evicts_idle_inventory() {
        let slab: SlabStorage<BlockedSpa> = SlabStorage::new();
        slab.set_retention(Some(0));
        {
            let _spa = slab.checkout(ShapeClass::of(8, 512));
        }
        let stats = slab.stats();
        assert_eq!(stats.returns, 1);
        assert_eq!(stats.evictions, 1);
        assert_eq!(stats.resident_bytes, 0);
        // Next checkout misses again: nothing was retained.
        let _spa = slab.checkout(ShapeClass::of(8, 512));
        assert_eq!(slab.stats().misses, 2);
    }

    #[test]
    fn retention_counts_dense_slots_and_keeps_the_class_just_returned() {
        let slab: SlabStorage<BlockedSpa> = SlabStorage::new();
        let (wide, narrow) = (ShapeClass::of(8, 128), ShapeClass::of(8, 64));
        // A cap of exactly one wide SPA's dense slots holds that SPA.
        slab.set_retention(Some(8 * 128 * 8));
        drop(slab.checkout(wide));
        let stats = slab.stats();
        assert_eq!((stats.evictions, stats.resident_bytes), (0, 8 * 128 * 8));
        // A narrow return overflows the cap: the wide SPA goes, not the
        // one just returned.
        drop(slab.checkout(narrow));
        let stats = slab.stats();
        assert_eq!((stats.evictions, stats.resident_bytes), (1, 8 * 64 * 8));
        drop(slab.checkout(narrow));
        assert_eq!(slab.stats().hits, 1);
    }

    #[test]
    fn panel_buffers_recycle_capacity() {
        let slab: SlabStorage<PanelBuffers> = SlabStorage::new();
        let class = ShapeClass::of(8, 64);
        let caps = {
            let mut bufs = slab.checkout(class);
            bufs.row_lens.extend_from_slice(&[3; 16]);
            bufs.cols.extend(0..48);
            bufs.vals.extend((0..48).map(f64::from));
            (
                bufs.row_lens.capacity(),
                bufs.cols.capacity(),
                bufs.vals.capacity(),
            )
        };
        let bufs = slab.checkout(class);
        assert_eq!(slab.stats().hits, 1);
        assert!(bufs.row_lens.is_empty() && bufs.cols.is_empty() && bufs.vals.is_empty());
        assert!(bufs.row_lens.capacity() >= caps.0);
        assert!(bufs.cols.capacity() >= caps.1);
        assert!(bufs.vals.capacity() >= caps.2);
    }

    /// A spill file of a generated matrix at a path no other test (in
    /// this process or another) writes: tests run concurrently, and two
    /// sharing a fixture shape must not store over or delete each other's
    /// file.
    fn spill_fixture(n: usize, nnz: usize, tile_cols: usize) -> (CsrMatrix, PathBuf) {
        static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let a = GenSpec::power_law(n, n, nnz).seed(11).generate();
        let path = std::env::temp_dir().join(format!(
            "tailors_storage_test_{}_{}.tspill",
            std::process::id(),
            NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
        ));
        MmapStorage::store(&a, tile_cols, &path).expect("store spill file");
        (a, path)
    }

    #[test]
    fn spill_roundtrips_panels_and_tiles() {
        let (a, path) = spill_fixture(64, 600, 16);
        let store = MmapStorage::open(&path, None).expect("open spill file");
        assert_eq!(store.nrows(), 64);
        assert_eq!(store.tile_cols(), 16);
        assert_eq!(store.n_tiles(), 4);
        assert_eq!(store.nnz(), a.nnz());

        // Panels reproduce A exactly.
        let p = store.load_panel(10, 30).expect("load panel");
        let (s, e) = (a.row_ptr()[10], a.row_ptr()[30]);
        assert_eq!(p.cols, a.col_indices()[s..e]);
        assert_eq!(p.vals, a.values()[s..e]);
        assert_eq!(p.row_ptr[0], 0);
        assert_eq!(*p.row_ptr.last().unwrap(), e - s);

        // Tiles reproduce B = Aᵀ restricted to each column tile.
        let b = a.transpose();
        let tcp = b.tile_col_ptr(16);
        for t in 0..store.n_tiles() {
            let tile = store.checkout_tile(t).expect("checkout tile");
            assert_eq!(tile.row_ptr.len(), b.nrows() + 1);
            for row in 0..b.nrows() {
                let (bs, be) = tcp.row_tile_range(row, t);
                let (ts, te) = (tile.row_ptr[row], tile.row_ptr[row + 1]);
                assert_eq!(&tile.cols[ts..te], &b.col_indices()[bs..be]);
                assert_eq!(&tile.vals[ts..te], &b.values()[bs..be]);
            }
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn spill_roundtrips_non_square_matrices() {
        // B = Aᵀ tiles span the rows of A, not its columns.
        let a = GenSpec::uniform(16, 40, 90).seed(2).generate();
        let path = std::env::temp_dir().join(format!(
            "tailors_storage_test_nonsquare_{}.tspill",
            std::process::id()
        ));
        MmapStorage::store(&a, 8, &path).expect("store spill file");
        let store = MmapStorage::open(&path, None).expect("open spill file");
        assert_eq!((store.nrows(), store.ncols(), store.n_tiles()), (16, 40, 2));
        let tile = store.checkout_tile(1).expect("checkout tile");
        assert_eq!(tile.row_ptr.len(), a.ncols() + 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn spill_residency_evicts_lru_tiles() {
        let (_a, path) = spill_fixture(64, 600, 16);
        // Budget of one tile (generously: half the file) forces eviction.
        let one_tile = MmapStorage::open(&path, None)
            .expect("open")
            .checkout_tile(0)
            .expect("tile")
            .payload_bytes();
        let store = MmapStorage::open(&path, Some(one_tile)).expect("open budgeted");
        store.checkout_tile(0).expect("tile 0");
        store.checkout_tile(1).expect("tile 1"); // evicts 0
        let stats = store.stats();
        assert_eq!(stats.tile_loads, 2);
        assert!(stats.evictions >= 1);
        // Tile 1 is still resident → hit.
        store.checkout_tile(1).expect("tile 1 again");
        assert_eq!(store.stats().tile_hits, 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn spill_open_rejects_corruption() {
        let (_a, path) = spill_fixture(32, 200, 8);
        let bytes = std::fs::read(&path).expect("read spill file");

        let bad_magic = std::env::temp_dir().join(format!(
            "tailors_storage_test_badmagic_{}.tspill",
            std::process::id()
        ));
        let mut m = bytes.clone();
        m[0] ^= 0xff;
        std::fs::write(&bad_magic, &m).unwrap();
        assert!(MmapStorage::open(&bad_magic, None).is_err());

        let truncated = std::env::temp_dir().join(format!(
            "tailors_storage_test_trunc_{}.tspill",
            std::process::id()
        ));
        std::fs::write(&truncated, &bytes[..bytes.len() - 4]).unwrap();
        assert!(MmapStorage::open(&truncated, None).is_err());

        for p in [&path, &bad_magic, &truncated] {
            std::fs::remove_file(p).ok();
        }
    }

    #[test]
    fn spill_open_rejects_overflowing_header() {
        // One row, one tile, no nonzeros, and `ncols` chosen so a tile's
        // row pointers, `(ncols + 1) × 8` bytes, overflow `u64` — and
        // wrap to 0, which would make the 80-byte file look consistent.
        let ncols = u64::MAX / 8;
        let mut bytes = SPILL_MAGIC.to_vec();
        for v in [1, ncols, 0, 1, 1, 0, 0, 80, 80] {
            bytes.extend_from_slice(&u64::to_le_bytes(v));
        }
        assert_eq!(bytes.len(), 80);
        let path = std::env::temp_dir().join(format!(
            "tailors_storage_test_overflow_{}.tspill",
            std::process::id()
        ));
        std::fs::write(&path, &bytes).unwrap();
        let err = MmapStorage::open(&path, None).expect_err("overflowing header");
        std::fs::remove_file(&path).ok();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }
}
