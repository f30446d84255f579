//! Storage handles: where tensor and scratch bytes live.
//!
//! * [`PanelBuffers`] and [`PoolStats`] — the engine's reusable output
//!   buffers and the counters of its per-thread scratch.
//!   `tailors_sim::functional` keeps one [`crate::ops::BlockedSpa`] and a
//!   free list of [`PanelBuffers`] per worker thread, reshapes the SPA
//!   exactly to each block, and caps what a thread keeps idle by the
//!   run's memory budget, so steady-state serving performs no heap
//!   allocation in the kernel + assembly path.
//! * [`MmapStorage`] — read-only file-backed CSR payloads with
//!   panel-granular residency: the operand's row pointers stay resident,
//!   row-panel payloads and column-tile segments of `B = Aᵀ` are paged in
//!   on demand through a clock-LRU tile cache bounded by a byte budget.
//!   This is the spill tier that lets matrices larger than RAM stream
//!   through the planner's existing row-panel × column-block working sets.

use crate::CsrMatrix;
use std::collections::HashMap;
use std::fs::File;
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard};

// ---------------------------------------------------------------------------
// Engine scratch
// ---------------------------------------------------------------------------

/// The output-assembly buffers of one engine work item: per-row lengths
/// and the item's concatenated column/value pairs. An item drains its
/// column blocks one after another, so `row_lens` holds one entry per
/// panel row per block.
///
/// Reused as one unit because they live and die together: an item takes
/// the whole set, fills it, and the stitch gives it back once the output
/// has been spliced into the result CSR.
#[derive(Debug, Clone, Default)]
pub struct PanelBuffers {
    /// Per-row output lengths, block after block.
    pub row_lens: Vec<usize>,
    /// Concatenated output column indices for the item.
    pub cols: Vec<u32>,
    /// Concatenated output values for the item.
    pub vals: Vec<f64>,
}

impl PanelBuffers {
    /// Empties the three vectors, keeping their capacity.
    pub fn clear(&mut self) {
        self.row_lens.clear();
        self.cols.clear();
        self.vals.clear();
    }

    /// Heap capacity of the three vectors, in bytes.
    pub fn heap_bytes(&self) -> u64 {
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
