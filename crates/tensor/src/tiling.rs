//! Coordinate-space tiling (CST) of sparse matrices.
//!
//! The paper constructs uniform-*shape* tiles in coordinate space (§2.2).
//! Following its tile-construction rule (§5.2) — expand along the shared
//! dimension `K` to its end first, then along the panel dimension — the
//! tiles used by the accelerator model are **row panels**: `rows_per_tile`
//! consecutive rows spanning all columns. [`RowPanels`] enumerates them with
//! O(1) occupancy lookups. [`grid_tile_occupancies`] additionally supports
//! general 2-D tiles for Fig. 1-style occupancy studies.

use std::collections::HashMap;

use crate::{CsrMatrix, MatrixProfile};

/// A single coordinate-space tile (a row panel) and its occupancy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tile {
    /// First row of the panel (inclusive).
    pub row_start: usize,
    /// One past the last row of the panel.
    pub row_end: usize,
    /// Coordinate-space size of the tile: `(row_end - row_start) × ncols`,
    /// counting zeros and nonzeros (the paper's "size").
    pub size: u64,
    /// Number of nonzeros in the tile (the paper's "occupancy").
    pub occupancy: u64,
}

impl Tile {
    /// Buffer utilization if this tile is placed in a buffer of `capacity`
    /// nonzero slots: `min(occupancy, capacity) / capacity`.
    pub fn utilization(&self, capacity: u64) -> f64 {
        if capacity == 0 {
            return 0.0;
        }
        self.occupancy.min(capacity) as f64 / capacity as f64
    }

    /// Whether the tile overbooks a buffer of `capacity` nonzero slots.
    pub fn overbooks(&self, capacity: u64) -> bool {
        self.occupancy > capacity
    }
}

/// Uniform-shape row-panel tiling of a matrix profile.
///
/// # Example
///
/// ```
/// use tailors_tensor::{MatrixProfile, tiling::RowPanels};
///
/// let p = MatrixProfile::new(4, 8, vec![1, 5, 0, 2], vec![1; 8]);
/// let panels = RowPanels::new(&p, 2);
/// assert_eq!(panels.n_tiles(), 2);
/// assert_eq!(panels.occupancy(0), 6);
/// assert_eq!(panels.occupancy(1), 2);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct RowPanels<'a> {
    profile: &'a MatrixProfile,
    rows_per_tile: usize,
}

impl<'a> RowPanels<'a> {
    /// Creates a row-panel tiling with `rows_per_tile` rows per tile. The
    /// final tile may be ragged (fewer rows).
    ///
    /// # Panics
    ///
    /// Panics if `rows_per_tile == 0`.
    pub fn new(profile: &'a MatrixProfile, rows_per_tile: usize) -> Self {
        assert!(rows_per_tile > 0, "rows_per_tile must be positive");
        RowPanels {
            profile,
            rows_per_tile,
        }
    }

    /// The tiled profile.
    pub fn profile(&self) -> &'a MatrixProfile {
        self.profile
    }

    /// Rows per tile.
    pub fn rows_per_tile(&self) -> usize {
        self.rows_per_tile
    }

    /// Number of tiles (`ceil(nrows / rows_per_tile)`).
    pub fn n_tiles(&self) -> usize {
        self.profile.nrows().div_ceil(self.rows_per_tile)
    }

    /// Coordinate-space size of a full (non-ragged) tile.
    pub fn tile_size(&self) -> u64 {
        self.rows_per_tile as u64 * self.profile.ncols() as u64
    }

    /// Row range of tile `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.n_tiles()`.
    pub fn rows(&self, i: usize) -> (usize, usize) {
        assert!(i < self.n_tiles(), "tile index out of bounds");
        let lo = i * self.rows_per_tile;
        let hi = (lo + self.rows_per_tile).min(self.profile.nrows());
        (lo, hi)
    }

    /// Occupancy (nonzero count) of tile `i`. O(1).
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.n_tiles()`.
    pub fn occupancy(&self, i: usize) -> u64 {
        let (lo, hi) = self.rows(i);
        self.profile.row_range_nnz(lo, hi)
    }

    /// The full [`Tile`] description of tile `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.n_tiles()`.
    pub fn tile(&self, i: usize) -> Tile {
        let (lo, hi) = self.rows(i);
        Tile {
            row_start: lo,
            row_end: hi,
            size: (hi - lo) as u64 * self.profile.ncols() as u64,
            occupancy: self.profile.row_range_nnz(lo, hi),
        }
    }

    /// Iterates over all tiles.
    pub fn iter(&self) -> impl Iterator<Item = Tile> + '_ {
        (0..self.n_tiles()).map(move |i| self.tile(i))
    }

    /// Iterates over tile occupancies only — a tight prefix-sum walk
    /// ([`MatrixProfile::panel_occupancies`]), with no per-tile index
    /// arithmetic, so near-per-row tilings over million-row tensors stay
    /// cheap in the analytical model's hot loops.
    pub fn occupancies(&self) -> impl Iterator<Item = u64> + '_ {
        self.profile.panel_occupancies(self.rows_per_tile)
    }

    /// Maximum tile occupancy. Returns 0 for an empty tiling.
    pub fn max_occupancy(&self) -> u64 {
        self.occupancies().max().unwrap_or(0)
    }

    /// Whether every tile's occupancy fits a buffer of `capacity` nonzero
    /// slots. Short-circuits at the first overflowing tile, unlike
    /// `max_occupancy() <= capacity` which always walks the whole tiling —
    /// the difference dominates prescient candidate search, where most
    /// candidates fail early.
    ///
    /// No tile holds more than `rows_per_tile × max_row_nnz` nonzeros (the
    /// profile caches the largest row), so a tiling under that bound fits
    /// without a walk: prescient search's small-height probes are O(1).
    /// At one row per tile the bound is exact. Above it, the panel holding
    /// the heaviest row is checked before the walk: on a heavy-tailed
    /// tensor it is the likeliest to overflow, wherever it sits.
    pub fn fits_within(&self, capacity: u64) -> bool {
        let bound = (self.rows_per_tile as u64).saturating_mul(self.profile.max_row_nnz() as u64);
        if bound <= capacity {
            return true;
        }
        self.rows_per_tile > 1
            && self.occupancy(self.profile.heaviest_row() / self.rows_per_tile) <= capacity
            && self.occupancies().all(|occ| occ <= capacity)
    }

    /// Fraction of tiles whose occupancy exceeds `capacity` — the paper's
    /// *overbooking rate* for this tiling against a buffer of that capacity.
    pub fn overbooking_rate(&self, capacity: u64) -> f64 {
        let n = self.n_tiles();
        if n == 0 {
            return 0.0;
        }
        let over = self.occupancies().filter(|&o| o > capacity).count();
        over as f64 / n as f64
    }

    /// Average buffer utilization across tiles for a buffer of `capacity`
    /// nonzero slots (overbooked tiles count as 100 % full).
    pub fn mean_utilization(&self, capacity: u64) -> f64 {
        self.capacity_summary(capacity).mean_utilization
    }

    /// [`RowPanels::mean_utilization`], [`RowPanels::overbooking_rate`],
    /// and [`RowPanels::max_occupancy`] in one fused pass over the
    /// occupancies. Table 1's strategy report reads these statistics off
    /// its chosen tiling; one walk instead of three matters at the
    /// near-per-row heights small buffers force. Planning a tile height
    /// needs none of them and does not call this.
    pub fn capacity_summary(&self, capacity: u64) -> CapacitySummary {
        let n = self.n_tiles();
        if n == 0 {
            return CapacitySummary::default();
        }
        let mut clamped_sum = 0u64;
        let mut overbooked = 0usize;
        let mut max = 0u64;
        if self.rows_per_tile == 1 {
            // Single-row panels are the per-row counts themselves; walk
            // the flat `u32` slice instead of the prefix-difference chain.
            for &occ in self.profile.row_nnz() {
                let occ = occ as u64;
                clamped_sum += occ.min(capacity);
                overbooked += usize::from(occ > capacity);
                max = max.max(occ);
            }
        } else {
            for occ in self.occupancies() {
                clamped_sum += occ.min(capacity);
                overbooked += usize::from(occ > capacity);
                max = max.max(occ);
            }
        }
        CapacitySummary {
            mean_utilization: if capacity == 0 {
                0.0
            } else {
                clamped_sum as f64 / capacity as f64 / n as f64
            },
            overbooking_rate: overbooked as f64 / n as f64,
            max_occupancy: max,
        }
    }
}

/// Fused per-tiling capacity statistics (see
/// [`RowPanels::capacity_summary`]).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CapacitySummary {
    /// Mean buffer utilization across tiles (overbooked tiles count as
    /// 100 % full); 0.0 for a zero-capacity buffer.
    pub mean_utilization: f64,
    /// Fraction of tiles whose occupancy exceeds the capacity.
    pub overbooking_rate: f64,
    /// Largest tile occupancy.
    pub max_occupancy: u64,
}

/// Computes the occupancy of every 2-D coordinate-space tile of
/// `tile_rows × tile_cols`, including empty tiles.
///
/// This is the general CST tiling used in Fig. 1, where tiles do not span
/// the full shared dimension. Requires nonzero positions, so it takes the
/// concrete [`CsrMatrix`]. The result has
/// `ceil(nrows/tile_rows) × ceil(ncols/tile_cols)` entries in row-major
/// block order.
///
/// # Panics
///
/// Panics if either tile dimension is zero.
pub fn grid_tile_occupancies(m: &CsrMatrix, tile_rows: usize, tile_cols: usize) -> Vec<u64> {
    assert!(tile_rows > 0 && tile_cols > 0, "tile dims must be positive");
    let br = m.nrows().div_ceil(tile_rows);
    let bc = m.ncols().div_ceil(tile_cols);
    let n_blocks = br.checked_mul(bc).expect("block-grid size overflows usize");
    // Sparse accumulation: most blocks of a very sparse tensor are empty.
    let mut counts: HashMap<usize, u64> = HashMap::new();
    for (r, c, _) in m.iter() {
        let block = (r / tile_rows) * bc + c / tile_cols;
        *counts.entry(block).or_insert(0) += 1;
    }
    let mut out = vec![0u64; n_blocks];
    for (block, n) in counts {
        out[block] = n;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CsrMatrix;

    fn profile() -> MatrixProfile {
        MatrixProfile::new(5, 4, vec![3, 0, 2, 4, 1], vec![3, 3, 2, 2])
    }

    #[test]
    fn panel_count_and_ragged_tail() {
        let p = profile();
        let panels = RowPanels::new(&p, 2);
        assert_eq!(panels.n_tiles(), 3);
        assert_eq!(panels.rows(2), (4, 5));
        assert_eq!(panels.tile(2).size, 4); // 1 ragged row × 4 cols
        assert_eq!(panels.tile_size(), 8);
    }

    #[test]
    fn occupancies_partition_nnz() {
        let p = profile();
        for rpt in 1..=5 {
            let panels = RowPanels::new(&p, rpt);
            assert_eq!(panels.occupancies().sum::<u64>(), p.nnz());
        }
    }

    #[test]
    fn max_occupancy_and_overbooking_rate() {
        let p = profile();
        let panels = RowPanels::new(&p, 2);
        // occupancies: [3, 6, 1]
        assert_eq!(panels.max_occupancy(), 6);
        assert!((panels.overbooking_rate(5) - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(panels.overbooking_rate(6), 0.0);
        assert_eq!(panels.overbooking_rate(0), 1.0);
    }

    #[test]
    fn utilization_saturates_at_one() {
        let t = Tile {
            row_start: 0,
            row_end: 1,
            size: 10,
            occupancy: 12,
        };
        assert_eq!(t.utilization(10), 1.0);
        assert!(t.overbooks(10));
        assert!(!t.overbooks(12));
        assert_eq!(t.utilization(0), 0.0);
    }

    #[test]
    fn mean_utilization_averages_over_tiles() {
        let p = profile();
        let panels = RowPanels::new(&p, 2);
        // occ [3,6,1] with cap 6 -> (0.5 + 1.0 + 1/6) / 3
        let expected = (0.5 + 1.0 + 1.0 / 6.0) / 3.0;
        assert!((panels.mean_utilization(6) - expected).abs() < 1e-12);
    }

    #[test]
    fn capacity_summary_matches_separate_passes() {
        let p = profile();
        for rpt in [1, 2, 3, 5] {
            let panels = RowPanels::new(&p, rpt);
            for cap in [0u64, 1, 3, 5, 6, 100] {
                let s = panels.capacity_summary(cap);
                assert!(
                    (s.mean_utilization
                        - if cap == 0 {
                            0.0
                        } else {
                            panels.iter().map(|t| t.utilization(cap)).sum::<f64>()
                                / panels.n_tiles() as f64
                        })
                    .abs()
                        < 1e-12,
                    "rpt={rpt} cap={cap}"
                );
                assert!(
                    (s.overbooking_rate - panels.overbooking_rate(cap)).abs() < 1e-12,
                    "rpt={rpt} cap={cap}"
                );
                assert_eq!(s.max_occupancy, panels.max_occupancy());
                assert_eq!(panels.fits_within(cap), s.max_occupancy <= cap);
            }
        }
        assert_eq!(
            RowPanels::new(&profile(), 2)
                .capacity_summary(0)
                .mean_utilization,
            0.0
        );
    }

    #[test]
    fn grid_occupancies_cover_all_nnz() {
        let m = CsrMatrix::from_triplets(
            4,
            4,
            &[
                (0, 0, 1.0),
                (0, 3, 1.0),
                (1, 1, 1.0),
                (3, 3, 1.0),
                (2, 2, 1.0),
            ],
        )
        .unwrap();
        let occ = grid_tile_occupancies(&m, 2, 2);
        assert_eq!(occ.len(), 4);
        assert_eq!(occ.iter().sum::<u64>(), 5);
        // Block layout: [(0,0)=2 in top-left? entries (0,0),(1,1) -> block 0;
        // (0,3) -> block 1; (2,2),(3,3) -> block 3]
        assert_eq!(occ, vec![2, 1, 0, 2]);
    }

    #[test]
    fn grid_includes_empty_tiles() {
        let m = CsrMatrix::from_triplets(6, 6, &[(0, 0, 1.0)]).unwrap();
        let occ = grid_tile_occupancies(&m, 2, 2);
        assert_eq!(occ.len(), 9);
        assert_eq!(occ.iter().filter(|&&o| o == 0).count(), 8);
    }
}
