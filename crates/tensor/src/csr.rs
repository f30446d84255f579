//! Compressed sparse row (CSR) matrix format.

use crate::fiber::Fiber;
use crate::{CooMatrix, MatrixProfile, TensorError};

/// A sparse matrix in compressed sparse row format.
///
/// Within each row, column indices are strictly increasing. This is the
/// workhorse format of the reproduction: each row is a *fiber* in the
/// paper's terminology (a sorted stream of (coordinate, value) pairs), so a
/// CSR matrix doubles as a two-level compressed-sparse-fiber tensor, the
/// format ExTensor stores operands in.
///
/// # Example
///
/// ```
/// use tailors_tensor::CsrMatrix;
///
/// let a = CsrMatrix::from_triplets(3, 3, &[(0, 0, 1.0), (0, 2, 2.0), (2, 1, 3.0)]).unwrap();
/// assert_eq!(a.nnz(), 3);
/// assert_eq!(a.row(0).coords(), &[0, 2]);
/// assert_eq!(a.get(2, 1), Some(3.0));
/// assert_eq!(a.get(1, 1), None);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix {
    nrows: usize,
    ncols: usize,
    /// Row pointer array, length `nrows + 1`.
    row_ptr: Vec<usize>,
    /// Column indices, sorted within each row.
    col_idx: Vec<u32>,
    /// Nonzero values, parallel to `col_idx`.
    vals: Vec<f64>,
}

impl CsrMatrix {
    /// Creates an empty matrix of the given shape.
    pub fn new(nrows: usize, ncols: usize) -> Self {
        CsrMatrix {
            nrows,
            ncols,
            row_ptr: vec![0; nrows + 1],
            col_idx: Vec::new(),
            vals: Vec::new(),
        }
    }

    /// Builds a CSR matrix from raw parts.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidCsr`] if the row-pointer array has the
    /// wrong length, is non-monotonic, disagrees with the index array length,
    /// or if any row's column indices are out of bounds or not strictly
    /// increasing.
    pub fn from_parts(
        nrows: usize,
        ncols: usize,
        row_ptr: Vec<usize>,
        col_idx: Vec<u32>,
        vals: Vec<f64>,
    ) -> Result<Self, TensorError> {
        if row_ptr.len() != nrows + 1 {
            return Err(TensorError::InvalidCsr("row_ptr length must be nrows + 1"));
        }
        if row_ptr[0] != 0 || *row_ptr.last().expect("non-empty") != col_idx.len() {
            return Err(TensorError::InvalidCsr(
                "row_ptr must start at 0 and end at nnz",
            ));
        }
        if col_idx.len() != vals.len() {
            return Err(TensorError::InvalidCsr(
                "col_idx and vals must have equal length",
            ));
        }
        for w in row_ptr.windows(2) {
            if w[0] > w[1] {
                return Err(TensorError::InvalidCsr("row_ptr must be non-decreasing"));
            }
        }
        for r in 0..nrows {
            let row = &col_idx[row_ptr[r]..row_ptr[r + 1]];
            for pair in row.windows(2) {
                if pair[0] >= pair[1] {
                    return Err(TensorError::InvalidCsr(
                        "column indices must be strictly increasing within a row",
                    ));
                }
            }
            if let Some(&last) = row.last() {
                if last as usize >= ncols {
                    return Err(TensorError::InvalidCsr("column index out of bounds"));
                }
            }
        }
        Ok(CsrMatrix {
            nrows,
            ncols,
            row_ptr,
            col_idx,
            vals,
        })
    }

    /// Builds a CSR matrix from a COO matrix, sorting entries and summing
    /// duplicates.
    ///
    /// A counting sort groups the entries by row, each row keeping its
    /// insertion order, and every row then goes through the sort-and-merge
    /// of [`CsrBuilder`]'s [`RowSink::finish_row`].
    pub fn from_coo(coo: &CooMatrix) -> Self {
        let mut out = CsrBuilder::with_capacity(coo.nrows(), coo.ncols(), coo.len());
        coo.feed_rows(&mut out);
        out.finish()
    }

    /// Builds a CSR matrix directly from `(row, col, value)` triplets.
    ///
    /// Duplicate coordinates are summed.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::CoordOutOfBounds`] if any triplet lies outside
    /// the shape.
    pub fn from_triplets(
        nrows: usize,
        ncols: usize,
        triplets: &[(usize, usize, f64)],
    ) -> Result<Self, TensorError> {
        let mut coo = CooMatrix::with_capacity(nrows, ncols, triplets.len());
        for &(r, c, v) in triplets {
            coo.push(r, c, v)?;
        }
        Ok(Self::from_coo(&coo))
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Number of structurally stored nonzeros.
    pub fn nnz(&self) -> usize {
        self.col_idx.len()
    }

    /// Fraction of the coordinate space that is *zero*, as in the paper's
    /// Table 2 (e.g. `0.9999` for a 99.99 %-sparse tensor).
    pub fn sparsity(&self) -> f64 {
        let size = self.nrows as f64 * self.ncols as f64;
        if size == 0.0 {
            0.0
        } else {
            1.0 - self.nnz() as f64 / size
        }
    }

    /// Density (`1 - sparsity`).
    pub fn density(&self) -> f64 {
        1.0 - self.sparsity()
    }

    /// The fiber (sorted coordinate/value stream) for row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.nrows()`.
    pub fn row(&self, r: usize) -> Fiber<'_> {
        let (lo, hi) = (self.row_ptr[r], self.row_ptr[r + 1]);
        Fiber::new(&self.col_idx[lo..hi], &self.vals[lo..hi])
    }

    /// Number of nonzeros in row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.nrows()`.
    pub fn row_nnz(&self, r: usize) -> usize {
        self.row_ptr[r + 1] - self.row_ptr[r]
    }

    /// Number of nonzeros in the row panel `r0..r1` — an O(1) slice of the
    /// stationary operand (adjacent row-pointer difference), matching
    /// [`crate::MatrixProfile::row_range_nnz`] without building a profile.
    ///
    /// # Panics
    ///
    /// Panics if `r0 > r1` or `r1 > self.nrows()`.
    pub fn row_range_nnz(&self, r0: usize, r1: usize) -> usize {
        assert!(r0 <= r1 && r1 <= self.nrows, "row range out of bounds");
        self.row_ptr[r1] - self.row_ptr[r0]
    }

    /// Looks up the value at `(r, c)`, or `None` if structurally zero or out
    /// of bounds.
    pub fn get(&self, r: usize, c: usize) -> Option<f64> {
        if r >= self.nrows || c >= self.ncols {
            return None;
        }
        let (lo, hi) = (self.row_ptr[r], self.row_ptr[r + 1]);
        let slice = &self.col_idx[lo..hi];
        slice
            .binary_search(&(c as u32))
            .ok()
            .map(|i| self.vals[lo + i])
    }

    /// Iterates over all `(row, col, value)` entries in row-major order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, f64)> + '_ {
        (0..self.nrows).flat_map(move |r| {
            let (lo, hi) = (self.row_ptr[r], self.row_ptr[r + 1]);
            self.col_idx[lo..hi]
                .iter()
                .zip(&self.vals[lo..hi])
                .map(move |(&c, &v)| (r, c as usize, v))
        })
    }

    /// Returns the transpose as a new CSR matrix.
    ///
    /// The paper's SpMSpM workload is `Z = A·Aᵀ`; the functional engine uses
    /// this to materialize `B = Aᵀ`.
    pub fn transpose(&self) -> CsrMatrix {
        let mut counts = vec![0usize; self.ncols + 1];
        for &c in &self.col_idx {
            counts[c as usize + 1] += 1;
        }
        for i in 0..self.ncols {
            counts[i + 1] += counts[i];
        }
        let mut cursor = counts.clone();
        let mut col_idx = vec![0u32; self.nnz()];
        let mut vals = vec![0f64; self.nnz()];
        for (r, c, v) in self.iter() {
            let at = cursor[c];
            col_idx[at] = r as u32;
            vals[at] = v;
            cursor[c] += 1;
        }
        CsrMatrix {
            nrows: self.ncols,
            ncols: self.nrows,
            row_ptr: counts,
            col_idx,
            vals,
        }
    }

    /// Extracts the per-row / per-column occupancy profile used by the
    /// analytical accelerator model.
    pub fn profile(&self) -> MatrixProfile {
        let mut col_nnz = vec![0u32; self.ncols];
        for &c in &self.col_idx {
            col_nnz[c as usize] += 1;
        }
        // Row counts fall directly out of adjacent row-pointer differences.
        let row_nnz: Vec<u32> = self
            .row_ptr
            .windows(2)
            .map(|w| (w[1] - w[0]) as u32)
            .collect();
        MatrixProfile::new(self.nrows, self.ncols, row_nnz, col_nnz)
    }

    /// A stable 64-bit hash of the matrix's shape and nonzero *pattern*:
    /// which coordinates are stored, never their values.
    ///
    /// Two matrices with the same shape and the same stored coordinates
    /// hash equal whatever their values; any other pair differs up to the
    /// usual 64-bit collision caveat. The hash depends only on the
    /// pattern, never on allocation addresses, hasher seeds, process, or
    /// platform, so it can key long-lived caches: the serving layer keys
    /// its profile and execution-plan tiers by it, which is exact because
    /// profiles and plans read only the pattern.
    ///
    /// Each stored `(row, col)` contributes a bijective 64-bit mix of the
    /// packed coordinate; the terms are summed, so the sum does not depend
    /// on the order entries are visited in, and the shape and nonzero count
    /// are folded in last. [`GenSpec::pattern`](crate::gen::GenSpec::pattern)
    /// computes the same value straight from a generator's row stream,
    /// without building the matrix.
    ///
    /// Cost is one linear pass over the column indices; callers that
    /// look up the same matrix repeatedly should hash once and reuse the
    /// key (see `tailors-serve`'s `MatrixId`).
    pub fn pattern_hash(&self) -> u64 {
        let mut sum = 0u64;
        for (r, w) in self.row_ptr.windows(2).enumerate() {
            for &c in &self.col_idx[w[0]..w[1]] {
                sum = sum.wrapping_add(pattern_term(r, c));
            }
        }
        seal_pattern(self.nrows, self.ncols, self.nnz(), sum)
    }

    /// Raw row-pointer array (length `nrows + 1`).
    pub fn row_ptr(&self) -> &[usize] {
        &self.row_ptr
    }

    /// Raw column-index array.
    pub fn col_indices(&self) -> &[u32] {
        &self.col_idx
    }

    /// Raw value array, parallel to [`CsrMatrix::col_indices`].
    pub fn values(&self) -> &[f64] {
        &self.vals
    }
}

/// A consumer of a sparse matrix streamed row by row, in row order: the
/// interface every generator in [`crate::gen`] writes to.
///
/// Entries of the open row may arrive in any column order and may repeat a
/// column; what a repeat means is the sink's business ([`CsrBuilder`]
/// sums duplicates, a pattern-only sink counts the coordinate once).
pub trait RowSink {
    /// Adds `val` at column `col` of the open row.
    fn push(&mut self, col: u32, val: f64);

    /// Closes the open row; the next push starts the following row.
    fn finish_row(&mut self);
}

/// Builds a [`CsrMatrix`] one row at a time, in row order.
///
/// Entries of the open row may arrive in any column order and may repeat a
/// column; [`RowSink::finish_row`] sorts the row and sums duplicates.
/// This is the crate's one sort-and-merge: [`CsrMatrix::from_coo`] runs
/// every row through it too, so a row pushed here in the order a COO
/// matrix would hold it yields bit-identical output.
///
/// # Example
///
/// ```
/// use tailors_tensor::{CsrBuilder, RowSink};
///
/// let mut b = CsrBuilder::with_capacity(2, 3, 3);
/// b.push(2, 1.0);
/// b.push(0, 2.0);
/// b.push(2, 0.5); // duplicate: summed
/// b.finish_row();
/// b.finish_row(); // row 1 stays empty
/// let m = b.finish();
/// assert_eq!(m.row(0).coords(), &[0, 2]);
/// assert_eq!(m.get(0, 2), Some(1.5));
/// assert_eq!(m.row_nnz(1), 0);
/// ```
#[derive(Debug)]
pub struct CsrBuilder {
    nrows: usize,
    ncols: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<u32>,
    vals: Vec<f64>,
    /// The open row's entries, in push order.
    open: Vec<(u32, f64)>,
}

impl CsrBuilder {
    /// Starts an `nrows × ncols` matrix with room for `nnz` merged entries.
    ///
    /// # Panics
    ///
    /// Panics if `ncols` exceeds `u32::MAX`, the widest column index CSR
    /// stores.
    pub fn with_capacity(nrows: usize, ncols: usize, nnz: usize) -> Self {
        assert!(ncols <= u32::MAX as usize, "column count must fit in u32");
        let mut row_ptr = Vec::with_capacity(nrows + 1);
        row_ptr.push(0);
        CsrBuilder {
            nrows,
            ncols,
            row_ptr,
            col_idx: Vec::with_capacity(nnz),
            vals: Vec::with_capacity(nnz),
            open: Vec::new(),
        }
    }

    /// Returns the matrix.
    ///
    /// # Panics
    ///
    /// Panics unless exactly `nrows` rows have been finished and no entry
    /// is pending.
    pub fn finish(self) -> CsrMatrix {
        assert!(
            self.row_ptr.len() == self.nrows + 1 && self.open.is_empty(),
            "exactly nrows rows must be finished"
        );
        CsrMatrix {
            nrows: self.nrows,
            ncols: self.ncols,
            row_ptr: self.row_ptr,
            col_idx: self.col_idx,
            vals: self.vals,
        }
    }
}

impl RowSink for CsrBuilder {
    /// # Panics
    ///
    /// Panics if `col` is out of bounds.
    fn push(&mut self, col: u32, val: f64) {
        assert!((col as usize) < self.ncols, "column index out of bounds");
        self.open.push((col, val));
    }

    /// Sorts the open row by column with an unstable sort and sums each
    /// run of equal columns left to right. The sort is part of the
    /// output's bits: with three or more duplicates, the order it leaves
    /// them in decides their rounded sum.
    fn finish_row(&mut self) {
        self.open.sort_unstable_by_key(|&(c, _)| c);
        for run in self.open.chunk_by(|a, b| a.0 == b.0) {
            self.col_idx.push(run[0].0);
            self.vals
                .push(run[1..].iter().fold(run[0].1, |sum, &(_, v)| sum + v));
        }
        self.open.clear();
        self.row_ptr.push(self.col_idx.len());
    }
}

/// One stored coordinate's term in [`CsrMatrix::pattern_hash`]: the
/// SplitMix64 output for the packed coordinate `row << 32 | col`, a
/// bijection on the packed word, so distinct coordinates never share a
/// term.
pub(crate) fn pattern_term(row: usize, col: u32) -> u64 {
    mix64(((row as u64) << 32 | u64::from(col)).wrapping_add(0x9e37_79b9_7f4a_7c15))
}

/// Folds the shape and nonzero count into a sum of [`pattern_term`]s.
pub(crate) fn seal_pattern(nrows: usize, ncols: usize, nnz: usize, sum: u64) -> u64 {
    [nrows, ncols, nnz].into_iter().fold(sum, |h, n| {
        mix64(h ^ (n as u64).wrapping_mul(0xc2b2_ae3d_27d4_eb4f))
    })
}

/// SplitMix64's finalizer: a bijective avalanche of one 64-bit word.
pub(crate) fn mix64(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> CsrMatrix {
        CsrMatrix::from_triplets(
            3,
            4,
            &[
                (0, 1, 1.0),
                (0, 3, 2.0),
                (1, 0, 3.0),
                (2, 2, 4.0),
                (2, 3, 5.0),
            ],
        )
        .unwrap()
    }

    #[test]
    fn from_triplets_sorts_rows() {
        let m = CsrMatrix::from_triplets(2, 3, &[(0, 2, 1.0), (0, 0, 2.0)]).unwrap();
        assert_eq!(m.row(0).coords(), &[0, 2]);
        assert_eq!(m.row(0).values(), &[2.0, 1.0]);
    }

    #[test]
    fn duplicates_are_summed() {
        let m = CsrMatrix::from_triplets(1, 2, &[(0, 1, 1.0), (0, 1, 2.5)]).unwrap();
        assert_eq!(m.nnz(), 1);
        assert_eq!(m.get(0, 1), Some(3.5));
    }

    #[test]
    fn get_and_iter_agree() {
        let m = small();
        for (r, c, v) in m.iter() {
            assert_eq!(m.get(r, c), Some(v));
        }
        assert_eq!(m.iter().count(), m.nnz());
        assert_eq!(m.get(1, 1), None);
        assert_eq!(m.get(99, 0), None);
    }

    #[test]
    fn transpose_roundtrip() {
        let m = small();
        let t = m.transpose();
        assert_eq!(t.nrows(), m.ncols());
        assert_eq!(t.ncols(), m.nrows());
        assert_eq!(t.nnz(), m.nnz());
        for (r, c, v) in m.iter() {
            assert_eq!(t.get(c, r), Some(v));
        }
        assert_eq!(t.transpose(), m);
    }

    #[test]
    fn sparsity_matches_definition() {
        let m = small();
        let expected = 1.0 - 5.0 / 12.0;
        assert!((m.sparsity() - expected).abs() < 1e-12);
        assert!((m.density() - 5.0 / 12.0).abs() < 1e-12);
    }

    #[test]
    fn profile_counts_rows_and_cols() {
        let m = small();
        let p = m.profile();
        assert_eq!(p.row_nnz(), &[2, 1, 2]);
        assert_eq!(p.col_nnz(), &[1, 1, 1, 2]);
        assert_eq!(p.nnz(), 5);
    }

    #[test]
    fn from_parts_validates() {
        // Bad row_ptr length.
        assert!(CsrMatrix::from_parts(2, 2, vec![0, 1], vec![0], vec![1.0]).is_err());
        // Non-monotonic row_ptr.
        assert!(CsrMatrix::from_parts(2, 2, vec![0, 2, 1], vec![0, 1], vec![1.0, 2.0]).is_err());
        // Unsorted columns.
        assert!(CsrMatrix::from_parts(1, 3, vec![0, 2], vec![2, 0], vec![1.0, 2.0]).is_err());
        // Column out of bounds.
        assert!(CsrMatrix::from_parts(1, 1, vec![0, 1], vec![5], vec![1.0]).is_err());
        // A valid one.
        let ok = CsrMatrix::from_parts(2, 2, vec![0, 1, 2], vec![1, 0], vec![1.0, 2.0]);
        assert!(ok.is_ok());
    }

    #[test]
    fn row_range_nnz_matches_row_sums() {
        let m = small();
        for r0 in 0..=m.nrows() {
            for r1 in r0..=m.nrows() {
                let expect: usize = (r0..r1).map(|r| m.row_nnz(r)).sum();
                assert_eq!(m.row_range_nnz(r0, r1), expect, "rows {r0}..{r1}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "row range")]
    fn row_range_nnz_rejects_out_of_bounds() {
        let _ = small().row_range_nnz(0, 99);
    }

    #[test]
    fn profile_row_counts_come_from_row_ptr() {
        let m = small();
        // One-pass derivation must agree with per-row queries.
        let p = m.profile();
        let per_row: Vec<u32> = (0..m.nrows()).map(|r| m.row_nnz(r) as u32).collect();
        assert_eq!(p.row_nnz(), per_row.as_slice());
    }

    #[test]
    fn pattern_hash_tracks_the_pattern_and_is_pinned() {
        let m = small();
        assert_eq!(m.pattern_hash(), m.clone().pattern_hash());
        // Structure-only change.
        let moved = CsrMatrix::from_triplets(
            3,
            4,
            &[
                (0, 1, 1.0),
                (0, 3, 2.0),
                (1, 0, 3.0),
                (2, 1, 4.0), // was (2, 2, 4.0)
                (2, 3, 5.0),
            ],
        )
        .unwrap();
        assert_ne!(m.pattern_hash(), moved.pattern_hash());
        // Value-only change (same structure): the pattern, and so the
        // hash, is unchanged.
        let revalued = CsrMatrix::from_triplets(
            3,
            4,
            &[
                (0, 1, 1.0),
                (0, 3, 2.0),
                (1, 0, 3.0),
                (2, 2, 4.5),
                (2, 3, 5.0),
            ],
        )
        .unwrap();
        assert_eq!(m.pattern_hash(), revalued.pattern_hash());
        // Shape-only change (same triplets, wider matrix).
        let wider = CsrMatrix::from_triplets(3, 5, &m.iter().collect::<Vec<_>>()).unwrap();
        assert_ne!(m.pattern_hash(), wider.pattern_hash());
        // Pinned literal: the hash is every `MatrixId` and decides ring
        // placement, so a change here moves both and must be declared.
        assert_eq!(small().pattern_hash(), 0xc2f0_8aa4_24e8_fbcb);
    }

    #[test]
    fn empty_matrix_is_consistent() {
        let m = CsrMatrix::new(4, 4);
        assert_eq!(m.nnz(), 0);
        assert_eq!(m.sparsity(), 1.0);
        assert_eq!(m.transpose().nnz(), 0);
        assert_eq!(m.row(3).len(), 0);
    }

    #[test]
    #[should_panic(expected = "exactly nrows rows must be finished")]
    fn builder_rejects_unfinished_rows() {
        let mut b = CsrBuilder::with_capacity(2, 2, 1);
        b.push(1, 1.0);
        b.finish_row();
        let _ = b.finish();
    }

    #[test]
    #[should_panic(expected = "exactly nrows rows must be finished")]
    fn builder_rejects_extra_rows() {
        let mut b = CsrBuilder::with_capacity(1, 2, 0);
        b.finish_row();
        b.finish_row();
        let _ = b.finish();
    }

    #[test]
    #[should_panic(expected = "column index out of bounds")]
    fn builder_rejects_out_of_bounds_column() {
        CsrBuilder::with_capacity(1, 2, 1).push(2, 1.0);
    }
}
