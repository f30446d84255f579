//! Sparse kernels: the fast SPA (sparse-accumulator) SpMSpM used across the
//! workspace, plus retained reference implementations used as oracles.
//!
//! Gustavson's row-wise algorithm computes row `m` of `Z = A·B` as a linear
//! combination of B rows. The classic formulation accumulates each output
//! row in a *dense scratch array* (the SPA): `O(ncols)` storage reused for
//! every row, giving O(1) accumulation per effectual multiply with no
//! hashing, no per-element searches, and no allocation in the hot loop.
//! The scratch here is a [`BlockedSpa`]: a `u64` occupancy-word array rides
//! alongside the dense values, so extraction walks only the set words and
//! bits (in ascending-coordinate order, for free) instead of sorting a
//! touched-coordinate list. [`spmspm_into`] exposes the allocation-reusing
//! entry point; [`SpmspmScratch`] carries the scratch between calls.
//!
//! The seed's hash-accumulator kernel lives on in [`mod@reference`] — it is the
//! obviously-correct ground truth the property tests and benchmarks compare
//! against, never the kernel anything hot calls.

use crate::{CsrMatrix, TensorError};

/// A bitmask-blocked sparse accumulator: a dense `f64` grid of
/// `rows × width` slots with one `u64` occupancy word per 64 columns of
/// each row.
///
/// Accumulation is one dense write plus one mask OR — branchless, no
/// touched-list push. Extraction ([`BlockedSpa::drain_row`]) visits only
/// the words a row actually touched (tracked per row as word indices, so
/// sparse rows never scan the full width) and walks their set bits with
/// `trailing_zeros`, which yields coordinates in ascending order without a
/// sort and restores the all-zero invariant as it goes.
///
/// There is one accumulation mode: every write sets its occupancy bit, so
/// no slot is nonzero outside the touched words, and draining costs the
/// touched words, never the whole `rows × width` grid.
///
/// Both the [`spmspm_into`] kernel and the functional engine's panel
/// scratch (`tailors_sim::functional`) are built on this type; the
/// property suites pin its output bit-identical to the seed hash
/// accumulator.
///
/// # Example
///
/// ```
/// use tailors_tensor::ops::BlockedSpa;
///
/// let mut spa = BlockedSpa::new();
/// spa.reset_shape(1, 200);
/// spa.accumulate(0, 130, 2.0);
/// spa.accumulate(0, 7, 1.5);
/// spa.accumulate(0, 130, -1.0);
/// let (mut cols, mut vals) = (Vec::new(), Vec::new());
/// spa.drain_row(0, 1000, &mut cols, &mut vals);
/// assert_eq!(cols, vec![1007, 1130]); // ascending, re-based
/// assert_eq!(vals, vec![1.5, 1.0]);
/// ```
#[derive(Debug, Clone, Default)]
pub struct BlockedSpa {
    rows: usize,
    width: usize,
    /// Occupancy words per row: `width.div_ceil(64)`.
    words: usize,
    /// Dense accumulator, `rows × width`, all-zero outside set mask bits.
    dense: Vec<f64>,
    /// Occupancy words, `rows × words`; bit `c % 64` of word `c / 64`
    /// marks column `c` as touched.
    mask: Vec<u64>,
    /// Word indices each row touched this round, unsorted, no duplicates
    /// (a word is pushed only on its 0 → nonzero transition).
    touched: Vec<Vec<u32>>,
}

impl BlockedSpa {
    /// Creates an empty accumulator; [`BlockedSpa::reset_shape`] sizes it.
    pub fn new() -> Self {
        Self::default()
    }

    /// (Re)shapes the accumulator to `rows × width`, growing the backing
    /// storage as needed (never shrinking). All slots start — and, between
    /// drains, stay — zero, so reshaping is O(1) beyond first-time growth.
    pub fn reset_shape(&mut self, rows: usize, width: usize) {
        let words = width.div_ceil(64);
        if self.dense.len() < rows * width {
            self.dense.resize(rows * width, 0.0);
        }
        if self.mask.len() < rows * words {
            self.mask.resize(rows * words, 0);
        }
        if self.touched.len() < rows {
            self.touched.resize(rows, Vec::new());
        }
        self.rows = rows;
        self.width = width;
        self.words = words;
        debug_assert!(self.is_clear(), "reshaped a non-drained accumulator");
    }

    /// Rows of the current shape.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Columns per row of the current shape.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Allocated dense slots (grows monotonically across reshapes).
    pub fn capacity_slots(&self) -> usize {
        self.dense.len()
    }

    /// Adds `v` to slot (`row`, `col`) and marks its occupancy bit.
    ///
    /// `row < rows()` and `col < width()` are preconditions checked only
    /// in debug builds: the backing storage never shrinks, so in release
    /// an out-of-shape index that still lands inside a previous (larger)
    /// shape's allocation writes a stale slot — and would later drain as
    /// a wrong coordinate — rather than panicking. Indices beyond the
    /// allocation panic on the slice bound either way.
    #[inline]
    pub fn accumulate(&mut self, row: usize, col: usize, v: f64) {
        debug_assert!(row < self.rows && col < self.width);
        self.dense[row * self.width + col] += v;
        let word = &mut self.mask[row * self.words + (col >> 6)];
        if *word == 0 {
            self.touched[row].push((col >> 6) as u32);
        }
        *word |= 1u64 << (col & 63);
    }

    /// Drains one row in ascending-column order into `cols`/`vals`,
    /// re-basing each local column by `base` and dropping slots whose
    /// accumulated value is exactly `0.0` (matching the reference kernel's
    /// exact-cancellation behaviour). Resets every touched slot, word, and
    /// the row's touched list — the all-zero invariant is restored for
    /// free.
    pub fn drain_row(&mut self, row: usize, base: u32, cols: &mut Vec<u32>, vals: &mut Vec<f64>) {
        debug_assert!(row < self.rows);
        let row_touched = &mut self.touched[row];
        row_touched.sort_unstable();
        for &wi in row_touched.iter() {
            let mut bits = core::mem::take(&mut self.mask[row * self.words + wi as usize]);
            while bits != 0 {
                let c = (wi as usize) * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let v = core::mem::take(&mut self.dense[row * self.width + c]);
                if v != 0.0 {
                    cols.push(base + c as u32);
                    vals.push(v);
                }
            }
        }
        row_touched.clear();
    }

    /// Whether every slot, word, and touched list is zero/empty (the
    /// between-uses invariant; O(allocation), debug assertions only).
    pub fn is_clear(&self) -> bool {
        self.dense.iter().all(|&v| v == 0.0)
            && self.mask.iter().all(|&w| w == 0)
            && self.touched.iter().all(|t| t.is_empty())
    }
}

/// Reusable workspace for [`spmspm_into`]: a one-row [`BlockedSpa`]
/// spanning the output's columns.
///
/// Reusing one scratch across many multiplies (the tiled engines do this
/// per row panel) keeps the hot path allocation-free after the first call.
///
/// # Example
///
/// ```
/// use tailors_tensor::ops::{spmspm_into, SpmspmScratch};
/// use tailors_tensor::CsrMatrix;
///
/// let a = CsrMatrix::from_triplets(2, 2, &[(0, 0, 1.0), (1, 1, 2.0)]).unwrap();
/// let b = CsrMatrix::from_triplets(2, 2, &[(0, 1, 3.0), (1, 0, 4.0)]).unwrap();
/// let mut scratch = SpmspmScratch::new();
/// let z1 = spmspm_into(&a, &b, &mut scratch)?;
/// let z2 = spmspm_into(&b, &a, &mut scratch)?; // same scratch, no realloc
/// assert_eq!(z1.get(0, 1), Some(3.0));
/// assert_eq!(z2.get(0, 1), Some(6.0));
/// assert_eq!(z2.get(1, 0), Some(4.0));
/// # Ok::<(), tailors_tensor::TensorError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct SpmspmScratch {
    spa: BlockedSpa,
}

impl SpmspmScratch {
    /// Creates an empty scratch; it grows to the first multiply's width.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current dense-accumulator width in columns (the widest multiply
    /// seen so far; the backing storage never shrinks).
    pub fn width(&self) -> usize {
        self.spa.capacity_slots()
    }
}

/// Sparse matrix-matrix multiply `Z = A·B` (Gustavson + dense SPA
/// accumulator).
///
/// Output values are bit-identical to [`reference::spmspm`]: contributions
/// to each output coordinate are accumulated in the same (row-of-A) order,
/// and entries whose sum is exactly `0.0` are dropped, as the reference
/// does.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if `A.ncols != B.nrows`.
///
/// # Example
///
/// ```
/// use tailors_tensor::{CsrMatrix, ops::spmspm};
///
/// let a = CsrMatrix::from_triplets(2, 2, &[(0, 0, 1.0), (1, 1, 2.0)]).unwrap();
/// let b = CsrMatrix::from_triplets(2, 2, &[(0, 1, 3.0), (1, 0, 4.0)]).unwrap();
/// let z = spmspm(&a, &b)?;
/// assert_eq!(z.get(0, 1), Some(3.0));
/// assert_eq!(z.get(1, 0), Some(8.0));
/// # Ok::<(), tailors_tensor::TensorError>(())
/// ```
pub fn spmspm(a: &CsrMatrix, b: &CsrMatrix) -> Result<CsrMatrix, TensorError> {
    let mut scratch = SpmspmScratch::new();
    spmspm_into(a, b, &mut scratch)
}

/// [`spmspm`] with caller-owned scratch, reusing its allocations.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if `A.ncols != B.nrows`.
pub fn spmspm_into(
    a: &CsrMatrix,
    b: &CsrMatrix,
    scratch: &mut SpmspmScratch,
) -> Result<CsrMatrix, TensorError> {
    if a.ncols() != b.nrows() {
        return Err(TensorError::ShapeMismatch {
            left: (a.nrows(), a.ncols()),
            right: (b.nrows(), b.ncols()),
        });
    }
    scratch.spa.reset_shape(1, b.ncols());
    let spa = &mut scratch.spa;

    let b_row_ptr = b.row_ptr();
    let b_cols = b.col_indices();
    let b_vals = b.values();

    // Symbolic upper bound on the output size would need a second pass;
    // start from A's nnz (every multiply has ≥1 output per A row on
    // average for the workloads here) and let Vec growth amortize.
    let mut out_row_ptr: Vec<usize> = Vec::with_capacity(a.nrows() + 1);
    let mut out_cols: Vec<u32> = Vec::with_capacity(a.nnz());
    let mut out_vals: Vec<f64> = Vec::with_capacity(a.nnz());
    out_row_ptr.push(0);

    for m in 0..a.nrows() {
        let row_a = a.row(m);
        for (&k, &va) in row_a.coords().iter().zip(row_a.values()) {
            let (lo, hi) = (b_row_ptr[k as usize], b_row_ptr[k as usize + 1]);
            for (&n, &vb) in b_cols[lo..hi].iter().zip(&b_vals[lo..hi]) {
                spa.accumulate(0, n as usize, va * vb);
            }
        }
        // Bit-walk emission is ascending and deduplicated by construction;
        // exact cancellations (sum == 0.0) are dropped, as the reference
        // does.
        spa.drain_row(0, 0, &mut out_cols, &mut out_vals);
        out_row_ptr.push(out_cols.len());
    }

    Ok(CsrMatrix::from_sorted_parts_unchecked(
        a.nrows(),
        b.ncols(),
        out_row_ptr,
        out_cols,
        out_vals,
    ))
}

/// `Z = A·Aᵀ`, the paper's evaluation workload (§5.3), on the SPA kernel.
pub fn spmspm_a_at(a: &CsrMatrix) -> CsrMatrix {
    let at = a.transpose();
    spmspm(a, &at).expect("A and Aᵀ always have compatible shapes")
}

/// Counts effectual multiplies and output nonzeros of `A·B` symbolically —
/// a marker-scratch pass over coordinates only, with no value arithmetic
/// and no materialized output.
///
/// `output_nnz` is the *structural* nonzero count of the product (exact
/// numerical cancellations are not subtracted; the generators guarantee
/// positive values, so none occur in the evaluation workloads).
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if `A.ncols != B.nrows`.
pub fn count_work(a: &CsrMatrix, b: &CsrMatrix) -> Result<WorkCounts, TensorError> {
    if a.ncols() != b.nrows() {
        return Err(TensorError::ShapeMismatch {
            left: (a.nrows(), a.ncols()),
            right: (b.nrows(), b.ncols()),
        });
    }
    let b_row_ptr = b.row_ptr();
    let b_cols = b.col_indices();
    // Generation-stamped marker scratch: bumping `generation` invalidates
    // every stamp at once, so the array is never re-cleared between rows.
    let mut marks: Vec<u64> = vec![0; b.ncols()];
    let mut generation: u64 = 0;
    let mut mults: u128 = 0;
    let mut output_nnz: u64 = 0;
    for m in 0..a.nrows() {
        generation += 1;
        for &k in a.row(m).coords() {
            let (lo, hi) = (b_row_ptr[k as usize], b_row_ptr[k as usize + 1]);
            mults += (hi - lo) as u128;
            for &n in &b_cols[lo..hi] {
                let mark = &mut marks[n as usize];
                if *mark != generation {
                    *mark = generation;
                    output_nnz += 1;
                }
            }
        }
    }
    Ok(WorkCounts { mults, output_nnz })
}

/// Work counts for a sparse multiply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkCounts {
    /// Number of effectual scalar multiplications.
    pub mults: u128,
    /// Number of structural nonzeros in the output.
    pub output_nnz: u64,
}

/// Returns `true` if two matrices are elementwise equal within `tol`.
pub fn approx_eq(a: &CsrMatrix, b: &CsrMatrix, tol: f64) -> bool {
    if a.nrows() != b.nrows() || a.ncols() != b.ncols() {
        return false;
    }
    // Every entry of a must be matched in b and vice versa.
    let within = |x: &CsrMatrix, y: &CsrMatrix| {
        x.iter()
            .all(|(r, c, v)| (y.get(r, c).unwrap_or(0.0) - v).abs() <= tol)
    };
    within(a, b) && within(b, a)
}

pub mod reference {
    //! The seed's hash-accumulator kernels, retained verbatim as oracles
    //! for property tests and before/after benchmarks.

    use std::collections::HashMap;

    use crate::{CooMatrix, CsrMatrix, TensorError};

    /// Reference `Z = A·B`: Gustavson with a `HashMap` accumulator
    /// (the seed implementation of `ops::spmspm`).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if `A.ncols != B.nrows`.
    pub fn spmspm(a: &CsrMatrix, b: &CsrMatrix) -> Result<CsrMatrix, TensorError> {
        if a.ncols() != b.nrows() {
            return Err(TensorError::ShapeMismatch {
                left: (a.nrows(), a.ncols()),
                right: (b.nrows(), b.ncols()),
            });
        }
        let mut coo = CooMatrix::new(a.nrows(), b.ncols());
        let mut acc: HashMap<u32, f64> = HashMap::new();
        for m in 0..a.nrows() {
            acc.clear();
            let row_a = a.row(m);
            for (&k, &va) in row_a.coords().iter().zip(row_a.values()) {
                let row_b = b.row(k as usize);
                for (&n, &vb) in row_b.coords().iter().zip(row_b.values()) {
                    *acc.entry(n).or_insert(0.0) += va * vb;
                }
            }
            for (&n, &v) in &acc {
                if v != 0.0 {
                    coo.push(m, n as usize, v)
                        .expect("accumulator coordinates are in bounds");
                }
            }
        }
        Ok(CsrMatrix::from_coo(&coo))
    }

    /// Reference `Z = A·Aᵀ` on the hash-accumulator kernel.
    pub fn spmspm_a_at(a: &CsrMatrix) -> CsrMatrix {
        let at = a.transpose();
        spmspm(a, &at).expect("A and Aᵀ always have compatible shapes")
    }

    /// Reference work counts by materializing the full product
    /// (the seed implementation of `ops::count_work`).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if `A.ncols != B.nrows`.
    pub fn count_work(a: &CsrMatrix, b: &CsrMatrix) -> Result<super::WorkCounts, TensorError> {
        let z = spmspm(a, b)?;
        let mut mults: u128 = 0;
        for m in 0..a.nrows() {
            let row_a = a.row(m);
            for &k in row_a.coords() {
                mults += b.row_nnz(k as usize) as u128;
            }
        }
        Ok(super::WorkCounts {
            mults,
            output_nnz: z.nnz() as u64,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dense_mul(a: &CsrMatrix, b: &CsrMatrix) -> Vec<Vec<f64>> {
        let mut out = vec![vec![0.0; b.ncols()]; a.nrows()];
        for (m, k, va) in a.iter() {
            for (k2, n, vb) in b.iter() {
                if k == k2 {
                    out[m][n] += va * vb;
                }
            }
        }
        out
    }

    #[test]
    fn spmspm_matches_dense_reference() {
        let a = CsrMatrix::from_triplets(
            3,
            4,
            &[
                (0, 0, 1.0),
                (0, 2, 2.0),
                (1, 1, -1.0),
                (2, 3, 0.5),
                (2, 0, 3.0),
            ],
        )
        .unwrap();
        let b = CsrMatrix::from_triplets(
            4,
            3,
            &[
                (0, 0, 2.0),
                (1, 2, 4.0),
                (2, 1, -3.0),
                (3, 0, 1.0),
                (3, 2, 1.0),
            ],
        )
        .unwrap();
        let z = spmspm(&a, &b).unwrap();
        let dense = dense_mul(&a, &b);
        for (r, row) in dense.iter().enumerate() {
            for (c, &v) in row.iter().enumerate() {
                assert!(
                    (z.get(r, c).unwrap_or(0.0) - v).abs() < 1e-12,
                    "mismatch at ({r},{c})"
                );
            }
        }
    }

    #[test]
    fn spmspm_matches_hash_reference_bitwise() {
        let a = crate::gen::GenSpec::power_law(300, 300, 3_000)
            .seed(7)
            .generate();
        let z_spa = spmspm_a_at(&a);
        let z_ref = reference::spmspm_a_at(&a);
        assert_eq!(z_spa, z_ref, "SPA and hash kernels must agree bitwise");
    }

    #[test]
    fn spmspm_into_reuses_scratch_across_shapes() {
        let a = CsrMatrix::from_triplets(2, 5, &[(0, 4, 1.0), (1, 0, 2.0)]).unwrap();
        let b = CsrMatrix::from_triplets(5, 3, &[(4, 2, 3.0), (0, 0, 1.0)]).unwrap();
        let mut scratch = SpmspmScratch::new();
        let z1 = spmspm_into(&a, &b, &mut scratch).unwrap();
        assert_eq!(z1.get(0, 2), Some(3.0));
        assert_eq!(z1.get(1, 0), Some(2.0));
        assert_eq!(scratch.width(), 3);
        // A wider multiply grows the scratch in place...
        let wide = CsrMatrix::from_triplets(3, 9, &[(0, 8, 1.0), (2, 0, 2.0)]).unwrap();
        let tall = CsrMatrix::from_triplets(2, 3, &[(0, 0, 1.0), (1, 2, 4.0)]).unwrap();
        let z2 = spmspm_into(&tall, &wide, &mut scratch).unwrap();
        assert_eq!(scratch.width(), 9);
        assert_eq!(z2.get(0, 8), Some(1.0));
        assert_eq!(z2.get(1, 0), Some(8.0));
        // ...and a narrower one reuses it untouched.
        let z3 = spmspm_into(&a, &b, &mut scratch).unwrap();
        assert_eq!(scratch.width(), 9);
        assert_eq!(z3, z1);
    }

    #[test]
    fn transient_cancellation_keeps_output_sorted_and_deduped() {
        // Row 0 of A hits column 0 of Z through two paths that cancel
        // exactly, then a third that revives it: the occupancy bit stays
        // set through the cancellation, emission must still produce one
        // sorted entry.
        let a = CsrMatrix::from_triplets(1, 3, &[(0, 0, 1.0), (0, 1, 1.0), (0, 2, 1.0)]).unwrap();
        let b =
            CsrMatrix::from_triplets(3, 2, &[(0, 0, 5.0), (1, 0, -5.0), (2, 0, 2.0), (2, 1, 1.0)])
                .unwrap();
        let z = spmspm(&a, &b).unwrap();
        assert_eq!(z.nnz(), 2);
        assert_eq!(z.get(0, 0), Some(2.0));
        assert_eq!(z.get(0, 1), Some(1.0));
        assert_eq!(z.row(0).coords(), &[0, 1]);
    }

    #[test]
    fn exact_zero_outputs_are_dropped_like_reference() {
        let a = CsrMatrix::from_triplets(1, 2, &[(0, 0, 1.0), (0, 1, 1.0)]).unwrap();
        let b = CsrMatrix::from_triplets(2, 1, &[(0, 0, 3.0), (1, 0, -3.0)]).unwrap();
        let z = spmspm(&a, &b).unwrap();
        let z_ref = reference::spmspm(&a, &b).unwrap();
        assert_eq!(z.nnz(), 0);
        assert_eq!(z_ref.nnz(), 0);
    }

    #[test]
    fn spmspm_rejects_shape_mismatch() {
        let a = CsrMatrix::new(2, 3);
        let b = CsrMatrix::new(2, 3);
        assert!(matches!(
            spmspm(&a, &b),
            Err(TensorError::ShapeMismatch { .. })
        ));
        assert!(matches!(
            count_work(&a, &b),
            Err(TensorError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn a_at_is_symmetric() {
        let a = CsrMatrix::from_triplets(
            4,
            4,
            &[
                (0, 1, 1.0),
                (1, 2, 2.0),
                (2, 0, 3.0),
                (3, 3, 4.0),
                (0, 3, -1.0),
            ],
        )
        .unwrap();
        let z = spmspm_a_at(&a);
        for (r, c, v) in z.iter() {
            assert!((z.get(c, r).unwrap_or(0.0) - v).abs() < 1e-12);
        }
    }

    #[test]
    fn count_work_matches_profile_formula() {
        let a = CsrMatrix::from_triplets(
            5,
            5,
            &[
                (0, 0, 1.0),
                (1, 0, 1.0),
                (2, 0, 1.0),
                (2, 3, 1.0),
                (4, 3, 1.0),
            ],
        )
        .unwrap();
        let at = a.transpose();
        let counts = count_work(&a, &at).unwrap();
        assert_eq!(counts.mults, a.profile().mults_a_at());
    }

    #[test]
    fn count_work_matches_reference_on_random_input() {
        let a = crate::gen::GenSpec::power_law(200, 200, 2_000)
            .seed(5)
            .generate();
        let at = a.transpose();
        let fast = count_work(&a, &at).unwrap();
        let slow = reference::count_work(&a, &at).unwrap();
        assert_eq!(fast, slow);
    }

    #[test]
    fn approx_eq_detects_differences() {
        let a = CsrMatrix::from_triplets(2, 2, &[(0, 0, 1.0)]).unwrap();
        let b = CsrMatrix::from_triplets(2, 2, &[(0, 0, 1.0 + 1e-13)]).unwrap();
        let c = CsrMatrix::from_triplets(2, 2, &[(1, 1, 1.0)]).unwrap();
        assert!(approx_eq(&a, &b, 1e-9));
        assert!(!approx_eq(&a, &c, 1e-9));
        assert!(!approx_eq(&a, &CsrMatrix::new(3, 3), 1e-9));
    }

    #[test]
    fn blocked_spa_drains_ascending_across_words() {
        let mut spa = BlockedSpa::new();
        spa.reset_shape(2, 300);
        // Touch words out of order, multiple bits per word, on both rows.
        for &(r, c, v) in &[
            (1usize, 299usize, 1.0),
            (0, 64, 2.0),
            (0, 0, 3.0),
            (0, 63, 4.0),
            (0, 128, 5.0),
            (0, 65, 6.0),
        ] {
            spa.accumulate(r, c, v);
        }
        let (mut cols, mut vals) = (Vec::new(), Vec::new());
        spa.drain_row(0, 10, &mut cols, &mut vals);
        assert_eq!(cols, vec![10, 73, 74, 75, 138]);
        assert_eq!(vals, vec![3.0, 4.0, 2.0, 6.0, 5.0]);
        spa.drain_row(1, 0, &mut cols, &mut vals);
        assert_eq!(cols.last(), Some(&299));
        assert!(spa.is_clear());
    }

    #[test]
    fn blocked_spa_drops_exact_cancellations_but_keeps_the_bit_cost_free() {
        let mut spa = BlockedSpa::new();
        spa.reset_shape(1, 64);
        spa.accumulate(0, 5, 1.0);
        spa.accumulate(0, 5, -1.0);
        spa.accumulate(0, 9, 2.0);
        let (mut cols, mut vals) = (Vec::new(), Vec::new());
        spa.drain_row(0, 0, &mut cols, &mut vals);
        assert_eq!(cols, vec![9]);
        assert_eq!(vals, vec![2.0]);
        assert!(spa.is_clear());
    }

    #[test]
    fn blocked_spa_clear_restores_the_invariant_without_emitting() {
        let mut spa = BlockedSpa::new();
        spa.reset_shape(3, 100);
        spa.accumulate(0, 99, 1.0);
        spa.accumulate(2, 0, 2.0);
        assert!(!spa.is_clear());
        let (mut cols, mut vals) = (Vec::new(), Vec::new());
        for row in 0..3 {
            spa.drain_row(row, 0, &mut cols, &mut vals);
        }
        assert_eq!((cols, vals), (vec![99, 0], vec![1.0, 2.0]));
        assert!(spa.is_clear());
        // Reshape (narrower and wider) keeps the invariant and reuses the
        // allocation.
        spa.reset_shape(1, 10);
        assert_eq!(spa.width(), 10);
        spa.reset_shape(2, 170);
        spa.accumulate(1, 169, 7.0);
        let (mut cols, mut vals) = (Vec::new(), Vec::new());
        spa.drain_row(1, 0, &mut cols, &mut vals);
        assert_eq!(
            (cols.as_slice(), vals.as_slice()),
            (&[169u32][..], &[7.0][..])
        );
    }

    #[test]
    fn blocked_spa_drains_cancellations_and_resets_to_positive_zero() {
        let writes: &[(usize, usize, f64)] = &[
            (0, 130, 2.0),
            (1, 5, 1.0),
            (0, 7, 1.5),
            (0, 130, -2.0), // cancels...
            (0, 130, 3.0),  // ...then revives
            (1, 5, -1.0),   // cancels for good
            (1, 64, -0.0),  // a negative-zero write sums to zero: dropped
            (1, 199, 4.0),
        ];
        let mut spa = BlockedSpa::new();
        spa.reset_shape(2, 200);
        for &(r, c, v) in writes {
            spa.accumulate(r, c, v);
        }
        let (mut cols, mut vals) = (Vec::new(), Vec::new());
        spa.drain_row(0, 10, &mut cols, &mut vals);
        assert_eq!(cols, vec![17, 140]);
        assert_eq!(vals, vec![1.5, 3.0]);
        let (mut cols, mut vals) = (Vec::new(), Vec::new());
        spa.drain_row(1, 10, &mut cols, &mut vals);
        assert_eq!(cols, vec![209]);
        assert_eq!(vals, vec![4.0]);
        // Every drained slot is reset to +0.0, not -0.0.
        assert!(spa.is_clear());
        assert!(spa.dense.iter().all(|v| v.to_bits() == 0));
        // The next round accumulates onto +0.0 and drains only its own
        // writes.
        spa.accumulate(1, 64, -0.5);
        let (mut cols, mut vals) = (Vec::new(), Vec::new());
        spa.drain_row(0, 0, &mut cols, &mut vals);
        spa.drain_row(1, 0, &mut cols, &mut vals);
        assert_eq!(cols, vec![64]);
        assert_eq!(vals[0].to_bits(), (-0.5f64).to_bits());
        assert!(spa.is_clear());
    }

    #[test]
    fn multiply_by_empty_is_empty() {
        let a = CsrMatrix::from_triplets(2, 2, &[(0, 0, 1.0)]).unwrap();
        let z = spmspm(&a, &CsrMatrix::new(2, 2)).unwrap();
        assert_eq!(z.nnz(), 0);
        let e = spmspm(&CsrMatrix::new(0, 0), &CsrMatrix::new(0, 0)).unwrap();
        assert_eq!(e.nnz(), 0);
        assert_eq!(e.nrows(), 0);
    }
}
