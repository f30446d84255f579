//! Sparse kernels: the one SpMSpM kernel, and the accumulator the
//! functional engine builds its panel scratch on.
//!
//! [`spmspm`] is Gustavson's row-wise algorithm: row `m` of `Z = A·B` is a
//! linear combination of B rows, accumulated in a per-row `HashMap`. It is
//! the obviously-correct ground truth the functional engine, the examples
//! and the tests compare against bit for bit, not a kernel anything hot
//! calls.
//!
//! [`BlockedSpa`] is a dense sparse accumulator (SPA): `O(width)` storage
//! reused for every row, O(1) accumulation per effectual multiply with no
//! hashing, and a `u64` occupancy-word array alongside the dense values,
//! so extraction walks only the set words and bits (in ascending-coordinate
//! order, for free) instead of sorting a touched-coordinate list.

use std::collections::HashMap;

use crate::{CooMatrix, CsrMatrix, TensorError};

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
/// The functional engine's panel scratch (`tailors_sim::functional`) is
/// built on this type; its tests pin the engine's output bit-identical to
/// [`spmspm`], and the property suite pins this type to a classic dense
/// scratch with a sorted touched list.
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
    /// `row` and `col` inside the current shape are preconditions checked only
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
    /// accumulated value is exactly `0.0` (matching [`spmspm`]'s
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

/// Sparse matrix-matrix multiply `Z = A·B`: Gustavson's row-wise
/// algorithm with a `HashMap` accumulator per output row.
///
/// Each output `(m, n)` starts at `0.0` and sums its `A[m, k]·B[k, n]`
/// terms over ascending `k` (the order of row `m` of `A`); entries whose
/// sum is exactly `0.0` are dropped.
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

/// `Z = A·Aᵀ`, the paper's evaluation workload (§5.3).
pub fn spmspm_a_at(a: &CsrMatrix) -> CsrMatrix {
    let at = a.transpose();
    spmspm(a, &at).expect("A and Aᵀ always have compatible shapes")
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
    fn transient_cancellation_keeps_output_sorted_and_deduped() {
        // Row 0 of A hits column 0 of Z through two paths that cancel
        // exactly, then a third that revives it: the accumulator entry
        // stays through the cancellation, and the hash-ordered emission
        // must still produce one sorted entry.
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
        assert_eq!(z.nnz(), 0);
    }

    #[test]
    fn spmspm_rejects_shape_mismatch() {
        let a = CsrMatrix::new(2, 3);
        let b = CsrMatrix::new(2, 3);
        assert!(matches!(
            spmspm(&a, &b),
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
    fn drained_spa_reshapes_without_emitting() {
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
