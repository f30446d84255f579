//! Sparse tensor substrate for the Tailors (MICRO 2023) reproduction.
//!
//! This crate provides everything the rest of the workspace needs to talk
//! about sparse matrices the way the paper does:
//!
//! * [`CooMatrix`] / [`CsrMatrix`] — concrete sparse formats; CSR doubles as
//!   a compressed-sparse-fiber view (each row is a fiber of
//!   (coordinate, value) pairs, see [`fiber`]). [`CsrBuilder`] builds CSR
//!   row by row through the [`RowSink`] interface every generator writes
//!   to, and holds the one sort-and-merge both paths share.
//! * [`MatrixProfile`] — the per-row / per-column nonzero-count summary that
//!   the analytical accelerator model consumes. Panel (tile) occupancies are
//!   O(1) prefix-sum lookups.
//! * [`tiling`] — coordinate-space tiling (row panels spanning the shared
//!   dimension, and 2-D grid tiles for Fig. 1-style studies) together with
//!   tile-occupancy extraction.
//! * [`stats`] — occupancy histograms, quantiles, geometric means and the
//!   error metrics used throughout the paper's evaluation.
//! * [`gen`] — deterministic synthetic matrix generators standing in for the
//!   SuiteSparse collection (banded linear-system matrices, power-law
//!   graphs, clustered road networks, uniform scatter).
//! * [`ops`] — reference sparse kernels (`A·Aᵀ`, `A·B`) used to validate the
//!   functional accelerator engine, plus exact effectual-multiply counts.
//!
//! # Example
//!
//! ```
//! use tailors_tensor::{gen, tiling::RowPanels};
//!
//! // A small banded "linear system" matrix, deterministic for a given seed.
//! let a = gen::GenSpec::banded(1_000, 1_000, 20_000).seed(7).generate();
//! let profile = a.profile();
//!
//! // Tile it into row panels of 100 rows and look at occupancy variability.
//! let panels = RowPanels::new(&profile, 100);
//! let occ: Vec<u64> = panels.occupancies().collect();
//! assert_eq!(occ.iter().sum::<u64>(), a.nnz() as u64);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod coo;
mod csr;
mod profile;

pub mod fiber;
pub mod gen;
pub mod ops;
pub mod stats;
pub mod tiling;

pub use coo::CooMatrix;
pub use csr::{CsrBuilder, CsrMatrix, RowSink};
pub use profile::MatrixProfile;

/// Errors produced when constructing or manipulating sparse matrices.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum TensorError {
    /// A coordinate lies outside the matrix shape.
    CoordOutOfBounds {
        /// Row coordinate of the offending entry.
        row: usize,
        /// Column coordinate of the offending entry.
        col: usize,
        /// Number of rows in the matrix.
        nrows: usize,
        /// Number of columns in the matrix.
        ncols: usize,
    },
    /// Two matrices have incompatible shapes for the requested operation.
    ShapeMismatch {
        /// Shape of the left-hand operand.
        left: (usize, usize),
        /// Shape of the right-hand operand.
        right: (usize, usize),
    },
    /// A structurally invalid CSR buffer was supplied.
    InvalidCsr(&'static str),
}

impl core::fmt::Display for TensorError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            TensorError::CoordOutOfBounds {
                row,
                col,
                nrows,
                ncols,
            } => write!(
                f,
                "coordinate ({row}, {col}) out of bounds for {nrows}x{ncols} matrix"
            ),
            TensorError::ShapeMismatch { left, right } => write!(
                f,
                "shape mismatch: {}x{} is incompatible with {}x{}",
                left.0, left.1, right.0, right.1
            ),
            TensorError::InvalidCsr(msg) => write!(f, "invalid CSR structure: {msg}"),
        }
    }
}

impl std::error::Error for TensorError {}

/// Folds `bytes` into the running 64-bit FNV-1a state `seed` and returns
/// the new state; start from the offset basis `0xcbf2_9ce4_8422_2325`.
/// Chained calls hash the concatenation of their inputs. Unlike
/// `DefaultHasher` (seeded per process, algorithm not guaranteed stable),
/// the result depends only on the bytes, so it can key caches across
/// runs, processes and platforms.
pub fn fnv1a(seed: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(seed, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[cfg(test)]
mod tests {
    use super::fnv1a;

    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

    #[test]
    fn fnv1a_matches_reference_vectors_and_chains() {
        assert_eq!(fnv1a(OFFSET, b""), OFFSET);
        assert_eq!(fnv1a(OFFSET, b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(OFFSET, b"foobar"), 0x8594_4171_f739_67e8);
        assert_eq!(
            fnv1a(fnv1a(OFFSET, b"foo"), b"bar"),
            fnv1a(OFFSET, b"foobar")
        );
    }
}
