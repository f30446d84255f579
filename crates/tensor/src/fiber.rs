//! Fibers: sorted coordinate/value streams.
//!
//! In the terminology the paper adopts from Sze et al., a *fiber* is a
//! one-dimensional slice of a compressed tensor: a stream of
//! `(coordinate, value)` pairs with strictly increasing coordinates. A
//! [`crate::CsrMatrix`] row is one ([`crate::CsrMatrix::row`]).

/// A borrowed fiber: a sorted stream of `(coordinate, value)` pairs.
///
/// # Example
///
/// ```
/// use tailors_tensor::fiber::Fiber;
/// use tailors_tensor::CsrMatrix;
///
/// let m = CsrMatrix::from_triplets(2, 6, &[(0, 1, 1.0), (0, 3, 2.0), (0, 5, 3.0)]).unwrap();
/// let row: Fiber<'_> = m.row(0);
/// assert_eq!((row.coords(), row.values()), (&[1, 3, 5][..], &[1.0, 2.0, 3.0][..]));
/// assert_eq!(row.len(), 3);
/// assert!(m.row(1).is_empty());
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fiber<'a> {
    coords: &'a [u32],
    vals: &'a [f64],
}

impl<'a> Fiber<'a> {
    /// Creates a fiber from parallel coordinate and value slices.
    ///
    /// # Panics
    ///
    /// Panics if the slices have different lengths. Coordinates are assumed
    /// strictly increasing (guaranteed when the fiber comes from a
    /// [`crate::CsrMatrix`] row); this is checked only in debug builds.
    pub fn new(coords: &'a [u32], vals: &'a [f64]) -> Self {
        assert_eq!(coords.len(), vals.len(), "coords and vals must be parallel");
        debug_assert!(
            coords.windows(2).all(|w| w[0] < w[1]),
            "fiber coordinates must be strictly increasing"
        );
        Fiber { coords, vals }
    }

    /// The coordinate stream.
    pub fn coords(&self) -> &'a [u32] {
        self.coords
    }

    /// The value stream.
    pub fn values(&self) -> &'a [f64] {
        self.vals
    }

    /// Number of nonzeros in the fiber.
    pub fn len(&self) -> usize {
        self.coords.len()
    }

    /// Whether the fiber holds no nonzeros.
    pub fn is_empty(&self) -> bool {
        self.coords.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "parallel")]
    fn mismatched_slices_panic() {
        let _ = Fiber::new(&[1, 2], &[1.0]);
    }
}
