//! Fibers: sorted coordinate/value streams, and their intersection.
//!
//! In the terminology the paper adopts from Sze et al., a *fiber* is a
//! one-dimensional slice of a compressed tensor: a stream of
//! `(coordinate, value)` pairs with strictly increasing coordinates.
//! ExTensor's core compute primitive is the *intersection* of two coordinate
//! streams over the shared dimension, which this module implements both as a
//! lazy iterator and with explicit scan-cost accounting (the accelerator
//! model charges cycles for every coordinate scanned, not just for matches).

/// A borrowed fiber: a sorted stream of `(coordinate, value)` pairs.
///
/// # Example
///
/// ```
/// use tailors_tensor::fiber::Fiber;
///
/// let a = Fiber::new(&[1, 3, 5], &[1.0, 2.0, 3.0]);
/// let b = Fiber::new(&[3, 4, 5], &[10.0, 20.0, 30.0]);
/// let matches: Vec<_> = a.intersect(&b).collect();
/// assert_eq!(matches, vec![(3, 2.0, 10.0), (5, 3.0, 30.0)]);
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

    /// Lazily intersects two fibers, yielding `(coord, self_val, other_val)`
    /// for every shared coordinate.
    pub fn intersect<'b>(&self, other: &Fiber<'b>) -> Intersect<'a, 'b> {
        Intersect {
            a: *self,
            b: Fiber {
                coords: other.coords,
                vals: other.vals,
            },
            ai: 0,
            bi: 0,
        }
    }

    /// Intersects two fibers while counting scan work, ExTensor-style.
    ///
    /// Returns `(matches, coords_scanned)`: the matching coordinate count and
    /// the total number of coordinate-stream elements the two-finger scan
    /// advanced past. The accelerator model charges intersection-unit cycles
    /// proportional to `coords_scanned`; this merge is the definition of that
    /// count.
    pub fn intersect_counted(&self, other: &Fiber<'_>) -> (usize, usize) {
        let (mut ai, mut bi) = (0usize, 0usize);
        let (mut matches, mut scanned) = (0usize, 0usize);
        while ai < self.coords.len() && bi < other.coords.len() {
            scanned += 1;
            match self.coords[ai].cmp(&other.coords[bi]) {
                core::cmp::Ordering::Equal => {
                    matches += 1;
                    ai += 1;
                    bi += 1;
                }
                core::cmp::Ordering::Less => ai += 1,
                core::cmp::Ordering::Greater => bi += 1,
            }
        }
        (matches, scanned)
    }

    /// Dot product of two fibers (sum over the intersection).
    pub fn dot(&self, other: &Fiber<'_>) -> f64 {
        self.intersect(other).map(|(_, a, b)| a * b).sum()
    }
}

/// Iterator over the intersection of two fibers.
///
/// Produced by [`Fiber::intersect`].
#[derive(Debug, Clone)]
pub struct Intersect<'a, 'b> {
    a: Fiber<'a>,
    b: Fiber<'b>,
    ai: usize,
    bi: usize,
}

impl Iterator for Intersect<'_, '_> {
    type Item = (u32, f64, f64);

    fn next(&mut self) -> Option<Self::Item> {
        while self.ai < self.a.len() && self.bi < self.b.len() {
            let (ca, cb) = (self.a.coords[self.ai], self.b.coords[self.bi]);
            match ca.cmp(&cb) {
                core::cmp::Ordering::Equal => {
                    let out = (ca, self.a.vals[self.ai], self.b.vals[self.bi]);
                    self.ai += 1;
                    self.bi += 1;
                    return Some(out);
                }
                core::cmp::Ordering::Less => self.ai += 1,
                core::cmp::Ordering::Greater => self.bi += 1,
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intersect_finds_shared_coords() {
        let a = Fiber::new(&[0, 2, 4, 6], &[1.0, 2.0, 3.0, 4.0]);
        let b = Fiber::new(&[2, 3, 6], &[5.0, 6.0, 7.0]);
        let out: Vec<_> = a.intersect(&b).collect();
        assert_eq!(out, vec![(2, 2.0, 5.0), (6, 4.0, 7.0)]);
    }

    #[test]
    fn intersect_empty_is_empty() {
        let a = Fiber::new(&[], &[]);
        let b = Fiber::new(&[1], &[1.0]);
        assert_eq!(a.intersect(&b).count(), 0);
        assert_eq!(b.intersect(&a).count(), 0);
        assert!(a.is_empty());
    }

    #[test]
    fn intersect_disjoint_scans_everything() {
        let a = Fiber::new(&[0, 1, 2], &[1.0; 3]);
        let b = Fiber::new(&[10, 11], &[1.0; 2]);
        let (matches, scanned) = a.intersect_counted(&b);
        assert_eq!(matches, 0);
        // The two-finger scan advances through all of `a` before exhausting.
        assert_eq!(scanned, 3);
    }

    #[test]
    fn intersect_counted_matches_iterator() {
        let a = Fiber::new(&[1, 4, 9, 16], &[1.0; 4]);
        let b = Fiber::new(&[2, 4, 8, 16], &[1.0; 4]);
        let (matches, _) = a.intersect_counted(&b);
        assert_eq!(matches, a.intersect(&b).count());
    }

    #[test]
    fn dot_product() {
        let a = Fiber::new(&[1, 3], &[2.0, 3.0]);
        let b = Fiber::new(&[3, 5], &[4.0, 5.0]);
        assert_eq!(a.dot(&b), 12.0);
    }

    #[test]
    #[should_panic(expected = "parallel")]
    fn mismatched_slices_panic() {
        let _ = Fiber::new(&[1, 2], &[1.0]);
    }
}
