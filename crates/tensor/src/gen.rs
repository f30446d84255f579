//! Deterministic synthetic sparse-matrix generators.
//!
//! The paper evaluates on 22 SuiteSparse matrices (Table 2). This repository
//! cannot ship those datasets, so it generates synthetic stand-ins that
//! reproduce the properties the evaluation actually depends on:
//!
//! * dimensions and nonzero counts (Table 2),
//! * the *tile-occupancy distribution* shape — uniform vs heavy-tailed vs
//!   clustered — which §6 identifies as the driver of every result,
//! * qualitative structure: linear-system matrices are diagonally banded
//!   with off-diagonal scatter; graph matrices have heavy-tailed degrees;
//!   road networks are near-diagonal with a few dense urban clusters.
//!
//! All generators are deterministic for a given seed.
//!
//! Each family has one body that writes its rows, in row order, into a
//! [`RowSink`]. The banded and power-law generators draw their entries row
//! by row and stream them straight in. The clustered and uniform
//! generators draw rows in random order, so they collect each entry's row
//! and column and bucket them by row with the counting sort behind
//! [`CsrMatrix::from_coo`]. The RNG draws only the pattern: an entry's
//! value is a pure function of the seed and its coordinate, computed as
//! the entry is fed to the sink. [`GenSpec::generate`] points the stream
//! at a [`CsrBuilder`], whose sort-and-merge decides the matrix's bits.
//! [`GenSpec::pattern`] points the same stream at a pattern-only sink that
//! keeps neither values nor sorted rows: it yields the occupancy profile
//! and [`CsrMatrix::pattern_hash`] of the matrix `generate` would build.
//! Both sinks see the same draws, so the two agree exactly.
//!
//! The power-law family draws its columns by weight through a guide
//! table: the draw of rand's `WeightedIndex` (one uniform `f64` scaled to
//! the total weight, then the first cumulative weight above it), found
//! from a per-bucket start index and a short scan instead of a binary
//! search, so the chosen column is the same, bit for bit.

use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

use crate::coo::bucket_rows;
use crate::csr::{mix64, pattern_term, seal_pattern};
use crate::{CsrBuilder, CsrMatrix, MatrixProfile, RowSink};

/// Structural family of a synthetic matrix.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum Structure {
    /// Linear-system style: a dense diagonal band plus random scatter, with
    /// per-region degree modulation to create panel-scale occupancy
    /// variability (the paper's rma10/cant/consph/... family).
    Banded {
        /// Half-width of the diagonal band, as a fraction of `ncols`.
        band_halfwidth_frac: f64,
        /// Fraction of nonzeros placed uniformly at random instead of in the
        /// band.
        scatter_frac: f64,
        /// Log-normal sigma of the per-block row-degree multiplier; `0.0`
        /// gives uniform rows, larger values give more tile-occupancy
        /// variability.
        degree_variability: f64,
    },
    /// Graph style: heavy-tailed (Zipf) row degrees with preferential column
    /// attachment (the email/soc/sx/web/amazon family).
    PowerLaw {
        /// Rank exponent of the degree sequence: `deg(rank i) ∝ i^-alpha`.
        /// A degree PDF `P(d) ∝ d^-γ` corresponds to `alpha = 1/(γ-1)`, so
        /// real graphs (γ ≈ 2.2–3) map to `alpha ≈ 0.5–0.8`; larger = heavier
        /// tail.
        alpha: f64,
        /// Fraction of high-degree rows packed into contiguous id ranges
        /// (`0.0` = degrees shuffled uniformly over row ids, `1.0` = all
        /// hubs clustered). Clustering is what creates tile-occupancy
        /// asymmetry.
        hub_clustering: f64,
    },
    /// Road-network style: uniformly low degree near the diagonal, plus a
    /// small fraction of row-id space ("urban clusters") holding a large
    /// share of the nonzeros (the paper's roadNet-CA, whose tile-occupancy
    /// distribution it describes as highly asymmetric).
    Clustered {
        /// Fraction of the row-id space covered by dense clusters.
        cluster_frac: f64,
        /// Share of all nonzeros placed inside the clusters.
        cluster_share: f64,
    },
    /// Uniform random scatter (maximally uniform tile occupancy).
    Uniform,
}

/// Specification for one synthetic matrix. Construct with the
/// [`GenSpec::banded`] / [`GenSpec::power_law`] / [`GenSpec::clustered`] /
/// [`GenSpec::uniform`] constructors, optionally override the seed, then
/// call [`GenSpec::generate`].
///
/// # Example
///
/// ```
/// use tailors_tensor::gen::GenSpec;
///
/// let a = GenSpec::power_law(10_000, 10_000, 80_000).seed(42).generate();
/// let b = GenSpec::power_law(10_000, 10_000, 80_000).seed(42).generate();
/// assert_eq!(a.nnz(), b.nnz()); // fully deterministic
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct GenSpec {
    nrows: usize,
    ncols: usize,
    target_nnz: usize,
    structure: Structure,
    seed: u64,
}

impl GenSpec {
    /// A banded linear-system matrix with default band parameters.
    pub fn banded(nrows: usize, ncols: usize, target_nnz: usize) -> Self {
        GenSpec {
            nrows,
            ncols,
            target_nnz,
            structure: Structure::Banded {
                band_halfwidth_frac: 0.01,
                scatter_frac: 0.1,
                degree_variability: 0.6,
            },
            seed: 0,
        }
    }

    /// A power-law graph matrix with default exponent and clustering.
    pub fn power_law(nrows: usize, ncols: usize, target_nnz: usize) -> Self {
        GenSpec {
            nrows,
            ncols,
            target_nnz,
            structure: Structure::PowerLaw {
                alpha: 0.7,
                hub_clustering: 0.5,
            },
            seed: 0,
        }
    }

    /// A clustered road-network-style matrix.
    pub fn clustered(nrows: usize, ncols: usize, target_nnz: usize) -> Self {
        GenSpec {
            nrows,
            ncols,
            target_nnz,
            structure: Structure::Clustered {
                cluster_frac: 0.02,
                cluster_share: 0.5,
            },
            seed: 0,
        }
    }

    /// A uniform random matrix.
    pub fn uniform(nrows: usize, ncols: usize, target_nnz: usize) -> Self {
        GenSpec {
            nrows,
            ncols,
            target_nnz,
            structure: Structure::Uniform,
            seed: 0,
        }
    }

    /// Overrides the RNG seed (default 0).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Overrides the structural family.
    pub fn structure(mut self, structure: Structure) -> Self {
        self.structure = structure;
        self
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Requested nonzero count (the generated matrix lands close to, but not
    /// exactly on, this figure because duplicate coordinates collapse).
    pub fn target_nnz(&self) -> usize {
        self.target_nnz
    }

    /// The expected time of this spec's pattern stream
    /// ([`GenSpec::pattern`]) in picoseconds: a scheduling weight for
    /// batching cold requests, not a measurement. Each family's cost per
    /// drawn entry and per row is a least-squares fit to the suite
    /// members' `pattern()` times at 1/64 scale (best of 15, one pinned
    /// core of a 2-vCPU x86-64 VM); per family, the fitted times sum to
    /// within 6 % of the measured total that the family's
    /// `tensor/pattern_*_1_64` bench row times. A power-law entry costs about
    /// 4× a banded one (weighted column draws, rejected duplicates), and a
    /// power-law row carries its rank, degree and guide-table setup. The
    /// clustered and uniform families share one body (entries drawn in
    /// random row order, then bucketed by row), so they share constants.
    pub fn stream_cost(&self) -> u128 {
        let (per_entry, per_row): (u128, u128) = match self.structure {
            Structure::Banded { .. } => (3_400, 26_000),
            Structure::PowerLaw { .. } => (15_000, 66_000),
            Structure::Clustered { .. } | Structure::Uniform => (12_000, 20_000),
        };
        per_entry * self.target_nnz as u128 + per_row * self.nrows as u128
    }

    /// Generates the matrix.
    ///
    /// # Panics
    ///
    /// Panics if the spec is degenerate (zero dimensions with nonzero target,
    /// or a target that exceeds the coordinate space).
    pub fn generate(&self) -> CsrMatrix {
        let mut csr = CsrBuilder::with_capacity(self.nrows, self.ncols, self.target_nnz);
        self.emit(&mut csr);
        csr.finish()
    }

    /// The occupancy profile and [`CsrMatrix::pattern_hash`] of the matrix
    /// [`GenSpec::generate`] builds, computed from the same row stream
    /// without storing a value or sorting a row.
    ///
    /// # Example
    ///
    /// ```
    /// use tailors_tensor::gen::GenSpec;
    ///
    /// let spec = GenSpec::banded(2_000, 2_000, 20_000).seed(3);
    /// let m = spec.generate();
    /// assert_eq!(spec.pattern(), (m.profile(), m.pattern_hash()));
    /// ```
    ///
    /// # Panics
    ///
    /// As [`GenSpec::generate`].
    pub fn pattern(&self) -> (MatrixProfile, u64) {
        let mut sink = PatternSink::new(self.nrows, self.ncols);
        self.emit(&mut sink);
        sink.finish()
    }

    /// Streams the spec's rows into `sink`: the one body per family that
    /// both [`GenSpec::generate`] and [`GenSpec::pattern`] run.
    fn emit(&self, sink: &mut impl RowSink) {
        assert!(
            self.target_nnz == 0 || (self.nrows > 0 && self.ncols > 0),
            "cannot place nonzeros in an empty matrix"
        );
        let space = self.nrows as u128 * self.ncols as u128;
        assert!(
            self.target_nnz as u128 <= space,
            "target_nnz exceeds the coordinate space"
        );
        let mut rng = StdRng::seed_from_u64(self.seed ^ SEED_MIX);
        let out = &mut Rows {
            sink,
            key: mix64(self.seed ^ SEED_MIX),
            row: 0,
        };
        match &self.structure {
            Structure::Banded {
                band_halfwidth_frac,
                scatter_frac,
                degree_variability,
            } => self.gen_banded(
                &mut rng,
                *band_halfwidth_frac,
                *scatter_frac,
                *degree_variability,
                out,
            ),
            Structure::PowerLaw {
                alpha,
                hub_clustering,
            } => self.gen_power_law(&mut rng, *alpha, *hub_clustering, out),
            Structure::Clustered {
                cluster_frac,
                cluster_share,
            } => self.gen_clustered(&mut rng, *cluster_frac, *cluster_share, out),
            Structure::Uniform => self.gen_uniform(&mut rng, out),
        }
    }

    /// Distributes `target_nnz` across rows according to per-row weights.
    fn degrees_from_weights(&self, weights: &[f64]) -> Vec<usize> {
        let total: f64 = weights.iter().sum();
        if total <= 0.0 {
            return vec![0; self.nrows];
        }
        let mut degrees: Vec<usize> = weights
            .iter()
            .map(|w| ((w / total) * self.target_nnz as f64).floor() as usize)
            .collect();
        // Distribute the rounding remainder to the highest-weighted rows so
        // the total hits the target exactly (pre-dedup).
        let assigned: usize = degrees.iter().sum();
        bump_heaviest(
            &mut degrees,
            weights,
            self.target_nnz.saturating_sub(assigned),
        );
        // No row can exceed the column count.
        for d in &mut degrees {
            *d = (*d).min(self.ncols);
        }
        degrees
    }

    fn gen_banded(
        &self,
        rng: &mut StdRng,
        band_halfwidth_frac: f64,
        scatter_frac: f64,
        degree_variability: f64,
        out: &mut Rows<impl RowSink>,
    ) {
        // The band must hold the per-row degree with headroom or duplicate
        // coordinates collapse; widen it beyond the nominal fraction when
        // rows are dense relative to the matrix size (small scaled runs).
        let mean_deg = self.target_nnz / self.nrows.max(1);
        let halfwidth = ((self.ncols as f64 * band_halfwidth_frac) as usize)
            .max(2 * mean_deg + 1)
            .max(1);
        // Multi-scale per-block degree modulation: coarse and fine row
        // blocks each carry a log-normal multiplier (Box-Muller), creating
        // the heavy-tailed panel-scale occupancy variability the paper
        // attributes to FEM matrices' dense diagonal regions. Two scales
        // matter: variability must survive aggregation into panels of
        // thousands of rows (coarse) while still differentiating small PE
        // subtiles (fine).
        let mut lognormal = |sigma: f64| -> f64 {
            let u1: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
            let u2: f64 = rng.gen::<f64>();
            let normal = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
            (sigma * normal).exp()
        };
        let sigma = 1.2 * degree_variability / std::f64::consts::SQRT_2;
        let coarse_block = (self.nrows / 16).max(1);
        let fine_block = (self.nrows / 256).max(1);
        let coarse: Vec<f64> = (0..self.nrows.div_ceil(coarse_block))
            .map(|_| lognormal(sigma))
            .collect();
        let fine: Vec<f64> = (0..self.nrows.div_ceil(fine_block))
            .map(|_| lognormal(sigma))
            .collect();
        let weights: Vec<f64> = (0..self.nrows)
            .map(|r| coarse[r / coarse_block] * fine[r / fine_block])
            .collect();
        let degrees = self.degrees_from_weights(&weights);
        // One draw per entry: its high half scatters the entry when it
        // falls below `scatter_frac` of 2^32, and its low half picks the
        // column in the band, or anywhere in the row when scattered, by
        // multiply-shift: `gen_range`'s rule at 32 bits.
        let scatter_below = (scatter_frac * 2f64.powi(32)) as u64;
        let anywhere = (0, self.ncols as u64);
        for (r, &deg) in degrees.iter().enumerate() {
            let lo = r
                .saturating_sub(halfwidth)
                .min(self.ncols.saturating_sub(1));
            let hi = (r + halfwidth + 1).min(self.ncols);
            let band = if lo < hi {
                (lo as u64, (hi - lo) as u64)
            } else {
                anywhere
            };
            for _ in 0..deg {
                let draw = rng.next_u64();
                let (start, span) = if draw >> 32 < scatter_below {
                    anywhere
                } else {
                    band
                };
                out.push((start + ((u64::from(draw as u32) * span) >> 32)) as u32);
            }
            out.finish_row();
        }
    }

    fn gen_power_law(
        &self,
        rng: &mut StdRng,
        alpha: f64,
        hub_clustering: f64,
        out: &mut Rows<impl RowSink>,
    ) {
        // Zipf rank weights, assigned to rows either clustered or shuffled.
        // Hub degrees are capped (real web/social graphs cap out well below
        // their nnz: webbase-1M's max degree is ≈4.7 K of 3.1 M nonzeros,
        // web-Google's is ≈460 of 5.1 M); heavier-tailed specs get looser
        // caps so the cap tracks the intended variability.
        let cap_weight_share = 0.0002 + 0.0015 * hub_clustering;
        let mut rank_weights: Vec<f64> = (0..self.nrows)
            .map(|i| 1.0 / ((i + 1) as f64).powf(alpha))
            .collect();
        let total_w: f64 = rank_weights.iter().sum();
        // Never cap below ~20x the mean weight, so small matrices keep
        // meaningful hubs; the share term dominates at realistic scales.
        let floor_share = 20.0 / self.nrows.max(1) as f64;
        let max_w = total_w * cap_weight_share.max(floor_share);
        for w in &mut rank_weights {
            *w = w.min(max_w);
        }
        // Assign ranks to row ids: clustered hubs stay contiguous at the
        // front with probability `hub_clustering`, otherwise get shuffled.
        let mut row_weights = vec![0.0f64; self.nrows];
        let mut free: Vec<usize> = (0..self.nrows).collect();
        // Shuffle the free list once; clustered ranks take consecutive slots
        // starting at a random base, scattered ranks take shuffled slots.
        for i in (1..free.len()).rev() {
            let j = rng.gen_range(0..=i);
            free.swap(i, j);
        }
        let cluster_base = rng.gen_range(0..self.nrows.max(1));
        let mut cluster_next = cluster_base;
        let mut scattered_next = 0usize;
        for w in rank_weights {
            if rng.gen::<f64>() < hub_clustering {
                row_weights[cluster_next % self.nrows] += w;
                cluster_next += 1;
            } else {
                row_weights[free[scattered_next % free.len()]] += w;
                scattered_next += 1;
            }
        }
        let degrees = self.degrees_from_weights(&row_weights);
        // Column attachment: preferential by the same weight profile (so
        // column degrees are heavy-tailed too), mixed with a uniform floor
        // to bound duplicate-sampling collisions on hub rows.
        let mean_w = row_weights.iter().sum::<f64>() / self.nrows.max(1) as f64;
        let col_dist = GuideTable::new(
            (0..self.ncols).map(|c| row_weights[c % self.nrows] + 0.5 * mean_w + 1e-12),
        );
        // `taken` marks the columns drawn into the current row; `row` lists
        // them so the marks can be cleared without sweeping all columns.
        let mut taken = vec![false; self.ncols];
        let mut row: Vec<u32> = Vec::new();
        for &deg in &degrees {
            // Sample distinct columns by rejection with a bounded budget;
            // rows close to full width may end short of their degree
            // (degrees are capped at ncols upstream).
            let budget = deg * 6 + 16;
            let mut attempts = 0;
            while row.len() < deg && attempts < budget {
                attempts += 1;
                let c = col_dist.sample(rng);
                if !taken[c] {
                    taken[c] = true;
                    row.push(c as u32);
                    out.push(c as u32);
                }
            }
            for c in row.drain(..) {
                taken[c as usize] = false;
            }
            out.finish_row();
        }
    }

    fn gen_clustered(
        &self,
        rng: &mut StdRng,
        cluster_frac: f64,
        cluster_share: f64,
        out: &mut Rows<impl RowSink>,
    ) {
        let in_cluster_nnz = (self.target_nnz as f64 * cluster_share) as usize;
        let background_nnz = self.target_nnz - in_cluster_nnz;
        let mut drawn = Scattered::with_capacity(self.target_nnz);
        // Background: near-diagonal low-degree structure (grid roads). Size
        // the band so duplicate collapse stays small (≥4 cells per sample).
        let min_halfwidth = (4 * background_nnz / self.nrows.max(1)).div_ceil(2);
        let halfwidth = (self.ncols / 1000).max(2).max(min_halfwidth);
        for _ in 0..background_nnz {
            let r = rng.gen_range(0..self.nrows);
            let lo = r
                .saturating_sub(halfwidth)
                .min(self.ncols.saturating_sub(1));
            let hi = (r + halfwidth + 1).min(self.ncols);
            let c = if lo < hi {
                rng.gen_range(lo..hi)
            } else {
                rng.gen_range(0..self.ncols)
            };
            drawn.push(r, c);
        }
        // Clusters: dense diagonal blocks ("urban cores") with power-law
        // sizes, so the tile-occupancy distribution stays heavy-tailed at
        // every panel granularity (the property §6.2 attributes to
        // roadNet-CA: very few very dense tiles, many sparse ones). Each
        // block is sized for ~15 % internal density so it actually holds
        // its share.
        let n_clusters = 24usize;
        let rank_weights: Vec<f64> = (1..=n_clusters).map(|i| 1.0 / i as f64).collect();
        let weight_total: f64 = rank_weights.iter().sum();
        let cluster_nnz: Vec<usize> = rank_weights
            .iter()
            .map(|w| ((w / weight_total) * in_cluster_nnz as f64) as usize)
            .collect();
        let max_side = self.nrows.min(self.ncols);
        let sides: Vec<usize> = cluster_nnz
            .iter()
            .map(|&q| {
                let geo = ((q.max(1) as f64 / 0.15).sqrt().ceil()) as usize;
                let frac = ((self.nrows as f64 * cluster_frac / n_clusters as f64) as usize).max(1);
                geo.max(frac).clamp(1, max_side)
            })
            .collect();
        let starts: Vec<usize> = sides
            .iter()
            .map(|&side| rng.gen_range(0..self.nrows.saturating_sub(side).max(1)))
            .collect();
        for (k, &q) in cluster_nnz.iter().enumerate() {
            let (start, side) = (starts[k], sides[k]);
            for _ in 0..q {
                let r = (start + rng.gen_range(0..side)).min(self.nrows - 1);
                let c = (start + rng.gen_range(0..side)).min(self.ncols - 1);
                drawn.push(r, c);
            }
        }
        drawn.feed_rows(self.nrows, out);
    }

    fn gen_uniform(&self, rng: &mut StdRng, out: &mut Rows<impl RowSink>) {
        let mut drawn = Scattered::with_capacity(self.target_nnz);
        for _ in 0..self.target_nnz {
            let r = rng.gen_range(0..self.nrows);
            let c = rng.gen_range(0..self.ncols);
            drawn.push(r, c);
        }
        drawn.feed_rows(self.nrows, out);
    }
}

/// The sink as the family bodies see it: they push columns in row order,
/// and each entry gets the value keyed by its coordinate on the way in.
struct Rows<'a, S> {
    sink: &'a mut S,
    /// The spec's value key, derived from its seed.
    key: u64,
    /// The open row.
    row: usize,
}

impl<S: RowSink> Rows<'_, S> {
    fn push(&mut self, col: u32) {
        self.sink.push(col, value(self.key, self.row, col));
    }

    fn finish_row(&mut self) {
        self.sink.finish_row();
        self.row += 1;
    }
}

/// Entries a random-order family has drawn, in draw order.
struct Scattered {
    rows: Vec<u32>,
    cols: Vec<u32>,
}

impl Scattered {
    fn with_capacity(cap: usize) -> Self {
        Scattered {
            rows: Vec::with_capacity(cap),
            cols: Vec::with_capacity(cap),
        }
    }

    /// Records an entry at `(row, col)`, which lies inside the matrix by
    /// construction.
    fn push(&mut self, row: usize, col: usize) {
        self.rows.push(row as u32);
        self.cols.push(col as u32);
    }

    /// Streams the entries out in row order, each row keeping draw order,
    /// as [`CsrMatrix::from_coo`] would stream them.
    fn feed_rows(self, nrows: usize, out: &mut Rows<impl RowSink>) {
        bucket_rows(nrows, &self.rows, self.cols, |row| {
            for &c in row {
                out.push(c);
            }
            out.finish_row();
        });
    }
}

/// Draws indices in proportion to non-negative weights, exactly as the
/// `rand` shim's `WeightedIndex` does: one `gen::<f64>()` scaled by the
/// total weight, then the first index whose cumulative weight exceeds it,
/// clamped to the last index. A guide table replaces the binary search.
/// The draw falls in one of `len` buckets of equal weight, and the bucket
/// stores the first index past its lower edge. When no weight is far
/// below the mean (every power-law column weight is at least about a
/// third of it), the answer lies within a few indices after that start,
/// so the scan from there is short and, over its first window,
/// branch-free. It steps back first in case rounding put the draw below
/// its bucket's edge, so the index is exact whatever the bucket
/// arithmetic did.
struct GuideTable {
    cumulative: Vec<f64>,
    /// `guide[b]` is the first index whose cumulative weight exceeds the
    /// lower edge of bucket `b`.
    guide: Vec<u32>,
    total: f64,
    /// Buckets per unit of weight.
    scale: f64,
}

impl GuideTable {
    /// # Panics
    ///
    /// Panics if there are no weights, if a weight is negative or NaN, or
    /// if the total is zero or infinite.
    fn new(weights: impl IntoIterator<Item = f64>) -> Self {
        let mut total = 0.0f64;
        let cumulative: Vec<f64> = weights
            .into_iter()
            .map(|w| {
                assert!(w >= 0.0, "weights must be non-negative");
                total += w;
                total
            })
            .collect();
        assert!(
            total > 0.0 && total.is_finite(),
            "weights must have a positive, finite total"
        );
        let len = cumulative.len();
        assert!(
            len <= u32::MAX as usize,
            "index count must fit the u32 guide"
        );
        let scale = len as f64 / total;
        let mut i = 0;
        let guide = (0..len)
            .map(|b| {
                let edge = b as f64 / scale;
                while i < len && cumulative[i] <= edge {
                    i += 1;
                }
                i as u32
            })
            .collect();
        GuideTable {
            cumulative,
            guide,
            total,
            scale,
        }
    }

    fn sample(&self, rng: &mut StdRng) -> usize {
        self.locate(rng.gen::<f64>() * self.total)
    }

    /// The first index whose cumulative weight exceeds `x`, clamped to the
    /// last index.
    fn locate(&self, x: f64) -> usize {
        let c = &self.cumulative[..];
        let bucket = ((x * self.scale) as usize).min(c.len() - 1);
        let mut i = self.guide[bucket] as usize;
        while i > 0 && c[i - 1] > x {
            i -= 1;
        }
        // Every index before `i` is now at most `x`. The cumulative weights
        // never fall, so those in the window that are at most `x` are its
        // prefix, and counting them steps `i` past it without a branch.
        if let Some(window) = c.get(i..i + GUIDE_WINDOW) {
            i += window.iter().map(|&w| usize::from(w <= x)).sum::<usize>();
        }
        while i < c.len() && c[i] <= x {
            i += 1;
        }
        i.min(c.len() - 1)
    }
}

/// The pattern-only [`RowSink`] behind [`GenSpec::pattern`]: it counts
/// each row's distinct columns into the profile and sums their
/// [`CsrMatrix::pattern_hash`] terms, dropping values and never sorting.
struct PatternSink {
    /// One slot per column, so a push touches one cache line.
    cols: Vec<ColSlot>,
    /// Distinct entries per finished row; its length is the open row.
    row_nnz: Vec<u32>,
    /// Distinct entries in the open row.
    open: u32,
    /// Running sum of the distinct coordinates' hash terms.
    sum: u64,
}

/// A [`PatternSink`] column.
#[derive(Clone, Copy, Default)]
struct ColSlot {
    /// `r + 1` once the column has been seen in open row `r`, so a
    /// repeated coordinate counts once, as `CsrBuilder` merges it.
    stamp: u32,
    /// Distinct entries in the column so far.
    nnz: u32,
}

impl PatternSink {
    fn new(nrows: usize, ncols: usize) -> Self {
        assert!(
            nrows < u32::MAX as usize,
            "row count must fit the u32 stamps"
        );
        PatternSink {
            cols: vec![ColSlot::default(); ncols],
            row_nnz: Vec::with_capacity(nrows),
            open: 0,
            sum: 0,
        }
    }

    fn finish(self) -> (MatrixProfile, u64) {
        let (nrows, ncols) = (self.row_nnz.len(), self.cols.len());
        let nnz = self.row_nnz.iter().map(|&n| n as usize).sum();
        let hash = seal_pattern(nrows, ncols, nnz, self.sum);
        let col_nnz = self.cols.iter().map(|s| s.nnz).collect();
        let profile = MatrixProfile::new(nrows, ncols, self.row_nnz, col_nnz);
        (profile, hash)
    }
}

impl RowSink for PatternSink {
    /// Branch-free: banded rows draw many duplicates, so a branch on the
    /// stamp would mispredict often. A repeat adds zero to every count
    /// and a masked-out term to the sum.
    fn push(&mut self, col: u32, _val: f64) {
        let row = self.row_nnz.len();
        let mark = row as u32 + 1;
        let slot = &mut self.cols[col as usize];
        let new = u32::from(slot.stamp != mark);
        slot.stamp = mark;
        slot.nnz += new;
        self.open += new;
        let keep = u64::from(new).wrapping_neg();
        self.sum = self.sum.wrapping_add(pattern_term(row, col) & keep);
    }

    fn finish_row(&mut self) {
        self.row_nnz.push(self.open);
        self.open = 0;
    }
}

/// The value at `(row, col)` under value key `key`: a SplitMix64 mix of
/// the key and the packed coordinate, mapped uniformly into `[0.5, 1.5)`
/// with 53 bits, so products never cancel to zero and structural and
/// numerical nonzero counts stay identical. A repeated coordinate gets
/// the same value each time, so its merged entry is a whole multiple of it.
fn value(key: u64, row: usize, col: u32) -> f64 {
    let bits = mix64(key ^ ((row as u64) << 32 | u64::from(col)));
    0.5 + (bits >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Spreads `remainder` over the rows one at a time, cycling through them
/// in a total order: weight descending, then row ascending. Each row gets
/// `remainder / n`, and one selection under that order finds the
/// `remainder % n` rows that get one more, in linear time. The order is
/// total, so those rows are the same whatever the selection's algorithm.
fn bump_heaviest(degrees: &mut [usize], weights: &[f64], remainder: usize) {
    let n = weights.len();
    if remainder == 0 || n == 0 {
        return;
    }
    for d in degrees.iter_mut() {
        *d += remainder / n;
    }
    let rest = remainder % n;
    if rest > 0 {
        let mut order: Vec<usize> = (0..n).collect();
        let (top, _, _) = order.select_nth_unstable_by(rest, |&a, &b| {
            weights[b].total_cmp(&weights[a]).then(a.cmp(&b))
        });
        for &r in top.iter() {
            degrees[r] += 1;
        }
    }
}

/// Cumulative weights [`GuideTable::locate`] compares without branching
/// before it scans on: a bucket one mean weight wide rarely holds more
/// boundaries than this when every weight is at least a third of the mean.
const GUIDE_WINDOW: usize = 3;

/// Seed-mixing constant so `seed(0)` does not collide with `StdRng` defaults
/// elsewhere in the workspace.
const SEED_MIX: u64 = 0x7A11_0B5E_ED5E_ED00;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tiling::RowPanels;

    #[test]
    fn generators_hit_target_nnz_approximately() {
        for spec in [
            GenSpec::banded(2_000, 2_000, 20_000),
            GenSpec::power_law(2_000, 2_000, 20_000),
            GenSpec::clustered(2_000, 2_000, 20_000),
            GenSpec::uniform(2_000, 2_000, 20_000),
        ] {
            let m = spec.generate();
            assert_eq!(m.nrows(), 2_000);
            assert_eq!(m.ncols(), 2_000);
            let nnz = m.nnz() as f64;
            assert!(
                nnz > 0.85 * 20_000.0 && nnz <= 20_000.0,
                "nnz {} too far from target for {:?}",
                m.nnz(),
                spec
            );
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = GenSpec::power_law(500, 500, 3_000).seed(9).generate();
        let b = GenSpec::power_law(500, 500, 3_000).seed(9).generate();
        assert_eq!(a, b);
        let c = GenSpec::power_law(500, 500, 3_000).seed(10).generate();
        assert_ne!(a, c);
    }

    #[test]
    fn banded_concentrates_near_diagonal() {
        let m = GenSpec::banded(1_000, 1_000, 10_000).seed(1).generate();
        // Matches the generator's adaptive widening: max(0.01*1000, 2*10+1).
        let halfwidth = 21;
        let near = m
            .iter()
            .filter(|&(r, c, _)| (r as i64 - c as i64).unsigned_abs() as usize <= halfwidth)
            .count();
        // ~90% of entries target the band (minus duplicates and scatter).
        assert!(near as f64 > 0.7 * m.nnz() as f64);
    }

    #[test]
    fn power_law_has_heavy_tail() {
        let m = GenSpec::power_law(2_000, 2_000, 30_000).seed(3).generate();
        let p = m.profile();
        let max_deg = *p.row_nnz().iter().max().unwrap() as f64;
        let mean_deg = m.nnz() as f64 / 2_000.0;
        assert!(
            max_deg > 10.0 * mean_deg,
            "expected hub rows: max {max_deg}, mean {mean_deg}"
        );
    }

    #[test]
    fn clustered_has_asymmetric_panels() {
        let m = GenSpec::clustered(10_000, 10_000, 50_000)
            .seed(4)
            .generate();
        let p = m.profile();
        let panels = RowPanels::new(&p, 100);
        let occ: Vec<u64> = panels.occupancies().collect();
        let s = crate::stats::summarize(&occ).unwrap();
        // Few very dense panels, many sparse ones: max far above median.
        assert!(
            s.max as f64 > 4.0 * s.median.max(1) as f64,
            "expected asymmetry: {s:?}"
        );
    }

    #[test]
    fn uniform_has_even_panels() {
        let m = GenSpec::uniform(10_000, 10_000, 100_000).seed(5).generate();
        let p = m.profile();
        let panels = RowPanels::new(&p, 500);
        let occ: Vec<u64> = panels.occupancies().collect();
        let s = crate::stats::summarize(&occ).unwrap();
        assert!(
            (s.max as f64) < 1.5 * s.mean,
            "uniform scatter should have even panels: {s:?}"
        );
    }

    /// The remainder bump as a stable sort by weight descending, then row
    /// ascending, bumping rows cyclically in that order.
    fn bump_by_full_sort(degrees: &mut [usize], weights: &[f64], remainder: usize) {
        let mut order: Vec<usize> = (0..weights.len()).collect();
        order.sort_by(|&a, &b| weights[b].partial_cmp(&weights[a]).unwrap().then(a.cmp(&b)));
        for &r in order.iter().cycle().take(remainder) {
            degrees[r] += 1;
        }
    }

    #[test]
    fn selected_remainder_bumps_the_rows_a_full_sort_bumps() {
        let mut rng = StdRng::seed_from_u64(17);
        for case in 0..300 {
            let n = rng.gen_range(1..80usize);
            // Continuous weights, a few tied levels, or all equal: ties
            // are common, including across the selection boundary.
            let weights: Vec<f64> = (0..n)
                .map(|_| match case % 3 {
                    0 => rng.gen::<f64>(),
                    1 => rng.gen_range(0..4u32) as f64,
                    _ => 2.5,
                })
                .collect();
            let remainder = match case % 4 {
                0 => 2 * n + 3,
                _ => rng.gen_range(0..2 * n + 4),
            };
            let base: Vec<usize> = (0..n).map(|_| rng.gen_range(0..5usize)).collect();
            let (mut got, mut want) = (base.clone(), base);
            bump_heaviest(&mut got, &weights, remainder);
            bump_by_full_sort(&mut want, &weights, remainder);
            assert_eq!(
                got, want,
                "case {case}: weights {weights:?}, remainder {remainder}"
            );
        }
        // A tie straddling the cut: rows 0 and 2 share the second-heaviest
        // weight, and only the lower row id is bumped.
        let mut got = vec![0; 3];
        bump_heaviest(&mut got, &[1.0, 3.0, 1.0], 2);
        assert_eq!(got, [1, 1, 0]);
        // All weights equal and a remainder of `2n + 3`: two full rounds,
        // then the three lowest row ids.
        let mut got = vec![0; 5];
        bump_heaviest(&mut got, &[0.5; 5], 13);
        assert_eq!(got, [3, 3, 3, 2, 2]);
    }

    /// Records every coordinate the stream pushes, duplicates included.
    #[derive(Default)]
    struct Pushes {
        row: usize,
        coords: Vec<(usize, u32)>,
    }

    impl RowSink for Pushes {
        fn push(&mut self, col: u32, _val: f64) {
            self.coords.push((self.row, col));
        }

        fn finish_row(&mut self) {
            self.row += 1;
        }
    }

    /// Each banded draw scatters with probability `scatter_frac`, and a
    /// scattered column is uniform over the row, so the share of entries
    /// outside the band is `scatter_frac × (1 − band width / ncols)`, and
    /// half of those land in each half of the columns.
    #[test]
    fn banded_scatter_share_matches_scatter_frac() {
        let (n, scatter_frac) = (100_000, 0.3);
        // 1 % of 100k columns, well above the `2 * mean_deg + 1` floor.
        let halfwidth = 1_000;
        let spec = GenSpec::banded(n, n, 500_000)
            .seed(21)
            .structure(Structure::Banded {
                band_halfwidth_frac: 0.01,
                scatter_frac,
                degree_variability: 0.6,
            });
        let mut pushes = Pushes::default();
        spec.emit(&mut pushes);
        let total = pushes.coords.len();
        assert_eq!(total, 500_000);
        let outside: Vec<u32> = pushes
            .coords
            .iter()
            .filter(|&&(r, c)| (r as i64 - i64::from(c)).unsigned_abs() > halfwidth)
            .map(|&(_, c)| c)
            .collect();
        let share = outside.len() as f64 / total as f64;
        let want = scatter_frac * (1.0 - (2 * halfwidth + 1) as f64 / n as f64);
        // The sampling error is ~0.0007; the bands clipped at the matrix's
        // edges add at most 0.003.
        assert!(
            (share - want).abs() < 0.006,
            "outside share {share}, want {want}"
        );
        let upper = outside.iter().filter(|&&c| c as usize >= n / 2).count();
        let upper_share = upper as f64 / outside.len() as f64;
        assert!(
            (upper_share - 0.5).abs() < 0.01,
            "scattered columns in the upper half: {upper_share}"
        );
    }

    /// Every stored value is its coordinate's keyed value in `[0.5, 1.5)`,
    /// summed once per time the coordinate was drawn, and the symbolic
    /// work count sees the numeric product's every nonzero.
    #[test]
    fn values_are_keyed_multiples_and_never_cancel() {
        for spec in [
            GenSpec::banded(600, 600, 12_000),
            GenSpec::power_law(600, 600, 12_000),
            GenSpec::clustered(600, 600, 12_000),
            GenSpec::uniform(600, 600, 12_000),
        ] {
            let spec = spec.seed(5);
            let key = mix64(spec.seed ^ SEED_MIX);
            let m = spec.generate();
            let mut repeated = 0;
            for (r, c, v) in m.iter() {
                let base = value(key, r, c as u32);
                assert!((0.5..1.5).contains(&base), "{base}");
                let times = (v / base).round() as usize;
                assert!(times >= 1, "{spec:?} ({r}, {c}): {v} vs {base}");
                assert_eq!(
                    (1..times).fold(base, |s, _| s + base),
                    v,
                    "{spec:?} ({r}, {c})"
                );
                repeated += usize::from(times > 1);
            }
            let work = crate::ops::count_work(&m, &m.transpose()).unwrap();
            let product = crate::ops::spmspm_a_at(&m);
            let numeric_nnz = product.values().iter().filter(|&&v| v != 0.0).count();
            assert_eq!(work.output_nnz, numeric_nnz as u64, "{spec:?}");
            assert!(numeric_nnz > 0);
            if !matches!(spec.structure, Structure::PowerLaw { .. }) {
                assert!(repeated > 0, "{spec:?}: no merged duplicate to check");
            }
        }
    }

    /// Weights of one of five shapes the column sampler must draw exactly:
    /// continuous, a few tied levels with zeros among them, a single
    /// weight, the `1e-12` floor alone, and capped Zipf hubs over a floor
    /// of half the mean (the power-law column weights).
    fn sampler_weights(kind: usize, len: usize, rng: &mut StdRng) -> Vec<f64> {
        let len = if kind == 2 { 1 } else { len };
        let mut w: Vec<f64> = match kind {
            0 | 2 => (0..len).map(|_| rng.gen::<f64>() * 10.0).collect(),
            1 => (0..len).map(|_| rng.gen_range(0..3u32) as f64).collect(),
            3 => vec![1e-12; len],
            _ => {
                let zipf: Vec<f64> = (0..len).map(|i| 1.0 / (i + 1) as f64).collect();
                let cap = zipf.iter().sum::<f64>() * 0.05;
                let mean = zipf.iter().sum::<f64>() / len as f64;
                zipf.iter()
                    .map(|&z| z.min(cap) + 0.5 * mean + 1e-12)
                    .collect()
            }
        };
        if w.iter().all(|&x| x == 0.0) {
            w[len - 1] = 1.0;
        }
        w
    }

    /// The indices `WeightedIndex` defines, for draws at `x`.
    fn partition_rule(cumulative: &[f64], x: f64) -> usize {
        cumulative
            .partition_point(|&c| c <= x)
            .min(cumulative.len() - 1)
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(96))]

        /// The guide table picks the index the `partition_point` rule and
        /// the shim's `WeightedIndex` pick, draw for draw on one seeded
        /// stream, and at every cumulative boundary and bucket edge, where
        /// rounding decides.
        #[test]
        fn guide_table_draws_what_weighted_index_draws(
            kind in 0usize..5,
            len in 1usize..300,
            seed in 0u64..1_000,
        ) {
            use rand::distributions::{Distribution, WeightedIndex};
            let mut rng = StdRng::seed_from_u64(seed);
            let weights = sampler_weights(kind, len, &mut rng);
            let guide = GuideTable::new(weights.iter().copied());
            let weighted = WeightedIndex::new(&weights).expect("a positive weight");
            let mut total = 0.0;
            let cumulative: Vec<f64> = weights
                .iter()
                .map(|w| {
                    total += w;
                    total
                })
                .collect();
            let (mut by_guide, mut by_weighted) = (rng.clone(), rng.clone());
            for _ in 0..400 {
                let want = partition_rule(&cumulative, rng.gen::<f64>() * total);
                proptest::prop_assert_eq!(guide.sample(&mut by_guide), want);
                proptest::prop_assert_eq!(weighted.sample(&mut by_weighted), want);
            }
            let edges = (0..cumulative.len()).map(|b| b as f64 / guide.scale);
            for x in cumulative.iter().copied().chain(edges).chain([0.0, total]) {
                for x in [x, f64::from_bits(x.to_bits().saturating_sub(1)), f64::from_bits(x.to_bits() + 1)] {
                    proptest::prop_assert_eq!(
                        guide.locate(x),
                        partition_rule(&cumulative, x),
                        "kind {}, x {}",
                        kind,
                        x
                    );
                }
            }
        }
    }

    /// A hand-written stream with repeats within and across rows
    /// (adjacent and not), empty rows at both ends and in the middle, and
    /// both edge columns: the sink's counts and hash are those of the
    /// matrix `CsrBuilder` merges from the same pushes.
    #[test]
    fn pattern_sink_matches_the_built_matrix_on_edge_cases() {
        let ncols = 7;
        let rows: [&[u32]; 7] = [
            &[],
            &[6, 0, 6, 6, 3, 0],
            &[],
            &[3, 3, 3],
            &[0, 6, 1, 2, 3, 4, 5, 5, 0],
            &[6],
            &[],
        ];
        let mut sink = PatternSink::new(rows.len(), ncols);
        let mut csr = CsrBuilder::with_capacity(rows.len(), ncols, 0);
        for row in rows {
            for &col in row {
                sink.push(col, 1.0);
                csr.push(col, 1.0);
            }
            sink.finish_row();
            csr.finish_row();
        }
        let m = csr.finish();
        assert_eq!(m.nnz(), 12);
        assert_eq!(sink.finish(), (m.profile(), m.pattern_hash()));
    }

    #[test]
    fn zero_target_is_empty() {
        let m = GenSpec::uniform(10, 10, 0).generate();
        assert_eq!(m.nnz(), 0);
    }
}
