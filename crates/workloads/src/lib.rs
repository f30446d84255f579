//! The 22-tensor evaluation suite (paper Table 2) as synthetic workloads.
//!
//! The paper evaluates on SuiteSparse matrices. This crate encodes each
//! tensor's *published characteristics* — dimensions, sparsity (hence nnz),
//! and structural family — and generates a deterministic synthetic stand-in
//! with `tailors-tensor`'s generators. Structural knobs per tensor follow
//! the paper's own qualitative descriptions (§5.3, §6):
//!
//! * linear-system matrices (top half of Table 2) are diagonally banded
//!   with scatter and panel-scale degree modulation;
//! * graph matrices (bottom half) have heavy-tailed degrees, with hub
//!   clustering tuned from "uniformly distributed sparsity" (web-Google,
//!   patents_main) to "highly asymmetric" (webbase-1M);
//! * roadNet-CA is near-diagonal with a few dense clusters, giving the
//!   asymmetric tile-occupancy distribution §6.2 describes.
//!
//! # Example
//!
//! ```
//! use tailors_workloads::suite;
//!
//! let wl = suite().into_iter().find(|w| w.name == "amazon0312").unwrap();
//! // Scale down 64x for a quick run, keeping the average row degree.
//! let a = wl.scaled(1.0 / 64.0).generate();
//! assert!(a.nnz() > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod gencache;

use tailors_tensor::gen::{GenSpec, Structure};
use tailors_tensor::{CsrMatrix, MatrixProfile};

pub use gencache::{generate_cached, profile_cached};

/// Structural family of a workload tensor (Table 2 is split into these).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadClass {
    /// Built from a system of linear equations: dense diagonal band plus
    /// scattered off-diagonal entries.
    LinearSystem,
    /// Graph / data-analytics adjacency structure: heavy-tailed degrees.
    Graph,
    /// Road network: uniform low degree near the diagonal with dense urban
    /// clusters.
    RoadNetwork,
}

/// One workload from the paper's Table 2.
#[derive(Debug, Clone, PartialEq)]
pub struct Workload {
    /// SuiteSparse tensor name.
    pub name: &'static str,
    /// Rows (= columns; all suite tensors are square).
    pub nrows: usize,
    /// Columns.
    pub ncols: usize,
    /// Target nonzero count, derived from Table 2's dimensions and
    /// sparsity.
    pub target_nnz: usize,
    /// Structural family.
    pub class: WorkloadClass,
    /// Sparsity as printed in Table 2 (fraction of zeros).
    pub paper_sparsity: f64,
    /// Tile-occupancy variability knob: for graphs, the hub-clustering
    /// fraction; for linear systems, the degree-variability sigma; for road
    /// networks, the cluster nnz share.
    pub variability: f64,
    /// Generator seed (stable per workload).
    pub seed: u64,
}

impl Workload {
    /// Returns a copy scaled by `factor` in both dimensions and nnz, which
    /// preserves the average row degree and the occupancy-distribution
    /// shape. `factor = 1.0` is the paper-scale tensor.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is not in `(0, 1]`.
    pub fn scaled(&self, factor: f64) -> Workload {
        assert!(
            factor > 0.0 && factor <= 1.0,
            "scale factor must be in (0, 1]"
        );
        let mut w = self.clone();
        w.nrows = ((self.nrows as f64 * factor) as usize).max(64);
        w.ncols = ((self.ncols as f64 * factor) as usize).max(64);
        // Floors on the dimensions can collide with the nnz floor at very
        // small scales; never ask for more than half the coordinate space.
        w.target_nnz = ((self.target_nnz as f64 * factor) as usize)
            .max(256)
            .min(w.nrows * w.ncols / 2);
        w
    }

    /// The generator specification for this workload.
    pub fn gen_spec(&self) -> GenSpec {
        let structure = match self.class {
            WorkloadClass::LinearSystem => Structure::Banded {
                band_halfwidth_frac: 0.008,
                scatter_frac: 0.08,
                degree_variability: self.variability,
            },
            WorkloadClass::Graph => Structure::PowerLaw {
                alpha: 0.30 + 0.55 * self.variability,
                hub_clustering: self.variability,
            },
            WorkloadClass::RoadNetwork => Structure::Clustered {
                cluster_frac: 0.02,
                cluster_share: self.variability,
            },
        };
        GenSpec::banded(self.nrows, self.ncols, self.target_nnz)
            .structure(structure)
            .seed(self.seed)
    }

    /// Generates the synthetic tensor.
    pub fn generate(&self) -> CsrMatrix {
        self.gen_spec().generate()
    }

    /// The occupancy profile and
    /// [`CsrMatrix::pattern_hash`] of the tensor [`Workload::generate`]
    /// builds, from the generator's row stream without building it (see
    /// [`GenSpec::pattern`]).
    pub fn pattern(&self) -> (MatrixProfile, u64) {
        self.gen_spec().pattern()
    }
}

/// One Table 2 row: name, dimension, printed sparsity, family,
/// variability knob and generator seed.
type Entry = (&'static str, usize, f64, WorkloadClass, f64, u64);

/// The 22 tensors of Table 2, in [`suite`] order.
const TABLE2: [Entry; 22] = {
    use WorkloadClass::*;
    [
        ("rma10", 47_000, 0.9989, LinearSystem, 0.80, 101),
        ("cant", 63_000, 0.9990, LinearSystem, 0.75, 102),
        ("consph", 83_000, 0.99913, LinearSystem, 0.75, 103),
        ("shipsec1", 141_000, 0.99960, LinearSystem, 0.85, 104),
        ("pwtk", 218_000, 0.99971, LinearSystem, 0.80, 105),
        ("cop20k_A", 121_000, 0.99982, LinearSystem, 0.90, 106),
        ("mac_econ_fwd500", 207_000, 0.99997, LinearSystem, 0.85, 107),
        ("mc2depi", 525_000, 0.999992, LinearSystem, 0.50, 108),
        ("pdb1HYS", 36_000, 0.9967, LinearSystem, 0.80, 109),
        ("sx-mathoverflow", 24_000, 0.9996, Graph, 0.50, 110),
        ("email-Enron", 37_000, 0.99973, Graph, 0.40, 111),
        ("cage12", 130_000, 0.99988, LinearSystem, 0.60, 112),
        ("soc-Epinions1", 76_000, 0.99991, Graph, 0.45, 113),
        ("soc-sign-epinions", 131_000, 0.99995, Graph, 0.40, 114),
        ("p2p-Gnutella31", 63_000, 0.99996, Graph, 0.30, 115),
        ("sx-askubuntu", 159_000, 0.99997, Graph, 0.40, 116),
        ("amazon0312", 400_000, 0.99998, Graph, 0.55, 117),
        ("patents_main", 241_000, 0.99999, Graph, 0.10, 118),
        ("email-EuAll", 265_000, 0.999994, Graph, 0.60, 119),
        ("web-Google", 916_000, 0.9999958, Graph, 0.10, 120),
        ("webbase-1M", 1_000_000, 0.9999968, Graph, 0.70, 121),
        ("roadNet-CA", 2_000_000, 0.9999986, RoadNetwork, 0.30, 122),
    ]
};

/// Builds one Table 2 entry; nnz is derived from the printed sparsity.
fn entry(&(name, n, sparsity, class, variability, seed): &Entry) -> Workload {
    let target_nnz = ((n as f64) * (n as f64) * (1.0 - sparsity)).round() as usize;
    Workload {
        name,
        nrows: n,
        ncols: n,
        target_nnz,
        class,
        paper_sparsity: sparsity,
        variability,
        seed,
    }
}

/// The full 22-workload suite of Table 2, in the paper's order (linear
/// systems first, then other applications, each sorted by sparsity).
///
/// Variability knobs encode §6's qualitative observations: webbase-1M and
/// roadNet-CA have highly asymmetric tile-occupancy distributions (largest
/// overbooking wins), web-Google and patents_main have uniformly
/// distributed sparsity (overbooking ≈ prescient), and the diagonal FEM
/// matrices have deterministic band-dominated distributions.
pub fn suite() -> Vec<Workload> {
    TABLE2.iter().map(entry).collect()
}

/// Looks up a workload by its SuiteSparse name, building only that entry.
pub fn by_name(name: &str) -> Option<Workload> {
    TABLE2.iter().find(|e| e.0 == name).map(entry)
}

/// The scale factor used by this workspace's tests and quick examples
/// (1/32 of paper scale — seconds, not minutes, to generate and evaluate).
pub const QUICK_SCALE: f64 = 1.0 / 32.0;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_has_22_workloads_in_paper_order() {
        let s = suite();
        assert_eq!(s.len(), 22);
        assert_eq!(s[0].name, "rma10");
        assert_eq!(s[21].name, "roadNet-CA");
        // Linear systems first (with cage12 among the later entries as in
        // Table 2's ordering by application then sparsity).
        assert_eq!(
            s.iter()
                .filter(|w| w.class == WorkloadClass::LinearSystem)
                .count(),
            10
        );
    }

    #[test]
    fn nnz_matches_table2_sparsity() {
        for w in suite() {
            let implied = 1.0 - w.target_nnz as f64 / (w.nrows as f64 * w.ncols as f64);
            assert!(
                (implied - w.paper_sparsity).abs() < 1e-6,
                "{}: implied sparsity {implied} vs paper {}",
                w.name,
                w.paper_sparsity
            );
        }
    }

    #[test]
    fn names_are_unique() {
        let s = suite();
        let mut names: Vec<_> = s.iter().map(|w| w.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 22);
    }

    #[test]
    fn by_name_finds_and_misses() {
        assert!(by_name("webbase-1M").is_some());
        assert!(by_name("not-a-tensor").is_none());
    }

    #[test]
    fn scaled_preserves_mean_degree() {
        let w = by_name("amazon0312").unwrap();
        let s = w.scaled(1.0 / 32.0);
        let deg_full = w.target_nnz as f64 / w.nrows as f64;
        let deg_scaled = s.target_nnz as f64 / s.nrows as f64;
        assert!((deg_full - deg_scaled).abs() / deg_full < 0.05);
    }

    #[test]
    #[should_panic(expected = "scale factor")]
    fn zero_scale_panics() {
        let _ = by_name("cant").unwrap().scaled(0.0);
    }

    #[test]
    fn quick_scale_generation_matches_spec() {
        for w in suite().iter().take(3) {
            let scaled = w.scaled(1.0 / 128.0);
            let m = scaled.generate();
            assert_eq!(m.nrows(), scaled.nrows);
            assert!(m.nnz() as f64 >= 0.6 * scaled.target_nnz as f64);
        }
    }

    #[test]
    fn class_specific_structure_is_used() {
        let road = by_name("roadNet-CA").unwrap().scaled(1.0 / 256.0);
        let m = road.generate();
        // Road networks are near-diagonal: most entries within a narrow
        // band or the diagonal clusters.
        let near = m
            .iter()
            .filter(|&(r, c, _)| (r as i64 - c as i64).abs() < (m.ncols() / 4) as i64)
            .count();
        assert!(near as f64 > 0.8 * m.nnz() as f64);
    }
}
