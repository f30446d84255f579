//! Property-based tests for the sparse-tensor substrate.

use std::collections::BTreeMap;

use proptest::prelude::*;
use tailors_tensor::gen::{GenSpec, Structure};
use tailors_tensor::ops::BlockedSpa;
use tailors_tensor::stats::{geomean, overbooking_quantile, quantile, quantile_sorted, summarize};
use tailors_tensor::tiling::{grid_tile_occupancies, RowPanels};
use tailors_tensor::{CooMatrix, CsrBuilder, CsrMatrix, MatrixProfile, RowSink};

fn triplets_strategy() -> impl Strategy<Value = Vec<(usize, usize, f64)>> {
    proptest::collection::vec((0usize..24, 0usize..24, -10.0f64..10.0), 0..200)
}

/// The COO-to-CSR conversion as it stood before [`CsrBuilder`]: a
/// counting sort into separate column and value arrays, then a per-row
/// sort and merge through a zipped scratch copy. Kept as the bit-level
/// oracle for the builder. Returns `(row_ptr, col_idx, vals)`.
fn oracle_from_coo(coo: &CooMatrix) -> (Vec<usize>, Vec<u32>, Vec<f64>) {
    let nrows = coo.nrows();
    let mut counts = vec![0usize; nrows + 1];
    for (r, _, _) in coo.iter() {
        counts[r + 1] += 1;
    }
    for i in 0..nrows {
        counts[i + 1] += counts[i];
    }
    let total = counts[nrows];
    let mut cols = vec![0u32; total];
    let mut vals = vec![0f64; total];
    let mut cursor = counts.clone();
    for (r, c, v) in coo.iter() {
        let at = cursor[r];
        cols[at] = c as u32;
        vals[at] = v;
        cursor[r] += 1;
    }
    let mut out_cols = Vec::with_capacity(total);
    let mut out_vals = Vec::with_capacity(total);
    let mut row_ptr = Vec::with_capacity(nrows + 1);
    row_ptr.push(0);
    let mut scratch: Vec<(u32, f64)> = Vec::new();
    for r in 0..nrows {
        let (lo, hi) = (counts[r], counts[r + 1]);
        scratch.clear();
        scratch.extend(
            cols[lo..hi]
                .iter()
                .copied()
                .zip(vals[lo..hi].iter().copied()),
        );
        scratch.sort_unstable_by_key(|&(c, _)| c);
        let mut iter = scratch.iter().copied().peekable();
        while let Some((c, mut v)) = iter.next() {
            while let Some(&(c2, v2)) = iter.peek() {
                if c2 == c {
                    v += v2;
                    iter.next();
                } else {
                    break;
                }
            }
            out_cols.push(c);
            out_vals.push(v);
        }
        row_ptr.push(out_cols.len());
    }
    (row_ptr, out_cols, out_vals)
}

/// Asserts `m` equals the oracle's parts, comparing values by their bits.
fn assert_matches_oracle(m: &CsrMatrix, want: &(Vec<usize>, Vec<u32>, Vec<f64>)) {
    assert_eq!(m.row_ptr(), want.0.as_slice());
    assert_eq!(m.col_indices(), want.1.as_slice());
    let bits = |vals: &[f64]| vals.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(m.values()), bits(&want.2));
}

type DuplicateGroup = (usize, usize, Vec<(f64, usize)>);

/// Background scatter over 4 rows × 12 columns: rows of tens of entries,
/// long enough that the per-row sort leaves its small-slice path.
fn scatter_strategy() -> impl Strategy<Value = Vec<(usize, usize, f64)>> {
    proptest::collection::vec((0usize..4, 0usize..12, -1e3f64..1e3), 0..240)
}

/// Coordinates forced to repeat 3–8 times, each copy with its own value
/// and insertion slot: the case where summation order decides the bits.
fn duplicate_groups_strategy() -> impl Strategy<Value = Vec<DuplicateGroup>> {
    proptest::collection::vec(
        (
            0usize..4,
            0usize..12,
            proptest::collection::vec((-1e3f64..1e3, 0usize..1_000), 3..9),
        ),
        1..6,
    )
}

/// Inserts every copy of every duplicate group into `scatter` at its
/// drawn slot, so the repeats interleave with other entries.
fn with_duplicates(
    mut triplets: Vec<(usize, usize, f64)>,
    groups: &[DuplicateGroup],
) -> Vec<(usize, usize, f64)> {
    for (r, c, copies) in groups {
        for &(v, slot) in copies {
            triplets.insert(slot % (triplets.len() + 1), (*r, *c, v));
        }
    }
    triplets
}

/// The raw arrays of `m`, for rebuilding an edited copy through
/// [`CsrMatrix::from_parts`] (which re-validates it).
fn parts(m: &CsrMatrix) -> (Vec<usize>, Vec<u32>, Vec<f64>) {
    (
        m.row_ptr().to_vec(),
        m.col_indices().to_vec(),
        m.values().to_vec(),
    )
}

/// Matrices of one shape and nonzero count built from the same column
/// words, grouped into rows differently, plus a coordinate and its
/// transpose: a hash that dropped the row of an entry, or mixed row and
/// column symmetrically, collides here.
#[test]
fn pattern_hash_separates_regrouped_rows() {
    let split = |row_ptr: Vec<usize>| {
        CsrMatrix::from_parts(2, 8, row_ptr, vec![1, 2], vec![3.0, 4.0]).unwrap()
    };
    let rows = [
        split(vec![0, 2, 2]),
        split(vec![0, 1, 2]),
        split(vec![0, 0, 2]),
    ];
    let one = |r, c| CsrMatrix::from_triplets(2, 2, &[(r, c, 1.0)]).unwrap();
    let transposed = [one(0, 1), one(1, 0)];
    for group in [&rows[..], &transposed[..]] {
        for (i, a) in group.iter().enumerate() {
            for b in &group[i + 1..] {
                assert_ne!(a.pattern_hash(), b.pattern_hash(), "{a:?} vs {b:?}");
            }
        }
    }
}

/// One of the four generator families, its knobs drawn from `k`.
fn structure(family: usize, k: (f64, f64, f64)) -> Structure {
    match family {
        0 => Structure::Banded {
            band_halfwidth_frac: 0.2 * k.0,
            scatter_frac: k.1,
            degree_variability: 1.5 * k.2,
        },
        1 => Structure::PowerLaw {
            alpha: 0.2 + k.0,
            hub_clustering: k.1,
        },
        2 => Structure::Clustered {
            cluster_frac: 0.01 + 0.2 * k.0,
            cluster_share: k.1,
        },
        _ => Structure::Uniform,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The pattern-only stream of every generator family yields exactly
    /// the profile and pattern hash of the matrix it generates.
    #[test]
    fn generator_pattern_matches_the_generated_matrix(
        family in 0usize..4,
        nrows in 1usize..300,
        ncols in 1usize..300,
        fill in 0.0f64..0.6,
        seed in 0u64..1_000,
        knobs in (0.0f64..1.0, 0.0f64..1.0, 0.0f64..1.0),
    ) {
        let target = ((nrows * ncols) as f64 * fill) as usize;
        let spec = GenSpec::uniform(nrows, ncols, target)
            .structure(structure(family, knobs))
            .seed(seed);
        let m = spec.generate();
        prop_assert_eq!(spec.pattern(), (m.profile(), m.pattern_hash()));
    }
}

/// The clustered family buckets its entries by row without their values
/// on the pattern path; its pattern stream still matches the generated
/// matrix at wide, tall, square and degenerate shapes and at both ends of
/// the cluster knobs.
#[test]
fn clustered_pattern_matches_the_generated_matrix_across_shapes() {
    let shapes = [
        (1, 1, 1),
        (1, 700, 300),
        (700, 1, 300),
        (37, 4_000, 9_000),
        (3_000, 200, 20_000),
        (2_000, 2_000, 30_000),
        (5_000, 5_000, 4_000),
    ];
    for (nrows, ncols, nnz) in shapes {
        for (seed, knobs) in [
            (0, (0.0, 0.0, 0.0)),
            (7, (0.5, 0.5, 0.0)),
            (13, (1.0, 1.0, 0.0)),
        ] {
            let spec = GenSpec::clustered(nrows, ncols, nnz)
                .structure(structure(2, knobs))
                .seed(seed);
            let m = spec.generate();
            assert_eq!(
                spec.pattern(),
                (m.profile(), m.pattern_hash()),
                "{nrows}x{ncols}, {nnz} nnz, seed {seed}"
            );
        }
    }
}

proptest! {
    /// CSR construction from arbitrary (possibly duplicated) triplets
    /// agrees with a BTreeMap reference model.
    #[test]
    fn csr_matches_reference_map(triplets in triplets_strategy()) {
        let mut reference: BTreeMap<(usize, usize), f64> = BTreeMap::new();
        for &(r, c, v) in &triplets {
            *reference.entry((r, c)).or_insert(0.0) += v;
        }
        let m = CsrMatrix::from_triplets(24, 24, &triplets).unwrap();
        // Every reference entry is reachable (entries that summed to zero
        // remain structurally present).
        for (&(r, c), &v) in &reference {
            prop_assert!((m.get(r, c).unwrap_or(f64::NAN) - v).abs() < 1e-9);
        }
        prop_assert_eq!(m.nnz(), reference.len());
        // Row fibers are strictly sorted.
        for r in 0..24 {
            let coords = m.row(r).coords();
            prop_assert!(coords.windows(2).all(|w| w[0] < w[1]));
        }
    }

    /// Transposing twice is the identity; the transpose relocates every
    /// entry exactly.
    #[test]
    fn transpose_is_involution(triplets in triplets_strategy()) {
        let m = CsrMatrix::from_triplets(24, 24, &triplets).unwrap();
        let t = m.transpose();
        prop_assert_eq!(&t.transpose(), &m);
        for (r, c, v) in m.iter() {
            prop_assert_eq!(t.get(c, r), Some(v));
        }
    }

    /// Profiles conserve nonzeros: row totals = column totals = nnz, and
    /// any partition into row panels sums back to nnz.
    #[test]
    fn profile_and_panels_conserve_nnz(
        triplets in triplets_strategy(),
        rows_per_tile in 1usize..30,
    ) {
        let m = CsrMatrix::from_triplets(24, 24, &triplets).unwrap();
        let p = m.profile();
        prop_assert_eq!(p.nnz(), m.nnz() as u64);
        let panels = RowPanels::new(&p, rows_per_tile);
        prop_assert_eq!(panels.occupancies().sum::<u64>(), p.nnz());
        prop_assert!(panels.max_occupancy() <= p.nnz());
        // Overbooking rate is monotone non-increasing in capacity.
        let r_small = panels.overbooking_rate(1);
        let r_big = panels.overbooking_rate(1_000_000);
        prop_assert!(r_small >= r_big);
    }

    /// `fits_within`'s `rows × max_row_nnz` shortcut answers exactly what
    /// the full scan answers: at the bound, one below it, and capacities
    /// drawn around it and near zero.
    #[test]
    fn fits_within_bound_agrees_with_the_full_scan(
        triplets in triplets_strategy(),
        rows_per_tile in 1usize..30,
        shift in 0u64..80,
    ) {
        let m = CsrMatrix::from_triplets(24, 24, &triplets).unwrap();
        let p = m.profile();
        let panels = RowPanels::new(&p, rows_per_tile);
        let bound = rows_per_tile as u64 * p.max_row_nnz() as u64;
        let drawn = (bound + shift).saturating_sub(40);
        for capacity in [bound, bound.saturating_sub(1), drawn, shift] {
            let scanned = panels.occupancies().all(|occ| occ <= capacity);
            prop_assert_eq!(panels.fits_within(capacity), scanned, "capacity {}", capacity);
            prop_assert_eq!(scanned, panels.max_occupancy() <= capacity);
        }
    }

    /// The same agreement on profiles whose heaviest row sits deep in the
    /// back half, behind light panels: `fits_within` fails at the heaviest
    /// row's panel before its walk, and must still answer what the scan
    /// answers, at the bound, at that panel's occupancy and around both.
    #[test]
    fn fits_within_agrees_when_the_heaviest_row_sits_deep(
        mut row_nnz in proptest::collection::vec(0u32..6, 8..300),
        depth in 0usize..1_000,
        heavy in 6u32..80,
        rows_per_tile in 2usize..40,
        shift in 0u64..120,
    ) {
        let n = row_nnz.len();
        let at = n / 2 + depth % (n - n / 2);
        row_nnz[at] = heavy;
        let total = row_nnz.iter().sum::<u32>();
        let p = MatrixProfile::new(n, 1, row_nnz, vec![total]);
        let panels = RowPanels::new(&p, rows_per_tile);
        let bound = rows_per_tile as u64 * heavy as u64;
        let heavy_panel = panels.occupancy(at / rows_per_tile);
        let drawn = (bound + shift).saturating_sub(60);
        for capacity in [bound, bound - 1, heavy_panel, heavy_panel - 1, drawn, shift] {
            let scanned = panels.occupancies().all(|occ| occ <= capacity);
            prop_assert_eq!(panels.fits_within(capacity), scanned, "capacity {}", capacity);
        }
    }

    /// 2-D grid tiles partition the nonzeros too.
    #[test]
    fn grid_tiles_partition_nnz(
        triplets in triplets_strategy(),
        tr in 1usize..10,
        tc in 1usize..10,
    ) {
        let m = CsrMatrix::from_triplets(24, 24, &triplets).unwrap();
        let occ = grid_tile_occupancies(&m, tr, tc);
        prop_assert_eq!(occ.iter().sum::<u64>(), m.nnz() as u64);
        prop_assert_eq!(occ.len(), 24usize.div_ceil(tr) * 24usize.div_ceil(tc));
    }

    /// Quantiles are monotone in q, bounded by the extremes, and the
    /// overbooking quantile complements them.
    #[test]
    fn quantile_properties(mut values in proptest::collection::vec(0u64..10_000, 1..100)) {
        values.sort_unstable();
        let lo = *values.first().unwrap();
        let hi = *values.last().unwrap();
        let mut prev = lo;
        for i in 0..=10 {
            let q = i as f64 / 10.0;
            let v = quantile(&values, q);
            prop_assert!(v >= lo && v <= hi);
            prop_assert!(v >= prev, "quantile must be monotone");
            prev = v;
        }
        prop_assert_eq!(overbooking_quantile(&values, 0.0), hi);
        // At most y of the values strictly exceed Q_y.
        for y in [0.1, 0.25, 0.5] {
            let qy = overbooking_quantile(&values, y);
            let over = values.iter().filter(|&&v| v > qy).count();
            prop_assert!(over as f64 <= y * values.len() as f64 + 1e-9);
        }
    }

    /// `quantile` selects from *unsorted* input exactly the order
    /// statistic `quantile_sorted` reads off a sorted copy, and
    /// `overbooking_quantile` the complementary one: with ties, a single
    /// value, both ends of `q` and a drawn `q`.
    #[test]
    fn quantile_of_unsorted_input_matches_the_sorted_quantile(
        values in proptest::collection::vec(0u64..40, 1..120),
        drawn in 0.0f64..1.0,
    ) {
        let mut sorted = values.clone();
        sorted.sort_unstable();
        for q in [0.0, drawn, 0.1, 0.5, 0.9, 1.0] {
            prop_assert_eq!(quantile(&values, q), quantile_sorted(&sorted, q), "q {}", q);
            prop_assert_eq!(
                overbooking_quantile(&values, q),
                quantile_sorted(&sorted, 1.0 - q),
                "y {}",
                q
            );
            prop_assert_eq!(quantile(&values[..1], q), values[0]);
        }
    }

    /// Summaries are internally consistent.
    #[test]
    fn summary_is_consistent(values in proptest::collection::vec(0u64..100_000, 1..200)) {
        let s = summarize(&values).unwrap();
        prop_assert_eq!(s.count, values.len());
        prop_assert_eq!(s.max, *values.iter().max().unwrap());
        prop_assert!(s.median <= s.p90);
        prop_assert!(s.p90 <= s.p99);
        prop_assert!(s.p99 <= s.max);
        prop_assert!(s.mean <= s.max as f64 + 1e-9);
    }

    /// Geomean sits between min and max for positive inputs.
    #[test]
    fn geomean_bounds(values in proptest::collection::vec(0.01f64..100.0, 1..50)) {
        let g = geomean(&values).unwrap();
        let lo = values.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = values.iter().cloned().fold(0.0f64, f64::max);
        prop_assert!(g >= lo - 1e-9 && g <= hi + 1e-9);
    }

    /// The bitmask-blocked accumulator is bit-identical to the classic
    /// dense scratch (a sorted touched-coordinate list over a dense
    /// array) for arbitrary accumulation sequences and block tilings:
    /// same extraction order, same bits, same exact-cancellation drops —
    /// per block, with blocks drained in any column partition.
    #[test]
    fn blocked_spa_matches_dense_scratch_on_arbitrary_tilings(
        writes in proptest::collection::vec(
            (0usize..6, 0usize..96, 0usize..5), 0..200),
        block_cols in 1usize..97,
        rows in 1usize..7,
    ) {
        let width = 96usize;
        let mut spa = BlockedSpa::new();
        spa.reset_shape(rows, block_cols.min(width));
        // Model: dense array + touched list per row, drained per block —
        // exactly the pre-blocked engine formulation.
        let mut dense = vec![vec![0.0f64; width]; rows];
        let mut touched: Vec<Vec<usize>> = vec![Vec::new(); rows];
        let mut got: (Vec<u32>, Vec<f64>) = Default::default();
        let mut want: (Vec<u32>, Vec<f64>) = Default::default();
        for c0 in (0..width).step_by(block_cols) {
            let c1 = (c0 + block_cols).min(width);
            for &(r, c, v) in &writes {
                let r = r % rows;
                if c < c0 || c >= c1 {
                    continue;
                }
                let val = (v as f64 - 2.0) * 0.5;
                spa.accumulate(r, c - c0, val);
                let slot = &mut dense[r][c];
                if *slot == 0.0 {
                    touched[r].push(c);
                }
                *slot += val;
            }
            for r in 0..rows {
                spa.drain_row(r, c0 as u32, &mut got.0, &mut got.1);
                touched[r].sort_unstable();
                for &c in touched[r].iter() {
                    let v = core::mem::take(&mut dense[r][c]);
                    if v != 0.0 {
                        want.0.push(c as u32);
                        want.1.push(v);
                    }
                }
                touched[r].clear();
            }
        }
        prop_assert_eq!(&got.0, &want.0);
        for (g, w) in got.1.iter().zip(&want.1) {
            prop_assert_eq!(g.to_bits(), w.to_bits());
        }
        prop_assert!(spa.is_clear());
    }

    /// The row-panel slice of the stationary operand is consistent with
    /// per-row sums.
    #[test]
    fn block_slicing_is_consistent(
        triplets in triplets_strategy(),
        r0 in 0usize..25,
        rspan in 0usize..25,
    ) {
        let m = CsrMatrix::from_triplets(24, 24, &triplets).unwrap();
        let r0 = r0.min(24);
        let r1 = (r0 + rspan).min(24);
        let per_row: usize = (r0..r1).map(|r| m.row_nnz(r)).sum();
        prop_assert_eq!(m.row_range_nnz(r0, r1), per_row);
    }

    /// COO round-trips its pushes and CSR conversion never loses mass.
    #[test]
    fn coo_value_mass_is_conserved(triplets in triplets_strategy()) {
        let mut coo = CooMatrix::new(24, 24);
        for &(r, c, v) in &triplets {
            coo.push(r, c, v).unwrap();
        }
        let mass: f64 = coo.iter().map(|(_, _, v)| v).sum();
        let m = CsrMatrix::from_coo(&coo);
        let csr_mass: f64 = m.values().iter().sum();
        prop_assert!((mass - csr_mass).abs() < 1e-9);
    }

    /// `from_coo` and a row-by-row `CsrBuilder` fed the same entries in
    /// the same order both reproduce the pre-builder conversion bit for
    /// bit, including the rounded sums of 3-way-or-more duplicates.
    #[test]
    fn builder_and_from_coo_match_the_old_merge_bitwise(
        scatter in scatter_strategy(),
        groups in duplicate_groups_strategy(),
    ) {
        let triplets = with_duplicates(scatter, &groups);
        let mut coo = CooMatrix::new(4, 12);
        coo.extend(triplets.iter().copied());
        let want = oracle_from_coo(&coo);
        assert_matches_oracle(&CsrMatrix::from_coo(&coo), &want);
        let mut b = CsrBuilder::with_capacity(4, 12, triplets.len());
        for row in 0..4 {
            for &(r, c, v) in &triplets {
                if r == row {
                    b.push(c as u32, v);
                }
            }
            b.finish_row();
        }
        assert_matches_oracle(&b.finish(), &want);
    }

    /// `pattern_hash` is a function of the shape and the stored
    /// coordinates: a values-only edit keeps it, while moving an entry,
    /// adding an entry and widening the matrix each change it. Every
    /// edited copy is rebuilt through `from_parts`, so it is a valid
    /// matrix.
    #[test]
    fn pattern_hash_tracks_pattern_edits(
        triplets in triplets_strategy(),
        pick in 0usize..1_000,
        bit in 0u32..64,
    ) {
        const NCOLS: usize = 32;
        let mut coo = CooMatrix::new(24, NCOLS);
        coo.extend(triplets.iter().copied());
        let m = CsrMatrix::from_coo(&coo);
        let h = m.pattern_hash();
        prop_assert_eq!(m.clone().pattern_hash(), h);
        let edited = |ncols, (row_ptr, cols, vals)| {
            CsrMatrix::from_parts(24, ncols, row_ptr, cols, vals).unwrap().pattern_hash()
        };
        prop_assert_ne!(edited(NCOLS + 1, parts(&m)), h);

        // A new entry in column 24..NCOLS (triplets stop at column 23),
        // appended to row `pick % 24`.
        let (mut row_ptr, mut cols, mut vals) = parts(&m);
        let r = pick % 24;
        let at = row_ptr[r + 1];
        cols.insert(at, 24 + (pick % (NCOLS - 24)) as u32);
        vals.insert(at, 1.0);
        for p in &mut row_ptr[r + 1..] {
            *p += 1;
        }
        prop_assert_ne!(edited(NCOLS, (row_ptr, cols, vals)), h);
        if m.nnz() == 0 {
            continue;
        }
        let (row_ptr, mut cols, mut vals) = parts(&m);
        let i = pick % m.nnz();
        vals[i] = f64::from_bits(vals[i].to_bits() ^ (1 << bit));
        prop_assert_eq!(edited(NCOLS, (row_ptr.clone(), cols.clone(), vals)), h);

        // The last entry of entry `i`'s row takes another column between
        // its left neighbour and NCOLS.
        let r = row_ptr.partition_point(|&p| p <= i) - 1;
        let last = row_ptr[r + 1] - 1;
        let lo = if last > row_ptr[r] { cols[last - 1] + 1 } else { 0 };
        let mut c = lo + (pick % (NCOLS - lo as usize - 1)) as u32;
        if c >= cols[last] {
            c += 1;
        }
        cols[last] = c;
        prop_assert_ne!(edited(NCOLS, (row_ptr, cols, m.values().to_vec())), h);

        // Some row's last entry moves to the start of the next row, where
        // it still sorts before that row's first column.
        let (mut row_ptr, cols, vals) = parts(&m);
        let movable = (0..23).find(|&r| {
            let (end, next_end) = (row_ptr[r + 1], row_ptr[r + 2]);
            end > row_ptr[r] && (end == next_end || cols[end - 1] < cols[end])
        });
        if let Some(r) = movable {
            row_ptr[r + 1] -= 1;
            prop_assert_ne!(edited(NCOLS, (row_ptr, cols, vals)), h);
        }
    }
}
