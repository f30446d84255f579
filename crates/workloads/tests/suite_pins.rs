//! Pins the exact bits of every generated suite tensor.
//!
//! The pins hash a fixed serialization — shape, row pointers, column
//! indices and value bits — with a test-local FNV-1a, so they guard the
//! generators' bits independently of `CsrMatrix::pattern_hash` and so of
//! `MatrixId`: any change to a generator's RNG draw order, to the
//! per-coordinate value rule, to the order the degree remainder is spread
//! in, or to duplicate merging fails here. The RNG draws only the
//! pattern; each value is keyed by the seed and its coordinate, and the
//! remainder follows a total order, so the bits depend on no sort's
//! handling of ties. A changed literal is a deliberate, declared bit
//! change: it moves every `MatrixId`, the golden metrics and the
//! end-to-end sentinels with it.
//! Two `pattern_hash` pins ride along to catch a change to that hash, and
//! every suite entry's pattern-only stream is checked against the tensor
//! it generates.

use tailors_tensor::gen::GenSpec;
use tailors_tensor::{fnv1a, CsrMatrix};
use tailors_workloads::suite;

/// FNV-1a over `nrows`, `ncols` and `nnz` as little-endian `u64`s, then
/// every row pointer as a `u64`, every column index as a `u32` and every
/// value's bits as a `u64`: the serialization the literals below were
/// computed over.
fn generator_bits(m: &CsrMatrix) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325;
    for n in [m.nrows(), m.ncols(), m.nnz()] {
        h = fnv1a(h, &(n as u64).to_le_bytes());
    }
    for &p in m.row_ptr() {
        h = fnv1a(h, &(p as u64).to_le_bytes());
    }
    for &c in m.col_indices() {
        h = fnv1a(h, &c.to_le_bytes());
    }
    for &v in m.values() {
        h = fnv1a(h, &v.to_bits().to_le_bytes());
    }
    h
}

/// [`generator_bits`] of every `suite()` entry at 1/64 scale, in suite order.
const SUITE_1_64: [(&str, u64); 22] = [
    ("rma10", 0xbb56_e46e_f0ef_babb),
    ("cant", 0x9006_2ce9_fe13_60a2),
    ("consph", 0xf8d3_36ea_9fa9_805d),
    ("shipsec1", 0x75a7_fd5f_f67f_a0e8),
    ("pwtk", 0x3982_7509_748e_815c),
    ("cop20k_A", 0x5ee7_0ecf_0567_0a7a),
    ("mac_econ_fwd500", 0x403a_a860_4f6f_33f8),
    ("mc2depi", 0xf577_e228_d4d8_2155),
    ("pdb1HYS", 0xe594_64b7_b671_df00),
    ("sx-mathoverflow", 0x586a_b087_7c3b_281a),
    ("email-Enron", 0x91f1_b914_660d_10d5),
    ("cage12", 0x0305_d119_b751_2dc5),
    ("soc-Epinions1", 0xcae7_a3e2_d0ec_831e),
    ("soc-sign-epinions", 0x1774_a0ae_ddbb_9e5c),
    ("p2p-Gnutella31", 0xf5ad_8dc4_cf82_a0aa),
    ("sx-askubuntu", 0x8306_51cd_c79d_64ef),
    ("amazon0312", 0xf13b_1057_6cff_0873),
    ("patents_main", 0x720d_3c67_54cb_0b60),
    ("email-EuAll", 0x68ad_ec6b_ffa0_0d79),
    ("web-Google", 0xa01e_5ce9_d9b1_ca9c),
    ("webbase-1M", 0x2966_d3aa_6553_159e),
    ("roadNet-CA", 0x4dbb_e2bb_31b3_4f27),
];

#[test]
fn suite_hashes_are_pinned_at_1_64() {
    let suite = suite();
    assert_eq!(suite.len(), SUITE_1_64.len());
    for (wl, &(name, want)) in suite.iter().zip(&SUITE_1_64) {
        assert_eq!(wl.name, name);
        let got = generator_bits(&wl.scaled(1.0 / 64.0).generate());
        assert_eq!(got, want, "{name}: generator bits {got:#018x}");
    }
}

/// The analytical cold path reads a workload's profile and identity from
/// `Workload::pattern`, never from a built tensor: both must match the
/// tensor `Workload::generate` builds, for every family in the suite.
#[test]
fn suite_patterns_match_the_generated_tensors_at_1_64() {
    for wl in suite() {
        for seed in [0, 7] {
            let wl = tailors_workloads::Workload {
                seed,
                ..wl.scaled(1.0 / 64.0)
            };
            let m = wl.generate();
            assert!(
                wl.pattern() == (m.profile(), m.pattern_hash()),
                "{} seed {seed}: pattern diverged from the generated tensor",
                wl.name
            );
        }
    }
}

#[test]
fn uniform_hash_is_pinned() {
    let m = GenSpec::uniform(200, 300, 2_000).seed(11).generate();
    assert_eq!(generator_bits(&m), 0x9977_f2e8_9bb0_1801);
    assert_eq!(m.pattern_hash(), 0x07a6_6d15_8031_c3cb);
}

/// Half the coordinate space: hub rows are capped at the full width and
/// 6 of the 64 rows exhaust the `deg * 6 + 16` rejection budget before
/// drawing all their distinct columns, so the pin covers the budget path.
#[test]
fn dense_power_law_hash_is_pinned() {
    let m = GenSpec::power_law(64, 64, 2_048).seed(12).generate();
    assert!(m.nnz() < 2_048);
    assert_eq!(generator_bits(&m), 0x0e88_11f6_6185_3117);
    assert_eq!(m.pattern_hash(), 0x6ec6_fa52_7e90_bb7f);
}
