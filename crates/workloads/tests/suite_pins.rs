//! Pins the exact bits of every generated suite tensor.
//!
//! The pins hash a fixed serialization — shape, row pointers, column
//! indices and value bits — with a test-local FNV-1a, so they guard the
//! generators' bits independently of `CsrMatrix::pattern_hash` and so of
//! `MatrixId`: any change to a generator's RNG draw order, to duplicate
//! merging, or to the order duplicates are summed in fails here. A
//! changed literal is a deliberate, declared bit change: it moves every
//! `MatrixId`, the golden metrics and the end-to-end sentinels with it.
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
    ("rma10", 0x4566_d8e9_b6ca_204c),
    ("cant", 0x0e96_8ec1_74b9_a225),
    ("consph", 0xb8a0_0f09_89df_9b91),
    ("shipsec1", 0x950a_09b2_7a14_10d3),
    ("pwtk", 0x5d60_a90f_7d09_96ed),
    ("cop20k_A", 0x4579_01f8_ce78_e4ff),
    ("mac_econ_fwd500", 0xc049_fd35_a7cd_a70c),
    ("mc2depi", 0x3d52_adc3_67cb_40de),
    ("pdb1HYS", 0xa488_8edf_e5a3_602e),
    ("sx-mathoverflow", 0x6ae3_5788_d66b_95e7),
    ("email-Enron", 0x329b_af10_3ee1_9572),
    ("cage12", 0x2de4_155a_2332_40cf),
    ("soc-Epinions1", 0x6c7a_5ad8_f4ea_9dc0),
    ("soc-sign-epinions", 0x4ab1_84ca_65ea_62fc),
    ("p2p-Gnutella31", 0xa42b_f91c_9280_ab04),
    ("sx-askubuntu", 0x7848_fb52_8a4a_d133),
    ("amazon0312", 0xf50a_96b3_07a7_6e00),
    ("patents_main", 0xa041_e43d_d9db_7c3a),
    ("email-EuAll", 0x8649_b238_beeb_351a),
    ("web-Google", 0x1ee4_065e_a0c2_1950),
    ("webbase-1M", 0xe000_845c_2a47_9074),
    ("roadNet-CA", 0x23cc_00e9_5f63_1376),
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
    assert_eq!(generator_bits(&m), 0xe5b4_35da_0436_233c);
    assert_eq!(m.pattern_hash(), 0x921f_0d7a_8974_2037);
}

/// Half the coordinate space: hub rows are capped at the full width and
/// 7 of the 64 rows exhaust the `deg * 6 + 16` rejection budget before
/// drawing all their distinct columns, so the pin covers the budget path.
#[test]
fn dense_power_law_hash_is_pinned() {
    let m = GenSpec::power_law(64, 64, 2_048).seed(12).generate();
    assert!(m.nnz() < 2_048);
    assert_eq!(generator_bits(&m), 0xb818_3952_2010_adcc);
    assert_eq!(m.pattern_hash(), 0x09b7_280b_3603_5891);
}
