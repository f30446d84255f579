//! Wire-codec round-trip properties: arbitrary requests and replies
//! encode → decode bit-identically (floats travel as bit patterns, so
//! even NaNs and signed zeros survive), and malformed / truncated /
//! mutated lines come back as typed protocol errors — never panics.

use proptest::prelude::*;

use tailors_serve::wire::{decode_reply, decode_request_line, encode_reply, encode_request, Json};
use tailors_serve::{
    FunctionalRequest, OverloadReason, Reply, ServeError, SimRequest, WireRequest, Work,
};
use tailors_sim::functional::{FunctionalConfig, FunctionalResult};
use tailors_sim::{ArchConfig, GridMode, MemBudget, Variant};
use tailors_tensor::gen::GenSpec;
use tailors_workloads::{Workload, WorkloadClass};

const NAMES: [&str; 5] = [
    "cant",
    "email-Enron",
    "webbase-1M",
    "roadNet-CA",
    "not-a-suite-name",
];

fn workload_from(
    name_idx: usize,
    dims: (usize, usize, usize),
    class_sel: u8,
    sparsity_bits: u64,
    variability_bits: u64,
    seed: u64,
) -> Workload {
    let class = match class_sel % 3 {
        0 => WorkloadClass::LinearSystem,
        1 => WorkloadClass::Graph,
        _ => WorkloadClass::RoadNetwork,
    };
    Workload {
        // Decoding interns unknown names, so a non-suite name must
        // round-trip too; suite names must come back pointer-stable.
        name: match tailors_workloads::by_name(NAMES[name_idx % NAMES.len()]) {
            Some(w) => w.name,
            None => "not-a-suite-name",
        },
        nrows: dims.0,
        ncols: dims.1,
        target_nnz: dims.2,
        class,
        // Raw bit patterns: includes NaNs, infinities, subnormals, -0.0.
        paper_sparsity: f64::from_bits(sparsity_bits),
        variability: f64::from_bits(variability_bits),
        seed,
    }
}

fn variant_from(sel: u8, y_bits: u64, k: usize) -> Variant {
    match sel % 3 {
        0 => Variant::ExTensorN,
        1 => Variant::ExTensorP,
        _ => Variant::ExTensorOB {
            y: f64::from_bits(y_bits),
            k,
        },
    }
}

fn assert_workloads_bit_eq(a: &Workload, b: &Workload) {
    assert_eq!(a.name, b.name);
    assert_eq!(a.nrows, b.nrows);
    assert_eq!(a.ncols, b.ncols);
    assert_eq!(a.target_nnz, b.target_nnz);
    assert_eq!(a.class, b.class);
    assert_eq!(a.paper_sparsity.to_bits(), b.paper_sparsity.to_bits());
    assert_eq!(a.variability.to_bits(), b.variability.to_bits());
    assert_eq!(a.seed, b.seed);
}

fn assert_variants_bit_eq(a: Variant, b: Variant) {
    match (a, b) {
        (Variant::ExTensorN, Variant::ExTensorN) | (Variant::ExTensorP, Variant::ExTensorP) => {}
        (Variant::ExTensorOB { y: ya, k: ka }, Variant::ExTensorOB { y: yb, k: kb }) => {
            assert_eq!(ya.to_bits(), yb.to_bits());
            assert_eq!(ka, kb);
        }
        (a, b) => panic!("variant mismatch: {a:?} vs {b:?}"),
    }
}

/// Decodes a work request line; a ping envelope fails the test.
fn decode_work(line: &str) -> (u64, Work) {
    match decode_request_line(line).expect("round trip") {
        (id, WireRequest::Work { work }) => (id, work),
        (_, WireRequest::Ping) => panic!("work line decoded as a ping"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn sim_requests_round_trip_bitwise(
        id in 0u64..u64::MAX,
        name_idx in 0usize..NAMES.len(),
        dims in (1usize..1_000_000, 1usize..1_000_000, 0usize..10_000_000),
        class_sel in 0u8..3,
        wl_bits in (0u64..u64::MAX, 0u64..u64::MAX),
        seed in 0u64..u64::MAX,
        variant_sel in 0u8..3,
        y_bits in 0u64..u64::MAX,
        k in 1usize..100,
        arch_scale_denom in 1u32..512,
        budget in (proptest::bool::ANY, 0u64..u64::MAX),
        flags in (proptest::bool::ANY, proptest::bool::ANY),
    ) {
        let req = SimRequest {
            workload: workload_from(name_idx, dims, class_sel, wl_bits.0, wl_bits.1, seed),
            variant: variant_from(variant_sel, y_bits, k),
            arch: ArchConfig::extensor().scaled(1.0 / f64::from(arch_scale_denom)),
            budget: if budget.0 { MemBudget::Unbounded } else { MemBudget::Bytes(budget.1) },
            grid: if flags.0 { GridMode::Grid2D } else { GridMode::Panels },
            auto_plan: flags.1,
        };
        let line = encode_request(id, &Work::Sim(req.clone()));
        prop_assert!(!line.contains('\n'), "one request must stay one line");
        let (decoded_id, decoded) = decode_work(&line);
        prop_assert_eq!(decoded_id, id);
        let Work::Sim(d) = decoded else { panic!("wrong kind") };
        assert_workloads_bit_eq(&d.workload, &req.workload);
        assert_variants_bit_eq(d.variant, req.variant);
        prop_assert_eq!(d.arch, req.arch);
        prop_assert_eq!(d.budget, req.budget);
        prop_assert_eq!(d.grid, req.grid);
        prop_assert_eq!(d.auto_plan, req.auto_plan);
    }

    #[test]
    fn functional_requests_round_trip_bitwise(
        name_idx in 0usize..NAMES.len(),
        dims in (1usize..100_000, 1usize..100_000, 0usize..1_000_000),
        threads in 1usize..64,
        budget_bytes in 1u64..u64::MAX,
    ) {
        let req = FunctionalRequest {
            workload: workload_from(name_idx, dims, 1, 0, 0, 7),
            variant: Variant::default_ob(),
            arch: ArchConfig::extensor(),
            budget: MemBudget::Bytes(budget_bytes),
            grid: GridMode::Grid2D,
            auto_plan: true,
            threads,
        };
        let line = encode_request(3, &Work::Functional(Box::new(req.clone())));
        let (_, decoded) = decode_work(&line);
        let Work::Functional(d) = decoded else { panic!("wrong kind") };
        assert_workloads_bit_eq(&d.workload, &req.workload);
        prop_assert_eq!(d.threads, req.threads);
        prop_assert_eq!(d.budget, req.budget);
        prop_assert_eq!(d.auto_plan, req.auto_plan);
    }

    #[test]
    fn functional_replies_round_trip_bitwise(
        n in 2usize..48,
        nnz in 0usize..300,
        seed in 0u64..10_000,
        fetches in (0u64..u64::MAX, 0u64..u64::MAX),
        overbooked in 0usize..1_000,
    ) {
        // A real generated CSR payload (row_ptr / cols / value bits all
        // cross the wire).
        let z = GenSpec::uniform(n, n, nnz.min(n * n)).seed(seed).generate();
        let reply = Reply::Functional(Box::new(tailors_serve::FunctionalResponse {
            config: FunctionalConfig {
                capacity: 1 + n,
                fifo_region: n / 2,
                rows_a: 1 + n / 3,
                cols_b: 1 + n / 2,
                overbooking: seed % 2 == 0,
                mem_budget: MemBudget::mib(4),
                grid: GridMode::Panels,
                auto_plan: false,
            },
            result: FunctionalResult {
                z: z.clone(),
                dram_a_fetches: fetches.0,
                dram_b_fetches: fetches.1,
                overbooked_a_tiles: overbooked,
            },
            hits: tailors_serve::CacheHits { tensor: true, profile: false, plan: true },
        }));
        let line = encode_reply(Some(9), &Ok(reply));
        let (id, outcome) = decode_reply(&line).expect("round trip");
        prop_assert_eq!(id, Some(9));
        let Ok(Reply::Functional(d)) = outcome else { panic!("wrong reply") };
        prop_assert_eq!(d.result.z.nrows(), z.nrows());
        prop_assert_eq!(d.result.z.row_ptr(), z.row_ptr());
        prop_assert_eq!(d.result.z.col_indices(), z.col_indices());
        let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        prop_assert_eq!(bits(d.result.z.values()), bits(z.values()));
        prop_assert_eq!(d.result.dram_a_fetches, fetches.0);
        prop_assert_eq!(d.result.dram_b_fetches, fetches.1);
        prop_assert_eq!(d.result.overbooked_a_tiles, overbooked);
    }

    #[test]
    fn error_replies_round_trip(
        sel in 0u8..6,
        a in 0u64..u64::MAX,
        b in 0u64..u64::MAX,
        msg_chars in proptest::collection::vec(32u8..127, 0..60),
        panicked in proptest::bool::ANY,
    ) {
        let message: String = msg_chars.iter().map(|&c| c as char).collect();
        let err = match sel {
            0 => ServeError::Overloaded(OverloadReason::MailboxFull { capacity: a as usize }),
            1 => ServeError::Overloaded(OverloadReason::TensorBytes { estimated: a, limit: b }),
            2 => ServeError::Timeout {
                deadline: std::time::Duration::new(a % (1 << 40), (b % 1_000_000_000) as u32),
            },
            3 => ServeError::Faulted { panic: panicked, message },
            4 => ServeError::BadRequest(message),
            _ => ServeError::Shutdown,
        };
        let line = encode_reply(Some(a), &Err(err.clone()));
        let (id, outcome) = decode_reply(&line).expect("round trip");
        prop_assert_eq!(id, Some(a));
        prop_assert_eq!(outcome.unwrap_err(), err);
    }

    /// Truncating a request line at any interior byte boundary must yield
    /// a typed protocol error — never a panic, never a bogus decode.
    #[test]
    fn truncated_requests_error_cleanly(
        cut_frac in 0u32..1000,
        variant_sel in 0u8..3,
    ) {
        let req = SimRequest::suite("cant", 1.0 / 256.0, variant_from(variant_sel, 0, 10))
            .expect("suite workload");
        let line = encode_request(1, &Work::Sim(req));
        let mut cut = (line.len() as u64 * u64::from(cut_frac) / 1000) as usize;
        while cut < line.len() && !line.is_char_boundary(cut) {
            cut += 1;
        }
        if cut < line.len() {
            prop_assert!(decode_request_line(&line[..cut]).is_err());
        }
    }

    /// Arbitrary byte soup (valid UTF-8 or not after lossy conversion)
    /// must come back as Ok or Err — decoding never panics. The server
    /// turns every Err into a protocol-level error reply.
    #[test]
    fn garbage_never_panics_the_decoder(
        bytes in proptest::collection::vec(0u8..=255, 0..200),
    ) {
        let text = String::from_utf8_lossy(&bytes);
        let _ = Json::parse(&text);
        let _ = decode_request_line(&text);
        let _ = decode_reply(&text);
    }

    /// Corrupting one byte of a valid line must never panic, and if the
    /// result still decodes it must carry the same id (the mutation can
    /// only have hit a payload field, which decodes to *different* typed
    /// values, not to UB).
    #[test]
    fn single_byte_corruption_is_contained(
        pos_frac in 0u32..1000,
        replacement in 32u8..127,
    ) {
        let req = SimRequest::suite("email-Enron", 1.0 / 256.0, Variant::ExTensorP)
            .expect("suite workload");
        let line = encode_request(77, &Work::Sim(req));
        let mut bytes = line.into_bytes();
        let pos = (bytes.len() as u64 * u64::from(pos_frac) / 1000) as usize % bytes.len();
        bytes[pos] = replacement;
        let mutated = String::from_utf8_lossy(&bytes).into_owned();
        let _ = decode_request_line(&mutated);
    }
}
