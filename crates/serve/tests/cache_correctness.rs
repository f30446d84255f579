//! Property test: serving never leaks state between requests. For
//! arbitrary matrices, budgets, and grids, a served response — after an
//! arbitrary interleaving of cache hits and LRU evictions (tiny tier
//! capacities force constant eviction churn) — is bit-identical to a
//! cold `Variant::run_gridded` call on a freshly built profile. Repeated
//! submissions are additionally checked against themselves, so the hit
//! path and the miss path are pinned to one another.

use proptest::prelude::*;
use tailors_serve::{ServeConfig, SimRequest, SimService};
use tailors_sim::{ArchConfig, GridMode, MemBudget, Variant};
use tailors_tensor::gen::GenSpec;
use tailors_tensor::CsrMatrix;

fn variant_of(idx: u8) -> Variant {
    match idx % 3 {
        0 => Variant::ExTensorN,
        1 => Variant::ExTensorP,
        _ => Variant::default_ob(),
    }
}

fn matrix_of(seed: u64, heavy: bool, n: usize, nnz: usize) -> CsrMatrix {
    let spec = if heavy {
        GenSpec::power_law(n, n, nnz)
    } else {
        GenSpec::uniform(n, n, nnz)
    };
    spec.seed(seed).generate()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Arbitrary request streams over a pool of matrices through a
    /// service whose tiers are much smaller than the pool's working set:
    /// every response equals the cold run, bitwise, regardless of what
    /// was cached, hit, or evicted before it.
    #[test]
    fn served_equals_cold_under_arbitrary_interleaving(
        seed in 0u64..50,
        heavy in proptest::bool::ANY,
        n in 40usize..70,
        nnz in 200usize..500,
        gb_elems in 60u64..2_000,
        pe_elems in 12u64..200,
        ops in proptest::collection::vec(
            (0u8..3, 0u8..3, 0u8..3, proptest::bool::ANY),
            8..20
        ),
    ) {
        // Three distinct matrices cycling through a 2-profile tier and a
        // 3-plan tier: evictions on nearly every switch.
        let pool: Vec<CsrMatrix> = (0..3)
            .map(|i| matrix_of(seed * 3 + i, heavy, n + i as usize, nnz))
            .collect();
        let arch = ArchConfig::tiny(gb_elems, pe_elems);
        let service = SimService::with_config(ServeConfig {
            profile_capacity: 2,
            plan_capacity: 3,
        });
        for (mi, vi, bi, grid2d) in ops {
            let a = &pool[mi as usize % pool.len()];
            let variant = variant_of(vi);
            let budget = match bi % 3 {
                0 => MemBudget::Unbounded,
                // Tight: a handful of column tiles per block.
                1 => MemBudget::bytes((n as u64) * 16 * 8),
                // Sub-tile: clamps to the minimum schedulable unit.
                _ => MemBudget::bytes(64),
            };
            let grid = if grid2d { GridMode::Grid2D } else { GridMode::Panels };
            let (served, _) = service.run_matrix(a, variant, &arch, budget, grid);
            let cold = variant.run_gridded(&a.profile(), &arch, budget, grid);
            prop_assert_eq!(served, cold, "matrix {} variant {} budget {} grid {}",
                mi, variant.name(), budget, grid);
            prop_assert_eq!(served.cycles.to_bits(), cold.cycles.to_bits());
            prop_assert_eq!(served.energy_pj.to_bits(), cold.energy_pj.to_bits());
            // The immediate resubmission (a guaranteed hit on both tiers)
            // must also match — hit path == miss path.
            let (again, hits) = service.run_matrix(a, variant, &arch, budget, grid);
            prop_assert!(hits.profile && hits.plan);
            prop_assert_eq!(again, served);
        }
        // The tiers really were too small to hold everything: the churn
        // above must have produced misses beyond the first fills.
        let stats = service.stats();
        prop_assert!(stats.profile_misses >= 1 && stats.plan_misses >= 1);
    }
}

/// Auto-planned and fixed requests for the same (matrix, variant, arch,
/// budget) derive different execution plans, so the plan tier must key
/// them apart: one service serves both modes of one request, each
/// bit-identical to a cold replan in its own mode, with the hit path
/// pinned to the miss path on immediate resubmission.
#[test]
fn auto_and_fixed_plans_never_share_a_plan_slot() {
    let workload = tailors_workloads::by_name("email-Enron")
        .expect("suite workload")
        .scaled(1.0 / 64.0);
    let arch = ArchConfig::extensor().scaled(1.0 / 64.0);
    let budget = MemBudget::bytes(64 << 10);
    let service = SimService::new();
    let profile = tailors_workloads::generate_cached(&workload).profile();
    let variant = Variant::default_ob();
    let tile = variant.plan(&profile, &arch);
    let [fixed_exec, auto_exec] =
        [false, true].map(|auto| variant.execution_plan(&profile, &arch, budget, &tile, auto));
    assert_ne!(
        fixed_exec, auto_exec,
        "the operating point must separate the two modes"
    );
    for (auto_plan, exec) in [(false, fixed_exec), (true, auto_exec)] {
        let req = SimRequest {
            workload: workload.clone(),
            variant,
            arch,
            budget,
            grid: GridMode::Panels,
            auto_plan,
        };
        let resp = service.submit(&req);
        let direct = variant.run_planned(&profile, &arch, &tile, &exec, req.grid);
        assert_eq!(
            resp.metrics, direct,
            "auto_plan={auto_plan}: served metrics diverged from the cold replan"
        );
        let again = service.submit(&req);
        assert!(again.hits.profile && again.hits.plan);
        assert_eq!(again.metrics, resp.metrics, "auto_plan={auto_plan}");
    }
}

/// Spec-keyed requests through a one-profile tier: every switch evicts
/// the other workloads' profiles, so the second round refills each one
/// from the generator's pattern stream while its identity and plan stay
/// cached. Every response must equal the cold run on the built tensor's
/// profile, for a banded, a power-law and a clustered workload.
#[test]
fn evicted_spec_profiles_refill_bit_identically() {
    let scale = 1.0 / 256.0;
    let service = SimService::with_config(ServeConfig {
        profile_capacity: 1,
        ..ServeConfig::default()
    });
    let reqs: Vec<SimRequest> = ["cant", "email-Enron", "roadNet-CA"]
        .iter()
        .map(|name| SimRequest::suite(name, scale, Variant::default_ob()).unwrap())
        .collect();
    for round in 0..2 {
        for req in &reqs {
            let resp = service.submit(req);
            let profile = req.workload.generate().profile();
            let cold = req
                .variant
                .run_gridded(&profile, &req.arch, req.budget, req.grid);
            assert_eq!(resp.metrics, cold, "{} round {round}", resp.name);
            if round == 1 {
                assert!(resp.hits.tensor && !resp.hits.profile && resp.hits.plan);
            }
        }
    }
}
