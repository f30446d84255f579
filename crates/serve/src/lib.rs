//! Long-lived serving layer for the Tailors reproduction: accepts
//! simulation requests — singly or as batches — and answers from hot
//! caches instead of re-deriving everything per run.
//!
//! Every sweep binary in `tailors-bench` re-profiles its matrices and
//! re-derives tile/execution plans from scratch on each run. In a serving
//! setting (the ROADMAP's "heavy traffic" north star) those derivations
//! are the steady-state cost: the paper's planning stage — Swiftiles
//! occupancy sampling feeding the overbooked tile planner — is exactly
//! the work worth computing once per (matrix, variant, architecture,
//! budget) and replaying thereafter. [`SimService`] keeps three cache
//! tiers hot across requests:
//!
//! 1. **Identities** — each workload spec's [`MatrixId`], memoized so a
//!    known spec never regenerates anything. An analytical cold miss
//!    reads the identity and the profile from the generator's pattern
//!    stream ([`Workload::pattern`](tailors_workloads::Workload::pattern))
//!    and never builds the tensor. Only functional requests need one;
//!    they resolve it through `tailors_workloads::generate_cached`, an
//!    in-process map of weak tensor handles.
//! 2. **Profiles** — `MatrixId` → [`MatrixProfile`](tailors_tensor::MatrixProfile)
//!    in a bounded LRU. The service builds profiles itself (never through
//!    the unbounded strong `profile_cached` map), so
//!    [`ServeConfig::profile_capacity`] is a real bound on resident
//!    profile memory; an evicted profile costs one rerun of the
//!    generator's pattern stream on next use.
//! 3. **Plans** — (`MatrixId`,
//!    [`Variant::cache_key`](tailors_sim::Variant::cache_key),
//!    [`ArchConfig::cache_key`](tailors_sim::ArchConfig::cache_key),
//!    [`MemBudget`](tailors_sim::MemBudget), auto-plan flag) → the
//!    variant's [`TilePlan`](tailors_sim::TilePlan) and induced
//!    [`ExecutionPlan`](tailors_sim::ExecutionPlan) — fixed-height, or
//!    from the budget-aware auto planner when the request opts in — in
//!    a bounded LRU; hot requests replay them through
//!    [`Variant::run_planned`](tailors_sim::Variant::run_planned) and
//!    perform no planning.
//!
//! Matrix identity is the *pattern* hash
//! ([`CsrMatrix::pattern_hash`](tailors_tensor::CsrMatrix::pattern_hash)),
//! not an allocation or spec identity, so two requests naming the same
//! nonzero pattern share cached artifacts no matter how the matrix
//! arrived. Values are not part of it: profiles and plans read only the
//! pattern, so keying them by pattern is exact.
//!
//! **Determinism contract:** every response payload (metrics, functional
//! results) is bit-identical to the corresponding cold
//! `Variant::run_gridded` / `functional::run_with_threads` call — for any
//! cache state, any eviction history, any batch composition, and any
//! thread count (batches fan out over cost-balanced LPT bins and
//! reassemble in request order). The regression suite in
//! `crates/serve/tests/` locks this down: golden metrics snapshots,
//! cache-vs-cold bit-parity under arbitrary interleavings/evictions, and
//! concurrent-client determinism at 1/4/8 threads.
//!
//! # Example
//!
//! ```
//! use tailors_serve::{SimRequest, SimService};
//! use tailors_sim::Variant;
//!
//! let service = SimService::new();
//! let batch: Vec<SimRequest> = ["cant", "email-Enron"]
//!     .iter()
//!     .flat_map(|name| {
//!         [Variant::ExTensorP, Variant::default_ob()]
//!             .into_iter()
//!             .map(|v| SimRequest::suite(name, 1.0 / 256.0, v).unwrap())
//!     })
//!     .collect();
//! let cold = service.submit_batch(&batch, 2);
//! let hot = service.submit_batch(&batch, 2);
//! for (c, h) in cold.iter().zip(&hot) {
//!     assert_eq!(c.metrics, h.metrics); // hot == cold, bit-identical
//!     assert!(h.hits.plan && h.hits.profile);
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod lru;
pub mod mailbox;
pub mod runtime;
mod service;
pub mod shard;
pub mod sync;
pub mod wire;

pub use lru::Lru;
pub use mailbox::{Mailbox, MailboxStats, Priority, PushError};
pub use runtime::{
    FaultPlan, FaultSpecError, OverloadReason, Reply, RetryPolicy, RuntimeConfig, RuntimeStats,
    ServeError, ServiceRuntime, ShutdownReport, Work,
};
pub use service::{
    CacheHits, FunctionalRequest, FunctionalResponse, MatrixId, ServeConfig, ServeStats,
    SimRequest, SimResponse, SimService,
};
pub use shard::{HashRing, PoolError, RouterConfig, RouterStats, ShardRouter, ShardStats};
pub use wire::{
    WireClient, WireError, WireRequest, WireServeReport, WireStopReport, WireTcpServer,
};

#[cfg(test)]
mod tests {
    use super::*;
    use tailors_sim::{ArchConfig, CostModel, GridMode, MemBudget, Variant};
    use tailors_tensor::gen::GenSpec;
    use tailors_tensor::CsrMatrix;

    #[test]
    fn hot_requests_hit_every_tier_and_match_cold_payloads() {
        let service = SimService::new();
        let req = SimRequest::suite("email-Enron", 1.0 / 256.0, Variant::default_ob()).unwrap();
        let cold = service.submit(&req);
        assert!(!cold.hits.tensor && !cold.hits.plan);
        let hot = service.submit(&req);
        assert!(hot.hits.tensor && hot.hits.profile && hot.hits.plan);
        assert_eq!(cold.metrics, hot.metrics);
        assert_eq!(cold.name, "email-Enron");
        let s = service.stats();
        assert_eq!(s.requests, 2);
        assert_eq!(s.plan_hits, 1);
        assert_eq!(s.plan_misses, 1);
        assert!(s.plan_hit_rate() > 0.49 && s.plan_hit_rate() < 0.51);
    }

    #[test]
    fn batch_payloads_are_thread_count_invariant() {
        let service = SimService::new();
        let batch: Vec<SimRequest> = tailors_workloads::suite()
            .iter()
            .take(6)
            .filter_map(|w| SimRequest::suite(w.name, 1.0 / 256.0, Variant::ExTensorP))
            .collect();
        assert_eq!(batch.len(), 6);
        let serial = service.submit_batch(&batch, 1);
        for threads in [2, 4] {
            let parallel = service.submit_batch(&batch, threads);
            for (s, p) in serial.iter().zip(&parallel) {
                assert_eq!(s.name, p.name);
                assert_eq!(s.metrics, p.metrics, "threads={threads}");
            }
        }
    }

    #[test]
    fn matrix_identity_is_pattern_based() {
        let a = GenSpec::uniform(64, 64, 300).seed(1).generate();
        let b = a.clone();
        let c = GenSpec::uniform(64, 64, 300).seed(2).generate();
        // Same pattern, every value changed.
        let revalued = CsrMatrix::from_parts(
            a.nrows(),
            a.ncols(),
            a.row_ptr().to_vec(),
            a.col_indices().to_vec(),
            a.values().iter().map(|v| 2.0 * v + 1.0).collect(),
        )
        .unwrap();
        assert_eq!(MatrixId::of(&a), MatrixId::of(&b));
        assert_eq!(MatrixId::of(&a), MatrixId::of(&revalued));
        assert_ne!(MatrixId::of(&a), MatrixId::of(&c));
        // Two services agree on identities; one service reuses plans for
        // an equal pattern arriving as distinct allocations, values
        // included.
        let service = SimService::new();
        let arch = ArchConfig::tiny(200, 40);
        let run = |m: &CsrMatrix| {
            service.run_matrix(
                m,
                Variant::ExTensorP,
                &arch,
                MemBudget::Unbounded,
                GridMode::Panels,
            )
        };
        let (m1, h1) = run(&a);
        let (m2, h2) = run(&b);
        let (m3, h3) = run(&revalued);
        assert!(!h1.plan && h2.plan && h2.profile && h3.plan && h3.profile);
        assert_eq!(m1, m2);
        assert_eq!(m1, m3);
        // The spec path resolves to the same identity as the built tensor.
        let wl = tailors_workloads::by_name("email-Enron")
            .unwrap()
            .scaled(1.0 / 512.0);
        let (id, profile) = MatrixId::of_pattern(&wl);
        let t = wl.generate();
        assert_eq!(id, MatrixId::of(&t));
        assert_eq!(profile, t.profile());
    }

    #[test]
    fn functional_response_matches_direct_engine_call() {
        let service = SimService::new();
        let wl = tailors_workloads::by_name("email-Enron")
            .unwrap()
            .scaled(1.0 / 512.0);
        let a = wl.generate();
        let variants = [
            Variant::ExTensorN,
            Variant::ExTensorP,
            Variant::default_ob(),
        ];
        for variant in variants {
            let req = FunctionalRequest {
                workload: wl.clone(),
                variant,
                arch: ArchConfig::extensor().scaled(1.0 / 512.0),
                budget: MemBudget::mib(4),
                grid: GridMode::Grid2D,
                auto_plan: false,
                threads: 2,
            };
            let name = variant.name();
            let served = service.run_functional(&req).unwrap();
            for threads in [1, 3] {
                let direct =
                    tailors_sim::functional::run_with_threads(&a, &served.config, threads).unwrap();
                assert_eq!(served.result, direct, "{name} threads={threads}");
            }
            // The seed engine under the identical served configuration.
            let oracle = tailors_sim::functional::reference_run(&a, &served.config).unwrap();
            assert_eq!(served.result, oracle, "{name}: diverged from reference_run");
            // Second submission: every tier hot, same payload.
            let again = service.run_functional(&req).unwrap();
            assert!(again.hits.tensor && again.hits.profile && again.hits.plan);
            assert_eq!(again.result, served.result, "{name}");
        }
        assert_eq!(
            service.stats().functional_requests,
            2 * variants.len() as u64
        );
    }

    #[test]
    fn auto_planned_requests_resolve_and_cache_their_own_plans() {
        let service = SimService::new();
        let wl = tailors_workloads::by_name("email-Enron")
            .unwrap()
            .scaled(1.0 / 512.0);
        let arch = ArchConfig::extensor().scaled(1.0 / 512.0);
        let budget = MemBudget::bytes(64 << 10);
        let fixed = FunctionalRequest {
            workload: wl.clone(),
            variant: Variant::default_ob(),
            arch,
            budget,
            grid: GridMode::Panels,
            auto_plan: false,
            threads: 2,
        };
        let auto = FunctionalRequest {
            auto_plan: true,
            ..fixed.clone()
        };
        let served_fixed = service.run_functional(&fixed).unwrap();
        let served_auto = service.run_functional(&auto).unwrap();
        // The served auto config is resolved (self-contained): a direct
        // engine run at it reproduces the payload bitwise, and the output
        // matrix is tiling-invariant.
        assert!(!served_auto.config.auto_plan);
        let a = wl.generate();
        let direct = tailors_sim::functional::run_with_threads(&a, &served_auto.config, 1).unwrap();
        assert_eq!(served_auto.result, direct);
        assert_eq!(served_auto.result.z, served_fixed.result.z);
        // Auto and fixed plans occupy distinct cache slots: the auto
        // request was a plan miss despite the fixed one having populated
        // the tier, and its resubmission hits.
        assert_eq!(service.stats().plan_misses, 2);
        let again = service.run_functional(&auto).unwrap();
        assert!(again.hits.plan);
        assert_eq!(again.result, served_auto.result);
        // The analytical path shares the keying: an auto SimRequest for
        // the same inputs is served from the same plan tier.
        let sim_req = SimRequest {
            workload: wl.clone(),
            variant: Variant::default_ob(),
            arch,
            budget,
            grid: GridMode::Panels,
            auto_plan: true,
        };
        let resp = service.submit(&sim_req);
        assert!(resp.hits.plan, "functional warm-up must serve the sim path");
        let profile = a.profile();
        let ob = Variant::default_ob();
        let tile = ob.plan(&profile, &arch);
        let exec = ob.execution_plan(&profile, &arch, budget, &tile, Some(CostModel::UNIFORM));
        let cold = ob.run_planned(&profile, &arch, &tile, &exec, GridMode::Panels);
        assert_eq!(resp.metrics, cold);
    }
}
