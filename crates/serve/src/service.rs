//! The long-lived simulation service: request/response types, the cache
//! tiers, and the batched submission path.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use tailors_sim::functional::{run_with_threads, EngineError, FunctionalConfig, FunctionalResult};
use tailors_sim::{
    run_balanced, ArchConfig, ExecutionPlan, GridMode, MemBudget, RunMetrics, TilePlan, Variant,
};
use tailors_tensor::{CsrMatrix, MatrixProfile};
use tailors_workloads::{generate_cached, Workload};

use crate::lru::Lru;
use crate::runtime::estimated_tensor_bytes;
use crate::sync::PoisonFreeMutex;

/// The identity of a matrix for cache keying: its stable pattern hash
/// (see [`CsrMatrix::pattern_hash`]) plus shape and nonzero count, so a
/// 64-bit hash collision additionally has to match the matrix's
/// dimensions before two distinct patterns could share cached artifacts.
///
/// Values are deliberately not part of the identity: the profile and plan
/// tiers it keys hold artifacts built from the nonzero pattern alone, so
/// two matrices that differ only in their values share them exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MatrixId {
    /// Stable pattern hash of the matrix.
    pub hash: u64,
    /// Rows.
    pub nrows: usize,
    /// Columns.
    pub ncols: usize,
    /// Stored nonzeros.
    pub nnz: usize,
}

impl MatrixId {
    /// The identity of `a` (one linear hashing pass).
    pub fn of(a: &CsrMatrix) -> MatrixId {
        MatrixId {
            hash: a.pattern_hash(),
            nrows: a.nrows(),
            ncols: a.ncols(),
            nnz: a.nnz(),
        }
    }

    /// The identity and occupancy profile of `wl`'s tensor, read from the
    /// generator's pattern stream ([`Workload::pattern`]) without
    /// building the tensor. Equal to `MatrixId::of(&wl.generate())`.
    pub(crate) fn of_pattern(wl: &Workload) -> (MatrixId, MatrixProfile) {
        let (profile, hash) = wl.pattern();
        let id = MatrixId {
            hash,
            nrows: profile.nrows(),
            ncols: profile.ncols(),
            nnz: profile.nnz() as usize,
        };
        (id, profile)
    }
}

/// A workload spec's identity — the same fields the generation cache keys
/// by, so equal specs resolve to one [`MatrixId`] without regeneration.
/// Shared with the shard router, which memoizes spec → identity the same
/// way to route requests by pattern hash without rerunning the generator.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) struct SpecKey {
    name: &'static str,
    seed: u64,
    nrows: usize,
    ncols: usize,
    target_nnz: usize,
}

impl SpecKey {
    pub(crate) fn of(wl: &Workload) -> SpecKey {
        SpecKey {
            name: wl.name,
            seed: wl.seed,
            nrows: wl.nrows,
            ncols: wl.ncols,
            target_nnz: wl.target_nnz,
        }
    }
}

/// The LPT scheduling cost of one analytical request — the shared
/// currency of [`SimService::submit_batch`]'s thread bins and the shard
/// router's per-connection bins. Workload size scales the shared
/// per-request work (generation/hashing/profiling when cold, row-panel
/// sums always). A cold request's dominant cost is variant planning,
/// which differs sharply by variant: overbooked plans run Swiftiles
/// occupancy sampling and prescient plans scan candidate panel heights,
/// while ExTensor-N's plan is constant-time — so same-size requests must
/// not cost the same or one bin inherits all the sampling.
pub(crate) fn request_cost(wl: &Workload, variant: Variant) -> u128 {
    let planning = match variant {
        Variant::ExTensorN => 1,
        Variant::ExTensorP => 2,
        Variant::ExTensorOB { .. } => 4,
        // `Variant` is non_exhaustive; price future variants like the
        // prescient planner.
        _ => 2,
    };
    (wl.target_nnz as u128 + wl.nrows as u128 + 1) * planning
}

/// One analytical simulation request: a workload (already at its final
/// dimensions), the variant to plan with, the architecture, and the
/// software execution-plan knobs.
#[derive(Debug, Clone)]
pub struct SimRequest {
    /// The workload spec; its generator's pattern stream yields the
    /// identity that keys the profile/plan tiers, and the profile.
    pub workload: Workload,
    /// The accelerator variant to plan and simulate.
    pub variant: Variant,
    /// The architecture to plan against.
    pub arch: ArchConfig,
    /// Per-thread scratch budget for the induced execution plan.
    pub budget: MemBudget,
    /// Functional grid decomposition recorded in the scratch stats.
    pub grid: GridMode,
    /// Opt-in budget-aware auto-tiling: derive the execution plan through
    /// [`Variant::execution_plan`]'s auto planner (panel height
    /// co-optimized against `budget`) instead of fixing it at the
    /// variant's tile height. Part of the plan-tier cache key — auto and
    /// fixed plans for the same (matrix, variant, arch, budget) are
    /// distinct artifacts.
    pub auto_plan: bool,
}

impl SimRequest {
    /// A request for suite workload `name` at `scale` (workload and
    /// architecture scaled together, as the bench suite does), with an
    /// unbounded budget, the default grid, and fixed (non-auto) tiling.
    /// `None` if `name` is not a suite workload.
    pub fn suite(name: &str, scale: f64, variant: Variant) -> Option<SimRequest> {
        Some(SimRequest {
            workload: tailors_workloads::by_name(name)?.scaled(scale),
            variant,
            arch: ArchConfig::extensor().scaled(scale),
            budget: MemBudget::Unbounded,
            grid: GridMode::default(),
            auto_plan: false,
        })
    }
}

/// Which cache tiers a request hit. Observability metadata only: the
/// response *payload* (metrics or functional result) is bit-identical
/// whether a tier hit or missed, so hit flags are excluded from the
/// determinism guarantees (they legitimately vary with cache state and
/// submission interleaving).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheHits {
    /// The workload spec had already been resolved to a matrix identity
    /// (no pattern regeneration or rehash was needed).
    pub tensor: bool,
    /// The occupancy profile came from the profile tier.
    pub profile: bool,
    /// The tile + execution plans came from the plan tier.
    pub plan: bool,
}

/// One analytical response: the workload's name, the full run metrics
/// (scratch stats included, under [`RunMetrics::scratch`]), and the cache
/// tiers the request hit.
#[derive(Debug, Clone)]
pub struct SimResponse {
    /// Name of the workload the request named.
    pub name: &'static str,
    /// The simulated metrics — bit-identical to a cold
    /// [`Variant::run_gridded`] call on the same inputs.
    pub metrics: RunMetrics,
    /// Cache observability (not part of the deterministic payload).
    pub hits: CacheHits,
}

/// One functional-engine request: the service resolves the tensor through
/// the generation cache, takes the tiling from the variant's (cached)
/// plan, and executes the dataflow through real buffers.
#[derive(Debug, Clone)]
pub struct FunctionalRequest {
    /// The workload spec.
    pub workload: Workload,
    /// The variant whose tile plan shapes the functional tiling.
    pub variant: Variant,
    /// The architecture: sizes the operand buffer
    /// ([`ArchConfig::tile_capacity`]) and the Tailors FIFO region
    /// ([`ArchConfig::gb_fifo_region`]) as well as the tile plan.
    pub arch: ArchConfig,
    /// Per-thread dense-scratch budget for the engine.
    pub budget: MemBudget,
    /// Functional grid decomposition.
    pub grid: GridMode,
    /// Opt-in budget-aware auto-tiling: take the panel height from the
    /// variant's (cached) auto execution plan instead of its tile plan.
    /// The served result is bit-identical to a direct engine run at the
    /// returned configuration's tiling, as always.
    pub auto_plan: bool,
    /// Worker threads for the engine (results never depend on this).
    pub threads: usize,
}

/// One functional response: the exact engine configuration the service
/// derived (so callers can diff against
/// [`reference_run`](tailors_sim::functional::reference_run) under the
/// *same* configuration) and the engine's result.
#[derive(Debug, Clone)]
pub struct FunctionalResponse {
    /// The derived engine configuration.
    pub config: FunctionalConfig,
    /// The engine result — bit-identical to a direct
    /// [`run_with_threads`] call with `config` at any thread count.
    pub result: FunctionalResult,
    /// Cache observability (not part of the deterministic payload).
    pub hits: CacheHits,
}

/// Cache-tier capacities for a [`SimService`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeConfig {
    /// Maximum cached occupancy profiles (one per matrix identity).
    pub profile_capacity: usize,
    /// Maximum cached plan pairs (one per matrix × variant × arch ×
    /// budget combination).
    pub plan_capacity: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        // Profiles are the expensive tier (O(nnz) construction, O(nrows +
        // ncols) resident); 64 comfortably covers the 22-workload suite at
        // a couple of scales. Plans are tiny (two Copy structs) but more
        // numerous: #profiles × #variants × #budgets.
        ServeConfig {
            profile_capacity: 64,
            plan_capacity: 512,
        }
    }
}

/// A point-in-time snapshot of the service's cache counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServeStats {
    /// Analytical requests served.
    pub requests: u64,
    /// Functional requests served.
    pub functional_requests: u64,
    /// Profile-tier hits.
    pub profile_hits: u64,
    /// Profile-tier misses (profile was built from the workload's pattern
    /// stream, or from the tensor of a functional or raw-matrix request).
    pub profile_misses: u64,
    /// Plan-tier hits.
    pub plan_hits: u64,
    /// Plan-tier misses (tile + execution plans were constructed).
    pub plan_misses: u64,
    /// Profiles currently resident in the profile tier.
    pub profile_resident: u64,
    /// The profile tier's capacity bound.
    pub profile_capacity: u64,
    /// Plan pairs currently resident in the plan tier.
    pub plan_resident: u64,
    /// The plan tier's capacity bound.
    pub plan_capacity: u64,
}

impl ServeStats {
    /// Plan-tier hit rate in `[0, 1]` (1.0 when no plan lookups happened).
    pub fn plan_hit_rate(&self) -> f64 {
        let total = self.plan_hits + self.plan_misses;
        if total == 0 {
            1.0
        } else {
            self.plan_hits as f64 / total as f64
        }
    }

    /// Profile-tier hit rate in `[0, 1]` (1.0 when no lookups happened).
    pub fn profile_hit_rate(&self) -> f64 {
        let total = self.profile_hits + self.profile_misses;
        if total == 0 {
            1.0
        } else {
            self.profile_hits as f64 / total as f64
        }
    }
}

/// The cached (tile plan, execution plan) pair for one
/// (matrix, variant, arch, budget) key.
#[derive(Debug, Clone, Copy)]
struct Planned {
    tile: TilePlan,
    exec: ExecutionPlan,
}

type PlanKey = (
    MatrixId,
    tailors_sim::VariantKey,
    tailors_sim::ArchKey,
    MemBudget,
    // Auto-planned vs fixed tiling — the two derive different execution
    // plans from the same inputs, so they must never share a cache slot.
    bool,
);

/// The long-lived, thread-safe simulation service. See the
/// [crate docs](crate) for the cache-tier architecture.
#[derive(Debug)]
pub struct SimService {
    /// Workload spec → matrix identity, so analytical requests for a
    /// known spec never regenerate (or re-hash) the tensor. Unbounded:
    /// entries are a handful of words each. All three tiers sit behind
    /// poison-recovering locks ([`PoisonFreeMutex`]) so a request that
    /// panics under the runtime's `catch_unwind` isolation cannot wedge
    /// the caches for every later request.
    ids: PoisonFreeMutex<HashMap<SpecKey, MatrixId>>,
    /// Tier 2: matrix identity → occupancy profile.
    profiles: PoisonFreeMutex<Lru<MatrixId, Arc<MatrixProfile>>>,
    /// Tier 3: (matrix, variant, arch, budget) → (tile plan, exec plan).
    plans: PoisonFreeMutex<Lru<PlanKey, Planned>>,
    requests: AtomicU64,
    functional_requests: AtomicU64,
    profile_hits: AtomicU64,
    profile_misses: AtomicU64,
    plan_hits: AtomicU64,
    plan_misses: AtomicU64,
}

impl Default for SimService {
    fn default() -> Self {
        Self::new()
    }
}

impl SimService {
    /// A service with the default cache capacities.
    pub fn new() -> Self {
        Self::with_config(ServeConfig::default())
    }

    /// A service with explicit cache capacities.
    ///
    /// # Panics
    ///
    /// Panics if either capacity is zero.
    pub fn with_config(config: ServeConfig) -> Self {
        SimService {
            ids: PoisonFreeMutex::new(HashMap::new()),
            profiles: PoisonFreeMutex::new(Lru::new(config.profile_capacity)),
            plans: PoisonFreeMutex::new(Lru::new(config.plan_capacity)),
            requests: AtomicU64::new(0),
            functional_requests: AtomicU64::new(0),
            profile_hits: AtomicU64::new(0),
            profile_misses: AtomicU64::new(0),
            plan_hits: AtomicU64::new(0),
            plan_misses: AtomicU64::new(0),
        }
    }

    /// A snapshot of the cache counters, including tier occupancy.
    pub fn stats(&self) -> ServeStats {
        let (profile_resident, profile_capacity) = {
            let p = self.profiles.lock();
            (p.len() as u64, p.capacity() as u64)
        };
        let (plan_resident, plan_capacity) = {
            let p = self.plans.lock();
            (p.len() as u64, p.capacity() as u64)
        };
        ServeStats {
            requests: self.requests.load(Ordering::Relaxed),
            functional_requests: self.functional_requests.load(Ordering::Relaxed),
            profile_hits: self.profile_hits.load(Ordering::Relaxed),
            profile_misses: self.profile_misses.load(Ordering::Relaxed),
            plan_hits: self.plan_hits.load(Ordering::Relaxed),
            plan_misses: self.plan_misses.load(Ordering::Relaxed),
            profile_resident,
            profile_capacity,
            plan_resident,
            plan_capacity,
        }
    }

    /// Serves one analytical request. Bit-identical to
    /// `req.variant.run_gridded(&profile, &req.arch, req.budget,
    /// req.grid)` on the workload's freshly built profile, for any cache
    /// state.
    ///
    /// # Panics
    ///
    /// As [`Variant::plan`] and
    /// [`simulate_planned`](tailors_sim::simulate_planned) (non-square or
    /// empty workload tensor, invalid overbooked `y`).
    pub fn submit(&self, req: &SimRequest) -> SimResponse {
        self.requests.fetch_add(1, Ordering::Relaxed);
        let (id, tensor_hot, warmed) = self.resolve_identity(&req.workload);
        let (profile, profile_hit) = match warmed {
            // First sight of the spec: resolve_identity just built and
            // tiered the profile (counted as the miss it is).
            Some(profile) => (profile, false),
            // Eviction refill: rerun the generator's pattern stream — the
            // documented cost of a bounded tier. Deliberately NOT
            // `profile_cached`: its process-global map is strong and
            // unbounded, and routing misses through it would quietly void
            // this tier's memory bound.
            None => self.profile_of(id, || Arc::new(req.workload.pattern().0)),
        };
        let (planned, plan_hit) = self.plans_of(
            id,
            req.variant,
            &req.arch,
            req.budget,
            req.auto_plan,
            &profile,
        );
        let metrics =
            req.variant
                .run_planned(&profile, &req.arch, &planned.tile, &planned.exec, req.grid);
        SimResponse {
            name: req.workload.name,
            metrics,
            hits: CacheHits {
                tensor: tensor_hot,
                profile: profile_hit,
                plan: plan_hit,
            },
        }
    }

    /// Serves a whole batch, fanning the requests across `threads`
    /// workers in cost-balanced LPT bins
    /// ([`balanced_partition`](tailors_sim::balanced_partition) on
    /// workload size, the same scheduler the functional engine and the
    /// bench suite use) so heterogeneous requests share the pool instead
    /// of running serially. Responses come back in request order and
    /// their payloads are bit-identical for every thread count.
    ///
    /// # Panics
    ///
    /// As [`SimService::submit`]; additionally if `threads == 0`.
    pub fn submit_batch(&self, reqs: &[SimRequest], threads: usize) -> Vec<SimResponse> {
        assert!(threads > 0, "thread count must be positive");
        let costs: Vec<u128> = reqs
            .iter()
            .map(|r| request_cost(&r.workload, r.variant))
            .collect();
        run_balanced(reqs.len(), &costs, threads, |i| self.submit(&reqs[i]))
    }

    /// Serves one analytical request for a raw matrix (no workload spec):
    /// the matrix is hashed to its [`MatrixId`] and the profile/plan
    /// tiers apply as usual. Bit-identical to a cold
    /// `variant.run_gridded(&a.profile(), arch, budget, grid)`.
    ///
    /// # Panics
    ///
    /// As [`SimService::submit`].
    pub fn run_matrix(
        &self,
        a: &CsrMatrix,
        variant: Variant,
        arch: &ArchConfig,
        budget: MemBudget,
        grid: GridMode,
    ) -> (RunMetrics, CacheHits) {
        self.requests.fetch_add(1, Ordering::Relaxed);
        let id = MatrixId::of(a);
        let (profile, profile_hit) = self.profile_of(id, || Arc::new(a.profile()));
        let (planned, plan_hit) = self.plans_of(id, variant, arch, budget, false, &profile);
        let metrics = variant.run_planned(&profile, arch, &planned.tile, &planned.exec, grid);
        (
            metrics,
            CacheHits {
                tensor: false,
                profile: profile_hit,
                plan: plan_hit,
            },
        )
    }

    /// Serves one functional request: resolves the tensor through the
    /// generation cache, takes `rows_a`/`cols_b`/overbooking from the
    /// variant's (cached) tile plan, sizes the operand buffer from the
    /// architecture, and executes the dataflow. The result is
    /// bit-identical to a direct [`run_with_threads`] call with the
    /// returned [`FunctionalConfig`] — and therefore to
    /// [`reference_run`](tailors_sim::functional::reference_run) — at
    /// every thread count.
    ///
    /// # Errors
    ///
    /// A typed [`EngineError`]: [`ConfigError`] for a degenerate derived
    /// configuration (e.g. a non-square workload tensor), buffer-protocol
    /// errors otherwise (none occur for well-formed input).
    ///
    /// # Panics
    ///
    /// As [`Variant::plan`] (empty workload tensor, invalid overbooked
    /// `y`); the serving runtime isolates those with `catch_unwind`.
    ///
    /// [`ConfigError`]: tailors_sim::functional::ConfigError
    pub fn run_functional(
        &self,
        req: &FunctionalRequest,
    ) -> Result<FunctionalResponse, EngineError> {
        // A saturating estimate never exceeds `u64::MAX`.
        self.run_functional_within(req, u64::MAX)
            .unwrap_or_else(|estimated| unreachable!("{estimated} B exceeds u64::MAX"))
    }

    /// [`SimService::run_functional`], refused before the engine runs
    /// when the planned footprint exceeds `limit` bytes: the dense
    /// scratch of the execution plan, once per requested thread, plus
    /// [`estimated_tensor_bytes`]. A budget smaller than one tile lets
    /// the plan clamp past it (`fits_budget() == false`), so the scratch
    /// can dwarf the tensor; the engine would die allocating it, which
    /// `catch_unwind` cannot isolate. `Err` carries the estimate.
    pub(crate) fn run_functional_within(
        &self,
        req: &FunctionalRequest,
        limit: u64,
    ) -> Result<Result<FunctionalResponse, EngineError>, u64> {
        self.functional_requests.fetch_add(1, Ordering::Relaxed);
        let spec = SpecKey::of(&req.workload);
        let known = self.ids.lock().get(&spec).copied();
        let tensor_hot = known.is_some();
        // The engine needs the tensor itself, so resolve it through the
        // generation cache and keep the Arc alive for the run.
        let tensor = generate_cached(&req.workload);
        let id = match known {
            Some(id) => id,
            None => {
                let id = MatrixId::of(&tensor);
                self.ids.lock().insert(spec, id);
                id
            }
        };
        let (profile, profile_hit) = self.profile_of(id, || Arc::new(tensor.profile()));
        let (planned, plan_hit) = self.plans_of(
            id,
            req.variant,
            &req.arch,
            req.budget,
            req.auto_plan,
            &profile,
        );
        // The panel height comes from the *cached* execution plan — the
        // tile plan's height when fixed, the auto planner's otherwise (the
        // engine would derive the identical auto plan itself — same
        // profile, same buffer model, same baseline — but resolving at the
        // plan tier keeps hot requests planning-free and the returned
        // config self-contained: callers diff it against `reference_run`
        // directly).
        let config = FunctionalConfig {
            capacity: (req.arch.tile_capacity() as usize).max(1),
            fifo_region: req.arch.gb_fifo_region() as usize,
            rows_a: planned.exec.rows_a(),
            cols_b: planned.tile.gb_cols_b,
            overbooking: planned.tile.overbooking,
            mem_budget: req.budget,
            grid: req.grid,
            auto_plan: false,
        };
        let n = tensor.nrows();
        let estimated = config
            .execution_plan(n, n)
            .scratch_bytes()
            .saturating_mul(req.threads as u64)
            .saturating_add(estimated_tensor_bytes(&req.workload));
        if estimated > limit {
            return Err(estimated);
        }
        Ok(
            run_with_threads(&tensor, &config, req.threads).map(|result| FunctionalResponse {
                config,
                result,
                hits: CacheHits {
                    tensor: tensor_hot,
                    profile: profile_hit,
                    plan: plan_hit,
                },
            }),
        )
    }

    /// Resolves a workload spec to its matrix identity, running the
    /// generator's pattern stream only on the first sight of the spec; no
    /// tensor is built. That pass yields the profile too, which is tiered,
    /// counted as the profile miss it is, and returned so the caller does
    /// not immediately re-consult the tier. The service builds profiles
    /// itself rather than through the unbounded `profile_cached` strong
    /// map, so [`ServeConfig::profile_capacity`] is a real bound on what
    /// the service retains.
    fn resolve_identity(&self, wl: &Workload) -> (MatrixId, bool, Option<Arc<MatrixProfile>>) {
        let spec = SpecKey::of(wl);
        if let Some(id) = self.ids.lock().get(&spec) {
            return (*id, true, None);
        }
        let (id, profile) = MatrixId::of_pattern(wl);
        let profile = Arc::new(profile);
        self.profile_misses.fetch_add(1, Ordering::Relaxed);
        self.profiles.lock().insert(id, Arc::clone(&profile));
        self.ids.lock().insert(spec, id);
        (id, false, Some(profile))
    }

    /// Tier-2 lookup: the profile for `id`, built with `make` on a miss.
    /// `make` runs outside the cache lock, so concurrent misses for the
    /// same identity may build twice — both builds are bit-identical, so
    /// last-insert-wins is safe.
    fn profile_of(
        &self,
        id: MatrixId,
        make: impl FnOnce() -> Arc<MatrixProfile>,
    ) -> (Arc<MatrixProfile>, bool) {
        if let Some(p) = self.profiles.lock().get(&id) {
            self.profile_hits.fetch_add(1, Ordering::Relaxed);
            return (Arc::clone(p), true);
        }
        self.profile_misses.fetch_add(1, Ordering::Relaxed);
        let profile = make();
        self.profiles.lock().insert(id, Arc::clone(&profile));
        (profile, false)
    }

    /// Tier-3 lookup: the (tile, execution) plan pair for the request
    /// key, constructed from the profile on a miss (outside the lock; see
    /// [`SimService::profile_of`] for why double construction is safe).
    fn plans_of(
        &self,
        id: MatrixId,
        variant: Variant,
        arch: &ArchConfig,
        budget: MemBudget,
        auto_plan: bool,
        profile: &MatrixProfile,
    ) -> (Planned, bool) {
        let key: PlanKey = (id, variant.cache_key(), arch.cache_key(), budget, auto_plan);
        if let Some(p) = self.plans.lock().get(&key) {
            self.plan_hits.fetch_add(1, Ordering::Relaxed);
            return (*p, true);
        }
        self.plan_misses.fetch_add(1, Ordering::Relaxed);
        let tile = variant.plan(profile, arch);
        let exec = variant.execution_plan(profile, arch, budget, &tile, auto_plan);
        let planned = Planned { tile, exec };
        self.plans.lock().insert(key, planned);
        (planned, false)
    }
}
