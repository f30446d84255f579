//! The fault-tolerant service runtime: a fixed pool of actor-shaped
//! worker threads consuming a bounded priority [`Mailbox`], with
//! admission control in front of the queue and panic isolation around
//! every request.
//!
//! # Request lifecycle
//!
//! ```text
//! submit ── validate ──► BadRequest (typed reject)
//!    │
//!    ├── admission ────► Overloaded{TensorBytes}
//!    │
//!    ├── try_push ─────► Overloaded{MailboxFull}   (backpressure,
//!    │                   value handed back — retry with capped
//!    │                   exponential backoff via [`RetryPolicy`])
//!    │
//!    └── queued ──► worker pop ──► deadline check ──► Timeout
//!                        │
//!                        └─ catch_unwind(execute) ─► Ok(Reply)
//!                                    │               Overloaded{TensorBytes}
//!                                    │                 (planned scratch)
//!                                    │               Faulted{panic:false}
//!                                    └─ panic ─────► Faulted{panic:true}
//!                                                    (worker survives)
//! ```
//!
//! Every submitted request is accounted for exactly once:
//! `completed + faulted + rejected + timed_out == submitted` — the
//! invariant the fault-injection suite asserts under injected panics,
//! latency, and forced mailbox-full conditions. Completed responses are
//! bit-identical to cold in-process runs for any fault history, because
//! workers only ever execute [`SimService`] calls whose determinism the
//! PR 4 suites already pin.
//!
//! # Fault injection
//!
//! A [`FaultPlan`] (programmatic, or `TAILORS_FAULTS=panic:7,latency:3`
//! from the environment) deterministically injects worker panics,
//! artificial latency, and forced mailbox-full rejections into every
//! N-th request, so the whole failure surface is exercisable in CI
//! without flaky timing games.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, RecvTimeoutError, SyncSender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use tailors_sim::functional::{scratch_pool_stats, EngineError, PoolStats};

use crate::mailbox::{Mailbox, MailboxStats, Priority, PushError};
use crate::service::{FunctionalRequest, FunctionalResponse, SimRequest, SimResponse, SimService};
use crate::sync::PoisonFreeMutex;

/// One unit of work a client can submit.
#[derive(Debug, Clone)]
pub enum Work {
    /// An analytical simulation request (high-priority lane;
    /// admission-gated on the pattern stream's estimated bytes).
    Sim(SimRequest),
    /// A functional-engine request (low-priority lane; admission-gated on
    /// estimated tensor bytes).
    Functional(Box<FunctionalRequest>),
}

impl Work {
    fn priority(&self) -> Priority {
        match self {
            Work::Sim(_) => Priority::High,
            Work::Functional(_) => Priority::Low,
        }
    }

    pub(crate) fn workload(&self) -> &tailors_workloads::Workload {
        match self {
            Work::Sim(r) => &r.workload,
            Work::Functional(r) => &r.workload,
        }
    }
}

/// A successful reply.
// Sim stays inline: analytical replies are the cache-hot microsecond
// lane, and boxing them would put a heap allocation on every reply of
// the common path to shrink an enum that lives on the stack briefly.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
pub enum Reply {
    /// Response to [`Work::Sim`].
    Sim(SimResponse),
    /// Response to [`Work::Functional`].
    Functional(Box<FunctionalResponse>),
}

impl Reply {
    /// The analytical response, if this reply is one.
    pub fn into_sim(self) -> Option<SimResponse> {
        match self {
            Reply::Sim(r) => Some(r),
            Reply::Functional(_) => None,
        }
    }

    /// The functional response, if this reply is one.
    pub fn into_functional(self) -> Option<FunctionalResponse> {
        match self {
            Reply::Functional(r) => Some(*r),
            Reply::Sim(_) => None,
        }
    }
}

/// Why admission control refused a request.
#[derive(Debug, Clone, PartialEq)]
pub enum OverloadReason {
    /// The bounded mailbox is at capacity — transient backpressure;
    /// retryable.
    MailboxFull {
        /// The mailbox's capacity bound.
        capacity: usize,
    },
    /// A request's estimated resident footprint (a functional request's
    /// tensors, and once planned its dense scratch; an analytical
    /// request's pattern stream) exceeds the admission limit. Not
    /// retryable: the same request will always exceed it.
    TensorBytes {
        /// Estimated bytes the request would make resident.
        estimated: u64,
        /// The configured admission limit.
        limit: u64,
    },
}

/// Every way a submitted request can fail — always typed, never a worker
/// abort or a silent drop.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeError {
    /// Refused by admission control or the bounded mailbox; see the
    /// reason for whether a backoff-retry can succeed.
    Overloaded(OverloadReason),
    /// The per-request deadline elapsed before a worker produced a reply.
    Timeout {
        /// The deadline that was exceeded.
        deadline: Duration,
    },
    /// The request reached a worker and failed there: a caught panic
    /// (`panic == true` — the worker kept serving) or an engine error.
    Faulted {
        /// Whether the failure was an isolated panic.
        panic: bool,
        /// Human-readable failure description.
        message: String,
    },
    /// The request was structurally invalid (caught before queueing).
    BadRequest(String),
    /// The request line was longer than the wire session's cap; the
    /// session ends after this reply.
    TooLarge {
        /// The cap in bytes, newline included.
        limit: u64,
    },
    /// The runtime is shutting down and did not serve the request.
    Shutdown,
}

impl ServeError {
    /// Whether resubmitting the identical request after a backoff can
    /// plausibly succeed (transient overload) — the condition
    /// [`ServiceRuntime::submit_with_retry`] retries on.
    pub fn retryable(&self) -> bool {
        matches!(
            self,
            ServeError::Overloaded(OverloadReason::MailboxFull { .. })
        )
    }
}

impl core::fmt::Display for ServeError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ServeError::Overloaded(OverloadReason::MailboxFull { capacity }) => {
                write!(f, "overloaded: mailbox full (capacity {capacity})")
            }
            ServeError::Overloaded(OverloadReason::TensorBytes { estimated, limit }) => {
                write!(
                    f,
                    "overloaded: estimated footprint {estimated} B exceeds limit {limit} B"
                )
            }
            ServeError::Timeout { deadline } => {
                write!(f, "deadline of {deadline:?} exceeded")
            }
            ServeError::Faulted { panic, message } => {
                if *panic {
                    write!(f, "request panicked (worker isolated it): {message}")
                } else {
                    write!(f, "request faulted: {message}")
                }
            }
            ServeError::BadRequest(m) => write!(f, "bad request: {m}"),
            ServeError::TooLarge { limit } => {
                write!(f, "request line exceeds the {limit}-byte cap")
            }
            ServeError::Shutdown => write!(f, "runtime is shutting down"),
        }
    }
}

impl std::error::Error for ServeError {}

/// Why a `TAILORS_FAULTS` spec was refused by [`FaultPlan::parse`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultSpecError {
    /// An entry was not of the form `kind:N`.
    NotKindCount(String),
    /// The count after the `:` was not an unsigned integer.
    BadCount {
        /// The fault kind whose count failed to parse.
        kind: String,
        /// The offending count text.
        count: String,
    },
    /// The kind is not one the injector knows.
    UnknownKind(String),
    /// The same kind (counting `full`/`reject` as one) appeared twice.
    DuplicateKind(String),
}

impl core::fmt::Display for FaultSpecError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            FaultSpecError::NotKindCount(part) => {
                write!(f, "fault spec {part:?} is not kind:N")
            }
            FaultSpecError::BadCount { kind, count } => {
                write!(
                    f,
                    "fault count {count:?} for kind {kind:?} is not an integer"
                )
            }
            FaultSpecError::UnknownKind(kind) => write!(f, "unknown fault kind {kind:?}"),
            FaultSpecError::DuplicateKind(kind) => {
                write!(f, "fault kind {kind:?} appears more than once")
            }
        }
    }
}

impl std::error::Error for FaultSpecError {}

/// Deterministic fault injection: each kind fires on every `N`-th
/// occasion its counter reaches a multiple of `N` (counters are global
/// across workers, so exactly `⌊executed / N⌋` faults fire regardless of
/// interleaving).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultPlan {
    /// Panic inside the worker on every `N`-th executed request.
    pub panic_every: Option<u64>,
    /// Sleep [`FaultPlan::latency_ms`] before every `N`-th executed request.
    pub latency_every: Option<u64>,
    /// Injected latency duration (default 1 ms).
    pub latency_ms: u64,
    /// Force an `Overloaded(MailboxFull)` rejection on every `N`-th
    /// submission, as if the mailbox had no free slot.
    pub reject_every: Option<u64>,
    /// Sever the wire session after every `N`-th decoded work request
    /// (every session alike: a TCP connection closes, a stdio session
    /// ends as if at end of input). The
    /// request is discarded *before* it reaches the runtime, so the
    /// client observes an EOF mid-call and must reconnect and resend —
    /// exactly the failure [`WireClient::call_with_retry`] and the
    /// router's failover path are built to absorb.
    ///
    /// [`WireClient::call_with_retry`]: crate::wire::WireClient::call_with_retry
    pub drop_conn_every: Option<u64>,
}

impl FaultPlan {
    /// No injected faults.
    pub fn none() -> Self {
        FaultPlan {
            latency_ms: 1,
            ..FaultPlan::default()
        }
    }

    /// Whether any fault kind is armed.
    pub fn is_active(&self) -> bool {
        self.panic_every.is_some()
            || self.latency_every.is_some()
            || self.reject_every.is_some()
            || self.drop_conn_every.is_some()
    }

    /// Parses a spec like `"panic:7,latency:3,full:5"`. Kinds: `panic`,
    /// `latency`, `full` (alias `reject`), `drop_conn` (sever the wire
    /// session after every N-th wire request), plus `latency_ms:<ms>` to
    /// size the injected delay. Entries and their pieces are
    /// whitespace-trimmed, so `" panic:7 , latency:3 "` parses the same
    /// as its tight form. An empty spec is [`FaultPlan::none`].
    ///
    /// Each kind may appear **at most once** (`full`/`reject` count as
    /// one kind): a duplicate is refused with
    /// [`FaultSpecError::DuplicateKind`] rather than silently letting the
    /// last entry win — a fault harness whose spec says two different
    /// things must not quietly run under one of them.
    ///
    /// # Errors
    ///
    /// A typed [`FaultSpecError`] describing the malformed input.
    pub fn parse(s: &str) -> Result<Self, FaultSpecError> {
        let mut plan = FaultPlan::none();
        let mut seen: Vec<&'static str> = Vec::new();
        let mut claim = |kind: &'static str| {
            if seen.contains(&kind) {
                Err(FaultSpecError::DuplicateKind(kind.to_string()))
            } else {
                seen.push(kind);
                Ok(())
            }
        };
        for part in s.split(',').map(str::trim).filter(|p| !p.is_empty()) {
            let (kind, count) = part
                .split_once(':')
                .ok_or_else(|| FaultSpecError::NotKindCount(part.to_string()))?;
            let n: u64 = count.trim().parse().map_err(|_| FaultSpecError::BadCount {
                kind: kind.trim().to_string(),
                count: count.trim().to_string(),
            })?;
            match kind.trim().to_ascii_lowercase().as_str() {
                "panic" => {
                    claim("panic")?;
                    plan.panic_every = (n > 0).then_some(n);
                }
                "latency" => {
                    claim("latency")?;
                    plan.latency_every = (n > 0).then_some(n);
                }
                // One underlying knob, two spellings: a spec naming both
                // is a duplicate, not two settings.
                "full" | "reject" => {
                    claim("full")?;
                    plan.reject_every = (n > 0).then_some(n);
                }
                "drop_conn" => {
                    claim("drop_conn")?;
                    plan.drop_conn_every = (n > 0).then_some(n);
                }
                "latency_ms" => {
                    claim("latency_ms")?;
                    plan.latency_ms = n;
                }
                other => return Err(FaultSpecError::UnknownKind(other.to_string())),
            }
        }
        Ok(plan)
    }

    /// The plan named by `TAILORS_FAULTS`, or [`FaultPlan::none`] when
    /// unset.
    ///
    /// # Panics
    ///
    /// Panics if `TAILORS_FAULTS` is set but unparseable — a broken fault
    /// harness must not silently run faultless.
    pub fn from_env() -> Self {
        match std::env::var("TAILORS_FAULTS") {
            Err(_) => FaultPlan::none(),
            Ok(s) => Self::parse(&s).unwrap_or_else(|e| panic!("TAILORS_FAULTS: {e}")),
        }
    }
}

/// Shared fire-on-every-Nth counters backing a [`FaultPlan`].
#[derive(Debug, Default)]
struct FaultState {
    executed: AtomicU64,
    latencies: AtomicU64,
    submissions: AtomicU64,
    conn_requests: AtomicU64,
}

impl FaultState {
    fn fires(counter: &AtomicU64, every: Option<u64>) -> bool {
        match every {
            None => false,
            Some(n) => (counter.fetch_add(1, Ordering::SeqCst) + 1).is_multiple_of(n),
        }
    }
}

/// Sizing and policy knobs for a [`ServiceRuntime`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RuntimeConfig {
    /// Worker threads consuming the mailbox.
    pub workers: usize,
    /// Mailbox capacity across both priority lanes — the backpressure
    /// bound on queued requests.
    pub mailbox_capacity: usize,
    /// Admission limit on a request's estimated resident bytes: a
    /// functional request's tensors (tensor + transpose + index
    /// structure), an analytical request's pattern stream (per-row and
    /// per-column counts). A functional request is checked again once
    /// planned, with its dense scratch per thread added.
    pub max_tensor_bytes: u64,
    /// Injected faults (see [`FaultPlan`]).
    pub faults: FaultPlan,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig {
            workers: 2,
            mailbox_capacity: 64,
            // Generous: admission is a guard against pathological single
            // requests (a paper-scale webbase-1M functional run estimates
            // ~0.2 GiB), not a memory governor.
            max_tensor_bytes: 8 << 30,
            faults: FaultPlan::none(),
        }
    }
}

/// Monotone outcome counters; see [`RuntimeStats::accounted`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RuntimeStats {
    /// Requests submitted (each retry attempt counts as a submission).
    pub submitted: u64,
    /// Requests that returned `Ok(Reply)`.
    pub completed: u64,
    /// Typed rejections: overload, bad request, shutdown.
    pub rejected: u64,
    /// Requests whose deadline elapsed first.
    pub timed_out: u64,
    /// Structured `Faulted` replies (isolated panics and engine errors).
    pub faulted: u64,
    /// Panics caught by worker isolation (a subset of `faulted`).
    pub panics_isolated: u64,
    /// Backoff retries performed by [`ServiceRuntime::submit_with_retry`].
    pub retries: u64,
    /// Faults fired by the [`FaultPlan`].
    pub injected_panics: u64,
    /// Latency injections fired.
    pub injected_latency: u64,
    /// Forced mailbox-full rejections fired.
    pub injected_rejects: u64,
    /// Wire sessions severed by the `drop_conn` fault kind. The dropped
    /// request never reaches the ledger (the client resends it on a new
    /// connection), so this is observability, not an outcome row.
    pub injected_drops: u64,
}

impl RuntimeStats {
    /// Requests accounted for by a terminal outcome. The runtime's core
    /// invariant is `accounted() == submitted` whenever no submission is
    /// in flight — nothing is ever silently lost.
    pub fn accounted(&self) -> u64 {
        self.completed + self.rejected + self.timed_out + self.faulted
    }
}

#[derive(Debug, Default)]
struct Counters {
    submitted: AtomicU64,
    completed: AtomicU64,
    rejected: AtomicU64,
    timed_out: AtomicU64,
    faulted: AtomicU64,
    panics_isolated: AtomicU64,
    retries: AtomicU64,
    injected_panics: AtomicU64,
    injected_latency: AtomicU64,
    injected_rejects: AtomicU64,
    injected_drops: AtomicU64,
}

/// A queued request: the work, its absolute deadline, and the one-shot
/// reply channel its submitter is blocked on.
#[derive(Debug)]
struct Envelope {
    work: Work,
    deadline: Option<Instant>,
    deadline_budget: Duration,
    reply: SyncSender<Result<Reply, ServeError>>,
}

/// Capped-exponential-backoff client retry policy for transient
/// [`ServeError::retryable`] rejections.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts including the first (so `1` disables retrying).
    pub max_attempts: u32,
    /// Backoff before the first retry; doubles per retry.
    pub base_backoff: Duration,
    /// Backoff cap.
    pub max_backoff: Duration,
    /// Per-attempt deadline handed to the runtime.
    pub deadline: Option<Duration>,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 4,
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(50),
            deadline: None,
        }
    }
}

impl RetryPolicy {
    /// The backoff before retry number `retry` (0-based), capped.
    pub fn backoff(&self, retry: u32) -> Duration {
        let factor = 1u32.checked_shl(retry).unwrap_or(u32::MAX);
        self.base_backoff
            .checked_mul(factor)
            .map_or(self.max_backoff, |d| d.min(self.max_backoff))
    }

    /// [`RetryPolicy::backoff`] with deterministic equal jitter: the
    /// sleep is drawn from `[backoff/2, backoff]`, positioned by a
    /// splitmix64 mix of `(seed, retry)`. N clients retrying the same
    /// recovering shard with distinct seeds (the wire client seeds with
    /// its request id) spread out instead of stampeding in lockstep,
    /// while any one `(seed, retry)` pair always sleeps the same amount
    /// — tests stay reproducible.
    pub fn backoff_jittered(&self, retry: u32, seed: u64) -> Duration {
        let full = self.backoff(retry);
        let nanos = full.as_nanos().min(u64::MAX as u128) as u64;
        if nanos < 2 {
            return full;
        }
        let mix = splitmix64(seed ^ (u64::from(retry).wrapping_mul(0x9e37_79b9_7f4a_7c15)));
        // Equal jitter: keep half the backoff, scatter the other half.
        let half = nanos / 2;
        Duration::from_nanos(half + mix % (nanos - half + 1))
    }
}

/// SplitMix64 finalizer — a tiny, well-distributed bit mixer (Steele et
/// al.), used only to position retry jitter; not a security primitive.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// The front door: a [`SimService`] behind a bounded priority mailbox
/// and a fixed worker pool, with typed failure for every outcome. See
/// the [module docs](self) for the lifecycle.
#[derive(Debug)]
pub struct ServiceRuntime {
    service: Arc<SimService>,
    mailbox: Arc<Mailbox<Envelope>>,
    config: RuntimeConfig,
    counters: Arc<Counters>,
    faults: Arc<FaultState>,
    workers: PoisonFreeMutex<Vec<JoinHandle<()>>>,
    // One slot per worker: each worker publishes a snapshot of its own
    // thread-local scratch-pool counters after every request (workers
    // run the engine at threads=1, so the worker thread's pool IS the
    // per-worker pool). Snapshots are replaced, never accumulated, so
    // the merged view double-counts nothing.
    pool_slots: Arc<PoisonFreeMutex<Vec<PoolStats>>>,
}

impl ServiceRuntime {
    /// Spawns the worker pool over a fresh [`SimService`].
    pub fn new(config: RuntimeConfig) -> Self {
        Self::over(Arc::new(SimService::new()), config)
    }

    /// Spawns the worker pool over an existing service (sharing its cache
    /// tiers with in-process callers).
    ///
    /// # Panics
    ///
    /// Panics if `config.workers == 0` or `config.mailbox_capacity == 0`
    /// — structural misconfiguration, not load.
    pub fn over(service: Arc<SimService>, config: RuntimeConfig) -> Self {
        assert!(config.workers > 0, "worker count must be positive");
        let mailbox = Arc::new(Mailbox::bounded(config.mailbox_capacity));
        let counters = Arc::new(Counters::default());
        let faults = Arc::new(FaultState::default());
        let pool_slots = Arc::new(PoisonFreeMutex::new(vec![
            PoolStats::default();
            config.workers
        ]));
        let workers = (0..config.workers)
            .map(|i| {
                let mailbox = Arc::clone(&mailbox);
                let service = Arc::clone(&service);
                let counters = Arc::clone(&counters);
                let faults = Arc::clone(&faults);
                let pool_slots = Arc::clone(&pool_slots);
                std::thread::Builder::new()
                    .name(format!("tailors-serve-worker-{i}"))
                    .spawn(move || {
                        worker_loop(
                            &mailbox,
                            &service,
                            &counters,
                            &faults,
                            config,
                            &pool_slots,
                            i,
                        )
                    })
                    .expect("worker thread spawn")
            })
            .collect();
        ServiceRuntime {
            service,
            mailbox,
            config,
            counters,
            faults,
            workers: PoisonFreeMutex::new(workers),
            pool_slots,
        }
    }

    /// The service whose caches this runtime serves from.
    pub fn service(&self) -> &Arc<SimService> {
        &self.service
    }

    /// The configuration the runtime was built with.
    pub fn config(&self) -> &RuntimeConfig {
        &self.config
    }

    /// A snapshot of the outcome counters.
    pub fn stats(&self) -> RuntimeStats {
        let c = &self.counters;
        RuntimeStats {
            submitted: c.submitted.load(Ordering::SeqCst),
            completed: c.completed.load(Ordering::SeqCst),
            rejected: c.rejected.load(Ordering::SeqCst),
            timed_out: c.timed_out.load(Ordering::SeqCst),
            faulted: c.faulted.load(Ordering::SeqCst),
            panics_isolated: c.panics_isolated.load(Ordering::SeqCst),
            retries: c.retries.load(Ordering::SeqCst),
            injected_panics: c.injected_panics.load(Ordering::SeqCst),
            injected_latency: c.injected_latency.load(Ordering::SeqCst),
            injected_rejects: c.injected_rejects.load(Ordering::SeqCst),
            injected_drops: c.injected_drops.load(Ordering::SeqCst),
        }
    }

    /// A snapshot of the mailbox's traffic counters.
    pub fn mailbox_stats(&self) -> MailboxStats {
        self.mailbox.stats()
    }

    /// The worker pool's scratch-pool counters, rolled up across all
    /// workers (each worker keeps its own thread-local engine scratch and
    /// publishes a snapshot after every request it serves). A healthy
    /// steady state shows `misses` flat while `checkouts` climbs: hot
    /// requests run entirely on recycled scratch.
    pub fn scratch_pool_stats(&self) -> PoolStats {
        self.pool_slots
            .lock()
            .iter()
            .fold(PoolStats::default(), |acc, s| acc.merge(*s))
    }

    /// Submits one request and blocks for its outcome, with no deadline.
    ///
    /// # Errors
    ///
    /// Every failure is a typed [`ServeError`]; see the module docs for
    /// the lifecycle.
    pub fn submit(&self, work: Work) -> Result<Reply, ServeError> {
        self.submit_with_deadline(work, None)
    }

    /// [`ServiceRuntime::submit`] with an explicit per-request deadline
    /// (`None` waits indefinitely).
    ///
    /// # Errors
    ///
    /// As [`ServiceRuntime::submit`].
    pub fn submit_with_deadline(
        &self,
        work: Work,
        deadline: Option<Duration>,
    ) -> Result<Reply, ServeError> {
        self.counters.submitted.fetch_add(1, Ordering::SeqCst);
        let outcome = self.submit_inner(work, deadline);
        match &outcome {
            Ok(_) => self.counters.completed.fetch_add(1, Ordering::SeqCst),
            Err(ServeError::Timeout { .. }) => {
                self.counters.timed_out.fetch_add(1, Ordering::SeqCst)
            }
            Err(ServeError::Faulted { .. }) => self.counters.faulted.fetch_add(1, Ordering::SeqCst),
            Err(
                ServeError::Overloaded(_)
                | ServeError::BadRequest(_)
                | ServeError::TooLarge { .. }
                | ServeError::Shutdown,
            ) => self.counters.rejected.fetch_add(1, Ordering::SeqCst),
        };
        outcome
    }

    /// Whether the `drop_conn` fault fires for the wire session's next
    /// decoded request. Called by the wire session loop (TCP and stdio
    /// alike) once per decoded work request; a `true` return severs the session before the
    /// request reaches the mailbox (so nothing enters the ledger).
    pub fn fire_conn_drop(&self) -> bool {
        let fired = FaultState::fires(
            &self.faults.conn_requests,
            self.config.faults.drop_conn_every,
        );
        if fired {
            self.counters.injected_drops.fetch_add(1, Ordering::SeqCst);
        }
        fired
    }

    /// Submits with capped-exponential-backoff retries on transient
    /// ([`ServeError::retryable`]) rejections. Each attempt is its own
    /// accounted submission.
    ///
    /// # Errors
    ///
    /// The final attempt's [`ServeError`] when retries are exhausted.
    pub fn submit_with_retry(&self, work: Work, policy: &RetryPolicy) -> Result<Reply, ServeError> {
        let mut retry = 0u32;
        loop {
            let outcome = self.submit_with_deadline(work.clone(), policy.deadline);
            match &outcome {
                Err(e) if e.retryable() && retry + 1 < policy.max_attempts.max(1) => {
                    self.counters.retries.fetch_add(1, Ordering::SeqCst);
                    std::thread::sleep(policy.backoff(retry));
                    retry += 1;
                }
                _ => return outcome,
            }
        }
    }

    fn submit_inner(&self, work: Work, deadline: Option<Duration>) -> Result<Reply, ServeError> {
        validate(&work)?;
        self.admit(&work)?;
        if FaultState::fires(&self.faults.submissions, self.config.faults.reject_every) {
            self.counters
                .injected_rejects
                .fetch_add(1, Ordering::SeqCst);
            return Err(ServeError::Overloaded(OverloadReason::MailboxFull {
                capacity: self.mailbox.capacity(),
            }));
        }
        let (tx, rx) = sync_channel(1);
        let deadline_budget = deadline.unwrap_or(Duration::MAX);
        let envelope = Envelope {
            work,
            deadline: deadline.map(|d| Instant::now() + d),
            deadline_budget,
            reply: tx,
        };
        self.mailbox
            .try_push(envelope.work.priority(), envelope)
            .map_err(|e| match e {
                PushError::Full(_) => ServeError::Overloaded(OverloadReason::MailboxFull {
                    capacity: self.mailbox.capacity(),
                }),
                PushError::Closed(_) => ServeError::Shutdown,
            })?;
        match deadline {
            None => rx.recv().unwrap_or(Err(ServeError::Shutdown)),
            Some(d) => match rx.recv_timeout(d) {
                Ok(reply) => reply,
                Err(RecvTimeoutError::Timeout) => Err(ServeError::Timeout { deadline: d }),
                Err(RecvTimeoutError::Disconnected) => Err(ServeError::Shutdown),
            },
        }
    }

    /// Admission control before queueing: a request whose estimated
    /// resident footprint exceeds the configured limit is refused as
    /// [`OverloadReason::TensorBytes`].
    fn admit(&self, work: &Work) -> Result<(), ServeError> {
        let estimated = match work {
            Work::Sim(req) => estimated_pattern_bytes(&req.workload),
            Work::Functional(req) => estimated_tensor_bytes(&req.workload),
        };
        if estimated > self.config.max_tensor_bytes {
            return Err(ServeError::Overloaded(OverloadReason::TensorBytes {
                estimated,
                limit: self.config.max_tensor_bytes,
            }));
        }
        Ok(())
    }

    /// Graceful shutdown: closes the mailbox (no new admissions), lets
    /// the workers drain every queued request, joins them, and reports.
    /// Idempotent; callable through an `Arc`.
    pub fn shutdown(&self) -> ShutdownReport {
        self.mailbox.close();
        self.join_workers();
        ShutdownReport {
            unserved: 0,
            stats: self.stats(),
        }
    }

    /// Aborting shutdown: closes the mailbox and refuses every queued
    /// request with [`ServeError::Shutdown`] (each blocked submitter
    /// receives the typed error — nothing is silently lost), then joins
    /// the workers.
    pub fn shutdown_now(&self) -> ShutdownReport {
        let drained = self.mailbox.close_and_drain();
        let unserved = drained.len();
        for envelope in drained {
            let _ = envelope.reply.send(Err(ServeError::Shutdown));
        }
        self.join_workers();
        ShutdownReport {
            unserved,
            stats: self.stats(),
        }
    }

    fn join_workers(&self) {
        let handles: Vec<JoinHandle<()>> = std::mem::take(&mut *self.workers.lock());
        for h in handles {
            // A worker that somehow died still must not wedge shutdown.
            let _ = h.join();
        }
    }
}

impl Drop for ServiceRuntime {
    fn drop(&mut self) {
        self.mailbox.close();
        self.join_workers();
    }
}

/// What a shutdown observed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShutdownReport {
    /// Queued requests refused with [`ServeError::Shutdown`]
    /// (always 0 for a draining [`ServiceRuntime::shutdown`]).
    pub unserved: usize,
    /// Final outcome counters.
    pub stats: RuntimeStats,
}

/// Estimated resident bytes of a functional request's tensor working set:
/// the CSR matrix and its transpose (values + column indices) plus both
/// row-pointer arrays. The admission gate compares this against
/// [`RuntimeConfig::max_tensor_bytes`]. The arithmetic saturates, so a
/// hostile size reads as `u64::MAX` rather than wrapping to a small figure
/// that would pass the gate.
pub fn estimated_tensor_bytes(wl: &tailors_workloads::Workload) -> u64 {
    let nnz = wl.target_nnz as u64;
    let rows = wl.nrows as u64;
    let cols = wl.ncols as u64;
    let row_ptrs = rows.saturating_add(cols).saturating_add(2);
    nnz.saturating_mul(2 * (8 + 4))
        .saturating_add(row_ptrs.saturating_mul(8))
}

/// Estimated resident bytes of an analytical request's cold miss: the
/// generator's pattern stream keeps per-row and per-column counts and the
/// generator's per-column state, whatever the nonzero count. A cold
/// request on an `n × n` workload with 256 nonzeros peaked at 24 n
/// (clustered), 32 n (banded) and 49 n (power-law) bytes at n = 2^20 and
/// 2^22; this charges 32 B per row and per column, 64 n in all. Saturates
/// like [`estimated_tensor_bytes`].
fn estimated_pattern_bytes(wl: &tailors_workloads::Workload) -> u64 {
    (wl.nrows as u64)
        .saturating_add(wl.ncols as u64)
        .saturating_mul(32)
}

fn validate(work: &Work) -> Result<(), ServeError> {
    let wl = work.workload();
    if wl.nrows == 0 || wl.ncols == 0 {
        return Err(ServeError::BadRequest(format!(
            "workload {:?} has a zero dimension ({}x{})",
            wl.name, wl.nrows, wl.ncols
        )));
    }
    if wl.nrows != wl.ncols {
        return Err(ServeError::BadRequest(format!(
            "workload {:?} is not square ({}x{}); Z = A·Aᵀ requires square A",
            wl.name, wl.nrows, wl.ncols
        )));
    }
    if wl.target_nnz == 0 {
        return Err(ServeError::BadRequest(format!(
            "workload {:?} targets zero nonzeros; planners require a non-empty tensor",
            wl.name
        )));
    }
    // The generator's own precondition, checked before anything allocates.
    if wl.target_nnz as u128 > wl.nrows as u128 * wl.ncols as u128 {
        return Err(ServeError::BadRequest(format!(
            "workload {:?} targets {} nonzeros, more than its {}x{} coordinate space",
            wl.name, wl.target_nnz, wl.nrows, wl.ncols
        )));
    }
    if let Work::Functional(req) = work {
        if req.threads == 0 {
            return Err(ServeError::BadRequest(
                "functional thread count must be positive".to_string(),
            ));
        }
    }
    Ok(())
}

fn worker_loop(
    mailbox: &Mailbox<Envelope>,
    service: &SimService,
    counters: &Counters,
    faults: &FaultState,
    config: RuntimeConfig,
    pool_slots: &PoisonFreeMutex<Vec<PoolStats>>,
    index: usize,
) {
    let plan = config.faults;
    while let Some(envelope) = mailbox.pop() {
        if let Some(deadline) = envelope.deadline {
            if Instant::now() >= deadline {
                let _ = envelope.reply.send(Err(ServeError::Timeout {
                    deadline: envelope.deadline_budget,
                }));
                continue;
            }
        }
        if FaultState::fires(&faults.latencies, plan.latency_every) {
            counters.injected_latency.fetch_add(1, Ordering::SeqCst);
            std::thread::sleep(Duration::from_millis(plan.latency_ms));
        }
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            if FaultState::fires(&faults.executed, plan.panic_every) {
                counters.injected_panics.fetch_add(1, Ordering::SeqCst);
                panic!("injected fault: worker panic");
            }
            execute(service, &envelope.work, config.max_tensor_bytes)
        }));
        let reply = match outcome {
            Ok(r) => r,
            Err(payload) => {
                counters.panics_isolated.fetch_add(1, Ordering::SeqCst);
                Err(ServeError::Faulted {
                    panic: true,
                    message: panic_message(payload.as_ref()),
                })
            }
        };
        // Publish this worker's thread-local pool counters (replace, not
        // accumulate — the thread-local counters are already cumulative)
        // *before* the reply: a submitter that has its answer must see
        // the pool activity that produced it.
        pool_slots.lock()[index] = scratch_pool_stats();
        // A submitter that timed out (or disconnected) dropped its
        // receiver; the send error is expected and the outcome was
        // already accounted as the timeout the submitter observed.
        let _ = envelope.reply.send(reply);
    }
}

fn execute(service: &SimService, work: &Work, limit: u64) -> Result<Reply, ServeError> {
    match work {
        Work::Sim(req) => Ok(Reply::Sim(service.submit(req))),
        Work::Functional(req) => match service.run_functional_within(req, limit) {
            Err(estimated) => Err(ServeError::Overloaded(OverloadReason::TensorBytes {
                estimated,
                limit,
            })),
            Ok(Ok(resp)) => Ok(Reply::Functional(Box::new(resp))),
            Ok(Err(EngineError::Config(e))) => Err(ServeError::BadRequest(e.to_string())),
            Ok(Err(e)) => Err(ServeError::Faulted {
                panic: false,
                message: e.to_string(),
            }),
        },
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tailors_sim::Variant;

    fn sim_work(name: &str) -> Work {
        Work::Sim(SimRequest::suite(name, 1.0 / 512.0, Variant::ExTensorP).expect("suite"))
    }

    #[test]
    fn fault_plan_parses_the_documented_grammar() {
        let p = FaultPlan::parse("panic:7,latency:3,full:5,latency_ms:2").unwrap();
        assert_eq!(p.panic_every, Some(7));
        assert_eq!(p.latency_every, Some(3));
        assert_eq!(p.reject_every, Some(5));
        assert_eq!(p.latency_ms, 2);
        assert!(p.is_active());
        assert!(!FaultPlan::parse("").unwrap().is_active());
        assert!(FaultPlan::parse("panic:0").unwrap().panic_every.is_none());
        assert_eq!(
            FaultPlan::parse("panic"),
            Err(FaultSpecError::NotKindCount("panic".into()))
        );
        assert_eq!(
            FaultPlan::parse("panic:x"),
            Err(FaultSpecError::BadCount {
                kind: "panic".into(),
                count: "x".into(),
            })
        );
        assert_eq!(
            FaultPlan::parse("explode:3"),
            Err(FaultSpecError::UnknownKind("explode".into()))
        );
    }

    #[test]
    fn drop_conn_fault_parses_fires_and_counts() {
        let p = FaultPlan::parse("drop_conn:3").unwrap();
        assert_eq!(p.drop_conn_every, Some(3));
        assert!(p.is_active());
        assert!(FaultPlan::parse("drop_conn:0")
            .unwrap()
            .drop_conn_every
            .is_none());
        assert_eq!(
            FaultPlan::parse("drop_conn:3,drop_conn:5"),
            Err(FaultSpecError::DuplicateKind("drop_conn".into()))
        );
        let runtime = ServiceRuntime::new(RuntimeConfig {
            workers: 1,
            faults: p,
            ..RuntimeConfig::default()
        });
        // Fires on exactly every 3rd decoded wire request; a drop never
        // touches the outcome ledger.
        let fired: Vec<bool> = (0..6).map(|_| runtime.fire_conn_drop()).collect();
        assert_eq!(fired, [false, false, true, false, false, true]);
        let stats = runtime.stats();
        assert_eq!(stats.injected_drops, 2);
        assert_eq!(stats.submitted, 0);
        assert_eq!(stats.accounted(), 0);
    }

    #[test]
    fn jittered_backoff_is_deterministic_bounded_and_spread() {
        let policy = RetryPolicy::default();
        for retry in 0..4 {
            let full = policy.backoff(retry);
            for seed in [0u64, 1, 7, u64::MAX] {
                let j = policy.backoff_jittered(retry, seed);
                assert_eq!(j, policy.backoff_jittered(retry, seed), "reproducible");
                assert!(
                    j >= full / 2 && j <= full,
                    "{j:?} not in [{full:?}/2, {full:?}]"
                );
            }
        }
        // Distinct seeds must actually de-synchronize (the whole point):
        // at least two of these four sleeps differ.
        let sleeps: Vec<Duration> = [0u64, 1, 7, 42]
            .iter()
            .map(|&s| policy.backoff_jittered(2, s))
            .collect();
        assert!(sleeps.windows(2).any(|w| w[0] != w[1]), "{sleeps:?}");
    }

    #[test]
    fn fault_plan_tolerates_whitespace_around_entries() {
        let p = FaultPlan::parse("  panic : 7 ,\tlatency:3 , latency_ms: 2  ,").unwrap();
        assert_eq!(p.panic_every, Some(7));
        assert_eq!(p.latency_every, Some(3));
        assert_eq!(p.latency_ms, 2);
        assert_eq!(
            p,
            FaultPlan::parse("panic:7,latency:3,latency_ms:2").unwrap()
        );
    }

    #[test]
    fn fault_plan_rejects_duplicate_kinds() {
        assert_eq!(
            FaultPlan::parse("panic:7,panic:3"),
            Err(FaultSpecError::DuplicateKind("panic".into()))
        );
        // `full` and `reject` spell the same knob — together they are a
        // duplicate, not two settings.
        assert_eq!(
            FaultPlan::parse("full:5,reject:9"),
            Err(FaultSpecError::DuplicateKind("full".into()))
        );
        assert_eq!(
            FaultPlan::parse("latency_ms:2,latency:4,latency_ms:8"),
            Err(FaultSpecError::DuplicateKind("latency_ms".into()))
        );
    }

    /// The spec kinds, in [`FaultPlan`] field order.
    const KINDS: [&str; 5] = ["panic", "latency", "full", "drop_conn", "latency_ms"];

    /// Whitespace a valid spec may carry around each piece.
    const PADS: [&str; 4] = ["", " ", "\t", "  "];

    /// Grammar fragments mixed into arbitrary strings so they reach past
    /// the first split.
    const TOKENS: [&str; 16] = [
        "panic",
        "latency",
        "latency_ms",
        "full",
        "reject",
        "drop_conn",
        ":",
        ",",
        " ",
        "0",
        "7",
        "18446744073709551615",
        "18446744073709551616",
        "-1",
        "é",
        "\u{feff}",
    ];

    /// `plan` as a canonical spec naming every kind once.
    fn render(plan: &FaultPlan) -> String {
        let every = |n: Option<u64>| n.unwrap_or(0);
        format!(
            "panic:{},latency:{},full:{},drop_conn:{},latency_ms:{}",
            every(plan.panic_every),
            every(plan.latency_every),
            every(plan.reject_every),
            every(plan.drop_conn_every),
            plan.latency_ms
        )
    }

    /// A valid spec and the plan it describes: kind `i` appears when
    /// `present[i]`, with count `counts[i]`, in the order of `keys`,
    /// padded by `pads`, upper-cased when `upper[i]`, and with `full`
    /// spelled `reject` when `alias`.
    fn valid_spec(
        present: &[bool],
        counts: &[u64],
        keys: &[u32],
        pads: &[usize],
        upper: &[bool],
        alias: bool,
    ) -> (String, FaultPlan) {
        let mut plan = FaultPlan::none();
        let mut order: Vec<usize> = (0..KINDS.len()).filter(|&i| present[i]).collect();
        order.sort_by_key(|&i| keys[i]);
        let entries: Vec<String> = order
            .iter()
            .map(|&i| {
                let n = counts[i];
                let every = (n > 0).then_some(n);
                match i {
                    0 => plan.panic_every = every,
                    1 => plan.latency_every = every,
                    2 => plan.reject_every = every,
                    3 => plan.drop_conn_every = every,
                    _ => plan.latency_ms = n,
                }
                let mut kind = if i == 2 && alias { "reject" } else { KINDS[i] }.to_string();
                if upper[i] {
                    kind.make_ascii_uppercase();
                }
                let pad = |j: usize| PADS[pads[4 * i + j] % PADS.len()];
                format!("{}{kind}{}:{}{n}{}", pad(0), pad(1), pad(2), pad(3))
            })
            .collect();
        (entries.join(","), plan)
    }

    /// A parse outcome is either a plan that survives a canonical
    /// round trip or a typed error quoting the input it refused.
    fn check_outcome(spec: &str) {
        match FaultPlan::parse(spec) {
            Ok(plan) => assert_eq!(FaultPlan::parse(&render(&plan)), Ok(plan), "{spec:?}"),
            Err(FaultSpecError::NotKindCount(part)) => assert!(spec.contains(&part), "{spec:?}"),
            Err(FaultSpecError::BadCount { count, .. }) => {
                assert!(spec.contains(&count), "{spec:?}")
            }
            Err(FaultSpecError::UnknownKind(kind)) => {
                assert!(spec.to_ascii_lowercase().contains(&kind), "{spec:?}")
            }
            Err(FaultSpecError::DuplicateKind(kind)) => {
                assert!(KINDS.contains(&kind.as_str()), "{spec:?}")
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(256))]

        /// Generated valid specs, in any order, with any padding, case and
        /// `full`/`reject` spelling, parse to the plan they describe.
        #[test]
        fn generated_fault_specs_parse_to_their_plan(
            present in proptest::collection::vec(proptest::bool::ANY, 5..6),
            counts in proptest::collection::vec(0u64..40, 5..6),
            keys in proptest::collection::vec(0u32..1000, 5..6),
            pads in proptest::collection::vec(0usize..4, 20..21),
            upper in proptest::collection::vec(proptest::bool::ANY, 5..6),
            alias in proptest::bool::ANY,
        ) {
            let (spec, plan) = valid_spec(&present, &counts, &keys, &pads, &upper, alias);
            proptest::prop_assert_eq!(FaultPlan::parse(&spec), Ok(plan), "{:?}", spec);
        }

        /// Arbitrary strings never panic the parser.
        #[test]
        fn arbitrary_fault_specs_parse_or_fail_typed(
            bytes in proptest::collection::vec(0u8..=255, 0..48),
        ) {
            let spec: String = bytes
                .iter()
                .map(|&b| match b {
                    0..=127 => char::from(b).to_string(),
                    _ => TOKENS[usize::from(b) % TOKENS.len()].to_string(),
                })
                .collect();
            check_outcome(&spec);
        }

        /// Valid specs with bytes flipped, overwritten, deleted, inserted
        /// or cut off never panic the parser.
        #[test]
        fn mutated_fault_specs_parse_or_fail_typed(
            present in proptest::collection::vec(proptest::bool::ANY, 5..6),
            counts in proptest::collection::vec(0u64..40, 5..6),
            keys in proptest::collection::vec(0u32..1000, 5..6),
            pads in proptest::collection::vec(0usize..4, 20..21),
            edits in proptest::collection::vec((0usize..64, 0u8..5, 0u8..=255), 1..6),
        ) {
            let (spec, _) = valid_spec(&present, &counts, &keys, &pads, &[false; 5], false);
            let mut bytes = spec.into_bytes();
            for &(at, op, b) in &edits {
                let at = at % (bytes.len() + 1);
                match op {
                    0 if at < bytes.len() => bytes[at] ^= b.max(1),
                    1 if at < bytes.len() => bytes[at] = b,
                    2 if at < bytes.len() => {
                        bytes.remove(at);
                    }
                    3 => bytes.insert(at, b),
                    _ => bytes.truncate(at),
                }
            }
            check_outcome(&String::from_utf8_lossy(&bytes));
        }
    }

    #[test]
    fn completed_plus_rejected_accounts_for_everything() {
        let runtime = ServiceRuntime::new(RuntimeConfig {
            workers: 2,
            mailbox_capacity: 8,
            ..RuntimeConfig::default()
        });
        let ok = runtime.submit(sim_work("email-Enron"));
        assert!(ok.is_ok());
        // A non-square workload is a typed bad request, not a panic.
        let mut bad = SimRequest::suite("cant", 1.0 / 512.0, Variant::ExTensorP).unwrap();
        bad.workload.nrows += 1;
        let e = runtime.submit(Work::Sim(bad)).unwrap_err();
        assert!(matches!(e, ServeError::BadRequest(_)), "{e}");
        let stats = runtime.stats();
        assert_eq!(stats.submitted, 2);
        assert_eq!(stats.completed, 1);
        assert_eq!(stats.rejected, 1);
        assert_eq!(stats.accounted(), stats.submitted);
    }

    #[test]
    fn injected_panics_are_isolated_and_typed() {
        let runtime = ServiceRuntime::new(RuntimeConfig {
            workers: 1,
            faults: FaultPlan {
                panic_every: Some(2),
                ..FaultPlan::none()
            },
            ..RuntimeConfig::default()
        });
        let first = runtime.submit(sim_work("email-Enron"));
        assert!(first.is_ok());
        let second = runtime.submit(sim_work("email-Enron")).unwrap_err();
        assert!(
            matches!(&second, ServeError::Faulted { panic: true, .. }),
            "{second}"
        );
        // The single worker survived the panic and keeps serving — and the
        // reply payload still matches the pre-panic one bitwise.
        let third = runtime.submit(sim_work("email-Enron")).expect("served");
        match (first.unwrap(), third) {
            (Reply::Sim(a), Reply::Sim(b)) => assert_eq!(a.metrics, b.metrics),
            _ => panic!("expected sim replies"),
        }
        let stats = runtime.stats();
        assert_eq!(stats.panics_isolated, 1);
        assert_eq!(stats.injected_panics, 1);
        assert_eq!(stats.accounted(), stats.submitted);
    }

    #[test]
    fn retry_recovers_from_injected_overload() {
        let runtime = ServiceRuntime::new(RuntimeConfig {
            workers: 1,
            faults: FaultPlan {
                reject_every: Some(2),
                ..FaultPlan::none()
            },
            ..RuntimeConfig::default()
        });
        // Every second submission is force-rejected; the retry loop eats
        // the rejection and the request completes on the next attempt.
        for _ in 0..4 {
            let reply = runtime
                .submit_with_retry(sim_work("email-Enron"), &RetryPolicy::default())
                .expect("retry should recover from forced overload");
            assert!(matches!(reply, Reply::Sim(_)));
        }
        let stats = runtime.stats();
        assert!(stats.retries >= 2, "stats: {stats:?}");
        assert_eq!(stats.accounted(), stats.submitted);
    }

    #[test]
    fn zero_deadline_times_out_with_type() {
        let runtime = ServiceRuntime::new(RuntimeConfig::default());
        let e = runtime
            .submit_with_deadline(sim_work("email-Enron"), Some(Duration::ZERO))
            .unwrap_err();
        assert!(matches!(e, ServeError::Timeout { .. }), "{e}");
        let stats = runtime.stats();
        assert_eq!(stats.timed_out, 1);
        assert_eq!(stats.accounted(), stats.submitted);
    }

    #[test]
    fn graceful_shutdown_drains_and_reports() {
        let runtime = ServiceRuntime::new(RuntimeConfig::default());
        runtime.submit(sim_work("email-Enron")).expect("served");
        let report = runtime.shutdown();
        assert_eq!(report.unserved, 0);
        assert_eq!(report.stats.completed, 1);
        // Post-shutdown submissions are typed rejections.
        let e = runtime.submit(sim_work("email-Enron")).unwrap_err();
        assert_eq!(e, ServeError::Shutdown);
    }

    #[test]
    fn worker_pool_stats_roll_up_across_workers() {
        let runtime = ServiceRuntime::new(RuntimeConfig {
            workers: 2,
            ..RuntimeConfig::default()
        });
        assert_eq!(runtime.scratch_pool_stats(), PoolStats::default());
        let wl = tailors_workloads::by_name("email-Enron")
            .unwrap()
            .scaled(1.0 / 512.0);
        let req = FunctionalRequest {
            workload: wl,
            variant: Variant::ExTensorP,
            arch: tailors_sim::ArchConfig::extensor().scaled(1.0 / 512.0),
            budget: tailors_sim::MemBudget::mib(4),
            grid: tailors_sim::GridMode::Panels,
            auto_plan: false,
            threads: 1,
        };
        runtime
            .submit(Work::Functional(Box::new(req.clone())))
            .expect("served");
        let after_one = runtime.scratch_pool_stats();
        assert!(after_one.checkouts > 0, "engine run must draw scratch");
        assert_eq!(after_one.checkouts, after_one.hits + after_one.misses);
        // Sim work never touches the functional scratch pool, so the
        // rolled-up counters stay put (slots publish before each reply).
        runtime.submit(sim_work("email-Enron")).expect("served");
        let after_sim = runtime.scratch_pool_stats();
        assert_eq!(after_sim.checkouts, after_one.checkouts);
        runtime.shutdown();
    }

    #[test]
    fn hostile_sizes_are_refused_before_reaching_a_worker() {
        let runtime = ServiceRuntime::new(RuntimeConfig {
            workers: 1,
            ..RuntimeConfig::default()
        });
        let functional = |workload: tailors_workloads::Workload| {
            Work::Functional(Box::new(FunctionalRequest {
                workload,
                variant: Variant::ExTensorP,
                arch: tailors_sim::ArchConfig::extensor().scaled(1.0 / 512.0),
                budget: tailors_sim::MemBudget::mib(4),
                grid: tailors_sim::GridMode::Panels,
                auto_plan: false,
                threads: 1,
            }))
        };
        // More nonzeros than the coordinate space holds. A wrapping
        // estimate reads this as 1,176 bytes, far under the default limit.
        let hostile_nnz = ((1usize << 61) + 1) / 3;
        let mut crowded = tailors_workloads::by_name("email-Enron")
            .unwrap()
            .scaled(1.0 / 512.0);
        crowded.target_nnz = hostile_nnz;
        let e = runtime.submit(functional(crowded.clone())).unwrap_err();
        assert!(matches!(e, ServeError::BadRequest(_)), "{e}");
        let mut sim = SimRequest::suite("email-Enron", 1.0 / 512.0, Variant::ExTensorP).unwrap();
        sim.workload = crowded.clone();
        let e = runtime.submit(Work::Sim(sim.clone())).unwrap_err();
        assert!(matches!(e, ServeError::BadRequest(_)), "{e}");
        // Within its coordinate space, but its byte estimate overflows
        // u64: the estimate saturates and the admission gate refuses it.
        let mut wide = crowded;
        (wide.nrows, wide.ncols) = (1 << 31, 1 << 31);
        assert_eq!(estimated_tensor_bytes(&wide), u64::MAX);
        let e = runtime.submit(functional(wide.clone())).unwrap_err();
        assert!(
            matches!(
                e,
                ServeError::Overloaded(OverloadReason::TensorBytes {
                    estimated: u64::MAX,
                    ..
                })
            ),
            "{e}"
        );
        // As an analytical request it needs no tensor, but its pattern
        // stream would hold ~2^31 row and column counts each.
        wide.target_nnz = 256;
        sim.workload = wide;
        let e = runtime.submit(Work::Sim(sim)).unwrap_err();
        assert!(
            matches!(
                e,
                ServeError::Overloaded(OverloadReason::TensorBytes {
                    estimated: 137_438_953_472,
                    ..
                })
            ),
            "{e}"
        );
        // None of them reached the mailbox, and the ledger balances with
        // every refusal counted as rejected.
        assert_eq!(runtime.mailbox_stats().pushed, 0);
        let stats = runtime.stats();
        assert_eq!((stats.submitted, stats.rejected), (4, 4));
        assert_eq!(stats.accounted(), stats.submitted);
    }

    #[test]
    fn a_planned_scratch_past_the_limit_is_refused_and_the_shard_keeps_serving() {
        let runtime = ServiceRuntime::new(RuntimeConfig::default());
        let functional = |workload: tailors_workloads::Workload| {
            Work::Functional(Box::new(FunctionalRequest {
                workload,
                variant: Variant::ExTensorP,
                arch: tailors_sim::ArchConfig::extensor(),
                budget: tailors_sim::MemBudget::mib(4),
                grid: tailors_sim::GridMode::Panels,
                auto_plan: false,
                threads: 1,
            }))
        };
        // 256 nonzeros in 2^20 x 2^20: one tile spans the matrix, so the
        // plan clamps past the 4 MiB budget to a 2^20-row panel over
        // 2^20-column blocks, 2^43 B of dense scratch. The tensor itself
        // estimates at ~17 MB and passes admission.
        let mut sparse = tailors_workloads::by_name("email-Enron").unwrap();
        (sparse.nrows, sparse.ncols, sparse.target_nnz) = (1 << 20, 1 << 20, 256);
        assert!(estimated_tensor_bytes(&sparse) < 32 << 20);
        let e = runtime.submit(functional(sparse.clone())).unwrap_err();
        let ServeError::Overloaded(OverloadReason::TensorBytes { estimated, limit }) = e else {
            panic!("expected a typed tensor-bytes refusal, got {e}");
        };
        assert_eq!(limit, RuntimeConfig::default().max_tensor_bytes);
        assert_eq!(estimated, (1 << 43) + estimated_tensor_bytes(&sparse));
        // The worker survived: a normal functional request completes.
        let normal = tailors_workloads::by_name("email-Enron")
            .unwrap()
            .scaled(1.0 / 512.0);
        let Work::Functional(mut req) = functional(normal) else {
            unreachable!()
        };
        req.arch = req.arch.scaled(1.0 / 512.0);
        assert!(runtime.submit(Work::Functional(req)).is_ok());
        let stats = runtime.stats();
        assert_eq!(
            (stats.submitted, stats.completed, stats.rejected),
            (2, 1, 1)
        );
        assert_eq!(stats.accounted(), stats.submitted);
    }

    #[test]
    fn the_paper_scale_suite_is_admitted_under_the_default_limit() {
        let runtime = ServiceRuntime::new(RuntimeConfig::default());
        for wl in tailors_workloads::suite() {
            let req = SimRequest::suite(wl.name, 1.0, Variant::default_ob()).unwrap();
            assert_eq!(runtime.admit(&Work::Sim(req)), Ok(()), "{}", wl.name);
        }
    }

    #[test]
    fn tensor_byte_admission_rejects_oversized_functional_requests() {
        let runtime = ServiceRuntime::new(RuntimeConfig {
            max_tensor_bytes: 1024,
            ..RuntimeConfig::default()
        });
        let wl = tailors_workloads::by_name("email-Enron")
            .unwrap()
            .scaled(1.0 / 512.0);
        let req = FunctionalRequest {
            workload: wl,
            variant: Variant::ExTensorP,
            arch: tailors_sim::ArchConfig::extensor().scaled(1.0 / 512.0),
            budget: tailors_sim::MemBudget::mib(4),
            grid: tailors_sim::GridMode::Panels,
            auto_plan: false,
            threads: 1,
        };
        let e = runtime.submit(Work::Functional(Box::new(req))).unwrap_err();
        assert!(
            matches!(
                e,
                ServeError::Overloaded(OverloadReason::TensorBytes { .. })
            ),
            "{e}"
        );
        assert!(!e.retryable());
    }
}
