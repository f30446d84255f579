//! Sharded multi-worker routing: a consistent-hash ring over a static
//! fleet of `serve --wire` shard processes, with LPT-balanced batch
//! fan-out and typed failover.
//!
//! A single wire runtime serves one process as fast as the hardware
//! allows; the ROADMAP north star needs more than one worker. The
//! [`ShardRouter`] here is the thin layer in front of a fleet of shard
//! processes, fixed when the router connects:
//!
//! * **Routing** — every request's workload spec resolves to its
//!   [`MatrixId`] (pattern hash + shape; memoized per spec exactly as
//!   [`SimService`](crate::SimService) memoizes it), and a
//!   consistent-hash [`HashRing`] maps that identity to a *primary*
//!   shard. Each shard therefore sees a stable slice of the corpus and
//!   its cache tiers stay hot for that slice; a
//!   down shard's keys move to their clockwise successors while every
//!   other key stays where it was.
//! * **Balance** — [`ShardRouter::submit_batch`] groups a batch by
//!   workload spec and each spec by primary shard, then splits each
//!   shard's specs across that shard's connection pool in cost-balanced
//!   LPT bins using the *same* grouping and cost currency
//!   [`SimService::submit_batch`](crate::SimService::submit_batch) uses
//!   for its thread bins. Replies reassemble in request order, so
//!   batch payloads keep the bit-exact determinism contract: every shard
//!   computes the same bytes for the same request, and order is restored
//!   by index.
//! * **Failover** — shards fail in typed ways. A transport failure
//!   (connection refused/reset after the wire client's own
//!   reconnect-and-retry is exhausted) or a [`ServeError::Shutdown`]
//!   reply marks the shard **down** and the request moves clockwise to
//!   the next live shard on the ring. Down marks are sticky for the
//!   router's lifetime; a shard that restarts on the same port between
//!   calls is absorbed earlier, by
//!   [`WireClient::call_with_retry`]'s reconnect, before any mark is
//!   set. An exhausted *retryable* overload ([`ServeError::retryable`])
//!   spills to the next shard too, but does **not** mark the shard down
//!   — it is busy, not gone. Deterministic outcomes (`Faulted`,
//!   `BadRequest`, `Timeout`) return to the caller unchanged: every
//!   shard would answer the same, so failing over would only repeat the
//!   answer slower.
//!
//! The router keeps the runtime's accounting invariant across the fleet:
//! [`RouterStats::accounted`]` == submitted` whenever no submission is in
//! flight, no matter how many shards died. One router submission is one
//! ledger entry — internal retries, reconnects and failover hops are
//! observability counters, never extra ledger rows.

use std::collections::HashMap;
use std::net::{SocketAddr, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use tailors_sim::{balanced_partition, run_bins};
use tailors_tensor::fnv1a;

use crate::runtime::{Reply, RetryPolicy, ServeError, Work};
use crate::service::{group_by_spec, request_cost, MatrixId, SpecKey};
use crate::sync::PoisonFreeMutex;
use crate::wire::{WireClient, WireError};

// FNV-1a (`tailors_tensor::fnv1a`) — tiny, dependency-free, and
// well-mixed enough for ring placement.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// A consistent-hash ring: each member owns `vnodes` pseudo-random
/// positions on the `u64` circle, and a key belongs to the member owning
/// the first position at or clockwise-after the key's own position.
///
/// Virtual nodes smooth the per-member share toward K/N, and consistency
/// bounds churn: a member's vnode positions depend only on its **id**
/// (not on who else is on the ring), so excluding a member only
/// reassigns keys whose first live position belonged to it — every other
/// key's walk is unchanged. The ring is deterministic in (shards,
/// vnodes): two routers built with the same parameters agree on every
/// assignment.
#[derive(Debug, Clone)]
pub struct HashRing {
    /// Sorted `(position, member)` pairs.
    vnodes: Vec<(u64, usize)>,
    /// Number of members (ids `0..shards`).
    shards: usize,
}

impl HashRing {
    /// A ring over members `0..shards` with `vnodes` positions each.
    ///
    /// # Panics
    ///
    /// If `shards` or `vnodes` is zero.
    pub fn new(shards: usize, vnodes: usize) -> HashRing {
        assert!(shards > 0, "a ring needs at least one shard");
        assert!(vnodes > 0, "a ring needs at least one vnode per member");
        let mut positions = Vec::with_capacity(shards * vnodes);
        for member in 0..shards {
            for v in 0..vnodes {
                let mut bytes = [0u8; 16];
                bytes[..8].copy_from_slice(&(member as u64).to_le_bytes());
                bytes[8..].copy_from_slice(&(v as u64).to_le_bytes());
                positions.push((fnv1a(FNV_OFFSET, &bytes), member));
            }
        }
        // Sort by (position, member) so equal positions tie-break
        // deterministically.
        positions.sort_unstable();
        HashRing {
            vnodes: positions,
            shards,
        }
    }

    /// Number of members on the ring.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The key position of a matrix identity: all four identity fields
    /// feed the hash so shape-differing matrices with colliding content
    /// hashes still spread.
    fn position(id: &MatrixId) -> u64 {
        let mut bytes = [0u8; 32];
        bytes[..8].copy_from_slice(&id.hash.to_le_bytes());
        bytes[8..16].copy_from_slice(&(id.nrows as u64).to_le_bytes());
        bytes[16..24].copy_from_slice(&(id.ncols as u64).to_le_bytes());
        bytes[24..].copy_from_slice(&(id.nnz as u64).to_le_bytes());
        fnv1a(FNV_OFFSET, &bytes)
    }

    /// Index of the first vnode at or clockwise-after `id`'s position.
    fn first_vnode(&self, id: &MatrixId) -> usize {
        let pos = Self::position(id);
        match self.vnodes.binary_search(&(pos, 0)) {
            Ok(i) => i,
            Err(i) if i == self.vnodes.len() => 0, // wrap
            Err(i) => i,
        }
    }

    /// The member owning `id` when every member is live.
    pub fn assign(&self, id: &MatrixId) -> usize {
        self.vnodes[self.first_vnode(id)].1
    }

    /// The member owning `id` when the members flagged in `down` are
    /// excluded: the first clockwise position belonging to a live member.
    /// `None` when every member is down.
    ///
    /// Consistency guarantee: if [`HashRing::assign`]`(id)` is live in
    /// `down`, this returns exactly that member — taking members down
    /// never moves keys the downed members did not own.
    ///
    /// # Panics
    ///
    /// If `down` is shorter than [`HashRing::shards`].
    pub fn assign_excluding(&self, id: &MatrixId, down: &[bool]) -> Option<usize> {
        assert!(
            down.len() >= self.shards,
            "down mask must cover every member"
        );
        self.candidates(id).find(|&s| !down[s])
    }

    /// All members in clockwise ring order from `id`'s position, each
    /// once: the failover order. The first element is
    /// [`HashRing::assign`]`(id)`.
    pub fn candidates(&self, id: &MatrixId) -> impl Iterator<Item = usize> + '_ {
        let start = self.first_vnode(id);
        let mut seen = vec![false; self.shards];
        let n = self.vnodes.len();
        (0..n).filter_map(move |step| {
            let member = self.vnodes[(start + step) % n].1;
            if seen[member] {
                None
            } else {
                seen[member] = true;
                Some(member)
            }
        })
    }
}

/// Sizing knobs for a [`ShardRouter`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RouterConfig {
    /// Wire connections dialed per shard up front. Batch fan-out splits a
    /// shard's sub-batch across its connections in LPT bins; the pool
    /// grows past this high-water mark only if checkout finds it empty.
    pub connections: usize,
    /// Virtual nodes per shard on the [`HashRing`].
    pub vnodes: usize,
    /// Per-call retry policy handed to
    /// [`WireClient::call_with_retry`] — governs in-place reconnects and
    /// retryable-overload backoff *within* one shard, before the router
    /// considers moving the request.
    pub retry: RetryPolicy,
    /// Dial attempts a pool checkout may spend when the pool is empty
    /// before giving up with a typed [`PoolError`] — the cap that keeps
    /// an empty pool on a dead shard from redialing unboundedly.
    pub redials: u32,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            connections: 2,
            vnodes: 64,
            retry: RetryPolicy::default(),
            redials: 2,
        }
    }
}

/// Why a pool checkout failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PoolError {
    /// The pool was empty and every capped dial attempt failed.
    DialExhausted {
        /// Dial attempts made before giving up.
        attempts: u32,
        /// The last dial error observed.
        last: String,
    },
}

impl core::fmt::Display for PoolError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            PoolError::DialExhausted { attempts, last } => {
                write!(
                    f,
                    "pool empty and {attempts} dial attempt(s) failed: {last}"
                )
            }
        }
    }
}

impl std::error::Error for PoolError {}

/// Per-shard observability counters (snapshot; see
/// [`ShardRouter::shard_stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ShardStats {
    /// Wire calls attempted against this shard (each may retry
    /// internally per the router's [`RetryPolicy`]).
    pub calls: u64,
    /// Calls that returned a successful [`Reply`].
    pub replies: u64,
    /// Calls that returned a typed [`ServeError`].
    pub typed_errors: u64,
    /// Calls lost to transport failure after reconnect-retry exhaustion.
    pub transport_errors: u64,
    /// In-place stream reconnects performed by this shard's clients.
    pub reconnects: u64,
    /// Whether the router has marked the shard down (sticky).
    pub down: bool,
}

#[derive(Debug, Default)]
struct ShardCounters {
    calls: AtomicU64,
    replies: AtomicU64,
    typed_errors: AtomicU64,
    transport_errors: AtomicU64,
    reconnects: AtomicU64,
}

/// The router's fleet-wide accounting ledger — the multi-shard rollup of
/// [`RuntimeStats`](crate::RuntimeStats): one row per router submission,
/// regardless of how many shards the request visited on the way.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RouterStats {
    /// Requests submitted to the router.
    pub submitted: u64,
    /// Requests that returned a [`Reply`].
    pub completed: u64,
    /// Typed rejections (overload on every live shard, bad request,
    /// shutdown / all shards down).
    pub rejected: u64,
    /// Requests whose per-shard deadline elapsed.
    pub timed_out: u64,
    /// Structured `Faulted` outcomes (isolated panics, engine errors,
    /// unretried protocol errors).
    pub faulted: u64,
    /// Requests that moved to another shard after a transport failure or
    /// shutdown reply (counted once per hop).
    pub failovers: u64,
    /// Requests that spilled to another shard after exhausting retryable
    /// overload on one (the busy shard stays up; counted once per hop).
    pub spills: u64,
    /// Stream reconnects across every shard's clients.
    pub reconnects: u64,
    /// Shards currently marked down.
    pub shards_down: u64,
}

impl RouterStats {
    /// Requests accounted for by a terminal outcome. The router-level
    /// invariant matches the single-runtime one:
    /// `accounted() == submitted` whenever no submission is in flight —
    /// failover never loses or double-counts a request.
    pub fn accounted(&self) -> u64 {
        self.completed + self.rejected + self.timed_out + self.faulted
    }
}

#[derive(Debug, Default)]
struct RouterCounters {
    submitted: AtomicU64,
    completed: AtomicU64,
    rejected: AtomicU64,
    timed_out: AtomicU64,
    faulted: AtomicU64,
    failovers: AtomicU64,
    spills: AtomicU64,
}

/// One shard endpoint: its address, a checkout/checkin pool of wire
/// clients, its down flag, and its counters.
#[derive(Debug)]
struct Shard {
    addr: SocketAddr,
    pool: PoisonFreeMutex<Vec<WireClient>>,
    down: AtomicBool,
    counters: ShardCounters,
}

impl Shard {
    fn fresh(addr: SocketAddr, pool: Vec<WireClient>) -> Shard {
        Shard {
            addr,
            pool: PoisonFreeMutex::new(pool),
            down: AtomicBool::new(false),
            counters: ShardCounters::default(),
        }
    }

    /// Pops a pooled client, dialing up to `redials` fresh streams when
    /// the pool is momentarily empty (every client checked out, or
    /// dropped after failures). Bounded: a dead shard costs at most
    /// `redials` refused dials per checkout, never an unbounded redial
    /// loop.
    fn checkout(&self, redials: u32) -> Result<WireClient, PoolError> {
        if let Some(client) = self.pool.lock().pop() {
            return Ok(client);
        }
        let attempts = redials.max(1);
        let mut last = String::new();
        for _ in 0..attempts {
            match WireClient::connect(self.addr) {
                Ok(client) => return Ok(client),
                Err(e) => last = e.to_string(),
            }
        }
        Err(PoolError::DialExhausted { attempts, last })
    }
}

/// A consistent-hash router over a fixed fleet of wire shard endpoints.
/// See the [module docs](self) for routing, balance and failover
/// semantics.
#[derive(Debug)]
pub struct ShardRouter {
    /// One entry per member id, in endpoint order.
    shards: Vec<Shard>,
    ring: HashRing,
    config: RouterConfig,
    counters: RouterCounters,
    /// Spec → identity memo, mirroring `SimService`'s: the first request
    /// for a spec runs the generator's pattern stream once to learn its
    /// pattern hash (no tensor is built); every later request routes
    /// without generating anything.
    ids: PoisonFreeMutex<HashMap<SpecKey, MatrixId>>,
}

impl ShardRouter {
    /// Dials every endpoint ([`RouterConfig::connections`] streams each)
    /// and builds the ring. Construction is strict: a shard that cannot
    /// be dialed at all is an error, because a fleet that starts degraded
    /// should fail loudly at deploy time rather than quietly at the first
    /// unlucky request.
    ///
    /// # Errors
    ///
    /// Connection failures, or an empty endpoint list.
    pub fn connect<A: ToSocketAddrs>(
        endpoints: &[A],
        config: RouterConfig,
    ) -> std::io::Result<ShardRouter> {
        if endpoints.is_empty() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "a shard router needs at least one endpoint",
            ));
        }
        let connections = config.connections.max(1);
        let mut shards = Vec::with_capacity(endpoints.len());
        for endpoint in endpoints {
            let mut pool = Vec::with_capacity(connections);
            for _ in 0..connections {
                pool.push(WireClient::connect(endpoint)?);
            }
            let addr = pool[0].addr();
            shards.push(Shard::fresh(addr, pool));
        }
        let ring = HashRing::new(shards.len(), config.vnodes.max(1));
        Ok(ShardRouter {
            shards,
            ring,
            config,
            counters: RouterCounters::default(),
            ids: PoisonFreeMutex::new(HashMap::new()),
        })
    }

    /// The primary member for `work`'s matrix identity (ignoring down
    /// flags) — where the request goes when its shard is healthy.
    pub fn primary(&self, work: &Work) -> usize {
        self.ring.assign(&self.identify(work))
    }

    /// Serves one request with failover. The outcome is terminal: a
    /// reply, or the typed error of the last shard consulted
    /// ([`ServeError::Shutdown`] when every shard is down).
    ///
    /// # Errors
    ///
    /// The typed [`ServeError`] for this request. Transport failures are
    /// absorbed into failover; only when no live shard remains do they
    /// surface, as `Shutdown`.
    pub fn submit(&self, work: &Work) -> Result<Reply, ServeError> {
        self.counters.submitted.fetch_add(1, Ordering::SeqCst);
        let outcome = self.route(work);
        match &outcome {
            Ok(_) => &self.counters.completed,
            Err(ServeError::Timeout { .. }) => &self.counters.timed_out,
            Err(ServeError::Faulted { .. }) => &self.counters.faulted,
            Err(_) => &self.counters.rejected,
        }
        .fetch_add(1, Ordering::SeqCst);
        outcome
    }

    /// Serves a whole batch across the fleet: requests group by workload
    /// spec, each spec goes to its primary shard, and each shard's specs
    /// split over its connection pool in LPT bins priced by the same cost
    /// formula [`SimService::submit_batch`](crate::SimService::submit_batch)
    /// uses. A bin serves each of its specs' requests in order, so one
    /// spec's variants reach one connection and its pattern stream runs
    /// once on the shard. Every (shard, connection) bin runs on its own
    /// thread through [`run_bins`] (a lone bin runs on the caller), and
    /// outcomes reassemble in request order — so the reply sequence is
    /// bit-identical to a single process serving the same batch.
    pub fn submit_batch(&self, works: &[Work]) -> Vec<Result<Reply, ServeError>> {
        let (specs, costs) = group_by_spec(works.iter().map(|work| {
            let cost = match work {
                Work::Sim(r) => request_cost(&r.workload, r.variant),
                // A functional request executes the dataflow, not just
                // its analytics — weight it like a cold overbooked
                // planning pass on top of its size.
                Work::Functional(r) => request_cost(&r.workload, r.variant) * 4,
            };
            (work.workload(), cost)
        }));
        // Equal specs share one identity, so a spec has one primary.
        let mut groups: Vec<Vec<usize>> = vec![Vec::new(); self.ring.shards()];
        for (s, spec) in specs.iter().enumerate() {
            groups[self.primary(&works[spec[0]])].push(s);
        }
        let mut bins: Vec<Vec<usize>> = Vec::new();
        for group in &groups {
            let group_costs: Vec<u128> = group.iter().map(|&s| costs[s]).collect();
            for bin in balanced_partition(&group_costs, self.config.connections.max(1)) {
                bins.push(
                    bin.into_iter()
                        .flat_map(|local| specs[group[local]].iter().copied())
                        .collect(),
                );
            }
        }
        run_bins(works.len(), &bins, |i| self.submit(&works[i]))
    }

    /// Down flags by member id.
    pub fn down_shards(&self) -> Vec<bool> {
        self.shards
            .iter()
            .map(|s| s.down.load(Ordering::SeqCst))
            .collect()
    }

    /// Snapshot of the fleet ledger.
    pub fn stats(&self) -> RouterStats {
        let c = &self.counters;
        RouterStats {
            submitted: c.submitted.load(Ordering::SeqCst),
            completed: c.completed.load(Ordering::SeqCst),
            rejected: c.rejected.load(Ordering::SeqCst),
            timed_out: c.timed_out.load(Ordering::SeqCst),
            faulted: c.faulted.load(Ordering::SeqCst),
            failovers: c.failovers.load(Ordering::SeqCst),
            spills: c.spills.load(Ordering::SeqCst),
            reconnects: self
                .shards
                .iter()
                .map(|s| s.counters.reconnects.load(Ordering::SeqCst))
                .sum(),
            shards_down: self
                .shards
                .iter()
                .filter(|s| s.down.load(Ordering::SeqCst))
                .count() as u64,
        }
    }

    /// Per-shard counter snapshots, in member-id order.
    pub fn shard_stats(&self) -> Vec<ShardStats> {
        self.shards
            .iter()
            .map(|s| ShardStats {
                calls: s.counters.calls.load(Ordering::SeqCst),
                replies: s.counters.replies.load(Ordering::SeqCst),
                typed_errors: s.counters.typed_errors.load(Ordering::SeqCst),
                transport_errors: s.counters.transport_errors.load(Ordering::SeqCst),
                reconnects: s.counters.reconnects.load(Ordering::SeqCst),
                down: s.down.load(Ordering::SeqCst),
            })
            .collect()
    }

    /// Walks the failover order for `work`: primary first, then clockwise
    /// ring successors, skipping shards marked down.
    fn route(&self, work: &Work) -> Result<Reply, ServeError> {
        let id = self.identify(work);
        let mut last_refusal = ServeError::Shutdown;
        for member in self.ring.candidates(&id) {
            let shard = &self.shards[member];
            if shard.down.load(Ordering::SeqCst) {
                continue;
            }
            match self.call_shard(shard, work) {
                Ok(Ok(reply)) => return Ok(reply),
                Ok(Err(e)) if e.retryable() => {
                    // Busy, not gone: spill clockwise without condemning
                    // the shard.
                    self.counters.spills.fetch_add(1, Ordering::SeqCst);
                    last_refusal = e;
                }
                Ok(Err(ServeError::Shutdown)) => {
                    shard.down.store(true, Ordering::SeqCst);
                    self.counters.failovers.fetch_add(1, Ordering::SeqCst);
                    last_refusal = ServeError::Shutdown;
                }
                // Deterministic outcomes: every shard computes the same
                // answer for the same request, so moving on would only
                // repeat it.
                Ok(Err(e)) => return Err(e),
                Err(m) => {
                    eprintln!(
                        "router: shard {member} ({}) lost: {m} — failing over",
                        shard.addr
                    );
                    shard.down.store(true, Ordering::SeqCst);
                    self.counters.failovers.fetch_add(1, Ordering::SeqCst);
                    last_refusal = ServeError::Shutdown;
                }
            }
        }
        Err(last_refusal)
    }

    /// One request against one shard, through a checked-out pool client:
    /// the shard's typed outcome, or (outer `Err`) the transport failure
    /// that lost it. A client that saw a transport or protocol failure is
    /// dropped, not returned — its stream state is unknown and the pool
    /// re-dials on demand (capped; see [`Shard::checkout`]).
    fn call_shard(&self, shard: &Shard, work: &Work) -> Result<Result<Reply, ServeError>, String> {
        shard.counters.calls.fetch_add(1, Ordering::SeqCst);
        let mut client = match shard.checkout(self.config.redials) {
            Ok(c) => c,
            Err(e) => {
                shard
                    .counters
                    .transport_errors
                    .fetch_add(1, Ordering::SeqCst);
                return Err(e.to_string());
            }
        };
        let before = client.reconnects();
        let result = client.call_with_retry(work, &self.config.retry);
        shard
            .counters
            .reconnects
            .fetch_add(client.reconnects() - before, Ordering::SeqCst);
        match result {
            Ok(outcome) => {
                shard.pool.lock().push(client);
                let counter = match outcome {
                    Ok(_) => &shard.counters.replies,
                    Err(_) => &shard.counters.typed_errors,
                };
                counter.fetch_add(1, Ordering::SeqCst);
                Ok(outcome)
            }
            Err(WireError::Io(m)) => {
                shard
                    .counters
                    .transport_errors
                    .fetch_add(1, Ordering::SeqCst);
                Err(m)
            }
            Err(WireError::Malformed(m)) => {
                // A codec disagreement is deterministic — surface it as a
                // fault instead of hammering other shards with it.
                shard.counters.typed_errors.fetch_add(1, Ordering::SeqCst);
                Ok(Err(ServeError::Faulted {
                    panic: false,
                    message: format!("wire protocol error: {m}"),
                }))
            }
        }
    }

    /// Resolves `work`'s routing identity, running the generator's
    /// pattern stream only on first sight of its spec (see the `ids`
    /// field).
    fn identify(&self, work: &Work) -> MatrixId {
        let wl = work.workload();
        let spec = SpecKey::of(wl);
        if let Some(id) = self.ids.lock().get(&spec) {
            return *id;
        }
        let (id, _) = MatrixId::of_pattern(wl);
        self.ids.lock().insert(spec, id);
        id
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(n: u64) -> Vec<MatrixId> {
        (0..n)
            .map(|i| MatrixId {
                hash: fnv1a(FNV_OFFSET, &i.to_le_bytes()),
                nrows: 64 + (i as usize % 7),
                ncols: 64,
                nnz: 100 + i as usize,
            })
            .collect()
    }

    #[test]
    fn ring_assignment_is_deterministic_and_covers_all_shards() {
        let a = HashRing::new(5, 64);
        let b = HashRing::new(5, 64);
        let mut hit = [false; 5];
        for id in ids(500) {
            let s = a.assign(&id);
            assert_eq!(s, b.assign(&id));
            assert!(s < 5);
            hit[s] = true;
        }
        assert!(hit.iter().all(|&h| h), "500 keys must touch all 5 shards");
    }

    #[test]
    fn excluding_a_shard_moves_only_its_keys() {
        let ring = HashRing::new(4, 64);
        let mut down = [false; 4];
        down[2] = true;
        for id in ids(400) {
            let primary = ring.assign(&id);
            let fallback = ring.assign_excluding(&id, &down).unwrap();
            if primary != 2 {
                assert_eq!(fallback, primary, "live shards must keep their keys");
            } else {
                assert_ne!(fallback, 2);
            }
        }
    }

    #[test]
    fn candidates_enumerate_every_shard_once_starting_at_primary() {
        let ring = HashRing::new(6, 32);
        for id in ids(50) {
            let order: Vec<usize> = ring.candidates(&id).collect();
            assert_eq!(order[0], ring.assign(&id));
            let mut sorted = order.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, (0..6).collect::<Vec<_>>());
        }
    }

    #[test]
    fn all_shards_down_yields_no_assignment() {
        let ring = HashRing::new(3, 8);
        let id = ids(1)[0];
        assert_eq!(ring.assign_excluding(&id, &[true, true, true]), None);
    }

    #[test]
    fn checkout_caps_redials_with_a_typed_error() {
        // Grab an ephemeral port that nothing listens on: bind, note the
        // address, drop the listener.
        let dead_addr = {
            let l = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
            l.local_addr().expect("addr")
        };
        let shard = Shard::fresh(dead_addr, Vec::new());
        let err = shard.checkout(3).expect_err("dead port cannot dial");
        let PoolError::DialExhausted { attempts, last } = &err;
        assert_eq!(*attempts, 3);
        assert!(!last.is_empty());
        assert!(err.to_string().contains("3 dial attempt(s)"));
        // Zero clamps to one attempt, never an unbounded loop.
        let PoolError::DialExhausted { attempts, .. } = shard.checkout(0).expect_err("still dead");
        assert_eq!(attempts, 1);
    }
}
