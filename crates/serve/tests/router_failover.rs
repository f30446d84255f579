//! The sharded router end to end, against three in-process wire shards:
//! a full suite batch routed through the ring must be bit-identical to a
//! single cold in-process service, and killing a shard mid-stream must
//! fail its keys over to the survivors with the fleet accounting ledger
//! (`completed + rejected + timed_out + faulted == submitted`) intact.

use std::sync::Arc;

use tailors_serve::wire::WireTcpServer;
use tailors_serve::{
    Reply, RouterConfig, RuntimeConfig, ServiceRuntime, ShardRouter, SimRequest, SimResponse,
    SimService, Work,
};
use tailors_sim::{GridMode, MemBudget, Variant};

const SCALE: f64 = 1.0 / 256.0;
const SHARDS: usize = 3;

/// The shared 24-request stream the wire determinism suite uses: 8
/// workloads × 3 variants with budgets and grids cycled.
fn batch() -> Vec<SimRequest> {
    let names = [
        "cant",
        "email-Enron",
        "pdb1HYS",
        "rma10",
        "soc-Epinions1",
        "p2p-Gnutella31",
        "webbase-1M",
        "roadNet-CA",
    ];
    let variants = [
        Variant::ExTensorN,
        Variant::ExTensorP,
        Variant::default_ob(),
    ];
    names
        .iter()
        .enumerate()
        .flat_map(|(i, name)| {
            variants.into_iter().enumerate().map(move |(j, variant)| {
                let mut req = SimRequest::suite(name, SCALE, variant).expect("suite workload");
                if (i + j) % 2 == 0 {
                    req.budget = MemBudget::bytes(64 << 10);
                }
                if j % 2 == 1 {
                    req.grid = GridMode::Grid2D;
                }
                req
            })
        })
        .collect()
}

struct Fleet {
    runtimes: Vec<Arc<ServiceRuntime>>,
    servers: Vec<WireTcpServer>,
}

impl Fleet {
    fn spawn(n: usize) -> Fleet {
        let mut runtimes = Vec::new();
        let mut servers = Vec::new();
        for _ in 0..n {
            let runtime = Arc::new(ServiceRuntime::new(RuntimeConfig {
                workers: 2,
                ..RuntimeConfig::default()
            }));
            servers.push(
                WireTcpServer::spawn(Arc::clone(&runtime), "127.0.0.1:0").expect("bind shard"),
            );
            runtimes.push(runtime);
        }
        Fleet { runtimes, servers }
    }

    fn endpoints(&self) -> Vec<String> {
        self.servers.iter().map(|s| s.addr().to_string()).collect()
    }

    /// Takes shard `i` down completely: accept loop joined, sessions
    /// closed, workers drained, port freed.
    fn kill(&mut self, i: usize) {
        self.servers[i].stop();
        self.runtimes[i].shutdown();
    }

    fn shutdown(mut self) {
        for server in &mut self.servers {
            server.stop();
        }
        for runtime in &self.runtimes {
            runtime.shutdown();
        }
    }
}

fn sim_replies(outcomes: Vec<Result<Reply, tailors_serve::ServeError>>) -> Vec<SimResponse> {
    outcomes
        .into_iter()
        .map(|o| o.expect("served").into_sim().expect("sim reply"))
        .collect()
}

fn assert_bit_identical(served: &[SimResponse], baseline: &[SimResponse], context: &str) {
    assert_eq!(served.len(), baseline.len(), "{context}");
    for (s, b) in served.iter().zip(baseline) {
        assert_eq!(s.name, b.name, "{context}");
        assert_eq!(s.metrics, b.metrics, "{context}: {}", s.name);
        assert_eq!(
            s.metrics.cycles.to_bits(),
            b.metrics.cycles.to_bits(),
            "{context}: {} cycles bits",
            s.name
        );
        assert_eq!(
            s.metrics.energy_pj.to_bits(),
            b.metrics.energy_pj.to_bits(),
            "{context}: {} energy bits",
            s.name
        );
    }
}

#[test]
fn routed_batches_are_bit_identical_to_a_single_process() {
    let reqs = batch();
    let baseline = SimService::new().submit_batch(&reqs, 1);

    let fleet = Fleet::spawn(SHARDS);
    let router =
        ShardRouter::connect(&fleet.endpoints(), RouterConfig::default()).expect("router dials");
    let works: Vec<Work> = reqs.iter().cloned().map(Work::Sim).collect();

    // The ring really shards: with 8 distinct matrices on a 3-shard
    // ring, more than one shard must own keys.
    let mut owners: Vec<usize> = works.iter().map(|w| router.primary(w)).collect();
    owners.sort_unstable();
    owners.dedup();
    assert!(owners.len() > 1, "ring must spread the corpus");

    for pass in 0..2 {
        let served = sim_replies(router.submit_batch(&works));
        assert_bit_identical(&served, &baseline, &format!("pass={pass}"));
    }

    let stats = router.stats();
    assert_eq!(stats.submitted, 2 * works.len() as u64);
    assert_eq!(stats.completed, stats.submitted);
    assert_eq!(stats.accounted(), stats.submitted);
    assert_eq!(stats.failovers, 0);
    assert_eq!(stats.shards_down, 0);
    // Every owning shard saw its own calls.
    let per_shard = router.shard_stats();
    assert_eq!(
        per_shard.iter().map(|s| s.replies).sum::<u64>(),
        stats.completed
    );
    for (i, s) in per_shard.iter().enumerate() {
        assert!(!s.down, "shard {i} must stay up");
    }
    fleet.shutdown();
}

#[test]
fn killing_a_shard_mid_stream_fails_over_with_the_ledger_intact() {
    let reqs = batch();
    let baseline = SimService::new().submit_batch(&reqs, 1);
    let works: Vec<Work> = reqs.iter().cloned().map(Work::Sim).collect();

    let mut fleet = Fleet::spawn(SHARDS);
    let router =
        ShardRouter::connect(&fleet.endpoints(), RouterConfig::default()).expect("router dials");

    // Warm the routing memo and pick a victim that owns keys, so the
    // second leg provably sends requests at a dead shard.
    let owners: Vec<usize> = works.iter().map(|w| router.primary(w)).collect();
    let victim = owners[0];
    let victim_keys = owners.iter().filter(|&&o| o == victim).count();
    assert!(victim_keys > 0);

    // Leg one: everything healthy.
    let first = sim_replies(router.submit_batch(&works));
    assert_bit_identical(&first, &baseline, "healthy leg");
    let healthy = router.stats();
    assert_eq!(healthy.accounted(), healthy.submitted, "healthy leg ledger");

    // Kill the victim, then replay the whole batch: its keys must fail
    // over to survivors and still produce bit-identical payloads.
    fleet.kill(victim);
    let second = sim_replies(router.submit_batch(&works));
    assert_bit_identical(&second, &baseline, "failover leg");

    let stats = router.stats();
    assert_eq!(stats.submitted, 2 * works.len() as u64);
    assert_eq!(stats.completed, stats.submitted, "no request lost");
    assert_eq!(
        stats.accounted(),
        stats.submitted,
        "ledger must hold across shards"
    );
    // The down mark is sticky, so only the first victim-bound request
    // pays the discovery hop; the exact count depends on which bin hit
    // the dead shard first, but at least one failover happened and the
    // victim is marked.
    assert!(stats.failovers >= 1, "stats: {stats:?}");
    assert_eq!(stats.shards_down, 1);
    assert!(router.down_shards()[victim]);

    // Survivors absorbed the victim's keys: their reply counts cover
    // every completion.
    let per_shard = router.shard_stats();
    assert_eq!(
        per_shard.iter().map(|s| s.replies).sum::<u64>(),
        stats.completed
    );
    assert!(per_shard[victim].transport_errors >= 1);

    // A fresh single submit while degraded still serves.
    let extra = router
        .submit(&works[0])
        .expect("degraded fleet still serves")
        .into_sim()
        .expect("sim reply");
    assert_eq!(extra.metrics, baseline[0].metrics);
    let stats = router.stats();
    assert_eq!(stats.accounted(), stats.submitted);

    fleet.shutdown();
}

/// A shard batch bins one spec's requests onto one connection, so the
/// shard runs each spec's pattern stream once: the 22 suite specs × N/P/OB
/// at 1/64 on one shard with the default 2-connection pool miss the
/// profile tier exactly 22 times on every fresh fleet, and reply with the
/// payloads of a 1-connection batch.
#[test]
fn a_shard_batch_runs_each_spec_pattern_stream_once() {
    let variants = [
        Variant::ExTensorN,
        Variant::ExTensorP,
        Variant::default_ob(),
    ];
    let works: Vec<Work> = tailors_workloads::suite()
        .iter()
        .flat_map(|wl| {
            variants.into_iter().map(|variant| {
                Work::Sim(SimRequest::suite(wl.name, 1.0 / 64.0, variant).expect("suite workload"))
            })
        })
        .collect();
    assert_eq!(works.len(), 66);
    let serve = |connections: usize| {
        let fleet = Fleet::spawn(1);
        let config = RouterConfig {
            connections,
            ..RouterConfig::default()
        };
        let router = ShardRouter::connect(&fleet.endpoints(), config).expect("router dials");
        let served = sim_replies(router.submit_batch(&works));
        let misses = fleet.runtimes[0].service().stats().profile_misses;
        fleet.shutdown();
        (served, misses)
    };
    let (single, single_misses) = serve(1);
    assert_eq!(single_misses, 22);
    let pooled = RouterConfig::default().connections;
    assert_eq!(pooled, 2);
    for fleet in 0..3 {
        let (served, misses) = serve(pooled);
        assert_eq!(misses, 22, "fleet {fleet}: one pattern stream per spec");
        assert_bit_identical(&served, &single, &format!("fleet {fleet}"));
    }
}
