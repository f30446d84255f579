//! Determinism over the wire: the PR 4 concurrent-clients suite
//! (`tests/determinism.rs`) replayed through the full service runtime —
//! line-delimited JSON over TCP, the bounded priority mailbox, and the
//! worker pool — must still hand every client payloads bit-identical to
//! a fully serial execution on a cold in-process service. Transport,
//! queueing order, worker count, and codec round-tripping must all be
//! invisible in the payload — and so must injected faults: under worker
//! panics and latency every completed reply still matches, and severed
//! connections are absorbed by client reconnects without touching the
//! ledger.

use std::sync::Arc;

use tailors_serve::wire::WireTcpServer;
use tailors_serve::{
    FaultPlan, FunctionalRequest, Reply, RetryPolicy, RuntimeConfig, ServeError, ServiceRuntime,
    SimRequest, SimResponse, SimService, WireClient, Work,
};
use tailors_sim::{ArchConfig, GridMode, MemBudget, Variant};

const SCALE: f64 = 1.0 / 256.0;
const CLIENTS: usize = 4;

/// Same shared request stream as the in-process suite: 8 workloads × 3
/// variants with budgets and grids cycled deterministically.
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

fn assert_same_payload(a: &SimResponse, b: &SimResponse, context: &str) {
    assert_eq!(a.name, b.name, "{context}");
    assert_eq!(a.metrics, b.metrics, "{context}: {}", a.name);
    assert_eq!(
        a.metrics.cycles.to_bits(),
        b.metrics.cycles.to_bits(),
        "{context}: {} cycles bits",
        a.name
    );
    assert_eq!(
        a.metrics.energy_pj.to_bits(),
        b.metrics.energy_pj.to_bits(),
        "{context}: {} energy bits",
        a.name
    );
}

#[test]
fn concurrent_wire_clients_match_serial_execution_at_every_worker_width() {
    let reqs = batch();
    // Ground truth: a cold service, fully serial, no transport.
    let serial = SimService::new().submit_batch(&reqs, 1);

    for workers in [1usize, 4] {
        let runtime = Arc::new(ServiceRuntime::new(RuntimeConfig {
            workers,
            // Roomy enough that 4 clients never see backpressure; the
            // overload path has its own suite (fault_tolerance.rs).
            mailbox_capacity: 4 * reqs.len(),
            ..RuntimeConfig::default()
        }));
        let mut server =
            WireTcpServer::spawn(Arc::clone(&runtime), "127.0.0.1:0").expect("bind wire server");
        let addr = server.addr();

        let handles: Vec<_> = (0..CLIENTS)
            .map(|client| {
                let reqs = reqs.clone();
                std::thread::spawn(move || {
                    let mut wire = WireClient::connect(addr).expect("connect");
                    // Each client rotates the stream so clients race on
                    // *different* requests at any instant while every
                    // request is still served by every client.
                    let start = client * 7 % reqs.len();
                    let responses: Vec<SimResponse> = reqs[start..]
                        .iter()
                        .chain(&reqs[..start])
                        .map(|req| {
                            wire.sim(req)
                                .expect("wire protocol")
                                .expect("request served")
                        })
                        .collect();
                    (start, responses)
                })
            })
            .collect();
        for handle in handles {
            let (start, responses) = handle.join().expect("client thread");
            assert_eq!(responses.len(), serial.len());
            for (i, resp) in responses.iter().enumerate() {
                let serial_idx = (start + i) % serial.len();
                assert_same_payload(
                    resp,
                    &serial[serial_idx],
                    &format!("workers={workers} client-rotation={start}"),
                );
            }
        }
        server.stop();
        let report = runtime.shutdown();
        assert_eq!(report.unserved, 0, "workers={workers}");

        // Overlap really happened, and nothing was lost on the way:
        // every request crossed the wire, the mailbox, and a worker.
        let stats = runtime.stats();
        assert_eq!(stats.submitted, (CLIENTS * reqs.len()) as u64);
        assert_eq!(stats.completed, stats.submitted, "workers={workers}");
        assert_eq!(stats.accounted(), stats.submitted);
        let service = runtime.service().stats();
        assert_eq!(service.requests, (CLIENTS * reqs.len()) as u64);
        assert!(
            service.plan_hits > 0,
            "overlapping clients must share cached plans"
        );
    }
}

/// A small functional request: the heavyweight payload (CSR output
/// matrix included) that must survive the wire bit-for-bit.
fn functional_request() -> FunctionalRequest {
    let wl = tailors_workloads::by_name("email-Enron")
        .expect("suite workload")
        .scaled(1.0 / 512.0);
    FunctionalRequest {
        workload: wl,
        variant: Variant::default_ob(),
        arch: ArchConfig::extensor().scaled(1.0 / 512.0),
        budget: MemBudget::mib(4),
        grid: GridMode::Grid2D,
        auto_plan: true,
        threads: 2,
    }
}

#[test]
fn functional_results_are_bit_identical_across_the_wire() {
    let req = functional_request();
    // Cold in-process ground truth.
    let baseline = SimService::new().run_functional(&req).expect("baseline");

    let runtime = Arc::new(ServiceRuntime::new(RuntimeConfig::default()));
    let mut server =
        WireTcpServer::spawn(Arc::clone(&runtime), "127.0.0.1:0").expect("bind wire server");
    let mut wire = WireClient::connect(server.addr()).expect("connect");
    for pass in 0..2 {
        let served = wire
            .functional(&req)
            .expect("wire protocol")
            .expect("request served");
        assert_eq!(served.config, baseline.config, "pass={pass}");
        assert_eq!(served.result, baseline.result, "pass={pass}");
        let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            bits(served.result.z.values()),
            bits(baseline.result.z.values()),
            "pass={pass}: value bits"
        );
    }
    // `wire` is deliberately still connected here: stop() must not be
    // held hostage by an idle-but-open client connection (regression
    // test — the session loop wakes on a read tick to honor the stop).
    server.stop();
    let report = runtime.shutdown();
    assert_eq!(report.unserved, 0);
    assert_eq!(runtime.stats().completed, 2);
    drop(wire);
}

#[test]
fn injected_faults_over_tcp_keep_completed_replies_bit_identical_and_accounted() {
    let reqs = batch();
    let freq = functional_request();
    // Cold, faultless, in-process ground truth.
    let baseline_service = SimService::new();
    let baseline = baseline_service.submit_batch(&reqs, 1);
    let fbaseline = baseline_service.run_functional(&freq).expect("baseline");

    let runtime = Arc::new(ServiceRuntime::new(RuntimeConfig {
        faults: FaultPlan::parse("panic:7,latency:3").expect("fault spec"),
        ..RuntimeConfig::default()
    }));
    let mut server =
        WireTcpServer::spawn(Arc::clone(&runtime), "127.0.0.1:0").expect("bind wire server");
    let mut clients: Vec<WireClient> = (0..2)
        .map(|_| WireClient::connect(server.addr()).expect("connect"))
        .collect();

    // Client-side tally: [completed, faulted, rejected, timed_out].
    let mut tally = [0u64; 4];
    let mut count = |outcome: &Result<Reply, ServeError>| match outcome {
        Ok(_) => tally[0] += 1,
        Err(ServeError::Faulted { .. }) => tally[1] += 1,
        Err(
            ServeError::Overloaded(_) | ServeError::BadRequest(_) | ServeError::TooLarge { .. },
        ) => tally[2] += 1,
        Err(ServeError::Timeout { .. }) => tally[3] += 1,
        Err(ServeError::Shutdown) => panic!("server shut down mid-stream"),
    };
    for (i, (req, expect)) in reqs.iter().zip(&baseline).enumerate() {
        let outcome = clients[i % 2]
            .call(&Work::Sim(req.clone()))
            .expect("wire transport");
        count(&outcome);
        if let Ok(reply) = outcome {
            let resp = reply.into_sim().expect("sim reply");
            assert_same_payload(&resp, expect, &format!("faults, request {i}"));
        }
    }
    let outcome = clients[0]
        .call(&Work::Functional(Box::new(freq)))
        .expect("wire transport");
    count(&outcome);
    if let Ok(reply) = outcome {
        let resp = reply.into_functional().expect("functional reply");
        assert_eq!(resp.config, fbaseline.config);
        assert_eq!(
            resp.result, fbaseline.result,
            "functional reply under faults"
        );
    }

    drop(clients);
    server.stop();
    let stats = runtime.shutdown().stats;
    assert_eq!(stats.submitted, reqs.len() as u64 + 1);
    assert_eq!(
        tally.iter().sum::<u64>(),
        stats.submitted,
        "tally {tally:?}"
    );
    assert_eq!(stats.accounted(), stats.submitted);
    assert!(tally[0] > 0, "some requests must complete");
    assert!(stats.injected_panics > 0, "panic injection must fire");
    assert_eq!(
        stats.panics_isolated, stats.injected_panics,
        "every injected panic is isolated, and nothing else panics"
    );
}

#[test]
fn dropped_connections_are_resent_over_fresh_ones_without_entering_the_ledger() {
    let reqs = batch();
    let baseline = SimService::new().submit_batch(&reqs, 1);

    let runtime = Arc::new(ServiceRuntime::new(RuntimeConfig {
        faults: FaultPlan::parse("drop_conn:5").expect("fault spec"),
        ..RuntimeConfig::default()
    }));
    let mut server =
        WireTcpServer::spawn(Arc::clone(&runtime), "127.0.0.1:0").expect("bind wire server");
    let mut client = WireClient::connect(server.addr()).expect("connect");
    let policy = RetryPolicy::default();
    for (i, (req, expect)) in reqs.iter().zip(&baseline).enumerate() {
        let resp = client
            .call_with_retry(&Work::Sim(req.clone()), &policy)
            .expect("reconnect absorbs the dropped session")
            .expect("request served")
            .into_sim()
            .expect("sim reply");
        assert_same_payload(&resp, expect, &format!("drop_conn, request {i}"));
    }

    server.stop();
    let stats = runtime.shutdown().stats;
    // Dropped requests never reached the runtime: only the resends count.
    assert_eq!(stats.submitted, reqs.len() as u64);
    assert_eq!(stats.completed, stats.submitted);
    assert!(stats.injected_drops > 0, "drop_conn must fire");
    assert_eq!(stats.injected_drops, client.reconnects());
}
