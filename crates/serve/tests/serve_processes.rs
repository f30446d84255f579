//! The `serve` binary's serving modes as real processes: two
//! `serve --wire 127.0.0.1:0` shards behind a [`ShardRouter`] must hand
//! back payloads bit-identical to a cold in-process service, keep doing
//! so after one shard process is hard-killed, and drain and exit 0 when
//! their stdin closes; a `serve --wire-stdio` child must answer an
//! encoded request line with the same payload and exit 0 at end of
//! input.

use std::io::{BufRead, BufReader, Read, Write};
use std::process::{Child, ChildStdout, Command, Stdio};

use tailors_serve::wire::{decode_reply, encode_request};
use tailors_serve::{Reply, RouterConfig, ShardRouter, SimRequest, SimResponse, SimService, Work};
use tailors_sim::{GridMode, MemBudget, Variant};

const SCALE: f64 = 1.0 / 256.0;

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

fn serve(mode: &[&str]) -> Child {
    Command::new(env!("CARGO_BIN_EXE_serve"))
        .args(mode)
        .args(["--threads", "2"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn serve")
}

/// A `serve --wire 127.0.0.1:0` child and the address its banner reports.
fn spawn_shard() -> (Child, BufReader<ChildStdout>, String) {
    let mut child = serve(&["--wire", "127.0.0.1:0"]);
    let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
    let addr = loop {
        let mut line = String::new();
        let n = stdout.read_line(&mut line).expect("shard stdout");
        assert!(n > 0, "shard exited before binding its wire port");
        if let Some(bound) = line.trim().strip_prefix("wire: listening on ") {
            break bound.to_string();
        }
    };
    (child, stdout, addr)
}

/// Closes the child's stdin (its drain-and-exit signal) and asserts it
/// exits 0.
fn close_and_wait(mut child: Child, stdout: impl Read) {
    drop(child.stdin.take());
    let mut rest = String::new();
    BufReader::new(stdout)
        .read_to_string(&mut rest)
        .expect("child stdout");
    let status = child.wait().expect("reap child");
    assert!(status.success(), "serve exited {status}; stdout:\n{rest}");
}

fn assert_same_payload(served: &SimResponse, expect: &SimResponse, context: &str) {
    assert_eq!(served.name, expect.name, "{context}");
    assert_eq!(served.metrics, expect.metrics, "{context}: {}", served.name);
    assert_eq!(
        served.metrics.cycles.to_bits(),
        expect.metrics.cycles.to_bits(),
        "{context}: {} cycles bits",
        served.name
    );
}

fn assert_routed(router: &ShardRouter, works: &[Work], baseline: &[SimResponse], context: &str) {
    let outcomes = router.submit_batch(works);
    assert_eq!(outcomes.len(), baseline.len(), "{context}");
    for (outcome, expect) in outcomes.into_iter().zip(baseline) {
        let served = outcome
            .expect("request served")
            .into_sim()
            .expect("sim reply");
        assert_same_payload(&served, expect, context);
    }
}

#[test]
fn routed_wire_processes_survive_a_kill_and_drain_cleanly() {
    let reqs = batch();
    let baseline = SimService::new().submit_batch(&reqs, 1);
    let works: Vec<Work> = reqs.iter().cloned().map(Work::Sim).collect();

    let mut shards: Vec<_> = (0..2).map(|_| spawn_shard()).collect();
    let endpoints: Vec<String> = shards.iter().map(|(_, _, addr)| addr.clone()).collect();
    let router = ShardRouter::connect(&endpoints, RouterConfig::default()).expect("router dials");
    assert_routed(&router, &works, &baseline, "healthy fleet");
    let healthy = router.stats();
    assert_eq!(
        healthy.accounted(),
        healthy.submitted,
        "healthy fleet ledger"
    );

    // Hard-kill a shard that owns the first key, as a crashed process:
    // no drain, connections reset.
    let victim = router.primary(&works[0]);
    let (mut dead, _, _) = shards.remove(victim);
    dead.kill().expect("kill shard");
    dead.wait().expect("reap killed shard");
    assert_routed(&router, &works, &baseline, "after the kill");

    let stats = router.stats();
    assert_eq!(stats.submitted, 2 * works.len() as u64);
    assert_eq!(stats.completed, stats.submitted, "no request lost");
    assert_eq!(stats.accounted(), stats.submitted, "ledger must balance");
    assert_eq!(stats.shards_down, 1);
    assert!(router.down_shards()[victim]);

    drop(router);
    let (survivor, stdout, _) = shards.pop().expect("one survivor");
    close_and_wait(survivor, stdout);
}

#[test]
fn stdio_process_answers_an_encoded_request_and_exits_at_eof() {
    let req = batch().swap_remove(1);
    let expect = SimService::new().submit(&req);

    let mut child = serve(&["--wire-stdio"]);
    let stdin = child.stdin.as_mut().expect("piped stdin");
    writeln!(stdin, "{}", encode_request(7, &Work::Sim(req))).expect("send request");
    stdin.flush().expect("flush request");
    let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
    let mut line = String::new();
    stdout.read_line(&mut line).expect("read reply");
    let (id, outcome) = decode_reply(line.trim_end()).expect("decode reply");
    assert_eq!(id, Some(7));
    match outcome.expect("request served") {
        Reply::Sim(served) => assert_same_payload(&served, &expect, "stdio"),
        Reply::Functional(_) => panic!("functional reply to a sim request"),
    }

    close_and_wait(child, stdout);
}
