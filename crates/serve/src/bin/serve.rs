//! Drives repeated variant sweeps through the long-lived [`SimService`],
//! demonstrating plan-hot steady state: sweep 1 pays profile + plan
//! construction, every later sweep answers from the caches and is proven
//! bit-identical to the first.
//!
//! Usage: `cargo run --release -p tailors-serve --bin serve --
//! [scale] [--sweeps N] [--threads N] [--mem-budget SPEC] [--grid MODE]
//! [--auto-plan] [--verify] [--wire ADDR | --wire-stdio]`
//!
//! The two `--wire*` modes run the fault-tolerant service runtime
//! (bounded priority mailbox + worker pool + admission control; see
//! `tailors_serve::runtime`) behind the line-delimited JSON wire
//! protocol instead of the sweep driver. Both honor `TAILORS_FAULTS`
//! (e.g. `panic:7,latency:3`):
//!
//! * `--wire ADDR` — TCP server on `ADDR` (port 0 picks an ephemeral
//!   port; the bound address is printed). Serves until stdin reaches
//!   EOF, then drains and reports. This is how a [`ShardRouter`] fleet's
//!   shards are deployed.
//! * `--wire-stdio` — serve requests from stdin, replies on stdout
//!   (diagnostics go to stderr; stdout carries only protocol lines).
//!
//! The batch is the full 22-workload suite × the three variants at
//! `scale` (default 1.0), submitted through
//! [`SimService::submit_batch`]'s cost-balanced LPT scheduler. `--threads`
//! falls back to `TAILORS_THREADS`. `--mem-budget` (default
//! unbounded) and `--grid` (default panels) set the requests' scratch
//! budget and grid. With `--auto-plan`, execution plans come from the
//! budget-aware auto planner (cached per request key like any other
//! plan).
//!
//! `--verify` additionally recomputes every response cold — a direct
//! `Variant::execution_plan` + `Variant::run_planned` on a freshly built
//! profile — and asserts bit-identical metrics.
//!
//! [`ShardRouter`]: tailors_serve::ShardRouter

use std::io::BufRead;
use std::sync::Arc;
use std::time::Instant;

use tailors_serve::wire::{serve_lines, WireTcpServer};
use tailors_serve::{
    FaultPlan, RuntimeConfig, ServiceRuntime, SimRequest, SimResponse, SimService,
};
use tailors_sim::{threads_from_env, ArchConfig, GridMode, MemBudget, Variant};

fn main() {
    let mut scale = 1.0f64;
    let mut sweeps = 3usize;
    let mut threads: Option<usize> = None;
    let mut budget = MemBudget::Unbounded;
    let mut grid = GridMode::Panels;
    let mut auto_plan = false;
    let mut verify = false;
    let mut wire_addr: Option<String> = None;
    let mut wire_stdio = false;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut next = |flag: &str| {
            args.next()
                .unwrap_or_else(|| panic!("{flag} requires a value"))
        };
        match arg.as_str() {
            "--sweeps" => {
                sweeps = next("--sweeps")
                    .parse()
                    .expect("--sweeps: positive integer")
            }
            "--threads" => {
                threads = Some(
                    next("--threads")
                        .parse()
                        .expect("--threads: positive integer"),
                )
            }
            "--mem-budget" => {
                budget = MemBudget::parse(&next("--mem-budget")).expect("--mem-budget")
            }
            "--grid" => grid = GridMode::parse(&next("--grid")).expect("--grid"),
            "--auto-plan" => auto_plan = true,
            "--verify" => verify = true,
            "--wire" => wire_addr = Some(next("--wire")),
            "--wire-stdio" => wire_stdio = true,
            other if !other.starts_with('-') => {
                scale = other.parse().expect("scale: a number in (0, 1]");
                assert!(scale > 0.0 && scale <= 1.0, "scale must be in (0, 1]");
            }
            other => panic!("unknown argument {other:?}; see the module docs"),
        }
    }
    assert!(sweeps > 0, "--sweeps must be positive");
    let threads = threads.unwrap_or_else(threads_from_env);

    if wire_stdio {
        run_wire_stdio(threads);
        return;
    }
    if let Some(addr) = wire_addr {
        run_wire_tcp(&addr, threads);
        return;
    }
    let variants = [
        Variant::ExTensorN,
        Variant::ExTensorP,
        Variant::default_ob(),
    ];
    let arch = ArchConfig::extensor().scaled(scale);
    let batch: Vec<SimRequest> = tailors_workloads::suite()
        .iter()
        .flat_map(|wl| {
            variants.map(|variant| SimRequest {
                workload: wl.scaled(scale),
                variant,
                arch,
                budget,
                grid,
                auto_plan,
            })
        })
        .collect();
    println!(
        "serve: {} requests/sweep ({} workloads x {} variants) at scale {scale}, \
         {threads} threads, budget {budget}, grid {grid}, auto-plan {auto_plan}",
        batch.len(),
        batch.len() / variants.len(),
        variants.len(),
    );

    let service = SimService::new();
    let mut first: Option<Vec<SimResponse>> = None;
    for sweep in 1..=sweeps {
        let before = service.stats();
        let t = Instant::now();
        let responses = service.submit_batch(&batch, threads);
        let elapsed = t.elapsed();
        let after = service.stats();
        println!(
            "sweep {sweep}: {elapsed:.2?}  (profile {} hit / {} miss, plan {} hit / {} miss)",
            after.profile_hits - before.profile_hits,
            after.profile_misses - before.profile_misses,
            after.plan_hits - before.plan_hits,
            after.plan_misses - before.plan_misses,
        );
        match &first {
            None => {
                // Steady state starts at sweep 2: every tier hot.
                first = Some(responses);
            }
            Some(cold) => {
                assert!(
                    responses.iter().all(|r| r.hits.profile && r.hits.plan),
                    "steady-state sweeps must hit the profile and plan tiers"
                );
                for (c, h) in cold.iter().zip(&responses) {
                    assert_eq!(c.name, h.name);
                    assert_eq!(
                        c.metrics, h.metrics,
                        "{}: hot response diverged from cold",
                        c.name
                    );
                }
            }
        }
    }
    let stats = service.stats();
    println!(
        "steady state: plan hit rate {:.1} %, profile hit rate {:.1} % over {} requests",
        100.0 * stats.plan_hit_rate(),
        100.0 * stats.profile_hit_rate(),
        stats.requests,
    );

    if verify {
        println!("verify: diffing every served response against a cold Variant run ...");
        let t = Instant::now();
        let responses = first.as_ref().expect("at least one sweep ran");
        // The batch is grouped per workload (one request per variant), so
        // the O(nnz) profiling pass runs once per workload, not per
        // request.
        for (reqs, resps) in batch
            .chunks(variants.len())
            .zip(responses.chunks(variants.len()))
        {
            let profile = tailors_workloads::generate_cached(&reqs[0].workload).profile();
            for (req, resp) in reqs.iter().zip(resps) {
                let tile = req.variant.plan(&profile, &req.arch);
                let exec = req.variant.execution_plan(
                    &profile,
                    &req.arch,
                    req.budget,
                    &tile,
                    req.auto_plan,
                );
                let direct = req
                    .variant
                    .run_planned(&profile, &req.arch, &tile, &exec, req.grid);
                assert_eq!(
                    resp.metrics,
                    direct,
                    "{} / {}: served metrics diverged from the direct run",
                    req.workload.name,
                    req.variant.name()
                );
            }
        }
        println!(
            "verify: all {} responses bit-identical ({:.2?})",
            batch.len(),
            t.elapsed()
        );
    }

    println!("OK");
}

/// The runtime every wire mode serves from: worker pool sized from the
/// thread knob, faults armed from `TAILORS_FAULTS`.
fn wire_runtime(threads: usize) -> Arc<ServiceRuntime> {
    let faults = FaultPlan::from_env();
    if faults.is_active() {
        eprintln!("wire: fault injection armed: {faults:?}");
        // Injected panics are expected traffic here; keep their default
        // hook output (message + backtrace) off stderr so the harness
        // logs stay readable. Real panics still print.
        let default_hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let injected = info
                .payload()
                .downcast_ref::<&str>()
                .is_some_and(|s| s.starts_with("injected fault"));
            if !injected {
                default_hook(info);
            }
        }));
    }
    Arc::new(ServiceRuntime::new(RuntimeConfig {
        workers: threads.clamp(1, 8),
        faults,
        ..RuntimeConfig::default()
    }))
}

/// `--wire-stdio`: protocol lines on stdin/stdout, diagnostics on stderr.
fn run_wire_stdio(threads: usize) {
    let runtime = wire_runtime(threads);
    eprintln!(
        "wire: serving line-delimited JSON on stdio ({} workers)",
        runtime.config().workers
    );
    let stdin = std::io::stdin();
    let stdout = std::io::stdout();
    let report = serve_lines(&runtime, stdin.lock(), stdout.lock()).expect("stdio transport");
    let shutdown = runtime.shutdown();
    eprintln!(
        "wire: served {} requests ({} protocol errors); outcomes {:?}; {} unserved",
        report.served, report.protocol_errors, shutdown.stats, shutdown.unserved
    );
    assert_eq!(
        shutdown.stats.accounted(),
        shutdown.stats.submitted,
        "request accounting must balance"
    );
}

/// `--wire ADDR`: TCP front door; serves until stdin reaches EOF.
fn run_wire_tcp(addr: &str, threads: usize) {
    let runtime = wire_runtime(threads);
    let mut server = WireTcpServer::spawn(Arc::clone(&runtime), addr).expect("bind wire server");
    println!("wire: listening on {}", server.addr());
    println!("wire: close stdin (ctrl-d) to drain and exit");
    // Block until the controlling stream closes, then drain.
    for _line in std::io::stdin().lock().lines() {}
    server.stop();
    let shutdown = runtime.shutdown();
    println!(
        "wire: drained; outcomes {:?}; {} unserved",
        shutdown.stats, shutdown.unserved
    );
    assert_eq!(
        shutdown.stats.accounted(),
        shutdown.stats.submitted,
        "request accounting must balance"
    );
}
