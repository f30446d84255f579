//! Runs every figure/table reproduction in sequence (the full evaluation).
//!
//! Usage: `cargo run --release -p tailors-bench --bin run_all --
//! [scale] [--threads N] [--no-gen-cache] [--serve] [--wire] [--router]`
//!
//! At `scale = 1.0` (default) the workloads are generated at the paper's
//! full dimensions; expect a few minutes, dominated by tensor generation.
//! `--threads N` pins the suite's worker threads in every child binary
//! (`--threads 1` is the fully serial, deterministic path); without it the
//! children use all available cores.
//!
//! Generated tensors are memoized on disk across the child binaries
//! (`TAILORS_GEN_CACHE`, defaulting to `target/gen-cache`) so the ten
//! children stop regenerating ten identical copies of the suite;
//! `--no-gen-cache` disables the disk layer.
//!
//! `--serve` appends the `tailors-serve` sweep driver (`serve` binary) to
//! the sequence: repeated suite × variant sweeps through the long-lived
//! [`SimService`](https://docs.rs/tailors-serve) with `--verify`, proving
//! plan-hot steady-state responses bit-identical to cold `Variant` runs.
//!
//! `--wire` appends the wire-transport smoke (`serve --wire-smoke`): the
//! same suite sweep driven through the fault-tolerant service runtime —
//! line-delimited JSON over a real TCP socket, bounded mailboxes, worker
//! pool — verified bit-identical against an in-process baseline and
//! fully accounted. Set `TAILORS_FAULTS` (e.g. `panic:7,latency:3`) to
//! run it under deterministic fault injection; it inherits the
//! environment.
//!
//! `--router` appends the sharded-router smoke (`serve --router-smoke`):
//! the suite batch consistent-hash-routed across three spawned wire
//! shard processes and proven bit-identical to an in-process baseline,
//! then replayed with one shard hard-killed mid-stream to prove failover
//! completes with the fleet accounting ledger intact.
//!
//! Every child runs even if an earlier one fails; `run_all` then exits 1
//! and lists the children that exited unsuccessfully or failed to launch.

use std::process::Command;

fn main() {
    let mut scale: Option<String> = None;
    let mut threads: Option<String> = None;
    let mut gen_cache = true;
    let mut serve = false;
    let mut wire = false;
    let mut router = false;
    let mut args = std::env::args().skip(1);
    const USAGE: &str =
        "usage: run_all [scale] [--threads N] [--no-gen-cache] [--serve] [--wire] [--router]";
    while let Some(arg) = args.next() {
        if arg == "--threads" {
            let n = args.next().expect("--threads requires a value");
            assert!(
                n.parse::<usize>().map(|v| v > 0).unwrap_or(false),
                "--threads must be a positive integer, got {n:?}"
            );
            threads = Some(n);
        } else if arg == "--no-gen-cache" {
            gen_cache = false;
        } else if arg == "--serve" {
            serve = true;
        } else if arg == "--wire" {
            wire = true;
        } else if arg == "--router" {
            router = true;
        } else if arg.starts_with('-') {
            panic!("unknown flag {arg:?}; {USAGE}");
        } else if scale.is_none() {
            scale = Some(arg);
        } else {
            panic!("unexpected extra argument {arg:?}; {USAGE}");
        }
    }
    let scale = scale.unwrap_or_else(|| "1.0".to_string());
    let cache_dir =
        std::env::var("TAILORS_GEN_CACHE").unwrap_or_else(|_| "target/gen-cache".to_string());
    let mut bins: Vec<(&str, &str, &[&str])> = vec![
        ("table2", "table2", &[]),
        ("fig1", "fig1", &[]),
        ("table1", "table1", &[]),
        ("fig7", "fig7", &[]),
        ("fig8", "fig8", &[]),
        ("fig9", "fig9", &[]),
        ("fig10", "fig10", &[]),
        ("fig11", "fig11", &[]),
        ("fig12", "fig12", &[]),
        ("fig13", "fig13", &[]),
    ];
    if serve {
        // The serving sweep rides at the end so its generation-cache hits
        // demonstrate the cross-binary disk tier too.
        bins.push(("serve", "serve", &["--sweeps", "3", "--verify"]));
    }
    if wire {
        // Late: the wire smoke exercises the full runtime stack (codec,
        // TCP, mailbox, workers) over the already-cached suite tensors.
        bins.push(("serve --wire-smoke", "serve", &["--wire-smoke"]));
    }
    if router {
        // Last: the sharded-router smoke spawns three wire shard
        // processes of its own and exercises ring placement + failover
        // on top of everything the wire smoke covers.
        bins.push(("serve --router-smoke", "serve", &["--router-smoke"]));
    }
    let mut failed = Vec::new();
    for (label, bin, extra) in bins {
        println!();
        println!("==================== {label} ====================");
        let mut cmd = Command::new(
            std::env::current_exe()
                .expect("self path")
                .parent()
                .expect("bin dir")
                .join(bin),
        );
        cmd.arg(&scale);
        cmd.args(extra);
        if let Some(t) = &threads {
            cmd.env("TAILORS_THREADS", t);
        }
        if gen_cache {
            cmd.env("TAILORS_GEN_CACHE", &cache_dir);
        } else {
            cmd.env_remove("TAILORS_GEN_CACHE");
        }
        match cmd.status() {
            Ok(s) if s.success() => {}
            Ok(s) => {
                eprintln!("{label} exited with {s}");
                failed.push(label);
            }
            Err(e) => {
                eprintln!("failed to launch {label}: {e}");
                failed.push(label);
            }
        }
    }
    if !failed.is_empty() {
        eprintln!("run_all: {} failed: {}", failed.len(), failed.join(", "));
        std::process::exit(1);
    }
}
