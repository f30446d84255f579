//! Runs every figure/table reproduction in sequence (the full evaluation).
//!
//! Usage: `cargo run --release -p tailors-bench --bin run_all --
//! [scale] [--threads N] [--no-gen-cache]`
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
//! Every child runs even if an earlier one fails; `run_all` then exits 1
//! and lists the children that exited unsuccessfully or failed to launch.

use std::process::Command;

fn main() {
    let mut scale: Option<String> = None;
    let mut threads: Option<String> = None;
    let mut gen_cache = true;
    let mut args = std::env::args().skip(1);
    const USAGE: &str = "usage: run_all [scale] [--threads N] [--no-gen-cache]";
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
    let bins = [
        "table2", "fig1", "table1", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12", "fig13",
    ];
    let mut failed = Vec::new();
    for label in bins {
        println!();
        println!("==================== {label} ====================");
        let mut cmd = Command::new(
            std::env::current_exe()
                .expect("self path")
                .parent()
                .expect("bin dir")
                .join(label),
        );
        cmd.arg(&scale);
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
