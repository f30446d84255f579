//! `run_all`'s exit status must reflect its figures: CI's `run_all`
//! steps can only fail on a figure's verification panic if `run_all`
//! passes that failure on.

use std::process::Command;

#[test]
fn run_all_exits_nonzero_when_children_fail() {
    // Scale 2.0 is outside (0, 1], so every figure panics on it before
    // generating anything, and each failure is caught and listed.
    let out = Command::new(env!("CARGO_BIN_EXE_run_all"))
        .arg("2.0")
        .output()
        .expect("launch run_all");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        !out.status.success(),
        "run_all exited {} with every child failing; stderr:\n{stderr}",
        out.status
    );
    assert!(
        stderr.contains("run_all: 10 failed: table2, fig1,"),
        "failure summary missing; stderr:\n{stderr}"
    );
}
