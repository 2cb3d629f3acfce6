//! CLI regression: `cwfmem sweep` must exit 2 on a bench name it does
//! not know, before any cell runs, and zero when the grid completes. (A
//! cell that panics is isolated and counted by `sweep::Plan`; see
//! `a_panicking_cell_does_not_kill_the_sweep` in `crates/sim`.)

use std::process::Command;

fn cwfmem() -> Command {
    Command::new(env!("CARGO_BIN_EXE_cwfmem"))
}

#[test]
fn sweep_rejects_an_unknown_bench() {
    // Rejected by the flag parser like an unknown `--kinds` value: exit
    // 2 naming it, with usage and no panic.
    let out = cwfmem()
        .args(["sweep", "--benches", "no-such-bench", "--kinds", "ddr3", "--reads", "120"])
        .output()
        .expect("run cwfmem");
    assert_eq!(out.status.code(), Some(2), "an unknown bench is a usage error");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown benchmark 'no-such-bench'"), "stderr: {stderr}");
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
}

#[test]
fn sweep_rejects_a_mixed_grid_before_running() {
    // One good bench and one bad: nothing runs, so no table is printed.
    let out = cwfmem()
        .args([
            "sweep",
            "--benches",
            "libquantum,no-such-bench",
            "--kinds",
            "ddr3",
            "--reads",
            "120",
            "--jobs",
            "2",
        ])
        .output()
        .expect("run cwfmem");
    assert_eq!(out.status.code(), Some(2));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(!stdout.contains("libquantum"), "no cell may run: {stdout}");
}

#[test]
fn sweep_exits_zero_when_all_cells_complete() {
    let out = cwfmem()
        .args(["sweep", "--benches", "libquantum", "--kinds", "ddr3", "--reads", "120"])
        .output()
        .expect("run cwfmem");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "clean sweep must exit zero; stderr: {stderr}");
    assert!(!stderr.contains("failed"), "stderr: {stderr}");
}
