//! CLI regression: `cwfmem figures` accepts exactly its fixed figure
//! names. A typo, or a flag where the name belongs, must fail loudly
//! with the usage text instead of printing nothing and exiting zero.
//! `compare`, which runs on the same cell plan, exits 1 on a failed cell.

use std::process::Command;

fn cwfmem() -> Command {
    Command::new(env!("CARGO_BIN_EXE_cwfmem"))
}

#[test]
fn figures_rejects_an_unknown_name() {
    let out = cwfmem().args(["figures", "typo"]).output().expect("run cwfmem");
    assert_eq!(out.status.code(), Some(2), "an unknown figure must exit 2");
    assert!(out.stdout.is_empty(), "nothing may be printed for an unknown figure");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown figure 'typo'"), "stderr: {stderr}");
    assert!(stderr.contains("|dramcache|all>"), "usage must list every figure: {stderr}");
}

#[test]
fn figures_rejects_a_flag_in_place_of_the_name() {
    let out = cwfmem().args(["figures", "--reads", "500"]).output().expect("run cwfmem");
    assert_eq!(out.status.code(), Some(2), "a missing figure name must exit 2");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown figure '--reads'"), "stderr: {stderr}");
}

#[test]
fn figures_prints_and_writes_a_known_figure() {
    let dir = std::env::temp_dir().join(format!("cwfmem-figures-{}", std::process::id()));
    let out = cwfmem().args(["figures", "fig2", "--csv"]).arg(&dir).output().expect("run cwfmem");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "stderr: {stderr}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("Figure 2"), "stdout: {stdout}");
    let csv = std::fs::read_to_string(dir.join("figure_2.csv")).expect("CSV written");
    assert!(csv.lines().count() > 1, "CSV has a header and rows: {csv}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn compare_names_each_failed_cell_and_exits_1() {
    let out = cwfmem()
        .args(["compare", "--bench", "no-such-bench", "--reads", "50"])
        .output()
        .expect("run");
    assert_eq!(out.status.code(), Some(1), "a failed cell must exit 1");
    let stderr = String::from_utf8_lossy(&out.stderr);
    let failed = stderr.lines().filter(|l| l.starts_with("FAILED no-such-bench/")).count();
    assert_eq!(failed, 9, "one line per organization: {stderr}");
    assert!(stderr.contains("9 cell(s) failed"), "stderr: {stderr}");
}
