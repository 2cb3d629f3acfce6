//! CLI regression: a bad knob is rejected, never guessed. Each malformed,
//! out-of-range or misspelled flag must exit 2 with a message naming the
//! flag, before any simulation runs.

use std::process::Command;

fn cwfmem() -> Command {
    Command::new(env!("CARGO_BIN_EXE_cwfmem"))
}

#[test]
fn bad_knobs_exit_2_naming_the_flag() {
    let run = |rest: &[&str]| -> Vec<String> {
        let mut v = vec!["run", "--mem", "rl", "--bench", "mcf"];
        v.extend_from_slice(rest);
        v.into_iter().map(str::to_owned).collect()
    };
    let cases: [(Vec<String>, &str); 12] = [
        (run(&["--reads", "abc"]), "--reads"),
        (run(&["--reads", "0"]), "--reads"),
        (run(&["--cores", "0"]), "--cores"),
        (run(&["--cores", "9"]), "--cores"),
        (run(&["--parity-rate", "2"]), "--parity-rate"),
        (run(&["--parity-rate", "-0.1"]), "--parity-rate"),
        (run(&["--parity-rate", "NaN"]), "--parity-rate"),
        (run(&["--parity-rate", "inf"]), "--parity-rate"),
        (run(&["--seed", "xyz"]), "--seed"),
        (run(&["--raeds", "300"]), "--raeds"),
        (run(&["--no-trace"]), "--no-trace"),
        (
            ["sweep", "--benches", "mcf", "--kinds", "rl", "--verify", "--reads", "abc"]
                .map(str::to_owned)
                .to_vec(),
            "--reads",
        ),
    ];
    for (args, flag) in cases {
        let out = cwfmem().args(&args).output().expect("run cwfmem");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?} must exit 2; stderr: {stderr}");
        let first = stderr.lines().next().unwrap_or_default();
        assert!(first.contains(flag), "{args:?}: first stderr line must name {flag}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} printed results: {stderr}");
    }
}

#[test]
fn sweep_accepts_the_verify_pair() {
    for flag in ["--verify", "--no-verify"] {
        let out = cwfmem()
            .args(["sweep", "--benches", "libquantum", "--kinds", "ddr3", "--reads", "120", flag])
            .output()
            .expect("run cwfmem");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "sweep {flag} must run clean; stderr: {stderr}");
    }
}
