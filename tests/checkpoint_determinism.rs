//! Checkpoint determinism property: pausing a run at *any* cycle,
//! serializing the whole simulator to `cwfmem.ckpt.v1` bytes, and
//! resuming in a fresh process image must produce a byte-identical
//! `cwfmem.run.v1` document — across benchmarks, memory organizations,
//! both kernels, and arbitrary split points (including cycle 0 and
//! splits inside the warm-up window), with the verify oracle on.

use cwfmem::sim::config::MemKind;
use cwfmem::sim::{resume_benchmark, run_benchmark_ckpt, CkptOutcome, Kernel, RunConfig};
use proptest::prelude::*;

const BENCHES: [&str; 4] = ["mcf", "stream", "libquantum", "leslie3d"];
const KINDS: [MemKind; 4] = [MemKind::Rl, MemKind::Ddr3, MemKind::RlAdaptive, MemKind::Dl];

/// Render a finished outcome as its verified run document.
fn doc(outcome: CkptOutcome) -> String {
    match outcome {
        CkptOutcome::Finished(o) => {
            let v = o.verify.as_ref().expect("verify was enabled");
            assert!(v.is_clean(), "oracle must stay clean: {:?}", v.violations.first());
            o.to_json()
        }
        CkptOutcome::Paused { .. } => panic!("run did not finish"),
    }
}

/// ISSUE 10 regression: resuming a `--verify --trace` checkpoint keeps
/// both observers. The pre-fix code refused to checkpoint traced runs
/// outright, and `resume` offered no way to recover either report; now
/// the oracle's books and the trace ring ride the blob, and the resumed
/// run's combined verify/trace run document is byte-identical to the
/// unsplit run's.
#[test]
fn resume_with_verify_and_trace_matches_unsplit_run() {
    let mut cfg = RunConfig::quick(MemKind::Rl, 160);
    cfg.verify = true;
    cfg.trace = true;

    let whole = match run_benchmark_ckpt(&cfg, "mcf", u64::MAX).expect("whole run") {
        CkptOutcome::Finished(o) => {
            let v = o.verify.as_ref().expect("verify on");
            let t = o.trace.as_ref().expect("trace on");
            assert!(v.is_clean(), "oracle must stay clean: {:?}", v.violations.first());
            assert!(!t.events.is_empty(), "traced run collects events");
            o.to_json()
        }
        CkptOutcome::Paused { .. } => panic!("unbounded run must finish"),
    };
    let cycles: u64 = whole
        .lines()
        .find_map(|l| l.trim().strip_prefix("\"cycles\": ")?.trim_end_matches(',').parse().ok())
        .expect("cycles in document");

    for split_pct in [10, 50, 90] {
        let stop_at = cycles * split_pct / 100;
        let ckpt = match run_benchmark_ckpt(&cfg, "mcf", stop_at).expect("segmented run") {
            CkptOutcome::Paused { ckpt } => ckpt,
            CkptOutcome::Finished { .. } => panic!("split at {split_pct}% must pause"),
        };
        let o = resume_benchmark(&ckpt).expect("resume");
        let v = o.verify.as_ref().expect("verify survives the checkpoint");
        assert!(o.trace.is_some(), "trace survives the checkpoint");
        assert!(v.is_clean());
        let resumed = o.to_json();
        assert_eq!(whole, resumed, "split at {split_pct}% diverged");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]
    #[test]
    fn resume_is_byte_identical_at_any_split(
        bench_i in 0usize..BENCHES.len(),
        kind_i in 0usize..KINDS.len(),
        kernel_i in 0usize..2,
        split_pct in 0u64..=100,
    ) {
        let bench = BENCHES[bench_i];
        let mut cfg = RunConfig::quick(KINDS[kind_i], 160);
        cfg.verify = true;
        cfg.trace = false;
        cfg.kernel = if kernel_i == 1 { Kernel::Event } else { Kernel::Cycle };

        // Reference: the same run without a pause.
        let whole = doc(run_benchmark_ckpt(&cfg, bench, u64::MAX).expect("whole run"));
        let cycles: u64 = whole
            .lines()
            .find_map(|l| l.trim().strip_prefix("\"cycles\": ")?.trim_end_matches(',').parse().ok())
            .expect("cycles in document");
        let stop_at = cycles * split_pct / 100;

        match run_benchmark_ckpt(&cfg, bench, stop_at).expect("segmented run") {
            CkptOutcome::Paused { ckpt } => {
                let o = resume_benchmark(&ckpt).expect("resume");
                let v = o.verify.as_ref().expect("verify survives the checkpoint");
                prop_assert!(o.trace.is_none(), "tracing was off");
                prop_assert!(v.is_clean());
                let resumed = o.to_json();
                prop_assert_eq!(&whole, &resumed, "split at cycle {} diverged", stop_at);
            }
            // stop_at landed at or past the natural end: the segmented
            // run finished outright and must match the reference too.
            finished => prop_assert_eq!(&whole, &doc(finished)),
        }
    }
}
