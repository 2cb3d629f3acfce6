//! Regression: the verify oracle judges each channel's power changes and
//! commands in the order its controller acted.
//!
//! `ep` leaves ranks idle long enough to power down and self-refresh, so
//! wakes and refreshes land close together. When the oracle was fed a
//! channel's commands before its power changes, a refresh could be judged
//! against the deadline of a wake that had not been seen yet: these cells
//! reported 2–11 false refresh violations, a different number under each
//! kernel because the two kernels cut their drain batches at different
//! cycles. Fed in act order, both kernels must be clean and agree on
//! every verify count the run document carries (core spans aside: only
//! the event kernel batches them).

use cwfmem::sim::config::MemKind;
use cwfmem::sim::{run_benchmark_outcome, Kernel, RunConfig, VerifyReport};

fn verify(kind: MemKind, seed: u64, kernel: Kernel) -> VerifyReport {
    let cfg = RunConfig { seed, kernel, verify: true, ..RunConfig::paper(kind, 2000) };
    let mut report = run_benchmark_outcome(&cfg, "ep", None).verify.expect("verify is on");
    assert!(report.is_clean(), "{kind:?} seed {seed} {kernel:?}: {:?}", report.violations);
    // Only the event kernel skips cycles and batches core spans; the run
    // document's verify object carries the spans but not the skips.
    report.skips = 0;
    report.cycles_skipped = 0;
    report.core_spans = 0;
    report.core_span_cycles = 0;
    report
}

#[test]
fn power_managed_cells_are_clean_under_both_kernels() {
    for kind in ["lpddr4_3200", "rl-ad"] {
        let kind = MemKind::parse(kind).expect("known kind");
        for seed in 1..=3 {
            let event = verify(kind, seed, Kernel::Event);
            let cycle = verify(kind, seed, Kernel::Cycle);
            assert!(event.commands_checked > 0, "{kind:?} seed {seed}: nothing checked");
            assert_eq!(format!("{event:?}"), format!("{cycle:?}"), "{kind:?} seed {seed}");
        }
    }
}
