//! Pure-observer proof for the trace subsystem.
//!
//! Turning tracing on must not move a single simulated cycle: the metrics
//! JSON (which covers cycles, per-core instruction counts, DRAM traffic,
//! the critical-word histogram, power and energy) must be byte-identical
//! with `cfg.trace` on and off, across memory organizations, kernels and
//! benchmarks. Any divergence means an instrumentation hook leaked into
//! simulated behaviour.

use cwfmem::sim::config::MemKind;
use cwfmem::sim::report::to_json;
use cwfmem::sim::{run_benchmark_outcome, Kernel, RunConfig, RunOutcome};

/// Run `bench` with tracing off and on (verify pinned off so only the
/// trace flag varies) and assert the metrics JSON is byte-identical.
fn assert_trace_is_pure(mem: MemKind, kernel: Kernel, bench: &str) {
    let base = RunConfig { kernel, verify: false, trace: false, ..RunConfig::quick(mem, 400) };
    let plain = run_benchmark_outcome(&base, bench, None).metrics;

    let traced_cfg = RunConfig { trace: true, ..base };
    let RunOutcome { metrics: traced, verify, trace, .. } =
        run_benchmark_outcome(&traced_cfg, bench, None);
    assert!(verify.is_none(), "verify pinned off");
    let t = trace.expect("cfg.trace = true must yield a trace report");

    assert_eq!(
        to_json(&plain),
        to_json(&traced),
        "{mem:?}/{kernel:?}/{bench}: tracing changed the metrics JSON"
    );
    // The trace itself must not be vacuous — a hook wired to a dead
    // branch would pass the byte-identity check trivially.
    assert!(!t.events.is_empty(), "{mem:?}/{kernel:?}/{bench}: no events traced");
    assert!(t.summary.reads > 0, "{mem:?}/{kernel:?}/{bench}: no reads decomposed");
}

#[test]
fn trace_is_pure_observer_ddr3() {
    for bench in ["mcf", "leslie3d", "gobmk"] {
        assert_trace_is_pure(MemKind::Ddr3, Kernel::Cycle, bench);
        assert_trace_is_pure(MemKind::Ddr3, Kernel::Event, bench);
    }
}

#[test]
fn trace_is_pure_observer_rl() {
    for bench in ["mcf", "leslie3d", "gobmk"] {
        assert_trace_is_pure(MemKind::Rl, Kernel::Cycle, bench);
        assert_trace_is_pure(MemKind::Rl, Kernel::Event, bench);
    }
}

#[test]
fn trace_is_pure_observer_lpddr2() {
    for bench in ["mcf", "leslie3d", "gobmk"] {
        assert_trace_is_pure(MemKind::Lpddr2, Kernel::Cycle, bench);
        assert_trace_is_pure(MemKind::Lpddr2, Kernel::Event, bench);
    }
}

#[test]
fn trace_coexists_with_verify_oracle() {
    // Tracing alongside the verify oracle: both observers share one
    // audit drain, and neither perturbs the metrics.
    let base = RunConfig { verify: true, trace: false, ..RunConfig::quick(MemKind::Rl, 400) };
    let plain = run_benchmark_outcome(&base, "mcf", None).metrics;

    let both = RunConfig { trace: true, ..base };
    let RunOutcome { metrics: traced, verify, trace, .. } =
        run_benchmark_outcome(&both, "mcf", None);
    let v = verify.expect("verify on");
    assert!(v.is_clean(), "oracle must stay clean under tracing: {v:?}");
    assert!(!trace.expect("trace on").events.is_empty());
    assert_eq!(to_json(&plain), to_json(&traced), "verify+trace changed metrics");
}
