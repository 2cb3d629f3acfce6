//! Differential test: the event-driven kernel must be **bit-identical**
//! to the cycle-driven kernel.
//!
//! Cycle skipping is a pure scheduling optimisation — every skipped
//! `tick` call is provably a no-op — so the full [`RunMetrics`] document
//! (serialized through the deterministic `cwfmem.run.v1` writer, fixed
//! float formatting and all) must match byte for byte for every
//! (benchmark × memory organization) pair. Any drift, however small,
//! means a next-activity bound fired late and is a kernel bug, not noise.
//!
//! The test also enforces the point of the exercise: on at least one
//! memory-intensive profile the event kernel must make ≥ 3× fewer memory
//! tick calls than the cycle kernel (run with `--nocapture` to see the
//! per-cell ratios).

use cwfmem::sim::config::MemKind;
use cwfmem::sim::{report, run_benchmark_outcome, Kernel, RunConfig, RunOutcome};

const BENCHES: [&str; 3] = ["stream", "mcf", "libquantum"];
const KINDS: [MemKind; 3] = [MemKind::Ddr3, MemKind::Rl, MemKind::Lpddr2];

#[test]
fn event_kernel_is_bit_identical_and_skips_ticks() {
    let mut max_ratio = 0.0f64;
    let mut max_core_ratio = 0.0f64;
    for kind in KINDS {
        for bench in BENCHES {
            let mut cycle_cfg = RunConfig::quick(kind, 500);
            cycle_cfg.kernel = Kernel::Cycle;
            let mut event_cfg = cycle_cfg;
            event_cfg.kernel = Kernel::Event;

            let RunOutcome { metrics: mc, kernel: kc, .. } =
                run_benchmark_outcome(&cycle_cfg, bench, None);
            let RunOutcome { metrics: me, kernel: ke, .. } =
                run_benchmark_outcome(&event_cfg, bench, None);

            // The strongest equality we can state: the serialized metric
            // documents (which cover cycles, IPC, latency histograms,
            // residency-derived power, per-bank counters, ...) agree on
            // every byte.
            assert_eq!(
                report::to_json(&mc),
                report::to_json(&me),
                "{bench}/{kind:?}: event kernel diverged from cycle kernel"
            );

            // Same simulated time, fewer memory ticks.
            assert_eq!(kc.mem_tick_calls, kc.steps, "cycle kernel ticks memory every step");
            assert_eq!(
                kc.simulated_cycles(),
                ke.simulated_cycles(),
                "{bench}/{kind:?}: kernels simulated different spans"
            );
            assert!(
                ke.mem_tick_calls <= kc.mem_tick_calls,
                "{bench}/{kind:?}: event kernel ticked more than cycle kernel"
            );
            // Same accounting for the core front end: the cycle kernel
            // ticks every core every step; the event kernel covers the
            // same core-cycles with real ticks + batched spans, exactly.
            let cores = u64::from(cycle_cfg.cores);
            assert_eq!(kc.core_ticks, kc.steps * cores, "cycle kernel ticks every core");
            assert_eq!(kc.core_span_cycles(), 0, "cycle kernel never batches spans");
            assert_eq!(
                ke.core_ticks + ke.core_span_cycles(),
                ke.simulated_cycles() * cores,
                "{bench}/{kind:?}: event kernel lost or invented core-cycles"
            );
            assert!(
                ke.core_ticks <= kc.core_ticks,
                "{bench}/{kind:?}: event kernel ticked cores more than cycle kernel"
            );
            let ratio = ke.tick_ratio();
            println!(
                "{bench:<12} {kind:?}: {} cycles, {} -> {} mem ticks ({ratio:.1}x), \
                 {} -> {} core ticks ({:.1}x)",
                ke.simulated_cycles(),
                kc.mem_tick_calls,
                ke.mem_tick_calls,
                kc.core_ticks,
                ke.core_ticks,
                ke.core_tick_ratio(),
            );
            max_ratio = max_ratio.max(ratio);
            max_core_ratio = max_core_ratio.max(ke.core_tick_ratio());
        }
    }
    // The acceptance bar: at least one memory-intensive profile executes
    // >= 3x fewer memory tick calls under the event kernel. (LPDDR2's 8:1
    // clock-domain gating alone clears this; skipping adds more.)
    assert!(max_ratio >= 3.0, "best tick ratio only {max_ratio:.2}");
    // And the front-end refactor's bar: at least one profile covers >= 3x
    // its core-cycles with batched spans instead of per-cycle ticks.
    assert!(max_core_ratio >= 3.0, "best core tick ratio only {max_core_ratio:.2}");
}
