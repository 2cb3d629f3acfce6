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
//! The matrix covers every way a channel set groups its controllers:
//! one plain domain (DDR3, RLDRAM3, LPDDR2, DDR5), a shared-bus
//! arbitrated domain beside a plain one (RL, RLDRAM3+DDR5), two plain
//! domains (the DRAM cache, page placement) and a private-bus arbitrated
//! domain. The cycle kernel ticks every controller every device cycle;
//! the event kernel ticks only the controllers whose wake bound is due.
//!
//! The test also enforces the point of the exercise: on at least one
//! memory-intensive profile the event kernel must make ≥ 3× fewer memory
//! tick calls than the cycle kernel, and on every `stream`/`mcf` cell it
//! must run strictly fewer controller ticks (run with `--nocapture` to
//! see the per-cell counts).
//!
//! [`RunMetrics`]: cwfmem::sim::RunMetrics

use cwfmem::cwf::{CwfConfig, HeteroCwfMemory, PagePlacedMemory};
use cwfmem::dram::DeviceKind;
use cwfmem::memctrl::{CtrlTicks, Organization};
use cwfmem::sim::config::{MemBackend, MemKind};
use cwfmem::sim::experiments::profile_hot_pages;
use cwfmem::sim::{report, Kernel, RunConfig, RunOutcome, System};
use cwfmem::workloads::by_name;

const BENCHES: [&str; 5] = ["stream", "mcf", "libquantum", "ep", "dcthrash"];
const KINDS: [MemKind; 7] = [
    MemKind::Ddr3,
    MemKind::Rl,
    MemKind::Lpddr2,
    MemKind::Rldram3,
    MemKind::Spec(DeviceKind::Ddr5),
    MemKind::SpecCwf(DeviceKind::Rldram3, DeviceKind::Ddr5),
    MemKind::DramCache(DeviceKind::Rldram3, DeviceKind::NvmSlow),
];

/// One run, as `run_benchmark_outcome` does it, plus the channel set's
/// controller tick counts (which no run document carries).
fn run(cfg: &RunConfig, bench: &str, backend: Option<MemBackend>) -> (RunOutcome, CtrlTicks) {
    let profile = by_name(bench).expect("known benchmark");
    let mut sys = match backend {
        Some(backend) => System::with_backend(cfg, profile, backend),
        None => System::new(cfg, profile),
    };
    let metrics = sys.run();
    let ticks = sys.hierarchy().memory().channels().ctrl_ticks();
    (RunOutcome::collect(metrics, &sys), ticks)
}

/// Per-cell ratios the matrix-wide bars are taken over.
struct Ratios {
    mem: f64,
    core: f64,
}

/// Run `bench` under both kernels, assert they agree byte for byte and
/// that the event kernel does no more work, and print the counts.
fn compare(
    label: &str,
    kind: MemKind,
    bench: &str,
    backend: impl Fn() -> Option<MemBackend>,
) -> Ratios {
    let mut cycle_cfg = RunConfig::quick(kind, 500);
    cycle_cfg.kernel = Kernel::Cycle;
    let mut event_cfg = cycle_cfg;
    event_cfg.kernel = Kernel::Event;

    let (RunOutcome { metrics: mc, kernel: kc, .. }, tc) = run(&cycle_cfg, bench, backend());
    let (RunOutcome { metrics: me, kernel: ke, .. }, te) = run(&event_cfg, bench, backend());

    // The strongest equality we can state: the serialized metric
    // documents (which cover cycles, IPC, latency histograms,
    // residency-derived power, per-bank counters, ...) agree on every
    // byte.
    assert_eq!(
        report::to_json(&mc),
        report::to_json(&me),
        "{bench}/{label}: event kernel diverged from cycle kernel"
    );

    // Same simulated time, fewer memory ticks.
    assert_eq!(kc.mem_tick_calls, kc.steps, "cycle kernel ticks memory every step");
    assert_eq!(
        kc.simulated_cycles(),
        ke.simulated_cycles(),
        "{bench}/{label}: kernels simulated different spans"
    );
    assert!(
        ke.mem_tick_calls <= kc.mem_tick_calls,
        "{bench}/{label}: event kernel ticked more than cycle kernel"
    );
    // Same accounting for the core front end: the cycle kernel ticks
    // every core every step; the event kernel covers the same core-cycles
    // with real ticks + batched spans, exactly.
    let cores = u64::from(cycle_cfg.cores);
    assert_eq!(kc.core_ticks, kc.steps * cores, "cycle kernel ticks every core");
    assert_eq!(kc.core_span_cycles(), 0, "cycle kernel never batches spans");
    assert_eq!(
        ke.core_ticks + ke.core_span_cycles(),
        ke.simulated_cycles() * cores,
        "{bench}/{label}: event kernel lost or invented core-cycles"
    );
    assert!(
        ke.core_ticks <= kc.core_ticks,
        "{bench}/{label}: event kernel ticked cores more than cycle kernel"
    );
    // The cycle kernel never asks for wake bounds, so it ticks every
    // controller of every due domain; the event kernel ticks only the due
    // controllers, never more.
    assert_eq!(tc.skipped, 0, "{bench}/{label}: cycle kernel skipped a controller tick");
    assert!(
        te.run <= tc.run,
        "{bench}/{label}: event kernel ran more controller ticks than cycle kernel"
    );
    if matches!(bench, "stream" | "mcf") {
        assert!(
            te.run < tc.run,
            "{bench}/{label}: event kernel skipped no controller tick ({} run)",
            te.run
        );
    }
    let ratios = Ratios { mem: ke.tick_ratio(), core: ke.core_tick_ratio() };
    let skip_share = te.skipped as f64 / (te.run + te.skipped).max(1) as f64;
    println!(
        "{bench:<12} {label}: {} cycles, {} -> {} mem ticks ({:.1}x), \
         {} -> {} core ticks ({:.1}x), {} -> {} ctrl ticks ({} skipped, {:.1}%)",
        ke.simulated_cycles(),
        kc.mem_tick_calls,
        ke.mem_tick_calls,
        ratios.mem,
        kc.core_ticks,
        ke.core_ticks,
        ratios.core,
        tc.run,
        te.run,
        te.skipped,
        100.0 * skip_share,
    );
    ratios
}

#[test]
fn event_kernel_is_bit_identical_and_skips_ticks() {
    let mut max_ratio = 0.0f64;
    let mut max_core_ratio = 0.0f64;
    let mut note = |r: Ratios| {
        max_ratio = max_ratio.max(r.mem);
        max_core_ratio = max_core_ratio.max(r.core);
    };
    for kind in KINDS {
        for bench in BENCHES {
            note(compare(&format!("{kind:?}"), kind, bench, || None));
        }
    }
    // Pre-built backends no `MemKind` names: §7.1 page placement (two
    // plain domains) and the private-bus fast side (an arbitrated domain
    // without a shared command slot).
    for bench in ["stream", "mcf"] {
        let profile = by_name(bench).expect("known benchmark");
        let (_, hot) = profile_hot_pages(&RunConfig::quick(MemKind::Ddr3, 250), profile);
        note(compare("PagePlaced", MemKind::Ddr3, bench, || {
            Some(MemBackend::PagePlaced(PagePlacedMemory::new(hot.clone())))
        }));
        note(compare("RlPrivateBuses", MemKind::Rl, bench, || {
            Some(MemBackend::Cwf(HeteroCwfMemory::new(CwfConfig::rl().with_private_fast_buses())))
        }));
    }
    // The acceptance bar: at least one memory-intensive profile executes
    // >= 3x fewer memory tick calls under the event kernel. (LPDDR2's 8:1
    // clock-domain gating alone clears this; skipping adds more.)
    assert!(max_ratio >= 3.0, "best tick ratio only {max_ratio:.2}");
    // And the front-end refactor's bar: at least one profile covers >= 3x
    // its core-cycles with batched spans instead of per-cycle ticks.
    assert!(max_core_ratio >= 3.0, "best core tick ratio only {max_core_ratio:.2}");
}
