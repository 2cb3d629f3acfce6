//! End-to-end verify-oracle tests: the clean-run matrix (the oracle is a
//! pure observer with zero findings on healthy configurations) and the
//! kernel-level seeded fault (an optimistic `next_activity` bound must be
//! caught as a skipped deadline).

use cwf_core::PagePlacedMemory;
use dram_timing::DeviceKind;
use sim_harness::config::{MemBackend, MemKind};
use sim_harness::experiments::profile_hot_pages;
use sim_harness::report::to_json;
use sim_harness::sweep::Variant;
use sim_harness::{run_benchmark_outcome, Cell, CellResult, Kernel, RunConfig, RunOutcome, System};

/// Three benches x six organizations (the legacy trio plus spec-layer
/// DDR5/LPDDR4 and a heterogeneous DDR5 CWF pairing): every run under the
/// oracle is violation-free, and the metrics — down to the serialized byte
/// — match the same run with verification off.
#[test]
fn clean_runs_are_violation_free_and_metric_identical() {
    for bench in ["stream", "mcf", "libquantum"] {
        for kind in [
            MemKind::Ddr3,
            MemKind::Rl,
            MemKind::Lpddr2,
            MemKind::Spec(DeviceKind::Ddr5),
            MemKind::Spec(DeviceKind::Lpddr4),
            MemKind::SpecCwf(DeviceKind::Rldram3, DeviceKind::Ddr5),
        ] {
            let mut on = RunConfig::quick(kind, 400);
            on.verify = true;
            let mut off = on;
            off.verify = false;

            let RunOutcome { metrics: m_on, kernel: k_on, verify: report, .. } =
                run_benchmark_outcome(&on, bench, None);
            let RunOutcome { metrics: m_off, kernel: k_off, .. } =
                run_benchmark_outcome(&off, bench, None);

            let report = report.expect("verify was enabled");
            assert!(report.is_clean(), "{bench}/{}: {:?}", kind.label(), report.violations);
            assert!(report.commands_checked > 0, "oracle saw no DRAM commands");
            assert!(report.events_checked > 0, "oracle saw no memory events");
            assert!(report.fills_completed > 0, "oracle retired no fills");
            assert_eq!(
                to_json(&m_on),
                to_json(&m_off),
                "{bench}/{}: oracle perturbed the simulation",
                kind.label()
            );
            assert_eq!(k_on, k_off, "{bench}/{}: kernel behaviour changed", kind.label());
        }
    }
}

/// The §7.1 page-placed comparator, built the way
/// `sweep::Variant::PagePlaced` builds it (a profiling pass, then the top
/// 7.6% of pages on RLDRAM3), is oracle-clean under both kernels, and the
/// oracle does not perturb it.
#[test]
fn page_placed_runs_are_violation_free_and_metric_identical() {
    for kernel in [Kernel::Cycle, Kernel::Event] {
        for bench in ["stream", "mcf", "libquantum"] {
            let profile = workloads::by_name(bench).expect("known bench");
            let mut off = RunConfig::quick(MemKind::Ddr3, 400);
            off.kernel = kernel;
            off.verify = false;
            let (_, hot) = profile_hot_pages(&off, profile);
            let placed = || MemBackend::PagePlaced(PagePlacedMemory::new(hot.clone()));
            let on = RunConfig { verify: true, ..off };

            let RunOutcome { metrics: m_on, kernel: k_on, verify: report, .. } =
                run_benchmark_outcome(&on, bench, Some(placed()));
            let RunOutcome { metrics: m_off, kernel: k_off, .. } =
                run_benchmark_outcome(&off, bench, Some(placed()));

            let report = report.expect("verify was enabled");
            let cell = format!("{bench}/page-placed/{}", kernel.name());
            assert!(report.is_clean(), "{cell}: {:?}", report.violations);
            assert!(report.commands_checked > 0, "{cell}: oracle saw no DRAM commands");
            assert!(report.fills_completed > 0, "{cell}: oracle retired no fills");
            assert_eq!(to_json(&m_on), to_json(&m_off), "{cell}: oracle perturbed the simulation");
            assert_eq!(k_on, k_off, "{cell}: kernel behaviour changed");
        }
    }
}

/// Fault (d): the event kernel trusts a `next_activity` bound larger than
/// the backend's true one, so memory events fire inside "skipped" quiet
/// periods. Only the skip monitor can see this — timestamps, tokens and
/// per-channel command streams all stay self-consistent.
#[test]
fn optimistic_wake_bound_is_caught_by_the_skip_monitor() {
    let mut cfg = RunConfig::quick(MemKind::Rl, 300);
    cfg.verify = true;
    cfg.kernel = Kernel::Event;
    let profile = workloads::by_name("mcf").expect("known bench");
    let mut sys = System::new(&cfg, profile);
    sys.inject_optimistic_wake(64);
    let _ = sys.run();

    let report = sys.verify_report().expect("verify was enabled");
    assert!(!report.is_clean(), "an over-reported quiet period must be detected");
    assert!(
        report.violations.iter().all(|v| v.rule == cwf_verify::OracleRule::SkipMissedDeadline),
        "only the skip monitor should fire: {:?}",
        report.violations
    );
}

/// The sweep verdict on the same fault: a cell whose oracle report is
/// unclean completes but counts as failed, exactly like a panicked one.
/// `cwfmem sweep`, the figure drivers and `cwfmem serve` all run their
/// cells through `Cell::run`, which catches with `CellResult::catch`, and
/// judge them by `failure`.
#[test]
fn sweep_counts_an_unclean_cell_as_failed() {
    let mut cfg = RunConfig::quick(MemKind::Rl, 300);
    cfg.verify = true;
    cfg.kernel = Kernel::Event;
    let cell = Cell::new("mcf", cfg, Variant::Preset);
    let run = |slack| {
        CellResult::catch(&cell, || {
            let profile = workloads::by_name(&cell.bench).expect("known bench");
            let mut sys = System::new(&cell.cfg, profile);
            sys.inject_optimistic_wake(slack);
            let m = sys.run();
            RunOutcome::collect(m, &sys)
        })
    };
    let faulty = run(64);
    assert!(matches!(faulty, CellResult::Done { .. }), "the faulty cell still completes");
    let failure = faulty.failure().expect("an unclean cell must count as failed");
    assert!(failure.starts_with("UNCLEAN mcf/RL: "), "{failure}");
    assert_eq!(run(0).failure(), None, "the sound cell must pass");
}

/// Fault (e): the kernel trusts core front-end activity bounds larger
/// than the cores' true ones, so batched spans run into cycles that
/// needed the instruction trace. Only the span audit can see this — the
/// memory side's timestamps and command streams stay self-consistent.
#[test]
fn optimistic_core_horizon_is_caught_by_the_span_audit() {
    let mut cfg = RunConfig::quick(MemKind::Rl, 300);
    cfg.verify = true;
    cfg.kernel = Kernel::Event;
    let profile = workloads::by_name("mcf").expect("known bench");
    let mut sys = System::new(&cfg, profile);
    sys.inject_optimistic_horizon(16);
    let _ = sys.run();

    let report = sys.verify_report().expect("verify was enabled");
    assert!(!report.is_clean(), "an over-reported core horizon must be detected");
    assert!(
        report.violations.iter().any(|v| v.rule == cwf_verify::OracleRule::SpanOverrun),
        "the span audit should fire: {:?}",
        report.violations
    );
}

/// The same system without the fault knobs is clean under the event kernel
/// — the skip monitor's and span audit's checks are exact, not merely
/// "skips/spans happened".
#[test]
fn sound_event_kernel_is_clean_under_the_skip_monitor() {
    let mut cfg = RunConfig::quick(MemKind::Rl, 300);
    cfg.verify = true;
    cfg.kernel = Kernel::Event;
    let profile = workloads::by_name("mcf").expect("known bench");
    let mut sys = System::new(&cfg, profile);
    let _ = sys.run();
    let report = sys.verify_report().expect("verify was enabled");
    assert!(report.is_clean(), "{:?}", report.violations);
    assert!(report.skips > 0, "the event kernel should actually skip");
    assert!(report.core_spans > 0, "the span audit should see batched spans");
    assert!(report.core_span_cycles > 0, "audited spans should cover cycles");
}
