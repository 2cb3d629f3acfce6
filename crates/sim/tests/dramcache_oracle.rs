//! DRAM-cache oracle tests: the clean-run matrix for the hybrid backend
//! (both kernels, byte-identical metric documents) and the seeded-fault
//! proofs for the three cache-consistency rules — each planted bug must be
//! caught by exactly the checker designed for it.

use cwf_core::{DramCacheConfig, DramCacheMemory};
use cwf_verify::{Oracle, OracleRule};
use dram_timing::DeviceKind;
use mem_ctrl::{LineRequest, MainMemory};
use sim_harness::config::MemKind;
use sim_harness::report::to_json;
use sim_harness::{run_benchmark_outcome, Kernel, RunConfig, RunOutcome};

/// Drive `mem` over `[from, to)` CPU cycles, feeding every drained event
/// and audit record to the oracle (the same plumbing `System` uses).
fn run_span(mem: &mut DramCacheMemory, oracle: &mut Oracle, from: u64, to: u64) {
    let mut ev = Vec::new();
    for now in from..to {
        mem.tick(now);
        ev.clear();
        mem.drain_events(now, &mut ev);
        for e in &ev {
            oracle.observe_event(e, now);
        }
    }
    mem.drain_audit(&mut |r| oracle.observe_record(r));
}

fn submit_read(mem: &mut DramCacheMemory, oracle: &mut Oracle, addr: u64, now: u64) {
    let tok = mem
        .try_submit(&LineRequest::demand_read(addr, 0, 0), now)
        .expect("queue space")
        .expect("reads get tokens");
    oracle.observe_submit(tok, now);
}

/// A tiny direct-mapped cache (2 sets x 1 way) makes conflict evictions
/// deterministic for the fault scenarios.
fn tiny() -> DramCacheMemory {
    DramCacheMemory::new(
        DramCacheConfig::pair(DeviceKind::Rldram3, DeviceKind::NvmSlow).with_geometry(2, 1),
    )
}

const SPAN: u64 = 20_000;

#[test]
fn healthy_dram_cache_is_oracle_clean() {
    let mut mem = tiny();
    mem.enable_audit();
    let mut oracle = Oracle::new(mem.audit_channels());
    // Miss + fill, hit, dirty write, conflict eviction with writeback.
    submit_read(&mut mem, &mut oracle, 0, 0);
    run_span(&mut mem, &mut oracle, 0, SPAN);
    submit_read(&mut mem, &mut oracle, 0, SPAN);
    run_span(&mut mem, &mut oracle, SPAN, 2 * SPAN);
    assert!(mem.try_submit(&LineRequest::writeback(0, 0, 0), 2 * SPAN).is_ok());
    run_span(&mut mem, &mut oracle, 2 * SPAN, 3 * SPAN);
    submit_read(&mut mem, &mut oracle, 2 * 64, 3 * SPAN);
    run_span(&mut mem, &mut oracle, 3 * SPAN, 4 * SPAN);
    assert_eq!(mem.dramcache_stats().writebacks, 1, "scenario must evict dirty data");

    oracle.finalize(4 * SPAN);
    let report = oracle.report();
    assert!(report.is_clean(), "{:?}", report.violations);
}

#[test]
fn fake_probe_hit_is_caught_by_the_tag_checker() {
    let mut mem = tiny();
    mem.enable_audit();
    let mut oracle = Oracle::new(mem.audit_channels());
    mem.inject_fake_hit();
    submit_read(&mut mem, &mut oracle, 0x8000, 0);
    run_span(&mut mem, &mut oracle, 0, SPAN);

    oracle.finalize(SPAN);
    let report = oracle.report();
    assert!(!report.is_clean(), "a fabricated tag hit must be detected");
    assert!(
        report.violations.iter().all(|v| v.rule == OracleRule::CacheTagMismatch),
        "only the tag checker should fire: {:?}",
        report.violations
    );
}

#[test]
fn double_fill_is_caught_by_the_fill_rule() {
    let mut mem = tiny();
    mem.enable_audit();
    let mut oracle = Oracle::new(mem.audit_channels());
    mem.inject_double_fill();
    submit_read(&mut mem, &mut oracle, 0x8000, 0);
    run_span(&mut mem, &mut oracle, 0, SPAN);

    oracle.finalize(SPAN);
    let report = oracle.report();
    assert!(!report.is_clean(), "a duplicated miss fill must be detected");
    assert!(
        report.violations.iter().all(|v| v.rule == OracleRule::CacheDoubleFill),
        "only the exactly-once-fill rule should fire: {:?}",
        report.violations
    );
}

#[test]
fn dropped_writeback_is_caught_by_the_eviction_rule() {
    let mut mem = tiny();
    mem.enable_audit();
    let mut oracle = Oracle::new(mem.audit_channels());
    // Fill line 0 and dirty it.
    submit_read(&mut mem, &mut oracle, 0, 0);
    run_span(&mut mem, &mut oracle, 0, SPAN);
    assert!(mem.try_submit(&LineRequest::writeback(0, 0, 0), SPAN).is_ok());
    run_span(&mut mem, &mut oracle, SPAN, 2 * SPAN);
    // Conflict-evict it with the writeback suppressed.
    mem.inject_drop_writeback();
    submit_read(&mut mem, &mut oracle, 2 * 64, 2 * SPAN);
    run_span(&mut mem, &mut oracle, 2 * SPAN, 3 * SPAN);

    oracle.finalize(3 * SPAN);
    let report = oracle.report();
    assert!(!report.is_clean(), "a dropped dirty writeback must be detected");
    assert!(
        report.violations.iter().all(|v| v.rule == OracleRule::CacheWritebackLost),
        "only the writeback-before-evict rule should fire: {:?}",
        report.violations
    );
}

/// Full-system matrix: the DRAM-cache backend runs oracle-clean under
/// both kernels, and the serialized metric documents agree byte for byte
/// between cycle and event — with and without the oracle watching.
#[test]
fn dramcache_full_system_is_clean_and_kernel_identical() {
    let kind = MemKind::DramCache(DeviceKind::Rldram3, DeviceKind::NvmSlow);
    for bench in ["stream", "mcf"] {
        let mut cycle_cfg = RunConfig::quick(kind, 300);
        cycle_cfg.kernel = Kernel::Cycle;
        cycle_cfg.verify = true;
        let mut event_cfg = cycle_cfg;
        event_cfg.kernel = Kernel::Event;

        let RunOutcome { metrics: mc, kernel: kc, verify: rc, .. } =
            run_benchmark_outcome(&cycle_cfg, bench, None);
        let RunOutcome { metrics: me, verify: re, .. } =
            run_benchmark_outcome(&event_cfg, bench, None);
        for (kernel, report) in [("cycle", rc), ("event", re)] {
            let report = report.expect("verify was enabled");
            assert!(report.is_clean(), "{bench}/{kernel}: {:?}", report.violations);
            assert!(report.commands_checked > 0);
            assert!(report.fills_completed > 0);
        }
        assert_eq!(
            to_json(&mc),
            to_json(&me),
            "{bench}: event kernel diverged from cycle kernel on the DRAM cache"
        );

        // The oracle is an observer: same bytes with verification off.
        let mut off = cycle_cfg;
        off.verify = false;
        let RunOutcome { metrics: m_off, kernel: k_off, .. } =
            run_benchmark_outcome(&off, bench, None);
        assert_eq!(to_json(&mc), to_json(&m_off), "{bench}: oracle perturbed the simulation");
        assert_eq!(kc, k_off, "{bench}: kernel behaviour changed under the oracle");
    }
}
