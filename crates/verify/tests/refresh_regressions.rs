//! Refresh-cadence regression pins for the controller's deadline
//! re-arming and power-management wake-ahead.
//!
//! Two bugs motivated these tests:
//!
//! 1. **Cadence drift** — re-arming a refresh deadline from the *issue*
//!    cycle (`now + tREFI`) instead of the *stored* deadline
//!    (`deadline + tREFI`) lets every cycle of issue slip compound
//!    forever, so an idle rank performs fewer than N refreshes in
//!    N·tREFI.
//! 2. **Wake-ahead boundary** — a powered-down rank must be woken exactly
//!    `tXP` before its deadline (plus precharge lead when banks are
//!    open); an off-by-one in the lead makes every refresh land one
//!    cycle late, which a drifting re-arm then silently absorbs.
//!
//! Both are pinned against the verify ledger: the oracle must stay clean.

use cwf_verify::Oracle;
use dram_timing::{Command, DeviceConfig, PowerState};
use mem_ctrl::audit::{Act, AuditRecord, ChannelDesc};
use mem_ctrl::Controller;

/// One controller's drained act log, as audit records for `channel`.
fn drain_records(ctrl: &mut Controller, channel: usize) -> Vec<AuditRecord> {
    let mut out = Vec::new();
    ctrl.drain_log(channel, |r| out.push(r));
    out
}

fn oracle_is_clean(cfg: &DeviceConfig, records: &[AuditRecord], end_mem: u64) -> bool {
    let mut oracle = Oracle::new(vec![ChannelDesc {
        label: "ch".to_string(),
        cfg: cfg.clone(),
        ranks: 1,
        bus_group: None,
    }]);
    oracle.observe_records(records);
    oracle.finalize(end_mem * u64::from(cfg.cpu_cycles_per_mem_cycle));
    oracle.report().is_clean()
}

/// Refresh-command issue times out of a drained record set.
fn refresh_times(records: &[AuditRecord]) -> Vec<u64> {
    records
        .iter()
        .filter_map(|r| match r {
            AuditRecord::Act { at_mem, act: Act::RefreshCmd(Command::Refresh { .. }), .. } => {
                Some(*at_mem)
            }
            _ => None,
        })
        .collect()
}

/// N refreshes must land in N·tREFI, each exactly on its deadline: the
/// re-arm is `deadline + tREFI`, never `issue_cycle + tREFI`, so issue
/// slip (power-down exit, command-slot contention) cannot drift the
/// cadence. With the pre-fix drifting re-arm this test fails on the
/// per-refresh timestamps long before the count drops.
#[test]
fn idle_rank_performs_n_refreshes_in_n_trefi_without_drift() {
    let cfg = DeviceConfig::ddr3_1600();
    let t_refi = u64::from(cfg.timings.t_refi);
    let mut ctrl = Controller::new(cfg.clone(), 1, 8, "ddr3");
    ctrl.enable_log(false);

    const N: u64 = 10;
    let end_mem = (N + 1) * t_refi;
    for now in 0..end_mem {
        ctrl.tick_mem(now, true);
    }

    let records = drain_records(&mut ctrl, 0);
    let expect: Vec<u64> = (1..=N).map(|k| k * t_refi).collect();
    assert_eq!(refresh_times(&records), expect, "each refresh must issue exactly on its deadline");
    // Zero refresh debt at the end of the window.
    assert!(oracle_is_clean(&cfg, &records, end_mem), "ledger must report zero refresh debt");
}

/// Boundary pin for the derived wake-ahead `tXP + (open > 0 ? tRP +
/// open - 1 : 0)`: with no open banks, a powered-down rank must wake
/// exactly `tXP` cycles before its deadline — one cycle later and every
/// refresh misses its deadline by exactly the boundary cycle.
#[test]
fn powered_down_rank_wakes_exactly_txp_before_its_refresh_deadline() {
    let mut cfg = DeviceConfig::lpddr2_800();
    // Keep the rank in power-down: self-refresh escalation would suspend
    // the external cadence this test pins.
    cfg.self_refresh_idle_cycles = 0;
    let t_refi = u64::from(cfg.timings.t_refi);
    let t_xp = u64::from(cfg.timings.t_xp);
    assert!(t_xp > 0, "boundary is only meaningful with a real exit latency");

    let mut ctrl = Controller::new(cfg.clone(), 1, 8, "lp");
    ctrl.enable_log(false);
    const N: u64 = 4;
    let end_mem = (N + 1) * t_refi;
    for now in 0..end_mem {
        ctrl.tick_mem(now, true);
    }

    let records = drain_records(&mut ctrl, 0);
    let expect: Vec<u64> = (1..=N).map(|k| k * t_refi).collect();
    assert_eq!(
        refresh_times(&records),
        expect,
        "no refresh may miss its deadline by the boundary cycle"
    );
    assert!(oracle_is_clean(&cfg, &records, end_mem), "ledger must stay clean at the boundary");

    let power: Vec<(u64, u8, PowerState)> = records
        .iter()
        .filter_map(|r| match *r {
            AuditRecord::Act { at_mem, act: Act::Power { rank, state }, .. } => {
                Some((at_mem, rank, state))
            }
            _ => None,
        })
        .collect();
    assert!(
        power.iter().any(|&(at, _, st)| st == PowerState::PowerDown && at < t_refi - t_xp),
        "the rank must actually power down before the first deadline: {power:?}"
    );
    for &d in &expect {
        assert!(
            power.iter().any(|&(at, _, st)| st == PowerState::Up && at == d - t_xp),
            "rank must wake exactly tXP={t_xp} before the deadline at {d}: {power:?}"
        );
    }
}
