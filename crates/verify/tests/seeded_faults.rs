//! Seeded-fault proofs: each injected bug must be caught by exactly the
//! checker designed for it.
//!
//! A silent oracle is worthless — these tests plant one specific fault per
//! run via the test-only knobs in the device/controller layers and assert
//! that (1) the oracle fires and (2) *only* the intended invariant fires,
//! so a fault cannot hide behind noise from an unrelated checker.

use cwf_verify::{Oracle, OracleRule};
use dram_timing::{DeviceConfig, Rule};
use mem_ctrl::audit::{AuditRecord, ChannelDesc};
use mem_ctrl::{AggregatedController, Controller, Loc, Token};

/// One controller's drained act log, as audit records for `channel`.
fn drain_records(ctrl: &mut Controller, channel: usize) -> Vec<AuditRecord> {
    let mut out = Vec::new();
    ctrl.drain_log(channel, |r| out.push(r));
    out
}

/// Fault (a): a device model whose tRCD is one cycle short. The live
/// controller schedules against the shaved value, so every ACT→READ pair
/// lands one cycle early — the shadow checker (built from the pristine
/// preset) must flag tRCD and nothing else.
#[test]
fn shaved_trcd_is_caught_by_the_protocol_checker() {
    let pristine = DeviceConfig::ddr3_1600();
    let mut ctrl = Controller::new(pristine.clone().with_shaved_trcd(), 2, 8, "ddr3-faulty");
    ctrl.enable_log(false);

    let mut token = 0u64;
    for now in 0..2000u64 {
        // A fresh row every time forces an ACT before each READ.
        if now % 100 == 0 && ctrl.read_space() {
            let loc = Loc { rank: (token % 2) as u8, bank: 0, row: token as u32, col: 0 };
            assert!(ctrl.enqueue_read(Token(token), loc, false, now));
            token += 1;
        }
        ctrl.tick_mem(now, true);
        ctrl.drain_completions();
    }

    let mut oracle = Oracle::new(vec![ChannelDesc {
        label: "ddr3-faulty".to_string(),
        cfg: pristine.clone(),
        ranks: 2,
        bus_group: None,
    }]);
    oracle.observe_records(&drain_records(&mut ctrl, 0));
    oracle.finalize(2000 * u64::from(pristine.cpu_cycles_per_mem_cycle));

    let report = oracle.report();
    assert!(!report.is_clean(), "a shaved tRCD must be detected");
    assert!(
        report.violations.iter().all(|v| v.rule == OracleRule::Protocol(Rule::TRcd)),
        "only the tRCD rule should fire: {:?}",
        report.violations
    );
}

/// Fault (b): the controller silently drops one scheduled refresh (the
/// deadline is re-armed without a REF ever issuing). Every per-command
/// timing stays legal, so only the refresh ledger can see it.
#[test]
fn dropped_refresh_is_caught_by_the_ledger() {
    let cfg = DeviceConfig::ddr3_1600();
    let t_refi = u64::from(cfg.timings.t_refi);
    let mut ctrl = Controller::new(cfg.clone(), 1, 8, "ddr3");
    ctrl.enable_log(false);
    ctrl.inject_drop_refresh(1);

    let end_mem = 4 * t_refi;
    for now in 0..end_mem {
        ctrl.tick_mem(now, true);
    }

    let mut oracle = Oracle::new(vec![ChannelDesc {
        label: "ddr3".to_string(),
        cfg: cfg.clone(),
        ranks: 1,
        bus_group: None,
    }]);
    oracle.observe_records(&drain_records(&mut ctrl, 0));
    oracle.finalize(end_mem * u64::from(cfg.cpu_cycles_per_mem_cycle));

    let report = oracle.report();
    assert!(!report.is_clean(), "a dropped refresh must be detected");
    assert!(
        report.violations.iter().all(|v| v.rule == OracleRule::RefreshMissed),
        "only the refresh ledger should fire: {:?}",
        report.violations
    );
}

/// Fault (b2): replay of the pre-fix self-refresh branch of
/// `tick_refresh` — the deadline silently resets to `now + tREFI` on an
/// *awake* rank, so the interval passes with neither a REF on the wire
/// nor a self-refresh power transition the ledger would credit. Every
/// command that does issue is individually legal; only the refresh
/// ledger can see the array went a full interval without maintenance.
#[test]
fn phantom_self_refresh_credit_is_caught_by_the_ledger() {
    let cfg = DeviceConfig::ddr3_1600();
    let t_refi = u64::from(cfg.timings.t_refi);
    let mut ctrl = Controller::new(cfg.clone(), 1, 8, "ddr3");
    ctrl.enable_log(false);
    ctrl.inject_phantom_self_refresh(1);

    let end_mem = 4 * t_refi;
    for now in 0..end_mem {
        ctrl.tick_mem(now, true);
    }

    let mut oracle = Oracle::new(vec![ChannelDesc {
        label: "ddr3".to_string(),
        cfg: cfg.clone(),
        ranks: 1,
        bus_group: None,
    }]);
    oracle.observe_records(&drain_records(&mut ctrl, 0));
    oracle.finalize(end_mem * u64::from(cfg.cpu_cycles_per_mem_cycle));

    let report = oracle.report();
    assert!(!report.is_clean(), "a phantom self-refresh credit must be detected");
    assert!(
        report.violations.iter().all(|v| v.rule == OracleRule::RefreshMissed),
        "only the refresh ledger should fire: {:?}",
        report.violations
    );
}

/// Control for fault (b): the identical run without the fault knob is
/// clean, so the ledger's slack is not just below normal scheduling noise.
#[test]
fn undropped_refresh_stream_is_clean() {
    let cfg = DeviceConfig::ddr3_1600();
    let t_refi = u64::from(cfg.timings.t_refi);
    let mut ctrl = Controller::new(cfg.clone(), 1, 8, "ddr3");
    ctrl.enable_log(false);

    let end_mem = 4 * t_refi;
    for now in 0..end_mem {
        ctrl.tick_mem(now, true);
    }

    let mut oracle = Oracle::new(vec![ChannelDesc {
        label: "ddr3".to_string(),
        cfg: cfg.clone(),
        ranks: 1,
        bus_group: None,
    }]);
    oracle.observe_records(&drain_records(&mut ctrl, 0));
    oracle.finalize(end_mem * u64::from(cfg.cpu_cycles_per_mem_cycle));
    let report = oracle.report();
    assert!(report.is_clean(), "{:?}", report.violations);
}

/// Run four RLDRAM3 sub-channels behind one shared-bus arbiter with every
/// sub-queue loaded, so at least two sub-channels want the command slot
/// in (almost) every cycle, and return the oracle's report.
fn shared_bus_report(double_book: bool) -> cwf_verify::VerifyReport {
    let cfg = DeviceConfig::rldram3();
    let mut subs: Vec<Controller> =
        (0..4).map(|i| Controller::new(cfg.clone(), 1, 1, &format!("rl-sub{i}"))).collect();
    for s in &mut subs {
        s.enable_log(false);
    }
    let mut agg = AggregatedController::new();
    if double_book {
        agg.inject_double_book_slot();
    }

    let mut token = 0u64;
    for now in 0..400u64 {
        for s in &mut subs {
            if s.read_space() {
                let loc =
                    Loc { rank: 0, bank: (token % 16) as u8, row: (token % 512) as u32, col: 0 };
                assert!(s.enqueue_read(Token(token), loc, false, now));
                token += 1;
            }
        }
        agg.tick_mem(&mut subs, now);
        for s in &mut subs {
            s.drain_completions();
        }
    }

    let channels: Vec<ChannelDesc> = subs
        .iter()
        .map(|s| ChannelDesc {
            label: s.label().to_owned(),
            cfg: cfg.clone(),
            ranks: 1,
            bus_group: Some(0),
        })
        .collect();
    let mut oracle = Oracle::new(channels);
    for (i, s) in subs.iter_mut().enumerate() {
        oracle.observe_records(&drain_records(s, i));
    }
    oracle.finalize(400 * u64::from(cfg.cpu_cycles_per_mem_cycle));
    oracle.report()
}

/// Fault (c): the aggregated RLDRAM3 controller grants its single shared
/// command slot twice in one device cycle. Each sub-channel's own command
/// stream stays perfectly legal, so only the cross-channel bus checker can
/// catch it.
#[test]
fn double_booked_cmd_slot_is_caught_by_the_bus_checker() {
    let report = shared_bus_report(true);
    assert!(!report.is_clean(), "a double-booked command slot must be detected");
    assert!(
        report.violations.iter().all(|v| v.rule == OracleRule::CmdSlotDoubleBooked),
        "only the shared-bus checker should fire: {:?}",
        report.violations
    );
}

/// Control for fault (c): the same workload under honest round-robin
/// arbitration is clean across every checker.
#[test]
fn honest_arbitration_is_clean() {
    let report = shared_bus_report(false);
    assert!(report.is_clean(), "{:?}", report.violations);
}
