//! Behavioural tests of the controller: per-bank refresh on RLDRAM3,
//! FCFS vs FR-FCFS ordering, and aggregated-channel write handling.

use dram_timing::DeviceConfig;
use mem_ctrl::{AggregatedController, Controller, CtrlParams, Loc, SchedPolicy, Token};

#[test]
fn rldram_per_bank_refresh_rotates_over_banks() {
    let mut c = Controller::new(DeviceConfig::rldram3(), 1, 1, "rld");
    c.enable_command_log();
    // Several refresh intervals with no traffic.
    for now in 0..40_000u64 {
        c.tick_mem(now, true);
    }
    let refreshed: Vec<u8> = c
        .take_command_log()
        .into_iter()
        .filter_map(|(_, cmd)| match cmd {
            dram_timing::Command::RefreshBank { bank, .. } => Some(bank),
            _ => None,
        })
        .collect();
    assert!(refreshed.len() >= 10, "got {} refreshes", refreshed.len());
    // Round-robin rotation.
    for (i, b) in refreshed.iter().enumerate() {
        assert_eq!(u32::from(*b), (i as u32) % 16, "refresh {i}");
    }
}

#[test]
fn fcfs_preserves_arrival_order_where_frfcfs_reorders() {
    let run = |policy: SchedPolicy| -> Vec<u64> {
        let params = CtrlParams { policy, ..CtrlParams::default() };
        let mut c = Controller::with_params(DeviceConfig::ddr3_1600(), 1, 9, "t", params);
        // Token 0: row 10; token 1: conflicting row 99; token 2: row 10
        // again (a row hit FR-FCFS will hoist above token 1).
        c.enqueue_read(Token(0), Loc { rank: 0, bank: 0, row: 10, col: 0 }, false, 0);
        c.enqueue_read(Token(1), Loc { rank: 0, bank: 0, row: 99, col: 0 }, false, 0);
        c.enqueue_read(Token(2), Loc { rank: 0, bank: 0, row: 10, col: 4 }, false, 0);
        let mut order = Vec::new();
        for now in 0..600 {
            c.tick_mem(now, true);
            order.extend(c.drain_completions().map(|d| d.token.0));
        }
        order
    };
    assert_eq!(run(SchedPolicy::FrFcfs), vec![0, 2, 1], "row hit jumps ahead");
    assert_eq!(run(SchedPolicy::Fcfs), vec![0, 1, 2], "strict order");
}

#[test]
fn fcfs_is_slower_than_frfcfs_on_conflicting_streams() {
    let finish = |policy: SchedPolicy| -> u64 {
        let params = CtrlParams { policy, ..CtrlParams::default() };
        let mut c = Controller::with_params(DeviceConfig::ddr3_1600(), 1, 9, "t", params);
        // Interleaved rows: FCFS ping-pongs between rows; FR-FCFS batches.
        for i in 0..24u64 {
            let row = if i % 2 == 0 { 7 } else { 900 };
            c.enqueue_read(Token(i), Loc { rank: 0, bank: 0, row, col: i as u32 }, false, 0);
        }
        let mut done = 0;
        for now in 0..100_000u64 {
            c.tick_mem(now, true);
            done += c.drain_completions().len();
            if done == 24 {
                return now;
            }
        }
        panic!("did not finish");
    };
    let frfcfs = finish(SchedPolicy::FrFcfs);
    let fcfs = finish(SchedPolicy::Fcfs);
    assert!(
        frfcfs * 3 < fcfs * 2,
        "FR-FCFS ({frfcfs}) should be at least 1.5x faster than FCFS ({fcfs})"
    );
}

#[test]
fn aggregated_channel_drains_writes() {
    let mut subs: Vec<Controller> = (0..4)
        .map(|i| Controller::new(DeviceConfig::rldram3(), 1, 1, &format!("rld-sub{i}")))
        .collect();
    let mut agg = AggregatedController::new();
    for s in &mut subs {
        for i in 0..40u32 {
            assert!(s.enqueue_write(Loc { rank: 0, bank: (i % 16) as u8, row: i, col: 0 }, 0));
        }
    }
    for now in 0..20_000u64 {
        agg.tick_mem(&mut subs, now);
    }
    let total: u64 = subs.iter_mut().map(|s| s.stats(20_000).writes_done).sum();
    assert_eq!(total, 160, "all writes drained through the shared bus");
}

#[test]
fn command_log_roundtrips_when_disabled() {
    let mut c = Controller::new(DeviceConfig::ddr3_1600(), 1, 9, "t");
    c.enqueue_read(Token(0), Loc { rank: 0, bank: 0, row: 1, col: 0 }, false, 0);
    for now in 0..100 {
        c.tick_mem(now, true);
    }
    // Logging never enabled: empty log, no panic.
    assert!(c.take_command_log().is_empty());
}
