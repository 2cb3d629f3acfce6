//! Differential protocol audit: drive the FR-FCFS controller with random
//! workloads and validate every DRAM command it emits against the
//! independent shadow-state [`ProtocolChecker`].
//!
//! The scheduler answers "is this command legal *now*?" from incremental
//! earliest-time registers; the checker re-derives legality from the raw
//! command history. Any disagreement is a timing bug in one of them.

use dram_timing::{Command, DeviceConfig, ProtocolChecker};
use mem_ctrl::{Act, AggregatedController, AuditRecord, Controller, CtrlParams, Loc, Token};
use proptest::prelude::*;

/// Small queues with low watermarks: the controller crosses the
/// drain-mode entry/exit thresholds (and the near-overflow "urgent"
/// regime) constantly instead of almost never, exercising the write-drain
/// scheduling paths the paper-sized queues (48/32/16) rarely reach.
fn tight_watermarks() -> CtrlParams {
    CtrlParams {
        read_q_capacity: 8,
        write_q_capacity: 8,
        wq_high: 4,
        wq_low: 2,
        ..CtrlParams::default()
    }
}

#[derive(Debug, Clone, Copy)]
struct WorkItem {
    bank: u8,
    row: u32,
    col: u32,
    write: bool,
    prefetch: bool,
    gap: u8,
}

fn item(banks: u8, rows: u32) -> impl Strategy<Value = WorkItem> {
    (0..banks, 0..rows, 0u32..128, prop::bool::ANY, prop::bool::ANY, 0u8..24).prop_map(
        |(bank, row, col, write, prefetch, gap)| WorkItem { bank, row, col, write, prefetch, gap },
    )
}

/// The `(cycle, command)` pairs of `ctrl`'s drained act log.
fn commands(ctrl: &mut Controller) -> Vec<(u64, Command)> {
    let mut out = Vec::new();
    ctrl.drain_log(0, |r| {
        if let AuditRecord::Act {
            at_mem, act: Act::Cmd { cmd, .. } | Act::RefreshCmd(cmd), ..
        } = r
        {
            out.push((at_mem, cmd));
        }
    });
    out
}

/// Run `items` through a controller with command logging on; return the
/// audited command count.
fn audit(cfg: DeviceConfig, params: CtrlParams, items: &[WorkItem]) -> (u64, Vec<String>) {
    let mut ctrl = Controller::with_params(cfg.clone(), 1, 9, "audit", params);
    ctrl.enable_log(false);
    let mut checker = ProtocolChecker::new(cfg, 1);
    let mut now = 0u64;
    let mut tok = 0u64;
    for it in items {
        for _ in 0..it.gap {
            ctrl.tick_mem(now, true);
            now += 1;
        }
        let loc = Loc { rank: 0, bank: it.bank, row: it.row, col: it.col };
        if it.write {
            let _ = ctrl.enqueue_write(loc, now);
        } else if ctrl.enqueue_read(Token(tok), loc, it.prefetch, now) {
            tok += 1;
        }
    }
    // Drain: long enough to cross several refresh intervals.
    for _ in 0..30_000 {
        ctrl.tick_mem(now, true);
        now += 1;
    }
    for (at, cmd) in commands(&mut ctrl) {
        checker.observe(&cmd, at);
    }
    let violations = checker.violations().iter().map(ToString::to_string).collect();
    (checker.commands_checked(), violations)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn ddr3_controller_emits_only_legal_commands(
        items in prop::collection::vec(item(8, 64), 1..80)
    ) {
        let (checked, violations) = audit(DeviceConfig::ddr3_1600(), CtrlParams::default(), &items);
        prop_assert!(checked > 0, "controller made progress");
        prop_assert!(violations.is_empty(), "violations: {violations:?}");
    }

    #[test]
    fn lpddr2_controller_emits_only_legal_commands(
        items in prop::collection::vec(item(8, 64), 1..80)
    ) {
        let (checked, violations) = audit(DeviceConfig::lpddr2_800(), CtrlParams::default(), &items);
        prop_assert!(checked > 0);
        prop_assert!(violations.is_empty(), "violations: {violations:?}");
    }

    #[test]
    fn rldram_controller_emits_only_legal_commands(
        items in prop::collection::vec(item(16, 64), 1..80)
    ) {
        let (checked, violations) = audit(DeviceConfig::rldram3(), CtrlParams::default(), &items);
        prop_assert!(checked > 0);
        prop_assert!(violations.is_empty(), "violations: {violations:?}");
    }

    /// The second write-drain regime: tiny queues with watermarks 4/2, so
    /// drain mode (and the urgent near-overflow path) is entered on nearly
    /// every burst of writes. Commands must stay legal under both regimes.
    #[test]
    fn ddr3_controller_is_legal_under_tight_watermarks(
        items in prop::collection::vec(item(8, 64), 1..80)
    ) {
        let (checked, violations) = audit(DeviceConfig::ddr3_1600(), tight_watermarks(), &items);
        prop_assert!(checked > 0);
        prop_assert!(violations.is_empty(), "violations: {violations:?}");
    }

    #[test]
    fn rldram_controller_is_legal_under_tight_watermarks(
        items in prop::collection::vec(item(16, 64), 1..80)
    ) {
        let (checked, violations) = audit(DeviceConfig::rldram3(), tight_watermarks(), &items);
        prop_assert!(checked > 0);
        prop_assert!(violations.is_empty(), "violations: {violations:?}");
    }

    /// §4.2.4 aggregated sub-ranked RLDRAM3: every sub-channel's command
    /// stream must be protocol-legal on its own, and the shared
    /// address/command bus must carry at most one command per device cycle
    /// across all four sub-channels.
    #[test]
    fn aggregated_rldram3_is_legal_and_never_double_books_the_bus(
        items in prop::collection::vec(item(16, 64), 1..80)
    ) {
        let cfg = DeviceConfig::rldram3();
        let n_subs = 4usize;
        let mut subs: Vec<Controller> = (0..n_subs)
            .map(|i| Controller::new(cfg.clone(), 1, 1, &format!("agg-audit-sub{i}")))
            .collect();
        for s in &mut subs {
            s.enable_log(false);
        }
        let mut agg = AggregatedController::new();
        let mut now = 0u64;
        let mut tok = 0u64;
        for it in &items {
            for _ in 0..it.gap {
                agg.tick_mem(&mut subs, now);
                now += 1;
            }
            let sub = &mut subs[usize::from(it.bank) % n_subs];
            let loc = Loc { rank: 0, bank: it.bank, row: it.row, col: it.col };
            if it.write {
                let _ = sub.enqueue_write(loc, now);
            } else if sub.enqueue_read(Token(tok), loc, it.prefetch, now) {
                tok += 1;
            }
        }
        for _ in 0..30_000 {
            agg.tick_mem(&mut subs, now);
            now += 1;
        }
        let logs: Vec<_> = subs.iter_mut().map(commands).collect();
        let mut slot_owner: std::collections::HashMap<u64, usize> = std::collections::HashMap::new();
        let mut checked = 0u64;
        for (sub, log) in logs.into_iter().enumerate() {
            let mut checker = ProtocolChecker::new(cfg.clone(), 1);
            for (at, cmd) in log {
                checker.observe(&cmd, at);
                if let Some(prev) = slot_owner.insert(at, sub) {
                    prop_assert!(
                        prev == sub,
                        "cycle {at}: sub-channels {prev} and {sub} both drove the shared bus"
                    );
                }
            }
            checked += checker.commands_checked();
            let violations: Vec<String> =
                checker.violations().iter().map(ToString::to_string).collect();
            prop_assert!(violations.is_empty(), "sub {sub}: {violations:?}");
        }
        prop_assert!(checked > 0, "aggregated controller made progress");
    }

    #[test]
    fn every_accepted_read_completes_exactly_once(
        items in prop::collection::vec(item(8, 32), 1..60)
    ) {
        let mut ctrl = Controller::new(DeviceConfig::ddr3_1600(), 1, 9, "c");
        let mut now = 0u64;
        let mut accepted = Vec::new();
        let mut tok = 0u64;
        for it in items {
            for _ in 0..it.gap {
                ctrl.tick_mem(now, true);
                now += 1;
            }
            let loc = Loc { rank: 0, bank: it.bank, row: it.row, col: it.col };
            if !it.write && ctrl.enqueue_read(Token(tok), loc, it.prefetch, now) {
                accepted.push(Token(tok));
                tok += 1;
            }
        }
        let mut done = Vec::new();
        for _ in 0..60_000 {
            ctrl.tick_mem(now, true);
            done.extend(ctrl.drain_completions());
            now += 1;
        }
        let mut done_tokens: Vec<u64> = done.iter().map(|c| c.token.0).collect();
        done_tokens.sort_unstable();
        let mut expect: Vec<u64> = accepted.iter().map(|t| t.0).collect();
        expect.sort_unstable();
        prop_assert_eq!(done_tokens, expect, "all reads complete exactly once");
        // Latency sanity: service time is at least tRL + burst.
        for c in &done {
            prop_assert!(c.service_mem >= 15, "service {} too small", c.service_mem);
        }
    }
}
