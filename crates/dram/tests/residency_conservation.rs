//! Property tests of rank power-state accounting: residency must
//! partition time exactly (the power model depends on it), and power
//! transitions must never lose or double-count cycles.

use dram_timing::{Channel, Command, DeviceConfig, PowerState};
use proptest::prelude::*;

#[derive(Debug, Clone, Copy)]
enum Step {
    Access { bank: u8, row: u32, write: bool },
    Sleep,
    Wake,
    Idle { cycles: u8 },
}

fn step(banks: u8) -> impl Strategy<Value = Step> {
    prop_oneof![
        (0..banks, 0u32..32, prop::bool::ANY).prop_map(|(bank, row, write)| Step::Access {
            bank,
            row,
            write
        }),
        Just(Step::Sleep),
        Just(Step::Wake),
        (1u8..60).prop_map(|cycles| Step::Idle { cycles }),
    ]
}

/// Apply one schedule step, returning the advanced clock. Mirrors what a
/// memory controller does between (possibly batched) timestamps: wake the
/// rank when work arrives, open the row, issue the column command.
fn apply(ch: &mut Channel, cfg: &DeviceConfig, s: Step, mut now: u64) -> u64 {
    match s {
        Step::Access { bank, row, write } => {
            if ch.ranks()[0].power_state() != PowerState::Up {
                now = ch.wake_rank(0, now);
            }
            if ch.ranks()[0].bank(bank).open_row() != Some(row) {
                if ch.ranks()[0].bank(bank).open_row().is_some() {
                    let pre = Command::precharge(0, bank);
                    if let Some(t) = ch.earliest_issue(&pre, now) {
                        now = t;
                        ch.issue(&pre, now);
                    }
                }
                let act = Command::activate(0, bank, row);
                if let Some(t) = ch.earliest_issue(&act, now) {
                    now = t;
                    ch.issue(&act, now);
                }
            }
            let col = if write {
                Command::write(0, bank, row, false)
            } else {
                Command::read(0, bank, row, false)
            };
            if let Some(t) = ch.earliest_issue(&col, now) {
                now = t;
                ch.issue(&col, now);
            }
        }
        Step::Sleep => {
            if ch.ranks()[0].power_state() == PowerState::Up {
                now += u64::from(cfg.powerdown_idle_cycles) + 1;
                ch.maybe_sleep(0, now);
            }
        }
        Step::Wake => now = now.max(ch.wake_rank(0, now)),
        Step::Idle { cycles } => now += u64::from(cycles),
    }
    now
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn residency_partitions_elapsed_time(
        steps in prop::collection::vec(step(8), 1..60)
    ) {
        let cfg = DeviceConfig::lpddr2_800();
        let mut ch = Channel::new(cfg.clone(), 1);
        let mut now = 0u64;
        for s in steps {
            now = apply(&mut ch, &cfg, s, now);
        }
        // Settle and check the partition.
        let end = now + 100;
        let res = ch.residency(end);
        prop_assert_eq!(
            res.total(), end,
            "residency must cover exactly the elapsed time: {:?}", res
        );
    }

    /// The event-driven kernel advances the clock in large, irregular
    /// jumps and settles residency only at snapshot points. Timestamp
    /// settling must make the partition exact regardless — including
    /// jumps that sail far past the power-down and self-refresh idle
    /// thresholds in one step.
    #[test]
    fn residency_partitions_time_under_batched_skips(
        steps in prop::collection::vec(step(8), 1..60),
        // Far beyond lpddr2_800's powerdown/self-refresh idle thresholds:
        // one jump can cross both.
        big_jumps in prop::collection::vec(1_000u64..50_000, 1..8)
    ) {
        let cfg = DeviceConfig::lpddr2_800();
        let mut ch = Channel::new(cfg.clone(), 1);
        let mut now = 0u64;
        let mut jumps = big_jumps.iter().cycle();
        for (i, s) in steps.into_iter().enumerate() {
            now = apply(&mut ch, &cfg, s, now);
            if i % 5 == 4 {
                // A batched skip: jump the clock, then act at the landing
                // cycle exactly as the controller's wake-up would.
                now += jumps.next().expect("cycle() never ends");
                ch.maybe_sleep(0, now);
            }
        }
        let end = now + 100;
        let res = ch.residency(end);
        prop_assert_eq!(
            res.total(), end,
            "batched skips must not lose or double-count cycles: {:?}", res
        );
    }

    /// Residency snapshots (which settle every rank) are taken at
    /// kernel-dependent times — the cycle kernel settles at device-cycle
    /// boundaries, the event kernel wherever it last woke. The final
    /// numbers must not depend on where intermediate snapshots happened.
    #[test]
    fn intermediate_settles_do_not_change_final_residency(
        steps in prop::collection::vec(step(8), 1..60)
    ) {
        let cfg = DeviceConfig::lpddr2_800();
        let mut plain = Channel::new(cfg.clone(), 1);
        let mut snapshotted = Channel::new(cfg.clone(), 1);
        let mut now_a = 0u64;
        let mut now_b = 0u64;
        for s in steps {
            now_a = apply(&mut plain, &cfg, s, now_a);
            now_b = apply(&mut snapshotted, &cfg, s, now_b);
            // Extra settle point on one channel only.
            let _ = snapshotted.residency(now_b);
        }
        prop_assert_eq!(now_a, now_b, "settling must never alter timing");
        let end = now_a + 100;
        prop_assert_eq!(plain.residency(end), snapshotted.residency(end));
    }

    #[test]
    fn bus_cycles_never_exceed_elapsed_time(
        rows in prop::collection::vec((0u8..8, 0u32..64), 1..40)
    ) {
        let mut ch = Channel::new(DeviceConfig::ddr3_1600(), 1);
        let mut now = 0u64;
        for (bank, row) in rows {
            if ch.ranks()[0].bank(bank).open_row() != Some(row) {
                if ch.ranks()[0].bank(bank).open_row().is_some() {
                    let pre = Command::precharge(0, bank);
                    if let Some(t) = ch.earliest_issue(&pre, now) {
                        now = t;
                        ch.issue(&pre, now);
                    }
                }
                let act = Command::activate(0, bank, row);
                if let Some(t) = ch.earliest_issue(&act, now) {
                    now = t;
                    ch.issue(&act, now);
                }
            }
            let rd = Command::read(0, bank, row, false);
            if let Some(t) = ch.earliest_issue(&rd, now) {
                now = t;
                ch.issue(&rd, now);
            }
        }
        let elapsed = ch.bus_free_at().max(now);
        let stats = ch.stats();
        prop_assert!(
            stats.read_bus_cycles + stats.write_bus_cycles <= elapsed,
            "bus busy {} > elapsed {elapsed}",
            stats.read_bus_cycles + stats.write_bus_cycles
        );
    }
}
