//! Refresh obligations of one channel's ranks.
//!
//! Each rank owes one refresh per tREFI. All-bank refresh (DDR3, LPDDR2)
//! closes the rank's open banks, then issues REF; same-bank refresh
//! (RLDRAM3, DDR5 REFsb) rotates one bank per tREFI slot.
//! [`RefreshUnit::action`] is the one place that picks the next refresh
//! command: the tick issues it once it is ready, and the wake bound folds
//! its ready cycle.

use dram_timing::{Channel, Command, DeviceConfig, PowerState};

/// The refresh state of one channel's ranks.
#[derive(Debug)]
pub(crate) struct RefreshUnit {
    /// tREFI in device cycles; 0 disables refresh.
    t_refi: u64,
    /// Per rank, the cycle its next refresh is due.
    deadline: Vec<u64>,
    /// Per rank, the bank its next same-bank refresh targets.
    bank_rr: Vec<u8>,
    /// Fault injection: number of upcoming refresh obligations to skip
    /// silently (deadline re-armed, no command issued). Only the verify
    /// oracle's seeded-fault tests set this.
    pub(crate) fault_drop_refreshes: u32,
    /// Fault injection: number of upcoming refresh obligations to re-arm
    /// as if the device were in self-refresh (silent `now + tREFI` reset,
    /// no command, rank awake) — the exact behavior of the old
    /// self-refresh branch when it fired on a woken rank. Only the verify
    /// oracle's seeded-fault tests set this.
    pub(crate) fault_phantom_self_refresh: u32,
}

impl RefreshUnit {
    pub(crate) fn new(cfg: &DeviceConfig, ranks: u32) -> Self {
        let t_refi = u64::from(cfg.timings.t_refi);
        RefreshUnit {
            t_refi,
            deadline: (0..ranks).map(|r| t_refi.max(1) + u64::from(r) * 7).collect(),
            bank_rr: vec![0; ranks as usize],
            fault_drop_refreshes: 0,
            fault_phantom_self_refresh: 0,
        }
    }

    /// Serialize the `RFSH` block: the deadlines, the same-bank cursors
    /// and the seeded-fault counters. tREFI is config and not encoded.
    pub(crate) fn save_state(&self, w: &mut cwf_ckpt::Writer) {
        let RefreshUnit {
            t_refi: _,
            deadline,
            bank_rr,
            fault_drop_refreshes,
            fault_phantom_self_refresh,
        } = self;
        w.section(b"RFSH");
        cwf_ckpt::Ckpt::save(deadline, w);
        cwf_ckpt::Ckpt::save(bank_rr, w);
        cwf_ckpt::Ckpt::save(fault_drop_refreshes, w);
        cwf_ckpt::Ckpt::save(fault_phantom_self_refresh, w);
    }

    /// Restore the block [`Self::save_state`] wrote.
    pub(crate) fn load_state(&mut self, r: &mut cwf_ckpt::Reader<'_>) -> cwf_ckpt::Result<()> {
        r.expect_section(b"RFSH")?;
        let deadline: Vec<u64> = cwf_ckpt::Ckpt::load(r)?;
        let bank_rr: Vec<u8> = cwf_ckpt::Ckpt::load(r)?;
        if deadline.len() != self.deadline.len() || bank_rr.len() != self.bank_rr.len() {
            return Err(cwf_ckpt::CkptError::new("refresh rank count mismatch"));
        }
        self.deadline = deadline;
        self.bank_rr = bank_rr;
        self.fault_drop_refreshes = cwf_ckpt::Ckpt::load(r)?;
        self.fault_phantom_self_refresh = cwf_ckpt::Ckpt::load(r)?;
        Ok(())
    }

    /// A rank is blocked for normal traffic while its refresh is overdue.
    pub(crate) fn blocked(&self, rank: u8, now: u64) -> bool {
        self.t_refi != 0 && now >= self.deadline[usize::from(rank)]
    }

    /// True when `at` lies in `rank`'s refresh-due window, which opens
    /// [`Self::wake_ahead`] cycles before its deadline. Inside it the
    /// power manager wakes a powered-down rank and puts no rank to sleep.
    pub(crate) fn due(&self, ch: &Channel, rank: usize, at: u64) -> bool {
        self.t_refi != 0 && at.saturating_add(Self::wake_ahead(ch, rank)) >= self.deadline[rank]
    }

    /// How far ahead of a refresh deadline the power manager must wake a
    /// powered-down rank (and stop putting ranks to sleep), derived from
    /// the device timing parameters:
    ///
    /// ```text
    /// lead = tXP + (open > 0 ? tRP + open - 1 : 0)
    /// ```
    ///
    /// The power manager runs before the refresh tick within the same
    /// device cycle, so a rank woken at `deadline - tXP` has
    /// `next_cmd_ok = deadline` and its REF becomes legal exactly at the
    /// deadline. When the rank powered down with `open` rows still open,
    /// the REF must additionally wait for the serialized precharges that
    /// close them: the last of `open` precharges issues `open - 1` cycles
    /// after the first legal command slot, and its bank is idle `tRP`
    /// later. A powered-down rank's open-bank mask is frozen (no command
    /// can issue), so the lead is stable for the whole sleep.
    fn wake_ahead(ch: &Channel, rank: usize) -> u64 {
        let t = &ch.config().timings;
        let open = u64::from(ch.ranks()[rank].open_mask().count_ones());
        let pre_lead = if open > 0 { u64::from(t.t_rp) + open - 1 } else { 0 };
        u64::from(t.t_xp) + pre_lead
    }

    /// Restart `rank`'s cadence as it wakes from self-refresh at `now`.
    /// Self-refresh maintained the array internally; the external cadence
    /// restarts one full interval after wake-up (the verify ledger's
    /// suspension semantics).
    pub(crate) fn restart(&mut self, rank: usize, now: u64) {
        if self.t_refi != 0 {
            self.deadline[rank] = now + self.t_refi;
        }
    }

    /// The command `rank`'s refresh needs next, with the earliest cycle it
    /// can issue (`None` while the rank is not `Up`). Same-bank refresh
    /// gives the round-robin bank's REFB, or the precharge closing that
    /// bank when it holds an open row (REFB is only legal on an idle
    /// bank). All-bank refresh gives REF, or, while banks are open, the
    /// precharge that is ready first, the lowest bank on a tie.
    fn action(&self, ch: &Channel, rank: usize, now: u64) -> (Command, Option<u64>) {
        let r8 = rank as u8;
        let open = ch.ranks()[rank].open_mask();
        let probe = |cmd: Command| (cmd, ch.earliest_issue(&cmd, now));
        if ch.config().refresh_per_bank {
            let bank = self.bank_rr[rank];
            return probe(if open & (1u64 << bank) != 0 {
                Command::precharge(r8, bank)
            } else {
                Command::RefreshBank { rank: r8, bank }
            });
        }
        if open == 0 {
            return probe(Command::Refresh { rank: r8 });
        }
        (0..64u8)
            .filter(|&b| open & (1u64 << b) != 0)
            .map(|b| probe(Command::precharge(r8, b)))
            .min_by_key(|&(_, at)| at.unwrap_or(u64::MAX))
            .expect("an open bank")
    }

    /// Act on the first overdue rank that can act now. Returns `None` when
    /// nothing changed, `Some(true)` when a command issued and
    /// `Some(false)` when a seeded fault re-armed a deadline without one;
    /// either change can unblock the rank for the scheduler.
    pub(crate) fn tick(&mut self, ch: &mut Channel, now: u64) -> Option<bool> {
        if self.t_refi == 0 {
            return None;
        }
        let mut rearmed = None;
        for r in 0..self.deadline.len() {
            // The device refreshes itself in self-refresh: the external
            // obligation is suspended, with no silent deadline reset, and
            // restarts on wake-up (see `restart`).
            if now < self.deadline[r] || ch.ranks()[r].power_state() == PowerState::SelfRefresh {
                continue;
            }
            if self.fault_phantom_self_refresh > 0 {
                self.fault_phantom_self_refresh -= 1;
                // Replays the pre-fix self-refresh branch on an awake
                // rank: deadline reset, no REF issued.
                self.deadline[r] = now + self.t_refi;
                rearmed = Some(false);
                continue;
            }
            if self.fault_drop_refreshes > 0 {
                self.fault_drop_refreshes -= 1;
                self.deadline[r] += self.t_refi;
                rearmed = Some(false);
                continue;
            }
            let (cmd, at) = self.action(ch, r, now);
            if at != Some(now) {
                continue;
            }
            ch.issue(&cmd, now);
            if let Command::RefreshBank { bank, .. } = cmd {
                self.bank_rr[r] = (bank + 1) % ch.config().geometry.banks as u8;
            }
            if !matches!(cmd, Command::Precharge { .. }) {
                // Re-arm from the stored deadline, not the issue cycle: a
                // late REF must not drift the cadence.
                self.deadline[r] += self.t_refi;
            }
            return Some(true);
        }
        rearmed
    }

    /// Earliest device cycle after `now` at which [`Self::tick`] or the
    /// power manager acts on a refresh obligation: a deadline, the wake of
    /// a powered-down rank ahead of its deadline, or an overdue rank's
    /// action (the next cycle while a seeded fault or a wake is pending).
    /// `u64::MAX` when refresh is off.
    pub(crate) fn next_activity(&self, ch: &Channel, now: u64) -> u64 {
        if self.t_refi == 0 {
            return u64::MAX;
        }
        let faulty = self.fault_drop_refreshes > 0 || self.fault_phantom_self_refresh > 0;
        let mut next = u64::MAX;
        for (r, rank) in ch.ranks().iter().enumerate() {
            let deadline = self.deadline[r];
            let at = match rank.power_state() {
                // A self-refreshing rank has no external refresh
                // obligation; its cadence restarts on wake.
                PowerState::SelfRefresh => continue,
                PowerState::PowerDown if now < deadline => {
                    deadline.saturating_sub(Self::wake_ahead(ch, r))
                }
                _ if now < deadline => deadline,
                PowerState::Up if !faulty => self.action(ch, r, now).1.unwrap_or(now + 1),
                _ => now + 1,
            };
            next = next.min(at.max(now + 1));
        }
        next
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Tick `unit` alone at every cycle in `cycles`, optionally opening a
    /// row in bank 0 a few cycles before each deadline so the REF must
    /// first close it; return the cycles of the REF/REFB commands issued.
    fn drive(
        cfg: &DeviceConfig,
        cycles: std::ops::Range<u64>,
        open_before_deadline: bool,
    ) -> Vec<(u64, Command)> {
        let mut ch = Channel::new(cfg.clone(), 1);
        ch.enable_command_log();
        let mut unit = RefreshUnit::new(cfg, 1);
        for now in cycles {
            let act = Command::activate(0, 0, 7);
            if open_before_deadline && now + 20 == unit.deadline[0] && ch.can_issue(&act, now) {
                ch.issue(&act, now);
                continue;
            }
            unit.tick(&mut ch, now);
        }
        ch.take_command_log()
            .into_iter()
            .filter(|(_, c)| matches!(c, Command::Refresh { .. } | Command::RefreshBank { .. }))
            .collect()
    }

    /// One REF per tREFI, each re-armed from its deadline: over 1000
    /// intervals the k-th REF issues at k·tREFI when nothing delays it,
    /// and within the row-closing delay of k·tREFI when an open row
    /// delays every one of them — the delays never accumulate.
    #[test]
    fn one_ref_per_trefi_without_drift() {
        let cfg = DeviceConfig::ddr3_1600();
        let t_refi = u64::from(cfg.timings.t_refi);
        let span = 0..1000 * t_refi + t_refi / 2;
        let on_time = drive(&cfg, span.clone(), false);
        let expect: Vec<u64> = (1..=1000).map(|k| k * t_refi).collect();
        assert_eq!(on_time.iter().map(|&(at, _)| at).collect::<Vec<_>>(), expect);

        let delayed = drive(&cfg, span, true);
        assert_eq!(delayed.len(), 1000, "one REF per interval");
        let t = &cfg.timings;
        let slack = u64::from(t.t_ras + t.t_rp);
        for (k, &(at, _)) in (1u64..).zip(&delayed) {
            assert!(at > k * t_refi, "REF {k} at {at} was delayed by the open row");
            assert!(at <= k * t_refi + slack, "REF {k} at {at} drifted past k * tREFI + {slack}");
        }
    }

    /// Same-bank refresh rotates its target through every bank in order.
    #[test]
    fn per_bank_refresh_visits_every_bank() {
        let cfg = DeviceConfig::rldram3();
        assert!(cfg.refresh_per_bank);
        let banks = cfg.geometry.banks as u8;
        let t_refi = u64::from(cfg.timings.t_refi);
        let log = drive(&cfg, 0..2 * u64::from(banks) * t_refi + 1, false);
        let visited: Vec<u8> = log
            .iter()
            .map(|(_, c)| match c {
                Command::RefreshBank { bank, .. } => *bank,
                other => panic!("all-bank refresh on a same-bank device: {other:?}"),
            })
            .collect();
        let expect: Vec<u8> = (0..2 * banks).map(|i| i % banks).collect();
        assert_eq!(visited, expect);
    }
}
