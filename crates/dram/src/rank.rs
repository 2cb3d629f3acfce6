//! Per-rank constraints: tFAW, tRRD, tWTR, power states and residency.

use std::collections::VecDeque;

use crate::bank::Bank;
use crate::config::DeviceConfig;
use crate::stats::Residency;

/// CKE/power state of one rank.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PowerState {
    /// Clock enabled, rank responsive.
    Up,
    /// Fast-exit power-down (active or precharge PD by bank state).
    PowerDown,
    /// Self-refresh: deepest state; refresh is handled internally.
    SelfRefresh,
}

/// One rank: a set of banks plus rank-wide timing state.
#[derive(Debug, Clone)]
pub struct Rank {
    banks: Vec<Bank>,
    /// Bit `b` set ⇔ bank `b` has an open row. Maintained incrementally by
    /// the state-changing wrappers below so `open_banks` is O(1).
    open_mask: u64,
    /// Issue times of the last four ACTs (tFAW window).
    act_window: VecDeque<u64>,
    /// Earliest next ACT due to tRRD.
    pub next_act_rrd: u64,
    /// Per-bank-group earliest next ACT (`tRRD_L`). Empty on devices
    /// without bank groups.
    pub group_next_act: Vec<u64>,
    /// Per-bank-group earliest next column command (`tCCD_L`). Empty on
    /// devices without bank groups.
    pub group_next_col: Vec<u64>,
    /// Rank-wide earliest next column command (`tCCD_S`). Stays 0 on
    /// devices without bank groups, where the per-bank `tCCD` register and
    /// data-bus occupancy cover column spacing.
    pub next_col_rank: u64,
    /// Earliest READ command after the last WRITE burst to this rank (tWTR).
    pub read_after_write_ok: u64,
    /// Earliest any command may issue (power-down exit, refresh completion).
    pub next_cmd_ok: u64,
    power: PowerState,
    power_since: u64,
    /// Cycle of the last command activity on this rank (idleness tracking).
    pub last_activity: u64,
    residency: Residency,
}

impl Rank {
    /// A fresh rank with `banks` idle banks, powered up at cycle 0, with
    /// no bank grouping.
    #[must_use]
    pub fn new(banks: u32) -> Self {
        Self::with_bank_groups(banks, 1)
    }

    /// A fresh rank whose `banks` are split into `groups` bank groups
    /// (`groups <= 1` ⇒ no grouping; no group timing registers exist).
    #[must_use]
    pub fn with_bank_groups(banks: u32, groups: u32) -> Self {
        assert!(banks <= 64, "open-bank bitmask supports at most 64 banks");
        let group_slots = if groups > 1 { groups as usize } else { 0 };
        Rank {
            banks: (0..banks).map(|_| Bank::new()).collect(),
            open_mask: 0,
            act_window: VecDeque::with_capacity(4),
            next_act_rrd: 0,
            group_next_act: vec![0; group_slots],
            group_next_col: vec![0; group_slots],
            next_col_rank: 0,
            read_after_write_ok: 0,
            next_cmd_ok: 0,
            power: PowerState::Up,
            power_since: 0,
            last_activity: 0,
            residency: Residency::default(),
        }
    }

    /// Immutable access to a bank.
    ///
    /// # Panics
    ///
    /// Panics if `bank` is out of range.
    #[must_use]
    pub fn bank(&self, bank: u8) -> &Bank {
        &self.banks[usize::from(bank)]
    }

    /// Mutable access to a bank's timing registers.
    ///
    /// Crate-internal: open/idle transitions must go through the rank-level
    /// wrappers ([`Rank::apply_activate`] et al.) so the open-bank bitmask
    /// stays consistent.
    ///
    /// # Panics
    ///
    /// Panics if `bank` is out of range.
    pub(crate) fn bank_mut(&mut self, bank: u8) -> &mut Bank {
        &mut self.banks[usize::from(bank)]
    }

    /// Open a row in `bank` (see [`Bank::apply_activate`]), keeping the
    /// open-bank bitmask in sync.
    pub fn apply_activate(
        &mut self,
        bank: u8,
        now: u64,
        row: u32,
        t_rcd: u32,
        t_ras: u32,
        t_rc: u32,
    ) {
        self.banks[usize::from(bank)].apply_activate(now, row, t_rcd, t_ras, t_rc);
        self.open_mask |= 1u64 << bank;
    }

    /// Close the row in `bank` (see [`Bank::apply_precharge`]), keeping the
    /// open-bank bitmask in sync.
    pub fn apply_precharge(&mut self, bank: u8, now: u64, t_rp: u32) {
        self.banks[usize::from(bank)].apply_precharge(now, t_rp);
        self.open_mask &= !(1u64 << bank);
    }

    /// Auto-precharge `bank` (see [`Bank::apply_auto_precharge`]), keeping
    /// the open-bank bitmask in sync.
    pub fn apply_auto_precharge(&mut self, bank: u8, pre_at: u64, t_rp: u32) {
        self.banks[usize::from(bank)].apply_auto_precharge(pre_at, t_rp);
        self.open_mask &= !(1u64 << bank);
    }

    /// All banks of this rank.
    #[must_use]
    pub fn banks(&self) -> &[Bank] {
        &self.banks
    }

    /// Number of banks with an open row.
    #[must_use]
    pub fn open_banks(&self) -> usize {
        let n = self.open_mask.count_ones() as usize;
        debug_assert_eq!(
            n,
            self.banks.iter().filter(|b| !b.is_idle()).count(),
            "open-bank bitmask out of sync with bank states"
        );
        n
    }

    /// Bitmask of banks with an open row (bit `b` ⇔ bank `b` open).
    #[must_use]
    pub fn open_mask(&self) -> u64 {
        self.open_mask
    }

    /// Current power state.
    #[must_use]
    pub fn power_state(&self) -> PowerState {
        self.power
    }

    /// Earliest cycle a new ACT satisfies the tFAW window (`now` if free).
    #[must_use]
    pub fn faw_ready(&self, now: u64, t_faw: u32) -> u64 {
        if t_faw == 0 || self.act_window.len() < 4 {
            return now;
        }
        now.max(self.act_window[0] + u64::from(t_faw))
    }

    /// Record an ACT at `now` into the tFAW window and bump tRRD.
    pub fn note_activate(&mut self, now: u64, t_rrd: u32) {
        if self.act_window.len() == 4 {
            self.act_window.pop_front();
        }
        self.act_window.push_back(now);
        self.next_act_rrd = now + u64::from(t_rrd);
        self.last_activity = now;
    }

    /// Accumulate state residency up to `now` (call before any transition).
    fn settle(&mut self, now: u64) {
        let span = now.saturating_sub(self.power_since);
        let open = self.open_banks() > 0;
        match self.power {
            PowerState::Up => {
                if open {
                    self.residency.active_standby += span;
                } else {
                    self.residency.precharge_standby += span;
                }
            }
            PowerState::PowerDown => {
                if open {
                    self.residency.active_powerdown += span;
                } else {
                    self.residency.precharge_powerdown += span;
                }
            }
            PowerState::SelfRefresh => self.residency.self_refresh += span,
        }
        self.power_since = now;
    }

    /// Mark activity at `now`, flushing residency accounting first.
    ///
    /// Must be called when a command is issued so that open-bank transitions
    /// split standby residency correctly.
    pub fn touch(&mut self, now: u64) {
        self.settle(now);
        self.last_activity = now;
    }

    /// Enter fast power-down at `now`.
    ///
    /// # Panics
    ///
    /// Panics (debug) if the rank is not `Up`.
    pub fn enter_powerdown(&mut self, now: u64) {
        debug_assert_eq!(self.power, PowerState::Up);
        self.settle(now);
        self.power = PowerState::PowerDown;
    }

    /// Enter self-refresh at `now` (requires all banks closed).
    ///
    /// # Panics
    ///
    /// Panics (debug) if any bank has an open row.
    pub fn enter_self_refresh(&mut self, now: u64) {
        debug_assert_eq!(self.open_banks(), 0, "self-refresh with open rows");
        self.settle(now);
        self.power = PowerState::SelfRefresh;
    }

    /// The cycle at which this rank, left idle, drops into its next sleep
    /// state under `cfg`'s policy: power-down, then self-refresh once
    /// every bank is closed. `None` when it never does.
    #[must_use]
    pub fn sleep_at(&self, cfg: &DeviceConfig) -> Option<u64> {
        if cfg.powerdown_idle_cycles == 0 {
            return None;
        }
        match self.power {
            PowerState::Up => Some(self.last_activity + u64::from(cfg.powerdown_idle_cycles)),
            PowerState::PowerDown if cfg.self_refresh_idle_cycles > 0 && self.open_banks() == 0 => {
                Some(self.last_activity + u64::from(cfg.self_refresh_idle_cycles))
            }
            _ => None,
        }
    }

    /// Wake the rank at `now`; commands become legal after the exit latency.
    ///
    /// Returns the cycle at which the rank is usable.
    pub fn wake(&mut self, now: u64, cfg: &DeviceConfig) -> u64 {
        self.settle(now);
        let exit = match self.power {
            PowerState::Up => 0,
            PowerState::PowerDown => u64::from(cfg.timings.t_xp),
            PowerState::SelfRefresh => u64::from(cfg.timings.t_xsr),
        };
        self.power = PowerState::Up;
        let ready = now + exit;
        self.next_cmd_ok = self.next_cmd_ok.max(ready);
        ready
    }

    /// Finalize residency accounting at end of simulation.
    pub fn finalize(&mut self, now: u64) {
        self.settle(now);
    }

    /// Residency counters (device cycles per state).
    #[must_use]
    pub fn residency(&self) -> &Residency {
        &self.residency
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn faw_allows_four_then_blocks() {
        let mut r = Rank::new(8);
        for (i, t) in [0u64, 5, 10, 15].iter().enumerate() {
            assert_eq!(r.faw_ready(*t, 32), *t, "act {i}");
            r.note_activate(*t, 5);
        }
        // Fifth ACT must wait until first + tFAW = 32.
        assert_eq!(r.faw_ready(20, 32), 32);
        // Without tFAW (RLDRAM3) there is no constraint.
        assert_eq!(r.faw_ready(20, 0), 20);
    }

    #[test]
    fn rrd_spacing() {
        let mut r = Rank::new(8);
        r.note_activate(100, 5);
        assert_eq!(r.next_act_rrd, 105);
    }

    #[test]
    fn powerdown_wake_costs_txp() {
        let cfg = DeviceConfig::ddr3_1600();
        let mut r = Rank::new(8);
        r.enter_powerdown(100);
        let ready = r.wake(200, &cfg);
        assert_eq!(ready, 200 + u64::from(cfg.timings.t_xp));
        assert_eq!(r.power_state(), PowerState::Up);
    }

    #[test]
    fn residency_splits_by_state() {
        let cfg = DeviceConfig::lpddr2_800();
        let mut r = Rank::new(8);
        r.touch(50); // 0..50 precharge standby
        r.enter_powerdown(50);
        r.wake(150, &cfg); // 50..150 precharge powerdown
        r.enter_self_refresh(250); // 150..250 up (precharge standby)
        r.finalize(400); // 250..400 self refresh
        let res = r.residency();
        assert_eq!(res.precharge_standby, 50 + 100);
        assert_eq!(res.precharge_powerdown, 100);
        assert_eq!(res.self_refresh, 150);
        assert_eq!(res.active_standby, 0);
    }

    #[test]
    fn wake_when_up_is_free() {
        let cfg = DeviceConfig::ddr3_1600();
        let mut r = Rank::new(8);
        assert_eq!(r.wake(10, &cfg), 10);
    }
}

impl cwf_ckpt::Ckpt for PowerState {
    fn save(&self, w: &mut cwf_ckpt::Writer) {
        w.put_u8(match self {
            PowerState::Up => 0,
            PowerState::PowerDown => 1,
            PowerState::SelfRefresh => 2,
        });
    }
    fn load(r: &mut cwf_ckpt::Reader<'_>) -> cwf_ckpt::Result<Self> {
        Ok(match r.get_u8()? {
            0 => PowerState::Up,
            1 => PowerState::PowerDown,
            2 => PowerState::SelfRefresh,
            v => return Err(cwf_ckpt::CkptError::new(format!("invalid PowerState tag {v}"))),
        })
    }
}

cwf_ckpt::ckpt_struct!(Rank {
    banks,
    open_mask,
    act_window,
    next_act_rrd,
    group_next_act,
    group_next_col,
    next_col_rank,
    read_after_write_ok,
    next_cmd_ok,
    power,
    power_since,
    last_activity,
    residency,
});
