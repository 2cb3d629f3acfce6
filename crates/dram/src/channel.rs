//! A DRAM channel: ranks sharing one data bus and one address/command bus.
//!
//! The channel is a *timing oracle*: given a command it reports the earliest
//! cycle at which the command could legally issue ([`Channel::earliest_issue`])
//! and applies the command's effects ([`Channel::issue`]). One command may
//! issue per device cycle (single command bus); the caller enforces that by
//! issuing at most once per cycle.

use std::cell::Cell;

use crate::bank::BankState;
use crate::command::Command;
use crate::config::{AddressingStyle, DeviceConfig};
use crate::rank::{PowerState, Rank};
use crate::stats::{ChannelStats, Residency};

/// Command classes with distinct timing-bound formulas, used to key the
/// memoized ready-cycle table. `Refresh` is rank-wide and stored in bank 0's
/// slot.
const CLASS_ACT: usize = 0;
const CLASS_READ: usize = 1;
const CLASS_WRITE: usize = 2;
const CLASS_PRE: usize = 3;
const CLASS_REF_BANK: usize = 4;
const CLASS_REF: usize = 5;
const NCLASS: usize = 6;

/// One memoized timing bound. Valid while the generation counters match;
/// `rank_gen == u64::MAX` marks a never-filled slot (live generations start
/// at 0 and only increment).
#[derive(Debug, Clone, Copy)]
struct MemoSlot {
    rank_gen: u64,
    bus_gen: u64,
    bound: u64,
}

impl MemoSlot {
    const EMPTY: Self = MemoSlot { rank_gen: u64::MAX, bus_gen: 0, bound: 0 };
}

/// Result of issuing a column command.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IssueOutcome {
    /// Cycle of the first data beat (column commands only).
    pub data_start: Option<u64>,
    /// Cycle just after the last data beat (column commands only).
    pub data_end: Option<u64>,
}

/// One DRAM channel of a single device type.
#[derive(Debug, Clone)]
pub struct Channel {
    cfg: DeviceConfig,
    ranks: Vec<Rank>,
    /// First cycle at which the data bus is free.
    bus_free_at: u64,
    last_burst_rank: Option<u8>,
    last_burst_write: bool,
    stats: ChannelStats,
    /// Per-rank invalidation generation: bumped whenever any state that can
    /// move a timing bound for that rank changes (a command issues, the rank
    /// wakes or sleeps, or a caller takes `rank_mut`).
    rank_gen: Vec<u64>,
    /// Data-bus invalidation generation: bumped on every column (Read/Write)
    /// issue, since bus occupancy and turnaround affect all ranks' column
    /// bounds.
    bus_gen: u64,
    /// Memoized static timing bound per `(rank, bank, command class)`.
    /// `earliest_issue` probes become an O(1) generation compare on hits.
    memo: Vec<Cell<MemoSlot>>,
    /// When `Some`, every issued command is appended (protocol auditing).
    log: Option<Vec<(u64, Command)>>,
    /// When logging is on, every rank power-state change is appended as
    /// `(cycle, rank, new state)` — the verify oracle needs these to pause
    /// refresh obligations across self-refresh.
    power_log: Option<Vec<(u64, u8, PowerState)>>,
}

impl Channel {
    /// Create a channel with `ranks` ranks of the given device type.
    ///
    /// # Panics
    ///
    /// Panics if `ranks == 0`.
    #[must_use]
    pub fn new(cfg: DeviceConfig, ranks: u32) -> Self {
        assert!(ranks > 0, "a channel needs at least one rank");
        let banks = cfg.geometry.banks;
        let groups = cfg.geometry.bank_groups;
        let slots = (ranks as usize) * (banks as usize) * NCLASS;
        Channel {
            ranks: (0..ranks).map(|_| Rank::with_bank_groups(banks, groups)).collect(),
            cfg,
            bus_free_at: 0,
            last_burst_rank: None,
            last_burst_write: false,
            stats: ChannelStats::default(),
            rank_gen: vec![0; ranks as usize],
            bus_gen: 0,
            memo: vec![Cell::new(MemoSlot::EMPTY); slots],
            log: None,
            power_log: None,
        }
    }

    /// Memoized static timing bound for `(class, rank, bank)`: returns the
    /// cached bound when the relevant generations match, else recomputes via
    /// `compute` and caches it. The bound is `now`-independent by
    /// construction (every formula is a max over state registers), so
    /// `earliest_issue` is `max(now, bound)`.
    fn memo_bound(&self, class: usize, rank: u8, bank: u8, compute: impl FnOnce() -> u64) -> u64 {
        let banks = self.cfg.geometry.banks as usize;
        let idx = (usize::from(rank) * banks + usize::from(bank)) * NCLASS + class;
        let rank_gen = self.rank_gen[usize::from(rank)];
        let bus_gen = if class == CLASS_READ || class == CLASS_WRITE { self.bus_gen } else { 0 };
        let slot = self.memo[idx].get();
        if slot.rank_gen == rank_gen && slot.bus_gen == bus_gen {
            return slot.bound;
        }
        let bound = compute();
        self.memo[idx].set(MemoSlot { rank_gen, bus_gen, bound });
        bound
    }

    /// Invalidate memoized bounds for one rank.
    fn bump_rank_gen(&mut self, rank: u8) {
        self.rank_gen[usize::from(rank)] += 1;
    }

    /// Start recording every issued command (for protocol auditing with
    /// [`crate::ProtocolChecker`]) and every rank power-state transition.
    pub fn enable_command_log(&mut self) {
        self.log = Some(Vec::new());
        self.power_log = Some(Vec::new());
    }

    /// Take the recorded `(cycle, command)` log, leaving recording on.
    pub fn take_command_log(&mut self) -> Vec<(u64, Command)> {
        match &mut self.log {
            Some(log) => std::mem::take(log),
            None => Vec::new(),
        }
    }

    /// Take the recorded `(cycle, rank, state)` power-transition log,
    /// leaving recording on. Empty unless [`Channel::enable_command_log`]
    /// was called.
    pub fn take_power_log(&mut self) -> Vec<(u64, u8, PowerState)> {
        match &mut self.power_log {
            Some(log) => std::mem::take(log),
            None => Vec::new(),
        }
    }

    /// Device configuration of this channel.
    #[must_use]
    pub fn config(&self) -> &DeviceConfig {
        &self.cfg
    }

    /// Ranks on this channel.
    #[must_use]
    pub fn ranks(&self) -> &[Rank] {
        &self.ranks
    }

    /// Mutable rank access (power-state management by the controller).
    ///
    /// Conservatively invalidates this rank's memoized timing bounds, since
    /// the caller may mutate any timing register.
    ///
    /// # Panics
    ///
    /// Panics if `rank` is out of range.
    pub fn rank_mut(&mut self, rank: u8) -> &mut Rank {
        self.bump_rank_gen(rank);
        &mut self.ranks[usize::from(rank)]
    }

    /// Activity counters.
    #[must_use]
    pub fn stats(&self) -> &ChannelStats {
        &self.stats
    }

    /// Mutable counters — the controller records row-hit/miss/conflict
    /// classification here, since only it sees whole transactions.
    pub fn stats_mut(&mut self) -> &mut ChannelStats {
        &mut self.stats
    }

    /// First cycle the data bus is free.
    #[must_use]
    pub fn bus_free_at(&self) -> u64 {
        self.bus_free_at
    }

    /// Sum of all ranks' residency counters, settled up to `now`.
    pub fn residency(&mut self, now: u64) -> Residency {
        let mut total = Residency::default();
        for r in &mut self.ranks {
            r.finalize(now);
            total.add(r.residency());
        }
        total
    }

    /// Bank group of `bank`, or `None` when the device has no bank groups
    /// (so all group timing state stays untouched on legacy devices).
    fn group_of(&self, bank: u8) -> Option<usize> {
        let groups = self.cfg.geometry.bank_groups;
        if groups <= 1 {
            return None;
        }
        let per_group = self.cfg.geometry.banks / groups;
        Some((u32::from(bank) / per_group) as usize)
    }

    /// Earliest data-burst start given bus occupancy and switch penalties.
    fn burst_floor(&self, rank: u8, is_write: bool) -> u64 {
        let switch = self.last_burst_rank != Some(rank) || self.last_burst_write != is_write;
        if self.last_burst_rank.is_some() && switch {
            self.bus_free_at + u64::from(self.cfg.timings.t_rtrs)
        } else {
            self.bus_free_at
        }
    }

    /// Earliest cycle `>= now` at which `cmd` could legally issue, or
    /// `None` if the command is illegal in the current state (wrong row
    /// open, rank powered down, addressing-style mismatch, …).
    ///
    /// Legality is always checked against live state; the timing bound is
    /// memoized per `(rank, bank, command class)` and only recomputed after
    /// an invalidating mutation (command issue, power transition, or
    /// `rank_mut`), so repeated probes are O(1). Each bound is a pure max
    /// over state registers — row numbers and `now` never enter it — which
    /// is what makes the memoization sound.
    #[must_use]
    pub fn earliest_issue(&self, cmd: &Command, now: u64) -> Option<u64> {
        let t = &self.cfg.timings;
        let rank_idx = cmd.rank();
        let rank = self.ranks.get(usize::from(rank_idx))?;
        if rank.power_state() != PowerState::Up {
            return None; // the controller must wake the rank first
        }
        let bound = match *cmd {
            Command::Activate { bank, .. } => {
                if self.cfg.addressing == AddressingStyle::SingleCommand {
                    return None;
                }
                let b = rank.bank(bank);
                if !b.is_idle() {
                    return None;
                }
                self.memo_bound(CLASS_ACT, rank_idx, bank, || {
                    let mut lb = b.next_act.max(rank.next_act_rrd).max(rank.next_cmd_ok);
                    if let Some(g) = self.group_of(bank) {
                        lb = lb.max(rank.group_next_act[g]);
                    }
                    rank.faw_ready(lb, t.t_faw)
                })
            }
            Command::Read { bank, row, .. } => {
                let b = rank.bank(bank);
                match self.cfg.addressing {
                    AddressingStyle::RasCas => {
                        if b.open_row() != Some(row) {
                            return None;
                        }
                        self.memo_bound(CLASS_READ, rank_idx, bank, || {
                            let floor = self.burst_floor(rank_idx, false);
                            let mut lb = b
                                .next_read
                                .max(rank.read_after_write_ok)
                                .max(rank.next_cmd_ok)
                                .max(rank.next_col_rank)
                                .max(floor.saturating_sub(u64::from(t.t_rl)));
                            if let Some(g) = self.group_of(bank) {
                                lb = lb.max(rank.group_next_col[g]);
                            }
                            lb
                        })
                    }
                    AddressingStyle::SingleCommand => {
                        if !b.is_idle() {
                            return None;
                        }
                        self.memo_bound(CLASS_READ, rank_idx, bank, || {
                            let floor = self.burst_floor(rank_idx, false);
                            b.next_act
                                .max(rank.next_cmd_ok)
                                .max(floor.saturating_sub(u64::from(t.t_rl)))
                        })
                    }
                }
            }
            Command::Write { bank, row, .. } => {
                let b = rank.bank(bank);
                match self.cfg.addressing {
                    AddressingStyle::RasCas => {
                        if b.open_row() != Some(row) {
                            return None;
                        }
                        self.memo_bound(CLASS_WRITE, rank_idx, bank, || {
                            let floor = self.burst_floor(rank_idx, true);
                            let mut lb = b
                                .next_write
                                .max(rank.next_cmd_ok)
                                .max(rank.next_col_rank)
                                .max(floor.saturating_sub(u64::from(t.t_wl)));
                            if let Some(g) = self.group_of(bank) {
                                lb = lb.max(rank.group_next_col[g]);
                            }
                            lb
                        })
                    }
                    AddressingStyle::SingleCommand => {
                        if !b.is_idle() {
                            return None;
                        }
                        self.memo_bound(CLASS_WRITE, rank_idx, bank, || {
                            let floor = self.burst_floor(rank_idx, true);
                            b.next_act
                                .max(rank.next_cmd_ok)
                                .max(floor.saturating_sub(u64::from(t.t_wl)))
                        })
                    }
                }
            }
            Command::Precharge { bank, .. } => {
                let b = rank.bank(bank);
                if b.is_idle() {
                    return None;
                }
                self.memo_bound(CLASS_PRE, rank_idx, bank, || b.next_pre.max(rank.next_cmd_ok))
            }
            Command::Refresh { .. } => {
                if rank.open_banks() > 0 {
                    return None;
                }
                self.memo_bound(CLASS_REF, rank_idx, 0, || {
                    let mut lb = rank.next_cmd_ok;
                    for b in rank.banks() {
                        lb = lb.max(b.next_act);
                    }
                    lb
                })
            }
            Command::RefreshBank { bank, .. } => {
                let b = rank.bank(bank);
                if !b.is_idle() {
                    return None;
                }
                self.memo_bound(CLASS_REF_BANK, rank_idx, bank, || b.next_act.max(rank.next_cmd_ok))
            }
        };
        Some(now.max(bound))
    }

    /// True iff `cmd` may issue exactly at `now`.
    #[must_use]
    pub fn can_issue(&self, cmd: &Command, now: u64) -> bool {
        self.earliest_issue(cmd, now) == Some(now)
    }

    /// Issue `cmd` at `now`, applying all timing effects.
    ///
    /// # Panics
    ///
    /// Panics (debug builds) if the command is not issuable at `now`; callers
    /// must check with [`Channel::can_issue`] first.
    pub fn issue(&mut self, cmd: &Command, now: u64) -> IssueOutcome {
        debug_assert!(self.can_issue(cmd, now), "command {cmd:?} not issuable at cycle {now}");
        if let Some(log) = &mut self.log {
            log.push((now, *cmd));
        }
        let t = self.cfg.timings;
        let addressing = self.cfg.addressing;
        let rank_idx = cmd.rank();
        // Any issue can move this rank's timing bounds; column commands also
        // occupy the shared data bus and thus move every rank's column bounds.
        self.bump_rank_gen(rank_idx);
        if matches!(cmd, Command::Read { .. } | Command::Write { .. }) {
            self.bus_gen += 1;
        }
        // Bank group of the addressed bank (None on ungrouped devices),
        // resolved before the rank borrow below.
        let group_of = match *cmd {
            Command::Activate { bank, .. }
            | Command::Read { bank, .. }
            | Command::Write { bank, .. } => self.group_of(bank),
            _ => None,
        };
        let rank = &mut self.ranks[usize::from(rank_idx)];
        rank.touch(now);
        match *cmd {
            Command::Activate { bank, row, .. } => {
                rank.apply_activate(bank, now, row, t.t_rcd, t.t_ras, t.t_rc);
                rank.note_activate(now, t.t_rrd);
                if let Some(g) = group_of {
                    rank.group_next_act[g] = rank.group_next_act[g].max(now + u64::from(t.t_rrd_l));
                }
                self.stats.activates += 1;
                self.stats.per_bank[usize::from(bank)].activates += 1;
                IssueOutcome { data_start: None, data_end: None }
            }
            Command::Read { bank, auto_pre, .. } => {
                let data_start = now + u64::from(t.t_rl);
                let data_end = data_start + u64::from(t.t_burst);
                {
                    let b = rank.bank_mut(bank);
                    match addressing {
                        AddressingStyle::RasCas => {
                            b.next_read = b.next_read.max(now + u64::from(t.t_ccd));
                            b.next_write = b.next_write.max(now + u64::from(t.t_ccd));
                            b.next_pre = b.next_pre.max(now + u64::from(t.t_rtp));
                            if auto_pre {
                                let pre_at = (now + u64::from(t.t_rtp))
                                    .max(b.last_act_at + u64::from(t.t_ras));
                                rank.apply_auto_precharge(bank, pre_at, t.t_rp);
                            }
                        }
                        AddressingStyle::SingleCommand => {
                            // Implicit activate + auto-precharge: the bank is
                            // busy for one full tRC.
                            b.next_act = now + u64::from(t.t_rc);
                            self.stats.activates += 1;
                            self.stats.per_bank[usize::from(bank)].activates += 1;
                        }
                    }
                }
                if let Some(g) = group_of {
                    rank.next_col_rank = rank.next_col_rank.max(now + u64::from(t.t_ccd));
                    rank.group_next_col[g] = rank.group_next_col[g].max(now + u64::from(t.t_ccd_l));
                }
                self.bus_free_at = data_end;
                self.last_burst_rank = Some(rank_idx);
                self.last_burst_write = false;
                self.stats.reads += 1;
                self.stats.per_bank[usize::from(bank)].reads += 1;
                self.stats.read_bus_cycles += u64::from(t.t_burst);
                IssueOutcome { data_start: Some(data_start), data_end: Some(data_end) }
            }
            Command::Write { bank, auto_pre, .. } => {
                let data_start = now + u64::from(t.t_wl);
                let data_end = data_start + u64::from(t.t_burst);
                {
                    if t.t_wtr > 0 {
                        rank.read_after_write_ok =
                            rank.read_after_write_ok.max(data_end + u64::from(t.t_wtr));
                    }
                    let b = rank.bank_mut(bank);
                    match addressing {
                        AddressingStyle::RasCas => {
                            b.next_read = b.next_read.max(now + u64::from(t.t_ccd));
                            b.next_write = b.next_write.max(now + u64::from(t.t_ccd));
                            b.next_pre = b.next_pre.max(data_end + u64::from(t.t_wr));
                            if auto_pre {
                                let pre_at = (data_end + u64::from(t.t_wr))
                                    .max(b.last_act_at + u64::from(t.t_ras));
                                rank.apply_auto_precharge(bank, pre_at, t.t_rp);
                            }
                        }
                        AddressingStyle::SingleCommand => {
                            b.next_act = now + u64::from(t.t_rc);
                            self.stats.activates += 1;
                            self.stats.per_bank[usize::from(bank)].activates += 1;
                        }
                    }
                }
                if let Some(g) = group_of {
                    rank.next_col_rank = rank.next_col_rank.max(now + u64::from(t.t_ccd));
                    rank.group_next_col[g] = rank.group_next_col[g].max(now + u64::from(t.t_ccd_l));
                }
                self.bus_free_at = data_end;
                self.last_burst_rank = Some(rank_idx);
                self.last_burst_write = true;
                self.stats.writes += 1;
                self.stats.per_bank[usize::from(bank)].writes += 1;
                self.stats.write_bus_cycles += u64::from(t.t_burst);
                IssueOutcome { data_start: Some(data_start), data_end: Some(data_end) }
            }
            Command::Precharge { bank, .. } => {
                rank.apply_precharge(bank, now, t.t_rp);
                self.stats.precharges += 1;
                IssueOutcome { data_start: None, data_end: None }
            }
            Command::Refresh { .. } => {
                let until = now + u64::from(t.t_rfc);
                for b in 0..self.cfg.geometry.banks {
                    rank.bank_mut(b as u8).block_until(until);
                }
                rank.next_cmd_ok = rank.next_cmd_ok.max(until);
                self.stats.refreshes += 1;
                IssueOutcome { data_start: None, data_end: None }
            }
            Command::RefreshBank { bank, .. } => {
                rank.bank_mut(bank).block_until(now + u64::from(t.t_rfc));
                self.stats.refreshes += 1;
                IssueOutcome { data_start: None, data_end: None }
            }
        }
    }

    /// Idle-state management: if an idle rank has been idle long enough,
    /// drop it into power-down or self-refresh per the device's sleep
    /// policy ([`Rank::sleep_at`]). Returns `true` if a state change
    /// happened for `rank`.
    pub fn maybe_sleep(&mut self, rank: u8, now: u64) -> bool {
        let r = &mut self.ranks[usize::from(rank)];
        if r.sleep_at(&self.cfg).is_none_or(|at| now < at) {
            return false;
        }
        if r.power_state() == PowerState::PowerDown {
            // Escalate: wake (instantaneous model for the CKE toggle) then
            // drop to self-refresh.
            r.wake(now, &self.cfg);
            r.enter_self_refresh(now);
        } else {
            r.enter_powerdown(now);
        }
        let state = r.power_state();
        // The PD→SR escalation path goes through `Rank::wake`, which can
        // move `next_cmd_ok` — invalidate the memoized bounds.
        self.bump_rank_gen(rank);
        if let Some(log) = &mut self.power_log {
            log.push((now, rank, state));
        }
        true
    }

    /// Wake `rank` so commands become legal; returns the ready cycle.
    pub fn wake_rank(&mut self, rank: u8, now: u64) -> u64 {
        self.bump_rank_gen(rank);
        let r = &mut self.ranks[usize::from(rank)];
        let was = r.power_state();
        let ready = r.wake(now, &self.cfg);
        if was != PowerState::Up {
            if let Some(log) = &mut self.power_log {
                log.push((now, rank, PowerState::Up));
            }
        }
        ready
    }

    /// Does any bank in `rank` hold an open row different from `row`?
    /// Used by the controller for conflict classification.
    #[must_use]
    pub fn bank_state(&self, rank: u8, bank: u8) -> BankState {
        self.ranks[usize::from(rank)].bank(bank).state()
    }
}

impl Channel {
    /// Serialize the channel's mutable state (ranks, bus bookkeeping,
    /// statistics, audit logs). The device config is rebuilt on restore
    /// and the issue-bound memo cache is reset — it is a pure cache
    /// whose entries are revalidated by generation counters.
    pub fn save_state(&self, w: &mut cwf_ckpt::Writer) {
        let Channel {
            cfg: _,
            ranks,
            bus_free_at,
            last_burst_rank,
            last_burst_write,
            stats,
            rank_gen,
            bus_gen,
            memo: _,
            log,
            power_log,
        } = self;
        w.section(b"CHAN");
        cwf_ckpt::Ckpt::save(ranks, w);
        cwf_ckpt::Ckpt::save(bus_free_at, w);
        cwf_ckpt::Ckpt::save(last_burst_rank, w);
        cwf_ckpt::Ckpt::save(last_burst_write, w);
        cwf_ckpt::Ckpt::save(stats, w);
        cwf_ckpt::Ckpt::save(rank_gen, w);
        cwf_ckpt::Ckpt::save(bus_gen, w);
        cwf_ckpt::Ckpt::save(log, w);
        cwf_ckpt::Ckpt::save(power_log, w);
    }

    /// Restore state saved by [`Channel::save_state`] into a freshly
    /// constructed channel for the same device config.
    ///
    /// # Errors
    ///
    /// Fails on malformed input or a rank-count mismatch.
    pub fn load_state(&mut self, r: &mut cwf_ckpt::Reader<'_>) -> cwf_ckpt::Result<()> {
        r.expect_section(b"CHAN")?;
        let ranks: Vec<Rank> = cwf_ckpt::Ckpt::load(r)?;
        if ranks.len() != self.ranks.len() {
            return Err(cwf_ckpt::CkptError::new("rank count mismatch"));
        }
        self.ranks = ranks;
        self.bus_free_at = cwf_ckpt::Ckpt::load(r)?;
        self.last_burst_rank = cwf_ckpt::Ckpt::load(r)?;
        self.last_burst_write = cwf_ckpt::Ckpt::load(r)?;
        self.stats = cwf_ckpt::Ckpt::load(r)?;
        self.rank_gen = cwf_ckpt::Ckpt::load(r)?;
        self.bus_gen = cwf_ckpt::Ckpt::load(r)?;
        self.log = cwf_ckpt::Ckpt::load(r)?;
        self.power_log = cwf_ckpt::Ckpt::load(r)?;
        self.memo.iter_mut().for_each(|m| *m.get_mut() = MemoSlot::EMPTY);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DeviceConfig;

    fn ddr3() -> Channel {
        Channel::new(DeviceConfig::ddr3_1600(), 2)
    }

    #[test]
    fn read_needs_matching_open_row() {
        let mut ch = ddr3();
        assert_eq!(ch.earliest_issue(&Command::read(0, 0, 5, false), 0), None);
        ch.issue(&Command::activate(0, 0, 5), 0);
        assert!(ch.earliest_issue(&Command::read(0, 0, 5, false), 0).is_some());
        assert_eq!(ch.earliest_issue(&Command::read(0, 0, 6, false), 0), None);
    }

    #[test]
    fn act_to_read_spacing_is_trcd() {
        let mut ch = ddr3();
        ch.issue(&Command::activate(0, 0, 5), 10);
        let rd = Command::read(0, 0, 5, false);
        assert_eq!(ch.earliest_issue(&rd, 10), Some(10 + 11));
    }

    #[test]
    fn back_to_back_reads_same_rank_are_tccd_apart() {
        let mut ch = ddr3();
        ch.issue(&Command::activate(0, 0, 5), 0);
        ch.issue(&Command::activate(0, 1, 9), 5);
        // Start after both banks' tRCD windows have elapsed.
        let t0 = ch.earliest_issue(&Command::read(0, 0, 5, false), 16).unwrap();
        ch.issue(&Command::read(0, 0, 5, false), t0);
        let t1 = ch.earliest_issue(&Command::read(0, 1, 9, false), t0).unwrap();
        // Same rank, same direction: gap limited by burst occupancy (tCCD=4).
        assert_eq!(t1 - t0, 4);
    }

    #[test]
    fn rank_switch_adds_trtrs() {
        let mut ch = ddr3();
        ch.issue(&Command::activate(0, 0, 5), 0);
        ch.issue(&Command::activate(1, 0, 5), 5);
        let t0 = 11;
        ch.issue(&Command::read(0, 0, 5, false), t0);
        let t1 = ch.earliest_issue(&Command::read(1, 0, 5, false), t0).unwrap();
        // Burst must start tRTRS after the previous burst ends.
        assert_eq!(t1 - t0, 4 + 2);
    }

    #[test]
    fn write_to_read_same_rank_pays_twtr() {
        let mut ch = ddr3();
        let t = DeviceConfig::ddr3_1600().timings;
        ch.issue(&Command::activate(0, 0, 5), 0);
        let wr_at = ch.earliest_issue(&Command::write(0, 0, 5, false), 11).unwrap();
        ch.issue(&Command::write(0, 0, 5, false), wr_at);
        let rd_at = ch.earliest_issue(&Command::read(0, 0, 5, false), wr_at).unwrap();
        let write_burst_end = wr_at + u64::from(t.t_wl + t.t_burst);
        assert_eq!(rd_at, write_burst_end + u64::from(t.t_wtr));
    }

    #[test]
    fn faw_blocks_fifth_activate() {
        let mut ch = ddr3();
        let mut now = 0;
        for b in 0..4u8 {
            let act = Command::activate(0, b, 1);
            now = ch.earliest_issue(&act, now).unwrap();
            ch.issue(&act, now);
        }
        let fifth = Command::activate(0, 4, 1);
        let t5 = ch.earliest_issue(&fifth, now).unwrap();
        assert_eq!(t5, 32, "fifth ACT waits for the tFAW window");
    }

    #[test]
    fn rldram_single_command_read_turnaround() {
        let cfg = DeviceConfig::rldram3();
        let mut ch = Channel::new(cfg, 1);
        let rd = Command::read(0, 0, 99, true);
        assert_eq!(ch.earliest_issue(&rd, 0), Some(0));
        let out = ch.issue(&rd, 0);
        assert_eq!(out.data_start, Some(8));
        assert_eq!(out.data_end, Some(12));
        // Same bank blocked for tRC; other banks free (modulo the bus).
        assert_eq!(ch.earliest_issue(&Command::read(0, 0, 5, true), 1), Some(10));
        let other = ch.earliest_issue(&Command::read(0, 1, 5, true), 1).unwrap();
        assert_eq!(other, 4, "other bank limited only by burst occupancy");
    }

    #[test]
    fn rldram_rejects_explicit_activate() {
        let ch = Channel::new(DeviceConfig::rldram3(), 1);
        assert_eq!(ch.earliest_issue(&Command::activate(0, 0, 1), 0), None);
    }

    #[test]
    fn rldram_write_to_read_has_no_twtr() {
        let cfg = DeviceConfig::rldram3();
        let t = cfg.timings;
        let mut ch = Channel::new(cfg, 1);
        ch.issue(&Command::write(0, 0, 1, true), 0);
        let rd = ch.earliest_issue(&Command::read(0, 1, 2, true), 0).unwrap();
        // Only the bus turnaround applies: write burst end + tRTRS - tRL.
        let write_end = u64::from(t.t_wl + t.t_burst);
        assert_eq!(rd, (write_end + u64::from(t.t_rtrs)).saturating_sub(u64::from(t.t_rl)));
    }

    #[test]
    fn refresh_blocks_rank_for_trfc() {
        let mut ch = ddr3();
        ch.issue(&Command::Refresh { rank: 0 }, 0);
        let act = Command::activate(0, 0, 1);
        assert_eq!(ch.earliest_issue(&act, 0), Some(128));
    }

    #[test]
    fn refresh_requires_all_banks_closed() {
        let mut ch = ddr3();
        ch.issue(&Command::activate(0, 0, 1), 0);
        assert_eq!(ch.earliest_issue(&Command::Refresh { rank: 0 }, 0), None);
    }

    #[test]
    fn powered_down_rank_rejects_commands_until_woken() {
        let mut ch = ddr3();
        ch.rank_mut(0).enter_powerdown(0);
        assert_eq!(ch.earliest_issue(&Command::activate(0, 0, 1), 10), None);
        let ready = ch.wake_rank(0, 10);
        assert_eq!(ready, 10 + 5);
        assert_eq!(ch.earliest_issue(&Command::activate(0, 0, 1), 10), Some(15));
    }

    #[test]
    fn sleep_policy_escalates_to_self_refresh() {
        let mut ch = Channel::new(DeviceConfig::lpddr2_800(), 1);
        assert!(!ch.maybe_sleep(0, 5));
        assert!(ch.maybe_sleep(0, 12)); // fast PD after 12 idle cycles
        assert_eq!(ch.ranks()[0].power_state(), PowerState::PowerDown);
        assert!(ch.maybe_sleep(0, 650)); // deep sleep
        assert_eq!(ch.ranks()[0].power_state(), PowerState::SelfRefresh);
    }

    #[test]
    fn close_page_read_precharges_automatically() {
        let mut ch = ddr3();
        let t = DeviceConfig::ddr3_1600().timings;
        ch.issue(&Command::activate(0, 0, 5), 0);
        let rd_at = u64::from(t.t_rcd);
        ch.issue(&Command::read(0, 0, 5, true), rd_at);
        assert!(ch.ranks()[0].bank(0).is_idle());
        // next ACT must respect tRAS + tRP from the original activate.
        let next = ch.earliest_issue(&Command::activate(0, 0, 6), rd_at).unwrap();
        assert_eq!(next, u64::from(t.t_ras + t.t_rp));
    }
}
