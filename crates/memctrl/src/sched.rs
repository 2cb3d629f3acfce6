//! A per-channel FR-FCFS transaction scheduler (USIMM-style).
//!
//! The scheduler owns the channel's two transaction queues. Per device
//! cycle it issues at most one DRAM command, chosen by
//! First-Ready-First-Come-First-Served order:
//!
//! 1. oldest transaction whose **column** command is ready (row-buffer hit),
//! 2. oldest whose **activate** is ready,
//! 3. oldest needing a **precharge** (row conflict), provided no older
//!    queued transaction still wants the currently open row.
//!
//! Demand reads outrank prefetch reads until a prefetch exceeds the age
//! threshold, at which point it is promoted (paper §5). Writes are
//! scheduled in drain mode, entered above the high watermark and left at
//! the low watermark (Table 1: 48-entry queues, watermarks 32/16), or
//! opportunistically when the read queue is empty.
//!
//! One bucket walk, [`Scheduler::scan`], makes every decision: it picks
//! the command that can issue now, and when none can it yields the
//! earliest cycle one could. A round that issues nothing keeps that bound
//! as its idle bound, and the event kernel's wake bound reads the same
//! walk.

use std::cell::Cell;

use dram_timing::{AddressingStyle, BankState, Channel, Command, PagePolicy};

use crate::mapping::Loc;
use crate::refresh::RefreshUnit;
use crate::request::Token;
use crate::txnq::{Txn, TxnQueue};

/// Command kinds of a scheduler decision, and their index within a
/// class's three [`Scheduler::scan`] slots: column, activate, precharge.
const COL: usize = 0;
const ACT: usize = 1;
const PRE: usize = 2;
/// Offset of the prefetch class's slots (demand's start at 0).
const PREFETCH: usize = 3;

/// A scheduler decision: the queue (`true` for reads), the command kind
/// ([`COL`], [`ACT`] or [`PRE`]) and the transaction's queue slot.
type Pick = (bool, usize, u32);

/// Transaction scheduling policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SchedPolicy {
    /// First-Ready-FCFS: row hits jump ahead (the paper's policy, §5).
    FrFcfs,
    /// Strict in-order FCFS: only the oldest transaction's next command
    /// may issue (ablation baseline).
    Fcfs,
}

/// Tunable controller parameters (defaults follow the paper's Table 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CtrlParams {
    /// Read queue capacity.
    pub read_q_capacity: usize,
    /// Write queue capacity.
    pub write_q_capacity: usize,
    /// Enter write-drain mode at this write-queue occupancy.
    pub wq_high: usize,
    /// Leave write-drain mode at this occupancy.
    pub wq_low: usize,
    /// Prefetch age (device cycles) after which a prefetch read is promoted
    /// to demand priority.
    pub prefetch_promote_age: u64,
    /// Scheduling policy.
    pub policy: SchedPolicy,
}

impl Default for CtrlParams {
    fn default() -> Self {
        CtrlParams {
            read_q_capacity: 48,
            write_q_capacity: 48,
            wq_high: 32,
            wq_low: 16,
            prefetch_promote_age: 400,
            policy: SchedPolicy::FrFcfs,
        }
    }
}

/// A command a scheduler round issued, with its transaction as it stood
/// before the issue.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Issued {
    pub cmd: Command,
    pub txn: Txn,
    /// Device cycle after the last data beat (column commands).
    pub data_end: Option<u64>,
}

/// One [`Scheduler::scan`] of a queue.
struct Scan {
    reads: bool,
    /// Slot `class + kind` (class 0 for demand, [`PREFETCH`] for
    /// prefetch) holds the lowest-seq transaction whose command of that
    /// kind can issue now. A bound-only scan instead ends at the first
    /// bucket ready by `now + 1` and reports it in the first slot.
    slots: [Option<u32>; 6],
    /// Earliest cycle after now at which a bucket whose command cannot
    /// issue now could issue it: the queue's bound when `slots` is empty.
    next: u64,
}

impl Scan {
    /// The pass order's pick: demand column, activate, precharge, then
    /// the same for prefetch.
    fn pick(&self) -> Option<Pick> {
        self.slots
            .iter()
            .enumerate()
            .find_map(|(i, s)| s.map(|slot| (self.reads, i % PREFETCH, slot)))
    }

    /// A row-buffer hit of either class.
    fn row_hit(&self) -> Option<Pick> {
        self.slots[COL].or(self.slots[PREFETCH + COL]).map(|slot| (self.reads, COL, slot))
    }
}

/// One channel's transaction scheduler: the queues, the write-drain mode
/// and the cached idle bound.
#[derive(Debug)]
pub(crate) struct Scheduler {
    params: CtrlParams,
    read_q: TxnQueue,
    write_q: TxnQueue,
    drain: bool,
    /// Cached "no scheduler action before this cycle" bound: while `now`
    /// is strictly below it, [`Self::tick`] skips the drain-hysteresis
    /// check and the whole selection round. Set by a round that issues
    /// nothing; reset to 0 (unknown) by anything that can create or
    /// accelerate a candidate — an enqueue, any command issue, or a rank
    /// wake.
    pub(crate) idle_until: u64,
    /// The bound [`Self::next_activity`] last derived while `idle_until`
    /// had lapsed, kept for [`Self::settle`] to store instead of scanning
    /// again. Every `&mut` entry that can change a scanned input clears
    /// it. Not checkpointed.
    pub(crate) fold: Cell<Option<u64>>,
    next_token: u64,
}

impl Scheduler {
    pub(crate) fn new(params: CtrlParams, ranks: u32, banks: u32) -> Self {
        Scheduler {
            params,
            read_q: TxnQueue::new(ranks, banks),
            write_q: TxnQueue::new(ranks, banks),
            drain: false,
            idle_until: 0,
            fold: Cell::new(None),
            next_token: 0,
        }
    }

    pub(crate) fn read_space(&self) -> bool {
        self.read_q.len() < self.params.read_q_capacity
    }

    pub(crate) fn write_space(&self) -> bool {
        self.write_q.len() < self.params.write_q_capacity
    }

    /// Read- and write-queue occupancy.
    pub(crate) fn queue_lens(&self) -> (usize, usize) {
        (self.read_q.len(), self.write_q.len())
    }

    /// True while the scheduler is in write-drain mode.
    pub(crate) fn draining(&self) -> bool {
        self.drain
    }

    /// Does either queue hold a transaction for `rank`?
    pub(crate) fn rank_busy(&self, rank: usize) -> bool {
        self.read_q.rank_busy(rank) || self.write_q.rank_busy(rank)
    }

    /// Queue a read; `false` when the read queue is full.
    pub(crate) fn enqueue_read(&mut self, token: Token, loc: Loc, prefetch: bool, at: u64) -> bool {
        if !self.read_space() {
            return false;
        }
        self.read_q.push(token, loc, prefetch, at);
        self.invalidate();
        true
    }

    /// Queue a writeback under a fresh internal token; `false` when the
    /// write queue is full.
    pub(crate) fn enqueue_write(&mut self, loc: Loc, at: u64) -> bool {
        if !self.write_space() {
            return false;
        }
        let token = Token(u64::MAX - self.next_token);
        self.next_token += 1;
        self.write_q.push(token, loc, false, at);
        self.invalidate();
        true
    }

    /// Forget the idle bound and the kept fold: something may have made a
    /// candidate issuable earlier.
    pub(crate) fn invalidate(&mut self) {
        self.idle_until = 0;
        self.forget_fold();
    }

    pub(crate) fn forget_fold(&self) {
        self.fold.set(None);
    }

    /// Serialize the `SCHD` block: both queues, the drain mode, the idle
    /// bound and the write-token counter. The params are config and the
    /// fold a cache; neither is encoded.
    pub(crate) fn save_state(&self, w: &mut cwf_ckpt::Writer) {
        let Scheduler { params: _, read_q, write_q, drain, idle_until, fold: _, next_token } = self;
        w.section(b"SCHD");
        cwf_ckpt::Ckpt::save(read_q, w);
        cwf_ckpt::Ckpt::save(write_q, w);
        cwf_ckpt::Ckpt::save(drain, w);
        cwf_ckpt::Ckpt::save(idle_until, w);
        cwf_ckpt::Ckpt::save(next_token, w);
    }

    /// Restore the block [`Self::save_state`] wrote.
    pub(crate) fn load_state(&mut self, r: &mut cwf_ckpt::Reader<'_>) -> cwf_ckpt::Result<()> {
        r.expect_section(b"SCHD")?;
        self.forget_fold();
        self.read_q = cwf_ckpt::Ckpt::load(r)?;
        self.write_q = cwf_ckpt::Ckpt::load(r)?;
        self.drain = cwf_ckpt::Ckpt::load(r)?;
        self.idle_until = cwf_ckpt::Ckpt::load(r)?;
        self.next_token = cwf_ckpt::Ckpt::load(r)?;
        Ok(())
    }

    /// One scheduler round at `now`: apply the write-drain hysteresis,
    /// then issue the round's decision, or keep the round's bound as the
    /// idle bound when nothing can issue.
    pub(crate) fn tick(
        &mut self,
        ch: &mut Channel,
        refresh: &RefreshUnit,
        now: u64,
    ) -> Option<Issued> {
        if now < self.idle_until {
            return None;
        }
        self.drain = self.drain_next();
        match self.round(ch, refresh, now, false) {
            Ok(pick) => {
                self.idle_until = 0;
                Some(self.issue(ch, now, pick))
            }
            Err(next) => {
                self.idle_until = next;
                None
            }
        }
    }

    /// Leave the scheduler exactly as a [`Self::tick`] that finds nothing
    /// to do would: a lapsed idle bound is re-derived, from the fold
    /// [`Self::next_activity`] kept when it kept one.
    ///
    /// The fold ran at some t0 < `now`, nothing has changed the channel
    /// since, and the caller's wake bound, which does not exceed the fold,
    /// is above `now`. So every scanned candidate's ready cycle is above
    /// `now` and reads the same at `now` as at t0, and no busy rank's
    /// refresh deadline (folded into the wake bound too) has passed: a
    /// fresh scan returns the same value.
    pub(crate) fn settle(&mut self, ch: &Channel, refresh: &RefreshUnit, now: u64) {
        if now >= self.idle_until {
            self.idle_until = match self.fold.take() {
                Some(bound) => {
                    debug_assert_eq!(bound, self.bound(ch, refresh, now), "stale scheduler fold");
                    bound
                }
                None => self.bound(ch, refresh, now),
            };
        }
    }

    /// Earliest device cycle after `now` at which [`Self::tick`] could
    /// issue or flip the drain mode, or `u64::MAX` when it never will
    /// absent new transactions. A bound derived afresh is kept for
    /// [`Self::settle`].
    pub(crate) fn next_activity(&self, ch: &Channel, refresh: &RefreshUnit, now: u64) -> u64 {
        let bound = self.bound(ch, refresh, now);
        self.fold.set((now >= self.idle_until).then_some(bound));
        bound
    }

    fn bound(&self, ch: &Channel, refresh: &RefreshUnit, now: u64) -> u64 {
        // A still-valid idle bound is exact: every scanned candidate is an
        // absolute cycle, and invalidation resets it to 0.
        if now < self.idle_until {
            return self.idle_until;
        }
        // A pending write-drain hysteresis flip is applied (and traced) on
        // the next command-slot tick.
        if self.drain_next() != self.drain {
            return now + 1;
        }
        self.round(ch, refresh, now, true).err().unwrap_or(now + 1)
    }

    /// The write-drain mode after this cycle's hysteresis check.
    fn drain_next(&self) -> bool {
        let wq = self.write_q.len();
        if wq >= self.params.wq_high {
            true
        } else if wq <= self.params.wq_low {
            false
        } else {
            self.drain
        }
    }

    /// The command a round issues under the current drain mode or, when
    /// none can issue now, the earliest cycle after `now` one could.
    ///
    /// Outside drain mode the read queue goes first, or the write queue
    /// when no read waits. In drain mode the write queue goes first, then
    /// the read queue — except that a read whose row is already open (a
    /// row-buffer hit) may bypass the drain: it costs the write stream
    /// almost nothing and avoids multi-hundred-cycle read blackouts. When
    /// the write queue is nearly overflowing, writes go unconditionally
    /// first. Each queue is scanned at most once. With `bound_only` the
    /// caller wants only the bound, so a scan may stop at the first bucket
    /// ready by `now + 1` and report it as the pick.
    fn round(
        &self,
        ch: &Channel,
        refresh: &RefreshUnit,
        now: u64,
        bound_only: bool,
    ) -> Result<Pick, u64> {
        // The FR-FCFS (or strict FCFS) decision over one queue, or the
        // earliest cycle after `now` one could issue; `scan` is the
        // queue's scan at `now` when the round already made one.
        let pick = |reads: bool, scan: Option<Scan>| {
            if self.queue(reads).is_empty() {
                return Err(u64::MAX);
            }
            if self.params.policy == SchedPolicy::Fcfs {
                // The strict-FCFS ablation gains little from exact bounds;
                // it ticks every cycle while work is queued.
                return self.pick_fcfs(ch, refresh, now, reads).ok_or(now + 1);
            }
            let scan = scan.unwrap_or_else(|| self.scan(ch, refresh, now, reads, bound_only));
            scan.pick().ok_or(scan.next)
        };
        if !self.drain {
            return pick(!self.read_q.is_empty(), None);
        }
        let urgent = self.write_q.len() + 2 >= self.params.write_q_capacity;
        let reads = (!urgent).then(|| self.scan(ch, refresh, now, true, bound_only));
        if let Some(hit) = reads.as_ref().and_then(Scan::row_hit) {
            return Ok(hit);
        }
        pick(false, None).or_else(|writes| pick(true, reads).map_err(|r| writes.min(r)))
    }

    /// Strict FCFS: only the oldest transaction may make progress.
    fn pick_fcfs(
        &self,
        ch: &Channel,
        refresh: &RefreshUnit,
        now: u64,
        reads: bool,
    ) -> Option<Pick> {
        let (slot, t) = self.queue(reads).oldest().expect("non-empty queue");
        let loc = t.loc;
        if refresh.blocked(loc.rank, now) {
            return None;
        }
        let cfg = ch.config();
        if ch.can_issue(&column_cmd(t, reads, cfg.page_policy == PagePolicy::Closed), now) {
            return Some((reads, COL, slot));
        }
        if cfg.addressing == AddressingStyle::RasCas {
            match ch.bank_state(loc.rank, loc.bank) {
                BankState::Idle => {
                    let act = Command::activate(loc.rank, loc.bank, loc.row);
                    if ch.can_issue(&act, now) {
                        return Some((reads, ACT, slot));
                    }
                }
                BankState::Active { row } if row != loc.row => {
                    let pre = Command::precharge(loc.rank, loc.bank);
                    if ch.can_issue(&pre, now) {
                        return Some((reads, PRE, slot));
                    }
                }
                BankState::Active { .. } => {}
            }
        }
        None
    }

    fn queue(&self, reads: bool) -> &TxnQueue {
        if reads {
            &self.read_q
        } else {
            &self.write_q
        }
    }

    /// True when `txn` currently counts as demand priority.
    fn is_demand(&self, txn: &Txn, now: u64) -> bool {
        !txn.prefetch || now.saturating_sub(txn.enqueue_mem) >= self.params.prefetch_promote_age
    }

    /// One walk over a queue's busy buckets that finds every FR-FCFS
    /// candidate at once, and the queue's bound when none can issue now.
    ///
    /// A bucket offers one command kind:
    ///
    /// - column: to the open row when an entry targets it, or to any
    ///   entry's row on a single-command device (whose banks are always
    ///   idle);
    /// - activate: of an idle bank;
    /// - precharge: of an open bank no entry targets. Only the queue
    ///   being scanned may veto, so a parked write cannot block read-side
    ///   precharges.
    ///
    /// Neither legality nor the timing bound of a command depends on the
    /// row, so one `earliest_issue` probe decides the bucket. A bucket
    /// that cannot issue now folds its ready cycle into [`Scan::next`].
    /// One that can offers, per class, its first entry the command serves
    /// (on an open bank, its first entry targeting the open row), which
    /// takes its slot when it is older than the incumbent. A bucket is
    /// skipped unprobed once it cannot beat any incumbent; that needs
    /// filled slots, so a scan that picks nothing has probed every bucket.
    fn scan(
        &self,
        ch: &Channel,
        refresh: &RefreshUnit,
        now: u64,
        reads: bool,
        bound_only: bool,
    ) -> Scan {
        let q = self.queue(reads);
        let cfg = ch.config();
        let auto_pre = cfg.page_policy == PagePolicy::Closed;
        let single = cfg.addressing == AddressingStyle::SingleCommand;
        // Writes have one class.
        let classes = if reads { 2 } else { 1 };
        // Per slot, the incumbent's seq (`u64::MAX` while empty).
        let mut seqs = [u64::MAX; 6];
        let mut scan = Scan { reads, slots: [None; 6], next: u64::MAX };
        for r in 0..ch.ranks().len() {
            let r8 = r as u8;
            if !q.rank_busy(r) || refresh.blocked(r8, now) {
                continue;
            }
            let mut mask = q.busy_banks(r);
            while mask != 0 {
                let b = mask.trailing_zeros() as u8;
                mask &= mask - 1;
                let (front_slot, front) =
                    q.bucket(r8, b).next().expect("a busy bucket has an entry");
                let (kind, cmd, open) = match ch.bank_state(r8, b) {
                    BankState::Active { row } if !single => {
                        match q.bucket(r8, b).find(|(_, t)| t.loc.row == row) {
                            Some((_, t)) => (COL, column_cmd(t, reads, auto_pre), Some(row)),
                            None => (PRE, Command::precharge(r8, b), None),
                        }
                    }
                    _ if single => (COL, column_cmd(front, reads, auto_pre), None),
                    _ => (ACT, Command::activate(r8, b, front.loc.row), None),
                };
                // The front is the bucket's oldest entry: when it is no older
                // than the incumbents of this kind, the bucket cannot change
                // the pick.
                if (0..classes).all(|c| seqs[c * PREFETCH + kind] < front.seq) {
                    continue;
                }
                match ch.earliest_issue(&cmd, now) {
                    // Only the bound is wanted, and it is `now + 1` whatever
                    // else is ready: end the scan with this bucket as its
                    // pick.
                    Some(at) if bound_only && at <= now + 1 => {
                        scan.slots[COL] = Some(front_slot);
                        return scan;
                    }
                    Some(at) if at == now => {}
                    Some(at) => {
                        scan.next = scan.next.min(at);
                        continue;
                    }
                    None => continue,
                }
                // Per class, the first entry the command serves.
                let mut cands: [Option<(u32, u64)>; 2] = [None; 2];
                for (slot, t) in q.bucket(r8, b) {
                    if open.is_none_or(|row| t.loc.row == row) {
                        let c = usize::from(!self.is_demand(t, now));
                        cands[c].get_or_insert((slot, t.seq));
                        if cands[..classes].iter().all(Option::is_some) {
                            break;
                        }
                    }
                }
                for (c, cand) in cands.into_iter().enumerate() {
                    let i = c * PREFETCH + kind;
                    if let Some((slot, seq)) = cand.filter(|&(_, seq)| seq < seqs[i]) {
                        seqs[i] = seq;
                        scan.slots[i] = Some(slot);
                    }
                }
            }
        }
        scan
    }

    /// Issue `pick` on the channel: a column command retires its
    /// transaction; an activate or precharge marks it classified.
    fn issue(&mut self, ch: &mut Channel, now: u64, (reads, kind, slot): Pick) -> Issued {
        let auto_pre = ch.config().page_policy == PagePolicy::Closed;
        let q = if reads { &mut self.read_q } else { &mut self.write_q };
        let txn = *q.get(slot);
        let Loc { rank, bank, row, .. } = txn.loc;
        let cmd = match kind {
            COL => column_cmd(&txn, reads, auto_pre),
            ACT => Command::activate(rank, bank, row),
            _ => Command::precharge(rank, bank),
        };
        if kind == COL {
            q.remove(slot);
        } else {
            q.get_mut(slot).classified = true;
        }
        let data_end = ch.issue(&cmd, now).data_end;
        Issued { cmd, txn, data_end }
    }
}

fn column_cmd(t: &Txn, reads: bool, auto_pre: bool) -> Command {
    if reads {
        Command::read(t.loc.rank, t.loc.bank, t.loc.row, auto_pre)
    } else {
        Command::write(t.loc.rank, t.loc.bank, t.loc.row, auto_pre)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dram_timing::DeviceConfig;

    /// The pre-index linear scans in global FCFS order, kept as the oracle
    /// for the pick-equivalence property tests: the bucket scan must select
    /// exactly the transaction these select.
    impl Scheduler {
        /// Assert that each of [`Self::scan`]'s six slots holds exactly the
        /// slot the linear finders pick, for both queues, and that the
        /// round's decision is the one they reach in the retired pass order.
        pub(crate) fn assert_picks_match_linear(
            &self,
            ch: &Channel,
            refresh: &RefreshUnit,
            now: u64,
        ) {
            for reads in [true, false] {
                let slots = self.scan(ch, refresh, now, reads, false).slots;
                for (class, demand) in [(0, true), (PREFETCH, false)] {
                    let linear = [
                        self.find_column_linear(ch, refresh, now, reads, demand),
                        self.find_activate_linear(ch, refresh, now, reads, demand),
                        self.find_conflict_precharge_linear(ch, refresh, now, reads, demand),
                    ];
                    for (kind, want) in linear.into_iter().enumerate() {
                        assert_eq!(
                            slots[class + kind],
                            want,
                            "slot {} diverged at {now} (reads={reads})",
                            class + kind
                        );
                    }
                }
            }
            assert_eq!(
                self.round(ch, refresh, now, false).ok(),
                self.round_pick_linear(ch, refresh, now),
                "round decision diverged at {now} (drain={})",
                self.drain
            );
        }

        /// Reference for [`Self::scan`]'s column slots: the linear scan in
        /// global FCFS order, for one class.
        fn find_column_linear(
            &self,
            ch: &Channel,
            refresh: &RefreshUnit,
            now: u64,
            reads: bool,
            demand: bool,
        ) -> Option<u32> {
            let auto_pre = ch.config().page_policy == PagePolicy::Closed;
            let q = self.queue(reads);
            for (slot, t) in q.ordered() {
                if refresh.blocked(t.loc.rank, now) || self.is_demand(&t, now) != demand {
                    continue;
                }
                if ch.config().addressing == AddressingStyle::RasCas {
                    match ch.bank_state(t.loc.rank, t.loc.bank) {
                        BankState::Active { row } if row == t.loc.row => {}
                        _ => continue,
                    }
                }
                let cmd = column_cmd(&t, reads, auto_pre);
                if ch.can_issue(&cmd, now) {
                    return Some(slot);
                }
            }
            None
        }

        /// Reference for [`Self::scan`]'s activate slots (linear FCFS scan);
        /// see [`Self::find_column_linear`].
        fn find_activate_linear(
            &self,
            ch: &Channel,
            refresh: &RefreshUnit,
            now: u64,
            reads: bool,
            demand: bool,
        ) -> Option<u32> {
            let q = self.queue(reads);
            for (slot, t) in q.ordered() {
                if refresh.blocked(t.loc.rank, now) || self.is_demand(&t, now) != demand {
                    continue;
                }
                if ch.bank_state(t.loc.rank, t.loc.bank) != BankState::Idle {
                    continue;
                }
                let cmd = Command::activate(t.loc.rank, t.loc.bank, t.loc.row);
                if ch.can_issue(&cmd, now) {
                    return Some(slot);
                }
            }
            None
        }

        /// Reference for [`Self::scan`]'s precharge slots (linear FCFS scan):
        /// an entry blocked by a conflicting open row; see
        /// [`Self::find_column_linear`].
        fn find_conflict_precharge_linear(
            &self,
            ch: &Channel,
            refresh: &RefreshUnit,
            now: u64,
            reads: bool,
            demand: bool,
        ) -> Option<u32> {
            let q = self.queue(reads);
            for (slot, t) in q.ordered() {
                if refresh.blocked(t.loc.rank, now) || self.is_demand(&t, now) != demand {
                    continue;
                }
                let open = match ch.bank_state(t.loc.rank, t.loc.bank) {
                    BankState::Active { row } if row != t.loc.row => row,
                    _ => continue,
                };
                // Same row-hit veto as the bucket scan: any same-queue entry
                // still targeting the open row protects it from precharge.
                let protected = q.ordered().iter().any(|(_, o)| {
                    o.loc.rank == t.loc.rank && o.loc.bank == t.loc.bank && o.loc.row == open
                });
                if protected {
                    continue;
                }
                let cmd = Command::precharge(t.loc.rank, t.loc.bank);
                if ch.can_issue(&cmd, now) {
                    return Some(slot);
                }
            }
            None
        }

        /// Reference for [`Self::round`] under FR-FCFS: the linear finders in
        /// the retired pass order — drain bypass (demand, then prefetch row
        /// hits), then per queue and class column, activate, precharge.
        fn round_pick_linear(&self, ch: &Channel, refresh: &RefreshUnit, now: u64) -> Option<Pick> {
            let pick = |reads: bool| {
                for demand in [true, false] {
                    if !reads && !demand {
                        break; // writes have a single class
                    }
                    if let Some(i) = self.find_column_linear(ch, refresh, now, reads, demand) {
                        return Some((reads, COL, i));
                    }
                    if ch.config().addressing == AddressingStyle::RasCas {
                        if let Some(i) = self.find_activate_linear(ch, refresh, now, reads, demand)
                        {
                            return Some((reads, ACT, i));
                        }
                        if let Some(i) =
                            self.find_conflict_precharge_linear(ch, refresh, now, reads, demand)
                        {
                            return Some((reads, PRE, i));
                        }
                    }
                }
                None
            };
            if !self.drain {
                return pick(!self.read_q.is_empty());
            }
            if self.write_q.len() + 2 < self.params.write_q_capacity {
                for demand in [true, false] {
                    if let Some(i) = self.find_column_linear(ch, refresh, now, true, demand) {
                        return Some((true, COL, i));
                    }
                }
            }
            pick(false).or_else(|| pick(true))
        }
    }

    /// Driven alone, the scheduler enters write drain when the write
    /// queue reaches the high watermark (32) and leaves it at the low
    /// watermark (16), with a read waiting throughout so writes only go
    /// out in drain mode.
    #[test]
    fn drain_enters_at_high_and_leaves_at_low_watermark() {
        let cfg = DeviceConfig::ddr3_1600();
        let mut ch = Channel::new(cfg.clone(), 1);
        let refresh = RefreshUnit::new(&cfg, 1);
        let mut s = Scheduler::new(CtrlParams::default(), 1, cfg.geometry.banks);
        // A waiting read keeps the writes from going out before drain mode.
        assert!(s.enqueue_read(Token(1), Loc { rank: 0, bank: 0, row: 900, col: 0 }, false, 0));
        for i in 0..31u32 {
            assert!(s.enqueue_write(Loc { rank: 0, bank: (i % 8) as u8, row: i, col: 0 }, 0));
        }
        let mut now = 0;
        s.tick(&mut ch, &refresh, now);
        assert!(!s.drain, "31 queued writes stay below the high watermark");
        assert!(s.enqueue_write(Loc { rank: 0, bank: 1, row: 31, col: 0 }, 0));
        now += 1;
        s.tick(&mut ch, &refresh, now);
        assert!(s.drain, "the 32nd queued write enters drain mode");
        let mut left_at = None;
        while left_at.is_none() && now < 20_000 {
            now += 1;
            let before = s.write_q.len();
            s.tick(&mut ch, &refresh, now);
            if !s.drain {
                left_at = Some(before);
            } else {
                assert!(before > 16, "still draining with {before} writes queued");
            }
        }
        assert_eq!(left_at, Some(16), "drain mode ends at the low watermark");
    }
}
