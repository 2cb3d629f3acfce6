//! One memory channel's controller (paper §5, Table 1).
//!
//! A [`Controller`] composes three decisions over one [`Channel`]: the
//! FR-FCFS transaction scheduler (`sched.rs`), the refresh unit
//! (`refresh.rs`) and the power-down glue, whose state lives in the
//! channel's ranks. Each decision is written once and read twice: by
//! [`Controller::tick_mem`], and by [`Controller::next_activity_mem`],
//! the event kernel's wake bound, which is the minimum of the scheduler,
//! refresh and power bounds.
//! Every observable act is appended once to one log, in the order the
//! controller acts, for the verify oracle and the tracer to read.

use dram_timing::{Channel, Command, DeviceConfig, DeviceKind, PagePolicy, PowerState};

use crate::audit::{Act, AuditRecord};
use crate::mapping::Loc;
use crate::refresh::RefreshUnit;
use crate::request::Token;
pub use crate::sched::{CtrlParams, SchedPolicy};
use crate::sched::{Issued, Scheduler};

/// A completed read, in device-cycle units (the owner converts to CPU
/// cycles using the channel's clock ratio).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReadCompletion {
    /// Transaction handle given at enqueue.
    pub token: Token,
    /// Device cycle after the last data beat.
    pub data_end_mem: u64,
    /// Cycles spent queued (enqueue to column command).
    pub queue_mem: u64,
    /// Cycles from column command to last beat (core/service latency).
    pub service_mem: u64,
}

/// End-of-run statistics for one controller.
#[derive(Debug, Clone)]
pub struct ControllerStats {
    /// Device flavor behind this channel.
    pub kind: DeviceKind,
    /// Reporting label, e.g. `"ddr3-ch0"`.
    pub label: String,
    /// DRAM chips that participate in each access on this channel (for
    /// power scaling: 9 on the baseline, 8 on LPDDR2, 1 on an x9 RLDRAM
    /// sub-channel).
    pub chips_per_access: u32,
    /// Total device cycles elapsed.
    pub mem_cycles: u64,
    /// Clock period of this device in picoseconds.
    pub t_ck_ps: u32,
    /// Channel command/bus counters.
    pub channel: dram_timing::ChannelStats,
    /// Rank power-state residency (summed over ranks).
    pub residency: dram_timing::Residency,
    /// Number of ranks (residency is a sum over them).
    pub ranks: u32,
    /// Reads completed.
    pub reads_done: u64,
    /// Writes completed.
    pub writes_done: u64,
    /// Sum of read queueing delays in nanoseconds.
    // cwf-lint: allow(float-accum) -- derived once from the integer cycle sum at snapshot time
    pub sum_queue_ns: f64,
    /// Sum of read service latencies in nanoseconds.
    // cwf-lint: allow(float-accum) -- derived once from the integer cycle sum at snapshot time
    pub sum_service_ns: f64,
    /// Histogram of end-to-end read latencies (enqueue to last data
    /// beat), in integer nanoseconds.
    pub read_lat_hist: dram_timing::stats::LatencyHist,
}

impl ControllerStats {
    /// Subtract an earlier snapshot of the *same* controller (warm-up
    /// exclusion). Identity fields (kind, label, geometry, clock) are
    /// kept from `self`; every counter, histogram and residency field is
    /// reduced by the snapshot's contribution.
    ///
    /// # Panics
    ///
    /// Panics (debug builds) if the snapshots are from different
    /// controllers (labels differ).
    pub fn sub(&mut self, earlier: &ControllerStats) {
        debug_assert_eq!(self.label, earlier.label, "controller delta across different channels");
        self.mem_cycles -= earlier.mem_cycles;
        self.channel.sub(&earlier.channel);
        self.residency.sub(&earlier.residency);
        self.reads_done -= earlier.reads_done;
        self.writes_done -= earlier.writes_done;
        self.sum_queue_ns -= earlier.sum_queue_ns;
        self.sum_service_ns -= earlier.sum_service_ns;
        self.read_lat_hist.sub(&earlier.read_lat_hist);
    }
}

/// One memory channel's controller: the channel, its scheduler and
/// refresh unit, the power glue, completions, statistics and the
/// observation log.
#[derive(Debug)]
pub struct Controller {
    label: String,
    chips_per_access: u32,
    channel: Channel,
    sched: Scheduler,
    refresh: RefreshUnit,
    completions: Vec<ReadCompletion>,
    mem_cycles: u64,
    reads_done: u64,
    writes_done: u64,
    sum_queue_mem: u64,
    sum_service_mem: u64,
    read_lat_hist: dram_timing::stats::LatencyHist,
    /// The observation log (`None` ⇒ observers off, one check per act).
    log: Option<ActLog>,
}

/// `(device cycle, act)` per observable act, in act order.
#[derive(Debug, Default)]
struct ActLog {
    acts: Vec<(u64, Act)>,
    /// Whether the request acts are logged too.
    requests: bool,
}

impl Controller {
    /// Create a controller over `ranks` ranks of `cfg` devices.
    #[must_use]
    pub fn new(cfg: DeviceConfig, ranks: u32, chips_per_access: u32, label: &str) -> Self {
        Self::with_params(cfg, ranks, chips_per_access, label, CtrlParams::default())
    }

    /// Create a controller with explicit queue parameters.
    #[must_use]
    pub fn with_params(
        cfg: DeviceConfig,
        ranks: u32,
        chips_per_access: u32,
        label: &str,
        params: CtrlParams,
    ) -> Self {
        Controller {
            label: label.to_owned(),
            chips_per_access,
            sched: Scheduler::new(params, ranks, cfg.geometry.banks),
            refresh: RefreshUnit::new(&cfg, ranks),
            channel: Channel::new(cfg, ranks),
            completions: Vec::new(),
            mem_cycles: 0,
            reads_done: 0,
            writes_done: 0,
            sum_queue_mem: 0,
            sum_service_mem: 0,
            read_lat_hist: dram_timing::stats::LatencyHist::default(),
            log: None,
        }
    }

    /// Start logging this controller's power changes and commands as
    /// [`Act`]s, in the order it acts, and its request acts (enqueue,
    /// drain flip, data end) too when `requests`. Enabling again only
    /// adds.
    pub fn enable_log(&mut self, requests: bool) {
        self.log.get_or_insert_with(ActLog::default).requests |= requests;
    }

    /// Pass the acts logged since the last call to `visit`, in act order,
    /// as records of global channel index `channel` (the
    /// [`crate::audit::ChannelDesc`] numbering). Passes nothing unless
    /// [`Controller::enable_log`] was called.
    pub fn drain_log(&mut self, channel: usize, mut visit: impl FnMut(AuditRecord)) {
        if let Some(log) = &mut self.log {
            for (at_mem, act) in log.acts.drain(..) {
                visit(AuditRecord::Act { channel, at_mem, act });
            }
        }
    }

    /// Append `act` at device cycle `at` while logging is on (a request
    /// act only while requests are logged).
    fn note(&mut self, at: u64, act: Act) {
        if let Some(log) = &mut self.log {
            let request = matches!(act, Act::Enqueue(_) | Act::Drain { .. } | Act::DataEnd(_));
            if log.requests || !request {
                log.acts.push((at, act));
            }
        }
    }

    /// Fault injection: silently drop the next `n` refresh obligations —
    /// each deadline is re-armed as if the refresh had issued, but no
    /// command goes to the devices. Exists solely so the verify oracle's
    /// seeded-fault tests can prove the refresh ledger is not vacuous.
    pub fn inject_drop_refresh(&mut self, n: u32) {
        self.refresh.fault_drop_refreshes = n;
    }

    /// Fault injection: make the next `n` refresh obligations behave like
    /// the pre-fix self-refresh branch — the deadline silently resets to
    /// `now + tREFI` with no REF issued and the rank fully awake. Exists
    /// solely so the seeded-fault tests can prove the refresh ledger
    /// catches that (since-fixed) behavior.
    pub fn inject_phantom_self_refresh(&mut self, n: u32) {
        self.refresh.fault_phantom_self_refresh = n;
    }

    /// Device configuration behind this channel.
    #[must_use]
    pub fn config(&self) -> &DeviceConfig {
        self.channel.config()
    }

    /// Reporting label given at construction (e.g. `"ddr3-ch0"`).
    #[must_use]
    pub fn label(&self) -> &str {
        &self.label
    }

    /// True if a read can currently be accepted.
    #[must_use]
    pub fn read_space(&self) -> bool {
        self.sched.read_space()
    }

    /// True if a write can currently be accepted.
    #[must_use]
    pub fn write_space(&self) -> bool {
        self.sched.write_space()
    }

    /// Current read-queue occupancy.
    #[must_use]
    pub fn read_q_len(&self) -> usize {
        self.sched.queue_lens().0
    }

    /// Current write-queue occupancy.
    #[must_use]
    pub fn write_q_len(&self) -> usize {
        self.sched.queue_lens().1
    }

    /// Enqueue a read transaction; returns `false` when the read queue is
    /// full.
    pub fn enqueue_read(
        &mut self,
        token: Token,
        loc: Loc,
        prefetch: bool,
        enqueue_mem: u64,
    ) -> bool {
        if !self.sched.enqueue_read(token, loc, prefetch, enqueue_mem) {
            return false;
        }
        self.note(enqueue_mem, Act::Enqueue(token));
        true
    }

    /// Enqueue a writeback; returns `false` when the write queue is full.
    pub fn enqueue_write(&mut self, loc: Loc, enqueue_mem: u64) -> bool {
        self.sched.enqueue_write(loc, enqueue_mem)
    }

    /// Take the read completions produced since the last call (the
    /// allocating form of [`Controller::drain_completions`]).
    pub fn take_completions(&mut self) -> Vec<ReadCompletion> {
        std::mem::take(&mut self.completions)
    }

    /// Drain the read completions produced since the last call, keeping
    /// the buffer for reuse.
    pub fn drain_completions(&mut self) -> std::vec::Drain<'_, ReadCompletion> {
        self.completions.drain(..)
    }

    /// Number of ranks behind this channel.
    #[must_use]
    pub fn ranks(&self) -> u32 {
        self.channel.ranks().len() as u32
    }

    /// Advance one device cycle. `cmd_allowed` is false when a shared
    /// address/command bus gave this cycle's slot to a sibling sub-channel
    /// (§4.2.4). Returns `true` iff a command was issued.
    pub fn tick_mem(&mut self, now: u64, cmd_allowed: bool) -> bool {
        self.sched.forget_fold();
        self.mem_cycles = self.mem_cycles.max(now + 1);
        self.manage_power(now);
        if !cmd_allowed {
            return false;
        }
        if let Some(issued) = self.refresh.tick(&mut self.channel, now) {
            self.sched.invalidate();
            if let Some(cmd) = issued {
                self.note(now, Act::RefreshCmd(cmd));
                return true;
            }
        }
        let draining = self.sched.draining();
        let issued = self.sched.tick(&mut self.channel, &self.refresh, now);
        if self.sched.draining() != draining {
            self.note(now, Act::Drain { enter: !draining });
        }
        let Some(issued) = issued else {
            return false;
        };
        self.record(now, issued);
        true
    }

    /// Leave the controller exactly as a `tick_mem(now, true)` that finds
    /// nothing to do would: the device-cycle counter advances and a lapsed
    /// scheduler idle bound is re-derived, from the bound the last
    /// [`Self::next_activity_mem`] kept when it kept one. Both are
    /// checkpointed, so a caller that skips a tick `next_activity_mem`
    /// proves idle must call this in its place to keep checkpoints
    /// byte-identical.
    pub(crate) fn settle_idle_tick(&mut self, now: u64) {
        self.mem_cycles = self.mem_cycles.max(now + 1);
        self.sched.settle(&self.channel, &self.refresh, now);
    }

    /// Wake ranks that have pending work or a refresh coming due; sleep
    /// ranks that have neither.
    fn manage_power(&mut self, now: u64) {
        for r in 0..self.channel.ranks().len() {
            let busy = self.sched.rank_busy(r);
            let refresh_due = self.refresh.due(&self.channel, r, now);
            let state = self.channel.ranks()[r].power_state();
            if busy || (refresh_due && state == PowerState::PowerDown) {
                if state != PowerState::Up {
                    self.channel.wake_rank(r as u8, now);
                    self.note(now, Act::Power { rank: r as u8, state: PowerState::Up });
                    if state == PowerState::SelfRefresh {
                        self.refresh.restart(r, now);
                    }
                    // A wake can pull scheduler candidates earlier.
                    self.sched.invalidate();
                }
            } else if !refresh_due
                && state != PowerState::SelfRefresh
                && self.channel.maybe_sleep(r as u8, now)
            {
                let state = self.channel.ranks()[r].power_state();
                self.note(now, Act::Power { rank: r as u8, state });
            }
        }
    }

    /// Earliest device cycle after `now` at which [`Self::manage_power`]
    /// acts: the next tick for a sleeping rank with queued work, or an
    /// idle rank's next sleep transition ([`dram_timing::Rank::sleep_at`])
    /// unless it falls in the refresh-due window, where the power manager
    /// sleeps no rank and the refresh bound covers the wake.
    fn power_bound(&self, now: u64) -> u64 {
        let mut next = u64::MAX;
        for (r, rank) in self.channel.ranks().iter().enumerate() {
            let at = if self.sched.rank_busy(r) {
                (rank.power_state() != PowerState::Up).then_some(now + 1)
            } else {
                rank.sleep_at(self.config()).filter(|&at| !self.refresh.due(&self.channel, r, at))
            };
            if let Some(at) = at {
                next = next.min(at.max(now + 1));
            }
        }
        next
    }

    /// Account for a command the scheduler issued: its row-buffer class,
    /// its acts and, for a read, the completion and latency.
    fn record(&mut self, now: u64, Issued { cmd, txn, data_end }: Issued) {
        if !txn.classified {
            let open_page = self.config().page_policy == PagePolicy::Open;
            let stats = self.channel.stats_mut();
            match cmd {
                Command::Activate { .. } => stats.row_misses += 1,
                Command::Precharge { .. } => stats.row_conflicts += 1,
                // A direct column command on an open-page device is a row
                // hit; on a close-page device every access pays the full
                // activate.
                _ if open_page => stats.row_hits += 1,
                _ => stats.row_misses += 1,
            }
        }
        let token = txn.token;
        self.note(now, Act::Cmd { cmd, token });
        match cmd {
            Command::Read { .. } => {
                let data_end = data_end.expect("read produces data");
                let timings = &self.channel.config().timings;
                self.reads_done += 1;
                let queue = now.saturating_sub(txn.enqueue_mem);
                let service = data_end - now;
                self.sum_queue_mem += queue;
                self.sum_service_mem += service;
                // Integer-ns bucketing keeps the histogram identical across
                // platforms (no float rounding in the hot path).
                self.read_lat_hist.record((queue + service) * u64::from(timings.t_ck_ps) / 1000);
                self.completions.push(ReadCompletion {
                    token,
                    data_end_mem: data_end,
                    queue_mem: queue,
                    service_mem: service,
                });
                self.note(data_end, Act::DataEnd(token));
            }
            Command::Write { .. } => self.writes_done += 1,
            _ => {}
        }
    }

    /// Earliest device cycle strictly after `now` at which [`tick_mem`]
    /// could do anything observable, or `None` when the controller is
    /// idle forever absent new transactions.
    ///
    /// The bound is the minimum of three, each read from the code its
    /// unit's tick runs: the scheduler's (the ready cycle of the command
    /// its next round would issue, or `now + 1` for a pending write-drain
    /// flip), the refresh unit's (a deadline, the wake of a powered-down
    /// rank ahead of it, or an overdue rank's refresh action) and the
    /// power glue's (a sleeping rank with queued work wakes next tick; an
    /// idle one sleeps at [`dram_timing::Rank::sleep_at`] unless that
    /// falls inside its refresh-due window). Pending completions give
    /// `now + 1`.
    ///
    /// Every candidate is clamped to `now + 1`. Waking *early* is always
    /// safe — `tick_mem` with nothing ready is a deterministic no-op —
    /// only waking late could diverge from the per-cycle kernel.
    ///
    /// [`tick_mem`]: Self::tick_mem
    #[must_use]
    pub fn next_activity_mem(&self, now: u64) -> Option<u64> {
        // An early return keeps no scheduler fold.
        self.sched.forget_fold();
        if !self.completions.is_empty() {
            return Some(now + 1);
        }
        let mut next = self.power_bound(now).min(self.refresh.next_activity(&self.channel, now));
        // Nothing beats the `now + 1` floor.
        if next > now + 1 {
            next = next.min(self.sched.next_activity(&self.channel, &self.refresh, now));
        }
        (next != u64::MAX).then_some(next)
    }

    /// Snapshot statistics, settling residency up to `now` device cycles.
    pub fn stats(&mut self, now: u64) -> ControllerStats {
        let cfg = self.channel.config();
        let (kind, t_ck_ps) = (cfg.kind, cfg.timings.t_ck_ps);
        let ns_per_cycle = f64::from(t_ck_ps) / 1000.0;
        ControllerStats {
            kind,
            label: self.label.clone(),
            chips_per_access: self.chips_per_access,
            mem_cycles: now.max(self.mem_cycles),
            t_ck_ps,
            channel: *self.channel.stats(),
            residency: self.channel.residency(now.max(self.mem_cycles)),
            ranks: self.channel.ranks().len() as u32,
            reads_done: self.reads_done,
            writes_done: self.writes_done,
            sum_queue_ns: self.sum_queue_mem as f64 * ns_per_cycle,
            sum_service_ns: self.sum_service_mem as f64 * ns_per_cycle,
            read_lat_hist: self.read_lat_hist,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dram_timing::DeviceConfig;
    use proptest::prelude::*;

    fn ddr3_ctrl() -> Controller {
        Controller::new(DeviceConfig::ddr3_1600(), 1, 9, "test")
    }

    fn run_until_done(ctrl: &mut Controller, max: u64) -> Vec<ReadCompletion> {
        let mut done = Vec::new();
        for now in 0..max {
            ctrl.tick_mem(now, true);
            done.extend(ctrl.drain_completions());
        }
        done
    }

    #[test]
    fn single_read_completes_with_miss_latency() {
        let mut c = ddr3_ctrl();
        let loc = Loc { rank: 0, bank: 0, row: 10, col: 0 };
        assert!(c.enqueue_read(Token(1), loc, false, 0));
        let done = run_until_done(&mut c, 200);
        assert_eq!(done.len(), 1);
        let t = DeviceConfig::ddr3_1600().timings;
        // ACT at 0, READ at tRCD, data end at tRCD + tRL + tBURST.
        assert_eq!(done[0].data_end_mem, u64::from(t.t_rcd + t.t_rl + t.t_burst));
        assert_eq!(done[0].token, Token(1));
    }

    #[test]
    fn row_hits_are_scheduled_first() {
        let mut c = ddr3_ctrl();
        // Two to the same row (different cols), one conflicting row, FCFS
        // order: conflict arrives between the two hits.
        assert!(c.enqueue_read(Token(1), Loc { rank: 0, bank: 0, row: 10, col: 0 }, false, 0));
        assert!(c.enqueue_read(Token(2), Loc { rank: 0, bank: 0, row: 99, col: 0 }, false, 0));
        assert!(c.enqueue_read(Token(3), Loc { rank: 0, bank: 0, row: 10, col: 4 }, false, 0));
        let done = run_until_done(&mut c, 400);
        assert_eq!(done.len(), 3);
        let order: Vec<Token> = done.iter().map(|d| d.token).collect();
        // FR-FCFS reorders token 3 (row hit) ahead of token 2 (conflict).
        assert_eq!(order, vec![Token(1), Token(3), Token(2)]);
        let stats = c.stats(400);
        assert_eq!(stats.channel.row_hits, 1);
        assert_eq!(stats.channel.row_conflicts, 1);
        assert_eq!(stats.channel.row_misses, 1);
    }

    #[test]
    fn demand_outranks_fresh_prefetch() {
        let mut c = ddr3_ctrl();
        assert!(c.enqueue_read(Token(1), Loc { rank: 0, bank: 0, row: 1, col: 0 }, true, 0));
        assert!(c.enqueue_read(Token(2), Loc { rank: 0, bank: 1, row: 1, col: 0 }, false, 0));
        let done = run_until_done(&mut c, 300);
        assert_eq!(done[0].token, Token(2), "demand first despite FCFS order");
    }

    #[test]
    fn old_prefetch_is_promoted() {
        let mut c = ddr3_ctrl();
        assert!(c.enqueue_read(Token(1), Loc { rank: 0, bank: 0, row: 1, col: 0 }, true, 0));
        // Age the prefetch past the promotion threshold with idle ticks...
        let mut now = 0;
        while now < 401 {
            // hold scheduling back by denying the command slot
            c.tick_mem(now, false);
            now += 1;
        }
        assert!(c.enqueue_read(Token(2), Loc { rank: 0, bank: 1, row: 1, col: 0 }, false, now));
        let mut done = Vec::new();
        for t in now..now + 300 {
            c.tick_mem(t, true);
            done.extend(c.drain_completions());
        }
        assert_eq!(done[0].token, Token(1), "aged prefetch keeps FCFS order");
    }

    #[test]
    fn write_drain_hysteresis() {
        let mut c = ddr3_ctrl();
        // Fill write queue to the high watermark.
        for i in 0..32u32 {
            assert!(c.enqueue_write(Loc { rank: 0, bank: (i % 8) as u8, row: i, col: 0 }, 0));
        }
        assert!(c.enqueue_read(Token(9), Loc { rank: 0, bank: 0, row: 500, col: 0 }, false, 0));
        // Drain mode must service writes below the low watermark before the
        // read goes out.
        let mut read_done_at = None;
        for now in 0..5_000 {
            c.tick_mem(now, true);
            for d in c.drain_completions() {
                read_done_at = Some((now, d));
            }
            if read_done_at.is_some() {
                break;
            }
        }
        let (_, _d) = read_done_at.expect("read eventually completes");
        assert!(c.write_q_len() <= 16, "drain ran to the low watermark");
    }

    #[test]
    fn refresh_happens_periodically() {
        let mut c = ddr3_ctrl();
        for now in 0..20_000 {
            c.tick_mem(now, true);
        }
        let s = c.stats(20_000);
        // 20000 cycles / tREFI(6240) ≈ 3 refreshes.
        assert!(s.channel.refreshes >= 2, "got {}", s.channel.refreshes);
    }

    #[test]
    fn rldram_reads_have_no_act() {
        let mut c = Controller::new(DeviceConfig::rldram3(), 1, 1, "rld");
        for i in 0..4u32 {
            assert!(c.enqueue_read(
                Token(u64::from(i)),
                Loc { rank: 0, bank: i as u8, row: i, col: 0 },
                false,
                0
            ));
        }
        let done = run_until_done(&mut c, 200);
        assert_eq!(done.len(), 4);
        let t = DeviceConfig::rldram3().timings;
        // First read issues at 0: data end at tRL + tBURST = 12; subsequent
        // ones pipeline on the data bus every tBURST cycles.
        assert_eq!(done[0].data_end_mem, u64::from(t.t_rl + t.t_burst));
        assert_eq!(done[1].data_end_mem - done[0].data_end_mem, u64::from(t.t_burst));
    }

    #[test]
    fn queue_capacity_is_enforced() {
        let mut c = ddr3_ctrl();
        for i in 0..48u64 {
            assert!(c.enqueue_read(
                Token(i),
                Loc { rank: 0, bank: 0, row: 1, col: i as u32 },
                false,
                0
            ));
        }
        assert!(!c.read_space());
        assert!(!c.enqueue_read(Token(99), Loc { rank: 0, bank: 0, row: 1, col: 0 }, false, 0));
    }

    #[test]
    fn idle_rank_powers_down_and_recovers() {
        let mut c = Controller::new(DeviceConfig::lpddr2_800(), 1, 8, "lp");
        for now in 0..100 {
            c.tick_mem(now, true);
        }
        let s = c.stats(100);
        assert!(s.residency.precharge_powerdown > 0, "rank slept while idle");
        // A late read still completes correctly after wake + tXP.
        assert!(c.enqueue_read(Token(1), Loc { rank: 0, bank: 0, row: 3, col: 1 }, false, 100));
        let mut done = Vec::new();
        for now in 100..400 {
            c.tick_mem(now, true);
            done.extend(c.drain_completions());
        }
        assert_eq!(done.len(), 1);
    }

    #[derive(Debug, Clone, Copy)]
    struct Item {
        rank: u8,
        bank: u8,
        row: u32,
        col: u32,
        write: bool,
        prefetch: bool,
        gap: u8,
    }

    /// Few rows and banks so buckets collect row hits, row conflicts
    /// and multi-entry FCFS chains instead of degenerating to one
    /// transaction per bank. Half the gaps are zero, so bursts fill
    /// the write queue past its high watermark and drain mode (with
    /// its row-hit read bypass) is probed too.
    fn item(ranks: u8, banks: u8) -> impl Strategy<Value = Item> {
        (0..ranks, 0..banks, 0u32..5, 0u32..64, prop::bool::ANY, prop::bool::ANY, 0u8..40).prop_map(
            |(rank, bank, row, col, write, prefetch, gap)| Item {
                rank,
                bank,
                row,
                col,
                write,
                prefetch,
                gap: gap.saturating_sub(20),
            },
        )
    }

    mod pick_equivalence {
        use super::*;

        /// At every cycle of a randomized run, the bucket scan's slots and
        /// the round's decision must match the retired linear scans
        /// (`Scheduler::assert_picks_match_linear`).
        fn assert_picks_match(cfg: DeviceConfig, ranks: u32, items: &[Item]) {
            let mut c = Controller::new(cfg, ranks, 8, "pick-eq");
            let mut now = 0u64;
            let mut tok = 0u64;
            let probe = |c: &Controller, now: u64| {
                c.sched.assert_picks_match_linear(&c.channel, &c.refresh, now)
            };
            for it in items {
                for _ in 0..it.gap {
                    probe(&c, now);
                    c.tick_mem(now, true);
                    now += 1;
                }
                let loc = Loc { rank: it.rank, bank: it.bank, row: it.row, col: it.col };
                if it.write {
                    let _ = c.enqueue_write(loc, now);
                } else if c.enqueue_read(Token(tok), loc, it.prefetch, now) {
                    tok += 1;
                }
            }
            // Drain across a refresh boundary so refresh_blocked ranks and
            // re-opened banks are probed too.
            for _ in 0..7_000 {
                probe(&c, now);
                c.tick_mem(now, true);
                c.drain_completions();
                now += 1;
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(12))]

            #[test]
            fn indexed_frfcfs_matches_linear_scan_ddr3(
                items in prop::collection::vec(item(2, 8), 1..96)
            ) {
                assert_picks_match(DeviceConfig::ddr3_1600(), 2, &items);
            }

            #[test]
            fn indexed_frfcfs_matches_linear_scan_rldram3(
                items in prop::collection::vec(item(1, 16), 1..96)
            ) {
                assert_picks_match(DeviceConfig::rldram3(), 1, &items);
            }

            #[test]
            fn indexed_frfcfs_matches_linear_scan_lpddr2(
                items in prop::collection::vec(item(1, 8), 1..96)
            ) {
                assert_picks_match(DeviceConfig::lpddr2_800(), 1, &items);
            }

            #[test]
            fn indexed_frfcfs_matches_linear_scan_ddr4(
                items in prop::collection::vec(item(1, 16), 1..96)
            ) {
                assert_picks_match(DeviceConfig::ddr4_2400(), 1, &items);
            }
        }
    }

    mod wake_bound {
        use super::*;

        fn bytes(c: &Controller) -> Vec<u8> {
            let mut w = cwf_ckpt::Writer::new();
            c.save_state(&mut w).expect("logging is off");
            w.into_vec()
        }

        /// Tick `cycle` at `now`; tick `event` only once its wake bound is
        /// due and settle it otherwise. A tick below the bound must leave
        /// the same checkpoint bytes as the settle. Returns `event`'s next
        /// wake bound.
        fn step(now: u64, cycle: &mut Controller, event: &mut Controller, wake: u64) -> u64 {
            cycle.tick_mem(now, true);
            if now >= wake {
                event.tick_mem(now, true);
            } else {
                event.settle_idle_tick(now);
            }
            assert!(bytes(cycle) == bytes(event), "woke late: cycle {now} is below bound {wake}");
            cycle.drain_completions();
            event.drain_completions();
            event.next_activity_mem(now).unwrap_or(u64::MAX)
        }

        /// Drive one controller at every cycle and a second only at its
        /// wake bounds, with power-down and self-refresh on, through the
        /// stream and then idle across refresh deadlines and sleep
        /// transitions.
        fn assert_never_late(mut cfg: DeviceConfig, ranks: u32, items: &[Item]) {
            cfg.powerdown_idle_cycles = cfg.powerdown_idle_cycles.max(12);
            cfg.self_refresh_idle_cycles = cfg.self_refresh_idle_cycles.max(600);
            let tail = u64::from(cfg.timings.t_refi) * 3 / 2 + 700;
            let mut cycle = Controller::new(cfg.clone(), ranks, 8, "cycle");
            let mut event = Controller::new(cfg, ranks, 8, "event");
            let mut now = 0u64;
            let mut wake = step(now, &mut cycle, &mut event, 0);
            let mut tok = 0u64;
            for it in items {
                // Enqueue after the cycle's tick, as the channel set does.
                let loc = Loc { rank: it.rank, bank: it.bank, row: it.row, col: it.col };
                if it.write {
                    assert_eq!(cycle.enqueue_write(loc, now), event.enqueue_write(loc, now));
                } else {
                    let accepted = cycle.enqueue_read(Token(tok), loc, it.prefetch, now);
                    assert_eq!(accepted, event.enqueue_read(Token(tok), loc, it.prefetch, now));
                    tok += u64::from(accepted);
                }
                wake = event.next_activity_mem(now).unwrap_or(u64::MAX);
                for _ in 0..=it.gap {
                    now += 1;
                    wake = step(now, &mut cycle, &mut event, wake);
                }
            }
            for _ in 0..tail {
                now += 1;
                wake = step(now, &mut cycle, &mut event, wake);
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(12))]

            #[test]
            fn wake_bound_is_never_late_ddr3(items in prop::collection::vec(item(2, 8), 1..96)) {
                assert_never_late(DeviceConfig::ddr3_1600(), 2, &items);
            }

            #[test]
            fn wake_bound_is_never_late_lpddr2(items in prop::collection::vec(item(2, 8), 1..96)) {
                assert_never_late(DeviceConfig::lpddr2_800(), 2, &items);
            }

            #[test]
            fn wake_bound_is_never_late_rldram3(
                items in prop::collection::vec(item(1, 16), 1..96)
            ) {
                assert_never_late(DeviceConfig::rldram3(), 1, &items);
            }

            #[test]
            fn wake_bound_is_never_late_ddr4(items in prop::collection::vec(item(1, 16), 1..96)) {
                assert_never_late(DeviceConfig::ddr4_2400(), 1, &items);
            }

            #[test]
            fn wake_bound_is_never_late_ddr5(items in prop::collection::vec(item(1, 32), 1..96)) {
                assert_never_late(DeviceConfig::ddr5_4800(), 1, &items);
            }

            #[test]
            fn wake_bound_is_never_late_lpddr4(
                items in prop::collection::vec(item(1, 8), 1..96)
            ) {
                assert_never_late(DeviceConfig::lpddr4_3200(), 1, &items);
            }
        }
    }

    /// A settle that stores the fold [`Controller::next_activity_mem`]
    /// kept leaves the controller byte for byte as one that folds again.
    #[test]
    fn settle_reuses_the_wake_fold() {
        let drive = || {
            let mut c = ddr3_ctrl();
            for i in 0..6u32 {
                let loc = Loc { rank: 0, bank: (i % 3) as u8, row: i, col: 0 };
                assert!(c.enqueue_read(Token(u64::from(i)), loc, false, 0));
            }
            assert!(c.enqueue_write(Loc { rank: 0, bank: 5, row: 9, col: 0 }, 0));
            // The first command issues and leaves the scheduler bound
            // lapsed (0).
            let mut now = 0;
            while !c.tick_mem(now, true) {
                now += 1;
            }
            (c, now)
        };
        let (mut kept, now) = drive();
        let (mut refolded, _) = drive();
        let wake = kept.next_activity_mem(now).expect("work is queued");
        assert_eq!(refolded.next_activity_mem(now), Some(wake));
        assert!(wake > now + 1, "the settle cycle must not be due (wake {wake}, now {now})");
        assert!(now >= kept.sched.idle_until, "the scheduler bound has lapsed");
        assert!(kept.sched.fold.get().is_some(), "the wake kept its scheduler fold");
        refolded.sched.forget_fold();
        kept.settle_idle_tick(wake - 1);
        refolded.settle_idle_tick(wake - 1);
        let bytes = |c: &Controller| {
            let mut w = cwf_ckpt::Writer::new();
            c.save_state(&mut w).expect("logging is off");
            w.into_vec()
        };
        assert_eq!(bytes(&kept), bytes(&refolded));
        assert_eq!(kept.sched.fold.get(), None, "the settle consumed the fold");
    }

    #[test]
    fn stats_latency_units_are_ns() {
        let mut c = ddr3_ctrl();
        assert!(c.enqueue_read(Token(1), Loc { rank: 0, bank: 0, row: 10, col: 0 }, false, 0));
        run_until_done(&mut c, 200);
        let s = c.stats(200);
        let t = DeviceConfig::ddr3_1600().timings;
        let expect_service_ns = f64::from(t.t_rl + t.t_burst) * 1.25;
        assert!((s.sum_service_ns - expect_service_ns).abs() < 1e-9);
    }
}

cwf_ckpt::ckpt_struct!(ReadCompletion { token, data_end_mem, queue_mem, service_mem });

cwf_ckpt::ckpt_struct!(ControllerStats {
    kind,
    label,
    chips_per_access,
    mem_cycles,
    t_ck_ps,
    channel,
    residency,
    ranks,
    reads_done,
    writes_done,
    sum_queue_ns,
    sum_service_ns,
    read_lat_hist,
});

impl Controller {
    /// Serialize the controller's mutable state: the channel, the
    /// scheduler's and the refresh unit's own blocks, then pending
    /// completions and statistics. Config (`DeviceConfig`, `CtrlParams`,
    /// label) is rebuilt on restore. Logging is configuration too
    /// (re-armed by [`Controller::enable_log`] on restore) and the log
    /// carries no state once drained, so observing doesn't block a
    /// checkpoint — but the caller must have drained the log first.
    ///
    /// # Errors
    ///
    /// Fails when the log holds undrained acts (they would be silently
    /// lost).
    pub fn save_state(&self, w: &mut cwf_ckpt::Writer) -> cwf_ckpt::Result<()> {
        let Controller {
            label: _,
            chips_per_access: _,
            channel,
            sched,
            refresh,
            completions,
            mem_cycles,
            reads_done,
            writes_done,
            sum_queue_mem,
            sum_service_mem,
            read_lat_hist,
            log,
        } = self;
        if log.as_ref().is_some_and(|l| !l.acts.is_empty()) {
            return Err(cwf_ckpt::CkptError::new(
                "cannot checkpoint a controller with undrained log entries",
            ));
        }
        w.section(b"CTRL");
        channel.save_state(w);
        sched.save_state(w);
        refresh.save_state(w);
        cwf_ckpt::Ckpt::save(completions, w);
        cwf_ckpt::Ckpt::save(mem_cycles, w);
        cwf_ckpt::Ckpt::save(reads_done, w);
        cwf_ckpt::Ckpt::save(writes_done, w);
        cwf_ckpt::Ckpt::save(sum_queue_mem, w);
        cwf_ckpt::Ckpt::save(sum_service_mem, w);
        cwf_ckpt::Ckpt::save(read_lat_hist, w);
        Ok(())
    }

    /// Restore state saved by [`Controller::save_state`] into a freshly
    /// constructed controller for the same device config and params.
    ///
    /// # Errors
    ///
    /// Fails on malformed input or a rank-count mismatch.
    pub fn load_state(&mut self, r: &mut cwf_ckpt::Reader<'_>) -> cwf_ckpt::Result<()> {
        r.expect_section(b"CTRL")?;
        self.channel.load_state(r)?;
        self.sched.load_state(r)?;
        self.refresh.load_state(r)?;
        self.completions = cwf_ckpt::Ckpt::load(r)?;
        self.mem_cycles = cwf_ckpt::Ckpt::load(r)?;
        self.reads_done = cwf_ckpt::Ckpt::load(r)?;
        self.writes_done = cwf_ckpt::Ckpt::load(r)?;
        self.sum_queue_mem = cwf_ckpt::Ckpt::load(r)?;
        self.sum_service_mem = cwf_ckpt::Ckpt::load(r)?;
        self.read_lat_hist = cwf_ckpt::Ckpt::load(r)?;
        Ok(())
    }
}
