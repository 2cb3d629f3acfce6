//! The controller plumbing every memory organization shares.
//!
//! Each organization in the paper — homogeneous channels, the CWF
//! critical-word split, §7.1 page placement and the DRAM-cache opponent —
//! is the same hardware: FR-FCFS [`Controller`]s in one or two clock
//! domains. Only the routing of a line's words differs. A [`ChannelSet`]
//! is that hardware plus the queues around it; it implements device-tick
//! gating, completion scheduling, retries, statistics, wake-up bounds,
//! audit, trace and checkpointing once. An [`Organization`] supplies the
//! routing (`submit` and `complete`) and gets [`MainMemory`] for free.
//!
//! Channels are numbered domain by domain, in domain order: that global
//! index is the one [`AuditRecord`]s, [`ChannelDesc`]s, trace events and
//! [`MemSystemStats`] entries all use.
//!
//! Each controller wakes on its own: a domain keeps one cached
//! [`Controller::next_activity_mem`] bound per controller, ticks only the
//! controllers whose bound has come due, and settles the rest as their
//! no-op tick would (DESIGN.md §9, "Memory bound").

use std::cell::Cell;

use cwf_tracelog::TraceEvent;

use crate::aggregate::AggregatedController;
use crate::audit::{AuditRecord, ChannelDesc};
use crate::controller::Controller;
use crate::mapping::Loc;
use crate::request::{LineRequest, MainMemory, MemBusy, MemEvent, MemSystemStats, Token};

/// The controllers behind one CPU:device clock ratio.
#[derive(Debug)]
pub struct ClockDomain {
    /// CPU cycles per device cycle.
    ratio: u64,
    ctrls: Vec<Controller>,
    /// Per controller, its cached [`Controller::next_activity_mem`] bound
    /// in device cycles: `u64::MAX` means none, and any bound at or below
    /// the current device cycle (0 included) is stale. Not checkpointed:
    /// a restored domain starts stale.
    wake: Vec<Cell<u64>>,
    /// The §4.2.4 shared command bus, when the domain has one.
    arbiter: Option<AggregatedController>,
    /// Reads waiting for queue space: (token, channel, location, prefetch).
    deferred_reads: Vec<(u64, u8, Loc, bool)>,
    /// Writes waiting for queue space: (channel, location).
    deferred_writes: Vec<(u8, Loc)>,
}

impl ClockDomain {
    /// A domain of independent channels, each with its own command bus.
    ///
    /// # Panics
    ///
    /// Panics if `ctrls` is empty.
    #[must_use]
    pub fn new(ctrls: Vec<Controller>) -> Self {
        let ratio = u64::from(
            ctrls.first().expect("a domain needs channels").config().cpu_cycles_per_mem_cycle,
        );
        ClockDomain {
            ratio: ratio.max(1),
            wake: vec![Cell::new(0); ctrls.len()],
            ctrls,
            arbiter: None,
            deferred_reads: Vec::new(),
            deferred_writes: Vec::new(),
        }
    }

    /// A domain of sub-channels whose commands `arbiter` schedules (§4.2.4).
    #[must_use]
    pub fn aggregated(ctrls: Vec<Controller>, arbiter: AggregatedController) -> Self {
        ClockDomain { arbiter: Some(arbiter), ..Self::new(ctrls) }
    }

    fn mem_now(&self, now: u64) -> u64 {
        now / self.ratio
    }

    fn has_deferred(&self) -> bool {
        !self.deferred_reads.is_empty() || !self.deferred_writes.is_empty()
    }
}

/// A queued completion event, visible from its CPU cycle on.
#[derive(Debug, Clone, Copy)]
enum Scheduled {
    /// A whole line: all words and the fill arrive together.
    Line(Token),
    /// One event, as the organization built it.
    Event(MemEvent),
}

/// Reused per-tick buffers: completions of the domain just ticked, and
/// deferred reads that just reached a controller.
#[derive(Debug, Default)]
struct TickBuf {
    done: Vec<(Token, u64)>,
    issued: Vec<Token>,
}

/// How many controller device ticks a [`ChannelSet`] ran and how many it
/// skipped as provably idle. A host-speed diagnostic: it is neither
/// checkpointed nor reported in any run document, because the cycle kernel
/// runs every tick and the event kernel skips some, while both produce the
/// same bytes.
#[derive(Debug, Clone, Copy, Default)]
pub struct CtrlTicks {
    /// Controller ticks run.
    pub run: u64,
    /// Controller ticks skipped, each replaced by a settle.
    pub skipped: u64,
}

/// An ordered list of clock domains plus the scheduled completion events
/// and audit/trace records they produce.
#[derive(Debug)]
pub struct ChannelSet {
    domains: Vec<ClockDomain>,
    scheduled: Vec<(u64, Scheduled)>,
    /// The earliest CPU cycle in `scheduled` (`u64::MAX` when empty). Not
    /// checkpointed: restoring `scheduled` rebuilds it.
    earliest: u64,
    audit: bool,
    /// Organization-level audit records (DRAM-cache bookkeeping).
    audit_log: Vec<AuditRecord>,
    trace: bool,
    /// Organization-level trace events.
    trace_log: Vec<TraceEvent>,
    buf: TickBuf,
    ticks: CtrlTicks,
}

impl ChannelSet {
    /// Channels of `domains`, numbered domain by domain.
    #[must_use]
    pub fn new(domains: Vec<ClockDomain>) -> Self {
        ChannelSet {
            domains,
            scheduled: Vec::new(),
            earliest: u64::MAX,
            audit: false,
            audit_log: Vec::new(),
            trace: false,
            trace_log: Vec::new(),
            buf: TickBuf::default(),
            ticks: CtrlTicks::default(),
        }
    }

    /// Controller ticks run and skipped so far.
    #[must_use]
    pub fn ctrl_ticks(&self) -> CtrlTicks {
        self.ticks
    }

    /// Can channel `ch` of domain `d` accept a read?
    #[must_use]
    pub fn read_space(&self, d: usize, ch: usize) -> bool {
        self.domains[d].ctrls[ch].read_space()
    }

    /// Can channel `ch` of domain `d` accept a write?
    #[must_use]
    pub fn write_space(&self, d: usize, ch: usize) -> bool {
        self.domains[d].ctrls[ch].write_space()
    }

    /// Enqueue a read on channel `ch` of domain `d` at CPU cycle `now`;
    /// `false` when the read queue is full.
    pub fn enqueue_read(
        &mut self,
        d: usize,
        ch: usize,
        token: Token,
        loc: Loc,
        prefetch: bool,
        now: u64,
    ) -> bool {
        let dom = &mut self.domains[d];
        let mem_now = dom.mem_now(now);
        let accepted = dom.ctrls[ch].enqueue_read(token, loc, prefetch, mem_now);
        if accepted {
            dom.wake[ch].set(0);
        }
        accepted
    }

    /// Enqueue a write on channel `ch` of domain `d` at CPU cycle `now`;
    /// `false` when the write queue is full.
    pub fn enqueue_write(&mut self, d: usize, ch: usize, loc: Loc, now: u64) -> bool {
        let dom = &mut self.domains[d];
        let mem_now = dom.mem_now(now);
        let accepted = dom.ctrls[ch].enqueue_write(loc, mem_now);
        if accepted {
            dom.wake[ch].set(0);
        }
        accepted
    }

    /// Queue a read for channel `ch` of domain `d`, retried at each of the
    /// domain's device ticks until the controller accepts it.
    pub fn defer_read(&mut self, d: usize, token: u64, ch: u8, loc: Loc, prefetch: bool) {
        self.domains[d].deferred_reads.push((token, ch, loc, prefetch));
    }

    /// Queue a write for channel `ch` of domain `d` (see
    /// [`ChannelSet::defer_read`]).
    pub fn defer_write(&mut self, d: usize, ch: u8, loc: Loc) {
        self.domains[d].deferred_writes.push((ch, loc));
    }

    /// Deliver a whole line at CPU cycle `at`: every word and the fill
    /// arrive together.
    pub fn schedule_line(&mut self, at: u64, token: Token) {
        self.push_scheduled(at, Scheduled::Line(token));
    }

    /// Deliver `event` at CPU cycle `at`.
    pub fn schedule(&mut self, at: u64, event: MemEvent) {
        self.push_scheduled(at, Scheduled::Event(event));
    }

    fn push_scheduled(&mut self, at: u64, s: Scheduled) {
        self.scheduled.push((at, s));
        self.earliest = self.earliest.min(at);
    }

    fn set_scheduled(&mut self, scheduled: Vec<(u64, Scheduled)>) {
        self.earliest = scheduled.iter().map(|&(at, _)| at).min().unwrap_or(u64::MAX);
        self.scheduled = scheduled;
    }

    /// Record an organization-level audit record (dropped unless auditing).
    pub fn record_audit(&mut self, rec: AuditRecord) {
        if self.audit {
            self.audit_log.push(rec);
        }
    }

    /// Record an organization-level trace event (dropped unless tracing).
    pub fn record_trace(&mut self, ev: TraceEvent) {
        if self.trace {
            self.trace_log.push(ev);
        }
    }

    /// Run domain `d`'s device tick if CPU cycle `now` falls on one,
    /// leaving its read completions (token, CPU cycle) in `done`.
    ///
    /// Only controllers whose cached wake bound is due (at or below this
    /// device cycle) tick; the rest get [`Controller::settle_idle_tick`],
    /// which leaves them as their no-op tick would. A due bound stays
    /// stale after the tick, so the next [`MainMemory::next_activity`]
    /// recomputes it. An arbitrated domain is one wake unit: its arbiter
    /// ticks every sub-channel as soon as any one is due. The cycle
    /// kernel never asks for bounds, so every bound stays 0 and it ticks
    /// every controller.
    fn tick_domain(&mut self, d: usize, now: u64, done: &mut Vec<(Token, u64)>) -> bool {
        let dom = &mut self.domains[d];
        if !now.is_multiple_of(dom.ratio) {
            return false;
        }
        let mem_now = now / dom.ratio;
        let due = |w: &Cell<u64>| w.get() <= mem_now;
        let n = dom.ctrls.len() as u64;
        match &mut dom.arbiter {
            Some(arbiter) if dom.wake.iter().any(due) => {
                // A sub-channel that was not due ticks as a no-op here, so
                // its cached bound still holds.
                arbiter.tick_mem(&mut dom.ctrls, mem_now);
                self.ticks.run += n;
            }
            Some(_) => {
                dom.ctrls.iter_mut().for_each(|c| c.settle_idle_tick(mem_now));
                self.ticks.skipped += n;
            }
            None => {
                for (c, w) in dom.ctrls.iter_mut().zip(&dom.wake) {
                    if due(w) {
                        c.tick_mem(mem_now, true);
                        self.ticks.run += 1;
                    } else {
                        c.settle_idle_tick(mem_now);
                        self.ticks.skipped += 1;
                    }
                }
            }
        }
        done.clear();
        let ratio = dom.ratio;
        for c in &mut dom.ctrls {
            done.extend(c.drain_completions().map(|c| (c.token, c.data_end_mem * ratio)));
        }
        true
    }

    /// Offer domain `d`'s deferred work to its controllers, in order;
    /// the tokens of reads that got in land in `issued`.
    fn retry_deferred(&mut self, d: usize, now: u64, issued: &mut Vec<Token>) {
        issued.clear();
        let dom = &mut self.domains[d];
        if !dom.has_deferred() {
            return;
        }
        let mem_now = dom.mem_now(now);
        let (ctrls, wake) = (&mut dom.ctrls, &dom.wake);
        dom.deferred_reads.retain(|&(id, ch, loc, prefetch)| {
            let ch = usize::from(ch);
            let accepted = ctrls[ch].enqueue_read(Token(id), loc, prefetch, mem_now);
            if accepted {
                wake[ch].set(0);
                issued.push(Token(id));
            }
            !accepted
        });
        dom.deferred_writes.retain(|&(ch, loc)| {
            let ch = usize::from(ch);
            let accepted = ctrls[ch].enqueue_write(loc, mem_now);
            if accepted {
                wake[ch].set(0);
            }
            !accepted
        });
    }

    /// Serialize every clock domain — its arbiter's block when it has
    /// one, the controller count, each controller, then the domain's
    /// deferred reads and writes (channel as a `u8` index within the
    /// domain) — followed by the scheduled queue, each entry tagged with
    /// its kind. The audit and trace flags are not encoded: the run's
    /// verify and trace knobs re-arm them on restore.
    ///
    /// # Errors
    ///
    /// Fails when a controller holds undrained log entries.
    pub fn save_state(&self, w: &mut cwf_ckpt::Writer) -> cwf_ckpt::Result<()> {
        use cwf_ckpt::Ckpt;
        for dom in &self.domains {
            if let Some(arbiter) = &dom.arbiter {
                arbiter.save_state(w);
            }
            w.put_u64(dom.ctrls.len() as u64);
            for c in &dom.ctrls {
                c.save_state(w)?;
            }
            dom.deferred_reads.save(w);
            dom.deferred_writes.save(w);
        }
        self.scheduled.save(w);
        Ok(())
    }

    /// Restore what [`ChannelSet::save_state`] wrote into channels built
    /// from the same configuration.
    ///
    /// # Errors
    ///
    /// Fails on malformed input or a controller-count mismatch.
    pub fn load_state(&mut self, r: &mut cwf_ckpt::Reader<'_>) -> cwf_ckpt::Result<()> {
        use cwf_ckpt::Ckpt;
        for dom in &mut self.domains {
            // Every cached wake bound goes stale; each controller's load
            // drops its scheduler fold.
            dom.wake.iter_mut().for_each(|w| *w.get_mut() = 0);
            if let Some(arbiter) = &mut dom.arbiter {
                arbiter.load_state(r)?;
            }
            if r.get_u64()? != dom.ctrls.len() as u64 {
                return Err(cwf_ckpt::CkptError::new("controller count mismatch"));
            }
            for c in &mut dom.ctrls {
                c.load_state(r)?;
            }
            dom.deferred_reads = Ckpt::load(r)?;
            dom.deferred_writes = Ckpt::load(r)?;
        }
        self.set_scheduled(Ckpt::load(r)?);
        Ok(())
    }
}

impl cwf_ckpt::Ckpt for Scheduled {
    fn save(&self, w: &mut cwf_ckpt::Writer) {
        match self {
            Scheduled::Line(token) => {
                w.put_u8(0);
                token.save(w);
            }
            Scheduled::Event(e) => {
                w.put_u8(1);
                e.save(w);
            }
        }
    }
    fn load(r: &mut cwf_ckpt::Reader<'_>) -> cwf_ckpt::Result<Self> {
        match r.get_u8()? {
            0 => Ok(Scheduled::Line(cwf_ckpt::Ckpt::load(r)?)),
            1 => Ok(Scheduled::Event(cwf_ckpt::Ckpt::load(r)?)),
            t => Err(cwf_ckpt::CkptError::new(format!("invalid scheduled-entry tag {t}"))),
        }
    }
}

/// A memory organization: the rule that routes lines onto a
/// [`ChannelSet`]. Implementing it is all a backend does — the blanket
/// [`MainMemory`] impl below is the one implementation of the channel
/// plumbing: device-tick gating, completion delivery, retries, stats,
/// wake-up bounds, audit and trace.
pub trait Organization {
    /// The channels the organization routes onto.
    fn channels(&self) -> &ChannelSet;

    /// Mutable access to the channels.
    fn channels_mut(&mut self) -> &mut ChannelSet;

    /// Accept a transaction at CPU cycle `now` ([`MainMemory::try_submit`]).
    ///
    /// # Errors
    ///
    /// [`MemBusy`] when a transaction queue is full.
    fn submit(&mut self, req: &LineRequest, now: u64) -> Result<Option<Token>, MemBusy>;

    /// A read enqueued on clock domain `domain` finished its burst at CPU
    /// cycle `at`.
    fn complete(&mut self, domain: usize, token: Token, at: u64);

    /// A read deferred on `domain` (see [`ChannelSet::defer_read`]) was
    /// just accepted by its controller.
    fn deferred_read_issued(&mut self, domain: usize, token: Token) {
        let _ = (domain, token);
    }
}

impl<O: Organization> MainMemory for O {
    fn try_submit(&mut self, req: &LineRequest, now: u64) -> Result<Option<Token>, MemBusy> {
        self.submit(req, now)
    }

    fn tick(&mut self, now: u64) {
        let mut buf = std::mem::take(&mut self.channels_mut().buf);
        for d in 0..self.channels().domains.len() {
            if !self.channels_mut().tick_domain(d, now, &mut buf.done) {
                continue;
            }
            for &(token, at) in &buf.done {
                self.complete(d, token, at);
            }
            self.channels_mut().retry_deferred(d, now, &mut buf.issued);
            for &token in &buf.issued {
                self.deferred_read_issued(d, token);
            }
        }
        self.channels_mut().buf = buf;
    }

    fn drain_events(&mut self, now: u64, out: &mut Vec<MemEvent>) {
        let chans = self.channels_mut();
        if chans.earliest > now {
            return;
        }
        // Every entry left behind is passed over exactly once below, so
        // the new earliest cycle is the minimum over those.
        let mut earliest = u64::MAX;
        let scheduled = &mut chans.scheduled;
        let mut i = 0;
        while i < scheduled.len() {
            if scheduled[i].0 <= now {
                match scheduled.swap_remove(i) {
                    (at, Scheduled::Line(token)) => {
                        let words = 0xFF;
                        out.push(MemEvent::WordsAvailable { token, at, words, served_fast: false });
                        out.push(MemEvent::LineFilled { token, at });
                    }
                    (_, Scheduled::Event(e)) => out.push(e),
                }
            } else {
                earliest = earliest.min(scheduled[i].0);
                i += 1;
            }
        }
        chans.earliest = earliest;
    }

    fn stats(&mut self, now: u64) -> MemSystemStats {
        // Ceiling division per clock domain makes the settle point
        // independent of when the last device tick ran: after a tick at
        // CPU cycle t the internal cycle counter reads t/ratio + 1 ==
        // ceil(now/ratio) for every now in (t, t + ratio], whether or not
        // the in-between CPU cycles were skipped by the event kernel.
        let mut controllers = Vec::new();
        for dom in &mut self.channels_mut().domains {
            let mem_now = now.div_ceil(dom.ratio);
            controllers.extend(dom.ctrls.iter_mut().map(|c| c.stats(mem_now)));
        }
        MemSystemStats { controllers }
    }

    fn next_activity(&self, now: u64) -> Option<u64> {
        let chans = self.channels();
        let mut next = chans.earliest.max(now + 1);
        for dom in &chans.domains {
            let mem_now = dom.mem_now(now);
            for (c, wake) in dom.ctrls.iter().zip(&dom.wake) {
                let fresh = || c.next_activity_mem(mem_now).unwrap_or(u64::MAX);
                let mut at_mem = wake.get();
                if at_mem <= mem_now {
                    at_mem = fresh();
                    wake.set(at_mem);
                } else {
                    debug_assert_eq!(at_mem, fresh(), "{}: cached wake bound is stale", c.label());
                }
                if at_mem != u64::MAX {
                    // Device cycle d happens at CPU cycle d * ratio (the
                    // tick gate); d >= mem_now + 1 implies d * ratio > now.
                    next = next.min(at_mem * dom.ratio);
                }
            }
            // Deferred work retries at the domain's next device tick.
            if dom.has_deferred() {
                next = next.min((mem_now + 1) * dom.ratio);
            }
        }
        (next != u64::MAX).then_some(next)
    }

    fn enable_audit(&mut self) {
        let chans = self.channels_mut();
        chans.audit = true;
        chans.domains.iter_mut().flat_map(|d| &mut d.ctrls).for_each(|c| c.enable_log(false));
    }

    fn audit_channels(&self) -> Vec<ChannelDesc> {
        let chans = self.channels();
        if !chans.audit {
            return Vec::new();
        }
        let mut out = Vec::new();
        for (d, dom) in chans.domains.iter().enumerate() {
            let bus_group = dom.arbiter.as_ref().filter(|a| a.shared_bus()).map(|_| d as u32);
            out.extend(dom.ctrls.iter().map(|c| ChannelDesc {
                label: c.label().to_owned(),
                cfg: c.config().clone(),
                ranks: c.ranks(),
                bus_group,
            }));
        }
        out
    }

    fn drain_audit(&mut self, visit: &mut dyn FnMut(AuditRecord)) {
        let chans = self.channels_mut();
        for (i, c) in chans.domains.iter_mut().flat_map(|d| &mut d.ctrls).enumerate() {
            c.drain_log(i, &mut *visit);
        }
        chans.audit_log.drain(..).for_each(visit);
    }

    fn enable_trace(&mut self) {
        let chans = self.channels_mut();
        chans.trace = true;
        chans.domains.iter_mut().flat_map(|d| &mut d.ctrls).for_each(|c| c.enable_log(true));
    }

    fn drain_trace(&mut self, out: &mut Vec<TraceEvent>) {
        out.append(&mut self.channels_mut().trace_log);
    }
}
