//! The controller plumbing every memory organization shares.
//!
//! Each organization in the paper — homogeneous channels, the CWF
//! critical-word split, §7.1 page placement and the DRAM-cache opponent —
//! is the same hardware: FR-FCFS [`Controller`]s in one or two clock
//! domains. Only the routing of a line's words differs. A [`ChannelSet`]
//! is that hardware plus the queues around it; it implements device-tick
//! gating, completion scheduling, retries, statistics, wake-up bounds,
//! audit and trace once. An [`Organization`] supplies the routing
//! (`submit` and `complete`) and gets [`MainMemory`] for free.
//!
//! Channels are numbered domain by domain, in domain order: that global
//! index is the one [`AuditRecord`]s, [`ChannelDesc`]s, controller trace
//! events and [`MemSystemStats`] entries all use.

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

    /// The domain's controllers, in channel order.
    #[must_use]
    pub fn controllers(&self) -> &[Controller] {
        &self.ctrls
    }

    /// Mutable access to the controllers (checkpointing, fault injection).
    pub fn controllers_mut(&mut self) -> &mut [Controller] {
        &mut self.ctrls
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

/// An ordered list of clock domains plus the scheduled completion events
/// and audit/trace records they produce.
#[derive(Debug)]
pub struct ChannelSet {
    domains: Vec<ClockDomain>,
    scheduled: Vec<(u64, Scheduled)>,
    audit: bool,
    /// Organization-level audit records (DRAM-cache bookkeeping).
    audit_log: Vec<AuditRecord>,
    trace: bool,
    /// Organization-level trace events.
    trace_log: Vec<TraceEvent>,
    buf: TickBuf,
}

impl ChannelSet {
    /// Channels of `domains`, numbered domain by domain.
    #[must_use]
    pub fn new(domains: Vec<ClockDomain>) -> Self {
        ChannelSet {
            domains,
            scheduled: Vec::new(),
            audit: false,
            audit_log: Vec::new(),
            trace: false,
            trace_log: Vec::new(),
            buf: TickBuf::default(),
        }
    }

    /// Clock domain `d`.
    #[must_use]
    pub fn domain(&self, d: usize) -> &ClockDomain {
        &self.domains[d]
    }

    /// Mutable clock domain `d`.
    pub fn domain_mut(&mut self, d: usize) -> &mut ClockDomain {
        &mut self.domains[d]
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
        dom.ctrls[ch].enqueue_read(token, loc, prefetch, mem_now)
    }

    /// Enqueue a write on channel `ch` of domain `d` at CPU cycle `now`;
    /// `false` when the write queue is full.
    pub fn enqueue_write(&mut self, d: usize, ch: usize, loc: Loc, now: u64) -> bool {
        let dom = &mut self.domains[d];
        let mem_now = dom.mem_now(now);
        dom.ctrls[ch].enqueue_write(loc, mem_now)
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
        self.scheduled.push((at, Scheduled::Line(token)));
    }

    /// Deliver `event` at CPU cycle `at`.
    pub fn schedule(&mut self, at: u64, event: MemEvent) {
        self.scheduled.push((at, Scheduled::Event(event)));
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
    fn tick_domain(&mut self, d: usize, now: u64, done: &mut Vec<(Token, u64)>) -> bool {
        let dom = &mut self.domains[d];
        if !now.is_multiple_of(dom.ratio) {
            return false;
        }
        let mem_now = now / dom.ratio;
        match &mut dom.arbiter {
            Some(arbiter) => arbiter.tick_mem(&mut dom.ctrls, mem_now),
            None => {
                for c in &mut dom.ctrls {
                    c.tick_mem(mem_now, true);
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
        let ctrls = &mut dom.ctrls;
        dom.deferred_reads.retain(|&(id, ch, loc, prefetch)| {
            let accepted = ctrls[usize::from(ch)].enqueue_read(Token(id), loc, prefetch, mem_now);
            if accepted {
                issued.push(Token(id));
            }
            !accepted
        });
        dom.deferred_writes
            .retain(|&(ch, loc)| !ctrls[usize::from(ch)].enqueue_write(loc, mem_now));
    }

    /// Serialize domain `d`'s controllers where a backend's checkpoint
    /// section keeps them: the `AGGR` section for an arbitrated domain,
    /// else a count followed by each controller.
    ///
    /// # Errors
    ///
    /// Fails when a controller holds undrained trace events.
    pub fn save_domain(&self, d: usize, w: &mut cwf_ckpt::Writer) -> cwf_ckpt::Result<()> {
        let dom = &self.domains[d];
        match &dom.arbiter {
            Some(arbiter) => arbiter.save_state(&dom.ctrls, w),
            None => save_controllers(&dom.ctrls, w),
        }
    }

    /// Restore what [`ChannelSet::save_domain`] wrote.
    ///
    /// # Errors
    ///
    /// Fails on malformed input or a controller-count mismatch.
    pub fn load_domain(&mut self, d: usize, r: &mut cwf_ckpt::Reader<'_>) -> cwf_ckpt::Result<()> {
        let dom = &mut self.domains[d];
        match &mut dom.arbiter {
            Some(arbiter) => arbiter.load_state(&mut dom.ctrls, r),
            None => load_controllers(&mut dom.ctrls, r),
        }
    }

    /// Serialize the deferred work: every domain's reads, then every
    /// domain's writes. The tuples keep the channel as a `u8` index
    /// within its domain.
    pub fn save_deferred(&self, w: &mut cwf_ckpt::Writer) {
        for dom in &self.domains {
            cwf_ckpt::Ckpt::save(&dom.deferred_reads, w);
        }
        for dom in &self.domains {
            cwf_ckpt::Ckpt::save(&dom.deferred_writes, w);
        }
    }

    /// Restore what [`ChannelSet::save_deferred`] wrote.
    ///
    /// # Errors
    ///
    /// Fails on malformed input.
    pub fn load_deferred(&mut self, r: &mut cwf_ckpt::Reader<'_>) -> cwf_ckpt::Result<()> {
        for dom in &mut self.domains {
            dom.deferred_reads = cwf_ckpt::Ckpt::load(r)?;
        }
        for dom in &mut self.domains {
            dom.deferred_writes = cwf_ckpt::Ckpt::load(r)?;
        }
        Ok(())
    }

    /// Serialize the scheduled queue. Entries are untagged — `(cycle,
    /// token)` for a whole line, `(cycle, event)` otherwise — because an
    /// organization schedules one kind only and its section knows which.
    pub fn save_scheduled(&self, w: &mut cwf_ckpt::Writer) {
        use cwf_ckpt::Ckpt;
        w.put_u64(self.scheduled.len() as u64);
        for (at, s) in &self.scheduled {
            at.save(w);
            match s {
                Scheduled::Line(token) => token.save(w),
                Scheduled::Event(e) => e.save(w),
            }
        }
    }

    /// Restore a whole-line organization's scheduled queue.
    ///
    /// # Errors
    ///
    /// Fails on malformed input.
    pub fn load_lines(&mut self, r: &mut cwf_ckpt::Reader<'_>) -> cwf_ckpt::Result<()> {
        let lines: Vec<(u64, Token)> = cwf_ckpt::Ckpt::load(r)?;
        self.scheduled = lines.into_iter().map(|(at, t)| (at, Scheduled::Line(t))).collect();
        Ok(())
    }

    /// Restore an event-building organization's scheduled queue.
    ///
    /// # Errors
    ///
    /// Fails on malformed input.
    pub fn load_events(&mut self, r: &mut cwf_ckpt::Reader<'_>) -> cwf_ckpt::Result<()> {
        let events: Vec<(u64, MemEvent)> = cwf_ckpt::Ckpt::load(r)?;
        self.scheduled = events.into_iter().map(|(at, e)| (at, Scheduled::Event(e))).collect();
        Ok(())
    }

    /// Serialize the audit-enabled flag.
    pub fn save_audit_flag(&self, w: &mut cwf_ckpt::Writer) {
        cwf_ckpt::Ckpt::save(&self.audit, w);
    }

    /// Restore the audit-enabled flag.
    ///
    /// # Errors
    ///
    /// Fails on malformed input.
    pub fn load_audit_flag(&mut self, r: &mut cwf_ckpt::Reader<'_>) -> cwf_ckpt::Result<()> {
        self.audit = cwf_ckpt::Ckpt::load(r)?;
        Ok(())
    }
}

fn drain_commands(c: &mut Controller, channel: usize, out: &mut Vec<AuditRecord>) {
    out.extend(c.take_command_log().into_iter().map(|(at_mem, cmd)| AuditRecord::Cmd {
        channel,
        at_mem,
        cmd,
    }));
}

fn drain_power(c: &mut Controller, channel: usize, out: &mut Vec<AuditRecord>) {
    out.extend(c.take_power_log().into_iter().map(|(at_mem, rank, state)| AuditRecord::Power {
        channel,
        at_mem,
        rank,
        state,
    }));
}

/// Serialize a controller count followed by each controller.
pub(crate) fn save_controllers(
    ctrls: &[Controller],
    w: &mut cwf_ckpt::Writer,
) -> cwf_ckpt::Result<()> {
    w.put_u64(ctrls.len() as u64);
    for c in ctrls {
        c.save_state(w)?;
    }
    Ok(())
}

/// Restore what [`save_controllers`] wrote into `ctrls`.
pub(crate) fn load_controllers(
    ctrls: &mut [Controller],
    r: &mut cwf_ckpt::Reader<'_>,
) -> cwf_ckpt::Result<()> {
    if r.get_u64()? != ctrls.len() as u64 {
        return Err(cwf_ckpt::CkptError::new("controller count mismatch"));
    }
    for c in ctrls {
        c.load_state(r)?;
    }
    Ok(())
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
        let scheduled = &mut self.channels_mut().scheduled;
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
                i += 1;
            }
        }
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
        let mut next =
            chans.scheduled.iter().map(|&(at, _)| at.max(now + 1)).min().unwrap_or(u64::MAX);
        for dom in &chans.domains {
            let mem_now = dom.mem_now(now);
            for c in &dom.ctrls {
                if let Some(at_mem) = c.next_activity_mem(mem_now) {
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
        for c in chans.domains.iter_mut().flat_map(|d| &mut d.ctrls) {
            c.enable_command_log();
        }
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

    fn drain_audit(&mut self, out: &mut Vec<AuditRecord>) {
        let chans = self.channels_mut();
        let mut base = 0;
        for dom in &mut chans.domains {
            // An arbitrated domain reports every sub-channel's commands
            // before any power transition: the tracer rings records in
            // this order, so it is part of the traced output. Each
            // channel's own records keep their order either way.
            let grouped = dom.arbiter.is_some();
            for (i, c) in dom.ctrls.iter_mut().enumerate() {
                drain_commands(c, base + i, out);
                if !grouped {
                    drain_power(c, base + i, out);
                }
            }
            if grouped {
                for (i, c) in dom.ctrls.iter_mut().enumerate() {
                    drain_power(c, base + i, out);
                }
            }
            base += dom.ctrls.len();
        }
        out.append(&mut chans.audit_log);
    }

    fn enable_trace(&mut self) {
        let chans = self.channels_mut();
        chans.trace = true;
        for (i, c) in chans.domains.iter_mut().flat_map(|d| &mut d.ctrls).enumerate() {
            c.enable_trace(i as u16);
        }
    }

    fn drain_trace(&mut self, out: &mut Vec<TraceEvent>) {
        let chans = self.channels_mut();
        for c in chans.domains.iter_mut().flat_map(|d| &mut d.ctrls) {
            out.append(&mut c.take_trace());
        }
        out.append(&mut chans.trace_log);
    }
}
