//! Cross-layer simulation oracle.
//!
//! The seed's `ProtocolChecker` (crates/dram) audits one channel's JEDEC
//! timing in isolation. This crate grows it into a *cross-layer* oracle: a
//! set of pluggable invariant checkers that shadow a live simulation and
//! cross-check the layers against each other —
//!
//! * [`RefreshLedger`] — every rank meets its tREFI obligation (the
//!   timing checker alone cannot see a refresh that never happens);
//! * [`FillOracle`] — the MSHR/fill contract: each submitted read's eight
//!   words arrive exactly once, one `LineFilled` retires the token, and
//!   arrivals are monotonic;
//! * [`CmdBusChecker`] — the §4.2.4 sub-ranked RLDRAM3 group issues at
//!   most one command per device cycle on its shared addr/cmd bus;
//! * [`SkipMonitor`] — the event kernel's cycle-skipping never jumps a
//!   deadline (every event is drained exactly at its own timestamp);
//! * [`DramCacheChecker`] — the DRAM-cache backend's consistency
//!   contract: tag/data coherence, exactly-once fills, and
//!   writeback-before-evict for dirty victims (DESIGN.md §17).
//!
//! [`Oracle`] bundles them behind the audit vocabulary of
//! [`mem_ctrl::audit`]: a backend that implements
//! `MainMemory::enable_audit`/`drain_audit` feeds raw command/power
//! records in, the simulation loop feeds submits/events/skips in, and
//! [`Oracle::finalize`] plus [`Oracle::report`] produce a
//! [`VerifyReport`]. The oracle is an observer only — enabling it must
//! not change a single simulated cycle, which the clean-run tests pin by
//! comparing full metric structs with and without it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bus;
pub mod dramcache;
pub mod fill;
pub mod refresh;
pub mod rules;
pub mod skip;

pub use bus::CmdBusChecker;
pub use dramcache::DramCacheChecker;
pub use fill::FillOracle;
pub use refresh::RefreshLedger;
pub use rules::{OracleRule, OracleViolation};
pub use skip::SkipMonitor;

use dram_timing::Command;
use mem_ctrl::audit::{AuditRecord, ChannelDesc};
use mem_ctrl::{MemEvent, Token};

/// Stored-violation cap: detail strings for a badly broken run would
/// otherwise grow without bound. The total count keeps counting.
const MAX_STORED_VIOLATIONS: usize = 1000;

/// End-of-run summary of everything the oracle checked.
#[derive(Debug, Clone)]
pub struct VerifyReport {
    /// DRAM commands re-validated by the shadow protocol checkers.
    pub commands_checked: u64,
    /// Memory events checked by the fill oracle and skip monitor.
    pub events_checked: u64,
    /// Reads that fully retired (all words delivered + line filled).
    pub fills_completed: u64,
    /// Kernel skip intervals observed.
    pub skips: u64,
    /// CPU cycles covered by kernel skips.
    pub cycles_skipped: u64,
    /// Batched core-front-end spans audited.
    pub core_spans: u64,
    /// CPU cycles covered by audited core spans.
    pub core_span_cycles: u64,
    /// Total violations detected (may exceed `violations.len()`).
    pub total_violations: u64,
    /// Up to 1000 detailed violations (`MAX_STORED_VIOLATIONS`), in
    /// detection order.
    pub violations: Vec<OracleViolation>,
}

impl VerifyReport {
    /// True when not a single invariant fired.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.total_violations == 0
    }
}

/// The aggregate cross-layer oracle shadowing one simulated system.
#[derive(Debug)]
pub struct Oracle {
    channels: Vec<ChannelDesc>,
    protocol: Vec<dram_timing::ProtocolChecker>,
    /// How many of each checker's violations we already copied out.
    protocol_consumed: Vec<usize>,
    refresh: Vec<RefreshLedger>,
    bus: CmdBusChecker,
    fill: FillOracle,
    skip: SkipMonitor,
    dramcache: DramCacheChecker,
    violations: Vec<OracleViolation>,
    total_violations: u64,
    events_checked: u64,
}

impl Oracle {
    /// Build an oracle over the backend's audited channels (as returned by
    /// `MainMemory::audit_channels`). Channel configs are taken verbatim —
    /// callers hand in pristine presets so the shadow state is independent
    /// of any bug in the live device model.
    #[must_use]
    pub fn new(channels: Vec<ChannelDesc>) -> Self {
        let protocol = channels
            .iter()
            .map(|c| dram_timing::ProtocolChecker::new(c.cfg.clone(), c.ranks))
            .collect::<Vec<_>>();
        let refresh = channels.iter().map(|c| RefreshLedger::new(&c.cfg, c.ranks)).collect();
        let bus = CmdBusChecker::new(channels.iter().map(|c| c.bus_group).collect());
        Oracle {
            protocol_consumed: vec![0; protocol.len()],
            protocol,
            refresh,
            bus,
            fill: FillOracle::new(),
            skip: SkipMonitor::new(),
            dramcache: DramCacheChecker::new(),
            violations: Vec::new(),
            total_violations: 0,
            events_checked: 0,
            channels,
        }
    }

    /// Number of audited channels.
    #[must_use]
    pub fn channel_count(&self) -> usize {
        self.channels.len()
    }

    fn push(&mut self, v: OracleViolation) {
        self.total_violations += 1;
        if self.violations.len() < MAX_STORED_VIOLATIONS {
            self.violations.push(v);
        }
    }

    /// Feed a batch of audit records drained from the backend.
    pub fn observe_records(&mut self, records: &[AuditRecord]) {
        for rec in records {
            match *rec {
                AuditRecord::Cmd { channel, at_mem, ref cmd } => {
                    self.observe_cmd(channel, at_mem, cmd);
                }
                AuditRecord::Power { channel, at_mem, rank, state } => {
                    if let Some(ledger) = self.refresh.get_mut(channel) {
                        ledger.observe_power(rank as usize, at_mem, state);
                    }
                }
                AuditRecord::Cache { at, ref op } => {
                    let mut out = Vec::new();
                    self.dramcache.observe(at, op, &mut out);
                    for v in out {
                        self.push(v);
                    }
                }
            }
        }
    }

    fn observe_cmd(&mut self, channel: usize, at_mem: u64, cmd: &Command) {
        let Some(checker) = self.protocol.get_mut(channel) else { return };
        checker.observe(cmd, at_mem);
        // Copy out only the violations this command added.
        let fresh: Vec<OracleViolation> = checker.violations()[self.protocol_consumed[channel]..]
            .iter()
            .map(|v| OracleViolation {
                at: v.at,
                rule: OracleRule::Protocol(v.rule),
                detail: format!("{}: {:?}", self.channels[channel].label, v.cmd),
            })
            .collect();
        self.protocol_consumed[channel] = checker.violations().len();
        for v in fresh {
            self.push(v);
        }

        match *cmd {
            Command::Refresh { rank } | Command::RefreshBank { rank, .. } => {
                if let Some(late) = self.refresh[channel].observe_refresh(rank as usize, at_mem) {
                    let label = self.channels[channel].label.clone();
                    self.push(OracleViolation {
                        at: at_mem,
                        rule: OracleRule::RefreshMissed,
                        detail: format!(
                            "{label}: rank {rank} refreshed {late} cycles past deadline"
                        ),
                    });
                }
            }
            _ => {}
        }

        if let Some(other) = self.bus.observe_cmd(channel, at_mem) {
            let label = self.channels[channel].label.clone();
            let other_label = self.channels[other].label.clone();
            self.push(OracleViolation {
                at: at_mem,
                rule: OracleRule::CmdSlotDoubleBooked,
                detail: format!("{label} and {other_label} both issued in device cycle {at_mem}"),
            });
        }
    }

    /// Record a read submitted to memory at CPU cycle `at`.
    pub fn observe_submit(&mut self, token: Token, at: u64) {
        self.fill.observe_submit(token, at);
    }

    /// Check one memory event drained by the hierarchy at CPU cycle
    /// `delivered_at`.
    pub fn observe_event(&mut self, ev: &MemEvent, delivered_at: u64) {
        self.events_checked += 1;
        let mut out = Vec::new();
        self.fill.observe_event(ev, &mut out);
        self.skip.observe_delivery(ev.token().0, ev.at(), delivered_at, &mut out);
        for v in out {
            self.push(v);
        }
    }

    /// Record a kernel skip over CPU cycles `[from, to)`.
    pub fn note_skip(&mut self, from: u64, to: u64) {
        self.skip.note_skip(from, to);
    }

    /// Audit one batched core-front-end span over `[from, to)` on `core`;
    /// `overrun_at` (the first cycle the replay needed the trace) becomes
    /// a [`OracleRule::SpanOverrun`] violation.
    pub fn note_span(&mut self, core: u8, from: u64, to: u64, overrun_at: Option<u64>) {
        let mut out = Vec::new();
        self.skip.observe_span(core, from, to, overrun_at, &mut out);
        for v in out {
            self.push(v);
        }
    }

    /// Feed inclusion-audit findings from the cache hierarchy (one string
    /// per broken directory entry), stamped at CPU cycle `at`.
    pub fn note_inclusion_violations(&mut self, at: u64, findings: &[String]) {
        for f in findings {
            self.push(OracleViolation {
                at,
                rule: OracleRule::InclusionViolation,
                detail: f.clone(),
            });
        }
    }

    /// Close the books at CPU cycle `end_cpu`: overdue refresh deadlines
    /// and filled-but-incomplete lines become violations.
    pub fn finalize(&mut self, end_cpu: u64) {
        for ch in 0..self.channels.len() {
            let ratio = u64::from(self.channels[ch].cfg.cpu_cycles_per_mem_cycle).max(1);
            let end_dev = end_cpu / ratio;
            let label = self.channels[ch].label.clone();
            for (rank, late) in self.refresh[ch].finalize(end_dev) {
                self.push(OracleViolation {
                    at: end_dev,
                    rule: OracleRule::RefreshMissed,
                    detail: format!("{label}: rank {rank} overdue by {late} cycles at end of run"),
                });
            }
        }
        let mut out = Vec::new();
        self.fill.finalize(&mut out);
        for v in out {
            self.push(v);
        }
    }

    /// Snapshot the report (call after [`Oracle::finalize`]).
    #[must_use]
    pub fn report(&self) -> VerifyReport {
        VerifyReport {
            commands_checked: self.protocol.iter().map(|c| c.commands_checked()).sum(),
            events_checked: self.events_checked,
            fills_completed: self.fill.completed_count() as u64,
            skips: self.skip.skips(),
            cycles_skipped: self.skip.cycles_skipped(),
            core_spans: self.skip.core_spans(),
            core_span_cycles: self.skip.core_span_cycles(),
            total_violations: self.total_violations,
            violations: self.violations.clone(),
        }
    }
}

impl Oracle {
    /// Serialize the oracle's mutable state: every protocol checker's
    /// shadow timing state, refresh ledgers, command-bus slots, the
    /// fill oracle, skip monitor and recorded violations. The channel
    /// descriptions and derived rule tables are pure config, rebuilt on
    /// restore.
    pub fn save_state(&self, w: &mut cwf_ckpt::Writer) {
        let Oracle {
            channels: _,
            protocol,
            protocol_consumed,
            refresh,
            bus,
            fill,
            skip,
            dramcache,
            violations,
            total_violations,
            events_checked,
        } = self;
        w.section(b"ORCL");
        w.put_u64(protocol.len() as u64);
        for p in protocol {
            p.save_state(w);
        }
        cwf_ckpt::Ckpt::save(protocol_consumed, w);
        w.put_u64(refresh.len() as u64);
        for l in refresh {
            l.save_state(w);
        }
        bus.save_state(w);
        cwf_ckpt::Ckpt::save(fill, w);
        cwf_ckpt::Ckpt::save(skip, w);
        dramcache.save_state(w);
        cwf_ckpt::Ckpt::save(violations, w);
        cwf_ckpt::Ckpt::save(total_violations, w);
        cwf_ckpt::Ckpt::save(events_checked, w);
    }

    /// Restore state saved by [`Oracle::save_state`] into a freshly
    /// constructed oracle over the same channel descriptions.
    ///
    /// # Errors
    ///
    /// Fails on malformed input or a channel-count mismatch.
    pub fn load_state(&mut self, r: &mut cwf_ckpt::Reader<'_>) -> cwf_ckpt::Result<()> {
        r.expect_section(b"ORCL")?;
        let n = r.get_u64()?;
        if n != self.protocol.len() as u64 {
            return Err(cwf_ckpt::CkptError::new("protocol-checker count mismatch"));
        }
        for p in &mut self.protocol {
            p.load_state(r)?;
        }
        self.protocol_consumed = cwf_ckpt::Ckpt::load(r)?;
        let n_ref = r.get_u64()?;
        if n_ref != self.refresh.len() as u64 {
            return Err(cwf_ckpt::CkptError::new("refresh-ledger count mismatch"));
        }
        for l in &mut self.refresh {
            l.load_state(r)?;
        }
        self.bus.load_state(r)?;
        self.fill = cwf_ckpt::Ckpt::load(r)?;
        self.skip = cwf_ckpt::Ckpt::load(r)?;
        self.dramcache.load_state(r)?;
        self.violations = cwf_ckpt::Ckpt::load(r)?;
        self.total_violations = cwf_ckpt::Ckpt::load(r)?;
        self.events_checked = cwf_ckpt::Ckpt::load(r)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dram_timing::{DeviceConfig, PowerState};

    fn desc(label: &str, cfg: DeviceConfig, bus_group: Option<u32>) -> ChannelDesc {
        ChannelDesc { label: label.to_string(), cfg, ranks: 1, bus_group }
    }

    #[test]
    fn clean_command_stream_is_clean() {
        let cfg = DeviceConfig::ddr3_1600();
        let t = cfg.timings;
        let mut o = Oracle::new(vec![desc("ddr3-ch0", cfg, None)]);
        let base = 10;
        o.observe_records(&[
            AuditRecord::Cmd { channel: 0, at_mem: base, cmd: Command::activate(0, 0, 5) },
            AuditRecord::Cmd {
                channel: 0,
                at_mem: base + u64::from(t.t_rcd),
                cmd: Command::read(0, 0, 5, false),
            },
        ]);
        o.finalize(u64::from(t.t_refi)); // well before the first deadline
        let r = o.report();
        assert!(r.is_clean(), "{:?}", r.violations);
        assert_eq!(r.commands_checked, 2);
    }

    #[test]
    fn trcd_violation_surfaces_as_protocol_rule() {
        let cfg = DeviceConfig::ddr3_1600();
        let mut o = Oracle::new(vec![desc("ddr3-ch0", cfg, None)]);
        o.observe_records(&[
            AuditRecord::Cmd { channel: 0, at_mem: 10, cmd: Command::activate(0, 0, 5) },
            AuditRecord::Cmd { channel: 0, at_mem: 11, cmd: Command::read(0, 0, 5, false) },
        ]);
        let r = o.report();
        assert!(r
            .violations
            .iter()
            .any(|v| v.rule == OracleRule::Protocol(dram_timing::Rule::TRcd)));
    }

    #[test]
    fn power_records_reach_the_ledger() {
        let cfg = DeviceConfig::lpddr2_800();
        let t_refi = u64::from(cfg.timings.t_refi);
        let mut o = Oracle::new(vec![desc("lpddr2-ch0", cfg, None)]);
        o.observe_records(&[AuditRecord::Power {
            channel: 0,
            at_mem: 5,
            rank: 0,
            state: PowerState::SelfRefresh,
        }]);
        // Ten intervals with zero refreshes: fine, the rank self-refreshes.
        o.finalize(10 * t_refi * u64::from(o.channels[0].cfg.cpu_cycles_per_mem_cycle));
        assert!(o.report().is_clean());
    }

    #[test]
    fn violation_storage_is_capped_but_counted() {
        let cfg = DeviceConfig::ddr3_1600();
        let mut o = Oracle::new(vec![desc("ddr3-ch0", cfg, None)]);
        // Same-cycle duplicate fills on an unknown token, many times over.
        for i in 0..(MAX_STORED_VIOLATIONS as u64 + 50) {
            o.observe_event(&MemEvent::LineFilled { token: Token(99), at: i }, i);
        }
        let r = o.report();
        assert_eq!(r.violations.len(), MAX_STORED_VIOLATIONS);
        assert!(r.total_violations > MAX_STORED_VIOLATIONS as u64);
    }
}
