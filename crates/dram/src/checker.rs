//! An independent DRAM protocol checker.
//!
//! [`ProtocolChecker`] re-validates a command stream against the JEDEC-style
//! rules *without* sharing any code with the [`crate::Channel`] timing
//! oracle: it keeps its own shadow state and reports a [`Violation`] when a
//! command breaks a constraint. The property tests in `mem-ctrl` drive the
//! real FR-FCFS controller under random workloads and assert that every
//! command it emits passes this checker — a differential test between the
//! scheduler ("is this legal *now*?") and the protocol ("was that legal at
//! all?").
//!
//! Since the spec-layer refactor the timing rules are **generated from the
//! device's constraint table** ([`DeviceConfig::constraints`], parsed from
//! the spec TOML): each `prev -> next @scope CYCLES` entry becomes one
//! pairwise rule evaluated against per-bank / per-bank-group / per-rank
//! shadow event times, so a new standard added under `specs/` is checked
//! automatically — including DDR4/DDR5 `tCCD_L`, `tRRD_L` and DDR5
//! same-bank refresh. Structural rules (row state, addressing style,
//! `tRFC` blocking, data-bus occupancy) are built in.
//!
//! Checked rules:
//!
//! * structural: ACT only to idle banks, columns only to the open row,
//!   PRE only to open banks, REF only with all banks closed, no ACT on
//!   single-command devices;
//! * bank timing: `tRC` (ACT→ACT), `tRCD` (ACT→column), `tRAS`/`tRTP`/`tWR`
//!   (→PRE), `tRP` (PRE→ACT), `tCCD` column spacing;
//! * bank-group timing: `tCCD_L`, `tRRD_L` on grouped devices;
//! * rank timing: `tRRD`, the rolling four-activate `tFAW` window,
//!   `tWTR` (write burst → READ), `tRFC` after refresh;
//! * data bus: bursts never overlap, and rank-switch / direction-switch
//!   gaps of `tRTRS` are respected.

use crate::command::Command;
use crate::config::{
    AddressingStyle, CmdClass, ConstraintScope, DeviceConfig, RefPoint, SpecConstraint,
};

/// The protocol rule a [`Violation`] broke.
///
/// Each variant corresponds to one JEDEC-style constraint the checker
/// enforces; [`Rule::as_str`] (and `Display`) render the same short names
/// the checker historically reported, so log output and JSON labels are
/// stable while callers can match structurally.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Rule {
    /// ACT → column command spacing.
    TRcd,
    /// ACT → ACT same-bank spacing.
    TRc,
    /// PRE → ACT same-bank spacing.
    TRp,
    /// ACT → ACT same-rank spacing.
    TRrd,
    /// ACT → ACT spacing within one bank group (`tRRD_L`).
    TRrdL,
    /// Rolling four-activate window per rank.
    TFaw,
    /// Refresh recovery time (bank blocked after REF/REFB).
    TRfc,
    /// ACT → PRE minimum row-open time.
    TRas,
    /// READ → PRE spacing.
    TRtp,
    /// Write recovery before PRE.
    TWr,
    /// Write burst → READ turnaround per rank.
    TWtr,
    /// Column → column command spacing (per bank, or the short `tCCD_S`
    /// across bank groups).
    TCcd,
    /// Column → column spacing within one bank group (`tCCD_L`).
    TCcdL,
    /// Rank-switch / direction-switch data bus gap.
    TRtrs,
    /// Two data bursts overlap on the shared bus.
    DataBusOverlap,
    /// ACT issued to a bank that already has an open row.
    ActToOpenBank,
    /// READ issued to a closed bank or the wrong open row.
    ReadClosedRow,
    /// WRITE issued to a closed bank or the wrong open row.
    WriteClosedRow,
    /// PRE issued to an already-closed bank.
    PreToClosedBank,
    /// All-bank REF issued while a bank held an open row.
    RefWithOpenBanks,
    /// Per-bank REFB issued to a bank with an open row.
    RefbToOpenBank,
    /// Implicit-activate spacing on single-command (RLDRAM3) devices.
    TRcSingleCommand,
    /// REFB issued within `tRC` of the bank's implicit activate.
    TRcBeforeRefb,
    /// Explicit ACT sent to a single-command (RLDRAM3) device.
    ActOnSingleCommandDevice,
    /// Command addressed a rank the channel does not have.
    RankOutOfRange,
}

impl Rule {
    /// Every rule variant, in declaration order. The verify oracle's
    /// linkage list (`cwf-verify::rules::linked_protocol_rules`) and the
    /// spec linter check themselves against this for drift.
    pub const ALL: [Rule; 25] = [
        Rule::TRcd,
        Rule::TRc,
        Rule::TRp,
        Rule::TRrd,
        Rule::TRrdL,
        Rule::TFaw,
        Rule::TRfc,
        Rule::TRas,
        Rule::TRtp,
        Rule::TWr,
        Rule::TWtr,
        Rule::TCcd,
        Rule::TCcdL,
        Rule::TRtrs,
        Rule::DataBusOverlap,
        Rule::ActToOpenBank,
        Rule::ReadClosedRow,
        Rule::WriteClosedRow,
        Rule::PreToClosedBank,
        Rule::RefWithOpenBanks,
        Rule::RefbToOpenBank,
        Rule::TRcSingleCommand,
        Rule::TRcBeforeRefb,
        Rule::ActOnSingleCommandDevice,
        Rule::RankOutOfRange,
    ];

    /// Short human-readable name; identical to the strings the checker
    /// reported before the enum existed.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Rule::TRcd => "tRCD",
            Rule::TRc => "tRC",
            Rule::TRp => "tRP",
            Rule::TRrd => "tRRD",
            Rule::TRrdL => "tRRD_L",
            Rule::TFaw => "tFAW",
            Rule::TRfc => "tRFC",
            Rule::TRas => "tRAS",
            Rule::TRtp => "tRTP",
            Rule::TWr => "tWR",
            Rule::TWtr => "tWTR",
            Rule::TCcd => "tCCD",
            Rule::TCcdL => "tCCD_L",
            Rule::TRtrs => "tRTRS",
            Rule::DataBusOverlap => "data bus overlap",
            Rule::ActToOpenBank => "ACT to open bank",
            Rule::ReadClosedRow => "READ to wrong/closed row",
            Rule::WriteClosedRow => "WRITE to wrong/closed row",
            Rule::PreToClosedBank => "PRE to closed bank",
            Rule::RefWithOpenBanks => "REF with open banks",
            Rule::RefbToOpenBank => "REFB to open bank",
            Rule::TRcSingleCommand => "tRC (single-command)",
            Rule::TRcBeforeRefb => "tRC before REFB",
            Rule::ActOnSingleCommandDevice => "ACT on a single-command device",
            Rule::RankOutOfRange => "rank index out of range",
        }
    }
}

impl std::fmt::Display for Rule {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A detected protocol violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Cycle at which the offending command was issued.
    pub at: u64,
    /// The offending command.
    pub cmd: Command,
    /// Which rule was broken.
    pub rule: Rule,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "cycle {}: {:?} violates {}", self.at, self.cmd, self.rule)
    }
}

/// Shadow event classes the pairwise rules reference. `WrEnd` is the
/// write's data-burst end (the `from=data-end` reference point), recorded
/// at write-issue time.
const EV_ACT: usize = 0;
const EV_RD: usize = 1;
const EV_WR: usize = 2;
const EV_PRE: usize = 3;
const EV_WR_END: usize = 4;
const NEV: usize = 5;

/// One generated pairwise timing rule: the observed command class `next`
/// must not issue before `last[prev_ev] + cycles` within `scope`.
#[derive(Debug, Clone, Copy)]
struct PairRule {
    rule: Rule,
    prev_ev: usize,
    next: CmdClass,
    scope: ConstraintScope,
    cycles: u64,
    /// 1 for pairwise rules; 4 for the rolling tFAW window (evaluated
    /// against the rank's activate history instead of `last`).
    window: u32,
}

#[derive(Debug, Clone, Copy)]
struct ShadowBank {
    open_row: Option<u32>,
    last: [Option<u64>; NEV],
    blocked_until: u64,
}

impl ShadowBank {
    fn new() -> Self {
        ShadowBank { open_row: None, last: [None; NEV], blocked_until: 0 }
    }
}

#[derive(Debug)]
struct ShadowRank {
    banks: Vec<ShadowBank>,
    /// Every activate issue time, in order (tFAW window source).
    acts: Vec<u64>,
    last: [Option<u64>; NEV],
    /// Per-bank-group event times; empty on ungrouped devices.
    group_last: Vec<[Option<u64>; NEV]>,
}

/// Shadow-state protocol checker for one channel.
#[derive(Debug)]
pub struct ProtocolChecker {
    cfg: DeviceConfig,
    rules: Vec<PairRule>,
    ranks: Vec<ShadowRank>,
    /// (start, end, rank, is_write) of the last data burst.
    last_burst: Option<(u64, u64, u8, bool)>,
    violations: Vec<Violation>,
    commands_checked: u64,
}

/// Map a constraint's *shape* onto the [`Rule`] it reports. Shape (not the
/// spec's name string) decides, so the mapping is total over the shapes
/// the spec validator admits.
fn rule_of(
    prev: CmdClass,
    next: CmdClass,
    scope: ConstraintScope,
    from: RefPoint,
    window: u32,
    addressing: AddressingStyle,
) -> Rule {
    use CmdClass::{Act, Pre, Rd, RefSb, Wr};
    let col = |c: CmdClass| c == Rd || c == Wr;
    match (prev, next) {
        (Act, Act) => match (scope, window) {
            (ConstraintScope::Bank, _) => Rule::TRc,
            (ConstraintScope::BankGroup, _) => Rule::TRrdL,
            (ConstraintScope::Rank, 4) => Rule::TFaw,
            (ConstraintScope::Rank, _) => Rule::TRrd,
        },
        (Act, n) if col(n) => Rule::TRcd,
        (Pre, Act) => Rule::TRp,
        (Pre, RefSb) => Rule::TRp,
        (Act, Pre) => Rule::TRas,
        (Rd, Pre) => Rule::TRtp,
        (Wr, Pre) => Rule::TWr,
        (Wr, Rd) if from == RefPoint::DataEnd => Rule::TWtr,
        (p, RefSb) if col(p) => Rule::TRcBeforeRefb,
        (p, n) if col(p) && col(n) => match (addressing, scope) {
            (AddressingStyle::SingleCommand, _) => Rule::TRcSingleCommand,
            (_, ConstraintScope::BankGroup) => Rule::TCcdL,
            _ => Rule::TCcd,
        },
        // The spec validator rejects every other shape; treat leftovers
        // (hand-built configs) as generic column spacing.
        _ => Rule::TCcd,
    }
}

/// Map one spec constraint onto the [`Rule`] its generated checker rule
/// reports — the same shape-driven mapping [`ProtocolChecker::new`] uses,
/// exposed so `cwfmem spec-lint` can prove the static table and the dynamic
/// oracle agree.
#[must_use]
pub fn rule_for_constraint(c: &SpecConstraint, addressing: AddressingStyle) -> Rule {
    rule_of(c.prev, c.next, c.scope, c.from, c.window, addressing)
}

/// Summary of one generated pairwise rule, mirroring the checker's internal
/// table for the spec linter's rule-linkage check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GeneratedRule {
    /// The rule a violation of this entry reports.
    pub rule: Rule,
    /// Command class the spacing applies to.
    pub next: CmdClass,
    /// Scope the pair must share.
    pub scope: ConstraintScope,
    /// Minimum spacing in device cycles.
    pub cycles: u64,
    /// 1 for pairwise rules, 4 for the rolling tFAW window.
    pub window: u32,
}

impl ProtocolChecker {
    /// The generated pairwise rule table (constraint-derived), in table
    /// order.
    #[must_use]
    pub fn generated_rules(&self) -> Vec<GeneratedRule> {
        self.rules
            .iter()
            .map(|r| GeneratedRule {
                rule: r.rule,
                next: r.next,
                scope: r.scope,
                cycles: r.cycles,
                window: r.window,
            })
            .collect()
    }
}

fn ev_of(prev: CmdClass, from: RefPoint) -> usize {
    match (prev, from) {
        (CmdClass::Act, _) => EV_ACT,
        (CmdClass::Rd, _) => EV_RD,
        (CmdClass::Wr, RefPoint::DataEnd) => EV_WR_END,
        (CmdClass::Wr, RefPoint::Issue) => EV_WR,
        (CmdClass::Pre, _) | (CmdClass::RefSb, _) => EV_PRE,
    }
}

/// Generate the pairwise rule table from a device's constraint table
/// (every [`DeviceConfig`] comes from a spec, whose parser refuses an
/// empty table).
fn build_rules(cfg: &DeviceConfig) -> Vec<PairRule> {
    cfg.constraints
        .iter()
        .map(|c| PairRule {
            rule: rule_of(c.prev, c.next, c.scope, c.from, c.window, cfg.addressing),
            prev_ev: ev_of(c.prev, c.from),
            next: c.next,
            scope: c.scope,
            cycles: u64::from(c.cycles),
            window: c.window,
        })
        .collect()
}

impl ProtocolChecker {
    /// Build a checker for `ranks` ranks of `cfg` devices. The timing rule
    /// table is generated from `cfg.constraints` (the spec's constraint
    /// table).
    #[must_use]
    pub fn new(cfg: DeviceConfig, ranks: u32) -> Self {
        let banks = cfg.geometry.banks as usize;
        let groups = cfg.geometry.bank_groups;
        let group_slots = if groups > 1 { groups as usize } else { 0 };
        ProtocolChecker {
            rules: build_rules(&cfg),
            ranks: (0..ranks)
                .map(|_| ShadowRank {
                    banks: vec![ShadowBank::new(); banks],
                    acts: Vec::new(),
                    last: [None; NEV],
                    group_last: vec![[None; NEV]; group_slots],
                })
                .collect(),
            cfg,
            last_burst: None,
            violations: Vec::new(),
            commands_checked: 0,
        }
    }

    /// Violations recorded so far.
    #[must_use]
    pub fn violations(&self) -> &[Violation] {
        &self.violations
    }

    /// Total commands observed.
    #[must_use]
    pub fn commands_checked(&self) -> u64 {
        self.commands_checked
    }

    fn flag(&mut self, at: u64, cmd: &Command, rule: Rule) {
        self.violations.push(Violation { at, cmd: *cmd, rule });
    }

    /// Bank group of `bank` (`None` on ungrouped devices).
    fn group_of(&self, bank: u8) -> Option<usize> {
        let groups = self.cfg.geometry.bank_groups;
        if groups <= 1 {
            return None;
        }
        Some((u32::from(bank) / (self.cfg.geometry.banks / groups)) as usize)
    }

    /// Evaluate every generated rule whose `next` matches the observed
    /// command class, returning the broken rules in table order.
    fn pair_hits(&self, next: CmdClass, rank_idx: usize, bank: u8, at: u64) -> Vec<Rule> {
        let rank = &self.ranks[rank_idx];
        let b = &rank.banks[usize::from(bank)];
        let group = self.group_of(bank);
        let mut hits = Vec::new();
        for r in self.rules.iter().filter(|r| r.next == next) {
            let broken = if r.window == 4 {
                rank.acts.len() >= 4 && at < rank.acts[rank.acts.len() - 4] + r.cycles
            } else {
                let prev = match r.scope {
                    ConstraintScope::Bank => b.last[r.prev_ev],
                    ConstraintScope::Rank => rank.last[r.prev_ev],
                    ConstraintScope::BankGroup => group.and_then(|g| rank.group_last[g][r.prev_ev]),
                };
                prev.is_some_and(|p| at < p + r.cycles)
            };
            if broken {
                hits.push(r.rule);
            }
        }
        hits
    }

    /// Record event `ev` at `when` on (bank, bank group, rank).
    fn record(&mut self, rank_idx: usize, bank: u8, ev: usize, when: u64) {
        let group = self.group_of(bank);
        let rank = &mut self.ranks[rank_idx];
        rank.banks[usize::from(bank)].last[ev] = Some(when);
        rank.last[ev] = Some(when);
        if let Some(g) = group {
            rank.group_last[g][ev] = Some(when);
        }
    }

    /// Observe a command at cycle `at`, recording any violations.
    pub fn observe(&mut self, cmd: &Command, at: u64) {
        self.commands_checked += 1;
        let t = self.cfg.timings;
        let addressing = self.cfg.addressing;
        let rank_idx = cmd.rank();
        let ri = usize::from(rank_idx);
        if ri >= self.ranks.len() {
            self.flag(at, cmd, Rule::RankOutOfRange);
            return;
        }

        match *cmd {
            Command::Activate { bank, row, .. } => {
                if addressing == AddressingStyle::SingleCommand {
                    self.flag(at, cmd, Rule::ActOnSingleCommandDevice);
                    return;
                }
                let b = self.ranks[ri].banks[usize::from(bank)];
                if b.open_row.is_some() {
                    self.flag(at, cmd, Rule::ActToOpenBank);
                    return;
                }
                if at < b.blocked_until {
                    self.flag(at, cmd, Rule::TRfc);
                }
                for rule in self.pair_hits(CmdClass::Act, ri, bank, at) {
                    self.flag(at, cmd, rule);
                }
                self.record(ri, bank, EV_ACT, at);
                let rank = &mut self.ranks[ri];
                rank.banks[usize::from(bank)].open_row = Some(row);
                rank.acts.push(at);
            }
            Command::Read { bank, row, auto_pre, .. } => {
                let b = self.ranks[ri].banks[usize::from(bank)];
                if addressing == AddressingStyle::RasCas && b.open_row != Some(row) {
                    self.flag(at, cmd, Rule::ReadClosedRow);
                    return;
                }
                if at < b.blocked_until {
                    self.flag(at, cmd, Rule::TRfc);
                }
                for rule in self.pair_hits(CmdClass::Rd, ri, bank, at) {
                    self.flag(at, cmd, rule);
                }
                self.record(ri, bank, EV_RD, at);
                if auto_pre || addressing == AddressingStyle::SingleCommand {
                    // The implicit-activate reference for the synthesized
                    // precharge: the read itself on single-command devices.
                    let act_ref = match addressing {
                        AddressingStyle::SingleCommand => at,
                        AddressingStyle::RasCas => {
                            self.ranks[ri].banks[usize::from(bank)].last[EV_ACT].unwrap_or(0)
                        }
                    };
                    let b = &mut self.ranks[ri].banks[usize::from(bank)];
                    b.open_row = None;
                    // Synthesized auto-precharge time; deliberately not run
                    // through the PRE rules (the device sequences it).
                    b.last[EV_PRE] =
                        Some((at + u64::from(t.t_rtp)).max(act_ref + u64::from(t.t_ras)));
                }
                let start = at + u64::from(t.t_rl);
                self.check_bus(cmd, at, start, start + u64::from(t.t_burst), rank_idx, false);
            }
            Command::Write { bank, row, auto_pre, .. } => {
                let b = self.ranks[ri].banks[usize::from(bank)];
                if addressing == AddressingStyle::RasCas && b.open_row != Some(row) {
                    self.flag(at, cmd, Rule::WriteClosedRow);
                    return;
                }
                if at < b.blocked_until {
                    self.flag(at, cmd, Rule::TRfc);
                }
                for rule in self.pair_hits(CmdClass::Wr, ri, bank, at) {
                    self.flag(at, cmd, rule);
                }
                let end = at + u64::from(t.t_wl) + u64::from(t.t_burst);
                self.record(ri, bank, EV_WR, at);
                self.record(ri, bank, EV_WR_END, end);
                if auto_pre || addressing == AddressingStyle::SingleCommand {
                    let act_ref = match addressing {
                        AddressingStyle::SingleCommand => at,
                        AddressingStyle::RasCas => {
                            self.ranks[ri].banks[usize::from(bank)].last[EV_ACT].unwrap_or(0)
                        }
                    };
                    let b = &mut self.ranks[ri].banks[usize::from(bank)];
                    b.open_row = None;
                    b.last[EV_PRE] =
                        Some((end + u64::from(t.t_wr)).max(act_ref + u64::from(t.t_ras)));
                }
                let start = at + u64::from(t.t_wl);
                self.check_bus(cmd, at, start, end, rank_idx, true);
            }
            Command::Precharge { bank, .. } => {
                if self.ranks[ri].banks[usize::from(bank)].open_row.is_none() {
                    self.flag(at, cmd, Rule::PreToClosedBank);
                    return;
                }
                for rule in self.pair_hits(CmdClass::Pre, ri, bank, at) {
                    self.flag(at, cmd, rule);
                }
                self.record(ri, bank, EV_PRE, at);
                self.ranks[ri].banks[usize::from(bank)].open_row = None;
            }
            Command::Refresh { .. } => {
                if self.ranks[ri].banks.iter().any(|b| b.open_row.is_some()) {
                    self.flag(at, cmd, Rule::RefWithOpenBanks);
                    return;
                }
                if self.ranks[ri].banks.iter().any(|b| at < b.blocked_until) {
                    self.flag(at, cmd, Rule::TRfc);
                }
                for b in &mut self.ranks[ri].banks {
                    b.blocked_until = at + u64::from(t.t_rfc);
                    // Refresh implies internal activates; a following ACT
                    // must honour tRFC, which blocked_until models.
                    b.last[EV_PRE] = Some(at.saturating_sub(u64::from(t.t_rp)));
                }
            }
            Command::RefreshBank { bank, .. } => {
                let b = self.ranks[ri].banks[usize::from(bank)];
                if b.open_row.is_some() {
                    self.flag(at, cmd, Rule::RefbToOpenBank);
                    return;
                }
                if at < b.blocked_until {
                    self.flag(at, cmd, Rule::TRfc);
                }
                for rule in self.pair_hits(CmdClass::RefSb, ri, bank, at) {
                    self.flag(at, cmd, rule);
                }
                self.ranks[ri].banks[usize::from(bank)].blocked_until = at + u64::from(t.t_rfc);
            }
        }
    }

    fn check_bus(&mut self, cmd: &Command, at: u64, start: u64, end: u64, rank: u8, write: bool) {
        if let Some((_, pend, prank, pwrite)) = self.last_burst {
            if start < pend {
                self.flag(at, cmd, Rule::DataBusOverlap);
            } else if (prank != rank || pwrite != write)
                && start < pend + u64::from(self.cfg.timings.t_rtrs)
            {
                self.flag(at, cmd, Rule::TRtrs);
            }
        }
        self.last_burst = Some((start, end, rank, write));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DeviceConfig;

    fn checker() -> ProtocolChecker {
        ProtocolChecker::new(DeviceConfig::ddr3_1600(), 1)
    }

    #[test]
    fn legal_sequence_is_clean() {
        let mut c = checker();
        c.observe(&Command::activate(0, 0, 5), 0);
        c.observe(&Command::read(0, 0, 5, false), 11);
        c.observe(&Command::precharge(0, 0), 30);
        c.observe(&Command::activate(0, 0, 6), 41);
        assert!(c.violations().is_empty(), "{:?}", c.violations());
        assert_eq!(c.commands_checked(), 4);
    }

    #[test]
    fn early_read_flags_trcd() {
        let mut c = checker();
        c.observe(&Command::activate(0, 0, 5), 0);
        c.observe(&Command::read(0, 0, 5, false), 5);
        assert!(c.violations().iter().any(|v| v.rule == Rule::TRcd));
    }

    #[test]
    fn read_to_wrong_row_is_structural() {
        let mut c = checker();
        c.observe(&Command::activate(0, 0, 5), 0);
        c.observe(&Command::read(0, 0, 9, false), 20);
        assert!(c.violations().iter().any(|v| v.rule == Rule::ReadClosedRow));
    }

    #[test]
    fn five_fast_acts_flag_tfaw() {
        let mut c = checker();
        for (i, t) in [0u64, 5, 10, 15, 20].iter().enumerate() {
            c.observe(&Command::activate(0, i as u8, 1), *t);
        }
        assert!(c.violations().iter().any(|v| v.rule == Rule::TFaw));
    }

    #[test]
    fn early_precharge_flags_tras() {
        let mut c = checker();
        c.observe(&Command::activate(0, 0, 5), 0);
        c.observe(&Command::precharge(0, 0), 10);
        assert!(c.violations().iter().any(|v| v.rule == Rule::TRas));
    }

    #[test]
    fn bus_overlap_detected() {
        let mut c = checker();
        c.observe(&Command::activate(0, 0, 5), 0);
        c.observe(&Command::activate(0, 1, 5), 5);
        c.observe(&Command::read(0, 0, 5, false), 16);
        // Second read one cycle later: bursts overlap on the shared bus.
        c.observe(&Command::read(0, 1, 5, false), 17);
        assert!(c.violations().iter().any(|v| v.rule == Rule::DataBusOverlap));
    }

    #[test]
    fn write_then_early_read_flags_twtr() {
        let mut c = checker();
        c.observe(&Command::activate(0, 0, 5), 0);
        c.observe(&Command::write(0, 0, 5, false), 11);
        // Write burst ends at 11+6+4=21; tWTR=6 -> READ legal at 27.
        c.observe(&Command::read(0, 0, 5, false), 24);
        assert!(c.violations().iter().any(|v| v.rule == Rule::TWtr));
    }

    #[test]
    fn refresh_with_open_bank_is_structural() {
        let mut c = checker();
        c.observe(&Command::activate(0, 0, 5), 0);
        c.observe(&Command::Refresh { rank: 0 }, 40);
        assert!(c.violations().iter().any(|v| v.rule == Rule::RefWithOpenBanks));
    }

    #[test]
    fn rldram_act_is_illegal() {
        let mut c = ProtocolChecker::new(DeviceConfig::rldram3(), 1);
        c.observe(&Command::activate(0, 0, 5), 0);
        assert!(c.violations().iter().any(|v| v.rule == Rule::ActOnSingleCommandDevice));
    }

    #[test]
    fn rldram_back_to_back_same_bank_flags_trc() {
        let mut c = ProtocolChecker::new(DeviceConfig::rldram3(), 1);
        c.observe(&Command::read(0, 0, 5, true), 0);
        c.observe(&Command::read(0, 0, 6, true), 5);
        assert!(c.violations().iter().any(|v| v.rule == Rule::TRcSingleCommand));
    }

    #[test]
    fn rule_display_matches_legacy_strings() {
        assert_eq!(Rule::TRcd.to_string(), "tRCD");
        assert_eq!(Rule::DataBusOverlap.to_string(), "data bus overlap");
        assert_eq!(Rule::TRcSingleCommand.to_string(), "tRC (single-command)");
        assert_eq!(Rule::ActOnSingleCommandDevice.as_str(), "ACT on a single-command device");
        assert_eq!(Rule::TCcdL.to_string(), "tCCD_L");
        assert_eq!(Rule::TRrdL.to_string(), "tRRD_L");
    }

    #[test]
    fn tccd_l_fires_within_a_bank_group_but_not_across() {
        let cfg = DeviceConfig::ddr4_2400();
        let t = cfg.timings;
        assert!(t.t_ccd_l > t.t_ccd);
        // Banks 0 and 1 share group 0; bank 4 is in group 1.
        let mut c = ProtocolChecker::new(cfg.clone(), 1);
        c.observe(&Command::activate(0, 0, 5), 0);
        c.observe(&Command::activate(0, 4, 5), 100);
        let rd0 = 200;
        c.observe(&Command::read(0, 0, 5, false), rd0);
        // Cross-group read at tCCD_S spacing: legal.
        c.observe(&Command::read(0, 4, 5, false), rd0 + u64::from(t.t_ccd));
        assert!(c.violations().is_empty(), "{:?}", c.violations());
        // Same-group read at tCCD_S spacing: violates tCCD_L.
        let mut c = ProtocolChecker::new(cfg, 1);
        c.observe(&Command::activate(0, 0, 5), 0);
        c.observe(&Command::activate(0, 1, 5), 100);
        c.observe(&Command::read(0, 0, 5, false), rd0);
        c.observe(&Command::read(0, 1, 5, false), rd0 + u64::from(t.t_ccd));
        assert!(c.violations().iter().any(|v| v.rule == Rule::TCcdL), "{:?}", c.violations());
    }

    #[test]
    fn trrd_l_fires_within_a_bank_group() {
        let cfg = DeviceConfig::ddr4_2400();
        let t = cfg.timings;
        let mut c = ProtocolChecker::new(cfg, 1);
        c.observe(&Command::activate(0, 0, 5), 0);
        // Same group (bank 1), spaced at the short tRRD_S: tRRD_L broken.
        c.observe(&Command::activate(0, 1, 5), u64::from(t.t_rrd));
        assert!(c.violations().iter().any(|v| v.rule == Rule::TRrdL));
        assert!(!c.violations().iter().any(|v| v.rule == Rule::TRrd));
    }

    #[test]
    fn ddr5_refsb_rules_are_generated() {
        let cfg = DeviceConfig::ddr5_4800();
        let t = cfg.timings;
        // REFsb to a bank with an open row is structural.
        let mut c = ProtocolChecker::new(cfg.clone(), 1);
        c.observe(&Command::activate(0, 0, 5), 0);
        c.observe(&Command::RefreshBank { rank: 0, bank: 0 }, u64::from(t.t_ras) + 10);
        assert!(c.violations().iter().any(|v| v.rule == Rule::RefbToOpenBank));
        // REFsb inside tRP of the closing precharge violates the generated
        // pre -> refsb rule.
        let mut c = ProtocolChecker::new(cfg.clone(), 1);
        c.observe(&Command::activate(0, 0, 5), 0);
        c.observe(&Command::precharge(0, 0), u64::from(t.t_ras));
        c.observe(&Command::RefreshBank { rank: 0, bank: 0 }, u64::from(t.t_ras) + 1);
        assert!(c.violations().iter().any(|v| v.rule == Rule::TRp), "{:?}", c.violations());
        // Back-to-back REFsb to the same bank inside tRFC is caught.
        let mut c = ProtocolChecker::new(cfg, 1);
        c.observe(&Command::RefreshBank { rank: 0, bank: 3 }, 0);
        c.observe(&Command::RefreshBank { rank: 0, bank: 3 }, u64::from(t.t_rfc) / 2);
        assert!(c.violations().iter().any(|v| v.rule == Rule::TRfc));
    }
}

impl cwf_ckpt::Ckpt for Rule {
    fn save(&self, w: &mut cwf_ckpt::Writer) {
        let idx = Rule::ALL.iter().position(|r| r == self).expect("rule in Rule::ALL");
        w.put_u8(idx as u8);
    }
    fn load(r: &mut cwf_ckpt::Reader<'_>) -> cwf_ckpt::Result<Self> {
        let idx = usize::from(r.get_u8()?);
        Rule::ALL
            .get(idx)
            .copied()
            .ok_or_else(|| cwf_ckpt::CkptError::new(format!("invalid Rule index {idx}")))
    }
}

cwf_ckpt::ckpt_struct!(Violation { at, cmd, rule });
cwf_ckpt::ckpt_struct!(ShadowBank { open_row, last, blocked_until });
cwf_ckpt::ckpt_struct!(ShadowRank { banks, acts, last, group_last });

impl ProtocolChecker {
    /// Serialize the checker's mutable state (shadow ranks, pending
    /// burst, recorded violations). The device config and generated
    /// rule table are rebuilt on restore, never encoded.
    pub fn save_state(&self, w: &mut cwf_ckpt::Writer) {
        let ProtocolChecker { cfg: _, rules: _, ranks, last_burst, violations, commands_checked } =
            self;
        w.section(b"PCHK");
        cwf_ckpt::Ckpt::save(ranks, w);
        cwf_ckpt::Ckpt::save(last_burst, w);
        cwf_ckpt::Ckpt::save(violations, w);
        cwf_ckpt::Ckpt::save(commands_checked, w);
    }

    /// Restore state saved by [`ProtocolChecker::save_state`] into a
    /// freshly constructed checker for the same device config.
    ///
    /// # Errors
    ///
    /// Fails on malformed input or a shadow-rank count mismatch.
    pub fn load_state(&mut self, r: &mut cwf_ckpt::Reader<'_>) -> cwf_ckpt::Result<()> {
        r.expect_section(b"PCHK")?;
        let ranks: Vec<ShadowRank> = cwf_ckpt::Ckpt::load(r)?;
        if ranks.len() != self.ranks.len() {
            return Err(cwf_ckpt::CkptError::new("shadow-rank count mismatch"));
        }
        self.ranks = ranks;
        self.last_burst = cwf_ckpt::Ckpt::load(r)?;
        self.violations = cwf_ckpt::Ckpt::load(r)?;
        self.commands_checked = cwf_ckpt::Ckpt::load(r)?;
        Ok(())
    }
}
