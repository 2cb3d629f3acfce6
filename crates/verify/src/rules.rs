//! Violation vocabulary of the cross-layer oracle.

use dram_timing::Rule;

/// Which oracle invariant a violation broke.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OracleRule {
    /// A JEDEC-style protocol rule, re-derived by the shadow-state
    /// [`dram_timing::ProtocolChecker`].
    Protocol(Rule),
    /// A rank's refresh arrived later than its tREFI deadline plus the
    /// ledger's scheduling slack (or never arrived at all).
    RefreshMissed,
    /// Two sub-channels sharing one address/command bus issued commands in
    /// the same device cycle (§4.2.4 allows exactly one).
    CmdSlotDoubleBooked,
    /// A second `LineFilled` was delivered for an already-filled line.
    DuplicateLineFill,
    /// A word of a line was delivered by two `WordsAvailable` events.
    DuplicateWordDelivery,
    /// An event referenced a token that was never submitted (or already
    /// retired in a previous run phase).
    UnknownToken,
    /// Per-word arrival order broke: an event was timestamped before its
    /// submit, or words trickled in after the line fill.
    NonMonotonicArrival,
    /// A line fill completed without all eight words having arrived.
    IncompleteFill,
    /// The inclusive-L2 directory disagreed with L1 residency.
    InclusionViolation,
    /// The event kernel delivered a memory event off its timestamp — a
    /// deadline fired strictly inside a skipped interval.
    SkipMissedDeadline,
    /// A batched core-front-end span needed the instruction trace (or a
    /// blocked-op retry) strictly before its announced activity bound —
    /// the bound was optimistic and the replay was cut short.
    SpanOverrun,
    /// A DRAM-cache tag probe disagreed with the shadow directory: a hit
    /// declared for a line the cache does not hold, or a miss for one it
    /// does (tag/data coherence).
    CacheTagMismatch,
    /// A DRAM-cache line was installed while already resident, or on top
    /// of a live way that was never evicted (exactly-once fill).
    CacheDoubleFill,
    /// A dirty DRAM-cache victim was evicted without its writeback
    /// reaching the slow store first (writeback-before-evict).
    CacheWritebackLost,
    /// A channel's power change or command arrived stamped before one
    /// already ingested: the oracle's feed lost act order, so every
    /// verdict that depends on order is void.
    AuditOutOfOrder,
}

impl std::fmt::Display for OracleRule {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OracleRule::Protocol(r) => write!(f, "protocol: {r}"),
            OracleRule::RefreshMissed => f.write_str("refresh missed"),
            OracleRule::CmdSlotDoubleBooked => f.write_str("cmd slot double-booked"),
            OracleRule::DuplicateLineFill => f.write_str("duplicate line fill"),
            OracleRule::DuplicateWordDelivery => f.write_str("duplicate word delivery"),
            OracleRule::UnknownToken => f.write_str("event for unknown token"),
            OracleRule::NonMonotonicArrival => f.write_str("non-monotonic arrival"),
            OracleRule::IncompleteFill => f.write_str("incomplete line fill"),
            OracleRule::InclusionViolation => f.write_str("L2 inclusion violation"),
            OracleRule::SkipMissedDeadline => f.write_str("skip missed deadline"),
            OracleRule::SpanOverrun => f.write_str("core span overran its bound"),
            OracleRule::CacheTagMismatch => f.write_str("dram-cache tag/data mismatch"),
            OracleRule::CacheDoubleFill => f.write_str("dram-cache double fill"),
            OracleRule::CacheWritebackLost => f.write_str("dram-cache writeback lost"),
            OracleRule::AuditOutOfOrder => f.write_str("audit stream out of order"),
        }
    }
}

/// The protocol rules the oracle is linked against: every
/// [`dram_timing::Rule`] the shadow-state checker can generate must appear
/// here, or `cwfmem spec-lint`'s rule-linkage pass fails.
///
/// The list is maintained *by hand*, on purpose. [`OracleRule::Protocol`]
/// would happily wrap a brand-new `Rule` variant without any code change,
/// so a structural check could never notice that the verify layer was
/// written before the rule existed. Listing the vocabulary explicitly
/// turns "new rule added to the checker" into a visible diff here plus a
/// lint failure until both sides agree (see `linked_list_is_exhaustive`).
#[must_use]
pub fn linked_protocol_rules() -> &'static [Rule] {
    &[
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
    ]
}

/// One detected invariant violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OracleViolation {
    /// Cycle of the offending observation (device cycles for hardware
    /// rules, CPU cycles for event/MSHR rules — the detail says which).
    pub at: u64,
    /// The invariant class.
    pub rule: OracleRule,
    /// Human-readable specifics (channel, token, lateness, …).
    pub detail: String,
}

impl std::fmt::Display for OracleViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "cycle {}: {} ({})", self.at, self.rule, self.detail)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The hand-maintained linkage list must track the checker's rule
    /// vocabulary exactly — in both directions.
    #[test]
    fn linked_list_is_exhaustive() {
        let linked = linked_protocol_rules();
        assert_eq!(linked.len(), Rule::ALL.len(), "linkage list out of date");
        for r in Rule::ALL {
            assert!(linked.contains(&r), "rule {r} missing from linked_protocol_rules()");
        }
    }
}

impl cwf_ckpt::Ckpt for OracleRule {
    fn save(&self, w: &mut cwf_ckpt::Writer) {
        match *self {
            OracleRule::Protocol(rule) => {
                w.put_u8(0);
                cwf_ckpt::Ckpt::save(&rule, w);
            }
            OracleRule::RefreshMissed => w.put_u8(1),
            OracleRule::CmdSlotDoubleBooked => w.put_u8(2),
            OracleRule::DuplicateLineFill => w.put_u8(3),
            OracleRule::DuplicateWordDelivery => w.put_u8(4),
            OracleRule::UnknownToken => w.put_u8(5),
            OracleRule::NonMonotonicArrival => w.put_u8(6),
            OracleRule::IncompleteFill => w.put_u8(7),
            OracleRule::InclusionViolation => w.put_u8(8),
            OracleRule::SkipMissedDeadline => w.put_u8(9),
            OracleRule::SpanOverrun => w.put_u8(10),
            OracleRule::CacheTagMismatch => w.put_u8(11),
            OracleRule::CacheDoubleFill => w.put_u8(12),
            OracleRule::CacheWritebackLost => w.put_u8(13),
            OracleRule::AuditOutOfOrder => w.put_u8(14),
        }
    }
    fn load(r: &mut cwf_ckpt::Reader<'_>) -> cwf_ckpt::Result<Self> {
        Ok(match r.get_u8()? {
            0 => OracleRule::Protocol(cwf_ckpt::Ckpt::load(r)?),
            1 => OracleRule::RefreshMissed,
            2 => OracleRule::CmdSlotDoubleBooked,
            3 => OracleRule::DuplicateLineFill,
            4 => OracleRule::DuplicateWordDelivery,
            5 => OracleRule::UnknownToken,
            6 => OracleRule::NonMonotonicArrival,
            7 => OracleRule::IncompleteFill,
            8 => OracleRule::InclusionViolation,
            9 => OracleRule::SkipMissedDeadline,
            10 => OracleRule::SpanOverrun,
            11 => OracleRule::CacheTagMismatch,
            12 => OracleRule::CacheDoubleFill,
            13 => OracleRule::CacheWritebackLost,
            14 => OracleRule::AuditOutOfOrder,
            v => return Err(cwf_ckpt::CkptError::new(format!("invalid OracleRule tag {v}"))),
        })
    }
}

cwf_ckpt::ckpt_struct!(OracleViolation { at, rule, detail });
