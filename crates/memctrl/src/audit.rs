//! Observation vocabulary for the verify oracle and the tracer.
//!
//! When auditing is enabled (see [`crate::MainMemory::enable_audit`])
//! every controller appends one [`Act`] per power change and command to
//! one log, in the order it acts, and its request acts too while tracing
//! is enabled. A drain tags each with the channel it happened on. The
//! `cwf-verify` oracle replays the power changes and commands through
//! independent shadow checkers (protocol legality, refresh obligations,
//! shared command-bus occupancy) without touching the live simulation
//! state; the tracer turns every act into a trace event.

use dram_timing::{Command, DeviceConfig, PowerState};

use crate::request::Token;

/// One observable act of a controller, in the order `tick_mem` and the
/// enqueue calls act.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Act {
    /// Rank `rank` entered power state `state`.
    Power {
        /// Affected rank.
        rank: u8,
        /// State the rank is in *after* the transition.
        state: PowerState,
    },
    /// A DRAM command the refresh unit issued: a refresh, or a precharge
    /// closing a bank for one.
    RefreshCmd(Command),
    /// A DRAM command the scheduler issued for transaction `token`.
    Cmd {
        /// The command.
        cmd: Command,
        /// The transaction it serves.
        token: Token,
    },
    /// A read entered the read queue.
    Enqueue(Token),
    /// The write drain began (`enter`) or ended.
    Drain {
        /// True when the drain began.
        enter: bool,
    },
    /// A read's last data beat. Stamped with the beat's own cycle, which
    /// lies after the read command's.
    DataEnd(Token),
}

/// One observed event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AuditRecord {
    /// Act `act` of the controller of `channel`, at device cycle `at_mem`
    /// of that channel's clock.
    Act {
        /// Index into the backend's [`ChannelDesc`] list.
        channel: usize,
        /// Device cycle of the act (channel-local clock).
        at_mem: u64,
        /// What the controller did.
        act: Act,
    },
    /// A DRAM-cache bookkeeping event (tag probe, miss fill, eviction,
    /// writeback) at CPU cycle `at`. Emitted only by cache-organized
    /// backends; the oracle's cache-consistency checker replays these
    /// against a shadow tag array.
    Cache {
        /// CPU cycle of the event (cache bookkeeping is cross-channel, so
        /// it is stamped in the global clock, not a channel clock).
        at: u64,
        /// What happened.
        op: CacheAuditOp,
    },
}

/// One DRAM-cache bookkeeping event (see [`AuditRecord::Cache`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheAuditOp {
    /// A tag probe resolved for `line` in `set`.
    Probe {
        /// Line address (line-granular, i.e. byte address >> 6).
        line: u64,
        /// Cache set the line indexes.
        set: u32,
        /// Whether the probe declared a hit.
        hit: bool,
        /// Whether the probing access was a write.
        write: bool,
    },
    /// `line` was installed into `(set, way)` (miss fill).
    Fill {
        /// Line address.
        line: u64,
        /// Cache set.
        set: u32,
        /// Way within the set.
        way: u32,
    },
    /// The line in `(set, way)` was evicted to make room.
    Evict {
        /// Line address of the victim.
        line: u64,
        /// Cache set.
        set: u32,
        /// Way within the set.
        way: u32,
        /// Whether the victim held dirty data (must have been written
        /// back before this record).
        dirty: bool,
    },
    /// Dirty `line` was written back to the slow store.
    Writeback {
        /// Line address.
        line: u64,
        /// Cache set.
        set: u32,
    },
}

/// Static description of one audited channel, used by the oracle to build
/// matching shadow checkers.
#[derive(Debug, Clone)]
pub struct ChannelDesc {
    /// Reporting label, e.g. `"ddr3-ch0"`.
    pub label: String,
    /// Device preset behind the channel (the oracle checks against these
    /// timings — deliberately taken from the pristine preset, never from a
    /// fault-shaved copy).
    pub cfg: DeviceConfig,
    /// Ranks on the channel.
    pub ranks: u32,
    /// Channels that share one address/command bus (§4.2.4 sub-ranked
    /// aggregation) carry the same group id; `None` means a private bus.
    /// The oracle flags two commands in the same device cycle within one
    /// group as a slot double-booking.
    pub bus_group: Option<u32>,
}
