//! Request/event vocabulary shared by all memory backends.

use crate::controller::ControllerStats;

pub use cwf_tracelog::RequestToken;
// `Token` is the historical local name for the workspace-wide
// `RequestToken`: backends mint it, the cache hierarchy keys MSHR
// entries on it, and both the verify oracle (`FillOracle`) and the
// trace log identify a read by the same value — there is exactly one
// request ID space.
pub use cwf_tracelog::RequestToken as Token;

/// What kind of access a [`LineRequest`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// A demand read caused by a core's load (or store miss).
    DemandRead,
    /// A prefetcher-generated read (lower priority at the controller).
    PrefetchRead,
    /// A dirty-line writeback. `predicted_critical` carries the critical
    /// word the adaptive CWF placement should install for this line
    /// (§4.2.5); homogeneous backends ignore it.
    Write {
        /// Critical word observed on the line's last fetch (0–7).
        predicted_critical: u8,
    },
}

/// One cache-line transaction presented to main memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LineRequest {
    /// Byte address of the 64-byte-aligned cache line.
    pub line_addr: u64,
    /// Which of the 8 words the waiting instruction needs first (0–7).
    pub critical_word: u8,
    /// Demand read, prefetch read or writeback.
    pub kind: AccessKind,
    /// Requesting core (for statistics and fairness accounting).
    pub core: u8,
}

impl LineRequest {
    /// A demand read for `line_addr` whose critical word is `critical_word`.
    #[must_use]
    pub fn demand_read(line_addr: u64, critical_word: u8, core: u8) -> Self {
        LineRequest { line_addr, critical_word, kind: AccessKind::DemandRead, core }
    }

    /// A prefetch read (critical word irrelevant; word 0 by convention).
    #[must_use]
    pub fn prefetch_read(line_addr: u64, core: u8) -> Self {
        LineRequest { line_addr, critical_word: 0, kind: AccessKind::PrefetchRead, core }
    }

    /// A writeback of a dirty line, tagging the predicted critical word.
    #[must_use]
    pub fn writeback(line_addr: u64, predicted_critical: u8, core: u8) -> Self {
        LineRequest {
            line_addr,
            critical_word: predicted_critical,
            kind: AccessKind::Write { predicted_critical },
            core,
        }
    }

    /// True for reads (demand or prefetch).
    #[must_use]
    pub fn is_read(&self) -> bool {
        !matches!(self.kind, AccessKind::Write { .. })
    }
}

/// Completion events a memory backend reports back to the hierarchy.
///
/// A read produces one or two [`MemEvent::WordsAvailable`] events (the CWF
/// design delivers the fast DIMM's word and the slow DIMM's words
/// separately, possibly tens of CPU cycles apart) followed by — or
/// coincident with — one [`MemEvent::LineFilled`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemEvent {
    /// Some words of the line are home and passed their early check:
    /// instructions waiting on any of them may be woken.
    WordsAvailable {
        /// Transaction this event belongs to.
        token: Token,
        /// CPU cycle of availability.
        at: u64,
        /// Bitmask of 64-bit word indices now available (bit *i* ⇒ word *i*).
        words: u8,
        /// Whether the low-latency (fast) DIMM supplied these words.
        served_fast: bool,
    },
    /// The full line (and its ECC) has arrived: the caches may be filled
    /// and the MSHR freed.
    LineFilled {
        /// Transaction this event belongs to.
        token: Token,
        /// CPU cycle of arrival.
        at: u64,
    },
}

impl MemEvent {
    /// The transaction this event refers to.
    #[must_use]
    pub fn token(&self) -> Token {
        match *self {
            MemEvent::WordsAvailable { token, .. } | MemEvent::LineFilled { token, .. } => token,
        }
    }

    /// CPU cycle at which the event takes effect.
    #[must_use]
    pub fn at(&self) -> u64 {
        match *self {
            MemEvent::WordsAvailable { at, .. } | MemEvent::LineFilled { at, .. } => at,
        }
    }
}

/// Error returned when a request cannot be accepted this cycle (queue full).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemBusy;

impl std::fmt::Display for MemBusy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "memory transaction queue full")
    }
}

impl std::error::Error for MemBusy {}

/// Aggregated end-of-run statistics from a memory backend.
#[derive(Debug, Clone, Default)]
pub struct MemSystemStats {
    /// One entry per controller (order is backend-defined but stable).
    pub controllers: Vec<ControllerStats>,
}

impl MemSystemStats {
    /// Total reads completed across all controllers.
    #[must_use]
    pub fn total_reads(&self) -> u64 {
        self.controllers.iter().map(|c| c.reads_done).sum()
    }

    /// Total writes issued across all controllers.
    #[must_use]
    pub fn total_writes(&self) -> u64 {
        self.controllers.iter().map(|c| c.writes_done).sum()
    }

    /// Mean read queueing delay in nanoseconds.
    #[must_use]
    pub fn avg_queue_ns(&self) -> f64 {
        let (sum, n): (f64, u64) = self
            .controllers
            .iter()
            .fold((0.0, 0), |(s, n), c| (s + c.sum_queue_ns, n + c.reads_done));
        if n == 0 {
            0.0
        } else {
            sum / n as f64
        }
    }

    /// Merged read-latency histogram (integer nanoseconds) across all
    /// controllers. Merge order does not matter — bucket addition is
    /// commutative — so this is identical however the run was scheduled.
    #[must_use]
    pub fn read_lat_hist(&self) -> dram_timing::stats::LatencyHist {
        let mut h = dram_timing::stats::LatencyHist::default();
        for c in &self.controllers {
            h.merge(&c.read_lat_hist);
        }
        h
    }

    /// Subtract an earlier snapshot of the same memory system (warm-up
    /// exclusion): controller-by-controller [`ControllerStats::sub`].
    ///
    /// # Panics
    ///
    /// Panics (debug builds) if the controller lists do not match
    /// one-to-one in order.
    pub fn sub(&mut self, earlier: &MemSystemStats) {
        debug_assert_eq!(self.controllers.len(), earlier.controllers.len());
        for (c, e) in self.controllers.iter_mut().zip(&earlier.controllers) {
            c.sub(e);
        }
    }

    /// Mean read service (core) latency in nanoseconds.
    #[must_use]
    pub fn avg_service_ns(&self) -> f64 {
        let (sum, n): (f64, u64) = self
            .controllers
            .iter()
            .fold((0.0, 0), |(s, n), c| (s + c.sum_service_ns, n + c.reads_done));
        if n == 0 {
            0.0
        } else {
            sum / n as f64
        }
    }
}

/// Interface every main-memory backend implements.
///
/// The full-system simulator drives this once per CPU cycle; backends with
/// slower device clocks divide internally.
pub trait MainMemory {
    /// Try to accept a transaction at CPU cycle `now`.
    ///
    /// Returns `Ok(Some(token))` for reads, `Ok(None)` for writes (which
    /// are fire-and-forget), or `Err(MemBusy)` when the relevant queue(s)
    /// have no space — the caller must retry later.
    ///
    /// # Errors
    ///
    /// [`MemBusy`] when a transaction queue is full.
    fn try_submit(&mut self, req: &LineRequest, now: u64) -> Result<Option<Token>, MemBusy>;

    /// Advance internal state to CPU cycle `now`.
    fn tick(&mut self, now: u64);

    /// Append all events that have become visible by `now` to `out`.
    fn drain_events(&mut self, now: u64, out: &mut Vec<MemEvent>);

    /// Snapshot statistics (settling residency up to `now`).
    fn stats(&mut self, now: u64) -> MemSystemStats;

    /// Earliest CPU cycle strictly after `now` at which this backend can
    /// change observable state: issue a queued command, complete a burst,
    /// hit a refresh deadline, cross a power-down/self-refresh idle
    /// threshold, or re-check a write-drain watermark.
    ///
    /// The event-driven kernel skips `tick` calls up to (exclusive) the
    /// returned cycle, so the bound must be *conservative*: returning an
    /// earlier cycle than necessary is a harmless no-op wake; returning a
    /// later one breaks cycle accuracy. `None` means "idle forever absent
    /// new requests". The default is the always-safe `Some(now + 1)`
    /// (tick every cycle — degenerates to the cycle-driven kernel).
    fn next_activity(&self, now: u64) -> Option<u64> {
        Some(now + 1)
    }

    /// Start recording [`AuditRecord`]s (every controller's power changes
    /// and commands, plus an organization's own bookkeeping) for the
    /// verify oracle and the tracer. Backends without audit support ignore this — they then
    /// report no channels and no records, and the oracle simply has
    /// nothing to check.
    ///
    /// [`AuditRecord`]: crate::audit::AuditRecord
    fn enable_audit(&mut self) {}

    /// Describe the audited channels, in the index order used by
    /// [`AuditRecord::Act`]'s `channel` field. Empty unless
    /// [`MainMemory::enable_audit`] was called (or unsupported).
    ///
    /// [`AuditRecord::Act`]: crate::audit::AuditRecord::Act
    fn audit_channels(&self) -> Vec<crate::audit::ChannelDesc> {
        Vec::new()
    }

    /// Pass the audit records accumulated since the last drain to `visit`,
    /// in one pass: each channel's acts in the order its controller acted
    /// (so its power changes and commands in device-cycle order), channel
    /// by channel, then the organization's records.
    fn drain_audit(&mut self, visit: &mut dyn FnMut(crate::audit::AuditRecord)) {
        let _ = visit;
    }

    /// Start emitting the organization's own [`TraceEvent`]s (DRAM-cache
    /// probes and fills) and logging the controllers' request acts, which
    /// reach the tracer through [`MainMemory::drain_audit`]. Backends
    /// without trace support ignore this.
    ///
    /// [`TraceEvent`]: cwf_tracelog::TraceEvent
    fn enable_trace(&mut self) {}

    /// Append the organization trace events emitted since the last drain
    /// to `out`. Timestamps are CPU cycles.
    fn drain_trace(&mut self, out: &mut Vec<cwf_tracelog::TraceEvent>) {
        let _ = out;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_classify_reads_and_writes() {
        assert!(LineRequest::demand_read(0, 3, 1).is_read());
        assert!(LineRequest::prefetch_read(0, 1).is_read());
        assert!(!LineRequest::writeback(0, 3, 1).is_read());
    }

    #[test]
    fn event_accessors() {
        let e = MemEvent::WordsAvailable { token: Token(7), at: 99, words: 0b1, served_fast: true };
        assert_eq!(e.token(), Token(7));
        assert_eq!(e.at(), 99);
        let f = MemEvent::LineFilled { token: Token(8), at: 100 };
        assert_eq!(f.token(), Token(8));
        assert_eq!(f.at(), 100);
    }
}

impl cwf_ckpt::Ckpt for AccessKind {
    fn save(&self, w: &mut cwf_ckpt::Writer) {
        match *self {
            AccessKind::DemandRead => w.put_u8(0),
            AccessKind::PrefetchRead => w.put_u8(1),
            AccessKind::Write { predicted_critical } => {
                w.put_u8(2);
                w.put_u8(predicted_critical);
            }
        }
    }
    fn load(r: &mut cwf_ckpt::Reader<'_>) -> cwf_ckpt::Result<Self> {
        Ok(match r.get_u8()? {
            0 => AccessKind::DemandRead,
            1 => AccessKind::PrefetchRead,
            2 => AccessKind::Write { predicted_critical: r.get_u8()? },
            v => return Err(cwf_ckpt::CkptError::new(format!("invalid AccessKind tag {v}"))),
        })
    }
}

cwf_ckpt::ckpt_struct!(LineRequest { line_addr, critical_word, kind, core });

impl cwf_ckpt::Ckpt for MemEvent {
    fn save(&self, w: &mut cwf_ckpt::Writer) {
        match *self {
            MemEvent::WordsAvailable { token, at, words, served_fast } => {
                w.put_u8(0);
                cwf_ckpt::Ckpt::save(&token, w);
                w.put_u64(at);
                w.put_u8(words);
                w.put_u8(u8::from(served_fast));
            }
            MemEvent::LineFilled { token, at } => {
                w.put_u8(1);
                cwf_ckpt::Ckpt::save(&token, w);
                w.put_u64(at);
            }
        }
    }
    fn load(r: &mut cwf_ckpt::Reader<'_>) -> cwf_ckpt::Result<Self> {
        Ok(match r.get_u8()? {
            0 => MemEvent::WordsAvailable {
                token: cwf_ckpt::Ckpt::load(r)?,
                at: r.get_u64()?,
                words: r.get_u8()?,
                served_fast: r.get_u8()? != 0,
            },
            1 => MemEvent::LineFilled { token: cwf_ckpt::Ckpt::load(r)?, at: r.get_u64()? },
            v => return Err(cwf_ckpt::CkptError::new(format!("invalid MemEvent tag {v}"))),
        })
    }
}

cwf_ckpt::ckpt_struct!(MemSystemStats { controllers });
