//! Latency-waterfall attribution: decompose each traced read into
//! pipeline stages whose sum is exactly the end-to-end latency.

use std::collections::BTreeMap;

use crate::event::{RequestToken, TraceEvent};

/// Number of waterfall stages.
pub const STAGES: usize = 6;

/// Stage names, in decomposition order.
pub const STAGE_NAMES: [&str; STAGES] =
    ["queue", "activate", "cas", "bus", "cw_offset", "fill_tail"];

/// Per-read stage decomposition. All stage widths are CPU cycles and
/// sum exactly to `total == fill_at - alloc_at`:
///
/// | stage       | interval                                          |
/// |-------------|---------------------------------------------------|
/// | `queue`     | MSHR allocation → first DRAM command for the read |
/// | `activate`  | first command (PRE/ACT) → column command          |
/// | `cas`       | column command → first data beat (CAS latency)    |
/// | `bus`       | data-bus occupancy of the burst                   |
/// | `cw_offset` | burst end → critical word usable at the L2        |
/// | `fill_tail` | critical word → full line filled                  |
///
/// The command chain (`queue`..`bus`) is taken from the channel that
/// delivered the critical word; for the heterogeneous CWF backend
/// that is normally the fast RLDRAM3 sub-channel, and `fill_tail`
/// then covers the wait for the slow channel's remainder.
/// `cw_offset` is zero except when the critical word's usability is
/// deferred past its burst (e.g. SECDED parity confirmation).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReadWaterfall {
    /// The read's token.
    pub token: RequestToken,
    /// Requesting core.
    pub core: u8,
    /// Critical word index.
    pub critical_word: u8,
    /// True for demand misses, false for prefetches.
    pub demand: bool,
    /// CPU cycle of MSHR allocation (start of the read).
    pub alloc_at: u64,
    /// End-to-end latency in CPU cycles (`fill - alloc`).
    pub total: u64,
    /// Stage widths, ordered as [`STAGE_NAMES`].
    pub stages: [u64; STAGES],
}

/// Aggregated decomposition over a whole trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WaterfallSummary {
    /// Reads successfully decomposed.
    pub reads: u64,
    /// Tokens seen with read-chain records that could not be
    /// decomposed (typically because the ring dropped part of their
    /// chain, or the backend does not expose channel instrumentation).
    pub incomplete: u64,
    /// Sum of each stage across all decomposed reads.
    pub stage_sums: [u64; STAGES],
    /// Sum of end-to-end latencies across all decomposed reads.
    pub total_cycles: u64,
}

impl WaterfallSummary {
    /// Mean width of stage `i` in CPU cycles, 0.0 when no reads.
    #[must_use]
    pub fn avg_stage(&self, i: usize) -> f64 {
        if self.reads == 0 {
            0.0
        } else {
            self.stage_sums[i] as f64 / self.reads as f64
        }
    }
}

/// Per-channel command chain gathered for one token.
#[derive(Debug, Clone, Copy, Default)]
struct Chain {
    first_cmd: Option<u64>,
    cas: Option<u64>,
    data_end: Option<u64>,
    burst: u32,
}

#[derive(Debug, Default)]
struct Pending {
    alloc: Option<(u64, u8, u8, bool)>, // at, core, critical_word, demand
    fill: Option<u64>,
    words: Vec<(u64, u8)>, // at, word bitmask
    chains: BTreeMap<u16, Chain>,
}

/// Reconstruct per-read waterfalls from a flat event log.
///
/// Returns the decomposed reads (in token order) plus the aggregate
/// summary. Tokens whose causal chain is only partially present are
/// counted in [`WaterfallSummary::incomplete`] and skipped; tokens
/// with *no* read-chain anchor at all (e.g. write bursts) are
/// ignored.
#[must_use]
pub fn build(events: &[TraceEvent]) -> (Vec<ReadWaterfall>, WaterfallSummary) {
    let mut pend: BTreeMap<u64, Pending> = BTreeMap::new();
    for ev in events {
        match *ev {
            TraceEvent::MshrAlloc { token, core, at, critical_word, demand, .. } => {
                pend.entry(token.0).or_default().alloc = Some((at, core, critical_word, demand));
            }
            TraceEvent::FillDone { token, at } => {
                pend.entry(token.0).or_default().fill = Some(at);
            }
            TraceEvent::WordsArrived { token, at, words, .. } => {
                pend.entry(token.0).or_default().words.push((at, words));
            }
            TraceEvent::McActivate { token, channel, at, .. }
            | TraceEvent::McPrecharge { token, channel, at, .. } => {
                let c = pend.entry(token.0).or_default().chains.entry(channel).or_default();
                if c.first_cmd.is_none() {
                    c.first_cmd = Some(at);
                }
            }
            TraceEvent::McCas { token, channel, at, write: false, .. } => {
                let c = pend.entry(token.0).or_default().chains.entry(channel).or_default();
                if c.first_cmd.is_none() {
                    c.first_cmd = Some(at);
                }
                if c.cas.is_none() {
                    c.cas = Some(at);
                }
            }
            TraceEvent::McDataEnd { token, channel, at, burst_cycles } => {
                let c = pend.entry(token.0).or_default().chains.entry(channel).or_default();
                if c.data_end.is_none() {
                    c.data_end = Some(at);
                    c.burst = burst_cycles;
                }
            }
            _ => {}
        }
    }

    let mut out = Vec::new();
    let mut summary = WaterfallSummary::default();
    // BTreeMap iteration is already in token order.
    for (&t, p) in &pend {
        // Write bursts and other tokenless-chain records have neither
        // an allocation nor a fill; they are not reads.
        if p.alloc.is_none() && p.fill.is_none() && p.words.is_empty() {
            continue;
        }
        match decompose(RequestToken(t), p) {
            Some(w) => {
                summary.reads += 1;
                summary.total_cycles += w.total;
                for i in 0..STAGES {
                    summary.stage_sums[i] += w.stages[i];
                }
                out.push(w);
            }
            None => summary.incomplete += 1,
        }
    }
    (out, summary)
}

fn decompose(token: RequestToken, p: &Pending) -> Option<ReadWaterfall> {
    let (alloc_at, core, critical_word, demand) = p.alloc?;
    let fill = p.fill?;
    // Critical word usable = earliest delivery containing its bit;
    // deliveries never come later than the fill.
    let cw_at = p
        .words
        .iter()
        .filter(|(_, words)| words & (1 << critical_word) != 0)
        .map(|(at, _)| *at)
        .min()
        .unwrap_or(fill);
    // Serving chain: the latest complete command chain whose burst
    // finished no later than the critical word became usable.
    let chain = p
        .chains
        .values()
        .filter(|c| c.first_cmd.is_some() && c.cas.is_some() && c.data_end.is_some())
        .filter(|c| c.data_end.unwrap() <= cw_at)
        .max_by_key(|c| c.data_end.unwrap())?;
    let first_cmd = chain.first_cmd.unwrap();
    let cas = chain.cas.unwrap();
    let data_end = chain.data_end.unwrap();
    let burst = u64::from(chain.burst);
    let queue = first_cmd.checked_sub(alloc_at)?;
    let activate = cas.checked_sub(first_cmd)?;
    let cas_stage = data_end.checked_sub(burst)?.checked_sub(cas)?;
    let cw_offset = cw_at.checked_sub(data_end)?;
    let fill_tail = fill.checked_sub(cw_at)?;
    let stages = [queue, activate, cas_stage, burst, cw_offset, fill_tail];
    Some(ReadWaterfall {
        token,
        core,
        critical_word,
        demand,
        alloc_at,
        total: fill.checked_sub(alloc_at)?,
        stages,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A hand-built fast+slow CWF-style chain.
    fn sample_events() -> Vec<TraceEvent> {
        let t = RequestToken(1);
        vec![
            TraceEvent::MshrAlloc {
                token: t,
                core: 0,
                at: 100,
                line: 0x40,
                critical_word: 3,
                demand: true,
            },
            TraceEvent::McEnqueue { token: t, channel: 0, at: 100 },
            TraceEvent::McEnqueue { token: t, channel: 4, at: 100 },
            // Fast channel: CAS straight away (close page), short burst.
            TraceEvent::McCas { token: t, channel: 0, at: 112, rank: 0, bank: 1, write: false },
            TraceEvent::McDataEnd { token: t, channel: 0, at: 140, burst_cycles: 8 },
            TraceEvent::WordsArrived { token: t, at: 140, words: 1 << 3, served_fast: true },
            // Slow channel: PRE + ACT then CAS, long burst.
            TraceEvent::McPrecharge { token: t, channel: 4, at: 120, rank: 0, bank: 2 },
            TraceEvent::McActivate { token: t, channel: 4, at: 160, rank: 0, bank: 2 },
            TraceEvent::McCas { token: t, channel: 4, at: 200, rank: 0, bank: 2, write: false },
            TraceEvent::McDataEnd { token: t, channel: 4, at: 280, burst_cycles: 16 },
            TraceEvent::WordsArrived { token: t, at: 280, words: 0xF7, served_fast: false },
            TraceEvent::FillDone { token: t, at: 280 },
        ]
    }

    #[test]
    fn fast_served_read_decomposes_exactly() {
        let (reads, summary) = build(&sample_events());
        assert_eq!(summary.reads, 1);
        assert_eq!(summary.incomplete, 0);
        let w = reads[0];
        // Serving chain is the fast one (burst end 140 == cw usable).
        assert_eq!(w.stages, [12, 0, 20, 8, 0, 140]);
        assert_eq!(w.stages.iter().sum::<u64>(), w.total);
        assert_eq!(w.total, 180);
    }

    #[test]
    fn incomplete_chain_is_counted_not_decomposed() {
        // Drop the command chain; keep alloc + fill.
        let ev: Vec<TraceEvent> = sample_events()
            .into_iter()
            .filter(|e| {
                !matches!(
                    e,
                    TraceEvent::McCas { .. }
                        | TraceEvent::McDataEnd { .. }
                        | TraceEvent::McActivate { .. }
                        | TraceEvent::McPrecharge { .. }
                )
            })
            .collect();
        let (reads, summary) = build(&ev);
        assert!(reads.is_empty());
        assert_eq!(summary.incomplete, 1);
    }

    #[test]
    fn write_only_tokens_are_ignored() {
        let ev = vec![
            TraceEvent::McCas {
                token: RequestToken(99),
                channel: 0,
                at: 10,
                rank: 0,
                bank: 0,
                write: true,
            },
            TraceEvent::McDataEnd { token: RequestToken(99), channel: 0, at: 30, burst_cycles: 8 },
        ];
        let (reads, summary) = build(&ev);
        assert!(reads.is_empty());
        assert_eq!(summary.incomplete, 0);
    }
}
