//! System-level trace collection (`Tracer`) and the end-of-run
//! [`TraceReport`]: Perfetto export plus the latency-waterfall
//! decomposition.
//!
//! The tracer is a pure observer. It drains the instrumentation buffers
//! that every layer fills when tracing is enabled (see
//! [`cwf_tracelog::TraceEvent`]), turns the controllers' logged acts into
//! trace events ([`act_event`]), and pushes the events into a
//! fixed-capacity [`TraceRing`] (oldest events drop on overflow — the
//! simulation never stalls or reallocates on behalf of the trace).

use cwf_tracelog::{
    waterfall, ReadWaterfall, TraceEvent, TraceMeta, TraceRing, WaterfallSummary, STAGE_NAMES,
};
use dram_timing::{Command, PowerState};
use mem_ctrl::{Act, AuditRecord, ChannelDesc};

use crate::metrics::CPU_HZ;

/// The trace event one drained audit record stands for, in CPU cycles
/// (`channels` is the backend's `audit_channels()`). `None` for a
/// refresh-unit precharge, which serves no request, and for cache
/// bookkeeping, which the organization traces itself.
#[must_use]
pub fn act_event(channels: &[ChannelDesc], rec: AuditRecord) -> Option<TraceEvent> {
    let AuditRecord::Act { channel, at_mem, act } = rec else { return None };
    let cfg = &channels[channel].cfg;
    let ratio = u64::from(cfg.cpu_cycles_per_mem_cycle).max(1);
    let (channel, at) = (channel as u16, at_mem * ratio);
    Some(match act {
        Act::Enqueue(token) => TraceEvent::McEnqueue { token, channel, at },
        Act::Drain { enter: true } => TraceEvent::McDrainEnter { channel, at },
        Act::Drain { enter: false } => TraceEvent::McDrainExit { channel, at },
        Act::DataEnd(token) => TraceEvent::McDataEnd {
            token,
            channel,
            at,
            burst_cycles: (u64::from(cfg.timings.t_burst) * ratio) as u32,
        },
        Act::Cmd { cmd: Command::Activate { rank, bank, .. }, token } => {
            TraceEvent::McActivate { token, channel, at, rank, bank }
        }
        Act::Cmd { cmd: Command::Precharge { rank, bank }, token } => {
            TraceEvent::McPrecharge { token, channel, at, rank, bank }
        }
        Act::Cmd { cmd: Command::Read { rank, bank, .. }, token } => {
            TraceEvent::McCas { token, channel, at, rank, bank, write: false }
        }
        Act::Cmd { cmd: Command::Write { rank, bank, .. }, token } => {
            TraceEvent::McCas { token, channel, at, rank, bank, write: true }
        }
        Act::RefreshCmd(Command::Refresh { rank } | Command::RefreshBank { rank, .. }) => {
            TraceEvent::DramRefresh { channel, at, rank }
        }
        Act::Cmd { .. } | Act::RefreshCmd(_) => return None,
        Act::Power { rank, state } => TraceEvent::DramPower {
            channel,
            at,
            rank,
            state: match state {
                PowerState::Up => 0,
                PowerState::PowerDown => 1,
                PowerState::SelfRefresh => 2,
            },
        },
    })
}

/// Live trace state carried by a running [`crate::System`].
///
/// A drained batch reaches the ring as core and hierarchy events, the
/// controllers' request events, the organization's events, then the
/// DRAM-level refresh and power events. A full ring drops its oldest
/// events first, so this order, the one the trace has always had, keeps
/// every traced run document byte-identical (DESIGN.md §10).
#[derive(Debug)]
pub(crate) struct Tracer {
    ring: TraceRing,
    /// The backend's audited channels, indexed like the records.
    channels: Vec<ChannelDesc>,
    /// The current batch's DRAM-level events, held for its tail. Empty
    /// between batches, so never checkpointed.
    tail: Vec<TraceEvent>,
    meta: TraceMeta,
}

impl Tracer {
    /// Build a tracer for a backend described by `channels` (the
    /// backend's `audit_channels()`, whose indices match the channel
    /// numbers in audit records).
    pub(crate) fn new(channels: &[ChannelDesc], cores: u8) -> Self {
        Tracer {
            ring: TraceRing::new(TraceRing::DEFAULT_CAPACITY),
            channels: channels.to_vec(),
            tail: Vec::new(),
            meta: TraceMeta {
                cycles_per_us: (CPU_HZ / 1e6) as u64,
                channel_labels: channels.iter().map(|c| c.label.clone()).collect(),
                cores,
            },
        }
    }

    /// Ring a batch's already-converted (CPU-cycle) events.
    pub(crate) fn absorb_events(&mut self, events: &mut Vec<TraceEvent>) {
        self.ring.extend_from(events);
    }

    /// Ring the trace event of one drained record now, or hold it for the
    /// batch tail when it is a DRAM-level refresh or power event.
    pub(crate) fn absorb_record(&mut self, rec: AuditRecord) {
        match act_event(&self.channels, rec) {
            Some(e @ (TraceEvent::DramRefresh { .. } | TraceEvent::DramPower { .. })) => {
                self.tail.push(e);
            }
            Some(e) => self.ring.push(e),
            None => {}
        }
    }

    /// Close a batch: ring the organization's `events`, then the held
    /// DRAM-level events.
    pub(crate) fn end_batch(&mut self, events: &mut Vec<TraceEvent>) {
        self.ring.extend_from(events);
        self.ring.extend_from(&mut self.tail);
    }

    /// Snapshot the ring into a finished report.
    pub(crate) fn report(&self) -> TraceReport {
        TraceReport::new(self.ring.snapshot(), self.ring.dropped(), self.meta.clone())
    }

    /// Serialize the ring (contents + overflow count). `channels` and
    /// `meta` derive from the run configuration and are rebuilt on
    /// restore, like every other configured field in the checkpoint.
    pub(crate) fn save_state(&self, w: &mut cwf_ckpt::Writer) {
        use cwf_ckpt::Ckpt;
        self.ring.snapshot().save(w);
        self.ring.dropped().save(w);
    }

    /// Restore a ring saved by [`Tracer::save_state`] into this tracer
    /// (freshly built for the same backend).
    ///
    /// # Errors
    ///
    /// Fails on a malformed event stream.
    pub(crate) fn load_state(&mut self, r: &mut cwf_ckpt::Reader<'_>) -> cwf_ckpt::Result<()> {
        use cwf_ckpt::Ckpt;
        let events: Vec<TraceEvent> = Ckpt::load(r)?;
        let dropped = u64::load(r)?;
        self.ring = TraceRing::from_snapshot(TraceRing::DEFAULT_CAPACITY, events, dropped);
        Ok(())
    }
}

/// Everything the trace subsystem produced for one run.
#[derive(Debug, Clone)]
pub struct TraceReport {
    /// The surviving event log, in ring (arrival) order.
    pub events: Vec<TraceEvent>,
    /// Events the ring dropped (oldest-first) because it was full.
    pub dropped: u64,
    /// Export context (clock rate, channel labels, core count).
    pub meta: TraceMeta,
    /// Per-read latency decompositions, in token order.
    pub waterfalls: Vec<ReadWaterfall>,
    /// Aggregate over [`TraceReport::waterfalls`].
    pub summary: WaterfallSummary,
}

impl TraceReport {
    /// Build a report (runs the waterfall reconstruction).
    #[must_use]
    pub fn new(events: Vec<TraceEvent>, dropped: u64, meta: TraceMeta) -> Self {
        let (waterfalls, summary) = waterfall::build(&events);
        TraceReport { events, dropped, meta, waterfalls, summary }
    }

    /// Render the event log as a Perfetto/Chrome trace-event JSON
    /// document (load it at `ui.perfetto.dev` or `chrome://tracing`).
    #[must_use]
    pub fn perfetto_json(&self) -> String {
        cwf_tracelog::perfetto::export(&self.events, &self.meta)
    }

    /// Render the additive `"trace"` object for the run-JSON document
    /// (`indent` is the leading whitespace of the object's lines).
    #[must_use]
    pub fn to_json_object(&self, indent: &str) -> String {
        let s = &self.summary;
        let mut o = String::new();
        o.push_str("{\n");
        o.push_str(&format!("{indent}  \"events\": {},\n", self.events.len()));
        o.push_str(&format!("{indent}  \"dropped_events\": {},\n", self.dropped));
        o.push_str(&format!("{indent}  \"waterfall_reads\": {},\n", s.reads));
        o.push_str(&format!("{indent}  \"waterfall_incomplete\": {},\n", s.incomplete));
        o.push_str(&format!("{indent}  \"total_cycles\": {},\n", s.total_cycles));
        o.push_str(&format!("{indent}  \"stages\": {{"));
        for (i, name) in STAGE_NAMES.iter().enumerate() {
            if i > 0 {
                o.push(',');
            }
            o.push_str(&format!(
                "\n{indent}    \"{name}\": {{ \"sum_cycles\": {}, \"avg_cycles\": {:.6} }}",
                s.stage_sums[i],
                s.avg_stage(i)
            ));
        }
        o.push_str(&format!("\n{indent}  }}"));
        // DRAM-cache stages appear only when the backend emitted them, so
        // documents from the classic backends stay byte-identical.
        let mut probes = 0u64;
        let mut hits = 0u64;
        let mut fills = 0u64;
        let mut misses_filled = 0u64;
        for e in &self.events {
            match *e {
                TraceEvent::DcTagProbe { hit, .. } => {
                    probes += 1;
                    if hit {
                        hits += 1;
                    }
                }
                TraceEvent::DcMissFill { filled, .. } => {
                    fills += 1;
                    if filled {
                        misses_filled += 1;
                    }
                }
                _ => {}
            }
        }
        if probes + fills > 0 {
            o.push_str(&format!(
                ",\n{indent}  \"dramcache\": {{ \"tag_probes\": {probes}, \"probe_hits\": {hits}, \
                 \"miss_fills\": {fills}, \"lines_installed\": {misses_filled} }}"
            ));
        }
        o.push_str(&format!("\n{indent}}}"));
        o
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cwf_tracelog::RequestToken;

    /// A batch reaches the ring as core/hierarchy events, request
    /// events, organization events, then DRAM-level events; a
    /// refresh-unit precharge traces nothing.
    #[test]
    fn tracer_rings_a_batch_in_trace_order() {
        let desc = ChannelDesc {
            label: "ddr3-ch0".into(),
            cfg: dram_timing::DeviceConfig::ddr3_1600(),
            ranks: 2,
            bus_group: None,
        };
        let ratio = u64::from(desc.cfg.cpu_cycles_per_mem_cycle);
        let burst_cycles = (u64::from(desc.cfg.timings.t_burst) * ratio) as u32;
        let mut tr = Tracer::new(&[desc], 2);
        let token = RequestToken(7);
        let rec = |at_mem, act| AuditRecord::Act { channel: 0, at_mem, act };
        let core = TraceEvent::FillDone { token, at: 1 };
        let org = TraceEvent::FillDone { token, at: 2 };
        tr.absorb_events(&mut vec![core]);
        for r in [
            rec(5, Act::Enqueue(token)),
            rec(10, Act::RefreshCmd(Command::Refresh { rank: 1 })),
            rec(11, Act::RefreshCmd(Command::Precharge { rank: 0, bank: 0 })),
            rec(12, Act::Cmd { cmd: Command::activate(0, 3, 9), token }),
            rec(20, Act::Power { rank: 0, state: PowerState::PowerDown }),
            rec(30, Act::DataEnd(token)),
        ] {
            tr.absorb_record(r);
        }
        tr.end_batch(&mut vec![org]);
        let channel = 0;
        assert_eq!(
            tr.report().events,
            vec![
                core,
                TraceEvent::McEnqueue { token, channel, at: 5 * ratio },
                TraceEvent::McActivate { token, channel, at: 12 * ratio, rank: 0, bank: 3 },
                TraceEvent::McDataEnd { token, channel, at: 30 * ratio, burst_cycles },
                org,
                TraceEvent::DramRefresh { channel, at: 10 * ratio, rank: 1 },
                TraceEvent::DramPower { channel, at: 20 * ratio, rank: 0, state: 1 },
            ]
        );
    }

    #[test]
    fn report_json_object_is_well_formed() {
        let meta = TraceMeta { cycles_per_us: 3200, channel_labels: vec![], cores: 1 };
        let events = vec![
            TraceEvent::MshrAlloc {
                token: RequestToken(1),
                core: 0,
                at: 100,
                line: 4,
                critical_word: 0,
                demand: true,
            },
            TraceEvent::McEnqueue { token: RequestToken(1), channel: 0, at: 104 },
            TraceEvent::McActivate {
                token: RequestToken(1),
                channel: 0,
                at: 112,
                rank: 0,
                bank: 0,
            },
            TraceEvent::McCas {
                token: RequestToken(1),
                channel: 0,
                at: 140,
                rank: 0,
                bank: 0,
                write: false,
            },
            TraceEvent::McDataEnd { token: RequestToken(1), channel: 0, at: 188, burst_cycles: 16 },
            TraceEvent::WordsArrived {
                token: RequestToken(1),
                at: 188,
                words: 0xFF,
                served_fast: false,
            },
            TraceEvent::FillDone { token: RequestToken(1), at: 188 },
        ];
        let rep = TraceReport::new(events, 3, meta);
        assert_eq!(rep.summary.reads, 1);
        let obj = rep.to_json_object("  ");
        let doc = cwf_tracelog::json::Value::parse(&obj).expect("valid JSON");
        assert_eq!(doc.get("dropped_events").and_then(|v| v.as_f64()), Some(3.0));
        assert_eq!(doc.get("waterfall_reads").and_then(|v| v.as_f64()), Some(1.0));
        assert!(doc.get("stages").and_then(|s| s.get("queue")).is_some());
    }
}
