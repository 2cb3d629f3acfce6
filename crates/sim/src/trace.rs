//! System-level trace collection (`Tracer`) and the end-of-run
//! [`TraceReport`]: Perfetto export plus the latency-waterfall
//! decomposition.
//!
//! The tracer is a pure observer. It drains the instrumentation buffers
//! that every layer fills when tracing is enabled (see
//! [`cwf_tracelog::TraceEvent`]), pushes the events into a fixed-capacity
//! [`TraceRing`] (oldest events drop on overflow — the simulation never
//! stalls or reallocates on behalf of the trace), and converts the
//! backend's audit records into DRAM-level refresh/power events so the
//! trace shows them without a second plumbing path through the
//! controllers.

use cwf_tracelog::{
    waterfall, ReadWaterfall, TraceEvent, TraceMeta, TraceRing, WaterfallSummary, STAGE_NAMES,
};
use mem_ctrl::{AuditRecord, ChannelDesc};

use crate::metrics::CPU_HZ;

/// Live trace state carried by a running [`crate::System`].
#[derive(Debug)]
pub(crate) struct Tracer {
    ring: TraceRing,
    /// CPU cycles per device cycle, per audit-channel index (audit
    /// records carry device-local clocks).
    chan_ratio: Vec<u64>,
    meta: TraceMeta,
}

impl Tracer {
    /// Build a tracer for a backend described by `channels` (the
    /// backend's `audit_channels()`, whose indices match the channel
    /// numbers in controller trace events).
    pub(crate) fn new(channels: &[ChannelDesc], cores: u8) -> Self {
        Tracer {
            ring: TraceRing::new(TraceRing::DEFAULT_CAPACITY),
            chan_ratio: channels
                .iter()
                .map(|c| u64::from(c.cfg.cpu_cycles_per_mem_cycle).max(1))
                .collect(),
            meta: TraceMeta {
                cycles_per_us: (CPU_HZ / 1e6) as u64,
                channel_labels: channels.iter().map(|c| c.label.clone()).collect(),
                cores,
            },
        }
    }

    /// Push a batch of already-converted (CPU-cycle) trace events.
    pub(crate) fn absorb_events(&mut self, events: &mut Vec<TraceEvent>) {
        self.ring.extend_from(events);
    }

    /// Convert backend audit records into DRAM-level trace events.
    ///
    /// Only refreshes and power transitions are taken: ACT/PRE/CAS
    /// already arrive as token-tagged controller events, and duplicating
    /// them here would double every command on the timeline.
    pub(crate) fn absorb_audit(&mut self, records: &[AuditRecord]) {
        for r in records {
            match *r {
                AuditRecord::Cmd { channel, at_mem, cmd } => {
                    let rank = match cmd {
                        dram_timing::Command::Refresh { rank }
                        | dram_timing::Command::RefreshBank { rank, .. } => rank,
                        _ => continue,
                    };
                    let ratio = self.chan_ratio.get(channel).copied().unwrap_or(1);
                    self.ring.push(TraceEvent::DramRefresh {
                        channel: channel as u16,
                        at: at_mem * ratio,
                        rank,
                    });
                }
                AuditRecord::Power { channel, at_mem, rank, state } => {
                    let ratio = self.chan_ratio.get(channel).copied().unwrap_or(1);
                    self.ring.push(TraceEvent::DramPower {
                        channel: channel as u16,
                        at: at_mem * ratio,
                        rank,
                        state: match state {
                            dram_timing::PowerState::Up => 0,
                            dram_timing::PowerState::PowerDown => 1,
                            dram_timing::PowerState::SelfRefresh => 2,
                        },
                    });
                }
                // Cache bookkeeping records are the oracle's food; the
                // trace already gets the same story as token-tagged
                // DcTagProbe/DcMissFill events from the backend itself.
                AuditRecord::Cache { .. } => {}
            }
        }
    }

    /// Snapshot the ring into a finished report.
    pub(crate) fn report(&self) -> TraceReport {
        TraceReport::new(self.ring.snapshot(), self.ring.dropped(), self.meta.clone())
    }

    /// Serialize the ring (contents + overflow count). `chan_ratio` and
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

    /// The `n` slowest decomposed reads.
    #[must_use]
    pub fn top_slowest(&self, n: usize) -> Vec<ReadWaterfall> {
        waterfall::top_slowest(&self.waterfalls, n)
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

    #[test]
    fn tracer_converts_refresh_and_power_audit_records() {
        let desc = ChannelDesc {
            label: "ddr3-ch0".into(),
            cfg: dram_timing::DeviceConfig::ddr3_1600(),
            ranks: 2,
            bus_group: None,
        };
        let ratio = u64::from(desc.cfg.cpu_cycles_per_mem_cycle);
        let mut tr = Tracer::new(&[desc], 2);
        tr.absorb_audit(&[
            AuditRecord::Cmd {
                channel: 0,
                at_mem: 10,
                cmd: dram_timing::Command::Refresh { rank: 1 },
            },
            AuditRecord::Cmd {
                channel: 0,
                at_mem: 11,
                cmd: dram_timing::Command::Precharge { rank: 0, bank: 0 },
            },
            AuditRecord::Power {
                channel: 0,
                at_mem: 20,
                rank: 0,
                state: dram_timing::PowerState::PowerDown,
            },
        ]);
        let rep = tr.report();
        // The precharge is dropped (token-tagged controller events own it).
        assert_eq!(rep.events.len(), 2);
        assert_eq!(rep.events[0], TraceEvent::DramRefresh { channel: 0, at: 10 * ratio, rank: 1 });
        assert_eq!(
            rep.events[1],
            TraceEvent::DramPower { channel: 0, at: 20 * ratio, rank: 0, state: 1 }
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
