//! A homogeneous main memory: N identical channels of one device type.
//!
//! This is the paper's baseline (4 × 72-bit DDR3 channels, Table 1) and the
//! all-RLDRAM3 / all-LPDDR2 design points of Figure 1. A read's critical
//! word and line fill complete together — the conventional bus-level
//! critical-word-first only helps by a few CPU cycles and the ECC check
//! needs the whole line anyway (§1, §4.2.3), so both events carry the
//! burst-end timestamp.

use std::collections::BTreeMap;

use dram_timing::{DeviceConfig, DeviceKind};

use crate::channelset::{ChannelSet, ClockDomain, Organization};
use crate::controller::{Controller, CtrlParams};
use crate::mapping::{AddressMapper, MappingScheme};
use crate::request::{AccessKind, LineRequest, MemBusy, Token};

/// Page size of the per-page access tally (4 KiB).
pub const PAGE_BYTES: u64 = 4096;

/// N identical channels of one DRAM flavor behind one address mapper.
#[derive(Debug)]
pub struct HomogeneousMemory {
    chans: ChannelSet,
    mapper: AddressMapper,
    next_token: u64,
    /// Accepted transactions per page, when profiling (§7.1).
    page_counts: Option<BTreeMap<u64, u64>>,
}

impl HomogeneousMemory {
    /// Build a homogeneous memory from a device preset.
    ///
    /// `chips_per_access` is the number of devices a single access
    /// activates (9 for the 72-bit ECC baseline).
    #[must_use]
    pub fn new(
        cfg: DeviceConfig,
        channels: u32,
        ranks: u32,
        chips_per_access: u32,
        params: CtrlParams,
    ) -> Self {
        let scheme = MappingScheme::for_page_policy(cfg.page_policy);
        Self::with_scheme(cfg, channels, ranks, chips_per_access, params, scheme)
    }

    /// Build with an explicit address-interleaving scheme (mapping
    /// ablations; `new` picks the best scheme for the page policy).
    #[must_use]
    pub fn with_scheme(
        cfg: DeviceConfig,
        channels: u32,
        ranks: u32,
        chips_per_access: u32,
        params: CtrlParams,
        scheme: MappingScheme,
    ) -> Self {
        let mapper = AddressMapper::for_device(scheme, channels, ranks, &cfg);
        let kind = format!("{}", cfg.kind).to_lowercase();
        let controllers = (0..channels)
            .map(|i| {
                Controller::with_params(
                    cfg.clone(),
                    ranks,
                    chips_per_access,
                    &format!("{kind}-ch{i}"),
                    params,
                )
            })
            .collect();
        HomogeneousMemory {
            chans: ChannelSet::new(vec![ClockDomain::new(controllers)]),
            mapper,
            next_token: 0,
            page_counts: None,
        }
    }

    /// The paper's baseline: four 72-bit DDR3-1600 channels, one 9-device
    /// rank each (Table 1).
    #[must_use]
    pub fn baseline_ddr3() -> Self {
        Self::new(DeviceConfig::ddr3_1600(), 4, 1, 9, CtrlParams::default())
    }

    /// Figure 1's all-LPDDR2 design point (same topology as the baseline).
    #[must_use]
    pub fn all_lpddr2() -> Self {
        Self::new(DeviceConfig::lpddr2_800(), 4, 1, 9, CtrlParams::default())
    }

    /// Figure 1's all-RLDRAM3 design point: four 72-bit channels of x18
    /// parts (4 devices per access), close page.
    #[must_use]
    pub fn all_rldram3() -> Self {
        Self::new(DeviceConfig::rldram3(), 4, 1, 4, CtrlParams::default())
    }

    /// Preset by device kind, baseline topology.
    ///
    /// Every kind uses the 72-bit ECC baseline topology (4 channels × 1
    /// rank × 9 x8 devices) except RLDRAM3, whose x9 parts need only 4
    /// devices per access.
    #[must_use]
    pub fn preset(kind: DeviceKind) -> Self {
        match kind {
            DeviceKind::Ddr3 => Self::baseline_ddr3(),
            DeviceKind::Lpddr2 => Self::all_lpddr2(),
            DeviceKind::Rldram3 => Self::all_rldram3(),
            DeviceKind::Ddr4 | DeviceKind::Ddr5 | DeviceKind::Lpddr4 | DeviceKind::NvmSlow => {
                Self::new(DeviceConfig::preset(kind), 4, 1, 9, CtrlParams::default())
            }
        }
    }

    /// The same memory, also tallying accepted transactions per
    /// [`PAGE_BYTES`] page — the profiling pass of §7.1 page placement.
    #[must_use]
    pub fn with_page_tally(mut self) -> Self {
        self.page_counts = Some(BTreeMap::new());
        self
    }

    /// Per-page access counts, if built [`HomogeneousMemory::with_page_tally`].
    #[must_use]
    pub fn page_counts(&self) -> Option<&BTreeMap<u64, u64>> {
        self.page_counts.as_ref()
    }
}

impl Organization for HomogeneousMemory {
    fn channels(&self) -> &ChannelSet {
        &self.chans
    }

    fn channels_mut(&mut self) -> &mut ChannelSet {
        &mut self.chans
    }

    fn submit(&mut self, req: &LineRequest, now: u64) -> Result<Option<Token>, MemBusy> {
        let (chan, loc) = self.mapper.decode(req.line_addr);
        let chan = usize::from(chan);
        let res = match req.kind {
            AccessKind::Write { .. } => {
                if self.chans.enqueue_write(0, chan, loc, now) {
                    Ok(None)
                } else {
                    Err(MemBusy)
                }
            }
            AccessKind::DemandRead | AccessKind::PrefetchRead => {
                let token = Token(self.next_token);
                let prefetch = req.kind == AccessKind::PrefetchRead;
                if self.chans.enqueue_read(0, chan, token, loc, prefetch, now) {
                    self.next_token += 1;
                    Ok(Some(token))
                } else {
                    Err(MemBusy)
                }
            }
        };
        if let (Ok(_), Some(counts)) = (res, &mut self.page_counts) {
            *counts.entry(req.line_addr / PAGE_BYTES).or_insert(0) += 1;
        }
        res
    }

    fn complete(&mut self, _domain: usize, token: Token, at: u64) {
        // Baseline: the critical word is only a handful of CPU cycles
        // early and gated by the line-wide ECC check, so all words arrive
        // together with the line fill.
        self.chans.schedule_line(at, token);
    }
}

impl HomogeneousMemory {
    /// Serialize mutable state: the channels, then the token counter.
    /// The address mapper is pure config, rebuilt on restore; the page
    /// tally is not kept.
    ///
    /// # Errors
    ///
    /// Fails when any controller holds undrained trace events.
    pub fn save_state(&self, w: &mut cwf_ckpt::Writer) -> cwf_ckpt::Result<()> {
        w.section(b"HOMO");
        self.chans.save_state(w)?;
        cwf_ckpt::Ckpt::save(&self.next_token, w);
        Ok(())
    }

    /// Restore state saved by [`HomogeneousMemory::save_state`].
    ///
    /// # Errors
    ///
    /// Fails on malformed input or a controller-count mismatch.
    pub fn load_state(&mut self, r: &mut cwf_ckpt::Reader<'_>) -> cwf_ckpt::Result<()> {
        r.expect_section(b"HOMO")?;
        self.chans.load_state(r)?;
        self.next_token = cwf_ckpt::Ckpt::load(r)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::{MainMemory, MemEvent};

    fn run(mem: &mut HomogeneousMemory, upto: u64, out: &mut Vec<MemEvent>) {
        for now in 0..upto {
            mem.tick(now);
            mem.drain_events(now, out);
        }
    }

    #[test]
    fn read_produces_both_events_coincident() {
        let mut mem = HomogeneousMemory::baseline_ddr3();
        let tok = mem.try_submit(&LineRequest::demand_read(0x10_000, 3, 0), 0).unwrap().unwrap();
        let mut ev = Vec::new();
        run(&mut mem, 1_000, &mut ev);
        let crit = ev
            .iter()
            .find(|e| matches!(e, MemEvent::WordsAvailable { token, words: 0xFF, .. } if *token == tok))
            .expect("words available event");
        let fill = ev
            .iter()
            .find(|e| matches!(e, MemEvent::LineFilled { token, .. } if *token == tok))
            .expect("line fill event");
        assert_eq!(crit.at(), fill.at());
        // ACT(0) + tRCD(11) + tRL(11) + burst(4) = 26 mem cycles = 104 CPU.
        assert_eq!(fill.at(), 104);
    }

    #[test]
    fn writes_are_fire_and_forget() {
        let mut mem = HomogeneousMemory::baseline_ddr3();
        let res = mem.try_submit(&LineRequest::writeback(0x40, 0, 0), 0).unwrap();
        assert!(res.is_none());
        let mut ev = Vec::new();
        run(&mut mem, 2_000, &mut ev);
        assert!(ev.is_empty(), "writes produce no events");
        let stats = mem.stats(2_000);
        assert_eq!(stats.total_writes(), 1);
    }

    #[test]
    fn channel_interleaving_spreads_load() {
        let mut mem = HomogeneousMemory::baseline_ddr3();
        for i in 0..8u64 {
            mem.try_submit(&LineRequest::demand_read(i * 64, 0, 0), 0).unwrap();
        }
        let mut ev = Vec::new();
        run(&mut mem, 2_000, &mut ev);
        let stats = mem.stats(2_000);
        for c in &stats.controllers {
            assert_eq!(c.reads_done, 2, "{}", c.label);
        }
    }

    #[test]
    fn rldram_memory_is_faster_than_ddr3_for_random_reads() {
        let latency = |mut mem: HomogeneousMemory| {
            // Scatter reads over banks to provoke bank conflicts on DDR3.
            let mut toks = Vec::new();
            for i in 0..32u64 {
                let addr = i * 64 * 997; // pseudo-random stride
                if let Ok(Some(t)) = mem.try_submit(&LineRequest::demand_read(addr, 0, 0), 0) {
                    toks.push(t);
                }
            }
            let mut ev = Vec::new();
            for now in 0..100_000u64 {
                mem.tick(now);
                mem.drain_events(now, &mut ev);
                if ev.iter().filter(|e| matches!(e, MemEvent::LineFilled { .. })).count()
                    == toks.len()
                {
                    break;
                }
            }
            ev.iter().map(MemEvent::at).max().unwrap()
        };
        let ddr = latency(HomogeneousMemory::baseline_ddr3());
        let rld = latency(HomogeneousMemory::all_rldram3());
        assert!(
            rld < ddr,
            "RLDRAM3 ({rld} cycles) should beat DDR3 ({ddr} cycles) on random reads"
        );
    }

    #[test]
    fn lpddr2_is_slower_than_ddr3_for_a_single_read() {
        let one = |mut mem: HomogeneousMemory| {
            mem.try_submit(&LineRequest::demand_read(0, 0, 0), 0).unwrap();
            let mut ev = Vec::new();
            run(&mut mem, 5_000, &mut ev);
            ev[0].at()
        };
        assert!(one(HomogeneousMemory::all_lpddr2()) > one(HomogeneousMemory::baseline_ddr3()));
    }

    #[test]
    fn page_tally_counts_accepted_transactions() {
        let mut mem = HomogeneousMemory::baseline_ddr3().with_page_tally();
        mem.try_submit(&LineRequest::demand_read(0, 0, 0), 0).unwrap();
        mem.try_submit(&LineRequest::writeback(64, 0, 0), 0).unwrap();
        mem.try_submit(&LineRequest::demand_read(PAGE_BYTES * 5, 0, 0), 0).unwrap();
        let counts = mem.page_counts().expect("tally on");
        assert_eq!(counts[&0], 2);
        assert_eq!(counts[&5], 1);
        assert!(HomogeneousMemory::baseline_ddr3().page_counts().is_none());
    }

    #[test]
    fn busy_queue_rejects_then_recovers() {
        let mut mem = HomogeneousMemory::baseline_ddr3();
        let mut accepted = 0u32;
        // All to channel 0 (stride of 4 lines) until the queue fills.
        for i in 0..100u64 {
            match mem.try_submit(&LineRequest::demand_read(i * 4 * 64 * 997, 0, 0), 0) {
                Ok(_) => accepted += 1,
                Err(MemBusy) => break,
            }
        }
        assert_eq!(accepted, 48, "per-channel read queue is 48 entries");
        let mut ev = Vec::new();
        run(&mut mem, 20_000, &mut ev);
        assert!(mem.try_submit(&LineRequest::demand_read(0, 0, 0), 20_000).is_ok());
    }
}
