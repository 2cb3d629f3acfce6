//! Page-granularity heterogeneous placement — the §7.1 comparator.
//!
//! Prior heterogeneous-memory proposals (Phadke & Narayanasamy, Ramos et
//! al.) place whole OS pages in one DRAM variant. §7.1 evaluates that
//! strategy on an iso-pin-count, iso-chip-count system: three 72-bit
//! LPDDR2 channels plus one 0.5 GB RLDRAM3 channel, with the top ~7.6% of
//! profiled pages (by access count) pinned in RLDRAM3.
//!
//! A profiling pass over the baseline tallies per-page access counts
//! ([`mem_ctrl::HomogeneousMemory::with_page_tally`]); [`hot_pages`]
//! selects the top fraction; [`PagePlacedMemory`] is the placed system.

use std::collections::{BTreeMap, BTreeSet};

use dram_timing::DeviceConfig;
pub use mem_ctrl::PAGE_BYTES;
use mem_ctrl::{
    AddressMapper, ChannelSet, ClockDomain, Controller, LineRequest, MappingScheme, MemBusy,
    Organization, Token,
};

/// Clock domain of the hot-page RLDRAM3 channel.
const HOT: usize = 0;
/// Clock domain of the LPDDR2 channels.
const COLD: usize = 1;

/// Select the hottest `fraction` of touched pages (by DRAM access count).
///
/// The paper pins the top 7.6% (0.5 GB / 6.5 GB) of pages in RLDRAM3.
///
/// # Panics
///
/// Panics if `fraction` is outside `(0, 1]`.
#[must_use]
pub fn hot_pages(counts: &BTreeMap<u64, u64>, fraction: f64) -> BTreeSet<u64> {
    assert!(fraction > 0.0 && fraction <= 1.0, "fraction in (0,1]");
    let mut pages: Vec<(u64, u64)> = counts.iter().map(|(p, c)| (*p, *c)).collect();
    pages.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    let keep = ((pages.len() as f64 * fraction).ceil() as usize).min(pages.len());
    pages.into_iter().take(keep).map(|(p, _)| p).collect()
}

/// Page-placed heterogeneous memory: hot pages on one RLDRAM3 channel,
/// the rest striped over three LPDDR2 channels. Whole lines; no CWF split.
#[derive(Debug)]
pub struct PagePlacedMemory {
    chans: ChannelSet,
    rld_mapper: AddressMapper,
    lp_mapper: AddressMapper,
    hot: BTreeSet<u64>,
    next_token: u64,
    /// Reads served by the RLDRAM3 channel (for reporting).
    pub rld_reads: u64,
    /// Reads served by the LPDDR2 channels.
    pub lp_reads: u64,
}

impl PagePlacedMemory {
    /// Build the §7.1 system with the given hot-page set.
    #[must_use]
    pub fn new(hot: BTreeSet<u64>) -> Self {
        let rld_cfg = DeviceConfig::rldram3();
        let lp_cfg = DeviceConfig::lpddr2_800();
        let rld_mapper =
            AddressMapper::for_device(MappingScheme::ClosePageBankInterleave, 1, 1, &rld_cfg);
        let lp_mapper =
            AddressMapper::for_device(MappingScheme::OpenPageRowLocality, 3, 1, &lp_cfg);
        // 72-bit RLDRAM3 channel of x18 parts: 4 chips per access.
        let rld = vec![Controller::new(rld_cfg, 1, 4, "pp-rldram")];
        let lp = (0..3)
            .map(|i| Controller::new(lp_cfg.clone(), 1, 9, &format!("pp-lpddr-ch{i}")))
            .collect();
        PagePlacedMemory {
            chans: ChannelSet::new(vec![ClockDomain::new(rld), ClockDomain::new(lp)]),
            rld_mapper,
            lp_mapper,
            hot,
            next_token: 0,
            rld_reads: 0,
            lp_reads: 0,
        }
    }
}

impl Organization for PagePlacedMemory {
    fn channels(&self) -> &ChannelSet {
        &self.chans
    }

    fn channels_mut(&mut self) -> &mut ChannelSet {
        &mut self.chans
    }

    fn submit(&mut self, req: &LineRequest, now: u64) -> Result<Option<Token>, MemBusy> {
        let hot = self.hot.contains(&(req.line_addr / PAGE_BYTES));
        let (domain, mapper) = if hot { (HOT, &self.rld_mapper) } else { (COLD, &self.lp_mapper) };
        let (chan, loc) = mapper.decode(req.line_addr);
        let chan = usize::from(chan);
        let token = Token(self.next_token);
        if !req.is_read() {
            return if self.chans.enqueue_write(domain, chan, loc, now) {
                Ok(None)
            } else {
                Err(MemBusy)
            };
        }
        let prefetch = req.kind == mem_ctrl::AccessKind::PrefetchRead;
        if !self.chans.enqueue_read(domain, chan, token, loc, prefetch, now) {
            return Err(MemBusy);
        }
        self.next_token += 1;
        if hot {
            self.rld_reads += 1;
        } else {
            self.lp_reads += 1;
        }
        Ok(Some(token))
    }

    fn complete(&mut self, _domain: usize, token: Token, at: u64) {
        self.chans.schedule_line(at, token);
    }
}

impl PagePlacedMemory {
    /// Serialize mutable state: both device groups' controllers, the
    /// token counter, pending completions and the per-group read
    /// counters. The hot-page set and mappers are pure config, rebuilt
    /// on restore.
    ///
    /// # Errors
    ///
    /// Fails when any controller holds undrained trace events.
    pub fn save_state(&self, w: &mut cwf_ckpt::Writer) -> cwf_ckpt::Result<()> {
        w.section(b"PGPL");
        // The lone hot channel is stored bare, without a count.
        self.chans.domain(HOT).controllers()[0].save_state(w)?;
        self.chans.save_domain(COLD, w)?;
        cwf_ckpt::Ckpt::save(&self.next_token, w);
        self.chans.save_scheduled(w);
        cwf_ckpt::Ckpt::save(&self.rld_reads, w);
        cwf_ckpt::Ckpt::save(&self.lp_reads, w);
        Ok(())
    }

    /// Restore state saved by [`PagePlacedMemory::save_state`].
    ///
    /// # Errors
    ///
    /// Fails on malformed input or a controller-count mismatch.
    pub fn load_state(&mut self, r: &mut cwf_ckpt::Reader<'_>) -> cwf_ckpt::Result<()> {
        r.expect_section(b"PGPL")?;
        self.chans.domain_mut(HOT).controllers_mut()[0].load_state(r)?;
        self.chans.load_domain(COLD, r)?;
        self.next_token = cwf_ckpt::Ckpt::load(r)?;
        self.chans.load_lines(r)?;
        self.rld_reads = cwf_ckpt::Ckpt::load(r)?;
        self.lp_reads = cwf_ckpt::Ckpt::load(r)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mem_ctrl::{MainMemory, MemEvent};

    #[test]
    fn hot_pages_selects_top_fraction_deterministically() {
        let mut counts = BTreeMap::new();
        for p in 0..100u64 {
            counts.insert(p, p); // page 99 hottest
        }
        let hot = hot_pages(&counts, 0.10);
        assert_eq!(hot.len(), 10);
        for p in 90..100 {
            assert!(hot.contains(&p));
        }
    }

    #[test]
    fn hot_reads_hit_rldram_cold_reads_hit_lpddr() {
        let mut hot = BTreeSet::new();
        hot.insert(0u64); // page 0 is hot
        let mut mem = PagePlacedMemory::new(hot);
        mem.try_submit(&LineRequest::demand_read(0x40, 0, 0), 0).unwrap();
        mem.try_submit(&LineRequest::demand_read(PAGE_BYTES * 9, 0, 0), 0).unwrap();
        assert_eq!(mem.rld_reads, 1);
        assert_eq!(mem.lp_reads, 1);
        let mut ev = Vec::new();
        for now in 0..4_000 {
            mem.tick(now);
            mem.drain_events(now, &mut ev);
        }
        let fills: Vec<u64> = ev
            .iter()
            .filter_map(|e| match e {
                MemEvent::LineFilled { at, .. } => Some(*at),
                MemEvent::WordsAvailable { .. } => None,
            })
            .collect();
        assert_eq!(fills.len(), 2);
        // The hot (RLDRAM) read completes much earlier.
        assert!(fills[0] < fills[1] / 2, "rld {} vs lp {}", fills[0], fills[1]);
    }

    #[test]
    fn whole_line_single_event_semantics() {
        let mut mem = PagePlacedMemory::new(BTreeSet::new());
        mem.try_submit(&LineRequest::demand_read(0x80, 3, 0), 0).unwrap();
        let mut ev = Vec::new();
        for now in 0..4_000 {
            mem.tick(now);
            mem.drain_events(now, &mut ev);
        }
        // All words arrive together — no CWF advantage at page granularity.
        assert!(matches!(ev[0], MemEvent::WordsAvailable { words: 0xFF, .. }));
    }

    #[test]
    #[should_panic(expected = "fraction in (0,1]")]
    fn hot_pages_rejects_bad_fraction() {
        let _ = hot_pages(&BTreeMap::new(), 0.0);
    }
}
