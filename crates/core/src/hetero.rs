//! The split-transaction CWF heterogeneous memory backend.

// cwf-lint: allow(hash-container) -- keyed in-flight lookups only, never iterated
use std::collections::HashMap;

use dram_timing::DeviceConfig;
use mem_ctrl::{
    AddressMapper, AggregatedController, ChannelSet, ClockDomain, Controller, LineRequest,
    MappingScheme, MemBusy, MemEvent, Organization, Token,
};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::placement::{Placement, PlacementPolicy};

/// Configuration of a heterogeneous CWF memory system.
#[derive(Debug, Clone)]
pub struct CwfConfig {
    /// Device behind the critical-word (fast) sub-channels.
    pub fast: DeviceConfig,
    /// Device behind the rest-of-line (slow) channels.
    pub slow: DeviceConfig,
    /// Word-placement policy.
    pub policy: PlacementPolicy,
    /// Number of slow channels (paper: 4).
    pub slow_channels: u32,
    /// Number of fast sub-channels behind the one aggregated controller
    /// and shared address/command bus (paper: 4, §4.2.4).
    pub fast_subchannels: u32,
    /// Devices activated per slow access (8: words 1–7 + ECC).
    pub slow_chips: u32,
    /// Devices activated per fast access (1: a single x9 chip).
    pub fast_chips: u32,
    /// Probability a critical word arrives with a parity error and must
    /// wait for the full line + SECDED (§4.2.3). 0 for clean runs.
    pub parity_error_rate: f64,
    /// Share one address/command bus across the fast sub-channels
    /// (§4.2.4 optimization). `false` models four private buses.
    pub shared_fast_bus: bool,
    /// RNG seed (parity-error injection).
    pub seed: u64,
}

impl CwfConfig {
    /// RL: 1 GB RLDRAM3 critical store + 7 GB LPDDR2 — the flagship (§6).
    #[must_use]
    pub fn rl() -> Self {
        CwfConfig {
            fast: DeviceConfig::rldram3(),
            slow: DeviceConfig::lpddr2_800(),
            policy: PlacementPolicy::Static0,
            slow_channels: 4,
            fast_subchannels: 4,
            slow_chips: 8,
            fast_chips: 1,
            parity_error_rate: 0.0,
            seed: 0x0C1F_BEEF,
            shared_fast_bus: true,
        }
    }

    /// RD: RLDRAM3 critical store + DDR3 bulk.
    #[must_use]
    pub fn rd() -> Self {
        CwfConfig { slow: DeviceConfig::ddr3_1600(), ..Self::rl() }
    }

    /// DL: DDR3 critical store + LPDDR2 bulk (the power-optimized point).
    #[must_use]
    pub fn dl() -> Self {
        CwfConfig { fast: DeviceConfig::ddr3_1600(), ..Self::rl() }
    }

    /// An arbitrary fast/slow device pairing (spec-layer standards) on the
    /// flagship topology: e.g. an RLDRAM3 critical store backed by
    /// DDR5-4800 bulk channels.
    #[must_use]
    pub fn pair(fast: dram_timing::DeviceKind, slow: dram_timing::DeviceKind) -> Self {
        CwfConfig {
            fast: DeviceConfig::preset(fast),
            slow: DeviceConfig::preset(slow),
            ..Self::rl()
        }
    }

    /// Same configuration under a different placement policy.
    #[must_use]
    pub fn with_policy(mut self, policy: PlacementPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Same configuration with parity-error injection.
    #[must_use]
    pub fn with_parity_errors(mut self, rate: f64, seed: u64) -> Self {
        self.parity_error_rate = rate;
        self.seed = seed;
        self
    }

    /// Ablation: four private fast address/command buses (§4.2.2's
    /// pre-optimization organization).
    #[must_use]
    pub fn with_private_fast_buses(mut self) -> Self {
        self.shared_fast_bus = false;
        self
    }
}

/// CWF-specific statistics.
#[derive(Debug, Clone, Copy, Default)]
pub struct CwfStats {
    /// Demand reads issued.
    pub demand_reads: u64,
    /// Demand reads whose critical word was served by the fast DIMM
    /// (and passed parity).
    pub cw_served_fast: u64,
    /// Critical words deferred to the SECDED check by a parity error.
    pub parity_errors: u64,
    /// Reads where the fast part arrived strictly before the slow part.
    pub fast_first: u64,
    /// Sum of (slow − fast) arrival gaps in CPU cycles over `fast_first`
    /// reads — the paper's "tens of cycles" head start.
    pub gap_cpu_cycles: u64,
}

impl CwfStats {
    /// Fraction of demand critical words served by the fast DIMM (Fig. 8).
    #[must_use]
    pub fn served_fast_fraction(&self) -> f64 {
        if self.demand_reads == 0 {
            0.0
        } else {
            self.cw_served_fast as f64 / self.demand_reads as f64
        }
    }

    /// Mean head start of the fast part, CPU cycles.
    #[must_use]
    pub fn avg_head_start(&self) -> f64 {
        if self.fast_first == 0 {
            0.0
        } else {
            self.gap_cpu_cycles as f64 / self.fast_first as f64
        }
    }

    /// Subtract an earlier snapshot (warm-up exclusion).
    pub fn sub(&mut self, earlier: &CwfStats) {
        self.demand_reads -= earlier.demand_reads;
        self.cw_served_fast -= earlier.cw_served_fast;
        self.parity_errors -= earlier.parity_errors;
        self.fast_first -= earlier.fast_first;
        self.gap_cpu_cycles -= earlier.gap_cpu_cycles;
    }
}

#[derive(Debug, Clone, Copy)]
struct Pending {
    fast_done: Option<u64>,
    slow_done: Option<u64>,
    fast_word: u8,
    critical: u8,
    parity_defer: bool,
    demand: bool,
}

/// Clock domain of the critical-word (fast) sub-channels.
const FAST: usize = 0;
/// Clock domain of the rest-of-line (slow) channels.
const SLOW: usize = 1;

/// The heterogeneous CWF main memory (implements
/// [`mem_ctrl::MainMemory`] as an [`Organization`]).
#[derive(Debug)]
pub struct HeteroCwfMemory {
    chans: ChannelSet,
    fast_mapper: AddressMapper,
    slow_mapper: AddressMapper,
    placement: Placement,
    rng: StdRng,
    parity_error_rate: f64,
    // cwf-lint: allow(hash-container) -- hot-path token map; get/remove/insert only
    pending: HashMap<u64, Pending>,
    next_id: u64,
    stats: CwfStats,
}

impl HeteroCwfMemory {
    /// Build the system described by `cfg`.
    ///
    /// # Panics
    ///
    /// Panics if channel counts are zero.
    #[must_use]
    pub fn new(cfg: CwfConfig) -> Self {
        assert!(cfg.slow_channels > 0 && cfg.fast_subchannels > 0, "need channels");
        let fast_scheme = MappingScheme::for_page_policy(cfg.fast.page_policy);
        let fast_mapper =
            AddressMapper::for_device(fast_scheme, cfg.fast_subchannels, 1, &cfg.fast);
        let slow_mapper = AddressMapper::for_device(
            MappingScheme::OpenPageRowLocality,
            cfg.slow_channels,
            1,
            &cfg.slow,
        );
        let fast_kind = format!("{}", cfg.fast.kind).to_lowercase();
        let slow_kind = format!("{}", cfg.slow.kind).to_lowercase();
        let fast = (0..cfg.fast_subchannels)
            .map(|i| {
                let label = format!("fast-{fast_kind}-sub{i}");
                Controller::new(cfg.fast.clone(), 1, cfg.fast_chips, &label)
            })
            .collect();
        let slow = (0..cfg.slow_channels)
            .map(|i| {
                let label = format!("slow-{slow_kind}-ch{i}");
                Controller::new(cfg.slow.clone(), 1, cfg.slow_chips, &label)
            })
            .collect();
        let mut arbiter = AggregatedController::new();
        if !cfg.shared_fast_bus {
            arbiter = arbiter.with_private_buses();
        }
        HeteroCwfMemory {
            chans: ChannelSet::new(vec![
                ClockDomain::aggregated(fast, arbiter),
                ClockDomain::new(slow),
            ]),
            fast_mapper,
            slow_mapper,
            placement: Placement::new(cfg.policy),
            rng: StdRng::seed_from_u64(cfg.seed),
            parity_error_rate: cfg.parity_error_rate,
            pending: HashMap::new(), // cwf-lint: allow(hash-container) -- see field note
            next_id: 0,
            stats: CwfStats::default(),
        }
    }

    /// CWF-specific statistics.
    #[must_use]
    pub fn cwf_stats(&self) -> &CwfStats {
        &self.stats
    }

    /// The placement state (tag-store inspection in tests/examples).
    #[must_use]
    pub fn placement(&self) -> &Placement {
        &self.placement
    }

    /// Install an adaptive-placement tag directly (cache-warming replay of
    /// a dirty eviction). No-op for non-adaptive policies.
    pub fn seed_adaptive_tag(&mut self, line: u64, predicted_critical: u8) {
        self.placement.on_writeback(line, predicted_critical);
    }

    /// Install the adaptive scheme's converged (steady-state) layout: a
    /// function mapping a line's byte address to the word its last
    /// writeback installed in the fast DIMM, for lines re-organised before
    /// the simulated window. Ignored by non-adaptive policies.
    pub fn set_steady_state_placement(&mut self, f: Box<dyn Fn(u64) -> Option<u8> + Send>) {
        if self.placement.policy() == PlacementPolicy::Adaptive {
            self.placement.set_steady_state(f);
        }
    }

    fn handle_fast_done(&mut self, id: u64, at: u64) {
        let Some(p) = self.pending.get_mut(&id) else { return };
        p.fast_done = Some(at);
        let parity_error =
            self.parity_error_rate > 0.0 && self.rng.random::<f64>() < self.parity_error_rate;
        if parity_error {
            p.parity_defer = true;
            self.stats.parity_errors += 1;
        } else {
            let words = 1 << p.fast_word;
            self.chans.schedule(
                at,
                MemEvent::WordsAvailable { token: Token(id), at, words, served_fast: true },
            );
        }
        self.maybe_fill(id);
    }

    fn handle_slow_done(&mut self, id: u64, at: u64) {
        let Some(p) = self.pending.get_mut(&id) else { return };
        p.slow_done = Some(at);
        let words = !(1u8 << p.fast_word);
        self.chans.schedule(
            at,
            MemEvent::WordsAvailable { token: Token(id), at, words, served_fast: false },
        );
        self.maybe_fill(id);
    }

    fn maybe_fill(&mut self, id: u64) {
        let Some(p) = self.pending.get(&id) else { return };
        let (Some(f), Some(s)) = (p.fast_done, p.slow_done) else { return };
        let at = f.max(s);
        if p.demand {
            if p.critical == p.fast_word && !p.parity_defer {
                self.stats.cw_served_fast += 1;
            }
            if f < s {
                self.stats.fast_first += 1;
                self.stats.gap_cpu_cycles += s - f;
            }
        }
        if p.parity_defer {
            // The parity-suppressed word becomes usable only now, after
            // SECDED over the full line corrected it (§4.2.3).
            let words = 1 << p.fast_word;
            self.chans.schedule(
                at,
                MemEvent::WordsAvailable { token: Token(id), at, words, served_fast: false },
            );
        }
        self.chans.schedule(at, MemEvent::LineFilled { token: Token(id), at });
        self.pending.remove(&id);
    }
}

impl Organization for HeteroCwfMemory {
    fn channels(&self) -> &ChannelSet {
        &self.chans
    }

    fn channels_mut(&mut self) -> &mut ChannelSet {
        &mut self.chans
    }

    fn submit(&mut self, req: &LineRequest, now: u64) -> Result<Option<Token>, MemBusy> {
        let line = req.line_addr >> 6;
        let (sub, floc) = self.fast_mapper.decode(req.line_addr);
        let (chan, sloc) = self.slow_mapper.decode(req.line_addr);
        let (sub, chan) = (usize::from(sub), usize::from(chan));
        match req.kind {
            mem_ctrl::AccessKind::Write { predicted_critical } => {
                // Both halves must be written atomically (the MSHR frees
                // the line only once), so require space in both queues.
                if !self.chans.write_space(FAST, sub) || !self.chans.write_space(SLOW, chan) {
                    return Err(MemBusy);
                }
                // Re-organise the layout before choosing the destination
                // word (§4.2.5: the dirty writeback installs the predicted
                // critical word in the low-latency DIMM).
                self.placement.on_writeback(line, predicted_critical);
                let ok_f = self.chans.enqueue_write(FAST, sub, floc, now);
                let ok_s = self.chans.enqueue_write(SLOW, chan, sloc, now);
                debug_assert!(ok_f && ok_s, "space was checked");
                Ok(None)
            }
            mem_ctrl::AccessKind::DemandRead | mem_ctrl::AccessKind::PrefetchRead => {
                if !self.chans.read_space(FAST, sub) || !self.chans.read_space(SLOW, chan) {
                    return Err(MemBusy);
                }
                let demand = req.kind == mem_ctrl::AccessKind::DemandRead;
                let prefetch = !demand;
                let fast_word = self.placement.fast_word(line, req.critical_word);
                let id = self.next_id;
                self.next_id += 1;
                let ok_f = self.chans.enqueue_read(FAST, sub, Token(id), floc, prefetch, now);
                let ok_s = self.chans.enqueue_read(SLOW, chan, Token(id), sloc, prefetch, now);
                debug_assert!(ok_f && ok_s, "space was checked");
                self.pending.insert(
                    id,
                    Pending {
                        fast_done: None,
                        slow_done: None,
                        fast_word,
                        critical: req.critical_word,
                        parity_defer: false,
                        demand,
                    },
                );
                if demand {
                    self.stats.demand_reads += 1;
                }
                Ok(Some(Token(id)))
            }
        }
    }

    fn complete(&mut self, domain: usize, token: Token, at: u64) {
        if domain == FAST {
            self.handle_fast_done(token.0, at);
        } else {
            self.handle_slow_done(token.0, at);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dram_timing::DeviceKind;
    use mem_ctrl::MainMemory;

    fn run_one_read(
        mut mem: HeteroCwfMemory,
        critical: u8,
    ) -> (HeteroCwfMemory, Vec<MemEvent>, Token) {
        let tok =
            mem.try_submit(&LineRequest::demand_read(0x10_000, critical, 0), 0).unwrap().unwrap();
        let mut ev = Vec::new();
        for now in 0..5_000 {
            mem.tick(now);
            mem.drain_events(now, &mut ev);
        }
        (mem, ev, tok)
    }

    fn fill_at(ev: &[MemEvent]) -> u64 {
        ev.iter()
            .find_map(|e| match e {
                MemEvent::LineFilled { at, .. } => Some(*at),
                MemEvent::WordsAvailable { .. } => None,
            })
            .expect("line filled")
    }

    fn critical_at(ev: &[MemEvent], word: u8) -> (u64, bool) {
        ev.iter()
            .find_map(|e| match e {
                MemEvent::WordsAvailable { at, words, served_fast, .. }
                    if words & (1 << word) != 0 =>
                {
                    Some((*at, *served_fast))
                }
                _ => None,
            })
            .expect("critical word event")
    }

    #[test]
    fn word0_read_gets_tens_of_cycles_head_start() {
        let (mem, ev, _) = run_one_read(HeteroCwfMemory::new(CwfConfig::rl()), 0);
        let (cw_at, fast) = critical_at(&ev, 0);
        let fill = fill_at(&ev);
        assert!(fast, "word 0 must come from RLDRAM");
        let head_start = fill - cw_at;
        assert!(
            (20..=400).contains(&head_start),
            "head start {head_start} CPU cycles should be tens of cycles"
        );
        assert_eq!(mem.cwf_stats().cw_served_fast, 1);
        assert_eq!(mem.cwf_stats().fast_first, 1);
    }

    #[test]
    fn non_word0_critical_waits_for_slow_part() {
        let (mem, ev, _) = run_one_read(HeteroCwfMemory::new(CwfConfig::rl()), 3);
        let (cw_at, fast) = critical_at(&ev, 3);
        assert!(!fast, "word 3 lives on the LPDDR2 side under Static0");
        assert_eq!(cw_at, fill_at(&ev), "no early wake possible");
        assert_eq!(mem.cwf_stats().cw_served_fast, 0);
    }

    #[test]
    fn oracle_always_serves_fast() {
        let cfg = CwfConfig::rl().with_policy(PlacementPolicy::Oracle);
        let (mem, ev, _) = run_one_read(HeteroCwfMemory::new(cfg), 5);
        let (_, fast) = critical_at(&ev, 5);
        assert!(fast);
        assert_eq!(mem.cwf_stats().served_fast_fraction(), 1.0);
    }

    #[test]
    fn adaptive_reorganises_on_writeback() {
        let mut mem = HeteroCwfMemory::new(CwfConfig::rl().with_policy(PlacementPolicy::Adaptive));
        // Writeback predicting word 3 re-organises the line's layout...
        mem.try_submit(&LineRequest::writeback(0x10_000, 3, 0), 0).unwrap();
        let mut ev = Vec::new();
        for now in 0..3_000 {
            mem.tick(now);
            mem.drain_events(now, &mut ev);
        }
        // ...so a later word-3 fetch is served fast.
        let tok = mem.try_submit(&LineRequest::demand_read(0x10_000, 3, 0), 3_000).unwrap();
        for now in 3_000..8_000 {
            mem.tick(now);
            mem.drain_events(now, &mut ev);
        }
        assert!(tok.is_some());
        assert_eq!(mem.cwf_stats().cw_served_fast, 1);
    }

    #[test]
    fn parity_error_defers_wake_to_line_fill() {
        let cfg = CwfConfig::rl().with_parity_errors(1.0, 42);
        let (mem, ev, _) = run_one_read(HeteroCwfMemory::new(cfg), 0);
        // No early fast event was emitted: word 0 only becomes visible at
        // the line fill (the slow event covers words 1–7 only).
        assert!(ev
            .iter()
            .all(|e| !matches!(e, MemEvent::WordsAvailable { served_fast: true, .. })));
        assert_eq!(mem.cwf_stats().parity_errors, 1);
        assert_eq!(mem.cwf_stats().cw_served_fast, 0);
    }

    #[test]
    fn rd_uses_ddr3_slow_and_is_faster_than_rl() {
        let (_, ev_rl, _) = run_one_read(HeteroCwfMemory::new(CwfConfig::rl()), 0);
        let (_, ev_rd, _) = run_one_read(HeteroCwfMemory::new(CwfConfig::rd()), 0);
        assert!(fill_at(&ev_rd) < fill_at(&ev_rl), "DDR3 bulk beats LPDDR2 bulk");
        // The critical word path is identical (same RLDRAM).
        assert_eq!(critical_at(&ev_rd, 0).0, critical_at(&ev_rl, 0).0);
    }

    #[test]
    fn dl_critical_path_is_slower_than_rl() {
        let (_, ev_rl, _) = run_one_read(HeteroCwfMemory::new(CwfConfig::rl()), 0);
        let (_, ev_dl, _) = run_one_read(HeteroCwfMemory::new(CwfConfig::dl()), 0);
        assert!(critical_at(&ev_dl, 0).0 > critical_at(&ev_rl, 0).0);
    }

    #[test]
    fn split_write_consumes_both_queues() {
        let mut mem = HeteroCwfMemory::new(CwfConfig::rl());
        assert!(mem.try_submit(&LineRequest::writeback(0x40, 0, 0), 0).unwrap().is_none());
        let mut ev = Vec::new();
        for now in 0..4_000 {
            mem.tick(now);
            mem.drain_events(now, &mut ev);
        }
        assert!(ev.is_empty());
        let s = mem.stats(4_000);
        assert_eq!(s.total_writes(), 2, "one write per half");
    }

    #[test]
    fn stats_cover_fast_and_slow_controllers() {
        let mut mem = HeteroCwfMemory::new(CwfConfig::rl());
        let s = mem.stats(0);
        // 4 fast sub-channels + 4 slow channels.
        assert_eq!(s.controllers.len(), 8);
        assert!(s.controllers.iter().any(|c| c.kind == DeviceKind::Rldram3));
        assert!(s.controllers.iter().any(|c| c.kind == DeviceKind::Lpddr2));
    }

    #[test]
    fn random_placement_hits_about_one_eighth() {
        let mut mem = HeteroCwfMemory::new(CwfConfig::rl().with_policy(PlacementPolicy::Random));
        let mut ev = Vec::new();
        let mut now = 0u64;
        for i in 0..400u64 {
            // Critical word 0 on distinct lines: random placement matches
            // with probability 1/8.
            mem.try_submit(&LineRequest::demand_read(i * 64 * 16, 0, 0), now).unwrap();
            for _ in 0..400 {
                mem.tick(now);
                mem.drain_events(now, &mut ev);
                now += 1;
            }
        }
        let frac = mem.cwf_stats().served_fast_fraction();
        assert!((0.05..0.25).contains(&frac), "random hit rate {frac:.3} ≈ 1/8");
    }
}

cwf_ckpt::ckpt_struct!(CwfStats {
    demand_reads,
    cw_served_fast,
    parity_errors,
    fast_first,
    gap_cpu_cycles
});

cwf_ckpt::ckpt_struct!(Pending { fast_done, slow_done, fast_word, critical, parity_defer, demand });

impl HeteroCwfMemory {
    /// Serialize mutable state: the channels, then the placement tags,
    /// the parity RNG stream, in-flight transactions, the id counter and
    /// statistics. Mappers and the parity rate are pure config, rebuilt
    /// on restore.
    ///
    /// # Errors
    ///
    /// Fails when any controller holds undrained trace events.
    pub fn save_state(&self, w: &mut cwf_ckpt::Writer) -> cwf_ckpt::Result<()> {
        let HeteroCwfMemory {
            chans,
            fast_mapper: _,
            slow_mapper: _,
            placement,
            rng,
            parity_error_rate: _,
            pending,
            next_id,
            stats,
        } = self;
        w.section(b"HCWF");
        chans.save_state(w)?;
        placement.save_state(w);
        cwf_ckpt::Ckpt::save(&rng.state(), w);
        cwf_ckpt::Ckpt::save(pending, w);
        cwf_ckpt::Ckpt::save(next_id, w);
        cwf_ckpt::Ckpt::save(stats, w);
        Ok(())
    }

    /// Restore state saved by [`HeteroCwfMemory::save_state`].
    ///
    /// # Errors
    ///
    /// Fails on malformed input or a controller-count mismatch.
    pub fn load_state(&mut self, r: &mut cwf_ckpt::Reader<'_>) -> cwf_ckpt::Result<()> {
        r.expect_section(b"HCWF")?;
        self.chans.load_state(r)?;
        self.placement.load_state(r)?;
        self.rng = StdRng::from_state(cwf_ckpt::Ckpt::load(r)?);
        self.pending = cwf_ckpt::Ckpt::load(r)?;
        self.next_id = cwf_ckpt::Ckpt::load(r)?;
        self.stats = cwf_ckpt::Ckpt::load(r)?;
        Ok(())
    }
}
