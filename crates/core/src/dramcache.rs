//! The tags-in-DRAM cache backend: a fast DRAM channel group used as a
//! set-associative line cache in front of a slow NVM-like store.
//!
//! This is the literature's competing bet to the paper's critical-word
//! split (Babaie et al., PAPERS.md): spend the fast silicon on a cache of
//! whole lines instead of on one word of every line. The organization:
//!
//! * every access first issues a **tag probe** — a real DRAM read
//!   transaction against the tag region of the fast channels (tags live
//!   in DRAM, not in SRAM on the controller);
//! * reads also issue a **speculative data read** in parallel (hit
//!   speculation): on a hit the data is already in flight when the probe
//!   confirms, so the hit latency is one fast access, not two;
//! * a probe miss fetches the line from the slow NVM store and — under
//!   [`FillPolicy::FillOnMiss`] — installs it in the cache, evicting the
//!   set's LRU way and writing back its data first when dirty;
//! * writes that hit are absorbed by the cache (the way turns dirty);
//!   writes that miss go straight to the slow store (no write-allocate).
//!
//! The shadow tag array in this struct is the *model* of the tag region;
//! the DRAM transactions model its cost. When auditing is enabled every
//! probe/fill/evict/writeback decision is recorded as an
//! [`AuditRecord::Cache`] so the verify oracle can replay the
//! cache-consistency contract (DESIGN.md §17) independently.

// cwf-lint: allow(hash-container) -- keyed in-flight lookups only, never iterated
use std::collections::HashMap;

use dram_timing::DeviceConfig;
use mem_ctrl::audit::{AuditRecord, CacheAuditOp};
use mem_ctrl::{
    AddressMapper, ChannelSet, ClockDomain, Controller, LineRequest, Loc, MappingScheme, MemBusy,
    MemEvent, Organization, Token,
};

/// What happens to a missing line once the slow store returns it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FillPolicy {
    /// Install the line in the cache (evicting the set's LRU way).
    FillOnMiss,
    /// Serve the miss from the slow store without caching it.
    Bypass,
}

/// Configuration of a DRAM-cache memory system.
#[derive(Debug, Clone)]
pub struct DramCacheConfig {
    /// Device behind the cache (fast) channels.
    pub fast: DeviceConfig,
    /// Device behind the slow NVM-like store.
    pub slow: DeviceConfig,
    /// Fast cache channels.
    pub fast_channels: u32,
    /// Slow store channels (paper baseline topology: 4).
    pub slow_channels: u32,
    /// Devices activated per fast access.
    pub fast_chips: u32,
    /// Devices activated per slow access.
    pub slow_chips: u32,
    /// Cache sets (set = line address mod `sets`).
    pub sets: u32,
    /// Ways per set.
    pub ways: u32,
    /// Miss fill policy.
    pub fill: FillPolicy,
}

impl DramCacheConfig {
    /// The default head-to-head point: an RLDRAM3 cache in front of the
    /// NVM-slow store (`--mem dramcache:rldram3+nvm_slow`).
    #[must_use]
    pub fn rl_nvm() -> Self {
        Self::pair(dram_timing::DeviceKind::Rldram3, dram_timing::DeviceKind::NvmSlow)
    }

    /// An arbitrary fast/slow device pairing on the default topology:
    /// two fast cache channels over four slow store channels, a
    /// 65536-set x 4-way (16 MiB) line cache, fill-on-miss.
    ///
    /// The capacity must exceed the core-side LLC (4 MiB): any line the
    /// LLC re-requests was first evicted from the LLC, so its reuse
    /// distance is at least the LLC's capacity — a memory-side cache no
    /// bigger than the LLC can structurally never hit.
    #[must_use]
    pub fn pair(fast: dram_timing::DeviceKind, slow: dram_timing::DeviceKind) -> Self {
        let fast = DeviceConfig::preset(fast);
        // x9-class single-command parts need only 4 devices per 72-bit
        // access; ras-cas parts use the 9-chip ECC DIMM.
        let fast_chips = match fast.addressing {
            dram_timing::AddressingStyle::SingleCommand => 4,
            dram_timing::AddressingStyle::RasCas => 9,
        };
        DramCacheConfig {
            fast,
            slow: DeviceConfig::preset(slow),
            fast_channels: 2,
            slow_channels: 4,
            fast_chips,
            slow_chips: 9,
            sets: 65_536,
            ways: 4,
            fill: FillPolicy::FillOnMiss,
        }
    }

    /// Same configuration under a different fill policy.
    #[must_use]
    pub fn with_fill(mut self, fill: FillPolicy) -> Self {
        self.fill = fill;
        self
    }

    /// Same configuration with a different cache geometry.
    ///
    /// # Panics
    ///
    /// Panics if `sets` or `ways` is zero.
    #[must_use]
    pub fn with_geometry(mut self, sets: u32, ways: u32) -> Self {
        assert!(sets > 0 && ways > 0, "cache needs sets and ways");
        self.sets = sets;
        self.ways = ways;
        self
    }
}

/// DRAM-cache-specific statistics.
#[derive(Debug, Clone, Copy, Default)]
pub struct DramCacheStats {
    /// Demand reads submitted.
    pub demand_reads: u64,
    /// Read probes that hit.
    pub read_hits: u64,
    /// Read probes that missed.
    pub read_misses: u64,
    /// Write probes that hit (absorbed by the cache).
    pub write_hits: u64,
    /// Write probes that missed (forwarded to the slow store).
    pub write_misses: u64,
    /// Lines installed on miss.
    pub fills: u64,
    /// Victim lines evicted to make room.
    pub evictions: u64,
    /// Dirty victims written back to the slow store.
    pub writebacks: u64,
    /// Speculative data reads wasted on a miss.
    pub spec_wasted: u64,
    /// Misses served without installing (fill policy bypass).
    pub bypasses: u64,
}

impl DramCacheStats {
    /// Fraction of read probes that hit.
    #[must_use]
    pub fn read_hit_rate(&self) -> f64 {
        let total = self.read_hits + self.read_misses;
        if total == 0 {
            0.0
        } else {
            self.read_hits as f64 / total as f64
        }
    }

    /// Subtract an earlier snapshot (warm-up exclusion).
    pub fn sub(&mut self, earlier: &DramCacheStats) {
        self.demand_reads -= earlier.demand_reads;
        self.read_hits -= earlier.read_hits;
        self.read_misses -= earlier.read_misses;
        self.write_hits -= earlier.write_hits;
        self.write_misses -= earlier.write_misses;
        self.fills -= earlier.fills;
        self.evictions -= earlier.evictions;
        self.writebacks -= earlier.writebacks;
        self.spec_wasted -= earlier.spec_wasted;
        self.bypasses -= earlier.bypasses;
    }
}

/// One way of the shadow tag array.
#[derive(Debug, Clone, Copy, Default)]
struct TagEntry {
    valid: bool,
    line: u64,
    dirty: bool,
    lru: u64,
}

/// In-flight request state, keyed by the external token id.
#[derive(Debug, Clone, Copy)]
struct ReqState {
    line: u64,
    write: bool,
    demand: bool,
    prefetch: bool,
    probe_done: Option<u64>,
    data_done: Option<u64>,
    hit: Option<bool>,
    data_issued: bool,
}

/// What a fast-channel read completion belongs to.
#[derive(Debug, Clone, Copy)]
enum FastOp {
    /// Tag probe for request `req`.
    Probe(u64),
    /// (Speculative) data read for request `req`.
    Data(u64),
}

/// Clock domain of the fast cache channels.
const FAST: usize = 0;
/// Clock domain of the slow store channels.
const SLOW: usize = 1;

/// The DRAM-cache main memory (implements [`mem_ctrl::MainMemory`] as an
/// [`Organization`]).
#[derive(Debug)]
pub struct DramCacheMemory {
    chans: ChannelSet,
    fast_mapper: AddressMapper,
    slow_mapper: AddressMapper,
    sets: u32,
    ways: u32,
    fill: FillPolicy,
    tags: Vec<TagEntry>,
    lru_clock: u64,
    // cwf-lint: allow(hash-container) -- hot-path token maps; get/remove/insert only
    pending: HashMap<u64, ReqState>,
    // cwf-lint: allow(hash-container) -- hot-path token map; get/remove/insert only
    fast_ops: HashMap<u64, FastOp>,
    next_id: u64,
    stats: DramCacheStats,
    fault_fake_hit: bool,
    fault_double_fill: bool,
    fault_drop_writeback: bool,
}

impl DramCacheMemory {
    /// Build the system described by `cfg`.
    ///
    /// # Panics
    ///
    /// Panics if channel counts or the cache geometry are zero.
    #[must_use]
    pub fn new(cfg: DramCacheConfig) -> Self {
        assert!(cfg.fast_channels > 0 && cfg.slow_channels > 0, "need channels");
        assert!(cfg.sets > 0 && cfg.ways > 0, "cache needs sets and ways");
        let fast_scheme = MappingScheme::for_page_policy(cfg.fast.page_policy);
        let fast_mapper = AddressMapper::for_device(fast_scheme, cfg.fast_channels, 1, &cfg.fast);
        let slow_mapper = AddressMapper::for_device(
            MappingScheme::OpenPageRowLocality,
            cfg.slow_channels,
            1,
            &cfg.slow,
        );
        let fast_kind = format!("{}", cfg.fast.kind).to_lowercase();
        let slow_kind = format!("{}", cfg.slow.kind).to_lowercase();
        let fast = (0..cfg.fast_channels)
            .map(|i| {
                Controller::new(
                    cfg.fast.clone(),
                    1,
                    cfg.fast_chips,
                    &format!("dc-{fast_kind}-ch{i}"),
                )
            })
            .collect();
        let slow = (0..cfg.slow_channels)
            .map(|i| {
                Controller::new(
                    cfg.slow.clone(),
                    1,
                    cfg.slow_chips,
                    &format!("nvm-{slow_kind}-ch{i}"),
                )
            })
            .collect();
        DramCacheMemory {
            chans: ChannelSet::new(vec![ClockDomain::new(fast), ClockDomain::new(slow)]),
            fast_mapper,
            slow_mapper,
            sets: cfg.sets,
            ways: cfg.ways,
            fill: cfg.fill,
            tags: vec![TagEntry::default(); (cfg.sets * cfg.ways) as usize],
            lru_clock: 0,
            pending: HashMap::new(), // cwf-lint: allow(hash-container) -- see field note
            fast_ops: HashMap::new(), // cwf-lint: allow(hash-container) -- see field note
            next_id: 0,
            stats: DramCacheStats::default(),
            fault_fake_hit: false,
            fault_double_fill: false,
            fault_drop_writeback: false,
        }
    }

    /// DRAM-cache-specific statistics.
    #[must_use]
    pub fn dramcache_stats(&self) -> &DramCacheStats {
        &self.stats
    }

    /// Fault injection: the next read-probe miss lies and declares a hit
    /// (tag/data coherence break). Seeded-fault tests only.
    pub fn inject_fake_hit(&mut self) {
        self.fault_fake_hit = true;
    }

    /// Fault injection: the next miss fill is performed (and audited)
    /// twice (exactly-once-fill break). Seeded-fault tests only.
    pub fn inject_double_fill(&mut self) {
        self.fault_double_fill = true;
    }

    /// Fault injection: the next dirty eviction skips its writeback
    /// (writeback-before-evict break). Seeded-fault tests only.
    pub fn inject_drop_writeback(&mut self) {
        self.fault_drop_writeback = true;
    }

    fn set_of(&self, line: u64) -> u32 {
        (line % u64::from(self.sets)) as u32
    }

    fn tag_idx(&self, set: u32, way: u32) -> usize {
        (set * self.ways + way) as usize
    }

    /// Way holding `line` in `set`, if resident.
    fn lookup(&self, set: u32, line: u64) -> Option<u32> {
        (0..self.ways).find(|&w| {
            let e = &self.tags[self.tag_idx(set, w)];
            e.valid && e.line == line
        })
    }

    /// Fast-channel location of the cached copy at `(set, way)`.
    fn data_loc(&self, set: u32, way: u32) -> (u8, Loc) {
        let cache_line = u64::from(set * self.ways + way);
        self.fast_mapper.decode(cache_line << 6)
    }

    /// Fast-channel location of `set`'s tag line. Tags live in a region
    /// of the fast address space above the data lines.
    fn probe_loc(&self, set: u32) -> (u8, Loc) {
        let tag_line = u64::from(self.sets * self.ways) + u64::from(set);
        self.fast_mapper.decode(tag_line << 6)
    }

    fn audit_cache(&mut self, at: u64, op: CacheAuditOp) {
        self.chans.record_audit(AuditRecord::Cache { at, op });
    }

    fn complete_read(&mut self, id: u64, at: u64, served_fast: bool) {
        let token = Token(id);
        self.chans.schedule(at, MemEvent::WordsAvailable { token, at, words: 0xFF, served_fast });
        self.chans.schedule(at, MemEvent::LineFilled { token, at });
    }

    fn handle_probe_done(&mut self, id: u64, at: u64) {
        let Some(mut p) = self.pending.get(&id).copied() else { return };
        p.probe_done = Some(at);
        let (line, write, prefetch) = (p.line, p.write, p.prefetch);
        let set = self.set_of(line);
        let resident = self.lookup(set, line);
        if write {
            self.pending.remove(&id);
            match resident {
                Some(way) => {
                    self.stats.write_hits += 1;
                    let idx = self.tag_idx(set, way);
                    self.lru_clock += 1;
                    self.tags[idx].dirty = true;
                    self.tags[idx].lru = self.lru_clock;
                    let (chan, loc) = self.data_loc(set, way);
                    self.chans.defer_write(FAST, chan, loc);
                    self.audit_cache(at, CacheAuditOp::Probe { line, set, hit: true, write: true });
                }
                None => {
                    // No write-allocate: the line goes straight down.
                    self.stats.write_misses += 1;
                    let (chan, loc) = self.slow_mapper.decode(line << 6);
                    self.chans.defer_write(SLOW, chan, loc);
                    self.audit_cache(
                        at,
                        CacheAuditOp::Probe { line, set, hit: false, write: true },
                    );
                }
            }
            self.chans.record_trace(cwf_tracelog::TraceEvent::DcTagProbe {
                token: cwf_tracelog::RequestToken(id),
                at,
                hit: resident.is_some(),
                write: true,
            });
            return;
        }
        let mut hit = resident.is_some();
        if self.fault_fake_hit && !hit {
            // The seeded tag/data coherence fault: declare victory on a
            // line the cache does not hold.
            self.fault_fake_hit = false;
            hit = true;
        }
        p.hit = Some(hit);
        self.audit_cache(at, CacheAuditOp::Probe { line, set, hit, write: false });
        self.chans.record_trace(cwf_tracelog::TraceEvent::DcTagProbe {
            token: cwf_tracelog::RequestToken(id),
            at,
            hit,
            write: false,
        });
        self.pending.insert(id, p);
        if hit {
            self.stats.read_hits += 1;
            if let Some(way) = resident {
                let idx = self.tag_idx(set, way);
                self.lru_clock += 1;
                self.tags[idx].lru = self.lru_clock;
            }
            if !p.data_issued {
                let way = resident.unwrap_or(0);
                let (chan, loc) = self.data_loc(set, way);
                self.chans.defer_read(FAST, id, chan, loc, prefetch);
            }
            self.try_complete_hit(id);
        } else {
            self.stats.read_misses += 1;
            if p.data_issued {
                self.stats.spec_wasted += 1;
            }
            let (chan, loc) = self.slow_mapper.decode(line << 6);
            self.chans.defer_read(SLOW, id, chan, loc, prefetch);
        }
    }

    fn handle_data_done(&mut self, id: u64, at: u64) {
        let Some(p) = self.pending.get_mut(&id) else { return };
        p.data_done = Some(at);
        self.try_complete_hit(id);
    }

    fn try_complete_hit(&mut self, id: u64) {
        let Some(p) = self.pending.get(&id) else { return };
        if p.hit != Some(true) {
            return;
        }
        let (Some(probe), Some(data)) = (p.probe_done, p.data_done) else { return };
        self.complete_read(id, probe.max(data), true);
        self.pending.remove(&id);
    }

    fn handle_slow_done(&mut self, id: u64, at: u64) {
        let Some(p) = self.pending.get(&id) else { return };
        let line = p.line;
        let done_at = p.probe_done.unwrap_or(at).max(at);
        self.complete_read(id, done_at, false);
        self.pending.remove(&id);
        let filled = self.fill == FillPolicy::FillOnMiss;
        self.chans.record_trace(cwf_tracelog::TraceEvent::DcMissFill {
            token: cwf_tracelog::RequestToken(id),
            at,
            filled,
        });
        if filled {
            self.fill_line(line, at);
            if self.fault_double_fill {
                // The seeded exactly-once-fill fault: the fill state
                // machine fires a second time for the same line — a
                // duplicate install (and data write) with no eviction in
                // between.
                self.fault_double_fill = false;
                let set = self.set_of(line);
                if let Some(way) = self.lookup(set, line) {
                    self.stats.fills += 1;
                    self.audit_cache(at, CacheAuditOp::Fill { line, set, way });
                    let (chan, loc) = self.data_loc(set, way);
                    self.chans.defer_write(FAST, chan, loc);
                }
            }
        } else {
            self.stats.bypasses += 1;
        }
    }

    /// Install `line`, evicting the set's LRU way if every way is live
    /// (dirty victims write back first).
    fn fill_line(&mut self, line: u64, at: u64) {
        let set = self.set_of(line);
        let way =
            (0..self.ways).find(|&w| !self.tags[self.tag_idx(set, w)].valid).unwrap_or_else(|| {
                (0..self.ways)
                    .min_by_key(|&w| self.tags[self.tag_idx(set, w)].lru)
                    .expect("ways > 0")
            });
        let idx = self.tag_idx(set, way);
        let victim = self.tags[idx];
        if victim.valid {
            if victim.dirty {
                if self.fault_drop_writeback {
                    // The seeded writeback-before-evict fault: the dirty
                    // data silently evaporates.
                    self.fault_drop_writeback = false;
                } else {
                    let (chan, loc) = self.slow_mapper.decode(victim.line << 6);
                    self.chans.defer_write(SLOW, chan, loc);
                    self.stats.writebacks += 1;
                    self.audit_cache(at, CacheAuditOp::Writeback { line: victim.line, set });
                }
            }
            self.stats.evictions += 1;
            self.audit_cache(
                at,
                CacheAuditOp::Evict { line: victim.line, set, way, dirty: victim.dirty },
            );
        }
        self.lru_clock += 1;
        self.tags[idx] = TagEntry { valid: true, line, dirty: false, lru: self.lru_clock };
        self.stats.fills += 1;
        self.audit_cache(at, CacheAuditOp::Fill { line, set, way });
        let (chan, loc) = self.data_loc(set, way);
        self.chans.defer_write(FAST, chan, loc);
    }
}

impl Organization for DramCacheMemory {
    fn channels(&self) -> &ChannelSet {
        &self.chans
    }

    fn channels_mut(&mut self) -> &mut ChannelSet {
        &mut self.chans
    }

    fn submit(&mut self, req: &LineRequest, now: u64) -> Result<Option<Token>, MemBusy> {
        let line = req.line_addr >> 6;
        let set = self.set_of(line);
        let (pchan, ploc) = self.probe_loc(set);
        let pchan = usize::from(pchan);
        if !self.chans.read_space(FAST, pchan) {
            return Err(MemBusy);
        }
        match req.kind {
            mem_ctrl::AccessKind::Write { .. } => {
                let id = self.next_id;
                self.next_id += 1;
                let ok = self.chans.enqueue_read(FAST, pchan, Token(id), ploc, false, now);
                debug_assert!(ok, "space was checked");
                self.fast_ops.insert(id, FastOp::Probe(id));
                self.pending.insert(
                    id,
                    ReqState {
                        line,
                        write: true,
                        demand: false,
                        prefetch: false,
                        probe_done: None,
                        data_done: None,
                        hit: None,
                        data_issued: false,
                    },
                );
                Ok(None)
            }
            mem_ctrl::AccessKind::DemandRead | mem_ctrl::AccessKind::PrefetchRead => {
                let demand = req.kind == mem_ctrl::AccessKind::DemandRead;
                let prefetch = !demand;
                // The external token is the request id; the probe rides on
                // its own id so the two fast completions stay apart.
                let id = self.next_id;
                let probe_id = self.next_id + 1;
                self.next_id += 2;
                let ok = self.chans.enqueue_read(FAST, pchan, Token(probe_id), ploc, prefetch, now);
                debug_assert!(ok, "space was checked");
                self.fast_ops.insert(probe_id, FastOp::Probe(id));
                // Hit speculation: start the data access in parallel with
                // the probe, aimed at the resident way (or way 0 when the
                // speculation is doomed anyway). Skipped under queue
                // pressure — the probe then serializes before the data.
                let way = self.lookup(set, line).unwrap_or(0);
                let (dchan, dloc) = self.data_loc(set, way);
                let data_issued = self.chans.enqueue_read(
                    FAST,
                    usize::from(dchan),
                    Token(id),
                    dloc,
                    prefetch,
                    now,
                );
                if data_issued {
                    self.fast_ops.insert(id, FastOp::Data(id));
                }
                self.pending.insert(
                    id,
                    ReqState {
                        line,
                        write: false,
                        demand,
                        prefetch,
                        probe_done: None,
                        data_done: None,
                        hit: None,
                        data_issued,
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
        if domain == SLOW {
            self.handle_slow_done(token.0, at);
            return;
        }
        match self.fast_ops.remove(&token.0) {
            Some(FastOp::Probe(req)) => self.handle_probe_done(req, at),
            Some(FastOp::Data(req)) => self.handle_data_done(req, at),
            None => {}
        }
    }

    fn deferred_read_issued(&mut self, domain: usize, token: Token) {
        // Deferred fast reads are always hit data reads.
        if domain == FAST {
            self.fast_ops.insert(token.0, FastOp::Data(token.0));
        }
    }
}

cwf_ckpt::ckpt_struct!(DramCacheStats {
    demand_reads,
    read_hits,
    read_misses,
    write_hits,
    write_misses,
    fills,
    evictions,
    writebacks,
    spec_wasted,
    bypasses
});

cwf_ckpt::ckpt_struct!(TagEntry { valid, line, dirty, lru });

cwf_ckpt::ckpt_struct!(ReqState {
    line,
    write,
    demand,
    prefetch,
    probe_done,
    data_done,
    hit,
    data_issued
});

impl cwf_ckpt::Ckpt for FastOp {
    fn save(&self, w: &mut cwf_ckpt::Writer) {
        match *self {
            FastOp::Probe(req) => {
                w.put_u8(0);
                w.put_u64(req);
            }
            FastOp::Data(req) => {
                w.put_u8(1);
                w.put_u64(req);
            }
        }
    }
    fn load(r: &mut cwf_ckpt::Reader<'_>) -> cwf_ckpt::Result<Self> {
        match r.get_u8()? {
            0 => Ok(FastOp::Probe(r.get_u64()?)),
            1 => Ok(FastOp::Data(r.get_u64()?)),
            t => Err(cwf_ckpt::CkptError::new(format!("invalid FastOp tag {t}"))),
        }
    }
}

impl DramCacheMemory {
    /// Serialize mutable state: the channels, then the shadow tag array,
    /// in-flight transactions, the id counter, statistics and the
    /// seeded-fault flags. Mappers, geometry and the fill policy are pure
    /// config, rebuilt on restore. Audit/trace buffers must be drained
    /// before saving (the observers own their contents).
    ///
    /// # Errors
    ///
    /// Fails when any controller refuses to serialize.
    pub fn save_state(&self, w: &mut cwf_ckpt::Writer) -> cwf_ckpt::Result<()> {
        let DramCacheMemory {
            chans,
            fast_mapper: _,
            slow_mapper: _,
            sets: _,
            ways: _,
            fill: _,
            tags,
            lru_clock,
            pending,
            fast_ops,
            next_id,
            stats,
            fault_fake_hit,
            fault_double_fill,
            fault_drop_writeback,
        } = self;
        w.section(b"DCCH");
        chans.save_state(w)?;
        cwf_ckpt::Ckpt::save(tags, w);
        cwf_ckpt::Ckpt::save(lru_clock, w);
        cwf_ckpt::Ckpt::save(pending, w);
        cwf_ckpt::Ckpt::save(fast_ops, w);
        cwf_ckpt::Ckpt::save(next_id, w);
        cwf_ckpt::Ckpt::save(stats, w);
        cwf_ckpt::Ckpt::save(fault_fake_hit, w);
        cwf_ckpt::Ckpt::save(fault_double_fill, w);
        cwf_ckpt::Ckpt::save(fault_drop_writeback, w);
        Ok(())
    }

    /// Restore state saved by [`DramCacheMemory::save_state`].
    ///
    /// # Errors
    ///
    /// Fails on malformed input or a channel-count mismatch.
    pub fn load_state(&mut self, r: &mut cwf_ckpt::Reader<'_>) -> cwf_ckpt::Result<()> {
        r.expect_section(b"DCCH")?;
        self.chans.load_state(r)?;
        let tags: Vec<TagEntry> = cwf_ckpt::Ckpt::load(r)?;
        if tags.len() != self.tags.len() {
            return Err(cwf_ckpt::CkptError::new("tag-array size mismatch"));
        }
        self.tags = tags;
        self.lru_clock = cwf_ckpt::Ckpt::load(r)?;
        self.pending = cwf_ckpt::Ckpt::load(r)?;
        self.fast_ops = cwf_ckpt::Ckpt::load(r)?;
        self.next_id = cwf_ckpt::Ckpt::load(r)?;
        self.stats = cwf_ckpt::Ckpt::load(r)?;
        self.fault_fake_hit = cwf_ckpt::Ckpt::load(r)?;
        self.fault_double_fill = cwf_ckpt::Ckpt::load(r)?;
        self.fault_drop_writeback = cwf_ckpt::Ckpt::load(r)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mem_ctrl::MainMemory;

    fn run_until_fill(mem: &mut DramCacheMemory, start: u64, span: u64) -> Vec<MemEvent> {
        let mut ev = Vec::new();
        for now in start..start + span {
            mem.tick(now);
            mem.drain_events(now, &mut ev);
        }
        ev
    }

    fn fill_at(ev: &[MemEvent], tok: Token) -> u64 {
        ev.iter()
            .find_map(|e| match e {
                MemEvent::LineFilled { token, at } if *token == tok => Some(*at),
                _ => None,
            })
            .expect("line filled")
    }

    #[test]
    fn cold_miss_then_hit_is_faster() {
        let mut mem = DramCacheMemory::new(DramCacheConfig::rl_nvm());
        let t0 = mem.try_submit(&LineRequest::demand_read(0x8000, 0, 0), 0).unwrap().unwrap();
        let ev = run_until_fill(&mut mem, 0, 20_000);
        let miss_latency = fill_at(&ev, t0);
        assert_eq!(mem.dramcache_stats().read_misses, 1);
        assert_eq!(mem.dramcache_stats().fills, 1);
        // Same line again: the fill made it a hit, served from RLDRAM3.
        let t1 = mem.try_submit(&LineRequest::demand_read(0x8000, 0, 0), 20_000).unwrap().unwrap();
        let ev = run_until_fill(&mut mem, 20_000, 20_000);
        let hit_latency = fill_at(&ev, t1) - 20_000;
        assert_eq!(mem.dramcache_stats().read_hits, 1);
        assert!(
            hit_latency < miss_latency,
            "hit ({hit_latency}) must beat cold miss ({miss_latency})"
        );
        let served_fast = ev.iter().any(|e| {
            matches!(e, MemEvent::WordsAvailable { token, served_fast: true, .. } if *token == t1)
        });
        assert!(served_fast, "hit serves from the fast cache");
    }

    #[test]
    fn bypass_policy_never_fills() {
        let cfg = DramCacheConfig::rl_nvm().with_fill(FillPolicy::Bypass);
        let mut mem = DramCacheMemory::new(cfg);
        mem.try_submit(&LineRequest::demand_read(0x8000, 0, 0), 0).unwrap().unwrap();
        run_until_fill(&mut mem, 0, 20_000);
        mem.try_submit(&LineRequest::demand_read(0x8000, 0, 0), 20_000).unwrap().unwrap();
        run_until_fill(&mut mem, 20_000, 20_000);
        let s = mem.dramcache_stats();
        assert_eq!(s.fills, 0);
        assert_eq!(s.read_misses, 2, "bypassed line misses again");
        assert_eq!(s.bypasses, 2);
    }

    #[test]
    fn conflicting_lines_evict_and_write_back_dirty_victims() {
        // 2 sets x 1 way: two lines in the same set conflict directly.
        let cfg = DramCacheConfig::rl_nvm().with_geometry(2, 1);
        let mut mem = DramCacheMemory::new(cfg);
        // Fill line A (set 0), dirty it, then fill conflicting line B.
        mem.try_submit(&LineRequest::demand_read(0, 0, 0), 0).unwrap().unwrap();
        run_until_fill(&mut mem, 0, 20_000);
        mem.try_submit(&LineRequest::writeback(0, 0, 0), 20_000).unwrap();
        run_until_fill(&mut mem, 20_000, 20_000);
        assert_eq!(mem.dramcache_stats().write_hits, 1);
        // Line B: same set (line addr = 2 sets further on).
        mem.try_submit(&LineRequest::demand_read(2 * 64, 0, 0), 40_000).unwrap().unwrap();
        run_until_fill(&mut mem, 40_000, 20_000);
        let s = mem.dramcache_stats();
        assert_eq!(s.evictions, 1);
        assert_eq!(s.writebacks, 1, "dirty victim must be written back");
    }

    #[test]
    fn write_miss_goes_straight_to_slow_store() {
        let mut mem = DramCacheMemory::new(DramCacheConfig::rl_nvm());
        mem.try_submit(&LineRequest::writeback(0x9000, 0, 0), 0).unwrap();
        run_until_fill(&mut mem, 0, 20_000);
        let s = mem.dramcache_stats();
        assert_eq!(s.write_misses, 1);
        assert_eq!(s.fills, 0, "no write-allocate");
        let sys = mem.stats(20_000);
        let slow_writes: u64 = sys.controllers.iter().skip(2).map(|c| c.writes_done).sum();
        assert_eq!(slow_writes, 1);
    }

    #[test]
    fn audit_records_cover_probe_fill_evict() {
        let cfg = DramCacheConfig::rl_nvm().with_geometry(2, 1);
        let mut mem = DramCacheMemory::new(cfg);
        mem.enable_audit();
        mem.try_submit(&LineRequest::demand_read(0, 0, 0), 0).unwrap().unwrap();
        run_until_fill(&mut mem, 0, 20_000);
        mem.try_submit(&LineRequest::demand_read(2 * 64, 0, 0), 20_000).unwrap().unwrap();
        run_until_fill(&mut mem, 20_000, 20_000);
        let mut records = Vec::new();
        mem.drain_audit(&mut |r| records.push(r));
        let cache_ops: Vec<&CacheAuditOp> = records
            .iter()
            .filter_map(|r| match r {
                AuditRecord::Cache { op, .. } => Some(op),
                _ => None,
            })
            .collect();
        assert!(cache_ops.iter().any(|o| matches!(o, CacheAuditOp::Probe { hit: false, .. })));
        assert!(cache_ops.iter().any(|o| matches!(o, CacheAuditOp::Fill { .. })));
        assert!(
            cache_ops.iter().any(|o| matches!(o, CacheAuditOp::Evict { dirty: false, .. })),
            "clean victim evicts without writeback"
        );
    }

    #[test]
    fn checkpoint_round_trips_mid_flight() {
        let mut mem = DramCacheMemory::new(DramCacheConfig::rl_nvm());
        let tok = mem.try_submit(&LineRequest::demand_read(0x8000, 0, 0), 0).unwrap().unwrap();
        // Stop mid-flight: the probe/data reads are still queued.
        let mut ev = Vec::new();
        for now in 0..8 {
            mem.tick(now);
            mem.drain_events(now, &mut ev);
        }
        let mut w = cwf_ckpt::Writer::new();
        mem.save_state(&mut w).unwrap();
        let bytes = w.into_vec();
        let mut restored = DramCacheMemory::new(DramCacheConfig::rl_nvm());
        let mut r = cwf_ckpt::Reader::new(&bytes);
        restored.load_state(&mut r).unwrap();
        r.finish().unwrap();
        // Both instances finish the read at the same cycle.
        let mut ev_a = Vec::new();
        let mut ev_b = Vec::new();
        for now in 8..20_000 {
            mem.tick(now);
            mem.drain_events(now, &mut ev_a);
            restored.tick(now);
            restored.drain_events(now, &mut ev_b);
        }
        assert_eq!(fill_at(&ev_a, tok), fill_at(&ev_b, tok));
    }
}
