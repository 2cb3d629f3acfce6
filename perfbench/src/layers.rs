//! Per-cell layer drill for the traced run: standalone drivers for the
//! trace generator, the functional cache warm path and the memory
//! controllers, plus observer-on runs for the verify oracle, the tracer
//! and checkpoints. Every driver calls public functions only and works
//! on the cell's own profile, seed and operation counts.

use std::collections::VecDeque;
use std::time::Instant;

use cache_hier::{AccessOutcome, HierParams, Hierarchy, StoreOutcome, Woken};
use cpu_model::{Core, CoreParams, IssueResult, MemOp, MemOpKind, TraceOp, TraceSource};
use dram_timing::{DeviceConfig, DeviceKind, PagePolicy};
use mem_ctrl::{
    AccessKind, AddressMapper, Controller, LineRequest, Loc, MainMemory, MappingScheme, MemBusy,
    MemEvent, MemSystemStats, Token,
};
use sim_harness::config::MemBackend;
use sim_harness::report::{to_json_diag, to_json_verified};
use sim_harness::{MemKind, System};
use workloads::TraceGen;

use crate::cells::CellSpec;
use crate::sim::CellRef;
use crate::util::ns_since;

/// What the drill measured for one cell.
#[derive(Default)]
pub struct CellLayer {
    pub gen_calls: u64,
    pub gen_ns: u64,
    pub warm_accesses: u64,
    pub warm_ns: u64,
    pub replay_requests: u64,
    pub replay_ticks: u64,
    pub replay_ns: u64,
    pub setup_ns: u64,
    pub off_ns: u64,
    pub report_ns: u64,
    pub verify_ns: u64,
    pub trace_ns: u64,
    pub verify_commands: u64,
    pub verify_events: u64,
    pub trace_events: u64,
    pub trace_dropped: u64,
    pub export_ns: u64,
    pub ckpt_save_ns: u64,
    pub ckpt_load_ns: u64,
    pub ckpt_bytes: u64,
    /// The document the sweep server must serve for this cell: run.v1
    /// with the kernel object, plus the verify object when verify is on
    /// (sweep cells never trace).
    pub server_doc: String,
    pub ops: u64,
    pub fails: u64,
}

impl CellLayer {
    fn check(&mut self, ok: bool, what: &str, cell: &CellSpec) {
        self.ops += 1;
        if !ok {
            self.fails += 1;
            eprintln!("check failed: {}: {what}", cell.label());
        }
    }
}

pub fn drill(cell: &CellSpec, r: &CellRef) -> CellLayer {
    let mut l = CellLayer::default();
    let ops = gen_ops(cell, &mut l);
    warm(cell, &ops, &mut l);
    let (log, end, demand) = record(cell);
    let faithful = end == r.counts.end_cycle && demand == r.counts.hier.demand_misses;
    l.check(faithful, "recorded request stream does not reproduce the run", cell);
    replay(cell.mem, &log, &mut l);
    observers(cell, r, &mut l);
    l
}

/// `workloads`: the cell's trace generators, one per core, for the
/// functional warm-up's operation count. Returns the memory operations
/// (core, address, is-store) for the cache driver.
fn gen_ops(cell: &CellSpec, l: &mut CellLayer) -> Vec<(u8, u64, bool)> {
    let cfg = &cell.cfg;
    let mut ops = Vec::with_capacity((cfg.functional_warm_ops * u64::from(cfg.cores)) as usize);
    let t = Instant::now();
    for core in 0..cfg.cores {
        let mut gen = TraceGen::new(cell.profile(), core, cfg.seed);
        let mut done = 0;
        while done < cfg.functional_warm_ops {
            l.gen_calls += 1;
            match gen.next_op() {
                TraceOp::Gap(_) => {}
                TraceOp::Load { addr, .. } => {
                    ops.push((core, addr, false));
                    done += 1;
                }
                TraceOp::Store { addr, .. } => {
                    ops.push((core, addr, true));
                    done += 1;
                }
            }
        }
    }
    l.gen_ns = ns_since(t);
    ops
}

/// `cachesim`: the functional warm path (`Hierarchy::warm_access`) over
/// the cell's warm-up operations.
fn warm(cell: &CellSpec, ops: &[(u8, u64, bool)], l: &mut CellLayer) {
    let cfg = &cell.cfg;
    let mut h = Hierarchy::new(hier_params(cell), cfg.mem.build(cfg.parity_error_rate, cfg.seed));
    let mut wb = 0u64;
    let t = Instant::now();
    for &(core, addr, store) in ops {
        h.warm_access(core, addr, store, &mut |_, _| wb += 1);
    }
    l.warm_ns = ns_since(t);
    l.warm_accesses = ops.len() as u64;
    std::hint::black_box(wb);
}

fn hier_params(cell: &CellSpec) -> HierParams {
    let cfg = &cell.cfg;
    let mut hp = if cfg.prefetch {
        HierParams::paper_default(cfg.cores)
    } else {
        HierParams::no_prefetch(cfg.cores)
    };
    hp.cores = cfg.cores;
    hp
}

/// A pass-through backend that logs every transaction it accepts.
struct Recorder {
    inner: MemBackend,
    log: Vec<(u64, LineRequest)>,
}

impl MainMemory for Recorder {
    fn try_submit(&mut self, req: &LineRequest, now: u64) -> Result<Option<Token>, MemBusy> {
        let r = self.inner.try_submit(req, now);
        if r.is_ok() {
            self.log.push((now, *req));
        }
        r
    }
    fn tick(&mut self, now: u64) {
        self.inner.tick(now);
    }
    fn drain_events(&mut self, now: u64, out: &mut Vec<MemEvent>) {
        self.inner.drain_events(now, out);
    }
    fn stats(&mut self, now: u64) -> MemSystemStats {
        self.inner.stats(now)
    }
    fn next_activity(&self, now: u64) -> Option<u64> {
        self.inner.next_activity(now)
    }
}

/// Record the transaction stream the cell's memory backend sees, by
/// running the machine with the public parts (cores, hierarchy, trace
/// generators, backend) under the cycle-by-cycle loop, whose results the
/// repository proves identical to the event kernel's. Returns the log,
/// the end cycle and the demand reads, which must match the real run.
fn record(cell: &CellSpec) -> (Vec<(u64, LineRequest)>, u64, u64) {
    let cfg = &cell.cfg;
    let profile = cell.profile();
    let backend = cfg.mem.build(cfg.parity_error_rate, cfg.seed);
    let mut hier = Hierarchy::new(hier_params(cell), Recorder { inner: backend, log: Vec::new() });
    let mut gens: Vec<TraceGen> =
        (0..cfg.cores).map(|i| TraceGen::new(profile, i, cfg.seed)).collect();
    let mut cores: Vec<Core> =
        (0..cfg.cores).map(|i| Core::new(i, CoreParams::paper_default())).collect();
    let mut evictions = Vec::new();
    for (core, gen) in gens.iter_mut().enumerate() {
        let mut done = 0;
        while done < cfg.functional_warm_ops {
            let (addr, store) = match gen.next_op() {
                TraceOp::Gap(_) => continue,
                TraceOp::Load { addr, .. } => (addr, false),
                TraceOp::Store { addr, .. } => (addr, true),
            };
            hier.warm_access(core as u8, addr, store, &mut |l, w| evictions.push((l, w)));
            done += 1;
        }
    }
    for (l, w) in evictions {
        hier.memory_mut().inner.seed_adaptive_tag(l, w);
    }
    let p = profile.clone();
    hier.memory_mut()
        .inner
        .set_steady_state_placement(Box::new(move |addr| workloads::steady_state_tag(&p, addr)));
    let mut now = 0u64;
    let mut warm_open = true;
    let mut woken: Vec<Woken> = Vec::new();
    loop {
        let misses = hier.stats().demand_misses;
        if warm_open && (misses >= cfg.warmup_dram_reads || now >= cfg.max_cycles) {
            // The warm-up boundary snapshots statistics; do the same.
            warm_open = false;
            hier.flush_hit_streaks();
            let _ = hier.memory_mut().stats(now);
            continue;
        }
        if !warm_open
            && (misses >= cfg.warmup_dram_reads + cfg.target_dram_reads || now >= cfg.max_cycles)
        {
            break;
        }
        woken.clear();
        hier.tick(now, &mut woken);
        for w in &woken {
            cores[usize::from(w.core)].complete_load(w.load_id, w.at);
        }
        for (core, gen) in cores.iter_mut().zip(gens.iter_mut()) {
            core.tick(now, gen, &mut |op: MemOp| match op.kind {
                MemOpKind::Load => match hier.load(op.core, op.pc, op.addr, now) {
                    AccessOutcome::Hit { complete_at } => IssueResult::Done { complete_at },
                    AccessOutcome::Miss { load_id } => IssueResult::Pending { load_id },
                    AccessOutcome::Blocked => IssueResult::Blocked,
                },
                MemOpKind::Store => match hier.store(op.core, op.pc, op.addr, now) {
                    StoreOutcome::Done => IssueResult::Done { complete_at: now + 1 },
                    StoreOutcome::Blocked => IssueResult::Blocked,
                },
            });
        }
        now += 1;
    }
    let demand = hier.stats().demand_misses;
    let log = std::mem::take(&mut hier.memory_mut().log);
    (log, now, demand)
}

/// The device behind a kind's bulk (line) channels.
fn bulk_device(mem: MemKind) -> DeviceKind {
    match mem {
        MemKind::Ddr3 | MemKind::Rd => DeviceKind::Ddr3,
        MemKind::Rldram3 => DeviceKind::Rldram3,
        MemKind::Lpddr2
        | MemKind::Rl
        | MemKind::Dl
        | MemKind::RlAdaptive
        | MemKind::RlOracle
        | MemKind::RlRandom => DeviceKind::Lpddr2,
        MemKind::Spec(k) => k,
        MemKind::SpecCwf(_, slow) | MemKind::DramCache(_, slow) => slow,
    }
}

/// `memctrl` + `dram`: replay the recorded stream onto bare controllers
/// of the cell's bulk device (four channels, one rank, the device's
/// address mapping), admitting each transaction at its recorded cycle
/// (or as soon as its queue has space) and ticking only at the cycles
/// the controllers' activity bounds name, as `sched_hotpath` does.
fn replay(mem: MemKind, log: &[(u64, LineRequest)], l: &mut CellLayer) {
    const CHANNELS: u32 = 4;
    let kind = bulk_device(mem);
    let dev = DeviceConfig::preset(kind);
    let scheme = match dev.page_policy {
        PagePolicy::Open => MappingScheme::OpenPageRowLocality,
        PagePolicy::Closed => MappingScheme::ClosePageBankInterleave,
    };
    let g = &dev.geometry;
    let mapper = AddressMapper::new(scheme, CHANNELS, 1, g.banks, g.lines_per_row, g.rows);
    let ratio = u64::from(dev.cpu_cycles_per_mem_cycle).max(1);
    let arrivals: Vec<(u64, usize, Loc, bool, bool)> = log
        .iter()
        .map(|(at, req)| {
            let (ch, loc) = mapper.decode(req.line_addr);
            let write = matches!(req.kind, AccessKind::Write { .. });
            (at / ratio, usize::from(ch), loc, write, req.kind == AccessKind::PrefetchRead)
        })
        .collect();
    let chips = if kind == DeviceKind::Rldram3 { 4 } else { 9 };
    let mut ctrls: Vec<Controller> = (0..CHANNELS)
        .map(|i| Controller::new(dev.clone(), 1, chips, &format!("replay-ch{i}")))
        .collect();
    let mut waiting: Vec<VecDeque<usize>> = vec![VecDeque::new(); CHANNELS as usize];
    let last = arrivals.last().map_or(0, |a| a.0);
    let (mut next, mut now, mut ticks, mut tok, mut outstanding) = (0usize, 0u64, 0u64, 0u64, 0u64);
    let t = Instant::now();
    loop {
        while next < arrivals.len() && arrivals[next].0 <= now {
            waiting[arrivals[next].1].push_back(next);
            next += 1;
        }
        for (ch, q) in waiting.iter_mut().enumerate() {
            while let Some(&i) = q.front() {
                let (_, _, loc, write, prefetch) = arrivals[i];
                let admitted = if write {
                    ctrls[ch].enqueue_write(loc, now)
                } else {
                    ctrls[ch].enqueue_read(Token(tok), loc, prefetch, now)
                };
                if !admitted {
                    break;
                }
                if !write {
                    tok += 1;
                    outstanding += 1;
                }
                q.pop_front();
            }
        }
        let mut bound = u64::MAX;
        for c in &mut ctrls {
            c.tick_mem(now, true);
            ticks += 1;
            outstanding -= c.take_completions().len() as u64;
            bound = bound.min(c.next_activity_mem(now).unwrap_or(u64::MAX));
        }
        let drained = next == arrivals.len()
            && waiting.iter().all(VecDeque::is_empty)
            && outstanding == 0
            && ctrls.iter().all(|c| c.write_q_len() == 0);
        if drained || now > last + 100_000_000 {
            l.ops += 1;
            if !drained {
                l.fails += 1;
                eprintln!("check failed: controller replay did not drain");
            }
            break;
        }
        let next_at = arrivals.get(next).map_or(u64::MAX, |a| a.0);
        now = bound.min(next_at).max(now + 1);
    }
    l.replay_ns = ns_since(t);
    l.replay_ticks = ticks;
    l.replay_requests = arrivals.len() as u64;
}

/// `sim`, `verify`, `tracelog`, `ckpt`: one run each with observers off,
/// verify only and trace only (run time only, set-up excluded), then a
/// checkpoint save/load at mid-run.
fn observers(cell: &CellSpec, r: &CellRef, l: &mut CellLayer) {
    let timed_run = |verify: bool, trace: bool| {
        let mut cfg = cell.cfg;
        cfg.verify = verify;
        cfg.trace = trace;
        let t = Instant::now();
        let mut sys = System::new(&cfg, cell.profile());
        let setup = ns_since(t);
        let t = Instant::now();
        let m = sys.run();
        (setup, ns_since(t), m, sys)
    };
    let (setup, off, m, sys) = timed_run(false, false);
    let k = sys.kernel_stats();
    let t = Instant::now();
    let doc = to_json_diag(&m, &k);
    l.report_ns = ns_since(t);
    l.setup_ns = setup;
    l.off_ns = off;
    // Observer-free cells' references are exactly this document.
    let plain = cell.cfg.verify || doc == r.doc;
    l.check(plain, "observers-off run differs from the reference", cell);

    let (_, on, vm, sys) = timed_run(true, false);
    l.verify_ns = on;
    let v = sys.verify_report().expect("verify on");
    l.server_doc =
        if cell.cfg.verify { to_json_verified(&vm, &sys.kernel_stats(), &v) } else { doc };
    l.verify_commands = v.commands_checked;
    l.verify_events = v.events_checked;
    l.check(v.is_clean(), "verify oracle not clean", cell);

    let (_, on, _, sys) = timed_run(false, true);
    l.trace_ns = on;
    let tr = sys.trace_report().expect("trace on");
    l.trace_events = tr.events.len() as u64;
    l.trace_dropped = tr.dropped;
    let t = Instant::now();
    let pf = tr.perfetto_json();
    l.export_ns = ns_since(t);
    l.check(!pf.is_empty(), "empty Perfetto export", cell);

    let mut sys = System::new(&cell.cfg, cell.profile());
    let paused = sys.run_to_cycle(r.counts.end_cycle / 2).is_none();
    let t = Instant::now();
    let blob = sys.save_ckpt();
    l.ckpt_save_ns = ns_since(t);
    drop(sys);
    let ok = match blob {
        Ok(blob) => {
            l.ckpt_bytes = blob.len() as u64;
            let t = Instant::now();
            let back = System::from_ckpt(&blob);
            l.ckpt_load_ns = ns_since(t);
            back.is_ok()
        }
        Err(_) => false,
    };
    l.check(paused && ok, "mid-run checkpoint did not save and load", cell);
}
