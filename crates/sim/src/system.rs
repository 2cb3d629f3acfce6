//! The full-system simulator: cores + hierarchy + memory, one CPU-cycle
//! master clock, with warm-up/measurement windows.

use cache_hier::{AccessOutcome, HierAudit, HierParams, HierStats, Hierarchy, StoreOutcome, Woken};
use cpu_model::{Core, CoreParams, IssueResult, MemOp, MemOpKind, TraceSource};
use cwf_core::CwfStats;
use cwf_tracelog::TraceEvent;
use cwf_verify::{Oracle, VerifyReport};
use mem_ctrl::{MainMemory, MemSystemStats};
use workloads::{BenchmarkProfile, TraceGen};

/// A boxed, sendable trace source (synthetic generator or file replay).
pub type BoxedTrace = Box<dyn TraceSource + Send>;

use crate::config::{Kernel, MemBackend, RunConfig};
use crate::metrics::RunMetrics;
use crate::trace::{TraceReport, Tracer};

/// Execution counters the simulation kernel keeps about itself.
///
/// Deliberately **not** part of [`RunMetrics`]: the two kernels must
/// produce bit-identical metrics, so kernel bookkeeping travels on the
/// side (`report::to_json_diag` appends it as an additive JSON object).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KernelStats {
    /// Which kernel produced this run.
    pub kernel: Kernel,
    /// CPU cycles actually executed (per-cycle step bodies entered).
    pub steps: u64,
    /// Calls into `Hierarchy::tick` (each ticks the memory backend once).
    /// The cycle-driven kernel makes exactly one per step.
    pub mem_tick_calls: u64,
    /// CPU cycles the event-driven kernel jumped over without executing.
    pub cycles_skipped: u64,
    /// Real `Core::tick` calls (the cycle-driven kernel makes exactly
    /// `cores` per step). Core-cycles not ticked are covered by batched
    /// spans, broken down below; the invariant
    /// `core_ticks + stall + wait + cruise + replay == cores x simulated`
    /// holds whenever every core is synced to `now`.
    pub core_ticks: u64,
    /// Core-cycles batched by the O(1) full-ROB head-load stall jump.
    pub core_stall_cycles: u64,
    /// Core-cycles batched by the full-ROB retire-wait jump.
    pub core_wait_cycles: u64,
    /// Core-cycles batched by the steady-state compute cruise jump.
    pub core_cruise_cycles: u64,
    /// Core-cycles replayed one at a time inside spans (regime
    /// transitions; exact tick semantics, trace untouched).
    pub core_replay_cycles: u64,
}

impl KernelStats {
    /// Total simulated cycles (executed + skipped).
    #[must_use]
    pub fn simulated_cycles(&self) -> u64 {
        self.steps + self.cycles_skipped
    }

    /// Memory tick calls the cycle-driven kernel would have made per tick
    /// call this kernel actually made (1.0 for the cycle-driven kernel).
    #[must_use]
    pub fn tick_ratio(&self) -> f64 {
        if self.mem_tick_calls == 0 {
            1.0
        } else {
            self.simulated_cycles() as f64 / self.mem_tick_calls as f64
        }
    }

    /// Total core-cycles covered by batched spans instead of real ticks.
    #[must_use]
    pub fn core_span_cycles(&self) -> u64 {
        self.core_stall_cycles
            + self.core_wait_cycles
            + self.core_cruise_cycles
            + self.core_replay_cycles
    }

    /// Core ticks the cycle-driven kernel would have made per tick this
    /// kernel actually made (1.0 for the cycle-driven kernel).
    #[must_use]
    pub fn core_tick_ratio(&self) -> f64 {
        if self.core_ticks == 0 {
            1.0
        } else {
            (self.core_ticks + self.core_span_cycles()) as f64 / self.core_ticks as f64
        }
    }
}

cwf_ckpt::ckpt_struct!(KernelStats {
    kernel,
    steps,
    mem_tick_calls,
    cycles_skipped,
    core_ticks,
    core_stall_cycles,
    core_wait_cycles,
    core_cruise_cycles,
    core_replay_cycles,
});

/// Statistics snapshot taken at the warm-up → measurement boundary, so
/// the final report can subtract the warm window. Hoisted out of the run
/// loop (rather than living in `run`'s locals) so a checkpoint taken
/// mid-measurement carries it.
#[derive(Debug, Clone)]
struct WarmSnapshot {
    /// Per-core retired-instruction counts at the boundary.
    insts: Vec<u64>,
    /// The boundary cycle.
    cycles: u64,
    /// Hierarchy counters at the boundary.
    hier: HierStats,
    /// Memory-system counters at the boundary.
    mem: MemSystemStats,
    /// CWF counters at the boundary (CWF organizations only).
    cwf: Option<CwfStats>,
}

cwf_ckpt::ckpt_struct!(WarmSnapshot { insts, cycles, hier, mem, cwf });

/// Magic prefix of a checkpoint blob.
const CKPT_MAGIC: &[u8; 8] = b"CWFCKPT1";
/// Format version within the `CWFCKPT1` magic (DESIGN.md §16.1). No
/// reader of an older version is kept.
pub const CKPT_VERSION: u32 = 3;

/// A complete simulated machine for one benchmark run.
pub struct System {
    cfg: RunConfig,
    bench: String,
    cores: Vec<Core>,
    gens: Vec<BoxedTrace>,
    hierarchy: Hierarchy<MemBackend>,
    now: u64,
    woken_buf: Vec<Woken>,
    /// Cached `hierarchy.next_activity` bound: no memory-side state can
    /// change at any cycle strictly below this (`u64::MAX` = idle until
    /// new work arrives). 0 forces a tick on the first step.
    mem_wake: u64,
    /// Per-core lazy-advancement state (event kernel only): core `i` has
    /// executed every cycle strictly below `core_sync[i]`; cycles from
    /// there to the kernel's `now` are covered by `Core::advance` spans
    /// on demand.
    core_sync: Vec<u64>,
    /// Cached `Core::next_wake` bound per core: the core provably needs
    /// no real tick strictly below this (`u64::MAX` = only a memory
    /// completion can wake it). 0 forces a tick on the first cycle.
    core_wake: Vec<u64>,
    kstats: KernelStats,
    /// Statistics snapshot at the warm-up → measurement boundary;
    /// `None` while still warming up.
    warm: Option<WarmSnapshot>,
    /// Cross-layer verify oracle (`cfg.verify`); pure observer.
    oracle: Option<Oracle>,
    /// Cross-layer event tracer (`cfg.trace`); pure observer.
    tracer: Option<Tracer>,
    /// Reusable buffer for trace drains.
    trace_buf: Vec<TraceEvent>,
    /// Fault injection: extra cycles added to every cached `mem_wake`
    /// bound, making the event kernel trust an optimistic quiet period the
    /// backend never promised. Only the verify oracle's seeded-fault tests
    /// set this (via [`System::inject_optimistic_wake`]).
    fault_wake_slack: u64,
    /// Fault injection: extra cycles added to every finite cached
    /// `core_wake` bound, making batched spans overrun into cycles that
    /// needed the instruction trace. Only the verify oracle's seeded-fault
    /// tests set this (via [`System::inject_optimistic_horizon`]).
    fault_horizon_slack: u64,
}

impl System {
    /// Build a system for `profile` under `cfg`.
    #[must_use]
    pub fn new(cfg: &RunConfig, profile: &BenchmarkProfile) -> Self {
        let backend = cfg.mem.build(cfg.parity_error_rate, cfg.seed);
        Self::with_backend(cfg, profile, backend)
    }

    /// Build with an explicit backend (page-placement experiments).
    #[must_use]
    pub fn with_backend(cfg: &RunConfig, profile: &BenchmarkProfile, backend: MemBackend) -> Self {
        let gens: Vec<BoxedTrace> = (0..cfg.cores)
            .map(|i| Box::new(TraceGen::new(profile, i, cfg.seed)) as BoxedTrace)
            .collect();
        let mut sys = Self::with_trace_sources(cfg, profile.name, gens, backend);
        // Adaptive placement: install the converged layout (every line the
        // workload regularly writes has been re-organised long before our
        // scaled-down measurement window — see DESIGN.md §4).
        let p = profile.clone();
        sys.hierarchy.memory_mut().set_steady_state_placement(Box::new(move |addr| {
            workloads::steady_state_tag(&p, addr)
        }));
        sys
    }

    /// Build from arbitrary per-core trace sources (e.g. file replays via
    /// [`workloads::FileTraceSource`]). No adaptive steady state is seeded
    /// — external traces carry no workload model.
    ///
    /// # Panics
    ///
    /// Panics if `sources.len() != cfg.cores`.
    #[must_use]
    pub fn with_trace_sources(
        cfg: &RunConfig,
        name: &str,
        sources: Vec<BoxedTrace>,
        backend: MemBackend,
    ) -> Self {
        assert_eq!(sources.len(), usize::from(cfg.cores), "one trace per core");
        let mut hp = if cfg.prefetch {
            HierParams::paper_default(cfg.cores)
        } else {
            HierParams::no_prefetch(cfg.cores)
        };
        hp.cores = cfg.cores;
        let mut sys = System {
            cores: (0..cfg.cores).map(|i| Core::new(i, CoreParams::paper_default())).collect(),
            gens: sources,
            hierarchy: Hierarchy::new(hp, backend),
            now: 0,
            woken_buf: Vec::new(),
            mem_wake: 0,
            core_sync: vec![0; usize::from(cfg.cores)],
            core_wake: vec![0; usize::from(cfg.cores)],
            kstats: KernelStats {
                kernel: cfg.kernel,
                steps: 0,
                mem_tick_calls: 0,
                cycles_skipped: 0,
                core_ticks: 0,
                core_stall_cycles: 0,
                core_wait_cycles: 0,
                core_cruise_cycles: 0,
                core_replay_cycles: 0,
            },
            cfg: *cfg,
            bench: name.to_owned(),
            warm: None,
            oracle: None,
            tracer: None,
            trace_buf: Vec::new(),
            fault_wake_slack: 0,
            fault_horizon_slack: 0,
        };
        // Both observers read the controllers' act logs, so either one
        // enables backend auditing.
        if cfg.verify || cfg.trace {
            sys.hierarchy.enable_audit();
        }
        if cfg.verify {
            sys.oracle = Some(Oracle::new(sys.hierarchy.memory().audit_channels()));
        }
        if cfg.trace {
            sys.hierarchy.enable_trace();
            for core in &mut sys.cores {
                core.enable_trace();
            }
            sys.tracer = Some(Tracer::new(&sys.hierarchy.memory().audit_channels(), cfg.cores));
        }
        sys.functional_warm(cfg.functional_warm_ops);
        sys
    }

    /// Feed everything observed since the last drain to the enabled
    /// observers: the hierarchy's audit and every layer's trace buffers,
    /// with one pass over the backend's audit records (each controller's
    /// acts in act order) feeding both, in the ring order [`Tracer`]
    /// documents. No-op while both are off.
    fn drain_observers(&mut self) {
        if self.oracle.is_none() && self.tracer.is_none() {
            return;
        }
        let audits = self.hierarchy.take_audit();
        if let Some(oracle) = &mut self.oracle {
            for a in audits {
                match a {
                    HierAudit::Submit { token, at } => oracle.observe_submit(token, at),
                    HierAudit::Event { ev, delivered_at } => {
                        oracle.observe_event(&ev, delivered_at);
                    }
                }
            }
        }
        let mut ev = std::mem::take(&mut self.trace_buf);
        if let Some(tracer) = &mut self.tracer {
            for core in &mut self.cores {
                core.drain_trace(&mut ev);
            }
            self.hierarchy.drain_trace(&mut ev);
            tracer.absorb_events(&mut ev);
        }
        let (oracle, tracer) = (&mut self.oracle, &mut self.tracer);
        self.hierarchy.memory_mut().drain_audit(&mut |rec| {
            if let Some(oracle) = oracle {
                oracle.observe_record(rec);
            }
            if let Some(tracer) = tracer {
                tracer.absorb_record(rec);
            }
        });
        if let Some(tracer) = &mut self.tracer {
            self.hierarchy.memory_mut().drain_trace(&mut ev);
            tracer.end_batch(&mut ev);
        }
        self.trace_buf = ev;
    }

    /// Fault injection for the oracle's seeded-fault tests: report every
    /// memory wake-up `extra_cycles` later than the backend's bound, so the
    /// event kernel skips over real deadlines.
    pub fn inject_optimistic_wake(&mut self, extra_cycles: u64) {
        self.fault_wake_slack = extra_cycles;
    }

    /// Fault injection for the oracle's seeded-fault tests: report every
    /// finite core wake-up `extra_cycles` later than the core's own bound,
    /// so batched front-end spans run into cycles that needed the
    /// instruction trace (the span-audit must flag the overrun).
    pub fn inject_optimistic_horizon(&mut self, extra_cycles: u64) {
        self.fault_horizon_slack = extra_cycles;
    }

    /// The oracle's findings so far (complete after [`System::run`], which
    /// finalizes end-of-run obligations). `None` when `cfg.verify` is off.
    #[must_use]
    pub fn verify_report(&self) -> Option<VerifyReport> {
        self.oracle.as_ref().map(Oracle::report)
    }

    /// Snapshot the collected trace (complete after [`System::run`], which
    /// drains every layer's tail). `None` when `cfg.trace` is off.
    #[must_use]
    pub fn trace_report(&self) -> Option<TraceReport> {
        self.tracer.as_ref().map(Tracer::report)
    }

    /// Timing-free cache warming: advance every core's trace by
    /// `ops_per_core` memory operations through the functional cache model,
    /// replaying dirty evictions into the backend's adaptive placement
    /// state. This is the scaled-down analogue of the paper's fast-forward
    /// plus 5 M-cycle warm-up (§5); the timed run then continues from the
    /// warmed generators, so the L2 content matches the instruction stream
    /// about to execute.
    fn functional_warm(&mut self, ops_per_core: u64) {
        use cpu_model::TraceOp;
        let mut evictions: Vec<(u64, u8)> = Vec::new();
        for (core, gen) in self.gens.iter_mut().enumerate() {
            let mut done = 0;
            while done < ops_per_core {
                match gen.next_op() {
                    TraceOp::Gap(_) => {}
                    TraceOp::Load { addr, .. } => {
                        self.hierarchy.warm_access(core as u8, addr, false, &mut |l, w| {
                            evictions.push((l, w));
                        });
                        done += 1;
                    }
                    TraceOp::Store { addr, .. } => {
                        self.hierarchy.warm_access(core as u8, addr, true, &mut |l, w| {
                            evictions.push((l, w));
                        });
                        done += 1;
                    }
                }
                if evictions.len() >= 1024 {
                    for (l, w) in evictions.drain(..) {
                        self.hierarchy.memory_mut().seed_adaptive_tag(l, w);
                    }
                }
            }
        }
        for (l, w) in evictions.drain(..) {
            self.hierarchy.memory_mut().seed_adaptive_tag(l, w);
        }
    }

    /// True when any pure observer (oracle, tracer) is collecting.
    fn observers_on(&self) -> bool {
        self.oracle.is_some() || self.tracer.is_some()
    }

    /// Current CPU cycle.
    #[must_use]
    pub fn now(&self) -> u64 {
        self.now
    }

    /// The hierarchy (statistics access).
    #[must_use]
    pub fn hierarchy(&self) -> &Hierarchy<MemBackend> {
        &self.hierarchy
    }

    /// Kernel execution counters (steps, memory ticks, skipped cycles).
    #[must_use]
    pub fn kernel_stats(&self) -> KernelStats {
        self.kstats
    }

    /// Advance one CPU cycle (cycle-driven semantics: the memory side is
    /// ticked unconditionally).
    pub fn step(&mut self) {
        self.step_cycle();
    }

    /// One cycle of work, cycle-driven: every component ticks.
    fn step_cycle(&mut self) {
        let now = self.now;
        self.woken_buf.clear();
        self.hierarchy.tick(now, &mut self.woken_buf);
        self.kstats.mem_tick_calls += 1;
        for w in &self.woken_buf {
            self.cores[usize::from(w.core)].complete_load(w.load_id, w.at);
        }
        let hier = &mut self.hierarchy;
        for (core, gen) in self.cores.iter_mut().zip(self.gens.iter_mut()) {
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
        self.kstats.core_ticks += self.cores.len() as u64;
        self.kstats.steps += 1;
        self.now += 1;
    }

    /// Batch-execute core `i` over `[core_sync[i], to)` via
    /// [`Core::advance`], folding the span's cycle classes into the kernel
    /// counters and (when verifying) auditing the span's soundness.
    fn advance_core_to(&mut self, i: usize, to: u64) {
        let from = self.core_sync[i];
        if from >= to {
            return;
        }
        let out = self.cores[i].advance(from, to);
        self.kstats.core_stall_cycles += out.stall_cycles;
        self.kstats.core_wait_cycles += out.wait_cycles;
        self.kstats.core_cruise_cycles += out.cruise_cycles;
        self.kstats.core_replay_cycles += out.replayed_cycles;
        if let Some(oracle) = &mut self.oracle {
            oracle.note_span(i as u8, from, to, out.overrun_at);
        }
        self.core_sync[i] = to;
    }

    /// Bring every core's executed prefix up to `now` (measurement
    /// boundaries read per-core state such as [`Core::retired`], which is
    /// only exact once lazily-advanced spans are materialised).
    fn sync_all(&mut self) {
        let to = self.now;
        for i in 0..self.cores.len() {
            self.advance_core_to(i, to);
        }
    }

    /// Event-driven fast-forward: jump `now` to the earliest cycle any
    /// component can act — the memory side's cached `mem_wake` or any
    /// core's cached wake bound. A no-op whenever some component may act
    /// this cycle, so the execution that follows is untouched and
    /// statistics stay bit-identical to the cycle-driven kernel.
    fn jump_to_next_event(&mut self) {
        let now = self.now;
        let mut target = self.mem_wake;
        for &w in &self.core_wake {
            target = target.min(w);
        }
        let target = target.min(self.cfg.max_cycles);
        if target <= now {
            return;
        }
        self.kstats.cycles_skipped += target - now;
        if let Some(oracle) = &mut self.oracle {
            oracle.note_skip(now, target);
        }
        self.now = target;
    }

    /// One cycle of work, event-driven: the memory tick is elided while
    /// `now` is strictly below the cached `mem_wake` bound, and each core
    /// tick is elided while `now` is strictly below that core's cached
    /// wake bound — by construction those ticks are observable no-ops.
    /// Cores that do tick are first batch-advanced over the elided span
    /// (cores run mutually independent cycles between memory completions,
    /// so per-core lazy advancement composes: a woken or due core only
    /// needs *its own* past materialised, never a sibling's).
    fn step_event(&mut self) {
        let now = self.now;
        let mut ticked = false;
        if now >= self.mem_wake {
            self.woken_buf.clear();
            self.hierarchy.tick(now, &mut self.woken_buf);
            self.kstats.mem_tick_calls += 1;
            ticked = true;
            let woken = std::mem::take(&mut self.woken_buf);
            for w in &woken {
                let i = usize::from(w.core);
                // Materialise the core's past before mutating its ROB,
                // then force a real tick this cycle: the per-cycle kernel
                // delivers completions before ticking, so the woken core
                // retires/fetches at `now` exactly as it would there.
                self.advance_core_to(i, now);
                self.cores[i].complete_load(w.load_id, w.at);
                self.core_wake[i] = now;
            }
            self.woken_buf = woken;
        }
        let mut issued = false;
        for i in 0..self.cores.len() {
            if self.core_wake[i] > now {
                continue;
            }
            self.advance_core_to(i, now);
            let hier = &mut self.hierarchy;
            let core = &mut self.cores[i];
            let gen = &mut self.gens[i];
            core.tick(now, gen, &mut |op: MemOp| {
                issued = true;
                match op.kind {
                    MemOpKind::Load => match hier.load(op.core, op.pc, op.addr, now) {
                        AccessOutcome::Hit { complete_at } => IssueResult::Done { complete_at },
                        AccessOutcome::Miss { load_id } => IssueResult::Pending { load_id },
                        AccessOutcome::Blocked => IssueResult::Blocked,
                    },
                    MemOpKind::Store => match hier.store(op.core, op.pc, op.addr, now) {
                        StoreOutcome::Done => IssueResult::Done { complete_at: now + 1 },
                        StoreOutcome::Blocked => IssueResult::Blocked,
                    },
                }
            });
            self.kstats.core_ticks += 1;
            self.core_sync[i] = now + 1;
            // While tracing, cores must be ticked every cycle (spans
            // cannot emit trace events), so pin the wake to the next
            // cycle instead of consulting the activity bound.
            let wake = if self.cfg.trace { now + 1 } else { self.cores[i].next_wake(now + 1) };
            // The horizon fault only perturbs finite bounds: MAX means
            // "woken by memory alone", which the slack must not break.
            self.core_wake[i] = if wake == u64::MAX {
                u64::MAX
            } else {
                wake.saturating_add(self.fault_horizon_slack)
            };
        }
        // One recompute per step, after both the memory tick and the core
        // issue loop, so it sees the post-submit state. Only a memory tick
        // or a load/store that reached the backend (submit or blocked
        // submit attempt) can invalidate the cached bound; pure cache hits
        // leave the backend untouched and keep the cached value.
        let touched = issued && self.hierarchy.take_backend_touched();
        if ticked || touched {
            self.mem_wake = self
                .hierarchy
                .next_activity(now)
                .unwrap_or(u64::MAX)
                .saturating_add(self.fault_wake_slack);
        }
        self.kstats.steps += 1;
        self.now += 1;
    }

    /// True while the current window (warm-up or measurement) still has
    /// demand reads to issue and the cycle cap has not been hit.
    fn window_open(&self, reads: u64) -> bool {
        self.hierarchy.stats().demand_misses < reads && self.now < self.cfg.max_cycles
    }

    /// Close the warm-up window: materialise lazily-advanced core spans
    /// (event kernel), then snapshot every counter the final report will
    /// subtract.
    fn take_warm_snapshot(&mut self) {
        if self.cfg.kernel == Kernel::Event {
            // Measurement boundaries read per-core state; materialise
            // every lazily-advanced span up to the boundary cycle.
            self.sync_all();
        }
        let insts: Vec<u64> = self.cores.iter().map(Core::retired).collect();
        let cycles = self.now;
        // Close the open L1 hit streak so the snapshot's span counters
        // cover exactly the warm window and subtract cleanly at the end.
        self.hierarchy.flush_hit_streaks();
        let hier = *self.hierarchy.stats();
        let mem = self.hierarchy.memory_mut().stats(cycles);
        let cwf = self.hierarchy.memory().cwf_stats();
        self.warm = Some(WarmSnapshot { insts, cycles, hier, mem, cwf });
    }

    /// Close the measurement window and produce the report.
    fn finish(&mut self) -> RunMetrics {
        if self.cfg.kernel == Kernel::Event {
            self.sync_all();
        }
        let warm = self.warm.as_ref().expect("measurement follows the warm snapshot");
        let cycles = self.now - warm.cycles;
        let insts_per_core: Vec<u64> =
            self.cores.iter().zip(&warm.insts).map(|(c, w)| c.retired() - w).collect();
        self.hierarchy.flush_hit_streaks();
        let mut hier = *self.hierarchy.stats();
        hier.sub(&warm.hier);
        let mut mem_stats = self.hierarchy.memory_mut().stats(self.now);
        mem_stats.sub(&warm.mem);
        let warm_cwf = warm.cwf;
        let cwf = self.hierarchy.memory().cwf_stats().map(|mut c| {
            if let Some(w) = &warm_cwf {
                c.sub(w);
            }
            c
        });
        // Drain the observers' tails, then close the oracle's books:
        // the inclusive directory sweep and end-of-run refresh/fill
        // obligations.
        self.drain_observers();
        if self.oracle.is_some() {
            let inclusion = self.hierarchy.check_inclusion();
            let end = self.now;
            if let Some(oracle) = &mut self.oracle {
                oracle.note_inclusion_violations(end, &inclusion);
                oracle.finalize(end);
            }
        }
        RunMetrics {
            bench: self.bench.clone(),
            mem: self.cfg.mem,
            cycles,
            insts_per_core,
            dram_reads: hier.demand_misses,
            dram_writes: mem_stats.total_writes(),
            hier,
            mem_stats,
            cwf,
        }
    }

    /// Execute the configured warm-up + measurement windows and report.
    pub fn run(&mut self) -> RunMetrics {
        self.run_to_cycle(u64::MAX).expect("an unbounded run always completes")
    }

    /// Run until the measurement window closes, or pause at the first
    /// window-boundary cycle `>= stop_at` (returning `None`). A paused
    /// system sits between steps — [`System::save_ckpt`] captures it, and
    /// calling `run_to_cycle` again continues exactly where it stopped.
    ///
    /// This is the only run loop: the warm-up → measurement transition is
    /// a state (`warm`) rather than two nested loops, so a run can be cut
    /// at *any* cycle and later resumed with bit-identical results.
    pub fn run_to_cycle(&mut self, stop_at: u64) -> Option<RunMetrics> {
        loop {
            if self.warm.is_none() {
                if !self.window_open(self.cfg.warmup_dram_reads) {
                    self.take_warm_snapshot();
                    continue;
                }
            } else if !self.window_open(self.cfg.warmup_dram_reads + self.cfg.target_dram_reads) {
                return Some(self.finish());
            }
            if self.now >= stop_at {
                return None;
            }
            match self.cfg.kernel {
                Kernel::Cycle => self.step_cycle(),
                Kernel::Event => {
                    // The jump happens before the step, never after the
                    // step that satisfied the exit condition: both kernels
                    // must leave `now` at exactly `t_satisfy + 1`.
                    self.jump_to_next_event();
                    if self.now >= self.cfg.max_cycles {
                        continue;
                    }
                    self.step_event();
                }
            }
            // Bound the observer buffers on long runs.
            if self.observers_on() && self.kstats.steps & 0xFFFF == 0 {
                self.drain_observers();
            }
        }
    }
}

impl System {
    /// Serialize the complete mutable simulator state as a checkpoint
    /// format v3 blob (see DESIGN.md §16). The stream records only
    /// state, never configuration: [`System::from_ckpt`] rebuilds the
    /// machine from the embedded [`RunConfig`] and benchmark name, then
    /// overwrites every mutable field, so the resumed run is bit-identical
    /// to an uninterrupted one.
    ///
    /// Observability survives the split: the observers are drained first
    /// (so no layer holds undrained trace events), the oracle's state is
    /// embedded, and — when `cfg.trace` is on — the tracer's ring rides
    /// along in a `TRCR` section, keyed off the `trace` flag already in
    /// the serialized [`RunConfig`]. The blob ends with the checksum of
    /// every byte before it.
    ///
    /// # Errors
    ///
    /// Fails when any component refuses to serialize.
    pub fn save_ckpt(&mut self) -> cwf_ckpt::Result<Vec<u8>> {
        use cwf_ckpt::Ckpt;
        self.drain_observers();
        let mut w = cwf_ckpt::Writer::new();
        w.put_bytes(CKPT_MAGIC);
        w.put_u32(CKPT_VERSION);
        self.cfg.save(&mut w);
        self.bench.save(&mut w);
        w.section(b"SYST");
        self.now.save(&mut w);
        self.mem_wake.save(&mut w);
        self.core_sync.save(&mut w);
        self.core_wake.save(&mut w);
        self.kstats.save(&mut w);
        self.warm.save(&mut w);
        self.fault_wake_slack.save(&mut w);
        self.fault_horizon_slack.save(&mut w);
        w.put_u64(self.cores.len() as u64);
        for core in &self.cores {
            core.save_ckpt(&mut w)?;
        }
        for gen in &self.gens {
            gen.save_ckpt(&mut w)?;
        }
        self.hierarchy.save_state(&mut w)?;
        w.section(b"HMEM");
        self.hierarchy.memory().save_state(&mut w)?;
        match &self.oracle {
            Some(oracle) => {
                w.put_u8(1);
                oracle.save_state(&mut w);
            }
            None => w.put_u8(0),
        }
        if let Some(tracer) = &self.tracer {
            w.section(b"TRCR");
            tracer.save_state(&mut w);
        }
        Ok(w.into_sealed())
    }

    /// Rebuild a paused system from a [`System::save_ckpt`] blob. The run
    /// configuration and benchmark come from the blob itself; the machine
    /// is constructed fresh (`functional_warm_ops = 0` — the checkpoint
    /// already contains the warmed state) and every mutable field is then
    /// overwritten. Continue with [`System::run_to_cycle`] or
    /// [`System::run`].
    ///
    /// # Errors
    ///
    /// Fails on a bad magic/version, a checksum mismatch, an out-of-range
    /// run config, an unknown benchmark or memory kind, a geometry
    /// mismatch, or a malformed stream.
    pub fn from_ckpt(bytes: &[u8]) -> cwf_ckpt::Result<System> {
        use cwf_ckpt::Ckpt;
        let mut r = cwf_ckpt::Reader::new(bytes);
        let magic = r.get_bytes(CKPT_MAGIC.len())?;
        if magic != CKPT_MAGIC {
            return Err(cwf_ckpt::CkptError::new("not a cwfmem checkpoint (bad magic)"));
        }
        let version = r.get_u32()?;
        if version != CKPT_VERSION {
            return Err(cwf_ckpt::CkptError::new(format!(
                "unsupported checkpoint version {version} (expected {CKPT_VERSION})"
            )));
        }
        r.unseal()?;
        let cfg = RunConfig::load(&mut r)?;
        cfg.validate().map_err(|e| cwf_ckpt::CkptError::new(format!("invalid run config: {e}")))?;
        let bench = String::load(&mut r)?;
        let profile = workloads::by_name(&bench).ok_or_else(|| {
            cwf_ckpt::CkptError::new(format!("checkpoint names unknown benchmark '{bench}'"))
        })?;
        let mut build_cfg = cfg;
        build_cfg.functional_warm_ops = 0;
        let mut sys = System::new(&build_cfg, profile);
        sys.cfg = cfg;
        sys.load_ckpt_body(&mut r)?;
        r.finish()?;
        Ok(sys)
    }

    /// Restore everything after the header into this freshly built system.
    fn load_ckpt_body(&mut self, r: &mut cwf_ckpt::Reader<'_>) -> cwf_ckpt::Result<()> {
        use cwf_ckpt::Ckpt;
        r.expect_section(b"SYST")?;
        self.now = u64::load(r)?;
        self.mem_wake = u64::load(r)?;
        let core_sync: Vec<u64> = Ckpt::load(r)?;
        let core_wake: Vec<u64> = Ckpt::load(r)?;
        if core_sync.len() != self.cores.len() || core_wake.len() != self.cores.len() {
            return Err(cwf_ckpt::CkptError::new("core count mismatch"));
        }
        self.core_sync = core_sync;
        self.core_wake = core_wake;
        self.kstats = KernelStats::load(r)?;
        if self.kstats.kernel != self.cfg.kernel {
            return Err(cwf_ckpt::CkptError::new("kernel stats disagree with run config"));
        }
        self.warm = Option::<WarmSnapshot>::load(r)?;
        self.fault_wake_slack = u64::load(r)?;
        self.fault_horizon_slack = u64::load(r)?;
        let n_cores = r.get_u64()?;
        if n_cores != self.cores.len() as u64 {
            return Err(cwf_ckpt::CkptError::new("core count mismatch"));
        }
        for core in &mut self.cores {
            core.load_ckpt(r)?;
        }
        for gen in &mut self.gens {
            gen.load_ckpt(r)?;
        }
        self.hierarchy.load_state(r)?;
        r.expect_section(b"HMEM")?;
        self.hierarchy.memory_mut().load_state(r)?;
        match r.get_u8()? {
            1 => match &mut self.oracle {
                Some(oracle) => oracle.load_state(r)?,
                None => {
                    return Err(cwf_ckpt::CkptError::new(
                        "checkpoint has oracle state but verify is off",
                    ))
                }
            },
            0 => {
                if self.oracle.is_some() {
                    return Err(cwf_ckpt::CkptError::new(
                        "verify is on but the checkpoint has no oracle state",
                    ));
                }
            }
            v => return Err(cwf_ckpt::CkptError::new(format!("invalid oracle tag {v}"))),
        }
        // The tracer section exists exactly when the run was traced
        // (`cfg.trace` travelled in the header, which also built
        // `self.tracer`).
        if let Some(tracer) = &mut self.tracer {
            r.expect_section(b"TRCR")?;
            tracer.load_state(r)?;
        }
        self.woken_buf.clear();
        self.trace_buf.clear();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MemKind;
    use workloads::by_name;

    #[test]
    fn system_makes_forward_progress() {
        let cfg = RunConfig::quick(MemKind::Ddr3, 500);
        let mut sys = System::new(&cfg, by_name("libquantum").unwrap());
        let m = sys.run();
        assert!(m.dram_reads >= 500);
        assert!(m.ipc_total() > 0.0);
        assert!(m.cycles > 0);
    }

    #[test]
    fn cwf_backend_reports_cwf_stats() {
        let cfg = RunConfig::quick(MemKind::Rl, 400);
        let m = System::new(&cfg, by_name("stream").unwrap()).run();
        let cwf = m.cwf.expect("RL is a CWF organization");
        assert!(cwf.demand_reads > 0);
        assert!(cwf.served_fast_fraction() > 0.5, "stream is word-0 dominated");
        let base =
            System::new(&RunConfig::quick(MemKind::Ddr3, 400), by_name("stream").unwrap()).run();
        assert!(base.cwf.is_none());
    }

    #[test]
    fn determinism_end_to_end() {
        let cfg = RunConfig::quick(MemKind::Rl, 300);
        let p = by_name("mcf").unwrap();
        let a = System::new(&cfg, p).run();
        let b = System::new(&cfg, p).run();
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.insts_per_core, b.insts_per_core);
        assert_eq!(a.dram_reads, b.dram_reads);
    }

    #[test]
    fn event_kernel_matches_cycle_kernel() {
        let p = by_name("stream").unwrap();
        let mut cy = RunConfig::quick(MemKind::Lpddr2, 300);
        cy.kernel = Kernel::Cycle;
        let mut ev = cy;
        ev.kernel = Kernel::Event;
        let mut sys_c = System::new(&cy, p);
        let mc = sys_c.run();
        let kc = sys_c.kernel_stats();
        let mut sys_e = System::new(&ev, p);
        let me = sys_e.run();
        let ke = sys_e.kernel_stats();
        assert_eq!(mc.cycles, me.cycles);
        assert_eq!(mc.insts_per_core, me.insts_per_core);
        assert_eq!(mc.dram_reads, me.dram_reads);
        assert_eq!(mc.hier.blocked_mshr, me.hier.blocked_mshr);
        // Cycle kernel ticks memory every step; event kernel strictly less.
        assert_eq!(kc.mem_tick_calls, kc.steps);
        assert_eq!(kc.simulated_cycles(), ke.simulated_cycles());
        assert!(ke.mem_tick_calls < kc.mem_tick_calls);
        assert!(ke.tick_ratio() > 1.0, "ratio {}", ke.tick_ratio());
        // Cycle kernel ticks every core every step; event kernel covers
        // the same core-cycles with strictly fewer real ticks, the rest
        // batched into spans. After the end-of-window sync, ticks + span
        // cycles account for every core-cycle exactly.
        assert_eq!(kc.core_ticks, kc.steps * u64::from(cy.cores));
        assert_eq!(kc.core_span_cycles(), 0);
        assert_eq!(
            ke.core_ticks + ke.core_span_cycles(),
            ke.simulated_cycles() * u64::from(ev.cores)
        );
        assert!(ke.core_ticks < kc.core_ticks);
        assert!(ke.core_tick_ratio() > 1.0, "core ratio {}", ke.core_tick_ratio());
    }

    #[test]
    fn checkpoint_roundtrip_resumes_bit_identical() {
        // The tentpole contract: split a verified run at an arbitrary
        // cycle, serialize, restore into a fresh process-equivalent
        // system, and the finished report is byte-identical to the
        // uninterrupted run — on both kernels.
        for kernel in [Kernel::Cycle, Kernel::Event] {
            let mut cfg = RunConfig::quick(MemKind::Rl, 250);
            cfg.kernel = kernel;
            cfg.verify = true;
            cfg.trace = false;
            let p = by_name("mcf").unwrap();
            let mut whole = System::new(&cfg, p);
            let m_whole = whole.run();
            let j_whole = crate::report::to_json_verified(
                &m_whole,
                &whole.kernel_stats(),
                &whole.verify_report().unwrap(),
            );

            let split = whole.now() / 2;
            let mut first = System::new(&cfg, p);
            assert!(first.run_to_cycle(split).is_none(), "split {split} is inside the run");
            let blob = first.save_ckpt().expect("checkpoint serializes");
            let mut resumed = System::from_ckpt(&blob).expect("checkpoint restores");
            let m_res = resumed.run();
            let j_res = crate::report::to_json_verified(
                &m_res,
                &resumed.kernel_stats(),
                &resumed.verify_report().unwrap(),
            );
            assert_eq!(j_whole, j_res, "kernel {kernel:?}");
        }
    }

    #[test]
    fn checkpoint_carries_the_trace_ring() {
        let mut cfg = RunConfig::quick(MemKind::Ddr3, 100);
        cfg.trace = true;
        let mut sys = System::new(&cfg, by_name("stream").unwrap());
        let _ = sys.run_to_cycle(2_000);
        // save_ckpt drains the observers first, so the ring at save time
        // holds everything the layers had buffered — and the restored
        // ring must hold exactly that.
        let blob = sys.save_ckpt().expect("traced runs checkpoint");
        let at_save = sys.trace_report().expect("tracer on").events;
        assert!(!at_save.is_empty(), "a live run collects trace events");
        let resumed = System::from_ckpt(&blob).expect("traced checkpoint restores");
        let restored = resumed.trace_report().expect("tracer restored");
        assert_eq!(restored.events, at_save);
        assert_eq!(restored.dropped, 0);
    }

    #[test]
    fn checkpoint_rejects_corruption() {
        let cfg = RunConfig::quick(MemKind::Ddr3, 100);
        let mut sys = System::new(&cfg, by_name("stream").unwrap());
        let _ = sys.run_to_cycle(50);
        let blob = sys.save_ckpt().unwrap();
        // Bad magic.
        let mut bad = blob.clone();
        bad[0] ^= 0xFF;
        assert!(System::from_ckpt(&bad).is_err());
        // Truncation.
        assert!(System::from_ckpt(&blob[..blob.len() - 1]).is_err());
        // Trailing garbage.
        let mut long = blob;
        long.push(0);
        assert!(System::from_ckpt(&long).is_err());
    }

    #[test]
    fn warmup_window_is_excluded() {
        let p = by_name("libquantum").unwrap();
        let mut with_warm = RunConfig::quick(MemKind::Ddr3, 400);
        with_warm.warmup_dram_reads = 200;
        let m = System::new(&with_warm, p).run();
        // Measured reads ≈ target, not target + warmup.
        assert!(m.dram_reads >= 400 && m.dram_reads < 500, "reads {}", m.dram_reads);
    }
}
