//! Repetitions of the simulation workloads (`mem_bound`,
//! `compute_bound`, `observed`) and their output checks.

use std::time::Instant;

use sim_harness::report::{to_json_diag, to_json_traced};
use sim_harness::{KernelStats, RunMetrics, System};

use crate::cells::{pinned, CellSpec, Kind, Workload};
use crate::spans::Spans;
use crate::util::{fnv64, ns_since};

/// What one repetition of one cell measured.
pub struct Rep {
    /// Set-up time (`System::new`), ns.
    pub setup_ns: u64,
    /// Host time of the measured region, ns.
    pub host_ns: u64,
    /// The measured region split into fixed units of work (simulated
    /// cycle ranges, then each render or checkpoint call), ns each.
    pub segs: Vec<u64>,
    /// Root span of the repetition (traced repetitions only).
    pub root: Option<usize>,
    /// Operations the repetition checked, and how many failed.
    pub ops: u64,
    pub fails: u64,
}

/// Deterministic counters of one cell's run, read from the public stats
/// structs after a repetition (`RunMetrics` covers the measured window;
/// kernel, hierarchy and DRAM-cache counters cover the whole run).
#[derive(Clone, Debug)]
pub struct Counts {
    pub kernel: KernelStats,
    /// Whole-run hierarchy counters; `demand_misses` counts every demand
    /// DRAM read the run simulated (warm-up included).
    pub hier: cache_hier::HierStats,
    pub metrics: RunMetrics,
    pub dramcache: Option<cwf_core::DramCacheStats>,
    /// The cycle the run ended on.
    pub end_cycle: u64,
}

impl Counts {
    pub fn of(m: &RunMetrics, sys: &System) -> Counts {
        let hier = *sys.hierarchy().stats();
        Counts {
            kernel: sys.kernel_stats(),
            hier,
            metrics: m.clone(),
            dramcache: sys.hierarchy().memory().dramcache_stats(),
            end_cycle: sys.now(),
        }
    }

    pub fn cycles(&self) -> u64 {
        self.kernel.simulated_cycles()
    }
}

/// Per-cell reference established in set-up.
pub struct CellRef {
    /// Digest of the document every repetition must reproduce.
    pub digest: u64,
    /// The rendered document (`observed`: the unsplit run's).
    pub doc: String,
    /// Perfetto export digest (`observed` only).
    pub perfetto: u64,
    /// Checkpoint split cycle (`observed` only).
    pub split: u64,
    pub counts: Counts,
}

/// Establish each cell's reference. A pinned digest wins; on an unpinned
/// seed the reference is a verify-on run, which must be clean (the
/// oracle observes and never steers, so its metrics are the plain run's).
/// Returns the references and the number of failed checks.
pub fn references(w: &Workload, seed: u64) -> (Vec<CellRef>, u64) {
    let mut failed = 0;
    let mut out = Vec::new();
    for cell in &w.cells {
        let label = cell.label();
        let mut vcfg = cell.cfg;
        vcfg.verify = true;
        let mut sys = System::new(&vcfg, cell.profile());
        let m = sys.run();
        let k = sys.kernel_stats();
        let v = sys.verify_report().expect("verify on");
        let counts = Counts::of(&m, &sys);
        let (doc, perfetto, split) = match w.kind {
            Kind::Observed => {
                let t = sys.trace_report().expect("observed cells trace");
                let doc = to_json_traced(&m, &k, Some(&v), &t);
                (doc, fnv64(t.perfetto_json().as_bytes()), sys.now() / 2)
            }
            _ => (to_json_diag(&m, &k), 0, 0),
        };
        let digest = fnv64(doc.as_bytes());
        if !v.is_clean() {
            eprintln!(
                "check failed: {label}: verify oracle reported {} violations",
                v.total_violations
            );
            failed += 1;
        }
        if let Some(pin) = pinned(w.name, seed, &label) {
            if pin != digest {
                eprintln!("check failed: {label}: digest {digest:#018x} != pinned {pin:#018x}");
                failed += 1;
            }
        }
        out.push(CellRef { digest, doc, perfetto, split, counts });
    }
    (out, failed)
}

/// One repetition of a `Sim` cell: set up, run, render, check.
pub fn rep_sim(cell: &CellSpec, ci: usize, r: &CellRef, sp: &mut Spans) -> Rep {
    let t0 = Instant::now();
    let mut sys = sp.time("sim.setup", ci, || System::new(&cell.cfg, cell.profile()));
    let setup_ns = ns_since(t0);
    let t1 = Instant::now();
    let root = sp.begin("rep", ci);
    let mut segs = Vec::with_capacity(SEGMENTS as usize + 1);
    let m = run_segments(&mut sys, 0, r.counts.end_cycle, ci, sp, &mut segs);
    let k = sys.kernel_stats();
    let doc = seg(&mut segs, || sp.time("sim.report", ci, || to_json_diag(&m, &k)));
    sp.end();
    let host_ns = ns_since(t1);
    let ok = fnv64(doc.as_bytes()) == r.digest;
    if !ok {
        eprintln!("check failed: {}: repetition document differs from the reference", cell.label());
    }
    Rep { setup_ns, host_ns, segs, root, ops: 1, fails: u64::from(!ok) }
}

/// Simulated-cycle segments per run. Each segment is timed on its own,
/// so a cell's host time is the sum over segments of each segment's
/// fastest repetition: one quiet stretch of the host per segment is
/// enough, instead of one quiet stretch as long as the whole run.
pub const SEGMENTS: u64 = 64;

/// Time `f` as one segment.
fn seg<R>(segs: &mut Vec<u64>, f: impl FnOnce() -> R) -> R {
    let t = Instant::now();
    let r = f();
    segs.push(ns_since(t));
    r
}

/// Run `sys` from cycle `from` towards `to` in [`SEGMENTS`] equal cycle
/// ranges (the last one runs to completion when `to` is the end cycle).
/// Returns the metrics when the run finished.
fn run_segments(
    sys: &mut System,
    from: u64,
    to: u64,
    ci: usize,
    sp: &mut Spans,
    segs: &mut Vec<u64>,
) -> RunMetrics {
    for i in 1..=SEGMENTS {
        let stop = if i == SEGMENTS { u64::MAX } else { from + (to - from) * i / SEGMENTS };
        if let Some(m) = seg(segs, || sp.time("sim.run", ci, || sys.run_to_cycle(stop))) {
            return m;
        }
    }
    unreachable!("the last segment runs to completion")
}

/// Like [`run_segments`] but pauses at `to` (the checkpoint split).
fn run_segments_to(
    sys: &mut System,
    to: u64,
    ci: usize,
    sp: &mut Spans,
    segs: &mut Vec<u64>,
) -> bool {
    for i in 1..=SEGMENTS {
        let stop = to * i / SEGMENTS;
        if seg(segs, || sp.time("sim.run_to_split", ci, || sys.run_to_cycle(stop))).is_some() {
            return false;
        }
    }
    true
}

/// One repetition of an `observed` cell: run to the split cycle, save a
/// checkpoint, restore it, finish, and render run.v1 plus Perfetto. The
/// document must equal the unsplit run's and the oracle must be clean.
pub fn rep_observed(cell: &CellSpec, ci: usize, r: &CellRef, sp: &mut Spans) -> Rep {
    let t0 = Instant::now();
    let mut first = sp.time("sim.setup", ci, || System::new(&cell.cfg, cell.profile()));
    let setup_ns = ns_since(t0);
    let t1 = Instant::now();
    let root = sp.begin("rep", ci);
    let mut segs = Vec::with_capacity(2 * SEGMENTS as usize + 7);
    let paused = run_segments_to(&mut first, r.split, ci, sp, &mut segs);
    let blob = seg(&mut segs, || sp.time("ckpt.save", ci, || first.save_ckpt()));
    let resumed = blob
        .as_ref()
        .ok()
        .and_then(|b| seg(&mut segs, || sp.time("ckpt.load", ci, || System::from_ckpt(b))).ok());
    let out = resumed.map(|mut sys| {
        let m = run_segments(&mut sys, r.split, r.counts.end_cycle, ci, sp, &mut segs);
        let k = sys.kernel_stats();
        let v = seg(&mut segs, || sp.time("verify.report", ci, || sys.verify_report()));
        let t = seg(&mut segs, || sp.time("tracelog.report", ci, || sys.trace_report()));
        let rendered = match (&v, &t) {
            (Some(v), Some(t)) => {
                let doc = seg(&mut segs, || {
                    sp.time("sim.report", ci, || to_json_traced(&m, &k, Some(v), t))
                });
                let pf = seg(&mut segs, || sp.time("tracelog.export", ci, || t.perfetto_json()));
                Some((doc, pf, v.is_clean()))
            }
            _ => None,
        };
        (sys, t, rendered)
    });
    sp.end();
    let host_ns = ns_since(t1);
    // Checks and destructors fall outside the measured region.
    let loaded = out.is_some();
    let (clean, same) = match out.as_ref().and_then(|o| o.2.as_ref()) {
        Some((doc, pf, clean)) => (*clean, *doc == r.doc && fnv64(pf.as_bytes()) == r.perfetto),
        None => (false, false),
    };
    let ok = paused && loaded && clean && same;
    if !ok {
        eprintln!(
            "check failed: {}: split run (paused={paused}, loaded={loaded}, clean={clean}) \
             differs from the unsplit run",
            cell.label()
        );
    }
    Rep { setup_ns, host_ns, segs, root, ops: 1, fails: u64::from(!ok) }
}
