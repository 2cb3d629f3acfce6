//! The workloads, their cells, and the configuration guard.
//!
//! Every cell is a `(benchmark, memory kind)` pair run under a fully
//! explicit [`RunConfig`]: the environment variables the library reads
//! for defaults (`CWF_KERNEL`, `CWF_VERIFY`, `CWF_TRACE`) cannot change
//! what is measured, and [`resolve`] fails loudly if any field the
//! library derives differs from the literal the benchmark expects.

use dram_timing::DeviceKind;
use sim_harness::sweep::cell_seed;
use sim_harness::{Kernel, MemKind, RunConfig};

/// Demand DRAM reads per `mem_bound` cell (measured window).
const MEM_READS: u64 = 20_000;
/// Demand DRAM reads per `compute_bound` cell.
const COMPUTE_READS: u64 = 20_000;
/// Demand DRAM reads per `observed` cell.
const OBSERVED_READS: u64 = 8_000;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    /// Plain simulation repetitions, observers off.
    Sim,
    /// Verify + trace on, split through a checkpoint, rendered.
    Observed,
}

#[derive(Clone, Debug)]
pub struct CellSpec {
    pub bench: &'static str,
    pub mem: MemKind,
    pub cfg: RunConfig,
}

impl CellSpec {
    pub fn label(&self) -> String {
        format!("{}/{}", self.bench, self.mem.slug())
    }

    pub fn profile(&self) -> &'static workloads::BenchmarkProfile {
        workloads::by_name(self.bench).expect("workload cells name suite benchmarks")
    }
}

pub struct Workload {
    pub name: &'static str,
    pub kind: Kind,
    /// Distinct cells, in repetition order.
    pub cells: Vec<CellSpec>,
}

pub const NAMES: [&str; 3] = ["mem_bound", "compute_bound", "observed"];

/// Build workload `name` for `seed` (`None` for an unknown name).
pub fn workload(name: &str, seed: u64) -> Option<Workload> {
    let rl = MemKind::Rl;
    let dc = MemKind::DramCache(DeviceKind::Rldram3, DeviceKind::NvmSlow);
    let sim = |pairs: &[(&'static str, MemKind)], reads: u64, observers: bool| -> Vec<CellSpec> {
        pairs
            .iter()
            .map(|&(bench, mem)| CellSpec {
                bench,
                mem,
                cfg: resolve(mem, reads, cell_seed(seed, bench, mem), observers),
            })
            .collect()
    };
    let (kind, cells) = match name {
        "mem_bound" => (
            Kind::Sim,
            sim(
                &[("stream", rl), ("mcf", rl), ("lbm", MemKind::Ddr3), ("dcthrash", dc)],
                MEM_READS,
                false,
            ),
        ),
        "compute_bound" => (
            Kind::Sim,
            sim(
                &[("ep", MemKind::Rldram3), ("ep", MemKind::Ddr3), ("gobmk", rl)],
                COMPUTE_READS,
                false,
            ),
        ),
        "observed" => {
            (Kind::Observed, sim(&[("mcf", rl), ("stream", MemKind::Ddr3)], OBSERVED_READS, true))
        }
        _ => return None,
    };
    let name = NAMES.iter().copied().find(|n| *n == name).expect("listed name");
    Some(Workload { name, kind, cells })
}

/// The cell configuration, built the way the library and the sweep
/// server build it (`RunConfig::paper` plus explicit overrides),
/// then checked field by field against an environment-free literal.
/// A difference means an environment variable (or a changed library
/// default) altered the workload: the benchmark exits instead of
/// measuring something else.
pub fn resolve(mem: MemKind, reads: u64, seed: u64, observers: bool) -> RunConfig {
    let mut cfg = RunConfig::paper(mem, reads);
    cfg.kernel = Kernel::Event;
    cfg.verify = observers;
    cfg.trace = observers;
    cfg.seed = seed;
    let literal = RunConfig {
        mem,
        cores: 8,
        target_dram_reads: reads,
        warmup_dram_reads: (reads / 5).min(10_000),
        max_cycles: 4_000 * reads.max(1_000),
        prefetch: true,
        seed,
        parity_error_rate: 0.0,
        functional_warm_ops: 40_000,
        kernel: Kernel::Event,
        verify: observers,
        trace: observers,
    };
    if cfg != literal {
        eprintln!(
            "error: the resolved RunConfig differs from the benchmark's literal\n  \
             resolved: {cfg:?}\n  literal:  {literal:?}\n  environment: {}",
            env_summary()
        );
        std::process::exit(3);
    }
    cfg
}

/// The simulator-related environment, for the output record.
pub fn env_summary() -> String {
    ["CWF_KERNEL", "CWF_VERIFY", "CWF_TRACE", "CWF_JOBS"]
        .iter()
        .map(|k| format!("{k}={}", std::env::var(k).unwrap_or_else(|_| "<unset>".to_owned())))
        .collect::<Vec<_>>()
        .join(" ")
}

/// Pinned `cwfmem.run.v1` digests: `workload seed cell digest` lines.
const PINS: &str = include_str!("../pins.txt");

/// The pinned digest of `cell`'s document in `workload` at `seed`.
pub fn pinned(workload: &str, seed: u64, cell: &str) -> Option<u64> {
    PINS.lines().find_map(|l| {
        let f: Vec<&str> = l.split_whitespace().collect();
        match f.as_slice() {
            [w, s, c, d] if *w == workload && s.parse() == Ok(seed) && *c == cell => {
                u64::from_str_radix(d.trim_start_matches("0x"), 16).ok()
            }
            _ => None,
        }
    })
}
