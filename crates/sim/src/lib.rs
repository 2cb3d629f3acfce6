#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! Full-system simulation harness.
//!
//! Glues the substrates together — cores ([`cpu_model`]), hierarchy
//! ([`cache_hier`]), workloads ([`workloads`]), memory backends
//! ([`mem_ctrl`], [`cwf_core`]) and power ([`dram_power`]) — into the
//! paper's methodology (§5):
//!
//! * 8 cores at 3.2 GHz, warm-up, then measurement until a target number
//!   of DRAM reads (the paper uses 2 M; `cwfmem figures --reads N`
//!   scales it);
//! * system throughput as aggregate IPC, normalised to the DDR3 baseline
//!   for the figures (equal to the paper's `Σ IPC_shared / IPC_alone` up
//!   to the config-insensitive alone factor, DESIGN.md §5);
//! * Micron-style DRAM power from controller activity, the §6.1.3 system
//!   energy model.
//!
//! [`experiments`] contains one driver per paper figure/table;
//! `cwfmem figures <name>` prints them. [`run_benchmark_outcome`] runs one
//! benchmark and returns a [`RunOutcome`]: its metrics, its oracle
//! verdict ([`RunOutcome::is_clean`]) and, through
//! [`to_json`](RunOutcome::to_json), its `cwfmem.run.v1` document.
//!
//! # Examples
//!
//! ```
//! use sim_harness::{run_benchmark_outcome, RunConfig};
//! use sim_harness::config::MemKind;
//!
//! let cfg = RunConfig { verify: true, ..RunConfig::quick(MemKind::Rl, 1_500) };
//! let outcome = run_benchmark_outcome(&cfg, "libquantum", None);
//! assert!(outcome.is_clean());
//! assert!(outcome.metrics.dram_reads >= 1_500);
//! assert!(outcome.metrics.ipc_total() > 0.0);
//! ```

pub mod config;
pub mod experiments;
pub mod metrics;
pub mod report;
pub mod runner;
pub mod sweep;
pub mod system;
pub mod trace;

pub use config::{Kernel, MemKind, RunConfig};
pub use cwf_verify::VerifyReport;
pub use metrics::RunMetrics;
pub use report::Table;
pub use runner::{
    resume_benchmark, resume_benchmark_to_cycle, run_benchmark_ckpt, run_benchmark_outcome,
    CkptOutcome, RunOutcome,
};
pub use sweep::{Cell, CellResult};
pub use system::{KernelStats, System};
pub use trace::TraceReport;
