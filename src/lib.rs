#![warn(missing_docs)]

//! # cwfmem — Critical-Word-First Heterogeneous DRAM Memory Simulator
//!
//! A from-scratch Rust reproduction of *"Leveraging Heterogeneity in DRAM
//! Main Memories to Accelerate Critical Word Access"* (MICRO 2012).
//!
//! This façade crate re-exports the whole workspace under one roof. See the
//! individual crates for details:
//!
//! * [`dram`] — cycle-level DDR3 / LPDDR2 / RLDRAM3 device timing models.
//! * [`memctrl`] — FR-FCFS memory controllers, address mapping, write drain.
//! * [`cache`] — L1/L2 hierarchy with per-word MSHRs and a stride prefetcher.
//! * [`cpu`] — a USIMM-style ROB core model.
//! * [`workloads`] — 27 synthetic benchmark profiles (SPEC2k6 / NPB / STREAM).
//! * [`power`] — Micron-calculator-style DRAM power and system-energy model.
//! * [`cwf`] — the paper's contribution: CWF heterogeneous memory systems.
//! * [`tracelog`] — cross-layer ring-buffer event tracing with Perfetto
//!   export and per-read latency waterfalls.
//! * [`sim`] — the full-system harness and per-figure experiment drivers.
//! * [`speclint`] — static analysis: the device-spec model checker behind
//!   `cwfmem spec-lint` and the `cwf-lint` determinism lint.
//! * [`dse`] — design-space-exploration service: the work-stealing cell
//!   pool, `(config-digest, seed)` result cache, and the `cwfmem serve`
//!   HTTP/JSON front end.
//!
//! # Quickstart
//!
//! ```
//! use cwfmem::sim::{run_benchmark_outcome, RunConfig};
//! use cwfmem::sim::config::MemKind;
//!
//! # fn main() {
//! let cfg = RunConfig { verify: true, ..RunConfig::quick(MemKind::Rl, 2_000) };
//! let outcome = run_benchmark_outcome(&cfg, "leslie3d", None);
//! assert!(outcome.is_clean());
//! assert!(outcome.metrics.ipc_total() > 0.0);
//! # }
//! ```

pub use cache_hier as cache;
pub use cpu_model as cpu;
pub use cwf_core as cwf;
pub use cwf_dse as dse;
pub use cwf_speclint as speclint;
pub use cwf_tracelog as tracelog;
pub use dram_power as power;
pub use dram_timing as dram;
pub use mem_ctrl as memctrl;
pub use sim_harness as sim;
pub use workloads;
