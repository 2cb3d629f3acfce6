//! Regenerate the pinned values for `tests/golden.rs`.
//!
//! Run after any deliberate behavioural change and copy the printed rows
//! into the `GOLDEN` table:
//!
//! ```sh
//! cargo run --release --example golden_gen
//! ```

use cwfmem::dram::DeviceKind;
use cwfmem::sim::config::MemKind;
use cwfmem::sim::{run_benchmark_outcome, RunConfig};

fn main() {
    for (kind, bench) in [
        (MemKind::Ddr3, "leslie3d"),
        (MemKind::Rl, "leslie3d"),
        (MemKind::RlAdaptive, "mcf"),
        (MemKind::Spec(DeviceKind::Ddr5), "leslie3d"),
        (MemKind::SpecCwf(DeviceKind::Rldram3, DeviceKind::Ddr5), "mcf"),
    ] {
        let m = run_benchmark_outcome(&RunConfig::quick(kind, 1_500), bench, None).metrics;
        println!(
            "({:?}, \"{}\"): cycles={} insts={} reads={} writes={} hist={:?}",
            kind,
            bench,
            m.cycles,
            m.insts_per_core.iter().sum::<u64>(),
            m.dram_reads,
            m.dram_writes,
            m.hier.critical_word_hist
        );
    }
}
