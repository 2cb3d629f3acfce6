//! Design-space walk: every memory organization of the paper on one
//! benchmark, with throughput, critical-word latency and DRAM power.
//!
//! ```sh
//! cargo run --release --example design_space [benchmark] [reads]
//! ```

use cwfmem::power::LpddrIo;
use cwfmem::sim::config::MemKind;
use cwfmem::sim::{run_benchmark, RunConfig};

fn main() {
    let bench = std::env::args().nth(1).unwrap_or_else(|| "libquantum".to_owned());
    let reads: u64 = std::env::args().nth(2).and_then(|v| v.parse().ok()).unwrap_or(8_000);
    println!("== design space on {bench} ({reads} DRAM reads) ==\n");
    println!(
        "{:<10} {:>10} {:>12} {:>12} {:>10} {:>10}",
        "config", "IPC", "vs DDR3", "cw-lat (ns)", "DRAM W", "cw-fast"
    );

    let mut base_ipc = None;
    for kind in MemKind::PAPER {
        let m = run_benchmark(&RunConfig::paper(kind, reads), &bench);
        let ipc = m.ipc_total();
        let base = *base_ipc.get_or_insert(ipc);
        println!(
            "{:<10} {:>10.2} {:>11.1}% {:>12.1} {:>10.2} {:>10}",
            kind.label(),
            ipc,
            (ipc / base - 1.0) * 100.0,
            m.avg_cw_latency_ns(),
            m.dram_power_w(LpddrIo::ServerAdapted),
            m.cwf.map_or_else(
                || "-".to_owned(),
                |c| format!("{:.0}%", c.served_fast_fraction() * 100.0)
            ),
        );
    }
    println!("\n(cw-fast: critical words served by the fast DIMM; '-' for non-CWF designs)");
}
