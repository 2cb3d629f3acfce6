//! Latency waterfall: decompose every traced DRAM read into pipeline
//! stages and print the five slowest, stage by stage.
//!
//! ```sh
//! cargo run --release --example latency_waterfall [benchmark] [mem]
//! ```
//!
//! `mem` is any `MemKind` name (`ddr3`, `rl`, `lp`, ...; default `rl`).

use cwfmem::sim::config::MemKind;
use cwfmem::sim::{run_benchmark_outcome, RunConfig};
use cwfmem::tracelog::waterfall::STAGE_NAMES;

fn main() {
    let bench = std::env::args().nth(1).unwrap_or_else(|| "mcf".to_owned());
    let mem = std::env::args().nth(2).map_or(MemKind::Rl, |s| {
        MemKind::parse(&s).unwrap_or_else(|| panic!("unknown memory kind '{s}'"))
    });
    let reads = 5_000;
    println!("== latency waterfall: {bench} on {mem:?}, {reads} DRAM reads ==\n");

    let cfg = RunConfig { trace: true, ..RunConfig::paper(mem, reads) };
    let t = run_benchmark_outcome(&cfg, &bench, None).trace.expect("trace enabled above");

    println!(
        "{} events traced ({} dropped), {} reads decomposed, {} incomplete\n",
        t.events.len(),
        t.dropped,
        t.summary.reads,
        t.summary.incomplete
    );

    println!("average stage widths (CPU cycles):");
    for (i, name) in STAGE_NAMES.iter().enumerate() {
        println!("  {name:<10} {:>8.1}", t.summary.avg_stage(i));
    }

    println!("\ntop 5 slowest reads:");
    println!(
        "{:>8} {:>4} {:>3} {:>9} {:>7}  queue/act/cas/bus/cw/tail",
        "token", "core", "cw", "alloc@", "total"
    );
    for w in t.top_slowest(5) {
        println!(
            "{:>8} {:>4} {:>3} {:>9} {:>7}  {}",
            w.token.0,
            w.core,
            w.critical_word,
            w.alloc_at,
            w.total,
            w.stages.map(|s| s.to_string()).join("/")
        );
    }
}
