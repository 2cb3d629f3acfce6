//! Golden pin of the Perfetto/Chrome-trace export.
//!
//! One tiny benchmark on the DDR3 baseline, fixed seed: the exported
//! JSON must be byte-stable across runs (deterministic event order and
//! exact-integer timestamps), structurally valid, and per-track
//! monotonic. Any simulation or exporter change shifts the digest —
//! update the pins deliberately (print them with
//! `cargo test --test trace_golden -- --nocapture pins`).

use cwfmem::sim::config::MemKind;
use cwfmem::sim::{run_benchmark_outcome, Kernel, RunConfig};
use cwfmem::tracelog::json::validate_chrome_trace;

/// FNV-1a over the export text — cheap, dependency-free pinning.
fn fnv1a(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

// Pinned to the *cycle* kernel's export. The event kernel now matches it
// byte for byte: traced runs pin every core's wake to the next cycle, so
// no trace event can fall inside a batched span. (The previous pin,
// 7 513 events / 0x9f2e531433ae3a2e, had captured an event-kernel trace
// that dropped four events relative to the cycle-kernel ground truth.)
const GOLDEN_EVENTS: usize = 7_517;
const GOLDEN_DIGEST: u64 = 0xd118_ddc0_d7bd_dc57;

fn export_with(kernel: Kernel) -> (String, usize) {
    let cfg =
        RunConfig { trace: true, verify: false, kernel, ..RunConfig::quick(MemKind::Ddr3, 300) };
    let t = run_benchmark_outcome(&cfg, "leslie3d", None).trace.expect("trace on");
    (t.perfetto_json(), t.events.len())
}

fn export() -> (String, usize) {
    export_with(Kernel::Cycle)
}

#[test]
fn perfetto_export_matches_golden_pin() {
    let (json, raw_events) = export();
    let check = validate_chrome_trace(&json).expect("export must be a valid Chrome trace");
    assert!(check.events > 0 && check.tracks > 0, "vacuous export: {check:?}");
    assert_eq!(raw_events, GOLDEN_EVENTS, "traced event count moved");
    assert_eq!(
        fnv1a(&json),
        GOLDEN_DIGEST,
        "Perfetto export changed — re-pin deliberately if the simulation \
         or exporter changed ({} chars, {} trace entries)",
        json.len(),
        check.events
    );
}

/// The event kernel must trace exactly what the cycle kernel traces:
/// while tracing, core wakes are pinned to the next cycle and memory
/// skips only cover provably event-free quiet periods, so the exported
/// stream is byte-identical.
#[test]
fn traced_event_kernel_matches_traced_cycle_kernel() {
    let (cy, cy_events) = export_with(Kernel::Cycle);
    let (ev, ev_events) = export_with(Kernel::Event);
    assert_eq!(cy_events, ev_events, "kernels traced different event counts");
    assert_eq!(cy, ev, "kernels exported different traces");
}

#[test]
fn perfetto_export_is_deterministic() {
    let (a, _) = export();
    let (b, _) = export();
    assert_eq!(a, b, "same config + seed must export byte-identical traces");
}

/// Not a check: prints the current pins (`-- --nocapture pins`).
#[test]
fn pins() {
    let (json, raw_events) = export();
    println!("GOLDEN_EVENTS = {raw_events}; GOLDEN_DIGEST = {:#018x};", fnv1a(&json));
}
