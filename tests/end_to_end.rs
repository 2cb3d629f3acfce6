//! Cross-crate integration tests: the paper's headline orderings must
//! emerge from full-system simulation.
//!
//! These use small run lengths to stay fast; the assertions therefore
//! check *orderings and signs* (which are stable) rather than magnitudes.

use cwfmem::power::LpddrIo;
use cwfmem::sim::config::MemKind;
use cwfmem::sim::{run_benchmark_outcome, RunConfig, RunMetrics};

const READS: u64 = 4_000;

/// Run `bench` under `cfg` and require a clean oracle verdict (verify
/// defaults on in debug builds, where these tests run).
fn clean_run(cfg: &RunConfig, bench: &str) -> RunMetrics {
    let o = run_benchmark_outcome(cfg, bench, None);
    assert!(
        o.is_clean(),
        "{bench}/{}: {} violation(s), first: {:?}",
        cfg.mem.label(),
        o.verify.as_ref().map_or(0, |v| v.total_violations),
        o.verify.as_ref().and_then(|v| v.violations.first().map(ToString::to_string))
    );
    o.metrics
}

fn ipc(kind: MemKind, bench: &str) -> f64 {
    clean_run(&RunConfig::paper(kind, READS), bench).ipc_total()
}

#[test]
fn homogeneous_ordering_rldram_ddr3_lpddr2() {
    // Figure 1a: RLDRAM3 > DDR3 > LPDDR2 for memory-intensive programs.
    for bench in ["libquantum", "mcf"] {
        let rld = ipc(MemKind::Rldram3, bench);
        let ddr = ipc(MemKind::Ddr3, bench);
        let lp = ipc(MemKind::Lpddr2, bench);
        assert!(rld > ddr * 1.05, "{bench}: RLDRAM3 {rld:.2} vs DDR3 {ddr:.2}");
        assert!(lp < ddr * 0.95, "{bench}: LPDDR2 {lp:.2} vs DDR3 {ddr:.2}");
    }
}

#[test]
fn rl_beats_baseline_on_word0_streams() {
    // Figure 6: programs with word-0-dominated critical words gain.
    for bench in ["stream", "libquantum"] {
        let rl = ipc(MemKind::Rl, bench);
        let ddr = ipc(MemKind::Ddr3, bench);
        assert!(rl > ddr, "{bench}: RL {rl:.2} should beat DDR3 {ddr:.2}");
    }
}

#[test]
fn rd_beats_rl_beats_dl() {
    // Figure 6 ordering on a streaming workload.
    let bench = "leslie3d";
    let rd = ipc(MemKind::Rd, bench);
    let rl = ipc(MemKind::Rl, bench);
    let dl = ipc(MemKind::Dl, bench);
    assert!(rd > rl, "RD {rd:.2} > RL {rl:.2}");
    assert!(rl > dl, "RL {rl:.2} > DL {dl:.2}");
}

#[test]
fn placement_ordering_static_adaptive_oracle() {
    // Figure 9 on mcf (words 0 and 3 critical): RL < RL-AD <= RL-OR.
    let rl = ipc(MemKind::Rl, "mcf");
    let ad = ipc(MemKind::RlAdaptive, "mcf");
    let or = ipc(MemKind::RlOracle, "mcf");
    assert!(ad > rl * 1.02, "adaptive {ad:.2} should beat static {rl:.2}");
    assert!(or > ad * 1.02, "oracle {or:.2} should beat adaptive {ad:.2}");
}

#[test]
fn random_mapping_forfeits_the_gains() {
    // §6.1.1: the intelligent mapping, not the extra channel, matters.
    let bench = "stream";
    let rl = ipc(MemKind::Rl, bench);
    let rand = ipc(MemKind::RlRandom, bench);
    assert!(rand < rl * 0.9, "random {rand:.2} far below RL {rl:.2}");
}

#[test]
fn critical_word_latency_improves_under_rl() {
    // Figure 7: the requested word arrives earlier under RL.
    let bench = "libquantum";
    let base = clean_run(&RunConfig::paper(MemKind::Ddr3, READS), bench);
    let rl = clean_run(&RunConfig::paper(MemKind::Rl, READS), bench);
    assert!(
        rl.avg_cw_latency_ns() < base.avg_cw_latency_ns(),
        "RL cw {:.1}ns vs DDR3 {:.1}ns",
        rl.avg_cw_latency_ns(),
        base.avg_cw_latency_ns()
    );
}

#[test]
fn served_fast_tracks_word0_fraction() {
    // Figure 8 ≈ Figure 4: under Static0, the fast-DIMM hit rate equals
    // the word-0 critical fraction.
    let m = clean_run(&RunConfig::paper(MemKind::Rl, READS), "leslie3d");
    let cwf = m.cwf.expect("RL is CWF");
    let diff = (cwf.served_fast_fraction() - m.hier.word0_fraction()).abs();
    assert!(
        diff < 0.08,
        "served-fast {:.2} vs word0 {:.2}",
        cwf.served_fast_fraction(),
        m.hier.word0_fraction()
    );
    assert!(cwf.served_fast_fraction() > 0.5, "leslie3d is word-0 dominated");
}

#[test]
fn fast_part_head_start_is_tens_of_cycles() {
    // §1/§4.2.2: "the critical word arrives tens of cycles earlier".
    let m = clean_run(&RunConfig::paper(MemKind::Rl, READS), "libquantum");
    let head = m.cwf.expect("RL").avg_head_start();
    assert!((20.0..=800.0).contains(&head), "head start {head:.0} CPU cycles");
}

#[test]
fn dl_saves_memory_power_but_loses_performance() {
    // Figure 6 + Figure 10: DL is the power-optimized point.
    let bench = "zeusmp";
    let base = clean_run(&RunConfig::paper(MemKind::Ddr3, READS), bench);
    let dl = clean_run(&RunConfig::paper(MemKind::Dl, READS), bench);
    assert!(dl.ipc_total() < base.ipc_total(), "DL is slower");
    assert!(
        dl.dram_power_w(LpddrIo::ServerAdapted) < base.dram_power_w(LpddrIo::ServerAdapted),
        "DL draws less DRAM power"
    );
}

#[test]
fn parity_errors_defer_wakes_end_to_end() {
    // §4.2.3: with every critical word failing parity, early wakes vanish
    // and the critical-word latency collapses to the line latency.
    let mut clean = RunConfig::paper(MemKind::Rl, 2_000);
    clean.parity_error_rate = 0.0;
    let mut faulty = clean;
    faulty.parity_error_rate = 1.0;
    let bench = "stream";
    let m_clean = clean_run(&clean, bench);
    let m_faulty = clean_run(&faulty, bench);
    let c_clean = m_clean.cwf.expect("RL");
    let c_faulty = m_faulty.cwf.expect("RL");
    assert!(c_clean.served_fast_fraction() > 0.5);
    assert_eq!(c_faulty.cw_served_fast, 0, "no early wake survives parity failure");
    assert!(c_faulty.parity_errors > 0);
    assert!(m_faulty.avg_cw_latency_ns() > m_clean.avg_cw_latency_ns());
}

#[test]
fn determinism_across_identical_configs() {
    let cfg = RunConfig::paper(MemKind::RlAdaptive, 2_000);
    let a = clean_run(&cfg, "mcf");
    let b = clean_run(&cfg, "mcf");
    assert_eq!(a.cycles, b.cycles);
    assert_eq!(a.insts_per_core, b.insts_per_core);
    assert_eq!(a.hier.critical_word_hist, b.hier.critical_word_hist);
}

#[test]
fn run_reaches_its_read_target() {
    let m = clean_run(&RunConfig::paper(MemKind::Rl, 3_000), "milc");
    assert!(m.dram_reads >= 3_000);
    assert!(m.dram_writes > 0, "warmed L2 produces writebacks");
}
