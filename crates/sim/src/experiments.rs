//! One driver per paper figure/table (see DESIGN.md §5 for the index).
//!
//! Every driver returns [`Table`]s that `cwfmem figures <name>` prints.
//! Workload size is the caller's `reads` parameter (the paper runs 2 M
//! DRAM reads; `cwfmem figures` defaults to a scaled-down value, which
//! preserves orderings because the generators are stationary).

use std::collections::{BTreeMap, BTreeSet};

use cache_hier::{Cache, CacheCfg, LineMeta};
use cpu_model::{TraceOp, TraceSource};
use cwf_core::{hot_pages, CwfConfig, HeteroCwfMemory, PagePlacedMemory};
use dram_power::{power_at_utilization, IddTable, LpddrIo, SystemEnergyModel};
use dram_timing::{DeviceConfig, DeviceKind};
use mem_ctrl::HomogeneousMemory;
use workloads::{by_name, suite, BenchmarkProfile, TraceGen};

use crate::config::{MemBackend, MemKind, RunConfig};
use crate::metrics::RunMetrics;
use crate::report::{pct, pct_delta, Table};
use crate::runner::run_benchmark;
use crate::sweep::{jobs, parallel_map, run_cells_with, CellResult};
use crate::system::System;

/// The full 27-program suite.
#[must_use]
pub fn all_benches() -> Vec<&'static str> {
    suite().iter().map(|p| p.name).collect()
}

/// A representative 10-program subset for quick harness runs: the
/// memory-intensive word-0-friendly programs, the pointer chasers, and a
/// low-intensity control.
#[must_use]
pub fn default_benches() -> Vec<&'static str> {
    vec![
        "stream",
        "mg",
        "leslie3d",
        "libquantum",
        "GemsFDTD", // word-0 streaming
        "mcf",
        "omnetpp",
        "lbm", // unbiased / chasing
        "bzip2",
        "gobmk", // low intensity
    ]
}

/// One benchmark's results across several memory kinds.
#[derive(Debug, Clone)]
pub struct SweepRow {
    /// Benchmark name.
    pub bench: String,
    /// DDR3-baseline metrics (8-core shared run).
    pub base: RunMetrics,
    /// Per-kind metrics.
    pub configs: Vec<(MemKind, RunMetrics)>,
}

impl SweepRow {
    /// Normalized throughput of `kind` (1.0 = baseline).
    ///
    /// All runs execute the same rate-mode workload (N copies / threads of
    /// one program), so the aggregate-IPC ratio equals the normalized
    /// weighted speedup up to the (config-insensitive) `IPC_alone` factor,
    /// while being far less sensitive to short-run noise.
    #[must_use]
    pub fn normalized(&self, kind: MemKind) -> f64 {
        self.metrics(kind).map_or(f64::NAN, |m| m.ipc_total() / self.base.ipc_total().max(1e-9))
    }

    /// Metrics of `kind`.
    #[must_use]
    pub fn metrics(&self, kind: MemKind) -> Option<&RunMetrics> {
        self.configs.iter().find(|(k, _)| *k == kind).map(|(_, m)| m)
    }
}

/// Sweep `kinds` (plus the DDR3 baseline) over `benches`.
///
/// Cells run across the [`crate::sweep`] worker pool (`CWF_JOBS`). A
/// cell that fails ([`CellResult::failure`]: a panic or an unclean
/// oracle report) is reported on stderr and dropped: a failed config
/// leaves a hole [`SweepRow::metrics`] reports as `None`; a failed
/// baseline drops the whole row.
#[must_use]
pub fn sweep(benches: &[&str], kinds: &[MemKind], reads: u64) -> Vec<SweepRow> {
    // Flatten to (bench, kind-or-baseline) cells for the worker pool.
    // Figure drivers pin every run to the paper seed so their tables
    // reproduce EXPERIMENTS.md exactly (the CLI `sweep` command instead
    // decorrelates cells via `sweep::cell_seed`).
    let mut tasks: Vec<(String, Option<MemKind>)> = Vec::new();
    let mut cells: Vec<crate::sweep::Cell> = Vec::new();
    for b in benches {
        for kind in std::iter::once(None).chain(kinds.iter().copied().map(Some)) {
            tasks.push(((*b).to_owned(), kind));
            cells.push(crate::sweep::Cell {
                bench: (*b).to_owned(),
                cfg: RunConfig::paper(kind.unwrap_or(MemKind::Ddr3), reads),
            });
        }
    }
    let results = run_cells_with(&cells, jobs());
    let mut by_task: BTreeMap<(String, Option<MemKind>), RunMetrics> = BTreeMap::new();
    for (task, result) in tasks.into_iter().zip(results) {
        if let Some(e) = result.failure() {
            eprintln!("{e}");
        } else if let CellResult::Done(o) = result {
            by_task.insert(task, o.metrics);
        }
    }
    benches
        .iter()
        .filter_map(|b| {
            let base = by_task.remove(&((*b).to_owned(), None))?;
            let configs = kinds
                .iter()
                .filter_map(|k| by_task.remove(&((*b).to_owned(), Some(*k))).map(|m| (*k, m)))
                .collect();
            Some(SweepRow { bench: (*b).to_owned(), base, configs })
        })
        .collect()
}

fn mean(xs: impl Iterator<Item = f64>) -> f64 {
    let v: Vec<f64> = xs.collect();
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

// ---------------------------------------------------------------------------
// Figure 1: homogeneous RLDRAM3 / DDR3 / LPDDR2.
// ---------------------------------------------------------------------------

/// Figure 1a (normalized throughput) and 1b (latency breakdown).
#[must_use]
pub fn fig1_homogeneous(benches: &[&str], reads: u64) -> (Table, Table) {
    let rows = sweep(benches, &[MemKind::Rldram3, MemKind::Lpddr2], reads);

    let mut t1 = Table::new(
        "Figure 1a: homogeneous throughput normalized to DDR3 (paper: RLDRAM3 +31%, LPDDR2 -13%)",
        &["bench", "RLDRAM3", "LPDDR2"],
    );
    for r in &rows {
        t1.row(vec![
            r.bench.clone(),
            format!("{:.3}", r.normalized(MemKind::Rldram3)),
            format!("{:.3}", r.normalized(MemKind::Lpddr2)),
        ]);
    }
    t1.row(vec![
        "MEAN".into(),
        format!("{:.3}", mean(rows.iter().map(|r| r.normalized(MemKind::Rldram3)))),
        format!("{:.3}", mean(rows.iter().map(|r| r.normalized(MemKind::Lpddr2)))),
    ]);

    let mut t2 = Table::new(
        "Figure 1b: DRAM read latency breakdown, ns (queue + core/service)",
        &["bench", "DDR3 queue", "DDR3 core", "RLD queue", "RLD core", "LP queue", "LP core"],
    );
    for r in &rows {
        let rld = r.metrics(MemKind::Rldram3).expect("swept");
        let lp = r.metrics(MemKind::Lpddr2).expect("swept");
        t2.row(vec![
            r.bench.clone(),
            format!("{:.1}", r.base.mem_stats.avg_queue_ns()),
            format!("{:.1}", r.base.mem_stats.avg_service_ns()),
            format!("{:.1}", rld.mem_stats.avg_queue_ns()),
            format!("{:.1}", rld.mem_stats.avg_service_ns()),
            format!("{:.1}", lp.mem_stats.avg_queue_ns()),
            format!("{:.1}", lp.mem_stats.avg_service_ns()),
        ]);
    }
    t2.note("paper: RLDRAM3 average access time ~43% below DDR3, mostly from queue latency");
    (t1, t2)
}

// ---------------------------------------------------------------------------
// Figure 2: power vs bus utilization (analytic, open loop).
// ---------------------------------------------------------------------------

/// Figure 2: per-chip power vs data-bus utilization for the three parts.
#[must_use]
pub fn fig2_power_utilization() -> Table {
    let mut t = Table::new(
        "Figure 2: chip power (W) vs bus utilization (RLDRAM3 512Mb-class vs 2Gb DDR3/LPDDR2)",
        &["util", "RLDRAM3", "DDR3", "LPDDR2"],
    );
    let rld = (IddTable::rldram3_x18(), DeviceConfig::rldram3());
    let ddr = (IddTable::ddr3(), DeviceConfig::ddr3_1600());
    let lp = (IddTable::lpddr2_server(), DeviceConfig::lpddr2_800());
    for pct_util in (0..=100).step_by(10) {
        let u = f64::from(pct_util) / 100.0;
        t.row(vec![
            format!("{pct_util}%"),
            format!("{:.3}", power_at_utilization(&rld.0, &rld.1, u, 0.7).total_w()),
            format!("{:.3}", power_at_utilization(&ddr.0, &ddr.1, u, 0.7).total_w()),
            format!("{:.3}", power_at_utilization(&lp.0, &lp.1, u, 0.7).total_w()),
        ]);
    }
    t.note("paper: RLDRAM3 dominated by background power at low utilization; gap narrows as utilization rises");
    t
}

// ---------------------------------------------------------------------------
// Figures 3 & 4: critical word distributions (LLC-filtered, no timing).
// ---------------------------------------------------------------------------

/// LLC-filtered first-touch (critical word) analysis for one benchmark:
/// returns the aggregate word histogram and per-line histograms.
fn critical_word_profile(bench: &str, misses: u64) -> ([u64; 8], BTreeMap<u64, [u32; 8]>) {
    let profile = by_name(bench).expect("known benchmark");
    let mut l2 = Cache::new(CacheCfg::l2_4m_8way());
    let mut gens: Vec<TraceGen> = (0..8).map(|c| TraceGen::new(profile, c, 0xF163)).collect();
    let mut hist = [0u64; 8];
    let mut per_line: BTreeMap<u64, [u32; 8]> = BTreeMap::new();
    let mut seen = 0u64;
    let mut core = 0usize;
    while seen < misses {
        let op = gens[core].next_op();
        core = (core + 1) % gens.len();
        let (TraceOp::Load { addr, .. } | TraceOp::Store { addr, .. }) = op else {
            continue;
        };
        let line = addr >> 6;
        let word = ((addr >> 3) & 7) as usize;
        if l2.lookup(line).is_none() {
            l2.insert(line, LineMeta::default());
            hist[word] += 1;
            per_line.entry(line).or_default()[word] += 1;
            seen += 1;
        }
    }
    (hist, per_line)
}

/// Figure 3: per-line critical-word bias for leslie3d and mcf.
#[must_use]
pub fn fig3_line_profiles(misses: u64) -> Table {
    let mut t = Table::new(
        "Figure 3: critical words of the most-missed cache lines (dominant word per line)",
        &["bench", "line rank", "misses", "dominant word", "dominant share"],
    );
    for bench in ["leslie3d", "mcf"] {
        let (_, per_line) = critical_word_profile(bench, misses);
        let mut lines: Vec<(u64, [u32; 8])> = per_line.into_iter().collect();
        lines.sort_unstable_by_key(|(line, h)| (std::cmp::Reverse(h.iter().sum::<u32>()), *line));
        for (rank, (_, h)) in lines.iter().take(10).enumerate() {
            let total: u32 = h.iter().sum();
            let (dom, dom_n) = h.iter().enumerate().max_by_key(|(_, n)| **n).expect("8 words");
            t.row(vec![
                bench.into(),
                format!("{}", rank + 1),
                format!("{total}"),
                format!("w{dom}"),
                pct(f64::from(*dom_n) / f64::from(total.max(1))),
            ]);
        }
        // Aggregate per-line regularity: how often does a line's fetch hit
        // its own dominant word? (The quantity the adaptive scheme banks on.)
        let (dom_hits, all): (u64, u64) = lines.iter().fold((0, 0), |(d, a), (_, h)| {
            let total: u32 = h.iter().sum();
            let dom = *h.iter().max().expect("8 words");
            (d + u64::from(dom), a + u64::from(total))
        });
        t.note(&format!(
            "{bench}: {} of fetches hit the line's dominant word",
            pct(dom_hits as f64 / all.max(1) as f64)
        ));
    }
    t.note("paper: within a line there is a well-defined bias toward one or two words");
    t
}

/// Figure 4: distribution of critical words across the suite.
#[must_use]
pub fn fig4_critical_word_distribution(benches: &[&str], misses: u64) -> Table {
    let mut t = Table::new(
        "Figure 4: critical word distribution at the DRAM level (paper: word 0 >50% for 21 of 27)",
        &["bench", "w0", "w1", "w2", "w3", "w4", "w5", "w6", "w7"],
    );
    let rows: Vec<(String, [u64; 8])> = parallel_map(benches, jobs(), |bench| {
        ((*bench).to_owned(), critical_word_profile(bench, misses).0)
    });
    let mut word0_over_half = 0;
    for (bench, hist) in &rows {
        let total: u64 = hist.iter().sum::<u64>().max(1);
        if hist[0] as f64 / total as f64 > 0.5 {
            word0_over_half += 1;
        }
        let mut cells = vec![bench.clone()];
        cells.extend(hist.iter().map(|h| pct(*h as f64 / total as f64)));
        t.row(cells);
    }
    t.note(&format!(
        "{word0_over_half} of {} programs have word-0 critical in >50% of fetches",
        rows.len()
    ));
    t
}

// ---------------------------------------------------------------------------
// Figures 6, 7, 8: the CWF organizations.
// ---------------------------------------------------------------------------

/// Figures 6 (throughput), 7 (critical-word latency) and 8 (% served by
/// RLDRAM3) from one sweep over RD / RL / DL.
#[must_use]
pub fn fig6_7_8_cwf(benches: &[&str], reads: u64) -> (Table, Table, Table) {
    let rows = sweep(benches, &[MemKind::Rd, MemKind::Rl, MemKind::Dl], reads);

    let mut t6 = Table::new(
        "Figure 6: CWF throughput normalized to DDR3 (paper: RD +21%, RL +12.9%, DL -9%)",
        &["bench", "RD", "RL", "DL"],
    );
    for r in &rows {
        t6.row(vec![
            r.bench.clone(),
            format!("{:.3}", r.normalized(MemKind::Rd)),
            format!("{:.3}", r.normalized(MemKind::Rl)),
            format!("{:.3}", r.normalized(MemKind::Dl)),
        ]);
    }
    t6.row(vec![
        "MEAN".into(),
        format!("{:.3}", mean(rows.iter().map(|r| r.normalized(MemKind::Rd)))),
        format!("{:.3}", mean(rows.iter().map(|r| r.normalized(MemKind::Rl)))),
        format!("{:.3}", mean(rows.iter().map(|r| r.normalized(MemKind::Dl)))),
    ]);

    let mut t7 = Table::new(
        "Figure 7: mean critical-word latency, ns (paper: RD -30%, RL -22% vs DDR3)",
        &["bench", "DDR3", "RD", "RL", "DL"],
    );
    for r in &rows {
        let cell = |m: &RunMetrics| format!("{:.1}", m.avg_cw_latency_ns());
        t7.row(vec![
            r.bench.clone(),
            cell(&r.base),
            cell(r.metrics(MemKind::Rd).expect("swept")),
            cell(r.metrics(MemKind::Rl).expect("swept")),
            cell(r.metrics(MemKind::Dl).expect("swept")),
        ]);
    }
    let mean_ratio = |kind: MemKind| {
        mean(rows.iter().map(|r| {
            r.metrics(kind).expect("swept").avg_cw_latency_ns() / r.base.avg_cw_latency_ns()
        }))
    };
    t7.note(&format!(
        "mean critical-word latency vs DDR3: RD {}, RL {}, DL {}",
        pct_delta(mean_ratio(MemKind::Rd)),
        pct_delta(mean_ratio(MemKind::Rl)),
        pct_delta(mean_ratio(MemKind::Dl)),
    ));

    let mut t8 = Table::new(
        "Figure 8: % of critical words served by the fast DIMM under RL (paper avg: 67%)",
        &["bench", "served fast", "avg head start (cpu cycles)"],
    );
    for r in &rows {
        let m = r.metrics(MemKind::Rl).expect("swept");
        let cwf = m.cwf.expect("RL is CWF");
        t8.row(vec![
            r.bench.clone(),
            pct(cwf.served_fast_fraction()),
            format!("{:.0}", cwf.avg_head_start()),
        ]);
    }
    t8.note(
        "head start is the fast part's arrival lead over the slow part (paper: ~70 CPU cycles)",
    );
    (t6, t7, t8)
}

// ---------------------------------------------------------------------------
// Figure 9: adaptive and oracular placement.
// ---------------------------------------------------------------------------

/// Figure 9: RL vs RL-AD vs RL-OR vs all-RLDRAM3 (paper: 12.9% < 15.7% <
/// 28% < 31%).
#[must_use]
pub fn fig9_placement(benches: &[&str], reads: u64) -> Table {
    let kinds = [MemKind::Rl, MemKind::RlAdaptive, MemKind::RlOracle, MemKind::Rldram3];
    let rows = sweep(benches, &kinds, reads);
    let mut t = Table::new(
        "Figure 9: placement schemes, throughput normalized to DDR3",
        &["bench", "RL", "RL AD", "RL OR", "RLDRAM3"],
    );
    for r in &rows {
        let mut cells = vec![r.bench.clone()];
        cells.extend(kinds.iter().map(|k| format!("{:.3}", r.normalized(*k))));
        t.row(cells);
    }
    let mut cells = vec!["MEAN".to_owned()];
    cells.extend(
        kinds.iter().map(|k| format!("{:.3}", mean(rows.iter().map(|r| r.normalized(*k))))),
    );
    t.row(cells);
    t.note("expected ordering: RL < RL AD < RL OR < RLDRAM3");
    t
}

// ---------------------------------------------------------------------------
// Figures 10 & 11: energy.
// ---------------------------------------------------------------------------

/// System-energy ratio of `m` against the baseline `base` (per unit work:
/// energy/instruction), under the §6.1.3 model.
fn system_energy_ratio(base: &RunMetrics, m: &RunMetrics, io: LpddrIo) -> f64 {
    let model = SystemEnergyModel::from_baseline(
        base.dram_power_w(LpddrIo::ServerAdapted).max(1e-6),
        base.ipc_total().max(1e-9),
    );
    // Energy per instruction = system power / (IPC × f); the CPU frequency
    // cancels in the ratio.
    let epi = |mm: &RunMetrics, io| {
        model.system_power_w(mm.dram_power_w(io), mm.ipc_total()) / mm.ipc_total().max(1e-9)
    };
    epi(m, io) / epi(base, LpddrIo::ServerAdapted)
}

/// Memory-only energy ratio (per instruction).
fn memory_energy_ratio(base: &RunMetrics, m: &RunMetrics, io: LpddrIo) -> f64 {
    let epi = |mm: &RunMetrics, io| mm.dram_power_w(io) / mm.ipc_total().max(1e-9);
    epi(m, io) / epi(base, LpddrIo::ServerAdapted)
}

/// Figures 10 (system energy) and 11 (energy savings vs bandwidth).
#[must_use]
pub fn fig10_11_energy(benches: &[&str], reads: u64) -> (Table, Table) {
    let rows = sweep(benches, &[MemKind::Rl, MemKind::Dl], reads);

    let mut t10 = Table::new(
        "Figure 10: system energy normalized to DDR3 (paper: RL -6%, DL -13%; RL memory energy -15%)",
        &["bench", "RL system", "DL system", "RL memory", "RL mem power"],
    );
    for r in &rows {
        let rl = r.metrics(MemKind::Rl).expect("swept");
        let dl = r.metrics(MemKind::Dl).expect("swept");
        t10.row(vec![
            r.bench.clone(),
            format!("{:.3}", system_energy_ratio(&r.base, rl, LpddrIo::ServerAdapted)),
            format!("{:.3}", system_energy_ratio(&r.base, dl, LpddrIo::ServerAdapted)),
            format!("{:.3}", memory_energy_ratio(&r.base, rl, LpddrIo::ServerAdapted)),
            format!(
                "{:.3}",
                rl.dram_power_w(LpddrIo::ServerAdapted)
                    / r.base.dram_power_w(LpddrIo::ServerAdapted).max(1e-9)
            ),
        ]);
    }
    let rl_sys = mean(rows.iter().map(|r| {
        system_energy_ratio(&r.base, r.metrics(MemKind::Rl).expect("swept"), LpddrIo::ServerAdapted)
    }));
    let dl_sys = mean(rows.iter().map(|r| {
        system_energy_ratio(&r.base, r.metrics(MemKind::Dl).expect("swept"), LpddrIo::ServerAdapted)
    }));
    let rl_mem = mean(rows.iter().map(|r| {
        memory_energy_ratio(&r.base, r.metrics(MemKind::Rl).expect("swept"), LpddrIo::ServerAdapted)
    }));
    t10.row(vec![
        "MEAN".into(),
        format!("{rl_sys:.3}"),
        format!("{dl_sys:.3}"),
        format!("{rl_mem:.3}"),
        String::new(),
    ]);

    let mut t11 = Table::new(
        "Figure 11: RL system-energy savings vs baseline bandwidth utilization",
        &["bench", "bus util", "energy saving"],
    );
    let mut pts: Vec<(String, f64, f64)> = rows
        .iter()
        .map(|r| {
            let rl = r.metrics(MemKind::Rl).expect("swept");
            (
                r.bench.clone(),
                r.base.bus_utilization(),
                1.0 - system_energy_ratio(&r.base, rl, LpddrIo::ServerAdapted),
            )
        })
        .collect();
    pts.sort_by(|a, b| a.1.total_cmp(&b.1));
    for (bench, util, saving) in &pts {
        t11.row(vec![bench.clone(), pct(*util), pct(*saving)]);
    }
    // Correlation direction check (paper: savings grow with utilization).
    let n = pts.len() as f64;
    if pts.len() > 2 {
        let mu_x = pts.iter().map(|p| p.1).sum::<f64>() / n;
        let mu_y = pts.iter().map(|p| p.2).sum::<f64>() / n;
        let cov = pts.iter().map(|p| (p.1 - mu_x) * (p.2 - mu_y)).sum::<f64>() / n;
        t11.note(&format!(
            "covariance(utilization, saving) = {cov:.5} (paper expects positive trend)"
        ));
    }
    (t10, t11)
}

// ---------------------------------------------------------------------------
// §6.1.1 / §4.2.4 ablations and §7 alternatives.
// ---------------------------------------------------------------------------

/// Aggregate IPC of a run with a custom backend factory.
fn ipc_custom<F>(cfg: &RunConfig, bench: &str, make: F) -> f64
where
    F: Fn() -> MemBackend,
{
    let profile = by_name(bench).expect("known benchmark");
    System::with_backend(cfg, profile, make()).run().ipc_total()
}

/// A striped (4-chip) fast store: one 36-bit sub-channel instead of four
/// x9 sub-ranks — the organization §4.2.4's first optimization replaces.
fn striped_fast_config() -> CwfConfig {
    let mut cfg = CwfConfig::rl();
    // 9 B over a 36-bit bus: 2 beats = 1 device cycle.
    cfg.fast.timings.t_burst = 1;
    cfg.fast_subchannels = 1;
    cfg.fast_chips = 4;
    cfg
}

/// §6.1.1 ablations: random mapping, no-prefetcher, and the §4.2.4 design
/// choices (sub-ranking, shared command bus, LPDDR2 page policy).
#[must_use]
pub fn ablations(benches: &[&str], reads: u64) -> Table {
    #[derive(Clone)]
    enum Variant {
        Kind(MemKind, bool /* prefetch */),
        Custom(&'static str),
    }
    let variants: Vec<(&'static str, Variant)> = vec![
        ("RL (reference)", Variant::Kind(MemKind::Rl, true)),
        ("RL random mapping (paper: +2.1%)", Variant::Kind(MemKind::RlRandom, true)),
        ("RL no prefetcher (paper: +17.3%)", Variant::Kind(MemKind::Rl, false)),
        ("RL striped 4-chip fast store", Variant::Custom("striped")),
        ("RL private fast cmd buses", Variant::Custom("private")),
        ("RL close-page LPDDR2", Variant::Custom("closedlp")),
        ("DDR3 strict-FCFS scheduling", Variant::Custom("fcfs")),
        ("DDR3 page-interleaved channels", Variant::Custom("pagemap")),
    ];

    // Baselines: prefetch-on and prefetch-off DDR3.
    let tasks: Vec<(String, usize)> = benches
        .iter()
        .flat_map(|b| (0..variants.len() + 2).map(move |v| ((*b).to_owned(), v)))
        .collect();
    let variants_ref = &variants;
    let results: Vec<f64> = parallel_map(&tasks, jobs(), move |(bench, v)| {
        let paper = |mem, prefetch: bool| {
            let mut c = RunConfig::paper(mem, reads);
            c.prefetch = prefetch;
            c
        };
        match *v {
            0 => run_benchmark(&paper(MemKind::Ddr3, true), bench).ipc_total(),
            1 => run_benchmark(&paper(MemKind::Ddr3, false), bench).ipc_total(),
            i => match &variants_ref[i - 2].1 {
                Variant::Kind(kind, prefetch) => {
                    run_benchmark(&paper(*kind, *prefetch), bench).ipc_total()
                }
                Variant::Custom(which) => {
                    let is_rl = !matches!(*which, "fcfs" | "pagemap");
                    let cfg = paper(if is_rl { MemKind::Rl } else { MemKind::Ddr3 }, true);
                    let make = || -> MemBackend {
                        match *which {
                            "striped" => {
                                MemBackend::Cwf(HeteroCwfMemory::new(striped_fast_config()))
                            }
                            "private" => MemBackend::Cwf(HeteroCwfMemory::new(
                                CwfConfig::rl().with_private_fast_buses(),
                            )),
                            "closedlp" => {
                                let mut c = CwfConfig::rl();
                                c.slow.page_policy = dram_timing::PagePolicy::Closed;
                                MemBackend::Cwf(HeteroCwfMemory::new(c))
                            }
                            "fcfs" => {
                                let params = mem_ctrl::CtrlParams {
                                    policy: mem_ctrl::SchedPolicy::Fcfs,
                                    ..mem_ctrl::CtrlParams::default()
                                };
                                MemBackend::Homogeneous(HomogeneousMemory::new(
                                    DeviceConfig::ddr3_1600(),
                                    4,
                                    1,
                                    9,
                                    params,
                                ))
                            }
                            "pagemap" => MemBackend::Homogeneous(HomogeneousMemory::with_scheme(
                                DeviceConfig::ddr3_1600(),
                                4,
                                1,
                                9,
                                mem_ctrl::CtrlParams::default(),
                                mem_ctrl::MappingScheme::PageInterleave,
                            )),
                            _ => unreachable!("known variant"),
                        }
                    };
                    ipc_custom(&cfg, bench, make)
                }
            },
        }
    });
    let by_task: BTreeMap<(String, usize), f64> = tasks.into_iter().zip(results).collect();

    let mut t = Table::new(
        "Ablations: mean throughput normalized to the matching DDR3 baseline",
        &["variant", "normalized throughput"],
    );
    for (i, (label, variant)) in variants.iter().enumerate() {
        let norm = mean(benches.iter().map(|b| {
            let baseline_idx = match variant {
                Variant::Kind(_, false) => 1, // compare against no-prefetch baseline
                _ => 0,
            };
            let base = by_task[&((*b).to_owned(), baseline_idx)];
            let ws = by_task[&((*b).to_owned(), i + 2)];
            ws / base.max(1e-9)
        }));
        t.row(vec![(*label).to_owned(), format!("{norm:.3}")]);
    }
    t
}

/// The §7.1 profiling pass: run `profile` under `cfg` on the DDR3
/// baseline with a per-page access tally, and return the counts with the
/// top 7.6% of touched pages — the ones the paper pins in RLDRAM3.
#[must_use]
pub fn profile_hot_pages(
    cfg: &RunConfig,
    profile: &BenchmarkProfile,
) -> (BTreeMap<u64, u64>, BTreeSet<u64>) {
    let tally = MemBackend::Homogeneous(HomogeneousMemory::baseline_ddr3().with_page_tally());
    let mut sys = System::with_backend(cfg, profile, tally);
    let _ = sys.run();
    let counts = sys.hierarchy().memory().page_counts().expect("tallying backend").clone();
    let hot = hot_pages(&counts, 0.076);
    (counts, hot)
}

/// §7.1 page placement and §7.2 unterminated-LPDDR alternatives.
#[must_use]
pub fn alternatives(benches: &[&str], reads: u64) -> (Table, Table) {
    // --- §7.1: profile-guided page placement ---
    let rows: Vec<(String, f64, f64)> = parallel_map(benches, jobs(), |bench| {
        let profile = by_name(bench).expect("known benchmark");
        let (counts, hot) = profile_hot_pages(&RunConfig::paper(MemKind::Ddr3, reads / 2), profile);
        let cfg = RunConfig::paper(MemKind::Ddr3, reads);
        let ws_pp =
            ipc_custom(&cfg, bench, || MemBackend::PagePlaced(PagePlacedMemory::new(hot.clone())));
        let ws_base = run_benchmark(&cfg, bench).ipc_total();
        let hot_frac = {
            let total: u64 = counts.values().sum();
            let hot_count: u64 =
                counts.iter().filter(|(p, _)| hot.contains(p)).map(|(_, c)| *c).sum();
            hot_count as f64 / total.max(1) as f64
        };
        ((*bench).to_owned(), ws_pp / ws_base.max(1e-9), hot_frac)
    });
    let mut t71 = Table::new(
        "§7.1 page placement: top 7.6% of pages in RLDRAM3 (paper: -9.3%..+11.2%, avg ~+8%)",
        &["bench", "normalized throughput", "accesses to hot pages"],
    );
    for (bench, norm, hot_frac) in &rows {
        t71.row(vec![bench.clone(), format!("{norm:.3}"), pct(*hot_frac)]);
    }
    t71.row(vec![
        "MEAN".into(),
        format!("{:.3}", mean(rows.iter().map(|r| r.1))),
        pct(mean(rows.iter().map(|r| r.2))),
    ]);
    t71.note("paper: top pages capture at most ~30% of accesses, limiting page-granularity gains");

    // --- §7.2: Malladi-style unterminated LPDDR ---
    let sweep_rows = sweep(benches, &[MemKind::Rl], reads);
    let mut t72 = Table::new(
        "§7.2 unterminated LPDDR2 (Malladi-style): RL system energy vs DDR3 (paper: savings -> 26.1%)",
        &["bench", "server-adapted", "unterminated"],
    );
    for r in &sweep_rows {
        let rl = r.metrics(MemKind::Rl).expect("swept");
        t72.row(vec![
            r.bench.clone(),
            format!("{:.3}", system_energy_ratio(&r.base, rl, LpddrIo::ServerAdapted)),
            format!("{:.3}", system_energy_ratio(&r.base, rl, LpddrIo::Unterminated)),
        ]);
    }
    t72.row(vec![
        "MEAN".into(),
        format!(
            "{:.3}",
            mean(sweep_rows.iter().map(|r| system_energy_ratio(
                &r.base,
                r.metrics(MemKind::Rl).expect("swept"),
                LpddrIo::ServerAdapted
            )))
        ),
        format!(
            "{:.3}",
            mean(sweep_rows.iter().map(|r| system_energy_ratio(
                &r.base,
                r.metrics(MemKind::Rl).expect("swept"),
                LpddrIo::Unterminated
            )))
        ),
    ]);
    (t71, t72)
}

// ---------------------------------------------------------------------------
// DRAM-cache head-to-head: CWF vs tags-in-DRAM cache vs page placement.
// ---------------------------------------------------------------------------

/// Head-to-head of the three heterogeneity disciplines over one workload
/// set: the paper's word-granularity CWF split (`RL`), a conventional
/// tags-in-DRAM line cache in front of a slow bulk store
/// (`dramcache:rldram3+nvm_slow`), and §7.1-style profile-guided page
/// placement. Throughput is normalized to the DDR3 baseline; the last
/// column reports the DRAM cache's read hit rate (blank for the others).
///
/// The workload set is fixed: the three DRAM-cache stressors plus two
/// suite programs, so the table shows both where the cache collapses and
/// where it recovers. `dcsweep` streams a footprint larger than the cache
/// (hit rate collapses, every miss pays probe + NVM fill), `dcthrash`
/// rotates hot windows faster than the cache can relearn them, and
/// `dcresident` parks a working set that fits; CWF and page placement
/// keep their fast-store benefit because neither depends on reuse.
#[must_use]
pub fn dramcache_head_to_head(reads: u64) -> Table {
    const VARIANTS: usize = 4; // 0 = DDR3 base, 1 = RL, 2 = DRAM cache, 3 = page placement
    let benches = ["dcsweep", "dcthrash", "dcresident", "mcf", "stream"];
    // Residency needs at least one full pass over `dcresident`'s 12 MiB
    // working set (196608 lines) before hits can exist; shorter runs would
    // report a structurally-zero hit column.
    let reads = reads.max(150_000);
    let dc_kind = MemKind::DramCache(DeviceKind::Rldram3, DeviceKind::NvmSlow);
    let tasks: Vec<(String, usize)> =
        benches.iter().flat_map(|b| (0..VARIANTS).map(move |v| ((*b).to_owned(), v))).collect();
    let results: Vec<(f64, Option<f64>)> =
        parallel_map(&tasks, jobs(), move |(bench, v)| match *v {
            0 => (run_benchmark(&RunConfig::paper(MemKind::Ddr3, reads), bench).ipc_total(), None),
            1 => (run_benchmark(&RunConfig::paper(MemKind::Rl, reads), bench).ipc_total(), None),
            2 => {
                let cfg = RunConfig::paper(dc_kind, reads);
                let profile = by_name(bench).expect("known benchmark");
                let mut sys = System::new(&cfg, profile);
                let m = sys.run();
                let hit = sys.hierarchy().memory().dramcache_stats().map(|s| s.read_hit_rate());
                (m.ipc_total(), hit)
            }
            _ => {
                let profile = by_name(bench).expect("known benchmark");
                let (_, hot) =
                    profile_hot_pages(&RunConfig::paper(MemKind::Ddr3, reads / 2), profile);
                let cfg = RunConfig::paper(MemKind::Ddr3, reads);
                (
                    ipc_custom(&cfg, bench, || {
                        MemBackend::PagePlaced(PagePlacedMemory::new(hot.clone()))
                    }),
                    None,
                )
            }
        });
    let by_task: BTreeMap<(String, usize), (f64, Option<f64>)> =
        tasks.into_iter().zip(results).collect();

    let mut t = Table::new(
        "DRAM-cache head-to-head: throughput normalized to DDR3",
        &["bench", "CWF (RL)", "DRAM cache (RLDRAM3+NVM)", "page placement", "DC read hit rate"],
    );
    let mut means = [Vec::new(), Vec::new(), Vec::new()];
    for b in &benches {
        let base = by_task[&((*b).to_owned(), 0)].0.max(1e-9);
        let norm: Vec<f64> =
            (1..VARIANTS).map(|v| by_task[&((*b).to_owned(), v)].0 / base).collect();
        for (m, n) in means.iter_mut().zip(&norm) {
            m.push(*n);
        }
        let hit = by_task[&((*b).to_owned(), 2)].1.map_or_else(String::new, pct);
        t.row(vec![
            (*b).to_owned(),
            format!("{:.3}", norm[0]),
            format!("{:.3}", norm[1]),
            format!("{:.3}", norm[2]),
            hit,
        ]);
    }
    t.row(vec![
        "MEAN".into(),
        format!("{:.3}", mean(means[0].iter().copied())),
        format!("{:.3}", mean(means[1].iter().copied())),
        format!("{:.3}", mean(means[2].iter().copied())),
        String::new(),
    ]);
    t.note("DRAM cache pays a tag probe on every access and an NVM fill on every miss;");
    t.note("CWF and page placement never probe — their fast-store benefit is reuse-independent");
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig2_is_fast_and_ordered() {
        let t = fig2_power_utilization();
        assert_eq!(t.rows.len(), 11);
        // First row (0% util): RLDRAM3 > DDR3 > LPDDR2.
        let parse = |s: &String| s.parse::<f64>().expect("numeric cell");
        let r0 = &t.rows[0];
        assert!(parse(&r0[1]) > parse(&r0[2]));
        assert!(parse(&r0[2]) > parse(&r0[3]));
    }

    #[test]
    fn critical_word_profile_matches_figure4_expectations() {
        let (hist, _) = critical_word_profile("libquantum", 3_000);
        let total: u64 = hist.iter().sum();
        assert!(hist[0] as f64 / total as f64 > 0.5);
        let (hist, _) = critical_word_profile("xalancbmk", 3_000);
        let total: u64 = hist.iter().sum();
        assert!((hist[0] as f64 / total as f64) < 0.5);
    }

    #[test]
    fn fig3_reports_dominant_words() {
        let t = fig3_line_profiles(2_000);
        assert!(t.rows.len() >= 8);
        assert!(t.rows.iter().any(|r| r[0] == "leslie3d"));
        assert!(t.rows.iter().any(|r| r[0] == "mcf"));
    }

    #[test]
    fn small_sweep_produces_complete_rows() {
        let rows = sweep(&["stream"], &[MemKind::Rl], 600);
        assert_eq!(rows.len(), 1);
        let n = rows[0].normalized(MemKind::Rl);
        assert!(n.is_finite() && n > 0.0);
        assert!(rows[0].metrics(MemKind::Rl).is_some());
    }
}
