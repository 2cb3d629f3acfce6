//! One driver per paper figure/table (see DESIGN.md §5 for the index).
//!
//! The analytic figures (2, 3, 4) are functions returning [`Table`]s.
//! Every simulated one is a [`Figure`]: the cells it needs per bench and
//! a render function over their results. `cwfmem figures` plans the
//! union of the selected figures' cells on one [`Plan`], so a cell two
//! figures share (the DDR3 baseline above all) simulates once. Workload
//! size is the caller's `reads` parameter (the paper runs 2 M DRAM
//! reads; `cwfmem figures` defaults to a scaled-down value, which
//! preserves orderings because the generators are stationary).

use std::collections::BTreeMap;

use cache_hier::{Cache, CacheCfg, LineMeta};
use cpu_model::{TraceOp, TraceSource};
use dram_power::{power_at_utilization, IddTable, LpddrIo, SystemEnergyModel};
use dram_timing::{DeviceConfig, DeviceKind};
use workloads::{by_name, suite, TraceGen};

use crate::config::{MemKind, RunConfig};
use crate::metrics::RunMetrics;
use crate::report::{pct, pct_delta, Table};
use crate::runner::RunOutcome;
pub use crate::sweep::profile_hot_pages;
use crate::sweep::{jobs, parallel_map, Cell, Plan, PlanResults, Variant};

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

/// One figure cell at the paper config: the kind, whether the
/// prefetcher is on, and the memory variant.
type Spec = (MemKind, bool, Variant);

/// The preset `mem` with the prefetcher on.
const fn paper(mem: MemKind) -> Spec {
    (mem, true, Variant::Preset)
}

/// A figure's tables, from the rows of the benches whose cells all
/// completed clean.
type Render = fn(&[Row<'_>]) -> Vec<Table>;

/// One simulated figure: the cells it needs per bench, and the tables it
/// renders from their results.
#[derive(Debug)]
pub struct Figure {
    /// The `cwfmem figures` name.
    pub name: &'static str,
    /// The cells each bench needs, in the order `render` reads them.
    cells: &'static [Spec],
    render: Render,
    /// A fixed workload set and read floor replacing the caller's.
    fixed: Option<(&'static [&'static str], u64)>,
}

/// One bench's results in a [`Figure`], in the order of its cells: each
/// cell's outcome and hot-page share ([`PlanResults::get`]).
struct Row<'a> {
    bench: &'a str,
    cells: Vec<(&'a RunOutcome, Option<f64>)>,
}

impl Row<'_> {
    fn m(&self, i: usize) -> &RunMetrics {
        &self.cells[i].0.metrics
    }

    /// Throughput of cell `i` normalized to cell `base`.
    ///
    /// All runs execute the same rate-mode workload (N copies / threads
    /// of one program), so the aggregate-IPC ratio equals the normalized
    /// weighted speedup up to the (config-insensitive) `IPC_alone`
    /// factor, while being far less sensitive to short-run noise.
    fn norm(&self, i: usize, base: usize) -> f64 {
        self.m(i).ipc_total() / self.m(base).ipc_total().max(1e-9)
    }
}

impl Figure {
    const fn per_bench(name: &'static str, cells: &'static [Spec], render: Render) -> Self {
        Figure { name, cells, render, fixed: None }
    }

    /// `bench`'s cells at `reads` (the caller's benches and reads, unless
    /// the figure fixes them).
    fn grid<'a>(&self, benches: &[&'a str], reads: u64) -> Vec<(&'a str, Vec<Cell>)> {
        let (benches, reads) = match self.fixed {
            Some((fixed, floor)) => (fixed.to_vec(), reads.max(floor)),
            None => (benches.to_vec(), reads),
        };
        let cell = |bench, &(mem, prefetch, variant): &Spec| {
            Cell::new(bench, RunConfig { prefetch, ..RunConfig::paper(mem, reads) }, variant)
        };
        benches.into_iter().map(|b| (b, self.cells.iter().map(|s| cell(b, s)).collect())).collect()
    }

    /// Request this figure's cells from `plan`.
    pub fn plan(&self, plan: &mut Plan, benches: &[&str], reads: u64) {
        for cell in self.grid(benches, reads).into_iter().flat_map(|(_, cells)| cells) {
            plan.add(cell);
        }
    }

    /// Render from a run plan's `results`. A bench missing any cell it
    /// needs (failed, unclean, or not planned) is left out of every row
    /// and mean.
    #[must_use]
    pub fn render(&self, benches: &[&str], reads: u64, results: &PlanResults) -> Vec<Table> {
        let rows: Vec<Row<'_>> = self
            .grid(benches, reads)
            .into_iter()
            .filter_map(|(bench, cells)| {
                let cells = cells.iter().map(|c| results.get(c)).collect::<Option<_>>()?;
                Some(Row { bench, cells })
            })
            .collect();
        (self.render)(&rows)
    }
}

/// The simulated figures, in `cwfmem figures all` order.
pub static FIGURES: [Figure; 7] = {
    use MemKind::{Ddr3, Dl, Lpddr2, Rd, Rl, RlAdaptive, RlOracle, Rldram3};
    let rl_placements =
        &[paper(Ddr3), paper(Rl), paper(RlAdaptive), paper(RlOracle), paper(Rldram3)];
    // §7.1: DDR3 and page placement on DDR3; §7.2: DDR3 and RL. The two
    // DDR3 requests are one cell.
    let alternatives = &[paper(Ddr3), (Ddr3, true, Variant::PagePlaced), paper(Ddr3), paper(Rl)];
    [
        Figure::per_bench("fig1", &[paper(Ddr3), paper(Rldram3), paper(Lpddr2)], fig1_render),
        Figure::per_bench("fig6", &[paper(Ddr3), paper(Rd), paper(Rl), paper(Dl)], fig6_render),
        Figure::per_bench("fig9", rl_placements, fig9_render),
        Figure::per_bench("fig10", &[paper(Ddr3), paper(Rl), paper(Dl)], fig10_render),
        Figure::per_bench("ablations", &ABLATION_CELLS, ablation_render),
        Figure::per_bench("alternatives", alternatives, alternative_render),
        Figure {
            name: "dramcache",
            cells: &[
                paper(Ddr3),
                paper(Rl),
                paper(MemKind::DramCache(DeviceKind::Rldram3, DeviceKind::NvmSlow)),
                (Ddr3, true, Variant::PagePlaced),
            ],
            render: dramcache_render,
            // Residency needs at least one full pass over `dcresident`'s
            // 12 MiB working set (196608 lines) before hits can exist;
            // shorter runs would report a structurally-zero hit column.
            fixed: Some((&DRAMCACHE_BENCHES, 150_000)),
        },
    ]
};

/// The simulated figure called `name`.
#[must_use]
pub fn figure(name: &str) -> Option<&'static Figure> {
    FIGURES.iter().find(|f| f.name == name)
}

/// A table of cells `1..columns.len()` normalized to cell 0: one row per
/// bench, then their MEAN.
fn normalized(title: &str, columns: &[&str], rows: &[Row<'_>]) -> Table {
    let mut t = Table::new(title, columns);
    let n = columns.len();
    for r in rows {
        let mut cells = vec![r.bench.to_owned()];
        cells.extend((1..n).map(|i| format!("{:.3}", r.norm(i, 0))));
        t.row(cells);
    }
    let mut cells = vec!["MEAN".to_owned()];
    cells.extend((1..n).map(|i| format!("{:.3}", mean(rows.iter().map(|r| r.norm(i, 0))))));
    t.row(cells);
    t
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
fn fig1_render(rows: &[Row<'_>]) -> Vec<Table> {
    let t1 = normalized(
        "Figure 1a: homogeneous throughput normalized to DDR3 (paper: RLDRAM3 +31%, LPDDR2 -13%)",
        &["bench", "RLDRAM3", "LPDDR2"],
        rows,
    );

    let mut t2 = Table::new(
        "Figure 1b: DRAM read latency breakdown, ns (queue + core/service)",
        &["bench", "DDR3 queue", "DDR3 core", "RLD queue", "RLD core", "LP queue", "LP core"],
    );
    for r in rows {
        let mut cells = vec![r.bench.to_owned()];
        for i in 0..3 {
            cells.push(format!("{:.1}", r.m(i).mem_stats.avg_queue_ns()));
            cells.push(format!("{:.1}", r.m(i).mem_stats.avg_service_ns()));
        }
        t2.row(cells);
    }
    t2.note("paper: RLDRAM3 average access time ~43% below DDR3, mostly from queue latency");
    vec![t1, t2]
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
/// RLDRAM3) from one set of cells over RD / RL / DL.
fn fig6_render(rows: &[Row<'_>]) -> Vec<Table> {
    let t6 = normalized(
        "Figure 6: CWF throughput normalized to DDR3 (paper: RD +21%, RL +12.9%, DL -9%)",
        &["bench", "RD", "RL", "DL"],
        rows,
    );

    let mut t7 = Table::new(
        "Figure 7: mean critical-word latency, ns (paper: RD -30%, RL -22% vs DDR3)",
        &["bench", "DDR3", "RD", "RL", "DL"],
    );
    for r in rows {
        let mut cells = vec![r.bench.to_owned()];
        cells.extend((0..4).map(|i| format!("{:.1}", r.m(i).avg_cw_latency_ns())));
        t7.row(cells);
    }
    let mean_ratio = |i: usize| {
        mean(rows.iter().map(|r| r.m(i).avg_cw_latency_ns() / r.m(0).avg_cw_latency_ns()))
    };
    t7.note(&format!(
        "mean critical-word latency vs DDR3: RD {}, RL {}, DL {}",
        pct_delta(mean_ratio(1)),
        pct_delta(mean_ratio(2)),
        pct_delta(mean_ratio(3)),
    ));

    let mut t8 = Table::new(
        "Figure 8: % of critical words served by the fast DIMM under RL (paper avg: 67%)",
        &["bench", "served fast", "avg head start (cpu cycles)"],
    );
    for r in rows {
        let cwf = r.m(2).cwf.expect("RL is CWF");
        t8.row(vec![
            r.bench.to_owned(),
            pct(cwf.served_fast_fraction()),
            format!("{:.0}", cwf.avg_head_start()),
        ]);
    }
    t8.note(
        "head start is the fast part's arrival lead over the slow part (paper: ~70 CPU cycles)",
    );
    vec![t6, t7, t8]
}

// ---------------------------------------------------------------------------
// Figure 9: adaptive and oracular placement.
// ---------------------------------------------------------------------------

/// Figure 9: RL vs RL-AD vs RL-OR vs all-RLDRAM3 (paper: 12.9% < 15.7% <
/// 28% < 31%).
fn fig9_render(rows: &[Row<'_>]) -> Vec<Table> {
    let mut t = normalized(
        "Figure 9: placement schemes, throughput normalized to DDR3",
        &["bench", "RL", "RL AD", "RL OR", "RLDRAM3"],
        rows,
    );
    t.note("expected ordering: RL < RL AD < RL OR < RLDRAM3");
    vec![t]
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
fn fig10_render(rows: &[Row<'_>]) -> Vec<Table> {
    let io = LpddrIo::ServerAdapted;
    let sys = |r: &Row<'_>, i| system_energy_ratio(r.m(0), r.m(i), io);
    let mut t10 = Table::new(
        "Figure 10: system energy normalized to DDR3 (paper: RL -6%, DL -13%; RL memory energy -15%)",
        &["bench", "RL system", "DL system", "RL memory", "RL mem power"],
    );
    for r in rows {
        t10.row(vec![
            r.bench.to_owned(),
            format!("{:.3}", sys(r, 1)),
            format!("{:.3}", sys(r, 2)),
            format!("{:.3}", memory_energy_ratio(r.m(0), r.m(1), io)),
            format!("{:.3}", r.m(1).dram_power_w(io) / r.m(0).dram_power_w(io).max(1e-9)),
        ]);
    }
    t10.row(vec![
        "MEAN".into(),
        format!("{:.3}", mean(rows.iter().map(|r| sys(r, 1)))),
        format!("{:.3}", mean(rows.iter().map(|r| sys(r, 2)))),
        format!("{:.3}", mean(rows.iter().map(|r| memory_energy_ratio(r.m(0), r.m(1), io)))),
        String::new(),
    ]);

    let mut t11 = Table::new(
        "Figure 11: RL system-energy savings vs baseline bandwidth utilization",
        &["bench", "bus util", "energy saving"],
    );
    let mut pts: Vec<(&str, f64, f64)> =
        rows.iter().map(|r| (r.bench, r.m(0).bus_utilization(), 1.0 - sys(r, 1))).collect();
    pts.sort_by(|a, b| a.1.total_cmp(&b.1));
    for (bench, util, saving) in &pts {
        t11.row(vec![(*bench).to_owned(), pct(*util), pct(*saving)]);
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
    vec![t10, t11]
}

// ---------------------------------------------------------------------------
// §6.1.1 / §4.2.4 ablations and §7 alternatives.
// ---------------------------------------------------------------------------

/// The prefetch-on and prefetch-off DDR3 baselines, then the §6.1.1
/// ablations (random mapping, no prefetcher) and the §4.2.4 design
/// choices (sub-ranking, shared command bus, LPDDR2 page policy), each
/// normalized to the baseline with its prefetcher setting.
const ABLATION_CELLS: [Spec; 10] = [
    paper(MemKind::Ddr3),
    (MemKind::Ddr3, false, Variant::Preset),
    paper(MemKind::Rl),
    paper(MemKind::RlRandom),
    (MemKind::Rl, false, Variant::Preset),
    (MemKind::Rl, true, Variant::Striped),
    (MemKind::Rl, true, Variant::Private),
    (MemKind::Rl, true, Variant::ClosedLp),
    (MemKind::Ddr3, true, Variant::Fcfs),
    (MemKind::Ddr3, true, Variant::PageMap),
];

/// Labels of `ABLATION_CELLS[2..]`.
const ABLATION_LABELS: [&str; 8] = [
    "RL (reference)",
    "RL random mapping (paper: +2.1%)",
    "RL no prefetcher (paper: +17.3%)",
    "RL striped 4-chip fast store",
    "RL private fast cmd buses",
    "RL close-page LPDDR2",
    "DDR3 strict-FCFS scheduling",
    "DDR3 page-interleaved channels",
];

fn ablation_render(rows: &[Row<'_>]) -> Vec<Table> {
    let mut t = Table::new(
        "Ablations: mean throughput normalized to the matching DDR3 baseline",
        &["variant", "normalized throughput"],
    );
    for (i, label) in ABLATION_LABELS.iter().enumerate() {
        let base = usize::from(!ABLATION_CELLS[i + 2].1);
        let norm = mean(rows.iter().map(|r| r.norm(i + 2, base)));
        t.row(vec![(*label).to_owned(), format!("{norm:.3}")]);
    }
    vec![t]
}

/// §7.1 page placement and §7.2 unterminated-LPDDR alternatives.
fn alternative_render(rows: &[Row<'_>]) -> Vec<Table> {
    let hot_share = |r: &Row<'_>| r.cells[1].1.expect("page-placed cells report it");
    let mut t71 = Table::new(
        "§7.1 page placement: top 7.6% of pages in RLDRAM3 (paper: -9.3%..+11.2%, avg ~+8%)",
        &["bench", "normalized throughput", "accesses to hot pages"],
    );
    for r in rows {
        t71.row(vec![r.bench.to_owned(), format!("{:.3}", r.norm(1, 0)), pct(hot_share(r))]);
    }
    t71.row(vec![
        "MEAN".into(),
        format!("{:.3}", mean(rows.iter().map(|r| r.norm(1, 0)))),
        pct(mean(rows.iter().map(hot_share))),
    ]);
    t71.note("paper: top pages capture at most ~30% of accesses, limiting page-granularity gains");

    // --- §7.2: Malladi-style unterminated LPDDR ---
    let sys = |r: &Row<'_>, io| system_energy_ratio(r.m(2), r.m(3), io);
    let mut t72 = Table::new(
        "§7.2 unterminated LPDDR2 (Malladi-style): RL system energy vs DDR3 (paper: savings -> 26.1%)",
        &["bench", "server-adapted", "unterminated"],
    );
    for r in rows {
        t72.row(vec![
            r.bench.to_owned(),
            format!("{:.3}", sys(r, LpddrIo::ServerAdapted)),
            format!("{:.3}", sys(r, LpddrIo::Unterminated)),
        ]);
    }
    t72.row(vec![
        "MEAN".into(),
        format!("{:.3}", mean(rows.iter().map(|r| sys(r, LpddrIo::ServerAdapted)))),
        format!("{:.3}", mean(rows.iter().map(|r| sys(r, LpddrIo::Unterminated)))),
    ]);
    vec![t71, t72]
}

// ---------------------------------------------------------------------------
// DRAM-cache head-to-head: CWF vs tags-in-DRAM cache vs page placement.
// ---------------------------------------------------------------------------

/// The head-to-head's fixed workload set: the three DRAM-cache stressors
/// plus two suite programs, so the table shows both where the cache
/// collapses and where it recovers. `dcsweep` streams a footprint larger
/// than the cache (hit rate collapses, every miss pays probe + NVM fill),
/// `dcthrash` rotates hot windows faster than the cache can relearn them,
/// and `dcresident` parks a working set that fits; CWF and page placement
/// keep their fast-store benefit because neither depends on reuse.
const DRAMCACHE_BENCHES: [&str; 5] = ["dcsweep", "dcthrash", "dcresident", "mcf", "stream"];

/// Head-to-head of the three heterogeneity disciplines: the paper's
/// word-granularity CWF split (`RL`), a conventional tags-in-DRAM line
/// cache in front of a slow bulk store (`dramcache:rldram3+nvm_slow`),
/// and §7.1-style profile-guided page placement. Throughput is
/// normalized to the DDR3 baseline; the last column reports the DRAM
/// cache's read hit rate.
fn dramcache_render(rows: &[Row<'_>]) -> Vec<Table> {
    let mut t = Table::new(
        "DRAM-cache head-to-head: throughput normalized to DDR3",
        &["bench", "CWF (RL)", "DRAM cache (RLDRAM3+NVM)", "page placement", "DC read hit rate"],
    );
    for r in rows {
        let hit = r.cells[2].0.dramcache.map_or_else(String::new, |s| pct(s.read_hit_rate()));
        let mut cells = vec![r.bench.to_owned()];
        cells.extend((1..4).map(|i| format!("{:.3}", r.norm(i, 0))));
        cells.push(hit);
        t.row(cells);
    }
    let mut cells = vec!["MEAN".to_owned()];
    cells.extend((1..4).map(|i| format!("{:.3}", mean(rows.iter().map(|r| r.norm(i, 0))))));
    cells.push(String::new());
    t.row(cells);
    t.note("DRAM cache pays a tag probe on every access and an NVM fill on every miss;");
    t.note("CWF and page placement never probe — their fast-store benefit is reuse-independent");
    vec![t]
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
}
