//! Parallel, deterministic experiment sweeps.
//!
//! A sweep is a grid of independent simulation [`Cell`]s — a workload, a
//! [`RunConfig`] and a memory [`Variant`] each — executed across a pool of
//! worker threads. [`Cell::run`] is the one function that simulates a cell
//! and [`CellResult`] the one verdict. Three properties define the harness
//! (DESIGN.md has the full contract):
//!
//! * **Determinism.** Every cell's seed is a pure function of the base
//!   seed and the cell's identity ([`cell_seed`]), fixed *before* any
//!   thread runs, and each cell simulates in complete isolation. The
//!   result vector is therefore bit-identical for any worker count —
//!   `CWF_JOBS=1` and `CWF_JOBS=16` produce the same bytes.
//! * **Panic isolation.** A cell that panics becomes
//!   [`CellResult::Failed`] carrying the panic message; the other cells
//!   and the sweep itself keep running. A cell whose verify oracle found a
//!   violation completes but fails the verdict too ([`CellResult::failure`]).
//! * **Ordered aggregation.** Results come back in input order
//!   regardless of which worker finished first.
//!
//! A [`Plan`] is a sweep that several consumers share: each requests the
//! cells it needs, identical requests collapse onto one [`CellKey`], and
//! every distinct cell simulates once. `cwfmem sweep`, `figures` and
//! `compare` run through one; `cwfmem serve` dedupes on the same key and
//! runs each claimed cell through [`Cell::run`].
//!
//! The worker count comes from the `CWF_JOBS` environment variable
//! (default: all available cores); [`Plan::run`] takes it explicitly, so
//! tests need not race on process-global state.

use std::collections::{BTreeMap, BTreeSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use cwf_ckpt::Ckpt;
use cwf_core::{hot_pages, CwfConfig, HeteroCwfMemory, PagePlacedMemory};
use dram_timing::{DeviceConfig, PagePolicy};
use mem_ctrl::{CtrlParams, HomogeneousMemory, MappingScheme, SchedPolicy};
use workloads::{by_name, BenchmarkProfile};

use crate::config::{MemBackend, MemKind, RunConfig};
use crate::runner::{run_benchmark_outcome, RunOutcome};
use crate::system::System;

/// One unit of sweep work: a benchmark under a configuration, on the
/// memory its variant builds.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Benchmark name (must resolve via `workloads::by_name`: the 27
    /// suite programs or the `dcsweep`/`dcthrash`/`dcresident` stressors).
    pub bench: String,
    /// Full run configuration, including the per-cell seed.
    pub cfg: RunConfig,
    /// How the cell's memory is built.
    pub variant: Variant,
}

impl Cell {
    /// `bench` under `cfg`, with the memory `variant` builds.
    #[must_use]
    pub fn new(bench: &str, cfg: RunConfig, variant: Variant) -> Self {
        Cell { bench: bench.to_owned(), cfg, variant }
    }

    /// The cell's identity: equal keys simulate to equal results, so the
    /// plan and the dse result cache run each key once.
    #[must_use]
    pub fn key(&self) -> CellKey {
        CellKey {
            digest: config_digest(&self.bench, &self.cfg),
            seed: self.cfg.seed,
            variant: self.variant,
        }
    }

    /// Simulate the cell. A panic becomes [`CellResult::Failed`]; a
    /// completed run is [`CellResult::Done`], clean or not.
    #[must_use]
    pub fn run(&self) -> CellResult {
        let mut hot_share = None;
        let result = CellResult::catch(self, || {
            let (backend, share) = self.variant.backend(&self.cfg, &self.bench);
            hot_share = share;
            run_benchmark_outcome(&self.cfg, &self.bench, backend)
        });
        match result {
            CellResult::Done { outcome, .. } => CellResult::Done { outcome, hot_share },
            failed => failed,
        }
    }
}

/// Outcome of one cell.
///
/// `Done` dwarfs `Failed` because metrics embed latency histograms, but a
/// sweep holds one result per cell — boxing would only complicate every
/// consumer.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
pub enum CellResult {
    /// The cell ran to completion, clean or not.
    Done {
        /// Everything the run reports.
        outcome: RunOutcome,
        /// [`Variant::PagePlaced`] only: the share of the profiling
        /// pass's accesses that went to the pages placed in RLDRAM3.
        hot_share: Option<f64>,
    },
    /// The cell panicked; the sweep continued without it.
    Failed {
        /// Benchmark of the failed cell.
        bench: String,
        /// Memory organization of the failed cell.
        mem: MemKind,
        /// Panic payload rendered as text.
        error: String,
    },
}

impl CellResult {
    /// Run `cell` through `run`, turning a panic into
    /// [`CellResult::Failed`]. This is the workspace's one `catch_unwind`;
    /// [`Cell::run`], which every front end (`cwfmem sweep`, `figures`,
    /// `compare`, `serve`) runs its cells through, calls it.
    pub fn catch(cell: &Cell, run: impl FnOnce() -> RunOutcome) -> CellResult {
        // AssertUnwindSafe: `run` only touches the cell (read-only) and
        // its own fresh System; a panic cannot leave shared state
        // half-mutated.
        match catch_unwind(AssertUnwindSafe(run)) {
            Ok(outcome) => CellResult::Done { outcome, hot_share: None },
            Err(payload) => CellResult::Failed {
                bench: cell.bench.clone(),
                mem: cell.cfg.mem,
                // `&*payload`, not `&payload`: the Box itself is `Any` and
                // would shadow the payload.
                error: panic_text(&*payload),
            },
        }
    }

    /// The outcome, if the cell completed (clean or not).
    #[must_use]
    pub fn outcome(&self) -> Option<&RunOutcome> {
        match self {
            CellResult::Done { outcome, .. } => Some(outcome),
            CellResult::Failed { .. } => None,
        }
    }

    /// The sweep verdict: `None` for a cell that completed clean
    /// ([`RunOutcome::is_clean`]), else the line reporting it —
    /// `FAILED bench/kind: <panic>` or `UNCLEAN bench/kind: N violation(s)`.
    #[must_use]
    pub fn failure(&self) -> Option<String> {
        match self {
            CellResult::Done { outcome: o, .. } if o.is_clean() => None,
            CellResult::Done { outcome: o, .. } => Some(format!(
                "UNCLEAN {}/{}: {} violation(s)",
                o.metrics.bench,
                o.metrics.mem.label(),
                o.verify.as_ref().map_or(0, |v| v.total_violations)
            )),
            CellResult::Failed { bench, mem, error } => {
                Some(format!("FAILED {bench}/{}: {error}", mem.label()))
            }
        }
    }
}

/// Worker-thread count: `CWF_JOBS` if set and positive, otherwise the
/// machine's available parallelism.
#[must_use]
pub fn jobs() -> usize {
    std::env::var("CWF_JOBS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(4, std::num::NonZero::get))
}

/// The workspace's one stable 64-bit hash: FNV-1a over `parts` (in
/// order, no separators) from the offset basis XOR `key`, then the
/// SplitMix64 finalizer. [`cell_seed`] and the result cache's config
/// digest are both this function, so their values are pinned together.
#[must_use]
pub fn fnv_mix(key: u64, parts: &[&[u8]]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64 ^ key;
    for &b in parts.iter().copied().flatten() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    // SplitMix64 finalizer: spreads the FNV bits over the whole word.
    h = (h ^ (h >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    h = (h ^ (h >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    h ^ (h >> 31)
}

/// Deterministic per-cell seed: a [`fnv_mix`] of the base seed with the
/// cell's identity.
///
/// Decorrelates the random streams of different cells (same-seed cells
/// would replay identical address noise) while staying a pure function
/// of the inputs, so the sweep's determinism contract holds under any
/// scheduling.
#[must_use]
pub fn cell_seed(base: u64, bench: &str, mem: MemKind) -> u64 {
    fnv_mix(base, &[bench.as_bytes(), mem.slug().as_bytes()])
}

/// Digest of a benchmark + configuration, seed excluded: [`fnv_mix`]
/// over the bench name and the config's checkpoint encoding, a
/// byte stream the checkpoint format already pins, so the digest is
/// stable across platforms and releases. Changing it invalidates every
/// cached key and the dse `digest_golden` pins.
#[must_use]
pub fn config_digest(bench: &str, cfg: &RunConfig) -> u64 {
    let mut canonical = *cfg;
    canonical.seed = 0;
    let mut w = cwf_ckpt::Writer::new();
    canonical.save(&mut w);
    // 0xFF separates the parts: no benchmark name contains it, so
    // ("ab", cfg-bytes) never collides with ("a", b+cfg-bytes).
    fnv_mix(0, &[bench.as_bytes(), &[0xFF], &w.into_vec()])
}

/// How a cell's memory is built. The custom variants run on the same
/// [`RunConfig`] as the preset they modify (RL or DDR3), so their config
/// digests collide with it; the tag in [`CellKey`] keeps them apart.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Variant {
    /// `cfg.mem`'s own memory.
    Preset,
    /// §4.2.4: a striped (4-chip) fast store — one 36-bit sub-channel
    /// instead of four x9 sub-ranks.
    Striped,
    /// §4.2.4: a private command bus per fast sub-channel.
    Private,
    /// §4.2.4: the RL slow store under a close-page policy.
    ClosedLp,
    /// The DDR3 baseline under strict FCFS scheduling.
    Fcfs,
    /// The DDR3 baseline with page-interleaved channels.
    PageMap,
    /// §7.1 page placement: a DDR3 profiling pass at half the reads, then
    /// the run with the top 7.6% of its pages in RLDRAM3. Two simulations.
    PagePlaced,
}

impl Variant {
    /// Simulations one cell of this variant costs.
    #[must_use]
    pub fn simulations(self) -> usize {
        1 + usize::from(self == Variant::PagePlaced)
    }

    /// The memory this variant runs `cfg` on (`None` for the preset) and,
    /// for page placement, the share of profiled accesses that went to
    /// the pinned pages.
    fn backend(self, cfg: &RunConfig, bench: &str) -> (Option<MemBackend>, Option<f64>) {
        let cwf = |c: CwfConfig| MemBackend::Cwf(HeteroCwfMemory::new(c));
        let ddr3 = |params, scheme| {
            let dev = DeviceConfig::ddr3_1600();
            MemBackend::Homogeneous(HomogeneousMemory::with_scheme(dev, 4, 1, 9, params, scheme))
        };
        let backend = match self {
            Variant::Preset => return (None, None),
            Variant::Striped => {
                let mut c = CwfConfig::rl();
                // 9 B over a 36-bit bus: 2 beats = 1 device cycle.
                c.fast.timings.t_burst = 1;
                c.fast_subchannels = 1;
                c.fast_chips = 4;
                cwf(c)
            }
            Variant::Private => cwf(CwfConfig::rl().with_private_fast_buses()),
            Variant::ClosedLp => {
                let mut c = CwfConfig::rl();
                c.slow.page_policy = PagePolicy::Closed;
                cwf(c)
            }
            Variant::Fcfs => ddr3(
                CtrlParams { policy: SchedPolicy::Fcfs, ..CtrlParams::default() },
                MappingScheme::for_page_policy(DeviceConfig::ddr3_1600().page_policy),
            ),
            Variant::PageMap => ddr3(CtrlParams::default(), MappingScheme::PageInterleave),
            Variant::PagePlaced => {
                let half = RunConfig::paper(cfg.mem, cfg.target_dram_reads / 2);
                let profiling = RunConfig {
                    target_dram_reads: half.target_dram_reads,
                    warmup_dram_reads: half.warmup_dram_reads,
                    max_cycles: half.max_cycles,
                    ..*cfg
                };
                let profile = by_name(bench).expect("known benchmark");
                let (share, hot) = profile_hot_pages(&profiling, profile);
                return (Some(MemBackend::PagePlaced(PagePlacedMemory::new(hot))), Some(share));
            }
        };
        (Some(backend), None)
    }
}

/// The §7.1 profiling pass: run `profile` under `cfg` on the DDR3
/// baseline with a per-page access tally, and return the top 7.6% of
/// touched pages — the ones the paper pins in RLDRAM3 — with the share of
/// the pass's accesses that went to them.
#[must_use]
pub fn profile_hot_pages(cfg: &RunConfig, profile: &BenchmarkProfile) -> (f64, BTreeSet<u64>) {
    let tally = MemBackend::Homogeneous(HomogeneousMemory::baseline_ddr3().with_page_tally());
    let mut sys = System::with_backend(cfg, profile, tally);
    let _ = sys.run();
    let counts = sys.hierarchy().memory().page_counts().expect("tallying backend");
    let hot = hot_pages(counts, 0.076);
    let hot_count: u64 = counts.iter().filter(|(p, _)| hot.contains(p)).map(|(_, c)| *c).sum();
    (hot_count as f64 / counts.values().sum::<u64>().max(1) as f64, hot)
}

/// Identity of one cell ([`Cell::key`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct CellKey {
    /// [`config_digest`] of the cell's benchmark + seedless config.
    pub digest: u64,
    /// The cell's workload/backend seed.
    pub seed: u64,
    /// How the cell's memory is built.
    pub variant: Variant,
}

/// Build the (benchmark × kind) grid of preset cells, benchmark-major:
/// each cell is `template` with its kind and a [`cell_seed`] derived from
/// `template.seed`. `cwfmem sweep` and `cwfmem serve` both build their
/// grids here.
#[must_use]
pub fn grid(benches: &[&str], kinds: &[MemKind], template: &RunConfig) -> Vec<Cell> {
    benches
        .iter()
        .flat_map(|b| {
            kinds.iter().map(move |&mem| {
                let cfg = RunConfig { mem, seed: cell_seed(template.seed, b, mem), ..*template };
                Cell::new(b, cfg, Variant::Preset)
            })
        })
        .collect()
}

/// Apply `f` to every item across `workers` threads (at least one, at
/// most one per item) and return the results in input order. This is the
/// workspace's one simulation worker pool: plans and the fig4 replay run
/// on it. The worker count affects wall-clock time only, never the
/// results. A panic in `f` propagates; [`Cell::run`] catches its own.
pub fn parallel_map<T, R, F>(items: &[T], workers: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let n = items.len();
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..workers.clamp(1, n.max(1)) {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let r = f(&items[i]);
                *slots[i].lock().expect("result slot poisoned") = Some(r);
            });
        }
    });
    slots
        .into_iter()
        .map(|s| s.into_inner().expect("result slot poisoned").expect("every slot filled"))
        .collect()
}

/// Cells requested by any number of consumers, deduplicated by
/// [`CellKey`]: each distinct cell simulates once, however often it was
/// requested.
#[derive(Debug, Default)]
pub struct Plan {
    cells: BTreeMap<CellKey, Cell>,
    requested: usize,
}

impl Plan {
    /// Request `cell`; a cell whose key is already planned adds nothing.
    pub fn add(&mut self, cell: Cell) {
        self.requested += cell.variant.simulations();
        self.cells.entry(cell.key()).or_insert(cell);
    }

    /// Simulations the plan runs (one set per distinct cell), and the
    /// simulations requested, duplicates included.
    #[must_use]
    pub fn simulations(&self) -> (usize, usize) {
        (self.cells.values().map(|c| c.variant.simulations()).sum(), self.requested)
    }

    /// Run every distinct cell through `run` on `workers` threads
    /// ([`parallel_map`]). `run` is [`Cell::run`] but for tests that
    /// inject failures.
    #[must_use]
    pub fn run<F>(self, workers: usize, run: F) -> PlanResults
    where
        F: Fn(&Cell) -> CellResult + Sync,
    {
        let cells: Vec<(CellKey, Cell)> = self.cells.into_iter().collect();
        let results = parallel_map(&cells, workers, |(_, cell)| run(cell));
        PlanResults(cells.into_iter().map(|(key, _)| key).zip(results).collect())
    }
}

/// A run [`Plan`]'s results, looked up by cell.
#[derive(Debug)]
pub struct PlanResults(BTreeMap<CellKey, CellResult>);

impl PlanResults {
    /// `cell`'s result if it was planned, clean or not.
    #[must_use]
    pub fn result(&self, cell: &Cell) -> Option<&CellResult> {
        self.0.get(&cell.key())
    }

    /// `cell`'s outcome and hot-page share if it was planned and
    /// completed clean.
    #[must_use]
    pub fn get(&self, cell: &Cell) -> Option<(&RunOutcome, Option<f64>)> {
        match self.result(cell)? {
            CellResult::Done { outcome, hot_share } if outcome.is_clean() => {
                Some((outcome, *hot_share))
            }
            _ => None,
        }
    }

    /// The [`CellResult::failure`] line of every cell that did not
    /// complete clean, in key order, tagged with the variant unless it is
    /// the preset.
    pub fn failures(&self) -> impl Iterator<Item = String> + '_ {
        self.0.iter().filter_map(|(key, r)| {
            let line = r.failure()?;
            Some(match key.variant {
                Variant::Preset => line,
                v => format!("{line} [{v:?}]"),
            })
        })
    }
}

/// Render a panic payload (`&str` or `String` in practice) as text.
#[must_use]
fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_covers_the_cross_product() {
        let template = RunConfig::paper(MemKind::Ddr3, 100);
        let cells = grid(&["mcf", "stream"], &[MemKind::Ddr3, MemKind::Rl], &template);
        assert_eq!(cells.len(), 4);
        assert_eq!(cells[0].bench, "mcf");
        assert_eq!(cells[0].cfg.mem, MemKind::Ddr3);
        assert_eq!(cells[3].bench, "stream");
        assert_eq!(cells[3].cfg.mem, MemKind::Rl);
        for c in &cells {
            let seed = cell_seed(template.seed, &c.bench, c.cfg.mem);
            assert!(c.cfg == RunConfig { seed, ..RunConfig::paper(c.cfg.mem, 100) });
        }
    }

    #[test]
    fn cell_seeds_are_pinned_and_distinct() {
        // The sweep's and perfbench's seeds hang off this value.
        assert_eq!(cell_seed(0xD2A4_0001, "mcf", MemKind::Rl), 0x2f35_93e5_7611_cb86);
        let a = cell_seed(1, "mcf", MemKind::Rl);
        assert_eq!(a, cell_seed(1, "mcf", MemKind::Rl));
        assert_ne!(a, cell_seed(1, "mcf", MemKind::Ddr3));
        assert_ne!(a, cell_seed(1, "stream", MemKind::Rl));
        assert_ne!(a, cell_seed(2, "mcf", MemKind::Rl));
    }

    #[test]
    fn digest_ignores_seed_only() {
        let a = RunConfig::paper(MemKind::Rl, 1_000);
        let mut b = a;
        b.seed ^= 0xDEAD_BEEF;
        assert_eq!(config_digest("mcf", &a), config_digest("mcf", &b));
        let mut c = a;
        c.cores = 4;
        assert_ne!(config_digest("mcf", &a), config_digest("mcf", &c));
        assert_ne!(config_digest("mcf", &a), config_digest("stream", &a));
    }

    #[test]
    fn keys_differ_by_seed_and_variant() {
        let cfg = RunConfig::quick(MemKind::Ddr3, 100);
        let mut cfg2 = cfg;
        cfg2.seed += 1;
        let a = Cell::new("mcf", cfg, Variant::Preset).key();
        let b = Cell::new("mcf", cfg2, Variant::Preset).key();
        assert_eq!(a.digest, b.digest);
        assert_ne!(a.seed, b.seed);
        assert_ne!(a, b);
        let fcfs = Cell::new("mcf", cfg, Variant::Fcfs).key();
        assert_eq!((fcfs.digest, fcfs.seed), (a.digest, a.seed));
        assert_ne!(fcfs, a);
    }

    #[test]
    fn a_plan_runs_each_key_once() {
        let cfg = RunConfig::quick(MemKind::Ddr3, 100);
        let mut plan = Plan::default();
        for variant in [Variant::Preset, Variant::PagePlaced, Variant::Preset, Variant::PagePlaced]
        {
            plan.add(Cell::new("stream", cfg, variant));
        }
        plan.add(Cell::new("no-such-bench", cfg, Variant::Preset));
        assert_eq!(plan.simulations(), (4, 7));
        let results = plan.run(2, Cell::run);
        let (_, placed) = results.get(&Cell::new("stream", cfg, Variant::PagePlaced)).expect("ran");
        assert!(placed.is_some_and(|s| s > 0.0 && s <= 1.0));
        let (_, preset) = results.get(&Cell::new("stream", cfg, Variant::Preset)).expect("ran");
        assert!(preset.is_none());
        assert!(results.get(&Cell::new("mcf", cfg, Variant::Preset)).is_none(), "not planned");
        assert!(results.get(&Cell::new("no-such-bench", cfg, Variant::Preset)).is_none());
        let failures: Vec<String> = results.failures().collect();
        assert_eq!(failures.len(), 1);
        assert!(failures[0].starts_with("FAILED no-such-bench/DDR3: unknown benchmark"));
    }

    #[test]
    fn results_come_back_in_input_order() {
        let cells =
            grid(&["stream", "mcf"], &[MemKind::Ddr3], &RunConfig::quick(MemKind::Ddr3, 120));
        let mut plan = Plan::default();
        cells.iter().cloned().for_each(|c| plan.add(c));
        let results = plan.run(2, Cell::run);
        for cell in &cells {
            let (outcome, _) = results.get(cell).expect("cell completed");
            assert_eq!(outcome.metrics.bench, cell.bench);
        }
    }

    #[test]
    fn a_panicking_cell_does_not_kill_the_sweep() {
        let good = Cell::new("libquantum", RunConfig::quick(MemKind::Ddr3, 100), Variant::Preset);
        let bad = Cell::new("no-such-bench", RunConfig::quick(MemKind::Rl, 100), Variant::Preset);
        let mut plan = Plan::default();
        plan.add(bad.clone());
        plan.add(good.clone());
        let results = plan.run(2, Cell::run);
        match results.result(&bad).expect("planned") {
            CellResult::Failed { bench, mem, error } => {
                assert_eq!(bench, "no-such-bench");
                assert_eq!(*mem, MemKind::Rl);
                assert!(error.contains("unknown benchmark"), "error = {error}");
            }
            CellResult::Done { .. } => panic!("bad cell should fail"),
        }
        assert!(results.get(&good).is_some());
    }

    #[test]
    fn a_repeated_bench_simulates_once_but_answers_every_cell() {
        let template = RunConfig::quick(MemKind::Ddr3, 100);
        let cells = grid(&["mcf", "stream", "mcf"], &[MemKind::Ddr3, MemKind::Ddr3], &template);
        let runs = AtomicUsize::new(0);
        let mut plan = Plan::default();
        cells.iter().cloned().for_each(|c| plan.add(c));
        assert_eq!(plan.simulations(), (2, 6));
        let results = plan.run(2, |c: &Cell| {
            runs.fetch_add(1, Ordering::Relaxed);
            c.run()
        });
        assert_eq!(runs.into_inner(), 2);
        for cell in &cells {
            let (outcome, _) = results.get(cell).expect("every grid cell has a result");
            assert_eq!(outcome.metrics.bench, cell.bench);
        }
    }

    #[test]
    fn parallel_map_preserves_order() {
        let cfg = RunConfig::quick(MemKind::Ddr3, 150);
        let items = ["stream", "mcf", "gobmk"];
        let out = parallel_map(&items, 2, |b| run_benchmark_outcome(&cfg, b, None).metrics);
        for (name, m) in items.iter().zip(&out) {
            assert_eq!(*name, m.bench);
        }
    }

    #[test]
    fn jobs_is_positive() {
        assert!(jobs() >= 1);
    }
}
