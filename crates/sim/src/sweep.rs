//! Parallel, deterministic experiment sweeps.
//!
//! A sweep is a grid of independent simulation *cells* — one `(workload,
//! [`RunConfig`])` pair each — executed across a pool of worker threads.
//! Three properties define the harness (DESIGN.md has the full
//! contract):
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
//! The worker count comes from the `CWF_JOBS` environment variable
//! (default: all available cores); [`run_cells_with`] takes it
//! explicitly for tests that must not race on process-global state.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use crate::config::{MemKind, RunConfig};
use crate::metrics::RunMetrics;
use crate::runner::{run_benchmark_outcome, RunOutcome};

/// One unit of sweep work: a benchmark under a configuration.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Benchmark name (must resolve via `workloads::by_name`: the 27
    /// suite programs or the `dcsweep`/`dcthrash`/`dcresident` stressors).
    pub bench: String,
    /// Full run configuration, including the per-cell seed.
    pub cfg: RunConfig,
}

/// Outcome of one cell.
///
/// `Done` dwarfs `Failed` because metrics embed latency histograms, but a
/// sweep holds one result per cell — boxing would only complicate every
/// consumer.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
pub enum CellResult {
    /// The cell ran to completion: everything the run reports.
    Done(RunOutcome),
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
    /// [`CellResult::Failed`]. Every sweep front end (`cwfmem sweep`, the
    /// figure drivers, `cwfmem serve`) executes its cells through here.
    pub fn catch(cell: &Cell, run: impl FnOnce() -> RunOutcome) -> CellResult {
        // AssertUnwindSafe: `run` only touches the cell (read-only) and
        // its own fresh System; a panic cannot leave shared state
        // half-mutated.
        match catch_unwind(AssertUnwindSafe(run)) {
            Ok(o) => CellResult::Done(o),
            Err(payload) => CellResult::Failed {
                bench: cell.bench.clone(),
                mem: cell.cfg.mem,
                // `&*payload`, not `&payload`: the Box itself is `Any` and
                // would shadow the payload.
                error: panic_text(&*payload),
            },
        }
    }

    /// The metrics, if the cell completed (clean or not).
    #[must_use]
    pub fn metrics(&self) -> Option<&RunMetrics> {
        match self {
            CellResult::Done(o) => Some(&o.metrics),
            CellResult::Failed { .. } => None,
        }
    }

    /// The sweep verdict: `None` for a cell that completed clean
    /// ([`RunOutcome::is_clean`]), else the line reporting it —
    /// `FAILED bench/kind: <panic>` or `UNCLEAN bench/kind: N violation(s)`.
    #[must_use]
    pub fn failure(&self) -> Option<String> {
        match self {
            CellResult::Done(o) if o.is_clean() => None,
            CellResult::Done(o) => Some(format!(
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

/// Build the (benchmark × kind) grid of cells, benchmark-major: each cell
/// is `template` with its kind and a [`cell_seed`] derived from
/// `template.seed`. `cwfmem sweep` and `cwfmem serve` both build their
/// grids here.
#[must_use]
pub fn grid(benches: &[&str], kinds: &[MemKind], template: &RunConfig) -> Vec<Cell> {
    benches
        .iter()
        .flat_map(|b| {
            kinds.iter().map(move |&mem| Cell {
                bench: (*b).to_owned(),
                cfg: RunConfig { mem, seed: cell_seed(template.seed, b, mem), ..*template },
            })
        })
        .collect()
}

/// Run every cell across exactly `workers` threads; results in input
/// order. The worker count affects wall-clock time only, never the
/// results (see the module docs).
#[must_use]
pub fn run_cells_with(cells: &[Cell], workers: usize) -> Vec<CellResult> {
    parallel_map(cells, workers, |cell| {
        CellResult::catch(cell, || run_benchmark_outcome(&cell.cfg, &cell.bench, None))
    })
}

/// Apply `f` to every item across `workers` threads (at least one, at
/// most one per item) and return the results in input order. This is the
/// workspace's one simulation worker pool: sweeps and every figure driver
/// run on it. A panic in `f` propagates; [`run_cells_with`] catches its
/// own.
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
    fn results_come_back_in_input_order() {
        let cells =
            grid(&["stream", "mcf"], &[MemKind::Ddr3], &RunConfig::quick(MemKind::Ddr3, 120));
        let out = run_cells_with(&cells, 2);
        assert_eq!(out.len(), 2);
        for (cell, r) in cells.iter().zip(&out) {
            let m = r.metrics().expect("cell completed");
            assert_eq!(m.bench, cell.bench);
        }
    }

    #[test]
    fn a_panicking_cell_does_not_kill_the_sweep() {
        let good = Cell { bench: "libquantum".into(), cfg: RunConfig::quick(MemKind::Ddr3, 100) };
        let bad = Cell { bench: "no-such-bench".into(), cfg: RunConfig::quick(MemKind::Rl, 100) };
        let out = run_cells_with(&[bad, good], 2);
        match &out[0] {
            CellResult::Failed { bench, mem, error } => {
                assert_eq!(bench, "no-such-bench");
                assert_eq!(*mem, MemKind::Rl);
                assert!(error.contains("unknown benchmark"), "error = {error}");
            }
            CellResult::Done(..) => panic!("bad cell should fail"),
        }
        assert!(out[1].metrics().is_some());
    }

    #[test]
    fn parallel_map_preserves_order() {
        let cfg = RunConfig::quick(MemKind::Ddr3, 150);
        let items = ["stream", "mcf", "gobmk"];
        let out = parallel_map(&items, 2, |b| crate::run_benchmark(&cfg, b));
        for (name, m) in items.iter().zip(&out) {
            assert_eq!(*name, m.bench);
        }
    }

    #[test]
    fn jobs_is_positive() {
        assert!(jobs() >= 1);
    }
}
