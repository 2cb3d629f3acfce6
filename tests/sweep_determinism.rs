//! The sweep harness's central contract: the worker count affects
//! wall-clock time only. Running the same cells' plan on 1 worker and on
//! several must produce byte-identical JSON documents.

use cwfmem::sim::config::MemKind;
use cwfmem::sim::{report, sweep, RunConfig};

fn cells() -> Vec<sweep::Cell> {
    // Small quick-profile cells (2 cores, no warm-up window) so the test
    // stays fast, but with the real per-cell seed derivation.
    let mut out = Vec::new();
    for bench in ["stream", "mcf", "libquantum", "leslie3d"] {
        for kind in [MemKind::Ddr3, MemKind::Rl] {
            let mut cfg = RunConfig::quick(kind, 400);
            cfg.seed = sweep::cell_seed(cfg.seed, bench, kind);
            out.push(sweep::Cell::new(bench, cfg, sweep::Variant::Preset));
        }
    }
    out
}

/// Run `cells` as one plan on `workers` threads; each cell's document
/// in input order.
fn jsons(cells: &[sweep::Cell], workers: usize) -> Vec<String> {
    let mut plan = sweep::Plan::default();
    cells.iter().cloned().for_each(|c| plan.add(c));
    let results = plan.run(workers, sweep::Cell::run);
    cells
        .iter()
        .map(|c| {
            let r = results.result(c).expect("every cell is planned");
            report::to_json(&r.outcome().expect("cell completed").metrics)
        })
        .collect()
}

#[test]
fn parallel_sweep_matches_sequential_byte_for_byte() {
    let cells = cells();
    let sequential = jsons(&cells, 1);
    let parallel = jsons(&cells, 3);
    assert_eq!(sequential.len(), cells.len());
    for (i, (s, p)) in sequential.iter().zip(&parallel).enumerate() {
        assert_eq!(s, p, "cell {i} ({}/{:?}) differs", cells[i].bench, cells[i].cfg.mem);
    }
    // Sanity: the documents are real (non-trivial) and distinct per cell.
    assert!(sequential[0].contains("\"schema\": \"cwfmem.run.v1\""));
    assert_ne!(sequential[0], sequential[1]);
}
