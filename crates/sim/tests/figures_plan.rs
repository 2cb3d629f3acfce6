//! The simulated figures share one keyed plan.
//!
//! * Every figure renders the same bytes from the shared plan as the
//!   per-figure drivers it replaced (FNV-1a 64 of each rendered table,
//!   pinned from those drivers over mcf and stream at 300 reads).
//! * Each distinct cell is planned once: the six drivers request 30
//!   simulations per bench and run 18. The variant tag keeps the custom
//!   ablation backends apart from the RL and DDR3 presets they share a
//!   config with.
//! * A bench missing a cell is dropped from the figure, not a panic.

use sim_harness::config::MemKind;
use sim_harness::experiments::figure;
use sim_harness::sweep::{Cell, Plan};
use sim_harness::CellResult;

const BENCHES: [&str; 2] = ["mcf", "stream"];
const READS: u64 = 300;
const SIX: [&str; 6] = ["fig1", "fig6", "fig9", "fig10", "ablations", "alternatives"];

fn fnv1a(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

fn plan_of(names: &[&str]) -> Plan {
    let mut plan = Plan::default();
    for name in names {
        figure(name).expect("simulated figure").plan(&mut plan, &BENCHES, READS);
    }
    plan
}

#[test]
fn shared_plan_renders_the_per_figure_tables() {
    const GOLDEN: [(&str, u64); 11] = [
        ("fig1", 0xa7a8_f41c_c1e5_b924),
        ("fig1", 0x6c58_513d_d463_f3ca),
        ("fig6", 0x17a1_44b1_1159_3798),
        ("fig6", 0x214c_221e_da86_ff03),
        ("fig6", 0x8ce7_c6d1_21f2_7f75),
        ("fig9", 0x4a6b_4c81_4850_de8d),
        ("fig10", 0x5f5f_69a3_c9aa_e8be),
        ("fig10", 0x00a4_2c9f_065d_f1f9),
        ("ablations", 0x2d97_2f29_b5d0_09c5),
        ("alternatives", 0x3f6e_9992_2669_664f),
        ("alternatives", 0x20b2_b493_df77_5ae0),
    ];
    let results = plan_of(&SIX).run(2, Cell::run);
    assert_eq!(results.failures().count(), 0);
    let got: Vec<(&str, u64)> = SIX
        .iter()
        .flat_map(|&name| {
            let tables = figure(name).expect("simulated figure").render(&BENCHES, READS, &results);
            tables.into_iter().map(move |t| (name, fnv1a(&t.render())))
        })
        .collect();
    assert_eq!(got, GOLDEN);
}

#[test]
fn each_distinct_cell_is_planned_once() {
    let six = plan_of(&SIX);
    assert_eq!(six.simulations(), (36, 60));
    // Ablations alone: two DDR3 baselines, RL, RL random, RL without the
    // prefetcher and five custom backends per bench. Without the variant
    // tag the five would merge into the RL and DDR3 cells.
    let ablations = plan_of(&["ablations"]);
    assert_eq!(ablations.simulations(), (20, 20));
    // From 150k reads the head-to-head's mcf and stream DDR3, RL and
    // page-placed cells (4 simulations per bench) are the main grid's.
    let mut all = Plan::default();
    for name in SIX.iter().chain(&["dramcache"]) {
        figure(name).expect("simulated figure").plan(&mut all, &BENCHES, 150_000);
    }
    assert_eq!(all.simulations(), (36 + 25 - 8, 60 + 25));
}

#[test]
fn a_failed_cell_drops_its_bench_from_the_figure() {
    let fig1 = figure("fig1").expect("simulated figure");
    let results = plan_of(&["fig1"]).run(2, |c: &Cell| {
        if c.bench == "stream" && c.cfg.mem == MemKind::Rldram3 {
            CellResult::Failed { bench: c.bench.clone(), mem: c.cfg.mem, error: "injected".into() }
        } else {
            c.run()
        }
    });
    let failures: Vec<String> = results.failures().collect();
    assert_eq!(failures, ["FAILED stream/RLDRAM3: injected"]);
    let tables = fig1.render(&BENCHES, READS, &results);
    let benches = |i: usize| tables[i].rows.iter().map(|r| r[0].as_str()).collect::<Vec<_>>();
    assert_eq!(benches(0), ["mcf", "MEAN"]);
    assert_eq!(tables[0].rows[0][1..], tables[0].rows[1][1..], "the mean is mcf's alone");
    assert_eq!(benches(1), ["mcf"]);
}
