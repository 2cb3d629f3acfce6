//! Checkpoint determinism property: pausing a run at *any* cycle,
//! serializing the whole simulator to `cwfmem.ckpt.v1` bytes, and
//! resuming in a fresh process image must produce a byte-identical
//! `cwfmem.run.v1` document — across benchmarks, memory organizations,
//! both kernels, and arbitrary split points (including cycle 0 and
//! splits inside the warm-up window), with the verify oracle on. Below
//! the whole system, every memory backend restores mid-flight to the
//! same bytes and the same future events.

use std::collections::BTreeSet;

use cwfmem::cwf::{PagePlacedMemory, PAGE_BYTES};
use cwfmem::dram::DeviceKind;
use cwfmem::memctrl::{LineRequest, MainMemory, MemEvent};
use cwfmem::sim::config::{MemBackend, MemKind};
use cwfmem::sim::{resume_benchmark, run_benchmark_ckpt, CkptOutcome, Kernel, RunConfig};
use proptest::prelude::*;

const BENCHES: [&str; 4] = ["mcf", "stream", "libquantum", "leslie3d"];
const KINDS: [MemKind; 6] = [
    MemKind::Rl,
    MemKind::Ddr3,
    MemKind::RlAdaptive,
    MemKind::Dl,
    MemKind::DramCache(DeviceKind::Rldram3, DeviceKind::NvmSlow),
    MemKind::SpecCwf(DeviceKind::Rldram3, DeviceKind::Ddr5),
];

/// Render a finished outcome as its verified run document.
fn doc(outcome: CkptOutcome) -> String {
    match outcome {
        CkptOutcome::Finished(o) => {
            let v = o.verify.as_ref().expect("verify was enabled");
            assert!(v.is_clean(), "oracle must stay clean: {:?}", v.violations.first());
            o.to_json()
        }
        CkptOutcome::Paused { .. } => panic!("run did not finish"),
    }
}

/// ISSUE 10 regression: resuming a `--verify --trace` checkpoint keeps
/// both observers. The pre-fix code refused to checkpoint traced runs
/// outright, and `resume` offered no way to recover either report; now
/// the oracle's books and the trace ring ride the blob, and the resumed
/// run's combined verify/trace run document is byte-identical to the
/// unsplit run's.
#[test]
fn resume_with_verify_and_trace_matches_unsplit_run() {
    let mut cfg = RunConfig::quick(MemKind::Rl, 160);
    cfg.verify = true;
    cfg.trace = true;

    let whole = match run_benchmark_ckpt(&cfg, "mcf", u64::MAX).expect("whole run") {
        CkptOutcome::Finished(o) => {
            let v = o.verify.as_ref().expect("verify on");
            let t = o.trace.as_ref().expect("trace on");
            assert!(v.is_clean(), "oracle must stay clean: {:?}", v.violations.first());
            assert!(!t.events.is_empty(), "traced run collects events");
            o.to_json()
        }
        CkptOutcome::Paused { .. } => panic!("unbounded run must finish"),
    };
    let cycles: u64 = whole
        .lines()
        .find_map(|l| l.trim().strip_prefix("\"cycles\": ")?.trim_end_matches(',').parse().ok())
        .expect("cycles in document");

    for split_pct in [10, 50, 90] {
        let stop_at = cycles * split_pct / 100;
        let ckpt = match run_benchmark_ckpt(&cfg, "mcf", stop_at).expect("segmented run") {
            CkptOutcome::Paused { ckpt } => ckpt,
            CkptOutcome::Finished { .. } => panic!("split at {split_pct}% must pause"),
        };
        let o = resume_benchmark(&ckpt).expect("resume");
        let v = o.verify.as_ref().expect("verify survives the checkpoint");
        assert!(o.trace.is_some(), "trace survives the checkpoint");
        assert!(v.is_clean());
        let resumed = o.to_json();
        assert_eq!(whole, resumed, "split at {split_pct}% diverged");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    #[test]
    fn resume_is_byte_identical_at_any_split(
        bench_i in 0usize..BENCHES.len(),
        kind_i in 0usize..KINDS.len(),
        kernel_i in 0usize..2,
        split_pct in 0u64..=100,
    ) {
        let bench = BENCHES[bench_i];
        let mut cfg = RunConfig::quick(KINDS[kind_i], 160);
        cfg.verify = true;
        cfg.trace = false;
        cfg.kernel = if kernel_i == 1 { Kernel::Event } else { Kernel::Cycle };

        // Reference: the same run without a pause.
        let whole = doc(run_benchmark_ckpt(&cfg, bench, u64::MAX).expect("whole run"));
        let cycles: u64 = whole
            .lines()
            .find_map(|l| l.trim().strip_prefix("\"cycles\": ")?.trim_end_matches(',').parse().ok())
            .expect("cycles in document");
        let stop_at = cycles * split_pct / 100;

        match run_benchmark_ckpt(&cfg, bench, stop_at).expect("segmented run") {
            CkptOutcome::Paused { ckpt } => {
                let o = resume_benchmark(&ckpt).expect("resume");
                let v = o.verify.as_ref().expect("verify survives the checkpoint");
                prop_assert!(o.trace.is_none(), "tracing was off");
                prop_assert!(v.is_clean());
                let resumed = o.to_json();
                prop_assert_eq!(&whole, &resumed, "split at cycle {} diverged", stop_at);
            }
            // stop_at landed at or past the natural end: the segmented
            // run finished outright and must match the reference too.
            finished => prop_assert_eq!(&whole, &doc(finished)),
        }
    }
}

/// A fresh backend of one kind.
type Build = fn() -> MemBackend;

/// Every backend the run config can build, plus §7.1 page placement with
/// a non-empty hot set (its hot RLDRAM3 domain then carries traffic).
fn every_backend() -> Vec<(&'static str, Build)> {
    vec![
        ("ddr3", || MemKind::Ddr3.build(0.0, 1)),
        ("lpddr2", || MemKind::Lpddr2.build(0.0, 1)),
        ("rldram3", || MemKind::Rldram3.build(0.0, 1)),
        ("rd", || MemKind::Rd.build(0.0, 1)),
        ("rl", || MemKind::Rl.build(0.0, 1)),
        ("dl", || MemKind::Dl.build(0.0, 1)),
        ("rl-ad", || MemKind::RlAdaptive.build(0.0, 1)),
        ("rl-or", || MemKind::RlOracle.build(0.0, 1)),
        ("rl-rand", || MemKind::RlRandom.build(0.0, 1)),
        ("rl parity", || MemKind::Rl.build(0.05, 1)),
        ("ddr5", || MemKind::Spec(DeviceKind::Ddr5).build(0.0, 1)),
        ("rldram3+ddr5", || MemKind::SpecCwf(DeviceKind::Rldram3, DeviceKind::Ddr5).build(0.0, 1)),
        ("dramcache", || {
            MemKind::DramCache(DeviceKind::Rldram3, DeviceKind::NvmSlow).build(0.0, 1)
        }),
        ("page-placed", || {
            MemBackend::PagePlaced(PagePlacedMemory::new((0..16u64).collect::<BTreeSet<u64>>()))
        }),
    ]
}

/// Drive `mem` over CPU cycles `from..to`: a seeded mix of demand reads,
/// prefetches and writebacks over 64 pages (the first 16 hot under page
/// placement), a tick and an event drain every cycle.
fn drive(mem: &mut MemBackend, from: u64, to: u64, events: &mut Vec<MemEvent>) {
    for now in from..to {
        let h = (now ^ 0x9E37_79B9).wrapping_mul(0x2545_F491_4F6C_DD1D);
        if h >> 61 < 3 {
            let line = (h >> 8) % (64 * PAGE_BYTES / 64) * 64;
            let req = match (h >> 40) % 8 {
                0 | 1 => LineRequest::writeback(line, (h >> 32) as u8 & 7, 0),
                2 => LineRequest::prefetch_read(line, 1),
                _ => LineRequest::demand_read(line, (h >> 32) as u8 & 7, (h >> 36) as u8 & 1),
            };
            let _ = mem.try_submit(&req, now);
        }
        mem.tick(now);
        mem.drain_events(now, events);
    }
}

fn saved(mem: &MemBackend) -> Vec<u8> {
    let mut w = cwf_ckpt::Writer::new();
    mem.save_state(&mut w).expect("backend serializes");
    w.into_vec()
}

/// Save each backend mid-flight, restore into a fresh build, and drive
/// both on: the restored copy re-saves the same bytes, emits the same
/// events and ends in the same state.
#[test]
fn every_backend_restores_mid_flight() {
    const SAVE_AT: u64 = 3_000;
    const END: u64 = 12_000;
    for (name, build) in every_backend() {
        let mut live = build();
        let mut before = Vec::new();
        drive(&mut live, 0, SAVE_AT, &mut before);
        assert!(!before.is_empty(), "{name}: reads complete before the save");
        let bytes = saved(&live);
        let mut restored = build();
        let mut r = cwf_ckpt::Reader::new(&bytes);
        restored.load_state(&mut r).unwrap_or_else(|e| panic!("{name}: {e}"));
        r.finish().unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(saved(&restored), bytes, "{name}: re-saved bytes differ");
        let (mut ev_live, mut ev_restored) = (Vec::new(), Vec::new());
        drive(&mut live, SAVE_AT, END, &mut ev_live);
        drive(&mut restored, SAVE_AT, END, &mut ev_restored);
        assert!(!ev_live.is_empty(), "{name}: reads complete after the save");
        assert_eq!(ev_live, ev_restored, "{name}: events diverged after the restore");
        assert_eq!(saved(&live), saved(&restored), "{name}: end states differ");
    }
}
