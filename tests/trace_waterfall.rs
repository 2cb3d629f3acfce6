//! Property tests for the latency-waterfall decomposition.
//!
//! For every read the waterfall decomposes, the six stage durations
//! (queue, activate, CAS, bus, critical-word offset, fill tail) must sum
//! *exactly* to the end-to-end MSHR-allocation→fill latency — the
//! decomposition is additive, never lossy. Checked both on hand-built
//! event streams driven by generated request mixes and on full-system
//! runs.

use cwfmem::cwf::{CwfConfig, HeteroCwfMemory};
use cwfmem::memctrl::{LineRequest, MainMemory};
use cwfmem::sim::config::MemKind;
use cwfmem::sim::trace::act_event;
use cwfmem::sim::{run_benchmark_outcome, RunConfig};
use cwfmem::tracelog::{waterfall, TraceEvent};
use proptest::prelude::*;

#[derive(Debug, Clone, Copy)]
struct Req {
    line: u64,
    word: u8,
    delay: u8,
}

fn req_strategy() -> impl Strategy<Value = Req> {
    (0u64..256, 0u8..8, 0u8..24).prop_map(|(line, word, delay)| Req {
        line: line * 64,
        word,
        delay,
    })
}

/// Drive a traced memory with generated demand reads, bridging the
/// cache-side records ([`TraceEvent::MshrAlloc`], `WordsArrived`,
/// `FillDone`) from the memory's own event stream — exactly what the
/// hierarchy's hooks do — and merge them with the controller trace.
fn drive_traced(mem: &mut dyn MainMemory, reqs: &[Req]) -> (usize, Vec<TraceEvent>) {
    mem.enable_audit();
    mem.enable_trace();
    let mut now = 0u64;
    let mut accepted = 0usize;
    let mut events = Vec::new();
    let mut mem_events = Vec::new();
    let bridge = |evs: &mut Vec<cwfmem::memctrl::MemEvent>, out: &mut Vec<TraceEvent>| {
        for e in evs.drain(..) {
            out.push(match e {
                cwfmem::memctrl::MemEvent::WordsAvailable { token, at, words, served_fast } => {
                    TraceEvent::WordsArrived { token, at, words, served_fast }
                }
                cwfmem::memctrl::MemEvent::LineFilled { token, at } => {
                    TraceEvent::FillDone { token, at }
                }
            });
        }
    };
    for r in reqs {
        for _ in 0..r.delay {
            mem.tick(now);
            mem.drain_events(now, &mut mem_events);
            bridge(&mut mem_events, &mut events);
            now += 1;
        }
        let lr = LineRequest::demand_read(r.line, r.word, 0);
        if let Ok(Some(token)) = mem.try_submit(&lr, now) {
            accepted += 1;
            events.push(TraceEvent::MshrAlloc {
                token,
                core: 0,
                at: now,
                line: r.line,
                critical_word: r.word,
                demand: true,
            });
        }
    }
    for _ in 0..60_000 {
        mem.tick(now);
        mem.drain_events(now, &mut mem_events);
        bridge(&mut mem_events, &mut events);
        now += 1;
    }
    let channels = mem.audit_channels();
    mem.drain_audit(&mut |r| events.extend(act_event(&channels, r)));
    mem.drain_trace(&mut events);
    (accepted, events)
}

fn assert_additive(accepted: usize, events: &[TraceEvent]) {
    let (falls, summary) = waterfall::build(events);
    // Every accepted read allocates and fills, so it must show up —
    // decomposed or explicitly counted incomplete, never silently lost.
    assert!(
        (summary.reads + summary.incomplete) as usize >= accepted.min(1),
        "accepted {accepted} reads but the waterfall saw none"
    );
    for w in &falls {
        let sum: u64 = w.stages.iter().sum();
        assert_eq!(
            sum, w.total,
            "token {:?}: stage sum {sum} != end-to-end latency {} (stages {:?})",
            w.token, w.total, w.stages
        );
    }
    let stage_total: u64 = summary.stage_sums.iter().sum();
    assert_eq!(
        stage_total, summary.total_cycles,
        "summary stage sums must add up to the summed end-to-end latency"
    );
    assert_eq!(summary.reads as usize, falls.len());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn waterfall_is_additive_on_cwf_memory(
        reqs in prop::collection::vec(req_strategy(), 1..50),
    ) {
        let mut mem = HeteroCwfMemory::new(CwfConfig::rl());
        let (accepted, events) = drive_traced(&mut mem, &reqs);
        assert_additive(accepted, &events);
    }

    #[test]
    fn waterfall_is_additive_on_dl_cwf(
        reqs in prop::collection::vec(req_strategy(), 1..50),
    ) {
        let mut mem = HeteroCwfMemory::new(CwfConfig::dl());
        let (accepted, events) = drive_traced(&mut mem, &reqs);
        assert_additive(accepted, &events);
    }
}

#[test]
fn waterfall_is_additive_end_to_end() {
    // Full-system runs: every decomposed read, every organization.
    for mem in [MemKind::Ddr3, MemKind::Rl, MemKind::Lpddr2] {
        let cfg = RunConfig { trace: true, verify: false, ..RunConfig::quick(mem, 600) };
        let t = run_benchmark_outcome(&cfg, "mcf", None).trace.expect("trace on");
        assert!(t.summary.reads > 0, "{mem:?}: nothing decomposed");
        for w in &t.waterfalls {
            let sum: u64 = w.stages.iter().sum();
            assert_eq!(sum, w.total, "{mem:?} token {:?}: lossy decomposition", w.token);
        }
    }
}
