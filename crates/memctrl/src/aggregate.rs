//! Sub-ranked aggregation: skinny channels behind one address/command bus.
//!
//! §4.2.4 of the paper replaces four private 9-bit RLDRAM channels (each
//! with its own controller and 26-bit address bus) with **one** controller
//! driving four x9 sub-channels over a shared 38-bit double-data-rate
//! address/command bus. The data buses stay independent, but only one
//! command can be launched per device cycle across all sub-channels — the
//! paper argues this is safe because a word-0 transfer occupies the data
//! bus four times longer than its command occupies the address bus.
//!
//! [`AggregatedController`] is that bus's arbiter: it round-robins the
//! per-cycle command slot across the sub-channel controllers of one
//! [`ClockDomain`](crate::ClockDomain), so the shared bus can become a
//! bottleneck for high-MLP workloads (the effect the paper calls out for
//! mcf/milc/lbm under the oracular scheme, §6.1.2).

use crate::controller::Controller;

/// The arbiter of one shared command slot per device cycle.
#[derive(Debug, Clone)]
pub struct AggregatedController {
    rr: usize,
    shared_bus: bool,
    /// Cycles in which some sub-controller wanted the slot but lost it.
    pub cmd_bus_conflicts: u64,
    /// Fault injection: when `true`, a second sub-channel may issue in the
    /// same cycle as the slot winner — an impossible double-booking of the
    /// shared address/command bus. Only the verify oracle's seeded-fault
    /// tests set this.
    fault_double_book: bool,
}

impl Default for AggregatedController {
    fn default() -> Self {
        Self::new()
    }
}

impl AggregatedController {
    /// An arbiter for one shared address/command bus.
    #[must_use]
    pub fn new() -> Self {
        AggregatedController {
            rr: 0,
            shared_bus: true,
            cmd_bus_conflicts: 0,
            fault_double_book: false,
        }
    }

    /// Fault injection: let one extra sub-channel issue per cycle, i.e.
    /// double-book the shared command slot. Exists solely so the verify
    /// oracle's seeded-fault tests can prove the shared-bus check is not
    /// vacuous.
    pub fn inject_double_book_slot(&mut self) {
        self.fault_double_book = true;
    }

    /// Ablation variant: give every sub-channel its own private
    /// address/command bus (no per-cycle arbitration). This is the
    /// pre-optimization organization of §4.2.2 with four independent
    /// 26-bit buses.
    #[must_use]
    pub fn with_private_buses(mut self) -> Self {
        self.shared_bus = false;
        self
    }

    /// True when the sub-channels arbitrate one shared command bus (the
    /// default §4.2.4 organization; `false` after
    /// [`AggregatedController::with_private_buses`]).
    #[must_use]
    pub fn shared_bus(&self) -> bool {
        self.shared_bus
    }

    /// Advance every sub-channel one device cycle, granting the single
    /// command slot round-robin (starting after last cycle's winner).
    ///
    /// The round-robin pointer only advances when a command actually
    /// issues, which requires a non-empty queue somewhere — so a quiescent
    /// bus's arbitration state cannot drift across an event-kernel skip,
    /// and the sub-channels' own activity bounds stay exact.
    pub fn tick_mem(&mut self, subs: &mut [Controller], now: u64) {
        if !self.shared_bus {
            for s in subs {
                s.tick_mem(now, true);
            }
            return;
        }
        let n = subs.len();
        let mut issued = false;
        let mut double_booked = false;
        let mut wanted_after_grant = false;
        for k in 0..n {
            let i = (self.rr + k) % n;
            if !issued {
                if subs[i].tick_mem(now, true) {
                    issued = true;
                    self.rr = (i + 1) % n;
                }
            } else if self.fault_double_book && !double_booked {
                // Fault injection: grant the slot a second time this cycle.
                double_booked = subs[i].tick_mem(now, true);
            } else {
                // Slot consumed: sibling may still do bookkeeping.
                let had_work = subs[i].read_q_len() > 0 || subs[i].write_q_len() > 0;
                subs[i].tick_mem(now, false);
                if had_work {
                    wanted_after_grant = true;
                }
            }
        }
        if issued && wanted_after_grant {
            self.cmd_bus_conflicts += 1;
        }
    }

    /// Serialize the `AGGR` section: every sub-controller, the
    /// round-robin cursor and the shared-bus conflict counter.
    pub(crate) fn save_state(
        &self,
        subs: &[Controller],
        w: &mut cwf_ckpt::Writer,
    ) -> cwf_ckpt::Result<()> {
        let AggregatedController { rr, shared_bus: _, cmd_bus_conflicts, fault_double_book } = self;
        w.section(b"AGGR");
        crate::channelset::save_controllers(subs, w)?;
        cwf_ckpt::Ckpt::save(rr, w);
        cwf_ckpt::Ckpt::save(cmd_bus_conflicts, w);
        cwf_ckpt::Ckpt::save(fault_double_book, w);
        Ok(())
    }

    /// Restore the `AGGR` section saved by `save_state`.
    pub(crate) fn load_state(
        &mut self,
        subs: &mut [Controller],
        r: &mut cwf_ckpt::Reader<'_>,
    ) -> cwf_ckpt::Result<()> {
        r.expect_section(b"AGGR")?;
        crate::channelset::load_controllers(subs, r)?;
        self.rr = cwf_ckpt::Ckpt::load(r)?;
        self.cmd_bus_conflicts = cwf_ckpt::Ckpt::load(r)?;
        self.fault_double_book = cwf_ckpt::Ckpt::load(r)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::controller::ReadCompletion;
    use crate::mapping::Loc;
    use crate::request::Token;
    use dram_timing::DeviceConfig;

    fn rld_subs() -> Vec<Controller> {
        (0..4)
            .map(|i| Controller::new(DeviceConfig::rldram3(), 1, 1, &format!("rld-sub{i}")))
            .collect()
    }

    fn run(
        agg: &mut AggregatedController,
        subs: &mut [Controller],
        cycles: u64,
    ) -> Vec<(usize, ReadCompletion)> {
        let mut done = Vec::new();
        for now in 0..cycles {
            agg.tick_mem(subs, now);
            for (i, s) in subs.iter_mut().enumerate() {
                done.extend(s.drain_completions().map(|c| (i, c)));
            }
        }
        done
    }

    #[test]
    fn four_subchannel_reads_serialize_on_cmd_bus() {
        let (mut agg, mut subs) = (AggregatedController::new(), rld_subs());
        for (sub, s) in subs.iter_mut().enumerate() {
            let loc = Loc { rank: 0, bank: 0, row: 7, col: 0 };
            assert!(s.enqueue_read(Token(sub as u64), loc, false, 0));
        }
        let done = run(&mut agg, &mut subs, 100);
        assert_eq!(done.len(), 4);
        let mut ends: Vec<u64> = done.iter().map(|(_, c)| c.data_end_mem).collect();
        ends.sort_unstable();
        // Commands issue on consecutive cycles (one per cycle on the shared
        // bus); data buses are independent so bursts overlap.
        assert_eq!(ends, vec![12, 13, 14, 15]);
    }

    #[test]
    fn conflicts_counted_when_slot_contended() {
        let (mut agg, mut subs) = (AggregatedController::new(), rld_subs());
        for (sub, s) in subs.iter_mut().enumerate() {
            for r in 0..4u32 {
                let loc = Loc { rank: 0, bank: r as u8, row: r, col: 0 };
                assert!(s.enqueue_read(Token((sub * 10 + r as usize) as u64), loc, false, 0));
            }
        }
        run(&mut agg, &mut subs, 200);
        assert!(agg.cmd_bus_conflicts > 0);
    }

    #[test]
    fn round_robin_is_fair() {
        let (mut agg, mut subs) = (AggregatedController::new(), rld_subs());
        // Saturate two sub-channels; both should make progress.
        for r in 0..8u32 {
            for sub in [0usize, 1] {
                let loc = Loc { rank: 0, bank: (r % 16) as u8, row: r, col: 0 };
                subs[sub].enqueue_read(Token((sub as u64) << 32 | u64::from(r)), loc, false, 0);
            }
        }
        let done = run(&mut agg, &mut subs, 500);
        let sub0 = done.iter().filter(|(s, _)| *s == 0).count();
        let sub1 = done.iter().filter(|(s, _)| *s == 1).count();
        assert_eq!(sub0, 8);
        assert_eq!(sub1, 8);
    }
}
