//! End-of-run metrics.

use cache_hier::HierStats;
use cwf_core::CwfStats;
use dram_power::{channel_power, LpddrIo, PowerBreakdown};
use mem_ctrl::MemSystemStats;

use crate::config::MemKind;

/// CPU frequency of the simulated platform (Table 1).
pub const CPU_HZ: f64 = 3.2e9;

/// Everything measured by one simulation run.
#[derive(Debug, Clone)]
pub struct RunMetrics {
    /// Benchmark name.
    pub bench: String,
    /// Memory organization.
    pub mem: MemKind,
    /// Measured CPU cycles (after warm-up).
    pub cycles: u64,
    /// Per-core instructions retired.
    pub insts_per_core: Vec<u64>,
    /// Demand DRAM reads during measurement.
    pub dram_reads: u64,
    /// DRAM writes during measurement.
    pub dram_writes: u64,
    /// Hierarchy statistics (measured window).
    pub hier: HierStats,
    /// Memory-controller statistics (measured window).
    pub mem_stats: MemSystemStats,
    /// CWF statistics, if the backend was a CWF organization.
    pub cwf: Option<CwfStats>,
}

impl RunMetrics {
    /// Aggregate IPC over all cores.
    #[must_use]
    pub fn ipc_total(&self) -> f64 {
        if self.cycles == 0 {
            return 0.0;
        }
        self.insts_per_core.iter().sum::<u64>() as f64 / self.cycles as f64
    }

    /// Measured wall-clock seconds of simulated execution.
    #[must_use]
    pub fn seconds(&self) -> f64 {
        self.cycles as f64 / CPU_HZ
    }

    /// Mean DRAM read latency (queue + service) in nanoseconds.
    #[must_use]
    pub fn avg_read_latency_ns(&self) -> f64 {
        self.mem_stats.avg_queue_ns() + self.mem_stats.avg_service_ns()
    }

    /// Mean critical-word latency in nanoseconds (MSHR allocation to the
    /// cycle the requested word is usable) — Figure 7's metric.
    #[must_use]
    pub fn avg_cw_latency_ns(&self) -> f64 {
        self.hier.avg_cw_latency() / CPU_HZ * 1e9
    }

    /// Critical-word latency at quantile `q` (e.g. `0.5`, `0.95`,
    /// `0.99`), in nanoseconds. Tail companion to
    /// [`RunMetrics::avg_cw_latency_ns`]; bucketed with ~25% relative
    /// resolution (see `dram_timing::stats::LatencyHist`).
    #[must_use]
    pub fn cw_latency_ns_quantile(&self, q: f64) -> f64 {
        self.hier.cw_lat_hist.quantile(q) as f64 / CPU_HZ * 1e9
    }

    /// Combined data-bus utilization across the bulk (slow) channels.
    #[must_use]
    pub fn bus_utilization(&self) -> f64 {
        let mut busy = 0u64;
        let mut total = 0u64;
        for c in &self.mem_stats.controllers {
            busy += c.channel.read_bus_cycles + c.channel.write_bus_cycles;
            total += c.mem_cycles;
        }
        if total == 0 {
            0.0
        } else {
            busy as f64 / total as f64
        }
    }

    /// Row-buffer hit rate over all channels.
    #[must_use]
    pub fn row_hit_rate(&self) -> f64 {
        let (hits, cols) = self.mem_stats.controllers.iter().fold((0u64, 0u64), |(h, c), s| {
            (h + s.channel.row_hits, c + s.channel.reads + s.channel.writes)
        });
        if cols == 0 {
            0.0
        } else {
            hits as f64 / cols as f64
        }
    }

    /// Total DRAM power in watts under the given LPDDR2 I/O assumption.
    #[must_use]
    pub fn dram_power_w(&self, lpddr_io: LpddrIo) -> f64 {
        self.dram_power_breakdown(lpddr_io).total_w()
    }

    /// DRAM power decomposed by component, summed over channels.
    #[must_use]
    pub fn dram_power_breakdown(&self, lpddr_io: LpddrIo) -> PowerBreakdown {
        let mut total = PowerBreakdown::default();
        for c in &self.mem_stats.controllers {
            total.add(&channel_power(c, lpddr_io));
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metrics(cycles: u64, insts: Vec<u64>) -> RunMetrics {
        RunMetrics {
            bench: "test".into(),
            mem: MemKind::Ddr3,
            cycles,
            insts_per_core: insts,
            dram_reads: 0,
            dram_writes: 0,
            hier: HierStats::default(),
            mem_stats: MemSystemStats::default(),
            cwf: None,
        }
    }

    #[test]
    fn ipc_math() {
        let m = metrics(1_000, vec![2_000, 1_000]);
        assert!((m.ipc_total() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn zero_cycles_is_safe() {
        let m = metrics(0, vec![10]);
        assert_eq!(m.ipc_total(), 0.0);
        assert_eq!(m.bus_utilization(), 0.0);
        assert_eq!(m.row_hit_rate(), 0.0);
    }

    #[test]
    fn seconds_at_cpu_frequency() {
        let m = metrics(3_200_000, vec![1]);
        assert!((m.seconds() - 0.001).abs() < 1e-9);
    }
}
