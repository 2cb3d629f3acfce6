//! Channel power from activity statistics (Micron-calculator style).

use dram_timing::{DeviceConfig, DeviceKind};
use mem_ctrl::ControllerStats;

use crate::currents::{IddTable, LpddrIo};

/// Power of one channel, split by component (watts, averaged over the run).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PowerBreakdown {
    /// State-residency-weighted background power.
    pub background_w: f64,
    /// Activate/precharge power.
    pub activate_w: f64,
    /// Read burst power.
    pub read_w: f64,
    /// Write burst power.
    pub write_w: f64,
    /// Refresh power.
    pub refresh_w: f64,
    /// I/O termination power (dynamic + static).
    pub termination_w: f64,
}

impl PowerBreakdown {
    /// Total channel power in watts.
    #[must_use]
    pub fn total_w(&self) -> f64 {
        self.background_w
            + self.activate_w
            + self.read_w
            + self.write_w
            + self.refresh_w
            + self.termination_w
    }

    /// Element-wise sum (for aggregating channels).
    pub fn add(&mut self, other: &PowerBreakdown) {
        self.background_w += other.background_w;
        self.activate_w += other.activate_w;
        self.read_w += other.read_w;
        self.write_w += other.write_w;
        self.refresh_w += other.refresh_w;
        self.termination_w += other.termination_w;
    }
}

/// Pick the preset IDD table for a controller's device type.
///
/// `chips_per_access == 1` on an RLDRAM3 channel selects the x9 slice that
/// the optimized CWF organization uses (§4.2.4).
#[must_use]
pub fn default_table(stats: &ControllerStats, lpddr_io: LpddrIo) -> IddTable {
    match stats.kind {
        DeviceKind::Ddr3 => IddTable::ddr3(),
        DeviceKind::Lpddr2 => match lpddr_io {
            LpddrIo::ServerAdapted => IddTable::lpddr2_server(),
            LpddrIo::Unterminated => IddTable::lpddr2_unterminated(),
        },
        DeviceKind::Rldram3 => {
            if stats.chips_per_access == 1 {
                IddTable::rldram3_x9()
            } else {
                IddTable::rldram3_x18()
            }
        }
        DeviceKind::Ddr4 => IddTable::ddr4(),
        DeviceKind::Ddr5 => IddTable::ddr5(),
        DeviceKind::Lpddr4 => IddTable::lpddr4(),
        DeviceKind::NvmSlow => IddTable::nvm_slow(),
    }
}

/// Compute a channel's power with the default table for its device kind.
#[must_use]
pub fn channel_power(stats: &ControllerStats, lpddr_io: LpddrIo) -> PowerBreakdown {
    let table = default_table(stats, lpddr_io);
    let cfg = DeviceConfig::preset(stats.kind);
    channel_power_with(stats, &table, &cfg)
}

/// Compute a channel's power with an explicit IDD table and timing config.
///
/// Implements the standard power-calculator decomposition:
///
/// * background: `VDD · Σ IDD_state · residency_state` over the five
///   power states, per chip;
/// * activate: `VDD · (IDD0 − (IDD3N·tRAS + IDD2N·(tRC−tRAS))/tRC)` for
///   `nACT · tRC` cycles;
/// * read/write: `VDD · (IDD4x − IDD3N)` for the cycles the data bus
///   carried each direction;
/// * refresh: `VDD · (IDD5 − IDD3N)` for `nREF · tRFC` cycles;
/// * termination: static I/O power plus per-direction burst termination.
#[must_use]
pub fn channel_power_with(
    stats: &ControllerStats,
    idd: &IddTable,
    cfg: &DeviceConfig,
) -> PowerBreakdown {
    if stats.mem_cycles == 0 {
        return PowerBreakdown::default();
    }
    let t = stats.mem_cycles as f64;
    let chips = f64::from(stats.chips_per_access);
    let ma_to_w = idd.vdd / 1000.0; // current (mA) -> power (W)

    // Background: residency is summed over ranks; every rank holds
    // `chips_per_access` chips.
    let res = &stats.residency;
    let bg_ma_cycles = idd.idd3n * res.active_standby as f64
        + idd.idd2n * res.precharge_standby as f64
        + idd.idd3p * res.active_powerdown as f64
        + idd.idd2p * res.precharge_powerdown as f64
        + idd.idd6 * res.self_refresh as f64;
    let background_w = bg_ma_cycles / t * ma_to_w * chips;

    // Activate/precharge.
    let t_rc = f64::from(cfg.timings.t_rc.max(1));
    let t_ras = f64::from(cfg.timings.t_ras).min(t_rc);
    let act_overhead_ma =
        (idd.idd0 - (idd.idd3n * t_ras + idd.idd2n * (t_rc - t_ras)) / t_rc).max(0.0);
    let activate_w =
        act_overhead_ma * (stats.channel.activates as f64 * t_rc / t) * ma_to_w * chips;

    // Bursts.
    let rd_frac = stats.channel.read_bus_cycles as f64 / t;
    let wr_frac = stats.channel.write_bus_cycles as f64 / t;
    let read_w = (idd.idd4r - idd.idd3n).max(0.0) * rd_frac * ma_to_w * chips;
    let write_w = (idd.idd4w - idd.idd3n).max(0.0) * wr_frac * ma_to_w * chips;

    // Refresh.
    let t_rfc = f64::from(cfg.timings.t_rfc);
    let refresh_w = (idd.idd5 - idd.idd3n).max(0.0)
        * (stats.channel.refreshes as f64 * t_rfc / t)
        * ma_to_w
        * chips;

    // Termination.
    let termination_w = (idd.static_io_mw / 1000.0) * chips * f64::from(stats.ranks)
        + (idd.term_rd_mw / 1000.0) * rd_frac * chips
        + (idd.term_wr_mw / 1000.0) * wr_frac * chips;

    PowerBreakdown { background_w, activate_w, read_w, write_w, refresh_w, termination_w }
}

/// Self-refresh power reduction from LPDDR2's partial-array self-refresh
/// (PASR, §2.2): only `retained_fraction` of the array keeps refreshing,
/// scaling the IDD6 term of the background power. Temperature-compensated
/// self-refresh (TCSR) is modelled the same way via an effective current
/// scale. Returns the adjusted breakdown.
///
/// This is a post-processing analysis on a computed breakdown: PASR does
/// not change timing, only the self-refresh current, so it composes with
/// any [`channel_power_with`] result whose residency included
/// self-refresh time.
///
/// # Panics
///
/// Panics if `retained_fraction` is outside `[0, 1]`.
#[must_use]
pub fn apply_pasr(
    breakdown: &PowerBreakdown,
    stats: &ControllerStats,
    idd: &IddTable,
    retained_fraction: f64,
) -> PowerBreakdown {
    assert!((0.0..=1.0).contains(&retained_fraction), "retained_fraction is a fraction");
    if stats.mem_cycles == 0 {
        return *breakdown;
    }
    let t = stats.mem_cycles as f64;
    let chips = f64::from(stats.chips_per_access);
    let sr_fraction = stats.residency.self_refresh as f64 / t;
    let full_sr_w = idd.idd6 * (idd.vdd / 1000.0) * sr_fraction * chips;
    let saved = full_sr_w * (1.0 - retained_fraction);
    let mut out = *breakdown;
    out.background_w = (out.background_w - saved).max(0.0);
    out
}

/// Open-loop power at a synthetic bus utilization (Figure 2).
///
/// Models a chip kept awake (no power-down) issuing a close-page access
/// stream producing `utilization` ∈ [0, 1] combined data-bus occupancy
/// with `read_share` of it being reads.
///
/// # Panics
///
/// Panics if `utilization` or `read_share` lies outside `[0, 1]`.
#[must_use]
pub fn power_at_utilization(
    idd: &IddTable,
    cfg: &DeviceConfig,
    utilization: f64,
    read_share: f64,
) -> PowerBreakdown {
    assert!((0.0..=1.0).contains(&utilization), "utilization is a fraction");
    assert!((0.0..=1.0).contains(&read_share), "read_share is a fraction");
    let ma_to_w = idd.vdd / 1000.0;
    // One access occupies t_burst bus cycles -> accesses per cycle.
    let accesses_per_cycle = utilization / f64::from(cfg.timings.t_burst);
    let t_rc = f64::from(cfg.timings.t_rc.max(1));
    let t_ras = f64::from(cfg.timings.t_ras).min(t_rc);

    let background_w = idd.idd2n * ma_to_w; // standby, no power-down
    let act_overhead_ma =
        (idd.idd0 - (idd.idd3n * t_ras + idd.idd2n * (t_rc - t_ras)) / t_rc).max(0.0);
    let activate_w = act_overhead_ma * accesses_per_cycle * t_rc * ma_to_w;
    let read_w = (idd.idd4r - idd.idd3n).max(0.0) * utilization * read_share * ma_to_w;
    let write_w = (idd.idd4w - idd.idd3n).max(0.0) * utilization * (1.0 - read_share) * ma_to_w;
    let refresh_w = (idd.idd5 - idd.idd3n).max(0.0)
        * (f64::from(cfg.timings.t_rfc) / f64::from(cfg.timings.t_refi.max(1)))
        * ma_to_w;
    let termination_w = idd.static_io_mw / 1000.0
        + (idd.term_rd_mw / 1000.0) * utilization * read_share
        + (idd.term_wr_mw / 1000.0) * utilization * (1.0 - read_share);

    PowerBreakdown { background_w, activate_w, read_w, write_w, refresh_w, termination_w }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dram_timing::{ChannelStats, Residency};

    fn fake_stats(kind: DeviceKind, chips: u32) -> ControllerStats {
        ControllerStats {
            kind,
            label: "test".into(),
            chips_per_access: chips,
            mem_cycles: 100_000,
            t_ck_ps: 1250,
            channel: ChannelStats {
                activates: 1_000,
                reads: 900,
                writes: 100,
                read_bus_cycles: 3_600,
                write_bus_cycles: 400,
                refreshes: 16,
                ..Default::default()
            },
            residency: Residency {
                active_standby: 30_000,
                precharge_standby: 50_000,
                precharge_powerdown: 20_000,
                ..Default::default()
            },
            ranks: 1,
            reads_done: 900,
            writes_done: 100,
            sum_queue_ns: 0.0,
            sum_service_ns: 0.0,
            read_lat_hist: dram_timing::stats::LatencyHist::default(),
        }
    }

    #[test]
    fn components_are_positive_and_total_adds_up() {
        let p = channel_power(&fake_stats(DeviceKind::Ddr3, 9), LpddrIo::ServerAdapted);
        assert!(p.background_w > 0.0);
        assert!(p.activate_w > 0.0);
        assert!(p.read_w > 0.0);
        assert!(p.write_w > 0.0);
        assert!(p.refresh_w > 0.0);
        let sum =
            p.background_w + p.activate_w + p.read_w + p.write_w + p.refresh_w + p.termination_w;
        assert!((p.total_w() - sum).abs() < 1e-12);
    }

    #[test]
    fn idle_chip_consumes_only_background_and_static() {
        let mut s = fake_stats(DeviceKind::Ddr3, 9);
        s.channel = ChannelStats::default();
        s.residency = Residency { precharge_standby: 100_000, ..Default::default() };
        let p = channel_power(&s, LpddrIo::ServerAdapted);
        assert_eq!(p.activate_w, 0.0);
        assert_eq!(p.read_w, 0.0);
        // 9 chips * 42 mA * 1.5 V.
        assert!((p.background_w - 9.0 * 0.042 * 1.5).abs() < 1e-9);
    }

    #[test]
    fn figure2_shape_rldram_dominates_at_low_utilization() {
        let util_power = |idd: &IddTable, cfg: &DeviceConfig, u: f64| {
            power_at_utilization(idd, cfg, u, 0.7).total_w()
        };
        let rld = IddTable::rldram3_x18();
        let ddr = IddTable::ddr3();
        let lp = IddTable::lpddr2_server();
        let rcfg = DeviceConfig::rldram3();
        let dcfg = DeviceConfig::ddr3_1600();
        let lcfg = DeviceConfig::lpddr2_800();
        // At 5% utilization RLDRAM3 is many times DDR3.
        assert!(util_power(&rld, &rcfg, 0.05) > 4.0 * util_power(&ddr, &dcfg, 0.05));
        // The ratio shrinks markedly at 80% utilization.
        let low_ratio = util_power(&rld, &rcfg, 0.05) / util_power(&ddr, &dcfg, 0.05);
        let high_ratio = util_power(&rld, &rcfg, 0.8) / util_power(&ddr, &dcfg, 0.8);
        assert!(high_ratio < low_ratio / 2.0, "low {low_ratio:.1} high {high_ratio:.1}");
        // LPDDR2 stays below DDR3 everywhere.
        for u in [0.0, 0.2, 0.5, 0.9] {
            assert!(util_power(&lp, &lcfg, u) < util_power(&ddr, &dcfg, u), "u={u}");
        }
    }

    #[test]
    fn powerdown_residency_reduces_background() {
        let awake = fake_stats(DeviceKind::Lpddr2, 8);
        let mut asleep = awake.clone();
        asleep.residency = Residency {
            active_standby: 5_000,
            precharge_standby: 5_000,
            precharge_powerdown: 60_000,
            self_refresh: 30_000,
            ..Default::default()
        };
        let p_awake = channel_power(&awake, LpddrIo::ServerAdapted);
        let p_asleep = channel_power(&asleep, LpddrIo::ServerAdapted);
        assert!(p_asleep.background_w < p_awake.background_w);
    }

    #[test]
    fn malladi_variant_cuts_lpddr2_power() {
        let s = fake_stats(DeviceKind::Lpddr2, 8);
        let served = channel_power(&s, LpddrIo::ServerAdapted);
        let raw = channel_power(&s, LpddrIo::Unterminated);
        assert!(raw.total_w() < served.total_w());
        assert_eq!(raw.termination_w, 0.0);
    }

    #[test]
    fn pasr_scales_only_the_self_refresh_share() {
        let mut s = fake_stats(DeviceKind::Lpddr2, 8);
        s.residency =
            Residency { precharge_standby: 20_000, self_refresh: 80_000, ..Default::default() };
        let idd = IddTable::lpddr2_unterminated();
        let cfg = DeviceConfig::preset(DeviceKind::Lpddr2);
        let base = channel_power_with(&s, &idd, &cfg);
        // Retaining 1/8 of the array saves 7/8 of the IDD6 share.
        let pasr = apply_pasr(&base, &s, &idd, 0.125);
        let full_sr_w = idd.idd6 * idd.vdd / 1000.0 * 0.8 * 8.0;
        let expect = base.background_w - full_sr_w * 0.875;
        assert!((pasr.background_w - expect).abs() < 1e-9);
        // Full retention is a no-op.
        let noop = apply_pasr(&base, &s, &idd, 1.0);
        assert!((noop.background_w - base.background_w).abs() < 1e-12);
        // Dynamic terms untouched.
        assert_eq!(pasr.read_w, base.read_w);
    }

    #[test]
    #[should_panic(expected = "retained_fraction is a fraction")]
    fn pasr_rejects_bad_fraction() {
        let s = fake_stats(DeviceKind::Lpddr2, 8);
        let idd = IddTable::lpddr2_server();
        let cfg = DeviceConfig::preset(DeviceKind::Lpddr2);
        let b = channel_power_with(&s, &idd, &cfg);
        let _ = apply_pasr(&b, &s, &idd, 1.5);
    }

    #[test]
    fn empty_stats_yield_zero_power() {
        let mut s = fake_stats(DeviceKind::Ddr3, 9);
        s.mem_cycles = 0;
        assert_eq!(channel_power(&s, LpddrIo::ServerAdapted).total_w(), 0.0);
    }
}
