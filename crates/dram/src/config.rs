//! Device configurations: timing, geometry and access style per DRAM flavor.
//!
//! Since the spec-layer refactor every configuration is **data-driven**: the
//! constructors below are thin wrappers that load the compile-time-embedded
//! TOML specs under `specs/` (see [`crate::spec`]), so a [`DeviceConfig`] is
//! always the product of the same parser + validator that handles user
//!-provided spec files. The three paper presets carry Table 2 timing
//! parameters converted into device-clock cycles (1.25 ns for the 800 MHz
//! DDR3/RLDRAM3 buses, 2.5 ns for the 400 MHz LPDDR2 bus), plus standard
//! JEDEC values for the parameters the paper leaves implicit (`tCCD`,
//! `tRRD`, `tRTP`, `tWR`, refresh, power-down exits), taken from the
//! referenced Micron datasheets. The DDR4/DDR5/LPDDR4 specs extend the set
//! with bank groups (`tCCD_L`/`tCCD_S`, `tRRD_L`/`tRRD_S`) and DDR5's
//! same-bank refresh.

use std::sync::OnceLock;

/// The DRAM flavor a channel is built from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum DeviceKind {
    /// Commodity DDR3-1600 (MT41J256M8): the paper's baseline.
    Ddr3,
    /// Mobile LPDDR2-800 (MT42L128M16D1): the low-power DIMM.
    Lpddr2,
    /// Reduced-latency RLDRAM3 (MT44K32M18): the critical-word DIMM.
    Rldram3,
    /// DDR4-2400: 16 banks in 4 bank groups (`tCCD_L`/`tCCD_S`).
    Ddr4,
    /// DDR5-4800: 32 banks in 8 bank groups, same-bank refresh (REFsb).
    Ddr5,
    /// LPDDR4-3200: the mobile successor to LPDDR2.
    Lpddr4,
    /// NVM-backed slow tier (3D-XPoint-class): DDR4 interface with long
    /// tRCD/tRC media latencies — the DRAM-cache backing store.
    NvmSlow,
}

impl DeviceKind {
    /// Every supported flavor, in declaration order.
    pub const ALL: [DeviceKind; 7] = [
        DeviceKind::Ddr3,
        DeviceKind::Lpddr2,
        DeviceKind::Rldram3,
        DeviceKind::Ddr4,
        DeviceKind::Ddr5,
        DeviceKind::Lpddr4,
        DeviceKind::NvmSlow,
    ];

    /// The id of the embedded spec this kind loads (`specs/<id>.toml`).
    #[must_use]
    pub fn spec_id(self) -> &'static str {
        match self {
            DeviceKind::Ddr3 => "ddr3_1600",
            DeviceKind::Lpddr2 => "lpddr2_800",
            DeviceKind::Rldram3 => "rldram3",
            DeviceKind::Ddr4 => "ddr4_2400",
            DeviceKind::Ddr5 => "ddr5_4800",
            DeviceKind::Lpddr4 => "lpddr4_3200",
            DeviceKind::NvmSlow => "nvm_slow",
        }
    }

    /// Parse a CLI/spec token: either the spec id (`"ddr5_4800"`) or the
    /// lowercase family name (`"ddr5"`).
    #[must_use]
    pub fn parse_token(token: &str) -> Option<DeviceKind> {
        Self::ALL
            .into_iter()
            .find(|k| k.spec_id() == token || k.to_string().to_lowercase() == token)
    }

    fn index(self) -> usize {
        match self {
            DeviceKind::Ddr3 => 0,
            DeviceKind::Lpddr2 => 1,
            DeviceKind::Rldram3 => 2,
            DeviceKind::Ddr4 => 3,
            DeviceKind::Ddr5 => 4,
            DeviceKind::Lpddr4 => 5,
            DeviceKind::NvmSlow => 6,
        }
    }
}

impl std::fmt::Display for DeviceKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DeviceKind::Ddr3 => write!(f, "DDR3"),
            DeviceKind::Lpddr2 => write!(f, "LPDDR2"),
            DeviceKind::Rldram3 => write!(f, "RLDRAM3"),
            DeviceKind::Ddr4 => write!(f, "DDR4"),
            DeviceKind::Ddr5 => write!(f, "DDR5"),
            DeviceKind::Lpddr4 => write!(f, "LPDDR4"),
            DeviceKind::NvmSlow => write!(f, "NVM"),
        }
    }
}

/// Row-buffer management policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PagePolicy {
    /// Keep rows open to harvest row-buffer hits (DDR3/LPDDR2 baseline).
    Open,
    /// Auto-precharge after every column access. RLDRAM3 can *only*
    /// operate this way (§2.3).
    Closed,
}

/// How a random access is addressed on the command bus.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AddressingStyle {
    /// Separate row (ACT) and column (RD/WR) commands — DDR3, LPDDR2.
    RasCas,
    /// SRAM-style: the full address rides on a single READ/WRITE command
    /// and the bank auto-precharges afterwards — RLDRAM3.
    SingleCommand,
}

/// Command class a timing constraint refers to (spec-file vocabulary:
/// `act`, `rd`, `wr`, `pre`, `refsb`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum CmdClass {
    /// Row activate.
    Act,
    /// Column read (on single-command devices: the implicit activate too).
    Rd,
    /// Column write (on single-command devices: the implicit activate too).
    Wr,
    /// Precharge.
    Pre,
    /// Per-bank refresh (REFB / DDR5 REFsb).
    RefSb,
}

/// Scope at which a timing constraint is enforced (spec-file vocabulary:
/// `@bank`, `@bank-group`, `@rank`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ConstraintScope {
    /// Both commands address the same bank.
    Bank,
    /// Both commands address banks of the same bank group.
    BankGroup,
    /// Both commands address the same rank.
    Rank,
}

/// Which edge of the *previous* command starts the constraint clock
/// (spec-file vocabulary: the optional `from=data-end` suffix).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RefPoint {
    /// The previous command's issue cycle (default).
    Issue,
    /// The cycle just after the previous command's last data beat
    /// (write-recovery style rules: `tWR`, `tWTR`).
    DataEnd,
}

/// One parsed timing rule from a spec's `[timing] constraints` table:
/// *`next` may not issue sooner than `cycles` after `prev` within `scope`*.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecConstraint {
    /// JEDEC-style rule name (`"tRC"`, `"tCCD_L"`, …); drawn from a closed
    /// vocabulary so the verify oracle can map it onto a [`crate::Rule`].
    pub name: String,
    /// Earlier command class.
    pub prev: CmdClass,
    /// Later command class the spacing applies to.
    pub next: CmdClass,
    /// Scope the pair must share for the rule to bind.
    pub scope: ConstraintScope,
    /// Minimum spacing in device cycles (always > 0).
    pub cycles: u32,
    /// Sliding-window size: 1 for plain pairwise rules, 4 for the rolling
    /// four-activate `tFAW` window.
    pub window: u32,
    /// Reference edge on the previous command.
    pub from: RefPoint,
}

/// Timing parameters in **device clock cycles**.
///
/// A value of 0 means the constraint does not exist for this device
/// (e.g. `t_faw` on RLDRAM3, `t_ccd_l` on ungrouped devices). Every field
/// except the clock/bus parameters is *derived* from the spec's constraint
/// table by [`crate::spec::DeviceSpec`]; the scalars exist so the hot
/// channel path and the power model need no table lookups.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeviceTimings {
    /// Clock period in picoseconds (1250 for 800 MHz, 2500 for 400 MHz).
    pub t_ck_ps: u32,
    /// Data-bus cycles one cache-line burst occupies (BL8 ⇒ 4).
    pub t_burst: u32,
    /// Bank turnaround: ACT-to-ACT on the same bank.
    pub t_rc: u32,
    /// ACT to column command.
    pub t_rcd: u32,
    /// Read latency: READ command to first data beat.
    pub t_rl: u32,
    /// Precharge latency.
    pub t_rp: u32,
    /// ACT to PRECHARGE minimum.
    pub t_ras: u32,
    /// Rank-to-rank data-bus switch penalty (bus cycles).
    pub t_rtrs: u32,
    /// Four-activate window (0 ⇒ unconstrained).
    pub t_faw: u32,
    /// End of write burst to READ command, same rank (0 ⇒ none).
    pub t_wtr: u32,
    /// Write latency: WRITE command to first data beat.
    pub t_wl: u32,
    /// Column-to-column command spacing (same bank; on bank-grouped
    /// devices this is the short cross-group `tCCD_S`).
    pub t_ccd: u32,
    /// Column-to-column spacing within one bank group (`tCCD_L`;
    /// 0 ⇒ the device has no bank groups).
    pub t_ccd_l: u32,
    /// ACT-to-ACT across banks of one rank (0 ⇒ none; on bank-grouped
    /// devices this is the short cross-group `tRRD_S`).
    pub t_rrd: u32,
    /// ACT-to-ACT within one bank group (`tRRD_L`; 0 ⇒ no bank groups).
    pub t_rrd_l: u32,
    /// READ to PRECHARGE of the same bank.
    pub t_rtp: u32,
    /// Write recovery: end of write burst to PRECHARGE.
    pub t_wr: u32,
    /// Average refresh interval (0 ⇒ no controller-visible refresh).
    pub t_refi: u32,
    /// Refresh cycle time (all-bank for DDR3/LPDDR2, per-bank for
    /// RLDRAM3 and DDR5 REFsb).
    pub t_rfc: u32,
    /// Power-down exit latency (0 ⇒ device has no power-down mode).
    pub t_xp: u32,
    /// Self-refresh exit latency (0 ⇒ no self-refresh mode).
    pub t_xsr: u32,
}

impl DeviceTimings {
    /// Convert a cycle count of this device's clock into nanoseconds.
    #[must_use]
    pub fn cycles_to_ns(&self, cycles: u64) -> f64 {
        cycles as f64 * f64::from(self.t_ck_ps) / 1000.0
    }
}

/// Geometry of a single device (chip) and of the rank it forms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeviceGeometry {
    /// Banks per device.
    pub banks: u32,
    /// Bank groups per device (1 ⇒ no bank grouping; when > 1, `banks`
    /// is evenly divided and the long/short `tCCD`/`tRRD` pairs apply).
    pub bank_groups: u32,
    /// Rows per bank.
    pub rows: u32,
    /// Cache lines per row **per rank** (row-buffer size / 64 B).
    pub lines_per_row: u32,
    /// Data width of one device in bits (8, 9, 16, …).
    pub width_bits: u32,
    /// Device capacity in megabits (for cost/capacity accounting).
    pub capacity_mbit: u32,
}

/// Complete description of the devices behind one channel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeviceConfig {
    /// Device flavor.
    pub kind: DeviceKind,
    /// Human-readable part name.
    pub name: String,
    /// Timing parameters in device cycles.
    pub timings: DeviceTimings,
    /// Bank/row geometry.
    pub geometry: DeviceGeometry,
    /// Row-buffer policy the controller must use.
    pub page_policy: PagePolicy,
    /// RAS/CAS vs single-command addressing.
    pub addressing: AddressingStyle,
    /// CPU cycles per device cycle (3.2 GHz core: 4 for 800 MHz, 8 for 400 MHz).
    pub cpu_cycles_per_mem_cycle: u32,
    /// Device-cycles of rank idleness before the controller drops the rank
    /// into fast power-down (0 ⇒ never; RLDRAM3 has no power-down).
    pub powerdown_idle_cycles: u32,
    /// Device-cycles of rank idleness before entering self-refresh
    /// (0 ⇒ never).
    pub self_refresh_idle_cycles: u32,
    /// Refresh granularity: `true` ⇒ the controller issues per-bank
    /// refreshes (RLDRAM3 REFB, DDR5 REFsb) on a rotating bank pointer,
    /// `false` ⇒ all-bank REF with every row closed first.
    pub refresh_per_bank: bool,
    /// The timing-constraint table the scalar [`DeviceTimings`] were
    /// derived from; the verify oracle's `ProtocolChecker` generates its
    /// rule set from this same table.
    pub constraints: Vec<SpecConstraint>,
}

/// Embedded-spec cache: each preset is parsed once per process.
fn embedded_preset(kind: DeviceKind) -> &'static DeviceConfig {
    static CACHE: [OnceLock<DeviceConfig>; 7] = [const { OnceLock::new() }; 7];
    CACHE[kind.index()].get_or_init(|| {
        let spec = crate::spec::DeviceSpec::embedded(kind.spec_id())
            .unwrap_or_else(|| panic!("no embedded spec for {kind:?}"));
        spec.into_config()
    })
}

impl DeviceConfig {
    /// DDR3-1600, x8, 2 Gb (Micron MT41J256M8) — the paper's baseline part.
    ///
    /// Table 2: tRC 50 ns, tRCD/tRL/tRP 13.5 ns, tRAS 37 ns, tFAW 40 ns,
    /// tWTR 7.5 ns, tWL 6.5 ns, tRTRS 2 bus cycles; 8 banks; open page.
    /// Loaded from the embedded `specs/ddr3_1600.toml`.
    #[must_use]
    pub fn ddr3_1600() -> Self {
        Self::preset(DeviceKind::Ddr3)
    }

    /// LPDDR2-800, 2 Gb (modelled after MT42L128M16D1 at 400 MHz) — the
    /// low-power DIMM, with the paper's server adaptations (DLL + ODT).
    ///
    /// Table 2: tRC 60 ns, tRCD/tRL/tRP 18 ns, tRAS 42 ns, tFAW 50 ns,
    /// tWTR 7.5 ns, tWL 6.5 ns; 8 banks; open page (energy-minimising);
    /// aggressive sleep-transition policy (§4.1). Loaded from the embedded
    /// `specs/lpddr2_800.toml`.
    #[must_use]
    pub fn lpddr2_800() -> Self {
        Self::preset(DeviceKind::Lpddr2)
    }

    /// RLDRAM3-1600, 576 Mb x9 slice (modelled after MT44K32M18) — the
    /// critical-word DIMM.
    ///
    /// Table 2: tRC 12 ns, tRL 10 ns, tWL 11.25 ns; 16 banks; no tFAW, no
    /// tWTR; SRAM-style single-command addressing with built-in
    /// auto-precharge (close page only); no power-down modes, which is why
    /// its background power is high (§3). Loaded from the embedded
    /// `specs/rldram3.toml`.
    #[must_use]
    pub fn rldram3() -> Self {
        Self::preset(DeviceKind::Rldram3)
    }

    /// DDR4-2400, x8, 8 Gb (modelled after MT40A1G8): 16 banks in 4 bank
    /// groups with `tCCD_L`/`tCCD_S` and `tRRD_L`/`tRRD_S` split timings.
    /// Loaded from the embedded `specs/ddr4_2400.toml`.
    #[must_use]
    pub fn ddr4_2400() -> Self {
        Self::preset(DeviceKind::Ddr4)
    }

    /// DDR5-4800, x8, 16 Gb: 32 banks in 8 bank groups and same-bank
    /// refresh (REFsb). Loaded from the embedded `specs/ddr5_4800.toml`.
    #[must_use]
    pub fn ddr5_4800() -> Self {
        Self::preset(DeviceKind::Ddr5)
    }

    /// LPDDR4-3200, 8 Gb: the mobile bulk option, with LPDDR2-style
    /// aggressive sleep transitions. Loaded from the embedded
    /// `specs/lpddr4_3200.toml`.
    #[must_use]
    pub fn lpddr4_3200() -> Self {
        Self::preset(DeviceKind::Lpddr4)
    }

    /// NVM-backed slow tier (3D-XPoint-class DIMM behind a DDR4-style
    /// interface): long tRCD/tRC media latencies, no refresh obligation
    /// worth modelling beyond the spec's token rate. The backing store of
    /// the DRAM-cache organization. Loaded from the embedded
    /// `specs/nvm_slow.toml`.
    #[must_use]
    pub fn nvm_slow() -> Self {
        Self::preset(DeviceKind::NvmSlow)
    }

    /// Preset lookup by kind: loads (and caches) the embedded spec.
    #[must_use]
    pub fn preset(kind: DeviceKind) -> Self {
        embedded_preset(kind).clone()
    }

    /// Peak pin bandwidth of one 64-bit data bus of this device type, in
    /// GB/s (DDR ⇒ two transfers per clock).
    #[must_use]
    pub fn peak_bandwidth_gbps(&self) -> f64 {
        let freq_ghz = 1000.0 / f64::from(self.timings.t_ck_ps);
        freq_ghz * 2.0 * 8.0
    }

    /// Fault-injection helper: a copy of this config with `tRCD` shaved by
    /// one cycle (both the scalar and the constraint-table entries, so the
    /// shaved config stays self-consistent). A controller built from the
    /// shaved config issues column commands one cycle early relative to the
    /// pristine spec; the verify oracle (checking against the *unshaved*
    /// config) must flag every such issue. Exists solely so the
    /// seeded-fault tests can prove the tRCD check is not vacuous — never
    /// use it to build a real memory system.
    #[must_use]
    pub fn with_shaved_trcd(mut self) -> Self {
        self.timings.t_rcd = self.timings.t_rcd.saturating_sub(1);
        for c in &mut self.constraints {
            if c.name == "tRCD" {
                c.cycles = c.cycles.saturating_sub(1).max(1);
            }
        }
        self
    }
}

impl cwf_ckpt::Ckpt for DeviceKind {
    fn save(&self, w: &mut cwf_ckpt::Writer) {
        let idx = DeviceKind::ALL.iter().position(|k| k == self).expect("kind in DeviceKind::ALL");
        w.put_u8(idx as u8);
    }
    fn load(r: &mut cwf_ckpt::Reader<'_>) -> cwf_ckpt::Result<Self> {
        let idx = usize::from(r.get_u8()?);
        DeviceKind::ALL
            .get(idx)
            .copied()
            .ok_or_else(|| cwf_ckpt::CkptError::new(format!("invalid DeviceKind index {idx}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_values_in_ns() {
        let d = DeviceConfig::ddr3_1600();
        assert_eq!(d.timings.cycles_to_ns(u64::from(d.timings.t_rc)), 50.0);
        assert_eq!(d.timings.cycles_to_ns(u64::from(d.timings.t_faw)), 40.0);
        let l = DeviceConfig::lpddr2_800();
        assert_eq!(l.timings.cycles_to_ns(u64::from(l.timings.t_rc)), 60.0);
        assert_eq!(l.timings.cycles_to_ns(u64::from(l.timings.t_faw)), 50.0);
        let r = DeviceConfig::rldram3();
        assert_eq!(r.timings.cycles_to_ns(u64::from(r.timings.t_rc)), 12.5);
    }

    #[test]
    fn rldram_is_close_page_single_command() {
        let r = DeviceConfig::rldram3();
        assert_eq!(r.page_policy, PagePolicy::Closed);
        assert_eq!(r.addressing, AddressingStyle::SingleCommand);
        assert_eq!(r.timings.t_faw, 0);
        assert_eq!(r.timings.t_wtr, 0);
        assert_eq!(r.geometry.banks, 16);
        assert!(r.refresh_per_bank);
    }

    #[test]
    fn bank_turnaround_ordering_matches_paper() {
        // RLDRAM3 tRC << DDR3 tRC < LPDDR2 tRC (in wall-clock time).
        let ns = |c: &DeviceConfig| c.timings.cycles_to_ns(u64::from(c.timings.t_rc));
        assert!(ns(&DeviceConfig::rldram3()) < ns(&DeviceConfig::ddr3_1600()));
        assert!(ns(&DeviceConfig::ddr3_1600()) < ns(&DeviceConfig::lpddr2_800()));
    }

    #[test]
    fn clock_ratios() {
        assert_eq!(DeviceConfig::ddr3_1600().cpu_cycles_per_mem_cycle, 4);
        assert_eq!(DeviceConfig::lpddr2_800().cpu_cycles_per_mem_cycle, 8);
        assert_eq!(DeviceConfig::rldram3().cpu_cycles_per_mem_cycle, 4);
        assert_eq!(DeviceConfig::ddr4_2400().cpu_cycles_per_mem_cycle, 3);
        assert_eq!(DeviceConfig::ddr5_4800().cpu_cycles_per_mem_cycle, 1);
        assert_eq!(DeviceConfig::lpddr4_3200().cpu_cycles_per_mem_cycle, 2);
    }

    #[test]
    fn pin_bandwidth_rldram_equals_ddr3() {
        // §3: "the pin bandwidth of the RLDRAM3 system is the same as DDR3".
        let d = DeviceConfig::ddr3_1600().peak_bandwidth_gbps();
        let r = DeviceConfig::rldram3().peak_bandwidth_gbps();
        assert!((d - r).abs() < 1e-9);
        // LPDDR2 runs at half the frequency.
        let l = DeviceConfig::lpddr2_800().peak_bandwidth_gbps();
        assert!((l - d / 2.0).abs() < 1e-9);
    }

    #[test]
    fn bank_grouped_presets_carry_split_timings() {
        let d4 = DeviceConfig::ddr4_2400();
        assert_eq!(d4.geometry.bank_groups, 4);
        assert!(d4.timings.t_ccd_l > d4.timings.t_ccd);
        assert!(d4.timings.t_rrd_l > d4.timings.t_rrd);
        let d5 = DeviceConfig::ddr5_4800();
        assert_eq!(d5.geometry.banks, 32);
        assert_eq!(d5.geometry.bank_groups, 8);
        assert!(d5.refresh_per_bank, "DDR5 uses same-bank refresh");
        // Ungrouped devices carry no long timings.
        assert_eq!(DeviceConfig::ddr3_1600().timings.t_ccd_l, 0);
        assert_eq!(DeviceConfig::lpddr4_3200().geometry.bank_groups, 1);
    }

    #[test]
    fn spec_ids_and_display_names_agree() {
        for kind in DeviceKind::ALL {
            let display = kind.to_string().to_lowercase();
            assert!(
                kind.spec_id() == display || kind.spec_id().starts_with(&format!("{display}_")),
                "{kind:?}: spec id {} does not extend display name {display}",
                kind.spec_id()
            );
            assert_eq!(DeviceKind::parse_token(kind.spec_id()), Some(kind));
            assert_eq!(DeviceKind::parse_token(&display), Some(kind));
            assert_eq!(DeviceConfig::preset(kind).kind, kind);
        }
    }

    #[test]
    fn shaved_trcd_shaves_constraints_too() {
        let cfg = DeviceConfig::ddr3_1600().with_shaved_trcd();
        assert_eq!(cfg.timings.t_rcd, 10);
        for c in cfg.constraints.iter().filter(|c| c.name == "tRCD") {
            assert_eq!(c.cycles, 10);
        }
    }
}
