//! Activity counters consumed by the power model and the reports.

/// Device-cycles a rank spent in each power-relevant state.
///
/// These map one-to-one onto the background-current terms of the Micron
/// power calculator (IDD3N, IDD2N, IDD3P, IDD2P, IDD6).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Residency {
    /// CKE high, at least one bank open (IDD3N).
    pub active_standby: u64,
    /// CKE high, all banks closed (IDD2N).
    pub precharge_standby: u64,
    /// Power-down with a bank open (IDD3P).
    pub active_powerdown: u64,
    /// Power-down, all banks closed (IDD2P).
    pub precharge_powerdown: u64,
    /// Self-refresh (IDD6).
    pub self_refresh: u64,
}

impl Residency {
    /// Total accounted cycles.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.active_standby
            + self.precharge_standby
            + self.active_powerdown
            + self.precharge_powerdown
            + self.self_refresh
    }

    /// Fraction of time in any power-down or self-refresh state.
    #[must_use]
    pub fn low_power_fraction(&self) -> f64 {
        let t = self.total();
        if t == 0 {
            return 0.0;
        }
        (self.active_powerdown + self.precharge_powerdown + self.self_refresh) as f64 / t as f64
    }

    /// Element-wise accumulate another residency (for summing ranks).
    pub fn add(&mut self, other: &Residency) {
        self.active_standby += other.active_standby;
        self.precharge_standby += other.precharge_standby;
        self.active_powerdown += other.active_powerdown;
        self.precharge_powerdown += other.precharge_powerdown;
        self.self_refresh += other.self_refresh;
    }

    /// Element-wise subtract an earlier snapshot (for warm-up deltas).
    /// Saturates at zero.
    pub fn sub(&mut self, earlier: &Residency) {
        self.active_standby = self.active_standby.saturating_sub(earlier.active_standby);
        self.precharge_standby = self.precharge_standby.saturating_sub(earlier.precharge_standby);
        self.active_powerdown = self.active_powerdown.saturating_sub(earlier.active_powerdown);
        self.precharge_powerdown =
            self.precharge_powerdown.saturating_sub(earlier.precharge_powerdown);
        self.self_refresh = self.self_refresh.saturating_sub(earlier.self_refresh);
    }
}

/// Upper bound on banks per rank across all supported devices (DDR5 has
/// 32; RLDRAM3 and DDR4 have 16; DDR3, LPDDR2 and LPDDR4 have 8).
pub const MAX_BANKS: usize = 32;

/// Per-bank command counters (index = bank id within the rank, summed
/// over ranks of a channel).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BankCounters {
    /// ACT commands issued to this bank (incl. implicit activates).
    pub activates: u64,
    /// READ column commands to this bank.
    pub reads: u64,
    /// WRITE column commands to this bank.
    pub writes: u64,
}

impl BankCounters {
    /// Element-wise accumulate.
    pub fn add(&mut self, other: &BankCounters) {
        self.activates += other.activates;
        self.reads += other.reads;
        self.writes += other.writes;
    }

    /// Element-wise subtract (for warm-up deltas). Saturates at zero.
    pub fn sub(&mut self, other: &BankCounters) {
        self.activates = self.activates.saturating_sub(other.activates);
        self.reads = self.reads.saturating_sub(other.reads);
        self.writes = self.writes.saturating_sub(other.writes);
    }
}

/// Fixed-bucket latency histogram with ~25% relative resolution.
///
/// Values 0–15 get exact buckets; larger values share an octave split
/// into four sub-buckets (an HDR-histogram-style layout). Everything is
/// plain integer counters, so [`LatencyHist::merge`] is associative and
/// commutative — the property the parallel sweep's order-independent
/// aggregation test pins down — and quantile queries are deterministic
/// across thread counts.
#[derive(Clone, Copy)]
pub struct LatencyHist {
    buckets: [u64; Self::BUCKETS],
    count: u64,
    sum: u64,
    max: u64,
}

impl LatencyHist {
    /// Exact buckets for small values.
    const LOW: usize = 16;
    /// Sub-buckets per octave above [`Self::LOW`].
    const SUB: usize = 4;
    /// Total bucket count: 16 exact + 4 per octave for octaves 4..=63.
    const BUCKETS: usize = Self::LOW + (64 - 4) * Self::SUB;

    /// Bucket index of `v`.
    fn index(v: u64) -> usize {
        if v < Self::LOW as u64 {
            return v as usize;
        }
        let octave = 63 - v.leading_zeros() as usize; // >= 4
        let sub = ((v >> (octave - 2)) & 0b11) as usize;
        Self::LOW + (octave - 4) * Self::SUB + sub
    }

    /// Inclusive upper bound of bucket `i` (the value reported by
    /// [`LatencyHist::quantile`]).
    fn bucket_high(i: usize) -> u64 {
        if i < Self::LOW {
            return i as u64;
        }
        let rel = i - Self::LOW;
        let octave = 4 + rel / Self::SUB;
        let sub = (rel % Self::SUB) as u64;
        (1u64 << octave) + ((sub + 1) << (octave - 2)) - 1
    }

    /// Record one value.
    pub fn record(&mut self, v: u64) {
        self.buckets[Self::index(v)] += 1;
        self.count += 1;
        self.sum += v;
        self.max = self.max.max(v);
    }

    /// Number of recorded values.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of recorded values.
    #[must_use]
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Largest recorded value (0 when empty).
    #[must_use]
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean of recorded values (0.0 when empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Value at quantile `q` in `[0, 1]`: the upper bound of the bucket
    /// holding the `ceil(q·count)`-th smallest sample (capped at the
    /// recorded maximum). Returns 0 when empty.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    #[must_use]
    pub fn quantile(&self, q: f64) -> u64 {
        assert!((0.0..=1.0).contains(&q), "quantile {q} outside [0, 1]");
        if self.count == 0 {
            return 0;
        }
        #[allow(clippy::cast_sign_loss, clippy::cast_possible_truncation)]
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return Self::bucket_high(i).min(self.max);
            }
        }
        self.max
    }

    /// Accumulate another histogram (bucket-wise; associative and
    /// commutative).
    pub fn merge(&mut self, other: &LatencyHist) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }

    /// Subtract an earlier snapshot (for warm-up deltas). The maximum is
    /// kept from `self` (conservative: deltas cannot lower a maximum).
    pub fn sub(&mut self, earlier: &LatencyHist) {
        for (a, b) in self.buckets.iter_mut().zip(&earlier.buckets) {
            *a = a.saturating_sub(*b);
        }
        self.count = self.count.saturating_sub(earlier.count);
        self.sum = self.sum.saturating_sub(earlier.sum);
    }
}

impl Default for LatencyHist {
    fn default() -> Self {
        LatencyHist { buckets: [0; Self::BUCKETS], count: 0, sum: 0, max: 0 }
    }
}

impl PartialEq for LatencyHist {
    fn eq(&self, other: &Self) -> bool {
        self.count == other.count
            && self.sum == other.sum
            && self.max == other.max
            && self.buckets[..] == other.buckets[..]
    }
}

impl Eq for LatencyHist {}

impl std::fmt::Debug for LatencyHist {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LatencyHist")
            .field("count", &self.count)
            .field("mean", &self.mean())
            .field("p50", &self.quantile(0.50))
            .field("p95", &self.quantile(0.95))
            .field("p99", &self.quantile(0.99))
            .field("max", &self.max)
            .finish()
    }
}

/// Command and bus-activity counters for one channel.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChannelStats {
    /// ACT commands issued (plus implicit activates of single-command reads).
    pub activates: u64,
    /// READ column commands.
    pub reads: u64,
    /// WRITE column commands.
    pub writes: u64,
    /// Explicit PRECHARGE commands.
    pub precharges: u64,
    /// Refresh commands (all-bank or per-bank).
    pub refreshes: u64,
    /// Column accesses that hit an already-open row.
    pub row_hits: u64,
    /// Activates issued to an idle bank (row closed).
    pub row_misses: u64,
    /// Activates that first required closing another row.
    pub row_conflicts: u64,
    /// Device cycles the data bus carried read data.
    pub read_bus_cycles: u64,
    /// Device cycles the data bus carried write data.
    pub write_bus_cycles: u64,
    /// Per-bank command counters (bank id within the rank, summed over
    /// ranks).
    pub per_bank: [BankCounters; MAX_BANKS],
}

impl ChannelStats {
    /// Data-bus utilization over `elapsed` device cycles.
    #[must_use]
    pub fn bus_utilization(&self, elapsed: u64) -> f64 {
        if elapsed == 0 {
            return 0.0;
        }
        (self.read_bus_cycles + self.write_bus_cycles) as f64 / elapsed as f64
    }

    /// Row-buffer hit rate over all column accesses.
    #[must_use]
    pub fn row_hit_rate(&self) -> f64 {
        let cols = self.reads + self.writes;
        if cols == 0 {
            return 0.0;
        }
        self.row_hits as f64 / cols as f64
    }

    /// Element-wise accumulate (for summing channels).
    pub fn add(&mut self, other: &ChannelStats) {
        self.activates += other.activates;
        self.reads += other.reads;
        self.writes += other.writes;
        self.precharges += other.precharges;
        self.refreshes += other.refreshes;
        self.row_hits += other.row_hits;
        self.row_misses += other.row_misses;
        self.row_conflicts += other.row_conflicts;
        self.read_bus_cycles += other.read_bus_cycles;
        self.write_bus_cycles += other.write_bus_cycles;
        for (a, b) in self.per_bank.iter_mut().zip(&other.per_bank) {
            a.add(b);
        }
    }

    /// Element-wise subtract an earlier snapshot (for warm-up deltas).
    pub fn sub(&mut self, earlier: &ChannelStats) {
        self.activates -= earlier.activates;
        self.reads -= earlier.reads;
        self.writes -= earlier.writes;
        self.precharges -= earlier.precharges;
        self.refreshes -= earlier.refreshes;
        self.row_hits -= earlier.row_hits;
        self.row_misses -= earlier.row_misses;
        self.row_conflicts -= earlier.row_conflicts;
        self.read_bus_cycles -= earlier.read_bus_cycles;
        self.write_bus_cycles -= earlier.write_bus_cycles;
        for (a, b) in self.per_bank.iter_mut().zip(&earlier.per_bank) {
            a.sub(b);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn utilization_and_hit_rate() {
        let s = ChannelStats {
            reads: 8,
            writes: 2,
            row_hits: 5,
            read_bus_cycles: 32,
            write_bus_cycles: 8,
            ..Default::default()
        };
        assert!((s.bus_utilization(100) - 0.4).abs() < 1e-12);
        assert!((s.row_hit_rate() - 0.5).abs() < 1e-12);
        assert_eq!(ChannelStats::default().row_hit_rate(), 0.0);
        assert_eq!(ChannelStats::default().bus_utilization(0), 0.0);
    }

    #[test]
    fn residency_totals() {
        let r = Residency {
            active_standby: 10,
            precharge_standby: 20,
            active_powerdown: 5,
            precharge_powerdown: 15,
            self_refresh: 50,
        };
        assert_eq!(r.total(), 100);
        assert!((r.low_power_fraction() - 0.70).abs() < 1e-12);
    }

    #[test]
    fn latency_hist_buckets_are_monotone() {
        // Every index maps to an upper bound >= the value, and indices
        // are non-decreasing in the value.
        let mut prev = 0usize;
        for v in [0u64, 1, 15, 16, 17, 63, 64, 100, 1 << 20, u64::MAX / 2] {
            let i = LatencyHist::index(v);
            assert!(i >= prev, "index not monotone at {v}");
            assert!(LatencyHist::bucket_high(i) >= v, "bucket high < value at {v}");
            prev = i;
        }
    }

    #[test]
    fn latency_hist_quantiles() {
        let mut h = LatencyHist::default();
        for v in 1..=100u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 100);
        assert_eq!(h.sum(), 5050);
        assert_eq!(h.max(), 100);
        // ~25% bucket resolution: p50 of 1..=100 is within [50, 63].
        let p50 = h.quantile(0.50);
        assert!((50..=63).contains(&p50), "p50 = {p50}");
        assert!(h.quantile(1.0) == 100);
        assert_eq!(h.quantile(0.0), 1);
        assert_eq!(LatencyHist::default().quantile(0.99), 0);
    }

    #[test]
    fn latency_hist_merge_is_commutative() {
        let mut a = LatencyHist::default();
        let mut b = LatencyHist::default();
        for v in [3u64, 900, 17, 4096, 0] {
            a.record(v);
        }
        for v in [8u64, 8, 123_456] {
            b.record(v);
        }
        let mut ab = a;
        ab.merge(&b);
        let mut ba = b;
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.count(), 8);
    }

    #[test]
    fn latency_hist_sub_reverses_merge() {
        let mut warm = LatencyHist::default();
        warm.record(10);
        warm.record(200);
        let mut total = warm;
        total.record(77);
        total.sub(&warm);
        assert_eq!(total.count(), 1);
        assert_eq!(total.sum(), 77);
        // Quantile reports the surviving bucket's upper bound (77 lives
        // in the 64..=79 bucket).
        let p50 = total.quantile(0.5);
        assert!((77..=79).contains(&p50), "p50 = {p50}");
    }

    #[test]
    fn per_bank_counters_roundtrip() {
        let mut s = ChannelStats::default();
        s.per_bank[3].reads = 7;
        s.per_bank[3].activates = 2;
        let mut t = ChannelStats::default();
        t.per_bank[3].reads = 1;
        s.add(&t);
        assert_eq!(s.per_bank[3].reads, 8);
        s.sub(&t);
        assert_eq!(s.per_bank[3].reads, 7);
    }

    #[test]
    fn accumulation() {
        let mut a = ChannelStats { reads: 1, ..Default::default() };
        let b = ChannelStats { reads: 2, writes: 3, ..Default::default() };
        a.add(&b);
        assert_eq!(a.reads, 3);
        assert_eq!(a.writes, 3);

        let mut ra = Residency { active_standby: 1, ..Default::default() };
        ra.add(&Residency { active_standby: 2, self_refresh: 4, ..Default::default() });
        assert_eq!(ra.active_standby, 3);
        assert_eq!(ra.self_refresh, 4);
    }
}

cwf_ckpt::ckpt_struct!(Residency {
    active_standby,
    precharge_standby,
    active_powerdown,
    precharge_powerdown,
    self_refresh,
});

cwf_ckpt::ckpt_struct!(BankCounters { activates, reads, writes });

cwf_ckpt::ckpt_struct!(LatencyHist { buckets, count, sum, max });

cwf_ckpt::ckpt_struct!(ChannelStats {
    activates,
    reads,
    writes,
    precharges,
    refreshes,
    row_hits,
    row_misses,
    row_conflicts,
    read_bus_cycles,
    write_bus_cycles,
    per_bank,
});
