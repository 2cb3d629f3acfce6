//! Physical-address interleaving.
//!
//! The baseline uses the open-page row-locality mapping from Jacob, Ng &
//! Wang ("Memory Systems", 2008) that the paper adopts: consecutive cache
//! lines first interleave across channels, then walk the columns of one
//! row, so that strided streams produce row-buffer hits on every channel.
//! RLDRAM3 (close page) instead interleaves across banks at line
//! granularity to maximise bank-level parallelism.

use dram_timing::{DeviceConfig, PagePolicy};

/// Device-local coordinates of one cache line (channel already stripped).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Loc {
    /// Rank within the channel.
    pub rank: u8,
    /// Bank within the rank.
    pub bank: u8,
    /// DRAM row.
    pub row: u32,
    /// Cache-line-sized column within the row.
    pub col: u32,
}

/// Address interleaving scheme.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MappingScheme {
    /// `row : rank : bank : column : channel` (line-interleaved channels,
    /// column bits low) — maximises open-page row hits for streams.
    OpenPageRowLocality,
    /// `row : rank : column : bank : channel` — line-granularity bank
    /// interleaving for close-page devices (RLDRAM3).
    ClosePageBankInterleave,
    /// Channels interleave at 4 KiB page granularity instead of line
    /// granularity (ablation: single streams cannot use all channels
    /// concurrently, but page-local traffic stays on one channel).
    PageInterleave,
}

impl MappingScheme {
    /// The best-performing line interleaving for a page policy: row
    /// locality for open-page devices, bank interleaving for close-page
    /// ones.
    #[must_use]
    pub fn for_page_policy(policy: PagePolicy) -> Self {
        match policy {
            PagePolicy::Open => MappingScheme::OpenPageRowLocality,
            PagePolicy::Closed => MappingScheme::ClosePageBankInterleave,
        }
    }
}

/// Decodes line addresses into `(channel, Loc)` pairs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AddressMapper {
    scheme: MappingScheme,
    channels: u32,
    ranks: u32,
    banks: u32,
    lines_per_row: u32,
    rows: u32,
}

impl AddressMapper {
    /// Build a mapper over the given topology.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero.
    #[must_use]
    pub fn new(
        scheme: MappingScheme,
        channels: u32,
        ranks: u32,
        banks: u32,
        lines_per_row: u32,
        rows: u32,
    ) -> Self {
        assert!(
            channels > 0 && ranks > 0 && banks > 0 && lines_per_row > 0 && rows > 0,
            "mapper dimensions must be non-zero"
        );
        AddressMapper { scheme, channels, ranks, banks, lines_per_row, rows }
    }

    /// A mapper over `channels` channels of `ranks` ranks of `cfg`
    /// devices (banks, row size and row count from its geometry).
    #[must_use]
    pub fn for_device(
        scheme: MappingScheme,
        channels: u32,
        ranks: u32,
        cfg: &DeviceConfig,
    ) -> Self {
        let g = &cfg.geometry;
        Self::new(scheme, channels, ranks, g.banks, g.lines_per_row, g.rows)
    }

    /// Number of channels this mapper spreads lines over.
    #[must_use]
    pub fn channels(&self) -> u32 {
        self.channels
    }

    /// Decode a byte address (any alignment) to `(channel, Loc)`.
    #[must_use]
    pub fn decode(&self, addr: u64) -> (u8, Loc) {
        let mut idx = addr >> 6; // 64-byte lines
        let channel = (idx % u64::from(self.channels)) as u8;
        idx /= u64::from(self.channels);
        match self.scheme {
            MappingScheme::OpenPageRowLocality => {
                let col = (idx % u64::from(self.lines_per_row)) as u32;
                idx /= u64::from(self.lines_per_row);
                let bank = (idx % u64::from(self.banks)) as u8;
                idx /= u64::from(self.banks);
                let rank = (idx % u64::from(self.ranks)) as u8;
                idx /= u64::from(self.ranks);
                let row = (idx % u64::from(self.rows)) as u32;
                (channel, Loc { rank, bank, row, col })
            }
            MappingScheme::ClosePageBankInterleave => {
                let bank = (idx % u64::from(self.banks)) as u8;
                idx /= u64::from(self.banks);
                let col = (idx % u64::from(self.lines_per_row)) as u32;
                idx /= u64::from(self.lines_per_row);
                let rank = (idx % u64::from(self.ranks)) as u8;
                idx /= u64::from(self.ranks);
                let row = (idx % u64::from(self.rows)) as u32;
                (channel, Loc { rank, bank, row, col })
            }
            MappingScheme::PageInterleave => {
                // Recompute from the raw line index: channel bits sit above
                // the 4 KiB page offset (64 lines per page).
                let mut idx = addr >> 6;
                let in_page = idx % 64;
                let page = idx / 64;
                let channel = (page % u64::from(self.channels)) as u8;
                idx = page / u64::from(self.channels) * 64 + in_page;
                let col = (idx % u64::from(self.lines_per_row)) as u32;
                idx /= u64::from(self.lines_per_row);
                let bank = (idx % u64::from(self.banks)) as u8;
                idx /= u64::from(self.banks);
                let rank = (idx % u64::from(self.ranks)) as u8;
                idx /= u64::from(self.ranks);
                let row = (idx % u64::from(self.rows)) as u32;
                (channel, Loc { rank, bank, row, col })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn baseline() -> AddressMapper {
        // 4 channels, 1 rank, 8 banks, 128 lines/row, 32768 rows — Table 1.
        AddressMapper::new(MappingScheme::OpenPageRowLocality, 4, 1, 8, 128, 32768)
    }

    #[test]
    fn sequential_lines_interleave_channels() {
        let m = baseline();
        let chans: Vec<u8> = (0..8u64).map(|i| m.decode(i * 64).0).collect();
        assert_eq!(chans, vec![0, 1, 2, 3, 0, 1, 2, 3]);
    }

    #[test]
    fn stream_within_channel_stays_in_one_row() {
        let m = baseline();
        // Lines 0, 4, 8, ... land on channel 0; the first 128 of them
        // should share a row (so open-page streams get row hits).
        let first = m.decode(0).1;
        for i in 1..128u64 {
            let loc = m.decode(i * 4 * 64).1;
            assert_eq!(loc.row, first.row, "line {i}");
            assert_eq!(loc.bank, first.bank);
            assert_eq!(loc.col, i as u32);
        }
        // The 129th spills into the next bank.
        let next = m.decode(128 * 4 * 64).1;
        assert_ne!((next.bank, next.col), (first.bank, first.col));
    }

    #[test]
    fn close_page_interleaves_banks_first() {
        let m = AddressMapper::new(MappingScheme::ClosePageBankInterleave, 4, 4, 16, 4, 8192);
        let banks: Vec<u8> = (0..8u64).map(|i| m.decode(i * 4 * 64).1.bank).collect();
        assert_eq!(banks, vec![0, 1, 2, 3, 4, 5, 6, 7]);
    }

    #[test]
    fn decode_is_deterministic_and_in_range() {
        let m = baseline();
        for i in 0..10_000u64 {
            let addr = i * 64 * 7 + 13; // unaligned, strided
            let (c, loc) = m.decode(addr);
            assert_eq!((c, loc), m.decode(addr));
            assert!(u32::from(c) < 4);
            assert!(u32::from(loc.bank) < 8);
            assert!(loc.col < 128);
            assert!(loc.row < 32768);
        }
    }

    #[test]
    fn page_interleave_keeps_a_page_on_one_channel() {
        let m = AddressMapper::new(MappingScheme::PageInterleave, 4, 1, 8, 128, 32768);
        let chan_of = |addr: u64| m.decode(addr).0;
        // All 64 lines of page 0 land on one channel.
        let c0 = chan_of(0);
        for i in 1..64u64 {
            assert_eq!(chan_of(i * 64), c0, "line {i}");
        }
        // Consecutive pages rotate channels.
        assert_ne!(chan_of(4096), c0);
        // Decode stays in range and is deterministic.
        for i in 0..5000u64 {
            let (c, loc) = m.decode(i * 64);
            assert!(u32::from(c) < 4);
            assert!(u32::from(loc.bank) < 8);
            assert!(loc.col < 128);
        }
    }

    #[test]
    fn addresses_differing_only_in_offset_share_a_line() {
        let m = baseline();
        assert_eq!(m.decode(0x1000), m.decode(0x103F));
        assert_ne!(m.decode(0x1000), m.decode(0x1040));
    }
}

cwf_ckpt::ckpt_struct!(Loc { rank, bank, row, col });
