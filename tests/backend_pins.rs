//! Pins on the memory backends' outward shape: the global channel
//! numbering every observer keys off, and the exact checkpoint bytes each
//! organization writes.
//!
//! The verify oracle, the Perfetto track layout and `trace_golden` all
//! index channels by `audit_channels()` position, and a checkpoint's
//! layout may change only together with its format version. Both are
//! easy to shift by accident when the controller plumbing under the
//! backends is reorganized, so both are pinned here against hard-coded
//! values.

use std::collections::BTreeSet;

use cwfmem::cwf::PagePlacedMemory;
use cwfmem::memctrl::MainMemory;
use cwfmem::sim::config::{MemBackend, MemKind};
use cwfmem::sim::experiments::profile_hot_pages;
use cwfmem::sim::{Kernel, RunConfig, System};

/// FNV-1a 64 over a byte string.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn labels(mut mem: MemBackend) -> Vec<String> {
    mem.enable_audit();
    mem.audit_channels().into_iter().map(|c| c.label).collect()
}

#[test]
fn channel_numbering_is_pinned() {
    let build = |token: &str| MemKind::parse(token).expect("known kind").build(0.0, 1);
    assert_eq!(labels(build("ddr3")), ["ddr3-ch0", "ddr3-ch1", "ddr3-ch2", "ddr3-ch3"]);
    assert_eq!(
        labels(build("rl")),
        [
            "fast-rldram3-sub0",
            "fast-rldram3-sub1",
            "fast-rldram3-sub2",
            "fast-rldram3-sub3",
            "slow-lpddr2-ch0",
            "slow-lpddr2-ch1",
            "slow-lpddr2-ch2",
            "slow-lpddr2-ch3",
        ]
    );
    assert_eq!(
        labels(build("rldram3+ddr5_4800")),
        [
            "fast-rldram3-sub0",
            "fast-rldram3-sub1",
            "fast-rldram3-sub2",
            "fast-rldram3-sub3",
            "slow-ddr5-ch0",
            "slow-ddr5-ch1",
            "slow-ddr5-ch2",
            "slow-ddr5-ch3",
        ]
    );
    assert_eq!(
        labels(build("dramcache:rldram3+nvm_slow")),
        [
            "dc-rldram3-ch0",
            "dc-rldram3-ch1",
            "nvm-nvm-ch0",
            "nvm-nvm-ch1",
            "nvm-nvm-ch2",
            "nvm-nvm-ch3",
        ]
    );
    // The hot RLDRAM3 channel first, then the three LPDDR2 channels (the
    // numbering its trace tracks have always used).
    let pp = MemBackend::PagePlaced(PagePlacedMemory::new(BTreeSet::new()));
    assert_eq!(labels(pp), ["pp-rldram", "pp-lpddr-ch0", "pp-lpddr-ch1", "pp-lpddr-ch2"]);

    // Only the §4.2.4 fast sub-channels share a command bus.
    let mut rl = build("rl");
    rl.enable_audit();
    let groups: Vec<Option<u32>> = rl.audit_channels().iter().map(|c| c.bus_group).collect();
    assert_eq!(groups, [Some(0), Some(0), Some(0), Some(0), None, None, None, None]);
}

/// Stop cycle for the checkpoint pins: inside every cell's run.
const STOP_AT: u64 = 8_000;

fn quick(kind: MemKind) -> RunConfig {
    RunConfig { kernel: Kernel::Event, verify: false, trace: false, ..RunConfig::quick(kind, 300) }
}

fn ckpt_digest(mut sys: System) -> (usize, u64) {
    assert!(sys.run_to_cycle(STOP_AT).is_none(), "the run must still be going at the stop");
    let blob = sys.save_ckpt().expect("checkpoint serializes");
    (blob.len(), fnv1a(&blob))
}

#[test]
fn checkpoint_bytes_are_pinned() {
    let mcf = workloads::by_name("mcf").expect("known bench");
    let observed = RunConfig { verify: true, trace: true, ..quick(MemKind::Rl) };
    let cells: [(&str, RunConfig, (usize, u64)); 5] = [
        ("ddr3", quick(MemKind::Ddr3), (1_435_931, 0x59df_b51e_c786_5f87)),
        ("rl", quick(MemKind::Rl), (1_465_445, 0xd61a_05d8_4b9e_b9b9)),
        ("rl verify+trace", observed, (1_517_895, 0x4b38_9615_9b36_f049)),
        (
            "rldram3+ddr5_4800",
            quick(MemKind::parse("rldram3+ddr5_4800").unwrap()),
            (1_471_358, 0x6e27_e52b_c468_ab39),
        ),
        (
            "dramcache:rldram3+nvm_slow",
            quick(MemKind::parse("dramcache:rldram3+nvm_slow").unwrap()),
            (6_171_509, 0xcef0_f5d2_ac66_7181),
        ),
    ];
    for (name, cfg, pin) in cells {
        let got = ckpt_digest(System::new(&cfg, mcf));
        println!("{name}: ({}, {:#018x})", got.0, got.1);
        assert_eq!(got, pin, "{name}: checkpoint bytes moved");
    }

    // §7.1 page placement, built the way `sweep::Variant::PagePlaced` does.
    let (_, hot) = profile_hot_pages(&quick(MemKind::Ddr3), mcf);
    let pp = MemBackend::PagePlaced(PagePlacedMemory::new(hot));
    let got = ckpt_digest(System::with_backend(&quick(MemKind::Ddr3), mcf, pp));
    println!("page-placed: ({}, {:#018x})", got.0, got.1);
    assert_eq!(got, (1_436_360, 0x53a0_c9d2_f969_23a1), "page-placed: checkpoint bytes moved");
}

#[test]
fn unknown_checkpoint_version_is_rejected() {
    let mut sys = System::new(&quick(MemKind::Ddr3), workloads::by_name("mcf").unwrap());
    assert!(sys.run_to_cycle(1_000).is_none());
    let blob = sys.save_ckpt().expect("checkpoint serializes");
    // Magic (8 bytes), then the little-endian u32 format version. No
    // version-2 reader is kept, so a v2 blob is refused like a future one.
    assert_eq!(&blob[8..12], &3u32.to_le_bytes());
    for version in [2u32, 4] {
        let mut bad = blob.clone();
        bad[8..12].copy_from_slice(&version.to_le_bytes());
        let err = System::from_ckpt(&bad).err().expect("a foreign version must be refused");
        assert!(
            err.to_string().contains(&format!("unsupported checkpoint version {version}")),
            "unexpected error: {err}"
        );
    }
}
