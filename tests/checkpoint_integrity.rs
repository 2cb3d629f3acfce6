//! A checkpoint read from disk is untrusted input: a flipped bit, a
//! truncated file or a hand-edited field must come back from
//! `System::from_ckpt` as a typed error, never a panic. The checksum
//! trailer catches random damage before any field is parsed; with the
//! trailer recomputed, the parser's own checks and the run-config
//! validation must hold the line.

use cwfmem::sim::config::MemKind;
use cwfmem::sim::{Kernel, RunConfig, System};
use proptest::prelude::*;

/// A small paused ddr3 checkpoint, built once per test binary.
fn small_blob() -> &'static [u8] {
    static BLOB: std::sync::OnceLock<Vec<u8>> = std::sync::OnceLock::new();
    BLOB.get_or_init(|| {
        let cfg = RunConfig {
            kernel: Kernel::Event,
            verify: false,
            trace: false,
            ..RunConfig::quick(MemKind::Ddr3, 100)
        };
        let mut sys = System::new(&cfg, workloads::by_name("stream").expect("known bench"));
        assert!(sys.run_to_cycle(600).is_none(), "the run must still be going");
        sys.save_ckpt().expect("checkpoint serializes")
    })
}

/// Recompute the 8-byte checksum trailer over everything before it.
fn reseal(blob: &mut [u8]) {
    let end = blob.len() - 8;
    let sum = cwf_ckpt::checksum(&blob[..end]);
    blob[end..].copy_from_slice(&sum.to_le_bytes());
}

/// `from_ckpt` on `blob` must return, not unwind; `Ok` or `Err` as given.
fn load(blob: &[u8]) -> Result<(), String> {
    std::panic::catch_unwind(|| System::from_ckpt(blob).map(drop).map_err(|e| e.to_string()))
        .unwrap_or_else(|_| panic!("from_ckpt panicked"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    /// Any single-bit flip, and any truncation, is refused.
    #[test]
    fn flipped_or_truncated_blobs_are_refused(pos in 0.0f64..1.0, bit in 0u8..8, cut in 0.0f64..1.0) {
        let blob = small_blob();
        let mut bad = blob.to_vec();
        let at = ((bad.len() as f64 * pos) as usize).min(bad.len() - 1);
        bad[at] ^= 1 << bit;
        prop_assert!(load(&bad).is_err(), "flip of bit {} at byte {} was accepted", bit, at);
        let len = ((blob.len() as f64 * cut) as usize).min(blob.len() - 1);
        prop_assert!(load(&blob[..len]).is_err(), "truncation to {} bytes was accepted", len);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// With the trailer recomputed, a damaged body byte reaches the
    /// parser, which must answer without panicking.
    #[test]
    fn resealed_body_damage_never_panics(pos in 0.0f64..1.0, byte in 1u8..=255) {
        let mut bad = small_blob().to_vec();
        let body = bad.len() - 8;
        let at = 12 + ((body - 12) as f64 * pos) as usize % (body - 12);
        bad[at] ^= byte;
        reseal(&mut bad);
        let _ = load(&bad);
    }
}

/// A core count outside 1..=8 in an otherwise valid blob is an error
/// naming the knob, not the hierarchy's construction panic.
#[test]
fn out_of_range_cores_are_refused() {
    let blob = small_blob();
    load(blob).expect("the intact blob loads");
    // Magic (8), version (4), then the run config: a ddr3 memory kind
    // (12 bytes) and the core count.
    assert_eq!(blob[24], 2, "the quick config runs two cores");
    for cores in [0u8, 9, 255] {
        let mut bad = blob.to_vec();
        bad[24] = cores;
        reseal(&mut bad);
        let err = load(&bad).expect_err("an out-of-range core count must be refused");
        assert!(err.contains("cores must be in 1..=8"), "unexpected error: {err}");
    }
}
