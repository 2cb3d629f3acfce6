//! Critical-word placement policies (§4.2.2, §4.2.5, §6.1.1).

// cwf-lint: allow(hash-container) -- keyed tag lookups only, never iterated
use std::collections::HashMap;

/// Which word of each line the fast DIMM holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PlacementPolicy {
    /// Word 0 always (the paper's low-complexity flagship, 67% coverage).
    Static0,
    /// A 3-bit per-line tag, rewritten on every dirty writeback to the
    /// last observed critical word (§4.2.5, 79% coverage). Lines never
    /// written keep their initial word-0 layout.
    Adaptive,
    /// Every critical word is found in the fast DIMM (the RL-OR upper
    /// bound of Figure 9).
    Oracle,
    /// A per-line random word (the §6.1.1 control showing that the
    /// *intelligent* mapping, not the extra channel, drives the gains).
    Random,
}

/// Placement state: policy plus the adaptive tag store.
///
/// The tag store stands in for the 3 bits per line the adaptive scheme
/// keeps in cache and DRAM. An optional *steady-state* function supplies
/// tags for lines whose re-organisation happened before the simulated
/// window (the paper measures after billions of warm-up cycles; scaled
/// runs install the converged state directly). Explicit tags written
/// during the run always override the steady-state prediction.
pub struct Placement {
    policy: PlacementPolicy,
    // cwf-lint: allow(hash-container) -- hot-path tag store; insert/get/len only
    tags: HashMap<u64, u8>,
    steady: Option<Box<dyn Fn(u64) -> Option<u8> + Send>>,
}

impl std::fmt::Debug for Placement {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Placement")
            .field("policy", &self.policy)
            .field("tags", &self.tags.len())
            .field("steady", &self.steady.is_some())
            .finish()
    }
}

impl Placement {
    /// Create a placement in the given policy.
    #[must_use]
    pub fn new(policy: PlacementPolicy) -> Self {
        Placement { policy, tags: HashMap::new(), steady: None } // cwf-lint: allow(hash-container) -- see field note
    }

    /// Install the steady-state tag function (adaptive policy only; the
    /// others ignore it).
    pub fn set_steady_state(&mut self, f: Box<dyn Fn(u64) -> Option<u8> + Send>) {
        self.steady = Some(f);
    }

    /// The active policy.
    #[must_use]
    pub fn policy(&self) -> PlacementPolicy {
        self.policy
    }

    /// Which word of `line` the fast DIMM holds for a fetch whose critical
    /// word is `critical`.
    #[must_use]
    pub fn fast_word(&self, line: u64, critical: u8) -> u8 {
        match self.policy {
            PlacementPolicy::Static0 => 0,
            PlacementPolicy::Adaptive => self
                .tags
                .get(&line)
                .copied()
                .or_else(|| self.steady.as_ref().and_then(|f| f(line << 6)))
                .unwrap_or(0),
            PlacementPolicy::Oracle => critical,
            PlacementPolicy::Random => Self::hash_word(line),
        }
    }

    /// Record a dirty writeback whose predicted critical word is
    /// `predicted` — the adaptive scheme re-organises the line's layout.
    pub fn on_writeback(&mut self, line: u64, predicted: u8) {
        if self.policy == PlacementPolicy::Adaptive {
            self.tags.insert(line, predicted & 7);
        }
    }

    /// Number of re-organised lines (adaptive bookkeeping footprint).
    #[must_use]
    pub fn tagged_lines(&self) -> usize {
        self.tags.len()
    }

    /// Stable per-line pseudo-random word for [`PlacementPolicy::Random`].
    fn hash_word(line: u64) -> u8 {
        ((line.wrapping_mul(0x9E37_79B9_7F4A_7C15)) >> 61) as u8 & 7
    }
}

impl Placement {
    /// Serialize the learned critical-word tags. The policy and the
    /// steady-state closure are pure config, rebuilt on restore.
    pub fn save_state(&self, w: &mut cwf_ckpt::Writer) {
        w.section(b"PLAC");
        cwf_ckpt::Ckpt::save(&self.tags, w);
    }

    /// Restore state saved by [`Placement::save_state`].
    ///
    /// # Errors
    ///
    /// Fails on malformed input.
    pub fn load_state(&mut self, r: &mut cwf_ckpt::Reader<'_>) -> cwf_ckpt::Result<()> {
        r.expect_section(b"PLAC")?;
        self.tags = cwf_ckpt::Ckpt::load(r)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn static0_always_word0() {
        let p = Placement::new(PlacementPolicy::Static0);
        for line in 0..100 {
            assert_eq!(p.fast_word(line, 5), 0);
        }
    }

    #[test]
    fn oracle_always_matches_critical() {
        let p = Placement::new(PlacementPolicy::Oracle);
        for w in 0..8u8 {
            assert_eq!(p.fast_word(123, w), w);
        }
    }

    #[test]
    fn adaptive_learns_from_writebacks() {
        let mut p = Placement::new(PlacementPolicy::Adaptive);
        assert_eq!(p.fast_word(7, 3), 0, "untagged lines default to word 0");
        p.on_writeback(7, 3);
        assert_eq!(p.fast_word(7, 3), 3);
        assert_eq!(p.fast_word(8, 3), 0, "other lines unaffected");
        p.on_writeback(7, 5);
        assert_eq!(p.fast_word(7, 0), 5, "latest writeback wins");
        assert_eq!(p.tagged_lines(), 1);
    }

    #[test]
    fn static_policies_ignore_writebacks() {
        for policy in [PlacementPolicy::Static0, PlacementPolicy::Oracle, PlacementPolicy::Random] {
            let mut p = Placement::new(policy);
            p.on_writeback(9, 6);
            assert_eq!(p.tagged_lines(), 0);
        }
    }

    #[test]
    fn random_is_stable_and_roughly_uniform() {
        let p = Placement::new(PlacementPolicy::Random);
        let mut hist = [0u32; 8];
        for line in 0..8000u64 {
            let w = p.fast_word(line, 0);
            assert_eq!(w, p.fast_word(line, 7), "stable per line");
            hist[usize::from(w)] += 1;
        }
        for (w, n) in hist.iter().enumerate() {
            assert!((800..1200).contains(n), "word {w} count {n} not ~1000");
        }
    }
}
