//! Result cache keyed by [`CellKey`] (`(config-digest, seed, variant)`).
//!
//! The cache both memoizes finished cells and *batches* duplicates of a
//! cell that is still computing: the first submission of a key claims it
//! and runs, later submissions subscribe to the in-flight entry and are
//! delivered the result when it lands. Simulations are deterministic
//! (DESIGN.md §8), so a cached *success* is bit-identical to a rerun.
//! Failures are different: a panic can be transient (resource pressure,
//! a bug fixed while the server kept running), so error outcomes are
//! delivered to their waiters but **never cached** — the next submission
//! of that key claims it and recomputes.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::CellKey;

/// The rendered outcome of one cell, shared by every sweep that needs it.
#[derive(Debug)]
pub struct CellOutput {
    /// False when the cell panicked.
    pub ok: bool,
    /// Benchmark name.
    pub bench: String,
    /// Memory-kind slug.
    pub mem: String,
    /// Rendered JSON object: a `cwfmem.run.v1` document for finished
    /// cells, an `{"error": ...}` object for failed ones.
    pub json: String,
}

/// What [`ResultCache::submit`] decided about one cell.
pub enum Submission {
    /// The key was already computed; here is the result.
    Hit(Arc<CellOutput>),
    /// Another submission of this key is computing; the subscriber will
    /// be delivered on completion.
    Batched,
    /// This submission claimed the key; the caller must compute it and
    /// call [`ResultCache::complete`].
    Claimed,
}

/// A subscriber waiting on an in-flight key (opaque to the cache).
pub type Subscriber = Box<dyn FnOnce(Arc<CellOutput>) + Send + 'static>;

enum Slot {
    InFlight(Vec<Subscriber>),
    Ready(Arc<CellOutput>),
}

/// Concurrent memo table over cell outcomes.
#[derive(Default)]
pub struct ResultCache {
    map: Mutex<BTreeMap<CellKey, Slot>>,
    hits: AtomicU64,
    batched: AtomicU64,
    misses: AtomicU64,
}

impl Default for Slot {
    fn default() -> Self {
        Slot::InFlight(Vec::new())
    }
}

impl ResultCache {
    /// An empty cache.
    #[must_use]
    pub fn new() -> ResultCache {
        ResultCache::default()
    }

    /// Route one cell: hit, batch onto an in-flight computation, or
    /// claim. `subscriber` fires for the batched case only; hits return
    /// the value directly so the caller can deliver without re-entry.
    pub fn submit(&self, key: CellKey, subscriber: Subscriber) -> Submission {
        let mut map = self.map.lock().expect("cache poisoned");
        match map.get_mut(&key) {
            Some(Slot::Ready(out)) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Submission::Hit(Arc::clone(out))
            }
            Some(Slot::InFlight(subs)) => {
                self.batched.fetch_add(1, Ordering::Relaxed);
                subs.push(subscriber);
                Submission::Batched
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                map.insert(key, Slot::InFlight(vec![subscriber]));
                Submission::Claimed
            }
        }
    }

    /// Publish a claimed key's result and deliver every subscriber
    /// (including the claimant's own, registered at submit time).
    ///
    /// Successful outcomes become a ready slot and serve future hits;
    /// failed outcomes (`!out.ok`) only drain the waiting subscribers —
    /// the key is *removed*, so a later submission recomputes instead of
    /// replaying a possibly-transient error forever.
    ///
    /// # Panics
    ///
    /// Panics if the key was never claimed — a protocol bug, not a
    /// recoverable condition.
    pub fn complete(&self, key: CellKey, out: &Arc<CellOutput>) {
        let subs = {
            let mut map = self.map.lock().expect("cache poisoned");
            let slot = if out.ok {
                map.insert(key, Slot::Ready(Arc::clone(out)))
            } else {
                map.remove(&key)
            };
            match slot {
                Some(Slot::InFlight(subs)) => subs,
                _ => panic!("complete() on a key that was not in flight"),
            }
        };
        // Deliver outside the lock: subscribers touch sweep state.
        for sub in subs {
            sub(Arc::clone(out));
        }
    }

    /// `(hits, batched, misses)` counters — hits served from a finished
    /// entry, duplicates batched onto an in-flight one, and unique
    /// computations claimed.
    #[must_use]
    pub fn stats(&self) -> (u64, u64, u64) {
        (
            self.hits.load(Ordering::Relaxed),
            self.batched.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
        )
    }

    /// Number of keys finished or in flight.
    #[must_use]
    pub fn len(&self) -> usize {
        self.map.lock().expect("cache poisoned").len()
    }

    /// True when no key has ever been submitted.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl std::fmt::Debug for ResultCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (hits, batched, misses) = self.stats();
        f.debug_struct("ResultCache")
            .field("keys", &self.len())
            .field("hits", &hits)
            .field("batched", &batched)
            .field("misses", &misses)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    fn key(digest: u64, seed: u64) -> CellKey {
        CellKey { digest, seed, variant: sim_harness::sweep::Variant::Preset }
    }

    fn output() -> Arc<CellOutput> {
        Arc::new(CellOutput { ok: true, bench: "mcf".into(), mem: "rl".into(), json: "{}".into() })
    }

    #[test]
    fn claim_batch_hit_lifecycle() {
        let cache = ResultCache::new();
        let delivered = Arc::new(AtomicU32::new(0));
        let subscriber = |delivered: &Arc<AtomicU32>| {
            let d = Arc::clone(delivered);
            Box::new(move |_out: Arc<CellOutput>| {
                d.fetch_add(1, Ordering::Relaxed);
            }) as Subscriber
        };
        assert!(matches!(cache.submit(key(1, 2), subscriber(&delivered)), Submission::Claimed));
        assert!(matches!(cache.submit(key(1, 2), subscriber(&delivered)), Submission::Batched));
        assert!(matches!(cache.submit(key(1, 3), subscriber(&delivered)), Submission::Claimed));
        cache.complete(key(1, 2), &output());
        // Claimant's and the duplicate's subscribers both fired.
        assert_eq!(delivered.load(Ordering::Relaxed), 2);
        assert!(matches!(cache.submit(key(1, 2), subscriber(&delivered)), Submission::Hit(_)));
        assert_eq!(cache.stats(), (1, 1, 2));
        assert_eq!(cache.len(), 2);
    }

    #[test]
    #[should_panic(expected = "not in flight")]
    fn completing_an_unclaimed_key_is_a_bug() {
        ResultCache::new().complete(key(9, 9), &output());
    }

    #[test]
    fn failed_cells_are_not_sticky() {
        let cache = ResultCache::new();
        let noop = || Box::new(|_out: Arc<CellOutput>| {}) as Subscriber;
        let failure = Arc::new(CellOutput {
            ok: false,
            bench: "mcf".into(),
            mem: "rl".into(),
            json: "{\"error\":\"panic\"}".into(),
        });

        // First attempt fails: waiters are delivered, key is forgotten.
        assert!(matches!(cache.submit(key(5, 1), noop()), Submission::Claimed));
        let delivered = Arc::new(AtomicU32::new(0));
        let d = Arc::clone(&delivered);
        let counting = Box::new(move |out: Arc<CellOutput>| {
            assert!(!out.ok);
            d.fetch_add(1, Ordering::Relaxed);
        }) as Subscriber;
        assert!(matches!(cache.submit(key(5, 1), counting), Submission::Batched));
        cache.complete(key(5, 1), &failure);
        assert_eq!(delivered.load(Ordering::Relaxed), 1, "waiters still get the error doc");
        assert_eq!(cache.len(), 0, "error outcome must not occupy the key");

        // Second attempt is a fresh claim (not a hit on the error doc)
        // and a success this time sticks.
        assert!(matches!(cache.submit(key(5, 1), noop()), Submission::Claimed));
        cache.complete(key(5, 1), &output());
        assert!(matches!(cache.submit(key(5, 1), noop()), Submission::Hit(out) if out.ok));
    }
}
