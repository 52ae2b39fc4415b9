//! The canonicalizing outcome cache.
//!
//! Entries are keyed by `"{canonical_hash}/{model}/{backend}"` — the hash
//! comes from [`gam_frontend::canonical_hash`], so every naming variant of a
//! test (thread order, registers, labels and, when provably sound,
//! locations) shares one entry per (model, backend) pair. An entry records
//! the verdict plus the *cost of recomputing it* (wall µs × states visited):
//! when the cache exceeds capacity, the cheapest-to-recompute entries are
//! evicted first, which is the right bias for a service whose misses are
//! paid in explorer time.
//!
//! This type is memory only. Its one file is the write-ahead journal of
//! [`crate::journal::JournaledCache`], which records every mutation and
//! periodically rewrites itself as one `insert` record per live entry.

use std::collections::BTreeMap;

/// One cached check result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheEntry {
    /// Whether the test's condition of interest is allowed.
    pub allowed: bool,
    /// Wall time of the original (miss) check, in microseconds.
    pub wall_us: u64,
    /// States visited by the original check (0 for the axiomatic backend).
    pub states: u64,
    /// How many times this entry has been served.
    pub hits: u64,
}

impl CacheEntry {
    /// The recorded cost of recomputing this entry: wall µs × states
    /// (states clamped to ≥ 1 so axiomatic entries still rank by time).
    #[must_use]
    pub fn cost(&self) -> u128 {
        u128::from(self.wall_us) * u128::from(self.states.max(1))
    }
}

/// An in-memory outcome cache with cost-based eviction.
#[derive(Debug)]
pub struct OutcomeCache {
    entries: BTreeMap<String, CacheEntry>,
    capacity: usize,
    evictions: u64,
}

impl OutcomeCache {
    /// An empty cache holding at most `capacity` entries.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        OutcomeCache { entries: BTreeMap::new(), capacity: capacity.max(1), evictions: 0 }
    }

    /// The composite key of one (canonical test, model, backend) result.
    #[must_use]
    pub fn key(hash: &str, model: &str, backend: &str) -> String {
        format!("{hash}/{model}/{backend}")
    }

    /// Number of live entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns true when the cache holds no entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Total evictions since this cache was created.
    #[must_use]
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Looks an entry up, bumping its hit counter.
    pub fn lookup(&mut self, key: &str) -> Option<CacheEntry> {
        let entry = self.entries.get_mut(key)?;
        entry.hits += 1;
        Some(entry.clone())
    }

    /// Inserts (or replaces) an entry, then evicts the cheapest-to-recompute
    /// entries until the cache fits its capacity. The entry just inserted is
    /// itself eligible — inserting a trivially cheap result into a full
    /// cache of expensive ones evicts the newcomer. Returns the evicted keys
    /// so a write-ahead journal can record them.
    pub fn insert(&mut self, key: String, entry: CacheEntry) -> Vec<String> {
        self.entries.insert(key, entry);
        self.enforce_capacity()
    }

    /// Inserts without enforcing capacity — journal replay applies the
    /// journal's explicit `evict` records instead of re-deriving evictions
    /// mid-stream. Pair with [`Self::enforce_capacity`] after the replay.
    pub(crate) fn insert_unbounded(&mut self, key: String, entry: CacheEntry) {
        self.entries.insert(key, entry);
    }

    /// Evicts the cheapest-to-recompute entries until the cache fits its
    /// capacity, returning the evicted keys. After a journal replay it only
    /// does anything when the configured capacity shrank between process
    /// lives.
    pub(crate) fn enforce_capacity(&mut self) -> Vec<String> {
        let mut evicted = Vec::new();
        while self.entries.len() > self.capacity {
            let cheapest = self
                .entries
                .iter()
                .min_by_key(|(_, e)| e.cost())
                .map(|(k, _)| k.clone())
                .expect("cache over capacity is non-empty");
            self.entries.remove(&cheapest);
            self.evictions += 1;
            evicted.push(cheapest);
        }
        evicted
    }

    /// Removes an entry outright (journal replay of an `evict` record).
    /// A missing key is a no-op — replay must converge regardless of which
    /// records came before it. Does not count towards [`Self::evictions`]:
    /// the eviction happened in a previous process life.
    pub fn remove(&mut self, key: &str) -> bool {
        self.entries.remove(key).is_some()
    }

    /// Sets an entry's absolute hit count (journal replay of a `hit`
    /// record). A missing key is a no-op.
    pub fn set_hits(&mut self, key: &str, hits: u64) {
        if let Some(entry) = self.entries.get_mut(key) {
            entry.hits = hits;
        }
    }

    /// Peeks at an entry without bumping its hit counter.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&CacheEntry> {
        self.entries.get(key)
    }

    /// Iterates entries in key order — equality checks and compaction.
    pub fn entries(&self) -> impl Iterator<Item = (&String, &CacheEntry)> {
        self.entries.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(wall_us: u64, states: u64) -> CacheEntry {
        CacheEntry { allowed: true, wall_us, states, hits: 0 }
    }

    #[test]
    fn lookup_bumps_hits() {
        let mut cache = OutcomeCache::new(4);
        cache.insert("k".into(), entry(10, 10));
        assert_eq!(cache.lookup("k").unwrap().hits, 1);
        assert_eq!(cache.lookup("k").unwrap().hits, 2);
        assert!(cache.lookup("missing").is_none());
    }

    #[test]
    fn eviction_removes_cheapest_first() {
        let mut cache = OutcomeCache::new(2);
        cache.insert("expensive".into(), entry(1000, 1000));
        cache.insert("medium".into(), entry(100, 100));
        cache.insert("cheap".into(), entry(1, 1));
        // The cheap newcomer itself is the first casualty.
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.evictions(), 1);
        assert!(cache.lookup("expensive").is_some());
        assert!(cache.lookup("medium").is_some());
        assert!(cache.lookup("cheap").is_none());
        // Now push something pricier: `medium` goes.
        cache.insert("pricier".into(), entry(500, 500));
        assert!(cache.lookup("medium").is_none());
        assert!(cache.lookup("pricier").is_some());
        assert_eq!(cache.evictions(), 2);
    }

    #[test]
    fn axiomatic_entries_rank_by_wall_time() {
        assert!(entry(100, 0).cost() < entry(200, 0).cost());
        assert_eq!(entry(100, 0).cost(), entry(100, 1).cost());
    }
}
