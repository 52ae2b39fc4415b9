//! The canonicalizing outcome cache.
//!
//! Entries are keyed by `"{canonical_hash}/{model}/{backend}"` — the hash
//! comes from [`gam_frontend::canonical_hash`], so every naming variant of a
//! test (thread order, registers, labels and, when provably sound,
//! locations) shares one entry per (model, backend) pair. An entry records
//! the verdict, what the original check cost (wall µs and states visited)
//! and how often it was served.
//!
//! Eviction is least-recently-used: an insert or a hit makes an entry the
//! most recent, and a cache over capacity drops its least recent entry,
//! found through a recency index in O(log n). Recency is the order of the
//! journal's records, so it survives a restart and a compaction (see
//! [`crate::journal`]).
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

/// A live entry and the tick of its last use.
#[derive(Debug)]
struct Slot {
    entry: CacheEntry,
    used: u64,
}

/// An in-memory outcome cache with least-recently-used eviction.
#[derive(Debug)]
pub struct OutcomeCache {
    entries: BTreeMap<String, Slot>,
    /// Every live key under its last-use tick, least recent first.
    recency: BTreeMap<u64, String>,
    /// The tick of the latest use.
    tick: u64,
    capacity: usize,
    evictions: u64,
}

impl OutcomeCache {
    /// An empty cache holding at most `capacity` entries.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        OutcomeCache {
            entries: BTreeMap::new(),
            recency: BTreeMap::new(),
            tick: 0,
            capacity: capacity.max(1),
            evictions: 0,
        }
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

    /// Looks an entry up, bumping its hit counter and making it the most
    /// recently used.
    pub fn lookup(&mut self, key: &str) -> Option<CacheEntry> {
        let slot = self.touch(key)?;
        slot.entry.hits += 1;
        Some(slot.entry.clone())
    }

    /// Inserts (or replaces) an entry as the most recently used, then
    /// evicts the least recently used entries until the cache fits its
    /// capacity, so the entry just inserted is never evicted. Returns the
    /// evicted keys so a write-ahead journal can record them.
    pub fn insert(&mut self, key: String, entry: CacheEntry) -> Vec<String> {
        self.insert_unbounded(key, entry);
        self.enforce_capacity()
    }

    /// Inserts without enforcing capacity — journal replay applies the
    /// journal's explicit `evict` records instead of re-deriving evictions
    /// mid-stream. Pair with [`Self::enforce_capacity`] after the replay.
    pub(crate) fn insert_unbounded(&mut self, key: String, entry: CacheEntry) {
        self.tick += 1;
        let used = self.tick;
        self.recency.insert(used, key.clone());
        if let Some(old) = self.entries.insert(key, Slot { entry, used }) {
            self.recency.remove(&old.used);
        }
    }

    /// Evicts the least recently used entries until the cache fits its
    /// capacity, returning the evicted keys. After a journal replay it only
    /// does anything when the configured capacity shrank between process
    /// lives, or when the replay stopped between an `insert` and the
    /// `evict` records it caused.
    pub(crate) fn enforce_capacity(&mut self) -> Vec<String> {
        let mut evicted = Vec::new();
        while self.entries.len() > self.capacity {
            let (_, oldest) = self.recency.pop_first().expect("cache over capacity is non-empty");
            self.entries.remove(&oldest);
            self.evictions += 1;
            evicted.push(oldest);
        }
        evicted
    }

    /// Removes an entry outright (journal replay of an `evict` record).
    /// A missing key is a no-op — replay must converge regardless of which
    /// records came before it. Does not count towards [`Self::evictions`]:
    /// the eviction happened in a previous process life.
    pub fn remove(&mut self, key: &str) -> bool {
        let Some(slot) = self.entries.remove(key) else { return false };
        self.recency.remove(&slot.used);
        true
    }

    /// Sets an entry's absolute hit count and makes it the most recently
    /// used (journal replay of a `hit` record). A missing key is a no-op.
    pub fn set_hits(&mut self, key: &str, hits: u64) {
        if let Some(slot) = self.touch(key) {
            slot.entry.hits = hits;
        }
    }

    /// Peeks at an entry without bumping its hit counter or its recency.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&CacheEntry> {
        self.entries.get(key).map(|slot| &slot.entry)
    }

    /// Iterates entries in key order — equality checks.
    pub fn entries(&self) -> impl Iterator<Item = (&String, &CacheEntry)> {
        self.entries.iter().map(|(key, slot)| (key, &slot.entry))
    }

    /// Iterates entries least recently used first — compaction writes them
    /// in this order so that replaying the compacted journal rebuilds it.
    pub fn by_recency(&self) -> impl Iterator<Item = (&String, &CacheEntry)> {
        self.recency.values().map(|key| (key, &self.entries[key].entry))
    }

    /// Makes a live entry the most recently used.
    fn touch(&mut self, key: &str) -> Option<&mut Slot> {
        let slot = self.entries.get_mut(key)?;
        self.tick += 1;
        let name = self.recency.remove(&slot.used).expect("every live entry has a tick");
        slot.used = self.tick;
        self.recency.insert(self.tick, name);
        Some(slot)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(wall_us: u64, states: u64) -> CacheEntry {
        CacheEntry { allowed: true, wall_us, states, hits: 0 }
    }

    fn keys_by_recency(cache: &OutcomeCache) -> Vec<&str> {
        cache.by_recency().map(|(key, _)| key.as_str()).collect()
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
    fn a_hit_protects_an_entry_from_the_next_eviction() {
        let mut cache = OutcomeCache::new(2);
        cache.insert("old".into(), entry(1_000, 1_000));
        cache.insert("young".into(), entry(1, 1));
        assert!(cache.lookup("old").is_some());
        assert_eq!(keys_by_recency(&cache), ["young", "old"]);
        // `young` was inserted after `old`, but `old` was used since.
        assert_eq!(cache.insert("new".into(), entry(1, 1)), ["young"]);
        assert_eq!(keys_by_recency(&cache), ["old", "new"]);
        assert_eq!(cache.evictions(), 1);
        // A peek is no use.
        assert!(cache.get("old").is_some());
        assert_eq!(cache.insert("newer".into(), entry(1, 1)), ["old"]);
    }

    #[test]
    fn the_newest_insert_is_never_the_entry_evicted() {
        let mut cache = OutcomeCache::new(3);
        for i in 0..20u64 {
            // Cheap and costly entries alike: cost plays no part.
            let key = format!("k{i}");
            let evicted = cache.insert(key.clone(), entry(1 + (i % 3) * 1_000, 1));
            assert!(!evicted.contains(&key), "insert {i} evicted itself: {evicted:?}");
            assert!(cache.get(&key).is_some());
            assert!(cache.len() <= 3);
        }
        assert_eq!(keys_by_recency(&cache), ["k17", "k18", "k19"]);
        assert_eq!(cache.evictions(), 17);
        // Replacing a live key refreshes it and evicts nothing.
        assert!(cache.insert("k17".into(), entry(5, 5)).is_empty());
        assert_eq!(keys_by_recency(&cache), ["k18", "k19", "k17"]);
        assert!(cache.remove("k18"));
        assert!(!cache.remove("k18"));
        assert_eq!(keys_by_recency(&cache), ["k19", "k17"]);
    }
}
