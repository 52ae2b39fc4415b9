//! The write-ahead-journaled outcome cache.
//!
//! [`JournaledCache`] keeps the cache in one file: a CRC-framed write-ahead
//! log (schema [`JOURNAL_SCHEMA`], framing from [`gam_core::wal`]) at the
//! `--cache` path.
//!
//! * every mutation appends one record, so a `kill -9` at any instruction
//!   loses at most the record being written;
//! * startup replays the file, tolerating a torn or corrupted tail by
//!   recovering the longest valid prefix and warning;
//! * every [`JournaledCache::compact`] (each `compact_every` records, and at
//!   graceful shutdown) writes one `insert` record per live entry into a
//!   fresh log at `<path>.tmp` and renames it over `<path>` — Bitcask's
//!   merge, or LevelDB's log rewrite. A crash before the rename leaves the
//!   old log whole, so a killed compaction loses nothing acknowledged, and
//!   a failed compaction is retried only after another `compact_every`
//!   records.
//!
//! A file at `<path>` that is not a journal (for instance a JSON snapshot
//! written by an older version) fails the magic check and is replaced by an
//! empty journal with one warning.
//!
//! ## Records are absolute, so replay converges
//!
//! Each record carries the *full resulting state* of the key it touches —
//! `insert` carries the whole entry, `hit` carries the new absolute hit
//! count (not "+1"), `evict` is naturally absolute. Replay therefore needs
//! no generation counters, and a compacted log (inserts only) replays to
//! exactly the cache it was written from.
//!
//! ## Recency is record order
//!
//! The cache evicts its least recently used entry, and the journal needs no
//! field for that: replaying an `insert` or a `hit` record makes its key
//! the most recent, just as the insert or lookup that wrote it did, and
//! compaction writes its `insert` records least recently used first. A
//! replay, of the live log or of a compacted one, rebuilds the recency
//! order the writer had.
//!
//! ## Fault points
//!
//! * `cache.journal.append` — `kill` leaves a genuinely torn half-record on
//!   disk (via [`gam_core::wal::Wal::append_torn`]) and degrades the cache
//!   to memory-only, simulating death mid-`write(2)`;
//! * `cache.compact` — `kill` dies after the fresh log is written but
//!   before it is renamed over the live one.

use std::fs::File;
use std::io;
use std::path::{Path, PathBuf};

use gam_core::{fault, wal::Wal};
use gam_engine::Json;

use crate::cache::{CacheEntry, OutcomeCache};

/// Magic line of the journal file; bump on incompatible record changes.
pub const JOURNAL_SCHEMA: &str = "gam-serve-journal/v1";

/// How many journal records accumulate before a compaction rewrites the
/// log, by default.
pub const DEFAULT_COMPACT_EVERY: u64 = 4096;

/// One journal record. Public so recovery tests can build reference
/// replays; serve code only goes through [`JournaledCache`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Record {
    /// A key now holds exactly this entry.
    Insert {
        /// Composite cache key (`hash/model/backend`).
        key: String,
        /// The full entry value.
        entry: CacheEntry,
    },
    /// A key was evicted.
    Evict {
        /// Composite cache key.
        key: String,
    },
    /// A key's hit counter is now exactly `hits`.
    Hit {
        /// Composite cache key.
        key: String,
        /// Absolute hit count after the lookup.
        hits: u64,
    },
}

impl Record {
    /// Serializes the record to its one-frame JSON payload.
    #[must_use]
    pub fn to_json(&self) -> Json {
        match self {
            Record::Insert { key, entry } => Json::object([
                ("op", Json::Str("insert".to_string())),
                ("key", Json::Str(key.clone())),
                ("allowed", Json::Bool(entry.allowed)),
                ("wall_us", Json::UInt(entry.wall_us)),
                ("states", Json::UInt(entry.states)),
                ("hits", Json::UInt(entry.hits)),
            ]),
            Record::Evict { key } => Json::object([
                ("op", Json::Str("evict".to_string())),
                ("key", Json::Str(key.clone())),
            ]),
            Record::Hit { key, hits } => Json::object([
                ("op", Json::Str("hit".to_string())),
                ("key", Json::Str(key.clone())),
                ("hits", Json::UInt(*hits)),
            ]),
        }
    }

    /// Parses a record from a frame payload. `None` on any malformed
    /// content — recovery treats it like a corrupt frame (stop there).
    #[must_use]
    pub fn parse(payload: &[u8]) -> Option<Record> {
        let json = Json::parse(std::str::from_utf8(payload).ok()?).ok()?;
        let key = json.get("key")?.as_str()?.to_string();
        match json.get("op")?.as_str()? {
            "insert" => Some(Record::Insert {
                key,
                entry: CacheEntry {
                    allowed: match json.get("allowed")? {
                        Json::Bool(b) => *b,
                        _ => return None,
                    },
                    wall_us: json.get("wall_us")?.as_u64()?,
                    states: json.get("states")?.as_u64()?,
                    hits: json.get("hits")?.as_u64()?,
                },
            }),
            "evict" => Some(Record::Evict { key }),
            "hit" => Some(Record::Hit { key, hits: json.get("hits")?.as_u64()? }),
            _ => None,
        }
    }

    /// Applies the record to a cache, without journaling or eviction — the
    /// replay primitive. Absolute semantics: missing keys no-op for
    /// `evict`/`hit`, `insert` overwrites; `insert` and `hit` make their key
    /// the most recently used.
    pub fn apply(&self, cache: &mut OutcomeCache) {
        match self {
            Record::Insert { key, entry } => {
                // Replay must not trigger fresh evictions mid-stream: the
                // journal carries explicit evict records for those. Capacity
                // is re-enforced once, after the full replay.
                cache.insert_unbounded(key.clone(), entry.clone());
            }
            Record::Evict { key } => {
                cache.remove(key);
            }
            Record::Hit { key, hits } => cache.set_hits(key, *hits),
        }
    }
}

/// Counters the journal layer exports into `/metrics`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JournalStats {
    /// Records appended since this process opened the journal.
    pub appends: u64,
    /// Compactions (log rewritten from the live entries) since open.
    pub compactions: u64,
    /// Records replayed from the journal at open.
    pub replayed: u64,
}

/// An [`OutcomeCache`] whose every mutation is write-ahead journaled.
#[derive(Debug)]
pub struct JournaledCache {
    cache: OutcomeCache,
    /// `None` after an append failure: the cache degrades to memory-only
    /// rather than failing checks (durability is best-effort, serving is
    /// not).
    wal: Option<Wal>,
    path: PathBuf,
    compact_every: u64,
    /// Records appended (or replayed beyond the live entries) since the last
    /// compaction attempt, successful or not.
    records_since_compact: u64,
    stats: JournalStats,
}

impl JournaledCache {
    /// Opens the cache at `path`: replays the journal's longest valid
    /// prefix, re-enforces capacity (journaling an `evict` record for each
    /// entry that no longer fits, so a later open at a larger capacity does
    /// not bring it back) and positions the journal for appending. Damage of any kind — a missing file, a foreign file, a
    /// torn tail, an unparseable record — is tolerated and reported as
    /// warnings; an unopenable file degrades to a memory-only cache instead
    /// of failing.
    #[must_use]
    pub fn open(path: &Path, capacity: usize, compact_every: u64) -> (Self, Vec<String>) {
        let mut warnings = Vec::new();
        let mut cache = OutcomeCache::new(capacity);
        let mut replayed = 0u64;
        let mut stopped_early = false;
        let mut evicted = Vec::new();
        let wal = match Wal::open(path, JOURNAL_SCHEMA) {
            Ok((wal, frames, warning)) => {
                warnings.extend(warning);
                for (index, frame) in frames.iter().enumerate() {
                    let Some(record) = Record::parse(frame) else {
                        // A frame that passed CRC but fails to parse is a
                        // writer bug or version skew, not tail damage: keep
                        // the prefix before it, and compact below so that
                        // new records do not land behind it.
                        warnings.push(format!(
                            "journal {}: record {index} unparseable; \
                             ignoring it and {} later records",
                            path.display(),
                            frames.len() - index - 1,
                        ));
                        stopped_early = true;
                        break;
                    };
                    record.apply(&mut cache);
                    replayed += 1;
                }
                evicted = cache.enforce_capacity();
                Some(wal)
            }
            Err(err) => {
                warnings.push(format!(
                    "journal {}: unopenable ({err}); cache is memory-only",
                    path.display()
                ));
                None
            }
        };

        let mut journaled = JournaledCache {
            // A compacted log holds one record per live entry; only the
            // records beyond those count towards the next compaction.
            records_since_compact: replayed.saturating_sub(cache.len() as u64),
            cache,
            wal,
            path: path.to_path_buf(),
            compact_every: compact_every.max(1),
            stats: JournalStats { appends: 0, compactions: 0, replayed },
        };
        if stopped_early {
            // New records would land behind the unparseable one: rewrite the
            // recovered prefix now, or stop journaling.
            if let Err(err) = journaled.compact() {
                warnings.push(journaled.compaction_failed(&err));
                journaled.wal = None;
                warnings.push(format!("journal {}: cache is memory-only", path.display()));
            }
        } else {
            // Journaling the evictions also compacts a journal that is due.
            let evicts = evicted.into_iter().map(|key| Record::Evict { key });
            warnings.extend(journaled.journal(evicts));
        }
        (journaled, warnings)
    }

    /// The underlying cache, read-only.
    #[must_use]
    pub fn cache(&self) -> &OutcomeCache {
        &self.cache
    }

    /// Journal counters for `/metrics`.
    #[must_use]
    pub fn stats(&self) -> JournalStats {
        self.stats
    }

    /// Whether the journal is still attached (false after an append error
    /// degraded the cache to memory-only).
    #[must_use]
    pub fn journaling(&self) -> bool {
        self.wal.is_some()
    }

    /// Looks an entry up, bumping its hit counter and journaling the new
    /// absolute count, compacting when due. Returns the entry and warnings
    /// (journal degradation or a failed compaction).
    pub fn lookup(&mut self, key: &str) -> (Option<CacheEntry>, Vec<String>) {
        let Some(entry) = self.cache.lookup(key) else { return (None, Vec::new()) };
        let warnings = self.journal([Record::Hit { key: key.to_string(), hits: entry.hits }]);
        (Some(entry), warnings)
    }

    /// Inserts an entry, journaling the insert and any evictions it caused,
    /// compacting when due. Returns warnings (journal degradation or a
    /// failed compaction).
    pub fn insert(&mut self, key: String, entry: CacheEntry) -> Vec<String> {
        let evicted = self.cache.insert(key.clone(), entry.clone());
        let evicts = evicted.into_iter().map(|key| Record::Evict { key });
        self.journal(std::iter::once(Record::Insert { key, entry }).chain(evicts))
    }

    /// Rewrites the journal as one `insert` record per live entry, least
    /// recently used first: a fresh log at `<path>.tmp`, renamed over
    /// `<path>` (fault point `cache.compact` in between). Appends continue
    /// in the new log, which also re-attaches a journal that an append
    /// failure had detached.
    ///
    /// # Errors
    ///
    /// Propagates write and rename I/O errors (including the injected
    /// `cache.compact` kill); the old log is then left as it was.
    pub fn compact(&mut self) -> io::Result<()> {
        let _phase = gam_obs::phase("persist");
        let mut tmp = self.path.clone().into_os_string();
        tmp.push(".tmp");
        File::create(&tmp)?;
        let (mut wal, _, _) = Wal::open(Path::new(&tmp), JOURNAL_SCHEMA)?;
        for (key, entry) in self.cache.by_recency() {
            let record = Record::Insert { key: key.clone(), entry: entry.clone() };
            wal.append(record.to_json().to_string().as_bytes())?;
        }
        // Fault-injection point: `cache.compact` dies after the fresh log is
        // written, before the rename. The old log stays whole at `path`.
        if fault::hit("cache.compact") {
            return Err(io::Error::new(
                io::ErrorKind::Interrupted,
                "injected fault: cache.compact killed between write and rename",
            ));
        }
        wal.rename(&self.path)?;
        self.wal = Some(wal);
        self.records_since_compact = 0;
        self.stats.compactions += 1;
        Ok(())
    }

    /// Appends `records`, then compacts if due: every mutation's records
    /// pass through here, so hits count towards compaction as inserts do.
    fn journal(&mut self, records: impl IntoIterator<Item = Record>) -> Vec<String> {
        let mut warnings: Vec<String> =
            records.into_iter().filter_map(|record| self.append(&record)).collect();
        warnings.extend(self.compact_if_due());
        warnings
    }

    /// Compacts once `compact_every` records have accumulated since the last
    /// attempt. A failed attempt waits as long as a successful one before
    /// the next, so a standing failure costs one rewrite and one warning per
    /// `compact_every` records, not one per mutation.
    fn compact_if_due(&mut self) -> Option<String> {
        if self.wal.is_none() || self.records_since_compact < self.compact_every {
            return None;
        }
        self.records_since_compact = 0;
        let err = self.compact().err()?;
        Some(self.compaction_failed(&err))
    }

    fn compaction_failed(&self, err: &io::Error) -> String {
        format!("cache {}: compaction failed: {err}", self.path.display())
    }

    /// Appends one record, handling the `cache.journal.append` fault point
    /// and degrading to memory-only on failure. Returns a warning when the
    /// journal detaches.
    fn append(&mut self, record: &Record) -> Option<String> {
        let _phase = gam_obs::phase("journal_append");
        let wal = self.wal.as_mut()?;
        let payload = record.to_json().to_string();
        // Fault-injection point: `cache.journal.append` — a kill leaves a
        // genuinely torn half-frame on disk, exactly what death inside
        // `write(2)` leaves behind, and detaches the journal.
        let result = if fault::hit("cache.journal.append") {
            wal.append_torn(payload.as_bytes()).and_then(|()| {
                Err(io::Error::new(
                    io::ErrorKind::Interrupted,
                    "injected fault: cache.journal.append killed mid-write",
                ))
            })
        } else {
            wal.append(payload.as_bytes())
        };
        match result {
            Ok(()) => {
                self.stats.appends += 1;
                self.records_since_compact += 1;
                None
            }
            Err(err) => {
                self.wal = None;
                Some(format!(
                    "journal {}: append failed ({err}); cache is memory-only until restart",
                    self.path.display()
                ))
            }
        }
    }
}
