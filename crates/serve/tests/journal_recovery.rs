//! Recovery properties of the write-ahead-journaled cache.
//!
//! The central property: damage the journal *anywhere* — truncate it at a
//! random byte, flip a random bit — and reopening recovers exactly the
//! cache described by the longest valid prefix of the records that were
//! written. Never a panic, never an entry that was not genuinely inserted
//! (a corrupted record cannot be served because it cannot pass its CRC).
//!
//! Alongside the property, directed tests pin the fault-injection crash
//! windows — a kill mid-append (torn record, memory-only degradation) and a
//! kill between a compaction's write and its rename (the live journal left
//! whole) — and what compaction and reopening keep: hit counts, the order
//! of recent use, the most recently used entries under a smaller capacity,
//! one file holding one record per entry, and a cold start with one short
//! warning on a foreign file. Two more pin when compaction runs: a hit-only
//! phase compacts, and a failing compaction is retried only after another
//! `compact_every` records.

use std::fs;
use std::path::PathBuf;

use gam_core::{fault, wal};
use gam_serve::journal::{Record, JOURNAL_SCHEMA};
use gam_serve::{CacheEntry, JournaledCache, OutcomeCache};
use proptest::prelude::*;

/// A fresh directory holding one cache file; removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Self {
        let dir =
            std::env::temp_dir().join(format!("gam-journal-recovery-{}-{tag}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("scratch directory");
        Scratch(dir.join("cache.wal"))
    }

    fn tmp(&self) -> PathBuf {
        self.0.with_file_name("cache.wal.tmp")
    }

    /// Names of every file in the scratch directory.
    fn files(&self) -> Vec<String> {
        let dir = fs::read_dir(self.0.parent().expect("scratch has a directory"));
        let mut names: Vec<String> = dir
            .expect("scratch directory")
            .map(|entry| entry.expect("entry").file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        names
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(self.0.parent().expect("scratch has a directory"));
    }
}

fn entry(wall_us: u64, states: u64) -> CacheEntry {
    CacheEntry { allowed: true, wall_us, states, hits: 0 }
}

/// The CRC-valid frames of the journal at `scratch`.
fn frames(scratch: &Scratch) -> Vec<Vec<u8>> {
    let bytes = fs::read(&scratch.0).expect("journal exists");
    let header = format!("{JOURNAL_SCHEMA}\n");
    assert!(bytes.starts_with(header.as_bytes()), "journal starts with its magic");
    wal::scan(&bytes[header.len()..]).frames
}

/// A deterministic xorshift-style stream so each proptest case journals a
/// different operation mix without any system randomness.
fn mix(x: &mut u64) -> u64 {
    *x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
    *x
}

fn entry_from(x: u64) -> CacheEntry {
    CacheEntry {
        allowed: x & 1 == 0,
        wall_us: 10 + (x >> 8) % 1_000,
        states: 1 + (x >> 24) % 500,
        hits: 0,
    }
}

/// Journals a seeded mix of inserts (with evictions — capacity 4) and
/// lookups (hit records), then returns the journal's bytes.
fn build_journal(scratch: &Scratch, seed: u64) -> Vec<u8> {
    let (mut cache, warnings) = JournaledCache::open(&scratch.0, 4, 100_000);
    assert!(warnings.is_empty(), "fresh scratch must open silently: {warnings:?}");
    let mut x = seed.wrapping_mul(2_654_435_761).wrapping_add(99);
    let mut keys = Vec::new();
    for step in 0..12u64 {
        let draw = mix(&mut x);
        let key = format!("{draw:016x}/gam/operational");
        keys.push(key.clone());
        let warnings = cache.insert(key, entry_from(draw));
        assert!(warnings.is_empty(), "journal must stay attached: {warnings:?}");
        if step % 3 == 0 {
            let target = &keys[(mix(&mut x) as usize) % keys.len()];
            let (_, warnings) = cache.lookup(target);
            assert!(warnings.is_empty(), "journal must stay attached: {warnings:?}");
        }
    }
    assert!(cache.journaling());
    fs::read(&scratch.0).expect("journal exists")
}

/// The reference replay: apply `frames` (which must all parse — they are a
/// prefix of genuinely written records) over an empty capacity-4 cache,
/// then re-enforce capacity least-recent-first, exactly as recovery does.
/// Recency is tracked here on its own: an `insert`, or a `hit` on a live
/// key, makes that key the most recent. The enforcement matters: damage can
/// land *between* an insert record and the evict records that insert
/// caused, so a valid prefix may describe a momentarily over-capacity cache.
fn replay_reference(frames: &[Vec<u8>]) -> OutcomeCache {
    let mut cache = OutcomeCache::new(4);
    let mut recency: Vec<String> = Vec::new(); // least recent first
    for frame in frames {
        let record =
            Record::parse(frame).expect("a CRC-valid prefix frame parses — it was written by us");
        match &record {
            Record::Insert { key, .. } => {
                recency.retain(|k| k != key);
                recency.push(key.clone());
            }
            Record::Hit { key, .. } if cache.get(key).is_some() => {
                recency.retain(|k| k != key);
                recency.push(key.clone());
            }
            Record::Hit { .. } => {}
            Record::Evict { key } => recency.retain(|k| k != key),
        }
        record.apply(&mut cache);
    }
    for key in &recency[..recency.len().saturating_sub(4)] {
        cache.remove(key);
    }
    cache
}

fn entries_of(cache: &OutcomeCache) -> Vec<(String, CacheEntry)> {
    cache.entries().map(|(k, e)| (k.clone(), e.clone())).collect()
}

/// Live keys, least recently used first.
fn recency_of(cache: &OutcomeCache) -> Vec<String> {
    cache.by_recency().map(|(k, _)| k.clone()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]
    #[test]
    fn damaged_journal_recovers_longest_valid_prefix(
        seed in 0u64..1_000_000,
        pos_permille in 0usize..1000,
        flip_bit in 0u8..9, // 0..8 = flip that bit; 8 = truncate instead
    ) {
        // The fault plan is process-global; serialize against the directed
        // fault tests in this binary.
        let _guard = fault::exclusive();
        let scratch = Scratch::new("prop");
        let pristine = build_journal(&scratch, seed);
        let header = format!("{JOURNAL_SCHEMA}\n");
        let original = wal::scan(&pristine[header.len()..]).frames;
        prop_assert!(original.len() >= 12, "build journaled at least the inserts");

        // Damage the journal at a position scaled into its actual length.
        let pos = pos_permille * pristine.len() / 1000;
        let damaged = if flip_bit == 8 {
            pristine[..pos].to_vec()
        } else {
            let mut bytes = pristine.clone();
            bytes[pos] ^= 1 << flip_bit;
            bytes
        };
        fs::write(&scratch.0, &damaged).expect("write damaged journal");

        // Reopening must not panic, must not error, and must land on the
        // replay of exactly the longest valid record prefix.
        let (recovered, _warnings) = JournaledCache::open(&scratch.0, 4, 100_000);
        let expected_frames = if damaged.starts_with(header.as_bytes()) {
            wal::scan(&damaged[header.len()..]).frames
        } else {
            Vec::new() // damaged magic: the file is abandoned entirely
        };
        // Damage can only ever shorten the record sequence, never invent or
        // reorder records.
        prop_assert!(expected_frames.len() <= original.len());
        prop_assert_eq!(&original[..expected_frames.len()], &expected_frames[..]);

        let reference = replay_reference(&expected_frames);
        prop_assert_eq!(entries_of(recovered.cache()), entries_of(&reference));
        prop_assert_eq!(recovered.stats().replayed, expected_frames.len() as u64);
    }
}

#[test]
fn append_kill_leaves_torn_record_and_degrades_to_memory_only() {
    let _guard = fault::exclusive();
    let scratch = Scratch::new("append-kill");
    let (mut cache, warnings) = JournaledCache::open(&scratch.0, 64, 100_000);
    assert!(warnings.is_empty());

    fault::install("cache.journal.append=kill@3").expect("valid plan");
    // Appends 1 and 2 land; append 3 dies mid-write(2) and detaches the
    // journal; appends 4 and 5 are memory-only.
    let mut degradations = Vec::new();
    for i in 0..5u64 {
        let warnings = cache.insert(
            format!("{i:016x}/gam/operational"),
            CacheEntry { allowed: true, wall_us: 100 + i, states: 10, hits: 0 },
        );
        degradations.extend(warnings);
    }
    fault::reset();

    assert!(!cache.journaling(), "a failed append must detach the journal");
    assert_eq!(degradations.len(), 1, "exactly one degradation warning: {degradations:?}");
    assert!(degradations[0].contains("memory-only"), "warning names the mode: {degradations:?}");
    // The running process keeps serving from memory regardless.
    assert_eq!(cache.cache().len(), 5);

    // A restart recovers the two committed records; the torn third is
    // dropped as a torn tail, with a warning saying so.
    let (recovered, warnings) = JournaledCache::open(&scratch.0, 64, 100_000);
    assert_eq!(recovered.cache().len(), 2, "committed prefix only");
    assert!(recovered.cache().get("0000000000000000/gam/operational").is_some());
    assert!(recovered.cache().get("0000000000000001/gam/operational").is_some());
    assert!(
        warnings.iter().any(|w| w.contains("torn")),
        "recovery must report the torn tail: {warnings:?}"
    );
}

#[test]
fn compaction_kill_before_rename_leaves_the_journal_whole_and_converges_on_restart() {
    let _guard = fault::exclusive();
    let scratch = Scratch::new("compact-kill");
    let (mut cache, warnings) = JournaledCache::open(&scratch.0, 64, 100_000);
    assert!(warnings.is_empty());
    for i in 0..6u64 {
        let warnings = cache.insert(
            format!("{i:016x}/gam/operational"),
            CacheEntry { allowed: i % 2 == 0, wall_us: 50 + i, states: 5 + i, hits: 0 },
        );
        assert!(warnings.is_empty());
    }
    let before = entries_of(cache.cache());
    let journal = fs::read(&scratch.0).expect("journal exists");

    // Die in the crash window: the fresh log is written, not yet renamed.
    fault::install("cache.compact=kill").expect("valid plan");
    let err = cache.compact().expect_err("injected kill surfaces");
    assert_eq!(err.kind(), std::io::ErrorKind::Interrupted);
    fault::reset();
    drop(cache);

    // The live journal is untouched and the orphaned tmp file marks the
    // crash point; the restart replays the journal in full.
    assert_eq!(fs::read(&scratch.0).expect("journal exists"), journal);
    assert!(scratch.tmp().exists(), "the orphaned tmp file marks the crash point");
    let (recovered, warnings) = JournaledCache::open(&scratch.0, 64, 100_000);
    assert!(warnings.is_empty(), "nothing was torn: {warnings:?}");
    assert_eq!(recovered.stats().replayed, 6, "the journal replays in full");
    assert_eq!(entries_of(recovered.cache()), before);
}

#[test]
fn appends_after_an_unparseable_record_survive_the_next_restart() {
    let _guard = fault::exclusive();
    let scratch = Scratch::new("unparseable");
    let (mut cache, _) = JournaledCache::open(&scratch.0, 64, 100_000);
    assert!(cache.insert("a/gam/operational".into(), entry(10, 10)).is_empty());
    drop(cache);
    // A frame that passes its CRC but is no record stops the replay.
    let mut bytes = fs::read(&scratch.0).expect("journal exists");
    bytes.extend_from_slice(&wal::encode_frame(br#"{"op":"bogus","key":"x"}"#));
    fs::write(&scratch.0, bytes).expect("append the bogus frame");

    let (mut cache, warnings) = JournaledCache::open(&scratch.0, 64, 100_000);
    assert!(warnings.iter().any(|w| w.contains("unparseable")), "{warnings:?}");
    assert!(cache.insert("b/gam/operational".into(), entry(20, 20)).is_empty());
    drop(cache);

    // The insert acknowledged after the bad frame is not lost behind it.
    let (recovered, warnings) = JournaledCache::open(&scratch.0, 64, 100_000);
    assert!(warnings.is_empty(), "the bad frame was compacted away: {warnings:?}");
    assert!(recovered.cache().get("a/gam/operational").is_some());
    assert!(recovered.cache().get("b/gam/operational").is_some());
}

#[test]
fn hit_counts_survive_compaction_and_reopen() {
    let _guard = fault::exclusive();
    let scratch = Scratch::new("hits");
    let (mut cache, _) = JournaledCache::open(&scratch.0, 16, 100_000);
    cache.insert(OutcomeCache::key("aaaa", "gam", "operational"), entry(1234, 567));
    cache.insert(OutcomeCache::key("bbbb", "sc", "axiomatic"), entry(89, 0));
    for _ in 0..3 {
        assert!(cache.lookup(&OutcomeCache::key("aaaa", "gam", "operational")).0.is_some());
    }
    cache.compact().expect("compaction succeeds");
    let before = entries_of(cache.cache());
    drop(cache);

    let (recovered, warnings) = JournaledCache::open(&scratch.0, 16, 100_000);
    assert!(warnings.is_empty(), "clean reopen must not warn: {warnings:?}");
    assert_eq!(entries_of(recovered.cache()), before);
    let served = recovered.cache().get(&OutcomeCache::key("aaaa", "gam", "operational"));
    assert_eq!(served.expect("entry survives").hits, 3);
}

#[test]
fn recency_survives_a_plain_replay() {
    let scratch = Scratch::new("recency-replay");
    let (mut cache, _) = JournaledCache::open(&scratch.0, 8, 100_000);
    for key in ["a", "b", "c", "d"] {
        assert!(cache.insert(key.into(), entry(10, 10)).is_empty());
    }
    assert!(cache.lookup("b").0.is_some());
    assert!(cache.insert("a".into(), entry(20, 20)).is_empty());
    assert!(cache.lookup("missing").0.is_none());
    let order = recency_of(cache.cache());
    assert_eq!(order, ["c", "d", "b", "a"]);
    drop(cache);

    let (recovered, warnings) = JournaledCache::open(&scratch.0, 8, 100_000);
    assert!(warnings.is_empty(), "{warnings:?}");
    assert_eq!(recovered.stats().replayed, 6, "no compaction ran");
    assert_eq!(recency_of(recovered.cache()), order);
}

#[test]
fn recency_survives_compaction_and_reopen() {
    let _guard = fault::exclusive();
    let scratch = Scratch::new("recency-compact");
    let (mut cache, _) = JournaledCache::open(&scratch.0, 8, 100_000);
    for key in ["a", "b", "c", "d"] {
        assert!(cache.insert(key.into(), entry(10, 10)).is_empty());
    }
    for key in ["c", "a", "c"] {
        assert!(cache.lookup(key).0.is_some());
    }
    let order = recency_of(cache.cache());
    assert_eq!(order, ["b", "d", "a", "c"]);
    cache.compact().expect("compaction succeeds");
    assert_eq!(recency_of(cache.cache()), order, "compaction leaves recency alone");

    // The compacted file is one insert per entry, least recently used first.
    let written: Vec<String> = frames(&scratch)
        .iter()
        .map(|f| match Record::parse(f).expect("parses") {
            Record::Insert { key, .. } => key,
            other => panic!("a compacted journal holds only inserts: {other:?}"),
        })
        .collect();
    assert_eq!(written, order);
    drop(cache);

    let (mut recovered, warnings) = JournaledCache::open(&scratch.0, 8, 100_000);
    assert!(warnings.is_empty(), "{warnings:?}");
    assert_eq!(recency_of(recovered.cache()), order);
    assert_eq!(recovered.cache().get("c").expect("entry survives").hits, 2);
    // The rebuilt order decides evictions as the original would have.
    recovered.compact().expect("compaction succeeds");
    drop(recovered);
    let (shrunk, _) = JournaledCache::open(&scratch.0, 2, 100_000);
    assert_eq!(recency_of(shrunk.cache()), ["a", "c"]);
}

#[test]
fn reopen_with_smaller_capacity_keeps_the_most_recently_used_entries() {
    let scratch = Scratch::new("shrink");
    let (mut cache, _) = JournaledCache::open(&scratch.0, 8, 100_000);
    cache.insert("cheap".into(), entry(2, 2));
    cache.insert("expensive".into(), entry(10_000, 10_000));
    cache.insert("medium".into(), entry(100, 100));
    assert!(cache.lookup("cheap").0.is_some());
    drop(cache);

    // Cost plays no part: the costliest entry is the least recently used.
    let (recovered, _) = JournaledCache::open(&scratch.0, 2, 100_000);
    assert_eq!(recency_of(recovered.cache()), ["medium", "cheap"]);
    assert_eq!(recovered.cache().evictions(), 1);
    drop(recovered);

    // The shrink's eviction is journaled: growing the capacity again does
    // not bring the evicted entry back.
    let (regrown, _) = JournaledCache::open(&scratch.0, 8, 100_000);
    assert_eq!(recency_of(regrown.cache()), ["medium", "cheap"]);
    assert_eq!(regrown.cache().evictions(), 0);
}

#[test]
fn a_hit_only_phase_compacts() {
    let _guard = fault::exclusive();
    let scratch = Scratch::new("hit-only");
    let (mut cache, _) = JournaledCache::open(&scratch.0, 8, 8);
    for i in 0..4u64 {
        assert!(cache.insert(format!("{i}/gam/operational"), entry(10, 10)).is_empty());
    }
    for i in 0..40u64 {
        let (served, warnings) = cache.lookup(&format!("{}/gam/operational", i % 4));
        assert!(served.is_some());
        assert!(warnings.is_empty(), "{warnings:?}");
    }
    assert!(cache.stats().compactions >= 1, "{:?}", cache.stats());
    let written = frames(&scratch).len();
    assert!(written < 20, "the journal holds {written} frames");
    drop(cache);

    let (recovered, warnings) = JournaledCache::open(&scratch.0, 8, 8);
    assert!(warnings.is_empty(), "{warnings:?}");
    let hits: u64 = recovered.cache().entries().map(|(_, e)| e.hits).sum();
    assert_eq!(hits, 40, "every hit count survives");
}

#[test]
fn a_failing_compaction_is_retried_only_after_another_compact_every_records() {
    let _guard = fault::exclusive();
    let scratch = Scratch::new("compact-backoff");
    let (mut cache, _) = JournaledCache::open(&scratch.0, 4096, 64);
    fault::install("cache.compact=kill").expect("valid plan");
    let mut warnings = Vec::new();
    for i in 0..116u64 {
        warnings.extend(cache.insert(format!("{i:016x}/gam/operational"), entry(10 + i, 10)));
    }
    fault::reset();
    let failed = warnings.iter().filter(|w| w.contains("compaction failed")).count();
    assert!(failed >= 1, "the due compaction was attempted: {warnings:?}");
    assert!(failed <= 2, "{failed} compaction warnings for 116 inserts");
    assert_eq!(warnings.len(), failed, "nothing else went wrong: {warnings:?}");
    assert!(cache.journaling(), "a failed compaction leaves the journal attached");
    let before = entries_of(cache.cache());
    drop(cache);

    let (recovered, warnings) = JournaledCache::open(&scratch.0, 4096, 64);
    assert!(warnings.is_empty(), "{warnings:?}");
    assert_eq!(entries_of(recovered.cache()), before, "no acknowledged entry is lost");
}

#[test]
fn compaction_leaves_one_file_with_one_record_per_entry() {
    let _guard = fault::exclusive();
    let scratch = Scratch::new("one-file");
    let (mut cache, _) = JournaledCache::open(&scratch.0, 4, 100_000);
    for i in 0..10u64 {
        cache.insert(format!("{i:016x}/gam/operational"), entry(10 + i, 10));
        cache.lookup(&format!("{i:016x}/gam/operational"));
    }
    assert!(frames(&scratch).len() > cache.cache().len(), "evicts and hits were journaled");
    cache.compact().expect("compaction succeeds");

    assert_eq!(scratch.files(), ["cache.wal"], "no tmp file, no second file");
    let records: Vec<Record> =
        frames(&scratch).iter().map(|f| Record::parse(f).expect("parses")).collect();
    assert_eq!(records.len(), cache.cache().len());
    assert!(records.iter().all(|r| matches!(r, Record::Insert { .. })));
    // Appends continue in the compacted file.
    cache.insert("late/gam/operational".into(), entry(1_000, 10));
    drop(cache);
    let (recovered, warnings) = JournaledCache::open(&scratch.0, 4, 100_000);
    assert!(warnings.is_empty(), "{warnings:?}");
    assert!(recovered.cache().get("late/gam/operational").is_some());
}

#[test]
fn a_foreign_file_opens_cold_with_one_short_warning() {
    // A `gam-serve-cache/v1` snapshot as older versions wrote it: one JSON
    // line of about 100 bytes per entry.
    let entries: Vec<String> = (0..100)
        .map(|i| {
            format!(
                r#"{{"key":"{i:016x}/gam/operational","allowed":true,"wall_us":{i},"states":7,"hits":0}}"#
            )
        })
        .collect();
    let legacy = format!(
        r#"{{"schema":"gam-serve-cache/v1","capacity":4096,"entries":[{}]}}"#,
        entries.join(",")
    );
    let garbage = "this is not json {{{{".to_string();
    let misversioned = format!("gam-serve-journal/v999\n{}", "x".repeat(500));
    for (tag, content) in [("legacy", legacy), ("garbage", garbage), ("version", misversioned)] {
        let scratch = Scratch::new(tag);
        fs::write(&scratch.0, &content).expect("write the foreign file");
        let (cache, warnings) = JournaledCache::open(&scratch.0, 64, 100_000);
        assert!(cache.cache().is_empty(), "{tag}: opens cold");
        assert_eq!(warnings.len(), 1, "{tag}: exactly one warning: {warnings:?}");
        assert!(warnings[0].contains(JOURNAL_SCHEMA), "{tag}: names the schema: {warnings:?}");
        assert!(warnings[0].len() < 256, "{tag}: a short warning: {}", warnings[0]);
        drop(cache);
        // The file is a journal now.
        let (_, warnings) = JournaledCache::open(&scratch.0, 64, 100_000);
        assert!(warnings.is_empty(), "{tag}: {warnings:?}");
    }
}
