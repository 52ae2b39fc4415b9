//! Crash-durable run checkpoints: resume a killed `gam check`.
//!
//! A check is a sequence of independent *work units*, one per (model,
//! backend) pair. Each unit is deterministic: the sequential explorer
//! visits the same states and produces the same outcome set every time.
//! That makes the unit the natural checkpoint granularity: a resumed run
//! skips every completed unit and recomputes only the one the crash
//! interrupted, which by determinism yields the verdicts of an
//! uninterrupted run. An operational unit can additionally record
//! intra-exploration snapshots ([`RunCheckpoint::record_explore_snapshot`])
//! so that the interrupted unit resumes mid-exploration.
//!
//! The file is an append-only log built on [`gam_core::wal`] (magic line
//! [`CHECKPOINT_SCHEMA`], one CRC-framed JSON record per completed unit), so
//! it inherits the journal's crash contract: a `kill -9` mid-append loses at
//! most the record being written, and [`RunCheckpoint::open`] recovers the
//! longest valid prefix of whatever survived, warning instead of failing.
//! A record that passes its checksum but does not parse also stops the
//! replay; the file is then rewritten from the records before it (a fresh
//! log at `PATH.tmp`, renamed over `PATH`), so units recorded later are not
//! appended behind it, where the next resume would ignore them.
//!
//! Records are keyed by caller-chosen strings that embed the unit's
//! identity *and* its content fingerprint (the CLI uses the canonical test
//! hash), so a checkpoint accidentally pointed at a different corpus simply
//! matches nothing rather than poisoning the run. Duplicate keys are
//! last-writer-wins, which makes re-recording after a resume harmless.
//!
//! The fault-injection point `checkpoint.write` arms record appends:
//! `kill` leaves a genuinely torn half-record (what a real mid-`write(2)`
//! death leaves) and surfaces as an `Err` the CLI warns about — checkpoint
//! loss must never fail the run it exists to protect.

use std::collections::BTreeMap;
use std::fs::File;
use std::io;
use std::path::Path;

use gam_core::{fault, wal::Wal};

use crate::json::Json;

/// Magic line of the checkpoint file; bump on incompatible record changes.
pub const CHECKPOINT_SCHEMA: &str = "gam-checkpoint/v1";

/// Schema tag of intra-exploration snapshot records: the explorer's
/// frontier, visited-set and spill-manifest snapshot of one *in-flight*
/// test, so a killed run resumes mid-exploration instead of restarting
/// the test.
pub const EXPLORE_CHECKPOINT_SCHEMA: &str = "gam-explore-checkpoint/v1";

/// An open checkpoint: the completed-unit map recovered from disk plus the
/// log handle for appending new completions.
#[derive(Debug)]
pub struct RunCheckpoint {
    wal: Wal,
    completed: BTreeMap<String, Json>,
    resumed: usize,
}

impl RunCheckpoint {
    /// Opens (or creates) the checkpoint at `path`, recovering the longest
    /// valid record prefix. Returns the checkpoint and an optional warning
    /// describing tolerated damage (torn tail, wrong magic, unparseable
    /// record). After an unparseable record the file is rewritten from the
    /// records before it.
    ///
    /// # Errors
    ///
    /// Only genuine I/O failures (including a failed rewrite); damaged
    /// content is recovered, not fatal.
    pub fn open(path: &Path) -> io::Result<(RunCheckpoint, Option<String>)> {
        let (mut wal, frames, mut warning) = Wal::open(path, CHECKPOINT_SCHEMA)?;
        let mut completed = BTreeMap::new();
        for (index, frame) in frames.iter().enumerate() {
            let record = std::str::from_utf8(frame)
                .ok()
                .and_then(|text| Json::parse(text).ok())
                .and_then(|json| {
                    let key = json.get("key")?.as_str()?.to_string();
                    let result = json.get("result")?.clone();
                    Some((key, result))
                });
            match record {
                Some((key, result)) => {
                    completed.insert(key, result);
                }
                None => {
                    // CRC-valid but unparseable: writer bug or version skew.
                    // Keep the prefix before it, ignore the rest, and rewrite
                    // the file so that new records do not land behind it.
                    warning.get_or_insert_with(|| {
                        format!(
                            "checkpoint {}: record {index} unparseable; \
                             ignoring it and {} later records",
                            path.display(),
                            frames.len() - index - 1,
                        )
                    });
                    wal = rewrite(path, &frames[..index])?;
                    break;
                }
            }
        }
        let resumed = completed.len();
        Ok((RunCheckpoint { wal, completed, resumed }, warning))
    }

    /// Number of completed units currently recorded.
    #[must_use]
    pub fn len(&self) -> usize {
        self.completed.len()
    }

    /// True when no units are recorded yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.completed.is_empty()
    }

    /// How many completed units were recovered from disk at open — the
    /// units a resumed run gets to skip.
    #[must_use]
    pub fn resumed(&self) -> usize {
        self.resumed
    }

    /// The recorded result of a completed unit, if any.
    #[must_use]
    pub fn completed(&self, key: &str) -> Option<&Json> {
        self.completed.get(key)
    }

    /// Records a completed unit: one appended CRC frame, durable against
    /// `kill -9` the moment this returns. Duplicate keys overwrite (last
    /// writer wins on replay).
    ///
    /// # Errors
    ///
    /// Propagates append I/O errors, including the injected
    /// `checkpoint.write` kill (which first leaves a genuinely torn record
    /// on disk, as a real crash would). The in-memory map is updated either
    /// way, so the running process keeps its own progress.
    pub fn record(&mut self, key: &str, result: Json) -> io::Result<()> {
        let payload =
            Json::object([("key", Json::Str(key.to_string())), ("result", result.clone())])
                .to_string();
        self.completed.insert(key.to_string(), result);
        // Fault-injection point: `checkpoint.write` — a kill dies mid-append.
        if fault::hit("checkpoint.write") {
            self.wal.append_torn(payload.as_bytes())?;
            return Err(io::Error::new(
                io::ErrorKind::Interrupted,
                "injected fault: checkpoint.write killed mid-append",
            ));
        }
        self.wal.append(payload.as_bytes())
    }

    /// The path of the underlying log file.
    #[must_use]
    pub fn path(&self) -> &Path {
        self.wal.path()
    }

    /// Records the in-flight exploration snapshot of the unit `key` (an
    /// [`EXPLORE_CHECKPOINT_SCHEMA`] record under a derived key, so it never
    /// collides with the unit's completion record). Re-recording overwrites:
    /// only the newest snapshot matters on replay.
    ///
    /// # Errors
    ///
    /// Same contract as [`RunCheckpoint::record`].
    pub fn record_explore_snapshot(&mut self, key: &str, snapshot: &[u8]) -> io::Result<()> {
        let record = Json::object([
            ("schema", Json::Str(EXPLORE_CHECKPOINT_SCHEMA.to_string())),
            ("snapshot", Json::Str(base64_encode(snapshot))),
        ]);
        self.record(&explore_key(key), record)
    }

    /// The recovered in-flight exploration snapshot of the unit `key`, if a
    /// valid one was recorded. Schema skew or corrupt base64 yields `None`
    /// (the caller restarts the test from scratch, which is always sound).
    #[must_use]
    pub fn explore_snapshot(&self, key: &str) -> Option<Vec<u8>> {
        let record = self.completed(&explore_key(key))?;
        if record.get("schema")?.as_str()? != EXPLORE_CHECKPOINT_SCHEMA {
            return None;
        }
        base64_decode(record.get("snapshot")?.as_str()?)
    }
}

/// Writes `frames` into a fresh log at `PATH.tmp` and renames it over
/// `path`; appends continue in the new log.
fn rewrite(path: &Path, frames: &[Vec<u8>]) -> io::Result<Wal> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    File::create(&tmp)?;
    let (mut wal, _, _) = Wal::open(Path::new(&tmp), CHECKPOINT_SCHEMA)?;
    for frame in frames {
        wal.append(frame)?;
    }
    wal.rename(path)?;
    Ok(wal)
}

fn explore_key(key: &str) -> String {
    format!("explore-snapshot:{key}")
}

const BASE64_ALPHABET: &[u8; 64] =
    b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";

/// Standard base64 with padding (snapshots are binary; JSON strings are not).
fn base64_encode(bytes: &[u8]) -> String {
    let mut out = String::with_capacity(bytes.len().div_ceil(3) * 4);
    for chunk in bytes.chunks(3) {
        let b = [chunk[0], chunk.get(1).copied().unwrap_or(0), chunk.get(2).copied().unwrap_or(0)];
        let group = (u32::from(b[0]) << 16) | (u32::from(b[1]) << 8) | u32::from(b[2]);
        for position in 0..4 {
            if position <= chunk.len() {
                let index = (group >> (18 - 6 * position)) & 0x3f;
                out.push(BASE64_ALPHABET[index as usize] as char);
            } else {
                out.push('=');
            }
        }
    }
    out
}

/// Inverse of [`base64_encode`]; `None` on any malformed input.
fn base64_decode(text: &str) -> Option<Vec<u8>> {
    let text = text.as_bytes();
    if !text.len().is_multiple_of(4) {
        return None;
    }
    let mut out = Vec::with_capacity(text.len() / 4 * 3);
    for chunk in text.chunks(4) {
        let pad = chunk.iter().rev().take_while(|&&c| c == b'=').count();
        if pad > 2 || chunk[..4 - pad].contains(&b'=') {
            return None;
        }
        let mut group: u32 = 0;
        for &c in &chunk[..4 - pad] {
            let value = BASE64_ALPHABET.iter().position(|&a| a == c)?;
            group = (group << 6) | value as u32;
        }
        group <<= 6 * pad as u32;
        let bytes = group.to_be_bytes();
        out.extend_from_slice(&bytes[1..4 - pad]);
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn base64_round_trips_all_lengths() {
        for len in 0..64usize {
            let bytes: Vec<u8> = (0..len).map(|i| (i * 37 + 11) as u8).collect();
            let encoded = base64_encode(&bytes);
            assert_eq!(encoded.len() % 4, 0);
            assert_eq!(base64_decode(&encoded).as_deref(), Some(bytes.as_slice()), "len {len}");
        }
        assert_eq!(base64_encode(b"any carnal pleasure."), "YW55IGNhcm5hbCBwbGVhc3VyZS4=");
        assert!(base64_decode("a===").is_none());
        assert!(base64_decode("abc").is_none());
        assert!(base64_decode("ab=c").is_none());
        assert!(base64_decode("ab!d").is_none());
    }

    #[test]
    fn explore_snapshots_record_and_recover() {
        let dir = std::env::temp_dir().join(format!("gam-ckpt-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("run.ckpt");
        let snapshot: Vec<u8> = (0..=255u8).collect();
        {
            let (mut ckpt, warning) = RunCheckpoint::open(&path).unwrap();
            assert!(warning.is_none());
            ckpt.record_explore_snapshot("unit-a", b"stale").unwrap();
            ckpt.record_explore_snapshot("unit-a", &snapshot).unwrap();
            // Snapshot keys never shadow completion records.
            assert!(ckpt.completed("unit-a").is_none());
        }
        let (ckpt, warning) = RunCheckpoint::open(&path).unwrap();
        assert!(warning.is_none());
        // Last writer wins on replay.
        assert_eq!(ckpt.explore_snapshot("unit-a").as_deref(), Some(snapshot.as_slice()));
        assert!(ckpt.explore_snapshot("unit-b").is_none());
        std::fs::remove_dir_all(&dir).ok();
    }
}
