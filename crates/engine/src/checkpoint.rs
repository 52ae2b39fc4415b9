//! Crash-durable run checkpoints: resume a killed `gam check`.
//!
//! A check is a sequence of independent *work units*, one per (model,
//! backend) pair. Each unit is deterministic: the sequential explorer
//! visits the same states and produces the same outcome set every time.
//! The completed unit is the only resume granularity: a resumed run skips
//! every completed unit and recomputes the one the crash interrupted from
//! scratch, which by determinism yields the verdicts of an uninterrupted
//! run. No search state is persisted mid-unit: every operational unit of
//! the checked-in corpora explores in well under a second, so a restart
//! loses little.
//!
//! The file is an append-only log built on [`gam_core::wal`] (magic line
//! [`CHECKPOINT_SCHEMA`], one CRC-framed JSON record per completed unit:
//! its key and its [`ResultRow`]), so it inherits the journal's crash
//! contract: a `kill -9` mid-append loses at most the record being
//! written, and [`RunCheckpoint::open`] recovers the longest valid prefix
//! of whatever survived, warning instead of failing. A record that passes
//! its checksum but does not parse — not JSON, or a row
//! [`ResultRow::from_json`] rejects — also stops the replay, so its unit
//! is recomputed, never replayed as a broken row. The file is then
//! rewritten from the records before it (a fresh log at `PATH.tmp`,
//! renamed over `PATH`), so units recorded later are not appended behind
//! it, where the next resume would ignore them.
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

use crate::json::{Json, ToJson};
use crate::report::ResultRow;

/// Magic line of the checkpoint file; bump on incompatible record changes.
/// A file of another version starts cold, with a wrong-magic warning.
pub const CHECKPOINT_SCHEMA: &str = "gam-checkpoint/v2";

/// An open checkpoint: the completed-unit map recovered from disk plus the
/// log handle for appending new completions.
#[derive(Debug)]
pub struct RunCheckpoint {
    wal: Wal,
    completed: BTreeMap<String, ResultRow>,
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
                    Some((key, ResultRow::from_json(json.get("result")?)?))
                });
            match record {
                Some((key, row)) => {
                    completed.insert(key, row);
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
        Ok((RunCheckpoint { wal, completed }, warning))
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

    /// The recorded row of a completed unit, if any.
    #[must_use]
    pub fn completed(&self, key: &str) -> Option<&ResultRow> {
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
    pub fn record(&mut self, key: &str, row: &ResultRow) -> io::Result<()> {
        let payload =
            Json::object([("key", Json::from(key)), ("result", row.to_json())]).to_string();
        self.completed.insert(key.to_string(), row.clone());
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
