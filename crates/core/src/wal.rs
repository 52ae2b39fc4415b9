//! Append-only, CRC-framed write-ahead-log primitives.
//!
//! Both crash-durability features of the toolchain — the serve crate's
//! journaled outcome cache and the engine's run checkpoints — need the same
//! storage shape: a file that is only ever *appended to*, where a `kill -9`
//! at any instruction loses at most the record being written, and where
//! startup recovers the longest valid prefix of whatever survived. This
//! module is that shape, shared so both layers get identical recovery
//! semantics and one set of tests for the framing.
//!
//! ## On-disk layout
//!
//! ```text
//! <magic line>\n                  # e.g. "gam-serve-journal/v1"
//! [len: u32 LE][crc32: u32 LE][payload bytes]   # frame 0
//! [len: u32 LE][crc32: u32 LE][payload bytes]   # frame 1
//! ...
//! ```
//!
//! `len` is the payload length and `crc32` is the IEEE CRC-32 of the payload
//! alone, so a frame is self-validating: a torn tail (partial header or
//! partial payload) and a corrupted frame (bit flip anywhere in header or
//! payload) are both detected, and [`scan`] stops at the first invalid
//! frame. Payload contents are opaque here — callers put one JSON record per
//! frame.
//!
//! ## Recovery contract
//!
//! [`Wal::open`] never fails on damage. A missing file is a cold start; a
//! wrong magic line abandons the file (warning) and starts fresh; a damaged
//! tail is truncated back to the longest valid prefix (warning) and
//! appending continues after it. Only genuine I/O errors (permissions, full
//! disk) surface as `Err`.
//!
//! There is deliberately no `fsync`: the threat model of the growth
//! trajectory is `kill -9` (process death), not power loss, and a completed
//! `write(2)` into the page cache survives the process. Keeping appends
//! sync-free is what lets the journaled cache stay on the serve hot path.

use std::fs::{self, File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// Largest accepted frame payload. A length field beyond this is treated as
/// corruption (it is far larger than any cache record or checkpoint row),
/// which stops [`scan`] from attempting a multi-gigabyte allocation off a
/// damaged header.
pub const MAX_FRAME: usize = 16 << 20;

/// Bytes of a frame header: payload length and CRC, both `u32` LE.
pub const FRAME_HEADER: usize = 8;

const CRC_TABLE: [u32; 256] = crc_table();

const fn crc_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut index = 0;
    while index < 256 {
        let mut crc = index as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ 0xEDB8_8320 } else { crc >> 1 };
            bit += 1;
        }
        table[index] = crc;
        index += 1;
    }
    table
}

/// IEEE CRC-32 (the zlib/Ethernet polynomial) of `bytes`.
#[must_use]
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &byte in bytes {
        crc = (crc >> 8) ^ CRC_TABLE[((crc ^ u32::from(byte)) & 0xFF) as usize];
    }
    !crc
}

/// Encodes one frame: length + CRC header followed by the payload.
#[must_use]
pub fn encode_frame(payload: &[u8]) -> Vec<u8> {
    let mut frame = Vec::with_capacity(FRAME_HEADER + payload.len());
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(&crc32(payload).to_le_bytes());
    frame.extend_from_slice(payload);
    frame
}

/// The result of scanning a frame stream: the longest valid prefix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Recovery {
    /// Payloads of every frame in the valid prefix, in order.
    pub frames: Vec<Vec<u8>>,
    /// Byte length of the valid prefix within the scanned slice; everything
    /// past it is damaged or torn.
    pub valid_len: usize,
    /// Human-readable description of the damage, when any was found.
    pub damage: Option<String>,
}

/// Decodes the frame at the start of `bytes`: its payload and the frame's
/// total length (header included). A torn or corrupted frame is an `Err`
/// describing the damage. Never panics on arbitrary input.
///
/// # Errors
///
/// A partial header, a length beyond [`MAX_FRAME`], a partial payload, or a
/// CRC mismatch.
pub fn decode_frame(bytes: &[u8]) -> Result<(&[u8], usize), String> {
    let Some((header, body)) = bytes.split_first_chunk::<FRAME_HEADER>() else {
        return Err(format!("torn tail: {}-byte partial frame header", bytes.len()));
    };
    let len = u32::from_le_bytes([header[0], header[1], header[2], header[3]]) as usize;
    let crc = u32::from_le_bytes([header[4], header[5], header[6], header[7]]);
    if len > MAX_FRAME {
        return Err(format!("corrupt frame header: length {len} exceeds {MAX_FRAME}"));
    }
    let payload = body
        .get(..len)
        .ok_or_else(|| format!("torn tail: {} of {len} payload bytes present", body.len()))?;
    if crc32(payload) != crc {
        return Err("corrupt frame: CRC mismatch".to_string());
    }
    Ok((payload, FRAME_HEADER + len))
}

/// Scans `bytes` as a sequence of frames, stopping at the first torn or
/// corrupted one. Never panics on arbitrary input.
#[must_use]
pub fn scan(bytes: &[u8]) -> Recovery {
    let mut frames = Vec::new();
    let mut pos = 0usize;
    let mut damage = None;
    while pos < bytes.len() {
        match decode_frame(&bytes[pos..]) {
            Ok((payload, len)) => {
                frames.push(payload.to_vec());
                pos += len;
            }
            Err(message) => {
                damage = Some(message);
                break;
            }
        }
    }
    Recovery { frames, valid_len: pos, damage }
}

/// An open write-ahead log: a magic header line followed by CRC frames,
/// opened with its valid prefix recovered and positioned for appending.
#[derive(Debug)]
pub struct Wal {
    path: PathBuf,
    file: File,
    end: u64,
}

impl Wal {
    /// Opens (or creates) the log at `path`, expecting the given magic line.
    ///
    /// Returns the log handle, the payloads of every recovered frame and an
    /// optional warning describing tolerated damage (wrong magic → file
    /// abandoned and restarted; torn/corrupt tail → truncated back to the
    /// longest valid prefix).
    ///
    /// # Errors
    ///
    /// Only genuine I/O failures (open, read, truncate, header write); any
    /// *content* problem is tolerated and reported via the warning.
    pub fn open(path: &Path, magic: &str) -> io::Result<(Wal, Vec<Vec<u8>>, Option<String>)> {
        let mut file =
            OpenOptions::new().read(true).write(true).create(true).truncate(false).open(path)?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;

        let header = format!("{magic}\n");
        let mut warning = None;
        let (frames, end) = if bytes.is_empty() {
            file.write_all(header.as_bytes())?;
            (Vec::new(), header.len() as u64)
        } else if !bytes.starts_with(header.as_bytes()) {
            // Quote at most 64 bytes: a foreign file may be one long line.
            let first = bytes.split(|&b| b == b'\n').next().unwrap_or(&[]);
            warning = Some(format!(
                "journal {}: magic `{}` (want `{magic}`); starting a fresh journal",
                path.display(),
                String::from_utf8_lossy(&first[..first.len().min(64)]),
            ));
            file.set_len(0)?;
            file.seek(SeekFrom::Start(0))?;
            file.write_all(header.as_bytes())?;
            (Vec::new(), header.len() as u64)
        } else {
            let body = &bytes[header.len()..];
            let recovery = scan(body);
            let end = (header.len() + recovery.valid_len) as u64;
            if let Some(damage) = recovery.damage {
                warning = Some(format!(
                    "journal {}: {damage}; recovered {} records, truncating {} damaged bytes",
                    path.display(),
                    recovery.frames.len(),
                    bytes.len() as u64 - end,
                ));
                file.set_len(end)?;
            }
            (recovery.frames, end)
        };
        file.seek(SeekFrom::Start(end))?;
        let wal = Wal { path: path.to_path_buf(), file, end };
        Ok((wal, frames, warning))
    }

    /// The path this log lives at.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Bytes currently in the log, header included.
    #[must_use]
    pub fn len_bytes(&self) -> u64 {
        self.end
    }

    /// Appends one frame. The write is a single `write_all` into the page
    /// cache — durable against process death as soon as it returns.
    ///
    /// # Errors
    ///
    /// Propagates the underlying write error; the caller should treat the
    /// log as suspect afterwards (the frame may be partially on disk, which
    /// recovery handles as a torn tail).
    pub fn append(&mut self, payload: &[u8]) -> io::Result<()> {
        let frame = encode_frame(payload);
        self.file.write_all(&frame)?;
        self.end += frame.len() as u64;
        Ok(())
    }

    /// Deliberately writes only a prefix of the frame — the fault-injection
    /// hook that simulates a crash mid-append. The log file now ends in a
    /// torn record exactly as a real `kill -9` would leave it; this handle
    /// must not be appended to again (reopen to recover).
    ///
    /// # Errors
    ///
    /// Propagates the underlying write error.
    pub fn append_torn(&mut self, payload: &[u8]) -> io::Result<()> {
        let frame = encode_frame(payload);
        let torn = frame.len() / 2;
        self.file.write_all(&frame[..torn.max(1)])?;
        Ok(())
    }

    /// Moves the log's file to `path` — the last step of a compaction that
    /// wrote a fresh log beside the live one. Appends continue at the new
    /// path.
    ///
    /// # Errors
    ///
    /// Propagates the rename error.
    pub fn rename(&mut self, path: &Path) -> io::Result<()> {
        fs::rename(&self.path, path)?;
        self.path = path.to_path_buf();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard IEEE CRC-32 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn scan_roundtrips_clean_frames() {
        let mut bytes = Vec::new();
        for payload in [b"alpha".as_slice(), b"", b"gamma-longer-record"] {
            bytes.extend_from_slice(&encode_frame(payload));
        }
        let recovery = scan(&bytes);
        assert_eq!(recovery.frames.len(), 3);
        assert_eq!(recovery.valid_len, bytes.len());
        assert!(recovery.damage.is_none());
        assert_eq!(recovery.frames[0], b"alpha");
        assert_eq!(recovery.frames[2], b"gamma-longer-record");
    }

    #[test]
    fn scan_stops_at_torn_and_corrupt_tails() {
        let mut bytes = encode_frame(b"kept");
        let keep = bytes.len();
        bytes.extend_from_slice(&encode_frame(b"damaged-soon"));
        // Truncate mid-second-frame: only the first survives.
        let torn = scan(&bytes[..bytes.len() - 3]);
        assert_eq!(torn.frames, vec![b"kept".to_vec()]);
        assert_eq!(torn.valid_len, keep);
        assert!(torn.damage.is_some());
        // Flip a payload bit in the second frame: same outcome.
        let mut flipped = bytes.clone();
        let last = flipped.len() - 1;
        flipped[last] ^= 0x40;
        let recovered = scan(&flipped);
        assert_eq!(recovered.frames, vec![b"kept".to_vec()]);
        assert!(recovered.damage.unwrap().contains("CRC"));
    }

    #[test]
    fn wal_recovers_longest_prefix_and_keeps_appending() {
        let dir = std::env::temp_dir().join(format!("gam-wal-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("recover.wal");
        let _ = std::fs::remove_file(&path);

        let (mut wal, frames, warning) = Wal::open(&path, "gam-test-wal/v1").unwrap();
        assert!(frames.is_empty());
        assert!(warning.is_none());
        wal.append(b"one").unwrap();
        wal.append(b"two").unwrap();
        wal.append_torn(b"torn-by-crash").unwrap();
        drop(wal);

        let (mut wal, frames, warning) = Wal::open(&path, "gam-test-wal/v1").unwrap();
        assert_eq!(frames, vec![b"one".to_vec(), b"two".to_vec()]);
        assert!(warning.unwrap().contains("torn"));
        wal.append(b"three").unwrap();
        drop(wal);

        let (mut wal, frames, warning) = Wal::open(&path, "gam-test-wal/v1").unwrap();
        assert_eq!(frames, vec![b"one".to_vec(), b"two".to_vec(), b"three".to_vec()]);
        assert!(warning.is_none());

        // A rename moves the log; appends continue at the new path.
        let moved = dir.join("moved.wal");
        wal.rename(&moved).unwrap();
        wal.append(b"four").unwrap();
        drop(wal);
        assert!(!path.exists());
        let (_wal, frames, _) = Wal::open(&moved, "gam-test-wal/v1").unwrap();
        assert_eq!(frames.len(), 4);
        fs::rename(&moved, &path).unwrap();

        // A wrong magic abandons the content entirely.
        let (_wal, frames, warning) = Wal::open(&path, "gam-test-wal/v2").unwrap();
        assert!(frames.is_empty());
        assert!(warning.unwrap().contains("magic"));
        std::fs::remove_file(&path).ok();
    }
}
