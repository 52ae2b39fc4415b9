//! Cold-state spill segments: disk storage for arena id rows under memory
//! pressure.
//!
//! When an exploration crosses its memory budget's soft watermark, the
//! component arena moves its *oldest* id rows — the flat `u32` rows of
//! component ids that back the visited set — into CRC-framed segment files
//! and keeps only the hot tail resident. The distinct components themselves
//! stay in RAM (they are shared across states, so their footprint is
//! sub-linear), and the hash index keeps covering every slot, so spilled
//! states still deduplicate. Every revisit of a spilled state re-reads its
//! cold row (the index holds hashes, not rows), as does the expansion of a
//! spilled frontier entry, so a read costs one small block, not a segment.
//!
//! ## Segment file format
//!
//! ```text
//! gam-spill/v2\n
//! [len: u32 LE][crc32: u32 LE][payload: BLOCK_ROWS × stride u32 LE words]   # block 0
//! [len: u32 LE][crc32: u32 LE][payload: ...]                                # block 1
//! ...
//! ```
//!
//! Each block is one frame of the self-validating [`gam_core::wal`] framing
//! holding `max(1, 1024 / stride)` rows (at most 4 KiB of payload); only a
//! segment's last block may hold fewer. Blocks have a fixed size, so a row's
//! frame offset is arithmetic: a cold-row read is one positioned read of
//! one frame, its length and CRC checked, and only that block decoded. A
//! torn or bit-flipped block is *detected*, never silently misread.
//!
//! The store keeps the last-used segment file open and the last-decoded
//! block in memory. The fault points `spill.write` (fires before a segment
//! lands on disk, simulating a crash mid-write) and `spill.read` (fires
//! before each block reload) let the robustness tests drive both failure
//! directions; on either failure the explorer degrades — it stops spilling,
//! or reports a memory-budget inconclusive with sound partial outcomes —
//! rather than panicking or mis-deduplicating.
//!
//! Segment names carry the process id and a store number, so explorations
//! running concurrently in one spill directory never read each other's
//! files. A dropped store hands its number to the next store of the
//! process, which overwrites the old files instead of piling up new ones.
//! Segments live only as long as their exploration: a run resumed from a
//! run checkpoint restarts its unfinished (model, backend) unit from
//! scratch and never reads an earlier incarnation's segments.

use std::collections::BTreeSet;
use std::fmt;
use std::fs::File;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use gam_core::{fault, wal};

/// Magic first line of every segment file, newline included.
const SPILL_HEADER: &[u8; 13] = b"gam-spill/v2\n";

/// Payload words per block frame (4 KiB); a block holds whole rows.
const BLOCK_WORDS: usize = 1024;

/// Store numbers held by the live stores of this process.
static LIVE_STORES: Mutex<BTreeSet<usize>> = Mutex::new(BTreeSet::new());

/// A spill-layer failure: an I/O error, a damaged segment, or an injected
/// fault. The explorer never propagates this as a panic — it either disables
/// spilling (write side) or degrades the run to a memory-budget inconclusive
/// (read side, since a lost segment means the visited set is no longer
/// consultable).
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct SpillError {
    /// What went wrong, for the trace stream.
    pub(crate) message: String,
}

impl SpillError {
    fn new(message: impl Into<String>) -> Self {
        SpillError { message: message.into() }
    }
}

impl fmt::Display for SpillError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

/// One on-disk segment: `rows` id rows starting at global row `start_row`.
#[derive(Debug)]
struct Segment {
    /// File name within the spill directory.
    name: String,
    start_row: usize,
    rows: usize,
}

/// The spill directory of one exploration: writes cold row segments and
/// reloads their rows one block at a time.
#[derive(Debug)]
pub(crate) struct SpillStore {
    dir: PathBuf,
    stride: usize,
    /// Rows per block frame: `max(1, BLOCK_WORDS / stride)`.
    block_rows: usize,
    /// This store's number in [`LIVE_STORES`], part of every segment name.
    number: usize,
    segments: Vec<Segment>,
    total_rows: usize,
    /// The last-used segment file (ordinal in `segments`).
    file: Option<(usize, File)>,
    /// The last-decoded block (segment ordinal, block index) and its words.
    block: Option<(usize, usize)>,
    words: Vec<u32>,
    /// Read buffer of one frame.
    frame: Vec<u8>,
    /// Frame bytes read back so far.
    read_bytes: usize,
}

impl SpillStore {
    /// Opens a spill store rooted at `dir`, creating the directory.
    pub(crate) fn new(dir: &Path, stride: usize) -> Result<Self, SpillError> {
        std::fs::create_dir_all(dir)
            .map_err(|err| SpillError::new(format!("spill dir {}: {err}", dir.display())))?;
        let number = {
            let mut live = LIVE_STORES.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
            let number = (0..).find(|number| !live.contains(number)).expect("a free number");
            live.insert(number);
            number
        };
        Ok(SpillStore {
            dir: dir.to_path_buf(),
            stride,
            block_rows: (BLOCK_WORDS / stride).max(1),
            number,
            segments: Vec::new(),
            total_rows: 0,
            file: None,
            block: None,
            words: Vec::new(),
            frame: Vec::new(),
            read_bytes: 0,
        })
    }

    /// Rows across all segments.
    pub(crate) fn rows(&self) -> usize {
        self.total_rows
    }

    /// Number of segment files.
    pub(crate) fn segment_count(&self) -> usize {
        self.segments.len()
    }

    /// Frame bytes read back from disk so far.
    pub(crate) fn read_bytes(&self) -> usize {
        self.read_bytes
    }

    /// Payload bytes of one full block.
    fn block_bytes(&self) -> usize {
        self.block_rows * self.stride * 4
    }

    /// Writes `words` (a whole number of rows) as the next segment.
    ///
    /// The `spill.write` fault point fires before the write completes; a
    /// `kill` action leaves a torn file behind — exactly what a crash
    /// mid-write would — and reports failure, so the caller keeps the rows
    /// resident and disables further spilling.
    pub(crate) fn write_segment(&mut self, words: &[u32]) -> Result<(), SpillError> {
        debug_assert_eq!(words.len() % self.stride, 0, "segments hold whole rows");
        let rows = words.len() / self.stride;
        let name =
            format!("seg-{}-{}-{:05}.gsp", std::process::id(), self.number, self.segments.len());
        let path = self.dir.join(&name);
        let blocks = rows.div_ceil(self.block_rows);
        let mut bytes =
            Vec::with_capacity(SPILL_HEADER.len() + blocks * wal::FRAME_HEADER + words.len() * 4);
        bytes.extend_from_slice(SPILL_HEADER);
        let mut payload = Vec::with_capacity(self.block_bytes());
        for block in words.chunks(self.block_rows * self.stride) {
            payload.clear();
            for &word in block {
                payload.extend_from_slice(&word.to_le_bytes());
            }
            bytes.extend_from_slice(&wal::encode_frame(&payload));
        }
        let write = |bytes: &[u8]| File::create(&path)?.write_all(bytes);
        if fault::hit("spill.write") {
            // Simulated crash mid-write: a torn segment file (header line
            // plus part of the blocks) is left on disk, and the write fails.
            let _ = write(&bytes[..(bytes.len() / 2).max(1)]);
            return Err(SpillError::new(format!("injected fault at spill.write ({name})")));
        }
        write(&bytes)
            .map_err(|err| SpillError::new(format!("spill segment {}: {err}", path.display())))?;
        self.segments.push(Segment { name, start_row: self.total_rows, rows });
        self.total_rows += rows;
        Ok(())
    }

    /// Copies the id row at global row index `row` into `out` (cleared
    /// first). `row` must be below [`SpillStore::rows`].
    pub(crate) fn read_row(&mut self, row: usize, out: &mut Vec<u32>) -> Result<(), SpillError> {
        let ordinal = self.segments.partition_point(|seg| seg.start_row + seg.rows <= row);
        let seg = self
            .segments
            .get(ordinal)
            .ok_or_else(|| SpillError::new(format!("row {row} is not in any spill segment")))?;
        let offset = row - seg.start_row;
        let block = offset / self.block_rows;
        if self.block != Some((ordinal, block)) {
            self.load_block(ordinal, block)?;
        }
        let start = (offset % self.block_rows) * self.stride;
        out.clear();
        out.extend_from_slice(&self.words[start..start + self.stride]);
        Ok(())
    }

    /// Reads, validates and decodes block `block` of segment `ordinal`.
    fn load_block(&mut self, ordinal: usize, block: usize) -> Result<(), SpillError> {
        self.block = None;
        let seg = &self.segments[ordinal];
        let damaged = |what: String| {
            SpillError::new(format!("spill segment {} block {block}: {what}", seg.name))
        };
        if fault::hit("spill.read") {
            return Err(damaged("injected fault at spill.read".to_string()));
        }
        if !matches!(&self.file, Some((held, _)) if *held == ordinal) {
            self.file = None;
            let file =
                File::open(self.dir.join(&seg.name)).map_err(|err| damaged(err.to_string()))?;
            let mut header = [0u8; SPILL_HEADER.len()];
            read_exact_at(&file, &mut header, 0).map_err(|err| damaged(err.to_string()))?;
            if header != *SPILL_HEADER {
                return Err(damaged("bad magic (want `gam-spill/v2`)".to_string()));
            }
            self.file = Some((ordinal, file));
        }
        let (_, file) = self.file.as_ref().expect("segment file was just opened");
        let rows = self.block_rows.min(seg.rows - block * self.block_rows);
        let payload_len = rows * self.stride * 4;
        let offset = SPILL_HEADER.len() + block * (wal::FRAME_HEADER + self.block_bytes());
        self.frame.resize(wal::FRAME_HEADER + payload_len, 0);
        read_exact_at(file, &mut self.frame, offset as u64)
            .map_err(|err| damaged(format!("torn block: {err}")))?;
        let (payload, _) = wal::decode_frame(&self.frame).map_err(damaged)?;
        if payload.len() != payload_len {
            return Err(damaged(format!("{} bytes, expected {payload_len}", payload.len())));
        }
        self.words.clear();
        self.words.extend(
            payload
                .chunks_exact(4)
                .map(|chunk| u32::from_le_bytes(chunk.try_into().expect("exact chunks"))),
        );
        self.read_bytes += self.frame.len();
        self.block = Some((ordinal, block));
        Ok(())
    }
}

impl Drop for SpillStore {
    fn drop(&mut self) {
        LIVE_STORES.lock().unwrap_or_else(std::sync::PoisonError::into_inner).remove(&self.number);
    }
}

/// Fills `buf` from `file` at byte `offset`.
#[cfg(unix)]
fn read_exact_at(file: &File, buf: &mut [u8], offset: u64) -> std::io::Result<()> {
    std::os::unix::fs::FileExt::read_exact_at(file, buf, offset)
}

/// Fills `buf` from `file` at byte `offset`.
#[cfg(not(unix))]
fn read_exact_at(mut file: &File, buf: &mut [u8], offset: u64) -> std::io::Result<()> {
    use std::io::{Read, Seek, SeekFrom};
    file.seek(SeekFrom::Start(offset))?;
    file.read_exact(buf)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A fresh directory for one test, and the fault-plan guard: a plan is
    /// process-wide, so a test that spills must not run beside one that
    /// injects spill faults.
    fn temp_dir(tag: &str) -> (std::sync::MutexGuard<'static, ()>, PathBuf) {
        let guard = fault::exclusive();
        let dir = std::env::temp_dir().join(format!("gam-spill-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        (guard, dir)
    }

    /// Rows `0..rows` of width `stride` whose words name their row and column.
    fn numbered_rows(rows: usize, stride: usize) -> Vec<u32> {
        (0..rows * stride).map(|word| (word / stride * 100 + word % stride) as u32).collect()
    }

    /// Reads row `row` of `store`, expecting [`numbered_rows`] content.
    fn expect_numbered(store: &mut SpillStore, row: usize) -> Result<(), SpillError> {
        let mut out = Vec::new();
        store.read_row(row, &mut out)?;
        let stride = store.stride;
        assert_eq!(out, numbered_rows(row + 1, stride)[row * stride..], "row {row}");
        Ok(())
    }

    fn segment_path(store: &SpillStore, ordinal: usize) -> PathBuf {
        store.dir.join(&store.segments[ordinal].name)
    }

    #[test]
    fn segments_round_trip_rows() {
        let (_guard, dir) = temp_dir("roundtrip");
        let mut store = SpillStore::new(&dir, 3).unwrap();
        store.write_segment(&[1, 2, 3, 4, 5, 6]).unwrap();
        store.write_segment(&[7, 8, 9]).unwrap();
        assert_eq!(store.rows(), 3);
        assert_eq!(store.segment_count(), 2);
        let mut row = Vec::new();
        store.read_row(0, &mut row).unwrap();
        assert_eq!(row, [1, 2, 3]);
        store.read_row(2, &mut row).unwrap();
        assert_eq!(row, [7, 8, 9]);
        store.read_row(1, &mut row).unwrap();
        assert_eq!(row, [4, 5, 6]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rows_round_trip_across_block_edges() {
        let (_guard, dir) = temp_dir("edges");
        for stride in 1..=5 {
            let mut store = SpillStore::new(&dir, stride).unwrap();
            let block_rows = store.block_rows;
            assert_eq!(block_rows, 1024 / stride);
            // One segment of two full blocks plus one row, one of one row.
            let rows = 2 * block_rows + 1;
            let words = numbered_rows(rows + 1, stride);
            store.write_segment(&words[..rows * stride]).unwrap();
            store.write_segment(&words[rows * stride..]).unwrap();
            let len = std::fs::metadata(segment_path(&store, 0)).unwrap().len() as usize;
            assert_eq!(len, SPILL_HEADER.len() + 3 * wal::FRAME_HEADER + rows * stride * 4);
            let edges = [0, block_rows - 1, block_rows, 2 * block_rows - 1, 2 * block_rows, rows];
            for row in edges.into_iter().chain([1, rows, 0, 2 * block_rows]) {
                expect_numbered(&mut store, row).unwrap();
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_segments_are_detected_not_misread() {
        let (_guard, dir) = temp_dir("corrupt");
        let mut store = SpillStore::new(&dir, 2).unwrap();
        store.write_segment(&[10, 11, 12, 13]).unwrap();
        let path = segment_path(&store, 0);
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        let mut row = Vec::new();
        let err = store.read_row(0, &mut row).unwrap_err();
        assert!(err.message.contains("CRC"), "got {err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_flipped_byte_fails_only_the_rows_of_its_block() {
        let (_guard, dir) = temp_dir("flip");
        let stride = 4;
        let mut store = SpillStore::new(&dir, stride).unwrap();
        let block_rows = store.block_rows;
        let rows = 3 * block_rows;
        store.write_segment(&numbered_rows(rows, stride)).unwrap();
        // Flip one payload byte in the middle of block 1.
        let path = segment_path(&store, 0);
        let mut bytes = std::fs::read(&path).unwrap();
        let frame = wal::FRAME_HEADER + store.block_bytes();
        bytes[SPILL_HEADER.len() + frame + frame / 2] ^= 0x10;
        std::fs::write(&path, &bytes).unwrap();
        for row in [0, block_rows - 1, 2 * block_rows, rows - 1] {
            expect_numbered(&mut store, row).unwrap();
        }
        for row in [block_rows, block_rows + block_rows / 2, 2 * block_rows - 1] {
            let err = expect_numbered(&mut store, row).unwrap_err();
            assert!(err.message.contains("block 1") && err.message.contains("CRC"), "got {err}");
        }
        // The good blocks stay readable after a failed one.
        expect_numbered(&mut store, 0).unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_truncated_last_block_is_detected() {
        let (_guard, dir) = temp_dir("truncated");
        let stride = 3;
        let mut store = SpillStore::new(&dir, stride).unwrap();
        let rows = store.block_rows + 5;
        store.write_segment(&numbered_rows(rows, stride)).unwrap();
        let path = segment_path(&store, 0);
        let len = std::fs::metadata(&path).unwrap().len();
        std::fs::OpenOptions::new().write(true).open(&path).unwrap().set_len(len - 4).unwrap();
        expect_numbered(&mut store, 0).unwrap();
        let err = expect_numbered(&mut store, rows - 1).unwrap_err();
        assert!(err.message.contains("block 1") && err.message.contains("torn"), "got {err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_v1_segment_fails_the_magic_check() {
        let (_guard, dir) = temp_dir("v1");
        let mut store = SpillStore::new(&dir, 2).unwrap();
        store.write_segment(&[1, 2]).unwrap();
        // Overwrite the store's own segment with the v1 layout: one frame
        // holding the whole segment.
        let payload: Vec<u8> = [1u32, 2].iter().flat_map(|word| word.to_le_bytes()).collect();
        let mut bytes = b"gam-spill/v1\n".to_vec();
        bytes.extend_from_slice(&wal::encode_frame(&payload));
        std::fs::write(segment_path(&store, 0), &bytes).unwrap();
        let err = store.read_row(0, &mut Vec::new()).unwrap_err();
        assert!(err.message.contains("bad magic"), "got {err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stores_sharing_a_dir_read_only_their_own_rows() {
        let (_guard, dir) = temp_dir("shared");
        let mut a = SpillStore::new(&dir, 2).unwrap();
        let mut b = SpillStore::new(&dir, 2).unwrap();
        a.write_segment(&[1, 1]).unwrap();
        b.write_segment(&[9, 9]).unwrap();
        let mut row = Vec::new();
        a.read_row(0, &mut row).unwrap();
        assert_eq!(row, [1, 1], "store A read {row:?}");
        b.read_row(0, &mut row).unwrap();
        assert_eq!(row, [9, 9], "store B read {row:?}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn spill_read_fires_once_per_block_reload() {
        let (_guard, dir) = temp_dir("fault-read");
        let mut store = SpillStore::new(&dir, 4).unwrap();
        let block_rows = store.block_rows;
        store.write_segment(&numbered_rows(2 * block_rows, 4)).unwrap();
        fault::install("spill.read=kill@2").unwrap();
        // Hit 1 loads block 0; the second row of block 0 is served from memory.
        expect_numbered(&mut store, 0).unwrap();
        expect_numbered(&mut store, 1).unwrap();
        // Hit 2 fires on the reload of block 1; hit 3 loads it.
        let err = expect_numbered(&mut store, block_rows).unwrap_err();
        assert!(err.message.contains("spill.read"), "got {err}");
        expect_numbered(&mut store, block_rows).unwrap();
        fault::reset();
        let frame = wal::FRAME_HEADER + store.block_bytes();
        assert_eq!(store.read_bytes(), 2 * frame, "two blocks read back");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn injected_write_fault_leaves_a_torn_file_and_fails() {
        let (_guard, dir) = temp_dir("fault-write");
        fault::install("spill.write=kill").unwrap();
        let mut store = SpillStore::new(&dir, 2).unwrap();
        let err = store.write_segment(&[1, 2]).unwrap_err();
        assert!(err.message.contains("spill.write"));
        assert_eq!(store.segment_count(), 0, "failed segment is not recorded");
        fault::reset();
        // The torn file exists but is never referenced; a fresh write with
        // the same index simply overwrites it.
        store.write_segment(&[3, 4]).unwrap();
        let mut row = Vec::new();
        store.read_row(0, &mut row).unwrap();
        assert_eq!(row, [3, 4]);
        std::fs::remove_dir_all(&dir).ok();
    }
}
