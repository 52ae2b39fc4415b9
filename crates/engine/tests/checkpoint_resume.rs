//! The run checkpoint's crash contract: everything `record` returned `Ok`
//! for is visible after reopening, damage only ever costs the torn tail
//! (or, for a record that does not parse, that record and the ones after
//! it, but never a unit recorded after the reopen), a record whose row does
//! not parse is never replayed, and duplicate keys resolve
//! last-writer-wins.

use std::fs;
use std::path::PathBuf;

use gam_core::{fault, wal, ModelKind};
use gam_engine::{Backend, ResultRow, RowAnswer, RunCheckpoint, Verdict};

struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Self {
        let mut path = std::env::temp_dir();
        path.push(format!("gam-checkpoint-{}-{tag}.log", std::process::id()));
        let _ = fs::remove_file(&path);
        Scratch(path)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = fs::remove_file(&self.0);
        let mut tmp = self.0.clone().into_os_string();
        tmp.push(".tmp");
        let _ = fs::remove_file(tmp);
    }
}

/// A completed unit's row, told apart by its state count.
fn unit(states: u64) -> ResultRow {
    ResultRow {
        model: ModelKind::Gam,
        backend: Backend::Operational,
        answer: RowAnswer::Verdict(Verdict::Allowed),
        states,
        wall_us: 5,
    }
}

#[test]
fn recorded_units_survive_reopen_and_duplicates_take_the_last_writer() {
    // Fault plans are process-wide: no `checkpoint.write` kill may land here.
    let _guard = fault::exclusive();
    let scratch = Scratch::new("roundtrip");
    let (mut checkpoint, warning) = RunCheckpoint::open(&scratch.0).expect("open fresh");
    assert!(warning.is_none());
    assert!(checkpoint.is_empty());
    assert_eq!(checkpoint.len(), 0);

    checkpoint.record("bench/GAM/mp/abc", &unit(10)).expect("record");
    checkpoint.record("bench/GAM/sb/abc", &unit(20)).expect("record");
    // Re-recording a key (a resumed run finishing the interrupted unit
    // again) overwrites: last writer wins on replay.
    checkpoint.record("bench/GAM/mp/abc", &unit(11)).expect("record");
    assert_eq!(checkpoint.len(), 2);
    drop(checkpoint);

    let (reopened, warning) = RunCheckpoint::open(&scratch.0).expect("reopen");
    assert!(warning.is_none());
    assert_eq!(reopened.len(), 2);
    assert_eq!(
        reopened.completed("bench/GAM/mp/abc"),
        Some(&unit(11)),
        "duplicate key must resolve to the later record"
    );
    assert_eq!(reopened.completed("bench/GAM/sb/abc"), Some(&unit(20)));
    assert!(reopened.completed("bench/GAM/mp/DIFFERENT-HASH").is_none());
}

#[test]
fn a_torn_tail_costs_only_the_record_being_written() {
    let _guard = fault::exclusive();
    let scratch = Scratch::new("torn");
    let (mut checkpoint, _) = RunCheckpoint::open(&scratch.0).expect("open");
    checkpoint.record("unit/1", &unit(1)).expect("record");
    checkpoint.record("unit/2", &unit(2)).expect("record");
    drop(checkpoint);

    // Simulate a crash mid-append: garbage where the third record's frame
    // would start.
    let mut bytes = fs::read(&scratch.0).expect("checkpoint bytes");
    bytes.extend_from_slice(&[0x2A, 0x00, 0x00]);
    fs::write(&scratch.0, &bytes).expect("write damaged");

    let (recovered, warning) = RunCheckpoint::open(&scratch.0).expect("damage is not an error");
    assert_eq!(recovered.len(), 2, "the committed prefix survives");
    assert!(recovered.completed("unit/1").is_some());
    assert!(recovered.completed("unit/2").is_some());
    assert!(warning.expect("damage is reported").contains("torn"));
}

#[test]
fn checkpoint_write_kill_errs_but_keeps_in_memory_progress() {
    let _guard = fault::exclusive();
    let scratch = Scratch::new("fault");
    let (mut checkpoint, _) = RunCheckpoint::open(&scratch.0).expect("open");
    checkpoint.record("unit/1", &unit(1)).expect("record");

    fault::install("checkpoint.write=kill").expect("valid plan");
    let err = checkpoint.record("unit/2", &unit(2)).expect_err("injected kill surfaces");
    assert_eq!(err.kind(), std::io::ErrorKind::Interrupted);
    fault::reset();
    // The running process keeps its own progress even though durability for
    // that unit was lost...
    assert_eq!(checkpoint.len(), 2);
    drop(checkpoint);

    // ...and a restart sees the committed record plus a genuinely torn tail
    // where the killed append stopped.
    let (recovered, warning) = RunCheckpoint::open(&scratch.0).expect("reopen");
    assert_eq!(recovered.len(), 1);
    assert!(recovered.completed("unit/1").is_some());
    assert!(recovered.completed("unit/2").is_none());
    assert!(warning.expect("torn tail is reported").contains("torn"));
}

#[test]
fn a_foreign_file_is_abandoned_not_trusted() {
    let scratch = Scratch::new("magic");
    fs::write(&scratch.0, "some-other-format/v9\npayload\n").expect("write foreign file");
    let (checkpoint, warning) = RunCheckpoint::open(&scratch.0).expect("open");
    assert!(checkpoint.is_empty(), "foreign content must not masquerade as completed units");
    assert!(warning.expect("abandonment is reported").contains("magic"));
}

#[test]
fn units_recorded_after_an_unparseable_record_survive_the_next_resume() {
    let _guard = fault::exclusive();
    let scratch = Scratch::new("unparseable");
    let (mut checkpoint, _) = RunCheckpoint::open(&scratch.0).expect("open");
    checkpoint.record("unit/a", &unit(1)).expect("record");
    drop(checkpoint);
    // A frame that passes its checksum but is no record stops the replay.
    let mut bytes = fs::read(&scratch.0).expect("checkpoint bytes");
    bytes.extend_from_slice(&wal::encode_frame(br#"{"op":"bogus"}"#));
    fs::write(&scratch.0, &bytes).expect("append the bogus frame");

    let (mut checkpoint, warning) = RunCheckpoint::open(&scratch.0).expect("reopen");
    assert!(warning.expect("the bad record is reported").contains("unparseable"));
    assert_eq!(checkpoint.len(), 1);
    checkpoint.record("unit/b", &unit(2)).expect("record");
    drop(checkpoint);

    // The unit recorded after the bad frame is not lost behind it.
    let (resumed, warning) = RunCheckpoint::open(&scratch.0).expect("reopen");
    assert!(warning.is_none(), "the bad frame was rewritten away: {warning:?}");
    assert!(resumed.completed("unit/a").is_some());
    assert!(resumed.completed("unit/b").is_some(), "unit/b must be completed");
    assert_eq!(resumed.len(), 2);
}

#[test]
fn a_record_whose_row_does_not_parse_is_recomputed_not_replayed() {
    let _guard = fault::exclusive();
    let scratch = Scratch::new("bad-row");
    let (mut checkpoint, _) = RunCheckpoint::open(&scratch.0).expect("open");
    checkpoint.record("unit/a", &unit(1)).expect("record");
    drop(checkpoint);
    // CRC-valid and well-formed JSON with a key, but its row is one of the
    // former schema (`states_visited`, no `states`).
    let mut bytes = fs::read(&scratch.0).expect("checkpoint bytes");
    let record = br#"{"key":"unit/b","result":{"model":"GAM","backend":"operational","verdict":"allowed","states_visited":3,"wall_us":5}}"#;
    bytes.extend_from_slice(&wal::encode_frame(record));
    fs::write(&scratch.0, &bytes).expect("append the record");

    let (checkpoint, warning) = RunCheckpoint::open(&scratch.0).expect("reopen");
    assert!(warning.expect("the bad record is reported").contains("unparseable"));
    assert_eq!(checkpoint.completed("unit/a"), Some(&unit(1)));
    assert_eq!(checkpoint.completed("unit/b"), None, "its unit must be recomputed");
    assert_eq!(checkpoint.len(), 1);
}

#[test]
fn a_checkpoint_of_the_former_schema_starts_cold() {
    let scratch = Scratch::new("v1");
    let record = br#"{"key":"unit/a","result":{"verdict":"allowed"}}"#;
    let mut bytes = b"gam-checkpoint/v1\n".to_vec();
    bytes.extend_from_slice(&wal::encode_frame(record));
    fs::write(&scratch.0, &bytes).expect("write a v1 checkpoint");
    let (checkpoint, warning) = RunCheckpoint::open(&scratch.0).expect("open");
    assert!(checkpoint.is_empty(), "a v1 record must not be replayed");
    assert!(warning.expect("the wrong magic is reported").contains("magic"));
}
