//! Structured tracing: spans, instant events, and a Chrome trace exporter.
//!
//! Tracing is **disarmed by default**: [`span`] and [`event`] cost a single
//! relaxed atomic load and allocate nothing until [`arm`] flips the global
//! flag (the `--trace-out` CLI flag does). When armed, finished spans and
//! events land in a bounded process-wide ring buffer; once full, the oldest
//! records are dropped (and counted), so a long run can always export its
//! *recent* history without unbounded memory.
//!
//! Spans nest per thread: each thread keeps a stack of open span ids, a new
//! span's parent is the top of the stack, and every record carries a stable
//! small integer thread id. A *trace id* — one per logical operation, e.g.
//! one HTTP request or one CLI invocation — is thread-local too: the thread
//! that handles the operation installs it ([`set_trace_id`]), and every span
//! the thread records until it is cleared carries it.
//!
//! [`export_chrome`] renders the buffer in the Chrome `trace_event` JSON
//! format (an object with a `traceEvents` array of `"X"` complete events),
//! loadable in `chrome://tracing` or Perfetto. Complete events carry their
//! duration, so span begin/end are balanced by construction.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::Instant;

use crate::metrics::escape_json;

/// Default ring-buffer capacity, in records (spans + events).
pub const DEFAULT_RING_CAPACITY: usize = 65_536;

static ARMED: AtomicBool = AtomicBool::new(false);
static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_TRACE_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_THREAD_ID: AtomicU64 = AtomicU64::new(1);
static EPOCH: OnceLock<Instant> = OnceLock::new();

fn lock_tolerant<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

fn epoch() -> Instant {
    *EPOCH.get_or_init(Instant::now)
}

/// Microseconds since the process trace epoch (first use of the tracer).
#[must_use]
pub fn now_us() -> u64 {
    u64::try_from(epoch().elapsed().as_micros()).unwrap_or(u64::MAX)
}

/// Whether tracing is collecting. A single relaxed load — the entire cost
/// of every disarmed [`span`] / [`event`] call.
#[must_use]
pub fn armed() -> bool {
    ARMED.load(Ordering::Relaxed)
}

/// Starts collecting. Pins the trace epoch if this is the first use.
pub fn arm() {
    let _ = epoch();
    ARMED.store(true, Ordering::Release);
}

/// Stops collecting. Already-buffered records stay until [`clear`].
pub fn disarm() {
    ARMED.store(false, Ordering::Release);
}

/// One finished span: a named interval on one thread.
#[derive(Debug, Clone)]
pub struct SpanRecord {
    /// Span name (phase or operation).
    pub name: String,
    /// Span id, unique within the process.
    pub id: u64,
    /// Id of the enclosing span on the same thread, or 0 for a root.
    pub parent: u64,
    /// The logical-operation id this span belongs to (0 if none was set).
    pub trace_id: u64,
    /// Stable small integer id of the recording thread.
    pub tid: u64,
    /// Start, microseconds since the trace epoch.
    pub start_us: u64,
    /// Duration in microseconds.
    pub dur_us: u64,
    /// Extra key/value annotations.
    pub args: Vec<(String, String)>,
}

/// One instant event: a named point in time on one thread.
#[derive(Debug, Clone)]
pub struct EventRecord {
    /// Event name.
    pub name: String,
    /// The logical-operation id (0 if none was set).
    pub trace_id: u64,
    /// Stable small integer id of the recording thread.
    pub tid: u64,
    /// Timestamp, microseconds since the trace epoch.
    pub ts_us: u64,
    /// Extra key/value annotations.
    pub args: Vec<(String, String)>,
}

#[derive(Debug)]
enum Record {
    Span(SpanRecord),
    Event(EventRecord),
}

#[derive(Debug)]
struct Ring {
    records: VecDeque<Record>,
    capacity: usize,
    dropped: u64,
}

impl Ring {
    fn push(&mut self, record: Record) {
        if self.records.len() >= self.capacity {
            self.records.pop_front();
            self.dropped += 1;
        }
        self.records.push_back(record);
    }
}

static RING: OnceLock<Mutex<Ring>> = OnceLock::new();

fn ring() -> &'static Mutex<Ring> {
    RING.get_or_init(|| {
        Mutex::new(Ring { records: VecDeque::new(), capacity: DEFAULT_RING_CAPACITY, dropped: 0 })
    })
}

struct ThreadState {
    tid: u64,
    trace_id: u64,
    stack: Vec<u64>,
}

thread_local! {
    static THREAD: RefCell<ThreadState> = RefCell::new(ThreadState {
        tid: NEXT_THREAD_ID.fetch_add(1, Ordering::Relaxed),
        trace_id: 0,
        stack: Vec::new(),
    });
}

/// Allocates a fresh trace id (never 0).
#[must_use]
pub fn next_trace_id() -> u64 {
    // SplitMix64 over a sequence counter: ids look random (so adjacent
    // requests are visually distinct) but are deterministic per process.
    let mut z = NEXT_TRACE_ID.fetch_add(1, Ordering::Relaxed).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    let id = z ^ (z >> 31);
    if id == 0 {
        1
    } else {
        id
    }
}

/// Installs `trace_id` as the current thread's logical-operation id.
pub fn set_trace_id(trace_id: u64) {
    THREAD.with(|t| t.borrow_mut().trace_id = trace_id);
}

/// Formats a trace id the way headers and logs carry it: 16 hex digits.
#[must_use]
pub fn format_trace_id(trace_id: u64) -> String {
    format!("{trace_id:016x}")
}

/// An open span; closing (dropping) it records the interval. Disarmed spans
/// are inert no-ops.
#[derive(Debug)]
#[must_use = "dropping the span immediately records a zero-length interval"]
pub struct Span {
    open: Option<OpenSpan>,
}

#[derive(Debug)]
struct OpenSpan {
    name: String,
    id: u64,
    parent: u64,
    trace_id: u64,
    tid: u64,
    start_us: u64,
    args: Vec<(String, String)>,
}

impl Span {
    /// Annotates the span with a key/value pair (no-op when disarmed).
    pub fn arg(&mut self, key: &str, value: impl ToString) {
        if let Some(open) = &mut self.open {
            open.args.push((key.to_string(), value.to_string()));
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(open) = self.open.take() else { return };
        THREAD.with(|t| {
            let mut t = t.borrow_mut();
            // Pop this span (it is the top unless an inner span leaked; be
            // tolerant and search from the top).
            if let Some(pos) = t.stack.iter().rposition(|&id| id == open.id) {
                t.stack.truncate(pos);
            }
        });
        // End on the same monotonic clock the start came from: a child that
        // closes before its parent then always has end(child) <= end(parent)
        // in the exported integers, keeping nesting exact — timing both
        // endpoints independently would let truncation invert them by 1us.
        let dur_us = now_us().saturating_sub(open.start_us);
        lock_tolerant(ring()).push(Record::Span(SpanRecord {
            name: open.name,
            id: open.id,
            parent: open.parent,
            trace_id: open.trace_id,
            tid: open.tid,
            start_us: open.start_us,
            dur_us,
            args: open.args,
        }));
    }
}

/// Opens a span. When tracing is disarmed this is a single relaxed load and
/// the returned guard is inert.
pub fn span(name: &str) -> Span {
    if !armed() {
        return Span { open: None };
    }
    let id = NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed);
    let (parent, trace_id, tid) = THREAD.with(|t| {
        let mut t = t.borrow_mut();
        let parent = t.stack.last().copied().unwrap_or(0);
        t.stack.push(id);
        (parent, t.trace_id, t.tid)
    });
    Span {
        open: Some(OpenSpan {
            name: name.to_string(),
            id,
            parent,
            trace_id,
            tid,
            start_us: now_us(),
            args: Vec::new(),
        }),
    }
}

/// Records an instant event. Disarmed: a single relaxed load.
pub fn event(name: &str, args: &[(&str, String)]) {
    if !armed() {
        return;
    }
    let (trace_id, tid) = THREAD.with(|t| {
        let t = t.borrow();
        (t.trace_id, t.tid)
    });
    lock_tolerant(ring()).push(Record::Event(EventRecord {
        name: name.to_string(),
        trace_id,
        tid,
        ts_us: now_us(),
        args: args.iter().map(|(k, v)| ((*k).to_string(), v.clone())).collect(),
    }));
}

/// Copies the buffered span records (oldest first). For tests and progress
/// reporting; the records stay buffered.
#[must_use]
pub fn snapshot_spans() -> Vec<SpanRecord> {
    lock_tolerant(ring())
        .records
        .iter()
        .filter_map(|r| match r {
            Record::Span(s) => Some(s.clone()),
            Record::Event(_) => None,
        })
        .collect()
}

/// Copies the buffered instant events (oldest first).
#[must_use]
pub fn snapshot_events() -> Vec<EventRecord> {
    lock_tolerant(ring())
        .records
        .iter()
        .filter_map(|r| match r {
            Record::Event(e) => Some(e.clone()),
            Record::Span(_) => None,
        })
        .collect()
}

/// How many records the ring has discarded to stay within capacity.
#[must_use]
pub fn dropped_records() -> u64 {
    lock_tolerant(ring()).dropped
}

/// Empties the ring buffer and resets the drop counter.
pub fn clear() {
    let mut ring = lock_tolerant(ring());
    ring.records.clear();
    ring.dropped = 0;
}

fn push_args_json(out: &mut String, trace_id: u64, extra: &[(String, String)]) {
    out.push_str("\"args\":{");
    out.push_str(&format!("\"trace_id\":\"{}\"", format_trace_id(trace_id)));
    for (k, v) in extra {
        out.push_str(&format!(",\"{}\":\"{}\"", escape_json(k), escape_json(v)));
    }
    out.push('}');
}

/// Renders the buffered records as Chrome `trace_event` JSON — an object
/// with a `traceEvents` array of complete (`"X"`) and instant (`"i"`)
/// events, loadable in `chrome://tracing` / Perfetto. The buffer is left
/// intact; pair with [`clear`] when exporting once at process exit.
#[must_use]
pub fn export_chrome() -> String {
    let ring = lock_tolerant(ring());
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    let mut first = true;
    for record in &ring.records {
        if !first {
            out.push(',');
        }
        first = false;
        match record {
            Record::Span(s) => {
                out.push_str(&format!(
                    "{{\"name\":\"{}\",\"cat\":\"gam\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\
                     \"ts\":{},\"dur\":{},\"id\":{},",
                    escape_json(&s.name),
                    s.tid,
                    s.start_us,
                    s.dur_us,
                    s.id
                ));
                let mut args = s.args.clone();
                if s.parent != 0 {
                    args.push(("parent".to_string(), s.parent.to_string()));
                }
                push_args_json(&mut out, s.trace_id, &args);
                out.push('}');
            }
            Record::Event(e) => {
                out.push_str(&format!(
                    "{{\"name\":\"{}\",\"cat\":\"gam\",\"ph\":\"i\",\"s\":\"t\",\"pid\":1,\
                     \"tid\":{},\"ts\":{},",
                    escape_json(&e.name),
                    e.tid,
                    e.ts_us
                ));
                push_args_json(&mut out, e.trace_id, &e.args);
                out.push('}');
            }
        }
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serializes tests that arm the process-global tracer.
    fn exclusive() -> MutexGuard<'static, ()> {
        static GUARD: Mutex<()> = Mutex::new(());
        GUARD.lock().unwrap_or_else(PoisonError::into_inner)
    }

    #[test]
    fn disarmed_spans_and_events_record_nothing() {
        let _guard = exclusive();
        disarm();
        clear();
        let mut s = span("noop");
        s.arg("k", "v");
        drop(s);
        event("noop", &[]);
        assert!(snapshot_spans().is_empty());
        assert!(snapshot_events().is_empty());
    }

    #[test]
    fn spans_nest_and_carry_trace_ids() {
        let _guard = exclusive();
        arm();
        clear();
        let trace = next_trace_id();
        set_trace_id(trace);
        {
            let _outer = span("outer");
            {
                let mut inner = span("inner");
                inner.arg("states", 42);
            }
        }
        event("tick", &[("n", "1".to_string())]);
        disarm();
        let spans = snapshot_spans();
        set_trace_id(0);
        assert_eq!(spans.len(), 2);
        // Inner closes first.
        assert_eq!(spans[0].name, "inner");
        assert_eq!(spans[1].name, "outer");
        assert_eq!(spans[0].parent, spans[1].id);
        assert_eq!(spans[1].parent, 0);
        assert!(spans.iter().all(|s| s.trace_id == trace));
        assert_eq!(spans[0].args, vec![("states".to_string(), "42".to_string())]);
        let events = snapshot_events();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].trace_id, trace);
        clear();
    }

    #[test]
    fn chrome_export_is_wellformed_and_balanced() {
        let _guard = exclusive();
        arm();
        clear();
        {
            let _a = span("a");
            let _b = span("b");
        }
        disarm();
        let json = export_chrome();
        clear();
        assert!(json.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["));
        assert!(json.ends_with("]}"));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"name\":\"a\""));
        assert!(json.contains("\"name\":\"b\""));
        // Complete events carry durations, so begin/end are balanced by
        // construction; check the b span names a's id as parent.
        assert!(json.contains("\"parent\":"));
    }

    #[test]
    fn ring_drops_oldest_beyond_capacity() {
        let _guard = exclusive();
        arm();
        clear();
        // Temporarily shrink is not exposed; emit a handful and check FIFO
        // order instead (capacity is large).
        for i in 0..5 {
            event(&format!("e{i}"), &[]);
        }
        disarm();
        let events = snapshot_events();
        clear();
        let names: Vec<&str> = events.iter().map(|e| e.name.as_str()).collect();
        assert_eq!(names, vec!["e0", "e1", "e2", "e3", "e4"]);
        assert_eq!(dropped_records(), 0);
    }

    #[test]
    fn trace_ids_are_nonzero_and_distinct() {
        let a = next_trace_id();
        let b = next_trace_id();
        assert_ne!(a, 0);
        assert_ne!(b, 0);
        assert_ne!(a, b);
        assert_eq!(format_trace_id(0x1234).len(), 16);
    }
}
