//! Spans recorded by the benchmark around each call into a layer.
//!
//! A span has a name, a start, an end, a parent and the id of the check or
//! request it belongs to. Spans stay in memory while the run lasts and are
//! written out as JSON lines at the end. Self time is a span's duration minus
//! the part its children cover.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One finished span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer call, e.g. `frontend.parse`; roots are `check` or `request`.
    pub name: &'static str,
    /// Start, relative to the tracer's epoch.
    pub start: Duration,
    /// End, relative to the tracer's epoch.
    pub end: Duration,
    /// Index of the parent span in [`Tracer::spans`], if any.
    pub parent: Option<usize>,
    /// The check or request the span belongs to.
    pub id: usize,
}

impl Span {
    /// The span's duration.
    #[must_use]
    pub fn duration(&self) -> Duration {
        self.end.saturating_sub(self.start)
    }
}

/// An in-memory span recorder; disabled tracers record nothing.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A tracer that records when `enabled`.
    #[must_use]
    pub fn new(enabled: bool) -> Tracer {
        Tracer { enabled, epoch: Instant::now(), spans: Mutex::new(Vec::new()) }
    }

    /// Opens a span (a root span without `parent`) and returns its index;
    /// `None` when disabled.
    #[must_use]
    pub fn open(&self, name: &'static str, parent: Option<usize>, id: usize) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let start = self.epoch.elapsed();
        let mut spans = self.spans.lock().expect("span list lock poisoned by a panic");
        spans.push(Span { name, start, end: start, parent, id });
        Some(spans.len() - 1)
    }

    /// Closes a span opened by [`Tracer::open`].
    pub fn close(&self, span: Option<usize>) {
        if let Some(index) = span {
            let end = self.epoch.elapsed();
            self.spans.lock().expect("span list lock poisoned by a panic")[index].end = end;
        }
    }

    /// Runs `f` inside a span named `name` under `parent`.
    pub fn call<T>(
        &self,
        name: &'static str,
        parent: Option<usize>,
        id: usize,
        f: impl FnOnce() -> T,
    ) -> T {
        let span = self.open(name, parent, id);
        let result = f();
        self.close(span);
        result
    }

    /// A copy of every span recorded so far.
    #[must_use]
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span list lock poisoned by a panic").clone()
    }

    /// Writes every span as one JSON line.
    ///
    /// # Errors
    ///
    /// Propagates file errors.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for span in self.spans() {
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"name\":\"{}\",\"id\":{},\"parent\":{parent},\"start_us\":{},\"end_us\":{}}}",
                span.name,
                span.id,
                span.start.as_micros(),
                span.end.as_micros()
            )?;
        }
        out.flush()
    }
}

/// Per-name totals over a span list.
#[derive(Debug, Default)]
pub struct Profile {
    /// Self times of each span, per name.
    pub samples: BTreeMap<&'static str, Vec<Duration>>,
    /// Summed duration of the root spans.
    pub root_time: Duration,
    /// Summed self time of the root spans: time inside a check or request
    /// that no layer span covers.
    pub unattributed: Duration,
}

impl Profile {
    /// Computes self times. Children of one parent run one after another, so
    /// the part of a parent they cover is the sum of their durations.
    #[must_use]
    pub fn of(spans: &[Span]) -> Profile {
        let mut covered = vec![Duration::ZERO; spans.len()];
        for span in spans {
            if let Some(parent) = span.parent {
                covered[parent] += span.duration();
            }
        }
        let mut profile = Profile::default();
        for (span, covered) in spans.iter().zip(covered) {
            let own = span.duration().saturating_sub(covered);
            profile.samples.entry(span.name).or_default().push(own);
            if span.parent.is_none() {
                profile.root_time += span.duration();
                profile.unattributed += own;
            }
        }
        profile
    }

    /// Summed self time of `name`, in seconds.
    #[must_use]
    pub fn busy_s(&self, name: &str) -> f64 {
        self.samples.get(name).map_or(0.0, |samples| samples.iter().sum::<Duration>().as_secs_f64())
    }

    /// Mean self time of one `name` span, in microseconds.
    #[must_use]
    pub fn mean_us(&self, name: &str) -> f64 {
        self.samples.get(name).map_or(0.0, |samples| {
            crate::stats::mean(&samples.iter().map(|d| crate::stats::us(*d)).collect::<Vec<_>>())
        })
    }

    /// Share of root-span time that no layer span covers.
    #[must_use]
    pub fn unattributed_share(&self) -> f64 {
        crate::stats::share(self.unattributed.as_secs_f64(), self.root_time.as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let ms = Duration::from_millis;
        let spans = vec![
            Span { name: "check", start: ms(0), end: ms(10), parent: None, id: 0 },
            Span { name: "frontend.parse", start: ms(1), end: ms(3), parent: Some(0), id: 0 },
            Span { name: "engine.check", start: ms(3), end: ms(9), parent: Some(0), id: 0 },
        ];
        let profile = Profile::of(&spans);
        assert_eq!(profile.samples["check"], [ms(2)]);
        assert_eq!(profile.samples["engine.check"], [ms(6)]);
        assert!((profile.unattributed_share() - 0.2).abs() < 1e-9);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let tracer = Tracer::new(false);
        let span = tracer.open("check", None, 0);
        tracer.close(span);
        assert!(tracer.spans().is_empty());
    }
}
