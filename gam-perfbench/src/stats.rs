//! Quantiles, process memory, and the result record every workload returns.

use std::fmt::Write as _;
use std::time::Duration;

/// The `q`-quantile (0..=1) of `values` by linear interpolation; 0 when empty.
#[must_use]
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = q * (sorted.len() - 1) as f64;
    let low = rank.floor() as usize;
    let high = rank.ceil() as usize;
    sorted[low] + (sorted[high] - sorted[low]) * (rank - low as f64)
}

/// The `q`-quantile of `values` averaged over the band of quantiles
/// `q - width ..= q + width`: the mean of the sorted values whose rank falls
/// in that band, or the plain quantile when none does. Where each value is
/// itself noisy, one value sitting at rank `q` no longer decides the result.
#[must_use]
pub fn band_quantile(values: &[f64], q: f64, width: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let last = sorted.len().saturating_sub(1) as f64;
    let low = ((q - width).max(0.0) * last).ceil() as usize;
    let high = ((q + width).min(1.0) * last).floor() as usize;
    if sorted.is_empty() || low > high {
        return quantile(values, q);
    }
    mean(&sorted[low..=high])
}

/// The mean of `values`; 0 when empty.
#[must_use]
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// `part / whole`, 0 when `whole` is 0.
#[must_use]
pub fn share(part: f64, whole: f64) -> f64 {
    if whole == 0.0 {
        0.0
    } else {
        part / whole
    }
}

/// Milliseconds of a duration.
#[must_use]
pub fn ms(duration: Duration) -> f64 {
    duration.as_secs_f64() * 1e3
}

/// Microseconds of a duration.
#[must_use]
pub fn us(duration: Duration) -> f64 {
    duration.as_secs_f64() * 1e6
}

/// The C library's `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    sec: i64,
    nsec: i64,
}

/// The C library's `cpu_set_t`: 1024 bits.
type CpuSet = [u64; 16];

extern "C" {
    fn clock_gettime(clock: i32, time: *mut Timespec) -> i32;
    fn sched_getcpu() -> i32;
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
}

/// Keeps the calling thread, and the threads it starts while this lives, on
/// the one CPU it runs on; dropping it gives the calling thread back the CPUs
/// it had. When a request passes between client and server threads on
/// different CPUs, every hand-off costs cross-CPU wake-ups, and whether the
/// threads landed on one CPU or two moved serve CPU times by 20% between runs
/// of the same code. Where affinity cannot be set, nothing is pinned.
#[derive(Debug)]
pub struct OneCpu {
    previous: Option<CpuSet>,
}

impl OneCpu {
    /// Pins the calling thread to its current CPU.
    #[must_use]
    pub fn pin() -> OneCpu {
        let mut previous: CpuSet = [0; 16];
        // SAFETY: `previous` is a writable mask of the size passed.
        let got = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut previous) };
        // SAFETY: no arguments.
        let cpu = unsafe { sched_getcpu() };
        let Ok(cpu) = usize::try_from(cpu) else { return OneCpu { previous: None } };
        if got != 0 || cpu >= 1024 {
            return OneCpu { previous: None };
        }
        let mut one: CpuSet = [0; 16];
        one[cpu / 64] = 1 << (cpu % 64);
        // SAFETY: `one` is a readable mask of the size passed.
        let set = unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &one) };
        OneCpu { previous: (set == 0).then_some(previous) }
    }
}

impl Drop for OneCpu {
    fn drop(&mut self) {
        if let Some(previous) = &self.previous {
            // SAFETY: `previous` is a readable mask of the size passed.
            let _ = unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), previous) };
        }
    }
}

fn cpu_clock(clock: i32) -> Duration {
    let mut time = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `time` is a valid, writable timespec for the call to fill.
    let status = unsafe { clock_gettime(clock, &mut time) };
    assert_eq!(status, 0, "clock_gettime({clock}) failed");
    Duration::new(time.sec.unsigned_abs(), time.nsec as u32)
}

/// CPU time every thread of the process has used (`CLOCK_PROCESS_CPUTIME_ID`).
/// Unlike wall time it leaves out time spent waiting for a CPU, including
/// time the hypervisor gave the CPU to another guest (steal time), which on a
/// shared host moved wall times of the same code by 20 to 40% between runs.
#[must_use]
pub fn process_cpu() -> Duration {
    cpu_clock(2)
}

/// Resets the kernel's peak-RSS mark, so the peak read later covers only
/// what follows. Where `/proc/self/clear_refs` cannot be written, the peak
/// includes set-up.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set size in MiB (`VmHWM`), if the kernel reports it.
#[must_use]
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|line| line.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// The measured value.
    pub value: f64,
    /// Unit, as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// What one run of a workload found.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Operations attempted (checks or requests), reference checks excluded.
    pub attempted: u64,
    /// Attempts that errored, were shed or timed out (wrong results count in
    /// `wrong`; the result line reports the sum).
    pub failed: u64,
    /// Wrong results: verdicts or outcome sets that disagree with the
    /// reference. Any makes the run fail.
    pub wrong: u64,
    /// Metrics, in print order.
    pub metrics: Vec<Metric>,
    /// Human-readable notes printed before the result line.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Appends a metric.
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// Adds a note; past 20 notes the rest are dropped, so a run that goes
    /// wrong everywhere still prints a readable result.
    pub fn note(&mut self, note: String) {
        if self.notes.len() < 20 {
            self.notes.push(note);
        }
    }

    /// Records a wrong result with a note saying what disagreed.
    pub fn wrong(&mut self, note: String) {
        self.wrong += 1;
        self.note(format!("MISMATCH {note}"));
    }

    /// Whether every output was correct.
    #[must_use]
    pub fn correct(&self) -> bool {
        self.wrong == 0
    }

    /// The result line: one JSON object with `correct`, `attempted`,
    /// `failed` and `metrics`.
    #[must_use]
    pub fn json(&self) -> String {
        let mut metrics = String::new();
        for (i, metric) in self.metrics.iter().enumerate() {
            let value = if metric.value.is_finite() { metric.value } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                metrics,
                "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                metric.name, metric.unit
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed + self.wrong
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let values = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&values, 0.0), 1.0);
        assert_eq!(quantile(&values, 1.0), 4.0);
        assert_eq!(quantile(&values, 0.5), 2.5);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn band_quantiles_average_the_band() {
        let values: Vec<f64> = (0..=100).map(f64::from).collect();
        assert_eq!(band_quantile(&values, 0.9, 0.03), 90.0);
        assert_eq!(band_quantile(&values, 0.9, 0.0), 90.0);
        let skewed = [1.0, 2.0, 3.0, 4.0, 100.0];
        assert_eq!(band_quantile(&skewed, 0.5, 0.25), 3.0);
        assert_eq!(band_quantile(&[], 0.5, 0.1), 0.0);
    }

    #[test]
    fn result_line_has_the_four_keys() {
        let mut outcome = Outcome { attempted: 3, ..Outcome::default() };
        outcome.metric("setup_s", 0.5, "s");
        assert_eq!(
            outcome.json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \
             \"metrics\": {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
    }
}
