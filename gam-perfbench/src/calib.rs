//! Machine-speed calibration.
//!
//! On a shared host the same code can take two to three times the CPU time
//! for minutes at a stretch (other guests on the same physical cores), with
//! no steal time to show for it, and the two CPUs of a VM can differ as
//! much. Every timed figure of a run is therefore scaled by how fast the
//! machine ran a fixed piece of reference work during the run (set-up times,
//! which span a fraction of a second, by how fast it ran around each
//! set-up): a figure reads as it would on the machine the benchmark was
//! tuned on, whose CPU time for the reference work is [`REFERENCE_CPU`].
//! One sample of the reference work is itself noisy, so the timed phase is
//! scaled by the median of all of the run's samples: scaling each check by
//! the 8 samples around it moved figures more between runs than it steadied
//! them.
//! The reference work is the benchmark's own code (hashing, ordered sets,
//! sorting, small allocations and text), so a change to the program moves
//! the figures and not the scale.

use std::collections::{BTreeSet, HashMap};
use std::fmt::Write as _;
use std::time::Duration;

use crate::inputs::Rng;
use crate::stats;

/// CPU time of one [`reference_work`] on the tuning machine: a 2-vCPU VM
/// (Intel Xeon at 2.1 GHz) whose runs measured medians of 580 to 660 us.
pub const REFERENCE_CPU: Duration = Duration::from_micros(600);

/// Timed-phase CPU time between two samples of the reference work.
const INTERVAL: Duration = Duration::from_millis(100);

/// Samples taken before set-up.
const FIRST_SAMPLES: usize = 20;

/// Samples on each side of a moment that give the machine's speed then.
const NEIGHBOURS: usize = 4;

/// A fixed amount of generic work, independent of the program: hash-map
/// updates and lookups, ordered-set inserts, sorting, small allocations, and
/// formatting and parsing numbers. Returns a checksum so none of it is
/// optimized away.
#[must_use]
pub fn reference_work() -> u64 {
    let mut rng = Rng::new(0x00ca_1b4a_7e00, 0);
    let mut map: HashMap<u64, Vec<u32>> = HashMap::new();
    let mut set: BTreeSet<(u32, u32)> = BTreeSet::new();
    let mut text = String::new();
    let mut sum = 0u64;
    for i in 0..1500u32 {
        let key = rng.next_u64() % 512;
        map.entry(key).or_default().push(i);
        sum = sum.wrapping_add(map.get(&(rng.next_u64() % 512)).map_or(0, |v| v.len() as u64));
        set.insert(((rng.next_u64() % 4096) as u32, i));
        if i % 32 == 0 {
            let mut values: Vec<u64> = (0..64).map(|_| rng.next_u64() % 1000).collect();
            values.sort_unstable();
            values.dedup();
            sum = sum.wrapping_add(values[values.len() / 2]);
        }
        if i % 4 == 0 {
            text.clear();
            let _ = write!(text, "x{}={} ", key, i);
            sum = sum.wrapping_add(
                text.trim_end().split('=').nth(1).and_then(|v| v.parse::<u64>().ok()).unwrap_or(0),
            );
        }
    }
    sum.wrapping_add(set.len() as u64)
}

/// The reference work's CPU times over a run.
#[derive(Debug, Default)]
pub struct Calibration {
    /// Process CPU time at the end of each sample, and the sample's CPU time.
    samples: Vec<(Duration, Duration)>,
    /// Process CPU time at the end of the last sample.
    last: Duration,
}

impl Calibration {
    /// Samples the reference work [`FIRST_SAMPLES`] times.
    #[must_use]
    pub fn start() -> Calibration {
        let mut calibration = Calibration::default();
        for _ in 0..FIRST_SAMPLES {
            calibration.sample();
        }
        calibration
    }

    /// Runs the reference work once and records its CPU time.
    pub fn sample(&mut self) {
        let began = stats::process_cpu();
        std::hint::black_box(reference_work());
        self.last = stats::process_cpu();
        self.samples.push((self.last, self.last.saturating_sub(began)));
    }

    /// Samples once if [`INTERVAL`] of CPU time has passed since the last
    /// sample. Called between operations of a timed phase; the samples'
    /// own time is left out of every operation.
    pub fn tick(&mut self) {
        if stats::process_cpu().saturating_sub(self.last) >= INTERVAL {
            self.sample();
        }
    }

    /// The median CPU time of the reference work in `samples`.
    fn median_of(samples: &[(Duration, Duration)]) -> Duration {
        let seconds: Vec<f64> = samples.iter().map(|(_, took)| took.as_secs_f64()).collect();
        Duration::from_secs_f64(stats::quantile(&seconds, 0.5))
    }

    /// The median CPU time of the reference work in this run.
    #[must_use]
    pub fn median(&self) -> Duration {
        Self::median_of(&self.samples)
    }

    /// How much faster the machine ran than the tuning machine over the
    /// run: multiply a CPU time by this to read it at the tuning machine's
    /// speed.
    #[must_use]
    pub fn scale(&self) -> f64 {
        stats::share(REFERENCE_CPU.as_secs_f64(), self.median().as_secs_f64())
    }

    /// [`Calibration::scale`] around the moment the process had used `at`
    /// of CPU time: from the [`NEIGHBOURS`] samples on each side of it.
    #[must_use]
    pub fn scale_at(&self, at: Duration) -> f64 {
        let index = self.samples.partition_point(|(end, _)| *end < at);
        let near = &self.samples
            [index.saturating_sub(NEIGHBOURS)..(index + NEIGHBOURS).min(self.samples.len())];
        stats::share(REFERENCE_CPU.as_secs_f64(), Self::median_of(near).as_secs_f64())
    }

    /// Samples taken.
    #[must_use]
    pub fn samples(&self) -> usize {
        self.samples.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(ms: u64) -> Duration {
        Duration::from_millis(ms)
    }

    #[test]
    fn the_scale_follows_the_samples_around_a_moment() {
        // Ten samples at the reference speed, then ten taking twice as long.
        let samples = (0..20u64)
            .map(|i| (ms(100 * (i + 1)), if i < 10 { REFERENCE_CPU } else { REFERENCE_CPU * 2 }))
            .collect();
        let calibration = Calibration { samples, last: ms(2000) };
        assert_eq!(calibration.scale_at(ms(350)), 1.0);
        assert_eq!(calibration.scale_at(ms(1750)), 0.5);
        assert_eq!(calibration.scale_at(ms(9000)), 0.5);
        assert_eq!(calibration.samples(), 20);
    }

    #[test]
    fn the_reference_work_is_fixed() {
        assert_eq!(reference_work(), reference_work());
    }
}
