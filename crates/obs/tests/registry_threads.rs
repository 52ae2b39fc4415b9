//! Concurrency property test for the metrics registry: 8 threads hammer the
//! same named metrics and every total must reconcile exactly — counters are
//! never lossy and histograms count exactly their observations.

use std::sync::Barrier;

use gam_obs::metrics::Registry;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const THREADS: usize = 8;
const ROUNDS: usize = 64;

#[test]
fn eight_threads_hammering_reconcile_exactly() {
    let registry = Registry::new();
    let barrier = Barrier::new(THREADS);
    let totals: Vec<(u64, u64, u64)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let registry = registry.clone();
                let barrier = &barrier;
                scope.spawn(move || {
                    // Every thread resolves the same names itself: the
                    // registration race is part of what's under test.
                    let counter = registry.counter("hammer.count");
                    let gauge = registry.gauge("hammer.level");
                    let histogram = registry.histogram("hammer.lat_us");
                    // Seeded per thread: irregular but reproducible increments.
                    let mut rng = StdRng::seed_from_u64(t as u64);
                    let mut added = 0u64;
                    let mut observed = 0u64;
                    let mut observed_sum = 0u64;
                    barrier.wait();
                    for _ in 0..ROUNDS {
                        let n = rng.gen_range(1..8u64);
                        counter.add(n);
                        added += n;
                        let v = rng.gen_range(0..100_000u64);
                        histogram.observe(v);
                        observed += 1;
                        observed_sum += v;
                        gauge.add(1);
                        gauge.add(-1);
                    }
                    (added, observed, observed_sum)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("hammer thread")).collect()
    });

    let expected_count: u64 = totals.iter().map(|t| t.0).sum();
    let expected_observations: u64 = totals.iter().map(|t| t.1).sum();
    let expected_sum: u64 = totals.iter().map(|t| t.2).sum();

    assert_eq!(registry.counter("hammer.count").get(), expected_count);
    assert_eq!(registry.gauge("hammer.level").get(), 0);
    let snapshot = registry.histogram("hammer.lat_us").snapshot();
    assert_eq!(snapshot.count, expected_observations);
    assert_eq!(snapshot.count, (THREADS * ROUNDS) as u64);
    assert_eq!(snapshot.sum, expected_sum);
    assert!(snapshot.p50 <= snapshot.p90 && snapshot.p90 <= snapshot.p99);
    // Quantile estimates are bucket upper bounds: p99 can overshoot the true
    // maximum by at most its own bucket.
    assert!(snapshot.p99 <= snapshot.max.next_power_of_two().max(1) * 2);

    // The renderers agree with the atomically-read totals.
    let json = registry.render_json();
    assert!(json.contains(&format!("\"hammer.count\":{expected_count}")));
    let prom = registry.render_prometheus_text();
    assert!(prom.contains(&format!("hammer_count {expected_count}\n")));
    assert!(prom.contains(&format!("hammer_lat_us_count {expected_observations}\n")));
}
