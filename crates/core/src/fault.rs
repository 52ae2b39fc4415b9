//! Deterministic fault injection for robustness testing.
//!
//! Production code is instrumented with named *injection points* — the
//! operational explorer (`explore`), the axiomatic enumeration (`axiomatic`),
//! cache persistence (`cache.journal.append` for write-ahead-journal
//! appends, `cache.compact` between a compacted journal's write and its
//! rename over the live one), run checkpoints
//! (`checkpoint.write`), arena spill segments (`spill.write` before a cold
//! segment lands on disk, `spill.read` before each spill block reload),
//! the HTTP I/O paths (`http.read`, `http.write`), the wall-budget poll
//! (`interrupt.deadline`, where a kill expires the deadline) and
//! the CLI's trace export (`obs.export`, between the tmp write and the
//! rename) each call [`hit`] with a stable point name. With no plan installed a hit
//! is a single relaxed atomic load, so the instrumentation is free in normal
//! operation.
//!
//! A plan arms points with one of three actions:
//!
//! * `panic` — the hit panics, exercising `catch_unwind` isolation;
//! * `delay:MS` — the hit sleeps for `MS` milliseconds, exercising timeouts;
//! * `kill` — [`hit`] returns `true` and the caller simulates a crash at that
//!   point (e.g. cache compaction dies between its tmp write and the
//!   rename).
//!
//! Plans come from the `GAM_FAULTS` environment variable (read once, on the
//! first hit) or programmatically via [`install`]. The spec is a
//! comma-separated list of `point=action[@every]` entries; `@every` fires the
//! action on every N-th hit of that point (counted from 1) instead of every
//! hit, so a faulted service still answers the other N-1 requests. Counting
//! is per-point and process-wide, which keeps a plan's firing schedule
//! deterministic regardless of thread interleaving.
//!
//! ```text
//! GAM_FAULTS="explore=panic@3,cache.compact=kill,http.write=delay:50@2"
//! ```

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, Once, RwLock};
use std::time::Duration;

/// What an armed injection point does when it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    /// Panic with a recognizable payload.
    Panic,
    /// Sleep for the given duration, then continue normally.
    Delay(Duration),
    /// Report `true` from [`hit`]; the caller simulates dying right there.
    Kill,
}

#[derive(Debug)]
struct Point {
    action: Action,
    /// Fire on every `every`-th hit (1 = every hit).
    every: u64,
    hits: AtomicU64,
}

#[derive(Debug, Default)]
struct Plan {
    points: HashMap<String, Point>,
}

static INIT: Once = Once::new();
static ENABLED: AtomicBool = AtomicBool::new(false);
static PLAN: RwLock<Option<Plan>> = RwLock::new(None);
static EXCLUSIVE: Mutex<()> = Mutex::new(());

fn parse_plan(spec: &str) -> Result<Plan, String> {
    let mut plan = Plan::default();
    for entry in spec.split(',').map(str::trim).filter(|e| !e.is_empty()) {
        let (point, rest) =
            entry.split_once('=').ok_or_else(|| format!("fault entry `{entry}` is missing `=`"))?;
        let (action_spec, every) = match rest.split_once('@') {
            Some((action, count)) => {
                let every: u64 = count
                    .parse()
                    .map_err(|_| format!("fault entry `{entry}` has a bad @every count"))?;
                if every == 0 {
                    return Err(format!("fault entry `{entry}` needs @every >= 1"));
                }
                (action, every)
            }
            None => (rest, 1),
        };
        let action = if action_spec == "panic" {
            Action::Panic
        } else if action_spec == "kill" {
            Action::Kill
        } else if let Some(ms) = action_spec.strip_prefix("delay:") {
            let ms: u64 =
                ms.parse().map_err(|_| format!("fault entry `{entry}` has a bad delay"))?;
            Action::Delay(Duration::from_millis(ms))
        } else {
            return Err(format!(
                "fault entry `{entry}` has unknown action `{action_spec}` \
                 (expected panic, delay:MS or kill)"
            ));
        };
        plan.points
            .insert(point.trim().to_string(), Point { action, every, hits: AtomicU64::new(0) });
    }
    Ok(plan)
}

fn ensure_env_loaded() {
    INIT.call_once(|| {
        if let Ok(spec) = std::env::var("GAM_FAULTS") {
            if let Err(err) = install(&spec) {
                panic!("invalid GAM_FAULTS: {err}");
            }
        }
    });
}

/// Installs a fault plan, replacing any previous one (including one loaded
/// from `GAM_FAULTS`). Point hit counters restart from zero.
pub fn install(spec: &str) -> Result<(), String> {
    let plan = parse_plan(spec)?;
    let enabled = !plan.points.is_empty();
    *PLAN.write().unwrap_or_else(std::sync::PoisonError::into_inner) = Some(plan);
    ENABLED.store(enabled, Ordering::Release);
    Ok(())
}

/// Removes the installed plan; every point disarms.
pub fn reset() {
    ENABLED.store(false, Ordering::Release);
    *PLAN.write().unwrap_or_else(std::sync::PoisonError::into_inner) = None;
}

/// Serializes tests that install fault plans: the plan is process-global, so
/// concurrent tests in one binary must take this guard around
/// [`install`]`..`[`reset`]. Survives a poisoning panic (injected panics are
/// the point of the exercise).
#[must_use = "dropping the guard immediately serializes nothing"]
pub fn exclusive() -> MutexGuard<'static, ()> {
    ensure_env_loaded();
    EXCLUSIVE.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Reports a named injection point. Free when no plan is armed. When the
/// point is armed and due, a `panic` action panics, a `delay` action sleeps,
/// and a `kill` action returns `true` so the caller can simulate a crash.
pub fn hit(point: &str) -> bool {
    ensure_env_loaded();
    if !ENABLED.load(Ordering::Acquire) {
        return false;
    }
    let action = {
        let plan = PLAN.read().unwrap_or_else(std::sync::PoisonError::into_inner);
        let Some(plan) = plan.as_ref() else { return false };
        let Some(armed) = plan.points.get(point) else { return false };
        let count = armed.hits.fetch_add(1, Ordering::AcqRel) + 1;
        if count % armed.every != 0 {
            return false;
        }
        armed.action
    };
    match action {
        Action::Panic => panic!("injected fault: {point}"),
        Action::Delay(pause) => {
            std::thread::sleep(pause);
            false
        }
        Action::Kill => true,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unarmed_hits_are_inert() {
        let _guard = exclusive();
        reset();
        assert!(!hit("explore"));
        assert!(!hit("anything.else"));
    }

    #[test]
    fn bad_specs_are_rejected_with_reasons() {
        assert!(parse_plan("no-equals").is_err());
        assert!(parse_plan("p=frobnicate").is_err());
        assert!(parse_plan("p=panic@0").is_err());
        assert!(parse_plan("p=delay:abc").is_err());
        assert!(parse_plan("p=panic@x").is_err());
    }

    #[test]
    fn kill_fires_on_the_configured_cadence() {
        let _guard = exclusive();
        install("persist=kill@3").unwrap();
        let fired: Vec<bool> = (0..6).map(|_| hit("persist")).collect();
        assert_eq!(fired, vec![false, false, true, false, false, true]);
        // Unrelated points stay silent under the same plan.
        assert!(!hit("other"));
        reset();
    }

    #[test]
    fn panic_action_panics_with_the_point_name() {
        let _guard = exclusive();
        install("boom=panic").unwrap();
        let result = std::panic::catch_unwind(|| hit("boom"));
        reset();
        let payload = result.expect_err("armed panic point must panic");
        let text = payload.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(text.contains("injected fault: boom"), "payload was {text:?}");
    }

    #[test]
    fn delay_action_sleeps_then_continues() {
        let _guard = exclusive();
        install("slow=delay:20").unwrap();
        let start = std::time::Instant::now();
        assert!(!hit("slow"));
        assert!(start.elapsed() >= Duration::from_millis(20));
        reset();
    }

    #[test]
    fn install_replaces_the_previous_plan_and_counters() {
        let _guard = exclusive();
        install("p=kill@2").unwrap();
        assert!(!hit("p"));
        // Reinstalling restarts the count: the next hit is #1 again.
        install("p=kill@2").unwrap();
        assert!(!hit("p"));
        assert!(hit("p"));
        reset();
    }
}
