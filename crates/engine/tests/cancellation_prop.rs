//! Property: cancellation is sound at any point in a check's life.
//!
//! Each case runs a check through the backend contract,
//! [`gam_engine::Checker::run`], on a second thread, cancels its token after
//! a randomized delay (from "before the thread even starts the search" to
//! "long after it finished"), and asserts the robustness contract:
//!
//! * the check always returns — no deadlock, whatever the timing race;
//! * the result is either the true conclusive verdict (cancel arrived too
//!   late) or `Inconclusive` with the `cancelled` stop reason — never an
//!   error, never a partial value masquerading as conclusive;
//! * a rerun on the same engine yields the exact blocking-API verdict —
//!   cancellation poisons nothing.

use std::sync::{mpsc, Arc};
use std::time::Duration;

use gam_core::{CancelToken, ModelKind, StopReason};
use gam_engine::{Backend, CheckBudget, Engine, Query, SessionVerdict};
use gam_isa::litmus::{library, LitmusTest};
use proptest::prelude::*;

fn test_by_index(index: usize) -> LitmusTest {
    match index % 4 {
        0 => library::corr(),
        1 => library::mp(),
        2 => library::dekker(),
        _ => library::iriw(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]
    #[test]
    fn cancellation_at_random_times_is_sound(test_index in 0usize..4, delay_us in 0u64..1500) {
        let test = test_by_index(test_index);
        let engine = Arc::new(
            Engine::builder()
                .model(ModelKind::Gam)
                .backend(Backend::Operational)
                .build()
                .expect("operational engine"),
        );
        let expected = engine.check(&test).expect("blocking verdict");

        let token = CancelToken::new();
        let (sender, receiver) = mpsc::channel();
        let worker = {
            let (engine, test, token) = (Arc::clone(&engine), test.clone(), token.clone());
            std::thread::spawn(move || {
                let budget = CheckBudget::none();
                let _ = sender.send(engine.checker().run(&test, Query::Outcomes, &budget, token));
            })
        };
        std::thread::sleep(Duration::from_micros(delay_us));
        token.cancel();

        // The check must return promptly — a cancelled check cannot hang.
        let resolved = receiver.recv_timeout(Duration::from_secs(60));
        prop_assert!(resolved.is_ok(), "cancelled check deadlocked");
        worker.join().expect("the check thread returned its answer");
        match resolved.unwrap() {
            Ok(answer) => match answer.verdict {
                SessionVerdict::Inconclusive { reason, .. } => {
                    prop_assert_eq!(reason, StopReason::Cancelled);
                }
                conclusive => {
                    // The cancel lost the race: the verdict must be the truth.
                    prop_assert_eq!(conclusive.as_verdict(), Some(expected));
                }
            },
            Err(err) => prop_assert!(false, "cancellation must not error: {}", err),
        }

        // Same engine, same test, a fresh token: the exact blocking verdict.
        let retry = engine
            .checker()
            .run(&test, Query::Outcomes, &CheckBudget::none(), CancelToken::new())
            .expect("post-cancel rerun");
        prop_assert_eq!(retry.verdict.as_verdict(), Some(expected));
    }
}
