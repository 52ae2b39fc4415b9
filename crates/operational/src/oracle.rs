//! The unreduced reference search the explorer is tested against.
//!
//! [`explore_unreduced`] visits every interleaving: a plain depth-first
//! search that fires every enabled action of every state and keeps each
//! distinct full state once in a hash set. It shares no code with
//! [`crate::Explorer`] — no reduction, no component arena, no memory
//! governor — so the differential tests that compare the two check the
//! reduction and the arena against an independent answer. It is test code:
//! small enough to read at a glance, and slower than the explorer.

use std::collections::BTreeSet;

use rustc_hash::FxHashSet;

use crate::explore::{Exploration, ExploreError};
use crate::machine::LabeledMachine;

/// Every reachable final outcome of `machine`, found by visiting every
/// reachable state. `transitions_pruned` is 0, and `arena` and `memory`
/// are `None`.
///
/// # Errors
///
/// [`ExploreError::StateLimitExceeded`] once more than `max_states`
/// distinct states were reached, and [`ExploreError::Deadlock`] when a
/// non-final state has no enabled action.
pub fn explore_unreduced<M: LabeledMachine>(
    machine: &M,
    max_states: usize,
) -> Result<Exploration, ExploreError> {
    let initial = machine.initial_state();
    let mut visited = FxHashSet::default();
    visited.insert(initial.clone());
    let mut stack = vec![initial];
    let mut outcomes = BTreeSet::new();
    let mut final_states = 0;
    let mut labels = Vec::new();
    while let Some(state) = stack.pop() {
        machine.enabled_actions(&state, &mut labels);
        if machine.is_final(&state) {
            final_states += 1;
            outcomes.insert(machine.outcome(&state));
        } else if labels.is_empty() {
            return Err(ExploreError::Deadlock);
        }
        for action in &labels {
            let mut next = state.clone();
            machine.successor_into(&state, action, &mut next);
            if visited.contains(&next) {
                continue;
            }
            visited.insert(next.clone());
            if visited.len() > max_states {
                return Err(ExploreError::StateLimitExceeded {
                    limit: max_states,
                    states_visited: visited.len(),
                    partial_outcomes: outcomes,
                });
            }
            stack.push(next);
        }
    }
    Ok(Exploration {
        outcomes,
        states_visited: visited.len(),
        final_states,
        transitions_pruned: 0,
        arena: None,
        memory: None,
    })
}
