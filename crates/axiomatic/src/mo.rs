//! Search for a global memory order satisfying the model's axioms.
//!
//! A [`MoProblem`] describes one concretised execution under one model: the
//! set of memory events, the ordering edges that any global memory order must
//! contain (axiom *InstOrder*: `I1 <ppo I2 ⇒ I1 <mo I2`, plus sound read-from
//! pruning edges), and one [`LoadConstraint`] per load encoding the
//! *LoadValue* axiom of Figure 15:
//!
//! ```text
//! St [a] v  -rf->  Ld [a]   ⇒
//!     St [a] v = max_mo { St [a] v' | St [a] v' <mo Ld [a]  ∨  St [a] v' <po Ld [a] }
//! ```
//!
//! (the `<po` disjunct is only present for models with local store
//! forwarding — every model except SC).
//!
//! The search enumerates linear extensions of the edge relation by
//! backtracking. The LoadValue axiom is enforced *incrementally*: placing an
//! event immediately checks every part of the axiom that the partial order
//! already determines (a load's source must already be placed or locally
//! forwardable, a placed same-address store must not outrank the source, a
//! forwardable store must not be placed after an already-placed source), so
//! doomed prefixes are cut without enumerating their exponentially many
//! completions. Readiness is tracked with per-event predecessor counts
//! instead of rescanning the edge relation, making each search step O(degree)
//! rather than O(n²).
//!
//! This is the checker's only memory-order search. Its unit tests compare it
//! with a filter over every permutation of the events; the checker as a
//! whole is compared with the oracle (`crate::oracle`), which shares none of
//! this code, only `gam_core`'s `<ppo`.

use gam_core::Relation;

/// The LoadValue obligation of a single load event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoadConstraint {
    /// Event index of the load.
    pub load: usize,
    /// Address of the load.
    pub addr: u64,
    /// Event index of the store the load reads from, or `None` for the
    /// initial memory value.
    pub source: Option<usize>,
    /// Event indices of same-address stores that are program-order-older than
    /// the load on the same processor *and* visible through local store
    /// forwarding (empty for models without the `<po` disjunct).
    pub po_older_stores: Vec<usize>,
}

/// A memory-order search problem for one concretised execution and one model.
///
/// The checker refills one problem's fields in place for every assignment of
/// a check, so they are visible to the crate.
#[derive(Debug, Clone)]
pub struct MoProblem {
    num_events: usize,
    pub(crate) precede: Relation,
    pub(crate) store_addr: Vec<Option<u64>>,
    pub(crate) loads: Vec<LoadConstraint>,
}

impl MoProblem {
    /// Creates a problem over `num_events` memory events.
    ///
    /// `store_addr[e]` must be `Some(addr)` exactly when event `e` is a store.
    ///
    /// # Panics
    ///
    /// Panics if `precede` or `store_addr` do not have `num_events` elements.
    #[must_use]
    pub fn new(
        num_events: usize,
        precede: Relation,
        store_addr: Vec<Option<u64>>,
        loads: Vec<LoadConstraint>,
    ) -> Self {
        assert_eq!(precede.len(), num_events, "edge relation size mismatch");
        assert_eq!(store_addr.len(), num_events, "store address table size mismatch");
        MoProblem { num_events, precede, store_addr, loads }
    }

    /// Number of memory events.
    #[must_use]
    pub fn num_events(&self) -> usize {
        self.num_events
    }

    /// Checks the LoadValue axiom on a complete memory order (given as the
    /// sequence of event indices from oldest to youngest).
    #[must_use]
    pub fn validate_order(&self, order: &[usize]) -> bool {
        debug_assert_eq!(order.len(), self.num_events);
        let mut position = vec![0usize; self.num_events];
        for (rank, &event) in order.iter().enumerate() {
            position[event] = rank;
        }
        self.loads.iter().all(|constraint| self.validate_load(constraint, &position))
    }

    fn validate_load(&self, constraint: &LoadConstraint, position: &[usize]) -> bool {
        // The candidate set of the LoadValue axiom: same-address stores that
        // are memory-order-older than the load, or locally forwardable.
        let candidate = |event: usize| -> bool {
            self.store_addr[event] == Some(constraint.addr)
                && (position[event] < position[constraint.load]
                    || constraint.po_older_stores.contains(&event))
        };
        match constraint.source {
            None => (0..self.num_events).all(|e| !candidate(e)),
            Some(source) => {
                if !candidate(source) {
                    return false;
                }
                // `source` must be the memory-order maximum of the candidate set.
                (0..self.num_events)
                    .filter(|&e| e != source && candidate(e))
                    .all(|e| position[e] < position[source])
            }
        }
    }

    /// Enumerates every linear extension of the edge relation that satisfies
    /// the LoadValue axiom, invoking `on_valid` with each one. `on_valid`
    /// returns `true` to continue the enumeration and `false` to stop.
    ///
    /// Returns `true` if the enumeration ran to completion and `false` if it
    /// was stopped by the callback.
    pub fn for_each_valid_order(&self, on_valid: impl FnMut(&[usize]) -> bool) -> bool {
        self.for_each_valid_order_in(&mut Search::default(), on_valid)
    }

    /// [`MoProblem::for_each_valid_order`] on recycled search buffers.
    pub(crate) fn for_each_valid_order_in(
        &self,
        search: &mut Search,
        mut on_valid: impl FnMut(&[usize]) -> bool,
    ) -> bool {
        // A load reading the initial value while a locally forwardable
        // same-address store exists can never validate: the forwardable store
        // is always in the candidate set. Fail before searching.
        if self.loads.iter().any(|c| c.source.is_none() && !c.po_older_stores.is_empty()) {
            return true;
        }
        search.reset(self);
        search.extend(self, &mut on_valid)
    }

    /// Returns true if at least one valid memory order exists.
    #[must_use]
    pub fn has_valid_order(&self) -> bool {
        let mut found = false;
        self.for_each_valid_order(|_| {
            found = true;
            false
        });
        found
    }
}

/// The incremental backtracking state of one enumeration. One `Search` can
/// serve many problems in turn: [`Search::reset`] refills its buffers.
#[derive(Debug, Default)]
pub(crate) struct Search {
    placed: Vec<usize>,
    used: Vec<bool>,
    /// `position[e]` is the rank of `e`; only meaningful while `used[e]`.
    position: Vec<usize>,
    /// Direct successors per event (from the edge relation).
    successors: Vec<Vec<usize>>,
    /// Number of direct predecessors of each event not yet placed; an event
    /// is ready exactly when this hits zero.
    pred_remaining: Vec<usize>,
    /// Index into `MoProblem::loads` of the constraint of a load event.
    constraint_of: Vec<Option<usize>>,
    /// Per constraint: whether each event is a locally forwardable
    /// (`po_older_stores`) store of that load.
    po_older: Vec<Vec<bool>>,
    /// Per store event: the constraints whose address matches the store's.
    store_watch: Vec<Vec<usize>>,
}

/// Clears `lists` and resizes it to `len` empty lists, keeping the
/// allocations of the lists it already had.
fn reset_lists<T>(lists: &mut Vec<Vec<T>>, len: usize) {
    lists.resize_with(len, Vec::new);
    lists.iter_mut().for_each(Vec::clear);
}

/// Clears `values` and refills it with `len` copies of `value`.
fn reset_values<T: Clone>(values: &mut Vec<T>, len: usize, value: T) {
    values.clear();
    values.resize(len, value);
}

impl Search {
    /// Prepares the search of `problem`, with nothing placed yet.
    fn reset(&mut self, problem: &MoProblem) {
        let n = problem.num_events;
        self.placed.clear();
        reset_values(&mut self.used, n, false);
        reset_values(&mut self.position, n, 0);
        reset_lists(&mut self.successors, n);
        reset_values(&mut self.pred_remaining, n, 0);
        for (from, to) in problem.precede.iter_pairs() {
            self.successors[from].push(to);
            self.pred_remaining[to] += 1;
        }
        reset_values(&mut self.constraint_of, n, None);
        reset_lists(&mut self.po_older, problem.loads.len());
        reset_lists(&mut self.store_watch, n);
        for (ci, constraint) in problem.loads.iter().enumerate() {
            self.constraint_of[constraint.load] = Some(ci);
            let flags = &mut self.po_older[ci];
            flags.resize(n, false);
            for &store in &constraint.po_older_stores {
                flags[store] = true;
            }
            for (event, addr) in problem.store_addr.iter().enumerate() {
                if *addr == Some(constraint.addr) {
                    self.store_watch[event].push(ci);
                }
            }
        }
    }

    /// Checks the LoadValue obligations that placing `event` at the current
    /// rank already determines. Returning false prunes the whole subtree.
    fn placement_ok(&self, problem: &MoProblem, event: usize) -> bool {
        if let Some(ci) = self.constraint_of[event] {
            let constraint = &problem.loads[ci];
            match constraint.source {
                // Reading the initial value: no same-address store may be
                // memory-order-older, and every store placed so far is older.
                // (Forwardable stores were rejected before the search.)
                None => !problem
                    .store_addr
                    .iter()
                    .enumerate()
                    .any(|(e, addr)| *addr == Some(constraint.addr) && self.used[e]),
                Some(source) => {
                    // The source must already be a candidate: placed before
                    // the load or locally forwardable.
                    if !self.used[source] && !self.po_older[ci][source] {
                        return false;
                    }
                    // Every already-placed same-address store is a candidate
                    // and must not outrank a placed source. (If the source is
                    // an unplaced forwardable store it outranks them all.)
                    !self.used[source]
                        || problem.store_addr.iter().enumerate().all(|(e, addr)| {
                            e == source
                                || *addr != Some(constraint.addr)
                                || !self.used[e]
                                || self.position[e] < self.position[source]
                        })
                }
            }
        } else {
            // Placing a store after a load it could still serve: the store is
            // only a candidate of an already-placed load through forwarding,
            // and then it must not be placed after the load's placed source.
            self.store_watch[event].iter().all(|&ci| {
                let constraint = &problem.loads[ci];
                if !self.used[constraint.load] || !self.po_older[ci][event] {
                    return true;
                }
                match constraint.source {
                    // source == event: the forwarded source itself may land
                    // anywhere after its load.
                    Some(source) => source == event || !self.used[source],
                    None => false,
                }
            })
        }
    }

    fn extend(&mut self, problem: &MoProblem, on_valid: &mut impl FnMut(&[usize]) -> bool) -> bool {
        if self.placed.len() == problem.num_events {
            debug_assert!(problem.validate_order(&self.placed), "incremental pruning is unsound");
            return on_valid(&self.placed);
        }
        for event in 0..problem.num_events {
            if self.used[event] || self.pred_remaining[event] != 0 {
                continue;
            }
            if !self.placement_ok(problem, event) {
                continue;
            }
            self.position[event] = self.placed.len();
            self.used[event] = true;
            self.placed.push(event);
            for i in 0..self.successors[event].len() {
                self.pred_remaining[self.successors[event][i]] -= 1;
            }
            let keep_going = self.extend(problem, on_valid);
            for i in 0..self.successors[event].len() {
                self.pred_remaining[self.successors[event][i]] += 1;
            }
            self.placed.pop();
            self.used[event] = false;
            if !keep_going {
                return false;
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two stores (events 0, 1) to the same address and one load (event 2).
    fn two_stores_one_load(source: Option<usize>, po_older: Vec<usize>) -> MoProblem {
        MoProblem::new(
            3,
            Relation::new(3),
            vec![Some(8), Some(8), None],
            vec![LoadConstraint { load: 2, addr: 8, source, po_older_stores: po_older }],
        )
    }

    /// Collects the valid orders of the incremental search and asserts they
    /// are exactly the permutations that respect every precede edge and
    /// pass [`MoProblem::validate_order`].
    fn valid_orders(problem: &MoProblem) -> Vec<Vec<usize>> {
        let mut incremental = Vec::new();
        problem.for_each_valid_order(|o| {
            incremental.push(o.to_vec());
            true
        });
        let mut reference = Vec::new();
        let mut used = vec![false; problem.num_events()];
        crate::oracle::permute(&mut Vec::new(), &mut used, &mut |order| {
            let rank = |e: usize| order.iter().position(|&x| x == e);
            if problem.precede.iter_pairs().all(|(from, to)| rank(from) < rank(to))
                && problem.validate_order(order)
            {
                reference.push(order.to_vec());
            }
        });
        let mut sorted = incremental.clone();
        sorted.sort();
        assert_eq!(sorted, reference, "the incremental search and the permutation filter disagree");
        incremental
    }

    #[test]
    fn load_from_init_requires_no_older_store() {
        let problem = two_stores_one_load(None, vec![]);
        let orders = valid_orders(&problem);
        // The load must come first; the two stores may follow in either order.
        assert_eq!(orders.len(), 2);
        for order in &orders {
            assert_eq!(order[0], 2);
        }
    }

    #[test]
    fn load_from_store_requires_it_to_be_the_max() {
        let problem = two_stores_one_load(Some(0), vec![]);
        let orders = valid_orders(&problem);
        // Valid orders: store0 before load, store1 after the load OR before store0.
        // i.e. [0,2,1], [1,0,2]; invalid: [0,1,2], [1,2,0], [2,..].
        assert_eq!(orders.len(), 2);
        assert!(orders.contains(&vec![0, 2, 1]));
        assert!(orders.contains(&vec![1, 0, 2]));
    }

    #[test]
    fn po_older_store_participates_without_mo_edge() {
        // The load reads from store 0 which is po-older (forwarding); store 0
        // may then be anywhere, but store 1 must not sit between store 0 and
        // the load in a way that makes it the max of the candidate set.
        let problem = two_stores_one_load(Some(0), vec![0]);
        let orders = valid_orders(&problem);
        // All 6 permutations, minus the ones where store 1 is a candidate
        // newer than store 0: [1,2,0] keeps store1 older than the load but
        // store0 older still? position(1)<position(2): candidate; max must be 0.
        for order in &orders {
            let pos = |e: usize| order.iter().position(|&x| x == e).unwrap();
            let store1_candidate = pos(1) < pos(2);
            if store1_candidate {
                assert!(pos(1) < pos(0), "store 1 must be older than the forwarded store 0");
            }
        }
        assert!(orders.contains(&vec![2, 0, 1]), "forwarding lets the load precede its source");
    }

    #[test]
    fn forwarded_source_with_other_po_older_stores() {
        // Both stores are locally forwardable; the load reads store 1. Store 0
        // is always a candidate, so it must always be older than store 1.
        let problem = two_stores_one_load(Some(1), vec![0, 1]);
        let orders = valid_orders(&problem);
        assert!(!orders.is_empty());
        for order in &orders {
            let pos = |e: usize| order.iter().position(|&x| x == e).unwrap();
            assert!(pos(0) < pos(1), "store 0 must stay older than the source: {order:?}");
        }
    }

    #[test]
    fn precede_edges_are_respected() {
        let mut precede = Relation::new(3);
        precede.insert(0, 1);
        precede.insert(1, 2);
        let problem = MoProblem::new(
            3,
            precede,
            vec![Some(8), Some(8), None],
            vec![LoadConstraint { load: 2, addr: 8, source: Some(1), po_older_stores: vec![] }],
        );
        let orders = valid_orders(&problem);
        assert_eq!(orders, vec![vec![0, 1, 2]]);
    }

    #[test]
    fn cyclic_edges_have_no_order() {
        let mut precede = Relation::new(2);
        precede.insert(0, 1);
        precede.insert(1, 0);
        let problem = MoProblem::new(2, precede, vec![Some(4), Some(4)], vec![]);
        assert!(!problem.has_valid_order());
        assert!(valid_orders(&problem).is_empty());
    }

    #[test]
    fn early_stop_works() {
        let problem = MoProblem::new(3, Relation::new(3), vec![None, None, None], vec![]);
        let mut count = 0;
        let completed = problem.for_each_valid_order(|_| {
            count += 1;
            count < 2
        });
        assert!(!completed);
        assert_eq!(count, 2);
    }

    #[test]
    fn loads_of_different_addresses_do_not_interfere() {
        let problem = MoProblem::new(
            2,
            Relation::new(2),
            vec![Some(16), None],
            vec![LoadConstraint { load: 1, addr: 32, source: None, po_older_stores: vec![] }],
        );
        let orders = valid_orders(&problem);
        assert_eq!(orders.len(), 2, "the store to a different address never blocks the init read");
    }

    #[test]
    fn has_valid_order_matches_enumeration() {
        let problem = two_stores_one_load(Some(1), vec![]);
        assert!(problem.has_valid_order());
        // A load reading from init while a po-older same-address store exists
        // (forwarding visible) can never validate.
        let impossible = two_stores_one_load(None, vec![0]);
        assert!(!impossible.has_valid_order());
        assert!(valid_orders(&impossible).is_empty());
    }

    #[test]
    fn randomized_problems_match_the_permutation_filter() {
        // Pseudo-random small problems: events are a mix of stores over two
        // addresses and loads with arbitrary (possibly unsatisfiable)
        // constraints plus random precedence edges. The incremental search
        // must produce exactly the permutation filter's valid-order set on all
        // of them (checked inside `valid_orders`).
        let mut state = 0xDEAD_BEEFu64;
        let mut next = move |bound: u64| {
            state = state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1442695040888963407);
            ((state >> 33) % bound) as usize
        };
        let mut nonempty = 0;
        for _ in 0..200 {
            let n = 3 + next(4); // 3..=6 events
            let mut store_addr = vec![None; n];
            let mut stores = Vec::new();
            let mut loads_events = Vec::new();
            for (e, slot) in store_addr.iter_mut().enumerate() {
                if next(2) == 0 {
                    *slot = Some(if next(2) == 0 { 8 } else { 16 });
                    stores.push(e);
                } else {
                    loads_events.push(e);
                }
            }
            let loads: Vec<LoadConstraint> = loads_events
                .iter()
                .map(|&load| {
                    let addr = if next(2) == 0 { 8 } else { 16 };
                    let same: Vec<usize> =
                        stores.iter().copied().filter(|&s| store_addr[s] == Some(addr)).collect();
                    let source = if same.is_empty() || next(3) == 0 {
                        None
                    } else {
                        Some(same[next(same.len() as u64)])
                    };
                    let po_older_stores: Vec<usize> =
                        same.iter().copied().filter(|_| next(3) == 0).collect();
                    LoadConstraint { load, addr, source, po_older_stores }
                })
                .collect();
            let mut precede = Relation::new(n);
            for _ in 0..next(4) {
                let i = next(n as u64);
                let j = next(n as u64);
                if i != j {
                    // Only forward edges, to keep some problems satisfiable.
                    precede.insert(i.min(j), i.max(j));
                }
            }
            let problem = MoProblem::new(n, precede, store_addr, loads);
            if !valid_orders(&problem).is_empty() {
                nonempty += 1;
            }
        }
        assert!(nonempty > 20, "random problems are not degenerate: {nonempty} satisfiable");
    }
}
