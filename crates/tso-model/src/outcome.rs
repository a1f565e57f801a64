//! Allowed outcomes of a program under the model.
//!
//! An [`Outcome`] is the observable result of one valid execution: the value
//! obtained by every read (in `(thread, po)` order, RMW reads included) and
//! the final memory value of every location. [`allowed_outcomes`] collects
//! the set of outcomes over all valid candidate executions — the model's
//! notion of "the behaviours of the program".
//!
//! Both entry points run on the streaming, pruned engine of
//! [`crate::search`]: `allowed_outcomes` folds the visited executions into
//! a set without ever materializing the candidate space, and
//! `outcome_allowed` stops at the first witness.
//!
//! Hot-path representation: while the search runs, outcomes accumulate in
//! a [`FastHashSet`] (the deterministic multiplicative hasher from
//! `rmw_types::fasthash` — one hash per candidate instead of a `BTreeSet`'s
//! log-depth comparison chain), and the final memory inside an [`Outcome`]
//! is a `Vec` sorted by address rather than a pointer-chasing `BTreeMap`.
//! Ordering is applied once at the edge: the public result is still a
//! sorted `BTreeSet<Outcome>`, so every downstream consumer (reports,
//! equality tests, JSON) sees the same deterministic order as before.

use crate::execution::CandidateExecution;
use crate::program::Program;
use crate::search::{any_valid_execution, for_each_valid_execution, SearchStats};
use rmw_types::fasthash::FastHashSet;
use rmw_types::{Addr, Value};
use std::collections::BTreeSet;
use std::ops::ControlFlow;

/// Observable result of one valid execution.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Outcome {
    reads: Vec<Value>,
    /// Final value per location, sorted by address (the `ws` map the
    /// search maintains is address-ordered, so this costs nothing to
    /// produce and keeps `Ord`/`Hash` canonical).
    memory: Vec<(Addr, Value)>,
}

impl Outcome {
    /// Creates an outcome from its parts (mostly useful in tests). The
    /// memory pairs are sorted by address so equality and ordering are
    /// representation-independent.
    pub fn new(reads: Vec<Value>, mut memory: Vec<(Addr, Value)>) -> Self {
        memory.sort_unstable_by_key(|&(a, _)| a);
        Outcome { reads, memory }
    }

    /// Values obtained by the program's reads, in `(thread, po)` order —
    /// the read halves of RMWs included.
    pub fn read_values(&self) -> Vec<Value> {
        self.reads.clone()
    }

    /// Final value of each location, sorted by address.
    pub fn final_memory(&self) -> &[(Addr, Value)] {
        &self.memory
    }

    /// Final value of one location, if the program touches it.
    pub fn memory_value(&self, addr: Addr) -> Option<Value> {
        self.memory
            .binary_search_by_key(&addr, |&(a, _)| a)
            .ok()
            .map(|i| self.memory[i].1)
    }

    /// Extracts the outcome of a candidate execution (valid or not).
    pub fn of_execution(exec: &CandidateExecution) -> Self {
        Outcome {
            reads: exec.read_values(),
            memory: exec.final_memory(),
        }
    }
}

/// All outcomes of valid executions of `program`, via the streaming search
/// (one execution in memory at a time).
pub fn allowed_outcomes(program: &Program) -> BTreeSet<Outcome> {
    allowed_outcomes_with_stats(program).0
}

/// [`allowed_outcomes`] plus the search's [`SearchStats`] — the numbers the
/// harness plumbs into its per-test JSON report.
pub fn allowed_outcomes_with_stats(program: &Program) -> (BTreeSet<Outcome>, SearchStats) {
    let mut seen: FastHashSet<Outcome> = FastHashSet::default();
    let stats = for_each_valid_execution(program, |exec| {
        seen.insert(Outcome::of_execution(exec));
        ControlFlow::Continue(())
    });
    (seen.into_iter().collect(), stats)
}

/// True iff some valid execution satisfies `pred` on its read-value vector.
///
/// This is the primitive litmus assertion: "is the outcome
/// `r1=v1 ∧ r2=v2 ∧ …` allowed?". The search exits at the first witness.
pub fn outcome_allowed(program: &Program, pred: impl Fn(&[Value]) -> bool) -> bool {
    any_valid_execution(program, |exec| pred(&exec.read_values()))
}

/// The first valid execution whose read-value vector satisfies `pred`, or
/// `None` when no valid execution does.
///
/// Same early-exit cost as [`outcome_allowed`], but the witness execution —
/// its `rf`, `ws`, and resolved values — is returned so callers (litmus
/// failure reports, the differential harness) can show *which* execution
/// exhibits an outcome instead of a bare boolean.
pub fn find_execution(
    program: &Program,
    pred: impl Fn(&[Value]) -> bool,
) -> Option<CandidateExecution> {
    let mut found = None;
    for_each_valid_execution(program, |exec| {
        if pred(&exec.read_values()) {
            found = Some(exec.clone());
            ControlFlow::Break(())
        } else {
            ControlFlow::Continue(())
        }
    });
    found
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::ProgramBuilder;
    use rmw_types::{Atomicity, RmwKind};

    const X: Addr = Addr(0);
    const Y: Addr = Addr(1);

    #[test]
    fn outcomes_of_trivial_program() {
        let mut b = ProgramBuilder::new();
        b.thread().write(X, 7);
        let p = b.build();
        let outs = allowed_outcomes(&p);
        assert_eq!(outs.len(), 1);
        let o = outs.iter().next().unwrap();
        assert_eq!(o.read_values(), Vec::<Value>::new());
        assert_eq!(o.memory_value(X), Some(7));
        assert_eq!(o.memory_value(Y), None);
        assert_eq!(o.final_memory(), &[(X, 7)]);
    }

    #[test]
    fn coherence_final_state() {
        // Two racing writes: final value is one or the other.
        let mut b = ProgramBuilder::new();
        b.thread().write(X, 1);
        b.thread().write(X, 2);
        let p = b.build();
        let finals: BTreeSet<Value> = allowed_outcomes(&p)
            .into_iter()
            .map(|o| o.memory_value(X).expect("x is written"))
            .collect();
        assert_eq!(finals, BTreeSet::from([1, 2]));
    }

    #[test]
    fn outcome_allowed_matches_allowed_outcomes() {
        let mut b = ProgramBuilder::new();
        b.thread().write(X, 1).read(Y);
        b.thread().write(Y, 1).read(X);
        let p = b.build();
        let outs = allowed_outcomes(&p);
        for target in [[0u64, 0], [0, 1], [1, 0], [1, 1]] {
            let via_set = outs.iter().any(|o| o.read_values() == target);
            let via_pred = outcome_allowed(&p, |rv| rv == target);
            assert_eq!(via_set, via_pred, "outcome {target:?}");
        }
    }

    #[test]
    fn rmw_read_is_part_of_outcome_vector() {
        let mut b = ProgramBuilder::new();
        b.thread()
            .rmw(X, RmwKind::FetchAndAdd(1), Atomicity::Type1)
            .read(X);
        let p = b.build();
        let outs = allowed_outcomes(&p);
        // single thread: RMW reads 0, subsequent read sees 1.
        assert!(outs.iter().any(|o| o.read_values() == vec![0, 1]));
        assert!(outs.iter().all(|o| o.read_values()[0] == 0));
    }

    #[test]
    fn find_execution_returns_a_matching_witness() {
        let mut b = ProgramBuilder::new();
        b.thread().write(X, 1).read(Y);
        b.thread().write(Y, 1).read(X);
        let p = b.build();
        let w = find_execution(&p, |rv| rv == [0, 0]).expect("SB 0/0 is allowed");
        assert_eq!(w.read_values(), vec![0, 0]);
        // Both reads must read from the initial writes in this witness.
        for (&r, &src) in w.rf() {
            if w.event(r).tid.is_some() {
                assert!(w.event(src).is_init(), "0/0 witness reads from init");
            }
        }
        assert!(find_execution(&p, |rv| rv == [7, 7]).is_none());
    }

    #[test]
    fn two_tas_consensus() {
        // Consensus via TAS: exactly one thread's RMW reads 0 in every
        // valid execution (this is the atomicity property — any type).
        for atomicity in Atomicity::ALL {
            let mut b = ProgramBuilder::new();
            b.thread().rmw(X, RmwKind::TestAndSet, atomicity);
            b.thread().rmw(X, RmwKind::TestAndSet, atomicity);
            let p = b.build();
            let outs = allowed_outcomes(&p);
            assert!(!outs.is_empty());
            for o in &outs {
                let winners = o.read_values().iter().filter(|&&v| v == 0).count();
                assert_eq!(
                    winners, 1,
                    "{atomicity}: exactly one TAS must win, got {o:?}"
                );
            }
        }
    }

    #[test]
    fn outcome_new_sorts_its_memory() {
        let a = Outcome::new(vec![1], vec![(Y, 2), (X, 1)]);
        let b = Outcome::new(vec![1], vec![(X, 1), (Y, 2)]);
        assert_eq!(a, b);
        assert_eq!(a.final_memory(), &[(X, 1), (Y, 2)]);
    }

    #[test]
    fn stats_ride_along_with_the_outcome_set() {
        let mut b = ProgramBuilder::new();
        b.thread().write(X, 1).read(Y);
        b.thread().write(Y, 1).read(X);
        let p = b.build();
        let (outs, stats) = allowed_outcomes_with_stats(&p);
        assert_eq!(outs, allowed_outcomes(&p));
        assert!(stats.nodes > 0);
        assert_eq!(stats.valid as usize, crate::valid_executions(&p).len());
    }
}
