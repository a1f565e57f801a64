//! Machine-checkable forms of the paper's Lemmas 1–3 (§2.3–§2.5).
//!
//! The lemmas speak about *enforced* and *disallowed* orderings:
//!
//! * an ordering `a → b` is **enforced** in a candidate execution iff `a`
//!   precedes `b` in *every* valid `ghb`; equivalently, no choice of
//!   atomicity-induced edges makes `com ∪ ppo ∪ bar ∪ ato ∪ {b → a}`
//!   acyclic ([`ordering_enforced`]);
//! * an ordering `a → b` is **derivable** iff some choice of induced edges
//!   yields a relation whose transitive closure contains a path `a → b`
//!   ([`ordering_derivable`]). Lemma 2/3's "disallows the enforcement of
//!   `Ra → W1`" asserts that no such path can be committed without creating
//!   a cycle — i.e. `Ra → W1` is not derivable in any valid execution.
//!
//! The unit tests instantiate the exact scenarios of Figures 2, 6, 7 and 9.

use crate::event::EventId;
use crate::execution::CandidateExecution;
use crate::graph::DiGraph;
use crate::validity::{atomicity_disjuncts, check_validity, solve};

/// True iff `a → b` holds in every valid `ghb` of this candidate.
///
/// Decided by refutation: if `com ∪ ppo ∪ bar ∪ ato ∪ {b → a}` is
/// satisfiable (some ato choice acyclic), a linearization with `b` before
/// `a` exists and the ordering is *not* enforced.
///
/// Returns `false` for invalid candidates (nothing is enforced in them).
pub fn ordering_enforced(exec: &CandidateExecution, a: EventId, b: EventId) -> bool {
    if !check_validity(exec).is_valid() {
        return false;
    }
    let mut base = constraint_graph(exec);
    base.add_edge(b.index(), a.index());
    !some_solution(exec, base, |_| true)
}

/// True iff some valid `ato` choice yields a committed relation whose
/// transitive closure contains `a → b`.
pub fn ordering_derivable(exec: &CandidateExecution, a: EventId, b: EventId) -> bool {
    some_solution(exec, constraint_graph(exec), |g| {
        g.transitive_closure().has_edge(a.index(), b.index())
    })
}

/// True iff the ordering `a → b` can be *imposed* on this candidate without
/// invalidating it: `com ∪ ppo ∪ bar ∪ ato ∪ {a → b}` is satisfiable.
///
/// This captures Lemma 1's argument for `Wa → R2`: a read between `Ra` and
/// `Wa` "can safely be moved after `Wa`" — i.e. enforcing `Wa → R2` never
/// eliminates a valid execution, so the RMW *behaves as if* that ordering
/// held.
pub fn ordering_consistent(exec: &CandidateExecution, a: EventId, b: EventId) -> bool {
    if !check_validity(exec).is_valid() {
        return false;
    }
    let mut base = constraint_graph(exec);
    base.add_edge(a.index(), b.index());
    some_solution(exec, base, |_| true)
}

/// The fixed (non-ato) part of the `ghb` constraint: `com ∪ ppo ∪ bar`.
fn constraint_graph(exec: &CandidateExecution) -> DiGraph {
    let mut g = exec.com_graph();
    g.union_with(&exec.ppo_graph());
    g.union_with(&exec.bar_graph());
    g
}

/// True iff some acyclic solution of the atomicity disjunctions over
/// `base` satisfies `accept`; the search stops at the first that does
/// (exponential in the worst case; litmus scale only).
fn some_solution(
    exec: &CandidateExecution,
    mut base: DiGraph,
    mut accept: impl FnMut(&DiGraph) -> bool,
) -> bool {
    let disjuncts = atomicity_disjuncts(exec.events());
    solve(&mut base, &disjuncts, &mut Vec::new(), &mut |g, _| {
        accept(g)
    })
}

/// Convenience: every *valid* candidate execution of a program, collected
/// through the streaming, pruned search (thin wrapper used by the lemma
/// tests — the lemma predicates themselves need random access to the set).
pub fn valid_candidates(program: &crate::program::Program) -> Vec<CandidateExecution> {
    crate::search::valid_executions(program)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::RmwHalf;
    use crate::program::ProgramBuilder;
    use rmw_types::{Addr, Atomicity, RmwKind, ThreadId};

    const X: Addr = Addr(0);
    const Y: Addr = Addr(1);
    const Z: Addr = Addr(2);

    /// Builds `W(x,1); RMW(z); R(y)` on thread 0 (the W1–RMW–R2 pattern of
    /// Figures 2/6/9), with a second thread writing y so R2 has something
    /// external to read.
    fn w1_rmw_r2(atomicity: Atomicity) -> crate::program::Program {
        let mut b = ProgramBuilder::new();
        b.thread()
            .write(X, 1)
            .rmw(Z, RmwKind::TestAndSet, atomicity)
            .read(Y);
        b.thread().write(Y, 1);
        b.build()
    }

    /// Event ids for (W1, Ra, Wa, R2) on thread 0.
    fn pattern_ids(c: &CandidateExecution) -> (EventId, EventId, EventId, EventId) {
        let t0 = Some(ThreadId(0));
        let mut w1 = None;
        let mut ra = None;
        let mut wa = None;
        let mut r2 = None;
        for e in c.events() {
            if e.tid != t0 {
                continue;
            }
            match (e.is_write(), e.rmw.map(|l| l.half)) {
                (true, None) => w1 = Some(e.id),
                (false, Some(RmwHalf::Read)) => ra = Some(e.id),
                (true, Some(RmwHalf::Write)) => wa = Some(e.id),
                (false, None) => r2 = Some(e.id),
                _ => {}
            }
        }
        (w1.unwrap(), ra.unwrap(), wa.unwrap(), r2.unwrap())
    }

    #[test]
    fn lemma1_type1_rmw_enforces_w1_ra_wa_r2_w1_r2() {
        // Lemma 1: a type-1 RMW between W1 and R2 enforces W1→Ra and
        // (transitively) W1→R2 (Fig. 2). The Wa→R2 part is observational:
        // a read between Ra and Wa can safely be moved after Wa, so the
        // ordering can always be imposed (consistent) and its converse can
        // never be derived.
        let p = w1_rmw_r2(Atomicity::Type1);
        let cands = valid_candidates(&p);
        assert!(!cands.is_empty());
        for c in &cands {
            let (w1, ra, wa, r2) = pattern_ids(c);
            assert!(ordering_enforced(c, w1, ra), "W1 → Ra must be enforced");
            assert!(ordering_enforced(c, w1, r2), "W1 → R2 must be enforced");
            assert!(
                ordering_consistent(c, wa, r2),
                "Wa → R2 must be imposable on every valid execution"
            );
            assert!(
                !ordering_derivable(c, r2, wa),
                "R2 → Wa must never be derivable under type-1"
            );
        }
    }

    #[test]
    fn lemma2_type2_rmw_enforces_none_of_the_lemma1_orderings() {
        // §2.4: a type-2 RMW does not explicitly enforce W1→Ra, Wa→R2 or
        // W1→R2 ...
        let p = w1_rmw_r2(Atomicity::Type2);
        let cands = valid_candidates(&p);
        assert!(!cands.is_empty());
        let mut some_unenforced = (false, false, false);
        for c in &cands {
            let (w1, ra, wa, r2) = pattern_ids(c);
            some_unenforced.0 |= !ordering_enforced(c, w1, ra);
            some_unenforced.1 |= !ordering_enforced(c, wa, r2);
            some_unenforced.2 |= !ordering_enforced(c, w1, r2);
        }
        assert!(some_unenforced.0, "W1 → Ra must not be globally enforced");
        assert!(some_unenforced.1, "Wa → R2 must not be globally enforced");
        assert!(some_unenforced.2, "W1 → R2 must not be globally enforced");
    }

    #[test]
    fn lemma2_type2_rmw_disallows_ra_w1_and_r2_wa() {
        // ... but disallows deriving Ra→W1 and R2→Wa (Lemma 2, Fig. 6/7).
        let p = w1_rmw_r2(Atomicity::Type2);
        for c in &valid_candidates(&p) {
            let (w1, ra, wa, r2) = pattern_ids(c);
            assert!(
                !ordering_derivable(c, ra, w1),
                "Ra → W1 must not be derivable:\n{}",
                c.pretty()
            );
            assert!(
                !ordering_derivable(c, r2, wa),
                "R2 → Wa must not be derivable:\n{}",
                c.pretty()
            );
        }
    }

    #[test]
    fn lemma3_type3_rmw_disallows_ra_w1_only() {
        // Lemma 3: type-3 disallows Ra→W1 but may allow R2→Wa (Fig. 9).
        let p = w1_rmw_r2(Atomicity::Type3);
        for c in &valid_candidates(&p) {
            let (w1, ra, _wa, _r2) = pattern_ids(c);
            assert!(
                !ordering_derivable(c, ra, w1),
                "Ra → W1 must not be derivable under type-3"
            );
        }
    }

    #[test]
    fn lemma3_r2_wa_derivable_under_type3_but_not_type2() {
        // The distinguishing scenario of Fig. 7/9: a reader thread gives us
        // R''(z) fr→ Wa(z), and R2(y) ghb→ R''(z) via that thread's ppo.
        // Under type-3, R''(z) may sit between Ra and Wa, so R2 → Wa can be
        // committed; under type-2 it cannot.
        fn scenario(atomicity: Atomicity) -> bool {
            let mut b = ProgramBuilder::new();
            b.thread()
                .write(X, 1)
                .rmw(Z, RmwKind::TestAndSet, atomicity)
                .read(Y);
            // Observer thread: W'(y) fence R''(z). The fence provides the
            // W' → R'' leg so that R2(y) fr→ W'(y) bar→ R''(z) fr→ Wa(z)
            // is a candidate derivation of R2 → Wa.
            b.thread().write(Y, 1).fence().read(Z);
            let p = b.build();
            let mut derivable = false;
            for c in &valid_candidates(&p) {
                let (_, _, wa, r2) = pattern_ids(c);
                derivable |= ordering_derivable(c, r2, wa);
            }
            derivable
        }
        assert!(
            scenario(Atomicity::Type3),
            "type-3 must allow deriving R2 → Wa in some execution"
        );
        assert!(
            !scenario(Atomicity::Type2),
            "type-2 must never derive R2 → Wa"
        );
    }

    #[test]
    fn enforced_is_false_for_invalid_candidates() {
        // Build a candidate that violates uniproc and check the guard.
        let mut b = ProgramBuilder::new();
        b.thread().write(X, 1).write(X, 2).read(X);
        let p = b.build();
        let all = crate::execution::enumerate_candidates(&p);
        let invalid: Vec<_> = all
            .iter()
            .filter(|c| !check_validity(c).is_valid())
            .collect();
        assert!(!invalid.is_empty());
        for c in invalid {
            let e0 = c.events()[0].id;
            let e1 = c.events()[1].id;
            assert!(!ordering_enforced(c, e0, e1));
        }
    }

    #[test]
    fn type2_rmw_strongly_ordered_wrt_synchronizing_ops() {
        // §2.4 "Effect of implicitly ordered type-2 RMWs": with respect to a
        // conflicting write W'(z) that synchronizes with Ra (Ra fr→ W'),
        // W1 appears ordered before the RMW: W1 → W' in every valid ghb.
        let mut b = ProgramBuilder::new();
        b.thread()
            .write(X, 1)
            .rmw(Z, RmwKind::TestAndSet, Atomicity::Type2)
            .read(Y);
        b.thread().write(Z, 7); // W'(z), conflicts with the RMW
        let p = b.build();
        for c in &valid_candidates(&p) {
            let (w1, ra, _, _) = pattern_ids(c);
            let wprime = c
                .events()
                .iter()
                .find(|e| e.tid == Some(ThreadId(1)) && e.is_write())
                .unwrap()
                .id;
            // Does Ra read from *before* W' (i.e. Ra fr→ W')?
            let ra_fr_wprime = c.fr_edges().contains(&(ra, wprime));
            if ra_fr_wprime {
                assert!(
                    ordering_enforced(c, w1, wprime),
                    "W1 must appear before the synchronizing W':\n{}",
                    c.pretty()
                );
            }
        }
    }
}
