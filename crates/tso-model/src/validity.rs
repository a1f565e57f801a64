//! Validity of candidate executions (paper §2.1–2.2).
//!
//! A candidate is valid iff:
//!
//! 1. **uniproc**: `com` is consistent with the per-thread order of
//!    operations to the same location (`com ∪ po-loc` acyclic);
//! 2. there exists a choice of *atomicity-induced* edges making
//!    `com ∪ ppo ∪ bar ∪ ato` acyclic. Each RMW with read `Ra`, write `Wa`
//!    and atomicity `τ` contributes, for every event `M` whose shape `τ`
//!    forbids between `Ra` and `Wa` in `ghb`, the disjunction
//!    `M →ghb Ra  ∨  Wa →ghb M`.
//!
//! Two solvers decide the existential in condition 2:
//!
//! * `solve` is the **reference**: a backtracking search over the
//!   disjunctions in order, with a cycle check at every level, that hands
//!   each solution to a visitor. [`check_validity`] stops at the first and
//!   extracts a [`Witness`] — a concrete `ghb` linearization demonstrating
//!   validity; the lemma predicates ([`crate::lemmas`]) ask whether a
//!   solution exists, or stop at the first whose closure derives an
//!   ordering.
//! * `ato_satisfiable` is the **search engine's leaf test**
//!   ([`crate::search`]): it takes the transitive closure of
//!   `com ∪ ppo ∪ bar` that the search keeps closed as it adds edges,
//!   unit-propagates every disjunction against that reachability (the unit
//!   rule of Davis–Logemann–Loveland), branches only on the disjunctions
//!   still open, and keeps each branch's closure closed edge by edge
//!   ([`DiGraph::close_edge`]). It answers yes or no and builds no witness.
//!
//! The equivalence suites compare the search engine against the
//! `enumerate_candidates` + `check_validity` pipeline, so each solver
//! checks the other.

use crate::event::{Event, EventId};
use crate::execution::{rmws_of, CandidateExecution};
use crate::graph::DiGraph;

/// Result of checking one candidate execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Validity {
    /// The candidate is valid; a witness `ghb` order is attached.
    Valid(Witness),
    /// `com ∪ po-loc` is cyclic.
    UniprocViolation,
    /// No choice of atomicity-induced edges yields an acyclic union.
    Cyclic,
}

impl Validity {
    /// True for [`Validity::Valid`].
    pub fn is_valid(&self) -> bool {
        matches!(self, Validity::Valid(_))
    }
}

/// A witness for a valid execution: a concrete global-happens-before order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Witness {
    /// Memory events in `ghb` order (fences excluded).
    pub ghb: Vec<EventId>,
    /// The atomicity-induced edges the search committed to.
    pub ato_edges: Vec<(EventId, EventId)>,
}

impl Witness {
    /// Position of each event in the `ghb` order, or `None` if absent
    /// (e.g. fences).
    pub fn position(&self, e: EventId) -> Option<usize> {
        self.ghb.iter().position(|&x| x == e)
    }

    /// True iff `a` is ordered before `b` in this witness.
    ///
    /// # Panics
    ///
    /// Panics if either event is not part of the `ghb` order.
    pub fn before(&self, a: EventId, b: EventId) -> bool {
        let pa = self.position(a).expect("event in ghb");
        let pb = self.position(b).expect("event in ghb");
        pa < pb
    }
}

/// One atomicity disjunction: `m →ghb ra  ∨  wa →ghb m`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Disjunct {
    pub(crate) m: EventId,
    pub(crate) ra: EventId,
    pub(crate) wa: EventId,
}

/// Collects the atomicity disjunctions of an event list. These depend only
/// on the events (RMW shapes and atomicity types), not on `rf`/`ws`, so the
/// search engine computes them once per program.
pub(crate) fn atomicity_disjuncts(events: &[Event]) -> Vec<Disjunct> {
    let mut disjuncts = Vec::new();
    for (_, ra, wa, link) in rmws_of(events) {
        let ra_addr = events[ra.index()].addr;
        for e in events {
            if !e.is_mem() || e.id == ra || e.id == wa {
                continue;
            }
            let same_addr = e.addr == ra_addr;
            if link.atomicity.forbids_between(e.is_write(), same_addr) {
                disjuncts.push(Disjunct { m: e.id, ra, wa });
            }
        }
    }
    disjuncts
}

/// Checks the validity of a candidate execution.
pub fn check_validity(exec: &CandidateExecution) -> Validity {
    // uniproc: com ∪ po-loc acyclic. `com_graph` carries only `rfe` (the
    // `ghb` view of `rf`); uniproc additionally needs `rfi`, or a read
    // could source its own po-later write.
    let mut uni = exec.com_graph();
    uni.union_with(&exec.poloc_graph());
    for (w, r) in exec.rfi_edges() {
        uni.add_edge(w.index(), r.index());
    }
    if !uni.is_acyclic() {
        return Validity::UniprocViolation;
    }

    // Base ghb constraint graph.
    let mut base = exec.com_graph();
    base.union_with(&exec.ppo_graph());
    base.union_with(&exec.bar_graph());

    let disjuncts = atomicity_disjuncts(exec.events());
    let mut witness = None;
    solve(&mut base, &disjuncts, &mut Vec::new(), &mut |graph, ato| {
        let order = graph.topo_order().expect("solutions are acyclic");
        let ghb = order
            .into_iter()
            .map(EventId)
            .filter(|&id| exec.event(id).is_mem())
            .collect();
        witness = Some(Witness {
            ghb,
            ato_edges: ato.to_vec(),
        });
        true
    });
    witness.map_or(Validity::Cyclic, Validity::Valid)
}

/// Backtracking over the disjunctions in order, `m → ra` before
/// `wa → m`, with a cycle check at every level. Calls `visit` with each
/// acyclic solution and the edges `ato` committed to reach it, stops at
/// the first solution `visit` accepts, and returns whether one was.
/// `graph` and `ato` are restored before it returns.
pub(crate) fn solve(
    graph: &mut DiGraph,
    disjuncts: &[Disjunct],
    ato: &mut Vec<(EventId, EventId)>,
    visit: &mut impl FnMut(&DiGraph, &[(EventId, EventId)]) -> bool,
) -> bool {
    if !graph.is_acyclic() {
        return false;
    }
    let Some((d, rest)) = disjuncts.split_first() else {
        return visit(graph, ato);
    };
    for (u, v) in [(d.m, d.ra), (d.wa, d.m)] {
        let already = graph.has_edge(u.index(), v.index());
        if !already {
            graph.add_edge(u.index(), v.index());
        }
        ato.push((u, v));
        let accepted = solve(graph, rest, ato, visit);
        ato.pop();
        if !already {
            graph.remove_edge(u.index(), v.index());
        }
        if accepted {
            return true;
        }
    }
    false
}

/// True iff some choice of one edge per disjunction keeps `base ∪ ato`
/// acyclic, where `reach` is the transitive closure of `base`: the yes/no
/// question [`check_validity`] answers with a witness. The search engine
/// asks it at every complete leaf, on the `com ∪ ppo ∪ bar` it keeps
/// closed as it goes, so no leaf computes a closure.
///
/// A cycle in `base` shows as a bit on the diagonal of `reach` and refutes
/// the leaf. Otherwise, with no disjunctions (every RMW-free program) the
/// answer is `true` at once, and with some they are decided on a copy of
/// `reach`.
pub(crate) fn ato_satisfiable(reach: &DiGraph, disjuncts: &[Disjunct]) -> bool {
    if (0..reach.len()).any(|v| reach.has_edge(v, v)) {
        return false;
    }
    disjuncts.is_empty() || satisfiable(reach.clone(), disjuncts)
}

/// Decides `disjuncts` over the acyclic closure `reach`: propagate, then
/// branch on the first open disjunction, each side on its own closure.
fn satisfiable(mut reach: DiGraph, disjuncts: &[Disjunct]) -> bool {
    let i = match propagate(&mut reach, disjuncts) {
        Propagated::Refuted => return false,
        Propagated::Solved => return true,
        Propagated::Open(i) => i,
    };
    // Every disjunction before the first open one already holds, and the
    // branch edge settles `d` itself.
    let (d, rest) = (disjuncts[i], &disjuncts[i + 1..]);
    let mut other = reach.clone();
    reach.close_edge(d.m.index(), d.ra.index());
    other.close_edge(d.wa.index(), d.m.index());
    satisfiable(reach, rest) || satisfiable(other, rest)
}

/// What unit propagation left of a set of disjunctions.
#[derive(Debug, PartialEq, Eq)]
enum Propagated {
    /// Some disjunction has both edges closing a cycle.
    Refuted,
    /// Every disjunction holds in the closure.
    Solved,
    /// The first disjunction neither held nor forced (index into the slice).
    Open(usize),
}

/// Unit propagation to a fixpoint over the acyclic closure `reach`, which
/// it keeps closed and acyclic. A disjunction `m → ra ∨ wa → m` holds once
/// `m` reaches `ra` or `wa` reaches `m`. If `ra` reaches `m`, the first
/// edge would close a cycle, so the second is forced; if `m` reaches `wa`,
/// the first is forced; if both, the leaf is refuted.
fn propagate(reach: &mut DiGraph, disjuncts: &[Disjunct]) -> Propagated {
    loop {
        let mut forced = false;
        let mut open = None;
        for (i, d) in disjuncts.iter().enumerate() {
            let (m, ra, wa) = (d.m.index(), d.ra.index(), d.wa.index());
            if reach.has_edge(m, ra) || reach.has_edge(wa, m) {
                continue;
            }
            match (reach.has_edge(ra, m), reach.has_edge(m, wa)) {
                (true, true) => return Propagated::Refuted,
                (true, false) => reach.close_edge(wa, m),
                (false, true) => reach.close_edge(m, ra),
                (false, false) => {
                    open.get_or_insert(i);
                    continue;
                }
            }
            forced = true;
        }
        if !forced {
            return open.map_or(Propagated::Solved, Propagated::Open);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::execution::enumerate_candidates;
    use crate::program::{Program, ProgramBuilder};
    use rmw_types::{Addr, Atomicity, RmwKind};

    const X: Addr = Addr(0);
    const Y: Addr = Addr(1);

    /// Thread `i` alternates `RMW(x_i, +=k); R(x_{i+1 mod n})` for
    /// `k = 1..=rounds` (the bench crate's Dekker-RMW family).
    fn dekker_rmw(n: usize, rounds: usize, atomicity: Atomicity) -> Program {
        let mut b = ProgramBuilder::new();
        for i in 0..n {
            let mut t = b.thread();
            for k in 1..=rounds {
                t.rmw(Addr(i as u64), RmwKind::FetchAndAdd(k as u64), atomicity)
                    .read(Addr(((i + 1) % n) as u64));
            }
        }
        b.build()
    }

    /// A hand-built leaf: `n` nodes, the given edges, and disjunctions as
    /// `(m, ra, wa)` triples.
    fn leaf(
        n: usize,
        edges: &[(usize, usize)],
        ds: &[(usize, usize, usize)],
    ) -> (DiGraph, Vec<Disjunct>) {
        let mut g = DiGraph::new(n);
        for &(u, v) in edges {
            g.add_edge(u, v);
        }
        let ds = ds
            .iter()
            .map(|&(m, ra, wa)| Disjunct {
                m: EventId(m),
                ra: EventId(ra),
                wa: EventId(wa),
            })
            .collect();
        (g, ds)
    }

    /// The reference backtracking solver's answer on a hand-built leaf.
    fn reference(g: &DiGraph, ds: &[Disjunct]) -> bool {
        solve(&mut g.clone(), ds, &mut Vec::new(), &mut |_, _| true)
    }

    #[test]
    fn leaf_solver_agrees_with_the_reference_on_dekker_rmw() {
        // Every uniproc-consistent candidate, valid or not, of the small
        // Dekker-RMW shapes under each atomicity.
        let (mut valid, mut cyclic) = (0, 0);
        for (n, rounds) in [(2, 1), (2, 2), (3, 1)] {
            for atomicity in Atomicity::ALL {
                for c in enumerate_candidates(&dekker_rmw(n, rounds, atomicity)) {
                    let expected = match check_validity(&c) {
                        Validity::UniprocViolation => continue,
                        Validity::Valid(_) => true,
                        Validity::Cyclic => false,
                    };
                    let mut base = c.com_graph();
                    base.union_with(&c.ppo_graph());
                    base.union_with(&c.bar_graph());
                    let got = ato_satisfiable(
                        &base.transitive_closure(),
                        &atomicity_disjuncts(c.events()),
                    );
                    assert_eq!(
                        got,
                        expected,
                        "n={n} r={rounds} {atomicity:?}\n{}",
                        c.pretty()
                    );
                    valid += usize::from(expected);
                    cyclic += usize::from(!expected);
                }
            }
        }
        assert!(valid > 0 && cyclic > 0, "{valid} valid, {cyclic} cyclic");
    }

    #[test]
    fn propagation_alone_refutes_a_leaf() {
        // RMWs 0→1 and 2→3; event 4 must sit outside both. 0 reaches 4
        // forces 1 → 4, after which 2 reaches 4 and 4 reaches 3: refuted
        // without a branch.
        let (g, ds) = leaf(
            5,
            &[(0, 1), (2, 3), (0, 4), (2, 1), (4, 3)],
            &[(4, 0, 1), (4, 2, 3)],
        );
        assert_eq!(
            propagate(&mut g.transitive_closure(), &ds),
            Propagated::Refuted
        );
        assert!(!ato_satisfiable(&g.transitive_closure(), &ds));
        assert!(!reference(&g, &ds));
    }

    #[test]
    fn open_leaf_backtracks_out_of_a_refuted_branch() {
        // Nothing is forced at the root. Taking the first disjunction's
        // `1 → 0` forces `3 → 2`, which refutes the third; its `4 → 1`
        // side settles the third and leaves the second open for another
        // branch.
        let (g, ds) = leaf(
            5,
            &[(0, 2), (0, 3), (0, 4), (3, 4)],
            &[(1, 0, 4), (2, 1, 3), (3, 1, 2)],
        );
        let mut reach = g.transitive_closure();
        assert_eq!(propagate(&mut reach, &ds), Propagated::Open(0));
        let mut first = reach.clone();
        first.close_edge(1, 0);
        assert!(!satisfiable(first, &ds[1..]));
        assert!(ato_satisfiable(&g.transitive_closure(), &ds));
        assert!(reference(&g, &ds));
    }

    #[test]
    fn leaf_with_a_cycle_or_no_disjunctions() {
        let (g, ds) = leaf(3, &[(0, 1), (1, 0)], &[(2, 0, 1)]);
        assert!(!ato_satisfiable(&g.transitive_closure(), &ds));
        assert!(!ato_satisfiable(&g.transitive_closure(), &[]));
        assert!(!reference(&g, &ds));
        assert!(ato_satisfiable(
            &leaf(3, &[(0, 1)], &[]).0.transitive_closure(),
            &[]
        ));
    }

    #[test]
    fn sb_allows_0_0_under_tso() {
        let mut b = ProgramBuilder::new();
        b.thread().write(X, 1).read(Y);
        b.thread().write(Y, 1).read(X);
        let p = b.build();
        let valid_00 = enumerate_candidates(&p)
            .into_iter()
            .filter(|c| c.read_values() == vec![0, 0])
            .any(|c| check_validity(&c).is_valid());
        assert!(valid_00, "TSO must allow SB's 0/0 outcome");
    }

    #[test]
    fn sb_with_fences_forbids_0_0() {
        let mut b = ProgramBuilder::new();
        b.thread().write(X, 1).fence().read(Y);
        b.thread().write(Y, 1).fence().read(X);
        let p = b.build();
        let valid_00 = enumerate_candidates(&p)
            .into_iter()
            .filter(|c| c.read_values() == vec![0, 0])
            .any(|c| check_validity(&c).is_valid());
        assert!(!valid_00, "mfence restores SC for SB");
    }

    #[test]
    fn uniproc_rejects_reading_own_overwritten_write() {
        // Thread writes 1 then 2 to x, then reads x: may only see 2.
        let mut b = ProgramBuilder::new();
        b.thread().write(X, 1).write(X, 2).read(X);
        let p = b.build();
        let mut saw_valid_2 = false;
        for c in enumerate_candidates(&p) {
            let v = check_validity(&c);
            let read = c.read_values()[0];
            if read == 2 {
                saw_valid_2 |= v.is_valid();
            } else {
                assert!(!v.is_valid(), "uniproc forbids reading {read}");
            }
        }
        assert!(saw_valid_2, "must allow reading the latest write");
    }

    #[test]
    fn mp_is_forbidden_on_tso() {
        // Message passing: W x=1; W y=1 || R y; R x — r(y)=1 ∧ r(x)=0 is
        // forbidden under TSO (stores are ordered, reads are ordered).
        let mut b = ProgramBuilder::new();
        b.thread().write(X, 1).write(Y, 1);
        b.thread().read(Y).read(X);
        let p = b.build();
        let bad = enumerate_candidates(&p)
            .into_iter()
            .filter(|c| c.read_values() == vec![1, 0])
            .any(|c| check_validity(&c).is_valid());
        assert!(!bad, "TSO forbids MP's 1/0 outcome");
    }

    #[test]
    fn witness_orders_respect_committed_edges() {
        let mut b = ProgramBuilder::new();
        b.thread().write(X, 1).read(Y);
        b.thread().write(Y, 1).read(X);
        let p = b.build();
        for c in enumerate_candidates(&p) {
            if let Validity::Valid(w) = check_validity(&c) {
                for (u, v) in &w.ato_edges {
                    assert!(w.before(*u, *v), "ato edge not respected by witness");
                }
                // com edges respected too
                for (u, v) in c
                    .ws_edges()
                    .into_iter()
                    .chain(c.rfe_edges())
                    .chain(c.fr_edges())
                {
                    assert!(w.before(u, v), "com edge not respected by witness");
                }
            }
        }
    }

    #[test]
    fn type1_rmw_acts_as_barrier_in_sb() {
        // SB with a type-1 RMW (to a third location) between W and R on both
        // threads forbids 0/0 (paper Fig. 5 analog, RMWs as barriers).
        let z1 = Addr(2);
        let z2 = Addr(3);
        let mut b = ProgramBuilder::new();
        b.thread()
            .write(X, 1)
            .rmw(z1, RmwKind::TestAndSet, Atomicity::Type1)
            .read(Y);
        b.thread()
            .write(Y, 1)
            .rmw(z2, RmwKind::TestAndSet, Atomicity::Type1)
            .read(X);
        let p = b.build();
        let bad = enumerate_candidates(&p)
            .into_iter()
            .filter(|c| {
                // reads in (thread, po) order: [Ra(z1), R(y), Ra(z2), R(x)]
                let rv = c.read_values();
                rv[1] == 0 && rv[3] == 0
            })
            .any(|c| check_validity(&c).is_valid());
        assert!(!bad, "type-1 RMWs used as barriers forbid SB 0/0");
    }

    #[test]
    fn type2_rmw_does_not_act_as_barrier_in_sb() {
        // Same shape with type-2 RMWs to *different* addresses: 0/0 allowed
        // (paper §2.4, "RMWs as barriers (different addresses)").
        let z1 = Addr(2);
        let z2 = Addr(3);
        let mut b = ProgramBuilder::new();
        b.thread()
            .write(X, 1)
            .rmw(z1, RmwKind::TestAndSet, Atomicity::Type2)
            .read(Y);
        b.thread()
            .write(Y, 1)
            .rmw(z2, RmwKind::TestAndSet, Atomicity::Type2)
            .read(X);
        let p = b.build();
        let bad = enumerate_candidates(&p)
            .into_iter()
            .filter(|c| {
                let rv = c.read_values();
                rv[1] == 0 && rv[3] == 0
            })
            .any(|c| check_validity(&c).is_valid());
        assert!(bad, "type-2 RMWs to different addresses are NOT barriers");
    }
}
