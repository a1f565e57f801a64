//! Streaming, pruned search over candidate executions — the engine behind
//! [`allowed_outcomes`](crate::outcome::allowed_outcomes),
//! [`outcome_allowed`](crate::outcome::outcome_allowed), the litmus
//! verdicts, and `cc11`'s mapping verification.
//!
//! The legacy enumerator ([`crate::execution::enumerate_candidates`])
//! materializes every `rf × ws` assignment into a `Vec` and filters
//! afterwards, so both time and peak memory grow factorially with events
//! per location. This module instead assigns `rf` and `ws` *incrementally*
//! — a depth-first search over per-location choices — and prunes a branch
//! the moment a partial assignment is doomed:
//!
//! * **`ws` placement.** Each location's write serialization is built one
//!   write at a time. Placing `w` next commits `w` before every still
//!   unplaced write of that location in *every* completion, so those edges
//!   go into the incremental graphs immediately; a cycle kills the whole
//!   subtree (e.g. a `ws` order contradicting same-thread `ppo` W→W edges
//!   dies at depth 1 instead of being enumerated `(k-1)!` times).
//! * **`rf` assignment.** Once the serializations are fixed, each read's
//!   `rf` choice determines its `rfe` and *all* of its `fr` edges, which
//!   are pushed into the graphs and cycle-checked on the spot.
//! * **Pruning conditions.** A branch is cut when (a) `com ∪ ppo ∪ bar`
//!   acquires a cycle (no `ato` choice can ever fix it — `ato` only adds
//!   edges), (b) `com ∪ po-loc` acquires a cycle (the `uniproc` /
//!   coherence violation of paper §2.1), or (c) the value-dependency graph
//!   (`rf` edges plus each RMW's internal `Ra → Wa`) becomes cyclic, i.e.
//!   an RMW's value would depend on itself.
//!
//! All three checks are *sound* for pruning: a completion only ever adds
//! edges to the partial graphs, so a cyclic partial state can never reach
//! a valid leaf.
//!
//! # Closed graphs
//!
//! The three graphs are kept transitively closed from the root down (the
//! context closes the fixed part once per program), so each one is its own
//! reachability relation. An edge `u → v` closes a cycle iff bit `(v, u)`
//! is set: every probe is one bit test, and an accepted edge is folded in
//! with [`DiGraph::close_edge`] (incremental transitive closure, after
//! Italiano, "Amortized efficiency of a path retrieval data structure",
//! TCS 48, 1986). Backtracking keeps no edge log: each decision level
//! snapshots the graphs' rows once into a per-depth slot and copies them
//! back after every child. A pruned branch costs the inserts made before
//! the refused edge, one bit test for that edge, and one row copy.
//!
//! At a complete assignment the remaining existential — the per-RMW
//! atomicity disjunctions — is decided with unit propagation on a copy of
//! the closed `com ∪ ppo ∪ bar` ([`crate::validity`]) *before* values are
//! resolved or an execution is assembled, so an invalid leaf costs that
//! copy and no closure. The set of executions yielded here is *identical*
//! to filtering the legacy enumeration with `check_validity` (the
//! reference solver).
//!
//! Valid executions are yielded through a visitor
//! ([`for_each_valid_execution`]); returning [`ControlFlow::Break`] stops
//! the search, which is what gives `outcome_allowed` its early exit.
//!
//! # Family search
//!
//! Atomicity enters the search only at the leaves: the
//! `ppo`/`bar`/`po-loc`/dep graphs, and so every decision, prune and
//! complete leaf, are the same for every atomicity assignment of one
//! program. The verdict cache's fresh search ([`crate::cache`]) exploits
//! this with the crate-private `run_family` and its `Family`: at each
//! complete leaf it also runs the test for the program's uniform
//! atomicity rewrites on the same closed graph, builds the leaf's outcome
//! once, and adds it to the set of every program that accepts the leaf —
//! one walk answers the whole family. It also charges an optional query
//! budget at every decision node.

use crate::budget::QueryBudget;
use crate::event::{EventId, RmwHalf};
use crate::execution::{
    bar_graph_of, build_events, poloc_graph_of, ppo_graph_of, resolve_values, CandidateExecution,
    ExecCtx,
};
use crate::graph::DiGraph;
use crate::outcome::Outcome;
use crate::program::Program;
use crate::validity::{ato_satisfiable, atomicity_disjuncts, Disjunct};
use rmw_types::fasthash::FastHashMap;
use rmw_types::{Addr, Atomicity};
use std::collections::{BTreeMap, BTreeSet};
use std::ops::ControlFlow;
use std::sync::Arc;

/// Counters describing one search run, for benchmarks and scaling reports.
///
/// A family member's answer reports exactly the numbers a fresh search of
/// the same program would (asserted by `tests/cache_equiv.rs`), so the
/// counters describe the program, not which search answered it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SearchStats {
    /// Partial-assignment decision nodes explored (one per `ws` placement
    /// or `rf` choice tried).
    pub nodes: u64,
    /// Branches cut by incremental pruning before reaching a leaf.
    pub pruned: u64,
    /// Complete `rf × ws` assignments reached (the legacy enumerator
    /// materializes one candidate per such leaf).
    pub complete: u64,
    /// Valid executions yielded to the visitor.
    pub valid: u64,
    /// True when the visitor stopped the search early.
    pub stopped_early: bool,
    /// True when a [`SearchBudget`](crate::budget::SearchBudget) ran out
    /// mid-search: the run stopped at a decision node with subtrees
    /// unexplored, so the yielded set is a (sound but possibly
    /// incomplete) subset. Always implies `stopped_early`. Never set on
    /// un-budgeted runs, so stats stay bit-identical when no budget is
    /// installed or the installed one is not hit.
    pub budget_exhausted: bool,
}

impl SearchStats {
    /// Accumulates another run's counters into `self`: decision counters
    /// add, the two flags OR. Used by consumers aggregating several
    /// searches (e.g. the harness's per-test model stats across its four
    /// model queries).
    pub fn absorb(&mut self, other: &SearchStats) {
        self.nodes += other.nodes;
        self.pruned += other.pruned;
        self.complete += other.complete;
        self.valid += other.valid;
        self.stopped_early |= other.stopped_early;
        self.budget_exhausted |= other.budget_exhausted;
    }
}

/// What the search yields and how aggressively it prunes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// Prune doomed branches; yield only valid executions.
    ValidOnly,
    /// No graph pruning (only circular value dependencies are dropped, as
    /// the legacy enumerator does); yield every complete candidate. Backs
    /// the [`enumerate_candidates`](crate::execution::enumerate_candidates)
    /// compatibility wrapper.
    AllCandidates,
}

/// Visits every **valid** execution of `program` in a streaming fashion —
/// nothing is materialized beyond the single execution handed to the
/// visitor. Return [`ControlFlow::Break`] to stop the search early.
///
/// The executions visited are exactly those of
/// `enumerate_candidates(program)` that pass
/// [`check_validity`](crate::validity::check_validity), without ever
/// holding more than one of them in memory.
pub fn for_each_valid_execution<F>(program: &Program, mut visitor: F) -> SearchStats
where
    F: FnMut(&CandidateExecution) -> ControlFlow<()>,
{
    run(program, Mode::ValidOnly, &mut visitor)
}

/// Early-exit search: true iff some valid execution satisfies `pred`.
///
/// This is the primitive behind
/// [`outcome_allowed`](crate::outcome::outcome_allowed) and the litmus
/// verdicts: the search stops at the first witness.
pub fn any_valid_execution<F>(program: &Program, mut pred: F) -> bool
where
    F: FnMut(&CandidateExecution) -> bool,
{
    let mut found = false;
    for_each_valid_execution(program, |exec| {
        if pred(exec) {
            found = true;
            ControlFlow::Break(())
        } else {
            ControlFlow::Continue(())
        }
    });
    found
}

/// Collects every valid execution (streaming under the hood; the result
/// `Vec` is the only materialization).
pub fn valid_executions(program: &Program) -> Vec<CandidateExecution> {
    let mut out = Vec::new();
    for_each_valid_execution(program, |exec| {
        out.push(exec.clone());
        ControlFlow::Continue(())
    });
    out
}

/// Visits every candidate execution, valid or not (pruning off, matching
/// the legacy enumeration semantics: only circular value dependencies are
/// dropped). Backs the `enumerate_candidates` compatibility wrapper.
pub(crate) fn for_each_candidate<F>(program: &Program, mut visitor: F) -> SearchStats
where
    F: FnMut(&CandidateExecution) -> ControlFlow<()>,
{
    run(program, Mode::AllCandidates, &mut visitor)
}

/// One location's write set: address, implicit initial write, and the
/// non-init writes to serialize after it.
struct LocWrites {
    addr: Addr,
    writes: Vec<EventId>,
}

/// Immutable per-program search context: everything the DFS reads but
/// never writes.
struct SearchCtx {
    ctx: Arc<ExecCtx>,
    mode: Mode,
    locs: Vec<LocWrites>,
    reads: Vec<EventId>,
    rf_choices: Vec<Vec<EventId>>,
    disjuncts: Vec<Disjunct>,
    /// The graphs' fixed part, transitively closed: `ghb` holds
    /// `ppo ∪ bar` and `uni` holds `po-loc`, each plus the fixed
    /// init→write `ws` edges; `dep` holds each RMW's internal `Ra → Wa`.
    base: Graphs,
    /// Per-location serializations holding just the init writes.
    base_ws: BTreeMap<Addr, Vec<EventId>>,
}

/// The three graphs the search grows edge by edge, each kept transitively
/// closed and acyclic: a cycle probe is one bit test, and undo restores a
/// snapshot.
#[derive(Clone)]
struct Graphs {
    /// `com ∪ ppo ∪ bar` (`ValidOnly` mode).
    ghb: DiGraph,
    /// `com ∪ po-loc` — the uniproc check (`ValidOnly` mode).
    uni: DiGraph,
    /// Value dependencies: `rf` edges into RMW reads plus each RMW's
    /// `Ra → Wa`.
    dep: DiGraph,
}

impl Graphs {
    fn copy_from(&mut self, other: &Graphs) {
        self.ghb.copy_from(&other.ghb);
        self.uni.copy_from(&other.uni);
        self.dep.copy_from(&other.dep);
    }

    /// Adds the `com` edge `u → v` to `ghb` and `uni` (it may already be
    /// implied by `ppo`, `bar`, `po-loc` or earlier edges); false when it
    /// would close a cycle in either.
    fn add_com(&mut self, u: EventId, v: EventId) -> bool {
        let (u, v) = (u.index(), v.index());
        self.ghb.close_edge_acyclic(u, v) && self.uni.close_edge_acyclic(u, v)
    }
}

impl SearchCtx {
    fn build(program: &Program, mode: Mode) -> SearchCtx {
        let events = build_events(program);
        let n = events.len();

        // Candidate rf sources per read: writes to the same address, except
        // the read's own RMW write half ("Ra reads an earlier value, not
        // Wa's").
        let reads: Vec<EventId> = events
            .iter()
            .filter(|e| e.is_read())
            .map(|e| e.id)
            .collect();
        let rf_choices: Vec<Vec<EventId>> = reads
            .iter()
            .map(|&r| {
                let er = &events[r.index()];
                events
                    .iter()
                    .filter(|w| w.is_write() && w.addr == er.addr)
                    .filter(|w| match (er.rmw, w.rmw) {
                        (Some(lr), Some(lw)) => lr.rmw_id != lw.rmw_id,
                        _ => true,
                    })
                    .map(|w| w.id)
                    .collect()
            })
            .collect();

        // Per-location write sets, keyed by the (sorted) initial writes.
        let mut by_addr: BTreeMap<Addr, (EventId, Vec<EventId>)> = events
            .iter()
            .filter(|e| e.is_init())
            .map(|e| (e.addr.expect("init write has addr"), (e.id, Vec::new())))
            .collect();
        for e in &events {
            if e.is_write() && !e.is_init() {
                by_addr
                    .get_mut(&e.addr.expect("write has addr"))
                    .expect("every address has an init write")
                    .1
                    .push(e.id);
            }
        }

        // Fixed graph parts. The init write precedes every other write of
        // its location in every candidate, so those `ws` edges are part of
        // the base.
        let (ghb, uni) = if mode == Mode::ValidOnly {
            let mut ghb = ppo_graph_of(&events);
            ghb.union_with(&bar_graph_of(&events));
            let mut uni = poloc_graph_of(&events);
            for (init, ws_writes) in by_addr.values() {
                for &w in ws_writes {
                    ghb.add_edge(init.index(), w.index());
                    uni.add_edge(init.index(), w.index());
                }
            }
            (ghb.transitive_closure(), uni.transitive_closure())
        } else {
            (DiGraph::new(n), DiGraph::new(n))
        };

        // Value dependencies internal to each RMW: Wa's value is computed
        // from what Ra read. No `Wa` has an outgoing edge here, so these
        // edges are already closed.
        let mut dep = DiGraph::new(n);
        {
            let mut ra_of: BTreeMap<usize, EventId> = BTreeMap::new();
            for e in &events {
                if let Some(l) = e.rmw {
                    if l.half == RmwHalf::Read {
                        ra_of.insert(l.rmw_id.0, e.id);
                    }
                }
            }
            for e in &events {
                if let Some(l) = e.rmw {
                    if l.half == RmwHalf::Write {
                        dep.add_edge(ra_of[&l.rmw_id.0].index(), e.id.index());
                    }
                }
            }
        }

        let base_ws: BTreeMap<Addr, Vec<EventId>> = by_addr
            .iter()
            .map(|(&a, (init, _))| (a, vec![*init]))
            .collect();
        let locs: Vec<LocWrites> = by_addr
            .into_iter()
            .map(|(addr, (_, writes))| LocWrites { addr, writes })
            .collect();
        let disjuncts = if mode == Mode::ValidOnly {
            atomicity_disjuncts(&events)
        } else {
            Vec::new()
        };

        SearchCtx {
            ctx: ExecCtx::new(events),
            mode,
            locs,
            reads,
            rf_choices,
            disjuncts,
            base: Graphs { ghb, uni, dep },
            base_ws,
        }
    }
}

/// The outcome sets one search collects: the searched program's (slot 0)
/// and each *member*'s (slots `1..`). A member is a uniform atomicity
/// rewrite `program.with_atomicity(a)`: it shares the program's events,
/// event numbering and decision tree, and differs only in its `ato`
/// disjunctions, so the search tests each complete leaf against every
/// slot's disjunctions on the same closed `ghb`. Which rewrites qualify
/// is the caller's business ([`crate::cache`]); a slot's `valid` equals
/// that of a fresh search of its program, and so do the set and, with
/// the shared `nodes`/`pruned`/`complete`, the whole [`SearchStats`].
pub(crate) struct Family {
    /// Each member's disjunctions (slot `i + 1`); slot 0 uses the
    /// context's own.
    members: Vec<Vec<Disjunct>>,
    /// The slot whose program is the uniform type-3 rewrite, if any.
    /// Type-3 forbids a subset of what every type forbids
    /// ([`Atomicity::forbids_between`]), so its disjunctions are a subset
    /// of every slot's: a leaf it refutes is refuted by all.
    floor: Option<usize>,
    /// Every accepted leaf's outcome, with the mask of the slots that
    /// accepted a leaf of that outcome (bit `i` for slot `i`).
    outcomes: FastHashMap<Outcome, u8>,
    /// Per slot, the number of leaves it accepts: its `valid`.
    valid: Vec<u64>,
}

impl Family {
    /// The family of `program` and its uniform rewrites to `rewrites`,
    /// each of which must differ from `program`.
    pub(crate) fn new(program: &Program, rewrites: &[Atomicity]) -> Family {
        let members: Vec<Vec<Disjunct>> = rewrites
            .iter()
            .map(|&a| atomicity_disjuncts(&build_events(&program.with_atomicity(a))))
            .collect();
        let floor = if program.with_atomicity(Atomicity::Type3) == *program {
            Some(0)
        } else {
            rewrites
                .iter()
                .position(|&a| a == Atomicity::Type3)
                .map(|i| i + 1)
        };
        debug_assert!(members.len() < 8, "one mask bit per slot");
        Family {
            valid: vec![0; members.len() + 1],
            members,
            floor,
            outcomes: FastHashMap::default(),
        }
    }

    /// The mask of the slots (bit `i` for slot `i`) whose disjunctions the
    /// closed `ghb` of a complete leaf satisfies; `own` are slot 0's.
    fn accepting(&self, ghb: &DiGraph, own: &[Disjunct]) -> u8 {
        let test = |slot: usize| {
            let disjuncts = if slot == 0 {
                own
            } else {
                &self.members[slot - 1]
            };
            ato_satisfiable(ghb, disjuncts)
        };
        let mut mask = 0;
        if let Some(floor) = self.floor {
            if !test(floor) {
                return 0;
            }
            mask |= 1 << floor;
        }
        for slot in (0..=self.members.len()).filter(|&s| Some(s) != self.floor) {
            if test(slot) {
                mask |= 1 << slot;
            }
        }
        mask
    }

    /// Adds one accepted leaf's outcome to every slot in `mask`.
    fn record(&mut self, mask: u8, outcome: Outcome) {
        *self.outcomes.entry(outcome).or_default() |= mask;
        for (slot, valid) in self.valid.iter_mut().enumerate() {
            *valid += u64::from(mask >> slot & 1);
        }
    }

    /// Per slot, the outcome set and the number of accepted leaves. Each
    /// outcome moves into the last slot of its mask and is cloned into
    /// the others.
    pub(crate) fn into_answers(self) -> Vec<(BTreeSet<Outcome>, u64)> {
        let mut sets = vec![BTreeSet::new(); self.valid.len()];
        for (outcome, mask) in self.outcomes {
            let last = u8::BITS - 1 - mask.leading_zeros();
            for slot in (0..last).filter(|&s| mask >> s & 1 == 1) {
                sets[slot as usize].insert(outcome.clone());
            }
            sets[last as usize].insert(outcome);
        }
        sets.into_iter().zip(self.valid).collect()
    }
}

/// The verdict cache's fresh search of `program` (pruned): the full
/// sequential DFS, collecting the outcome sets of `family` (built for
/// `program`) instead of yielding executions. Under a [`QueryBudget`] the
/// DFS additionally charges every decision node and aborts, marking the
/// stats budget-exhausted, when it runs out; `budget = None` never
/// truncates.
pub(crate) fn run_family(
    program: &Program,
    family: &mut Family,
    budget: Option<&QueryBudget>,
) -> SearchStats {
    let sc = SearchCtx::build(program, Mode::ValidOnly);
    let mut ignore = |_: &CandidateExecution| ControlFlow::Continue(());
    let mut search = Search::new(&sc, &mut ignore);
    search.budget = budget;
    search.family = Some(family);
    let _ = search.search_ws(0, 0);
    search.stats
}

struct Search<'a> {
    sc: &'a SearchCtx,
    /// The closed graphs of the current partial assignment.
    graphs: Graphs,
    /// `saved[d]` holds `graphs` as they were on entry to the decision
    /// level at depth `d` of the current path; each level restores it
    /// after every child. Slots are allocated the first time a depth is
    /// reached and reused after.
    saved: Vec<Graphs>,
    ws: BTreeMap<Addr, Vec<EventId>>,
    rf: BTreeMap<EventId, EventId>,
    stats: SearchStats,
    /// When set, every decision node is charged against this query
    /// budget; exhaustion aborts the run with `stats.budget_exhausted`
    /// set.
    budget: Option<&'a QueryBudget>,
    visitor: &'a mut dyn FnMut(&CandidateExecution) -> ControlFlow<()>,
    /// When set, every complete leaf is also tested for the family's
    /// members and its outcome recorded for each slot that accepts it.
    family: Option<&'a mut Family>,
}

fn run(
    program: &Program,
    mode: Mode,
    visitor: &mut dyn FnMut(&CandidateExecution) -> ControlFlow<()>,
) -> SearchStats {
    let sc = SearchCtx::build(program, mode);
    let mut search = Search::new(&sc, visitor);
    // A `Break` here is just the early exit reaching the root.
    let _ = search.search_ws(0, 0);
    search.stats
}

impl<'a> Search<'a> {
    fn new(
        sc: &'a SearchCtx,
        visitor: &'a mut dyn FnMut(&CandidateExecution) -> ControlFlow<()>,
    ) -> Self {
        Search {
            sc,
            graphs: sc.base.clone(),
            saved: Vec::new(),
            ws: sc.base_ws.clone(),
            rf: BTreeMap::new(),
            stats: SearchStats::default(),
            budget: None,
            visitor,
            family: None,
        }
    }

    /// True when the query budget ran out; the caller unwinds with
    /// `Break`, and the run is marked stopped early and budget-exhausted.
    fn should_stop(&mut self) -> bool {
        if self.budget.is_some_and(QueryBudget::charge) {
            self.stats.stopped_early = true;
            self.stats.budget_exhausted = true;
            return true;
        }
        false
    }

    /// Snapshots the graphs into the slot of decision depth `depth`.
    fn save(&mut self, depth: usize) {
        match self.saved.get_mut(depth) {
            Some(slot) => slot.copy_from(&self.graphs),
            None => {
                debug_assert_eq!(self.saved.len(), depth, "depths are entered in order");
                self.saved.push(self.graphs.clone());
            }
        }
    }

    /// Restores the graphs from the slot of decision depth `depth`.
    fn restore(&mut self, depth: usize) {
        self.graphs.copy_from(&self.saved[depth]);
    }

    /// DFS level 1: serialize the writes of location `li` (then recurse to
    /// the next location, then to `rf` assignment). `depth` counts the
    /// decisions already on the path.
    fn search_ws(&mut self, li: usize, depth: usize) -> ControlFlow<()> {
        let Some(loc) = self.sc.locs.get(li) else {
            return self.search_rf(0, depth);
        };
        let mut remaining = loc.writes.clone();
        self.place_writes(li, &mut remaining, depth)
    }

    /// Chooses the next write in location `li`'s serialization among
    /// `remaining`, committing the implied `ws` edges incrementally.
    fn place_writes(
        &mut self,
        li: usize,
        remaining: &mut Vec<EventId>,
        depth: usize,
    ) -> ControlFlow<()> {
        if remaining.is_empty() {
            return self.search_ws(li + 1, depth);
        }
        let addr = self.sc.locs[li].addr;
        self.save(depth);
        for i in 0..remaining.len() {
            if self.should_stop() {
                return ControlFlow::Break(());
            }
            let w = remaining.remove(i);
            self.stats.nodes += 1;
            let viable = self.sc.mode == Mode::AllCandidates || self.precede(w, remaining);
            self.ws.get_mut(&addr).expect("ws has every addr").push(w);

            let flow = if viable {
                self.place_writes(li, remaining, depth + 1)
            } else {
                self.stats.pruned += 1;
                ControlFlow::Continue(())
            };

            self.ws.get_mut(&addr).expect("ws has every addr").pop();
            self.restore(depth);
            remaining.insert(i, w);
            flow?;
        }
        ControlFlow::Continue(())
    }

    /// Places `w` before every write in `later`. Placing `w` next means
    /// `w` precedes every still-unplaced write of its location in every
    /// completion of this branch. (Edges from the already-placed prefix to
    /// `w` were added when those writes were placed; init → `w` is in the
    /// base.) False when an edge would close a cycle.
    fn precede(&mut self, w: EventId, later: &[EventId]) -> bool {
        later.iter().all(|&u| self.graphs.add_com(w, u))
    }

    /// DFS level 2: assign a reads-from source to read `ri` (all `ws`
    /// serializations are complete at this point, so the choice fixes the
    /// read's `rfe` and `fr` edges exactly).
    fn search_rf(&mut self, ri: usize, depth: usize) -> ControlFlow<()> {
        let Some(&r) = self.sc.reads.get(ri) else {
            return self.complete();
        };
        self.save(depth);
        for ci in 0..self.sc.rf_choices[ri].len() {
            if self.should_stop() {
                return ControlFlow::Break(());
            }
            let w = self.sc.rf_choices[ri][ci];
            self.stats.nodes += 1;

            let flow = if self.push_rf(ri, w) {
                self.search_rf(ri + 1, depth + 1)
            } else {
                self.stats.pruned += 1;
                ControlFlow::Continue(())
            };

            self.rf.remove(&r);
            self.restore(depth);
            flow?;
        }
        ControlFlow::Continue(())
    }

    /// Commits read `ri`'s `rf` choice `w`: the value-dependency edge (for
    /// RMW read halves), the `rf` map entry, and — in pruning mode — the
    /// implied `rfe` and `fr` edges. False, with the graphs partly updated
    /// (the caller restores them), when an edge would close a cycle.
    fn push_rf(&mut self, ri: usize, w: EventId) -> bool {
        let sc = self.sc;
        let r = sc.reads[ri];
        let er = &sc.ctx.events[r.index()];
        // Value dependency r ← w; a cycle means an RMW's value would
        // depend on itself — dropped in every mode (as the legacy
        // enumerator drops candidates `resolve_values` rejects). Only an
        // RMW read half has an outgoing dep edge, so a plain read can never
        // be on a cycle and its dep edge is elided.
        if er.rmw.is_some() && !self.graphs.dep.close_edge_acyclic(w.index(), r.index()) {
            return false;
        }
        self.rf.insert(r, w);
        if sc.mode == Mode::AllCandidates {
            return true;
        }
        let ew = &sc.ctx.events[w.index()];
        let external = ew.is_init() || er.tid != ew.tid;
        // rfe: external reads-from participates in com (both graphs); rfi
        // participates in uniproc only — it is not `ghb` (TSO store
        // forwarding) but still forbids reading one's own po-later write.
        let source = if external {
            self.graphs.add_com(w, r)
        } else {
            self.graphs.uni.close_edge_acyclic(w.index(), r.index())
        };
        // fr: r precedes every write ws-after its source.
        let order = &self.ws[&er.addr.expect("read has addr")];
        let pos = order
            .iter()
            .position(|&x| x == w)
            .expect("rf source is in ws");
        source && order[pos + 1..].iter().all(|&u| self.graphs.add_com(r, u))
    }

    /// A complete `rf × ws` assignment: finish the validity check (the
    /// atomicity disjunctions), then assemble the execution and yield.
    /// With a family, the leaf is tested for every slot; it is assembled
    /// when any slot accepts it, but yielded only when the searched
    /// program does.
    fn complete(&mut self) -> ControlFlow<()> {
        self.stats.complete += 1;
        // uniproc already holds (incremental `uni` checks); what is left is
        // the existential over atomicity-induced edges, decided on the
        // closed `com ∪ ppo ∪ bar`. Bit 0 of the mask is the searched
        // program, bit `i` the family's slot `i`.
        let valid_only = self.sc.mode == Mode::ValidOnly;
        let (ghb, own) = (&self.graphs.ghb, &self.sc.disjuncts);
        let accepted = match &self.family {
            Some(family) => family.accepting(ghb, own),
            None => u8::from(!valid_only || ato_satisfiable(ghb, own)),
        };
        if accepted == 0 {
            return ControlFlow::Continue(());
        }
        let Some(values) = resolve_values(&self.sc.ctx.events, &self.rf) else {
            // Unreachable: the dep graph is acyclic on this path, and it
            // contains every value dependency `resolve_values` follows.
            return ControlFlow::Continue(());
        };
        let exec = CandidateExecution::assemble(
            Arc::clone(&self.sc.ctx),
            self.rf.clone(),
            self.ws.clone(),
            values,
        );
        if let Some(family) = &mut self.family {
            family.record(accepted, Outcome::of_execution(&exec));
        }
        if accepted & 1 == 0 {
            return ControlFlow::Continue(());
        }
        if valid_only {
            self.stats.valid += 1;
        }
        let flow = (self.visitor)(&exec);
        if flow.is_break() {
            self.stats.stopped_early = true;
        }
        flow
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::execution::enumerate_candidates;
    use crate::program::ProgramBuilder;
    use crate::validity::check_validity;
    use rmw_types::{Atomicity, RmwKind};
    use std::collections::BTreeSet;

    const X: Addr = Addr(0);
    const Y: Addr = Addr(1);

    fn sb() -> Program {
        let mut b = ProgramBuilder::new();
        b.thread().write(X, 1).read(Y);
        b.thread().write(Y, 1).read(X);
        b.build()
    }

    /// Reference implementation: legacy enumeration + filter.
    fn legacy_valid_read_values(p: &Program) -> BTreeSet<Vec<u64>> {
        enumerate_candidates(p)
            .into_iter()
            .filter(|c| check_validity(c).is_valid())
            .map(|c| c.read_values())
            .collect()
    }

    #[test]
    fn streaming_matches_legacy_on_sb() {
        let p = sb();
        let mut streamed = BTreeSet::new();
        let stats = for_each_valid_execution(&p, |exec| {
            streamed.insert(exec.read_values());
            ControlFlow::Continue(())
        });
        assert_eq!(streamed, legacy_valid_read_values(&p));
        assert_eq!(stats.valid as usize, valid_executions(&p).len());
        assert!(!stats.stopped_early);
    }

    #[test]
    fn reads_never_source_their_own_future_writes() {
        // Regression: `rfi` was absent from the uniproc graph in both
        // engines, so a read could source its own po-*later* write. Found
        // by the zoo spin-handoff litmus family — the phantom execution
        // let a lock acquirer see 0 from its own upcoming release store.
        let mut b = ProgramBuilder::new();
        b.thread().read(X).write(X, 1);
        b.thread().write(X, 2);
        let p = b.build();
        for c in enumerate_candidates(&p) {
            if c.read_values() == vec![1] {
                assert!(
                    !check_validity(&c).is_valid(),
                    "legacy checker accepted a read-from-the-future"
                );
            }
        }
        let streamed = legacy_valid_read_values(&p);
        assert_eq!(streamed, BTreeSet::from([vec![0], vec![2]]));
        for e in valid_executions(&p) {
            assert_ne!(
                e.read_values(),
                vec![1],
                "streaming search accepted a read-from-the-future"
            );
        }
        // The TAS handoff shape that exposed the bug: T0 acquires,
        // publishes, releases; T1's TAS observes the release. T1 reading
        // stale data is forbidden once the phantom execution is gone.
        let (lock, data) = (X, Y);
        let mut b = ProgramBuilder::new();
        b.thread()
            .rmw(lock, RmwKind::TestAndSet, Atomicity::Type1)
            .write(data, 1)
            .write(lock, 0);
        b.thread()
            .rmw(lock, RmwKind::TestAndSet, Atomicity::Type1)
            .read(data);
        let p = b.build();
        assert!(!any_valid_execution(&p, |e| e.read_values() == vec![0, 0, 0]));
    }

    #[test]
    fn streaming_matches_legacy_with_rmws_and_fences() {
        let mut b = ProgramBuilder::new();
        b.thread()
            .write(X, 1)
            .rmw(Y, RmwKind::FetchAndAdd(1), Atomicity::Type2)
            .read(X);
        b.thread().write(Y, 5).fence().read(X);
        let p = b.build();
        let mut streamed = BTreeSet::new();
        for_each_valid_execution(&p, |exec| {
            streamed.insert(exec.read_values());
            ControlFlow::Continue(())
        });
        assert_eq!(streamed, legacy_valid_read_values(&p));
    }

    #[test]
    fn early_exit_stops_the_search() {
        let p = sb();
        let mut seen = 0u32;
        let stats = for_each_valid_execution(&p, |_| {
            seen += 1;
            ControlFlow::Break(())
        });
        assert_eq!(seen, 1);
        assert!(stats.stopped_early);
        // The early-exit variant agrees with an exhaustive check.
        assert!(any_valid_execution(&p, |e| e.read_values() == vec![0, 0]));
        assert!(!any_valid_execution(&p, |e| e.read_values() == vec![9, 9]));
    }

    #[test]
    fn pruning_cuts_branches_without_losing_executions() {
        // Three same-thread writes: 3! = 6 serializations, only the po
        // order survives — the other branches must be pruned, not filtered
        // at the leaves.
        let mut b = ProgramBuilder::new();
        b.thread().write(X, 1).write(X, 2).write(X, 3);
        b.thread().read(X).read(X);
        let p = b.build();
        let mut streamed = BTreeSet::new();
        let stats = for_each_valid_execution(&p, |exec| {
            streamed.insert(exec.read_values());
            ControlFlow::Continue(())
        });
        assert_eq!(streamed, legacy_valid_read_values(&p));
        assert!(stats.pruned > 0, "expected pruning, got {stats:?}");
        let legacy_leaves = enumerate_candidates(&p).len() as u64;
        assert!(
            stats.complete < legacy_leaves,
            "streaming reached {} leaves, legacy materializes {legacy_leaves}",
            stats.complete
        );
    }

    #[test]
    fn valid_executions_pass_check_validity() {
        for exec in valid_executions(&sb()) {
            assert!(check_validity(&exec).is_valid());
        }
    }

    #[test]
    fn empty_program_has_one_trivial_execution() {
        let p = Program::new();
        let stats = for_each_valid_execution(&p, |exec| {
            assert!(exec.read_values().is_empty());
            ControlFlow::Continue(())
        });
        assert_eq!(stats.valid, 1);
    }

    #[test]
    fn absorb_sums_counters_and_ors_early_stop() {
        let mut a = SearchStats {
            nodes: 10,
            pruned: 2,
            complete: 3,
            valid: 1,
            stopped_early: false,
            budget_exhausted: false,
        };
        let b = SearchStats {
            nodes: 5,
            pruned: 1,
            complete: 2,
            valid: 2,
            stopped_early: true,
            budget_exhausted: true,
        };
        a.absorb(&b);
        assert_eq!(a.nodes, 15);
        assert_eq!(a.pruned, 3);
        assert_eq!(a.complete, 5);
        assert_eq!(a.valid, 3);
        assert!(a.stopped_early);
        assert!(a.budget_exhausted);
    }
}
