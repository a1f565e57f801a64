//! Axiomatic TSO memory model with weak RMW atomicity, reproducing §2 of
//! *Fast RMWs for TSO: Semantics and Implementation* (PLDI 2013).
//!
//! The model follows Alglave's framework, as the paper does:
//!
//! * a [`Program`] yields *candidate executions*: an assignment of a
//!   reads-from map `rf` and a per-location write serialization `ws`;
//! * from these we derive `fr` (from-reads), `rfe` (external reads-from) and
//!   `com = ws ∪ rfe ∪ fr`;
//! * TSO's preserved program order `ppo` keeps all of `po` except W→R;
//!   `bar` relates operations separated by a fence;
//! * each RMW contributes *atomicity-induced* ordering obligations `ato`:
//!   for every event `M` whose shape its [`Atomicity`](rmw_types::Atomicity)
//!   forbids between the
//!   RMW's read `Ra` and write `Wa`, either `M →ghb Ra` or `Wa →ghb M`;
//! * a candidate is **valid** iff `com ∪ ppo ∪ bar ∪ ato` can be made
//!   acyclic by some choice of the `ato` disjuncts, and the `uniproc`
//!   condition (per-location SC) holds. A linear extension of the union is
//!   the global-happens-before order `ghb`.
//!
//! Candidate executions are explored by a **streaming, pruned search**
//! ([`search`]): `rf` and `ws` are assigned incrementally (DFS over
//! per-location choices) and a branch is cut as soon as a partial
//! assignment is doomed — coherence (`uniproc`) violations, circular value
//! dependencies, or `com ∪ ppo ∪ bar` cycles, all detected incrementally
//! on bitset digraphs. Valid executions stream through a visitor
//! ([`for_each_valid_execution`]) with early exit
//! ([`outcome_allowed`]) — this is the engine under the `litmus` corpus,
//! the lemma-1/2/3 checks, and `cc11`'s mapping verification. The legacy
//! [`enumerate_candidates`] survives as a materializing compatibility
//! wrapper.
//!
//! Two layers scale that engine across a corpus (each observationally
//! invisible — same sets, same verdicts, same decision stats):
//!
//! * [`canon`] — **symmetry reduction**: programs are canonicalized
//!   under thread- and address-renaming
//!   ([`Program::canonicalize`](program::Program::canonicalize));
//! * [`cache`] — **verdict memoization**: [`allowed_outcomes_cached`]
//!   answers a query from memory, then from an installed persistent
//!   [`VerdictStore`], then with one fresh search, which also answers the
//!   program's uniform atomicity rewrites at the same leaves; each
//!   canonical class is proven once, process-wide.
//!
//! [`prefix`] holds only the inert names of the deleted prefix-certificate
//! tier, kept for the end-to-end benchmark.
//!
//! # Quickstart
//!
//! ```
//! use tso_model::{Program, ProgramBuilder, allowed_outcomes};
//! use rmw_types::{Addr, Atomicity};
//!
//! // Store buffering (SB): TSO famously allows both reads to see 0.
//! let x = Addr(0);
//! let y = Addr(1);
//! let mut b = ProgramBuilder::new();
//! b.thread().write(x, 1).read(y);
//! b.thread().write(y, 1).read(x);
//! let prog = b.build();
//!
//! let outcomes = allowed_outcomes(&prog);
//! assert!(outcomes.iter().any(|o| o.read_values() == vec![0, 0]));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod budget;
pub mod cache;
pub mod canon;
pub mod event;
pub mod execution;
pub mod graph;
pub mod lemmas;
pub mod outcome;
pub mod prefix;
pub mod program;
pub mod search;
pub mod validity;

pub use budget::{set_budget, take_budget, SearchBudget};
pub use cache::{allowed_outcomes_cached, CacheCounters, CachedOutcomes, VerdictStore};
pub use canon::Canonical;
pub use event::{Event, EventId, EventKind, RmwHalf};
pub use execution::{enumerate_candidates, CandidateExecution};
pub use graph::DiGraph;
pub use outcome::{
    allowed_outcomes, allowed_outcomes_with_stats, find_execution, outcome_allowed, Outcome,
};
pub use program::{Instr, Program, ProgramBuilder, ThreadBuilder};
pub use search::{any_valid_execution, for_each_valid_execution, valid_executions, SearchStats};
pub use validity::{check_validity, Validity, Witness};
