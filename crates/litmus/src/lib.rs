//! Litmus-test corpus for the *Fast RMWs for TSO* reproduction.
//!
//! A [`Litmus`] bundles a [`Program`], a *target outcome* (a conjunction of
//! `read#i == v` constraints over the program's read events), and an
//! [`Expect`]ation of whether the TSO model allows that outcome. The
//! [`Litmus::check`] method runs the axiomatic model and compares.
//!
//! Two corpora are provided:
//!
//! * [`classic`] — the standard TSO tests (SB, MP, LB, IRIW, R, 2+2W, ...)
//!   used to validate the base model against the known TSO verdicts;
//! * [`paper`] — every Dekker scenario of the paper (Figures 1, 3, 4, 5, 8)
//!   plus the write-deadlock shape of Figure 10, each parameterized by the
//!   RMW [`Atomicity`], with the expectations of the paper's Table 1.
//!
//! ```
//! use litmus::classic;
//!
//! let sb = classic::sb();
//! assert!(sb.check().passed);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use rmw_types::{Atomicity, Value};
use tso_model::{
    allowed_outcomes_cached, find_execution, CachedOutcomes, CandidateExecution, Program,
    SearchStats,
};

pub mod classic;
pub mod gen;
pub mod paper;

/// Whether the target outcome should be allowed or forbidden by the model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expect {
    /// Some valid execution exhibits the target outcome.
    Allowed,
    /// No valid execution exhibits the target outcome.
    Forbidden,
}

impl core::fmt::Display for Expect {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(match self {
            Expect::Allowed => "allowed",
            Expect::Forbidden => "forbidden",
        })
    }
}

/// A conjunction of constraints `read #index == value` over the program's
/// reads in `(thread, po)` order (RMW reads included).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Target(pub Vec<(usize, Value)>);

impl Target {
    /// True iff `reads` satisfies every constraint.
    ///
    /// # Panics
    ///
    /// Panics if a constraint index is out of bounds for `reads`.
    pub fn matches(&self, reads: &[Value]) -> bool {
        self.0.iter().all(|&(i, v)| reads[i] == v)
    }

    /// True iff some outcome in `cached` satisfies the target: the one
    /// membership question every verdict in this crate asks.
    pub(crate) fn observed_in(&self, cached: &CachedOutcomes) -> bool {
        cached
            .outcomes
            .iter()
            .any(|o| self.matches(&o.read_values()))
    }
}

impl core::fmt::Display for Target {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let parts: Vec<String> = self.0.iter().map(|(i, v)| format!("r{i}={v}")).collect();
        f.write_str(&parts.join(" ∧ "))
    }
}

/// A named litmus test with its expected verdict.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Litmus {
    /// Short name, e.g. `"SB"` or `"dekker-wr type-2"`.
    pub name: String,
    /// One-line description of what the test demonstrates.
    pub description: String,
    /// The program.
    pub program: Program,
    /// The interesting outcome.
    pub target: Target,
    /// Whether the model should allow the target.
    pub expect: Expect,
}

/// Result of checking one litmus test against the model.
#[derive(Debug, Clone)]
pub struct CheckResult {
    /// The test name.
    pub name: String,
    /// What the model said: was the target outcome observed among valid
    /// executions?
    pub observed_allowed: bool,
    /// What was expected.
    pub expect: Expect,
    /// `observed == expected`.
    pub passed: bool,
    /// When a `Forbidden` expectation is contradicted, the valid execution
    /// exhibiting the target — `rf`, `ws`, and resolved read values — that
    /// [`report`](Self::report) prints. `None` on every other check, so a
    /// passing check costs one outcome-set lookup and no search; code that
    /// wants the execution behind an allowed outcome calls
    /// [`find_execution`] itself.
    pub witness: Option<CandidateExecution>,
    /// Stats of the model search behind this verdict. On a cache hit the
    /// numbers are *attributed* — the search ran once, when the program's
    /// canonical class was first proven.
    pub model_stats: SearchStats,
    /// True when the verdict was served from the memoized outcome-set
    /// cache (no model search ran for this call).
    pub cache_hit: bool,
    /// True when the verdict is *inconclusive*: the model search hit an
    /// installed [`tso_model::SearchBudget`] and the target outcome was
    /// not among the (sound but possibly incomplete) outcomes it did
    /// prove. An unknown check reports `passed: true` — a truncated
    /// search can make verdicts go missing, never wrong. When the target
    /// *was* observed the verdict is conclusive even under a budget
    /// (every yielded execution is genuinely valid), so `unknown` stays
    /// false and a failed `Forbidden` expectation still fails.
    pub unknown: bool,
}

impl CheckResult {
    /// Human-readable verdict, including the counterexample execution (its
    /// `rf`, `ws`, and read values) when a `Forbidden` expectation was
    /// contradicted.
    pub fn report(&self) -> String {
        let mut s = format!(
            "{}: expected {}, model observed allowed={} — {}",
            self.name,
            self.expect,
            self.observed_allowed,
            if self.passed { "pass" } else { "FAIL" }
        );
        if let Some(w) = &self.witness {
            s.push_str(&format!(
                "\nwitness execution (reads = {:?}):\n{}",
                w.read_values(),
                w.pretty()
            ));
        }
        s
    }
}

impl Litmus {
    /// Runs the axiomatic model and compares against the expectation.
    ///
    /// The verdict rides on the **memoized** outcome-set cache
    /// ([`allowed_outcomes_cached`]): the program is canonicalized under
    /// thread- and address-renaming, its full allowed-outcome set is
    /// proven once per equivalence class, and the target is tested against
    /// that set. Checking the same program again — or any of its permuted
    /// siblings, or its `with_atomicity` rewrites when it has no RMWs —
    /// costs a lookup, not a search. Only a contradicted `Forbidden`
    /// expectation searches again, with an early-exit [`find_execution`],
    /// for the counterexample kept as [`CheckResult::witness`].
    pub fn check(&self) -> CheckResult {
        let cached = allowed_outcomes_cached(&self.program);
        let observed_allowed = self.target.observed_in(&cached);
        // Budget-truncated outcome sets are sound subsets: observation is
        // conclusive, non-observation is not (see `CheckResult::unknown`).
        let unknown = cached.unknown && !observed_allowed;
        let passed = unknown
            || match self.expect {
                Expect::Allowed => observed_allowed,
                Expect::Forbidden => !observed_allowed,
            };
        let witness = (self.expect == Expect::Forbidden && observed_allowed).then(|| {
            find_execution(&self.program, |reads| self.target.matches(reads))
                .expect("an observed outcome has a witness execution")
        });
        CheckResult {
            name: self.name.clone(),
            observed_allowed,
            expect: self.expect,
            passed,
            witness,
            model_stats: cached.stats,
            cache_hit: cached.hit,
            unknown,
        }
    }
}

/// Runs every test and returns the failures (empty = all passed).
pub fn run_all(tests: &[Litmus]) -> Vec<CheckResult> {
    tests
        .iter()
        .map(Litmus::check)
        .filter(|r| !r.passed)
        .collect()
}

/// One row of the paper's Table 1: which idioms work with which atomicity.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table1Row {
    /// Which atomicity definition this row describes.
    pub atomicity: Atomicity,
    /// Dekker's with reads replaced by RMWs works?
    pub dekker_reads: bool,
    /// Dekker's with writes replaced by RMWs works?
    pub dekker_writes: bool,
    /// Dekker's with RMWs as barriers (different addresses) works?
    pub rmws_as_barriers: bool,
}

/// Recomputes the hardware-idiom columns of the paper's Table 1 from the
/// model (the C/C++11 columns live in the `cc11` crate).
///
/// An idiom "works" when the bad outcome (mutual exclusion failure) is
/// *forbidden* by the model.
pub fn table1() -> Vec<Table1Row> {
    Atomicity::ALL
        .iter()
        .map(|&a| Table1Row {
            atomicity: a,
            dekker_reads: !observed(paper::dekker_read_replacement(a)),
            dekker_writes: !observed(paper::dekker_write_replacement(a)),
            rmws_as_barriers: !observed(paper::dekker_rmw_barriers_diff_addr(a)),
        })
        .collect()
}

fn observed(l: Litmus) -> bool {
    l.target.observed_in(&allowed_outcomes_cached(&l.program))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn target_matching() {
        let t = Target(vec![(0, 1), (2, 0)]);
        assert!(t.matches(&[1, 9, 0]));
        assert!(!t.matches(&[0, 9, 0]));
        assert_eq!(t.to_string(), "r0=1 ∧ r2=0");
    }

    #[test]
    fn expect_display() {
        assert_eq!(Expect::Allowed.to_string(), "allowed");
        assert_eq!(Expect::Forbidden.to_string(), "forbidden");
    }

    #[test]
    fn run_all_reports_only_failures() {
        let ok = classic::sb();
        let failures = run_all(&[ok]);
        assert!(failures.is_empty());
    }

    /// A check carries a witness exactly when a `Forbidden` expectation is
    /// contradicted: the one case with a counterexample to print.
    #[test]
    fn check_attaches_a_witness_exactly_when_observed() {
        // Allowed + observed: passes on the lookup alone, no witness.
        let r = classic::sb().check();
        assert!(r.passed && r.observed_allowed);
        assert!(r.witness.is_none());
        assert!(!r.report().contains("witness execution"));

        // Forbidden + not observed: no witness, report has no execution.
        let r = classic::mp().check();
        assert!(r.passed && !r.observed_allowed);
        assert!(r.witness.is_none());
        assert!(!r.report().contains("witness execution"));

        // A contradicted Allowed expectation has no execution to show.
        let mut unmet = classic::mp();
        unmet.expect = Expect::Allowed;
        let r = unmet.check();
        assert!(!r.passed && !r.observed_allowed);
        assert!(r.witness.is_none());

        // A contradicted Forbidden expectation carries the counterexample.
        let mut broken = classic::sb();
        broken.expect = Expect::Forbidden;
        let r = broken.check();
        assert!(!r.passed);
        let w = r
            .witness
            .as_ref()
            .expect("failure against Forbidden has a counterexample");
        assert!(broken.target.matches(&w.read_values()));
        assert_eq!(w.read_values(), vec![0, 0]);
        let report = r.report();
        assert!(report.contains("FAIL"));
        assert!(report.contains("witness execution"));
        assert!(report.contains("rf:"), "witness report shows rf edges");
    }

    #[test]
    fn table1_matches_paper() {
        // Paper Table 1 (hardware idiom columns):
        //            reads-replaced  writes-replaced  barriers(diff addr)
        // type-1:        ✓                ✓                 ✓
        // type-2:        ✓                ✓                 ✗
        // type-3:        ✓                ✗                 ✗
        let rows = table1();
        assert_eq!(rows.len(), 3);
        let t1 = &rows[0];
        assert!(t1.dekker_reads && t1.dekker_writes && t1.rmws_as_barriers);
        let t2 = &rows[1];
        assert!(t2.dekker_reads && t2.dekker_writes && !t2.rmws_as_barriers);
        let t3 = &rows[2];
        assert!(t3.dekker_reads && !t3.dekker_writes && !t3.rmws_as_barriers);
    }
}
