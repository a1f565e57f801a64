//! Search budgets: bounded node counts and wall-clock deadlines for the
//! cache-tier model queries.
//!
//! The axiomatic search always terminates, but its cost is factorial in
//! events per location, so one pathological program can hold a verdict
//! query for hours. A [`SearchBudget`] installed via [`set_budget`]
//! bounds every *cache-tier* query (the
//! [`allowed_outcomes_cached`](crate::allowed_outcomes_cached) path
//! behind the litmus verdicts and the differential harness). `litmus_run`
//! installs one for its corpus mode's `--budget-nodes` and `--budget-ms`;
//! campaign mode installs none. When the budget is exhausted mid-search,
//! the query stops at the next decision node and returns whatever it has
//! with [`SearchStats::budget_exhausted`](crate::SearchStats::budget_exhausted)
//! set, which the cache layer surfaces as an explicit *unknown* answer
//! ([`CachedOutcomes::unknown`](crate::CachedOutcomes::unknown)).
//!
//! The contract is *missing, never wrong*:
//!
//! * every execution yielded before exhaustion is genuinely valid, so
//!   **positive** observations (a witness was found) remain sound;
//! * **absence** is unproven, so consumers must treat "not observed" as
//!   unknown, not forbidden;
//! * a truncated result never poisons the cache — the in-memory verdict
//!   cache and the persistent [`VerdictStore`](crate::VerdictStore) both
//!   skip budget-exhausted answers, and a truncated search answers no
//!   member of its atomicity family, so a later (or un-budgeted) query
//!   recomputes from scratch.
//!
//! A budget decides only what the cache commits, not which code runs:
//! budgeted and un-budgeted queries take the same fill path, so
//! concurrent misses on one key collapse to one search either way. With
//! no budget installed — or with one installed but never hit — every
//! result and every [`SearchStats`](crate::SearchStats) is bit-identical
//! to the un-budgeted engine.

use std::cell::Cell;
use std::sync::RwLock;
use std::time::{Duration, Instant};

/// A bound on the work one cache-tier model query may spend.
///
/// Both limits are optional; an all-`None` budget never exhausts. The
/// node limit counts decision nodes (the same quantity as
/// [`SearchStats::nodes`](crate::SearchStats::nodes)) of one query; the
/// deadline is measured from the moment the query starts its search.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SearchBudget {
    /// Maximum decision nodes a single query may explore.
    pub max_nodes: Option<u64>,
    /// Maximum wall-clock time a single query may search for.
    pub max_time: Option<Duration>,
}

impl SearchBudget {
    /// True when the budget can never exhaust (both limits absent).
    pub fn is_unlimited(&self) -> bool {
        self.max_nodes.is_none() && self.max_time.is_none()
    }
}

static BUDGET: RwLock<Option<SearchBudget>> = RwLock::new(None);

/// Installs the process-wide search budget (replacing any previous one).
/// Applies to every subsequent cache-tier query until [`take_budget`].
pub fn set_budget(budget: SearchBudget) {
    *BUDGET.write().expect("search budget lock") = Some(budget);
}

/// Uninstalls the process-wide search budget, returning it. Subsequent
/// queries run unbounded, exactly as if no budget was ever set.
pub fn take_budget() -> Option<SearchBudget> {
    BUDGET.write().expect("search budget lock").take()
}

/// Live accounting for one budgeted query. A query searches on one
/// thread, so plain cells suffice.
pub(crate) struct QueryBudget {
    max_nodes: Option<u64>,
    deadline: Option<Instant>,
    nodes: Cell<u64>,
    exhausted: Cell<bool>,
}

/// How many charged nodes elapse between wall-clock checks: `Instant::now`
/// per decision node would dominate small searches.
const DEADLINE_CHECK_MASK: u64 = 1023;

impl QueryBudget {
    /// Starts accounting under `budget`, with the deadline counted from
    /// now.
    fn start(budget: SearchBudget) -> QueryBudget {
        QueryBudget {
            max_nodes: budget.max_nodes,
            deadline: budget.max_time.map(|t| Instant::now() + t),
            nodes: Cell::new(0),
            exhausted: Cell::new(false),
        }
    }

    /// Charges one decision node against the budget. Returns `true` when
    /// the budget is (now) exhausted — the search must stop.
    pub(crate) fn charge(&self) -> bool {
        if self.exhausted.get() {
            return true;
        }
        let n = self.nodes.get() + 1;
        self.nodes.set(n);
        let over_nodes = self.max_nodes.is_some_and(|m| n > m);
        let over_time =
            n & DEADLINE_CHECK_MASK == 0 && self.deadline.is_some_and(|d| Instant::now() >= d);
        if over_nodes || over_time {
            self.exhausted.set(true);
            return true;
        }
        false
    }
}

/// Starts accounting for one query under the installed budget, or `None`
/// when no (limiting) budget is installed — the common case, which costs
/// one `RwLock` read.
pub(crate) fn begin_query() -> Option<QueryBudget> {
    BUDGET
        .read()
        .expect("search budget lock")
        .filter(|b| !b.is_unlimited())
        .map(QueryBudget::start)
}

#[cfg(test)]
mod tests {
    use super::*;

    // NB: the budget slot is process-wide; tests here only exercise the
    // pure accounting (install/uninstall cycles live in the integration
    // suite, serialized against other budget users).

    #[test]
    fn unlimited_budgets_never_begin_accounting() {
        assert!(SearchBudget::default().is_unlimited());
        let qb = QueryBudget::start(SearchBudget::default());
        for _ in 0..10_000 {
            assert!(!qb.charge());
        }
    }

    #[test]
    fn node_limit_trips_exactly_past_the_cap() {
        let qb = QueryBudget::start(SearchBudget {
            max_nodes: Some(5),
            max_time: None,
        });
        for _ in 0..5 {
            assert!(!qb.charge());
        }
        assert!(qb.charge(), "node 6 exceeds a 5-node budget");
        assert!(qb.charge(), "exhaustion is sticky");
    }

    #[test]
    fn expired_deadline_trips_at_the_next_check_window() {
        let qb = QueryBudget {
            deadline: Some(Instant::now() - Duration::from_secs(1)),
            ..QueryBudget::start(SearchBudget::default())
        };
        // The deadline is only consulted every `DEADLINE_CHECK_MASK + 1`
        // nodes; it must trip within one window.
        let mut tripped = false;
        for _ in 0..=DEADLINE_CHECK_MASK + 1 {
            if qb.charge() {
                tripped = true;
                break;
            }
        }
        assert!(tripped, "expired deadline must exhaust within one window");
    }
}
