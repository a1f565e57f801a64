//! Search-budget integration: exhausted budgets return explicit unknown
//! answers and never poison any cache tier; unhit budgets are
//! observationally invisible. Budgeted queries share the cache's one fill
//! path, so racing misses on one key search once, and a fill that panics
//! leaves its key empty for the next query.
//!
//! The budget slot and verdict cache are process-wide, so every test here
//! serializes on one mutex and uses programs made unique by written
//! values.

use rmw_types::{Addr, Atomicity, RmwKind};
use std::collections::BTreeSet;
use std::ops::ControlFlow;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier, Mutex, MutexGuard, OnceLock};
use std::thread;
use std::time::Duration;
use tso_model::cache::{self, VerdictStore};
use tso_model::{
    allowed_outcomes, allowed_outcomes_cached, for_each_valid_execution, set_budget, take_budget,
    Outcome, Program, ProgramBuilder, SearchBudget, SearchStats,
};

const X: Addr = Addr(0);
const Y: Addr = Addr(1);

fn budget_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    // A panicking holder poisons the mutex but leaves nothing corrupt.
    match LOCK.get_or_init(Mutex::default).lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// A Dekker-like shape big enough that even its pruned search explores
/// thousands of decision nodes — room for a budget to bite mid-flight.
fn deep_program(tag: u64) -> Program {
    let mut b = ProgramBuilder::new();
    for i in 0..2u64 {
        let mine = Addr(i);
        let other = Addr((i + 1) % 2);
        let mut t = b.thread();
        for k in 1..=3u64 {
            t.write(mine, tag + k).read(other);
        }
    }
    b.build()
}

fn small_program(tag: u64) -> Program {
    let mut b = ProgramBuilder::new();
    b.thread().write(X, 7000 + tag).read(Y);
    b.thread().write(Y, 8000 + tag).read(X);
    b.build()
}

#[derive(Default)]
struct CountingStore {
    saves: AtomicU64,
    loads: AtomicU64,
}

impl VerdictStore for CountingStore {
    fn load(&self, _key: &[u64]) -> Option<(BTreeSet<Outcome>, SearchStats)> {
        self.loads.fetch_add(1, Ordering::Relaxed);
        None
    }
    fn save(
        &self,
        _key: &[u64],
        _fingerprint: u64,
        _outcomes: &BTreeSet<Outcome>,
        _stats: &SearchStats,
    ) {
        self.saves.fetch_add(1, Ordering::Relaxed);
    }
}

#[test]
fn exhausted_budget_returns_unknown_and_poisons_nothing() {
    let _guard = budget_lock();
    let p = deep_program(100_000);
    let full = allowed_outcomes(&p);

    let store = Arc::new(CountingStore::default());
    cache::set_store(Arc::clone(&store) as Arc<dyn VerdictStore>);
    set_budget(SearchBudget {
        max_nodes: Some(10),
        max_time: None,
    });

    let truncated = allowed_outcomes_cached(&p);
    assert!(truncated.unknown, "a 10-node budget must exhaust");
    assert!(truncated.stats.budget_exhausted);
    assert!(truncated.stats.stopped_early);
    assert!(!truncated.hit);
    assert!(
        truncated.outcomes.is_subset(&full),
        "truncated answers are sound subsets"
    );
    assert_eq!(
        store.saves.load(Ordering::Relaxed),
        0,
        "a truncated answer must never reach the verdict store"
    );

    // Still budgeted: the cache was not poisoned, so the query recomputes
    // (and exhausts again) instead of serving the truncated set as a hit.
    let before = cache::counters();
    let again = allowed_outcomes_cached(&p);
    let after = cache::counters();
    assert!(again.unknown);
    assert!(!again.hit, "truncated answers must not become cache hits");
    assert!(after.invocations > before.invocations, "the search re-ran");

    // Budget lifted: the same query now completes, matches the direct
    // engine, and is cached + persisted like any normal miss.
    take_budget();
    let complete = allowed_outcomes_cached(&p);
    assert!(!complete.unknown);
    assert!(!complete.stats.budget_exhausted);
    assert_eq!(complete.outcomes, full);
    assert!(store.saves.load(Ordering::Relaxed) >= 1);
    let warm = allowed_outcomes_cached(&p);
    assert!(warm.hit, "the complete answer is cached normally");
    cache::take_store();
}

#[test]
fn exhausted_budget_answers_no_atomicity_family() {
    let _guard = budget_lock();
    let mk = |a: Atomicity| {
        let mut b = ProgramBuilder::new();
        let mut t = b.thread();
        t.rmw(X, RmwKind::FetchAndAdd(200_000), a);
        for k in 1..=2u64 {
            t.write(X, 200_000 + k).read(Y);
        }
        let mut t = b.thread();
        for k in 1..=2u64 {
            t.write(Y, 200_100 + k).read(X);
        }
        b.build()
    };
    set_budget(SearchBudget {
        max_nodes: Some(5),
        max_time: None,
    });
    let fills = cache::counters().family_fills;
    let truncated = allowed_outcomes_cached(&mk(Atomicity::Type1));
    assert!(truncated.unknown);
    assert_eq!(
        cache::counters().family_fills,
        fills,
        "a truncated search must not answer its atomicity family"
    );
    take_budget();

    // The atomicity sibling cannot hit a (nonexistent) family entry: it
    // runs a full search and matches the direct engine.
    let sibling = mk(Atomicity::Type3);
    let complete = allowed_outcomes_cached(&sibling);
    assert!(!complete.unknown);
    assert!(!complete.hit, "the sibling searched");
    assert_eq!(complete.outcomes, allowed_outcomes(&sibling));
}

#[test]
fn unhit_budget_is_bit_identical_to_no_budget() {
    let _guard = budget_lock();
    let p = small_program(1);
    let reference = allowed_outcomes(&p);
    let seq_stats = for_each_valid_execution(&p, |_| ControlFlow::Continue(()));

    set_budget(SearchBudget {
        max_nodes: Some(u64::MAX),
        max_time: Some(Duration::from_secs(3600)),
    });
    let budgeted = allowed_outcomes_cached(&p);
    take_budget();

    assert!(!budgeted.unknown);
    assert!(!budgeted.stats.budget_exhausted);
    assert_eq!(budgeted.outcomes, reference);
    assert_eq!(budgeted.stats.nodes, seq_stats.nodes);
    assert_eq!(budgeted.stats.pruned, seq_stats.pruned);
    assert_eq!(budgeted.stats.complete, seq_stats.complete);
    assert_eq!(budgeted.stats.valid, seq_stats.valid);

    // And the committed entry serves un-budgeted queries as a plain hit.
    let warm = allowed_outcomes_cached(&p);
    assert!(warm.hit);
    assert_eq!(warm.stats, budgeted.stats);

    // A budgeted search that completes commits its atomicity family too,
    // each member exactly as its own fresh search would answer it.
    let rmw = |a: Atomicity| {
        let mut b = ProgramBuilder::new();
        b.thread().rmw(X, RmwKind::FetchAndAdd(300_001), a).read(Y);
        b.thread().write(Y, 300_002).read(X);
        b.build()
    };
    set_budget(SearchBudget {
        max_nodes: Some(u64::MAX),
        max_time: None,
    });
    let first = allowed_outcomes_cached(&rmw(Atomicity::Type1));
    take_budget();
    assert!(!first.unknown && !first.hit);
    for a in [Atomicity::Type2, Atomicity::Type3] {
        let sibling = rmw(a);
        let got = allowed_outcomes_cached(&sibling);
        assert!(got.hit, "{a}: committed by the budgeted search");
        assert_eq!(got.outcomes, allowed_outcomes(&sibling), "{a}");
        let canon = sibling.canonicalize();
        let fresh = for_each_valid_execution(canon.program(), |_| ControlFlow::Continue(()));
        assert_eq!(got.stats, fresh, "{a}");
    }
}

#[test]
fn zero_deadline_exhausts_deep_searches() {
    let _guard = budget_lock();
    let p = deep_program(300_000);
    set_budget(SearchBudget {
        max_nodes: None,
        max_time: Some(Duration::ZERO),
    });
    let truncated = allowed_outcomes_cached(&p);
    take_budget();
    assert!(
        truncated.unknown,
        "an already-expired deadline must exhaust a multi-thousand-node search"
    );

    // Unknown never sticks: the next (un-budgeted) query is complete.
    let complete = allowed_outcomes_cached(&p);
    assert!(!complete.unknown);
    assert_eq!(complete.outcomes, allowed_outcomes(&p));
}

#[test]
fn an_unlimited_budget_is_ignored_entirely() {
    let _guard = budget_lock();
    let p = small_program(2);
    set_budget(SearchBudget::default());
    let answer = allowed_outcomes_cached(&p);
    take_budget();
    assert!(!answer.unknown);
    assert_eq!(answer.outcomes, allowed_outcomes(&p));
}

#[test]
fn racing_budgeted_misses_collapse_to_one_search() {
    let _guard = budget_lock();
    set_budget(SearchBudget {
        max_nodes: Some(u64::MAX),
        max_time: None,
    });
    for round in 0..20u64 {
        let p = deep_program(400_000 + 10 * round);
        let barrier = Barrier::new(2);
        let answers: Vec<_> = thread::scope(|s| {
            let racers: Vec<_> = (0..2)
                .map(|_| {
                    s.spawn(|| {
                        barrier.wait();
                        allowed_outcomes_cached(&p)
                    })
                })
                .collect();
            racers.into_iter().map(|r| r.join().unwrap()).collect()
        });
        let searches = answers.iter().filter(|a| !a.hit).count();
        assert_eq!(searches, 1, "round {round}: one racer searches");
        assert_eq!(answers[0].outcomes, answers[1].outcomes, "round {round}");
        assert!(answers.iter().all(|a| !a.unknown), "round {round}");
    }
    take_budget();
}

#[test]
fn only_answered_keys_count_as_entries() {
    let _guard = budget_lock();
    let p = deep_program(500_000);
    set_budget(SearchBudget {
        max_nodes: Some(10),
        max_time: None,
    });
    let before = cache::counters().entries;
    assert!(allowed_outcomes_cached(&p).unknown);
    take_budget();
    assert_eq!(
        cache::counters().entries,
        before,
        "a truncated query leaves its key empty"
    );
    assert!(!allowed_outcomes_cached(&p).unknown);
    assert_eq!(
        cache::counters().entries,
        before + 1,
        "the completed rerun caches one answer"
    );
}

/// A store whose first `load` panics, as a failing backend might.
#[derive(Default)]
struct PanicOnceStore {
    panicked: AtomicBool,
}

impl VerdictStore for PanicOnceStore {
    fn load(&self, _key: &[u64]) -> Option<(BTreeSet<Outcome>, SearchStats)> {
        assert!(
            self.panicked.swap(true, Ordering::Relaxed),
            "store load fails"
        );
        None
    }
    fn save(
        &self,
        _key: &[u64],
        _fingerprint: u64,
        _outcomes: &BTreeSet<Outcome>,
        _stats: &SearchStats,
    ) {
    }
}

#[test]
fn a_fill_that_panics_leaves_its_key_answerable() {
    let _guard = budget_lock();
    let p = small_program(3);
    cache::set_store(Arc::new(PanicOnceStore::default()));
    let crashed = panic::catch_unwind(AssertUnwindSafe(|| allowed_outcomes_cached(&p)));
    let retried = allowed_outcomes_cached(&p);
    cache::take_store();
    assert!(crashed.is_err(), "the first fill panicked");
    assert!(!retried.hit && !retried.unknown, "the retry searched");
    assert_eq!(retried.outcomes, allowed_outcomes(&p));
    assert!(allowed_outcomes_cached(&p).hit, "and committed its answer");
}
