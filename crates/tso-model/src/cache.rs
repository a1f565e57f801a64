//! Process-wide verdict memoization for the axiomatic model.
//!
//! Every consumer that needs a program's full behaviour — the litmus
//! verdicts, the harness's three-atomicity differential comparison, the
//! corpus generators — funnels through [`allowed_outcomes_cached`]. The
//! cache is keyed by the **full canonical serialization** of the program
//! ([`Program::canonicalize`] — thread- and address-renaming quotiented,
//! collision-proof by construction), so:
//!
//! * the three `with_atomicity` rewrites of an RMW-free test are *one*
//!   entry (they are literally the same program);
//! * thread-permuted / address-renamed duplicates across the generated
//!   families and random corpus collapse to one model invocation each;
//! * a litmus verdict and the harness's differential pass over the same
//!   program never search twice.
//!
//! Entries store the outcome set in canonical coordinates plus the
//! [`SearchStats`] of the search that produced it; lookups map the set
//! back into the caller's coordinates ([`Canonical::outcome_to_original`])
//! and report whether they hit. Concurrent misses on the same key are
//! collapsed by a per-entry [`OnceLock`], so two harness workers racing on
//! equivalent tests compute the search once and one of them blocks
//! briefly instead of both burning a core.
//!
//! On a miss the query drops to the prefix-certificate tier
//! ([`crate::prefix`]): a program sharing its atomicity-masked canonical
//! key with an already searched sibling replays that sibling's
//! certificate instead of searching, and a genuinely novel program runs
//! the sequential pruned search ([`crate::search`]) on the calling
//! thread. Parallelism lives one level up: consumers fan whole tests out
//! across workers, and each worker's queries stay on its own thread.
//!
//! The cache grows with distinct canonical programs. Litmus-scale
//! workloads (a few hundred small entries) make eviction pointless;
//! [`clear`] exists for tests and long-lived embedders.
//!
//! # Persistence
//!
//! The in-memory cache dies with the process. A [`VerdictStore`]
//! registered via [`set_store`] extends it across invocations: on a miss
//! the cache first asks the store for the key ([`VerdictStore::load`] — a
//! *store hit*, counted separately from searches), and only searches when
//! the store doesn't know the program either, handing the fresh entry to
//! [`VerdictStore::save`] so the next process never searches it again.
//! The `harness` crate provides the production implementation (an
//! append-only record file; see `DESIGN.md` "verdict store") and installs
//! it from the `litmus_run` CLI; the hook lives here so *every* consumer
//! of [`allowed_outcomes_cached`] — `Litmus::check`, corpus generation,
//! the differential harness — shares one store without `tso-model`
//! depending on any I/O code.

use crate::canon::Canonical;
use crate::outcome::Outcome;
use crate::program::Program;
use crate::search::SearchStats;
use rmw_types::fasthash::FastHashMap;
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, RwLock};

/// One cached canonical program: its outcome set (canonical coordinates)
/// and the stats of the search that computed it.
struct Entry {
    outcomes: BTreeSet<Outcome>,
    stats: SearchStats,
}

type Cell = Arc<OnceLock<Arc<Entry>>>;

fn cache() -> &'static Mutex<FastHashMap<Vec<u64>, Cell>> {
    static CACHE: OnceLock<Mutex<FastHashMap<Vec<u64>, Cell>>> = OnceLock::new();
    CACHE.get_or_init(Mutex::default)
}

static QUERIES: AtomicU64 = AtomicU64::new(0);
static MISSES: AtomicU64 = AtomicU64::new(0);
static STORE_HITS: AtomicU64 = AtomicU64::new(0);

/// A persistent verdict backend the in-memory cache consults on misses.
///
/// Keys are the program's **full canonical serialization**
/// ([`Canonical::key`] — collision-proof), and outcome sets are in the
/// canonical program's coordinates, exactly as cached in memory. An
/// implementation must be internally synchronized: the cache calls it
/// from concurrent workers.
pub trait VerdictStore: Send + Sync {
    /// Returns the persisted outcome set and attributed search stats for
    /// `key`, or `None` when the store has never seen the program class.
    fn load(&self, key: &[u64]) -> Option<(BTreeSet<Outcome>, SearchStats)>;

    /// Persists a freshly searched entry. `fingerprint` is the 64-bit
    /// canonical fingerprint of `key` (useful as an index/shard hint —
    /// the collision-proof identity is still `key`). Failures must be
    /// swallowed or logged by the implementation: persistence is an
    /// optimization, never a correctness dependency.
    fn save(
        &self,
        key: &[u64],
        fingerprint: u64,
        outcomes: &BTreeSet<Outcome>,
        stats: &SearchStats,
    );
}

fn store_slot() -> &'static RwLock<Option<Arc<dyn VerdictStore>>> {
    static STORE: OnceLock<RwLock<Option<Arc<dyn VerdictStore>>>> = OnceLock::new();
    STORE.get_or_init(|| RwLock::new(None))
}

/// Installs the process-wide persistent verdict store (replacing any
/// previous one). Entries already cached in memory are not re-saved;
/// install the store before the first query to capture everything.
pub fn set_store(store: Arc<dyn VerdictStore>) {
    *store_slot().write().expect("verdict store lock") = Some(store);
}

/// Uninstalls the persistent store, returning it so the owner can flush
/// or inspect it. Subsequent misses search (and stay in memory) as if no
/// store was ever configured.
pub fn take_store() -> Option<Arc<dyn VerdictStore>> {
    store_slot().write().expect("verdict store lock").take()
}

fn current_store() -> Option<Arc<dyn VerdictStore>> {
    store_slot().read().expect("verdict store lock").clone()
}

/// Cumulative cache counters, as exposed in the harness JSON report.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheCounters {
    /// Outcome-set queries answered (hit or miss).
    pub queries: u64,
    /// Queries that ran an actual model search — the "total model
    /// invocations" number the memoization layer exists to shrink.
    pub invocations: u64,
    /// Misses answered by the persistent [`VerdictStore`] instead of a
    /// search (0 when no store is installed). Store hits are *not*
    /// invocations: no search ran.
    pub store_hits: u64,
    /// Distinct canonical programs currently cached.
    pub entries: u64,
}

impl CacheCounters {
    /// Queries served without a search.
    pub fn hits(&self) -> u64 {
        self.queries - self.invocations
    }
}

/// Snapshot of the process-wide counters.
pub fn counters() -> CacheCounters {
    CacheCounters {
        queries: QUERIES.load(Ordering::Relaxed),
        invocations: MISSES.load(Ordering::Relaxed),
        store_hits: STORE_HITS.load(Ordering::Relaxed),
        entries: cache().lock().expect("model cache lock").len() as u64,
    }
}

/// Empties the in-memory cache and zeroes the counters (tests; embedders
/// that want a fresh measurement). A registered [`VerdictStore`] is left
/// installed and keeps its contents — persisted verdicts outlive clears
/// by design; use [`take_store`] to detach it.
pub fn clear() {
    cache().lock().expect("model cache lock").clear();
    QUERIES.store(0, Ordering::Relaxed);
    MISSES.store(0, Ordering::Relaxed);
    STORE_HITS.store(0, Ordering::Relaxed);
}

/// A memoized outcome-set query, in the **original program's**
/// coordinates.
#[derive(Debug, Clone)]
pub struct CachedOutcomes {
    /// The allowed outcome set, identical to
    /// [`allowed_outcomes`](crate::outcome::allowed_outcomes) on the same
    /// program.
    pub outcomes: BTreeSet<Outcome>,
    /// Stats of the search that populated the entry. On a hit this is
    /// *attributed* (the work happened when the entry was created,
    /// possibly for a permuted sibling), so consumers can still see how
    /// heavy the program class is.
    pub stats: SearchStats,
    /// True when no search ran for this query.
    pub hit: bool,
    /// True when this query was answered by replaying a prefix
    /// certificate ([`crate::prefix`]) recorded for a masked-key sibling
    /// — set only on the query that did the work, like `hit`'s negation.
    pub prefix_hit: bool,
    /// True when an installed [`SearchBudget`](crate::budget::SearchBudget)
    /// ran out mid-search: `outcomes` is a sound but possibly incomplete
    /// subset (*missing, never wrong* — every member is genuinely
    /// allowed, but absence proves nothing). Truncated answers are never
    /// committed to the in-memory cache, the [`VerdictStore`], or the
    /// certificate tier, so a later query recomputes. Always false when
    /// no budget is installed.
    pub unknown: bool,
    /// The canonical fingerprint the entry is filed under (diagnostics).
    pub fingerprint: u64,
}

/// The memoized [`allowed_outcomes`](crate::outcome::allowed_outcomes):
/// canonicalize, look up, search only on a miss, and map the set back
/// into the caller's coordinates.
pub fn allowed_outcomes_cached(program: &Program) -> CachedOutcomes {
    let canon = program.canonicalize();
    allowed_outcomes_canonical(&canon)
}

/// [`allowed_outcomes_cached`] for callers that already canonicalized.
pub fn allowed_outcomes_canonical(canon: &Canonical) -> CachedOutcomes {
    QUERIES.fetch_add(1, Ordering::Relaxed);
    let cell: Cell = {
        let mut map = cache().lock().expect("model cache lock");
        Arc::clone(map.entry(canon.key().to_vec()).or_default())
    };
    if crate::budget::installed() {
        // A limiting budget might truncate the search, and a `OnceLock`
        // cell cannot be un-populated — so budgeted queries take a path
        // that only commits complete answers.
        return budgeted_canonical(canon, &cell);
    }
    let mut searched = false;
    let mut prefix_hit = false;
    let entry = Arc::clone(cell.get_or_init(|| {
        // Memory miss: the persistent store (when installed) is the next
        // tier — a store hit costs a lookup, not a search.
        if let Some(store) = current_store() {
            if let Some((outcomes, stats)) = store.load(canon.key()) {
                STORE_HITS.fetch_add(1, Ordering::Relaxed);
                return Arc::new(Entry { outcomes, stats });
            }
        }
        searched = true;
        MISSES.fetch_add(1, Ordering::Relaxed);
        // The certificate tier replays a masked-key sibling's pruned
        // search when it can, and otherwise runs the recording search.
        let answer = crate::prefix::query(canon);
        prefix_hit = answer.prefix_hit;
        if let Some(store) = current_store() {
            store.save(
                canon.key(),
                canon.fingerprint(),
                &answer.outcomes,
                &answer.stats,
            );
        }
        Arc::new(Entry {
            outcomes: answer.outcomes,
            stats: answer.stats,
        })
    }));
    let outcomes = entry
        .outcomes
        .iter()
        .map(|o| canon.outcome_to_original(o))
        .collect();
    CachedOutcomes {
        outcomes,
        stats: entry.stats,
        hit: !searched,
        prefix_hit,
        unknown: false,
        fingerprint: canon.fingerprint(),
    }
}

/// Builds a [`CachedOutcomes`] hit answer from a committed entry, mapped
/// back into the caller's coordinates. Committed entries are always
/// complete (truncated answers never reach a cell), hence `unknown:
/// false`.
fn from_entry(canon: &Canonical, entry: &Entry) -> CachedOutcomes {
    CachedOutcomes {
        outcomes: entry
            .outcomes
            .iter()
            .map(|o| canon.outcome_to_original(o))
            .collect(),
        stats: entry.stats,
        hit: true,
        prefix_hit: false,
        unknown: false,
        fingerprint: canon.fingerprint(),
    }
}

/// The budget-aware query path: same tiers as the `OnceLock` path
/// (memory → persistent store → prefix/search), but a budget-exhausted
/// search result is returned as an explicit *unknown* answer without
/// being written to the cell, the [`VerdictStore`], or (via the
/// `stopped_early` gate in [`crate::prefix`]) the certificate tier.
/// Concurrent misses on the same key may each search — the miss-collapse
/// optimization is traded away while a budget is installed, results are
/// unaffected.
fn budgeted_canonical(canon: &Canonical, cell: &Cell) -> CachedOutcomes {
    if let Some(entry) = cell.get() {
        return from_entry(canon, entry);
    }
    if let Some(store) = current_store() {
        if let Some((outcomes, stats)) = store.load(canon.key()) {
            STORE_HITS.fetch_add(1, Ordering::Relaxed);
            let entry = Arc::new(Entry { outcomes, stats });
            let answer = from_entry(canon, &entry);
            let _ = cell.set(entry); // a racing loser changes nothing
            return answer;
        }
    }
    MISSES.fetch_add(1, Ordering::Relaxed);
    let answer = crate::prefix::query(canon);
    let outcomes = answer
        .outcomes
        .iter()
        .map(|o| canon.outcome_to_original(o))
        .collect();
    let truncated = answer.stats.budget_exhausted;
    if !truncated {
        if let Some(store) = current_store() {
            store.save(
                canon.key(),
                canon.fingerprint(),
                &answer.outcomes,
                &answer.stats,
            );
        }
        let _ = cell.set(Arc::new(Entry {
            outcomes: answer.outcomes,
            stats: answer.stats,
        }));
    }
    CachedOutcomes {
        outcomes,
        stats: answer.stats,
        hit: false,
        prefix_hit: answer.prefix_hit,
        unknown: truncated,
        fingerprint: canon.fingerprint(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::outcome::allowed_outcomes;
    use crate::program::ProgramBuilder;
    use rmw_types::{Addr, Atomicity, RmwKind};

    const X: Addr = Addr(0);
    const Y: Addr = Addr(1);

    // NB: the cache and its counters are process-wide and the test harness
    // is multi-threaded, so assertions compare *deltas of this test's own
    // queries* or use programs unique to each test. Every test that
    // queries the cache also holds `serial()`, so a delta covers only the
    // holder's queries (the store test asserts that a store hit adds no
    // search to the global count).
    fn serial() -> std::sync::MutexGuard<'static, ()> {
        static SERIAL: Mutex<()> = Mutex::new(());
        SERIAL
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn unique_program(tag: u64) -> Program {
        let mut b = ProgramBuilder::new();
        // The written value makes the program unique to the caller: values
        // are not quotiented by canonicalization.
        b.thread().write(X, 1000 + tag).read(Y);
        b.thread().write(Y, 2000 + tag).read(X);
        b.build()
    }

    #[test]
    fn cached_set_equals_direct_set() {
        let _serial = serial();
        let p = unique_program(1);
        let cached = allowed_outcomes_cached(&p);
        assert_eq!(cached.outcomes, allowed_outcomes(&p));
        assert!(!cached.hit, "first query of a unique program must miss");
        let again = allowed_outcomes_cached(&p);
        assert!(again.hit);
        assert_eq!(again.outcomes, cached.outcomes);
        assert_eq!(again.stats, cached.stats, "stats are attributed on hits");
    }

    #[test]
    fn permuted_siblings_share_one_entry_with_correct_frames() {
        let _serial = serial();
        // Same program modulo thread order and address names — and with
        // asymmetric threads, so the coordinate mapping actually works.
        let mut a = ProgramBuilder::new();
        a.thread().write(X, 3001).write(Y, 3002);
        a.thread().read(Y).read(X);
        let a = a.build();

        let mut b = ProgramBuilder::new();
        b.thread().read(Addr(7)).read(Addr(5));
        b.thread().write(Addr(5), 3001).write(Addr(7), 3002);
        let b = b.build();

        let ca = allowed_outcomes_cached(&a);
        let cb = allowed_outcomes_cached(&b);
        assert_eq!(ca.fingerprint, cb.fingerprint);
        assert!(!ca.hit || !cb.hit, "at most one of the pair computes");
        assert!(ca.hit || cb.hit, "the second query must hit");
        // Each answer is in its own frame and matches a direct search.
        assert_eq!(ca.outcomes, allowed_outcomes(&a));
        assert_eq!(cb.outcomes, allowed_outcomes(&b));
    }

    #[test]
    fn atomicity_rewrites_of_rmw_free_programs_collapse() {
        let _serial = serial();
        let mut b = ProgramBuilder::new();
        b.thread().write(X, 4001).read(Y);
        b.thread().write(Y, 4002).fence().read(X);
        let p = b.build();
        let mut hits = 0;
        for atomicity in Atomicity::ALL {
            if allowed_outcomes_cached(&p.with_atomicity(atomicity)).hit {
                hits += 1;
            }
        }
        assert!(hits >= 2, "RMW-free rewrites are identical programs");
    }

    #[test]
    fn rmw_atomicity_is_part_of_the_key() {
        let mk = |a: Atomicity| {
            let mut b = ProgramBuilder::new();
            b.thread().rmw(X, RmwKind::FetchAndAdd(5001), a).read(Y);
            b.thread().write(Y, 5002).read(X);
            b.build()
        };
        let f1 = mk(Atomicity::Type1).canonical_fingerprint();
        let f3 = mk(Atomicity::Type3).canonical_fingerprint();
        assert_ne!(f1, f3, "atomicity must distinguish cache entries");
    }

    #[test]
    fn a_persistent_store_answers_misses_and_receives_fresh_entries() {
        let _serial = serial();
        // An in-memory fake of the harness's on-disk store: the contract
        // is load-on-miss / save-after-search, in canonical coordinates.
        type Entry = (BTreeSet<Outcome>, SearchStats);
        #[derive(Default)]
        struct FakeStore {
            entries: Mutex<FastHashMap<Vec<u64>, Entry>>,
            loads: AtomicU64,
            saves: AtomicU64,
        }
        impl VerdictStore for FakeStore {
            fn load(&self, key: &[u64]) -> Option<(BTreeSet<Outcome>, SearchStats)> {
                self.loads.fetch_add(1, Ordering::Relaxed);
                self.entries.lock().unwrap().get(key).cloned()
            }
            fn save(
                &self,
                key: &[u64],
                _fingerprint: u64,
                outcomes: &BTreeSet<Outcome>,
                stats: &SearchStats,
            ) {
                self.saves.fetch_add(1, Ordering::Relaxed);
                self.entries
                    .lock()
                    .unwrap()
                    .insert(key.to_vec(), (outcomes.clone(), *stats));
            }
        }

        let store = Arc::new(FakeStore::default());
        set_store(Arc::<FakeStore>::clone(&store));
        // Fresh search: saved into the store.
        let p = unique_program(71);
        let first = allowed_outcomes_cached(&p);
        assert!(!first.hit);
        assert!(store.saves.load(Ordering::Relaxed) >= 1);
        let key = p.canonicalize().key().to_vec();
        assert!(store.entries.lock().unwrap().contains_key(&key));

        // Simulate a process restart: drop the memory cache, keep the
        // store. The next query is a *store hit* — no search, `hit` true.
        let dropped = {
            let mut map = cache().lock().unwrap();
            map.remove(&key).is_some()
        };
        assert!(dropped, "entry was in the memory cache");
        let before = counters();
        let again = allowed_outcomes_cached(&p);
        let after = counters();
        assert!(again.hit, "store hits run no search");
        assert_eq!(again.outcomes, first.outcomes);
        assert_eq!(
            again.stats, first.stats,
            "stats attributed through the store"
        );
        assert_eq!(after.invocations, before.invocations, "no search ran");
        assert!(after.store_hits > before.store_hits);

        // Detach: the store comes back out, and a fresh miss searches
        // again instead of loading.
        let detached = take_store().expect("store was installed");
        assert!(Arc::ptr_eq(
            &(detached as Arc<dyn VerdictStore>),
            &(store as Arc<dyn VerdictStore>)
        ));
    }

    #[test]
    fn counters_move_with_queries() {
        let _serial = serial();
        let before = counters();
        let p = unique_program(6);
        let first = allowed_outcomes_cached(&p);
        let second = allowed_outcomes_cached(&p);
        let after = counters();
        assert!(after.queries >= before.queries + 2);
        assert!(after.invocations > before.invocations);
        // `hits()` is `queries - invocations` over a live snapshot: a
        // concurrent test's query counted in `before` but still searching
        // makes `before.hits()` one too high, so compare this test's own
        // answers instead of the global difference.
        assert!(!first.hit && second.hit, "one miss, then one hit");
        assert!(after.hits() >= 1);
        assert!(after.entries >= 1);
    }
}
