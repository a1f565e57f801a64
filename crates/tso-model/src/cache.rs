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
//! and report whether they hit.
//!
//! Every key fills on one path. The first query to find a key empty takes
//! that key's fill lock, asks the persistent store, and otherwise
//! searches. It commits the answer (the memory cell and the store) only
//! when the search ran to completion: an installed
//! [`SearchBudget`](crate::budget::SearchBudget) decides what is
//! committed, not which code runs. Concurrent misses on the key wait on
//! the lock and then read the committed answer, so two harness workers
//! racing on equivalent tests search once, with or without a budget. A
//! truncated search, or a fill that panics, leaves the key empty for the
//! next query to fill. A query holds at most one fill lock and never
//! waits on another key's.
//!
//! A key neither in memory nor in the store runs the sequential pruned
//! search ([`crate::search`]) on the calling thread. That search also
//! answers the program's *family*: its uniform `with_atomicity` rewrites
//! that are their own canonical form. Atomicity enters the search only
//! at its complete leaves, so one walk tests each leaf for every member,
//! and the cache commits those answers next to the program's entry: the
//! harness's three per-atomicity queries of a draft cost one search and
//! then hit. Any other program, a mixed-type sibling included, takes its
//! own search. A member goes only into a vacant slot: the commit never
//! waits on or overwrites a cell another worker is filling, so two
//! workers filling each other's families cannot deadlock. Parallelism
//! lives one level up: consumers fan whole tests out across workers, and
//! each worker's queries stay on its own thread.
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
//! Family members are saved right after the searched program's entry,
//! exactly those the commit inserted.
//! The `harness` crate provides the production implementation (an
//! append-only record file; see `DESIGN.md` "verdict store") and installs
//! it from the `litmus_run` CLI. The hook lives here so *every* consumer
//! of [`allowed_outcomes_cached`] — `Litmus::check`, corpus generation,
//! the differential harness — shares one store without `tso-model`
//! depending on any I/O code.

use crate::canon::Canonical;
use crate::outcome::Outcome;
use crate::program::Program;
use crate::search::{self, SearchStats};
use rmw_types::fasthash::FastHashMap;
use rmw_types::Atomicity;
use std::collections::hash_map::Entry as Slot;
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, RwLock};

/// One cached canonical program: its outcome set (canonical coordinates)
/// and the stats of the search that computed it.
struct Entry {
    outcomes: BTreeSet<Outcome>,
    stats: SearchStats,
}

/// One key's slot. `entry` is empty until a complete answer is committed
/// and is read without a lock; `fill` is held by the query filling it.
#[derive(Default)]
struct KeyCell {
    fill: Mutex<()>,
    entry: OnceLock<Arc<Entry>>,
}

fn cache() -> &'static Mutex<FastHashMap<Vec<u64>, Arc<KeyCell>>> {
    static CACHE: OnceLock<Mutex<FastHashMap<Vec<u64>, Arc<KeyCell>>>> = OnceLock::new();
    CACHE.get_or_init(Mutex::default)
}

static QUERIES: AtomicU64 = AtomicU64::new(0);
static MISSES: AtomicU64 = AtomicU64::new(0);
static STORE_HITS: AtomicU64 = AtomicU64::new(0);
static FAMILY_FILLS: AtomicU64 = AtomicU64::new(0);

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
    /// Entries committed by the search of another member of their
    /// atomicity family. Like store hits, they are not
    /// invocations, and a later query of one is a hit.
    pub family_fills: u64,
    /// Distinct canonical programs whose answer is cached. A key still
    /// being filled, or left empty by a truncated search, is not counted.
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
        family_fills: FAMILY_FILLS.load(Ordering::Relaxed),
        entries: cache()
            .lock()
            .expect("model cache lock")
            .values()
            .filter(|cell| cell.entry.get().is_some())
            .count() as u64,
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
    FAMILY_FILLS.store(0, Ordering::Relaxed);
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
    /// Always false. Kept for perfbench; removed by ROADMAP item 2's
    /// benchmark-kind PR.
    pub prefix_hit: bool,
    /// True when an installed [`SearchBudget`](crate::budget::SearchBudget)
    /// ran out mid-search: `outcomes` is a sound but possibly incomplete
    /// subset (*missing, never wrong* — every member is genuinely
    /// allowed, but absence proves nothing). Truncated answers are never
    /// committed to the in-memory cache or the [`VerdictStore`], and
    /// answer no family member, so a later query recomputes. Always false when
    /// no budget is installed, and on every hit.
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
    let cell = {
        let mut map = cache().lock().expect("model cache lock");
        Arc::clone(map.entry(canon.key().to_vec()).or_default())
    };
    // A fill that panics poisons the lock but commits nothing, so the next
    // query of the key finds it empty and fills it again.
    let filling = cell.entry.get().is_none().then(|| {
        cell.fill
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    });
    let mut searched = false;
    let mut family = Vec::new();
    let entry = match cell.entry.get() {
        // Committed before this query looked, or by the fill it waited on.
        Some(entry) => Arc::clone(entry),
        None => {
            // Memory miss: the persistent store (when installed) is the
            // next tier — a store hit costs a lookup, not a search.
            let store = current_store();
            let entry = match store.as_ref().and_then(|s| s.load(canon.key())) {
                Some((outcomes, stats)) => {
                    STORE_HITS.fetch_add(1, Ordering::Relaxed);
                    Arc::new(Entry { outcomes, stats })
                }
                None => {
                    searched = true;
                    MISSES.fetch_add(1, Ordering::Relaxed);
                    let (entry, members) = search_family(canon);
                    family = members;
                    Arc::new(entry)
                }
            };
            // A truncated answer is returned as unknown and committed
            // nowhere, so the key stays empty for the next query.
            if !entry.stats.budget_exhausted {
                if let Some(store) = store.filter(|_| searched) {
                    store.save(
                        canon.key(),
                        canon.fingerprint(),
                        &entry.outcomes,
                        &entry.stats,
                    );
                }
                let _ = cell.entry.set(Arc::clone(&entry));
            }
            entry
        }
    };
    drop(filling);
    commit_family(family);
    let outcomes = entry
        .outcomes
        .iter()
        .map(|o| canon.outcome_to_original(o))
        .collect();
    CachedOutcomes {
        outcomes,
        stats: entry.stats,
        hit: !searched,
        prefix_hit: false,
        unknown: entry.stats.budget_exhausted,
        fingerprint: canon.fingerprint(),
    }
}

/// A family member's answer, as a fresh search of it would give it.
struct MemberAnswer {
    /// The member, its own canonical form.
    canon: Canonical,
    /// Its outcome set, in its (and the searched program's) canonical
    /// coordinates, and stats bit-identical to a sequential search of it.
    entry: Entry,
}

/// The family of a canonical program `canon`: each uniform rewrite
/// `m = canon.with_atomicity(a)` that differs from `canon` and is its own
/// canonical form. Such an `m` has `canon`'s events, event numbering and
/// decision tree, so one search answers it without any coordinate
/// mapping. A rewrite that canonicalizes to another thread order is left
/// to its own query.
fn family_of(canon: &Canonical) -> Vec<(Atomicity, Canonical)> {
    let program = canon.program();
    Atomicity::ALL
        .into_iter()
        .filter_map(|a| {
            let member = program.with_atomicity(a);
            if member == *program {
                return None;
            }
            let own = member.canonicalize();
            (*own.program() == member).then_some((a, own))
        })
        .collect()
}

/// The fresh search of a canonical program under the installed budget (if
/// any), answering its family at the same leaves. A search that stopped
/// early (budget exhaustion always sets `stopped_early`) answers no
/// member.
fn search_family(canon: &Canonical) -> (Entry, Vec<MemberAnswer>) {
    let budget = crate::budget::begin_query();
    let members = family_of(canon);
    let rewrites: Vec<Atomicity> = members.iter().map(|&(a, _)| a).collect();
    let mut family = search::Family::new(canon.program(), &rewrites);
    let stats = search::run_family(canon.program(), &mut family, budget.as_ref());
    let mut answers = family.into_answers().into_iter();
    let (outcomes, _) = answers.next().expect("slot 0 is the searched program");
    let members = if stats.stopped_early {
        Vec::new()
    } else {
        members
            .into_iter()
            .zip(answers)
            .map(|((_, canon), (outcomes, valid))| MemberAnswer {
                canon,
                entry: Entry {
                    outcomes,
                    stats: SearchStats { valid, ..stats },
                },
            })
            .collect()
    };
    (Entry { outcomes, stats }, members)
}

/// Commits the family members a fresh search answered, after the
/// searched program's own entry: each into a *vacant* slot only, never
/// into a cell another query created (it may be filling it), and each
/// inserted entry is saved to the store, in the members' order.
fn commit_family(family: Vec<MemberAnswer>) {
    for MemberAnswer { canon, entry } in family {
        let entry = Arc::new(entry);
        let inserted = match cache()
            .lock()
            .expect("model cache lock")
            .entry(canon.key().to_vec())
        {
            Slot::Vacant(slot) => {
                slot.insert(Arc::new(KeyCell {
                    fill: Mutex::new(()),
                    entry: OnceLock::from(Arc::clone(&entry)),
                }));
                true
            }
            Slot::Occupied(_) => false,
        };
        if !inserted {
            continue;
        }
        FAMILY_FILLS.fetch_add(1, Ordering::Relaxed);
        if let Some(store) = current_store() {
            store.save(
                canon.key(),
                canon.fingerprint(),
                &entry.outcomes,
                &entry.stats,
            );
        }
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
