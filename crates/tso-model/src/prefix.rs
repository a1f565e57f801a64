//! Cross-test prefix-certificate sharing: re-deriving a family member's
//! outcome set from a sibling's pruned search instead of searching again.
//!
//! The verdict cache ([`crate::cache`]) collapses *identical* canonical
//! programs, but a generated family still pays one full search per
//! distinct member — and the harness's differential sweep rewrites every
//! RMW test under all three atomicity types, tripling the searches for
//! programs whose **decision trees are identical**: atomicity influences
//! validity only through the leaf-level `ato` disjunctions
//! (`validity::ato_satisfiable`); the `ppo`/`bar`/`po-loc`/dep graphs,
//! and therefore every `ws`/`rf` decision, prune, and complete leaf, do
//! not depend on it.
//!
//! A **prefix certificate** captures the reusable part of one search: the
//! full decision path of every complete leaf (in sequential DFS order)
//! plus the decision counters (`nodes`/`pruned`/`complete`) of the pruned
//! search that found them. It is keyed by the **atomicity-masked
//! canonical key** (`canon::masked_key`): equal masked keys mean
//! "same program up to per-RMW atomicity", which is exactly the condition
//! under which the decision tree — and hence the certificate — transfers.
//!
//! On a hit, the subtree walk is skipped entirely: each recorded leaf is
//! replayed through `search::run_prefix` (a full-depth path goes
//! straight to the leaf — zero decision nodes), and the leaf-level `ato`
//! disjunctions are solved fresh *for the querying program's atomicity*.
//! The replayed stats are bit-identical to what a sequential search of
//! the querying program would report (`nodes`/`pruned` attributed from
//! the certificate, `complete`/`valid` produced by the replay); the
//! decision nodes skipped are tallied in [`counters`] as `nodes_saved`,
//! not hidden in the stats.
//!
//! Certificates can outlive the process through a [`CertificateStore`]
//! (the harness's record file implements it beside the verdict store), so
//! a warm campaign skips even the first-per-family search.

use crate::canon::Canonical;
use crate::event::EventId;
use crate::outcome::Outcome;
use crate::search::{self, Prefix, SearchStats};
use rmw_types::fasthash::{FastHashMap, FastHashSet, FastHasher};
use std::collections::BTreeSet;
use std::hash::Hasher as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, RwLock};

/// Hard cap on leaves per certificate. A search with more complete leaves
/// than this is not certified (storing and replaying the paths would
/// rival the search itself); the query still answers, it just records
/// nothing.
const MAX_CERT_LEAVES: usize = 1 << 16;

/// One memoized pruned search, in the canonical frame of its masked key.
struct Certificate {
    /// Full decision path of every complete leaf, in sequential DFS order.
    leaves: Vec<Prefix>,
    nodes: u64,
    pruned: u64,
    complete: u64,
}

fn certs() -> &'static Mutex<FastHashMap<Vec<u64>, Arc<Certificate>>> {
    static CERTS: OnceLock<Mutex<FastHashMap<Vec<u64>, Arc<Certificate>>>> = OnceLock::new();
    CERTS.get_or_init(Mutex::default)
}

static QUERIES: AtomicU64 = AtomicU64::new(0);
static HITS: AtomicU64 = AtomicU64::new(0);
static STORE_HITS: AtomicU64 = AtomicU64::new(0);
static STORED: AtomicU64 = AtomicU64::new(0);
static NODES_SAVED: AtomicU64 = AtomicU64::new(0);
static REPLAYED_LEAVES: AtomicU64 = AtomicU64::new(0);

/// Portable exchange form of a certificate, used by [`CertificateStore`]
/// implementations. Leaves are `(ws placements, rf sources)` as raw event
/// indices in the canonical program's event numbering.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CertData {
    /// Complete-leaf decision paths in sequential DFS order.
    pub leaves: Vec<(Vec<u64>, Vec<u64>)>,
    /// Decision nodes of the search that produced the certificate.
    pub nodes: u64,
    /// Branches pruned by that search.
    pub pruned: u64,
    /// Complete assignments it reached (equals `leaves.len()`).
    pub complete: u64,
}

/// A persistent certificate backend, mirroring
/// [`VerdictStore`](crate::cache::VerdictStore) one tier down: keys are
/// the **atomicity-masked** canonical serialization, values transfer
/// between any programs sharing that masked key. Implementations must be
/// internally synchronized and must swallow their own failures —
/// persistence is an optimization, never a correctness dependency.
pub trait CertificateStore: Send + Sync {
    /// Returns the persisted certificate for `masked_key`, if any.
    fn load_cert(&self, masked_key: &[u64]) -> Option<CertData>;

    /// Persists a freshly recorded certificate. `fingerprint` hashes the
    /// masked key (an index hint; the collision-proof identity is the
    /// key itself).
    fn save_cert(&self, masked_key: &[u64], fingerprint: u64, cert: &CertData);
}

fn store_slot() -> &'static RwLock<Option<Arc<dyn CertificateStore>>> {
    static STORE: OnceLock<RwLock<Option<Arc<dyn CertificateStore>>>> = OnceLock::new();
    STORE.get_or_init(|| RwLock::new(None))
}

/// Installs the process-wide persistent certificate store (replacing any
/// previous one).
pub fn set_store(store: Arc<dyn CertificateStore>) {
    *store_slot().write().expect("certificate store lock") = Some(store);
}

/// Uninstalls the persistent certificate store, returning it.
pub fn take_store() -> Option<Arc<dyn CertificateStore>> {
    store_slot().write().expect("certificate store lock").take()
}

fn current_store() -> Option<Arc<dyn CertificateStore>> {
    store_slot().read().expect("certificate store lock").clone()
}

/// Cumulative certificate-layer counters, exposed in the harness report.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PrefixCounters {
    /// Certificate-tier queries (one per verdict-cache miss that reached
    /// this layer).
    pub queries: u64,
    /// Queries answered by replaying a certificate instead of searching.
    pub hits: u64,
    /// Hits whose certificate came from the persistent store rather than
    /// process memory.
    pub store_hits: u64,
    /// Fresh certificates recorded (memory, plus the store when one is
    /// installed).
    pub stored: u64,
    /// Decision nodes *not* re-explored thanks to replays: the sum of the
    /// attributed `nodes` of every hit.
    pub nodes_saved: u64,
    /// Complete leaves replayed across all hits.
    pub replayed_leaves: u64,
    /// Certificates currently held in memory.
    pub entries: u64,
}

/// Snapshot of the process-wide certificate counters.
pub fn counters() -> PrefixCounters {
    PrefixCounters {
        queries: QUERIES.load(Ordering::Relaxed),
        hits: HITS.load(Ordering::Relaxed),
        store_hits: STORE_HITS.load(Ordering::Relaxed),
        stored: STORED.load(Ordering::Relaxed),
        nodes_saved: NODES_SAVED.load(Ordering::Relaxed),
        replayed_leaves: REPLAYED_LEAVES.load(Ordering::Relaxed),
        entries: certs().lock().expect("certificate cache lock").len() as u64,
    }
}

/// Empties the in-memory certificate cache and zeroes the counters. A
/// registered [`CertificateStore`] stays installed, like the verdict
/// store under [`crate::cache::clear`].
pub fn clear() {
    certs().lock().expect("certificate cache lock").clear();
    QUERIES.store(0, Ordering::Relaxed);
    HITS.store(0, Ordering::Relaxed);
    STORE_HITS.store(0, Ordering::Relaxed);
    STORED.store(0, Ordering::Relaxed);
    NODES_SAVED.store(0, Ordering::Relaxed);
    REPLAYED_LEAVES.store(0, Ordering::Relaxed);
}

fn fingerprint_of(key: &[u64]) -> u64 {
    let mut hasher = FastHasher::default();
    for &word in key {
        hasher.write_u64(word);
    }
    hasher.finish()
}

fn to_data(cert: &Certificate) -> CertData {
    CertData {
        leaves: cert
            .leaves
            .iter()
            .map(|p| {
                (
                    p.ws.iter().map(|e| e.0 as u64).collect(),
                    p.rf.iter().map(|e| e.0 as u64).collect(),
                )
            })
            .collect(),
        nodes: cert.nodes,
        pruned: cert.pruned,
        complete: cert.complete,
    }
}

fn from_data(data: CertData) -> Certificate {
    Certificate {
        leaves: data
            .leaves
            .into_iter()
            .map(|(ws, rf)| Prefix {
                ws: ws.into_iter().map(|e| EventId(e as usize)).collect(),
                rf: rf.into_iter().map(|e| EventId(e as usize)).collect(),
            })
            .collect(),
        nodes: data.nodes,
        pruned: data.pruned,
        complete: data.complete,
    }
}

/// True when `cert` structurally fits `sc`'s program: every leaf names
/// exactly the program's write placements and read choices, with event
/// ids in range. Rejects (as a miss) a stale or foreign store entry
/// instead of replaying garbage.
fn fits(cert: &Certificate, sc: &search::SearchCtx) -> bool {
    let (writes, reads) = sc.decision_shape();
    let bound = sc.max_event_id();
    cert.complete == cert.leaves.len() as u64
        && cert.leaves.iter().all(|leaf| {
            leaf.ws.len() == writes
                && leaf.rf.len() == reads
                && leaf.ws.iter().chain(&leaf.rf).all(|e| e.index() < bound)
        })
}

/// The certificate tier's answer to an outcome-set query.
pub(crate) struct PrefixAnswer {
    /// Allowed outcomes in **canonical** coordinates.
    pub outcomes: BTreeSet<Outcome>,
    /// Bit-identical to a sequential search of the queried program.
    pub stats: SearchStats,
    /// True when a certificate replay (not a fresh search) answered.
    pub prefix_hit: bool,
}

/// Answers an outcome-set query for a canonical program through the
/// certificate tier: replay a matching certificate if one exists, else
/// run the recording search and certify the result. Called by
/// [`crate::cache`] on verdict-cache misses.
pub(crate) fn query(canon: &Canonical) -> PrefixAnswer {
    QUERIES.fetch_add(1, Ordering::Relaxed);
    let masked = canon.masked_key();

    // Memory tier, then the persistent store.
    let mut cert: Option<Arc<Certificate>> = certs()
        .lock()
        .expect("certificate cache lock")
        .get(&masked)
        .cloned();
    let mut from_store = false;
    if cert.is_none() {
        if let Some(store) = current_store() {
            if let Some(data) = store.load_cert(&masked) {
                let loaded = Arc::new(from_data(data));
                certs()
                    .lock()
                    .expect("certificate cache lock")
                    .entry(masked.clone())
                    .or_insert_with(|| Arc::clone(&loaded));
                from_store = true;
                cert = Some(loaded);
            }
        }
    }

    let sc = search::build_ctx(canon.program());
    if let Some(cert) = cert {
        if fits(&cert, &sc) {
            HITS.fetch_add(1, Ordering::Relaxed);
            if from_store {
                STORE_HITS.fetch_add(1, Ordering::Relaxed);
            }
            NODES_SAVED.fetch_add(cert.nodes, Ordering::Relaxed);
            REPLAYED_LEAVES.fetch_add(cert.leaves.len() as u64, Ordering::Relaxed);
            let mut outcomes = BTreeSet::new();
            let mut stats = SearchStats::default();
            for leaf in &cert.leaves {
                stats.absorb(&search::run_prefix(&sc, leaf, &mut |exec| {
                    outcomes.insert(Outcome::of_execution(exec));
                    std::ops::ControlFlow::Continue(())
                }));
            }
            debug_assert_eq!(stats.complete, cert.complete);
            // Attribute the skipped decision work so the stats equal a
            // sequential search's; the savings are visible in `counters`.
            stats.nodes = cert.nodes;
            stats.pruned = cert.pruned;
            stats.complete = cert.complete;
            stats.stopped_early = false;
            stats.budget_exhausted = false;
            return PrefixAnswer {
                outcomes,
                stats,
                prefix_hit: true,
            };
        }
        // A store entry that does not fit the program is treated as a
        // miss (and left in place for whichever program it does fit).
    }

    // Fresh search under the installed budget (if any), recording the
    // leaves for the certificate. The `stopped_early` gate below also
    // covers budget exhaustion (which always sets it), so a truncated
    // search never certifies its incomplete leaf set.
    let budget = crate::budget::begin_query();
    let mut found = FastHashSet::<Outcome>::default();
    let mut leaves = Vec::new();
    let stats = search::run_ctx_budgeted(
        &sc,
        &mut |exec| {
            found.insert(Outcome::of_execution(exec));
            std::ops::ControlFlow::Continue(())
        },
        Some(&mut leaves),
        budget.as_ref(),
    );
    let outcomes: BTreeSet<Outcome> = found.into_iter().collect();
    if !stats.stopped_early && leaves.len() <= MAX_CERT_LEAVES {
        let fresh = Arc::new(Certificate {
            leaves,
            nodes: stats.nodes,
            pruned: stats.pruned,
            complete: stats.complete,
        });
        let inserted = {
            let mut map = certs().lock().expect("certificate cache lock");
            match map.entry(masked.clone()) {
                std::collections::hash_map::Entry::Vacant(slot) => {
                    slot.insert(Arc::clone(&fresh));
                    true
                }
                std::collections::hash_map::Entry::Occupied(_) => false,
            }
        };
        if inserted {
            STORED.fetch_add(1, Ordering::Relaxed);
            if let Some(store) = current_store() {
                store.save_cert(&masked, fingerprint_of(&masked), &to_data(&fresh));
            }
        }
    }
    PrefixAnswer {
        outcomes,
        stats,
        prefix_hit: false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::outcome::allowed_outcomes;
    use crate::program::ProgramBuilder;
    use crate::search::for_each_valid_execution;
    use rmw_types::{Addr, Atomicity, RmwKind};
    use std::ops::ControlFlow;

    const X: Addr = Addr(0);
    const Y: Addr = Addr(1);

    // NB: the certificate cache and counters are process-wide; tests use
    // programs made unique by written values and compare deltas.

    fn rmw_program(tag: u64, a: Atomicity) -> crate::program::Program {
        let mut b = ProgramBuilder::new();
        b.thread().rmw(X, RmwKind::FetchAndAdd(tag), a).read(Y);
        b.thread().write(Y, tag).read(X);
        b.build()
    }

    #[test]
    fn replay_answers_atomicity_siblings_with_sequential_fidelity() {
        let tag = 9101;
        let first = rmw_program(tag, Atomicity::Type1);
        let canon1 = first.canonicalize();
        let miss = query(&canon1);
        assert!(!miss.prefix_hit, "unique program must record, not replay");
        assert_eq!(miss.outcomes, allowed_outcomes(canon1.program()));

        for a in [Atomicity::Type2, Atomicity::Type3] {
            let sibling = rmw_program(tag, a);
            let canon = sibling.canonicalize();
            let before = counters();
            let hit = query(&canon);
            let after = counters();
            assert!(hit.prefix_hit, "{a:?} shares the masked key");
            assert!(after.hits > before.hits);
            assert!(after.nodes_saved > before.nodes_saved);
            // The replay is indistinguishable from a sequential search.
            let seq = for_each_valid_execution(canon.program(), |_| ControlFlow::Continue(()));
            assert_eq!(hit.stats, seq, "{a:?}");
            assert_eq!(hit.outcomes, allowed_outcomes(canon.program()), "{a:?}");
        }
    }

    #[test]
    fn cert_data_round_trips() {
        let cert = Certificate {
            leaves: vec![Prefix {
                ws: vec![EventId(3), EventId(1)],
                rf: vec![EventId(0)],
            }],
            nodes: 17,
            pruned: 4,
            complete: 1,
        };
        let data = to_data(&cert);
        assert_eq!(data.leaves, vec![(vec![3, 1], vec![0])]);
        let back = from_data(data);
        assert_eq!(back.leaves, cert.leaves);
        assert_eq!(
            (back.nodes, back.pruned, back.complete),
            (cert.nodes, cert.pruned, cert.complete)
        );
    }

    #[test]
    fn unfitting_certificates_are_rejected_not_replayed() {
        let p = rmw_program(9201, Atomicity::Type2);
        let sc = search::build_ctx(p.canonicalize().program());
        let bogus = Certificate {
            leaves: vec![Prefix {
                ws: vec![EventId(usize::MAX)],
                rf: vec![],
            }],
            nodes: 1,
            pruned: 0,
            complete: 1,
        };
        assert!(!fits(&bogus, &sc));
        let empty = Certificate {
            leaves: Vec::new(),
            nodes: 0,
            pruned: 0,
            complete: 5, // inconsistent with zero leaves
        };
        assert!(!fits(&empty, &sc));
    }

    #[test]
    fn a_persistent_store_serves_certificates_across_cache_clears() {
        #[derive(Default)]
        struct FakeStore {
            entries: Mutex<FastHashMap<Vec<u64>, CertData>>,
            saves: AtomicU64,
        }
        impl CertificateStore for FakeStore {
            fn load_cert(&self, masked_key: &[u64]) -> Option<CertData> {
                self.entries.lock().unwrap().get(masked_key).cloned()
            }
            fn save_cert(&self, masked_key: &[u64], _fingerprint: u64, cert: &CertData) {
                self.saves.fetch_add(1, Ordering::Relaxed);
                self.entries
                    .lock()
                    .unwrap()
                    .insert(masked_key.to_vec(), cert.clone());
            }
        }

        let store = Arc::new(FakeStore::default());
        set_store(Arc::<FakeStore>::clone(&store) as Arc<dyn CertificateStore>);
        let p = rmw_program(9301, Atomicity::Type1);
        let canon = p.canonicalize();
        let masked = canon.masked_key();
        let _ = query(&canon);
        assert!(store.saves.load(Ordering::Relaxed) >= 1);
        assert!(store.entries.lock().unwrap().contains_key(&masked));

        // Simulate a restart: drop the memory tier, keep the store.
        certs().lock().unwrap().remove(&masked);
        let before = counters();
        let again = query(&canon);
        let after = counters();
        assert!(again.prefix_hit, "store-loaded certificate must replay");
        assert!(after.store_hits > before.store_hits);
        assert_eq!(again.outcomes, allowed_outcomes(canon.program()));
        let _ = take_store();
    }
}
