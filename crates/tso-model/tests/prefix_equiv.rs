//! Prefix-certificate equivalence. A fresh search answers its program's
//! uniform atomicity rewrites at the same leaves and commits them to the
//! verdict cache, so those rewrites are cache hits. The certificate tier
//! serves the programs that share the atomicity-masked canonical key but
//! lie outside that family: mixed-type programs, such as a Dekker shape
//! with type-1 on one thread and type-2 on the other, which replay the
//! first search's recorded leaf set. These tests pin both contracts: a
//! family hit and a replayed answer are each **bit-identical** (outcome
//! set and the full [`SearchStats`]) to a fresh sequential search of the
//! queried program, across thread and address permutations too.
//!
//! The verdict cache, certificate cache, and their counters are
//! process-wide, so every test serializes on one mutex and builds
//! programs with test-unique written values (canonicalization does not
//! quotient values, so the keys cannot collide across tests).

use rmw_types::{Addr, Atomicity, RmwKind};
use std::ops::ControlFlow;
use std::sync::{Mutex, MutexGuard, OnceLock};
use tso_model::{
    allowed_outcomes, allowed_outcomes_cached, for_each_valid_execution, CachedOutcomes, Program,
    ProgramBuilder, SearchStats,
};

fn lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    match LOCK.get_or_init(Mutex::default).lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// The mixed-type programs: two threads under two different types.
const MIXES: [[Atomicity; 2]; 3] = [
    [Atomicity::Type1, Atomicity::Type2],
    [Atomicity::Type1, Atomicity::Type3],
    [Atomicity::Type2, Atomicity::Type3],
];

/// A 2-thread Dekker-RMW shape, thread `i`'s RMWs of type `types[i]`,
/// whose written values carry `tag`, making its canonical (and masked)
/// key unique to the calling test.
fn dekker_rmw(rounds: usize, types: [Atomicity; 2], tag: u64) -> Program {
    let mut b = ProgramBuilder::new();
    for (i, atomicity) in (0..2u64).zip(types) {
        let mine = Addr(i);
        let other = Addr((i + 1) % 2);
        let mut t = b.thread();
        for k in 1..=rounds as u64 {
            t.rmw(mine, RmwKind::FetchAndAdd(tag + k), atomicity)
                .read(other);
        }
    }
    b.build()
}

/// The reference both tiers must reproduce exactly: outcome set and
/// stats of a plain sequential search.
fn sequential_reference(
    p: &Program,
) -> (std::collections::BTreeSet<tso_model::Outcome>, SearchStats) {
    (
        allowed_outcomes(p),
        for_each_valid_execution(p, |_| ControlFlow::<()>::Continue(())),
    )
}

/// Asserts `got` answered `p` from the verdict cache, committed there by
/// a family member's search, with an outcome set and stats that match a
/// fresh sequential search bit-for-bit.
fn assert_family_hit_matches_sequential(name: &str, p: &Program, got: &CachedOutcomes) {
    assert!(got.hit, "{name}: expected a verdict-cache hit");
    assert!(!got.prefix_hit, "{name}: a hit replays nothing");
    let (outcomes, stats) = sequential_reference(p);
    assert_eq!(got.outcomes, outcomes, "{name}: outcome sets differ");
    assert_eq!(got.stats, stats, "{name}: family stats not bit-identical");
}

/// Asserts `got` answered `p` with a certificate replay whose outcome set
/// and stats match a fresh sequential search bit-for-bit.
fn assert_replay_matches_sequential(name: &str, p: &Program, got: &CachedOutcomes) {
    assert!(!got.hit, "{name}: expected a verdict-cache miss");
    assert!(got.prefix_hit, "{name}: expected a certificate replay");
    let (outcomes, stats) = sequential_reference(p);
    assert_eq!(got.outcomes, outcomes, "{name}: outcome sets differ");
    assert_eq!(got.stats, stats, "{name}: replayed stats not bit-identical");
}

#[test]
fn atomicity_siblings_replay_the_first_rewrites_certificate() {
    let _guard = lock();
    for rounds in 1..=2 {
        let tag = 0x9100 + rounds as u64 * 16;
        let uniform = |a| dekker_rmw(rounds, [a, a], tag);
        let first = uniform(Atomicity::Type1);
        let seeded = allowed_outcomes_cached(&first);
        assert!(
            !seeded.hit && !seeded.prefix_hit,
            "first rewrite pays the search"
        );
        let (outcomes, stats) = sequential_reference(&first);
        assert_eq!(seeded.outcomes, outcomes);
        assert_eq!(
            seeded.stats, stats,
            "the recording search reports sequential stats"
        );

        // The uniform siblings are the first search's family.
        for atomicity in [Atomicity::Type2, Atomicity::Type3] {
            let sibling = uniform(atomicity);
            let got = allowed_outcomes_cached(&sibling);
            let name = format!("rounds={rounds} {atomicity}");
            assert_family_hit_matches_sequential(&name, &sibling, &got);
        }

        // Mixed-type siblings share the masked key but not the family:
        // they replay the first search's certificate.
        for types in MIXES {
            let sibling = dekker_rmw(rounds, types, tag);
            let got = allowed_outcomes_cached(&sibling);
            let name = format!("rounds={rounds} {}/{}", types[0], types[1]);
            assert_replay_matches_sequential(&name, &sibling, &got);
        }
    }
}

#[test]
fn thread_and_address_permutations_still_hit_the_certificate() {
    let _guard = lock();
    let tag = 0x9900u64;

    // Asymmetric shape (different round counts per thread) so swapping
    // the threads is a genuine permutation, not an identity. `long` is
    // the two-round thread's type, `short` the other's.
    let original = |long: Atomicity, short: Atomicity| {
        let mut b = ProgramBuilder::new();
        b.thread()
            .rmw(Addr(0), RmwKind::FetchAndAdd(tag + 1), long)
            .read(Addr(1))
            .rmw(Addr(0), RmwKind::FetchAndAdd(tag + 2), long)
            .read(Addr(1));
        b.thread()
            .rmw(Addr(1), RmwKind::FetchAndAdd(tag + 3), short)
            .read(Addr(0));
        b.build()
    };
    // Threads swapped AND addresses renamed (0↔7, 1↔3): canonicalization
    // erases both, so only the atomicity distinguishes the keys.
    let permuted = |long: Atomicity, short: Atomicity| {
        let mut b = ProgramBuilder::new();
        b.thread()
            .rmw(Addr(3), RmwKind::FetchAndAdd(tag + 3), short)
            .read(Addr(7));
        b.thread()
            .rmw(Addr(7), RmwKind::FetchAndAdd(tag + 1), long)
            .read(Addr(3))
            .rmw(Addr(7), RmwKind::FetchAndAdd(tag + 2), long)
            .read(Addr(3));
        b.build()
    };

    let seeded = allowed_outcomes_cached(&original(Atomicity::Type1, Atomicity::Type1));
    assert!(
        !seeded.hit && !seeded.prefix_hit,
        "original Type1 pays the search"
    );

    // Same atomicity + permutation: the verdict cache already unifies
    // these — no certificate needed.
    let p = permuted(Atomicity::Type1, Atomicity::Type1);
    let same = allowed_outcomes_cached(&p);
    assert!(same.hit, "permutation alone is a verdict-cache hit");
    assert_eq!(same.outcomes, allowed_outcomes(&p));

    // Another uniform type + permutation: the search committed the
    // rewrite in its canonical frame, and the hit maps it back.
    for atomicity in [Atomicity::Type2, Atomicity::Type3] {
        let p = permuted(atomicity, atomicity);
        let got = allowed_outcomes_cached(&p);
        assert_family_hit_matches_sequential(&format!("permuted {atomicity}"), &p, &got);
    }

    // Mixed types + permutation: verdict fingerprints differ, the masked
    // keys do not — the certificate transfers across both.
    for [long, short] in MIXES {
        let p = permuted(long, short);
        let got = allowed_outcomes_cached(&p);
        assert_replay_matches_sequential(&format!("permuted {long}/{short}"), &p, &got);
    }
}

#[test]
fn replay_counters_attribute_the_saved_work() {
    let _guard = lock();
    let tag = 0xa500u64;
    let before = tso_model::prefix::counters();
    let fills = tso_model::cache::counters().family_fills;

    let first = dekker_rmw(2, [Atomicity::Type2; 2], tag);
    let seeded = allowed_outcomes_cached(&first);
    assert!(!seeded.prefix_hit);
    assert_eq!(
        tso_model::cache::counters().family_fills - fills,
        2,
        "the search committed the type-1 and type-3 rewrites"
    );
    let uniform = allowed_outcomes_cached(&dekker_rmw(2, [Atomicity::Type3; 2], tag));
    assert!(uniform.hit, "the uniform sibling is a family hit");
    let sibling = dekker_rmw(2, [Atomicity::Type2, Atomicity::Type3], tag);
    let got = allowed_outcomes_cached(&sibling);
    assert!(got.prefix_hit);

    let after = tso_model::prefix::counters();
    assert_eq!(
        after.queries - before.queries,
        2,
        "both misses reached the tier, the hit did not"
    );
    assert_eq!(
        after.hits - before.hits,
        1,
        "exactly the mixed sibling replayed"
    );
    assert_eq!(
        after.stored - before.stored,
        1,
        "exactly the first recorded"
    );
    assert_eq!(
        after.nodes_saved - before.nodes_saved,
        got.stats.nodes,
        "the saved work is the sibling's whole attributed decision tree"
    );
    assert!(after.replayed_leaves > before.replayed_leaves);
}
