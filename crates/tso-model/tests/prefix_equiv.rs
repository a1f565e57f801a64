//! Prefix-certificate equivalence: the atomicity rewrites of one shape —
//! and thread/address permutations thereof — share an atomicity-masked
//! canonical key, so after the first rewrite pays its pruned search the
//! siblings replay its recorded leaf set. These tests pin the transfer
//! contract: a replayed answer is **bit-identical** (outcome set and the
//! full [`SearchStats`]) to a fresh sequential search of the queried
//! program.
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

/// A 2-thread Dekker-RMW shape whose written values carry `tag`, making
/// its canonical (and masked) key unique to the calling test.
fn dekker_rmw(rounds: usize, atomicity: Atomicity, tag: u64) -> Program {
    let mut b = ProgramBuilder::new();
    for i in 0..2u64 {
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

/// The reference the certificate tier must reproduce exactly: outcome set
/// and stats of a plain sequential search.
fn sequential_reference(
    p: &Program,
) -> (std::collections::BTreeSet<tso_model::Outcome>, SearchStats) {
    (
        allowed_outcomes(p),
        for_each_valid_execution(p, |_| ControlFlow::<()>::Continue(())),
    )
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
        let first = dekker_rmw(rounds, Atomicity::Type1, tag);
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

        for atomicity in [Atomicity::Type2, Atomicity::Type3] {
            let sibling = dekker_rmw(rounds, atomicity, tag);
            let got = allowed_outcomes_cached(&sibling);
            assert_replay_matches_sequential(
                &format!("rounds={rounds} {atomicity}"),
                &sibling,
                &got,
            );
        }
    }
}

#[test]
fn thread_and_address_permutations_still_hit_the_certificate() {
    let _guard = lock();
    let tag = 0x9900u64;

    // Asymmetric shape (different round counts per thread) so swapping
    // the threads is a genuine permutation, not an identity.
    let original = |atomicity: Atomicity| {
        let mut b = ProgramBuilder::new();
        b.thread()
            .rmw(Addr(0), RmwKind::FetchAndAdd(tag + 1), atomicity)
            .read(Addr(1))
            .rmw(Addr(0), RmwKind::FetchAndAdd(tag + 2), atomicity)
            .read(Addr(1));
        b.thread()
            .rmw(Addr(1), RmwKind::FetchAndAdd(tag + 3), atomicity)
            .read(Addr(0));
        b.build()
    };
    // Threads swapped AND addresses renamed (0↔7, 1↔3): canonicalization
    // erases both, so only the atomicity distinguishes the keys.
    let permuted = |atomicity: Atomicity| {
        let mut b = ProgramBuilder::new();
        b.thread()
            .rmw(Addr(3), RmwKind::FetchAndAdd(tag + 3), atomicity)
            .read(Addr(7));
        b.thread()
            .rmw(Addr(7), RmwKind::FetchAndAdd(tag + 1), atomicity)
            .read(Addr(3))
            .rmw(Addr(7), RmwKind::FetchAndAdd(tag + 2), atomicity)
            .read(Addr(3));
        b.build()
    };

    let seeded = allowed_outcomes_cached(&original(Atomicity::Type1));
    assert!(
        !seeded.hit && !seeded.prefix_hit,
        "original Type1 pays the search"
    );

    // Same atomicity + permutation: the verdict cache already unifies
    // these — no certificate needed.
    let same = allowed_outcomes_cached(&permuted(Atomicity::Type1));
    assert!(same.hit, "permutation alone is a verdict-cache hit");
    assert_eq!(same.outcomes, allowed_outcomes(&permuted(Atomicity::Type1)));

    // Different atomicity + permutation: verdict fingerprints differ, the
    // masked keys do not — the certificate transfers across both.
    for atomicity in [Atomicity::Type2, Atomicity::Type3] {
        let p = permuted(atomicity);
        let got = allowed_outcomes_cached(&p);
        assert_replay_matches_sequential(&format!("permuted {atomicity}"), &p, &got);
    }
}

#[test]
fn replay_counters_attribute_the_saved_work() {
    let _guard = lock();
    let tag = 0xa500u64;
    let before = tso_model::prefix::counters();

    let first = dekker_rmw(2, Atomicity::Type2, tag);
    let seeded = allowed_outcomes_cached(&first);
    assert!(!seeded.prefix_hit);
    let sibling = dekker_rmw(2, Atomicity::Type3, tag);
    let got = allowed_outcomes_cached(&sibling);
    assert!(got.prefix_hit);

    let after = tso_model::prefix::counters();
    assert_eq!(
        after.queries - before.queries,
        2,
        "both misses reached the tier"
    );
    assert_eq!(after.hits - before.hits, 1, "exactly the sibling replayed");
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
