//! Equivalence of the memoized verdict cache ([`tso_model::cache`]) and
//! the sequential streaming engine — the reference implementation.
//!
//! The contract: memoization is *observationally invisible*. The cache
//! must return exactly `allowed_outcomes` for every program, including
//! thread-permuted and address-renamed duplicates that share one entry,
//! and every litmus verdict must survive being answered from it.
//!
//! Checked over the full [`litmus::classic`] and [`litmus::paper`]
//! corpora, the generated families with a seeded random tail, and
//! proptest-generated random programs.
//!
//! The family tests pin what a fresh search commits for its program's
//! uniform `with_atomicity` rewrites: each such answer is a cache hit and
//! exactly what a search of the rewrite's canonical program gives,
//! outcome set and full [`tso_model::SearchStats`], also across thread
//! and address permutations and under two workers racing on opposite
//! rewrites of the same family. A mixed-type program (one RMW type on one
//! thread, another on the next) is no uniform rewrite: it misses and takes
//! its own search, with the same exact answer.

use proptest::prelude::*;
use rmw_types::{Addr, Atomicity, RmwKind};
use std::ops::ControlFlow;
use std::sync::{mpsc, Arc, Barrier};
use std::time::Duration;
use tso_model::{
    allowed_outcomes, allowed_outcomes_cached, for_each_valid_execution, CachedOutcomes, Instr,
    Program, ProgramBuilder,
};

/// Asserts the memoized cache answers `p` with the direct search's set.
fn assert_cache_matches_search(name: &str, p: &Program) {
    assert_eq!(
        allowed_outcomes_cached(p).outcomes,
        allowed_outcomes(p),
        "{name}: cached outcome set differs"
    );
}

#[test]
fn classic_corpus_cache_matches_search() {
    for test in litmus::classic::all() {
        assert_cache_matches_search(&test.name, &test.program);
    }
}

#[test]
fn paper_corpus_cache_matches_search() {
    for test in litmus::paper::all() {
        assert_cache_matches_search(&test.name, &test.program);
    }
}

#[test]
fn generated_corpus_cache_matches_search() {
    // Every generated family instance plus a seeded random tail (the tail
    // is capped to keep the debug-mode suite fast; the full 460-test tail
    // runs through the same cache in the release-mode harness jobs).
    for test in litmus::gen::generated_corpus(litmus::gen::DEFAULT_SEED, 48) {
        assert_cache_matches_search(&test.name, &test.program);
    }
}

#[test]
fn corpora_verdicts_survive_memoization() {
    // The litmus verdicts themselves ride on the cache; every expectation
    // in both hand-written corpora must still hold — twice, so the second
    // pass is all cache hits.
    for _ in 0..2 {
        let mut tests = litmus::classic::all();
        tests.extend(litmus::paper::all());
        let failures = litmus::run_all(&tests);
        assert!(failures.is_empty(), "corpus failures: {failures:?}");
    }
}

#[test]
fn permuted_corpus_tests_share_cache_entries_without_changing_answers() {
    // Reverse the thread order of every classic test: the canonical
    // fingerprint must match the original's, and the (remapped) outcome
    // set must equal a direct search on the permuted program.
    for test in litmus::classic::all() {
        let p = &test.program;
        let mut reversed = Program::new();
        let threads: Vec<Vec<Instr>> = p.iter().map(|(_, instrs)| instrs.to_vec()).collect();
        for t in threads.into_iter().rev() {
            reversed.add_thread(t);
        }
        assert_eq!(
            p.canonical_fingerprint(),
            reversed.canonical_fingerprint(),
            "{}: thread reversal must not change the canonical class",
            test.name
        );
        assert_eq!(
            allowed_outcomes_cached(&reversed).outcomes,
            allowed_outcomes(&reversed),
            "{}: cached set wrong for the permuted sibling",
            test.name
        );
    }
}

/// Asserts `got` answers `p` exactly as a fresh search does: the outcome
/// set of `allowed_outcomes(p)` and the stats of a search of `p`'s
/// canonical program (the program the cache files the stats under).
fn assert_answer_is_a_fresh_search(name: &str, p: &Program, got: &CachedOutcomes) {
    assert_eq!(
        got.outcomes,
        allowed_outcomes(p),
        "{name}: outcome sets differ"
    );
    let canon = p.canonicalize();
    let fresh = for_each_valid_execution(canon.program(), |_| ControlFlow::<()>::Continue(()));
    assert_eq!(got.stats, fresh, "{name}: stats differ from a fresh search");
}

/// True when the uniform rewrite of `p` to `a` lands outside the frame
/// of `p`'s canonical program: it canonicalizes to another thread order,
/// so that program's search cannot answer it.
fn out_of_frame(p: &Program, a: Atomicity) -> bool {
    let rewrite = p.canonicalize().program().with_atomicity(a);
    rewrite.canonicalize().program() != &rewrite
}

#[test]
fn atomicity_rewrites_answer_exactly_as_their_own_searches() {
    // Each program is queried as written, then under its three uniform
    // rewrites — the harness's order. Seed-1 draft 215 has rewrites
    // outside its program's frame; the first of them cannot come from the
    // program's search and must take its own (a later one may come from
    // that search's family).
    let mut programs: Vec<(String, Program)> = litmus::classic::all()
        .into_iter()
        .chain(litmus::paper::all())
        .map(|t| (t.name, t.program))
        .collect();
    for seed in [1, 1001] {
        for i in (0..200).chain(std::iter::once(215)) {
            let draft = litmus::gen::campaign_draft(seed, i);
            programs.push((format!("seed {seed} {}", draft.name), draft.program));
        }
    }
    let before = tso_model::cache::counters();
    let mut own_searches = 0;
    for (name, p) in &programs {
        let _ = allowed_outcomes_cached(p);
        for a in Atomicity::ALL {
            let rewrite = p.with_atomicity(a);
            let got = allowed_outcomes_cached(&rewrite);
            assert_answer_is_a_fresh_search(&format!("{name} {a}"), &rewrite, &got);
            if name.starts_with("seed 1 camp-0000215") && out_of_frame(p, a) && !got.hit {
                own_searches += 1;
            }
        }
    }
    assert!(
        own_searches > 0,
        "no out-of-frame rewrite of seed-1 draft 215 took its own search"
    );
    let after = tso_model::cache::counters();
    assert!(
        after.family_fills > before.family_fills,
        "no search answered its atomicity family"
    );
}

/// The mixed-type programs: two threads under two different types.
const MIXES: [[Atomicity; 2]; 3] = [
    [Atomicity::Type1, Atomicity::Type2],
    [Atomicity::Type1, Atomicity::Type3],
    [Atomicity::Type2, Atomicity::Type3],
];

/// A 2-thread Dekker-RMW shape, thread `i`'s RMWs of type `types[i]`,
/// whose written values carry `tag`, making its canonical key unique to
/// the calling test (canonicalization does not quotient values).
fn dekker_rmw(rounds: u64, types: [Atomicity; 2], tag: u64) -> Program {
    let mut b = ProgramBuilder::new();
    for (i, atomicity) in (0..2u64).zip(types) {
        let mine = Addr(i);
        let other = Addr((i + 1) % 2);
        let mut t = b.thread();
        for k in 1..=rounds {
            t.rmw(mine, RmwKind::FetchAndAdd(tag + k), atomicity)
                .read(other);
        }
    }
    b.build()
}

#[test]
fn atomicity_siblings_hit_the_family_or_search_afresh() {
    for rounds in 1..=2 {
        let tag = 0x9100 + rounds * 16;
        let uniform = |a| dekker_rmw(rounds, [a, a], tag);
        let first = uniform(Atomicity::Type1);
        let seeded = allowed_outcomes_cached(&first);
        assert!(!seeded.hit, "rounds={rounds}: the first rewrite searches");
        assert_answer_is_a_fresh_search(&format!("rounds={rounds} type-1"), &first, &seeded);

        // The uniform siblings are the first search's family.
        for atomicity in [Atomicity::Type2, Atomicity::Type3] {
            let sibling = uniform(atomicity);
            let got = allowed_outcomes_cached(&sibling);
            let name = format!("rounds={rounds} {atomicity}");
            assert!(got.hit, "{name}: expected a family hit");
            assert_answer_is_a_fresh_search(&name, &sibling, &got);
        }

        // Mixed-type siblings are not: each takes its own search.
        for types in MIXES {
            let sibling = dekker_rmw(rounds, types, tag);
            let got = allowed_outcomes_cached(&sibling);
            let name = format!("rounds={rounds} {}/{}", types[0], types[1]);
            assert!(!got.hit, "{name}: expected a miss");
            assert_answer_is_a_fresh_search(&name, &sibling, &got);
        }
    }
}

#[test]
fn thread_and_address_permutations_hit_the_family_or_search_afresh() {
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
    assert!(!seeded.hit, "the original type-1 program searches");

    // Same atomicity + permutation: one canonical class.
    let p = permuted(Atomicity::Type1, Atomicity::Type1);
    let same = allowed_outcomes_cached(&p);
    assert!(same.hit, "permutation alone is a verdict-cache hit");
    assert_answer_is_a_fresh_search("permuted type-1", &p, &same);

    // Another uniform type + permutation: the search committed the
    // rewrite in its canonical frame, and the hit maps it back.
    for atomicity in [Atomicity::Type2, Atomicity::Type3] {
        let p = permuted(atomicity, atomicity);
        let got = allowed_outcomes_cached(&p);
        let name = format!("permuted {atomicity}");
        assert!(got.hit, "{name}: expected a family hit");
        assert_answer_is_a_fresh_search(&name, &p, &got);
    }

    // Mixed types + permutation: no family member, so a miss.
    for [long, short] in MIXES {
        let p = permuted(long, short);
        let got = allowed_outcomes_cached(&p);
        let name = format!("permuted {long}/{short}");
        assert!(!got.hit, "{name}: expected a miss");
        assert_answer_is_a_fresh_search(&name, &p, &got);
    }
}

#[test]
fn workers_racing_on_opposite_rewrites_both_finish_and_agree() {
    // Two workers query the type-1 and the type-3 rewrite of the same
    // fresh family at once, ~200 times: each search tries to commit the
    // other's rewrite, which must not make either wait on the other.
    const FAMILIES: u64 = 200;
    let family = |i: u64, a: Atomicity| {
        let tag = 0x7000_0000 + 16 * i;
        let mut b = ProgramBuilder::new();
        b.thread()
            .rmw(Addr(0), RmwKind::FetchAndAdd(tag), a)
            .read(Addr(1));
        b.thread()
            .rmw(Addr(1), RmwKind::FetchAndAdd(tag + 1), a)
            .write(Addr(0), tag + 2);
        b.build()
    };
    let start = Arc::new(Barrier::new(2));
    let (done, finished) = mpsc::channel();
    let workers: Vec<_> = [Atomicity::Type1, Atomicity::Type3]
        .into_iter()
        .map(|a| {
            let (start, done) = (Arc::clone(&start), done.clone());
            std::thread::spawn(move || {
                let answers: Vec<(Program, CachedOutcomes)> = (0..FAMILIES)
                    .map(|i| {
                        let p = family(i, a);
                        start.wait();
                        let got = allowed_outcomes_cached(&p);
                        (p, got)
                    })
                    .collect();
                done.send((a, answers)).expect("the test is waiting");
            })
        })
        .collect();
    drop(done);
    // A deadlock fails the test here instead of hanging it.
    for _ in 0..2 {
        let (a, answers) = finished
            .recv_timeout(Duration::from_secs(120))
            .expect("a worker panicked or never finished");
        for (i, (p, got)) in answers.iter().enumerate() {
            assert_answer_is_a_fresh_search(&format!("family {i} {a}"), p, got);
        }
    }
    for worker in workers {
        worker.join().expect("worker panicked");
    }
}

/// Generates a small random instruction.
fn arb_instr() -> impl Strategy<Value = Instr> {
    prop_oneof![
        (0u64..3).prop_map(|a| Instr::Read(Addr(a))),
        ((0u64..3), (1u64..3)).prop_map(|(a, v)| Instr::Write(Addr(a), v)),
        ((0u64..3), (0usize..3)).prop_map(|(a, t)| Instr::Rmw {
            addr: Addr(a),
            kind: RmwKind::FetchAndAdd(1),
            atomicity: Atomicity::ALL[t],
        }),
        Just(Instr::Fence),
    ]
}

fn arb_program() -> impl Strategy<Value = Program> {
    let thread = proptest::collection::vec(arb_instr(), 1..4);
    proptest::collection::vec(thread, 1..4).prop_map(|threads| {
        let mut p = Program::new();
        for t in threads {
            p.add_thread(t);
        }
        p
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn random_programs_cache_matches_search(p in arb_program()) {
        assert_cache_matches_search("random", &p);
    }

    #[test]
    fn random_programs_cache_agrees_under_renaming(p in arb_program()) {
        // Shift every address by a constant: same canonical class, same
        // remapped answers.
        let mut shifted = Program::new();
        for (_, instrs) in p.iter() {
            let moved: Vec<Instr> = instrs.iter().map(|&i| match i {
                Instr::Read(a) => Instr::Read(Addr(a.0 + 11)),
                Instr::Write(a, v) => Instr::Write(Addr(a.0 + 11), v),
                Instr::Rmw { addr, kind, atomicity } =>
                    Instr::Rmw { addr: Addr(addr.0 + 11), kind, atomicity },
                Instr::Fence => Instr::Fence,
            }).collect();
            shifted.add_thread(moved);
        }
        prop_assert_eq!(p.canonical_fingerprint(), shifted.canonical_fingerprint());
        prop_assert_eq!(
            allowed_outcomes_cached(&shifted).outcomes,
            allowed_outcomes(&shifted)
        );
    }
}
