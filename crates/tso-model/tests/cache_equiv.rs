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

use proptest::prelude::*;
use rmw_types::{Addr, Atomicity, RmwKind};
use tso_model::{allowed_outcomes, allowed_outcomes_cached, Instr, Program};

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
