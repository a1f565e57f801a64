//! Equivalence of the streaming, pruned search engine and the legacy
//! materializing enumerator.
//!
//! The contract of [`tso_model::search`] is that pruning never changes the
//! answer: the executions it yields are exactly the valid ones among
//! `enumerate_candidates(p)`. This suite checks that on
//!
//! * the full [`litmus::classic`] and [`litmus::paper`] corpora (every
//!   program the repo uses to reproduce the paper's Table 1 verdicts),
//! * the small Dekker-RMW shapes under each atomicity, and
//! * proptest-generated random programs mixing reads, writes, RMWs of all
//!   three atomicity types, and fences — a second generator makes about
//!   half the instructions RMWs over three threads and three addresses, so
//!   complete leaves carry enough atomicity disjunctions for the leaf
//!   solver to propagate and branch.
//!
//! "Agree" is stronger than matching verdicts: the *full outcome sets*
//! (read values and final memory) must be equal, and the early-exit
//! variant must agree with set membership for every target.
//!
//! A last test pins the search's own decision-tree counters
//! ([`tso_model::SearchStats`]) on a fixed program set, so a change to how
//! the search prunes or undoes shows up even when the outcomes agree.

use proptest::prelude::*;
use rmw_types::{Addr, Atomicity, RmwKind, Value};
use std::collections::BTreeSet;
use std::ops::ControlFlow;
use tso_model::{
    allowed_outcomes, allowed_outcomes_with_stats, check_validity, enumerate_candidates,
    for_each_valid_execution, outcome_allowed, Instr, Outcome, Program, ProgramBuilder,
    SearchStats,
};

/// Asserts full agreement between the two engines on one program.
fn assert_engines_agree(name: &str, p: &Program) {
    // Reference semantics, materialized once: filter by `check_validity`.
    let legacy_valid: Vec<_> = enumerate_candidates(p)
        .into_iter()
        .filter(|c| check_validity(c).is_valid())
        .collect();
    let legacy: BTreeSet<Outcome> = legacy_valid.iter().map(Outcome::of_execution).collect();
    let streaming = allowed_outcomes(p);
    assert_eq!(
        streaming, legacy,
        "{name}: streaming and legacy outcome sets differ"
    );

    // Streaming visits each valid execution with a per-execution witness;
    // re-check validity independently and count.
    let mut visited = 0usize;
    for_each_valid_execution(p, |exec| {
        assert!(
            check_validity(exec).is_valid(),
            "{name}: streaming yielded an invalid execution"
        );
        visited += 1;
        ControlFlow::Continue(())
    });
    assert_eq!(
        visited,
        legacy_valid.len(),
        "{name}: streaming visited a different number of valid executions"
    );

    // The early-exit variant agrees with set membership on every observed
    // read-value vector (and on one vector that is not in the set).
    for o in &legacy {
        let target = o.read_values();
        assert!(
            outcome_allowed(p, |rv| rv == target),
            "{name}: outcome {target:?} in the set but not 'allowed'"
        );
    }
    let absent: Vec<Value> = vec![u64::MAX; p.num_reads()];
    if !legacy.iter().any(|o| o.read_values() == absent) {
        assert!(
            !outcome_allowed(p, |rv| rv == absent),
            "{name}: impossible outcome reported allowed"
        );
    }
}

#[test]
fn classic_corpus_engines_agree() {
    for test in litmus::classic::all() {
        assert_engines_agree(&test.name, &test.program);
    }
}

#[test]
fn paper_corpus_engines_agree() {
    for test in litmus::paper::all() {
        assert_engines_agree(&test.name, &test.program);
    }
}

#[test]
fn corpora_verdicts_unchanged_by_streaming() {
    // The litmus verdicts themselves ride on the streaming engine; every
    // expectation in both corpora must still hold.
    let mut tests = litmus::classic::all();
    tests.extend(litmus::paper::all());
    let failures = litmus::run_all(&tests);
    assert!(failures.is_empty(), "corpus failures: {failures:?}");
}

#[test]
fn dekker_rmw_shapes_engines_agree() {
    // Thread `i` alternates `RMW(x_i, +=k); R(x_{i+1 mod n})`: the bench
    // crate's Dekker-RMW family, built here because this crate cannot
    // depend on `bench`.
    for (n, rounds) in [(2, 1), (2, 2), (3, 1)] {
        for atomicity in Atomicity::ALL {
            let mut b = ProgramBuilder::new();
            for i in 0..n {
                let mut t = b.thread();
                for k in 1..=rounds {
                    t.rmw(Addr(i as u64), RmwKind::FetchAndAdd(k as u64), atomicity)
                        .read(Addr(((i + 1) % n) as u64));
                }
            }
            let name = format!("dekker-rmw n={n} r={rounds} {atomicity:?}");
            assert_engines_agree(&name, &b.build());
        }
    }
}

#[test]
fn decision_tree_counters_are_pinned() {
    // Both corpora and seed-1 campaign drafts 0..100, each as written and
    // under its three atomicity rewrites: 516 programs. The sums were
    // recorded from the search with per-edge reachability probes and
    // edge-log undo; any later search must walk the same tree.
    let mut programs: Vec<Program> = litmus::classic::all()
        .into_iter()
        .chain(litmus::paper::all())
        .map(|t| t.program)
        .collect();
    programs.extend((0..100).map(|i| litmus::gen::campaign_draft(1, i).program));
    let mut total = SearchStats::default();
    let mut outcomes = 0;
    let mut runs = 0;
    for p in &programs {
        let rewrites = Atomicity::ALL.map(|a| p.with_atomicity(a));
        for q in std::iter::once(p).chain(&rewrites) {
            let (set, stats) = allowed_outcomes_with_stats(q);
            total.absorb(&stats);
            outcomes += set.len();
            runs += 1;
        }
    }
    assert_eq!(runs, 516);
    assert_eq!(
        (
            total.nodes,
            total.pruned,
            total.complete,
            total.valid,
            outcomes
        ),
        (126_820, 10_496, 61_716, 39_870, 30_408),
        "decision-tree counters moved: {total:?}, {outcomes} outcomes"
    );
    assert!(!total.stopped_early && !total.budget_exhausted);
}

/// Generates a small random instruction.
fn arb_instr() -> impl Strategy<Value = Instr> {
    prop_oneof![
        (0u64..2).prop_map(|a| Instr::Read(Addr(a))),
        ((0u64..2), (1u64..3)).prop_map(|(a, v)| Instr::Write(Addr(a), v)),
        ((0u64..2), (0usize..3)).prop_map(|(a, t)| Instr::Rmw {
            addr: Addr(a),
            kind: RmwKind::FetchAndAdd(1),
            atomicity: Atomicity::ALL[t],
        }),
        Just(Instr::Fence),
    ]
}

fn arb_program() -> impl Strategy<Value = Program> {
    let thread = proptest::collection::vec(arb_instr(), 1..4);
    proptest::collection::vec(thread, 1..3).prop_map(|threads| {
        let mut p = Program::new();
        for t in threads {
            p.add_thread(t);
        }
        p
    })
}

/// A random instruction over three addresses, an RMW of any atomicity
/// about half the time.
fn arb_rmw_heavy_instr() -> impl Strategy<Value = Instr> {
    prop_oneof![
        3 => ((0u64..3), (0usize..3)).prop_map(|(a, t)| Instr::Rmw {
            addr: Addr(a),
            kind: RmwKind::FetchAndAdd(1),
            atomicity: Atomicity::ALL[t],
        }),
        1 => (0u64..3).prop_map(|a| Instr::Read(Addr(a))),
        1 => ((0u64..3), (1u64..3)).prop_map(|(a, v)| Instr::Write(Addr(a), v)),
        1 => Just(Instr::Fence),
    ]
}

/// Upper bound on the candidates the legacy enumerator materializes for
/// these threads: `ws` orders times `rf` choices, per address.
fn candidate_bound(threads: &[Vec<Instr>]) -> u64 {
    let (mut writes, mut reads) = ([0u64; 3], [0u32; 3]);
    for i in threads.iter().flatten() {
        match *i {
            Instr::Write(a, _) => writes[a.0 as usize] += 1,
            Instr::Read(a) => reads[a.0 as usize] += 1,
            Instr::Rmw { addr, .. } => {
                writes[addr.0 as usize] += 1;
                reads[addr.0 as usize] += 1;
            }
            Instr::Fence => {}
        }
    }
    (0..3)
        .map(|a| (1..=writes[a]).product::<u64>() * (writes[a] + 1).pow(reads[a]))
        .product()
}

/// Reference-side cap on [`candidate_bound`]: the reference materializes
/// and checks every candidate, and a debug build does ~10⁴ per second.
const MAX_CANDIDATES: u64 = 20000;

/// Three threads of one to three RMW-heavy instructions. Threads lose
/// their last instruction, longest thread first, until the program fits
/// [`MAX_CANDIDATES`]; one instruction per thread always fits.
fn arb_rmw_heavy_program() -> impl Strategy<Value = Program> {
    let thread = proptest::collection::vec(arb_rmw_heavy_instr(), 1..4);
    proptest::collection::vec(thread, 3..4).prop_map(|mut threads| {
        while candidate_bound(&threads) > MAX_CANDIDATES {
            let longest = (0..threads.len())
                .max_by_key(|&t| threads[t].len())
                .expect("three threads");
            threads[longest].pop();
        }
        let mut p = Program::new();
        for t in threads {
            p.add_thread(t);
        }
        p
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn random_programs_engines_agree(p in arb_program()) {
        assert_engines_agree("random", &p);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn random_rmw_heavy_programs_engines_agree(p in arb_rmw_heavy_program()) {
        assert_engines_agree("random rmw-heavy", &p);
    }
}
