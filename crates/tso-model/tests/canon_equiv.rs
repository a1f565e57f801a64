//! Equivalence of the branch-and-bound canonical form
//! ([`tso_model::canon`]) and the exhaustive search it replaced — the
//! reference implementation, kept here as the oracle.
//!
//! The contract: pruning changes nothing. The verdict cache, the verdict
//! store and campaign sharding all key on the canonical form, so every
//! part of a [`Canonical`] must equal the oracle's — the key, the
//! fingerprint, the *thread permutation* (the first minimal order of the
//! swap enumeration; equal keys alone would not catch a search that
//! prunes against a stale bound and keeps a later tie), the canonical
//! program, the address map and the read map — and so must
//! `canonical_fingerprint`.
//!
//! Checked over the full corpus, the first 1,000 seed-1 campaign drafts,
//! proptest-generated random programs, and shapes where pruning cannot
//! cut anything or the search does not run at all: 0 and 1 threads, 2–8
//! identical threads, store-buffering rings of 2–8 threads, and programs
//! above [`PERM_SEARCH_MAX_THREADS`].

use proptest::prelude::*;
use rmw_types::fasthash::FastHasher;
use rmw_types::{Addr, Atomicity, RmwKind, ThreadId};
use std::collections::BTreeMap;
use std::hash::Hasher as _;
use tso_model::canon::PERM_SEARCH_MAX_THREADS;
use tso_model::{Canonical, Instr, Program};

/// The exhaustive oracle's canonical form.
struct Oracle {
    key: Vec<u64>,
    perm: Vec<usize>,
    /// Original address → canonical address.
    addr_map: BTreeMap<Addr, Addr>,
}

/// Serializes every thread order (up to the bound; identity above) and
/// keeps the first strictly least serialization in the swap enumeration's
/// order.
fn oracle(p: &Program) -> Oracle {
    let n = p.num_threads();
    let mut best: Option<Oracle> = None;
    let mut consider = |perm: &[usize]| {
        let (key, addr_map) = serialize_under(p, perm);
        let better = match &best {
            Some(b) => key < b.key,
            None => true,
        };
        if better {
            best = Some(Oracle {
                key,
                perm: perm.to_vec(),
                addr_map,
            });
        }
    };
    let mut perm: Vec<usize> = (0..n).collect();
    if n <= PERM_SEARCH_MAX_THREADS {
        permute(&mut perm, 0, &mut consider);
    } else {
        consider(&perm);
    }
    best.expect("at least the identity order")
}

/// Visits every permutation of `items` by recursive swaps, in the
/// canonical search's enumeration order.
fn permute(items: &mut Vec<usize>, k: usize, visit: &mut impl FnMut(&[usize])) {
    if k + 1 >= items.len() {
        visit(items);
        return;
    }
    for i in k..items.len() {
        items.swap(k, i);
        permute(items, k + 1, visit);
        items.swap(k, i);
    }
}

/// The word stream of `p` with threads in `perm` order and addresses
/// renamed by first appearance, and the rename map.
fn serialize_under(p: &Program, perm: &[usize]) -> (Vec<u64>, BTreeMap<Addr, Addr>) {
    let mut addr_map: BTreeMap<Addr, Addr> = BTreeMap::new();
    let mut canon_of = |a: Addr| {
        let next = Addr(addr_map.len() as u64);
        addr_map.entry(a).or_insert(next).0
    };
    let mut words = vec![perm.len() as u64];
    for &t in perm {
        let instrs = p.thread(ThreadId(t));
        words.push(u64::MAX);
        words.push(instrs.len() as u64);
        for &i in instrs {
            match i {
                Instr::Read(a) => words.extend([1, canon_of(a)]),
                Instr::Write(a, v) => words.extend([2, canon_of(a), v]),
                Instr::Rmw {
                    addr,
                    kind,
                    atomicity,
                } => {
                    let (k, a1, a2) = match kind {
                        RmwKind::TestAndSet => (0, 0, 0),
                        RmwKind::FetchAndAdd(k) => (1, k, 0),
                        RmwKind::CompareAndSwap { expected, new } => (2, expected, new),
                        RmwKind::Exchange(v) => (3, v, 0),
                    };
                    let rank = match atomicity {
                        Atomicity::Type1 => 1,
                        Atomicity::Type2 => 2,
                        Atomicity::Type3 => 3,
                    };
                    words.extend([3, canon_of(addr), k, a1, a2, rank]);
                }
                Instr::Fence => words.push(4),
            }
        }
    }
    (words, addr_map)
}

fn fasthash(key: &[u64]) -> u64 {
    let mut h = FastHasher::default();
    for &w in key {
        h.write_u64(w);
    }
    h.finish()
}

fn rename(i: Instr, map: &BTreeMap<Addr, Addr>) -> Instr {
    match i {
        Instr::Read(a) => Instr::Read(map[&a]),
        Instr::Write(a, v) => Instr::Write(map[&a], v),
        Instr::Rmw {
            addr,
            kind,
            atomicity,
        } => Instr::Rmw {
            addr: map[&addr],
            kind,
            atomicity,
        },
        Instr::Fence => Instr::Fence,
    }
}

/// Asserts every part of `p.canonicalize()` and `p.canonical_fingerprint()`
/// equals the oracle's.
fn assert_matches_oracle(name: &str, p: &Program) {
    let want = oracle(p);
    let got: Canonical = p.canonicalize();
    assert_eq!(got.key(), want.key, "{name}: key");
    assert_eq!(
        got.fingerprint(),
        fasthash(&want.key),
        "{name}: fingerprint"
    );
    assert_eq!(
        p.canonical_fingerprint(),
        fasthash(&want.key),
        "{name}: canonical_fingerprint"
    );
    let perm: Vec<ThreadId> = want.perm.iter().map(|&t| ThreadId(t)).collect();
    assert_eq!(got.thread_perm(), perm, "{name}: thread_perm");

    let mut program = Program::new();
    for &t in &want.perm {
        let instrs = p.thread(ThreadId(t));
        program.add_thread(instrs.iter().map(|&i| rename(i, &want.addr_map)).collect());
    }
    assert_eq!(got.program(), &program, "{name}: canonical program");
    for (&a, &c) in &want.addr_map {
        assert_eq!(got.addr_to_canonical(a), c, "{name}: address {a:?}");
        assert_eq!(
            got.addr_to_original(c),
            a,
            "{name}: canonical address {c:?}"
        );
    }

    // With read `i` reading `i`, `reads_to_canonical` spells out the whole
    // read map: the canonical frame lists the original indices of the
    // reads of `perm[0]`, then of `perm[1]`, … each in program order.
    let reads_of = |t: usize| {
        p.thread(ThreadId(t))
            .iter()
            .filter(|i| matches!(i, Instr::Read(_) | Instr::Rmw { .. }))
            .count() as u64
    };
    let original: Vec<u64> = (0..p.num_reads() as u64).collect();
    let mut want_reads = Vec::new();
    for &t in &want.perm {
        let first: u64 = (0..t).map(reads_of).sum();
        want_reads.extend(first..first + reads_of(t));
    }
    assert_eq!(
        got.reads_to_canonical(&original),
        want_reads,
        "{name}: read map"
    );
}

/// `n` copies of one thread.
fn identical_threads(n: usize, thread: &[Instr]) -> Program {
    let mut p = Program::new();
    for _ in 0..n {
        p.add_thread(thread.to_vec());
    }
    p
}

#[test]
fn full_corpus_matches_the_exhaustive_search() {
    let mut tests = litmus::classic::all();
    tests.extend(litmus::paper::all());
    tests.extend(litmus::gen::generated_corpus(
        litmus::gen::DEFAULT_SEED,
        litmus::gen::DEFAULT_RANDOM_COUNT,
    ));
    assert!(tests.len() >= 550, "corpus shrank to {}", tests.len());
    for t in &tests {
        assert_matches_oracle(&t.name, &t.program);
    }
}

#[test]
fn campaign_drafts_match_the_exhaustive_search() {
    for index in 0..1000 {
        let d = litmus::gen::campaign_draft(1, index);
        assert_matches_oracle(&d.name, &d.program);
    }
}

#[test]
fn unprunable_shapes_match_the_exhaustive_search() {
    assert_matches_oracle("no threads", &Program::new());
    let thread = [
        Instr::Write(Addr(3), 1),
        Instr::Fence,
        Instr::Rmw {
            addr: Addr(9),
            kind: RmwKind::TestAndSet,
            atomicity: Atomicity::Type2,
        },
        Instr::Read(Addr(3)),
    ];
    // Identical threads tie on every prefix, so nothing is pruned and the
    // identity order must win every tie; at 8 threads the search does not
    // run at all.
    for n in 1..=PERM_SEARCH_MAX_THREADS + 1 {
        assert_matches_oracle(
            &format!("{n} identical threads"),
            &identical_threads(n, &thread),
        );
    }
    for n in 2..=PERM_SEARCH_MAX_THREADS + 1 {
        let ring = litmus::gen::sb_ring(n);
        assert_matches_oracle(&ring.name, &ring.program);
    }
    // Above the bound a non-identity minimum exists but is not searched.
    let mut big = Program::new();
    for i in (0..PERM_SEARCH_MAX_THREADS as u64 + 2).rev() {
        big.add_thread(vec![Instr::Write(Addr(40 + i), i), Instr::Read(Addr(40))]);
    }
    assert_matches_oracle("reversed threads above the bound", &big);
}

/// A random instruction over three addresses and two values, so that
/// threads often tie on a prefix.
fn arb_instr() -> impl Strategy<Value = Instr> {
    prop_oneof![
        (0u64..3).prop_map(|a| Instr::Read(Addr(a))),
        ((0u64..3), (1u64..3)).prop_map(|(a, v)| Instr::Write(Addr(a), v)),
        ((0u64..3), (0usize..3), (0u64..2)).prop_map(|(a, t, k)| Instr::Rmw {
            addr: Addr(a),
            kind: if k == 0 {
                RmwKind::FetchAndAdd(1)
            } else {
                RmwKind::CompareAndSwap {
                    expected: 0,
                    new: 1,
                }
            },
            atomicity: Atomicity::ALL[t],
        }),
        Just(Instr::Fence),
    ]
}

fn arb_program() -> impl Strategy<Value = Program> {
    let thread = proptest::collection::vec(arb_instr(), 0..4);
    proptest::collection::vec(thread, 0..7).prop_map(|threads| {
        let mut p = Program::new();
        for t in threads {
            p.add_thread(t);
        }
        p
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn random_programs_match_the_exhaustive_search(p in arb_program()) {
        assert_matches_oracle("random", &p);
    }
}
