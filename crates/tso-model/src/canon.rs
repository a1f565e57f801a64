//! Symmetry reduction: canonical forms of programs under thread- and
//! address-renaming.
//!
//! The axiomatic model is blind to thread identity and to which concrete
//! [`Addr`] values a program uses: permuting the threads of a program and
//! bijectively renaming its addresses permutes the allowed outcome set in
//! the same way (reads reorder with their threads, final-memory entries
//! rename with their addresses) but changes nothing semantically — `ppo`,
//! `bar`, `po-loc`, the `ato` disjunctions, and the initial-value-0
//! convention are all symmetric in both. The generated litmus families
//! are riddled with such permutation-equivalent programs (scaled rings,
//! the three per-atomicity rewrites of RMW-free tests, random draws), so
//! the verdict cache ([`crate::cache`]) keys on the canonical form and
//! proves each equivalence class **once**.
//!
//! [`Program::canonicalize`] picks the canonical representative:
//!
//! * threads are permuted to minimize the serialized form — exhaustively
//!   for programs up to [`PERM_SEARCH_MAX_THREADS`] threads, identity
//!   order above (still sound: a coarser canonical form only misses
//!   dedup opportunities, it never conflates inequivalent programs);
//! * addresses are renamed to `0, 1, 2, …` in order of first appearance
//!   under that thread order;
//! * instruction values, RMW kinds, and atomicities are serialized
//!   verbatim — only thread order and address names are quotiented.
//!
//! The full canonical serialization (not its 64-bit
//! [`fingerprint`](Canonical::fingerprint)) is the cache key, so a hash
//! collision can never smuggle one program's verdict to another. The
//! [`Canonical`] value keeps both direction maps, letting callers
//! translate read indices and addresses between original and canonical
//! coordinates — [`Canonical::outcome_to_original`] is how the cache
//! hands back outcome sets in the caller's frame.

use crate::outcome::Outcome;
use crate::program::{Instr, Program};
use rmw_types::fasthash::FastHasher;
use rmw_types::{Addr, Atomicity, RmwKind, ThreadId};
use std::collections::BTreeMap;
use std::hash::Hasher as _;

/// Exhaustive thread-permutation search is bounded by this thread count
/// (7! = 5040 serializations); larger programs keep their thread order.
/// The bound covers every generated family in the corpus (≤ 7 threads).
pub const PERM_SEARCH_MAX_THREADS: usize = 7;

/// A program's canonical form with the coordinate maps back to the
/// original. Produced by [`Program::canonicalize`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Canonical {
    program: Program,
    key: Vec<u64>,
    fingerprint: u64,
    /// `perm[canonical thread position] = original ThreadId`.
    perm: Vec<ThreadId>,
    /// Original address → canonical address, sorted by original.
    addr_to_canon: Vec<(Addr, Addr)>,
    /// `read_map[original read index] = canonical read index`, both in
    /// the respective `(thread, po)` orders.
    read_map: Vec<usize>,
}

impl Canonical {
    /// The canonical representative program — what the cache actually
    /// searches.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// 64-bit fingerprint of the canonical serialization (for reports and
    /// diagnostics; the cache keys on the full serialization).
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// The collision-proof cache key: the canonical serialization itself.
    pub fn key(&self) -> &[u64] {
        &self.key
    }

    /// Maps a canonical-coordinate outcome back into the original
    /// program's frame: reads reorder through the inverse read map,
    /// memory entries rename through the inverse address map.
    pub fn outcome_to_original(&self, canonical: &Outcome) -> Outcome {
        let canon_reads = canonical.read_values();
        let reads = self
            .read_map
            .iter()
            .map(|&ci| canon_reads[ci])
            .collect::<Vec<_>>();
        let memory = canonical
            .final_memory()
            .iter()
            .map(|&(ca, v)| (self.addr_to_original(ca), v))
            .collect();
        Outcome::new(reads, memory)
    }

    /// Maps an original read-value vector into canonical order (the
    /// direction membership queries need).
    pub fn reads_to_canonical(&self, original: &[u64]) -> Vec<u64> {
        let mut canon = vec![0u64; original.len()];
        for (oi, &ci) in self.read_map.iter().enumerate() {
            canon[ci] = original[oi];
        }
        canon
    }

    /// Canonical name of an original address.
    pub fn addr_to_canonical(&self, addr: Addr) -> Addr {
        self.addr_to_canon
            .binary_search_by_key(&addr, |&(o, _)| o)
            .map(|i| self.addr_to_canon[i].1)
            .expect("address appears in the program")
    }

    /// Original name of a canonical address.
    pub fn addr_to_original(&self, canon: Addr) -> Addr {
        self.addr_to_canon
            .iter()
            .find(|&&(_, c)| c == canon)
            .map(|&(o, _)| o)
            .expect("canonical address came from this program")
    }

    /// `perm[canonical thread position] = original ThreadId`.
    pub fn thread_perm(&self) -> &[ThreadId] {
        &self.perm
    }

    /// The atomicity-masked canonical key: [`Canonical::key`] with every
    /// RMW's atomicity-rank word zeroed. See [`masked_key`].
    pub(crate) fn masked_key(&self) -> Vec<u64> {
        masked_key(&self.key)
    }
}

/// Zeroes the atomicity-rank word of every RMW instruction in a canonical
/// serialization, walking the word format structurally (values may be any
/// `u64`, so scanning for separators would be unsound).
///
/// Two canonical programs with equal masked keys are identical except for
/// per-RMW atomicity — and atomicity enters the search *only* through the
/// leaf-level `ato` disjunctions ([`crate::validity`]); the
/// `ppo`/`bar`/`po-loc`/dep graphs and hence every `ws`/`rf` decision,
/// prune, and complete leaf are atomicity-independent. Masked-key
/// equality is therefore exactly the soundness condition for sharing a
/// prefix certificate ([`crate::prefix`]) between programs.
///
/// For *uniform* atomicity rewrites (`Program::with_atomicity`, the
/// harness's per-test sweep) the canonical thread permutation is also
/// unaffected — every candidate serialization changes by the same rank
/// word substitutions, preserving the lexicographic minimum — so all
/// three rewrites of a test share one masked key. Mixed-atomicity
/// programs may canonicalize differently and miss sharing; that costs
/// performance only, never soundness.
pub(crate) fn masked_key(key: &[u64]) -> Vec<u64> {
    let mut out = key.to_vec();
    let mut i = 1; // skip the thread count
    while i < out.len() {
        debug_assert_eq!(out[i], u64::MAX, "expected thread separator");
        i += 1;
        let count = out[i] as usize;
        i += 1;
        for _ in 0..count {
            match out[i] {
                1 => i += 2, // Read: tag, addr
                2 => i += 3, // Write: tag, addr, value
                3 => {
                    // Rmw: tag, addr, kind, arg1, arg2, atomicity rank
                    out[i + 5] = 0;
                    i += 6;
                }
                4 => i += 1, // Fence: tag
                _ => unreachable!("malformed canonical key"),
            }
        }
    }
    out
}

impl Program {
    /// Canonicalizes the program under thread permutation and address
    /// renaming; see the module docs for the exact quotient.
    pub fn canonicalize(&self) -> Canonical {
        let n = self.num_threads();
        let identity: Vec<usize> = (0..n).collect();
        type Best = Option<(Vec<u64>, Vec<usize>, BTreeMap<Addr, Addr>)>;
        let mut best: Best = None;
        let consider = |perm: &[usize], best: &mut Option<_>| {
            let (key, addr_map) = serialize_under(self, perm);
            let better = match best {
                Some((best_key, _, _)) => key < *best_key,
                None => true,
            };
            if better {
                *best = Some((key, perm.to_vec(), addr_map));
            }
        };
        if n <= PERM_SEARCH_MAX_THREADS {
            let mut perm = identity;
            permute(&mut perm, 0, &mut |p| consider(p, &mut best));
        } else {
            consider(&identity, &mut best);
        }
        let (key, perm, addr_map) = best.expect("at least the identity permutation considered");

        let mut hasher = FastHasher::default();
        for &word in &key {
            hasher.write_u64(word);
        }
        let fingerprint = hasher.finish();

        // Rebuild the canonical program from the winning permutation.
        let mut canonical = Program::new();
        for &t in &perm {
            let instrs = self
                .thread(ThreadId(t))
                .iter()
                .map(|&i| rename_instr(i, &addr_map))
                .collect();
            canonical.add_thread(instrs);
        }

        // Original read index -> canonical read index: reads stay in po
        // order within their thread; threads move as blocks.
        let reads_per_thread: Vec<usize> = (0..n)
            .map(|t| thread_read_count(self.thread(ThreadId(t))))
            .collect();
        let mut canon_offset_of_original = vec![0usize; n];
        let mut offset = 0usize;
        for &t in &perm {
            canon_offset_of_original[t] = offset;
            offset += reads_per_thread[t];
        }
        let mut read_map = Vec::with_capacity(offset);
        for (t, &count) in reads_per_thread.iter().enumerate() {
            for j in 0..count {
                read_map.push(canon_offset_of_original[t] + j);
            }
        }

        Canonical {
            program: canonical,
            key,
            fingerprint,
            perm: perm.into_iter().map(ThreadId).collect(),
            addr_to_canon: addr_map.into_iter().collect(),
            read_map,
        }
    }

    /// The canonical fingerprint alone — a stable 64-bit identity shared
    /// by every thread-permuted / address-renamed variant of the program
    /// (up to the permutation-search bound).
    ///
    /// This is the cheap path consumers that only need the identity should
    /// take (the campaign driver computes one per generated test to decide
    /// `--shard i/n` membership): it runs the same minimum-serialization
    /// search as [`Program::canonicalize`] but skips rebuilding the
    /// canonical program and the coordinate maps.
    pub fn canonical_fingerprint(&self) -> u64 {
        let n = self.num_threads();
        let mut best: Option<Vec<u64>> = None;
        let mut consider = |perm: &[usize]| {
            let (key, _) = serialize_under(self, perm);
            let better = match &best {
                Some(b) => key < *b,
                None => true,
            };
            if better {
                best = Some(key);
            }
        };
        if n <= PERM_SEARCH_MAX_THREADS {
            let mut perm: Vec<usize> = (0..n).collect();
            permute(&mut perm, 0, &mut consider);
        } else {
            let identity: Vec<usize> = (0..n).collect();
            consider(&identity);
        }
        let key = best.expect("at least the identity permutation considered");
        let mut hasher = FastHasher::default();
        for &word in &key {
            hasher.write_u64(word);
        }
        hasher.finish()
    }
}

fn thread_read_count(instrs: &[Instr]) -> usize {
    instrs
        .iter()
        .filter(|i| matches!(i, Instr::Read(_) | Instr::Rmw { .. }))
        .count()
}

/// Serializes the program with threads in `perm` order and addresses
/// renamed by first appearance; returns the word stream and the rename map.
fn serialize_under(p: &Program, perm: &[usize]) -> (Vec<u64>, BTreeMap<Addr, Addr>) {
    let mut addr_map: BTreeMap<Addr, Addr> = BTreeMap::new();
    let mut next_addr = 0u64;
    let mut canon_of = |a: Addr, map: &mut BTreeMap<Addr, Addr>| -> u64 {
        map.entry(a)
            .or_insert_with(|| {
                let c = Addr(next_addr);
                next_addr += 1;
                c
            })
            .0
    };
    let mut words = Vec::with_capacity(p.num_instrs() * 4 + perm.len() + 1);
    words.push(perm.len() as u64);
    for &t in perm {
        let instrs = p.thread(ThreadId(t));
        words.push(u64::MAX); // unambiguous thread separator
        words.push(instrs.len() as u64);
        for &i in instrs {
            match i {
                Instr::Read(a) => {
                    words.push(1);
                    words.push(canon_of(a, &mut addr_map));
                }
                Instr::Write(a, v) => {
                    words.push(2);
                    words.push(canon_of(a, &mut addr_map));
                    words.push(v);
                }
                Instr::Rmw {
                    addr,
                    kind,
                    atomicity,
                } => {
                    words.push(3);
                    words.push(canon_of(addr, &mut addr_map));
                    let (k, a1, a2) = encode_kind(kind);
                    words.push(k);
                    words.push(a1);
                    words.push(a2);
                    words.push(atomicity_rank(atomicity));
                }
                Instr::Fence => words.push(4),
            }
        }
    }
    (words, addr_map)
}

fn rename_instr(i: Instr, addr_map: &BTreeMap<Addr, Addr>) -> Instr {
    match i {
        Instr::Read(a) => Instr::Read(addr_map[&a]),
        Instr::Write(a, v) => Instr::Write(addr_map[&a], v),
        Instr::Rmw {
            addr,
            kind,
            atomicity,
        } => Instr::Rmw {
            addr: addr_map[&addr],
            kind,
            atomicity,
        },
        Instr::Fence => Instr::Fence,
    }
}

fn encode_kind(kind: RmwKind) -> (u64, u64, u64) {
    match kind {
        RmwKind::TestAndSet => (0, 0, 0),
        RmwKind::FetchAndAdd(k) => (1, k, 0),
        RmwKind::CompareAndSwap { expected, new } => (2, expected, new),
        RmwKind::Exchange(v) => (3, v, 0),
    }
}

fn atomicity_rank(a: Atomicity) -> u64 {
    match a {
        Atomicity::Type1 => 1,
        Atomicity::Type2 => 2,
        Atomicity::Type3 => 3,
    }
}

/// Visits every permutation of `items` (Heap's-style recursive swap
/// enumeration; deterministic order).
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::outcome::allowed_outcomes;
    use crate::program::ProgramBuilder;
    use std::collections::BTreeSet;

    const X: Addr = Addr(0);
    const Y: Addr = Addr(1);
    const Z: Addr = Addr(2);

    fn sb(first: Addr, second: Addr) -> Program {
        let mut b = ProgramBuilder::new();
        b.thread().write(first, 1).read(second);
        b.thread().write(second, 1).read(first);
        b.build()
    }

    #[test]
    fn thread_permutation_shares_a_fingerprint() {
        // SB with its threads swapped is the same program to the model.
        let a = sb(X, Y);
        let mut b = ProgramBuilder::new();
        b.thread().write(Y, 1).read(X);
        b.thread().write(X, 1).read(Y);
        let b = b.build();
        assert_eq!(a.canonical_fingerprint(), b.canonical_fingerprint());
        assert_eq!(a.canonicalize().key(), b.canonicalize().key());
    }

    #[test]
    fn address_renaming_shares_a_fingerprint() {
        assert_eq!(
            sb(X, Y).canonical_fingerprint(),
            sb(Z, Addr(17)).canonical_fingerprint()
        );
    }

    #[test]
    fn distinct_programs_get_distinct_keys() {
        let a = sb(X, Y); // W x; R y  ‖  W y; R x
        let mut b = ProgramBuilder::new();
        b.thread().write(X, 1).read(X); // same-location variant
        b.thread().write(Y, 1).read(Y);
        let b = b.build();
        assert_ne!(a.canonicalize().key(), b.canonicalize().key());
        // Values are NOT quotiented.
        let mut c = ProgramBuilder::new();
        c.thread().write(X, 2).read(Y);
        c.thread().write(Y, 1).read(X);
        let c = c.build();
        assert_ne!(a.canonicalize().key(), c.canonicalize().key());
    }

    #[test]
    fn outcome_mapping_round_trips_the_allowed_set() {
        // allowed(P) must equal the canonical set mapped back through the
        // coordinate maps — for a program where the permutation is
        // non-trivial (distinguishable threads).
        let mut b = ProgramBuilder::new();
        b.thread().read(Y).read(X);
        b.thread().write(X, 1).write(Y, 2);
        let p = b.build();
        let canon = p.canonicalize();
        let direct = allowed_outcomes(&p);
        let mapped: BTreeSet<Outcome> = allowed_outcomes(canon.program())
            .iter()
            .map(|o| canon.outcome_to_original(o))
            .collect();
        assert_eq!(direct, mapped);
    }

    #[test]
    fn reads_map_is_a_bijection_consistent_with_both_frames() {
        let mut b = ProgramBuilder::new();
        b.thread().read(Y); // 1 read
        b.thread().write(X, 1).read(X).read(Y); // 2 reads
        let p = b.build();
        let canon = p.canonicalize();
        let outs = allowed_outcomes(&p);
        for o in &outs {
            let rv = o.read_values();
            let there = canon.reads_to_canonical(&rv);
            let back = canon.outcome_to_original(&Outcome::new(
                there,
                o.final_memory()
                    .iter()
                    .map(|&(a, v)| (canon.addr_to_canonical(a), v))
                    .collect(),
            ));
            assert_eq!(&back, o);
        }
    }

    #[test]
    fn canonical_verdicts_match_original_verdicts() {
        // The semantic core of symmetry reduction: the canonical program's
        // outcome set, mapped back, is the original's.
        for p in [sb(Addr(5), Addr(3)), {
            let mut b = ProgramBuilder::new();
            b.thread()
                .rmw(Z, rmw_types::RmwKind::TestAndSet, Atomicity::Type2)
                .read(X);
            b.thread().write(X, 1).fence().write(Z, 2);
            b.build()
        }] {
            let canon = p.canonicalize();
            let direct = allowed_outcomes(&p);
            let mapped: BTreeSet<Outcome> = allowed_outcomes(canon.program())
                .iter()
                .map(|o| canon.outcome_to_original(o))
                .collect();
            assert_eq!(direct, mapped, "program {p:?}");
        }
    }

    #[test]
    fn many_threaded_programs_still_canonicalize_soundly() {
        // Above the permutation bound only addresses are canonicalized;
        // the form must still be deterministic and self-consistent.
        let mut b = ProgramBuilder::new();
        for i in 0..(PERM_SEARCH_MAX_THREADS + 2) {
            b.thread().write(Addr(i as u64 + 40), 1).read(Addr(40));
        }
        let p = b.build();
        let c1 = p.canonicalize();
        let c2 = p.canonicalize();
        assert_eq!(c1.key(), c2.key());
        assert_eq!(c1.program().num_threads(), p.num_threads());
        // Addresses were renamed densely from 0.
        let addrs = c1.program().addresses();
        assert_eq!(addrs, (0..addrs.len() as u64).map(Addr).collect::<Vec<_>>());
    }

    #[test]
    fn masked_keys_match_across_atomicity_rewrites_only() {
        // The three uniform-atomicity rewrites of an RMW test share one
        // masked key (the certificate sharing condition) while their full
        // keys stay distinct (the verdict cache still distinguishes them).
        let mut b = ProgramBuilder::new();
        b.thread()
            .rmw(X, rmw_types::RmwKind::FetchAndAdd(1), Atomicity::Type1)
            .read(Y);
        b.thread().write(Y, 1).read(X);
        let p = b.build();
        let base = p.canonicalize();
        for a in [Atomicity::Type2, Atomicity::Type3] {
            let rewritten = p.with_atomicity(a).canonicalize();
            assert_ne!(base.key(), rewritten.key(), "{a:?}");
            assert_eq!(base.masked_key(), rewritten.masked_key(), "{a:?}");
        }
        // A structurally different program must not collide.
        let other = sb(X, Y).canonicalize();
        assert_ne!(base.masked_key(), other.masked_key());
    }

    #[test]
    fn masked_key_only_touches_rmw_rank_words() {
        // Adversarial values: a write of u64::MAX must not be mistaken
        // for a thread separator, and Fence/Read tags must parse.
        let mut b = ProgramBuilder::new();
        b.thread()
            .write(X, u64::MAX)
            .fence()
            .rmw(
                Y,
                rmw_types::RmwKind::CompareAndSwap {
                    expected: 3,
                    new: u64::MAX,
                },
                Atomicity::Type3,
            )
            .read(X);
        let p = b.build();
        let canon = p.canonicalize();
        let masked = canon.masked_key();
        let diffs: Vec<usize> = canon
            .key()
            .iter()
            .zip(&masked)
            .enumerate()
            .filter(|(_, (a, b))| a != b)
            .map(|(i, _)| i)
            .collect();
        assert_eq!(diffs.len(), 1, "exactly the one RMW rank word changes");
        assert_eq!(canon.key()[diffs[0]], 3, "Type3 rank");
        assert_eq!(masked[diffs[0]], 0);
    }

    #[test]
    fn fingerprint_is_stable_across_calls() {
        let p = sb(X, Y);
        assert_eq!(p.canonical_fingerprint(), p.canonical_fingerprint());
    }

    #[test]
    fn fast_fingerprint_agrees_with_full_canonicalization() {
        // The rebuild-free path must hash the same minimum serialization
        // as `canonicalize()`, on both sides of the permutation bound.
        let mut small = ProgramBuilder::new();
        small.thread().read(Y).write(X, 3);
        small
            .thread()
            .rmw(X, rmw_types::RmwKind::TestAndSet, Atomicity::Type3)
            .fence()
            .read(Y);
        let small = small.build();
        assert_eq!(
            small.canonical_fingerprint(),
            small.canonicalize().fingerprint()
        );
        let mut big = ProgramBuilder::new();
        for i in 0..(PERM_SEARCH_MAX_THREADS + 2) {
            big.thread().write(Addr(i as u64 + 9), 1).read(Addr(9));
        }
        let big = big.build();
        assert_eq!(
            big.canonical_fingerprint(),
            big.canonicalize().fingerprint()
        );
    }
}
