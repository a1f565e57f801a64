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
//! * threads are permuted to minimize the serialized form — over every
//!   thread order for programs up to [`PERM_SEARCH_MAX_THREADS`]
//!   threads, identity order above (still sound: a coarser canonical form
//!   only misses dedup opportunities, it never conflates inequivalent
//!   programs);
//! * addresses are renamed to `0, 1, 2, …` in order of first appearance
//!   under that thread order;
//! * instruction values, RMW kinds, and atomicities are serialized
//!   verbatim — only thread order and address names are quotiented.
//!
//! # The thread-order search
//!
//! A serialization is the thread count followed by one segment per
//! thread, and a segment depends only on the threads placed before it
//! (they fix which addresses already have names). So the orders form a
//! tree — depth `k` places the thread at position `k` — and every order
//! under a node shares that node's serialized prefix. The search walks
//! this tree depth first, in the order of the swap enumeration (at depth
//! `k`, swap each of positions `k..n` into `k` in turn). It appends each
//! placed thread's words to one buffer and truncates them on backtrack,
//! and keeps the address renames in a list truncated the same way, so
//! no order allocates. The identity order is serialized first as the
//! initial best; a subtree whose prefix compares *greater* than the
//! best's prefix of the same length is dropped, since every order under
//! it serializes greater (all orders serialize to the same length). This
//! is branch and bound over labellings, as in canonical graph labelling
//! (McKay & Piperno, "Practical graph isomorphism, II", 2014).
//!
//! **Tie rule.** A complete order replaces the best only when it is
//! strictly smaller, so the winner is the *first* minimal order of the
//! swap enumeration — the order a scan of every order keeps. Pruning only
//! drops orders greater than the best at the time, which that scan would
//! not keep either, so keys, fingerprints, thread permutations and
//! coordinate maps do not depend on the pruning: verdict stores and
//! campaign shards written by the unpruned scan stay valid
//! (`tests/canon_equiv.rs` checks every part of the result against it).
//! One trap: a node whose prefix is already *smaller* than the best
//! skips comparing its children, but once an order below it becomes the
//! best, its prefix equals the best's and every enclosing node must
//! compare again (`descend` returns whether the best changed).
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
use std::cmp::Ordering;
use std::hash::Hasher as _;

/// The thread-order search is bounded by this thread count (at most
/// 7! = 5040 orders); larger programs keep their thread order.
///
/// Every program of the 554-test corpus has at most 7 threads, but
/// campaign drafts can have 8: 79 of the first 3,000 seed-1 drafts
/// (2.6 %) do. They keep identity order, so they never share a cache
/// entry or store record with a thread-permuted sibling. Raising the
/// bound changes the canonical key of every such program, and with it
/// the verdict store's keys.
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
}

impl Program {
    /// Canonicalizes the program under thread permutation and address
    /// renaming; see the module docs for the exact quotient.
    pub fn canonicalize(&self) -> Canonical {
        let n = self.num_threads();
        let mut search = OrderSearch::run(self);

        // Replay the winning order once for its address renames.
        search.words.truncate(1);
        search.renames.clear();
        for i in 0..n {
            search.place(search.best_order[i]);
        }
        debug_assert_eq!(search.words, search.best);
        let mut addr_to_canon: Vec<(Addr, Addr)> = (0u64..)
            .zip(&search.renames)
            .map(|(c, &a)| (a, Addr(c)))
            .collect();
        addr_to_canon.sort_unstable();
        let rename = |a: Addr| {
            let i = addr_to_canon
                .binary_search_by_key(&a, |&(o, _)| o)
                .expect("every address was renamed");
            addr_to_canon[i].1
        };

        // Rebuild the canonical program from the winning permutation.
        let perm = search.best_order;
        let mut canonical = Program::new();
        for &t in &perm {
            let instrs = self
                .thread(ThreadId(t))
                .iter()
                .map(|&i| match i {
                    Instr::Read(a) => Instr::Read(rename(a)),
                    Instr::Write(a, v) => Instr::Write(rename(a), v),
                    Instr::Rmw {
                        addr,
                        kind,
                        atomicity,
                    } => Instr::Rmw {
                        addr: rename(addr),
                        kind,
                        atomicity,
                    },
                    Instr::Fence => Instr::Fence,
                })
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
            fingerprint: fingerprint(&search.best),
            key: search.best,
            perm: perm.into_iter().map(ThreadId).collect(),
            addr_to_canon,
            read_map,
        }
    }

    /// The canonical fingerprint alone — a stable 64-bit identity shared
    /// by every thread-permuted / address-renamed variant of the program
    /// (up to the permutation-search bound).
    ///
    /// This is the cheap path consumers that only need the identity should
    /// take (the campaign driver computes one per generated test to decide
    /// `--shard i/n` membership): it runs the same thread-order search as
    /// [`Program::canonicalize`] and hashes the winning serialization,
    /// without rebuilding the canonical program or the coordinate maps.
    pub fn canonical_fingerprint(&self) -> u64 {
        fingerprint(&OrderSearch::run(self).best)
    }
}

/// `fasthash` of a canonical serialization.
fn fingerprint(key: &[u64]) -> u64 {
    let mut hasher = FastHasher::default();
    for &word in key {
        hasher.write_u64(word);
    }
    hasher.finish()
}

fn thread_read_count(instrs: &[Instr]) -> usize {
    instrs
        .iter()
        .filter(|i| matches!(i, Instr::Read(_) | Instr::Rmw { .. }))
        .count()
}

/// The branch-and-bound search for the least serialization over thread
/// orders (see the module docs). Every buffer is allocated once, before
/// the search.
struct OrderSearch<'p> {
    program: &'p Program,
    /// `order[..k]` are the threads placed at depth `k`; the rest are the
    /// unplaced threads, permuted in place by the swap enumeration.
    order: Vec<usize>,
    /// The thread count, then the segments of the placed threads.
    words: Vec<u64>,
    /// `renames[c]` is the original address named `c` by the placed
    /// threads.
    renames: Vec<Addr>,
    /// The least complete serialization found so far, and the first order
    /// (in enumeration order) that produces it.
    best: Vec<u64>,
    best_order: Vec<usize>,
}

impl<'p> OrderSearch<'p> {
    /// Serializes the identity order as the initial best, then searches
    /// every order if the program is within [`PERM_SEARCH_MAX_THREADS`].
    fn run(program: &'p Program) -> Self {
        let n = program.num_threads();
        let mut search = OrderSearch {
            program,
            order: (0..n).collect(),
            words: Vec::with_capacity(1 + 2 * n + 6 * program.num_instrs()),
            renames: Vec::with_capacity(program.num_instrs()),
            best: Vec::new(),
            best_order: (0..n).collect(),
        };
        search.words.push(n as u64);
        for t in 0..n {
            search.place(t);
        }
        search.best.clone_from(&search.words);
        if n <= PERM_SEARCH_MAX_THREADS {
            search.words.truncate(1);
            search.renames.clear();
            search.descend(0, false);
        }
        search
    }

    /// Searches the orders that extend the placed prefix `order[..k]`
    /// (its words in `words`). `below` says that prefix already serializes
    /// strictly below the best's. Returns whether the best changed, which
    /// makes the caller's `below` stale.
    fn descend(&mut self, k: usize, mut below: bool) -> bool {
        let n = self.order.len();
        if k == n {
            if below {
                self.best.copy_from_slice(&self.words);
                self.best_order.copy_from_slice(&self.order);
            }
            return below;
        }
        let mut replaced = false;
        for i in k..n {
            self.order.swap(k, i);
            let (start, named) = (self.words.len(), self.renames.len());
            self.place(self.order[k]);
            let end = self.words.len();
            let cmp = if below {
                Ordering::Less
            } else {
                self.words[start..].cmp(&self.best[start..end])
            };
            if cmp != Ordering::Greater && self.descend(k + 1, cmp == Ordering::Less) {
                // The new best shares this node's prefix.
                replaced = true;
                below = false;
            }
            self.words.truncate(start);
            self.renames.truncate(named);
            self.order.swap(k, i);
        }
        replaced
    }

    /// Appends thread `t`'s segment, naming its new addresses.
    fn place(&mut self, t: usize) {
        let instrs = self.program.thread(ThreadId(t));
        let (words, renames) = (&mut self.words, &mut self.renames);
        words.push(u64::MAX); // unambiguous thread separator
        words.push(instrs.len() as u64);
        for &i in instrs {
            match i {
                Instr::Read(a) => words.extend([1, name(renames, a)]),
                Instr::Write(a, v) => words.extend([2, name(renames, a), v]),
                Instr::Rmw {
                    addr,
                    kind,
                    atomicity,
                } => {
                    let (k, a1, a2) = encode_kind(kind);
                    let rank = atomicity_rank(atomicity);
                    words.extend([3, name(renames, addr), k, a1, a2, rank]);
                }
                Instr::Fence => words.push(4),
            }
        }
    }
}

/// The canonical name of `addr`: its position in `renames`, appended on
/// first appearance.
fn name(renames: &mut Vec<Addr>, addr: Addr) -> u64 {
    let c = renames.iter().position(|&a| a == addr).unwrap_or_else(|| {
        renames.push(addr);
        renames.len() - 1
    });
    c as u64
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
