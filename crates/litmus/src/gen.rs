//! Generated litmus families: the classic shapes scaled by thread count,
//! Dekker round variants across the three RMW atomicities, and a seeded
//! stream of random well-formed programs.
//!
//! Together with the hand-written [`classic`](crate::classic) and
//! [`paper`](crate::paper) corpora these grow the test suite from ~30 to
//! 500+ programs, in the spirit of the diy/litmus7 generator families the
//! memory-model community uses to stress real models. The `harness` crate
//! runs the whole corpus differentially (axiomatic model vs. the timing
//! simulator) in parallel.
//!
//! Expectation provenance: the scaled classic families carry their
//! *textbook* TSO verdicts (each is the standard cycle/ordering argument,
//! independent of thread count — see the per-family docs). The Dekker round
//! variants and random programs carry **model-derived** verdicts
//! ([`Expect`] computed by the streaming search at generation time): for
//! those, `Litmus::check` is a regression pin, while the differential
//! harness provides the independent oracle.

use crate::{Expect, Litmus, Target};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rmw_types::{Addr, Atomicity, RmwKind, Value};
use tso_model::{allowed_outcomes_cached, Instr, Program, ProgramBuilder};

/// Default seed for [`generated_corpus`] (and the `litmus_run` CLI).
pub const DEFAULT_SEED: u64 = 0xFA57_2013;

/// Default number of random tests in [`generated_corpus`]: chosen so the
/// full corpus (hand-written + families + random) stays comfortably above
/// 500 tests.
pub const DEFAULT_RANDOM_COUNT: usize = 460;

fn x(i: usize) -> Addr {
    Addr(i as u64)
}

/// Computes the model's verdict for a target — used for families whose
/// expectation is not a textbook result.
///
/// Runs on the memoized outcome-set cache: the full set this derivation
/// proves is exactly what `Litmus::check` and the differential harness
/// consult later for the same program, so verdict derivation at
/// generation time doubles as cache warm-up instead of duplicated work.
fn expect_from_model(program: &Program, target: &Target) -> Expect {
    if target.observed_in(&allowed_outcomes_cached(program)) {
        Expect::Allowed
    } else {
        Expect::Forbidden
    }
}

/// SB ring over `n` threads: thread `i` runs `W x_i=1; R x_{i+1 mod n}`.
/// All reads 0 is **allowed** — every store can sit in its write buffer
/// past every read, for any `n` (the signature TSO relaxation).
///
/// # Panics
///
/// Panics if `n < 2`.
pub fn sb_ring(n: usize) -> Litmus {
    assert!(n >= 2, "SB ring needs at least 2 threads");
    let mut b = ProgramBuilder::new();
    for i in 0..n {
        b.thread().write(x(i), 1).read(x((i + 1) % n));
    }
    Litmus {
        name: format!("sb-ring-n{n}"),
        description: format!("{n}-thread store-buffering ring: all reads 0 allowed"),
        program: b.build(),
        target: Target((0..n).map(|i| (i, 0)).collect()),
        expect: Expect::Allowed,
    }
}

/// Message-passing chain over `n` threads: a producer writes the data then
/// flag 1; relay `i` reads flag `i` and writes flag `i+1`; the consumer
/// reads the last flag then the data. Seeing every flag set but stale data
/// is **forbidden** — W→W and R→R stay ordered on TSO, so the `rf`/`fr`
/// chain from data to the last read is acyclic only if the data read sees 1.
///
/// # Panics
///
/// Panics if `n < 2`.
pub fn mp_chain(n: usize) -> Litmus {
    assert!(n >= 2, "MP chain needs at least 2 threads");
    let data = x(0);
    let flag = |i: usize| x(i); // flags 1..n-1
    let mut b = ProgramBuilder::new();
    b.thread().write(data, 1).write(flag(1), 1);
    for i in 1..n - 1 {
        b.thread().read(flag(i)).write(flag(i + 1), 1);
    }
    b.thread().read(flag(n - 1)).read(data);
    // Reads in (thread, po) order: one per relay (indices 0..n-2), then the
    // consumer's flag read (n-2) and data read (n-1).
    let mut constraints: Vec<(usize, Value)> = (0..n - 1).map(|i| (i, 1)).collect();
    constraints.push((n - 1, 0));
    Litmus {
        name: format!("mp-chain-n{n}"),
        description: format!("{n}-thread message-passing chain: stale data after flags forbidden"),
        program: b.build(),
        target: Target(constraints),
        expect: Expect::Forbidden,
    }
}

/// Load-buffering ring over `n` threads: thread `i` runs
/// `R x_i; W x_{i+1 mod n}=1`. All reads 1 is **forbidden** — R→W is
/// preserved on TSO, so the `rf` edges close a `ppo ∪ rf` cycle.
///
/// # Panics
///
/// Panics if `n < 2`.
pub fn lb_ring(n: usize) -> Litmus {
    assert!(n >= 2, "LB ring needs at least 2 threads");
    let mut b = ProgramBuilder::new();
    for i in 0..n {
        b.thread().read(x(i)).write(x((i + 1) % n), 1);
    }
    Litmus {
        name: format!("lb-ring-n{n}"),
        description: format!("{n}-thread load-buffering ring: all reads 1 forbidden"),
        program: b.build(),
        target: Target((0..n).map(|i| (i, 1)).collect()),
        expect: Expect::Forbidden,
    }
}

/// IRIW with `readers` observer threads over two independent writers. The
/// first two readers scan `(x, y)` in opposite orders; disagreement on the
/// write order is **forbidden** (TSO is multi-copy atomic and reads stay
/// ordered). Extra readers alternate orders and are unconstrained — they
/// scale the candidate space, not the verdict.
///
/// # Panics
///
/// Panics if `readers < 2`.
pub fn iriw(readers: usize) -> Litmus {
    assert!(readers >= 2, "IRIW needs at least 2 readers");
    let mut b = ProgramBuilder::new();
    b.thread().write(x(0), 1);
    b.thread().write(x(1), 1);
    for j in 0..readers {
        let (first, second) = if j % 2 == 0 { (0, 1) } else { (1, 0) };
        b.thread().read(x(first)).read(x(second));
    }
    Litmus {
        name: format!("iriw-r{readers}"),
        description: format!(
            "IRIW with {readers} readers: disagreeing on the write order is forbidden"
        ),
        program: b.build(),
        // Reader 0 sees x=1 then y=0; reader 1 sees y=1 then x=0.
        target: Target(vec![(0, 1), (1, 0), (2, 1), (3, 0)]),
        expect: Expect::Forbidden,
    }
}

/// 2+2W ring over `n` threads: thread `i` runs
/// `W x_i=1; W x_{i+1}=2; R x_{i+1}`. Every thread reading 1 (its
/// neighbour's first store serialized after its own second store) is
/// **forbidden**: the implied `ws` edges plus the preserved W→W order form
/// a cycle around the ring.
///
/// # Panics
///
/// Panics if `n < 2`.
pub fn two_two_w_ring(n: usize) -> Litmus {
    assert!(n >= 2, "2+2W ring needs at least 2 threads");
    let mut b = ProgramBuilder::new();
    for i in 0..n {
        let next = (i + 1) % n;
        b.thread().write(x(i), 1).write(x(next), 2).read(x(next));
    }
    Litmus {
        name: format!("2+2w-ring-n{n}"),
        description: format!("{n}-thread 2+2W ring: cyclic write serialization forbidden"),
        program: b.build(),
        target: Target((0..n).map(|i| (i, 1)).collect()),
        expect: Expect::Forbidden,
    }
}

/// Which Dekker idiom a generated round variant uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DekkerFlavor {
    /// Reads replaced by `FAA(0)` RMWs (the paper's Fig. 4 idiom).
    ReadReplacement,
    /// Writes replaced by `TAS` RMWs (the paper's Fig. 3 idiom).
    WriteReplacement,
}

/// `n`-thread, `rounds`-round Dekker ring in the given RMW idiom, all RMWs
/// at `atomicity`. The target is the mutual-exclusion failure — every
/// synchronizing read missing its neighbour's writes. The expectation is
/// **model-derived** (the paper's Table 1 pins only the 2-thread, 1-round
/// shapes, which [`crate::paper`] covers).
///
/// # Panics
///
/// Panics if `n < 2` or `rounds < 1`.
pub fn dekker_rounds(
    n: usize,
    rounds: usize,
    atomicity: Atomicity,
    flavor: DekkerFlavor,
) -> Litmus {
    let (program, target) = dekker_rounds_parts(n, rounds, atomicity, flavor);
    let expect = expect_from_model(&program, &target);
    let tag = match flavor {
        DekkerFlavor::ReadReplacement => "rr",
        DekkerFlavor::WriteReplacement => "wr",
    };
    Litmus {
        name: format!("dekker-gen-{tag}-n{n}-r{rounds} {atomicity}"),
        description: format!(
            "generated Dekker ring ({n} threads, {rounds} rounds, {flavor:?}); model-derived verdict"
        ),
        program,
        target,
        expect,
    }
}

/// The program and target of [`dekker_rounds`] without the model-derived
/// expectation — the cheap half the campaign stream uses so shard
/// partitioning never pays a model query for out-of-shard drafts.
///
/// # Panics
///
/// Panics if `n < 2` or `rounds < 1`.
pub fn dekker_rounds_parts(
    n: usize,
    rounds: usize,
    atomicity: Atomicity,
    flavor: DekkerFlavor,
) -> (Program, Target) {
    assert!(n >= 2 && rounds >= 1, "need >= 2 threads and >= 1 round");
    let mut b = ProgramBuilder::new();
    let mut constraints: Vec<(usize, Value)> = Vec::new();
    let mut read_idx = 0usize;
    for i in 0..n {
        let mine = x(i);
        let other = x((i + 1) % n);
        let mut t = b.thread();
        for k in 1..=rounds {
            match flavor {
                DekkerFlavor::ReadReplacement => {
                    t.write(mine, k as Value)
                        .rmw(other, RmwKind::FetchAndAdd(0), atomicity);
                    constraints.push((read_idx, 0)); // the RMW read
                    read_idx += 1;
                }
                DekkerFlavor::WriteReplacement => {
                    t.rmw(mine, RmwKind::TestAndSet, atomicity).read(other);
                    read_idx += 1; // the RMW read is unconstrained
                    constraints.push((read_idx, 0)); // the plain read
                    read_idx += 1;
                }
            }
        }
    }
    (b.build(), Target(constraints))
}

// ---------------------------------------------------------------------------
// Zoo kernel idioms
// ---------------------------------------------------------------------------

/// A synchronization idiom from the `workloads::zoo` kernels, distilled to
/// a straight-line litmus shape (the model has no branches, so each shape
/// pins the *ordering* claim the kernel's control flow relies on).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ZooIdiom {
    /// TAS-lock handoff: acquirer after a release must see the CS data.
    SpinHandoff,
    /// Ticket-lock handoff: seeing `serving == my ticket` implies the
    /// previous holder's CS writes are visible.
    TicketHandoff,
    /// Drepper 3-state mutex unlock (`xchg 0`): an acquirer whose `xchg`
    /// observes the release must see the CS data.
    Mutex3Unlock,
    /// RW-lock entry race: a reader whose FAA observes the writer's held
    /// lock may still miss the writer's buffered data store (why readers
    /// must undo and wait).
    RwlockEnter,
    /// One-shot publish, read-replacement check: an `FAA(0)` on the ready
    /// flag that returns 1 implies the payload is visible.
    OneshotPublish,
    /// SPSC ring index lag: producer and consumer may each miss the
    /// other's latest index store (both sit in write buffers). No RMWs.
    SpscIndexLag,
    /// Arc drop race: a plain check-then-poison lets a live reference
    /// observe the poison (why real drops need stronger ordering).
    ArcDropRace,
}

impl ZooIdiom {
    /// All idioms, in presentation order.
    pub const ALL: [ZooIdiom; 7] = [
        ZooIdiom::SpinHandoff,
        ZooIdiom::TicketHandoff,
        ZooIdiom::Mutex3Unlock,
        ZooIdiom::RwlockEnter,
        ZooIdiom::OneshotPublish,
        ZooIdiom::SpscIndexLag,
        ZooIdiom::ArcDropRace,
    ];

    /// True if the shape contains RMWs (and so the atomicity parameter
    /// changes the program).
    pub fn uses_rmws(self) -> bool {
        self != ZooIdiom::SpscIndexLag
    }

    fn tag(self) -> &'static str {
        match self {
            ZooIdiom::SpinHandoff => "spin-handoff",
            ZooIdiom::TicketHandoff => "ticket-handoff",
            ZooIdiom::Mutex3Unlock => "mutex3-unlock",
            ZooIdiom::RwlockEnter => "rwlock-enter",
            ZooIdiom::OneshotPublish => "oneshot-publish",
            ZooIdiom::SpscIndexLag => "spsc-index-lag",
            ZooIdiom::ArcDropRace => "arc-drop-race",
        }
    }
}

/// Builds the litmus shape for one zoo idiom with every RMW at
/// `atomicity`. All verdicts are **model-derived**: the point of the
/// family is to pin what the axiomatic model says about the kernels'
/// load-bearing orderings, per atomicity, and feed the same shapes
/// through the formatter and differential harness.
pub fn zoo_idiom(idiom: ZooIdiom, atomicity: Atomicity) -> Litmus {
    let a = atomicity;
    let (lock, data, aux) = (x(0), x(1), x(2));
    let mut b = ProgramBuilder::new();
    let (target, description) = match idiom {
        ZooIdiom::SpinHandoff => {
            // T0 acquires (TAS reads 0), writes data, releases (w lock 0);
            // T1's TAS also reads 0 — serialized after the release — yet
            // sees stale data.
            b.thread()
                .rmw(lock, RmwKind::TestAndSet, a)
                .write(data, 1)
                .write(lock, 0);
            b.thread().rmw(lock, RmwKind::TestAndSet, a).read(data);
            (
                Target(vec![(0, 0), (1, 0), (2, 0)]),
                "TAS handoff: second acquirer sees stale critical-section data",
            )
        }
        ZooIdiom::TicketHandoff => {
            // aux = next-ticket counter, lock = serving counter.
            b.thread()
                .rmw(aux, RmwKind::FetchAndAdd(1), a)
                .read(lock)
                .write(data, 1)
                .rmw(lock, RmwKind::FetchAndAdd(1), a);
            b.thread()
                .rmw(aux, RmwKind::FetchAndAdd(1), a)
                .read(lock)
                .read(data);
            (
                // T0 drew ticket 0 and saw its turn; T1 drew ticket 1, saw
                // serving advance to 1, but reads stale data.
                Target(vec![(0, 0), (1, 0), (3, 1), (4, 1), (5, 0)]),
                "ticket handoff: serving==ticket yet stale critical-section data",
            )
        }
        ZooIdiom::Mutex3Unlock => {
            b.thread()
                .rmw(lock, RmwKind::Exchange(1), a)
                .write(data, 1)
                .rmw(lock, RmwKind::Exchange(0), a);
            b.thread().rmw(lock, RmwKind::Exchange(2), a).read(data);
            (
                // T0: clean acquire (read 0) and uncontended release
                // (read 1); T1's xchg read 0 — i.e. after the release,
                // since before T0's acquire it would make T0 read 2 —
                // yet stale data.
                Target(vec![(0, 0), (1, 1), (2, 0), (3, 0)]),
                "3-state unlock: contended acquire after release sees stale data",
            )
        }
        ZooIdiom::RwlockEnter => {
            // Writer CAS-acquires then writes under the lock; a reader's
            // FAA observes the held lock (reads 8).
            b.thread()
                .rmw(
                    lock,
                    RmwKind::CompareAndSwap {
                        expected: 0,
                        new: 8,
                    },
                    a,
                )
                .write(data, 1);
            b.thread().rmw(lock, RmwKind::FetchAndAdd(1), a).read(data);
            (
                // Reader entered after the writer held the lock but the
                // writer's data store is still buffered.
                Target(vec![(0, 0), (1, 8), (2, 0)]),
                "rwlock entry: reader sees writer-held lock but not its data",
            )
        }
        ZooIdiom::OneshotPublish => {
            b.thread().write(data, 42).write(lock, 1);
            b.thread().rmw(lock, RmwKind::FetchAndAdd(0), a).read(data);
            (
                Target(vec![(0, 1), (1, 0)]),
                "one-shot publish: ready flag read by RMW yet payload missing",
            )
        }
        ZooIdiom::SpscIndexLag => {
            // lock = tail, aux = head, data = the slot.
            b.thread().read(aux).write(data, 7).write(lock, 1);
            b.thread().read(lock).read(data).write(aux, 1);
            (
                // Producer already saw head=1 while the consumer still saw
                // tail=0 — both index stores buffered past the reads.
                Target(vec![(0, 1), (1, 0)]),
                "SPSC indices: producer and consumer each miss the other's index store",
            )
        }
        ZooIdiom::ArcDropRace => {
            // aux = strong count; T1 checks the count (FAA 0) and poisons.
            b.thread().rmw(aux, RmwKind::FetchAndAdd(1), a).read(data);
            b.thread()
                .rmw(aux, RmwKind::FetchAndAdd(0), a)
                .write(data, 13);
            (
                // The observer saw zero references, yet the clone-holding
                // thread reads the poison.
                Target(vec![(1, 13), (2, 0)]),
                "Arc drop: zero-refcount observer poisons while a reference reads it",
            )
        }
    };
    let program = b.build();
    let expect = expect_from_model(&program, &target);
    let name = if idiom.uses_rmws() {
        format!("zoo-{} {atomicity}", idiom.tag())
    } else {
        format!("zoo-{}", idiom.tag())
    };
    Litmus {
        name,
        description: format!("{description}; model-derived verdict"),
        program,
        target,
        expect,
    }
}

// ---------------------------------------------------------------------------
// Seeded random programs
// ---------------------------------------------------------------------------

/// Upper bound on the estimated `rf × ws` candidate space of a random
/// program. Programs above it are rejected and redrawn: one unlucky draw
/// (say, seven writes racing on one location) would otherwise dominate the
/// whole corpus's checking time, in the model *and* in the differential
/// harness's exhaustive `allowed_outcomes` pass.
const MAX_CANDIDATE_ESTIMATE: f64 = 10_000.0;

/// Estimated size of the `rf × ws` candidate space: per location
/// `(#writes)!` serializations, and per read `#same-location writes + 1`
/// `rf` sources (the `+1` is the initial write).
fn candidate_estimate(p: &Program) -> f64 {
    let mut writes_at: std::collections::BTreeMap<Addr, u64> = std::collections::BTreeMap::new();
    let mut reads: Vec<Addr> = Vec::new();
    for (_, instrs) in p.iter() {
        for i in instrs {
            match *i {
                Instr::Write(a, _) => *writes_at.entry(a).or_default() += 1,
                Instr::Read(a) => reads.push(a),
                Instr::Rmw { addr, .. } => {
                    *writes_at.entry(addr).or_default() += 1;
                    reads.push(addr);
                }
                Instr::Fence => {}
            }
        }
    }
    let ws: f64 = writes_at
        .values()
        .map(|&n| (1..=n).product::<u64>() as f64)
        .product();
    let rf: f64 = reads
        .iter()
        .map(|a| (writes_at.get(a).copied().unwrap_or(0) + 1) as f64)
        .product();
    ws * rf
}

/// The dimensions a random program is drawn from. The corpus default
/// ([`RandomSpace::default`]) matches the original PR 3 generator; the
/// campaign stream uses the larger [`RandomSpace::CAMPAIGN`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RandomSpace {
    /// Threads are drawn from `2..=max_threads`.
    pub max_threads: usize,
    /// Instructions per thread are drawn from `1..=max_instrs`.
    pub max_instrs: usize,
    /// Addresses are drawn from `0..locations`.
    pub locations: u64,
    /// Written values are drawn from `1..=max_value`.
    pub max_value: Value,
}

impl Default for RandomSpace {
    fn default() -> Self {
        RandomSpace {
            max_threads: 3,
            max_instrs: 4,
            locations: 4,
            max_value: 3,
        }
    }
}

impl RandomSpace {
    /// The bigger space the campaign stream draws from: up to 4 threads ×
    /// 5 instructions over 5 locations. The candidate-estimate rejection
    /// cap still bounds per-test checking cost, so the bigger space means
    /// more *shapes*, not unboundedly heavier tests.
    pub const CAMPAIGN: RandomSpace = RandomSpace {
        max_threads: 4,
        max_instrs: 5,
        locations: 5,
        max_value: 4,
    };
}

/// Generates one random well-formed program from the default
/// [`RandomSpace`]: 2–3 threads, 1–4 instructions each, over 4 locations,
/// with all RMW kinds and atomicities represented. Draws whose estimated
/// candidate space exceeds an internal cap (`MAX_CANDIDATE_ESTIMATE`) are
/// rejected and redrawn, bounding per-test checking cost.
pub fn random_program(rng: &mut StdRng) -> Program {
    random_program_in(rng, &RandomSpace::default())
}

/// [`random_program`] over an explicit [`RandomSpace`].
pub fn random_program_in(rng: &mut StdRng, space: &RandomSpace) -> Program {
    loop {
        let p = draw_program(rng, space);
        if candidate_estimate(&p) <= MAX_CANDIDATE_ESTIMATE {
            return p;
        }
    }
}

fn draw_program(rng: &mut StdRng, space: &RandomSpace) -> Program {
    let kinds = [
        RmwKind::TestAndSet,
        RmwKind::FetchAndAdd(1),
        RmwKind::FetchAndAdd(0),
        RmwKind::Exchange(2),
        RmwKind::CompareAndSwap {
            expected: 0,
            new: 1,
        },
        RmwKind::CompareAndSwap {
            expected: 1,
            new: 2,
        },
    ];
    let n_threads = rng.gen_range(2usize..space.max_threads + 1);
    let mut b = ProgramBuilder::new();
    for _ in 0..n_threads {
        let len = rng.gen_range(1usize..space.max_instrs + 1);
        let mut t = b.thread();
        for _ in 0..len {
            let a = Addr(rng.gen_range(0u64..space.locations));
            match rng.gen_range(0u32..100) {
                0..=29 => t.read(a),
                30..=59 => t.write(a, rng.gen_range(1u64..space.max_value + 1)),
                60..=84 => t.rmw(
                    a,
                    kinds[rng.gen_range(0usize..kinds.len())],
                    Atomicity::ALL[rng.gen_range(0usize..3)],
                ),
                _ => t.fence(),
            };
        }
    }
    b.build()
}

/// Generates one random litmus test: a [`random_program`] with a random
/// target over its reads and a model-derived expectation.
pub fn random_litmus(rng: &mut StdRng, index: usize) -> Litmus {
    let program = random_program(rng);
    let target = draw_target(rng, &program, 3);
    let expect = expect_from_model(&program, &target);
    Litmus {
        name: format!("rand-{index:03}"),
        description: "seeded random program; model-derived verdict".into(),
        program,
        target,
        expect,
    }
}

/// The generated corpus: every scaled classic family, the Dekker round
/// variants across all three atomicities, and `random_count` seeded random
/// tests. Deterministic in `(seed, random_count)`.
pub fn generated_corpus(seed: u64, random_count: usize) -> Vec<Litmus> {
    let mut tests = Vec::new();
    for n in 2..=7 {
        tests.push(sb_ring(n));
        tests.push(mp_chain(n));
        tests.push(lb_ring(n));
        tests.push(two_two_w_ring(n));
    }
    for readers in 2..=5 {
        tests.push(iriw(readers));
    }
    for &(n, rounds) in &[(2, 1), (2, 2), (3, 1)] {
        for atomicity in Atomicity::ALL {
            tests.push(dekker_rounds(
                n,
                rounds,
                atomicity,
                DekkerFlavor::ReadReplacement,
            ));
            tests.push(dekker_rounds(
                n,
                rounds,
                atomicity,
                DekkerFlavor::WriteReplacement,
            ));
        }
    }
    for idiom in ZooIdiom::ALL {
        if idiom.uses_rmws() {
            for atomicity in Atomicity::ALL {
                tests.push(zoo_idiom(idiom, atomicity));
            }
        } else {
            tests.push(zoo_idiom(idiom, Atomicity::Type1));
        }
    }
    let mut rng = StdRng::seed_from_u64(seed);
    for i in 0..random_count {
        tests.push(random_litmus(&mut rng, i));
    }
    tests
}

// ---------------------------------------------------------------------------
// Campaign stream
// ---------------------------------------------------------------------------

/// A campaign test whose model verdict may still be pending.
///
/// The campaign driver shards tests by canonical fingerprint *before*
/// running them, so drafting must be cheap: a draft carries the program
/// and target but defers the model-derived expectation until
/// [`finish`](CampaignDraft::finish) — which only in-shard tests ever
/// call. Drafts from families with textbook verdicts (the scaled rings)
/// arrive with `expect` already `Some`, also without a model query.
#[derive(Debug, Clone)]
pub struct CampaignDraft {
    /// Unique name, prefixed `camp-{index:07}-`.
    pub name: String,
    /// One-line provenance description.
    pub description: String,
    /// The program.
    pub program: Program,
    /// The interesting outcome.
    pub target: Target,
    /// The expected verdict, when known without a model query.
    pub expect: Option<Expect>,
}

impl CampaignDraft {
    /// The program's canonical fingerprint — the campaign's shard key and
    /// the verdict store's record key prefix. Cheap relative to a model
    /// search (no search, no canonical program rebuild).
    pub fn fingerprint(&self) -> u64 {
        self.program.canonical_fingerprint()
    }

    /// Resolves the draft into a runnable [`Litmus`], deriving the
    /// expectation from the model if it was deferred. This is the step
    /// that may pay a model search (or hit the memo cache / verdict
    /// store), so the campaign driver calls it from worker threads, for
    /// in-shard tests only.
    pub fn finish(self) -> Litmus {
        let expect = match self.expect {
            Some(e) => e,
            None => expect_from_model(&self.program, &self.target),
        };
        Litmus {
            name: self.name,
            description: self.description,
            program: self.program,
            target: self.target,
            expect,
        }
    }
}

/// SplitMix64-style finalizer mixing a campaign seed with a test index
/// into an independent per-test RNG seed. Random-access: draft `i` never
/// depends on drafts `0..i`, which is what makes sharding and resume cuts
/// exact.
fn mix(seed: u64, index: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(index)
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The mutation/splice base pool: every hand-written test (classic +
/// paper corpora). Built once per process.
fn base_pool() -> &'static [Litmus] {
    use std::sync::OnceLock;
    static POOL: OnceLock<Vec<Litmus>> = OnceLock::new();
    POOL.get_or_init(|| {
        let mut pool = crate::classic::all();
        pool.extend(crate::paper::all());
        pool
    })
}

/// Draws a random target over the program's reads (up to two constrained
/// reads, values in `0..max_value+1`). Empty program ⇒ empty target.
fn draw_target(rng: &mut StdRng, program: &Program, max_value: Value) -> Target {
    let num_reads = program.num_reads();
    if num_reads == 0 {
        return Target(Vec::new());
    }
    let count = rng.gen_range(1usize..2.min(num_reads) + 1);
    let mut indices: Vec<usize> = Vec::new();
    while indices.len() < count {
        let i = rng.gen_range(0usize..num_reads);
        if !indices.contains(&i) {
            indices.push(i);
        }
    }
    indices.sort_unstable();
    Target(
        indices
            .into_iter()
            .map(|i| (i, rng.gen_range(0u64..max_value + 1)))
            .collect(),
    )
}

/// Draws the index of one instruction of `thread` that `matches`, or
/// returns `None` without touching `rng` when none does.
fn pick_instr(
    rng: &mut StdRng,
    thread: &[Instr],
    matches: impl Fn(&Instr) -> bool,
) -> Option<usize> {
    let hits: Vec<usize> = (0..thread.len()).filter(|&k| matches(&thread[k])).collect();
    (!hits.is_empty()).then(|| hits[rng.gen_range(0usize..hits.len())])
}

/// One structural mutation of a base program. Returns the mutated threads
/// and a tag naming the mutation (for the draft description).
fn mutate_program(rng: &mut StdRng, base: &Program) -> (Program, &'static str) {
    let mut threads: Vec<Vec<Instr>> = base.iter().map(|(_, t)| t.to_vec()).collect();
    let tid = rng.gen_range(0usize..threads.len());
    let tag = match rng.gen_range(0u32..6) {
        0 => {
            // Cycle the atomicity of one RMW (if the chosen thread has any).
            if let Some(k) = pick_instr(rng, &threads[tid], |i| matches!(i, Instr::Rmw { .. })) {
                if let Instr::Rmw { atomicity, .. } = &mut threads[tid][k] {
                    *atomicity = match *atomicity {
                        Atomicity::Type1 => Atomicity::Type2,
                        Atomicity::Type2 => Atomicity::Type3,
                        Atomicity::Type3 => Atomicity::Type1,
                    };
                }
            }
            "flip-atomicity"
        }
        1 => {
            // Tweak one written value.
            if let Some(k) = pick_instr(rng, &threads[tid], |i| matches!(i, Instr::Write(..))) {
                if let Instr::Write(_, v) = &mut threads[tid][k] {
                    *v = rng.gen_range(1u64..5);
                }
            }
            "tweak-value"
        }
        2 => {
            // Insert a fence at a random point.
            let pos = rng.gen_range(0usize..threads[tid].len() + 1);
            threads[tid].insert(pos, Instr::Fence);
            "insert-fence"
        }
        3 => {
            // Swap two adjacent instructions.
            if threads[tid].len() >= 2 {
                let k = rng.gen_range(0usize..threads[tid].len() - 1);
                threads[tid].swap(k, k + 1);
            }
            "swap-adjacent"
        }
        4 => {
            // Strengthen one plain read into a read-replacement FAA(0).
            if let Some(k) = pick_instr(rng, &threads[tid], |i| matches!(i, Instr::Read(_))) {
                if let Instr::Read(a) = threads[tid][k] {
                    threads[tid][k] = Instr::Rmw {
                        addr: a,
                        kind: RmwKind::FetchAndAdd(0),
                        atomicity: Atomicity::ALL[rng.gen_range(0usize..3)],
                    };
                }
            }
            "read-to-faa"
        }
        _ => {
            // Strengthen one plain write into a write-replacement xchg.
            if let Some(k) = pick_instr(rng, &threads[tid], |i| matches!(i, Instr::Write(..))) {
                if let Instr::Write(a, v) = threads[tid][k] {
                    threads[tid][k] = Instr::Rmw {
                        addr: a,
                        kind: RmwKind::Exchange(v),
                        atomicity: Atomicity::ALL[rng.gen_range(0usize..3)],
                    };
                }
            }
            "write-to-xchg"
        }
    };
    let mut p = Program::new();
    for t in threads {
        p.add_thread(t);
    }
    (p, tag)
}

/// Draft candidate before the candidate-estimate gate is applied.
fn campaign_candidate(rng: &mut StdRng, index: u64) -> CampaignDraft {
    let pick = rng.gen_range(0u32..100);
    if pick < 35 {
        // Bigger random space than the corpus default.
        let program = random_program_in(rng, &RandomSpace::CAMPAIGN);
        let target = draw_target(rng, &program, RandomSpace::CAMPAIGN.max_value);
        CampaignDraft {
            name: format!("camp-{index:07}-rand"),
            description: "campaign random program (big space); model-derived verdict".into(),
            program,
            target,
            expect: None,
        }
    } else if pick < 55 {
        // Scaled families past the corpus defaults. The rings carry their
        // textbook verdicts (no model query); the Dekker variants defer.
        match rng.gen_range(0u32..6) {
            0 => {
                let n = rng.gen_range(2usize..9);
                let l = sb_ring(n);
                family_draft(index, l)
            }
            1 => {
                let n = rng.gen_range(2usize..9);
                family_draft(index, mp_chain(n))
            }
            2 => {
                let n = rng.gen_range(2usize..9);
                family_draft(index, lb_ring(n))
            }
            3 => {
                let n = rng.gen_range(2usize..8);
                family_draft(index, two_two_w_ring(n))
            }
            4 => {
                let readers = rng.gen_range(2usize..7);
                family_draft(index, iriw(readers))
            }
            _ => {
                let n = rng.gen_range(2usize..4);
                let rounds = rng.gen_range(1usize..4);
                let atomicity = Atomicity::ALL[rng.gen_range(0usize..3)];
                let flavor = if rng.gen_range(0u32..2) == 0 {
                    DekkerFlavor::ReadReplacement
                } else {
                    DekkerFlavor::WriteReplacement
                };
                let (program, target) = dekker_rounds_parts(n, rounds, atomicity, flavor);
                CampaignDraft {
                    name: format!("camp-{index:07}-dekker-n{n}-r{rounds}"),
                    description: format!(
                        "campaign Dekker ring ({n} threads, {rounds} rounds, {flavor:?}, \
                         {atomicity}); model-derived verdict"
                    ),
                    program,
                    target,
                    expect: None,
                }
            }
        }
    } else if pick < 78 {
        // One structural mutation of a hand-written base test.
        let pool = base_pool();
        let base = &pool[rng.gen_range(0usize..pool.len())];
        let (program, tag) = mutate_program(rng, &base.program);
        // Reuse the base target when its read indices survived the
        // mutation; otherwise redraw over the mutated program's reads.
        let target = if base.target.0.iter().all(|&(i, _)| i < program.num_reads())
            && !base.target.0.is_empty()
        {
            base.target.clone()
        } else {
            draw_target(rng, &program, 3)
        };
        CampaignDraft {
            name: format!("camp-{index:07}-mut-{tag}"),
            description: format!(
                "campaign mutation ({tag}) of {:?}; model-derived verdict",
                base.name
            ),
            program,
            target,
            expect: None,
        }
    } else {
        // Thread-splice cross-product of two hand-written base tests.
        let pool = base_pool();
        let a = &pool[rng.gen_range(0usize..pool.len())];
        let b = &pool[rng.gen_range(0usize..pool.len())];
        let mut threads: Vec<Vec<Instr>> = Vec::new();
        for (_, t) in a.program.iter() {
            threads.push(t.to_vec());
        }
        for (_, t) in b.program.iter() {
            if threads.len() >= 4 {
                break;
            }
            threads.push(t.to_vec());
        }
        threads.truncate(4);
        let mut program = Program::new();
        for t in threads {
            program.add_thread(t);
        }
        let target = draw_target(rng, &program, 3);
        CampaignDraft {
            name: format!("camp-{index:07}-splice"),
            description: format!(
                "campaign splice of {:?} × {:?} threads; model-derived verdict",
                a.name, b.name
            ),
            program,
            target,
            expect: None,
        }
    }
}

/// Wraps a family [`Litmus`] (textbook verdict already attached) as a
/// campaign draft under the campaign naming scheme.
fn family_draft(index: u64, l: Litmus) -> CampaignDraft {
    CampaignDraft {
        name: format!("camp-{index:07}-fam-{}", l.name),
        description: l.description,
        program: l.program,
        target: l.target,
        expect: Some(l.expect),
    }
}

/// Draft number `index` of the campaign stream for `seed`.
///
/// Deterministic and **random-access**: the draft depends only on
/// `(seed, index)`, never on earlier drafts, so any shard of the index
/// space can be generated independently and a resumed run regenerates
/// exactly the drafts it skipped. The stream mixes four sources —
/// ~35% big-space random programs, ~20% scaled families beyond the
/// corpus defaults, ~23% structural mutations of the hand-written
/// corpora, ~22% thread-splices of two hand-written tests. Drafts whose
/// estimated candidate space exceeds the generator cap are redrawn (and
/// after a few tries fall back to a default-space random program), so
/// per-test checking cost stays bounded.
///
/// No draft pays a model query: verdicts are either textbook
/// (`expect: Some`) or deferred to [`CampaignDraft::finish`].
pub fn campaign_draft(seed: u64, index: u64) -> CampaignDraft {
    let mut rng = StdRng::seed_from_u64(mix(seed, index));
    for _ in 0..8 {
        let draft = campaign_candidate(&mut rng, index);
        if candidate_estimate(&draft.program) <= MAX_CANDIDATE_ESTIMATE {
            return draft;
        }
    }
    // Fallback: the default random space always passes the gate quickly.
    let program = random_program(&mut rng);
    let target = draw_target(&mut rng, &program, 3);
    CampaignDraft {
        name: format!("camp-{index:07}-rand"),
        description: "campaign random program (fallback space); model-derived verdict".into(),
        program,
        target,
        expect: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run_all;

    #[test]
    fn family_verdicts_match_the_model() {
        // The textbook expectations baked into the scaled families must
        // agree with the model on every instance — this is the guard that
        // keeps a scaling bug from silently shipping a wrong verdict.
        let mut families: Vec<Litmus> = Vec::new();
        for n in 2..=5 {
            families.extend([sb_ring(n), mp_chain(n), lb_ring(n), two_two_w_ring(n)]);
        }
        families.push(iriw(2));
        families.push(iriw(3));
        let failures = run_all(&families);
        assert!(
            failures.is_empty(),
            "family verdict mismatches: {:?}",
            failures.iter().map(|f| f.report()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn dekker_rounds_matches_table1_on_the_paper_shapes() {
        // The (n=2, rounds=1) instances are exactly the paper's Fig. 3/4
        // shapes, so the model-derived verdicts must reproduce Table 1.
        for a in Atomicity::ALL {
            let rr = dekker_rounds(2, 1, a, DekkerFlavor::ReadReplacement);
            assert_eq!(
                rr.expect,
                Expect::Forbidden,
                "read replacement works for {a}"
            );
            let wr = dekker_rounds(2, 1, a, DekkerFlavor::WriteReplacement);
            let expected = if a == Atomicity::Type3 {
                Expect::Allowed // §2.5: type-3 write replacement fails
            } else {
                Expect::Forbidden
            };
            assert_eq!(wr.expect, expected, "write replacement under {a}");
        }
    }

    #[test]
    fn zoo_idioms_pin_the_kernels_load_bearing_orderings() {
        // The handoff/publish shapes are the orderings the zoo kernels'
        // correctness rests on: under every atomicity the model must
        // forbid a post-release acquirer from missing critical-section
        // data, and the `Litmus::check` pin must be self-consistent.
        for idiom in ZooIdiom::ALL {
            for atomicity in Atomicity::ALL {
                let t = zoo_idiom(idiom, atomicity);
                assert!(t.check().passed, "{} must pass its own pin", t.name);
                let reads = t.program.num_reads();
                for &(idx, _) in &t.target.0 {
                    assert!(idx < reads, "{}: r{idx} out of {reads}", t.name);
                }
            }
            let forbidden = matches!(
                idiom,
                ZooIdiom::SpinHandoff
                    | ZooIdiom::TicketHandoff
                    | ZooIdiom::Mutex3Unlock
                    | ZooIdiom::OneshotPublish
            );
            if forbidden {
                for atomicity in Atomicity::ALL {
                    assert_eq!(
                        zoo_idiom(idiom, atomicity).expect,
                        Expect::Forbidden,
                        "{idiom:?} handoff must be forbidden under {atomicity}"
                    );
                }
            }
        }
        // The two deliberately racy shapes are allowed: the rwlock reader
        // can miss the writer's buffered store (hence the undo-and-wait
        // protocol), and both SPSC index stores can lag (hence the ring
        // tolerates stale indices).
        assert_eq!(
            zoo_idiom(ZooIdiom::RwlockEnter, Atomicity::Type1).expect,
            Expect::Allowed
        );
        assert_eq!(
            zoo_idiom(ZooIdiom::SpscIndexLag, Atomicity::Type1).expect,
            Expect::Allowed
        );
    }

    #[test]
    fn corpus_is_large_deterministic_and_uniquely_named() {
        // Generate with a reduced random tail (model-deriving 460 verdicts
        // is a release-mode job — the harness does it); the full-size
        // arithmetic is checked from the family count.
        let corpus = generated_corpus(DEFAULT_SEED, 40);
        let families = corpus.len() - 40;
        let hand_written = crate::classic::all().len() + crate::paper::all().len();
        assert!(
            families + DEFAULT_RANDOM_COUNT + hand_written >= 550,
            "full corpus must stay >= 550 tests, got {families} + {DEFAULT_RANDOM_COUNT} + {hand_written}"
        );
        let mut names: Vec<&str> = corpus.iter().map(|t| t.name.as_str()).collect();
        names.sort_unstable();
        let total = names.len();
        names.dedup();
        assert_eq!(total, names.len(), "duplicate test names");
        // Determinism: same seed, same corpus prefix.
        let again = generated_corpus(DEFAULT_SEED, 25);
        assert_eq!(again[..], corpus[..again.len()]);
    }

    #[test]
    fn random_targets_index_real_reads() {
        let mut rng = StdRng::seed_from_u64(7);
        for i in 0..50 {
            let t = random_litmus(&mut rng, i);
            let reads = t.program.num_reads();
            for &(idx, _) in &t.target.0 {
                assert!(idx < reads, "{}: r{idx} out of {reads}", t.name);
            }
            // The model-derived verdict is self-consistent by construction.
            assert!(t.check().passed, "{} must pass its own pin", t.name);
        }
    }

    #[test]
    fn campaign_drafts_are_deterministic_and_random_access() {
        // The same (seed, index) must yield byte-identical drafts no
        // matter what was generated before — this is the property the
        // sharded/resumable campaign driver rests on.
        for index in [0u64, 1, 17, 999, 123_456] {
            let a = campaign_draft(42, index);
            let b = campaign_draft(42, index);
            assert_eq!(a.name, b.name);
            assert_eq!(a.program, b.program);
            assert_eq!(a.target, b.target);
            assert_eq!(a.expect, b.expect);
            assert_eq!(a.fingerprint(), b.fingerprint());
        }
        // Different seeds decorrelate the stream.
        let names_42: Vec<String> = (0..20).map(|i| campaign_draft(42, i).name).collect();
        let names_43: Vec<String> = (0..20).map(|i| campaign_draft(43, i).name).collect();
        assert_ne!(names_42, names_43);
    }

    #[test]
    fn campaign_drafts_are_well_formed_and_uniquely_named() {
        let mut names = std::collections::BTreeSet::new();
        for index in 0..200u64 {
            let d = campaign_draft(7, index);
            assert!(names.insert(d.name.clone()), "duplicate name {}", d.name);
            assert!(d.name.starts_with(&format!("camp-{index:07}-")));
            let reads = d.program.num_reads();
            for &(idx, _) in &d.target.0 {
                assert!(idx < reads, "{}: r{idx} out of {reads}", d.name);
            }
            assert!(
                candidate_estimate(&d.program) <= MAX_CANDIDATE_ESTIMATE,
                "{} exceeds the candidate cap",
                d.name
            );
            assert!(d.program.num_threads() >= 2, "{} single-threaded", d.name);
        }
    }

    #[test]
    fn finished_campaign_drafts_pass_their_own_pin() {
        // finish() derives deferred verdicts from the model, so the
        // resulting Litmus must be self-consistent; family drafts carry
        // textbook verdicts that must also agree with the model.
        for index in 0..12u64 {
            let t = campaign_draft(11, index).finish();
            assert!(t.check().passed, "{} must pass its own pin", t.name);
        }
    }

    #[test]
    fn campaign_fingerprint_matches_full_canonicalization() {
        for index in 0..30u64 {
            let d = campaign_draft(3, index);
            let full = d.program.canonicalize();
            assert_eq!(
                d.fingerprint(),
                full.fingerprint(),
                "{}: fast fingerprint drifted from canonical form",
                d.name
            );
        }
    }
}
