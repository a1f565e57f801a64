//! Property-based differential test: for random well-formed programs, the
//! deterministic simulator outcome under each of the three atomicities is
//! in the axiomatic model's allowed set (reads *and* final memory).
//!
//! Programs are drawn through `litmus::gen`'s seeded generator (the same
//! one the corpus uses), so proptest only has to supply seeds.

use litmus::gen;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use rmw_types::{Addr, Atomicity, RmwKind, Value};
use tso_model::allowed_outcomes;
use tso_sim::{lower_with_line_size, sim_addr, Machine, SimConfig};

/// Asserts that the deterministic sim outcome for `program` under each
/// atomicity is in the model's allowed set (reads *and* final memory).
fn assert_sim_is_model_allowed(program: &tso_model::Program) {
    for atomicity in Atomicity::ALL {
        let p = program.with_atomicity(atomicity);
        let mut cfg = SimConfig::small(p.num_threads().max(1));
        cfg.rmw_atomicity = atomicity;
        let line_size = cfg.line_size;
        let result = Machine::new(cfg, lower_with_line_size(&p, line_size)).run();
        assert!(!result.deadlocked, "{atomicity}: deadlock");
        let sim_reads: Vec<Value> = result.reads.iter().flatten().copied().collect();
        let allowed = allowed_outcomes(&p);
        assert!(
            allowed.iter().any(|o| {
                o.read_values() == sim_reads
                    && o.final_memory().iter().all(|&(a, v)| {
                        result
                            .memory
                            .get(&sim_addr(a, line_size))
                            .copied()
                            .unwrap_or(0)
                            == v
                    })
            }),
            "{atomicity}: sim outcome {sim_reads:?} (memory {:?}) not in model set {:?}",
            result.memory,
            allowed.iter().map(|o| o.read_values()).collect::<Vec<_>>()
        );
    }
}

/// Regression (found by a 50k-draft campaign sweep): a store whose
/// coherence transaction has been **accepted** is already globally
/// visible — its write-buffer slot only lingers for latency bookkeeping.
/// Forwarding a later read from that slot can resurrect a value another
/// core has since overwritten, producing an execution TSO forbids. In
/// this shape T0's `W 2←1` commits, T2's `W 2←2` is serialized after it
/// (the RMW's read of address 4 proves the order), and T0's `R 2` must
/// then see 2, never the stale forwarded 1.
#[test]
fn accepted_stores_do_not_forward_stale_values() {
    let mut b = tso_model::ProgramBuilder::new();
    b.thread()
        .write(Addr(2), 1)
        .rmw(Addr(4), RmwKind::TestAndSet, Atomicity::Type2)
        .read(Addr(2))
        .fence();
    b.thread().write(Addr(1), 3).write(Addr(3), 2);
    b.thread()
        .write(Addr(3), 4)
        .write(Addr(3), 1)
        .write(Addr(2), 2)
        .write(Addr(4), 2)
        .read(Addr(2));
    assert_sim_is_model_allowed(&b.build());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Every deterministic simulator run is a model-allowed TSO behaviour,
    /// under all three RMW atomicities.
    #[test]
    fn sim_outcome_is_model_allowed(seed in 0u64..1_000_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let program = gen::random_program(&mut rng);
        for atomicity in Atomicity::ALL {
            let p = program.with_atomicity(atomicity);
            let mut cfg = SimConfig::small(p.num_threads().max(1));
            cfg.rmw_atomicity = atomicity;
            let line_size = cfg.line_size;
            let result = Machine::new(cfg, lower_with_line_size(&p, line_size)).run();
            prop_assert!(!result.deadlocked, "{atomicity}: deadlock on seed {seed}");
            let sim_reads: Vec<Value> = result.reads.iter().flatten().copied().collect();
            let allowed = allowed_outcomes(&p);
            prop_assert!(
                allowed.iter().any(|o| {
                    o.read_values() == sim_reads
                        && o.final_memory().iter().all(|&(a, v)| {
                            result.memory.get(&sim_addr(a, line_size)).copied().unwrap_or(0) == v
                        })
                }),
                "{atomicity}, seed {seed}: sim outcome {sim_reads:?} not in model set {:?}",
                allowed.iter().map(|o| o.read_values()).collect::<Vec<_>>()
            );
        }
    }
}
