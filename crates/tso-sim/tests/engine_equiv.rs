//! Engine-equivalence suite: the event-driven cycle-skipping engine must
//! be an **observational no-op** relative to the lockstep reference —
//! only faster.
//!
//! Every shape is run under both [`StepMode`]s and the full
//! `SimResult` is compared **cycle-exactly**: aggregate and per-core
//! `SimStats` (including `cycles`, stall and retry counters), read values,
//! final memory, interconnect traffic, and the deadlock flag. Coverage:
//!
//! * the hand-written classic + paper litmus corpus × all three RMW
//!   atomicities (lock contention, broadcasts, reverted drains);
//! * the §4 workload kernels (spinlock suite, TL2-style STM, Chase–Lev
//!   work stealing) on paper-latency configurations, including a
//!   32-core Table 2 machine and a scaled 128-core machine;
//! * §3.2's coordinated filter resets on every §4 kernel, with broadcast
//!   copies in flight across each reset;
//! * the Fig. 10 write-deadlock (watchdog equivalence in event time);
//! * dense spin phases that wedge right at the
//!   `last_progress + threshold + 1` watchdog edge and the `max_cycles`
//!   truncation boundary;
//! * random traces (proptest) over all atomicities;
//! * scheduler-level properties: time never moves backwards, never skips
//!   past an armed wakeup, and drains the same-cycle due set in the same
//!   order whether the arms landed in a wheel bucket or in the overflow
//!   heap.

use proptest::prelude::*;
use rmw_types::{Addr, Atomicity, RmwKind};
use tso_sim::{
    lower_with_line_size, Machine, Op, Scheduler, SimConfig, SimResult, Src, StepMode, Trace,
};

/// Runs the same configuration + traces under both engines and asserts
/// cycle-identical results; returns the event-driven result.
fn assert_engines_agree(mut cfg: SimConfig, traces: Vec<Trace>, label: &str) -> SimResult {
    cfg.step_mode = StepMode::Lockstep;
    let ls = Machine::new(cfg, traces.clone()).run();
    cfg.step_mode = StepMode::EventDriven;
    let ev = Machine::new(cfg, traces).run();
    assert_eq!(ev.first_difference(&ls), None, "{label}: engines disagree");
    ev
}

#[test]
fn litmus_corpus_is_engine_equivalent() {
    let mut tests = litmus::classic::all();
    tests.extend(litmus::paper::all());
    assert!(tests.len() >= 20, "corpus unexpectedly small");
    for l in &tests {
        for atomicity in Atomicity::ALL {
            let prog = l.program.with_atomicity(atomicity);
            let mut cfg = SimConfig::small(prog.num_threads().max(1));
            cfg.rmw_atomicity = atomicity;
            let traces = lower_with_line_size(&prog, cfg.line_size);
            assert_engines_agree(cfg, traces, &format!("{} / {atomicity}", l.name));
        }
    }
}

/// A paper-latency configuration scaled to `cores` with the chosen RMW
/// atomicity (see [`SimConfig::paper_scaled`]).
fn paper_scale(cores: usize, atomicity: Atomicity) -> SimConfig {
    let mut cfg = SimConfig::paper_scaled(cores);
    cfg.rmw_atomicity = atomicity;
    cfg
}

#[test]
fn workload_kernels_are_engine_equivalent() {
    // One kernel per idiom: spinlock (lock suite), TL2 (STM), Chase–Lev
    // (work stealing, both C/C++11 replacement variants).
    let kernels = [
        workloads::Benchmark::Radiosity,
        workloads::Benchmark::Bayes,
        workloads::Benchmark::WsqMstWr,
        workloads::Benchmark::WsqMstRr,
    ];
    for bench in kernels {
        for atomicity in Atomicity::ALL {
            let traces = workloads::benchmark(bench, 4, 800, 0xD15EA5E);
            let cfg = paper_scale(4, atomicity);
            let r = assert_engines_agree(cfg, traces, &format!("{bench} / {atomicity}"));
            assert!(r.stats.rmw_count > 0, "{bench}: kernel exercised no RMWs");
        }
    }
}

#[test]
fn filter_resets_are_engine_equivalent() {
    // §3.2's coordinated reset clears every core's filter while broadcast
    // copies are still crossing the mesh: those that arrived by the reset
    // cycle are wiped, later ones land in the cleared filters. A small
    // threshold makes resets frequent on an 8-core machine.
    for bench in workloads::Benchmark::ALL {
        for atomicity in [Atomicity::Type2, Atomicity::Type3] {
            let traces = workloads::benchmark(bench, 8, 300, 0xD15EA5E);
            let mut cfg = paper_scale(8, atomicity);
            cfg.bloom_reset_threshold = Some(6);
            let r = assert_engines_agree(cfg, traces, &format!("{bench} / {atomicity} / resets"));
            assert!(
                r.stats.bloom_resets > 0,
                "{bench} / {atomicity}: no reset fired"
            );
        }
    }
}

#[test]
fn paper_table2_machine_is_engine_equivalent() {
    // The full 32-core Table 2 machine — the configuration the
    // cycle-skipping engine exists for.
    let traces = workloads::benchmark(workloads::Benchmark::Raytrace, 32, 300, 7);
    let cfg = paper_scale(32, Atomicity::Type2);
    let r = assert_engines_agree(cfg, traces, "raytrace 32-core table2");
    assert!(!r.deadlocked);
    assert!(r.stats.rmw_count > 0);
}

#[test]
fn scaled_128_core_machine_is_engine_equivalent() {
    // The 128-core scaled machine (`--machine 128`): Table 2 latencies on
    // a 12×11 mesh with router-only nodes past the core count. Both
    // engines must agree on a workload that actually spreads over the
    // wide machine.
    let traces = workloads::benchmark(workloads::Benchmark::Genome, 128, 60, 11);
    let cfg = paper_scale(128, Atomicity::Type3);
    let r = assert_engines_agree(cfg, traces, "vacation 128-core scaled");
    assert!(!r.deadlocked);
    assert!(r.stats.rmw_count > 0);
}

#[test]
fn dense_spin_then_wedge_fires_the_watchdog_cycle_exactly() {
    // A dense spin phase, then a quiescent wedge. The watchdog must fire
    // at exactly `last_progress + threshold + 1` — sweep the threshold so
    // the edge lands at different offsets after the last progress.
    for threshold in [900, 1_000, 1_063, 1_089] {
        let mut cfg = SimConfig::small(2);
        cfg.deadlock_threshold = threshold;
        let spin = |n| {
            let mut ops = Vec::new();
            for _ in 0..n {
                ops.push(Op::read(Addr(0)));
            }
            // Park on a flag nobody ever sets: a genuine wedge.
            ops.push(Op::FutexWait(Addr(64), Src::Imm(0)));
            Trace::new(ops)
        };
        let r = assert_engines_agree(
            cfg,
            vec![spin(400), spin(300)],
            &format!("watchdog edge / threshold {threshold}"),
        );
        assert!(r.deadlocked, "orphaned sleepers must wedge");
    }
}

#[test]
fn truncation_at_the_cycle_ceiling_is_cycle_exact() {
    // `max_cycles` lands inside (and right at the edge of) the watchdog
    // interval of a wedged dense phase: `stop = fire.min(max_cycles)`
    // must resolve identically in both engines, flipping between
    // truncated and deadlocked as the ceiling crosses the fire cycle.
    for max_cycles in [500, 1_000, 1_490, 1_505, 2_000] {
        let mut cfg = SimConfig::small(2);
        cfg.deadlock_threshold = 700;
        cfg.max_cycles = max_cycles;
        let spin = |n| {
            let mut ops = Vec::new();
            for _ in 0..n {
                ops.push(Op::read(Addr(0)));
            }
            ops.push(Op::FutexWait(Addr(64), Src::Imm(0)));
            Trace::new(ops)
        };
        let r = assert_engines_agree(
            cfg,
            vec![spin(200), spin(150)],
            &format!("truncation edge / max {max_cycles}"),
        );
        assert!(
            r.deadlocked || r.truncated,
            "wedge must end in watchdog or ceiling"
        );
    }
}

#[test]
fn fig10_deadlock_is_engine_equivalent() {
    // The watchdog is redefined in event time; the wedge must be detected
    // at exactly the lockstep cycle, with identical partial statistics.
    let mut cfg = SimConfig::small(2);
    cfg.rmw_atomicity = Atomicity::Type2;
    cfg.bloom_enabled = false;
    cfg.deadlock_threshold = 7_500;
    let t0 = Trace::new(vec![Op::write(Addr(0), 1), Op::rmw(Addr(64))]);
    let t1 = Trace::new(vec![Op::write(Addr(64), 1), Op::rmw(Addr(0))]);
    let r = assert_engines_agree(cfg, vec![t0, t1], "fig10 unsafe");
    assert!(r.deadlocked, "unsafe Fig. 10 shape must wedge");
}

#[test]
fn zero_latency_config_terminates_and_is_engine_equivalent() {
    // Degenerate all-zero latencies make coherence transactions complete
    // in the cycle they issue; every event arm must still land strictly
    // in the future (the `.max(now + 1)` clamps), or the event engine
    // would never advance time.
    let mut cfg = SimConfig::small(2);
    cfg.coherence.l1_latency = 0;
    cfg.coherence.l2_latency = 0;
    cfg.coherence.memory_latency = 0;
    cfg.coherence.mesh.link_latency = 0;
    cfg.coherence.mesh.router_latency = 0;
    cfg.rmw_atomicity = Atomicity::Type2;
    let t0 = Trace::new(vec![
        Op::write(Addr(0), 1),
        Op::rmw(Addr(64)),
        Op::read(Addr(128)),
    ]);
    let t1 = Trace::new(vec![Op::rmw(Addr(64)), Op::write(Addr(128), 2)]);
    let r = assert_engines_agree(cfg, vec![t0, t1], "zero-latency config");
    assert!(!r.deadlocked);
    assert_eq!(r.stats.rmw_count, 2);
}

#[test]
fn quiescent_compute_watchdog_is_engine_equivalent() {
    // A compute bubble longer than the threshold trips the watchdog at
    // `last_progress + threshold + 1` under both engines, even though the
    // event engine sees the wedge instantly.
    let mut cfg = SimConfig::small(1);
    cfg.deadlock_threshold = 1_000;
    let t = Trace::new(vec![Op::Compute(1_200), Op::read(Addr(0))]);
    let r = assert_engines_agree(cfg, vec![t], "long compute bubble");
    assert!(r.deadlocked);
    assert_eq!(r.stats.cycles, 1_001);
}

/// One zoo kernel under both engines on the small machine — the futex /
/// branch / register paths exercised by a real lock algorithm (the full
/// matrix lives in `workloads/tests/zoo_invariants.rs`; this anchors the
/// contract from the sim crate's side).
#[test]
fn zoo_futex_kernel_is_engine_equivalent() {
    for atomicity in Atomicity::ALL {
        let mut cfg = SimConfig::small(4);
        cfg.rmw_atomicity = atomicity;
        let traces = workloads::zoo::ZooKernel::FutexMutex3.traces(4, 4);
        let r = assert_engines_agree(cfg, traces, &format!("futex_mutex3 / {atomicity}"));
        assert!(!r.deadlocked);
        assert_eq!(r.stats.futex_waits, r.stats.futex_wakeups);
    }
}

fn arb_op(lines: u64) -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => (0..lines).prop_map(|l| Op::Read(Addr(l * 64))),
        3 => ((0..lines), (1u64..50)).prop_map(|(l, v)| Op::Write(Addr(l * 64), v)),
        2 => (0..lines).prop_map(|l| Op::Rmw(Addr(l * 64), RmwKind::FetchAndAdd(1))),
        1 => Just(Op::Fence),
        1 => (1u32..30).prop_map(Op::Compute),
    ]
}

fn arb_traces(cores: usize, lines: u64, max_len: usize) -> impl Strategy<Value = Vec<Trace>> {
    proptest::collection::vec(
        proptest::collection::vec(arb_op(lines), 1..max_len).prop_map(Trace::new),
        cores..=cores,
    )
}

/// Random op mix that also exercises the futex primitive. Expected values
/// are drawn from the same small range as stores, so waits split between
/// genuine sleeps and EAGAIN returns; unmatched waits are caught by the
/// watchdog or the cycle ceiling — identically in both engines.
fn arb_futex_op(lines: u64) -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => (0..lines).prop_map(|l| Op::Read(Addr(l * 64))),
        3 => ((0..lines), (0u64..3)).prop_map(|(l, v)| Op::Write(Addr(l * 64), v)),
        2 => (0..lines).prop_map(|l| Op::Rmw(Addr(l * 64), RmwKind::FetchAndAdd(1))),
        2 => ((0..lines), (0u64..3)).prop_map(|(l, v)| Op::FutexWait(Addr(l * 64), Src::Imm(v))),
        2 => ((0..lines), (1u32..4)).prop_map(|(l, n)| Op::FutexWake(Addr(l * 64), n)),
        1 => (1u32..30).prop_map(Op::Compute),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random trace mixes agree between the engines under every atomicity
    /// — including tight write-buffer configurations that exercise the
    /// stall-episode accounting.
    #[test]
    fn random_traces_are_engine_equivalent(
        traces in arb_traces(3, 4, 16),
        wb in 1usize..6,
    ) {
        for atomicity in Atomicity::ALL {
            let mut cfg = SimConfig::small(3);
            cfg.rmw_atomicity = atomicity;
            cfg.write_buffer_entries = wb;
            assert_engines_agree(cfg, traces.clone(), &format!("random / {atomicity} / wb={wb}"));
        }
    }

    /// Futex liveness: however the arrival times fall, a publishing waker
    /// (store flag, wake all) never loses a waiter — every sleep is paired
    /// with a wakeup, and every waiter (slept or EAGAIN'd) observes the
    /// payload published *before* the flag store, under every atomicity
    /// and in both engines.
    #[test]
    fn futex_wakeups_are_never_lost(
        delays in proptest::collection::vec(1u32..400, 1..5),
        wake_delay in 1u32..400,
    ) {
        let flag = Addr(0);
        let data = Addr(64);
        let waiters = delays.len();
        let mut traces: Vec<Trace> = delays
            .iter()
            .map(|&d| {
                Trace::new(vec![
                    Op::Compute(d),
                    Op::FutexWait(flag, Src::Imm(0)),
                    Op::read(data),
                ])
            })
            .collect();
        traces.push(Trace::new(vec![
            Op::Compute(wake_delay),
            Op::write(data, 42),
            Op::write(flag, 1),
            Op::FutexWake(flag, u32::MAX),
        ]));
        for atomicity in Atomicity::ALL {
            let mut cfg = SimConfig::small(waiters + 1);
            cfg.rmw_atomicity = atomicity;
            let r = assert_engines_agree(
                cfg,
                traces.clone(),
                &format!("no-lost-wakeup / {atomicity}"),
            );
            prop_assert!(!r.deadlocked, "a waiter slept through the wakeup");
            prop_assert_eq!(r.stats.futex_wakeups, r.stats.futex_waits);
            prop_assert_eq!(
                r.stats.futex_waits + r.stats.futex_immediate,
                waiters as u64
            );
            for w in 0..waiters {
                // The wake drains the waker's buffer first, so by TSO FIFO
                // order the payload is visible to every released waiter.
                prop_assert_eq!(&r.reads[w], &vec![42u64], "waiter {} payload", w);
            }
        }
    }

    /// A wait whose expected-value check fails returns EAGAIN and must
    /// never be put to sleep or woken; a wake on an empty queue releases
    /// nobody.
    #[test]
    fn failed_expected_check_is_never_woken(
        delays in proptest::collection::vec(1u32..200, 1..4),
        expected in 2u64..9,
    ) {
        let flag = Addr(0);
        let waiters = delays.len();
        // The flag only ever holds 0 or 1, never `expected`.
        let mut traces: Vec<Trace> = delays
            .iter()
            .map(|&d| {
                Trace::new(vec![
                    Op::Compute(d),
                    Op::FutexWait(flag, Src::Imm(expected)),
                    Op::FutexWait(flag, Src::Imm(expected)),
                ])
            })
            .collect();
        traces.push(Trace::new(vec![
            Op::write(flag, 1),
            Op::FutexWake(flag, u32::MAX),
        ]));
        let cfg = SimConfig::small(waiters + 1);
        let r = assert_engines_agree(cfg, traces, "failed-expected");
        prop_assert!(!r.deadlocked);
        prop_assert_eq!(r.stats.futex_waits, 0, "a failed check went to sleep");
        prop_assert_eq!(r.stats.futex_wakeups, 0, "a non-sleeper was woken");
        prop_assert_eq!(r.stats.futex_immediate, 2 * waiters as u64);
        prop_assert_eq!(r.stats.futex_wakes, 0, "empty-queue wake dequeued someone");
    }

    /// Random programs over the *full* op set — futexes included — agree
    /// between the engines under a hard cycle ceiling. Orphaned sleepers
    /// end in watchdog deadlock or truncation; both flags and all partial
    /// statistics must match exactly.
    #[test]
    fn random_futex_traces_are_engine_equivalent(
        traces in proptest::collection::vec(
            proptest::collection::vec(arb_futex_op(3), 1..12).prop_map(Trace::new),
            3..=3,
        ),
    ) {
        for atomicity in Atomicity::ALL {
            let mut cfg = SimConfig::small(3);
            cfg.rmw_atomicity = atomicity;
            cfg.deadlock_threshold = 4_000;
            cfg.max_cycles = 20_000;
            assert_engines_agree(cfg, traces.clone(), &format!("random-futex / {atomicity}"));
        }
    }

    /// Scheduler property: `next_after` is strictly monotone (time never
    /// moves backwards) and never skips past an armed wakeup — every armed
    /// cycle in the future is visited, in order, with its due cores
    /// reported exactly once in ascending id order.
    #[test]
    fn scheduler_never_regresses_nor_skips(
        arms in proptest::collection::vec((1u64..2_000, 0usize..7), 1..60),
    ) {
        let mut sched = Scheduler::new(true);
        for &(at, core) in &arms {
            sched.wake_core(0, at, core);
        }
        let mut expected: Vec<u64> = arms.iter().map(|&(at, _)| at).collect();
        expected.sort_unstable();
        expected.dedup();
        let mut now = 0u64;
        let mut visited = Vec::new();
        let mut due = Vec::new();
        while let Some(next) = sched.next_after(now) {
            prop_assert!(next > now, "time moved backwards: {now} -> {next}");
            visited.push(next);
            now = next;
            due.clear();
            let _ = sched.drain_due(now, &mut due);
            let mut want: Vec<usize> = arms
                .iter()
                .filter(|&&(at, _)| at == now)
                .map(|&(_, core)| core)
                .collect();
            want.sort_unstable();
            want.dedup();
            prop_assert_eq!(&due, &want, "due set wrong at {}", now);
        }
        prop_assert_eq!(visited, expected, "armed wakeups skipped or invented");
        prop_assert_eq!(sched.pending(), 0);
    }

    /// Arms landing at the same cycle drain in the same ascending-id tick
    /// order whether they sit in a wheel bucket (armed near the target) or
    /// spilled to the overflow heap (armed from beyond the wheel horizon)
    /// — the batched bitmap drain makes the order canonical by
    /// construction, so the machine's tick order cannot depend on how far
    /// in advance an event was armed.
    #[test]
    fn wheel_and_overflow_drains_are_order_identical(
        cores in proptest::collection::vec(0usize..200, 1..40),
        at in 600u64..5_000,
    ) {
        let mut wheel = Scheduler::new(true);
        let mut overflow = Scheduler::new(true);
        for &core in &cores {
            // Armed one cycle out: lands in a wheel bucket.
            wheel.wake_core(at - 1, at, core);
            // Armed from cycle 0: beyond the horizon, lands in the
            // overflow heap.
            overflow.wake_core(0, at, core);
        }
        prop_assert_eq!(wheel.next_after(at - 1), Some(at));
        prop_assert_eq!(overflow.next_after(0), Some(at));
        let (mut wd, mut od) = (Vec::new(), Vec::new());
        let wf = wheel.drain_due(at, &mut wd);
        let of = overflow.drain_due(at, &mut od);
        let mut want = cores.clone();
        want.sort_unstable();
        want.dedup();
        prop_assert_eq!(&wd, &want, "wheel drain order not ascending ids");
        prop_assert_eq!(wd, od, "tick order depends on arm distance");
        prop_assert_eq!(wf, of, "blocked wakeup depends on arm distance");
        prop_assert_eq!(wheel.pending(), 0);
        prop_assert_eq!(overflow.pending(), 0);
    }

    /// Late arms interleaved with visits (the machine's actual usage
    /// pattern) still never pull time backwards or past a pending arm —
    /// including arms beyond the wheel horizon.
    #[test]
    fn scheduler_interleaved_arms_stay_monotone(
        steps in proptest::collection::vec((1u64..2_000, any::<bool>()), 1..80),
    ) {
        let mut sched = Scheduler::new(true);
        let mut now = 0u64;
        let mut pending: Vec<u64> = Vec::new();
        let mut due = Vec::new();
        for (delta, advance) in steps {
            if advance {
                let next = sched.next_after(now);
                pending.sort_unstable();
                pending.dedup();
                prop_assert_eq!(next, pending.first().copied(), "wrong next wakeup");
                if let Some(t) = next {
                    prop_assert!(t > now);
                    now = t;
                    due.clear();
                    let _ = sched.drain_due(now, &mut due);
                    pending.retain(|&p| p > now);
                }
            } else {
                let at = now + delta;
                sched.wake_core(now, at, 0);
                pending.push(at);
            }
        }
    }
}
