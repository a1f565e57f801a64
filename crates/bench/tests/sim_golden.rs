//! Pins the simulator's results: one digest over every observable of a
//! fixed set of runs, checked against a committed constant.
//!
//! The digest covers every field `SimResult::first_difference` compares
//! (`stats`, `per_core`, `reads`, `memory` sorted by address,
//! `net.messages`, `net.hops`, `deadlocked` and `truncated`), so a change
//! that moves any simulated cycle, count, read value or final memory word
//! on these shapes fails here. All runs use the event engine (the
//! default); `engine_equiv` ties the lockstep engine to it.
//!
//! A second digest, [`WB_GOLDEN`], pins the write buffer over shapes the
//! first never varies: one- and two-entry buffers, one and 32 requests in
//! flight, type-1 drains of more pending stores than the issue window,
//! and a fence after every RMW.
//!
//! A change meant to move simulator results updates the digests it moves
//! and says in CHANGES.md why the results moved. Any other change leaves
//! them alone.

use rmw_types::fasthash::FastHasher;
use rmw_types::{Addr, Atomicity};
use std::hash::Hasher;
use tso_sim::{lower_with_line_size, Machine, Op, SimConfig, SimResult, Trace};
use workloads::Benchmark;

/// The digest of every shape in [`golden_shapes_are_unchanged`].
const GOLDEN: u64 = 2000391755150178841;

/// The digest of every shape in [`write_buffer_shapes_are_unchanged`].
const WB_GOLDEN: u64 = 1331856995858460869;

/// A running digest of simulator results, with the counts that show the
/// shapes still reach the paths they are meant to.
#[derive(Default)]
struct Digest {
    hasher: FastHasher,
    runs: u64,
    resets: u64,
    truncated: u64,
    messages: u64,
    stalls: u64,
    retries: u64,
    fence_cycles: u64,
}

impl Digest {
    fn add(&mut self, result: &SimResult) {
        // Destructured so that a new result field must be hashed here (or
        // skipped on purpose, like `engine`) before this compiles.
        let SimResult {
            stats,
            per_core,
            reads,
            memory,
            net,
            engine: _,
            deadlocked,
            truncated,
        } = result;
        let h = &mut self.hasher;
        h.write(format!("{stats:?}{per_core:?}").as_bytes());
        for core in reads {
            h.write_usize(core.len());
            for &v in core {
                h.write_u64(v);
            }
        }
        let mut words: Vec<_> = memory.iter().map(|(a, &v)| (a.0, v)).collect();
        words.sort_unstable();
        h.write_usize(words.len());
        for (addr, v) in words {
            h.write_u64(addr);
            h.write_u64(v);
        }
        h.write_u64(net.messages);
        h.write_u64(net.hops);
        h.write_u64(u64::from(*deadlocked));
        h.write_u64(u64::from(*truncated));
        self.runs += 1;
        self.resets += stats.bloom_resets;
        self.truncated += u64::from(*truncated);
        self.messages += net.messages;
        self.stalls += stats.wb_full_stalls;
        self.retries += stats.lock_retries;
        self.fence_cycles += stats.fence_cycles;
    }

    fn run(&mut self, cfg: SimConfig, traces: Vec<Trace>) {
        self.add(&Machine::new(cfg, traces).run());
    }

    /// The 8 benchmarks under each of `types` on `base` at `memops` memory
    /// operations per core.
    fn benchmarks(&mut self, base: &SimConfig, memops: usize, types: &[Atomicity]) {
        for bench in Benchmark::ALL {
            for &atomicity in types {
                let mut cfg = *base;
                cfg.rmw_atomicity = atomicity;
                let traces = workloads::benchmark(bench, cfg.num_cores(), memops, bench::SEED);
                self.run(cfg, traces);
            }
        }
    }
}

const TYPES_2_3: [Atomicity; 2] = [Atomicity::Type2, Atomicity::Type3];

#[test]
fn golden_shapes_are_unchanged() {
    let mut d = Digest::default();

    // The Fig. 11 sweep (all three types) on a 4-core machine.
    d.benchmarks(&SimConfig::paper_scaled(4), 1000, &Atomicity::ALL);

    // The Table 2 machine, where a broadcast crosses the whole mesh.
    let paper = SimConfig::paper_scaled(32);
    d.benchmarks(&paper, 300, &TYPES_2_3);

    // Coordinated filter resets: a threshold small enough to fire often.
    let before = d.resets;
    let mut reset = SimConfig::paper_scaled(8);
    reset.bloom_reset_threshold = Some(6);
    d.benchmarks(&reset, 1000, &TYPES_2_3);
    assert!(d.resets > before, "the reset shape fired no filter reset");

    // Runs cut by the cycle ceiling, with broadcasts still in flight.
    let before = d.truncated;
    let mut cut = paper;
    cut.max_cycles = 1500;
    d.benchmarks(&cut, 300, &TYPES_2_3);
    assert!(d.truncated > before, "the ceiling shape truncated no run");

    // All-zero latencies: every copy and completion is clamped to the
    // next cycle (`engine_equiv`'s zero-latency shape).
    let mut zero = SimConfig::small(2);
    zero.coherence.l1_latency = 0;
    zero.coherence.l2_latency = 0;
    zero.coherence.memory_latency = 0;
    zero.coherence.mesh.link_latency = 0;
    zero.coherence.mesh.router_latency = 0;
    zero.rmw_atomicity = Atomicity::Type2;
    let (a, b, c) = (Addr(0), Addr(64), Addr(128));
    d.run(
        zero,
        vec![
            Trace::new(vec![Op::write(a, 1), Op::rmw(b), Op::read(c)]),
            Trace::new(vec![Op::rmw(b), Op::write(c, 2)]),
        ],
    );

    // The classic and paper litmus corpus on the Table 2 machine.
    let mut corpus = litmus::classic::all();
    corpus.extend(litmus::paper::all());
    for l in &corpus {
        for atomicity in Atomicity::ALL {
            let prog = l.program.with_atomicity(atomicity);
            let mut cfg = SimConfig::paper_table2();
            cfg.rmw_atomicity = atomicity;
            let traces = lower_with_line_size(&prog, cfg.line_size);
            d.run(cfg, traces);
        }
    }

    let digest = d.hasher.finish();
    assert_eq!(
        digest, GOLDEN,
        "simulator results moved: digest {digest} over {} runs \
         ({} filter resets, {} truncated, {} broadcast messages)",
        d.runs, d.resets, d.truncated, d.messages
    );
}

#[test]
fn write_buffer_shapes_are_unchanged() {
    let mut d = Digest::default();
    let base = SimConfig::paper_scaled(8);

    // One- and two-entry buffers: stores and type-2/3 `Wa`s wait for a
    // slot.
    for entries in [1, 2] {
        let mut cfg = base;
        cfg.write_buffer_entries = entries;
        d.benchmarks(&cfg, 500, &Atomicity::ALL);
    }
    assert!(d.stalls > 0, "the narrow buffers never filled");

    // One request in flight at a time, and the whole 32-entry buffer. With
    // one, every type-1 drain of two or more stores sends more than the
    // window holds.
    for outstanding in [1, 32] {
        let mut cfg = base;
        cfg.wb_outstanding = outstanding;
        d.benchmarks(&cfg, 500, &Atomicity::ALL);
    }

    // A fence after every RMW drains the buffer again.
    let before = d.fence_cycles;
    let mut fenced = base;
    fenced.fence_after_rmw = true;
    d.benchmarks(&fenced, 500, &Atomicity::ALL);
    assert!(d.fence_cycles > before, "no fence waited on the buffer");

    // A type-1 drain of twelve stores through a four-request window, while
    // the other core's RMWs lock one of the drained lines: its store is
    // denied and re-sent, and the stores behind it wait in FIFO order.
    let before = d.retries;
    let mut small = SimConfig::small(2);
    small.rmw_atomicity = Atomicity::Type1;
    let line = |i: u64| Addr(i * 64);
    let mut drain: Vec<Op> = (1..=12).map(|i| Op::write(line(i), i)).collect();
    drain.push(Op::rmw(line(0)));
    drain.push(Op::read(line(3)));
    let locker = Trace::new(vec![Op::rmw(line(3)); 8]);
    d.run(small, vec![Trace::new(drain), locker]);
    assert!(d.retries > before, "no drained store was lock-denied");

    let digest = d.hasher.finish();
    assert_eq!(
        digest, WB_GOLDEN,
        "write-buffer results moved: digest {digest} over {} runs \
         ({} full-buffer stall cycles, {} lock retries, {} fence cycles)",
        d.runs, d.stalls, d.retries, d.fence_cycles
    );
}
