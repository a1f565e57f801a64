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
//! A change meant to move simulator results updates [`GOLDEN`] and says
//! in CHANGES.md why the results moved. Any other change leaves it alone.

use rmw_types::fasthash::FastHasher;
use rmw_types::{Addr, Atomicity};
use std::hash::Hasher;
use tso_sim::{lower_with_line_size, Machine, Op, SimConfig, SimResult, Trace};
use workloads::Benchmark;

/// The digest of every shape in [`golden_shapes_are_unchanged`].
const GOLDEN: u64 = 2000391755150178841;

/// A running digest of simulator results, with the counts that show the
/// shapes still reach the paths they are meant to.
#[derive(Default)]
struct Digest {
    hasher: FastHasher,
    runs: u64,
    resets: u64,
    truncated: u64,
    messages: u64,
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
    }

    fn run(&mut self, cfg: SimConfig, traces: Vec<Trace>) {
        self.add(&Machine::new(cfg, traces).run());
    }

    /// The 8 benchmarks under type-2 and type-3 on `base` at `memops`
    /// memory operations per core.
    fn benchmarks(&mut self, base: &SimConfig, memops: usize) {
        for bench in Benchmark::ALL {
            for atomicity in [Atomicity::Type2, Atomicity::Type3] {
                let mut cfg = *base;
                cfg.rmw_atomicity = atomicity;
                let traces = workloads::benchmark(bench, cfg.num_cores(), memops, bench::SEED);
                self.run(cfg, traces);
            }
        }
    }
}

#[test]
fn golden_shapes_are_unchanged() {
    let mut d = Digest::default();

    // The Fig. 11 sweep (all three types) on a 4-core machine.
    for row in bench::fig11_sweep(4, 1000) {
        for r in &row.by_type {
            d.add(r);
        }
    }

    // The Table 2 machine, where a broadcast crosses the whole mesh.
    let paper = SimConfig::paper_scaled(32);
    d.benchmarks(&paper, 300);

    // Coordinated filter resets: a threshold small enough to fire often.
    let before = d.resets;
    let mut reset = SimConfig::paper_scaled(8);
    reset.bloom_reset_threshold = Some(6);
    d.benchmarks(&reset, 1000);
    assert!(d.resets > before, "the reset shape fired no filter reset");

    // Runs cut by the cycle ceiling, with broadcasts still in flight.
    let before = d.truncated;
    let mut cut = paper;
    cut.max_cycles = 1500;
    d.benchmarks(&cut, 300);
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
