//! The `fig11_paper` workload: the paper's Fig. 11(a) sweep — the eight
//! Table 3 benchmarks under the three RMW types on the 32-core Table 2
//! machine — run sequentially from one thread, as the `fig11a` binary
//! does, but with traces drawn from the benchmark's seed.

use crate::campaign::Tally;
use crate::host::{Meter, Times};
use crate::spans;
use rmw_types::Atomicity;
use tso_sim::{Machine, SimConfig, SimStats};
use workloads::Benchmark;

/// What one sweep runs.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Simulated cores.
    pub cores: usize,
    /// Memory operations per core.
    pub memops: usize,
    /// Trace seed (the benchmark's `--seed`).
    pub seed: u64,
}

/// Per-core memory operations and RMWs of every benchmark's traces:
/// what each machine run must retire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Expected {
    /// `(mem_ops, rmws)` per core, per benchmark in `Benchmark::ALL` order.
    pub per_core: Vec<Vec<(u64, u64)>>,
}

/// Set-up: draws every benchmark's traces once and records what each
/// core must retire.
pub fn setup(spec: &Spec) -> Expected {
    Expected {
        per_core: Benchmark::ALL
            .iter()
            .map(|&b| {
                workloads::benchmark(b, spec.cores, spec.memops, spec.seed)
                    .iter()
                    .map(|t| (t.mem_ops() as u64, t.rmws() as u64))
                    .collect()
            })
            .collect(),
    }
}

/// One machine run of the sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct Run {
    /// The benchmark.
    pub bench: Benchmark,
    /// The machine's RMW type.
    pub atomicity: Atomicity,
    /// Machine-level statistics.
    pub stats: SimStats,
    /// Per-core statistics.
    pub per_core: Vec<SimStats>,
    /// Engine work (visited cycles, ticks, armed events).
    pub engine: tso_sim::stats::EngineStats,
    /// The deadlock detector fired.
    pub deadlocked: bool,
}

/// The result of one sweep.
#[derive(Debug, Clone)]
pub struct Pass {
    /// All 24 runs, benchmark-major.
    pub runs: Vec<Run>,
    /// Time of the sweep: the sum of its runs' times.
    pub time: Times,
    /// Each run's host time (trace generation plus simulation), in ms.
    pub run_ms: Vec<f64>,
}

impl Pass {
    /// Simulated memory operations retired over the sweep.
    pub fn mem_ops(&self) -> u64 {
        self.runs.iter().map(|r| r.stats.mem_ops).sum()
    }

    /// Simulator work of the sweep.
    pub fn tally(&self) -> Tally {
        let mut t = Tally::default();
        for r in &self.runs {
            t.record_run(r.atomicity, &r.stats, &r.engine, r.deadlocked);
        }
        t
    }
}

/// One sweep: for every benchmark and type, generate the traces and run
/// the machine (`bench::run`'s calls, seeded by `spec.seed`). Each run is
/// one unit of `meter`.
pub fn pass(spec: &Spec, meter: &mut Meter) -> Pass {
    let pass = spans::enter(spans::PASS);
    let mut time = Times::default();
    let mut runs = Vec::with_capacity(Benchmark::ALL.len() * Atomicity::ALL.len());
    let mut run_ms = Vec::with_capacity(runs.capacity());
    for bench in Benchmark::ALL {
        for atomicity in Atomicity::ALL {
            let mut cfg = SimConfig::paper_scaled(spec.cores);
            cfg.rmw_atomicity = atomicity;
            // Spans carry the run's index in the sweep.
            let run = runs.len() as u64;
            let (result, t) = meter.time(|| {
                let traces = {
                    let _s = spans::enter_under("workloads.tracegen", pass.id(), run);
                    workloads::benchmark(bench, spec.cores, spec.memops, spec.seed)
                };
                let _s = spans::enter_under("sim.run", pass.id(), run);
                Machine::new(cfg, traces).run()
            });
            time = time.add(t);
            run_ms.push(t.raw_s * 1e3);
            runs.push(Run {
                bench,
                atomicity,
                stats: result.stats,
                per_core: result.per_core,
                engine: result.engine,
                deadlocked: result.deadlocked,
            });
        }
    }
    drop(pass);
    Pass { runs, time, run_ms }
}

/// Checks one sweep: no deadlock, every core retires exactly its trace's
/// memory operations and RMWs, and every type-1 RMW drains the write
/// buffer. Returns the failed checks.
pub fn check(p: &Pass, expected: &Expected) -> Vec<String> {
    let mut errors = Vec::new();
    for (i, r) in p.runs.iter().enumerate() {
        let want = &expected.per_core[i / Atomicity::ALL.len()];
        let tag = format!("{} {}", r.bench.name(), r.atomicity);
        if r.deadlocked {
            errors.push(format!("{tag}: deadlocked"));
        }
        for (core, (s, &(mem_ops, rmws))) in r.per_core.iter().zip(want).enumerate() {
            if s.mem_ops != mem_ops || s.rmw_count != rmws {
                errors.push(format!(
                    "{tag}: core {core} retired {} mem ops / {} RMWs, trace has {mem_ops} / {rmws}",
                    s.mem_ops, s.rmw_count
                ));
            }
        }
        if r.atomicity == Atomicity::Type1 && r.stats.rmw_drains != r.stats.rmw_count {
            errors.push(format!(
                "{tag}: {} drains for {} type-1 RMWs",
                r.stats.rmw_drains, r.stats.rmw_count
            ));
        }
    }
    errors
}

/// The sweep's paper-facing numbers: the write-buffer share of type-1 RMW
/// cost, and the type-2/type-3 savings against type-1 (averaged over the
/// benchmarks, as `fig11a` prints them).
#[derive(Debug, Clone, Copy)]
pub struct PaperView {
    /// Mean write-buffer share of type-1 cost, %.
    pub wb_share_t1: f64,
    /// Mean, min and max type-2 saving, %.
    pub save2: (f64, f64, f64),
    /// Mean and max type-3 saving, %.
    pub save3: (f64, f64),
}

/// Computes [`PaperView`] from a sweep.
pub fn paper_view(p: &Pass) -> PaperView {
    let mut wb = Vec::new();
    let mut s2 = Vec::new();
    let mut s3 = Vec::new();
    for by_type in p.runs.chunks(Atomicity::ALL.len()) {
        let [c1, c2, c3] = [0, 1, 2].map(|t| by_type[t].stats.avg_rmw_cost());
        let t1 = &by_type[0].stats;
        wb.push(100.0 * t1.rmw_cost.write_buffer_cycles as f64 / t1.rmw_count as f64 / c1);
        s2.push(100.0 * (c1 - c2) / c1);
        s3.push(100.0 * (c1 - c3) / c1);
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    let min = |v: &[f64]| v.iter().copied().fold(f64::INFINITY, f64::min);
    let max = |v: &[f64]| v.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    PaperView {
        wb_share_t1: mean(&wb),
        save2: (mean(&s2), min(&s2), max(&s2)),
        save3: (mean(&s3), max(&s3)),
    }
}
