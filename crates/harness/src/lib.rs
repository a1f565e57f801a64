//! Parallel differential litmus harness.
//!
//! Every litmus test is run two ways and the results are compared:
//!
//! 1. **Model verdict** — [`Litmus::check`] on the streaming axiomatic
//!    search, against the test's expectation (with the counterexample
//!    execution attached when a forbidden outcome is observed);
//! 2. **Differential check** — the program is lowered once onto simulator
//!    traces ([`tso_sim::lower()`]; an RMW's atomicity is a machine
//!    setting, so the traces serve all three), and for each of the three
//!    RMW atomicities the timing machine configured to that atomicity runs
//!    them. The simulator's outcome (read values *and* final memory) must
//!    be in the model's allowed set for the program rewritten to that
//!    atomicity
//!    ([`Program::with_atomicity`](tso_model::Program::with_atomicity)).
//!
//! The batch runner ([`run_batch`]) distributes tests over the shared
//! [`exec_pool`] worker pool — tests are pulled from a shared queue, so an
//! idle worker takes the next test the moment it frees up and long-tail
//! tests don't serialize the batch. Each outcome records the **stable
//! worker id** (`0..jobs`, assigned at spawn) that executed it, so
//! per-test timings in the JSON report attribute to real workers rather
//! than implicit spawn order. Test-level fan-out is the only parallelism:
//! each test's model searches and simulator runs stay on its worker's
//! thread, so `--jobs N` means N threads.
//!
//! Model queries go through `tso-model`'s memoized outcome-set cache
//! (canonical-fingerprint keyed): the verdict check and the three
//! per-atomicity differential sets collapse to one model invocation per
//! canonical program class, and the report carries the process-wide
//! counters ([`Report::model_cache`]).
//!
//! The `litmus_run` binary wraps this in a CLI with `--filter`, `--jobs`,
//! `--smoke`, and `--format json|tap|summary`; see `README.md`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use litmus::{classic, gen, paper, Expect, Litmus};
use rmw_types::{Atomicity, Value};
use std::time::{Duration, Instant};
use tso_model::{allowed_outcomes_cached, SearchStats};
use tso_sim::{lower_with_line_size, sim_addr, Machine, SimConfig};

/// Which simulated machine the differential side runs on.
///
/// The default is the short-latency test machine sized to the program's
/// thread count; `Paper` runs every test on the full 32-core Table 2
/// configuration (300-cycle memory, 8×4 mesh) — tractable for whole-corpus
/// runs since the simulator's event-driven engine (`BENCH_sim.json`).
/// `Scaled128`/`Scaled256` keep every Table 2 latency and grow the mesh
/// ([`SimConfig::paper_scaled`]) — machines the paper never evaluated,
/// used to probe whether its conclusions survive scaling.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MachineKind {
    /// `SimConfig::small(threads)`: per-test sizing, short latencies.
    #[default]
    Small,
    /// `SimConfig::paper_table2()`: the paper's 32-core machine.
    Paper,
    /// `SimConfig::paper_scaled(128)`: Table 2 latencies, 12×11 mesh.
    Scaled128,
    /// `SimConfig::paper_scaled(256)`: Table 2 latencies, 16×16 mesh.
    Scaled256,
}

impl MachineKind {
    /// Name used in CLI flags and the JSON report.
    pub fn name(self) -> &'static str {
        match self {
            MachineKind::Small => "small",
            MachineKind::Paper => "paper",
            MachineKind::Scaled128 => "128",
            MachineKind::Scaled256 => "256",
        }
    }

    /// Parses a `--machine` argument.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "small" => Some(MachineKind::Small),
            "paper" => Some(MachineKind::Paper),
            "128" => Some(MachineKind::Scaled128),
            "256" => Some(MachineKind::Scaled256),
            _ => None,
        }
    }

    /// The simulator configuration for a `threads`-thread test program.
    ///
    /// # Panics
    ///
    /// Panics if the program needs more threads than the machine has
    /// cores.
    pub fn config(self, threads: usize) -> SimConfig {
        let cfg = match self {
            MachineKind::Small => return SimConfig::small(threads.max(1)),
            MachineKind::Paper => SimConfig::paper_table2(),
            MachineKind::Scaled128 => SimConfig::paper_scaled(128),
            MachineKind::Scaled256 => SimConfig::paper_scaled(256),
        };
        assert!(
            threads <= cfg.num_cores(),
            "{threads}-thread test exceeds the {}-core {} machine",
            cfg.num_cores(),
            self.name()
        );
        cfg
    }
}

impl core::fmt::Display for MachineKind {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.name())
    }
}

pub mod campaign;
pub mod faults;
pub mod jsonx;
pub mod report;
pub mod store;

pub use report::Report;

/// One atomicity's differential comparison for one test.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DiffOutcome {
    /// The machine-wide RMW atomicity the simulator ran with.
    pub atomicity: Atomicity,
    /// True iff the simulator completed without deadlock and its outcome
    /// (reads and final memory) is in the model's allowed set.
    pub agreed: bool,
    /// The simulator hit the deadlock detector.
    pub deadlocked: bool,
    /// The simulator's read values, in `(thread, po)` order.
    pub sim_reads: Vec<Value>,
}

/// The full result of running one litmus test through the harness.
#[derive(Debug, Clone)]
pub struct TestOutcome {
    /// Test name.
    pub name: String,
    /// The test's expectation.
    pub expect: Expect,
    /// Whether the model observed the target outcome.
    pub observed_allowed: bool,
    /// Model verdict matched the expectation.
    pub model_passed: bool,
    /// Human-readable failure report (with the counterexample execution
    /// when a forbidden outcome was observed) when the model verdict
    /// failed.
    pub failure_detail: Option<String>,
    /// Differential comparison per atomicity (type-1, type-2, type-3).
    pub differential: Vec<DiffOutcome>,
    /// Wall-clock microseconds this test took (model + 3 sim runs).
    pub micros: u64,
    /// Stable id of the pool worker that executed the test (0 when run
    /// outside a batch).
    pub worker: usize,
    /// Model search stats summed over this test's model queries (the
    /// verdict check plus one outcome set per atomicity). Cache hits
    /// carry the stats of the search that originally proved the entry,
    /// so the numbers describe the *class weight*, not necessarily work
    /// done during this test.
    pub model_stats: SearchStats,
    /// Model queries this test issued (verdict + per-atomicity sets).
    pub model_queries: u32,
    /// How many of those were served from the memoized verdict cache.
    pub model_cache_hits: u32,
    /// Always 0. Kept for perfbench; removed by ROADMAP item 2's
    /// benchmark-kind PR.
    pub prefix_hits: u32,
    /// Always 0: a model search never fans out across workers, and no
    /// report prints this. The field remains only because code outside
    /// this workspace builds `TestOutcome` with struct literals.
    pub split_decisions: u32,
    /// True when a model query behind this test hit its search budget:
    /// the answer is a sound subset, so non-observation is *unknown*, not
    /// a verdict. Unknown checks are forced to pass (missing, never
    /// wrong) and surfaced in the report's `unknown` count.
    pub unknown: bool,
    /// True when the test panicked inside its worker: no verdict at all.
    /// The panic message is in `failure_detail`. Crashed tests fail the
    /// run but are excluded from `model_failures` (they proved nothing)
    /// and from campaign digests (they processed nothing).
    pub crashed: bool,
}

impl TestOutcome {
    /// The outcome of a test whose worker panicked: no verdicts, fails
    /// the run, carries the panic message as its failure detail.
    pub fn crashed(name: String, expect: Expect, worker: usize, message: String) -> TestOutcome {
        TestOutcome {
            name,
            expect,
            observed_allowed: false,
            model_passed: false,
            failure_detail: Some(message),
            differential: Vec::new(),
            micros: 0,
            worker,
            model_stats: SearchStats::default(),
            model_queries: 0,
            model_cache_hits: 0,
            prefix_hits: 0,
            split_decisions: 0,
            unknown: false,
            crashed: true,
        }
    }

    /// True iff the model verdict passed and every atomicity agreed.
    pub fn passed(&self) -> bool {
        !self.crashed && self.model_passed && self.differential.iter().all(|d| d.agreed)
    }

    /// Short diagnosis for TAP/JSON failure lines.
    pub fn diagnosis(&self) -> String {
        if self.passed() {
            return String::new();
        }
        if self.crashed {
            return format!(
                "crashed: {}",
                self.failure_detail.as_deref().unwrap_or("worker panicked")
            );
        }
        let mut parts = Vec::new();
        if !self.model_passed {
            parts.push(format!(
                "model: expected {}, observed allowed={}",
                self.expect, self.observed_allowed
            ));
        }
        for d in &self.differential {
            if !d.agreed {
                parts.push(format!(
                    "sim {} {}: reads {:?} not allowed by the model",
                    d.atomicity,
                    if d.deadlocked {
                        "deadlocked"
                    } else {
                        "disagreed"
                    },
                    d.sim_reads
                ));
            }
        }
        parts.join("; ")
    }
}

/// Runs one litmus test on the default small machine; see
/// [`differential_check_on`].
pub fn differential_check(l: &Litmus) -> TestOutcome {
    differential_check_on(l, MachineKind::Small)
}

/// Runs one litmus test: model verdict plus the three-atomicity
/// differential comparison against the simulator, on the chosen machine.
///
/// All model queries (the verdict and the per-atomicity outcome sets) go
/// through the memoized cache — an RMW-free test costs one model
/// invocation instead of four, and permutation-equivalent tests elsewhere
/// in the corpus cost none.
pub fn differential_check_on(l: &Litmus, machine: MachineKind) -> TestOutcome {
    let started = Instant::now();
    // Plan-mode chaos tests inject a panic here to simulate a harness bug
    // inside a worker; random mode never fires at panic points.
    faults::panic_point("harness.test");
    let check = l.check();
    let mut unknown = check.unknown;
    let failure_detail = (!check.passed).then(|| check.report());
    let mut model_stats = check.model_stats;
    let mut model_queries = 1u32;
    let mut model_cache_hits = u32::from(check.cache_hit);

    // Lowering drops `Instr::Rmw`'s atomicity (the machine's
    // `rmw_atomicity` decides it), so the three machines share one set
    // of traces (a cloned `Trace` copies no ops); only the model query
    // needs the rewritten program.
    let base = machine.config(l.program.num_threads());
    let line_size = base.line_size;
    let traces = lower_with_line_size(&l.program, line_size);
    let mut differential = Vec::with_capacity(Atomicity::ALL.len());
    for atomicity in Atomicity::ALL {
        let cfg = SimConfig {
            rmw_atomicity: atomicity,
            ..base
        };
        let result = Machine::new(cfg, traces.clone()).run();
        let sim_reads: Vec<Value> = result.reads.iter().flatten().copied().collect();
        let allowed = allowed_outcomes_cached(&l.program.with_atomicity(atomicity));
        model_stats.absorb(&allowed.stats);
        model_queries += 1;
        model_cache_hits += u32::from(allowed.hit);
        let found = allowed.outcomes.iter().any(|o| {
            o.read_values() == sim_reads
                && o.final_memory().iter().all(|&(a, v)| {
                    result
                        .memory
                        .get(&sim_addr(a, line_size))
                        .copied()
                        .unwrap_or(0)
                        == v
                })
        });
        // A budget-truncated set is a sound subset: membership proves
        // agreement, but absence proves nothing — report unknown, not a
        // disagreement (deadlock is the simulator's own property and
        // stays a failure regardless).
        if allowed.unknown && !found {
            unknown = true;
        }
        let agreed = !result.deadlocked && (found || allowed.unknown);
        differential.push(DiffOutcome {
            atomicity,
            agreed,
            deadlocked: result.deadlocked,
            sim_reads,
        });
    }

    TestOutcome {
        name: l.name.clone(),
        expect: l.expect,
        observed_allowed: check.observed_allowed,
        model_passed: check.passed,
        failure_detail,
        differential,
        micros: started.elapsed().as_micros() as u64,
        worker: 0,
        model_stats,
        model_queries,
        model_cache_hits,
        prefix_hits: 0,
        split_decisions: 0,
        unknown,
        crashed: false,
    }
}

/// The full corpus the harness runs: the hand-written classic and paper
/// tests followed by the generated families and `random_count` seeded
/// random tests.
pub fn full_corpus(seed: u64, random_count: usize) -> Vec<Litmus> {
    let mut tests: Vec<Litmus> = classic::all();
    tests.extend(paper::all());
    tests.extend(gen::generated_corpus(seed, random_count));
    tests
}

/// Maximum number of tests a `--smoke` run executes.
pub const SMOKE_CAP: usize = 250;

/// Whether a test is in the `--smoke` subset: small programs only, capped
/// at [`SMOKE_CAP`] tests by the caller. The *reported* corpus size always
/// refers to the full corpus, so CI can enforce the 550-test floor even on
/// smoke runs.
pub fn smoke_filter(l: &Litmus) -> bool {
    l.program.num_instrs() <= 6 && l.program.num_threads() <= 4
}

/// Runs `tests` on the default small machine; see [`run_batch_on`].
pub fn run_batch(tests: &[Litmus], jobs: usize) -> (Vec<TestOutcome>, Duration) {
    run_batch_on(tests, jobs, MachineKind::Small)
}

/// Runs `tests` on `jobs` workers of the shared [`exec_pool`] (a shared
/// queue; idle workers pull the next index, so stragglers never
/// serialize the batch), with the differential side on `machine`.
/// Returns per-test outcomes in input order — each stamped with the
/// stable id of the worker that executed it — plus the batch wall-clock.
pub fn run_batch_on(
    tests: &[Litmus],
    jobs: usize,
    machine: MachineKind,
) -> (Vec<TestOutcome>, Duration) {
    let jobs = jobs.max(1).min(tests.len().max(1));
    let started = Instant::now();
    // Crash isolation: a panicking test (a harness bug, an injected
    // fault) becomes a reported `crashed` outcome and its worker keeps
    // pulling tests — one bad test cannot take the batch down.
    let outcomes = exec_pool::run_all_catching(jobs, tests.len(), |worker, idx| {
        let mut outcome = differential_check_on(&tests[idx], machine);
        outcome.worker = worker;
        outcome
    })
    .into_iter()
    .enumerate()
    .map(|(idx, r)| match r {
        Ok(outcome) => outcome,
        Err(panic) => TestOutcome::crashed(
            tests[idx].name.clone(),
            tests[idx].expect,
            panic.worker,
            panic.message,
        ),
    })
    .collect();
    (outcomes, started.elapsed())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classic_corpus_is_differentially_clean() {
        let tests = classic::all();
        let (outcomes, _) = run_batch(&tests, 2);
        assert_eq!(outcomes.len(), tests.len());
        for (t, o) in tests.iter().zip(&outcomes) {
            assert_eq!(t.name, o.name, "outcomes come back in corpus order");
            assert!(o.passed(), "{}: {}", o.name, o.diagnosis());
            assert_eq!(o.differential.len(), 3);
        }
    }

    #[test]
    fn paper_corpus_is_differentially_clean() {
        let (outcomes, _) = run_batch(&paper::all(), 4);
        for o in &outcomes {
            assert!(o.passed(), "{}: {}", o.name, o.diagnosis());
        }
    }

    #[test]
    fn paper_machine_corpus_is_differentially_clean() {
        // The full Table 2 machine (the event engine makes this cheap).
        let tests = classic::all();
        let (outcomes, _) = run_batch_on(&tests, 2, MachineKind::Paper);
        for o in &outcomes {
            assert!(o.passed(), "{}: {}", o.name, o.diagnosis());
        }
    }

    #[test]
    fn machine_kind_parses_and_sizes() {
        assert_eq!(MachineKind::parse("small"), Some(MachineKind::Small));
        assert_eq!(MachineKind::parse("paper"), Some(MachineKind::Paper));
        assert_eq!(MachineKind::parse("128"), Some(MachineKind::Scaled128));
        assert_eq!(MachineKind::parse("256"), Some(MachineKind::Scaled256));
        assert_eq!(MachineKind::parse("huge"), None);
        assert_eq!(MachineKind::Paper.config(4).num_cores(), 32);
        assert_eq!(MachineKind::Small.config(4).num_cores(), 4);
        assert_eq!(MachineKind::Scaled128.config(4).num_cores(), 128);
        assert_eq!(MachineKind::Scaled256.config(4).num_cores(), 256);
        // Round-trip: every kind parses back from its own name.
        for k in [
            MachineKind::Small,
            MachineKind::Paper,
            MachineKind::Scaled128,
            MachineKind::Scaled256,
        ] {
            assert_eq!(MachineKind::parse(k.name()), Some(k));
        }
        // Scaled machines keep paper latencies.
        let c = MachineKind::Scaled256.config(2);
        assert_eq!(c.coherence.memory_latency, 300);
        assert_eq!(MachineKind::default(), MachineKind::Small);
    }

    #[test]
    fn scaled_machine_corpus_is_differentially_clean() {
        // A couple of classics on the 128-core machine: the differential
        // contract must hold on the scaled mesh too.
        let tests = vec![classic::sb(), classic::mp()];
        let (outcomes, _) = run_batch_on(&tests, 2, MachineKind::Scaled128);
        for o in &outcomes {
            assert!(o.passed(), "{}: {}", o.name, o.diagnosis());
        }
    }

    #[test]
    fn jobs_zero_and_oversubscription_are_clamped() {
        let tests = vec![classic::sb(), classic::mp()];
        let (a, _) = run_batch(&tests, 0);
        let (b, _) = run_batch(&tests, 64);
        assert!(a.iter().all(TestOutcome::passed));
        assert!(b.iter().all(TestOutcome::passed));
    }

    #[test]
    fn a_wrong_expectation_is_reported_with_its_witness() {
        let mut broken = classic::sb();
        broken.expect = Expect::Forbidden;
        let o = differential_check(&broken);
        assert!(!o.passed());
        assert!(!o.model_passed);
        let detail = o.failure_detail.as_deref().expect("failure carries detail");
        assert!(detail.contains("witness execution"), "witness in: {detail}");
        assert!(o.diagnosis().contains("expected forbidden"));
        // The differential side is still clean — the simulator is not wrong
        // just because the expectation was.
        assert!(o.differential.iter().all(|d| d.agreed));
    }

    #[test]
    fn smoke_filter_keeps_the_small_shapes() {
        assert!(smoke_filter(&classic::sb()));
        assert!(!smoke_filter(&litmus::gen::sb_ring(6)));
    }

    #[test]
    fn outcomes_carry_stable_worker_ids_and_model_accounting() {
        let tests = classic::all();
        let jobs = 2;
        let (outcomes, _) = run_batch(&tests, jobs);
        for o in &outcomes {
            assert!(
                o.worker < jobs,
                "{}: worker id {} out of range",
                o.name,
                o.worker
            );
            assert_eq!(
                o.model_queries, 4,
                "{}: verdict + one set per atomicity",
                o.name
            );
            assert!(o.model_cache_hits <= o.model_queries);
            assert!(
                o.model_stats.nodes > 0,
                "{}: attributed model stats must be non-trivial",
                o.name
            );
        }
        // RMW-free tests collapse their atomicity rewrites onto one cache
        // entry, so a second batch over the same corpus is all hits.
        let (again, _) = run_batch(&tests, jobs);
        assert!(again.iter().all(|o| o.model_cache_hits == o.model_queries));
    }
}
