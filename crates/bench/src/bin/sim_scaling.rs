//! Simulator engine scaling: the event-driven cycle-skipping engine vs.
//! the lockstep reference, recorded as `BENCH_sim.json`.
//!
//! Two families of shapes, all on paper-latency machines:
//!
//! * **§4 workload kernels** (spinlock suite, TL2-style STM, Chase–Lev
//!   work stealing) at 32 cores — dense shapes where some core acts almost
//!   every cycle, so the bound on any cycle-skipping engine is the share
//!   of real transaction work; expect low single-digit speedups.
//! * **The litmus corpus on the full Table 2 machine** — the
//!   configuration the scheduler exists for (and what the differential
//!   harness's `--machine paper` runs): a handful of threads doing cold
//!   300-cycle misses while 26+ of the 32 cores idle. Lockstep burns 32
//!   ticks every cycle; the event engine visits a few dozen cycles per
//!   test. This is the paper-scale headline shape with the ≥10× floor.
//!
//! A third family scales the machine itself: 128- and 256-core
//! Table-2-latency configurations (`SimConfig::paper_scaled`), where
//! lockstep pays the full core count every cycle and the event engine
//! must not.
//!
//! Every shape runs both [`StepMode`]s over identical inputs and records
//! whether the results are **cycle-identical** (stats, reads, final
//! memory — the engine-equivalence contract of
//! `tso-sim/tests/engine_equiv.rs`) beside the wall-clock ratio, and the
//! event engine's work: its core ticks and the share of them that acted.
//! The times are medians over [`PASSES`] pass pairs, and the speedup is
//! the median of each pair's lockstep ÷ event ratio. A shape whose runs
//! take under [`MIN_PASS_MS`] repeats them within each pass and records
//! the time of one repetition.
//!
//! Every run checks the record's gates ([`gates`]) after writing the JSON
//! and exits non-zero when one fails: the engines agree on every shape,
//! every shape simulated cycles, a ≥128-core shape is present, and the
//! best 32-core shape keeps a ≥5× event-engine speedup.
//!
//! Usage:
//!
//! ```console
//! $ cargo run --release -p bench --bin sim_scaling [-- --smoke] [--out PATH]
//! ```

use bench::{config_for, SweepArgs, SEED};
use harness::jsonx::{arr, fixed, obj};
use rmw_types::Atomicity;
use std::time::Instant;
use tso_sim::{lower_with_line_size, Machine, SimConfig, SimResult, StepMode, Trace};
use workloads::Benchmark;

enum Shape {
    /// One §4 kernel at `cores` × `memops` under one atomicity.
    Kernel {
        bench: Benchmark,
        cores: usize,
        memops: usize,
        atomicity: Atomicity,
    },
    /// The hand-written classic + paper litmus corpus plus the generator
    /// families, each test × all three atomicities, on the full Table 2
    /// machine.
    LitmusCorpus,
    /// The generator families scaled to 16–24 threads on the Table 2
    /// machine — the corpus shapes the ROADMAP wants the harness to grow
    /// into: long cold-miss chains where the machine sits idle for
    /// hundreds of cycles at a time while lockstep ticks all 32 cores.
    LitmusAtScale,
}

impl Shape {
    fn name(&self) -> String {
        match self {
            Shape::Kernel {
                bench,
                cores,
                memops,
                atomicity,
            } => format!("{bench} {cores}x{memops} {atomicity}"),
            Shape::LitmusCorpus => "litmus_corpus 32-core table2 x3 atomicities".to_owned(),
            Shape::LitmusAtScale => "litmus_families 16-24 threads table2".to_owned(),
        }
    }

    fn cores(&self) -> usize {
        match self {
            Shape::Kernel { cores, .. } => *cores,
            Shape::LitmusCorpus | Shape::LitmusAtScale => 32,
        }
    }

    /// The runs of this shape: `(config, traces)` pairs executed
    /// back-to-back under one clock.
    fn runs(&self) -> Vec<(SimConfig, Vec<Trace>)> {
        match self {
            Shape::Kernel {
                bench,
                cores,
                memops,
                atomicity,
            } => {
                let cfg = config_for(*cores, *atomicity);
                vec![(cfg, workloads::benchmark(*bench, *cores, *memops, SEED))]
            }
            Shape::LitmusCorpus => {
                // Classic + paper + the scaled generator families (the
                // seeded-random tail adds nothing but setup time here:
                // random shapes are as small as the classic ones).
                let mut tests = litmus::classic::all();
                tests.extend(litmus::paper::all());
                tests.extend(litmus::gen::generated_corpus(litmus::gen::DEFAULT_SEED, 0));
                let mut runs = Vec::new();
                for l in &tests {
                    for atomicity in Atomicity::ALL {
                        let prog = l.program.with_atomicity(atomicity);
                        let cfg = config_for(32, atomicity);
                        runs.push((cfg, lower_with_line_size(&prog, cfg.line_size)));
                    }
                }
                runs
            }
            Shape::LitmusAtScale => {
                let tests = [
                    litmus::gen::sb_ring(16),
                    litmus::gen::sb_ring(24),
                    litmus::gen::mp_chain(16),
                    litmus::gen::mp_chain(24),
                    litmus::gen::lb_ring(16),
                    litmus::gen::two_two_w_ring(16),
                    litmus::gen::iriw(10),
                ];
                tests
                    .iter()
                    .map(|l| {
                        let cfg = config_for(32, Atomicity::Type2);
                        (cfg, lower_with_line_size(&l.program, cfg.line_size))
                    })
                    .collect()
            }
        }
    }
}

struct Row {
    name: String,
    cores: usize,
    runs: usize,
    /// Repetitions of the runs in each timed pass.
    repeats: usize,
    cycles: u64,
    /// Event-engine core ticks, and those that acted.
    ticks: u64,
    acting_ticks: u64,
    /// Median times of one repetition per engine.
    event_ms: f64,
    lockstep_ms: f64,
    /// Median of each pass pair's lockstep ÷ event ratio.
    speedup: f64,
    results_match: bool,
    paper_scale: bool,
}

/// Gate: the best 32-core shape's event-engine speedup over lockstep.
const MIN_HEADLINE_SPEEDUP: f64 = 5.0;

/// Gate: the sweep must include a scaled machine at least this wide.
const SCALED_CORES: usize = 128;

/// Runs every one of `runs` `repeats` times under `mode`; returns the
/// results of the first repetition and the mean time of one.
fn run_all(
    runs: &[(SimConfig, Vec<Trace>)],
    mode: StepMode,
    repeats: usize,
) -> (Vec<SimResult>, f64) {
    let run_once = || -> Vec<SimResult> {
        runs.iter()
            .map(|(cfg, traces)| {
                let mut cfg = *cfg;
                cfg.step_mode = mode;
                Machine::new(cfg, traces.clone()).run()
            })
            .collect()
    };
    let start = Instant::now();
    let results = run_once();
    for _ in 1..repeats {
        std::hint::black_box(run_once());
    }
    let ms = start.elapsed().as_secs_f64() * 1e3 / repeats as f64;
    (results, ms)
}

/// Timed pass pairs per shape, each pair one pass per engine back to
/// back (odd, so every median is one pass).
const PASSES: usize = 5;

/// The shortest timed pass. A pass over the 16–24-thread litmus shape
/// takes ~0.1 ms, and with identical ticks its speedup read 9.7×, 7.5×
/// and 8.2× in three runs: a pass that short times the host's timer and
/// scheduler, not the engine.
const MIN_PASS_MS: f64 = 10.0;

/// The median of an odd number of samples.
fn median(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

fn measure(shape: &Shape) -> Row {
    let runs = shape.runs();
    // Warm-up (allocator growth, page faults) so no engine pays
    // first-run costs, doubling the repetitions until an event-engine
    // pass lasts `MIN_PASS_MS`; then timed passes over identical inputs.
    let mut repeats = 1;
    while run_all(&runs, StepMode::EventDriven, repeats).1 * (repeats as f64) < MIN_PASS_MS {
        repeats *= 2;
    }
    let (ev, event_ms) = run_all(&runs, StepMode::EventDriven, repeats);
    let (ls, lockstep_ms) = run_all(&runs, StepMode::Lockstep, repeats);
    let mut pairs = vec![(event_ms, lockstep_ms)];
    // The remaining pairs alternate the engine order: slow drift in
    // machine speed (frequency scaling, throttling) would otherwise
    // systematically tax whichever engine always ran second. A pair's
    // two passes run back to back, so host load that outlasts a pair
    // moves both of them and leaves their ratio.
    const ORDER: [StepMode; 2] = [StepMode::EventDriven, StepMode::Lockstep];
    for p in 1..PASSES {
        let mut pair = (0.0, 0.0);
        for k in 0..ORDER.len() {
            let mode = ORDER[(p + k) % ORDER.len()];
            let ms = run_all(&runs, mode, repeats).1;
            match mode {
                StepMode::EventDriven => pair.0 = ms,
                StepMode::Lockstep => pair.1 = ms,
            }
        }
        pairs.push(pair);
    }
    // Both engines ran the same `runs`, so the sets pair up one to one.
    let results_match = ev
        .iter()
        .zip(&ls)
        .all(|(e, l)| e.first_difference(l).is_none());
    assert!(
        ev.iter().all(|r| !r.deadlocked),
        "{}: deadlocked — the avoidance scheme failed",
        shape.name()
    );
    Row {
        name: shape.name(),
        cores: shape.cores(),
        runs: runs.len(),
        repeats,
        cycles: ev.iter().map(|r| r.stats.cycles).sum(),
        ticks: ev.iter().map(|r| r.engine.ticks).sum(),
        acting_ticks: ev.iter().map(|r| r.engine.acting_ticks).sum(),
        event_ms: median(pairs.iter().map(|p| p.0).collect()),
        lockstep_ms: median(pairs.iter().map(|p| p.1).collect()),
        speedup: median(pairs.iter().map(|&(e, l)| l / e.max(1e-6)).collect()),
        results_match,
        paper_scale: shape.cores() == 32,
    }
}

/// The headline shapes: the paper-scale (32-core) rows — the
/// corpus-on-Table-2 configuration the scheduler was built for — or every
/// row when none is paper-scale. The kernel rows stay recorded as the
/// dense lower bound.
fn headline(rows: &[Row]) -> Vec<&Row> {
    let paper: Vec<&Row> = rows.iter().filter(|r| r.paper_scale).collect();
    if paper.is_empty() {
        rows.iter().collect()
    } else {
        paper
    }
}

/// The record's gates; returns one message per failed gate.
fn gates(rows: &[Row]) -> Vec<String> {
    let mut failed = Vec::new();
    for r in rows {
        if !r.results_match {
            failed.push(format!("{}: engines disagree", r.name));
        }
        if r.cycles == 0 {
            failed.push(format!("{}: simulated no cycles", r.name));
        }
    }
    if !rows.iter().any(|r| r.cores >= SCALED_CORES) {
        failed.push(format!("no scaled-machine (>= {SCALED_CORES} cores) shape"));
    }
    let head = headline(rows);
    if !head.iter().any(|r| r.paper_scale) {
        failed.push("no paper-scale (32-core) headline shape".to_owned());
    }
    let max = head.iter().map(|r| r.speedup).fold(0.0, f64::max);
    if max < MIN_HEADLINE_SPEEDUP {
        failed.push(format!(
            "best headline speedup {max:.2}x is below the {MIN_HEADLINE_SPEEDUP}x floor"
        ));
    }
    failed
}

fn to_json(rows: &[Row], mode: &str) -> String {
    let shapes = rows.iter().map(|r| {
        obj([
            ("name", r.name.as_str().into()),
            ("cores", r.cores.into()),
            ("machine_runs", r.runs.into()),
            ("pass_repeats", r.repeats.into()),
            ("simulated_cycles", r.cycles.into()),
            ("ticks", r.ticks.into()),
            ("acting_ticks", r.acting_ticks.into()),
            ("event_ms", fixed(r.event_ms, 3)),
            ("lockstep_ms", fixed(r.lockstep_ms, 3)),
            ("speedup", fixed(r.speedup, 3)),
            ("paper_scale", r.paper_scale.into()),
            ("results_match", r.results_match.into()),
        ])
    });
    let headline = headline(rows);
    let max = headline.iter().map(|r| r.speedup).fold(0.0, f64::max);
    let geomean = if headline.is_empty() {
        0.0
    } else {
        let log_sum: f64 = headline.iter().map(|r| r.speedup.ln()).sum();
        (log_sum / headline.len() as f64).exp()
    };
    obj([
        ("experiment", "sim_scaling".into()),
        ("paper", "conf_pldi_RajaramNSE13".into()),
        ("mode", mode.into()),
        ("shapes", arr(shapes)),
        (
            "headline",
            obj([
                ("count", headline.len().into()),
                ("paper_scale", headline.iter().all(|r| r.paper_scale).into()),
                ("max_speedup", fixed(max, 3)),
                ("geomean_speedup", fixed(geomean, 3)),
            ]),
        ),
    ])
    .render()
}

fn main() {
    let args = SweepArgs::from_env("sim_scaling", "BENCH_sim.json");

    let shapes: Vec<Shape> = if args.smoke {
        vec![
            Shape::LitmusCorpus,
            Shape::LitmusAtScale,
            // One scaled-machine row so CI proves the 128-core engines
            // agree, not just the paper-scale ones.
            Shape::Kernel {
                bench: Benchmark::Genome,
                cores: 128,
                memops: 2_000,
                atomicity: Atomicity::Type2,
            },
        ]
    } else {
        let kernel = |bench, atomicity| Shape::Kernel {
            bench,
            cores: 32,
            memops: 20_000,
            atomicity,
        };
        vec![
            Shape::LitmusCorpus,
            Shape::LitmusAtScale,
            kernel(Benchmark::Radiosity, Atomicity::Type1),
            kernel(Benchmark::Radiosity, Atomicity::Type2),
            kernel(Benchmark::Bayes, Atomicity::Type2),
            kernel(Benchmark::WsqMstRr, Atomicity::Type3),
            // The scaled machines the paper never evaluated: same Table 2
            // latencies, 128/256 cores. Lockstep pays every core every
            // cycle; the event engine must not.
            Shape::Kernel {
                bench: Benchmark::Genome,
                cores: 128,
                memops: 2_000,
                atomicity: Atomicity::Type2,
            },
            Shape::Kernel {
                bench: Benchmark::Raytrace,
                cores: 256,
                memops: 1_000,
                atomicity: Atomicity::Type3,
            },
        ]
    };

    println!(
        "sim_scaling ({}): event-driven vs lockstep reference",
        args.mode()
    );
    println!(
        "{:<42} {:>12} {:>9} {:>12} {:>7}",
        "shape", "sim cycles", "event ms", "lockstep ms", "speedup"
    );
    let mut rows = Vec::new();
    for shape in &shapes {
        let row = measure(shape);
        println!(
            "{:<42} {:>12} {:>9.1} {:>12.1} {:>6.1}x",
            row.name, row.cycles, row.event_ms, row.lockstep_ms, row.speedup,
        );
        rows.push(row);
    }

    let json = to_json(&rows, args.mode());
    std::fs::write(&args.out, &json).expect("write BENCH_sim.json");
    println!("\nwrote {}", args.out);
    let failed = gates(&rows);
    for f in &failed {
        eprintln!("GATE FAILED: {f}");
    }
    if !failed.is_empty() {
        std::process::exit(1);
    }
    println!("all gates passed");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(cores: usize, speedup: f64, results_match: bool) -> Row {
        Row {
            name: format!("{cores} cores"),
            cores,
            runs: 1,
            repeats: 1,
            cycles: 1000,
            ticks: 2000,
            acting_ticks: 1500,
            event_ms: 10.0,
            lockstep_ms: 10.0 * speedup,
            speedup,
            results_match,
            paper_scale: cores == 32,
        }
    }

    #[test]
    fn passing_rows_pass_every_gate() {
        let rows = [row(32, 8.0, true), row(32, 1.6, true), row(128, 3.2, true)];
        assert_eq!(gates(&rows), Vec::<String>::new());
        let json = to_json(&rows, "smoke");
        assert_eq!(harness::jsonx::parse(&json).unwrap().render(), json);
    }

    #[test]
    fn failing_rows_fail_their_gates() {
        let mut empty = row(32, 4.0, true);
        empty.cycles = 0;
        let failed = gates(&[empty, row(32, 2.0, false)]);
        assert_eq!(failed.len(), 4, "{failed:?}");
        assert!(failed.iter().any(|f| f.contains("engines disagree")));
        assert!(failed.iter().any(|f| f.contains("no cycles")));
        assert!(failed.iter().any(|f| f.contains("scaled-machine")));
        assert!(failed.iter().any(|f| f.contains("headline speedup")));
    }
}
