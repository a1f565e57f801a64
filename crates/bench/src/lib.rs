//! Experiment harness: shared runners behind the table/figure binaries.
//!
//! Every binary prints the same rows/series as the corresponding paper
//! artefact (see `DESIGN.md` for the index and `EXPERIMENTS.md` for the
//! recorded paper-vs-measured comparison):
//!
//! | binary          | paper artefact |
//! |-----------------|----------------|
//! | `fig11`         | Table 3, Fig. 11(a) and Fig. 11(b), from one sweep |
//! | `intro_latency` | §1's 67-cycle / mfence hypothesis check |
//! | `bloom_ablation`| §3.2 design choice: filter size / hash count |
//! | `dirlock_ablation` | §3.3 design choice: directory locking |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use rmw_types::Atomicity;
use tso_sim::{Machine, SimConfig, SimStats, Trace};
use workloads::Benchmark;

/// Default core count for experiment binaries (paper: 32; override with the
/// first CLI argument — smaller is faster for a smoke run).
pub const DEFAULT_CORES: usize = 8;
/// Default memory operations per core.
pub const DEFAULT_MEMOPS: usize = 20_000;
/// Seed used by all experiments (results are deterministic).
pub const SEED: u64 = 0xD15EA5E;

/// Parses the command line of the paper-artifact binaries (`fig11`,
/// `intro_latency`, `bloom_ablation`, `dirlock_ablation`):
/// `[cores] [memops-per-core]`, defaulting to
/// [`DEFAULT_CORES`] × [`DEFAULT_MEMOPS`]. `--help` or a malformed
/// argument prints usage for binary `name` and exits with status 2.
pub fn cli_scale(name: &str) -> (usize, usize) {
    parse_scale(std::env::args().skip(1))
        .unwrap_or_else(|complaint| usage(name, &complaint, "[cores] [memops-per-core]"))
}

/// Parses `[cores] [memops-per-core]`: at most two positive integers.
/// The error is the complaint to print (empty for `--help`).
fn parse_scale(args: impl IntoIterator<Item = String>) -> Result<(usize, usize), String> {
    let mut scale = [
        ("cores", DEFAULT_CORES),
        ("memops-per-core", DEFAULT_MEMOPS),
    ];
    for (i, arg) in args.into_iter().enumerate() {
        if arg == "--help" || arg == "-h" {
            return Err(String::new());
        }
        let (what, value) = scale
            .get_mut(i)
            .ok_or_else(|| format!("unexpected argument {arg}"))?;
        *value = match arg.parse() {
            Ok(n) if n > 0 => n,
            _ => return Err(format!("{what} must be a positive integer, got {arg}")),
        };
    }
    Ok((scale[0].1, scale[1].1))
}

/// Prints `complaint` (unless empty) and `usage: NAME SYNOPSIS`, then
/// exits with status 2 — the one usage path of every binary here.
fn usage(name: &str, complaint: &str, synopsis: &str) -> ! {
    if !complaint.is_empty() {
        eprintln!("{name}: {complaint}");
    }
    eprintln!("usage: {name} {synopsis}");
    std::process::exit(2);
}

/// The command line of the sweep binaries (`model_scaling`,
/// `sim_scaling`, `workload_zoo`): `[--smoke] [--out PATH]`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepArgs {
    /// `--smoke`: the fast subset CI runs.
    pub smoke: bool,
    /// `--out PATH`: where the JSON record is written.
    pub out: String,
}

impl SweepArgs {
    /// Parses the process arguments of sweep binary `name`, whose record
    /// defaults to `default_out`. `--help`, an unknown argument, or an
    /// `--out` without a value prints usage and exits with status 2.
    pub fn from_env(name: &str, default_out: &str) -> SweepArgs {
        SweepArgs::parse(std::env::args().skip(1), default_out)
            .unwrap_or_else(|complaint| usage(name, &complaint, "[--smoke] [--out PATH]"))
    }

    /// Parses `args`. The error is the complaint to print (empty for
    /// `--help`).
    pub fn parse(
        args: impl IntoIterator<Item = String>,
        default_out: &str,
    ) -> Result<SweepArgs, String> {
        let mut parsed = SweepArgs {
            smoke: false,
            out: default_out.to_owned(),
        };
        let mut it = args.into_iter();
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--smoke" => parsed.smoke = true,
                "--out" => parsed.out = it.next().ok_or("--out needs a value")?,
                "--help" | "-h" => return Err(String::new()),
                other => return Err(format!("unknown argument {other}")),
            }
        }
        Ok(parsed)
    }

    /// The record's `mode` field: `"smoke"` or `"full"`.
    pub fn mode(&self) -> &'static str {
        if self.smoke {
            "smoke"
        } else {
            "full"
        }
    }
}

/// A simulator configuration scaled from Table 2 to `cores` cores
/// (the mesh resizes accordingly; all latencies stay at paper values).
/// Thin wrapper over [`SimConfig::paper_scaled`] that also sets the RMW
/// atomicity.
///
/// # Panics
///
/// Panics if `cores` is zero.
pub fn config_for(cores: usize, atomicity: Atomicity) -> SimConfig {
    let mut cfg = SimConfig::paper_scaled(cores);
    cfg.rmw_atomicity = atomicity;
    cfg
}

/// Runs `traces` on a machine configured by `cfg` and returns its
/// statistics. The machine shares the traces' ops, so one trace set
/// serves every configuration an experiment compares.
///
/// # Panics
///
/// Panics if the run deadlocks: the avoidance scheme failed.
pub fn run_stats(cfg: SimConfig, traces: &[Trace]) -> SimStats {
    let result = Machine::new(cfg, traces.to_vec()).run();
    assert!(
        !result.deadlocked,
        "deadlocked on {cfg:?} — the avoidance scheme failed"
    );
    result.stats
}

/// Per-benchmark, per-type statistics for the Table 3 and Fig. 11
/// experiments.
#[derive(Debug, Clone)]
pub struct Fig11Row {
    /// The benchmark.
    pub bench: Benchmark,
    /// Statistics for type-1, type-2, type-3 (in that order).
    pub by_type: [SimStats; 3],
}

/// Runs all benchmarks under all three RMW types, drawing each
/// benchmark's traces once for its three runs.
pub fn fig11_sweep(cores: usize, memops: usize) -> Vec<Fig11Row> {
    Benchmark::ALL
        .iter()
        .map(|&bench| {
            let traces = workloads::benchmark(bench, cores, memops, SEED);
            Fig11Row {
                bench,
                by_type: Atomicity::ALL.map(|a| run_stats(config_for(cores, a), &traces)),
            }
        })
        .collect()
}

/// Model-search scaling shapes of the `model_scaling` experiment binary
/// (`BENCH_model.json`).
pub mod model_shapes {
    use rmw_types::{Addr, Atomicity, RmwKind};
    use tso_model::{Program, ProgramBuilder};

    /// An `n`-thread, `rounds`-round Dekker variant: thread `i` alternates
    /// `W(x_i, k); R(x_{i+1 mod n})` for `k = 1..=rounds`.
    ///
    /// One round of two threads is the classic store-buffering (SB) core of
    /// Dekker's algorithm; more rounds multiply both the writes per
    /// location (`ws` permutations: `rounds!` per location) and the reads
    /// (`rf` choices: `(rounds+1)` per read), so the *candidate* space the
    /// legacy enumerator materializes grows as
    /// `(rounds+1)^(n·rounds) · (rounds!)^n` while the valid executions —
    /// per-thread coherent read sequences — stay rare. This is the shape
    /// family the streaming engine's pruning is measured on.
    ///
    /// # Panics
    ///
    /// Panics if `n < 1` or `rounds < 1`.
    pub fn dekker_variant(n: usize, rounds: usize) -> Program {
        assert!(n >= 1 && rounds >= 1, "need at least 1 thread and 1 round");
        let mut b = ProgramBuilder::new();
        for i in 0..n {
            let mine = Addr(i as u64);
            let other = Addr(((i + 1) % n) as u64);
            let mut t = b.thread();
            for k in 1..=rounds {
                t.write(mine, k as u64).read(other);
            }
        }
        b.build()
    }

    /// Number of candidate executions the legacy enumerator would
    /// materialize for [`dekker_variant`]`(n, rounds)` (before dropping
    /// circular values — an upper bound that is exact for this family,
    /// which has no RMWs).
    pub fn dekker_variant_candidates(n: usize, rounds: usize) -> f64 {
        let rf: f64 = ((rounds + 1) as f64).powi((n * rounds) as i32);
        let fact: f64 = (1..=rounds).product::<usize>() as f64;
        rf * fact.powi(n as i32)
    }

    /// The RMW Dekker family: [`dekker_variant`] with every write replaced
    /// by a fetch-and-add under the given `atomicity` — thread `i`
    /// alternates `RMW(x_i, +=k); R(x_{i+1 mod n})`.
    ///
    /// The three atomicity rewrites of one `(n, rounds)` shape share their
    /// decision tree, so they are the measurement family for **family
    /// sharing** (`tso_model::cache`): the first rewrite pays the pruned
    /// search, which also tests every complete leaf for the two siblings,
    /// and the siblings' queries hit the verdict cache.
    ///
    /// # Panics
    ///
    /// Panics if `n < 1` or `rounds < 1`.
    pub fn dekker_rmw(n: usize, rounds: usize, atomicity: Atomicity) -> Program {
        assert!(n >= 1 && rounds >= 1, "need at least 1 thread and 1 round");
        let mut b = ProgramBuilder::new();
        for i in 0..n {
            let mine = Addr(i as u64);
            let other = Addr(((i + 1) % n) as u64);
            let mut t = b.thread();
            for k in 1..=rounds {
                t.rmw(mine, RmwKind::FetchAndAdd(k as u64), atomicity)
                    .read(other);
            }
        }
        b.build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_scaling_keeps_paper_latencies() {
        let c = config_for(8, Atomicity::Type2);
        assert_eq!(c.num_cores(), 8);
        assert_eq!(c.coherence.l1_latency, 2);
        assert_eq!(c.coherence.memory_latency, 300);
        assert!(c.mesh().num_nodes() >= 8);
        assert!(c.validate().is_ok());
        let full = config_for(32, Atomicity::Type1);
        assert_eq!(full.mesh().num_nodes(), 32);
    }

    #[test]
    fn sweep_args_are_strict() {
        let parse = |args: &[&str]| SweepArgs::parse(args.iter().map(|a| a.to_string()), "d.json");
        let smoke = parse(&["--out", "x.json", "--smoke"]).unwrap();
        assert_eq!(
            (smoke.smoke, smoke.out.as_str(), smoke.mode()),
            (true, "x.json", "smoke")
        );
        assert_eq!(parse(&[]).unwrap().out, "d.json");
        // A typo must not silently run the full sweep.
        assert_eq!(
            parse(&["--smok"]),
            Err("unknown argument --smok".to_owned())
        );
        assert!(parse(&["--out"]).is_err());
        assert_eq!(parse(&["--help"]), Err(String::new()));
    }

    #[test]
    fn scale_args_are_strict() {
        let parse = |args: &[&str]| parse_scale(args.iter().map(|a| a.to_string()));
        assert_eq!(parse(&[]), Ok((DEFAULT_CORES, DEFAULT_MEMOPS)));
        assert_eq!(parse(&["2"]), Ok((2, DEFAULT_MEMOPS)));
        assert_eq!(parse(&["2", "500"]), Ok((2, 500)));
        // A typo must not silently run the 8 x 20000 default.
        assert_eq!(
            parse(&["2", "5OO"]),
            Err("memops-per-core must be a positive integer, got 5OO".to_owned())
        );
        assert_eq!(
            parse(&["0", "10"]),
            Err("cores must be a positive integer, got 0".to_owned())
        );
        assert!(parse(&["2", "0"]).is_err());
        assert_eq!(
            parse(&["2", "200", "extra"]),
            Err("unexpected argument extra".to_owned())
        );
        assert_eq!(parse(&["--help"]), Err(String::new()));
    }

    #[test]
    fn smoke_run_radiosity() {
        let traces = workloads::benchmark(Benchmark::Radiosity, 2, 1_000, SEED);
        let s = run_stats(config_for(2, Atomicity::Type2), &traces);
        assert!(s.rmw_count > 0);
        assert!(s.cycles > 0);
    }

    #[test]
    fn sweep_stats_equal_runs_on_fresh_draws() {
        for (cores, memops) in [(2, 500), (4, 1_000)] {
            for row in fig11_sweep(cores, memops) {
                for (atomicity, stats) in Atomicity::ALL.into_iter().zip(&row.by_type) {
                    let traces = workloads::benchmark(row.bench, cores, memops, SEED);
                    let fresh = Machine::new(config_for(cores, atomicity), traces).run();
                    assert_eq!(
                        &fresh.stats, stats,
                        "{} under {atomicity} at {cores}x{memops}",
                        row.bench
                    );
                }
            }
        }
    }
}
