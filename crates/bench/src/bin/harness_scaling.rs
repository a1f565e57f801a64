//! Harness scaling sweep: differential corpus throughput vs. worker count,
//! recorded as `BENCH_harness.json`.
//!
//! Runs the full litmus corpus (or the smoke subset) through the
//! `harness` batch runner at increasing `--jobs`, recording wall-clock,
//! throughput, and speedup over one worker. Every run must be
//! differentially clean — any model/simulator disagreement aborts the
//! sweep with a nonzero exit.
//!
//! Usage:
//!
//! ```console
//! $ cargo run --release -p bench --bin harness_scaling [-- --smoke] [--out PATH]
//! ```

use bench::SweepArgs;
use harness::jsonx::{arr, fixed, obj};
use harness::{full_corpus, run_batch, smoke_filter, SMOKE_CAP};
use litmus::Litmus;
use tso_model::CacheCounters;

struct Row {
    jobs: usize,
    elapsed_ms: f64,
    tests_per_sec: f64,
}

/// The record: the sweep's header fields, the warm-up's cache counters,
/// and one entry per jobs row.
fn to_json(
    mode: &str,
    corpus_total: usize,
    selected: usize,
    hw: usize,
    cache: &CacheCounters,
    rows: &[Row],
) -> String {
    let base = rows.first().map_or(0.0, |r| r.elapsed_ms);
    let sweep = rows.iter().map(|r| {
        obj([
            ("jobs", r.jobs.into()),
            ("elapsed_ms", fixed(r.elapsed_ms, 3)),
            ("tests_per_sec", fixed(r.tests_per_sec, 1)),
            ("speedup_vs_jobs1", fixed(base / r.elapsed_ms.max(1e-6), 3)),
        ])
    });
    obj([
        ("experiment", "harness_scaling".into()),
        ("paper", "conf_pldi_RajaramNSE13".into()),
        ("mode", mode.into()),
        ("corpus_total", corpus_total.into()),
        ("selected", selected.into()),
        ("host_parallelism", hw.into()),
        ("disagreements", 0u64.into()),
        // Memoization accounting at the end of the warm-up pass:
        // `queries` counts every outcome-set lookup (corpus generation +
        // one full differential pass), `invocations` the model searches
        // that actually ran — the gap is the symmetry + memoization saving.
        ("model_cache", cache.into()),
        ("sweep", arr(sweep)),
    ])
    .render()
}

fn main() {
    let args = SweepArgs::from_env("harness_scaling", "BENCH_harness.json");

    let corpus = full_corpus(litmus::gen::DEFAULT_SEED, litmus::gen::DEFAULT_RANDOM_COUNT);
    let corpus_total = corpus.len();
    let mut tests: Vec<Litmus> = if args.smoke {
        let mut t: Vec<Litmus> = corpus.into_iter().filter(smoke_filter).collect();
        t.truncate(SMOKE_CAP);
        t
    } else {
        corpus
    };
    // Fixed order for comparable runs.
    tests.sort_by(|a, b| a.name.cmp(&b.name));

    let hw = std::thread::available_parallelism().map_or(1, |n| n.get());
    let sweep: Vec<usize> = [1usize, 2, 4, 8]
        .into_iter()
        .filter(|&j| j == 1 || j <= 2 * hw)
        .collect();

    println!(
        "harness_scaling ({}): {} tests, host parallelism {hw}",
        args.mode(),
        tests.len()
    );
    println!(
        "{:<6} {:>12} {:>12} {:>9}",
        "jobs", "elapsed ms", "tests/s", "speedup"
    );
    // Untimed warm-up over the FULL selection: it pays the one-time
    // process costs (page faults, lazy init) and fully populates the
    // memoized verdict cache, so every sweep row below runs against the
    // same hot cache and the jobs ratio measures worker scaling, not
    // cache position.
    let _ = run_batch(&tests, 1);
    let cache = tso_model::cache::counters();
    let mut rows: Vec<Row> = Vec::new();
    for &jobs in &sweep {
        let (outcomes, elapsed) = run_batch(&tests, jobs);
        if let Some(bad) = outcomes.iter().find(|o| !o.passed()) {
            eprintln!("ERROR: {}: {}", bad.name, bad.diagnosis());
            std::process::exit(1);
        }
        let elapsed_ms = elapsed.as_secs_f64() * 1e3;
        let row = Row {
            jobs,
            elapsed_ms,
            tests_per_sec: tests.len() as f64 / elapsed.as_secs_f64().max(1e-9),
        };
        let speedup = rows.first().map_or(1.0, |r0| r0.elapsed_ms / elapsed_ms);
        println!(
            "{:<6} {:>12.1} {:>12.0} {:>8.2}x",
            row.jobs, row.elapsed_ms, row.tests_per_sec, speedup
        );
        rows.push(row);
    }

    let json = to_json(args.mode(), corpus_total, tests.len(), hw, &cache, &rows);
    std::fs::write(&args.out, &json).expect("write BENCH_harness.json");
    println!("\nwrote {}", args.out);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_record_re_renders_byte_identically() {
        let row = |jobs, elapsed_ms| Row {
            jobs,
            elapsed_ms,
            tests_per_sec: 250.0 / elapsed_ms,
        };
        let rows = [row(1, 90.0), row(2, 60.0)];
        let json = to_json("smoke", 554, 250, 2, &CacheCounters::default(), &rows);
        assert_eq!(harness::jsonx::parse(&json).unwrap().render(), json);
    }
}
