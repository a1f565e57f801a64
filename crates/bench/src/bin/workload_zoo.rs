//! Synchronization-zoo comparison: every lock/channel kernel on the full
//! Table 2 machine under all three RMW atomicities, recorded as
//! `BENCH_zoo.json`.
//!
//! This is the "Table 3 at scale" experiment for real algorithms instead
//! of statistical trace profiles: each zoo kernel is an actual protocol
//! (TAS/ticket/futex mutexes, reader-writer locks, condvar, SPSC ring,
//! one-shot channel, Arc refcount stress) with a machine-checkable
//! invariant. For every `(kernel, atomicity)` cell the row records the
//! simulated cost (cycles, RMW cost, overhead fraction) and the
//! contention/fairness profile (spin retries and cycles, futex
//! wait/wake/blocked counters, lock handoffs and wake-to-acquire
//! latency, per-core work spread).
//!
//! Every run checks the record's gates ([`gates`]) after writing the
//! JSON and exits non-zero when one fails:
//!
//! * the kernel's correctness invariant holds (mutual exclusion, FIFO
//!   order, refcount balance, …) — atomicity changes *when* RMWs cost,
//!   never *what* the protocol computes;
//! * both step engines produce cycle-identical results
//!   (`results_match`), extending the engine-equivalence contract to
//!   futex/branch/register control flow at paper scale;
//! * per kernel, the final memory image is identical across the three
//!   atomicities (`outcome_invariant`);
//! * every cell's fairness is in (0, 1], the zoo as a whole records
//!   futex waits and spin retries, and at least ten kernels each have a
//!   row per atomicity.
//!
//! Usage:
//!
//! ```console
//! $ cargo run --release -p bench --bin workload_zoo [-- --smoke] [--out PATH]
//! ```

use bench::{config_for, SweepArgs};
use harness::jsonx::{arr, fixed, obj};
use rmw_types::Atomicity;
use tso_sim::{Machine, SimResult, SimStats, StepMode};
use workloads::zoo::ZooKernel;

struct Row {
    kernel: ZooKernel,
    atomicity: Atomicity,
    stats: SimStats,
    /// min/max per-core ops among participating cores — 1.0 is perfectly
    /// fair, small values mean some cores starved.
    fairness: f64,
    invariant_ok: bool,
    results_match: bool,
}

fn fairness(r: &SimResult) -> f64 {
    let busy: Vec<u64> = r
        .per_core
        .iter()
        .map(|s| s.ops)
        .filter(|&ops| ops > 0)
        .collect();
    let max = busy.iter().copied().max().unwrap_or(0);
    let min = busy.iter().copied().min().unwrap_or(0);
    if max == 0 {
        return 1.0;
    }
    min as f64 / max as f64
}

/// Cycle ceiling per cell. `paper_table2` leaves `max_cycles` unbounded,
/// and spinning counts as watchdog progress, so a spin-kernel resonance
/// would otherwise hang the bench forever instead of failing a row. The
/// slowest legitimate cell (condvar, iters=12) needs ~4.5M cycles.
const CYCLE_CEILING: u64 = 50_000_000;

fn measure(kernel: ZooKernel, atomicity: Atomicity, n: usize, iters: u64) -> (Row, SimResult) {
    let mut cfg = config_for(n, atomicity);
    cfg.max_cycles = CYCLE_CEILING;
    let traces = kernel.traces(n, iters);
    cfg.step_mode = StepMode::EventDriven;
    let ev = Machine::new(cfg, traces.clone()).run();
    cfg.step_mode = StepMode::Lockstep;
    let ls = Machine::new(cfg, traces).run();
    let results_match = ev.first_difference(&ls).is_none();
    let invariant_ok = kernel.check(&ev, n, iters).is_ok();
    let row = Row {
        kernel,
        atomicity,
        stats: ev.stats,
        fairness: fairness(&ev),
        invariant_ok,
        results_match,
    };
    (row, ev)
}

/// Gate: the zoo must keep at least this many kernels.
const MIN_KERNELS: usize = 10;

/// The record's gates; returns one message per failed gate. `invariant`
/// pairs each kernel with whether its final memory matched across the
/// three atomicities.
fn gates(rows: &[Row], invariant: &[(ZooKernel, bool)]) -> Vec<String> {
    let mut failed = Vec::new();
    for r in rows {
        let fair = r.fairness > 0.0 && r.fairness <= 1.0;
        for (ok, what) in [
            (r.invariant_ok, "invariant broken"),
            (r.results_match, "engines diverged"),
            (fair, "fairness outside (0, 1]"),
        ] {
            if !ok {
                failed.push(format!("{} {}: {what}", r.kernel, r.atomicity));
            }
        }
    }
    for &(kernel, same_memory) in invariant {
        if !same_memory {
            failed.push(format!(
                "{kernel}: final memory differs between atomicities"
            ));
        }
        let cells = rows.iter().filter(|r| r.kernel == kernel);
        if !cells.map(|r| r.atomicity).eq(Atomicity::ALL) {
            failed.push(format!("{kernel}: not one row per atomicity"));
        }
    }
    if invariant.len() < MIN_KERNELS {
        failed.push(format!(
            "{} kernels, below the floor of {MIN_KERNELS}",
            invariant.len()
        ));
    }
    // The sleeping and spinning kernels must actually exercise their paths.
    if rows.iter().all(|r| r.stats.futex_waits == 0) {
        failed.push("no futex waits recorded across the zoo".to_owned());
    }
    if rows.iter().all(|r| r.stats.spin_retries == 0) {
        failed.push("no spin retries recorded across the zoo".to_owned());
    }
    failed
}

fn to_json(
    rows: &[Row],
    invariant: &[(ZooKernel, bool)],
    mode: &str,
    n: usize,
    iters: u64,
) -> String {
    let cells = rows.iter().map(|r| {
        let st = &r.stats;
        obj([
            ("kernel", r.kernel.name().into()),
            ("atomicity", r.atomicity.to_string().into()),
            ("cycles", st.cycles.into()),
            ("rmw_count", st.rmw_count.into()),
            ("avg_rmw_cost", fixed(st.avg_rmw_cost(), 3)),
            (
                "rmw_overhead_fraction",
                fixed(st.rmw_overhead_fraction(), 5),
            ),
            ("spin_retries", st.spin_retries.into()),
            ("spin_cycles", st.spin_cycles.into()),
            ("futex_waits", st.futex_waits.into()),
            ("futex_immediate", st.futex_immediate.into()),
            ("futex_wakes", st.futex_wakes.into()),
            ("futex_wakeups", st.futex_wakeups.into()),
            ("blocked_cycles", st.blocked_cycles.into()),
            ("handoffs", st.handoffs.into()),
            ("avg_wake_to_acquire", fixed(st.avg_wake_to_acquire(), 3)),
            ("fairness_min_max_ops", fixed(r.fairness, 4)),
            ("invariant_ok", r.invariant_ok.into()),
            ("results_match", r.results_match.into()),
        ])
    });
    let kernels = invariant.iter().map(|&(kernel, outcome_invariant)| {
        let by_atomicity = rows
            .iter()
            .filter(|r| r.kernel == kernel)
            .map(|r| (r.atomicity.to_string(), r.stats.cycles.into()));
        obj([
            ("kernel", kernel.name().into()),
            ("outcome_invariant", outcome_invariant.into()),
            ("cycles_by_atomicity", obj(by_atomicity)),
        ])
    });
    obj([
        ("experiment", "workload_zoo".into()),
        ("paper", "conf_pldi_RajaramNSE13".into()),
        ("mode", mode.into()),
        (
            "machine",
            obj([("cores", n.into()), ("table2", true.into())]),
        ),
        ("iters_per_core", iters.into()),
        ("rows", arr(cells)),
        ("kernels", arr(kernels)),
    ])
    .render()
}

fn main() {
    let args = SweepArgs::from_env("workload_zoo", "BENCH_zoo.json");

    // The full Table 2 machine in both modes; smoke only trims the
    // per-core iteration count (CI must still cover every cell).
    let n = 32;
    let iters = if args.smoke { 3 } else { 12 };

    println!(
        "workload_zoo ({}): {} kernels x 3 atomicities on the {n}-core Table 2 machine",
        args.mode(),
        ZooKernel::ALL.len()
    );
    println!(
        "{:<18} {:>8} {:>10} {:>9} {:>8} {:>8} {:>8} {:>9} {:>6}",
        "kernel", "atom", "cycles", "rmw cost", "spins", "waits", "handoffs", "fairness", "ok"
    );
    let mut rows: Vec<Row> = Vec::new();
    let mut invariant: Vec<(ZooKernel, bool)> = Vec::new();
    for kernel in ZooKernel::ALL {
        let mut memories = Vec::new();
        for atomicity in Atomicity::ALL {
            let (row, result) = measure(kernel, atomicity, n, iters);
            println!(
                "{:<18} {:>8} {:>10} {:>9.1} {:>8} {:>8} {:>8} {:>9.3} {:>6}",
                row.kernel.name(),
                row.atomicity.to_string(),
                row.stats.cycles,
                row.stats.avg_rmw_cost(),
                row.stats.spin_retries,
                row.stats.futex_waits,
                row.stats.handoffs,
                row.fairness,
                row.invariant_ok && row.results_match
            );
            memories.push(result.memory);
            rows.push(row);
        }
        invariant.push((kernel, memories.windows(2).all(|w| w[0] == w[1])));
    }

    let json = to_json(&rows, &invariant, args.mode(), n, iters);
    std::fs::write(&args.out, &json).expect("write BENCH_zoo.json");
    println!("\nwrote {}", args.out);
    let failed = gates(&rows, &invariant);
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

    fn row(kernel: ZooKernel, atomicity: Atomicity) -> Row {
        Row {
            kernel,
            atomicity,
            stats: SimStats {
                cycles: 1000,
                rmw_count: 10,
                futex_waits: 1,
                spin_retries: 2,
                ..SimStats::default()
            },
            fairness: 0.5,
            invariant_ok: true,
            results_match: true,
        }
    }

    /// One row per atomicity for each of the first `kernels` zoo kernels,
    /// every one passing.
    fn zoo(kernels: usize) -> (Vec<Row>, Vec<(ZooKernel, bool)>) {
        let kernels = &ZooKernel::ALL[..kernels];
        let rows = kernels
            .iter()
            .flat_map(|&k| Atomicity::ALL.map(|a| row(k, a)))
            .collect();
        (rows, kernels.iter().map(|&k| (k, true)).collect())
    }

    #[test]
    fn passing_rows_pass_every_gate() {
        let (rows, invariant) = zoo(MIN_KERNELS);
        assert_eq!(gates(&rows, &invariant), Vec::<String>::new());
        let json = to_json(&rows, &invariant, "smoke", 32, 3);
        assert_eq!(harness::jsonx::parse(&json).unwrap().render(), json);
    }

    #[test]
    fn failing_rows_fail_their_gates() {
        let (mut rows, mut invariant) = zoo(MIN_KERNELS - 1);
        rows.remove(8); // the third kernel loses its type-3 row
        rows[0].invariant_ok = false;
        rows[1].results_match = false;
        rows[2].fairness = 0.0;
        invariant[1].1 = false;
        rows.iter_mut().for_each(|r| r.stats.futex_waits = 0);
        let failed = gates(&rows, &invariant);
        assert_eq!(failed.len(), 7, "{failed:?}");
        for needle in [
            "invariant",
            "engines",
            "fairness",
            "memory",
            "per atomicity",
            "floor",
            "futex",
        ] {
            assert!(
                failed.iter().any(|f| f.contains(needle)),
                "{needle}: {failed:?}"
            );
        }
    }
}
