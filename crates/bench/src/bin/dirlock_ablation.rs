//! Ablation for the §3.3 design choice: the type-3 directory-locking
//! protocol.
//!
//! With directory locking **on**, a type-3 RMW to a shared line acquires
//! only read permission and locks at the home directory — no invalidations
//! on the critical path. With it **off**, the implementation falls back to
//! acquiring exclusive ownership (the type-2 path), paying the invalidation
//! round trip. The paper credits this optimization for type-3's extra
//! savings over type-2 (up to 64.3 % vs 58.9 % off type-1).

use bench::{cli_scale, config_for, run_stats, SEED};
use rmw_types::Atomicity;
use workloads::Benchmark;

fn main() {
    let (cores, memops) = cli_scale("dirlock_ablation");
    println!("Directory-locking ablation (type-3 RMWs, {cores} cores, {memops} memops/core)");
    println!(
        "{:<14} {:>18} {:>18} {:>10}",
        "benchmark", "RaWa (dirlock on)", "RaWa (dirlock off)", "saving %"
    );
    for bench in Benchmark::ALL {
        let traces = workloads::benchmark(bench, cores, memops, SEED);
        let costs = [true, false].map(|dirlock| {
            let mut cfg = config_for(cores, Atomicity::Type3);
            cfg.directory_locking = dirlock;
            let s = run_stats(cfg, &traces);
            s.rmw_cost.ra_wa_cycles as f64 / s.rmw_count as f64
        });
        println!(
            "{:<14} {:>18.1} {:>18.1} {:>9.1}%",
            bench.name(),
            costs[0],
            costs[1],
            100.0 * (costs[1] - costs[0]) / costs[1]
        );
    }
    println!();
    println!("paper: directory locking removes the invalidation delay from the");
    println!("       critical path of type-3 RMWs to shared lines (§3.3).");
}
