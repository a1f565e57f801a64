//! The §1 motivation experiment: average RMW latency, with and without a
//! trailing `mfence`.
//!
//! The paper measured 67 cycles per RMW on an 8-core Sandy Bridge and found
//! that adding an mfence after each RMW "does not significantly change" the
//! latency — evidence that type-1 RMWs already pay a full write-buffer
//! drain. We reproduce the check on the simulator: the fence is nearly free
//! after a type-1 RMW but costs real time after a type-2 RMW.

use bench::{cli_scale, config_for, run_stats, SEED};
use rmw_types::Atomicity;
use workloads::Benchmark;

fn main() {
    let (cores, memops) = cli_scale("intro_latency");
    println!("Intro experiment: RMW latency with/without trailing mfence");
    println!("({cores} cores, {memops} memops/core, radiosity-profile workload)");
    println!(
        "{:<22} {:>12} {:>14} {:>10}",
        "config", "avg RMW cost", "total cycles", "fence Δ%"
    );
    let traces = workloads::benchmark(Benchmark::Radiosity, cores, memops, SEED);
    for atomicity in [Atomicity::Type1, Atomicity::Type2] {
        let mut base_cycles = 0u64;
        for fenced in [false, true] {
            let mut cfg = config_for(cores, atomicity);
            cfg.fence_after_rmw = fenced;
            let s = run_stats(cfg, &traces);
            let delta = if fenced {
                100.0 * (s.cycles as f64 - base_cycles as f64) / base_cycles as f64
            } else {
                base_cycles = s.cycles;
                0.0
            };
            println!(
                "{:<22} {:>12.1} {:>14} {:>9.1}%",
                format!("{atomicity}{}", if fenced { " + mfence" } else { "" }),
                s.avg_rmw_cost(),
                s.cycles,
                delta
            );
        }
    }
    println!();
    println!("paper: 67-cycle avg RMW on Sandy Bridge; mfence after RMW ≈ free,");
    println!("       supporting the forced-write-buffer-drain hypothesis for type-1.");
}
