//! Regenerates **Table 3**: benchmark characteristics.
//!
//! Columns: RMWs per 1000 memops, % unique RMW addresses, % write-buffer
//! drains for type-2/type-3 RMWs (Bloom hits), and RMW broadcasts per 100
//! RMW ops. The first two are properties of the workload generator (matched
//! to the paper's measurements); the last two are *measured* on the
//! simulator with type-2 RMWs, as in the paper.

use bench::{cli_scale, run};
use rmw_types::Atomicity;
use workloads::Benchmark;

fn main() {
    let (cores, memops) = cli_scale("table3");
    println!("Table 3: Benchmark Characteristics ({cores} cores, {memops} memops/core)");
    println!(
        "{:<14} {:>16} {:>10} {:>22} {:>20}",
        "Code", "RMWs/1000 memops", "% Unique", "% WB drains (t2/t3)", "Broadcasts/100 RMWs"
    );
    for bench in Benchmark::ALL {
        let r = run(bench, Atomicity::Type2, cores, memops);
        let s = &r.stats;
        println!(
            "{:<14} {:>16.2} {:>10.2} {:>22.2} {:>20.2}",
            bench.name(),
            s.rmw_density_per_1000(),
            s.pct_unique_rmws(),
            s.pct_drains(),
            s.broadcasts_per_100(),
        );
    }
    println!();
    println!("Paper (32 cores, full inputs):");
    println!("  radiosity 15.56/0.28/0.06/0.26   raytrace 13.83/0.02/0.12/0.02");
    println!("  fluidanimate 17.43/0.46/0.09/0.46  dedup 8.10/3.31/0.20/3.12");
    println!("  bayes 34.15/0.91/0.01/0.80  genome 6.19/0.64/0.10/0.52");
    println!("  wsq-mst 23.41/3.80/0.07/3.71");
}
