//! Regenerates **Figure 11(b)**: RMW critical-path stalls as a percentage
//! of overall execution time, per benchmark and RMW type.
//!
//! Paper headline: up to 9.0 % (type-2) / 9.2 % (type-3) overall speedup;
//! high-RMW-density programs (bayes, wsq-mst) benefit most; type-3's edge
//! over type-2 is small (<0.5 %).

use bench::{cli_scale, fig11_sweep};

fn main() {
    let (cores, memops) = cli_scale("fig11b");
    println!("Fig 11(b): RMW share of execution time ({cores} cores, {memops} memops/core)");
    println!(
        "{:<14} {:>10} {:>10} {:>10} {:>14} {:>14}",
        "benchmark", "type-1 %", "type-2 %", "type-3 %", "t2 speedup %", "t3 speedup %"
    );
    for row in fig11_sweep(cores, memops) {
        let [t1, t2, t3] = &row.by_type;
        let o1 = 100.0 * t1.stats.rmw_overhead_fraction();
        let o2 = 100.0 * t2.stats.rmw_overhead_fraction();
        let o3 = 100.0 * t3.stats.rmw_overhead_fraction();
        let sp2 =
            100.0 * (t1.stats.cycles as f64 - t2.stats.cycles as f64) / t1.stats.cycles as f64;
        let sp3 =
            100.0 * (t1.stats.cycles as f64 - t3.stats.cycles as f64) / t1.stats.cycles as f64;
        println!(
            "{:<14} {:>10.2} {:>10.2} {:>10.2} {:>14.2} {:>14.2}",
            row.bench.name(),
            o1,
            o2,
            o3,
            sp2,
            sp3
        );
    }
    println!();
    println!(
        "paper: type-2 up to 9.0% overall improvement (bayes); type-3 adds <0.5% over type-2;"
    );
    println!(
        "       lock-free codes (wsq-mst, bayes) benefit most, low-density codes barely move."
    );
}
