//! Regenerates **Table 3**, **Figure 11(a)** and **Figure 11(b)** from one
//! sweep: every benchmark under type-1, type-2 and type-3 RMWs, each run
//! once, printed as three sections separated by a blank line.
//!
//! * Table 3, benchmark characteristics: RMWs per 1000 memops, % unique
//!   RMW addresses, % write-buffer drains for type-2/type-3 RMWs (Bloom
//!   hits), and RMW broadcasts per 100 RMW ops. The first two are
//!   properties of the workload generator (matched to the paper's
//!   measurements); the last two are *measured* on the simulator with
//!   type-2 RMWs, as in the paper.
//! * Fig. 11(a), the cost of each RMW type split into the write-buffer
//!   component and the Ra/Wa component. Paper headline: type-2 RMWs are
//!   38.6–58.9 % cheaper than type-1, type-3 up to 64.3 % cheaper; the
//!   write-buffer drain contributes ~58 % of the type-1 cost on average.
//! * Fig. 11(b), RMW critical-path stalls as a percentage of overall
//!   execution time. Paper headline: up to 9.0 % (type-2) / 9.2 %
//!   (type-3) overall speedup; high-RMW-density programs (bayes, wsq-mst)
//!   benefit most; type-3's edge over type-2 is small (<0.5 %).

use bench::{cli_scale, fig11_sweep, Fig11Row};

fn main() {
    let (cores, memops) = cli_scale("fig11");
    let rows = fig11_sweep(cores, memops);
    table3(&rows, cores, memops);
    println!();
    fig11a(&rows, cores, memops);
    println!();
    fig11b(&rows, cores, memops);
}

fn table3(rows: &[Fig11Row], cores: usize, memops: usize) {
    println!("Table 3: Benchmark Characteristics ({cores} cores, {memops} memops/core)");
    println!(
        "{:<14} {:>16} {:>10} {:>22} {:>20}",
        "Code", "RMWs/1000 memops", "% Unique", "% WB drains (t2/t3)", "Broadcasts/100 RMWs"
    );
    for row in rows {
        let [_, s, _] = &row.by_type;
        println!(
            "{:<14} {:>16.2} {:>10.2} {:>22.2} {:>20.2}",
            row.bench.name(),
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

fn fig11a(rows: &[Fig11Row], cores: usize, memops: usize) {
    println!("Fig 11(a): Cost of RMWs in cycles ({cores} cores, {memops} memops/core)");
    println!(
        "{:<14} | {:>8} {:>8} {:>8} | {:>8} {:>8} {:>8} | {:>9} {:>9}",
        "benchmark",
        "t1 WB",
        "t1 RaWa",
        "t1 tot",
        "t2 tot",
        "t3 tot",
        "t1 tot",
        "t2 save%",
        "t3 save%"
    );
    let mut savings2 = Vec::new();
    let mut savings3 = Vec::new();
    let mut wb_shares = Vec::new();
    for row in rows {
        let [t1, t2, t3] = &row.by_type;
        let c1 = t1.avg_rmw_cost();
        let c2 = t2.avg_rmw_cost();
        let c3 = t3.avg_rmw_cost();
        let wb1 = t1.rmw_cost.write_buffer_cycles as f64 / t1.rmw_count as f64;
        let rawa1 = t1.rmw_cost.ra_wa_cycles as f64 / t1.rmw_count as f64;
        let save2 = 100.0 * (c1 - c2) / c1;
        let save3 = 100.0 * (c1 - c3) / c1;
        savings2.push(save2);
        savings3.push(save3);
        wb_shares.push(100.0 * wb1 / c1);
        println!(
            "{:<14} | {:>8.1} {:>8.1} {:>8.1} | {:>8.1} {:>8.1} {:>8.1} | {:>8.1}% {:>8.1}%",
            row.bench.name(),
            wb1,
            rawa1,
            c1,
            c2,
            c3,
            c1,
            save2,
            save3
        );
    }
    let avg = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    println!();
    println!(
        "write-buffer share of type-1 cost: avg {:.1}% (paper: 58.0% avg)",
        avg(&wb_shares)
    );
    println!(
        "type-2 saving vs type-1: avg {:.1}%, max {:.1}% (paper: 38.6–58.9%)",
        avg(&savings2),
        savings2.iter().cloned().fold(f64::MIN, f64::max)
    );
    println!(
        "type-3 saving vs type-1: avg {:.1}%, max {:.1}% (paper: up to 64.3%)",
        avg(&savings3),
        savings3.iter().cloned().fold(f64::MIN, f64::max)
    );
}

fn fig11b(rows: &[Fig11Row], cores: usize, memops: usize) {
    println!("Fig 11(b): RMW share of execution time ({cores} cores, {memops} memops/core)");
    println!(
        "{:<14} {:>10} {:>10} {:>10} {:>14} {:>14}",
        "benchmark", "type-1 %", "type-2 %", "type-3 %", "t2 speedup %", "t3 speedup %"
    );
    for row in rows {
        let [t1, t2, t3] = &row.by_type;
        let o1 = 100.0 * t1.rmw_overhead_fraction();
        let o2 = 100.0 * t2.rmw_overhead_fraction();
        let o3 = 100.0 * t3.rmw_overhead_fraction();
        let sp2 = 100.0 * (t1.cycles as f64 - t2.cycles as f64) / t1.cycles as f64;
        let sp3 = 100.0 * (t1.cycles as f64 - t3.cycles as f64) / t1.cycles as f64;
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
