//! Regenerates **Figure 11(a)**: the cost of type-1 / type-2 / type-3 RMWs
//! per benchmark, split into the write-buffer component and the Ra/Wa
//! component.
//!
//! Paper headline: type-2 RMWs are 38.6–58.9 % cheaper than type-1, type-3
//! up to 64.3 % cheaper; the write-buffer drain contributes ~58 % of the
//! type-1 cost on average.

use bench::{cli_scale, fig11_sweep};

fn main() {
    let (cores, memops) = cli_scale("fig11a");
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
    for row in fig11_sweep(cores, memops) {
        let [t1, t2, t3] = &row.by_type;
        let c1 = t1.stats.avg_rmw_cost();
        let c2 = t2.stats.avg_rmw_cost();
        let c3 = t3.stats.avg_rmw_cost();
        let wb1 = t1.stats.rmw_cost.write_buffer_cycles as f64 / t1.stats.rmw_count as f64;
        let rawa1 = t1.stats.rmw_cost.ra_wa_cycles as f64 / t1.stats.rmw_count as f64;
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
