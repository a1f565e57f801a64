//! Model-search scaling sweep: streaming pruned engine vs. the legacy
//! materializing enumerator, plus prefix-certificate sharing, recorded as
//! `BENCH_model.json`.
//!
//! For each shape of the [`bench::model_shapes::dekker_variant`] family the
//! binary measures the streaming engine (`for_each_valid_execution`) and —
//! where the candidate space fits in memory — the legacy
//! `enumerate_candidates` + `check_validity` pipeline, asserts both engines
//! produce the same outcome set, and reports the speedup. The largest shape
//! (3 threads × 3 rounds ≈ 5.7 · 10⁷ candidates, tens of GiB materialized)
//! is streaming-only: the legacy enumerator cannot finish it in memory.
//!
//! A second sweep measures **prefix-certificate sharing**
//! (`tso_model::prefix`) on the `dekker_rmw` family: each `(n, rounds)`
//! shape is queried under all three RMW atomicities through the verdict
//! cache; the first rewrite searches, the siblings replay its certificate,
//! and the JSON records the reduction in *searched* decision nodes versus
//! the attributed (3-searches) total.
//!
//! Every run checks the record's gates ([`gates`]) after writing the JSON
//! and exits non-zero when one fails: engines agree on every outcome set,
//! the non-trivial shapes keep a ≥10× streaming speedup, and certificate
//! sharing cuts the family sweep's searched nodes ≥2×.
//!
//! Usage:
//!
//! ```console
//! $ cargo run --release -p bench --bin model_scaling [-- --smoke] [--out PATH]
//! ```
//!
//! `--smoke` restricts the sweep to the fast shapes (CI's `bench-smoke`
//! job); `--out` overrides the JSON path (default `BENCH_model.json` in the
//! current directory).

use bench::model_shapes::{dekker_rmw, dekker_variant, dekker_variant_candidates};
use rmw_types::Atomicity;
use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::ops::ControlFlow;
use std::time::Instant;
use tso_model::{
    allowed_outcomes, allowed_outcomes_cached, check_validity, enumerate_candidates,
    for_each_valid_execution, Outcome, SearchStats,
};

/// Shapes smaller than this (materialized candidates) are calibration
/// rows: both engines finish in microseconds there, so they are excluded
/// from the headline `shared` speedup aggregate.
const SHARED_MIN_CANDIDATES: f64 = 1000.0;

/// Gate: the slowest non-trivial shared shape must keep this streaming
/// speedup over the legacy enumerator.
const MIN_SHARED_SPEEDUP: f64 = 10.0;

/// Gate: certificate sharing must cut the family sweep's searched nodes
/// by at least this factor.
const MIN_PREFIX_REDUCTION: f64 = 2.0;

/// One measured shape.
struct Row {
    name: String,
    threads: usize,
    rounds: usize,
    events: usize,
    /// Candidates the legacy enumerator materializes (analytic count).
    candidates: f64,
    streaming_ms: f64,
    stats: SearchStats,
    outcomes: usize,
    /// `None` when the legacy enumerator was skipped (infeasible).
    legacy_ms: Option<f64>,
    outcomes_match: Option<bool>,
}

impl Row {
    fn speedup(&self) -> Option<f64> {
        self.legacy_ms.map(|l| l / self.streaming_ms.max(1e-6))
    }
}

fn measure(threads: usize, rounds: usize, run_legacy: bool) -> Row {
    let program = dekker_variant(threads, rounds);
    let events = threads * rounds * 2 + threads; // per-thread W+R pairs + init writes

    let start = Instant::now();
    let mut streamed: BTreeSet<Outcome> = BTreeSet::new();
    let stats = for_each_valid_execution(&program, |exec| {
        streamed.insert(Outcome::of_execution(exec));
        ControlFlow::Continue(())
    });
    let streaming_ms = start.elapsed().as_secs_f64() * 1e3;

    let (legacy_ms, outcomes_match) = if run_legacy {
        let start = Instant::now();
        let legacy: BTreeSet<Outcome> = enumerate_candidates(&program)
            .into_iter()
            .filter(|c| check_validity(c).is_valid())
            .map(|c| Outcome::of_execution(&c))
            .collect();
        let ms = start.elapsed().as_secs_f64() * 1e3;
        (Some(ms), Some(legacy == streamed))
    } else {
        (None, None)
    };

    Row {
        name: format!("dekker n={threads} r={rounds}"),
        threads,
        rounds,
        events,
        candidates: dekker_variant_candidates(threads, rounds),
        streaming_ms,
        stats,
        outcomes: streamed.len(),
        legacy_ms,
        outcomes_match,
    }
}

/// One `(n, rounds)` family of the prefix-sharing sweep: three atomicity
/// rewrites queried through the verdict cache.
struct PrefixRow {
    name: String,
    threads: usize,
    rounds: usize,
    /// Decision nodes of searches that actually ran for this family.
    searched_nodes: u64,
    /// Attributed nodes summed over all three rewrites — what three
    /// independent searches would have cost.
    attributed_nodes: u64,
    /// Rewrites answered by certificate replay.
    prefix_hits: u64,
    /// Every rewrite's cached outcome set equals its direct search.
    outcomes_match: bool,
    ms: f64,
}

impl PrefixRow {
    fn reduction(&self) -> f64 {
        self.attributed_nodes as f64 / (self.searched_nodes.max(1)) as f64
    }
}

/// Queries one `dekker_rmw` family (all three atomicities) through the
/// verdict cache and tallies how much of the decision work certificate
/// replay avoided.
fn measure_prefix_family(threads: usize, rounds: usize) -> PrefixRow {
    let start = Instant::now();
    let mut searched_nodes = 0u64;
    let mut attributed_nodes = 0u64;
    let mut prefix_hits = 0u64;
    let mut outcomes_match = true;
    for atomicity in Atomicity::ALL {
        let program = dekker_rmw(threads, rounds, atomicity);
        let got = allowed_outcomes_cached(&program);
        attributed_nodes += got.stats.nodes;
        if got.prefix_hit {
            prefix_hits += 1;
        } else if !got.hit {
            searched_nodes += got.stats.nodes;
        }
        outcomes_match &= got.outcomes == allowed_outcomes(&program);
    }
    PrefixRow {
        name: format!("dekker-rmw n={threads} r={rounds}"),
        threads,
        rounds,
        searched_nodes,
        attributed_nodes,
        prefix_hits,
        outcomes_match,
        ms: start.elapsed().as_secs_f64() * 1e3,
    }
}

fn json_num(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{v:.0}")
    } else {
        format!("{v:.6}")
    }
}

/// The shared (non-trivial, legacy-measured) shapes the headline covers:
/// below ~1000 candidates both engines finish in microseconds and the
/// ratio measures constant overhead, not scaling.
fn shared_rows(rows: &[Row]) -> Vec<&Row> {
    rows.iter()
        .filter(|r| r.legacy_ms.is_some() && r.candidates >= SHARED_MIN_CANDIDATES)
        .collect()
}

/// Slowest streaming speedup over the shared shapes (`None` when there
/// are none).
fn min_shared_speedup(rows: &[Row]) -> Option<f64> {
    shared_rows(rows)
        .iter()
        .filter_map(|r| r.speedup())
        .reduce(f64::min)
}

/// Searched and attributed node totals of the prefix-sharing sweep.
fn prefix_totals(prefix_rows: &[PrefixRow]) -> (u64, u64) {
    (
        prefix_rows.iter().map(|r| r.searched_nodes).sum(),
        prefix_rows.iter().map(|r| r.attributed_nodes).sum(),
    )
}

/// The record's gates; returns one message per failed gate.
fn gates(rows: &[Row], prefix_rows: &[PrefixRow]) -> Vec<String> {
    let mut failed = Vec::new();
    for r in rows {
        if r.stats.valid == 0 {
            failed.push(format!("{}: no valid executions", r.name));
        }
        if r.outcomes_match == Some(false) {
            failed.push(format!("{}: engines disagree on the outcome set", r.name));
        }
    }
    match min_shared_speedup(rows) {
        None => failed.push("no shared (non-trivial) shape measured".to_owned()),
        Some(min) if min < MIN_SHARED_SPEEDUP => failed.push(format!(
            "shared streaming speedup {min:.1}x is below the {MIN_SHARED_SPEEDUP}x floor"
        )),
        Some(_) => {}
    }
    for r in prefix_rows {
        if !r.outcomes_match {
            failed.push(format!(
                "{}: certificate replay disagrees with a direct search",
                r.name
            ));
        }
        if r.prefix_hits < 2 {
            failed.push(format!(
                "{}: siblings did not replay the certificate",
                r.name
            ));
        }
    }
    let (searched, attributed) = prefix_totals(prefix_rows);
    let reduction = attributed as f64 / searched.max(1) as f64;
    if reduction < MIN_PREFIX_REDUCTION {
        failed.push(format!(
            "prefix sharing cut searched nodes {reduction:.1}x, below the \
             {MIN_PREFIX_REDUCTION}x floor"
        ));
    }
    failed
}

fn to_json(rows: &[Row], prefix_rows: &[PrefixRow], mode: &str) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "{{");
    let _ = writeln!(s, "  \"experiment\": \"model_scaling\",");
    let _ = writeln!(s, "  \"paper\": \"conf_pldi_RajaramNSE13\",");
    let _ = writeln!(s, "  \"mode\": \"{mode}\",");
    let _ = writeln!(s, "  \"shapes\": [");
    for (i, r) in rows.iter().enumerate() {
        let _ = writeln!(s, "    {{");
        let _ = writeln!(s, "      \"name\": \"{}\",", r.name);
        let _ = writeln!(s, "      \"threads\": {},", r.threads);
        let _ = writeln!(s, "      \"rounds\": {},", r.rounds);
        let _ = writeln!(s, "      \"events\": {},", r.events);
        let _ = writeln!(s, "      \"candidates\": {},", json_num(r.candidates));
        let _ = writeln!(s, "      \"streaming_ms\": {},", json_num(r.streaming_ms));
        let _ = writeln!(s, "      \"nodes\": {},", r.stats.nodes);
        let _ = writeln!(s, "      \"pruned\": {},", r.stats.pruned);
        let _ = writeln!(s, "      \"complete\": {},", r.stats.complete);
        let _ = writeln!(s, "      \"valid\": {},", r.stats.valid);
        let _ = writeln!(s, "      \"outcomes\": {},", r.outcomes);
        match r.legacy_ms {
            Some(ms) => {
                let _ = writeln!(s, "      \"legacy_ms\": {},", json_num(ms));
                let _ = writeln!(
                    s,
                    "      \"speedup\": {},",
                    json_num(r.speedup().unwrap_or(0.0))
                );
                let _ = writeln!(
                    s,
                    "      \"outcomes_match\": {}",
                    r.outcomes_match.unwrap_or(false)
                );
            }
            None => {
                let _ = writeln!(s, "      \"legacy_ms\": null,");
                let _ = writeln!(s, "      \"speedup\": null,");
                let _ = writeln!(s, "      \"outcomes_match\": null");
            }
        }
        let comma = if i + 1 < rows.len() { "," } else { "" };
        let _ = writeln!(s, "    }}{comma}");
    }
    let _ = writeln!(s, "  ],");
    let shared = shared_rows(rows);
    let min = min_shared_speedup(rows).unwrap_or(0.0);
    let geomean = if shared.is_empty() {
        0.0
    } else {
        let log_sum: f64 = shared.iter().filter_map(|r| r.speedup()).map(f64::ln).sum();
        (log_sum / shared.len() as f64).exp()
    };
    let _ = writeln!(s, "  \"shared\": {{");
    let _ = writeln!(
        s,
        "    \"min_candidates\": {},",
        json_num(SHARED_MIN_CANDIDATES)
    );
    let _ = writeln!(s, "    \"count\": {},", shared.len());
    let _ = writeln!(s, "    \"min_speedup\": {},", json_num(min));
    let _ = writeln!(s, "    \"geomean_speedup\": {}", json_num(geomean));
    let _ = writeln!(s, "  }},");
    // Prefix-certificate sharing over the dekker_rmw family: three
    // atomicity rewrites per shape, one search + two replays each when
    // the certificate tier works.
    let _ = writeln!(s, "  \"prefix_sharing\": {{");
    let _ = writeln!(s, "    \"rows\": [");
    for (i, r) in prefix_rows.iter().enumerate() {
        let comma = if i + 1 < prefix_rows.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "      {{\"name\": \"{}\", \"threads\": {}, \"rounds\": {}, \
             \"searched_nodes\": {}, \"attributed_nodes\": {}, \"prefix_hits\": {}, \
             \"reduction\": {}, \"ms\": {}, \"outcomes_match\": {}}}{comma}",
            r.name,
            r.threads,
            r.rounds,
            r.searched_nodes,
            r.attributed_nodes,
            r.prefix_hits,
            json_num(r.reduction()),
            json_num(r.ms),
            r.outcomes_match
        );
    }
    let _ = writeln!(s, "    ],");
    let (searched, attributed) = prefix_totals(prefix_rows);
    let hits: u64 = prefix_rows.iter().map(|r| r.prefix_hits).sum();
    let prefix_match = prefix_rows.iter().all(|r| r.outcomes_match);
    let _ = writeln!(s, "    \"total_searched_nodes\": {searched},");
    let _ = writeln!(s, "    \"total_attributed_nodes\": {attributed},");
    let _ = writeln!(s, "    \"prefix_hits\": {hits},");
    let _ = writeln!(
        s,
        "    \"reduction\": {},",
        json_num(attributed as f64 / searched.max(1) as f64)
    );
    let _ = writeln!(s, "    \"all_outcomes_match\": {prefix_match}");
    let _ = writeln!(s, "  }}");
    let _ = writeln!(s, "}}");
    s
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1).cloned())
        .unwrap_or_else(|| "BENCH_model.json".to_owned());

    // (threads, rounds, run_legacy). Legacy is skipped where the
    // materialized candidate space stops fitting in memory; dekker n=3
    // r=3 stays in the smoke sweep as the streaming-only scale probe.
    let shapes: &[(usize, usize, bool)] = if smoke {
        &[
            (2, 1, true),
            (2, 2, true),
            (3, 1, true),
            (2, 3, true),
            (3, 3, false),
        ]
    } else {
        &[
            (2, 1, true),
            (2, 2, true),
            (3, 1, true),
            (3, 2, true),
            (2, 3, true),
            (2, 4, false),
            (3, 3, false),
        ]
    };

    println!(
        "model_scaling ({}): streaming pruned search vs legacy enumeration",
        if smoke { "smoke" } else { "full" },
    );
    println!(
        "{:<16} {:>8} {:>14} {:>12} {:>12} {:>8} {:>10}",
        "shape", "events", "candidates", "stream ms", "legacy ms", "speedup", "outcomes"
    );
    let mut rows = Vec::new();
    for &(n, r, legacy) in shapes {
        let row = measure(n, r, legacy);
        println!(
            "{:<16} {:>8} {:>14.3e} {:>12.2} {:>12} {:>8} {:>10}",
            row.name,
            row.events,
            row.candidates,
            row.streaming_ms,
            row.legacy_ms
                .map_or("skipped".into(), |v| format!("{v:.2}")),
            row.speedup().map_or("-".into(), |v| format!("{v:.1}x")),
            row.outcomes,
        );
        rows.push(row);
    }

    // Prefix-certificate sharing sweep: dekker_rmw families, three
    // atomicities each, through the verdict cache. Start from empty
    // process-wide caches so the reduction numbers are the sweep's own.
    let prefix_shapes: &[(usize, usize)] = if smoke {
        &[(2, 1), (2, 2)]
    } else {
        &[(2, 1), (2, 2), (3, 1), (2, 3)]
    };
    tso_model::cache::clear();
    tso_model::prefix::clear();
    println!(
        "\n{:<18} {:>14} {:>16} {:>12} {:>10} {:>10}",
        "prefix family", "searched", "attributed", "reduction", "hits", "ms"
    );
    let mut prefix_rows = Vec::new();
    for &(n, r) in prefix_shapes {
        let row = measure_prefix_family(n, r);
        println!(
            "{:<18} {:>14} {:>16} {:>11.1}x {:>10} {:>10.2}",
            row.name,
            row.searched_nodes,
            row.attributed_nodes,
            row.reduction(),
            row.prefix_hits,
            row.ms,
        );
        prefix_rows.push(row);
    }

    let json = to_json(&rows, &prefix_rows, if smoke { "smoke" } else { "full" });
    std::fs::write(&out_path, &json).expect("write BENCH_model.json");
    println!("\nwrote {out_path}");
    let failed = gates(&rows, &prefix_rows);
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

    fn row(candidates: f64, legacy_ms: Option<f64>, outcomes_match: Option<bool>) -> Row {
        Row {
            name: format!("shape {candidates}"),
            threads: 2,
            rounds: 2,
            events: 10,
            candidates,
            streaming_ms: 1.0,
            stats: SearchStats {
                valid: 3,
                ..SearchStats::default()
            },
            outcomes: 3,
            legacy_ms,
            outcomes_match,
        }
    }

    fn family(searched_nodes: u64, prefix_hits: u64) -> PrefixRow {
        PrefixRow {
            name: "family".to_owned(),
            threads: 2,
            rounds: 2,
            searched_nodes,
            attributed_nodes: 300,
            prefix_hits,
            outcomes_match: true,
            ms: 1.0,
        }
    }

    #[test]
    fn passing_rows_pass_every_gate() {
        let rows = [
            row(4.0, Some(0.1), Some(true)), // calibration row, not shared
            row(5832.0, Some(30.0), Some(true)),
            row(5.0e7, None, None), // streaming-only
        ];
        assert_eq!(gates(&rows, &[family(100, 2)]), Vec::<String>::new());
    }

    #[test]
    fn failing_rows_fail_their_gates() {
        let rows = [
            row(5832.0, Some(5.0), Some(true)), // 5x: below the floor
            row(324.0, Some(0.8), Some(false)), // engines disagree
        ];
        let failed = gates(&rows, &[family(200, 1)]);
        assert_eq!(failed.len(), 4, "{failed:?}");
        assert!(failed.iter().any(|f| f.contains("engines disagree")));
        assert!(failed.iter().any(|f| f.contains("speedup")));
        assert!(failed.iter().any(|f| f.contains("did not replay")));
        assert!(failed.iter().any(|f| f.contains("prefix sharing")));
    }
}
