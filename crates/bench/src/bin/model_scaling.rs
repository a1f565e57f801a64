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
//! A second sweep measures the **leaf `ato` solve** (`rmw_leaf`): for
//! each `(n, rounds)` shape it times uncached `allowed_outcomes_with_stats`
//! on the plain `dekker_variant` and on `dekker_rmw` under each atomicity
//! (median of [`LEAF_RUNS`]). The RMW rewrites walk more decision nodes
//! and solve the atomicity disjunctions at every complete leaf, so the row
//! to watch is µs per decision node against the plain row.
//!
//! A third sweep measures **prefix-certificate sharing**
//! (`tso_model::prefix`) on the `dekker_rmw` family: each `(n, rounds)`
//! shape is queried under all three RMW atomicities through the verdict
//! cache; the first rewrite searches, the siblings replay its certificate,
//! and the JSON records the reduction in *searched* decision nodes versus
//! the attributed (3-searches) total, with the time of the recording
//! search, of the replays, and of a fresh search of each replayed sibling.
//!
//! A fourth section measures **canonicalization** (`canon`), the thread-
//! order search behind every cache and store key and every campaign shard
//! fingerprint: the median and mean µs per `Program::canonicalize` and per
//! `Program::canonical_fingerprint` over the full corpus and over seed-1
//! campaign drafts (one call per program; the mean carries the few
//! many-threaded programs that dominate the cost), and over [`CANON_RUNS`]
//! calls on two worst cases — seven identical threads, where every thread
//! order ties and nothing is pruned, and the seven-thread store-buffering
//! ring.
//!
//! Every run checks the record's gates ([`gates`]) after writing the JSON
//! and exits non-zero when one fails: engines agree on every outcome set,
//! the non-trivial shapes keep a ≥10× streaming speedup, every RMW leaf
//! row's µs per node stays within 4× of its plain row, certificate
//! sharing cuts the family sweep's searched nodes ≥2×, and the `canon`
//! section has rows (it carries no timing bound).
//!
//! Usage:
//!
//! ```console
//! $ cargo run --release -p bench --bin model_scaling [-- --smoke] [--out PATH]
//! ```
//!
//! `--smoke` restricts the sweep to the fast shapes and 300 instead of
//! 3,000 campaign drafts (CI's `bench-smoke` job); `--out` overrides the
//! JSON path (default `BENCH_model.json` in the current directory).

use bench::model_shapes::{dekker_rmw, dekker_variant, dekker_variant_candidates};
use bench::SweepArgs;
use harness::jsonx::{arr, fixed, obj, Value};
use rmw_types::{Addr, Atomicity};
use std::collections::BTreeSet;
use std::hint::black_box;
use std::ops::ControlFlow;
use std::time::Instant;
use tso_model::{
    allowed_outcomes, allowed_outcomes_cached, allowed_outcomes_with_stats, check_validity,
    enumerate_candidates, for_each_valid_execution, Instr, Outcome, Program, SearchStats,
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

/// Gate: an RMW `rmw_leaf` row may cost at most this many times the µs per
/// decision node of the plain row of its shape.
const MAX_LEAF_NODE_RATIO: f64 = 4.0;

/// Timed runs per `rmw_leaf` row; the row reports their median.
const LEAF_RUNS: usize = 9;

/// Timed passes per prefix family; the row reports the median times.
const FAMILY_RUNS: usize = 5;

/// Timed calls per worst-case `canon` row; the row reports their median.
const CANON_RUNS: usize = 21;

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

/// The median of some timings (upper median for an even count).
fn median(mut ms: Vec<f64>) -> f64 {
    ms.sort_by(f64::total_cmp);
    ms[ms.len() / 2]
}

/// One `rmw_leaf` row: a Dekker shape, plain or with every write an RMW.
struct LeafRow {
    threads: usize,
    rounds: usize,
    /// `None` for the plain `dekker_variant` row.
    atomicity: Option<Atomicity>,
    /// Median of [`LEAF_RUNS`] uncached `allowed_outcomes_with_stats` runs.
    ms: f64,
    nodes: u64,
}

impl LeafRow {
    fn name(&self) -> String {
        let (n, r) = (self.threads, self.rounds);
        match self.atomicity {
            None => format!("dekker n={n} r={r}"),
            Some(a) => format!("dekker-rmw n={n} r={r} {a}"),
        }
    }

    fn us_per_node(&self) -> f64 {
        self.ms * 1e3 / self.nodes.max(1) as f64
    }
}

/// A row's µs per node over the plain row of the same shape (`None` when
/// that row is missing).
fn leaf_ratio(rows: &[LeafRow], row: &LeafRow) -> Option<f64> {
    rows.iter()
        .find(|p| p.atomicity.is_none() && (p.threads, p.rounds) == (row.threads, row.rounds))
        .map(|p| row.us_per_node() / p.us_per_node())
}

/// Times the plain shape and its three RMW rewrites.
fn measure_leaf_shape(threads: usize, rounds: usize) -> Vec<LeafRow> {
    let variants = std::iter::once(None).chain(Atomicity::ALL.map(Some));
    variants
        .map(|atomicity| {
            let program = match atomicity {
                None => dekker_variant(threads, rounds),
                Some(a) => dekker_rmw(threads, rounds, a),
            };
            let mut nodes = 0;
            let times = (0..LEAF_RUNS)
                .map(|_| {
                    let start = Instant::now();
                    let (_, stats) = allowed_outcomes_with_stats(&program);
                    nodes = stats.nodes;
                    start.elapsed().as_secs_f64() * 1e3
                })
                .collect();
            LeafRow {
                threads,
                rounds,
                atomicity,
                ms: median(times),
                nodes,
            }
        })
        .collect()
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
    /// Cached queries answered by the recording search (median pass).
    search_ms: f64,
    /// Cached queries answered by certificate replay (median pass).
    replay_ms: f64,
    /// Fresh, uncached searches of the replayed siblings (median pass).
    fresh_ms: f64,
}

impl PrefixRow {
    fn reduction(&self) -> f64 {
        self.attributed_nodes as f64 / (self.searched_nodes.max(1)) as f64
    }

    /// Replay time over a fresh search of the same siblings: below 1.0 the
    /// certificate tier saves wall-clock time.
    fn replay_vs_fresh(&self) -> f64 {
        self.replay_ms / self.fresh_ms.max(1e-6)
    }
}

/// Queries one `dekker_rmw` family (all three atomicities) through the
/// verdict cache from empty caches, [`FAMILY_RUNS`] times, and tallies how
/// much of the decision work certificate replay avoided. Only the cached
/// queries count as search or replay time; the fresh search that verifies
/// each answer is timed apart, as the replayed siblings' `fresh_ms`.
fn measure_prefix_family(threads: usize, rounds: usize) -> PrefixRow {
    let mut row = PrefixRow {
        name: format!("dekker-rmw n={threads} r={rounds}"),
        threads,
        rounds,
        searched_nodes: 0,
        attributed_nodes: 0,
        prefix_hits: 0,
        outcomes_match: true,
        search_ms: 0.0,
        replay_ms: 0.0,
        fresh_ms: 0.0,
    };
    let (mut search, mut replay, mut fresh) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..FAMILY_RUNS {
        tso_model::cache::clear();
        tso_model::prefix::clear();
        row.searched_nodes = 0;
        row.attributed_nodes = 0;
        row.prefix_hits = 0;
        let (mut search_ms, mut replay_ms, mut fresh_ms) = (0.0, 0.0, 0.0);
        for atomicity in Atomicity::ALL {
            let program = dekker_rmw(threads, rounds, atomicity);
            let start = Instant::now();
            let got = allowed_outcomes_cached(&program);
            let cached_ms = start.elapsed().as_secs_f64() * 1e3;
            let start = Instant::now();
            let direct = allowed_outcomes(&program);
            let direct_ms = start.elapsed().as_secs_f64() * 1e3;
            row.attributed_nodes += got.stats.nodes;
            if got.prefix_hit {
                row.prefix_hits += 1;
                replay_ms += cached_ms;
                fresh_ms += direct_ms;
            } else if !got.hit {
                row.searched_nodes += got.stats.nodes;
                search_ms += cached_ms;
            }
            row.outcomes_match &= got.outcomes == direct;
        }
        search.push(search_ms);
        replay.push(replay_ms);
        fresh.push(fresh_ms);
    }
    row.search_ms = median(search);
    row.replay_ms = median(replay);
    row.fresh_ms = median(fresh);
    row
}

/// One `canon` row: a set of programs, each canonicalized and
/// fingerprinted `runs` times.
struct CanonRow {
    name: String,
    programs: usize,
    max_threads: usize,
    runs: usize,
    /// Median µs per `canonicalize` / `canonical_fingerprint` call.
    canonicalize_us: f64,
    fingerprint_us: f64,
    /// Mean µs per call: the corpus-level cost, tail included.
    canonicalize_mean_us: f64,
    fingerprint_mean_us: f64,
}

/// Times `runs` calls of `canonicalize` and of `canonical_fingerprint` on
/// every program.
fn measure_canon(name: &str, programs: &[Program], runs: usize) -> CanonRow {
    let time = |call: &dyn Fn(&Program)| {
        let mut us = Vec::with_capacity(programs.len() * runs);
        for p in programs {
            for _ in 0..runs {
                let start = Instant::now();
                call(p);
                us.push(start.elapsed().as_secs_f64() * 1e6);
            }
        }
        let mean = us.iter().sum::<f64>() / us.len().max(1) as f64;
        (median(us), mean)
    };
    let (canonicalize_us, canonicalize_mean_us) = time(&|p| {
        black_box(p.canonicalize());
    });
    let (fingerprint_us, fingerprint_mean_us) = time(&|p| {
        black_box(p.canonical_fingerprint());
    });
    CanonRow {
        name: name.to_owned(),
        programs: programs.len(),
        max_threads: programs.iter().map(Program::num_threads).max().unwrap_or(0),
        runs,
        canonicalize_us,
        fingerprint_us,
        canonicalize_mean_us,
        fingerprint_mean_us,
    }
}

/// The `canon` rows: the corpus and the first `drafts` seed-1 campaign
/// drafts, one call per program, and the two worst cases.
fn canon_rows(drafts: u64) -> Vec<CanonRow> {
    let corpus: Vec<Program> =
        harness::full_corpus(litmus::gen::DEFAULT_SEED, litmus::gen::DEFAULT_RANDOM_COUNT)
            .into_iter()
            .map(|t| t.program)
            .collect();
    let campaign: Vec<Program> = (0..drafts)
        .map(|i| litmus::gen::campaign_draft(1, i).program)
        .collect();
    let mut identical = Program::new();
    for _ in 0..7 {
        identical.add_thread(vec![Instr::Write(Addr(0), 1), Instr::Read(Addr(1))]);
    }
    vec![
        measure_canon("corpus", &corpus, 1),
        measure_canon(&format!("seed-1 drafts 0..{drafts}"), &campaign, 1),
        measure_canon("7 identical threads", &[identical], CANON_RUNS),
        measure_canon("sb-ring-n7", &[litmus::gen::sb_ring(7).program], CANON_RUNS),
    ]
}

/// A measurement as a JSON number: integral values without decimals,
/// everything else with six.
fn num(v: f64) -> Value {
    let integral = v.fract() == 0.0 && v.abs() < 1e15;
    fixed(v, if integral { 0 } else { 6 })
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
fn gates(
    rows: &[Row],
    leaf_rows: &[LeafRow],
    prefix_rows: &[PrefixRow],
    canon: &[CanonRow],
) -> Vec<String> {
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
    if leaf_rows.is_empty() {
        failed.push("no rmw_leaf row measured".to_owned());
    }
    for r in leaf_rows.iter().filter(|r| r.atomicity.is_some()) {
        match leaf_ratio(leaf_rows, r) {
            None => failed.push(format!("{}: no plain row of its shape", r.name())),
            Some(ratio) if ratio > MAX_LEAF_NODE_RATIO => failed.push(format!(
                "{}: {ratio:.1}x the plain row's µs per node, above the \
                 {MAX_LEAF_NODE_RATIO}x ceiling",
                r.name()
            )),
            Some(_) => {}
        }
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
    if canon.is_empty() {
        failed.push("no canon row measured".to_owned());
    }
    failed
}

fn to_json(
    rows: &[Row],
    leaf_rows: &[LeafRow],
    prefix_rows: &[PrefixRow],
    canon: &[CanonRow],
    mode: &str,
) -> String {
    let shapes = rows.iter().map(|r| {
        obj([
            ("name", r.name.as_str().into()),
            ("threads", r.threads.into()),
            ("rounds", r.rounds.into()),
            ("events", r.events.into()),
            ("candidates", num(r.candidates)),
            ("streaming_ms", num(r.streaming_ms)),
            ("nodes", r.stats.nodes.into()),
            ("pruned", r.stats.pruned.into()),
            ("complete", r.stats.complete.into()),
            ("valid", r.stats.valid.into()),
            ("outcomes", r.outcomes.into()),
            ("legacy_ms", r.legacy_ms.map(num).into()),
            ("speedup", r.speedup().map(num).into()),
            ("outcomes_match", r.outcomes_match.into()),
        ])
    });
    let shared = shared_rows(rows);
    let min = min_shared_speedup(rows).unwrap_or(0.0);
    let geomean = if shared.is_empty() {
        0.0
    } else {
        let log_sum: f64 = shared.iter().filter_map(|r| r.speedup()).map(f64::ln).sum();
        (log_sum / shared.len() as f64).exp()
    };
    let leaves = leaf_rows.iter().map(|r| {
        obj([
            ("name", r.name().into()),
            ("threads", r.threads.into()),
            ("rounds", r.rounds.into()),
            (
                "atomicity",
                r.atomicity
                    .map_or("plain".to_owned(), |a| a.to_string())
                    .into(),
            ),
            ("runs", LEAF_RUNS.into()),
            ("ms", num(r.ms)),
            ("nodes", r.nodes.into()),
            ("us_per_node", num(r.us_per_node())),
            ("ratio_to_plain", leaf_ratio(leaf_rows, r).map(num).into()),
        ])
    });
    // Prefix-certificate sharing over the dekker_rmw family: three
    // atomicity rewrites per shape, one search + two replays each when
    // the certificate tier works.
    let families = prefix_rows.iter().map(|r| {
        obj([
            ("name", r.name.as_str().into()),
            ("threads", r.threads.into()),
            ("rounds", r.rounds.into()),
            ("searched_nodes", r.searched_nodes.into()),
            ("attributed_nodes", r.attributed_nodes.into()),
            ("prefix_hits", r.prefix_hits.into()),
            ("reduction", num(r.reduction())),
            ("runs", FAMILY_RUNS.into()),
            ("search_ms", num(r.search_ms)),
            ("replay_ms", num(r.replay_ms)),
            ("fresh_ms", num(r.fresh_ms)),
            ("replay_vs_fresh", num(r.replay_vs_fresh())),
            ("outcomes_match", r.outcomes_match.into()),
        ])
    });
    let (searched, attributed) = prefix_totals(prefix_rows);
    let hits: u64 = prefix_rows.iter().map(|r| r.prefix_hits).sum();
    let canon_rows = canon.iter().map(|r| {
        obj([
            ("name", r.name.as_str().into()),
            ("programs", r.programs.into()),
            ("max_threads", r.max_threads.into()),
            ("runs", r.runs.into()),
            ("canonicalize_us", num(r.canonicalize_us)),
            ("fingerprint_us", num(r.fingerprint_us)),
            ("canonicalize_mean_us", num(r.canonicalize_mean_us)),
            ("fingerprint_mean_us", num(r.fingerprint_mean_us)),
        ])
    });
    obj([
        ("experiment", "model_scaling".into()),
        ("paper", "conf_pldi_RajaramNSE13".into()),
        ("mode", mode.into()),
        ("shapes", arr(shapes)),
        (
            "shared",
            obj([
                ("min_candidates", num(SHARED_MIN_CANDIDATES)),
                ("count", shared.len().into()),
                ("min_speedup", num(min)),
                ("geomean_speedup", num(geomean)),
            ]),
        ),
        (
            "rmw_leaf",
            obj([
                ("max_ratio", num(MAX_LEAF_NODE_RATIO)),
                ("rows", arr(leaves)),
            ]),
        ),
        (
            "prefix_sharing",
            obj([
                ("rows", arr(families)),
                ("total_searched_nodes", searched.into()),
                ("total_attributed_nodes", attributed.into()),
                ("prefix_hits", hits.into()),
                ("reduction", num(attributed as f64 / searched.max(1) as f64)),
                (
                    "all_outcomes_match",
                    prefix_rows.iter().all(|r| r.outcomes_match).into(),
                ),
            ]),
        ),
        ("canon", obj([("rows", arr(canon_rows))])),
    ])
    .render()
}

fn main() {
    let args = SweepArgs::from_env("model_scaling", "BENCH_model.json");
    let smoke = args.smoke;

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
        args.mode(),
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

    // Leaf `ato` solve: the same shape plain and under each atomicity,
    // uncached, median of LEAF_RUNS. A few ms per row, so smoke runs it too.
    println!(
        "\n{:<26} {:>10} {:>10} {:>10} {:>10}",
        "rmw_leaf", "ms", "nodes", "us/node", "vs plain"
    );
    let mut leaf_rows = Vec::new();
    for (n, r) in [(3, 2), (2, 3)] {
        leaf_rows.extend(measure_leaf_shape(n, r));
    }
    for row in &leaf_rows {
        println!(
            "{:<26} {:>10.3} {:>10} {:>10.2} {:>9.2}x",
            row.name(),
            row.ms,
            row.nodes,
            row.us_per_node(),
            leaf_ratio(&leaf_rows, row).unwrap_or(f64::NAN),
        );
    }

    // Prefix-certificate sharing sweep: dekker_rmw families, three
    // atomicities each, through the verdict cache from empty caches.
    let prefix_shapes: &[(usize, usize)] = if smoke {
        &[(2, 1), (2, 2)]
    } else {
        &[(2, 1), (2, 2), (3, 1), (2, 3), (3, 2)]
    };
    println!(
        "\n{:<18} {:>10} {:>11} {:>10} {:>5} {:>10} {:>10} {:>10} {:>8}",
        "prefix family",
        "searched",
        "attributed",
        "reduction",
        "hits",
        "search ms",
        "replay ms",
        "fresh ms",
        "r/fresh"
    );
    let mut prefix_rows = Vec::new();
    for &(n, r) in prefix_shapes {
        let row = measure_prefix_family(n, r);
        println!(
            "{:<18} {:>10} {:>11} {:>9.1}x {:>5} {:>10.3} {:>10.3} {:>10.3} {:>8.2}",
            row.name,
            row.searched_nodes,
            row.attributed_nodes,
            row.reduction(),
            row.prefix_hits,
            row.search_ms,
            row.replay_ms,
            row.fresh_ms,
            row.replay_vs_fresh(),
        );
        prefix_rows.push(row);
    }

    // Canonicalization: the corpus and seed-1 drafts, one call per
    // program, plus the two worst cases, median of CANON_RUNS calls.
    println!(
        "\n{:<24} {:>8} {:>8} {:>10} {:>10} {:>10} {:>10}",
        "canon", "programs", "threads", "canon us", "fp us", "canon avg", "fp avg"
    );
    let canon = canon_rows(if smoke { 300 } else { 3000 });
    for row in &canon {
        println!(
            "{:<24} {:>8} {:>8} {:>10.3} {:>10.3} {:>10.3} {:>10.3}",
            row.name,
            row.programs,
            row.max_threads,
            row.canonicalize_us,
            row.fingerprint_us,
            row.canonicalize_mean_us,
            row.fingerprint_mean_us,
        );
    }

    let json = to_json(&rows, &leaf_rows, &prefix_rows, &canon, args.mode());
    std::fs::write(&args.out, &json).expect("write BENCH_model.json");
    println!("\nwrote {}", args.out);
    let failed = gates(&rows, &leaf_rows, &prefix_rows, &canon);
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
            search_ms: 1.0,
            replay_ms: 1.5,
            fresh_ms: 2.0,
        }
    }

    fn canon_row() -> CanonRow {
        CanonRow {
            name: "corpus".to_owned(),
            programs: 554,
            max_threads: 7,
            runs: 1,
            canonicalize_us: 2.0,
            fingerprint_us: 1.5,
            canonicalize_mean_us: 4.0,
            fingerprint_mean_us: 3.0,
        }
    }

    /// A plain row at 1 µs per node and one RMW row at `ratio` µs per node.
    fn leaf_pair(ratio: f64) -> [LeafRow; 2] {
        let leaf = |atomicity, ms| LeafRow {
            threads: 3,
            rounds: 2,
            atomicity,
            ms,
            nodes: 1000,
        };
        [leaf(None, 1.0), leaf(Some(Atomicity::Type1), ratio)]
    }

    #[test]
    fn passing_rows_pass_every_gate() {
        let rows = [
            row(4.0, Some(0.1), Some(true)), // calibration row, not shared
            row(5832.0, Some(30.0), Some(true)),
            row(5.0e7, None, None), // streaming-only
        ];
        let leaves = leaf_pair(3.5);
        let canon = [canon_row()];
        assert_eq!(
            gates(&rows, &leaves, &[family(100, 2)], &canon),
            Vec::<String>::new()
        );
        let json = to_json(&rows, &leaves, &[family(100, 2)], &canon, "smoke");
        assert_eq!(harness::jsonx::parse(&json).unwrap().render(), json);
    }

    #[test]
    fn failing_rows_fail_their_gates() {
        let rows = [
            row(5832.0, Some(5.0), Some(true)), // 5x: below the floor
            row(324.0, Some(0.8), Some(false)), // engines disagree
        ];
        let failed = gates(&rows, &leaf_pair(4.5), &[family(200, 1)], &[]);
        assert_eq!(failed.len(), 6, "{failed:?}");
        assert!(failed.iter().any(|f| f.contains("engines disagree")));
        assert!(failed.iter().any(|f| f.contains("speedup")));
        assert!(failed.iter().any(|f| f.contains("per node")));
        assert!(failed.iter().any(|f| f.contains("did not replay")));
        assert!(failed.iter().any(|f| f.contains("prefix sharing")));
        assert!(failed.iter().any(|f| f.contains("no canon row")));
    }

    #[test]
    fn rmw_leaf_rows_need_a_plain_row() {
        let [_, rmw] = leaf_pair(1.0);
        let failed = gates(&[], &[rmw], &[], &[]);
        assert!(
            failed.iter().any(|f| f.contains("no plain row")),
            "{failed:?}"
        );
        assert!(gates(&[], &[], &[], &[])
            .iter()
            .any(|f| f.contains("no rmw_leaf row")));
    }
}
