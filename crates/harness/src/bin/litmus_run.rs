//! `litmus_run` — the parallel differential litmus harness CLI.
//!
//! Runs the full 550+ test corpus (hand-written classic + paper tests,
//! generated families, seeded random programs) through the axiomatic model
//! and the timing simulator under all three RMW atomicities, and reports
//! any disagreement.
//!
//! ```console
//! $ cargo run --release -p harness --bin litmus_run -- [FLAGS]
//! ```
//!
//! Flags (corpus mode, the default):
//!
//! * `--filter SUBSTR` — run only tests whose name contains `SUBSTR`
//!   (a selection of no test is a usage error);
//! * `--jobs N` — worker threads, at least 1 (default: available
//!   parallelism);
//! * `--smoke` — small-program subset (capped), for CI; the reported
//!   `corpus_total` still counts the full corpus;
//! * `--machine small|paper|128|256` — differential side on the per-test
//!   small machine (default), the full 32-core Table 2 machine, or a
//!   Table-2-latency machine scaled to 128/256 cores;
//! * `--format summary|json|tap` — output format (default `summary`);
//! * `--out PATH` — also write the chosen format to `PATH`;
//! * `--seed N` / `--random N` — corpus generation knobs;
//! * `--store PATH` — persistent verdict store: model search results are
//!   loaded from / appended to `PATH`, so reruns skip proven searches;
//! * `--budget-nodes N` / `--budget-ms N` — per-query search budgets, at
//!   least 1 each; a query that runs out answers `unknown`.
//!
//! Subcommands (see `README.md` for a campaign walkthrough):
//!
//! * `litmus_run campaign` — resumable sharded campaign over the
//!   deterministic `litmus::gen::campaign_draft` stream. Key flags:
//!   `--count N` (at least 1), `--shard I/N`, `--seed N`, `--store PATH`
//!   (default `verdicts.store`; per-shard files `PATH.i-of-n` when sharded),
//!   `--no-store`, `--checkpoint PATH`, `--resume`, `--chunk N`,
//!   `--jobs N`, `--machine`, `--out PATH`, `--max-chunks N` (stop early
//!   after N chunks — simulates a kill, for testing resume).
//! * `litmus_run merge REPORT...` — fold per-shard campaign reports into
//!   one merged report (validates the shard set is exactly `0..n`).
//! * `litmus_run compact STORE...` — rewrite store files with one record
//!   per key; with `--merge OUT`, fold all inputs into `OUT` first. Every
//!   input must exist (only `OUT` is created).
//!
//! Exit status is nonzero if any test fails either check (or, for
//! `merge`, if the merged campaign failed).

use harness::campaign::{
    default_checkpoint_name, merge_reports, run_campaign, CampaignConfig, DEFAULT_CHUNK,
};
use harness::jsonx::Value;
use harness::store::{with_store, Store};
use harness::{faults, full_corpus, run_batch_on, smoke_filter, MachineKind, Report, SMOKE_CAP};
use std::path::PathBuf;
use std::time::Duration;
use tso_model::SearchBudget;

struct Args {
    filter: Option<String>,
    jobs: usize,
    smoke: bool,
    format: String,
    out: Option<String>,
    seed: u64,
    random: usize,
    machine: MachineKind,
    store: Option<PathBuf>,
    budget_nodes: Option<u64>,
    budget_ms: Option<u64>,
}

fn usage() -> ! {
    eprintln!(
        "usage: litmus_run [--filter SUBSTR] [--jobs N] [--smoke] [--machine small|paper|128|256]\n\
         \x20                [--format summary|json|tap] [--out PATH] [--seed N] [--random N]\n\
         \x20                [--store PATH] [--faults SEED:RATE]\n\
         \x20                [--budget-nodes N] [--budget-ms N]\n\
         \x20      litmus_run campaign [--count N] [--shard I/N] [--seed N] [--jobs N]\n\
         \x20                [--machine small|paper|128|256] [--chunk N] [--store PATH | --no-store]\n\
         \x20                [--checkpoint PATH] [--resume] [--out PATH] [--max-chunks N]\n\
         \x20                [--faults SEED:RATE]\n\
         \x20      litmus_run merge REPORT... [--out PATH]\n\
         \x20      litmus_run compact STORE... [--merge OUT]"
    );
    std::process::exit(2);
}

/// `it.next()` or die — shared by every subcommand's flag parser.
fn next_value(it: &mut impl Iterator<Item = String>, name: &str) -> String {
    it.next().unwrap_or_else(|| {
        eprintln!("{name} needs a value");
        usage()
    })
}

/// Prints `msg` and exits with status 2 (an operational failure, as
/// opposed to a failed verification, which exits 1).
fn die(msg: String) -> ! {
    eprintln!("{msg}");
    std::process::exit(2);
}

/// Parses the `FILE... [FLAG PATH]` arguments of the `merge` and
/// `compact` subcommands: at least one input file plus an optional `flag`.
fn files_and_flag(argv: Vec<String>, sub: &str, flag: &str) -> (Vec<String>, Option<String>) {
    let mut paths = Vec::new();
    let mut value = None;
    let mut it = argv.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--help" | "-h" => usage(),
            f if f == flag => value = Some(next_value(&mut it, flag)),
            f if f.starts_with("--") => {
                eprintln!("unknown {sub} flag {f}");
                usage();
            }
            path => paths.push(path.to_owned()),
        }
    }
    if paths.is_empty() {
        eprintln!("{sub} needs at least one input file");
        usage();
    }
    (paths, value)
}

/// The next argument parsed as `flag`'s value, or die with usage.
fn next_parsed<T: std::str::FromStr>(it: &mut impl Iterator<Item = String>, flag: &str) -> T {
    next_value(it, flag).parse().unwrap_or_else(|_| {
        eprintln!("{flag} needs a number");
        usage()
    })
}

/// The next argument parsed as `flag`'s value, which must be at least 1
/// (a worker count, a search budget), or die with usage.
fn next_positive<T>(it: &mut impl Iterator<Item = String>, flag: &str) -> T
where
    T: std::str::FromStr + Default + PartialEq,
{
    let n: T = next_parsed(it, flag);
    if n == T::default() {
        eprintln!("{flag} must be at least 1");
        usage()
    }
    n
}

/// The next argument parsed as a `--machine` value, or die with usage.
fn next_machine(it: &mut impl Iterator<Item = String>) -> MachineKind {
    MachineKind::parse(&next_value(it, "--machine")).unwrap_or_else(|| {
        eprintln!("--machine must be small, paper, 128, or 256");
        usage()
    })
}

/// Installs random fault injection from a `--faults SEED:RATE` value, or
/// dies with usage. It takes effect during flag parsing, so everything
/// after — the store open included — runs under test.
fn install_faults(spec: &str) {
    let (seed, rate_ppm) = faults::parse_spec(spec).unwrap_or_else(|| {
        eprintln!("--faults must be SEED:RATE with RATE a probability in [0, 1] (e.g. 42:0.01)");
        usage()
    });
    eprintln!("litmus_run: fault injection active (seed {seed}, rate {rate_ppm} ppm)");
    faults::install_random(seed, rate_ppm);
}

/// Writes a rendered report to `--out`, degrading to a warning on
/// failure: the report is already on stdout, and a full disk must not
/// turn a passing run into a failing one.
fn write_out(path: &str, rendered: &str) {
    let write = std::fs::File::create(path).and_then(|mut f| {
        harness::faults::write_point(&mut f, rendered.as_bytes(), "report.out.write")
    });
    match write {
        Ok(()) => eprintln!("wrote {path}"),
        Err(e) => eprintln!("cannot write {path} ({e}) — report remains on stdout"),
    }
}

fn parse_corpus_args(rest: Vec<String>) -> Args {
    let mut args = Args {
        filter: None,
        jobs: std::thread::available_parallelism().map_or(2, |n| n.get()),
        smoke: false,
        format: "summary".to_owned(),
        out: None,
        seed: litmus::gen::DEFAULT_SEED,
        random: litmus::gen::DEFAULT_RANDOM_COUNT,
        machine: MachineKind::Small,
        store: None,
        budget_nodes: None,
        budget_ms: None,
    };
    let mut it = rest.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--filter" => args.filter = Some(next_value(&mut it, "--filter")),
            "--jobs" => args.jobs = next_positive(&mut it, "--jobs"),
            "--smoke" => args.smoke = true,
            "--format" => args.format = next_value(&mut it, "--format"),
            "--out" => args.out = Some(next_value(&mut it, "--out")),
            "--seed" => args.seed = next_parsed(&mut it, "--seed"),
            "--random" => args.random = next_parsed(&mut it, "--random"),
            "--store" => args.store = Some(PathBuf::from(next_value(&mut it, "--store"))),
            "--faults" => install_faults(&next_value(&mut it, "--faults")),
            // A zero budget would make a run that checks nothing pass.
            "--budget-nodes" => args.budget_nodes = Some(next_positive(&mut it, "--budget-nodes")),
            "--budget-ms" => args.budget_ms = Some(next_positive(&mut it, "--budget-ms")),
            "--machine" => args.machine = next_machine(&mut it),
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag {other}");
                usage();
            }
        }
    }
    if !matches!(args.format.as_str(), "summary" | "json" | "tap") {
        eprintln!("unknown format {:?}", args.format);
        usage();
    }
    args
}

fn main() {
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("campaign") => {
            argv.remove(0);
            campaign_main(argv);
        }
        Some("merge") => {
            argv.remove(0);
            merge_main(argv);
        }
        Some("compact") => {
            argv.remove(0);
            compact_main(argv);
        }
        _ => corpus_main(argv),
    }
}

fn corpus_main(argv: Vec<String>) {
    let args = parse_corpus_args(argv);

    // Search budgets: exhausted searches answer `unknown` (reported,
    // never cached) instead of running unboundedly.
    if args.budget_nodes.is_some() || args.budget_ms.is_some() {
        tso_model::set_budget(SearchBudget {
            max_nodes: args.budget_nodes,
            max_time: args.budget_ms.map(Duration::from_millis),
        });
    }

    // Attach the persistent verdict store (if any) before corpus
    // generation: the generated families derive their verdicts through
    // the model cache, so a warm store already pays off there. A store
    // that fails to open degrades to a store-less run (reported via the
    // JSON `degraded` flag) — persistence is an optimization, not a
    // prerequisite for verification.
    let (run, store) = with_store(args.store.as_deref(), || {
        let corpus = full_corpus(args.seed, args.random);
        let corpus_total = corpus.len();
        let mut selected: Vec<litmus::Litmus> = corpus
            .into_iter()
            .filter(|l| args.filter.as_deref().map_or(true, |f| l.name.contains(f)))
            .filter(|l| !args.smoke || smoke_filter(l))
            .collect();
        if args.smoke {
            selected.truncate(SMOKE_CAP);
        }
        if selected.is_empty() {
            return None;
        }
        eprintln!(
            "litmus_run: corpus {corpus_total} tests, running {} on {} jobs, {} machine{}",
            selected.len(),
            args.jobs,
            args.machine,
            if args.smoke { " (smoke)" } else { "" }
        );
        let (outcomes, elapsed) = run_batch_on(&selected, args.jobs, args.machine);
        Some((corpus_total, outcomes, elapsed))
    });
    // A run that checks no test would pass vacuously.
    let Some((corpus_total, outcomes, elapsed)) = run else {
        eprintln!(
            "no test matches --filter {:?}{}",
            args.filter.as_deref().unwrap_or(""),
            if args.smoke {
                " in the --smoke subset"
            } else {
                ""
            }
        );
        usage()
    };
    if let Some(st) = store.as_ref().filter(|st| st.open_error.is_none()) {
        eprintln!(
            "store {}: {} verdicts loaded, {} records appended, {} keys on disk, \
             {} save errors swallowed",
            st.path, st.loads, st.appended, st.keys, st.save_errors
        );
    }
    let report = Report {
        outcomes,
        corpus_total,
        jobs: args.jobs,
        machine: args.machine,
        elapsed_ms: elapsed.as_secs_f64() * 1e3,
        // Process-cumulative: covers corpus generation (the generated
        // families derive their verdicts through the same cache) and the
        // timed run — queries vs. invocations is the memoization +
        // symmetry saving for the whole corpus run.
        model_cache: Some(tso_model::cache::counters()),
        store,
    };

    let rendered = match args.format.as_str() {
        "json" => report.to_json(),
        "tap" => report.to_tap(),
        _ => format!("{}\n", report.summary()),
    };
    print!("{rendered}");
    if args.format.as_str() != "summary" {
        eprintln!("{}", report.summary());
    }
    if let Some(path) = &args.out {
        write_out(path, &rendered);
    }

    if !report.passed() {
        for o in report.outcomes.iter().filter(|o| !o.passed()) {
            eprintln!("FAIL {}: {}", o.name, o.diagnosis());
            if let Some(d) = &o.failure_detail {
                eprintln!("{d}");
            }
        }
        std::process::exit(1);
    }
}

/// Parses `I/N` (e.g. `--shard 2/4`) into `(shard, shards)`.
fn parse_shard(s: &str) -> Option<(u32, u32)> {
    let (i, n) = s.split_once('/')?;
    let shard: u32 = i.parse().ok()?;
    let shards: u32 = n.parse().ok()?;
    (shards >= 1 && shard < shards).then_some((shard, shards))
}

fn campaign_main(argv: Vec<String>) {
    let mut cfg = CampaignConfig::new(litmus::gen::DEFAULT_SEED, 10_000);
    cfg.store_path = Some(PathBuf::from("verdicts.store"));
    cfg.chunk = DEFAULT_CHUNK;
    let mut out: Option<String> = None;
    let mut checkpoint_set = false;
    let mut it = argv.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--faults" => install_faults(&next_value(&mut it, "--faults")),
            "--seed" => cfg.seed = next_parsed(&mut it, "--seed"),
            "--count" => cfg.count = next_parsed(&mut it, "--count"),
            "--shard" => {
                let (shard, shards) =
                    parse_shard(&next_value(&mut it, "--shard")).unwrap_or_else(|| {
                        eprintln!("--shard must be I/N with I < N (e.g. 0/4)");
                        usage()
                    });
                cfg.shard = shard;
                cfg.shards = shards;
            }
            "--jobs" => cfg.jobs = next_positive(&mut it, "--jobs"),
            "--chunk" => cfg.chunk = next_parsed(&mut it, "--chunk"),
            "--store" => cfg.store_path = Some(PathBuf::from(next_value(&mut it, "--store"))),
            "--no-store" => cfg.store_path = None,
            "--checkpoint" => {
                cfg.checkpoint_path = PathBuf::from(next_value(&mut it, "--checkpoint"));
                checkpoint_set = true;
            }
            "--resume" => cfg.resume = true,
            "--out" => out = Some(next_value(&mut it, "--out")),
            "--max-chunks" => cfg.max_chunks = Some(next_parsed(&mut it, "--max-chunks")),
            "--machine" => cfg.machine = next_machine(&mut it),
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown campaign flag {other}");
                usage();
            }
        }
    }
    if !checkpoint_set {
        cfg.checkpoint_path = PathBuf::from(default_checkpoint_name(cfg.shard, cfg.shards));
    }
    if let Some(problem) = cfg.problem() {
        eprintln!("{problem}");
        usage();
    }

    eprintln!(
        "litmus_run campaign: shard {}/{} of {} drafts (seed {}), chunk {}, {} jobs, {} machine{}{}",
        cfg.shard,
        cfg.shards,
        cfg.count,
        cfg.seed,
        cfg.chunk,
        cfg.jobs,
        cfg.machine,
        match &cfg.store_path {
            Some(p) => format!(", store {}", p.display()),
            None => ", no store".to_owned(),
        },
        if cfg.resume { " (resuming)" } else { "" },
    );

    let report = run_campaign(&cfg).unwrap_or_else(|e| die(format!("campaign failed: {e}")));
    let rendered = report.to_json();
    print!("{rendered}");
    eprintln!(
        "campaign shard {}/{}: {} processed of {} scanned, {} model failures, \
         {} disagreements, digest {:016x}{}",
        cfg.shard,
        cfg.shards,
        report.state.processed,
        report.state.scanned,
        report.state.model_failures,
        report.state.disagreements,
        report.state.digest,
        if report.complete {
            String::new()
        } else {
            format!(
                " [STOPPED at index {} — rerun with --resume]",
                report.state.next_index
            )
        },
    );
    if let Some(path) = &out {
        write_out(path, &rendered);
    }
    if !report.passed() {
        for (name, diagnosis) in &report.state.failures {
            eprintln!("FAIL {name}: {diagnosis}");
        }
        std::process::exit(1);
    }
}

fn merge_main(argv: Vec<String>) {
    let (paths, out) = files_and_flag(argv, "merge", "--out");
    let inputs: Vec<(String, String)> = paths
        .iter()
        .map(|p| {
            let text =
                std::fs::read_to_string(p).unwrap_or_else(|e| die(format!("cannot read {p}: {e}")));
            (p.clone(), text)
        })
        .collect();
    let merged = merge_reports(&inputs).unwrap_or_else(|e| die(format!("merge failed: {e}")));
    let rendered = merged.render();
    print!("{rendered}");
    if let Some(path) = &out {
        write_out(path, &rendered);
    }
    if merged.get("passed").and_then(Value::as_bool) != Some(true) {
        std::process::exit(1);
    }
}

fn compact_main(argv: Vec<String>) {
    let (paths, merge_out) = files_and_flag(argv, "compact", "--merge");
    // `Store::open` creates a missing file, which suits `--store` but
    // would turn a mistyped input into a new empty store.
    for p in &paths {
        if let Err(e) = std::fs::metadata(p) {
            die(format!("cannot open {p}: {e}"));
        }
    }
    match merge_out {
        Some(out) => {
            // Fold every input into the output store, then compact it.
            let mut target =
                Store::open(&out).unwrap_or_else(|e| die(format!("cannot open {out}: {e}")));
            for p in &paths {
                let src = Store::open(p).unwrap_or_else(|e| die(format!("cannot open {p}: {e}")));
                let added = target
                    .absorb(&src)
                    .unwrap_or_else(|e| die(format!("cannot fold {p} into {out}: {e}")));
                eprintln!("{p}: {} keys, {added} new", src.len());
            }
            let (before, after) = target
                .compact()
                .unwrap_or_else(|e| die(format!("cannot compact {out}: {e}")));
            eprintln!(
                "{out}: merged {} files, {before} records -> {after}",
                paths.len()
            );
        }
        None => {
            for p in &paths {
                let mut store =
                    Store::open(p).unwrap_or_else(|e| die(format!("cannot open {p}: {e}")));
                let recovered = store.recovered_bytes();
                let (before, after) = store
                    .compact()
                    .unwrap_or_else(|e| die(format!("cannot compact {p}: {e}")));
                eprint!("{p}: {before} records -> {after}");
                if recovered > 0 {
                    eprint!(" ({recovered} torn bytes dropped)");
                }
                eprintln!();
            }
        }
    }
}
