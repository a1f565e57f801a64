//! CLI gates: the sharded-campaign and smoke-report checks, run through
//! the built `litmus_run` at the shapes of a real CI run (600 drafts in
//! 2 shards of 128-draft chunks; the `--smoke` subset on three machines).
//!
//! The in-process suites (`campaign_store.rs`, `campaign::tests`) test
//! the library; these test what a user of the binary sees: exit codes,
//! the files `--out` writes, and their JSON fields. Each test runs its
//! command lines in a fresh directory, the way a user at a shell would.

use harness::jsonx::{self, Value};
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// A fresh, empty working directory for one test.
fn workdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cli-gates-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// `litmus_run CMDLINE` (split on whitespace), run in `dir`.
fn litmus_run(dir: &Path, cmdline: &str) -> Output {
    Command::new(env!("CARGO_BIN_EXE_litmus_run"))
        .current_dir(dir)
        .args(cmdline.split_whitespace())
        .output()
        .unwrap()
}

/// `litmus_run CMDLINE`, which must exit 0.
fn run_ok(dir: &Path, cmdline: &str) {
    let out = litmus_run(dir, cmdline);
    assert!(
        out.status.success(),
        "litmus_run {cmdline} exited {:?}\n{}",
        out.status.code(),
        String::from_utf8_lossy(&out.stderr)
    );
}

/// The JSON document at `dir/file`.
fn read(dir: &Path, file: &str) -> Value {
    let text = std::fs::read_to_string(dir.join(file)).unwrap();
    jsonx::parse(&text).unwrap_or_else(|e| panic!("{file}: {e}"))
}

/// The member of `v` at the dotted `path` (`"store.appended"`).
fn at<'a>(v: &'a Value, path: &str) -> &'a Value {
    path.split('.').fold(v, |v, key| {
        v.get(key).unwrap_or_else(|| panic!("report has no {path}"))
    })
}

fn num(v: &Value, path: &str) -> u64 {
    at(v, path)
        .as_u64()
        .unwrap_or_else(|| panic!("{path} is not a count"))
}

fn flag(v: &Value, path: &str) -> bool {
    at(v, path)
        .as_bool()
        .unwrap_or_else(|| panic!("{path} is not a bool"))
}

/// A 600-draft campaign in two shards: cold runs, merge, a warm rerun of
/// shard 0, a kill after two chunks with a resume, and the store folds.
#[test]
fn a_sharded_campaign_merges_reruns_warm_resumes_and_compacts() {
    let dir = workdir("campaign");
    let campaign = |shard: u32, extra: &str, out: &str| {
        run_ok(
            &dir,
            &format!(
                "campaign --count 600 --chunk 128 --jobs 2 --shard {shard}/2 {extra} \
                 --store campaign.store --checkpoint ck{shard}.json --out {out}"
            ),
        );
        read(&dir, out)
    };

    // Cold: each shard pays its model searches and fills its own store.
    let cold = campaign(0, "", "CAMPAIGN_shard0.json");
    let shard1 = campaign(1, "", "CAMPAIGN_shard1.json");
    for shard in [&cold, &shard1] {
        assert!(flag(shard, "complete"));
        assert_eq!(num(shard, "scanned"), 600);
        assert!(
            num(shard, "store.appended") > 0,
            "a cold shard fills its store"
        );
    }

    run_ok(
        &dir,
        "merge CAMPAIGN_shard0.json CAMPAIGN_shard1.json --out CAMPAIGN_merged.json",
    );
    let merged = read(&dir, "CAMPAIGN_merged.json");
    let experiment = at(&merged, "experiment").as_str();
    assert_eq!(experiment, Some("litmus_campaign_merged"));
    assert_eq!((num(&merged, "shards"), num(&merged, "count")), (2, 600));
    assert_eq!(
        num(&merged, "processed"),
        600,
        "the shard partition is disjoint and complete"
    );
    for key in ["model_failures", "differential_disagreements", "deadlocks"] {
        assert_eq!(num(&merged, key), 0, "{key}");
    }
    assert!(flag(&merged, "passed"));
    assert_eq!(at(&merged, "failures"), &Value::Arr(Vec::new()));
    assert_eq!(
        num(&merged, "digest"),
        num(&cold, "digest") ^ num(&shard1, "digest"),
        "the merged digest XOR-folds the shard digests"
    );

    // Warm: shard 0 again from a fresh checkpoint; its store answers
    // every model query.
    std::fs::remove_file(dir.join("ck0.json")).unwrap();
    let warm = campaign(0, "", "CAMPAIGN_shard0_warm.json");
    assert_eq!(
        num(&warm, "model_cache.invocations"),
        0,
        "a warm store answers every model query"
    );
    assert!(num(&warm, "model_cache.store_hits") > 0);
    assert_eq!(num(&warm, "store.appended"), 0, "nothing new to persist");
    assert!(num(&warm, "store.loads") > 0);
    assert_eq!(num(&warm, "digest"), num(&cold, "digest"));

    // Kill after two chunks, resume: the cold shard's results exactly.
    std::fs::remove_file(dir.join("ck0.json")).unwrap();
    let killed = campaign(0, "--max-chunks 2", "CAMPAIGN_killed.json");
    assert!(!flag(&killed, "complete"));
    assert_eq!(num(&killed, "next_index"), 256);
    let resumed = campaign(0, "--resume", "CAMPAIGN_resumed.json");
    assert!(flag(&resumed, "complete"));
    for key in [
        "digest",
        "processed",
        "scanned",
        "model_failures",
        "differential_disagreements",
        "deadlocks",
    ] {
        assert_eq!(
            num(&resumed, key),
            num(&cold, key),
            "resume diverged on {key}"
        );
    }

    // Fold the shard stores into the base store, then compact it alone.
    run_ok(
        &dir,
        "compact campaign.store.0-of-2 campaign.store.1-of-2 --merge campaign.store",
    );
    run_ok(&dir, "compact campaign.store");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The `--smoke` differential run passes on the small, the full Table 2
/// and the 128-core machine; the small machine's report carries the
/// memoization, atomicity-family and per-test accounting.
#[test]
fn smoke_reports_pass_on_the_small_paper_and_128_core_machines() {
    let dir = workdir("smoke");
    for (machine, out) in [
        ("", "REPORT_litmus.json"),
        ("--machine paper", "REPORT_litmus_paper.json"),
        ("--machine 128", "REPORT_litmus_128.json"),
    ] {
        run_ok(
            &dir,
            &format!("--smoke --jobs 2 {machine} --format json --out {out}"),
        );
        assert!(flag(&read(&dir, out), "passed"), "{out}");
    }

    let d = read(&dir, "REPORT_litmus.json");
    assert_eq!(at(&d, "experiment").as_str(), Some("litmus_harness"));
    assert!(num(&d, "corpus_total") >= 550, "the corpus shrank");
    let selected = num(&d, "selected");
    assert!(selected >= 100, "smoke subset too small: {selected}");
    for key in ["model_failures", "differential_disagreements", "deadlocks"] {
        assert_eq!(num(&d, key), 0, "{key}");
    }
    assert_eq!(num(&d, "jobs"), 2);

    // Memoization: the symmetry + verdict cache cuts model searches well
    // below the queries; each test asks for a verdict + three atomicity sets.
    let (queries, invocations) = (
        num(&d, "model_cache.queries"),
        num(&d, "model_cache.invocations"),
    );
    assert!(
        0 < invocations && invocations < queries,
        "memoization ineffective: {invocations} searches for {queries} queries"
    );
    assert_eq!(queries, invocations + num(&d, "model_cache.hits"));
    assert_eq!(
        num(&d, "model_cache.store_hits"),
        0,
        "no verdict store is attached"
    );
    assert_eq!(num(&d, "model_queries"), 4 * selected);

    // Atomicity families: a fresh search commits its uniform rewrites,
    // so their later queries hit.
    assert!(
        num(&d, "model_cache.family_fills") > 0,
        "no search answered its atomicity family"
    );

    // Per-test attribution: one entry per test, each on a real worker.
    let tests = at(&d, "tests").as_arr().unwrap();
    assert_eq!(tests.len() as u64, selected);
    for t in tests {
        assert!(num(t, "worker") < 2, "worker outside --jobs 2");
        assert_eq!(num(t, "model_queries"), 4);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A budget that runs out makes verdicts go missing, never wrong: the
/// truncated checks report `unknown`, and nothing fails or disagrees.
#[test]
fn a_budgeted_smoke_run_reports_unknowns_and_no_failures() {
    let dir = workdir("budget");
    run_ok(
        &dir,
        "--smoke --jobs 1 --budget-nodes 1 --format json --out REPORT_litmus.json",
    );
    let d = read(&dir, "REPORT_litmus.json");
    assert!(flag(&d, "passed"));
    assert!(num(&d, "unknown") > 0, "a 1-node budget must run out");
    for key in ["model_failures", "differential_disagreements", "deadlocks"] {
        assert_eq!(num(&d, key), 0, "{key}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn malformed_command_lines_are_usage_errors() {
    let dir = workdir("usage");
    for cmdline in [
        "--smoke --jobs 0 --format json",
        "--smoke --jobs 1 --budget-nodes 0",
        "--smoke --jobs 1 --budget-ms 0",
        "--filter no-such-test --jobs 1",
        "campaign --jobs 0",
        "campaign --count 0 --no-store",
        "campaign --shard 2/2",
        "campaign --chunk 0",
        "campaign --max-chunks 0",
        "--format xml",
        "--no-such-flag",
    ] {
        let out = litmus_run(&dir, cmdline);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{cmdline}");
        assert!(
            stderr.contains("usage: litmus_run"),
            "{cmdline} prints usage"
        );
        if cmdline.starts_with("--filter") {
            assert!(
                stderr.contains("no-such-test"),
                "{cmdline} names the filter"
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn merge_refuses_a_campaign_of_no_draft() {
    // A complete shard report of a count-0 campaign checked nothing, so
    // its merge exits 2 like `campaign --count 0` does.
    let dir = workdir("merge-zero");
    let zero = r#"{"experiment": "litmus_campaign", "seed": 1, "count": 0, "shard": 0,
        "shards": 1, "machine": "small", "complete": true, "scanned": 0, "processed": 0,
        "model_failures": 0, "differential_disagreements": 0, "deadlocks": 0,
        "crashed": 0, "digest": 0, "failures": []}"#;
    std::fs::write(dir.join("zero.json"), zero).unwrap();
    let out = litmus_run(&dir, "merge zero.json");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("merge failed"), "{stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn compact_refuses_missing_inputs_and_creates_no_file() {
    let dir = workdir("compact-missing");
    for cmdline in [
        "compact missing.store",
        "compact missing.store --merge out.store",
    ] {
        let out = litmus_run(&dir, cmdline);
        assert_eq!(out.status.code(), Some(2), "{cmdline}");
        assert!(
            String::from_utf8_lossy(&out.stderr).contains("cannot open missing.store"),
            "{cmdline} names the missing input"
        );
        let left: Vec<_> = std::fs::read_dir(&dir).unwrap().collect();
        assert!(left.is_empty(), "{cmdline} created {left:?}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
