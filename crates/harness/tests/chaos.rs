//! Chaos suite: deterministic fault injection against the harness's
//! robustness seams. The invariant under test everywhere is the store's
//! contract writ large — **verdicts can go missing, never wrong**:
//!
//! * a worker panic costs exactly the panicking test (`crashed`), never
//!   the batch, the pool, or another test's verdict;
//! * a campaign quarantines crashers in its checkpoint and a resume
//!   skips them instead of dying on them again;
//! * injected store I/O errors are swallowed and counted, and the run's
//!   aggregates stay bit-identical to a fault-free reference;
//! * a store that cannot open degrades the run to store-less, flagged;
//! * a kill/resume loop under random faults (subprocess) converges to
//!   the exact digest of an uninterrupted clean run.
//!
//! Every test manipulates process-global state (the fault registry, the
//! model cache, the installed verdict store), so they all serialize on
//! one mutex.

use harness::campaign::{run_campaign, write_checkpoint, CampaignConfig, CampaignState};
use harness::faults::{self, FaultAction, PlannedFault};
use harness::jsonx::{self, Value};
use harness::run_batch;
use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard, OnceLock};

fn lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    match LOCK.get_or_init(Mutex::default).lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("chaos-{}-{name}", std::process::id()))
}

fn cfg(name: &str, count: u64) -> CampaignConfig {
    let mut cfg = CampaignConfig::new(4242, count);
    cfg.jobs = 1; // deterministic fault-point arrival order
    cfg.chunk = 4;
    cfg.checkpoint_path = tmp(&format!("{name}.checkpoint.json"));
    cfg.store_path = None;
    cfg
}

fn cleanup(cfg: &CampaignConfig) {
    let _ = std::fs::remove_file(&cfg.checkpoint_path);
    if let Some(p) = &cfg.store_path {
        let _ = std::fs::remove_file(p);
    }
}

fn plan(entries: &[(&str, u64, FaultAction)]) -> Vec<PlannedFault> {
    entries
        .iter()
        .map(|&(point, arrival, action)| PlannedFault {
            point: point.to_owned(),
            arrival,
            action,
        })
        .collect()
}

#[test]
fn a_planned_panic_crashes_one_test_and_spares_the_batch() {
    let _guard = lock();
    let tests = vec![
        litmus::classic::sb(),
        litmus::classic::mp(),
        litmus::classic::lb(),
    ];
    faults::install_plan(plan(&[("harness.test", 1, FaultAction::Panic)]));
    let (outcomes, _) = run_batch(&tests, 1);
    faults::clear();

    assert_eq!(outcomes.len(), 3, "every test produced an outcome");
    assert!(outcomes[0].passed(), "the test before the panic is fine");
    assert!(outcomes[1].crashed, "the planned panic became `crashed`");
    assert!(
        !outcomes[1].passed(),
        "a crashed test never counts as a pass"
    );
    assert!(
        outcomes[1].diagnosis().starts_with("crashed:"),
        "diagnosis names the crash: {}",
        outcomes[1].diagnosis()
    );
    assert!(
        outcomes[2].passed(),
        "the worker was reused after the panic: the next test still ran"
    );
}

#[test]
fn a_campaign_records_crashers_in_state_and_checkpoint() {
    let _guard = lock();
    let cfg = cfg("crash-record", 8);
    cleanup(&cfg);

    tso_model::cache::clear();
    faults::install_plan(plan(&[("harness.test", 2, FaultAction::Panic)]));
    let report = run_campaign(&cfg).unwrap();
    faults::clear();

    assert!(report.complete, "a panic never aborts the campaign");
    assert_eq!(report.state.crashed, 1);
    assert_eq!(
        report.state.processed + report.state.crashed,
        8,
        "every draft is accounted for: processed or crashed, never lost"
    );
    assert_eq!(
        report.state.quarantine.iter().copied().collect::<Vec<_>>(),
        vec![2],
        "the third draft (arrival 2) is the quarantined one"
    );
    assert_eq!(report.state.disagreements, 0);
    assert!(
        report
            .state
            .failures
            .iter()
            .any(|(_, d)| d.starts_with("crashed:")),
        "the crash is surfaced as a failure"
    );
    assert!(!report.passed(), "a crashed test fails the run");

    let text = std::fs::read_to_string(&cfg.checkpoint_path).unwrap();
    let checkpoint = jsonx::parse(&text).unwrap();
    assert_eq!(
        checkpoint.get("quarantine"),
        Some(&Value::Arr(vec![2u64.into()])),
        "quarantine persists in the checkpoint: {text}"
    );
    assert_eq!(checkpoint.get("crashed").and_then(Value::as_u64), Some(1));
    cleanup(&cfg);
}

#[test]
fn a_resumed_campaign_skips_quarantined_drafts() {
    let _guard = lock();
    let mut cfg = cfg("quarantine-skip", 8);
    cleanup(&cfg);

    // A checkpoint at index 0 with draft 2 quarantined: the shape left
    // behind when a crasher was recorded but its chunk has to replay.
    let state = CampaignState {
        crashed: 1,
        quarantine: [2].into_iter().collect(),
        ..Default::default()
    };
    write_checkpoint(&cfg.checkpoint_path, &cfg, &state).unwrap();

    cfg.resume = true;
    tso_model::cache::clear();
    let report = run_campaign(&cfg).unwrap();

    assert!(report.complete);
    assert_eq!(
        report.state.processed, 7,
        "the quarantined draft was skipped, not re-run"
    );
    assert_eq!(report.state.crashed, 1, "the crash count carries over");
    assert_eq!(report.state.scanned, 8, "skipping still scans the index");
    assert_eq!(report.state.disagreements, 0);
    cleanup(&cfg);
}

#[test]
fn injected_store_errors_are_counted_and_never_change_verdicts() {
    let _guard = lock();

    // Fault-free reference: same campaign, no store at all.
    let reference_cfg = cfg("store-chaos-ref", 16);
    cleanup(&reference_cfg);
    tso_model::cache::clear();
    let reference = run_campaign(&reference_cfg).unwrap();
    assert!(reference.passed());
    cleanup(&reference_cfg);

    // Faulted run: the first three verdict appends fail three different
    // ways. Persistence loses records; the run must not notice.
    let mut chaos_cfg = cfg("store-chaos", 16);
    chaos_cfg.store_path = Some(tmp("store-chaos.store"));
    cleanup(&chaos_cfg);
    tso_model::cache::clear();
    faults::install_plan(plan(&[
        ("store.append.write", 0, FaultAction::IoError),
        ("store.append.write", 1, FaultAction::NoSpace),
        ("store.append.write", 2, FaultAction::ShortWrite),
    ]));
    let chaos = run_campaign(&chaos_cfg).unwrap();
    faults::clear();

    assert_eq!(
        chaos.state, reference.state,
        "store faults never leak into verdicts, digest, or aggregates"
    );
    let counters = chaos.store.as_ref().expect("store configured");
    assert!(
        counters.save_errors >= 3,
        "the injected append failures were counted: {}",
        counters.save_errors
    );
    assert!(counters.degraded(), "save errors flag the run as degraded");
    assert!(faults::fired() >= 3, "the planned faults actually fired");

    // The survivors are clean: the torn short-write was rolled back, so
    // the file reopens without recovery and a warm rerun using it still
    // reproduces the reference run exactly.
    let store_file = chaos_cfg.store_path.clone().unwrap();
    let reopened = harness::store::Store::open(&store_file).unwrap();
    assert_eq!(
        reopened.recovered_bytes(),
        0,
        "failed appends roll back to a record boundary"
    );
    drop(reopened);

    tso_model::cache::clear();
    let _ = std::fs::remove_file(&chaos_cfg.checkpoint_path);
    let warm = run_campaign(&chaos_cfg).unwrap();
    assert_eq!(
        warm.state, reference.state,
        "a store that lost records still resumes to the fault-free answers"
    );
    assert_eq!(warm.store.as_ref().unwrap().save_errors, 0);
    cleanup(&chaos_cfg);
}

#[test]
fn an_unopenable_store_degrades_the_run_instead_of_failing_it() {
    let _guard = lock();
    let mut cfg = cfg("degraded", 8);
    cfg.store_path = Some(tmp("no-such-dir").join("verdicts.store"));
    cleanup(&cfg);

    tso_model::cache::clear();
    let report = run_campaign(&cfg).unwrap();

    assert!(report.complete, "the campaign ran store-less to completion");
    assert!(report.passed(), "verdicts are unaffected");
    let counters = report.store.as_ref().expect("the failure is reported");
    assert!(
        counters.open_error.is_some(),
        "the open error is carried in the report"
    );
    assert!(counters.degraded());
    assert!(report.degraded());
    assert_eq!(counters.appended, 0);
    cleanup(&cfg);
}

/// The end-to-end chaos loop, in subprocesses so real kills are safe:
/// a campaign under random faults (checkpoint I/O errors and post-commit
/// kills) is resumed until it completes, and its final digest must equal
/// an uninterrupted clean run's. Kills land only after a checkpoint
/// commit, so every attempt durably banks progress and the loop
/// terminates.
#[test]
fn kill_resume_under_random_faults_converges_to_the_clean_digest() {
    let _guard = lock();
    use std::process::Command;
    let bin = env!("CARGO_BIN_EXE_litmus_run");
    let common = [
        "campaign",
        "--count",
        "30",
        "--chunk",
        "5",
        "--seed",
        "42",
        "--jobs",
        "2",
        "--no-store",
    ];

    fn report_of(stdout: &[u8]) -> Value {
        jsonx::parse(&String::from_utf8_lossy(stdout)).expect("stdout is the campaign report")
    }
    let number = |report: &Value, key: &str| report.get(key).and_then(Value::as_u64);

    // Clean control: no faults, straight through.
    let control_ckpt = tmp("control.checkpoint.json");
    let _ = std::fs::remove_file(&control_ckpt);
    let control = Command::new(bin)
        .args(common)
        .args(["--checkpoint", control_ckpt.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(control.status.success(), "clean control run passes");
    let control = report_of(&control.stdout);
    assert_eq!(
        control.get("degraded").and_then(Value::as_bool),
        Some(false),
        "a clean run is not degraded"
    );
    assert_eq!(number(&control, "crashed"), Some(0));
    let control_digest = number(&control, "digest").expect("campaign report has a digest");
    let _ = std::fs::remove_file(&control_ckpt);

    // Chaos loop: resume until the faulted campaign completes.
    let chaos_ckpt = tmp("chaos.checkpoint.json");
    let _ = std::fs::remove_file(&chaos_ckpt);
    let mut kills = 0;
    let mut final_report = None;
    for attempt in 0..40 {
        let mut cmd = Command::new(bin);
        cmd.args(common)
            .args(["--checkpoint", chaos_ckpt.to_str().unwrap()])
            .args(["--faults", "3:0.4"]);
        if attempt > 0 {
            cmd.arg("--resume");
        }
        let out = cmd.output().unwrap();
        match out.status.code() {
            Some(0) => {
                final_report = Some(report_of(&out.stdout));
                break;
            }
            Some(137) => kills += 1,
            code => panic!(
                "faulted campaign may be killed, never wrong: exit {code:?}\n{}",
                String::from_utf8_lossy(&out.stderr)
            ),
        }
    }
    let final_report = final_report.expect("the kill/resume loop converges");
    assert!(kills >= 1, "the fault seed exercised at least one kill");
    assert_eq!(
        number(&final_report, "digest"),
        Some(control_digest),
        "kill/resume under faults reproduces the clean digest exactly"
    );
    assert_eq!(number(&final_report, "crashed"), Some(0));
    let _ = std::fs::remove_file(&chaos_ckpt);
}
