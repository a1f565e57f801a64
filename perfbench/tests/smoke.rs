//! The benchmark at tiny sizes: every workload runs correct in both modes
//! and prints exactly the metrics `BENCHMARK.json` lists; spans nest and
//! their self times add up; back-to-back cold passes do the same work.

use perfbench::campaign::{self, Mode, Spec};
use perfbench::spans;
use perfbench::workload::{run, Outcome, Run, Sizes, Workload};
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::Mutex;

/// The model caches, installed stores and span recorder are process-wide,
/// so the tests of this file take turns.
static SERIAL: Mutex<()> = Mutex::new(());

fn scratch(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn tiny(workload: Workload, trace: bool) -> Outcome {
    let r = Run {
        workload,
        seed: 3,
        seconds: 0.01,
        trace,
        sizes: Sizes::TINY,
        dir: scratch(&format!("{}-{trace}", workload.name())),
    };
    let out = run(&r).expect("tiny run");
    assert!(
        out.correct(),
        "{} trace={trace}: {:?}",
        workload.name(),
        out.errors
    );
    assert!(out.attempted > 0);
    out
}

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn listed(section: &str) -> Vec<(String, String)> {
    let text = include_str!("../../BENCHMARK.json");
    let start = text
        .find(&format!("\"{section}\": ["))
        .expect("section present");
    let body = &text[start..start + text[start..].find(']').expect("section closes")];
    let field = |entry: &str, key: &str| {
        let at = entry.find(&format!("\"{key}\": \"")).expect("key present") + key.len() + 5;
        entry[at..at + entry[at..].find('"').expect("value closes")].to_owned()
    };
    body.split('{')
        .skip(1)
        .map(|entry| (field(entry, "name"), field(entry, "unit")))
        .collect()
}

fn emitted(out: &Outcome) -> Vec<(String, String)> {
    out.metrics
        .iter()
        .map(|m| (m.name.clone(), m.unit.to_owned()))
        .collect()
}

#[test]
fn every_workload_emits_exactly_the_listed_metrics() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let end_to_end = listed("end_to_end");
    let per_layer = listed("per_layer");
    assert!(end_to_end.iter().any(|(n, u)| n == "setup_s" && u == "s"));
    for w in Workload::ALL {
        let out = tiny(w, false);
        assert_eq!(emitted(&out), end_to_end, "{}", w.name());
        assert!(out.metrics.iter().all(|m| m.value > 0.0), "{}", w.name());
        let out = tiny(w, true);
        assert_eq!(emitted(&out), per_layer, "{} traced", w.name());
    }
}

#[test]
fn spans_nest_and_self_times_partition_busy_time() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    for w in [Workload::Fig11Paper, Workload::CampaignCold] {
        let out = tiny(w, true);
        let s = &out.spans;
        assert!(!s.is_empty());
        spans::check_nesting(s).expect("spans nest");
        let b = spans::breakdown(s);
        // Self times partition each thread's top-level spans: their sum is
        // the time of the spans with no same-thread parent.
        let by_id: HashMap<u64, &spans::Span> = s.iter().map(|x| (x.id, x)).collect();
        let top_ns: u64 = s
            .iter()
            .filter(|x| !matches!(by_id.get(&x.parent), Some(p) if p.thread == x.thread))
            .map(|x| x.dur_ns())
            .sum();
        let all_self: f64 = b.self_s.values().sum();
        assert!(
            (all_self - top_ns as f64 * 1e-9).abs() < 1e-6,
            "{}",
            w.name()
        );
        // Layer self times plus `other_s` are the traced busy time.
        let layers: f64 = spans::LAYERS.iter().map(|l| b.self_of(l)).sum();
        assert!((layers + b.other_s() - b.busy_s).abs() < 1e-9);
        assert!(b.busy_s > 0.0 && b.other_s() >= 0.0);
        let layer_names: Vec<&str> = b.self_s.keys().copied().collect();
        let expected: &[&str] = match w {
            Workload::Fig11Paper => &["sim.run", "workloads.tracegen"],
            _ => &[
                "litmus.draft",
                "model.canon",
                "sim.run",
                "campaign.checkpoint",
            ],
        };
        for name in expected {
            assert!(layer_names.contains(name), "{} lacks {name}", w.name());
        }
    }
}

#[test]
fn back_to_back_cold_passes_report_the_same_searches() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let spec = Spec {
        seed: 5,
        count: 40,
        chunk: 10,
        jobs: 1,
        dir: scratch("back-to-back"),
    };
    let store = spec.cold_store();
    let a = campaign::loop_pass(&spec, &store, true, Mode::Layered).expect("first pass");
    let b = campaign::loop_pass(&spec, &store, true, Mode::Layered).expect("second pass");
    assert!(a.tally.searches > 0);
    assert_eq!(a.tally.searches, b.tally.searches);
    assert_eq!(a.tally.replays, b.tally.replays);
    assert_eq!(a.cache.invocations, b.cache.invocations);
    assert_eq!(a.state, b.state);
    let (report, _) = campaign::entry_pass(&spec, &store, true).expect("entry pass");
    assert_eq!(report.model_cache.invocations, a.cache.invocations);
    assert_eq!(report.state.digest, a.state.digest);
}
