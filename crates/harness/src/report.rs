//! Harness reports: aggregation plus JSON, TAP, and human summaries.
//! The blocks every JSON document kind shares are serialized here, once
//! each: `CacheCounters` and `StoreCounters` (as `jsonx::Value::from`)
//! and a failure entry (`failure_json`).

use crate::jsonx::{arr, fixed, obj, Value};
use crate::store::StoreCounters;
use crate::{faults, MachineKind, TestOutcome};
use std::fmt::Write as _;
use tso_model::CacheCounters;

/// The paper every harness document names.
pub(crate) const PAPER: &str = "conf_pldi_RajaramNSE13";

/// Aggregated result of one harness run.
#[derive(Debug, Clone)]
pub struct Report {
    /// Per-test outcomes, in corpus order.
    pub outcomes: Vec<TestOutcome>,
    /// Size of the *full* corpus (before `--filter`/`--smoke` selection) —
    /// CI enforces the 550-test floor on this number.
    pub corpus_total: usize,
    /// Worker threads used.
    pub jobs: usize,
    /// Which simulated machine the differential side ran on.
    pub machine: MachineKind,
    /// Batch wall-clock in milliseconds at `jobs` workers.
    pub elapsed_ms: f64,
    /// Process-wide model-cache counters at report time: how many
    /// outcome-set queries the run issued versus how
    /// many model searches actually ran — the memoization + symmetry
    /// savings, observable from the JSON alone.
    pub model_cache: Option<CacheCounters>,
    /// Persistent verdict-store activity, when `--store` was given —
    /// including `open_error`/`save_errors`/`recovered_bytes`/
    /// `skipped_records`, so persistence degradation is visible from the
    /// top-level JSON alone.
    pub store: Option<StoreCounters>,
}

impl Report {
    /// Number of tests executed.
    pub fn selected(&self) -> usize {
        self.outcomes.len()
    }

    /// Tests whose model verdict contradicted the expectation. Crashed
    /// tests are excluded: they proved nothing either way (they fail the
    /// run through [`Report::crashed`] instead).
    pub fn model_failures(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|o| !o.model_passed && !o.crashed)
            .count()
    }

    /// Tests whose worker panicked (reported, quarantine-able, fatal to
    /// the run's exit status but not a model failure).
    pub fn crashed(&self) -> usize {
        self.outcomes.iter().filter(|o| o.crashed).count()
    }

    /// Tests with an inconclusive (budget-truncated) model answer. These
    /// pass — missing, never wrong — but the count keeps truncation
    /// visible.
    pub fn unknowns(&self) -> usize {
        self.outcomes.iter().filter(|o| o.unknown).count()
    }

    /// True when persistence ran degraded: the store failed to open or
    /// swallowed save errors.
    pub fn degraded(&self) -> bool {
        self.store.as_ref().is_some_and(StoreCounters::degraded)
    }

    /// (test, atomicity) pairs where the simulator left the model's
    /// allowed set.
    pub fn disagreements(&self) -> usize {
        self.outcomes
            .iter()
            .flat_map(|o| &o.differential)
            .filter(|d| !d.agreed)
            .count()
    }

    /// Simulator deadlocks observed.
    pub fn deadlocks(&self) -> usize {
        self.outcomes
            .iter()
            .flat_map(|o| &o.differential)
            .filter(|d| d.deadlocked)
            .count()
    }

    /// True iff every test passed both the model and differential checks.
    pub fn passed(&self) -> bool {
        self.outcomes.iter().all(TestOutcome::passed)
    }

    /// Executed tests per second at `jobs` workers.
    pub fn tests_per_sec(&self) -> f64 {
        if self.elapsed_ms <= 0.0 {
            0.0
        } else {
            self.selected() as f64 / (self.elapsed_ms / 1e3)
        }
    }

    /// One-line human summary.
    pub fn summary(&self) -> String {
        let mut s = format!(
            "litmus_run: {}/{} passed ({} model failures, {} sim disagreements, {} deadlocks) \
             in {:.1} ms on {} jobs ({:.0} tests/s)",
            self.outcomes.iter().filter(|o| o.passed()).count(),
            self.selected(),
            self.model_failures(),
            self.disagreements(),
            self.deadlocks(),
            self.elapsed_ms,
            self.jobs,
            self.tests_per_sec(),
        );
        if self.crashed() > 0 {
            let _ = write!(s, " [{} crashed]", self.crashed());
        }
        if self.unknowns() > 0 {
            let _ = write!(s, " [{} unknown: budget hit]", self.unknowns());
        }
        if self.degraded() {
            let _ = write!(s, " [store degraded]");
        }
        if self.machine != MachineKind::Small {
            let _ = write!(s, " [machine: {}]", self.machine);
        }
        if let Some(c) = &self.model_cache {
            let _ = write!(
                s,
                "; model cache: {} searches for {} queries ({} hits)",
                c.invocations,
                c.queries,
                c.hits()
            );
        }
        s
    }

    /// Total model queries issued by the reported tests (verdict + three
    /// atomicity sets each).
    pub fn model_queries(&self) -> u64 {
        self.outcomes
            .iter()
            .map(|o| u64::from(o.model_queries))
            .sum()
    }

    /// How many of [`Report::model_queries`] the memoized verdict cache
    /// answered without a search.
    pub fn model_query_hits(&self) -> u64 {
        self.outcomes
            .iter()
            .map(|o| u64::from(o.model_cache_hits))
            .sum()
    }

    /// The full report as JSON. Failures carry their diagnosis; passing
    /// tests are counted, not listed.
    pub fn to_json(&self) -> String {
        let failures = self.outcomes.iter().filter(|o| !o.passed());
        obj([
            ("experiment", "litmus_harness".into()),
            ("paper", PAPER.into()),
            ("corpus_total", self.corpus_total.into()),
            ("selected", self.selected().into()),
            ("jobs", self.jobs.into()),
            ("machine", self.machine.name().into()),
            ("elapsed_ms", fixed(self.elapsed_ms, 3)),
            ("tests_per_sec", fixed(self.tests_per_sec(), 1)),
            ("model_failures", self.model_failures().into()),
            ("differential_disagreements", self.disagreements().into()),
            ("deadlocks", self.deadlocks().into()),
            ("crashed", self.crashed().into()),
            ("unknown", self.unknowns().into()),
            ("degraded", self.degraded().into()),
            ("faults_fired", faults::fired().into()),
            ("passed", self.passed().into()),
            ("model_queries", self.model_queries().into()),
            ("model_query_hits", self.model_query_hits().into()),
            ("model_cache", self.model_cache.as_ref().into()),
            ("store", self.store.as_ref().into()),
            (
                "failures",
                arr(failures.map(|o| failure_json(&o.name, &o.diagnosis()))),
            ),
            // Per-test perf attribution: wall-clock, the stable worker id
            // that ran the test, and the model-search weight behind its
            // verdicts — enough to spot a perf regression from
            // `litmus_run` output alone.
            ("tests", arr(self.outcomes.iter().map(test_json))),
        ])
        .render()
    }

    /// The run as TAP (Test Anything Protocol) version 13.
    pub fn to_tap(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "TAP version 13");
        let _ = writeln!(s, "1..{}", self.selected());
        for (i, o) in self.outcomes.iter().enumerate() {
            if o.passed() {
                let _ = writeln!(s, "ok {} - {}", i + 1, o.name);
            } else {
                let _ = writeln!(s, "not ok {} - {} # {}", i + 1, o.name, o.diagnosis());
            }
        }
        s
    }
}

/// One entry of a report's per-test array.
fn test_json(o: &TestOutcome) -> Value {
    obj([
        ("name", o.name.as_str().into()),
        ("worker", o.worker.into()),
        ("micros", o.micros.into()),
        ("model_nodes", o.model_stats.nodes.into()),
        ("model_pruned", o.model_stats.pruned.into()),
        ("model_valid", o.model_stats.valid.into()),
        ("model_queries", o.model_queries.into()),
        ("model_cache_hits", o.model_cache_hits.into()),
    ])
}

/// One entry of a `failures` list.
pub(crate) fn failure_json(name: &str, diagnosis: &str) -> Value {
    obj([("name", name.into()), ("diagnosis", diagnosis.into())])
}

impl From<&CacheCounters> for Value {
    fn from(c: &CacheCounters) -> Value {
        obj([
            ("queries", c.queries.into()),
            ("invocations", c.invocations.into()),
            ("hits", c.hits().into()),
            ("store_hits", c.store_hits.into()),
            ("family_fills", c.family_fills.into()),
            ("entries", c.entries.into()),
        ])
    }
}

impl From<&StoreCounters> for Value {
    fn from(st: &StoreCounters) -> Value {
        obj([
            ("path", st.path.as_str().into()),
            ("degraded", st.degraded().into()),
            ("open_error", st.open_error.as_deref().into()),
            ("loads", st.loads.into()),
            ("appended", st.appended.into()),
            ("keys", st.keys.into()),
            ("recovered_bytes", st.recovered_bytes.into()),
            ("skipped_records", st.skipped_records.into()),
            ("save_errors", st.save_errors.into()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jsonx::parse;
    use crate::run_batch;
    use litmus::classic;

    fn small_report() -> Report {
        let tests = vec![classic::sb(), classic::mp()];
        let (outcomes, elapsed) = run_batch(&tests, 2);
        Report {
            outcomes,
            corpus_total: 2,
            jobs: 2,
            machine: MachineKind::Small,
            elapsed_ms: elapsed.as_secs_f64() * 1e3,
            model_cache: Some(tso_model::cache::counters()),
            store: None,
        }
    }

    #[test]
    fn json_has_the_contracted_fields() {
        let v = parse(&small_report().to_json()).unwrap();
        for (key, want) in [
            ("experiment", Value::from("litmus_harness")),
            ("machine", "small".into()),
            ("corpus_total", 2u64.into()),
            ("selected", 2u64.into()),
            ("jobs", 2u64.into()),
            ("differential_disagreements", 0u64.into()),
            ("crashed", 0u64.into()),
            ("unknown", 0u64.into()),
            ("passed", true.into()),
            ("degraded", false.into()),
            ("store", Value::Null),
            ("failures", arr(Vec::<Value>::new())),
        ] {
            assert_eq!(v.get(key), Some(&want), "{key}");
        }
        let num = |v: &Value, key: &str| v.get(key).and_then(Value::as_u64);
        for key in ["model_queries", "model_query_hits", "faults_fired"] {
            assert!(num(&v, key).is_some(), "missing {key}");
        }
        assert!(num(v.get("model_cache").unwrap(), "invocations").is_some());
        assert!(num(v.get("model_cache").unwrap(), "family_fills").is_some());
        for t in v.get("tests").and_then(Value::as_arr).unwrap() {
            assert!(num(t, "worker").is_some() && num(t, "model_nodes").is_some());
        }
    }

    #[test]
    fn per_test_entries_cover_every_outcome() {
        let r = small_report();
        let v = parse(&r.to_json()).unwrap();
        let tests = v.get("tests").and_then(Value::as_arr).unwrap();
        let names: Vec<_> = tests.iter().map(|t| t.get("name")).collect();
        assert_eq!(names, [Some(&"SB".into()), Some(&"MP".into())]);
        assert_eq!(r.model_queries(), 8, "2 tests x (verdict + 3 sets)");
        assert!(r.model_query_hits() <= r.model_queries());
    }

    #[test]
    fn tap_output_is_well_formed() {
        let r = small_report();
        let tap = r.to_tap();
        assert!(tap.starts_with("TAP version 13\n1..2\n"));
        assert!(tap.contains("ok 1 - SB"));
        assert!(tap.contains("ok 2 - MP"));
        assert!(!tap.contains("not ok"));
    }

    #[test]
    fn failures_show_up_in_json_and_tap() {
        let mut broken = classic::sb();
        broken.expect = litmus::Expect::Forbidden;
        let (outcomes, elapsed) = run_batch(&[broken], 1);
        let r = Report {
            outcomes,
            corpus_total: 1,
            jobs: 1,
            machine: MachineKind::Paper,
            elapsed_ms: elapsed.as_secs_f64() * 1e3,
            model_cache: None,
            store: None,
        };
        assert!(!r.passed());
        assert_eq!(r.model_failures(), 1);
        assert!(r
            .to_tap()
            .contains("not ok 1 - SB # model: expected forbidden"));
        let v = parse(&r.to_json()).unwrap();
        assert_eq!(v.get("passed"), Some(&false.into()));
        assert_eq!(v.get("machine"), Some(&"paper".into()));
        assert_eq!(v.get("model_cache"), Some(&Value::Null));
        let failure = failure_json("SB", &r.outcomes[0].diagnosis());
        assert_eq!(v.get("failures"), Some(&arr([failure])));
        assert!(r.outcomes[0]
            .diagnosis()
            .starts_with("model: expected forbidden"));
    }
}
