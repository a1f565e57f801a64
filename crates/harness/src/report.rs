//! Harness reports: aggregation plus JSON, TAP, and human summaries.

use crate::campaign::StoreCounters;
use crate::{faults, MachineKind, TestOutcome};
use std::fmt::Write as _;
use tso_model::prefix::PrefixCounters;
use tso_model::CacheCounters;

/// Aggregated result of one harness run.
#[derive(Debug, Clone)]
pub struct Report {
    /// Per-test outcomes, in corpus order.
    pub outcomes: Vec<TestOutcome>,
    /// Size of the *full* corpus (before `--filter`/`--smoke` selection) —
    /// CI enforces the 500-test floor on this number.
    pub corpus_total: usize,
    /// Worker threads used.
    pub jobs: usize,
    /// Which simulated machine the differential side ran on.
    pub machine: MachineKind,
    /// Batch wall-clock in milliseconds at `jobs` workers.
    pub elapsed_ms: f64,
    /// Wall-clock of the same selection at one worker, when measured.
    pub baseline_jobs1_ms: Option<f64>,
    /// Process-wide model-cache counters at report time: how many
    /// outcome-set queries the run (and any warm-up) issued versus how
    /// many model searches actually ran — the memoization + symmetry
    /// savings, observable from the JSON alone.
    pub model_cache: Option<CacheCounters>,
    /// Process-wide prefix-certificate counters at report time: how many
    /// verdict-cache misses were answered by replaying an atomicity
    /// sibling's pruned search, and how many decision nodes that skipped.
    pub prefix_cache: Option<PrefixCounters>,
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

    /// Measured speedup of `jobs` workers over one worker, when a baseline
    /// was run.
    pub fn speedup_vs_jobs1(&self) -> Option<f64> {
        self.baseline_jobs1_ms
            .map(|b| b / self.elapsed_ms.max(1e-6))
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
        if let Some(sp) = self.speedup_vs_jobs1() {
            let _ = write!(s, "; {sp:.2}x vs --jobs 1");
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

    /// Verdict-cache misses across the reported tests that a prefix
    /// certificate replay answered instead of a fresh search.
    pub fn prefix_hits(&self) -> u64 {
        self.outcomes.iter().map(|o| u64::from(o.prefix_hits)).sum()
    }

    /// The full report as JSON (hand-rolled — the build is hermetic, no
    /// serde). Failures carry their diagnosis; passing tests are counted,
    /// not listed.
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "{{");
        let _ = writeln!(s, "  \"experiment\": \"litmus_harness\",");
        let _ = writeln!(s, "  \"paper\": \"conf_pldi_RajaramNSE13\",");
        let _ = writeln!(s, "  \"corpus_total\": {},", self.corpus_total);
        let _ = writeln!(s, "  \"selected\": {},", self.selected());
        let _ = writeln!(s, "  \"jobs\": {},", self.jobs);
        let _ = writeln!(s, "  \"machine\": \"{}\",", self.machine);
        let _ = writeln!(s, "  \"elapsed_ms\": {:.3},", self.elapsed_ms);
        let _ = writeln!(s, "  \"tests_per_sec\": {:.1},", self.tests_per_sec());
        match (self.baseline_jobs1_ms, self.speedup_vs_jobs1()) {
            (Some(b), Some(sp)) => {
                let _ = writeln!(s, "  \"baseline_jobs1_ms\": {b:.3},");
                let _ = writeln!(s, "  \"speedup_vs_jobs1\": {sp:.3},");
            }
            _ => {
                let _ = writeln!(s, "  \"baseline_jobs1_ms\": null,");
                let _ = writeln!(s, "  \"speedup_vs_jobs1\": null,");
            }
        }
        let _ = writeln!(s, "  \"model_failures\": {},", self.model_failures());
        let _ = writeln!(
            s,
            "  \"differential_disagreements\": {},",
            self.disagreements()
        );
        let _ = writeln!(s, "  \"deadlocks\": {},", self.deadlocks());
        let _ = writeln!(s, "  \"crashed\": {},", self.crashed());
        let _ = writeln!(s, "  \"unknown\": {},", self.unknowns());
        let _ = writeln!(s, "  \"degraded\": {},", self.degraded());
        let _ = writeln!(s, "  \"faults_fired\": {},", faults::fired());
        let _ = writeln!(s, "  \"passed\": {},", self.passed());
        let _ = writeln!(s, "  \"model_queries\": {},", self.model_queries());
        let _ = writeln!(s, "  \"model_query_hits\": {},", self.model_query_hits());
        let _ = writeln!(s, "  \"prefix_hits\": {},", self.prefix_hits());
        match &self.model_cache {
            Some(c) => {
                let _ = writeln!(s, "  \"model_cache\": {{");
                let _ = writeln!(s, "    \"queries\": {},", c.queries);
                let _ = writeln!(s, "    \"invocations\": {},", c.invocations);
                let _ = writeln!(s, "    \"hits\": {},", c.hits());
                let _ = writeln!(s, "    \"store_hits\": {},", c.store_hits);
                let _ = writeln!(s, "    \"entries\": {}", c.entries);
                let _ = writeln!(s, "  }},");
            }
            None => {
                let _ = writeln!(s, "  \"model_cache\": null,");
            }
        }
        match &self.prefix_cache {
            Some(p) => {
                let _ = writeln!(s, "  \"prefix_cache\": {{");
                let _ = writeln!(s, "    \"queries\": {},", p.queries);
                let _ = writeln!(s, "    \"hits\": {},", p.hits);
                let _ = writeln!(s, "    \"store_hits\": {},", p.store_hits);
                let _ = writeln!(s, "    \"stored\": {},", p.stored);
                let _ = writeln!(s, "    \"nodes_saved\": {},", p.nodes_saved);
                let _ = writeln!(s, "    \"replayed_leaves\": {},", p.replayed_leaves);
                let _ = writeln!(s, "    \"entries\": {}", p.entries);
                let _ = writeln!(s, "  }},");
            }
            None => {
                let _ = writeln!(s, "  \"prefix_cache\": null,");
            }
        }
        match &self.store {
            Some(st) => {
                let _ = writeln!(s, "  \"store\": {{");
                let _ = writeln!(s, "    \"path\": \"{}\",", json_escape(&st.path));
                let _ = writeln!(s, "    \"degraded\": {},", st.degraded());
                match &st.open_error {
                    Some(e) => {
                        let _ = writeln!(s, "    \"open_error\": \"{}\",", json_escape(e));
                    }
                    None => {
                        let _ = writeln!(s, "    \"open_error\": null,");
                    }
                }
                let _ = writeln!(s, "    \"loads\": {},", st.loads);
                let _ = writeln!(s, "    \"cert_loads\": {},", st.cert_loads);
                let _ = writeln!(s, "    \"appended\": {},", st.appended);
                let _ = writeln!(s, "    \"keys\": {},", st.keys);
                let _ = writeln!(s, "    \"certs\": {},", st.certs);
                let _ = writeln!(s, "    \"recovered_bytes\": {},", st.recovered_bytes);
                let _ = writeln!(s, "    \"skipped_records\": {},", st.skipped_records);
                let _ = writeln!(s, "    \"save_errors\": {}", st.save_errors);
                let _ = writeln!(s, "  }},");
            }
            None => {
                let _ = writeln!(s, "  \"store\": null,");
            }
        }
        let _ = writeln!(s, "  \"failures\": [");
        let failures: Vec<&TestOutcome> = self.outcomes.iter().filter(|o| !o.passed()).collect();
        for (i, o) in failures.iter().enumerate() {
            let comma = if i + 1 < failures.len() { "," } else { "" };
            let _ = writeln!(
                s,
                "    {{\"name\": \"{}\", \"diagnosis\": \"{}\"}}{comma}",
                json_escape(&o.name),
                json_escape(&o.diagnosis())
            );
        }
        let _ = writeln!(s, "  ],");
        // Per-test perf attribution: wall-clock, the stable worker id that
        // ran the test, and the model-search weight behind its verdicts —
        // enough to spot a perf regression from `litmus_run` output alone.
        let _ = writeln!(s, "  \"tests\": [");
        for (i, o) in self.outcomes.iter().enumerate() {
            let comma = if i + 1 < self.outcomes.len() { "," } else { "" };
            let _ = writeln!(
                s,
                "    {{\"name\": \"{}\", \"worker\": {}, \"micros\": {}, \
                 \"model_nodes\": {}, \"model_pruned\": {}, \"model_valid\": {}, \
                 \"model_queries\": {}, \"model_cache_hits\": {}, \
                 \"prefix_hits\": {}}}{comma}",
                json_escape(&o.name),
                o.worker,
                o.micros,
                o.model_stats.nodes,
                o.model_stats.pruned,
                o.model_stats.valid,
                o.model_queries,
                o.model_cache_hits,
                o.prefix_hits,
            );
        }
        let _ = writeln!(s, "  ]");
        let _ = writeln!(s, "}}");
        s
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

pub(crate) fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
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
            baseline_jobs1_ms: Some(10.0),
            model_cache: Some(tso_model::cache::counters()),
            prefix_cache: Some(tso_model::prefix::counters()),
            store: None,
        }
    }

    #[test]
    fn json_has_the_contracted_fields() {
        let r = small_report();
        let j = r.to_json();
        for key in [
            "\"experiment\": \"litmus_harness\"",
            "\"machine\": \"small\"",
            "\"corpus_total\": 2",
            "\"selected\": 2",
            "\"jobs\": 2",
            "\"speedup_vs_jobs1\"",
            "\"differential_disagreements\": 0",
            "\"passed\": true",
            "\"model_queries\":",
            "\"model_query_hits\":",
            "\"model_cache\": {",
            "\"invocations\":",
            "\"prefix_cache\": {",
            "\"nodes_saved\":",
            "\"prefix_hits\":",
            "\"crashed\": 0",
            "\"unknown\": 0",
            "\"degraded\": false",
            "\"faults_fired\":",
            "\"store\": null",
            "\"failures\": [",
            "\"tests\": [",
            "\"worker\":",
            "\"model_nodes\":",
        ] {
            assert!(j.contains(key), "missing {key} in:\n{j}");
        }
    }

    #[test]
    fn per_test_entries_cover_every_outcome() {
        let r = small_report();
        let j = r.to_json();
        assert!(j.contains("\"name\": \"SB\""));
        assert!(j.contains("\"name\": \"MP\""));
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
            baseline_jobs1_ms: None,
            model_cache: None,
            prefix_cache: None,
            store: None,
        };
        assert!(!r.passed());
        assert_eq!(r.model_failures(), 1);
        assert!(r.to_json().contains("\"passed\": false"));
        assert!(r
            .to_tap()
            .contains("not ok 1 - SB # model: expected forbidden"));
        assert!(r.to_json().contains("\"baseline_jobs1_ms\": null"));
        assert!(r.to_json().contains("\"machine\": \"paper\""));
    }

    #[test]
    fn json_escaping_handles_quotes_and_newlines() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn summary_mentions_speedup_when_measured() {
        let r = small_report();
        assert!(r.summary().contains("vs --jobs 1"));
        assert!(r.speedup_vs_jobs1().is_some());
    }
}
