//! Pins the campaign's answers: the digest and the model-cache counters of
//! the 1,000-draft seed-1 campaign, checked against committed constants.
//!
//! The digest folds every processed draft's name, expectation, model
//! verdict, and per-atomicity agreement, deadlock flag and simulated
//! reads, so a change that moves any verdict or simulated read of these
//! drafts fails here. The cache counters pin how the model reached those
//! verdicts: queries, searches, family fills and distinct entries.
//!
//! The counters are process-wide, so this file holds one test: its binary
//! starts with an empty cache and shares no budget, store or fault mode
//! with another test. The campaign runs on one job with no store.
//!
//! A change meant to move these answers updates the constants and says in
//! CHANGES.md why they moved. Any other change leaves them alone.

use harness::campaign::{run_campaign, CampaignConfig};
use tso_model::CacheCounters;

/// The digest of the seed-1 campaign's first 1,000 drafts.
const DIGEST: u64 = 7907207673648209574;

/// The model cache after that campaign, from an empty cache.
const MODEL_CACHE: CacheCounters = CacheCounters {
    queries: 4_803,
    invocations: 599,
    store_hits: 0,
    family_fills: 1_028,
    entries: 1_627,
};

#[test]
fn seed_1_campaign_answers_are_unchanged() {
    let mut cfg = CampaignConfig::new(1, 1000);
    cfg.jobs = 1;
    cfg.store_path = None;
    cfg.checkpoint_path = std::env::temp_dir().join(format!(
        "campaign-golden-{}.checkpoint.json",
        std::process::id()
    ));
    let report = run_campaign(&cfg);
    let _ = std::fs::remove_file(&cfg.checkpoint_path);
    let report = report.expect("the campaign runs");

    assert!(report.complete);
    assert_eq!(report.state.processed, 1000);
    assert!(report.passed(), "failures: {:?}", report.state.failures);
    assert_eq!(report.state.digest, DIGEST);
    assert_eq!(report.model_cache, MODEL_CACHE);
}
