//! Campaign × verdict-store integration: warm-store reruns issue zero
//! model searches, and kill/resume cuts with a store attached stay
//! equivalent to uninterrupted runs.
//!
//! Every test here installs a process-global verdict store and/or clears
//! the process-global model cache, so they all serialize on one mutex —
//! running any of them concurrently with another would corrupt the
//! counters the assertions read.

use harness::campaign::{run_campaign, CampaignConfig};
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
    std::env::temp_dir().join(format!("campaign-store-{}-{name}", std::process::id()))
}

fn cfg(name: &str, count: u64) -> CampaignConfig {
    let mut cfg = CampaignConfig::new(1234, count);
    cfg.jobs = 2;
    cfg.chunk = 8;
    cfg.checkpoint_path = tmp(&format!("{name}.checkpoint.json"));
    cfg.store_path = Some(tmp(&format!("{name}.store")));
    cfg
}

fn cleanup(cfg: &CampaignConfig) {
    let _ = std::fs::remove_file(&cfg.checkpoint_path);
    if let Some(p) = &cfg.store_path {
        let _ = std::fs::remove_file(p);
    }
}

#[test]
fn a_warm_store_rerun_issues_zero_model_searches() {
    let _guard = lock();
    let cfg = cfg("warm", 24);
    cleanup(&cfg);

    tso_model::cache::clear();
    let cold = run_campaign(&cfg).unwrap();
    let cold_store = cold.store.as_ref().expect("store configured");
    assert!(cold.complete);
    assert!(cold_store.appended > 0, "cold run persists fresh verdicts");
    assert!(
        cold.model_cache.invocations > 0,
        "cold run had to search at least once"
    );

    // Simulate a fresh process: the in-memory cache is emptied, the store
    // file is the only carry-over. Resume must start over, so drop the
    // checkpoint too.
    tso_model::cache::clear();
    let _ = std::fs::remove_file(&cfg.checkpoint_path);
    let warm = run_campaign(&cfg).unwrap();
    let warm_store = warm.store.as_ref().expect("store configured");
    assert_eq!(
        warm.model_cache.invocations, 0,
        "a warm store answers every miss without a model search"
    );
    assert_eq!(warm_store.appended, 0, "nothing new to persist");
    assert!(warm_store.loads > 0, "the answers came from the store");
    assert_eq!(
        warm.state, cold.state,
        "store-served verdicts reproduce the searched run exactly"
    );
    cleanup(&cfg);
}

#[test]
fn kill_and_resume_with_a_store_matches_the_uninterrupted_run() {
    let _guard = lock();
    let straight_cfg = {
        let mut c = cfg("straight", 40);
        c.store_path = None; // reference run: no persistence at all
        c
    };
    cleanup(&straight_cfg);
    tso_model::cache::clear();
    let straight = run_campaign(&straight_cfg).unwrap();
    cleanup(&straight_cfg);

    // Killed after one chunk, resumed to completion, with a store
    // carrying the model work across the cut.
    let mut resumed_cfg = cfg("resumed", 40);
    cleanup(&resumed_cfg);
    resumed_cfg.max_chunks = Some(1);
    tso_model::cache::clear();
    let partial = run_campaign(&resumed_cfg).unwrap();
    assert!(!partial.complete);
    assert_eq!(partial.state.next_index, 8, "one chunk of 8");

    resumed_cfg.max_chunks = None;
    resumed_cfg.resume = true;
    tso_model::cache::clear(); // the "new process" after the kill
    let resumed = run_campaign(&resumed_cfg).unwrap();
    assert!(resumed.complete);
    assert_eq!(
        resumed.state, straight.state,
        "aggregates, digest, and failures survive the kill/resume cut"
    );
    cleanup(&resumed_cfg);
}

#[test]
fn sharded_stores_fold_into_one_equivalent_store() {
    let _guard = lock();
    use harness::store::Store;
    let base = tmp("fold.store");
    let merged_path = tmp("fold-merged.store");
    let _ = std::fs::remove_file(&merged_path);

    let mut shard_paths = Vec::new();
    for shard in 0..2u32 {
        let mut c = CampaignConfig::new(77, 30);
        c.jobs = 2;
        c.chunk = 10;
        c.shard = shard;
        c.shards = 2;
        c.checkpoint_path = tmp(&format!("fold-{shard}.checkpoint.json"));
        c.store_path = Some(base.clone());
        let real = harness::campaign::shard_store_path(&base, shard, 2);
        let _ = std::fs::remove_file(&real);
        tso_model::cache::clear();
        let r = run_campaign(&c).unwrap();
        assert!(r.complete);
        assert_eq!(r.store.as_ref().unwrap().path, real.display().to_string());
        shard_paths.push(real);
        let _ = std::fs::remove_file(&c.checkpoint_path);
    }

    // Fold both shard stores into one (what `litmus_run compact --merge`
    // does). Shard stores may *overlap*: drafts partition by fingerprint,
    // but the per-atomicity rewrites each test also queries can land in
    // the same canonical class from different shards — so the fold is a
    // union, bounded by the sum and at least as big as each input.
    let mut target = Store::open(&merged_path).unwrap();
    let mut sizes = Vec::new();
    for p in &shard_paths {
        let src = Store::open(p).unwrap();
        sizes.push(src.len());
        let added = target.absorb(&src).unwrap();
        assert!(added <= src.len() as u64);
    }
    assert!(target.len() >= *sizes.iter().max().unwrap());
    assert!(target.len() <= sizes.iter().sum::<usize>());
    // Folding the same shard again adds nothing (existing keys win).
    let again = target
        .absorb(&Store::open(&shard_paths[0]).unwrap())
        .unwrap();
    assert_eq!(again, 0, "absorb is idempotent");
    target.compact().unwrap();
    for p in shard_paths {
        let _ = std::fs::remove_file(p);
    }
    std::fs::remove_file(&merged_path).unwrap();
}
