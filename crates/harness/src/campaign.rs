//! Resumable sharded litmus campaigns.
//!
//! A campaign streams the deterministic random-access test sequence
//! `litmus::gen::campaign_draft(seed, 0..count)` through the differential
//! harness with **bounded memory**: drafts are generated chunk by chunk,
//! never materializing the whole corpus. Three properties make campaigns
//! scale past what one invocation (or one machine) can do in one sitting:
//!
//! * **Sharding** — shard `i` of `n` runs exactly the drafts whose
//!   canonical fingerprint satisfies `fingerprint % n == i`. The
//!   fingerprint depends only on the program (and drafting is cheap —
//!   no model query), so the partition is deterministic, disjoint, and
//!   complete: every draft lands in exactly one shard, and `n` machines
//!   can split a campaign with no coordination beyond the final
//!   [`merge_reports`].
//! * **Checkpoints** — after every chunk the driver atomically rewrites
//!   (temp file + rename) a small JSON checkpoint: the next draft index
//!   plus the running aggregates and result digest. `--resume` reloads
//!   it, validates that the campaign parameters match, and continues
//!   from the cut. A killed run loses at most one chunk of work — and
//!   with a verdict store attached, not even the model searches of that
//!   chunk.
//! * **The verdict store** — when configured, the campaign installs a
//!   [`crate::store::SharedStore`] as the model cache's
//!   persistence hook, so every model search result survives the
//!   process. Concurrent shards must not share a store file (the store
//!   does no locking), so the driver derives a per-shard file name
//!   (`PATH.i-of-n`) whenever `shards > 1`; fold the pieces afterwards
//!   with `litmus_run compact --merge`.
//!
//! Equivalence under resume: the draft stream is random-access, chunks
//! are processed in index order, and the worker pool returns outcomes in
//! input order, so the per-shard aggregates and the order-dependent
//! result [digest](CampaignState::digest) of a resumed run are identical
//! to an uninterrupted one. Only wall-clock and cache/store counters
//! differ — and those are excluded from the digest.

use crate::jsonx::{self, arr, fixed, obj, Value};
use crate::report::{failure_json, PAPER};
use crate::store::{fsync_parent, with_store, StoreCounters};
use crate::{differential_check_on, faults, MachineKind, TestOutcome};
use litmus::gen::campaign_draft;
use litmus::Expect;
use rmw_types::fasthash::FastHasher;
use std::collections::BTreeSet;
use std::hash::Hasher as _;
use std::io;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Failures recorded verbatim in checkpoints and reports; beyond this the
/// counters still count but the diagnoses are dropped (a campaign that
/// fails thousands of tests has a systemic bug, not thousands of
/// interesting diagnoses).
pub const MAX_RECORDED_FAILURES: usize = 1000;

/// Default number of draft indices scanned per chunk (and thus per
/// checkpoint). Memory use is bounded by the chunk, not the campaign.
pub const DEFAULT_CHUNK: u64 = 1024;

/// Everything that defines a campaign run. The tuple
/// `(seed, count, shard, shards, machine)` defines the *work*; the rest
/// is execution policy (parallelism, chunking, persistence paths).
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Campaign seed: drafts are `campaign_draft(seed, index)`.
    pub seed: u64,
    /// Total draft indices in the campaign, across all shards.
    pub count: u64,
    /// This shard's id, in `0..shards`.
    pub shard: u32,
    /// Total shards the campaign is split into.
    pub shards: u32,
    /// Worker threads for the run phase.
    pub jobs: usize,
    /// Simulated machine for the differential side.
    pub machine: MachineKind,
    /// Draft indices per chunk (checkpoint granularity, memory bound).
    pub chunk: u64,
    /// Verdict store file, or `None` to run without persistence. With
    /// `shards > 1` the actual file is `PATH.shard-of-shards`.
    pub store_path: Option<PathBuf>,
    /// Checkpoint file path.
    pub checkpoint_path: PathBuf,
    /// Resume from the checkpoint instead of starting at index 0.
    pub resume: bool,
    /// Test hook: stop (checkpointed) after this many chunks, simulating
    /// a kill; must be positive. `None` runs to completion.
    pub max_chunks: Option<u64>,
}

impl CampaignConfig {
    /// A single-shard campaign with default policy: all parallelism,
    /// small machine, default chunk, no store, checkpoint beside the cwd.
    pub fn new(seed: u64, count: u64) -> Self {
        CampaignConfig {
            seed,
            count,
            shard: 0,
            shards: 1,
            jobs: std::thread::available_parallelism().map_or(2, |n| n.get()),
            machine: MachineKind::Small,
            chunk: DEFAULT_CHUNK,
            store_path: None,
            checkpoint_path: PathBuf::from(default_checkpoint_name(0, 1)),
            resume: false,
            max_chunks: None,
        }
    }

    /// Why this configuration cannot run, or `None` when it can: the shard
    /// must lie in `0..shards`, and `chunk` and `max_chunks` must be
    /// positive.
    pub fn problem(&self) -> Option<String> {
        if self.shards == 0 || self.shard >= self.shards {
            Some(format!(
                "shard {} out of range for {} shards",
                self.shard, self.shards
            ))
        } else if self.chunk == 0 {
            Some("chunk size must be positive".to_owned())
        } else if self.max_chunks == Some(0) {
            Some("max_chunks must be positive".to_owned())
        } else {
            None
        }
    }
}

/// The default checkpoint file name for a shard.
pub fn default_checkpoint_name(shard: u32, shards: u32) -> String {
    format!("campaign-{shard}-of-{shards}.checkpoint.json")
}

/// The per-shard store file derived from the configured base path:
/// `PATH.i-of-n` when `shards > 1`, the path itself for a single shard.
pub fn shard_store_path(base: &Path, shard: u32, shards: u32) -> PathBuf {
    if shards <= 1 {
        base.to_path_buf()
    } else {
        let mut name = base.as_os_str().to_os_string();
        name.push(format!(".{shard}-of-{shards}"));
        PathBuf::from(name)
    }
}

/// The deterministic running state of a shard: exactly what a checkpoint
/// persists. Every field is a pure function of
/// `(seed, count, shard, shards, machine, next_index)` — nothing
/// wall-clock- or cache-dependent — which is what makes kill/resume
/// equivalence checkable by comparing states.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CampaignState {
    /// Next draft index to scan (all indices below are done).
    pub next_index: u64,
    /// Draft indices scanned (in-shard or not).
    pub scanned: u64,
    /// In-shard tests executed.
    pub processed: u64,
    /// Tests whose model verdict contradicted the expectation.
    pub model_failures: u64,
    /// (test, atomicity) pairs where the simulator left the allowed set.
    pub disagreements: u64,
    /// Simulator deadlocks observed.
    pub deadlocks: u64,
    /// Order-dependent fasthash over every processed outcome (name,
    /// verdicts, per-atomicity agreement and read values). Shards XOR
    /// their digests at merge time.
    pub digest: u64,
    /// In-shard tests whose worker panicked: no verdict was produced, so
    /// they count here instead of `processed` and stay out of the digest
    /// (a crashed test contributes *nothing*, wrong contributes never).
    pub crashed: u64,
    /// Draft indices of crashed tests, persisted in the checkpoint so a
    /// resumed run skips known-crashers instead of dying on them again.
    pub quarantine: BTreeSet<u64>,
    /// Recorded failures, capped at [`MAX_RECORDED_FAILURES`].
    pub failures: Vec<(String, String)>,
}

impl CampaignState {
    fn fold(&mut self, o: &TestOutcome) {
        self.processed += 1;
        if !o.model_passed {
            self.model_failures += 1;
        }
        self.disagreements += o.differential.iter().filter(|d| !d.agreed).count() as u64;
        self.deadlocks += o.differential.iter().filter(|d| d.deadlocked).count() as u64;
        let mut h = FastHasher::default();
        h.write_u64(self.digest);
        h.write(o.name.as_bytes());
        h.write_u8(u8::from(o.expect == Expect::Allowed));
        h.write_u8(u8::from(o.observed_allowed));
        h.write_u8(u8::from(o.model_passed));
        for d in &o.differential {
            h.write_u8(u8::from(d.agreed));
            h.write_u8(u8::from(d.deadlocked));
            for &r in &d.sim_reads {
                h.write_u64(r);
            }
        }
        self.digest = h.finish();
        if !o.passed() && self.failures.len() < MAX_RECORDED_FAILURES {
            self.failures.push((o.name.clone(), o.diagnosis()));
        }
    }

    /// Records a test whose worker panicked: quarantined by draft index,
    /// counted, surfaced as a failure — but never folded into `processed`
    /// or the digest.
    fn fold_crash(&mut self, index: u64, name: &str, message: &str) {
        self.crashed += 1;
        self.quarantine.insert(index);
        if self.failures.len() < MAX_RECORDED_FAILURES {
            self.failures
                .push((name.to_owned(), format!("crashed: {message}")));
        }
    }
}

/// The result of [`run_campaign`] for one shard.
#[derive(Debug, Clone)]
pub struct CampaignReport {
    /// The configuration the shard ran under.
    pub config: CampaignConfig,
    /// Final deterministic state (aggregates, digest, failures).
    pub state: CampaignState,
    /// True when every draft index was scanned (`max_chunks` can stop a
    /// run early; such a report is a checkpointed partial, not mergeable).
    pub complete: bool,
    /// Wall-clock of this invocation (a resumed run counts only itself).
    pub elapsed_ms: f64,
    /// Process-wide model cache counters at report time.
    pub model_cache: tso_model::CacheCounters,
    /// Process-wide prefix-certificate counters at report time.
    pub prefix_cache: tso_model::prefix::PrefixCounters,
    /// Store activity, when a store was configured.
    pub store: Option<StoreCounters>,
    /// Checkpoint writes that failed and were tolerated: the run
    /// continued, at the cost of resume granularity (a kill replays back
    /// to the last checkpoint that did land).
    pub checkpoint_errors: u64,
}

impl CampaignReport {
    /// True iff every processed test passed both checks and no test
    /// crashed (a crashed test proved nothing, which is still a failure
    /// of the run).
    pub fn passed(&self) -> bool {
        self.state.model_failures == 0 && self.state.disagreements == 0 && self.state.crashed == 0
    }

    /// True when any persistence seam ran degraded this invocation:
    /// store open failure, swallowed store saves, or tolerated
    /// checkpoint-write failures. Verdicts are unaffected.
    pub fn degraded(&self) -> bool {
        self.checkpoint_errors > 0 || self.store.as_ref().is_some_and(StoreCounters::degraded)
    }

    /// The shard report as JSON — the input format of `litmus_run merge`.
    pub fn to_json(&self) -> String {
        let (cfg, state) = (&self.config, &self.state);
        obj([
            ("experiment", "litmus_campaign".into()),
            ("paper", PAPER.into()),
            ("seed", cfg.seed.into()),
            ("count", cfg.count.into()),
            ("shard", cfg.shard.into()),
            ("shards", cfg.shards.into()),
            ("machine", cfg.machine.name().into()),
            ("jobs", cfg.jobs.into()),
            ("chunk", cfg.chunk.into()),
            ("complete", self.complete.into()),
            ("next_index", state.next_index.into()),
            ("scanned", state.scanned.into()),
            ("processed", state.processed.into()),
            ("model_failures", state.model_failures.into()),
            ("differential_disagreements", state.disagreements.into()),
            ("deadlocks", state.deadlocks.into()),
            ("crashed", state.crashed.into()),
            ("quarantine", arr(state.quarantine.iter().copied())),
            ("passed", self.passed().into()),
            ("degraded", self.degraded().into()),
            ("checkpoint_errors", self.checkpoint_errors.into()),
            ("faults_fired", faults::fired().into()),
            ("digest", state.digest.into()),
            ("elapsed_ms", fixed(self.elapsed_ms, 3)),
            ("model_cache", (&self.model_cache).into()),
            ("prefix_cache", (&self.prefix_cache).into()),
            ("store", self.store.as_ref().into()),
            ("failures", failures_json(&state.failures)),
        ])
        .render()
    }
}

fn failures_json(failures: &[(String, String)]) -> Value {
    arr(failures
        .iter()
        .map(|(name, diagnosis)| failure_json(name, diagnosis)))
}

/// The `failures` list of a checkpoint or shard report (absent → empty).
fn parse_failures(v: &Value) -> Vec<(String, String)> {
    let text = |f: &Value, key: &str| f.get(key).and_then(Value::as_str).unwrap_or("").to_owned();
    v.get("failures")
        .and_then(Value::as_arr)
        .unwrap_or_default()
        .iter()
        .map(|f| (text(f, "name"), text(f, "diagnosis")))
        .collect()
}

fn checkpoint_json(cfg: &CampaignConfig, state: &CampaignState) -> String {
    obj([
        ("experiment", "litmus_campaign_checkpoint".into()),
        ("seed", cfg.seed.into()),
        ("count", cfg.count.into()),
        ("shard", cfg.shard.into()),
        ("shards", cfg.shards.into()),
        ("machine", cfg.machine.name().into()),
        ("next_index", state.next_index.into()),
        ("scanned", state.scanned.into()),
        ("processed", state.processed.into()),
        ("model_failures", state.model_failures.into()),
        ("disagreements", state.disagreements.into()),
        ("deadlocks", state.deadlocks.into()),
        ("crashed", state.crashed.into()),
        ("quarantine", arr(state.quarantine.iter().copied())),
        ("digest", state.digest.into()),
        ("failures", failures_json(&state.failures)),
    ])
    .render()
}

/// Atomically writes the checkpoint for `state` (temp file + rename, so a
/// crash mid-write leaves the previous checkpoint intact).
pub fn write_checkpoint(
    path: &Path,
    cfg: &CampaignConfig,
    state: &CampaignState,
) -> io::Result<()> {
    let tmp = path.with_extension("tmp");
    {
        faults::io_point("campaign.checkpoint.create")?;
        let mut f = std::fs::File::create(&tmp)?;
        faults::write_point(
            &mut f,
            checkpoint_json(cfg, state).as_bytes(),
            "campaign.checkpoint.write",
        )?;
        f.sync_all()?;
    }
    faults::io_point("campaign.checkpoint.rename")?;
    std::fs::rename(&tmp, path)?;
    // The rename is a directory-entry update; sync the parent so the new
    // checkpoint (not just its bytes) survives power loss.
    fsync_parent(path)?;
    // The chaos campaign's random-mode kill lives *after* the commit:
    // every attempt that reaches it has durably banked its chunk, so a
    // kill/resume loop always makes progress and terminates.
    faults::kill_point("campaign.checkpoint.post_commit");
    Ok(())
}

fn invalid<T>(msg: String) -> io::Result<T> {
    Err(io::Error::new(io::ErrorKind::InvalidData, msg))
}

fn field(v: &Value, key: &str) -> io::Result<u64> {
    match v.get(key).and_then(Value::as_u64) {
        Some(n) => Ok(n),
        None => invalid(format!("checkpoint missing numeric field {key:?}")),
    }
}

/// Loads a checkpoint and validates that it belongs to this campaign —
/// `seed`, `count`, `shard`, `shards`, and `machine` must all match, so a
/// stale file from a different campaign fails loudly instead of silently
/// resuming the wrong work.
pub fn load_checkpoint(path: &Path, cfg: &CampaignConfig) -> io::Result<CampaignState> {
    let text = std::fs::read_to_string(path)?;
    let v = jsonx::parse(&text).map_err(|e| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            format!("{}: {e}", path.display()),
        )
    })?;
    if v.get("experiment").and_then(Value::as_str) != Some("litmus_campaign_checkpoint") {
        return invalid(format!("{}: not a campaign checkpoint", path.display()));
    }
    let expected: [(&str, u64); 4] = [
        ("seed", cfg.seed),
        ("count", cfg.count),
        ("shard", u64::from(cfg.shard)),
        ("shards", u64::from(cfg.shards)),
    ];
    for (key, want) in expected {
        let got = field(&v, key)?;
        if got != want {
            return invalid(format!(
                "{}: checkpoint {key} {got} does not match campaign {key} {want}",
                path.display()
            ));
        }
    }
    let machine = v.get("machine").and_then(Value::as_str).unwrap_or("");
    if machine != cfg.machine.name() {
        return invalid(format!(
            "{}: checkpoint machine {machine:?} does not match campaign machine {:?}",
            path.display(),
            cfg.machine.name()
        ));
    }
    // Crash-isolation fields are parsed leniently: checkpoints written
    // before they existed simply resume with nothing quarantined.
    let crashed = v.get("crashed").and_then(Value::as_u64).unwrap_or(0);
    let quarantine = v
        .get("quarantine")
        .and_then(Value::as_arr)
        .unwrap_or_default();
    Ok(CampaignState {
        next_index: field(&v, "next_index")?,
        scanned: field(&v, "scanned")?,
        processed: field(&v, "processed")?,
        model_failures: field(&v, "model_failures")?,
        disagreements: field(&v, "disagreements")?,
        deadlocks: field(&v, "deadlocks")?,
        digest: field(&v, "digest")?,
        crashed,
        quarantine: quarantine.iter().filter_map(Value::as_u64).collect(),
        failures: parse_failures(&v),
    })
}

/// Runs one shard of a campaign to completion (or to `max_chunks`),
/// checkpointing after every chunk. See the module docs for the sharding,
/// resume, and persistence contracts.
///
/// When a store is configured it is installed as the process-wide model
/// persistence hook for the duration of the run and uninstalled before
/// returning (replacing any previously installed store).
pub fn run_campaign(cfg: &CampaignConfig) -> io::Result<CampaignReport> {
    if let Some(problem) = cfg.problem() {
        return invalid(problem);
    }

    // Graceful degradation: a store that fails to open costs persistence
    // (every search is paid again), never the campaign; `with_store`
    // surfaces the failure as `open_error` + the report's `degraded` flag.
    let store_path = cfg
        .store_path
        .as_ref()
        .map(|base| shard_store_path(base, cfg.shard, cfg.shards));
    let started = Instant::now();
    let (run, store) = with_store(store_path.as_deref(), || run_chunks(cfg));
    let (state, checkpoint_errors) = run?;
    Ok(CampaignReport {
        complete: state.next_index == cfg.count,
        config: cfg.clone(),
        state,
        elapsed_ms: started.elapsed().as_secs_f64() * 1e3,
        model_cache: tso_model::cache::counters(),
        prefix_cache: tso_model::prefix::counters(),
        store,
        checkpoint_errors,
    })
}

/// The chunk loop of [`run_campaign`]: resumes or starts the state, then
/// scans, runs, folds, and checkpoints chunk by chunk. Returns the final
/// state and the tolerated checkpoint write failures.
fn run_chunks(cfg: &CampaignConfig) -> io::Result<(CampaignState, u64)> {
    let mut state = if cfg.resume {
        load_checkpoint(&cfg.checkpoint_path, cfg)?
    } else {
        CampaignState::default()
    };
    let mut chunks_done = 0u64;
    let mut checkpoint_errors = 0u64;
    while state.next_index < cfg.count {
        let end = (state.next_index + cfg.chunk).min(cfg.count);
        let drafts: Vec<(u64, litmus::gen::CampaignDraft)> = (state.next_index..end)
            .map(|i| (i, campaign_draft(cfg.seed, i)))
            .filter(|(_, d)| d.fingerprint() % u64::from(cfg.shards) == u64::from(cfg.shard))
            // Known-crashers from the checkpoint stay quarantined: a
            // resumed run skips them instead of dying on them again.
            .filter(|(i, _)| !state.quarantine.contains(i))
            .collect();
        state.scanned += end - state.next_index;
        let jobs = cfg.jobs.max(1).min(drafts.len().max(1));
        let results = exec_pool::run_all_catching(jobs, drafts.len(), |_, idx| {
            differential_check_on(&drafts[idx].1.clone().finish(), cfg.machine)
        });
        for (slot, result) in results.into_iter().enumerate() {
            match result {
                Ok(o) => state.fold(&o),
                Err(panic) => {
                    let (index, draft) = &drafts[slot];
                    state.fold_crash(*index, &draft.name, &panic.message);
                }
            }
        }
        state.next_index = end;
        // A failed checkpoint write is tolerated: the campaign keeps its
        // in-memory state and only resume granularity suffers (a kill
        // now replays back to the last checkpoint that landed).
        if let Err(e) = write_checkpoint(&cfg.checkpoint_path, cfg, &state) {
            checkpoint_errors += 1;
            eprintln!("campaign: checkpoint write failed ({e}) — continuing without it");
        }
        chunks_done += 1;
        if cfg.max_chunks.is_some_and(|max| chunks_done >= max) {
            break;
        }
    }

    Ok((state, checkpoint_errors))
}

/// Folds per-shard campaign report JSONs (the output of
/// `litmus_run campaign --format json` / `--out`) into one merged report
/// document.
///
/// Validates that every input is a *complete* `litmus_campaign` report
/// for a known machine, that they agree on `(seed, count, shards,
/// machine)`, that the shard ids form exactly `0..shards` with no
/// duplicates, and that the shards' `processed` counts sum to `count`
/// (the partition really was disjoint and complete). Counters are summed,
/// failure lists concatenated in shard order, and the per-shard digests
/// XOR-folded into one order-independent campaign digest.
pub fn merge_reports(inputs: &[(String, String)]) -> Result<Value, String> {
    if inputs.is_empty() {
        return Err("merge needs at least one shard report".to_owned());
    }
    let u64_at = |v: &Value, key: &str| v.get(key).and_then(Value::as_u64).unwrap_or(0);
    let mut header: Option<(u64, u64, u64, MachineKind)> = None; // seed count shards machine
    let mut reports: Vec<(u64, &str, Value)> = Vec::new(); // shard, file, report
    for (name, text) in inputs {
        let v = jsonx::parse(text).map_err(|e| format!("{name}: {e}"))?;
        if v.get("experiment").and_then(Value::as_str) != Some("litmus_campaign") {
            return Err(format!("{name}: not a campaign shard report"));
        }
        if v.get("complete").and_then(Value::as_bool) != Some(true) {
            return Err(format!(
                "{name}: shard report is incomplete (resume it first)"
            ));
        }
        let num = |key: &str| {
            v.get(key)
                .and_then(Value::as_u64)
                .ok_or_else(|| format!("{name}: missing numeric field {key:?}"))
        };
        let machine = v.get("machine").and_then(Value::as_str).unwrap_or("");
        let this = (
            num("seed")?,
            num("count")?,
            num("shards")?,
            MachineKind::parse(machine)
                .ok_or_else(|| format!("{name}: unknown machine {machine:?}"))?,
        );
        match &header {
            None => header = Some(this),
            Some(h) => {
                if *h != this {
                    return Err(format!(
                        "{name}: campaign parameters {this:?} do not match first shard {h:?}"
                    ));
                }
            }
        }
        // The folded counters must be present; `crashed` is lenient
        // (reports from before crash isolation have no field).
        for key in [
            "scanned",
            "processed",
            "model_failures",
            "differential_disagreements",
            "deadlocks",
            "digest",
        ] {
            num(key)?;
        }
        let shard = num("shard")?;
        reports.push((shard, name, v));
    }
    let (seed, count, shards, machine) = header.expect("at least one input");
    if reports.len() as u64 != shards {
        return Err(format!(
            "campaign has {shards} shards but {} reports were given",
            reports.len()
        ));
    }
    reports.sort_by_key(|r| r.0);
    for (want, (shard, name, v)) in reports.iter().enumerate() {
        if *shard != want as u64 {
            return Err(format!(
                "{name}: expected shard {want} at this position, got shard {shard} \
                 (shard set must be exactly 0..{shards})"
            ));
        }
        let scanned = u64_at(v, "scanned");
        if scanned != count {
            return Err(format!(
                "{name}: shard scanned {scanned} of {count} draft indices — incomplete"
            ));
        }
    }
    let sum = |key: &str| -> u64 { reports.iter().map(|(_, _, v)| u64_at(v, key)).sum() };
    let (processed, crashed) = (sum("processed"), sum("crashed"));
    // Crashed tests produced no verdict but still account for their
    // draft index — missing, never double-counted, never silently lost.
    if processed + crashed != count {
        return Err(format!(
            "shards processed {processed} tests (+{crashed} crashed) in total, campaign \
             has {count} — the shard partition was not disjoint and complete"
        ));
    }
    let model_failures = sum("model_failures");
    let disagreements = sum("differential_disagreements");
    let digest = reports
        .iter()
        .fold(0, |d, (_, _, v)| d ^ u64_at(v, "digest"));
    let cpu_ms: f64 = reports
        .iter()
        .filter_map(|(_, _, v)| v.get("elapsed_ms").and_then(Value::as_f64))
        .sum();
    let failures: Vec<(String, String)> = reports
        .iter()
        .flat_map(|(_, _, v)| parse_failures(v))
        .collect();

    Ok(obj([
        ("experiment", "litmus_campaign_merged".into()),
        ("paper", PAPER.into()),
        ("seed", seed.into()),
        ("count", count.into()),
        ("shards", shards.into()),
        ("machine", machine.name().into()),
        ("processed", processed.into()),
        ("crashed", crashed.into()),
        ("model_failures", model_failures.into()),
        ("differential_disagreements", disagreements.into()),
        ("deadlocks", sum("deadlocks").into()),
        (
            "passed",
            (model_failures == 0 && disagreements == 0 && crashed == 0).into(),
        ),
        ("digest", digest.into()),
        ("shard_elapsed_ms_sum", fixed(cpu_ms, 3)),
        ("failures", failures_json(&failures)),
    ]))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("campaign-{}-{name}", std::process::id()))
    }

    fn small_cfg(name: &str, shard: u32, shards: u32) -> CampaignConfig {
        let mut cfg = CampaignConfig::new(99, 60);
        cfg.shard = shard;
        cfg.shards = shards;
        cfg.jobs = 2;
        cfg.chunk = 16;
        cfg.checkpoint_path = tmp(&format!("{name}-{shard}.json"));
        cfg
    }

    #[test]
    fn shards_partition_the_campaign_and_merge_reconstructs_it() {
        let _faults = crate::faults::passing_through();
        let solo = {
            let cfg = small_cfg("solo", 0, 1);
            run_campaign(&cfg).unwrap()
        };
        assert!(solo.complete);
        assert_eq!(solo.state.processed, 60);
        assert_eq!(solo.state.scanned, 60);
        // The shard report and its checkpoint re-render byte-identically.
        let checkpoint = std::fs::read_to_string(tmp("solo-0.json")).unwrap();
        for doc in [solo.to_json(), checkpoint] {
            assert_eq!(jsonx::parse(&doc).unwrap().render(), doc);
        }

        let mut inputs = Vec::new();
        let mut processed_sum = 0;
        for shard in 0..3 {
            let cfg = small_cfg("split", shard, 3);
            let r = run_campaign(&cfg).unwrap();
            assert!(r.complete);
            processed_sum += r.state.processed;
            inputs.push((format!("shard{shard}"), r.to_json()));
        }
        assert_eq!(processed_sum, 60, "shards partition the draft space");
        let v = merge_reports(&inputs).unwrap();
        let merged = v.render();
        assert_eq!(jsonx::parse(&merged).unwrap().render(), merged);
        assert_eq!(
            v.get("experiment").and_then(Value::as_str),
            Some("litmus_campaign_merged")
        );
        assert_eq!(v.get("processed").and_then(Value::as_u64), Some(60));
        assert_eq!(
            v.get("passed").and_then(Value::as_bool),
            Some(solo.passed())
        );
        for shard in 0..3 {
            let _ = std::fs::remove_file(tmp(&format!("split-{shard}.json")));
        }
        let _ = std::fs::remove_file(tmp("solo-0.json"));
    }

    #[test]
    fn merge_rejects_missing_and_mismatched_shards() {
        let _faults = crate::faults::passing_through();
        let mut inputs = Vec::new();
        for shard in 0..2 {
            let cfg = small_cfg("reject", shard, 2);
            let r = run_campaign(&cfg).unwrap();
            inputs.push((format!("shard{shard}"), r.to_json()));
            let _ = std::fs::remove_file(tmp(&format!("reject-{shard}.json")));
        }
        // Dropping a shard is caught.
        assert!(merge_reports(&inputs[..1])
            .unwrap_err()
            .contains("2 shards"));
        // Duplicating a shard is caught.
        let dup = vec![inputs[0].clone(), inputs[0].clone()];
        assert!(merge_reports(&dup).unwrap_err().contains("shard"));
        // Garbage is caught.
        assert!(merge_reports(&[("x".into(), "{}".into())]).is_err());
        // An unknown machine is caught and names the file — including one
        // whose name needs escaping (`x"y`).
        for machine in [r#""x\"y""#, r#""bogus""#] {
            let with = format!(r#""machine": {machine}"#);
            let renamed: Vec<(String, String)> = (inputs.iter())
                .map(|(name, text)| (name.clone(), text.replace(r#""machine": "small""#, &with)))
                .collect();
            let err = merge_reports(&renamed).unwrap_err();
            assert!(err.starts_with("shard0: unknown machine"), "{err}");
        }
    }

    #[test]
    fn checkpoints_validate_campaign_identity() {
        let _faults = crate::faults::passing_through();
        let cfg = small_cfg("identity", 0, 1);
        let state = CampaignState {
            next_index: 32,
            scanned: 32,
            processed: 32,
            digest: u64::MAX - 3,
            failures: vec![("t".into(), "model: bad".into())],
            ..CampaignState::default()
        };
        write_checkpoint(&cfg.checkpoint_path, &cfg, &state).unwrap();
        let loaded = load_checkpoint(&cfg.checkpoint_path, &cfg).unwrap();
        assert_eq!(loaded, state, "checkpoints roundtrip exactly");

        let mut other = cfg.clone();
        other.seed += 1;
        let err = load_checkpoint(&cfg.checkpoint_path, &other).unwrap_err();
        assert!(err.to_string().contains("seed"), "{err}");
        let mut other = cfg.clone();
        other.machine = MachineKind::Paper;
        assert!(load_checkpoint(&cfg.checkpoint_path, &other).is_err());
        std::fs::remove_file(&cfg.checkpoint_path).unwrap();
    }

    #[test]
    fn killed_and_resumed_runs_match_the_uninterrupted_one() {
        let _faults = crate::faults::passing_through();
        let uninterrupted = {
            let cfg = small_cfg("straight", 0, 1);
            let r = run_campaign(&cfg).unwrap();
            let _ = std::fs::remove_file(&cfg.checkpoint_path);
            r
        };

        // "Kill" after two chunks, then resume to completion.
        let mut cfg = small_cfg("resumed", 0, 1);
        cfg.max_chunks = Some(2);
        let partial = run_campaign(&cfg).unwrap();
        assert!(!partial.complete);
        assert_eq!(partial.state.next_index, 32, "2 chunks of 16");
        cfg.max_chunks = None;
        cfg.resume = true;
        let resumed = run_campaign(&cfg).unwrap();
        assert!(resumed.complete);
        assert_eq!(
            resumed.state, uninterrupted.state,
            "deterministic state (aggregates, digest, failures) must be \
             identical across a kill/resume cut"
        );
        std::fs::remove_file(&cfg.checkpoint_path).unwrap();
    }

    #[test]
    fn shard_store_paths_are_distinct_per_shard() {
        let base = PathBuf::from("verdicts.store");
        assert_eq!(shard_store_path(&base, 0, 1), base);
        let a = shard_store_path(&base, 0, 4);
        let b = shard_store_path(&base, 3, 4);
        assert_eq!(a, PathBuf::from("verdicts.store.0-of-4"));
        assert_eq!(b, PathBuf::from("verdicts.store.3-of-4"));
        assert_ne!(a, b);
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let mut cfg = CampaignConfig::new(1, 10);
        cfg.shard = 2;
        cfg.shards = 2;
        assert!(run_campaign(&cfg).is_err(), "shard out of range");
        let mut cfg = CampaignConfig::new(1, 10);
        cfg.chunk = 0;
        assert!(run_campaign(&cfg).is_err(), "zero chunk");
        let mut cfg = CampaignConfig::new(1, 10);
        cfg.max_chunks = Some(0);
        assert!(run_campaign(&cfg).is_err(), "zero max_chunks");
    }
}
