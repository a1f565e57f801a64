//! The campaign workloads: `harness::campaign::run_campaign` cold (empty
//! caches, fresh verdict store) and warm (caches cleared, store written
//! in set-up), plus the benchmark's own copy of its loop.
//!
//! The copy ([`loop_pass`]) runs `run_campaign`'s chunk loop with one of
//! two task bodies. [`Mode::Composite`] calls the same public per-draft
//! functions the entry point calls (`CampaignDraft::finish`, then
//! `differential_check_on`) and times each task: the per-draft latency no
//! entry-point report carries. [`Mode::Layered`] makes, in the same order,
//! the public calls `differential_check_on` itself makes, with a span
//! around each one: the per-layer split. Every loop pass must reproduce
//! the entry point's digest.

use crate::spans;
use harness::campaign::{
    run_campaign, write_checkpoint, CampaignConfig, CampaignReport, CampaignState,
    MAX_RECORDED_FAILURES,
};
use harness::store::SharedStore;
use harness::{differential_check_on, DiffOutcome, MachineKind, TestOutcome};
use litmus::gen::{campaign_draft, CampaignDraft};
use litmus::{Expect, Litmus};
use rmw_types::fasthash::FastHasher;
use rmw_types::{Atomicity, Value};
use std::collections::BTreeSet;
use std::hash::Hasher as _;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;
use tso_model::cache::allowed_outcomes_canonical;
use tso_model::prefix::{CertData, CertificateStore};
use tso_model::{
    find_execution, CachedOutcomes, Instr, Outcome, Program, SearchStats, VerdictStore,
};
use tso_sim::{lower_with_line_size, sim_addr, Machine, SimStats};

/// What one campaign workload runs.
#[derive(Debug, Clone)]
pub struct Spec {
    /// Campaign seed.
    pub seed: u64,
    /// Draft indices `0..count`.
    pub count: u64,
    /// Draft indices per chunk (one checkpoint each).
    pub chunk: u64,
    /// Pool workers.
    pub jobs: usize,
    /// Scratch directory for stores and checkpoints.
    pub dir: PathBuf,
}

impl Spec {
    fn config(&self, store: &Path, checkpoint: &str) -> CampaignConfig {
        let mut cfg = CampaignConfig::new(self.seed, self.count);
        cfg.jobs = self.jobs;
        cfg.chunk = self.chunk;
        cfg.store_path = Some(store.to_path_buf());
        cfg.checkpoint_path = self.dir.join(checkpoint);
        cfg
    }

    /// The store written by set-up (and read by warm passes).
    pub fn setup_store(&self) -> PathBuf {
        self.dir.join("setup.store")
    }

    /// The store each cold pass recreates.
    pub fn cold_store(&self) -> PathBuf {
        self.dir.join("cold.store")
    }
}

/// Empties the process-wide model caches and their counters, and detaches
/// any installed store, so a pass starts from nothing but its store file.
pub fn reset_process_state() {
    let _ = tso_model::cache::take_store();
    let _ = tso_model::prefix::take_store();
    tso_model::cache::clear();
    tso_model::prefix::clear();
}

/// Deletes a store file; a missing file is not an error.
pub fn remove_store(path: &Path) -> Result<(), String> {
    match std::fs::remove_file(path) {
        Ok(()) => Ok(()),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
        Err(e) => Err(format!("cannot remove {}: {e}", path.display())),
    }
}

/// Size of a file in bytes (0 when it does not exist).
pub fn file_bytes(path: &Path) -> u64 {
    std::fs::metadata(path).map_or(0, |m| m.len())
}

/// One pass through the entry point, `run_campaign`. A cold pass deletes
/// `store` first; a warm pass reads it.
pub fn entry_pass(spec: &Spec, store: &Path, cold: bool) -> Result<(CampaignReport, f64), String> {
    reset_process_state();
    if cold {
        remove_store(store)?;
    }
    let cfg = spec.config(store, "entry.checkpoint.json");
    let started = Instant::now();
    let report = run_campaign(&cfg).map_err(|e| format!("run_campaign: {e}"))?;
    Ok((report, started.elapsed().as_secs_f64()))
}

/// The RMW class of a queried program, for the per-node search cost:
/// `0` plain (no RMW), else the strictest atomicity present (`1..=3`).
fn rmw_class(program: &Program) -> usize {
    program
        .iter()
        .flat_map(|(_, instrs)| instrs.iter())
        .filter_map(|i| match i {
            Instr::Rmw { atomicity, .. } => Some(match atomicity {
                Atomicity::Type1 => 1,
                Atomicity::Type2 => 2,
                Atomicity::Type3 => 3,
            }),
            _ => None,
        })
        .min()
        .unwrap_or(0)
}

/// Model and simulator work of one loop pass.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Tally {
    /// Model queries.
    pub queries: u64,
    /// Queries answered from memory or the store, without a search.
    pub hits: u64,
    /// Misses answered by replaying a prefix certificate.
    pub replays: u64,
    /// Misses that ran a fresh search.
    pub searches: u64,
    /// Decision nodes of the fresh searches.
    pub nodes: u64,
    /// Branches those searches pruned.
    pub pruned: u64,
    /// Search seconds per RMW class (plain, type-1, type-2, type-3);
    /// measured only while tracing.
    pub class_s: [f64; 4],
    /// Search nodes per RMW class.
    pub class_nodes: [u64; 4],
    /// Machine runs.
    pub runs: u64,
    /// Machine runs that deadlocked.
    pub deadlocks: u64,
    /// Simulated cycles summed over runs.
    pub cycles: u64,
    /// Core ticks the engine executed.
    pub ticks: u64,
    /// Events the engine armed.
    pub events_armed: u64,
    /// Simulated statistics summed per machine atomicity (type-1..3).
    pub by_type: [SimStats; 3],
}

impl Tally {
    pub(crate) fn absorb(&mut self, o: &Tally) {
        self.queries += o.queries;
        self.hits += o.hits;
        self.replays += o.replays;
        self.searches += o.searches;
        self.nodes += o.nodes;
        self.pruned += o.pruned;
        for c in 0..4 {
            self.class_s[c] += o.class_s[c];
            self.class_nodes[c] += o.class_nodes[c];
        }
        self.runs += o.runs;
        self.deadlocks += o.deadlocks;
        self.cycles += o.cycles;
        self.ticks += o.ticks;
        self.events_armed += o.events_armed;
        for t in 0..3 {
            add_stats(&mut self.by_type[t], &o.by_type[t]);
        }
    }

    /// Adds one machine run under `atomicity`.
    pub fn record_run(
        &mut self,
        atomicity: Atomicity,
        stats: &SimStats,
        engine: &tso_sim::stats::EngineStats,
        deadlocked: bool,
    ) {
        self.runs += 1;
        self.deadlocks += u64::from(deadlocked);
        self.cycles += stats.cycles;
        self.ticks += engine.ticks;
        self.events_armed += engine.events_armed;
        add_stats(&mut self.by_type[type_index(atomicity)], stats);
    }
}

/// Index of an atomicity in `Atomicity::ALL`.
fn type_index(a: Atomicity) -> usize {
    match a {
        Atomicity::Type1 => 0,
        Atomicity::Type2 => 1,
        Atomicity::Type3 => 2,
    }
}

fn add_stats(sum: &mut SimStats, s: &SimStats) {
    sum.cycles += s.cycles;
    sum.mem_ops += s.mem_ops;
    sum.rmw_count += s.rmw_count;
    sum.rmw_cost.write_buffer_cycles += s.rmw_cost.write_buffer_cycles;
    sum.rmw_cost.ra_wa_cycles += s.rmw_cost.ra_wa_cycles;
    sum.rmw_drains += s.rmw_drains;
    sum.rmw_broadcasts += s.rmw_broadcasts;
    sum.lock_retries += s.lock_retries;
}

/// `allowed_outcomes_cached` as its two public halves, each in its own
/// span; the query span is named by how it was answered.
fn query(program: &Program, tally: &mut Tally) -> CachedOutcomes {
    let canon = {
        let _s = spans::enter("model.canon");
        program.canonicalize()
    };
    let mut span = spans::enter("model.lookup");
    let answer = allowed_outcomes_canonical(&canon);
    tally.queries += 1;
    if answer.hit {
        tally.hits += 1;
    } else if answer.prefix_hit {
        tally.replays += 1;
        span.rename("model.replay");
    } else {
        tally.searches += 1;
        tally.nodes += answer.stats.nodes;
        tally.pruned += answer.stats.pruned;
        span.rename("model.search");
        let class = rmw_class(program);
        tally.class_nodes[class] += answer.stats.nodes;
        tally.class_s[class] += span.elapsed_s().unwrap_or(0.0);
    }
    answer
}

fn observed(outcomes: &BTreeSet<Outcome>, l: &Litmus) -> bool {
    outcomes.iter().any(|o| l.target.matches(&o.read_values()))
}

/// `CampaignDraft::finish`: the model-derived expectation when deferred.
fn finish(draft: &CampaignDraft, tally: &mut Tally) -> Litmus {
    let _s = spans::enter("litmus.finish");
    let d = draft.clone();
    let mut l = Litmus {
        name: d.name,
        description: d.description,
        program: d.program,
        target: d.target,
        expect: Expect::Allowed,
    };
    l.expect = match d.expect {
        Some(e) => e,
        None if observed(&query(&l.program, tally).outcomes, &l) => Expect::Allowed,
        None => Expect::Forbidden,
    };
    l
}

/// `differential_check_on`, call for call.
fn differential_check(l: &Litmus, machine: MachineKind, tally: &mut Tally) -> TestOutcome {
    // Litmus::check
    let (observed_allowed, model_passed, mut unknown, mut model_stats) = {
        let _s = spans::enter("litmus.check");
        let cached = query(&l.program, tally);
        let observed_allowed = observed(&cached.outcomes, l);
        if observed_allowed {
            let _w = spans::enter("model.witness");
            find_execution(&l.program, |reads| l.target.matches(reads))
                .expect("an observed outcome has a witness execution");
        }
        let unknown = cached.unknown && !observed_allowed;
        let passed = unknown
            || match l.expect {
                Expect::Allowed => observed_allowed,
                Expect::Forbidden => !observed_allowed,
            };
        (observed_allowed, passed, unknown, cached.stats)
    };
    let mut differential = Vec::with_capacity(Atomicity::ALL.len());
    for atomicity in Atomicity::ALL {
        let prog = l.program.with_atomicity(atomicity);
        let mut cfg = machine.config(prog.num_threads());
        cfg.rmw_atomicity = atomicity;
        let line_size = cfg.line_size;
        let traces = {
            let _s = spans::enter("sim.lower");
            lower_with_line_size(&prog, line_size)
        };
        let result = {
            let _s = spans::enter("sim.run");
            Machine::new(cfg, traces).run()
        };
        tally.record_run(atomicity, &result.stats, &result.engine, result.deadlocked);
        let sim_reads: Vec<Value> = result.reads.iter().flatten().copied().collect();
        let allowed = query(&prog, tally);
        model_stats.absorb(&allowed.stats);
        let found = {
            let _s = spans::enter("harness.compare");
            allowed.outcomes.iter().any(|o| {
                o.read_values() == sim_reads
                    && o.final_memory().iter().all(|&(a, v)| {
                        result
                            .memory
                            .get(&sim_addr(a, line_size))
                            .copied()
                            .unwrap_or(0)
                            == v
                    })
            })
        };
        if allowed.unknown && !found {
            unknown = true;
        }
        differential.push(DiffOutcome {
            atomicity,
            agreed: !result.deadlocked && (found || allowed.unknown),
            deadlocked: result.deadlocked,
            sim_reads,
        });
    }
    TestOutcome {
        name: l.name.clone(),
        expect: l.expect,
        observed_allowed,
        model_passed,
        failure_detail: None,
        differential,
        micros: 0,
        worker: 0,
        model_stats,
        model_queries: 0,
        model_cache_hits: 0,
        prefix_hits: 0,
        split_decisions: 0,
        unknown,
        crashed: false,
    }
}

/// `CampaignState::fold`: the same aggregates and the same digest.
fn fold(state: &mut CampaignState, o: &TestOutcome) {
    state.processed += 1;
    if !o.model_passed {
        state.model_failures += 1;
    }
    state.disagreements += o.differential.iter().filter(|d| !d.agreed).count() as u64;
    state.deadlocks += o.differential.iter().filter(|d| d.deadlocked).count() as u64;
    let mut h = FastHasher::default();
    h.write_u64(state.digest);
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
    state.digest = h.finish();
    if !o.passed() && state.failures.len() < MAX_RECORDED_FAILURES {
        state.failures.push((o.name.clone(), o.diagnosis()));
    }
}

/// The verdict store seen through spans: every hook call the model makes
/// is timed and counted.
struct TimedStore(Arc<SharedStore>);

impl VerdictStore for TimedStore {
    fn load(&self, key: &[u64]) -> Option<(BTreeSet<Outcome>, SearchStats)> {
        let _s = spans::enter("store.load");
        self.0.load(key)
    }

    fn save(
        &self,
        key: &[u64],
        fingerprint: u64,
        outcomes: &BTreeSet<Outcome>,
        stats: &SearchStats,
    ) {
        let _s = spans::enter("store.save");
        self.0.save(key, fingerprint, outcomes, stats);
    }
}

impl CertificateStore for TimedStore {
    fn load_cert(&self, masked_key: &[u64]) -> Option<CertData> {
        let _s = spans::enter("store.cert_load");
        self.0.load_cert(masked_key)
    }

    fn save_cert(&self, masked_key: &[u64], fingerprint: u64, cert: &CertData) {
        let _s = spans::enter("store.cert_save");
        self.0.save_cert(masked_key, fingerprint, cert);
    }
}

/// The task body of a [`loop_pass`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// `differential_check_on(&draft.finish(), machine)`, timed per draft.
    Composite,
    /// The calls `differential_check_on` makes, one span each.
    Layered,
}

/// The result of one loop pass.
#[derive(Debug, Clone)]
pub struct LoopPass {
    /// Final campaign state (aggregates and digest).
    pub state: CampaignState,
    /// Pass wall time, in s.
    pub wall_s: f64,
    /// Each processed draft's time inside its worker, in ms.
    pub draft_ms: Vec<f64>,
    /// Model and simulator work.
    pub tally: Tally,
    /// Model-cache counters at the end of the pass.
    pub cache: tso_model::CacheCounters,
    /// Prefix-certificate counters at the end of the pass.
    pub prefix: tso_model::prefix::PrefixCounters,
    /// Worker seconds the pool offered: workers × time blocked in
    /// `run_all_catching`, summed over chunks (measured only while
    /// tracing).
    pub pool_capacity_s: f64,
    /// Size of the store file after the pass, in bytes.
    pub store_bytes: u64,
}

/// One pass through the benchmark's copy of `run_campaign`'s loop. Cold
/// passes delete `store` first.
pub fn loop_pass(spec: &Spec, store: &Path, cold: bool, mode: Mode) -> Result<LoopPass, String> {
    reset_process_state();
    if cold {
        remove_store(store)?;
    }
    let cfg = spec.config(store, "loop.checkpoint.json");
    let machine = cfg.machine;
    let started = Instant::now();
    let pass = spans::enter(spans::PASS);
    let shared = {
        let _s = spans::enter("store.open");
        Arc::new(SharedStore::open(store).map_err(|e| format!("open {}: {e}", store.display()))?)
    };
    let timed = Arc::new(TimedStore(shared));
    tso_model::cache::set_store(timed.clone());
    tso_model::prefix::set_store(timed);

    let mut state = CampaignState::default();
    let mut draft_ms = Vec::new();
    let mut tally = Tally::default();
    let mut pool_capacity_s = 0.0;
    while state.next_index < cfg.count {
        let end = (state.next_index + cfg.chunk).min(cfg.count);
        let drafts: Vec<(u64, CampaignDraft)> = {
            let _s = spans::enter("litmus.draft");
            (state.next_index..end)
                .map(|i| (i, campaign_draft(cfg.seed, i)))
                .filter(|(_, d)| d.fingerprint() % u64::from(cfg.shards) == u64::from(cfg.shard))
                .filter(|(i, _)| !state.quarantine.contains(i))
                .collect()
        };
        state.scanned += end - state.next_index;
        let jobs = cfg.jobs.max(1).min(drafts.len().max(1));
        let results = {
            let pool = spans::enter(spans::POOL_RUN);
            let pool_id = pool.id();
            let results = exec_pool::run_all_catching(jobs, drafts.len(), |_, idx| {
                let (index, draft) = &drafts[idx];
                let _task = spans::enter_under(spans::TASK, pool_id, *index);
                let t0 = Instant::now();
                let mut tally = Tally::default();
                let outcome = match mode {
                    Mode::Composite => differential_check_on(&draft.clone().finish(), machine),
                    Mode::Layered => {
                        differential_check(&finish(draft, &mut tally), machine, &mut tally)
                    }
                };
                (outcome, tally, t0.elapsed().as_secs_f64() * 1e3)
            });
            pool_capacity_s += jobs as f64 * pool.elapsed_s().unwrap_or(0.0);
            results
        };
        for (slot, result) in results.into_iter().enumerate() {
            match result {
                Ok((outcome, t, ms)) => {
                    fold(&mut state, &outcome);
                    tally.absorb(&t);
                    draft_ms.push(ms);
                }
                Err(panic) => {
                    let (index, draft) = &drafts[slot];
                    state.crashed += 1;
                    state.quarantine.insert(*index);
                    if state.failures.len() < MAX_RECORDED_FAILURES {
                        state
                            .failures
                            .push((draft.name.clone(), format!("crashed: {}", panic.message)));
                    }
                }
            }
        }
        state.next_index = end;
        let _s = spans::enter("campaign.checkpoint");
        write_checkpoint(&cfg.checkpoint_path, &cfg, &state)
            .map_err(|e| format!("checkpoint: {e}"))?;
    }
    let _ = tso_model::cache::take_store();
    let _ = tso_model::prefix::take_store();
    drop(pass);
    Ok(LoopPass {
        state,
        wall_s: started.elapsed().as_secs_f64(),
        draft_ms,
        tally,
        cache: tso_model::cache::counters(),
        prefix: tso_model::prefix::counters(),
        pool_capacity_s,
        store_bytes: file_bytes(store),
    })
}
