//! The three workloads, untraced (end-to-end metrics) and traced
//! (per-layer metrics), with their correctness checks.

use crate::campaign::{self, LoopPass, Mode, Tally};
use crate::fig11;
use crate::host::{Meter, Times};
use crate::report::{median, metric, peak_rss_mb, quantile, ratio, Metric};
use crate::spans::{self, Breakdown, Span};
use harness::campaign::{CampaignReport, CampaignState};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's Fig. 11(a) sweep on the 32-core Table 2 machine.
    Fig11Paper,
    /// A campaign from empty caches and an empty verdict store.
    CampaignCold,
    /// The same campaign against the store its set-up wrote.
    CampaignWarm,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::Fig11Paper,
        Workload::CampaignCold,
        Workload::CampaignWarm,
    ];

    /// The name `--workload` takes.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Fig11Paper => "fig11_paper",
            Workload::CampaignCold => "campaign_cold",
            Workload::CampaignWarm => "campaign_warm",
        }
    }

    /// Parses a `--workload` value.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input sizes of one run.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// Campaign drafts per pass.
    pub drafts: u64,
    /// Campaign drafts per chunk (one checkpoint each).
    pub chunk: u64,
    /// Simulated cores of the Fig. 11 machine.
    pub cores: usize,
    /// Memory operations per core of each Fig. 11 trace.
    pub memops: usize,
    /// Fig. 11 trace seeds the set-up draws up front, one set-up each
    /// (`setup_s` is their median); timed sweeps take them in turn.
    /// Campaigns set up each new campaign before its passes instead.
    pub setups: usize,
    /// Campaign pool workers.
    pub jobs: usize,
    /// Timed passes made even when `--seconds` has run out.
    pub min_passes: usize,
}

impl Sizes {
    /// The sizes `BENCHMARK.json` runs.
    pub const FULL: Sizes = Sizes {
        drafts: 100,
        chunk: 50,
        cores: 32,
        memops: 5000,
        setups: 8,
        jobs: 1,
        min_passes: 3,
    };

    /// Seconds-fast sizes for tests.
    pub const TINY: Sizes = Sizes {
        drafts: 24,
        chunk: 8,
        cores: 4,
        memops: 200,
        setups: 2,
        jobs: 2,
        min_passes: 2,
    };
}

/// One benchmark run.
#[derive(Debug, Clone)]
pub struct Run {
    /// What to run.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Measurement time, in s (at least `sizes.min_passes` passes run).
    pub seconds: f64,
    /// Per-layer traced run instead of the end-to-end run.
    pub trace: bool,
    /// Input sizes.
    pub sizes: Sizes,
    /// Scratch directory for stores and checkpoints (must exist).
    pub dir: PathBuf,
}

/// What a run measured and checked.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Work items processed in timed passes (drafts or machine runs).
    pub attempted: u64,
    /// Items that failed, plus failed checks.
    pub failed: u64,
    /// Failed checks, described.
    pub errors: Vec<String>,
    /// The metrics of the result line.
    pub metrics: Vec<Metric>,
    /// Further report lines: metrics the result line does not carry,
    /// sample counts, and the paper comparison.
    pub notes: Vec<String>,
    /// Spans of the last traced pass (empty when untraced).
    pub spans: Vec<Span>,
}

impl Outcome {
    /// True when every check passed and no item failed.
    pub fn correct(&self) -> bool {
        self.errors.is_empty() && self.failed == 0
    }

    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.errors.push(what());
        }
    }

    /// Notes the spread of the timed passes.
    fn note_passes(&mut self, samples: &[Sample]) {
        let t: Vec<f64> = samples.iter().map(|s| s.1.norm_s).collect();
        self.notes.push(format!(
            "timed passes: {} (normalized s: q1 {:.6}, median {:.6}, q3 {:.6}, max {:.6})",
            t.len(),
            quantile(&t, 0.25),
            median(&t),
            quantile(&t, 0.75),
            quantile(&t, 1.0)
        ));
    }

    fn note(&mut self, name: &str, value: f64, unit: &str, detail: &str) {
        self.notes
            .push(format!("{name:<22} {value:>14.6} {unit:<6} {detail}"));
    }
}

/// Runs `r`.
pub fn run(r: &Run) -> Result<Outcome, String> {
    let mut out = match r.workload {
        Workload::Fig11Paper if r.trace => fig11_traced(r)?,
        Workload::Fig11Paper => fig11_untraced(r)?,
        _ if r.trace => campaign_traced(r)?,
        _ => campaign_untraced(r)?,
    };
    out.failed += out.errors.len() as u64;
    Ok(out)
}

/// True while a timed loop should make another pass.
fn more(started: Instant, r: &Run, passes: usize) -> bool {
    passes < r.sizes.min_passes || started.elapsed().as_secs_f64() < r.seconds
}

/// A timed pass: the input it ran (a campaign or trace seed) and its
/// time.
type Sample = (u64, Times);

/// The time of a run: the median pass of each input, then the mean of
/// the middle half of those (the interquartile mean). Repeated passes of
/// one input smooth out host noise; many distinct inputs smooth out the
/// inputs' own cost, whose heavy tail the trimming cuts.
fn wall_of(samples: &[Sample], time: fn(&Times) -> f64) -> f64 {
    let mut inputs: Vec<u64> = samples.iter().map(|s| s.0).collect();
    inputs.sort_unstable();
    inputs.dedup();
    let mut per_input: Vec<f64> = inputs
        .iter()
        .map(|&k| {
            let times: Vec<f64> = samples
                .iter()
                .filter(|s| s.0 == k)
                .map(|s| time(&s.1))
                .collect();
            median(&times)
        })
        .collect();
    per_input.sort_by(f64::total_cmp);
    let cut = per_input.len() / 4;
    let kept = &per_input[cut..per_input.len() - cut];
    ratio(kept.iter().sum(), kept.len() as f64)
}

fn norm(t: &Times) -> f64 {
    t.norm_s
}

fn raw(t: &Times) -> f64 {
    t.raw_s
}

/// The median of the set-ups' times.
fn median_times(setups: &[Times]) -> Times {
    let of = |f: fn(&Times) -> f64| median(&setups.iter().map(f).collect::<Vec<_>>());
    Times {
        raw_s: of(raw),
        norm_s: of(norm),
    }
}

/// The end-to-end metrics, in `BENCHMARK.json` order: set-up time, the
/// run's time (both at nominal host speed), and peak memory.
fn end_to_end(out: &mut Outcome, setup: Times, wall: &[Sample], meter: &Meter) {
    out.metrics = vec![
        metric("setup_s", setup.norm_s, "s"),
        metric("wall_s", wall_of(wall, norm), "s"),
        metric("peak_rss_mb", peak_rss_mb(), "MB"),
    ];
    out.note("host_setup_s", setup.raw_s, "s", "setup_s in host time");
    out.note(
        "host_wall_s",
        wall_of(wall, raw),
        "s",
        "wall_s in host time",
    );
    let k = &meter.kernel_s;
    out.note(
        "reference_ms",
        1e3 * median(k),
        "ms",
        &format!(
            "reference kernel, median of {} (q1 {:.3}, q3 {:.3}; nominal {:.3})",
            k.len(),
            1e3 * quantile(k, 0.25),
            1e3 * quantile(k, 0.75),
            1e3 * crate::host::NOMINAL_S
        ),
    );
    out.note_passes(wall);
}

/// Report lines shared by the untraced runs: throughput, the item tail
/// and the error rate.
fn note_untraced(out: &mut Outcome, rate: (&str, f64), item: &str, item_ms: &[f64], samples: &str) {
    out.note(rate.0, rate.1, "1/s", "median over timed passes");
    out.note(&format!("{item}_p50_ms"), median(item_ms), "ms", samples);
    out.note(
        &format!("{item}_p99_ms"),
        quantile(item_ms, 0.99),
        "ms",
        samples,
    );
    out.note(
        "error_rate",
        ratio(
            (out.failed + out.errors.len() as u64) as f64,
            out.attempted as f64,
        ),
        "1",
        "(failed items + failed checks) / items",
    );
}

/// Fig. 11 input `k`: the sweep with traces from seed `pass_seed(seed, k)`.
fn fig11_input(r: &Run, k: u64) -> fig11::Spec {
    fig11::Spec {
        cores: r.sizes.cores,
        memops: r.sizes.memops,
        seed: pass_seed(r.seed, k),
    }
}

/// Set-up, once per input `0..sizes.setups`: draw the input's traces and
/// record what each core must retire. Returns every input's expectation
/// and the median set-up time.
fn fig11_setup(r: &Run, meter: &mut Meter) -> (Vec<fig11::Expected>, Times) {
    let mut times = Vec::new();
    let expected = (0..r.sizes.setups.max(1) as u64)
        .map(|k| {
            let (e, t) = meter.time(|| fig11::setup(&fig11_input(r, k)));
            times.push(t);
            e
        })
        .collect();
    (expected, median_times(&times))
}

/// Runs timed sweep `i` (inputs in turn) and checks it against its
/// input's expectation and its input's first sweep.
fn fig11_sweep(
    r: &Run,
    i: usize,
    expected: &[fig11::Expected],
    firsts: &mut Vec<fig11::Pass>,
    out: &mut Outcome,
    meter: &mut Meter,
) -> (u64, fig11::Pass) {
    let k = i % expected.len();
    let p = fig11::pass(&fig11_input(r, k as u64), meter);
    out.errors.extend(fig11::check(&p, &expected[k]));
    out.attempted += p.runs.len() as u64;
    out.failed += p.runs.iter().filter(|run| run.deadlocked).count() as u64;
    match firsts.get(k) {
        Some(f) => out.check(f.runs == p.runs, || {
            "sweeps of one input differ between passes".into()
        }),
        None => firsts.push(p.clone()),
    }
    (k as u64, p)
}

fn fig11_untraced(r: &Run) -> Result<Outcome, String> {
    let mut meter = Meter::new();
    let (expected, setup) = fig11_setup(r, &mut meter);
    let mut out = Outcome::default();
    let (mut wall, mut per_s, mut run_ms) = (Vec::new(), Vec::new(), Vec::new());
    let mut firsts = Vec::new();
    let started = Instant::now();
    while more(started, r, wall.len()) {
        let (k, p) = fig11_sweep(r, wall.len(), &expected, &mut firsts, &mut out, &mut meter);
        wall.push((k, p.time));
        per_s.push(p.mem_ops() as f64 / p.time.norm_s);
        run_ms.extend_from_slice(&p.run_ms);
    }
    end_to_end(&mut out, setup, &wall, &meter);
    let samples = format!("({} machine runs over {} sweeps)", run_ms.len(), wall.len());
    note_untraced(
        &mut out,
        ("sim_mem_ops_per_s", median(&per_s)),
        "run",
        &run_ms,
        &samples,
    );
    paper_comparison(&mut out, &firsts[0]);
    Ok(out)
}

/// Prints the sweep's write-buffer share and savings beside the paper's.
fn paper_comparison(out: &mut Outcome, p: &fig11::Pass) {
    let v = fig11::paper_view(p);
    out.notes.push(format!(
        "paper check (reported, not gated): write-buffer share of type-1 RMW cost, \
         mean over benchmarks {:.1}% (paper 58%); \
         type-2 saving mean {:.1}% [min {:.1}%, max {:.1}%] (paper 38.6-58.9%); \
         type-3 saving mean {:.1}%, max {:.1}% (paper up to 64.3%). \
         The simulator is otherwise unvalidated against hardware.",
        v.wb_share_t1, v.save2.0, v.save2.1, v.save2.2, v.save3.0, v.save3.1
    ));
}

fn fig11_traced(r: &Run) -> Result<Outcome, String> {
    // No reference kernel: spans must hold the workload's calls only, and
    // per-layer times are host times.
    let mut meter = Meter::off();
    let (expected, _) = fig11_setup(r, &mut meter);
    let mut out = Outcome::default();
    let mut traced = Traced::default();
    let mut firsts = Vec::new();
    let started = Instant::now();
    while more(started, r, traced.passes) {
        // An untraced sweep, then a traced sweep of the same input, which
        // must reproduce its simulated statistics exactly.
        let (k, untraced) = fig11_sweep(
            r,
            traced.passes,
            &expected,
            &mut firsts,
            &mut out,
            &mut meter,
        );
        traced.untraced_wall.push((k, untraced.time));
        spans::set_enabled(true);
        let p = fig11::pass(&fig11_input(r, k), &mut meter);
        spans::set_enabled(false);
        out.check(p.runs == untraced.runs, || {
            "traced sweep does not reproduce the untraced simulated stats".into()
        });
        traced.absorb(&mut out, (k, p.time), &p.tally(), 0.0, 0);
    }
    out.metrics = traced.metrics();
    paper_comparison(&mut out, &firsts[0]);
    traced.notes(&mut out);
    Ok(out)
}

/// The seed of input `k` of a run (trace seed or campaign seed). Every
/// cold pass, and every few warm passes, run a new campaign, so that a
/// run covers many drafts and the few expensive ones move it little.
pub fn pass_seed(seed: u64, k: u64) -> u64 {
    seed.wrapping_mul(1 << 20).wrapping_add(k)
}

/// Timed warm passes over each stored campaign.
const WARM_REPEATS: usize = 3;

/// Campaign `k` of a run.
fn campaign_input(r: &Run, k: u64) -> campaign::Spec {
    campaign::Spec {
        seed: pass_seed(r.seed, k),
        count: r.sizes.drafts,
        chunk: r.sizes.chunk,
        jobs: r.sizes.jobs,
        dir: r.dir.clone(),
    }
}

/// `campaign::entry_pass` as one unit of `meter`.
fn timed_entry(
    meter: &mut Meter,
    spec: &campaign::Spec,
    store: &Path,
    cold: bool,
) -> Result<(CampaignReport, Times), String> {
    let (report, t) = meter.unit(|| match campaign::entry_pass(spec, store, cold) {
        Ok((report, secs)) => (Ok(report), secs),
        Err(e) => (Err(e), 0.0),
    });
    Ok((report?, t))
}

/// What a campaign run's passes read.
struct Inputs {
    cold: bool,
    /// Drafts each pass must process.
    expected: u64,
    /// The verdict store the passes use.
    store: PathBuf,
    /// The campaign the last set-up prepared.
    prepared: Option<u64>,
    /// Warm: the results that stored it.
    stored: Option<CampaignState>,
}

impl Inputs {
    /// The campaign of timed pass `i`: a new one for every cold pass, and
    /// for every `WARM_REPEATS` warm passes.
    fn input(&self, i: usize) -> u64 {
        if self.cold {
            i as u64
        } else {
            (i / WARM_REPEATS) as u64
        }
    }

    /// The set-up of campaign `k`, unless it is the one prepared last.
    /// Cold: draw and fingerprint the campaign's drafts. Warm: a cold
    /// `run_campaign` call into a new store. Returns its time.
    fn prepare(&mut self, r: &Run, k: u64, meter: &mut Meter) -> Result<Option<Times>, String> {
        if self.prepared == Some(k) {
            return Ok(None);
        }
        let spec = campaign_input(r, k);
        let t = if self.cold {
            let ((), t) = meter.time(|| {
                for i in 0..spec.count {
                    std::hint::black_box(litmus::gen::campaign_draft(spec.seed, i).fingerprint());
                }
            });
            t
        } else {
            let (report, t) = timed_entry(meter, &spec, &self.store, true)?;
            self.stored = Some(report.state);
            t
        };
        self.prepared = Some(k);
        Ok(Some(t))
    }

    /// Warm: the results that stored the campaign the store holds.
    fn stored_state(&self) -> Option<&CampaignState> {
        self.stored.as_ref()
    }
}

/// The inputs of a campaign run, with its store removed. Nothing is set
/// up front: each campaign's set-up runs right before its timed passes
/// ([`Inputs::prepare`]), so `setup_s` is a median over as many set-ups
/// as the run has campaigns.
fn campaign_inputs(r: &Run) -> Result<Inputs, String> {
    let cold = r.workload == Workload::CampaignCold;
    let probe = campaign_input(r, 0);
    let store = if cold {
        probe.cold_store()
    } else {
        probe.setup_store()
    };
    campaign::remove_store(&store)?;
    Ok(Inputs {
        cold,
        expected: probe.count,
        store,
        prepared: None,
        stored: None,
    })
}

/// Checks one campaign report: passed, complete, every draft processed,
/// the digest `want` when given, and no search when `warm`.
fn check_report(
    out: &mut Outcome,
    report: &CampaignReport,
    expected: u64,
    want: Option<&CampaignState>,
    warm: bool,
) {
    let s = &report.state;
    out.check(report.passed() && report.complete, || {
        format!("campaign failed: {:?}", s.failures.first())
    });
    out.check(s.processed + s.crashed == expected, || {
        format!("processed {} of {expected} drafts", s.processed + s.crashed)
    });
    if let Some(want) = want {
        same_results(out, "warm", s, "cold", want);
    }
    if warm {
        out.check(report.model_cache.invocations == 0, || {
            format!(
                "warm pass ran {} model searches",
                report.model_cache.invocations
            )
        });
        out.check(report.prefix_cache.queries == 0, || {
            format!(
                "warm pass made {} prefix queries",
                report.prefix_cache.queries
            )
        });
    }
}

/// Checks that two passes over the same drafts gave the same results.
fn same_results(out: &mut Outcome, a: &str, sa: &CampaignState, b: &str, sb: &CampaignState) {
    out.check(sa == sb, || {
        format!(
            "{a} pass (digest {:016x}, {} processed) differs from {b} pass (digest {:016x}, {} processed)",
            sa.digest, sa.processed, sb.digest, sb.processed
        )
    });
}

/// Folds one timed pass's results into the outcome: failed drafts are
/// model failures, differential disagreements, deadlocks and crashes.
fn count_pass(out: &mut Outcome, s: &CampaignState) {
    out.attempted += s.processed + s.crashed;
    out.failed += s.model_failures + s.disagreements + s.deadlocks + s.crashed;
}

fn campaign_untraced(r: &Run) -> Result<Outcome, String> {
    let mut meter = Meter::new();
    let mut inputs = campaign_inputs(r)?;
    let mut setups = Vec::new();
    let mut out = Outcome::default();

    // Entry passes through `run_campaign` until time runs out.
    let (mut wall, mut per_s) = (Vec::new(), Vec::new());
    let mut last: Option<CampaignReport> = None;
    let started = Instant::now();
    while more(started, r, wall.len()) {
        let k = inputs.input(wall.len());
        setups.extend(inputs.prepare(r, k, &mut meter)?);
        let spec = campaign_input(r, k);
        let (report, t) = timed_entry(&mut meter, &spec, &inputs.store, inputs.cold)?;
        check_report(
            &mut out,
            &report,
            inputs.expected,
            inputs.stored_state(),
            !inputs.cold,
        );
        let state = &report.state;
        count_pass(&mut out, state);
        wall.push((k, t));
        per_s.push((state.processed + state.crashed) as f64 / t.norm_s);
        last = Some(report);
    }
    let last = last.expect("a pass ran");
    let spec = campaign_input(r, inputs.input(wall.len() - 1));
    let store_bytes = campaign::file_bytes(&inputs.store);

    if inputs.cold {
        // The store the last pass wrote must answer a warm rerun alone.
        let (warm, _) = campaign::entry_pass(&spec, &inputs.store, false)?;
        check_report(&mut out, &warm, inputs.expected, Some(&last.state), true);
    }
    // A loop pass over the last pass's drafts times each draft inside its
    // worker. It must give the last pass's results from the same number
    // of searches.
    let lp = campaign::loop_pass(&spec, &inputs.store, inputs.cold, Mode::Composite)?;
    check_loop(&mut out, &lp, &last.state, &inputs);
    let (a, b) = (last.model_cache.invocations, lp.cache.invocations);
    out.check(a == b, || {
        format!("passes over the same drafts searched {a} and {b} times")
    });

    end_to_end(&mut out, median_times(&setups), &wall, &meter);
    let samples = format!("({} drafts of one loop pass)", lp.draft_ms.len());
    note_untraced(
        &mut out,
        ("drafts_per_s", median(&per_s)),
        "draft",
        &lp.draft_ms,
        &samples,
    );
    out.note(
        "store_mb",
        store_bytes as f64 / 1e6,
        "MB",
        "verdict + certificate records",
    );
    out.note(
        "model_searches",
        lp.cache.invocations as f64,
        "count",
        "searches + replays of the loop pass",
    );
    Ok(out)
}

/// Checks a loop pass against the entry pass over the same drafts.
fn check_loop(out: &mut Outcome, lp: &LoopPass, entry: &CampaignState, inputs: &Inputs) {
    same_results(out, "loop", &lp.state, "entry", entry);
    if !inputs.cold {
        out.check(lp.cache.invocations == 0 && lp.prefix.queries == 0, || {
            format!(
                "warm loop pass ran {} searches and {} prefix queries",
                lp.cache.invocations, lp.prefix.queries
            )
        });
    }
}

fn campaign_traced(r: &Run) -> Result<Outcome, String> {
    let mut meter = Meter::off();
    let mut inputs = campaign_inputs(r)?;
    let mut out = Outcome::default();
    let mut traced = Traced::default();
    let started = Instant::now();
    while more(started, r, traced.passes) {
        // An untraced entry pass before each traced loop pass over the
        // same drafts: the reference digest, and the wall time tracing
        // adds to.
        let k = inputs.input(traced.passes);
        inputs.prepare(r, k, &mut meter)?;
        let spec = campaign_input(r, k);
        let (report, untraced) = timed_entry(&mut meter, &spec, &inputs.store, inputs.cold)?;
        check_report(
            &mut out,
            &report,
            inputs.expected,
            inputs.stored_state(),
            !inputs.cold,
        );
        traced.untraced_wall.push((k, untraced));

        spans::set_enabled(true);
        let lp = campaign::loop_pass(&spec, &inputs.store, inputs.cold, Mode::Layered)?;
        spans::set_enabled(false);
        check_loop(&mut out, &lp, &report.state, &inputs);
        count_pass(&mut out, &lp.state);
        traced.absorb(
            &mut out,
            (k, Times::host(lp.wall_s)),
            &lp.tally,
            lp.pool_capacity_s,
            lp.store_bytes,
        );
    }
    out.metrics = traced.metrics();
    traced.notes(&mut out);
    Ok(out)
}

/// Per-layer totals over the traced passes of one run.
#[derive(Debug, Default)]
struct Traced {
    passes: usize,
    wall: Vec<Sample>,
    untraced_wall: Vec<Sample>,
    breakdown: Breakdown,
    tally: Tally,
    pool_busy_s: f64,
    pool_capacity_s: f64,
    store_bytes: u64,
    coverage: Vec<f64>,
}

impl Traced {
    /// Takes the spans of the pass just traced and adds them up.
    fn absorb(
        &mut self,
        out: &mut Outcome,
        wall: Sample,
        tally: &Tally,
        capacity_s: f64,
        store_bytes: u64,
    ) {
        let taken = spans::take();
        if let Err(e) = spans::check_nesting(&taken) {
            out.errors.push(format!("spans do not nest: {e}"));
        }
        let b = spans::breakdown(&taken);
        self.coverage.push(1.0 - ratio(b.other_s(), b.busy_s));
        self.pool_busy_s += taken
            .iter()
            .filter(|s| s.name == spans::TASK)
            .map(|s| s.dur_ns() as f64 * 1e-9)
            .sum::<f64>();
        for (name, s) in &b.self_s {
            *self.breakdown.self_s.entry(name).or_default() += s;
        }
        for (name, n) in &b.count {
            *self.breakdown.count.entry(name).or_default() += n;
        }
        self.breakdown.busy_s += b.busy_s;
        self.tally.absorb(tally);
        self.pool_capacity_s += capacity_s;
        self.store_bytes = store_bytes;
        self.wall.push(wall);
        self.passes += 1;
        out.spans = taken;
    }

    /// The per-layer metrics, per traced pass, in `BENCHMARK.json` order.
    fn metrics(&self) -> Vec<Metric> {
        let n = self.passes.max(1) as f64;
        let b = &self.breakdown;
        let t = &self.tally;
        let s = |name: &str| metric(format!("{name}_s"), b.self_of(name) / n, "s");
        let c = |name: &str, v: u64| metric(name, v as f64 / n, "count");
        let mut m = vec![
            s("litmus.draft"),
            s("litmus.finish"),
            s("litmus.check"),
            s("model.canon"),
            s("model.lookup"),
            s("model.search"),
            s("model.replay"),
            s("model.witness"),
            c("model.queries", t.queries),
            metric(
                "model.hit_ratio",
                ratio(t.hits as f64, t.queries as f64),
                "ratio",
            ),
            c("model.searches", t.searches),
            c("model.replays", t.replays),
            c("model.search_nodes", t.nodes),
            c("model.pruned", t.pruned),
        ];
        for (i, class) in ["plain", "type1", "type2", "type3"].iter().enumerate() {
            let us = ratio(t.class_s[i] * 1e6, t.class_nodes[i] as f64);
            m.push(metric(format!("model.us_per_node.{class}"), us, "us"));
        }
        m.extend([
            s("store.open"),
            c("store.loads", b.count_of("store.load")),
            s("store.load"),
            c("store.saves", b.count_of("store.save")),
            s("store.save"),
            c("store.cert_loads", b.count_of("store.cert_load")),
            s("store.cert_load"),
            c("store.cert_saves", b.count_of("store.cert_save")),
            s("store.cert_save"),
            metric("store.mb", self.store_bytes as f64 / 1e6, "MB"),
            s("campaign.checkpoint"),
            s("harness.compare"),
            s("sim.lower"),
            s("sim.run"),
            c("sim.runs", t.runs),
            c("sim.cycles", t.cycles),
            c("sim.ticks", t.ticks),
            c("sim.events_armed", t.events_armed),
            metric(
                "sim.ns_per_tick",
                ratio(b.self_of("sim.run") * 1e9, t.ticks as f64),
                "ns",
            ),
        ]);
        for (i, st) in t.by_type.iter().enumerate() {
            let k = i + 1;
            let cost = st.rmw_cost.write_buffer_cycles + st.rmw_cost.ra_wa_cycles;
            m.extend([
                metric(
                    format!("sim.avg_rmw_cost.t{k}"),
                    st.avg_rmw_cost(),
                    "cycles",
                ),
                metric(
                    format!("sim.wb_share.t{k}"),
                    100.0 * ratio(st.rmw_cost.write_buffer_cycles as f64, cost as f64),
                    "%",
                ),
                c(&format!("sim.lock_retries.t{k}"), st.lock_retries),
                c(&format!("sim.rmw_drains.t{k}"), st.rmw_drains),
                c(&format!("sim.broadcasts.t{k}"), st.rmw_broadcasts),
            ]);
        }
        m.extend([
            s("workloads.tracegen"),
            metric("pool.busy_s", self.pool_busy_s / n, "s"),
            metric(
                "pool.idle_s",
                (self.pool_capacity_s - self.pool_busy_s) / n,
                "s",
            ),
            metric(
                "pool.utilization",
                ratio(self.pool_busy_s, self.pool_capacity_s),
                "ratio",
            ),
            metric("busy_s", b.busy_s / n, "s"),
            metric("other_s", b.other_s() / n, "s"),
            metric(
                "trace.overhead_s",
                wall_of(&self.wall, raw) - wall_of(&self.untraced_wall, raw),
                "s",
            ),
        ]);
        m
    }

    fn notes(&self, out: &mut Outcome) {
        out.note(
            "layer_coverage",
            100.0 * self.coverage.iter().copied().fold(f64::INFINITY, f64::min),
            "%",
            &format!(
                "lowest share of traced busy time in layer spans over {} passes",
                self.passes
            ),
        );
        out.note(
            "traced_wall_s",
            wall_of(&self.wall, raw),
            "s",
            "wall_s of the traced passes",
        );
        out.note(
            "untraced_wall_s",
            wall_of(&self.untraced_wall, raw),
            "s",
            "wall_s of the untraced passes between them",
        );
    }
}
