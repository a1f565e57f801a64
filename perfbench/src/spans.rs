//! In-memory span recorder for the traced run.
//!
//! A span is `(id, parent, thread, tag, name, start, end)`. Spans are
//! recorded at layer boundaries from the benchmark's own code — around
//! the public calls into each crate — and kept in memory until the run
//! ends. Recording is off unless [`set_enabled`] turned it on; a disabled
//! [`enter`] costs one atomic load and reads no clock.
//!
//! Self time is a span's duration minus the durations of its children on
//! the same thread. A pool task's parent is the `pool.run` span on the
//! dispatching thread; that edge crosses threads, so it never counts
//! against the parent's self time (the dispatcher is waiting, not busy).

use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Spans that are not a layer: the pass itself, the dispatcher's wait on
/// the pool, and one pool task. Their self time is the benchmark's
/// `other_s` (except `pool.run`, which is waiting and not busy at all).
pub const PASS: &str = "pass";
/// The dispatching thread blocked in `exec_pool::run_all_catching`.
pub const POOL_RUN: &str = "pool.run";
/// One task on a pool worker (one campaign draft).
pub const TASK: &str = "task";

/// Every layer span name the benchmark records. Each becomes a per-layer
/// `<name>_s` self-time metric.
pub const LAYERS: [&str; 18] = [
    "litmus.draft",
    "litmus.finish",
    "litmus.check",
    "model.canon",
    "model.lookup",
    "model.search",
    "model.replay",
    "model.witness",
    "store.open",
    "store.load",
    "store.save",
    "store.cert_load",
    "store.cert_save",
    "campaign.checkpoint",
    "harness.compare",
    "sim.lower",
    "sim.run",
    "workloads.tracegen",
];

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_THREAD: AtomicU64 = AtomicU64::new(0);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());

thread_local! {
    /// Open spans on this thread, innermost last: `(id, tag)`.
    static STACK: RefCell<Vec<(u64, u64)>> = const { RefCell::new(Vec::new()) };
    static THREAD: Cell<Option<u64>> = const { Cell::new(None) };
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn thread_index() -> u64 {
    THREAD.with(|t| {
        t.get().unwrap_or_else(|| {
            let id = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
            t.set(Some(id));
            id
        })
    })
}

/// One closed span. Times are nanoseconds since the process's first span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Unique id (never 0).
    pub id: u64,
    /// The enclosing span's id, or 0 for a root.
    pub parent: u64,
    /// Dense index of the recording thread.
    pub thread: u64,
    /// Draft index (campaigns) or run index (Fig. 11) the span works for.
    pub tag: u64,
    /// Span name: a [`LAYERS`] entry, [`PASS`], [`POOL_RUN`] or [`TASK`].
    pub name: &'static str,
    /// Start, in ns.
    pub start_ns: u64,
    /// End, in ns.
    pub end_ns: u64,
}

impl Span {
    /// Duration in ns.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Turns recording on or off for the whole process.
pub fn set_enabled(on: bool) {
    let _ = epoch();
    ENABLED.store(on, Ordering::SeqCst);
}

/// True while spans are being recorded.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Removes and returns every span recorded so far.
pub fn take() -> Vec<Span> {
    std::mem::take(&mut *SPANS.lock().expect("span buffer lock"))
}

/// An open span; recorded when dropped.
pub struct Guard {
    open: Option<Open>,
}

struct Open {
    id: u64,
    parent: u64,
    tag: u64,
    name: &'static str,
    start: Instant,
}

/// Opens a span under the innermost open span of this thread (a root when
/// there is none), inheriting its tag.
pub fn enter(name: &'static str) -> Guard {
    if !enabled() {
        return Guard { open: None };
    }
    let (parent, tag) = STACK.with(|s| s.borrow().last().copied().unwrap_or((0, 0)));
    open(name, parent, tag)
}

/// Opens a span with an explicit parent (possibly on another thread) and
/// tag; used for pool tasks.
pub fn enter_under(name: &'static str, parent: u64, tag: u64) -> Guard {
    if !enabled() {
        return Guard { open: None };
    }
    open(name, parent, tag)
}

fn open(name: &'static str, parent: u64, tag: u64) -> Guard {
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    STACK.with(|s| s.borrow_mut().push((id, tag)));
    Guard {
        open: Some(Open {
            id,
            parent,
            tag,
            name,
            start: Instant::now(),
        }),
    }
}

impl Guard {
    /// The span's id (0 when recording is off).
    pub fn id(&self) -> u64 {
        self.open.as_ref().map_or(0, |o| o.id)
    }

    /// Renames the span before it closes (a model query is named by how
    /// it was answered, which is known only afterwards).
    pub fn rename(&mut self, name: &'static str) {
        if let Some(o) = &mut self.open {
            o.name = name;
        }
    }

    /// Seconds since the span opened, when recording.
    pub fn elapsed_s(&self) -> Option<f64> {
        self.open.as_ref().map(|o| o.start.elapsed().as_secs_f64())
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        let Some(o) = self.open.take() else { return };
        let end = Instant::now();
        STACK.with(|s| {
            let popped = s.borrow_mut().pop();
            debug_assert_eq!(popped.map(|p| p.0), Some(o.id), "spans close in LIFO order");
        });
        let base = epoch();
        let span = Span {
            id: o.id,
            parent: o.parent,
            thread: thread_index(),
            tag: o.tag,
            name: o.name,
            start_ns: o.start.duration_since(base).as_nanos() as u64,
            end_ns: end.duration_since(base).as_nanos() as u64,
        };
        SPANS.lock().expect("span buffer lock").push(span);
    }
}

/// Per-name totals of a set of spans.
#[derive(Debug, Default, Clone)]
pub struct Breakdown {
    /// Self seconds per span name.
    pub self_s: BTreeMap<&'static str, f64>,
    /// Spans per name.
    pub count: BTreeMap<&'static str, u64>,
    /// Busy seconds: every span's self time except the dispatcher's wait
    /// in `pool.run`.
    pub busy_s: f64,
}

impl Breakdown {
    /// Self seconds of `name` (0 when absent).
    pub fn self_of(&self, name: &str) -> f64 {
        self.self_s.get(name).copied().unwrap_or(0.0)
    }

    /// Number of `name` spans (0 when absent).
    pub fn count_of(&self, name: &str) -> u64 {
        self.count.get(name).copied().unwrap_or(0)
    }

    /// Busy time not covered by any layer span.
    pub fn other_s(&self) -> f64 {
        self.busy_s - LAYERS.iter().map(|l| self.self_of(l)).sum::<f64>()
    }
}

/// Self times of `spans`: each span's duration minus its same-thread
/// children's durations.
pub fn breakdown(spans: &[Span]) -> Breakdown {
    let by_id: HashMap<u64, &Span> = spans.iter().map(|s| (s.id, s)).collect();
    let mut child_ns: HashMap<u64, u64> = HashMap::new();
    for s in spans {
        if let Some(p) = by_id.get(&s.parent) {
            if p.thread == s.thread {
                *child_ns.entry(p.id).or_default() += s.dur_ns();
            }
        }
    }
    let mut out = Breakdown::default();
    for s in spans {
        let own = s.dur_ns() - child_ns.get(&s.id).copied().unwrap_or(0);
        let secs = own as f64 * 1e-9;
        *out.self_s.entry(s.name).or_default() += secs;
        *out.count.entry(s.name).or_default() += 1;
        if s.name != POOL_RUN {
            out.busy_s += secs;
        }
    }
    out
}

/// Checks that every span lies inside its parent's interval and that
/// same-thread children do not overlap each other; returns the first
/// violation.
pub fn check_nesting(spans: &[Span]) -> Result<(), String> {
    let by_id: HashMap<u64, &Span> = spans.iter().map(|s| (s.id, s)).collect();
    let mut children: HashMap<(u64, u64), Vec<&Span>> = HashMap::new();
    for s in spans {
        if s.parent == 0 {
            continue;
        }
        let p = by_id
            .get(&s.parent)
            .ok_or_else(|| format!("span {} ({}) has unknown parent {}", s.id, s.name, s.parent))?;
        if s.start_ns < p.start_ns || s.end_ns > p.end_ns {
            return Err(format!(
                "span {} ({}) is not inside its parent {} ({})",
                s.id, s.name, p.id, p.name
            ));
        }
        children.entry((s.parent, s.thread)).or_default().push(s);
    }
    for kids in children.values_mut() {
        kids.sort_by_key(|s| s.start_ns);
        for w in kids.windows(2) {
            if w[1].start_ns < w[0].end_ns {
                return Err(format!("sibling spans {} and {} overlap", w[0].id, w[1].id));
            }
        }
    }
    Ok(())
}

/// Writes spans as tab-separated lines with a header.
pub fn write_tsv(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    use std::io::Write as _;
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "id\tparent\tthread\ttag\tname\tstart_ns\tend_ns")?;
    for s in spans {
        writeln!(
            out,
            "{}\t{}\t{}\t{}\t{}\t{}\t{}",
            s.id, s.parent, s.thread, s.tag, s.name, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}
