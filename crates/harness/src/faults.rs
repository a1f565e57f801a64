//! Deterministic fault injection for the harness's persistence paths.
//!
//! Every write path that touches durable state — verdict-store appends,
//! compaction, campaign checkpoints, report output — passes through a
//! named **fault point**. With no fault mode installed (the default,
//! including every production run) a fault point is a single mutex-free
//! atomic load and the I/O proceeds untouched. When a mode is installed,
//! each arrival at a point consults the registry and may be answered
//! with an injected failure:
//!
//! * [`FaultAction::IoError`] — the operation fails with a generic
//!   injected I/O error, nothing written;
//! * [`FaultAction::NoSpace`] — as above, with an ENOSPC-shaped message
//!   (a full disk is the most common real-world trigger);
//! * [`FaultAction::ShortWrite`] — half the buffer is written, then the
//!   operation fails: a torn record, exactly what a crash mid-`write`
//!   leaves behind;
//! * [`FaultAction::Kill`] — the process exits with status 137
//!   (`kill -9`'s waitpid status), simulating a hard kill at the point;
//! * [`FaultAction::Panic`] — the calling thread panics, simulating a
//!   harness bug inside a worker.
//!
//! Two modes drive the decisions:
//!
//! * **Random** ([`install_random`], CLI `--faults SEED:RATE`): each
//!   arrival hashes `(seed, point, arrival#)` and fires with probability
//!   `rate`. The stream is a pure function of the seed and the arrival
//!   order, so a single-threaded path (checkpointing, compaction) is
//!   exactly reproducible, and any path is *statistically* reproducible.
//!   Random mode only injects I/O-shaped faults at I/O points and kills
//!   at kill points — it never panics (a random panic would change
//!   which tests execute and break the digest-equality contract the
//!   chaos suite checks).
//! * **Plan** ([`install_plan`]): an explicit list of
//!   `(point, arrival#, action)` triples for tests that need one
//!   surgical fault — including panics.
//!
//! The contract the chaos suite enforces on top of this module:
//! injected faults may make verdicts **missing** (a record not
//! persisted, a checkpoint not advanced, a test reported `crashed`) but
//! never **wrong** — whatever survives re-opens, re-resumes, and
//! re-merges to the same answers a fault-free run produces.
//!
//! The registry is process-wide (the store and checkpoint hooks it
//! guards are process-wide too); tests that install modes must
//! serialize on a lock, as `tests/chaos.rs` does.

use rmw_types::fasthash::FastHasher;
use std::collections::HashMap;
use std::hash::Hasher as _;
use std::io::{self, Write};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

/// What an injected fault does when it fires. See the module docs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Fail with a generic injected I/O error; nothing is written.
    IoError,
    /// Fail with an ENOSPC-shaped error; nothing is written.
    NoSpace,
    /// Write half the buffer, then fail — a torn write.
    ShortWrite,
    /// Exit the process with status 137, as `kill -9` would.
    Kill,
    /// Panic the calling thread (plan mode only in practice).
    Panic,
}

/// One entry of a programmatic fault plan: fire `action` on the
/// `arrival`-th time (0-based, process-wide) `point` is reached.
#[derive(Debug, Clone)]
pub struct PlannedFault {
    /// Fault-point name, e.g. `"store.append.write"`.
    pub point: String,
    /// Which arrival at the point fires (0 = the first).
    pub arrival: u64,
    /// What happens when it fires.
    pub action: FaultAction,
}

/// What kind of faults are meaningful at a point. Random mode uses this
/// to keep kills at kill points and panics out of random streams.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PointClass {
    Io,
    Kill,
    Panic,
}

enum Mode {
    Random { seed: u64, rate_ppm: u64 },
    Plan(Vec<PlannedFault>),
}

struct Registry {
    mode: Mode,
    /// Arrivals per point so far (the `arrival#` both modes key on).
    arrivals: HashMap<String, u64>,
}

static ACTIVE: AtomicBool = AtomicBool::new(false);
static FIRED: AtomicU64 = AtomicU64::new(0);
static REGISTRY: Mutex<Option<Registry>> = Mutex::new(None);

/// How this crate's unit tests share the process-wide registry: a test
/// that installs a mode holds the write side, and a test whose code
/// passes through fault points holds the read side
/// ([`passing_through`]). Without it, a random mode installed by one test
/// fires into whichever store or checkpoint test runs beside it, and
/// both see faults they did not ask for.
#[cfg(test)]
static TEST_LOCK: std::sync::RwLock<()> = std::sync::RwLock::new(());

/// The read side of [`TEST_LOCK`], for unit tests that reach fault
/// points without installing a mode.
#[cfg(test)]
pub(crate) fn passing_through() -> std::sync::RwLockReadGuard<'static, ()> {
    TEST_LOCK
        .read()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Installs random mode: each arrival at a point fires with probability
/// `rate_ppm` parts per million, decided by hashing
/// `(seed, point, arrival#)`. Replaces any installed mode.
pub fn install_random(seed: u64, rate_ppm: u64) {
    install(Mode::Random { seed, rate_ppm });
}

/// Installs an explicit fault plan. Replaces any installed mode.
pub fn install_plan(plan: Vec<PlannedFault>) {
    install(Mode::Plan(plan));
}

fn install(mode: Mode) {
    let mut reg = lock();
    *reg = Some(Registry {
        mode,
        arrivals: HashMap::new(),
    });
    FIRED.store(0, Ordering::Relaxed);
    ACTIVE.store(true, Ordering::Relaxed);
}

/// Uninstalls any fault mode; fault points become free again.
pub fn clear() {
    let mut reg = lock();
    *reg = None;
    ACTIVE.store(false, Ordering::Relaxed);
}

/// True while a fault mode is installed.
pub fn active() -> bool {
    ACTIVE.load(Ordering::Relaxed)
}

/// Faults fired since the last [`install_random`]/[`install_plan`].
pub fn fired() -> u64 {
    FIRED.load(Ordering::Relaxed)
}

/// Parses a `--faults SEED:RATE` spec. `RATE` is a probability in
/// `[0, 1]` (e.g. `0.01`); returns `(seed, rate_ppm)`.
pub fn parse_spec(s: &str) -> Option<(u64, u64)> {
    let (seed, rate) = s.split_once(':')?;
    let seed: u64 = seed.trim().parse().ok()?;
    let rate: f64 = rate.trim().parse().ok()?;
    if !(0.0..=1.0).contains(&rate) {
        return None;
    }
    Some((seed, (rate * 1e6).round() as u64))
}

fn lock() -> std::sync::MutexGuard<'static, Option<Registry>> {
    // A panicking holder (an injected Panic raced with another point)
    // leaves nothing corrupt: the registry is a counter map.
    match REGISTRY.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// The decision at one arrival of `point`. `None` = no fault.
fn decide(point: &str, class: PointClass) -> Option<FaultAction> {
    if !active() {
        return None;
    }
    let mut guard = lock();
    let reg = guard.as_mut()?;
    let arrival = {
        let n = reg.arrivals.entry(point.to_owned()).or_insert(0);
        let a = *n;
        *n += 1;
        a
    };
    let action = match &reg.mode {
        Mode::Random { seed, rate_ppm } => {
            let mut h = FastHasher::default();
            h.write_u64(*seed);
            h.write(point.as_bytes());
            h.write_u64(arrival);
            let h = h.finish();
            if h % 1_000_000 >= *rate_ppm {
                None
            } else {
                match class {
                    PointClass::Io => Some(match (h / 1_000_000) % 3 {
                        0 => FaultAction::IoError,
                        1 => FaultAction::NoSpace,
                        _ => FaultAction::ShortWrite,
                    }),
                    PointClass::Kill => Some(FaultAction::Kill),
                    // Random panics would change which tests run and
                    // break digest equality; plans can still ask.
                    PointClass::Panic => None,
                }
            }
        }
        Mode::Plan(plan) => plan
            .iter()
            .find(|p| p.point == point && p.arrival == arrival)
            .map(|p| p.action),
    };
    if action.is_some() {
        FIRED.fetch_add(1, Ordering::Relaxed);
    }
    action
}

fn injected_err(point: &str, action: FaultAction) -> io::Error {
    match action {
        FaultAction::NoSpace => io::Error::other(format!(
            "injected fault at {point}: no space left on device"
        )),
        _ => io::Error::other(format!("injected I/O fault at {point}")),
    }
}

/// An I/O fault point with no buffer of its own (opens, renames,
/// syncs): returns `Err` when a fault fires, `Ok(())` otherwise.
pub fn io_point(point: &str) -> io::Result<()> {
    match decide(point, PointClass::Io) {
        None => Ok(()),
        Some(FaultAction::Kill) => die(point),
        Some(FaultAction::Panic) => panic!("injected panic at {point}"),
        Some(a) => Err(injected_err(point, a)),
    }
}

/// A buffered-write fault point: writes `buf` to `w` unless a fault
/// fires. [`FaultAction::ShortWrite`] writes the first half and then
/// fails — the torn-record shape a mid-write crash leaves; a planned
/// [`FaultAction::Kill`] also tears first, then exits, so subprocess
/// chaos tests exercise real torn tails.
pub fn write_point(w: &mut impl Write, buf: &[u8], point: &str) -> io::Result<()> {
    match decide(point, PointClass::Io) {
        None => w.write_all(buf),
        Some(FaultAction::ShortWrite) => {
            w.write_all(&buf[..buf.len() / 2])?;
            let _ = w.flush();
            Err(injected_err(point, FaultAction::ShortWrite))
        }
        Some(FaultAction::Kill) => {
            let _ = w.write_all(&buf[..buf.len() / 2]);
            let _ = w.flush();
            die(point)
        }
        Some(FaultAction::Panic) => panic!("injected panic at {point}"),
        Some(a) => Err(injected_err(point, a)),
    }
}

/// A kill point: a place where dying must be safe (the chaos campaign
/// kills here). In random mode only `Kill` can fire; plans can also
/// place one anywhere via [`io_point`]/[`write_point`].
pub fn kill_point(point: &str) {
    if decide(point, PointClass::Kill).is_some() {
        die(point);
    }
}

/// A panic point: fires only from an explicit plan (random mode never
/// panics; see the module docs).
pub fn panic_point(point: &str) {
    if let Some(FaultAction::Panic) = decide(point, PointClass::Panic) {
        panic!("injected panic at {point}");
    }
}

fn die(point: &str) -> ! {
    eprintln!("faults: injected kill at {point}");
    std::process::exit(137);
}

#[cfg(test)]
mod tests {
    use super::*;

    // The registry is process-wide; every test here owns it via the
    // write side of this lock.
    fn test_lock() -> std::sync::RwLockWriteGuard<'static, ()> {
        TEST_LOCK
            .write()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    #[test]
    fn inactive_points_are_free_and_succeed() {
        let _g = test_lock();
        clear();
        assert!(!active());
        assert!(io_point("x").is_ok());
        let mut out = Vec::new();
        write_point(&mut out, b"abcd", "y").unwrap();
        assert_eq!(out, b"abcd");
        kill_point("z");
        panic_point("w");
        assert_eq!(fired(), 0);
    }

    #[test]
    fn plans_fire_on_the_exact_arrival() {
        let _g = test_lock();
        install_plan(vec![PlannedFault {
            point: "p.io".into(),
            arrival: 1,
            action: FaultAction::NoSpace,
        }]);
        assert!(io_point("p.io").is_ok(), "arrival 0 passes");
        let err = io_point("p.io").unwrap_err();
        assert!(err.to_string().contains("no space"), "{err}");
        assert!(io_point("p.io").is_ok(), "arrival 2 passes again");
        assert_eq!(fired(), 1);
        clear();
    }

    #[test]
    fn short_writes_tear_the_buffer_in_half() {
        let _g = test_lock();
        install_plan(vec![PlannedFault {
            point: "p.w".into(),
            arrival: 0,
            action: FaultAction::ShortWrite,
        }]);
        let mut out = Vec::new();
        let err = write_point(&mut out, b"abcdefgh", "p.w").unwrap_err();
        assert!(err.to_string().contains("injected"), "{err}");
        assert_eq!(out, b"abcd", "exactly half the buffer landed");
        clear();
    }

    #[test]
    fn random_mode_is_deterministic_and_rate_zero_never_fires() {
        let _g = test_lock();
        install_random(7, 0);
        for _ in 0..100 {
            io_point("r").unwrap();
        }
        assert_eq!(fired(), 0, "rate 0 fires nothing");

        // Rate 1.0 always fires, and the kind stream replays exactly.
        let kinds = |seed| {
            install_random(seed, 1_000_000);
            let kinds: Vec<String> = (0..16)
                .map(|_| io_point("r").unwrap_err().to_string())
                .collect();
            assert_eq!(fired(), 16);
            kinds
        };
        let a = kinds(42);
        let b = kinds(42);
        assert_eq!(a, b, "same seed, same stream");
        assert_ne!(a, kinds(43), "different seed, different stream");
        clear();
    }

    #[test]
    fn random_mode_never_panics_at_panic_points() {
        let _g = test_lock();
        install_random(1, 1_000_000);
        for _ in 0..50 {
            panic_point("p.panic");
        }
        clear();
    }

    #[test]
    fn specs_parse_probabilities() {
        assert_eq!(parse_spec("42:0.5"), Some((42, 500_000)));
        assert_eq!(parse_spec("0:1"), Some((0, 1_000_000)));
        assert_eq!(parse_spec("7:0"), Some((7, 0)));
        assert_eq!(parse_spec("7:2.0"), None, "rate > 1 rejected");
        assert_eq!(parse_spec("x:0.1"), None);
        assert_eq!(parse_spec("42"), None);
    }
}
