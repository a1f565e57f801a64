//! MOESI distributed-directory coherence over the mesh, with the line
//! locking mechanisms of the paper's RMW implementations (§3.1–3.3).
//!
//! The model is *transaction-level*: each access resolves immediately into
//! a protocol outcome (hit / forward / memory fetch / upgrade) whose
//! **latency** is composed from L1/L2/memory access times and mesh
//! traversals, and whose **state transitions** are applied atomically. This
//! preserves exactly the timing structure the paper's claims rest on —
//! write-buffer drains cost serialized coherence transactions, RMW reads to
//! shared lines cost invalidation round-trips, and type-3's directory
//! locking avoids those invalidations — without simulating individual
//! protocol races (which GEM5 does but the paper does not measure).
//!
//! Two lock flavors (paper §3.2–3.3):
//!
//! * [`LockKind::Local`] — the line is locked in the holder's L1 after
//!   acquiring read/write permission (type-1/2 RMWs, and type-3 when the
//!   holder ends its read with the line writable, E or M). All other
//!   cores' coherence requests to the line are **denied** until unlock.
//! * [`LockKind::Directory`] — the line is locked at its home directory in
//!   shared state (type-3 RMWs): other cores may keep *reading* their S
//!   copies (type-3 atomicity permits reads between `Ra` and `Wa`), but any
//!   request that needs the directory (misses, upgrades, other RMWs) is
//!   denied.
//!
//! An RMW takes its permission and its lock in one
//! [`CoherenceSystem::acquire`], which picks the flavor from the state the
//! permission transaction leaves. A denied [`read`](CoherenceSystem::read),
//! [`write`](CoherenceSystem::write) or `acquire` changes nothing, so a
//! blocked requester retries the same call once the lock is released.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use interconnect::{Cycle, Mesh, MeshConfig};
use rmw_types::fasthash::FastHashMap;
use rmw_types::CacheLine;

/// Per-core MOESI state of a cache line.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LineState {
    /// Modified: sole valid copy, dirty.
    M,
    /// Owned: dirty, shared with S copies; this core supplies data.
    O,
    /// Exclusive: sole valid copy, clean.
    E,
    /// Shared: clean copy, possibly many.
    S,
    /// Invalid.
    #[default]
    I,
}

impl LineState {
    /// Valid (readable) states.
    pub fn is_valid(self) -> bool {
        self != LineState::I
    }

    /// States granting write permission without a coherence transaction.
    pub fn is_writable(self) -> bool {
        matches!(self, LineState::M | LineState::E)
    }

    /// States that make this core the designated data supplier.
    pub fn is_owner(self) -> bool {
        matches!(self, LineState::M | LineState::O | LineState::E)
    }
}

/// Which locking protocol holds a line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockKind {
    /// Locked in the holder's L1 (holder has exclusive permission).
    Local,
    /// Locked at the home directory (holder has read permission; other
    /// S copies remain readable).
    Directory,
}

/// An active line lock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LineLock {
    /// The locking core.
    pub holder: usize,
    /// The protocol flavor.
    pub kind: LockKind,
}

/// Why an access could not proceed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Denied {
    /// The line is locked by another core's in-flight RMW; retry after it
    /// unlocks. Carries the holder for deadlock diagnosis.
    LockedBy(usize),
}

/// Latency and geometry parameters (paper Table 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoherenceConfig {
    /// Number of cores (= L2 banks = directory slices).
    pub num_cores: usize,
    /// L1 access latency (paper: 2 cycles).
    pub l1_latency: Cycle,
    /// L2 bank access latency (paper: 6 cycles).
    pub l2_latency: Cycle,
    /// Main-memory latency (paper: 300 cycles).
    pub memory_latency: Cycle,
    /// The NoC the protocol messages travel on.
    pub mesh: MeshConfig,
}

impl CoherenceConfig {
    /// The paper's Table 2 configuration.
    pub fn paper_table2() -> Self {
        CoherenceConfig {
            num_cores: 32,
            l1_latency: 2,
            l2_latency: 6,
            memory_latency: 300,
            mesh: MeshConfig::paper_32(),
        }
    }

    /// A small 4-core configuration for tests.
    pub fn small(num_cores: usize) -> Self {
        CoherenceConfig {
            num_cores,
            l1_latency: 2,
            l2_latency: 6,
            memory_latency: 50,
            mesh: MeshConfig {
                width: num_cores.max(1),
                height: 1,
                link_latency: 1,
                router_latency: 4,
            },
        }
    }

    /// The home node (directory slice / L2 bank) of a line: 64-byte
    /// lines interleaved across the cores. The simulator's config
    /// rejects any other line size, which would leave slices unused.
    fn home_of(&self, line: CacheLine) -> usize {
        ((line.0 >> 6) % self.num_cores as u64) as usize
    }
}

#[derive(Debug, Clone)]
struct Line {
    /// The unique M/O/E core and its state, if any. MOESI permits at most
    /// one owner per line, so storing it explicitly (instead of a
    /// `num_cores`-wide state slab) keeps per-line memory flat as the
    /// machine scales to 128/256 cores.
    owner: Option<(u32, LineState)>,
    /// Cores holding plain `S` copies, sorted ascending and disjoint from
    /// `owner`. Every other core is implicitly `I`. Write invalidation
    /// walks this set — O(sharers), not O(num_cores).
    sharers: Vec<u32>,
    lock: Option<LineLock>,
    /// Whether the line has ever been brought on-chip (false ⇒ next access
    /// pays the memory latency).
    on_chip: bool,
}

impl Line {
    fn new() -> Self {
        Line {
            owner: None,
            sharers: Vec::new(),
            lock: None,
            on_chip: false,
        }
    }

    fn state_of(&self, core: usize) -> LineState {
        match self.owner {
            Some((c, s)) if c as usize == core => s,
            _ if self.sharers.binary_search(&(core as u32)).is_ok() => LineState::S,
            _ => LineState::I,
        }
    }

    fn add_sharer(&mut self, core: usize) {
        if let Err(at) = self.sharers.binary_search(&(core as u32)) {
            self.sharers.insert(at, core as u32);
        }
    }

    /// Cores other than `core` holding a valid copy.
    fn other_valid(&self, core: usize) -> impl Iterator<Item = usize> + '_ {
        self.owner
            .iter()
            .map(|&(c, _)| c as usize)
            .chain(self.sharers.iter().map(|&c| c as usize))
            .filter(move |&c| c != core)
    }
}

/// Whether `core`'s prospective access is denied by `lock`.
/// `needs_coherence` is true when the access cannot be satisfied from
/// the local L1 (miss or upgrade) and so must consult the directory.
fn denied_by_lock(lock: Option<LineLock>, core: usize, needs_coherence: bool) -> Option<usize> {
    let lock = lock?;
    if lock.holder == core {
        return None;
    }
    match lock.kind {
        // A local lock implies the holder holds the sole valid copy, so
        // any other core's access needs coherence and is denied.
        LockKind::Local => Some(lock.holder),
        // A directory lock only blocks requests that reach the
        // directory; local S-state reads proceed.
        LockKind::Directory => needs_coherence.then_some(lock.holder),
    }
}

/// The coherence system: per-line MOESI state, a home directory slice per
/// core, and the lock table.
#[derive(Debug, Clone)]
pub struct CoherenceSystem {
    config: CoherenceConfig,
    mesh: Mesh,
    lines: FastHashMap<CacheLine, Line>,
}

impl CoherenceSystem {
    /// Creates a system with all lines invalid everywhere.
    ///
    /// # Panics
    ///
    /// Panics if `num_cores` is zero or exceeds the mesh size.
    pub fn new(config: CoherenceConfig) -> Self {
        assert!(config.num_cores > 0, "need at least one core");
        assert!(
            config.num_cores <= config.mesh.num_nodes(),
            "more cores than mesh nodes"
        );
        CoherenceSystem {
            config,
            mesh: Mesh::new(config.mesh),
            lines: FastHashMap::default(),
        }
    }

    /// Time for a coherence request from `core` to *reach* the line's home
    /// directory (L1 lookup + mesh traversal). The simulator uses this to
    /// model requests in flight: a request is checked against line locks
    /// when it **arrives**, not when it is sent — which is what makes the
    /// Fig. 10 write-deadlock physically possible.
    pub fn request_latency(&self, core: usize, line: CacheLine) -> Cycle {
        self.config.l1_latency + self.mesh.latency(core, self.config.home_of(line))
    }

    /// Current MOESI state of `line` in `core`'s L1.
    pub fn state_of(&self, core: usize, line: CacheLine) -> LineState {
        self.lines
            .get(&line)
            .map_or(LineState::I, |l| l.state_of(core))
    }

    /// The lock on `line`, if any.
    pub fn lock_of(&self, line: CacheLine) -> Option<LineLock> {
        self.lines.get(&line).and_then(|l| l.lock)
    }

    /// The line's record, creating it on first touch.
    fn line_mut(&mut self, line: CacheLine) -> &mut Line {
        self.lines.entry(line).or_insert_with(Line::new)
    }

    /// A load by `core` at time `now`; returns its completion cycle.
    ///
    /// # Errors
    ///
    /// [`Denied::LockedBy`] if the line is locked by another core and the
    /// access needs a coherence transaction. A denied access changes
    /// nothing, so a blocked requester simply retries it.
    pub fn read(&mut self, core: usize, line: CacheLine, now: Cycle) -> Result<Cycle, Denied> {
        // One map probe serves the whole transaction: denial check, hit
        // path, and miss path all work off the same line record — this is
        // the simulator's hottest function after `Core::tick` itself.
        let l = self.lines.entry(line).or_insert_with(Line::new);
        let state = l.state_of(core);
        if let Some(holder) = denied_by_lock(l.lock, core, !state.is_valid()) {
            return Err(Denied::LockedBy(holder));
        }
        if state.is_valid() {
            return Ok(now + self.config.l1_latency);
        }
        let home = self.config.home_of(line);
        let mut t =
            now + self.config.l1_latency + self.mesh.latency(core, home) + self.config.l2_latency;

        if let Some((oc, _)) = l.owner {
            // forward: home → owner → requester
            let owner_core = oc as usize;
            t += self.mesh.latency(home, owner_core)
                + self.config.l1_latency
                + self.mesh.latency(owner_core, core);
        } else {
            if !l.on_chip {
                t += self.config.memory_latency;
            }
            t += self.mesh.latency(home, core);
        }

        // State transitions.
        l.on_chip = true;
        let any_other_valid = l.other_valid(core).next().is_some();
        // Owner downgrades: M→O, E→S (joins the sharer set), O stays O.
        if let Some((oc, s)) = l.owner {
            match s {
                LineState::M => l.owner = Some((oc, LineState::O)),
                LineState::E => {
                    l.owner = None;
                    l.add_sharer(oc as usize);
                }
                _ => {}
            }
        }
        if any_other_valid {
            l.add_sharer(core);
        } else {
            l.owner = Some((core as u32, LineState::E));
        }
        Ok(t)
    }

    /// A store (or read-exclusive) by `core` at time `now`: on completion
    /// the core holds the line in `M`, everyone else in `I`. Returns the
    /// completion cycle.
    ///
    /// # Errors
    ///
    /// [`Denied::LockedBy`] if the line is locked by another core; the
    /// denied access changes nothing.
    pub fn write(&mut self, core: usize, line: CacheLine, now: Cycle) -> Result<Cycle, Denied> {
        // Single map probe, as in `read`.
        let l = self.lines.entry(line).or_insert_with(Line::new);
        let state = l.state_of(core);
        if let Some(holder) = denied_by_lock(l.lock, core, !state.is_writable()) {
            return Err(Denied::LockedBy(holder));
        }
        if state.is_writable() {
            l.owner = Some((core as u32, LineState::M));
            return Ok(now + self.config.l1_latency);
        }
        let home = self.config.home_of(line);
        let mut t =
            now + self.config.l1_latency + self.mesh.latency(core, home) + self.config.l2_latency;

        // Data supply if we don't have a valid copy at all.
        if state == LineState::I {
            if let Some((oc, _)) = l.owner {
                let owner_core = oc as usize;
                t += self.mesh.latency(home, owner_core)
                    + self.config.l1_latency
                    + self.mesh.latency(owner_core, core);
            } else if !l.on_chip {
                t += self.config.memory_latency + self.mesh.latency(home, core);
            } else {
                t += self.mesh.latency(home, core);
            }
        }

        // Invalidate every other valid copy; acks return to the requester
        // in parallel — latest ack dominates. The sharded line walks only
        // the owner + sharer set — O(sharers), independent of machine
        // width, on the hot write path.
        let mut inv_done = t;
        for c in l.other_valid(core) {
            let ack = t
                + self.mesh.latency(home, c)
                + self.config.l1_latency
                + self.mesh.latency(c, core);
            inv_done = inv_done.max(ack);
        }

        l.on_chip = true;
        l.sharers.clear();
        l.owner = Some((core as u32, LineState::M));
        Ok(inv_done)
    }

    /// An RMW's acquisition of `line` by `core` at time `now` (§3.1–3.3):
    /// a [`read`] when `read_permission` is set (type-3 with directory
    /// locking), a [`write`] otherwise, and then the line lock. The lock
    /// goes in the core's L1 ([`LockKind::Local`]) when the core now holds
    /// the line writable (E/M), and at the home directory
    /// ([`LockKind::Directory`]) otherwise. The holder may re-acquire its
    /// own locked line (back-to-back RMWs); the kind then follows the same
    /// rule. Returns the transaction's completion cycle.
    ///
    /// # Errors
    ///
    /// [`Denied::LockedBy`] if another core holds any lock on the line —
    /// even a directory lock that would let the read through. The denied
    /// acquisition changes nothing.
    ///
    /// [`read`]: CoherenceSystem::read
    /// [`write`]: CoherenceSystem::write
    pub fn acquire(
        &mut self,
        core: usize,
        line: CacheLine,
        now: Cycle,
        read_permission: bool,
    ) -> Result<Cycle, Denied> {
        if let Some(lock) = self.lock_of(line).filter(|l| l.holder != core) {
            return Err(Denied::LockedBy(lock.holder));
        }
        let done = if read_permission {
            self.read(core, line, now)?
        } else {
            self.write(core, line, now)?
        };
        let l = self.line_mut(line);
        let kind = if l.state_of(core).is_writable() {
            LockKind::Local
        } else {
            LockKind::Directory
        };
        l.lock = Some(LineLock { holder: core, kind });
        Ok(done)
    }

    /// Releases `core`'s lock on `line`.
    ///
    /// # Panics
    ///
    /// Panics if `core` does not hold the lock (internal bug).
    pub fn unlock(&mut self, core: usize, line: CacheLine) {
        let l = self.line_mut(line);
        match l.lock {
            Some(LineLock { holder, .. }) if holder == core => l.lock = None,
            other => panic!("core {core} unlocking {line} it does not hold: {other:?}"),
        }
    }

    /// Invariant check used by tests: the sharded representation is
    /// internally consistent (owner holds an owner state and is absent
    /// from the sorted, deduplicated sharer set), and an `M`/`E` owner
    /// coexists with no other valid copy.
    pub fn check_invariants(&self) -> Result<(), String> {
        for (line, l) in &self.lines {
            if let Some((oc, s)) = l.owner {
                if !s.is_owner() {
                    return Err(format!("{line}: owner core {oc} in non-owner state {s:?}"));
                }
                if (oc as usize) >= self.config.num_cores {
                    return Err(format!("{line}: owner core {oc} out of range"));
                }
                if l.sharers.binary_search(&oc).is_ok() {
                    return Err(format!("{line}: owner core {oc} also in sharer set"));
                }
                if s.is_writable() && !l.sharers.is_empty() {
                    return Err(format!(
                        "{line}: core {oc} exclusive but {:?} hold valid copies",
                        l.sharers
                    ));
                }
            }
            if !l.sharers.windows(2).all(|w| w[0] < w[1]) {
                return Err(format!("{line}: sharer set not sorted: {:?}", l.sharers));
            }
            if let Some(&c) = l
                .sharers
                .iter()
                .find(|&&c| c as usize >= self.config.num_cores)
            {
                return Err(format!("{line}: sharer core {c} out of range"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const L: CacheLine = CacheLine(0x40);
    const L2: CacheLine = CacheLine(0x80);

    fn sys() -> CoherenceSystem {
        CoherenceSystem::new(CoherenceConfig::small(4))
    }

    #[test]
    fn cold_read_pays_memory_and_becomes_exclusive() {
        let mut s = sys();
        let (c, home) = (s.config, s.config.home_of(L));
        let done = s.read(0, L, 0).unwrap();
        let fetch = c.l1_latency
            + s.mesh.latency(0, home)
            + c.l2_latency
            + c.memory_latency
            + s.mesh.latency(home, 0);
        assert_eq!(done, fetch);
        assert_eq!(s.state_of(0, L), LineState::E);
        // second read is a pure L1 hit
        assert_eq!(s.read(0, L, done).unwrap(), done + c.l1_latency);
    }

    #[test]
    fn second_reader_gets_shared_via_forward() {
        let mut s = sys();
        let (c, home) = (s.config, s.config.home_of(L));
        s.read(0, L, 0).unwrap(); // core 0: E
        let done = s.read(1, L, 100).unwrap();
        // The owner forwards the data; nothing comes from memory.
        let forward = c.l1_latency
            + s.mesh.latency(1, home)
            + c.l2_latency
            + s.mesh.latency(home, 0)
            + c.l1_latency
            + s.mesh.latency(0, 1);
        assert_eq!(done, 100 + forward);
        assert_eq!(s.state_of(0, L), LineState::S, "E downgrades to S");
        assert_eq!(s.state_of(1, L), LineState::S);
    }

    #[test]
    fn write_invalidates_sharers() {
        let mut s = sys();
        s.read(0, L, 0).unwrap();
        s.read(1, L, 100).unwrap();
        s.read(2, L, 200).unwrap();
        s.write(3, L, 300).unwrap();
        assert_eq!(s.state_of(3, L), LineState::M);
        for c in 0..3 {
            assert_eq!(s.state_of(c, L), LineState::I);
        }
        s.check_invariants().unwrap();
    }

    #[test]
    fn silent_e_to_m_upgrade() {
        let mut s = sys();
        s.read(0, L, 0).unwrap(); // E
        let done = s.write(0, L, 100).unwrap();
        assert_eq!(done, 100 + s.config.l1_latency, "E→M is a hit");
        assert_eq!(s.state_of(0, L), LineState::M);
    }

    #[test]
    fn dirty_owner_downgrades_to_o_on_foreign_read() {
        let mut s = sys();
        s.write(0, L, 0).unwrap(); // M
        s.read(1, L, 100).unwrap();
        assert_eq!(s.state_of(0, L), LineState::O, "M→O on snoop read (MOESI)");
        assert_eq!(s.state_of(1, L), LineState::S);
        s.check_invariants().unwrap();
    }

    #[test]
    fn upgrade_from_shared_costs_invalidations_not_data() {
        let mut s = sys();
        let (c, home) = (s.config, s.config.home_of(L));
        s.write(0, L, 0).unwrap();
        s.read(1, L, 100).unwrap(); // 0: O, 1: S
        let done = s.write(1, L, 200).unwrap();
        // The request reaches the home and core 0's invalidation ack
        // returns; core 1 already holds the data.
        let request = c.l1_latency + s.mesh.latency(1, home) + c.l2_latency;
        let ack = s.mesh.latency(home, 0) + c.l1_latency + s.mesh.latency(0, 1);
        assert_eq!(done, 200 + request + ack);
        assert_eq!(s.state_of(1, L), LineState::M);
        assert_eq!(s.state_of(0, L), LineState::I);
    }

    #[test]
    fn local_lock_denies_all_foreign_access() {
        let mut s = sys();
        s.acquire(0, L, 0, false).unwrap();
        let local = LineLock {
            holder: 0,
            kind: LockKind::Local,
        };
        assert_eq!(s.lock_of(L), Some(local));
        assert_eq!(s.read(1, L, 10), Err(Denied::LockedBy(0)));
        assert_eq!(s.write(2, L, 10), Err(Denied::LockedBy(0)));
        // the holder itself is unaffected
        assert!(s.read(0, L, 10).is_ok());
        assert!(s.write(0, L, 10).is_ok());
        s.unlock(0, L);
        assert!(s.read(1, L, 20).is_ok());
    }

    #[test]
    fn directory_lock_allows_shared_reads_but_denies_coherence() {
        let mut s = sys();
        s.read(0, L, 0).unwrap();
        s.read(1, L, 50).unwrap(); // both S
        s.acquire(0, L, 60, true).unwrap();
        assert_eq!(s.lock_of(L).map(|l| l.kind), Some(LockKind::Directory));
        // core 1 still reads its S copy — type-3 permits reads between Ra/Wa
        assert!(s.read(1, L, 100).is_ok());
        // but a write (upgrade), a miss by core 2 or a competing RMW is
        // denied
        assert_eq!(s.write(1, L, 100), Err(Denied::LockedBy(0)));
        assert_eq!(s.read(2, L, 100), Err(Denied::LockedBy(0)));
        assert_eq!(s.acquire(1, L, 100, true), Err(Denied::LockedBy(0)));
        s.unlock(0, L);
        assert!(s.write(1, L, 200).is_ok());
    }

    #[test]
    fn second_lock_attempt_denied() {
        let mut s = sys();
        s.acquire(0, L, 0, false).unwrap();
        // Any foreign lock refuses an acquisition, whichever permission
        // it asks for.
        assert_eq!(s.acquire(1, L, 10, true), Err(Denied::LockedBy(0)));
        assert_eq!(s.acquire(1, L, 10, false), Err(Denied::LockedBy(0)));
    }

    #[test]
    fn read_permission_acquire_locks_in_the_l1_after_a_cold_read() {
        let mut s = sys();
        let cold = s.clone().read(0, L, 0).unwrap();
        assert_eq!(s.acquire(0, L, 0, true), Ok(cold));
        assert_eq!(s.state_of(0, L), LineState::E);
        let local = LineLock {
            holder: 0,
            kind: LockKind::Local,
        };
        assert_eq!(s.lock_of(L), Some(local));
    }

    #[test]
    fn read_permission_acquire_locks_at_the_directory_on_a_shared_line() {
        let mut s = sys();
        s.read(1, L, 0).unwrap(); // core 1: E
        let shared_read = s.clone().read(0, L, 100).unwrap();
        assert_eq!(s.acquire(0, L, 100, true), Ok(shared_read));
        // §3.3: no invalidation, both cores keep S copies.
        assert_eq!(s.state_of(0, L), LineState::S);
        assert_eq!(s.state_of(1, L), LineState::S);
        let directory = LineLock {
            holder: 0,
            kind: LockKind::Directory,
        };
        assert_eq!(s.lock_of(L), Some(directory));
    }

    #[test]
    fn the_holder_reacquires_its_own_locked_line() {
        // Back-to-back RMWs to one line: the second acquires while the
        // first's Wa still holds the lock, and the lock stays.
        let mut s = sys();
        let l1 = s.config.l1_latency;
        s.acquire(0, L, 0, false).unwrap();
        assert_eq!(s.acquire(0, L, 500, false), Ok(500 + l1));
        assert_eq!(s.acquire(0, L, 600, true), Ok(600 + l1));
        assert_eq!(
            s.lock_of(L).map(|l| (l.holder, l.kind)),
            Some((0, LockKind::Local))
        );

        s.read(1, L2, 0).unwrap();
        s.acquire(0, L2, 100, true).unwrap();
        assert_eq!(s.acquire(0, L2, 500, true), Ok(500 + l1));
        assert_eq!(
            s.lock_of(L2).map(|l| (l.holder, l.kind)),
            Some((0, LockKind::Directory))
        );
        assert_eq!(s.state_of(1, L2), LineState::S);
    }

    #[test]
    #[should_panic(expected = "does not hold")]
    fn unlock_requires_holding() {
        let mut s = sys();
        s.acquire(0, L, 0, false).unwrap();
        s.unlock(1, L);
    }

    #[test]
    fn distinct_lines_are_independent() {
        let mut s = sys();
        s.acquire(0, L, 0, false).unwrap();
        assert!(s.write(1, L2, 10).is_ok(), "other lines unaffected by lock");
        s.check_invariants().unwrap();
    }

    #[test]
    fn home_distribution_covers_all_cores() {
        let s = sys();
        let homes: std::collections::BTreeSet<usize> = (0..64u64)
            .map(|i| s.config.home_of(CacheLine(i * 64)))
            .collect();
        assert_eq!(homes.len(), 4, "interleaving reaches every slice");
    }

    #[test]
    fn sharded_lines_scale_to_wide_machines() {
        // 256 cores: per-line state is owner + sharer set, so a line read
        // by a handful of cores costs memory proportional to the sharers,
        // and a write invalidates exactly that handful.
        let mut s = CoherenceSystem::new(CoherenceConfig {
            num_cores: 256,
            mesh: MeshConfig {
                width: 16,
                height: 16,
                link_latency: 1,
                router_latency: 4,
            },
            ..CoherenceConfig::small(4)
        });
        let readers = [0usize, 17, 99, 200, 255];
        for (i, &c) in readers.iter().enumerate() {
            s.read(c, L, i as Cycle * 100).unwrap();
        }
        for &c in &readers {
            assert_eq!(s.state_of(c, L), LineState::S);
        }
        assert_eq!(s.state_of(1, L), LineState::I);
        s.check_invariants().unwrap();
        s.write(42, L, 10_000).unwrap();
        assert_eq!(s.state_of(42, L), LineState::M);
        for &c in &readers {
            assert_eq!(s.state_of(c, L), LineState::I);
        }
        s.check_invariants().unwrap();
    }

    #[test]
    fn read_to_shared_line_cheaper_than_write() {
        // The type-3 advantage: acquiring read permission on a widely
        // shared line costs no invalidations; acquiring write permission
        // pays the full invalidation round-trip.
        let mut s = sys();
        s.read(0, L, 0).unwrap();
        s.read(1, L, 100).unwrap();
        s.read(2, L, 200).unwrap();
        let mut s_read = s.clone();
        let read = s_read.read(3, L, 1000).unwrap();
        let write = s.write(3, L, 1000).unwrap();
        assert!(read < write);
        for c in 0..3 {
            assert_eq!(s_read.state_of(c, L), LineState::S);
            assert_eq!(s.state_of(c, L), LineState::I);
        }
    }
}
