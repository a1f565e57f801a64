//! The in-order core model: write buffer, RMW phase machine, and the
//! per-op execution rules.
//!
//! # Timing/visibility discipline
//!
//! A write becomes **globally visible** when its coherence transaction
//! succeeds (the `coherence` crate applies state transitions at issue);
//! its write-buffer slot frees when the transaction's latency has elapsed.
//! Reads resolve their value at issue, after store-forwarding from the
//! local write buffer. Together with FIFO buffer commit this makes each
//! execution of the machine a legal TSO interleaving (cross-validated
//! against the axiomatic model in the integration tests).
//!
//! # RMW phase machine
//!
//! ```text
//!   type-1:             Drain ──► Acquire ──► Finish(commit Wa, unlock)
//!   type-2/3 (bloom):   Bloom ──► WaitAcks ──► CheckConflicts ─┬─► Acquire ──► Finish(Wa→WB)
//!                                                 (hit) ───────┴─► Drain ──► Acquire ...
//! ```
//!
//! `Bloom` and `CheckConflicts` are the only readers of the core's filter
//! (the addr-list), and each first lands the broadcast copies that have
//! arrived by the current cycle.
//!
//! Critical-path attribution (Fig. 11a): cycles spent in `Drain` count as
//! *write-buffer* cost; everything else (bloom check, broadcast ack wait,
//! permission acquisition, locking) counts as *Ra/Wa* cost.
//!
//! # Event discipline
//!
//! `Core::tick` returns `true` iff the cycle changed anything (state or
//! statistics); a tick that returns `false` was a pure wait and could have
//! been skipped. Every *future* cycle at which this core can act without
//! outside help — `busy_until`, write-buffer request arrivals and
//! completions, the broadcast-ack deadline, the RMW `Finish` time — is
//! armed in the shared [`Scheduler`](crate::sched::Scheduler) when it is
//! computed. Waits on *other* cores (a line locked by a foreign RMW, a
//! full buffer, a drain) burn no per-cycle work: blocked episodes probe
//! the non-mutating `coherence` denial predicates and attribute their
//! whole duration to the stall counters in one add when they end, which
//! yields exactly the same counts the per-cycle increments used to.

use crate::config::SimConfig;
use crate::stats::{NetTraffic, SimStats};
use crate::trace::{Op, Reg, Src, Trace, NUM_REGS};
use bloom::BloomFilter;
use coherence::{CoherenceSystem, LockKind};
use interconnect::{Cycle, Mesh};
use rmw_types::fasthash::{FastHashMap, FastHashSet};
use rmw_types::{Addr, Atomicity, CacheLine, RmwKind, Value};
use std::collections::VecDeque;

/// A pending write in the write buffer.
#[derive(Debug, Clone, Copy)]
pub(crate) struct WbEntry {
    pub addr: Addr,
    pub value: Value,
    pub line: CacheLine,
    /// Arrival time of the in-flight coherence request at the home
    /// directory, if one has been sent. Lock denial happens at arrival —
    /// this in-flight window is what makes write-deadlocks possible.
    pub request_arrives: Option<Cycle>,
    /// Completion cycle of the accepted coherence transaction, if accepted.
    pub issued_done: Option<Cycle>,
    /// True for an RMW's `Wa`: popping it releases the line lock.
    pub unlock_on_pop: bool,
}

/// Phase of an in-flight RMW.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RmwPhase {
    /// Query/insert the local Bloom filter; broadcast if the address is new.
    Bloom,
    /// Waiting for broadcast acknowledgements.
    WaitAcks { until: Cycle },
    /// Check pending writes against the filter.
    CheckConflicts,
    /// Waiting for the write buffer to empty (type-1, or reverted type-2/3).
    Drain,
    /// Retrying the coherence acquisition + line lock.
    Acquire,
    /// Read half completes at `at`; then commit or enqueue the write half.
    Finish { at: Cycle },
}

/// The in-flight RMW's bookkeeping.
#[derive(Debug, Clone, Copy)]
struct RmwInFlight {
    addr: Addr,
    line: CacheLine,
    kind: RmwKind,
    /// Register receiving the observed old value (`Op::RmwTo`); `None`
    /// appends it to the recorded read stream (`Op::Rmw`).
    dest: Option<Reg>,
    phase: RmwPhase,
    /// Cycle the RMW began (for attribution).
    started: Cycle,
    /// Start of the current drain, if any.
    drain_started: Option<Cycle>,
    /// Start of the acquire phase.
    acquire_started: Option<Cycle>,
    /// First cycle of the current lock-denied acquire episode, if the
    /// acquisition is blocked on a foreign lock. The whole episode is
    /// attributed to `lock_retries` when it ends (one count per denied
    /// cycle, exactly as per-cycle retrying produced).
    lock_blocked_since: Option<Cycle>,
    /// Cycles already attributed to Ra/Wa before the acquire phase
    /// (bloom + ack wait).
    pre_acquire_rawa: Cycle,
}

/// One copy of a §3.2 RMW-address broadcast, on its way to a core.
#[derive(Debug, Clone, Copy)]
pub(crate) struct BroadcastCopy {
    /// First cycle at which the line is in the receiver's filter.
    at: Cycle,
    line: CacheLine,
    /// Links the copy crosses; its ack crosses as many on the way back.
    hops: u64,
}

/// The machine-wide futex state: one FIFO wait queue per address, plus
/// the pending resume time of each woken core.
///
/// Semantics mirror the kernel's: both futex calls first drain the
/// caller's write buffer (the bucket-lock / syscall serialization point),
/// so a waiter's expected-value check reads *committed* memory and a
/// waker's preceding stores are globally visible before it scans the
/// queue. That ordering is exactly what makes the userspace protocols
/// (store-then-wake vs. check-then-sleep) lose no wakeups.
#[derive(Debug, Default)]
pub(crate) struct FutexTable {
    /// FIFO waiters per address.
    queues: FastHashMap<Addr, VecDeque<usize>>,
    /// Resume cycle of each woken-but-not-yet-resumed core (index = id).
    woken: Vec<Option<Cycle>>,
}

impl FutexTable {
    pub fn new(num_cores: usize) -> Self {
        FutexTable {
            queues: FastHashMap::default(),
            woken: vec![None; num_cores],
        }
    }
}

/// Shared machine state each core ticks against.
#[derive(Debug)]
pub(crate) struct Shared {
    pub coherence: CoherenceSystem,
    pub memory: FastHashMap<Addr, Value>,
    pub unique_rmw_lines: FastHashSet<CacheLine>,
    /// The mesh that times and routes RMW-address broadcasts.
    pub mesh: Mesh,
    /// Per core, the broadcast copies sent to it that it has not yet
    /// taken into its filter (see [`Shared::take_arrived`]).
    pub arrivals: Vec<Vec<BroadcastCopy>>,
    /// Messages and link traversals of the broadcasts and their acks.
    pub net: NetTraffic,
    /// The event queue (disabled under `StepMode::Lockstep`).
    pub sched: crate::sched::Scheduler,
    /// Set when the reset threshold fires; machine coordinates the reset.
    pub reset_requested: bool,
    /// Set when a line lock was released this cycle — the only event that
    /// can unblock a lock-blocked core, so the event engine re-probes
    /// blocked cores exactly when this fires (cleared by the machine each
    /// cycle).
    pub lock_released: bool,
    /// Cycle of the last globally visible progress (retire or WB pop).
    pub last_progress: Cycle,
    /// Futex wait queues + pending wakeups.
    pub futex: FutexTable,
}

impl Shared {
    /// Broadcasts `line` from core `src` at cycle `now`: one copy to every
    /// other mesh node, each queued on its receiver's arrival list (nodes
    /// past the core count are routers only, so their copies just cross
    /// the mesh). A copy lands one traversal latency after it is sent,
    /// and never before the next cycle: within `now` every receiver reads
    /// the filter it held when the cycle began. Returns the ack round
    /// trip the sender waits out — mesh latency is symmetric, so the last
    /// ack returns from the farthest node after twice its latency.
    fn broadcast(&mut self, src: usize, line: CacheLine, now: Cycle) -> Cycle {
        let mut farthest = 0;
        for dst in (0..self.mesh.num_nodes()).filter(|&n| n != src) {
            let latency = self.mesh.latency(src, dst);
            let hops = self.mesh.hops(src, dst) as u64;
            farthest = farthest.max(latency);
            self.net.messages += 1;
            self.net.hops += hops;
            if let Some(list) = self.arrivals.get_mut(dst) {
                let at = (now + latency).max(now + 1);
                list.push(BroadcastCopy { at, line, hops });
            }
        }
        2 * farthest
    }

    /// Takes every copy that has reached `core` by cycle `by` off its
    /// arrival list, hands its line to `land` and counts the ack the core
    /// returns. Only the core's own `Bloom` and `CheckConflicts` phases
    /// read its filter, and the coordinated reset takes the arrived copies
    /// off before clearing it, so landing a copy at the next read is the
    /// same as landing it on arrival.
    pub fn take_arrived(&mut self, core: usize, by: Cycle, mut land: impl FnMut(CacheLine)) {
        let net = &mut self.net;
        self.arrivals[core].retain(|c| {
            let arrived = c.at <= by;
            if arrived {
                land(c.line);
                net.messages += 1;
                net.hops += c.hops;
            }
            !arrived
        });
    }
}

/// One in-order core.
#[derive(Debug)]
pub(crate) struct Core {
    pub id: usize,
    trace: Trace,
    pc: usize,
    busy_until: Cycle,
    wb: VecDeque<WbEntry>,
    pub bloom: BloomFilter,
    rmw: Option<RmwInFlight>,
    fence_since: Option<Cycle>,
    /// First cycle of the current lock-denied read episode, if any.
    read_blocked_since: Option<Cycle>,
    /// First cycle of the current full-write-buffer stall (a store at
    /// issue, or a type-2/3 `Wa` at retirement), if any.
    wb_stall_since: Option<Cycle>,
    /// Architectural registers (zoo control flow / futex operands).
    regs: [Value; NUM_REGS],
    /// Cycle this core went to sleep on a futex queue, if asleep.
    futex_sleep: Option<Cycle>,
    /// Cycle of the last futex resume, pending attribution to
    /// `wake_to_acquire_cycles` at the next completed RMW.
    woken_at: Option<Cycle>,
    /// First back-edge cycle of the current spin episode, if spinning.
    spin_since: Option<Cycle>,
    /// Values observed by reads and RMW reads, in program order.
    pub reads: Vec<Value>,
    pub stats: SimStats,
}

impl Core {
    pub fn new(id: usize, trace: Trace, config: &SimConfig) -> Self {
        // Every destination-less read and RMW records one observed value;
        // sizing the log up front keeps reallocation out of the hot tick.
        let recorded = trace
            .ops()
            .iter()
            .filter(|op| matches!(op, Op::Read(_) | Op::Rmw(..)))
            .count();
        Core {
            id,
            trace,
            pc: 0,
            busy_until: 0,
            wb: VecDeque::new(),
            bloom: BloomFilter::new(config.bloom_bytes, config.bloom_hashes),
            rmw: None,
            fence_since: None,
            read_blocked_since: None,
            wb_stall_since: None,
            regs: [0; NUM_REGS],
            futex_sleep: None,
            woken_at: None,
            spin_since: None,
            reads: Vec::with_capacity(recorded),
            stats: SimStats::default(),
        }
    }

    /// True when the core has fully finished.
    pub fn done(&self) -> bool {
        self.pc >= self.trace.len()
            && self.wb.is_empty()
            && self.rmw.is_none()
            && self.fence_since.is_none()
            && self.futex_sleep.is_none()
    }

    /// True while this core is blocked on a *foreign* line lock (a denied
    /// read, or a denied RMW acquisition). These are the only waits whose
    /// resolution depends on another core's progress, so the event engine
    /// re-ticks such cores after any acting cycle instead of the core
    /// arming its own wakeup.
    pub fn blocked_on_foreign_lock(&self) -> bool {
        self.read_blocked_since.is_some()
            || self.rmw.is_some_and(|r| r.lock_blocked_since.is_some())
    }

    /// True when the core is draining its write buffer for an RMW.
    pub fn draining_for_rmw(&self) -> bool {
        matches!(
            self.rmw,
            Some(RmwInFlight {
                phase: RmwPhase::Drain,
                ..
            })
        )
    }

    /// One simulation cycle. Returns `true` iff anything (state or stats)
    /// changed — `false` means the tick was a pure wait that a
    /// cycle-skipping engine may elide.
    pub fn tick(&mut self, now: Cycle, shared: &mut Shared, config: &SimConfig) -> bool {
        let changed = self.tick_inner(now, shared, config);
        if changed {
            self.arm_followup(now, shared, config);
        }
        changed
    }

    /// Arms a `now + 1` self-wakeup when the end-of-tick state demands an
    /// action next cycle that no completion event covers: an unsent
    /// write-buffer request inside the issue window (fresh store, denial
    /// re-send, window shift after a pop, eager-drain expansion), an RMW
    /// phase that executes on its next tick, or a fence over an already
    /// empty buffer. Called only after a tick that changed something —
    /// these conditions can only arise from acting ticks.
    fn arm_followup(&mut self, now: Cycle, shared: &mut Shared, config: &SimConfig) {
        let window = if self.draining_for_rmw() {
            self.wb.len()
        } else {
            config.wb_outstanding.min(self.wb.len())
        };
        let pending_send = self
            .wb
            .iter()
            .take(window)
            .any(|e| e.issued_done.is_none() && e.request_arrives.is_none());
        let phase_steps = self.rmw.is_some_and(|r| match r.phase {
            RmwPhase::Bloom | RmwPhase::CheckConflicts => true,
            RmwPhase::Acquire => r.lock_blocked_since.is_none(),
            RmwPhase::Drain => self.wb.is_empty(),
            RmwPhase::WaitAcks { .. } | RmwPhase::Finish { .. } => false,
        });
        let fence_ready = self.fence_since.is_some() && self.wb.is_empty();
        if (pending_send || phase_steps || fence_ready) && self.busy_until != now + 1 {
            // busy_until == now + 1 means set_busy already armed this
            // exact wakeup during this tick.
            shared.sched.wake_core(now, now + 1, self.id);
        }
    }

    fn tick_inner(&mut self, now: Cycle, shared: &mut Shared, config: &SimConfig) -> bool {
        let mut changed = self.process_write_buffer(now, shared, config);

        if self.rmw.is_some() {
            return self.advance_rmw(now, shared, config) || changed;
        }

        if let Some(since) = self.fence_since {
            if self.wb.is_empty() {
                self.stats.fence_cycles += now - since;
                self.fence_since = None;
                shared.last_progress = now;
                changed = true;
            } else {
                // Waiting on our own buffer: its completion events are
                // already armed.
                return changed;
            }
        }

        if let Some(since) = self.futex_sleep {
            // Asleep on a futex queue. The buffer was drained before the
            // sleep, the phase machines are idle, so a sleeping core's
            // tick is a pure wait until the waker-armed resume cycle —
            // the event engine skips straight to it.
            match shared.futex.woken[self.id] {
                Some(resume) if now >= resume => {
                    shared.futex.woken[self.id] = None;
                    self.futex_sleep = None;
                    self.stats.futex_wakeups += 1;
                    self.stats.blocked_cycles += now - since;
                    self.woken_at = Some(now);
                    shared.last_progress = now;
                    changed = true;
                    // Fall through: the next op issues this very cycle.
                }
                _ => return changed,
            }
        }

        if self.busy_until > now || self.pc >= self.trace.len() {
            return changed;
        }

        let op = self.trace.ops()[self.pc];
        match op {
            Op::Compute(n) => {
                self.set_busy(now, now + Cycle::from(n), shared);
                self.retire(now, shared);
            }
            Op::Fence => {
                self.fence_since = Some(now);
                self.retire(now, shared);
            }
            Op::Write(addr, value) => {
                if !self.issue_write(now, shared, config, addr, value) {
                    return changed;
                }
            }
            Op::WriteFrom(addr, reg) => {
                let value = self.regs[reg as usize];
                if !self.issue_write(now, shared, config, addr, value) {
                    return changed;
                }
            }
            Op::Read(addr) => {
                if !self.issue_read(now, shared, config, addr, None) {
                    return changed;
                }
            }
            Op::ReadTo(reg, addr) => {
                if !self.issue_read(now, shared, config, addr, Some(reg)) {
                    return changed;
                }
            }
            Op::Rmw(addr, kind) => self.start_rmw(now, shared, config, addr, kind, None),
            Op::RmwTo(reg, addr, kind) => {
                self.start_rmw(now, shared, config, addr, kind, Some(reg));
            }
            Op::MovImm(reg, value) => {
                self.regs[reg as usize] = value;
                self.set_busy(now, now + 1, shared);
                self.retire(now, shared);
            }
            Op::AddImm(reg, value) => {
                self.regs[reg as usize] = self.regs[reg as usize].wrapping_add(value);
                self.set_busy(now, now + 1, shared);
                self.retire(now, shared);
            }
            Op::Jump(target) => {
                self.set_busy(now, now + 1, shared);
                self.branch_to(now, target as usize, shared);
            }
            Op::Branch {
                cond,
                lhs,
                rhs,
                target,
            } => {
                let l = self.regs[lhs as usize];
                let r = self.resolve(rhs);
                self.set_busy(now, now + 1, shared);
                if cond.eval(l, r) {
                    self.branch_to(now, target as usize, shared);
                } else {
                    // A fall-through exits the loop the branch guarded.
                    self.end_spin(now);
                    self.retire(now, shared);
                }
            }
            Op::FutexWait(addr, expected) => {
                if !self.wb.is_empty() {
                    // Kernel entry serializes with memory (the wake path
                    // takes the same bucket lock): drain first, then
                    // re-dispatch this op against committed state.
                    self.fence_since = Some(now);
                    return true;
                }
                let expected = self.resolve(expected);
                let v = shared.memory.get(&addr).copied().unwrap_or(0);
                self.end_spin(now);
                if v == expected {
                    self.stats.futex_waits += 1;
                    self.woken_at = None;
                    self.futex_sleep = Some(now);
                    shared
                        .futex
                        .queues
                        .entry(addr)
                        .or_default()
                        .push_back(self.id);
                } else {
                    // EAGAIN: the value moved on — never enqueued, so a
                    // failed check can never be woken.
                    self.stats.futex_immediate += 1;
                    self.set_busy(now, now + config.futex_latency, shared);
                }
                self.retire(now, shared);
            }
            Op::FutexWake(addr, n) => {
                if !self.wb.is_empty() {
                    // Same serialization as the wait side: our preceding
                    // stores are globally visible before the queue scan,
                    // so no waiter that checked before us is missed.
                    self.fence_since = Some(now);
                    return true;
                }
                let mut woke = 0u32;
                if let Some(q) = shared.futex.queues.get_mut(&addr) {
                    while woke < n {
                        let Some(id) = q.pop_front() else { break };
                        let resume = now + config.futex_latency;
                        shared.futex.woken[id] = Some(resume);
                        shared.sched.wake_core(now, resume, id);
                        woke += 1;
                    }
                }
                self.stats.futex_wakes += u64::from(woke);
                self.set_busy(now, now + config.futex_latency, shared);
                self.retire(now, shared);
            }
        }
        true
    }

    /// Resolves a branch/futex operand against the register file.
    fn resolve(&self, src: Src) -> Value {
        match src {
            Src::Imm(v) => v,
            Src::Reg(r) => self.regs[r as usize],
        }
    }

    /// Issues a load (recorded when `dest` is `None`, into a register
    /// otherwise). Returns `false` when blocked on a foreign line lock.
    fn issue_read(
        &mut self,
        now: Cycle,
        shared: &mut Shared,
        config: &SimConfig,
        addr: Addr,
        dest: Option<Reg>,
    ) -> bool {
        // Store forwarding from the youngest matching buffer entry — but
        // only while that store is not yet globally visible. An accepted
        // entry's value is already in memory (the slot only lingers for
        // latency bookkeeping), and a foreign write may have been
        // serialized after it; forwarding then would resurrect an
        // overwritten value, which TSO forbids.
        if let Some(e) = self.wb.iter().rev().find(|e| e.addr == addr) {
            if e.issued_done.is_none() {
                let v = e.value;
                self.deliver_read(v, dest);
                self.set_busy(now, now + config.coherence.l1_latency, shared);
                self.stats.mem_ops += 1;
                self.retire(now, shared);
                return true;
            }
        }
        let line = addr.line(config.line_size);
        if self.read_blocked_since.is_some() {
            // Blocked re-poll: a non-mutating probe, so lockstep's
            // per-cycle re-polls and the event engine's release-time
            // re-probes leave identical protocol statistics.
            if shared.coherence.read_denied_by(self.id, line).is_some() {
                return false;
            }
        }
        let acc = match shared.coherence.read(self.id, line, now) {
            Ok(acc) => acc,
            Err(_) => {
                // First denial: blocked on a foreign lock; woken when the
                // holder makes progress (its unlock arms an Advance
                // event). Both engines attempt the transaction at this
                // same cycle, so the denial count stays engine-identical.
                self.read_blocked_since = Some(now);
                return false;
            }
        };
        if let Some(since) = self.read_blocked_since.take() {
            self.stats.lock_retries += now - since;
        }
        let v = shared.memory.get(&addr).copied().unwrap_or(0);
        self.deliver_read(v, dest);
        self.set_busy(now, acc.done_at, shared);
        self.stats.mem_ops += 1;
        self.retire(now, shared);
        true
    }

    fn deliver_read(&mut self, value: Value, dest: Option<Reg>) {
        match dest {
            None => self.reads.push(value),
            Some(r) => self.regs[r as usize] = value,
        }
    }

    /// Enqueues a store. Returns `false` when stalled on a full buffer
    /// (woken by our own WB completion).
    fn issue_write(
        &mut self,
        now: Cycle,
        shared: &mut Shared,
        config: &SimConfig,
        addr: Addr,
        value: Value,
    ) -> bool {
        if self.wb.len() >= config.write_buffer_entries {
            if self.wb_stall_since.is_none() {
                self.wb_stall_since = Some(now);
            }
            return false;
        }
        if let Some(since) = self.wb_stall_since.take() {
            self.stats.wb_full_stalls += now - since;
        }
        self.wb.push_back(WbEntry {
            addr,
            value,
            line: addr.line(config.line_size),
            request_arrives: None,
            issued_done: None,
            unlock_on_pop: false,
        });
        self.set_busy(now, now + 1, shared);
        self.stats.mem_ops += 1;
        self.retire(now, shared);
        true
    }

    fn start_rmw(
        &mut self,
        now: Cycle,
        shared: &mut Shared,
        config: &SimConfig,
        addr: Addr,
        kind: RmwKind,
        dest: Option<Reg>,
    ) {
        let line = addr.line(config.line_size);
        let phase = match (config.rmw_atomicity, config.bloom_enabled) {
            (Atomicity::Type1, _) => RmwPhase::Drain,
            (_, true) => RmwPhase::Bloom,
            (_, false) => RmwPhase::Acquire,
        };
        self.rmw = Some(RmwInFlight {
            addr,
            line,
            kind,
            dest,
            phase,
            started: now,
            drain_started: (phase == RmwPhase::Drain).then_some(now),
            acquire_started: (phase == RmwPhase::Acquire).then_some(now),
            lock_blocked_since: None,
            pre_acquire_rawa: 0,
        });
        self.retire(now, shared);
    }

    /// Redirects control flow to `target` (a taken branch or jump),
    /// maintaining the spin-episode accounting: a back-edge is a spin
    /// retry, a forward transfer exits the current loop.
    fn branch_to(&mut self, now: Cycle, target: usize, shared: &mut Shared) {
        if target <= self.pc {
            self.stats.spin_retries += 1;
            if self.spin_since.is_none() {
                self.spin_since = Some(now);
            }
        } else {
            self.end_spin(now);
        }
        self.pc = target;
        self.stats.ops += 1;
        shared.last_progress = now;
    }

    /// Closes the current spin episode, attributing its length in bulk
    /// (cycle-identical in both engines: episode boundaries are retire
    /// events both engines execute at the same cycles).
    fn end_spin(&mut self, now: Cycle) {
        if let Some(since) = self.spin_since.take() {
            self.stats.spin_cycles += now - since;
        }
    }

    fn retire(&mut self, now: Cycle, shared: &mut Shared) {
        self.pc += 1;
        self.stats.ops += 1;
        shared.last_progress = now;
    }

    /// Sets `busy_until` and arms the issue wakeup (clamped to `now + 1`:
    /// an already-expired deadline still needs the next tick, exactly as
    /// lockstep would take it).
    fn set_busy(&mut self, now: Cycle, until: Cycle, shared: &mut Shared) {
        self.busy_until = until;
        shared.sched.wake_core(now, until.max(now + 1), self.id);
    }

    /// Sends coherence requests for write-buffer entries and pops completed
    /// heads. While an RMW drains the buffer every entry's request is in
    /// flight at once (the Table 2 baseline's parallel drain, after
    /// Gharachorloo); otherwise at most `wb_outstanding` are.
    ///
    /// A request is *sent* (after `request_latency` it arrives at the home
    /// directory), then *accepted* (the line was not locked: the write
    /// becomes globally visible and the completion clock starts) or
    /// *denied* (locked by another core's RMW: the request is re-sent).
    /// Acceptance is kept in FIFO order so visibility respects TSO.
    fn process_write_buffer(
        &mut self,
        now: Cycle,
        shared: &mut Shared,
        config: &SimConfig,
    ) -> bool {
        if self.wb.is_empty() {
            return false;
        }
        let mut changed = false;
        let issue_count = if self.draining_for_rmw() {
            self.wb.len()
        } else {
            config.wb_outstanding.min(self.wb.len())
        };

        let id = self.id;
        let mut all_prior_accepted = true;
        let mut lock_retries = 0;
        for e in self.wb.iter_mut().take(issue_count) {
            if e.issued_done.is_some() {
                continue;
            }
            match e.request_arrives {
                None => {
                    let arrival = now + shared.coherence.request_latency(id, e.line);
                    e.request_arrives = Some(arrival);
                    // Clamped like every arm: a zero-latency arrival is
                    // still acted on at the next tick, as in lockstep.
                    shared.sched.wake_core(now, arrival.max(now + 1), id);
                    changed = true;
                }
                Some(arr) if now >= arr && all_prior_accepted => {
                    match shared.coherence.write(id, e.line, now) {
                        Ok(acc) => {
                            shared.memory.insert(e.addr, e.value);
                            e.issued_done = Some(acc.done_at);
                            shared.sched.wake_core(now, acc.done_at.max(now + 1), id);
                        }
                        Err(_) => {
                            // Denied by a lock: retry from scratch (the
                            // re-send goes out next cycle, so the retry
                            // cadence is one request round trip).
                            lock_retries += 1;
                            e.request_arrives = None;
                        }
                    }
                    changed = true;
                }
                Some(_) => {} // in flight, or waiting for FIFO order
            }
            all_prior_accepted &= e.issued_done.is_some();
        }
        self.stats.lock_retries += lock_retries;

        // Pop completed head entries (one per cycle is enough at this
        // timescale, but draining benefits from popping all ready heads).
        while let Some(head) = self.wb.front() {
            match head.issued_done {
                Some(done) if done <= now => {
                    let e = self.wb.pop_front().expect("head exists");
                    // Release the line lock only once the *last* pending Wa
                    // to this line commits: back-to-back RMWs to one line
                    // keep it locked across both, whether the successor's
                    // Wa is already buffered or its RMW is still in flight
                    // holding the lock (Finish phase).
                    let later_wa_same_line =
                        self.wb.iter().any(|w| w.unlock_on_pop && w.line == e.line);
                    let in_flight_same_line = self.rmw.is_some_and(|r| {
                        r.line == e.line && matches!(r.phase, RmwPhase::Finish { .. })
                    });
                    if e.unlock_on_pop && !later_wa_same_line && !in_flight_same_line {
                        shared.coherence.unlock(self.id, e.line);
                        shared.lock_released = true;
                    }
                    shared.last_progress = now;
                    changed = true;
                }
                _ => break,
            }
        }
        changed
    }

    /// Lands in this core's filter every broadcast copy that has reached
    /// it by `now`; called before each read of the filter.
    fn take_arrived(&mut self, now: Cycle, shared: &mut Shared) {
        let bloom = &mut self.bloom;
        shared.take_arrived(self.id, now, |line| {
            bloom.insert(line.0);
        });
    }

    fn advance_rmw(&mut self, now: Cycle, shared: &mut Shared, config: &SimConfig) -> bool {
        let mut rmw = self.rmw.expect("advance_rmw called with RMW in flight");
        match rmw.phase {
            RmwPhase::Bloom => {
                self.take_arrived(now, shared);
                let key = rmw.line.0;
                if !self.bloom.maybe_contains(key) {
                    self.bloom.insert(key);
                    let until = now + shared.broadcast(self.id, rmw.line, now);
                    self.stats.rmw_broadcasts += 1;
                    if let Some(threshold) = config.bloom_reset_threshold {
                        if self.bloom.insertions() >= threshold {
                            shared.reset_requested = true;
                        }
                    }
                    shared.sched.wake_core(now, until.max(now + 1), self.id);
                    rmw.phase = RmwPhase::WaitAcks { until };
                } else {
                    rmw.phase = RmwPhase::CheckConflicts;
                }
                shared.last_progress = now;
            }
            RmwPhase::WaitAcks { until } => {
                if now >= until {
                    rmw.phase = RmwPhase::CheckConflicts;
                } else {
                    self.rmw = Some(rmw);
                    return false;
                }
            }
            RmwPhase::CheckConflicts => {
                self.take_arrived(now, shared);
                rmw.pre_acquire_rawa = now - rmw.started;
                // Deadlock safety only requires that no pending write waits
                // on a line locked by *another* processor. A pending write
                // to a line this core itself holds locked (its own earlier
                // Wa, or data under its own lock) cannot participate in a
                // deadlock cycle, so it is excluded from the conflict check
                // even though its address is in the addr-list.
                let conflict = self.wb.iter().any(|e| {
                    let self_locked = shared
                        .coherence
                        .lock_of(e.line)
                        .is_some_and(|l| l.holder == self.id);
                    !self_locked && self.bloom.maybe_contains(e.line.0)
                });
                if conflict {
                    self.stats.rmw_drains += 1;
                    rmw.drain_started = Some(now);
                    rmw.phase = RmwPhase::Drain;
                } else {
                    rmw.acquire_started = Some(now);
                    rmw.phase = RmwPhase::Acquire;
                }
                shared.last_progress = now;
            }
            RmwPhase::Drain => {
                if self.wb.is_empty() {
                    let started = rmw.drain_started.expect("drain phase has a start");
                    self.stats.rmw_cost.write_buffer_cycles += now - started;
                    if config.rmw_atomicity == Atomicity::Type1 {
                        self.stats.rmw_drains += 1;
                    }
                    rmw.drain_started = None;
                    rmw.acquire_started = Some(now);
                    rmw.phase = RmwPhase::Acquire;
                    shared.last_progress = now;
                } else {
                    // Waiting on our own buffer: completions are armed.
                    self.rmw = Some(rmw);
                    return false;
                }
            }
            RmwPhase::Acquire => {
                if shared
                    .coherence
                    .acquire_denied_by(self.id, rmw.line)
                    .is_some()
                {
                    // Blocked on a foreign lock; the holder's unlock arms
                    // an Advance wakeup. The episode length is attributed
                    // to `lock_retries` below, one per denied cycle.
                    if rmw.lock_blocked_since.is_none() {
                        rmw.lock_blocked_since = Some(now);
                    }
                    self.rmw = Some(rmw);
                    return false;
                }
                if let Some(since) = rmw.lock_blocked_since.take() {
                    self.stats.lock_retries += now - since;
                }
                let use_read_permission =
                    config.rmw_atomicity == Atomicity::Type3 && config.directory_locking;
                let done = if use_read_permission {
                    let acc = shared
                        .coherence
                        .read(self.id, rmw.line, now)
                        .expect("no foreign lock: read permission proceeds");
                    let kind = if shared.coherence.state_of(self.id, rmw.line).is_writable() {
                        LockKind::Local
                    } else {
                        LockKind::Directory
                    };
                    shared
                        .coherence
                        .lock(self.id, rmw.line, kind)
                        .expect("no foreign lock: locking proceeds");
                    acc.done_at
                } else {
                    let acc = shared
                        .coherence
                        .write(self.id, rmw.line, now)
                        .expect("no foreign lock: write permission proceeds");
                    shared
                        .coherence
                        .lock(self.id, rmw.line, LockKind::Local)
                        .expect("no foreign lock: locking proceeds");
                    acc.done_at
                };
                shared.sched.wake_core(now, done.max(now + 1), self.id);
                rmw.phase = RmwPhase::Finish { at: done };
                shared.last_progress = now;
            }
            RmwPhase::Finish { at } => {
                if now < at {
                    self.rmw = Some(rmw);
                    return false;
                }
                // The Wa of a type-2/3 RMW retires into the write buffer;
                // if the buffer is full the RMW stays in flight and the
                // stall is attributed when the slot frees (our own
                // completion events wake us). Checked before the read half
                // commits so nothing needs undoing.
                if config.rmw_atomicity != Atomicity::Type1
                    && self.wb.len() >= config.write_buffer_entries
                {
                    if self.wb_stall_since.is_none() {
                        self.wb_stall_since = Some(now);
                    }
                    self.rmw = Some(rmw);
                    return false;
                }
                // Read value: with the deadlock-avoidance scheme a same-line
                // pending write would have forced a drain, so the buffer is
                // conflict-free here; forward anyway for the unsafe
                // (bloom-disabled) configuration. As in `issue_read`, only a
                // not-yet-visible entry may forward — an accepted one is
                // already in memory and possibly overwritten.
                let old = self
                    .wb
                    .iter()
                    .rev()
                    .find(|e| e.addr == rmw.addr)
                    .filter(|e| e.issued_done.is_none())
                    .map(|e| e.value)
                    .unwrap_or_else(|| shared.memory.get(&rmw.addr).copied().unwrap_or(0));
                self.deliver_read(old, rmw.dest);
                let new = rmw.kind.apply(old);

                if config.rmw_atomicity == Atomicity::Type1 {
                    // Write completes immediately under the lock.
                    shared.memory.insert(rmw.addr, new);
                    let acc = shared
                        .coherence
                        .write(self.id, rmw.line, now)
                        .expect("holder's own write cannot be denied");
                    shared.coherence.unlock(self.id, rmw.line);
                    shared.lock_released = true;
                    self.set_busy(now, acc.done_at, shared);
                } else {
                    if let Some(since) = self.wb_stall_since.take() {
                        self.stats.wb_full_stalls += now - since;
                    }
                    self.wb.push_back(WbEntry {
                        addr: rmw.addr,
                        value: new,
                        line: rmw.line,
                        request_arrives: None,
                        issued_done: None,
                        unlock_on_pop: true,
                    });
                    self.set_busy(now, now + 1, shared);
                }

                let acquire_started = rmw.acquire_started.expect("acquire phase ran");
                self.stats.rmw_cost.ra_wa_cycles +=
                    (now - acquire_started) + rmw.pre_acquire_rawa + 1;
                // Wake-to-acquire: the first RMW a core completes after a
                // futex resume is (in every zoo kernel) its lock
                // re-acquisition — the handoff latency of Fig.-style
                // fairness plots.
                if let Some(woken) = self.woken_at.take() {
                    self.stats.wake_to_acquire_cycles += now - woken;
                    self.stats.handoffs += 1;
                }
                self.stats.rmw_count += 1;
                self.stats.mem_ops += 1;
                shared.unique_rmw_lines.insert(rmw.line);
                shared.last_progress = now;

                if config.fence_after_rmw {
                    self.fence_since = Some(now);
                }
                self.rmw = None;
                return true;
            }
        }
        self.rmw = Some(rmw);
        true
    }
}
