//! The in-order core model: the RMW phase machine and the per-op
//! execution rules, over the FIFO write buffer of `write_buffer.rs`.
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
//! been skipped. The core arms nothing for itself: after every tick the
//! event engine asks `Core::next_wake` for the earliest cycle at which
//! the core can act without outside help, read from its state alone —
//! `busy_until`, the write buffer's next arrival or completion, the
//! broadcast-ack deadline, the RMW `Finish` time, a futex resume, or the
//! next cycle when a send, a phase step or a fence can proceed — and arms
//! it in the shared [`Scheduler`](crate::sched::Scheduler). Since each
//! tick re-derives the deadline, a wake may come early (the tick is then
//! a pure wait) but never late. A read or RMW acquisition denied by a
//! foreign line lock records the line in `Shared::lock_waits`, and the
//! release of the lock wakes it (see `Shared::release_lock`); a futex
//! wake arms the sleepers it resumes. A blocked core retries the
//! denied transaction itself: a denial changes no coherence state, so
//! lockstep's per-cycle retries and the event engine's one retry at the
//! release leave the same state. Each blocked episode attributes its
//! whole duration to the stall counters in one add when it ends, which
//! yields exactly the same counts the per-cycle increments used to.

use crate::config::SimConfig;
use crate::stats::{NetTraffic, SimStats};
use crate::trace::{Op, Reg, Src, Trace, NUM_REGS};
use crate::write_buffer::WriteBuffer;
use bloom::BloomFilter;
use coherence::CoherenceSystem;
use interconnect::{Cycle, Mesh};
use rmw_types::fasthash::{FastHashMap, FastHashSet};
use rmw_types::{Addr, Atomicity, CacheLine, RmwKind, Value};
use std::collections::VecDeque;

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
    /// Cycles spent draining so far: write-buffer cost, the rest of the
    /// RMW's span is Ra/Wa cost.
    drained: Cycle,
    /// First cycle of the current lock-denied acquire episode, if the
    /// acquisition is blocked on a foreign lock. The whole episode is
    /// attributed to `lock_retries` when it ends (one count per denied
    /// cycle, exactly as per-cycle retrying produced).
    lock_blocked_since: Option<Cycle>,
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
    /// Per core, the line whose lock denied its read or RMW acquisition
    /// since that lock's last release (see [`Shared::release_lock`]).
    pub lock_waits: Vec<Option<CacheLine>>,
    /// Messages and link traversals of the broadcasts and their acks.
    pub net: NetTraffic,
    /// The event queue (disabled under `StepMode::Lockstep`).
    pub sched: crate::sched::Scheduler,
    /// Set when the reset threshold fires; machine coordinates the reset.
    pub reset_requested: bool,
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

    /// Releases `holder`'s lock on `line` at `now` and wakes the cores it
    /// denied at the cycle lockstep's per-cycle re-poll first succeeds: a
    /// waiter above `holder` ticks after it in this cycle, one below it in
    /// the next. A waiter that finds the line locked again waits for the
    /// new lock's release.
    fn release_lock(&mut self, holder: usize, line: CacheLine, now: Cycle) {
        self.coherence.unlock(holder, line);
        for (core, waits) in self.lock_waits.iter_mut().enumerate() {
            if *waits == Some(line) {
                *waits = None;
                let at = if core > holder { now } else { now + 1 };
                self.sched.wake_core(now, at, core);
            }
        }
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
    wb: WriteBuffer,
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
            wb: WriteBuffer::default(),
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

    /// The earliest cycle after `now` at which this core's tick can act
    /// without outside help, read from its state after the tick at `now`:
    /// `now + 1` when a write-buffer send, an RMW phase step or a fence
    /// can proceed, else the first of the write buffer's next deadline,
    /// the ack deadline, the RMW read half's completion, a pending futex
    /// resume and `busy_until`. `Cycle::MAX` when only a lock release or
    /// a futex wake can move the core, or when it is done.
    pub fn next_wake(&self, now: Cycle, shared: &Shared, config: &SimConfig) -> Cycle {
        let next = now + 1;
        let wb = if self.wb.has_unsent(self.wb_window(config)) {
            next
        } else {
            self.wb.next_deadline()
        };
        let own = if let Some(rmw) = self.rmw {
            match rmw.phase {
                RmwPhase::Bloom | RmwPhase::CheckConflicts => next,
                RmwPhase::WaitAcks { until } => until,
                RmwPhase::Drain if self.wb.is_empty() => next,
                RmwPhase::Acquire if rmw.lock_blocked_since.is_none() => next,
                RmwPhase::Finish { at } if self.wb_stall_since.is_none() => at,
                // A drain or a `Wa` stalled on a full buffer waits on the
                // buffer; a denied acquisition on the lock's release.
                _ => Cycle::MAX,
            }
        } else if self.fence_since.is_some() {
            if self.wb.is_empty() {
                next
            } else {
                Cycle::MAX
            }
        } else if self.futex_sleep.is_some() {
            // Before the end-of-trace case: a trailing wait has retired.
            shared.futex.woken[self.id].unwrap_or(Cycle::MAX)
        } else if self.pc >= self.trace.len()
            || self.read_blocked_since.is_some()
            || self.wb_stall_since.is_some()
        {
            Cycle::MAX
        } else {
            self.busy_until
        };
        wb.min(own).max(next)
    }

    /// One simulation cycle. Returns `true` iff anything (state or stats)
    /// changed — `false` means the tick was a pure wait that a
    /// cycle-skipping engine may elide.
    pub fn tick(&mut self, now: Cycle, shared: &mut Shared, config: &SimConfig) -> bool {
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
                // Waiting on our own buffer.
                return changed;
            }
        }

        if let Some(since) = self.futex_sleep {
            // Asleep on a futex queue. The buffer was drained before the
            // sleep, the phase machines are idle, so a sleeping core's
            // tick is a pure wait until the resume cycle the waker set.
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
                self.busy_until = now + Cycle::from(n);
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
                self.busy_until = now + 1;
                self.retire(now, shared);
            }
            Op::AddImm(reg, value) => {
                self.regs[reg as usize] = self.regs[reg as usize].wrapping_add(value);
                self.busy_until = now + 1;
                self.retire(now, shared);
            }
            Op::Jump(target) => {
                self.busy_until = now + 1;
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
                self.busy_until = now + 1;
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
                    self.busy_until = now + config.futex_latency;
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
                self.busy_until = now + config.futex_latency;
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
        if let Some(v) = self.wb.forward(addr) {
            self.deliver_read(v, dest);
            self.busy_until = now + config.coherence.l1_latency;
            self.stats.mem_ops += 1;
            self.retire(now, shared);
            return true;
        }
        let line = addr.line(config.line_size);
        let Ok(done) = shared.coherence.read(self.id, line, now) else {
            // Blocked on a foreign lock until its release wakes us. A
            // denied read changes nothing, so lockstep's per-cycle retries
            // and the event engine's one retry at the release agree.
            self.read_blocked_since.get_or_insert(now);
            shared.lock_waits[self.id] = Some(line);
            return false;
        };
        if let Some(since) = self.read_blocked_since.take() {
            self.stats.lock_retries += now - since;
        }
        let v = shared.memory.get(&addr).copied().unwrap_or(0);
        self.deliver_read(v, dest);
        self.busy_until = done;
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
        self.wb
            .push(addr, value, addr.line(config.line_size), false);
        self.busy_until = now + 1;
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
            drained: 0,
            lock_blocked_since: None,
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

    /// The write-buffer entries whose requests may be in flight: while an
    /// RMW drains the buffer every entry's (the Table 2 baseline's
    /// parallel drain, after Gharachorloo); otherwise the first
    /// `wb_outstanding`.
    fn wb_window(&self, config: &SimConfig) -> usize {
        if self.draining_for_rmw() {
            self.wb.len()
        } else {
            config.wb_outstanding.min(self.wb.len())
        }
    }

    /// Sends, accepts and re-sends write-buffer requests (see
    /// [`WriteBuffer::advance`]) and pops completed heads.
    fn process_write_buffer(
        &mut self,
        now: Cycle,
        shared: &mut Shared,
        config: &SimConfig,
    ) -> bool {
        if self.wb.is_empty() {
            return false;
        }
        let window = self.wb_window(config);
        let mut changed =
            self.wb
                .advance(self.id, now, window, shared, &mut self.stats.lock_retries);

        // Pop completed head entries (one per cycle is enough at this
        // timescale, but draining benefits from popping all ready heads).
        while let Some(e) = self.wb.pop_completed(now) {
            // Release the line lock only once the *last* pending Wa to this
            // line commits: back-to-back RMWs to one line keep it locked
            // across both, whether the successor's Wa is already buffered
            // or its RMW is still in flight holding the lock (Finish
            // phase).
            if e.unlock_on_pop
                && !self.wb.holds_wa_on(e.line)
                && !self
                    .rmw
                    .is_some_and(|r| r.line == e.line && matches!(r.phase, RmwPhase::Finish { .. }))
            {
                shared.release_lock(self.id, e.line, now);
            }
            shared.last_progress = now;
            changed = true;
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
                // Deadlock safety only requires that no pending write waits
                // on a line locked by *another* processor. A pending write
                // to a line this core itself holds locked (its own earlier
                // Wa, or data under its own lock) cannot participate in a
                // deadlock cycle, so it is excluded from the conflict check
                // even though its address is in the addr-list.
                let conflict = self.wb.lines().any(|line| {
                    let self_locked = shared
                        .coherence
                        .lock_of(line)
                        .is_some_and(|l| l.holder == self.id);
                    !self_locked && self.bloom.maybe_contains(line.0)
                });
                if conflict {
                    self.stats.rmw_drains += 1;
                    rmw.drain_started = Some(now);
                    rmw.phase = RmwPhase::Drain;
                } else {
                    rmw.phase = RmwPhase::Acquire;
                }
                shared.last_progress = now;
            }
            RmwPhase::Drain => {
                if self.wb.is_empty() {
                    let started = rmw.drain_started.take().expect("drain phase has a start");
                    self.stats.rmw_cost.write_buffer_cycles += now - started;
                    rmw.drained += now - started;
                    if config.rmw_atomicity == Atomicity::Type1 {
                        self.stats.rmw_drains += 1;
                    }
                    rmw.phase = RmwPhase::Acquire;
                    shared.last_progress = now;
                } else {
                    // Waiting on our own buffer.
                    self.rmw = Some(rmw);
                    return false;
                }
            }
            RmwPhase::Acquire => {
                // §3.3: only type-3 with directory locking takes read
                // permission; its fallback takes write permission, as
                // type-1/2 do.
                let read_permission =
                    config.rmw_atomicity == Atomicity::Type3 && config.directory_locking;
                let Ok(done) = shared
                    .coherence
                    .acquire(self.id, rmw.line, now, read_permission)
                else {
                    // Blocked on a foreign lock until its release wakes
                    // us; the denied acquisition changed nothing. The
                    // episode length is attributed to `lock_retries`
                    // below, one per denied cycle.
                    rmw.lock_blocked_since.get_or_insert(now);
                    shared.lock_waits[self.id] = Some(rmw.line);
                    self.rmw = Some(rmw);
                    return false;
                };
                if let Some(since) = rmw.lock_blocked_since.take() {
                    self.stats.lock_retries += now - since;
                }
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
                // stall is attributed when the slot frees. Checked before
                // the read half commits so nothing needs undoing.
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
                // (bloom-disabled) configuration.
                let old = self
                    .wb
                    .forward(rmw.addr)
                    .unwrap_or_else(|| shared.memory.get(&rmw.addr).copied().unwrap_or(0));
                self.deliver_read(old, rmw.dest);
                let new = rmw.kind.apply(old);

                if config.rmw_atomicity == Atomicity::Type1 {
                    // Write completes immediately under the lock.
                    shared.memory.insert(rmw.addr, new);
                    let done = shared
                        .coherence
                        .write(self.id, rmw.line, now)
                        .expect("holder's own write cannot be denied");
                    shared.release_lock(self.id, rmw.line, now);
                    self.busy_until = done;
                } else {
                    if let Some(since) = self.wb_stall_since.take() {
                        self.stats.wb_full_stalls += now - since;
                    }
                    self.wb.push(rmw.addr, new, rmw.line, true);
                    self.busy_until = now + 1;
                }

                self.stats.rmw_cost.ra_wa_cycles += now + 1 - rmw.started - rmw.drained;
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
