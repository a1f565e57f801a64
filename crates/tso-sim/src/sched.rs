//! The cycle-skipping event scheduler behind [`StepMode::EventDriven`].
//!
//! The lockstep engine advances time by ticking every core every cycle; at
//! paper scale (300-cycle memory, 32 cores) almost all of those ticks are
//! idle stall-waiting. The event-driven engine instead keeps an event
//! queue keyed by `(cycle, target)`: whenever a core computes a completion
//! time — instruction-ready (`busy_until`), a write-buffer request arrival
//! or transaction completion, a broadcast-ack deadline, an RMW `Finish`
//! time — it arms a wakeup for *itself* at that cycle; machine-level
//! deliveries (broadcast messages in flight) arm a machine-target wakeup.
//! `Machine::run` jumps `now` straight to the earliest armed cycle and
//! ticks **only the due cores**, in core-id order.
//!
//! # Queue structure
//!
//! The queue is a **calendar wheel** (bucket per cycle modulo the wheel
//! size, with a bitmap for next-event scans) backed by a
//! binary-heap overflow for arms beyond the wheel horizon. Every latency
//! the Table 2 machine can produce (300-cycle memory + mesh traversals)
//! fits the horizon, so in practice arming and draining are O(1).
//! Each bucket is a per-core **bitmap** rather than an event list:
//! arming is a single OR (duplicates are absorbed for free), and a drain
//! merges the bucket's words straight into the due-core bitmap — the
//! queue costs a fraction of a core tick even on kernels that arm
//! millions of `now + 1` wakeups. Two invariants keep the wheel exact:
//! every arm is strictly in the future, and the machine visits *every*
//! armed cycle, so a bucket is fully drained at its cycle and never
//! holds entries from two different cycles.
//!
//! # Exactness contract
//!
//! The engine remains **cycle-identical** to lockstep (asserted by
//! `tests/engine_equiv.rs`) because skipped work is provably a no-op:
//!
//! 1. a core's tick can only *act* (mutate state or statistics) at a cycle
//!    it armed for itself — every future deadline is armed when computed,
//!    and a tick that acted arms `now + 1` for the same core whenever its
//!    end-of-tick state demands a next-cycle action (phase-machine
//!    advances, request sends and re-sends, fences over an empty buffer);
//! 2. the one cross-core wait — a read or RMW acquisition blocked on a
//!    *foreign* line lock — re-probes exactly when lockstep's per-cycle
//!    re-poll could first succeed: a lock **release** is the only event
//!    that can unblock it, so blocked cores are ticked whenever an
//!    earlier-id core released a lock in the same cycle, and a
//!    blocked-wakeup ([`Scheduler::wake_blocked`]) is armed for the cycle
//!    after any release;
//! 3. due cores tick in core-id order, so intra-cycle orderings (who sees
//!    an unlock first) are preserved bit-for-bit.
//!
//! [`Scheduler::next_after`] never returns a cycle at or before `now`
//! (time is monotone) nor skips past an armed wakeup — both
//! property-tested in `tests/engine_equiv.rs`.
//!
//! [`StepMode::EventDriven`]: crate::StepMode::EventDriven

use interconnect::Cycle;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// What a scheduled wakeup is waiting for. Purely diagnostic — ordering is
/// by `(cycle, target)` — but counted in [`Scheduler::armed_by_kind`] so
/// tests and benches can see where event pressure comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A core's `busy_until` expires (instruction issue/retire).
    CoreReady,
    /// A write-buffer coherence request arrives at the home directory.
    WbRequestArrival,
    /// An accepted write-buffer transaction completes (slot frees, locks
    /// may release).
    WbCompletion,
    /// The broadcast-ack collection deadline of a §3.2 RMW-address
    /// broadcast.
    BroadcastAcks,
    /// An RMW's read half completes (`RmwPhase::Finish`).
    RmwFinish,
    /// An interconnect message (RMW broadcast or ack) is delivered.
    NetDelivery,
    /// Conservative `now + 1` self-wakeup after a tick that acted:
    /// phase-machine advances and request (re-)sends ride on this.
    Advance,
    /// Wakeup of every lock-blocked core the cycle after a lock release
    /// (the event-time replacement for lockstep's per-cycle lock
    /// re-polling).
    LockRelease,
    /// A futex-sleeping core's resume time (`futex_latency` cycles after
    /// an `Op::FutexWake` dequeued it). Armed by the *waker*; the sleeper
    /// itself arms nothing while asleep.
    FutexWake,
}

impl EventKind {
    /// All kinds, indexable for the per-kind counters.
    pub const ALL: [EventKind; 9] = [
        EventKind::CoreReady,
        EventKind::WbRequestArrival,
        EventKind::WbCompletion,
        EventKind::BroadcastAcks,
        EventKind::RmwFinish,
        EventKind::NetDelivery,
        EventKind::Advance,
        EventKind::LockRelease,
        EventKind::FutexWake,
    ];

    fn index(self) -> usize {
        self as usize
    }
}

/// Wheel size in cycles. Must be a power of two, and comfortably larger
/// than any single latency the machine composes (memory 300 + mesh round
/// trips); longer waits (huge `Compute` bubbles, exotic configs) spill to
/// the overflow heap.
const WHEEL_SIZE: usize = 512;
const WHEEL_MASK: u64 = WHEEL_SIZE as u64 - 1;
const BITMAP_WORDS: usize = WHEEL_SIZE / 64;

/// Heap targets: core ids, then the two machine-level sentinels. The
/// sentinel encodings sort *after* every real core id, so due cores come
/// first at a given cycle.
const TARGET_BLOCKED: u32 = u32::MAX - 1;
const TARGET_MACHINE: u32 = u32::MAX;

/// Sets per-bucket flag bit `idx`, returning whether it was newly set.
fn set_bucket_flag(flags: &mut [u64; BITMAP_WORDS], idx: usize) -> bool {
    let (word, bit) = (idx / 64, 1u64 << (idx % 64));
    let newly = flags[word] & bit == 0;
    flags[word] |= bit;
    newly
}

/// What [`Scheduler::drain_due`] found armed at the drained cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Due {
    /// A blocked-wakeup was armed: every lock-blocked core must re-probe
    /// this cycle.
    pub wake_blocked: bool,
    /// A machine-level event (network delivery) was armed.
    pub machine: bool,
}

/// Calendar-wheel event queue keyed by `(cycle, target)`.
///
/// Each bucket is a **core bitmap** (one bit per core id, word-major
/// across buckets) plus two per-bucket sentinel flags, so arming is one
/// OR and draining a bucket is a handful of word reads merged straight
/// into the due-core bitmap. Nothing is allocated per event — the dense
/// kernels arm millions of near-future wakeups and the queue must stay
/// a fraction of a tick's cost, not a multiple of it.
///
/// Arming is idempotent and conservative: duplicate events are permitted
/// (the bitmap absorbs them), missing events are not — see the module
/// docs for the exactness contract. A scheduler constructed disabled
/// ([`Scheduler::new(false)`](Scheduler::new)) ignores all arms; the
/// lockstep engine uses one so `Core` can arm unconditionally without
/// filling a queue nobody drains.
#[derive(Debug, Clone)]
pub struct Scheduler {
    /// Occupancy bit per bucket.
    bitmap: [u64; BITMAP_WORDS],
    /// Per-bucket core bitmaps, word-major: core `id`'s bit for bucket
    /// `b` is bit `id % 64` of `wheel_bits[(id / 64) * WHEEL_SIZE + b]`.
    /// Word-major keeps growth (a wider machine's first arm) a plain
    /// append with no re-layout.
    wheel_bits: Vec<u64>,
    /// Core-bitmap words per bucket (`wheel_bits.len() / WHEEL_SIZE`).
    core_words: usize,
    /// Bit per bucket: a blocked-wakeup sentinel is armed there.
    blocked_bits: [u64; BITMAP_WORDS],
    /// Bit per bucket: a machine-level (delivery) arm is armed there.
    machine_bits: [u64; BITMAP_WORDS],
    /// The cycle each occupied bucket holds, for the single-cycle
    /// invariant check (debug builds only — release recomputes the cycle
    /// from the bucket index, which the invariant makes unambiguous).
    #[cfg(debug_assertions)]
    bucket_cycle: Box<[Cycle; WHEEL_SIZE]>,
    /// Arms at or beyond the wheel horizon.
    overflow: BinaryHeap<Reverse<(Cycle, u32)>>,
    /// Due-core bitmap (one bit per core id), reused across drains. Set
    /// bits are collected in ascending id order and cleared on the way
    /// out, so a drain is sort-free and duplicate-free by construction.
    due_bits: Vec<u64>,
    enabled: bool,
    pending: usize,
    armed: u64,
    armed_by_kind: [u64; EventKind::ALL.len()],
}

impl Scheduler {
    /// Creates an empty scheduler. When `enabled` is false every arm is a
    /// no-op.
    pub fn new(enabled: bool) -> Self {
        Scheduler {
            bitmap: [0; BITMAP_WORDS],
            wheel_bits: Vec::new(),
            core_words: 0,
            blocked_bits: [0; BITMAP_WORDS],
            machine_bits: [0; BITMAP_WORDS],
            #[cfg(debug_assertions)]
            bucket_cycle: Box::new([0; WHEEL_SIZE]),
            overflow: BinaryHeap::new(),
            due_bits: Vec::new(),
            enabled,
            pending: 0,
            armed: 0,
            armed_by_kind: [0; EventKind::ALL.len()],
        }
    }

    /// Whether this scheduler records events.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Arms `(at, target)`. `at` must be strictly in the future relative
    /// to the cycle the caller is executing — `Machine` visits every armed
    /// cycle, which keeps each bucket single-cycled.
    fn push(&mut self, now_hint: Cycle, at: Cycle, target: u32, kind: EventKind) {
        if !self.enabled {
            return;
        }
        debug_assert!(at > now_hint, "arm must be in the future");
        if at - now_hint >= WHEEL_SIZE as u64 {
            self.overflow.push(Reverse((at, target)));
            self.pending += 1;
        } else {
            let idx = (at & WHEEL_MASK) as usize;
            #[cfg(debug_assertions)]
            {
                let occupied = self.bitmap[idx / 64] & (1 << (idx % 64)) != 0;
                debug_assert!(
                    !occupied || self.bucket_cycle[idx] == at,
                    "bucket holds a single cycle"
                );
                self.bucket_cycle[idx] = at;
            }
            let newly = match target {
                TARGET_MACHINE => set_bucket_flag(&mut self.machine_bits, idx),
                TARGET_BLOCKED => set_bucket_flag(&mut self.blocked_bits, idx),
                id => {
                    let w = id as usize / 64;
                    if w >= self.core_words {
                        self.core_words = w + 1;
                        self.wheel_bits.resize(self.core_words * WHEEL_SIZE, 0);
                    }
                    let cell = &mut self.wheel_bits[w * WHEEL_SIZE + idx];
                    let bit = 1u64 << (id % 64);
                    let newly = *cell & bit == 0;
                    *cell |= bit;
                    newly
                }
            };
            self.pending += usize::from(newly);
            self.bitmap[idx / 64] |= 1 << (idx % 64);
        }
        self.armed += 1;
        self.armed_by_kind[kind.index()] += 1;
    }

    /// Arms a wakeup for `core` at `at` (call from the tick executing at
    /// `now`; `at` must be `> now`).
    ///
    /// # Panics
    ///
    /// Panics if `core` collides with the sentinel target encodings
    /// (≥ `u32::MAX - 1` cores — far beyond any simulated machine).
    pub fn wake_core(&mut self, now: Cycle, at: Cycle, core: usize, kind: EventKind) {
        let id = u32::try_from(core).expect("core id fits the queue encoding");
        assert!(id < TARGET_BLOCKED, "core id collides with queue sentinels");
        self.push(now, at, id, kind);
    }

    /// Arms a machine-level wakeup (network delivery) at `at`.
    pub fn wake_machine(&mut self, now: Cycle, at: Cycle, kind: EventKind) {
        self.push(now, at, TARGET_MACHINE, kind);
    }

    /// Arms a wakeup of every lock-blocked core at `at`.
    pub fn wake_blocked(&mut self, now: Cycle, at: Cycle) {
        self.push(now, at, TARGET_BLOCKED, EventKind::LockRelease);
    }

    /// Pops every event armed at exactly `now`, appending due core ids to
    /// `due_cores` in ascending order without duplicates. Returns the
    /// machine-level flags.
    ///
    /// The drain is **batched**: a bucket holding many same-cycle events
    /// is emptied in one pass behind a single bitmap probe, and due core
    /// ids are accumulated as bits in the reusable due bitmap — ascending
    /// order and dedup fall out of the bit extraction, with no per-drain
    /// sort. The same bitmap canonicalizes ordering across the
    /// wheel/overflow boundary: a core due at `now` ticks at the same
    /// position whether its arm sat in a wheel bucket or spilled to the
    /// overflow heap, so results are horizon-choice-independent.
    pub fn drain_due(&mut self, now: Cycle, due_cores: &mut Vec<usize>) -> Due {
        let mut due = Due::default();
        let idx = (now & WHEEL_MASK) as usize;
        let (word, bit) = (idx / 64, 1u64 << (idx % 64));
        if self.bitmap[word] & bit != 0 {
            self.bitmap[word] &= !bit;
            #[cfg(debug_assertions)]
            debug_assert_eq!(self.bucket_cycle[idx], now, "bucket holds a single cycle");
            if self.due_bits.len() < self.core_words {
                self.due_bits.resize(self.core_words, 0);
            }
            for cw in 0..self.core_words {
                let cell = &mut self.wheel_bits[cw * WHEEL_SIZE + idx];
                if *cell != 0 {
                    self.pending -= cell.count_ones() as usize;
                    self.due_bits[cw] |= *cell;
                    *cell = 0;
                }
            }
            if self.blocked_bits[word] & bit != 0 {
                self.blocked_bits[word] &= !bit;
                self.pending -= 1;
                due.wake_blocked = true;
            }
            if self.machine_bits[word] & bit != 0 {
                self.machine_bits[word] &= !bit;
                self.pending -= 1;
                due.machine = true;
            }
        }
        while let Some(&Reverse((at, target))) = self.overflow.peek() {
            if at > now {
                break;
            }
            self.overflow.pop();
            self.pending -= 1;
            if at < now {
                continue; // stale (already serviced at its cycle)
            }
            match target {
                TARGET_MACHINE => due.machine = true,
                TARGET_BLOCKED => due.wake_blocked = true,
                id => self.mark_due(id),
            }
        }
        for w in 0..self.due_bits.len() {
            let mut word = self.due_bits[w];
            if word == 0 {
                continue;
            }
            self.due_bits[w] = 0;
            while word != 0 {
                let bit = word.trailing_zeros() as usize;
                word &= word - 1;
                due_cores.push(w * 64 + bit);
            }
        }
        due
    }

    /// Sets `id`'s bit in the reusable due-core bitmap (overflow drains;
    /// wheel drains merge whole words instead).
    fn mark_due(&mut self, id: u32) {
        let w = id as usize / 64;
        if w >= self.due_bits.len() {
            self.due_bits.resize(w + 1, 0);
        }
        self.due_bits[w] |= 1 << (id % 64);
    }

    /// The earliest armed cycle strictly after `now`. Returns `None` when
    /// nothing is armed — for the machine that means no tick can ever
    /// change state again (completion or wedge).
    pub fn next_after(&mut self, now: Cycle) -> Option<Cycle> {
        let mut best: Option<Cycle> = None;
        // Circular bitmap scan over the wheel, starting at now + 1. All
        // wheel entries lie in (now, now + WHEEL_SIZE), so the first
        // occupied bucket in circular order is the earliest wheel cycle.
        let start = ((now + 1) & WHEEL_MASK) as usize;
        'scan: for step in 0..BITMAP_WORDS + 1 {
            let word_idx = (start / 64 + step) % BITMAP_WORDS;
            let mut word = self.bitmap[word_idx];
            if step == 0 {
                word &= !0u64 << (start % 64);
            }
            if step == BITMAP_WORDS {
                word &= !(!0u64 << (start % 64));
            }
            if word != 0 {
                let bit = word.trailing_zeros() as usize;
                let idx = word_idx * 64 + bit;
                // All wheel entries lie in (now, now + WHEEL_SIZE), so the
                // bucket index determines the cycle unambiguously.
                let mut at = (now & !WHEEL_MASK) + idx as u64;
                if at <= now {
                    at += WHEEL_SIZE as u64;
                }
                #[cfg(debug_assertions)]
                debug_assert_eq!(self.bucket_cycle[idx], at, "bucket holds a single cycle");
                best = Some(at);
                break 'scan;
            }
        }
        while let Some(&Reverse((at, _))) = self.overflow.peek() {
            if at > now {
                best = Some(best.map_or(at, |b| b.min(at)));
                break;
            }
            self.overflow.pop();
            self.pending -= 1;
        }
        best
    }

    /// Events currently armed and not yet drained.
    pub fn pending(&self) -> usize {
        self.pending
    }

    /// Total events armed so far.
    pub fn armed(&self) -> u64 {
        self.armed
    }

    /// Events armed so far for one kind.
    pub fn armed_by_kind(&self, kind: EventKind) -> u64 {
        self.armed_by_kind[kind.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_scheduler_ignores_arms() {
        let mut s = Scheduler::new(false);
        s.wake_core(0, 5, 0, EventKind::CoreReady);
        s.wake_machine(0, 6, EventKind::NetDelivery);
        s.wake_blocked(0, 7);
        assert!(!s.enabled());
        assert_eq!(s.pending(), 0);
        assert_eq!(s.armed(), 0);
        assert_eq!(s.next_after(0), None);
    }

    #[test]
    fn drains_due_cores_in_id_order_without_duplicates() {
        let mut s = Scheduler::new(true);
        s.wake_core(0, 10, 3, EventKind::WbCompletion);
        s.wake_core(0, 10, 1, EventKind::CoreReady);
        s.wake_core(0, 10, 3, EventKind::Advance);
        s.wake_core(0, 20, 0, EventKind::CoreReady);
        s.wake_machine(0, 10, EventKind::NetDelivery);
        assert_eq!(s.next_after(0), Some(10));
        let mut due = Vec::new();
        let flags = s.drain_due(10, &mut due);
        assert_eq!(due, vec![1, 3]);
        assert!(flags.machine);
        assert!(!flags.wake_blocked);
        assert_eq!(s.next_after(10), Some(20));
        assert_eq!(s.armed(), 5);
        assert_eq!(s.armed_by_kind(EventKind::CoreReady), 2);
        due.clear();
        let flags = s.drain_due(20, &mut due);
        assert_eq!(due, vec![0]);
        assert!(!flags.machine);
        assert_eq!(s.pending(), 0);
        assert_eq!(s.next_after(20), None);
    }

    #[test]
    fn far_future_arms_spill_to_the_overflow() {
        let mut s = Scheduler::new(true);
        let far = 3 + 10 * WHEEL_SIZE as u64;
        s.wake_core(3, far, 2, EventKind::CoreReady);
        s.wake_blocked(3, 4);
        assert_eq!(s.next_after(3), Some(4));
        let mut due = Vec::new();
        let flags = s.drain_due(4, &mut due);
        assert!(flags.wake_blocked);
        assert!(due.is_empty());
        assert_eq!(s.next_after(4), Some(far));
        due.clear();
        let _ = s.drain_due(far, &mut due);
        assert_eq!(due, vec![2]);
        assert_eq!(s.pending(), 0);
    }

    #[test]
    fn batched_drain_empties_a_dense_bucket_in_id_order() {
        let mut s = Scheduler::new(true);
        // Arm every core of a large machine at one cycle, in a scrambled
        // order with duplicates — the dense-kernel worst case the batched
        // drain exists for.
        for i in 0..256usize {
            let id = (i * 97 + 13) % 256;
            s.wake_core(0, 7, id, EventKind::CoreReady);
            s.wake_core(0, 7, id, EventKind::Advance);
        }
        let mut due = Vec::new();
        s.drain_due(7, &mut due);
        assert_eq!(due, (0..256).collect::<Vec<_>>());
        assert_eq!(s.pending(), 0);
    }

    #[test]
    fn wheel_and_overflow_arms_drain_in_the_same_order() {
        // The same set of (cycle, core) arms must tick in the same order
        // whether each arm sat in a wheel bucket or spilled to the
        // overflow heap — the drain order is a function of the armed set,
        // not of the horizon the arm happened to land on.
        let at = 600u64;
        let cores = [9usize, 2, 7, 2, 0, 31, 7];
        let mut wheel = Scheduler::new(true);
        let mut spilled = Scheduler::new(true);
        for &c in &cores {
            // now_hint 200: at - 200 < WHEEL_SIZE, lands in a bucket.
            wheel.wake_core(200, at, c, EventKind::CoreReady);
            // now_hint 0: at - 0 >= WHEEL_SIZE, spills to the heap.
            spilled.wake_core(0, at, c, EventKind::CoreReady);
        }
        let (mut a, mut b) = (Vec::new(), Vec::new());
        let fa = wheel.drain_due(at, &mut a);
        let fb = spilled.drain_due(at, &mut b);
        assert_eq!(a, b);
        assert_eq!(a, vec![0, 2, 7, 9, 31]);
        assert_eq!(fa, fb);
        assert_eq!(wheel.pending(), 0);
        assert_eq!(spilled.pending(), 0);
    }

    #[test]
    fn wheel_wraps_cleanly_across_many_horizons() {
        let mut s = Scheduler::new(true);
        let mut now = 0u64;
        for round in 0..2_000u64 {
            let at = now + 1 + (round % 400);
            s.wake_core(now, at, (round % 5) as usize, EventKind::Advance);
            let next = s.next_after(now).expect("armed");
            assert_eq!(next, at);
            let mut due = Vec::new();
            s.drain_due(next, &mut due);
            assert_eq!(due, vec![(round % 5) as usize]);
            now = next;
        }
        assert_eq!(s.pending(), 0);
    }
}
