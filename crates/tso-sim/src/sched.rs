//! The cycle-skipping event scheduler behind [`StepMode::EventDriven`].
//!
//! The lockstep engine advances time by ticking every core every cycle; at
//! paper scale (300-cycle memory, 32 cores) almost all of those ticks are
//! idle stall-waiting. The event-driven engine instead keeps a queue of
//! core wakeups keyed by cycle: whenever a core computes a completion
//! time — instruction-ready (`busy_until`), a write-buffer request arrival
//! or transaction completion, a broadcast-ack deadline, an RMW `Finish`
//! time — it arms a wakeup for itself at that cycle, and a futex wake or a
//! line-lock release arms one for each core it wakes. `Machine::run` jumps
//! `now` straight to the earliest armed cycle and ticks **only the due
//! cores**, lowest id first.
//!
//! Nothing else needs a wakeup. In particular a §3.2 broadcast copy waits
//! on its receiver's arrival list until that core next reads its filter,
//! so copy arrivals are not events.
//!
//! # Queue structure
//!
//! The queue is a **calendar wheel** (bucket per cycle modulo the wheel
//! size, with a bitmap for next-event scans) backed by a
//! binary-heap overflow for arms beyond the wheel horizon. Every latency
//! the Table 2 machine can produce (300-cycle memory + mesh traversals)
//! fits the horizon, so in practice arming and visiting are O(1).
//! Each bucket is a per-core **bitmap** rather than an event list:
//! arming is a single OR (duplicates are absorbed for free), and visiting
//! a cycle merges the bucket's words straight into the **due bitmap**,
//! from which the machine takes that cycle's cores lowest id first — the
//! queue costs a fraction of a core tick even on kernels that arm
//! millions of `now + 1` wakeups. A wake for the current cycle sets its
//! bit in the due bitmap directly. Two invariants keep the wheel exact:
//! every other arm is strictly in the future, and the machine visits
//! *every* armed cycle, so a bucket is fully drained at its cycle and
//! never holds entries from two different cycles.
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
//!    *foreign* line lock — retries exactly when lockstep's per-cycle
//!    retry could first succeed: only the release of that line's lock
//!    can unblock it, and the release wakes the cores that lock denied,
//!    each one above the releaser's id later in the release cycle and
//!    each one below it in the next cycle;
//! 3. due cores tick in core-id order, so intra-cycle orderings (who sees
//!    an unlock first) are preserved bit-for-bit.
//!
//! [`Scheduler::next_cycle`] never returns a cycle at or before `now`
//! (time is monotone) nor skips past an armed wakeup — both
//! property-tested in `tests/engine_equiv.rs`.
//!
//! [`StepMode::EventDriven`]: crate::StepMode::EventDriven

use interconnect::Cycle;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Wheel size in cycles. Must be a power of two, and comfortably larger
/// than any single latency the machine composes (memory 300 + mesh round
/// trips); longer waits (huge `Compute` bubbles, exotic configs) spill to
/// the overflow heap.
const WHEEL_SIZE: usize = 512;
const WHEEL_MASK: u64 = WHEEL_SIZE as u64 - 1;
const BITMAP_WORDS: usize = WHEEL_SIZE / 64;

/// Calendar-wheel queue of core wakeups keyed by cycle.
///
/// Each bucket is a **core bitmap** (one bit per core id, word-major
/// across buckets), so arming is one OR and visiting a cycle is a handful
/// of word reads merged straight into the due bitmap. Nothing is
/// allocated per event — the dense kernels arm millions of near-future
/// wakeups and the queue must stay a fraction of a tick's cost, not a
/// multiple of it.
///
/// Arming is idempotent and conservative: duplicate wakeups are permitted
/// (the bitmap absorbs them), missing ones are not — see the module docs
/// for the exactness contract. A scheduler constructed disabled
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
    /// The cycle each occupied bucket holds, for the single-cycle
    /// invariant check (debug builds only — release recomputes the cycle
    /// from the bucket index, which the invariant makes unambiguous).
    #[cfg(debug_assertions)]
    bucket_cycle: Box<[Cycle; WHEEL_SIZE]>,
    /// Arms at or beyond the wheel horizon, as `(cycle, core)`.
    overflow: BinaryHeap<Reverse<(Cycle, usize)>>,
    /// The current cycle's due cores, one bit per core id.
    /// [`Scheduler::take_due`] hands them out lowest id first, so the
    /// tick order is sort-free and duplicate-free by construction.
    due_bits: Vec<u64>,
    enabled: bool,
    pending: usize,
    armed: u64,
}

impl Scheduler {
    /// Creates an empty scheduler. When `enabled` is false every arm is a
    /// no-op.
    pub fn new(enabled: bool) -> Self {
        Scheduler {
            bitmap: [0; BITMAP_WORDS],
            wheel_bits: Vec::new(),
            core_words: 0,
            #[cfg(debug_assertions)]
            bucket_cycle: Box::new([0; WHEEL_SIZE]),
            overflow: BinaryHeap::new(),
            due_bits: Vec::new(),
            enabled,
            pending: 0,
            armed: 0,
        }
    }

    /// Whether this scheduler records events.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Arms a wakeup for `core` at `at`, from the tick executing at `now`.
    ///
    /// `at == now` makes `core` due in the current cycle. The machine takes
    /// due cores lowest id first, so a current-cycle wake must name a core
    /// above the one ticking. A later `at` lands in the wheel (or, past its
    /// horizon, the overflow heap), and the machine visits every armed
    /// cycle — that keeps each bucket single-cycled.
    pub fn wake_core(&mut self, now: Cycle, at: Cycle, core: usize) {
        if !self.enabled {
            return;
        }
        debug_assert!(at >= now, "arm must not be in the past");
        self.armed += 1;
        if at == now {
            self.mark_due(core);
        } else if at - now >= WHEEL_SIZE as u64 {
            self.overflow.push(Reverse((at, core)));
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
            let w = core / 64;
            if w >= self.core_words {
                self.core_words = w + 1;
                self.wheel_bits.resize(self.core_words * WHEEL_SIZE, 0);
            }
            let word = &mut self.wheel_bits[w * WHEEL_SIZE + idx];
            let bit = 1u64 << (core % 64);
            self.pending += usize::from(*word & bit == 0);
            *word |= bit;
            self.bitmap[idx / 64] |= 1 << (idx % 64);
        }
    }

    /// Takes the lowest-id core still due in the current cycle, or `None`
    /// once the cycle's sweep is over.
    pub fn take_due(&mut self) -> Option<usize> {
        let w = self.due_bits.iter().position(|&word| word != 0)?;
        let word = &mut self.due_bits[w];
        let bit = word.trailing_zeros() as usize;
        *word &= *word - 1;
        Some(w * 64 + bit)
    }

    /// Sets `core`'s bit in the due bitmap.
    fn mark_due(&mut self, core: usize) {
        let w = core / 64;
        if w >= self.due_bits.len() {
            self.due_bits.resize(w + 1, 0);
        }
        self.due_bits[w] |= 1 << (core % 64);
    }

    /// Moves to the earliest armed cycle strictly after `now` and returns
    /// it, with every wakeup armed for it in the due bitmap. Returns
    /// `None` when nothing is armed — for the machine that means no tick
    /// can ever change state again (completion or wedge).
    ///
    /// A core due at that cycle is taken at the same position whether its
    /// arm sat in a wheel bucket or spilled to the overflow heap, so the
    /// tick order does not depend on how far ahead a wakeup was armed.
    pub fn next_cycle(&mut self, now: Cycle) -> Option<Cycle> {
        let wheel = self.next_bucket_cycle(now);
        let spilled = self.overflow.peek().map(|&Reverse((at, _))| at);
        let at = wheel.into_iter().chain(spilled).min()?;
        debug_assert!(at > now, "an arm was not visited at its cycle");
        if wheel == Some(at) {
            let idx = (at & WHEEL_MASK) as usize;
            self.bitmap[idx / 64] &= !(1 << (idx % 64));
            if self.due_bits.len() < self.core_words {
                self.due_bits.resize(self.core_words, 0);
            }
            for cw in 0..self.core_words {
                let cell = std::mem::take(&mut self.wheel_bits[cw * WHEEL_SIZE + idx]);
                self.pending -= cell.count_ones() as usize;
                self.due_bits[cw] |= cell;
            }
        }
        while let Some(&Reverse((t, core))) = self.overflow.peek() {
            if t > at {
                break;
            }
            self.overflow.pop();
            self.pending -= 1;
            self.mark_due(core);
        }
        Some(at)
    }

    /// The cycle of the earliest occupied wheel bucket after `now`. All
    /// wheel entries lie in (now, now + WHEEL_SIZE), so the first occupied
    /// bucket in circular order from `now + 1` is the earliest, and its
    /// index determines its cycle unambiguously.
    fn next_bucket_cycle(&self, now: Cycle) -> Option<Cycle> {
        let start = ((now + 1) & WHEEL_MASK) as usize;
        for step in 0..BITMAP_WORDS + 1 {
            let word_idx = (start / 64 + step) % BITMAP_WORDS;
            let mut word = self.bitmap[word_idx];
            if step == 0 {
                word &= !0u64 << (start % 64);
            }
            if step == BITMAP_WORDS {
                word &= !(!0u64 << (start % 64));
            }
            if word != 0 {
                let idx = word_idx * 64 + word.trailing_zeros() as usize;
                let mut at = (now & !WHEEL_MASK) + idx as u64;
                if at <= now {
                    at += WHEEL_SIZE as u64;
                }
                #[cfg(debug_assertions)]
                debug_assert_eq!(self.bucket_cycle[idx], at, "bucket holds a single cycle");
                return Some(at);
            }
        }
        None
    }

    /// Wakeups armed for a later cycle and not yet moved to the due
    /// bitmap.
    pub fn pending(&self) -> usize {
        self.pending
    }

    /// Total events armed so far.
    pub fn armed(&self) -> u64 {
        self.armed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Takes every core due in the current cycle, in order.
    fn take_all(s: &mut Scheduler) -> Vec<usize> {
        std::iter::from_fn(|| s.take_due()).collect()
    }

    #[test]
    fn disabled_scheduler_ignores_arms() {
        let mut s = Scheduler::new(false);
        s.wake_core(0, 5, 0);
        s.wake_core(0, 0, 1);
        assert!(!s.enabled());
        assert_eq!(s.pending(), 0);
        assert_eq!(s.armed(), 0);
        assert_eq!(s.take_due(), None);
        assert_eq!(s.next_cycle(0), None);
    }

    #[test]
    fn drains_due_cores_in_id_order_without_duplicates() {
        let mut s = Scheduler::new(true);
        s.wake_core(0, 10, 3);
        s.wake_core(0, 10, 1);
        s.wake_core(0, 10, 3);
        s.wake_core(0, 20, 0);
        assert_eq!(s.next_cycle(0), Some(10));
        assert_eq!(take_all(&mut s), vec![1, 3]);
        assert_eq!(s.armed(), 4);
        assert_eq!(s.next_cycle(10), Some(20));
        assert_eq!(take_all(&mut s), vec![0]);
        assert_eq!(s.pending(), 0);
        assert_eq!(s.next_cycle(20), None);
    }

    #[test]
    fn far_future_arms_spill_to_the_overflow() {
        let mut s = Scheduler::new(true);
        let far = 3 + 10 * WHEEL_SIZE as u64;
        s.wake_core(3, far, 2);
        s.wake_core(3, 4, 5);
        assert_eq!(s.next_cycle(3), Some(4));
        assert_eq!(take_all(&mut s), vec![5]);
        assert_eq!(s.next_cycle(4), Some(far));
        assert_eq!(take_all(&mut s), vec![2]);
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
            s.wake_core(0, 7, id);
            s.wake_core(0, 7, id);
        }
        assert_eq!(s.next_cycle(0), Some(7));
        assert_eq!(take_all(&mut s), (0..256).collect::<Vec<_>>());
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
            wheel.wake_core(200, at, c);
            // now_hint 0: at - 0 >= WHEEL_SIZE, spills to the heap.
            spilled.wake_core(0, at, c);
        }
        assert_eq!(wheel.next_cycle(200), Some(at));
        assert_eq!(spilled.next_cycle(0), Some(at));
        let (a, b) = (take_all(&mut wheel), take_all(&mut spilled));
        assert_eq!(a, b);
        assert_eq!(a, vec![0, 2, 7, 9, 31]);
        assert_eq!(wheel.pending(), 0);
        assert_eq!(spilled.pending(), 0);
    }

    #[test]
    fn wheel_wraps_cleanly_across_many_horizons() {
        let mut s = Scheduler::new(true);
        let mut now = 0u64;
        for round in 0..2_000u64 {
            let at = now + 1 + (round % 400);
            s.wake_core(now, at, (round % 5) as usize);
            assert_eq!(s.next_cycle(now), Some(at));
            assert_eq!(take_all(&mut s), vec![(round % 5) as usize]);
            now = at;
        }
        assert_eq!(s.pending(), 0);
    }

    #[test]
    fn a_current_cycle_wake_is_taken_in_id_order_mid_sweep() {
        // Core 1 ticks first at cycle 10 and releases a lock that cores 0,
        // 4 and 65 wait on: 4 and 65 tick later in this sweep, between the
        // cores already due, and 0 — already passed — ticks next cycle.
        let mut s = Scheduler::new(true);
        for core in [70, 6, 1] {
            s.wake_core(0, 10, core);
        }
        assert_eq!(s.next_cycle(0), Some(10));
        assert_eq!(s.take_due(), Some(1));
        s.wake_core(10, 10, 65);
        s.wake_core(10, 10, 4);
        s.wake_core(10, 11, 0);
        assert_eq!(take_all(&mut s), vec![4, 6, 65, 70]);
        assert_eq!(s.next_cycle(10), Some(11));
        assert_eq!(take_all(&mut s), vec![0]);
        assert_eq!(s.armed(), 6);
        assert_eq!(s.next_cycle(11), None);
    }
}
