//! The cycle-skipping event scheduler behind [`StepMode::EventDriven`].
//!
//! The lockstep engine advances time by ticking every core every cycle; at
//! paper scale (300-cycle memory, 32 cores) almost all of those ticks are
//! idle stall-waiting. The event-driven engine instead keeps a queue of
//! core wakeups keyed by cycle. After each tick the machine arms the
//! ticked core at the cycle its state says it can next act
//! (`Core::next_wake`), and a futex wake or a line-lock release arms one
//! for each core it wakes. `Machine::run` jumps `now` straight to the
//! earliest armed cycle and ticks **only the due cores**, lowest id first.
//!
//! Nothing else needs a wakeup. In particular a §3.2 broadcast copy waits
//! on its receiver's arrival list until that core next reads its filter,
//! so copy arrivals are not events.
//!
//! # Queue structure
//!
//! The queue is a **calendar wheel** (bucket per cycle modulo the wheel
//! size, with a bitmap for next-event scans). An arm past the wheel's
//! horizon is clamped to it: the core wakes early, finds nothing to do,
//! and re-arms from its state, so a long wait costs one idle tick per
//! `WHEEL_SIZE - 1` cycles and no second structure. Every latency the
//! Table 2 machine composes (300-cycle memory + mesh traversals) fits the
//! horizon, so arming and visiting are O(1).
//! Each bucket is a per-core **bitmap** rather than an event list:
//! arming is a single OR (duplicates are absorbed for free), and visiting
//! a cycle merges the bucket's words straight into the **due bitmap**,
//! from which the machine takes that cycle's cores lowest id first — the
//! queue costs a fraction of a core tick even on kernels that arm
//! millions of `now + 1` wakeups. A wake for the current cycle sets its
//! bit in the due bitmap directly. Two invariants keep the wheel exact:
//! every other arm lies in `(now, now + WHEEL_SIZE)`, and the machine
//! visits *every* armed cycle, so a bucket is fully drained at its cycle
//! and never holds entries from two different cycles.
//!
//! # Exactness contract
//!
//! The engine remains **cycle-identical** to lockstep (asserted by
//! `tests/engine_equiv.rs`) because skipped work is provably a no-op:
//!
//! 1. a core's tick can only *act* (mutate state or statistics) at or
//!    after the cycle its own state names: after every tick the machine
//!    arms `Core::next_wake`, the earliest cycle at which the core can act
//!    without outside help, so a wake may come early (at the horizon, or
//!    for a deadline that has since moved) but never late;
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
//! (time is monotone), never passes an armed wakeup, and visits an arm
//! within the horizon at exactly its cycle — property-tested in
//! `tests/engine_equiv.rs`.
//!
//! [`StepMode::EventDriven`]: crate::StepMode::EventDriven

use interconnect::Cycle;

/// Wheel size in cycles. Must be a power of two, and comfortably larger
/// than any single latency the machine composes (memory 300 + mesh round
/// trips); a longer wait (a huge `Compute` bubble, a slow futex) is armed
/// at the horizon, `WHEEL_SIZE - 1` cycles out, and re-armed from there.
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
/// lockstep engine uses one so a lock release or a futex wake can arm
/// unconditionally without filling a queue nobody drains.
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
    /// The current cycle's due cores, one bit per core id.
    /// [`Scheduler::take_due`] hands them out lowest id first, so the
    /// tick order is sort-free and duplicate-free by construction.
    due_bits: Vec<u64>,
    enabled: bool,
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
            due_bits: Vec::new(),
            enabled,
            armed: 0,
        }
    }

    /// Arms a wakeup for `core` at `at`, from the tick executing at `now`.
    ///
    /// `at == now` makes `core` due in the current cycle. The machine takes
    /// due cores lowest id first, so a current-cycle wake must name a core
    /// above the one ticking. A later `at` lands in the wheel, clamped to
    /// the horizon `now + WHEEL_SIZE - 1`: the woken core re-derives its
    /// deadline when it ticks, so an early wake costs one idle tick and a
    /// late one is never made. The machine visits every armed cycle —
    /// that keeps each bucket single-cycled.
    pub fn wake_core(&mut self, now: Cycle, at: Cycle, core: usize) {
        if !self.enabled {
            return;
        }
        debug_assert!(at >= now, "arm must not be in the past");
        self.armed += 1;
        if at == now {
            self.mark_due(core);
        } else {
            let at = at.min(now + WHEEL_MASK);
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
            self.wheel_bits[w * WHEEL_SIZE + idx] |= 1 << (core % 64);
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
    pub fn next_cycle(&mut self, now: Cycle) -> Option<Cycle> {
        let at = self.next_bucket_cycle(now)?;
        let idx = (at & WHEEL_MASK) as usize;
        self.bitmap[idx / 64] &= !(1 << (idx % 64));
        if self.due_bits.len() < self.core_words {
            self.due_bits.resize(self.core_words, 0);
        }
        for cw in 0..self.core_words {
            self.due_bits[cw] |= std::mem::take(&mut self.wheel_bits[cw * WHEEL_SIZE + idx]);
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
        assert_eq!(s.next_cycle(20), None);
    }

    #[test]
    fn a_far_arm_wakes_at_the_horizon() {
        // An arm past the wheel lands `WHEEL_SIZE - 1` cycles out, after
        // every nearer one; an arm at the horizon itself is exact.
        let mut s = Scheduler::new(true);
        let horizon = 3 + WHEEL_SIZE as u64 - 1;
        s.wake_core(3, 3 + 10 * WHEEL_SIZE as u64, 2);
        s.wake_core(3, horizon, 7);
        s.wake_core(3, 4, 5);
        assert_eq!(s.next_cycle(3), Some(4));
        assert_eq!(take_all(&mut s), vec![5]);
        assert_eq!(s.next_cycle(4), Some(horizon));
        assert_eq!(take_all(&mut s), vec![2, 7]);
        assert_eq!(s.next_cycle(horizon), None);
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
        assert_eq!(s.next_cycle(7), None);
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
        assert_eq!(s.next_cycle(now), None);
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
