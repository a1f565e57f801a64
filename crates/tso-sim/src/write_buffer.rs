//! A core's FIFO write buffer (§3.1; Table 2: 32 entries).
//!
//! A buffered store's coherence request is *sent*, *arrives* at the
//! line's home directory `request_latency` cycles later, and is then
//! either *accepted* — the write becomes globally visible and its
//! completion clock starts — or *denied* by another core's line lock and
//! re-sent the next cycle. The slot frees (the entry pops) once an
//! accepted write completes.
//!
//! Acceptance is FIFO, so an entry's state is its position, and two
//! cursors and a flag hold what would otherwise be rescanned every tick:
//!
//! ```text
//!   entries[..accepted]          accepted: visible, completing, then popped
//!   entries[accepted..sent]      in flight, except a `denied` head
//!   entries[sent..]              not yet sent
//! ```
//!
//! Only the first unaccepted entry is ever offered to the directory, so
//! only it can be denied; `denied` marks it unsent until the next
//! [`WriteBuffer::advance`] re-sends it. The caller's issue window always
//! covers `entries[..sent]`: it starts at the head and only shrinks when
//! the head pops (the whole-buffer window of an RMW drain ends only when
//! the buffer is empty).

use crate::core::Shared;
use interconnect::Cycle;
use rmw_types::{Addr, CacheLine, Value};
use std::collections::VecDeque;

/// A pending write in the write buffer.
#[derive(Debug, Clone, Copy)]
pub(crate) struct WbEntry {
    addr: Addr,
    value: Value,
    pub line: CacheLine,
    /// True for an RMW's `Wa`: popping it releases the line lock.
    pub unlock_on_pop: bool,
    /// Arrival cycle of the entry's latest request at the home directory
    /// (meaningful once sent). Lock denial happens at arrival — this
    /// in-flight window is what makes write-deadlocks possible.
    arrives: Cycle,
    /// Completion cycle of the accepted coherence transaction (meaningful
    /// once accepted).
    done: Cycle,
}

/// The buffer and its cursors (see the module docs for the invariant).
#[derive(Debug, Default)]
pub(crate) struct WriteBuffer {
    entries: VecDeque<WbEntry>,
    accepted: usize,
    sent: usize,
    denied: bool,
}

impl WriteBuffer {
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Appends an unsent store.
    pub fn push(&mut self, addr: Addr, value: Value, line: CacheLine, unlock_on_pop: bool) {
        self.entries.push_back(WbEntry {
            addr,
            value,
            line,
            unlock_on_pop,
            arrives: 0,
            done: 0,
        });
    }

    /// The value a load of `addr` forwards: that of the youngest buffered
    /// store to `addr`, unless it is already accepted. An accepted store
    /// is in memory (its slot only lingers for latency bookkeeping) and a
    /// foreign write may have been serialized after it; forwarding it then
    /// would resurrect an overwritten value, which TSO forbids.
    pub fn forward(&self, addr: Addr) -> Option<Value> {
        self.entries
            .range(self.accepted..)
            .rev()
            .find(|e| e.addr == addr)
            .map(|e| e.value)
    }

    /// True when a request among the first `window` entries waits to be
    /// sent: a denied head or a fresh store.
    pub fn has_unsent(&self, window: usize) -> bool {
        self.denied || self.sent < window
    }

    /// The first cycle at which a sent request can be accepted or the head
    /// popped: the first in-flight request's arrival or the accepted
    /// head's completion, whichever comes first; `Cycle::MAX` when neither
    /// exists. (A denied head is not in flight: it waits to be re-sent.)
    pub fn next_deadline(&self) -> Cycle {
        let completes = if self.accepted > 0 {
            self.entries[0].done
        } else {
            Cycle::MAX
        };
        let arrives = if self.accepted < self.sent && !self.denied {
            self.entries[self.accepted].arrives
        } else {
            Cycle::MAX
        };
        completes.min(arrives)
    }

    /// The lines of every buffered store, oldest first.
    pub fn lines(&self) -> impl Iterator<Item = CacheLine> + '_ {
        self.entries.iter().map(|e| e.line)
    }

    /// True when an RMW's `Wa` to `line` is buffered.
    pub fn holds_wa_on(&self, line: CacheLine) -> bool {
        self.entries
            .iter()
            .any(|e| e.unlock_on_pop && e.line == line)
    }

    /// One cycle of core `id`'s requests: re-sends a denied head, or else
    /// accepts the arrived requests from the head on, in FIFO order, until
    /// one has not arrived or is denied; then sends every fresh store
    /// among the first `window` entries. Counts a denial in
    /// `lock_retries`. Returns whether anything changed.
    pub fn advance(
        &mut self,
        id: usize,
        now: Cycle,
        window: usize,
        shared: &mut Shared,
        lock_retries: &mut u64,
    ) -> bool {
        debug_assert!(self.sent <= window, "a sent request left the window");
        let mut changed = false;
        if self.denied {
            // The re-send goes out the cycle after the denial, so the
            // retry cadence is one request round trip.
            self.denied = false;
            self.send(self.accepted, id, now, shared);
            changed = true;
        } else {
            while self.accepted < self.sent {
                let e = &mut self.entries[self.accepted];
                if now < e.arrives {
                    break;
                }
                changed = true;
                let Ok(done) = shared.coherence.write(id, e.line, now) else {
                    *lock_retries += 1;
                    self.denied = true;
                    break;
                };
                shared.memory.insert(e.addr, e.value);
                e.done = done;
                self.accepted += 1;
            }
        }
        while self.sent < window {
            self.send(self.sent, id, now, shared);
            self.sent += 1;
            changed = true;
        }
        changed
    }

    fn send(&mut self, i: usize, id: usize, now: Cycle, shared: &mut Shared) {
        let e = &mut self.entries[i];
        e.arrives = now + shared.coherence.request_latency(id, e.line);
    }

    /// Pops the head if its write has completed by `now`.
    pub fn pop_completed(&mut self, now: Cycle) -> Option<WbEntry> {
        if self.accepted == 0 || self.entries[0].done > now {
            return None;
        }
        self.accepted -= 1;
        self.sent -= 1;
        self.entries.pop_front()
    }
}
