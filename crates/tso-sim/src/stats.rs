//! Simulation statistics — the quantities behind Table 3 and Figure 11.

use interconnect::Cycle;

/// The paper's Fig. 11(a) decomposition of RMW cost: cycles the core spent
/// stalled on the write-buffer drain vs. on performing `Ra`/`Wa` (permission
/// acquisition, locking, and any broadcast).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RmwCostBreakdown {
    /// Critical-path cycles attributable to write-buffer handling (the
    /// drain for type-1; bloom-triggered reverted drains for type-2/3).
    pub write_buffer_cycles: Cycle,
    /// Critical-path cycles attributable to `Ra`/`Wa`: coherence
    /// acquisition, line locking, and RMW-address broadcasts.
    pub ra_wa_cycles: Cycle,
}

/// Mesh traffic of the §3.2 RMW-address broadcast scheme during one run:
/// one copy to every other mesh node per broadcast, and one ack from each
/// receiving core whose copy arrived before the run ended — the overhead
/// the paper reports as negligible (<0.5 %). Coherence transactions are
/// latency-composed (see the `coherence` crate docs), so they do not
/// appear here.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct NetTraffic {
    /// Broadcast copies and acks sent.
    pub messages: u64,
    /// Link traversals of those messages (the paper's traffic metric).
    pub hops: u64,
}

/// Diagnostics of the time-advance engine itself (not simulated
/// behavior): how much work the run cost the host. Lockstep visits every
/// cycle and ticks every core; the event engine visits only armed cycles
/// and ticks only due cores. These fields legitimately differ between the
/// two engines — the equivalence contract covers everything else.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EngineStats {
    /// Cycles the engine executed (== `cycles` for lockstep).
    pub visited_cycles: u64,
    /// Core ticks executed.
    pub ticks: u64,
    /// Core ticks that acted (changed state or statistics).
    pub acting_ticks: u64,
    /// Events armed in the scheduler (0 for lockstep).
    pub events_armed: u64,
}

impl RmwCostBreakdown {
    /// Total critical-path cycles.
    pub fn total(&self) -> Cycle {
        self.write_buffer_cycles + self.ra_wa_cycles
    }

    /// Average cost per RMW given a count.
    pub fn average(&self, rmw_count: u64) -> f64 {
        if rmw_count == 0 {
            0.0
        } else {
            self.total() as f64 / rmw_count as f64
        }
    }
}

/// Aggregate statistics of one simulation run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SimStats {
    /// Total simulated cycles.
    pub cycles: Cycle,
    /// Retired operations (all kinds).
    pub ops: u64,
    /// Retired memory operations (reads + writes + RMWs).
    pub mem_ops: u64,
    /// Retired RMWs.
    pub rmw_count: u64,
    /// Distinct RMW cache-line addresses seen machine-wide.
    pub unique_rmw_addrs: u64,
    /// RMW cost decomposition (Fig. 11a).
    pub rmw_cost: RmwCostBreakdown,
    /// Write-buffer drains performed on behalf of RMWs. For type-1 this is
    /// every RMW; for type-2/3 only Bloom-filter hits (Table 3's
    /// "% write-buffer drains").
    pub rmw_drains: u64,
    /// RMW address broadcasts sent (Table 3's "RMW broadcasts per 100").
    pub rmw_broadcasts: u64,
    /// Bloom filter resets triggered by the threshold counter.
    pub bloom_resets: u64,
    /// Lock-contention pressure, in cycles: each write-buffer request
    /// denied at the directory counts once (the retry cadence is one
    /// round trip), and each cycle a read or an RMW acquisition sat
    /// blocked on a foreign line lock counts once (attributed in bulk
    /// when the episode ends).
    pub lock_retries: u64,
    /// Cycles an operation stalled because the write buffer was full: a
    /// store waiting for a free slot, or a type-2/3 RMW whose `Wa` could
    /// not retire into the buffer. Attributed when the stall ends.
    pub wb_full_stalls: u64,
    /// Fence stalls (cycles waiting on `mfence` drains) — including the
    /// pre-futex write-buffer drains (kernel-entry serialization).
    pub fence_cycles: Cycle,
    /// `FutexWait` calls that found `memory[addr] == expected` and slept.
    pub futex_waits: u64,
    /// `FutexWait` calls whose expected-value check failed (EAGAIN — the
    /// caller returned immediately and was never enqueued).
    pub futex_immediate: u64,
    /// Waiters dequeued by this core's `FutexWake` calls.
    pub futex_wakes: u64,
    /// Times this core was woken from a futex sleep. Machine-wide this
    /// matches `futex_wakes` unless the run ended with wakeups in flight.
    pub futex_wakeups: u64,
    /// Cycles spent asleep on a futex queue (blocked, burning no events).
    pub blocked_cycles: Cycle,
    /// Taken backward branches/jumps — each one is a spin-loop retry.
    pub spin_retries: u64,
    /// Cycles inside spin episodes: from the first taken back-edge until
    /// the loop exits (a fall-through or taken forward branch) or the
    /// core sleeps. The spin/blocked split is the paper-facing contrast
    /// between spinning and futex-based kernels.
    pub spin_cycles: Cycle,
    /// Cycles between waking from a futex sleep and completing the next
    /// RMW (the first lock-word access after resume) — the wake-to-acquire
    /// handoff latency.
    pub wake_to_acquire_cycles: Cycle,
    /// Completed wake→RMW handoffs (the count behind
    /// `wake_to_acquire_cycles`).
    pub handoffs: u64,
}

impl SimStats {
    /// Average critical-path cost of one RMW in cycles (Fig. 11a's bar
    /// height).
    pub fn avg_rmw_cost(&self) -> f64 {
        self.rmw_cost.average(self.rmw_count)
    }

    /// Fraction of execution time spent on RMW critical-path stalls
    /// (Fig. 11b's bar height).
    pub fn rmw_overhead_fraction(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.rmw_cost.total() as f64 / self.cycles as f64
        }
    }

    /// RMWs per 1000 memory operations (Table 3's "Ratio of RMWs").
    pub fn rmw_density_per_1000(&self) -> f64 {
        if self.mem_ops == 0 {
            0.0
        } else {
            1000.0 * self.rmw_count as f64 / self.mem_ops as f64
        }
    }

    /// Percentage of RMWs that are to previously-unseen addresses
    /// (Table 3's "% Unique RMWs").
    pub fn pct_unique_rmws(&self) -> f64 {
        if self.rmw_count == 0 {
            0.0
        } else {
            100.0 * self.unique_rmw_addrs as f64 / self.rmw_count as f64
        }
    }

    /// Percentage of RMWs that required a write-buffer drain (Table 3's
    /// "% write-buffer drains for type-2/type-3").
    pub fn pct_drains(&self) -> f64 {
        if self.rmw_count == 0 {
            0.0
        } else {
            100.0 * self.rmw_drains as f64 / self.rmw_count as f64
        }
    }

    /// Broadcasts per 100 RMW operations (Table 3's last column).
    pub fn broadcasts_per_100(&self) -> f64 {
        if self.rmw_count == 0 {
            0.0
        } else {
            100.0 * self.rmw_broadcasts as f64 / self.rmw_count as f64
        }
    }

    /// Accumulates another core's stats into this machine-level aggregate
    /// (cycle counts take the max; event counts add).
    pub fn merge_core(&mut self, other: &SimStats) {
        self.cycles = self.cycles.max(other.cycles);
        self.ops += other.ops;
        self.mem_ops += other.mem_ops;
        self.rmw_count += other.rmw_count;
        self.rmw_cost.write_buffer_cycles += other.rmw_cost.write_buffer_cycles;
        self.rmw_cost.ra_wa_cycles += other.rmw_cost.ra_wa_cycles;
        self.rmw_drains += other.rmw_drains;
        self.rmw_broadcasts += other.rmw_broadcasts;
        self.bloom_resets += other.bloom_resets;
        self.lock_retries += other.lock_retries;
        self.wb_full_stalls += other.wb_full_stalls;
        self.fence_cycles += other.fence_cycles;
        self.futex_waits += other.futex_waits;
        self.futex_immediate += other.futex_immediate;
        self.futex_wakes += other.futex_wakes;
        self.futex_wakeups += other.futex_wakeups;
        self.blocked_cycles += other.blocked_cycles;
        self.spin_retries += other.spin_retries;
        self.spin_cycles += other.spin_cycles;
        self.wake_to_acquire_cycles += other.wake_to_acquire_cycles;
        self.handoffs += other.handoffs;
        // unique_rmw_addrs is machine-global; set by the machine, not merged.
    }

    /// Average wake→RMW handoff latency in cycles (0 with no handoffs).
    pub fn avg_wake_to_acquire(&self) -> f64 {
        if self.handoffs == 0 {
            0.0
        } else {
            self.wake_to_acquire_cycles as f64 / self.handoffs as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn breakdown_totals() {
        let b = RmwCostBreakdown {
            write_buffer_cycles: 40,
            ra_wa_cycles: 29,
        };
        assert_eq!(b.total(), 69);
        assert!((b.average(1) - 69.0).abs() < 1e-9);
        assert!((b.average(2) - 34.5).abs() < 1e-9);
        assert_eq!(b.average(0), 0.0);
    }

    #[test]
    fn derived_metrics() {
        let s = SimStats {
            cycles: 1000,
            ops: 500,
            mem_ops: 400,
            rmw_count: 8,
            unique_rmw_addrs: 2,
            rmw_cost: RmwCostBreakdown {
                write_buffer_cycles: 60,
                ra_wa_cycles: 40,
            },
            rmw_drains: 1,
            rmw_broadcasts: 2,
            ..Default::default()
        };
        assert!((s.avg_rmw_cost() - 12.5).abs() < 1e-9);
        assert!((s.rmw_overhead_fraction() - 0.1).abs() < 1e-9);
        assert!((s.rmw_density_per_1000() - 20.0).abs() < 1e-9);
        assert!((s.pct_unique_rmws() - 25.0).abs() < 1e-9);
        assert!((s.pct_drains() - 12.5).abs() < 1e-9);
        assert!((s.broadcasts_per_100() - 25.0).abs() < 1e-9);
    }

    #[test]
    fn zero_division_guards() {
        let s = SimStats::default();
        assert_eq!(s.avg_rmw_cost(), 0.0);
        assert_eq!(s.rmw_overhead_fraction(), 0.0);
        assert_eq!(s.rmw_density_per_1000(), 0.0);
        assert_eq!(s.pct_unique_rmws(), 0.0);
        assert_eq!(s.pct_drains(), 0.0);
        assert_eq!(s.broadcasts_per_100(), 0.0);
    }

    #[test]
    fn merge_semantics() {
        let mut a = SimStats {
            cycles: 100,
            ops: 10,
            rmw_count: 1,
            ..Default::default()
        };
        let b = SimStats {
            cycles: 200,
            ops: 20,
            rmw_count: 2,
            ..Default::default()
        };
        a.merge_core(&b);
        assert_eq!(a.cycles, 200, "cycles take the max");
        assert_eq!(a.ops, 30);
        assert_eq!(a.rmw_count, 3);
    }

    #[test]
    fn contention_fields_merge_and_average() {
        let mut a = SimStats {
            futex_waits: 1,
            futex_wakes: 2,
            blocked_cycles: 50,
            spin_retries: 3,
            handoffs: 1,
            wake_to_acquire_cycles: 30,
            ..Default::default()
        };
        let b = SimStats {
            futex_waits: 4,
            futex_immediate: 1,
            futex_wakeups: 2,
            blocked_cycles: 10,
            spin_cycles: 7,
            handoffs: 1,
            wake_to_acquire_cycles: 10,
            ..Default::default()
        };
        a.merge_core(&b);
        assert_eq!(a.futex_waits, 5);
        assert_eq!(a.futex_immediate, 1);
        assert_eq!(a.futex_wakes, 2);
        assert_eq!(a.futex_wakeups, 2);
        assert_eq!(a.blocked_cycles, 60);
        assert_eq!(a.spin_retries, 3);
        assert_eq!(a.spin_cycles, 7);
        assert_eq!(a.handoffs, 2);
        assert!((a.avg_wake_to_acquire() - 20.0).abs() < 1e-9);
        assert_eq!(SimStats::default().avg_wake_to_acquire(), 0.0);
    }
}
