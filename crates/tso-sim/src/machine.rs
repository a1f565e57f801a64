//! The machine: cores + shared memory system, advanced in lockstep (every
//! core, every cycle) or by the cycle-skipping event scheduler.
//!
//! Both engines run the same per-cycle semantics (`Core::tick` in
//! core-id order, then the coordinated filter reset) and are
//! cycle-identical in every observable; see
//! [`crate::sched`] for the exactness contract and
//! `tests/engine_equiv.rs` for the suite that enforces it. The event
//! engine keeps no wake list of its own: each cycle it ticks the cores the
//! scheduler hands out and arms each one at the cycle its state names
//! (`Core::next_wake`); a futex wake or a line-lock release arms the
//! cores it wakes.

use crate::config::{SimConfig, StepMode};
use crate::core::{Core, FutexTable, Shared};
use crate::sched::Scheduler;
use crate::stats::{EngineStats, NetTraffic, SimStats};
use crate::trace::Trace;
use coherence::CoherenceSystem;
use interconnect::{Cycle, Mesh};
use rmw_types::fasthash::{FastHashMap, FastHashSet};
use rmw_types::Value;

/// Outcome of a simulation run.
#[derive(Debug, Clone)]
pub struct SimResult {
    /// Machine-level aggregate statistics.
    pub stats: SimStats,
    /// Per-core statistics (index = core id).
    pub per_core: Vec<SimStats>,
    /// Values observed by each core's reads (and RMW reads), in program
    /// order — used for cross-validation against the axiomatic model.
    pub reads: Vec<Vec<Value>>,
    /// Final memory contents.
    pub memory: FastHashMap<rmw_types::Addr, Value>,
    /// Mesh traffic of the §3.2 RMW-address broadcast scheme (messages
    /// and link traversals, broadcast copies + acks).
    pub net: NetTraffic,
    /// Host-side engine diagnostics (ticks, acting ticks, armed
    /// events); differs between step modes by design.
    pub engine: EngineStats,
    /// True if the machine stopped because no core made progress for the
    /// configured threshold (e.g. the Fig. 10 write-deadlock with the
    /// Bloom filter disabled).
    pub deadlocked: bool,
    /// True if the machine halted at the [`SimConfig::max_cycles`] ceiling
    /// with cores still running (spin livelocks count as watchdog
    /// progress, so only this bound stops them). Both engines truncate at
    /// exactly the same cycle.
    pub truncated: bool,
}

impl SimResult {
    /// The name of the first field on which `self` and `other` differ, or
    /// `None` when every observable agrees. `engine` is not compared: its
    /// host-side counters differ between step modes by design, and two
    /// engines agree when everything else is identical.
    pub fn first_difference(&self, other: &SimResult) -> Option<&'static str> {
        // Destructured so that a new field must be compared here (or
        // skipped on purpose, like `engine`) before this compiles.
        let SimResult {
            stats,
            per_core,
            reads,
            memory,
            net,
            engine: _,
            deadlocked,
            truncated,
        } = self;
        [
            ("stats", *stats == other.stats),
            ("per_core", *per_core == other.per_core),
            ("reads", *reads == other.reads),
            ("memory", *memory == other.memory),
            ("net", *net == other.net),
            ("deadlocked", *deadlocked == other.deadlocked),
            ("truncated", *truncated == other.truncated),
        ]
        .into_iter()
        .find_map(|(field, same)| (!same).then_some(field))
    }
}

/// The simulated CMP.
#[derive(Debug)]
pub struct Machine {
    config: SimConfig,
    cores: Vec<Core>,
    shared: Shared,
    now: Cycle,
    /// Cores not yet done (event engine; a core never un-finishes).
    live: Vec<bool>,
    /// Count of `true` entries in `live`.
    num_live: usize,
    /// Engine work counters for `SimResult::engine`.
    engine: EngineStats,
}

impl Machine {
    /// Builds a machine executing one trace per core.
    ///
    /// # Panics
    ///
    /// Panics if the config is invalid or there are more traces than cores.
    pub fn new(config: SimConfig, traces: Vec<Trace>) -> Self {
        config.validate().expect("invalid simulator configuration");
        assert!(
            traces.len() <= config.num_cores(),
            "{} traces for {} cores",
            traces.len(),
            config.num_cores()
        );
        let mut all = traces;
        all.resize(config.num_cores(), Trace::default());
        let cores: Vec<Core> = all
            .into_iter()
            .enumerate()
            .map(|(id, t)| Core::new(id, t, &config))
            .collect();
        let live: Vec<bool> = cores.iter().map(|c| !c.done()).collect();
        let num_live = live.iter().filter(|&&l| l).count();
        let futex = FutexTable::new(cores.len());
        let arrivals = vec![Vec::new(); cores.len()];
        let lock_waits = vec![None; cores.len()];
        Machine {
            cores,
            shared: Shared {
                coherence: CoherenceSystem::new(config.coherence),
                memory: FastHashMap::default(),
                unique_rmw_lines: FastHashSet::default(),
                mesh: Mesh::new(config.mesh()),
                arrivals,
                lock_waits,
                net: NetTraffic::default(),
                sched: Scheduler::new(config.step_mode != StepMode::Lockstep),
                reset_requested: false,
                last_progress: 0,
                futex,
            },
            config,
            now: 0,
            live,
            num_live,
            engine: EngineStats::default(),
        }
    }

    /// The configuration.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// Runs to completion (or deadlock detection) and returns the result.
    pub fn run(self) -> SimResult {
        match self.config.step_mode {
            StepMode::Lockstep => self.run_lockstep(),
            StepMode::EventDriven => self.run_event_driven(),
        }
    }

    /// The reference engine: every core ticks every cycle.
    fn run_lockstep(mut self) -> SimResult {
        let mut bloom_resets = 0u64;
        loop {
            if self.cores.iter().all(Core::done) {
                return self.finish(false, false, bloom_resets);
            }
            if self.now >= self.config.max_cycles {
                return self.finish(false, true, bloom_resets);
            }
            if self.now.saturating_sub(self.shared.last_progress) > self.config.deadlock_threshold {
                return self.finish(true, false, bloom_resets);
            }
            for i in 0..self.cores.len() {
                let acted = self.cores[i].tick(self.now, &mut self.shared, &self.config);
                self.engine.ticks += 1;
                self.engine.acting_ticks += u64::from(acted);
            }
            self.apply_filter_reset(&mut bloom_resets);
            self.now += 1;
        }
    }

    /// The cycle-skipping engine: visit only armed cycles, and at each one
    /// tick only the due cores, in core-id order — see `crate::sched` for
    /// why this is cycle-identical to lockstep.
    fn run_event_driven(mut self) -> SimResult {
        let mut bloom_resets = 0u64;
        if self.num_live == 0 {
            return self.finish(false, false, bloom_resets); // nothing to run
        }
        // Every live core is due at cycle 0, exactly like lockstep's first
        // tick; afterwards the due set comes from the armed wakeups.
        for i in (0..self.cores.len()).filter(|&i| self.live[i]) {
            self.shared.sched.wake_core(0, 0, i);
        }
        loop {
            while let Some(i) = self.shared.sched.take_due() {
                self.tick_core(i);
            }
            self.apply_filter_reset(&mut bloom_resets);
            if self.num_live == 0 {
                // Lockstep notices completion at the top of the next
                // cycle; report the identical cycle count.
                self.now += 1;
                return self.finish(false, false, bloom_resets);
            }
            // The watchdog in event time: the lockstep engine declares
            // deadlock at the first cycle more than `deadlock_threshold`
            // past the last progress. No armed event before that cycle
            // means no progress can occur before it either (skipped ticks
            // are no-ops), so if the next armed event lies at or beyond
            // the firing cycle — or nothing is armed at all — the machine
            // is wedged and stops at exactly the cycle lockstep would.
            let fire = self
                .shared
                .last_progress
                .saturating_add(self.config.deadlock_threshold)
                .saturating_add(1);
            // The hard ceiling composes the same way: lockstep checks
            // `done → truncate → watchdog` at the top of each cycle, so at
            // the stop cycle itself nothing executes — any armed event at
            // or beyond `stop` is never visited, and a tie between the
            // ceiling and the watchdog resolves as truncation.
            let stop = fire.min(self.config.max_cycles);
            match self.shared.sched.next_cycle(self.now) {
                Some(at) if at < stop => self.now = at,
                _ => {
                    let truncated = self.config.max_cycles <= fire;
                    self.now = stop;
                    return self.finish(!truncated, truncated, bloom_resets);
                }
            }
        }
    }

    /// Ticks one core, maintains the live count and arms the core's next
    /// wake (the tick itself arms the cores it wakes).
    fn tick_core(&mut self, i: usize) {
        let core = &mut self.cores[i];
        let acted = core.tick(self.now, &mut self.shared, &self.config);
        self.engine.ticks += 1;
        self.engine.acting_ticks += u64::from(acted);
        if acted && self.live[i] && core.done() {
            self.live[i] = false;
            self.num_live -= 1;
        }
        let at = core.next_wake(self.now, &self.shared, &self.config);
        if at != Cycle::MAX {
            self.shared.sched.wake_core(self.now, at, i);
        }
    }

    /// Coordinated filter reset: clear everything, then re-insert the
    /// addresses of lines still locked by in-flight RMWs (they must
    /// remain visible for the deadlock-safety property). Broadcast copies
    /// that arrived by this cycle are cleared with the filters (their
    /// acks still count); later ones land in the cleared filters.
    fn apply_filter_reset(&mut self, bloom_resets: &mut u64) {
        if !self.shared.reset_requested {
            return;
        }
        self.shared.reset_requested = false;
        *bloom_resets += 1;
        let live: Vec<u64> = self
            .shared
            .unique_rmw_lines
            .iter()
            .filter(|l| self.shared.coherence.lock_of(**l).is_some())
            .map(|l| l.0)
            .collect();
        for (i, core) in self.cores.iter_mut().enumerate() {
            self.shared.take_arrived(i, self.now, |_| {});
            core.bloom.reset();
            for &l in &live {
                core.bloom.insert(l);
            }
        }
    }

    fn finish(mut self, deadlocked: bool, truncated: bool, bloom_resets: u64) -> SimResult {
        // A copy that arrived before the final cycle was acked on arrival,
        // though its receiver never read its filter again.
        if let Some(last) = self.now.checked_sub(1) {
            for i in 0..self.cores.len() {
                self.shared.take_arrived(i, last, |_| {});
            }
        }
        let mut agg = SimStats::default();
        let mut per_core = Vec::with_capacity(self.cores.len());
        let mut reads = Vec::with_capacity(self.cores.len());
        for core in &mut self.cores {
            let mut s = core.stats;
            s.cycles = self.now;
            agg.merge_core(&s);
            per_core.push(s);
            reads.push(std::mem::take(&mut core.reads));
        }
        agg.cycles = self.now;
        agg.unique_rmw_addrs = self.shared.unique_rmw_lines.len() as u64;
        agg.bloom_resets = bloom_resets;
        let mut engine = self.engine;
        engine.events_armed = self.shared.sched.armed();
        SimResult {
            stats: agg,
            per_core,
            reads,
            memory: self.shared.memory,
            net: self.shared.net,
            engine,
            deadlocked,
            truncated,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{Cond, Op, Src};
    use rmw_types::{Addr, Atomicity};

    fn addr(i: u64) -> Addr {
        Addr(i * 64) // one address per cache line
    }

    #[test]
    fn empty_machine_terminates_immediately() {
        let r = Machine::new(SimConfig::small(2), vec![]).run();
        assert!(!r.deadlocked);
        assert_eq!(r.stats.ops, 0);
        assert_eq!(r.stats.cycles, 0);
    }

    #[test]
    fn single_core_read_write() {
        let t = Trace::new(vec![
            Op::write(addr(0), 7),
            Op::read(addr(0)), // forwarded from WB
            Op::read(addr(1)), // cold miss
        ]);
        let r = Machine::new(SimConfig::small(1), vec![t]).run();
        assert!(!r.deadlocked);
        assert_eq!(r.reads[0], vec![7, 0]);
        assert_eq!(r.memory.get(&addr(0)), Some(&7));
        assert_eq!(r.stats.mem_ops, 3);
    }

    #[test]
    fn rmw_applies_its_operation() {
        for a in Atomicity::ALL {
            let mut cfg = SimConfig::small(1);
            cfg.rmw_atomicity = a;
            let t = Trace::new(vec![
                Op::write(addr(0), 10),
                Op::Fence,
                Op::rmw(addr(0)), // FAA(1): reads 10, writes 11
                Op::read(addr(0)),
            ]);
            let r = Machine::new(cfg, vec![t]).run();
            assert!(!r.deadlocked, "{a}");
            assert_eq!(r.reads[0], vec![10, 11], "{a}");
            assert_eq!(r.memory.get(&addr(0)), Some(&11), "{a}");
            assert_eq!(r.stats.rmw_count, 1);
            assert_eq!(r.stats.unique_rmw_addrs, 1);
        }
    }

    #[test]
    fn two_cores_contended_rmw_serialize() {
        for a in Atomicity::ALL {
            let mut cfg = SimConfig::small(2);
            cfg.rmw_atomicity = a;
            let t0 = Trace::new(vec![Op::rmw(addr(0)); 5]);
            let t1 = Trace::new(vec![Op::rmw(addr(0)); 5]);
            let r = Machine::new(cfg, vec![t0, t1]).run();
            assert!(!r.deadlocked, "{a}");
            // FAA(1) × 10 serialized: final value 10, and the multiset of
            // observed values is exactly {0..9}.
            assert_eq!(r.memory.get(&addr(0)), Some(&10), "{a}");
            let mut seen: Vec<u64> = r.reads.iter().flatten().copied().collect();
            seen.sort_unstable();
            assert_eq!(seen, (0..10).collect::<Vec<_>>(), "{a}: atomicity violated");
        }
    }

    #[test]
    fn type1_drains_every_rmw() {
        let mut cfg = SimConfig::small(1);
        cfg.rmw_atomicity = Atomicity::Type1;
        let t = Trace::new(vec![
            Op::write(addr(1), 1),
            Op::write(addr(2), 2),
            Op::rmw(addr(0)),
        ]);
        let r = Machine::new(cfg, vec![t]).run();
        assert_eq!(r.stats.rmw_drains, 1);
        assert!(
            r.stats.rmw_cost.write_buffer_cycles > 0,
            "drain on critical path"
        );
    }

    #[test]
    fn type2_avoids_the_drain() {
        let mut cfg = SimConfig::small(1);
        cfg.rmw_atomicity = Atomicity::Type2;
        let t = Trace::new(vec![
            Op::write(addr(1), 1),
            Op::write(addr(2), 2),
            Op::rmw(addr(0)),
        ]);
        let r = Machine::new(cfg, vec![t]).run();
        assert_eq!(r.stats.rmw_drains, 0, "no conflicting writes → no drain");
        assert_eq!(r.stats.rmw_cost.write_buffer_cycles, 0);
        assert_eq!(r.stats.rmw_broadcasts, 1, "new address broadcast once");
    }

    #[test]
    fn type2_conflicting_pending_write_reverts_to_drain() {
        // Core 1 has a pending write to a line core 0 RMWs (so it is in the
        // addr-list); core 1's own RMW must revert to a drain.
        let mut cfg = SimConfig::small(2);
        cfg.rmw_atomicity = Atomicity::Type2;
        let t0 = Trace::new(vec![Op::rmw(addr(0))]);
        let t1 = Trace::new(vec![
            Op::Compute(400),      // let core 0's broadcast land
            Op::write(addr(0), 9), // pending write to an RMW line
            Op::rmw(addr(1)),      // checks WB: conflict → drain
        ]);
        let r = Machine::new(cfg, vec![t0, t1]).run();
        assert!(!r.deadlocked);
        assert_eq!(r.stats.rmw_drains, 1);
        assert!(r.stats.rmw_cost.write_buffer_cycles > 0);
    }

    #[test]
    fn own_pending_wa_does_not_force_a_drain() {
        // A pending write to a line this core itself holds locked (its own
        // earlier Wa) cannot deadlock it — no reverted drain.
        let mut cfg = SimConfig::small(1);
        cfg.rmw_atomicity = Atomicity::Type2;
        let t = Trace::new(vec![
            Op::rmw(addr(0)), // Wa(0) pending, line 0 locked by us
            Op::rmw(addr(1)), // back-to-back: must not drain
        ]);
        let r = Machine::new(cfg, vec![t]).run();
        assert!(!r.deadlocked);
        assert_eq!(r.stats.rmw_drains, 0);
        assert_eq!(r.stats.rmw_count, 2);
    }

    #[test]
    fn back_to_back_rmws_to_same_line_keep_it_locked() {
        let mut cfg = SimConfig::small(2);
        cfg.rmw_atomicity = Atomicity::Type2;
        let t0 = Trace::new(vec![Op::rmw(addr(0)), Op::rmw(addr(0)), Op::rmw(addr(0))]);
        let t1 = Trace::new(vec![Op::rmw(addr(0)), Op::rmw(addr(0))]);
        let r = Machine::new(cfg, vec![t0, t1]).run();
        assert!(!r.deadlocked);
        // FAA(1) × 5 fully serialized.
        assert_eq!(r.memory.get(&addr(0)), Some(&5));
        let mut seen: Vec<u64> = r.reads.iter().flatten().copied().collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..5).collect::<Vec<_>>());
    }

    #[test]
    fn repeated_rmw_to_same_address_broadcasts_once() {
        let mut cfg = SimConfig::small(2);
        cfg.rmw_atomicity = Atomicity::Type2;
        let t0 = Trace::new(vec![Op::rmw(addr(0)); 10]);
        let t1 = Trace::new(vec![Op::rmw(addr(0)); 10]);
        let r = Machine::new(cfg, vec![t0, t1]).run();
        // Both cores may broadcast before seeing each other's insert, but
        // after that the address is known everywhere.
        assert!(r.stats.rmw_broadcasts <= 2);
        assert_eq!(r.stats.unique_rmw_addrs, 1);
        assert_eq!(r.stats.rmw_count, 20);
    }

    #[test]
    fn broadcasts_travel_the_interconnect_with_acks() {
        let mut cfg = SimConfig::small(4);
        cfg.rmw_atomicity = Atomicity::Type2;
        let t0 = Trace::new(vec![Op::rmw(addr(0))]);
        let r = Machine::new(cfg, vec![t0]).run();
        assert_eq!(r.stats.rmw_broadcasts, 1);
        // One broadcast to the 3 other nodes, one ack back from each core:
        // hops 1 + 2 + 3 each way on the 4 × 1 mesh.
        assert_eq!(r.net.messages, 6);
        assert_eq!(r.net.hops, 12);
    }

    #[test]
    fn a_broadcast_copy_is_visible_from_its_arrival_cycle() {
        // Core 2 broadcasts line M at cycle 1, so M is in core 1's filter
        // by cycle 10. Core 0 computes for 20 cycles, starts RMW(L) at
        // cycle 20 and broadcasts L at 21; the copy reaches core 1 at
        // 21 + latency(0, 1). Core 1 computes for `n` cycles, buffers a
        // write to L at `n`, starts RMW(M) at n + 1, finds M in its filter
        // at n + 2 and checks its pending writes at n + 3: it drains iff
        // L's copy has arrived by then.
        let cfg = {
            let mut c = SimConfig::small(3);
            c.rmw_atomicity = Atomicity::Type2;
            c
        };
        let (m, l) = (addr(0), addr(1));
        let arrival = 21 + Mesh::new(cfg.mesh()).latency(0, 1);
        let drains = |check_at: Cycle, mode: StepMode| {
            let mut c = cfg;
            c.step_mode = mode;
            let n = u32::try_from(check_at - 3).unwrap();
            let traces = vec![
                Trace::new(vec![Op::Compute(20), Op::rmw(l)]),
                Trace::new(vec![Op::Compute(n), Op::write(l, 9), Op::rmw(m)]),
                Trace::new(vec![Op::rmw(m)]),
            ];
            let r = Machine::new(c, traces).run();
            assert!(!r.deadlocked, "{mode:?}");
            r.per_core[1].rmw_drains
        };
        for mode in [StepMode::EventDriven, StepMode::Lockstep] {
            assert_eq!(drains(arrival, mode), 1, "{mode:?}: copy due, no drain");
            assert_eq!(drains(arrival + 1, mode), 1, "{mode:?}: copy lost");
            assert_eq!(drains(arrival - 1, mode), 0, "{mode:?}: copy seen early");
        }
    }

    #[test]
    fn a_release_wakes_higher_waiters_this_cycle_and_lower_ones_the_next() {
        // Core 1's RMW holds line L until it releases it at its last
        // cycle, `release`. Cores 0 and 2 start reading L at `release - 3`,
        // are denied, and wait: core 2, above the releaser, reads L at
        // `release`, after core 1's tick; core 0, below it, reads L at
        // `release + 1`. A waiter's `lock_retries` counts its denied
        // cycles.
        let l = addr(0);
        for a in Atomicity::ALL {
            let run = |readers_at: Option<u32>, mode: StepMode| {
                let mut cfg = SimConfig::small(3);
                cfg.rmw_atomicity = a;
                cfg.step_mode = mode;
                let reader = readers_at.map_or_else(Trace::default, |n| {
                    Trace::new(vec![Op::Compute(n), Op::read(l)])
                });
                let traces = vec![reader.clone(), Trace::new(vec![Op::rmw(l)]), reader];
                let r = Machine::new(cfg, traces).run();
                assert!(!r.deadlocked, "{a} {mode:?}");
                r
            };
            let release = run(None, StepMode::EventDriven).stats.cycles - 1;
            let n = u32::try_from(release - 3).unwrap();
            let ev = run(Some(n), StepMode::EventDriven);
            let ls = run(Some(n), StepMode::Lockstep);
            assert_eq!(ev.first_difference(&ls), None, "{a}");
            assert_eq!(ev.per_core[2].lock_retries, 3, "{a}: waiter above");
            assert_eq!(ev.per_core[0].lock_retries, 4, "{a}: waiter below");
        }
    }

    #[test]
    fn a_denied_head_store_is_resent_next_cycle_and_the_stores_behind_it_follow() {
        // Core 1's RMW holds line L until it releases it at its last cycle,
        // `release`. Core 0 buffers W(L), W(M), W(N) one a cycle from `s`,
        // sending each the cycle after; W(L)'s request takes `lat` cycles
        // to reach L's home, so it arrives at `release - 2 * (lat + 1) -
        // 1`, is denied, is re-sent the next cycle and arrives again one
        // `lat + 1` round later: three denials, accepted at `release +
        // lat`. W(M) and W(N) arrived long before, but follow W(L) in FIFO
        // order in that same cycle: core 2 reads N the cycle before and
        // finds it unwritten, core 3 reads it in that cycle.
        let (l, m, n) = (addr(0), addr(1), addr(2));
        let cfg = SimConfig::small(4);
        // L's home directory is core 0's own node.
        let lat = cfg.coherence.l1_latency + Mesh::new(cfg.mesh()).latency(0, 0);
        let cycles = |c: Cycle| Op::Compute(u32::try_from(c).unwrap());
        for a in Atomicity::ALL {
            let run = |traces: Vec<Trace>, mode: StepMode| {
                let mut c = cfg;
                c.rmw_atomicity = a;
                c.step_mode = mode;
                let r = Machine::new(c, traces).run();
                assert!(!r.deadlocked, "{a} {mode:?}");
                r
            };
            let holder = Trace::new(vec![Op::rmw(l)]);
            let alone = run(
                vec![Trace::default(), holder.clone()],
                StepMode::EventDriven,
            );
            let release = alone.stats.cycles - 1;
            let accept = release + lat;
            let s = accept - 3 * (lat + 1) - (1 + lat);
            let traces = vec![
                Trace::new(vec![
                    cycles(s),
                    Op::write(l, 1),
                    Op::write(m, 2),
                    Op::write(n, 3),
                ]),
                holder,
                Trace::new(vec![cycles(accept - 1), Op::read(n)]),
                Trace::new(vec![cycles(accept), Op::read(n)]),
            ];
            let ev = run(traces.clone(), StepMode::EventDriven);
            let ls = run(traces, StepMode::Lockstep);
            assert_eq!(ev.first_difference(&ls), None, "{a}");
            assert_eq!(ev.per_core[0].lock_retries, 3, "{a}: denials of W(L)");
            assert_eq!(ev.reads[2], vec![0], "{a}: W(N) accepted before W(L)");
            assert_eq!(ev.reads[3], vec![3], "{a}: W(N) not accepted with W(L)");
            assert_eq!(ev.memory.get(&l), Some(&1), "{a}");
        }
    }

    #[test]
    fn a_read_does_not_forward_an_accepted_store_a_foreign_store_overwrote() {
        // Core 0's W(X) = 1 is accepted a few cycles in, and its slot
        // lingers until the cold write completes at `popped`. Core 1's
        // W(X) = 2 is accepted at cycle 12. Core 0 reads X at cycle 30,
        // while its own store still holds a slot: that store is visible
        // and overwritten, so the read returns core 1's value.
        let x = addr(0);
        for mode in [StepMode::EventDriven, StepMode::Lockstep] {
            let run = |traces: Vec<Trace>| {
                let mut cfg = SimConfig::small(2);
                cfg.step_mode = mode;
                Machine::new(cfg, traces).run()
            };
            // Alone, core 0's slot pops at the run's last cycle.
            let popped = run(vec![Trace::new(vec![Op::write(x, 1)])]).stats.cycles - 1;
            assert!(popped > 30, "{mode:?}: the slot popped at {popped}");
            let r = run(vec![
                Trace::new(vec![Op::write(x, 1), Op::Compute(29), Op::read(x)]),
                Trace::new(vec![Op::write(x, 2)]),
            ]);
            assert!(!r.deadlocked, "{mode:?}");
            assert_eq!(r.reads[0], vec![2], "{mode:?}");
            assert_eq!(r.memory.get(&x), Some(&2), "{mode:?}");
        }
    }

    #[test]
    fn a_release_does_not_tick_a_core_blocked_on_another_line() {
        // Cores 0 and 3 write-deadlock as in Fig. 10 (filter off), so core
        // 0 holds line M for the rest of the run and core 1's read of M,
        // issued at cycle 20, waits to the end. Meanwhile cores 2 and 4
        // take turns locking line L with `n` RMWs each. Core 1's ticks
        // are the run's ticks minus those of the same run with core 1
        // idle: its `Compute` and its denied read, however often L is
        // released.
        let (m, y, l) = (addr(0), addr(1), addr(2));
        let ticks = |n: usize, bystander: bool| {
            let mut cfg = SimConfig::small(5);
            cfg.rmw_atomicity = Atomicity::Type2;
            cfg.bloom_enabled = false;
            cfg.deadlock_threshold = 2_000;
            let reader = if bystander {
                Trace::new(vec![Op::Compute(20), Op::read(m)])
            } else {
                Trace::default()
            };
            let traces = vec![
                Trace::new(vec![Op::write(y, 1), Op::rmw(m)]),
                reader,
                Trace::new(vec![Op::rmw(l); n]),
                Trace::new(vec![Op::write(m, 1), Op::rmw(y)]),
                Trace::new(vec![Op::rmw(l); n]),
            ];
            let r = Machine::new(cfg, traces).run();
            assert!(r.deadlocked, "M stays locked");
            assert_eq!(r.memory.get(&l), Some(&(2 * n as u64)));
            r.engine.ticks
        };
        for n in [1, 4, 16] {
            assert_eq!(ticks(n, true) - ticks(n, false), 2, "{n} RMWs per core");
        }
    }

    #[test]
    fn fig10_deadlocks_without_bloom_and_not_with_it() {
        // Paper Fig. 10: W(x); RMW(y) || W(y); RMW(x) with type-2 RMWs.
        let mk = |bloom: bool| {
            let mut cfg = SimConfig::small(2);
            cfg.rmw_atomicity = Atomicity::Type2;
            cfg.bloom_enabled = bloom;
            cfg.deadlock_threshold = 20_000;
            let t0 = Trace::new(vec![Op::write(addr(0), 1), Op::rmw(addr(1))]);
            let t1 = Trace::new(vec![Op::write(addr(1), 1), Op::rmw(addr(0))]);
            Machine::new(cfg, vec![t0, t1]).run()
        };
        let unsafe_run = mk(false);
        assert!(
            unsafe_run.deadlocked,
            "without the filter the cross-locked RMWs must write-deadlock"
        );
        let safe_run = mk(true);
        assert!(
            !safe_run.deadlocked,
            "the addr-list check prevents the deadlock"
        );
        assert!(
            safe_run.stats.rmw_drains >= 1,
            "at least one RMW reverted to a drain"
        );
    }

    #[test]
    fn type3_uses_directory_lock_on_shared_lines() {
        let mut cfg = SimConfig::small(3);
        cfg.rmw_atomicity = Atomicity::Type3;
        // Cores 1 and 2 read the line first so it is widely shared; then
        // core 0 RMWs it.
        let t0 = Trace::new(vec![Op::Compute(500), Op::rmw(addr(0))]);
        let t1 = Trace::new(vec![Op::read(addr(0))]);
        let t2 = Trace::new(vec![Op::read(addr(0))]);
        let r = Machine::new(cfg, vec![t0, t1, t2]).run();
        assert!(!r.deadlocked);
        assert_eq!(r.stats.rmw_count, 1);
        assert_eq!(r.memory.get(&addr(0)), Some(&1));
    }

    #[test]
    fn type3_cheaper_than_type2_on_shared_lines() {
        // The §3.3 claim: an RMW to a shared line needs no invalidations on
        // the critical path under type-3.
        let run = |a: Atomicity| {
            let mut cfg = SimConfig::small(4);
            cfg.rmw_atomicity = a;
            let t0 = Trace::new(vec![Op::Compute(2000), Op::rmw(addr(0))]);
            let readers = Trace::new(vec![Op::read(addr(0))]);
            let r = Machine::new(cfg, vec![t0, readers.clone(), readers.clone(), readers]).run();
            assert!(!r.deadlocked);
            r.stats.rmw_cost.ra_wa_cycles
        };
        let t2 = run(Atomicity::Type2);
        let t3 = run(Atomicity::Type3);
        assert!(
            t3 < t2,
            "type-3 Ra/Wa ({t3}) should beat type-2 ({t2}) on shared lines"
        );
    }

    #[test]
    fn fences_drain_and_are_counted() {
        let mut cfg = SimConfig::small(1);
        cfg.rmw_atomicity = Atomicity::Type2;
        let t = Trace::new(vec![Op::write(addr(0), 1), Op::Fence, Op::read(addr(1))]);
        let r = Machine::new(cfg, vec![t]).run();
        assert!(r.stats.fence_cycles > 0);
        assert_eq!(r.reads[0], vec![0]);
    }

    #[test]
    fn fence_after_rmw_restores_type1_like_cost() {
        // §1 hypothesis: adding mfence after each RMW barely changes type-1
        // cost (the RMW already drained), but erases type-2's advantage.
        let run = |a: Atomicity, fence: bool| {
            let mut cfg = SimConfig::small(1);
            cfg.rmw_atomicity = a;
            cfg.fence_after_rmw = fence;
            let mut ops = Vec::new();
            for i in 0..20 {
                ops.push(Op::write(addr(10 + i), 1));
                ops.push(Op::rmw(addr(0)));
                ops.push(Op::read(addr(40 + i)));
            }
            let r = Machine::new(cfg, vec![Trace::new(ops)]).run();
            assert!(!r.deadlocked);
            r.stats.cycles
        };
        let t1_plain = run(Atomicity::Type1, false);
        let t1_fenced = run(Atomicity::Type1, true);
        let t2_plain = run(Atomicity::Type2, false);
        let t2_fenced = run(Atomicity::Type2, true);
        let t1_delta = t1_fenced as f64 / t1_plain as f64;
        assert!(
            t1_delta < 1.15,
            "fence after type-1 RMW should be nearly free, got ×{t1_delta:.2}"
        );
        assert!(t2_plain < t1_plain, "type-2 beats type-1");
        assert!(t2_fenced > t2_plain, "fencing erodes type-2's advantage");
    }

    #[test]
    fn bloom_reset_threshold_fires() {
        let mut cfg = SimConfig::small(1);
        cfg.rmw_atomicity = Atomicity::Type2;
        cfg.bloom_reset_threshold = Some(4);
        let ops: Vec<Op> = (0..10).map(|i| Op::rmw(addr(i))).collect();
        let r = Machine::new(cfg, vec![Trace::new(ops)]).run();
        assert!(!r.deadlocked);
        assert!(r.stats.bloom_resets >= 1);
        assert_eq!(r.stats.rmw_count, 10);
    }

    #[test]
    fn write_buffer_capacity_is_respected() {
        let mut cfg = SimConfig::small(1);
        cfg.write_buffer_entries = 2;
        let ops: Vec<Op> = (0..20).map(|i| Op::write(addr(i % 4), i)).collect();
        let r = Machine::new(cfg, vec![Trace::new(ops)]).run();
        assert!(!r.deadlocked);
        assert_eq!(r.stats.ops, 20);
    }

    #[test]
    fn deterministic_across_runs() {
        let mk = || {
            let mut cfg = SimConfig::small(4);
            cfg.rmw_atomicity = Atomicity::Type2;
            let traces: Vec<Trace> = (0..4)
                .map(|c| {
                    Trace::new(
                        (0..50)
                            .map(|i| match (c + i) % 3 {
                                0 => Op::rmw(addr(i % 5)),
                                1 => Op::write(addr(i % 7), i),
                                _ => Op::read(addr(i % 7)),
                            })
                            .collect(),
                    )
                })
                .collect();
            Machine::new(cfg, traces).run()
        };
        let a = mk();
        let b = mk();
        assert_eq!(a.stats, b.stats);
        assert_eq!(a.reads, b.reads);
    }

    #[test]
    fn lockstep_mode_produces_identical_results() {
        // A quick inline cross-check (the full suite lives in
        // tests/engine_equiv.rs): both engines, same run, same everything.
        let mk = |mode: StepMode| {
            let mut cfg = SimConfig::small(3);
            cfg.rmw_atomicity = Atomicity::Type2;
            cfg.step_mode = mode;
            let traces: Vec<Trace> = (0..3)
                .map(|c| {
                    Trace::new(
                        (0..30)
                            .map(|i| match (c + i) % 4 {
                                0 => Op::rmw(addr(i % 3)),
                                1 => Op::write(addr(i % 5), i),
                                2 => Op::Fence,
                                _ => Op::read(addr(i % 5)),
                            })
                            .collect(),
                    )
                })
                .collect();
            Machine::new(cfg, traces).run()
        };
        let ev = mk(StepMode::EventDriven);
        let ls = mk(StepMode::Lockstep);
        assert_eq!(ev.first_difference(&ls), None);
    }

    #[test]
    fn saturated_spin_machine_is_cycle_identical_in_both_engines() {
        // Nonstop register spins keep every core acting nearly every
        // cycle — the densest shape there is, where the event engine arms
        // `now + 1` for every core. Its result must still equal the
        // lockstep reference bit-for-bit.
        let spin = |n: u64| {
            Trace::new(vec![
                Op::MovImm(0, n),
                Op::AddImm(0, u64::MAX), // wrapping -1
                Op::Branch {
                    cond: Cond::Ne,
                    lhs: 0,
                    rhs: Src::Imm(0),
                    target: 1,
                },
                Op::WriteFrom(addr(3), 0),
            ])
        };
        let mk = |mode: StepMode| {
            let mut cfg = SimConfig::small(2);
            cfg.step_mode = mode;
            Machine::new(cfg, vec![spin(400), spin(300)]).run()
        };
        let ls = mk(StepMode::Lockstep);
        let ev = mk(StepMode::EventDriven);
        assert_eq!(ev.first_difference(&ls), None);
    }

    #[test]
    fn futex_wait_wake_round_trip() {
        for mode in [StepMode::EventDriven, StepMode::Lockstep] {
            let mut cfg = SimConfig::small(2);
            cfg.step_mode = mode;
            let t0 = Trace::new(vec![Op::FutexWait(addr(0), Src::Imm(0)), Op::read(addr(1))]);
            let t1 = Trace::new(vec![
                Op::Compute(300),
                Op::write(addr(1), 7),
                Op::FutexWake(addr(0), 1),
            ]);
            let r = Machine::new(cfg, vec![t0, t1]).run();
            assert!(!r.deadlocked && !r.truncated, "{mode:?}");
            assert_eq!(r.stats.futex_waits, 1, "{mode:?}");
            assert_eq!(r.stats.futex_wakes, 1, "{mode:?}");
            assert_eq!(r.stats.futex_wakeups, 1, "{mode:?}");
            assert!(r.stats.blocked_cycles > 0, "{mode:?}");
            // The wake drained the waker's buffer first, so the sleeper's
            // post-resume read observes the store that preceded the wake.
            assert_eq!(r.reads[0], vec![7], "{mode:?}");
        }
    }

    #[test]
    fn waits_past_the_horizon_wake_early_and_never_late() {
        // The scheduler arms at most 511 cycles ahead, so a longer wait
        // reaches its deadline through early wakes, each re-armed from the
        // core's state. A 100,000-cycle `Compute` between a store and an
        // RMW; futex resumes 511, 512 and 2,000 cycles after the wake, the
        // sleeper's `FutexWait` being the last op of its trace. Each run
        // equals lockstep's, and the event engine's ticks exceed its
        // acting ticks by at most one early wake per 511 cycles.
        let (flag, x) = (addr(0), addr(1));
        for a in Atomicity::ALL {
            let run = |futex_latency: Cycle, traces: Vec<Trace>| {
                let mut cfg = SimConfig::small(2);
                cfg.rmw_atomicity = a;
                cfg.futex_latency = futex_latency;
                cfg.deadlock_threshold = 200_000;
                let ev = Machine::new(cfg, traces.clone()).run();
                cfg.step_mode = StepMode::Lockstep;
                let ls = Machine::new(cfg, traces).run();
                assert_eq!(ev.first_difference(&ls), None, "{a} {futex_latency}");
                assert!(!ev.deadlocked && !ev.truncated, "{a} {futex_latency}");
                let idle = ev.engine.ticks - ev.engine.acting_ticks;
                assert!(
                    idle <= ev.stats.cycles / 511 + 2,
                    "{a} {futex_latency}: {idle} idle ticks in {} cycles",
                    ev.stats.cycles
                );
                ev
            };
            let long = Trace::new(vec![
                Op::write(x, 1),
                Op::Compute(100_000),
                Op::rmw(x),
                Op::read(x),
            ]);
            let r = run(30, vec![long]);
            assert_eq!(r.reads[0], vec![1, 2], "{a}");
            assert!(r.stats.cycles > 100_000, "{a}");
            for futex_latency in [511, 512, 2_000] {
                let sleeper = Trace::new(vec![Op::rmw(x), Op::FutexWait(flag, Src::Imm(0))]);
                let waker = Trace::new(vec![Op::Compute(1_000), Op::FutexWake(flag, 1)]);
                let r = run(futex_latency, vec![sleeper, waker]);
                assert_eq!(r.stats.futex_wakeups, 1, "{a} {futex_latency}");
                assert!(
                    r.stats.cycles > 1_000 + futex_latency,
                    "{a} {futex_latency}"
                );
            }
        }
    }

    #[test]
    fn futex_wrong_expected_returns_immediately() {
        let t = Trace::new(vec![Op::FutexWait(addr(0), Src::Imm(5)), Op::read(addr(0))]);
        let r = Machine::new(SimConfig::small(1), vec![t]).run();
        assert!(!r.deadlocked);
        assert_eq!(r.stats.futex_waits, 0);
        assert_eq!(r.stats.futex_immediate, 1);
        assert_eq!(r.stats.futex_wakeups, 0);
    }

    #[test]
    fn max_cycles_truncates_identically_in_both_engines() {
        // An infinite spin loop: taken branches are watchdog progress, so
        // only the hard ceiling stops the run.
        let mk = |mode: StepMode| {
            let mut cfg = SimConfig::small(1);
            cfg.step_mode = mode;
            cfg.max_cycles = 5_000;
            let t = Trace::new(vec![
                Op::ReadTo(0, addr(0)),
                Op::Branch {
                    cond: Cond::Eq,
                    lhs: 0,
                    rhs: Src::Imm(0),
                    target: 0,
                },
            ]);
            Machine::new(cfg, vec![t]).run()
        };
        let ev = mk(StepMode::EventDriven);
        let ls = mk(StepMode::Lockstep);
        assert!(ev.truncated && ls.truncated);
        assert!(!ev.deadlocked && !ls.deadlocked);
        assert_eq!(ev.stats.cycles, 5_000);
        assert_eq!(ev.first_difference(&ls), None);
        assert!(ev.stats.spin_retries > 0, "back-edges counted as retries");
    }

    #[test]
    fn register_ops_and_control_flow() {
        // r0 = 3; loop { r0 -= 1 } while r0 != 0; store r0+10 to memory.
        let t = Trace::new(vec![
            Op::MovImm(0, 3),
            Op::AddImm(0, u64::MAX), // wrapping -1
            Op::Branch {
                cond: Cond::Ne,
                lhs: 0,
                rhs: Src::Imm(0),
                target: 1,
            },
            Op::AddImm(0, 10),
            Op::WriteFrom(addr(2), 0),
        ]);
        for mode in [StepMode::EventDriven, StepMode::Lockstep] {
            let mut cfg = SimConfig::small(1);
            cfg.step_mode = mode;
            let r = Machine::new(cfg, vec![t.clone()]).run();
            assert!(!r.deadlocked && !r.truncated, "{mode:?}");
            assert_eq!(r.memory.get(&addr(2)), Some(&10), "{mode:?}");
            assert_eq!(r.stats.spin_retries, 2, "{mode:?}");
            assert!(r.reads[0].is_empty(), "register reads are not recorded");
        }
    }
}
