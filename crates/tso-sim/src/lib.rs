//! Cycle-approximate CMP timing simulator implementing the paper's three
//! RMW microarchitectures (§3.1–3.3).
//!
//! The machine models the paper's Table 2 system: in-order cores with
//! 32-entry write buffers, private L1s, a shared distributed L2 with MOESI
//! directory coherence (crate `coherence`), and a 2D mesh (crate
//! `interconnect`, geometry and latency). Cores execute [`Op`] traces
//! produced by the `workloads` crate.
//!
//! The RMW implementations:
//!
//! * **type-1** (§3.1, today's hardware): drain the write buffer (parallel
//!   read-exclusive issue à la Gharachorloo), acquire exclusive ownership,
//!   lock the line locally, perform read+write, unlock. Instructions after
//!   the RMW wait for all of it.
//! * **type-2** (§3.2): consult the per-core **Bloom filter** of RMW
//!   addresses (broadcasting the address first if new and waiting for
//!   the acks); if any pending write conflicts, *revert to a type-1
//!   drain*; otherwise acquire ownership, lock, retire the read, and drop
//!   the write into the write buffer — the drain leaves the critical
//!   path. A broadcast copy waits on its receiver's arrival list and
//!   lands in the receiver's filter at its mesh arrival cycle, which is
//!   when the receiver next reads the filter at the earliest.
//! * **type-3** (§3.3): like type-2, but the read needs only *read*
//!   permission; a line held in shared state is locked **at the directory**
//!   so other cores may keep reading (type-3 atomicity permits reads
//!   between `Ra` and `Wa`), and the invalidation delay moves off the
//!   critical path to the write's retirement from the buffer.
//!
//! Timing fidelity is *transaction-level*: coherence transactions resolve
//! to latencies at issue (see `coherence` crate docs); global visibility of
//! a write coincides with its successful coherence transition, while its
//! write-buffer slot frees only when the transaction's latency elapses.
//! This keeps the simulator a valid TSO machine (reads forward from the
//! local buffer; buffered writes commit in order) — the integration tests
//! cross-validate simulator outcomes against the axiomatic model.
//!
//! Time advances via one of two engines ([`StepMode`]): the lockstep
//! reference (tick every core every cycle) or the default **event-driven,
//! cycle-skipping scheduler** ([`sched`]), which jumps straight to the
//! next armed wake event. The two are cycle-identical by construction
//! (enforced by `tests/engine_equiv.rs`).
//!
//! # Example
//!
//! ```
//! use tso_sim::{Machine, SimConfig, Op, Trace};
//! use rmw_types::{Addr, Atomicity};
//!
//! let mut cfg = SimConfig::small(2);
//! cfg.rmw_atomicity = Atomicity::Type2;
//! let traces = vec![
//!     Trace::new(vec![Op::write(Addr(0), 1), Op::rmw(Addr(64)), Op::read(Addr(128))]),
//!     Trace::new(vec![Op::rmw(Addr(64))]),
//! ];
//! let result = Machine::new(cfg, traces).run();
//! assert!(!result.deadlocked);
//! assert_eq!(result.stats.rmw_count, 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod core;
pub mod lower;
pub mod machine;
pub mod sched;
pub mod stats;
pub mod trace;

pub use config::{SimConfig, StepMode};
pub use lower::{lower, lower_with_line_size, sim_addr};
pub use machine::{Machine, SimResult};
pub use sched::Scheduler;
pub use stats::{NetTraffic, RmwCostBreakdown, SimStats};
pub use trace::{Cond, Op, Reg, Src, Trace, NUM_REGS};
