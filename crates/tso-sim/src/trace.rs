//! Per-core instruction traces consumed by the simulator.
//!
//! A [`Trace`] is a sequence of [`Op`]s. The statistical generators in the
//! `workloads` crate emit straight-line traces; the synchronization-kernel
//! zoo additionally uses the small control-flow subset — a per-core
//! register file ([`NUM_REGS`] registers), conditional [`Op::Branch`] /
//! [`Op::Jump`], and the futex-style [`Op::FutexWait`] / [`Op::FutexWake`]
//! blocking primitives — so real lock/channel algorithms can be expressed
//! directly. Tests construct traces by hand.
//!
//! Register-targeted accesses (`ReadTo`/`RmwTo`) deliberately do **not**
//! append to the recorded read stream: spin-loop probes would otherwise
//! drown the payload reads that invariant checkers and the axiomatic
//! cross-validation identify positionally.

use rmw_types::{Addr, RmwKind, Value};
use std::sync::Arc;

/// Number of architectural registers per core (zero-initialized).
pub const NUM_REGS: usize = 4;

/// A register index (`0..NUM_REGS`).
pub type Reg = u8;

/// A branch/futex operand: immediate or register.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Src {
    /// A constant.
    Imm(Value),
    /// A register's current value.
    Reg(Reg),
}

/// Branch condition (unsigned comparisons).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cond {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Unsigned less-than.
    Lt,
    /// Unsigned greater-or-equal.
    Ge,
}

impl Cond {
    /// Evaluates the condition on two values.
    pub fn eval(self, lhs: Value, rhs: Value) -> bool {
        match self {
            Cond::Eq => lhs == rhs,
            Cond::Ne => lhs != rhs,
            Cond::Lt => lhs < rhs,
            Cond::Ge => lhs >= rhs,
        }
    }
}

/// One dynamic operation of a core's trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// A load whose value is appended to the recorded read stream.
    Read(Addr),
    /// A store of a constant.
    Write(Addr, Value),
    /// A read-modify-write (atomicity comes from the machine config); the
    /// observed old value is appended to the recorded read stream.
    Rmw(Addr, RmwKind),
    /// A full memory fence (`mfence`): stalls until the write buffer is
    /// empty.
    Fence,
    /// `n` cycles of non-memory work.
    Compute(u32),
    /// A load into a register (not recorded — spin-loop probes).
    ReadTo(Reg, Addr),
    /// A store of a register's value (resolved at issue).
    WriteFrom(Addr, Reg),
    /// An RMW whose observed old value lands in a register instead of the
    /// recorded read stream — the acquire/release probes of the zoo
    /// kernels.
    RmwTo(Reg, Addr, RmwKind),
    /// Load an immediate into a register (1 cycle).
    MovImm(Reg, Value),
    /// Wrapping add of an immediate to a register (1 cycle).
    AddImm(Reg, Value),
    /// Conditional branch: if `cond(regs[lhs], rhs)` the next op is
    /// `ops[target]`, else fall through (1 cycle either way).
    Branch {
        /// The comparison.
        cond: Cond,
        /// Left operand register.
        lhs: Reg,
        /// Right operand.
        rhs: Src,
        /// Branch-taken destination (op index).
        target: u32,
    },
    /// Unconditional branch to `ops[target]` (1 cycle).
    Jump(u32),
    /// Futex wait: drain the write buffer (kernel-entry serialization),
    /// then atomically check `memory[addr] == expected` — sleep on the
    /// per-address FIFO queue if equal, otherwise return immediately
    /// (EAGAIN). A sleeping core resumes `futex_latency` cycles after a
    /// matching [`Op::FutexWake`] dequeues it.
    FutexWait(Addr, Src),
    /// Futex wake: drain the write buffer, then dequeue and wake up to `n`
    /// waiters sleeping on `addr` (`u32::MAX` = all).
    FutexWake(Addr, u32),
}

impl Op {
    /// Convenience constructor for a load.
    pub fn read(addr: Addr) -> Self {
        Op::Read(addr)
    }

    /// Convenience constructor for a store.
    pub fn write(addr: Addr, value: Value) -> Self {
        Op::Write(addr, value)
    }

    /// Convenience constructor for a fetch-and-add(1) RMW.
    pub fn rmw(addr: Addr) -> Self {
        Op::Rmw(addr, RmwKind::FetchAndAdd(1))
    }

    /// The address accessed, if this op names one (memory operations and
    /// the futex primitives).
    pub fn addr(&self) -> Option<Addr> {
        match *self {
            Op::Read(a)
            | Op::Write(a, _)
            | Op::Rmw(a, _)
            | Op::ReadTo(_, a)
            | Op::WriteFrom(a, _)
            | Op::RmwTo(_, a, _)
            | Op::FutexWait(a, _)
            | Op::FutexWake(a, _) => Some(a),
            Op::Fence
            | Op::Compute(_)
            | Op::MovImm(..)
            | Op::AddImm(..)
            | Op::Branch { .. }
            | Op::Jump(_) => None,
        }
    }

    /// True for reads, writes and RMWs (recorded or register-targeted).
    /// Futex calls are kernel traps, not memory operations.
    pub fn is_mem(&self) -> bool {
        matches!(
            self,
            Op::Read(_)
                | Op::Write(..)
                | Op::Rmw(..)
                | Op::ReadTo(..)
                | Op::WriteFrom(..)
                | Op::RmwTo(..)
        )
    }
}

/// A core's instruction sequence: an immutable value that machines
/// share. Cloning a trace copies no ops, so every machine run on one
/// trace set reads the same buffer.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Trace {
    // Not `Arc<[Op]>`: building one from a `Vec` copies every op.
    ops: Arc<Vec<Op>>,
}

impl Trace {
    /// Wraps an op sequence, moving it in without a copy.
    pub fn new(ops: Vec<Op>) -> Self {
        Trace { ops: Arc::new(ops) }
    }

    /// The operations.
    pub fn ops(&self) -> &[Op] {
        &self.ops
    }

    /// Number of operations.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True if the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Number of memory operations (reads + writes + RMWs).
    pub fn mem_ops(&self) -> usize {
        self.ops.iter().filter(|o| o.is_mem()).count()
    }

    /// Number of RMWs (recorded or register-targeted).
    pub fn rmws(&self) -> usize {
        self.ops
            .iter()
            .filter(|o| matches!(o, Op::Rmw(..) | Op::RmwTo(..)))
            .count()
    }
}

impl FromIterator<Op> for Trace {
    fn from_iter<I: IntoIterator<Item = Op>>(iter: I) -> Self {
        Trace::new(iter.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_accessors() {
        assert_eq!(Op::read(Addr(1)).addr(), Some(Addr(1)));
        assert_eq!(Op::write(Addr(2), 9).addr(), Some(Addr(2)));
        assert_eq!(Op::rmw(Addr(3)).addr(), Some(Addr(3)));
        assert_eq!(Op::Fence.addr(), None);
        assert_eq!(Op::Compute(5).addr(), None);
        assert!(Op::read(Addr(0)).is_mem());
        assert!(!Op::Fence.is_mem());
    }

    #[test]
    fn trace_counters() {
        let t: Trace = vec![
            Op::read(Addr(0)),
            Op::write(Addr(1), 1),
            Op::rmw(Addr(2)),
            Op::Fence,
            Op::Compute(10),
        ]
        .into_iter()
        .collect();
        assert_eq!(t.len(), 5);
        assert_eq!(t.mem_ops(), 3);
        assert_eq!(t.rmws(), 1);
        assert!(!t.is_empty());
        assert!(Trace::default().is_empty());
    }

    #[test]
    fn zoo_op_accessors() {
        assert_eq!(Op::ReadTo(0, Addr(8)).addr(), Some(Addr(8)));
        assert_eq!(Op::WriteFrom(Addr(8), 1).addr(), Some(Addr(8)));
        assert_eq!(Op::FutexWait(Addr(64), Src::Imm(0)).addr(), Some(Addr(64)));
        assert_eq!(Op::FutexWake(Addr(64), 1).addr(), Some(Addr(64)));
        assert_eq!(Op::MovImm(0, 3).addr(), None);
        assert_eq!(Op::Jump(2).addr(), None);
        assert!(Op::RmwTo(0, Addr(0), RmwKind::TestAndSet).is_mem());
        assert!(!Op::FutexWait(Addr(0), Src::Imm(0)).is_mem());
        assert!(!Op::Branch {
            cond: Cond::Eq,
            lhs: 0,
            rhs: Src::Imm(0),
            target: 0
        }
        .is_mem());
        let t = Trace::new(vec![
            Op::rmw(Addr(0)),
            Op::RmwTo(0, Addr(0), RmwKind::TestAndSet),
        ]);
        assert_eq!(t.rmws(), 2);
        assert_eq!(t.mem_ops(), 2);
    }

    #[test]
    fn cond_eval_is_unsigned() {
        assert!(Cond::Eq.eval(3, 3));
        assert!(Cond::Ne.eval(3, 4));
        assert!(Cond::Lt.eval(3, 4));
        assert!(!Cond::Lt.eval(u64::MAX, 0), "comparison is unsigned");
        assert!(Cond::Ge.eval(u64::MAX, 0));
        assert!(Cond::Ge.eval(4, 4));
    }

    #[test]
    fn a_trace_shares_its_ops() {
        let ops = vec![Op::Fence, Op::read(Addr(0))];
        let buffer = ops.as_ptr();
        let t = Trace::new(ops);
        assert_eq!(t.ops().as_ptr(), buffer, "new moves the ops in");
        assert_eq!(t.clone().ops().as_ptr(), buffer, "a clone copies no op");
    }
}
