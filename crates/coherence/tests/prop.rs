//! Property tests: the MOESI invariants hold under arbitrary access
//! sequences, including lock/unlock interleavings.

use coherence::{CoherenceConfig, CoherenceSystem, Denied, LockKind};
use proptest::prelude::*;
use rmw_types::CacheLine;

#[derive(Debug, Clone)]
enum Op {
    Read(usize, u64),
    Write(usize, u64),
    /// An RMW acquisition with write permission.
    AcquireWrite(usize, u64),
    /// An RMW acquisition with read permission (type-3 directory locking).
    AcquireRead(usize, u64),
    Unlock(usize, u64),
}

fn arb_op(cores: usize, lines: u64) -> impl Strategy<Value = Op> {
    let c = 0..cores;
    let l = 0..lines;
    prop_oneof![
        (c.clone(), l.clone()).prop_map(|(c, l)| Op::Read(c, l)),
        (c.clone(), l.clone()).prop_map(|(c, l)| Op::Write(c, l)),
        (c.clone(), l.clone()).prop_map(|(c, l)| Op::AcquireWrite(c, l)),
        (c.clone(), l.clone()).prop_map(|(c, l)| Op::AcquireRead(c, l)),
        (c, l).prop_map(|(c, l)| Op::Unlock(c, l)),
    ]
}

fn line(i: u64) -> CacheLine {
    CacheLine(i * 64)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Single-writer / single-owner invariants survive arbitrary op mixes,
    /// and every access either succeeds or is denied by a lock — never
    /// corrupts state. A local lock's holder keeps the line writable and
    /// a directory lock's holder keeps a valid copy (§3.3).
    #[test]
    fn invariants_hold_under_random_traffic(
        ops in proptest::collection::vec(arb_op(4, 3), 1..200),
    ) {
        let mut sys = CoherenceSystem::new(CoherenceConfig::small(4));
        let mut now = 0u64;
        for op in ops {
            now += 1;
            match op {
                Op::Read(c, l) => { let _ = sys.read(c, line(l), now); }
                Op::Write(c, l) => { let _ = sys.write(c, line(l), now); }
                Op::AcquireWrite(c, l) => { let _ = sys.acquire(c, line(l), now, false); }
                Op::AcquireRead(c, l) => { let _ = sys.acquire(c, line(l), now, true); }
                Op::Unlock(c, l) => {
                    if sys.lock_of(line(l)).map(|k| k.holder) == Some(c) {
                        sys.unlock(c, line(l));
                    }
                }
            }
            prop_assert!(sys.check_invariants().is_ok(), "{:?}", sys.check_invariants());
            for l in 0..3 {
                if let Some(lock) = sys.lock_of(line(l)) {
                    let state = sys.state_of(lock.holder, line(l));
                    match lock.kind {
                        LockKind::Local => prop_assert!(state.is_writable(), "{:?}: {:?}", lock, state),
                        LockKind::Directory => prop_assert!(state.is_valid(), "{:?}: {:?}", lock, state),
                    }
                }
            }
        }
    }

    /// Latency is monotone in time: an access issued later never completes
    /// earlier (the model is memoryless in `now`).
    #[test]
    fn completion_monotone_in_issue_time(
        core in 0usize..4,
        l in 0u64..3,
        t1 in 0u64..1000,
        dt in 1u64..1000,
    ) {
        let base = {
            let mut s = CoherenceSystem::new(CoherenceConfig::small(4));
            s.read(core, line(l), t1).unwrap() - t1
        };
        let later = {
            let mut s = CoherenceSystem::new(CoherenceConfig::small(4));
            s.read(core, line(l), t1 + dt).unwrap() - (t1 + dt)
        };
        prop_assert_eq!(base, later);
    }

    /// A denied read, write or acquisition changes nothing: every core's
    /// state and the line's lock are as before, under either lock kind.
    /// Only a sharer's read under a directory lock gets through.
    #[test]
    fn denial_is_side_effect_free(
        holder in 0usize..4,
        intruder in 0usize..4,
        sharer in 0usize..4,
        l in 0u64..2,
        case in (any::<bool>(), 0usize..4),
    ) {
        let (directory, request) = case;
        prop_assume!(holder != intruder && holder != sharer);
        let ln = line(l);
        let mut s = CoherenceSystem::new(CoherenceConfig::small(4));
        if directory {
            // A second valid copy makes the holder's read leave it S, so
            // its read-permission acquisition locks at the directory.
            s.read(sharer, ln, 0).unwrap();
        }
        s.acquire(holder, ln, 5, directory).unwrap();
        let kind = if directory { LockKind::Directory } else { LockKind::Local };
        prop_assert_eq!(s.lock_of(ln).map(|k| (k.holder, k.kind)), Some((holder, kind)));
        let states = |s: &CoherenceSystem| (0..4).map(|c| s.state_of(c, ln)).collect::<Vec<_>>();
        let before = (states(&s), s.lock_of(ln));
        let r = match request {
            0 => s.read(intruder, ln, 10),
            1 => s.write(intruder, ln, 10),
            2 => s.acquire(intruder, ln, 10, true),
            _ => s.acquire(intruder, ln, 10, false),
        };
        if request == 0 && directory && before.0[intruder].is_valid() {
            prop_assert!(r.is_ok());
        } else {
            prop_assert_eq!(r, Err(Denied::LockedBy(holder)));
            prop_assert_eq!((states(&s), s.lock_of(ln)), before);
        }
    }
}
