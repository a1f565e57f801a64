//! Host-speed normalization.
//!
//! The benchmark runs on shared hosts whose speed moves by up to 1.8× for
//! tens of seconds at a time: the process keeps its CPU, but other
//! tenants' load slows its cache- and allocation-heavy code. A fixed
//! reference kernel, timed right before and after every unit of work,
//! measures the host's speed at that moment; a unit's time is then also
//! reported at the kernel's nominal speed, `raw × NOMINAL_S ÷ kernel`.
//!
//! The kernel is the benchmark's own code and no workspace crate's, so a
//! change to the crates moves the raw times and leaves the kernel alone.
//! It builds a `BTreeMap` of small heap values and fills and probes a
//! `HashMap`: of the kernels tried (integer arithmetic, random reads in
//! an L2-sized and in a 64 MB table, a bytecode interpreter, sorting, a
//! set-associative tag walk), this pair slowed most like the simulator
//! and the model search: on a 2-vCPU Xeon VM, dividing by it cut the
//! spread of 30 s windows of Fig. 11 machine runs from 6.6 % to 1.1 %.

use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::time::Instant;

/// The reference kernel's time on an unloaded host, in s: the scale of
/// normalized times.
pub const NOMINAL_S: f64 = 0.007;

fn lcg(x: &mut u64) -> u64 {
    *x = x
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *x >> 11
}

/// Runs the reference kernel once; returns its time in s.
pub fn reference() -> f64 {
    let started = Instant::now();
    let mut x = 7;
    let mut tree = BTreeMap::new();
    for i in 0..20_000u64 {
        tree.insert(lcg(&mut x) >> 16, vec![i; 3]);
    }
    black_box(tree.range(1000..).filter(|(k, _)| *k & 1 == 0).count());
    drop(tree);
    const N: u64 = 50_000;
    let mut map = HashMap::new();
    for i in 0..N {
        map.insert(lcg(&mut x) % (2 * N), i);
    }
    let hits = (0..N)
        .filter_map(|_| map.get(&(lcg(&mut x) % (2 * N))))
        .fold(0u64, |s, v| s.wrapping_add(*v));
    black_box(hits);
    started.elapsed().as_secs_f64()
}

/// The time of one unit of work.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Times {
    /// Host time, in s.
    pub raw_s: f64,
    /// The same at the reference kernel's nominal speed, in s.
    pub norm_s: f64,
}

impl Times {
    /// A host time taken as it is, with no reference kernel.
    pub fn host(raw_s: f64) -> Times {
        Times {
            raw_s,
            norm_s: raw_s,
        }
    }

    /// The sum of two times.
    pub fn add(self, o: Times) -> Times {
        Times {
            raw_s: self.raw_s + o.raw_s,
            norm_s: self.norm_s + o.norm_s,
        }
    }
}

/// Times units of work between runs of the reference kernel.
#[derive(Debug, Clone)]
pub struct Meter {
    on: bool,
    last: Option<f64>,
    /// Every reference kernel time the meter took, in s.
    pub kernel_s: Vec<f64>,
}

impl Meter {
    /// A meter that runs the reference kernel around every unit.
    pub fn new() -> Meter {
        Meter {
            on: true,
            last: None,
            kernel_s: Vec::new(),
        }
    }

    /// A meter that runs no kernel and reports host time as it is, for
    /// traced runs (whose spans must not include the kernel).
    pub fn off() -> Meter {
        Meter {
            on: false,
            last: None,
            kernel_s: Vec::new(),
        }
    }

    /// Runs `unit`, which returns its result and its own time in s, with
    /// the reference kernel before and after it. The unit's host speed is
    /// the kernel's mean speed over those two runs.
    pub fn unit<R>(&mut self, unit: impl FnOnce() -> (R, f64)) -> (R, Times) {
        if !self.on {
            let (r, raw_s) = unit();
            return (r, Times::host(raw_s));
        }
        let before = match self.last {
            Some(t) => t,
            None => self.reference(),
        };
        let (r, raw_s) = unit();
        let after = self.reference();
        self.last = Some(after);
        let norm_s = raw_s * NOMINAL_S / (0.5 * (before + after));
        (r, Times { raw_s, norm_s })
    }

    fn reference(&mut self) -> f64 {
        let t = reference();
        self.kernel_s.push(t);
        t
    }

    /// Times `f` as one unit.
    pub fn time<R>(&mut self, f: impl FnOnce() -> R) -> (R, Times) {
        self.unit(|| {
            let t0 = Instant::now();
            let r = f();
            (r, t0.elapsed().as_secs_f64())
        })
    }
}

impl Default for Meter {
    fn default() -> Meter {
        Meter::new()
    }
}
