//! # fast-rmw-tso
//!
//! A full reproduction of *Fast RMWs for TSO: Semantics and Implementation*
//! (Rajaram, Nagarajan, Sarkar, Elver — PLDI 2013).
//!
//! The paper weakens the atomicity definition of TSO read-modify-write
//! instructions — from the strict **type-1** (no writes at all between the
//! RMW's read and write in the global memory order) to **type-2** (no
//! same-address accesses) and **type-3** (no same-address writes) — derives
//! the resulting ordering semantics, and builds microarchitecture that
//! exploits the weakening to keep the write-buffer drain off the RMW's
//! critical path.
//!
//! This facade crate re-exports the component crates:
//!
//! * [`rmw_types`] — shared vocabulary (addresses, atomicity types, RMW
//!   kinds);
//! * [`tso_model`] — the axiomatic TSO model with type-1/2/3 RMWs (§2),
//!   including executable Lemmas 1–3;
//! * [`litmus`] — the litmus corpus: classic TSO tests plus every Dekker
//!   figure of the paper, with Table 1 regeneration;
//! * [`cc11`] — the C/C++11 fragment, Table 4 mappings, and model-based
//!   Appendix A verification;
//! * [`bloom`] — the Bloom-filter addr-list substrate (§3.2);
//! * [`interconnect`] — the 2D-mesh geometry and latency (Table 2);
//! * [`coherence`] — MOESI distributed-directory coherence with line and
//!   directory locking (§3.1–3.3);
//! * [`tso_sim`] — the CMP timing simulator with all three RMW
//!   implementations and write-deadlock avoidance;
//! * [`workloads`] — benchmark substitutes matched to Table 3;
//! * [`harness`] — the parallel differential litmus harness behind the
//!   `litmus_run` binary.
//!
//! See `README.md` for a tour, `DESIGN.md` for the system inventory, and
//! `EXPERIMENTS.md` for paper-vs-measured results.
//!
//! ## Quickstart
//!
//! ```
//! use fast_rmw_tso::tso_model::{ProgramBuilder, outcome_allowed};
//! use fast_rmw_tso::rmw_types::{Addr, Atomicity, RmwKind};
//!
//! // Dekker's with writes replaced by RMWs (paper Fig. 3) under type-2:
//! // the mutual-exclusion failure is forbidden.
//! let (x, y) = (Addr(0), Addr(1));
//! let mut b = ProgramBuilder::new();
//! b.thread().rmw(x, RmwKind::TestAndSet, Atomicity::Type2).read(y);
//! b.thread().rmw(y, RmwKind::TestAndSet, Atomicity::Type2).read(x);
//! let program = b.build();
//! let failure = outcome_allowed(&program, |r| r[1] == 0 && r[3] == 0);
//! assert!(!failure);
//! ```

#![forbid(unsafe_code)]

pub use bloom;
pub use cc11;
pub use coherence;
pub use harness;
pub use interconnect;
pub use litmus;
pub use rmw_types;
pub use tso_model;
pub use tso_sim;
pub use workloads;
