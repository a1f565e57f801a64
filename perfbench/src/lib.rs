//! The repository's end-to-end benchmark.
//!
//! Three workloads drive the public entry points of the workspace crates:
//! the paper's Fig. 11(a) sweep (`fig11_paper`) and a litmus campaign from
//! empty caches (`campaign_cold`) and from a populated verdict store
//! (`campaign_warm`). An untraced run reports the end-to-end metrics; a
//! traced run (`--trace 1`) records spans around the calls into each crate
//! and reports per-layer self times and counts. See `perfbench/README.md`.

pub mod campaign;
pub mod fig11;
pub mod host;
pub mod report;
pub mod spans;
pub mod workload;
