//! End-to-end and per-layer benchmark of the sample loader.
//!
//! Each workload generates a seeded dataset, packs it into a shard
//! store, optionally serves it over loopback or stages it while
//! training, and drains `Pipeline::launch` with one closed-loop
//! consumer that verifies every delivered sample. See `README.md` for
//! the workloads, the metrics and what each metric is predicted to
//! move.

pub mod check;
pub mod layers;
pub mod measure;
pub mod procfs;
pub mod report;
pub mod workload;

pub use measure::{run, Options, Outcome};
pub use workload::{Spec, WORKLOADS};
