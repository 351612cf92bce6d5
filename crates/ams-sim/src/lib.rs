//! # ams-sim — virtual-time execution substrate
//!
//! The paper's schedulers reason about two resources: wall-clock time
//! (deadline per item) and GPU memory (shared pool under multi-processor
//! parallel execution). In the paper these are properties of a real Tesla
//! P100; here they are simulated so that experiments are deterministic and
//! run in milliseconds.
//!
//! * [`serial`] — single-processor executor: jobs run one after another
//!   against a deadline (the setting of Algorithm 1).
//! * [`parallel`] — the shared memory pool on a virtual clock ([`Pool`]):
//!   jobs run concurrently while they fit in memory, and each completion
//!   releases memory (the setting of Algorithm 2). Algorithm 2, the
//!   packer below and the random-packing baseline all run on it.
//! * [`batch`] — batched admission: coalesce same-model items into one
//!   invocation under a calibrated setup + marginal-per-item latency split,
//!   pack a batch's invocations into the pool in the best of a few
//!   list-scheduling orders, and stream successive batches through one
//!   pool ([`PoolTimeline`]), where a later batch joins a model's
//!   invocation that has not started yet.
//! * [`trace`] — execution traces and their invariants.
//! * [`shard`] — a serving shard's time rules: its queue's admission,
//!   eviction and dequeue decisions and its worker's pool pacing, in µs
//!   after the shard queue's epoch.
//!
//! The crate is deliberately generic: a job is just `(id, time, memory)`.
//! `ams-core` maps models onto jobs. It is pure: time is always an
//! argument, and `clippy.toml` bans every clock, lock, condvar, atomic,
//! channel, spawn and sleep, so `clippy -D warnings` enforces it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod batch;
pub mod parallel;
pub mod serial;
pub mod shard;
pub mod trace;

pub use batch::{
    batched_makespan, list_makespan, Admitted, BatchLatencyModel, Group, PoolTimeline,
};
pub use parallel::Pool;
pub use serial::SerialExecutor;
pub use trace::{ExecTrace, Span};

/// A schedulable unit of work: opaque id plus resource demands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Job {
    /// Caller-assigned identifier (model index in `ams-core`).
    pub id: usize,
    /// Execution time in milliseconds.
    pub time_ms: u32,
    /// Peak memory demand in megabytes.
    pub mem_mb: u32,
}
