//! A serving shard's rules over time, as plain values: what its queue
//! admits, evicts and hands out ([`QueueCore`]) and when its worker pops,
//! holds and delivers ([`WorkerCore`]). Every instant is µs after the
//! shard queue's epoch and arrives as an argument. Nothing here reads a
//! clock, locks, waits or spawns: the crate's `clippy.toml` bans those
//! items, so `clippy -D warnings` is the purity check. The serving layer
//! owns the clock, the lock, the condvars and the side effects
//! (completion slots, cache entries, ledgers, events), and its queue and
//! worker tests drive every rule here with literal microseconds.

mod queue;
mod worker;

pub use queue::{Header, Load, Offer, QueueCore, Queued};
pub use worker::{join_room, Step, WorkerCore, LOOK_AHEAD_BATCHES};

/// What a full queue does to the *next* submission.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BackpressurePolicy {
    /// Block the producer until a worker frees a slot (lossless; pushes
    /// the queueing upstream — the paper's batch-ingestion shape).
    #[default]
    Block,
    /// Refuse the new request immediately (lossy at the edge; the caller
    /// sees the rejection and can retry elsewhere).
    Reject,
    /// Admit the new request and shed the *oldest* queued one (lossy in
    /// the queue; freshest-first, the surveillance-feed shape where a
    /// stale frame is worth less than a current one).
    ShedOldest,
}

impl BackpressurePolicy {
    /// Stable lowercase name for reports and JSON records.
    pub fn name(&self) -> &'static str {
        match self {
            BackpressurePolicy::Block => "block",
            BackpressurePolicy::Reject => "reject",
            BackpressurePolicy::ShedOldest => "shed-oldest",
        }
    }
}
