//! The lifecycle event: what happened to which request, where, and when.

use crate::completion::ShedReason;

/// Sentinel for events not tied to a completion ticket (trainer events,
/// and ticketless `Request`s pushed into a bare `ShardQueue`).
pub const NO_TICKET: u64 = u64::MAX;
/// Sentinel for events emitted before (or without) a shard placement.
pub const NO_SHARD: u32 = u32::MAX;

/// Number of [`EventKind`] variants (array-indexed counters).
pub const KIND_COUNT: usize = 16;

/// A lifecycle event type. The nine *terminal* kinds map one-to-one onto
/// the `ServeReport` conservation buckets; the rest are causal markers
/// for traces and rate metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum EventKind {
    /// Request entered the submission path (counts against `offered`).
    Admitted = 0,
    /// Answered from the label cache before admission (terminal).
    CacheHit = 1,
    /// Follower delivered from a leader's in-flight execution (terminal;
    /// emitted at fan-out, not at submit, so it lands in the same bucket
    /// the ledger settles on).
    Coalesced = 2,
    /// Placed on a shard queue.
    Enqueued = 3,
    /// Affinity routing diverted the request off its home shard.
    Spilled = 4,
    /// Entered an execution batch (`detail` = batch size).
    Batched = 5,
    /// Batch execution finished for this request (`detail` = exec µs).
    Executed = 6,
    /// Labels delivered (terminal; `detail` = total latency µs, `flag` =
    /// deadline missed).
    Labeled = 7,
    /// Shed by SLO admission control (terminal).
    ShedAdmission = 8,
    /// Shed by queue overflow / value-weighted eviction (terminal).
    ShedOverflow = 9,
    /// Shed at dequeue because the deadline had already passed (terminal).
    ShedDeadline = 10,
    /// Shed by abort-path drain (terminal; never appears in a graceful
    /// drain report).
    ShedDrain = 11,
    /// Refused at admission by the reject backpressure policy (terminal).
    Rejected = 12,
    /// Client cancelled the ticket first (terminal).
    Cancelled = 13,
    /// A cancelled leader was executed anyway for its cache followers.
    GhostExecuted = 14,
    /// The online adaptation trainer published a new weight generation
    /// into the predict path (`detail` = generation). Not tied to any
    /// request (`req` is a sentinel) and never terminal.
    WeightsSwapped = 15,
}

impl EventKind {
    /// All kinds, in counter-index order.
    pub const ALL: [EventKind; KIND_COUNT] = [
        EventKind::Admitted,
        EventKind::CacheHit,
        EventKind::Coalesced,
        EventKind::Enqueued,
        EventKind::Spilled,
        EventKind::Batched,
        EventKind::Executed,
        EventKind::Labeled,
        EventKind::ShedAdmission,
        EventKind::ShedOverflow,
        EventKind::ShedDeadline,
        EventKind::ShedDrain,
        EventKind::Rejected,
        EventKind::Cancelled,
        EventKind::GhostExecuted,
        EventKind::WeightsSwapped,
    ];

    /// Stable snake_case name (metric label / JSON value).
    pub fn name(self) -> &'static str {
        match self {
            EventKind::Admitted => "admitted",
            EventKind::CacheHit => "cache_hit",
            EventKind::Coalesced => "coalesced",
            EventKind::Enqueued => "enqueued",
            EventKind::Spilled => "spilled",
            EventKind::Batched => "batched",
            EventKind::Executed => "executed",
            EventKind::Labeled => "labeled",
            EventKind::ShedAdmission => "shed_admission",
            EventKind::ShedOverflow => "shed_overflow",
            EventKind::ShedDeadline => "shed_deadline",
            EventKind::ShedDrain => "shed_drain",
            EventKind::Rejected => "rejected",
            EventKind::Cancelled => "cancelled",
            EventKind::GhostExecuted => "ghost_executed",
            EventKind::WeightsSwapped => "weights_swapped",
        }
    }

    /// The terminal kind a [`ShedReason`] maps to.
    pub fn of_shed(reason: ShedReason) -> EventKind {
        match reason {
            ShedReason::Admission => EventKind::ShedAdmission,
            ShedReason::Overflow => EventKind::ShedOverflow,
            ShedReason::Deadline => EventKind::ShedDeadline,
            ShedReason::Drain => EventKind::ShedDrain,
        }
    }

    /// Whether this kind settles a request (exactly one per request).
    pub fn is_terminal(self) -> bool {
        matches!(
            self,
            EventKind::CacheHit
                | EventKind::Coalesced
                | EventKind::Labeled
                | EventKind::ShedAdmission
                | EventKind::ShedOverflow
                | EventKind::ShedDeadline
                | EventKind::ShedDrain
                | EventKind::Rejected
                | EventKind::Cancelled
        )
    }

    /// Whether this kind is one of the four shed paths.
    pub(crate) fn is_shed(self) -> bool {
        matches!(
            self,
            EventKind::ShedAdmission
                | EventKind::ShedOverflow
                | EventKind::ShedDeadline
                | EventKind::ShedDrain
        )
    }

    /// Position in [`EventKind::ALL`] (array-indexed counters).
    pub(crate) fn index(self) -> usize {
        self as usize
    }
}

/// One lifecycle event. `Copy` so a channel slot holds it inline.
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// Microseconds since server start.
    pub at_us: u64,
    /// Request correlation id (the server's `offered` sequence number;
    /// unique per submission).
    pub req: u64,
    /// Completion-slot (ticket) id, or [`NO_TICKET`].
    pub ticket: u64,
    /// Shard the event happened on, or [`NO_SHARD`].
    pub shard: u32,
    /// SLO class index (0 when classless).
    pub class: u32,
    /// What happened.
    pub kind: EventKind,
    /// Kind-specific payload (`Batched`: batch size, `Executed`: exec µs,
    /// `Labeled`: total latency µs).
    pub detail: u64,
    /// Kind-specific flag (`Labeled`: deadline missed).
    pub flag: bool,
}

impl Event {
    /// An event with no payload, its clock still unset: `ServerObs::emit`
    /// and `emit_worker` stamp `at_us` as they record it.
    pub(crate) fn new(kind: EventKind, req: u64, ticket: u64, shard: u32, class: usize) -> Self {
        Self {
            at_us: 0,
            req,
            ticket,
            shard,
            class: class as u32,
            kind,
            detail: 0,
            flag: false,
        }
    }

    /// Set the kind-specific payload.
    pub(crate) fn detail(mut self, detail: u64) -> Self {
        self.detail = detail;
        self
    }

    /// Set the kind-specific flag.
    pub(crate) fn flag(mut self, flag: bool) -> Self {
        self.flag = flag;
        self
    }
}
