//! Live observability: lifecycle event stream, time-sliced metrics
//! registry, and a shed/deadline-miss flight recorder.
//!
//! Everything the server publishes elsewhere is an end-of-run aggregate —
//! [`ServeReport`](crate::server::ServeReport) only exists at drain. This
//! module makes the same accounting observable *while serving*:
//!
//! * **Lifecycle event stream** — every request emits typed [`Event`]s
//!   (admitted, cache-hit, coalesced, enqueued, spilled, batched,
//!   executed, labeled, shed-with-reason, cancelled, ghost-executed)
//!   stamped with a microsecond clock and correlation ids. Events are
//!   recorded through bounded lock-free MPMC rings — one per worker plus
//!   one per shard for the submit side — so the hot path never takes a
//!   lock and never blocks: when a ring is full the event is *dropped and
//!   counted* per kind, keeping totals honest.
//! * **Time-sliced metrics registry** — a background aggregator thread
//!   drains the rings into rolling time slices plus cumulative per-kind
//!   and per-class totals and a live total-latency histogram. Snapshots
//!   are served live via [`MetricsSnapshot`] (serde) and a
//!   Prometheus-style text exposition, and the final snapshot is folded
//!   into the drain report as [`ObsReport`].
//! * **Flight recorder** — the complete causal event trace of the last N
//!   "interesting" requests (every shed path, deadline-missed labels,
//!   cancellations and their ghost executions) retained in a bounded
//!   ring, with a [`why`](ObsReport::why)-style dump for post-mortems.
//!
//! The stream is gated like everything else in this repo: per-kind event
//! totals (drained + dropped) must reconcile bucket-for-bucket with the
//! `ServeReport` conservation ledger
//! (`ServeReport::events_reconcile`), and the measured obs-on vs obs-off
//! capacity cost is bounded at ≤2% in `bench_serve`.

use crate::completion::ShedReason;
use crate::ledger::Ledger;
use crate::telemetry::{ratio, LatencyHistogram};
use serde::{Deserialize, Serialize};
use std::cell::UnsafeCell;
use std::collections::{HashMap, VecDeque};
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Sentinel for events not tied to a completion ticket (trainer events,
/// and ticketless `Request`s pushed into a bare `ShardQueue`).
pub const NO_TICKET: u64 = u64::MAX;
/// Sentinel for events emitted before (or without) a shard placement.
pub const NO_SHARD: u32 = u32::MAX;

// ---------------------------------------------------------------------------
// Configuration
// ---------------------------------------------------------------------------

/// Tuning for the observability pipeline. `ServeConfig::obs: None` (the
/// default) disables the whole layer — no rings, no aggregator thread,
/// and a branch-on-`None` as the only hot-path residue.
#[derive(Debug, Clone, PartialEq)]
pub struct ObsConfig {
    /// Slots per event ring (rounded up to a power of two, min 8). One
    /// ring per worker plus one per shard for the submit side.
    pub ring_capacity: usize,
    /// Aggregator wake period. Rings are also drained opportunistically
    /// whenever a snapshot is taken.
    pub drain_interval_ms: u64,
}

impl Default for ObsConfig {
    fn default() -> Self {
        Self {
            ring_capacity: 8192,
            drain_interval_ms: 5,
        }
    }
}

/// Width of one rolling metrics time slice, µs.
const SLICE_US: u64 = 250_000;
/// Retained rolling slices (older slices fall off the window).
const SLICES: usize = 16;
/// Retained "interesting" flight-recorder traces (sheds, deadline misses,
/// cancellations).
const RECORDER_CAPACITY: usize = 32;
/// In-flight traces tracked concurrently; beyond this the oldest
/// unfinished trace is evicted (bounds memory under event drops).
const ACTIVE_TRACES: usize = 4096;
/// Events retained per trace; further events are counted, not kept.
const TRACE_EVENTS: usize = 32;

// ---------------------------------------------------------------------------
// Events
// ---------------------------------------------------------------------------

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

/// One lifecycle event. `Copy` so ring slots can hold it inline.
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

// ---------------------------------------------------------------------------
// Lock-free bounded MPMC event ring (Vyukov queue)
// ---------------------------------------------------------------------------

struct Slot {
    seq: AtomicUsize,
    value: UnsafeCell<MaybeUninit<Event>>,
}

/// Bounded lock-free MPMC ring. Producers (workers / submit threads)
/// `push` without ever blocking — a full ring returns `false` and the
/// caller counts the drop. The aggregator (and concurrent snapshot
/// takers) `pop`. Sequence-stamped slots à la Vyukov: each slot carries
/// the ticket of the operation allowed to touch it next.
pub(crate) struct EventRing {
    mask: usize,
    slots: Box<[Slot]>,
    head: AtomicUsize,
    tail: AtomicUsize,
}

// SAFETY: sending an EventRing to another thread moves the whole slot
// allocation with it; no slot holds thread-affine state (raw Events are
// plain data), so ownership transfer is sound.
unsafe impl Send for EventRing {}
// SAFETY: shared `&EventRing` access is mediated by the per-slot `seq`
// acquire/release protocol below: a slot's value is only written by the
// producer that won the head CAS and only read by the consumer that won
// the tail CAS, and the winner's exclusive window is published by the
// slot's seq Release store and observed by the other side's Acquire
// load — every UnsafeCell access has a happens-before edge.
unsafe impl Sync for EventRing {}

impl EventRing {
    fn with_capacity(capacity: usize) -> Self {
        let cap = capacity.max(8).next_power_of_two();
        let slots = (0..cap)
            .map(|i| Slot {
                seq: AtomicUsize::new(i),
                value: UnsafeCell::new(MaybeUninit::uninit()),
            })
            .collect::<Vec<_>>()
            .into_boxed_slice();
        Self {
            mask: cap - 1,
            slots,
            head: AtomicUsize::new(0),
            tail: AtomicUsize::new(0),
        }
    }

    // ams-lint: begin(no-panic) event ring hot path — push runs on every
    // worker iteration, pop on every aggregator drain

    /// Non-blocking enqueue. `false` means the ring was full — the event
    /// is lost and the caller must count it.
    pub(crate) fn push(&self, ev: Event) -> bool {
        // Relaxed: this load only seeds the CAS; slot ownership (the
        // part that needs ordering) travels through `seq`, not `head`.
        let mut pos = self.head.load(Ordering::Relaxed);
        loop {
            let slot = &self.slots[pos & self.mask]; // ams-lint: allow(no-panic) pos & mask < slots.len(), len is a power of two
                                                     // Acquire: pairs with the consumer's seq Release store in
                                                     // pop — seeing seq == pos proves the previous occupant was
                                                     // fully read out before we overwrite the slot.
            let seq = slot.seq.load(Ordering::Acquire);
            let dif = seq as isize - pos as isize;
            if dif == 0 {
                // Relaxed on success and failure: the CAS only
                // arbitrates which producer owns the slot; payload
                // publication happens via the seq Release store below,
                // so head itself carries no data.
                match self.head.compare_exchange_weak(
                    pos,
                    pos.wrapping_add(1),
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => {
                        // SAFETY: winning the CAS grants exclusive write
                        // access to this slot until the seq store below.
                        unsafe { (*slot.value.get()).write(ev) };
                        // Release: publishes the value write above to
                        // the consumer whose Acquire load sees pos + 1.
                        slot.seq.store(pos.wrapping_add(1), Ordering::Release);
                        return true;
                    }
                    Err(actual) => pos = actual,
                }
            } else if dif < 0 {
                return false; // full
            } else {
                // Relaxed: a stale head only costs another loop pass;
                // ordering is re-established by the seq Acquire above.
                pos = self.head.load(Ordering::Relaxed);
            }
        }
    }

    /// Non-blocking dequeue (aggregator side; safe under concurrent
    /// snapshot-taking consumers).
    pub(crate) fn pop(&self) -> Option<Event> {
        // Relaxed: seeds the CAS; see push — ordering rides on `seq`.
        let mut pos = self.tail.load(Ordering::Relaxed);
        loop {
            let slot = &self.slots[pos & self.mask]; // ams-lint: allow(no-panic) pos & mask < slots.len(), len is a power of two
                                                     // Acquire: pairs with the producer's seq Release store in
                                                     // push — seeing seq == pos + 1 proves the value write is
                                                     // visible before assume_init reads it.
            let seq = slot.seq.load(Ordering::Acquire);
            let dif = seq as isize - pos.wrapping_add(1) as isize;
            if dif == 0 {
                // Relaxed on success and failure: the CAS only
                // arbitrates which consumer drains the slot; visibility
                // of the payload was already secured by the seq Acquire
                // load above.
                match self.tail.compare_exchange_weak(
                    pos,
                    pos.wrapping_add(1),
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => {
                        // SAFETY: winning the CAS grants exclusive read
                        // access; the producer's Release store made the
                        // value visible.
                        let ev = unsafe { (*slot.value.get()).assume_init() };
                        // Release: hands the emptied slot back to the
                        // producer generation `pos + cap`; pairs with
                        // push's seq Acquire load.
                        slot.seq
                            .store(pos.wrapping_add(self.mask + 1), Ordering::Release);
                        return Some(ev);
                    }
                    Err(actual) => pos = actual,
                }
            } else if dif < 0 {
                return None; // empty
            } else {
                // Relaxed: a stale tail only costs another loop pass;
                // ordering is re-established by the seq Acquire above.
                pos = self.tail.load(Ordering::Relaxed);
            }
        }
    }

    // ams-lint: end(no-panic)
}

// ---------------------------------------------------------------------------
// Flight recorder
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
struct Trace {
    req: u64,
    ticket: u64,
    class: u32,
    verdict: Option<EventKind>,
    deadline_missed: bool,
    truncated: u64,
    events: Vec<Event>,
}

impl Trace {
    fn to_report(&self) -> TraceReport {
        TraceReport {
            req: self.req,
            ticket: if self.ticket == NO_TICKET {
                None
            } else {
                Some(self.ticket)
            },
            class: self.class,
            verdict: match self.verdict {
                Some(EventKind::Labeled) if self.deadline_missed => "deadline_miss".to_string(),
                Some(k) => k.name().to_string(),
                None => "in_flight".to_string(),
            },
            truncated: self.truncated,
            events: self
                .events
                .iter()
                .map(|e| EventRecord {
                    at_us: e.at_us,
                    kind: e.kind.name().to_string(),
                    shard: if e.shard == NO_SHARD {
                        None
                    } else {
                        Some(e.shard)
                    },
                    detail: e.detail,
                    flag: e.flag,
                })
                .collect(),
        }
    }
}

/// Bounded map of in-flight traces plus a bounded ring of settled
/// "interesting" ones (sheds, deadline misses, cancellations — the
/// requests a post-mortem asks about).
struct FlightRecorder {
    active: HashMap<u64, Trace>,
    order: VecDeque<u64>,
    interesting: VecDeque<Trace>,
    capacity: usize,
}

impl FlightRecorder {
    /// A recorder retaining the last `capacity` interesting traces.
    fn sized(capacity: usize) -> Self {
        Self {
            active: HashMap::new(),
            order: VecDeque::new(),
            interesting: VecDeque::new(),
            capacity,
        }
    }

    fn observe(&mut self, ev: Event) {
        if let Some(tr) = self.active.get_mut(&ev.req) {
            Self::append(tr, ev);
            if ev.kind.is_terminal() {
                let tr = self.active.remove(&ev.req).expect("trace present");
                self.order.retain(|&r| r != ev.req);
                self.settle(tr);
            }
            return;
        }
        // Late event for an already-settled request (ghost execution
        // lands after `Cancelled` retired the trace): extend in place.
        if ev.kind == EventKind::GhostExecuted || ev.kind == EventKind::Executed {
            if let Some(tr) = self.interesting.iter_mut().rev().find(|t| t.req == ev.req) {
                Self::append(tr, ev);
                return;
            }
        }
        let mut tr = Trace {
            req: ev.req,
            ticket: NO_TICKET,
            class: ev.class,
            verdict: None,
            deadline_missed: false,
            truncated: 0,
            events: Vec::with_capacity(8),
        };
        Self::append(&mut tr, ev);
        if ev.kind.is_terminal() {
            self.settle(tr);
            return;
        }
        if self.active.len() >= ACTIVE_TRACES {
            if let Some(oldest) = self.order.pop_front() {
                self.active.remove(&oldest);
            }
        }
        self.order.push_back(ev.req);
        self.active.insert(ev.req, tr);
    }

    fn append(tr: &mut Trace, ev: Event) {
        if ev.ticket != NO_TICKET {
            tr.ticket = ev.ticket;
        }
        if ev.kind.is_terminal() {
            tr.verdict = Some(ev.kind);
            if ev.kind == EventKind::Labeled {
                tr.deadline_missed = ev.flag;
            }
        }
        if tr.events.len() < TRACE_EVENTS {
            tr.events.push(ev);
        } else {
            tr.truncated += 1;
        }
    }

    fn settle(&mut self, tr: Trace) {
        let interesting = match tr.verdict {
            Some(EventKind::Labeled) => tr.deadline_missed,
            Some(EventKind::Rejected | EventKind::Cancelled) => true,
            Some(kind) => kind.is_shed(),
            None => false,
        };
        if !interesting {
            return;
        }
        if self.interesting.len() >= self.capacity {
            self.interesting.pop_front();
        }
        self.interesting.push_back(tr);
    }

    fn traces(&self) -> Vec<TraceReport> {
        self.interesting.iter().map(Trace::to_report).collect()
    }

    fn why(&self, id: u64) -> Option<TraceReport> {
        self.interesting
            .iter()
            .rev()
            .find(|t| t.ticket == id || t.req == id)
            .map(Trace::to_report)
    }
}

// ---------------------------------------------------------------------------
// Registry (aggregator state)
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
struct SliceBucket {
    index: u64,
    counts: [u64; KIND_COUNT],
    batch_limit: Vec<u64>,
    batch_fill: Vec<f64>,
}

struct Registry {
    /// Per-class event counts in the conservation ledger's own row shape
    /// (values stay zero — events carry none), fed only by `ingest`.
    by_class: Ledger,
    latency: LatencyHistogram,
    slices: VecDeque<SliceBucket>,
    slice_us: u64,
    max_slices: usize,
    recorder: FlightRecorder,
    // per-shard cumulative (batches, fill) at the last slice sample, for
    // per-slice batch-fill deltas
    fill_mark: Vec<(u64, u64)>,
}

impl Registry {
    fn new(shards: usize) -> Self {
        Self::sized(shards, SLICE_US, SLICES)
    }

    /// A registry rolling `max_slices` slices of `slice_us` each.
    fn sized(shards: usize, slice_us: u64, max_slices: usize) -> Self {
        Self {
            by_class: Ledger::default(),
            latency: LatencyHistogram::default(),
            slices: VecDeque::new(),
            slice_us,
            max_slices,
            recorder: FlightRecorder::sized(RECORDER_CAPACITY),
            fill_mark: vec![(0, 0); shards],
        }
    }

    fn slice_mut(&mut self, index: u64) -> &mut SliceBucket {
        let fresh = |index| SliceBucket {
            index,
            counts: [0; KIND_COUNT],
            batch_limit: Vec::new(),
            batch_fill: Vec::new(),
        };
        match self.slices.back() {
            Some(last) if last.index == index => {}
            Some(last) if last.index < index => {
                self.slices.push_back(fresh(index));
                while self.slices.len() > self.max_slices {
                    self.slices.pop_front();
                }
            }
            Some(_) => {
                // Late event for an already-rotated slice: fold into the
                // oldest retained bucket rather than resurrecting it.
                let pos = self
                    .slices
                    .iter()
                    .position(|s| s.index >= index)
                    .unwrap_or(0);
                return &mut self.slices[pos];
            }
            None => self.slices.push_back(fresh(index)),
        }
        self.slices.back_mut().expect("slice present")
    }

    fn ingest(&mut self, ev: Event) {
        let row = self.by_class.row(ev.class as usize);
        row.bump(ev.kind, 0.0);
        if ev.kind == EventKind::Labeled {
            if ev.flag {
                row.bump_late(0.0);
            }
            self.latency.record_us(ev.detail);
        }
        let idx = ev.at_us / self.slice_us;
        self.slice_mut(idx).counts[ev.kind.index()] += 1;
        // Swap events carry no request id — feeding their sentinel `req`
        // to the recorder would open a trace that can never settle.
        if ev.kind != EventKind::WeightsSwapped {
            self.recorder.observe(ev);
        }
    }
}

// ---------------------------------------------------------------------------
// The server-side handle
// ---------------------------------------------------------------------------

/// Per-shard gauge inputs sampled by the server at snapshot time (queue
/// state and AIMD limit live outside this module).
pub(crate) struct ShardSample {
    pub depth: u64,
    pub service_hint_us: u64,
    pub estimated_wait_us: u64,
    pub batch_limit: u64,
}

/// The live observability pipeline: rings, hot-path gauges, and the
/// aggregator-owned registry. One per server, shared by every worker,
/// queue, cache, and completion slot via `Arc`.
pub(crate) struct ServerObs {
    cfg: ObsConfig,
    start: Instant,
    shards: usize,
    workers_per_shard: usize,
    rings: Vec<EventRing>,
    dropped: Vec<AtomicU64>,
    executing: Vec<AtomicU64>,
    busy_us: Vec<AtomicU64>,
    batches: Vec<AtomicU64>,
    batch_fill: Vec<AtomicU64>,
    tickets_issued: AtomicU64,
    tickets_resolved: AtomicU64,
    registry: Mutex<Registry>,
    stop: AtomicBool,
}

impl std::fmt::Debug for ServerObs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServerObs")
            .field("shards", &self.shards)
            .field("workers_per_shard", &self.workers_per_shard)
            .field("rings", &self.rings.len())
            .finish_non_exhaustive()
    }
}

impl ServerObs {
    pub(crate) fn new(cfg: ObsConfig, shards: usize, workers_per_shard: usize) -> Self {
        let shards = shards.max(1);
        let workers_per_shard = workers_per_shard.max(1);
        let rings = (0..shards + shards * workers_per_shard)
            .map(|_| EventRing::with_capacity(cfg.ring_capacity))
            .collect();
        Self {
            registry: Mutex::new(Registry::new(shards)),
            cfg,
            start: Instant::now(),
            shards,
            workers_per_shard,
            rings,
            dropped: (0..KIND_COUNT).map(|_| AtomicU64::new(0)).collect(),
            executing: (0..shards).map(|_| AtomicU64::new(0)).collect(),
            busy_us: (0..shards).map(|_| AtomicU64::new(0)).collect(),
            batches: (0..shards).map(|_| AtomicU64::new(0)).collect(),
            batch_fill: (0..shards).map(|_| AtomicU64::new(0)).collect(),
            tickets_issued: AtomicU64::new(0),
            tickets_resolved: AtomicU64::new(0),
            stop: AtomicBool::new(false),
        }
    }

    /// Microseconds since server start (the event clock).
    pub(crate) fn now_us(&self) -> u64 {
        self.start.elapsed().as_micros() as u64
    }

    // ams-lint: begin(no-panic) emit paths — called from every submit and
    // every worker iteration; an event must never be able to kill a worker

    /// Stamp and record an event from a submit-side thread (ring keyed by
    /// request id so concurrent clients spread across shard rings).
    pub(crate) fn emit(&self, ev: Event) {
        self.record(&self.rings[(ev.req as usize) % self.shards], ev); // ams-lint: allow(no-panic) index is % shards and rings.len() >= shards
    }

    /// Stamp and record an event from worker `worker` (its private ring:
    /// no cross-worker contention on the hot path).
    pub(crate) fn emit_worker(&self, worker: usize, ev: Event) {
        let ring = &self.rings[self.shards + worker % (self.shards * self.workers_per_shard)]; // ams-lint: allow(no-panic) rings.len() == shards + shards * workers_per_shard
        self.record(ring, ev);
    }

    /// Stamp `ev` with the server clock and push it, counting a drop when
    /// the ring is full.
    fn record(&self, ring: &EventRing, mut ev: Event) {
        ev.at_us = self.now_us();
        if !ring.push(ev) {
            self.dropped[ev.kind.index()].fetch_add(1, Ordering::Relaxed); // ams-lint: allow(no-panic) kind.index() < EventKind::ALL.len() == dropped.len()
        }
    }

    // ams-lint: end(no-panic)

    pub(crate) fn ticket_issued(&self) {
        self.tickets_issued.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn ticket_resolved(&self) {
        self.tickets_resolved.fetch_add(1, Ordering::Relaxed);
    }

    /// Worker bookkeeping: a batch of `size` starts executing, `busy_us`
    /// after the worker's previous batch start (its busy time since then).
    pub(crate) fn batch_started(&self, shard: usize, size: usize, busy_us: u64) {
        self.executing[shard].fetch_add(size as u64, Ordering::Relaxed);
        self.busy_us[shard].fetch_add(busy_us, Ordering::Relaxed);
        self.batches[shard].fetch_add(1, Ordering::Relaxed);
        self.batch_fill[shard].fetch_add(size as u64, Ordering::Relaxed);
    }

    /// `n` members of executing batches were delivered.
    pub(crate) fn delivered(&self, shard: usize, n: usize) {
        self.executing[shard].fetch_sub(n as u64, Ordering::Relaxed);
    }

    pub(crate) fn request_stop(&self) {
        self.stop.store(true, Ordering::Release);
    }

    pub(crate) fn stopped(&self) -> bool {
        self.stop.load(Ordering::Acquire)
    }

    pub(crate) fn drain_interval_ms(&self) -> u64 {
        self.cfg.drain_interval_ms.max(1)
    }

    /// Drain every ring into the registry and stamp the current slice's
    /// gauge samples. Called by the aggregator on its interval, by
    /// snapshot takers, and one final time at shutdown.
    pub(crate) fn drain(&self, shard_limits: &[u64]) {
        let mut reg = self.registry.lock().expect("obs registry poisoned");
        for ring in &self.rings {
            while let Some(ev) = ring.pop() {
                reg.ingest(ev);
            }
        }
        // Stamp AIMD-limit / batch-fill trajectory samples onto the slice
        // the clock is currently in.
        let idx = self.now_us() / reg.slice_us;
        let mut fills = Vec::with_capacity(self.shards);
        let mut marks = Vec::with_capacity(self.shards);
        for s in 0..self.shards {
            let batches = self.batches[s].load(Ordering::Relaxed);
            let fill = self.batch_fill[s].load(Ordering::Relaxed);
            let (b0, f0) = reg.fill_mark[s];
            let db = batches.saturating_sub(b0);
            fills.push(ratio(fill.saturating_sub(f0), db));
            marks.push((batches, fill));
        }
        let slice = reg.slice_mut(idx);
        slice.batch_limit = shard_limits.to_vec();
        slice.batch_fill = fills;
        if slice.index == idx {
            reg.fill_mark = marks;
        }
    }

    /// Build a live snapshot. Drains first so the numbers are current.
    pub(crate) fn snapshot(
        &self,
        shards: &[ShardSample],
        cache: Option<CacheGauges>,
        adapt_generation: Option<u64>,
    ) -> MetricsSnapshot {
        let limits: Vec<u64> = shards.iter().map(|s| s.batch_limit).collect();
        self.drain(&limits);
        let uptime_us = self.now_us().max(1);
        let reg = self.registry.lock().expect("obs registry poisoned");
        let totals = reg.by_class.total();
        let events: Vec<EventCount> = EventKind::ALL
            .iter()
            .map(|&k| EventCount {
                kind: k.name().to_string(),
                count: totals.count(k),
                dropped: self.dropped[k.index()].load(Ordering::Relaxed),
            })
            .collect();
        let total =
            |k: EventKind| totals.count(k) + self.dropped[k.index()].load(Ordering::Relaxed);
        let settled: u64 = EventKind::ALL
            .iter()
            .filter(|k| k.is_terminal())
            .map(|&k| total(k))
            .sum();
        let in_flight = total(EventKind::Admitted).saturating_sub(settled);
        let issued = self.tickets_issued.load(Ordering::Relaxed);
        let resolved = self.tickets_resolved.load(Ordering::Relaxed);
        let shard_gauges = shards
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let busy = self.busy_us[i].load(Ordering::Relaxed);
                let denom = uptime_us
                    .saturating_mul(self.workers_per_shard as u64)
                    .max(1);
                let batches = self.batches[i].load(Ordering::Relaxed);
                let fill = self.batch_fill[i].load(Ordering::Relaxed);
                ShardGauges {
                    shard: i as u32,
                    depth: s.depth,
                    service_hint_us: s.service_hint_us,
                    estimated_wait_us: s.estimated_wait_us,
                    executing: self.executing[i].load(Ordering::Relaxed),
                    busy_fraction: (busy as f64 / denom as f64).min(1.0),
                    batch_limit: s.batch_limit,
                    mean_batch_fill: ratio(fill, batches),
                }
            })
            .collect();
        let classes = reg
            .by_class
            .rows()
            .iter()
            .enumerate()
            .map(|(i, c)| {
                let labeled = c.count(EventKind::Labeled);
                let shed = c.sum(EventKind::is_shed).count;
                ClassRates {
                    class: i as u32,
                    admitted: c.count(EventKind::Admitted),
                    labeled,
                    cache_hit: c.count(EventKind::CacheHit),
                    coalesced: c.count(EventKind::Coalesced),
                    shed,
                    rejected: c.count(EventKind::Rejected),
                    cancelled: c.count(EventKind::Cancelled),
                    deadline_met_rate: ratio(labeled - c.late.count, labeled),
                    shed_rate: ratio(shed, c.sum(EventKind::is_terminal).count),
                }
            })
            .collect();
        let slices = reg
            .slices
            .iter()
            .map(|s| SliceSnapshot {
                index: s.index,
                start_us: s.index * reg.slice_us,
                counts: s.counts.to_vec(),
                batch_limit: s.batch_limit.clone(),
                mean_batch_fill: s.batch_fill.clone(),
            })
            .collect();
        MetricsSnapshot {
            uptime_us,
            events,
            dropped_total: self.dropped.iter().map(|d| d.load(Ordering::Relaxed)).sum(),
            in_flight,
            outstanding_tickets: issued.saturating_sub(resolved),
            tickets_issued: issued,
            shards: shard_gauges,
            classes,
            cache,
            adapt_generation,
            latency: reg.latency.clone(),
            slices,
        }
    }

    /// Final fold at drain: snapshot plus the recorder's retained traces.
    pub(crate) fn report(
        &self,
        shards: &[ShardSample],
        cache: Option<CacheGauges>,
        adapt_generation: Option<u64>,
    ) -> ObsReport {
        let snapshot = self.snapshot(shards, cache, adapt_generation);
        let reg = self.registry.lock().expect("obs registry poisoned");
        ObsReport {
            snapshot,
            traces: reg.recorder.traces(),
        }
    }

    /// Post-mortem dump for a settled interesting request, by ticket or
    /// request id.
    pub(crate) fn why(&self, id: u64) -> Option<TraceReport> {
        let reg = self.registry.lock().expect("obs registry poisoned");
        reg.recorder.why(id)
    }
}

// ---------------------------------------------------------------------------
// Snapshot / report types (serde-visible)
// ---------------------------------------------------------------------------

/// Per-kind event totals: `count` drained into the registry, `dropped`
/// lost to ring overflow (counted at the producer). The reconciled total
/// for a kind is `count + dropped`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EventCount {
    /// Kind name (see [`EventKind::name`]).
    pub kind: String,
    /// Events drained through a ring into the registry.
    pub count: u64,
    /// Events dropped on ring overflow (never block a worker).
    pub dropped: u64,
}

/// Live per-shard gauges, sampled at snapshot time.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShardGauges {
    /// Shard index.
    pub shard: u32,
    /// Queued requests right now (the `estimated_wait_us` depth input).
    pub depth: u64,
    /// Published per-request drain hint (µs) — the other wait input.
    pub service_hint_us: u64,
    /// `depth × service_hint_us`: exactly what `Router::route` prices
    /// when it weighs a deadline against this shard.
    pub estimated_wait_us: u64,
    /// Requests inside an executing batch right now.
    pub executing: u64,
    /// Fraction of worker wall time spent executing batches.
    pub busy_fraction: f64,
    /// Current AIMD `max_batch` limit (static limit when non-adaptive).
    pub batch_limit: u64,
    /// Mean realized batch size since start.
    pub mean_batch_fill: f64,
}

/// Cumulative per-class counters with derived rates.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClassRates {
    /// SLO class index.
    pub class: u32,
    /// Requests admitted into the pipeline.
    pub admitted: u64,
    /// Requests labeled (own execution).
    pub labeled: u64,
    /// Requests answered by the cache before admission.
    pub cache_hit: u64,
    /// Requests delivered by leader fan-out.
    pub coalesced: u64,
    /// Requests shed (all reasons).
    pub shed: u64,
    /// Requests refused by the reject policy.
    pub rejected: u64,
    /// Requests cancelled by their client.
    pub cancelled: u64,
    /// Of labeled requests, the fraction that met their deadline.
    pub deadline_met_rate: f64,
    /// Of settled requests, the fraction shed.
    pub shed_rate: f64,
}

/// Label-cache occupancy gauges (present when the cache is enabled).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CacheGauges {
    /// Resident entries.
    pub entries: u64,
    /// Resident bytes.
    pub bytes: u64,
    /// Configured byte budget.
    pub capacity_bytes: u64,
    /// `(cache_hit + coalesced) / admitted` so far.
    pub hit_rate: f64,
}

/// One rolling time slice of the event stream.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SliceSnapshot {
    /// Slice sequence number since server start.
    pub index: u64,
    /// Slice start, µs since server start.
    pub start_us: u64,
    /// Per-kind event counts in this slice, ordered as
    /// [`EventKind::ALL`].
    pub counts: Vec<u64>,
    /// Per-shard AIMD `max_batch` sampled while this slice was current.
    pub batch_limit: Vec<u64>,
    /// Per-shard mean realized batch size over this slice.
    pub mean_batch_fill: Vec<f64>,
}

/// A live view of the server: event totals, gauges, per-class rates, the
/// rolling slice window, and the full-resolution latency histogram.
/// Serializable via the workspace serde stand-in (`serde_json`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// Microseconds since server start.
    pub uptime_us: u64,
    /// Per-kind totals (drained + dropped), ordered as [`EventKind::ALL`].
    pub events: Vec<EventCount>,
    /// Total events lost to ring overflow, all kinds.
    pub dropped_total: u64,
    /// Admitted requests not yet settled by a terminal event.
    pub in_flight: u64,
    /// Tickets issued and not yet resolved (exact, counter-based).
    pub outstanding_tickets: u64,
    /// Tickets issued since start.
    pub tickets_issued: u64,
    /// Per-shard live gauges.
    pub shards: Vec<ShardGauges>,
    /// Per-class counters and rates.
    pub classes: Vec<ClassRates>,
    /// Cache occupancy, when the label cache is enabled.
    pub cache: Option<CacheGauges>,
    /// Current weight generation in the predict path, when online
    /// adaptation is enabled (0 = still serving the boot weights).
    pub adapt_generation: Option<u64>,
    /// Total-latency histogram over labeled requests (full bucket
    /// resolution — arbitrary quantiles can be computed client-side).
    pub latency: LatencyHistogram,
    /// Rolling time slices, oldest first.
    pub slices: Vec<SliceSnapshot>,
}

impl MetricsSnapshot {
    /// Reconciled total (drained + dropped) for one event kind.
    pub fn total(&self, kind: EventKind) -> u64 {
        self.events
            .iter()
            .find(|e| e.kind == kind.name())
            .map(|e| e.count + e.dropped)
            .unwrap_or(0)
    }

    /// Prometheus text exposition of this snapshot.
    pub fn render_prometheus(&self) -> String {
        let mut out = String::with_capacity(4096);
        fn bare<T>(_: &T) -> String {
            String::new()
        }
        families(
            &mut out,
            &self.events,
            |e| format!("{{kind=\"{}\"}}", e.kind),
            EVENT_ROWS,
        );
        families(&mut out, std::slice::from_ref(self), bare, SERVER_ROWS);
        families(
            &mut out,
            &self.shards,
            |s| format!("{{shard=\"{}\"}}", s.shard),
            SHARD_ROWS,
        );
        families(
            &mut out,
            &self.classes,
            |c| format!("{{class=\"{}\"}}", c.class),
            CLASS_ROWS,
        );
        families(&mut out, self.adapt_generation.as_slice(), bare, ADAPT_ROWS);
        families(&mut out, self.cache.as_slice(), bare, CACHE_ROWS);
        out.push_str(
            "# HELP ams_latency_us Total request latency quantiles (microseconds).\n\
             # TYPE ams_latency_us summary\n",
        );
        for q in [0.5, 0.95, 0.99] {
            out.push_str(&format!(
                "ams_latency_us{{quantile=\"{q}\"}} {}\n",
                self.latency.quantile_us(q)
            ));
        }
        out.push_str(&format!("ams_latency_us_sum {}\n", self.latency.sum_us()));
        out.push_str(&format!("ams_latency_us_count {}\n", self.latency.count()));
        out
    }
}

/// One metric family of the exposition: `(type, name, help, value)`.
type Family<T> = (&'static str, &'static str, &'static str, fn(&T) -> f64);

/// Write each family's `# HELP`/`# TYPE` header followed by one sample per
/// item — nothing at all for an empty item set, so an absent optional
/// section (classes, cache, adaptation) leaves no header behind.
fn families<T>(out: &mut String, items: &[T], labels: impl Fn(&T) -> String, rows: &[Family<T>]) {
    for (kind, name, help, value) in rows.iter().filter(|_| !items.is_empty()) {
        out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} {kind}\n"));
        for item in items {
            out.push_str(&format!("{name}{} {}\n", labels(item), value(item)));
        }
    }
}

#[rustfmt::skip]
const EVENT_ROWS: &[Family<EventCount>] = &[
    ("counter", "ams_events_total", "Lifecycle events drained into the registry, by kind.", |e| e.count as f64),
    ("counter", "ams_events_dropped_total", "Lifecycle events dropped on ring overflow, by kind.", |e| e.dropped as f64),
];
#[rustfmt::skip]
const SERVER_ROWS: &[Family<MetricsSnapshot>] = &[
    ("counter", "ams_tickets_issued_total", "Completion tickets issued.", |s| s.tickets_issued as f64),
    ("gauge", "ams_in_flight", "Admitted requests not yet settled.", |s| s.in_flight as f64),
    ("gauge", "ams_outstanding_tickets", "Tickets issued and not yet resolved.", |s| s.outstanding_tickets as f64),
];
#[rustfmt::skip]
const SHARD_ROWS: &[Family<ShardGauges>] = &[
    ("gauge", "ams_shard_queue_depth", "Queued requests per shard.", |s| s.depth as f64),
    ("gauge", "ams_shard_service_hint_us", "Published per-request drain hint per shard (microseconds).", |s| s.service_hint_us as f64),
    ("gauge", "ams_shard_estimated_wait_us", "depth * service_hint: the wait Router::route prices (microseconds).", |s| s.estimated_wait_us as f64),
    ("gauge", "ams_shard_executing", "Requests inside an executing batch per shard.", |s| s.executing as f64),
    ("gauge", "ams_shard_busy_fraction", "Fraction of worker wall time spent executing.", |s| s.busy_fraction),
    ("gauge", "ams_shard_batch_limit", "Current (AIMD) max_batch per shard.", |s| s.batch_limit as f64),
    ("gauge", "ams_shard_mean_batch_fill", "Mean realized batch size per shard.", |s| s.mean_batch_fill),
];
#[rustfmt::skip]
const CLASS_ROWS: &[Family<ClassRates>] = &[
    ("counter", "ams_class_admitted_total", "Admitted requests per SLO class.", |c| c.admitted as f64),
    ("counter", "ams_class_labeled_total", "Labeled requests per SLO class.", |c| c.labeled as f64),
    ("counter", "ams_class_shed_total", "Shed requests per SLO class (all reasons).", |c| c.shed as f64),
    ("gauge", "ams_class_deadline_met_rate", "Fraction of labeled requests that met their deadline.", |c| c.deadline_met_rate),
    ("gauge", "ams_class_shed_rate", "Fraction of settled requests shed.", |c| c.shed_rate),
];
#[rustfmt::skip]
const ADAPT_ROWS: &[Family<u64>] = &[
    ("gauge", "ams_adapt_generation", "Weight generation currently serving predictions.", |g| *g as f64),
];
#[rustfmt::skip]
const CACHE_ROWS: &[Family<CacheGauges>] = &[
    ("gauge", "ams_cache_entries", "Resident label-cache entries.", |c| c.entries as f64),
    ("gauge", "ams_cache_bytes", "Resident label-cache bytes.", |c| c.bytes as f64),
    ("gauge", "ams_cache_hit_rate", "(cache_hit + coalesced) / admitted.", |c| c.hit_rate),
];

/// One recorded event inside a [`TraceReport`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EventRecord {
    /// Microseconds since server start.
    pub at_us: u64,
    /// Kind name.
    pub kind: String,
    /// Shard, when placed.
    pub shard: Option<u32>,
    /// Kind-specific payload.
    pub detail: u64,
    /// Kind-specific flag.
    pub flag: bool,
}

/// The flight recorder's causal trace of one interesting request.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceReport {
    /// Request correlation id.
    pub req: u64,
    /// Completion-ticket id, when the request had one.
    pub ticket: Option<u64>,
    /// SLO class index.
    pub class: u32,
    /// How the request settled: a terminal kind name, or
    /// `"deadline_miss"` for labels past deadline.
    pub verdict: String,
    /// Events beyond the per-trace cap (counted, not retained).
    pub truncated: u64,
    /// The retained causal event sequence, in arrival order.
    pub events: Vec<EventRecord>,
}

impl TraceReport {
    /// Human-readable multi-line dump ("why did this request miss?").
    pub fn dump(&self) -> String {
        let mut out = format!(
            "req {} ticket {} class {} -> {}\n",
            self.req,
            self.ticket
                .map(|t| t.to_string())
                .unwrap_or_else(|| "-".to_string()),
            self.class,
            self.verdict
        );
        for e in &self.events {
            out.push_str(&format!(
                "  +{:>9}us {:<14} shard {:<4} detail {}{}\n",
                e.at_us,
                e.kind,
                e.shard.map(|s| s.to_string()).unwrap_or_else(|| "-".into()),
                e.detail,
                if e.flag { " [flag]" } else { "" }
            ));
        }
        if self.truncated > 0 {
            out.push_str(&format!(
                "  ... {} further events truncated\n",
                self.truncated
            ));
        }
        out
    }
}

/// The observability fold of a drain report: the final snapshot plus the
/// flight recorder's retained traces.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ObsReport {
    /// The final metrics snapshot, taken after workers drained.
    pub snapshot: MetricsSnapshot,
    /// Interesting traces retained by the flight recorder, oldest first.
    pub traces: Vec<TraceReport>,
}

impl ObsReport {
    /// Reconciled total (drained + dropped) for one event kind.
    pub fn total(&self, kind: EventKind) -> u64 {
        self.snapshot.total(kind)
    }

    /// Find a retained trace by ticket or request id.
    pub fn why(&self, id: u64) -> Option<&TraceReport> {
        self.traces
            .iter()
            .rev()
            .find(|t| t.ticket == Some(id) || t.req == id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn ev(kind: EventKind, req: u64) -> Event {
        Event::new(kind, req, NO_TICKET, NO_SHARD, 0)
    }

    #[test]
    fn ring_is_fifo_and_bounded() {
        let r = EventRing::with_capacity(8);
        for i in 0..8 {
            assert!(r.push(ev(EventKind::Admitted, i)));
        }
        assert!(!r.push(ev(EventKind::Admitted, 99)), "ninth push must fail");
        for i in 0..8 {
            assert_eq!(r.pop().expect("event").req, i);
        }
        assert!(r.pop().is_none());
        // Wrap-around keeps working.
        for i in 100..104 {
            assert!(r.push(ev(EventKind::Labeled, i)));
        }
        assert_eq!(r.pop().expect("event").req, 100);
    }

    #[test]
    fn ring_survives_concurrent_producers() {
        let r = Arc::new(EventRing::with_capacity(1024));
        let producers: Vec<_> = (0..4)
            .map(|t| {
                let r = Arc::clone(&r);
                std::thread::spawn(move || {
                    for i in 0..200u64 {
                        while !r.push(ev(EventKind::Admitted, t * 1000 + i)) {
                            std::thread::yield_now();
                        }
                    }
                })
            })
            .collect();
        let consumer = {
            let r = Arc::clone(&r);
            std::thread::spawn(move || {
                let mut seen = Vec::new();
                while seen.len() < 800 {
                    if let Some(e) = r.pop() {
                        seen.push(e.req);
                    } else {
                        std::thread::yield_now();
                    }
                }
                seen
            })
        };
        for p in producers {
            p.join().expect("producer");
        }
        let mut seen = consumer.join().expect("consumer");
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), 800, "every pushed event seen exactly once");
    }

    #[test]
    fn drops_are_counted_per_kind_and_totals_stay_honest() {
        let obs = ServerObs::new(
            ObsConfig {
                ring_capacity: 8,
                ..ObsConfig::default()
            },
            1,
            1,
        );
        for i in 0..50 {
            obs.emit(ev(EventKind::Admitted, i));
        }
        let snap = obs.snapshot(
            &[ShardSample {
                depth: 0,
                service_hint_us: 0,
                estimated_wait_us: 0,
                batch_limit: 4,
            }],
            None,
            None,
        );
        assert_eq!(snap.total(EventKind::Admitted), 50);
        assert!(snap.dropped_total > 0, "tiny ring must have overflowed");
        let admitted = snap
            .events
            .iter()
            .find(|e| e.kind == "admitted")
            .expect("admitted family");
        assert_eq!(admitted.count + admitted.dropped, 50);
    }

    #[test]
    fn recorder_keeps_interesting_traces_and_answers_why() {
        let mut rec = FlightRecorder::sized(RECORDER_CAPACITY);
        // A clean labeled request is not retained.
        rec.observe(ev(EventKind::Admitted, 1));
        rec.observe(ev(EventKind::Labeled, 1));
        assert!(rec.why(1).is_none());
        // A deadline miss is.
        rec.observe(ev(EventKind::Admitted, 2));
        let mut labeled = ev(EventKind::Labeled, 2);
        labeled.flag = true;
        labeled.ticket = 77;
        rec.observe(labeled);
        let tr = rec.why(77).expect("trace by ticket id");
        assert_eq!(tr.verdict, "deadline_miss");
        assert_eq!(tr.req, 2);
        assert_eq!(rec.why(2).expect("trace by req id").ticket, Some(77));
        // Ghost execution after cancellation extends the settled trace.
        rec.observe(ev(EventKind::Admitted, 3));
        let mut cancelled = ev(EventKind::Cancelled, 3);
        cancelled.ticket = 99;
        rec.observe(cancelled);
        rec.observe(ev(EventKind::GhostExecuted, 3));
        let tr = rec.why(99).expect("cancelled trace");
        assert_eq!(tr.verdict, "cancelled");
        assert!(tr.events.iter().any(|e| e.kind == "ghost_executed"));
    }

    #[test]
    fn recorder_ring_is_bounded() {
        let mut rec = FlightRecorder::sized(4);
        for i in 0..20 {
            rec.observe(ev(EventKind::ShedOverflow, i));
        }
        assert_eq!(rec.traces().len(), 4);
        assert!(rec.why(19).is_some(), "newest retained");
        assert!(rec.why(0).is_none(), "oldest evicted");
    }

    #[test]
    fn slices_rotate_and_stay_bounded() {
        let mut reg = Registry::sized(1, 1000, 3);
        for i in 0..10u64 {
            let mut e = ev(EventKind::Admitted, i);
            e.at_us = i * 1000; // one event per 1ms slice
            reg.ingest(e);
        }
        assert_eq!(reg.slices.len(), 3);
        assert_eq!(reg.slices.back().expect("slice").index, 9);
        assert_eq!(reg.by_class.total().count(EventKind::Admitted), 10);
    }

    #[test]
    fn snapshot_serializes_and_renders() {
        let obs = ServerObs::new(ObsConfig::default(), 2, 1);
        let mut e = ev(EventKind::Admitted, 0);
        e.class = 1;
        obs.emit(e);
        let mut l = ev(EventKind::Labeled, 0);
        l.class = 1;
        l.detail = 1500;
        obs.emit(l);
        let samples = [
            ShardSample {
                depth: 3,
                service_hint_us: 40,
                estimated_wait_us: 120,
                batch_limit: 4,
            },
            ShardSample {
                depth: 0,
                service_hint_us: 0,
                estimated_wait_us: 0,
                batch_limit: 4,
            },
        ];
        let snap = obs.snapshot(&samples, None, Some(7));
        let json = serde_json::to_string(&snap).expect("snapshot serializes");
        let back: MetricsSnapshot = serde_json::from_str(&json).expect("snapshot round-trips");
        assert_eq!(back, snap);
        let text = snap.render_prometheus();
        assert!(text.contains("ams_events_total{kind=\"admitted\"} 1"));
        assert!(text.contains("ams_shard_estimated_wait_us{shard=\"0\"} 120"));
        assert!(text.contains("ams_adapt_generation 7"));
        assert!(text.contains("ams_latency_us_count 1"));
    }
}
