//! Per-request completion delivery: tickets, terminal events, and the
//! bounded per-client completion queue.
//!
//! Serving is request/response: the merged statistics at `shutdown()` are
//! an aggregate *of* per-request answers, not a substitute for them. This
//! module is the per-request half of the client API:
//!
//! * every accepted submission issues a [`Ticket`] — a cancellable handle
//!   tied to **exactly one** terminal [`Completion`] event;
//! * the terminal event is either [`Completion::Labeled`] (the request's
//!   own labels, chosen models, value banked, and queue-wait/execute
//!   breakdown), [`Completion::Shed`] (which loss path took it, delivered
//!   at eviction time instead of silently ledgered), or
//!   [`Completion::Cancelled`];
//! * events are delivered through a bounded per-client
//!   [`CompletionQueue`] (a vendored `std`-style mpsc — mutex + condvars,
//!   no dependencies) with blocking, `try_`, and drain receive variants.
//!
//! ## Exactly-once resolution
//!
//! A ticket's [`CompletionSlot`] is a tiny atomic state machine:
//!
//! ```text
//!             try_claim (worker, before labeling)
//!   PENDING ────────────────────────────────────► CLAIMED
//!      │                                             │
//!      │ try_shed / cancel / retract                 │ finish_labeled
//!      ▼                                             ▼
//!   RESOLVED ◄───────────────────────────────────────┘
//! ```
//!
//! Cancellation races with dequeue, batch assembly, overflow eviction, and
//! deadline shedding; whoever wins the single `PENDING → RESOLVED` (or
//! `PENDING → CLAIMED`) compare-and-swap owns the terminal event, and every
//! loser backs off without delivering or ledgering anything. A claimed
//! request can no longer be cancelled — its labels are already being
//! computed and will be delivered.
//!
//! ## Bounded delivery without deadlock
//!
//! The queue's bound is enforced on the *ticket window*, not on event
//! pushes: `submit` blocks while `capacity` tickets are outstanding
//! (issued but their events not yet consumed), and since every ticket
//! produces exactly one event the queued-event depth can never exceed the
//! capacity. Workers and cancellers therefore never block on delivery —
//! a canceller running on the client's own thread cannot deadlock against
//! the client's own full queue.

use crate::ledger::Ledger;
use crate::obs::{Event, EventKind, ServerObs, NO_SHARD};
use ams_models::{LabelId, ModelId};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// Which loss path took a shed request — the reason delivered to the
/// client in its [`Completion::Shed`] event.
///
/// Wire-stable: the frame codec ([`crate::wire`]) carries it as one
/// byte, the variant's position in declaration order — append new
/// variants at the end. Serde serializes it by variant name.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ShedReason {
    /// Refused at admission, before occupying a queue slot: the shard's
    /// predicted wait already exceeded the request's deadline.
    Admission,
    /// Evicted from a full queue by the shed-oldest overflow policy (or
    /// the submission itself was the overflow victim).
    Overflow,
    /// Dequeued with its deadline budget already exhausted.
    Deadline,
    /// Discarded while still queued because the server was dropped
    /// (aborted) before a worker reached it. A graceful
    /// [`shutdown`](crate::AmsServer::shutdown) never sheds this way — it
    /// drains the backlog.
    Drain,
}

impl ShedReason {
    /// Stable lowercase name for logs and reports.
    pub fn name(&self) -> &'static str {
        match self {
            ShedReason::Admission => "admission",
            ShedReason::Overflow => "overflow",
            ShedReason::Deadline => "deadline",
            ShedReason::Drain => "drain",
        }
    }
}

/// The per-request labeling result delivered to the submitting client —
/// what `shutdown()`'s merged statistics used to fold away.
///
/// Wire-stable: every field round-trips bit-exactly through the frame
/// codec (floats travel as raw IEEE-754 bits), so labels received over
/// TCP are byte-identical to the in-process client's.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LabelResult {
    /// The ticket this result resolves.
    pub ticket: u64,
    /// SLO class index the request ran under (0 without SLO classes).
    pub class: usize,
    /// Labels extracted for this item (with confidences), sorted by id.
    pub labels: Vec<(LabelId, f32)>,
    /// The models the scheduler chose and executed, in completion order.
    pub executed: Vec<ModelId>,
    /// Value of the extracted labels, `f(S, d)` — the paper's objective.
    pub label_value: f64,
    /// The value the SLO ledger banked for this request: the predicted
    /// (class-weighted) value the shedding economics priced it at.
    pub banked_value: f64,
    /// Recall of the full-execution value.
    pub recall: f64,
    /// Wall-clock time the request waited in its shard queue, µs.
    pub queue_wait_us: u64,
    /// Wall-clock time from its batch's pop to its own delivery, µs:
    /// labeling plus the pool's run up to the finish of the last model
    /// *this request* executed — batch-mates whose models finish later do
    /// not extend it.
    pub execute_us: u64,
    /// Whether wait + execute met the request's deadline (`true` when the
    /// request carried no deadline).
    pub deadline_met: bool,
}

/// The single terminal event of one ticket.
///
/// Wire-stable: the TCP front-end's `Completion` frames carry this type
/// (one frame tag per variant, see [`crate::wire`]), with the ticket id
/// remapped to the client-chosen request id.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum Completion {
    /// The request was labeled; here is its result.
    Labeled(LabelResult),
    /// The request was shed on the given loss path.
    Shed {
        /// The ticket this event resolves.
        ticket: u64,
        /// SLO class index of the shed request.
        class: usize,
        /// Which loss path took it.
        reason: ShedReason,
    },
    /// The request was cancelled by its ticket before any worker claimed
    /// it.
    Cancelled {
        /// The ticket this event resolves.
        ticket: u64,
        /// SLO class index of the cancelled request.
        class: usize,
    },
}

impl Completion {
    /// The ticket id this event resolves.
    pub fn ticket(&self) -> u64 {
        match self {
            Completion::Labeled(r) => r.ticket,
            Completion::Shed { ticket, .. } | Completion::Cancelled { ticket, .. } => *ticket,
        }
    }

    /// The labeling result, when the request completed.
    pub fn labeled(&self) -> Option<&LabelResult> {
        match self {
            Completion::Labeled(r) => Some(r),
            _ => None,
        }
    }

    /// Whether this event is a cancellation.
    pub fn is_cancelled(&self) -> bool {
        matches!(self, Completion::Cancelled { .. })
    }
}

/// Server-side cancellation ledger: the `Cancelled` bucket of the
/// conservation [`Ledger`], by class, with the predicted value the
/// cancelled tickets carried. Shared between the live tickets (which record
/// into it) and the server (which folds it into the final report), so a
/// cancellation arriving from any thread lands in the same conservation
/// equation as every other loss path.
///
/// The winning `PENDING → RESOLVED` compare-and-swap of a cancellation
/// runs **while holding this ledger's lock** ([`CompletionSlot::try_cancel`]):
/// any observer that can see the resolved tombstone (a worker skipping it,
/// a queue purge) is therefore ordered after the ledger entry, and a
/// reader taking this lock — `shutdown` folding the report after the
/// workers joined — can never see a cancellation the counters are missing.
pub(crate) type CancelLedger = Mutex<Ledger>;

const PENDING: u8 = 0;
const CLAIMED: u8 = 1;
const RESOLVED: u8 = 2;

/// The shared state behind one ticket: the atomic resolution state machine
/// plus everything needed to build and deliver the terminal event. Queued
/// requests carry an `Arc` of this slot, so overflow eviction, deadline
/// shedding, drain-abort, and the labeling path can all notify their
/// victim's client directly.
#[derive(Debug)]
pub struct CompletionSlot {
    id: u64,
    class: usize,
    value: f64,
    state: AtomicU8,
    queue: Arc<CompletionQueue>,
    ledger: Arc<CancelLedger>,
    /// Observability hook (`request correlation id`, pipeline): the
    /// cancellation path emits its terminal event from here, and every
    /// resolution marks the ticket resolved for the outstanding-tickets
    /// gauge.
    obs: Option<(u64, Arc<ServerObs>)>,
}

impl CompletionSlot {
    pub(crate) fn new(
        id: u64,
        class: usize,
        value: f64,
        queue: Arc<CompletionQueue>,
        ledger: Arc<CancelLedger>,
    ) -> Self {
        Self {
            id,
            class,
            value,
            state: AtomicU8::new(PENDING),
            queue,
            ledger,
            obs: None,
        }
    }

    /// Attach the observability pipeline when it is on (and the request's
    /// correlation id), counting the ticket as issued — every resolution
    /// counts it resolved again. Must happen before the slot is shared.
    pub(crate) fn with_obs(mut self, req_id: u64, obs: Option<Arc<ServerObs>>) -> Self {
        self.obs = obs.map(|obs| {
            obs.ticket_issued();
            (req_id, obs)
        });
        self
    }

    fn obs_resolved(&self) {
        if let Some((_, obs)) = &self.obs {
            obs.ticket_resolved();
        }
    }

    /// The ticket id.
    pub(crate) fn id(&self) -> u64 {
        self.id
    }

    /// Whether the slot has reached its terminal state (event delivered or
    /// retracted). A resolved slot still sitting in a shard queue is a
    /// cancellation tombstone: workers and eviction skip it silently.
    pub(crate) fn is_resolved(&self) -> bool {
        // Acquire: pairs with the Release in the resolving CAS/store, so
        // a reader that sees RESOLVED also sees the delivered completion.
        self.state.load(Ordering::Acquire) == RESOLVED
    }

    /// Worker-side claim before labeling: `PENDING → CLAIMED`. Returns
    /// `false` when the request was already cancelled (or shed) — the
    /// caller must skip it without ledgering anything.
    pub(crate) fn try_claim(&self) -> bool {
        // AcqRel: the Acquire half orders the claim after any prior
        // resolution attempt it beat; the Release half publishes the
        // claim to the cancel/shed CASes racing on PENDING. Acquire on
        // failure: the loser must see the winner's writes before it
        // skips the slot.
        self.state
            .compare_exchange(PENDING, CLAIMED, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
    }

    /// Deliver the labeling result for a previously claimed slot.
    pub(crate) fn finish_labeled(&self, result: LabelResult) {
        // Acquire (debug-only check): orders the read after our own
        // claim CAS so the assertion can't see a stale pre-claim value.
        debug_assert_eq!(self.state.load(Ordering::Acquire), CLAIMED);
        // Release: only this worker can move CLAIMED → RESOLVED (claim
        // won the CAS), so a plain store suffices; Release publishes the
        // labeling result to is_resolved's Acquire readers.
        self.state.store(RESOLVED, Ordering::Release);
        self.obs_resolved();
        self.queue.deliver(Completion::Labeled(result));
    }

    /// Try to resolve a *pending* slot with a labeling result:
    /// `PENDING → RESOLVED`, delivering [`Completion::Labeled`] on
    /// success. Unlike [`CompletionSlot::finish_labeled`] (which requires
    /// a prior claim), this races against cancellation — it is the
    /// delivery path for cache hits answered at submit time and for
    /// coalesced followers fanned out when their leader resolves, neither
    /// of which ever passes through a worker's claim. Returns `false`
    /// when the slot already resolved (cancelled) — the caller must not
    /// ledger the completion.
    pub(crate) fn try_labeled(&self, result: LabelResult) -> bool {
        // AcqRel: Release publishes the result delivered below to
        // is_resolved's Acquire readers; Acquire orders us after any
        // cancel that beat us. Acquire on failure: before returning
        // false we must see the winner's resolution.
        if self
            .state
            .compare_exchange(PENDING, RESOLVED, Ordering::AcqRel, Ordering::Acquire)
            .is_err()
        {
            return false;
        }
        self.obs_resolved();
        self.queue.deliver(Completion::Labeled(result));
        true
    }

    /// Try to resolve the slot as shed: `PENDING → RESOLVED`, delivering
    /// the [`Completion::Shed`] event on success. Returns `false` when a
    /// cancellation (or another shed path) already won — the caller must
    /// not ledger the shed.
    pub(crate) fn try_shed(&self, reason: ShedReason) -> bool {
        // AcqRel/Acquire: same protocol as try_labeled — Release
        // publishes the shed resolution, Acquire orders the loser after
        // the winner before the caller skips ledgering.
        if self
            .state
            .compare_exchange(PENDING, RESOLVED, Ordering::AcqRel, Ordering::Acquire)
            .is_err()
        {
            return false;
        }
        self.obs_resolved();
        self.queue.deliver(Completion::Shed {
            ticket: self.id,
            class: self.class,
            reason,
        });
        true
    }

    /// Client-side cancellation: `PENDING → RESOLVED`, recording the
    /// cancellation in the server ledger and delivering
    /// [`Completion::Cancelled`] on success.
    ///
    /// The CAS runs under the ledger lock so the win and its ledger entry
    /// are one atomic step to every ledger reader: without this, a worker
    /// could observe the tombstone (and count nothing), the server could
    /// join its workers and fold the report, and only then would the
    /// preempted canceller write its ledger entry — a transient
    /// conservation violation in the report.
    pub(crate) fn try_cancel(&self) -> bool {
        let mut ledger = self.ledger.lock().expect("cancel ledger");
        // AcqRel: Release publishes the cancellation (and its ledger
        // entry, made atomic by the lock held around us) to Acquire
        // readers; Acquire orders us after a claim/labeling that won.
        // Acquire on failure: we must see the winner's state before
        // reporting the cancel as lost.
        if self
            .state
            .compare_exchange(PENDING, RESOLVED, Ordering::AcqRel, Ordering::Acquire)
            .is_err()
        {
            return false;
        }
        // Settle *inside* the ledger-lock region: a reader that takes this
        // lock after us (shutdown folding the report before its final ring
        // drain) is then guaranteed every ledgered cancellation already
        // has its event in a ring, so the event stream can never
        // under-count what the ledger shows.
        self.obs_resolved();
        // With obs off nothing emits the event: its request id is moot.
        let req_id = self.obs.as_ref().map_or(0, |(req_id, _)| *req_id);
        let ev = Event::new(EventKind::Cancelled, req_id, self.id, NO_SHARD, self.class);
        ledger.settle(ev, self.value, |ev| {
            if let Some((_, obs)) = &self.obs {
                obs.emit(ev);
            }
        });
        drop(ledger);
        self.queue.deliver(Completion::Cancelled {
            ticket: self.id,
            class: self.class,
        });
        true
    }

    /// Retract a ticket whose submission was refused synchronously (queue
    /// closed, or full under the reject policy): resolve without an event
    /// and release the window slot. The caller saw `Rejected` and knows no
    /// event is coming.
    pub(crate) fn retract(&self) {
        // Release: the slot was never shared with a worker (submission
        // was refused synchronously), so no CAS race exists; Release
        // still publishes the tombstone to any is_resolved reader.
        self.state.store(RESOLVED, Ordering::Release);
        self.obs_resolved();
        self.queue.retract();
    }
}

/// A cancellable handle to one submitted request, tied to exactly one
/// terminal [`Completion`] event on the issuing client's queue.
#[derive(Debug, Clone)]
pub struct Ticket {
    slot: Arc<CompletionSlot>,
}

impl Ticket {
    pub(crate) fn new(slot: Arc<CompletionSlot>) -> Self {
        Self { slot }
    }

    pub(crate) fn slot(&self) -> &Arc<CompletionSlot> {
        &self.slot
    }

    /// The ticket id — the key every [`Completion`] event carries.
    pub fn id(&self) -> u64 {
        self.slot.id
    }

    /// The SLO class the request was submitted under.
    pub fn class(&self) -> usize {
        self.slot.class
    }

    /// Cancel the request. Returns `true` when this call won the race and
    /// the terminal event will be [`Completion::Cancelled`]; `false` when
    /// the request already resolved (labeled, shed, or cancelled earlier)
    /// or a worker has claimed it for execution — its original terminal
    /// event stands. Either way exactly one event per ticket is delivered.
    pub fn cancel(&self) -> bool {
        self.slot.try_cancel()
    }

    /// Whether the ticket has reached its terminal state (its event is
    /// delivered or in the client queue). A claimed, still-executing
    /// request reads `false`.
    pub fn is_resolved(&self) -> bool {
        self.slot.is_resolved()
    }
}

#[derive(Debug, Default)]
struct CqState {
    events: VecDeque<Completion>,
    /// Tickets issued whose events the client has not yet consumed:
    /// pending/claimed requests plus queued events. The submit-side window
    /// bound — queued events can never exceed it.
    outstanding: usize,
}

/// The bounded per-client completion queue: an mpsc channel in the vendored
/// style of this repo (mutex + condvars, no dependencies). Producers are
/// the shard workers, overflow eviction, admission control, and
/// cancellation; the consumer is the client. See the module docs for why
/// pushes never block while the ticket window does.
#[derive(Debug)]
pub struct CompletionQueue {
    state: Mutex<CqState>,
    not_empty: Condvar,
    not_full: Condvar,
    capacity: usize,
}

impl CompletionQueue {
    pub(crate) fn new(capacity: usize) -> Self {
        Self {
            state: Mutex::new(CqState::default()),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    /// The configured window capacity.
    pub(crate) fn capacity(&self) -> usize {
        self.capacity
    }

    /// Claim one window slot for a new ticket, blocking while `capacity`
    /// tickets are already outstanding.
    pub(crate) fn issue(&self) {
        let mut st = self.state.lock().expect("completion queue");
        while st.outstanding >= self.capacity {
            st = self.not_full.wait(st).expect("completion queue");
        }
        st.outstanding += 1;
    }

    /// Release a window slot without an event (refused submission).
    fn retract(&self) {
        let mut st = self.state.lock().expect("completion queue");
        st.outstanding = st.outstanding.saturating_sub(1);
        drop(st);
        self.not_full.notify_one();
    }

    /// Enqueue one terminal event. Never blocks: the window bound
    /// guarantees `events.len() < capacity` here.
    fn deliver(&self, event: Completion) {
        let mut st = self.state.lock().expect("completion queue");
        debug_assert!(st.events.len() < self.capacity, "window bound violated");
        st.events.push_back(event);
        drop(st);
        self.not_empty.notify_one();
    }

    /// Tickets issued whose events have not been consumed yet.
    pub(crate) fn outstanding(&self) -> usize {
        self.state.lock().expect("completion queue").outstanding
    }

    /// Blocking receive: the next terminal event, or `None` when no ticket
    /// is outstanding (nothing will ever arrive — returning instead of
    /// deadlocking).
    pub(crate) fn recv(&self) -> Option<Completion> {
        let mut st = self.state.lock().expect("completion queue");
        while st.events.is_empty() {
            if st.outstanding == 0 {
                return None;
            }
            st = self.not_empty.wait(st).expect("completion queue");
        }
        let ev = st.events.pop_front();
        st.outstanding = st.outstanding.saturating_sub(1);
        drop(st);
        self.not_full.notify_one();
        ev
    }

    /// Receive with a timeout: wait up to `timeout` for the next event,
    /// returning `None` on timeout. Unlike [`CompletionQueue::recv`] this
    /// keeps waiting while nothing is outstanding — the caller (the TCP
    /// front-end's per-connection writer, which outlives idle gaps
    /// between submission bursts) distinguishes "idle" from "done" by
    /// other means.
    pub(crate) fn recv_timeout(&self, timeout: Duration) -> Option<Completion> {
        let mut st = self.state.lock().expect("completion queue");
        if st.events.is_empty() {
            let (guard, _timed_out) = self
                .not_empty
                .wait_timeout(st, timeout)
                .expect("completion queue");
            st = guard;
        }
        let ev = st.events.pop_front()?;
        st.outstanding = st.outstanding.saturating_sub(1);
        drop(st);
        self.not_full.notify_one();
        Some(ev)
    }

    /// Non-blocking receive: the next event if one is already queued.
    pub(crate) fn try_recv(&self) -> Option<Completion> {
        let mut st = self.state.lock().expect("completion queue");
        let ev = st.events.pop_front()?;
        st.outstanding = st.outstanding.saturating_sub(1);
        drop(st);
        self.not_full.notify_one();
        Some(ev)
    }

    /// Drain every currently queued event without blocking.
    pub(crate) fn drain(&self) -> Vec<Completion> {
        let mut st = self.state.lock().expect("completion queue");
        let events: Vec<Completion> = st.events.drain(..).collect();
        st.outstanding = st.outstanding.saturating_sub(events.len());
        drop(st);
        self.not_full.notify_all();
        events
    }
}
