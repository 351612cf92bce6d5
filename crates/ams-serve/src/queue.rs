//! Bounded per-shard admission queues with selectable backpressure.
//!
//! Each shard owns one [`ShardQueue`]: a mutex-guarded ring of pending
//! requests plus two condvars (producers wait on `not_full` under the
//! [`BackpressurePolicy::Block`] policy, workers wait on `not_empty`).
//! The queue is the *only* synchronization point between producers and a
//! shard's workers, and it is held only for O(1) push/pop bookkeeping —
//! never across labeling work.
//!
//! Queued requests carry their ticket's [`CompletionSlot`], so every
//! in-queue loss path — overflow eviction, the incoming-doomed shed, and
//! drain-abort — notifies its victim's client directly instead of only
//! ledgering the loss. A request cancelled while queued becomes a
//! *tombstone* (its slot already resolved); tombstones are purged for free
//! when the queue needs a slot and skipped by the workers otherwise.
//!
//! With per-class **admission reservations** configured
//! ([`ShardQueue::with_reservations`]), each SLO class is guaranteed its
//! reserved share of the queue's slots: a burst of one class cannot occupy
//! the slots another class has in reserve, and overflow eviction never
//! picks a victim from a class that is at or under its reservation (other
//! than the incoming request's own class).

use crate::cache::PendingEntry;
use crate::completion::{CompletionSlot, ShedReason};
use crate::ledger::Ledger;
use crate::obs::{Event, EventKind, ServerObs, NO_TICKET};
use crate::telemetry::micros;
use ams_data::ItemTruth;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

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

/// Outcome of one submission, carrying the issued [`Ticket`](crate::Ticket)
/// when submitted through a [`Client`](crate::Client) (`T = Ticket`), or
/// nothing at the bare [`ShardQueue::push`] boundary (`T = ()`).
///
/// Every variant except [`SubmitOutcome::Rejected`] issued a ticket whose
/// terminal [`Completion`](crate::Completion) event will arrive on the
/// client's queue — for the shed variants it is already there. `Rejected`
/// carries no ticket and produces no event: the refusal itself is the
/// synchronous answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitOutcome<T = ()> {
    /// Queued; a worker will label it (or deadline-shed it at dequeue).
    Enqueued(T),
    /// Queued, at the cost of shedding a queued request
    /// ([`BackpressurePolicy::ShedOldest`] on a full queue: the head under
    /// blind shedding, the worst value-per-remaining-deadline victim
    /// under value-weighted shedding). The victim's own ticket receives
    /// the `Shed(Overflow)` event.
    EnqueuedShedOldest(T),
    /// Not queued: the queue was full and, under value-weighted shedding,
    /// the submission itself was already *doomed* (expired, or budget
    /// below the queue's drain wait) and scored strictly worst — evicting
    /// viable queued work to admit a request that would only be
    /// deadline-shed at dequeue loses a completion for nothing. Accounted
    /// in the overflow-shed ledger, exactly like an evicted request; the
    /// ticket resolves to `Shed(Overflow)` immediately.
    ShedIncoming(T),
    /// Shed at admission, before occupying a queue slot: the shard's
    /// predicted queue wait already exceeded the request's deadline, so
    /// queueing it could only convert capacity into a deadline shed. The
    /// ticket resolves to `Shed(Admission)` immediately.
    ShedAdmission(T),
    /// Answered from the content-addressed label cache before admission:
    /// the ticket's `Labeled` event (the cached labels, zero bill) is
    /// already on the client's queue. Never routed, queued, or executed.
    Cached(T),
    /// Coalesced onto an identical already-queued or in-flight request:
    /// the ticket's terminal event arrives when that leader resolves (its
    /// labels fan out) or fails (the followers are shed with it).
    Coalesced(T),
    /// Refused: the queue was full ([`BackpressurePolicy::Reject`]), the
    /// class's admission reservation was exhausted under `Reject`, or the
    /// server is shutting down. No ticket, no event.
    Rejected,
}

impl<T> SubmitOutcome<T> {
    /// Whether the submission took a queue slot (a worker will reach it).
    pub fn is_accepted(&self) -> bool {
        matches!(
            self,
            SubmitOutcome::Enqueued(_) | SubmitOutcome::EnqueuedShedOldest(_)
        )
    }

    /// Whether the submission was refused synchronously (no ticket).
    pub fn is_rejected(&self) -> bool {
        matches!(self, SubmitOutcome::Rejected)
    }

    /// The issued ticket (for every variant except `Rejected`).
    pub fn ticket(self) -> Option<T> {
        match self {
            SubmitOutcome::Enqueued(t)
            | SubmitOutcome::EnqueuedShedOldest(t)
            | SubmitOutcome::ShedIncoming(t)
            | SubmitOutcome::ShedAdmission(t)
            | SubmitOutcome::Cached(t)
            | SubmitOutcome::Coalesced(t) => Some(t),
            SubmitOutcome::Rejected => None,
        }
    }

    /// The issued ticket, by reference.
    pub fn as_ticket(&self) -> Option<&T> {
        match self {
            SubmitOutcome::Enqueued(t)
            | SubmitOutcome::EnqueuedShedOldest(t)
            | SubmitOutcome::ShedIncoming(t)
            | SubmitOutcome::ShedAdmission(t)
            | SubmitOutcome::Cached(t)
            | SubmitOutcome::Coalesced(t) => Some(t),
            SubmitOutcome::Rejected => None,
        }
    }

    /// Map the carried ticket, keeping the outcome shape.
    pub fn map<U>(self, f: impl FnOnce(T) -> U) -> SubmitOutcome<U> {
        match self {
            SubmitOutcome::Enqueued(t) => SubmitOutcome::Enqueued(f(t)),
            SubmitOutcome::EnqueuedShedOldest(t) => SubmitOutcome::EnqueuedShedOldest(f(t)),
            SubmitOutcome::ShedIncoming(t) => SubmitOutcome::ShedIncoming(f(t)),
            SubmitOutcome::ShedAdmission(t) => SubmitOutcome::ShedAdmission(f(t)),
            SubmitOutcome::Cached(t) => SubmitOutcome::Cached(f(t)),
            SubmitOutcome::Coalesced(t) => SubmitOutcome::Coalesced(f(t)),
            SubmitOutcome::Rejected => SubmitOutcome::Rejected,
        }
    }
}

/// One labeling request as it sits in a shard queue.
#[derive(Debug, Clone)]
pub struct Request {
    /// The pre-executed ground-truth item to label.
    pub item: Arc<ItemTruth>,
    /// The item's affinity signature (0 under hash routing). Workers use
    /// it to assemble signature-pure batches from a mixed queue.
    pub signature: u64,
    /// SLO class index (0 when no SLO classes are configured).
    pub class: usize,
    /// Predicted label value, weighted by the SLO class (the scheduler's
    /// cheap affinity-value scan × the class weight; 1.0 without SLO
    /// classes). Value-weighted shedding evicts the worst
    /// value-per-remaining-deadline first.
    pub value: f64,
    /// Relative deadline budget from `enqueued_at`, µs (`None` =
    /// unbounded). A request whose queue age reaches this is shed at
    /// dequeue instead of executed.
    pub deadline_us: Option<u64>,
    /// When the request entered the queue (queue-wait clock starts here).
    pub enqueued_at: Instant,
    /// The submitting client's completion slot (always set by the server;
    /// `None` only for a ticketless request pushed into a bare queue).
    completion: Option<Arc<CompletionSlot>>,
    /// The label-cache coalescing entry this request leads (`None` when
    /// the cache is off or the fingerprint was already in flight). Every
    /// loss path fails it (shedding its followers); the labeling path
    /// resolves it (fanning the result out).
    cache: Option<Arc<PendingEntry>>,
    /// Observability correlation id (the server's `offered` sequence
    /// number; `u64::MAX` when the request never passed through a
    /// server's submission path).
    pub(crate) req_id: u64,
}

impl Request {
    /// A request with no SLO attached: class 0, unit value, no deadline.
    pub fn new(item: Arc<ItemTruth>, signature: u64) -> Self {
        Self {
            item,
            signature,
            class: 0,
            value: 1.0,
            deadline_us: None,
            enqueued_at: Instant::now(),
            completion: None,
            cache: None,
            req_id: u64::MAX,
        }
    }

    /// Attach the observability correlation id events are keyed by.
    pub(crate) fn with_req_id(mut self, req_id: u64) -> Self {
        self.req_id = req_id;
        self
    }

    /// Attach an SLO class: index, weighted value, and deadline budget.
    pub fn with_slo(mut self, class: usize, value: f64, deadline_us: Option<u64>) -> Self {
        self.class = class;
        self.value = value;
        self.deadline_us = deadline_us;
        self
    }

    /// Attach the submitting client's completion slot: every loss path and
    /// the labeling path will resolve it with the request's terminal event.
    pub(crate) fn with_completion(mut self, slot: Arc<CompletionSlot>) -> Self {
        self.completion = Some(slot);
        self
    }

    /// The attached completion slot, if the request was submitted through
    /// a client.
    pub(crate) fn completion(&self) -> Option<&Arc<CompletionSlot>> {
        self.completion.as_ref()
    }

    /// A lifecycle event of `kind` about this request on `shard`, carrying
    /// its ticket id ([`NO_TICKET`] for a ticketless request).
    pub(crate) fn event(&self, kind: EventKind, shard: u32) -> Event {
        let ticket = self.completion.as_ref().map_or(NO_TICKET, |s| s.id());
        Event::new(kind, self.req_id, ticket, shard, self.class)
    }

    /// Resolve the request's completion slot with `resolve` (a shed or a
    /// claim) and report whether the caller now owns the request's
    /// outcome — lost only when a cancellation resolved the slot first. A
    /// ticketless request has no one to race, so the caller always owns it.
    pub(crate) fn resolve_or_own(&self, resolve: impl FnOnce(&CompletionSlot) -> bool) -> bool {
        self.completion.as_deref().is_none_or(resolve)
    }

    /// Attach the coalescing entry this request leads: followers of the
    /// same fingerprint wait on it for the leader's result.
    pub(crate) fn with_cache(mut self, entry: Arc<PendingEntry>) -> Self {
        self.cache = Some(entry);
        self
    }

    /// The coalescing entry this request leads, if any.
    pub(crate) fn cache_entry(&self) -> Option<&Arc<PendingEntry>> {
        self.cache.as_ref()
    }

    /// Fail the request's coalescing entry (no-op without one): its
    /// followers are shed with `reason` and the next lookup of the
    /// fingerprint starts a fresh leader. Idempotent.
    pub(crate) fn fail_cache(&self, reason: ShedReason) {
        if let Some(entry) = &self.cache {
            entry.fail(reason);
        }
    }

    /// Whether the request was cancelled (or otherwise resolved) while
    /// still queued — a dead entry the queue can drop for free. A
    /// cancelled request still *leading* a coalescing entry is **not** a
    /// tombstone: followers wait on it, so it must reach a worker (which
    /// either executes it for them or abandons the entry).
    fn is_tombstone(&self) -> bool {
        self.completion.as_ref().is_some_and(|s| s.is_resolved()) && self.cache.is_none()
    }

    /// Remaining deadline budget at `now`, µs (`None` = unbounded;
    /// `Some(0)` = already expired).
    pub fn remaining_us(&self, now: Instant) -> Option<u64> {
        self.deadline_us
            .map(|d| d.saturating_sub(micros(now.saturating_duration_since(self.enqueued_at))))
    }

    /// Whether the deadline budget is exhausted at `now`.
    pub fn expired(&self, now: Instant) -> bool {
        self.remaining_us(now) == Some(0)
    }

    /// Absolute deadline instant (`None` = unbounded), the EDF sort key.
    fn deadline_at(&self) -> Option<Instant> {
        self.deadline_us
            .map(|d| self.enqueued_at + Duration::from_micros(d))
    }
}

#[derive(Debug, Default)]
struct QueueState {
    pending: VecDeque<Request>,
    closed: bool,
    /// The queue's share of the conservation ledger: the requests
    /// [`BackpressurePolicy::ShedOldest`] evicted (or turned away as the
    /// overflow victim), by SLO class.
    ledger: Ledger,
    /// Queued requests per SLO class (index = class) — the admission
    /// reservations' accounting.
    class_counts: Vec<usize>,
}

impl QueueState {
    fn class_count(&self, class: usize) -> usize {
        self.class_counts.get(class).copied().unwrap_or(0)
    }

    fn inc_class(&mut self, class: usize) {
        if self.class_counts.len() <= class {
            self.class_counts.resize(class + 1, 0);
        }
        self.class_counts[class] += 1;
    }

    fn dec_class(&mut self, class: usize) {
        if let Some(n) = self.class_counts.get_mut(class) {
            *n = n.saturating_sub(1);
        }
    }

    /// Drop every cancellation tombstone, returning how many slots were
    /// freed. Their terminal events were already delivered at cancel time,
    /// so nothing is ledgered.
    fn purge_tombstones(&mut self) -> usize {
        let before = self.pending.len();
        let mut kept = VecDeque::with_capacity(before);
        for req in self.pending.drain(..) {
            if req.is_tombstone() {
                continue;
            }
            kept.push_back(req);
        }
        let freed = before - kept.len();
        if freed > 0 {
            self.class_counts.clear();
            for req in &kept {
                let class = req.class;
                if self.class_counts.len() <= class {
                    self.class_counts.resize(class + 1, 0);
                }
                self.class_counts[class] += 1;
            }
        }
        self.pending = kept;
        freed
    }
}

/// What one eviction attempt decided (see [`ShardQueue::push`]).
enum Eviction {
    /// A queued victim was shed; the incoming request may take its slot.
    Evicted,
    /// The incoming request itself was the shed.
    ShedIncoming,
    /// The chosen victim turned out to be a cancellation tombstone (its
    /// slot resolved between selection and shedding); it was dropped for
    /// free — retry admission.
    Retry,
}

/// A bounded MPMC queue for one shard.
#[derive(Debug)]
pub struct ShardQueue {
    state: Mutex<QueueState>,
    not_empty: Condvar,
    not_full: Condvar,
    capacity: usize,
    policy: BackpressurePolicy,
    /// Overflow eviction picks the worst value-per-remaining-deadline
    /// victim instead of the head.
    value_weighted: bool,
    /// Dequeue picks the earliest-deadline head (EDF) instead of the
    /// oldest, so urgent work leads batch assembly.
    edf: bool,
    /// Per-class reserved queue slots (index = class; empty = no
    /// reservations). A class is always admitted while it holds fewer
    /// slots than its reservation, and the shared pool excludes the slots
    /// other classes still have in reserve.
    reservations: Vec<usize>,
    /// Per-request drain time of this queue, µs (amortized service time ÷
    /// workers), published by the shard's workers
    /// ([`ShardQueue::set_service_hint_us`]; 0 = unknown). Value-weighted
    /// eviction uses it to recognize *doomed* requests — remaining budget
    /// below the typical wait still ahead of them — and evict those
    /// first: they will be deadline-shed at dequeue anyway, so their slot
    /// is free.
    service_hint_us: AtomicU64,
    /// Observability sink (`shard index`, pipeline handle): overflow
    /// sheds emit their lifecycle event at the exact point the ledger
    /// counts them, so event totals reconcile with the report's bucket.
    obs: Option<(u32, Arc<ServerObs>)>,
}

impl ShardQueue {
    /// Queue holding at most `capacity` pending requests (min 1), with
    /// blind (head-first) overflow eviction and FIFO dequeue.
    pub fn new(capacity: usize, policy: BackpressurePolicy) -> Self {
        Self::with_slo(capacity, policy, false, false)
    }

    /// [`ShardQueue::new`] with the SLO-aware behaviors selectable:
    /// `value_weighted` overflow eviction and `edf` (earliest-deadline
    /// head) dequeue.
    pub fn with_slo(
        capacity: usize,
        policy: BackpressurePolicy,
        value_weighted: bool,
        edf: bool,
    ) -> Self {
        Self {
            state: Mutex::new(QueueState::default()),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            capacity: capacity.max(1),
            policy,
            value_weighted,
            edf,
            reservations: Vec::new(),
            service_hint_us: AtomicU64::new(0),
            obs: None,
        }
    }

    /// Attach the observability pipeline when it is on (and this queue's
    /// shard index) so overflow evictions emit lifecycle events.
    pub(crate) fn with_obs(mut self, shard: u32, obs: Option<Arc<ServerObs>>) -> Self {
        self.obs = obs.map(|obs| (shard, obs));
        self
    }

    /// Settle `req` as an overflow shed: its terminal event and its ledger
    /// entry, both under the queue lock `st` came from.
    fn shed_overflow(&self, st: &mut QueueState, req: &Request) {
        if let Some((shard, obs)) = &self.obs {
            obs.emit(req.event(EventKind::ShedOverflow, *shard));
        }
        st.ledger
            .row(req.class)
            .bump(EventKind::ShedOverflow, req.value);
    }

    /// Attach per-class admission reservations: `reservations[class]`
    /// queue slots are guaranteed to the class (clamped so the sum never
    /// exceeds the capacity — earlier classes keep their full reserve).
    /// A burst of another class can fill the *shared* slots but never the
    /// reserved ones, so no class is starved of admission.
    pub fn with_reservations(mut self, mut reservations: Vec<usize>) -> Self {
        let mut budget = self.capacity;
        for r in &mut reservations {
            *r = (*r).min(budget);
            budget -= *r;
        }
        self.reservations = reservations;
        self
    }

    /// Publish the queue's observed per-request *drain* time (µs): the
    /// workers' amortized service time divided by how many workers share
    /// this queue. Purely advisory: it sharpens the value-weighted
    /// eviction's notion of a doomed request, feeds the router's
    /// estimated-wait spill pricing, and 0 (never published) degrades
    /// gracefully to pure value-per-remaining-deadline / load-only
    /// behavior.
    pub fn set_service_hint_us(&self, us: u64) {
        self.service_hint_us.store(us, Ordering::Relaxed);
    }

    /// The currently published per-request drain hint (µs; 0 = unknown).
    /// One of the two [`ShardQueue::estimated_wait_us`] inputs, exported
    /// as a registry gauge so the wait the spill router prices is
    /// observable rather than inferred.
    pub fn service_hint_us(&self) -> u64 {
        self.service_hint_us.load(Ordering::Relaxed)
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Requests currently queued.
    pub fn len(&self) -> usize {
        self.state.lock().expect("shard queue").pending.len()
    }

    /// Whether the queue is currently empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Requests currently queued that still want service — cancellation
    /// tombstones excluded (they will be dropped, not served, so they
    /// represent no drain work).
    pub fn live_len(&self) -> usize {
        self.state
            .lock()
            .expect("shard queue")
            .pending
            .iter()
            .filter(|r| !r.is_tombstone())
            .count()
    }

    /// The queue's estimated drain wait, µs: *live* depth × the published
    /// per-request drain time (0 while the workers have published no
    /// evidence). The deadline-aware spill router prices shards with this
    /// instead of raw depth; pricing with the physical length would spill
    /// deadline traffic away from a shard whose queue is full of
    /// already-cancelled tombstones.
    pub fn estimated_wait_us(&self) -> u64 {
        (self.live_len() as u64).saturating_mul(self.service_hint_us.load(Ordering::Relaxed))
    }

    /// The queue's ledger so far: its overflow sheds, by SLO class.
    pub(crate) fn ledger(&self) -> Ledger {
        self.state.lock().expect("shard queue").ledger.clone()
    }

    /// One consistent admission snapshot — `(depth, ahead)` — under a
    /// single lock acquisition: the queued requests that still want
    /// service, and the subset whose absolute deadline falls before
    /// `deadline_at` (the work an EDF dequeue would serve *ahead of* a
    /// request with that deadline; deadline-less requests sort last under
    /// EDF and are never counted). Cancellation tombstones count toward
    /// neither number — they will be dropped, not served, so they are no
    /// drain work and no real occupancy (a push purges them before
    /// applying backpressure): pricing them would shed fresh requests
    /// against dead backlog. Admission control prices an EDF queue with
    /// `ahead` instead of the depth — an urgent request doesn't wait
    /// behind lax work it will overtake — and checks fullness against
    /// `depth` from the *same* snapshot, so the decision is internally
    /// consistent.
    pub fn queued_ahead(&self, deadline_at: Instant) -> (usize, usize) {
        let st = self.state.lock().expect("shard queue");
        let mut depth = 0usize;
        let mut ahead = 0usize;
        for r in &st.pending {
            if r.is_tombstone() {
                continue;
            }
            depth += 1;
            if r.deadline_at().is_some_and(|d| d < deadline_at) {
                ahead += 1;
            }
        }
        (depth, ahead)
    }

    /// Whether `class` may take a slot right now: the queue has room and
    /// the class either sits under its own reservation or the shared pool
    /// (capacity minus the slots other classes still hold in reserve) has
    /// space.
    fn admittable(&self, st: &QueueState, class: usize) -> bool {
        if st.pending.len() >= self.capacity {
            return false;
        }
        if self.reservations.is_empty() {
            return true;
        }
        if st.class_count(class) < self.reservations.get(class).copied().unwrap_or(0) {
            return true;
        }
        let held: usize = self
            .reservations
            .iter()
            .enumerate()
            .filter(|&(k, _)| k != class)
            .map(|(k, &r)| r.saturating_sub(st.class_count(k)))
            .sum();
        st.pending.len() + held < self.capacity
    }

    /// Whether a queued request of `victim_class` may be evicted to admit
    /// a request of `incoming_class`: its class must be strictly over its
    /// reservation (eviction never dips a class below its guaranteed
    /// share), except that the incoming class may always cannibalize its
    /// own queue.
    fn evictable(&self, st: &QueueState, victim_class: usize, incoming_class: usize) -> bool {
        if self.reservations.is_empty() || victim_class == incoming_class {
            return true;
        }
        st.class_count(victim_class) > self.reservations.get(victim_class).copied().unwrap_or(0)
    }

    /// Eviction sort key for one request, smallest shed first:
    ///
    /// * tier 0 — *doomed* (remaining budget at or below `doom_wait_us`,
    ///   the typical wait still ahead of it: it will be deadline-shed at
    ///   dequeue anyway, so shedding it costs nothing), keyed by raw
    ///   value so the cheapest doomed request goes first;
    /// * tier 1 — viable, keyed by **value-per-remaining-deadline**: low
    ///   value and far-off deadlines both lower the score, so the queue
    ///   keeps the work worth the most per unit of urgency — the
    ///   economics of value-maximizing labeling under a time budget.
    ///
    /// A request without a deadline competes as infinitely lax: it is
    /// never doomed, but any similarly valued request actually racing a
    /// clock outranks it.
    fn victim_key(r: &Request, now: Instant, doom_wait_us: u64) -> (u8, f64) {
        match r.remaining_us(now) {
            Some(remaining) if remaining <= doom_wait_us => (0, r.value),
            Some(remaining) => (1, r.value / remaining.max(1) as f64),
            None => (1, r.value / u64::MAX as f64),
        }
    }

    /// The evictable queued request with the smallest [`victim_key`] — the
    /// overflow victim under value-weighted shedding — plus its key and
    /// the doom horizon used (half the queue depth × the published
    /// per-request drain time), so the caller can score the incoming
    /// request against the same yardstick without re-deriving it.
    ///
    /// [`victim_key`]: ShardQueue::victim_key
    fn pick_victim(
        &self,
        st: &QueueState,
        incoming_class: usize,
        now: Instant,
    ) -> Option<(usize, (u8, f64), u64)> {
        let hint = self.service_hint_us.load(Ordering::Relaxed);
        let doom_wait_us = hint.saturating_mul(st.pending.len() as u64 / 2);
        let mut victim: Option<(usize, (u8, f64))> = None;
        for (i, r) in st.pending.iter().enumerate() {
            if !self.evictable(st, r.class, incoming_class) {
                continue;
            }
            let key = Self::victim_key(r, now, doom_wait_us);
            if victim.map(|(_, worst)| key < worst).unwrap_or(true) {
                victim = Some((i, key));
            }
        }
        victim.map(|(i, key)| (i, key, doom_wait_us))
    }

    /// One overflow-eviction attempt under ShedOldest (queue full for the
    /// incoming request's class). Resolves the victim's completion slot
    /// with `Shed(Overflow)`; a victim that turned out to be a
    /// cancellation tombstone is dropped without ledgering and the caller
    /// retries.
    fn evict_for(&self, st: &mut QueueState, req: &Request, now: Instant) -> Eviction {
        let picked = if self.value_weighted {
            // A *doomed* incoming request (tier 0: expired, or budget
            // already below the queue's drain wait) that also scores
            // worse than every evictable queued request is itself the
            // shed — evicting viable queued work to admit a request that
            // will only be deadline-shed at dequeue loses a completion
            // for nothing. A viable newcomer always gets its slot: value
            // density naturally reads lower on a fresh full budget than
            // on aged queued work, and shedding fresh-but-lax traffic on
            // that alone would invert the freshest-first instinct that
            // makes overflow eviction work.
            match self.pick_victim(st, req.class, now) {
                Some((victim, victim_key, doom_wait_us)) => {
                    let incoming_key = Self::victim_key(req, now, doom_wait_us);
                    if incoming_key.0 == 0 && incoming_key < victim_key {
                        return Eviction::ShedIncoming;
                    }
                    Some(victim)
                }
                None => None,
            }
        } else {
            // Blind: the oldest (front-most) evictable request.
            (0..st.pending.len()).find(|&i| self.evictable(st, st.pending[i].class, req.class))
        };
        let Some(victim) = picked else {
            // Every queued request is protected by a reservation the
            // incoming class may not touch: the newcomer is the shed.
            return Eviction::ShedIncoming;
        };
        let shed = st.pending.remove(victim).expect("victim index in range");
        st.dec_class(shed.class);
        // An evicted coalescing leader takes its followers with it: each
        // is shed with `Overflow` through its own slot CAS. This runs for
        // the already-cancelled victim too — eviction removes the entry's
        // only path to a worker, so its followers must not wait forever.
        shed.fail_cache(ShedReason::Overflow);
        if shed.resolve_or_own(|slot| slot.try_shed(ShedReason::Overflow)) {
            self.shed_overflow(st, &shed);
            Eviction::Evicted
        } else {
            // Cancelled between selection and shedding: its event was
            // already delivered, so this was a free purge, not a shed.
            Eviction::Retry
        }
    }

    /// Submit one request under the queue's backpressure policy. The
    /// request's `enqueued_at` is stamped when it actually takes a slot
    /// (after any [`BackpressurePolicy::Block`] wait), so the queue-wait
    /// clock never charges producer-side blocking.
    pub fn push(&self, mut req: Request) -> SubmitOutcome {
        let mut st = self.state.lock().expect("shard queue");
        let mut outcome = SubmitOutcome::Enqueued(());
        let mut evicted = false;
        while !self.admittable(&st, req.class) {
            if st.closed {
                return SubmitOutcome::Rejected;
            }
            // Cancellation tombstones are free slots; drop them first.
            if st.purge_tombstones() > 0 {
                continue;
            }
            match self.policy {
                BackpressurePolicy::Block => {
                    st = self.not_full.wait(st).expect("shard queue");
                }
                BackpressurePolicy::Reject => return SubmitOutcome::Rejected,
                BackpressurePolicy::ShedOldest => {
                    match self.evict_for(&mut st, &req, Instant::now()) {
                        Eviction::Evicted => {
                            evicted = true;
                            outcome = SubmitOutcome::EnqueuedShedOldest(());
                        }
                        Eviction::ShedIncoming => {
                            self.shed_overflow(&mut st, &req);
                            // The incoming request may already lead a
                            // coalescing entry (the lookup ran before
                            // admission): shed its followers with it.
                            req.fail_cache(ShedReason::Overflow);
                            if let Some(slot) = req.completion() {
                                slot.try_shed(ShedReason::Overflow);
                            }
                            // No slot was freed and nothing was queued:
                            // waiting workers and producers are
                            // unaffected.
                            return SubmitOutcome::ShedIncoming(());
                        }
                        Eviction::Retry => {}
                    }
                }
            }
        }
        if st.closed {
            return SubmitOutcome::Rejected;
        }
        req.enqueued_at = Instant::now();
        st.inc_class(req.class);
        st.pending.push_back(req);
        drop(st);
        self.not_empty.notify_one();
        if evicted {
            // The class mix changed: a producer blocked on a reservation
            // may be admittable now even though the depth is unchanged.
            self.not_full.notify_all();
        }
        outcome
    }

    /// Pop up to `max_batch` requests, blocking while the queue is open
    /// and empty. Returns an empty vec only when the queue is closed *and*
    /// drained — the worker's signal to exit. Equivalent to
    /// [`ShardQueue::pop_batch_lingering`] with a zero linger: coalescing
    /// is opportunistic, so an idle server stays low-latency.
    ///
    /// The batch is assembled *signature-first*: the head request (always
    /// served — no starvation) sets the batch's signature, every queued
    /// request sharing it joins next (their model sets overlap most, so
    /// they coalesce best), and the batch is then topped up with the
    /// remaining requests in decreasing signature *overlap* with the head
    /// (shared fingerprint bits = shared models = shared setup charges),
    /// age breaking ties. Under hash routing every signature is 0, which
    /// degenerates to the plain FIFO drain. The head is always served, so
    /// no request starves; a request can be overtaken only while batches
    /// ahead of it keep finding better-matching work.
    pub fn pop_batch(&self, max_batch: usize) -> Vec<Request> {
        self.pop_batch_lingering(max_batch, Duration::ZERO)
    }

    /// [`ShardQueue::pop_batch`] with a *batching linger*: once the first
    /// request is available, wait up to `linger` for the batch to fill
    /// before taking it (the classic serving trade — a bounded latency
    /// deposit buys a fuller, better-amortized batch on a lightly loaded
    /// shard). A closed queue never lingers: drain stays prompt.
    ///
    /// The linger is additionally capped by **half the tightest remaining
    /// deadline budget** among the queued requests (cancellation
    /// tombstones excluded — a dead entry must not cap a live batch): an
    /// uncapped linger longer than a request's deadline would hold a
    /// perfectly dequeued-able batch until its members expire, converting
    /// completable work into deadline sheds. Half, not all, of the budget
    /// is spent lingering so the batch still has the other half to
    /// actually execute in. The cap is recomputed on every wakeup, so a
    /// tight-deadline request that arrives *mid-linger* shortens the
    /// remaining wait instead of being held past its whole budget.
    pub fn pop_batch_lingering(&self, max_batch: usize, linger: Duration) -> Vec<Request> {
        let max_batch = max_batch.max(1);
        let mut st = self.state.lock().expect("shard queue");
        while st.pending.is_empty() && !st.closed {
            st = self.not_empty.wait(st).expect("shard queue");
        }
        if !linger.is_zero() && !st.closed && st.pending.len() < max_batch {
            // The effective pop deadline is kept *monotone non-increasing*
            // across wakeups: each iteration may only pull it earlier (a
            // tight-deadline arrival shortens the wait), never later.
            // Recomputing `now + remaining/2` from scratch each wakeup
            // would drift *later* as the tightest request ages (it
            // resolves to enqueue + budget/2 + age/2), letting a trickle
            // of wakeups stretch the linger across the whole budget.
            let mut until = Instant::now() + linger;
            while st.pending.len() < max_batch && !st.closed {
                let now = Instant::now();
                if let Some(tightest) = st
                    .pending
                    .iter()
                    .filter(|r| !r.is_tombstone())
                    .filter_map(|r| r.remaining_us(now))
                    .min()
                {
                    until = until.min(now + Duration::from_micros(tightest / 2));
                }
                let Some(remaining) = until.checked_duration_since(now) else {
                    break;
                };
                if remaining.is_zero() {
                    break;
                }
                let (guard, timeout) = self
                    .not_empty
                    .wait_timeout(st, remaining)
                    .expect("shard queue");
                st = guard;
                if timeout.timed_out() {
                    // `until` only ever moves earlier, so a timeout at it
                    // is final.
                    break;
                }
            }
        }
        let take = st.pending.len().min(max_batch);
        let mut batch: Vec<Request> = Vec::with_capacity(take);
        if take > 0 {
            // Head selection: oldest (FIFO, no starvation) — or, under EDF
            // dequeue, the earliest absolute deadline, so the most urgent
            // request leads batch assembly and signature coalescing groups
            // around *it*. Deadline-less requests sort strictly last
            // (leading bool, not a far-future sentinel that a long enough
            // real deadline could overtake); ties fall back to queue
            // order.
            let anchor = Instant::now();
            let edf_key = |r: &Request| {
                let d = r.deadline_at();
                (d.is_none(), d.unwrap_or(anchor))
            };
            let head_idx = if self.edf {
                (0..st.pending.len())
                    .min_by_key(|&i| (edf_key(&st.pending[i]), i))
                    .expect("take > 0")
            } else {
                0
            };
            let head_sig = st.pending[head_idx].signature;
            // Batch-member indices in batch order: same-signature first,
            // then the best-overlap rest — each group in queue order, or
            // in deadline order under EDF (so EDF and coalescing compose:
            // the urgent head still gets a signature-pure batch, and
            // within that batch the clock-racing members go first).
            let mut order: Vec<usize> = (0..st.pending.len())
                .filter(|&i| st.pending[i].signature == head_sig)
                .collect();
            if self.edf {
                order.sort_by_key(|&i| (edf_key(&st.pending[i]), i));
            }
            order.truncate(take);
            if order.len() < take {
                // Fill by similarity: most shared fingerprint bits first,
                // oldest (or most urgent, under EDF) among equals.
                let mut rest: Vec<(u32, usize)> = st
                    .pending
                    .iter()
                    .enumerate()
                    .filter(|(_, req)| req.signature != head_sig)
                    .map(|(i, req)| ((req.signature & head_sig).count_ones(), i))
                    .collect();
                if self.edf {
                    rest.sort_by(|a, b| {
                        b.0.cmp(&a.0).then(
                            (edf_key(&st.pending[a.1]), a.1).cmp(&(edf_key(&st.pending[b.1]), b.1)),
                        )
                    });
                } else {
                    rest.sort_unstable_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
                }
                for (_, i) in rest {
                    order.push(i);
                    if order.len() == take {
                        break;
                    }
                }
            }
            // Remove highest-index-first so earlier indices stay valid,
            // then emit in batch order.
            let mut desc = order.clone();
            desc.sort_unstable_by(|a, b| b.cmp(a));
            let mut tagged: Vec<(usize, Request)> = Vec::with_capacity(take);
            for i in desc {
                let req = st.pending.remove(i).expect("picked index in range");
                st.dec_class(req.class);
                tagged.push((i, req));
            }
            for want in order {
                let pos = tagged
                    .iter()
                    .position(|&(i, _)| i == want)
                    .expect("every picked index was removed");
                batch.push(tagged.swap_remove(pos).1);
            }
        }
        drop(st);
        if !batch.is_empty() {
            // Freed up to `take` slots; wake blocked producers.
            self.not_full.notify_all();
        }
        batch
    }

    /// Close the queue: subsequent pushes are rejected, blocked producers
    /// wake and see the rejection, and workers drain what remains.
    pub fn close(&self) {
        let mut st = self.state.lock().expect("shard queue");
        st.closed = true;
        drop(st);
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }

    /// Close the queue *and discard its backlog*: the abort path
    /// ([`AmsServer`](crate::AmsServer) dropped without `shutdown`).
    /// Returns the discarded requests so the caller can resolve their
    /// completion slots with `Shed(Drain)`; workers see a closed, empty
    /// queue and exit promptly.
    pub fn abort(&self) -> Vec<Request> {
        let mut st = self.state.lock().expect("shard queue");
        st.closed = true;
        let discarded: Vec<Request> = st.pending.drain(..).collect();
        st.class_counts.clear();
        drop(st);
        self.not_empty.notify_all();
        self.not_full.notify_all();
        discarded
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ams_data::{Dataset, DatasetProfile, TruthTable};
    use ams_models::ModelZoo;

    fn item() -> Arc<ItemTruth> {
        let zoo = ModelZoo::standard();
        let ds = Dataset::generate(DatasetProfile::Coco2017, 1, 5);
        let truth = TruthTable::build(&zoo, &zoo.catalog(), &ds, 0.5);
        Arc::new(truth.item(0).clone())
    }

    fn req(it: &Arc<ItemTruth>, sig: u64) -> Request {
        Request::new(Arc::clone(it), sig)
    }

    /// The queue's `ShedOverflow` bucket as `(count, value)` per class.
    fn overflow_sheds(q: &ShardQueue) -> Vec<(u64, f64)> {
        let kind = EventKind::ShedOverflow;
        let ledger = q.ledger();
        let rows = ledger.rows().iter();
        rows.map(|t| (t.count(kind), t.value(kind))).collect()
    }

    #[test]
    fn reject_policy_refuses_when_full() {
        let q = ShardQueue::new(2, BackpressurePolicy::Reject);
        let it = item();
        assert_eq!(q.push(req(&it, 0)), SubmitOutcome::Enqueued(()));
        assert_eq!(q.push(req(&it, 0)), SubmitOutcome::Enqueued(()));
        assert_eq!(q.push(req(&it, 0)), SubmitOutcome::Rejected);
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn shed_oldest_drops_head_and_admits() {
        let q = ShardQueue::new(2, BackpressurePolicy::ShedOldest);
        let it = item();
        q.push(req(&it, 0));
        q.push(req(&it, 0));
        assert_eq!(q.push(req(&it, 0)), SubmitOutcome::EnqueuedShedOldest(()));
        assert_eq!(q.len(), 2, "still at capacity");
        assert_eq!(overflow_sheds(&q), [(1, 1.0)], "unit default value");
    }

    #[test]
    fn block_policy_waits_for_a_slot() {
        let q = Arc::new(ShardQueue::new(1, BackpressurePolicy::Block));
        let it = item();
        q.push(req(&it, 0));
        let q2 = Arc::clone(&q);
        let r2 = req(&it, 0);
        let producer = std::thread::spawn(move || q2.push(r2));
        // Give the producer time to block, then free the slot.
        std::thread::sleep(std::time::Duration::from_millis(20));
        let drained = q.pop_batch(1);
        assert_eq!(drained.len(), 1);
        assert_eq!(
            producer.join().expect("producer"),
            SubmitOutcome::Enqueued(())
        );
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn pop_batch_coalesces_up_to_max() {
        let q = ShardQueue::new(16, BackpressurePolicy::Block);
        let it = item();
        for _ in 0..5 {
            q.push(req(&it, 0));
        }
        assert_eq!(q.pop_batch(3).len(), 3);
        assert_eq!(q.pop_batch(3).len(), 2, "takes what's there, no waiting");
    }

    #[test]
    fn pop_batch_groups_head_signature_first_then_tops_up() {
        let q = ShardQueue::new(16, BackpressurePolicy::Block);
        let it = item();
        // Interleaved signatures: A B A B A
        for sig in [7u64, 9, 7, 9, 7] {
            q.push(req(&it, sig));
        }
        let batch = q.pop_batch(4);
        assert_eq!(batch.len(), 4, "fills from the rest after the sig group");
        let sigs: Vec<u64> = batch.iter().map(|r| r.signature).collect();
        // All three sig-7 requests (the head's signature) come first, then
        // the oldest sig-9 tops the batch up.
        assert_eq!(sigs, vec![7, 7, 7, 9]);
        // The remaining request is the younger sig-9.
        let rest = q.pop_batch(4);
        assert_eq!(rest.len(), 1);
        assert_eq!(rest[0].signature, 9);
    }

    #[test]
    fn close_drains_then_signals_exit() {
        let q = ShardQueue::new(8, BackpressurePolicy::Block);
        let it = item();
        q.push(req(&it, 0));
        q.close();
        assert_eq!(q.push(req(&it, 0)), SubmitOutcome::Rejected);
        assert_eq!(q.pop_batch(8).len(), 1, "remaining work drains");
        assert!(q.pop_batch(8).is_empty(), "then workers see the close");
    }

    #[test]
    fn abort_discards_the_backlog_and_closes() {
        let q = ShardQueue::new(8, BackpressurePolicy::Block);
        let it = item();
        q.push(req(&it, 0));
        q.push(req(&it, 0));
        let discarded = q.abort();
        assert_eq!(discarded.len(), 2, "backlog handed back for Drain sheds");
        assert!(q.pop_batch(8).is_empty(), "workers see closed + empty");
        assert_eq!(q.push(req(&it, 0)), SubmitOutcome::Rejected);
    }

    #[test]
    fn value_weighted_eviction_drops_worst_value_density() {
        let q = ShardQueue::with_slo(3, BackpressurePolicy::ShedOldest, true, false);
        let it = item();
        // Three queued: generous deadlines, values 5 / 0.5 / 3. The blind
        // policy would evict the head (value 5); value-weighted must evict
        // the value-0.5 request — worst value-per-remaining-deadline.
        q.push(req(&it, 0).with_slo(0, 5.0, Some(1_000_000)));
        q.push(req(&it, 0).with_slo(1, 0.5, Some(1_000_000)));
        q.push(req(&it, 0).with_slo(0, 3.0, Some(1_000_000)));
        assert_eq!(
            q.push(req(&it, 0).with_slo(0, 2.0, Some(1_000_000))),
            SubmitOutcome::EnqueuedShedOldest(())
        );
        assert_eq!(
            overflow_sheds(&q),
            [(0, 0.0), (1, 0.5)],
            "class-1 victim recorded"
        );
        let values: Vec<f64> = q.pop_batch(4).iter().map(|r| r.value).collect();
        assert_eq!(values, vec![5.0, 3.0, 2.0], "high-value work survived");
    }

    #[test]
    fn value_weighted_eviction_prefers_an_expired_request() {
        let q = ShardQueue::with_slo(2, BackpressurePolicy::ShedOldest, true, false);
        let it = item();
        // The high-value request is already expired (zero budget) — it
        // would be deadline-shed at dequeue anyway, so evicting it loses
        // nothing even though its value density would otherwise keep it.
        q.push(req(&it, 0).with_slo(0, 100.0, Some(0)));
        q.push(req(&it, 0).with_slo(0, 1.0, Some(1_000_000)));
        assert_eq!(
            q.push(req(&it, 0).with_slo(0, 1.0, Some(1_000_000))),
            SubmitOutcome::EnqueuedShedOldest(())
        );
        let survivors = q.pop_batch(4);
        assert_eq!(survivors.len(), 2);
        assert!(
            survivors.iter().all(|r| r.value == 1.0),
            "the expired 100-value request was the victim"
        );
    }

    #[test]
    fn edf_pop_serves_earliest_deadline_first_within_signature_groups() {
        let q = ShardQueue::with_slo(16, BackpressurePolicy::Block, false, true);
        let it = item();
        // Two signature groups; deadlines deliberately out of queue order.
        // Group 7 holds the tightest deadline overall, so it leads.
        q.push(req(&it, 9).with_slo(0, 1.0, Some(500_000)));
        q.push(req(&it, 7).with_slo(0, 1.0, Some(400_000)));
        q.push(req(&it, 9).with_slo(0, 1.0, Some(100_000)));
        q.push(req(&it, 7).with_slo(0, 1.0, Some(50_000)));
        let batch = q.pop_batch(3);
        let got: Vec<(u64, Option<u64>)> =
            batch.iter().map(|r| (r.signature, r.deadline_us)).collect();
        // Head = tightest deadline (sig 7, 50ms); its signature group
        // joins in deadline order; the most urgent sig-9 tops up.
        assert_eq!(
            got,
            vec![(7, Some(50_000)), (7, Some(400_000)), (9, Some(100_000))]
        );
    }

    /// Regression (linger > deadline): a lingering worker used to hold a
    /// dequeued-able request past its whole deadline budget, guaranteeing
    /// a deadline shed. The linger is now capped by half the tightest
    /// remaining budget, so the request comes back with time to execute.
    #[test]
    fn linger_is_capped_by_the_head_requests_remaining_deadline() {
        let q = ShardQueue::new(16, BackpressurePolicy::Block);
        let it = item();
        // 60 ms budget, 2 s linger: uncapped, the pop would sit out the
        // full 2 s (queue never fills) and return an expired request.
        q.push(req(&it, 0).with_slo(0, 1.0, Some(60_000)));
        let t0 = Instant::now();
        let batch = q.pop_batch_lingering(8, Duration::from_secs(2));
        let waited = t0.elapsed();
        assert_eq!(batch.len(), 1);
        assert!(
            waited < Duration::from_millis(60),
            "linger must stop within half the 60ms budget, waited {waited:?}"
        );
        assert!(
            !batch[0].expired(Instant::now()),
            "the request comes back dequeued-able, not doomed"
        );
    }

    /// Regression: the linger cap used to be computed once at linger
    /// start, so a tight-deadline request arriving *mid-linger* was held
    /// for the full (already uncapped) linger and doomed. The cap is now
    /// recomputed on every wakeup.
    #[test]
    fn request_arriving_mid_linger_tightens_the_cap() {
        let q = Arc::new(ShardQueue::new(16, BackpressurePolicy::Block));
        let it = item();
        // A deadline-less request starts the linger with no cap at all.
        q.push(req(&it, 0));
        let q2 = Arc::clone(&q);
        let it2 = Arc::clone(&it);
        let pusher = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            // 60 ms budget lands mid-linger: the worker must wake, adopt
            // the new cap, and return well before the 2 s linger.
            q2.push(req(&it2, 0).with_slo(0, 1.0, Some(60_000)));
        });
        let t0 = Instant::now();
        let batch = q.pop_batch_lingering(8, Duration::from_secs(2));
        let waited = t0.elapsed();
        pusher.join().expect("pusher");
        assert_eq!(batch.len(), 2);
        assert!(
            waited < Duration::from_millis(200),
            "cap must tighten mid-linger, waited {waited:?}"
        );
        assert!(!batch[1].expired(Instant::now()), "still completable");
    }

    /// Value-weighted overflow considers the *incoming* request too: a
    /// newcomer that scores strictly worst (here: already expired) is
    /// itself shed instead of evicting viable queued work.
    #[test]
    fn worthless_incoming_request_is_shed_instead_of_viable_queued_work() {
        let q = ShardQueue::with_slo(2, BackpressurePolicy::ShedOldest, true, false);
        let it = item();
        q.push(req(&it, 0).with_slo(0, 5.0, Some(1_000_000)));
        q.push(req(&it, 0).with_slo(0, 3.0, Some(1_000_000)));
        // Expired on arrival: admitting it could only convert a viable
        // queued request into a shed.
        assert_eq!(
            q.push(req(&it, 0).with_slo(1, 9.0, Some(0))),
            SubmitOutcome::ShedIncoming(())
        );
        assert_eq!(
            overflow_sheds(&q),
            [(0, 0.0), (1, 9.0)],
            "the class-1 newcomer was the shed"
        );
        let values: Vec<f64> = q.pop_batch(4).iter().map(|r| r.value).collect();
        assert_eq!(values, vec![5.0, 3.0], "queued work untouched");
    }

    /// Regression: recomputing the cap as `now + remaining/2` from
    /// scratch on every wakeup drifts *later* as the tightest request
    /// ages, so a trickle of deadline-less arrivals (each waking the
    /// lingering worker without filling the batch) could stretch the
    /// linger across the whole budget. The effective deadline must be
    /// monotone non-increasing across wakeups.
    #[test]
    fn trickle_of_wakeups_cannot_stretch_the_linger_cap() {
        let q = Arc::new(ShardQueue::new(64, BackpressurePolicy::Block));
        let it = item();
        // 80 ms budget: the cap fixes the pop at ~40 ms after this push.
        q.push(req(&it, 0).with_slo(0, 1.0, Some(80_000)));
        let q2 = Arc::clone(&q);
        let it2 = Arc::clone(&it);
        let trickler = std::thread::spawn(move || {
            // Wake the lingering worker every ~10 ms without ever
            // filling the 32-wide batch.
            for _ in 0..12 {
                std::thread::sleep(Duration::from_millis(10));
                q2.push(Request::new(Arc::clone(&it2), 0));
            }
        });
        let t0 = Instant::now();
        let batch = q.pop_batch_lingering(32, Duration::from_secs(2));
        let waited = t0.elapsed();
        assert!(!batch.is_empty());
        assert!(
            waited < Duration::from_millis(70),
            "wakeups must not extend the 40ms cap toward the full 80ms \
             budget, waited {waited:?}"
        );
        trickler.join().expect("trickler");
    }

    #[test]
    fn deadline_less_requests_never_cap_the_linger() {
        let q = ShardQueue::new(16, BackpressurePolicy::Block);
        let it = item();
        q.push(req(&it, 0));
        let t0 = Instant::now();
        let batch = q.pop_batch_lingering(8, Duration::from_millis(40));
        assert_eq!(batch.len(), 1);
        assert!(
            t0.elapsed() >= Duration::from_millis(35),
            "without deadlines the full linger is spent"
        );
    }

    /// Admission reservations: a flood of class 0 can fill the shared
    /// slots but never the slots class 1 holds in reserve, so class 1 is
    /// still admitted at the flood's peak — and eviction never dips
    /// class 1 below its guaranteed share.
    #[test]
    fn reservations_protect_a_class_from_a_foreign_flood() {
        // Capacity 4, class 1 reserves 2 slots.
        for policy in [BackpressurePolicy::Reject, BackpressurePolicy::ShedOldest] {
            let q = ShardQueue::with_slo(4, policy, false, false).with_reservations(vec![0, 2]);
            let it = item();
            // Class-0 flood: only the 2 shared slots admit.
            let mut admitted0 = 0;
            for _ in 0..6 {
                if q.push(req(&it, 0).with_slo(0, 1.0, None)).is_accepted() {
                    admitted0 += 1;
                }
            }
            // Under ShedOldest the flood churns the shared slots among
            // itself (evicting its own class), never the reserve.
            assert_eq!(q.len(), 2, "{policy:?}: only the shared slots fill");
            // Class 1 still gets its reserved slots.
            assert!(q.push(req(&it, 0).with_slo(1, 1.0, None)).is_accepted());
            assert!(q.push(req(&it, 0).with_slo(1, 1.0, None)).is_accepted());
            assert_eq!(q.len(), 4);
            match policy {
                BackpressurePolicy::Reject => assert_eq!(admitted0, 2),
                _ => assert!(admitted0 >= 2),
            }
            // A further class-0 push may not evict class 1's reserve.
            let outcome = q.push(req(&it, 0).with_slo(0, 1.0, None));
            let batch = q.pop_batch(8);
            let class1 = batch.iter().filter(|r| r.class == 1).count();
            assert_eq!(class1, 2, "{policy:?}: the reserve survived {outcome:?}");
        }
    }

    /// With every queued request protected by a foreign reservation, a
    /// ShedOldest newcomer with no reserve of its own is itself the shed.
    #[test]
    fn newcomer_is_shed_when_every_slot_is_reserved_by_others() {
        let q = ShardQueue::with_slo(2, BackpressurePolicy::ShedOldest, false, false)
            .with_reservations(vec![0, 2]);
        let it = item();
        assert!(q.push(req(&it, 0).with_slo(1, 1.0, None)).is_accepted());
        assert!(q.push(req(&it, 0).with_slo(1, 1.0, None)).is_accepted());
        assert_eq!(
            q.push(req(&it, 0).with_slo(0, 1.0, None)),
            SubmitOutcome::ShedIncoming(())
        );
        assert_eq!(
            overflow_sheds(&q),
            [(1, 1.0)],
            "the class-0 newcomer was the shed"
        );
        assert_eq!(q.pop_batch(4).len(), 2, "class-1 work untouched");
    }

    /// Regression: cancellation tombstones must not inflate the admission
    /// snapshot or the router's wait estimate — a queue full of cancelled
    /// entries is no drain work, and pricing it as backlog would shed or
    /// spill fresh requests against dead weight.
    #[test]
    fn tombstones_are_excluded_from_admission_pricing() {
        use crate::completion::{CancelLedger, CompletionQueue, CompletionSlot, Ticket};
        let q = ShardQueue::new(4, BackpressurePolicy::Block);
        let it = item();
        let cq = Arc::new(CompletionQueue::new(8));
        let ledger = Arc::new(CancelLedger::default());
        let mut tickets = Vec::new();
        for id in 0..3u64 {
            cq.issue();
            let slot = Arc::new(CompletionSlot::new(
                id,
                0,
                1.0,
                Arc::clone(&cq),
                Arc::clone(&ledger),
            ));
            tickets.push(Ticket::new(Arc::clone(&slot)));
            q.push(
                req(&it, 0)
                    .with_slo(0, 1.0, Some(50_000))
                    .with_completion(slot),
            );
        }
        q.set_service_hint_us(400_000);
        let now = Instant::now();
        assert_eq!(q.queued_ahead(now + Duration::from_secs(10)), (3, 3));
        assert!(q.estimated_wait_us() >= 1_200_000);
        for t in &tickets {
            assert!(t.cancel());
        }
        // All three entries are tombstones now: physically queued, but no
        // drain work and no admission occupancy.
        assert_eq!(q.len(), 3, "tombstones still occupy until purged");
        assert_eq!(q.live_len(), 0);
        assert_eq!(q.queued_ahead(now + Duration::from_secs(10)), (0, 0));
        assert_eq!(q.estimated_wait_us(), 0);
        let cancelled = ledger.lock().expect("cancel ledger").total();
        assert_eq!(
            cancelled.count(EventKind::Cancelled),
            3,
            "cancels recorded atomically"
        );
    }

    /// Reservation sums beyond the capacity are clamped, earlier classes
    /// first — the queue never promises slots it does not have.
    #[test]
    fn oversubscribed_reservations_are_clamped() {
        let q = ShardQueue::with_slo(3, BackpressurePolicy::Reject, false, false)
            .with_reservations(vec![2, 4]);
        let it = item();
        // Class 1's reserve clamps to 1 (3 - 2); class 0 keeps 2.
        for _ in 0..2 {
            assert!(q.push(req(&it, 0).with_slo(0, 1.0, None)).is_accepted());
        }
        assert!(q.push(req(&it, 0).with_slo(1, 1.0, None)).is_accepted());
        assert_eq!(q.push(req(&it, 0).with_slo(1, 1.0, None)), {
            SubmitOutcome::Rejected
        });
    }
}
