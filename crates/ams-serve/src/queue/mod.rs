//! Bounded per-shard admission queues with selectable backpressure.
//!
//! Each shard owns one [`ShardQueue`]: a mutex around the queue's pure
//! decision core (`ams_sim::shard::QueueCore` — admission, eviction and
//! batch assembly as functions of *(state, now_us)*) plus two condvars
//! (producers wait on `not_full` under the [`BackpressurePolicy::Block`]
//! policy, workers wait on `not_empty`). The shell takes the lock, reads
//! the clock once per lock hold, asks the core, and settles what it
//! decided (event, then ledger entry) before letting the lock go. The
//! queue is the *only* synchronization point between producers and a
//! shard's workers, and it is held only for push/pop bookkeeping — never
//! across labeling work.
//!
//! Queued requests carry their ticket's [`CompletionSlot`], so every
//! in-queue loss path — overflow eviction, the incoming-doomed shed, and
//! drain-abort — notifies its victim's client directly instead of only
//! ledgering the loss. A request cancelled while queued becomes a
//! *tombstone* (its slot already resolved); tombstones are purged for free
//! when the queue needs a slot and skipped by the workers otherwise.

use crate::cache::PendingEntry;
use crate::completion::{CompletionSlot, ShedReason};
use crate::ledger::Ledger;
use crate::obs::{Event, EventKind, ServerObs, NO_SHARD, NO_TICKET};
use crate::telemetry::micros;
use ams_data::ItemTruth;
pub use ams_sim::shard::BackpressurePolicy;
pub(crate) use ams_sim::shard::Load;
use ams_sim::shard::{Header, Offer, QueueCore, Queued};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

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
    /// Refused: the queue was full ([`BackpressurePolicy::Reject`]) or the
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
    /// Relative deadline budget from `enqueued_us`, µs (`None` =
    /// unbounded). A request whose queue age reaches this is shed at
    /// dequeue instead of executed.
    pub deadline_us: Option<u64>,
    /// When the request took its queue slot, µs after its shard queue's
    /// epoch (0 until then): the queue-wait clock starts here.
    pub enqueued_us: u64,
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
            enqueued_us: 0,
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

    /// Remaining deadline budget at `now_us` µs after the queue's epoch
    /// (`None` = unbounded; `Some(0)` = already expired).
    pub fn remaining_us(&self, now_us: u64) -> Option<u64> {
        self.header().remaining_us(now_us)
    }

    /// Whether the deadline budget is exhausted at `now_us`.
    pub fn expired(&self, now_us: u64) -> bool {
        self.remaining_us(now_us) == Some(0)
    }
}

impl Queued for Request {
    fn header(&self) -> Header {
        Header {
            signature: self.signature,
            value: self.value,
            deadline_us: self.deadline_us,
            enqueued_us: self.enqueued_us,
        }
    }

    fn stamp(&mut self, enqueued_us: u64) {
        self.enqueued_us = enqueued_us;
    }

    /// Cancelled (or otherwise resolved) while still queued. A cancelled
    /// request still *leading* a coalescing entry is **not** a tombstone:
    /// followers wait on it, so it must reach a worker (which either
    /// executes it for them or abandons the entry).
    fn is_tombstone(&self) -> bool {
        self.completion.as_ref().is_some_and(|s| s.is_resolved()) && self.cache.is_none()
    }
}

/// What the queue lock guards: the decisions, and the queue's share of
/// the conservation ledger — requests that took a slot (`Enqueued`) and
/// requests evicted or turned away on overflow (`ShedOverflow`) — so an
/// entry lands under the lock hold that decided it.
#[derive(Debug)]
struct Locked {
    core: QueueCore<Request>,
    ledger: Ledger,
}

/// A bounded MPMC queue for one shard: the lock, the two condvars and the
/// clock around the decision core (`ams_sim::shard::QueueCore`), whose
/// µs run from this queue's epoch.
#[derive(Debug)]
pub struct ShardQueue {
    state: Mutex<Locked>,
    not_empty: Condvar,
    not_full: Condvar,
    /// The core's capacity, readable without the lock.
    capacity: usize,
    /// The shard's service-time EWMAs, µs ([`Load::amortized_us`],
    /// [`Load::exec_span_us`]), published by its workers at each batch
    /// start ([`ShardQueue::publish_batch`]; 0 = no evidence yet).
    amortized_us: AtomicU64,
    exec_span_us: AtomicU64,
    /// When each of the shard's workers' pool plans ends, µs after
    /// `epoch` ([`ShardQueue::set_pool_end`]; 0 = nothing planned). The
    /// shortest of them is the pool wait still ahead of a request popped
    /// now.
    pool_ends_us: Box<[AtomicU64]>,
    /// The instant every µs of the queue and its workers counts from:
    /// stamps, deadlines, pool ends.
    epoch: Instant,
    /// Observability sink (`shard index`, pipeline handle): the queue
    /// emits a settlement's lifecycle event at the exact point its ledger
    /// counts it, so event totals reconcile with the report's buckets.
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
        let capacity = capacity.max(1);
        let core = QueueCore::new(capacity, policy, value_weighted, edf);
        let ledger = Ledger::default();
        Self {
            capacity,
            state: Mutex::new(Locked { core, ledger }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            amortized_us: AtomicU64::new(0),
            exec_span_us: AtomicU64::new(0),
            pool_ends_us: Box::new([AtomicU64::new(0)]),
            epoch: Instant::now(),
            obs: None,
        }
    }

    /// Attach the observability pipeline when it is on (and this queue's
    /// shard index) so the queue's settlements emit lifecycle events.
    pub(crate) fn with_obs(mut self, shard: u32, obs: Option<Arc<ServerObs>>) -> Self {
        self.obs = obs.map(|obs| (shard, obs));
        self
    }

    /// One pool-end slot per worker sharing the queue (min 1).
    pub(crate) fn with_workers(mut self, workers: usize) -> Self {
        self.pool_ends_us = (0..workers.max(1)).map(|_| AtomicU64::new(0)).collect();
        self
    }

    /// Settle `req` as `kind` (`Enqueued` or `ShedOverflow`) under the
    /// queue lock `ledger` came from — so no worker can stamp a queued
    /// request's `Batched` event before its `Enqueued`.
    fn settle(&self, ledger: &mut Ledger, kind: EventKind, req: &Request) {
        let shard = self.obs.as_ref().map_or(NO_SHARD, |(shard, _)| *shard);
        ledger.settle(req.event(kind, shard), req.value, |ev| {
            if let Some((_, obs)) = &self.obs {
                obs.emit(ev);
            }
        });
    }

    /// A worker's batch started after `busy_us` of busy time on the
    /// previous batch of `len` requests: fold that span and its amortized
    /// per-request time into the published EWMAs (¾ old + ¼ new — smooth
    /// enough that one outlier batch doesn't whipsaw admission, fresh
    /// enough to track load shifts). Racy read-modify-write is fine: any
    /// interleaving stores a plausible smoothed value.
    pub(crate) fn publish_batch(&self, busy_us: u64, len: usize) {
        let ewma = |signal: &AtomicU64, obs: u64| {
            let old = signal.load(Ordering::Relaxed);
            let next = (if old == 0 { obs } else { (old * 3 + obs) / 4 }).max(1);
            signal.store(next, Ordering::Relaxed);
        };
        ewma(&self.exec_span_us, busy_us);
        ewma(&self.amortized_us, busy_us / len.max(1) as u64);
    }

    /// Publish when the pool of the queue's `worker`-th worker (of those
    /// sharing it) ends the work it has planned, µs after the epoch (0:
    /// nothing planned). Published at each batch admission and priced as
    /// [`Load::pool_wait_us`].
    pub(crate) fn set_pool_end(&self, worker: usize, end_us: u64) {
        if let Some(slot) = self.pool_ends_us.get(worker) {
            slot.store(end_us, Ordering::Relaxed);
        }
    }

    /// `at` as µs after the queue's epoch: the one clock of the queue's
    /// decisions and of its workers.
    pub(crate) fn us_since_epoch(&self, at: Instant) -> u64 {
        micros(at.saturating_duration_since(self.epoch))
    }

    /// The shard's wait at `now_us`, each published signal read once. The
    /// pool wait is the time left until the *soonest* published pool end
    /// — the worker that frees first takes the next batch: 0 when any
    /// pool has drained, or none ever published (every pool at
    /// `exec_emulation_scale` 0).
    pub(crate) fn load(&self, now_us: u64) -> Load {
        let ends = self.pool_ends_us.iter().map(|e| e.load(Ordering::Relaxed));
        Load {
            amortized_us: self.amortized_us.load(Ordering::Relaxed),
            exec_span_us: self.exec_span_us.load(Ordering::Relaxed),
            pool_wait_us: ends.min().unwrap_or(0).saturating_sub(now_us),
            workers: self.pool_ends_us.len(),
        }
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Requests currently queued.
    pub fn len(&self) -> usize {
        self.state.lock().expect("shard queue").core.len()
    }

    /// Whether the queue is currently empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Requests currently queued that still want service — cancellation
    /// tombstones excluded (they will be dropped, not served, so they
    /// represent no drain work).
    pub fn live_len(&self) -> usize {
        self.state.lock().expect("shard queue").core.live_len()
    }

    /// The queue's estimated drain wait, µs: *live* depth × the published
    /// per-request drain time (0 while the workers have published no
    /// evidence). The deadline-aware spill router prices shards with this
    /// instead of raw depth; pricing with the physical length would spill
    /// deadline traffic away from a shard whose queue is full of
    /// already-cancelled tombstones. The price never reads the pool wait,
    /// so the load is read at the epoch: no clock read.
    pub fn estimated_wait_us(&self) -> u64 {
        self.load(0).queue_wait_us(self.live_len())
    }

    /// The queue's ledger so far: what it enqueued and what it shed on
    /// overflow, by SLO class.
    pub(crate) fn ledger(&self) -> Ledger {
        self.state.lock().expect("shard queue").ledger.clone()
    }

    /// One consistent admission snapshot — `(depth, ahead)` — under a
    /// single lock acquisition: the queued requests that still want
    /// service, and the subset an EDF dequeue would serve *ahead of* a
    /// request due `due_us` after the queue's epoch. Tombstones count toward neither —
    /// pricing them would shed fresh requests against dead backlog.
    /// Admission control prices an EDF queue with `ahead` (an urgent
    /// request doesn't wait behind lax work it will overtake) and checks
    /// fullness against `depth` from the *same* snapshot.
    pub fn queued_ahead(&self, due_us: u64) -> (usize, usize) {
        let st = self.state.lock().expect("shard queue");
        st.core.snapshot(due_us)
    }

    /// Submit one request under the queue's backpressure policy. The
    /// request's `enqueued_us` is stamped when it actually takes a slot
    /// (after any [`BackpressurePolicy::Block`] wait), so the queue-wait
    /// clock never charges producer-side blocking.
    pub fn push(&self, mut req: Request) -> SubmitOutcome {
        let mut st = self.state.lock().expect("shard queue");
        loop {
            // The one clock read of this lock hold: every decision below
            // and the `enqueued_us` stamp see the same instant. A `Block`
            // wait gives the lock up, so the next round reads it afresh.
            let now_us = self.us_since_epoch(Instant::now());
            let Locked { core, ledger } = &mut *st;
            match core.offer(req, now_us, self.load(now_us)) {
                Offer::Enqueued { evicted } => {
                    // An evicted coalescing leader takes its followers with
                    // it, each shed through its own slot CAS. This runs for
                    // an already-cancelled victim too: eviction removes the
                    // entry's only path to a worker, so its followers must
                    // not wait forever. A victim whose own CAS is lost to a
                    // cancellation already had its event: a free purge.
                    let evicted = evicted.filter(|victim| {
                        victim.fail_cache(ShedReason::Overflow);
                        victim.resolve_or_own(|slot| slot.try_shed(ShedReason::Overflow))
                    });
                    if let Some(victim) = &evicted {
                        self.settle(ledger, EventKind::ShedOverflow, victim);
                    }
                    let queued = core.newest().expect("offer just queued it");
                    self.settle(ledger, EventKind::Enqueued, queued);
                    drop(st);
                    self.not_empty.notify_one();
                    return match evicted {
                        None => SubmitOutcome::Enqueued(()),
                        Some(_) => SubmitOutcome::EnqueuedShedOldest(()),
                    };
                }
                Offer::ShedIncoming(req) => {
                    self.settle(ledger, EventKind::ShedOverflow, &req);
                    // The incoming request may already lead a coalescing
                    // entry (the lookup ran before admission): shed its
                    // followers with it.
                    req.fail_cache(ShedReason::Overflow);
                    if let Some(slot) = req.completion() {
                        slot.try_shed(ShedReason::Overflow);
                    }
                    // No slot was freed and nothing was queued: waiting
                    // workers and producers are unaffected.
                    return SubmitOutcome::ShedIncoming(());
                }
                Offer::Full(back) => {
                    req = back;
                    st = self.not_full.wait(st).expect("shard queue");
                }
                Offer::Refused => return SubmitOutcome::Rejected,
            }
        }
    }

    /// Pop up to `max_batch` requests, blocking while the queue is open
    /// and empty. Returns an empty vec only when the queue is closed *and*
    /// drained — the worker's signal to exit. It takes what is there
    /// without waiting for more: coalescing is opportunistic, so an idle
    /// server stays low-latency.
    ///
    /// The batch is assembled *signature-first* around the head request
    /// (the oldest, or the most urgent under EDF): its signature group,
    /// then the best-overlap rest. The head is always served, so no request
    /// starves; a request can be overtaken only while batches ahead of it
    /// keep finding better-matching work.
    pub fn pop_batch(&self, max_batch: usize) -> Vec<Request> {
        loop {
            if let Some(batch) = self.pop_or_wait(max_batch, None) {
                return batch;
            }
        }
    }

    /// Pop up to `max` requests without waiting (none: the queue is closed
    /// and drained). An open, empty queue is waited on instead, until work
    /// arrives or `until_us` µs after the epoch (`None`: for as long as it
    /// takes; an instant already past: not at all), and `None` comes back:
    /// the caller reads its clock again.
    pub(crate) fn pop_or_wait(&self, max: usize, until_us: Option<u64>) -> Option<Vec<Request>> {
        let mut st = self.state.lock().expect("shard queue");
        if st.core.is_idle() {
            // No deadline waits some 584 000 years: until work arrives.
            let now_us = self.us_since_epoch(Instant::now());
            let left = until_us.map_or(u64::MAX, |us| us.saturating_sub(now_us));
            if left > 0 {
                let left = Duration::from_micros(left);
                drop(self.not_empty.wait_timeout(st, left).expect("shard queue"));
            }
            return None;
        }
        let batch = st.core.take(max);
        drop(st);
        if !batch.is_empty() {
            // Freed up to `max` slots; wake blocked producers.
            self.not_full.notify_all();
        }
        Some(batch)
    }

    /// Close the queue: subsequent pushes are rejected, blocked producers
    /// wake and see the rejection, and workers drain what remains.
    pub fn close(&self) {
        self.state.lock().expect("shard queue").core.close();
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }

    /// Close the queue *and discard its backlog*: the abort path
    /// ([`AmsServer`](crate::AmsServer) dropped without `shutdown`).
    /// Returns the discarded requests so the caller can resolve their
    /// completion slots with `Shed(Drain)`; workers see a closed, empty
    /// queue and exit promptly.
    pub fn abort(&self) -> Vec<Request> {
        let discarded = self.state.lock().expect("shard queue").core.abort();
        self.not_empty.notify_all();
        self.not_full.notify_all();
        discarded
    }
}

#[cfg(test)]
mod tests;
