//! The submit surface: [`Client`], its per-ticket [`SubmitOptions`], and
//! the one admission path every request takes — resolve class and
//! deadline, issue the ticket, probe the cache, route, price admission,
//! push.

use super::Shared;
use crate::cache::{CachedResult, Follower, LabelCache, Lookup};
use crate::completion::{
    CancelLedger, Completion, CompletionQueue, CompletionSlot, LabelResult, ShedReason, Ticket,
};
use crate::ledger::Ledger;
use crate::obs::{Event, EventKind, NO_SHARD};
use crate::queue::{Request, SubmitOutcome};
use ams_data::ItemTruth;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};

/// A request/response handle onto an [`AmsServer`](super::AmsServer): submissions issue
/// cancellable [`Ticket`]s, and every ticket's single terminal
/// [`Completion`] event arrives on this client's own bounded completion
/// queue.
///
/// ```
/// use ams_core::framework::{AdaptiveModelScheduler, Budget};
/// use ams_core::predictor::OraclePredictor;
/// use ams_data::{Dataset, DatasetProfile, TruthTable};
/// use ams_models::ModelZoo;
/// use ams_serve::{AmsServer, Completion, ServeConfig};
/// use std::sync::Arc;
///
/// let zoo = ModelZoo::standard();
/// let ds = Dataset::generate(DatasetProfile::Coco2017, 4, 42);
/// let truth = TruthTable::build(&zoo, &zoo.catalog(), &ds, 0.5);
/// let predictor = Box::new(OraclePredictor::new(zoo.len(), 0.5));
/// let scheduler = AdaptiveModelScheduler::new(zoo, predictor, 0.5, 42);
///
/// let server = AmsServer::start(scheduler, Budget::Deadline { ms: 1000 }, ServeConfig::default());
/// let client = server.client();
/// let tickets: Vec<_> = truth
///     .items()
///     .iter()
///     .filter_map(|item| client.submit(Arc::new(item.clone())).ticket())
///     .collect();
/// for _ in &tickets {
///     match client.recv().expect("one event per ticket") {
///         Completion::Labeled(result) => assert!(!result.labels.is_empty() || result.recall == 1.0),
///         other => panic!("lossless config never sheds: {other:?}"),
///     }
/// }
/// server.shutdown();
/// ```
///
/// The client holds only a weak reference to the server: submitting after
/// `shutdown` (or drop) returns [`SubmitOutcome::Rejected`], and
/// undelivered events remain receivable.
#[derive(Debug, Clone)]
pub struct Client {
    pub(super) shared: Weak<Shared>,
    pub(super) queue: Arc<CompletionQueue>,
    pub(super) cancel_ledger: Arc<CancelLedger>,
}

impl Client {
    /// Default completion-window capacity of
    /// [`AmsServer::client`](super::AmsServer::client).
    pub const DEFAULT_CAPACITY: usize = 1024;

    /// Submit one item, returning its [`Ticket`] inside the admission
    /// outcome (SLO class 0 when classes are configured).
    ///
    /// Blocks while the completion window is full — `capacity` tickets
    /// outstanding with their events unconsumed — and then under the
    /// shard's own backpressure policy
    /// ([`Block`](crate::BackpressurePolicy::Block) waits for queue space).
    pub fn submit(&self, item: Arc<ItemTruth>) -> SubmitOutcome<Ticket> {
        self.submit_with(item, SubmitOptions::default())
    }

    /// [`Client::submit`] with an SLO class (clamped to the configured
    /// classes; ignored when no SLO is configured;
    /// `SubmitOptions::class(c)`) and full per-ticket economics: an
    /// optional deadline and value that override the class defaults for
    /// this ticket only (see [`SubmitOptions`]). Admission pricing, EDF
    /// dequeue, deadline shedding, and value-weighted eviction read the
    /// per-ticket numbers; the class remains the ledger bucket, so every
    /// conservation gate is unchanged.
    ///
    /// With admission control on, the call first prices the shard's
    /// backlog: predicted wait = the pool wait ahead of a popped request +
    /// queue depth × the amortized per-request batch time the shard's
    /// workers publish ÷ workers on the shard. A
    /// request whose prediction already exceeds its deadline is refused
    /// here ([`SubmitOutcome::ShedAdmission`]) *before* it occupies a
    /// queue slot — admitting it could only evict or delay work that still
    /// has a chance, then be deadline-shed anyway.
    pub fn submit_with(&self, item: Arc<ItemTruth>, opts: SubmitOptions) -> SubmitOutcome<Ticket> {
        let Some(shared) = self.shared.upgrade() else {
            // The server shut down; nothing can be queued anymore.
            return SubmitOutcome::Rejected;
        };
        submit(&shared, self, item, opts)
    }

    /// Blocking receive: the next terminal event, in delivery order.
    /// Returns `None` when no ticket is outstanding (every issued ticket's
    /// event was already consumed) — so a drain loop terminates instead of
    /// deadlocking.
    pub fn recv(&self) -> Option<Completion> {
        self.queue.recv()
    }

    /// Non-blocking receive: the next event if one is already queued.
    pub fn try_recv(&self) -> Option<Completion> {
        self.queue.try_recv()
    }

    /// Receive with a timeout: wait up to `timeout` for the next event,
    /// returning `None` on timeout. Unlike [`Client::recv`] this keeps
    /// waiting while nothing is outstanding — callers that outlive idle
    /// gaps between submission bursts (the TCP front-end's per-connection
    /// writer) distinguish "idle" from "done" themselves.
    pub fn recv_timeout(&self, timeout: Duration) -> Option<Completion> {
        self.queue.recv_timeout(timeout)
    }

    /// Drain every currently queued event without blocking (outstanding
    /// tickets whose events have not arrived yet stay outstanding).
    pub fn drain(&self) -> Vec<Completion> {
        self.queue.drain()
    }

    /// Tickets issued by this client whose terminal events have not been
    /// consumed yet.
    pub fn outstanding(&self) -> usize {
        self.queue.outstanding()
    }

    /// The completion-window capacity.
    pub fn capacity(&self) -> usize {
        self.queue.capacity()
    }
}

/// Per-ticket economics for [`Client::submit_with`]: the SLO class is
/// the aggregation bucket (ledgers and reports), while the
/// optional deadline and value override the class defaults for *this
/// ticket only* — admission pricing, EDF dequeue, deadline shedding, and
/// value-weighted eviction all read the per-ticket numbers.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SubmitOptions {
    /// SLO class (clamped to the configured classes; aggregation bucket
    /// only — ignored for scheduling when no SLO is configured).
    pub class: usize,
    /// Per-ticket deadline in microseconds. `None` falls back to the
    /// class deadline (no deadline without SLO classes). Honored even
    /// without SLO classes: the request expires and is deadline-shed once
    /// the budget is exhausted.
    pub deadline_us: Option<u64>,
    /// Per-ticket value in SLO value units. `None` falls back to the
    /// class weight × the predicted affinity value (or `1.0` without SLO
    /// classes). Feeds admission pricing, overflow eviction, cache
    /// eviction pricing, and the per-class value ledgers.
    pub value: Option<f64>,
}

impl SubmitOptions {
    /// Options for a plain submission into `class` (class defaults for
    /// deadline and value).
    pub fn class(class: usize) -> Self {
        Self {
            class,
            ..Self::default()
        }
    }

    /// Builder: set the per-ticket deadline in microseconds.
    #[must_use]
    pub fn deadline_us(mut self, deadline_us: u64) -> Self {
        self.deadline_us = Some(deadline_us);
        self
    }

    /// Builder: set the per-ticket value.
    #[must_use]
    pub fn value(mut self, value: f64) -> Self {
        self.value = Some(value);
        self
    }
}

/// What the submit path resolved about one submission before it meets the
/// cache, the router and the queue.
struct Submission {
    /// Observability correlation id, unique per submission.
    req_id: u64,
    ticket_id: u64,
    class: usize,
    value: f64,
    /// Where the router placed it ([`NO_SHARD`] until it has).
    shard: u32,
}

impl Submission {
    /// A submit-side lifecycle event about this submission.
    fn event(&self, kind: EventKind) -> Event {
        Event::new(kind, self.req_id, self.ticket_id, self.shard, self.class)
    }

    /// Settle this submission as `kind`, its event carrying `detail`, in
    /// the submit-path ledger (on its request id's stripe).
    fn settle(&self, shared: &Shared, kind: EventKind, detail: u64) {
        let stripes = &shared.submit_ledger;
        let stripe = &stripes[self.req_id as usize % stripes.len()];
        let ev = self.event(kind).detail(detail);
        Ledger::settle_in(stripe, ev, self.value, |ev| shared.emit(None, ev));
    }
}

/// The one submit path, behind [`Client::submit_with`]: every admitted
/// request carries a ticket on `client`'s completion queue, returned
/// inside the outcome.
fn submit(
    shared: &Shared,
    client: &Client,
    item: Arc<ItemTruth>,
    opts: SubmitOptions,
) -> SubmitOutcome<Ticket> {
    // Resolve the class and its deadline *before* routing: the router's
    // deadline-aware spill prices candidate shards against the budget.
    // A per-ticket deadline replaces the class default; everything
    // downstream (router spill pricing, admission control, EDF, the
    // worker's staleness check) reads the resolved number.
    let (class, weight, deadline_us) = match &shared.cfg.slo {
        Some(slo) => {
            let class = opts.class.min(slo.classes.len() - 1);
            let c = &slo.classes[class];
            let class_deadline_us = c.deadline_ms.saturating_mul(1000);
            let deadline_us = opts.deadline_us.or(Some(class_deadline_us));
            (class, Some(c.weight), deadline_us)
        }
        None => (0, None, opts.deadline_us),
    };
    // Claim the completion-window slot first: it may block while the
    // client's window is full, and the queue snapshots the router takes
    // should be fresh when the push actually happens.
    client.queue.issue();
    // One fingerprint per request: the router derives placement from it,
    // admission and shedding price with its value, and the cache keys on
    // its content hash — computed only when the cache is on, so the
    // uncached path pays nothing extra.
    let fp = shared
        .router
        .fingerprint(&shared.scheduler, &item, shared.cache.is_some());
    let req_id = shared.next_req.fetch_add(1, Ordering::Relaxed);
    // A per-ticket value replaces the predicted one (unit value without
    // SLO classes); either way the class stays the ledger bucket, so
    // conservation sums are untouched.
    let value = opts.value.unwrap_or(weight.map_or(1.0, |w| w * fp.value));
    let mut sub = Submission {
        req_id,
        ticket_id: shared.next_ticket.fetch_add(1, Ordering::Relaxed),
        class,
        value,
        shard: NO_SHARD,
    };
    let ticket = issue_ticket(shared, client, &sub);
    // Offered, once, whatever happens next: a cache hit, a follower and a
    // leader are all counted here, beside their `Admitted` event.
    sub.settle(shared, EventKind::Admitted, 0);
    // Pre-admission cache protocol: an exact duplicate of a *resolved*
    // fingerprint is answered right here; a duplicate of a *queued or
    // in-flight* fingerprint coalesces onto that leader and completes at
    // its fan-out. Only a first sighting (the leader) proceeds to routing
    // and admission, carrying the pending entry.
    let mut lead = None;
    // The submission's one clock read.
    let now = Instant::now();
    if let Some(cache) = &shared.cache {
        let follower = Follower {
            slot: Arc::clone(ticket.slot()),
            class,
            value,
            deadline_us,
            submitted_at: now,
            req_id,
        };
        match cache.lookup(fp.content, follower) {
            Lookup::Hit(result) => return answer_from_cache(shared, cache, &sub, ticket, result),
            Lookup::Coalesced => return SubmitOutcome::Coalesced(ticket),
            Lookup::Miss(entry) => lead = Some(entry),
        }
    }
    let route = shared.router.route(&fp, &item, &shared.queues, deadline_us);
    sub.shard = route.shard as u32;
    if !route.affine {
        // Exactly the routes the router counted as `affinity_spills`
        // (hash routes are always "affine"), so the spill events
        // reconcile against the router's own counter.
        shared.emit(None, sub.event(EventKind::Spilled));
    }
    let mut req = Request::new(item, route.signature)
        .with_slo(class, value, deadline_us)
        .with_req_id(req_id)
        .with_completion(Arc::clone(ticket.slot()));
    if let Some(entry) = lead {
        req = req.with_cache(entry);
    }
    if let Some(wait_us) = admission_wait(shared, route.shard, deadline_us, now) {
        return shed_at_admission(shared, &sub, wait_us, &req, ticket);
    }
    enqueue(shared, &sub, req, ticket)
}

/// The ticket for one submission: a completion slot on the client's queue,
/// wired to the observability pipeline when it is on.
fn issue_ticket(shared: &Shared, client: &Client, sub: &Submission) -> Ticket {
    let slot = CompletionSlot::new(
        sub.ticket_id,
        sub.class,
        sub.value,
        Arc::clone(&client.queue),
        Arc::clone(&client.cancel_ledger),
    );
    Ticket::new(Arc::new(slot.with_obs(sub.req_id, shared.obs.clone())))
}

/// Refuse a doomed request before it occupies a queue slot. The ticket
/// resolves right here: the shed *is* its terminal event, delivered at
/// decision time.
fn shed_at_admission(
    shared: &Shared,
    sub: &Submission,
    wait_us: u64,
    req: &Request,
    ticket: Ticket,
) -> SubmitOutcome<Ticket> {
    // No cancel race to lose: the ticket has not been returned to the
    // caller yet, so this shed always owns the slot — event and ledger
    // entry are unconditional.
    sub.settle(shared, EventKind::ShedAdmission, wait_us);
    // A shed leader takes its pending cache entry down with it — no
    // worker will ever resolve it, so followers that coalesced between
    // lookup and here shed too.
    req.fail_cache(ShedReason::Admission);
    ticket.slot().try_shed(ShedReason::Admission);
    SubmitOutcome::ShedAdmission(ticket)
}

/// Push the request into its shard queue. The queue settles what it does
/// with it under its own lock — `Enqueued` for a request that took a
/// slot; for a submission that was itself the overflow shed (it never
/// entered a queue, so it is not `submitted`) the overflow-shed entry and
/// its ticket's `Shed(Overflow)` — so only a refusal is accounted here.
fn enqueue(
    shared: &Shared,
    sub: &Submission,
    req: Request,
    ticket: Ticket,
) -> SubmitOutcome<Ticket> {
    let lead = req.cache_entry().cloned();
    let outcome = shared.queues[sub.shard as usize].push(req);
    if outcome.is_rejected() {
        sub.settle(shared, EventKind::Rejected, 0);
        // A rejection is synchronous: the caller sees it, no event is
        // owed, so the provisional ticket is withdrawn and its window
        // slot released. The leader's pending cache entry dies with it;
        // followers shed as Overflow — the rejection means the shard
        // queue was full or closed, and no more specific shed reason
        // exists for "leader never enqueued".
        if let Some(entry) = &lead {
            entry.fail(ShedReason::Overflow);
        }
        ticket.slot().retract();
    }
    outcome.map(|()| ticket)
}

/// An exact duplicate of a resolved fingerprint: cached labels, zero queue
/// wait, zero virtual-GPU bill, no queue slot.
fn answer_from_cache(
    shared: &Shared,
    cache: &LabelCache,
    sub: &Submission,
    ticket: Ticket,
    result: CachedResult,
) -> SubmitOutcome<Ticket> {
    let hit = sub.event(EventKind::CacheHit);
    Ledger::settle_in(cache.ledger(), hit, sub.value, |ev| shared.emit(None, ev));
    ticket.slot().try_labeled(LabelResult {
        ticket: sub.ticket_id,
        class: sub.class,
        labels: result.labels,
        executed: result.executed,
        label_value: result.label_value,
        banked_value: sub.value,
        recall: result.recall,
        queue_wait_us: 0,
        execute_us: 0,
        deadline_met: true,
    });
    SubmitOutcome::Cached(ticket)
}

/// SLO admission control: the shard's published wait at `now` priced
/// against one consistent queue snapshot (a single lock acquisition) —
/// `Load::doomed_at_admission`. `None` admits (always, without admission
/// control or a deadline).
fn admission_wait(
    shared: &Shared,
    shard: usize,
    deadline_us: Option<u64>,
    now: Instant,
) -> Option<u64> {
    let (slo, deadline) = (shared.cfg.slo.as_ref()?, deadline_us?);
    if !slo.aware {
        return None;
    }
    let queue = &shared.queues[shard];
    let now_us = queue.us_since_epoch(now);
    let snapshot = queue.queued_ahead(now_us.saturating_add(deadline));
    queue
        .load(now_us)
        .doomed_at_admission(snapshot, queue.capacity(), deadline)
}

#[cfg(test)]
mod tests {
    use crate::queue::Load;

    /// A two-worker shard's published wait: `amortized_us` a request, a
    /// 300 µs execute span and `pool_wait_us` of pool work ahead.
    fn load(amortized_us: u64, pool_wait_us: u64) -> Load {
        Load {
            amortized_us,
            exec_span_us: 300,
            pool_wait_us,
            workers: 2,
        }
    }

    /// Admission pricing as a table of literal microseconds: 4 queued, 1
    /// of them ahead under EDF; 100 µs amortized per request over 2
    /// workers (so the wait is 50 µs); a 300 µs execute span.
    #[test]
    fn admission_prices_the_backlog_against_the_deadline() {
        let price = |capacity, amortized_us, deadline_us| {
            load(amortized_us, 0).doomed_at_admission((4, 1), capacity, deadline_us)
        };
        let (full, roomy) = (4, 5);
        // The wait alone reaches the deadline: shed, full or not. Only the
        // work ahead is priced, not the depth (which would wait 200 µs).
        assert_eq!(price(roomy, 100, 50), Some(50));
        assert_eq!(price(roomy, 100, 51), None);
        // Full: the wait plus one execute span reaches it.
        assert_eq!(price(full, 100, 350), Some(50));
        assert_eq!(price(full, 100, 351), None);
        // Probably late, but the queue has room: admitted.
        assert_eq!(price(roomy, 100, 200), None);
        // No service-time evidence yet: everything is admitted.
        assert_eq!(price(full, 0, 0), None);
    }

    /// The pool wait ahead of a popped request adds to the queue wait: a
    /// 100 µs deadline on a roomy queue with a 50 µs queue wait admits at
    /// pool wait 0 and sheds once pool wait + queue wait reaches it.
    #[test]
    fn admission_prices_the_pool_wait_on_top_of_the_queue_wait() {
        let price = |pool_wait_us| load(100, pool_wait_us).doomed_at_admission((4, 1), 5, 100);
        assert_eq!(price(0), None);
        assert_eq!(price(49), None);
        assert_eq!(price(50), Some(100));
        assert_eq!(price(70), Some(120));
    }
}
