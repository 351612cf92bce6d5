//! The queue's decisions as a plain value: what is pending, whether a
//! request may take a slot, who is evicted for whom, and which requests
//! form the next batch. Time is the `now_us` a call receives, so every
//! timing rule is tested with literal microseconds. The serving layer's
//! shard queue owns the lock and the clock and settles what the core
//! decided: it resolves an evicted request's completion and cache entry,
//! then emits its event and ledger entry.

use super::BackpressurePolicy;
use std::cmp::{Ordering, Reverse};
use std::collections::VecDeque;

/// What the queue's rules read of a queued request.
#[derive(Debug, Clone, Copy)]
pub struct Header {
    /// Affinity signature (0 under hash routing): batch assembly groups
    /// equal ones first.
    pub signature: u64,
    /// Class-weighted predicted value, which value-weighted eviction
    /// weighs against the remaining deadline.
    pub value: f64,
    /// Relative deadline budget from `enqueued_us`, µs (`None` =
    /// unbounded).
    pub deadline_us: Option<u64>,
    /// When the request took its slot, µs after the epoch.
    pub enqueued_us: u64,
}

impl Header {
    /// Remaining deadline budget at `now_us`, µs (`None` = unbounded;
    /// `Some(0)` = already expired).
    pub fn remaining_us(&self, now_us: u64) -> Option<u64> {
        let age_us = now_us.saturating_sub(self.enqueued_us);
        self.deadline_us.map(|d| d.saturating_sub(age_us))
    }

    /// Absolute deadline, µs after the epoch (`None` = unbounded): the
    /// EDF sort key.
    pub fn due_us(&self) -> Option<u64> {
        self.deadline_us.map(|d| self.enqueued_us.saturating_add(d))
    }
}

/// A request as the queue sees it: its [`Header`] and whether it is a
/// tombstone.
pub trait Queued {
    /// The request's header as it stands.
    fn header(&self) -> Header;
    /// Set [`Header::enqueued_us`]. Only [`QueueCore::offer`] calls it.
    fn stamp(&mut self, enqueued_us: u64);
    /// Whether the request was resolved while queued and wants no
    /// service: a dead entry the queue drops for free.
    fn is_tombstone(&self) -> bool;
}

/// A shard's wait as its workers last published it, read once by the
/// shard queue at its `now_us`, and every price of that wait: the drain
/// hint, the queue wait spill routing prices, the doom horizon of
/// value-weighted eviction and SLO admission.
#[derive(Debug, Clone, Copy)]
pub struct Load {
    /// Amortized per-request service time, µs: an EWMA of each batch's
    /// busy span ÷ its size. 0 until the shard starts its second batch —
    /// no evidence, so every price below admits and dooms nothing.
    pub amortized_us: u64,
    /// EWMA of a whole batch's busy span, µs: what one more batch costs
    /// end to end.
    pub exec_span_us: u64,
    /// The pool wait ahead of a request popped now, µs (0 without
    /// emulation, where the pool has always drained).
    pub pool_wait_us: u64,
    /// Workers sharing the queue (≥ 1).
    pub workers: usize,
}

impl Load {
    /// The queue's per-request drain time, µs: the amortized service time
    /// ÷ the workers sharing the queue, at least 1 once there is evidence
    /// (0 = unknown).
    pub fn hint_us(&self) -> u64 {
        if self.amortized_us == 0 {
            return 0;
        }
        (self.amortized_us / self.workers as u64).max(1)
    }

    /// The wait behind `depth` queued requests, µs: `depth × hint` — what
    /// the spill router prices a shard with and the gauges export.
    pub fn queue_wait_us(&self, depth: usize) -> u64 {
        (depth as u64).saturating_mul(self.hint_us())
    }

    /// Value-weighted eviction's doom horizon on a queue `depth` deep, µs:
    /// the typical wait still ahead of a queued request — the drain hint ×
    /// half the depth, plus the pool wait once it is popped.
    pub fn doom_wait_us(&self, depth: usize) -> u64 {
        self.hint_us()
            .saturating_mul(depth as u64 / 2)
            .saturating_add(self.pool_wait_us)
    }

    /// SLO admission pricing: the predicted wait, µs, when a request due
    /// in `deadline_us` is doomed; `None` admits (always, without
    /// service-time evidence). `(depth, ahead)` is the queue snapshot: the
    /// live backlog, and the part of it the EDF dequeue serves first. An
    /// urgent request overtakes lax work, so the raw depth would
    /// overcharge it (and shed requests EDF would have served in time):
    /// the wait prices `ahead`, and only the full-queue test reads
    /// `depth`. The wait starts with the pool wait, the pool work a popped
    /// request still waits behind.
    ///
    /// Two shedding criteria, deliberately asymmetric:
    ///
    /// * the predicted *wait alone* exceeds the deadline — the request
    ///   provably cannot complete in time (it cannot even dequeue in
    ///   budget), so queueing it only wastes a slot;
    /// * the queue is *full* and wait + one batch execute span exceeds the
    ///   deadline — here admitting means evicting a queued request that
    ///   still has a chance, in favor of one predicted to finish late;
    ///   refusing the doomed newcomer is the strictly better trade.
    ///
    /// A merely-probably-late request on a non-full queue is admitted: EDF
    /// dequeue may still save it, and shedding at the margin would throw
    /// away value on a coin flip.
    pub fn doomed_at_admission(
        &self,
        (depth, ahead): (usize, usize),
        capacity: usize,
        deadline_us: u64,
    ) -> Option<u64> {
        let wait_us = self.pool_wait_us as f64
            + ahead as f64 * self.amortized_us as f64 / self.workers as f64;
        let (full, deadline) = (depth >= capacity, deadline_us as f64);
        let doomed =
            wait_us >= deadline || (full && wait_us + self.exec_span_us as f64 >= deadline);
        (self.amortized_us > 0 && doomed).then_some(wait_us as u64)
    }
}

/// What [`QueueCore::offer`] decided about the incoming request.
#[derive(Debug)]
pub enum Offer<T> {
    /// It took a slot, stamped with the offer's `now_us`. `evicted` is the
    /// queued request removed to make room, which the caller still has to
    /// shed: a victim a cancellation already resolved is a free purge.
    /// `None` when there was room.
    Enqueued {
        /// The request removed to make room.
        evicted: Option<T>,
    },
    /// Not queued: the incoming request is itself the overflow shed. It
    /// comes back to be resolved and ledgered.
    ShedIncoming(T),
    /// Not queued: no free slot under `Block`. The caller may wait for
    /// one and offer the request again.
    Full(T),
    /// Not queued, and dropped: the queue is closed, or full under
    /// `Reject`.
    Refused,
}

/// One shard queue's pending requests and the rules over them.
#[derive(Debug)]
pub struct QueueCore<T> {
    pending: VecDeque<T>,
    closed: bool,
    capacity: usize,
    policy: BackpressurePolicy,
    /// Overflow eviction picks the worst value-per-remaining-deadline
    /// victim instead of the head.
    value_weighted: bool,
    /// Dequeue picks the earliest-deadline head (EDF) instead of the
    /// oldest, so urgent work leads batch assembly.
    edf: bool,
}

impl<T: Queued> QueueCore<T> {
    /// A core holding at most `capacity` (≥ 1) pending requests.
    pub fn new(
        capacity: usize,
        policy: BackpressurePolicy,
        value_weighted: bool,
        edf: bool,
    ) -> Self {
        Self {
            pending: VecDeque::new(),
            closed: false,
            capacity,
            policy,
            value_weighted,
            edf,
        }
    }

    /// Requests physically queued, cancellation tombstones included.
    pub fn len(&self) -> usize {
        self.pending.len()
    }

    /// Whether nothing is queued, tombstones included.
    pub fn is_empty(&self) -> bool {
        self.pending.is_empty()
    }

    /// Open and empty: nothing to take yet, and more may come.
    pub fn is_idle(&self) -> bool {
        self.pending.is_empty() && !self.closed
    }

    /// The most recently queued request.
    pub fn newest(&self) -> Option<&T> {
        self.pending.back()
    }

    /// Queued requests that still want service (tombstones excluded).
    pub fn live_len(&self) -> usize {
        self.pending.iter().filter(|r| !r.is_tombstone()).count()
    }

    /// `(depth, ahead)`: the queued requests that still want service, and
    /// the subset whose absolute deadline falls before `due_us`.
    /// Deadline-less requests sort last under EDF and are never `ahead`;
    /// tombstones count toward neither number.
    pub fn snapshot(&self, due_us: u64) -> (usize, usize) {
        let mut depth = 0usize;
        let mut ahead = 0usize;
        for r in self.pending.iter().filter(|r| !r.is_tombstone()) {
            depth += 1;
            if r.header().due_us().is_some_and(|d| d < due_us) {
                ahead += 1;
            }
        }
        (depth, ahead)
    }

    /// Refuse every later offer; what is queued stays to be drained.
    pub fn close(&mut self) {
        self.closed = true;
    }

    /// Close and hand back the whole backlog.
    pub fn abort(&mut self) -> Vec<T> {
        self.closed = true;
        self.pending.drain(..).collect()
    }

    /// Drop every cancellation tombstone. Their terminal events were
    /// already delivered at cancel time, so nothing is ledgered.
    fn purge_tombstones(&mut self) {
        self.pending.retain(|r| !r.is_tombstone());
    }

    /// Whether a request may take a slot right now.
    fn admittable(&self) -> bool {
        self.pending.len() < self.capacity
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
    fn victim_key(r: &T, now_us: u64, doom_wait_us: u64) -> (u8, f64) {
        let h = r.header();
        match h.remaining_us(now_us) {
            Some(remaining) if remaining <= doom_wait_us => (0, h.value),
            Some(remaining) => (1, h.value / remaining.max(1) as f64),
            None => (1, h.value / u64::MAX as f64),
        }
    }

    /// Index of the queued request to shed so `req` can take its slot on a
    /// full queue, or `None` when `req` itself is the shed. Blind shedding
    /// picks the oldest request; value-weighted shedding the smallest
    /// [`victim_key`], the front-most among equals, on `load`'s doom
    /// horizon.
    ///
    /// [`victim_key`]: QueueCore::victim_key
    fn overflow_victim(&self, req: &T, now_us: u64, load: Load) -> Option<usize> {
        if !self.value_weighted {
            return (!self.pending.is_empty()).then_some(0);
        }
        let doom_wait_us = load.doom_wait_us(self.pending.len());
        let key = |r: &T| Self::victim_key(r, now_us, doom_wait_us);
        let victim = (0..self.pending.len()).min_by(|&a, &b| {
            let (a, b) = (key(&self.pending[a]), key(&self.pending[b]));
            a.partial_cmp(&b).unwrap_or(Ordering::Equal)
        })?;
        // A *doomed* incoming request (tier 0: expired, or budget already
        // below the queue's drain wait) that also scores worse than every
        // queued request is itself the shed — evicting viable
        // queued work to admit a request that will only be deadline-shed
        // at dequeue loses a completion for nothing. A viable newcomer
        // always gets its slot: value density naturally reads lower on a
        // fresh full budget than on aged queued work, and shedding
        // fresh-but-lax traffic on that alone would invert the
        // freshest-first instinct that makes overflow eviction work.
        let incoming = key(req);
        let incoming_is_shed = incoming.0 == 0 && incoming < key(&self.pending[victim]);
        (!incoming_is_shed).then_some(victim)
    }

    /// Decide one submission at `now_us`, with `load` the shard's
    /// published wait, which sets value-weighted eviction's doom horizon.
    /// The request is stamped with `now_us` first, so it is priced on its
    /// full budget.
    pub fn offer(&mut self, mut req: T, now_us: u64, load: Load) -> Offer<T> {
        if self.closed {
            return Offer::Refused;
        }
        req.stamp(now_us);
        // Cancellation tombstones are free slots; drop them before any
        // backpressure applies.
        if !self.admittable() {
            self.purge_tombstones();
        }
        let mut evicted = None;
        if !self.admittable() {
            match self.policy {
                BackpressurePolicy::Block => return Offer::Full(req),
                BackpressurePolicy::Reject => return Offer::Refused,
                BackpressurePolicy::ShedOldest => {}
            }
            let Some(victim) = self.overflow_victim(&req, now_us, load) else {
                return Offer::ShedIncoming(req);
            };
            evicted = self.pending.remove(victim);
        }
        // One eviction always makes room.
        debug_assert!(self.admittable());
        self.pending.push_back(req);
        Offer::Enqueued { evicted }
    }

    /// Take up to `max_batch` requests (min 1) — everything queued when
    /// fewer are — in batch order.
    ///
    /// The batch is assembled *signature-first*: the head request (always
    /// served — no starvation) sets the batch's signature, every queued
    /// request sharing it joins next (their model sets overlap most, so
    /// they coalesce best), and the batch is then topped up with the
    /// remaining requests in decreasing signature *overlap* with the head
    /// (shared fingerprint bits = shared models = shared setup charges).
    /// Under hash routing every signature is 0, which degenerates to the
    /// plain FIFO drain.
    ///
    /// The head, and the order within each of those groups, is by *rank*:
    /// queue order — or, under EDF dequeue, the earliest absolute deadline
    /// first, so the most urgent request leads batch assembly, signature
    /// coalescing groups around *it*, and within the batch the
    /// clock-racing members go first. Deadline-less requests rank strictly
    /// last (a leading bool, not a far-future sentinel that a long enough
    /// real deadline could overtake); ties fall back to queue order. No
    /// `now_us` is needed: the order is over absolute deadlines.
    pub fn take(&mut self, max_batch: usize) -> Vec<T> {
        let (pending, edf) = (&self.pending, self.edf);
        let rank = |i: usize| {
            let due = if edf {
                pending[i].header().due_us()
            } else {
                None
            };
            (edf && due.is_none(), due, i)
        };
        let Some(head) = (0..pending.len()).min_by_key(|&i| rank(i)) else {
            return Vec::new();
        };
        let signature = |i: usize| pending[i].header().signature;
        let head_sig = signature(head);
        let max_batch = max_batch.max(1);
        let of_sig =
            |same: bool| (0..pending.len()).filter(move |&i| (signature(i) == head_sig) == same);
        let mut order: Vec<usize> = of_sig(true).collect();
        if edf {
            order.sort_by_key(|&i| rank(i));
        }
        order.truncate(max_batch);
        // A full batch stops here: the rest is ranked only to top one up.
        if order.len() < max_batch {
            let mut rest: Vec<usize> = of_sig(false).collect();
            let shared_bits = |i: usize| (signature(i) & head_sig).count_ones();
            rest.sort_by_cached_key(|&i| (Reverse(shared_bits(i)), rank(i)));
            rest.truncate(max_batch - order.len());
            order.append(&mut rest);
        }
        let mut batch = Vec::with_capacity(order.len());
        for (k, &want) in order.iter().enumerate() {
            // Each earlier removal in front of it moved it down by one.
            let moved = order[..k].iter().filter(|&&gone| gone < want).count();
            let taken = self.pending.remove(want - moved);
            batch.push(taken.expect("picked index in range"));
        }
        batch
    }
}
