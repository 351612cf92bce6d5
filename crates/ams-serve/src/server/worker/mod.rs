//! The shard worker: pop a batch, then four phases — shed stale / claim,
//! label, batch-admit into the worker's virtual GPU pool, stage — while
//! earlier members are delivered as their own models finish, until the
//! shard queue closes and drains. Also the accumulators a worker hands
//! back at join. This shell reads the clock and does the side effects;
//! every rule over time or the pool plan is the clock-free [`WorkerCore`].

mod core;

pub use self::core::LOOK_AHEAD_BATCHES;
use self::core::{Gate, WorkerCore};
use super::Shared;
use crate::adapt::WorkerAdapt;
use crate::cache::CachedResult;
use crate::completion::{LabelResult, ShedReason};
use crate::ledger::Ledger;
use crate::obs::{Event, EventKind};
use crate::queue::{Request, ShardQueue};
use crate::telemetry::{micros, LatencyHistogram};
use ams_core::framework::LabelingOutcome;
use ams_core::streaming::StreamStats;
use ams_sim::Job;
use std::time::{Duration, Instant};

/// Per-worker accumulators, merged at shutdown.
#[derive(Default)]
pub(super) struct WorkerLocal {
    pub(super) stats: StreamStats,
    pub(super) queue_wait: LatencyHistogram,
    pub(super) execute: LatencyHistogram,
    pub(super) batches: u64,
    pub(super) max_batch_observed: usize,
    /// Groups the worker's pool opened: a run that joined an open group
    /// adds none.
    pub(super) model_invocations: u64,
    pub(super) virtual_work_ms: u64,
    /// The worker's pool busy time: the union of its committed groups'
    /// intervals.
    pub(super) virtual_exec_ms: u64,
    /// The worker's share of the conservation ledger: completions (the
    /// late ones among them, and their total latency) and deadline sheds,
    /// by class.
    pub(super) ledger: Ledger,
}

impl WorkerLocal {
    pub(super) fn new(num_models: usize) -> Self {
        Self {
            stats: StreamStats::with_models(num_models),
            ..Self::default()
        }
    }

    /// Add a joined worker's accumulators into this one.
    pub(super) fn merge(&mut self, from: &WorkerLocal) {
        self.stats.merge(&from.stats);
        self.queue_wait.merge(&from.queue_wait);
        self.execute.merge(&from.execute);
        self.batches += from.batches;
        self.max_batch_observed = self.max_batch_observed.max(from.max_batch_observed);
        self.model_invocations += from.model_invocations;
        self.virtual_work_ms += from.virtual_work_ms;
        self.virtual_exec_ms += from.virtual_exec_ms;
        self.ledger.merge(&from.ledger);
    }
}

/// A batch member that reached execution, and when its batch was popped:
/// its queue wait ends and its execute span starts there.
struct Survivor {
    req: Request,
    popped: Instant,
    /// A leader whose own ticket already resolved (cancelled) but whose
    /// pending cache entry still has live followers. The ghost is labeled
    /// and billed like any survivor — the followers' completions need the
    /// result — but it is not *completed*: its own terminal event (the
    /// cancellation) was already delivered, and counting it again would
    /// break ticket/event exactly-once.
    ghost: bool,
}

/// One worker's view of the server plus its private state.
struct Worker<'a> {
    shared: &'a Shared,
    shard: usize,
    /// Server-wide worker index — the key of this worker's private
    /// observability event channel.
    index: usize,
    queue: &'a ShardQueue,
    /// With adaptation on, the worker's experience tap and its pinned
    /// snapshot predictor; `None` labels through the scheduler's own
    /// frozen predictor, byte-identical to a server without adaptation.
    adapt: Option<WorkerAdapt>,
    local: WorkerLocal,
    /// The worker's pool, the members staged on it, and its service clock.
    core: WorkerCore<(Survivor, LabelingOutcome)>,
}

// ams-lint: begin(no-panic) worker hot loop — a panicking worker strands
// its shard queue and every in-flight ticket on it

/// One worker: pace (deliver what is due, pop) → shed stale / claim →
/// label → batch-admit and stage, until the shard queue closes and drains
/// and the last member is delivered.
pub(super) fn worker_loop(
    shared: &Shared,
    shard: usize,
    index: usize,
    adapt: Option<WorkerAdapt>,
) -> WorkerLocal {
    let specs = shared.scheduler.zoo().specs();
    let jobs = specs.iter().enumerate().map(|(id, spec)| Job {
        id,
        time_ms: spec.time_ms,
        mem_mb: spec.mem_mb,
    });
    let mut w = Worker {
        shared,
        shard,
        index,
        // One bounds check here instead of one per batch below: the
        // worker is pinned to `shard` for its whole life.
        queue: &shared.queues[shard], // ams-lint: allow(no-panic) shard < queues.len() — workers are spawned one per existing shard
        adapt,
        local: WorkerLocal::new(specs.len()),
        core: WorkerCore::new(&shared.cfg, jobs),
    };
    loop {
        let Some((batch, popped)) = w.pace() else {
            // Commit what has not started yet: the busy time is the union
            // of committed groups.
            w.local.virtual_exec_ms = w.core.finish();
            return w.local;
        };
        // Every member's queue wait and expiry is judged at the pop.
        let survivors = w.claim(batch, popped);
        if survivors.is_empty() {
            // The whole round was shed: no batch executed, nothing to
            // observe or charge.
            continue;
        }
        w.batch_started(popped, survivors.len());
        let outcomes = w.label(&survivors);
        w.batch_admit(survivors, outcomes);
    }
}

impl Worker<'_> {
    fn emit(&self, ev: Event) {
        self.shared.emit(Some(self.index), ev);
    }

    /// Settle one request: `ev` on this worker's channel, then its entry in
    /// the worker's ledger.
    fn settle(&mut self, ev: Event, value: f64) {
        let ledger = &mut self.local.ledger;
        ledger.settle(ev, value, |ev| self.shared.emit(Some(self.index), ev));
    }

    /// The loop's one pacing call: read the clock, deliver every member
    /// that is due, then pause or pop as the core's [`Gate`] says, the
    /// clock read being the batch's pop. A pop that finds the queue empty
    /// waits for work and comes back without a batch; the time to the next
    /// read is blocked (not busy) time. Delivery work is neither, so the
    /// clock is read again after it. `None` once the queue is closed and
    /// drained and nothing is in flight.
    fn pace(&mut self) -> Option<(Vec<Request>, Instant)> {
        let mut waited_from = None;
        loop {
            let now = Instant::now();
            let now_us = self.queue.us_since_epoch(now);
            if let Some(from) = waited_from.take() {
                self.core.blocked(now_us.saturating_sub(from));
            }
            if self.deliver_due(now, now_us) {
                continue;
            }
            let (gate, until_us) = self.core.pace(now_us, self.queue.live_len());
            let until_us = match gate {
                Gate::Hold | Gate::WaitDue => {
                    std::thread::sleep(Duration::from_micros(until_us.saturating_sub(now_us)));
                    continue;
                }
                Gate::PopFull => Some(until_us),
                Gate::PopAny => None,
            };
            match self.queue.pop_or_wait(self.shared.cfg.max_batch, until_us) {
                Some(batch) if !batch.is_empty() => return Some((batch, now)),
                // Closed and drained, with nothing in flight.
                Some(_) if gate == Gate::PopAny => return None,
                Some(_) => {}
                None => waited_from = Some(now_us),
            }
        }
    }

    /// Phase 1 — shed stale, claim the rest.
    ///
    /// Deadline-aware shedding: a request whose queue age at the pop has
    /// already exhausted its deadline budget (`submit` stamped its SLO
    /// class's or its ticket's own onto the request) is dropped before any
    /// work is spent on it. A shed request is accounted exactly once — in
    /// `shed_deadline` — and never reaches the stats (the recall
    /// denominator) or the latency histograms.
    ///
    /// Cancellation races resolve here: a ticketed request is *claimed*
    /// (`PENDING → CLAIMED`) before any labeling work, so a cancel that
    /// arrives later is too late, while a request cancelled between
    /// enqueue and this point is skipped without ledgering anything — the
    /// cancellation already delivered its terminal event and recorded
    /// itself.
    fn claim(&mut self, batch: Vec<Request>, popped: Instant) -> Vec<Survivor> {
        let mut survivors = Vec::with_capacity(batch.len());
        for req in batch {
            if req.expired(popped) {
                let wait = popped.saturating_duration_since(req.enqueued_at);
                // An expired leader takes its coalesced followers down
                // with it, whoever owns the leader's own shed event.
                req.fail_cache(ShedReason::Deadline);
                if req.resolve_or_own(|slot| slot.try_shed(ShedReason::Deadline)) {
                    let shed = req.event(EventKind::ShedDeadline, self.shard as u32);
                    self.settle(shed.detail(micros(wait)), req.value);
                }
            } else {
                // A cancelled leader with waiters is promoted to ghost —
                // executed for the followers' sake. With no waiters the
                // entry abandons itself and the slot is free for the next
                // submission of the same content.
                let ghost = !req.resolve_or_own(|slot| slot.try_claim());
                if !ghost || req.cache_entry().is_some_and(|e| e.wanted_or_abandon()) {
                    survivors.push(Survivor { req, popped, ghost });
                }
            }
        }
        survivors
    }

    /// A batch of `len` starts executing at `at`: publish the busy span
    /// since the previous batch start to the shard queue, whose service-time
    /// EWMAs every wait price — admission, eviction's doom horizon, spill
    /// routing — reads, so the policies agree on what a queued request's
    /// wait looks like.
    fn batch_started(&mut self, at: Instant, len: usize) {
        let at_us = self.queue.us_since_epoch(at);
        let busy = self.core.batch_started(at_us, len).map(|(busy_us, n)| {
            self.queue.publish_batch(Duration::from_micros(busy_us), n);
            busy_us
        });
        let shard = self.shard;
        self.shared
            .observe(|obs| obs.batch_started(shard, len, busy.unwrap_or(0)));
    }

    /// Phase 2 — label each survivor.
    fn label(&mut self, survivors: &[Survivor]) -> Vec<LabelingOutcome> {
        let shared = self.shared;
        self.local.batches += 1;
        self.local.max_batch_observed = self.local.max_batch_observed.max(survivors.len());
        for s in survivors {
            let batched = s.req.event(EventKind::Batched, self.shard as u32);
            self.emit(batched.detail(survivors.len() as u64));
        }
        // With adaptation on, repin the snapshot predictor first — one
        // atomic generation check per batch, so every predict in this
        // batch runs against one coherent weight set even while the
        // trainer publishes mid-batch.
        if let Some(a) = self.adapt.as_mut() {
            a.refresh();
        }
        let label = |s: &Survivor| match &self.adapt {
            Some(a) => shared
                .scheduler
                .label_item_with(&a.predictor, &s.req.item, shared.budget),
            None => shared.scheduler.label_item(&s.req.item, shared.budget),
        };
        survivors.iter().map(label).collect()
    }

    /// Phases 3 and 4 — batched admission and staging
    /// ([`WorkerCore::admit`]) on the pool's clock, read after labeling.
    /// The bill and the groups opened are charged, and the plan's end is
    /// published to the shard queue: the pool wait both doom tests price.
    fn batch_admit(&mut self, survivors: Vec<Survivor>, outcomes: Vec<LabelingOutcome>) {
        let now_us = self.queue.us_since_epoch(Instant::now());
        let batch = survivors.into_iter().zip(outcomes).map(|(s, outcome)| {
            let models = outcome.executed.iter().map(|m| m.index()).collect();
            ((s, outcome), models)
        });
        let admitted = self.core.admit(batch.collect(), now_us);
        self.local.virtual_work_ms += admitted.bill_ms;
        self.local.model_invocations += admitted.opened as u64;
        let worker = self.index % self.shared.cfg.workers_per_shard;
        self.queue.set_pool_end(worker, self.core.end_us());
    }

    /// Deliver every staged member due at `now`: resolve each one (cache
    /// fan-out, ledgers, events, the ticket's own `Labeled` completion),
    /// charged its own execute span — its batch's pop to `now` — on top of
    /// its queue wait. Returns whether any was delivered.
    fn deliver_due(&mut self, now: Instant, now_us: u64) -> bool {
        let due = self.core.take_due(now_us);
        if due.is_empty() {
            return false;
        }
        let shard = self.shard;
        self.shared.observe(|obs| obs.delivered(shard, due.len()));
        for (s, outcome) in due {
            let exec = now.saturating_duration_since(s.popped);
            self.deliver(s, outcome, exec);
        }
        true
    }

    /// Resolve one member: the trainer's tap, the cache fan-out, then its
    /// own completion (a ghost has none).
    fn deliver(&mut self, s: Survivor, outcome: LabelingOutcome, exec: Duration) {
        let shared = self.shared;
        // Feed the trainer (non-blocking; a full channel drops and
        // counts). Ghosts included — their executions were real.
        if let Some(a) = &self.adapt {
            a.offer(&s.req.item, &outcome.executed);
        }
        // Publish into the cache first: followers fan out the moment the
        // leader resolves, and the entry flips to `Done` so the next
        // identical submission is an exact hit.
        if let (Some(cache), Some(entry)) = (&shared.cache, s.req.cache_entry()) {
            cache.resolve(
                entry,
                CachedResult {
                    labels: outcome.labels.clone(),
                    executed: outcome.executed.clone(),
                    label_value: outcome.value,
                    recall: outcome.recall,
                },
                s.req.value,
            );
        }
        if s.ghost {
            // Billed in `batch_admit` (its model runs were counted with
            // the batch's), but its own ticket already resolved as
            // cancelled — nothing to complete, record, or deliver.
            let ghost = s.req.event(EventKind::GhostExecuted, self.shard as u32);
            self.emit(ghost.detail(micros(exec)));
            return;
        }
        self.complete(&s, outcome, exec);
    }

    /// Ledger, announce and deliver one labeled request.
    fn complete(&mut self, s: &Survivor, outcome: LabelingOutcome, exec: Duration) {
        let req = &s.req;
        let wait = s.popped.saturating_duration_since(req.enqueued_at);
        let total = wait + exec;
        let met = req.deadline_us.is_none_or(|d| micros(total) <= d);
        let shard = self.shard as u32;
        self.emit(req.event(EventKind::Executed, shard).detail(micros(exec)));
        let labeled = req.event(EventKind::Labeled, shard);
        self.settle(labeled.detail(micros(total)).flag(!met), req.value);
        let local = &mut self.local;
        local.stats.absorb(&outcome);
        local.queue_wait.record(wait);
        local.execute.record(exec);
        // Per-request delivery: the claimed slot receives the request's
        // *own* labels and latency split — the payload the aggregate-only
        // path folds into `ServeReport::stats`.
        if let Some(slot) = req.completion() {
            slot.finish_labeled(LabelResult {
                ticket: slot.id(),
                class: req.class,
                labels: outcome.labels,
                executed: outcome.executed,
                label_value: outcome.value,
                banked_value: req.value,
                recall: outcome.recall,
                queue_wait_us: micros(wait),
                execute_us: micros(exec),
                deadline_met: met,
            });
        }
    }
}

// ams-lint: end(no-panic)
