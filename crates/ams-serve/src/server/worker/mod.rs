//! The shard worker: pop a batch, then four phases — shed stale / claim,
//! label, batch-admit into the worker's virtual GPU pool, stage — while
//! earlier members are delivered as their own models finish, until the
//! shard queue closes and drains. A batch stays open from its pop to its
//! admission: what queued while it was being labeled joins it. Also the
//! accumulators a worker hands back at join. This shell reads the clock
//! and does the side effects; every rule over time or the pool plan is
//! the clock-free [`WorkerCore`], in µs after the shard queue's epoch.

use super::Shared;
use crate::adapt::WorkerAdapt;
use crate::cache::CachedResult;
use crate::completion::{LabelResult, ShedReason};
use crate::ledger::Ledger;
use crate::obs::{Event, EventKind};
use crate::queue::{Request, ShardQueue};
use crate::telemetry::LatencyHistogram;
use ams_core::framework::LabelingOutcome;
use ams_core::streaming::StreamStats;
pub use ams_sim::shard::LOOK_AHEAD_BATCHES;
use ams_sim::shard::{join_room, Gate, WorkerCore};
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

/// A batch member that reached execution, and when it was popped (µs
/// after the queue's epoch): its queue wait ends and its execute span
/// starts there.
struct Survivor {
    req: Request,
    popped_us: u64,
    /// A leader whose own ticket already resolved (cancelled) but whose
    /// pending cache entry still has live followers. The ghost is labeled
    /// and billed like any survivor — the followers' completions need the
    /// result — but it is not *completed*: its own terminal event (the
    /// cancellation) was already delivered, and counting it again would
    /// break ticket/event exactly-once.
    ghost: bool,
}

/// A labeled batch member: what the pool stages and delivers.
type Member = (Survivor, LabelingOutcome);

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
    core: WorkerCore<Member>,
}

// No-panic zone (LINTS.md), `worker_loop` and `Worker`'s phases: a
// panicking worker strands its shard queue and every in-flight ticket on it.

/// One worker: pace (deliver what is due, pop) → shed stale / claim →
/// label, joined by what queued meanwhile → batch-admit and stage, until
/// the shard queue closes and drains and the last member is delivered.
#[deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::todo,
    clippy::unimplemented,
    clippy::unreachable,
    clippy::indexing_slicing,
    clippy::disallowed_macros
)]
pub(super) fn worker_loop(
    shared: &Shared,
    shard: usize,
    index: usize,
    adapt: Option<WorkerAdapt>,
) -> WorkerLocal {
    let (cfg, specs) = (&shared.cfg, shared.scheduler.zoo().specs());
    let jobs = specs.iter().enumerate().map(|(id, spec)| Job {
        id,
        time_ms: spec.time_ms,
        mem_mb: spec.mem_mb,
    });
    #[expect(
        clippy::indexing_slicing,
        reason = "shard < queues.len() — workers are spawned one per existing shard"
    )]
    let mut w = Worker {
        shared,
        shard,
        index,
        // One bounds check here instead of one per batch below: the
        // worker is pinned to `shard` for its whole life.
        queue: &shared.queues[shard],
        adapt,
        local: WorkerLocal::new(specs.len()),
        core: WorkerCore::new(
            cfg.exec_emulation_scale,
            cfg.max_batch,
            cfg.workers_per_shard,
            cfg.batch_model,
            cfg.pool_mb,
            jobs,
        ),
    };
    loop {
        let Some((batch, popped_us)) = w.pace() else {
            // Commit what has not started yet: the busy time is the union
            // of committed groups.
            w.local.virtual_exec_ms = w.core.finish();
            return w.local;
        };
        let Some((members, admit_us)) = w.fill(batch, popped_us) else {
            // The whole batch was shed: none executed, nothing to observe
            // or charge.
            continue;
        };
        w.batch_started(popped_us, members.len());
        w.batch_admit(members, admit_us);
    }
}

#[deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::todo,
    clippy::unimplemented,
    clippy::unreachable,
    clippy::indexing_slicing,
    clippy::disallowed_macros
)]
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

    /// The clock, µs after the shard queue's epoch.
    fn now_us(&self) -> u64 {
        self.queue.us_since_epoch(Instant::now())
    }

    /// The loop's one pacing call: read the clock, deliver every member
    /// that is due, then pause or pop as the core's [`Gate`] says, the
    /// clock read being the batch's pop. A pop that finds the queue empty
    /// waits for work and comes back without a batch; the time to the next
    /// read is blocked (not busy) time. Delivery work is neither, so the
    /// clock is read again after it. `None` once the queue is closed and
    /// drained and nothing is in flight.
    fn pace(&mut self) -> Option<(Vec<Request>, u64)> {
        let mut waited_from = None;
        loop {
            let now_us = self.now_us();
            if let Some(from) = waited_from.take() {
                self.core.blocked(now_us.saturating_sub(from));
            }
            if self.deliver_due(now_us) {
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
                Some(batch) if !batch.is_empty() => return Some((batch, now_us)),
                // Closed and drained, with nothing in flight.
                Some(_) if gate == Gate::PopAny => return None,
                Some(_) => {}
                None => waited_from = Some(now_us),
            }
        }
    }

    /// Phases 1 and 2 over a popped batch, kept open until its admission:
    /// claim and label it, then pop — without waiting — what queued in the
    /// meantime, claim and label that, and so on while [`join_room`]
    /// leaves room and the queue has work. Every member is judged at its
    /// own pop. Returns the labeled members and the last clock read, the
    /// pool's admission clock; `None` when every member was shed.
    fn fill(&mut self, batch: Vec<Request>, popped_us: u64) -> Option<(Vec<Member>, u64)> {
        let survivors = self.claim(batch, popped_us);
        if survivors.is_empty() {
            return None;
        }
        // With adaptation on, repin the snapshot predictor first — one
        // atomic generation check per batch, so every member is labeled
        // against one coherent weight set even while the trainer publishes
        // mid-batch.
        if let Some(a) = self.adapt.as_mut() {
            a.refresh();
        }
        let mut members: Vec<_> = survivors.into_iter().map(|s| self.label(s)).collect();
        let (max_batch, workers) = (self.shared.cfg.max_batch, self.shared.cfg.workers_per_shard);
        loop {
            let now_us = self.now_us();
            let room = join_room(members.len(), max_batch, workers);
            let joined = if room > 0 {
                self.queue.pop_or_wait(room, Some(0))
            } else {
                None
            };
            match joined {
                Some(joined) if !joined.is_empty() => {
                    for s in self.claim(joined, now_us) {
                        members.push(self.label(s));
                    }
                }
                _ => return Some((members, now_us)),
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
    fn claim(&mut self, batch: Vec<Request>, popped_us: u64) -> Vec<Survivor> {
        let mut survivors = Vec::with_capacity(batch.len());
        for req in batch {
            if req.expired(popped_us) {
                let wait_us = popped_us.saturating_sub(req.enqueued_us);
                // An expired leader takes its coalesced followers down
                // with it, whoever owns the leader's own shed event.
                req.fail_cache(ShedReason::Deadline);
                if req.resolve_or_own(|slot| slot.try_shed(ShedReason::Deadline)) {
                    let shed = req.event(EventKind::ShedDeadline, self.shard as u32);
                    self.settle(shed.detail(wait_us), req.value);
                }
            } else {
                // A cancelled leader with waiters is promoted to ghost —
                // executed for the followers' sake. With no waiters the
                // entry abandons itself and the slot is free for the next
                // submission of the same content.
                let ghost = !req.resolve_or_own(|slot| slot.try_claim());
                if !ghost || req.cache_entry().is_some_and(|e| e.wanted_or_abandon()) {
                    survivors.push(Survivor {
                        req,
                        popped_us,
                        ghost,
                    });
                }
            }
        }
        survivors
    }

    /// The batch popped at `at_us` starts executing with `len` members, the
    /// joined ones included: publish the busy span
    /// since the previous batch start to the shard queue, whose service-time
    /// EWMAs every wait price — admission, eviction's doom horizon, spill
    /// routing — reads, so the policies agree on what a queued request's
    /// wait looks like.
    fn batch_started(&mut self, at_us: u64, len: usize) {
        let busy = self.core.batch_started(at_us, len).map(|(busy_us, n)| {
            self.queue.publish_batch(busy_us, n);
            busy_us
        });
        let shard = self.shard;
        self.shared
            .observe(|obs| obs.batch_started(shard, len, busy.unwrap_or(0)));
    }

    /// Phase 2 — label one survivor.
    fn label(&self, s: Survivor) -> Member {
        let shared = self.shared;
        let outcome = match &self.adapt {
            Some(a) => shared
                .scheduler
                .label_item_with(&a.predictor, &s.req.item, shared.budget),
            None => shared.scheduler.label_item(&s.req.item, shared.budget),
        };
        (s, outcome)
    }

    /// Phases 3 and 4 — batched admission and staging
    /// ([`WorkerCore::admit`]) of the whole batch at `now_us`, the clock
    /// read after its last labeling. The bill and the groups opened are
    /// charged, and the plan's end is published to the shard queue: the
    /// pool wait both doom tests price.
    fn batch_admit(&mut self, members: Vec<Member>, now_us: u64) {
        let len = members.len();
        self.local.batches += 1;
        self.local.max_batch_observed = self.local.max_batch_observed.max(len);
        for (s, _) in &members {
            let batched = s.req.event(EventKind::Batched, self.shard as u32);
            self.emit(batched.detail(len as u64));
        }
        let batch = members.into_iter().map(|(s, outcome)| {
            // The models it ran, as a mask: the pickers' zoo has at most 64.
            let mask = outcome
                .executed
                .iter()
                .fold(0u64, |mask, m| mask | 1 << m.index());
            ((s, outcome), (0..64).filter(move |m| mask >> m & 1 == 1))
        });
        let admitted = self.core.admit(batch.collect(), now_us);
        self.local.virtual_work_ms += admitted.bill_ms;
        self.local.model_invocations += admitted.opened as u64;
        let worker = self.index % self.shared.cfg.workers_per_shard;
        self.queue.set_pool_end(worker, self.core.end_us());
    }

    /// Deliver every staged member due at `now_us`: resolve each one (cache
    /// fan-out, ledgers, events, the ticket's own `Labeled` completion),
    /// charged its own execute span — its pop to `now_us` — on top of its
    /// queue wait. Returns whether any was delivered.
    fn deliver_due(&mut self, now_us: u64) -> bool {
        let due = self.core.take_due(now_us);
        if due.is_empty() {
            return false;
        }
        let shard = self.shard;
        self.shared.observe(|obs| obs.delivered(shard, due.len()));
        for (s, outcome) in due {
            let exec_us = now_us.saturating_sub(s.popped_us);
            self.deliver(s, outcome, exec_us);
        }
        true
    }

    /// Resolve one member: the trainer's tap, the cache fan-out, then its
    /// own completion (a ghost has none).
    fn deliver(&mut self, s: Survivor, outcome: LabelingOutcome, exec_us: u64) {
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
            self.emit(ghost.detail(exec_us));
            return;
        }
        self.complete(&s, outcome, exec_us);
    }

    /// Ledger, announce and deliver one labeled request.
    fn complete(&mut self, s: &Survivor, outcome: LabelingOutcome, exec_us: u64) {
        let req = &s.req;
        let wait_us = s.popped_us.saturating_sub(req.enqueued_us);
        let total_us = wait_us.saturating_add(exec_us);
        let met = req.deadline_us.is_none_or(|d| total_us <= d);
        let shard = self.shard as u32;
        self.emit(req.event(EventKind::Executed, shard).detail(exec_us));
        let labeled = req.event(EventKind::Labeled, shard);
        self.settle(labeled.detail(total_us).flag(!met), req.value);
        let local = &mut self.local;
        local.stats.absorb(&outcome);
        local.queue_wait.record_us(wait_us);
        local.execute.record_us(exec_us);
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
                queue_wait_us: wait_us,
                execute_us: exec_us,
                deadline_met: met,
            });
        }
    }
}
