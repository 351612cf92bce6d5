//! The shard worker: an interpreter of the clock-free [`WorkerCore`]'s
//! steps, in µs after the shard queue's epoch. Each turn reads the clock
//! once, asks the core for the step and does it — deliver what is due,
//! pause, pop (then shed stale / claim and label into the open batch),
//! batch-admit the open batch into the worker's virtual GPU pool — until
//! the shard queue closes and drains. Also the accumulators a worker hands
//! back at join. The order of the phases and every rule over time or the
//! pool plan are the core's; the clock, the pause and the side effects
//! are this shell's.

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
use ams_sim::shard::{Step, WorkerCore};
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

// No-panic zone (LINTS.md), `worker_loop` — the loop that does the core's
// steps — and `Worker`'s phases: a panicking worker strands its shard queue
// and every in-flight ticket on it.

/// One worker: read the clock, ask the core for the step, do it, until the
/// shard queue closes and drains and the last member is delivered.
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
    // The batch between its first pop and its admission.
    let mut open = Vec::new();
    loop {
        let now_us = w.now_us();
        match w.core.next(now_us, || w.queue.live_len()) {
            Step::Deliver(due) => {
                w.shared.observe(|obs| obs.delivered(shard, due.len()));
                for (s, outcome) in due {
                    w.deliver(s, outcome, now_us);
                }
            }
            Step::Sleep(until_us) => {
                std::thread::sleep(Duration::from_micros(until_us.saturating_sub(now_us)));
            }
            Step::Pop { room, until_us } => {
                let popped = w.queue.pop_or_wait(room, until_us);
                let found = popped.as_ref().map(Vec::len);
                for s in w.claim(popped.unwrap_or_default(), now_us) {
                    // With adaptation on, repin the snapshot predictor
                    // before a batch's first label — one atomic generation
                    // check per batch, so every member is labeled against
                    // one weight set even while the trainer publishes.
                    if let Some(a) = w.adapt.as_mut().filter(|_| open.is_empty()) {
                        a.refresh();
                    }
                    open.push(w.label(s));
                }
                w.core.popped(now_us, found, open.len());
            }
            Step::Admit { busy, .. } => w.batch_admit(std::mem::take(&mut open), busy, now_us),
            Step::Done => {
                // Commit what has not started yet: the busy time is the
                // union of committed groups.
                w.local.virtual_exec_ms = w.core.finish();
                return w.local;
            }
        }
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
    /// ([`WorkerCore::admit`]) of the open batch at `now_us`. First the
    /// previous batch's `busy` span and size go to the shard queue, whose
    /// service-time EWMAs every wait price reads. The bill and the groups
    /// opened are charged, and the plan's end is published to the shard
    /// queue: the pool wait both doom tests price.
    fn batch_admit(&mut self, members: Vec<Member>, busy: Option<(u64, usize)>, now_us: u64) {
        if let Some((busy_us, n)) = busy {
            self.queue.publish_batch(busy_us, n);
        }
        let (shard, len) = (self.shard, members.len());
        let busy_us = busy.map_or(0, |(us, _)| us);
        self.shared
            .observe(|obs| obs.batch_started(shard, len, busy_us));
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

    /// Resolve one member due at `now_us`: the trainer's tap, the cache
    /// fan-out, then its own completion (a ghost has none), charged its own
    /// execute span — its pop to `now_us` — on top of its queue wait.
    fn deliver(&mut self, s: Survivor, outcome: LabelingOutcome, now_us: u64) {
        let (shared, exec_us) = (self.shared, now_us.saturating_sub(s.popped_us));
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
                now_us,
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
