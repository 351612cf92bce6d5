//! The shard worker: pop a batch, then four phases — shed stale / claim,
//! label, batch-admit into the worker's virtual GPU pool, stage — while
//! earlier members are delivered as their own models finish, until the
//! shard queue closes and drains. Also the accumulators a worker hands
//! back at join.

use super::gate::{gate, Gate};
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
use ams_sim::{Job, PoolTimeline};
use std::time::{Duration, Instant};

/// A worker's busy wall time per batch: the span between successive batch
/// starts less the time it spent blocked on an empty queue. With batches
/// streaming through the pool the members' execute spans overlap, so a
/// batch's drain time is this span, not any member's.
#[derive(Debug, Default)]
struct ServiceClock {
    /// The previous batch's start and size.
    last: Option<(Instant, usize)>,
    /// Time blocked on the queue since then.
    blocked: Duration,
}

impl ServiceClock {
    /// The worker spent `d` blocked waiting for work.
    fn blocked(&mut self, d: Duration) {
        self.blocked += d;
    }

    /// A batch of `len` starts at `at`: the previous batch's busy span and
    /// size (`None` for the first batch).
    fn batch_started(&mut self, at: Instant, len: usize) -> Option<(Duration, usize)> {
        let blocked = std::mem::take(&mut self.blocked);
        let (start, n) = self.last.replace((at, len))?;
        Some((
            at.saturating_duration_since(start).saturating_sub(blocked),
            n,
        ))
    }
}

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
    /// The worker's share of the conservation ledger: completions (and
    /// the late ones among them) and deadline sheds, by class.
    pub(super) ledger: Ledger,
    /// Total (queue wait + execute) latency of completed requests, by
    /// class; the report's all-class `total` is their merge.
    pub(super) total: Vec<LatencyHistogram>,
}

impl WorkerLocal {
    pub(super) fn new(num_models: usize, num_classes: usize) -> Self {
        Self {
            stats: StreamStats::with_models(num_models),
            total: vec![LatencyHistogram::default(); num_classes],
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
        for (into, from) in self.total.iter_mut().zip(&from.total) {
            into.merge(from);
        }
    }
}

/// A batch member that reached execution, and how long it queued.
struct Survivor {
    req: Request,
    wait: Duration,
    /// A leader whose own ticket already resolved (cancelled) but whose
    /// pending cache entry still has live followers. The ghost is labeled
    /// and billed like any survivor — the followers' completions need the
    /// result — but it is not *completed*: its own terminal event (the
    /// cancellation) was already delivered, and counting it again would
    /// break ticket/event exactly-once.
    ghost: bool,
}

/// A labeled member whose models are on the pool.
struct InFlight {
    s: Survivor,
    outcome: LabelingOutcome,
    /// When its batch was popped: its execute span starts here.
    exec_start: Instant,
    /// The pool admit that took its runs.
    admit: u64,
    /// When its own last model finishes — it is delivered then.
    due: Instant,
    /// When the last of its groups starts.
    last_start: Instant,
}

impl InFlight {
    /// Re-due the member from where `pool` now has its runs, with `wall`
    /// mapping virtual ms to wall time; a group that has finished by the
    /// pool's clock no longer counts. Returns whether `due` moved.
    fn redue(&mut self, pool: &PoolTimeline, wall: impl Fn(u64) -> Instant) -> bool {
        let (mut finish_ms, mut start_ms) = (0, 0);
        for m in &self.outcome.executed {
            if let Some(g) = pool.group_of(self.admit, m.index()) {
                finish_ms = finish_ms.max(g.finish_ms);
                start_ms = start_ms.max(g.start_ms);
            }
        }
        let due = wall(finish_ms);
        let moved = due != self.due;
        (self.due, self.last_start) = (due, wall(start_ms));
        moved
    }
}

/// One worker's view of the server plus its private state.
struct Worker<'a> {
    shared: &'a Shared,
    shard: usize,
    /// Server-wide worker index — the key of this worker's private
    /// observability event ring.
    index: usize,
    queue: &'a ShardQueue,
    /// With adaptation on, the worker's experience tap and its pinned
    /// snapshot predictor; `None` labels through the scheduler's own
    /// frozen predictor, byte-identical to a server without adaptation.
    adapt: Option<WorkerAdapt>,
    local: WorkerLocal,
    runs_per_model: Vec<usize>,
    /// The batch's `(job, runs)` group per model that ran, refilled from
    /// `runs_per_model` by each `batch_admit`.
    groups: Vec<(Job, usize)>,
    /// The worker's virtual GPU pool: every batch streams through it.
    pool: PoolTimeline,
    /// The pool's latest finish, virtual ms.
    pool_end_ms: u64,
    /// The wall instant of virtual ms 0.
    anchor: Instant,
    /// Admitted members not yet delivered, in `due` order.
    in_flight: Vec<InFlight>,
    service: ServiceClock,
}

// ams-lint: begin(no-panic) worker hot loop — a panicking worker strands
// its shard queue and every in-flight ticket on it

/// One worker: pace (deliver what is due, pop) → shed stale / claim →
/// label → batch-admit → stage, until the shard queue closes and drains
/// and the last member is delivered.
pub(super) fn worker_loop(
    shared: &Shared,
    shard: usize,
    index: usize,
    adapt: Option<WorkerAdapt>,
) -> WorkerLocal {
    let n = shared.scheduler.zoo().len();
    let anchor = Instant::now();
    let mut w = Worker {
        shared,
        shard,
        index,
        // One bounds check here instead of one per batch below: the
        // worker is pinned to `shard` for its whole life.
        queue: &shared.queues[shard], // ams-lint: allow(no-panic) shard < queues.len() — workers are spawned one per existing shard
        adapt,
        local: WorkerLocal::new(n, shared.cfg.classes()),
        runs_per_model: vec![0usize; n],
        groups: Vec::with_capacity(n),
        pool: PoolTimeline::new(shared.cfg.pool_mb),
        pool_end_ms: 0,
        anchor,
        in_flight: Vec::new(),
        service: ServiceClock::default(),
    };
    loop {
        let Some((batch, exec_start)) = w.pace(shared.cfg.max_batch) else {
            // Commit what has not started yet: the busy time is the union
            // of committed groups.
            w.pool.advance_to(u64::MAX);
            w.local.virtual_exec_ms = w.pool.busy_ms();
            return w.local;
        };
        // Every member's queue wait and expiry is judged at the pop.
        let survivors = w.claim(batch, exec_start);
        if survivors.is_empty() {
            // The whole round was shed: no batch executed, nothing to
            // observe or charge.
            continue;
        }
        w.batch_started(exec_start, survivors.len());
        let outcomes = w.label(&survivors);
        let admit = w.batch_admit();
        w.stage(survivors, outcomes, exec_start, admit);
    }
}

impl Worker<'_> {
    fn emit(&self, ev: Event) {
        self.shared.emit(Some(self.index), ev);
    }

    /// Wall instant of virtual pool time: `exec_emulation_scale` wall ms
    /// per virtual ms from the anchor (the anchor itself without emulation
    /// — every finish is due at once).
    fn wall(&self) -> impl Fn(u64) -> Instant + use<> {
        let (anchor, scale) = (self.anchor, self.shared.cfg.exec_emulation_scale);
        move |v_ms| {
            if scale > 0.0 {
                let offset = Duration::try_from_secs_f64(v_ms as f64 * scale / 1000.0);
                if let Some(at) = offset.ok().and_then(|d| anchor.checked_add(d)) {
                    return at;
                }
            }
            anchor
        }
    }

    /// Virtual pool time now. Without emulation the pool is infinitely
    /// fast next to the wall clock: it has always drained.
    fn virtual_now(&self) -> u64 {
        let scale = self.shared.cfg.exec_emulation_scale;
        if scale > 0.0 {
            (self.anchor.elapsed().as_secs_f64() * 1000.0 / scale) as u64
        } else {
            self.pool_end_ms
        }
    }

    /// The loop's one pacing call: deliver every member that is due, then
    /// ask the pop gate ([`gate`]) whether the pool can take the next
    /// batch, with the instant it was popped. A held pool sleeps until the
    /// first unstarted group starts; a partial batch sleeps until the next
    /// member is due; a pop with members in flight waits for work only
    /// until that member is due, so none is stranded behind an empty
    /// queue. `None` once the queue is closed and drained and nothing is
    /// in flight.
    fn pace(&mut self, limit: usize) -> Option<(Vec<Request>, Instant)> {
        loop {
            let now = Instant::now();
            self.deliver_due(now);
            let due = self.in_flight.first().map_or(now, |m| m.due);
            let (mut unstarted, mut first_start) = (0, due);
            for m in self.in_flight.iter().filter(|m| m.last_start > now) {
                unstarted += 1;
                first_start = first_start.min(m.last_start);
            }
            let (in_flight, queued) = (self.in_flight.len(), self.queue.live_len());
            let workers = self.shared.cfg.workers_per_shard;
            let until = match gate(in_flight, unstarted, queued, limit, workers) {
                Gate::PopAny => {
                    let (batch, at) = self.pop(limit, None);
                    return (!batch.is_empty()).then_some((batch, at));
                }
                Gate::PopFull => {
                    let (batch, at) = self.pop(limit, Some(due));
                    if !batch.is_empty() {
                        return Some((batch, at));
                    }
                    continue;
                }
                Gate::Hold => first_start,
                Gate::WaitDue => due,
            };
            std::thread::sleep(until.saturating_duration_since(now));
        }
    }

    /// Pop up to `limit` requests, waiting for work until `until`, and
    /// count the time spent as blocked (not busy) for the service hint.
    fn pop(&mut self, limit: usize, until: Option<Instant>) -> (Vec<Request>, Instant) {
        let asked = Instant::now();
        let batch = self.queue.pop_batch_until(limit, until);
        let at = Instant::now();
        self.service.blocked(at.saturating_duration_since(asked));
        (batch, at)
    }

    /// Phase 1 — shed stale, claim the rest.
    ///
    /// Deadline-aware shedding: a request whose queue age at `now` has
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
    fn claim(&mut self, batch: Vec<Request>, now: Instant) -> Vec<Survivor> {
        let mut survivors = Vec::with_capacity(batch.len());
        for req in batch {
            let wait = now.saturating_duration_since(req.enqueued_at);
            if req.expired(now) {
                // An expired leader takes its coalesced followers down
                // with it, whoever owns the leader's own shed event.
                req.fail_cache(ShedReason::Deadline);
                if req.resolve_or_own(|slot| slot.try_shed(ShedReason::Deadline)) {
                    let shed = req.event(EventKind::ShedDeadline, self.shard as u32);
                    self.emit(shed.detail(micros(wait)));
                    let row = self.local.ledger.row(req.class);
                    row.bump(EventKind::ShedDeadline, req.value);
                }
            } else {
                // A cancelled leader with waiters is promoted to ghost —
                // executed for the followers' sake. With no waiters the
                // entry abandons itself and the slot is free for the next
                // submission of the same content.
                let ghost = !req.resolve_or_own(|slot| slot.try_claim());
                if !ghost || req.cache_entry().is_some_and(|e| e.wanted_or_abandon()) {
                    survivors.push(Survivor { req, wait, ghost });
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
        let busy = self.service.batch_started(at, len).map(|(busy, n)| {
            self.queue.publish_batch(busy, n);
            micros(busy)
        });
        let shard = self.shard;
        self.shared
            .observe(|obs| obs.batch_started(shard, len, busy.unwrap_or(0)));
    }

    /// Phase 2 — label each survivor, collecting the batch's per-model run
    /// counts into `runs_per_model`.
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
        self.runs_per_model.fill(0);
        survivors
            .iter()
            .map(|s| {
                let outcome = match &self.adapt {
                    Some(a) => {
                        shared
                            .scheduler
                            .label_item_with(&a.predictor, &s.req.item, shared.budget)
                    }
                    None => shared.scheduler.label_item(&s.req.item, shared.budget),
                };
                for &m in &outcome.executed {
                    self.runs_per_model[m.index()] += 1; // ams-lint: allow(no-panic) m.index() < zoo.len() == runs_per_model.len()
                }
                outcome
            })
            .collect()
    }

    /// Phase 3 — batched admission: one invocation per model over the
    /// whole coalesced batch, streamed into the worker's pool behind what
    /// has started, each run joining its model's open group when there is
    /// one. The bill and the groups opened are charged, the plan's new
    /// end is published to the shard queue (the pool wait both doom tests
    /// price; nothing is published without emulation, where the pool has
    /// always drained), members in flight are re-dued to the re-planned
    /// groups, and the admit's index is returned for staging.
    fn batch_admit(&mut self) -> u64 {
        let cfg = &self.shared.cfg;
        let specs = self.shared.scheduler.zoo().specs();
        self.groups.clear();
        for (id, (spec, &count)) in specs.iter().zip(&self.runs_per_model).enumerate() {
            if count > 0 {
                let job = Job {
                    id,
                    time_ms: spec.time_ms,
                    mem_mb: spec.mem_mb,
                };
                self.groups.push((job, count));
            }
        }
        self.pool.advance_to(self.virtual_now());
        let admitted = self.pool.admit(&self.groups, &cfg.batch_model);
        self.local.virtual_work_ms += admitted.bill_ms;
        self.local.model_invocations += admitted.opened as u64;
        self.pool_end_ms = admitted.end_ms;
        let wall = self.wall();
        if cfg.exec_emulation_scale > 0.0 {
            let worker = self.index % cfg.workers_per_shard;
            self.queue.set_pool_end(worker, wall(admitted.end_ms));
        }
        // A re-plan moves only groups that start after the clock, so no
        // member is delivered before its last group ends.
        let mut moved = false;
        for m in &mut self.in_flight {
            moved |= m.redue(&self.pool, &wall);
        }
        if moved {
            self.in_flight.sort_unstable_by_key(|m| m.due);
        }
        admitted.index
    }

    /// Phase 4 — stage each member for delivery at its own finish: the
    /// latest finish among the groups its runs joined.
    fn stage(
        &mut self,
        survivors: Vec<Survivor>,
        outcomes: Vec<LabelingOutcome>,
        exec_start: Instant,
        admit: u64,
    ) {
        for (s, outcome) in survivors.into_iter().zip(outcomes) {
            let mut m = InFlight {
                s,
                outcome,
                exec_start,
                admit,
                due: self.anchor,
                last_start: self.anchor,
            };
            // Without emulation every member is due at once.
            if self.shared.cfg.exec_emulation_scale > 0.0 {
                m.redue(&self.pool, self.wall());
            }
            let at = self.in_flight.partition_point(|f| f.due <= m.due);
            self.in_flight.insert(at, m);
        }
    }

    /// Deliver every staged member due at `now`: resolve each one (cache fan-out, ledgers, events, the ticket's own `Labeled`
    /// completion). Each is charged its own execute span — its batch's pop
    /// to `now` — on top of its queue wait.
    fn deliver_due(&mut self, now: Instant) {
        let mut staged = std::mem::take(&mut self.in_flight);
        let due = staged.partition_point(|m| m.due <= now);
        if due > 0 {
            let shard = self.shard;
            self.shared.observe(|obs| obs.delivered(shard, due));
            for m in staged.drain(..due) {
                let exec = now.saturating_duration_since(m.exec_start);
                self.deliver(m.s, m.outcome, exec);
            }
        }
        self.in_flight = staged;
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
            // Billed in `batch_admit` (its model runs are in
            // `runs_per_model`), but its own ticket already resolved as
            // cancelled — nothing to complete, record, or deliver.
            let ghost = s.req.event(EventKind::GhostExecuted, self.shard as u32);
            self.emit(ghost.detail(micros(exec)));
            return;
        }
        self.complete(&s, outcome, exec);
    }

    /// Ledger, announce and deliver one labeled request.
    fn complete(&mut self, s: &Survivor, outcome: LabelingOutcome, exec: Duration) {
        let Survivor { req, wait, .. } = s;
        let total = *wait + exec;
        let met = req.deadline_us.is_none_or(|d| micros(total) <= d);
        let shard = self.shard as u32;
        self.emit(req.event(EventKind::Executed, shard).detail(micros(exec)));
        let labeled = req.event(EventKind::Labeled, shard);
        self.emit(labeled.detail(micros(total)).flag(!met));
        let local = &mut self.local;
        local.stats.absorb(&outcome);
        local.queue_wait.record(*wait);
        local.execute.record(exec);
        if let Some(class_total) = local.total.get_mut(req.class) {
            class_total.record(total);
        }
        let row = local.ledger.row(req.class);
        row.bump(EventKind::Labeled, req.value);
        if !met {
            row.bump_late(req.value);
        }
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
                queue_wait_us: micros(*wait),
                execute_us: micros(exec),
                deadline_met: met,
            });
        }
    }
}

// ams-lint: end(no-panic)

#[cfg(test)]
mod tests {
    use super::super::{AmsServer, ServeConfig};
    use super::ServiceClock;
    use ams_core::framework::{AdaptiveModelScheduler, Budget};
    use ams_core::predictor::OraclePredictor;
    use ams_data::{Dataset, DatasetProfile, TruthTable};
    use ams_models::ModelZoo;
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    /// The service hint is busy time between batch starts, blocked time
    /// excluded: 10 ms from start to start with 3 ms blocked on an empty
    /// queue is a 7 ms span for the 4-request batch.
    #[test]
    fn service_clock_publishes_busy_time_between_batch_starts() {
        let t0 = Instant::now();
        let ms = Duration::from_millis;
        let mut clock = ServiceClock::default();
        clock.blocked(ms(5));
        assert_eq!(clock.batch_started(t0, 4), None, "nothing before it");
        clock.blocked(ms(1));
        clock.blocked(ms(2));
        assert_eq!(clock.batch_started(t0 + ms(10), 2), Some((ms(7), 4)));
        // A busy stretch with no blocking counts whole; blocking longer
        // than the gap (clock skew) counts nothing.
        assert_eq!(clock.batch_started(t0 + ms(16), 1), Some((ms(6), 2)));
        clock.blocked(ms(9));
        assert_eq!(clock.batch_started(t0 + ms(20), 1), Some((ms(0), 1)));
    }

    /// The pool end one shard's worker published after labeling 16 items at
    /// `exec_emulation_scale`, µs after the queue's epoch.
    fn published_pool_end_us(exec_emulation_scale: f64) -> u64 {
        let zoo = ModelZoo::standard();
        let ds = Dataset::generate(DatasetProfile::Coco2017, 16, 3);
        let truth = TruthTable::build(&zoo, &zoo.catalog(), &ds, 0.5);
        let predictor = Box::new(OraclePredictor::new(zoo.len(), 0.5));
        let scheduler = AdaptiveModelScheduler::new(zoo, predictor, 0.5, 3);
        let cfg = ServeConfig {
            shards: 1,
            exec_emulation_scale,
            ..ServeConfig::default()
        };
        // Read before the queue exists, the wait is the raw published end.
        let before_epoch = Instant::now();
        let server = AmsServer::start(scheduler, Budget::Deadline { ms: 1000 }, cfg);
        let client = server.client();
        for item in truth.items() {
            assert!(client.submit(Arc::new(item.clone())).is_accepted());
        }
        for _ in truth.items() {
            client.recv().expect("one completion per ticket");
        }
        let end_us = server.shared().queues[0].load(before_epoch).pool_wait_us;
        server.shutdown();
        end_us
    }

    /// Without emulation every member is due at admission: no pool end is
    /// published, so both doom tests price the queue wait alone.
    #[test]
    fn the_pool_wait_is_published_only_under_emulation() {
        assert_eq!(published_pool_end_us(0.0), 0);
        assert!(published_pool_end_us(1e-3) > 0);
    }
}
