//! The end-of-run record: the report types, and the fold that builds a
//! [`ServeReport`] from the ledgers each layer kept while serving.

use super::worker::WorkerLocal;
use super::Shared;
use crate::adapt::AdaptReport;
use crate::cache::CacheReport;
use crate::obs::{EventKind, ObsReport};
use crate::telemetry::{ratio, LatencySummary};
use ams_core::streaming::StreamStats;
use serde::{Deserialize, Serialize};

/// One SLO class's merged ledger: every loss path, the value accounting,
/// and the class's own latency distribution.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ClassReport {
    /// Class index.
    pub class: usize,
    /// Class name.
    pub name: String,
    /// The class's deadline, ms.
    pub deadline_ms: u64,
    /// The class's value weight.
    pub weight: f64,
    /// Requests of this class offered to `submit`.
    pub offered: u64,
    /// Requests labeled to completion.
    pub completed: u64,
    /// Completed requests whose total latency met the class deadline.
    pub deadline_met: u64,
    /// Requests refused at admission (full queue under Reject, or closed).
    pub rejected: u64,
    /// Requests shed by admission control (predicted wait > deadline).
    pub shed_admission: u64,
    /// Requests evicted from a queue on overflow (ShedOldest).
    pub shed_oldest: u64,
    /// Dequeued requests shed because their deadline budget was exhausted.
    pub shed_deadline: u64,
    /// Tickets of this class cancelled before a worker claimed them.
    pub cancelled: u64,
    /// Requests answered from the label cache before admission (exact
    /// content-hash hits; zero queue wait, zero bill).
    pub cache_hit: u64,
    /// Requests coalesced onto an identical in-flight request and
    /// completed by its fan-out (one execution, many completions).
    pub coalesced: u64,
    /// Summed predicted (weighted) value delivered from the cache —
    /// hits plus fanned-out followers. The bill-free share of the
    /// class's banked value.
    pub value_cached: f64,
    /// Summed predicted (weighted) value of the cancelled tickets —
    /// tracked apart from `value_shed`: the *client* withdrew this value,
    /// the service didn't lose it.
    pub value_cancelled: f64,
    /// Summed predicted (weighted) value of offered requests.
    pub value_offered: f64,
    /// Summed value of completed requests — the value the service banked.
    pub value_completed: f64,
    /// The subset of `value_completed` delivered *past* the class
    /// deadline — capacity spent on labels the client had already given
    /// up on. SLO-aware scheduling shrinks this by serving urgent work
    /// first and shedding doomed work before it occupies a slot.
    pub value_late: f64,
    /// Summed value of every non-completed request (all four loss paths)
    /// — the class's value-weighted shed loss.
    pub value_shed: f64,
    /// Total (queue wait + execute) latency of completed requests.
    pub total: LatencySummary,
}

/// The ledger buckets a report publishes, each under the [`EventKind`]
/// that settles it — `offered` (under `Admitted`) first, then the eight
/// terminal buckets a graceful drain can fill. [`ServeReport`] and
/// [`ClassReport`] spell the fields alike, so this reads either.
macro_rules! buckets {
    ($report:expr) => {
        [
            (EventKind::Admitted, $report.offered),
            (EventKind::Labeled, $report.completed),
            (EventKind::CacheHit, $report.cache_hit),
            (EventKind::Coalesced, $report.coalesced),
            (EventKind::ShedAdmission, $report.shed_admission),
            (EventKind::ShedOverflow, $report.shed_oldest),
            (EventKind::ShedDeadline, $report.shed_deadline),
            (EventKind::Rejected, $report.rejected),
            (EventKind::Cancelled, $report.cancelled),
        ]
    };
}

/// The conservation equation over [`buckets!`]: every offered request is
/// accounted for exactly once — labeled, lost on one of the four
/// shed/reject paths, cancelled by its client, answered from the cache, or
/// completed by a coalescing fan-out.
fn conserved([(_, offered), settled @ ..]: [(EventKind, u64); 9]) -> bool {
    offered == settled.iter().map(|&(_, count)| count).sum::<u64>()
}

impl ClassReport {
    /// Every offered request of the class is accounted for exactly once
    /// (completions, all four loss paths, cancellations, and the two
    /// cache buckets — a hit and a fanned-out follower each resolve
    /// exactly one ticket too).
    pub fn is_conserved(&self) -> bool {
        conserved(buckets!(self))
    }

    /// Share of offered requests that completed within the class deadline
    /// (0 when nothing was offered). Offered, not completed, is the
    /// denominator: a shed request missed its deadline as far as the
    /// client is concerned.
    pub fn deadline_met_rate(&self) -> f64 {
        ratio(self.deadline_met, self.offered)
    }
}

/// The merged SLO record (present when the server ran with
/// [`ServeConfig::slo`](super::ServeConfig::slo)).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SloReport {
    /// Whether the SLO-aware behaviors ran (admission control,
    /// value-weighted eviction, earliest-deadline-first dequeue).
    pub aware: bool,
    /// Per-class ledgers, indexed by class.
    pub classes: Vec<ClassReport>,
}

impl SloReport {
    /// The value-weighted shed loss: every unit of offered value that was
    /// *not delivered within its deadline* — shed value plus late-completed
    /// value. A label produced past its deadline is as lost to the client
    /// as a shed one (the deadline is what defines its worth), and counting
    /// it keeps the metric honest: a blind server cannot launder doomed
    /// requests into "banked value" by completing them late. This is the
    /// quantity SLO-aware shedding exists to minimize.
    pub fn value_shed_loss(&self) -> f64 {
        self.classes
            .iter()
            .map(|c| c.value_shed + c.value_late)
            .sum()
    }

    /// Summed banked value across classes.
    pub fn value_completed(&self) -> f64 {
        self.classes.iter().map(|c| c.value_completed).sum()
    }

    /// Summed value delivered past its deadline across classes.
    pub fn value_late(&self) -> f64 {
        self.classes.iter().map(|c| c.value_late).sum()
    }

    /// Share of all offered requests that completed within their class
    /// deadline (0 when nothing was offered).
    pub fn deadline_met_rate(&self) -> f64 {
        let sum = |f: fn(&ClassReport) -> u64| self.classes.iter().map(f).sum();
        ratio(sum(|c| c.deadline_met), sum(|c| c.offered))
    }

    /// Every class ledger balances exactly.
    pub fn is_conserved(&self) -> bool {
        self.classes.iter().all(ClassReport::is_conserved)
    }
}

/// The merged end-of-run serving record.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ServeReport {
    /// Shard count the server ran with.
    pub shards: usize,
    /// Total worker threads.
    pub workers: usize,
    /// Backpressure policy name.
    pub policy: String,
    /// Routing mode name (`"hash"` or `"affinity"`).
    pub routing: String,
    /// Requests routed to their affinity home shard (0 under hash routing).
    pub affinity_hits: u64,
    /// Requests diverted to the least-loaded shard by the load-balance
    /// escape hatch (0 under hash routing).
    pub affinity_spills: u64,
    /// Requests offered to `submit` (accepted + rejected).
    pub offered: u64,
    /// Requests accepted into a queue.
    pub submitted: u64,
    /// Requests labeled to completion.
    pub completed: u64,
    /// Requests refused at admission (full queue under Reject, or closed).
    pub rejected: u64,
    /// Queued requests dropped by the ShedOldest policy.
    pub shed_oldest: u64,
    /// Dequeued requests dropped because their queue age reached their
    /// deadline (the ticket's own, or their SLO class's).
    pub shed_deadline: u64,
    /// Requests shed by SLO admission control before occupying a queue
    /// slot: the shard's predicted wait already exceeded their deadline.
    pub shed_admission: u64,
    /// Tickets cancelled by their clients before a worker claimed them
    /// (exactly one `Cancelled` completion event each).
    pub cancelled: u64,
    /// Requests answered from the label cache before admission (exact
    /// content-hash hits; zero queue wait, zero virtual-GPU bill).
    pub cache_hit: u64,
    /// Requests coalesced onto an identical in-flight request and
    /// completed by its fan-out when the leader resolved.
    pub coalesced: u64,
    /// Batched invocation rounds the workers executed (rounds whose every
    /// member was deadline-shed don't count — no work ran).
    pub batches: u64,
    /// Largest executed (post-shedding) batch observed.
    pub max_batch_observed: usize,
    /// Batched model invocations: one per group opened on a virtual GPU
    /// pool. A later batch's runs that join a model's not-yet-started
    /// group add none, so this counts groups, not `(model, batch)` pairs.
    /// `stats.total_executions / model_invocations` is the mean coalescing
    /// depth — the quantity affinity routing exists to raise.
    pub model_invocations: u64,
    /// Virtual GPU **bill**: the summed batched invocation times
    /// (`Σ batch_time(model, count)`), i.e. GPU-time consumed, independent
    /// of how invocations packed into the pool. Coalescing shrinks it by
    /// deduplicating setup charges; compare with
    /// [`StreamStats::total_exec_ms`], the unbatched serial bill.
    pub virtual_work_ms: u64,
    /// The virtual GPU pools' busy time, ms: per worker, the length of the
    /// union of the intervals in which its pool ran anything (batches
    /// stream through one pool and overlap, so this is not a sum of
    /// per-batch makespans), summed over workers. Batching and pool
    /// parallelism compress it below the serial sum of the same items'
    /// execution times ([`StreamStats::total_exec_ms`]).
    pub virtual_exec_ms: u64,
    /// Wall-clock time requests spent queued.
    pub queue_wait: LatencySummary,
    /// Wall-clock time from a request's batch pop to its own delivery
    /// (label + the pool's run up to its own last model).
    pub execute: LatencySummary,
    /// Queue wait + execute, per request.
    pub total: LatencySummary,
    /// Merged labeling statistics over completed requests — field-for-field
    /// what a serial [`ams_core::streaming::StreamProcessor`] produces over
    /// the same items when nothing is shed.
    pub stats: StreamStats,
    /// Per-class SLO ledgers (when SLO classes were configured).
    pub slo: Option<SloReport>,
    /// Label-cache telemetry (when the cache ran).
    pub cache: Option<CacheReport>,
    /// Final observability fold (when
    /// [`ServeConfig::obs`](super::ServeConfig::obs) ran): the closing
    /// metrics snapshot plus the flight recorder's retained traces.
    pub obs: Option<ObsReport>,
    /// Online-adaptation record (when
    /// [`ServeConfig::adapt`](super::ServeConfig::adapt) ran): final
    /// generation, swap/step/transition counts, and the loss trajectory.
    pub adapt: Option<AdaptReport>,
}

impl ServeReport {
    /// Shed + rejected share of offered load (0 when nothing was offered).
    pub fn shed_rate(&self) -> f64 {
        let shed = self.rejected + self.shed_oldest + self.shed_deadline + self.shed_admission;
        ratio(shed, self.offered)
    }

    /// Every offered request is accounted for exactly once: labeled, lost
    /// on one of the four shed/reject paths, cancelled by its client,
    /// answered from the cache, or completed by a coalescing fan-out.
    /// This is also the exactly-once completion invariant seen from the
    /// ledger side — each bucket except `rejected` delivers exactly one
    /// terminal event per request.
    pub fn is_conserved(&self) -> bool {
        conserved(buckets!(self))
    }

    /// Share of offered requests answered without a fresh execution —
    /// exact cache hits plus coalesced followers (0 when nothing was
    /// offered). The cache's capacity-multiplier headline number.
    pub fn cache_hit_rate(&self) -> f64 {
        ratio(self.cache_hit + self.coalesced, self.offered)
    }

    /// Mean executed requests per batched round (0 when no batch ran).
    pub fn mean_batch_size(&self) -> f64 {
        ratio(self.completed, self.batches)
    }

    /// Mean model executions coalesced per batched invocation (0 when no
    /// invocation ran): how many same-model items shared one setup charge
    /// on the virtual GPU, across batches when a later batch joined an
    /// open group. Routing that groups similar requests raises this; 1.0
    /// means batching bought nothing.
    pub fn mean_coalesced(&self) -> f64 {
        ratio(self.stats.total_executions as u64, self.model_invocations)
    }

    /// Share of the serial virtual GPU bill that batched admission saved,
    /// measured in GPU-time consumed (`1 - virtual_work_ms /
    /// stats.total_exec_ms`; 0 when nothing executed). Pool packing does
    /// not move this number — only coalescing does, so it is the metric
    /// routing quality shows up in.
    pub fn bill_saving_fraction(&self) -> f64 {
        if self.stats.total_exec_ms == 0 {
            return 0.0;
        }
        1.0 - self.virtual_work_ms as f64 / self.stats.total_exec_ms as f64
    }

    /// The lifecycle event stream agrees with the conservation ledger
    /// bucket for bucket: each terminal kind's reconciled total (events
    /// drained + events drop-counted at the channels) equals the matching
    /// `ServeReport` counter, and `spilled` matches the router's spill
    /// count. Vacuously true when observability was off. This is the
    /// cross-check that makes the event stream trustworthy — drops are
    /// counted, never silently lost.
    pub fn events_reconcile(&self) -> bool {
        let Some(obs) = &self.obs else { return true };
        buckets!(self)
            .iter()
            .all(|&(kind, count)| obs.total(kind) == count)
            && obs.total(EventKind::Spilled) == self.affinity_spills
            && obs.total(EventKind::WeightsSwapped) == self.adapt.as_ref().map_or(0, |a| a.swaps)
    }

    /// Share of routed requests that landed on their affinity home shard
    /// (0 when the affinity router never ran — e.g. hash routing).
    pub fn affinity_hit_rate(&self) -> f64 {
        ratio(
            self.affinity_hits,
            self.affinity_hits + self.affinity_spills,
        )
    }
}

/// Fold every ledger into the final report. Runs after the workers joined
/// (`merged` is their summed accumulators) and the trainer finished, so
/// each worker-side resolution is final. Clients hold only weak
/// references, so the shared state is read in place — a client submitting
/// after this point sees closed queues (`Rejected`), and cancellations of
/// still-live tickets keep landing in the shared cancel ledger.
pub(super) fn fold(
    shared: &Shared,
    merged: WorkerLocal,
    adapt_report: Option<AdaptReport>,
) -> ServeReport {
    // One ledger: every layer's rows merged class by class. Followers
    // shed with a failed leader sit in the cache's rows under their real
    // loss path; drain sheds only happen on abort, where no report exists.
    let mut ledger = merged.ledger;
    for stripe in &shared.submit_ledger {
        ledger.merge(&stripe.lock().expect("submit ledger"));
    }
    for q in &shared.queues {
        ledger.merge(&q.ledger());
    }
    ledger.merge(&shared.cancel_ledger.lock().expect("cancel ledger"));
    if let Some(cache) = &shared.cache {
        ledger.merge(&cache.ledger().lock().expect("cache ledger"));
    }
    // A class nothing was ever offered in still reports its (zero) row.
    ledger.row(shared.cfg.classes() - 1);
    // The final observability fold. `report` drains the channels one last
    // time, and the order matters: every ledger above was read first,
    // and `Ledger::settle` pushes each event onto its channel *before* its
    // ledger entry becomes visible — so the drain can only see a superset of the
    // settlements the counters above counted, never miss one
    // (`events_reconcile` depends on this).
    let obs_report = shared.obs.as_ref().map(|o| {
        o.report(
            &shared.shard_samples(),
            shared.cache_gauges(),
            adapt_report.as_ref().map(|a| a.generation),
        )
    });
    let slo = shared.cfg.slo.as_ref().map(|slo_cfg| SloReport {
        aware: slo_cfg.aware,
        classes: slo_cfg
            .classes
            .iter()
            .zip(ledger.rows())
            .enumerate()
            .map(|(i, (c, row))| ClassReport {
                class: i,
                name: c.name.clone(),
                deadline_ms: c.deadline_ms,
                weight: c.weight,
                offered: row.count(EventKind::Admitted),
                completed: row.count(EventKind::Labeled),
                deadline_met: row.count(EventKind::Labeled) - row.late().count,
                rejected: row.count(EventKind::Rejected),
                shed_admission: row.count(EventKind::ShedAdmission),
                shed_oldest: row.count(EventKind::ShedOverflow),
                shed_deadline: row.count(EventKind::ShedDeadline),
                cancelled: row.count(EventKind::Cancelled),
                cache_hit: row.count(EventKind::CacheHit),
                coalesced: row.count(EventKind::Coalesced),
                value_cached: row.value(EventKind::CacheHit) + row.value(EventKind::Coalesced),
                value_cancelled: row.value(EventKind::Cancelled),
                value_offered: row.value(EventKind::Admitted),
                value_completed: row.value(EventKind::Labeled),
                value_late: row.late().value,
                value_shed: row.sum(|k| k.is_shed() || k == EventKind::Rejected).value,
                total: row.latency().summary(),
            })
            .collect(),
    });
    // Top-level counters are the sum over classes.
    let all = ledger.total();
    ServeReport {
        shards: shared.cfg.shards,
        workers: shared.cfg.shards * shared.cfg.workers_per_shard,
        policy: shared.cfg.policy.name().to_string(),
        routing: shared.router.mode().name().to_string(),
        affinity_hits: shared.router.affinity_hits(),
        affinity_spills: shared.router.affinity_spills(),
        offered: all.count(EventKind::Admitted),
        submitted: all.count(EventKind::Enqueued),
        completed: all.count(EventKind::Labeled),
        rejected: all.count(EventKind::Rejected),
        shed_oldest: all.count(EventKind::ShedOverflow),
        shed_deadline: all.count(EventKind::ShedDeadline),
        shed_admission: all.count(EventKind::ShedAdmission),
        cancelled: all.count(EventKind::Cancelled),
        cache_hit: all.count(EventKind::CacheHit),
        coalesced: all.count(EventKind::Coalesced),
        batches: merged.batches,
        max_batch_observed: merged.max_batch_observed,
        model_invocations: merged.model_invocations,
        virtual_work_ms: merged.virtual_work_ms,
        virtual_exec_ms: merged.virtual_exec_ms,
        queue_wait: merged.queue_wait.summary(),
        execute: merged.execute.summary(),
        total: all.latency().summary(),
        stats: merged.stats,
        slo,
        cache: shared.cache.as_ref().map(|c| c.report()),
        obs: obs_report,
        adapt: adapt_report,
    }
}
