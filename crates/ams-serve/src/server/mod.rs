//! The serving front-end: sharded bounded queues feeding per-shard worker
//! pools over one shared [`AdaptiveModelScheduler`].
//!
//! Life of a request: `submit` routes the item to a shard — by scene-id
//! hash, or by *model affinity* (see [`crate::router`]) so that requests
//! predicted to run the same models coalesce on the same shard — and
//! pushes it into that shard's queue under the configured backpressure
//! policy. A shard worker pops up to [`ServeConfig::max_batch`] requests,
//! sheds requests whose age has already exhausted their deadline, labels
//! the rest through the scheduler, coalesces the batch's model
//! executions into batched invocations on the virtual GPU pool (the
//! `ams-sim` batching model — one memory acquisition and one setup charge
//! per model, marginal cost per extra item), and records the queue-wait /
//! execute latency split. `shutdown` closes the queues,
//! drains every worker gracefully, and merges the per-worker shards into
//! one [`ServeReport`].
//!
//! ## The client API
//!
//! [`AmsServer::client`] opens a request/response [`Client`]: its
//! `submit`/`submit_with` return `SubmitOutcome<Ticket>`, where the
//! [`Ticket`](crate::Ticket) is a cancellable handle tied to exactly one
//! terminal [`Completion`](crate::Completion) event — `Labeled` (the request's own labels, chosen
//! models, value banked, queue-wait/execute breakdown), `Shed` (which
//! loss path took it, delivered at eviction time), or `Cancelled`.
//! Events arrive on the client's bounded completion queue
//! ([`Client::recv`] / [`Client::try_recv`] / [`Client::drain`]). A
//! [`Client`] is the only submit surface: every request the server admits
//! carries a ticket, so aggregate-only callers simply never drain theirs.
//! Dropping an [`AmsServer`] without calling `shutdown` aborts it:
//! queued-but-unserved requests resolve to `Shed(Drain)` and every worker
//! is joined — no detached threads survive the drop.
//!
//! ## Layout
//!
//! This module keeps [`AmsServer`] start, shutdown and abort over the
//! shared state; the rest is one small module per concern: `config` (the
//! knobs and their normalisation), `submit` ([`Client`] and the admission
//! path), `worker` (the shard hot loop, doing the steps of the clock-free
//! `WorkerCore` that owns its order of phases, pool plan and pacing) and
//! `report` (the report types and the end-of-run fold).

mod config;
mod report;
mod submit;
mod worker;

pub use config::{ServeConfig, SloClass, SloConfig};
pub use report::{ClassReport, ServeReport, SloReport};
pub use submit::{Client, SubmitOptions};

use crate::adapt::{AdaptRuntime, AdaptShared, WorkerAdapt};
use crate::cache::LabelCache;
use crate::completion::{CancelLedger, CompletionQueue, ShedReason};
use crate::ledger::Ledger;
use crate::obs::{
    Aggregator, CacheGauges, Event, EventKind, MetricsSnapshot, ServerObs, ShardSample,
    TraceReport, NO_SHARD,
};
use crate::queue::ShardQueue;
use crate::router::{fib_shard, Router};
use crate::telemetry::ratio;
use ams_core::framework::{AdaptiveModelScheduler, Budget};
use ams_data::ItemTruth;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;
use worker::{worker_loop, WorkerLocal};

/// Shared server state (queues + router + scheduler), behind one `Arc`.
struct Shared {
    /// The instant every shard queue's µs count from.
    epoch: Instant,
    queues: Vec<ShardQueue>,
    router: Router,
    scheduler: AdaptiveModelScheduler,
    budget: Budget,
    cfg: ServeConfig,
    /// Monotone request ids — the observability correlation key, and the
    /// stripe key of `submit_ledger`.
    next_req: AtomicU64,
    /// Monotone ticket ids, unique across every client of this server.
    next_ticket: AtomicU64,
    /// The cancellation ledger live tickets record into (shared with the
    /// ticket slots by `Arc`, so a cancellation from any thread — even
    /// after the server wound down — lands in one place).
    cancel_ledger: Arc<CancelLedger>,
    /// The submit path's ledgers (offered, enqueued, rejected,
    /// admission-shed), striped by request id like the submit-side event
    /// channels — a cache hit or a follower is offered without ever taking a
    /// shard, and one global ledger lock would serialize every submitter.
    submit_ledger: Vec<Mutex<Ledger>>,
    /// The content-addressed label cache (present when
    /// [`ServeConfig::cache`] is configured).
    cache: Option<Arc<LabelCache>>,
    /// The live observability pipeline (present when [`ServeConfig::obs`]
    /// is configured) — shared with the queues, the cache, and every
    /// ticket slot so each layer can stamp its own lifecycle events.
    obs: Option<Arc<ServerObs>>,
    /// The adaptation state shared with the trainer thread (present when
    /// [`ServeConfig::adapt`] is configured) — read here only for the
    /// live `adapt_generation` gauge; workers carry their own taps.
    adapt: Option<Arc<AdaptShared>>,
}

impl Shared {
    /// Run `f` against the observability pipeline when it is on — the one
    /// place the serving paths check.
    fn observe(&self, f: impl FnOnce(&ServerObs)) {
        if let Some(obs) = &self.obs {
            f(obs);
        }
    }

    /// Record one lifecycle event — on worker `worker`'s private channel, or
    /// from a submit-side thread (`None`).
    fn emit(&self, worker: Option<usize>, ev: Event) {
        self.observe(|obs| match worker {
            Some(w) => obs.emit_worker(w, ev),
            None => obs.emit(ev),
        });
    }

    /// One racy-but-consistent gauge sample per shard: the live queue
    /// depth, the published drain hint, and the queue wait
    /// [`ShardQueue::estimated_wait_us`] prices spill routing with.
    /// Neither price reads the pool wait, so each load is read at the
    /// epoch: no clock read.
    fn shard_samples(&self) -> Vec<ShardSample> {
        self.queues
            .iter()
            .map(|q| {
                // One read of each input, priced here, so a pop or a first
                // published hint cannot split the sample.
                let (depth, load) = (q.live_len(), q.load(0));
                ShardSample {
                    depth: depth as u64,
                    service_hint_us: load.hint_us(),
                    estimated_wait_us: load.queue_wait_us(depth),
                }
            })
            .collect()
    }

    /// Cache occupancy gauges for a snapshot (`None` when the cache is off).
    fn cache_gauges(&self) -> Option<CacheGauges> {
        self.cache.as_ref().map(|c| {
            let r = c.report();
            let served = c.ledger().lock().expect("cache ledger").total();
            let hits = served.count(EventKind::CacheHit) + served.count(EventKind::Coalesced);
            CacheGauges {
                entries: r.entries,
                bytes: r.bytes,
                capacity_bytes: r.capacity_bytes,
                hit_rate: ratio(hits, self.next_req.load(Ordering::Relaxed)),
            }
        })
    }
}

/// The sharded serving front-end.
///
/// ```
/// use ams_core::framework::{AdaptiveModelScheduler, Budget};
/// use ams_core::predictor::OraclePredictor;
/// use ams_data::{Dataset, DatasetProfile, TruthTable};
/// use ams_models::ModelZoo;
/// use ams_serve::{AmsServer, ServeConfig};
/// use std::sync::Arc;
///
/// let zoo = ModelZoo::standard();
/// let ds = Dataset::generate(DatasetProfile::Coco2017, 8, 42);
/// let truth = TruthTable::build(&zoo, &zoo.catalog(), &ds, 0.5);
/// let predictor = Box::new(OraclePredictor::new(zoo.len(), 0.5));
/// let scheduler = AdaptiveModelScheduler::new(zoo, predictor, 0.5, 42);
///
/// let server = AmsServer::start(scheduler, Budget::Deadline { ms: 1000 }, ServeConfig::default());
/// let client = server.client();
/// for item in truth.items() {
///     client.submit(Arc::new(item.clone()));
/// }
/// let report = server.shutdown();
/// assert_eq!(report.completed, 8);
/// assert!(report.is_conserved());
/// ```
pub struct AmsServer {
    /// `Some` until `shutdown` consumes the server; `None` afterwards so
    /// the `Drop` impl knows a graceful drain already happened.
    inner: Option<ServerInner>,
}

/// The live server: shared state plus the joinable worker handles.
struct ServerInner {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<WorkerLocal>>,
    /// The observability aggregator thread (present when
    /// [`ServeConfig::obs`] is configured); stopped at shutdown/abort.
    aggregator: Option<Aggregator>,
    /// The adaptation runtime (present when [`ServeConfig::adapt`] is
    /// configured): holds the trainer thread, joined after the workers so
    /// channel disconnect is its natural stop signal.
    adapt: Option<AdaptRuntime>,
}

impl AmsServer {
    /// Spin up the shard queues, the router, and the worker threads.
    pub fn start(scheduler: AdaptiveModelScheduler, budget: Budget, cfg: ServeConfig) -> Self {
        let cfg = cfg.normalized();
        let aware = cfg.slo.as_ref().is_some_and(|s| s.aware);
        let obs = cfg
            .obs
            .clone()
            .map(|o| Arc::new(ServerObs::new(o, cfg.shards, cfg.workers_per_shard)));
        // One epoch for every shard: a follower's wait starts on the
        // submitter's clock and ends on its leader's worker's.
        let epoch = Instant::now();
        let queues: Vec<ShardQueue> = (0..cfg.shards)
            .map(|shard| {
                ShardQueue::with_slo(cfg.queue_capacity, cfg.policy, aware, aware)
                    .with_epoch(epoch)
                    .with_obs(shard as u32, obs.clone())
                    .with_workers(cfg.workers_per_shard)
            })
            .collect();
        let submit_ledger = (0..cfg.shards).map(|_| Mutex::default()).collect();
        // Without SLO classes nothing consumes `Route::value`, so hash
        // routing skips the per-submission value scan.
        let mut router = Router::new(cfg.routing, cfg.shards);
        if cfg.slo.is_none() {
            router = router.without_hash_value_scan();
        }
        // Boot the adaptation runtime (cell at generation 0 + trainer
        // thread) before the workers so every worker's tap can pin the
        // boot snapshot on its first batch.
        let adapt = cfg
            .adapt
            .as_ref()
            .map(|a| AdaptRuntime::start(a, obs.clone()));
        let shared = Arc::new(Shared {
            epoch,
            router,
            queues,
            scheduler,
            budget,
            next_req: AtomicU64::new(0),
            next_ticket: AtomicU64::new(0),
            cancel_ledger: Arc::default(),
            submit_ledger,
            cache: cfg.cache.map(|_| LabelCache::new(obs.clone())),
            obs,
            adapt: adapt.as_ref().map(|r| Arc::clone(&r.shared)),
            cfg,
        });
        let workers = (0..shared.cfg.shards * shared.cfg.workers_per_shard)
            .map(|w| {
                let shared = Arc::clone(&shared);
                let shard = w / shared.cfg.workers_per_shard;
                // Each worker owns its tap (sender clone + snapshot pin);
                // when the workers join, the tap clones drop and the
                // trainer's channel disconnects.
                let tap = adapt.as_ref().map(|r| WorkerAdapt::new(r.tap()));
                crate::spawn_named(format!("ams-worker-{shard}"), move || {
                    worker_loop(&shared, shard, w, tap)
                })
            })
            .collect();
        let aggregator = shared
            .obs
            .as_ref()
            .map(|o| Aggregator::spawn(Arc::clone(o)));
        Self {
            inner: Some(ServerInner {
                shared,
                workers,
                aggregator,
                adapt,
            }),
        }
    }

    fn shared(&self) -> &Arc<Shared> {
        &self
            .inner
            .as_ref()
            .expect("server alive until shutdown")
            .shared
    }

    /// Open a request/response [`Client`] with the default completion
    /// window (1024 outstanding tickets). Any number of clients may run
    /// concurrently; each gets its own completion queue, and completion
    /// events route to the client that issued the ticket.
    pub fn client(&self) -> Client {
        self.client_with_capacity(Client::DEFAULT_CAPACITY)
    }

    /// [`AmsServer::client`] with an explicit completion-window capacity:
    /// at most `capacity` tickets may be outstanding (issued but their
    /// completion events not yet consumed); `submit` blocks past that
    /// until the client drains. Size it at least as large as the deepest
    /// submit burst between drains (see `PERF.md`, "Completion-queue
    /// sizing").
    pub fn client_with_capacity(&self, capacity: usize) -> Client {
        Client {
            shared: Arc::downgrade(self.shared()),
            queue: Arc::new(CompletionQueue::new(capacity)),
            cancel_ledger: Arc::clone(&self.shared().cancel_ledger),
        }
    }

    /// The shard an item routes to ([`fib_shard`] of the scene id — the
    /// hash mode's home shard, shared with the router so the constants
    /// cannot drift). Under affinity routing the live router may divert a
    /// submission elsewhere; this accessor stays the stable hash-partition
    /// answer.
    pub fn shard_of(&self, item: &ItemTruth) -> usize {
        fib_shard(item.scene_id, self.shared().cfg.shards)
    }

    /// Models in the scheduler's zoo — the shape every served item must
    /// have (the TCP front-end checks what it decodes against it).
    pub(crate) fn num_models(&self) -> usize {
        self.shared().scheduler.zoo().len()
    }

    /// Requests currently queued across all shards and still wanting
    /// service (racy snapshot) — cancellation tombstones excluded, so the
    /// number agrees with the per-shard `depth` gauges and with what
    /// admission control prices.
    pub fn pending(&self) -> usize {
        self.shared().queues.iter().map(ShardQueue::live_len).sum()
    }

    /// A live metrics snapshot *while the server is running*: event
    /// totals, in-flight and outstanding-ticket gauges, per-shard queue
    /// depth / wait estimate / busy fraction,
    /// per-class admission and deadline rates (lifetime ratios), cache
    /// occupancy, and the latency histogram since start — all without
    /// stopping a single worker (the channels are drained opportunistically
    /// first so the numbers are current). `None` when [`ServeConfig::obs`]
    /// is off.
    pub fn metrics_snapshot(&self) -> Option<MetricsSnapshot> {
        let shared = self.shared();
        shared.obs.as_ref().map(|o| {
            o.snapshot(
                &shared.shard_samples(),
                shared.cache_gauges(),
                shared.adapt.as_ref().map(|a| a.generation()),
            )
        })
    }

    /// Prometheus-style text exposition of [`AmsServer::metrics_snapshot`]
    /// (`# HELP`/`# TYPE` families). A single comment line when
    /// observability is off, so scrapers always get well-formed text.
    pub fn render_metrics(&self) -> String {
        self.metrics_snapshot().map_or_else(
            || "# ams observability disabled\n".to_string(),
            |s| s.render_prometheus(),
        )
    }

    /// Flight-recorder dump for one settled "interesting" request
    /// (deadline miss, any shed path, or a cancellation), by request or
    /// ticket id: the complete causal event trace the recorder retained.
    /// `None` when observability is off, the id never settled
    /// interestingly, or the bounded recorder already evicted it.
    pub fn why(&self, id: u64) -> Option<TraceReport> {
        self.shared().obs.as_ref()?.why(id)
    }

    /// Close admission, drain every queue through the workers, join them,
    /// and merge the per-worker shards into the final report.
    pub fn shutdown(mut self) -> ServeReport {
        self.inner
            .take()
            .expect("server alive until shutdown")
            .shutdown()
    }
}

impl Drop for AmsServer {
    /// Abort on drop (when [`AmsServer::shutdown`] was never called):
    /// close every queue *discarding* its backlog — each queued request's
    /// ticket resolves to `Shed(Drain)`, so clients still get their one
    /// terminal event — and join every worker. A dropped server leaves no
    /// detached threads behind; in-flight batches finish and deliver
    /// normally. Use `shutdown` for the graceful drain-everything exit.
    fn drop(&mut self) {
        if let Some(inner) = self.inner.take() {
            inner.abort();
        }
    }
}

impl ServerInner {
    /// The abort path (`Drop` without `shutdown`): discard queued work,
    /// notify its tickets, join the workers, drop the report.
    fn abort(self) {
        for q in &self.shared.queues {
            for victim in q.abort() {
                // A discarded coalescing leader drains its followers too.
                victim.fail_cache(ShedReason::Drain);
                if victim.resolve_or_own(|slot| slot.try_shed(ShedReason::Drain)) {
                    self.shared
                        .emit(None, victim.event(EventKind::ShedDrain, NO_SHARD));
                }
            }
        }
        for handle in self.workers {
            // Don't double-panic while unwinding: a worker that died
            // already reported its panic.
            let _ = handle.join();
        }
        if let Some(adapt) = self.adapt {
            adapt.abort();
        }
        if let Some(aggregator) = self.aggregator {
            let _ = aggregator.stop();
        }
    }

    fn shutdown(self) -> ServeReport {
        for q in &self.shared.queues {
            q.close();
        }
        let num_models = self.shared.scheduler.zoo().len();
        let mut merged = WorkerLocal::new(num_models);
        for handle in self.workers {
            merged.merge(&handle.join().expect("serve worker panicked"));
        }
        // Finish the trainer after the workers joined (their tap senders
        // are gone, so dropping the runtime's own sender disconnects the
        // channel and the trainer drains out) but *before* the
        // observability stop below: the trainer's tail swap events must
        // still land in the channels for the final drain to reconcile.
        let adapt_report = self.adapt.map(AdaptRuntime::finish);
        // Stop the observability aggregator only after the workers joined:
        // every worker-side event is in its channel by now, and the final
        // drain (inside `report::fold`) folds the stragglers in.
        if let Some(aggregator) = self.aggregator {
            aggregator.stop().expect("obs aggregator panicked");
        }
        report::fold(&self.shared, merged, adapt_report)
    }
}
