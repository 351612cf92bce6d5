//! # ams-serve — sharded serving front-end
//!
//! The paper's motivating deployments (image-retrieval ingestion, album
//! indexing, surveillance) are continuous services, not batch jobs. This
//! crate turns the labeling engine into one:
//!
//! * [`completion`] — the request/response half of the client API:
//!   cancellable [`Ticket`]s, terminal [`Completion`] events (per-request
//!   labels / shed reason / cancelled), and the bounded per-client
//!   completion queue they arrive on.
//! * [`cache`] — a sharded, lock-striped, content-addressed label cache
//!   keyed by the full-content scene fingerprint: exact repeats are
//!   answered before admission with zero virtual-GPU bill, duplicates of
//!   queued or in-flight requests coalesce onto the leader and fan out
//!   when it resolves, and eviction is priced in SLO value units
//!   (value-per-byte × recency) under a bounded byte budget.
//! * [`queue`] — bounded per-shard admission queues with selectable
//!   backpressure (block / reject / shed-oldest); queued entries carry
//!   their ticket's completion slot so eviction notifies its victims.
//!   `ams_sim::shard::QueueCore` decides (admission, eviction, EDF and
//!   batch assembly as pure functions of the queue's state and a `now_us`
//!   it is handed) and `ams_sim::shard::Load` prices a shard's wait. The
//!   [`ShardQueue`] shell holds the published signals, locks, reads the
//!   clock once per lock hold, sheds an evicted victim, and settles each
//!   decision's event and ledger entry under that lock.
//! * [`router`] — request routing: scene-id hash, or *model-affinity*
//!   routing that steers requests with matching predicted model sets onto
//!   the same shard (bigger same-model batches) with a least-loaded spill
//!   hatch.
//! * [`server`] — the [`AmsServer`]: sharded queues, a worker pool per
//!   shard over one shared
//!   [`AdaptiveModelScheduler`](ams_core::framework::AdaptiveModelScheduler),
//!   deadline-aware load shedding, batched admission into each worker's
//!   `ams-sim` virtual GPU pool (planned and paced in µs by the clock-free
//!   `ams_sim::shard::WorkerCore`; the worker shell reads the clock), optional **SLO-aware
//!   admission and shedding** (per-request deadline + value classes,
//!   predicted-wait admission control, value-weighted overflow eviction,
//!   EDF dequeue, per-class ledgers), and graceful drain on shutdown.
//! * [`net`] — the TCP front-end: a blocking `std::net` listener
//!   speaking the ticket protocol over compact length-prefixed binary
//!   frames ([`wire`] owns the frame types and their byte layout: a
//!   hand-written typed codec, one tag byte and fixed field order per
//!   frame). One persistent connection multiplexes many tickets
//!   (client-chosen request ids echoed in completions), the
//!   per-connection completion window is the flow control (a full window
//!   stops socket reads, so TCP backpressure mirrors the in-process
//!   bound), disconnect cancels the connection's outstanding tickets,
//!   and the [`net::NetClient`] mirrors the in-process [`Client`] API so
//!   callers can swap transports without code changes.
//! * [`obs`] — the live observability layer: a structured lifecycle
//!   event stream (bounded std channels, one per worker and one per
//!   shard's submit side, sent to without blocking and drop-counted when
//!   full, drained by a background aggregator), a cumulative metrics registry behind
//!   [`AmsServer::metrics_snapshot`] / [`AmsServer::render_metrics`],
//!   and a flight recorder that retains
//!   the complete causal trace of the last N sheds, deadline misses, and
//!   cancellations ([`AmsServer::why`]). Event totals reconcile
//!   bucket-for-bucket against the [`ServeReport`] conservation ledger
//!   ([`ServeReport::events_reconcile`]).
//! * [`telemetry`] — per-request latency histograms split into queue wait
//!   vs execute, published as p50/p95/p99 summaries.
//! * [`adapt`] — online adaptation: a background trainer taps served
//!   outcomes over a bounded experience channel, learns on them
//!   ([`ams_rl::OnlineTrainer`]), and hot-swaps updated agent weights
//!   into the predict path through a generation-counted snapshot cell —
//!   workers pin one coherent snapshot per batch with a single atomic
//!   load. With [`ServeConfig::adapt`] unset, the serving path is
//!   byte-identical to a server built without the module.
//!
//! Served statistics are *exact*: per-item labeling is deterministic and
//! every [`StreamStats`](ams_core::streaming::StreamStats) field is an
//! order-independent sum, so when no request is shed the merged
//! [`ServeReport::stats`] equal what the serial
//! [`StreamProcessor`](ams_core::streaming::StreamProcessor) produces over
//! the same items — sharding and batching change *when* work runs and what
//! it costs, never what it computes.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod adapt;
pub mod cache;
pub mod completion;
mod ledger;
pub mod net;
pub mod obs;
pub mod queue;
pub mod router;
pub mod server;
pub mod telemetry;
pub mod wire;

pub use adapt::{AdaptConfig, AdaptReport};
pub use cache::{CacheConfig, CacheReport};
pub use completion::{Completion, LabelResult, ShedReason, Ticket};
pub use net::{ClientFrame, NetClient, NetEvent, NetServer, ServerFrame, WireError, WireRequest};
pub use obs::{
    CacheGauges, ClassRates, EventCount, EventKind, EventRecord, MetricsSnapshot, ObsConfig,
    ObsReport, ShardGauges, TraceReport,
};
pub use queue::{BackpressurePolicy, Request, ShardQueue, SubmitOutcome};
pub use router::{fib_shard, AffinityConfig, Route, Router, RoutingMode};
pub use server::{
    AmsServer, ClassReport, Client, ServeConfig, ServeReport, SloClass, SloConfig, SloReport,
    SubmitOptions,
};
pub use telemetry::{LatencyHistogram, LatencySummary};

/// Spawn one of the server's threads under `name` (at most 15 bytes, all
/// Linux keeps of it in `comm`), so `/proc/<pid>/task/*/comm`, profilers
/// and panic messages tell the threads apart. Panics when the thread
/// cannot be created, as `std::thread::spawn` does.
pub(crate) fn spawn_named<F, T>(name: impl Into<String>, f: F) -> std::thread::JoinHandle<T>
where
    F: FnOnce() -> T + Send + 'static,
    T: Send + 'static,
{
    let name = name.into();
    debug_assert!(name.len() <= 15, "thread name `{name}` is truncated");
    std::thread::Builder::new()
        .name(name)
        .spawn(f)
        .expect("failed to spawn thread")
}
