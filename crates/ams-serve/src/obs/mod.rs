//! Live observability: lifecycle event stream, cumulative metrics
//! registry, and a shed/deadline-miss flight recorder.
//!
//! Everything the server publishes elsewhere is an end-of-run aggregate —
//! [`ServeReport`](crate::server::ServeReport) only exists at drain. This
//! module makes the same accounting observable *while serving*:
//!
//! * **Lifecycle event stream** — every request emits typed [`Event`]s
//!   (admitted, cache-hit, coalesced, enqueued, spilled, batched,
//!   executed, labeled, shed-with-reason, cancelled, ghost-executed)
//!   stamped with a microsecond clock and correlation ids. Events are
//!   recorded through bounded std channels (`sync_channel`) — one per
//!   worker plus one per shard for the submit side — with a non-blocking
//!   `try_send`, so the hot path never waits: when a channel is full the
//!   event is *dropped and counted* per kind, keeping totals honest.
//! * **Metrics registry** — a background aggregator thread drains the
//!   channels into cumulative per-kind and per-class totals, the
//!   total-latency histogram among them. Snapshots are served live via
//!   [`MetricsSnapshot`] (serde) and a Prometheus-style text exposition,
//!   and the final snapshot is folded into the drain report as
//!   [`ObsReport`].
//! * **Flight recorder** — the complete causal event trace of the last N
//!   "interesting" requests (every shed path, deadline-missed labels,
//!   cancellations and their ghost executions) retained in a bounded
//!   ring, with a [`why`](ObsReport::why)-style dump for post-mortems.
//!
//! The stream is gated like everything else in this repo: per-kind event
//! totals (drained + dropped) must reconcile bucket-for-bucket with the
//! `ServeReport` conservation ledger
//! (`ServeReport::events_reconcile`), and the measured obs-on vs obs-off
//! capacity cost is bounded at ≤2% in `bench_serve`.
//!
//! ## Layout
//!
//! `event` (the event and its kinds), `recorder` (the flight recorder
//! and its trace reports) and `expose` (the snapshot types, the fold that
//! builds them, [`ObsReport`] and the Prometheus rendering); this file
//! holds the config, the registry, the server-side handle and its hot
//! path, and the aggregator thread.

mod event;
mod expose;
mod recorder;

pub use event::{Event, EventKind, KIND_COUNT, NO_SHARD, NO_TICKET};
pub(crate) use expose::ShardSample;
pub use expose::{CacheGauges, ClassRates, EventCount, MetricsSnapshot, ObsReport, ShardGauges};
pub use recorder::{EventRecord, TraceReport};

use crate::ledger::Ledger;
use recorder::{FlightRecorder, RECORDER_CAPACITY};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Tuning for the observability pipeline. `ServeConfig::obs: None` (the
/// default) disables the whole layer — no channels, no aggregator thread,
/// and a branch-on-`None` as the only hot-path residue.
#[derive(Debug, Clone, PartialEq)]
pub struct ObsConfig {
    /// Slots per event channel, min 8. One channel per worker plus one
    /// per shard for the submit side.
    pub ring_capacity: usize,
    /// Aggregator wake period. Channels are also drained opportunistically
    /// whenever a snapshot is taken.
    pub drain_interval_ms: u64,
}

impl Default for ObsConfig {
    fn default() -> Self {
        Self {
            ring_capacity: 8192,
            drain_interval_ms: 5,
        }
    }
}

/// The aggregator's state: the receiving end of every event channel and
/// everything drained out of them.
struct Registry {
    /// `ServerObs::channels`' receivers, in the same order.
    channels: Vec<Receiver<Event>>,
    /// Per-class event counts and labeled latency in the conservation
    /// ledger's own row shape (values stay zero — events carry none), fed
    /// only by `drain`.
    by_class: Ledger,
    recorder: FlightRecorder,
}

impl Registry {
    fn new(channels: Vec<Receiver<Event>>) -> Self {
        Self {
            channels,
            by_class: Ledger::default(),
            recorder: FlightRecorder::sized(RECORDER_CAPACITY),
        }
    }

    /// Count every queued event by the ledger's own rule, its "emit"
    /// being the flight recorder.
    fn drain(&mut self) {
        let Self {
            channels,
            by_class,
            recorder,
        } = self;
        for ev in channels.iter().flat_map(Receiver::try_iter) {
            by_class.settle(ev, 0.0, |ev| {
                // Swap events carry no request id — feeding their sentinel
                // `req` to the recorder would open a trace that can never
                // settle.
                if ev.kind != EventKind::WeightsSwapped {
                    recorder.observe(ev);
                }
            });
        }
    }
}

/// The live observability pipeline: event channels, hot-path gauges, and the
/// aggregator-owned registry. One per server, shared by every worker,
/// queue, cache, and completion slot via `Arc`.
pub(crate) struct ServerObs {
    drain_interval: Duration,
    start: Instant,
    shards: usize,
    workers_per_shard: usize,
    channels: Vec<SyncSender<Event>>,
    dropped: Vec<AtomicU64>,
    executing: Vec<AtomicU64>,
    busy_us: Vec<AtomicU64>,
    batches: Vec<AtomicU64>,
    batch_fill: Vec<AtomicU64>,
    tickets_issued: AtomicU64,
    tickets_resolved: AtomicU64,
    registry: Mutex<Registry>,
    stop: AtomicBool,
}

impl std::fmt::Debug for ServerObs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServerObs")
            .field("shards", &self.shards)
            .field("workers_per_shard", &self.workers_per_shard)
            .field("channels", &self.channels.len())
            .finish_non_exhaustive()
    }
}

impl ServerObs {
    pub(crate) fn new(cfg: ObsConfig, shards: usize, workers_per_shard: usize) -> Self {
        let shards = shards.max(1);
        let workers_per_shard = workers_per_shard.max(1);
        let (channels, receivers) = (0..shards + shards * workers_per_shard)
            .map(|_| sync_channel(cfg.ring_capacity.max(8)))
            .unzip();
        let counters = |n: usize| (0..n).map(|_| AtomicU64::new(0)).collect();
        Self {
            registry: Mutex::new(Registry::new(receivers)),
            drain_interval: Duration::from_millis(cfg.drain_interval_ms.max(1)),
            start: Instant::now(),
            shards,
            workers_per_shard,
            channels,
            dropped: counters(KIND_COUNT),
            executing: counters(shards),
            busy_us: counters(shards),
            batches: counters(shards),
            batch_fill: counters(shards),
            tickets_issued: AtomicU64::new(0),
            tickets_resolved: AtomicU64::new(0),
            stop: AtomicBool::new(false),
        }
    }

    /// Microseconds since server start (the event clock).
    pub(crate) fn now_us(&self) -> u64 {
        self.start.elapsed().as_micros() as u64
    }

    // No-panic zone (LINTS.md), `emit`, `emit_worker` and `record`: the
    // emit paths are called from every submit and every worker iteration;
    // an event must never be able to kill a worker.

    /// Stamp and record an event from a submit-side thread (channel keyed
    /// by request id so concurrent clients spread across shard channels).
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
    pub(crate) fn emit(&self, ev: Event) {
        #[expect(
            clippy::indexing_slicing,
            reason = "index is % shards and channels.len() >= shards"
        )]
        self.record(&self.channels[(ev.req as usize) % self.shards], ev);
    }

    /// Stamp and record an event from worker `worker` (its private
    /// channel: no cross-worker contention on the hot path).
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
    pub(crate) fn emit_worker(&self, worker: usize, ev: Event) {
        #[expect(
            clippy::indexing_slicing,
            reason = "channels.len() == shards + shards * workers_per_shard"
        )]
        let tx = &self.channels[self.shards + worker % (self.shards * self.workers_per_shard)];
        self.record(tx, ev);
    }

    /// Stamp `ev` with the server clock and send it without blocking,
    /// counting a drop when the channel is full. (`Disconnected` cannot
    /// happen — the receivers live in `registry`, as long as the senders —
    /// and would count as a drop too.)
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
    fn record(&self, tx: &SyncSender<Event>, mut ev: Event) {
        ev.at_us = self.now_us();
        if tx.try_send(ev).is_err() {
            #[expect(
                clippy::indexing_slicing,
                reason = "kind.index() < EventKind::ALL.len() == dropped.len()"
            )]
            self.dropped[ev.kind.index()].fetch_add(1, Ordering::Relaxed);
        }
    }

    pub(crate) fn ticket_issued(&self) {
        self.tickets_issued.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn ticket_resolved(&self) {
        self.tickets_resolved.fetch_add(1, Ordering::Relaxed);
    }

    /// Worker bookkeeping: a batch of `size` starts executing, `busy_us`
    /// after the worker's previous batch start (its busy time since then).
    pub(crate) fn batch_started(&self, shard: usize, size: usize, busy_us: u64) {
        self.executing[shard].fetch_add(size as u64, Ordering::Relaxed);
        self.busy_us[shard].fetch_add(busy_us, Ordering::Relaxed);
        self.batches[shard].fetch_add(1, Ordering::Relaxed);
        self.batch_fill[shard].fetch_add(size as u64, Ordering::Relaxed);
    }

    /// `n` members of executing batches were delivered.
    pub(crate) fn delivered(&self, shard: usize, n: usize) {
        self.executing[shard].fetch_sub(n as u64, Ordering::Relaxed);
    }

    /// Drain every channel into the registry. Called by the aggregator on
    /// its interval, by snapshot takers, and one final time at shutdown.
    pub(crate) fn drain(&self) {
        self.registry.lock().expect("obs registry poisoned").drain();
    }

    /// Post-mortem dump for a settled interesting request, by ticket or
    /// request id. Drains first so a request that settled moments ago is
    /// visible.
    pub(crate) fn why(&self, id: u64) -> Option<TraceReport> {
        self.drain();
        let reg = self.registry.lock().expect("obs registry poisoned");
        reg.recorder.why(id)
    }
}

/// The observability aggregator: a background thread that drains the
/// event channels into the registry every `drain_interval_ms`. Workers
/// never block on observability — they only `try_send` into their
/// channels (dropping, with a count, when full); all folding happens here.
pub(crate) struct Aggregator {
    obs: Arc<ServerObs>,
    handle: JoinHandle<()>,
}

impl Aggregator {
    pub(crate) fn spawn(obs: Arc<ServerObs>) -> Self {
        let handle = {
            let obs = Arc::clone(&obs);
            crate::spawn_named("ams-obs", move || loop {
                // `stop` unparks the thread, so a long interval never
                // holds shutdown hostage.
                thread::park_timeout(obs.drain_interval);
                if obs.stop.load(Ordering::Acquire) {
                    break;
                }
                obs.drain();
            })
        };
        Self { obs, handle }
    }

    /// Ask the thread to stop, wake it, and join it.
    pub(crate) fn stop(self) -> thread::Result<()> {
        self.obs.stop.store(true, Ordering::Release);
        self.handle.thread().unpark();
        self.handle.join()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(kind: EventKind, req: u64) -> Event {
        Event::new(kind, req, NO_TICKET, NO_SHARD, 0)
    }

    #[test]
    fn concurrent_producers_are_counted_exactly_once() {
        let cfg = ObsConfig {
            ring_capacity: 1024,
            ..ObsConfig::default()
        };
        let obs = Arc::new(ServerObs::new(cfg, 1, 2));
        let producers: Vec<_> = (0..4u64)
            .map(|t| {
                let obs = Arc::clone(&obs);
                std::thread::spawn(move || {
                    for i in 0..200 {
                        let e = ev(EventKind::Admitted, t * 1000 + i);
                        match t {
                            0 | 1 => obs.emit(e),
                            _ => obs.emit_worker(t as usize - 2, e),
                        }
                    }
                })
            })
            .collect();
        for p in producers {
            p.join().expect("producer");
        }
        let idle = ShardSample {
            depth: 0,
            service_hint_us: 0,
            estimated_wait_us: 0,
        };
        let snap = obs.snapshot(&[idle], None, None);
        assert_eq!(snap.total(EventKind::Admitted), 800);
        assert_eq!(snap.dropped_total, 0, "every event fits its channel");
    }

    #[test]
    fn drops_are_counted_per_kind_and_totals_stay_honest() {
        let obs = ServerObs::new(
            ObsConfig {
                ring_capacity: 8,
                ..ObsConfig::default()
            },
            1,
            1,
        );
        for i in 0..50 {
            obs.emit(ev(EventKind::Admitted, i));
        }
        let snap = obs.snapshot(
            &[ShardSample {
                depth: 0,
                service_hint_us: 0,
                estimated_wait_us: 0,
            }],
            None,
            None,
        );
        assert_eq!(snap.total(EventKind::Admitted), 50);
        assert!(snap.dropped_total > 0, "tiny ring must have overflowed");
        let admitted = snap
            .events
            .iter()
            .find(|e| e.kind == "admitted")
            .expect("admitted family");
        assert_eq!(admitted.count + admitted.dropped, 50);
    }

    #[test]
    fn a_registry_fed_a_ledgers_events_counts_what_the_ledger_counted() {
        use EventKind::{Admitted, Coalesced, Labeled, ShedDeadline};
        let settlements = [
            (Admitted, 0, false),
            (Labeled, 0, true),
            (Admitted, 2, false),
            (Coalesced, 2, true),
            (Labeled, 2, false),
            (ShedDeadline, 1, false),
        ];
        let (mut ledger, (tx, rx)) = (Ledger::default(), sync_channel(settlements.len()));
        for (req, (kind, class, flag)) in settlements.into_iter().enumerate() {
            let ev = Event::new(kind, req as u64, NO_TICKET, NO_SHARD, class)
                .detail(10 * req as u64)
                .flag(flag);
            ledger.settle(ev, 1.5, |ev| tx.try_send(ev).expect("room"));
        }
        let mut reg = Registry::new(vec![rx]);
        reg.drain();
        assert_eq!(reg.by_class.rows().len(), 3);
        for (got, want) in reg.by_class.rows().iter().zip(ledger.rows()) {
            for kind in EventKind::ALL {
                assert_eq!(got.count(kind), want.count(kind), "{kind:?}");
            }
            assert_eq!(got.late().count, want.late().count);
            assert_eq!(got.latency(), want.latency());
        }
        assert_eq!(reg.by_class.total().latency().count(), 2);
    }

    #[test]
    fn recorder_keeps_interesting_traces_and_answers_why() {
        let mut rec = FlightRecorder::sized(RECORDER_CAPACITY);
        // A clean labeled request is not retained.
        rec.observe(ev(EventKind::Admitted, 1));
        rec.observe(ev(EventKind::Labeled, 1));
        assert!(rec.why(1).is_none());
        // A deadline miss is.
        rec.observe(ev(EventKind::Admitted, 2));
        let mut labeled = ev(EventKind::Labeled, 2);
        labeled.flag = true;
        labeled.ticket = 77;
        rec.observe(labeled);
        let tr = rec.why(77).expect("trace by ticket id");
        assert_eq!(tr.verdict, "deadline_miss");
        assert_eq!(tr.req, 2);
        assert_eq!(rec.why(2).expect("trace by req id").ticket, Some(77));
        // Ghost execution after cancellation extends the settled trace.
        rec.observe(ev(EventKind::Admitted, 3));
        let mut cancelled = ev(EventKind::Cancelled, 3);
        cancelled.ticket = 99;
        rec.observe(cancelled);
        rec.observe(ev(EventKind::GhostExecuted, 3));
        let tr = rec.why(99).expect("cancelled trace");
        assert_eq!(tr.verdict, "cancelled");
        assert!(tr.events.iter().any(|e| e.kind == "ghost_executed"));
    }

    #[test]
    fn recorder_ring_is_bounded() {
        let mut rec = FlightRecorder::sized(4);
        for i in 0..20 {
            rec.observe(ev(EventKind::ShedOverflow, i));
        }
        assert_eq!(rec.traces().len(), 4);
        assert!(rec.why(19).is_some(), "newest retained");
        assert!(rec.why(0).is_none(), "oldest evicted");
    }

    #[test]
    fn recorder_evicts_the_oldest_unsettled_trace() {
        let mut rec = FlightRecorder::sized(RECORDER_CAPACITY);
        // One more open trace than the active table holds: opening the
        // last one evicts request 0's.
        for i in 0..4097 {
            rec.observe(ev(EventKind::Admitted, i));
        }
        rec.observe(ev(EventKind::ShedOverflow, 0));
        rec.observe(ev(EventKind::ShedOverflow, 1));
        assert_eq!(rec.why(0).expect("shed trace").events.len(), 1);
        assert_eq!(rec.why(1).expect("shed trace").events.len(), 2);
    }

    #[test]
    fn snapshot_serializes_and_renders() {
        let obs = ServerObs::new(ObsConfig::default(), 2, 1);
        let mut e = ev(EventKind::Admitted, 0);
        e.class = 1;
        obs.emit(e);
        let mut l = ev(EventKind::Labeled, 0);
        l.class = 1;
        l.detail = 1500;
        obs.emit(l);
        let samples = [
            ShardSample {
                depth: 3,
                service_hint_us: 40,
                estimated_wait_us: 120,
            },
            ShardSample {
                depth: 0,
                service_hint_us: 0,
                estimated_wait_us: 0,
            },
        ];
        let snap = obs.snapshot(&samples, None, Some(7));
        let json = serde_json::to_string(&snap).expect("snapshot serializes");
        let back: MetricsSnapshot = serde_json::from_str(&json).expect("snapshot round-trips");
        assert_eq!(back, snap);
        let text = snap.render_prometheus();
        assert!(text.contains("ams_events_total{kind=\"admitted\"} 1"));
        assert!(text.contains("ams_shard_estimated_wait_us{shard=\"0\"} 120"));
        assert!(text.contains("ams_adapt_generation 7"));
        assert!(text.contains("ams_latency_us_count 1"));
    }
}
