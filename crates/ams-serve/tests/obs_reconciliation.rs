//! The live observability layer, cross-checked against the conservation
//! ledger: every backpressure policy × cache on/off × a cancellation
//! storm must produce an event stream whose per-kind totals match the
//! `ServeReport` buckets exactly (`events_reconcile`), ring overflow must
//! keep totals honest through drop-counting, the spill-routing gauges
//! must surface the very inputs `Router::route` prices with, and the
//! Prometheus exposition must stay well-formed.

mod common;

use ams_core::framework::Budget;
use ams_data::TruthTable;
use ams_serve::{
    AffinityConfig, AmsServer, BackpressurePolicy, CacheConfig, EventKind, ObsConfig, RoutingMode,
    ServeConfig, SloClass, SloConfig, SubmitOptions,
};
use common::scheduler;
use std::sync::{Arc, OnceLock};

fn truth() -> &'static TruthTable {
    static TRUTH: OnceLock<TruthTable> = OnceLock::new();
    TRUTH.get_or_init(|| {
        // A small scene pool re-sampled many times: plenty of exact
        // duplicates so the cached runs exercise hits and coalescing.
        common::truth_of(24)
    })
}

/// One stressed run: tight queues, deadline classes, a cancellation storm
/// from the client side, and (optionally) the label cache — then the
/// event-stream/ledger cross-check.
fn storm(policy: BackpressurePolicy, cache: bool) {
    let server = AmsServer::start(
        scheduler(),
        Budget::Deadline { ms: 900 },
        ServeConfig {
            shards: 2,
            workers_per_shard: 1,
            queue_capacity: 4,
            max_batch: 4,
            policy,
            exec_emulation_scale: 5e-4,
            slo: Some(SloConfig::aware(vec![
                SloClass::new("alert", 30, 4.0),
                SloClass::new("archive", 250, 1.0),
            ])),
            cache: cache.then(CacheConfig::default),
            obs: Some(ObsConfig::default()),
            ..ServeConfig::default()
        },
    );
    let client = server.client();
    let items: Vec<_> = truth().items().iter().cloned().map(Arc::new).collect();
    let mut tickets = Vec::new();
    for (i, item) in items.iter().cycle().take(items.len() * 4).enumerate() {
        match client.submit_class(Arc::clone(item), i % 2).ticket() {
            Some(t) => tickets.push(t),
            None => continue,
        }
        // The storm: cancel every third ticket immediately, racing the
        // workers' claim; drain the window periodically so submission
        // never deadlocks on a full completion queue.
        if i % 3 == 0 {
            if let Some(t) = tickets.last() {
                t.cancel();
            }
        }
        if i % 16 == 0 {
            client.drain();
        }
    }
    // A mid-stream snapshot must work while workers are still running.
    let snap = server.metrics_snapshot().expect("obs is on");
    assert!(snap.uptime_us > 0);
    assert_eq!(snap.events.len(), ams_serve::obs::KIND_COUNT);
    let report = server.shutdown();
    while client.recv().is_some() {}
    assert!(report.is_conserved(), "ledger conservation: {report:?}");
    assert!(
        report.events_reconcile(),
        "event/ledger reconciliation failed under {policy:?} cache={cache}: \
         events={:?} offered={} completed={} rejected={} shed=({},{},{}) \
         cancelled={} cache_hit={} coalesced={}",
        report.obs.as_ref().map(|o| &o.snapshot.events),
        report.offered,
        report.completed,
        report.rejected,
        report.shed_oldest,
        report.shed_deadline,
        report.shed_admission,
        report.cancelled,
        report.cache_hit,
        report.coalesced,
    );
    let obs = report.obs.as_ref().expect("obs report present");
    // The storm must actually have exercised the interesting paths.
    assert!(report.cancelled > 0, "storm produced no cancellations");
    assert_eq!(obs.total(EventKind::Cancelled), report.cancelled);
    if cache {
        assert!(
            report.cache_hit + report.coalesced > 0,
            "duplicate-heavy stream produced no cache traffic"
        );
    }
    // Every ticket resolved, so no tickets may still be outstanding.
    assert_eq!(obs.snapshot.outstanding_tickets, 0);
}

#[test]
fn events_reconcile_under_block_policy() {
    storm(BackpressurePolicy::Block, false);
    storm(BackpressurePolicy::Block, true);
}

#[test]
fn events_reconcile_under_reject_policy() {
    storm(BackpressurePolicy::Reject, false);
    storm(BackpressurePolicy::Reject, true);
}

#[test]
fn events_reconcile_under_shed_oldest_policy() {
    storm(BackpressurePolicy::ShedOldest, false);
    storm(BackpressurePolicy::ShedOldest, true);
}

/// Ring overflow keeps totals honest: with absurdly small rings and an
/// aggregator too slow to keep up, events *will* drop — and the
/// reconciliation must still hold because drops are counted per kind at
/// the producer (`total = drained + dropped`), never silently lost.
#[test]
fn ring_overflow_drop_counting_keeps_totals_honest() {
    let server = AmsServer::start(
        scheduler(),
        Budget::Deadline { ms: 900 },
        ServeConfig {
            shards: 1,
            workers_per_shard: 1,
            queue_capacity: 256,
            max_batch: 8,
            obs: Some(ObsConfig {
                ring_capacity: 8,
                // Far longer than the run: every drain happens at
                // snapshot/shutdown, so the rings must overflow.
                drain_interval_ms: 60_000,
            }),
            ..ServeConfig::default()
        },
    );
    let items: Vec<_> = truth().items().iter().cloned().map(Arc::new).collect();
    let client = server.client();
    for item in items.iter().cycle().take(items.len() * 8) {
        client.submit(Arc::clone(item));
    }
    let report = server.shutdown();
    let obs = report.obs.as_ref().expect("obs report present");
    assert!(
        obs.snapshot.dropped_total > 0,
        "8-slot rings with a stalled aggregator must overflow"
    );
    assert!(report.is_conserved());
    assert!(
        report.events_reconcile(),
        "drop-counted totals must still reconcile: {:?}",
        obs.snapshot.events
    );
}

/// Satellite regression: the per-shard registry gauges surface exactly
/// the inputs spill routing prices — `depth × service_hint` — so a
/// dashboard reading `ams_shard_estimated_wait_us` sees the same number
/// `Router::route` and SLO admission used.
#[test]
fn shard_gauges_match_what_routing_priced() {
    let server = AmsServer::start(
        scheduler(),
        Budget::Deadline { ms: 900 },
        ServeConfig {
            shards: 2,
            workers_per_shard: 1,
            queue_capacity: 64,
            max_batch: 4,
            routing: RoutingMode::Affinity(AffinityConfig::default()),
            exec_emulation_scale: 2e-3,
            obs: Some(ObsConfig::default()),
            ..ServeConfig::default()
        },
    );
    let items: Vec<_> = truth().items().iter().cloned().map(Arc::new).collect();
    let client = server.client();
    for item in items.iter().cycle().take(items.len() * 4) {
        client.submit(Arc::clone(item));
    }
    let snap = server.metrics_snapshot().expect("obs is on");
    for g in &snap.shards {
        assert_eq!(
            g.estimated_wait_us,
            g.depth * g.service_hint_us,
            "shard {} gauge must be the product routing prices",
            g.shard
        );
    }
    let report = server.shutdown();
    // And the final fold keeps the invariant (drained queues: both zero).
    for g in &report.obs.as_ref().expect("obs").snapshot.shards {
        assert_eq!(g.estimated_wait_us, g.depth * g.service_hint_us);
    }
    assert!(report.events_reconcile());
}

/// The Prometheus exposition parses: every non-comment line is
/// `name{labels} value` with a finite value, every family has HELP+TYPE
/// (in that order), and the counter families are non-negative.
#[test]
fn prometheus_exposition_is_well_formed() {
    let server = AmsServer::start(
        scheduler(),
        Budget::Deadline { ms: 900 },
        ServeConfig {
            shards: 2,
            workers_per_shard: 1,
            max_batch: 4,
            cache: Some(CacheConfig::default()),
            slo: Some(SloConfig::default()),
            obs: Some(ObsConfig::default()),
            ..ServeConfig::default()
        },
    );
    let client = server.client();
    for item in truth().items().iter().take(16) {
        client.submit(Arc::new(item.clone()));
    }
    let text = server.render_metrics();
    let mut families = 0usize;
    let mut samples = 0usize;
    let mut last_help: Option<String> = None;
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix("# HELP ") {
            let name = rest.split_whitespace().next().expect("family name");
            last_help = Some(name.to_string());
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.split_whitespace();
            let name = parts.next().expect("family name");
            let kind = parts.next().expect("family kind");
            assert!(
                matches!(kind, "counter" | "gauge" | "summary"),
                "unknown family type {kind:?}"
            );
            assert_eq!(
                last_help.as_deref(),
                Some(name),
                "TYPE must follow its family's HELP"
            );
            families += 1;
            continue;
        }
        assert!(!line.starts_with('#'), "unexpected comment: {line:?}");
        let (series, value) = line.rsplit_once(' ').expect("`name value` sample");
        let metric = series.split('{').next().expect("metric name");
        assert!(
            metric
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_'),
            "bad metric name {metric:?}"
        );
        let v: f64 = value.parse().expect("sample value parses");
        assert!(v.is_finite(), "non-finite sample: {line:?}");
        if metric.ends_with("_total") || metric.ends_with("_count") {
            assert!(v >= 0.0, "negative counter: {line:?}");
        }
        samples += 1;
    }
    assert!(families >= 10, "expected many families, got {families}");
    assert!(samples >= families, "every family needs samples");
    server.shutdown();

    // Observability off: still well-formed scrape output (one comment).
    let server = AmsServer::start(
        scheduler(),
        Budget::Deadline { ms: 900 },
        ServeConfig::default(),
    );
    assert_eq!(server.render_metrics(), "# ams observability disabled\n");
    assert!(server.metrics_snapshot().is_none());
    server.shutdown();
}

/// The flight recorder answers `why(id)` for shed and cancelled requests
/// with a causal trace ending in the matching verdict, both live and from
/// the final report.
#[test]
fn flight_recorder_answers_why_for_interesting_requests() {
    let server = AmsServer::start(
        scheduler(),
        Budget::Deadline { ms: 900 },
        ServeConfig {
            shards: 1,
            workers_per_shard: 1,
            queue_capacity: 128,
            max_batch: 4,
            obs: Some(ObsConfig::default()),
            ..ServeConfig::default()
        },
    );
    let client = server.client();
    // Shed everything at dequeue: every request is "interesting".
    let opts = SubmitOptions::default().deadline_us(0);
    for item in truth().items().iter().take(8) {
        client.submit_with(Arc::new(item.clone()), opts);
    }
    let report = server.shutdown();
    let obs = report.obs.as_ref().expect("obs report present");
    assert!(report.shed_deadline > 0);
    assert!(!obs.traces.is_empty(), "sheds must be recorded");
    for trace in &obs.traces {
        assert_eq!(trace.verdict, "shed_deadline");
        assert!(
            trace.events.iter().any(|e| e.kind == "admitted"),
            "trace must start at admission: {}",
            trace.dump()
        );
        // `why` finds the same trace by request id.
        let again = obs.why(trace.req).expect("why(req) finds the trace");
        assert_eq!(again.verdict, trace.verdict);
    }
    assert!(report.events_reconcile());
}
