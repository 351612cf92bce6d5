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
    AffinityConfig, AmsServer, BackpressurePolicy, CacheConfig, ClassReport, EventKind, ObsConfig,
    RoutingMode, ServeConfig, SloClass, SloConfig, SubmitOptions, SubmitOutcome,
};
use common::scheduler;
use std::sync::{Arc, OnceLock};
use std::time::Duration;

fn truth() -> &'static TruthTable {
    static TRUTH: OnceLock<TruthTable> = OnceLock::new();
    TRUTH.get_or_init(|| {
        // A small scene pool re-sampled many times: plenty of exact
        // duplicates so the cached runs exercise hits and coalescing.
        common::truth_of(24)
    })
}

/// A server under `config` with the suite's scheduler and 900 ms budget.
fn start(config: ServeConfig) -> AmsServer {
    AmsServer::start(scheduler(), Budget::Deadline { ms: 900 }, config)
}

/// One stressed run: tight queues, deadline classes, a cancellation storm
/// from the client side, and (optionally) the label cache — then the
/// event-stream/ledger cross-check.
fn storm(policy: BackpressurePolicy, cache: bool, classes: bool) {
    let server = start(ServeConfig {
        shards: 2,
        workers_per_shard: 1,
        queue_capacity: 4,
        max_batch: 4,
        policy,
        exec_emulation_scale: 5e-4,
        slo: classes.then(|| {
            SloConfig::aware(vec![
                SloClass::new("alert", 30, 4.0),
                SloClass::new("archive", 250, 1.0),
            ])
        }),
        cache: cache.then(CacheConfig::default),
        obs: Some(ObsConfig::default()),
        ..ServeConfig::default()
    });
    let client = server.client();
    let items: Vec<_> = truth().items().iter().cloned().map(Arc::new).collect();
    let mut tickets = Vec::new();
    for (i, item) in items.iter().cycle().take(items.len() * 4).enumerate() {
        let opts = SubmitOptions::class(i % 2);
        match client.submit_with(Arc::clone(item), opts).ticket() {
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
    // Top-level counters are the sum over the class rows (and a classless
    // server publishes no rows at all).
    assert_eq!(report.slo.is_some(), classes);
    if let Some(slo) = &report.slo {
        assert!(slo.is_conserved(), "class ledgers balance: {slo:?}");
        let sum = |f: fn(&ClassReport) -> u64| slo.classes.iter().map(f).sum::<u64>();
        assert_eq!(sum(|c| c.offered), report.offered);
        assert_eq!(sum(|c| c.completed), report.completed);
        assert_eq!(sum(|c| c.rejected), report.rejected);
        assert_eq!(sum(|c| c.shed_oldest), report.shed_oldest);
        assert_eq!(sum(|c| c.shed_deadline), report.shed_deadline);
        assert_eq!(sum(|c| c.shed_admission), report.shed_admission);
        assert_eq!(sum(|c| c.cancelled), report.cancelled);
        assert_eq!(sum(|c| c.cache_hit), report.cache_hit);
        assert_eq!(sum(|c| c.coalesced), report.coalesced);
    }
    let obs = report.obs.as_ref().expect("obs report present");
    // The storm must actually have exercised the interesting paths.
    assert!(report.cancelled > 0, "storm produced no cancellations");
    assert_eq!(obs.total(EventKind::Cancelled), report.cancelled);
    // (Not of the classless row: with no admission control ahead of a
    // 4-deep queue, every leader can be evicted before one resolves.)
    if cache && classes {
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
    storm(BackpressurePolicy::Block, false, true);
    storm(BackpressurePolicy::Block, true, true);
    storm(BackpressurePolicy::Block, true, false);
}

#[test]
fn events_reconcile_under_reject_policy() {
    storm(BackpressurePolicy::Reject, false, true);
    storm(BackpressurePolicy::Reject, true, true);
    storm(BackpressurePolicy::Reject, true, false);
}

#[test]
fn events_reconcile_under_shed_oldest_policy() {
    storm(BackpressurePolicy::ShedOldest, false, true);
    storm(BackpressurePolicy::ShedOldest, true, true);
    storm(BackpressurePolicy::ShedOldest, true, false);
}

/// One request forced down each terminal path of a held one-worker
/// server, so every bucket's expected count is known exactly: labeled,
/// coalesced, cache hit, deadline shed, cancelled, the policy's overflow
/// path (shed-oldest evicts / reject refuses / block has none) and — with
/// SLO-aware classes — an admission shed. For every bucket the
/// top-level counter, the class-0 ledger row and the event stream (in
/// total and for class 0) must agree with that count: a classless server
/// is a one-class server whose only row *is* the top level.
fn one_request_down_each_path(policy: BackpressurePolicy, slo: Option<SloConfig>) {
    let classful = slo.is_some();
    let aware = slo.as_ref().is_some_and(|s| s.aware);
    let server = start(ServeConfig {
        shards: 1,
        workers_per_shard: 1,
        queue_capacity: 3,
        max_batch: 1,
        policy,
        // A 1 MB pool runs a request's models one at a time, and a worker
        // that found its queue empty after admitting a request waits until
        // that request is due: long enough (~0.2 s a request) that the one
        // worker is still held while the next few are submitted.
        pool_mb: 1,
        exec_emulation_scale: 0.25,
        slo,
        cache: Some(CacheConfig::default()),
        obs: Some(ObsConfig::default()),
        ..ServeConfig::default()
    });
    let client = server.client();
    let item = |i: usize| Arc::new(truth().items()[i].clone());
    // Popped, then 10 ms for the worker to find its queue empty and wait:
    // a request queued any sooner would be popped at once (one worker
    // looks two batches ahead).
    let wait_until_popped = || {
        while server.pending() > 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        std::thread::sleep(Duration::from_millis(10));
    };
    // The leader: the worker pops it and holds; its duplicate coalesces.
    assert!(client.submit(item(0)).is_accepted());
    wait_until_popped();
    let duplicate = client.submit(item(0));
    assert!(matches!(duplicate, SubmitOutcome::Coalesced(_)));
    // Three queued behind it, filling the queue: the oldest (the overflow
    // victim under shed-oldest), one already past its deadline, one
    // cancelled while queued.
    assert!(client.submit(item(1)).is_accepted());
    let expired = SubmitOptions::default().deadline_us(0);
    assert!(client.submit_with(item(2), expired).is_accepted());
    let ticket = client.submit(item(3)).ticket().expect("queued");
    assert!(ticket.cancel(), "nothing claimed it yet");
    // The policy's answer to a full queue (block has none to force).
    let overflow = (policy != BackpressurePolicy::Block).then(|| client.submit(item(4)));
    let shed_oldest = u64::from(matches!(
        overflow,
        Some(SubmitOutcome::EnqueuedShedOldest(_))
    ));
    let rejected = u64::from(matches!(overflow, Some(SubmitOutcome::Rejected)));
    let forced = match policy {
        BackpressurePolicy::Block => (0, 0),
        BackpressurePolicy::Reject => (0, 1),
        BackpressurePolicy::ShedOldest => (1, 0),
    };
    assert_eq!(
        (shed_oldest, rejected),
        forced,
        "{policy:?} on a full queue"
    );
    // Everything above settles; the leader's fingerprint is now a hit.
    while client.recv().is_some() {}
    assert!(matches!(client.submit(item(0)), SubmitOutcome::Cached(_)));
    // With admission control: one request held by the worker (so the
    // shard has published its service time), and a second whose zero
    // budget the priced wait already reaches. EDF prices only the work
    // due before it, so a budget above zero could be admitted here.
    let admission = u64::from(aware);
    if aware {
        assert!(client.submit(item(5)).is_accepted());
        wait_until_popped();
        let hopeless = SubmitOptions::default().deadline_us(0);
        let outcome = client.submit_with(item(6), hopeless);
        assert!(matches!(outcome, SubmitOutcome::ShedAdmission(_)));
    }
    let report = server.shutdown();
    while client.recv().is_some() {}

    use EventKind as K;
    let r = &report;
    let obs = r.obs.as_ref().expect("obs report present");
    assert_eq!(r.slo.is_some(), classful, "`slo` only when configured");
    let row = r.slo.as_ref().map(|slo| &slo.classes[0]);
    let offered = 6 + shed_oldest + rejected + 2 * admission;
    // Value-weighted eviction sheds the doomed request first: on an aware
    // shed-oldest queue the overflow victim is the expired request, so it
    // never reaches the dequeue-time deadline shed and the oldest is
    // labeled instead.
    let expired_evicted = u64::from(aware && shed_oldest == 1);
    // (kind, expected, top-level counter, the class-0 ledger row's)
    #[rustfmt::skip]
    let buckets = [
        (K::Admitted, offered, r.offered, row.map(|c| c.offered)),
        (K::Labeled, 2 + expired_evicted + admission, r.completed, row.map(|c| c.completed)),
        (K::CacheHit, 1, r.cache_hit, row.map(|c| c.cache_hit)),
        (K::Coalesced, 1, r.coalesced, row.map(|c| c.coalesced)),
        (K::ShedAdmission, admission, r.shed_admission, row.map(|c| c.shed_admission)),
        (K::ShedOverflow, shed_oldest, r.shed_oldest, row.map(|c| c.shed_oldest)),
        (K::ShedDeadline, 1 - expired_evicted, r.shed_deadline, row.map(|c| c.shed_deadline)),
        (K::Rejected, rejected, r.rejected, row.map(|c| c.rejected)),
        (K::Cancelled, 1, r.cancelled, row.map(|c| c.cancelled)),
    ];
    for (kind, want, top, class) in buckets {
        let ctx = format!("{} under {policy:?}, classful={classful}", kind.name());
        assert_eq!(top, want, "top-level counter: {ctx}");
        assert_eq!(class.unwrap_or(want), want, "class-0 ledger row: {ctx}");
        assert_eq!(obs.total(kind), want, "event total: {ctx}");
    }
    assert!(r.is_conserved() && r.events_reconcile());
    assert!(r.slo.as_ref().is_none_or(|slo| slo.is_conserved()));
    // The event side's only class row is the top level too.
    assert_eq!(obs.snapshot.classes.len(), 1);
    let c = &obs.snapshot.classes[0];
    let sheds = r.shed_admission + r.shed_oldest + r.shed_deadline;
    assert_eq!(
        (c.admitted, c.labeled, c.shed),
        (r.offered, r.completed, sheds)
    );
    assert_eq!((c.cache_hit, c.coalesced), (r.cache_hit, r.coalesced));
    assert_eq!((c.rejected, c.cancelled), (r.rejected, r.cancelled));
}

#[test]
fn every_terminal_path_lands_in_one_bucket_classless_and_with_one_class() {
    for policy in common::POLICIES {
        one_request_down_each_path(policy, None);
    }
    // One SLO-aware class whose deadline nothing here can reach: under
    // Reject the expired request reaches the deadline shed, under
    // ShedOldest value-weighted eviction takes it.
    for policy in [BackpressurePolicy::Reject, BackpressurePolicy::ShedOldest] {
        let slo = SloConfig::aware(vec![SloClass::new("only", 60_000, 1.0)]);
        one_request_down_each_path(policy, Some(slo));
    }
}

/// Ring overflow keeps totals honest: with absurdly small rings and an
/// aggregator too slow to keep up, events *will* drop — and the
/// reconciliation must still hold because drops are counted per kind at
/// the producer (`total = drained + dropped`), never silently lost.
#[test]
fn ring_overflow_drop_counting_keeps_totals_honest() {
    let server = start(ServeConfig {
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
    });
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
    let server = start(ServeConfig {
        shards: 2,
        workers_per_shard: 1,
        queue_capacity: 64,
        max_batch: 4,
        routing: RoutingMode::Affinity(AffinityConfig::default()),
        exec_emulation_scale: 2e-3,
        obs: Some(ObsConfig::default()),
        ..ServeConfig::default()
    });
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
    let server = start(ServeConfig {
        shards: 2,
        workers_per_shard: 1,
        max_batch: 4,
        cache: Some(CacheConfig::default()),
        slo: Some(SloConfig::default()),
        obs: Some(ObsConfig::default()),
        ..ServeConfig::default()
    });
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
    let server = start(ServeConfig::default());
    assert_eq!(server.render_metrics(), "# ams observability disabled\n");
    assert!(server.metrics_snapshot().is_none());
    server.shutdown();
}

/// The flight recorder answers `why(id)` for shed and cancelled requests
/// with a causal trace ending in the matching verdict, both live and from
/// the final report.
#[test]
fn flight_recorder_answers_why_for_interesting_requests() {
    let server = start(ServeConfig {
        shards: 1,
        workers_per_shard: 1,
        queue_capacity: 128,
        max_batch: 4,
        obs: Some(ObsConfig::default()),
        ..ServeConfig::default()
    });
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
