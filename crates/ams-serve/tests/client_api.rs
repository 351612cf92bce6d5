//! The request/response client API: completion tickets, per-request label
//! delivery, cancellation, the drop-abort path, and the exactly-once
//! completion invariant — every issued ticket resolves to precisely one
//! terminal event, across every backpressure policy, under cancellation
//! storms and value-weighted eviction.

mod common;

use ams_core::framework::Budget;
use ams_data::TruthTable;
use ams_serve::{
    AmsServer, BackpressurePolicy, Completion, ObsConfig, ServeConfig, ShedReason, SloClass,
    SloConfig, Ticket,
};
use ams_sim::{BatchLatencyModel, Job, PoolTimeline};
use common::{scheduler, tally};
use proptest::prelude::*;
use std::collections::HashSet;
use std::sync::{Arc, OnceLock};

fn truth() -> &'static TruthTable {
    static TRUTH: OnceLock<TruthTable> = OnceLock::new();
    TRUTH.get_or_init(|| common::truth_of(40))
}

/// Lossless serving through the client API: every ticket resolves to a
/// `Labeled` event carrying the request's *own* labels — exactly what the
/// scheduler produces for that item serially — plus a coherent latency
/// split, while the aggregate report stays byte-identical to the old path.
#[test]
fn client_receives_each_requests_own_labels() {
    let budget = Budget::Deadline { ms: 900 };
    let table = truth();
    let server = AmsServer::start(
        scheduler(),
        budget,
        ServeConfig {
            shards: 3,
            workers_per_shard: 2,
            max_batch: 4,
            queue_capacity: 64,
            policy: BackpressurePolicy::Block,
            ..ServeConfig::default()
        },
    );
    let client = server.client();
    let mut by_ticket: Vec<(u64, usize)> = Vec::new(); // (ticket id, item index)
    for (i, item) in table.items().iter().enumerate() {
        let ticket = client
            .submit(Arc::new(item.clone()))
            .ticket()
            .expect("lossless config accepts everything");
        by_ticket.push((ticket.id(), i));
    }
    let events: Vec<Completion> = std::iter::from_fn(|| client.recv()).collect();
    assert_eq!(events.len(), 40, "one terminal event per ticket");
    let serial = scheduler();
    for ev in &events {
        let result = ev.labeled().expect("lossless run only labels");
        let &(_, item_idx) = by_ticket
            .iter()
            .find(|&&(id, _)| id == result.ticket)
            .expect("event for a known ticket");
        let want = serial.label_item(table.item(item_idx), budget);
        assert_eq!(result.labels, want.labels, "item {item_idx}: labels");
        assert_eq!(result.executed, want.executed, "item {item_idx}: models");
        assert!((result.label_value - want.value).abs() < 1e-9);
        assert!((result.recall - want.recall).abs() < 1e-9);
        assert!(result.deadline_met, "no deadline configured");
        assert_eq!(result.class, 0);
    }
    let report = server.shutdown();
    assert_eq!(report.completed, 40);
    assert_eq!(report.cancelled, 0);
    assert!(report.is_conserved());
    // recv after everything resolved: no outstanding tickets, no hang.
    assert_eq!(client.outstanding(), 0);
    assert!(client.recv().is_none());
}

/// Cancellation races with dequeue and batch assembly: under a storm that
/// cancels every other ticket mid-service, each ticket still resolves to
/// exactly one terminal event, the report's `cancelled` bucket matches the
/// delivered `Cancelled` events, and the conservation equation includes
/// them.
#[test]
fn cancellation_storm_keeps_completions_exactly_once() {
    let table = truth();
    let server = AmsServer::start(
        scheduler(),
        Budget::Deadline { ms: 900 },
        ServeConfig {
            shards: 2,
            workers_per_shard: 1,
            max_batch: 4,
            queue_capacity: 64,
            policy: BackpressurePolicy::Block,
            // Real wall time per batch, so cancels genuinely race the
            // workers instead of always losing to an instant drain.
            exec_emulation_scale: 2e-3,
            ..ServeConfig::default()
        },
    );
    let client = server.client();
    let (tx, rx) = std::sync::mpsc::channel::<Ticket>();
    let canceller = std::thread::spawn(move || {
        let mut won = 0u64;
        for ticket in rx {
            if ticket.cancel() {
                won += 1;
                // A won cancel can never be won again.
                assert!(!ticket.cancel(), "double cancel must lose");
                assert!(ticket.is_resolved());
            }
        }
        won
    });
    let mut issued = 0u64;
    for (i, item) in table.items().iter().enumerate() {
        let outcome = client.submit(Arc::new(item.clone()));
        let ticket = outcome.ticket().expect("block policy always queues");
        issued += 1;
        if i % 2 == 0 {
            tx.send(ticket).expect("canceller alive");
        }
    }
    drop(tx);
    let cancels_won = canceller.join().expect("canceller");
    let report = server.shutdown();
    let events: Vec<Completion> = std::iter::from_fn(|| client.recv()).collect();
    assert_eq!(events.len() as u64, issued, "exactly one event per ticket");
    let ids: HashSet<u64> = events.iter().map(Completion::ticket).collect();
    assert_eq!(ids.len() as u64, issued, "no ticket resolved twice");
    let (labeled, shed, cancelled) = tally(&events);
    assert_eq!(labeled, report.completed);
    assert_eq!(cancelled, report.cancelled);
    assert_eq!(cancelled, cancels_won, "every won cancel delivered");
    assert_eq!(
        shed,
        report.shed_admission + report.shed_oldest + report.shed_deadline
    );
    assert!(report.is_conserved(), "cancelled requests stay conserved");
    assert_eq!(report.completed + report.cancelled, issued);
    assert!(report.cancelled > 0, "some cancels must win the race");
    assert!(report.completed > 0, "some requests must outrun the storm");
    // Stats cover only labeled requests — a cancelled request never enters
    // the recall denominator.
    assert_eq!(report.stats.items as u64, report.completed);
}

/// Dropping a server without `shutdown` aborts it: queued-but-unserved
/// tickets resolve to `Shed(Drain)`, in-flight work completes, every
/// worker is joined (drop returns only afterwards), and the client sees
/// exactly one event per ticket. Regression for the detached-thread leak:
/// dropping mid-test used to leave workers running forever.
#[test]
fn dropping_the_server_drains_workers_and_sheds_the_backlog() {
    let table = truth();
    let server = AmsServer::start(
        scheduler(),
        Budget::Deadline { ms: 900 },
        ServeConfig {
            shards: 2,
            workers_per_shard: 1,
            max_batch: 2,
            queue_capacity: 64,
            policy: BackpressurePolicy::Block,
            // Slow workers: most of the stream is still queued at drop.
            exec_emulation_scale: 5e-3,
            ..ServeConfig::default()
        },
    );
    let client = server.client();
    let mut issued = 0u64;
    for item in table.items() {
        client.submit(Arc::new(item.clone())).ticket().unwrap();
        issued += 1;
    }
    // Wait for the workers to pop (and thereby claim) at least one batch:
    // a popped request is in a worker's hands, so it must complete even
    // through the abort. Everything still queued at drop is shed as Drain.
    while server.pending() as u64 >= issued {
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    drop(server);
    // After the drop every worker has been joined: no new completions can
    // be in flight, so a plain drain must already see all of them.
    let events = client.drain();
    assert_eq!(events.len() as u64, issued, "one event per ticket");
    let (labeled, shed, cancelled) = tally(&events);
    assert_eq!(cancelled, 0);
    assert!(shed > 0, "the backlog must be shed as Drain");
    assert!(labeled > 0, "in-flight batches still complete");
    for ev in &events {
        if let Completion::Shed { reason, .. } = ev {
            assert_eq!(*reason, ShedReason::Drain, "abort sheds are Drain");
        }
    }
    // The server is gone: later submissions are refused synchronously.
    assert!(client.submit(Arc::new(table.item(0).clone())).is_rejected());
    assert_eq!(client.outstanding(), 0);
    assert!(client.recv().is_none(), "drained client terminates recv");
}

/// `pending()` counts what the `depth` gauges and admission pricing count:
/// requests still wanting service. With every worker held by its pool,
/// cancelling queued tickets leaves tombstones in the queues; they are no
/// backlog, so `pending()` drops by the cancellations and equals the sum
/// of the per-shard `depth` gauges.
#[test]
fn pending_excludes_cancelled_tombstones_like_the_depth_gauge() {
    let table = truth();
    let server = AmsServer::start(
        scheduler(),
        Budget::Deadline { ms: 900 },
        ServeConfig {
            shards: 2,
            workers_per_shard: 1,
            max_batch: 1,
            queue_capacity: 64,
            policy: BackpressurePolicy::Block,
            // A 1 MB pool runs a request's models one at a time, and the
            // next request is popped only once the last of them starts:
            // ~0.4 s per request, so a worker that has popped one stays
            // held for the rest of the test.
            pool_mb: 1,
            exec_emulation_scale: 0.5,
            obs: Some(ObsConfig::default()),
            ..ServeConfig::default()
        },
    );
    let client = server.client();
    let tickets: Vec<Ticket> = table
        .items()
        .iter()
        .take(12)
        .map(|item| client.submit(Arc::new(item.clone())).ticket().unwrap())
        .collect();
    // Both workers pop one request each, then hold.
    let shards_hit: HashSet<usize> = table
        .items()
        .iter()
        .take(12)
        .map(|i| server.shard_of(i))
        .collect();
    let queued = tickets.len() - shards_hit.len();
    while server.pending() > queued {
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    // A claimed request refuses the cancel; a queued one becomes a
    // tombstone.
    let cancelled = tickets.iter().step_by(2).filter(|t| t.cancel()).count();
    assert!(cancelled > 0, "some queued tickets must cancel");
    let gauges = server.metrics_snapshot().expect("obs is on").shards;
    let depth: u64 = gauges.iter().map(|g| g.depth).sum();
    assert_eq!(server.pending(), queued - cancelled);
    assert_eq!(server.pending() as u64, depth);
}

/// Each batch member completes at its own finish. On a 1 MB pool a
/// batch's models run one at a time, so of two requests batched together
/// the one whose models all run before its batch-mate's last one is
/// delivered strictly earlier, with a strictly smaller `execute_us` — and
/// every ticket still resolves exactly once into a conserved report whose
/// events reconcile.
#[test]
fn a_member_completes_at_its_own_finish_not_its_batchs() {
    let budget = Budget::Deadline { ms: 900 };
    let table = truth();
    let sched = scheduler();
    let specs = sched.zoo().specs();
    let executed: Vec<Vec<usize>> = table
        .items()
        .iter()
        .map(|item| {
            let outcome = sched.label_item(item, budget);
            outcome.executed.iter().map(|m| m.index()).collect()
        })
        .collect();
    // Each member's own finish, virtual ms, when `pair` is one batch on a
    // one-at-a-time pool.
    let finishes = |pair: [usize; 2]| {
        let mut runs = vec![0usize; specs.len()];
        for m in pair.iter().flat_map(|&i| &executed[i]) {
            runs[*m] += 1;
        }
        let groups: Vec<(Job, usize)> = specs
            .iter()
            .zip(runs)
            .enumerate()
            .filter(|&(_, (_, count))| count > 0)
            .map(|(id, (spec, count))| {
                let job = Job {
                    id,
                    time_ms: spec.time_ms,
                    mem_mb: spec.mem_mb,
                };
                (job, count)
            })
            .collect();
        let mut finish = vec![0u64; specs.len()];
        PoolTimeline::new(1).admit(&groups, &BatchLatencyModel::default(), &mut finish);
        pair.map(|i| executed[i].iter().map(|&m| finish[m]).max().unwrap_or(0))
    };
    // Item 0 holds the worker while the pair queues behind it; of the
    // pairs after it, take the one whose own finishes lie furthest apart.
    assert!(executed[0].len() >= 2, "the holder runs models in sequence");
    let ((early, late), gap) = (1..12)
        .flat_map(|a| (a + 1..12).map(move |b| [a, b]))
        .map(|pair| {
            let [fa, fb] = finishes(pair);
            let order = if fa < fb {
                (pair[0], pair[1])
            } else {
                (pair[1], pair[0])
            };
            (order, fa.abs_diff(fb))
        })
        .max_by_key(|&(_, gap)| gap)
        .expect("55 candidate pairs");
    assert!(
        gap >= 200,
        "items {early} and {late}: a 200+ virtual ms gap"
    );
    let server = AmsServer::start(
        scheduler(),
        budget,
        ServeConfig {
            shards: 1,
            workers_per_shard: 1,
            max_batch: 2,
            queue_capacity: 8,
            policy: BackpressurePolicy::Block,
            pool_mb: 1,
            // 200 virtual ms is 20 wall ms.
            exec_emulation_scale: 0.1,
            obs: Some(ObsConfig::default()),
            ..ServeConfig::default()
        },
    );
    let client = server.client();
    let submit = |i: usize| {
        let ticket = client.submit(Arc::new(table.item(i).clone())).ticket();
        ticket.expect("lossless config").id()
    };
    submit(0);
    while server.pending() > 0 {
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    let (early_id, late_id) = (submit(early), submit(late));
    let events: Vec<Completion> = std::iter::from_fn(|| client.recv()).take(3).collect();
    let report = server.shutdown();
    let execute_us = |id: u64| {
        let ev = events.iter().find(|e| e.ticket() == id).expect("delivered");
        ev.labeled().expect("lossless run only labels").execute_us
    };
    assert!(
        execute_us(early_id) < execute_us(late_id),
        "items {early} and {late}: {} vs {} us",
        execute_us(early_id),
        execute_us(late_id)
    );
    let ids: HashSet<u64> = events.iter().map(Completion::ticket).collect();
    assert_eq!((events.len(), ids.len()), (3, 3), "exactly once");
    assert_eq!(client.outstanding(), 0);
    assert_eq!(report.completed, 3);
    assert_eq!(report.batches, 2, "the pair rode one batch");
    assert!(report.is_conserved() && report.events_reconcile());
}

/// The completion window genuinely bounds the ticket pipeline: a client
/// with capacity N blocks its (N+1)-th submission until an event is
/// consumed — and unblocks as soon as one is.
#[test]
fn completion_window_blocks_submission_until_the_client_drains() {
    let table = truth();
    let server = AmsServer::start(
        scheduler(),
        Budget::Deadline { ms: 900 },
        ServeConfig {
            shards: 1,
            workers_per_shard: 1,
            max_batch: 8,
            queue_capacity: 64,
            policy: BackpressurePolicy::Block,
            ..ServeConfig::default()
        },
    );
    let client = server.client_with_capacity(4);
    assert_eq!(client.capacity(), 4);
    let items: Vec<Arc<_>> = table
        .items()
        .iter()
        .take(6)
        .map(|i| Arc::new(i.clone()))
        .collect();
    let submitter = {
        let client = client.clone();
        std::thread::spawn(move || {
            for item in items {
                client.submit(item).ticket().expect("eventually accepted");
            }
        })
    };
    // Consume events until the submitter gets all 6 through its 4-wide
    // window; recv unblocks the window as it consumes.
    let mut events = Vec::new();
    while events.len() < 6 {
        match client.recv() {
            Some(ev) => events.push(ev),
            None => std::thread::yield_now(),
        }
    }
    submitter.join().expect("submitter");
    assert_eq!(events.len(), 6);
    assert!(events.iter().all(|e| e.labeled().is_some()));
    server.shutdown();
}

/// Per-class admission reservations, end to end: a flood of bulk traffic
/// cannot starve the interactive class of *admission* — its reserved
/// slots admit it at the flood's peak — and the per-class ledgers stay
/// conserved (including cancellations) under every backpressure policy.
#[test]
fn admission_reservations_conserve_and_protect_across_policies() {
    let table = truth();
    for policy in common::POLICIES {
        let server = AmsServer::start(
            scheduler(),
            Budget::Deadline { ms: 900 },
            ServeConfig {
                shards: 1,
                workers_per_shard: 1,
                queue_capacity: 8,
                max_batch: 2,
                policy,
                // Slow drain so the flood genuinely saturates the queue.
                exec_emulation_scale: 5e-3,
                slo: Some(SloConfig {
                    classes: vec![
                        SloClass::new("bulk", 60_000, 1.0),
                        // Interactive reserves half the queue's slots.
                        SloClass::new("interactive", 60_000, 4.0).with_reserve(0.5),
                    ],
                    admission_control: false,
                    value_weighted_shedding: policy == BackpressurePolicy::ShedOldest,
                    edf_dequeue: false,
                }),
                ..ServeConfig::default()
            },
        );
        let client = server.client();
        let mut outcomes: Vec<(usize, bool)> = Vec::new(); // (class, accepted)
        let mut issued = 0u64;
        // Bulk flood first, then interactive submissions at the peak.
        for (i, item) in table.items().iter().enumerate() {
            let class = if i < 30 { 0 } else { 1 };
            let outcome = client.submit_class(Arc::new(item.clone()), class);
            issued += u64::from(!outcome.is_rejected());
            outcomes.push((class, outcome.is_accepted()));
        }
        let report = server.shutdown();
        let ctx = format!("policy {policy:?}");
        // The reserve holds: the bulk flood can saturate the shared slots,
        // but the interactive class is still admitted at least up to its
        // reserved share (4 of 8 slots) — without the reservation, a
        // Reject queue full of bulk would refuse *every* interactive
        // request. Block and ShedOldest admit all of them (blocking or
        // evicting over-reserve bulk, never the protected slots).
        let interactive_accepted = outcomes
            .iter()
            .filter(|&&(class, accepted)| class == 1 && accepted)
            .count();
        assert!(
            interactive_accepted >= 4,
            "{ctx}: the reserve admits at least its share, got {interactive_accepted}"
        );
        if policy != BackpressurePolicy::Reject {
            assert_eq!(interactive_accepted, 10, "{ctx}: nothing refused");
        }
        assert!(report.is_conserved(), "{ctx}");
        let slo = report.slo.as_ref().expect("slo ledger");
        assert!(slo.is_conserved(), "{ctx}: per-class ledgers balance");
        assert_eq!(slo.classes[1].offered, 10, "{ctx}");
        for c in &slo.classes {
            assert!(
                (c.value_offered - c.value_completed - c.value_shed - c.value_cancelled).abs()
                    < 1e-6,
                "{ctx} class {}: value ledger balances",
                c.name
            );
        }
        // Exactly-once on the event side too.
        let events = client.drain();
        assert_eq!(events.len() as u64, issued, "{ctx}: one event per ticket");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The exactly-once completion property: over arbitrary shard/worker/
    /// batch shapes, all three backpressure policies, value-weighted
    /// eviction on or off, and a cancellation storm of arbitrary phase,
    /// every issued ticket yields one terminal event, ids never repeat,
    /// the event tally matches the report's ledger bucket for bucket, and
    /// the conservation equation (now including `cancelled`) holds.
    #[test]
    fn every_ticket_resolves_exactly_once(
        shards in 1usize..4,
        workers_per_shard in 1usize..3,
        max_batch in 1usize..6,
        queue_capacity in 2usize..10,
        policy_idx in 0usize..3,
        slo_aware in any::<bool>(),
        cancel_stride in 2usize..5,
    ) {
        let policy = common::POLICIES[policy_idx];
        let table = truth();
        let slo = slo_aware.then(|| SloConfig::aware(vec![
            SloClass::new("interactive", 25, 4.0),
            SloClass::new("bulk", 10_000, 1.0),
        ]));
        let server = AmsServer::start(
            scheduler(),
            Budget::Deadline { ms: 900 },
            ServeConfig {
                shards,
                workers_per_shard,
                max_batch,
                queue_capacity,
                policy,
                exec_emulation_scale: 2e-3,
                slo,
                ..ServeConfig::default()
            },
        );
        let client = server.client();
        let mut issued = 0u64;
        let mut rejected = 0u64;
        let mut storm: Vec<Ticket> = Vec::new();
        for (i, item) in table.items().iter().enumerate() {
            match client.submit_class(Arc::new(item.clone()), i % 2).ticket() {
                Some(ticket) => {
                    issued += 1;
                    if i % cancel_stride == 0 {
                        storm.push(ticket);
                    }
                }
                None => rejected += 1,
            }
            // Cancel with a lag of one burst, so cancels hit queued,
            // in-assembly, and already-resolved tickets alike.
            if i % 8 == 7 {
                for t in storm.drain(..) {
                    t.cancel();
                }
            }
        }
        for t in storm.drain(..) {
            t.cancel();
        }
        let report = server.shutdown();
        let events: Vec<Completion> = std::iter::from_fn(|| client.recv()).collect();
        prop_assert_eq!(events.len() as u64, issued, "one event per ticket");
        let ids: HashSet<u64> = events.iter().map(Completion::ticket).collect();
        prop_assert_eq!(ids.len() as u64, issued, "ids unique");
        let (labeled, shed, cancelled) = tally(&events);
        prop_assert_eq!(labeled, report.completed);
        prop_assert_eq!(cancelled, report.cancelled);
        prop_assert_eq!(
            shed,
            report.shed_admission + report.shed_oldest + report.shed_deadline
        );
        prop_assert_eq!(rejected, report.rejected);
        prop_assert!(report.is_conserved(), "conservation with cancellation");
        prop_assert_eq!(report.offered, issued + rejected);
        if let Some(slo) = &report.slo {
            prop_assert!(slo.is_conserved(), "class ledgers balance");
            for c in &slo.classes {
                prop_assert!(
                    (c.value_offered - c.value_completed - c.value_shed - c.value_cancelled)
                        .abs() < 1e-6,
                    "class {} value ledger", c.name
                );
            }
        }
    }
}
