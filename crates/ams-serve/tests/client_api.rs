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
    SloConfig, SubmitOptions, Ticket,
};
use ams_sim::{Admitted, BatchLatencyModel, Group, Job, PoolTimeline};
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
    let workers_per_shard = 2;
    let server = AmsServer::start(
        scheduler(),
        Budget::Deadline { ms: 900 },
        ServeConfig {
            shards: 2,
            workers_per_shard,
            max_batch: 1,
            queue_capacity: 64,
            policy: BackpressurePolicy::Block,
            // A 1 MB pool runs a request's models one at a time, and with
            // several workers on a shard (no look-ahead) a worker pops its
            // next request only once the last of them starts: ~0.4 s per
            // request, so each worker that has popped one stays held for
            // the rest of the test.
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
    // Each worker pops one request, then holds.
    let popped: usize = (0..2)
        .map(|shard| {
            let on_shard = table.items()[..12]
                .iter()
                .filter(|&i| server.shard_of(i) == shard)
                .count();
            on_shard.min(workers_per_shard)
        })
        .sum();
    let queued = tickets.len() - popped;
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

/// Each fixture item's executed model indices under `budget`.
fn executed_models(budget: Budget) -> Vec<Vec<usize>> {
    let sched = scheduler();
    let table = truth();
    table
        .items()
        .iter()
        .map(|item| {
            let outcome = sched.label_item(item, budget);
            outcome.executed.iter().map(|m| m.index()).collect()
        })
        .collect()
}

/// One batch of `items` as `(job, runs)` groups, one per model that ran.
fn groups_of(executed: &[Vec<usize>], items: &[usize]) -> Vec<(Job, usize)> {
    let specs = scheduler().zoo().specs().to_vec();
    let mut runs = vec![0usize; specs.len()];
    for m in items.iter().flat_map(|&i| &executed[i]) {
        runs[*m] += 1;
    }
    specs
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
        .collect()
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
    let executed = executed_models(budget);
    // Each member's own finish, virtual ms, with `pair` batched on an
    // idle one-at-a-time pool. Behind a holder that shares none of its
    // models the pair plans the same, only later, whenever it is admitted:
    // its groups open after the holder's and run after the holder's last.
    let finishes = |pair: [usize; 2]| {
        let mut pool = PoolTimeline::new(1);
        pool.admit(&groups_of(&executed, &pair), &BatchLatencyModel::default());
        let finish = |&m: &usize| pool.group_of(0, m).map_or(0, |g| g.finish_ms);
        pair.map(|i| executed[i].iter().map(finish).max().unwrap_or(0))
    };
    let disjoint = |a: usize, b: usize| !executed[a].iter().any(|m| executed[b].contains(m));
    // The holder holds the worker while the pair queues behind it; of the
    // pairs sharing no model with it, take the one whose own finishes lie
    // furthest apart.
    let (holder, (early, late), gap) = (0..12)
        .flat_map(|h| (0..12).flat_map(move |a| (a + 1..12).map(move |b| (h, [a, b]))))
        .filter(|&(h, [a, b])| h != a && h != b && disjoint(h, a) && disjoint(h, b))
        .map(|(h, pair)| {
            let [fa, fb] = finishes(pair);
            let order = if fa < fb {
                (pair[0], pair[1])
            } else {
                (pair[1], pair[0])
            };
            (h, order, fa.abs_diff(fb))
        })
        .max_by_key(|&(_, _, gap)| gap)
        .expect("a pair sharing no model with a holder");
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
    submit(holder);
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

/// A later batch's runs join the pool's not-yet-started invocation of the
/// same model. On a 1 MB pool a batch's models run one at a time. A
/// blocker holds the worker while a holder pair queues; once the holders
/// are admitted, the next full batch — a second pair, queued while the
/// worker waits for its next member to be due — is popped when the first
/// holder is delivered, while the other holder's later groups are still
/// open. When the second pair shares exactly one of those models, the
/// worker opens one invocation fewer and pays one setup less, and the
/// holder whose group grew is delivered no earlier than the merged
/// group's finish. Every ticket still resolves exactly once into a
/// conserved report whose events reconcile.
#[test]
fn a_later_batch_joins_an_open_group() {
    let budget = Budget::Deadline { ms: 900 };
    let table = truth();
    let executed = executed_models(budget);
    let specs = scheduler().zoo().specs().to_vec();
    let model = BatchLatencyModel::default();
    let bill = |items: &[usize]| -> u64 {
        let groups = groups_of(&executed, items);
        groups
            .iter()
            .map(|&(j, c)| model.batch_time_ms(j.time_ms, c))
            .sum()
    };
    // The holders on an idle pool, then the pair at the earlier holder's
    // finish, virtual ms from the holders' admit. `margin` is the shortest
    // of: that finish, and the wait from it to the next group's start —
    // how late the wall clock may run without changing the plan.
    struct Case {
        holders: [usize; 2],
        pair: [usize; 2],
        admits: [Admitted; 2],
        shared: usize,
        merged: Group,
        margin: u64,
    }
    let case = |holders: [usize; 2], pair: [usize; 2]| {
        let mut pool = PoolTimeline::new(1);
        let first = pool.admit(&groups_of(&executed, &holders), &model);
        let group = |m: usize| pool.group_of(first.index, m);
        let finish = |i: usize| {
            executed[i]
                .iter()
                .filter_map(|&m| group(m))
                .map(|g| g.finish_ms)
                .max()
        };
        let popped = finish(holders[0])?.min(finish(holders[1])?);
        let next = (0..specs.len())
            .filter_map(group)
            .map(|g| g.start_ms)
            .filter(|&s| s > popped)
            .min()?;
        pool.advance_to(popped);
        let second = pool.admit(&groups_of(&executed, &pair), &model);
        let mut shared = (0..specs.len()).filter(|&m| {
            let joined = pool.group_of(second.index, m);
            joined.is_some_and(|g| g.opened == first.index)
                && pair.iter().any(|&i| executed[i].contains(&m))
        });
        let one = shared.next().filter(|_| shared.next().is_none())?;
        Some(Case {
            holders,
            pair,
            admits: [first, second],
            shared: one,
            merged: pool.group_of(first.index, one)?,
            margin: popped.min(next - popped),
        })
    };
    let pairs: Vec<[usize; 2]> = (1..12)
        .flat_map(|a| (a + 1..12).map(move |b| [a, b]))
        .collect();
    let Case {
        holders,
        pair,
        admits: [first, second],
        shared,
        merged,
        margin,
    } = pairs
        .iter()
        .flat_map(|&h| pairs.iter().map(move |&p| (h, p)))
        .filter(|(h, p)| !h.iter().any(|i| p.contains(i)))
        .filter_map(|(h, p)| case(h, p))
        .max_by_key(|c| c.margin)
        .expect("a pair sharing one open model");
    assert_eq!(
        (first.opened + second.opened, first.bill_ms + second.bill_ms),
        (
            groups_of(&executed, &holders).len() + groups_of(&executed, &pair).len() - 1,
            bill(&holders) + bill(&pair) - model.setup_ms(specs[shared].time_ms),
        ),
        "one invocation and one setup fewer"
    );
    // 30 wall ms of margin, and a blocker — outside both pairs — that runs
    // at least 60 wall ms while the holders queue.
    let scale = 30.0 / margin as f64;
    let blocker = (0..12)
        .filter(|i| !holders.contains(i) && !pair.contains(i))
        .max_by_key(|&i| bill(&[i]))
        .expect("a blocker");
    assert!(bill(&[blocker]) as f64 * scale >= 60.0, "blocker {blocker}");
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
            exec_emulation_scale: scale,
            obs: Some(ObsConfig::default()),
            ..ServeConfig::default()
        },
    );
    let client = server.client();
    let submit = |i: usize| {
        let ticket = client.submit(Arc::new(table.item(i).clone())).ticket();
        ticket.expect("lossless config").id()
    };
    // Popped, then 10 ms for the worker to stage the batch and wait for
    // its next member to be due (at least 30 ms away) before the next
    // requests queue: a full batch queued any sooner would be popped at
    // once.
    let popped = || {
        while server.pending() > 0 {
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        std::thread::sleep(std::time::Duration::from_millis(10));
    };
    submit(blocker);
    popped();
    let holder_ids = holders.map(submit);
    popped();
    let pair_ids = pair.map(submit);
    let events: Vec<Completion> = std::iter::from_fn(|| client.recv()).take(5).collect();
    let report = server.shutdown();
    let ids: HashSet<u64> = events.iter().map(Completion::ticket).collect();
    assert_eq!((events.len(), ids.len()), (5, 5), "exactly once");
    assert!(holder_ids
        .iter()
        .chain(&pair_ids)
        .all(|id| ids.contains(id)));
    assert_eq!(client.outstanding(), 0);
    assert_eq!((report.completed, report.batches), (5, 3));
    assert!(report.is_conserved() && report.events_reconcile());
    let blocker_groups = groups_of(&executed, &[blocker]).len() as u64;
    assert_eq!(
        (report.model_invocations, report.virtual_work_ms),
        (
            blocker_groups + (first.opened + second.opened) as u64,
            bill(&[blocker]) + first.bill_ms + second.bill_ms
        ),
        "the pair joined the holder's open group"
    );
    // The holder whose group grew runs from its pop, at most one virtual
    // ms before its admit, to the merged group's finish at least.
    let merged_us = (merged.finish_ms - 1) as f64 * scale * 1000.0;
    for (i, id) in holders.into_iter().zip(holder_ids) {
        if !executed[i].contains(&shared) {
            continue;
        }
        let exec_us = events
            .iter()
            .find(|e| e.ticket() == id)
            .and_then(Completion::labeled)
            .expect("the holder is labeled")
            .execute_us;
        assert!(
            exec_us as f64 >= merged_us,
            "holder {i} delivered after {exec_us} us, before the merged group ends at {merged_us} us"
        );
    }
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
            let opts = SubmitOptions::class(i % 2);
            match client.submit_with(Arc::new(item.clone()), opts).ticket() {
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
