//! Unit tests of the queue. Everything timing-dependent is tested on the
//! [`QueueCore`] with literal microseconds on a test-local timeline — no
//! thread, no wait, no elapsed-time assert; the [`ShardQueue`] tests cover
//! what only the shell does (outcomes, settlement, blocking, close).

use super::core::{Load, Offer, QueueCore};
use super::*;
use crate::completion::{CancelLedger, Completion, CompletionQueue, Ticket};
use ams_data::{Dataset, DatasetProfile, TruthTable};
use ams_models::ModelZoo;
use BackpressurePolicy::{Block, Reject, ShedOldest};

fn item() -> Arc<ItemTruth> {
    let zoo = ModelZoo::standard();
    let ds = Dataset::generate(DatasetProfile::Coco2017, 1, 5);
    let truth = TruthTable::build(&zoo, &zoo.catalog(), &ds, 0.5);
    Arc::new(truth.item(0).clone())
}

fn req(it: &Arc<ItemTruth>, sig: u64) -> Request {
    Request::new(Arc::clone(it), sig)
}

/// A test's timeline: microsecond `us` after an arbitrary epoch.
fn timeline() -> impl Fn(u64) -> Instant {
    let epoch = Instant::now();
    move |us| epoch + Duration::from_micros(us)
}

/// A one-worker shard's published wait: `hint_us` a request, and
/// `pool_wait_us` of pool work ahead of a popped request.
fn load(hint_us: u64, pool_wait_us: u64) -> Load {
    Load {
        amortized_us: hint_us,
        exec_span_us: 0,
        pool_wait_us,
        workers: 1,
    }
}

/// Offer `r` — created at `now`, so the offer prices its full budget —
/// which must take a slot; the victim evicted for it, if any.
fn admit(core: &mut QueueCore, mut r: Request, now: Instant, hint_us: u64) -> Option<Request> {
    r.enqueued_at = now;
    match core.offer(r, now, load(hint_us, 0)) {
        Offer::Enqueued { evicted } => evicted,
        other => panic!("expected a slot, got {other:?}"),
    }
}

/// Where test tickets deliver their events and record their cancels.
type Desk = (Arc<CompletionQueue>, Arc<CancelLedger>);

fn desk() -> Desk {
    (Arc::new(CompletionQueue::new(8)), Arc::default())
}

/// `r` carrying ticket `id`'s completion slot, and the ticket.
fn ticketed(r: Request, id: u64, (cq, cancels): &Desk) -> (Request, Ticket) {
    cq.issue();
    let slot = CompletionSlot::new(id, r.class, r.value, Arc::clone(cq), Arc::clone(cancels));
    let slot = Arc::new(slot);
    (r.with_completion(Arc::clone(&slot)), Ticket::new(slot))
}

/// The queue's `kind` bucket as `(count, value)` per class.
fn settled(q: &ShardQueue, kind: EventKind) -> Vec<(u64, f64)> {
    let ledger = q.ledger();
    let rows = ledger.rows().iter();
    rows.map(|t| (t.count(kind), t.value(kind))).collect()
}

// The core: decisions as functions of (state, now).

/// Value-weighted eviction, tier by tier, on a 200 µs doom horizon (a
/// 100 µs drain hint × half of the four queued).
#[test]
fn eviction_tiers_split_exactly_at_the_doom_horizon() {
    let (at, it) = (timeline(), item());
    let mut core = QueueCore::new(4, ShedOldest, true, false);
    let slo = |value, budget_us| req(&it, 0).with_slo(0, value, budget_us);
    let queued = [
        (9.0, Some(1_200)),
        (5.0, Some(1_201)),
        (7.0, Some(1_100)),
        (100.0, None),
    ];
    for (value, budget_us) in queued {
        assert!(admit(&mut core, slo(value, budget_us), at(0), 100).is_none());
    }
    // At t = 1000 µs the 9.0 has exactly the horizon left, the 5.0 one
    // microsecond more, the 7.0 half of it; the 100.0 races no clock.
    let mut shed = || {
        let viable_newcomer = slo(1.0, Some(10_000));
        let victim = admit(&mut core, viable_newcomer, at(1_000), 100);
        victim.expect("a full queue evicts").value
    };
    assert_eq!(shed(), 7.0, "the cheapest doomed request goes first");
    assert_eq!(shed(), 9.0, "remaining == horizon is doomed");
    assert_eq!(shed(), 100.0, "deadline-less is infinitely lax");
    assert_eq!(shed(), 1.0, "then the worst value per remaining µs");
    let survivors: Vec<f64> = core.take(4).iter().map(|r| r.value).collect();
    assert_eq!(survivors[0], 5.0, "horizon + 1 µs is viable");
}

/// The doom horizon adds the pool wait still ahead of a popped request:
/// 100 µs drain hint × half of the two queued = 100 µs, plus a 150 µs pool
/// wait. At t = 800 µs the 100.0 has 200 µs left — viable on the queue
/// wait alone, doomed once the pool wait is priced.
#[test]
fn the_pool_wait_extends_the_doom_horizon() {
    let (at, it) = (timeline(), item());
    let slo = |value, budget_us| req(&it, 0).with_slo(0, value, Some(budget_us));
    let victim_at_pool_wait = |pool_wait_us| {
        let mut core = QueueCore::new(2, ShedOldest, true, false);
        admit(&mut core, slo(100.0, 1_000), at(0), 100);
        admit(&mut core, slo(1.0, 1_000_000), at(0), 100);
        let mut newcomer = slo(1.0, 1_000_000);
        newcomer.enqueued_at = at(800);
        match core.offer(newcomer, at(800), load(100, pool_wait_us)) {
            Offer::Enqueued { evicted } => evicted.expect("a full queue evicts").value,
            other => panic!("expected a slot, got {other:?}"),
        }
    };
    assert_eq!(victim_at_pool_wait(0), 1.0, "viable: worst density goes");
    assert_eq!(
        victim_at_pool_wait(99),
        1.0,
        "remaining 1 µs past the horizon"
    );
    assert_eq!(
        victim_at_pool_wait(100),
        100.0,
        "remaining == horizon: doomed"
    );
    assert_eq!(victim_at_pool_wait(150), 100.0);
}

/// The shell's published wait. The pool wait is the time left to the
/// soonest pool end — the worker that frees first takes the next batch;
/// ends before `now` (a drained pool) and unpublished slots wait 0. A
/// batch's busy span folds into the service-time EWMAs: a 7 ms span for 4
/// requests is 1 750 µs each, the next span at a quarter weight.
#[test]
fn pool_wait_is_the_time_left_to_the_soonest_pool_end() {
    let q = ShardQueue::new(4, Block).with_workers(2);
    let t0 = q.epoch;
    let ms = Duration::from_millis;
    let pool_wait_us = |now| q.load(now).pool_wait_us;
    assert_eq!(pool_wait_us(t0), 0, "nothing published");
    q.set_pool_end(0, 5_000);
    assert_eq!(pool_wait_us(t0), 0, "worker 1 has published nothing");
    q.set_pool_end(1, 3_000);
    assert_eq!(pool_wait_us(t0), 3_000);
    assert_eq!(pool_wait_us(t0 + ms(1)), 2_000);
    assert_eq!(pool_wait_us(t0 + ms(4)), 0, "worker 1 has drained");
    q.set_pool_end(1, 9_000);
    assert_eq!(pool_wait_us(t0 + ms(4)), 1_000, "now worker 0 frees first");
    q.publish_batch(ms(7), 4);
    let load = q.load(t0);
    assert_eq!((load.amortized_us, load.exec_span_us), (1_750, 7_000));
    q.publish_batch(ms(6), 2);
    let want = (1_750 * 3 + 3_000) / 4;
    assert_eq!((q.load(t0).amortized_us, q.load(t0).workers), (want, 2));
}

/// Every wait price from one literal: 100 µs amortized per request over 2
/// workers (a 50 µs drain hint), a 300 µs execute span, and a queue 4
/// deep. Admission's price of the same literal is tested beside its
/// caller, in `server::submit`.
#[test]
fn one_load_prices_every_wait() {
    let at = |amortized_us, pool_wait_us| Load {
        amortized_us,
        exec_span_us: 300,
        pool_wait_us,
        workers: 2,
    };
    assert_eq!(at(100, 0).hint_us(), 50);
    assert_eq!(at(100, 0).queue_wait_us(4), 200, "the spill router's price");
    assert_eq!(at(100, 150).doom_wait_us(4), 250, "eviction's horizon");
    assert_eq!(at(0, 150).queue_wait_us(4), 0, "no evidence, no wait");
}

#[test]
fn value_weighted_eviction_drops_worst_value_density() {
    let (at, it) = (timeline(), item());
    let mut core = QueueCore::new(3, ShedOldest, true, false);
    // Three queued: generous deadlines, values 5 / 0.5 / 3. The blind
    // policy would evict the head (value 5); value-weighted must evict
    // the value-0.5 request — worst value-per-remaining-deadline.
    for (class, value) in [(0, 5.0), (1, 0.5), (0, 3.0)] {
        let r = req(&it, 0).with_slo(class, value, Some(1_000_000));
        assert!(admit(&mut core, r, at(0), 0).is_none());
    }
    let newcomer = req(&it, 0).with_slo(0, 2.0, Some(1_000_000));
    let victim = admit(&mut core, newcomer, at(10), 0).expect("evicts");
    assert_eq!((victim.class, victim.value), (1, 0.5));
    let values: Vec<f64> = core.take(4).iter().map(|r| r.value).collect();
    assert_eq!(values, vec![5.0, 3.0, 2.0], "high-value work survived");
}

#[test]
fn value_weighted_eviction_prefers_an_expired_request() {
    let (at, it) = (timeline(), item());
    let slo = |value, budget_us| req(&it, 0).with_slo(0, value, Some(budget_us));
    // The high-value request expires at t = 500 — from then on it would be
    // deadline-shed at dequeue anyway, so evicting it loses nothing even
    // though its value density would otherwise keep it.
    let queue = || {
        let mut core = QueueCore::new(2, ShedOldest, true, false);
        admit(&mut core, slo(100.0, 500), at(0), 0);
        admit(&mut core, slo(1.0, 1_000_000), at(0), 0);
        core
    };
    let victim_at = |now| admit(&mut queue(), slo(1.0, 1_000_000), now, 0).map(|v| v.value);
    assert_eq!(victim_at(at(499)), Some(1.0), "1 µs left: its density wins");
    assert_eq!(victim_at(at(500)), Some(100.0), "age == budget: expired");
}

/// Value-weighted overflow considers the *incoming* request too: a doomed
/// newcomer that scores below every victim is itself the shed instead of
/// evicting viable queued work; a viable newcomer never is.
#[test]
fn worthless_incoming_request_is_shed_instead_of_viable_queued_work() {
    let (at, it) = (timeline(), item());
    let slo = |class, value, budget_us| req(&it, 0).with_slo(class, value, Some(budget_us));
    let queue = || {
        let mut core = QueueCore::new(2, ShedOldest, true, false);
        admit(&mut core, slo(0, 5.0, 1_000_000), at(0), 0);
        admit(&mut core, slo(0, 3.0, 400), at(0), 0);
        core
    };
    // Expired on arrival: admitting it could only convert a viable queued
    // request into a shed.
    let mut core = queue();
    match core.offer(slo(1, 9.0, 0), at(100), load(0, 0)) {
        Offer::ShedIncoming(back) => assert_eq!((back.class, back.value), (1, 9.0)),
        other => panic!("the newcomer is the shed, got {other:?}"),
    }
    assert_eq!(core.len(), 2, "queued work untouched");
    // A viable newcomer gets its slot even when its value density reads
    // below every queued request's.
    let victim = admit(&mut core, slo(1, 1e-9, 1_000_000), at(100), 0);
    assert_eq!(victim.expect("evicts").value, 5.0, "worst queued density");
    // And once a queued request is doomed and cheaper, even a doomed
    // newcomer takes its slot: at t = 400 the 3.0 has expired.
    let victim = admit(&mut queue(), slo(1, 9.0, 0), at(400), 0);
    assert_eq!(victim.expect("evicts").value, 3.0, "the cheaper doomed one");
}

/// EDF head and in-group order: earliest absolute deadline first,
/// deadline-less strictly last, ties by queue order — and expiry exactly
/// when a request's age reaches its budget.
#[test]
fn edf_pop_serves_earliest_deadline_first_within_signature_groups() {
    let (at, it) = (timeline(), item());
    let mut core = QueueCore::new(16, Block, false, true);
    // (signature, enqueued at, budget); the value carries the queue index.
    let queued = [
        (7, 0, None),
        (9, 0, Some(500)),
        (7, 10, Some(390)), // due at 400
        (9, 20, Some(80)),  // due at 100
        (7, 30, Some(20)),  // due at 50: the head
        (7, 40, Some(360)), // due at 400 too: queue order decides
        (7, 50, Some(3_600_000_000)),
    ];
    for (i, (sig, enqueued_us, budget_us)) in queued.into_iter().enumerate() {
        let r = req(&it, sig).with_slo(0, i as f64, budget_us);
        admit(&mut core, r, at(enqueued_us), 0);
    }
    // The head's signature group joins in deadline order — an hour-long
    // deadline still ahead of none — and the most urgent sig-9 tops up.
    let batch = core.take(6);
    let order: Vec<f64> = batch.iter().map(|r| r.value).collect();
    assert_eq!(order, vec![4.0, 2.0, 5.0, 6.0, 0.0, 3.0]);
    assert_eq!(core.take(6).len(), 1, "the lax sig-9 is left");

    let head = &batch[0];
    assert_eq!(head.enqueued_at, at(30), "stamped with the offer's now");
    assert_eq!(head.remaining_us(at(49)), Some(1));
    assert!(!head.expired(at(49)) && head.expired(at(50)) && head.expired(at(9_000)));
    assert_eq!(
        batch[4].remaining_us(at(9_000)),
        None,
        "no budget to exhaust"
    );
}

/// Regression: cancellation tombstones must not inflate the admission
/// snapshot or the live depth the router's wait estimate multiplies — a
/// queue full of cancelled entries is no drain work, and pricing it as
/// backlog would shed or spill fresh requests against dead weight. They
/// are purged before any backpressure applies, under every policy.
#[test]
fn tombstones_are_excluded_from_admission_pricing() {
    let (at, it) = (timeline(), item());
    for policy in [Reject, Block, ShedOldest] {
        let mut core = QueueCore::new(3, policy, false, false);
        let desk = desk();
        let issued: Vec<Ticket> = (0..3)
            .map(|id| {
                let r = req(&it, 0).with_slo(0, 1.0, Some(50_000));
                let (r, ticket) = ticketed(r, id, &desk);
                admit(&mut core, r, at(0), 0);
                ticket
            })
            .collect();
        assert_eq!(core.snapshot(at(50_001)), (3, 3));
        assert_eq!(
            core.snapshot(at(50_000)),
            (3, 0),
            "ahead is strictly earlier"
        );
        assert_eq!(core.live_len(), 3);
        assert!(issued.iter().all(Ticket::cancel));
        // All three entries are tombstones now: physically queued, but no
        // drain work and no admission occupancy.
        assert_eq!(core.len(), 3, "tombstones still occupy until purged");
        assert_eq!(core.live_len(), 0);
        assert_eq!(core.snapshot(at(50_001)), (0, 0));
        let cancelled = desk.1.lock().expect("cancel ledger").total();
        assert_eq!(cancelled.count(EventKind::Cancelled), 3);
        // A full-looking queue admits with nothing evicted: the purge
        // comes first — no `Full` under `Block`, no shed under
        // `ShedOldest`.
        assert!(
            admit(&mut core, req(&it, 0), at(10), 0).is_none(),
            "{policy:?}"
        );
        assert_eq!((core.len(), core.live_len()), (1, 1), "{policy:?}");
    }
}

// The shell: outcomes, settlement, blocking, close.

#[test]
fn reject_policy_refuses_when_full() {
    let q = ShardQueue::new(2, Reject);
    let it = item();
    assert_eq!(q.push(req(&it, 0)), SubmitOutcome::Enqueued(()));
    assert_eq!(q.push(req(&it, 0)), SubmitOutcome::Enqueued(()));
    assert_eq!(q.push(req(&it, 0)), SubmitOutcome::Rejected);
    assert_eq!(q.len(), 2);
}

#[test]
fn shed_oldest_drops_head_and_admits() {
    let q = ShardQueue::new(2, ShedOldest);
    let it = item();
    q.push(req(&it, 0));
    q.push(req(&it, 0));
    assert_eq!(q.push(req(&it, 0)), SubmitOutcome::EnqueuedShedOldest(()));
    assert_eq!(q.len(), 2, "still at capacity");
    let overflow = settled(&q, EventKind::ShedOverflow);
    assert_eq!(overflow, [(1, 1.0)], "unit default value");
}

/// Every decision is settled under the queue lock in the queue's own
/// ledger — `Enqueued` for a request that took a slot, `ShedOverflow` for
/// an evicted victim and for a newcomer that was itself the shed — and a
/// shed's ticket resolves `Shed(Overflow)`.
#[test]
fn each_decision_is_settled_once_in_the_queue_ledger() {
    let q = ShardQueue::with_slo(1, ShedOldest, true, false);
    let (it, desk) = (item(), desk());
    let push = |id, class, value, deadline_us| {
        let r = req(&it, 0).with_slo(class, value, Some(deadline_us));
        q.push(ticketed(r, id, &desk).0)
    };
    assert_eq!(push(0, 0, 2.0, 1_000_000), SubmitOutcome::Enqueued(()));
    assert_eq!(push(1, 1, 9.0, 0), SubmitOutcome::ShedIncoming(()));
    let evicting = push(2, 1, 3.0, 1_000_000);
    assert_eq!(evicting, SubmitOutcome::EnqueuedShedOldest(()));
    assert_eq!(settled(&q, EventKind::Enqueued), [(1, 2.0), (1, 3.0)]);
    assert_eq!(settled(&q, EventKind::ShedOverflow), [(1, 2.0), (1, 9.0)]);
    // The expired newcomer (ticket 1) was shed first, then the victim;
    // ticket 2 is queued.
    let shed = |event| match event {
        Completion::Shed { ticket, reason, .. } => (ticket, reason),
        other => panic!("expected a shed, got {other:?}"),
    };
    let shed: Vec<_> = desk.0.drain().into_iter().map(shed).collect();
    assert_eq!(shed, [1, 0].map(|ticket| (ticket, ShedReason::Overflow)));
}

/// The one test that needs a second thread: a `Block` producer waits for
/// a slot, and its `enqueued_at` is stamped when it takes the slot — after
/// the wait, never before it.
#[test]
fn block_policy_waits_for_a_slot() {
    let q = Arc::new(ShardQueue::new(1, Block));
    let it = item();
    q.push(req(&it, 0));
    let q2 = Arc::clone(&q);
    let r2 = req(&it, 0);
    let producer = std::thread::spawn(move || q2.push(r2));
    // Give the producer time to block, then free the slot.
    std::thread::sleep(Duration::from_millis(20));
    let freed_at = Instant::now();
    assert_eq!(q.pop_batch(1).len(), 1);
    assert_eq!(
        producer.join().expect("producer"),
        SubmitOutcome::Enqueued(())
    );
    let queued = q.pop_batch(1);
    assert_eq!(queued.len(), 1);
    assert!(
        queued[0].enqueued_at >= freed_at,
        "the queue-wait clock must not charge the producer's blocking"
    );
}

#[test]
fn pop_batch_coalesces_up_to_max() {
    let q = ShardQueue::new(16, Block);
    let it = item();
    for _ in 0..5 {
        q.push(req(&it, 0));
    }
    assert_eq!(q.pop_batch(3).len(), 3);
    assert_eq!(q.pop_batch(3).len(), 2, "takes what's there, no waiting");
}

#[test]
fn pop_batch_groups_head_signature_first_then_tops_up() {
    let q = ShardQueue::new(16, Block);
    let it = item();
    // Interleaved signatures: A B A B A
    for sig in [7u64, 9, 7, 9, 7] {
        q.push(req(&it, sig));
    }
    let batch = q.pop_batch(4);
    assert_eq!(batch.len(), 4, "fills from the rest after the sig group");
    let sigs: Vec<u64> = batch.iter().map(|r| r.signature).collect();
    // All three sig-7 requests (the head's signature) come first, then
    // the oldest sig-9 tops the batch up.
    assert_eq!(sigs, vec![7, 7, 7, 9]);
    // The remaining request is the younger sig-9.
    let rest = q.pop_batch(4);
    assert_eq!(rest.len(), 1);
    assert_eq!(rest[0].signature, 9);
}

#[test]
fn close_drains_then_signals_exit() {
    let q = ShardQueue::new(8, Block);
    let it = item();
    q.push(req(&it, 0));
    q.close();
    assert_eq!(q.push(req(&it, 0)), SubmitOutcome::Rejected);
    assert_eq!(q.pop_batch(8).len(), 1, "remaining work drains");
    assert!(q.pop_batch(8).is_empty(), "then workers see the close");
}

#[test]
fn abort_discards_the_backlog_and_closes() {
    let q = ShardQueue::new(8, Block);
    let it = item();
    q.push(req(&it, 0));
    q.push(req(&it, 0));
    let discarded = q.abort();
    assert_eq!(discarded.len(), 2, "backlog handed back for Drain sheds");
    assert!(q.pop_batch(8).is_empty(), "workers see closed + empty");
    assert_eq!(q.push(req(&it, 0)), SubmitOutcome::Rejected);
}
