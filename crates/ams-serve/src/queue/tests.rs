//! Unit tests of the queue. Everything timing-dependent is tested on the
//! [`QueueCore`] with literal microseconds after the epoch — no thread, no
//! wait, no clock; the [`ShardQueue`] tests cover what only the shell does
//! (outcomes, settlement, the victim's shed, blocking, close).

use super::*;
use crate::cache::{self, LabelCache};
use crate::completion::{CancelLedger, Completion, CompletionQueue, Ticket};
use ams_data::{Dataset, DatasetProfile, TruthTable};
use ams_models::ModelZoo;
use std::sync::OnceLock;
use BackpressurePolicy::{Block, Reject, ShedOldest};

/// A request on signature `sig` for one scene, built once: the queue
/// never reads the item.
fn req(sig: u64) -> Request {
    static ITEM: OnceLock<Arc<ItemTruth>> = OnceLock::new();
    let item = ITEM.get_or_init(|| {
        let zoo = ModelZoo::standard();
        let ds = Dataset::generate(DatasetProfile::Coco2017, 1, 5);
        let truth = TruthTable::build(&zoo, &zoo.catalog(), &ds, 0.5);
        Arc::new(truth.item(0).clone())
    });
    Request::new(Arc::clone(item), sig)
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

/// Offer `r` at `now_us`, which must take a slot; the victim evicted for
/// it, if any.
fn admit(core: &mut QueueCore<Request>, r: Request, now_us: u64, hint_us: u64) -> Option<Request> {
    match core.offer(r, now_us, load(hint_us, 0)) {
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

// The core: decisions as functions of (state, now_us).

/// Value-weighted eviction, tier by tier, on a 200 µs doom horizon (a
/// 100 µs drain hint × half of the four queued).
#[test]
fn eviction_tiers_split_exactly_at_the_doom_horizon() {
    let mut core = QueueCore::new(4, ShedOldest, true, false);
    let slo = |value, budget_us| req(0).with_slo(0, value, budget_us);
    let queued = [
        (9.0, Some(1_200)),
        (5.0, Some(1_201)),
        (7.0, Some(1_100)),
        (100.0, None),
    ];
    for (value, budget_us) in queued {
        assert!(admit(&mut core, slo(value, budget_us), 0, 100).is_none());
    }
    // At t = 1000 µs the 9.0 has exactly the horizon left, the 5.0 one
    // microsecond more, the 7.0 half of it; the 100.0 races no clock.
    let mut shed = || {
        let viable_newcomer = slo(1.0, Some(10_000));
        let victim = admit(&mut core, viable_newcomer, 1_000, 100);
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
    let slo = |value, budget_us| req(0).with_slo(0, value, Some(budget_us));
    let victim_at_pool_wait = |pool_wait_us| {
        let mut core = QueueCore::new(2, ShedOldest, true, false);
        admit(&mut core, slo(100.0, 1_000), 0, 100);
        admit(&mut core, slo(1.0, 1_000_000), 0, 100);
        match core.offer(slo(1.0, 1_000_000), 800, load(100, pool_wait_us)) {
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
    let pool_wait_us = |now_us| q.load(now_us).pool_wait_us;
    assert_eq!(pool_wait_us(0), 0, "nothing published");
    q.set_pool_end(0, 5_000);
    assert_eq!(pool_wait_us(0), 0, "worker 1 has published nothing");
    q.set_pool_end(1, 3_000);
    assert_eq!(pool_wait_us(0), 3_000);
    assert_eq!(pool_wait_us(1_000), 2_000);
    assert_eq!(pool_wait_us(4_000), 0, "worker 1 has drained");
    q.set_pool_end(1, 9_000);
    assert_eq!(pool_wait_us(4_000), 1_000, "now worker 0 frees first");
    q.publish_batch(7_000, 4);
    let load = q.load(0);
    assert_eq!((load.amortized_us, load.exec_span_us), (1_750, 7_000));
    q.publish_batch(6_000, 2);
    let want = (1_750 * 3 + 3_000) / 4;
    assert_eq!((q.load(0).amortized_us, q.load(0).workers), (want, 2));
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
    let mut core = QueueCore::new(3, ShedOldest, true, false);
    // Three queued: generous deadlines, values 5 / 0.5 / 3. The blind
    // policy would evict the head (value 5); value-weighted must evict
    // the value-0.5 request — worst value-per-remaining-deadline.
    for (class, value) in [(0, 5.0), (1, 0.5), (0, 3.0)] {
        let r = req(0).with_slo(class, value, Some(1_000_000));
        assert!(admit(&mut core, r, 0, 0).is_none());
    }
    let newcomer = req(0).with_slo(0, 2.0, Some(1_000_000));
    let victim = admit(&mut core, newcomer, 10, 0).expect("evicts");
    assert_eq!((victim.class, victim.value), (1, 0.5));
    let values: Vec<f64> = core.take(4).iter().map(|r| r.value).collect();
    assert_eq!(values, vec![5.0, 3.0, 2.0], "high-value work survived");
}

#[test]
fn value_weighted_eviction_prefers_an_expired_request() {
    let slo = |value, budget_us| req(0).with_slo(0, value, Some(budget_us));
    // The high-value request expires at t = 500 — from then on it would be
    // deadline-shed at dequeue anyway, so evicting it loses nothing even
    // though its value density would otherwise keep it.
    let queue = || {
        let mut core = QueueCore::new(2, ShedOldest, true, false);
        admit(&mut core, slo(100.0, 500), 0, 0);
        admit(&mut core, slo(1.0, 1_000_000), 0, 0);
        core
    };
    let victim_at = |now| admit(&mut queue(), slo(1.0, 1_000_000), now, 0).map(|v| v.value);
    assert_eq!(victim_at(499), Some(1.0), "1 µs left: its density wins");
    assert_eq!(victim_at(500), Some(100.0), "age == budget: expired");
}

/// Value-weighted overflow considers the *incoming* request too: a doomed
/// newcomer that scores below every victim is itself the shed instead of
/// evicting viable queued work; a viable newcomer never is.
#[test]
fn worthless_incoming_request_is_shed_instead_of_viable_queued_work() {
    let slo = |class, value, budget_us| req(0).with_slo(class, value, Some(budget_us));
    let queue = || {
        let mut core = QueueCore::new(2, ShedOldest, true, false);
        admit(&mut core, slo(0, 5.0, 1_000_000), 0, 0);
        admit(&mut core, slo(0, 3.0, 400), 0, 0);
        core
    };
    // Expired on arrival: admitting it could only convert a viable queued
    // request into a shed.
    let mut core = queue();
    match core.offer(slo(1, 9.0, 0), 100, load(0, 0)) {
        Offer::ShedIncoming(back) => assert_eq!((back.class, back.value), (1, 9.0)),
        other => panic!("the newcomer is the shed, got {other:?}"),
    }
    assert_eq!(core.len(), 2, "queued work untouched");
    // A viable newcomer gets its slot even when its value density reads
    // below every queued request's.
    let victim = admit(&mut core, slo(1, 1e-9, 1_000_000), 100, 0);
    assert_eq!(victim.expect("evicts").value, 5.0, "worst queued density");
    // And once a queued request is doomed and cheaper, even a doomed
    // newcomer takes its slot: at t = 400 the 3.0 has expired.
    let victim = admit(&mut queue(), slo(1, 9.0, 0), 400, 0);
    assert_eq!(victim.expect("evicts").value, 3.0, "the cheaper doomed one");
}

/// EDF head and in-group order: earliest absolute deadline first,
/// deadline-less strictly last, ties by queue order — and expiry exactly
/// when a request's age reaches its budget.
#[test]
fn edf_pop_serves_earliest_deadline_first_within_signature_groups() {
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
        let r = req(sig).with_slo(0, i as f64, budget_us);
        admit(&mut core, r, enqueued_us, 0);
    }
    // The head's signature group joins in deadline order — an hour-long
    // deadline still ahead of none — and the most urgent sig-9 tops up.
    let batch = core.take(6);
    let order: Vec<f64> = batch.iter().map(|r| r.value).collect();
    assert_eq!(order, vec![4.0, 2.0, 5.0, 6.0, 0.0, 3.0]);
    assert_eq!(core.take(6).len(), 1, "the lax sig-9 is left");

    let head = &batch[0];
    assert_eq!(head.enqueued_us, 30, "stamped with the offer's now");
    assert_eq!(head.remaining_us(49), Some(1));
    assert!(!head.expired(49) && head.expired(50) && head.expired(9_000));
    assert_eq!(batch[4].remaining_us(9_000), None, "no budget to exhaust");
}

/// Regression: cancellation tombstones must not inflate the admission
/// snapshot or the live depth the router's wait estimate multiplies — a
/// queue full of cancelled entries is no drain work, and pricing it as
/// backlog would shed or spill fresh requests against dead weight. They
/// are purged before any backpressure applies, under every policy.
#[test]
fn tombstones_are_excluded_from_admission_pricing() {
    for policy in [Reject, Block, ShedOldest] {
        let mut core = QueueCore::new(3, policy, false, false);
        let desk = desk();
        let issued: Vec<Ticket> = (0..3)
            .map(|id| {
                let r = req(0).with_slo(0, 1.0, Some(50_000));
                let (r, ticket) = ticketed(r, id, &desk);
                admit(&mut core, r, 0, 0);
                ticket
            })
            .collect();
        assert_eq!(core.snapshot(50_001), (3, 3));
        assert_eq!(core.snapshot(50_000), (3, 0), "ahead is strictly earlier");
        assert_eq!(core.live_len(), 3);
        assert!(issued.iter().all(Ticket::cancel));
        // All three entries are tombstones now: physically queued, but no
        // drain work and no admission occupancy.
        assert_eq!(core.len(), 3, "tombstones still occupy until purged");
        assert_eq!(core.live_len(), 0);
        assert_eq!(core.snapshot(50_001), (0, 0));
        let cancelled = desk.0.drain();
        assert!(cancelled.len() == 3 && cancelled.iter().all(Completion::is_cancelled));
        // A full-looking queue admits with nothing evicted: the purge
        // comes first — no `Full` under `Block`, no shed under
        // `ShedOldest`.
        assert!(admit(&mut core, req(0), 10, 0).is_none(), "{policy:?}");
        assert_eq!((core.len(), core.live_len()), (1, 1), "{policy:?}");
    }
}

// The shell: outcomes, settlement, blocking, close.

#[test]
fn reject_policy_refuses_when_full() {
    let q = ShardQueue::new(2, Reject);
    assert_eq!(q.push(req(0)), SubmitOutcome::Enqueued(()));
    assert_eq!(q.push(req(0)), SubmitOutcome::Enqueued(()));
    assert_eq!(q.push(req(0)), SubmitOutcome::Rejected);
    assert_eq!(q.len(), 2);
}

#[test]
fn shed_oldest_drops_head_and_admits() {
    let q = ShardQueue::new(2, ShedOldest);
    q.push(req(0));
    q.push(req(0));
    assert_eq!(q.push(req(0)), SubmitOutcome::EnqueuedShedOldest(()));
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
    let desk = desk();
    let push = |id, class, value, deadline_us| {
        let r = req(0).with_slo(class, value, Some(deadline_us));
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

/// A cancelled leader that still has a follower is no tombstone, so a
/// full blind queue evicts it like any head. Its follower is shed with
/// `Overflow`; its own slot already resolved as cancelled, so the eviction
/// is a free purge: no `ShedOverflow` entry, and a plain `Enqueued` for
/// the newcomer.
#[test]
fn evicting_a_cancelled_leader_sheds_its_follower_as_a_free_purge() {
    let q = ShardQueue::new(1, ShedOldest);
    let (desk, cache) = (desk(), LabelCache::new(None));
    let entry = cache::tests::lead(&cache, 7);
    let _follower = cache::tests::coalesce(&cache, 7, &desk.0, 1);
    let (leader, ticket) = ticketed(req(0).with_cache(entry), 0, &desk);
    assert_eq!(q.push(leader), SubmitOutcome::Enqueued(()));
    assert!(ticket.cancel());
    assert_eq!(q.live_len(), 1, "a leader with a follower is no tombstone");
    assert_eq!(q.push(req(0)), SubmitOutcome::Enqueued(()));
    assert_eq!(settled(&q, EventKind::ShedOverflow), [(0, 0.0)]);
    assert_eq!(settled(&q, EventKind::Enqueued), [(2, 2.0)]);
    let events = desk.0.drain();
    let tickets: Vec<u64> = events.iter().map(Completion::ticket).collect();
    assert_eq!(tickets, [0, 1], "the leader's cancel, then its follower's");
    let overflow = ShedReason::Overflow;
    assert!(events[0].is_cancelled());
    assert!(matches!(events[1], Completion::Shed { reason, .. } if reason == overflow));
}

/// The one test that needs a second thread: a `Block` producer waits for
/// a slot, and its `enqueued_us` is stamped when it takes the slot — after
/// the wait, never before it. The slot frees no sooner than 20 ms after
/// the first request took it.
#[test]
fn block_policy_waits_for_a_slot() {
    let q = Arc::new(ShardQueue::new(1, Block));
    q.push(req(0));
    let q2 = Arc::clone(&q);
    let r2 = req(0);
    let producer = std::thread::spawn(move || q2.push(r2));
    // Give the producer time to block, then free the slot.
    std::thread::sleep(Duration::from_millis(20));
    let first = q.pop_batch(1);
    assert_eq!(first.len(), 1);
    assert_eq!(
        producer.join().expect("producer"),
        SubmitOutcome::Enqueued(())
    );
    let queued = q.pop_batch(1);
    assert_eq!(queued.len(), 1);
    assert!(
        queued[0].enqueued_us >= first[0].enqueued_us + 20_000,
        "the queue-wait clock must not charge the producer's blocking"
    );
}

#[test]
fn pop_batch_coalesces_up_to_max() {
    let q = ShardQueue::new(16, Block);
    for _ in 0..5 {
        q.push(req(0));
    }
    assert_eq!(q.pop_batch(3).len(), 3);
    assert_eq!(q.pop_batch(3).len(), 2, "takes what's there, no waiting");
}

#[test]
fn pop_batch_groups_head_signature_first_then_tops_up() {
    let q = ShardQueue::new(16, Block);
    // Interleaved signatures: A B A B A
    for sig in [7u64, 9, 7, 9, 7] {
        q.push(req(sig));
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
    q.push(req(0));
    q.close();
    assert_eq!(q.push(req(0)), SubmitOutcome::Rejected);
    assert_eq!(q.pop_batch(8).len(), 1, "remaining work drains");
    assert!(q.pop_batch(8).is_empty(), "then workers see the close");
}

#[test]
fn abort_discards_the_backlog_and_closes() {
    let q = ShardQueue::new(8, Block);
    q.push(req(0));
    q.push(req(0));
    let discarded = q.abort();
    assert_eq!(discarded.len(), 2, "backlog handed back for Drain sheds");
    assert!(q.pop_batch(8).is_empty(), "workers see closed + empty");
    assert_eq!(q.push(req(0)), SubmitOutcome::Rejected);
}
