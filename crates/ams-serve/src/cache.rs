//! Content-addressed label cache with in-flight request coalescing.
//!
//! At millions-of-users scale the traffic a labeling service sees is
//! heavily repetitive, yet without a cache every duplicate scene pays the
//! full model-invocation bill. This module deduplicates that spend on two
//! levels, keyed by the strengthened scene fingerprint
//! ([`ams_core::framework::Fingerprint::content`] — the full-content hash
//! that detects *exact* duplicates, not just affinity clusters):
//!
//! * **Exact hits** — a submission whose content hash matches an already
//!   *resolved* entry is answered before admission with a
//!   [`Completion::Labeled`](crate::Completion::Labeled) carrying the
//!   cached labels and a zero virtual-GPU bill. It never routes, never
//!   queues, never executes.
//! * **Coalescing** — a submission matching an already *queued or
//!   in-flight* fingerprint attaches to that request's `PendingEntry`
//!   as a *follower*: one leader executes, and when it resolves the
//!   result fans out to every follower's completion slot. Exactly-once
//!   per ticket still holds — each follower's slot resolves through the
//!   same `PENDING → RESOLVED` compare-and-swap as every other path, so a
//!   follower cancelled mid-flight keeps its `Cancelled` event and is
//!   skipped by the fan-out.
//!
//! ## Leader loss and follower promotion
//!
//! A leader can be lost while followers wait on it:
//!
//! * **Cancelled** — a cancelled leader is *not* a tombstone while its
//!   entry has waiters: it stays queued, and the worker that dequeues it
//!   executes it *for the followers* (a ghost execution: billed, fanned
//!   out, but not counted completed — the leader's own terminal event was
//!   its cancellation). The followers are effectively promoted without
//!   losing the coalescing. With no waiters the entry is abandoned and
//!   the request skipped for free.
//! * **Shed** (admission, overflow eviction, deadline, drain-abort) — the
//!   entry fails and every follower is shed with the same reason, each
//!   through its own slot CAS, each landing in the matching report
//!   bucket.
//!
//! ## Bounded memory, value-priced eviction
//!
//! The cache is sharded into lock stripes; each stripe owns a byte budget
//! (`CAPACITY_BYTES / STRIPES`). When an insert overflows the budget the
//! stripe evicts the resolved entries with the smallest
//! **value-per-byte × recency** score — the same value units the SLO
//! ledger prices shedding in (the leader's class-weighted predicted
//! value), so the cache keeps the bytes that bank the most value per unit
//! of memory, decayed by how long ago they were last useful. One scoring
//! scan evicts a batch (an eighth of the stripe), so a full stripe does
//! not rescan on every insert.
//!
//! ## Accounting
//!
//! Hits and coalesced followers get their own conservation buckets
//! (`cache_hit`, `coalesced`, with per-class `value_cached`), recorded in
//! the cache's ledger and folded into
//! [`ServeReport`](crate::ServeReport) /
//! [`ClassReport`](crate::ClassReport) at shutdown:
//!
//! ```text
//! offered == completed + rejected + shed_* + cancelled
//!                      + cache_hit + coalesced
//! ```
//!
//! Followers shed with a failed leader land in the ordinary shed buckets
//! (their loss path is real), and a follower's cancellation stays in
//! `cancelled` — the fan-out's losing CAS keeps it out of `coalesced`.

use crate::completion::{CompletionSlot, LabelResult, ShedReason};
use crate::ledger::Ledger;
use crate::obs::{Event, EventKind, ServerObs, NO_SHARD};
use ams_models::{LabelId, ModelId};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, Weak};

/// Label-cache switch ([`ServeConfig::cache`](crate::ServeConfig);
/// `None` disables the cache entirely — the no-cache serving path is
/// byte-for-byte what it was before this module existed). The cache has
/// no knobs: its byte budget is `CAPACITY_BYTES` and its stripe count
/// `STRIPES`.
#[derive(Debug, Clone, Copy, Default)]
pub struct CacheConfig {}

/// Total byte budget across all stripes (approximate, counted from the
/// cached labels + model lists): 1 MiB — thousands of typical label sets,
/// far more than a smoke run needs and small enough that eviction is
/// exercised. Overflow evicts the lowest value-per-byte × recency entries
/// in the inserting stripe (an eighth of its residents per overflow, at
/// least one).
const CAPACITY_BYTES: usize = 1 << 20;

/// Lock stripes the key space is sharded over: more stripes = less
/// contention between concurrent submitters; the byte budget is split
/// evenly across them.
const STRIPES: usize = 8;

/// One eviction scan removes `1 / EVICT_FRACTION` of a stripe's resolved
/// entries (see `LabelCache::evict`): large enough to amortize the scan,
/// small enough that the cache runs at ≥ 7/8 of its byte budget.
const EVICT_FRACTION: usize = 8;

/// End-of-run cache telemetry ([`ServeReport::cache`](crate::ServeReport)).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CacheReport {
    /// Configured lock stripes.
    pub stripes: usize,
    /// Configured byte budget.
    pub capacity_bytes: u64,
    /// Resolved entries resident at shutdown.
    pub entries: u64,
    /// Approximate resident bytes at shutdown.
    pub bytes: u64,
    /// Results inserted over the run.
    pub insertions: u64,
    /// Entries evicted to stay within the byte budget.
    pub evictions: u64,
}

/// The cached payload of one resolved fingerprint: everything a
/// [`LabelResult`] needs except the per-request identity fields.
#[derive(Debug, Clone)]
pub(crate) struct CachedResult {
    pub(crate) labels: Vec<(LabelId, f32)>,
    pub(crate) executed: Vec<ModelId>,
    pub(crate) label_value: f64,
    pub(crate) recall: f64,
}

impl CachedResult {
    /// Approximate resident size — the heap payloads plus the struct
    /// itself. Exactness doesn't matter; the eviction economics only need
    /// a consistent yardstick.
    pub(crate) fn approx_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.labels.len() * std::mem::size_of::<(LabelId, f32)>()
            + self.executed.len() * std::mem::size_of::<ModelId>()
    }
}

/// One submission waiting on another request's in-flight result.
#[derive(Debug)]
pub(crate) struct Follower {
    /// The follower's completion slot.
    pub(crate) slot: Arc<CompletionSlot>,
    /// SLO class the follower was submitted under.
    pub(crate) class: usize,
    /// The follower's own class-weighted predicted value.
    pub(crate) value: f64,
    /// The follower's deadline budget from submission, µs.
    pub(crate) deadline_us: Option<u64>,
    /// When the follower attached, µs after the epoch every shard queue
    /// of its server shares — the start of its latency clock.
    pub(crate) attached_us: u64,
    /// Observability correlation id (`u64::MAX` outside a server).
    pub(crate) req_id: u64,
}

impl Follower {
    /// A lifecycle event of `kind` about this follower (followers never
    /// take a shard placement).
    fn event(&self, kind: EventKind) -> Event {
        Event::new(kind, self.req_id, self.slot.id(), NO_SHARD, self.class)
    }
}

/// What [`PendingEntry::attach`] decided.
pub(crate) enum Attach {
    /// The follower is waiting on the leader; its completion arrives at
    /// fan-out.
    Attached,
    /// The leader resolved between the stripe lookup and the attach: the
    /// result is right here — an exact hit after all.
    Done(CachedResult),
    /// The leader failed (shed or abandoned) and this entry is dead; the
    /// follower gets its submission back and retries as a new leader.
    Dead(Follower),
}

#[derive(Debug)]
enum EntryState {
    /// Leader queued or in flight; followers accumulate.
    Waiting(Vec<Follower>),
    /// Leader resolved; kept in the entry so attaches racing the stripe
    /// update still find the result.
    Done(CachedResult),
    /// Leader shed or abandoned; attaches must retry as new leaders.
    Failed,
}

/// The coalescing point for one in-flight fingerprint: the leader request
/// carries an `Arc` of this through its queue life, and followers attach
/// until the leader resolves or fails.
#[derive(Debug)]
pub(crate) struct PendingEntry {
    key: u64,
    state: Mutex<EntryState>,
    ledger: Arc<CacheLedger>,
    /// Back-reference for map cleanup on failure (weak: a failed entry
    /// must not keep a dropped cache alive).
    cache: Weak<LabelCache>,
    /// Observability pipeline: follower terminal events (coalesced
    /// deliveries, follower sheds) are emitted exactly where the cache
    /// ledger counts them, so event totals reconcile with the report.
    obs: Option<Arc<ServerObs>>,
}

impl PendingEntry {
    /// Attach a follower, unless the entry already reached a terminal
    /// state. `submit` already counted it offered; its terminal bucket
    /// (`coalesced`, a shed, or `cancelled`) comes later.
    pub(crate) fn attach(&self, follower: Follower) -> Attach {
        let mut st = self.state.lock().expect("cache entry");
        match &mut *st {
            EntryState::Waiting(followers) => {
                followers.push(follower);
                Attach::Attached
            }
            EntryState::Done(result) => Attach::Done(result.clone()),
            EntryState::Failed => Attach::Dead(follower),
        }
    }

    /// Resolve the entry with the leader's result and fan it out: every
    /// follower whose slot is still pending receives its own
    /// `Completion::Labeled` (zero execute time — the labels were already
    /// paid for) and is counted `coalesced`; followers that lost their
    /// slot race (cancelled) are skipped — their event already happened.
    /// Each follower waited from its attach to `now_us`, the delivering
    /// worker's clock.
    pub(crate) fn resolve(&self, result: &CachedResult, now_us: u64) {
        let followers = {
            let mut st = self.state.lock().expect("cache entry");
            match std::mem::replace(&mut *st, EntryState::Done(result.clone())) {
                EntryState::Waiting(followers) => followers,
                // Already terminal (failed entries stay failed — a late
                // resolve must not resurrect a key whose followers were
                // shed).
                other => {
                    *st = other;
                    return;
                }
            }
        };
        for f in followers {
            let waited_us = now_us.saturating_sub(f.attached_us);
            let met = f.deadline_us.is_none_or(|d| waited_us <= d);
            let delivered = f.slot.try_labeled(LabelResult {
                ticket: f.slot.id(),
                class: f.class,
                labels: result.labels.clone(),
                executed: result.executed.clone(),
                label_value: result.label_value,
                banked_value: f.value,
                recall: result.recall,
                queue_wait_us: waited_us,
                execute_us: 0,
                deadline_met: met,
            });
            if delivered {
                let ev = f.event(EventKind::Coalesced).detail(waited_us).flag(!met);
                self.settle(ev, f.value);
            }
        }
    }

    /// Fail the entry (leader shed on `reason`): every follower is shed
    /// with the same reason through its own slot CAS and ledgered into
    /// the matching bucket; the dead map slot is removed so the next
    /// lookup of this key starts a fresh leader. Idempotent — a second
    /// loss path on the same leader finds no followers and no map slot.
    pub(crate) fn fail(&self, reason: ShedReason) {
        let followers = {
            let mut st = self.state.lock().expect("cache entry");
            match std::mem::replace(&mut *st, EntryState::Failed) {
                EntryState::Waiting(followers) => followers,
                EntryState::Done(result) => {
                    // Resolved already — nothing to shed, keep the result.
                    *st = EntryState::Done(result);
                    return;
                }
                EntryState::Failed => return,
            }
        };
        for f in followers {
            if f.slot.try_shed(reason) {
                self.settle(f.event(EventKind::of_shed(reason)), f.value);
            }
        }
        if let Some(cache) = self.cache.upgrade() {
            cache.remove_dead(self.key, self);
        }
    }

    /// Settle one follower in the cache ledger.
    fn settle(&self, ev: Event, value: f64) {
        Ledger::settle_in(&self.ledger, ev, value, |ev| {
            if let Some(obs) = &self.obs {
                obs.emit(ev);
            }
        });
    }

    /// Dequeue-time decision for an *unclaimed* (cancelled) leader: with
    /// waiters the worker must execute it for them (`true`); without, the
    /// entry is abandoned atomically — marked failed under the lock, so a
    /// follower racing this check gets [`Attach::Dead`] and retries as a
    /// new leader instead of attaching to a request nobody will run.
    pub(crate) fn wanted_or_abandon(&self) -> bool {
        let mut st = self.state.lock().expect("cache entry");
        match &*st {
            EntryState::Waiting(followers) if !followers.is_empty() => true,
            EntryState::Waiting(_) => {
                *st = EntryState::Failed;
                drop(st);
                if let Some(cache) = self.cache.upgrade() {
                    cache.remove_dead(self.key, self);
                }
                false
            }
            _ => false,
        }
    }
}

/// What a pre-admission cache lookup decided.
pub(crate) enum Lookup {
    /// Exact hit: answer with these labels right now, zero bill.
    Hit(CachedResult),
    /// Attached as a follower to an in-flight leader; the completion
    /// arrives at fan-out.
    Coalesced,
    /// First sighting of this fingerprint: the caller is the leader and
    /// must carry this entry through admission and execution.
    Miss(Arc<PendingEntry>),
}

/// One resolved entry resident in a stripe.
#[derive(Debug)]
struct ResolvedSlot {
    result: CachedResult,
    /// The leader's class-weighted predicted value — the eviction
    /// economics' numerator, in the same units as the SLO shed ledger.
    value: f64,
    bytes: usize,
    /// Logical clock of the last hit or insert (recency).
    last_tick: u64,
}

#[derive(Debug)]
enum Slot {
    Pending(Arc<PendingEntry>),
    Resolved(ResolvedSlot),
}

#[derive(Debug, Default)]
struct Stripe {
    map: HashMap<u64, Slot>,
    /// Approximate resident bytes of the stripe's resolved entries.
    bytes: usize,
}

/// The sharded, lock-striped, content-addressed result cache.
#[derive(Debug)]
pub(crate) struct LabelCache {
    stripes: Vec<Mutex<Stripe>>,
    stripe_budget: usize,
    capacity_bytes: usize,
    /// Logical recency clock, bumped on every lookup and insert.
    tick: AtomicU64,
    insertions: AtomicU64,
    evictions: AtomicU64,
    ledger: Arc<CacheLedger>,
    /// Observability pipeline, cloned into every pending entry so
    /// fan-out and follower-shed events can be emitted from the entry.
    obs: Option<Arc<ServerObs>>,
}

impl LabelCache {
    pub(crate) fn new(obs: Option<Arc<ServerObs>>) -> Arc<Self> {
        Self::sized(STRIPES, CAPACITY_BYTES, obs)
    }

    /// A cache of `capacity_bytes` (min 1 KiB) over `stripes` lock stripes.
    fn sized(stripes: usize, capacity_bytes: usize, obs: Option<Arc<ServerObs>>) -> Arc<Self> {
        let capacity_bytes = capacity_bytes.max(1024);
        Arc::new(Self {
            stripes: (0..stripes)
                .map(|_| Mutex::new(Stripe::default()))
                .collect(),
            stripe_budget: capacity_bytes.div_ceil(stripes),
            capacity_bytes,
            tick: AtomicU64::new(0),
            insertions: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            ledger: Arc::default(),
            obs,
        })
    }

    pub(crate) fn ledger(&self) -> &Arc<CacheLedger> {
        &self.ledger
    }

    /// The stripe that holds `key`, locked: every keyed acquisition goes
    /// through here. Stripe locks are leaf locks — nothing takes another
    /// while this guard lives (the one-stripe unit tests hold that).
    fn stripe(&self, key: u64) -> MutexGuard<'_, Stripe> {
        // Stripe by the high bits: the low bits pick hash-map buckets, so
        // reusing them would correlate stripe and bucket occupancy.
        let stripe = &self.stripes[(key >> 32) as usize % self.stripes.len()];
        stripe.lock().expect("cache stripe")
    }

    /// The pre-admission protocol: hit, coalesce, or become the leader.
    /// Loops only when it finds a dead pending entry to replace.
    pub(crate) fn lookup(self: &Arc<Self>, key: u64, mut follower: Follower) -> Lookup {
        let now = self.tick.fetch_add(1, Ordering::Relaxed);
        loop {
            let entry = {
                let mut stripe = self.stripe(key);
                match stripe.map.get_mut(&key) {
                    Some(Slot::Resolved(slot)) => {
                        slot.last_tick = now;
                        return Lookup::Hit(slot.result.clone());
                    }
                    Some(Slot::Pending(entry)) => Arc::clone(entry),
                    None => {
                        let entry = self.fresh_entry(key);
                        stripe.map.insert(key, Slot::Pending(Arc::clone(&entry)));
                        return Lookup::Miss(entry);
                    }
                }
            };
            match entry.attach(follower) {
                Attach::Attached => return Lookup::Coalesced,
                Attach::Done(result) => return Lookup::Hit(result),
                Attach::Dead(f) => {
                    follower = f;
                    // Replace the dead entry (unless someone beat us to
                    // it, in which case the fresh slot is re-examined).
                    let mut stripe = self.stripe(key);
                    match stripe.map.get(&key) {
                        Some(Slot::Pending(current)) if Arc::ptr_eq(current, &entry) => {
                            let fresh = self.fresh_entry(key);
                            stripe.map.insert(key, Slot::Pending(Arc::clone(&fresh)));
                            return Lookup::Miss(fresh);
                        }
                        _ => continue,
                    }
                }
            }
        }
    }

    fn fresh_entry(self: &Arc<Self>, key: u64) -> Arc<PendingEntry> {
        Arc::new(PendingEntry {
            key,
            state: Mutex::new(EntryState::Waiting(Vec::new())),
            ledger: Arc::clone(&self.ledger),
            cache: Arc::downgrade(self),
            obs: self.obs.clone(),
        })
    }

    /// Resolve a leader: fan the result out to the entry's followers,
    /// then publish it as a resolved slot (evicting within the stripe's
    /// byte budget). `value` is the leader's class-weighted predicted
    /// value — the eviction score's numerator. `now_us` is the delivering
    /// worker's clock, the end of every follower's wait.
    pub(crate) fn resolve(
        &self,
        entry: &Arc<PendingEntry>,
        result: CachedResult,
        value: f64,
        now_us: u64,
    ) {
        entry.resolve(&result, now_us);
        let bytes = result.approx_bytes();
        let now = self.tick.fetch_add(1, Ordering::Relaxed);
        self.insertions.fetch_add(1, Ordering::Relaxed);
        let mut stripe = self.stripe(entry.key);
        if let Some(Slot::Resolved(old)) = stripe.map.insert(
            entry.key,
            Slot::Resolved(ResolvedSlot {
                result,
                value,
                bytes,
                last_tick: now,
            }),
        ) {
            stripe.bytes = stripe.bytes.saturating_sub(old.bytes);
        }
        stripe.bytes += bytes;
        if stripe.bytes > self.stripe_budget {
            self.evict(&mut stripe, now);
        }
    }

    /// Bounded memory: bring an over-budget stripe back within it by
    /// evicting its lowest value-per-byte × recency resolved entries.
    /// Pending entries are never evicted (they hold live followers); the
    /// just-inserted entry may evict itself if it alone exceeds the budget.
    ///
    /// Scoring is a scan of the whole stripe under its lock, so one scan
    /// evicts a *batch* — an eighth of the resident entries, at least one —
    /// rather than the single victim that would fit this insert: a full
    /// stripe then scans once per ~resident/8 inserts instead of on every
    /// one. The loop only repeats when a batch was not enough (an insert
    /// larger than an eighth of the stripe).
    fn evict(&self, stripe: &mut Stripe, now: u64) {
        while stripe.bytes > self.stripe_budget {
            let mut scored: Vec<(f64, u64)> = stripe
                .map
                .iter()
                .filter_map(|(k, slot)| match slot {
                    Slot::Resolved(s) => {
                        let age = now.saturating_sub(s.last_tick) as f64;
                        Some(((s.value / s.bytes.max(1) as f64) / (1.0 + age), *k))
                    }
                    Slot::Pending(_) => None,
                })
                .collect();
            if scored.is_empty() {
                break;
            }
            let batch = (scored.len() / EVICT_FRACTION).max(1);
            scored.select_nth_unstable_by(batch - 1, |a, b| a.0.total_cmp(&b.0));
            for (_, victim) in scored.iter().take(batch) {
                if let Some(Slot::Resolved(old)) = stripe.map.remove(victim) {
                    stripe.bytes = stripe.bytes.saturating_sub(old.bytes);
                    self.evictions.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
    }

    /// Drop a failed entry's map slot (if it still owns it) so the next
    /// lookup of the key starts a fresh leader immediately.
    fn remove_dead(&self, key: u64, entry: &PendingEntry) {
        let mut stripe = self.stripe(key);
        if let Some(Slot::Pending(current)) = stripe.map.get(&key) {
            if std::ptr::eq(Arc::as_ptr(current), entry) {
                stripe.map.remove(&key);
            }
        }
    }

    pub(crate) fn report(&self) -> CacheReport {
        let (mut entries, mut bytes) = (0u64, 0u64);
        for stripe in &self.stripes {
            let stripe = stripe.lock().expect("cache stripe");
            entries += stripe
                .map
                .values()
                .filter(|s| matches!(s, Slot::Resolved(_)))
                .count() as u64;
            bytes += stripe.bytes as u64;
        }
        CacheReport {
            stripes: self.stripes.len(),
            capacity_bytes: self.capacity_bytes as u64,
            entries,
            bytes,
            insertions: self.insertions.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }
}

/// The cache's share of the conservation [`Ledger`] — exact hits,
/// fanned-out followers (`Coalesced`), and followers shed with a failed
/// leader (their loss path's own bucket) — behind one mutex, like the
/// cancellation ledger: fan-outs run on whichever thread resolves or fails
/// the leader.
pub(crate) type CacheLedger = Mutex<Ledger>;

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::completion::{CancelLedger, CompletionQueue, Ticket};
    use std::sync::mpsc::{self, RecvTimeoutError};
    use std::time::Duration;

    /// Run `test` on a one-stripe cache of `capacity_bytes` under a
    /// watchdog. Stripe locks are leaf locks: on one stripe every
    /// acquisition is the same mutex, and std's `Mutex::lock` does not
    /// return when its thread already holds it, so a nested acquisition,
    /// inline or through a helper, fails the test here instead of hanging
    /// the suite.
    fn one_stripe(capacity_bytes: usize, test: impl FnOnce(Arc<LabelCache>) + Send + 'static) {
        let (done, finished) = mpsc::channel();
        let body = std::thread::spawn(move || {
            test(LabelCache::sized(1, capacity_bytes, None));
            let _ = done.send(());
        });
        if let Err(RecvTimeoutError::Timeout) = finished.recv_timeout(Duration::from_secs(10)) {
            panic!("no return within 10 s: a stripe lock was taken under another");
        }
        // Returned, or panicked (the sender dropped): join re-raises a panic.
        if let Err(panic) = body.join() {
            std::panic::resume_unwind(panic);
        }
    }

    fn result(labels: usize) -> CachedResult {
        CachedResult {
            labels: (0..labels).map(|i| (LabelId(i as u16), 0.9)).collect(),
            executed: vec![ModelId(0), ModelId(3)],
            label_value: 2.5,
            recall: 1.0,
        }
    }

    /// A follower on a throwaway single-slot window (its events are
    /// never read).
    fn follower() -> Follower {
        let (slot, _ticket) = slotted(&Arc::new(CompletionQueue::new(1)), u64::MAX);
        Follower {
            slot,
            class: 0,
            value: 1.0,
            deadline_us: None,
            attached_us: 0,
            req_id: u64::MAX,
        }
    }

    /// The cache ledger's `kind` bucket, every class summed.
    fn count(cache: &LabelCache, kind: EventKind) -> u64 {
        let ledger = cache.ledger().lock().expect("cache ledger");
        ledger.total().count(kind)
    }

    /// Look `key` up as its first sighting: the caller leads the entry.
    pub(crate) fn lead(cache: &Arc<LabelCache>, key: u64) -> Arc<PendingEntry> {
        match cache.lookup(key, follower()) {
            Lookup::Miss(entry) => entry,
            _ => panic!("first sighting must be a miss"),
        }
    }

    /// Look `key` up again as ticket `id` on `cq`: it coalesces onto the leader.
    pub(crate) fn coalesce(
        cache: &Arc<LabelCache>,
        key: u64,
        cq: &Arc<CompletionQueue>,
        id: u64,
    ) -> Ticket {
        let (slot, ticket) = slotted(cq, id);
        let follower = Follower { slot, ..follower() };
        assert!(matches!(cache.lookup(key, follower), Lookup::Coalesced));
        ticket
    }

    fn slotted(cq: &Arc<CompletionQueue>, id: u64) -> (Arc<CompletionSlot>, Ticket) {
        cq.issue();
        let slot = Arc::new(CompletionSlot::new(
            id,
            0,
            1.0,
            Arc::clone(cq),
            Arc::new(CancelLedger::default()),
        ));
        (Arc::clone(&slot), Ticket::new(slot))
    }

    #[test]
    fn miss_then_resolve_then_hit() {
        one_stripe(CAPACITY_BYTES, move |cache| {
            let entry = lead(&cache, 42);
            cache.resolve(&entry, result(4), 1.0, 0);
            match cache.lookup(42, follower()) {
                Lookup::Hit(r) => assert_eq!(r.labels.len(), 4),
                _ => panic!("resolved key must hit"),
            }
            let report = cache.report();
            assert_eq!(report.entries, 1);
            assert_eq!(report.insertions, 1);
            assert!(report.bytes > 0);
        });
    }

    #[test]
    fn second_lookup_coalesces_and_fan_out_delivers_labeled() {
        one_stripe(CAPACITY_BYTES, move |cache| {
            let entry = lead(&cache, 7);
            let cq = Arc::new(CompletionQueue::new(4));
            let _ticket = coalesce(&cache, 7, &cq, 99);
            cache.resolve(&entry, result(2), 1.0, 0);
            let event = cq.try_recv().expect("fan-out delivered");
            let labeled = event.labeled().expect("labeled completion");
            assert_eq!(labeled.ticket, 99);
            assert_eq!(labeled.labels.len(), 2);
            assert_eq!(labeled.execute_us, 0, "zero bill for a coalesced result");
            assert_eq!(count(&cache, EventKind::Coalesced), 1);
            assert_eq!(
                count(&cache, EventKind::Admitted),
                0,
                "offered is the submit path's to count"
            );
        });
    }

    /// A follower's wait runs on the shard's µs clock, from its attach to
    /// the delivering worker's `now_us`: attached at 1 000 µs and resolved
    /// at 5 000 µs it waited 4 000 µs, which a 3 000 µs deadline misses
    /// and a 4 000 µs one meets.
    #[test]
    fn a_followers_wait_runs_from_its_attach_to_the_resolve() {
        for (deadline_us, met) in [(3_000, false), (4_000, true)] {
            one_stripe(CAPACITY_BYTES, move |cache| {
                let entry = lead(&cache, 7);
                let cq = Arc::new(CompletionQueue::new(1));
                let (slot, _ticket) = slotted(&cq, 99);
                let follower = Follower {
                    slot,
                    deadline_us: Some(deadline_us),
                    attached_us: 1_000,
                    ..follower()
                };
                assert!(matches!(cache.lookup(7, follower), Lookup::Coalesced));
                cache.resolve(&entry, result(2), 1.0, 5_000);
                let event = cq.try_recv().expect("fan-out delivered");
                let labeled = event.labeled().expect("labeled completion");
                assert_eq!((labeled.queue_wait_us, labeled.deadline_met), (4_000, met));
            });
        }
    }

    #[test]
    fn failed_leader_sheds_followers_and_the_next_lookup_leads_fresh() {
        one_stripe(CAPACITY_BYTES, move |cache| {
            let entry = lead(&cache, 11);
            let cq = Arc::new(CompletionQueue::new(4));
            let _ticket = coalesce(&cache, 11, &cq, 5);
            entry.fail(ShedReason::Deadline);
            match cq.try_recv().expect("shed delivered") {
                crate::Completion::Shed { ticket, reason, .. } => {
                    assert_eq!(ticket, 5);
                    assert_eq!(reason, ShedReason::Deadline);
                }
                other => panic!("expected shed, got {other:?}"),
            }
            assert_eq!(count(&cache, EventKind::ShedDeadline), 1);
            // The dead slot was removed: the key restarts as a fresh leader.
            assert!(matches!(cache.lookup(11, follower()), Lookup::Miss(_)));
        });
    }

    /// A failed leader whose map slot outlived its removal (the window
    /// between `fail` marking the entry and `remove_dead`): the next
    /// lookup replaces it with a fresh leader.
    #[test]
    fn a_dead_pending_entry_is_replaced_by_a_fresh_leader() {
        one_stripe(CAPACITY_BYTES, |cache| {
            let dead = lead(&cache, 17);
            dead.fail(ShedReason::Deadline);
            cache
                .stripe(17)
                .map
                .insert(17, Slot::Pending(Arc::clone(&dead)));
            match cache.lookup(17, follower()) {
                Lookup::Miss(fresh) => assert!(!Arc::ptr_eq(&fresh, &dead)),
                _ => panic!("a dead entry must be replaced by a fresh leader"),
            }
        });
    }

    #[test]
    fn cancelled_follower_is_skipped_by_the_fan_out() {
        one_stripe(CAPACITY_BYTES, move |cache| {
            let entry = lead(&cache, 13);
            let cq = Arc::new(CompletionQueue::new(4));
            let ticket = coalesce(&cache, 13, &cq, 8);
            assert!(ticket.cancel());
            cache.resolve(&entry, result(1), 1.0, 0);
            let event = cq.try_recv().expect("the cancellation event");
            assert!(event.is_cancelled(), "cancellation owns the terminal event");
            assert!(cq.try_recv().is_none(), "fan-out delivered nothing extra");
            assert_eq!(
                count(&cache, EventKind::Coalesced),
                0,
                "a cancelled follower never coalesces"
            );
        });
    }

    #[test]
    fn abandon_without_waiters_but_execute_with() {
        one_stripe(CAPACITY_BYTES, move |cache| {
            let entry = lead(&cache, 21);
            let wanted = match cache.lookup(21, follower()) {
                Lookup::Coalesced => entry.wanted_or_abandon(),
                _ => panic!("coalesce expected"),
            };
            assert!(wanted, "a waiter makes the ghost execution worthwhile");

            let lone = lead(&cache, 22);
            assert!(!lone.wanted_or_abandon(), "no waiters: abandon");
            assert!(
                matches!(cache.lookup(22, follower()), Lookup::Miss(_)),
                "abandoned key restarts fresh"
            );
        });
    }

    #[test]
    fn eviction_keeps_the_best_value_per_byte() {
        // Budget for roughly two of the three entries per stripe; force
        // one stripe by configuring a single stripe. Payloads are sized
        // so two of them clear the 1 KiB config floor.
        let one = result(90).approx_bytes();
        one_stripe(one * 2 + 1, move |cache| {
            // Same bytes, different values: the low-value entry must go.
            for (key, value) in [(1u64, 5.0), (2, 0.1), (3, 4.0)] {
                let entry = lead(&cache, key);
                cache.resolve(&entry, result(90), value, 0);
            }
            let report = cache.report();
            assert_eq!(report.evictions, 1);
            assert_eq!(report.entries, 2);
            assert!(report.bytes <= report.capacity_bytes);
            assert!(matches!(cache.lookup(1, follower()), Lookup::Hit(_)));
            assert!(
                matches!(cache.lookup(2, follower()), Lookup::Miss(_)),
                "the value-0.1 entry was the victim"
            );
            assert!(matches!(cache.lookup(3, follower()), Lookup::Hit(_)));
        });
    }

    #[test]
    fn batched_eviction_stays_within_budget_and_spares_the_best() {
        // One stripe holding ~64 entries, overflowed 4 000 times: every
        // eviction scan removes a batch, never one of the entries whose
        // value dwarfs the churn's, and never leaves the stripe over.
        let one = result(90).approx_bytes();
        one_stripe(one * 64, move |cache| {
            let insert = |key: u64, value: f64| {
                let entry = lead(&cache, key);
                cache.resolve(&entry, result(90), value, 0);
            };
            let keepers = [1u64, 2, 3, 4];
            for key in keepers {
                insert(key, 1.0e9);
            }
            for key in 0..4000u64 {
                insert(1000 + key, 1.0);
                let report = cache.report();
                assert!(
                    report.bytes <= report.capacity_bytes,
                    "over budget after insert {key}: {} > {}",
                    report.bytes,
                    report.capacity_bytes
                );
            }
            let report = cache.report();
            assert!(
                report.entries >= 64 * 7 / 8,
                "a batch is an eighth of the stripe, not more: {} resident",
                report.entries
            );
            assert!(
                report.evictions < 4000 && report.evictions + report.entries == 4004,
                "every insert is resident or evicted: {report:?}"
            );
            for key in keepers {
                assert!(
                    matches!(cache.lookup(key, follower()), Lookup::Hit(_)),
                    "top-score entry {key} was evicted"
                );
            }
        });
    }

    #[test]
    fn recency_decays_the_eviction_score() {
        let one = result(90).approx_bytes();
        one_stripe(one * 2 + 1, move |cache| {
            for key in [1u64, 2] {
                let entry = lead(&cache, key);
                cache.resolve(&entry, result(90), 1.0, 0);
            }
            // Touch key 1 repeatedly: key 2's equal value decays with age.
            for _ in 0..8 {
                assert!(matches!(cache.lookup(1, follower()), Lookup::Hit(_)));
            }
            let entry = lead(&cache, 3);
            cache.resolve(&entry, result(90), 1.0, 0);
            assert!(
                matches!(cache.lookup(1, follower()), Lookup::Hit(_)),
                "the recently touched entry survived"
            );
            assert!(
                matches!(cache.lookup(2, follower()), Lookup::Miss(_)),
                "the stale equal-value entry was the victim"
            );
        });
    }
}
