//! Model-affinity request routing: steer requests whose *predicted
//! dominant model sets* match onto the same shard, so the worker there
//! coalesces bigger same-model batches.
//!
//! Hash sharding (the PR-2 default) spreads similar requests uniformly:
//! two album photos that would both run the same five detectors land on
//! different shards and each pays the per-invocation setup charge alone.
//! The affinity router instead fingerprints each request with a cheap
//! top-k scan of its per-model value profile
//! ([`AdaptiveModelScheduler::affinity_signature`] — no predictor forward,
//! no labeling work) and keys placement on it at two granularities:
//!
//! * **placement** uses the *coarse* top-1 key — every request leaning on
//!   the same dominant model shares a home shard, so even a lightly
//!   loaded shard's whole queue is mutually similar and its take-all
//!   batches coalesce;
//! * **batch grouping** uses the full `top_k` signature, which rides on
//!   the request into the queue — when a queue runs deep, the
//!   signature-aware [`pop_batch`](crate::queue::ShardQueue::pop_batch)
//!   assembles signature-pure batches out of it.
//!
//! Batch coalescing becomes deliberate: same-model groups concentrate, and
//! the [`BatchLatencyModel`](ams_sim::BatchLatencyModel) setup charge
//! amortizes over more items.
//!
//! A **load-balance escape hatch** keeps the skew honest: every signature
//! also names a deterministic *alternate* shard, and when the home queue is
//! full or lags the alternate by more than `spill_lag` requests, the
//! request *spills* to the alternate — still signature-keyed, so a hot
//! cluster splits across two shards instead of scattering and its batches
//! keep coalescing. Only when both choices are full does the router fall
//! back to the least-loaded shard. No shard hot-spots (bounded lag), no
//! shard starves (overflow traffic flows outward), and under uniform
//! traffic the router degrades gracefully toward balanced sharding. Hits
//! and spills are counted and published in the
//! [`ServeReport`](crate::ServeReport).
//!
//! For a request carrying an SLO deadline the spill is additionally
//! **deadline-aware**: each candidate shard is priced by its *estimated
//! wait* — queue depth × the per-request drain time the shard's workers
//! publish ([`ShardQueue::estimated_wait_us`]) — and a home (or alternate)
//! whose estimated wait already exceeds the request's deadline budget is
//! treated as full, not merely busy. A request that would provably miss
//! its deadline on its affinity home spills to the first choice that can
//! still serve it in time (falling back to the minimum-estimated-wait
//! shard when none can), instead of being routed by load alone into a
//! queue where admission control or the deadline check will only shed it.

use crate::queue::ShardQueue;
use ams_core::framework::{content_hash, AdaptiveModelScheduler, Fingerprint};
use ams_data::ItemTruth;
use std::sync::atomic::{AtomicU64, Ordering};

/// Fibonacci multiplicative hash to a shard index — the one hash-placement
/// function in the crate. Everything that needs "the shard a key homes to"
/// (the hash routing mode, the affinity router's signature placement,
/// [`AmsServer::shard_of`](crate::AmsServer::shard_of)) calls this, so the
/// constants cannot drift between call sites.
pub fn fib_shard(key: u64, shards: usize) -> usize {
    (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 33) as usize % shards.max(1)
}

/// Fingerprint width of the value scan used when routing doesn't need a
/// signature (hash mode): wide enough to estimate a request's label value
/// for SLO-aware shedding, matching [`AffinityConfig::default`]'s `top_k`.
const VALUE_SCAN_TOP_K: usize = 2;

/// Knobs of the affinity routing mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AffinityConfig {
    /// Models in the fingerprint: the top-k by static output value on the
    /// item. Small k clusters aggressively (few distinct signatures, deep
    /// coalescing), large k splits finer.
    pub top_k: usize,
    /// Escape hatch: route to the signature's *alternate* shard when the
    /// home queue is full or lags the alternate by more than this many
    /// requests. 0 degenerates to two-choice join-shortest-queue over the
    /// signature's shard pair.
    pub spill_lag: usize,
}

impl Default for AffinityConfig {
    /// Top-2 fingerprint — measured on the bench fixture, the coarse
    /// two-model key clusters best (finer keys fragment clusters faster
    /// than they purify batches) — and spill at 8 requests of lag, one
    /// default batch of slack before the balancer overrides affinity.
    fn default() -> Self {
        Self {
            top_k: 2,
            spill_lag: 8,
        }
    }
}

/// How submissions map to shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RoutingMode {
    /// Hash the scene id (uniform spread, PR-2 behavior).
    #[default]
    Hash,
    /// Model-affinity routing with a load-balance escape hatch.
    Affinity(AffinityConfig),
}

impl RoutingMode {
    /// Stable lowercase name for reports and JSON records.
    pub fn name(&self) -> &'static str {
        match self {
            RoutingMode::Hash => "hash",
            RoutingMode::Affinity(_) => "affinity",
        }
    }
}

/// Where a request was routed, and why.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Route {
    /// The shard the request should be pushed to.
    pub shard: usize,
    /// The affinity signature the decision keyed on (0 under hash routing);
    /// rides into the queue so dequeues can group same-signature work.
    pub signature: u64,
    /// The request's predicted label value: the summed static value of the
    /// fingerprinted models
    /// ([`AdaptiveModelScheduler::affinity_value_scan`]). Computed during
    /// the routing scan, so SLO-aware shedding gets its value estimate for
    /// free with routing.
    pub value: f64,
    /// Whether the affinity home shard was used (`false` for spills; always
    /// `true` under hash routing, whose home is the hash itself).
    pub affine: bool,
}

/// The shard router: mode plus hit/spill accounting.
#[derive(Debug)]
pub struct Router {
    mode: RoutingMode,
    shards: usize,
    hash_value_scan: bool,
    affinity_hits: AtomicU64,
    affinity_spills: AtomicU64,
}

impl Router {
    /// Router over `shards` shards (min 1).
    pub fn new(mode: RoutingMode, shards: usize) -> Self {
        Self {
            mode,
            shards: shards.max(1),
            hash_value_scan: true,
            affinity_hits: AtomicU64::new(0),
            affinity_spills: AtomicU64::new(0),
        }
    }

    /// Skip the value scan in hash mode (`Route::value` reads 0.0): the
    /// scan exists for SLO-aware shedding, so a server without SLO
    /// classes shouldn't pay it on every submission. Affinity mode scans
    /// regardless — there the scan *is* the routing key and the value is
    /// free.
    pub fn without_hash_value_scan(mut self) -> Self {
        self.hash_value_scan = false;
        self
    }

    /// The configured routing mode.
    pub fn mode(&self) -> RoutingMode {
        self.mode
    }

    /// Requests routed to their affinity home shard so far.
    pub fn affinity_hits(&self) -> u64 {
        self.affinity_hits.load(Ordering::Relaxed)
    }

    /// Requests diverted to the least-loaded shard by the escape hatch.
    pub fn affinity_spills(&self) -> u64 {
        self.affinity_spills.load(Ordering::Relaxed)
    }

    /// Compute the one per-request [`Fingerprint`] the whole submission
    /// path shares: routing placement, batch grouping, SLO admission
    /// pricing, and (when `with_content` is set) the content-addressed
    /// result cache all key off this single top-k scan. The scan width
    /// follows the routing mode (`top_k` under affinity, the fixed
    /// [`VALUE_SCAN_TOP_K`] under hash), and a hash-mode router that opted
    /// out of the value scan skips it entirely — the no-SLO, no-cache
    /// submission path pays exactly what it paid before. The content hash
    /// is only computed when a cache will consume it.
    pub fn fingerprint(
        &self,
        scheduler: &AdaptiveModelScheduler,
        item: &ItemTruth,
        with_content: bool,
    ) -> Fingerprint {
        let (signature, value) = match self.mode {
            // A hash-mode router that opted out of the value scan skips it
            // even when the cache wants a content hash — the scan feeds
            // SLO shedding, not the cache key. Hash mode never carries a
            // batch-grouping signature (placement is the scene hash), so
            // the fingerprint's signature stays 0 either way.
            RoutingMode::Hash if !self.hash_value_scan => (0, 0.0),
            RoutingMode::Hash => (0, scheduler.affinity_value_scan(item, VALUE_SCAN_TOP_K).1),
            RoutingMode::Affinity(cfg) => scheduler.affinity_value_scan(item, cfg.top_k),
        };
        Fingerprint {
            signature,
            value,
            content: if with_content { content_hash(item) } else { 0 },
        }
    }

    /// Whether a shard can plausibly serve a request within `deadline_us`:
    /// its estimated drain wait (depth × the workers' published
    /// per-request drain time) fits the budget. With no deadline, or no
    /// published evidence yet, every shard fits — the check only ever
    /// *adds* reasons to spill, never invents them.
    fn fits_deadline(q: &ShardQueue, deadline_us: Option<u64>) -> bool {
        match deadline_us {
            Some(d) => {
                let wait = q.estimated_wait_us();
                wait == 0 || wait <= d
            }
            None => true,
        }
    }

    /// Pick the shard for `item` and record the hit/spill. The caller
    /// passes the request's precomputed [`Fingerprint`] (from
    /// [`Router::fingerprint`]) — the top-k value scan runs exactly once
    /// per request, shared between routing, admission pricing, and the
    /// result cache, instead of being recomputed here. A request carrying
    /// an SLO deadline passes it as `deadline_us`, which makes the
    /// affinity spill deadline-aware (see the module docs). Queue lengths
    /// and wait estimates are racy snapshots — good enough for balancing,
    /// never consulted for correctness (any shard labels any item
    /// identically).
    pub fn route(
        &self,
        fp: &Fingerprint,
        item: &ItemTruth,
        queues: &[ShardQueue],
        deadline_us: Option<u64>,
    ) -> Route {
        match self.mode {
            RoutingMode::Hash => Route {
                shard: fib_shard(item.scene_id, self.shards),
                signature: 0,
                value: fp.value,
                affine: true,
            },
            RoutingMode::Affinity(cfg) => {
                let (sig, value) = (fp.signature, fp.value);
                // Route on the *coarse* key — the single dominant model,
                // i.e. the highest-value bit of the fingerprint — so every
                // request leaning on that model shares a home even when
                // the rest of its fingerprint differs; the finer `top_k`
                // signature rides along on the request and governs batch
                // grouping inside the queue. Coarse placement keeps a
                // shard's whole queue mutually similar (take-all pops on a
                // lightly loaded shard still coalesce); fine grouping
                // purifies batches when the queue runs deep.
                //
                // An *empty* signature (all-nonpositive value profile) has
                // no dominant model to key on; it falls back to scene-id
                // hash placement. Keying those requests on the constant 0
                // would home every one of them onto the same `fib_shard(0)`
                // pair — a self-inflicted hot spot carrying zero coalescing
                // benefit, since signature-0 requests don't batch-group.
                let route_key = {
                    let mut best: Option<(usize, f64)> = None;
                    let mut bits = sig;
                    while bits != 0 {
                        let m = bits.trailing_zeros() as usize;
                        bits &= bits - 1;
                        let v = item.model_value[m];
                        if best.map(|(_, bv)| v > bv).unwrap_or(true) {
                            best = Some((m, v));
                        }
                    }
                    best.map(|(m, _)| 1u64 << m).unwrap_or(item.scene_id)
                };
                let home = fib_shard(route_key, self.shards);
                // The alternate is also signature-keyed (a second
                // independent hash of the same fingerprint): a cluster that
                // outgrows its home splits across *two* shards, not across
                // all of them, so its batches keep coalescing.
                let alt = if self.shards == 1 {
                    home
                } else {
                    let a = fib_shard(
                        route_key.rotate_left(17) ^ 0xD1B5_4A32_D192_ED03,
                        self.shards,
                    );
                    if a == home {
                        (a + 1) % self.shards
                    } else {
                        a
                    }
                };
                // Cascade: home while it keeps pace with the alternate,
                // alternate while it keeps pace with the emptiest shard,
                // else the emptiest shard — so a hot signature pair sheds
                // its true overflow toward idle workers instead of
                // stalling the producer while they starve. Spilled
                // requests still carry the signature, and the
                // signature-aware dequeue re-groups them wherever they
                // land. The hit path touches only the pair's queues; the
                // full least-loaded scan is paid on spills alone.
                let home_len = queues[home].len();
                let alt_len = queues[alt].len();
                let home_ok = home_len < queues[home].capacity()
                    && home_len <= alt_len + cfg.spill_lag
                    && Self::fits_deadline(&queues[home], deadline_us);
                if home_ok || alt == home {
                    self.affinity_hits.fetch_add(1, Ordering::Relaxed);
                    return Route {
                        shard: home,
                        signature: sig,
                        value,
                        affine: true,
                    };
                }
                self.affinity_spills.fetch_add(1, Ordering::Relaxed);
                let (mut least, mut least_len) = (alt, alt_len);
                for (i, q) in queues.iter().enumerate() {
                    let len = q.len();
                    if len < least_len {
                        least = i;
                        least_len = len;
                    }
                }
                let alt_ok = alt_len < queues[alt].capacity()
                    && alt_len <= least_len + cfg.spill_lag
                    && Self::fits_deadline(&queues[alt], deadline_us);
                if alt_ok {
                    return Route {
                        shard: alt,
                        signature: sig,
                        value,
                        affine: false,
                    };
                }
                // Neither signature shard can serve the request in time
                // (or both are full): pick by *estimated wait* against the
                // deadline, not load alone — the least-loaded shard may
                // still be the slowest-draining one. Without a deadline
                // (or without published drain evidence) this degrades to
                // the classic least-loaded cascade.
                let escape = if deadline_us.is_some() {
                    queues
                        .iter()
                        .enumerate()
                        .filter(|(_, q)| q.len() < q.capacity())
                        .min_by_key(|(i, q)| (q.estimated_wait_us(), q.len(), *i))
                        .map(|(i, _)| i)
                        .unwrap_or(least)
                } else {
                    least
                };
                Route {
                    shard: escape,
                    signature: sig,
                    value,
                    affine: false,
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queue::BackpressurePolicy;
    use ams_core::predictor::OraclePredictor;
    use ams_data::{Dataset, DatasetProfile, TruthTable};
    use ams_models::ModelZoo;
    use std::sync::Arc;
    use std::time::Duration;

    fn scheduler() -> AdaptiveModelScheduler {
        let zoo = ModelZoo::standard();
        let predictor = Box::new(OraclePredictor::new(zoo.len(), 0.5));
        AdaptiveModelScheduler::new(zoo, predictor, 0.5, 64)
    }

    fn truth(items: usize) -> TruthTable {
        let zoo = ModelZoo::standard();
        let ds = Dataset::generate(DatasetProfile::Coco2017, items, 64);
        TruthTable::build(&zoo, &zoo.catalog(), &ds, 0.5)
    }

    fn queues(n: usize, cap: usize) -> Vec<ShardQueue> {
        (0..n)
            .map(|_| ShardQueue::new(cap, BackpressurePolicy::Reject))
            .collect()
    }

    /// Fingerprint-then-route, as the server's submission path does.
    fn route_via(
        r: &Router,
        s: &AdaptiveModelScheduler,
        item: &ItemTruth,
        qs: &[ShardQueue],
        deadline_us: Option<u64>,
    ) -> Route {
        r.route(&r.fingerprint(s, item, false), item, qs, deadline_us)
    }

    #[test]
    fn hash_mode_matches_scene_hash_and_counts_nothing() {
        let s = scheduler();
        let t = truth(8);
        let qs = queues(4, 16);
        let r = Router::new(RoutingMode::Hash, 4);
        for item in t.items() {
            let route = route_via(&r, &s, item, &qs, None);
            assert_eq!(route.shard, fib_shard(item.scene_id, 4));
            assert!(route.affine);
        }
        assert_eq!(r.affinity_hits() + r.affinity_spills(), 0);
    }

    #[test]
    fn affinity_mode_is_deterministic_on_idle_queues() {
        let s = scheduler();
        let t = truth(12);
        let qs = queues(4, 16);
        let r = Router::new(RoutingMode::Affinity(AffinityConfig::default()), 4);
        for item in t.items() {
            let a = route_via(&r, &s, item, &qs, None).shard;
            let b = route_via(&r, &s, item, &qs, None).shard;
            assert_eq!(a, b, "same item, same idle queues, same shard");
        }
        assert_eq!(r.affinity_hits(), 24);
        assert_eq!(r.affinity_spills(), 0);
    }

    #[test]
    fn equal_signatures_share_a_home_shard() {
        let s = scheduler();
        let t = truth(20);
        let qs = queues(4, 64);
        let r = Router::new(
            RoutingMode::Affinity(AffinityConfig {
                top_k: 4,
                spill_lag: 64,
            }),
            4,
        );
        let mut by_sig: std::collections::HashMap<u64, usize> = std::collections::HashMap::new();
        for item in t.items() {
            let sig = s.affinity_signature(item, 4);
            let shard = route_via(&r, &s, item, &qs, None).shard;
            if let Some(&prev) = by_sig.get(&sig) {
                assert_eq!(prev, shard, "signature {sig:#x} split across shards");
            }
            by_sig.insert(sig, shard);
        }
    }

    #[test]
    fn escape_hatch_spills_off_a_hot_home_shard() {
        let s = scheduler();
        let t = truth(4);
        let item = Arc::new(t.item(0).clone());
        let qs = queues(2, 8);
        let r = Router::new(
            RoutingMode::Affinity(AffinityConfig {
                top_k: 4,
                spill_lag: 2,
            }),
            2,
        );
        let home = route_via(&r, &s, &item, &qs, None).shard;
        // Load the home queue past the lag threshold; the other stays empty.
        for _ in 0..4 {
            qs[home].push(crate::queue::Request::new(Arc::clone(&item), 0));
        }
        let route = route_via(&r, &s, &item, &qs, None);
        assert_ne!(route.shard, home, "must divert to the least-loaded shard");
        assert!(!route.affine);
        assert!(r.affinity_spills() >= 1);
    }

    #[test]
    fn full_home_queue_always_spills() {
        let s = scheduler();
        let t = truth(2);
        let item = Arc::new(t.item(0).clone());
        let qs = queues(2, 2);
        let r = Router::new(
            RoutingMode::Affinity(AffinityConfig {
                top_k: 4,
                // Lag alone would never trigger; capacity must.
                spill_lag: 1000,
            }),
            2,
        );
        let home = route_via(&r, &s, &item, &qs, None).shard;
        qs[home].push(crate::queue::Request::new(Arc::clone(&item), 0));
        qs[home].push(crate::queue::Request::new(Arc::clone(&item), 0));
        let route = route_via(&r, &s, &item, &qs, None);
        assert_ne!(route.shard, home);
        assert!(!route.affine);
    }

    /// Regression: an item whose value scan comes up empty (signature 0)
    /// used to key placement on the constant 0 — every such item homed to
    /// `fib_shard(0)`, piling one shard pair with zero-coalescing-benefit
    /// traffic. It must fall back to scene-id hash placement instead.
    #[test]
    fn zero_signature_items_fall_back_to_scene_hash_placement() {
        let s = scheduler();
        let t = truth(16);
        let shards = 4usize;
        let qs = queues(shards, 64);
        let r = Router::new(RoutingMode::Affinity(AffinityConfig::default()), shards);
        let mut homes = std::collections::HashSet::new();
        for item in t.items() {
            // Zero out the value profile: the scan yields signature 0.
            let mut flat = item.clone();
            flat.model_value.iter_mut().for_each(|v| *v = 0.0);
            let route = route_via(&r, &s, &flat, &qs, None);
            assert_eq!(route.signature, 0, "empty profile → empty signature");
            assert_eq!(route.value, 0.0);
            assert_eq!(
                route.shard,
                fib_shard(flat.scene_id, shards),
                "scene {} must place by scene-id hash",
                flat.scene_id
            );
            homes.insert(route.shard);
        }
        assert!(
            homes.len() > 1,
            "16 distinct scenes must spread across shards, not pile on one"
        );
    }

    /// SLO-aware spill: a home shard whose *estimated wait* (depth × the
    /// workers' published drain time) exceeds the request's deadline is
    /// spilled away from even though its raw load is within the lag
    /// tolerance — and a deadline-less request still homes normally, so
    /// the behavior is purely additive.
    #[test]
    fn spill_prices_the_home_shard_by_estimated_wait_vs_deadline() {
        let s = scheduler();
        let t = truth(4);
        let item = Arc::new(t.item(0).clone());
        let qs = queues(2, 64);
        let r = Router::new(
            RoutingMode::Affinity(AffinityConfig {
                top_k: 2,
                // Generous lag: load alone would never trigger the spill.
                spill_lag: 50,
            }),
            2,
        );
        let home = route_via(&r, &s, &item, &qs, None).shard;
        // Three queued requests and a published drain time of 0.5 s each:
        // the home's estimated wait is ~1.5 s.
        for _ in 0..3 {
            qs[home].push(crate::queue::Request::new(Arc::clone(&item), 0));
        }
        qs[home].publish_batch(Duration::from_micros(500_000), 1);
        // Deadline-less: still the affinity home (load is fine).
        assert_eq!(route_via(&r, &s, &item, &qs, None).shard, home);
        // A 100 ms deadline cannot survive a 1.5 s wait: spill to the
        // alternate, whose estimated wait (0 — no evidence) fits.
        let route = route_via(&r, &s, &item, &qs, Some(100_000));
        assert_ne!(route.shard, home, "doomed home must be spilled away");
        assert!(!route.affine);
        assert!(r.affinity_spills() >= 1);
        // A lax 10 s deadline tolerates the wait: home again.
        assert_eq!(route_via(&r, &s, &item, &qs, Some(10_000_000)).shard, home);
    }

    /// When no candidate fits the deadline, the escape hatch picks the
    /// minimum *estimated wait* shard, not the least-loaded one: a short
    /// queue draining slowly is worse than a longer queue draining fast.
    #[test]
    fn deadline_escape_prefers_fastest_draining_shard_over_least_loaded() {
        let s = scheduler();
        let t = truth(2);
        let item = Arc::new(t.item(0).clone());
        let qs = queues(3, 64);
        let r = Router::new(
            RoutingMode::Affinity(AffinityConfig {
                top_k: 2,
                spill_lag: 0,
            }),
            3,
        );
        let home = route_via(&r, &s, &item, &qs, None).shard;
        // Every shard misses the 1 ms deadline, with distinct estimated
        // waits; the least-loaded shard (1 request) drains slowest.
        let (fast, slow) = {
            let mut others = (0..3).filter(|&i| i != home);
            (others.next().unwrap(), others.next().unwrap())
        };
        for _ in 0..4 {
            qs[home].push(crate::queue::Request::new(Arc::clone(&item), 0));
        }
        for _ in 0..3 {
            qs[fast].push(crate::queue::Request::new(Arc::clone(&item), 0));
        }
        qs[slow].push(crate::queue::Request::new(Arc::clone(&item), 0));
        qs[home].publish_batch(Duration::from_micros(500_000), 1); // 2.0 s estimated
        qs[fast].publish_batch(Duration::from_micros(10_000), 1); //  30 ms estimated
        qs[slow].publish_batch(Duration::from_micros(900_000), 1); // 0.9 s estimated
        let route = route_via(&r, &s, &item, &qs, Some(1_000));
        assert_eq!(
            route.shard, fast,
            "escape must price by estimated wait, not queue length"
        );
    }

    /// The routing scan doubles as the SLO value hook: the route's value
    /// is the scheduler's top-k scan sum, under both modes.
    #[test]
    fn route_value_matches_the_scheduler_scan() {
        let s = scheduler();
        let t = truth(8);
        let qs = queues(4, 16);
        let hash = Router::new(RoutingMode::Hash, 4);
        let aff = Router::new(RoutingMode::Affinity(AffinityConfig::default()), 4);
        for item in t.items() {
            let (_, want2) = s.affinity_value_scan(item, 2);
            assert!((route_via(&hash, &s, item, &qs, None).value - want2).abs() < 1e-12);
            assert!((route_via(&aff, &s, item, &qs, None).value - want2).abs() < 1e-12);
            assert!(want2 > 0.0, "fixture items carry value");
        }
    }
}
