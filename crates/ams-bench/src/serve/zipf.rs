//! The label cache under increasing content repetition: the same
//! sequence served cache-off and cache-on at each repeat rate.

use super::Ctx;
use crate::gate::{Break, Check, Rule};
use ams::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::Serialize;
use std::sync::Arc;

/// One repeat-rate point: the same submission sequence served twice,
/// cache-off then cache-on.
#[derive(Debug, Serialize)]
pub struct ZipfPoint {
    /// Probability that a submission repeats an already-seen content
    /// (repeats drawn with a Zipf-like skew toward the oldest contents).
    pub repeat_rate: f64,
    pub submissions: u64,
    /// Distinct contents in the sequence.
    pub distinct: u64,
    /// Exact hits answered before admission (cache-on run).
    pub cache_hit: u64,
    /// Duplicates that coalesced onto an in-flight leader (cache-on run).
    pub coalesced: u64,
    /// (cache_hit + coalesced) / offered.
    pub cache_hit_rate: f64,
    /// Virtual GPU time billed, cache on / off (the billing view: what
    /// dedup actually saves).
    pub bill_on_ms: u64,
    pub bill_off_ms: u64,
    /// 1 − bill_on / bill_off.
    pub bill_saving_fraction: f64,
    /// Closed-loop effective capacity (offered / elapsed), items/s.
    pub capacity_on_per_s: f64,
    pub capacity_off_per_s: f64,
    /// capacity_on / capacity_off.
    pub capacity_gain: f64,
    /// Conservation — with `cache_hit`/`coalesced` — held in both runs.
    pub conserved: bool,
}

/// The repeat rates swept; the rows below select their points by them.
const REPEAT_RATES: [f64; 4] = [0.0, 0.3, 0.6, 0.9];

/// The rows gating `zipf_sweep`: dedup pays more the more the stream
/// repeats, pays for itself outright from repeat 0.6 up, and a unique
/// stream pays nothing for the cache.
pub const CHECKS: &[Check] = &[
    Check {
        name: "every zipf point conserves, cache_hit and coalesced included",
        rule: Rule::EachTrue("zipf_sweep", "conserved"),
        breaks: Break::Flip("zipf_sweep/1/conserved"),
    },
    Check {
        name: "zipf bill saving strictly increases with the repeat rate",
        rule: Rule::Increasing("zipf_sweep", "bill_saving_fraction"),
        breaks: Break::Set("zipf_sweep/3/bill_saving_fraction", 0.0),
    },
    Check {
        name: "zipf effective capacity strictly increases with the repeat rate",
        rule: Rule::Increasing("zipf_sweep", "capacity_on_per_s"),
        breaks: Break::Scale("zipf_sweep/3/capacity_on_per_s", 0.1),
    },
    Check {
        name: "cache-on undercuts cache-off's bill at repeat 0.6",
        rule: Rule::Less(
            "zipf_sweep/repeat_rate=0.6/bill_on_ms",
            "zipf_sweep/repeat_rate=0.6/bill_off_ms",
        ),
        breaks: Break::Scale("zipf_sweep/repeat_rate=0.6/bill_on_ms", 3.0),
    },
    Check {
        name: "cache-on undercuts cache-off's bill at repeat 0.9",
        rule: Rule::Less(
            "zipf_sweep/repeat_rate=0.9/bill_on_ms",
            "zipf_sweep/repeat_rate=0.9/bill_off_ms",
        ),
        breaks: Break::Scale("zipf_sweep/repeat_rate=0.9/bill_on_ms", 10.0),
    },
    Check {
        name: "a unique stream hits nothing in the cache",
        rule: Rule::Within("zipf_sweep/repeat_rate=0/cache_hit", 0.0, 0.0),
        breaks: Break::Set("zipf_sweep/repeat_rate=0/cache_hit", 3.0),
    },
    Check {
        name: "a unique stream coalesces nothing",
        rule: Rule::Within("zipf_sweep/repeat_rate=0/coalesced", 0.0, 0.0),
        breaks: Break::Set("zipf_sweep/repeat_rate=0/coalesced", 1.0),
    },
];

/// A deterministic repetition stream: with probability `repeat_rate` a
/// submission repeats an already-seen content, drawn with a Zipf-like
/// quadratic skew toward the earliest (most popular) distinct items;
/// otherwise it introduces the next fresh item. At rate 0 this is exactly
/// the fixture stream, once, in order. Returns the stream and the number
/// of distinct contents in it.
fn zipf_stream(
    items: &[Arc<ItemTruth>],
    submissions: usize,
    repeat_rate: f64,
    seed: u64,
) -> (Vec<Arc<ItemTruth>>, u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut seen: Vec<usize> = Vec::new();
    let mut fresh = 0usize;
    let mut out = Vec::with_capacity(submissions);
    for _ in 0..submissions {
        let idx = if !seen.is_empty() && rng.gen_bool(repeat_rate) {
            let u: f64 = rng.gen();
            seen[((u * u * seen.len() as f64) as usize).min(seen.len() - 1)]
        } else {
            let i = fresh % items.len();
            fresh += 1;
            seen.push(i);
            i
        };
        out.push(Arc::clone(&items[idx]));
    }
    (out, seen.len() as u64)
}

/// Closed-loop blocking admission, so the measured elapsed time is the
/// server's — the capacity gain is dedup, not pacing. At repeat 0 the
/// sequence is exactly the fixture stream once, which doubles as the
/// cache-no-op invariant: a unique stream must produce zero hits and the
/// serial engine's exact stats.
pub fn run(ctx: &Ctx) -> Vec<ZipfPoint> {
    let mut sweep = Vec::new();
    for (zi, repeat_rate) in REPEAT_RATES.into_iter().enumerate() {
        let (stream, distinct) =
            zipf_stream(&ctx.items, ctx.items.len(), repeat_rate, 0xA31 + zi as u64);
        let [off, on] = [false, true].map(|cache_on| {
            let cfg = ServeConfig {
                cache: cache_on.then(CacheConfig::default),
                ..ctx.base.clone()
            };
            ctx.run_closed("zipf sweep", ctx.fx.scheduler(), cfg, &stream)
        });
        assert_eq!(
            off.report.cache_hit + off.report.coalesced,
            0,
            "cache-off never caches"
        );
        if repeat_rate == 0.0 {
            assert_eq!(
                on.report.cache_hit + on.report.coalesced,
                0,
                "a unique stream must leave the cache a no-op"
            );
            assert_eq!(on.report.completed, off.report.completed, "repeat 0");
            ctx.check_serial("zipf repeat 0, cache on", &on.report.stats);
        }
        let (on_r, off_r) = (&on.report, &off.report);
        let (capacity_on, capacity_off) = (on.per_s(on_r.offered), off.per_s(off_r.offered));
        let point = ZipfPoint {
            repeat_rate,
            submissions: stream.len() as u64,
            distinct,
            cache_hit: on_r.cache_hit,
            coalesced: on_r.coalesced,
            cache_hit_rate: on_r.cache_hit_rate(),
            bill_on_ms: on_r.virtual_work_ms,
            bill_off_ms: off_r.virtual_work_ms,
            bill_saving_fraction: 1.0
                - on_r.virtual_work_ms as f64 / off_r.virtual_work_ms.max(1) as f64,
            capacity_on_per_s: capacity_on,
            capacity_off_per_s: capacity_off,
            capacity_gain: capacity_on / capacity_off,
            conserved: on_r.is_conserved() && off_r.is_conserved(),
        };
        eprintln!(
            "[bench_serve] zipf repeat {repeat_rate}: hit rate {:.0}%, bill {}ms vs {}ms \
             ({:.0}% saved), capacity {:.0}/s vs {:.0}/s",
            point.cache_hit_rate * 100.0,
            point.bill_on_ms,
            point.bill_off_ms,
            point.bill_saving_fraction * 100.0,
            point.capacity_on_per_s,
            point.capacity_off_per_s,
        );
        sweep.push(point);
    }
    sweep
}
