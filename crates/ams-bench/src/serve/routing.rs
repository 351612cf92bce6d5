//! Hash vs model-affinity routing at 0.8x and 1.6x offered load.

use super::{saving_fraction, Ctx};
use crate::gate::{Break, Check, Rule};
use ams::prelude::*;
use serde::Serialize;

/// Fingerprint width of the affinity runs.
pub const AFFINITY_TOP_K: usize = 2;

/// The affinity mode every sweep compares against hash routing.
pub fn affinity() -> RoutingMode {
    RoutingMode::Affinity(AffinityConfig {
        top_k: AFFINITY_TOP_K,
        spill_lag: 8,
    })
}

/// One routing-mode measurement at a fixed offered load.
#[derive(Debug, Serialize)]
pub struct RoutingPoint {
    /// `"hash"` or `"affinity"`.
    pub mode: String,
    /// Offered load as a fraction of the measured closed-loop capacity.
    pub load_factor: f64,
    pub offered_per_s: f64,
    /// Completions over the full span including the drain, so achieved
    /// can never exceed offered on a lossless run.
    pub achieved_per_s: f64,
    pub completed: u64,
    pub batches: u64,
    /// Executed requests per batched round.
    pub mean_batch_size: f64,
    /// Model executions coalesced per batched GPU invocation — the
    /// quantity affinity routing exists to raise.
    pub mean_coalesced: f64,
    /// 1 − virtual pool *busy time* / serial virtual bill (wall-clock
    /// view; pool packing and streaming move it).
    pub batching_saving_fraction: f64,
    /// 1 − batched GPU-time consumed / serial virtual bill (billing view;
    /// only coalescing moves it — the routing-quality metric).
    pub bill_saving_fraction: f64,
    /// Requests that landed on their affinity home shard (0 under hash).
    pub affinity_hit_rate: f64,
    pub affinity_spills: u64,
    pub total_p50_us: u64,
    pub total_p99_us: u64,
}

/// Offered load as a fraction of the routing shape's measured capacity:
/// 0.8x genuinely has slack and 1.6x genuinely saturates. The rows below
/// select their points by these values.
const LOAD_FACTORS: [f64; 2] = [0.8, 1.6];

/// "Affinity strictly beats hash on `$field` at `$lf`x"; a tie breaks it.
macro_rules! affinity_wins {
    ($name:literal, $lf:literal, $field:literal) => {
        Check {
            name: $name,
            rule: Rule::Less(
                concat!("routing_sweep/mode=hash,load_factor=", $lf, "/", $field),
                concat!("routing_sweep/mode=affinity,load_factor=", $lf, "/", $field),
            ),
            breaks: Break::Copy {
                from: concat!("routing_sweep/mode=hash,load_factor=", $lf, "/", $field),
                to: concat!("routing_sweep/mode=affinity,load_factor=", $lf, "/", $field),
            },
        }
    };
}

/// The rows gating `routing_sweep`: at both load factors affinity must
/// strictly out-coalesce hash, and the deeper coalescing must show up as
/// a strictly larger virtual-GPU bill saving.
pub const CHECKS: &[Check] = &[
    affinity_wins!(
        "affinity out-coalesces hash at 0.8x",
        "0.8",
        "mean_coalesced"
    ),
    affinity_wins!(
        "affinity out-coalesces hash at 1.6x",
        "1.6",
        "mean_coalesced"
    ),
    affinity_wins!(
        "affinity out-saves hash at 0.8x",
        "0.8",
        "bill_saving_fraction"
    ),
    affinity_wins!(
        "affinity out-saves hash at 1.6x",
        "1.6",
        "bill_saving_fraction"
    ),
];

/// Burst arrivals (8 at a time) at a fixed aggregate rate, lossless
/// blocking admission. The runs use their own server shape — one worker
/// per shard, wide batches, deep queues, so batches assemble from whatever
/// accumulated during the previous batch's execution, for both modes alike
/// — and the load factors are taken against *that shape's* measured
/// capacity. The stream is submitted several times over: a single pass of
/// the smoke fixture yields only a handful of batches per mode, few
/// enough that scheduler jitter can decide the comparison — sustaining the
/// load averages `mean_coalesced` over enough batches to make the
/// coalescing win a property of the routing, not of one lucky batch. At
/// 1.6x the queues are still building for the first few passes (batches
/// grow run-long), so the stream runs long enough to reach deep queues.
pub fn run(ctx: &Ctx) -> Vec<RoutingPoint> {
    const PASSES: usize = 8;
    let stream = ctx.repeated(PASSES);
    let shape = |routing| ServeConfig {
        routing,
        workers_per_shard: 1,
        max_batch: 16,
        queue_capacity: 64,
        ..ctx.base.clone()
    };
    let cal = ctx.run_closed(
        "routing calibration",
        ctx.fx.scheduler(),
        shape(RoutingMode::Hash),
        &ctx.items,
    );
    let capacity_per_s = cal.per_s(cal.report.completed);
    eprintln!("[bench_serve] routing-shape closed-loop capacity: {capacity_per_s:.0} items/s");

    let mut sweep = Vec::new();
    for load_factor in LOAD_FACTORS {
        let rate = (capacity_per_s * load_factor).max(1.0);
        for mode in [RoutingMode::Hash, affinity()] {
            let run = ctx.run_paced(
                "routing sweep",
                ctx.fx.scheduler(),
                shape(mode),
                &stream,
                rate,
                8,
                |_| 0,
            );
            let report = &run.report;
            assert_eq!(report.completed as usize, stream.len(), "lossless run");
            let point = RoutingPoint {
                mode: report.routing.clone(),
                load_factor,
                offered_per_s: rate,
                achieved_per_s: run.per_s(report.completed),
                completed: report.completed,
                batches: report.batches,
                mean_batch_size: report.mean_batch_size(),
                mean_coalesced: report.mean_coalesced(),
                batching_saving_fraction: saving_fraction(report),
                bill_saving_fraction: report.bill_saving_fraction(),
                affinity_hit_rate: report.affinity_hit_rate(),
                affinity_spills: report.affinity_spills,
                total_p50_us: report.total.p50_us,
                total_p99_us: report.total.p99_us,
            };
            eprintln!(
                "[bench_serve] routing {} @{load_factor}x: {:.2} executions/invocation, \
                 {:.1}% GPU bill saved, hit rate {:.0}%",
                point.mode,
                point.mean_coalesced,
                point.bill_saving_fraction * 100.0,
                point.affinity_hit_rate * 100.0,
            );
            sweep.push(point);
        }
    }
    sweep
}
