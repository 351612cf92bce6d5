//! The adaptive batch-limit controller, closed loop against a p99 target.

use super::Ctx;
use crate::gate::{Break, Check, Rule};
use ams::prelude::*;
use serde::Serialize;

/// The adaptive-controller closed-loop sweep.
#[derive(Debug, Serialize)]
pub struct AdaptiveSweep {
    /// Self-calibrated target: 1.25× the static closed-loop p99.
    pub target_p99_ms: u64,
    pub start_max_batch: usize,
    pub ceiling_max_batch: usize,
    pub window: u64,
    pub achieved_per_s: f64,
    pub total_p99_us: u64,
    pub all_within_target: bool,
    /// Per-shard limit trajectories (one entry per adjustment).
    pub shards: Vec<ShardAdaptive>,
}

/// The row gating `adaptive`.
pub const CHECKS: &[Check] = &[Check {
    name: "adaptive controller keeps every shard's last-window p99 within target",
    rule: Rule::True("adaptive/all_within_target"),
    breaks: Break::Flip("adaptive/all_within_target"),
}];

/// Self-calibrated target (1.25× the static closed-loop p99, so the number
/// transfers across machines), start at the static limit, ceiling at 2×:
/// the controller grows throughput while the `BatchLatencyModel`-bounded
/// step keeps the predicted tail inside the target.
pub fn run(ctx: &Ctx, closed_loop_p99_us: u64) -> AdaptiveSweep {
    let controller = AdaptiveBatchConfig {
        target_p99_ms: (closed_loop_p99_us as f64 * 1.25 / 1000.0).ceil() as u64,
        min_batch: 2,
        max_batch: 2 * ctx.base.max_batch,
        window: 8,
    };
    let cfg = ServeConfig {
        adaptive: Some(controller),
        ..ctx.base.clone()
    };
    let run = ctx.run_closed("adaptive sweep", ctx.fx.scheduler(), cfg, &ctx.items);
    let report = run
        .report
        .adaptive
        .clone()
        .expect("adaptive controller ran");
    for s in &report.shards {
        eprintln!(
            "[bench_serve] adaptive shard {}: {:?} -> {} (last window p99 {:.1}ms vs {}ms target)",
            s.shard,
            s.trajectory,
            s.final_max_batch,
            s.last_window_p99_us as f64 / 1000.0,
            controller.target_p99_ms
        );
    }
    AdaptiveSweep {
        target_p99_ms: controller.target_p99_ms,
        start_max_batch: ctx.base.max_batch,
        ceiling_max_batch: controller.max_batch,
        window: controller.window,
        achieved_per_s: run.per_s(run.report.completed),
        total_p99_us: run.report.total.p99_us,
        all_within_target: report.all_within_target(),
        shards: report.shards,
    }
}
