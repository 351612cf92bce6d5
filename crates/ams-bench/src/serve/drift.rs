//! Online adaptation under a mid-stream mixture shift: the same two-phase
//! stream served frozen (`adapt: None`) and with the online trainer
//! hot-swapping generations into the predict path.

use super::{stats_match, Ctx};
use crate::gate::{Break, Check, Rule};
use ams::prelude::*;
use serde::Serialize;
use std::sync::Arc;

/// One serving mode of the drift sweep.
#[derive(Debug, Serialize)]
pub struct DriftPoint {
    /// `"frozen"` or `"adaptive"`.
    pub mode: String,
    pub completed: u64,
    /// Σ realized label value `f(S, d)` banked before the mixture shift.
    pub phase1_value: f64,
    /// Σ realized label value banked after the shift — the number online
    /// adaptation exists to raise.
    pub phase2_value: f64,
    /// Whole-stream realized value (`StreamStats::value_sum`).
    pub value_sum: f64,
    pub mean_recall: f64,
    /// Generations the trainer published into the predict path (0 frozen).
    pub swaps: u64,
    pub learn_steps: u64,
    /// Outcomes that crossed the worker→trainer experience channel.
    pub experiences: u64,
    pub experiences_dropped: u64,
    pub conserved: bool,
    /// Lifecycle events — `weights_swapped` included — reconcile with the
    /// ledgers ([`ServeReport::events_reconcile`]).
    pub events_reconciled: bool,
}

/// The drift sweep: a workload whose item mixture shifts mid-stream,
/// served by a deliberately undertrained boot agent with adaptation off
/// vs on.
#[derive(Debug, Serialize)]
pub struct DriftSweep {
    pub phase1_profile: String,
    pub phase2_profile: String,
    pub phase1_submissions: u64,
    pub phase2_submissions: u64,
    /// Times the post-shift item set repeats (adaptation needs later
    /// repetitions to cash in what it learned from earlier ones).
    pub phase2_passes: usize,
    /// Training episodes behind the boot agent (deliberately few: the
    /// drift story needs headroom for the online trainer to close).
    pub boot_episodes: usize,
    /// The frozen run's serve stats equal the serial engine's over the
    /// same drifted stream — adaptation off stays byte-identical.
    pub frozen_matches_serial: bool,
    /// adaptive post-shift value / frozen post-shift value.
    pub phase2_value_gain: f64,
    pub frozen: DriftPoint,
    pub adaptive: DriftPoint,
}

/// The rows gating `drift_sweep`: the off-switch is a true no-op, both
/// modes keep their ledgers and event streams intact, and the adaptive
/// run taps every outcome, publishes generations mid-stream and banks
/// strictly more realized value after the shift.
pub const CHECKS: &[Check] = &[
    Check {
        name: "drift frozen run equals the serial engine byte-for-byte",
        rule: Rule::True("drift_sweep/frozen_matches_serial"),
        breaks: Break::Flip("drift_sweep/frozen_matches_serial"),
    },
    Check {
        name: "drift frozen run conserves",
        rule: Rule::True("drift_sweep/frozen/conserved"),
        breaks: Break::Flip("drift_sweep/frozen/conserved"),
    },
    Check {
        name: "drift frozen run reconciles events with the ledger",
        rule: Rule::True("drift_sweep/frozen/events_reconciled"),
        breaks: Break::Flip("drift_sweep/frozen/events_reconciled"),
    },
    Check {
        name: "drift adaptive run conserves",
        rule: Rule::True("drift_sweep/adaptive/conserved"),
        breaks: Break::Flip("drift_sweep/adaptive/conserved"),
    },
    Check {
        name: "drift adaptive run reconciles events with the ledger",
        rule: Rule::True("drift_sweep/adaptive/events_reconciled"),
        breaks: Break::Flip("drift_sweep/adaptive/events_reconciled"),
    },
    Check {
        name: "drift adaptive run banks strictly more post-shift value",
        rule: Rule::Less(
            "drift_sweep/frozen/phase2_value",
            "drift_sweep/adaptive/phase2_value",
        ),
        breaks: Break::Copy {
            from: "drift_sweep/frozen/phase2_value",
            to: "drift_sweep/adaptive/phase2_value",
        },
    },
    Check {
        name: "drift trainer publishes generations mid-stream",
        rule: Rule::Within("drift_sweep/adaptive/swaps", 1.0, f64::INFINITY),
        breaks: Break::Set("drift_sweep/adaptive/swaps", 0.0),
    },
    Check {
        name: "every served outcome crosses the experience channel",
        rule: Rule::SumIs(
            &[
                "drift_sweep/phase1_submissions",
                "drift_sweep/phase2_submissions",
            ],
            "drift_sweep/adaptive/experiences",
        ),
        breaks: Break::Scale("drift_sweep/adaptive/experiences", 0.5),
    },
    Check {
        name: "the experience channel drops nothing",
        rule: Rule::Within("drift_sweep/adaptive/experiences_dropped", 0.0, 0.0),
        breaks: Break::Set("drift_sweep/adaptive/experiences_dropped", 7.0),
    },
];

/// A two-phase stream: the fixture's items first, then several passes over
/// a disjoint dataset profile the boot agent never trained on. The boot
/// agent is deliberately undertrained, so its value ranking is poor
/// everywhere and the online trainer has headroom; the mixture shift makes
/// the comparison about *live* traffic — everything the trainer learns, it
/// learns from served outcomes, and it must cash the learning in before
/// the stream ends. Execution emulation stretches serving over wall time
/// so swaps land *during* the stream, not after it. Per-phase value is
/// summed client-side from each ticket's own completion.
pub fn run(ctx: &Ctx) -> DriftSweep {
    const BOOT_EPISODES: usize = 2;
    const PHASE2_PASSES: usize = 4;
    let phase2_distinct = if ctx.smoke { 32 } else { 80 };
    let zoo = ModelZoo::standard();
    let boot = {
        let cfg = TrainConfig {
            episodes: BOOT_EPISODES,
            ..TrainConfig::fast_test(Algo::Dqn)
        };
        train(ctx.fx.truth.items(), zoo.len(), &cfg).0
    };
    let phase2_truth = {
        let ds = Dataset::generate(DatasetProfile::Places365, phase2_distinct, 0xD21F7);
        TruthTable::build(&zoo, &zoo.catalog(), &ds, 0.5)
    };
    let stream: Vec<Arc<ItemTruth>> = ctx
        .items
        .iter()
        .cloned()
        .chain((0..PHASE2_PASSES).flat_map(|_| phase2_truth.items().iter().cloned().map(Arc::new)))
        .collect();
    let phase1 = ctx.items.len();
    // Both serve modes and the serial reference predict from the same
    // generation-0 snapshot of the boot agent — the exact predictor the
    // adaptive path serves until its first swap.
    let scheduler = || {
        AdaptiveModelScheduler::new(
            ModelZoo::standard(),
            Box::new(SnapshotPredictor::new(Arc::new(AgentSnapshot::initial(
                boot.clone(),
            )))),
            0.5,
            ctx.fx.world_seed,
        )
    };
    let want = {
        let owned: Vec<ItemTruth> = stream.iter().map(|i| (**i).clone()).collect();
        let mut serial = StreamProcessor::new(scheduler(), ctx.budget);
        serial.process_all(&owned);
        serial.stats().clone()
    };
    let measure = |mode: &str, adapt: Option<AdaptConfig>| {
        let cfg = ServeConfig {
            shards: 2,
            workers_per_shard: 1,
            max_batch: 4,
            queue_capacity: 64,
            policy: BackpressurePolicy::Block,
            obs: Some(ObsConfig::default()),
            exec_emulation_scale: 2e-3,
            adapt,
            ..ServeConfig::default()
        };
        let what = format!("drift {mode}");
        let run = ctx.run_closed(&what, scheduler(), cfg, &stream);
        let index_of = run.index_of();
        let (mut phase1_value, mut phase2_value) = (0.0f64, 0.0f64);
        for ev in &run.events {
            let r = ev.labeled().expect("a lossless run labels everything");
            if index_of[&r.ticket] < phase1 {
                phase1_value += r.label_value;
            } else {
                phase2_value += r.label_value;
            }
        }
        let report = &run.report;
        let events_reconciled = report.events_reconcile();
        assert!(events_reconciled, "{what}: events reconcile");
        let a = report.adapt.as_ref();
        let point = DriftPoint {
            mode: mode.into(),
            completed: report.completed,
            phase1_value,
            phase2_value,
            value_sum: report.stats.value_sum,
            mean_recall: report.stats.mean_recall(),
            swaps: a.map_or(0, |a| a.swaps),
            learn_steps: a.map_or(0, |a| a.learn_steps),
            experiences: a.map_or(0, |a| a.experiences),
            experiences_dropped: a.map_or(0, |a| a.experiences_dropped),
            conserved: report.is_conserved(),
            events_reconciled,
        };
        eprintln!(
            "[bench_serve] drift {mode}: phase-2 value {:.1} (phase-1 {:.1}), {} swap(s), \
             {} learn step(s)",
            point.phase2_value, point.phase1_value, point.swaps, point.learn_steps,
        );
        (point, run.report.stats)
    };
    let (frozen, frozen_stats) = measure("frozen", None);
    let frozen_matches_serial = stats_match(&frozen_stats, &want);
    assert!(
        frozen_matches_serial,
        "drift frozen run must equal the serial engine byte-for-byte \
         (adapt: None is a true no-op)"
    );
    let (adaptive, _) = measure(
        "adaptive",
        Some(AdaptConfig {
            channel_capacity: 8192,
            online: OnlineConfig {
                warmup: 32,
                batch: 16,
                seed: 0xAD47,
                ..OnlineConfig::default()
            },
            steps_per_outcome: 4,
            swap_every: 8,
            agent: boot.clone(),
        }),
    );
    let sweep = DriftSweep {
        phase1_profile: "Coco2017".into(),
        phase2_profile: "Places365".into(),
        phase1_submissions: phase1 as u64,
        phase2_submissions: (stream.len() - phase1) as u64,
        phase2_passes: PHASE2_PASSES,
        boot_episodes: BOOT_EPISODES,
        frozen_matches_serial,
        phase2_value_gain: adaptive.phase2_value / frozen.phase2_value.max(f64::MIN_POSITIVE),
        frozen,
        adaptive,
    };
    eprintln!(
        "[bench_serve] drift: adaptive banked {:.2}x the frozen post-shift value over {} \
         phase-2 submissions",
        sweep.phase2_value_gain, sweep.phase2_submissions
    );
    sweep
}
