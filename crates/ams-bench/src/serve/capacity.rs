//! What the base server shape sustains, and that it labels like the
//! serial engine: the serve==serial equivalence runs, the labels digest,
//! the closed-loop capacity run, and the observability tax on it.

use super::{routing, saving_fraction, Ctx};
use crate::gate::{Break, Check, Rule};
use ams::prelude::*;

/// Top-level record fields this module measures.
pub struct Capacity {
    /// See [`super::Record::labels_digest`].
    pub labels_digest: String,
    /// Closed-loop sustainable capacity, items/s.
    pub closed_loop_capacity_per_s: f64,
    /// Total-latency p99 of the closed-loop run, µs.
    pub closed_loop_p99_us: u64,
    /// Mean recall of the closed-loop run.
    pub mean_recall: f64,
    /// See [`super::Record::batching_saving_fraction`].
    pub batching_saving_fraction: f64,
    /// See [`super::Record::obs_overhead_fraction`].
    pub obs_overhead_fraction: f64,
}

/// A candidate may be slower than baseline by at most this factor (CI
/// machines vary; a healthy run sits near 1.0, an accidentally serialized
/// hot path falls well under 0.5).
const THROUGHPUT_FLOOR: f64 = 0.5;
/// Mean recall is deterministic for the lossless closed-loop fixture; two
/// points of slack absorb float-sum ordering only.
const RECALL_SLACK: f64 = 0.02;
/// Batch composition is timing-dependent at the margins, the headline
/// saving is not.
const SAVING_SLACK: f64 = 0.10;
/// The live observability layer may cost at most this fraction of the
/// closed-loop capacity. Absolute, not baseline-relative: the budget is a
/// design contract — one timestamp plus a lock-free ring push per event —
/// so a machine where it blows past 2% has a hot-path problem, not noise.
const OBS_OVERHEAD_CEILING: f64 = 0.02;

/// The rows gating this module's fields.
pub const CHECKS: &[Check] = &[
    Check {
        name: "lossless serve stats equal the serial engine's",
        rule: Rule::True("stats_match_serial"),
        breaks: Break::Flip("stats_match_serial"),
    },
    Check {
        name: "every ticket delivers exactly one terminal event",
        rule: Rule::True("exactly_once_ticketing"),
        breaks: Break::Flip("exactly_once_ticketing"),
    },
    Check {
        name: "labels digest equals the baseline's",
        // Labels are seed-determined: a change that moves them moves the
        // committed baseline with it, on purpose.
        rule: Rule::Same("labels_digest"),
        breaks: Break::Set("labels_digest", 0.0),
    },
    Check {
        name: "closed-loop capacity holds half the baseline's",
        rule: Rule::RatioFloor("closed_loop_capacity_per_s", THROUGHPUT_FLOOR),
        breaks: Break::Scale("closed_loop_capacity_per_s", 0.3),
    },
    Check {
        name: "closed-loop mean recall holds",
        rule: Rule::Slack("mean_recall", RECALL_SLACK),
        breaks: Break::Scale("mean_recall", 0.85),
    },
    Check {
        name: "batching saving holds",
        rule: Rule::Slack("batching_saving_fraction", SAVING_SLACK),
        breaks: Break::Scale("batching_saving_fraction", 0.6),
    },
    Check {
        name: "observability costs at most 2% of capacity",
        rule: Rule::Within("obs_overhead_fraction", 0.0, OBS_OVERHEAD_CEILING),
        breaks: Break::Set("obs_overhead_fraction", 0.10),
    },
];

/// FNV-64 over `(item index, serialized labels)` — one item's
/// contribution to the order-independent labels digest.
fn item_digest(index: usize, labels: &[(LabelId, f32)]) -> u64 {
    let json = serde_json::to_string(&labels.to_vec()).expect("labels serialize");
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in (index as u64).to_le_bytes().iter().chain(json.as_bytes()) {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// Label every fixture item through the client on the lossless
/// configuration (no execution emulation, observability on) and fold the
/// results into the order-independent digest keyed by item index.
fn labels_digest(ctx: &Ctx) -> u64 {
    let cfg = ServeConfig {
        exec_emulation_scale: 0.0,
        obs: Some(ObsConfig::default()),
        ..ctx.base.clone()
    };
    let run = ctx.run_closed("labels digest", ctx.fx.scheduler(), cfg, &ctx.items);
    let index_of = run.index_of();
    assert_eq!(run.report.completed as usize, ctx.items.len(), "lossless");
    run.events.iter().fold(0, |digest, ev| {
        let r = ev.labeled().expect("a lossless run labels everything");
        digest ^ item_digest(index_of[&r.ticket], &r.labels)
    })
}

/// Measure the base shape.
pub fn run(ctx: &Ctx) -> Capacity {
    // Routing (hash or affinity) changes where requests queue, never what
    // they compute: both modes must reproduce the serial engine exactly.
    for mode in [RoutingMode::Hash, routing::affinity()] {
        let cfg = ServeConfig {
            routing: mode,
            exec_emulation_scale: 0.0,
            ..ctx.base.clone()
        };
        let run = ctx.run_closed("equivalence", ctx.fx.scheduler(), cfg, &ctx.items);
        ctx.check_serial(&run.report.routing, &run.report.stats);
    }
    eprintln!(
        "[bench_serve] equivalence: hash and affinity serve stats == serial stats over {} items",
        ctx.want.items
    );
    let labels_digest = format!("{:016x}", labels_digest(ctx));

    let closed = ctx.run_closed(
        "closed loop",
        ctx.fx.scheduler(),
        ctx.base.clone(),
        &ctx.items,
    );
    let capacity = Capacity {
        labels_digest,
        closed_loop_capacity_per_s: closed.per_s(closed.report.completed),
        closed_loop_p99_us: closed.report.total.p99_us,
        mean_recall: closed.report.stats.mean_recall(),
        batching_saving_fraction: saving_fraction(&closed.report),
        obs_overhead_fraction: obs_overhead(ctx),
    };
    eprintln!(
        "[bench_serve] closed loop: {:.0} items/s, batching saved {:.0}% of the virtual GPU bill, \
         observability costs {:.2}% of capacity",
        capacity.closed_loop_capacity_per_s,
        capacity.batching_saving_fraction * 100.0,
        capacity.obs_overhead_fraction * 100.0
    );
    capacity
}

/// The closed-loop fixture served with and without the live observability
/// layer (default `ObsConfig`: 5ms drains, full event stream, registry,
/// flight recorder). A single pass over the smoke fixture lasts ~50ms,
/// within which two identical runs differ by several percent on a shared
/// machine — so each trial submits the stream several times over, and the
/// modes are interleaved (off, on, off, on, …) so scheduler drift lands on
/// both sides alike. Best-of is the right fold for capacity: interference
/// only ever slows a run down. The obs-on trials must also reconcile the
/// event stream with the ledger.
fn obs_overhead(ctx: &Ctx) -> f64 {
    const TRIALS: usize = 8;
    const PASSES: usize = 6;
    let stream = ctx.repeated(PASSES);
    let mut best = [0.0f64; 2]; // [off, on]
    for _ in 0..TRIALS {
        for (mode, obs_on) in [false, true].into_iter().enumerate() {
            let cfg = ServeConfig {
                obs: obs_on.then(ObsConfig::default),
                ..ctx.base.clone()
            };
            let run = ctx.run_closed("obs overhead", ctx.fx.scheduler(), cfg, &stream);
            assert!(
                run.report.events_reconcile(),
                "obs overhead trial: event totals must reconcile with the ledger"
            );
            best[mode] = best[mode].max(run.per_s(run.report.completed));
        }
    }
    (1.0 - best[1] / best[0].max(f64::MIN_POSITIVE)).max(0.0)
}
