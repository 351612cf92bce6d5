//! Blind vs SLO-aware shedding on the same overloaded burst stream.

use super::Ctx;
use crate::gate::{Break, Check, Rule};
use ams::prelude::*;
use serde::Serialize;

/// One shedding mode's measurement (same offered stream for both modes).
#[derive(Debug, Serialize)]
pub struct SloPoint {
    /// `"blind"` (head-drop, FIFO, no admission control) or `"aware"`
    /// (value-weighted eviction + EDF + admission control).
    pub mode: String,
    pub completed: u64,
    pub rejected: u64,
    pub shed_admission: u64,
    pub shed_oldest: u64,
    pub shed_deadline: u64,
    /// Σ predicted value of offered requests.
    pub value_offered: f64,
    /// Σ value banked by completions.
    pub value_completed: f64,
    /// Σ value delivered past its deadline (capacity spent on labels the
    /// client had given up on; subset of `value_completed`).
    pub value_late: f64,
    /// Σ value not delivered within deadline (shed value + late value) —
    /// the loss the aware mode exists to shrink.
    pub value_shed_loss: f64,
    /// Completions within their class deadline / offered.
    pub deadline_met_rate: f64,
    /// Exactly-once ledger held globally and per class.
    pub conserved: bool,
    /// Per-class breakdowns (deadlines, weights, loss paths, latency).
    pub classes: Vec<ClassReport>,
}

/// The SLO sweep: blind vs value-aware shedding.
#[derive(Debug, Serialize)]
pub struct SloSweep {
    /// Offered load as a fraction of the SLO shape's closed-loop capacity.
    pub load_factor: f64,
    /// Submission burst size.
    pub burst: usize,
    /// Times the item stream was submitted back to back.
    pub passes: usize,
    pub offered_per_s: f64,
    /// The request classes both modes served (alternating per request).
    pub classes: Vec<SloClass>,
    pub blind: SloPoint,
    pub aware: SloPoint,
}

/// The rows gating `slo_sweep`: on the same overloaded stream, aware mode
/// must strictly reduce the value-weighted shed loss and must not worsen
/// the deadline-met rate, with both ledgers intact.
pub const CHECKS: &[Check] = &[
    Check {
        name: "blind shedding conserves every request, globally and per class",
        rule: Rule::True("slo_sweep/blind/conserved"),
        breaks: Break::Flip("slo_sweep/blind/conserved"),
    },
    Check {
        name: "aware shedding conserves every request, globally and per class",
        rule: Rule::True("slo_sweep/aware/conserved"),
        breaks: Break::Flip("slo_sweep/aware/conserved"),
    },
    Check {
        name: "aware shedding strictly reduces the value-weighted shed loss",
        rule: Rule::Less(
            "slo_sweep/aware/value_shed_loss",
            "slo_sweep/blind/value_shed_loss",
        ),
        breaks: Break::Copy {
            from: "slo_sweep/blind/value_shed_loss",
            to: "slo_sweep/aware/value_shed_loss",
        },
    },
    Check {
        name: "aware shedding does not worsen the deadline-met rate",
        rule: Rule::AtLeast(
            "slo_sweep/aware/deadline_met_rate",
            "slo_sweep/blind/deadline_met_rate",
        ),
        breaks: Break::Scale("slo_sweep/aware/deadline_met_rate", 0.5),
    },
];

/// Same server shape, same offered stream (bursts of 8 at 1.6x capacity,
/// classes alternating per request), `ShedOldest` backpressure: the only
/// difference between the two runs is *which* requests get dropped and
/// *when*. Blind mode drops queue heads and lets doomed requests occupy
/// slots until the deadline check at dequeue; aware mode prices admission
/// with the workers' amortized batch time, evicts the worst
/// value-per-remaining-deadline victim, and serves
/// earliest-deadline-first.
///
/// The runs use their own shape — one worker per shard and a deeper
/// queue, so the burst genuinely saturates the workers and queue waits
/// genuinely threaten the interactive deadline — and the load factor is
/// taken against *that shape's* measured capacity. The stream is
/// submitted several times over, because shedding economics only exist
/// under *sustained* overload: a single short burst fits in the queues and
/// drains losslessly, leaving both modes nothing to decide. Smoke's
/// shorter stream takes more passes to accumulate stable statistics.
pub fn run(ctx: &Ctx) -> SloSweep {
    const LOAD_FACTOR: f64 = 1.6;
    const BURST: usize = 8;
    let passes = if ctx.smoke { 5 } else { 3 };
    let stream = ctx.repeated(passes);
    let shape = |policy, slo| ServeConfig {
        policy,
        workers_per_shard: 1,
        queue_capacity: 12,
        slo,
        ..ctx.base.clone()
    };
    let cal = ctx.run_closed(
        "slo calibration",
        ctx.fx.scheduler(),
        shape(BackpressurePolicy::Block, None),
        &ctx.items,
    );
    let capacity_per_s = cal.per_s(cal.report.completed);
    eprintln!("[bench_serve] slo-shape closed-loop capacity: {capacity_per_s:.0} items/s");

    // Self-calibrated class deadlines, so the numbers transfer across
    // machines and fixture sizes: one batch's execute span ≈ max_batch ×
    // the measured per-item service time (shards ÷ capacity). The
    // interactive deadline sits at 1.8 batch spans — *between* the
    // EDF-served total (~1.5 spans: half an in-flight batch plus its own
    // execute) and the FIFO total through a full queue (~2.5+ spans) — so
    // earliest-deadline scheduling genuinely decides who makes it. Bulk,
    // at 10 spans, tolerates the backlog but not abandonment.
    let per_item_ms = 1000.0 * ctx.base.shards as f64 / capacity_per_s.max(1.0);
    let batch_span_ms = per_item_ms * ctx.base.max_batch as f64;
    let classes = vec![
        SloClass::new("interactive", (1.8 * batch_span_ms).ceil() as u64, 4.0),
        SloClass::new("bulk", (10.0 * batch_span_ms).ceil() as u64, 1.0),
    ];
    eprintln!(
        "[bench_serve] slo deadlines: interactive {}ms, bulk {}ms (batch span {batch_span_ms:.1}ms)",
        classes[0].deadline_ms, classes[1].deadline_ms
    );

    let rate = (capacity_per_s * LOAD_FACTOR).max(1.0);
    let measure = |mode: &str, slo: SloConfig| {
        let run = ctx.run_paced(
            "slo sweep",
            ctx.fx.scheduler(),
            shape(BackpressurePolicy::ShedOldest, Some(slo)),
            &stream,
            rate,
            BURST,
            |i| i % 2,
        );
        let report = &run.report;
        let s = report.slo.as_ref().expect("slo ledger present");
        assert!(
            s.is_conserved(),
            "slo {mode}: per-class ledgers must conserve"
        );
        let point = SloPoint {
            mode: mode.into(),
            completed: report.completed,
            rejected: report.rejected,
            shed_admission: report.shed_admission,
            shed_oldest: report.shed_oldest,
            shed_deadline: report.shed_deadline,
            value_offered: s.classes.iter().map(|c| c.value_offered).sum(),
            value_completed: s.value_completed(),
            value_late: s.value_late(),
            value_shed_loss: s.value_shed_loss(),
            deadline_met_rate: s.deadline_met_rate(),
            conserved: report.is_conserved() && s.is_conserved(),
            classes: s.classes.clone(),
        };
        eprintln!(
            "[bench_serve] slo {mode} @{LOAD_FACTOR}x: value shed loss {:.1} (banked {:.1}, \
             late {:.1}), deadline met {:.1}%, sheds adm/old/dead = {}/{}/{}",
            point.value_shed_loss,
            point.value_completed,
            point.value_late,
            point.deadline_met_rate * 100.0,
            point.shed_admission,
            point.shed_oldest,
            point.shed_deadline,
        );
        point
    };
    SloSweep {
        load_factor: LOAD_FACTOR,
        burst: BURST,
        passes,
        offered_per_s: rate,
        blind: measure("blind", SloConfig::blind(classes.clone())),
        aware: measure("aware", SloConfig::aware(classes.clone())),
        classes,
    }
}
