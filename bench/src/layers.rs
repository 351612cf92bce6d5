//! Per-layer metrics read at the layer boundaries of a traced window:
//! counts and times from the server's reports, the requests' own
//! `LabelResult`s and the harness's spans.

use crate::harness::Pass;
use crate::measure::Window;
use crate::metrics::Values;
use crate::stats::{percentile, tail_percentile};
use crate::trace::mean_children_us;
use crate::workload::Prepared;

fn sorted(values: impl Iterator<Item = u64>) -> Vec<u64> {
    let mut v: Vec<u64> = values.collect();
    v.sort_unstable();
    v
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Record every boundary metric of the traced `window`.
pub fn record(
    prep: &Prepared,
    window: &Window,
    passes: &[Pass],
    values: &mut Values,
) -> Result<(), String> {
    let sum = |f: &dyn Fn(&Pass) -> u64| passes.iter().map(f).sum::<u64>() as f64;
    let offered = window.offered() as f64;
    let labeled_rows = || window.rows.iter().filter(|r| r.labeled());
    let labeled = window.labeled() as f64;

    // net / gen / client: the harness's own spans.
    let [_, submit_us, residual_us, _, _] = mean_children_us(window)?;
    values.set("net.client_submit_us", submit_us);
    values.set("net.wire_residual_us", residual_us);
    let late_us = sorted(
        window
            .rows
            .iter()
            .map(|r| r.submit_ns.0.saturating_sub(r.due_ns) / 1000),
    );
    values.set("gen.late_p99_us", tail_percentile(&late_us, 0.99).0 as f64);
    values.set(
        "gen.late_max_us",
        late_us.last().copied().unwrap_or(0) as f64,
    );
    values.set("client.lat_p99_us", window.lat_p99_us());

    // router, cache, queue: the servers' ledgers, summed over passes.
    let hits = sum(&|p| p.report.affinity_hits);
    let spills = sum(&|p| p.report.affinity_spills);
    values.set("router.affinity_hit_rate", ratio(hits, hits + spills));
    values.set("router.spills", spills);
    let cache_hits = sum(&|p| p.report.cache_hit);
    let coalesced = sum(&|p| p.report.coalesced);
    values.set("cache.hit_rate", ratio(cache_hits + coalesced, offered));
    values.set("cache.hits", cache_hits);
    values.set("cache.coalesced", coalesced);
    let cache = |f: &dyn Fn(&ams::serve::CacheReport) -> u64| {
        sum(&|p| p.report.cache.as_ref().map_or(0, f))
    };
    values.set("cache.insertions", cache(&|c| c.insertions));
    values.set("cache.evictions", cache(&|c| c.evictions));
    values.set("queue.shed_admission", sum(&|p| p.report.shed_admission));
    values.set("queue.shed_oldest", sum(&|p| p.report.shed_oldest));
    values.set("queue.shed_deadline", sum(&|p| p.report.shed_deadline));
    values.set("queue.rejected", sum(&|p| p.report.rejected));

    // queue / server: each labeled request's own split.
    let waits = sorted(labeled_rows().map(|r| r.queue_wait_us));
    values.set("queue.wait_p50_us", percentile(&waits, 0.50) as f64);
    values.set("queue.wait_p99_us", tail_percentile(&waits, 0.99).0 as f64);
    let executes = sorted(labeled_rows().map(|r| r.execute_us));
    values.set("server.execute_p50_us", percentile(&executes, 0.50) as f64);
    values.set(
        "server.execute_p99_us",
        tail_percentile(&executes, 0.99).0 as f64,
    );
    let completed = sum(&|p| p.report.completed);
    let batches = sum(&|p| p.report.batches);
    values.set("server.batches", batches);
    values.set("server.mean_batch_size", ratio(completed, batches));
    values.set(
        "server.mean_coalesced",
        ratio(
            sum(&|p| p.report.stats.total_executions as u64),
            sum(&|p| p.report.model_invocations),
        ),
    );
    // What batching, coalescing and the cache took off the bill of running
    // every answered request's models one request at a time. (The server's
    // own `bill_saving_fraction` divides by per-item elapsed time, which
    // under Algorithm 2 is a makespan, not a bill.)
    let work_ms = sum(&|p| p.report.virtual_work_ms);
    let alone_ms: f64 = labeled_rows().map(|r| f64::from(r.alone_ms)).sum();
    values.set(
        "server.bill_saving_fraction",
        if alone_ms == 0.0 {
            0.0
        } else {
            1.0 - work_ms / alone_ms
        },
    );
    let late = labeled_rows().filter(|r| !r.deadline_met).count() as f64;
    values.set("server.late_fraction", ratio(late, labeled));
    values.set(
        "scheduler.models_per_item",
        ratio(labeled_rows().map(|r| f64::from(r.models)).sum(), labeled),
    );
    values.set("sim.virtual_work_ms", work_ms);
    values.set(
        "sim.virtual_makespan_ms",
        sum(&|p| p.report.virtual_exec_ms),
    );

    // adapt: the trainer's report, and what its weights were worth after
    // the mixture shift against the frozen serial reference.
    let adapt = |f: &dyn Fn(&ams::serve::AdaptReport) -> u64| {
        sum(&|p| p.report.adapt.as_ref().map_or(0, f))
    };
    values.set("adapt.learn_steps", adapt(&|a| a.learn_steps));
    values.set("adapt.swaps", adapt(&|a| a.swaps));
    values.set("adapt.experiences", adapt(&|a| a.experiences));
    values.set(
        "adapt.experiences_dropped",
        adapt(&|a| a.experiences_dropped),
    );
    let phase2 = || {
        window
            .rows
            .iter()
            .filter(|r| r.k as usize >= prep.phase2_from)
    };
    let served: f64 = phase2().map(|r| r.label_value).sum();
    let frozen: f64 = phase2()
        .map(|r| prep.reference[prep.stream[r.k as usize] as usize].value)
        .sum();
    values.set("adapt.value_gain", ratio(served, frozen));

    // obs: lifecycle events the server emitted, and what a scrape costs.
    let events = sum(&|p| {
        p.report.obs.as_ref().map_or(0, |o| {
            o.snapshot.events.iter().map(|e| e.count + e.dropped).sum()
        })
    });
    values.set("obs.events_per_item", ratio(events, offered));
    values.set(
        "obs.events_dropped",
        sum(&|p| {
            p.report
                .obs
                .as_ref()
                .map_or(0, |o| o.snapshot.dropped_total)
        }),
    );
    let counters: Vec<_> = passes.iter().filter_map(|p| p.traced).collect();
    let renders: Vec<f64> = counters.iter().map(|c| c.render_metrics_us).collect();
    values.set("obs.render_metrics_us", crate::stats::median(&renders));

    // proc: what the whole process spent per request offered.
    let cpu_ms: u64 = counters.iter().map(|c| c.cpu_ms).sum();
    let switches: u64 = counters.iter().map(|c| c.ctx_switches).sum();
    values.set("proc.cpu_ms_per_item", ratio(cpu_ms as f64, offered));
    values.set(
        "proc.ctx_switches_per_item",
        ratio(switches as f64, offered),
    );
    Ok(())
}

/// Share of the measured CPU per request that the isolated probes account
/// for: one request and one completion through the codec each way, one
/// fingerprint with content hash, one queue push and pop, one `label_item`
/// per request executed, one batch admission per batch, one cache
/// round trip per hit. Reported so that a stage nobody measures shows up
/// as a low share; it is not gated.
pub fn accounted_fraction(values: &Values, window: &Window, passes: &[Pass]) -> f64 {
    let get = |name: &str| values.get(name).unwrap_or(0.0);
    let offered = window.offered() as f64;
    let labeled = window.labeled() as f64;
    let executed: u64 = passes.iter().map(|p| p.report.completed).sum();
    let per_request = get("net.encode_request_ns")
        + get("net.decode_request_ns")
        + get("router.fingerprint_content_ns");
    let per_completion = get("net.encode_completion_ns") + get("net.decode_completion_ns");
    let per_executed = get("queue.push_pop_ns") + get("framework.label_item_ns");
    let probe_ns = per_request * offered
        + per_completion * labeled
        + per_executed * executed as f64
        + get("sim.admit_batch_ns") * get("server.batches")
        + get("cache.hit_roundtrip_ns") * get("cache.hits");
    let cpu_ns = get("proc.cpu_ms_per_item") * offered * 1e6;
    ratio(probe_ns, cpu_ns)
}
