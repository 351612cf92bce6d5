//! Serving benchmark: run every sweep of [`ams_bench::serve`] over the
//! shared fixture, write `BENCH_serve.json` (methodology in `PERF.md`),
//! then evaluate the gate table on the fresh record.
//!
//! The deterministic invariants abort the process where they are measured;
//! everything timing-dependent is a table row, so a violating
//! configuration still leaves its record behind to inspect and the exit
//! code says whether it passed (rows: `bench_gate self-test`).
//!
//! Run with: `cargo run --release -p ams-bench --bin bench_serve [-- --smoke]`

use ams_bench::gate::{run_gate, GateKind};
use ams_bench::serve::{capacity, drift, held, routing, slo, zipf, Ctx, Record};
use serde::Serialize;
use std::process::ExitCode;

fn main() -> ExitCode {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let ctx = Ctx::new(smoke);
    let capacity = capacity::run(&ctx);
    let routing_sweep = routing::run(&ctx);
    let slo_sweep = slo::run(&ctx);
    let zipf_sweep = zipf::run(&ctx);
    let drift_sweep = drift::run(&ctx);
    let held_burst_admissions = held::run(&ctx);

    let record = Record {
        description: "AMS serving benchmark: sharded front-end (bounded queues, per-shard \
                      workers, batched admission into the virtual GPU pool) driven closed-loop \
                      at capacity, with and without live observability; hash vs model-affinity \
                      routing compared at 0.8x/1.6x burst load; blind vs SLO-aware shedding at \
                      1.6x burst overload; the content-addressed label cache swept \
                      over Zipf repeat rates, cache-on vs cache-off; online adaptation \
                      (ams-serve::adapt) under a mid-stream mixture shift, frozen vs adaptive; \
                      a burst queued while the one worker labels, joining its open batch. \
                      DRL-agent predictor, 1s per-item deadline. See PERF.md for methodology."
            .into(),
        cores_available: std::thread::available_parallelism().map_or(1, |n| n.get()),
        smoke,
        items: ctx.items.len(),
        shards: ctx.base.shards,
        workers_per_shard: ctx.base.workers_per_shard,
        max_batch: ctx.base.max_batch,
        queue_capacity: ctx.base.queue_capacity,
        exec_emulation_scale: ctx.base.exec_emulation_scale,
        stats_match_serial: ctx.stats_match_serial(),
        tickets_issued: ctx.tickets_issued(),
        exactly_once_ticketing: ctx.exactly_once_ticketing(),
        labels_digest: capacity.labels_digest,
        closed_loop_capacity_per_s: capacity.closed_loop_capacity_per_s,
        closed_loop_p99_us: capacity.closed_loop_p99_us,
        mean_recall: capacity.mean_recall,
        batching_saving_fraction: capacity.batching_saving_fraction,
        obs_overhead_fraction: capacity.obs_overhead_fraction,
        affinity_top_k: routing::AFFINITY_TOP_K,
        routing_sweep,
        slo_sweep,
        zipf_sweep,
        drift_sweep,
        held_burst_admissions,
    };
    let json = serde_json::to_string_pretty(&record).expect("record serializes");
    // Smoke runs are a CI gate, not a measurement: don't clobber the
    // committed full-run record.
    let path = if smoke {
        "target/BENCH_serve.smoke.json"
    } else {
        "BENCH_serve.json"
    };
    std::fs::write(path, &json).unwrap_or_else(|e| panic!("write {path}: {e}"));
    println!("{json}");

    // No baseline in-process: against itself the baseline-relative rows
    // hold trivially and every other row judges the fresh numbers.
    let record = record.to_value();
    let outcome = run_gate(GateKind::Serve, &record, &record);
    eprint!("[bench_serve] gate table on {path}:\n{}", outcome.render());
    if outcome.ok() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
