//! End-to-end serving integration: the full deployable pipeline — trained
//! DRL agent → adaptive scheduler → sharded serving front-end — must
//! produce exactly the statistics the serial stream engine does over the
//! same item stream when backpressure never triggers, while the batched
//! admission layer compresses virtual execution cost.

use ams::prelude::*;
use std::sync::Arc;

fn pipeline() -> (TruthTable, TrainedAgent, u64) {
    let zoo = ModelZoo::standard();
    let dataset = Dataset::generate(DatasetProfile::Coco2017, 36, 2026);
    let truth = TruthTable::build(&zoo, &zoo.catalog(), &dataset, 0.5);
    let cfg = TrainConfig {
        episodes: 16,
        ..TrainConfig::fast_test(Algo::Dqn)
    };
    let (agent, _) = train(truth.items(), zoo.len(), &cfg);
    (truth, agent, dataset.world_seed)
}

fn scheduler_for(agent: TrainedAgent, world_seed: u64) -> AdaptiveModelScheduler {
    AdaptiveModelScheduler::new(
        ModelZoo::standard(),
        Box::new(AgentPredictor::new(agent)),
        0.5,
        world_seed,
    )
}

#[test]
fn served_agent_pipeline_matches_serial_engine() {
    let (truth, agent, world_seed) = pipeline();
    let budget = Budget::Deadline { ms: 800 };

    let mut serial = StreamProcessor::new(scheduler_for(agent.clone(), world_seed), budget);
    serial.process_all(truth.items());
    let want = serial.stats().clone();

    let cfg = ServeConfig {
        shards: 3,
        workers_per_shard: 2,
        max_batch: 4,
        policy: BackpressurePolicy::Block,
        ..ServeConfig::default()
    };
    let server = AmsServer::start(scheduler_for(agent, world_seed), budget, cfg);
    let client = server.client();
    let mut tickets = Vec::new();
    for item in truth.items() {
        tickets.push(
            client
                .submit(Arc::new(item.clone()))
                .ticket()
                .expect("lossless serving config must accept every request"),
        );
    }
    // Per-request delivery: exactly one Labeled event per ticket, summing
    // to the serial engine's aggregate story.
    let mut delivered = 0u64;
    let mut value_sum = 0.0f64;
    let mut recall_sum = 0.0f64;
    while let Some(ev) = client.recv() {
        let result = ev.labeled().expect("lossless run only labels");
        value_sum += result.label_value;
        recall_sum += result.recall;
        delivered += 1;
    }
    assert_eq!(delivered, tickets.len() as u64);
    assert!((value_sum - want.value_sum).abs() < 1e-9);
    assert!((recall_sum - want.recall_sum).abs() < 1e-9);
    let report = server.shutdown();

    // Nothing shed → serve-mode stats are the serial engine's, exactly.
    assert!(report.is_conserved());
    assert_eq!(report.completed, want.items as u64);
    assert_eq!(
        report.rejected + report.shed_oldest + report.shed_deadline,
        0
    );
    assert_eq!(report.stats.items, want.items);
    assert_eq!(report.stats.total_exec_ms, want.total_exec_ms);
    assert_eq!(report.stats.total_executions, want.total_executions);
    assert_eq!(report.stats.per_model_runs, want.per_model_runs);
    assert_eq!(report.stats.low_recall_items, want.low_recall_items);
    assert!((report.stats.recall_sum - want.recall_sum).abs() < 1e-9);
    assert!((report.stats.value_sum - want.value_sum).abs() < 1e-9);
    assert!((report.stats.mean_recall() - want.mean_recall()).abs() < 1e-12);

    // Batched admission only compresses the virtual execution bill.
    assert!(report.virtual_exec_ms > 0);
    assert!(report.virtual_exec_ms <= report.stats.total_exec_ms);

    // Telemetry covered every request with a coherent wait/execute split.
    assert_eq!(report.total.count, want.items as u64);
    assert_eq!(report.queue_wait.count, report.execute.count);
    assert!(report.total.max_us >= report.execute.max_us);
    assert!(report.total.p99_us >= report.total.p50_us);
}

/// The full pipeline under affinity routing: labeling results stay
/// exactly serial, and the router accounts every request.
#[test]
fn served_pipeline_with_affinity_matches_serial() {
    let (truth, agent, world_seed) = pipeline();
    let budget = Budget::Deadline { ms: 800 };

    let mut serial = StreamProcessor::new(scheduler_for(agent.clone(), world_seed), budget);
    serial.process_all(truth.items());
    let want = serial.stats().clone();

    let cfg = ServeConfig {
        shards: 2,
        workers_per_shard: 1,
        max_batch: 4,
        policy: BackpressurePolicy::Block,
        routing: RoutingMode::Affinity(AffinityConfig::default()),
        ..ServeConfig::default()
    };
    let server = AmsServer::start(scheduler_for(agent, world_seed), budget, cfg);
    let client = server.client();
    for item in truth.items() {
        assert!(
            !client.submit(Arc::new(item.clone())).is_rejected(),
            "lossless affinity config must accept every request"
        );
    }
    let report = server.shutdown();

    assert!(report.is_conserved());
    assert_eq!(report.completed, want.items as u64);
    assert_eq!(report.stats.per_model_runs, want.per_model_runs);
    assert_eq!(report.stats.total_exec_ms, want.total_exec_ms);
    assert!((report.stats.recall_sum - want.recall_sum).abs() < 1e-9);

    // Router ledger: every submission routed exactly once.
    assert_eq!(report.routing, "affinity");
    assert_eq!(
        report.affinity_hits + report.affinity_spills,
        report.offered
    );
    // Coalescing metrics are well-formed.
    assert!(report.model_invocations > 0);
    assert!(report.mean_coalesced() >= 1.0);
    assert!(report.mean_batch_size() >= 1.0);

    // And the full report survives serde.
    let json = serde_json::to_string(&report).expect("report serializes");
    let back: ServeReport = serde_json::from_str(&json).expect("report parses");
    assert_eq!(back.routing, report.routing);
    assert_eq!(back.affinity_hits, report.affinity_hits);
    assert_eq!(back.model_invocations, report.model_invocations);
}

/// The deployable pipeline under SLO-aware serving: a trained agent behind
/// admission control, value-weighted shedding, and EDF dequeue still
/// accounts every request exactly once, and the per-class value ledger
/// sums to the report's aggregate story.
#[test]
fn served_pipeline_with_slo_classes_keeps_the_ledger_exact() {
    let (truth, agent, world_seed) = pipeline();
    let budget = Budget::Deadline { ms: 800 };
    let cfg = ServeConfig {
        shards: 2,
        workers_per_shard: 1,
        queue_capacity: 4,
        max_batch: 4,
        policy: BackpressurePolicy::ShedOldest,
        routing: RoutingMode::Affinity(AffinityConfig::default()),
        exec_emulation_scale: 1e-2,
        slo: Some(SloConfig::aware(vec![
            SloClass::new("interactive", 30, 4.0),
            SloClass::new("bulk", 5_000, 1.0),
        ])),
        ..ServeConfig::default()
    };
    let server = AmsServer::start(scheduler_for(agent, world_seed), budget, cfg);
    let client = server.client();
    let mut issued = 0u64;
    for (i, item) in truth.items().iter().enumerate() {
        let outcome = client.submit_with(Arc::new(item.clone()), SubmitOptions::class(i % 2));
        issued += u64::from(!outcome.is_rejected());
        // Cancel a straggler mid-stream: the ledger must absorb the race
        // (either the cancel wins, or the request resolves normally).
        if i == 20 {
            if let Some(ticket) = outcome.as_ticket() {
                ticket.cancel();
            }
        }
    }
    let report = server.shutdown();
    // Exactly-once: every issued ticket delivered one terminal event.
    let events = client.drain();
    assert_eq!(events.len() as u64, issued);
    let cancelled_events = events.iter().filter(|e| e.is_cancelled()).count() as u64;
    assert_eq!(cancelled_events, report.cancelled);
    assert!(report.is_conserved());
    assert_eq!(report.offered, 36);
    let slo = report.slo.as_ref().expect("slo ledger present");
    assert!(slo.is_conserved());
    assert!(slo.aware);
    assert_eq!(slo.classes.iter().map(|c| c.offered).sum::<u64>(), 36);
    assert_eq!(
        slo.classes.iter().map(|c| c.completed).sum::<u64>(),
        report.completed
    );
    for c in &slo.classes {
        assert!(
            (c.value_offered - c.value_completed - c.value_shed - c.value_cancelled).abs() < 1e-6,
            "class {} value ledger",
            c.name
        );
    }
    assert!(slo.deadline_met_rate() <= 1.0);
    // The router still accounts every submission under SLO serving.
    assert_eq!(
        report.affinity_hits + report.affinity_spills,
        report.offered
    );
    // And the enriched report round-trips for the bench records.
    let json = serde_json::to_string(&report).expect("serializes");
    let back: ServeReport = serde_json::from_str(&json).expect("parses");
    assert_eq!(back.shed_admission, report.shed_admission);
    let back_slo = back.slo.expect("slo survives serde");
    assert!((back_slo.value_shed_loss() - slo.value_shed_loss()).abs() < 1e-9);
}

#[test]
fn served_report_survives_json_round_trip() {
    let (truth, agent, world_seed) = pipeline();
    let budget = Budget::Deadline { ms: 800 };
    let server = AmsServer::start(
        scheduler_for(agent, world_seed),
        budget,
        ServeConfig::default(),
    );
    let client = server.client();
    for item in truth.items().iter().take(12) {
        client.submit(Arc::new(item.clone()));
    }
    let report = server.shutdown();
    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    let back: ServeReport = serde_json::from_str(&json).expect("report parses");
    assert_eq!(back.completed, report.completed);
    assert_eq!(back.stats.per_model_runs, report.stats.per_model_runs);
    assert_eq!(back.total.p99_us, report.total.p99_us);
    assert!((back.shed_rate() - report.shed_rate()).abs() < 1e-12);
}
