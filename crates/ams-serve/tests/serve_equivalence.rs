//! End-to-end serving tests: when backpressure never triggers, serve-mode
//! statistics must equal the serial stream engine's over the same items —
//! across shard counts, worker counts, and batch sizes — and every offered
//! request must be accounted for exactly once under every policy.

mod common;

use ams_core::framework::{AdaptiveModelScheduler, Budget};
use ams_core::predictor::{OraclePredictor, ValuePredictor};
use ams_core::streaming::{StreamProcessor, StreamStats};
use ams_data::{ItemTruth, TruthTable};
use ams_models::{LabelSet, ModelZoo};
use ams_serve::{
    AffinityConfig, AmsServer, BackpressurePolicy, Client, Completion, ObsConfig, Router,
    RoutingMode, ServeConfig, ServeReport, ShardQueue, SloClass, SloConfig, SubmitOptions,
    SubmitOutcome, Ticket,
};
use common::{assert_stats_match, scheduler, truth_of as truth};
use std::collections::HashSet;
use std::sync::{mpsc, Arc, Mutex};

fn serial_stats(budget: Budget, table: &TruthTable) -> StreamStats {
    let mut serial = StreamProcessor::new(scheduler(), budget);
    serial.process_all(table.items());
    serial.stats().clone()
}

/// Start a server over `cfg`, submit the whole table through one client
/// with `opts` (handing every admission outcome to `check`), and drain.
fn serve_all(
    cfg: ServeConfig,
    budget: Budget,
    table: &TruthTable,
    opts: SubmitOptions,
    mut check: impl FnMut(SubmitOutcome<Ticket>),
) -> (Client, ServeReport) {
    let server = AmsServer::start(scheduler(), budget, cfg);
    let client = server.client_with_capacity(table.items().len());
    for item in table.items() {
        check(client.submit_with(Arc::new(item.clone()), opts));
    }
    let report = server.shutdown();
    (client, report)
}

/// Per-ticket delivery checked against the aggregate ledger of a lossless
/// run: exactly one `Labeled` event per item, and summing the delivered
/// results reproduces the report's merged statistics.
fn assert_delivery_matches_ledger(client: &Client, report: &ServeReport, items: usize, ctx: &str) {
    let events = client.drain();
    assert_eq!(events.len(), items, "{ctx}: exactly-once delivery");
    assert_eq!(report.completed, items as u64, "{ctx}: completed");
    let (mut executions, mut recall, mut value) = (0usize, 0.0f64, 0.0f64);
    for event in &events {
        let r = event
            .labeled()
            .unwrap_or_else(|| panic!("{ctx}: lossless run only labels, got {event:?}"));
        executions += r.executed.len();
        recall += r.recall;
        value += r.label_value;
    }
    assert_eq!(executions, report.stats.total_executions, "{ctx}: execs");
    assert!(
        (recall - report.stats.recall_sum).abs() < 1e-9,
        "{ctx}: delivered recall {recall} vs ledger {}",
        report.stats.recall_sum
    );
    assert!(
        (value - report.stats.value_sum).abs() < 1e-9,
        "{ctx}: delivered value {value} vs ledger {}",
        report.stats.value_sum
    );
}

/// The acceptance-criterion test: serve-mode stats equal the serial
/// engine's on the same item stream whenever backpressure never triggers,
/// for several shard/worker/batch shapes.
#[test]
fn serve_stats_match_serial_when_nothing_is_shed() {
    let budget = Budget::Deadline { ms: 900 };
    let table = truth(40);
    let want = serial_stats(budget, &table);
    for (shards, workers_per_shard, max_batch) in
        [(1, 1, 1), (1, 4, 8), (3, 1, 4), (4, 2, 8), (8, 1, 1)]
    {
        let cfg = ServeConfig {
            shards,
            workers_per_shard,
            max_batch,
            queue_capacity: 64,
            policy: BackpressurePolicy::Block,
            ..ServeConfig::default()
        };
        let (client, report) = serve_all(cfg, budget, &table, SubmitOptions::default(), |o| {
            assert!(
                o.ticket().is_some(),
                "lossless config must accept everything"
            );
        });
        let ctx = format!("{shards} shards x {workers_per_shard} workers, batch {max_batch}");
        assert_eq!(report.completed, 40, "{ctx}");
        assert_eq!(
            report.shed_deadline + report.shed_oldest + report.rejected,
            0
        );
        assert!(report.is_conserved(), "{ctx}");
        assert_stats_match(&report.stats, &want, &ctx);
        assert_eq!(report.total.count, 40, "{ctx}: every request timed");
        assert!(report.batches > 0 && report.max_batch_observed <= max_batch);
        assert_delivery_matches_ledger(&client, &report, 40, &ctx);
    }
}

/// Affinity routing changes only *where* requests queue, never what they
/// compute: serve-mode stats stay exactly the serial engine's, the whole
/// stream is accounted through the router, and coalescing never gets
/// worse-than-singleton.
#[test]
fn affinity_routing_preserves_serial_equivalence() {
    let budget = Budget::Deadline { ms: 900 };
    let table = truth(40);
    let want = serial_stats(budget, &table);
    for (shards, workers_per_shard, max_batch) in [(1, 1, 4), (3, 1, 4), (4, 2, 8)] {
        let cfg = ServeConfig {
            shards,
            workers_per_shard,
            max_batch,
            queue_capacity: 64,
            policy: BackpressurePolicy::Block,
            routing: RoutingMode::Affinity(AffinityConfig::default()),
            ..ServeConfig::default()
        };
        let (client, report) = serve_all(cfg, budget, &table, SubmitOptions::default(), |o| {
            assert!(
                o.ticket().is_some(),
                "lossless affinity config must accept everything"
            );
        });
        let ctx = format!("affinity {shards}x{workers_per_shard}, batch {max_batch}");
        assert_eq!(report.routing, "affinity", "{ctx}");
        assert_eq!(report.completed, 40, "{ctx}");
        assert!(report.is_conserved(), "{ctx}");
        assert_stats_match(&report.stats, &want, &ctx);
        // Every submission went through the router exactly once.
        assert_eq!(report.affinity_hits + report.affinity_spills, 40, "{ctx}");
        assert!(report.affinity_hit_rate() > 0.0, "{ctx}");
        assert!(report.model_invocations > 0, "{ctx}");
        assert!(report.mean_coalesced() >= 1.0, "{ctx}");
        assert_delivery_matches_ledger(&client, &report, 40, &ctx);
    }
}

/// Batched admission compresses virtual execution: the sum of batch
/// makespans never exceeds the serial sum of the same items' execution
/// times, and the compression is strict once real coalescing happens.
#[test]
fn batched_admission_compresses_virtual_exec_time() {
    let budget = Budget::Deadline { ms: 900 };
    let table = truth(48);
    let cfg = ServeConfig {
        shards: 1,
        workers_per_shard: 1,
        max_batch: 16,
        queue_capacity: 64,
        policy: BackpressurePolicy::Block,
        ..ServeConfig::default()
    };
    let (client, report) = serve_all(cfg, budget, &table, SubmitOptions::default(), drop);
    assert_delivery_matches_ledger(&client, &report, 48, "batched admission");
    assert!(
        report.virtual_exec_ms <= report.stats.total_exec_ms,
        "batching can only compress: {} > {}",
        report.virtual_exec_ms,
        report.stats.total_exec_ms
    );
    assert!(report.virtual_exec_ms > 0);
}

/// Reject policy on a tiny queue with no workers draining fast enough:
/// rejections surface to the submitter and the ledger still balances.
#[test]
fn reject_policy_accounts_for_every_request() {
    let budget = Budget::Deadline { ms: 900 };
    let table = truth(60);
    let cfg = ServeConfig {
        shards: 1,
        workers_per_shard: 1,
        queue_capacity: 2,
        max_batch: 2,
        policy: BackpressurePolicy::Reject,
        // Slow the worker so the queue genuinely fills.
        exec_emulation_scale: 5e-3,
        ..ServeConfig::default()
    };
    let mut rejected = 0u64;
    let (_, report) = serve_all(cfg, budget, &table, SubmitOptions::default(), |o| {
        rejected += u64::from(o.is_rejected());
    });
    assert_eq!(report.rejected, rejected);
    assert!(report.rejected > 0, "a 2-deep queue must overflow");
    assert!(report.is_conserved());
    assert_eq!(report.completed + report.rejected, 60);
    assert!(report.shed_rate() > 0.0);
}

/// ShedOldest policy: the queue stays fresh by dropping its head; sheds
/// are counted and the ledger balances.
#[test]
fn shed_oldest_policy_keeps_admitting() {
    let budget = Budget::Deadline { ms: 900 };
    let table = truth(60);
    let cfg = ServeConfig {
        shards: 1,
        workers_per_shard: 1,
        queue_capacity: 2,
        max_batch: 2,
        policy: BackpressurePolicy::ShedOldest,
        exec_emulation_scale: 5e-3,
        ..ServeConfig::default()
    };
    let (_, report) = serve_all(cfg, budget, &table, SubmitOptions::default(), |o| {
        assert!(!o.is_rejected(), "shed-oldest always admits while open");
    });
    assert!(report.shed_oldest > 0, "a 2-deep queue must shed");
    assert_eq!(report.rejected, 0);
    assert!(report.is_conserved());
    assert_eq!(report.completed + report.shed_oldest, 60);
}

/// A request shed after partial batch admission (popped in a batch, then
/// dropped by the deadline check while its batch-mates execute) is counted
/// exactly once in the shed ledger and never enters the recall denominator
/// or the latency histograms.
#[test]
fn partial_batch_shed_counted_once_and_excluded_from_recall() {
    let budget = Budget::Deadline { ms: 900 };
    let table = truth(60);
    let cfg = ServeConfig {
        shards: 1,
        workers_per_shard: 1,
        queue_capacity: 64,
        max_batch: 8,
        policy: BackpressurePolicy::Block,
        // A 1 MB pool runs a batch's models one at a time, so the worker
        // pops the next batch only tens of wall ms later.
        pool_mb: 1,
        exec_emulation_scale: 5e-3,
        ..ServeConfig::default()
    };
    // Each batch's emulated execution takes tens of wall ms, so requests
    // queued behind it age past their 40 ms deadline while the ones
    // popped fresh survive — mixed batches, the partial-shed shape.
    let opts = SubmitOptions::default().deadline_us(40_000);
    let (_, report) = serve_all(cfg, budget, &table, opts, drop);
    assert!(report.shed_deadline > 0, "the backlog must age past 40ms");
    assert!(report.completed > 0, "fresh requests must survive");
    // Exactly-once ledger: every offered request is in precisely one bucket.
    assert!(report.is_conserved());
    assert_eq!(report.completed + report.shed_deadline, 60);
    // Never in the recall denominator: stats cover completed requests only,
    // so mean_recall is over survivors, not shed work.
    assert_eq!(report.stats.items as u64, report.completed);
    let runs: u64 = report.stats.per_model_runs.iter().sum();
    assert_eq!(runs as usize, report.stats.total_executions);
    assert!(report.stats.mean_recall() > 0.0 && report.stats.mean_recall() <= 1.0);
    // Never in the telemetry either: one histogram entry per completion.
    assert_eq!(report.queue_wait.count, report.completed);
    assert_eq!(report.execute.count, report.completed);
    assert_eq!(report.total.count, report.completed);
    // Executed-batch accounting ignores all-shed rounds.
    assert!(report.mean_batch_size() >= 1.0);
    assert!(report.batches <= report.completed);
}

/// `AmsServer::shard_of` and the hash router answer from the same
/// `fib_shard` — the placement function is shared, so the constants
/// cannot drift between the accessor and the live routing path.
#[test]
fn shard_of_matches_the_hash_routers_placement() {
    let budget = Budget::Deadline { ms: 900 };
    let table = truth(24);
    for shards in [1usize, 2, 4, 7] {
        let sched = scheduler();
        let router = Router::new(RoutingMode::Hash, shards);
        let queues: Vec<ShardQueue> = (0..shards)
            .map(|_| ShardQueue::new(8, BackpressurePolicy::Reject))
            .collect();
        let server = AmsServer::start(
            scheduler(),
            budget,
            ServeConfig {
                shards,
                ..ServeConfig::default()
            },
        );
        for item in table.items() {
            let fp = router.fingerprint(&sched, item, false);
            assert_eq!(
                server.shard_of(item),
                router.route(&fp, item, &queues, None).shard,
                "scene {} with {shards} shards",
                item.scene_id
            );
        }
        server.shutdown();
    }
}

/// Two SLO classes routed through every backpressure policy: the
/// admission-time shed path and value-weighted eviction keep the ledger
/// exactly-once — globally, per class, and in value terms.
#[test]
fn slo_shedding_conserves_every_request_across_policies() {
    let budget = Budget::Deadline { ms: 900 };
    let table = truth(60);
    for policy in common::POLICIES {
        let cfg = ServeConfig {
            shards: 1,
            workers_per_shard: 1,
            queue_capacity: 2,
            max_batch: 2,
            policy,
            // Real wall time per batch (tens of ms), so queues build, the
            // amortized estimate is far above the interactive budget, and
            // a 2 ms deadline is hopeless once anything is queued ahead.
            exec_emulation_scale: 2e-2,
            slo: Some(SloConfig::aware(vec![
                SloClass::new("interactive", 2, 4.0),
                SloClass::new("bulk", 10_000, 1.0),
            ])),
            ..ServeConfig::default()
        };
        let server = AmsServer::start(scheduler(), budget, cfg);
        let client = server.client_with_capacity(table.items().len());
        let mut outcomes = [0u64; 5];
        let mut offered_by_class = [0u64; 2];
        {
            let mut submit = |item: &ItemTruth, class: usize| {
                let opts = SubmitOptions::class(class);
                let idx = match client.submit_with(Arc::new(item.clone()), opts) {
                    SubmitOutcome::Enqueued(_) => 0,
                    SubmitOutcome::EnqueuedShedOldest(_) => 1,
                    SubmitOutcome::Rejected => 2,
                    SubmitOutcome::ShedAdmission(_) => 3,
                    SubmitOutcome::ShedIncoming(_) => 4,
                    SubmitOutcome::Cached(_) | SubmitOutcome::Coalesced(_) => {
                        unreachable!("cache is off in this config")
                    }
                };
                outcomes[idx] += 1;
                offered_by_class[class] += 1;
            };
            // Warm-up: paced bulk submissions, so at least one batch
            // executes and the workers publish the amortized-time signal
            // admission control prices with (before the first execution
            // there is no evidence, so nothing is shed at admission).
            for item in table.items().iter().take(10) {
                std::thread::sleep(std::time::Duration::from_millis(2));
                submit(item, 1);
            }
            std::thread::sleep(std::time::Duration::from_millis(40));
            // Flood: the rest arrives back to back. The worker is
            // mid-batch for milliseconds at a time while submissions land
            // in microseconds, so the queue genuinely backs up — and with
            // the published amortized time far above the 2 ms interactive
            // budget, an interactive request behind *any* earlier-deadline
            // backlog (or facing a full queue) is provably doomed and must
            // be shed at admission, not queued.
            for (i, item) in table.items().iter().enumerate().skip(10) {
                submit(item, i % 2);
            }
        }
        let report = server.shutdown();
        let ctx = format!("policy {policy:?}");
        assert!(report.is_conserved(), "{ctx}: {report:?}");
        assert_eq!(report.offered, 60, "{ctx}");
        assert_eq!(
            report.shed_admission, outcomes[3],
            "{ctx}: admission sheds surface to the submitter"
        );
        assert_eq!(report.rejected, outcomes[2], "{ctx}");
        assert!(
            report.shed_admission > 0,
            "{ctx}: a 2 ms class budget against tens-of-ms batches must \
             trip admission control once the amortized estimate exists"
        );
        let slo = report.slo.as_ref().expect("slo ledger present");
        assert!(slo.is_conserved(), "{ctx}: every class ledger balances");
        assert_eq!(slo.classes.len(), 2, "{ctx}");
        let offered: u64 = slo.classes.iter().map(|c| c.offered).sum();
        assert_eq!(offered, 60, "{ctx}: every submission classed");
        for c in &slo.classes {
            assert_eq!(
                c.offered, offered_by_class[c.class],
                "{ctx}: every submission classed as submitted"
            );
            // Value conservation: offered value = banked + lost, to float
            // sum tolerance.
            assert!(
                (c.value_offered - c.value_completed - c.value_shed).abs() < 1e-6,
                "{ctx} class {}: {} != {} + {}",
                c.name,
                c.value_offered,
                c.value_completed,
                c.value_shed
            );
            assert!(c.deadline_met <= c.completed, "{ctx}");
        }
        // The global ledger and the class ledgers agree bucket by bucket.
        assert_eq!(
            slo.classes.iter().map(|c| c.completed).sum::<u64>(),
            report.completed,
            "{ctx}"
        );
        assert_eq!(
            slo.classes.iter().map(|c| c.shed_admission).sum::<u64>(),
            report.shed_admission,
            "{ctx}"
        );
        assert_eq!(
            slo.classes.iter().map(|c| c.shed_oldest).sum::<u64>(),
            report.shed_oldest,
            "{ctx}"
        );
        assert_eq!(
            slo.classes.iter().map(|c| c.shed_deadline).sum::<u64>(),
            report.shed_deadline,
            "{ctx}"
        );
        assert_eq!(
            slo.classes.iter().map(|c| c.rejected).sum::<u64>(),
            report.rejected,
            "{ctx}"
        );
    }
}

/// Blind SLO mode (classes tracked, behaviors off) on a lossless blocking
/// configuration: scheduling is untouched — serve stats still equal the
/// serial engine's — while the per-class ledger records every completion
/// and every generous deadline as met.
#[test]
fn blind_slo_mode_tracks_classes_without_perturbing_results() {
    let budget = Budget::Deadline { ms: 900 };
    let table = truth(40);
    let want = serial_stats(budget, &table);
    let cfg = ServeConfig {
        shards: 2,
        workers_per_shard: 2,
        max_batch: 4,
        queue_capacity: 64,
        policy: BackpressurePolicy::Block,
        slo: Some(SloConfig::blind(vec![
            SloClass::new("interactive", 60_000, 3.0),
            SloClass::new("bulk", 60_000, 1.0),
        ])),
        ..ServeConfig::default()
    };
    let server = AmsServer::start(scheduler(), budget, cfg);
    let client = server.client_with_capacity(table.items().len());
    for (i, item) in table.items().iter().enumerate() {
        assert!(
            matches!(
                client.submit_with(Arc::new(item.clone()), SubmitOptions::class(i % 2)),
                SubmitOutcome::Enqueued(_)
            ),
            "lossless blind config admits everything"
        );
    }
    let report = server.shutdown();
    assert!(report.is_conserved());
    assert_delivery_matches_ledger(&client, &report, 40, "blind slo");
    assert_eq!(report.shed_admission, 0, "admission control is off");
    assert_stats_match(&report.stats, &want, "blind slo");
    // The full SLO report survives serde for the bench records.
    let json = serde_json::to_string(&report).expect("serializes");
    let slo = report.slo.expect("ledger present");
    assert!(!slo.aware);
    assert!(slo.is_conserved());
    assert!(
        (slo.deadline_met_rate() - 1.0).abs() < 1e-12,
        "60 s budgets"
    );
    assert!(slo.value_shed_loss() == 0.0, "nothing shed, nothing lost");
    assert!(slo.value_completed() > 0.0, "banked value recorded");
    // Class weights scale banked value: equal item splits, 3x weight.
    let per_item_0 = slo.classes[0].value_completed / slo.classes[0].completed as f64;
    let per_item_1 = slo.classes[1].value_completed / slo.classes[1].completed as f64;
    assert!(
        per_item_0 > per_item_1,
        "weight-3 class banks more per item: {per_item_0} vs {per_item_1}"
    );
    let back: ams_serve::ServeReport = serde_json::from_str(&json).expect("parses");
    let back_slo = back.slo.expect("slo survives");
    assert_eq!(back_slo.classes.len(), 2);
    assert_eq!(back_slo.classes[0].name, "interactive");
    assert_eq!(back_slo.classes[0].completed, slo.classes[0].completed);
    assert!((back_slo.value_shed_loss() - slo.value_shed_loss()).abs() < 1e-12);
}

/// Deadline-aware shedding: with a zero deadline every dequeued request is
/// already expired, so everything is shed and nothing is executed.
#[test]
fn zero_timeout_sheds_every_request_at_dequeue() {
    let budget = Budget::Deadline { ms: 900 };
    let table = truth(20);
    let cfg = ServeConfig {
        shards: 2,
        ..ServeConfig::default()
    };
    let opts = SubmitOptions::default().deadline_us(0);
    let (_, report) = serve_all(cfg, budget, &table, opts, drop);
    assert_eq!(report.shed_deadline, 20);
    assert_eq!(report.completed, 0);
    assert_eq!(report.stats.items, 0);
    assert!(report.is_conserved());
    assert!((report.shed_rate() - 1.0).abs() < 1e-12);
}

/// Graceful drain: everything accepted before shutdown is processed, and
/// submissions after shutdown-close are rejected (observed via a queue
/// closed mid-stream — the server consumes itself on shutdown, so the
/// post-shutdown path is exercised through the conservation ledger).
#[test]
fn shutdown_drains_backlog_and_latency_split_is_recorded() {
    let budget = Budget::Deadline { ms: 900 };
    let table = truth(32);
    let cfg = ServeConfig {
        shards: 2,
        workers_per_shard: 1,
        queue_capacity: 32,
        max_batch: 4,
        policy: BackpressurePolicy::Block,
        exec_emulation_scale: 1e-3,
        ..ServeConfig::default()
    };
    let (client, report) = serve_all(cfg, budget, &table, SubmitOptions::default(), drop);
    assert_delivery_matches_ledger(&client, &report, 32, "backlog drained, not dropped");
    assert_eq!(report.queue_wait.count, 32);
    assert_eq!(report.execute.count, 32);
    assert_eq!(report.total.count, 32);
    // The latency split is internally consistent: total >= each part.
    assert!(report.total.p50_us >= report.queue_wait.p50_us.min(report.execute.p50_us));
    assert!(report.total.max_us >= report.execute.max_us);
    assert!(report.total.max_us >= report.queue_wait.max_us);
    assert!(
        report.execute.mean_us > 0.0,
        "emulated execution takes time"
    );
    // And the report serializes for the bench harness.
    let json = serde_json::to_string(&report).expect("report serializes");
    let back: ams_serve::ServeReport = serde_json::from_str(&json).expect("parses");
    assert_eq!(back.completed, 32);
    assert_eq!(back.policy, "block");
}

/// An oracle whose first prediction tells the test it has begun and then
/// blocks until the test lets it go: the one worker is then held inside
/// the label of the first request it popped.
struct HeldOracle {
    oracle: OraclePredictor,
    held: Mutex<Option<(mpsc::Sender<()>, mpsc::Receiver<()>)>>,
}

impl ValuePredictor for HeldOracle {
    fn num_models(&self) -> usize {
        self.oracle.num_models()
    }

    fn predict_into(&self, state: &LabelSet, item: &ItemTruth, out: &mut [f32]) {
        let held = self.held.lock().expect("held oracle").take();
        if let Some((begun, release)) = held {
            begun.send(()).expect("the test waits for the hold");
            release.recv().expect("the test releases the hold");
        }
        self.oracle.predict_into(state, item, out);
    }

    fn name(&self) -> &'static str {
        "held-oracle"
    }
}

/// One worker, no emulation: submit one request, queue `k` more while the
/// worker is held labeling it, release it, and collect every completion.
/// Returns the report, the completions and the `executing` gauge once all
/// `k + 1` are in.
fn held_burst(k: usize, max_batch: usize, budget: Budget) -> (ServeReport, Vec<Completion>, u64) {
    let zoo = ModelZoo::standard();
    let (begun_tx, begun) = mpsc::channel();
    let (release, release_rx) = mpsc::channel();
    let predictor = HeldOracle {
        oracle: OraclePredictor::new(zoo.len(), 0.5),
        held: Mutex::new(Some((begun_tx, release_rx))),
    };
    let sched = AdaptiveModelScheduler::new(zoo, Box::new(predictor), 0.5, 64);
    let cfg = ServeConfig {
        shards: 1,
        workers_per_shard: 1,
        max_batch,
        queue_capacity: k + 1,
        obs: Some(ObsConfig::default()),
        ..ServeConfig::default()
    };
    let server = AmsServer::start(sched, budget, cfg);
    let client = server.client_with_capacity(k + 1);
    let table = truth(k + 1);
    let submit = |item: &ItemTruth| assert!(client.submit(Arc::new(item.clone())).is_accepted());
    submit(&table.items()[0]);
    begun.recv().expect("the worker labels the first request");
    table.items()[1..].iter().for_each(submit);
    release.send(()).expect("the worker is held");
    let events: Vec<Completion> = (0..=k).filter_map(|_| client.recv()).collect();
    let snapshot = server.metrics_snapshot().expect("obs is on");
    let executing = snapshot.shards.iter().map(|s| s.executing).sum();
    (server.shutdown(), events, executing)
}

/// Requests that queue while an idle pool's batch is being labeled join
/// that batch: `k + 1 <= max_batch` is one admission, one setup per
/// distinct model, labels as the serial engine's, and the `executing`
/// gauge back at 0 (the batch started with every member counted).
#[test]
fn requests_queued_during_labeling_join_the_open_batch() {
    let budget = Budget::Deadline { ms: 900 };
    let (k, max_batch) = (3, 4);
    let (report, events, executing) = held_burst(k, max_batch, budget);
    assert_eq!(report.batches, 1, "one admission for the whole burst");
    assert_eq!(report.max_batch_observed, k + 1);
    assert_eq!(executing, 0);
    let table = truth(k + 1);
    let serial: Vec<_> = table
        .items()
        .iter()
        .map(|item| scheduler().label_item(item, budget))
        .collect();
    let models: HashSet<_> = serial
        .iter()
        .flat_map(|o| o.executed.iter().copied())
        .collect();
    assert_eq!(report.model_invocations, models.len() as u64);
    let mut got: Vec<_> = events
        .iter()
        .map(|e| e.labeled().expect("lossless").labels.clone())
        .collect();
    let mut want: Vec<_> = serial.into_iter().map(|o| o.labels).collect();
    got.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    want.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    assert_eq!(got, want, "labels equal the serial engine's");
}

/// A burst one larger than the room left tops the open batch up to the
/// limit; the rest is the next admission.
#[test]
fn a_burst_past_the_batch_limit_is_two_admissions() {
    let max_batch = 4;
    let (report, events, executing) =
        held_burst(max_batch, max_batch, Budget::Deadline { ms: 900 });
    assert_eq!(events.len(), max_batch + 1);
    assert_eq!((report.batches, report.max_batch_observed), (2, max_batch));
    assert_eq!(executing, 0);
}
