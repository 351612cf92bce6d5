//! Online adaptation end-to-end, against the two promises `ams-serve::adapt`
//! makes: with `adapt: None` the serving path is byte-identical to the
//! frozen (pre-adaptation) path under every backpressure policy, and with
//! adaptation on the experience/ swap/ event ledgers all reconcile — the
//! trainer's swaps show up in the event stream, the taps' offers show up
//! in the experience counts, and conservation still holds.

mod common;

use ams_core::framework::{AdaptiveModelScheduler, Budget};
use ams_core::streaming::{StreamProcessor, StreamStats};
use ams_core::SnapshotPredictor;
use ams_data::{Dataset, DatasetProfile, TruthTable};
use ams_models::ModelZoo;
use ams_rl::{train, AgentSnapshot, Algo, OnlineConfig, TrainConfig, TrainedAgent};
use ams_serve::{AdaptConfig, AmsServer, BackpressurePolicy, EventKind, ObsConfig, ServeConfig};
use common::assert_stats_match;
use std::sync::{Arc, OnceLock};

const BUDGET: Budget = Budget::Deadline { ms: 900 };

/// One boot agent + truth table for every test: training once is the
/// expensive part, and the tests exercise serving, not convergence.
fn fixture() -> &'static (TrainedAgent, TruthTable) {
    static FIXTURE: OnceLock<(TrainedAgent, TruthTable)> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let zoo = ModelZoo::standard();
        let ds = Dataset::generate(DatasetProfile::Coco2017, 40, 23);
        let truth = TruthTable::build(&zoo, &zoo.catalog(), &ds, 0.5);
        let cfg = TrainConfig {
            episodes: 10,
            ..TrainConfig::fast_test(Algo::Dqn)
        };
        let (agent, _) = train(truth.items(), 30, &cfg);
        (agent, truth)
    })
}

/// A scheduler predicting from the boot agent's generation-0 snapshot —
/// the exact predictor the adaptive path serves until the first swap.
fn frozen_scheduler(agent: &TrainedAgent) -> AdaptiveModelScheduler {
    let zoo = ModelZoo::standard();
    let predictor = Box::new(SnapshotPredictor::new(Arc::new(AgentSnapshot::initial(
        agent.clone(),
    ))));
    AdaptiveModelScheduler::new(zoo, predictor, 0.5, 64)
}

fn frozen_serial_stats() -> StreamStats {
    let (agent, truth) = fixture();
    let mut serial = StreamProcessor::new(frozen_scheduler(agent), BUDGET);
    serial.process_all(truth.items());
    serial.stats().clone()
}

/// `adapt: None` is the frozen path, bit for bit: serve-mode stats over a
/// lossless stream equal the serial engine's with the same generation-0
/// snapshot predictor, under every backpressure policy, and the report
/// carries no adaptation record.
#[test]
fn adapt_off_is_byte_identical_to_frozen_path_across_policies() {
    let (agent, truth) = fixture();
    let want = frozen_serial_stats();
    for policy in common::POLICIES {
        let cfg = ServeConfig {
            shards: 2,
            workers_per_shard: 2,
            max_batch: 4,
            queue_capacity: 64,
            policy,
            ..ServeConfig::default()
        };
        assert!(cfg.adapt.is_none(), "off is the default");
        let server = AmsServer::start(frozen_scheduler(agent), BUDGET, cfg);
        let client = server.client();
        for item in truth.items() {
            client.submit(Arc::new(item.clone()));
        }
        let report = server.shutdown();
        let ctx = format!("adapt off, {policy:?}");
        assert!(report.adapt.is_none(), "{ctx}: no adaptation record");
        assert_eq!(report.completed, 40, "{ctx}: lossless");
        assert!(report.is_conserved(), "{ctx}");
        assert_stats_match(&report.stats, &want, &ctx);
    }
}

/// Adaptation armed but gated (a warmup the stream can never reach):
/// the workers serve the boot generation forever, so the results still
/// equal the frozen serial run — proof the snapshot path itself changes
/// nothing — while the taps feed every outcome to the trainer and the
/// swap ledgers all read zero.
#[test]
fn warmup_gated_adaptation_serves_boot_weights_unchanged() {
    let (agent, truth) = fixture();
    let want = frozen_serial_stats();
    let mut adapt = AdaptConfig::new(agent.clone()).seed(7);
    adapt.online.warmup = usize::MAX; // never ready, never a learn step
    let cfg = ServeConfig {
        shards: 2,
        workers_per_shard: 2,
        max_batch: 4,
        queue_capacity: 64,
        policy: BackpressurePolicy::Block,
        obs: Some(ObsConfig::default()),
        adapt: Some(adapt),
        ..ServeConfig::default()
    };
    let server = AmsServer::start(frozen_scheduler(agent), BUDGET, cfg);
    let client = server.client();
    for item in truth.items() {
        client.submit(Arc::new(item.clone()));
    }
    let report = server.shutdown();
    assert_eq!(report.completed, 40);
    assert!(report.is_conserved());
    assert_stats_match(&report.stats, &want, "gated adaptation");
    let adapt = report.adapt.as_ref().expect("adaptation record present");
    assert_eq!(adapt.swaps, 0, "warmup never reached");
    assert_eq!(adapt.generation, 0, "boot weights never replaced");
    assert_eq!(adapt.learn_steps, 0);
    assert!(adapt.losses.is_empty());
    assert_eq!(
        adapt.experiences, 40,
        "every completed outcome crossed the tap"
    );
    assert_eq!(adapt.experiences_dropped, 0, "1024-deep channel, 40 items");
    assert!(adapt.transitions >= adapt.experiences, "END transitions");
    // Zero swaps must also reconcile as zero swap *events*.
    assert!(report.events_reconcile(), "{report:?}");
    assert_eq!(
        report
            .obs
            .as_ref()
            .expect("obs report")
            .total(EventKind::WeightsSwapped),
        0
    );
}

/// The closed loop: a live trainer that warms up, learns, and hot-swaps
/// generations into the predict path mid-stream — and every ledger still
/// reconciles: conservation, experience counts, swap events vs swaps,
/// and the `ams_adapt_generation` gauge.
#[test]
fn live_adaptation_swaps_and_every_ledger_reconciles() {
    let (agent, truth) = fixture();
    let adapt = AdaptConfig {
        channel_capacity: 4096,
        online: OnlineConfig {
            warmup: 16,
            batch: 8,
            seed: 42,
            ..OnlineConfig::default()
        },
        steps_per_outcome: 2,
        swap_every: 4,
        agent: agent.clone(),
    };
    let cfg = ServeConfig {
        shards: 1,
        workers_per_shard: 1,
        max_batch: 4,
        queue_capacity: 512,
        policy: BackpressurePolicy::Block,
        obs: Some(ObsConfig::default()),
        adapt: Some(adapt),
        ..ServeConfig::default()
    };
    let server = AmsServer::start(frozen_scheduler(agent), BUDGET, cfg);
    let items: Vec<_> = truth.items().iter().cloned().map(Arc::new).collect();
    let client = server.client();
    for item in items.iter().cycle().take(items.len() * 4) {
        client.submit(Arc::clone(item));
    }
    // The gauge is live while the server runs (0 until the first swap,
    // the published generation after).
    let snap = server.metrics_snapshot().expect("obs is on");
    let live_generation = snap.adapt_generation.expect("gauge present");
    let report = server.shutdown();
    assert_eq!(report.completed, 160);
    assert!(report.is_conserved());
    let adapt = report.adapt.as_ref().expect("adaptation record present");
    assert_eq!(adapt.experiences, 160, "every outcome crossed the tap");
    assert_eq!(adapt.experiences_dropped, 0);
    assert!(adapt.transitions >= adapt.experiences);
    assert!(adapt.learn_steps > 0, "16-transition warmup, 160 outcomes");
    assert!(
        adapt.swaps > 0,
        "2 steps/outcome against swap_every=4 must publish: {adapt:?}"
    );
    assert_eq!(adapt.generation, adapt.swaps, "generations count swaps");
    assert!(live_generation <= adapt.generation, "gauge never ran ahead");
    assert!(!adapt.losses.is_empty());
    assert!(adapt.losses.iter().all(|l| l.is_finite()));
    // Swap events reconcile with the trainer's own count, inside the
    // full event/ledger cross-check.
    assert!(report.events_reconcile(), "{report:?}");
    assert_eq!(
        report
            .obs
            .as_ref()
            .expect("obs report")
            .total(EventKind::WeightsSwapped),
        adapt.swaps
    );
    // The adaptation record rides the serialized report (bench fixtures).
    let json = serde_json::to_string(&report).expect("report serializes");
    let back: ams_serve::ServeReport = serde_json::from_str(&json).expect("parses");
    let back_adapt = back.adapt.expect("adapt survives serde");
    assert_eq!(back_adapt.swaps, adapt.swaps);
    assert_eq!(back_adapt.losses.len(), adapt.losses.len());
}
