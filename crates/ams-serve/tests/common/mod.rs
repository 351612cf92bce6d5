//! Fixtures shared by the `ams-serve` integration tests: the oracle
//! scheduler, a seeded truth table, and the two comparisons several
//! suites make.
// `allow`, not `expect`: a test binary that uses all of `common` would
// leave an expectation unfulfilled.
#![allow(dead_code, reason = "each test binary uses its own subset")]

use ams_core::framework::AdaptiveModelScheduler;
use ams_core::predictor::OraclePredictor;
use ams_core::streaming::StreamStats;
use ams_data::{Dataset, DatasetProfile, TruthTable};
use ams_models::ModelZoo;
use ams_serve::{BackpressurePolicy, Completion};

/// Every backpressure policy, for the suites that sweep them.
pub const POLICIES: [BackpressurePolicy; 3] = [
    BackpressurePolicy::Block,
    BackpressurePolicy::Reject,
    BackpressurePolicy::ShedOldest,
];

pub fn scheduler() -> AdaptiveModelScheduler {
    let zoo = ModelZoo::standard();
    let predictor = Box::new(OraclePredictor::new(zoo.len(), 0.5));
    AdaptiveModelScheduler::new(zoo, predictor, 0.5, 64)
}

/// Ground truth for `items` COCO-profile scenes (dataset seed 64).
pub fn truth_of(items: usize) -> TruthTable {
    let zoo = ModelZoo::standard();
    let ds = Dataset::generate(DatasetProfile::Coco2017, items, 64);
    TruthTable::build(&zoo, &zoo.catalog(), &ds, 0.5)
}

/// Count events by kind: (labeled, shed, cancelled).
pub fn tally(events: &[Completion]) -> (u64, u64, u64) {
    let mut t = (0u64, 0u64, 0u64);
    for ev in events {
        match ev {
            Completion::Labeled(_) => t.0 += 1,
            Completion::Shed { .. } => t.1 += 1,
            Completion::Cancelled { .. } => t.2 += 1,
        }
    }
    t
}

pub fn assert_stats_match(got: &StreamStats, want: &StreamStats, ctx: &str) {
    assert_eq!(got.items, want.items, "{ctx}: items");
    assert_eq!(got.total_exec_ms, want.total_exec_ms, "{ctx}: exec ms");
    assert_eq!(got.total_executions, want.total_executions, "{ctx}: execs");
    assert_eq!(got.per_model_runs, want.per_model_runs, "{ctx}: per-model");
    assert_eq!(got.low_recall_items, want.low_recall_items, "{ctx}: alerts");
    assert!(
        (got.recall_sum - want.recall_sum).abs() < 1e-9,
        "{ctx}: recall_sum {} vs {}",
        got.recall_sum,
        want.recall_sum
    );
    assert!(
        (got.value_sum - want.value_sum).abs() < 1e-9,
        "{ctx}: value_sum"
    );
}
